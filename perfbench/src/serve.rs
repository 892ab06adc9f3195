//! `serve`: an in-process `oneqd` (one worker, the memory LRU sized by
//! [`ServeShape::lru`], the disk spill tier in a fresh directory) driven
//! by one closed-loop keep-alive client over loopback.
//!
//! The client's memory does not grow with the requests it sends, so a
//! faster server does not read as a larger `peak_rss_mb`. It keeps the
//! working set's inputs (an older circuit is regenerated from the seed),
//! a SHA-256 digest of each circuit's first response, and per-epoch
//! latency sums; untraced runs keep no per-request record.

use crate::inputs::{Draw, Input, ServeShape, ServeStream};
use crate::norm::{Normalizer, RefLoop, Timed};
use crate::report::Report;
use crate::stages::{self, Counters};
use crate::stats::{self, median, percentile};
use crate::suite::{self, repeated_setup, request_bytes, LayerTimes};
use crate::trace::{ItemMeta, Tracer};
use crate::Opts;
use oneq_bench::scrape::{bucket_percentile, diff_cumulative, parse_bucket_series, stats_u64};
use oneq_service::cache::sha256;
use oneq_service::compile::compile_record;
use oneq_service::http::{self, ClientConn, ClientResponse};
use oneq_service::server::{
    Server, ServerConfig, ServerHandle, OUTCOME_DISK, OUTCOME_MEMORY, OUTCOME_MISS,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A reference sample is taken every this many requests (~20 ms).
const REF_EVERY: usize = 100;
/// ... and every this many compiles, in-process or filling the working
/// set (~70 ms).
const COMPILE_REF_EVERY: usize = 7;
const TIMEOUT: Duration = Duration::from_secs(60);

/// How the server answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Memory,
    Disk,
    Miss,
}

const ALL_TIERS: [Tier; 3] = [Tier::Memory, Tier::Disk, Tier::Miss];

/// A circuit of the working set: its input and request target.
struct Job {
    k: usize,
    input: Input,
    target: String,
}

/// Job `k` from the working-set ring (slot `k % len`), regenerated from
/// the seed when the slot holds another job.
fn working_set_job<'a>(ring: &'a mut [Option<Job>], stream: &ServeStream, k: usize) -> &'a Job {
    let len = ring.len();
    let slot = &mut ring[k % len];
    if slot.as_ref().is_none_or(|job| job.k != k) {
        let input = stream.input(k);
        let target = suite::request_of(&input).query_target("/v1/compile");
        *slot = Some(Job { k, input, target });
    }
    slot.as_ref().expect("the slot was just filled")
}

/// The keep-alive client.
struct Client {
    addr: SocketAddr,
    conn: ClientConn,
    reconnects: u64,
}

impl Client {
    /// Sends one request on the keep-alive connection, reconnecting when
    /// the server retires it (after 256 requests).
    fn send(&mut self, target: &str, body: &[u8]) -> std::io::Result<ClientResponse> {
        let response = self.conn.send("POST", target, body);
        if !matches!(&response, Ok(r) if r.keep_alive()) {
            self.conn = ClientConn::connect(self.addr, TIMEOUT)?;
            self.reconnects += 1;
        }
        response
    }

    fn get(&self, path: &str) -> Result<String, String> {
        http::request(self.addr, "GET", path, b"", TIMEOUT)
            .ok()
            .filter(|r| r.status == 200)
            .map(|r| String::from_utf8_lossy(&r.body).into_owned())
            .ok_or_else(|| format!("GET {path} failed"))
    }
}

/// One server, its spill directory, its client and the stream it is
/// sent. Dropping it shuts the server down and removes the directory.
struct Daemon {
    server: Option<ServerHandle>,
    dir: PathBuf,
    client: Client,
    stream: ServeStream,
    ring: Vec<Option<Job>>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            let _ = server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Daemon {
    fn start(opts: &Opts, shape: &ServeShape, rep: usize) -> Result<Daemon, String> {
        let dir = opts
            .out_dir
            .join(format!("serve-{}-{rep}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let config = ServerConfig {
            workers: 1,
            cache_capacity: shape.lru,
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config)
            .and_then(Server::spawn)
            .map_err(|e| format!("cannot start oneqd: {e}"))?;
        let addr = server.addr();
        let conn =
            ClientConn::connect(addr, TIMEOUT).map_err(|e| format!("cannot connect: {e}"))?;
        Ok(Daemon {
            server: Some(server),
            dir,
            client: Client {
                addr,
                conn,
                reconnects: 0,
            },
            stream: ServeStream::new(opts.seed, shape.clone()),
            ring: (0..shape.fill).map(|_| None).collect(),
        })
    }
}

/// A request the server answered correctly.
struct Answer {
    draw: Draw,
    tier: Tier,
    start: Instant,
    end: Instant,
    body: Vec<u8>,
}

/// Sends the stream's next request and checks the response: status 200,
/// a cache tier, and the same SHA-256 as the first response for that
/// circuit (which the in-process compile later checks). `digests[k]` is
/// that digest for job `k`. Returns `None` after a failed request.
fn request(
    daemon: &mut Daemon,
    digests: &mut Vec<[u8; 32]>,
    report: &mut Report,
) -> Option<Answer> {
    let draw = daemon.stream.next_draw();
    let k = draw.job();
    let job = working_set_job(&mut daemon.ring, &daemon.stream, k);
    let start = Instant::now();
    let response = daemon.client.send(&job.target, job.input.source.as_bytes());
    let end = Instant::now();
    let response = match response {
        Ok(r) => r,
        Err(e) => {
            report.check(false, || format!("{}: {e}", job.input.label));
            return None;
        }
    };
    let tier = match response.header("x-oneqd-cache") {
        Some(OUTCOME_MEMORY) => Some(Tier::Memory),
        Some(OUTCOME_DISK) => Some(Tier::Disk),
        Some(OUTCOME_MISS) => Some(Tier::Miss),
        _ => None,
    };
    let digest = sha256(&response.body);
    if digests.len() == k {
        digests.push(digest);
    }
    let ok = response.status == 200 && tier.is_some() && digests.get(k) == Some(&digest);
    report.check(ok, || {
        format!(
            "{}: status {} tier {:?} body {}",
            job.input.label,
            response.status,
            response.header("x-oneqd-cache"),
            String::from_utf8_lossy(&response.body)
        )
    });
    Some(Answer {
        draw,
        tier: tier.filter(|_| ok)?,
        start,
        end,
        body: response.body,
    })
}

/// Latency sums of one tier's requests.
#[derive(Debug, Clone, Copy, Default)]
struct TierSum {
    n: u64,
    raw_ns: f64,
    ln_raw_ns: f64,
}

/// The requests of one stream block timed in one reference epoch.
#[derive(Debug, Clone, Copy)]
struct Slice {
    block: usize,
    epoch: usize,
    tiers: [TierSum; 3],
}

/// The window's latencies as sums per (block, epoch) and tier. A request
/// of one epoch is scaled by that epoch's factor, so the sums give the
/// scaled total time and geometric mean exactly, in memory that grows by
/// one slice per reference sample, not per request.
#[derive(Debug, Default)]
struct Sums {
    slices: Vec<Slice>,
}

impl Sums {
    fn add(&mut self, block: usize, tier: Tier, t: Timed) {
        if !matches!(self.slices.last(), Some(s) if (s.block, s.epoch) == (block, t.epoch)) {
            self.slices.push(Slice {
                block,
                epoch: t.epoch,
                tiers: [TierSum::default(); 3],
            });
        }
        let sum = &mut self.slices.last_mut().expect("just pushed").tiers[tier as usize];
        sum.n += 1;
        sum.raw_ns += t.raw_ns;
        sum.ln_raw_ns += t.raw_ns.ln();
    }

    /// The requests of `tiers` in blocks before `blocks`: their count,
    /// total time in ns and geometric mean in ns, scaled to the nominal
    /// reference by `norm`, or raw without it.
    fn totals(&self, norm: Option<&Normalizer>, blocks: usize, tiers: &[Tier]) -> (u64, f64, f64) {
        let (mut n, mut total_ns, mut ln_sum) = (0, 0.0, 0.0);
        for slice in self.slices.iter().filter(|s| s.block < blocks) {
            let factor = norm.map_or(1.0, |norm| norm.factor(slice.epoch));
            for &tier in tiers {
                let sum = slice.tiers[tier as usize];
                n += sum.n;
                total_ns += sum.raw_ns * factor;
                ln_sum += sum.ln_raw_ns + sum.n as f64 * factor.ln();
            }
        }
        (n, total_ns, (ln_sum / n.max(1) as f64).exp())
    }
}

/// One request kept for the traced run's percentiles.
struct Sample {
    tier: Tier,
    timed: Timed,
    block: usize,
}

/// One series of a `/v1/metrics` histogram family: the `tier="..."` one,
/// or the family's only series when it has no labels.
/// `parse_bucket_series` keys series by a label's value, so an unlabeled
/// family's lines are read with an empty `series` label added.
fn histogram(text: &str, family: &str, tier: Option<&str>) -> Vec<(u64, u64)> {
    let mut series = match tier {
        Some(_) => parse_bucket_series(text, family, "tier"),
        None => {
            let tagged = text.replace(
                &format!("{family}_bucket{{le="),
                &format!("{family}_bucket{{series=\"\",le="),
            );
            parse_bucket_series(&tagged, family, "series")
        }
    };
    series.remove(tier.unwrap_or("")).unwrap_or_default()
}

/// The `p`-th percentile, in ms, of a server histogram's growth between
/// two scrapes, refused when fewer than ten samples lie beyond it.
fn window_percentile(
    before: &str,
    after: &str,
    (family, tier): (&str, Option<&str>),
    p: f64,
    what: &str,
) -> Result<f64, String> {
    let diffed = diff_cumulative(
        Some(&histogram(before, family, tier)),
        &histogram(after, family, tier),
    );
    let total = diffed.last().map_or(0, |b| b.1);
    stats::rank(total as usize, p, what)?;
    Ok(bucket_percentile(&diffed, total, p) as f64 / 1e6)
}

/// A `/v1/stats` counter: the first `key`, after the `"block": ` object
/// when one is given.
fn stat(stats: &str, block: Option<&str>, key: &str) -> u64 {
    let at = block
        .and_then(|b| stats.find(&format!("\"{b}\": ")))
        .unwrap_or(0);
    stats_u64(&stats[at..], key)
}

/// Runs the `serve` workload.
pub fn run(opts: &Opts, shape: ServeShape) -> Result<Report, String> {
    let mut report = Report::default();
    let mut norm = Normalizer::new(opts.nominal_ms);
    let mut ref_loop = RefLoop::default();
    let mut digests: Vec<[u8; 32]> = Vec::new();

    // Set-up: a fresh server and spill directory, then the stream's fill
    // (the working set's first-time circuits), untimed.
    let (setup_s, mut daemon) = repeated_setup(&mut norm, &mut ref_loop, |rep, clock| {
        let mut daemon = Daemon::start(opts, &shape, rep)?;
        for i in 0..shape.fill {
            if i % COMPILE_REF_EVERY == 0 {
                clock.split();
            }
            request(&mut daemon, &mut digests, &mut report);
        }
        Ok(daemon)
    })?;

    let stats_before = daemon.client.get("/v1/stats")?;
    let metrics_before = daemon.client.get("/v1/metrics")?;
    let first_window_block = daemon.stream.jobs() / shape.block_len();
    let mut sums = Sums::default();
    let mut tracer = Tracer::default();
    let mut metas: Vec<ItemMeta> = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut traced: Vec<Timed> = Vec::new();
    let mut counters = Counters::default();
    let deadline = Instant::now() + opts.window();
    let mut n = 0;
    while Instant::now() < deadline {
        if n % REF_EVERY == 0 {
            norm.reference(&mut ref_loop);
        }
        n += 1;
        let Some(answer) = request(&mut daemon, &mut digests, &mut report) else {
            continue;
        };
        let timed = norm.timed((answer.end - answer.start).as_nanos() as f64);
        let block = (daemon.stream.jobs() - 1) / shape.block_len() - first_window_block;
        sums.add(block, answer.tier, timed);
        if opts.trace {
            samples.push(Sample {
                tier: answer.tier,
                timed,
                block,
            });
            let item = metas.len();
            let job = working_set_job(&mut daemon.ring, &daemon.stream, answer.draw.job());
            let bytes = request_bytes(&job.input, &daemon.client.addr.to_string());
            let t = Instant::now();
            let span = tracer.open("request", item, answer.start, answer.end);
            let parsed = suite::replay_service_layers(&job.input, &bytes, &mut tracer, item);
            report.check(parsed, || {
                format!("{}: request bytes did not parse back", job.input.label)
            });
            if answer.tier == Tier::Miss {
                let body = String::from_utf8_lossy(&answer.body);
                let want = (stats_u64(&body, "depth"), stats_u64(&body, "fusions"));
                match stages::replay(&job.input, &mut tracer, item) {
                    Ok(r) => {
                        report.check(want == (r.depth, r.fusions), || {
                            format!(
                                "{}: traced replay gave depth {} fusions {}",
                                job.input.label, r.depth, r.fusions
                            )
                        });
                        if block == 0 {
                            counters.add(&r.counters);
                        }
                    }
                    Err(e) => report.check(false, || e),
                }
            }
            tracer.close(span);
            traced.push(norm.timed(t.elapsed().as_nanos() as f64));
            metas.push(ItemMeta {
                input: job.input.label.clone(),
                pass: block,
                factor: 0.0,
            });
        }
    }
    norm.reference(&mut ref_loop);
    let stats_after = daemon.client.get("/v1/stats")?;
    let metrics_after = daemon.client.get("/v1/metrics")?;
    let reconnects = daemon.client.reconnects;
    let introduced = daemon.stream.jobs();
    // The service's peak: the in-process compiles below are the
    // benchmark's own check, not serving.
    let peak_rss_mb = crate::report::peak_rss_mib()?;
    drop(daemon);
    // A block of the window is complete once the next one has started:
    // it then holds each (family, size) once and all its repeats. The
    // window's metrics cover complete blocks only, so every run measures
    // the same mix.
    let window_blocks = ((introduced - 1) / shape.block_len()).saturating_sub(first_window_block);
    if window_blocks == 0 {
        return Err(
            "serve: the window completed no block of the stream; raise --seconds".to_string(),
        );
    }

    // Every distinct circuit, regenerated from the seed and compiled
    // in-process: the server's first response must be its record byte for
    // byte. These compiles, block by block, are the workload's
    // `compile_s`.
    let stream = ServeStream::new(opts.seed, shape.clone());
    let block_len = shape.block_len();
    let mut block_ns = vec![Vec::new(); introduced / block_len];
    // Depth and #fusions summed over the fill (the working set's first
    // circuits, seven blocks): a total over many seeded draws varies less
    // from seed to seed than one block's.
    let (mut depth, mut fusions) = (0, 0);
    for k in 0..introduced {
        if k % COMPILE_REF_EVERY == 0 {
            norm.reference(&mut ref_loop);
        }
        let input = stream.input(k);
        let t = Instant::now();
        let (record, ok) = compile_record(&input.label, &input.source, &input.config);
        let timed = norm.timed(t.elapsed().as_nanos() as f64);
        let served = sha256(format!("{record}\n").as_bytes());
        report.check(ok && digests.get(k) == Some(&served), || {
            format!(
                "{}: served bytes differ from the in-process record {record}",
                input.label
            )
        });
        if let Some(block) = block_ns.get_mut(k / block_len) {
            block.push(timed);
        }
        if k < shape.fill {
            depth += stats_u64(&record, "depth");
            fusions += stats_u64(&record, "fusions");
        }
    }
    norm.reference(&mut ref_loop);

    let (served, served_ns, request_gmean_ns) = sums.totals(Some(&norm), window_blocks, &ALL_TIERS);
    let (misses, _, miss_gmean_ns) = sums.totals(Some(&norm), window_blocks, &[Tier::Miss]);
    if misses == 0 {
        return Err("serve: the window's complete blocks hold no miss".to_string());
    }
    let block_totals = |scale: bool| -> Vec<f64> {
        block_ns
            .iter()
            .map(|b| {
                b.iter()
                    .map(|t| if scale { norm.scaled_ns(*t) } else { t.raw_ns })
                    .sum()
            })
            .collect()
    };
    report.set("compile_s", median(&block_totals(true)) / 1e9);
    report.set("depth_total", depth as f64);
    report.set("fusions_total", fusions as f64);
    let served_s = served_ns / 1e9;
    report.set("throughput_rps", served as f64 / served_s);
    report.set("request_gmean_ms", request_gmean_ns / 1e6);
    report.set("miss_gmean_ms", miss_gmean_ns / 1e6);
    report.set("setup_s", setup_s);
    let count = |tier: Tier| sums.totals(None, window_blocks, &[tier]).0;
    report.notes.push(format!(
        "serve: {served} requests ({} memory, {} disk, {misses} miss), {introduced} circuits, \
         {window_blocks} window blocks, {:.0} req/s, reference {:.3} ms",
        count(Tier::Memory),
        count(Tier::Disk),
        served as f64 / served_s,
        norm.median_ref_ms(),
    ));

    if opts.trace {
        for (meta, t) in metas.iter_mut().zip(&traced) {
            meta.factor = norm.factor(t.epoch);
        }
        let complete: Vec<usize> = (0..window_blocks).collect();
        LayerTimes::collect(&tracer, &metas).report(&complete, &mut report);
        suite::report_counters(&counters, &mut report);
        let compiles: Vec<f64> = block_ns
            .iter()
            .flatten()
            .map(|t| norm.scaled_ns(*t) / 1e6)
            .collect();
        report.set(
            "service.compile_ms",
            compiles.iter().sum::<f64>() / compiles.len().max(1) as f64,
        );

        let diff = |block: Option<&str>, key: &str| {
            stat(&stats_after, block, key).saturating_sub(stat(&stats_before, block, key)) as f64
        };
        let disk_hits = diff(Some("disk"), "hits");
        report.set("service.memory_hits", diff(Some("memory"), "hits"));
        report.set("service.disk_hits", disk_hits);
        report.set("service.misses", diff(Some("memory"), "misses") - disk_hits);
        report.set(
            "service.memory_evictions",
            diff(Some("memory"), "evictions"),
        );
        report.set(
            "service.compile_executions",
            diff(None, "compile_executions"),
        );
        report.set("service.spill_appends", diff(Some("disk"), "appends"));

        let memory = Some("memory");
        let disk = Some("disk");
        for (name, family, tier, p) in [
            (
                "server.read_ms_p50",
                "oneqd_request_read_seconds",
                None,
                50.0,
            ),
            (
                "server.read_ms_p99",
                "oneqd_request_read_seconds",
                None,
                99.0,
            ),
            (
                "server.queue_wait_ms_p50",
                "oneqd_queue_wait_seconds",
                None,
                50.0,
            ),
            (
                "server.queue_wait_ms_p99",
                "oneqd_queue_wait_seconds",
                None,
                99.0,
            ),
            (
                "server.write_ms_p50",
                "oneqd_response_write_seconds",
                None,
                50.0,
            ),
            (
                "server.write_ms_p99",
                "oneqd_response_write_seconds",
                None,
                99.0,
            ),
            (
                "server.lookup_memory_ms_p50",
                "oneqd_cache_lookup_seconds",
                memory,
                50.0,
            ),
            (
                "server.lookup_memory_ms_p99",
                "oneqd_cache_lookup_seconds",
                memory,
                99.0,
            ),
            (
                "server.lookup_disk_ms_p50",
                "oneqd_cache_lookup_seconds",
                disk,
                50.0,
            ),
            (
                "server.lookup_disk_ms_p99",
                "oneqd_cache_lookup_seconds",
                disk,
                99.0,
            ),
            (
                "server.spill_lag_ms_p50",
                "oneqd_spill_lag_seconds",
                None,
                50.0,
            ),
            (
                "server.spill_lag_ms_p90",
                "oneqd_spill_lag_seconds",
                None,
                90.0,
            ),
        ] {
            let value =
                window_percentile(&metrics_before, &metrics_after, (family, tier), p, name)?;
            report.set(name, value);
        }

        samples.retain(|s| s.block < window_blocks);
        let scaled_ms = |tier: Tier| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| s.tier == tier)
                .map(|s| norm.scaled_ns(s.timed) / 1e6)
                .collect()
        };
        let memory_ms = scaled_ms(Tier::Memory);
        report.set(
            "client.hit_p50_ms",
            percentile(&memory_ms, 50.0, "memory-hit latency")?,
        );
        report.set(
            "client.hit_p99_ms",
            percentile(&memory_ms, 99.0, "memory-hit latency")?,
        );
        report.set(
            "client.disk_p50_ms",
            percentile(&scaled_ms(Tier::Disk), 50.0, "disk-hit latency")?,
        );
        report.set(
            "client.miss_p90_ms",
            percentile(&scaled_ms(Tier::Miss), 90.0, "miss latency")?,
        );
        report.set(
            "client.hit_ratio",
            (count(Tier::Memory) + count(Tier::Disk)) as f64 / served as f64,
        );
        report.set("client.reconnects", reconnects as f64);
        report.set("client.failed", report.failed as f64);
        report.set("machine.ref_ms", norm.median_ref_ms());
        report.set("raw.compile_s", median(&block_totals(false)) / 1e9);
        let raw_gmean_ms = |tiers: &[Tier]| sums.totals(None, window_blocks, tiers).2 / 1e6;
        report.set("raw.request_gmean_ms", raw_gmean_ms(&ALL_TIERS));
        report.set("raw.miss_gmean_ms", raw_gmean_ms(&[Tier::Miss]));
        // The client-side replays are what a traced run adds to serving.
        let traced_s = traced
            .iter()
            .zip(&metas)
            .filter(|(_, m)| m.pass < window_blocks)
            .map(|(t, _)| norm.scaled_ns(*t))
            .sum::<f64>()
            / 1e9;
        report.set("trace.overhead_pct", 100.0 * traced_s / served_s);
        crate::write_trace(opts, "serve", &tracer, &metas, &mut report)?;
    }
    report.set("peak_rss_mb", peak_rss_mb);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_histograms_are_windowed_and_guarded() {
        let before = "oneqd_queue_wait_seconds_bucket{le=\"0.000001000\"} 5\n\
                      oneqd_queue_wait_seconds_bucket{le=\"0.000002000\"} 5\n\
                      oneqd_queue_wait_seconds_bucket{le=\"+Inf\"} 5\n";
        let after = "oneqd_queue_wait_seconds_bucket{le=\"0.000001000\"} 15\n\
                     oneqd_queue_wait_seconds_bucket{le=\"0.000002000\"} 35 # {request_id=\"r-1\"} 0.0000015 1.0\n\
                     oneqd_queue_wait_seconds_bucket{le=\"+Inf\"} 35\n\
                     oneqd_cache_lookup_seconds_bucket{tier=\"disk\",le=\"0.000001000\"} 3\n";
        let queue = ("oneqd_queue_wait_seconds", None);
        // The window holds 10 samples ≤ 1 µs and 20 in (1, 2] µs.
        assert_eq!(
            window_percentile(before, after, queue, 30.0, "q"),
            Ok(0.001)
        );
        assert_eq!(
            window_percentile(before, after, queue, 50.0, "q"),
            Ok(0.002)
        );
        assert!(
            window_percentile(before, after, queue, 90.0, "q").is_err(),
            "3 beyond p90"
        );
        let lookup = "oneqd_cache_lookup_seconds";
        assert_eq!(histogram(after, lookup, Some("disk")), vec![(1_000, 3)]);
        assert!(histogram(after, lookup, Some("memory")).is_empty());
    }

    #[test]
    fn latency_sums_scale_each_epoch_by_its_factor() {
        let mut norm = Normalizer::new(2.0);
        let mut sums = Sums::default();
        norm.push_ref(2e6);
        sums.add(0, Tier::Memory, norm.timed(100.0));
        sums.add(0, Tier::Miss, norm.timed(400.0));
        norm.push_ref(2e6);
        norm.push_ref(4e6);
        sums.add(0, Tier::Memory, norm.timed(200.0));
        sums.add(1, Tier::Memory, norm.timed(1e9));
        norm.push_ref(4e6);
        // Block 0: 100 ns at factor 1, 400 ns at factor 1, 200 ns at 1/2.
        let (n, total, gmean) = sums.totals(Some(&norm), 1, &ALL_TIERS);
        assert_eq!(n, 3);
        assert!((total - 600.0).abs() < 1e-9);
        assert!((gmean - (100.0f64 * 400.0 * 100.0).cbrt()).abs() < 1e-9);
        let (n, raw, _) = sums.totals(None, 2, &[Tier::Memory]);
        assert_eq!((n, raw), (3, 1e9 + 300.0));
        assert_eq!(sums.slices.len(), 3, "one slice per (block, epoch)");
    }

    #[test]
    fn the_working_set_ring_regenerates_evicted_jobs() {
        let stream = ServeStream::new(4, ServeShape::default());
        let mut ring: Vec<Option<Job>> = (0..3).map(|_| None).collect();
        let source = working_set_job(&mut ring, &stream, 1).input.source.clone();
        working_set_job(&mut ring, &stream, 4);
        let again = working_set_job(&mut ring, &stream, 1);
        assert_eq!((again.k, &again.input.source), (1, &source));
    }
}
