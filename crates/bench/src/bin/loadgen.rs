//! `loadgen`: the service-throughput harness.
//!
//! Replays the `.qasm` fixture corpus against an `oneqd` instance at a
//! configurable concurrency and writes `BENCH_service.json` with
//! throughput, latency percentiles, and per-request cache outcomes. The
//! file is a report for a person to read; no gate compares it with an
//! earlier run (the repository's benchmark is `perfbench`).
//!
//! Since the `/v1` redesign it measures *both* connection disciplines:
//! the default `--mode both` run replays the same workload once over
//! one-shot `Connection: close` requests and once over persistent
//! keep-alive sessions (one [`ClientConn`] per worker), and records the
//! two side by side plus their throughput ratio — the number that shows
//! what removing per-request TCP setup buys.
//!
//! Self-hosted cacheable runs additionally measure the persistent disk
//! tier across a restart: a cold server on a fresh `--cache-dir`
//! compiles the corpus from scratch, a second server on the same
//! directory replays it as `disk` hits, and the `"warm_restart"` block
//! records both passes plus their `warm_speedup` ratio.
//!
//! `--connections N` switches on the *adversarial event-loop mode* that
//! exercises the daemon's readiness-driven core: N keep-alive sockets
//! are opened and held simultaneously (proving open connections cost a
//! file descriptor, not a thread), `--slow-clients K` byte-tricklers
//! loiter mid-request until the server evicts them by deadline, and the
//! measured requests are spread across the whole fleet with every
//! response checked byte-for-byte against the warmup pass. The run is
//! recorded in the `"event_loop"` block (`null` otherwise). Given
//! `--connections` without an explicit `--mode`, the close/keep-alive
//! comparison and the warm-restart benchmark are skipped.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin loadgen [-- OPTIONS]
//!
//!   --addr HOST:PORT   target an already-running oneqd; without it,
//!                      loadgen self-hosts an in-process server on an
//!                      ephemeral loopback port
//!   --corpus DIR       .qasm directory (default tests/fixtures/qasm)
//!   --requests N       requests per mode (default 64)
//!   --concurrency N    client worker threads (default 4)
//!   --mode M           both|keep-alive|close (default both)
//!   --connections N    adversarial mode: hold N concurrent keep-alive
//!                      sockets open for the whole run
//!   --slow-clients K   adversarial mode: K slow-loris clients trickling
//!                      one byte at a time until evicted (default 0)
//!   --out PATH         output path (default BENCH_service.json)
//!
//! plus the shared compile knobs (--side, --rows, --cols, --extension,
//! --resource, --timings, --bypass), parsed by the same
//! `CompileRequest::from_args` the other entrypoints use and forwarded
//! to the daemon as /v1/compile query parameters.
//! ```
//!
//! Requests round-robin the sorted corpus, so with N ≥ 2 × files the
//! steady state exercises the content-addressed cache; per-request cache
//! outcomes are read from the `X-Oneqd-Cache` response header.
//!
//! Exit code: 0 on success, 1 when any request failed (transport error or
//! non-200), 2 on usage errors, 3 when the corpus holds no `.qasm` files.

use oneq_bench::scrape::{bucket_percentile, diff_cumulative, parse_bucket_series, stats_u64};
use oneq_service::http::{self, ClientConn};
use oneq_service::json;
use oneq_service::pool::run_indexed_with;
use oneq_service::request::CompileRequest;
use oneq_service::server::{
    Server, ServerConfig, ServerHandle, OUTCOME_BYPASS, OUTCOME_COALESCED, OUTCOME_DISK,
    OUTCOME_MEMORY, OUTCOME_MISS,
};
use std::fmt::Write as _;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    KeepAlive,
    Close,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::KeepAlive => "keep-alive",
            Mode::Close => "close",
        }
    }

    fn json_key(self) -> &'static str {
        match self {
            Mode::KeepAlive => "keep_alive",
            Mode::Close => "close",
        }
    }
}

struct Options {
    addr: Option<String>,
    corpus: PathBuf,
    requests: usize,
    concurrency: usize,
    modes: Vec<Mode>,
    /// Adversarial event-loop mode: hold this many keep-alive sockets
    /// open at once while the measured requests run.
    connections: Option<usize>,
    /// Slow-loris clients trickling bytes until evicted (adversarial
    /// mode only).
    slow_clients: usize,
    template: CompileRequest,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--corpus DIR] [--requests N] \
         [--concurrency N] [--mode both|keep-alive|close] [--connections N] \
         [--slow-clients K] [--out PATH] \
         [compile knobs: --side N | --rows R --cols C, --extension N, \
         --resource KIND, --timings, --bypass]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (template, rest) = CompileRequest::from_args(&args).unwrap_or_else(|msg| {
        eprintln!("loadgen: {msg}");
        usage();
    });
    let mut opt = Options {
        addr: None,
        corpus: PathBuf::from("tests/fixtures/qasm"),
        requests: 64,
        concurrency: 4,
        modes: vec![Mode::Close, Mode::KeepAlive],
        connections: None,
        slow_clients: 0,
        template,
        out: PathBuf::from("BENCH_service.json"),
    };
    let mut explicit_mode = false;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        rest.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("loadgen: {flag} needs a value");
            usage();
        })
    };
    let num = |s: String, flag: &str| -> usize {
        match s.parse::<usize>() {
            Ok(v) if v >= 1 => v,
            _ => {
                eprintln!("loadgen: {flag} expects a number >= 1, got `{s}`");
                usage();
            }
        }
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "--addr" => opt.addr = Some(value(&mut i, "--addr")),
            "--corpus" => opt.corpus = PathBuf::from(value(&mut i, "--corpus")),
            "--requests" => opt.requests = num(value(&mut i, "--requests"), "--requests"),
            "--concurrency" => {
                opt.concurrency = num(value(&mut i, "--concurrency"), "--concurrency")
            }
            "--mode" => {
                explicit_mode = true;
                opt.modes = match value(&mut i, "--mode").as_str() {
                    "both" => vec![Mode::Close, Mode::KeepAlive],
                    "keep-alive" => vec![Mode::KeepAlive],
                    "close" => vec![Mode::Close],
                    other => {
                        eprintln!("loadgen: --mode expects both|keep-alive|close, got `{other}`");
                        usage();
                    }
                }
            }
            "--connections" => {
                opt.connections = Some(num(value(&mut i, "--connections"), "--connections"));
            }
            "--slow-clients" => {
                let s = value(&mut i, "--slow-clients");
                opt.slow_clients = s.parse::<usize>().unwrap_or_else(|_| {
                    eprintln!("loadgen: --slow-clients expects a number >= 0, got `{s}`");
                    usage();
                });
            }
            "--out" => opt.out = PathBuf::from(value(&mut i, "--out")),
            "--help" | "-h" => usage(),
            flag => {
                eprintln!("loadgen: unknown flag {flag}");
                usage();
            }
        }
        i += 1;
    }
    // An adversarial run without an explicit --mode is adversarial-only:
    // the two-discipline comparison would just pad the run, and its
    // results would be polluted by the held-open fleet anyway.
    if opt.connections.is_some() && !explicit_mode {
        opt.modes.clear();
    }
    if opt.slow_clients > 0 && opt.connections.is_none() {
        eprintln!("loadgen: --slow-clients needs --connections (adversarial mode)");
        usage();
    }
    opt
}

/// The sorted `.qasm` files of the corpus directory, via the shared
/// discovery helper (`oneq_service::corpus`).
fn corpus_files(dir: &Path) -> Vec<PathBuf> {
    oneq_service::corpus::qasm_files_flat(dir).unwrap_or_else(|e| {
        eprintln!("loadgen: cannot read corpus {}: {e}", dir.display());
        std::process::exit(3);
    })
}

struct Sample {
    latency_ns: u128,
    ok: bool,
    /// `X-Oneqd-Cache` outcome, or `"error"` for a failed request.
    outcome: &'static str,
}

/// Maps an `X-Oneqd-Cache` header onto the server's own outcome
/// vocabulary (shared constants, so a renamed or new label is a compile
/// error here instead of silently counting as transport failure).
fn classify_outcome(header: Option<&str>) -> &'static str {
    match header {
        Some(h) if h == OUTCOME_MEMORY => OUTCOME_MEMORY,
        Some(h) if h == OUTCOME_DISK => OUTCOME_DISK,
        Some(h) if h == OUTCOME_MISS => OUTCOME_MISS,
        Some(h) if h == OUTCOME_COALESCED => OUTCOME_COALESCED,
        Some(h) if h == OUTCOME_BYPASS => OUTCOME_BYPASS,
        _ => "error",
    }
}

fn percentile(sorted: &[u128], p: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Per-mode measurement: samples plus the run's wall clock. Latencies
/// are sorted once at construction; the console summary and the JSON
/// emitter read the same vector, so they cannot disagree.
struct ModeRun {
    mode: Mode,
    samples: Vec<Sample>,
    sorted_latency_ns: Vec<u128>,
    wall_ns: u128,
}

impl ModeRun {
    fn new(mode: Mode, samples: Vec<Sample>, wall_ns: u128) -> ModeRun {
        let mut sorted_latency_ns: Vec<u128> = samples.iter().map(|s| s.latency_ns).collect();
        sorted_latency_ns.sort_unstable();
        ModeRun {
            mode,
            samples,
            sorted_latency_ns,
            wall_ns,
        }
    }

    fn ok(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).count()
    }

    fn errors(&self) -> usize {
        self.samples.len() - self.ok()
    }

    fn outcome_count(&self, outcome: &str) -> usize {
        self.samples.iter().filter(|s| s.outcome == outcome).count()
    }

    fn throughput_rps(&self) -> f64 {
        self.samples.len() as f64 / (self.wall_ns as f64 / 1e9)
    }
}

const TIMEOUT: Duration = Duration::from_secs(60);

/// One pass of the warm-restart benchmark: a fresh in-process server on
/// `cache_dir`, every corpus file compiled once sequentially, then a
/// clean shutdown (which releases the spill directory's advisory lock
/// for the next pass).
struct RestartPass {
    wall_ns: u128,
    ok: usize,
    outcomes: Vec<&'static str>,
}

impl RestartPass {
    fn outcome_count(&self, outcome: &str) -> usize {
        self.outcomes.iter().filter(|o| **o == outcome).count()
    }

    fn json(&self) -> String {
        format!(
            "{{\"ok\": {}, \"wall_ns\": {}, \
             \"cache\": {{\"memory\": {}, \"disk\": {}, \"miss\": {}}}}}",
            self.ok,
            self.wall_ns,
            self.outcome_count(OUTCOME_MEMORY),
            self.outcome_count(OUTCOME_DISK),
            self.outcome_count(OUTCOME_MISS),
        )
    }
}

fn restart_pass(cache_dir: &Path, targets: &[(String, Vec<u8>)]) -> Option<RestartPass> {
    let config = ServerConfig {
        cache_dir: Some(cache_dir.to_path_buf()),
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", config).ok()?.spawn().ok()?;
    let addr = handle.addr();
    let t0 = Instant::now();
    let mut ok = 0;
    let mut outcomes = Vec::with_capacity(targets.len());
    for (target, body) in targets {
        match http::request(addr, "POST", target, body, TIMEOUT) {
            Ok(resp) => {
                if resp.status == 200 {
                    ok += 1;
                }
                outcomes.push(classify_outcome(resp.header("x-oneqd-cache")));
            }
            Err(_) => outcomes.push("error"),
        }
    }
    let wall_ns = t0.elapsed().as_nanos();
    let _ = handle.shutdown();
    Some(RestartPass {
        wall_ns,
        ok,
        outcomes,
    })
}

/// Measures what the persistent disk tier buys across a process
/// restart: a cold server on a fresh spill directory compiles the whole
/// corpus from scratch, then a second server on the *same* directory
/// answers the identical workload from disk. Returns the rendered JSON
/// block for the `"warm_restart"` key, or `None` when the benchmark
/// does not apply (external daemon, or a non-cacheable template where
/// nothing would ever reach the disk tier).
fn run_warm_restart(opt: &Options, targets: &[(String, Vec<u8>)]) -> Option<String> {
    if opt.addr.is_some() || !opt.template.cacheable() || opt.modes.is_empty() {
        return None;
    }
    let cache_dir = std::env::temp_dir().join(format!("oneq-loadgen-spill-{}", std::process::id()));
    // A stale directory from a previous crashed run would turn the cold
    // pass into a warm one; start from nothing.
    let _ = std::fs::remove_dir_all(&cache_dir);
    let result = (|| {
        let cold = restart_pass(&cache_dir, targets)?;
        let warm = restart_pass(&cache_dir, targets)?;
        let speedup = if warm.wall_ns > 0 {
            cold.wall_ns as f64 / warm.wall_ns as f64
        } else {
            0.0
        };
        println!(
            "loadgen[warm-restart]: cold {:.2} ms ({} miss) -> warm {:.2} ms \
             ({} disk hit), {:.2}x",
            cold.wall_ns as f64 / 1e6,
            cold.outcome_count(OUTCOME_MISS),
            warm.wall_ns as f64 / 1e6,
            warm.outcome_count(OUTCOME_DISK),
            speedup,
        );
        Some(format!(
            "{{\"files\": {}, \"cold\": {}, \"warm\": {}, \"warm_speedup\": {}}}",
            targets.len(),
            cold.json(),
            warm.json(),
            json::fmt_f64(speedup),
        ))
    })();
    let _ = std::fs::remove_dir_all(&cache_dir);
    result
}

/// One `/v1/stats` snapshot as text, or `None` on any failure.
fn fetch_stats(addr: SocketAddr) -> Option<String> {
    http::request(addr, "GET", "/v1/stats", b"", TIMEOUT)
        .ok()
        .filter(|r| r.status == 200)
        .map(|r| String::from_utf8_lossy(&r.body).into_owned())
}

/// One `/v1/metrics` scrape (Prometheus text exposition), or `None` on
/// any failure.
fn fetch_metrics(addr: SocketAddr) -> Option<String> {
    http::request(addr, "GET", "/v1/metrics", b"", TIMEOUT)
        .ok()
        .filter(|r| r.status == 200)
        .map(|r| String::from_utf8_lossy(&r.body).into_owned())
}

/// The `"server_metrics"` block: per-stage compile and per-tier cache
/// lookup percentiles computed from the *server's own* histograms, as
/// the growth of `/v1/metrics` between a scrape at harness start and one
/// at harness end. `None` when either scrape failed.
fn server_metrics_json(before: &str, after: &str) -> String {
    let mut out = String::from("{");
    for (i, (family, label_key, block)) in [
        ("oneqd_compile_stage_seconds", "stage", "stages"),
        ("oneqd_cache_lookup_seconds", "tier", "tiers"),
    ]
    .iter()
    .enumerate()
    {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{block}\": {{");
        let before = parse_bucket_series(before, family, label_key);
        let after = parse_bucket_series(after, family, label_key);
        let mut first = true;
        for (key, after_buckets) in &after {
            // Diff against the start-of-run scrape (a series absent
            // there simply started at zero), keeping the result
            // cumulative over exactly this harness run.
            let diffed = diff_cumulative(before.get(key).map(Vec::as_slice), after_buckets);
            let total = diffed.last().map_or(0, |&(_, cum)| cum);
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\": {{\"count\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \
                 \"p99_ns\": {}, \"p999_ns\": {}}}",
                json::escape(key),
                total,
                bucket_percentile(&diffed, total, 50.0),
                bucket_percentile(&diffed, total, 90.0),
                bucket_percentile(&diffed, total, 99.0),
                bucket_percentile(&diffed, total, 99.9),
            );
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// A slow-loris client: connects, then trickles one byte of a request
/// every 250 ms without ever completing it. Returns `true` when the
/// server hung up on us — the eviction the event loop's per-state
/// deadline exists to deliver.
fn slow_client(addr: SocketAddr) -> bool {
    use std::io::{Read as _, Write as _};
    let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
        return false;
    };
    if stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
    {
        return false;
    }
    // Never finished: no blank line, one byte per step. Long enough that
    // any sane --io-timeout-ms expires well before we run out of bytes.
    let preamble = b"POST /v1/compile?side=3 HTTP/1.1\r\nx-slow: yes\r\n";
    let mut probe = [0u8; 16];
    for byte in preamble {
        if stream.write_all(std::slice::from_ref(byte)).is_err() {
            return true; // already hung up; the write surfaced it
        }
        // A live server stays silent (read times out); an eviction shows
        // up as EOF or reset.
        match stream.read(&mut probe) {
            Ok(0) => return true,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return true,
        }
        std::thread::sleep(Duration::from_millis(250));
    }
    // Preamble exhausted without an observed hangup: wait out the
    // server's deadline directly.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    !matches!(stream.read(&mut probe), Ok(n) if n > 0)
}

/// Per-worker tallies from the adversarial run.
#[derive(Default)]
struct Tally {
    ok: usize,
    errors: usize,
    timeouts: usize,
    resets: usize,
    reconnects: usize,
}

/// The adversarial event-loop measurement: what happened while
/// `connections` keep-alive sockets were held open simultaneously.
struct EventLoopRun {
    connections: usize,
    connected: usize,
    slow_clients: usize,
    /// The server's own `conns.open` gauge observed while the fleet was
    /// up — the proof the daemon held them all at once.
    open_during_run: u64,
    requests: usize,
    tally: Tally,
    wall_ns: u128,
    /// Growth of the server's `evicted_slow_read` counter over the run.
    slow_evicted: u64,
}

impl EventLoopRun {
    fn throughput_rps(&self) -> f64 {
        self.requests as f64 / (self.wall_ns as f64 / 1e9).max(1e-9)
    }

    fn json(&self) -> String {
        format!(
            "{{\"connections\": {}, \"connected\": {}, \"slow_clients\": {}, \
             \"open_during_run\": {}, \"requests\": {}, \"ok\": {}, \
             \"errors\": {}, \"timeouts\": {}, \"resets\": {}, \
             \"reconnects\": {}, \"wall_ns\": {}, \"throughput_rps\": {}, \
             \"slow_evicted\": {}}}",
            self.connections,
            self.connected,
            self.slow_clients,
            self.open_during_run,
            self.requests,
            self.tally.ok,
            self.tally.errors,
            self.tally.timeouts,
            self.tally.resets,
            self.tally.reconnects,
            self.wall_ns,
            json::fmt_f64(self.throughput_rps()),
            self.slow_evicted,
        )
    }
}

/// Runs the adversarial event-loop mode: opens `connections` keep-alive
/// sockets and holds every one open for the whole run, launches
/// `opt.slow_clients` tricklers, then spreads `opt.requests` requests
/// across the entire fleet from `opt.concurrency` workers — each response
/// must be 200 and (for cacheable templates) byte-identical to the warmup
/// pass.
fn run_event_loop(
    addr: SocketAddr,
    targets: &[(String, Vec<u8>)],
    expected: &[Vec<u8>],
    connections: usize,
    opt: &Options,
) -> EventLoopRun {
    let slow_clients = opt.slow_clients;
    let requests = opt.requests;
    let concurrency = opt.concurrency;
    let check_bytes = opt.template.cacheable();
    let slow_before = fetch_stats(addr)
        .as_deref()
        .map_or(0, |s| stats_u64(s, "evicted_slow_read"));
    let slow_handles: Vec<_> = (0..slow_clients)
        .map(|_| std::thread::spawn(move || slow_client(addr)))
        .collect();

    let mut fleet: Vec<ClientConn> = Vec::with_capacity(connections);
    for _ in 0..connections {
        if let Ok(conn) = ClientConn::connect(addr, TIMEOUT) {
            fleet.push(conn);
        }
    }
    let connected = fleet.len();
    // Give the event loop one gauge-refresh cycle, then read its own
    // view of how many sockets it holds.
    std::thread::sleep(Duration::from_millis(60));
    let open_during_run = fetch_stats(addr)
        .as_deref()
        .map_or(0, |s| stats_u64(s, "open"));

    let workers = concurrency.min(connected.max(1));
    let t0 = Instant::now();
    let mut tally = Tally::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut rest = fleet.as_mut_slice();
        for w in 0..workers {
            // Each worker owns an even slice of the fleet and an even
            // share of the request budget.
            let share_len = rest.len() / (workers - w);
            let (share, remainder) = rest.split_at_mut(share_len);
            rest = remainder;
            let my_requests = requests / workers + usize::from(w < requests % workers);
            handles.push(scope.spawn(move || {
                let mut t = Tally::default();
                for r in 0..my_requests {
                    if share.is_empty() {
                        t.errors += 1;
                        continue;
                    }
                    let slot = &mut share[r % share.len()];
                    let target_i = (w + r * workers) % targets.len();
                    let (target, body) = &targets[target_i];
                    match slot.send("POST", target, body) {
                        Ok(resp) => {
                            let identical = !check_bytes || resp.body == expected[target_i];
                            if resp.status == 200 && identical {
                                t.ok += 1;
                            } else {
                                t.errors += 1;
                            }
                            // The server retires sockets after its
                            // keep-alive budget; replace retired ones so
                            // the fleet stays at full strength.
                            if !resp.keep_alive() {
                                if let Ok(fresh) = ClientConn::connect(addr, TIMEOUT) {
                                    *slot = fresh;
                                    t.reconnects += 1;
                                }
                            }
                        }
                        Err(e) => {
                            t.errors += 1;
                            match http::classify_io_error(&e) {
                                http::IoFailureKind::Timeout => t.timeouts += 1,
                                http::IoFailureKind::Reset => t.resets += 1,
                                http::IoFailureKind::Other => {}
                            }
                            if let Ok(fresh) = ClientConn::connect(addr, TIMEOUT) {
                                *slot = fresh;
                                t.reconnects += 1;
                            }
                        }
                    }
                }
                t
            }));
        }
        for handle in handles {
            let t = handle.join().expect("event-loop worker panicked");
            tally.ok += t.ok;
            tally.errors += t.errors;
            tally.timeouts += t.timeouts;
            tally.resets += t.resets;
            tally.reconnects += t.reconnects;
        }
    });
    let wall_ns = t0.elapsed().as_nanos();

    // The tricklers end on their own once the server evicts them; their
    // return values and the server counter must agree.
    let trickled_out = slow_handles
        .into_iter()
        .filter_map(|h| h.join().ok())
        .filter(|evicted| *evicted)
        .count();
    drop(fleet);
    let slow_evicted = fetch_stats(addr)
        .as_deref()
        .map_or(0, |s| stats_u64(s, "evicted_slow_read"))
        .saturating_sub(slow_before);
    if slow_clients > 0 {
        println!(
            "loadgen[event-loop]: {trickled_out}/{slow_clients} slow clients \
             saw the server hang up; server evicted {slow_evicted}"
        );
    }
    EventLoopRun {
        connections,
        connected,
        slow_clients,
        open_during_run,
        requests,
        tally,
        wall_ns,
        slow_evicted,
    }
}

/// Replays `requests` round-robin requests over `targets` at
/// `concurrency`, using one persistent connection per worker
/// (keep-alive) or one connection per request (close).
fn run_mode(
    mode: Mode,
    addr: SocketAddr,
    targets: &[(String, Vec<u8>)],
    requests: usize,
    concurrency: usize,
) -> ModeRun {
    let indices: Vec<usize> = (0..requests).collect();
    let t0 = Instant::now();
    let samples = run_indexed_with(
        concurrency,
        &indices,
        // Per-worker state: the persistent connection (keep-alive mode
        // only). `None` between requests in close mode, and after an
        // error in keep-alive mode (the next request reconnects).
        || None::<ClientConn>,
        |conn, _, &i| {
            let (target, body) = &targets[i % targets.len()];
            let start = Instant::now();
            let response = match mode {
                Mode::Close => http::request(addr, "POST", target, body, TIMEOUT),
                Mode::KeepAlive => {
                    if conn.is_none() {
                        *conn = ClientConn::connect(addr, TIMEOUT).ok();
                    }
                    match conn.as_mut() {
                        Some(c) => {
                            let resp = c.send("POST", target, body);
                            match &resp {
                                // A spent or failed socket must not poison
                                // the rest of this worker's run.
                                Ok(r) if !r.keep_alive() => *conn = None,
                                Err(_) => *conn = None,
                                Ok(_) => {}
                            }
                            resp
                        }
                        None => Err(std::io::Error::other("connect failed")),
                    }
                }
            };
            let latency_ns = start.elapsed().as_nanos();
            match response {
                Ok(resp) => Sample {
                    latency_ns,
                    ok: resp.status == 200,
                    outcome: classify_outcome(resp.header("x-oneqd-cache")),
                },
                Err(_) => Sample {
                    latency_ns,
                    ok: false,
                    outcome: "error",
                },
            }
        },
    );
    ModeRun::new(mode, samples, t0.elapsed().as_nanos())
}

fn mode_json(run: &ModeRun) -> String {
    let latencies = &run.sorted_latency_ns;
    let mean_ns = latencies.iter().sum::<u128>() as f64 / latencies.len().max(1) as f64;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"mode\": \"{}\", \"requests\": {}, \"ok\": {}, \"errors\": {}, \
         \"cache\": {{\"memory\": {}, \"disk\": {}, \"miss\": {}, \"coalesced\": {}, \
         \"bypass\": {}}}, \
         \"wall_ns\": {}, \"throughput_rps\": {}, \
         \"latency_ns\": {{\"min\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
         \"max\": {}, \"mean\": {}}}}}",
        run.mode.label(),
        run.samples.len(),
        run.ok(),
        run.errors(),
        run.outcome_count(OUTCOME_MEMORY),
        run.outcome_count(OUTCOME_DISK),
        run.outcome_count(OUTCOME_MISS),
        run.outcome_count(OUTCOME_COALESCED),
        run.outcome_count(OUTCOME_BYPASS),
        run.wall_ns,
        json::fmt_f64(run.throughput_rps()),
        latencies.first().copied().unwrap_or(0),
        percentile(latencies, 50.0),
        percentile(latencies, 90.0),
        percentile(latencies, 99.0),
        latencies.last().copied().unwrap_or(0),
        json::fmt_f64(mean_ns),
    );
    out
}

fn main() {
    let opt = parse_args();
    let files = corpus_files(&opt.corpus);
    if files.is_empty() {
        eprintln!(
            "loadgen: no .qasm files found under {}",
            opt.corpus.display()
        );
        std::process::exit(3);
    }
    // Pre-render each corpus file as its request target + body, through
    // the same CompileRequest the server parses back out of the query.
    let targets: Vec<(String, Vec<u8>)> = files
        .iter()
        .map(|path| {
            let source = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("loadgen: cannot read {}: {e}", path.display());
                std::process::exit(3);
            });
            let request = opt.template.with_source(path.display().to_string(), source);
            (
                request.query_target("/v1/compile"),
                request.source.into_bytes(),
            )
        })
        .collect();

    // Self-host unless an external daemon was given. The handle must
    // outlive the run; dropping it shuts the server down.
    let mut self_hosted: Option<ServerHandle> = None;
    let addr: SocketAddr = match &opt.addr {
        // `to_socket_addrs` resolves hostnames too (`localhost:7878`),
        // matching oneqd's own `--addr` handling.
        Some(addr) => addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut addrs| addrs.next())
            .unwrap_or_else(|| {
                eprintln!("loadgen: cannot resolve --addr `{addr}` (expected HOST:PORT)");
                usage();
            }),
        None => {
            let mut config = ServerConfig::default();
            if let Some(n) = opt.connections {
                // Headroom for the fleet plus the harness's own one-shot
                // stats/warmup requests; a long idle budget so held-open
                // sockets survive the run; a short io budget so the
                // slow-loris eviction is observable within the run.
                config.max_connections = n + 64;
                config.idle_timeout = Duration::from_secs(120);
                config.io_timeout = Duration::from_secs(3);
            }
            let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral loopback port");
            let handle = server.spawn().expect("spawn in-process oneqd");
            let addr = handle.addr();
            self_hosted = Some(handle);
            addr
        }
    };
    println!(
        "loadgen: {} requests/mode over {} file(s) at concurrency {} -> {} ({})",
        opt.requests,
        targets.len(),
        opt.concurrency,
        addr,
        if self_hosted.is_some() {
            "self-hosted"
        } else {
            "external"
        }
    );

    // First `/v1/metrics` scrape: the baseline the end-of-run scrape is
    // diffed against, so the embedded server-side percentiles cover
    // exactly this harness run (warmup compiles included — that is where
    // the compile-stage samples come from) even against a long-lived
    // external daemon.
    let metrics_before = fetch_metrics(addr);

    // Warm the cache once per file before measuring, so every mode sees
    // the same steady state and the keep-alive/close comparison isolates
    // the connection discipline instead of who paid the cold compiles.
    // (With --timings or --bypass nothing is cacheable; the pass is then
    // just a harmless preflight.) Adversarial runs also capture each
    // response body here as the byte-identity reference.
    let mut expected: Vec<Vec<u8>> = Vec::new();
    for (target, body) in &targets {
        let response = http::request(addr, "POST", target, body, TIMEOUT);
        if opt.connections.is_some() {
            expected.push(response.map(|r| r.body).unwrap_or_default());
        }
    }

    let mut runs = Vec::new();
    for &mode in &opt.modes {
        let run = run_mode(mode, addr, &targets, opt.requests, opt.concurrency);
        let latencies = &run.sorted_latency_ns;
        println!(
            "loadgen[{}]: {}/{} ok, cache memory={} disk={} miss={} coalesced={} \
             bypass={}, {:.1} req/s, p50 {:.2} ms, p99 {:.2} ms",
            mode.label(),
            run.ok(),
            run.samples.len(),
            run.outcome_count(OUTCOME_MEMORY),
            run.outcome_count(OUTCOME_DISK),
            run.outcome_count(OUTCOME_MISS),
            run.outcome_count(OUTCOME_COALESCED),
            run.outcome_count(OUTCOME_BYPASS),
            run.throughput_rps(),
            percentile(latencies, 50.0) as f64 / 1e6,
            percentile(latencies, 99.0) as f64 / 1e6,
        );
        runs.push(run);
    }

    // The adversarial event-loop run, after the mode comparison so the
    // held-open fleet cannot distort those measurements.
    let event_loop = opt.connections.map(|connections| {
        println!(
            "loadgen[event-loop]: opening {connections} concurrent keep-alive \
             connection(s), {} slow client(s)",
            opt.slow_clients
        );
        let run = run_event_loop(addr, &targets, &expected, connections, &opt);
        println!(
            "loadgen[event-loop]: {}/{} connected, server held {} open, \
             {}/{} ok ({} errors: {} timeouts, {} resets), {} reconnects, \
             {:.1} req/s",
            run.connected,
            run.connections,
            run.open_during_run,
            run.tally.ok,
            run.requests,
            run.tally.errors,
            run.tally.timeouts,
            run.tally.resets,
            run.tally.reconnects,
            run.throughput_rps(),
        );
        run
    });

    // Closing scrapes: the second `/v1/metrics` capture (diffed against
    // the baseline for `"server_metrics"`) and one /v1/stats snapshot,
    // embedded verbatim (it is already JSON).
    let server_metrics = match (&metrics_before, fetch_metrics(addr)) {
        (Some(before), Some(after)) => Some(server_metrics_json(before, &after)),
        _ => None,
    };
    let server_stats = http::request(addr, "GET", "/v1/stats", b"", TIMEOUT)
        .ok()
        .filter(|r| r.status == 200)
        .map(|r| String::from_utf8_lossy(&r.body).trim().to_string());
    if let Some(handle) = self_hosted {
        let _ = handle.shutdown();
    }

    let speedup = {
        let rps = |m: Mode| {
            runs.iter()
                .find(|r| r.mode == m)
                .map(ModeRun::throughput_rps)
        };
        match (rps(Mode::KeepAlive), rps(Mode::Close)) {
            (Some(ka), Some(close)) if close > 0.0 => Some(ka / close),
            _ => None,
        }
    };
    if let Some(speedup) = speedup {
        println!("loadgen: keep-alive / close throughput = {speedup:.2}x");
    }

    // Cold-start vs warm-restart: how the persistent spill tier answers
    // the same corpus across a process restart (self-hosted runs only).
    let warm_restart = run_warm_restart(&opt, &targets);

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"oneq-bench-service/v5\",");
    let _ = writeln!(
        out,
        "  \"corpus\": \"{}\",",
        json::escape(&opt.corpus.display().to_string())
    );
    let _ = writeln!(out, "  \"files\": {},", targets.len());
    let _ = writeln!(out, "  \"requests_per_mode\": {},", opt.requests);
    let _ = writeln!(out, "  \"concurrency\": {},", opt.concurrency);
    let _ = writeln!(out, "  \"self_hosted\": {},", opt.addr.is_none());
    let _ = writeln!(
        out,
        "  \"config\": \"{}\",",
        json::escape(&opt.template.config.fingerprint())
    );
    out.push_str("  \"modes\": {\n");
    for (i, run) in runs.iter().enumerate() {
        let _ = write!(out, "    \"{}\": {}", run.mode.json_key(), mode_json(run));
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  },\n");
    match speedup {
        Some(speedup) => {
            let _ = writeln!(out, "  \"keep_alive_speedup\": {},", json::fmt_f64(speedup));
        }
        None => {
            let _ = writeln!(out, "  \"keep_alive_speedup\": null,");
        }
    }
    match &event_loop {
        Some(run) => {
            let _ = writeln!(out, "  \"event_loop\": {},", run.json());
        }
        None => {
            let _ = writeln!(out, "  \"event_loop\": null,");
        }
    }
    match &warm_restart {
        Some(block) => {
            let _ = writeln!(out, "  \"warm_restart\": {block},");
        }
        None => {
            let _ = writeln!(out, "  \"warm_restart\": null,");
        }
    }
    match &server_metrics {
        Some(block) => {
            let _ = writeln!(out, "  \"server_metrics\": {block},");
        }
        None => {
            let _ = writeln!(out, "  \"server_metrics\": null,");
        }
    }
    match &server_stats {
        Some(stats) => {
            let _ = writeln!(out, "  \"server_stats\": {stats}");
        }
        None => {
            let _ = writeln!(out, "  \"server_stats\": null");
        }
    }
    out.push_str("}\n");

    std::fs::write(&opt.out, &out).unwrap_or_else(|e| {
        eprintln!("loadgen: cannot write {}: {e}", opt.out.display());
        std::process::exit(2);
    });
    println!("loadgen: wrote {}", opt.out.display());
    let adversarial_failed = event_loop
        .as_ref()
        .is_some_and(|run| run.tally.errors > 0 || run.connected < run.connections);
    if runs.iter().any(|r| r.errors() > 0) || adversarial_failed {
        std::process::exit(1);
    }
}
