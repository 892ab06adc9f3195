//! `paper` and `scale`: a fixed set of inputs compiled single-threaded
//! through `oneq_service::compile::compile_record`, pass after pass, with
//! a reference sample before every compile.

use crate::inputs::Input;
use crate::norm::{Normalizer, RefLoop, Timed};
use crate::report::Report;
use crate::stages::{self, Counters, STAGES};
use crate::stats::median;
use crate::trace::{ItemMeta, Tracer};
use crate::Opts;
use oneq_bench::geomean;
use oneq_bench::scrape::stats_u64;
use oneq_service::cache::sha256;
use oneq_service::compile::compile_record;
use oneq_service::http::{Parse, RequestParser};
use oneq_service::request::CompileRequest;
use std::time::Instant;

/// Setups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Times one set-up in segments. A set-up lasts seconds, longer than a
/// phase of the host's speed, so [`SetupClock::split`] lets it take a
/// reference sample between its steps; each segment is then scaled by
/// the samples around it, like a measured item.
pub struct SetupClock<'a> {
    norm: &'a mut Normalizer,
    ref_loop: &'a mut RefLoop,
    segments: Vec<Timed>,
    start: Instant,
}

impl SetupClock<'_> {
    /// Ends the current segment, takes a reference sample and starts the
    /// next segment. The sample's own time counts in no segment.
    pub fn split(&mut self) {
        let raw = self.start.elapsed().as_nanos() as f64;
        self.segments.push(self.norm.timed(raw));
        self.norm.reference(self.ref_loop);
        self.start = Instant::now();
    }
}

/// Runs `setup` [`SETUPS`] times, each opened and closed by a reference
/// sample. Returns the median scaled set-up time in seconds and the last
/// result.
pub fn repeated_setup<T>(
    norm: &mut Normalizer,
    ref_loop: &mut RefLoop,
    mut setup: impl FnMut(usize, &mut SetupClock) -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for rep in 0..SETUPS {
        // Each set-up starts from the same state: the previous one's
        // result (a running server) is dropped first.
        drop(last.take());
        norm.reference(ref_loop);
        let mut clock = SetupClock {
            norm: &mut *norm,
            ref_loop: &mut *ref_loop,
            segments: Vec::new(),
            start: Instant::now(),
        };
        let out = setup(rep, &mut clock)?;
        clock.split();
        let segments = clock.segments;
        times.push(segments.iter().map(|t| norm.scaled_ns(*t)).sum::<f64>() / 1e9);
        last = Some(out);
    }
    Ok((median(&times), last.expect("at least one setup")))
}

/// The bytes a keep-alive client sends to `POST /v1/compile` for
/// `input`, as `oneq_service::http::ClientConn` frames them.
pub fn request_bytes(input: &Input, host: &str) -> Vec<u8> {
    let target = request_of(input).query_target("/v1/compile");
    let mut bytes = format!(
        "POST {target} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\n\
         Connection: keep-alive\r\n\r\n",
        input.source.len()
    )
    .into_bytes();
    bytes.extend_from_slice(input.source.as_bytes());
    bytes
}

/// `input` as the service's request model sees it.
pub fn request_of(input: &Input) -> CompileRequest {
    CompileRequest {
        label: input.label.clone(),
        source: input.source.clone(),
        config: input.config.clone(),
        bypass: false,
    }
}

/// Replays the service's per-request layers on `input` inside `tracer`:
/// the cache key (canonicalized source hashed with the config and label)
/// and the HTTP parse of the request bytes. Returns whether the parser
/// gave back the body intact.
pub fn replay_service_layers(
    input: &Input,
    bytes: &[u8],
    tracer: &mut Tracer,
    item: usize,
) -> bool {
    let request = request_of(input);
    tracer.span("service.cache_key", item, |_| {
        sha256(request.fingerprint().as_bytes())
    });
    tracer.span("service.http_parse", item, |_| {
        let mut parser = RequestParser::new(bytes.len());
        matches!(parser.feed(bytes), (n, Ok(Parse::Request(r))) if n == bytes.len() && r.body == input.source.as_bytes())
    })
}

/// Per-layer totals accumulated from the spans of the traced run.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Per pass (or serve block): scaled self ns of each stage, then the
    /// unaccounted self ns of the items.
    per_pass: Vec<[f64; STAGES.len() + 1]>,
    /// Scaled ns and calls of the two service-layer replays.
    key: (f64, u64),
    parse: (f64, u64),
}

impl LayerTimes {
    /// Folds the tracer's spans in; `items` gives each item's pass and
    /// scale factor. Root spans' self time is the unaccounted time.
    pub fn collect(tracer: &Tracer, items: &[ItemMeta]) -> LayerTimes {
        let mut out = LayerTimes::default();
        for (span, own) in tracer.spans().iter().zip(tracer.self_ns()) {
            let meta = &items[span.item];
            let scaled = own as f64 * meta.factor;
            if out.per_pass.len() <= meta.pass {
                out.per_pass.resize(meta.pass + 1, [0.0; STAGES.len() + 1]);
            }
            let slot = if span.parent.is_none() {
                Some(STAGES.len())
            } else {
                STAGES.iter().position(|s| *s == span.name)
            };
            if let Some(i) = slot {
                out.per_pass[meta.pass][i] += scaled;
            }
            match span.name {
                "service.cache_key" => {
                    out.key.0 += scaled;
                    out.key.1 += 1;
                }
                "service.http_parse" => {
                    out.parse.0 += scaled;
                    out.parse.1 += 1;
                }
                _ => {}
            }
        }
        out
    }

    /// Sets the stage, service-replay and unaccounted metrics. Stage and
    /// unaccounted times are per pass (median over `passes`).
    pub fn report(&self, passes: &[usize], report: &mut Report) {
        let per = |i: usize| {
            let v: Vec<f64> = passes.iter().map(|&p| self.per_pass[p][i]).collect();
            median(&v) / 1e6
        };
        let names = [
            "frontend.parse_ms",
            "mbqc.translate_ms",
            "partition.ms",
            "mbqc.flow_ms",
            "fusion_graph.ms",
            "mapping.ms",
            "shuffle.ms",
        ];
        for (i, name) in names.into_iter().enumerate() {
            report.set(name, per(i));
        }
        report.set("trace.unaccounted_ms", per(STAGES.len()));
        let mean_us = |(ns, n): (f64, u64)| ns / 1e3 / n.max(1) as f64;
        report.set("service.cache_key_us", mean_us(self.key));
        report.set("service.http_parse_us", mean_us(self.parse));
    }
}

/// Sets the counter metrics from one pass's counters.
pub fn report_counters(c: &Counters, report: &mut Report) {
    report.set("mbqc.graph_nodes", c.graph_nodes as f64);
    report.set("mbqc.graph_edges", c.graph_edges as f64);
    report.set("partition.partitions", c.partitions as f64);
    report.set("partition.cross_edges", c.cross_edges as f64);
    report.set("fusion_graph.nodes", c.fusion_nodes as f64);
    report.set("mapping.bfs_searches", c.bfs_searches as f64);
    report.set("mapping.bfs_expansions", c.bfs_expansions as f64);
    report.set("mapping.seed_scans", c.seed_scans as f64);
    report.set("mapping.routing_cells", c.routing_cells as f64);
    report.set("mapping.occupancy_peak", c.occupancy_peak as f64);
    report.set(
        "mapping.bfs_yield",
        c.routing_cells as f64 / c.bfs_expansions.max(1) as f64,
    );
    report.set("shuffle.pairs", c.shuffle_pairs as f64);
    report.set("shuffle.layers", c.shuffle_layers as f64);
    report.set("shuffle.fusions", c.shuffle_fusions as f64);
}

/// Zeroes the metrics of layers a workload does not run.
pub fn report_unused(names: &[&'static str], report: &mut Report) {
    for name in names {
        report.set(name, 0.0);
    }
}

/// The service and client metrics, which `paper` and `scale` never
/// exercise: they do not touch the server.
pub const SERVICE_ONLY: [&str; 25] = [
    "service.memory_hits",
    "service.disk_hits",
    "service.misses",
    "service.memory_evictions",
    "service.compile_executions",
    "service.spill_appends",
    "server.read_ms_p50",
    "server.read_ms_p99",
    "server.queue_wait_ms_p50",
    "server.queue_wait_ms_p99",
    "server.write_ms_p50",
    "server.write_ms_p99",
    "server.lookup_memory_ms_p50",
    "server.lookup_memory_ms_p99",
    "server.lookup_disk_ms_p50",
    "server.lookup_disk_ms_p99",
    "server.spill_lag_ms_p50",
    "server.spill_lag_ms_p90",
    "client.hit_p50_ms",
    "client.hit_p99_ms",
    "client.disk_p50_ms",
    "client.miss_p90_ms",
    "client.hit_ratio",
    "client.reconnects",
    "client.failed",
];

/// Runs `paper` or `scale` over the inputs `generate` draws from the
/// seed.
pub fn run(opts: &Opts, workload: &str, generate: fn(u64) -> Vec<Input>) -> Result<Report, String> {
    let mut report = Report::default();
    let mut norm = Normalizer::new(opts.nominal_ms);
    let mut ref_loop = RefLoop::default();

    // Set-up: generate the inputs and compile them once, untimed. Every
    // record must be ok and identical to the first set-up's.
    let mut expected: Vec<String> = Vec::new();
    let (setup_s, inputs) = repeated_setup(&mut norm, &mut ref_loop, |_, clock| {
        let inputs = generate(opts.seed);
        for (i, input) in inputs.iter().enumerate() {
            clock.split();
            let (record, ok) = compile_record(&input.label, &input.source, &input.config);
            if expected.len() == i {
                expected.push(record.clone());
            }
            report.check(ok && record == expected[i], || {
                format!("warm-up {}: {record}", input.label)
            });
        }
        Ok(inputs)
    })?;

    let mut tracer = Tracer::default();
    let mut metas: Vec<ItemMeta> = Vec::new();
    // The window's compiles, pass after pass, each pass in input order.
    let mut items: Vec<Timed> = Vec::new();
    let mut traced: Vec<Timed> = Vec::new();
    let mut counters = Counters::default();
    let deadline = Instant::now() + opts.window();
    let mut pass = 0;
    loop {
        for (i, input) in inputs.iter().enumerate() {
            norm.reference(&mut ref_loop);
            let t = Instant::now();
            let (record, ok) = compile_record(&input.label, &input.source, &input.config);
            items.push(norm.timed(t.elapsed().as_nanos() as f64));
            report.check(ok && record == expected[i], || {
                format!(
                    "pass {pass} {}: record differs from the warm-up's: {record}",
                    input.label
                )
            });
            if opts.trace {
                let item = metas.len();
                let bytes = request_bytes(input, "127.0.0.1");
                let t = Instant::now();
                let (parsed, replayed) = tracer.span("item", item, |t| {
                    let parsed = replay_service_layers(input, &bytes, t, item);
                    (parsed, stages::replay(input, t, item))
                });
                traced.push(norm.timed(t.elapsed().as_nanos() as f64));
                metas.push(ItemMeta {
                    input: input.label.clone(),
                    pass,
                    factor: 0.0,
                });
                let want = (stats_u64(&record, "depth"), stats_u64(&record, "fusions"));
                report.check(parsed, || {
                    format!("{}: request bytes did not parse back", input.label)
                });
                match replayed {
                    Ok(r) => {
                        report.check(want == (r.depth, r.fusions), || {
                            format!(
                                "{}: traced replay gave depth {} fusions {}",
                                input.label, r.depth, r.fusions
                            )
                        });
                        if pass == 0 {
                            counters.add(&r.counters);
                        }
                    }
                    Err(e) => report.check(false, || e),
                }
            }
        }
        pass += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    norm.reference(&mut ref_loop);

    let scaled: Vec<f64> = items.iter().map(|t| norm.scaled_ns(*t)).collect();
    let raw: Vec<f64> = items.iter().map(|t| t.raw_ns).collect();
    // One pass's compile time in seconds, input by input: each input's
    // median over the passes, summed. A slow phase that catches one long
    // compile moves that pass's total, but not the input's median.
    let pass_s = |values: &[f64]| -> f64 {
        let n = inputs.len();
        (0..n)
            .map(|i| median(&values.chunks(n).map(|pass| pass[i]).collect::<Vec<f64>>()))
            .sum::<f64>()
            / 1e9
    };
    let ms = |v: &[f64]| v.iter().map(|ns| ns / 1e6).collect::<Vec<f64>>();
    let scaled_ms = ms(&scaled);
    let total_s = scaled.iter().sum::<f64>() / 1e9;
    let depth: u64 = expected.iter().map(|r| stats_u64(r, "depth")).sum();
    let fusions: u64 = expected.iter().map(|r| stats_u64(r, "fusions")).sum();
    report.set("compile_s", pass_s(&scaled));
    report.set("depth_total", depth as f64);
    report.set("fusions_total", fusions as f64);
    report.set("throughput_rps", items.len() as f64 / total_s);
    // Every request of a suite is a compile.
    let gmean = geomean(&scaled_ms);
    report.set("request_gmean_ms", gmean);
    report.set("miss_gmean_ms", gmean);
    report.set("setup_s", setup_s);
    report.notes.push(format!(
        "{workload}: {} inputs, {pass} passes, compile {:.4} s/pass (raw {:.4}), reference {:.3} ms",
        inputs.len(),
        pass_s(&scaled),
        pass_s(&raw),
        norm.median_ref_ms(),
    ));

    if opts.trace {
        for (meta, t) in metas.iter_mut().zip(&traced) {
            meta.factor = norm.factor(t.epoch);
        }
        let traced_s = traced.iter().map(|t| norm.scaled_ns(*t)).sum::<f64>() / 1e9;
        let layers = LayerTimes::collect(&tracer, &metas);
        layers.report(&(0..pass).collect::<Vec<_>>(), &mut report);
        report_counters(&counters, &mut report);
        report_unused(&SERVICE_ONLY, &mut report);
        report.set("client.failed", report.failed as f64);
        report.set(
            "service.compile_ms",
            scaled_ms.iter().sum::<f64>() / items.len() as f64,
        );
        report.set("machine.ref_ms", norm.median_ref_ms());
        report.set("raw.compile_s", pass_s(&raw));
        let raw_gmean = geomean(&ms(&raw));
        report.set("raw.request_gmean_ms", raw_gmean);
        report.set("raw.miss_gmean_ms", raw_gmean);
        report.set("trace.overhead_pct", 100.0 * (traced_s / total_s - 1.0));
        crate::write_trace(opts, workload, &tracer, &metas, &mut report)?;
    }
    report.set("peak_rss_mb", crate::report::peak_rss_mib()?);
    Ok(report)
}
