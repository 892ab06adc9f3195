//! The daemon's telemetry spine: one [`Registry`] feeding both `/v1/stats`
//! and `/v1/metrics`, per-request span traces, and the `--trace-log` sink.
//!
//! Everything latency-shaped lands in a log-linear [`Histogram`] (see
//! `oneq-obs`): the event loop records read/write/iteration times, workers
//! record queue wait and per-stage compile times, the spill writer records
//! its write-behind lag. Recording is a relaxed atomic op, so none of this
//! adds a lock to the serving path; the registry lock is only taken at
//! registration (startup) and snapshot (a `/v1/stats` or `/v1/metrics`
//! request).
//!
//! Tracing follows the same request across threads: the event loop opens
//! the [`Trace`] when the request finishes parsing (or is refused), the
//! thread that answers it (the loop for inline routes and memory-tier
//! hits, a worker for every other compile) appends its spans (queue wait,
//! cache lookup, compile stages), and the loop closes it when the last
//! response byte is flushed. Closed
//! traces go to a bounded in-memory ring (always) and to the `--trace-log`
//! JSONL file (when configured), gated by `--slow-ms`.

use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::cache::{OUTCOME_BYPASS, OUTCOME_COALESCED, OUTCOME_DISK, OUTCOME_MEMORY, OUTCOME_MISS};
use crate::compile::RecordTimings;
use oneq::{CompileProfile, Fold, Stage};
use oneq_obs::{
    duration_ns, Counter, Gauge, Histogram, Registry, RequestIds, Span, TraceBuffer, TraceRecord,
};

/// How many closed traces the in-memory ring keeps.
pub(crate) const TRACE_RING_CAPACITY: usize = 256;

/// Request-class label values for `oneqd_request_seconds{route=...}`.
/// A fixed set, so client-controlled paths can never mint new series.
pub const ROUTE_COMPILE: &str = "compile";
/// See [`ROUTE_COMPILE`].
pub const ROUTE_BATCH: &str = "batch";
/// Inline (event-loop-served) routes: healthz, stats, metrics, errors.
pub const ROUTE_INLINE: &str = "inline";
/// Every route class, in the order their histograms register.
pub const ROUTES: [&str; 3] = [ROUTE_COMPILE, ROUTE_BATCH, ROUTE_INLINE];

/// Stage labels for `oneqd_compile_stage_seconds{stage=...}`: QASM parse,
/// the compiler's [`Stage`]s in pipeline order, and end-to-end wall time.
pub fn stage_labels() -> impl Iterator<Item = &'static str> {
    let stages = Stage::ALL.into_iter().map(Stage::name);
    std::iter::once("parse")
        .chain(stages)
        .chain(std::iter::once("wall"))
}

/// The `oneqd_compile_*` families of the compiler's profile, in
/// registration order: the [`CompileProfile::counters`] name each reads,
/// the family name, and its help. A counter that folds by maximum is a
/// high-water gauge.
const COMPILE_FAMILIES: [(&str, &str, &str); 9] = [
    (
        "partitions",
        "oneqd_compile_partitions_total",
        "Partitions compiled (executed compiles only).",
    ),
    (
        "bfs_searches",
        "oneqd_compile_bfs_searches_total",
        "Mapper BFS searches launched across executed compiles.",
    ),
    (
        "bfs_expansions",
        "oneqd_compile_bfs_expansions_total",
        "Cells expanded by the mapper's BFS across executed compiles.",
    ),
    (
        "scratch_grows",
        "oneqd_compile_scratch_grows_total",
        "BFS scratch reallocations (grid grew past the scratch arena).",
    ),
    (
        "scratch_reuses",
        "oneqd_compile_scratch_reuses_total",
        "BFS scratch arenas reused without reallocation.",
    ),
    (
        "seed_scans",
        "oneqd_compile_seed_scans_total",
        "Ring scans for a free seed cell during fusion mapping.",
    ),
    (
        "routing_cells",
        "oneqd_compile_routing_cells_total",
        "Grid cells consumed as routing auxiliaries.",
    ),
    (
        "occupancy_peak",
        "oneqd_compile_occupancy_peak_cells",
        "High-water mark of occupied grid cells in any compiled layer.",
    ),
    (
        "seed_scan_radius_max",
        "oneqd_compile_seed_scan_radius_max",
        "High-water Manhattan radius of any seed-cell ring scan.",
    ),
];

/// A compile-profile family's handle: a counter that adds, or a gauge
/// that keeps the high-water mark.
#[derive(Debug)]
enum ProfileSeries {
    Sum(Counter),
    Max(Gauge),
}

/// Tier labels for cache outcome counters and lookup histograms — exactly
/// the values the `X-Oneqd-Cache` response header can carry.
pub const TIERS: [&str; 5] = [
    OUTCOME_MEMORY,
    OUTCOME_DISK,
    OUTCOME_MISS,
    OUTCOME_COALESCED,
    OUTCOME_BYPASS,
];

/// One request's trace, from the parse that opens it to the flush that
/// closes it.
///
/// [`Telemetry::open_trace`] opens it on the event loop with its `read`
/// span. Whichever thread answers the request (the loop for inline routes,
/// refusals and memory-tier hits, a worker for every other compile) lays
/// its spans on the timeline and renders the response, which sets the
/// status. The loop starts the write clock when it queues the response,
/// and [`Telemetry::finish_request`] closes the trace when the last byte
/// flushes. The laps of the timeline (`read`, `probe`, `queue`, `handle`,
/// `write`) sum to `total_ns`; the wall time they leave out, such as a
/// worker's completion waiting for the loop, is the record's
/// `unaccounted_ns`.
#[derive(Debug)]
pub struct Trace {
    /// Request id (inbound `X-Oneqd-Request-Id` or minted).
    pub id: String,
    /// The request path, for the trace record (empty for a refused
    /// request, which never parsed to a path).
    pub route: String,
    /// Bounded route class for histogram labels ([`ROUTE_COMPILE`] /
    /// [`ROUTE_BATCH`] / [`ROUTE_INLINE`]).
    pub route_class: &'static str,
    /// HTTP status of the response.
    pub status: u16,
    /// `"inline"` for inline routes; for compile routes the cache outcome
    /// or batch tally, `"error"` until the handler resolves one.
    pub outcome: String,
    /// Spans recorded so far, offset from request start.
    pub spans: Vec<Span>,
    /// Nanoseconds from request start to the end of the timeline so far:
    /// once the response is queued, where the `write` span starts.
    pub total_ns: u64,
    /// The request's first byte: the origin of its wall clock.
    started: Instant,
    /// When the response was queued on the connection.
    write_started: Option<Instant>,
}

impl Trace {
    /// Lays a `name` span of `ns` at the end of the timeline.
    pub fn lap(&mut self, name: &'static str, ns: u64) {
        self.spans.push(Span::new(name, self.total_ns, ns));
        self.total_ns = self.total_ns.saturating_add(ns);
    }

    /// Runs the request's handler as its `handle` lap; see
    /// [`Trace::lap_named`].
    pub fn handle<R>(&mut self, handler: impl FnOnce(&mut Trace) -> R) -> R {
        self.lap_named(handler, |_| "handle")
    }

    /// Runs `work` as the next lap of the timeline, named by `name` from
    /// what `work` returned. The spans `work` adds are offsets from its
    /// own start; they are re-based onto the request's timeline and follow
    /// the lap, which encloses them.
    pub fn lap_named<R>(
        &mut self,
        work: impl FnOnce(&mut Trace) -> R,
        name: impl FnOnce(&R) -> &'static str,
    ) -> R {
        let base = self.total_ns;
        let first = self.spans.len();
        let started = Instant::now();
        let out = work(self);
        let ns = duration_ns(started.elapsed());
        for span in &mut self.spans[first..] {
            span.start_ns = span.start_ns.saturating_add(base);
        }
        self.spans.insert(first, Span::new(name(&out), base, ns));
        self.total_ns = base.saturating_add(ns);
        out
    }

    /// Starts the write clock: the response was just queued.
    pub fn begin_write(&mut self) {
        self.write_started = Some(Instant::now());
    }
}

/// Everything the daemon records about itself. One per [`ServiceState`];
/// see the module docs for the flow.
///
/// [`ServiceState`]: crate::server::ServiceState
#[derive(Debug)]
pub struct Telemetry {
    /// The metric registry both `/v1/stats` and `/v1/metrics` snapshot.
    pub registry: Registry,
    /// Ring of recently closed traces.
    pub traces: TraceBuffer,
    ids: RequestIds,
    sink: Option<Mutex<File>>,
    slow_ns: u64,
    read_hist: Histogram,
    queue_hist: Histogram,
    write_hist: Histogram,
    iteration_hist: Histogram,
    spill_lag_hist: Histogram,
    ready_fds: Gauge,
    queue_depth: Gauge,
    request_hists: [(&'static str, Histogram); 3],
    stage_hists: Vec<(&'static str, Histogram)>,
    tier_counters: Vec<(&'static str, Counter)>,
    tier_hists: Vec<(&'static str, Histogram)>,
    traces_total: Counter,
    trace_log_records: Counter,
    profile_series: Vec<(&'static str, ProfileSeries)>,
}

impl Telemetry {
    /// Builds the registry, pre-registers every latency family, and opens
    /// the `--trace-log` sink (append mode) when one is configured.
    ///
    /// `slow_ms` gates the sink: 0 logs every request, N logs only
    /// requests whose end-to-end time reached N milliseconds. The
    /// in-memory ring ignores the gate.
    pub fn new(trace_log: Option<&Path>, slow_ms: u64) -> io::Result<Telemetry> {
        let registry = Registry::new();
        let read_hist = registry.histogram(
            "oneqd_request_read_seconds",
            "Time from first request byte to a fully parsed request.",
            &[],
        );
        let queue_hist = registry.histogram(
            "oneqd_queue_wait_seconds",
            "Time a compile job waited for a worker thread.",
            &[],
        );
        let write_hist = registry.histogram(
            "oneqd_response_write_seconds",
            "Time from response queue to the last byte flushed.",
            &[],
        );
        let iteration_hist = registry.histogram(
            "oneqd_loop_iteration_seconds",
            "Event-loop iteration processing time (poll wait excluded).",
            &[],
        );
        let spill_lag_hist = registry.histogram(
            "oneqd_spill_lag_seconds",
            "Write-behind lag: spill append enqueue to writer pickup.",
            &[],
        );
        let ready_fds = registry.gauge(
            "oneqd_loop_ready_fds",
            "Descriptors reported ready by the last poll(2) return.",
            &[],
        );
        let queue_depth = registry.gauge(
            "oneqd_queue_depth",
            "Compile jobs waiting for a worker.",
            &[],
        );
        let request_hists = ROUTES.map(|route| {
            (
                route,
                registry.histogram(
                    "oneqd_request_seconds",
                    "End-to-end request time, first request byte to last response byte.",
                    &[("route", route)],
                ),
            )
        });
        let stage_hists = stage_labels()
            .map(|stage| {
                (
                    stage,
                    registry.histogram(
                        "oneqd_compile_stage_seconds",
                        "Compile time per pipeline stage (executed compiles only).",
                        &[("stage", stage)],
                    ),
                )
            })
            .collect();
        let tier_counters = TIERS
            .iter()
            .map(|tier| {
                (
                    *tier,
                    registry.counter(
                        "oneqd_cache_outcomes_total",
                        "Compile requests by cache outcome tier.",
                        &[("tier", tier)],
                    ),
                )
            })
            .collect();
        let tier_hists = TIERS
            .iter()
            .map(|tier| {
                (
                    *tier,
                    registry.histogram(
                        "oneqd_cache_lookup_seconds",
                        "Cache lookup-to-result time by outcome tier.",
                        &[("tier", tier)],
                    ),
                )
            })
            .collect();
        let traces_total = registry.counter(
            "oneqd_traces_total",
            "Request traces closed (ring evictions included).",
            &[],
        );
        let trace_log_records = registry.counter(
            "oneqd_trace_log_records_total",
            "Trace records written to the --trace-log sink.",
            &[],
        );
        let folds: Vec<_> = CompileProfile::default().counters().collect();
        let profile_series = COMPILE_FAMILIES
            .iter()
            .map(|&(counter, name, help)| {
                let (_, fold, _) = folds
                    .iter()
                    .find(|(c, _, _)| *c == counter)
                    .expect("every family reads a profile counter");
                let series = match fold {
                    Fold::Sum => ProfileSeries::Sum(registry.counter(name, help, &[])),
                    Fold::Max => ProfileSeries::Max(registry.gauge(name, help, &[])),
                };
                (counter, series)
            })
            .collect();
        let build_info = registry.gauge(
            "oneqd_build_info",
            "Build metadata; the value is always 1.",
            &[("version", env!("CARGO_PKG_VERSION"))],
        );
        build_info.set(1);
        let start_time = registry.gauge(
            "oneqd_start_time_seconds",
            "Unix time at which this daemon's telemetry came up.",
            &[],
        );
        start_time.set(
            SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        );
        let sink = match trace_log {
            Some(path) => Some(Mutex::new(
                OpenOptions::new().create(true).append(true).open(path)?,
            )),
            None => None,
        };
        Ok(Telemetry {
            registry,
            traces: TraceBuffer::new(TRACE_RING_CAPACITY),
            ids: RequestIds::new(),
            sink,
            slow_ns: slow_ms.saturating_mul(1_000_000),
            read_hist,
            queue_hist,
            write_hist,
            iteration_hist,
            spill_lag_hist,
            ready_fds,
            queue_depth,
            request_hists,
            stage_hists,
            tier_counters,
            tier_hists,
            traces_total,
            trace_log_records,
            profile_series,
        })
    }

    /// Adopts a well-formed inbound `X-Oneqd-Request-Id`, otherwise mints
    /// a fresh one. The returned id is always header- and JSON-safe.
    pub fn request_id(&self, inbound: Option<&str>) -> String {
        match inbound {
            Some(id) if oneq_obs::valid_request_id(id) => id.to_string(),
            _ => self.ids.next(),
        }
    }

    /// Opens the trace of a request whose head was just read (or refused):
    /// records its read time from `read_started` (its first byte), resolves
    /// its id from `inbound_id`, and lays the `read` span.
    pub fn open_trace(
        &self,
        read_started: Option<Instant>,
        inbound_id: Option<&str>,
        route: &str,
        route_class: &'static str,
    ) -> Trace {
        let opened = Instant::now();
        let started = read_started.unwrap_or(opened);
        let read_ns = duration_ns(opened.saturating_duration_since(started));
        self.read_hist.record(read_ns);
        let outcome = if route_class == ROUTE_INLINE {
            "inline"
        } else {
            "error"
        };
        let mut trace = Trace {
            id: self.request_id(inbound_id),
            route: route.to_string(),
            route_class,
            status: 0,
            outcome: outcome.to_string(),
            spans: Vec::new(),
            total_ns: 0,
            started,
            write_started: None,
        };
        trace.lap("read", read_ns);
        trace
    }

    /// Records a compile job's time on the queue.
    pub fn observe_queue_wait(&self, ns: u64) {
        self.queue_hist.record(ns);
    }

    /// Records one event-loop iteration's processing time.
    pub fn observe_iteration(&self, ns: u64) {
        self.iteration_hist.record(ns);
    }

    /// Publishes the loop gauges for this iteration.
    pub fn set_loop_gauges(&self, ready_fds: u64, queue_depth: u64) {
        self.ready_fds.set(ready_fds);
        self.queue_depth.set(queue_depth);
    }

    /// The histogram the spill tier's writer feeds (handed over at open).
    pub fn spill_lag_histogram(&self) -> Histogram {
        self.spill_lag_hist.clone()
    }

    /// Records one compile-cache resolution: the outcome tier, the
    /// lookup-to-result time, and — when this request executed the compile
    /// — its parse and wall clocks, plus the per-stage breakdown and the
    /// compiler-internals profile counters when the compiler ran.
    /// `request_id` becomes the exemplar on every histogram bucket this
    /// observation lands in.
    pub fn observe_cache_outcome(
        &self,
        tier: &str,
        lookup_ns: u64,
        request_id: &str,
        timings: Option<&RecordTimings>,
    ) {
        if let Some((_, counter)) = self.tier_counters.iter().find(|(t, _)| *t == tier) {
            counter.inc();
        }
        if let Some((_, hist)) = self.tier_hists.iter().find(|(t, _)| *t == tier) {
            hist.record_with_exemplar(lookup_ns, request_id);
        }
        let Some(timings) = timings else {
            return;
        };
        self.observe_stage("parse", timings.parse_ns, request_id);
        self.observe_stage("wall", timings.wall_ns, request_id);
        let Some(profile) = &timings.profile else {
            return;
        };
        for (stage, ns) in profile.stages() {
            self.observe_stage(stage.name(), ns, request_id);
        }
        for (counter, _, value) in profile.counters() {
            match self.profile_series.iter().find(|(c, _)| *c == counter) {
                Some((_, ProfileSeries::Sum(series))) => series.add(value),
                Some((_, ProfileSeries::Max(series))) => series.set_max(value),
                None => {}
            }
        }
    }

    fn observe_stage(&self, stage: &str, ns: u128, request_id: &str) {
        if let Some((_, hist)) = self.stage_hists.iter().find(|(s, _)| *s == stage) {
            hist.record_with_exemplar(u64::try_from(ns).unwrap_or(u64::MAX), request_id);
        }
    }

    /// Closes a trace once its response flush completed: appends the
    /// `write` span, records the write and end-to-end histograms, pushes
    /// the record to the ring, and writes the JSONL sink when the request
    /// clears the `--slow-ms` gate.
    pub fn finish_request(&self, mut trace: Trace, conn: u64) {
        let flushed = Instant::now();
        let write_ns = trace
            .write_started
            .map_or(0, |t| duration_ns(flushed.saturating_duration_since(t)));
        trace.lap("write", write_ns);
        let wall_ns = duration_ns(flushed.saturating_duration_since(trace.started));
        self.write_hist.record(write_ns);
        if let Some((_, hist)) = self
            .request_hists
            .iter()
            .find(|(route, _)| *route == trace.route_class)
        {
            hist.record_with_exemplar(trace.total_ns, &trace.id);
        }
        let total_ns = trace.total_ns;
        let record = TraceRecord {
            id: trace.id,
            conn,
            route: trace.route,
            status: trace.status,
            outcome: trace.outcome,
            total_ns,
            unaccounted_ns: wall_ns.saturating_sub(total_ns),
            spans: trace.spans,
        };
        if let Some(sink) = &self.sink {
            if total_ns >= self.slow_ns {
                let mut line = record.to_json();
                line.push('\n');
                let mut file = sink.lock().expect("trace sink poisoned");
                if file.write_all(line.as_bytes()).is_ok() {
                    let _ = file.flush();
                    self.trace_log_records.inc();
                }
            }
        }
        self.traces.push(record);
        self.traces_total.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A compile trace `total_ns` long whose response was just queued.
    fn queued(id: &str, total_ns: u64) -> Trace {
        let mut trace = Trace {
            id: id.to_string(),
            route: "/v1/compile".to_string(),
            route_class: ROUTE_COMPILE,
            status: 200,
            outcome: "miss".to_string(),
            spans: Vec::new(),
            total_ns: 0,
            started: Instant::now(),
            write_started: None,
        };
        trace.lap("read", total_ns);
        trace.begin_write();
        trace
    }

    #[test]
    fn request_ids_adopt_valid_and_replace_hostile_input() {
        let telemetry = Telemetry::new(None, 0).unwrap();
        assert_eq!(telemetry.request_id(Some("client-42")), "client-42");
        let minted = telemetry.request_id(Some("bad id\n"));
        assert_ne!(minted, "bad id\n");
        assert!(oneq_obs::valid_request_id(&minted));
        assert_ne!(telemetry.request_id(None), telemetry.request_id(None));
    }

    #[test]
    fn finished_requests_land_in_ring_and_histograms() {
        let telemetry = Telemetry::new(None, 0).unwrap();
        telemetry.finish_request(queued("r1", 1_000), 7);
        assert_eq!(telemetry.traces.len(), 1);
        let record = &telemetry.traces.recent(1)[0];
        assert_eq!(record.id, "r1");
        assert_eq!(record.conn, 7);
        assert_eq!(
            record.spans.last().map(|s| s.name),
            Some("write"),
            "write span is appended at close"
        );
        assert!(record.total_ns >= 1_000);
        let snap = telemetry.registry.snapshot();
        let hist = snap
            .histogram("oneqd_request_seconds", &[("route", ROUTE_COMPILE)])
            .expect("request histogram");
        assert_eq!(hist.count, 1);
    }

    #[test]
    fn wall_time_outside_the_laps_is_unaccounted() {
        let telemetry = Telemetry::new(None, 0).unwrap();
        let first_byte = Instant::now();
        let mut trace = telemetry.open_trace(Some(first_byte), None, "/v1/compile", ROUTE_COMPILE);
        trace.handle(|_| ());
        // A completion waiting for the loop: no lap covers it.
        std::thread::sleep(std::time::Duration::from_millis(20));
        trace.begin_write();
        telemetry.finish_request(trace, 1);
        let record = &telemetry.traces.recent(1)[0];
        assert!(
            record.unaccounted_ns >= 20_000_000,
            "{} ns unaccounted",
            record.unaccounted_ns
        );
        let wall = duration_ns(first_byte.elapsed());
        assert!(record.total_ns + record.unaccounted_ns <= wall);
        assert!(record.to_json().contains("\"unaccounted_ns\": "));
    }

    #[test]
    fn slow_ms_gates_the_sink_but_not_the_ring() {
        let dir = std::env::temp_dir().join(format!(
            "oneq-telemetry-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let telemetry = Telemetry::new(Some(&path), 10).unwrap();
        // 1 µs total: below the 10 ms gate, ring only.
        telemetry.finish_request(queued("fast", 1_000), 1);
        // 20 ms total (pre-write): clears the gate.
        telemetry.finish_request(queued("slow", 20_000_000), 2);
        assert_eq!(telemetry.traces.len(), 2, "ring ignores the gate");
        let log = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 1, "only the slow request is logged: {log}");
        assert!(lines[0].contains("\"request_id\": \"slow\""));
        let snap = telemetry.registry.snapshot();
        assert_eq!(snap.counter("oneqd_trace_log_records_total", &[]), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_outcomes_feed_tier_and_stage_series() {
        let telemetry = Telemetry::new(None, 0).unwrap();
        let timings = RecordTimings {
            profile: Some(CompileProfile::default()),
            ..RecordTimings::default()
        };
        telemetry.observe_cache_outcome("miss", 5_000, "req-miss", Some(&timings));
        // A source that failed to parse: its clocks, no compiler profile.
        // They land in another bucket than the miss's, whose exemplar
        // therefore survives.
        let parse_only = RecordTimings {
            parse_ns: 2_000_000,
            wall_ns: 2_000_000,
            profile: None,
        };
        telemetry.observe_cache_outcome("bypass", 900, "req-422", Some(&parse_only));
        telemetry.observe_cache_outcome("memory", 800, "req-mem", None);
        telemetry.observe_cache_outcome("not-a-tier", 1, "req-x", None); // ignored
        let snap = telemetry.registry.snapshot();
        assert_eq!(
            snap.counter("oneqd_cache_outcomes_total", &[("tier", "miss")]),
            1
        );
        assert_eq!(
            snap.counter("oneqd_cache_outcomes_total", &[("tier", "memory")]),
            1
        );
        let lookup = snap
            .histogram("oneqd_cache_lookup_seconds", &[("tier", "miss")])
            .unwrap();
        assert_eq!(lookup.count, 1);
        for stage in stage_labels() {
            let hist = snap
                .histogram("oneqd_compile_stage_seconds", &[("stage", stage)])
                .unwrap_or_else(|| panic!("stage {stage} registered"));
            let clocked_by_both = stage == "parse" || stage == "wall";
            let want = if clocked_by_both { 2 } else { 1 };
            assert_eq!(hist.count, want, "executed compiles observed for {stage}");
            assert!(
                hist.exemplars
                    .iter()
                    .any(|(_, e)| e.request_id == "req-miss"),
                "executed compile leaves its request id as a {stage} exemplar"
            );
        }
    }

    #[test]
    fn build_info_and_start_time_gauges_come_up_with_the_registry() {
        let telemetry = Telemetry::new(None, 0).unwrap();
        let snap = telemetry.registry.snapshot();
        assert_eq!(
            snap.gauge(
                "oneqd_build_info",
                &[("version", env!("CARGO_PKG_VERSION"))]
            ),
            1
        );
        // Any plausible wall clock is after 2020; a zeroed gauge would mean
        // the constructor never stamped it.
        assert!(snap.gauge("oneqd_start_time_seconds", &[]) > 1_577_836_800);
    }

    #[test]
    fn request_exemplars_survive_to_the_rendered_exposition() {
        let telemetry = Telemetry::new(None, 0).unwrap();
        telemetry.finish_request(queued("slow-one", 5_000_000), 3);
        let text = telemetry.registry.snapshot().render_prometheus();
        assert!(
            text.contains("# {request_id=\"slow-one\"}"),
            "request histogram carries the exemplar: {text}"
        );
    }
}
