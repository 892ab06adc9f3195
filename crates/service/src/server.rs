//! The `oneqd` server: the versioned `/v1` API, the readiness-driven
//! connection core, and the worker dispatch behind it.
//!
//! Routes (all JSON):
//!
//! | Route | Purpose |
//! |---|---|
//! | `POST /v1/compile` | compile an OpenQASM 2.0 body; knobs as query params |
//! | `POST /v1/compile-batch` | JSONL in, JSONL out; `oneqc`'s record path per line |
//! | `GET /v1/healthz`  | liveness probe |
//! | `GET /v1/stats`    | request + connection + cache + coalescing counters |
//! | `GET /v1/metrics`  | Prometheus text exposition (same registry as stats) |
//! | `GET /v1/traces`   | recent request traces; `route=`/`status=`/`min_ms=`/`limit=` filters |
//! | `GET /v1/traces/{id}` | one trace by request id |
//!
//! (The unversioned PR-4 shims — `/compile`, `/healthz`, `/stats` —
//! served their one promised migration release and are gone; they now
//! answer 404 like any other unknown path.)
//!
//! # The event loop
//!
//! One thread owns every socket. It runs `poll(2)` (`poll.rs`) over
//! the listener, a wake pipe, and all open connections (`Conn` in
//! `conn.rs`), so an open connection costs a file
//! descriptor — never a thread. Reads are nonblocking and feed the
//! resumable [`crate::http::RequestParser`]; only once a request is
//! *complete* is it queued on the [`WorkerPool`]'s FIFO queue, whose
//! completion comes back over a channel (plus a waker nudge) as fully
//! rendered response bytes the loop writes out as the socket accepts
//! them. Trivial routes (`healthz`, `stats`, 404/405) are answered on
//! the loop itself.
//!
//! Connections are *sessions*: requests are read off one socket until
//! the client sends `Connection: close`, the per-connection request cap
//! is reached, or the idle timeout expires between requests. Each state
//! carries a deadline — `idle_timeout` between requests, `io_timeout`
//! from a request's first byte to its last and for writing a response —
//! so a slow-loris client trickling one byte per second is evicted when
//! its whole-request budget runs out (the per-read timeouts of the old
//! thread-per-connection core never fired for such a client; it pinned
//! a worker forever). Evictions and connection-state gauges are
//! surfaced in `GET /v1/stats` (`oneqd-stats/v6`).
//!
//! # Telemetry
//!
//! Every counter is a handle into the [`crate::telemetry::Telemetry`]
//! registry, taken when its component is built and bumped where the
//! event happens, and both `GET /v1/stats` and `GET /v1/metrics` render
//! from *one* registry snapshot — the two surfaces cannot disagree. Every parsed request carries an
//! `X-Oneqd-Request-Id` (inbound value adopted when well-formed,
//! otherwise minted) echoed on the response, and a span trace — read,
//! queue wait, handler, per-tier cache lookup, per-stage compile times,
//! response write — closed when the last response byte flushes, pushed
//! to an in-memory ring and (under `--trace-log`, gated by `--slow-ms`)
//! to a JSONL sink. See `docs/OBSERVABILITY.md` for names and schemas.
//!
//! `/v1/compile` responses are byte-identical to `oneqc`'s JSONL
//! records (one record + `\n`) for the same source and config, and —
//! unless the request bypasses — are served through the tiered
//! content-addressed cache ([`TieredCache`]: in-memory LRU, then the
//! optional disk spill tier) behind a [`SingleFlight`] coalescing
//! layer, with the outcome exposed in an
//! `X-Oneqd-Cache: memory|disk|miss|coalesced|bypass` header.
//!
//! Shutdown: once the stop flag fires the loop stops accepting, closes
//! idle sessions, lets in-flight requests finish writing, and joins the
//! worker pool — bounded by the slowest in-flight exchange, not by an
//! accept call blocked forever.

use crate::cache::{sha256, FlightRole, SingleFlight, Tier, TieredCache};
use crate::compile::RecordTimings;
use crate::http::{write_response, Connection, Request};
use crate::json::{self, ObjWriter};
use crate::pool::{run_indexed, WorkerPool};
use crate::request::CompileRequest;
use crate::spill::{SpillConfig, SpillTier};
use crate::telemetry::{
    PendingTrace, Telemetry, TraceSeed, ROUTE_BATCH, ROUTE_COMPILE, ROUTE_INLINE,
};
use oneq_obs::{duration_ns, Counter, Gauge, Snapshot, Span};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tunables for a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The compile budget: worker threads serving dispatched requests,
    /// and the global cap on concurrent batch-line compiles (a shared
    /// semaphore, so N simultaneous `/v1/compile-batch` requests still run
    /// at most this many compiles at once). Batches use scoped threads,
    /// not pool workers, so a batch cannot deadlock the connection pool.
    pub workers: usize,
    /// Total cached compile responses.
    pub cache_capacity: usize,
    /// Mutex stripes in the cache.
    pub cache_shards: usize,
    /// Largest accepted request body in bytes.
    pub max_body: usize,
    /// Whole-exchange deadline: a request gets this long from its first
    /// byte to its last, and a response gets this long to flush. The
    /// slow-loris budget.
    pub io_timeout: Duration,
    /// Requests served on one connection before the server closes it
    /// (`Connection: close` on the final response). Bounds how long one
    /// client can monopolize a connection slot.
    pub keep_alive_requests: usize,
    /// How long a kept-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Directory for the persistent disk spill tier (`oneqd
    /// --cache-dir`). `None` (the default) runs memory-only, exactly the
    /// pre-spill behavior.
    pub cache_dir: Option<PathBuf>,
    /// Byte budget for the spill directory (`oneqd --cache-disk-bytes`);
    /// ignored without `cache_dir`.
    pub cache_disk_bytes: u64,
    /// Cap on concurrently open connections; the listener is simply not
    /// polled while at the cap, so excess clients wait in the kernel
    /// accept backlog instead of being dropped.
    pub max_connections: usize,
    /// JSONL sink for closed request traces (`oneqd --trace-log`).
    /// `None` keeps traces in the in-memory ring only.
    pub trace_log: Option<PathBuf>,
    /// Threshold for the trace-log sink (`oneqd --slow-ms`): 0 logs
    /// every request, N logs only requests that took ≥ N ms end to end.
    /// The in-memory ring is not gated.
    pub slow_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
            cache_capacity: 256,
            cache_shards: 8,
            max_body: 4 * 1024 * 1024,
            io_timeout: Duration::from_secs(10),
            keep_alive_requests: 256,
            idle_timeout: Duration::from_secs(5),
            cache_dir: None,
            cache_disk_bytes: 256 * 1024 * 1024,
            max_connections: 4096,
            trace_log: None,
            slow_ms: 0,
        }
    }
}

/// A minimal counting semaphore (std has none): the global budget of
/// concurrent batch-compile slots. Each `/v1/compile-batch` request
/// spawns its own scoped threads, so without a *shared* budget N
/// concurrent batches would run `N × workers` compiles at once and
/// oversubscribe every core; with it, total batch compile concurrency is
/// `workers` regardless of how many batches are in flight.
struct Semaphore {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Semaphore {
    fn new(permits: usize) -> Semaphore {
        Semaphore {
            permits: Mutex::new(permits.max(1)),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) -> SemaphoreGuard<'_> {
        let mut permits = self.permits.lock().expect("semaphore poisoned");
        while *permits == 0 {
            permits = self.cv.wait(permits).expect("semaphore poisoned");
        }
        *permits -= 1;
        SemaphoreGuard(self)
    }
}

struct SemaphoreGuard<'a>(&'a Semaphore);

impl Drop for SemaphoreGuard<'_> {
    fn drop(&mut self) {
        *self.0.permits.lock().expect("semaphore poisoned") += 1;
        self.0.cv.notify_one();
    }
}

/// Shared request/connection/cache accounting, surfaced through
/// `GET /v1/stats` and `GET /v1/metrics`. Every counter and gauge here is
/// a registry handle; the components behind `cache` and `flights` hold
/// their own.
pub struct ServiceState {
    started: Instant,
    /// The tiered compile cache (memory LRU + optional disk spill).
    pub cache: TieredCache,
    /// The coalescing layer in front of the cache.
    pub flights: SingleFlight,
    /// The metrics registry, trace ring, and request-id mint.
    pub telemetry: Telemetry,
    batch_slots: Semaphore,
    connections: Counter,
    requests: Counter,
    healthz_requests: Counter,
    stats_requests: Counter,
    metrics_requests: Counter,
    traces_requests: Counter,
    compile_requests: Counter,
    batch_requests: Counter,
    batch_records: Counter,
    compile_ok: Counter,
    compile_errors: Counter,
    compile_executions: Counter,
    http_errors: Counter,
    // Connection-state gauges, set by the event loop every iteration (so
    // an externally rendered stats body is at most one poll cadence
    // stale).
    conns_reading: Gauge,
    conns_dispatched: Gauge,
    conns_writing: Gauge,
    conns_draining: Gauge,
    conns_idle: Gauge,
    conns_open: Gauge,
    evicted_slow_read: Counter,
    evicted_slow_write: Counter,
    idle_closed: Counter,
}

impl ServiceState {
    /// Fallible because opening the spill tier can fail: the directory
    /// may be unwritable or flocked by another daemon.
    fn new(config: &ServerConfig) -> io::Result<ServiceState> {
        let telemetry = Telemetry::new(config.trace_log.as_deref(), config.slow_ms)?;
        let reg = &telemetry.registry;
        let disk = match &config.cache_dir {
            Some(dir) => {
                let mut spill = SpillConfig::new(dir);
                spill.max_bytes = config.cache_disk_bytes;
                let tier = SpillTier::open(spill, reg)?;
                tier.set_lag_observer(telemetry.spill_lag_histogram());
                Some(tier)
            }
            None => None,
        };
        let counter = |name: &str, help: &str| reg.counter(name, help, &[]);
        let fixed = |name: &str, help: &str, value: u64| reg.gauge(name, help, &[]).set(value);
        let route = |route: &str| {
            reg.counter(
                "oneqd_route_requests_total",
                "Requests by route.",
                &[("route", route)],
            )
        };
        let conn_state = |state: &str| {
            reg.gauge(
                "oneqd_conn_states",
                "Open connections by state.",
                &[("state", state)],
            )
        };
        let evicted = |reason: &str| {
            reg.counter(
                "oneqd_evictions_total",
                "Connections closed by the server, by reason.",
                &[("reason", reason)],
            )
        };
        fixed(
            "oneqd_workers",
            "Worker threads serving compile requests.",
            config.workers.max(1) as u64,
        );
        fixed(
            "oneqd_max_connections",
            "Configured cap on concurrently open connections.",
            config.max_connections.max(1) as u64,
        );
        fixed(
            "oneqd_spill_enabled",
            "1 when a disk spill tier is attached.",
            u64::from(disk.is_some()),
        );
        Ok(ServiceState {
            started: Instant::now(),
            cache: TieredCache::new(config.cache_capacity, config.cache_shards, disk, reg),
            flights: SingleFlight::new(reg),
            batch_slots: Semaphore::new(config.workers),
            connections: counter("oneqd_connections_total", "Connections accepted."),
            requests: counter(
                "oneqd_requests_total",
                "HTTP requests received (including malformed ones).",
            ),
            healthz_requests: route("healthz"),
            stats_requests: route("stats"),
            metrics_requests: route("metrics"),
            traces_requests: route("traces"),
            compile_requests: route("compile"),
            batch_requests: route("batch"),
            batch_records: counter(
                "oneqd_batch_records_total",
                "Individual records served across batch requests.",
            ),
            compile_ok: counter(
                "oneqd_compile_ok_total",
                "Compile records answered with status ok.",
            ),
            compile_errors: counter(
                "oneqd_compile_errors_total",
                "Compile records answered with status error.",
            ),
            compile_executions: counter(
                "oneqd_compile_executions_total",
                "Compiles actually executed (misses + bypasses).",
            ),
            http_errors: counter(
                "oneqd_http_errors_total",
                "Requests answered with a 4xx/5xx error envelope.",
            ),
            conns_reading: conn_state("reading"),
            conns_dispatched: conn_state("dispatched"),
            conns_writing: conn_state("writing"),
            conns_draining: conn_state("draining"),
            conns_idle: conn_state("idle_keep_alive"),
            conns_open: reg.gauge(
                "oneqd_conns_open",
                "Connections currently open (all states).",
                &[],
            ),
            evicted_slow_read: evicted("slow_read"),
            evicted_slow_write: evicted("slow_write"),
            idle_closed: evicted("idle"),
            telemetry,
        })
    }

    /// One consistent capture of every metric: the registry snapshot
    /// both `/v1/metrics` (exposition format) and `/v1/stats` (JSON)
    /// render from. Counters are live registry handles; only the state
    /// no single event counts — uptime and cache occupancy — is set
    /// here, just before the capture.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let reg = &self.telemetry.registry;
        let gauge = |name: &str, help: &str, value: u64| reg.gauge(name, help, &[]).set(value);
        gauge(
            "oneqd_uptime_milliseconds",
            "Milliseconds since the daemon started.",
            self.started.elapsed().as_millis() as u64,
        );
        gauge(
            "oneqd_cache_memory_entries",
            "Entries resident in the memory tier.",
            self.cache.memory_stats().entries as u64,
        );
        if let Some(spill) = self.cache.disk_stats() {
            gauge(
                "oneqd_spill_entries",
                "Records indexed in the spill tier.",
                spill.entries as u64,
            );
            gauge(
                "oneqd_spill_segments",
                "Segment files in the spill directory.",
                spill.segments as u64,
            );
            gauge(
                "oneqd_spill_live_bytes",
                "Bytes of live records on disk.",
                spill.live_bytes,
            );
            gauge(
                "oneqd_spill_dead_bytes",
                "Bytes of superseded records awaiting compaction.",
                spill.dead_bytes,
            );
        }
        reg.snapshot()
    }

    /// Renders the `/v1/stats` body (`oneqd-stats/v6`): flat request
    /// counters, then a nested `conns` object with connection-state
    /// gauges and eviction counters, then a nested `cache` object with
    /// per-tier blocks — `memory` always, `disk` carrying its counters
    /// when a spill tier is attached (`"enabled": false` otherwise) —
    /// then a `telemetry` object (new in v5), then a `slowest` array of
    /// the ring's worst end-to-end requests (new in v6). Every value is
    /// read from the same registry snapshot `/v1/metrics` renders, via
    /// [`ServiceState::metrics_snapshot`].
    pub fn stats_json(&self) -> String {
        self.stats_json_from(&self.metrics_snapshot())
    }

    fn stats_json_from(&self, snap: &Snapshot) -> String {
        let c = |name: &str| snap.counter(name, &[]);
        let g = |name: &str| snap.gauge(name, &[]);
        let route = |r: &str| snap.counter("oneqd_route_requests_total", &[("route", r)]);
        let conn_state = |s: &str| snap.gauge("oneqd_conn_states", &[("state", s)]);
        let evicted = |r: &str| snap.counter("oneqd_evictions_total", &[("reason", r)]);

        let mut mem = ObjWriter::new();
        mem.field_u64("hits", c("oneqd_cache_memory_hits_total"))
            .field_u64("misses", c("oneqd_cache_memory_misses_total"))
            .field_u64("evictions", c("oneqd_cache_memory_evictions_total"))
            .field_u64("entries", g("oneqd_cache_memory_entries"))
            .field_u64("capacity", g("oneqd_cache_memory_capacity"))
            .field_u64("shards", g("oneqd_cache_memory_shards"));

        let mut disk = ObjWriter::new();
        if g("oneqd_spill_enabled") == 1 {
            disk.field_bool("enabled", true)
                .field_u64("hits", c("oneqd_spill_hits_total"))
                .field_u64("appends", c("oneqd_spill_appends_total"))
                .field_u64("entries", g("oneqd_spill_entries"))
                .field_u64("segments", g("oneqd_spill_segments"))
                .field_u64("live_bytes", g("oneqd_spill_live_bytes"))
                .field_u64("dead_bytes", g("oneqd_spill_dead_bytes"))
                .field_u64("capacity_bytes", g("oneqd_spill_capacity_bytes"))
                .field_u64("evicted_segments", c("oneqd_spill_evicted_segments_total"))
                .field_u64("compactions", c("oneqd_spill_compactions_total"))
                .field_u64("crc_dropped", c("oneqd_spill_crc_dropped_total"))
                .field_u64(
                    "recovered_records",
                    c("oneqd_spill_recovered_records_total"),
                )
                .field_u64("truncated_tails", c("oneqd_spill_truncated_tails_total"));
        } else {
            disk.field_bool("enabled", false);
        }

        let mut cache = ObjWriter::new();
        cache
            .field_u64("fills", c("oneqd_cache_fills_total"))
            .field_raw("memory", &mem.finish())
            .field_raw("disk", &disk.finish());

        let mut conns = ObjWriter::new();
        conns
            .field_u64("open", g("oneqd_conns_open"))
            .field_u64("reading", conn_state("reading"))
            .field_u64("dispatched", conn_state("dispatched"))
            .field_u64("writing", conn_state("writing"))
            .field_u64("draining", conn_state("draining"))
            .field_u64("idle_keep_alive", conn_state("idle_keep_alive"))
            .field_u64("max_connections", g("oneqd_max_connections"))
            .field_u64("evicted_slow_read", evicted("slow_read"))
            .field_u64("evicted_slow_write", evicted("slow_write"))
            .field_u64("idle_closed", evicted("idle"));

        // New in v5, appended after every v4 key (the bench scrapers
        // match the first occurrence of a key, so existing keys must
        // keep their positions).
        let loop_iterations = snap
            .histogram("oneqd_loop_iteration_seconds", &[])
            .map_or(0, |h| h.count);
        let mut telemetry = ObjWriter::new();
        telemetry
            .field_u64("metrics_requests", route("metrics"))
            .field_u64("queue_depth", g("oneqd_queue_depth"))
            .field_u64("ready_fds", g("oneqd_loop_ready_fds"))
            .field_u64("loop_iterations", loop_iterations)
            .field_u64("traces_recorded", c("oneqd_traces_total"))
            .field_u64("traces_buffered", self.telemetry.traces.len() as u64)
            .field_u64("trace_log_records", c("oneqd_trace_log_records_total"))
            // New in v6, appended after every v5 key.
            .field_u64("traces_requests", route("traces"));

        // New in v6: the ring's current worst offenders by end-to-end
        // time, newest first among ties — the `oneq-top` slowest table.
        let mut slowest = String::from("[");
        for (i, record) in self.telemetry.traces.slowest(5).iter().enumerate() {
            if i > 0 {
                slowest.push_str(", ");
            }
            let mut entry = ObjWriter::new();
            entry
                .field_str("request_id", &record.id)
                .field_str("route", &record.route)
                .field_u64("status", u64::from(record.status))
                .field_str("outcome", &record.outcome)
                .field_u64("total_ns", record.total_ns);
            slowest.push_str(&entry.finish());
        }
        slowest.push(']');

        let mut out = ObjWriter::new();
        out.field_str("schema", "oneqd-stats/v6")
            .field_u64("uptime_ms", g("oneqd_uptime_milliseconds"))
            .field_u64("workers", g("oneqd_workers"))
            .field_u64("connections", c("oneqd_connections_total"))
            .field_u64("requests", c("oneqd_requests_total"))
            .field_u64("healthz_requests", route("healthz"))
            .field_u64("stats_requests", route("stats"))
            .field_u64("compile_requests", route("compile"))
            .field_u64("batch_requests", route("batch"))
            .field_u64("batch_records", c("oneqd_batch_records_total"))
            .field_u64("compile_ok", c("oneqd_compile_ok_total"))
            .field_u64("compile_errors", c("oneqd_compile_errors_total"))
            .field_u64("compile_executions", c("oneqd_compile_executions_total"))
            .field_u64("coalesced", c("oneqd_coalesced_total"))
            .field_u64("http_errors", c("oneqd_http_errors_total"))
            .field_raw("conns", &conns.finish())
            .field_raw("cache", &cache.finish())
            .field_raw("telemetry", &telemetry.finish())
            .field_raw("slowest", &slowest);
        let mut body = out.finish();
        body.push('\n');
        body
    }
}

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServiceState>,
    config: ServerConfig,
}

/// Handle to a server running on a background thread (tests and
/// `perfbench` use).
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared counters (same data `/v1/stats` reports).
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Requests shutdown and joins the server thread.
    pub fn shutdown(mut self) -> io::Result<()> {
        // ORDERING: Relaxed — lone stop flag polled by the event loop; the
        // join below is the real synchronization point.
        self.stop.store(true, Ordering::Relaxed);
        match self.thread.take() {
            Some(t) => t
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("server thread panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // ORDERING: Relaxed — same stop flag as `shutdown`; join follows.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7878`, or port 0 for an ephemeral
    /// port) and — when `config.cache_dir` is set — opens (locking,
    /// scanning, recovering) the disk spill tier.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(ServiceState::new(&config)?);
        Ok(Server {
            listener,
            state,
            config,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared counters.
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Runs the event loop until `stop()` returns `true`, then drains:
    /// accepting stops, idle sessions close, in-flight requests finish
    /// writing, and the worker pool joins. The stop closure is checked
    /// at least every poll cadence (~25 ms), so shutdown latency is
    /// bounded by the slowest in-flight exchange, never by a blocked
    /// accept.
    pub fn run_until(self, stop: impl Fn() -> bool) -> io::Result<()> {
        #[cfg(unix)]
        {
            event_loop::run(self, &stop)
        }
        #[cfg(not(unix))]
        {
            let _ = stop;
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the oneqd event loop requires a Unix target (poll(2))",
            ))
        }
    }

    /// Spawns the event loop on a background thread and returns a
    /// handle exposing the bound address and a shutdown switch.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let state = Arc::clone(&self.state);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("oneqd-loop".to_string())
            // ORDERING: Relaxed — stop-flag poll between loop iterations;
            // eventual visibility is all shutdown needs.
            .spawn(move || self.run_until(|| stop_flag.load(Ordering::Relaxed)))?;
        Ok(ServerHandle {
            addr,
            state,
            stop,
            thread: Some(thread),
        })
    }
}

#[cfg(unix)]
mod event_loop {
    use super::*;
    use crate::conn::{Conn, ConnState, FillOutcome};
    use crate::http::RequestError;
    use crate::poll::{poll, PollFd, Waker, POLLIN, POLLOUT};
    use std::os::fd::AsRawFd as _;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// Upper bound on one poll wait: the stop closure (a signal flag, or
    /// a test's shutdown switch) is re-checked at least this often.
    const CADENCE: Duration = Duration::from_millis(25);
    /// How long the listener sits out of the poll set after a
    /// non-transient accept failure (fd exhaustion under a spike).
    const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

    /// A worker's finished response, keyed back to its connection. The
    /// `id` guards against slot recycling: if the connection was evicted
    /// and its slot reused while the worker ran, the ids disagree and
    /// the stale bytes are dropped.
    struct Completion {
        slot: usize,
        id: u64,
        bytes: Vec<u8>,
        close: bool,
        trace: TraceSeed,
    }

    /// What a poll-set entry maps back to.
    enum Owner {
        Waker,
        Listener,
        Slot(usize),
    }

    pub(super) fn run(server: super::Server, stop: &dyn Fn() -> bool) -> io::Result<()> {
        server.listener.set_nonblocking(true)?;
        let pool = WorkerPool::new("oneqd-worker", server.config.workers);
        let (done_tx, done_rx) = channel();
        let mut lp = Loop {
            listener: server.listener,
            state: server.state,
            config: Arc::new(server.config),
            pool,
            conns: Vec::new(),
            free: Vec::new(),
            open_count: 0,
            next_id: 1,
            done_tx,
            done_rx,
            waker: Arc::new(Waker::new()?),
            draining: false,
            accept_backoff_until: None,
        };
        lp.run(stop)
    }

    struct Loop {
        listener: TcpListener,
        state: Arc<ServiceState>,
        config: Arc<ServerConfig>,
        pool: WorkerPool,
        /// Slab of connections; `None` slots are free (tracked in
        /// `free`) so fds keep stable slots across iterations.
        conns: Vec<Option<Conn>>,
        free: Vec<usize>,
        open_count: usize,
        next_id: u64,
        done_tx: Sender<Completion>,
        done_rx: Receiver<Completion>,
        waker: Arc<Waker>,
        draining: bool,
        accept_backoff_until: Option<Instant>,
    }

    impl Loop {
        fn run(&mut self, stop: &dyn Fn() -> bool) -> io::Result<()> {
            loop {
                if !self.draining && stop() {
                    self.draining = true;
                    // Nothing is owed on a between-requests session.
                    for slot in 0..self.conns.len() {
                        if self.conns[slot]
                            .as_ref()
                            .is_some_and(|c| c.state() == ConnState::Idle)
                        {
                            self.close(slot);
                        }
                    }
                }
                if self.draining && self.open_count == 0 {
                    break;
                }
                self.sweep_deadlines();
                self.refresh_gauges();

                let now = Instant::now();
                let mut fds = Vec::with_capacity(self.conns.len() + 2);
                let mut owners = Vec::with_capacity(self.conns.len() + 2);
                fds.push(PollFd::new(self.waker.fd(), POLLIN));
                owners.push(Owner::Waker);
                let backing_off = self.accept_backoff_until.is_some_and(|t| t > now);
                if !self.draining && !backing_off && self.open_count < self.config.max_connections {
                    fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
                    owners.push(Owner::Listener);
                }
                let mut timeout = CADENCE;
                for (slot, conn) in self.conns.iter().enumerate() {
                    let Some(conn) = conn else { continue };
                    if let Some(deadline) = conn.deadline() {
                        timeout = timeout.min(deadline.saturating_duration_since(now));
                    }
                    let events = match conn.state() {
                        ConnState::Idle | ConnState::Reading | ConnState::Draining => POLLIN,
                        ConnState::Writing => POLLOUT,
                        // A worker owns the request; nothing to poll
                        // until its completion comes back.
                        ConnState::Dispatched => continue,
                    };
                    fds.push(PollFd::new(conn.fd(), events));
                    owners.push(Owner::Slot(slot));
                }
                poll(&mut fds, Some(timeout))?;
                // Time the work burst (not the poll wait): how long one
                // iteration spends off the kernel before polling again.
                let work_started = Instant::now();

                let mut accept_ready = false;
                let mut ready = Vec::new();
                let mut ready_fds = 0u64;
                for (fd, owner) in fds.iter().zip(&owners) {
                    if fd.revents == 0 {
                        continue;
                    }
                    ready_fds += 1;
                    match owner {
                        Owner::Waker => self.waker.drain(),
                        Owner::Listener => accept_ready = true,
                        Owner::Slot(slot) => ready.push(*slot),
                    }
                }
                // Completions first: they free Dispatched connections
                // before new work is pumped in.
                self.collect_completions();
                if accept_ready {
                    self.accept_ready();
                }
                for slot in ready {
                    self.pump(slot);
                }
                self.state
                    .telemetry
                    .observe_iteration(duration_ns(work_started.elapsed()));
                self.state
                    .telemetry
                    .set_loop_gauges(ready_fds, self.pool.depth() as u64);
            }
            Ok(())
        }

        /// Closes `slot` and recycles it.
        fn close(&mut self, slot: usize) {
            if self.conns[slot].take().is_some() {
                self.open_count -= 1;
                self.free.push(slot);
            }
        }

        /// Evicts connections whose state deadline has passed, counting
        /// each by state.
        fn sweep_deadlines(&mut self) {
            let now = Instant::now();
            for slot in 0..self.conns.len() {
                let Some(conn) = self.conns[slot].as_ref() else {
                    continue;
                };
                let Some(deadline) = conn.deadline() else {
                    continue;
                };
                if deadline > now {
                    continue;
                }
                match conn.state() {
                    ConnState::Idle => self.state.idle_closed.inc(),
                    ConnState::Reading | ConnState::Draining => self.state.evicted_slow_read.inc(),
                    ConnState::Writing => self.state.evicted_slow_write.inc(),
                    ConnState::Dispatched => continue,
                }
                self.close(slot);
            }
        }

        /// Recounts the connection-state gauges.
        fn refresh_gauges(&self) {
            let (mut reading, mut dispatched, mut writing, mut draining, mut idle) =
                (0u64, 0u64, 0u64, 0u64, 0u64);
            for conn in self.conns.iter().flatten() {
                match conn.state() {
                    ConnState::Idle => idle += 1,
                    ConnState::Reading => reading += 1,
                    ConnState::Dispatched => dispatched += 1,
                    ConnState::Writing => writing += 1,
                    ConnState::Draining => draining += 1,
                }
            }
            let s = &self.state;
            s.conns_open.set(self.open_count as u64);
            s.conns_reading.set(reading);
            s.conns_dispatched.set(dispatched);
            s.conns_writing.set(writing);
            s.conns_draining.set(draining);
            s.conns_idle.set(idle);
        }

        /// Drains the completion channel, attaching each finished
        /// response to its (still-matching) connection and flushing
        /// optimistically.
        fn collect_completions(&mut self) {
            while let Ok(done) = self.done_rx.try_recv() {
                let matches = self
                    .conns
                    .get(done.slot)
                    .and_then(|c| c.as_ref())
                    .is_some_and(|c| c.id() == done.id && c.state() == ConnState::Dispatched);
                if !matches {
                    continue; // the connection died while the worker ran
                }
                let io_timeout = self.config.io_timeout;
                let conn = self.conns[done.slot].as_mut().expect("matched above");
                conn.queue_response(done.bytes, done.close);
                conn.set_state(ConnState::Writing);
                conn.set_deadline(Some(Instant::now() + io_timeout));
                conn.set_trace(PendingTrace::begin_write(done.trace));
                self.pump(done.slot);
            }
        }

        /// Accepts everything the listener has, up to the connection
        /// cap; excess waits in the kernel backlog.
        fn accept_ready(&mut self) {
            while self.open_count < self.config.max_connections {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let Ok(mut conn) = Conn::new(stream, self.next_id, self.config.max_body)
                        else {
                            continue; // fcntl failed; drop the socket
                        };
                        self.next_id += 1;
                        // A fresh connection's first clock is the idle
                        // timeout; the whole-request io_timeout arms
                        // once its first byte arrives.
                        conn.set_deadline(Some(Instant::now() + self.config.idle_timeout));
                        self.state.connections.inc();
                        let slot = match self.free.pop() {
                            Some(slot) => {
                                self.conns[slot] = Some(conn);
                                slot
                            }
                            None => {
                                self.conns.push(Some(conn));
                                self.conns.len() - 1
                            }
                        };
                        self.open_count += 1;
                        // Its request bytes may already be in flight.
                        self.pump(slot);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => {
                        // Transient accept failures — a peer that RSTs
                        // before we accept (ECONNABORTED), fd exhaustion
                        // under a spike (EMFILE) — must not kill the
                        // daemon: log and sit the listener out briefly.
                        eprintln!("oneqd: accept failed (backing off): {e}");
                        self.accept_backoff_until = Some(Instant::now() + ACCEPT_BACKOFF);
                        return;
                    }
                }
            }
        }

        /// Advances one connection as far as it can go without blocking:
        /// read → parse → (dispatch | inline response) → write → next
        /// pipelined request, stopping at the first `WouldBlock` (or
        /// when a worker takes over).
        fn pump(&mut self, slot: usize) {
            loop {
                let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                    return;
                };
                match conn.state() {
                    ConnState::Idle | ConnState::Reading => match conn.fill() {
                        Ok(FillOutcome::Request(request)) => {
                            if !self.on_request(slot, request) {
                                return; // dispatched: a worker owns it now
                            }
                        }
                        Ok(FillOutcome::NeedMore) => {
                            if conn.state() == ConnState::Idle && conn.mid_request() {
                                // First byte of a request: start the
                                // whole-request clock. A trickler gets
                                // exactly this budget, total.
                                conn.set_state(ConnState::Reading);
                                conn.set_deadline(Some(Instant::now() + self.config.io_timeout));
                            }
                            return;
                        }
                        Ok(FillOutcome::Closed) => {
                            self.close(slot);
                            return;
                        }
                        Err(RequestError::Io(_)) => {
                            self.close(slot);
                            return;
                        }
                        Err(RequestError::Malformed(msg)) => {
                            // Parse failures still count as requests, so
                            // `requests` is reconcilable with
                            // `http_errors` + the per-route counters.
                            // The stream position is unknown → the
                            // session must end after the 400.
                            self.state.requests.inc();
                            self.state.http_errors.inc();
                            let io_timeout = self.config.io_timeout;
                            let conn = self.conns[slot].as_mut().expect("conn is live");
                            conn.queue_response(
                                render_error(400, &msg, &[], Connection::Close),
                                true,
                            );
                            conn.set_state(ConnState::Writing);
                            conn.set_deadline(Some(Instant::now() + io_timeout));
                        }
                        Err(RequestError::BodyTooLarge(n)) => {
                            self.state.requests.inc();
                            self.state.http_errors.inc();
                            // The oversized body was never buffered (the
                            // limit is checked against Content-Length).
                            // Drain a bounded amount before writing so
                            // the 413 survives the close — closing with
                            // unread bytes queued in the receive buffer
                            // triggers a TCP reset that would discard
                            // the response.
                            let io_timeout = self.config.io_timeout;
                            let conn = self.conns[slot].as_mut().expect("conn is live");
                            conn.queue_response(
                                render_error(
                                    413,
                                    &format!("body of {n} bytes exceeds limit"),
                                    &[],
                                    Connection::Close,
                                ),
                                true,
                            );
                            conn.begin_drain(n.min(DRAIN_CAP));
                            conn.set_deadline(Some(Instant::now() + io_timeout));
                        }
                    },
                    ConnState::Writing => match conn.flush() {
                        Ok(true) => {
                            // Last response byte flushed: close the trace
                            // (the write span measures queue → flush).
                            let conn_id = conn.id();
                            if let Some(trace) = conn.take_trace() {
                                self.state.telemetry.finish_request(trace, conn_id);
                            }
                            let conn = self.conns[slot].as_mut().expect("conn is live");
                            if conn.close_after_write() || self.draining {
                                self.close(slot);
                                return;
                            }
                            conn.set_state(ConnState::Idle);
                            conn.set_deadline(Some(Instant::now() + self.config.idle_timeout));
                            // Loop on: pipelined bytes may already hold
                            // the next request.
                        }
                        Ok(false) => return, // wait for POLLOUT
                        Err(_) => {
                            self.close(slot);
                            return;
                        }
                    },
                    ConnState::Draining => match conn.drain_step() {
                        Ok(true) => {
                            // Remainder discarded (or peer gone): now
                            // the buffered error response can go out.
                            conn.set_state(ConnState::Writing);
                            conn.set_deadline(Some(Instant::now() + self.config.io_timeout));
                        }
                        Ok(false) => return,
                        Err(_) => {
                            self.close(slot);
                            return;
                        }
                    },
                    ConnState::Dispatched => return,
                }
            }
        }

        /// Handles one complete request: answers trivial routes on the
        /// loop, dispatches compile work to the pool. Returns `false`
        /// when the connection is now owned by a worker (stop pumping).
        fn on_request(&mut self, slot: usize, request: Request) -> bool {
            self.state.requests.inc();
            let conn = self.conns[slot].as_mut().expect("conn is live");
            conn.mark_served();
            // The read span covers first request byte → parse complete.
            let read_ns = conn
                .take_read_start()
                .map_or(0, |t| duration_ns(t.elapsed()));
            self.state.telemetry.observe_read(read_ns);
            let req_id = self
                .state
                .telemetry
                .request_id(request.header("x-oneqd-request-id"));
            let keep = request.wants_keep_alive()
                && conn.served() < self.config.keep_alive_requests.max(1)
                && !self.draining;
            let disposition = if keep {
                Connection::KeepAlive
            } else {
                Connection::Close
            };
            if request.method == "POST"
                && (request.path == "/v1/compile" || request.path == "/v1/compile-batch")
            {
                conn.set_state(ConnState::Dispatched);
                conn.set_deadline(None);
                let id = conn.id();
                let state = Arc::clone(&self.state);
                let config = Arc::clone(&self.config);
                let done = self.done_tx.clone();
                let waker = Arc::clone(&self.waker);
                let enqueued = Instant::now();
                let queued = self.pool.execute(move || {
                    let queue_ns = duration_ns(enqueued.elapsed());
                    state.telemetry.observe_queue_wait(queue_ns);
                    let handler_started = Instant::now();
                    let (bytes, handler) = if request.path == "/v1/compile" {
                        handle_compile(&state, &request, disposition, &req_id)
                    } else {
                        handle_batch(&state, &config, &request, disposition, &req_id)
                    };
                    let handler_ns = duration_ns(handler_started.elapsed());
                    let base = read_ns.saturating_add(queue_ns);
                    let mut spans = vec![
                        Span::new("read", 0, read_ns),
                        Span::new("queue", read_ns, queue_ns),
                        Span::new("handle", base, handler_ns),
                    ];
                    spans.extend(handler.spans.into_iter().map(|s| s.shifted(base)));
                    let route_class = if request.path == "/v1/compile" {
                        ROUTE_COMPILE
                    } else {
                        ROUTE_BATCH
                    };
                    let trace = TraceSeed {
                        id: req_id,
                        route: request.path.clone(),
                        route_class,
                        status: handler.status,
                        outcome: handler.outcome,
                        spans,
                        total_ns: base.saturating_add(handler_ns),
                    };
                    // The loop may have dropped the receiver during
                    // shutdown; a dead letter is fine.
                    let _ = done.send(Completion {
                        slot,
                        id,
                        bytes,
                        close: !keep,
                        trace,
                    });
                    waker.wake();
                });
                debug_assert!(queued, "the pool shuts down only after the loop exits");
                return false;
            }
            let handler_started = Instant::now();
            let (bytes, status) = route_inline(&self.state, &request, disposition, &req_id);
            let handler_ns = duration_ns(handler_started.elapsed());
            let trace = TraceSeed {
                id: req_id,
                route: request.path.clone(),
                route_class: ROUTE_INLINE,
                status,
                outcome: "inline".to_string(),
                spans: vec![
                    Span::new("read", 0, read_ns),
                    Span::new("handle", read_ns, handler_ns),
                ],
                total_ns: read_ns.saturating_add(handler_ns),
            };
            let io_timeout = self.config.io_timeout;
            let conn = self.conns[slot].as_mut().expect("conn is live");
            conn.queue_response(bytes, !keep);
            conn.set_state(ConnState::Writing);
            conn.set_deadline(Some(Instant::now() + io_timeout));
            conn.set_trace(PendingTrace::begin_write(trace));
            true
        }
    }

    /// Routes the requests the loop answers itself — everything except
    /// the two POST compile routes, which go to the pool. Returns the
    /// rendered bytes and the status code (for the request trace).
    fn route_inline(
        state: &ServiceState,
        request: &Request,
        conn: Connection,
        req_id: &str,
    ) -> (Vec<u8>, u16) {
        let rid = || ("X-Oneqd-Request-Id", req_id.to_string());
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/v1/healthz") => {
                state.healthz_requests.inc();
                let bytes = render(
                    200,
                    &[rid()],
                    "{\"status\": \"ok\", \"service\": \"oneqd\", \"api\": \"v1\"}\n",
                    conn,
                );
                (bytes, 200)
            }
            ("GET", "/v1/stats") => {
                state.stats_requests.inc();
                (render(200, &[rid()], &state.stats_json(), conn), 200)
            }
            ("GET", "/v1/metrics") => {
                state.metrics_requests.inc();
                let body = state.metrics_snapshot().render_prometheus();
                let bytes = render_with(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    &[rid()],
                    &body,
                    conn,
                );
                (bytes, 200)
            }
            ("GET", "/v1/traces") => {
                state.traces_requests.inc();
                match traces_body(state, request) {
                    Ok(body) => (render(200, &[rid()], &body, conn), 200),
                    Err(msg) => {
                        state.http_errors.inc();
                        (render_error(400, &msg, &[rid()], conn), 400)
                    }
                }
            }
            ("GET", path) if path.starts_with("/v1/traces/") => {
                state.traces_requests.inc();
                let id = &path["/v1/traces/".len()..];
                match state.telemetry.traces.get(id) {
                    Some(record) => {
                        let mut body = record.to_json();
                        body.push('\n');
                        (render(200, &[rid()], &body, conn), 200)
                    }
                    None => {
                        state.http_errors.inc();
                        let bytes = render_error(
                            404,
                            "no trace for that request id (the ring holds the most recent 256)",
                            &[rid()],
                            conn,
                        );
                        (bytes, 404)
                    }
                }
            }
            (_, "/v1/healthz" | "/v1/stats" | "/v1/metrics" | "/v1/traces") => {
                state.http_errors.inc();
                let bytes = render_error(
                    405,
                    "method not allowed",
                    &[("Allow", "GET".to_string()), rid()],
                    conn,
                );
                (bytes, 405)
            }
            (_, path) if path.starts_with("/v1/traces/") => {
                state.http_errors.inc();
                let bytes = render_error(
                    405,
                    "method not allowed",
                    &[("Allow", "GET".to_string()), rid()],
                    conn,
                );
                (bytes, 405)
            }
            (_, "/v1/compile" | "/v1/compile-batch") => {
                state.http_errors.inc();
                let bytes = render_error(
                    405,
                    "method not allowed",
                    &[("Allow", "POST".to_string()), rid()],
                    conn,
                );
                (bytes, 405)
            }
            _ => {
                state.http_errors.inc();
                (render_error(404, "no such endpoint", &[rid()], conn), 404)
            }
        }
    }
}

/// `X-Oneqd-Cache` label: served from the in-memory tier.
pub const OUTCOME_MEMORY: &str = "memory";
/// `X-Oneqd-Cache` label: served from the disk spill tier (and promoted
/// into memory).
pub const OUTCOME_DISK: &str = "disk";
/// `X-Oneqd-Cache` label: compiled fresh (and cached on success).
pub const OUTCOME_MISS: &str = "miss";
/// `X-Oneqd-Cache` label: served from a concurrent leader's in-flight
/// compile.
pub const OUTCOME_COALESCED: &str = "coalesced";
/// `X-Oneqd-Cache` label: cache skipped (`timings=1` or `bypass=1`).
pub const OUTCOME_BYPASS: &str = "bypass";

/// What a [`compile_via_cache`] call observed, for the request trace:
/// how long the lookup-or-compile took end to end, and — when this call
/// actually ran the compiler — the per-stage timings.
struct CompileTrace {
    lookup_ns: u64,
    timings: Option<RecordTimings>,
}

/// Serves one [`CompileRequest`] through cache + single-flight. Returns
/// `(record bytes incl. trailing newline, ok, outcome label, trace)`.
/// This is the one path behind both `/v1/compile` and each
/// `/v1/compile-batch` line, so telemetry recorded here (per-tier
/// outcome counters and lookup histograms, per-stage compile
/// histograms) covers both routes. `slots` is the global batch-compile
/// budget (None on the single route, whose concurrency is already
/// bounded by the worker pool): a permit is held only around an
/// *actual* compile — cache hits and coalesced followers must not pin
/// the budget while doing no work.
fn compile_via_cache(
    state: &ServiceState,
    req: &CompileRequest,
    slots: Option<&Semaphore>,
    req_id: &str,
) -> (Arc<str>, bool, &'static str, CompileTrace) {
    let started = Instant::now();
    let (body, ok, outcome, timings) = compile_via_cache_inner(state, req, slots);
    let trace = CompileTrace {
        lookup_ns: duration_ns(started.elapsed()),
        timings,
    };
    state
        .telemetry
        .observe_cache_outcome(outcome, trace.lookup_ns, req_id, trace.timings.as_ref());
    (body, ok, outcome, trace)
}

fn compile_via_cache_inner(
    state: &ServiceState,
    req: &CompileRequest,
    slots: Option<&Semaphore>,
) -> (Arc<str>, bool, &'static str, Option<RecordTimings>) {
    let run = |state: &ServiceState| -> (Arc<str>, bool, Option<RecordTimings>) {
        let _slot = slots.map(Semaphore::acquire);
        state.compile_executions.inc();
        let (record, ok, timings) = req.record_timed();
        (Arc::from(format!("{record}\n").as_str()), ok, timings)
    };

    // Timed compiles are inherently non-deterministic and `bypass=1` is
    // an explicit opt-out: neither reads nor warms the cache.
    if !req.cacheable() {
        let (body, ok, timings) = run(state);
        return (body, ok, OUTCOME_BYPASS, timings);
    }

    let digest = sha256(req.fingerprint().as_bytes());
    if let Some((cached, tier)) = state.cache.get_digest(&digest) {
        return (cached, true, tier_label(tier), None);
    }
    match state.flights.join(digest) {
        FlightRole::Follower(Some((body, ok))) => (body, ok, OUTCOME_COALESCED, None),
        FlightRole::Follower(None) => {
            // The leader aborted without publishing — it hit a compile
            // error (error bytes are per-source, never shared) or it
            // panicked. Compile for ourselves rather than re-coalescing
            // into a failed key.
            let (body, ok, timings) = run(state);
            if ok {
                state.cache.fill(digest, Arc::clone(&body));
            }
            (body, ok, OUTCOME_MISS, timings)
        }
        FlightRole::Leader(leader) => {
            // Double-check: a previous leader may have filled the cache
            // between this thread's miss and its election. `peek` avoids
            // double-counting the request's one logical lookup in the
            // memory tier (a disk hit here still counts — it is one).
            if let Some((cached, tier)) = state.cache.peek_digest(&digest) {
                leader.publish(Arc::clone(&cached), true);
                return (cached, true, tier_label(tier), None);
            }
            let (body, ok, timings) = run(state);
            if ok {
                // Error records are cheap to recompute and their spans
                // depend on pre-canonicalization bytes, so only successes
                // are cached — and only successes are published: two
                // sources can share a digest yet differ in raw bytes
                // (CRLF, trailing whitespace), so handing a follower the
                // leader's *error* bytes could break the byte-identity
                // contract for the follower's own source. Dropping the
                // guard aborts the flight and each follower recompiles
                // its own error record. The fill MUST precede `publish`
                // — see the exactly-once note on `SingleFlight`.
                state.cache.fill(digest, Arc::clone(&body));
                leader.publish(Arc::clone(&body), ok);
            } else {
                drop(leader);
            }
            (body, ok, OUTCOME_MISS, timings)
        }
    }
}

/// Renders the `GET /v1/traces` body (`oneqd-traces/v1`): ring totals
/// plus the matching records, newest first. Filters come from the query
/// string — `route=` (exact request-path match), `status=`, `min_ms=`
/// (end-to-end floor), `limit=` (default 50) — and an unparseable or
/// unknown parameter is a 400, not a silent full dump.
fn traces_body(state: &ServiceState, request: &Request) -> Result<String, String> {
    let mut route: Option<&str> = None;
    let mut status: Option<u16> = None;
    let mut min_total_ns: Option<u64> = None;
    let mut limit = 50usize;
    for (key, value) in &request.query {
        match key.as_str() {
            "route" => route = Some(value.as_str()),
            "status" => {
                status = Some(
                    value
                        .parse()
                        .map_err(|_| format!("status must be a number, got {value:?}"))?,
                );
            }
            "min_ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| format!("min_ms must be a whole number, got {value:?}"))?;
                min_total_ns = Some(ms.saturating_mul(1_000_000));
            }
            "limit" => {
                limit = value
                    .parse()
                    .map_err(|_| format!("limit must be a number, got {value:?}"))?;
            }
            other => {
                return Err(format!(
                    "unknown query parameter {other:?} (expected route, status, min_ms, limit)"
                ))
            }
        }
    }
    let records = state
        .telemetry
        .traces
        .query(route, status, min_total_ns, limit);
    let mut body = format!(
        "{{\"schema\": \"oneqd-traces/v1\", \"total\": {}, \"buffered\": {}, \"returned\": {}, \
         \"traces\": [",
        state.telemetry.traces.pushed(),
        state.telemetry.traces.len(),
        records.len()
    );
    for (i, record) in records.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        body.push_str(&record.to_json());
    }
    body.push_str("]}\n");
    Ok(body)
}

/// The `X-Oneqd-Cache` token for a cache hit's tier.
fn tier_label(tier: Tier) -> &'static str {
    match tier {
        Tier::Memory => OUTCOME_MEMORY,
        Tier::Disk => OUTCOME_DISK,
    }
}

/// What a pool-worker handler reports back for the request trace:
/// response status, cache-outcome label, and its timed phases (span
/// offsets relative to handler start; the event loop re-bases them onto
/// the whole-request timeline).
struct HandlerTrace {
    status: u16,
    outcome: String,
    spans: Vec<Span>,
}

impl HandlerTrace {
    fn error(status: u16) -> HandlerTrace {
        HandlerTrace {
            status,
            outcome: "error".to_string(),
            spans: Vec::new(),
        }
    }
}

/// The `cache` span plus, when this request actually compiled, one
/// `compile.<stage>` span per pipeline stage laid end to end after the
/// lookup started (stage clocks are the compiler's own, so they sum to
/// slightly less than the enclosing `cache` span), plus one
/// `compile.mapping.partition` child span per partition carrying the
/// compiler-internals profile (BFS effort, seed-scan radius, grid
/// occupancy, scratch reuse) as span attributes. Partition spans are
/// laid end to end from the `mapping` span's start, so their extents
/// nest inside it on a timeline view.
fn compile_spans(cache_off: u64, trace: &CompileTrace) -> Vec<Span> {
    let clamp = |ns: u128| u64::try_from(ns).unwrap_or(u64::MAX);
    let mut spans = vec![Span::new("cache", cache_off, trace.lookup_ns)];
    if let Some(timings) = &trace.timings {
        let mut offset = cache_off;
        let mut mapping_off = cache_off;
        {
            let mut push = |name: &'static str, ns: u128, mark: Option<&mut u64>| {
                let dur = clamp(ns);
                if let Some(mark) = mark {
                    *mark = offset;
                }
                spans.push(Span::new(name, offset, dur));
                offset = offset.saturating_add(dur);
            };
            push("compile.parse", timings.parse_ns, None);
            for (stage, ns) in timings.stages.stages() {
                match stage {
                    "translate" => push("compile.translate", ns, None),
                    "partition" => push("compile.partition", ns, None),
                    "fusion_graph" => push("compile.fusion_graph", ns, None),
                    "mapping" => push("compile.mapping", ns, Some(&mut mapping_off)),
                    _ => push("compile.shuffle", ns, None),
                }
            }
        }
        let mut part_off = mapping_off;
        for (i, part) in timings.profile.partitions.iter().enumerate() {
            let dur = clamp(part.mapping_ns);
            spans.push(
                Span::new("compile.mapping.partition", part_off, dur).with_attrs(vec![
                    ("partition", i as u64),
                    ("nodes", part.nodes as u64),
                    ("fusion_graph_ns", clamp(part.fusion_graph_ns)),
                    ("bfs_searches", part.map.bfs_searches),
                    ("bfs_expansions", part.map.bfs_expansions),
                    ("seed_scans", part.map.seed_scans),
                    ("seed_scan_radius_max", part.map.seed_scan_radius_max),
                    ("occupancy_peak", part.map.occupancy_peak),
                    ("scratch_grows", part.map.scratch_grows),
                    ("scratch_reuses", part.map.scratch_reuses),
                    ("routing_cells", part.map.routing_cells),
                ]),
            );
            part_off = part_off.saturating_add(dur);
        }
    }
    spans
}

/// Serves `POST /v1/compile`, returning the fully rendered response
/// bytes and the handler's trace. Runs on a pool worker; it touches
/// only the shared state, so the event loop never waits on a compile.
fn handle_compile(
    state: &ServiceState,
    request: &Request,
    conn: Connection,
    req_id: &str,
) -> (Vec<u8>, HandlerTrace) {
    state.compile_requests.inc();
    let started = Instant::now();
    let rid = || ("X-Oneqd-Request-Id", req_id.to_string());
    let source = match std::str::from_utf8(&request.body) {
        Ok(s) => s,
        Err(_) => {
            state.http_errors.inc();
            let bytes = render_error(400, "request body is not UTF-8", &[rid()], conn);
            return (bytes, HandlerTrace::error(400));
        }
    };
    let req = match CompileRequest::from_query(&request.query, source) {
        Ok(req) => req,
        Err(msg) => {
            state.http_errors.inc();
            let bytes = render_error(400, &msg, &[rid()], conn);
            return (bytes, HandlerTrace::error(400));
        }
    };

    let cache_off = duration_ns(started.elapsed());
    let (body, ok, outcome, trace) = compile_via_cache(state, &req, None, req_id);
    if ok {
        state.compile_ok.inc();
    } else {
        state.compile_errors.inc();
    }
    let status = if ok { 200 } else { 422 };
    let headers = vec![("X-Oneqd-Cache", outcome.to_string()), rid()];
    let bytes = render(status, &headers, &body, conn);
    let handler = HandlerTrace {
        status,
        outcome: outcome.to_string(),
        spans: compile_spans(cache_off, &trace),
    };
    (bytes, handler)
}

/// Serves `POST /v1/compile-batch`, returning the rendered response
/// bytes and the handler's trace (outcome is the per-tier tally that
/// also goes in the `X-Oneqd-Cache` header). Runs on a pool worker; the
/// per-line fan-out uses scoped threads under the global batch budget,
/// exactly as before.
fn handle_batch(
    state: &ServiceState,
    config: &ServerConfig,
    request: &Request,
    conn: Connection,
    req_id: &str,
) -> (Vec<u8>, HandlerTrace) {
    state.batch_requests.inc();
    let rid = || ("X-Oneqd-Request-Id", req_id.to_string());
    let text = match std::str::from_utf8(&request.body) {
        Ok(s) => s,
        Err(_) => {
            state.http_errors.inc();
            let bytes = render_error(400, "request body is not UTF-8", &[rid()], conn);
            return (bytes, HandlerTrace::error(400));
        }
    };
    // Parse every line up front: a malformed line is a framing error for
    // the whole request (nothing compiles), mirroring how a malformed
    // single request compiles nothing.
    let mut requests = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match CompileRequest::from_jsonl_line(line) {
            Ok(req) => requests.push(req),
            Err(msg) => {
                state.http_errors.inc();
                let bytes =
                    render_error(400, &format!("batch line {}: {msg}", i + 1), &[rid()], conn);
                return (bytes, HandlerTrace::error(400));
            }
        }
    }
    if requests.is_empty() {
        state.http_errors.inc();
        let bytes = render_error(400, "batch body holds no request lines", &[rid()], conn);
        return (bytes, HandlerTrace::error(400));
    }

    // Fan the lines out over scoped worker threads (`run_indexed` — the
    // same pool shape `oneqc` batches with); results land in their input
    // slots, so the response preserves request order no matter which
    // line finishes first. Actual compiles draw on the *global* batch
    // budget (`state.batch_slots`, sized `workers`), so concurrent
    // batches share the compile slots instead of multiplying them.
    let jobs = config.workers.max(1);
    let results = run_indexed(jobs, &requests, |_, req| {
        compile_via_cache(state, req, Some(&state.batch_slots), req_id)
    });

    state.batch_records.add(results.len() as u64);
    let mut body = String::new();
    let mut errors = 0usize;
    let mut outcomes = [0usize; 5]; // memory, disk, miss, coalesced, bypass
    for (record, ok, outcome, _trace) in &results {
        body.push_str(record);
        if *ok {
            state.compile_ok.inc();
        } else {
            state.compile_errors.inc();
            errors += 1;
        }
        let slot = match *outcome {
            OUTCOME_MEMORY => 0,
            OUTCOME_DISK => 1,
            OUTCOME_MISS => 2,
            OUTCOME_COALESCED => 3,
            _ => 4,
        };
        outcomes[slot] += 1;
    }
    let tally = format!(
        "memory={} disk={} miss={} coalesced={} bypass={}",
        outcomes[0], outcomes[1], outcomes[2], outcomes[3], outcomes[4]
    );
    // Per-line status lives in the records (exactly like an `oneqc` run
    // with failing files); the HTTP status says the batch was processed.
    let headers: Vec<(&str, String)> = vec![
        ("X-Oneqd-Cache", tally.clone()),
        ("X-Oneqd-Batch-Records", results.len().to_string()),
        ("X-Oneqd-Batch-Errors", errors.to_string()),
        rid(),
    ];
    let bytes = render(200, &headers, &body, conn);
    let handler = HandlerTrace {
        status: 200,
        outcome: tally,
        spans: Vec::new(),
    };
    (bytes, handler)
}

/// Upper bound on bytes discarded for an oversized request; a client
/// claiming more than this is not worth waiting for.
const DRAIN_CAP: usize = 16 * 1024 * 1024;

/// Renders a complete JSON response to bytes (the same `write_response`
/// framing the thread-per-connection core used, so responses stay
/// byte-identical). Writing into a `Vec` cannot fail.
fn render(status: u16, extra: &[(&str, String)], body: &str, conn: Connection) -> Vec<u8> {
    render_with(status, "application/json", extra, body, conn)
}

/// [`render`] with an explicit content type — `/v1/metrics` serves the
/// Prometheus text exposition format, everything else JSON.
fn render_with(
    status: u16,
    content_type: &str,
    extra: &[(&str, String)],
    body: &str,
    conn: Connection,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 256);
    write_response(&mut out, status, content_type, extra, body.as_bytes(), conn)
        .expect("rendering to a Vec cannot fail");
    out
}

/// Renders the standard JSON error envelope.
fn render_error(status: u16, message: &str, extra: &[(&str, String)], conn: Connection) -> Vec<u8> {
    let body = format!(
        "{{\"status\": \"error\", \"error\": \"{}\"}}\n",
        json::escape(message)
    );
    render(status, extra, &body, conn)
}
