//! `oneq-top`: a live terminal cockpit over a running `oneqd`.
//!
//! Polls `/v1/metrics` and `/v1/stats` on one keep-alive connection,
//! diffs consecutive scrapes, and renders the daemon's health as text
//! tables: per-route request rates with windowed p50/p99, per-stage
//! compile latencies, per-tier cache traffic, connection states, and
//! the current slowest requests with their request ids — the ids paste
//! straight into `GET /v1/traces/{id}` for the full span tree.
//!
//! Percentiles are nearest-rank over the server's log-linear histogram
//! buckets (≤ 12.5% relative error). In live mode they cover the last
//! poll window; the first frame — and every `--once` run — shows
//! lifetime values instead, labelled accordingly.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin oneq-top [-- OPTIONS]
//!
//!   --addr HOST:PORT   the daemon to watch (default 127.0.0.1:7878)
//!   --interval-ms N    poll cadence in live mode (default 1000)
//!   --once             print a single plain-text snapshot and exit
//! ```
//!
//! Exit code: 0 on success (`--once`) or interrupt, 2 on usage errors,
//! 1 when the daemon cannot be reached.

use oneq_bench::format_table;
use oneq_bench::scrape::{
    bucket_percentile, diff_cumulative, parse_bucket_series, stats_str, stats_u64,
};
use oneq_service::http::ClientConn;
use oneq_service::telemetry::{stage_labels, ROUTES, TIERS};
use std::collections::BTreeMap;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(10);

struct Options {
    addr: String,
    interval: Duration,
    once: bool,
}

fn usage() -> ! {
    eprintln!("usage: oneq-top [--addr HOST:PORT] [--interval-ms N] [--once]");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut options = Options {
        addr: "127.0.0.1:7878".to_string(),
        interval: Duration::from_millis(1000),
        once: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => options.addr = args.next().unwrap_or_else(|| usage()),
            "--interval-ms" => {
                let ms: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                options.interval = Duration::from_millis(ms.max(100));
            }
            "--once" => options.once = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    options
}

/// One paired capture of both observability surfaces.
struct Scrape {
    metrics: String,
    stats: String,
    at: Instant,
}

/// The cockpit's connection: one keep-alive session, re-dialed
/// transparently when the server closes it (request-cap or idle).
struct Poller {
    addr: SocketAddr,
    conn: Option<ClientConn>,
}

impl Poller {
    fn new(addr: SocketAddr) -> Poller {
        Poller { addr, conn: None }
    }

    fn get(&mut self, path: &str) -> Option<String> {
        for _ in 0..2 {
            if self.conn.is_none() {
                self.conn = ClientConn::connect(self.addr, TIMEOUT).ok();
            }
            let conn = self.conn.as_mut()?;
            match conn.send("GET", path, b"") {
                Ok(resp) if resp.status == 200 => {
                    let body = String::from_utf8_lossy(&resp.body).into_owned();
                    if !resp.keep_alive() {
                        self.conn = None;
                    }
                    return Some(body);
                }
                _ => self.conn = None, // re-dial once, then give up
            }
        }
        None
    }

    fn scrape(&mut self) -> Option<Scrape> {
        let metrics = self.get("/v1/metrics")?;
        let stats = self.get("/v1/stats")?;
        Some(Scrape {
            metrics,
            stats,
            at: Instant::now(),
        })
    }
}

/// Nanoseconds as a fixed-point milliseconds cell.
fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// The daemon's version, read off the `oneqd_build_info{version="..."}`
/// gauge in the metrics exposition.
fn build_version(metrics: &str) -> &str {
    let pat = "oneqd_build_info{version=\"";
    metrics
        .find(pat)
        .and_then(|at| {
            let rest = &metrics[at + pat.len()..];
            rest.find('"').map(|end| &rest[..end])
        })
        .unwrap_or("?")
}

/// One histogram-family table: label, count (and per-second rate in
/// windowed mode), p50, p99. `before` selects the window — `Some` diffs
/// against the previous scrape, `None` reports lifetime values.
fn hist_rows(
    family: &str,
    label_key: &str,
    order: impl IntoIterator<Item = &'static str>,
    before: Option<&Scrape>,
    now: &Scrape,
) -> Vec<Vec<String>> {
    let after = parse_bucket_series(&now.metrics, family, label_key);
    let prior: BTreeMap<String, Vec<(u64, u64)>> = match before {
        Some(b) => parse_bucket_series(&b.metrics, family, label_key),
        None => BTreeMap::new(),
    };
    let window_secs = before.map(|b| now.at.duration_since(b.at).as_secs_f64());
    let mut rows = Vec::new();
    for key in order {
        let Some(after_buckets) = after.get(key) else {
            continue;
        };
        let diffed = diff_cumulative(prior.get(key).map(Vec::as_slice), after_buckets);
        let total = diffed.last().map_or(0, |&(_, cum)| cum);
        let rate = match window_secs {
            Some(secs) if secs > 0.0 => format!("{:.1}", total as f64 / secs),
            _ => "-".to_string(),
        };
        rows.push(vec![
            key.to_string(),
            total.to_string(),
            rate,
            fmt_ms(bucket_percentile(&diffed, total, 50.0)),
            fmt_ms(bucket_percentile(&diffed, total, 99.0)),
        ]);
    }
    rows
}

/// The stats `slowest` array as table rows: id, route, status, outcome,
/// total ms. String-scanned (the ids and labels are identifier-shaped).
fn slowest_rows(stats: &str) -> Vec<Vec<String>> {
    let Some(at) = stats.find("\"slowest\": [") else {
        return Vec::new();
    };
    let block = &stats[at..];
    let end = block.find(']').unwrap_or(block.len());
    let mut rows = Vec::new();
    for entry in block[..end].split("{\"request_id\"").skip(1) {
        let entry = format!("{{\"request_id\"{entry}");
        rows.push(vec![
            stats_str(&entry, "request_id").unwrap_or("?").to_string(),
            stats_str(&entry, "route").unwrap_or("?").to_string(),
            stats_u64(&entry, "status").to_string(),
            stats_str(&entry, "outcome").unwrap_or("?").to_string(),
            fmt_ms(stats_u64(&entry, "total_ns")),
        ]);
    }
    rows
}

/// Renders one full frame. `before` is the previous scrape in live mode
/// (windowed percentiles), `None` for lifetime values.
fn render(addr: SocketAddr, before: Option<&Scrape>, now: &Scrape) -> String {
    let mut out = String::new();
    let version = build_version(&now.metrics);
    let uptime_ms = stats_u64(&now.stats, "uptime_ms");
    let requests = stats_u64(&now.stats, "requests");
    let window = match before {
        Some(b) => format!(
            "window {:.1}s",
            now.at.duration_since(b.at).as_secs_f64().max(0.001)
        ),
        None => "lifetime".to_string(),
    };
    out.push_str(&format!(
        "oneq-top — {addr} — oneqd {version} — up {:.0}s — {requests} requests — {window}\n",
        uptime_ms as f64 / 1000.0
    ));
    out.push_str(&format!(
        "workers {}  queue depth {}  executions {}  coalesced {}  traces {}\n\n",
        stats_u64(&now.stats, "workers"),
        stats_u64(&now.stats, "queue_depth"),
        stats_u64(&now.stats, "compile_executions"),
        stats_u64(&now.stats, "coalesced"),
        stats_u64(&now.stats, "traces_recorded"),
    ));

    let headers = ["", "count", "req/s", "p50 ms", "p99 ms"];
    let routes = hist_rows("oneqd_request_seconds", "route", ROUTES, before, now);
    if !routes.is_empty() {
        out.push_str("ROUTES (end-to-end)\n");
        out.push_str(&format_table(&headers, &routes));
        out.push('\n');
    }
    let stages = hist_rows(
        "oneqd_compile_stage_seconds",
        "stage",
        stage_labels(),
        before,
        now,
    );
    if !stages.is_empty() {
        out.push_str("COMPILE STAGES (executed compiles)\n");
        out.push_str(&format_table(&headers, &stages));
        out.push('\n');
    }
    let tiers = hist_rows("oneqd_cache_lookup_seconds", "tier", TIERS, before, now);
    if !tiers.is_empty() {
        out.push_str("CACHE TIERS (lookup-to-result)\n");
        out.push_str(&format_table(&headers, &tiers));
        out.push('\n');
    }

    out.push_str(&format!(
        "CONNS  open {}  reading {}  dispatched {}  writing {}  draining {}  idle {}\n\n",
        stats_u64(&now.stats, "open"),
        stats_u64(&now.stats, "reading"),
        stats_u64(&now.stats, "dispatched"),
        stats_u64(&now.stats, "writing"),
        stats_u64(&now.stats, "draining"),
        stats_u64(&now.stats, "idle_keep_alive"),
    ));

    let slowest = slowest_rows(&now.stats);
    if slowest.is_empty() {
        out.push_str("SLOWEST  (no closed traces yet)\n");
    } else {
        out.push_str("SLOWEST (GET /v1/traces/{id} for the span tree)\n");
        out.push_str(&format_table(
            &["request id", "route", "status", "outcome", "total ms"],
            &slowest,
        ));
    }
    out
}

fn main() {
    let options = parse_args();
    let addr: SocketAddr = match options
        .addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
    {
        Some(addr) => addr,
        None => {
            eprintln!("oneq-top: cannot resolve {:?}", options.addr);
            std::process::exit(2);
        }
    };
    let mut poller = Poller::new(addr);
    let Some(mut last) = poller.scrape() else {
        eprintln!("oneq-top: no oneqd answering at {addr}");
        std::process::exit(1);
    };
    if options.once {
        print!("{}", render(addr, None, &last));
        return;
    }
    // First frame immediately (lifetime values), then windowed frames at
    // the poll cadence. ANSI clear-and-home keeps it flicker-light.
    print!("\x1b[2J\x1b[H{}", render(addr, None, &last));
    loop {
        std::thread::sleep(options.interval);
        match poller.scrape() {
            Some(now) => {
                print!("\x1b[2J\x1b[H{}", render(addr, Some(&last), &now));
                last = now;
            }
            None => {
                println!("\x1b[2J\x1b[Honeq-top: lost contact with {addr}, retrying...");
            }
        }
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }
}
