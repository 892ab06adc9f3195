//! Process-level tests for the `oneqd` binary: startup banner, traffic,
//! and graceful SIGTERM shutdown. These spawn the real daemon (rather
//! than the in-process server the `tests/service.rs` suite uses) because
//! signal delivery and exit codes only exist at process granularity.

#![cfg(unix)]

use oneq_service::compile::{self, CompileConfig};
use oneq_service::http;
use oneq_service::json;
use oneq_service::segment;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(30);

/// A running `oneqd` on an ephemeral port. Dropping the guard kills the
/// daemon and reaps it, so a test that fails an assertion cannot leave it
/// running after the test binary exits.
struct Daemon {
    child: Option<Child>,
    addr: SocketAddr,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns `oneqd` and parses the bound address from its startup
    /// banner.
    fn spawn(extra_args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_oneqd"))
            .args(["--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn oneqd");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        // In its guard before anything below can panic.
        let mut daemon = Daemon {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout,
        };
        let mut banner = String::new();
        daemon.stdout.read_line(&mut banner).expect("read banner");
        daemon.addr = banner
            .trim()
            .strip_prefix("oneqd: listening on http://")
            .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
            .parse()
            .expect("banner carries the bound address");
        daemon
    }

    /// Sends SIGTERM, takes the daemon out of its guard and waits for it
    /// to exit: its exit code and the rest of its stdout.
    fn terminate(mut self) -> (Option<i32>, String) {
        let pid = self.child.as_ref().expect("daemon in its guard").id();
        let status = Command::new("kill")
            .args(["-TERM", &pid.to_string()])
            .status()
            .expect("run kill");
        assert!(status.success(), "SIGTERM delivered");
        let mut child = self.child.take().expect("daemon in its guard");
        let code = child.wait().expect("wait for daemon").code();
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .expect("read daemon stdout");
        (code, rest)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A fresh directory for one test, removed on drop, pass or fail.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("oneqd-daemon-test-{tag}-{}", std::process::id()));
        // Stale segments from an earlier run would change which pass is
        // cold.
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The integer after the first `"key": ` in a JSON body.
fn json_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let at = body.find(&pat).unwrap_or_else(|| panic!("{key} in {body}")) + pat.len();
    body[at..]
        .split([',', '}'])
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{key} is not an integer in {body}"))
}

/// Polls `/v1/stats` until the disk tier reports `want` stored entries.
/// The spill tier is write-behind, so a 200 on `/v1/compile` does not
/// yet mean the record is durable; this barrier does.
fn wait_for_disk_entries(addr: SocketAddr, want: usize) {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let stats = http::request(addr, "GET", "/v1/stats", b"", TIMEOUT).expect("GET /v1/stats");
        let body = String::from_utf8_lossy(&stats.body).into_owned();
        let disk = body.find("\"disk\"").map(|at| &body[at..]);
        if disk.is_some_and(|d| d.contains(&format!("\"entries\": {want}"))) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "disk tier never reached {want} entries: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The highest-numbered `seg-*.log` in a spill directory — the segment
/// the daemon was appending to when it died.
fn newest_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read spill dir")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "log"))
        .collect();
    segments.sort();
    segments
        .pop()
        .expect("spill dir holds at least one segment")
}

/// A circuit whose compile is far slower than a 2-qubit one, for the
/// tests that need a slow request: an 80-qubit QFT, whose partition
/// planarity tests dominate. How slow depends on the profile and the
/// machine (release compiles it in about 50 ms on a 2-vCPU VM), so the
/// tests take their thresholds from [`slow_threshold_ms`].
fn slow_circuit() -> String {
    oneq_circuit::benchmarks::qft(80).to_qasm()
}

/// A latency threshold between a 2-qubit request and a `slow` one on
/// this machine and profile: a quarter of an in-process compile of `slow`
/// under the daemon's default configuration, never below 20 ms. The
/// tests of this file run in parallel on a small machine, so load can
/// slow the measured compile but not the daemon's: the faster of two
/// compiles counts, and the daemon may still compile four times faster
/// than that before its request falls under the threshold.
fn slow_threshold_ms(slow: &str) -> u128 {
    let compile_ms = || {
        let start = Instant::now();
        let (_, ok) = compile::compile_record("slow.qasm", slow, &CompileConfig::default());
        assert!(ok, "the slow circuit compiles");
        start.elapsed().as_millis()
    };
    (compile_ms().min(compile_ms()) / 4).max(20)
}

#[test]
fn daemon_serves_and_shuts_down_gracefully_on_sigterm() {
    let daemon = Daemon::spawn(&["--workers", "2", "--cache-capacity", "16"]);
    let addr = daemon.addr;

    let health = http::request(addr, "GET", "/v1/healthz", b"", TIMEOUT).expect("GET /v1/healthz");
    assert_eq!(health.status, 200);

    // One keep-alive session through the real daemon process: miss then
    // hit on a single socket.
    let source = b"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n";
    let mut conn = http::ClientConn::connect(addr, TIMEOUT).expect("open keep-alive connection");
    let first = conn
        .send("POST", "/v1/compile?file=bell.qasm", source)
        .expect("POST /v1/compile");
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-oneqd-cache"), Some("miss"));
    assert!(first.keep_alive(), "daemon keeps the session open");
    let second = conn
        .send("POST", "/v1/compile?file=bell.qasm", source)
        .expect("POST /v1/compile again on the same socket");
    assert_eq!(second.header("x-oneqd-cache"), Some("memory"));
    assert_eq!(first.body, second.body);
    drop(conn);

    let (code, rest) = daemon.terminate();
    assert_eq!(code, Some(0), "SIGTERM exits gracefully with 0");
    assert!(
        rest.lines().any(|l| l == "oneqd: shutdown complete"),
        "shutdown is announced: {rest:?}"
    );
}

#[test]
fn daemon_sigterm_without_traffic_still_exits_cleanly() {
    // A capacity of 4 clamps the 8 default stripes to 4, and the banner
    // reports the shape in force.
    let daemon = Daemon::spawn(&["--cache-capacity", "4"]);
    // Prove it is actually up before killing it.
    let health =
        http::request(daemon.addr, "GET", "/v1/healthz", b"", TIMEOUT).expect("GET /v1/healthz");
    assert_eq!(health.status, 200);
    let (code, rest) = daemon.terminate();
    assert_eq!(code, Some(0));
    assert!(
        rest.contains("cache capacity 4 over 4 shard(s)"),
        "banner after the address line: {rest}"
    );
}

#[test]
fn daemon_sigterm_exits_cleanly_with_an_open_keep_alive_connection() {
    // A held-open idle session must not wedge graceful shutdown: the
    // worker serving it is released by the idle timeout.
    let daemon = Daemon::spawn(&["--idle-timeout-ms", "200"]);
    let mut conn =
        http::ClientConn::connect(daemon.addr, TIMEOUT).expect("open keep-alive connection");
    let resp = conn
        .send("GET", "/v1/healthz", b"")
        .expect("health over session");
    assert_eq!(resp.status, 200);
    // Leave the connection open and idle while the daemon is terminated.
    assert_eq!(
        daemon.terminate().0,
        Some(0),
        "idle session does not block shutdown"
    );
}

#[test]
fn daemon_survives_sigkill_and_serves_the_disk_tier_after_a_torn_write() {
    let dir = TempDir::new("sigkill");
    let cache_dir = dir.0.join("spill");
    let dir_arg = cache_dir.display().to_string();
    let source: &[u8] =
        b"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n";

    let daemon = Daemon::spawn(&["--cache-dir", &dir_arg]);
    let first = http::request(
        daemon.addr,
        "POST",
        "/v1/compile?file=bell.qasm",
        source,
        TIMEOUT,
    )
    .expect("POST /v1/compile");
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-oneqd-cache"), Some("miss"));
    // The append is write-behind; make sure it landed before the crash.
    wait_for_disk_entries(daemon.addr, 1);
    // Dropping the guard sends SIGKILL: no signal handler, no Drop, no
    // flush — the hard case.
    drop(daemon);

    // Stand in for the record the daemon would have been mid-write
    // through when it died: append a torn record (header promising more
    // body than the file holds) to the active segment.
    let torn = segment::encode_record(&[0xAB; 32], b"never finished");
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(newest_segment(&cache_dir))
        .expect("open active segment");
    file.write_all(&torn[..torn.len() - 5])
        .expect("append torn tail");
    drop(file);

    // Restart on the same directory: the torn tail is dropped, the
    // intact record is served byte-identically from disk.
    let daemon = Daemon::spawn(&["--cache-dir", &dir_arg]);
    let addr = daemon.addr;
    let replay = http::request(addr, "POST", "/v1/compile?file=bell.qasm", source, TIMEOUT)
        .expect("POST /v1/compile after restart");
    assert_eq!(replay.status, 200);
    assert_eq!(replay.header("x-oneqd-cache"), Some("disk"));
    assert_eq!(
        replay.body, first.body,
        "disk hit is byte-identical across the crash"
    );
    let stats = http::request(addr, "GET", "/v1/stats", b"", TIMEOUT).expect("GET /v1/stats");
    let stats = String::from_utf8(stats.body).expect("stats is utf-8");
    let disk = &stats[stats.find("\"disk\"").expect("stats carries a disk block")..];
    assert!(
        disk.contains("\"truncated_tails\": 1"),
        "recovery counted the torn tail: {stats}"
    );
    assert!(
        disk.contains("\"recovered_records\": 1"),
        "recovery kept the intact record: {stats}"
    );

    assert_eq!(daemon.terminate().0, Some(0));
}

#[test]
fn daemon_refuses_a_cache_dir_held_by_another_daemon() {
    let dir = TempDir::new("flock");
    let dir_arg = dir.0.join("spill").display().to_string();
    let daemon = Daemon::spawn(&["--cache-dir", &dir_arg]);

    // A second daemon on the same spill directory must fail fast at
    // startup instead of corrupting the first one's segments.
    let output = Command::new(env!("CARGO_BIN_EXE_oneqd"))
        .args(["--addr", "127.0.0.1:0", "--cache-dir", &dir_arg])
        .output()
        .expect("run second oneqd");
    assert_eq!(output.status.code(), Some(2), "second daemon exits 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("locked by another process"),
        "stderr names the lock conflict: {stderr}"
    );

    assert_eq!(daemon.terminate().0, Some(0));
}

#[test]
fn daemon_evicts_a_slow_loris_client_without_blocking_others() {
    use std::io::{Read as _, Write as _};
    // A short io budget so the eviction lands within the test, and a
    // long idle budget so it cannot be the thing that fires.
    let daemon = Daemon::spawn(&[
        "--io-timeout-ms",
        "1500",
        "--idle-timeout-ms",
        "30000",
        "--workers",
        "2",
    ]);
    let addr = daemon.addr;

    // The attacker: starts a request and trickles one byte at a time,
    // never completing it. Under the old thread-per-connection core this
    // pinned a worker for as long as the client cared to drip.
    let trickler = std::thread::spawn(move || {
        let mut stream = std::net::TcpStream::connect(addr).expect("trickler connects");
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .expect("set read timeout");
        let started = Instant::now();
        let mut probe = [0u8; 16];
        for byte in b"POST /v1/compile?file=x.qasm HTTP/1.1\r\nx-drip: 1\r\n" {
            if stream.write_all(std::slice::from_ref(byte)).is_err() {
                return started.elapsed();
            }
            match stream.read(&mut probe) {
                Ok(0) => return started.elapsed(),
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => return started.elapsed(),
            }
            std::thread::sleep(Duration::from_millis(150));
        }
        // Ran out of bytes without seeing the hangup: block on the read
        // until the server closes on us.
        let _ = stream.set_read_timeout(Some(TIMEOUT));
        let _ = stream.read(&mut probe);
        started.elapsed()
    });

    // While the trickler is mid-drip, a well-behaved client must be
    // served immediately — the slow socket costs an fd, not a thread.
    std::thread::sleep(Duration::from_millis(300));
    let source = b"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n";
    let t0 = Instant::now();
    let resp = http::request(addr, "POST", "/v1/compile?file=bell.qasm", source, TIMEOUT)
        .expect("compile while the trickler drips");
    assert_eq!(resp.status, 200);
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "compile was not stuck behind the slow client"
    );

    // The trickler is evicted once its whole-request deadline expires,
    // and the eviction is visible in the stats counters.
    let lived = trickler.join().expect("trickler thread");
    assert!(
        lived >= Duration::from_millis(1400),
        "evicted by deadline, not instantly: lived {lived:?}"
    );
    assert!(
        lived < TIMEOUT,
        "the server hung up on the trickler: lived {lived:?}"
    );
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let stats = http::request(addr, "GET", "/v1/stats", b"", TIMEOUT).expect("GET /v1/stats");
        let body = String::from_utf8_lossy(&stats.body).into_owned();
        assert!(body.contains("\"schema\": \"oneqd-stats/v6\""));
        if body.contains("\"evicted_slow_read\": 1") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "eviction never surfaced in stats: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    assert_eq!(daemon.terminate().0, Some(0));
}

#[test]
fn daemon_trace_log_records_slow_requests_with_full_span_trees() {
    let dir = TempDir::new("trace");
    let log = dir.0.join("trace.jsonl");
    let log_arg = log.display().to_string();
    // Threshold well above a trivial compile and well below a large one.
    let slow = slow_circuit();
    let slow_ms = slow_threshold_ms(&slow).to_string();
    let daemon = Daemon::spawn(&["--trace-log", &log_arg, "--slow-ms", &slow_ms]);
    let addr = daemon.addr;

    // Fast request: finishes far under the threshold, so it must stay
    // out of the JSONL sink — but its id is still echoed end to end.
    let fast: &[u8] =
        b"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n";
    let resp = http::request_with_headers(
        addr,
        "POST",
        "/v1/compile?file=fast.qasm",
        &[("X-Oneqd-Request-Id", "trace-fast-1")],
        fast,
        TIMEOUT,
    )
    .expect("fast compile");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-oneqd-request-id"), Some("trace-fast-1"));

    // Slow request: see `slow_circuit`.
    let resp = http::request_with_headers(
        addr,
        "POST",
        "/v1/compile?file=slow.qasm",
        &[("X-Oneqd-Request-Id", "trace-slow-1")],
        slow.as_bytes(),
        TIMEOUT,
    )
    .expect("slow compile");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("x-oneqd-request-id"),
        Some("trace-slow-1"),
        "inbound request id echoed on the slow response"
    );

    // The trace closes when the last response byte flushes — an instant
    // after the client reads it — so poll for the record.
    let deadline = Instant::now() + TIMEOUT;
    let line = loop {
        let text = std::fs::read_to_string(&log).unwrap_or_default();
        if let Some(line) = text.lines().find(|l| l.contains("\"trace-slow-1\"")) {
            break line.to_string();
        }
        assert!(
            Instant::now() < deadline,
            "slow trace never reached the log under --slow-ms {slow_ms}: {text:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(line.contains("\"request_id\": \"trace-slow-1\""), "{line}");
    assert!(line.contains("\"route\": \"/v1/compile\""), "{line}");
    assert!(line.contains("\"status\": 200"), "{line}");
    assert!(line.contains("\"outcome\": \"miss\""), "{line}");
    // The complete span tree: transport phases, cache lookup, and every
    // compile stage, closed by the response write.
    for span in [
        "\"name\": \"read\"",
        "\"name\": \"queue\"",
        "\"name\": \"handle\"",
        "\"name\": \"cache\"",
        "\"name\": \"compile.parse\"",
        "\"name\": \"compile.translate\"",
        "\"name\": \"compile.partition\"",
        "\"name\": \"compile.fusion_graph\"",
        "\"name\": \"compile.mapping\"",
        "\"name\": \"compile.shuffle\"",
        "\"name\": \"write\"",
    ] {
        assert!(line.contains(span), "span {span} missing from {line}");
    }

    // --slow-ms filtering held: the fast request's id never appears.
    let text = std::fs::read_to_string(&log).expect("trace log readable");
    assert!(
        !text.contains("trace-fast-1"),
        "fast request leaked into the slow log: {text}"
    );

    assert_eq!(daemon.terminate().0, Some(0));
}

#[test]
fn daemon_end_to_end_triage_from_exemplar_to_trace() {
    // The PR-9 triage loop, end to end against the real process: a slow
    // compile shows up as a histogram exemplar on `/v1/metrics`, the
    // exemplar's request id resolves through `GET /v1/traces/{id}` to a
    // span tree carrying the per-partition compiler profile, the filtered
    // list and the stats `slowest` table both name the same offender.
    let slow = slow_circuit();
    let min_ms = slow_threshold_ms(&slow);
    let daemon = Daemon::spawn(&["--workers", "2"]);
    let addr = daemon.addr;

    // A fast request first, so "slowest" actually has to rank.
    let fast: &[u8] =
        b"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n";
    let resp = http::request_with_headers(
        addr,
        "POST",
        "/v1/compile?file=fast.qasm",
        &[("X-Oneqd-Request-Id", "triage-fast-1")],
        fast,
        TIMEOUT,
    )
    .expect("fast compile");
    assert_eq!(resp.status, 200);

    // The offender (see `slow_circuit`), under a client-chosen request id.
    let resp = http::request_with_headers(
        addr,
        "POST",
        "/v1/compile?file=slow.qasm",
        &[("X-Oneqd-Request-Id", "triage-slow-1")],
        slow.as_bytes(),
        TIMEOUT,
    )
    .expect("slow compile");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-oneqd-cache"), Some("miss"));
    assert_eq!(
        resp.header("x-oneqd-request-id"),
        Some("triage-slow-1"),
        "the id the exemplar will carry is echoed on the response"
    );

    // Step 1 — the scrape surface names the offender. The end-to-end
    // histogram closes when the last response byte flushes (an instant
    // after the client reads it), so poll.
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let metrics =
            http::request(addr, "GET", "/v1/metrics", b"", TIMEOUT).expect("GET /v1/metrics");
        let body = String::from_utf8_lossy(&metrics.body).into_owned();
        if body.contains("# {request_id=\"triage-slow-1\"}") {
            assert!(
                body.contains("oneqd_compile_partitions_total"),
                "compiler-internals counters are exposed: {body}"
            );
            assert!(
                body.contains("oneqd_build_info{version=\""),
                "build info gauge is exposed"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "slow request never surfaced as an exemplar: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Step 2 — the exemplar's id resolves to the full trace, and the
    // trace carries the per-partition compiler profile as span attrs.
    let deadline = Instant::now() + TIMEOUT;
    let trace_body = loop {
        let trace = http::request(addr, "GET", "/v1/traces/triage-slow-1", b"", TIMEOUT)
            .expect("GET /v1/traces/{id}");
        if trace.status == 200 {
            break String::from_utf8(trace.body).expect("trace is utf-8");
        }
        assert!(
            Instant::now() < deadline,
            "trace never reached the ring (status {})",
            trace.status
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        trace_body.contains("\"request_id\": \"triage-slow-1\""),
        "{trace_body}"
    );
    assert!(
        trace_body.contains("\"name\": \"compile.mapping.partition\""),
        "per-partition profile spans present: {trace_body}"
    );
    for attr in [
        "\"bfs_searches\":",
        "\"bfs_expansions\":",
        "\"seed_scans\":",
        "\"seed_scan_radius_max\":",
        "\"occupancy_peak\":",
        "\"scratch_grows\":",
        "\"scratch_reuses\":",
        "\"routing_cells\":",
        "\"fusion_graph_ns\":",
    ] {
        assert!(
            trace_body.contains(attr),
            "profile attribute {attr} missing from {trace_body}"
        );
    }
    // Every BFS search expands at least the cell it starts from.
    for (at, _) in trace_body.match_indices("\"name\": \"compile.mapping.partition\"") {
        let span = &trace_body[at..];
        let span = &span[..=span.find('}').expect("span closes")];
        let attrs = &span[span.find('{').expect("partition span carries attrs")..];
        let attrs = json::parse_flat_object(attrs).expect("attrs are a flat object");
        let attr = |key: &str| -> u64 {
            let (_, value) = attrs.iter().find(|(k, _)| k == key).expect("attr present");
            value.parse().expect("integer attr")
        };
        assert!(attr("bfs_expansions") >= attr("bfs_searches"), "{attrs:?}");
    }

    // Step 3 — the filtered list finds the same record and the filters
    // actually constrain it.
    let list = http::request(
        addr,
        "GET",
        &format!("/v1/traces?route=/v1/compile&status=200&min_ms={min_ms}&limit=10"),
        b"",
        TIMEOUT,
    )
    .expect("GET /v1/traces with filters");
    assert_eq!(list.status, 200);
    let list = String::from_utf8(list.body).expect("list is utf-8");
    assert!(list.contains("\"schema\": \"oneqd-traces/v1\""), "{list}");
    assert!(list.contains("\"request_id\": \"triage-slow-1\""), "{list}");
    // Listed ids are valid X-Oneqd-Request-Id values, and the counts add
    // up: `returned` traces listed, at most `limit`, out of `total`.
    let ids: Vec<&str> = list
        .split("\"request_id\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("id closes")])
        .collect();
    for id in &ids {
        assert!(
            (1..=64).contains(&id.len())
                && id
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')),
            "listed id {id:?} is not a valid request id"
        );
    }
    let returned = json_u64(&list, "returned");
    assert_eq!(returned, ids.len() as u64, "{list}");
    assert!(returned <= 10, "limit=10 holds: {list}");
    assert!(json_u64(&list, "total") >= returned, "{list}");
    assert_eq!(
        list.matches("\"route\": \"/v1/compile\", \"status\": 200,")
            .count(),
        ids.len(),
        "route and status filters hold for every listed trace: {list}"
    );
    let bad = http::request(addr, "GET", "/v1/traces?limit=banana", b"", TIMEOUT)
        .expect("GET /v1/traces with a bad limit");
    assert_eq!(bad.status, 400, "unparseable filters are rejected");
    let missing = http::request(addr, "GET", "/v1/traces/no-such-id", b"", TIMEOUT)
        .expect("GET /v1/traces/{unknown}");
    assert_eq!(missing.status, 404);

    // Step 4 — the stats `slowest` table ranks the offender first.
    let stats = http::request(addr, "GET", "/v1/stats", b"", TIMEOUT).expect("GET /v1/stats");
    let stats = String::from_utf8(stats.body).expect("stats is utf-8");
    assert!(stats.contains("\"schema\": \"oneqd-stats/v6\""), "{stats}");
    let slowest = &stats[stats
        .find("\"slowest\"")
        .expect("stats carries a slowest block")..];
    assert!(
        slowest.contains("\"request_id\": \"triage-slow-1\""),
        "slowest table names the offender: {stats}"
    );
    assert!(
        slowest.find("triage-slow-1").expect("offender present")
            < slowest.find("triage-fast-1").unwrap_or(usize::MAX),
        "the slow compile outranks the fast one: {slowest}"
    );

    assert_eq!(daemon.terminate().0, Some(0));
}

#[test]
fn daemon_refuses_an_oversized_layer_and_stays_up() {
    // `side=100000` once asked for a 240 GB grid: the allocation failure
    // aborted the whole process instead of failing the one request.
    let daemon = Daemon::spawn(&["--workers", "1"]);
    let addr = daemon.addr;
    let source = b"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\n";
    for target in [
        "/v1/compile?side=100000",
        "/v1/compile?rows=2048&cols=1024",
        "/v1/compile?side=1024&extension=2",
    ] {
        let refused = http::request(addr, "POST", target, source, TIMEOUT).expect(target);
        assert_eq!(refused.status, 400, "{target}");
    }
    let health = http::request(addr, "GET", "/v1/healthz", b"", TIMEOUT).expect("GET /v1/healthz");
    assert_eq!(
        health.status, 200,
        "the daemon survived the oversized requests"
    );
    let ok = http::request(addr, "POST", "/v1/compile?side=8", source, TIMEOUT)
        .expect("POST /v1/compile");
    assert_eq!(ok.status, 200, "and still compiles");

    assert_eq!(daemon.terminate().0, Some(0));
}

#[test]
fn daemon_rejects_bad_flags_with_usage_exit() {
    // `--workers` is the one compile budget and the connection cap bounds
    // the job queue, so neither a queue bound nor a batch width is a flag.
    for args in [
        &["--workers", "zero"][..],
        &["--frobnicate"],
        &["--backlog", "4"],
        &["--batch-jobs", "4"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_oneqd"))
            .args(args)
            .output()
            .expect("run oneqd");
        assert_eq!(output.status.code(), Some(2), "oneqd {args:?}");
    }
}
