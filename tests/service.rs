//! Integration tests for the `oneqd` compile service (`/v1` API).
//!
//! The acceptance contract (ISSUE 6, extending ISSUE 4–5): for every
//! fixture in `tests/fixtures/qasm/`, the daemon's `POST /v1/compile`
//! response — and its line in a `POST /v1/compile-batch` response — is
//! byte-identical to `oneqc`'s JSONL record for the same source and
//! config; a repeated identical request is served from the memory tier
//! with a byte-identical body; a server restarted onto the same
//! `--cache-dir` serves it from the disk tier, still byte-identical; a
//! ≥32-thread storm on one cold key performs exactly one compile
//! (single-flight); connections are keep-alive sessions; `/v1/metrics`
//! passes an exposition lint; one event loop holds a 1000-connection
//! fleet while it evicts slow-loris clients; and a program that would
//! have panicked a worker gets an error record instead, with the worker
//! still serving. The record-identity properties are checked
//! against the real `oneqc` *binary*, not a shared code path re-run
//! in-process, so a regression in either front door breaks the diff.
//! (The unversioned PR-4 shims served their one promised release and
//! are gone: `/healthz`, `/stats`, and `/compile` now 404.)

use oneq_service::http::{self, ClientConn};
use oneq_service::json;
use oneq_service::server::{Server, ServerConfig, ServerHandle};
use std::collections::{BTreeMap, HashMap};
use std::io::{Read as _, Write as _};
use std::mem::ManuallyDrop;
use std::path::PathBuf;
use std::process::Command;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(60);

/// The test that loads the whole machine (the 1000-connection fleet)
/// holds this lock for writing, so no other test in this binary shares
/// the CPU with it; every other test holds it for reading.
static CPU: RwLock<()> = RwLock::new(());

fn shared_cpu() -> RwLockReadGuard<'static, ()> {
    CPU.read().unwrap_or_else(PoisonError::into_inner)
}

fn exclusive_cpu() -> RwLockWriteGuard<'static, ()> {
    CPU.write().unwrap_or_else(PoisonError::into_inner)
}

fn fixture_files() -> Vec<PathBuf> {
    let files = oneq_service::corpus::qasm_files_flat(&oneq_bench::qasm_fixture_dir())
        .expect("fixture corpus directory exists");
    assert!(!files.is_empty(), "fixture corpus is not empty");
    files
}

fn spawn_server() -> ServerHandle {
    spawn_server_with(ServerConfig::default())
}

fn spawn_server_with(config: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", config)
        .expect("bind loopback")
        .spawn()
        .expect("spawn server thread")
}

fn post_compile(handle: &ServerHandle, label: &str, source: &[u8]) -> http::ClientResponse {
    let target = format!("/v1/compile?file={}", http::percent_encode(label));
    http::request(handle.addr(), "POST", &target, source, TIMEOUT).expect("POST /v1/compile")
}

fn get_stats(handle: &ServerHandle) -> String {
    let stats =
        http::request(handle.addr(), "GET", "/v1/stats", b"", TIMEOUT).expect("GET /v1/stats");
    assert_eq!(stats.status, 200);
    String::from_utf8(stats.body).expect("stats body")
}

/// Runs the real `oneqc` binary over `paths` (default config) and
/// returns its JSONL stdout.
fn oneqc_jsonl(paths: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_oneqc"))
        .args(paths)
        .output()
        .expect("run oneqc");
    assert!(output.status.success(), "oneqc failed: {output:?}");
    String::from_utf8(output.stdout).expect("oneqc emits UTF-8")
}

/// Pulls the first `"name": <number>` out of a JSON body (the emitters
/// are ours, so the textual shape is stable).
fn json_f64(body: &str, name: &str) -> f64 {
    let pat = format!("\"{name}\": ");
    let start = body
        .find(&pat)
        .unwrap_or_else(|| panic!("{name} in {body}"))
        + pat.len();
    body[start..]
        .split([',', '}', ']', '\n'])
        .next()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("{name} is not a number in {body}"))
}

fn json_u64(body: &str, name: &str) -> u64 {
    json_f64(body, name) as u64
}

/// Polls `GET /v1/traces/{id}` until the ring holds the trace: it closes
/// when the response's last byte flushes, an instant after the client
/// has read it.
fn wait_for_trace(handle: &ServerHandle, id: &str) {
    let deadline = Instant::now() + TIMEOUT;
    let target = format!("/v1/traces/{id}");
    while http::request(handle.addr(), "GET", &target, b"", TIMEOUT)
        .expect("GET /v1/traces/{id}")
        .status
        != 200
    {
        assert!(
            Instant::now() < deadline,
            "trace {id} never reached the ring"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn compile_responses_match_oneqc_records_for_every_fixture() {
    let _cpu = shared_cpu();
    // One oneqc batch over the whole corpus, default config.
    let dir = oneq_bench::qasm_fixture_dir();
    let jsonl = oneqc_jsonl(&[&dir.display().to_string()]);
    let records: Vec<&str> = jsonl.lines().collect();
    let files = fixture_files();
    assert_eq!(records.len(), files.len());

    let handle = spawn_server();
    for (path, record) in files.iter().zip(&records) {
        // oneqc labelled the record with the path it was invoked with.
        let label = path.display().to_string();
        assert!(
            record.contains(&format!("\"file\": \"{label}\"")),
            "record/file pairing: {record}"
        );
        let source = std::fs::read(path).expect("read fixture");
        let response = post_compile(&handle, &label, &source);
        assert_eq!(response.status, 200, "{label}");
        assert_eq!(response.header("x-oneqd-cache"), Some("miss"), "{label}");
        let body = String::from_utf8(response.body).expect("JSON body");
        assert_eq!(
            body,
            format!("{record}\n"),
            "daemon response differs from oneqc record for {label}"
        );
    }
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn batch_endpoint_matches_oneqc_jsonl_for_the_whole_corpus() {
    let _cpu = shared_cpu();
    // The JSONL a batch request returns must be byte-identical to what
    // the oneqc binary prints for the same files in the same order.
    let dir = oneq_bench::qasm_fixture_dir();
    let expected = oneqc_jsonl(&[&dir.display().to_string()]);

    let mut batch = String::new();
    for path in fixture_files() {
        let source = std::fs::read_to_string(&path).expect("read fixture");
        batch.push_str(&format!(
            "{{\"file\": \"{}\", \"source\": \"{}\"}}\n",
            json::escape(&path.display().to_string()),
            json::escape(&source)
        ));
    }

    let handle = spawn_server();
    let response = http::request(
        handle.addr(),
        "POST",
        "/v1/compile-batch",
        batch.as_bytes(),
        TIMEOUT,
    )
    .expect("POST /v1/compile-batch");
    assert_eq!(response.status, 200);
    let records = fixture_files().len().to_string();
    assert_eq!(
        response.header("x-oneqd-batch-records"),
        Some(records.as_str())
    );
    assert_eq!(response.header("x-oneqd-batch-errors"), Some("0"));
    let body = String::from_utf8(response.body).expect("JSONL body");
    assert_eq!(
        body, expected,
        "batch response differs from oneqc JSONL output"
    );

    // A second identical batch is served from the cache, byte-identical.
    let again = http::request(
        handle.addr(),
        "POST",
        "/v1/compile-batch",
        batch.as_bytes(),
        TIMEOUT,
    )
    .expect("second batch");
    let cache_line = again
        .header("x-oneqd-cache")
        .expect("aggregate header")
        .to_string();
    assert_eq!(String::from_utf8(again.body).unwrap(), expected);
    assert!(
        cache_line.starts_with(&format!("memory={} disk=0 miss=0", fixture_files().len())),
        "warm batch is all memory-tier hits: {cache_line}"
    );

    let stats = get_stats(&handle);
    assert_eq!(json_u64(&stats, "batch_requests"), 2);
    assert_eq!(
        json_u64(&stats, "batch_records"),
        2 * fixture_files().len() as u64
    );
    assert_eq!(
        json_u64(&stats, "compile_executions"),
        fixture_files().len() as u64,
        "second batch compiled nothing"
    );
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn batch_shares_one_cache_with_single_compiles() {
    let _cpu = shared_cpu();
    let handle = spawn_server();
    let path = &fixture_files()[0];
    let label = path.display().to_string();
    let source = std::fs::read_to_string(path).expect("read fixture");

    // Warm through the single endpoint…
    let single = post_compile(&handle, &label, source.as_bytes());
    assert_eq!(single.header("x-oneqd-cache"), Some("miss"));
    // …and hit through the batch endpoint: same CompileRequest, same
    // fingerprint, same cache entry.
    let line = format!(
        "{{\"file\": \"{}\", \"source\": \"{}\"}}\n",
        json::escape(&label),
        json::escape(&source)
    );
    let batch = http::request(
        handle.addr(),
        "POST",
        "/v1/compile-batch",
        line.as_bytes(),
        TIMEOUT,
    )
    .expect("batch");
    assert_eq!(
        batch.header("x-oneqd-cache"),
        Some("memory=1 disk=0 miss=0 coalesced=0 bypass=0")
    );
    assert_eq!(batch.body, single.body);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn batch_error_handling_and_limits() {
    let _cpu = shared_cpu();
    let handle = spawn_server();

    // A compile failure is an inline error record, not an HTTP error.
    let batch = "{\"file\": \"bad.qasm\", \"source\": \"OPENQASM 2.0;\\nnope;\\n\"}\n\
                 {\"file\": \"empty.qasm\", \"source\": \"OPENQASM 2.0;\\ninclude \\\"qelib1.inc\\\";\\nqreg q[1];\\nh q[0];\\n\"}\n";
    let response = http::request(
        handle.addr(),
        "POST",
        "/v1/compile-batch",
        batch.as_bytes(),
        TIMEOUT,
    )
    .expect("batch with failing line");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-oneqd-batch-records"), Some("2"));
    assert_eq!(response.header("x-oneqd-batch-errors"), Some("1"));
    let body = String::from_utf8(response.body).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].starts_with("{\"file\": \"bad.qasm\", \"status\": \"error\""));
    assert!(lines[1].starts_with("{\"file\": \"empty.qasm\", \"status\": \"ok\""));

    // A malformed line is a framing error for the whole batch, naming
    // the line.
    let malformed = "{\"file\": \"a.qasm\", \"source\": \"x\"}\nnot json\n";
    let response = http::request(
        handle.addr(),
        "POST",
        "/v1/compile-batch",
        malformed.as_bytes(),
        TIMEOUT,
    )
    .expect("malformed batch");
    assert_eq!(response.status, 400);
    assert!(String::from_utf8(response.body)
        .unwrap()
        .contains("batch line 2"));

    // An unknown member and a missing source are rejected the same way.
    for bad in ["{\"source\": \"x\", \"what\": 1}", "{\"file\": \"a.qasm\"}"] {
        let response = http::request(
            handle.addr(),
            "POST",
            "/v1/compile-batch",
            bad.as_bytes(),
            TIMEOUT,
        )
        .expect("bad batch line");
        assert_eq!(response.status, 400, "{bad}");
    }

    // An empty body holds no request lines.
    let response = http::request(handle.addr(), "POST", "/v1/compile-batch", b"\n\n", TIMEOUT)
        .expect("empty batch");
    assert_eq!(response.status, 400);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn repeated_requests_hit_the_cache_with_identical_bytes() {
    let _cpu = shared_cpu();
    let handle = spawn_server();
    let files = fixture_files();
    let mut first = Vec::new();
    for path in &files {
        let label = path.display().to_string();
        let source = std::fs::read(path).expect("read fixture");
        let response = post_compile(&handle, &label, &source);
        assert_eq!(response.header("x-oneqd-cache"), Some("miss"));
        first.push((label, source, response.body));
    }
    for (label, source, body) in &first {
        let response = post_compile(&handle, label, source);
        assert_eq!(response.status, 200);
        assert_eq!(
            response.header("x-oneqd-cache"),
            Some("memory"),
            "second request for {label} must be served from the memory tier"
        );
        assert_eq!(&response.body, body, "cached body differs for {label}");
    }

    let stats = get_stats(&handle);
    assert!(stats.contains("\"schema\": \"oneqd-stats/v6\""));
    // Memory-only server: the disk block reports itself disabled.
    assert!(stats.contains("\"disk\": {\"enabled\": false}"));
    assert_eq!(json_u64(&stats, "fills"), files.len() as u64);
    assert_eq!(json_u64(&stats, "hits"), files.len() as u64);
    assert_eq!(json_u64(&stats, "misses"), files.len() as u64);
    assert_eq!(json_u64(&stats, "entries"), files.len() as u64);
    assert_eq!(json_u64(&stats, "compile_ok"), 2 * files.len() as u64);
    assert_eq!(json_u64(&stats, "compile_errors"), 0);
    assert_eq!(
        json_u64(&stats, "compile_executions"),
        files.len() as u64,
        "the hit pass compiled nothing"
    );
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn keep_alive_session_serves_many_requests_on_one_socket() {
    let _cpu = shared_cpu();
    let handle = spawn_server();
    let files = fixture_files();
    let mut conn = ClientConn::connect(handle.addr(), TIMEOUT).expect("open session");

    // Interleave misses and hits over one socket: for each fixture, a
    // cold request then an immediate identical one.
    for path in &files {
        let label = path.display().to_string();
        let source = std::fs::read(path).expect("read fixture");
        let target = format!("/v1/compile?file={}", http::percent_encode(&label));
        let cold = conn.send("POST", &target, &source).expect("cold request");
        assert_eq!(cold.status, 200, "{label}");
        assert_eq!(cold.header("x-oneqd-cache"), Some("miss"));
        assert!(cold.keep_alive(), "server keeps the session alive");
        let warm = conn.send("POST", &target, &source).expect("warm request");
        assert_eq!(warm.header("x-oneqd-cache"), Some("memory"));
        assert_eq!(warm.body, cold.body, "hit bytes identical on one socket");
    }
    // Health and stats ride the same socket.
    let health = conn.send("GET", "/v1/healthz", b"").expect("healthz");
    assert_eq!(health.status, 200);
    let stats = conn.send("GET", "/v1/stats", b"").expect("stats");
    let stats = String::from_utf8(stats.body).unwrap();
    assert_eq!(
        json_u64(&stats, "connections"),
        1,
        "the whole session used one connection"
    );
    assert_eq!(json_u64(&stats, "requests"), 2 * files.len() as u64 + 2);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn keep_alive_request_cap_closes_the_session() {
    let _cpu = shared_cpu();
    let config = ServerConfig {
        keep_alive_requests: 3,
        ..ServerConfig::default()
    };
    let handle = spawn_server_with(config);
    let mut conn = ClientConn::connect(handle.addr(), TIMEOUT).expect("open session");
    for i in 0..3 {
        let resp = conn.send("GET", "/v1/healthz", b"").expect("health");
        assert_eq!(resp.status, 200);
        let expect_alive = i < 2;
        assert_eq!(
            resp.keep_alive(),
            expect_alive,
            "request {} of a 3-request cap",
            i + 1
        );
    }
    // The server closed the socket; the next exchange fails.
    assert!(
        conn.send("GET", "/v1/healthz", b"").is_err(),
        "capped session is closed"
    );
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn keep_alive_idle_timeout_closes_the_session() {
    let _cpu = shared_cpu();
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let handle = spawn_server_with(config);
    let mut conn = ClientConn::connect(handle.addr(), TIMEOUT).expect("open session");
    let resp = conn.send("GET", "/v1/healthz", b"").expect("first request");
    assert!(resp.keep_alive());
    std::thread::sleep(Duration::from_millis(600));
    assert!(
        conn.send("GET", "/v1/healthz", b"").is_err(),
        "idle session was reaped"
    );
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn mixed_case_headers_work_over_a_real_socket() {
    let _cpu = shared_cpu();
    // Regression (RFC 9110): header names and Connection tokens are
    // case-insensitive. Speak raw bytes so no client normalizes for us.
    let handle = spawn_server();
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(TIMEOUT))
        .expect("read timeout");
    let body = b"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nh q[0];\n";
    write!(
        stream,
        "POST /v1/compile?file=mixed.qasm HTTP/1.1\r\nHost: x\r\n\
         Content-LENGTH: {}\r\nCONNECTION: Keep-ALIVE\r\n\r\n",
        body.len()
    )
    .expect("write head");
    stream.write_all(body).expect("write body");
    let mut reader = std::io::BufReader::new(stream);
    let first = http::read_client_response(&mut reader).expect("first response");
    assert_eq!(first.status, 200);
    assert!(
        first.keep_alive(),
        "mixed-case Keep-ALIVE token was honored"
    );
    // The session survived: a second request flows on the same socket.
    write!(
        reader.get_mut(),
        "GET /v1/healthz HTTP/1.1\r\nHost: x\r\nConnection: CLOSE\r\n\r\n"
    )
    .expect("write second");
    let second = http::read_client_response(&mut reader).expect("second response");
    assert_eq!(second.status, 200);
    assert!(!second.keep_alive(), "mixed-case CLOSE token was honored");
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn oversized_bodies_get_413_before_buffering_and_close_the_session() {
    let _cpu = shared_cpu();
    let config = ServerConfig {
        max_body: 64,
        ..ServerConfig::default()
    };
    let handle = spawn_server_with(config);
    let mut conn = ClientConn::connect(handle.addr(), TIMEOUT).expect("open session");
    let big = vec![b'x'; 4096];
    let resp = conn
        .send("POST", "/v1/compile", &big)
        .expect("413 response arrives despite the unread body");
    assert_eq!(resp.status, 413);
    assert!(!resp.keep_alive(), "oversize violation ends the session");
    assert!(
        conn.send("GET", "/v1/healthz", b"").is_err(),
        "session is closed after a 413"
    );
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn legacy_unversioned_routes_are_gone() {
    let _cpu = shared_cpu();
    // The PR-4 shims were promised exactly one migration release (PR 5);
    // the unversioned paths are now plain 404s like any unknown route.
    let handle = spawn_server();
    for (method, path) in [
        ("GET", "/healthz"),
        ("GET", "/stats"),
        ("POST", "/compile"),
        ("POST", "/compile?file=a.qasm"),
    ] {
        let resp = http::request(handle.addr(), method, path, b"x", TIMEOUT).expect("request");
        assert_eq!(resp.status, 404, "{method} {path}");
        assert_eq!(resp.header("deprecation"), None, "{method} {path}");
        assert_eq!(resp.header("location"), None, "{method} {path}");
    }
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn warm_restart_serves_from_the_disk_tier_byte_identically() {
    let _cpu = shared_cpu();
    // ISSUE 6 acceptance (in-process variant; the daemon-level test
    // lives in crates/service/tests/daemon.rs): a server restarted onto
    // the same cache dir answers a previously-compiled fixture as a
    // disk-tier hit with a byte-identical body.
    let dir = tempdir().join("spill");
    let config = ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    let files = fixture_files();
    let mut first = Vec::new();
    {
        let handle = spawn_server_with(config.clone());
        for path in &files {
            let label = path.display().to_string();
            let source = std::fs::read(path).expect("read fixture");
            let response = post_compile(&handle, &label, &source);
            assert_eq!(response.status, 200);
            assert_eq!(response.header("x-oneqd-cache"), Some("miss"));
            first.push((label, source, response.body));
        }
        handle.shutdown().expect("clean shutdown");
        // shutdown() consumed the handle: the spill tier has flushed its
        // write-behind queue and released the directory lock.
    }

    let handle = spawn_server_with(config);
    for (label, source, body) in &first {
        let response = post_compile(&handle, label, source);
        assert_eq!(response.status, 200, "{label}");
        assert_eq!(
            response.header("x-oneqd-cache"),
            Some("disk"),
            "restarted server serves {label} from the disk tier"
        );
        assert_eq!(
            &response.body, body,
            "disk-tier body differs from the original compile for {label}"
        );
        // Promotion: the next identical request answers from memory.
        let again = post_compile(&handle, label, source);
        assert_eq!(again.header("x-oneqd-cache"), Some("memory"), "{label}");
        assert_eq!(&again.body, body, "{label}");
    }

    let stats = get_stats(&handle);
    assert!(stats.contains("\"enabled\": true"));
    assert_eq!(
        json_u64(&stats, "compile_executions"),
        0,
        "the warm restart compiled nothing"
    );
    // The memory block comes first in the body, so slice past it before
    // pulling disk-tier counters by name.
    let disk = &stats[stats.find("\"disk\"").expect("disk block")..];
    assert_eq!(json_u64(disk, "hits"), files.len() as u64);
    assert_eq!(json_u64(disk, "recovered_records"), files.len() as u64);
    assert_eq!(json_u64(disk, "truncated_tails"), 0);
    handle.shutdown().expect("clean shutdown");
    std::fs::remove_dir_all(dir.parent().unwrap()).ok();
}

#[test]
fn cache_distinguishes_configs_and_labels() {
    let _cpu = shared_cpu();
    let handle = spawn_server();
    let path = &fixture_files()[0];
    let source = std::fs::read(path).expect("read fixture");

    let a = post_compile(&handle, "a.qasm", &source);
    assert_eq!(a.header("x-oneqd-cache"), Some("miss"));
    // Same source, different label → different response bytes → miss.
    let b = post_compile(&handle, "b.qasm", &source);
    assert_eq!(b.header("x-oneqd-cache"), Some("miss"));
    assert_ne!(a.body, b.body);
    // Same source + label, different geometry → miss.
    let c = http::request(
        handle.addr(),
        "POST",
        "/v1/compile?file=a.qasm&side=25",
        &source,
        TIMEOUT,
    )
    .expect("POST with side");
    assert_eq!(c.header("x-oneqd-cache"), Some("miss"));
    // Whitespace-only source changes canonicalize away → hit.
    let mut padded = String::from_utf8(source.clone()).unwrap();
    padded = padded.replace('\n', " \n");
    let d = post_compile(&handle, "a.qasm", padded.as_bytes());
    assert_eq!(
        d.header("x-oneqd-cache"),
        Some("memory"),
        "trailing whitespace must not defeat content addressing"
    );
    assert_eq!(d.body, a.body);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn error_and_edge_responses() {
    let _cpu = shared_cpu();
    let handle = spawn_server();

    // healthz
    let health = http::request(handle.addr(), "GET", "/v1/healthz", b"", TIMEOUT).unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(
        health.body,
        b"{\"status\": \"ok\", \"service\": \"oneqd\", \"api\": \"v1\"}\n"
    );

    // Parse failure → 422 with an oneqc-shaped error record, not cached.
    let bad = b"OPENQASM 2.0;\nqreg q[1];\nnope q[0];\n";
    let r1 = post_compile(&handle, "bad.qasm", bad);
    let r2 = post_compile(&handle, "bad.qasm", bad);
    assert_eq!(r1.status, 422);
    assert_eq!(r1.header("x-oneqd-cache"), Some("miss"));
    assert_eq!(
        r2.header("x-oneqd-cache"),
        Some("miss"),
        "errors are not cached"
    );
    assert_eq!(r1.body, r2.body, "error records are still deterministic");
    let body = String::from_utf8(r1.body).unwrap();
    assert!(body.starts_with("{\"file\": \"bad.qasm\", \"status\": \"error\""));
    assert!(body.contains("bad.qasm:3:"));

    // Unknown endpoint, wrong method, bad params.
    let missing = http::request(handle.addr(), "GET", "/nope", b"", TIMEOUT).unwrap();
    assert_eq!(missing.status, 404);
    let get_compile = http::request(handle.addr(), "GET", "/v1/compile", b"", TIMEOUT).unwrap();
    assert_eq!(get_compile.status, 405);
    assert_eq!(get_compile.header("allow"), Some("POST"));
    let get_batch = http::request(handle.addr(), "GET", "/v1/compile-batch", b"", TIMEOUT).unwrap();
    assert_eq!(get_batch.status, 405);
    let post_health = http::request(handle.addr(), "POST", "/v1/healthz", b"", TIMEOUT).unwrap();
    assert_eq!(post_health.status, 405);
    let bad_param =
        http::request(handle.addr(), "POST", "/v1/compile?side=0", b"x", TIMEOUT).unwrap();
    assert_eq!(bad_param.status, 400);
    let unknown_param =
        http::request(handle.addr(), "POST", "/v1/compile?what=1", b"x", TIMEOUT).unwrap();
    assert_eq!(unknown_param.status, 400);
    let rows_only =
        http::request(handle.addr(), "POST", "/v1/compile?rows=4", b"x", TIMEOUT).unwrap();
    assert_eq!(rows_only.status, 400);

    // Stats accounting for the traffic above.
    let stats = get_stats(&handle);
    assert_eq!(json_u64(&stats, "compile_errors"), 2);
    assert!(json_u64(&stats, "http_errors") >= 6);
    assert_eq!(json_u64(&stats, "healthz_requests"), 1);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn timings_and_bypass_requests_bypass_the_cache() {
    let _cpu = shared_cpu();
    let handle = spawn_server();
    let path = &fixture_files()[0];
    let label = path.display().to_string();
    let source = std::fs::read(path).unwrap();
    let target = format!(
        "/v1/compile?file={}&timings=1",
        http::percent_encode(&label)
    );
    for _ in 0..2 {
        let r = http::request(handle.addr(), "POST", &target, &source, TIMEOUT).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("x-oneqd-cache"), Some("bypass"));
        assert!(String::from_utf8(r.body).unwrap().contains("timings_ns"));
    }
    // Explicit bypass=1 skips the cache without timings.
    let target = format!("/v1/compile?file={}&bypass=1", http::percent_encode(&label));
    let r = http::request(handle.addr(), "POST", &target, &source, TIMEOUT).unwrap();
    assert_eq!(r.header("x-oneqd-cache"), Some("bypass"));
    assert!(!String::from_utf8(r.body).unwrap().contains("timings_ns"));
    // A bypassed request neither reads nor warms the cache.
    let plain = post_compile(&handle, &label, &source);
    assert_eq!(plain.header("x-oneqd-cache"), Some("miss"));
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn single_flight_storm_compiles_once_with_byte_identical_responses() {
    let _cpu = shared_cpu();
    // ISSUE 5 acceptance: a concurrent-miss burst on one key performs
    // exactly one compile, and every response is byte-identical to
    // oneqc's record for the same file.
    const STORM: usize = 32;
    let config = ServerConfig {
        workers: STORM + 4, // every racer gets a live connection
        ..ServerConfig::default()
    };
    let handle = spawn_server_with(config);

    let files = fixture_files();
    // bv-100 is the slowest fixture — the widest window for the storm to
    // overlap the leader's compile.
    let path = files
        .iter()
        .find(|p| p.ends_with("bv-100.qasm"))
        .unwrap_or(&files[0]);
    let label = path.display().to_string();
    let expected = oneqc_jsonl(&[&label]);
    let source = std::fs::read(path).expect("read fixture");

    let responses: Vec<http::ClientResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..STORM)
            .map(|_| {
                let handle = &handle;
                let label = &label;
                let source = &source;
                scope.spawn(move || post_compile(handle, label, source))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut outcome_counts = std::collections::HashMap::new();
    for resp in &responses {
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body,
            expected.as_bytes(),
            "every storm response is byte-identical to the oneqc record"
        );
        *outcome_counts
            .entry(resp.header("x-oneqd-cache").unwrap_or("?").to_string())
            .or_insert(0usize) += 1;
    }
    assert_eq!(
        outcome_counts.get("miss").copied().unwrap_or(0),
        1,
        "exactly one leader: {outcome_counts:?}"
    );
    assert_eq!(
        outcome_counts.get("coalesced").copied().unwrap_or(0)
            + outcome_counts.get("memory").copied().unwrap_or(0),
        STORM - 1,
        "everyone else was coalesced or served from cache: {outcome_counts:?}"
    );

    let stats = get_stats(&handle);
    assert_eq!(
        json_u64(&stats, "compile_executions"),
        1,
        "the storm ran exactly one compile"
    );
    assert_eq!(json_u64(&stats, "entries"), 1);
    assert_eq!(
        json_u64(&stats, "coalesced"),
        outcome_counts.get("coalesced").copied().unwrap_or(0) as u64,
        "stats counter agrees with the response headers"
    );
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn event_loop_holds_a_thousand_connections_and_evicts_slow_clients() {
    const FLEET: usize = 1000;
    const SENDERS: usize = 8;
    const REQUESTS: usize = 4000;
    const TRICKLERS: usize = 8;
    let _cpu = exclusive_cpu();
    // One server sized for the fleet: it must hold every socket at once,
    // answer every request, and evict the tricklers by deadline.
    let handle = spawn_server_with(ServerConfig {
        workers: 4,
        max_connections: 2048,
        idle_timeout: Duration::from_secs(60),
        io_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    // One warm-up compile per fixture; its answer is the reference every
    // request over the fleet must reproduce byte for byte.
    let targets: Vec<(String, Vec<u8>, Vec<u8>)> = fixture_files()
        .iter()
        .map(|path| {
            let label = path.display().to_string();
            let source = std::fs::read(path).expect("read fixture");
            let warm = post_compile(&handle, &label, &source);
            assert_eq!(warm.status, 200, "{label}");
            let target = format!("/v1/compile?file={}", http::percent_encode(&label));
            (target, source, warm.body)
        })
        .collect();

    let mut fleet: Vec<ClientConn> = (0..FLEET)
        .map(|_| ClientConn::connect(addr, TIMEOUT).expect("open a fleet connection"))
        .collect();
    // The loop recounts its gauges once per iteration.
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let open = json_u64(&get_stats(&handle), "open");
        if open >= FLEET as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the server holds {open} of the {FLEET} fleet sockets"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let slow_before = json_u64(&get_stats(&handle), "evicted_slow_read");
    // The scope joins every thread and fails if any of them panicked.
    std::thread::scope(|scope| {
        // Slow-loris clients: a partial request line, then silence until
        // the whole-exchange deadline evicts them.
        let tricklers: Vec<_> = (0..TRICKLERS)
            .map(|_| {
                scope.spawn(move || {
                    let mut stream = std::net::TcpStream::connect(addr).expect("trickler connects");
                    stream
                        .set_read_timeout(Some(TIMEOUT))
                        .expect("read timeout");
                    stream
                        .write_all(b"POST /v1/compile?file=slow.qasm HTT")
                        .expect("write a partial request line");
                    let mut probe = [0u8; 64];
                    stream.read(&mut probe).expect("the server hangs up")
                })
            })
            .collect();
        // Each sender owns an eighth of the fleet and sends an eighth of
        // the requests round-robin over its sockets and the fixtures.
        for (w, share) in fleet.chunks_mut(FLEET / SENDERS).enumerate() {
            let targets = &targets;
            scope.spawn(move || {
                for r in 0..REQUESTS / SENDERS {
                    let (target, source, expected) = &targets[(w + r * SENDERS) % targets.len()];
                    let resp = share[r % share.len()]
                        .send("POST", target, source)
                        .expect("request over the fleet");
                    assert_eq!(resp.status, 200, "{target}");
                    assert!(
                        resp.body == *expected,
                        "{target}: the answer differs from the warm-up's"
                    );
                }
            });
        }
        for trickler in tricklers {
            let read = trickler.join().expect("trickler");
            assert_eq!(read, 0, "a trickler read a response instead of EOF");
        }
    });
    let slow_evicted = json_u64(&get_stats(&handle), "evicted_slow_read") - slow_before;
    assert!(
        slow_evicted >= TRICKLERS as u64,
        "{slow_evicted} slow-read evictions for {TRICKLERS} tricklers"
    );
    drop(fleet);
    handle.shutdown().expect("clean shutdown");
}

/// A program with no `qreg`: it parses to a circuit of zero qubits,
/// which auto geometry cannot size a layer for.
const NO_QUBITS: &str = "OPENQASM 2.0;\n";

/// Ample for one small compile in a debug build, and short, so a request
/// stuck behind a dead worker fails the test quickly.
const SHORT: Duration = Duration::from_secs(10);

#[test]
fn a_program_without_qubits_gets_422_and_the_worker_keeps_serving() {
    let _cpu = shared_cpu();
    // One worker: had the request killed it, the next compile would wait
    // for it forever. Joining a server wedged that way never returns, so
    // a failing run leaks the server thread instead of dropping it.
    let handle = ManuallyDrop::new(spawn_server_with(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }));
    let resp = http::request(
        handle.addr(),
        "POST",
        "/v1/compile?file=none.qasm",
        NO_QUBITS.as_bytes(),
        SHORT,
    )
    .expect("an answer for a program without qubits");
    assert_eq!(resp.status, 422);
    let body = String::from_utf8(resp.body).expect("JSON body");
    assert!(
        body.starts_with("{\"file\": \"none.qasm\", \"status\": \"error\""),
        "{body}"
    );

    let path = &fixture_files()[0];
    let source = std::fs::read(path).expect("read fixture");
    let target = format!(
        "/v1/compile?file={}",
        http::percent_encode(&path.display().to_string())
    );
    let next = http::request(handle.addr(), "POST", &target, &source, SHORT)
        .expect("the one worker still compiles");
    assert_eq!(next.status, 200);
    ManuallyDrop::into_inner(handle)
        .shutdown()
        .expect("clean shutdown");
}

#[test]
fn a_batch_line_without_qubits_is_an_error_record() {
    let _cpu = shared_cpu();
    // See the test above for why a failing run leaks the server.
    let handle = ManuallyDrop::new(spawn_server());
    let batch = format!(
        "{{\"file\": \"none.qasm\", \"source\": \"{}\"}}\n\
         {{\"file\": \"one.qasm\", \"source\": \"{}\"}}\n",
        json::escape(NO_QUBITS),
        json::escape("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nh q[0];\n"),
    );
    let resp = http::request(
        handle.addr(),
        "POST",
        "/v1/compile-batch",
        batch.as_bytes(),
        SHORT,
    )
    .expect("an answer for the batch");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-oneqd-batch-errors"), Some("1"));
    let body = String::from_utf8(resp.body).expect("JSONL body");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 2, "{body}");
    assert!(
        lines[0].starts_with("{\"file\": \"none.qasm\", \"status\": \"error\""),
        "{body}"
    );
    assert!(
        lines[1].starts_with("{\"file\": \"one.qasm\", \"status\": \"ok\""),
        "{body}"
    );
    ManuallyDrop::into_inner(handle)
        .shutdown()
        .expect("clean shutdown");
}

#[test]
fn oneq_top_once_shows_every_table_and_the_slow_request_id() {
    let _cpu = shared_cpu();
    let handle = spawn_server();
    let files = fixture_files();
    let path = files
        .iter()
        .find(|p| p.ends_with("qft-16.qasm"))
        .unwrap_or(&files[0]);
    let target = format!(
        "/v1/compile?file={}&bypass=1",
        http::percent_encode(&path.display().to_string())
    );
    let source = std::fs::read(path).expect("read fixture");
    // bypass=1 forces a real compile under the client's request id.
    let resp = http::request_with_headers(
        handle.addr(),
        "POST",
        &target,
        &[("X-Oneqd-Request-Id", "top-triage-1")],
        &source,
        TIMEOUT,
    )
    .expect("compile");
    assert_eq!(resp.status, 200);
    wait_for_trace(&handle, "top-triage-1");

    let output = Command::new(env!("CARGO_BIN_EXE_oneq-top"))
        .args(["--addr", &handle.addr().to_string(), "--once"])
        .output()
        .expect("run oneq-top");
    assert!(output.status.success(), "oneq-top failed: {output:?}");
    let screen = String::from_utf8(output.stdout).expect("oneq-top prints UTF-8");
    for want in ["ROUTES", "COMPILE STAGES", "SLOWEST", "top-triage-1"] {
        assert!(screen.contains(want), "`{want}` missing from:\n{screen}");
    }
    handle.shutdown().expect("clean shutdown");
}

/// One histogram series (a family plus its non-`le` labels) as scraped.
#[derive(Default)]
struct HistogramSeries {
    buckets: Vec<(f64, u64)>,
    sum: Option<f64>,
    count: Option<u64>,
}

/// Lints a Prometheus text exposition the way a scraper reads it:
/// exactly one `# TYPE` (counter, gauge or histogram) per family; every
/// sample line parses and belongs to a typed family; in every histogram
/// series `le` strictly increases to `+Inf`, counts are cumulative,
/// `_count` equals the `+Inf` bucket and `_sum` is finite and ≥ 0; and
/// exemplars sit only on `_bucket` lines. Returns the number of
/// exemplars.
fn lint_exposition(text: &str) -> usize {
    let mut types: HashMap<&str, &str> = HashMap::new();
    let mut histograms: BTreeMap<String, HistogramSeries> = BTreeMap::new();
    let mut exemplars = 0;
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let (family, kind) = decl
                .split_once(' ')
                .unwrap_or_else(|| panic!("malformed TYPE line: {line}"));
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown kind: {line}"
            );
            assert!(
                types.insert(family, kind).is_none(),
                "duplicate # TYPE: {line}"
            );
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (name, labels, value, exemplar) = parse_sample(line);
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|suffix| name.strip_suffix(suffix))
            .find(|base| types.get(base) == Some(&"histogram"))
            .unwrap_or(name);
        let kind = types
            .get(family)
            .unwrap_or_else(|| panic!("sample without a # TYPE: {line}"));
        if exemplar {
            assert!(name.ends_with("_bucket"), "exemplar off a bucket: {line}");
            exemplars += 1;
        }
        if *kind != "histogram" {
            continue;
        }
        let series_labels: Vec<String> = labels
            .iter()
            .filter(|(k, _)| *k != "le")
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let slot = histograms
            .entry(format!("{family}{{{}}}", series_labels.join(",")))
            .or_default();
        let count = || -> u64 {
            value
                .parse()
                .unwrap_or_else(|_| panic!("bad count: {line}"))
        };
        if name.ends_with("_bucket") {
            let (_, le) = labels
                .iter()
                .find(|(k, _)| *k == "le")
                .unwrap_or_else(|| panic!("bucket without le: {line}"));
            let le = if *le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or_else(|_| panic!("bad le: {line}"))
            };
            slot.buckets.push((le, count()));
        } else if name.ends_with("_sum") {
            slot.sum = Some(value.parse().expect("sum is a number"));
        } else if name.ends_with("_count") {
            slot.count = Some(count());
        } else {
            panic!("bare sample in histogram family {family}: {line}");
        }
    }
    assert!(!histograms.is_empty(), "no histogram series scraped");
    for (series, h) in &histograms {
        let (Some(sum), Some(count), Some(&(last_le, last))) = (h.sum, h.count, h.buckets.last())
        else {
            panic!("incomplete histogram {series}");
        };
        assert_eq!(last_le, f64::INFINITY, "{series} does not end at +Inf");
        for pair in h.buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0, "{series}: le not increasing");
            assert!(pair[0].1 <= pair[1].1, "{series}: counts not cumulative");
        }
        assert_eq!(count, last, "{series}: _count != +Inf bucket");
        assert!(sum.is_finite() && sum >= 0.0, "{series}: bad _sum {sum}");
    }
    exemplars
}

/// Splits a sample line into name, labels, value and whether it carries
/// an exemplar (` # {request_id="[A-Za-z0-9._-]+"} value timestamp`),
/// panicking on anything a scraper could not read.
fn parse_sample(line: &str) -> (&str, Vec<(&str, &str)>, &str, bool) {
    let name_end = line
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(line.len());
    let name = &line[..name_end];
    assert!(
        name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_' || c == ':'),
        "bad metric name: {line}"
    );
    let mut rest = &line[name_end..];
    let mut labels = Vec::new();
    if let Some(body) = rest.strip_prefix('{') {
        let (inner, after) = body
            .split_once('}')
            .unwrap_or_else(|| panic!("unclosed labels: {line}"));
        for pair in inner.split(',') {
            let label = pair
                .split_once('=')
                .and_then(|(k, v)| Some((k, v.strip_prefix('"')?.strip_suffix('"')?)))
                .unwrap_or_else(|| panic!("bad label: {line}"));
            labels.push(label);
        }
        rest = after;
    }
    let rest = rest
        .strip_prefix(' ')
        .unwrap_or_else(|| panic!("no value: {line}"));
    let (value, exemplar) = match rest.split_once(" # ") {
        Some((value, exemplar)) => (value, Some(exemplar)),
        None => (rest, None),
    };
    assert!(value.parse::<f64>().is_ok(), "bad value: {line}");
    if let Some(exemplar) = exemplar {
        let (id, tail) = exemplar
            .strip_prefix("{request_id=\"")
            .and_then(|e| e.split_once("\"} "))
            .unwrap_or_else(|| panic!("malformed exemplar: {line}"));
        assert!(
            !id.is_empty()
                && id
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')),
            "bad exemplar id: {line}"
        );
        let (v, ts) = tail
            .split_once(' ')
            .unwrap_or_else(|| panic!("exemplar without timestamp: {line}"));
        assert!(
            v.parse::<f64>().is_ok_and(|v| v >= 0.0) && ts.parse::<f64>().is_ok_and(|t| t > 0.0),
            "bad exemplar value or timestamp: {line}"
        );
    }
    (name, labels, value, exemplar.is_some())
}

/// Reads one exposition series value: the line starting `series ` (the
/// full name-plus-labels prefix, then a space, then the value).
fn metric_u64(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series).and_then(|r| r.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("series `{series}` in metrics:\n{text}"))
        .trim()
        .parse()
        .expect("integer metric value")
}

#[test]
fn metrics_endpoint_agrees_with_stats_and_counts_every_stage() {
    let _cpu = shared_cpu();
    let handle = spawn_server();
    let files = fixture_files();
    // One miss then one memory hit per fixture.
    for path in &files {
        let label = path.display().to_string();
        let source = std::fs::read(path).expect("read fixture");
        assert_eq!(post_compile(&handle, &label, &source).status, 200);
        assert_eq!(post_compile(&handle, &label, &source).status, 200);
    }

    let stats = get_stats(&handle);
    let resp =
        http::request(handle.addr(), "GET", "/v1/metrics", b"", TIMEOUT).expect("GET /v1/metrics");
    assert_eq!(resp.status, 200);
    let content_type = resp.header("content-type").expect("content type");
    assert!(
        content_type.starts_with("text/plain; version=0.0.4"),
        "exposition content type: {content_type}"
    );
    let text = String::from_utf8(resp.body).expect("exposition text");
    assert!(
        lint_exposition(&text) >= 1,
        "the cold compiles left no exemplar on any bucket sample"
    );

    for ty in [
        "# TYPE oneqd_requests_total counter",
        "# TYPE oneqd_compile_stage_seconds histogram",
        "# TYPE oneqd_cache_outcomes_total counter",
        "# TYPE oneqd_cache_lookup_seconds histogram",
        "# TYPE oneqd_request_seconds histogram",
        "# TYPE oneqd_queue_depth gauge",
        "# TYPE oneqd_loop_ready_fds gauge",
        "# TYPE oneqd_loop_iteration_seconds histogram",
        "# TYPE oneqd_queue_wait_seconds histogram",
        "# TYPE oneqd_response_write_seconds histogram",
    ] {
        assert!(text.contains(ty), "missing `{ty}` in metrics:\n{text}");
    }

    // Every pipeline stage histogram saw exactly the cold compiles (the
    // hit pass compiled nothing).
    let n = files.len() as u64;
    for stage in [
        "parse",
        "translate",
        "partition",
        "fusion_graph",
        "mapping",
        "shuffle",
        "wall",
    ] {
        assert_eq!(
            metric_u64(
                &text,
                &format!("oneqd_compile_stage_seconds_count{{stage=\"{stage}\"}}")
            ),
            n,
            "stage `{stage}` counted one sample per cold compile"
        );
    }
    // Per-tier outcome counters match the request pattern.
    assert_eq!(
        metric_u64(&text, "oneqd_cache_outcomes_total{tier=\"miss\"}"),
        n
    );
    assert_eq!(
        metric_u64(&text, "oneqd_cache_outcomes_total{tier=\"memory\"}"),
        n
    );
    assert_eq!(
        metric_u64(&text, "oneqd_cache_lookup_seconds_count{tier=\"memory\"}"),
        n
    );

    // Both surfaces render from one registry, so every overlapping
    // number the interleaved scrapes cannot perturb must agree exactly.
    for (stats_key, series) in [
        ("compile_ok", "oneqd_compile_ok_total"),
        ("compile_errors", "oneqd_compile_errors_total"),
        ("compile_executions", "oneqd_compile_executions_total"),
        ("fills", "oneqd_cache_fills_total"),
        ("hits", "oneqd_cache_memory_hits_total"),
        ("misses", "oneqd_cache_memory_misses_total"),
        ("batch_records", "oneqd_batch_records_total"),
        (
            "compile_requests",
            "oneqd_route_requests_total{route=\"compile\"}",
        ),
        (
            "batch_requests",
            "oneqd_route_requests_total{route=\"batch\"}",
        ),
        (
            "healthz_requests",
            "oneqd_route_requests_total{route=\"healthz\"}",
        ),
        ("http_errors", "oneqd_http_errors_total"),
        ("coalesced", "oneqd_coalesced_total"),
        ("evictions", "oneqd_cache_memory_evictions_total"),
        ("entries", "oneqd_cache_memory_entries"),
        ("capacity", "oneqd_cache_memory_capacity"),
        ("shards", "oneqd_cache_memory_shards"),
        ("workers", "oneqd_workers"),
        ("max_connections", "oneqd_max_connections"),
        (
            "evicted_slow_read",
            "oneqd_evictions_total{reason=\"slow_read\"}",
        ),
        (
            "evicted_slow_write",
            "oneqd_evictions_total{reason=\"slow_write\"}",
        ),
        ("idle_closed", "oneqd_evictions_total{reason=\"idle\"}"),
    ] {
        assert_eq!(
            json_u64(&stats, stats_key),
            metric_u64(&text, series),
            "/v1/stats `{stats_key}` vs /v1/metrics `{series}`"
        );
    }
    // The v5 telemetry block: every compile request above closed its
    // trace before its response finished flushing to us.
    assert!(json_u64(&stats, "traces_recorded") >= 2 * n);
    assert!(json_u64(&stats, "loop_iterations") > 0);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn request_id_is_echoed_or_minted_on_every_route() {
    let _cpu = shared_cpu();
    let handle = spawn_server();
    let path = &fixture_files()[0];
    let label = path.display().to_string();
    let source = std::fs::read(path).expect("read fixture");
    let target = format!("/v1/compile?file={}", http::percent_encode(&label));

    // A well-formed inbound id is adopted and echoed verbatim.
    let resp = http::request_with_headers(
        handle.addr(),
        "POST",
        &target,
        &[("X-Oneqd-Request-Id", "client-id.01")],
        &source,
        TIMEOUT,
    )
    .expect("compile with inbound id");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-oneqd-request-id"), Some("client-id.01"));

    // A hostile inbound id (whitespace) is replaced with a minted one.
    let resp = http::request_with_headers(
        handle.addr(),
        "POST",
        &target,
        &[("X-Oneqd-Request-Id", "bad id with spaces")],
        &source,
        TIMEOUT,
    )
    .expect("compile with invalid id");
    let minted = resp
        .header("x-oneqd-request-id")
        .expect("minted id on response")
        .to_string();
    assert_ne!(minted, "bad id with spaces");
    assert!(!minted.is_empty());

    // Inline routes mint ids too, distinct per request.
    let mut ids = Vec::new();
    for route in ["/v1/healthz", "/v1/stats", "/v1/metrics"] {
        let resp = http::request(handle.addr(), "GET", route, b"", TIMEOUT).expect("inline route");
        ids.push(
            resp.header("x-oneqd-request-id")
                .unwrap_or_else(|| panic!("{route} carries a request id"))
                .to_string(),
        );
    }
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 3, "minted ids are distinct");
    handle.shutdown().expect("clean shutdown");
}

fn tempdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "oneq-service-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}
