//! The one pin on the `/v1/stats` schema: boots a real server (disk
//! tier enabled, traffic flowing so every conditional block renders),
//! flattens the live document into dotted key paths in render order,
//! and checks them against the committed snapshots under
//! `tests/fixtures/`:
//!
//!   * live keys == `stats_schema_v6.txt`, in order. The clients that
//!     read a key's first occurrence (`oneq_bench::scrape::stats_u64`,
//!     `oneq-top`, perfbench's `serve` workload) depend on the order,
//!     not just the set;
//!   * `stats_schema_v5.txt` is an ordered subsequence of the live keys:
//!     the schema stayed append-only across the version bump;
//!   * a memory-only server renders exactly the v6 keys minus the
//!     disk-tier counters and the `slowest[]` element keys.
//!
//! After an intentional schema change the failure message prints the
//! live key sequence, ready to paste under the snapshot's header.

use std::path::{Path, PathBuf};
use std::time::Duration;

use oneq_bench::scrape::stats_str;
use oneq_service::http;
use oneq_service::server::{Server, ServerConfig, ServerHandle};

const TIMEOUT: Duration = Duration::from_secs(60);

fn snapshot_keys(name: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

/// Flattens a JSON document into dotted key paths in the order they
/// first appear: `conns.open`, `slowest[]`, `slowest[].route`. The
/// emitter is ours (`ObjWriter`), so this only handles the shapes it
/// produces — objects, arrays, strings, numbers, booleans — and panics
/// loudly on anything else.
fn flatten_keys(json: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = json.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos, "", &mut out);
    out
}

fn push_once(out: &mut Vec<String>, key: &str) {
    if !out.iter().any(|k| k == key) {
        out.push(key.to_string());
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize, path: &str, out: &mut Vec<String>) {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            loop {
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    break;
                }
                let key = string(b, pos);
                skip_ws(b, pos);
                assert_eq!(b.get(*pos), Some(&b':'), "object key needs a colon");
                *pos += 1;
                let child = if path.is_empty() {
                    key
                } else {
                    format!("{path}.{key}")
                };
                value(b, pos, &child, out);
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b',') {
                    *pos += 1;
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            // Arrays are visible even when empty (`slowest[]`); object
            // containers are not listed, only their leaves.
            let child = format!("{path}[]");
            push_once(out, &child);
            loop {
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    break;
                }
                value(b, pos, &child, out);
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b',') {
                    *pos += 1;
                }
            }
        }
        Some(b'"') => {
            string(b, pos);
            if !path.is_empty() {
                push_once(out, path);
            }
        }
        Some(_) => {
            // number / true / false / null: consume the bare token.
            while *pos < b.len()
                && !matches!(b[*pos], b',' | b'}' | b']')
                && !b[*pos].is_ascii_whitespace()
            {
                *pos += 1;
            }
            if !path.is_empty() {
                push_once(out, path);
            }
        }
        None => panic!("unexpected end of stats JSON"),
    }
}

fn string(b: &[u8], pos: &mut usize) -> String {
    skip_ws(b, pos);
    assert_eq!(b.get(*pos), Some(&b'"'), "expected a string");
    *pos += 1;
    let start = *pos;
    while *pos < b.len() && b[*pos] != b'"' {
        if b[*pos] == b'\\' {
            *pos += 1;
        }
        *pos += 1;
    }
    let s = String::from_utf8_lossy(&b[start..*pos]).into_owned();
    *pos += 1; // closing quote
    s
}

/// True when every key of `sub` occurs in `seq`, in the same order.
fn is_ordered_subsequence(sub: &[String], seq: &[String]) -> bool {
    let mut rest = seq.iter();
    sub.iter().all(|key| rest.any(|k| k == key))
}

fn get_stats(handle: &ServerHandle) -> String {
    let stats =
        http::request(handle.addr(), "GET", "/v1/stats", b"", TIMEOUT).expect("GET /v1/stats");
    assert_eq!(stats.status, 200);
    String::from_utf8(stats.body).expect("stats body is UTF-8")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oneqd-stats-schema-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn spawn(config: ServerConfig) -> ServerHandle {
    Server::bind("127.0.0.1:0", config)
        .expect("bind loopback")
        .spawn()
        .expect("spawn server thread")
}

#[test]
fn live_stats_keys_match_the_committed_snapshots() {
    let dir = tempdir("golden");
    let handle = spawn(ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });

    // Traffic: one good compile (fills the trace ring, so `slowest` has
    // elements) and one metrics scrape (bumps the telemetry route).
    let qasm = b"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nh q[0];\n";
    let resp = http::request(
        handle.addr(),
        "POST",
        "/v1/compile?file=g.qasm",
        qasm,
        TIMEOUT,
    )
    .expect("POST /v1/compile");
    assert_eq!(resp.status, 200);
    let resp =
        http::request(handle.addr(), "GET", "/v1/metrics", b"", TIMEOUT).expect("GET /v1/metrics");
    assert_eq!(resp.status, 200);

    let body = get_stats(&handle);
    assert_eq!(stats_str(&body, "schema"), Some("oneqd-stats/v6"), "{body}");
    let live = flatten_keys(&body);
    let v6 = snapshot_keys("stats_schema_v6.txt");
    assert!(
        live == v6,
        "live /v1/stats keys differ from tests/fixtures/stats_schema_v6.txt \
         (order matters); the live sequence is:\n{}\n\nbody: {body}",
        live.join("\n")
    );
    let v5 = snapshot_keys("stats_schema_v5.txt");
    assert!(
        is_ordered_subsequence(&v5, &live),
        "the v5 keys are no longer an ordered subsequence of the live document \
         (the schema must stay append-only); live sequence:\n{}",
        live.join("\n")
    );

    handle.shutdown().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memory_only_stats_still_carry_every_unconditional_key() {
    // Without a disk tier the `cache.disk` block collapses to
    // `{"enabled": false}`, and with no traffic the slowest ring is
    // empty; everything else renders in v6 order, which pins the
    // conditional blocks' exact boundaries.
    let handle = spawn(ServerConfig::default());
    let body = get_stats(&handle);
    let live = flatten_keys(&body);
    let expected: Vec<String> = snapshot_keys("stats_schema_v6.txt")
        .into_iter()
        .filter(|k| !(k.starts_with("cache.disk.") && k != "cache.disk.enabled"))
        .filter(|k| !k.starts_with("slowest[]."))
        .collect();
    assert_eq!(live, expected, "memory-only /v1/stats: {body}");
    handle.shutdown().expect("clean shutdown");
}
