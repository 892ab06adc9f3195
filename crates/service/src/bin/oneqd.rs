//! `oneqd`: the OneQ compile daemon.
//!
//! A long-lived HTTP/1.1 service over the full compile pipeline, with a
//! content-addressed result cache. See the crate docs (`oneq-service`)
//! and the README's service section for the endpoint contract.
//!
//! Usage:
//!
//! ```text
//! oneqd [OPTIONS]
//!
//!   --addr HOST:PORT          listen address (default 127.0.0.1:7878; port 0
//!                             picks an ephemeral port, printed at startup)
//!   --workers N               compile budget: worker threads, and the cap on
//!                             concurrent /v1/compile-batch line compiles
//!                             (default: available parallelism)
//!   --cache-capacity N        cached compile responses (default 256)
//!   --cache-shards N          cache mutex stripes (default 8; at most the capacity)
//!   --cache-dir PATH          persistent disk spill tier: an append-only
//!                             CRC-guarded record log surviving restarts
//!                             (default: off, memory-only). The directory
//!                             is advisory-locked (flock) while in use.
//!   --cache-disk-bytes BYTES  byte budget for --cache-dir
//!                             (default 268435456 = 256 MiB)
//!   --max-body BYTES          request body limit (default 4194304)
//!   --keep-alive-requests N   requests served per connection before the
//!                             server closes it (default 256)
//!   --idle-timeout-ms MS      idle time allowed between requests on a
//!                             kept-alive connection (default 5000)
//!   --io-timeout-ms MS        whole-exchange deadline: the budget a client
//!                             has to deliver a complete request once its
//!                             first byte arrives, and the budget the server
//!                             has to write the response (default 10000).
//!                             This is the slow-loris eviction knob.
//!   --max-connections N       open sockets the event loop will hold at
//!                             once (default 4096); excess connections
//!                             wait in the kernel accept backlog
//!   --trace-log PATH          append closed request traces as JSONL
//!                             (one object per request: id, route, status,
//!                             outcome, span tree; default: off — traces
//!                             stay in the in-memory ring only)
//!   --slow-ms MS              only log traces for requests that took
//!                             >= MS end to end (default 0: log every
//!                             request; needs --trace-log)
//! ```
//!
//! The daemon prints `oneqd: listening on http://ADDR` once ready and
//! exits 0 after a graceful shutdown (SIGTERM or ctrl-c): the listener
//! stops accepting, in-flight and queued requests finish, workers join.
//! Usage errors exit 2.

use oneq_service::server::{Server, ServerConfig};
use oneq_service::signal;

fn usage() -> ! {
    eprintln!(
        "usage: oneqd [--addr HOST:PORT] [--workers N] \
         [--cache-capacity N] [--cache-shards N] [--cache-dir PATH] \
         [--cache-disk-bytes BYTES] [--max-body BYTES] \
         [--keep-alive-requests N] [--idle-timeout-ms MS] [--io-timeout-ms MS] \
         [--max-connections N] [--trace-log PATH] [--slow-ms MS]"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, ServerConfig) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServerConfig::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("oneqd: {flag} needs a value");
            usage();
        })
    };
    let num = |s: String, flag: &str, min: usize| -> usize {
        match s.parse::<usize>() {
            Ok(v) if v >= min => v,
            _ => {
                eprintln!("oneqd: {flag} expects a number >= {min}, got `{s}`");
                usage();
            }
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = value(&mut i, "--addr"),
            "--workers" => config.workers = num(value(&mut i, "--workers"), "--workers", 1),
            "--cache-capacity" => {
                config.cache_capacity =
                    num(value(&mut i, "--cache-capacity"), "--cache-capacity", 1);
            }
            "--cache-shards" => {
                config.cache_shards = num(value(&mut i, "--cache-shards"), "--cache-shards", 1);
            }
            "--cache-dir" => {
                config.cache_dir = Some(std::path::PathBuf::from(value(&mut i, "--cache-dir")));
            }
            "--cache-disk-bytes" => {
                config.cache_disk_bytes =
                    num(value(&mut i, "--cache-disk-bytes"), "--cache-disk-bytes", 1) as u64;
            }
            "--max-body" => config.max_body = num(value(&mut i, "--max-body"), "--max-body", 1),
            "--keep-alive-requests" => {
                config.keep_alive_requests = num(
                    value(&mut i, "--keep-alive-requests"),
                    "--keep-alive-requests",
                    1,
                );
            }
            "--idle-timeout-ms" => {
                config.idle_timeout = std::time::Duration::from_millis(num(
                    value(&mut i, "--idle-timeout-ms"),
                    "--idle-timeout-ms",
                    1,
                ) as u64);
            }
            "--io-timeout-ms" => {
                config.io_timeout = std::time::Duration::from_millis(num(
                    value(&mut i, "--io-timeout-ms"),
                    "--io-timeout-ms",
                    1,
                ) as u64);
            }
            "--max-connections" => {
                config.max_connections =
                    num(value(&mut i, "--max-connections"), "--max-connections", 1);
            }
            "--trace-log" => {
                config.trace_log = Some(std::path::PathBuf::from(value(&mut i, "--trace-log")));
            }
            "--slow-ms" => {
                config.slow_ms = num(value(&mut i, "--slow-ms"), "--slow-ms", 0) as u64;
            }
            "--help" | "-h" => usage(),
            flag => {
                eprintln!("oneqd: unknown flag {flag}");
                usage();
            }
        }
        i += 1;
    }
    (addr, config)
}

fn main() {
    let (addr, config) = parse_args();
    signal::install();
    // Bind also opens the spill tier when --cache-dir is set, so the
    // failure here may be the listen socket *or* the cache directory
    // (unwritable, or flocked by another oneqd).
    let server = Server::bind(addr.as_str(), config.clone()).unwrap_or_else(|e| {
        eprintln!("oneqd: cannot start on {addr}: {e}");
        std::process::exit(2);
    });
    let local = server
        .local_addr()
        .expect("freshly bound listener has an address");
    // Scripts (CI, tests) wait for this exact line before sending traffic.
    println!("oneqd: listening on http://{local}");
    // The cache shape in force, which may have fewer stripes than asked.
    let metrics = server.state().metrics_snapshot();
    println!(
        "oneqd: {} workers, cache capacity {} over {} shard(s), \
         keep-alive {} req/conn, idle timeout {} ms, io timeout {} ms, \
         max connections {}",
        config.workers,
        metrics.gauge("oneqd_cache_memory_capacity", &[]),
        metrics.gauge("oneqd_cache_memory_shards", &[]),
        config.keep_alive_requests,
        config.idle_timeout.as_millis(),
        config.io_timeout.as_millis(),
        config.max_connections
    );
    if let Some(dir) = &config.cache_dir {
        println!(
            "oneqd: disk cache at {} (budget {} bytes)",
            dir.display(),
            config.cache_disk_bytes
        );
    }
    if let Some(path) = &config.trace_log {
        println!(
            "oneqd: trace log at {} (slow threshold {} ms)",
            path.display(),
            config.slow_ms
        );
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    if let Err(e) = server.run_until(signal::shutdown_requested) {
        eprintln!("oneqd: accept loop failed: {e}");
        std::process::exit(1);
    }
    println!("oneqd: shutdown complete");
}
