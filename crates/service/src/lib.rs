//! # oneq-service
//!
//! The serving layer over the OneQ pipeline: a std-only concurrent
//! compile service with a content-addressed result cache.
//!
//! The `oneqd` binary is a long-lived daemon serving a versioned `/v1`
//! API that keeps the compiler hot and amortizes work across requests:
//!
//! * a hand-rolled HTTP/1.1 server ([`http`], [`server`]) over
//!   `std::net::TcpListener` with persistent (keep-alive) connection
//!   sessions on both sides — no external dependencies, consistent with
//!   the workspace's vendored-offline policy;
//! * a readiness-driven connection core (the Unix-only `poll` and `conn`
//!   modules): one event loop owns every socket via `poll(2)`, feeding
//!   nonblocking reads through the resumable [`http::RequestParser`], so
//!   open connections cost a file descriptor each — never a thread — and
//!   a slow-loris client is evicted by deadline instead of pinning a
//!   worker;
//! * one shared request model ([`request`]): the same
//!   [`request::CompileRequest`] is built from CLI flags (`oneqc`),
//!   from `/v1/compile` query parameters, and from
//!   `/v1/compile-batch` JSONL lines, and its single `fingerprint`
//!   method feeds the cache key everywhere;
//! * the worker pools ([`pool`]): the daemon's FIFO job queue, and the
//!   input-ordered batch pool it shares with the batch drivers;
//! * a sharded, mutex-striped, content-addressed LRU cache ([`cache`])
//!   keyed by a hand-written SHA-256 digest over canonicalized source
//!   bytes × compile config (entries hold the 32-byte digest, never the
//!   source);
//! * an optional persistent disk tier behind the LRU ([`spill`],
//!   [`segment`]): an append-only, CRC-guarded record log that survives
//!   restarts (`oneqd --cache-dir`), so a warm restart answers
//!   previously-compiled sources from disk instead of recompiling — the
//!   on-disk format is specified in `docs/CACHE_FORMAT.md`;
//! * one entry point over both tiers,
//!   [`cache::TieredCache::get_or_compile`], which runs the whole miss
//!   protocol: memory, then disk, then one compile per key, with N racing
//!   misses on one key coalesced onto a single leader's compile;
//! * graceful shutdown on SIGTERM/ctrl-c ([`signal`]);
//! * end-to-end telemetry ([`telemetry`], built on the `oneq-obs` crate):
//!   every request carries an `X-Oneqd-Request-Id` (inbound or minted)
//!   and a span trace, latencies land in log-linear histograms, and one
//!   registry snapshot renders both `GET /v1/metrics` (Prometheus text
//!   exposition) and `GET /v1/stats` — the two surfaces cannot disagree.
//!
//! The crate-level architecture — the dependency DAG and the life of a
//! `/v1/compile` request through these layers — is documented in
//! `docs/ARCHITECTURE.md`.
//!
//! The compile path itself ([`compile`]) and the JSON emission helpers
//! ([`json`]) are the *same modules* `oneqc` and the bench drivers use,
//! which is what makes the service's contract — `/v1/compile` responses
//! byte-identical to `oneqc` JSONL records — hold by construction.
//!
//! # Example
//!
//! ```
//! use oneq_service::server::{Server, ServerConfig};
//! use std::time::Duration;
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let handle = server.spawn().unwrap();
//! // One keep-alive session, many exchanges.
//! let mut conn =
//!     oneq_service::http::ClientConn::connect(handle.addr(), Duration::from_secs(5)).unwrap();
//! let resp = conn.send("GET", "/v1/healthz", b"").unwrap();
//! assert_eq!(resp.status, 200);
//! let resp = conn.send("GET", "/v1/stats", b"").unwrap();
//! assert_eq!(resp.status, 200);
//! handle.shutdown().unwrap();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod compile;
#[cfg(unix)]
mod conn;
pub mod corpus;
pub mod http;
pub mod json;
#[cfg(unix)]
mod poll;
pub mod pool;
pub mod request;
pub mod segment;
pub mod server;
pub mod signal;
pub mod spill;
pub mod telemetry;
