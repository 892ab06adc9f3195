//! # oneq-obs — observability primitives for the OneQ service stack
//!
//! Everything the daemon needs to explain its own latency, built on std
//! alone:
//!
//! - [`Registry`] — named counter/gauge/histogram families with label sets.
//!   Registration locks; recording is a relaxed atomic op. A [`Snapshot`]
//!   is plain owned data that renders to Prometheus text exposition format
//!   ([`Snapshot::render_prometheus`]) and answers point lookups, so
//!   `/v1/metrics` and `/v1/stats` are two views of one capture.
//! - [`Histogram`] — log-linear HDR-style latency histogram over nanosecond
//!   observations (≤ 12.5% relative bucket width), with mergeable
//!   [`HistogramSnapshot`]s and nearest-rank quantiles.
//! - [`TraceRecord`] / [`TraceBuffer`] — per-request span trees in a bounded
//!   ring, encoded one JSON object per line for the `--trace-log` sink.
//! - [`RequestIds`] / [`valid_request_id`] — `X-Oneqd-Request-Id` minting
//!   and inbound-id hygiene.
//!
//! The crate knows nothing about HTTP or the compiler pipeline; the service
//! decides what to measure, this crate decides how measurements are stored,
//! merged, and rendered.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod registry;
mod trace;

pub use hist::{
    bucket_index, bucket_upper, Exemplar, Histogram, HistogramSnapshot, NUM_BUCKETS, SUB_COUNT,
};
pub use registry::{Counter, Gauge, Kind, Registry, SnapFamily, SnapSeries, SnapValue, Snapshot};
pub use trace::{escape_json_into, valid_request_id, RequestIds, Span, TraceBuffer, TraceRecord};

/// Saturating conversion of a [`std::time::Duration`] to whole nanoseconds.
pub fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
