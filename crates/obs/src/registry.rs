//! The metrics registry: named counter/gauge/histogram families with label
//! sets, snapshotted as plain data and rendered to Prometheus text format.
//!
//! Registration takes a lock; recording never does — handles returned by
//! [`Registry::counter`] / [`Registry::gauge`] / [`Registry::histogram`] are
//! cheap clones around shared atomics. Registration is idempotent: asking
//! for an existing `(name, labels)` pair returns a handle to the same
//! underlying series, so independent subsystems can share a metric without
//! coordinating.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{bucket_upper, Exemplar, Histogram, HistogramSnapshot};

/// A monotone counter handle (relaxed atomic increments).
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    // ORDERING: Relaxed throughout — each counter cell is an independent
    // monotonic statistic; no reader derives cross-metric invariants from
    // load order, so no acquire/release pairing is needed.
    /// Increment by one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can move in both directions.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicU64>,
}

impl Gauge {
    // ORDERING: Relaxed throughout — gauges are point-in-time readings;
    // `set_max` relies only on fetch_max's atomicity, not on ordering
    // against other memory.
    /// Set the gauge.
    pub fn set(&self, n: u64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// Raise the gauge to `n` if `n` is higher — a lock-free high-water
    /// mark for peak-style gauges fed from many threads.
    pub fn set_max(&self, n: u64) {
        self.value.fetch_max(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Metric kind, fixed per family at first registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotone counter.
    Counter,
    /// Bidirectional gauge.
    Gauge,
    /// Log-linear latency histogram (nanosecond observations, exposed in
    /// seconds).
    Histogram,
}

impl Kind {
    fn exposition_name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Series {
    labels: Vec<(String, String)>,
    metric: Metric,
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: Kind,
    series: Vec<Series>,
}

/// The metrics registry. One per daemon; shared via `Arc`.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register (or fetch) a counter series.
    ///
    /// # Panics
    /// Panics if `name` was previously registered with a different kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, labels, Kind::Counter, || {
            Metric::Counter(Counter::default())
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Register (or fetch) a gauge series.
    ///
    /// # Panics
    /// Panics if `name` was previously registered with a different kind.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, labels, Kind::Gauge, || {
            Metric::Gauge(Gauge::default())
        }) {
            Metric::Gauge(g) => g,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Register (or fetch) a histogram series.
    ///
    /// # Panics
    /// Panics if `name` was previously registered with a different kind.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, help, labels, Kind::Histogram, || {
            Metric::Histogram(Histogram::new())
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind checked in register"),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut families = self.families.lock().expect("registry poisoned");
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == kind,
                    "metric {name} registered as {:?} and {:?}",
                    f.kind,
                    kind
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(series) = family.series.iter().find(|s| label_eq(&s.labels, labels)) {
            return series.metric.clone();
        }
        let metric = make();
        family.series.push(Series {
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            metric: metric.clone(),
        });
        metric
    }

    /// Capture every registered series as plain owned data.
    ///
    /// Both `/v1/metrics` and `/v1/stats` render from one of these, which is
    /// what keeps the two surfaces from ever disagreeing about a value.
    pub fn snapshot(&self) -> Snapshot {
        let families = self.families.lock().expect("registry poisoned");
        Snapshot {
            families: families
                .iter()
                .map(|f| SnapFamily {
                    name: f.name.clone(),
                    help: f.help.clone(),
                    kind: f.kind,
                    series: f
                        .series
                        .iter()
                        .map(|s| SnapSeries {
                            labels: s.labels.clone(),
                            value: match &s.metric {
                                Metric::Counter(c) => SnapValue::Counter(c.get()),
                                Metric::Gauge(g) => SnapValue::Gauge(g.get()),
                                Metric::Histogram(h) => SnapValue::Histogram(h.snapshot()),
                            },
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

fn label_eq(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && have
            .iter()
            .zip(want.iter())
            .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

/// One captured value in a [`Snapshot`].
#[derive(Clone, Debug)]
pub enum SnapValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Full histogram state.
    Histogram(HistogramSnapshot),
}

/// One captured series: a label set and its value.
#[derive(Clone, Debug)]
pub struct SnapSeries {
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// The captured value.
    pub value: SnapValue,
}

/// One captured family: every series sharing a metric name.
#[derive(Clone, Debug)]
pub struct SnapFamily {
    /// Metric family name (e.g. `oneqd_requests_total`).
    pub name: String,
    /// Help text for the `# HELP` line.
    pub help: String,
    /// Family kind.
    pub kind: Kind,
    /// Captured series.
    pub series: Vec<SnapSeries>,
}

/// A point-in-time copy of every registered metric.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Captured families in registration order.
    pub families: Vec<SnapFamily>,
}

impl Snapshot {
    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SnapValue> {
        self.families
            .iter()
            .find(|f| f.name == name)?
            .series
            .iter()
            .find(|s| label_eq(&s.labels, labels))
            .map(|s| &s.value)
    }

    /// Counter value for `(name, labels)`, or 0 when absent.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.find(name, labels) {
            Some(SnapValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value for `(name, labels)`, or 0 when absent.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.find(name, labels) {
            Some(SnapValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Histogram snapshot for `(name, labels)` when present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match self.find(name, labels) {
            Some(SnapValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Render the snapshot in Prometheus text exposition format.
    ///
    /// Counters and gauges emit one sample per series; histograms emit
    /// cumulative `_bucket{le="..."}` samples over a fixed ladder of
    /// log-linear bucket boundaries (4.6 µs … 32 s, ≤ 25% spacing) plus
    /// `+Inf`, `_sum` (seconds), and `_count`. Observations are recorded in
    /// nanoseconds and exposed in seconds, formatted as exact decimals.
    ///
    /// ```
    /// use oneq_obs::Registry;
    ///
    /// let registry = Registry::new();
    /// registry.counter("demo_requests_total", "Requests served.", &[]).add(3);
    /// registry
    ///     .counter("demo_outcomes_total", "Outcomes by tier.", &[("tier", "memory")])
    ///     .inc();
    /// registry.gauge("demo_open_connections", "Open sockets.", &[]).set(7);
    /// registry
    ///     .histogram("demo_latency_seconds", "Request latency.", &[])
    ///     .record(1_000_000); // 1 ms, recorded in nanoseconds
    ///
    /// let text = registry.snapshot().render_prometheus();
    /// assert!(text.contains("# TYPE demo_requests_total counter\n"));
    /// assert!(text.contains("demo_requests_total 3\n"));
    /// assert!(text.contains("demo_outcomes_total{tier=\"memory\"} 1\n"));
    /// assert!(text.contains("# TYPE demo_open_connections gauge\n"));
    /// assert!(text.contains("demo_open_connections 7\n"));
    /// assert!(text.contains("# TYPE demo_latency_seconds histogram\n"));
    /// assert!(text.contains("demo_latency_seconds_bucket{le=\"+Inf\"} 1\n"));
    /// assert!(text.contains("demo_latency_seconds_sum 0.001000000\n"));
    /// assert!(text.contains("demo_latency_seconds_count 1\n"));
    /// ```
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for family in &self.families {
            out.push_str("# HELP ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(&family.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&family.name);
            out.push(' ');
            out.push_str(family.kind.exposition_name());
            out.push('\n');
            for series in &family.series {
                match &series.value {
                    SnapValue::Counter(v) | SnapValue::Gauge(v) => {
                        out.push_str(&family.name);
                        push_labels(&mut out, &series.labels, None);
                        out.push(' ');
                        out.push_str(&v.to_string());
                        out.push('\n');
                    }
                    SnapValue::Histogram(h) => render_histogram(&mut out, &family.name, series, h),
                }
            }
        }
        out
    }
}

/// First internal bucket index exposed as an explicit `le` boundary
/// (`bucket_upper(EXPO_FIRST)` = 4607 ns ≈ 4.6 µs).
const EXPO_FIRST: usize = 80;
/// Last internal bucket index exposed (≈ 32 s); everything above folds into
/// `+Inf`.
const EXPO_LAST: usize = 263;
/// Stride over internal buckets: every second boundary, ≤ 25% spacing.
const EXPO_STRIDE: usize = 2;

fn render_histogram(out: &mut String, name: &str, series: &SnapSeries, h: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    let mut next = 0usize;
    let mut window_lo = 0usize;
    for index in (EXPO_FIRST..=EXPO_LAST).step_by(EXPO_STRIDE) {
        while next < h.buckets.len() && next <= index {
            cumulative += h.buckets[next];
            next += 1;
        }
        out.push_str(name);
        out.push_str("_bucket");
        push_labels(out, &series.labels, Some(&fmt_seconds(bucket_upper(index))));
        out.push(' ');
        out.push_str(&cumulative.to_string());
        // Each exposed boundary annotates the newest exemplar from the
        // internal buckets it newly covers, so an exemplar appears on
        // exactly one ladder line — the first whose `le` admits it.
        push_exemplar(out, h.exemplar_in(window_lo, index));
        out.push('\n');
        window_lo = index + 1;
    }
    out.push_str(name);
    out.push_str("_bucket");
    push_labels(out, &series.labels, Some("+Inf"));
    out.push(' ');
    out.push_str(&h.count.to_string());
    push_exemplar(out, h.exemplar_in(window_lo, usize::MAX));
    out.push('\n');
    out.push_str(name);
    out.push_str("_sum");
    push_labels(out, &series.labels, None);
    out.push(' ');
    out.push_str(&fmt_seconds(h.sum_ns));
    out.push('\n');
    out.push_str(name);
    out.push_str("_count");
    push_labels(out, &series.labels, None);
    out.push(' ');
    out.push_str(&h.count.to_string());
    out.push('\n');
}

/// Exact decimal rendering of a nanosecond quantity as seconds.
fn fmt_seconds(ns: u64) -> String {
    format!("{}.{:09}", ns / 1_000_000_000, ns % 1_000_000_000)
}

/// OpenMetrics-style exemplar suffix on a bucket sample line:
/// ` # {request_id="..."} <value_seconds> <unix_seconds>`. Scrapers that
/// predate exemplars treat everything from `#` on as a comment, so the
/// base sample stays parseable either way.
fn push_exemplar(out: &mut String, exemplar: Option<&Exemplar>) {
    let Some(e) = exemplar else { return };
    out.push_str(" # {request_id=\"");
    push_escaped(out, &e.request_id);
    out.push_str("\"} ");
    out.push_str(&fmt_seconds(e.value_ns));
    out.push(' ');
    out.push_str(&format!("{}.{:03}", e.unix_ms / 1000, e.unix_ms % 1000));
}

fn push_labels(out: &mut String, labels: &[(String, String)], le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        push_escaped(out, v);
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
}

fn push_escaped(out: &mut String, value: &str) {
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_kind_checked() {
        let registry = Registry::new();
        let a = registry.counter("x_total", "x", &[("t", "a")]);
        let b = registry.counter("x_total", "x", &[("t", "a")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "both handles share one series");
        let other = registry.counter("x_total", "x", &[("t", "b")]);
        assert_eq!(other.get(), 0, "different labels, different series");
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_conflict_panics() {
        let registry = Registry::new();
        registry.counter("y_total", "y", &[]);
        registry.gauge("y_total", "y", &[]);
    }

    #[test]
    fn seconds_are_rendered_as_exact_decimals() {
        assert_eq!(fmt_seconds(0), "0.000000000");
        assert_eq!(fmt_seconds(1), "0.000000001");
        assert_eq!(fmt_seconds(1_000_000_000), "1.000000000");
        assert_eq!(fmt_seconds(12_345_678_901), "12.345678901");
    }

    #[test]
    fn histogram_exposition_is_cumulative_and_consistent() {
        let registry = Registry::new();
        let h = registry.histogram("z_seconds", "z", &[]);
        // One observation below the first boundary, one inside the ladder,
        // one beyond the last boundary.
        h.record(10);
        h.record(1_000_000);
        h.record(60_000_000_000);
        let text = registry.snapshot().render_prometheus();
        let inf = text
            .lines()
            .find(|l| l.starts_with("z_seconds_bucket{le=\"+Inf\"}"))
            .expect("+Inf bucket");
        assert!(inf.ends_with(" 3"));
        assert!(text.contains("z_seconds_count 3\n"));
        // Cumulative counts never decrease along the ladder.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("z_seconds_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "non-monotonic bucket line: {line}");
            last = v;
        }
    }

    #[test]
    fn exemplars_annotate_exactly_one_ladder_line_each() {
        let registry = Registry::new();
        let h = registry.histogram("ex_seconds", "ex", &[("route", "compile")]);
        h.record_with_exemplar(1_000_000, "req-mid"); // inside the ladder
        h.record_with_exemplar(60_000_000_000, "req-inf"); // beyond it
        h.record(2_000_000_000); // plain record: no annotation
        let text = registry.snapshot().render_prometheus();
        let annotated: Vec<&str> = text
            .lines()
            .filter(|l| l.contains(" # {request_id="))
            .collect();
        assert_eq!(annotated.len(), 2, "one line per exemplar:\n{text}");
        let mid = annotated
            .iter()
            .find(|l| l.contains("req-mid"))
            .expect("mid exemplar");
        // Suffix shape: sample, then `# {labels} value timestamp`.
        let (sample, suffix) = mid.split_once(" # ").unwrap();
        assert!(sample.starts_with("ex_seconds_bucket{route=\"compile\",le=\""));
        let mut parts = suffix.split(' ');
        assert_eq!(parts.next(), Some("{request_id=\"req-mid\"}"));
        assert_eq!(parts.next(), Some("0.001000000"));
        let ts = parts.next().expect("timestamp present");
        assert!(ts.contains('.'), "unix seconds with decimals: {ts}");
        assert_eq!(parts.next(), None);
        // The exemplar lands on the first boundary whose `le` admits it.
        let le_start = sample.find("le=\"").unwrap() + 4;
        let le = &sample[le_start..sample[le_start..].find('"').unwrap() + le_start];
        let (secs, frac) = le.split_once('.').unwrap();
        let le_ns = secs.parse::<u64>().unwrap() * 1_000_000_000 + frac.parse::<u64>().unwrap();
        assert!(le_ns >= 1_000_000, "boundary admits the value");
        // The out-of-ladder exemplar rides the +Inf line.
        assert!(annotated
            .iter()
            .any(|l| l.contains("le=\"+Inf\"") && l.contains("req-inf")));
    }
}
