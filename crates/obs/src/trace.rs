//! Structured per-request traces: a span tree per request id, a bounded
//! in-memory ring of recent traces, and a single-line JSON encoding for the
//! `oneqd --trace-log` JSONL sink.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// One timed phase inside a request, offset-addressed from request start.
#[derive(Clone, Debug, Default)]
pub struct Span {
    /// Phase name (`read`, `queue`, `handle`, `cache`, `compile.mapping`,
    /// `write`, ...).
    pub name: &'static str,
    /// Nanoseconds from request start to span start.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Optional numeric attributes (per-partition compile profile counters
    /// and the like). Empty for plain timing spans; keys are fixed at the
    /// call site, never client-controlled.
    pub attrs: Vec<(&'static str, u64)>,
}

impl Span {
    /// Construct a span with no attributes.
    pub fn new(name: &'static str, start_ns: u64, dur_ns: u64) -> Self {
        Span {
            name,
            start_ns,
            dur_ns,
            attrs: Vec::new(),
        }
    }

    /// The same span carrying numeric attributes.
    pub fn with_attrs(mut self, attrs: Vec<(&'static str, u64)>) -> Self {
        self.attrs = attrs;
        self
    }
}

/// A completed request trace: identity, outcome, and its span tree.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// Request id (inbound `X-Oneqd-Request-Id` or generated).
    pub id: String,
    /// Connection id the request arrived on.
    pub conn: u64,
    /// Matched route (e.g. `/v1/compile`).
    pub route: String,
    /// HTTP status of the response.
    pub status: u16,
    /// Cache outcome for compile routes (`memory`/`disk`/`miss`/`coalesced`/
    /// `bypass`), empty otherwise.
    pub outcome: String,
    /// End-to-end duration (first request byte to last response byte)
    /// as the sum of the request's laps.
    pub total_ns: u64,
    /// Wall time from the first request byte to the last response byte
    /// that no lap covers: the wall clock minus `total_ns`.
    pub unaccounted_ns: u64,
    /// Timed phases, in start order.
    pub spans: Vec<Span>,
}

impl TraceRecord {
    /// Encode as a single JSON line (no trailing newline). Spans with
    /// attributes gain an `"attrs"` object; plain spans render exactly as
    /// before, so pre-existing trace-log consumers see unchanged lines.
    ///
    /// ```
    /// use oneq_obs::{Span, TraceRecord};
    ///
    /// let record = TraceRecord {
    ///     id: "abc-1".to_string(),
    ///     conn: 3,
    ///     route: "/v1/compile".to_string(),
    ///     status: 200,
    ///     outcome: "miss".to_string(),
    ///     total_ns: 1500,
    ///     unaccounted_ns: 20,
    ///     spans: vec![Span::new("read", 0, 500)],
    /// };
    /// assert_eq!(
    ///     record.to_json(),
    ///     "{\"request_id\": \"abc-1\", \"conn\": 3, \"route\": \"/v1/compile\", \
    ///      \"status\": 200, \"outcome\": \"miss\", \"total_ns\": 1500, \
    ///      \"unaccounted_ns\": 20, \"spans\": \
    ///      [{\"name\": \"read\", \"start_ns\": 0, \"dur_ns\": 500}]}"
    /// );
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.spans.len() * 48);
        out.push_str("{\"request_id\": ");
        push_json_string(&mut out, &self.id);
        out.push_str(", \"conn\": ");
        out.push_str(&self.conn.to_string());
        out.push_str(", \"route\": ");
        push_json_string(&mut out, &self.route);
        out.push_str(", \"status\": ");
        out.push_str(&self.status.to_string());
        out.push_str(", \"outcome\": ");
        push_json_string(&mut out, &self.outcome);
        out.push_str(", \"total_ns\": ");
        out.push_str(&self.total_ns.to_string());
        out.push_str(", \"unaccounted_ns\": ");
        out.push_str(&self.unaccounted_ns.to_string());
        out.push_str(", \"spans\": [");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"name\": ");
            push_json_string(&mut out, span.name);
            out.push_str(", \"start_ns\": ");
            out.push_str(&span.start_ns.to_string());
            out.push_str(", \"dur_ns\": ");
            out.push_str(&span.dur_ns.to_string());
            if !span.attrs.is_empty() {
                out.push_str(", \"attrs\": {");
                for (j, (key, value)) in span.attrs.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    push_json_string(&mut out, key);
                    out.push_str(": ");
                    out.push_str(&value.to_string());
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Appends `s` to `out` with JSON string escaping: quotes, backslashes,
/// and every control character below U+0020. The surrounding quotes are
/// the caller's.
///
/// ```
/// let mut out = String::new();
/// oneq_obs::escape_json_into(&mut out, "say \"hi\"\n\u{1}");
/// assert_eq!(out, r#"say \"hi\"\n\u0001"#);
/// ```
pub fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// `s` as a quoted JSON string.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    escape_json_into(out, s);
    out.push('"');
}

/// A bounded ring of the most recent [`TraceRecord`]s.
///
/// Pushing beyond capacity evicts the oldest record; `pushed()` keeps the
/// all-time total so a reader can tell how much history the ring dropped.
#[derive(Debug)]
pub struct TraceBuffer {
    capacity: usize,
    ring: Mutex<VecDeque<TraceRecord>>,
    pushed: AtomicU64,
}

impl TraceBuffer {
    /// Create a ring holding at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceBuffer {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            pushed: AtomicU64::new(0),
        }
    }

    /// Append a record, evicting the oldest when full.
    pub fn push(&self, record: TraceRecord) {
        // ORDERING: Relaxed — `pushed` is an all-time statistic; record
        // visibility itself is ordered by the ring Mutex, not this counter.
        self.pushed.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring poisoned").len()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All-time number of records pushed (including evicted ones).
    pub fn pushed(&self) -> u64 {
        // ORDERING: Relaxed — statistics read with no dependent data.
        self.pushed.load(Ordering::Relaxed)
    }

    /// Clone out the newest `n` records, oldest first.
    pub fn recent(&self, n: usize) -> Vec<TraceRecord> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        let skip = ring.len().saturating_sub(n);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Look up the newest buffered record with the given request id.
    ///
    /// Ids are adopted from clients, so duplicates are possible; the newest
    /// match wins (it is the one the client just received the id for).
    /// Returns `None` once the record has been evicted by the ring bound.
    pub fn get(&self, id: &str) -> Option<TraceRecord> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        ring.iter().rev().find(|r| r.id == id).cloned()
    }

    /// Filtered scan, newest first, at most `limit` records.
    ///
    /// Each filter is conjunctive: `route` matches exactly, `status` matches
    /// exactly, `min_total_ns` keeps records at least that slow. The lock is
    /// held for one bounded pass over the ring (≤ capacity records).
    pub fn query(
        &self,
        route: Option<&str>,
        status: Option<u16>,
        min_total_ns: Option<u64>,
        limit: usize,
    ) -> Vec<TraceRecord> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        ring.iter()
            .rev()
            .filter(|r| route.map_or(true, |want| r.route == want))
            .filter(|r| status.map_or(true, |want| r.status == want))
            .filter(|r| min_total_ns.map_or(true, |want| r.total_ns >= want))
            .take(limit)
            .cloned()
            .collect()
    }

    /// The `n` slowest buffered records by end-to-end time, slowest first.
    /// Ties break toward the newer record so a fresh spike outranks stale
    /// history at the same latency.
    pub fn slowest(&self, n: usize) -> Vec<TraceRecord> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        let mut all: Vec<TraceRecord> = ring.iter().cloned().collect();
        drop(ring);
        // Newest-first before the stable sort ⇒ newer wins ties.
        all.reverse();
        all.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
        all.truncate(n);
        all
    }
}

/// Request-id generator: a per-process random-ish prefix plus a sequence
/// number, unique within and across daemon restarts for all practical
/// purposes.
#[derive(Debug)]
pub struct RequestIds {
    prefix: u64,
    seq: AtomicU64,
}

impl RequestIds {
    /// Seed a generator from wall-clock time and the process id.
    pub fn new() -> Self {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        // FNV-1a mix of time and pid: cheap, std-only, and good enough to
        // keep prefixes from colliding across restarts.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in nanos
            .to_le_bytes()
            .into_iter()
            .chain(u64::from(std::process::id()).to_le_bytes())
        {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        RequestIds {
            prefix: h,
            seq: AtomicU64::new(0),
        }
    }

    /// Mint the next id, e.g. `3f9c2d10a4e8b761-000001`.
    pub fn next(&self) -> String {
        // ORDERING: Relaxed — fetch_add's atomicity alone guarantees unique
        // ids; no other memory is published under this sequence number.
        let n = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        format!("{:016x}-{:06x}", self.prefix, n)
    }
}

impl Default for RequestIds {
    fn default() -> Self {
        RequestIds::new()
    }
}

/// Whether an inbound `X-Oneqd-Request-Id` value is safe to adopt: 1–64
/// characters drawn from `[A-Za-z0-9._-]`. Anything else is replaced with a
/// generated id so client input cannot corrupt trace logs or headers.
pub fn valid_request_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str) -> TraceRecord {
        TraceRecord {
            id: id.to_string(),
            conn: 1,
            route: "/v1/healthz".to_string(),
            status: 200,
            outcome: String::new(),
            total_ns: 10,
            unaccounted_ns: 0,
            spans: Vec::new(),
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_all_pushes() {
        let ring = TraceBuffer::new(3);
        for i in 0..5 {
            ring.push(record(&format!("r{i}")));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.pushed(), 5);
        let ids: Vec<String> = ring.recent(10).into_iter().map(|r| r.id).collect();
        assert_eq!(ids, ["r2", "r3", "r4"]);
        let newest: Vec<String> = ring.recent(1).into_iter().map(|r| r.id).collect();
        assert_eq!(newest, ["r4"]);
    }

    #[test]
    fn json_encoding_escapes_hostile_ids() {
        let mut r = record("a\"b\\c\nd");
        r.spans.push(Span::new("read", 0, 2));
        let line = r.to_json();
        assert!(line.contains("\"request_id\": \"a\\\"b\\\\c\\nd\""));
        assert!(!line.contains('\n'), "record stays on one line");
    }

    #[test]
    fn escape_json_into_appends() {
        let mut out = String::from("x");
        escape_json_into(&mut out, "\"");
        assert_eq!(out, "x\\\"");
    }

    #[test]
    fn span_attrs_render_as_a_json_object_only_when_present() {
        let mut r = record("attrs-1");
        r.spans.push(Span::new("read", 0, 2));
        r.spans.push(
            Span::new("compile.mapping.partition", 2, 5)
                .with_attrs(vec![("partition", 0), ("bfs_expansions", 42)]),
        );
        let line = r.to_json();
        assert!(line.contains(
            "{\"name\": \"read\", \"start_ns\": 0, \"dur_ns\": 2}, \
             {\"name\": \"compile.mapping.partition\", \"start_ns\": 2, \"dur_ns\": 5, \
             \"attrs\": {\"partition\": 0, \"bfs_expansions\": 42}}"
        ));
    }

    fn shaped(id: &str, route: &str, status: u16, total_ns: u64) -> TraceRecord {
        TraceRecord {
            id: id.to_string(),
            conn: 1,
            route: route.to_string(),
            status,
            outcome: String::new(),
            total_ns,
            unaccounted_ns: 0,
            spans: Vec::new(),
        }
    }

    #[test]
    fn get_finds_the_newest_match_and_respects_eviction() {
        let ring = TraceBuffer::new(3);
        ring.push(shaped("dup", "/v1/compile", 200, 10));
        ring.push(shaped("dup", "/v1/compile", 500, 20));
        assert_eq!(ring.get("dup").expect("present").status, 500);
        assert!(ring.get("absent").is_none());
        for i in 0..3 {
            ring.push(shaped(&format!("r{i}"), "/v1/healthz", 200, 1));
        }
        assert!(ring.get("dup").is_none(), "evicted records are gone");
    }

    #[test]
    fn query_filters_conjunctively_newest_first() {
        let ring = TraceBuffer::new(16);
        ring.push(shaped("a", "/v1/compile", 200, 1_000_000));
        ring.push(shaped("b", "/v1/compile", 422, 2_000_000));
        ring.push(shaped("c", "/v1/healthz", 200, 10));
        ring.push(shaped("d", "/v1/compile", 200, 9_000_000));
        let ids = |records: Vec<TraceRecord>| -> Vec<String> {
            records.into_iter().map(|r| r.id).collect()
        };
        assert_eq!(ids(ring.query(None, None, None, 10)), ["d", "c", "b", "a"]);
        assert_eq!(
            ids(ring.query(Some("/v1/compile"), Some(200), None, 10)),
            ["d", "a"]
        );
        assert_eq!(
            ids(ring.query(Some("/v1/compile"), None, Some(2_000_000), 10)),
            ["d", "b"]
        );
        assert_eq!(ids(ring.query(None, None, None, 2)), ["d", "c"]);
        assert!(ring.query(Some("/nope"), None, None, 10).is_empty());
    }

    #[test]
    fn slowest_sorts_by_total_with_newer_winning_ties() {
        let ring = TraceBuffer::new(16);
        ring.push(shaped("old-tie", "/v1/compile", 200, 500));
        ring.push(shaped("fast", "/v1/healthz", 200, 10));
        ring.push(shaped("slow", "/v1/compile", 200, 9_000));
        ring.push(shaped("new-tie", "/v1/compile", 200, 500));
        let ids: Vec<String> = ring.slowest(3).into_iter().map(|r| r.id).collect();
        assert_eq!(ids, ["slow", "new-tie", "old-tie"]);
    }

    #[test]
    fn request_id_validation() {
        assert!(valid_request_id("abc-123.DEF_x"));
        assert!(!valid_request_id(""));
        assert!(!valid_request_id("has space"));
        assert!(!valid_request_id("bad\nnewline"));
        assert!(!valid_request_id(&"x".repeat(65)));
    }

    #[test]
    fn generated_ids_are_distinct() {
        let ids = RequestIds::new();
        let a = ids.next();
        let b = ids.next();
        assert_ne!(a, b);
        assert!(valid_request_id(&a), "generated ids pass validation: {a}");
    }
}
