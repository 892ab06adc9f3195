//! In-memory spans for the traced run, written out as JSONL at the end.
//!
//! A span records one call into a layer: its name, start and end, the
//! span that caused it, and the item (compile input or request) it
//! belongs to. A span's self time is its duration minus its children's.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index in [`Tracer::spans`].
    pub id: usize,
    /// The span this one was called from.
    pub parent: Option<usize>,
    /// The item (input or request) the span belongs to.
    pub item: usize,
    /// Layer entry point, e.g. `partition` or `service.cache_key`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-item facts the JSONL lines carry next to each span.
#[derive(Debug, Clone)]
pub struct ItemMeta {
    /// Input label (file name of the compiled program).
    pub input: String,
    /// Pass (paper/scale) or block (serve) the item belongs to.
    pub pass: usize,
    /// Normalization factor applied to the item's times.
    pub factor: f64,
}

/// Records spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        item: usize,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent,
            item,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span measured elsewhere (a request timed by the client)
    /// and opens it, so spans recorded until [`Tracer::close`] become its
    /// children.
    pub fn open(&mut self, name: &'static str, item: usize, start: Instant, end: Instant) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            id,
            parent,
            item,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.open.push(id);
        id
    }

    /// Closes the span [`Tracer::open`] returned.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
    }

    /// All spans so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus its children's
    /// durations, floored at zero.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.dur_ns());
            }
        }
        own
    }

    /// Renders the spans as JSONL, one span per line.
    pub fn to_jsonl(&self, workload: &str, seed: u64, items: &[ItemMeta]) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let meta = &items[s.item];
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"item\": {}, \"pass\": {}, \
                 \"input\": \"{}\", \"factor\": {}, \"id\": {}, \"parent\": {parent}, \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.item,
                meta.pass,
                oneq_service::json::escape(&meta.input),
                meta.factor,
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_spans_give_self_times() {
        let mut t = Tracer::default();
        t.span("item", 0, |t| {
            t.span("a", 0, |_| std::thread::sleep(Duration::from_millis(2)));
            t.span("b", 0, |t| {
                t.span("c", 0, |_| std::thread::sleep(Duration::from_millis(2)))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let own = t.self_ns();
        assert_eq!(
            own[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[2].dur_ns()
        );
        assert_eq!(own[2], spans[2].dur_ns() - spans[3].dur_ns());
        assert!(own[3] >= 2_000_000);
    }

    #[test]
    fn opened_spans_adopt_later_children_and_render_as_jsonl() {
        let mut t = Tracer::default();
        let t0 = Instant::now();
        let id = t.open("request", 0, t0, t0 + Duration::from_micros(50));
        t.span("service.cache_key", 0, |_| ());
        t.close(id);
        assert_eq!(t.spans()[1].parent, Some(id));
        let items = [ItemMeta {
            input: "job-0.qasm".into(),
            pass: 0,
            factor: 1.0,
        }];
        let jsonl = t.to_jsonl("serve", 7, &items);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"name\": \"service.cache_key\""));
        assert!(jsonl.contains("\"parent\": 0"));
    }
}
