//! In-memory spans recorded from the benchmark's own driver code.
//!
//! A span is `(name, start, end, parent)`; spans opened under one root share
//! that root's `trace` id (one id per replay or probe). Nothing is written
//! while a replay runs: the recorder keeps spans in a `Vec` and
//! [`Spans::to_chrome_trace`] renders them once the workload ends. A layer's
//! *self time* is its span minus the part of it its child spans cover, so
//! the self times under one root always add up to the root's wall time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer call the span wraps, e.g. `query.preprocess`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<u32>,
    /// Id shared by every span under the same root.
    pub trace: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder of one benchmark process.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    next_trace: u32,
}

impl Spans {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_trace: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open span (a new root, with a fresh
    /// trace id, if none is open) and returns its index for [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let parent = self.open.last().copied();
        let trace = match parent {
            Some(p) => self.spans[p as usize].trace,
            None => {
                self.next_trace += 1;
                self.next_trace
            }
        };
        let id = self.spans.len() as u32;
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            trace,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns its
    /// duration in seconds.
    ///
    /// # Panics
    /// Panics if `id` is not the innermost open span — spans nest strictly.
    pub fn exit(&mut self, id: u32) -> f64 {
        let now = self.ns(Instant::now());
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.duration_ns() as f64 * 1e-9
    }

    /// Runs `f` inside a span and returns its result with the span's seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name);
        let out = f();
        let secs = self.exit(id);
        (out, secs)
    }

    /// Records an already-measured interval as a closed child of the
    /// innermost open span — for calls timed where the recorder is out of
    /// reach (the scheduler's `pick`, called from inside the engine).
    ///
    /// # Panics
    /// Panics if no span is open.
    pub fn child(&mut self, name: &'static str, start: Instant, end: Instant) {
        let parent = *self.open.last().expect("a child span needs an open parent");
        let trace = self.spans[parent as usize].trace;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            trace,
        });
    }

    /// Every span recorded so far, in open order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of all spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Self seconds per span name among the spans of `trace`: each span's
    /// duration minus its direct children's, summed by name.
    pub fn self_times_s(&self, trace: u32) -> BTreeMap<&'static str, f64> {
        let mut self_ns: Vec<i128> = self.spans.iter().map(|s| s.duration_ns() as i128).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p as usize] -= s.duration_ns() as i128;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            if s.trace == trace {
                *by_name.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
            }
        }
        by_name
    }

    /// The trace id of span `id`.
    pub fn trace_of(&self, id: u32) -> u32 {
        self.spans[id as usize].trace
    }

    /// Renders every span as a Chrome trace-event document (`ph: "X"`
    /// complete events, microsecond timestamps; loadable in Perfetto or
    /// `chrome://tracing`). `args` carry the span's own index, its parent's
    /// and its trace id, so the tree can be rebuilt from the file alone.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"trace\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.trace,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                i,
                parent,
                s.trace,
            )
            .expect("writing to a String");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A recorder with hand-placed spans: root 0..100, a 10..40 with its own
    /// child 20..25, b 50..90; a second root 200..230 with one child.
    fn fixture() -> Spans {
        let mut s = Spans::new();
        let at = |ns: u64| s.origin + Duration::from_nanos(ns);
        let (t10, t20, t25, t40, t50, t90) = (at(10), at(20), at(25), at(40), at(50), at(90));
        let span = |name, start_ns, end_ns, parent, trace| Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace,
        };
        s.spans.push(span("root", 0, 100, None, 1));
        s.open.push(0);
        s.child("a", t10, t40);
        s.open.push(1);
        s.child("pick", t20, t25);
        s.open.pop();
        s.child("b", t50, t90);
        s.open.pop();
        s.spans.push(span("probe", 200, 230, None, 2));
        s.spans.push(span("a", 205, 215, Some(4), 2));
        s.next_trace = 2;
        s
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let s = fixture();
        let t = s.self_times_s(1);
        let ns = |name: &str| (t[name] * 1e9).round() as i64;
        assert_eq!(ns("root"), 100 - 30 - 40);
        assert_eq!(ns("a"), 30 - 5);
        assert_eq!(ns("pick"), 5);
        assert_eq!(ns("b"), 40);
        // Self times under one root add up to the root's wall time.
        let sum: f64 = t.values().sum();
        assert!((sum * 1e9 - 100.0).abs() < 1e-6);
        // The second trace is accounted separately.
        let t2 = s.self_times_s(2);
        assert_eq!((t2["probe"] * 1e9).round() as i64, 20);
        assert_eq!((t2["a"] * 1e9).round() as i64, 10);
        assert!(!t2.contains_key("b"));
    }

    #[test]
    fn totals_sum_every_span_of_a_name() {
        let s = fixture();
        assert!((s.total_s("a") * 1e9 - 40.0).abs() < 1e-6);
        assert_eq!(s.total_s("missing"), 0.0);
    }

    #[test]
    fn enter_and_exit_nest_and_share_the_root_trace_id() {
        let mut s = Spans::new();
        let root = s.enter("root");
        let (value, secs) = s.time("inner", || 7);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        s.exit(root);
        let other = s.enter("other");
        s.exit(other);
        let all = s.all();
        assert_eq!(all[1].parent, Some(root));
        assert_eq!(all[1].trace, all[0].trace);
        assert_ne!(s.trace_of(other), s.trace_of(root));
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_panics() {
        let mut s = Spans::new();
        let a = s.enter("a");
        let _b = s.enter("b");
        s.exit(a);
    }

    #[test]
    fn chrome_trace_lists_every_span_with_its_parent() {
        let doc = fixture().to_chrome_trace();
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 6);
        assert!(doc.contains("\"name\":\"pick\""));
        assert!(doc.contains("\"args\":{\"id\":2,\"parent\":1,\"trace\":1}"));
        assert!(doc.contains("\"parent\":null"));
    }
}
