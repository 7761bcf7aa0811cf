//! In-memory spans around the benchmark's calls into the program.
//!
//! A span is a name, a start, an end and the span that was open when it began. Spans
//! stay in memory while measuring and are written out once, at exit, as a Chrome
//! trace. The recorder is single-threaded: every probe in trace mode drives the
//! program from one thread.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// When it began.
    pub start_ns: u64,
    /// When it ended (0 while still open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time from start to end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in call order.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(index);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
        });
        index
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn exit(&mut self, index: usize) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(index),
            "spans must close innermost first"
        );
        self.spans[index].end_ns = end_ns;
    }

    /// Records one span around `call`.
    pub fn span<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let index = self.enter(name);
        let out = call();
        self.exit(index);
        out
    }

    /// Every span recorded so far, in the order they began.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded so far (a mark to aggregate from later).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// A span's own time: its duration minus the part of it covered by its direct
    /// children.
    pub fn self_time_ns(&self, index: usize) -> u64 {
        let span = self.spans[index];
        // Spans are in start order: what the parent encloses follows it directly and
        // ends where the first span that starts after the parent's end begins.
        let covered: u64 = self.spans[index + 1..]
            .iter()
            .take_while(|later| later.start_ns < span.end_ns)
            .filter(|child| child.parent == Some(index))
            .map(|child| {
                let start = child.start_ns.max(span.start_ns);
                let end = child.end_ns.min(span.end_ns);
                end.saturating_sub(start)
            })
            .sum();
        span.duration_ns().saturating_sub(covered)
    }

    /// Mean duration in nanoseconds of the spans called `name` recorded since `mark`,
    /// and how many there were.
    pub fn mean_since(&self, mark: usize, name: &str) -> (f64, usize) {
        let (total, count) = self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0usize), |(t, c), s| (t + s.duration_ns(), c + 1));
        if count == 0 {
            (f64::NAN, 0)
        } else {
            (total as f64 / count as f64, count)
        }
    }

    /// Renders every closed span in Chrome's Trace Event Format (complete events,
    /// microsecond timestamps), loadable in `chrome://tracing` or Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        let mut first = true;
        for span in self
            .spans
            .iter()
            .filter(|s| s.end_ns >= s.start_ns && s.end_ns > 0)
        {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder holding hand-written spans, so times are exact.
    fn fixed(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Recorder {
        let mut r = Recorder::new();
        r.spans = spans
            .iter()
            .map(|&(name, start_ns, end_ns, parent)| Span {
                name,
                start_ns,
                end_ns,
                parent,
            })
            .collect();
        r
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // round [0, 100] holds a [10, 30] and b [40, 90]; b holds c [50, 60].
        let r = fixed(&[
            ("round", 0, 100, None),
            ("a", 10, 30, Some(0)),
            ("b", 40, 90, Some(0)),
            ("c", 50, 60, Some(2)),
        ]);
        assert_eq!(r.self_time_ns(0), 100 - 20 - 50);
        assert_eq!(r.self_time_ns(1), 20);
        assert_eq!(r.self_time_ns(2), 50 - 10);
        assert_eq!(r.self_time_ns(3), 10);
    }

    #[test]
    fn self_time_clips_a_child_that_outlives_its_parent() {
        let r = fixed(&[("p", 0, 50, None), ("late", 40, 80, Some(0))]);
        assert_eq!(r.self_time_ns(0), 40);
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut r = Recorder::new();
        r.span("round", || ());
        let outer = r.enter("round");
        r.span("step", || std::hint::black_box(1 + 1));
        r.span("apply", || ());
        r.exit(outer);
        let parents: Vec<_> = r.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("round", None),
                ("round", None),
                ("step", Some(1)),
                ("apply", Some(1))
            ]
        );
        let round = r.spans()[1];
        let children: u64 = r.spans()[2..].iter().map(Span::duration_ns).sum();
        assert_eq!(r.self_time_ns(1), round.duration_ns() - children);
    }

    #[test]
    fn means_are_taken_from_a_mark() {
        let mut r = fixed(&[("x", 0, 10, None), ("x", 20, 50, None), ("y", 60, 61, None)]);
        assert_eq!(r.mean_since(0, "x"), (20.0, 2));
        assert_eq!(r.mean_since(1, "x"), (30.0, 1));
        assert_eq!(r.mean_since(0, "z").1, 0);
        r.span("x", || ());
        assert_eq!(r.mark(), 4);
    }

    #[test]
    fn chrome_trace_lists_closed_spans() {
        let r = fixed(&[("a", 1_000, 3_500, None), ("open", 4_000, 0, None)]);
        let text = r.to_chrome_trace();
        assert!(text.contains("\"name\": \"a\", \"ph\": \"X\""));
        assert!(text.contains("\"ts\": 1.000, \"dur\": 2.500"));
        assert!(!text.contains("open"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }
}
