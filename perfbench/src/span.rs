//! In-memory wall-time spans recorded around the benchmark's calls into
//! the library. A span has a name, start and end (monotonic ns since the
//! tracer was made), the span that was open when it began, and the op it
//! belongs to. Nothing is written until [`Tracer::write_jsonl`].

use std::io::{self, Write};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `serve.call`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Op (or probe) this span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; `None` while tracing is off.
#[must_use = "pass the handle to Tracer::exit"]
pub struct Open(Option<usize>);

/// Span recorder. While disabled, `enter`/`exit` record nothing.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A disabled tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off; must not be called inside a span.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span named `name` for `op`, nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes the span `open` refers to, which must be the innermost one,
    /// and returns its duration (0 while tracing is off).
    pub fn exit(&mut self, open: Open) -> u64 {
        let Some(idx) = open.0 else { return 0 };
        assert_eq!(self.stack.pop(), Some(idx), "spans closed out of order");
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].dur_ns()
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, mut out: impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children's intervals cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a by 10
            span("c", 15, 20, Some(1)), // grandchild: only a's business
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![100 - 50, 30 - 5, 30, 5]);
        // sequential children: self times of the whole tree sum to the root
        let seq = vec![
            span("op", 0, 100, None),
            span("a", 0, 40, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 50, 70, Some(2)),
        ];
        assert_eq!(self_times(&seq).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_reconciles() {
        let mut tr = Tracer::new();
        let off = tr.enter("ignored", 0);
        tr.exit(off);
        assert!(tr.spans().is_empty());
        tr.set_enabled(true);
        let op = tr.enter("op", 7);
        let call = tr.enter("call", 7);
        std::hint::black_box((0..1000).sum::<u64>());
        tr.exit(call);
        let check = tr.enter("check", 7);
        tr.exit(check);
        tr.exit(op);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(self_times(spans).iter().sum::<u64>(), spans[0].dur_ns());
        let mut buf = Vec::new();
        tr.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("\"name\": \"call\""));
        assert!(text.contains("\"parent\": null"));
    }
}
