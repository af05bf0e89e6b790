//! In-memory spans recorded around the benchmark's calls into each
//! layer of the simulator.
//!
//! A span has a name, a start, an end, the span that was open when it
//! began (its parent) and the id of the job it belongs to. Spans stay in
//! memory while the run goes and are written out once it ends. With
//! tracing off every call is a no-op, so untraced runs pay one branch
//! per boundary.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer operation, e.g. `machine.run`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Job the span belongs to; shared by every span of one job.
    pub job: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer timing from `origin`; records only when `on`.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off; open spans are unaffected.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, job: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            job,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes `id` and any span left open inside it (a job that
    /// panicked mid-call leaves its inner spans open).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, job);
        let out = f();
        self.exit(id);
        out
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves the spans of `other` (recorded from the same origin on
    /// another thread) into this tracer, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time per span name, in ns: each span's duration minus the part
/// its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
    }
    out
}

/// Writes spans as tab-separated `name start_ns end_ns parent job`
/// lines, parent `-` for roots.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name\tstart_ns\tend_ns\tparent\tjob")?;
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, parent, s.job
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "job",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                job: 1,
            },
            Span {
                name: "machine.run",
                start_ns: 10,
                end_ns: 70,
                parent: Some(0),
                job: 1,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["job"], 40);
        assert_eq!(t["machine.run"], 60);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.enter("job", 0);
        t.leaf("machine.new", 0, || ());
        t.exit(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn exit_closes_spans_left_open() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.enter("job", 3);
        let _inner = t.enter("machine.run", 3);
        t.exit(root);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.end_ns > 0));
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
