//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program under test is not touched: a span is opened by the benchmark
//! before a public call and closed after it. Spans stay in memory until the
//! run ends. A span's self time is its duration minus the part of it its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The operation (query, join, request) this span belongs to.
    pub op: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::enter`]; give it back to [`Tracer::exit`].
#[derive(Clone, Copy)]
pub struct SpanId(usize);

/// An in-memory span recorder for one thread. A tracer that is off records
/// nothing and costs one branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals: how many spans, their summed duration and self time.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    /// A tracer that records; all tracers of one run share `epoch`.
    pub fn on(epoch: Instant) -> Tracer {
        Tracer {
            on: true,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::on(Instant::now())
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span; returns its duration in seconds (0 when off).
    pub fn exit(&mut self, id: SpanId) -> f64 {
        if !self.on {
            return 0.0;
        }
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds. When the tracer is off the call is still timed,
    /// so callers get one code path.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        if self.on {
            let id = self.enter(name, op);
            let r = f();
            (r, self.exit(id))
        } else {
            let t0 = Instant::now();
            let r = f();
            (r, t0.elapsed().as_secs_f64())
        }
    }

    /// Appends another thread's spans (same epoch), keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name. Children of one span do
    /// not overlap (one thread, strict nesting), so the covered part of a
    /// span is the sum of its direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            let t = out.entry(s.name).or_default();
            let d = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += d;
            t.self_ns += d.saturating_sub(c);
        }
        out
    }

    /// Writes every span as one JSON array (name, op, parent, start, end).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::on(Instant::now());
        let outer = t.enter("outer", 7);
        let a = t.enter("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(a);
        let b = t.enter("inner", 7);
        t.exit(b);
        t.exit(outer);
        let totals = t.totals();
        let (o, i) = (totals["outer"], totals["inner"]);
        assert_eq!((o.count, i.count), (1, 2));
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(i.self_ns, i.total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
    }

    #[test]
    fn off_records_nothing_and_still_times() {
        let mut t = Tracer::off();
        let (v, secs) = t.time("x", 0, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::on(epoch);
        a.time("a", 0, || ());
        let mut b = Tracer::on(epoch);
        let outer = b.enter("b-outer", 1);
        b.time("b-inner", 1, || ());
        b.exit(outer);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
