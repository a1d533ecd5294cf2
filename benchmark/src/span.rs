//! In-memory spans for the traced run.
//!
//! The traced run wraps every call it makes into a layer's public
//! functions in a span. Spans stay in memory while the run measures and
//! are written out as JSON lines when it ends. A layer's *self* time is
//! its span's duration minus the part of that interval its child spans
//! cover.

use crate::json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the log was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Position in the log; a child refers to its parent by it.
    pub id: u32,
    /// The span that caused this one (`None` for a root: one slab, one
    /// future or one crash cycle).
    pub parent: Option<u32>,
    /// The function or phase the span covers, e.g. `os.translate`.
    pub name: &'static str,
    /// The crate the call went into, or `bench` for the benchmark's own
    /// glue.
    pub layer: &'static str,
    /// The workload being re-composed, or `probe` for a layer timed
    /// stand-alone.
    pub workload: &'static str,
    /// Start, ns since the log was created.
    pub start_ns: u64,
    /// End, ns since the log was created (0 while still open).
    pub end_ns: u64,
    /// Operations the span covered (writes, requests, lines, calls).
    pub ops: u64,
}

/// Self time and operation count of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans folded in.
    pub spans: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
    /// Sum of their operation counts.
    pub ops: u64,
}

/// The span log of one traced run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log; its clock starts now. Spans are filed under
    /// `workload` until [`Self::set_workload`] names another.
    pub fn new(workload: &'static str) -> Self {
        SpanLog {
            origin: Instant::now(),
            workload,
            spans: Vec::new(),
        }
    }

    /// Builds a log from finished spans.
    #[cfg(test)]
    fn from_spans(spans: Vec<Span>) -> Self {
        SpanLog {
            origin: Instant::now(),
            workload: "",
            spans,
        }
    }

    /// Files the spans opened from now on under `workload`.
    pub fn set_workload(&mut self, workload: &'static str) {
        self.workload = workload;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Self::close`].
    pub fn open(&mut self, parent: Option<u32>, name: &'static str, layer: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            layer,
            workload: self.workload,
            start_ns,
            end_ns: 0,
            ops: 0,
        });
        id
    }

    /// Closes span `id`, recording that it covered `ops` operations, and
    /// returns its duration in ns.
    pub fn close(&mut self, id: u32, ops: u64) -> u64 {
        let end_ns = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = end_ns;
        s.ops = ops;
        end_ns - s.start_ns
    }

    /// Runs `f` inside a span; returns its result and the span's duration
    /// in ns.
    pub fn within<R>(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        layer: &'static str,
        ops: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(parent, name, layer);
        let r = f();
        (r, self.close(id, ops))
    }

    /// The recorded spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover. Overlapping children are counted
    /// once, and a child is clipped to its parent's interval.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self time per `(workload, span name)`, summed over the whole log.
    pub fn self_by_name(&self) -> BTreeMap<(&'static str, &'static str), SelfTime> {
        let mut out: BTreeMap<_, SelfTime> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry((s.workload, s.name)).or_default();
            e.spans += 1;
            e.self_ns += self_ns;
            e.ops += s.ops;
        }
        out
    }

    /// Writes the log as JSON lines: one object per span with the keys
    /// `id`, `parent`, `name`, `layer`, `workload`, `start_ns`, `end_ns`
    /// and `ops`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let line = Value::obj([
                ("id", Value::Int(u64::from(s.id))),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Int(u64::from(p))),
                ),
                ("name", Value::str(s.name)),
                ("layer", Value::str(s.layer)),
                ("workload", Value::str(s.workload)),
                ("start_ns", Value::Int(s.start_ns)),
                ("end_ns", Value::Int(s.end_ns)),
                ("ops", Value::Int(s.ops)),
            ]);
            writeln!(out, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            layer: "test",
            workload: "t",
            start_ns: start,
            end_ns: end,
            ops: 1,
        }
    }

    #[test]
    fn self_time_subtracts_siblings_and_nested_children() {
        // root 0..100 has siblings a 10..30 and b 40..90; b has a nested
        // child c 50..60.
        let log = SpanLog::from_spans(vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 30),
            span(2, Some(0), "b", 40, 90),
            span(3, Some(2), "c", 50, 60),
        ]);
        // Grandchildren are the child's business, not the root's.
        assert_eq!(log.self_ns(), vec![30, 20, 40, 10]);
        let by = log.self_by_name();
        assert_eq!(by[&("t", "root")].self_ns, 30);
        assert_eq!(by[&("t", "b")].self_ns, 40);
        assert_eq!(by[&("t", "c")].ops, 1);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let log = SpanLog::from_spans(vec![
            span(0, None, "root", 100, 200),
            span(1, Some(0), "x", 110, 150),
            span(2, Some(0), "x", 140, 160), // overlaps the first
            span(3, Some(0), "y", 190, 230), // overhangs the parent
            span(4, Some(0), "z", 120, 130), // inside the first
        ]);
        // Covered: 110..160 and 190..200 = 60 of 100.
        assert_eq!(log.self_ns()[0], 40);
    }

    #[test]
    fn same_name_spans_fold_together() {
        let log = SpanLog::from_spans(vec![
            span(0, None, "slab", 0, 10),
            span(1, Some(0), "call", 2, 6),
            span(2, None, "slab", 10, 30),
            span(3, Some(2), "call", 12, 27),
        ]);
        let by = log.self_by_name();
        assert_eq!(
            by[&("t", "slab")],
            SelfTime {
                spans: 2,
                self_ns: 6 + 5,
                ops: 2
            }
        );
        assert_eq!(by[&("t", "call")].self_ns, 4 + 15);
    }

    #[test]
    fn live_spans_nest_and_write_out() {
        let mut log = SpanLog::new("w");
        let root = log.open(None, "root", "bench");
        let (x, ns) = log.within(Some(root), "child", "core", 7, || 41 + 1);
        log.close(root, 7);
        assert_eq!(x, 42);
        assert_eq!(ns, log.spans()[1].end_ns - log.spans()[1].start_ns);
        let s = log.spans();
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut bytes = Vec::new();
        log.write_jsonl(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<Value> = text.lines().map(|l| Value::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Value::Null));
        assert_eq!(lines[1].get("parent"), Some(&Value::Int(0)));
        assert_eq!(lines[1].get("workload").and_then(Value::as_str), Some("w"));
        assert_eq!(lines[1].get("ops"), Some(&Value::Int(7)));
    }
}
