//! Benchmark-side span recorder for the traced run.
//!
//! The benchmark is the orchestrator in a traced run, so every span is
//! opened and closed here, around a call into a layer's public function.
//! Spans live in memory and are written as JSONL when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in [`Trace::spans`].
pub type SpanId = usize;

/// One timed call: `{name, layer, start_ns, end_ns, parent, op_id}`.
/// Spans of one operation (one committed batch and the maintenance and
/// reads that follow it) share `op_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op_id: u64,
}

/// The in-memory span journal of one traced run.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the trace began.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Trace::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, layer, parent, op_id);
        let out = f();
        self.close(id);
        out
    }

    /// Record a child whose duration the callee reported (an `ExecReport`
    /// field): laid out inside `parent` starting at `offset_ns` from the
    /// parent's start, clipped to the parent's end.
    pub fn reported_child(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: SpanId,
        offset_ns: u64,
        nanos: u64,
    ) {
        let p = &self.spans[parent];
        let start_ns = (p.start_ns + offset_ns).min(p.end_ns);
        let end_ns = (start_ns + nanos).min(p.end_ns);
        let op_id = p.op_id;
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent: Some(parent),
            op_id,
        });
    }

    /// Self time per span: its duration minus the part of its interval
    /// that its direct children cover (overlapping children are merged,
    /// so nothing is subtracted twice).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self time summed by `(layer, name)`.
    pub fn self_by_name(&self) -> BTreeMap<(&'static str, &'static str), u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry((s.layer, s.name)).or_insert(0) += t;
        }
        out
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// One JSON object per line, in recording order; `parent` is the line
    /// index of the parent span or `null`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.name, s.layer, s.start_ns, s.end_ns, parent, s.op_id
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            layer: "l",
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_only_what_children_cover() {
        let mut t = Trace::new();
        t.spans = vec![
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // child
            span(20, 50, Some(0)),  // overlaps the first child: union is 10..50
            span(60, 120, Some(0)), // runs past the root's end: clipped to 60..100
            span(12, 18, Some(1)),  // grandchild: charged to span 1, not the root
        ];
        assert_eq!(t.self_times(), vec![100 - 40 - 40, 20 - 6, 30, 60, 6]);
        // Σ self over a tree whose children stay inside their parents and
        // apart from each other is the root's duration; here span 3
        // overshoots by 20 and spans 1 and 2 overlap by 10.
        assert_eq!(t.self_times().iter().sum::<u64>(), 100 + 20 + 10);
    }

    #[test]
    fn reported_children_are_clipped_to_the_parent() {
        let mut t = Trace::new();
        t.spans = vec![span(100, 200, None)];
        t.reported_child("a", "l", 0, 0, 30);
        t.reported_child("b", "l", 0, 30, 500);
        assert_eq!((t.spans[1].start_ns, t.spans[1].end_ns), (100, 130));
        assert_eq!((t.spans[2].start_ns, t.spans[2].end_ns), (130, 200));
        assert_eq!(t.self_times()[0], 0);
    }
}
