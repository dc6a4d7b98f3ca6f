//! Maintenance profiler primitives: the process-wide profiling switch,
//! `EXPLAIN ANALYZE`-style per-operator cost trees, and the thread-local
//! capture channel the executor and the maintenance drivers communicate
//! through.
//!
//! The switch follows the tracer's contract: the **disabled** path costs
//! one relaxed atomic load per potential capture site ([`profiling_on`]),
//! so the ≤5% instrumentation budget `obs_guard` enforces is unaffected.
//! When enabled, the streaming executor's probe wraps every fused pipeline
//! stage and materializing breaker in rows-in/rows-out/nanos counters and
//! deposits the finished [`OpProf`] tree here via [`record_eval`]. The
//! maintenance driver (which runs the whole operation on one thread)
//! drains them with [`take_captured`] and attaches them to the operation
//! that caused them.

use crate::json;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};

static PROFILING: AtomicU8 = AtomicU8::new(0);

/// Flip operator-level profiling on or off (process-wide, like
/// [`crate::Tracer`]'s enable bit).
pub fn set_profiling(on: bool) {
    PROFILING.store(on as u8, Ordering::SeqCst);
}

/// Whether profiling is enabled — one relaxed load, the only cost the
/// disabled path pays.
#[inline]
pub fn profiling_on() -> bool {
    PROFILING.load(Ordering::Relaxed) != 0
}

/// One operator node of an annotated plan tree: how many `(tuple,
/// multiplicity)` pairs flowed in from its children, how many it emitted,
/// and the **inclusive** nanoseconds spent producing its output (children
/// included — subtract [`OpProf::child_nanos`] for exclusive time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProf {
    /// Operator label, matching the `explain` rendering (`Scan r`,
    /// `Filter …`, `HashJoin …`, `Monus (∸)`, …).
    pub label: String,
    /// Pairs pulled from children (0 for leaves).
    pub rows_in: u64,
    /// Pairs emitted to the parent.
    pub rows_out: u64,
    /// Inclusive wall nanoseconds (children included).
    pub nanos: u64,
    /// Child operators, in plan order.
    pub children: Vec<OpProf>,
}

impl OpProf {
    /// A leaf node (no children, `rows_in = 0`).
    pub fn leaf(label: impl Into<String>, rows_out: u64, nanos: u64) -> OpProf {
        OpProf {
            label: label.into(),
            rows_in: 0,
            rows_out,
            nanos,
            children: Vec::new(),
        }
    }

    /// Total inclusive nanos of the direct children.
    pub fn child_nanos(&self) -> u64 {
        self.children.iter().map(|c| c.nanos).sum()
    }

    /// Nanoseconds attributable to this operator alone.
    pub fn exclusive_nanos(&self) -> u64 {
        self.nanos.saturating_sub(self.child_nanos())
    }

    /// Sum of exclusive nanos over the whole tree — equals the root's
    /// inclusive nanos when children were timed on the same thread (the
    /// identity the coverage check in `exp_profile` relies on).
    pub fn total_exclusive_nanos(&self) -> u64 {
        self.exclusive_nanos()
            + self
                .children
                .iter()
                .map(OpProf::total_exclusive_nanos)
                .sum::<u64>()
    }

    /// Every node of the tree, this one first, children in plan order.
    pub fn nodes(&self) -> Vec<&OpProf> {
        let mut out = vec![self];
        self.children.iter().for_each(|c| out.extend(c.nodes()));
        out
    }

    /// Render the annotated tree, `EXPLAIN ANALYZE` style.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        let _ = writeln!(
            out,
            "{:indent$}{}  (rows_in={} rows_out={} time={} self={})",
            "",
            self.label,
            self.rows_in,
            self.rows_out,
            crate::fmt_nanos(self.nanos as f64),
            crate::fmt_nanos(self.exclusive_nanos() as f64),
            indent = depth * 2,
        );
        for c in &self.children {
            c.render_into(depth + 1, out);
        }
    }

    /// Serialize as a JSON object (recursive).
    pub fn to_json(&self) -> String {
        json::object([
            ("label", json::string(&self.label)),
            ("rows_in", json::num_u(self.rows_in)),
            ("rows_out", json::num_u(self.rows_out)),
            ("nanos", json::num_u(self.nanos)),
            ("self_nanos", json::num_u(self.exclusive_nanos())),
            (
                "children",
                json::array(self.children.iter().map(OpProf::to_json)),
            ),
        ])
    }
}

/// Everything profiled on this thread since the last [`take_captured`].
#[derive(Debug, Default, Clone)]
pub struct Captured {
    /// One annotated tree per profiled evaluation, in execution order.
    pub evals: Vec<OpProf>,
}

impl Captured {
    /// Nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.evals.is_empty()
    }
}

thread_local! {
    static CAPTURED: RefCell<Captured> = RefCell::new(Captured::default());
}

/// Keep an unclaimed capture buffer from growing without bound (ad-hoc
/// profiled queries whose trees nobody drains): oldest entries are shed.
const MAX_CAPTURED: usize = 64;

/// Deposit a finished per-evaluation tree (no-op when profiling is off).
pub fn record_eval(prof: OpProf) {
    if !profiling_on() {
        return;
    }
    CAPTURED.with(|c| {
        let mut c = c.borrow_mut();
        if c.evals.len() >= MAX_CAPTURED {
            c.evals.remove(0);
        }
        c.evals.push(prof);
    });
}

/// Drain this thread's capture buffer (also used to *clear* stale
/// captures before a profiled operation starts).
pub fn take_captured() -> Captured {
    CAPTURED.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> OpProf {
        OpProf {
            label: "Project #0".into(),
            rows_in: 10,
            rows_out: 10,
            nanos: 1000,
            children: vec![OpProf {
                label: "Filter a=1".into(),
                rows_in: 40,
                rows_out: 10,
                nanos: 700,
                children: vec![OpProf::leaf("Scan r", 40, 300)],
            }],
        }
    }

    #[test]
    fn exclusive_nanos_subtract_children() {
        let t = tree();
        assert_eq!(t.exclusive_nanos(), 300);
        assert_eq!(t.children[0].exclusive_nanos(), 400);
        assert_eq!(t.total_exclusive_nanos(), t.nanos);
    }

    #[test]
    fn render_indents_children() {
        let r = tree().render();
        assert!(r.contains("Project #0"), "{r}");
        assert!(r.contains("\n  Filter a=1"), "{r}");
        assert!(r.contains("\n    Scan r"), "{r}");
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let doc = json::parse(&tree().to_json()).unwrap();
        assert_eq!(
            doc.get("label").and_then(|v| v.as_str()),
            Some("Project #0")
        );
        assert_eq!(doc.get("self_nanos").and_then(|v| v.as_f64()), Some(300.0));
        let kids = doc.get("children").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(kids.len(), 1);
    }

    /// One test body: the flag is process-global, so flag-flipping
    /// scenarios must not run concurrently with each other.
    #[test]
    fn capture_respects_flag_drains_and_is_bounded() {
        // Off: record is a no-op.
        set_profiling(false);
        record_eval(OpProf::leaf("x", 1, 1));
        assert!(take_captured().is_empty());
        // On: capture, drain, drained again is empty.
        set_profiling(true);
        record_eval(OpProf::leaf("x", 1, 1));
        let got = take_captured();
        assert_eq!(got.evals.len(), 1);
        assert!(take_captured().is_empty());
        // The buffer sheds its oldest entries past the cap.
        for i in 0..(MAX_CAPTURED + 10) {
            record_eval(OpProf::leaf(format!("op{i}"), 0, 0));
        }
        let got = take_captured();
        assert_eq!(got.evals.len(), MAX_CAPTURED);
        assert_eq!(
            got.evals.last().unwrap().label,
            format!("op{}", MAX_CAPTURED + 9)
        );
        set_profiling(false);
    }
}
