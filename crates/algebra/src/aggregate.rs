//! Grouping aggregates: COUNT / SUM / AVG / MIN / MAX over grouping keys.
//!
//! One per-group fold serves both evaluation paths: a
//! [`GroupAggregateState`] maps each group key to its total row
//! multiplicity and per-aggregate accumulators ([`AggAcc`]).
//!
//! * [`group_aggregate_bag`] — the from-scratch evaluation both executors
//!   (streaming and reference) call for the `GroupAggregate` pipeline
//!   breaker, and the oracle every incremental result is checked against —
//!   accumulates its input into a fresh state and renders it;
//! * a log-keeping view whose root `γ` has only *invertible* aggregates
//!   (`COUNT`, `SUM`/`AVG` over INT) keeps the state of its past input and
//!   [`fold`](GroupAggregateState::fold)s each change into it in O(|Δ|)
//!   (`dvm_delta::CountedGamma`). MIN/MAX are not invertible without the
//!   group's rows, which the state does not keep: deleting from them is
//!   an error.
//!
//! Semantics match SQL `GROUP BY`:
//!
//! * NULL group keys group together (structural tuple equality, not the
//!   three-valued `=` of predicates);
//! * `COUNT(*)` counts rows (multiplicity-weighted), `COUNT(c)` counts
//!   non-NULL values of `c`; SUM/AVG/MIN/MAX skip NULLs and yield NULL on
//!   an all-NULL group;
//! * groups with no remaining rows vanish from the output;
//! * SUM over an INT column stays INT; any DOUBLE contribution coerces the
//!   result to DOUBLE (tracked by a count, so deleting the last double row
//!   restores INT output exactly as a recompute would); AVG is always
//!   DOUBLE.
//!
//! MIN/MAX compare with the storage total order ([`Value::cmp`]), which
//! restricted to one typed column coincides with SQL comparison and keeps
//! both evaluation paths deterministic.

use crate::error::{AlgebraError, Result};
use crate::predicate::ColRef;
use dvm_storage::{Bag, FxHashMap, Tuple, Value};
use std::cmp::Ordering;
use std::fmt;

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(c)`.
    Count,
    /// `SUM(c)` over a numeric column.
    Sum,
    /// `AVG(c)` over a numeric column (always DOUBLE).
    Avg,
    /// `MIN(c)`.
    Min,
    /// `MAX(c)`.
    Max,
}

impl AggFunc {
    /// Lower-case SQL name (`count`, `sum`, …).
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One aggregate in a `GroupAggregate`'s select list: a function plus its
/// argument column (`None` only for `COUNT(*)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggCall {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument column; `None` means `COUNT(*)`.
    pub arg: Option<ColRef>,
}

impl AggCall {
    /// `COUNT(*)`.
    pub fn count_star() -> AggCall {
        AggCall {
            func: AggFunc::Count,
            arg: None,
        }
    }

    /// `func(col)`.
    pub fn new(func: AggFunc, arg: ColRef) -> AggCall {
        AggCall {
            func,
            arg: Some(arg),
        }
    }

    /// Generated output column name: `count` for `COUNT(*)`, otherwise
    /// `{func}_{column}` (`sum_b`, `min_quantity`, …).
    pub fn output_name(&self) -> String {
        match &self.arg {
            None => "count".to_string(),
            Some(c) => format!("{}_{}", self.func.name(), c.name),
        }
    }
}

impl fmt::Display for AggCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.arg {
            None => write!(f, "count(*)"),
            Some(c) => write!(f, "{}({c})", self.func),
        }
    }
}

/// Get-or-insert-default on a slice-keyed group map, looking up by borrowed
/// key so the boxed key is only allocated the first time a group appears.
/// This is the one grouping primitive shared by the aggregate accumulators
/// and both hash-join build paths in `eval.rs`.
pub fn group_entry<'m, V: Default>(
    map: &'m mut FxHashMap<Box<[Value]>, V>,
    key: &[Value],
) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_vec().into_boxed_slice(), V::default());
    }
    map.get_mut(key).expect("group key just ensured")
}

/// Per-(group, aggregate) scalar accumulator. One shape serves every
/// function; unused fields stay zero.
#[derive(Debug, Clone, Default)]
struct AggAcc {
    /// Total multiplicity of rows whose argument is non-NULL.
    nonnull: u64,
    /// Integer part of the running sum.
    sum_i: i64,
    /// Double part of the running sum.
    sum_f: f64,
    /// Multiplicity of rows that contributed a DOUBLE (coercion marker —
    /// counted, not latched, so deletes can restore INT output).
    doubles: u64,
    /// Current extremum for MIN/MAX.
    ext: Option<Value>,
}

impl AggAcc {
    /// Fold `m` copies of argument value `v` in.
    fn add(&mut self, func: AggFunc, v: &Value, m: u64) {
        if v.is_null() {
            return;
        }
        self.nonnull += m;
        match func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match v {
                Value::Int(x) => self.sum_i = self.sum_i.wrapping_add(x.wrapping_mul(m as i64)),
                Value::Double(x) => {
                    self.sum_f += x * m as f64;
                    self.doubles += m;
                }
                // Non-numeric SUM/AVG arguments are rejected at compile time.
                _ => {}
            },
            AggFunc::Min | AggFunc::Max => {
                let better = self.ext.as_ref().is_none_or(|e| match func {
                    AggFunc::Min => v.cmp(e) == Ordering::Less,
                    _ => v.cmp(e) == Ordering::Greater,
                });
                if better {
                    self.ext = Some(v.clone());
                }
            }
        }
    }

    /// Take `m` copies of argument value `v` back out. `false`, with
    /// nothing changed, when the accumulator does not hold that many, or
    /// when `func` is MIN/MAX: the state keeps no rows to find the next
    /// extremum in.
    fn sub(&mut self, func: AggFunc, v: &Value, m: u64) -> bool {
        if v.is_null() {
            return true;
        }
        let double = matches!(v, Value::Double(_));
        if self.nonnull < m
            || matches!(func, AggFunc::Min | AggFunc::Max)
            || (double && func != AggFunc::Count && self.doubles < m)
        {
            return false;
        }
        self.nonnull -= m;
        match (func, v) {
            (AggFunc::Sum | AggFunc::Avg, Value::Int(x)) => {
                self.sum_i = self.sum_i.wrapping_sub(x.wrapping_mul(m as i64));
            }
            (AggFunc::Sum | AggFunc::Avg, Value::Double(x)) => {
                self.sum_f -= x * m as f64;
                self.doubles -= m;
                if self.doubles == 0 {
                    // All double contributions are gone; clear the residue
                    // so INT output is bit-exact again.
                    self.sum_f = 0.0;
                }
            }
            _ => {}
        }
        true
    }

    /// Final output value; `group_total` is the group's total row
    /// multiplicity (for `COUNT(*)`).
    fn finalize(&self, func: AggFunc, arg: Option<usize>, group_total: u64) -> Value {
        match func {
            AggFunc::Count => match arg {
                None => Value::Int(group_total as i64),
                Some(_) => Value::Int(self.nonnull as i64),
            },
            AggFunc::Sum => {
                if self.nonnull == 0 {
                    Value::Null
                } else if self.doubles > 0 {
                    Value::Double(self.sum_i as f64 + self.sum_f)
                } else {
                    Value::Int(self.sum_i)
                }
            }
            AggFunc::Avg => {
                if self.nonnull == 0 {
                    Value::Null
                } else {
                    Value::Double((self.sum_i as f64 + self.sum_f) / self.nonnull as f64)
                }
            }
            AggFunc::Min | AggFunc::Max => self.ext.clone().unwrap_or(Value::Null),
        }
    }
}

/// One group's state: its total row multiplicity, per-aggregate
/// accumulators and, once a fold has emitted it, its output row. No input
/// rows are kept. The next fold's old row is that very tuple — the one the
/// view's tables got — so deleting it from them matches by pointer.
#[derive(Debug, Clone, Default)]
struct GroupState {
    total: u64,
    accs: Vec<AggAcc>,
    row: Option<Tuple>,
}

/// Render one group's output row: key values followed by finalized
/// aggregates.
fn output_row(key: &[Value], g: &GroupState, aggs: &[(AggFunc, Option<usize>)]) -> Tuple {
    let values = g.accs.iter().zip(aggs);
    let finalized = values.map(|(acc, (func, arg))| acc.finalize(*func, *arg, g.total));
    key.iter().cloned().chain(finalized).collect()
}

/// From-scratch evaluation of `γ_{keys; aggs}(input)`: one output row per
/// non-empty group, multiplicity 1. This is the single definition of
/// aggregate semantics — the streaming executor, the reference evaluator
/// and the incremental oracle checks all call it, and it is the same
/// accumulate-then-render a [`GroupAggregateState`] does.
pub fn group_aggregate_bag(input: &Bag, keys: &[usize], aggs: &[(AggFunc, Option<usize>)]) -> Bag {
    GroupAggregateState::from_bag(keys.to_vec(), aggs.to_vec(), input).render()
}

/// The count-annotated state of one `GroupAggregate`: per group key, the
/// total row multiplicity, the [`AggAcc`] accumulators and the output row
/// a fold last emitted — no input rows.
///
/// Inserting is O(1) per input row for every function; deleting is O(1)
/// for the *invertible* ones (`COUNT`, `SUM`, `AVG`) and refuses MIN/MAX,
/// which would need the group's rows to find the next extremum.
/// [`render`](Self::render) is bag-equal to [`group_aggregate_bag`] over
/// the maintained input, and [`fold`](Self::fold) returns exactly the
/// change of that rendering.
#[derive(Debug, Clone)]
pub struct GroupAggregateState {
    keys: Vec<usize>,
    aggs: Vec<(AggFunc, Option<usize>)>,
    groups: FxHashMap<Box<[Value]>, GroupState>,
}

impl GroupAggregateState {
    /// The state of `input`, in one pass.
    pub fn from_bag(keys: Vec<usize>, aggs: Vec<(AggFunc, Option<usize>)>, input: &Bag) -> Self {
        let groups = FxHashMap::default();
        let mut s = GroupAggregateState { keys, aggs, groups };
        let mut key = Vec::with_capacity(s.keys.len());
        for (t, m) in input.iter() {
            s.key_into(&mut key, t);
            s.accumulate(&key, t, m);
        }
        s
    }

    fn key_into(&self, key: &mut Vec<Value>, t: &Tuple) {
        key.clear();
        key.extend(self.keys.iter().map(|&i| t[i].clone()));
    }

    /// The one per-group fold every path shares: `m` copies of row `t`,
    /// whose group key is `key`, in.
    fn accumulate(&mut self, key: &[Value], t: &Tuple, m: u64) {
        let g = group_entry(&mut self.groups, key);
        if g.accs.is_empty() {
            g.accs.resize_with(self.aggs.len(), AggAcc::default);
        }
        g.total += m;
        g.row = None;
        for (acc, (func, arg)) in g.accs.iter_mut().zip(&self.aggs) {
            if let Some(i) = arg {
                acc.add(*func, &t[*i], m);
            }
        }
    }

    fn retract(&mut self, key: &[Value], t: &Tuple, m: u64) -> Result<()> {
        let fail = |why: &str| {
            Err(AlgebraError::AggregateState(format!(
                "delete of {t}×{m}: {why}"
            )))
        };
        let Some(g) = self.groups.get_mut(key) else {
            return fail("unknown group");
        };
        if g.total < m {
            return fail("group holds fewer rows");
        }
        g.total -= m;
        g.row = None;
        if g.total == 0 {
            self.groups.remove(key);
            return Ok(());
        }
        for (acc, (func, arg)) in g.accs.iter_mut().zip(&self.aggs) {
            if arg.is_some_and(|i| !acc.sub(*func, &t[i], m)) {
                return fail("aggregate cannot take the argument back");
            }
        }
        Ok(())
    }

    /// Remove `m` copies of input row `t`. An unknown group, a group with
    /// fewer rows, or an aggregate that cannot be inverted (MIN/MAX) is an
    /// error, never a panic; the state may then be partly updated and is
    /// to be discarded.
    pub fn delete(&mut self, t: &Tuple, m: u64) -> Result<()> {
        let mut key = Vec::with_capacity(self.keys.len());
        self.key_into(&mut key, t);
        self.retract(&key, t, m)
    }

    /// Fold an input change into the state, deletions first (so a `del`
    /// contained in the input the state describes never underflows), and
    /// return the change of [`render`](Self::render): `(old, new, touched)`
    /// — the old and the new row of every touched group whose row changed,
    /// and how many groups `del ⊎ ins` touched. A group that vanished has
    /// no new row, a new group no old one. On `Err` the state is to be
    /// discarded, as for [`delete`](Self::delete).
    pub fn fold(&mut self, del: &Bag, ins: &Bag) -> Result<(Bag, Bag, usize)> {
        let mut key = Vec::with_capacity(self.keys.len());
        let mut before: FxHashMap<Box<[Value]>, Option<Tuple>> = FxHashMap::default();
        let rows = del.iter().map(|(t, m)| (t, m, true));
        for (t, m, deleted) in rows.chain(ins.iter().map(|(t, m)| (t, m, false))) {
            self.key_into(&mut key, t);
            if !before.contains_key(key.as_slice()) {
                before.insert(key.clone().into_boxed_slice(), self.row(&key));
            }
            if deleted {
                self.retract(&key, t, m)?;
            } else {
                self.accumulate(&key, t, m);
            }
        }
        let touched = before.len();
        let (mut old, mut new) = (Bag::new(), Bag::new());
        for (key, was) in before {
            let now = self.groups.get_mut(&key).map(|g| {
                g.row = Some(output_row(&key, g, &self.aggs));
                g.row.clone().expect("just rendered")
            });
            if was != now {
                if let Some(row) = was {
                    old.insert(row);
                }
                if let Some(row) = now {
                    new.insert(row);
                }
            }
        }
        Ok((old, new, touched))
    }

    /// [`fold`](Self::fold) into copies of the groups `del ⊎ ins` touch,
    /// leaving `self` as it was: the same `(old, new, touched)`, at the
    /// cost of those groups only.
    pub fn fold_touched(&self, del: &Bag, ins: &Bag) -> Result<(Bag, Bag, usize)> {
        let groups = FxHashMap::default();
        let (keys, aggs) = (self.keys.clone(), self.aggs.clone());
        let mut copy = GroupAggregateState { keys, aggs, groups };
        let mut key = Vec::with_capacity(self.keys.len());
        for (t, _) in del.iter().chain(ins.iter()) {
            self.key_into(&mut key, t);
            match self.groups.get(key.as_slice()) {
                Some(g) if !copy.groups.contains_key(key.as_slice()) => {
                    copy.groups
                        .insert(key.clone().into_boxed_slice(), g.clone());
                }
                _ => {}
            }
        }
        copy.fold(del, ins)
    }

    /// One group's output row, `None` when the group is empty.
    fn row(&self, key: &[Value]) -> Option<Tuple> {
        let g = self.groups.get(key)?;
        Some(
            g.row
                .clone()
                .unwrap_or_else(|| output_row(key, g, &self.aggs)),
        )
    }

    /// Render the aggregate output: one row per live group.
    pub fn render(&self) -> Bag {
        let mut out = Bag::new();
        for (key, g) in &self.groups {
            out.insert(
                g.row
                    .clone()
                    .unwrap_or_else(|| output_row(key, g, &self.aggs)),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_storage::tuple;

    fn agg_all() -> Vec<(AggFunc, Option<usize>)> {
        vec![
            (AggFunc::Count, None),
            (AggFunc::Count, Some(1)),
            (AggFunc::Sum, Some(1)),
            (AggFunc::Avg, Some(1)),
            (AggFunc::Min, Some(1)),
            (AggFunc::Max, Some(1)),
        ]
    }

    fn null_row(a: i64) -> Tuple {
        Tuple::new(vec![Value::Int(a), Value::Null])
    }

    #[test]
    fn recompute_groups_and_skips_nulls() {
        let mut b = Bag::new();
        b.insert_n(tuple![1, 10], 2);
        b.insert(tuple![1, 30]);
        b.insert(null_row(1));
        b.insert(null_row(2)); // NULL-only group
        let out = group_aggregate_bag(&b, &[0], &agg_all());
        assert_eq!(out.len(), 2);
        // group a=1: count(*)=4, count(b)=3, sum=50, avg=50/3, min=10, max=30
        assert!(out.contains(&Tuple::new(vec![
            Value::Int(1),
            Value::Int(4),
            Value::Int(3),
            Value::Int(50),
            Value::Double(50.0 / 3.0),
            Value::Int(10),
            Value::Int(30),
        ])));
        // group a=2 is all-NULL: count(*)=1, count(b)=0, rest NULL
        assert!(out.contains(&Tuple::new(vec![
            Value::Int(2),
            Value::Int(1),
            Value::Int(0),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null,
        ])));
    }

    #[test]
    fn null_keys_group_together() {
        let mut b = Bag::new();
        b.insert(Tuple::new(vec![Value::Null, Value::Int(1)]));
        b.insert(Tuple::new(vec![Value::Null, Value::Int(2)]));
        let out = group_aggregate_bag(&b, &[0], &[(AggFunc::Count, None)]);
        assert_eq!(out.len(), 1);
        assert!(out.contains(&Tuple::new(vec![Value::Null, Value::Int(2)])));
    }

    fn state(aggs: Vec<(AggFunc, Option<usize>)>, rows: &[(Tuple, u64)]) -> GroupAggregateState {
        let mut input = Bag::new();
        rows.iter().for_each(|(t, m)| input.insert_n(t.clone(), *m));
        GroupAggregateState::from_bag(vec![0], aggs, &input)
    }

    #[test]
    fn bad_deletes_are_errors_not_panics() {
        let mut s = state(vec![(AggFunc::Sum, Some(1))], &[(tuple![1, 10], 1)]);
        assert!(s.delete(&tuple![2, 10], 1).is_err(), "unknown group");
        assert!(s.delete(&tuple![1, 10], 2).is_err(), "more rows than held");
        // MIN/MAX keep no rows to find the next extremum in.
        let rows = [(tuple![1, 10], 1), (tuple![1, 20], 1)];
        let mut m = state(vec![(AggFunc::Min, Some(1))], &rows);
        assert!(m.delete(&tuple![1, 20], 1).is_err());
        let m = state(vec![(AggFunc::Min, Some(1))], &rows);
        let before = m.render();
        assert!(m
            .fold_touched(&Bag::singleton(tuple![1, 20]), &Bag::new())
            .is_err());
        assert_eq!(m.render(), before, "a failed copy fold leaves the state");
    }

    #[test]
    fn groups_vanish_at_zero() {
        let mut s = state(vec![(AggFunc::Count, None)], &[(tuple![7, 1], 3)]);
        s.delete(&tuple![7, 1], 3).unwrap();
        assert!(s.render().is_empty());
    }

    #[test]
    fn sum_coerces_to_double_and_back() {
        let rows = [(tuple![1, 2], 1), (tuple![1, 1.5], 1)];
        let mut s = state(vec![(AggFunc::Sum, Some(1))], &rows);
        assert!(s.render().contains(&tuple![1, 3.5]));
        s.delete(&tuple![1, 1.5], 1).unwrap();
        // The last double contribution is gone: output is INT again, exactly
        // as a recompute would produce.
        assert!(s.render().contains(&tuple![1, 2]));
    }

    /// Random insert/delete batches over the invertible functions, NULL
    /// arguments and half-integral doubles (exact in binary, so sums
    /// compare bit for bit): after every fold the state renders the
    /// recompute, and the fold's `(old, new)` is exactly the change of the
    /// rendering.
    #[test]
    fn incremental_matches_recompute_on_random_streams() {
        use crate::testgen::Rng;
        let aggs = vec![
            (AggFunc::Count, None),
            (AggFunc::Count, Some(1)),
            (AggFunc::Sum, Some(1)),
            (AggFunc::Avg, Some(1)),
        ];
        let mut rng = Rng::new(0xA66);
        for _case in 0..200 {
            let mut state = GroupAggregateState::from_bag(vec![0], aggs.clone(), &Bag::new());
            let mut base = Bag::new();
            for _op in 0..20 {
                let (mut del, mut ins) = (Bag::new(), Bag::new());
                for (t, m) in base.iter() {
                    if rng.below(4) == 0 {
                        del.insert_n(t.clone(), 1 + rng.below(m));
                    }
                }
                for _ in 0..rng.below(4) {
                    let a = rng.below(3) as i64;
                    let b = match rng.below(5) {
                        0 => Value::Null,
                        1 => Value::Double(rng.below(8) as f64 / 2.0),
                        _ => Value::Int(rng.below(20) as i64 - 10),
                    };
                    ins.insert_n(Tuple::new(vec![Value::Int(a), b]), 1 + rng.below(3));
                }
                let before = state.render();
                let copied = state.fold_touched(&del, &ins).unwrap();
                assert_eq!(state.render(), before, "fold_touched leaves the state");
                let (old, new, touched) = state.fold(&del, &ins).unwrap();
                assert_eq!(copied, (old.clone(), new.clone(), touched));
                base.apply_delta(&del, &ins);
                let after = state.render();
                assert_eq!(after, group_aggregate_bag(&base, &[0], &aggs));
                assert_eq!((old, new), (before.monus(&after), after.monus(&before)));
                assert!(touched <= del.distinct_len() + ins.distinct_len());
            }
        }
    }

    #[test]
    fn output_names() {
        assert_eq!(AggCall::count_star().output_name(), "count");
        assert_eq!(
            AggCall::new(AggFunc::Sum, ColRef::new("b")).output_name(),
            "sum_b"
        );
        assert_eq!(AggCall::count_star().to_string(), "count(*)");
        assert_eq!(
            AggCall::new(AggFunc::Max, ColRef::qualified("s", "q")).to_string(),
            "max(s.q)"
        );
    }
}
