//! Physical query plans: positional, schema-free, directly evaluable.
//!
//! A [`Plan`] is produced from a logical [`crate::expr::Expr`] by
//! [`crate::infer::compile`]; all column references have been resolved to
//! tuple positions and all schema checks have already happened.

use crate::aggregate::AggFunc;
use crate::predicate::CmpOp;
use dvm_storage::hasher::FxHasher;
use dvm_storage::{Bag, Tuple, Value};
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

/// A compiled predicate operand: tuple position or constant.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum PhysOperand {
    /// Value at a tuple position.
    Col(usize),
    /// Constant.
    Const(Value),
}

impl PhysOperand {
    fn value<'a>(&'a self, t: &'a Tuple) -> &'a Value {
        match self {
            PhysOperand::Col(i) => &t[*i],
            PhysOperand::Const(v) => v,
        }
    }
}

/// A compiled predicate over positional tuples.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum PhysPredicate {
    /// Constant truth value.
    Const(bool),
    /// Comparison of two operands.
    Cmp(PhysOperand, CmpOp, PhysOperand),
    /// Conjunction.
    And(Box<PhysPredicate>, Box<PhysPredicate>),
    /// Disjunction.
    Or(Box<PhysPredicate>, Box<PhysPredicate>),
    /// Negation.
    Not(Box<PhysPredicate>),
}

impl PhysPredicate {
    /// Evaluate against a tuple.
    pub fn eval(&self, t: &Tuple) -> bool {
        match self {
            PhysPredicate::Const(b) => *b,
            PhysPredicate::Cmp(l, op, r) => {
                let (lv, rv) = (l.value(t), r.value(t));
                // Null-safe equality is *value identity* — the total
                // structural order tuples and bags use — not coercing SQL
                // comparison: NULL <=> NULL is true, and Int(0) does NOT
                // match Double(0.0). This is exactly the equality the
                // EXCEPT expansion needs to mirror the direct operator.
                if *op == CmpOp::NullEq {
                    return lv.cmp(rv) == std::cmp::Ordering::Equal;
                }
                op.test(lv.sql_cmp(rv))
            }
            PhysPredicate::And(a, b) => a.eval(t) && b.eval(t),
            PhysPredicate::Or(a, b) => a.eval(t) || b.eval(t),
            PhysPredicate::Not(a) => !a.eval(t),
        }
    }
}

/// A physical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a named table.
    Scan(String),
    /// A constant bag.
    Literal(Bag),
    /// Filter by a compiled predicate.
    Filter(PhysPredicate, Box<Plan>),
    /// Positional projection (bag semantics; duplicates preserved).
    Project(Vec<usize>, Box<Plan>),
    /// Duplicate elimination `ε`.
    DupElim(Box<Plan>),
    /// Additive union `⊎`.
    Union(Box<Plan>, Box<Plan>),
    /// Monus `∸`.
    Monus(Box<Plan>, Box<Plan>),
    /// Cartesian product `×`.
    Product(Box<Plan>, Box<Plan>),
    /// Minimal intersection `min`.
    MinIntersect(Box<Plan>, Box<Plan>),
    /// Maximal union `max`.
    MaxUnion(Box<Plan>, Box<Plan>),
    /// SQL `EXCEPT` (all occurrences removed).
    Except(Box<Plan>, Box<Plan>),
    /// Hash equi-join, produced by the optimizer from `Filter(Product)`:
    /// tuples whose `left_keys` positions equal the `right_keys` positions
    /// (positions relative to each side) are concatenated, multiplicities
    /// multiplied, then filtered by `residual` (over the concatenated
    /// tuple).
    HashJoin {
        /// Probe side.
        left: Box<Plan>,
        /// Build side.
        right: Box<Plan>,
        /// Key positions in the left tuple.
        left_keys: Vec<usize>,
        /// Key positions in the right tuple.
        right_keys: Vec<usize>,
        /// Residual predicate over the concatenated tuple.
        residual: PhysPredicate,
    },
    /// Grouping aggregate `γ`: group the input by the key positions and
    /// emit one row per non-empty group — key values, then one value per
    /// aggregate. A pipeline breaker in both executors.
    GroupAggregate {
        /// Key positions in the input tuple.
        keys: Vec<usize>,
        /// Aggregates: function plus argument position (`None` only for
        /// `COUNT(*)`).
        aggs: Vec<(AggFunc, Option<usize>)>,
        /// Input plan.
        input: Box<Plan>,
    },
}

impl Plan {
    /// Names of all tables scanned (deduplicated, sorted) — the set the
    /// evaluator pins read locks for.
    pub fn tables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_tables(&mut out);
        out
    }

    /// A 128-bit structural fingerprint of this plan, salted with `salt`
    /// (the join-key positions when fingerprinting a build side, so the
    /// same subtree built on different keys gets different entries).
    ///
    /// Two [`FxHasher`] passes with independent seeds are combined into a
    /// `u128`; [`crate::SharedPlans::of`] treats equality of fingerprints as
    /// plan identity, which a 64-bit hash could not justify. The encoding tags
    /// every node with a discriminant byte, so shape ambiguities (e.g.
    /// `Union(a, b)` vs `Monus(a, b)`) cannot collide structurally.
    /// `Literal` bags are folded order-independently (hash-map iteration
    /// order never leaks in), so equal bags always fingerprint equally.
    pub fn fingerprint128(&self, salt: &[usize]) -> u128 {
        let mut lo = FxHasher::with_seed(0);
        let mut hi = FxHasher::with_seed(0x9e37_79b9_7f4a_7c15);
        for h in [&mut lo, &mut hi] {
            self.hash_structure(h);
            h.write_usize(salt.len());
            for &k in salt {
                h.write_usize(k);
            }
        }
        ((hi.finish() as u128) << 64) | (lo.finish() as u128)
    }

    fn hash_structure<H: Hasher>(&self, h: &mut H) {
        match self {
            Plan::Scan(name) => {
                h.write_u8(0);
                name.hash(h);
            }
            Plan::Literal(bag) => {
                h.write_u8(1);
                // Order-independent content digest: per-entry hashes are
                // combined with wrapping addition (commutative), so the
                // bag's internal iteration order is irrelevant.
                let digest = bag.fold_entry_hashes(|t, m| {
                    let mut eh = FxHasher::with_seed(0xa076_1d64_78bd_642f);
                    t.hash(&mut eh);
                    eh.write_u64(m);
                    eh.finish()
                });
                h.write_u64(digest);
                h.write_u64(bag.len());
            }
            Plan::Filter(pred, input) => {
                h.write_u8(2);
                pred.hash(h);
                input.hash_structure(h);
            }
            Plan::Project(cols, input) => {
                h.write_u8(3);
                cols.hash(h);
                input.hash_structure(h);
            }
            Plan::DupElim(input) => {
                h.write_u8(4);
                input.hash_structure(h);
            }
            Plan::Union(a, b)
            | Plan::Monus(a, b)
            | Plan::Product(a, b)
            | Plan::MinIntersect(a, b)
            | Plan::MaxUnion(a, b)
            | Plan::Except(a, b) => {
                h.write_u8(match self {
                    Plan::Union(..) => 5,
                    Plan::Monus(..) => 6,
                    Plan::Product(..) => 7,
                    Plan::MinIntersect(..) => 8,
                    Plan::MaxUnion(..) => 9,
                    _ => 10,
                });
                a.hash_structure(h);
                b.hash_structure(h);
            }
            Plan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                residual,
            } => {
                h.write_u8(11);
                left.hash_structure(h);
                right.hash_structure(h);
                left_keys.hash(h);
                right_keys.hash(h);
                residual.hash(h);
            }
            Plan::GroupAggregate { keys, aggs, input } => {
                h.write_u8(12);
                keys.hash(h);
                h.write_usize(aggs.len());
                for (func, arg) in aggs {
                    h.write_u8(*func as u8);
                    match arg {
                        None => h.write_u8(0),
                        Some(i) => {
                            h.write_u8(1);
                            h.write_usize(*i);
                        }
                    }
                }
                input.hash_structure(h);
            }
        }
    }

    /// The plans this node reads, left to right.
    pub(crate) fn inputs(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan(_) | Plan::Literal(_) => Vec::new(),
            Plan::Filter(_, p) | Plan::Project(_, p) | Plan::DupElim(p) => vec![p],
            Plan::GroupAggregate { input, .. } => vec![input],
            Plan::Union(a, b)
            | Plan::Monus(a, b)
            | Plan::Product(a, b)
            | Plan::MinIntersect(a, b)
            | Plan::MaxUnion(a, b)
            | Plan::Except(a, b) => vec![a, b],
            Plan::HashJoin { left, right, .. } => vec![left, right],
        }
    }

    fn collect_tables(&self, out: &mut BTreeSet<String>) {
        if let Plan::Scan(n) = self {
            out.insert(n.clone());
        }
        for p in self.inputs() {
            p.collect_tables(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_storage::tuple;

    #[test]
    fn phys_predicate_eval() {
        let t = tuple![3, "x"];
        let p = PhysPredicate::Cmp(
            PhysOperand::Col(0),
            CmpOp::Gt,
            PhysOperand::Const(Value::Int(2)),
        );
        assert!(p.eval(&t));
        let p2 = PhysPredicate::And(
            Box::new(p.clone()),
            Box::new(PhysPredicate::Cmp(
                PhysOperand::Col(1),
                CmpOp::Eq,
                PhysOperand::Const(Value::str("y")),
            )),
        );
        assert!(!p2.eval(&t));
        assert!(PhysPredicate::Not(Box::new(p2)).eval(&t));
        assert!(PhysPredicate::Or(
            Box::new(PhysPredicate::Const(false)),
            Box::new(PhysPredicate::Const(true))
        )
        .eval(&t));
    }

    #[test]
    fn null_comparison_false_but_not_makes_true() {
        let t = Tuple::new(vec![Value::Null]);
        let cmp = PhysPredicate::Cmp(
            PhysOperand::Col(0),
            CmpOp::Eq,
            PhysOperand::Const(Value::Int(1)),
        );
        assert!(!cmp.eval(&t));
        assert!(PhysPredicate::Not(Box::new(cmp)).eval(&t));
    }

    #[test]
    fn fingerprints_distinguish_structure_and_salt() {
        let scan_r = Plan::Scan("r".into());
        let scan_s = Plan::Scan("s".into());
        assert_eq!(scan_r.fingerprint128(&[]), scan_r.fingerprint128(&[]));
        assert_ne!(scan_r.fingerprint128(&[]), scan_s.fingerprint128(&[]));
        assert_ne!(
            scan_r.fingerprint128(&[0]),
            scan_r.fingerprint128(&[1]),
            "join-key salt participates"
        );
        let union = Plan::Union(Box::new(scan_r.clone()), Box::new(scan_s.clone()));
        let monus = Plan::Monus(Box::new(scan_r.clone()), Box::new(scan_s.clone()));
        assert_ne!(union.fingerprint128(&[]), monus.fingerprint128(&[]));
    }

    #[test]
    fn literal_fingerprint_is_insertion_order_independent() {
        let mut a = Bag::new();
        for i in 0..50 {
            a.insert(tuple![i]);
        }
        let mut b = Bag::new();
        for i in (0..50).rev() {
            b.insert(tuple![i]);
        }
        assert_eq!(
            Plan::Literal(a).fingerprint128(&[]),
            Plan::Literal(b).fingerprint128(&[])
        );
        assert_ne!(
            Plan::Literal(Bag::singleton(tuple![1])).fingerprint128(&[]),
            Plan::Literal(Bag::singleton(tuple![2])).fingerprint128(&[])
        );
    }

    #[test]
    fn plan_tables_sorted_dedup() {
        let p = Plan::Union(
            Box::new(Plan::Scan("s".into())),
            Box::new(Plan::Product(
                Box::new(Plan::Scan("r".into())),
                Box::new(Plan::Scan("r".into())),
            )),
        );
        assert_eq!(
            p.tables().into_iter().collect::<Vec<_>>(),
            vec!["r".to_string(), "s".to_string()]
        );
    }
}
