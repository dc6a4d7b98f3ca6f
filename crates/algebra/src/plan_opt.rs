//! Physical plan optimization: selection pushdown and hash-join formation.
//!
//! The naive evaluation of `σ_p(E × F)` materializes the full cross
//! product — infeasible for the paper's retail workload (a 50k-customer ×
//! 250k-sales join would allocate billions of tuples). This pass rewrites
//!
//! ```text
//! Filter(p, Product(l, r))   →   HashJoin { l', r', keys, residual }
//! ```
//!
//! splitting the conjuncts of `p` into: left-only (pushed into `l`),
//! right-only (pushed into `r`, indices shifted), equi-join conditions
//! (`col_i = col_j` across the two sides → hash keys), and a residual
//! evaluated per joined tuple. Nested product chains optimize bottom-up
//! because pushed-down conjuncts re-expose inner `Filter(Product)` shapes.
//!
//! The rewrite is purely positional and value-preserving; the randomized
//! equivalence tests at the bottom compare optimized and unoptimized
//! evaluation on generated expressions.

use crate::plan::{PhysOperand, PhysPredicate, Plan};
use dvm_storage::hasher::FxHashMap;
use dvm_storage::Bag;

/// Optimize a plan. `scan_arity` maps table names to their arities (the
/// compiler provides it from the schema provider).
pub fn optimize(plan: Plan, scan_arity: &FxHashMap<String, usize>) -> Plan {
    match plan {
        Plan::Filter(pred, input) => {
            let input = optimize(*input, scan_arity);
            // merge directly nested filters into one conjunct set
            let (pred, input) = match input {
                Plan::Filter(inner, grand) => {
                    (PhysPredicate::And(Box::new(pred), Box::new(inner)), *grand)
                }
                other => (pred, other),
            };
            match input {
                Plan::Product(l, r) => build_join(pred, *l, *r, scan_arity),
                // Selection distributes over every bag operator with 0/1
                // predicates: σ_p(A ⊎ B) = σ_p(A) ⊎ σ_p(B), and likewise
                // for ∸, min, max, EXCEPT (per-tuple multiplicities are
                // scaled by p(t) ∈ {0,1} on both sides) and ε. Pushing the
                // filter down is what lets the differential rules' shapes
                // — σ over a union of delta products — become hash joins.
                Plan::Union(a, b) => Plan::Union(
                    Box::new(optimize(Plan::Filter(pred.clone(), a), scan_arity)),
                    Box::new(optimize(Plan::Filter(pred, b), scan_arity)),
                ),
                Plan::Monus(a, b) => Plan::Monus(
                    Box::new(optimize(Plan::Filter(pred.clone(), a), scan_arity)),
                    Box::new(optimize(Plan::Filter(pred, b), scan_arity)),
                ),
                Plan::MinIntersect(a, b) => Plan::MinIntersect(
                    Box::new(optimize(Plan::Filter(pred.clone(), a), scan_arity)),
                    Box::new(optimize(Plan::Filter(pred, b), scan_arity)),
                ),
                Plan::MaxUnion(a, b) => Plan::MaxUnion(
                    Box::new(optimize(Plan::Filter(pred.clone(), a), scan_arity)),
                    Box::new(optimize(Plan::Filter(pred, b), scan_arity)),
                ),
                Plan::Except(a, b) => Plan::Except(
                    Box::new(optimize(Plan::Filter(pred.clone(), a), scan_arity)),
                    Box::new(optimize(Plan::Filter(pred, b), scan_arity)),
                ),
                Plan::DupElim(a) => {
                    Plan::DupElim(Box::new(optimize(Plan::Filter(pred, a), scan_arity)))
                }
                // σ_p(Π_cols(E)) = Π_cols(σ_p'(E)) with positions remapped
                // through the projection.
                Plan::Project(cols, a) => {
                    let remapped = remap_pred(pred, &cols);
                    Plan::Project(
                        cols,
                        Box::new(optimize(Plan::Filter(remapped, a), scan_arity)),
                    )
                }
                other => Plan::Filter(pred, Box::new(other)),
            }
        }
        Plan::Project(cols, input) => Plan::Project(cols, Box::new(optimize(*input, scan_arity))),
        Plan::DupElim(input) => Plan::DupElim(Box::new(optimize(*input, scan_arity))),
        Plan::Union(a, b) => Plan::Union(
            Box::new(optimize(*a, scan_arity)),
            Box::new(optimize(*b, scan_arity)),
        ),
        Plan::Monus(a, b) => Plan::Monus(
            Box::new(optimize(*a, scan_arity)),
            Box::new(optimize(*b, scan_arity)),
        ),
        Plan::Product(a, b) => Plan::Product(
            Box::new(optimize(*a, scan_arity)),
            Box::new(optimize(*b, scan_arity)),
        ),
        Plan::MinIntersect(a, b) => Plan::MinIntersect(
            Box::new(optimize(*a, scan_arity)),
            Box::new(optimize(*b, scan_arity)),
        ),
        Plan::MaxUnion(a, b) => Plan::MaxUnion(
            Box::new(optimize(*a, scan_arity)),
            Box::new(optimize(*b, scan_arity)),
        ),
        Plan::Except(a, b) => Plan::Except(
            Box::new(optimize(*a, scan_arity)),
            Box::new(optimize(*b, scan_arity)),
        ),
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } => Plan::HashJoin {
            left: Box::new(optimize(*left, scan_arity)),
            right: Box::new(optimize(*right, scan_arity)),
            left_keys,
            right_keys,
            residual,
        },
        Plan::GroupAggregate { keys, aggs, input } => Plan::GroupAggregate {
            keys,
            aggs,
            input: Box::new(optimize(*input, scan_arity)),
        },
        leaf @ (Plan::Scan(_) | Plan::Literal(_)) => leaf,
    }
}

/// Split `pred` over `l × r` and build the best available join.
fn build_join(
    pred: PhysPredicate,
    l: Plan,
    r: Plan,
    scan_arity: &FxHashMap<String, usize>,
) -> Plan {
    let Some(lar) = arity(&l, scan_arity) else {
        // Unknown left arity (empty literal): no classification possible.
        return Plan::Filter(pred, Box::new(Plan::Product(Box::new(l), Box::new(r))));
    };

    let mut conjuncts = Vec::new();
    flatten_conjuncts(pred, &mut conjuncts);

    let mut left_preds = Vec::new();
    let mut right_preds = Vec::new();
    let mut left_keys = Vec::new();
    let mut right_keys = Vec::new();
    let mut residual = Vec::new();

    for c in conjuncts {
        match classify(&c, lar) {
            Class::Left => left_preds.push(c),
            Class::Right => right_preds.push(shift_pred(c, lar)),
            Class::EquiJoin(li, ri) => {
                left_keys.push(li);
                right_keys.push(ri - lar);
            }
            Class::Residual => residual.push(c),
        }
    }

    let mut l = optimize(l, scan_arity);
    if let Some(p) = combine(left_preds) {
        // re-run the pass so a pushed-down filter over an inner product
        // becomes a join as well
        l = optimize(Plan::Filter(p, Box::new(l)), scan_arity);
    }
    let mut r = optimize(r, scan_arity);
    if let Some(p) = combine(right_preds) {
        r = optimize(Plan::Filter(p, Box::new(r)), scan_arity);
    }

    if left_keys.is_empty() {
        // no equi keys: plain product, residual applied on top
        match combine(residual) {
            Some(p) => Plan::Filter(p, Box::new(Plan::Product(Box::new(l), Box::new(r)))),
            None => Plan::Product(Box::new(l), Box::new(r)),
        }
    } else {
        Plan::HashJoin {
            left: Box::new(l),
            right: Box::new(r),
            left_keys,
            right_keys,
            residual: combine(residual).unwrap_or(PhysPredicate::Const(true)),
        }
    }
}

enum Class {
    Left,
    Right,
    /// `col_i = col_j` with `i` on the left side and `j` on the right.
    EquiJoin(usize, usize),
    Residual,
}

fn classify(pred: &PhysPredicate, lar: usize) -> Class {
    use crate::predicate::CmpOp;
    if let PhysPredicate::Cmp(PhysOperand::Col(i), CmpOp::Eq, PhysOperand::Col(j)) = pred {
        let (lo, hi) = (*i.min(j), *i.max(j));
        if lo < lar && hi >= lar {
            return Class::EquiJoin(lo, hi);
        }
    }
    let cols = pred_columns(pred);
    if cols.iter().all(|&c| c < lar) {
        Class::Left
    } else if cols.iter().all(|&c| c >= lar) {
        Class::Right
    } else {
        Class::Residual
    }
}

fn pred_columns(pred: &PhysPredicate) -> Vec<usize> {
    fn operand(out: &mut Vec<usize>, o: &PhysOperand) {
        if let PhysOperand::Col(i) = o {
            out.push(*i);
        }
    }
    let mut out = Vec::new();
    let mut stack = vec![pred];
    while let Some(p) = stack.pop() {
        match p {
            PhysPredicate::Const(_) => {}
            PhysPredicate::Cmp(l, _, r) => {
                operand(&mut out, l);
                operand(&mut out, r);
            }
            PhysPredicate::And(a, b) | PhysPredicate::Or(a, b) => {
                stack.push(a);
                stack.push(b);
            }
            PhysPredicate::Not(a) => stack.push(a),
        }
    }
    out
}

fn flatten_conjuncts(pred: PhysPredicate, out: &mut Vec<PhysPredicate>) {
    match pred {
        PhysPredicate::And(a, b) => {
            flatten_conjuncts(*a, out);
            flatten_conjuncts(*b, out);
        }
        PhysPredicate::Const(true) => {}
        other => out.push(other),
    }
}

fn combine(mut preds: Vec<PhysPredicate>) -> Option<PhysPredicate> {
    let first = preds.pop()?;
    Some(preds.into_iter().fold(first, |acc, p| {
        PhysPredicate::And(Box::new(acc), Box::new(p))
    }))
}

/// Remap predicate positions through a projection: position `i` in the
/// projected tuple is position `cols[i]` in the input tuple.
fn remap_pred(pred: PhysPredicate, cols: &[usize]) -> PhysPredicate {
    fn remap_op(o: PhysOperand, cols: &[usize]) -> PhysOperand {
        match o {
            PhysOperand::Col(i) => PhysOperand::Col(cols[i]),
            c => c,
        }
    }
    match pred {
        PhysPredicate::Const(b) => PhysPredicate::Const(b),
        PhysPredicate::Cmp(l, op, r) => {
            PhysPredicate::Cmp(remap_op(l, cols), op, remap_op(r, cols))
        }
        PhysPredicate::And(a, b) => PhysPredicate::And(
            Box::new(remap_pred(*a, cols)),
            Box::new(remap_pred(*b, cols)),
        ),
        PhysPredicate::Or(a, b) => PhysPredicate::Or(
            Box::new(remap_pred(*a, cols)),
            Box::new(remap_pred(*b, cols)),
        ),
        PhysPredicate::Not(a) => PhysPredicate::Not(Box::new(remap_pred(*a, cols))),
    }
}

/// Shift every column index down by `lar` (right-side pushdown).
fn shift_pred(pred: PhysPredicate, lar: usize) -> PhysPredicate {
    fn shift_op(o: PhysOperand, lar: usize) -> PhysOperand {
        match o {
            PhysOperand::Col(i) => PhysOperand::Col(i - lar),
            c => c,
        }
    }
    match pred {
        PhysPredicate::Const(b) => PhysPredicate::Const(b),
        PhysPredicate::Cmp(l, op, r) => PhysPredicate::Cmp(shift_op(l, lar), op, shift_op(r, lar)),
        PhysPredicate::And(a, b) => {
            PhysPredicate::And(Box::new(shift_pred(*a, lar)), Box::new(shift_pred(*b, lar)))
        }
        PhysPredicate::Or(a, b) => {
            PhysPredicate::Or(Box::new(shift_pred(*a, lar)), Box::new(shift_pred(*b, lar)))
        }
        PhysPredicate::Not(a) => PhysPredicate::Not(Box::new(shift_pred(*a, lar))),
    }
}

// ---- streaming fusion -----------------------------------------------------

/// One pipelined per-tuple operator, applied in order to each streamed
/// `(tuple, multiplicity)` pair without materializing an intermediate bag.
#[derive(Debug, Clone, Copy)]
pub enum FusedOp<'a> {
    /// Drop tuples failing the predicate.
    Filter(&'a PhysPredicate),
    /// Positional projection (multiplicities untouched; merging of
    /// now-equal tuples happens wherever the stream is next materialized).
    Project(&'a [usize]),
}

/// Where a fused pipeline's tuples come from.
#[derive(Debug)]
pub enum FusedSource<'a> {
    /// Stream a named table's pinned bag.
    Scan(&'a str),
    /// Stream a constant bag.
    Literal(&'a Bag),
    /// Stream the left pipeline, then the right (`⊎` needs no state).
    Union(Box<FusedPlan<'a>>, Box<FusedPlan<'a>>),
    /// Hash join: the smaller side, picked at run time (both sides are
    /// carried fused *and* as raw plans), is materialized into a hash table
    /// that the other side's tuples stream through.
    Join {
        /// Left-side pipeline (streamed when the right side is built).
        left: Box<FusedPlan<'a>>,
        /// Left-side plan (materialized when the executor flips the build).
        left_plan: &'a Plan,
        /// Right-side pipeline (streamed when the build is flipped).
        right: Box<FusedPlan<'a>>,
        /// Right-side plan (the default build side).
        right_plan: &'a Plan,
        /// Key positions in the left tuple.
        left_keys: &'a [usize],
        /// Key positions in the right tuple.
        right_keys: &'a [usize],
        /// Residual predicate over the concatenated tuple.
        residual: &'a PhysPredicate,
    },
    /// A pipeline breaker (`∸`, `ε`, `min`, `max`, `EXCEPT`, `×`): its
    /// result must be fully materialized before anything can stream, so
    /// the executor evaluates it with the exact bag primitives and streams
    /// the owned result out.
    Breaker(&'a Plan),
}

/// A [`Plan`] re-shaped for streaming execution: a source plus a fused
/// chain of per-tuple ops, applied innermost-first. Borrowed from the plan
/// it was fused from — building one allocates a few vecs and boxes but
/// never touches a tuple.
#[derive(Debug)]
pub struct FusedPlan<'a> {
    /// Tuple source.
    pub source: FusedSource<'a>,
    /// Per-tuple op chain, in application order.
    pub ops: Vec<FusedOp<'a>>,
}

/// Fuse a plan for streaming execution.
///
/// `Filter`/`Project` chains collapse into per-tuple op chains over the
/// nearest source below them (`Scan`, `Literal`, `⊎`, `HashJoin`) — so the
/// selective change-query shape `Π(σ(scan/join))` runs without a single
/// intermediate bag. The chain over a `⊎` runs in both of its inputs
/// instead — σ and Π treat each tuple alone — so a change query's
/// projection over its union of join terms reaches each join. Everything
/// else is a pipeline breaker and stays materialized, which keeps the
/// breakers' exact multiplicity semantics (e.g. `×`'s saturating
/// arithmetic) byte-identical to the reference evaluator.
pub fn fuse(plan: &Plan) -> FusedPlan<'_> {
    fuse_under(plan, Vec::new())
}

/// [`fuse`] `plan` as the input of the op chain `outer`.
fn fuse_under<'a>(plan: &'a Plan, outer: Vec<FusedOp<'a>>) -> FusedPlan<'a> {
    let mut ops = Vec::new();
    let mut cur = plan;
    loop {
        match cur {
            Plan::Filter(pred, input) => {
                ops.push(FusedOp::Filter(pred));
                cur = input;
            }
            Plan::Project(cols, input) => {
                ops.push(FusedOp::Project(cols));
                cur = input;
            }
            _ => break,
        }
    }
    // Collected outermost-first; streams apply innermost-first.
    ops.reverse();
    ops.extend(outer);
    let source = match cur {
        Plan::Scan(name) => FusedSource::Scan(name),
        Plan::Literal(bag) => FusedSource::Literal(bag),
        Plan::Union(a, b) => {
            let (a, b) = (fuse_under(a, ops.clone()), fuse_under(b, ops));
            let source = FusedSource::Union(Box::new(a), Box::new(b));
            return FusedPlan {
                source,
                ops: Vec::new(),
            };
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } => FusedSource::Join {
            left: Box::new(fuse(left)),
            left_plan: left,
            right: Box::new(fuse(right)),
            right_plan: right,
            left_keys,
            right_keys,
            residual,
        },
        breaker => FusedSource::Breaker(breaker),
    };
    FusedPlan { source, ops }
}

/// Output arity of a plan, when statically known.
fn arity(plan: &Plan, scan_arity: &FxHashMap<String, usize>) -> Option<usize> {
    match plan {
        Plan::Scan(name) => scan_arity.get(name).copied(),
        Plan::Literal(bag) => bag.iter().next().map(|(t, _)| t.arity()),
        Plan::Filter(_, p) | Plan::DupElim(p) => arity(p, scan_arity),
        Plan::Project(cols, _) => Some(cols.len()),
        Plan::Union(a, b)
        | Plan::Monus(a, b)
        | Plan::MinIntersect(a, b)
        | Plan::MaxUnion(a, b)
        | Plan::Except(a, b) => arity(a, scan_arity).or_else(|| arity(b, scan_arity)),
        Plan::Product(a, b) => Some(arity(a, scan_arity)? + arity(b, scan_arity)?),
        Plan::HashJoin { left, right, .. } => {
            Some(arity(left, scan_arity)? + arity(right, scan_arity)?)
        }
        Plan::GroupAggregate { keys, aggs, .. } => Some(keys.len() + aggs.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::expr::Expr;
    use crate::infer::{compile, compile_unoptimized};
    use crate::predicate::{col, lit, Predicate};
    use crate::testgen::{Rng, Universe};
    use dvm_storage::{tuple, Bag, Schema, ValueType};

    fn provider() -> std::collections::HashMap<String, Schema> {
        let mut m = std::collections::HashMap::new();
        m.insert(
            "r".to_string(),
            Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Int)]),
        );
        m.insert(
            "s".to_string(),
            Schema::from_pairs(&[("b", ValueType::Int), ("c", ValueType::Int)]),
        );
        m
    }

    fn state() -> std::collections::HashMap<String, Bag> {
        let mut m = std::collections::HashMap::new();
        m.insert(
            "r".to_string(),
            Bag::from_tuples([tuple![1, 10], tuple![1, 10], tuple![2, 20], tuple![3, 10]]),
        );
        m.insert(
            "s".to_string(),
            Bag::from_tuples([tuple![10, 100], tuple![20, 200], tuple![30, 300]]),
        );
        m
    }

    #[test]
    fn join_is_formed_and_correct() {
        let p = provider();
        let e = Expr::table("r")
            .alias("r")
            .product(Expr::table("s").alias("s"))
            .select(
                Predicate::eq(col("r.b"), col("s.b")).and(Predicate::gt(col("r.a"), lit(0i64))),
            );
        let optimized = compile(&e, &p).unwrap();
        assert!(
            matches!(optimized.plan, Plan::HashJoin { .. }),
            "expected a hash join, got {:?}",
            optimized.plan
        );
        let naive = compile_unoptimized(&e, &p).unwrap();
        let s = state();
        assert_eq!(
            eval(&optimized.plan, &s).unwrap(),
            eval(&naive.plan, &s).unwrap()
        );
        // duplicates multiply through the join
        let out = eval(&optimized.plan, &s).unwrap();
        assert_eq!(out.multiplicity(&tuple![1, 10, 10, 100]), 2);
    }

    #[test]
    fn single_side_predicates_pushed_down() {
        let p = provider();
        let e = Expr::table("r")
            .alias("r")
            .product(Expr::table("s").alias("s"))
            .select(
                Predicate::eq(col("r.b"), col("s.b"))
                    .and(Predicate::eq(col("r.a"), lit(1i64)))
                    .and(Predicate::lt(col("s.c"), lit(250i64))),
            );
        let q = compile(&e, &p).unwrap();
        let Plan::HashJoin { left, right, .. } = &q.plan else {
            panic!("expected join: {:?}", q.plan);
        };
        assert!(matches!(**left, Plan::Filter(..)), "left filter pushed");
        assert!(matches!(**right, Plan::Filter(..)), "right filter pushed");
        let s = state();
        let out = eval(&q.plan, &s).unwrap();
        assert_eq!(out.len(), 2); // [1,10,10,100] ×2
    }

    #[test]
    fn non_equi_product_keeps_filter() {
        let p = provider();
        let e = Expr::table("r")
            .alias("r")
            .product(Expr::table("s").alias("s"))
            .select(Predicate::lt(col("r.b"), col("s.b")));
        let q = compile(&e, &p).unwrap();
        assert!(matches!(q.plan, Plan::Filter(_, _)));
        let s = state();
        let naive = compile_unoptimized(&e, &p).unwrap();
        assert_eq!(eval(&q.plan, &s).unwrap(), eval(&naive.plan, &s).unwrap());
    }

    #[test]
    fn nested_products_become_nested_joins() {
        let mut p = provider();
        p.insert(
            "t".to_string(),
            Schema::from_pairs(&[("c", ValueType::Int), ("d", ValueType::Int)]),
        );
        let e = Expr::table("r")
            .alias("r")
            .product(Expr::table("s").alias("s"))
            .product(Expr::table("t").alias("t"))
            .select(
                Predicate::eq(col("r.b"), col("s.b")).and(Predicate::eq(col("s.c"), col("t.c"))),
            );
        let q = compile(&e, &p).unwrap();
        // outer join on s.c = t.c; inner (pushed) join on r.b = s.b
        let Plan::HashJoin { left, .. } = &q.plan else {
            panic!("outer join expected: {:?}", q.plan);
        };
        assert!(
            matches!(**left, Plan::HashJoin { .. }),
            "inner join expected: {left:?}"
        );
        let mut s = state();
        s.insert(
            "t".to_string(),
            Bag::from_tuples([tuple![100, 1], tuple![300, 3]]),
        );
        let naive = compile_unoptimized(&e, &p).unwrap();
        assert_eq!(eval(&q.plan, &s).unwrap(), eval(&naive.plan, &s).unwrap());
    }

    #[test]
    fn filter_pushes_through_union_of_products() {
        // The differential-rule shape: σ over a union of delta products
        // must become a union of hash joins, not filtered cross products.
        let p = provider();
        let join_pred = Predicate::eq(col("r.b"), col("s.b"));
        let e = Expr::table("r")
            .alias("r")
            .product(Expr::table("s").alias("s"))
            .union(
                Expr::table("r")
                    .alias("r")
                    .product(Expr::table("s").alias("s")),
            )
            .select(join_pred);
        let q = compile(&e, &p).unwrap();
        let Plan::Union(a, b) = &q.plan else {
            panic!("filter should push through the union: {:?}", q.plan);
        };
        assert!(matches!(**a, Plan::HashJoin { .. }));
        assert!(matches!(**b, Plan::HashJoin { .. }));
        let s = state();
        let naive = compile_unoptimized(&e, &p).unwrap();
        assert_eq!(eval(&q.plan, &s).unwrap(), eval(&naive.plan, &s).unwrap());
    }

    #[test]
    fn filter_pushes_through_projection_with_remap() {
        let p = provider();
        let e = Expr::table("r")
            .project(["b", "a"])
            .select(Predicate::gt(col("a"), lit(1i64)));
        let q = compile(&e, &p).unwrap();
        let Plan::Project(_, inner) = &q.plan else {
            panic!("projection should be outermost: {:?}", q.plan);
        };
        assert!(matches!(**inner, Plan::Filter(..)));
        let s = state();
        let naive = compile_unoptimized(&e, &p).unwrap();
        assert_eq!(eval(&q.plan, &s).unwrap(), eval(&naive.plan, &s).unwrap());
    }

    #[test]
    fn filter_pushes_through_monus_and_dedup() {
        let p = provider();
        let e = Expr::table("r")
            .monus(Expr::table("r").dedup())
            .select(Predicate::eq(col("a"), lit(1i64)));
        let q = compile(&e, &p).unwrap();
        assert!(
            matches!(q.plan, Plan::Monus(..)),
            "filter pushed below monus: {:?}",
            q.plan
        );
        let s = state();
        let naive = compile_unoptimized(&e, &p).unwrap();
        assert_eq!(eval(&q.plan, &s).unwrap(), eval(&naive.plan, &s).unwrap());
    }

    #[test]
    fn fuse_collapses_filter_project_chains() {
        let p = provider();
        let e = Expr::table("r")
            .select(Predicate::gt(col("a"), lit(1i64)))
            .project(["b"])
            .select(Predicate::lt(col("b"), lit(100i64)));
        let q = compile(&e, &p).unwrap();
        let fused = fuse(&q.plan);
        assert!(
            matches!(fused.source, FusedSource::Scan("r")),
            "chain should bottom out at the scan: {fused:?}"
        );
        // Filter pushdown has already merged both selections below the
        // projection, so fusion sees one conjunctive filter then a project.
        assert_eq!(
            fused.ops.len(),
            2,
            "merged filter + project fused: {fused:?}"
        );
        assert!(matches!(fused.ops[0], FusedOp::Filter(_)));
        assert!(matches!(fused.ops[1], FusedOp::Project(_)));
    }

    #[test]
    fn fuse_streams_joins_and_breaks_on_monus() {
        let p = provider();
        let join = Expr::table("r")
            .alias("r")
            .product(Expr::table("s").alias("s"))
            .select(Predicate::eq(col("r.b"), col("s.b")))
            .project(["a", "c"]);
        let q = compile(&join, &p).unwrap();
        let fused = fuse(&q.plan);
        assert!(matches!(fused.source, FusedSource::Join { .. }));
        assert_eq!(fused.ops.len(), 1, "projection fused over the probe output");

        let diff = Expr::table("r").monus(Expr::table("r").dedup());
        let q2 = compile(&diff, &p).unwrap();
        let fused2 = fuse(&q2.plan);
        assert!(matches!(fused2.source, FusedSource::Breaker(_)));
        assert!(fused2.ops.is_empty());
    }

    #[test]
    fn randomized_equivalence() {
        let u = Universe::small(3);
        let provider = u.provider();
        let mut rng = Rng::new(31337);
        for _ in 0..300 {
            let state = u.state(&mut rng, 5);
            let e = u.expr(&mut rng, 3);
            let optimized = compile(&e, &provider).unwrap();
            let naive = compile_unoptimized(&e, &provider).unwrap();
            assert_eq!(
                eval(&optimized.plan, &state).unwrap(),
                eval(&naive.plan, &state).unwrap(),
                "optimizer changed semantics of {e}"
            );
        }
    }
}
