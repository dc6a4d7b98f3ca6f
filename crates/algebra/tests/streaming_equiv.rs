//! Differential testing of the fused streaming executor against the
//! materializing reference evaluator.
//!
//! The streaming executor (`eval`) is the production hot path;
//! the reference evaluator (`eval_reference`) is the strict bottom-up
//! oracle it must agree with — bag-exactly, multiplicities included — on
//! every plan the optimizer can emit. Random plans come from
//! [`dvm_algebra::testgen`], including self-joins, pipeline breakers under
//! fused chains, and (in the mixed universe) states carrying NULL join
//! keys and `Double` values that coerce to equal `Int`s.

use dvm_algebra::infer::{compile, compile_unoptimized};
use dvm_algebra::testgen::Universe;
use dvm_algebra::{eval, eval_reference};
use dvm_testkit::Prop;

/// Streaming ≡ reference on optimizer output over plain integer states.
#[test]
fn streaming_matches_reference_on_random_plans() {
    let u = Universe::small(3);
    let provider = u.provider();
    Prop::new("streaming_matches_reference_on_random_plans")
        .cases(256)
        .run(|rng| {
            let state = u.state(rng, 5);
            let e = u.expr(rng, 3);
            let plan = compile(&e, &provider).expect("typecheck").plan;
            let streamed = eval(&plan, &state).expect("streaming eval");
            let reference = eval_reference(&plan, &state).expect("reference eval");
            assert_eq!(streamed, reference, "executors diverged on {e}");
        });
}

/// Same, over mixed-type states: NULL join keys must never join, and
/// integral doubles must hash-join their coerced `Int` equals — in both
/// executors, identically.
#[test]
fn streaming_matches_reference_with_null_and_double_keys() {
    let u = Universe::mixed(3);
    let provider = u.provider();
    Prop::new("streaming_matches_reference_with_null_and_double_keys")
        .cases(256)
        .run(|rng| {
            let state = u.state(rng, 5);
            let e = u.expr(rng, 3);
            let plan = compile(&e, &provider).expect("typecheck").plan;
            let streamed = eval(&plan, &state).expect("streaming eval");
            let reference = eval_reference(&plan, &state).expect("reference eval");
            assert_eq!(streamed, reference, "executors diverged on {e}");
        });
}

/// Aggregate plans: `GroupAggregate` is a pipeline breaker in both
/// executors, but the fused chains feeding it differ — the streaming path
/// pipelines σ/Π/ε into the grouping hash table while the reference
/// evaluator materializes every intermediate bag. Both must emit the same
/// set of groups with the same COUNT/SUM/AVG/MIN/MAX values, including
/// NULL grouping keys (which group together) and `Double` contributions
/// (which coerce SUM to Double and must agree bit-for-bit — the mixed
/// universe only emits dyadic doubles, so sums are exact).
#[test]
fn streaming_matches_reference_on_aggregate_plans() {
    let u = Universe::mixed(3);
    let provider = u.provider();
    Prop::new("streaming_matches_reference_on_aggregate_plans")
        .cases(400)
        .run(|rng| {
            let state = u.state(rng, 5);
            let e = u.agg_expr(rng, 2);
            let optimized = compile(&e, &provider).expect("typecheck").plan;
            let naive = compile_unoptimized(&e, &provider).expect("typecheck").plan;
            let streamed = eval(&optimized, &state).expect("streaming eval");
            let reference = eval_reference(&naive, &state).expect("reference eval");
            assert_eq!(streamed, reference, "executors diverged on {e}");
        });
}

/// EXCEPT over NULL-bearing states: the paper's semijoin expansion
/// `Π(σ(Q1 × (ε(Q1) ∸ Q2)))` must agree with the direct bag operator in
/// *both* executors. The expansion joins on null-safe `<=>`, so a NULL-
/// bearing row of Q1 finds its own image in the survivor side exactly like
/// the direct operator's value-identity comparison does. (Previously the
/// expansion used three-valued `=`, silently dropping NULL rows — the
/// PR 6 divergence this fixes.)
#[test]
fn except_expansion_matches_direct_operator_on_null_rows() {
    use dvm_algebra::infer::infer_schema;
    let u = Universe::mixed(3);
    let provider = u.provider();
    Prop::new("except_expansion_matches_direct_operator_on_null_rows")
        .cases(256)
        .run(|rng| {
            let state = u.state(rng, 5);
            let q1 = u.expr(rng, 2);
            let q2 = u.expr(rng, 2);
            let direct = q1.clone().except(q2.clone());
            let schema_of = |e: &dvm_algebra::Expr| infer_schema(e, &provider);
            let expanded = direct.expand_derived(&schema_of).expect("expandable");

            let direct_plan = compile(&direct, &provider).expect("typecheck").plan;
            let expanded_plan = compile(&expanded, &provider).expect("typecheck").plan;
            let direct_streamed = eval(&direct_plan, &state).expect("eval");
            let expanded_streamed = eval(&expanded_plan, &state).expect("eval");
            let direct_reference = eval_reference(&direct_plan, &state).expect("eval");
            let expanded_reference = eval_reference(&expanded_plan, &state).expect("eval");
            assert_eq!(
                direct_streamed, expanded_streamed,
                "streaming: expansion diverged from direct EXCEPT on {direct}"
            );
            assert_eq!(
                direct_reference, expanded_reference,
                "reference: expansion diverged from direct EXCEPT on {direct}"
            );
            assert_eq!(direct_streamed, direct_reference, "executors diverged");
        });
}

/// Sharded ≡ unsharded: forcing every table bag into the hash-partitioned
/// representation must not change any query result, in either executor.
/// Random plans over the mixed universe cover NULL join keys, coercing
/// Int/Double keys, and every operator the optimizer can emit.
#[test]
fn sharded_state_matches_flat_on_random_plans() {
    let u = Universe::mixed(3);
    let provider = u.provider();
    Prop::new("sharded_state_matches_flat_on_random_plans")
        .cases(192)
        .run(|rng| {
            let flat_state = u.state(rng, 5);
            let mut sharded_state = flat_state.clone();
            for bag in sharded_state.values_mut() {
                bag.ensure_sharded();
            }
            let e = u.expr(rng, 3);
            let plan = compile(&e, &provider).expect("typecheck").plan;
            let flat = eval(&plan, &flat_state).expect("eval");
            let sharded = eval(&plan, &sharded_state).expect("eval");
            assert_eq!(flat, sharded, "streaming diverged on sharded state: {e}");
            let flat_ref = eval_reference(&plan, &flat_state).expect("eval");
            let sharded_ref = eval_reference(&plan, &sharded_state).expect("eval");
            assert_eq!(flat_ref, sharded_ref, "reference diverged on sharded state: {e}");
            assert_eq!(flat, flat_ref, "executors diverged: {e}");
        });
}

/// Sharded ≡ unsharded on aggregate plans: grouping hashes whole key
/// prefixes, orthogonal to the shard routing hash — results must be
/// identical when inputs are pre-sharded.
#[test]
fn sharded_state_matches_flat_on_aggregate_plans() {
    let u = Universe::mixed(3);
    let provider = u.provider();
    Prop::new("sharded_state_matches_flat_on_aggregate_plans")
        .cases(192)
        .run(|rng| {
            let flat_state = u.state(rng, 5);
            let mut sharded_state = flat_state.clone();
            for bag in sharded_state.values_mut() {
                bag.ensure_sharded();
            }
            let e = u.agg_expr(rng, 2);
            let plan = compile(&e, &provider).expect("typecheck").plan;
            let flat = eval(&plan, &flat_state).expect("eval");
            let sharded = eval(&plan, &sharded_state).expect("eval");
            assert_eq!(flat, sharded, "streaming diverged on sharded state: {e}");
            let sharded_ref = eval_reference(&plan, &sharded_state).expect("eval");
            assert_eq!(flat, sharded_ref, "reference diverged on sharded state: {e}");
        });
}

/// The streaming executor over the *optimized* plan still agrees with the
/// reference evaluator over the *unoptimized* plan — fusion composes with
/// join extraction and filter pushdown without changing semantics.
#[test]
fn streaming_optimized_matches_reference_unoptimized() {
    let u = Universe::mixed(3);
    let provider = u.provider();
    Prop::new("streaming_optimized_matches_reference_unoptimized")
        .cases(192)
        .run(|rng| {
            let state = u.state(rng, 5);
            let e = u.expr(rng, 3);
            let optimized = compile(&e, &provider).expect("typecheck").plan;
            let naive = compile_unoptimized(&e, &provider).expect("typecheck").plan;
            let streamed = eval(&optimized, &state).expect("streaming eval");
            let reference = eval_reference(&naive, &state).expect("reference eval");
            assert_eq!(
                streamed, reference,
                "fused+optimized diverged from naive reference on {e}"
            );
        });
}

/// Pair evaluation ≡ two independent reference evaluations. The pairs have
/// the shapes Figure 2 derives — `(X ∸ Y, Y ∸ X)` over aggregates (the γ
/// rule) and two small sides joined with one survivor `X ∸ Y` (the join
/// rule) — over random `X`, `Y` with EXCEPT, NULL and Int/Double join keys
/// and `<=>` conjuncts, so subplans are shared between the two plans, join
/// builds go to the smaller side and key sets are pushed into the probe
/// side. Probe on and probe off must both agree with the oracle, and the
/// profile trees say how often each mechanism actually ran.
#[test]
fn pair_evaluation_matches_independent_reference_evaluation() {
    use dvm_algebra::predicate::{col, Predicate};
    use dvm_algebra::{eval_pair, AggCall, AggFunc, CmpOp, ColRef, Expr, Operand, SharedPlans};
    use std::sync::atomic::{AtomicUsize, Ordering};

    let u = Universe::mixed(3);
    let provider = u.provider();
    let (reused, pushed) = (AtomicUsize::new(0), AtomicUsize::new(0));
    Prop::new("pair_evaluation_matches_independent_reference_evaluation")
        .cases(500)
        .run(|rng| {
            let state = u.state(rng, 5);
            let (x, y) = (u.expr(rng, 2), u.expr(rng, 2));
            let (del, ins) = if rng.chance(1, 2) {
                let calls = vec![
                    AggCall::count_star(),
                    AggCall::new(AggFunc::Sum, ColRef::new("b")),
                    AggCall::new(AggFunc::Min, ColRef::new("b")),
                ];
                let g = |e: Expr| e.group_aggregate(vec![ColRef::new("a")], calls.clone());
                (g(x.clone()).monus(g(y.clone())), g(y).monus(g(x)))
            } else {
                let survivor = x.monus(y);
                let join = |rng: &mut dvm_algebra::testgen::Rng, small: Expr| {
                    let key = |rng: &mut dvm_algebra::testgen::Rng, side: &str| {
                        let column = if rng.chance(1, 2) { "a" } else { "b" };
                        col(&format!("{side}.{column}"))
                    };
                    let mut on = Predicate::eq(key(rng, "l"), key(rng, "r"));
                    if rng.chance(1, 3) {
                        let null_safe = |side: &str| Operand::Col(ColRef::qualified(side, "b"));
                        on = on.and(Predicate::Cmp(
                            null_safe("l"),
                            CmpOp::NullEq,
                            null_safe("r"),
                        ));
                    }
                    let (l, r) = if rng.chance(1, 2) {
                        (small, survivor.clone())
                    } else {
                        (survivor.clone(), small)
                    };
                    (l.alias("l"))
                        .product(r.alias("r"))
                        .select(on.and(u.predicate(rng, &["l", "r"])))
                        .project(["l.a", "r.b"])
                };
                let (d1, d2) = (u.expr(rng, 1), u.expr(rng, 1));
                (join(rng, d1), join(rng, d2).union(survivor.clone()))
            };
            let del = compile(&del, &provider).expect("typecheck").plan;
            let ins = compile(&ins, &provider).expect("typecheck").plan;
            let shared = SharedPlans::of(&del, &ins);
            let want = (
                eval_reference(&del, &state).expect("reference ▼"),
                eval_reference(&ins, &state).expect("reference ▲"),
            );

            let plain = eval_pair(&del, &ins, &shared, &state).expect("pair eval");
            assert_eq!(plain, want, "pair diverged on\n▼ {del:?}\n▲ {ins:?}");

            dvm_obs::set_profiling(true);
            let _ = dvm_obs::profile::take_captured();
            let probed = eval_pair(&del, &ins, &shared, &state);
            let trees = dvm_obs::profile::take_captured().evals;
            dvm_obs::set_profiling(false);
            assert_eq!(
                probed.expect("probed pair eval"),
                want,
                "probed pair diverged"
            );
            assert_eq!(trees.len(), 2, "one tree per plan of the pair");
            for tree in &trees {
                assert_eq!(
                    tree.total_exclusive_nanos(),
                    tree.nanos,
                    "{}",
                    tree.render()
                );
            }
            let mentions = |label: &str| {
                let mut nodes = trees.iter().flat_map(|t| t.nodes());
                nodes.any(|n| n.label.contains(label))
            };
            if mentions("(shared)") {
                assert!(!shared.is_empty());
                reused.fetch_add(1, Ordering::Relaxed);
            }
            if mentions("KeyFilter") {
                pushed.fetch_add(1, Ordering::Relaxed);
            }
        });
    let (reused, pushed) = (reused.into_inner(), pushed.into_inner());
    assert!(
        reused > 100,
        "shared subplans were reused in only {reused} cases"
    );
    assert!(pushed > 100, "key sets were pushed in only {pushed} cases");
}
