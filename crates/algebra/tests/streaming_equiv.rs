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
