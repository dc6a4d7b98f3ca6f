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

            let _serial = PROFILING.lock().unwrap_or_else(|p| p.into_inner());
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

/// Serializes the tests that switch the process-wide profiling flag, so
/// that each one's unprobed and probed runs are what they say.
static PROFILING: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The past state of an indexed table, as Figure 2's join rules read it:
/// `X ⋈ σ(R ∸ σ(L))` with an index on `R`'s join key, so `X` streams
/// through `R`'s index and each match keeps `R(t) ∸ L(t)`. Over random
/// mixed-type states — NULL keys, `Int`/`Double` keys, multiplicities up to
/// 3 in `R` and in `L`, an `L` that is no subbag of `R` but often shares
/// its tuples at lower, equal and higher multiplicities — with filters on
/// both `∸` inputs, a `Π` that maps rows of one key to one tuple in a third
/// of the cases, a residual or a projected join output, and empty sides.
/// With the index and without it (a hash join, which skips its probe side
/// after an empty build), probe off and probe on, every answer is the
/// reference evaluator's; the probe trees count the cases that took the
/// index join through the past state.
#[test]
fn index_join_through_a_past_state_matches_reference() {
    use dvm_algebra::eval::ParamSource;
    use dvm_algebra::predicate::{col, lit, Predicate};
    use dvm_algebra::{probed_scans, Expr};
    use dvm_storage::{Catalog, Schema, TableKind, ValueType};
    use std::sync::atomic::{AtomicUsize, Ordering};

    let u = Universe::mixed(3);
    let mut provider = u.provider();
    provider.insert("n".into(), Schema::from_pairs(&[("a", ValueType::Int)]));
    let (past, narrow_past) = (AtomicUsize::new(0), AtomicUsize::new(0));
    Prop::new("index_join_through_a_past_state_matches_reference")
        .cases(400)
        .run(|rng| {
            let mut state = u.state(rng, 5);
            if rng.chance(1, 2) {
                let r = state["t1"].clone();
                let l = state.get_mut("t2").expect("t2");
                for (t, _) in r.iter() {
                    if rng.chance(2, 3) {
                        l.insert_n(t.clone(), 1 + rng.below(3));
                    }
                }
            }
            state.insert("n".into(), state["t2"].project(&[0]));
            // `R = Π_a(σ(t1))` against `L = σ(n)` (narrow), or
            // `R = σ(t1)` against `L = σ(t2)`.
            let narrow = rng.chance(1, 3);
            let a_below = |rng: &mut dvm_algebra::testgen::Rng| {
                Predicate::lt(col("a"), lit(rng.range(1, u.domain + 1)))
            };
            let (mut r, mut l) = match narrow {
                true => (Expr::table("t1"), Expr::table("n")),
                false => (Expr::table("t1"), Expr::table("t2")),
            };
            if rng.chance(2, 3) {
                r = r.select(u.predicate(rng, &[]));
            }
            if narrow {
                r = r.project(["a"]);
            }
            if rng.chance(2, 3) {
                l = l.select(if narrow {
                    a_below(rng)
                } else {
                    u.predicate(rng, &[])
                });
            }
            let mut survivor = r.monus(l);
            if rng.chance(1, 3) {
                survivor = survivor.select(a_below(rng));
            }
            let key = if narrow || rng.chance(1, 2) { "a" } else { "b" };
            let x_key = if rng.chance(1, 2) { "x.a" } else { "x.b" };
            let mut on = Predicate::eq(col(x_key), col(&format!("p.{key}")));
            if rng.chance(1, 3) {
                on = on.and(Predicate::ne(col("x.b"), col("p.a")));
            }
            let x = u.expr(rng, 1).alias("x");
            let p = survivor.alias("p");
            let (l, r) = if rng.chance(1, 2) { (x, p) } else { (p, x) };
            let mut e = l.product(r).select(on);
            if rng.chance(1, 2) {
                e = e.project(["p.a", "x.b"]);
            }
            let plan = compile(&e, &provider).expect("typecheck").plan;
            let want = eval_reference(&plan, &state).expect("reference eval");

            for indexed in [true, false] {
                let catalog = Catalog::new();
                for (name, bag) in &state {
                    let schema = provider[name].clone();
                    let table = catalog
                        .create_table(name.clone(), schema, TableKind::External)
                        .expect("create");
                    // Raw: the generator's NULLs and doubles skip validation.
                    **table.write() = bag.clone();
                }
                if indexed {
                    for (name, cols) in probed_scans(&plan) {
                        catalog.require(&name).expect("table").register_index(&cols);
                    }
                }
                let src = ParamSource::pin(&catalog, &plan.tables(), [("t0", &state["t0"])])
                    .expect("pin");
                let _serial = PROFILING.lock().unwrap_or_else(|p| p.into_inner());
                let plain = eval(&plan, &src).expect("unprobed eval");
                dvm_obs::set_profiling(true);
                let _ = dvm_obs::profile::take_captured();
                let probed = eval(&plan, &src);
                let trees = dvm_obs::profile::take_captured().evals;
                dvm_obs::set_profiling(false);
                assert_eq!(plain, want, "unprobed (indexed: {indexed}) on {e}");
                assert_eq!(probed.expect("probed eval"), want, "probed on {e}");
                let mut nodes = trees.iter().flat_map(|t| t.nodes());
                if nodes.any(|n| n.label.starts_with("IndexJoin t1 ∸ ")) {
                    assert!(indexed, "no index, no index join: {e}");
                    past.fetch_add(1, Ordering::Relaxed);
                    if narrow {
                        narrow_past.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        });
    let (past, narrow_past) = (past.into_inner(), narrow_past.into_inner());
    eprintln!("{past} of 400 cases joined through R ∸ L ({narrow_past} with a narrowing Π)");
    assert!(
        past > 100,
        "only {past} cases took the index join through R ∸ L"
    );
    assert!(narrow_past > 20, "only {narrow_past} narrowing cases did");
}
