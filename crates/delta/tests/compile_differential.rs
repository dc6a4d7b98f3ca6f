//! The compiled≡fresh property suite: a view's [`CompiledDeltaProgram`]
//! — derived once and cached per activity mask — must evaluate bag-equal
//! to a fresh [`post_update_deltas_pruned`] derivation at **every** step
//! of a multi-transaction workload, over random plans spanning the whole
//! algebra (joins with NULL keys, EXCEPT, NullEq selections, aggregates).
//!
//! Each round compiles one program, then walks several transactions:
//! the state advances, the log accumulates by the composition lemma, and
//! at each step both paths are evaluated against the same state. The
//! suite also checks the compile-once property: the program performs at
//! most one symbolic derivation per distinct activity mask.
//!
//! At every step the variant is also run the way the engine runs it — its
//! `(▼, ▲)` pair as one program ([`eval_pair`]: shared subplans once, join
//! builds on the smaller side with the key set pushed into the probe
//! side), probe off and on — against the reference evaluator run on each
//! plan independently.

use dvm_algebra::eval::{eval, eval_pair, eval_reference};
use dvm_algebra::infer::compile;
use dvm_algebra::testgen::{Rng, Universe};
use dvm_algebra::Expr;
use dvm_delta::{
    compose_into, log_del_name, log_ins_name, post_update_deltas_pruned, CompiledDeltaProgram,
    LogTables,
};
use dvm_storage::{Bag, Schema};
use std::collections::{HashMap, HashSet};

fn provider_with_logs(u: &Universe) -> HashMap<String, Schema> {
    let mut p = u.provider();
    for t in &u.tables {
        p.insert(log_del_name(t), u.schema.clone());
        p.insert(log_ins_name(t), u.schema.clone());
    }
    p
}

static PROBE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run `rounds` random programs of `steps` transactions each, checking
/// compiled-vs-fresh equality and pair-vs-reference equality after every
/// transaction. Returns in how many steps the pair evaluation reused a
/// shared subplan, and in how many it pushed a key set.
fn check_rounds(
    u: &Universe,
    rng: &mut Rng,
    rounds: usize,
    steps: usize,
    gen: impl Fn(&Universe, &mut Rng) -> Expr,
) -> (usize, usize) {
    let provider = provider_with_logs(u);
    let (mut reused, mut pushed) = (0, 0);
    for round in 0..rounds {
        let q = gen(u, rng);
        let mut state = u.state(rng, 4);
        let mut log = LogTables::new();
        for t in &u.tables {
            log.add(t.clone());
            state.insert(log_del_name(t), Bag::new());
            state.insert(log_ins_name(t), Bag::new());
        }
        let program = CompiledDeltaProgram::compile(&q, &log, &provider).unwrap();
        let mut masks_seen: HashSet<u128> = HashSet::new();

        for step in 0..steps {
            // One weakly minimal transaction against the current state:
            // apply it to the bases and fold it into the log (composition
            // lemma — exactly what makesafe_BL does).
            let f = u.weakly_minimal_subst(rng, &state);
            state = u.apply_subst_to_state(&f, &state);
            for t in &u.tables {
                let (d, a) = match f.get(t) {
                    Some((Expr::Literal { bag: d, .. }, Expr::Literal { bag: a, .. })) => {
                        (d.clone(), a.clone())
                    }
                    None => (Bag::new(), Bag::new()),
                    _ => unreachable!("testgen substitutions carry literal deltas"),
                };
                let mut dl = state.remove(&log_del_name(t)).unwrap();
                let mut il = state.remove(&log_ins_name(t)).unwrap();
                compose_into(&mut dl, &mut il, &d, &a);
                state.insert(log_del_name(t), dl);
                state.insert(log_ins_name(t), il);
            }

            let is_empty = |t: &str| state.get(t).map(|b| b.is_empty()).unwrap_or(false);
            let fresh = post_update_deltas_pruned(&q, &log, &provider, &is_empty).unwrap();
            let ev = |e: &Expr| eval(&compile(e, &provider).unwrap().plan, &state).unwrap();
            let mask = program.activity_mask(&is_empty);
            if mask == 0 {
                assert!(
                    ev(&fresh.del).is_empty() && ev(&fresh.ins).is_empty(),
                    "mask 0 must mean the fresh deltas are φ (q={q})"
                );
                continue;
            }
            masks_seen.insert(mask);
            let (v, _) = program.variant(mask, &provider).unwrap();
            assert_eq!(
                eval(&v.del.plan, &state).unwrap(),
                ev(&fresh.del),
                "▼ diverged: q={q} round={round} step={step}"
            );
            assert_eq!(
                eval(&v.ins.plan, &state).unwrap(),
                ev(&fresh.ins),
                "▲ diverged: q={q} round={round} step={step}"
            );

            let want = (
                eval_reference(&v.del.plan, &state).unwrap(),
                eval_reference(&v.ins.plan, &state).unwrap(),
            );
            let pair = || eval_pair(&v.del.plan, &v.ins.plan, &v.shared, &state).unwrap();
            assert_eq!(
                pair(),
                want,
                "pair diverged: q={q} round={round} step={step}"
            );
            // The profiling switch is process-wide and the tests of this
            // file run on parallel threads: one probed section at a time.
            let probing = PROBE.lock().unwrap_or_else(|e| e.into_inner());
            dvm_obs::set_profiling(true);
            let _ = dvm_obs::profile::take_captured();
            let probed = pair();
            let trees = dvm_obs::profile::take_captured().evals;
            dvm_obs::set_profiling(false);
            drop(probing);
            assert_eq!(
                probed, want,
                "probed pair diverged: q={q} round={round} step={step}"
            );
            let mentions = |label: &str| {
                let mut nodes = trees.iter().flat_map(|t| t.nodes());
                nodes.any(|n| n.label.contains(label))
            };
            reused += usize::from(mentions("(shared)"));
            pushed += usize::from(mentions("KeyFilter"));
        }

        // Compile-once: one derivation per distinct mask, plus the eager
        // all-active variant.
        let s = program.stats();
        assert!(
            s.compiles <= masks_seen.len() as u64 + 1,
            "{} compiles for {} distinct masks (q={q})",
            s.compiles,
            masks_seen.len()
        );
    }
    (reused, pushed)
}

/// Random relational plans (select/project/join/union/monus/except/...)
/// over the all-Int universe.
#[test]
fn compiled_matches_fresh_on_random_plans() {
    let u = Universe::small(3);
    let mut rng = Rng::new(0xD1FF);
    check_rounds(&u, &mut rng, 30, 4, |u, rng| u.expr(rng, 3));
}

/// The mixed universe: NULLs (NULL join keys, NullEq predicates) and
/// Doubles flow through EXCEPT/joins — the operators where compiled and
/// per-call derivations could most plausibly diverge.
#[test]
fn compiled_matches_fresh_with_nulls_and_doubles() {
    let u = Universe::mixed(3);
    let mut rng = Rng::new(0x9AB5);
    check_rounds(&u, &mut rng, 30, 4, |u, rng| u.expr(rng, 3));
}

/// Aggregate views (GROUP BY over the five functions + COUNT(*)): the
/// differentiation of γ is the most intricate rule, so it gets its own
/// pass with deeper inner plans.
#[test]
fn compiled_matches_fresh_on_aggregates() {
    let u = Universe::mixed(3);
    let mut rng = Rng::new(0xA66);
    let (reused, _) = check_rounds(&u, &mut rng, 20, 4, |u, rng| u.agg_expr(rng, 2));
    assert!(
        reused > 20,
        "γ's monus rule shares G(E), G(η(E)): reused in {reused} steps"
    );
}

/// Equi-join views (NULL and Int/Double keys, a `<=>` conjunct on some):
/// the join rule's `D E ⋈ (F ∸ D F)` terms are where the pair evaluation
/// picks the build side by size and pushes its key set into the survivor.
#[test]
fn compiled_pair_matches_reference_on_equi_joins() {
    use dvm_algebra::predicate::{col, Predicate};
    use dvm_algebra::{CmpOp, ColRef, Operand};
    let u = Universe::mixed(3);
    let mut rng = Rng::new(0x501E);
    let (_, pushed) = check_rounds(&u, &mut rng, 30, 4, |u, rng| {
        let mut on = Predicate::eq(
            col("l.a"),
            col(if rng.chance(1, 2) { "r.a" } else { "r.b" }),
        );
        if rng.chance(1, 3) {
            let b = |side: &str| Operand::Col(ColRef::qualified(side, "b"));
            on = on.and(Predicate::Cmp(b("l"), CmpOp::NullEq, b("r")));
        }
        (u.expr(rng, 1).alias("l"))
            .product(u.expr(rng, 1).alias("r"))
            .select(on.and(u.predicate(rng, &["l", "r"])))
            .project(["l.a", "r.b"])
    });
    assert!(pushed > 20, "key sets were pushed in only {pushed} steps");
}
