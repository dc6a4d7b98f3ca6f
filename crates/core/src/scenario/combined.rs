//! `INV_C` (Section 3.5): `PAST(L,Q) ≡ (MV ∸ ∇MV) ⊎ ΔMV`.
//!
//! The paper's headline scenario: transactions only append to logs
//! (`makesafe_C = makesafe_BL` — low per-transaction overhead), while
//! `propagate_C` asynchronously folds logged changes into the view
//! differential tables *without touching the `MV` lock*, so
//! `partial_refresh_C` (= `refresh_DT`) achieves minimal downtime.
//!
//! ```text
//! propagate_C:  ∇MV := ∇MV ⊎ (▼(L,Q) ∸ ΔMV)
//!               ΔMV := (ΔMV ∸ ▼(L,Q)) ⊎ ▲(L,Q)
//!               L := φ
//! refresh_C  =  propagate_C ; partial_refresh_C
//! ```

use crate::error::{CoreError, Result};
use crate::scenario::{
    base_log, diff_table, eval_variant_bound, fold_counted, phase_end, phase_start,
};
use crate::view::{Minimality, View};
use dvm_delta::{compose_into, strongify_bags, Transaction};
use dvm_storage::{compose_delta_parallel, Catalog};
use dvm_testkit::WorkerPool;
use std::collections::HashMap;

/// `makesafe_C[T]` — identical to `makesafe_BL[T]`: extend the log.
pub fn extend_log(catalog: &Catalog, view: &View, tx: &Transaction) -> Result<()> {
    base_log::extend_log(catalog, view, tx)
}

/// `propagate_C`: evaluate the post-update incremental queries `▼(L,Q)` /
/// `▲(L,Q)` in the current state, fold them into `∇MV/ΔMV` (composition
/// lemma), and empty the log. Never takes the `MV` write lock — readers of
/// the view are unaffected.
///
/// `par` is an optional worker pool for intra-view parallelism: when the
/// differential tables are hash-sharded and large, the Lemma 3 fold runs
/// per shard across `width` workers (including the caller). The fold is
/// shard-local because `∸`/`⊎` match whole tuples and both sides route
/// tuples with the same hash — see `compose_delta_parallel`.
pub fn propagate(catalog: &Catalog, view: &View, par: Option<(&WorkerPool, usize)>) -> Result<()> {
    let wrong_scenario = || CoreError::WrongScenario {
        view: view.name().to_string(),
        op: "propagate_C",
    };
    let log = view.log().ok_or_else(wrong_scenario)?;
    let (dt_del_name, dt_ins_name) = view.diff_tables().ok_or_else(wrong_scenario)?;
    // Steady state: look up the precompiled ▼/▲ plans for the current log
    // activity and execute them with the log bags bound as parameters —
    // zero differentiation, zero simplification, zero plan construction.
    // The maintenance mutex + shared base claims the caller holds keep the
    // log tables stable from the emptiness probe through the evaluation.
    let program = view.delta_program(catalog)?;
    let mask =
        program.activity_mask(&|t| catalog.get(t).map(|tbl| tbl.is_empty()).unwrap_or(false));
    if mask == 0 {
        // Empty-log fast path: every log table is φ, so ▼/▲ are φ, the
        // Lemma-3 fold is the identity (strongification included — the DT
        // pair was left strongly minimal by the propagate that last wrote
        // it), and L := φ has nothing to clear. Skip it all.
        return Ok(());
    }
    let t = phase_start();
    let (variant, fresh) = program.variant(mask, catalog)?;
    if fresh {
        phase_end("CompileDelta", 0, t);
    }
    // A root-γ `P ∸ Q` program scans MV/∇MV/ΔMV (`PAST(L,Q)` under
    // `INV_C`): they are pinned with *read* locks beside the base tables,
    // which cannot wait on a writer — the maintenance mutex excludes this
    // view's refresh, the only thing that write-locks them. A counted
    // program reads base and log only, and folds `(▼E, ▲E)` into `S`.
    let none = HashMap::new();
    let active = program.active_log_tables(mask);
    let (del_bag, ins_bag) = eval_variant_bound(catalog, &variant, &active, None, &none)?;
    program.record_bind();
    let (del_bag, ins_bag) = match program.counted() {
        Some(count) => fold_counted(
            catalog,
            view,
            count,
            (&del_bag, &ins_bag),
            &none,
            |s, d, i| count.fold(s, d, i),
        )?,
        None => (del_bag, ins_bag),
    };

    // Fold ▼/▲ into the differential tables (Lemma 3) and strongify if the
    // view demands it — all without the `MV` lock.
    let dt_del = catalog.require(dt_del_name)?;
    let dt_ins = catalog.require(dt_ins_name)?;
    // The phase timer spans lock acquisition and, on the parallel path,
    // the whole shard fan-out — the fan-out's ShardProfile sits inside
    // this window, so attribution counts the phase, not the shards.
    let t = phase_start();
    {
        let mut del_guard = dt_del.write();
        let mut ins_guard = dt_ins.write();
        match par {
            Some((pool, width)) if width > 1 => {
                compose_delta_parallel(
                    &mut del_guard,
                    &mut ins_guard,
                    &del_bag,
                    &ins_bag,
                    pool,
                    width,
                );
            }
            _ => compose_into(&mut del_guard, &mut ins_guard, &del_bag, &ins_bag),
        }
        if view.minimality() == Minimality::Strong {
            let (d, i) = strongify_bags(&del_guard, &ins_guard);
            **del_guard = d;
            **ins_guard = i;
        }
    }
    phase_end("ComposeDT(Lemma 3)", del_bag.len() + ins_bag.len(), t);
    // L := φ (part of the same propagate transaction).
    let t = phase_start();
    for base in log.bases() {
        let (d, i) = log.get(base).expect("listed base");
        catalog.require(d)?.clear();
        catalog.require(i)?.clear();
    }
    phase_end("ClearLog(L:=φ)", 0, t);
    Ok(())
}

/// `partial_refresh_C` — apply the differential tables (= `refresh_DT`):
/// brings `MV` to `PAST(L,Q)`, i.e. at most one propagation interval stale.
/// `par` enables per-shard parallelism for the delta apply under the `MV`
/// write lock (shorter downtime on large views).
pub fn partial_refresh(
    catalog: &Catalog,
    view: &View,
    par: Option<(&WorkerPool, usize)>,
) -> Result<()> {
    diff_table::apply_diff_tables(catalog, view, par)
}

/// `refresh_C`: full consistency — propagate, then apply (`par` reaches
/// both halves).
pub fn refresh(catalog: &Catalog, view: &View, par: Option<(&WorkerPool, usize)>) -> Result<()> {
    propagate(catalog, view, par)?;
    partial_refresh(catalog, view, par)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::recompute;
    use crate::view::Scenario;
    use dvm_algebra::eval::PinnedState;
    use dvm_algebra::Expr;
    use dvm_storage::{tuple, Bag, Catalog, Schema, TableKind, ValueType};

    fn setup(minimality: Minimality) -> (Catalog, View) {
        let c = Catalog::new();
        let schema = Schema::from_pairs(&[("a", ValueType::Int)]);
        let r = c
            .create_table("r", schema.clone(), TableKind::External)
            .unwrap();
        r.insert(tuple![1]).unwrap();
        let def = Expr::table("r");
        let compiled = dvm_algebra::infer::compile(&def, &c).unwrap();
        let view = View::new("v", def, compiled, Scenario::Combined, minimality).unwrap();
        for t in view.internal_tables() {
            c.create_table(&t, schema.clone(), TableKind::Internal)
                .unwrap();
        }
        c.require(view.mv_table())
            .unwrap()
            .insert(tuple![1])
            .unwrap();
        (c, view)
    }

    fn run_tx(c: &Catalog, view: &View, tx: &Transaction) {
        let pinned = PinnedState::pin(c, &tx.tables().cloned().collect()).unwrap();
        let tx = tx.make_weakly_minimal(&pinned).unwrap();
        drop(pinned);
        extend_log(c, view, &tx).unwrap();
        for t in tx.tables() {
            let (d, i) = tx.get(t).unwrap();
            c.require(t).unwrap().apply_delta(d, i).unwrap();
        }
    }

    /// The three-state story of Section 3.5: s_p (MV's state), s_i (log
    /// start = DT contents' frontier), s_c (now).
    #[test]
    fn propagate_then_partial_refresh_reaches_intermediate_state() {
        let (c, view) = setup(Minimality::Weak);
        // batch 1
        run_tx(&c, &view, &Transaction::new().insert_tuple("r", tuple![2]));
        propagate(&c, &view, None).unwrap();
        let value_at_s_i = recompute(&c, &view).unwrap(); // {1,2}
                                                          // batch 2, after propagation
        run_tx(&c, &view, &Transaction::new().insert_tuple("r", tuple![3]));
        // partial refresh only applies what was propagated.
        partial_refresh(&c, &view, None).unwrap();
        assert_eq!(c.bag_of(view.mv_table()).unwrap(), value_at_s_i);
        // full refresh catches the rest.
        refresh(&c, &view, None).unwrap();
        assert_eq!(
            c.bag_of(view.mv_table()).unwrap(),
            recompute(&c, &view).unwrap()
        );
    }

    #[test]
    fn invariant_c_holds_between_operations() {
        let (c, view) = setup(Minimality::Weak);
        let check = |c: &Catalog| {
            // PAST(L,Q) ≡ (MV ∸ ∇MV) ⊎ ΔMV
            let past = crate::scenario::eval_expr(c, &view.past_query()).unwrap();
            let (dn, inm) = view.diff_tables().unwrap();
            let rhs = c
                .bag_of(view.mv_table())
                .unwrap()
                .monus(&c.bag_of(dn).unwrap())
                .union(&c.bag_of(inm).unwrap());
            assert_eq!(past, rhs, "INV_C violated");
        };
        check(&c);
        run_tx(&c, &view, &Transaction::new().insert_tuple("r", tuple![2]));
        check(&c);
        run_tx(&c, &view, &Transaction::new().delete_tuple("r", tuple![1]));
        check(&c);
        propagate(&c, &view, None).unwrap();
        check(&c);
        run_tx(&c, &view, &Transaction::new().insert_tuple("r", tuple![4]));
        check(&c);
        partial_refresh(&c, &view, None).unwrap();
        check(&c);
        refresh(&c, &view, None).unwrap();
        check(&c);
        assert_eq!(
            c.bag_of(view.mv_table()).unwrap(),
            recompute(&c, &view).unwrap()
        );
    }

    #[test]
    fn propagate_does_not_touch_mv() {
        let (c, view) = setup(Minimality::Weak);
        run_tx(&c, &view, &Transaction::new().insert_tuple("r", tuple![2]));
        let mv = c.require(view.mv_table()).unwrap();
        let writes_before = mv.lock_metrics().snapshot().write_acquisitions;
        propagate(&c, &view, None).unwrap();
        let writes_after = mv.lock_metrics().snapshot().write_acquisitions;
        assert_eq!(
            writes_before, writes_after,
            "propagate_C must not take the MV write lock"
        );
    }

    #[test]
    fn strong_minimality_shrinks_diff_tables() {
        let (c, view) = setup(Minimality::Strong);
        run_tx(&c, &view, &Transaction::new().delete_tuple("r", tuple![1]));
        propagate(&c, &view, None).unwrap();
        run_tx(&c, &view, &Transaction::new().insert_tuple("r", tuple![1]));
        propagate(&c, &view, None).unwrap();
        let (dn, inm) = view.diff_tables().unwrap();
        assert!(c.bag_of(dn).unwrap().is_empty(), "churn cancelled");
        assert!(c.bag_of(inm).unwrap().is_empty());
        // and refresh still lands on the truth
        refresh(&c, &view, None).unwrap();
        assert_eq!(
            c.bag_of(view.mv_table()).unwrap(),
            recompute(&c, &view).unwrap()
        );
    }

    #[test]
    fn repeated_propagate_is_idempotent_on_empty_log() {
        let (c, view) = setup(Minimality::Weak);
        run_tx(&c, &view, &Transaction::new().insert_tuple("r", tuple![2]));
        propagate(&c, &view, None).unwrap();
        let (dn, inm) = view.diff_tables().unwrap();
        let d1 = c.bag_of(dn).unwrap();
        let i1 = c.bag_of(inm).unwrap();
        propagate(&c, &view, None).unwrap();
        assert_eq!(c.bag_of(dn).unwrap(), d1);
        assert_eq!(c.bag_of(inm).unwrap(), i1);
        assert_eq!(i1, Bag::singleton(tuple![2]));
    }
}
