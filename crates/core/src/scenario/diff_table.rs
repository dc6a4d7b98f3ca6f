//! `INV_DT` (Section 3.4): `Q ≡ (MV ∸ ∇MV) ⊎ ΔMV`.
//!
//! `makesafe_DT[T]` precomputes the view changes per transaction and folds
//! them into the differential tables (composition lemma):
//!
//! ```text
//! ∇MV := ∇MV ⊎ (∇(T,Q) ∸ ΔMV)
//! ΔMV := (ΔMV ∸ ∇(T,Q)) ⊎ Δ(T,Q)
//! ```
//!
//! so `refresh_DT` merely applies them — the *minimal* possible downtime —
//! but every update transaction pays the incremental computation, like
//! immediate maintenance.

use crate::error::{CoreError, Result};
use crate::scenario::eval_pair;
use crate::view::{Minimality, View};
use dvm_delta::{compose_into, pre_update_deltas, strongify_bags, Transaction};
use dvm_storage::Catalog;
use dvm_testkit::WorkerPool;

/// `makesafe_DT[T]`: evaluate `∇(T,Q)/Δ(T,Q)` pre-update and fold them into
/// `∇MV/ΔMV`. Under [`Minimality::Strong`], delete/reinsert churn is
/// cancelled after the fold.
pub fn fold_transaction(catalog: &Catalog, view: &View, tx: &Transaction) -> Result<()> {
    let (dt_del_name, dt_ins_name) = view.diff_tables().ok_or(CoreError::WrongScenario {
        view: view.name().to_string(),
        op: "fold_transaction",
    })?;
    let pair = pre_update_deltas(view.definition(), tx, catalog)?;
    let (del_bag, ins_bag) = eval_pair(catalog, &pair.del, &pair.add)?;
    if del_bag.is_empty() && ins_bag.is_empty() {
        return Ok(());
    }
    let dt_del = catalog.require(dt_del_name)?;
    let dt_ins = catalog.require(dt_ins_name)?;
    let mut del_guard = dt_del.write();
    let mut ins_guard = dt_ins.write();
    compose_into(&mut del_guard, &mut ins_guard, &del_bag, &ins_bag);
    if view.minimality() == Minimality::Strong {
        let (d, i) = strongify_bags(&del_guard, &ins_guard);
        **del_guard = d;
        **ins_guard = i;
    }
    Ok(())
}

/// `refresh_DT` (also `partial_refresh_C`):
/// `MV := (MV ∸ ∇MV) ⊎ ΔMV; ∇MV := φ; ΔMV := φ`, all under the `MV` write
/// lock. No query evaluation happens here — this is the minimal-downtime
/// path the paper aims for.
///
/// `par` is an optional worker pool: when `MV` and both differential
/// tables are hash-sharded, the `(MV ∸ ∇MV) ⊎ ΔMV` apply runs per shard
/// across `width` workers — shrinking the window the `MV` write lock is
/// held, which is exactly the downtime `refresh_DT` minimizes.
pub fn apply_diff_tables(
    catalog: &Catalog,
    view: &View,
    par: Option<(&WorkerPool, usize)>,
) -> Result<()> {
    let (dt_del_name, dt_ins_name) = view.diff_tables().ok_or(CoreError::WrongScenario {
        view: view.name().to_string(),
        op: "apply_diff_tables",
    })?;
    let mv = catalog.require(view.mv_table())?;
    let dt_del = catalog.require(dt_del_name)?;
    let dt_ins = catalog.require(dt_ins_name)?;
    // Find every row the apply touches under a *read* lock first, so the
    // write-locked window below hits `MV` in cache (propagate may not).
    let t = crate::scenario::phase_start();
    {
        let (mv, del, ins) = (mv.read(), dt_del.read(), dt_ins.read());
        for (row, _) in del.iter().chain(ins.iter()) {
            std::hint::black_box(mv.multiplicity(row));
        }
    }
    crate::scenario::phase_end("WarmMV", 0, t);
    // Phase timer spans the MV write lock — the downtime window itself.
    // A parallel apply's ShardProfile sits inside this window, so
    // attribution counts the phase, not the shards.
    let t = crate::scenario::phase_start();
    let mut mv_guard = mv.write();
    let mut del_guard = dt_del.write();
    let mut ins_guard = dt_ins.write();
    let rows = del_guard.len() + ins_guard.len();
    match par {
        Some((pool, width)) if width > 1 => {
            mv_guard.apply_delta_parallel(&del_guard, &ins_guard, pool, width);
        }
        _ => {
            mv_guard.apply_delta(&del_guard, &ins_guard);
        }
    }
    del_guard.clear();
    ins_guard.clear();
    crate::scenario::phase_end("ApplyDT(MV∸∇MV⊎ΔMV)", rows, t);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::recompute;
    use crate::view::Scenario;
    use dvm_algebra::eval::PinnedState;
    use dvm_algebra::Expr;
    use dvm_storage::{tuple, Bag, Schema, TableKind, ValueType};

    fn setup(minimality: Minimality) -> (Catalog, View) {
        let c = Catalog::new();
        let schema = Schema::from_pairs(&[("a", ValueType::Int)]);
        let r = c
            .create_table("r", schema.clone(), TableKind::External)
            .unwrap();
        r.insert(tuple![1]).unwrap();
        let def = Expr::table("r");
        let compiled = dvm_algebra::infer::compile(&def, &c).unwrap();
        let view = View::new("v", def, compiled, Scenario::DiffTable, minimality).unwrap();
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
        fold_transaction(c, view, &tx).unwrap();
        for t in tx.tables() {
            let (d, i) = tx.get(t).unwrap();
            c.require(t).unwrap().apply_delta(d, i).unwrap();
        }
    }

    #[test]
    fn fold_then_apply_reaches_truth() {
        let (c, view) = setup(Minimality::Weak);
        run_tx(&c, &view, &Transaction::new().insert_tuple("r", tuple![2]));
        run_tx(&c, &view, &Transaction::new().delete_tuple("r", tuple![1]));
        // INV_DT holds before refresh: Q = (MV ∸ ∇MV) ⊎ ΔMV
        let (dn, inm) = view.diff_tables().unwrap();
        let lhs = recompute(&c, &view).unwrap();
        let rhs = c
            .bag_of(view.mv_table())
            .unwrap()
            .monus(&c.bag_of(dn).unwrap())
            .union(&c.bag_of(inm).unwrap());
        assert_eq!(lhs, rhs);
        apply_diff_tables(&c, &view, None).unwrap();
        assert_eq!(c.bag_of(view.mv_table()).unwrap(), lhs);
        assert!(c.require(dn).unwrap().is_empty());
        assert!(c.require(inm).unwrap().is_empty());
    }

    #[test]
    fn weak_keeps_churn_strong_cancels_it() {
        // delete [1] then reinsert [1]: weak DTs carry both; strong cancels.
        let (c, view) = setup(Minimality::Weak);
        run_tx(&c, &view, &Transaction::new().delete_tuple("r", tuple![1]));
        run_tx(&c, &view, &Transaction::new().insert_tuple("r", tuple![1]));
        let (dn, inm) = view.diff_tables().unwrap();
        assert_eq!(c.bag_of(dn).unwrap(), Bag::singleton(tuple![1]));
        assert_eq!(c.bag_of(inm).unwrap(), Bag::singleton(tuple![1]));

        let (c2, view2) = setup(Minimality::Strong);
        run_tx(
            &c2,
            &view2,
            &Transaction::new().delete_tuple("r", tuple![1]),
        );
        run_tx(
            &c2,
            &view2,
            &Transaction::new().insert_tuple("r", tuple![1]),
        );
        let (dn2, in2) = view2.diff_tables().unwrap();
        assert!(c2.bag_of(dn2).unwrap().is_empty());
        assert!(c2.bag_of(in2).unwrap().is_empty());

        // both refresh to the same truth
        apply_diff_tables(&c, &view, None).unwrap();
        apply_diff_tables(&c2, &view2, None).unwrap();
        assert_eq!(
            c.bag_of(view.mv_table()).unwrap(),
            c2.bag_of(view2.mv_table()).unwrap()
        );
    }

    #[test]
    fn dt_weak_minimality_invariant() {
        // Lemma 4: ∇MV ⊑ MV after makesafe_DT.
        let (c, view) = setup(Minimality::Weak);
        run_tx(&c, &view, &Transaction::new().delete_tuple("r", tuple![1]));
        run_tx(&c, &view, &Transaction::new().insert_tuple("r", tuple![9]));
        let (dn, _) = view.diff_tables().unwrap();
        assert!(c
            .bag_of(dn)
            .unwrap()
            .is_subbag_of(&c.bag_of(view.mv_table()).unwrap()));
    }

    #[test]
    fn empty_update_is_cheap_noop() {
        let (c, view) = setup(Minimality::Weak);
        c.create_table(
            "unrelated",
            Schema::from_pairs(&[("x", ValueType::Int)]),
            TableKind::External,
        )
        .unwrap();
        run_tx(
            &c,
            &view,
            &Transaction::new().insert_tuple("unrelated", tuple![1]),
        );
        let (dn, inm) = view.diff_tables().unwrap();
        assert!(c.require(dn).unwrap().is_empty());
        assert!(c.require(inm).unwrap().is_empty());
    }

    #[test]
    fn wrong_scenario_rejected() {
        let c = Catalog::new();
        let schema = Schema::from_pairs(&[("a", ValueType::Int)]);
        c.create_table("r", schema, TableKind::External).unwrap();
        let def = Expr::table("r");
        let compiled = dvm_algebra::infer::compile(&def, &c).unwrap();
        let view = View::new("v", def, compiled, Scenario::BaseLog, Minimality::Weak).unwrap();
        assert!(matches!(
            apply_diff_tables(&c, &view, None),
            Err(CoreError::WrongScenario { .. })
        ));
    }
}
