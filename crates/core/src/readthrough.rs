//! Read-through queries: fresh answers over stale views, with zero
//! downtime (paper Section 7, first future-work question).
//!
//! The paper asks: *"are there algorithms to refresh only those parts of a
//! view needed by a given query?"* This module answers the underlying need
//! without mutating `MV` at all: every scenario's invariant expresses the
//! current value of `Q` as a combination of `MV` and auxiliary state, so a
//! reader can evaluate that combination on the fly —
//!
//! ```text
//! IM:  Q = MV
//! DT:  Q = (MV ∸ ∇MV) ⊎ ΔMV
//! BL:  Q = (MV ∸ ▼(L,Q)) ⊎ ▲(L,Q)                    (cancellation lemma)
//! C:   Q = (((MV ∸ ∇MV) ⊎ ΔMV) ∸ ▼(L,Q)) ⊎ ▲(L,Q)
//! ```
//!
//! — that is, `P` patched with the log's change, where `P` is `MV` or
//! `(MV ∸ ∇MV) ⊎ ΔMV`. `▼(L,Q)`/`▲(L,Q)` come from the view's stored
//! delta program: the variant for the current log mask, run exactly as
//! propagate runs it, with the log tables bound as parameters by
//! reference. A *filtered* read-through applies `σ_p` to `P` under its
//! read guards and to the change's rows (selection distributes over `∸`
//! and `⊎`). No write lock is taken; concurrent readers of the stale `MV`
//! are unaffected.
//!
//! The answer is `Q` at one commit boundary: shared commit claims hold
//! still the base tables the variant scans, and one pin of `P`'s tables
//! and the whole log snapshots the rest (DESIGN.md §15).
//!
//! A counted root-`γ` view's program yields its input's change
//! `(▼E, ▲E)`, folded into *copies* of the groups of `S` it touches: their
//! old and new rows patch `P`, and `S` is left as it was (it is built,
//! once, if no call has built it yet). A root-`γ` view of the other rule
//! reads `P` in its program — `▼ = P ∸ Q`, `▲ = Q ∸ P` — and
//! `(P ∸ (P ∸ Q)) ⊎ (Q ∸ P) = Q`: its read-through is one evaluation of
//! `σ_p(Q)`.

use crate::error::Result;
use crate::scenario::{claim_shared, eval_expr, eval_variant_bound, fold_counted, recompute};
use crate::view::View;
use dvm_algebra::infer::compile_predicate;
use dvm_algebra::{BagSource, PinnedState, Predicate};
use dvm_storage::{Bag, Catalog};
use std::collections::{BTreeSet, HashMap};

/// `σ_pred(Q)` — the view's current value, filtered when `pred` is given
/// (resolved against the view's output schema) — without refreshing. The
/// caller holds the view's maintenance mutex; `shared_log` reads a
/// shared-log view's effective log (staging ∘ un-drained suffix).
pub fn read_through(
    catalog: &Catalog,
    view: &View,
    pred: Option<&Predicate>,
    shared_log: Option<&dyn Fn() -> Result<HashMap<String, Bag>>>,
) -> Result<Bag> {
    let phys = pred
        .map(|p| compile_predicate(p, &view.mv_schema()))
        .transpose()?;
    let keep = |bag: &Bag| match &phys {
        Some(p) => bag.select(|t| p.eval(t)),
        None => bag.clone(),
    };
    let program = view.log().map(|_| view.delta_program(catalog));
    let program = program.transpose()?;
    // A `P ∸ Q` program reads `P`: patching `P` with it yields `Q`.
    let reads_p = program.as_ref().is_some_and(|p| p.counted().is_none());
    if reads_p && view.materialized_past().is_some() {
        let _claims = claim_shared(catalog, view.base_tables())?;
        return match pred {
            None => recompute(catalog, view),
            Some(p) => recompute_where(catalog, view, p),
        };
    }
    let mask_of =
        |is_empty: &dyn Fn(&str) -> bool| program.as_ref().map_or(0, |p| p.activity_mask(is_empty));
    // The base tables the change for log mask `mask` reads: those its
    // variant scans — or every base, while a counted view's `S` is still
    // to be built.
    let reads = |mask: u128| -> Result<BTreeSet<String>> {
        let Some(program) = program.as_ref().filter(|_| mask != 0) else {
            return Ok(BTreeSet::new());
        };
        if program.counted().is_some_and(|c| c.state().is_none()) {
            return Ok(view.base_tables().clone());
        }
        let (variant, _) = program.variant(mask, catalog)?;
        let mut tables = variant.del.plan.tables();
        tables.extend(variant.ins.plan.tables());
        tables.retain(|t| view.base_tables().contains(t));
        Ok(tables)
    };
    // Claim what the log, as it stands unlocked, says the read needs; if
    // the pinned log then needs more, claim that too and read again.
    let mut claimed = reads(mask_of(&|t| catalog.get(t).is_some_and(|t| t.is_empty())))?;
    loop {
        let _claims = claim_shared(catalog, &claimed)?;
        let composed = shared_log.map(|f| f()).transpose()?.unwrap_or_default();
        let mut tables: BTreeSet<String> = view.internal_tables().into_iter().collect();
        tables.retain(|t| !composed.contains_key(t));
        let pinned = PinnedState::pin(catalog, &tables)?;
        let mut bound: HashMap<&str, &Bag> =
            composed.iter().map(|(t, b)| (t.as_str(), b)).collect();
        for t in &tables {
            bound.insert(t, pinned.bag(t)?);
        }
        let mask = mask_of(&|t| bound.get(t).is_some_and(|b| b.is_empty()));
        let needed = reads(mask)?;
        if !needed.is_subset(&claimed) {
            claimed.extend(needed);
            continue;
        }

        // σ_p(P), each table filtered under the pin, patched with the
        // log's change `(▼(L,Q), ▲(L,Q))` when the log holds any.
        let mut value = keep(pinned.bag(view.mv_table())?);
        if let Some((dt_del, dt_ins)) = view.diff_tables() {
            value.apply_delta(&keep(pinned.bag(dt_del)?), &keep(pinned.bag(dt_ins)?));
        }
        if let Some(program) = program.as_ref().filter(|_| mask != 0) {
            let (variant, _) = program.variant(mask, catalog)?;
            let active = program.active_log_tables(mask);
            let (del, ins) = eval_variant_bound(catalog, &variant, &active, None, &bound)?;
            program.record_bind();
            let (del, ins) = match program.counted() {
                Some(count) => {
                    fold_counted(catalog, view, count, (&del, &ins), &bound, |s, d, i| {
                        count.fold_copy(s, d, i)
                    })?
                }
                None => (del, ins),
            };
            value.apply_delta(&keep(&del), &keep(&ins));
        }
        return Ok(value);
    }
}

/// `σ_pred(Q)` recomputed from scratch: the read-through of a view whose
/// program reads `P` itself, and ground truth for tests.
pub fn recompute_where(catalog: &Catalog, view: &View, pred: &Predicate) -> Result<Bag> {
    eval_expr(catalog, &view.definition().clone().select(pred.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::view::Scenario;
    use dvm_algebra::predicate::{col, lit};
    use dvm_algebra::Expr;
    use dvm_delta::Transaction;
    use dvm_storage::{tuple, Schema, ValueType};

    fn db_with_view(scenario: Scenario) -> Database {
        let db = Database::new();
        db.create_table(
            "r",
            Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Int)]),
        )
        .unwrap();
        db.execute_unmaintained(
            &Transaction::new()
                .insert_tuple("r", tuple![1, 10])
                .insert_tuple("r", tuple![2, 20]),
        )
        .unwrap();
        db.create_view("v", Expr::table("r"), scenario).unwrap();
        db
    }

    #[test]
    fn read_through_fresh_under_all_scenarios() {
        for scenario in [
            Scenario::Immediate,
            Scenario::BaseLog,
            Scenario::DiffTable,
            Scenario::Combined,
        ] {
            let db = db_with_view(scenario);
            db.execute(
                &Transaction::new()
                    .insert_tuple("r", tuple![3, 30])
                    .delete_tuple("r", tuple![1, 10]),
            )
            .unwrap();
            let fresh = db.read_through("v").unwrap();
            assert_eq!(fresh, db.recompute_view("v").unwrap(), "{scenario:?}");
            if scenario != Scenario::Immediate && scenario != Scenario::DiffTable {
                // the materialization itself must NOT have moved
                assert_ne!(db.query_view("v").unwrap(), fresh, "{scenario:?}");
            }
        }
    }

    #[test]
    fn read_through_after_partial_propagation() {
        let db = db_with_view(Scenario::Combined);
        db.execute(&Transaction::new().insert_tuple("r", tuple![3, 30]))
            .unwrap();
        db.propagate("v").unwrap(); // into ∇MV/ΔMV
        db.execute(&Transaction::new().insert_tuple("r", tuple![4, 40]))
            .unwrap(); // still in the log
        let fresh = db.read_through("v").unwrap();
        assert_eq!(fresh, db.recompute_view("v").unwrap());
        assert!(fresh.contains(&tuple![3, 30]));
        assert!(fresh.contains(&tuple![4, 40]));
    }

    #[test]
    fn filtered_read_through_matches_filtered_truth() {
        let db = db_with_view(Scenario::Combined);
        db.execute(
            &Transaction::new()
                .insert_tuple("r", tuple![3, 30])
                .insert_tuple("r", tuple![4, 40])
                .delete_tuple("r", tuple![2, 20]),
        )
        .unwrap();
        let pred = Predicate::gt(col("b"), lit(25i64));
        let view = db.view("v").unwrap();
        let filtered = read_through(db.catalog(), &view, Some(&pred), None).unwrap();
        let truth = recompute_where(db.catalog(), &view, &pred).unwrap();
        assert_eq!(filtered, truth);
        assert_eq!(filtered.len(), 2); // [3,30], [4,40]
    }

    #[test]
    fn read_through_takes_no_write_lock() {
        let db = db_with_view(Scenario::BaseLog);
        db.execute(&Transaction::new().insert_tuple("r", tuple![5, 50]))
            .unwrap();
        let mv = db.mv_table("v").unwrap();
        let before = mv.lock_metrics().snapshot().write_acquisitions;
        let _ = db.read_through("v").unwrap();
        let _ = db
            .read_through_where("v", &Predicate::gt(col("a"), lit(0i64)))
            .unwrap();
        assert_eq!(
            mv.lock_metrics().snapshot().write_acquisitions,
            before,
            "read-through is downtime-free"
        );
        // and the log is untouched (nothing was consumed)
        let (log, _) = db.aux_sizes("v").unwrap();
        assert_eq!(log, 1);
    }

    #[test]
    fn filtered_read_through_on_join_view() {
        // a join view with a selective predicate: the filtered read only
        // touches matching tuples
        let db = Database::new();
        db.create_table(
            "c",
            Schema::from_pairs(&[("id", ValueType::Int), ("grp", ValueType::Int)]),
        )
        .unwrap();
        db.create_table(
            "s",
            Schema::from_pairs(&[("id", ValueType::Int), ("amt", ValueType::Int)]),
        )
        .unwrap();
        db.execute_unmaintained(
            &Transaction::new()
                .insert_tuple("c", tuple![1, 7])
                .insert_tuple("c", tuple![2, 8])
                .insert_tuple("s", tuple![1, 100]),
        )
        .unwrap();
        let def = Expr::table("c")
            .alias("c")
            .product(Expr::table("s").alias("s"))
            .select(Predicate::eq(col("c.id"), col("s.id")))
            .project(["grp", "amt"]);
        db.create_view("j", def, Scenario::BaseLog).unwrap();
        db.execute(
            &Transaction::new()
                .insert_tuple("s", tuple![2, 200])
                .insert_tuple("s", tuple![1, 150]),
        )
        .unwrap();
        let pred = Predicate::eq(col("grp"), lit(8i64));
        let view = db.view("j").unwrap();
        let filtered = read_through(db.catalog(), &view, Some(&pred), None).unwrap();
        assert_eq!(filtered, Bag::singleton(tuple![8, 200]));
    }
}
