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
//! — and a *filtered* read-through pushes the query predicate `σ_p` into
//! every component (selection distributes over `∸` and `⊎`), so only the
//! relevant part of the incremental work is ever computed. No write lock
//! is taken; concurrent readers of the stale `MV` are unaffected.
//!
//! A root-`γ` view's change queries are `P ∸ Q` and `Q ∸ P` with `P` the
//! very combination of `MV` and differential tables the lines above start
//! from, and `(P ∸ (P ∸ Q)) ⊎ (Q ∸ P) = Q`: its read-through is one
//! evaluation of `σ_p(Q)`.

use crate::error::Result;
use crate::scenario::eval_expr;
use crate::view::View;
use dvm_algebra::infer::compile_predicate;
use dvm_algebra::{Expr, Predicate};
use dvm_delta::post_update_deltas;
use dvm_storage::{Bag, Catalog};

/// Compute the current value of the view without refreshing it.
pub fn read_through(catalog: &Catalog, view: &View) -> Result<Bag> {
    read_through_inner(catalog, view, None, &std::collections::HashMap::new())
}

/// Compute `σ_pred(Q)` — the fresh, filtered view value — without
/// refreshing. The predicate is resolved against the view's output schema
/// and pushed into the materialized table, the differential tables, and
/// the incremental queries alike.
pub fn read_through_where(catalog: &Catalog, view: &View, pred: &Predicate) -> Result<Bag> {
    read_through_inner(catalog, view, Some(pred), &std::collections::HashMap::new())
}

/// Read-through with log-table contents overridden (shared-log views:
/// effective log = staging ∘ un-drained shared suffix).
pub fn read_through_with_log_overrides(
    catalog: &Catalog,
    view: &View,
    pred: Option<&Predicate>,
    log_overrides: &std::collections::HashMap<String, Bag>,
) -> Result<Bag> {
    read_through_inner(catalog, view, pred, log_overrides)
}

fn read_through_inner(
    catalog: &Catalog,
    view: &View,
    pred: Option<&Predicate>,
    log_overrides: &std::collections::HashMap<String, Bag>,
) -> Result<Bag> {
    if view.materialized_past().is_some() {
        // `Q` in the current state reads no log table: no override applies.
        return match pred {
            None => crate::scenario::recompute(catalog, view),
            Some(p) => recompute_where(catalog, view, p),
        };
    }
    // σ_p over a materialized bag.
    let mv_schema = view.mv_schema();
    let filter_bag = |bag: Bag| -> Result<Bag> {
        match pred {
            None => Ok(bag),
            Some(p) => {
                let phys = compile_predicate(p, &mv_schema)?;
                Ok(bag.select(|t| phys.eval(t)))
            }
        }
    };
    // σ_p around a delta expression (the expression's schema is the view's
    // output schema, so the same predicate resolves).
    let wrap = |e: Expr| -> Expr {
        match pred {
            None => e,
            Some(p) => e.select(p.clone()),
        }
    };

    // Start from σ_p(MV).
    let mut value = filter_bag(catalog.bag_of(view.mv_table())?)?;

    // Differential tables (DT, C).
    if let Some((dt_del, dt_ins)) = view.diff_tables() {
        let del = filter_bag(catalog.bag_of(dt_del)?)?;
        let ins = filter_bag(catalog.bag_of(dt_ins)?)?;
        value.apply_delta(&del, &ins);
    }

    // Logged changes (BL, C): evaluate σ_p(▼(L,Q)) / σ_p(▲(L,Q)) now.
    if let Some(log) = view.log() {
        let deltas = post_update_deltas(view.definition(), log, catalog)?;
        let (del, ins) = crate::scenario::eval_pair_overlay(
            catalog,
            &wrap(deltas.del),
            &wrap(deltas.ins),
            log_overrides,
        )?;
        value.apply_delta(&del, &ins);
    }

    Ok(value)
}

/// Ground truth for tests: `σ_pred(Q)` recomputed from scratch.
pub fn recompute_where(catalog: &Catalog, view: &View, pred: &Predicate) -> Result<Bag> {
    eval_expr(catalog, &view.definition().clone().select(pred.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::view::Scenario;
    use dvm_algebra::predicate::{col, lit};
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
        let filtered = read_through_where(db.catalog(), &view, &pred).unwrap();
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
        let filtered = read_through_where(db.catalog(), &view, &pred).unwrap();
        assert_eq!(filtered, Bag::singleton(tuple![8, 200]));
    }
}
