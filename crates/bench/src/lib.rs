//! # dvm-bench — experiment harness
//!
//! One `exp_*` binary per paper figure / performance claim (see the
//! experiment index in `DESIGN.md`), plus `dvm-testkit`-based
//! micro-benchmarks and shared setup helpers.

#![warn(missing_docs)]

pub mod report;

use dvm_algebra::eval::{BagSource, ParamSource};
use dvm_algebra::{Plan, SharedPlans};
use dvm_core::{Database, Minimality, Scenario};
use dvm_durability::WalOptions;
use dvm_storage::Bag;
use dvm_workload::{view_expr, RetailConfig, RetailGen};
use std::collections::HashMap;
use std::path::Path;

/// A retail database with the Example-1.1 view installed under `scenario`.
pub fn retail_db(
    customers: usize,
    initial_sales: usize,
    scenario: Scenario,
    minimality: Minimality,
    seed: u64,
) -> (Database, RetailGen) {
    let db = Database::new();
    let mut gen = RetailGen::new(RetailConfig {
        customers,
        items: (customers / 2).max(10),
        initial_sales,
        high_fraction: 0.1,
        theta: 1.0,
        seed,
    });
    gen.install(&db).expect("install retail schema");
    db.create_view_with("V", view_expr(), scenario, minimality)
        .expect("create view");
    (db, gen)
}

/// [`retail_db`], but durable: the database lives at `dir` (created or
/// wiped first), and a checkpoint is cut right after the initial load —
/// `install` seeds tables by bulk `replace`, which bypasses the WAL, so
/// the checkpoint is what makes the seed state recoverable. Subsequent
/// transactions land in the WAL suffix.
pub fn retail_db_durable(
    dir: &Path,
    options: WalOptions,
    customers: usize,
    initial_sales: usize,
    scenario: Scenario,
    minimality: Minimality,
    seed: u64,
) -> (Database, RetailGen) {
    let _ = std::fs::remove_dir_all(dir);
    let db = Database::open_with_options(dir, options).expect("open durable dir");
    let mut gen = RetailGen::new(RetailConfig {
        customers,
        items: (customers / 2).max(10),
        initial_sales,
        high_fraction: 0.1,
        theta: 1.0,
        seed,
    });
    gen.install(&db).expect("install retail schema");
    db.create_view_with("V", view_expr(), scenario, minimality)
        .expect("create view");
    db.checkpoint().expect("baseline checkpoint");
    (db, gen)
}

/// How [`eval_pending_deltas`] evaluates a variant's `(▼, ▲)` plans: the
/// engine's [`dvm_algebra::eval_pair`], or a baseline of the same shape.
pub type PairEvaluator =
    fn(&Plan, &Plan, &SharedPlans, &dyn BagSource) -> dvm_algebra::Result<(Bag, Bag)>;

/// Evaluate a Combined view's pending `▼(L,Q)/▲(L,Q)` the way
/// `propagate`'s front half does — the compiled variant for the current
/// log activity, the active log bags its plans scan bound as parameters
/// over pinned tables — with the evaluator of the caller's choice. The
/// baseline series (`exp_eval`'s reference executor, `exp_compile`'s per-call
/// derivation) are built on this in bench code, so the engine ships one
/// propagate path; the Lemma-3 fold and log clear every variant shares
/// are deliberately outside the measurement.
pub fn eval_pending_deltas(db: &Database, view: &str, eval_pair: PairEvaluator) -> (Bag, Bag) {
    let catalog = db.catalog();
    let view = db.view(view).expect("view exists");
    let program = view.delta_program(catalog).expect("combined view");
    let mask = program.activity_mask(&|t| catalog.get(t).is_some_and(|t| t.is_empty()));
    let (variant, _) = program.variant(mask, catalog).expect("variant compiles");
    let mut tables = variant.del.plan.tables();
    tables.extend(variant.ins.plan.tables());
    let params: HashMap<String, Bag> = program
        .active_log_tables(mask)
        .into_iter()
        .filter(|t| tables.contains(*t))
        .map(|t| (t.to_string(), catalog.bag_of(t).expect("log table")))
        .collect();
    let src = ParamSource::pin(catalog, &tables, &params).expect("pin base tables");
    eval_pair(&variant.del.plan, &variant.ins.plan, &variant.shared, &src).expect("evaluate ▼/▲")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retail_db_builds() {
        let (db, _gen) = retail_db(50, 200, Scenario::Combined, Minimality::Weak, 1);
        assert!(db.check_invariant("V").unwrap().ok());
        assert_eq!(db.catalog().require("sales").unwrap().len(), 200);
    }
}
