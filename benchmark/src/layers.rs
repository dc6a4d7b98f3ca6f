//! The only file that names items below the `dvm` façade.
//!
//! Every call the benchmark makes into a layer's own public function —
//! rather than through `dvm::Database` — goes through a wrapper here, so
//! an API change in a layer crate is a change to this file alone.
//! Nothing here calls what ROADMAP items 2–4 plan to remove or gate
//! (`propagate_uncompiled`, `eval_reference`/`EvalMode`,
//! `post_update_deltas_pruned`, the `JoinBuildCache`/`JoinCacheStats`
//! types): those counters are read from the observability JSON by key.

use dvm::dvm_algebra::{col, lit, PinnedState};
use dvm::dvm_obs::json;
use dvm::{Bag, ChangeEvent, Database, Expr, LoweredStatement, Predicate, Transaction};
use std::collections::BTreeSet;

pub use dvm::dvm_core::CoreError;
pub use dvm::dvm_ingest::Producer;
pub use dvm::dvm_obs::json::Value as Json;
pub use dvm::{PolicyDriver, RefreshPolicy};

// ---- ingest ---------------------------------------------------------------

/// `Producer::submit`; `true` when the event was accepted.
pub fn submit(producer: &Producer, event: ChangeEvent) -> bool {
    matches!(producer.submit(event), Ok(true))
}

// ---- delta ----------------------------------------------------------------

/// `Transaction::make_weakly_minimal` against the live catalog — what
/// `execute` does under its commit claims, callable on its own.
pub fn normalize(db: &Database, tx: &Transaction) -> Result<Transaction, CoreError> {
    let tables: BTreeSet<String> = tx.tables().cloned().collect();
    let pinned = PinnedState::pin(db.catalog(), &tables)?;
    Ok(tx.make_weakly_minimal(&pinned)?)
}

/// `dvm_delta::compose` (Lemma 3) of two `(▼, ▲)` pairs.
pub fn compose(first: (&Bag, &Bag), second: (&Bag, &Bag)) -> (Bag, Bag) {
    dvm::dvm_delta::compose(first.0, first.1, second.0, second.1)
}

// ---- storage --------------------------------------------------------------

pub fn bag_apply_delta(bag: &mut Bag, del: &Bag, ins: &Bag) {
    bag.apply_delta(del, ins);
}

pub fn bag_union(a: &Bag, b: &Bag) -> Bag {
    a.union(b)
}

pub fn bag_monus(a: &Bag, b: &Bag) -> Bag {
    a.monus(b)
}

// ---- algebra / sql --------------------------------------------------------

/// The slice a `read_through_where` reader asks for: one customer.
pub fn customer_slice(cust_id: i64) -> Predicate {
    Predicate::eq(col("custId"), lit(cust_id))
}

/// Parse and lower one `CREATE VIEW` statement.
pub fn parse_lower(sql: &str) -> (String, Expr) {
    match dvm::dvm_sql::sql_to_statement(sql) {
        Ok(LoweredStatement::CreateView { name, definition }) => (name, definition),
        other => panic!("benchmark SQL must be a CREATE VIEW: {other:?}"),
    }
}

// ---- observability, by key -------------------------------------------------

/// `Database::observability().to_json()`, parsed. Counters are looked up
/// by key with [`num_at`] and [`view_nums`], so one the engine stops
/// exporting reads `None` instead of breaking the build.
pub fn observability(db: &Database) -> Json {
    parse_json(&db.observability().to_json())
}

pub fn parse_json(text: &str) -> Json {
    json::parse(text).unwrap_or_else(|e| panic!("malformed JSON: {e:?}"))
}

/// The number at `path` below `root`.
pub fn num_at(root: &Json, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(root, |v, key| v.get(key))
        .and_then(Json::as_f64)
}

/// The number at `path` in every view's report.
pub fn view_nums(root: &Json, path: &[&str]) -> Vec<f64> {
    root.get("views")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|v| num_at(v, path))
        .collect()
}
