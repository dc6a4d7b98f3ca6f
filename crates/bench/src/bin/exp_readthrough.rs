//! **E8 — read-through queries** (paper Section 7, first future-work
//! question: "refresh only those parts of a view needed by a given
//! query").
//!
//! A decision-support reader who needs *fresh* data has three options:
//!
//! 1. **refresh + read**: bring `MV` up to date, paying write-lock
//!    downtime that blocks every other reader;
//! 2. **read-through**: combine `MV` with the auxiliary state on the fly —
//!    fresh answer, zero downtime, work proportional to the deferred
//!    backlog;
//! 3. **filtered read-through**: additionally filter with the query's
//!    predicate — `MV` and the differential tables under their read
//!    guards, the backlog's change rows after evaluation.
//!
//! We measure all three (plus the instant-but-stale raw read) with a
//! selective predicate (one customer's slice) on three views over the
//! retail tables: the join view `V` (Example 1.1) and the counted
//! aggregate `V_agg` (`SUM(quantity)` per customer) on private logs, and
//! `V_sh`, the join view on the shared log. Read-through times are the
//! median of five calls.

use dvm_algebra::predicate::{col, lit, Predicate};
use dvm_algebra::{AggCall, AggFunc, ColRef, Expr};
use dvm_bench::report::{fmt_duration, TableReport};
use dvm_bench::retail_db;
use dvm_core::{Database, Minimality, Scenario};
use dvm_workload::retail::view_expr;
use std::time::{Duration, Instant};

const CUSTOMERS: usize = 5_000;
const INITIAL_SALES: usize = 25_000;
const VIEWS: [&str; 3] = ["V", "V_agg", "V_sh"];

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// The median wall time of five calls, and the last call's answer.
fn median_of_5<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut times = Vec::with_capacity(5);
    let mut out = None;
    for _ in 0..5 {
        let (o, t) = timed(&mut f);
        times.push(t);
        out = Some(o);
    }
    times.sort();
    (out.expect("five calls"), times[2])
}

fn commit() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output();
    match git {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

fn main() {
    println!("=== E8: fresh reads over a stale view (zero-downtime read-through) ===\n");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: {cores}-core {}/{}; commit: {}\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        commit()
    );
    println!(
        "retail tables, {CUSTOMERS} customers / {INITIAL_SALES}+ sales; views V (join),\n\
         V_agg (counted SUM per customer) and V_sh (V on the shared log); query:\n\
         one customer's slice (σ custId = 3); downtime = MV write-lock hold added\n"
    );

    let mut table = TableReport::new([
        "N deferred tx",
        "view",
        "stale read",
        "read-through (full)",
        "read-through (filtered)",
        "refresh + read",
        "refresh downtime",
    ]);

    for &n_tx in &[100usize, 1_000] {
        let (db, mut gen) = retail_db(
            CUSTOMERS,
            INITIAL_SALES,
            Scenario::Combined,
            Minimality::Weak,
            3,
        );
        let v_agg = Expr::table("sales").group_aggregate(
            vec![ColRef::new("custId")],
            vec![AggCall::new(AggFunc::Sum, ColRef::new("quantity"))],
        );
        db.create_view("V_agg", v_agg, Scenario::Combined).unwrap();
        db.create_view_shared("V_sh", view_expr(), Minimality::Weak)
            .unwrap();
        // One propagate builds V_agg's count state, as maintenance would
        // long before a reader arrives.
        db.execute(&gen.mixed_batch(10, 2)).unwrap();
        db.propagate("V_agg").unwrap();
        for _ in 0..n_tx {
            db.execute(&gen.mixed_batch(10, 2)).unwrap();
        }
        let pred = Predicate::eq(col("custId"), lit(3i64));
        for view in VIEWS {
            table.row(measure(&db, view, &pred, n_tx));
        }
    }
    table.print();

    println!(
        "\nthe future-work property: a reader gets a FRESH answer (read-through\n\
         columns) without the write-lock downtime of the last column; each\n\
         read-through runs the view's stored delta program over the backlog\n\
         (V_agg folds it into copies of the touched groups of its count\n\
         state), so its cost follows the backlog, not the base tables."
    );
}

/// One row of the table for `view`: the reads, asserted against the
/// recomputed truth, then the refresh.
fn measure(db: &Database, view: &str, pred: &Predicate, n_tx: usize) -> [String; 7] {
    let (_stale, t_stale) = median_of_5(|| db.query_view(view).unwrap());
    let (fresh_full, t_full) = median_of_5(|| db.read_through(view).unwrap());
    let (fresh_filtered, t_filtered) = median_of_5(|| db.read_through_where(view, pred).unwrap());

    // correctness: filtered read-through == σ(fresh truth)
    let truth = db.recompute_view(view).unwrap();
    assert_eq!(fresh_full, truth, "{view}");
    let schema = db.view(view).unwrap().mv_schema();
    let phys = dvm_algebra::infer::compile_predicate(pred, &schema).unwrap();
    assert_eq!(fresh_filtered, truth.select(|t| phys.eval(t)), "{view}");

    // downtime of the refresh path
    let hold = || {
        let mv = db.mv_table(view).unwrap();
        mv.lock_metrics().snapshot().write_hold_nanos
    };
    let before = hold();
    let (_, t_refresh) = timed(|| {
        db.refresh(view).unwrap();
        db.query_view(view).unwrap()
    });
    [
        n_tx.to_string(),
        view.to_string(),
        fmt_duration(t_stale),
        fmt_duration(t_full),
        fmt_duration(t_filtered),
        fmt_duration(t_refresh),
        fmt_duration(Duration::from_nanos(hold() - before)),
    ]
}
