//! Compiled delta programs end-to-end through `Database`: steady-state
//! propagate must do zero symbolic work (no derivation, no plan
//! construction — only parameter binding), the empty-log fast path must do
//! *nothing*, repeated propagates must read the unchanged join side by key,
//! the join view's propagate must read as many base rows at any table
//! size, and crash recovery must rebuild the programs to the same answers.
//!
//! Profiling is a process-wide flag, so every flag-dependent assertion
//! lives in one test body — parallel test threads must not observe each
//! other's toggles.

use dvm_algebra::{col, Expr, Predicate};
use dvm_core::{Database, Scenario};
use dvm_delta::Transaction;
use dvm_storage::{tuple, Schema, ValueType};
use std::path::PathBuf;

fn schema_ab() -> Schema {
    Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Int)])
}

/// An equi-join the optimizer compiles to a `HashJoin`, so propagates
/// probe the join-key indexes.
fn join_def() -> Expr {
    Expr::table("t0")
        .alias("l")
        .product(Expr::table("t1").alias("r"))
        .select(Predicate::eq(col("l.a"), col("r.a")))
        .project(["l.a", "r.b"])
}

fn seeded_join_db() -> Database {
    let db = Database::new();
    let t0 = db.create_table("t0", schema_ab()).unwrap();
    t0.insert(tuple![1, 1]).unwrap();
    t0.insert(tuple![2, 2]).unwrap();
    let t1 = db.create_table("t1", schema_ab()).unwrap();
    t1.insert(tuple![1, 10]).unwrap();
    t1.insert(tuple![3, 30]).unwrap();
    db
}

/// Labels of every phase/operator recorded for the most recent op of the
/// given kind.
fn op_labels(db: &Database, op: &str) -> Vec<String> {
    db.profile_report()
        .ops
        .iter()
        .filter(|o| o.op == op)
        .flat_map(|o| o.evals.iter().map(|e| e.label.clone()))
        .collect()
}

#[test]
fn steady_state_propagate_does_zero_symbolic_work() {
    let db = seeded_join_db();
    db.create_view("vj", join_def(), Scenario::Combined)
        .unwrap();

    // --- warm path: a fully dirty log uses the eagerly compiled
    // all-active variant — no derivation, no compile, just binding ---
    db.set_profiling(true);
    db.execute(
        &Transaction::new()
            .delete_tuple("t0", tuple![2, 2])
            .insert_tuple("t0", tuple![3, 3])
            .delete_tuple("t1", tuple![3, 30])
            .insert_tuple("t1", tuple![2, 20]),
    )
    .unwrap();
    db.propagate("vj").unwrap();
    let labels = op_labels(&db, "propagate");
    assert!(
        !labels.iter().any(|l| l.contains("DeriveDeltas")),
        "steady state must not differentiate: {labels:?}"
    );
    assert!(
        !labels.iter().any(|l| l.contains("CompilePin")),
        "steady state must not plan-compile: {labels:?}"
    );
    assert!(
        !labels.iter().any(|l| l.contains("CompileDelta")),
        "the all-active variant was compiled at view creation: {labels:?}"
    );
    assert!(
        labels.iter().any(|l| l == "BindParams"),
        "the compiled path binds log bags as parameters: {labels:?}"
    );

    // --- a new activity mask derives once, then never again ---
    db.set_profiling(false);
    db.set_profiling(true); // fresh phase
    db.execute(&Transaction::new().insert_tuple("t0", tuple![9, 9]))
        .unwrap();
    db.propagate("vj").unwrap();
    let labels = op_labels(&db, "propagate");
    assert_eq!(
        labels.iter().filter(|l| l.contains("CompileDelta")).count(),
        1,
        "first sighting of the insert-only mask compiles it: {labels:?}"
    );
    db.set_profiling(false);
    db.set_profiling(true);
    db.execute(&Transaction::new().insert_tuple("t0", tuple![8, 8]))
        .unwrap();
    db.propagate("vj").unwrap();
    let labels = op_labels(&db, "propagate");
    assert!(
        !labels.iter().any(|l| l.contains("CompileDelta")),
        "repeat of a seen mask is a pure cache lookup: {labels:?}"
    );
    assert!(labels.iter().any(|l| l == "BindParams"), "{labels:?}");

    // --- empty-log fast path: the operation records nothing at all ---
    db.set_profiling(false);
    db.set_profiling(true);
    db.propagate("vj").unwrap(); // log is empty after the previous one
    let rep = db.profile_report();
    let prop = rep
        .ops
        .iter()
        .find(|o| o.op == "propagate")
        .expect("propagate is profiled even when it short-circuits");
    assert!(
        prop.evals.is_empty(),
        "empty-log propagate must evaluate nothing: {:?}",
        prop.evals.iter().map(|e| &e.label).collect::<Vec<_>>()
    );
    db.set_profiling(false);

    // And the short-circuit changed nothing: the view still lands on truth.
    db.refresh("vj").unwrap();
    assert_eq!(
        db.query_view("vj").unwrap(),
        db.recompute_view("vj").unwrap()
    );

    propagate_work_follows_the_change_on_the_bulk_shape();
    join_view_reads_sales_by_key_at_any_size();
}

/// dvmbench's `bulk_refresh` in small: one transaction changes `sales`
/// *and* `customer`, so every log of the join view `v` and of the
/// aggregate view `v_agg` is active and no join side is a cacheable base
/// build. Read off the profile trees, not a clock, at |sales| = 2 000 and
/// 16 000 ([`bulk_cycle`]): `v_agg` is counted, so neither its
/// `propagate_C` nor its twin's `refresh_BL` aggregates or scans `sales`
/// or the view's own tables, and the work folded is the change — the same
/// rows, groups and scans at both sizes. `v` builds its joins on the log
/// sides (at most twice the logged rows, never a survivor of `sales`).
/// Then, with only the `sales` logs non-empty, one
/// `read_through_where(custId = k)` on `v` and on `v_agg` runs the stored
/// variant for that mask: neither scans `sales` (its `TableStats::scans`
/// stay put), `v_agg` aggregates nothing, and both scan the same tables at
/// both sizes. Part of the one flag-dependent test body.
fn propagate_work_follows_the_change_on_the_bulk_shape() {
    let small = bulk_cycle(2_000);
    let large = bulk_cycle(16_000);
    assert_eq!(small, large, "the counted work does not grow with |sales|");
}

/// One profiled bulk-shaped cycle over `sales_rows` sales; returns, per
/// aggregate view's maintenance and per read-through, the labels of the
/// tables it scanned and its `AggFold` node's `(rows folded, groups
/// touched)` (`(0, 0)` for the join view's read).
fn bulk_cycle(sales_rows: i64) -> Vec<(Vec<String>, (u64, u64))> {
    use dvm_algebra::{lit_str, AggCall, AggFunc, ColRef};
    use std::collections::BTreeSet;
    let db = Database::new();
    let customer = db
        .create_table(
            "customer",
            Schema::from_pairs(&[("custId", ValueType::Int), ("score", ValueType::Str)]),
        )
        .unwrap();
    let sales = db
        .create_table(
            "sales",
            Schema::from_pairs(&[("custId", ValueType::Int), ("quantity", ValueType::Int)]),
        )
        .unwrap();
    for c in 0..100i64 {
        let score = if c % 10 == 0 { "High" } else { "Low" };
        customer.insert(tuple![c, score]).unwrap();
    }
    for s in 0..sales_rows {
        sales.insert(tuple![s % 100, s]).unwrap();
    }
    let v = Expr::table("customer")
        .alias("c")
        .product(Expr::table("sales").alias("s"))
        .select(
            Predicate::eq(col("c.custId"), col("s.custId"))
                .and(Predicate::eq(col("c.score"), lit_str("High"))),
        )
        .project(["c.custId", "s.quantity"]);
    let v_agg = Expr::table("sales").group_aggregate(
        vec![ColRef::new("custId")],
        vec![AggCall::new(AggFunc::Sum, ColRef::new("quantity"))],
    );
    db.create_view("v", v, Scenario::Combined).unwrap();
    db.create_view("v_agg", v_agg.clone(), Scenario::Combined)
        .unwrap();
    db.create_view("v_agg_bl", v_agg, Scenario::BaseLog)
        .unwrap();
    for view in ["v_agg", "v_agg_bl"] {
        let program = db.view(view).unwrap().delta_program(db.catalog()).unwrap();
        assert!(
            program.counted().is_some(),
            "{view}: SUM over INT is counted"
        );
    }

    // A first cycle builds `S` (one pass over `PAST(L,E)`) and leaves
    // ∇MV/ΔMV of `v_agg` non-empty.
    let mut warm = Transaction::new();
    for s in 100..130i64 {
        warm = warm.delete_tuple("sales", tuple![s % 100, s]);
    }
    db.execute(&warm).unwrap();
    db.propagate("v").unwrap();
    db.propagate("v_agg").unwrap();
    db.refresh("v_agg_bl").unwrap();

    let mut tx = Transaction::new();
    let mut groups = BTreeSet::new();
    for s in 0..60i64 {
        tx = tx
            .delete_tuple("sales", tuple![s % 100, s])
            .insert_tuple("sales", tuple![(s * 7) % 100, 5_000_000 + s]);
        groups.extend([s % 100, (s * 7) % 100]);
    }
    for c in [0i64, 1, 10, 11] {
        let (old, new) = if c % 10 == 0 {
            ("High", "Low")
        } else {
            ("Low", "High")
        };
        tx = tx
            .delete_tuple("customer", tuple![c, old])
            .insert_tuple("customer", tuple![c, new]);
    }
    let logged = tx.change_volume();
    db.execute(&tx).unwrap();

    db.set_profiling(true);
    db.propagate("v").unwrap();
    db.propagate("v_agg").unwrap();
    db.refresh("v_agg_bl").unwrap();
    let report = db.profile_report();
    db.set_profiling(false);
    let trees = |view: &str| -> Vec<dvm_obs::OpProf> {
        let op = report.ops.iter().find(|o| o.view == view);
        op.expect("maintenance profiled").evals.clone()
    };
    let count = |trees: &[dvm_obs::OpProf], label: &str| {
        let nodes = trees.iter().flat_map(|t| t.nodes());
        let found: Vec<_> = nodes.filter(|n| n.label == label).collect();
        (found.len(), found.iter().map(|n| n.rows_out).sum::<u64>())
    };

    let mut seen = Vec::new();
    for view in ["v_agg", "v_agg_bl"] {
        let agg = trees(view);
        let nodes: Vec<&dvm_obs::OpProf> = agg.iter().flat_map(|t| t.nodes()).collect();
        assert!(
            !nodes.iter().any(|n| n.label.starts_with("GroupAggregate")),
            "{view} aggregated: {:?}",
            nodes.iter().map(|n| &n.label).collect::<Vec<_>>()
        );
        assert_eq!(
            count(&agg, "AggStateBuild").0,
            0,
            "{view}: S was built by the warm cycle"
        );
        let scans: Vec<String> = nodes
            .iter()
            .filter(|n| n.label.starts_with("Scan "))
            .map(|n| n.label.clone())
            .collect();
        for own in [
            "sales",
            "__mv_v_agg",
            "__v_agg_dt_del",
            "__v_agg_dt_ins",
            "__mv_v_agg_bl",
        ] {
            assert!(
                !scans.contains(&format!("Scan {own}")),
                "{view} scanned {own}: {scans:?}"
            );
        }
        let fold: Vec<_> = nodes.iter().filter(|n| n.label == "AggFold").collect();
        assert_eq!(fold.len(), 1, "{view}: one fold");
        assert_eq!(fold[0].rows_in, 120, "{view}: |▼E| + |▲E| rows folded");
        assert_eq!(
            fold[0].rows_out,
            groups.len() as u64,
            "{view}: groups touched"
        );
        let scans = scans.iter().map(|s| s.replace(view, "V")).collect();
        seen.push((scans, (fold[0].rows_in, fold[0].rows_out)));
    }
    let join = trees("v");
    let (builds, built_rows) = count(&join, "JoinBuild");
    assert!(
        builds > 0 && count(&join, "IndexProbe sales").0 > 0,
        "joins built by size, their key sets looked up in sales"
    );
    assert!(
        built_rows <= 2 * logged,
        "join builds hold {built_rows} rows for {logged} logged: a survivor was built"
    );

    for view in ["v", "v_agg", "v_agg_bl"] {
        db.refresh(view).unwrap();
        assert_eq!(
            db.query_view(view).unwrap(),
            db.recompute_view(view).unwrap()
        );
    }

    // Only `sales` changes: the read-throughs bind its logs.
    let mut tx = Transaction::new();
    for s in 60..80i64 {
        tx = tx
            .delete_tuple("sales", tuple![s % 100, s])
            .insert_tuple("sales", tuple![11, 6_000_000 + s]);
    }
    db.execute(&tx).unwrap();
    let sales_scans = || sales.stats().snapshot().scans;
    let who = Predicate::eq(col("custId"), dvm_algebra::lit(11i64));
    db.set_profiling(true);
    for view in ["v", "v_agg"] {
        let _ = dvm_obs::profile::take_captured();
        let scans_before = sales_scans();
        let fresh = db.read_through_where(view, &who).unwrap();
        let trees = dvm_obs::profile::take_captured().evals;
        assert_eq!(
            sales_scans(),
            scans_before,
            "{view}: the read scanned sales"
        );
        let truth = db.recompute_view(view).unwrap();
        assert_eq!(fresh, truth.select(|t| t[0] == dvm_storage::Value::Int(11)));
        assert!(!fresh.is_empty(), "{view}: customer 11's slice");
        let nodes: Vec<&dvm_obs::OpProf> = trees.iter().flat_map(|t| t.nodes()).collect();
        assert!(
            !nodes.iter().any(|n| n.label.starts_with("GroupAggregate")),
            "{view}'s read aggregated"
        );
        let mut scans: Vec<String> = nodes
            .iter()
            .filter(|n| n.label.starts_with("Scan "))
            .map(|n| n.label.clone())
            .collect();
        scans.sort();
        assert!(!scans.is_empty(), "{view}: the read ran the variant");
        let fold = nodes.iter().find(|n| n.label == "AggFold");
        seen.push((scans, fold.map_or((0, 0), |n| (n.rows_in, n.rows_out))));
    }
    db.set_profiling(false);
    seen
}

/// `v`, the bulk shape's join view, with the fan-out held fixed: every
/// customer has exactly 20 sales at |sales| = 2 000 and 16 000, and one
/// fixed cycle changes the same sales rows and flips the same customers at
/// both sizes. `v`'s propagate then reads the same number of `sales` rows
/// — counted from its profile tree — at both sizes, all of them by key:
/// it is O(|Δ| × matching rows), not O(|sales|). Part of the one
/// flag-dependent test body.
fn join_view_reads_sales_by_key_at_any_size() {
    let small = sales_rows_read_by_v(2_000);
    let large = sales_rows_read_by_v(16_000);
    assert!(small > 0, "the cycle joins against sales");
    assert_eq!(
        small, large,
        "v's propagate reads as many sales rows at 8× |sales|"
    );
}

fn sales_rows_read_by_v(sales_rows: i64) -> u64 {
    use dvm_algebra::lit_str;
    let customers = sales_rows / 20;
    let db = Database::new();
    let customer = db
        .create_table(
            "customer",
            Schema::from_pairs(&[("custId", ValueType::Int), ("score", ValueType::Str)]),
        )
        .unwrap();
    let sales = db
        .create_table(
            "sales",
            Schema::from_pairs(&[("custId", ValueType::Int), ("quantity", ValueType::Int)]),
        )
        .unwrap();
    for c in 0..customers {
        let score = if c % 10 == 0 { "High" } else { "Low" };
        customer.insert(tuple![c, score]).unwrap();
    }
    for s in 0..sales_rows {
        sales.insert(tuple![s % customers, s]).unwrap();
    }
    let v = Expr::table("customer")
        .alias("c")
        .product(Expr::table("sales").alias("s"))
        .select(
            Predicate::eq(col("c.custId"), col("s.custId"))
                .and(Predicate::eq(col("c.score"), lit_str("High"))),
        )
        .project(["c.custId", "s.quantity"]);
    db.create_view("v", v, Scenario::Combined).unwrap();
    // Sales `s < 100` belong to customer `s` at both sizes.
    let cycle = |round: i64| {
        let mut tx = Transaction::new();
        for s in (30 * round)..(30 * round + 30) {
            tx = tx
                .delete_tuple("sales", tuple![s, s])
                .insert_tuple("sales", tuple![(s * 7) % 100, 5_000_000 + s]);
        }
        for c in [0i64, 1, 10, 11] {
            let (old, new) = match (c % 10 == 0) == (round % 2 == 0) {
                true => ("High", "Low"),
                false => ("Low", "High"),
            };
            tx = tx
                .delete_tuple("customer", tuple![c, old])
                .insert_tuple("customer", tuple![c, new]);
        }
        db.execute(&tx).unwrap();
    };
    // The warm cycle's probes build the indexes.
    cycle(0);
    db.propagate("v").unwrap();
    cycle(1);
    db.set_profiling(true);
    db.propagate("v").unwrap();
    let report = db.profile_report();
    db.set_profiling(false);
    let op = report.ops.iter().rev().find(|o| o.view == "v").unwrap();
    let nodes: Vec<&dvm_obs::OpProf> = op.evals.iter().flat_map(|t| t.nodes()).collect();
    assert!(
        !nodes.iter().any(|n| n.label == "Scan sales"),
        "v scanned all of sales: {:?}",
        nodes.iter().map(|n| &n.label).collect::<Vec<_>>()
    );
    db.partial_refresh("v").unwrap();
    assert_eq!(db.query_view("v").unwrap(), db.recompute_view("v").unwrap());
    nodes
        .iter()
        .filter(|n| n.label == "IndexProbe sales")
        .map(|n| n.rows_out)
        .sum()
}

/// Repeated propagates over a one-sided insert stream: the unchanged side
/// is never scanned, only looked up by key — after warmup its index holds
/// the same keys while its probe count climbs with every propagate. The
/// per-view compiled-plan counters must tell the matching story.
#[test]
fn repeated_propagates_probe_the_unchanged_side_by_key() {
    let db = seeded_join_db();
    db.create_view("vj", join_def(), Scenario::Combined)
        .unwrap();

    let run = |i: i64| {
        db.execute(&Transaction::new().insert_tuple("t0", tuple![i, i]))
            .unwrap();
        db.propagate("vj").unwrap();
    };
    // Warmup: first sighting of the insert-only mask compiles its variant,
    // and the first probe builds t1's index.
    run(100);
    run(101);
    let t1 = db.catalog().require("t1").unwrap();
    let warm = t1.index_stats();
    for i in 0..6 {
        run(200 + i);
    }
    let after = t1.index_stats();
    assert_eq!(after.len(), 1, "one index on t1's join key: {after:?}");
    assert_eq!(after[0].entries, warm[0].entries, "t1 never changed");
    assert_eq!(
        after[0].probes,
        warm[0].probes + 6,
        "each propagate looks its one key up: {warm:?} -> {after:?}"
    );

    // The compiled-program counters surface per view in observability.
    let obs = db.observability();
    let v = obs
        .views
        .iter()
        .find(|v| v.name == "vj")
        .expect("view observed");
    let dp = v
        .delta_program
        .as_ref()
        .expect("combined view carries a compiled program");
    assert_eq!(dp.binds, 8, "one bind per non-empty propagate");
    assert_eq!(dp.hits, 7, "every propagate after the first mask hit");
    assert!(
        dp.compiles <= 2,
        "all-active (eager) + insert-only mask: {dp:?}"
    );
    let doc = obs.to_json();
    assert!(doc.contains("\"delta_program\""), "{doc}");
    assert!(doc.contains("\"cache_hits\""), "{doc}");
    let rendered = obs.render();
    assert!(rendered.contains("delta plans vj:"), "{rendered}");

    // Correctness was never traded away.
    db.refresh("vj").unwrap();
    assert_eq!(
        db.query_view("vj").unwrap(),
        db.recompute_view("vj").unwrap()
    );
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvm-compiled-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Crash after a workload that left the log half-propagated; recovery must
/// rebuild the compiled programs (fresh counters) and answer exactly like
/// a never-crashed twin.
#[test]
fn recovery_rebuilds_compiled_programs_to_same_answers() {
    let dir = tmpdir("recovery");
    let workload = |db: &Database| {
        db.create_table("t0", schema_ab()).unwrap();
        db.create_table("t1", schema_ab()).unwrap();
        db.execute(
            &Transaction::new()
                .insert_tuple("t0", tuple![1, 1])
                .insert_tuple("t0", tuple![2, 2])
                .insert_tuple("t1", tuple![1, 10]),
        )
        .unwrap();
        db.create_view("vj", join_def(), Scenario::Combined)
            .unwrap();
        db.execute(
            &Transaction::new()
                .delete_tuple("t0", tuple![2, 2])
                .insert_tuple("t1", tuple![2, 20]),
        )
        .unwrap();
        db.propagate("vj").unwrap();
        // Leave unpropagated work in the log at the "crash".
        db.execute(&Transaction::new().insert_tuple("t0", tuple![2, 7]))
            .unwrap();
    };

    {
        let db = Database::open(&dir).unwrap();
        workload(&db);
        db.sync_wal().unwrap();
        // Dropped without checkpoint: recovery replays the WAL.
    }
    let recovered = Database::open(&dir).unwrap();
    let twin = Database::new();
    workload(&twin);

    // The recovered program is a fresh compile: WAL replay re-created the
    // view (eager all-active variant) and re-ran the logged propagate
    // through it, so the counters exist but are replay-local — none of
    // the pre-crash totals survive.
    let obs = recovered.observability();
    let v = obs.views.iter().find(|v| v.name == "vj").unwrap();
    let dp = v
        .delta_program
        .as_ref()
        .expect("replayed CreateView recompiles the program");
    assert!(dp.compiles >= 1 && dp.variants >= 1, "{dp:?}");
    assert_eq!(dp.binds, 1, "exactly the replayed propagate bound: {dp:?}");

    // Same stale MV, same aux state, and maintenance through the rebuilt
    // programs lands both databases on the same truth.
    assert_eq!(
        recovered.query_view("vj").unwrap(),
        twin.query_view("vj").unwrap(),
        "recovered MV differs from twin"
    );
    recovered.propagate("vj").unwrap();
    twin.propagate("vj").unwrap();
    recovered.refresh("vj").unwrap();
    twin.refresh("vj").unwrap();
    assert_eq!(
        recovered.query_view("vj").unwrap(),
        twin.query_view("vj").unwrap()
    );
    assert_eq!(
        recovered.query_view("vj").unwrap(),
        recovered.recompute_view("vj").unwrap()
    );
    assert!(recovered.check_all_invariants().unwrap().is_empty());

    // The rebuilt program is inspectable.
    let plan = recovered.plan_view("vj").unwrap();
    assert!(plan.contains("delta program for vj"), "{plan}");
    assert!(plan.contains("compiled \u{25bc}(L,Q) plan"), "{plan}");

    let _ = std::fs::remove_dir_all(&dir);
}
