//! The maintenance profiler end-to-end through `Database`: operator-level
//! cost attribution per propagate/refresh strictly gated behind the
//! profiling flag, and the always-on time-series recorder the policy
//! driver samples staleness into.
//!
//! Profiling is a process-wide flag, so every flag-dependent assertion
//! lives in one test body — parallel test threads must not observe each
//! other's toggles.

use dvm_algebra::testgen::{Rng, Universe};
use dvm_algebra::{col, Expr, Predicate};
use dvm_core::{Database, Minimality, PolicyDriver, RefreshPolicy, Scenario};
use dvm_delta::Transaction;
use dvm_storage::{tuple, Schema, ValueType};

/// An equi-join the optimizer compiles to a `HashJoin`, so profiled
/// propagates produce non-trivial operator trees.
fn join_def() -> Expr {
    Expr::table("t0")
        .alias("l")
        .product(Expr::table("t1").alias("r"))
        .select(Predicate::eq(col("l.a"), col("r.a")))
        .project(["l.a", "r.b"])
}

fn seeded_db(u: &Universe, seed: u64) -> Database {
    let mut rng = Rng::new(seed);
    let db = Database::new();
    for t in &u.tables {
        let table = db.create_table(t.clone(), u.schema.clone()).unwrap();
        table.replace(u.bag(&mut rng, 8)).unwrap();
    }
    db
}

fn churn(u: &Universe, rng: &mut Rng) -> Transaction {
    let mut tx = Transaction::new();
    for t in &u.tables {
        tx = tx
            .delete(t.clone(), u.bag(rng, 2))
            .insert(t.clone(), u.bag(rng, 3));
    }
    tx
}

#[test]
fn profiler_gates_capture_and_attributes_costs() {
    let u = Universe::small(2);
    let db = seeded_db(&u, 0x1234);
    db.create_view("vj", join_def(), Scenario::Combined)
        .unwrap();
    let mut rng = Rng::new(0x99);

    // --- off (the default): maintenance records no operation profiles ---
    assert!(!db.profiling_enabled());
    db.execute(&churn(&u, &mut rng)).unwrap();
    db.propagate("vj").unwrap();
    let off = db.profile_report();
    assert!(!off.enabled);
    assert!(off.ops.is_empty(), "off path must record no profiles");

    // --- on: propagate and partial_refresh record annotated trees ---
    db.set_profiling(true);
    db.execute(&churn(&u, &mut rng)).unwrap();
    db.propagate("vj").unwrap();
    db.partial_refresh("vj").unwrap();
    let on = db.profile_report();
    assert!(on.enabled);
    let prop = on
        .ops
        .iter()
        .find(|o| o.op == "propagate")
        .expect("propagate must be profiled");
    assert_eq!(prop.view, "vj");
    assert!(
        !prop.evals.is_empty(),
        "propagate over a join view evaluates change queries"
    );
    for e in &prop.evals {
        assert_eq!(
            e.total_exclusive_nanos(),
            e.nanos,
            "per-operator exclusive nanos must telescope to the root:\n{}",
            e.render()
        );
    }
    assert!(prop.coverage() > 0.0);
    assert!(
        on.ops.iter().any(|o| o.op == "partial_refresh"),
        "partial_refresh must be profiled too"
    );
    let rendered = on.render();
    assert!(rendered.contains("== propagate vj"), "{rendered}");
    assert!(rendered.contains("Scan"), "{rendered}");
    assert!(rendered.contains("pool:"), "{rendered}");

    // The report round-trips through its JSON exporter.
    let doc = dvm_obs::json::parse(&on.to_json()).unwrap();
    assert_eq!(doc.get("enabled"), Some(&dvm_obs::json::Value::Bool(true)));
    assert!(!doc.get("ops").unwrap().as_arr().unwrap().is_empty());

    // --- re-enabling starts a fresh phase ---
    db.set_profiling(false);
    db.set_profiling(true);
    assert!(
        db.profile_report().ops.is_empty(),
        "enabling profiling clears the previous phase"
    );
    db.set_profiling(false);
    assert!(!db.profiling_enabled());
}

#[test]
fn time_series_record_latency_and_policy_driven_staleness() {
    let db = Database::new();
    db.create_table("r", Schema::from_pairs(&[("a", ValueType::Int)]))
        .unwrap();
    db.create_view_shared("v", Expr::table("r"), Minimality::Weak)
        .unwrap();
    let mut driver = PolicyDriver::new(&db);
    driver
        .add_view("v", RefreshPolicy::Policy2 { k: 1, m: 2 })
        .unwrap();
    for i in 0..6i64 {
        db.execute(&Transaction::new().insert_tuple("r", tuple![i]))
            .unwrap();
        driver.tick().unwrap();
    }

    let report = db.profile_report();
    let series: Vec<&str> = report.series.iter().map(|s| s.name()).collect();
    assert!(
        series.contains(&"propagate_ns/v"),
        "propagate latency series missing: {series:?}"
    );
    assert!(
        series.contains(&"refresh_ns/v"),
        "partial-refresh latency series missing: {series:?}"
    );
    assert!(
        series.contains(&"staleness_ns/v"),
        "policy ticks must sample staleness: {series:?}"
    );
    assert!(
        series.contains(&"backlog_entries/v"),
        "policy ticks must sample backlog: {series:?}"
    );
    let staleness = report
        .series
        .iter()
        .find(|s| s.name() == "staleness_ns/v")
        .unwrap();
    assert_eq!(staleness.samples(), 6, "one sample per tick");
    let prop = report
        .series
        .iter()
        .find(|s| s.name() == "propagate_ns/v")
        .unwrap();
    assert_eq!(prop.samples(), 6, "Policy2 k=1 propagates every tick");
    // Series survive the JSON exporter with their points intact.
    let doc = dvm_obs::json::parse(&report.to_json()).unwrap();
    let arr = doc.get("series").unwrap().as_arr().unwrap();
    assert_eq!(arr.len(), report.series.len());
    assert!(arr
        .iter()
        .any(|s| s.get("name").and_then(|n| n.as_str()) == Some("staleness_ns/v")));
}
