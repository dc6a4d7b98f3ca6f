//! Concurrency stress for the commit protocol: mixed execute / propagate /
//! refresh traffic from many threads across all four scenarios, plus
//! regression tests for the execute-path TOCTOU race (stale weak-minimality
//! normalization) the protocol exists to prevent.
//!
//! Determinism discipline: every worker runs a *fixed* iteration count from
//! its own seeded RNG — no stop-flag-driven loops — so the set of operations
//! issued is identical on every run; only their interleaving varies, which
//! is exactly what the protocol must be insensitive to.

use dvm_algebra::testgen::{Rng, Universe};
use dvm_algebra::{col, lit, AggCall, AggFunc, ColRef, Expr, Predicate};
use dvm_core::{Database, Minimality, Scenario};
use dvm_delta::Transaction;
use dvm_storage::{tuple, Bag, Schema, Value, ValueType};
use dvm_testkit::sync::with_workers;

fn random_tx(u: &Universe, rng: &mut Rng, db: &Database) -> Transaction {
    let mut tx = Transaction::new();
    for t in &u.tables {
        if rng.chance(1, 2) {
            continue;
        }
        // Deliberately generated from a *stale* read of the state: another
        // worker may delete these tuples before we commit. The protocol's
        // normalization-under-claims clamps the deletes then.
        let current = db.catalog().bag_of(t).unwrap();
        let mut del = Bag::new();
        for (tuple, mult) in current.iter() {
            if rng.chance(1, 3) {
                del.insert_n(tuple.clone(), 1 + rng.below(mult));
            }
        }
        tx = tx.delete(t.clone(), del).insert(t.clone(), u.bag(rng, 3));
    }
    tx
}

fn simple_def(table: &str) -> Expr {
    Expr::table(table).select(Predicate::gt(col("a"), lit(0i64)))
}

/// ≥4 workers issue a deterministic mix of execute / propagate / refresh /
/// partial_refresh against views in all four scenarios (plus shared-log
/// views) at once; afterwards every invariant holds and every view lands on
/// the recomputed truth.
#[test]
fn mixed_ops_stress_all_scenarios() {
    let u = Universe::small(2);
    let mut seed_rng = Rng::new(0xD5);
    let db = Database::new();
    for t in &u.tables {
        let table = db.create_table(t.clone(), u.schema.clone()).unwrap();
        table.replace(u.bag(&mut seed_rng, 6)).unwrap();
    }
    db.create_view("v_im", simple_def("t0"), Scenario::Immediate)
        .unwrap();
    db.create_view("v_bl", simple_def("t1"), Scenario::BaseLog)
        .unwrap();
    db.create_view(
        "v_dt",
        Expr::table("t0").union(Expr::table("t1")),
        Scenario::DiffTable,
    )
    .unwrap();
    db.create_view_with(
        "v_c",
        simple_def("t0").union(simple_def("t1")),
        Scenario::Combined,
        Minimality::Strong,
    )
    .unwrap();
    db.create_view_shared("v_s0", simple_def("t0"), Minimality::Weak)
        .unwrap();
    db.create_view_shared("v_s1", Expr::table("t1"), Minimality::Strong)
        .unwrap();
    // Force the parallel makesafe fan-out even on a single-CPU host.
    db.set_maintenance_threads(4);

    let ((), _) = with_workers(
        4,
        |i, _stop| {
            let mut rng = Rng::new(0xA11CE + i as u64);
            for _ in 0..20 {
                match rng.below(8) {
                    0..=3 => {
                        let tx = random_tx(&u, &mut rng, &db);
                        db.execute(&tx).unwrap();
                    }
                    4 => db.propagate("v_c").unwrap(),
                    5 => db.refresh("v_bl").unwrap(),
                    6 => db.partial_refresh("v_c").unwrap(),
                    _ => db.refresh("v_s0").unwrap(),
                }
            }
        },
        || {},
    );

    // Quiescent: every scenario invariant must hold exactly.
    let failures = db.check_all_invariants().unwrap();
    assert!(failures.is_empty(), "post-stress invariants: {failures:?}");
    db.refresh_all().unwrap();
    for v in ["v_im", "v_bl", "v_dt", "v_c", "v_s0", "v_s1"] {
        assert_eq!(
            db.query_view(v).unwrap(),
            db.recompute_view(v).unwrap(),
            "{v} diverged from truth after concurrent stress"
        );
    }
    db.vacuum_shared_log();
    assert_eq!(db.shared_log_stats().0, 0, "drained log vacuums fully");
}

/// The bug shape the commit protocol prevents, reproduced by hand: a
/// transaction normalized against a *stale* state, committed after a
/// conflicting delete, over-logs the delete (base apply saturates, the log
/// does not) and breaks `PAST(L,Q) ≡ MV`.
#[test]
fn stale_normalization_breaks_the_invariant_when_done_by_hand() {
    let db = Database::new();
    let schema = Universe::small(1).schema.clone();
    let table = db.create_table("t0", schema).unwrap();
    table.replace(Bag::singleton(tuple![1, 1])).unwrap();
    db.create_view("v", Expr::table("t0"), Scenario::BaseLog)
        .unwrap();

    // Step 1 (the doomed transaction): normalize the delete against a
    // snapshot taken NOW — the pre-fix `execute` dropped all locks between
    // this step and the apply below.
    let mut stale_state = std::collections::HashMap::new();
    stale_state.insert("t0".to_string(), db.catalog().bag_of("t0").unwrap());
    let doomed = Transaction::new()
        .delete_tuple("t0", tuple![1, 1])
        .make_weakly_minimal(&stale_state)
        .unwrap();

    // Step 2 (the interleaved writer): a fully maintained execute deletes
    // the same multiplicity-1 tuple first.
    db.execute(&Transaction::new().delete_tuple("t0", tuple![1, 1]))
        .unwrap();
    assert!(db.check_invariant("v").unwrap().ok());

    // Step 3: commit the stale-normalized transaction the way the old
    // execute path did — log first, then apply. The base apply saturates
    // (the tuple is already gone) but the log records a second delete.
    let view = db.view("v").unwrap();
    dvm_core::scenario::base_log::extend_log(db.catalog(), &view, &doomed).unwrap();
    for t in doomed.tables() {
        let (d, i) = doomed.get(t).unwrap();
        db.catalog().require(t).unwrap().apply_delta(d, i).unwrap();
    }
    assert!(
        !db.check_invariant("v").unwrap().ok(),
        "stale normalization must over-log the delete and break INV_BL"
    );
}

/// The same conflict driven through `Database::execute` from two threads:
/// the commit claims serialize the writers, the loser renormalizes against
/// the winner's state, and the invariant holds every round.
#[test]
fn concurrent_conflicting_deletes_stay_consistent() {
    let db = Database::new();
    let schema = Universe::small(1).schema.clone();
    db.create_table("t0", schema).unwrap();
    db.create_view("v_bl", Expr::table("t0"), Scenario::BaseLog)
        .unwrap();
    db.create_view("v_c", Expr::table("t0"), Scenario::Combined)
        .unwrap();

    for round in 0..25 {
        db.execute(&Transaction::new().insert_tuple("t0", tuple![1, 1]))
            .unwrap();
        // Both workers race to delete the same multiplicity-1 tuple.
        let ((), _) = with_workers(
            2,
            |_, _stop| {
                db.execute(&Transaction::new().delete_tuple("t0", tuple![1, 1]))
                    .unwrap();
            },
            || {},
        );
        assert!(
            db.catalog().bag_of("t0").unwrap().is_empty(),
            "round {round}: exactly one delete must land"
        );
        let failures = db.check_all_invariants().unwrap();
        assert!(failures.is_empty(), "round {round}: {failures:?}");
    }
    db.refresh_all().unwrap();
    for v in ["v_bl", "v_c"] {
        assert_eq!(db.query_view(v).unwrap(), db.recompute_view(v).unwrap());
    }
}

/// Parallel makesafe fan-out is observably equivalent to the serial loop:
/// same stream, same views — identical view contents and maintenance
/// counts, whichever path ran.
#[test]
fn parallel_makesafe_matches_serial() {
    let u = Universe::small(2);
    let build = |threads: usize| {
        let mut rng = Rng::new(0xBEEF);
        let db = Database::new();
        for t in &u.tables {
            let table = db.create_table(t.clone(), u.schema.clone()).unwrap();
            table.replace(u.bag(&mut rng, 5)).unwrap();
        }
        for (i, scenario) in [
            Scenario::Immediate,
            Scenario::BaseLog,
            Scenario::DiffTable,
            Scenario::Combined,
            Scenario::BaseLog,
            Scenario::Combined,
        ]
        .into_iter()
        .enumerate()
        {
            db.create_view(
                format!("v{i}"),
                Expr::table("t0").union(Expr::table("t1")),
                scenario,
            )
            .unwrap();
        }
        db.set_maintenance_threads(threads);
        db
    };
    let serial = build(1);
    let fanout = build(4);
    // One pregenerated stream fed to both databases. Deletes are drawn from
    // the tuple universe without consulting table state (bag iteration
    // order is instance-specific, so state-dependent generation would
    // diverge); normalization clamps absent deletes identically in both.
    let mut rng = Rng::new(0x57A7E);
    let txs: Vec<Transaction> = (0..10)
        .map(|_| {
            let mut tx = Transaction::new();
            for t in &u.tables {
                tx = tx
                    .delete(t.clone(), u.bag(&mut rng, 2))
                    .insert(t.clone(), u.bag(&mut rng, 3));
            }
            tx
        })
        .collect();
    for tx in &txs {
        let ra = serial.execute(tx).unwrap();
        let rb = fanout.execute(tx).unwrap();
        assert_eq!(ra.views_maintained, rb.views_maintained);
        assert_eq!(ra.views_maintained, 6, "all views read every table");
    }
    serial.refresh_all().unwrap();
    fanout.refresh_all().unwrap();
    for i in 0..6 {
        let name = format!("v{i}");
        assert_eq!(
            serial.query_view(&name).unwrap(),
            fanout.query_view(&name).unwrap(),
            "{name}: fan-out changed the result"
        );
        assert_eq!(
            fanout.query_view(&name).unwrap(),
            fanout.recompute_view(&name).unwrap()
        );
    }
}

/// Vacuum, propagate, refresh, and execute hammer the shared log from four
/// threads at once; cursors never go backwards and nothing needed by a slow
/// view is reclaimed.
#[test]
fn shared_log_vacuum_races_maintenance_and_writers() {
    let u = Universe::small(1);
    let mut seed_rng = Rng::new(0x7EA);
    let db = Database::new();
    let table = db.create_table("t0", u.schema.clone()).unwrap();
    table.replace(u.bag(&mut seed_rng, 4)).unwrap();
    db.create_view_shared("fast", Expr::table("t0"), Minimality::Weak)
        .unwrap();
    db.create_view_shared("slow", simple_def("t0"), Minimality::Weak)
        .unwrap();
    db.set_maintenance_threads(2);

    let ((), _) = with_workers(
        4,
        |i, _stop| match i {
            0 => {
                let mut rng = Rng::new(0xF00D);
                for _ in 0..30 {
                    let tx = random_tx(&u, &mut rng, &db);
                    db.execute(&tx).unwrap();
                }
            }
            1 => {
                for _ in 0..30 {
                    db.propagate("fast").unwrap();
                }
            }
            2 => {
                for _ in 0..20 {
                    db.refresh("slow").unwrap();
                }
            }
            _ => {
                for _ in 0..30 {
                    db.vacuum_shared_log();
                }
            }
        },
        || {},
    );

    let failures = db.check_all_invariants().unwrap();
    assert!(failures.is_empty(), "post-race invariants: {failures:?}");
    db.refresh_all().unwrap();
    for v in ["fast", "slow"] {
        assert_eq!(db.query_view(v).unwrap(), db.recompute_view(v).unwrap());
    }
    db.vacuum_shared_log();
    assert_eq!(db.shared_log_stats().0, 0);
}

/// Big-view stress: a Combined view over 10 240 distinct rows, hammered by
/// 4 workers mixing execute / propagate / partial_refresh. The Lemma 3
/// folds and delta applies must land on the recomputed truth with every
/// invariant intact — including tuples that race across propagation
/// intervals.
#[test]
fn big_view_survives_concurrent_maintenance() {
    let db = Database::new();
    let schema = Universe::small(1).schema.clone();
    let table = db.create_table("big", schema).unwrap();
    let rows = 10_240i64;
    let mut seed = Bag::new();
    for k in 0..rows {
        seed.insert_n(tuple![k, k % 7], 1 + (k % 3) as u64);
    }
    table.replace(seed).unwrap();
    db.create_view("v_big", simple_def("big"), Scenario::Combined)
        .unwrap();
    db.set_maintenance_threads(4);

    let ((), _) = with_workers(
        4,
        |i, _stop| {
            let mut rng = Rng::new(0x5AAD + i as u64);
            for round in 0..12 {
                match (i + round) % 4 {
                    0 | 1 => {
                        // Touch keys spread across the whole range each
                        // round.
                        let mut tx = Transaction::new();
                        for _ in 0..64 {
                            let k = rng.below(rows as u64) as i64;
                            tx = tx
                                .delete_tuple("big", tuple![k, k % 7])
                                .insert_tuple("big", tuple![k + rows, k % 5]);
                        }
                        db.execute(&tx).unwrap();
                    }
                    2 => db.propagate("v_big").unwrap(),
                    _ => db.partial_refresh("v_big").unwrap(),
                }
            }
        },
        || {},
    );

    let failures = db.check_all_invariants().unwrap();
    assert!(failures.is_empty(), "post-stress invariants: {failures:?}");
    db.refresh_all().unwrap();
    assert_eq!(
        db.query_view("v_big").unwrap(),
        db.recompute_view("v_big").unwrap(),
        "big view diverged from truth after concurrent maintenance"
    );
}

/// `refresh_all` / `propagate_all` with explicit worker counts agree with
/// per-view serial calls, and report which views they touched.
#[test]
fn propagate_all_and_refresh_all_cover_every_view() {
    let u = Universe::small(1);
    let mut rng = Rng::new(0x11);
    let db = Database::new();
    let table = db.create_table("t0", u.schema.clone()).unwrap();
    table.replace(u.bag(&mut rng, 4)).unwrap();
    for i in 0..5 {
        db.create_view(format!("c{i}"), simple_def("t0"), Scenario::Combined)
            .unwrap();
    }
    db.create_view("b0", Expr::table("t0"), Scenario::BaseLog)
        .unwrap();
    db.set_maintenance_threads(4);
    db.execute(&Transaction::new().insert_tuple("t0", tuple![5, 5]))
        .unwrap();

    let mut propagated = db.propagate_all().unwrap();
    propagated.sort();
    assert_eq!(propagated, vec!["c0", "c1", "c2", "c3", "c4"]);
    for name in &propagated {
        let m = db.view_metrics(name).unwrap();
        assert_eq!(m.propagate_count, 1, "{name} propagated exactly once");
    }
    db.refresh_all().unwrap();
    for v in ["c0", "c1", "c2", "c3", "c4", "b0"] {
        assert_eq!(db.query_view(v).unwrap(), db.recompute_view(v).unwrap());
    }
}

/// `(rows, Σ amount)` of a fresh read: the join view's rows are
/// `(cid, amt)`, the counted view's `(sid, COUNT(*), SUM(amt))`.
fn totals(bag: &Bag, counted: bool) -> (i64, i64) {
    let int = |v: &Value| match v {
        Value::Int(x) => *x,
        other => panic!("not an INT: {other:?}"),
    };
    let (mut rows, mut sum) = (0, 0);
    for (t, m) in bag.iter() {
        let m = m as i64;
        if counted {
            rows += int(&t[1]) * m;
            sum += int(&t[2]) * m;
        } else {
            rows += m;
            sum += int(&t[1]) * m;
        }
    }
    (rows, sum)
}

/// Read-through answers `Q` at one commit boundary while a writer commits.
/// Every transaction keeps the number of sales and their total: it moves a
/// sale to another customer (`delete x, insert y` on `s`), or re-keys a
/// customer together with all its sales (`c` and `s` in one transaction).
/// A torn read — the change of `s` seen without the change of `c`, `▼s`
/// without `▲s`, a post-commit `c` under a pre-commit log — breaks one of
/// the two totals. Covers a join view and a counted root-`γ` view under
/// BaseLog, Combined and the shared log, filtered and unfiltered, with
/// propagate and refresh racing the readers.
#[test]
fn read_through_sees_one_commit_boundary_under_a_writer() {
    const CUSTOMERS: i64 = 12;
    let db = Database::new();
    let int2 = |a: &str, b: &str| Schema::from_pairs(&[(a, ValueType::Int), (b, ValueType::Int)]);
    db.create_table("c", int2("cid", "grp")).unwrap();
    db.create_table("s", int2("sid", "amt")).unwrap();
    let mut rng = Rng::new(0x7042);
    let sales: Vec<(i64, i64)> = (0..40)
        .map(|i| (i % CUSTOMERS, 1 + rng.below(50) as i64))
        .collect();
    let mut seed = Transaction::new();
    for k in 0..CUSTOMERS {
        seed = seed.insert_tuple("c", tuple![k, k % 3]);
    }
    for &(k, a) in &sales {
        seed = seed.insert_tuple("s", tuple![k, a]);
    }
    db.execute_unmaintained(&seed).unwrap();
    let want = (sales.len() as i64, sales.iter().map(|s| s.1).sum::<i64>());

    let join = Expr::table("c")
        .product(Expr::table("s"))
        .select(Predicate::eq(col("cid"), col("sid")))
        .project(["cid", "amt"]);
    let gamma = Expr::table("s").group_aggregate(
        vec![ColRef::new("sid")],
        vec![
            AggCall::count_star(),
            AggCall::new(AggFunc::Sum, ColRef::new("amt")),
        ],
    );
    db.create_view("j_bl", join.clone(), Scenario::BaseLog)
        .unwrap();
    db.create_view("j_c", join.clone(), Scenario::Combined)
        .unwrap();
    db.create_view_shared("j_sh", join, Minimality::Weak)
        .unwrap();
    db.create_view("g_bl", gamma.clone(), Scenario::BaseLog)
        .unwrap();
    db.create_view("g_c", gamma.clone(), Scenario::Combined)
        .unwrap();
    db.create_view_shared("g_sh", gamma, Minimality::Weak)
        .unwrap();
    let views = ["j_bl", "j_c", "j_sh", "g_bl", "g_c", "g_sh"];

    let ((), _) = with_workers(
        4,
        |i, _stop| match i {
            0 => {
                // The writer's mirror of the state: customer ids, and
                // sales `(sid, amt)`.
                let mut customers: Vec<i64> = (0..CUSTOMERS).collect();
                let mut sales = sales.clone();
                let mut next_id = CUSTOMERS;
                let mut rng = Rng::new(0x5EED);
                for _ in 0..300 {
                    let mut tx = Transaction::new();
                    if rng.chance(1, 5) {
                        // Re-key a customer and every sale of it.
                        let at = rng.below(customers.len() as u64) as usize;
                        let (old, new) = (customers[at], next_id);
                        next_id += 1;
                        customers[at] = new;
                        tx = tx
                            .delete_tuple("c", tuple![old, old % 3])
                            .insert_tuple("c", tuple![new, new % 3]);
                        for sale in sales.iter_mut().filter(|s| s.0 == old) {
                            tx = tx
                                .delete_tuple("s", tuple![old, sale.1])
                                .insert_tuple("s", tuple![new, sale.1]);
                            sale.0 = new;
                        }
                    } else {
                        // Move one sale to another customer.
                        let at = rng.below(sales.len() as u64) as usize;
                        let to = customers[rng.below(customers.len() as u64) as usize];
                        let (from, amt) = sales[at];
                        sales[at].0 = to;
                        tx = tx
                            .delete_tuple("s", tuple![from, amt])
                            .insert_tuple("s", tuple![to, amt]);
                    }
                    db.execute(&tx).unwrap();
                }
            }
            1 => {
                let mut rng = Rng::new(0x3A1);
                for _ in 0..120 {
                    let v = views[rng.below(views.len() as u64) as usize];
                    match rng.below(3) {
                        _ if v.ends_with("_bl") => db.refresh(v).unwrap(),
                        0 => db.propagate(v).unwrap(),
                        1 => db.partial_refresh(v).unwrap(),
                        _ => db.refresh(v).unwrap(),
                    }
                }
            }
            _ => {
                for round in 0..150 {
                    for v in views {
                        let counted = v.starts_with('g');
                        let key = db.view(v).unwrap().mv_schema().columns()[0].name.clone();
                        let all = Predicate::ge(col(&key), lit(0i64));
                        let fresh = if (round + i) % 2 == 0 {
                            db.read_through(v).unwrap()
                        } else {
                            db.read_through_where(v, &all).unwrap()
                        };
                        assert_eq!(totals(&fresh, counted), want, "{v}, round {round}");
                    }
                }
            }
        },
        || {},
    );

    let failures = db.check_all_invariants().unwrap();
    assert!(failures.is_empty(), "post-stress invariants: {failures:?}");
    for v in views {
        assert_eq!(
            db.read_through(v).unwrap(),
            db.recompute_view(v).unwrap(),
            "{v}"
        );
    }
}
