//! The shared epoch log (Section 7): correctness under random streams and
//! the central property — per-transaction maintenance work independent of
//! the number of views.

mod common;

use dvm_algebra::testgen::{Rng, Universe};
use dvm_core::{Database, Minimality};
use dvm_delta::Transaction;
use dvm_storage::{tuple, Bag};

fn random_tx(u: &Universe, rng: &mut Rng, db: &Database) -> Transaction {
    let mut tx = Transaction::new();
    for t in &u.tables {
        if rng.chance(1, 2) {
            continue;
        }
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

#[test]
fn shared_views_preserve_invariants_under_random_streams() {
    let u = Universe::small(3);
    let mut rng = Rng::new(0x5A5A);
    let mut runs = 0;
    while runs < 15 {
        let def = u.expr(&mut rng, 2);
        let db = Database::new();
        for t in &u.tables {
            let table = db.create_table(t.clone(), u.schema.clone()).unwrap();
            table.replace(u.bag(&mut rng, 5)).unwrap();
        }
        if db
            .create_view_shared("s1", def.clone(), Minimality::Weak)
            .is_err()
        {
            continue;
        }
        db.create_view_shared("s2", def.clone(), Minimality::Strong)
            .unwrap();
        // a private-log twin over the same definition, as a correctness
        // reference, and a BaseLog one refreshed only at the end
        db.create_view("p", def.clone(), dvm_core::Scenario::Combined)
            .unwrap();
        db.create_view("b", def.clone(), dvm_core::Scenario::BaseLog)
            .unwrap();
        runs += 1;

        for step in 0..10 {
            let tx = random_tx(&u, &mut rng, &db);
            db.execute(&tx).unwrap();
            let failures = db.check_all_invariants().unwrap();
            assert!(failures.is_empty(), "step {step} of {def}: {failures:?}");
            // stagger the cursors: drain/refresh views at different times
            match rng.below(5) {
                0 => db.propagate("s1").unwrap(),
                1 => db.refresh("s2").unwrap(),
                2 => db.propagate("p").unwrap(),
                3 => db.partial_refresh("s1").unwrap(),
                _ => {}
            }
            let failures = db.check_all_invariants().unwrap();
            assert!(failures.is_empty(), "step {step} after maintenance");
            // read-through stays exact for shared views at any point
            assert_eq!(
                db.read_through("s1").unwrap(),
                db.recompute_view("s1").unwrap(),
                "read-through on shared view"
            );
            for v in ["s1", "s2", "p", "b"] {
                common::read_through_exact(&db, v, &format!("{v} of {def}, step {step}"));
            }
        }
        for v in ["s1", "s2", "p", "b"] {
            db.refresh(v).unwrap();
            assert_eq!(
                db.query_view(v).unwrap(),
                db.recompute_view(v).unwrap(),
                "{v} on {def}"
            );
        }
        db.vacuum_shared_log();
        assert_eq!(db.shared_log_stats().0, 0, "fully drained log vacuums away");
    }
}

#[test]
fn append_cost_independent_of_view_count() {
    // The observable contract: one transaction produces exactly one shared
    // append no matter how many shared views exist — but every relevant
    // shared view counts as maintained (it was!), and each one's metrics
    // carry an amortized slice of the append cost.
    let u = Universe::small(2);
    let mut rng = Rng::new(7);
    let def = || {
        dvm_algebra::Expr::table("t0").select(dvm_algebra::Predicate::gt(
            dvm_algebra::col("a"),
            dvm_algebra::lit(0i64),
        ))
    };
    let db = Database::new();
    for t in &u.tables {
        let table = db.create_table(t.clone(), u.schema.clone()).unwrap();
        table.replace(u.bag(&mut rng, 5)).unwrap();
    }
    for i in 0..8 {
        db.create_view_shared(format!("s{i}"), def(), Minimality::Weak)
            .unwrap();
    }
    let before = db.shared_log_stats();
    let report = db
        .execute(&Transaction::new().insert_tuple("t0", tuple![1, 1]))
        .unwrap();
    let after = db.shared_log_stats();
    assert_eq!(after.0 - before.0, 1, "ONE entry for 8 shared views");
    assert_eq!(
        report.views_maintained, 8,
        "every relevant shared view counts as maintained"
    );
    for i in 0..8 {
        let m = db.view_metrics(&format!("s{i}")).unwrap();
        assert_eq!(
            m.makesafe_count, 1,
            "s{i} is charged its amortized share of the single append"
        );
        assert!(m.makesafe_nanos > 0, "s{i} share is non-zero");
    }
    // every view still refreshes correctly from that single entry
    for i in 0..8 {
        let name = format!("s{i}");
        db.refresh(&name).unwrap();
        assert_eq!(
            db.query_view(&name).unwrap(),
            db.recompute_view(&name).unwrap()
        );
    }
}

#[test]
fn vacuum_respects_slowest_cursor() {
    let u = Universe::small(1);
    let mut rng = Rng::new(3);
    let db = Database::new();
    let table = db.create_table("t0", u.schema.clone()).unwrap();
    table.replace(u.bag(&mut rng, 4)).unwrap();
    let def = dvm_algebra::Expr::table("t0");
    db.create_view_shared("fast", def.clone(), Minimality::Weak)
        .unwrap();
    db.create_view_shared("slow", def, Minimality::Weak)
        .unwrap();

    db.execute(&Transaction::new().insert_tuple("t0", tuple![1, 2]))
        .unwrap();
    db.execute(&Transaction::new().insert_tuple("t0", tuple![3, 4]))
        .unwrap();
    // only `fast` drains
    db.propagate("fast").unwrap();
    let reclaimed = db.vacuum_shared_log();
    assert_eq!(reclaimed, 0, "`slow` still needs both entries");
    assert_eq!(db.shared_log_stats().0, 2);

    db.propagate("slow").unwrap();
    let reclaimed = db.vacuum_shared_log();
    assert_eq!(reclaimed, 2);
    // both views still land on the truth
    for v in ["fast", "slow"] {
        db.refresh(v).unwrap();
        assert_eq!(db.query_view(v).unwrap(), db.recompute_view(v).unwrap());
    }
}

#[test]
fn staggered_cursors_remain_individually_correct() {
    let u = Universe::small(1);
    let mut rng = Rng::new(13);
    let db = Database::new();
    let table = db.create_table("t0", u.schema.clone()).unwrap();
    table.replace(u.bag(&mut rng, 4)).unwrap();
    let def = dvm_algebra::Expr::table("t0");
    db.create_view_shared("a", def.clone(), Minimality::Weak)
        .unwrap();
    db.create_view_shared("b", def, Minimality::Weak).unwrap();

    db.execute(&Transaction::new().insert_tuple("t0", tuple![1, 1]))
        .unwrap();
    db.refresh("a").unwrap(); // a is fresh through epoch 1
    db.execute(&Transaction::new().insert_tuple("t0", tuple![2, 2]))
        .unwrap();
    db.refresh("b").unwrap(); // b is fresh through epoch 2

    assert!(db.query_view("a").unwrap().contains(&tuple![1, 1]));
    assert!(!db.query_view("a").unwrap().contains(&tuple![2, 2]));
    assert!(db.query_view("b").unwrap().contains(&tuple![2, 2]));
    assert!(db.check_invariant("a").unwrap().ok());
    assert!(db.check_invariant("b").unwrap().ok());
    // `a`'s read-through composes the un-drained suffix in.
    common::read_through_exact(&db, "a", "a behind the shared log");
    assert!(db.read_through("a").unwrap().contains(&tuple![2, 2]));

    db.refresh("a").unwrap();
    assert_eq!(db.query_view("a").unwrap(), db.query_view("b").unwrap());
}

#[test]
fn shared_flag_and_drop() {
    let db = Database::new();
    let u = Universe::small(1);
    db.create_table("t0", u.schema.clone()).unwrap();
    db.create_view_shared("s", dvm_algebra::Expr::table("t0"), Minimality::Weak)
        .unwrap();
    db.create_view(
        "p",
        dvm_algebra::Expr::table("t0"),
        dvm_core::Scenario::Combined,
    )
    .unwrap();
    assert!(db.is_shared_log_view("s"));
    assert!(!db.is_shared_log_view("p"));
    db.drop_view("s").unwrap();
    assert!(!db.is_shared_log_view("s"));
}
