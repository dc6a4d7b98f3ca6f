//! Join-key indexes ≡ scans.
//!
//! A base table keeps an index on every join key its views' change queries
//! can push a key set to, and a key set reaching a scan of such a table
//! looks its keys up instead. These tests hold the index to the scan it
//! replaces: probed results are bag-equal to `Scan` + key filter over
//! seeded tables (NULL keys, `Int` and `Double` keys that must join,
//! multiplicities above one, Zipf-hot keys) across typed and raw writes;
//! `drop_view` releases what no other view needs; a reopened database
//! registers and probes what its never-crashed twin does; and a writer and
//! a prober running at once never see a bag and its index at different
//! states.

use dvm_algebra::eval::{eval_reference, ParamSource};
use dvm_algebra::plan::PhysPredicate;
use dvm_algebra::testgen::Rng;
use dvm_algebra::{col, eval, Expr, Plan, Predicate};
use dvm_core::{Database, Scenario};
use dvm_delta::Transaction;
use dvm_storage::{tuple, Bag, Catalog, Schema, Table, TableKind, Tuple, Value, ValueType};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn schema_kv() -> Schema {
    Schema::from_pairs(&[("k", ValueType::Int), ("v", ValueType::Int)])
}

/// A Zipf-skewed key in `0..n` (rank `r` drawn with weight ≈ `1/r`), as
/// `Int` or, one time in four, as the `Double` it must join with. One key
/// in twelve is NULL.
fn key(rng: &mut Rng, n: u64) -> Value {
    if rng.chance(1, 12) {
        return Value::Null;
    }
    let rank = n / (1 + rng.below(n)); // P(rank ≥ r) ≈ 1/r
    let k = (rank - 1) as i64;
    if rng.chance(1, 4) {
        Value::Double(k as f64)
    } else {
        Value::Int(k)
    }
}

fn row(rng: &mut Rng, n: u64) -> Tuple {
    Tuple::new(vec![key(rng, n), Value::Int(rng.below(5) as i64)])
}

fn random_bag(rng: &mut Rng, rows: usize, n: u64) -> Bag {
    let mut b = Bag::new();
    for _ in 0..rows {
        b.insert_n(row(rng, n), 1 + rng.below(3));
    }
    b
}

/// `probe ⋈_{k = k} base`, the probe side bound as a parameter.
fn join_plan() -> Plan {
    Plan::HashJoin {
        left: Box::new(Plan::Scan("probe".into())),
        right: Box::new(Plan::Scan("base".into())),
        left_keys: vec![0],
        right_keys: vec![0],
        residual: PhysPredicate::Const(true),
    }
}

/// Evaluate [`join_plan`] with `probe` bound; `true` in the second slot
/// when the run looked keys up in `base`'s index instead of scanning it.
fn run(catalog: &Catalog, probe: &Bag) -> (Bag, bool) {
    let plan = join_plan();
    let before = probes(&catalog.require("base").unwrap());
    let src = ParamSource::pin(catalog, &plan.tables(), [("probe", probe)]).unwrap();
    let out = eval(&plan, &src).unwrap();
    assert_eq!(
        out,
        eval_reference(&plan, &src).unwrap(),
        "executor ≡ oracle"
    );
    drop(src);
    let after = probes(&catalog.require("base").unwrap());
    (out, after > before)
}

fn probes(table: &Table) -> u64 {
    table.index_stats().iter().map(|s| s.probes).sum()
}

#[test]
fn probes_equal_key_filtered_scans_on_seeded_tables() {
    let mut looked_up = 0;
    for seed in 0..40u64 {
        let mut rng = Rng::new(0x1D3 + seed);
        let n = 4 + rng.below(40);
        let (indexed, scanned) = (Catalog::new(), Catalog::new());
        let mut tables = Vec::new();
        for c in [&indexed, &scanned] {
            let t = c
                .create_table("base", schema_kv(), TableKind::External)
                .unwrap();
            tables.push(t);
        }
        tables[0].register_index(&[0]);
        let rows = 30 + rng.below(200) as usize;
        let start = random_bag(&mut rng, rows, n);
        for t in &tables {
            // Raw: `Double` keys in an `Int` column skip validation.
            **t.write() = start.clone();
        }
        for round in 0..12 {
            let rows = 1 + rng.below(6) as usize;
            let probe = random_bag(&mut rng, rows, n);
            let (a, used) = run(&indexed, &probe);
            let (b, scan_used) = run(&scanned, &probe);
            assert_eq!(a, b, "seed {seed} round {round}: probe ≠ scan");
            assert!(!scan_used, "no index, no lookups");
            looked_up += used as usize;
            // Change the table: a typed delta keeps the index, a raw write
            // (one round in four) drops it until the next probe.
            let current = tables[0].snapshot_bag();
            let mut del = Bag::new();
            for (t, m) in current.iter() {
                if rng.chance(1, 4) {
                    del.insert_n(t.clone(), 1 + rng.below(m));
                }
            }
            let rows = rng.below(20) as usize;
            let ins = random_bag(&mut rng, rows, n);
            if rng.chance(1, 4) {
                for t in &tables {
                    t.write().apply_delta(&del, &ins);
                }
            } else {
                // Typed writes validate: `Double` keys stay out.
                let valid = |b: &Bag| b.select(|t| !matches!(t[0], Value::Double(_)));
                for t in &tables {
                    t.apply_delta(&valid(&del), &valid(&ins)).unwrap();
                }
            }
            assert_eq!(tables[0].snapshot_bag(), tables[1].snapshot_bag());
        }
    }
    assert!(looked_up > 200, "the index was used: {looked_up} lookups");
}

/// `Π[l.a, r.b](σ_{l.a = r.a}(t0 × t1))`.
fn join_on(column: &str) -> Expr {
    Expr::table("t0")
        .alias("l")
        .product(Expr::table("t1").alias("r"))
        .select(Predicate::eq(
            col(&format!("l.{column}")),
            col(&format!("r.{column}")),
        ))
        .project(["l.a", "r.b"])
}

fn two_table_db() -> Database {
    let db = Database::new();
    for t in ["t0", "t1"] {
        let schema = Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Int)]);
        let table = db.create_table(t, schema).unwrap();
        for i in 0..20i64 {
            table.insert(tuple![i % 7, i % 5]).unwrap();
        }
    }
    db
}

/// `(table, key columns)` of every index in the observability snapshot.
fn registered(db: &Database) -> BTreeSet<(String, Vec<String>)> {
    let obs = db.observability();
    let mut out = BTreeSet::new();
    for t in obs.tables {
        for ix in t.indexes {
            out.insert((t.name.clone(), ix.columns));
        }
    }
    out
}

fn ix(table: &str, column: &str) -> (String, Vec<String>) {
    (table.to_string(), vec![column.to_string()])
}

#[test]
fn drop_view_releases_an_index_no_other_view_needs() {
    let db = two_table_db();
    db.create_view("on_a", join_on("a"), Scenario::Combined)
        .unwrap();
    db.create_view("on_a_too", join_on("a"), Scenario::BaseLog)
        .unwrap();
    db.create_view("on_b", join_on("b"), Scenario::Immediate)
        .unwrap();
    let all: BTreeSet<_> = [ix("t0", "a"), ix("t1", "a"), ix("t0", "b"), ix("t1", "b")].into();
    assert_eq!(registered(&db), all);

    db.drop_view("on_a").unwrap();
    assert_eq!(registered(&db), all, "on_a_too still needs the `a` indexes");
    db.drop_view("on_b").unwrap();
    assert_eq!(registered(&db), [ix("t0", "a"), ix("t1", "a")].into());
    db.drop_view("on_a_too").unwrap();
    assert!(registered(&db).is_empty());
}

/// The first probe builds an index, not view creation; maintenance then
/// looks keys up and lands on recomputed truth.
#[test]
fn maintenance_probes_the_registered_index() {
    let db = two_table_db();
    db.create_view("vj", join_on("a"), Scenario::Combined)
        .unwrap();
    let entries = |db: &Database| -> u64 {
        db.observability()
            .tables
            .iter()
            .flat_map(|t| t.indexes.iter().map(|i| i.entries))
            .sum()
    };
    assert_eq!(entries(&db), 0, "create_view builds no index");
    db.execute(&Transaction::new().insert_tuple("t0", tuple![3, 9]))
        .unwrap();
    db.propagate("vj").unwrap();
    let t1 = db.catalog().require("t1").unwrap();
    assert!(probes(&t1) > 0, "▲t0 ⋈ t1 looked its key up in t1");
    assert!(entries(&db) > 0);
    db.partial_refresh("vj").unwrap();
    assert_eq!(
        db.query_view("vj").unwrap(),
        db.recompute_view("vj").unwrap()
    );
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dvm-key-index-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One profiled propagate of `vj`: every operator's label and row count.
fn propagate_shape(db: &Database) -> Vec<(String, u64)> {
    db.set_profiling(true);
    db.propagate("vj").unwrap();
    let report = db.profile_report();
    db.set_profiling(false);
    let op = report
        .ops
        .iter()
        .rev()
        .find(|o| o.op == "propagate")
        .unwrap();
    let mut shape: Vec<(String, u64)> = op
        .evals
        .iter()
        .flat_map(|t| t.nodes().into_iter().map(|n| (n.label.clone(), n.rows_out)))
        // A restored view compiles its program on first use.
        .filter(|(label, _)| label != "CompileDelta")
        .collect();
    shape.sort();
    shape
}

#[test]
fn reopened_database_probes_like_its_never_crashed_twin() {
    let dir = tmpdir("reopen");
    let txs: Vec<Transaction> = (0..8i64)
        .map(|i| {
            Transaction::new()
                .insert_tuple("t0", tuple![i % 7, 100 + i])
                .delete_tuple("t1", tuple![i % 7, i % 5])
                .insert_tuple("t1", tuple![(i * 3) % 7, 200 + i])
        })
        .collect();
    let load = |db: &Database| {
        for t in ["t0", "t1"] {
            let schema = Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Int)]);
            db.create_table(t, schema).unwrap();
            let mut tx = Transaction::new();
            for i in 0..20i64 {
                tx = tx.insert_tuple(t, tuple![i % 7, i % 5]);
            }
            db.execute(&tx).unwrap();
        }
        db.create_view("vj", join_on("a"), Scenario::Combined)
            .unwrap();
    };
    let twin = Database::new();
    let durable = Database::open(&dir).unwrap();
    for db in [&twin, &durable] {
        load(db);
        for tx in &txs[..4] {
            db.execute(tx).unwrap();
        }
        db.propagate("vj").unwrap();
    }
    durable.checkpoint().unwrap();
    for db in [&twin, &durable] {
        for tx in &txs[4..] {
            db.execute(tx).unwrap();
        }
    }
    drop(durable);
    let reopened = Database::open(&dir).unwrap();
    assert_eq!(registered(&reopened), registered(&twin));
    assert_eq!(registered(&twin), [ix("t0", "a"), ix("t1", "a")].into());

    let (a, b) = (propagate_shape(&twin), propagate_shape(&reopened));
    assert_eq!(a, b, "the same operators over the same rows");
    let by_index = |l: &str| l.starts_with("IndexProbe ") || l.starts_with("IndexJoin ");
    assert!(a.iter().any(|(l, _)| by_index(l)), "{a:?}");
    for db in [&twin, &reopened] {
        db.partial_refresh("vj").unwrap();
    }
    assert_eq!(
        twin.query_view("vj").unwrap(),
        reopened.query_view("vj").unwrap()
    );
    assert_eq!(
        twin.query_view("vj").unwrap(),
        twin.recompute_view("vj").unwrap()
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A writer moves rows between keys with typed deltas (and now and then a
/// raw write) while a prober pins the table and compares, under that one
/// pin, every key's index entry with the bag's rows for that key. The
/// prober keeps going until the writer has written more than 10 times, so
/// the two always overlap however the threads are scheduled.
#[test]
fn writer_and_prober_never_see_bag_and_index_apart() {
    let table = Arc::new(Table::new("base", schema_kv(), TableKind::External));
    table.register_index(&[0]);
    let mut start = Bag::new();
    for i in 0..300i64 {
        start.insert_n(tuple![(i * i) % 16, i % 5], 1 + (i % 3) as u64);
    }
    table.replace(start).unwrap();
    let stop = AtomicBool::new(false);
    let written = AtomicU64::new(0);
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut rng = Rng::new(0xA11);
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                let current = table.snapshot_bag();
                let mut del = Bag::new();
                for (t, m) in current.iter().take(4) {
                    del.insert_n(t.clone(), m.min(1 + rng.below(2)));
                }
                let mut ins = Bag::new();
                for _ in 0..4 {
                    let k = Value::Int(rng.below(16) as i64);
                    ins.insert(Tuple::new(vec![k, Value::Int(i as i64)]));
                }
                if i.is_multiple_of(7) {
                    table.write().apply_delta(&del, &ins);
                } else {
                    table.apply_delta(&del, &ins).unwrap();
                }
                written.store(i, Ordering::Relaxed);
            }
            i
        });
        let mut probes = 0;
        while probes < 300 || (written.load(Ordering::Relaxed) <= 10 && !writer.is_finished()) {
            probes += 1;
            let pinned = table.pin();
            let mut expected: std::collections::HashMap<i64, Bag> = Default::default();
            for (t, m) in pinned.bag().iter() {
                if let Value::Int(k) = t[0] {
                    expected.entry(k).or_default().insert_n(t.clone(), m);
                }
            }
            for k in 0..16i64 {
                let key = [Value::Double(k as f64)];
                let mut got = Bag::new();
                let registered =
                    pinned.lookup(&[0], &mut std::iter::once(&key[..]), &mut |_, t, m| {
                        got.insert_n(t.clone(), m)
                    });
                assert!(registered);
                let want = expected.remove(&k).unwrap_or_default();
                assert_eq!(got, want, "key {k}: index and bag at different states");
            }
            drop(pinned);
            std::thread::yield_now(); // let the writer in
        }
        stop.store(true, Ordering::Relaxed);
        let writes = writer.join().unwrap();
        assert!(writes > 10, "the writer ran beside the prober ({writes})");
    });
}
