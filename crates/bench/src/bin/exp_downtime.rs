//! **E3 — refresh downtime ordering** (paper Sections 1.1, 3.3–3.5, 5.3).
//!
//! Claim: downtime (time the refresh transaction holds the view's write
//! lock) is ordered
//!
//! ```text
//! partial_refresh_C  <  refresh_C (Policy 1)  <  refresh_BL  ≪  recompute
//! ```
//!
//! because `refresh_BL` evaluates the post-update incremental queries
//! *inside* the lock, Policy 1's refresh only folds the last propagation
//! interval, and `partial_refresh_C` merely applies precomputed
//! differential tables.
//!
//! Two phases:
//!
//! 1. **ordering** — accumulate N deferred transactions, then measure the
//!    write-lock hold of one refresh, with 2 concurrent readers hammering
//!    the view (their total blocked time is also reported);
//! 2. **distributions** — run many refresh cycles per configuration and
//!    report p50/p95/p99 of downtime, reader wait (attributed to the
//!    waiting view's MV lock), and the maintenance operations, from the
//!    engine's observability registry. The same registry snapshot is
//!    written to `results/exp_downtime.json`.

use dvm_bench::report::{fmt_duration, fmt_nanos, TableReport};
use dvm_bench::{retail_db, retail_db_durable};
use dvm_core::{Database, Minimality, Scenario};
use dvm_durability::{DurabilityPolicy, WalOptions};
use dvm_obs::json;
use dvm_workload::with_concurrent_readers;
use std::time::Duration;

/// `EXP_DOWNTIME_QUICK=1` shrinks every phase to smoke-test size (the CI
/// crash-recovery gate runs the binary this way).
fn quick() -> bool {
    std::env::var("EXP_DOWNTIME_QUICK").is_ok_and(|v| v == "1")
}

fn sizes() -> (usize, usize) {
    if quick() {
        (300, 1_200)
    } else {
        (5_000, 25_000)
    }
}

/// Run `n_tx` deferred transactions, then measure one refresh op.
fn measure(
    scenario: Scenario,
    n_tx: usize,
    // propagate every `k` transactions (None = never)
    propagate_every: Option<usize>,
    // the refresh op to time at the end
    refresh: impl Fn(&Database) -> dvm_core::Result<()>,
) -> (Duration, Duration) {
    let (customers, initial_sales) = sizes();
    let (db, mut gen) = retail_db(customers, initial_sales, scenario, Minimality::Weak, 9);
    for i in 0..n_tx {
        db.execute(&gen.mixed_batch(10, 2)).unwrap();
        if let Some(k) = propagate_every {
            if (i + 1) % k == 0 {
                db.propagate("V").unwrap();
            }
        }
    }
    let before = db.mv_table("V").unwrap().lock_metrics().snapshot();
    let (_, readers) = with_concurrent_readers(&db, "V", 2, || refresh(&db)).unwrap();
    let after = db.mv_table("V").unwrap().lock_metrics().snapshot();
    // sanity: refresh landed on the truth
    assert_eq!(
        db.query_view("V").unwrap(),
        db.recompute_view("V").unwrap(),
        "{scenario:?} refresh incorrect"
    );
    let downtime = Duration::from_nanos(after.write_hold_nanos - before.write_hold_nanos);
    let blocked = Duration::from_nanos(readers.lock_delta.read_block_nanos);
    (downtime, blocked)
}

/// Full recompute baseline: MV := Q from scratch, evaluated under the
/// write lock (what a system without incremental maintenance does). The
/// log is then discarded — its contents are subsumed by the recompute.
fn recompute_refresh(db: &Database) -> dvm_core::Result<()> {
    let mv = db.mv_table("V")?;
    let mut guard = mv.write();
    let fresh = db.recompute_view("V")?;
    **guard = fresh;
    drop(guard);
    let view = db.view("V")?;
    if let Some(log) = view.log() {
        for base in log.bases() {
            let (d, i) = log.get(base).expect("listed base");
            db.catalog().require(d)?.clear();
            db.catalog().require(i)?.clear();
        }
    }
    Ok(())
}

fn phase1_ordering() {
    let mut table = TableReport::new([
        "N deferred tx",
        "recompute (BL)",
        "refresh_BL",
        "refresh_C (P1, k=N/10)",
        "partial_refresh_C (P2)",
        "readers blocked (BL)",
    ]);

    let tx_counts: &[usize] = if quick() { &[50] } else { &[100, 500, 2_000] };
    for &n_tx in tx_counts {
        let (recompute_dt, _) = measure(Scenario::BaseLog, n_tx, None, recompute_refresh);
        let (bl, bl_blocked) = measure(Scenario::BaseLog, n_tx, None, |db| db.refresh("V"));
        // Policy 1: propagation has happened periodically; final refresh_C
        // only folds the tail of the log, then applies.
        let k = (n_tx / 10).max(1);
        let (p1, _) = measure(Scenario::Combined, n_tx, Some(k), |db| db.refresh("V"));
        // Policy 2: fully propagated, partial refresh just applies the DTs.
        let (p2, _) = measure(Scenario::Combined, n_tx, Some(k), |db| {
            db.propagate("V")?;
            db.partial_refresh("V")
        });
        table.row([
            n_tx.to_string(),
            fmt_duration(recompute_dt),
            fmt_duration(bl),
            fmt_duration(p1),
            fmt_duration(p2),
            fmt_duration(bl_blocked),
        ]);
    }
    table.print();
}

/// One phase-2 configuration: many refresh cycles under a fixed policy.
struct CycleConfig {
    name: &'static str,
    scenario: Scenario,
    /// Propagate before each refresh (Policies 1/2).
    propagate_first: bool,
    /// Use `partial_refresh_C` instead of `refresh_*` (Policy 2).
    partial: bool,
}

fn cycles() -> (usize, usize) {
    if quick() {
        (5, 4)
    } else {
        (25, 10)
    }
}

/// Run the configured refresh cycles and return the registry's JSON for
/// the run, after printing the percentile rows.
fn phase2_distributions(cfg: &CycleConfig, table: &mut TableReport) -> String {
    let (n_cycles, txs_per_cycle) = cycles();
    let (db, mut gen) = if quick() {
        retail_db(300, 1_200, cfg.scenario, Minimality::Weak, 31)
    } else {
        retail_db(1_000, 5_000, cfg.scenario, Minimality::Weak, 31)
    };
    for _ in 0..n_cycles {
        for _ in 0..txs_per_cycle {
            db.execute(&gen.mixed_batch(10, 2)).unwrap();
        }
        // 2 concurrent readers per cycle: their lock waits land in the MV
        // lock's read-wait histogram, attributed to this view.
        let ((), _stats) = with_concurrent_readers(&db, "V", 2, || {
            if cfg.propagate_first {
                db.propagate("V")?;
            }
            if cfg.partial {
                db.partial_refresh("V")
            } else {
                db.refresh("V")
            }
        })
        .unwrap();
    }
    let obs = db.observability();
    let v = obs
        .views
        .iter()
        .find(|v| v.name == "V")
        .expect("view V observed");
    for (op, h) in [
        ("refresh", &v.latency.refresh),
        ("propagate", &v.latency.propagate),
        ("makesafe", &v.latency.makesafe),
        ("downtime (write-hold)", &v.mv_write_hold),
        ("reader wait (V)", &v.mv_read_wait),
    ] {
        if h.is_empty() {
            continue;
        }
        table.row([
            cfg.name.to_string(),
            op.to_string(),
            h.count.to_string(),
            fmt_nanos(h.p50() as f64),
            fmt_nanos(h.p95() as f64),
            fmt_nanos(h.p99() as f64),
            fmt_nanos(h.max as f64),
        ]);
    }
    json::object([
        ("name", json::string(cfg.name)),
        ("cycles", json::num_u(n_cycles as u64)),
        ("txs_per_cycle", json::num_u(txs_per_cycle as u64)),
        ("observability", obs.to_json()),
    ])
}

/// When `DVM_DURABLE_DIR` is set, re-run the downtime measurement against
/// a database that went through a full durability cycle: built durably,
/// loaded with deferred transactions, closed, and reopened from
/// checkpoint + WAL. The recovered engine must produce the same correct
/// refresh with comparable downtime — recovery restores the deferred
/// state, it does not collapse it.
fn durable_reopen_phase(dir: &str) {
    let n_tx = if quick() { 50 } else { 500 };
    let (customers, initial_sales) = sizes();
    let path = std::path::Path::new(dir).join("exp_downtime");
    {
        let (db, mut gen) = retail_db_durable(
            &path,
            WalOptions {
                policy: DurabilityPolicy::EveryN(64),
                segment_bytes: 1 << 20,
            },
            customers,
            initial_sales,
            Scenario::Combined,
            Minimality::Weak,
            9,
        );
        let k = (n_tx / 10).max(1);
        for i in 0..n_tx {
            db.execute(&gen.mixed_batch(10, 2)).unwrap();
            if (i + 1) % k == 0 {
                db.propagate("V").unwrap();
            }
        }
    } // dropped: clean close, nothing refreshed

    let db = Database::open(&path).unwrap();
    let r = db.recovery_report().expect("durable open");
    let before = db.mv_table("V").unwrap().lock_metrics().snapshot();
    let (_, readers) = with_concurrent_readers(&db, "V", 2, || {
        db.propagate("V")?;
        db.partial_refresh("V")
    })
    .unwrap();
    let after = db.mv_table("V").unwrap().lock_metrics().snapshot();
    assert_eq!(
        db.query_view("V").unwrap(),
        db.recompute_view("V").unwrap(),
        "recovered database refreshes incorrectly"
    );
    assert!(db.check_all_invariants().unwrap().is_empty());
    println!(
        "\n=== recovered database (reopened from {}) ===\n\
         replayed {} wal record(s) ({} bytes) past checkpoint lsn {} in {}\n\
         partial_refresh_C downtime {}, readers blocked {}\n\
         refresh lands on the truth; all invariants hold",
        path.display(),
        r.wal_records_replayed,
        r.wal_bytes_replayed,
        r.checkpoint_lsn,
        fmt_nanos(r.recovery_nanos as f64),
        fmt_duration(Duration::from_nanos(
            after.write_hold_nanos - before.write_hold_nanos
        )),
        fmt_duration(Duration::from_nanos(readers.lock_delta.read_block_nanos)),
    );
    let _ = std::fs::remove_dir_all(&path);
}

fn main() {
    println!("=== E3: view downtime (write-lock hold during one refresh) ===\n");
    let (customers, initial_sales) = sizes();
    println!(
        "retail view over {customers} customers / {initial_sales}+ sales; N deferred tx of\n\
         (10 inserts + 2 deletes); 2 concurrent readers\n"
    );
    phase1_ordering();

    println!(
        "\npaper claim reproduced when each column is cheaper than the one to its\n\
         left: precomputing into differential tables moves work out of the lock;\n\
         Policy 2's downtime is just 'apply two bags', independent of how the\n\
         incremental changes were computed."
    );

    let (n_cycles, txs_per_cycle) = cycles();
    println!(
        "\n=== downtime & maintenance distributions ({n_cycles} refresh cycles, \
         {txs_per_cycle} tx/cycle, 2 readers) ===\n"
    );
    let configs = [
        CycleConfig {
            name: "refresh_BL",
            scenario: Scenario::BaseLog,
            propagate_first: false,
            partial: false,
        },
        CycleConfig {
            name: "refresh_C (P1)",
            scenario: Scenario::Combined,
            propagate_first: true,
            partial: false,
        },
        CycleConfig {
            name: "partial_refresh_C (P2)",
            scenario: Scenario::Combined,
            propagate_first: true,
            partial: true,
        },
    ];
    let mut table = TableReport::new(["configuration", "op", "count", "p50", "p95", "p99", "max"]);
    let mut docs = Vec::new();
    for cfg in &configs {
        docs.push(phase2_distributions(cfg, &mut table));
    }
    table.print();

    if quick() {
        println!("\n(quick mode: results/exp_downtime.json left untouched)");
    } else {
        let doc = json::object([
            ("experiment", json::string("exp_downtime")),
            ("configs", json::array(docs)),
        ]);
        std::fs::create_dir_all("results").expect("create results/");
        std::fs::write("results/exp_downtime.json", format!("{doc}\n")).expect("write results");
        println!("\nwrote results/exp_downtime.json");
    }

    if let Ok(dir) = std::env::var("DVM_DURABLE_DIR") {
        durable_reopen_phase(&dir);
    }
}
