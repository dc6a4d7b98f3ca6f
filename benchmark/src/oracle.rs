//! What happens after a run: the restart phase and the oracle gate.

use crate::gen;
use crate::stats;
use crate::workloads::{fleet_driver, ms, us, Built, How, Kind, Run, INGEST, OPEN_REPEATS};
use dvm::{Bag, Database, Transaction, WalOptions};
use std::path::Path;
use std::time::Instant;

/// Transactions committed after the checkpoint, so every restart replays
/// a WAL suffix of the same length: `readers_fleet`'s carry a tick each
/// (a propagate every 10th), the stream workloads' are single rows in
/// group commits of `max_batch`, with a refresh of every view after each
/// `STREAM_REFRESH_EVERY`-th — 256 rows, about what `stream_sla` commits
/// between two refreshes.
const FLEET_SUFFIX_TXS: usize = 128;
const STREAM_SUFFIX_TXS: usize = 4096;
const STREAM_REFRESH_EVERY: usize = 4;

/// Every table of the database — base tables, MVs, logs, differential
/// tables — by name.
fn state(db: &Database) -> Vec<(String, Bag)> {
    db.catalog()
        .table_names()
        .into_iter()
        .map(|name| {
            let bag = db.catalog().bag_of(&name).expect("listed table");
            (name, bag)
        })
        .collect()
}

/// Restart the database from disk several times and check the
/// restarted state against the one that went down.
///
/// With a WAL: refresh every view, checkpoint, commit a fixed-length
/// suffix, drop the database, `Database::open` the directory. In memory: export a
/// checkpoint with `save_to_dir` into `export_dir` and open that.
/// Leaves the restarted database in `built`, for the oracle to judge.
pub fn restart(kind: Kind, built: &mut Built, export_dir: &Path, smoke: bool, run: &mut Run) {
    let Built {
        db,
        gen,
        views,
        wal,
        ..
    } = built;
    let (dir, options) = match wal {
        Some((dir, options)) => {
            // The run ended somewhere between two refreshes; with the
            // logs emptied first, every restart replays the same work.
            let refreshed = db.refresh_all();
            run.check("refresh_all", refreshed);
            let cut = db.checkpoint();
            run.check("checkpoint", cut);
            match kind {
                Kind::ReadersFleet => {
                    let mut driver = fleet_driver(db, views);
                    for _ in 0..FLEET_SUFFIX_TXS {
                        let r = db.execute(&gen::fleet_tx(gen));
                        run.check("execute", r);
                        let r = driver.tick();
                        run.check("tick", r);
                    }
                }
                _ => {
                    let txs: Vec<Transaction> = (0..STREAM_SUFFIX_TXS as u64)
                        .map(|i| gen::stream_tx(gen, i))
                        .collect();
                    // The one place the benchmark itself commits on these
                    // workloads (the ingest worker does, in the run): a
                    // group commit's wall, per transaction in it.
                    for (i, chunk) in txs.chunks(INGEST.max_batch).enumerate() {
                        let call = Instant::now();
                        let r = db.execute_batch(chunk);
                        let per_tx = us(call.elapsed()) / chunk.len() as f64;
                        if run.check("execute_batch", r).is_some() {
                            run.commit_us.push(per_tx);
                        }
                        if (i + 1) % STREAM_REFRESH_EVERY == 0 {
                            let r = db.refresh_all();
                            run.check("refresh_all", r);
                        }
                    }
                }
            }
            let synced = db.sync_wal();
            run.check("sync_wal", synced);
            (dir.clone(), *options)
        }
        None => {
            let _ = std::fs::remove_dir_all(export_dir);
            let saved = db.save_to_dir(export_dir);
            run.check("save_to_dir", saved);
            (export_dir.to_path_buf(), WalOptions::default())
        }
    };
    let before = state(db);
    // The old database must be gone before its directory is opened again.
    drop(std::mem::take(db));

    let mut opens = Vec::new();
    let mut restarted = None;
    for _ in 0..if smoke { 1 } else { OPEN_REPEATS } {
        drop(restarted.take());
        let call = Instant::now();
        let opened = Database::open_with_options(&dir, options);
        opens.push(ms(call.elapsed()));
        restarted = run.check("open", opened);
    }
    run.opens = opens.len();
    run.recovery_ms = stats::median(&mut opens);
    *db = restarted.expect("the database restarts from its own directory");
    if let Some(report) = db.recovery_report() {
        if report.txns_replayed > 0 {
            run.replay_us_per_tx = report.recovery_nanos as f64 / 1e3 / report.txns_replayed as f64;
        }
    }
    run.attempted += 1;
    if state(db) != before {
        run.problem("restarted database differs from the one that went down".into());
    }
}

/// The oracle gate: refresh every view, then every Figure-1 invariant
/// must hold and every materialization must equal its recomputation.
pub fn oracle(db: &Database, views: &[(String, How)], run: &mut Run) {
    let refreshed = db.refresh_all();
    run.check("refresh_all", refreshed);
    run.attempted += 1;
    match db.check_all_invariants() {
        Ok(broken) if broken.is_empty() => {}
        Ok(broken) => run.problem(format!("{} views break their invariant", broken.len())),
        Err(e) => run.problem(format!("invariant check failed: {e:?}")),
    }
    for (name, _) in views {
        run.attempted += 1;
        match (db.query_view(name), db.recompute_view(name)) {
            (Ok(mv), Ok(truth)) if mv == truth => {}
            _ => run.problem(format!("view {name} differs from its recomputation")),
        }
    }
}
