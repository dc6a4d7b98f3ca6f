//! Concurrency benchmarks: per-view propagate / refresh loops over six
//! views with a backlog, and multi-stream `execute` throughput through the
//! commit protocol.
//!
//! Same harness conventions as `micro.rs`: under `cargo bench` it samples,
//! prints a table, and writes `results/BENCH_concurrent.json`; under
//! `cargo test` (cargo passes `--test`) it smoke-runs every body once.

use dvm_bench::report::{summary_table, write_json_with_host};
use dvm_bench::retail_db;
use dvm_core::{Database, Minimality, Scenario};
use dvm_delta::Transaction;
use dvm_testkit::bench::{Bench, Summary};
use dvm_workload::runner::run_stream_concurrent;
use dvm_workload::view_expr;

const VIEWS: usize = 6;
const BACKLOG_TXS: usize = 40;

/// A retail database with `VIEWS` Combined views over the same base tables
/// and a deferred backlog on every log, ready to propagate or refresh.
fn multi_view_backlog(seed: u64) -> Database {
    let (db, mut gen) = retail_db(500, 2_000, Scenario::Combined, Minimality::Weak, seed);
    for i in 1..VIEWS {
        db.create_view(format!("V{i}"), view_expr(), Scenario::Combined)
            .unwrap();
    }
    for _ in 0..BACKLOG_TXS {
        db.execute(&gen.sales_batch(10)).unwrap();
    }
    db
}

fn combined_view_names() -> Vec<String> {
    let mut names = vec!["V".to_string()];
    names.extend((1..VIEWS).map(|i| format!("V{i}")));
    names
}

fn bench_propagate_all(b: &Bench, out: &mut Vec<Summary>) {
    let b = b.clone().samples(10);
    out.push(b.run_batched(
        format!("propagate_all/serial_loop/{VIEWS}views"),
        || multi_view_backlog(21),
        |db| {
            for name in combined_view_names() {
                db.propagate(&name).unwrap();
            }
        },
    ));
}

fn bench_refresh_all(b: &Bench, out: &mut Vec<Summary>) {
    let b = b.clone().samples(10);
    out.push(b.run_batched(
        format!("refresh_all/serial_loop/{VIEWS}views"),
        || multi_view_backlog(22),
        |db| {
            for name in combined_view_names() {
                db.refresh(&name).unwrap();
            }
        },
    ));
}

/// The same 40-transaction workload pushed through `execute` as one stream
/// vs. split across four concurrent streams. All streams write the same
/// base tables, so this measures the commit protocol's serialization cost
/// under contention — the worst case for the claims.
fn bench_concurrent_execute(b: &Bench, out: &mut Vec<Summary>) {
    let b = b.clone().samples(10);
    let make = |streams: usize, seed: u64| {
        let (db, mut gen) = retail_db(500, 2_000, Scenario::Combined, Minimality::Weak, seed);
        let per = BACKLOG_TXS / streams;
        let txs: Vec<Vec<Transaction>> = (0..streams)
            .map(|_| (0..per).map(|_| gen.sales_batch(10)).collect())
            .collect();
        (db, txs)
    };
    for streams in [1usize, 4] {
        out.push(b.run_batched(
            format!("execute_streams/{streams}stream/{BACKLOG_TXS}tx"),
            move || make(streams, 23),
            |(db, txs)| {
                let stats = run_stream_concurrent(&db, txs).unwrap();
                assert_eq!(stats.transactions, BACKLOG_TXS as u64);
            },
        ));
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let bench = if quick {
        Bench::quick()
    } else {
        Bench::from_env()
    };
    let mut out = Vec::new();
    bench_propagate_all(&bench, &mut out);
    bench_refresh_all(&bench, &mut out);
    bench_concurrent_execute(&bench, &mut out);
    if quick {
        println!("concurrent: {} benchmarks smoke-ran", out.len());
        return;
    }
    summary_table(&out).print();
    // Anchor on the manifest so `cargo bench` (cwd = crates/bench) and a
    // direct binary run (cwd = repo root) both land in the committed
    // workspace-root results/ directory.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let dir = dir.as_path();
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join("BENCH_concurrent.json");
        // Stamp the recording host's parallelism: the execute baseline
        // obs_guard re-measures depends on it.
        let parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        match write_json_with_host(&path, &out, parallelism) {
            Ok(()) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
        }
    }
}
