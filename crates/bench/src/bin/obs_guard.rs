//! **Observability overhead guard.**
//!
//! The tracer and histograms claim a compile-out-cheap disabled path: one
//! relaxed atomic load per potential span, plus a handful of histogram
//! increments that already existed as mean accumulators. This binary
//! enforces the claim: it re-runs the `execute_streams/1stream/40tx`
//! workload from `benches/concurrent.rs` on the instrumented engine
//! (tracer disabled, the default) and asserts the median is within
//! tolerance of the recorded baseline in `results/BENCH_concurrent.json`.
//!
//! Tolerance defaults to 5% and can be widened for noisy machines with
//! `OBS_GUARD_TOLERANCE=0.15` (a fraction, not a percentage). A measured
//! median *faster* than the baseline always passes. Exit code is non-zero
//! on regression so `scripts/ci.sh` can gate on it.
//!
//! It also gates the **streaming executor's recorded speedups**: the
//! medians in `results/BENCH_eval.json` (written by `exp_eval`) must show
//! the fused executor ≥2× over the pre-streaming evaluator on the
//! selective filter-project change query, and the streaming propagate
//! phase ≥1.3× over the materializing reference. These check the committed
//! artifact's internal ratios — same machine, same run — so they are
//! noise-robust and fail only when the executor actually regresses.
//!
//! For **group-committed ingestion**: `results/BENCH_ingest.json`
//! (written by `exp_ingest`) must show the CDC pipeline — four producer
//! streams group-committed with one WAL sync per batch — ≥3× over
//! pushing the identical events through per-op `execute` (one fsync
//! each) under `DurabilityPolicy::Always`.
//!
//! And for **parallel propagate**: `results/BENCH_concurrent.json` must
//! show `propagate_large/parallel_4w` beating `propagate_large/serial_loop`
//! by ≥1.2× on a large sharded view — *when the recording host could
//! actually run 4 workers*. The artifact records `host.parallelism`; on a
//! single-core recorder a speedup is physically impossible, so the gate
//! downgrades to a no-regression floor (parallel ≥ 0.85× of serial,
//! i.e. the pool + per-shard fold must not cost more than it saves even
//! with zero extra cores).

use dvm_bench::retail_db;
use dvm_core::{Database, Minimality, Scenario};
use dvm_delta::Transaction;
use dvm_obs::json;
use dvm_testkit::bench::Bench;
use dvm_workload::runner::run_stream_concurrent;

const NAME: &str = "execute_streams/1stream/40tx";
const BACKLOG_TXS: usize = 40;
const DEFAULT_TOLERANCE: f64 = 0.05;

/// `(numerator, denominator, floor, label)`: `median(num)/median(den)`
/// must be at least `floor`.
const EVAL_GATES: &[(&str, &str, f64, &str)] = &[
    (
        "eval/filter_project/prepr_sip",
        "eval/filter_project/fused",
        2.0,
        "fused filter-project vs pre-streaming evaluator",
    ),
    (
        "propagate/reference",
        "propagate/fused",
        1.3,
        "streaming propagate phase vs materializing reference",
    ),
];

/// Same shape for `results/BENCH_ingest.json` (written by `exp_ingest`):
/// the group-committed pipeline must amortize the `Always`-policy fsync
/// over each batch, where the per-op path pays one fsync per event.
const INGEST_GATES: &[(&str, &str, f64, &str)] = &[(
    "ingest/per_op_execute_always",
    "ingest/group_commit_always",
    3.0,
    "group-committed ingest vs per-op execute under Always fsync",
)];

/// Same shape for `results/BENCH_compile.json` (written by `exp_compile`):
/// in the small-delta steady state the per-call symbolic front half
/// (differentiation + simplification + plan construction) must cost at
/// least half again what the compiled program's bind-and-evaluate does.
const COMPILE_GATES: &[(&str, &str, f64, &str)] = &[(
    "compile/small_delta/per_call",
    "compile/small_delta/compiled",
    1.5,
    "compiled delta program vs per-call derivation on small deltas",
)];

const LARGE_SERIAL: &str = "propagate_large/serial_loop";
const LARGE_PARALLEL: &str = "propagate_large/parallel_4w";

/// Gate the recorded parallel-propagate speedup in
/// `results/BENCH_concurrent.json`, scaled to what the recording host
/// could deliver (see module docs). Missing series fail: a renamed
/// benchmark must not silently disarm the gate.
fn check_parallel_propagate_gate() -> bool {
    let path = "results/BENCH_concurrent.json";
    let Ok(text) = std::fs::read_to_string(path) else {
        println!("obs_guard: no {path} — skipping the parallel-propagate gate");
        return true;
    };
    let Ok(doc) = json::parse(&text) else {
        eprintln!("obs_guard: FAIL — {path} is not valid JSON");
        return false;
    };
    let (Some(serial), Some(parallel)) = (
        eval_median(&doc, LARGE_SERIAL),
        eval_median(&doc, LARGE_PARALLEL),
    ) else {
        eprintln!(
            "obs_guard: FAIL — `{LARGE_SERIAL}` / `{LARGE_PARALLEL}` missing from {path}; \
             regenerate with `cargo bench -p dvm-bench --bench concurrent`"
        );
        return false;
    };
    let recorded_cores = doc
        .get("host")
        .and_then(|h| h.get("parallelism"))
        .and_then(|p| p.as_f64())
        .unwrap_or(1.0);
    let (floor, why) = if recorded_cores >= 4.0 {
        (1.2, "speedup floor, multicore recording host")
    } else {
        (0.85, "no-regression floor, recording host lacked cores")
    };
    let ratio = serial / parallel;
    println!(
        "obs_guard: parallel propagate on large sharded view: {ratio:.2}x serial \
         (floor {floor}x — {why}; recorded on {recorded_cores:.0} cores)"
    );
    if ratio < floor {
        eprintln!(
            "obs_guard: FAIL — parallel_4w propagate at {ratio:.2}x of serial, below the \
             {floor}x floor; regenerate with `cargo bench -p dvm-bench --bench concurrent`"
        );
        return false;
    }
    true
}

fn baseline_median() -> Option<f64> {
    let text = std::fs::read_to_string("results/BENCH_concurrent.json").ok()?;
    let doc = json::parse(&text).ok()?;
    for b in doc.get("benchmarks")?.as_arr()? {
        if b.get("name").and_then(|n| n.as_str()) == Some(NAME) {
            return b.get("median_ns").and_then(|m| m.as_f64());
        }
    }
    None
}

fn eval_median(doc: &json::Value, name: &str) -> Option<f64> {
    for b in doc.get("benchmarks")?.as_arr()? {
        if b.get("name").and_then(|n| n.as_str()) == Some(name) {
            return b.get("median_ns").and_then(|m| m.as_f64());
        }
    }
    None
}

/// Gate recorded speedup ratios in a committed `BENCH_*.json` artifact.
/// Returns `false` on a failed gate (missing file skips — the artifact may
/// not have been generated yet on a fresh checkout).
fn check_ratio_gates(path: &str, gates: &[(&str, &str, f64, &str)], regen: &str) -> bool {
    let Ok(text) = std::fs::read_to_string(path) else {
        println!("obs_guard: no {path} — skipping its speedup gates");
        return true;
    };
    let Ok(doc) = json::parse(&text) else {
        eprintln!("obs_guard: FAIL — {path} is not valid JSON");
        return false;
    };
    let mut ok = true;
    for (num, den, floor, label) in gates {
        let (Some(n), Some(d)) = (eval_median(&doc, num), eval_median(&doc, den)) else {
            eprintln!("obs_guard: FAIL — `{num}` / `{den}` missing from {path}");
            ok = false;
            continue;
        };
        let ratio = n / d;
        println!("obs_guard: {label}: {ratio:.2}x (floor {floor}x)");
        if ratio < *floor {
            eprintln!(
                "obs_guard: FAIL — {label} at {ratio:.2}x, below the {floor}x floor; \
                 regenerate with `cargo run --release -p dvm-bench --bin {regen}`"
            );
            ok = false;
        }
    }
    ok
}

/// The exact workload of `bench_concurrent_execute` with `streams = 1`:
/// 40 ten-sale batches pushed through `execute` as a single stream.
fn make() -> (Database, Vec<Vec<Transaction>>) {
    let (db, mut gen) = retail_db(500, 2_000, Scenario::Combined, Minimality::Weak, 23);
    let txs = vec![(0..BACKLOG_TXS).map(|_| gen.sales_batch(10)).collect()];
    (db, txs)
}

fn main() {
    let gates_ok = check_ratio_gates("results/BENCH_eval.json", EVAL_GATES, "exp_eval")
        & check_ratio_gates("results/BENCH_ingest.json", INGEST_GATES, "exp_ingest")
        & check_ratio_gates("results/BENCH_compile.json", COMPILE_GATES, "exp_compile")
        & check_parallel_propagate_gate();
    if !gates_ok {
        std::process::exit(1);
    }
    let Some(baseline) = baseline_median() else {
        println!("obs_guard: no `{NAME}` baseline in results/BENCH_concurrent.json — skipping");
        return;
    };
    let tolerance = std::env::var("OBS_GUARD_TOLERANCE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(DEFAULT_TOLERANCE);

    // Scheduler noise on a shared host only ever *inflates* a run, so the
    // guard takes the best median of several repetitions: a genuine
    // instrumentation regression shows up in every repetition, a noisy
    // neighbor does not.
    let bench = Bench::from_env().samples(10);
    let measured = (0..3)
        .map(|_| {
            let s = bench.run_batched(NAME, make, |(db, txs)| {
                assert!(
                    !db.tracer().is_enabled(),
                    "tracer must be off for the guard"
                );
                assert!(
                    !dvm_obs::profiling_on(),
                    "profiling must be off for the guard: the ≤5% budget is \
                     the *disabled* instrumentation overhead"
                );
                let stats = run_stream_concurrent(&db, txs).unwrap();
                assert_eq!(stats.transactions, BACKLOG_TXS as u64);
            });
            s.median_ns
        })
        .fold(f64::INFINITY, f64::min);

    let ratio = measured / baseline;
    println!(
        "obs_guard: {NAME}\n  baseline median {:>12}  (results/BENCH_concurrent.json)\n  \
         measured median {:>12}  (best of 3 × 10 samples)\n  ratio {:.3} (tolerance +{:.0}%)",
        dvm_obs::fmt_nanos(baseline),
        dvm_obs::fmt_nanos(measured),
        ratio,
        tolerance * 100.0,
    );
    if ratio > 1.0 + tolerance {
        eprintln!(
            "obs_guard: FAIL — instrumented execute path regressed {:.1}% over the baseline \
             (allowed {:.0}%); widen with OBS_GUARD_TOLERANCE if the machine is noisy",
            (ratio - 1.0) * 100.0,
            tolerance * 100.0,
        );
        std::process::exit(1);
    }
    println!("obs_guard: PASS — disabled-tracer overhead within budget");
}
