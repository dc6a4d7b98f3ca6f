//! **Maintenance profiler experiment**: cost attribution on the Example-1.1
//! retail view under Scenario C, written to `results/BENCH_profile.json`.
//!
//! Three questions, one run:
//!
//! 1. **Attribution coverage** (the acceptance gate, self-checked): with
//!    profiling on, each propagate's per-operator nanos — evaluation trees
//!    plus the phase timers for delta derivation, compile/pin, the
//!    Lemma-3 fold, and log truncation — must sum to within 20% of the
//!    observed propagate latency (median across rounds).
//!    Attribution that misses a fifth of the wall time cannot be argued
//!    with; attribution above it is double-counting.
//! 2. **Profiling overhead**: `profile/propagate/off` vs
//!    `profile/propagate/on` medians over identical sales backlogs — what
//!    turning the profiler on costs the hot path it measures.
//! 3. **The time-series recorder**: `PolicyDriver` ticks under Policy 2
//!    sample staleness gauges and maintenance latency into downsampling
//!    rings; the full `ProfileReport` (operator trees, pool utilization,
//!    WAL latency, series) is embedded in the artifact under
//!    `profile`, next to the standard `benchmarks` array and host stamp.
//!
//! `--test` runs a single smoke round of everything (including the
//! coverage gate) and writes nothing — the `scripts/ci.sh` gate.

use dvm_bench::report::summary_table;
use dvm_bench::retail_db;
use dvm_core::{Database, MaintProfile, Minimality, PolicyDriver, RefreshPolicy, Scenario};
use dvm_testkit::bench::{to_json_report_with_host, Bench, Summary};
use dvm_workload::RetailGen;

/// Sales per propagate round: large enough that one propagate does real
/// operator work (µs–ms), so attribution ratios are not timer noise.
const BATCH: usize = 200;
const ROUNDS: usize = 7;
const TICKS: u64 = 24;
const COVERAGE_LO: f64 = 0.8;
const COVERAGE_HI: f64 = 1.2;

fn make() -> (Database, RetailGen) {
    retail_db(500, 2_000, Scenario::Combined, Minimality::Weak, 23)
}

fn median_coverage(props: &[&MaintProfile]) -> f64 {
    let mut covs: Vec<f64> = props.iter().map(|p| p.coverage()).collect();
    covs.sort_by(f64::total_cmp);
    covs[covs.len() / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let bench = if quick {
        Bench::quick()
    } else {
        Bench::from_env()
    };

    // --- attribution coverage: profiled propagates over real backlogs ---
    let (db, mut gen) = make();
    db.set_profiling(true);
    let rounds = if quick { 3 } else { ROUNDS };
    for _ in 0..rounds {
        db.execute(&gen.sales_batch(BATCH)).unwrap();
        db.propagate("V").unwrap();
    }
    db.partial_refresh("V").unwrap();
    let cov_report = db.profile_report();
    let props: Vec<&MaintProfile> = cov_report
        .ops
        .iter()
        .filter(|o| o.op == "propagate")
        .collect();
    assert_eq!(props.len(), rounds, "every propagate must be profiled");
    let coverage = median_coverage(&props);
    println!(
        "exp_profile: {} profiled propagates, median attribution coverage {:.0}% \
         (gate: {:.0}%–{:.0}%)",
        props.len(),
        coverage * 100.0,
        COVERAGE_LO * 100.0,
        COVERAGE_HI * 100.0,
    );
    println!(
        "\nlast profiled propagate:\n{}",
        props.last().unwrap().render()
    );
    if !(COVERAGE_LO..=COVERAGE_HI).contains(&coverage) {
        eprintln!(
            "exp_profile: FAIL — per-operator nanos explain {:.0}% of observed propagate \
             latency, outside the {:.0}%–{:.0}% attribution budget",
            coverage * 100.0,
            COVERAGE_LO * 100.0,
            COVERAGE_HI * 100.0,
        );
        std::process::exit(1);
    }

    // --- time-series recorder: Policy 2 ticks on the same database ---
    let mut driver = PolicyDriver::new(&db);
    driver
        .add_view("V", RefreshPolicy::Policy2 { k: 1, m: 4 })
        .unwrap();
    let ticks = if quick { 4 } else { TICKS };
    for _ in 0..ticks {
        db.execute(&gen.sales_batch(20)).unwrap();
        driver.tick().unwrap();
    }
    let report = db.profile_report();
    db.set_profiling(false);
    for want in [
        "propagate_ns/V",
        "refresh_ns/V",
        "staleness_ns/V",
        "backlog_entries/V",
    ] {
        assert!(
            report.series.iter().any(|s| s.name() == want),
            "missing time series `{want}`"
        );
    }
    println!(
        "time series after {ticks} policy ticks: {}",
        report
            .series
            .iter()
            .map(|s| format!("{} ({} samples)", s.name(), s.samples()))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // --- profiling overhead: identical propagate workloads, off vs on ---
    let mut out: Vec<Summary> = Vec::new();
    for (name, on) in [
        ("profile/propagate/off", false),
        ("profile/propagate/on", true),
    ] {
        out.push(bench.run_batched(
            name,
            || {
                let (db, mut gen) = make();
                db.set_profiling(on);
                db.execute(&gen.sales_batch(BATCH)).unwrap();
                db
            },
            |db| {
                db.propagate("V").unwrap();
                db.set_profiling(false);
            },
        ));
    }

    if quick {
        println!(
            "exp_profile: smoke OK — coverage gate passed, {} series recorded, \
             {} benchmarks ran",
            report.series.len(),
            out.len()
        );
        return;
    }
    summary_table(&out).print();
    let off = out[0].median_ns;
    let on = out[1].median_ns;
    println!(
        "\nprofiling overhead on propagate: {:.1}% (off median {}, on median {})",
        (on / off - 1.0) * 100.0,
        dvm_obs::fmt_nanos(off),
        dvm_obs::fmt_nanos(on),
    );

    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let par = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let body = to_json_report_with_host(&out, par);
        // Splice the profiling report in next to the host stamp and the
        // benchmarks array: {"profile":…, "host":…, "benchmarks":[…]}.
        let doc = format!("{{\"profile\":{},{}", report.to_json(), &body[1..]);
        let path = dir.join("BENCH_profile.json");
        match std::fs::write(&path, doc) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}
