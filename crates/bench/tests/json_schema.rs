//! Schema validation for every JSON artifact under `results/` — the
//! pure-Rust replacement for a `jq`-based CI check, built on the
//! zero-dependency parser in `dvm_obs::json`.
//!
//! Two families of artifacts:
//!
//! * `BENCH_*.json` (from the testkit bench harness): a `benchmarks`
//!   array of summaries with `name`/`samples`/`median_ns`/… fields;
//! * `exp_*.json` (from experiment binaries): an `experiment` name and a
//!   `configs` array, each config wrapping a full `observability`
//!   registry snapshot with per-view latency histograms and staleness
//!   gauges.
//!
//! The test is lenient about *which* files exist (a fresh checkout may
//! only carry the committed ones) but strict about the shape of every
//! file that does.

use dvm_obs::json::{self, Value};
use std::path::{Path, PathBuf};

fn results_dir() -> PathBuf {
    // Tests run with CWD = crate root (crates/bench); results/ lives at
    // the workspace root.
    let ws = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    ws.join("results")
}

fn json_files() -> Vec<PathBuf> {
    let dir = results_dir();
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return Vec::new();
    };
    let mut out: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    out.sort();
    out
}

fn require<'a>(v: &'a Value, key: &str, ctx: &str) -> &'a Value {
    v.get(key)
        .unwrap_or_else(|| panic!("{ctx}: missing key `{key}`"))
}

fn require_num(v: &Value, key: &str, ctx: &str) -> f64 {
    require(v, key, ctx)
        .as_f64()
        .unwrap_or_else(|| panic!("{ctx}: `{key}` is not a number"))
}

/// A histogram snapshot as serialized by `HistogramSnapshot::to_json`.
fn check_histogram(v: &Value, ctx: &str) {
    let count = require_num(v, "count", ctx);
    require_num(v, "sum_ns", ctx);
    require_num(v, "mean_ns", ctx);
    let p50 = require_num(v, "p50_ns", ctx);
    let p95 = require_num(v, "p95_ns", ctx);
    let p99 = require_num(v, "p99_ns", ctx);
    let max = require_num(v, "max_ns", ctx);
    if count > 0.0 {
        assert!(p50 <= p95, "{ctx}: p50 > p95");
        assert!(p95 <= p99, "{ctx}: p95 > p99");
        // Quantiles report bucket upper bounds (≤ 6.25% relative error),
        // so p99 may slightly exceed the exact recorded max.
        assert!(
            p99 as u64 <= (max as u64).next_power_of_two().max(16),
            "{ctx}: p99 implausibly above max"
        );
    } else {
        assert_eq!(max, 0.0, "{ctx}: empty histogram with nonzero max");
    }
}

fn check_staleness(v: &Value, ctx: &str) {
    require_num(v, "epochs_pending", ctx);
    require_num(v, "pending_entries", ctx);
    require_num(v, "retained_volume", ctx);
    // nanos_since_refresh is nullable (view never refreshed)
    let nsr = require(v, "nanos_since_refresh", ctx);
    assert!(
        nsr.as_f64().is_some() || matches!(nsr, Value::Null),
        "{ctx}: nanos_since_refresh must be number or null"
    );
}

/// An `Observability::to_json` document. Its `schema_version` (1 when
/// absent: artifacts recorded before the field existed) may not be newer
/// than the engine's; from version 2 on it carries per-table lock waits,
/// from version 3 on per-table join-key `indexes` (and no `join_cache`).
fn check_observability(v: &Value, ctx: &str) {
    let version = match v.get("schema_version") {
        Some(_) => require_num(v, "schema_version", ctx),
        None => 1.0,
    };
    assert!(
        (1.0..=dvm_core::obs::SCHEMA_VERSION as f64).contains(&version),
        "{ctx}: unknown schema version {version}"
    );
    let tables = if version >= 2.0 {
        require(v, "tables", ctx)
            .as_arr()
            .unwrap_or_else(|| panic!("{ctx}: `tables` is not an array"))
    } else {
        &[]
    };
    for table in tables {
        let name = require(table, "table", ctx)
            .as_str()
            .unwrap_or_else(|| panic!("{ctx}: `table` is not a string"))
            .to_string();
        for hist in ["write_wait", "read_wait"] {
            let tctx = format!("{ctx}/table {name}/{hist}");
            check_histogram(require(table, hist, &tctx), &tctx);
        }
        if version >= 3.0 {
            let ictx = format!("{ctx}/table {name}/indexes");
            let indexes = require(table, "indexes", &ictx)
                .as_arr()
                .unwrap_or_else(|| panic!("{ictx}: not an array"));
            for ix in indexes {
                let columns = require(ix, "columns", &ictx)
                    .as_arr()
                    .unwrap_or_else(|| panic!("{ictx}: `columns` is not an array"));
                assert!(
                    !columns.is_empty() && columns.iter().all(|c| c.as_str().is_some()),
                    "{ictx}: `columns` must be column names"
                );
                require_num(ix, "entries", &ictx);
                require_num(ix, "probes", &ictx);
            }
        }
    }
    if version >= 3.0 {
        assert!(
            v.get("join_cache").is_none(),
            "{ctx}: version 3 has no join_cache"
        );
    }
    let views = require(v, "views", ctx)
        .as_arr()
        .unwrap_or_else(|| panic!("{ctx}: `views` is not an array"));
    for view in views {
        let name = require(view, "view", ctx)
            .as_str()
            .unwrap_or_else(|| panic!("{ctx}: `view` is not a string"))
            .to_string();
        let vctx = format!("{ctx}/view {name}");
        require(view, "scenario", &vctx)
            .as_str()
            .unwrap_or_else(|| panic!("{vctx}: `scenario` is not a string"));
        for hist in [
            "makesafe",
            "propagate",
            "refresh",
            "mv_write_hold",
            "mv_read_wait",
        ] {
            check_histogram(require(view, hist, &vctx), &format!("{vctx}/{hist}"));
        }
        require_num(view, "log_tuples", &vctx);
        require_num(view, "dt_tuples", &vctx);
        check_staleness(
            require(view, "staleness", &vctx),
            &format!("{vctx}/staleness"),
        );
    }
    let shared = require(v, "shared_log", ctx);
    for k in ["entries", "volume", "epoch"] {
        require_num(shared, k, &format!("{ctx}/shared_log"));
    }
    let trace = require(v, "trace", ctx);
    for k in ["retained", "dropped"] {
        require_num(trace, k, &format!("{ctx}/trace"));
    }
}

fn check_bench_report(doc: &Value, ctx: &str) {
    let benches = require(doc, "benchmarks", ctx)
        .as_arr()
        .unwrap_or_else(|| panic!("{ctx}: `benchmarks` is not an array"));
    assert!(!benches.is_empty(), "{ctx}: empty benchmark report");
    for b in benches {
        let name = require(b, "name", ctx)
            .as_str()
            .unwrap_or_else(|| panic!("{ctx}: benchmark `name` not a string"))
            .to_string();
        let bctx = format!("{ctx}/{name}");
        let min = require_num(b, "min_ns", &bctx);
        let median = require_num(b, "median_ns", &bctx);
        let p95 = require_num(b, "p95_ns", &bctx);
        let max = require_num(b, "max_ns", &bctx);
        assert!(
            min <= median && median <= p95 && p95 <= max,
            "{bctx}: unordered quantiles"
        );
        assert!(
            require_num(b, "samples", &bctx) >= 1.0,
            "{bctx}: no samples"
        );
    }
}

/// `BENCH_recovery.json` carries, beyond the standard `benchmarks` array,
/// one `recovery` detail record per configuration (the replayed
/// checkpoint/WAL breakdown) and the observability snapshot of the last
/// reopened database.
fn check_recovery_report(doc: &Value, ctx: &str) {
    let details = require(doc, "recovery", ctx)
        .as_arr()
        .unwrap_or_else(|| panic!("{ctx}: `recovery` is not an array"));
    assert!(!details.is_empty(), "{ctx}: no recovery configurations");
    for d in details {
        let name = require(d, "name", ctx)
            .as_str()
            .unwrap_or_else(|| panic!("{ctx}: recovery `name` not a string"))
            .to_string();
        let dctx = format!("{ctx}/{name}");
        require(d, "cadence", &dctx)
            .as_str()
            .unwrap_or_else(|| panic!("{dctx}: `cadence` not a string"));
        let txs = require_num(d, "txs", &dctx);
        require_num(d, "checkpoint_lsn", &dctx);
        let records = require_num(d, "wal_records_replayed", &dctx);
        let txns = require_num(d, "txns_replayed", &dctx);
        let bytes = require_num(d, "wal_bytes_replayed", &dctx);
        require_num(d, "torn_bytes_dropped", &dctx);
        require_num(d, "recovery_nanos", &dctx);
        assert!(txns <= records, "{dctx}: more txns than records replayed");
        assert!(txns <= txs, "{dctx}: more txns replayed than executed");
        assert!(
            (records > 0.0) == (bytes > 0.0),
            "{dctx}: records/bytes replayed disagree"
        );
    }
    check_observability(
        require(doc, "observability", ctx),
        &format!("{ctx}/observability"),
    );
}

/// `BENCH_eval.json` must carry every benchmark the executor speedup gates
/// in `obs_guard` divide — a renamed or dropped series would silently turn
/// the gates into no-ops — behind the `{host, commit}` stamp of the run.
fn check_eval_report(doc: &Value, ctx: &str) {
    let host = require(doc, "host", ctx);
    require_num(host, "parallelism", &format!("{ctx}/host"));
    require(doc, "commit", ctx)
        .as_str()
        .unwrap_or_else(|| panic!("{ctx}: `commit` is not a string"));
    const REQUIRED: &[&str] = &[
        "hash/tuple_insert/siphash",
        "hash/tuple_insert/fxhash",
        "eval/filter_project/prepr_sip",
        "eval/filter_project/reference",
        "eval/filter_project/fused",
        "eval/join_delta/prepr_sip",
        "eval/join_delta/cold",
        "eval/join_delta/indexed",
        "propagate/reference",
        "propagate/fused",
    ];
    let benches = require(doc, "benchmarks", ctx).as_arr().unwrap();
    let names: Vec<&str> = benches
        .iter()
        .filter_map(|b| b.get("name").and_then(|n| n.as_str()))
        .collect();
    for want in REQUIRED {
        assert!(
            names.contains(want),
            "{ctx}: missing benchmark `{want}` (the speedup gates depend on it)"
        );
    }
}

/// `BENCH_compile.json` must carry the compiled/per-call pair for every
/// regime (small delta, 1 000-delta, aggregate view) — the small-delta
/// pair is what the obs_guard compiled-plan gate divides.
fn check_compile_report(doc: &Value, ctx: &str) {
    const REQUIRED: &[&str] = &[
        "compile/small_delta/compiled",
        "compile/small_delta/per_call",
        "compile/delta1000/compiled",
        "compile/delta1000/per_call",
        "compile/agg_small/compiled",
        "compile/agg_small/per_call",
        "compile/both_logs/compiled",
        "compile/both_logs/per_call",
    ];
    let benches = require(doc, "benchmarks", ctx).as_arr().unwrap();
    let names: Vec<&str> = benches
        .iter()
        .filter_map(|b| b.get("name").and_then(|n| n.as_str()))
        .collect();
    for want in REQUIRED {
        assert!(
            names.contains(want),
            "{ctx}: missing benchmark `{want}` (the compiled-plan gate depends on it)"
        );
    }
}

/// `BENCH_ingest.json` must carry the per-op/group-commit pair the
/// obs_guard group-commit gate divides, the SLA outcome pair — with the
/// recorded maximum staleness actually under the recorded bound — the
/// tick-cadence series bounding between-sample exposure, and the
/// `host.parallelism` stamp (the producer streams are real threads).
fn check_ingest_report(doc: &Value, ctx: &str) {
    const REQUIRED: &[&str] = &[
        "ingest/group_commit_always",
        "ingest/per_op_execute_always",
        "sla/V/max_staleness_ns",
        "sla/V/bound_ns",
        "sla/tick_gap_ns",
    ];
    let benches = require(doc, "benchmarks", ctx).as_arr().unwrap();
    let names: Vec<&str> = benches
        .iter()
        .filter_map(|b| b.get("name").and_then(|n| n.as_str()))
        .collect();
    for want in REQUIRED {
        assert!(
            names.contains(want),
            "{ctx}: missing benchmark `{want}` (the group-commit gate depends on it)"
        );
    }
    let median = |name: &str| {
        benches
            .iter()
            .find(|b| b.get("name").and_then(|n| n.as_str()) == Some(name))
            .map(|b| require_num(b, "median_ns", ctx))
            .unwrap()
    };
    assert!(
        median("sla/V/max_staleness_ns") < median("sla/V/bound_ns"),
        "{ctx}: recorded SLA breach — max staleness at or above the bound"
    );
    let host = require(doc, "host", ctx);
    let par = require_num(host, "parallelism", &format!("{ctx}/host"));
    assert!(par >= 1.0, "{ctx}: host.parallelism must be ≥ 1");
}

/// `BENCH_concurrent.json` must carry the execute baseline the obs_guard
/// overhead guard re-measures and the `host.parallelism` stamp of the
/// machine that recorded it.
fn check_concurrent_report(doc: &Value, ctx: &str) {
    const REQUIRED: &[&str] = &["execute_streams/1stream/40tx"];
    let benches = require(doc, "benchmarks", ctx).as_arr().unwrap();
    let names: Vec<&str> = benches
        .iter()
        .filter_map(|b| b.get("name").and_then(|n| n.as_str()))
        .collect();
    for want in REQUIRED {
        assert!(
            names.contains(want),
            "{ctx}: missing benchmark `{want}` (the obs_guard gate depends on it)"
        );
    }
    let host = require(doc, "host", ctx);
    let par = require_num(host, "parallelism", &format!("{ctx}/host"));
    assert!(par >= 1.0, "{ctx}: host.parallelism must be ≥ 1");
}

/// `BENCH_profile.json` carries the standard `benchmarks` array (the
/// off/on overhead pair) plus the full `ProfileReport` under `profile`:
/// profiled maintenance operations with their attribution coverage (and,
/// for propagates, the compiled-plan phase vocabulary), and the time
/// series the policy driver sampled.
fn check_profile_report(doc: &Value, ctx: &str) {
    const REQUIRED_BENCHES: &[&str] = &["profile/propagate/off", "profile/propagate/on"];
    let benches = require(doc, "benchmarks", ctx).as_arr().unwrap();
    let names: Vec<&str> = benches
        .iter()
        .filter_map(|b| b.get("name").and_then(|n| n.as_str()))
        .collect();
    for want in REQUIRED_BENCHES {
        assert!(
            names.contains(want),
            "{ctx}: missing benchmark `{want}` (the profiling-overhead pair)"
        );
    }
    let host = require(doc, "host", ctx);
    let par = require_num(host, "parallelism", &format!("{ctx}/host"));
    assert!(par >= 1.0, "{ctx}: host.parallelism must be ≥ 1");

    let profile = require(doc, "profile", ctx);
    let pctx = format!("{ctx}/profile");
    let ops = require(profile, "ops", &pctx)
        .as_arr()
        .unwrap_or_else(|| panic!("{pctx}: `ops` is not an array"));
    assert!(
        !ops.is_empty(),
        "{pctx}: no profiled maintenance operations"
    );
    for op in ops {
        let kind = require(op, "op", &pctx)
            .as_str()
            .unwrap_or_else(|| panic!("{pctx}: `op` is not a string"))
            .to_string();
        let octx = format!("{pctx}/{kind}");
        require(op, "view", &octx)
            .as_str()
            .unwrap_or_else(|| panic!("{octx}: `view` is not a string"));
        let total = require_num(op, "total_nanos", &octx);
        let attributed = require_num(op, "attributed_nanos", &octx);
        let coverage = require_num(op, "coverage", &octx);
        if total > 0.0 {
            // `json::num_f` rounds to one decimal place, so allow half a
            // step of quantization either way.
            let expect = attributed / total;
            assert!(
                (coverage - expect).abs() <= 0.05,
                "{octx}: coverage inconsistent"
            );
        }
        let evals = require(op, "evals", &octx)
            .as_arr()
            .unwrap_or_else(|| panic!("{octx}: `evals` is not an array"));
        let mut labels = Vec::new();
        for e in evals {
            labels.push(
                require(e, "label", &octx)
                    .as_str()
                    .unwrap_or_else(|| panic!("{octx}: eval `label` not a string")),
            );
            require_num(e, "nanos", &octx);
            require_num(e, "self_nanos", &octx);
        }
        // A propagate executes the view's compiled delta program: it binds
        // the log and evaluates. An artifact showing per-call derivation
        // phases predates compiled plans (PR 10) and is stale.
        if kind == "propagate" && !labels.is_empty() {
            for stale in ["DeriveDeltas", "CompilePin"] {
                assert!(
                    !labels.iter().any(|l| l.starts_with(stale)),
                    "{octx}: `{stale}` phase in a propagate — re-record with exp_profile"
                );
            }
            assert!(
                labels.contains(&"BindParams"),
                "{octx}: a propagate with work to do must record `BindParams`"
            );
        }
    }

    const REQUIRED_SERIES: &[&str] = &[
        "propagate_ns/V",
        "refresh_ns/V",
        "staleness_ns/V",
        "backlog_entries/V",
    ];
    let series = require(profile, "series", &pctx)
        .as_arr()
        .unwrap_or_else(|| panic!("{pctx}: `series` is not an array"));
    let series_names: Vec<&str> = series
        .iter()
        .filter_map(|s| s.get("name").and_then(|n| n.as_str()))
        .collect();
    for want in REQUIRED_SERIES {
        assert!(
            series_names.contains(want),
            "{pctx}: missing time series `{want}`"
        );
    }
    for s in series {
        let name = s
            .get("name")
            .and_then(|n| n.as_str())
            .unwrap_or("?")
            .to_string();
        let sctx = format!("{pctx}/series {name}");
        let samples = require_num(s, "samples", &sctx);
        require_num(s, "bucket", &sctx);
        let points = require(s, "points", &sctx)
            .as_arr()
            .unwrap_or_else(|| panic!("{sctx}: `points` is not an array"));
        if samples > 0.0 {
            assert!(!points.is_empty(), "{sctx}: samples without points");
        }
        for p in points {
            require_num(p, "t_ns", &sctx);
            let avg = require_num(p, "avg", &sctx);
            let max = require_num(p, "max", &sctx);
            assert!(avg <= max, "{sctx}: bucket avg above max");
            assert!(require_num(p, "count", &sctx) >= 1.0, "{sctx}: empty point");
        }
    }
}

fn check_experiment(doc: &Value, ctx: &str) {
    require(doc, "experiment", ctx)
        .as_str()
        .unwrap_or_else(|| panic!("{ctx}: `experiment` is not a string"));
    let configs = require(doc, "configs", ctx)
        .as_arr()
        .unwrap_or_else(|| panic!("{ctx}: `configs` is not an array"));
    assert!(!configs.is_empty(), "{ctx}: no configs");
    for c in configs {
        let name = require(c, "name", ctx)
            .as_str()
            .unwrap_or_else(|| panic!("{ctx}: config `name` not a string"))
            .to_string();
        check_observability(
            require(c, "observability", &format!("{ctx}/{name}")),
            &format!("{ctx}/{name}"),
        );
    }
}

#[test]
fn every_results_json_parses_and_matches_its_schema() {
    let files = json_files();
    let mut checked = 0;
    for path in &files {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let text = std::fs::read_to_string(path).unwrap();
        let doc = json::parse(&text)
            .unwrap_or_else(|e| panic!("{name}: invalid JSON at byte {}: {}", e.pos, e.msg));
        if name.starts_with("BENCH_") {
            check_bench_report(&doc, &name);
            if name == "BENCH_recovery.json" {
                check_recovery_report(&doc, &name);
            }
            if name == "BENCH_eval.json" {
                check_eval_report(&doc, &name);
            }
            if name == "BENCH_concurrent.json" {
                check_concurrent_report(&doc, &name);
            }
            if name == "BENCH_ingest.json" {
                check_ingest_report(&doc, &name);
            }
            if name == "BENCH_compile.json" {
                check_compile_report(&doc, &name);
            }
            if name == "BENCH_profile.json" {
                check_profile_report(&doc, &name);
            }
            checked += 1;
        } else if name.starts_with("exp_") {
            check_experiment(&doc, &name);
            checked += 1;
        } else {
            panic!("{name}: unknown results/ artifact family (expected BENCH_* or exp_*)");
        }
    }
    println!("validated {checked}/{} results/*.json files", files.len());
}

#[test]
fn observability_snapshot_passes_its_own_schema() {
    // End-to-end: a live registry export must satisfy the same schema the
    // CI gate applies to committed artifacts.
    use dvm_bench::retail_db;
    use dvm_core::{Minimality, Scenario};
    let (db, mut gen) = retail_db(50, 200, Scenario::Combined, Minimality::Weak, 7);
    db.execute(&gen.sales_batch(5)).unwrap();
    db.refresh("V").unwrap();
    let text = db.observability().to_json();
    let doc = json::parse(&text).expect("registry export parses");
    assert_eq!(
        doc.get("schema_version").and_then(Value::as_f64),
        Some(dvm_core::obs::SCHEMA_VERSION as f64),
        "a live export is at the engine's schema version"
    );
    check_observability(&doc, "live");
    let tables = doc.get("tables").and_then(Value::as_arr).unwrap();
    let names: Vec<_> = tables
        .iter()
        .filter_map(|t| t.get("table")?.as_str())
        .collect();
    assert!(names.contains(&"sales"), "base tables reported: {names:?}");
    // V joins sales and customer on custId: each keeps that index.
    for t in tables {
        let ix = t.get("indexes").and_then(Value::as_arr).unwrap();
        let cols = ix[0].get("columns").and_then(Value::as_arr).unwrap();
        assert_eq!(cols[0].as_str(), Some("custId"), "{text}");
    }
}
