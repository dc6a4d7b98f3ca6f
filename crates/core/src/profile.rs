//! Maintenance profiling reports: cost attribution for one maintenance
//! operation ([`MaintProfile`]) and the engine-wide [`ProfileReport`]
//! (`\profile show` in the REPL, `Database::profile_report()` in code,
//! `results/BENCH_profile.json` via `exp_profile`).
//!
//! While profiling is enabled (`Database::set_profiling(true)`), every
//! `propagate` / `refresh` / `partial_refresh` claims the annotated
//! operator trees ([`OpProf`]) and per-shard fan-out profiles
//! ([`ShardProfile`]) its evaluations deposited, and stores them here
//! together with the operation's observed wall time — so per-operator
//! nanos can be checked against the latency the histograms report
//! ([`MaintProfile::coverage`]).

use dvm_obs::{fmt_nanos, json, HistogramSnapshot, OpProf, ShardProfile, TimeSeries};
use dvm_testkit::PoolStats;
use std::fmt::Write as _;

/// Everything profiled during one maintenance operation on one view.
#[derive(Debug, Clone)]
pub struct MaintProfile {
    /// View the operation maintained.
    pub view: String,
    /// `"propagate"`, `"refresh"`, or `"partial_refresh"`.
    pub op: &'static str,
    /// Observed wall nanos of the whole operation (the same sample the
    /// latency histogram recorded).
    pub total_nanos: u64,
    /// One annotated tree per evaluation the operation ran, in order.
    pub evals: Vec<OpProf>,
    /// One profile per parallel shard fan-out, in order.
    pub shards: Vec<ShardProfile>,
}

impl MaintProfile {
    /// Nanos the profiler attributed: the inclusive root time of every
    /// recorded tree — operator pipelines and phase timers (delta
    /// derivation, compile/pin, the Lemma-3 fold, log truncation) alike.
    /// Parallel shard fan-outs run *inside* the compose/apply phase
    /// timers, so [`ShardProfile`]s are reported for imbalance diagnosis
    /// but not counted again here.
    pub fn attributed_nanos(&self) -> u64 {
        self.evals.iter().map(|e| e.nanos).sum::<u64>()
    }

    /// `attributed_nanos / total_nanos` — how much of the observed
    /// latency the operator-level counters explain (1.0 when the
    /// operation did no measurable work).
    pub fn coverage(&self) -> f64 {
        if self.total_nanos == 0 {
            return 1.0;
        }
        self.attributed_nanos() as f64 / self.total_nanos as f64
    }

    /// Render this operation's annotated trees and shard profiles.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} {}  (total={} attributed={} coverage={:.0}%)",
            self.op,
            self.view,
            fmt_nanos(self.total_nanos as f64),
            fmt_nanos(self.attributed_nanos() as f64),
            self.coverage() * 100.0
        );
        for (i, e) in self.evals.iter().enumerate() {
            let _ = writeln!(out, "eval #{i}:");
            out.push_str(&e.render());
        }
        for s in &self.shards {
            let _ = writeln!(
                out,
                "shards {}: {} tuples, slowest {}, imbalance {:.2}",
                s.label,
                s.total_tuples(),
                fmt_nanos(s.max_nanos() as f64),
                s.imbalance()
            );
        }
        out
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> String {
        json::object([
            ("view", json::string(&self.view)),
            ("op", json::string(self.op)),
            ("total_nanos", json::num_u(self.total_nanos)),
            ("attributed_nanos", json::num_u(self.attributed_nanos())),
            ("coverage", json::num_f(self.coverage())),
            ("evals", json::array(self.evals.iter().map(OpProf::to_json))),
            (
                "shards",
                json::array(self.shards.iter().map(ShardProfile::to_json)),
            ),
        ])
    }
}

/// The engine-wide profiling snapshot: recent per-operation profiles plus
/// the resource-attribution counters (worker pool, WAL latency) and the
/// registered time series.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Whether profiling is currently enabled.
    pub enabled: bool,
    /// Most recent profiled maintenance operations, oldest first.
    pub ops: Vec<MaintProfile>,
    /// Maintenance worker-pool utilization counters.
    pub pool: PoolStats,
    /// WAL append latency (None when no durable sink is attached).
    pub wal_append: Option<HistogramSnapshot>,
    /// WAL fsync latency (None when no durable sink is attached).
    pub wal_sync: Option<HistogramSnapshot>,
    /// Registered time series (staleness gauges, propagate latency).
    pub series: Vec<TimeSeries>,
}

impl ProfileReport {
    /// Render the whole report for the REPL's `\profile show`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profiling: {}",
            if self.enabled { "on" } else { "off" }
        );
        if self.ops.is_empty() {
            out.push_str("no profiled maintenance operations recorded\n");
        }
        for op in &self.ops {
            out.push_str(&op.render());
        }
        let _ = writeln!(
            out,
            "pool: {} workers, {} jobs claimed by workers, {} run by submitter",
            self.pool.workers.len(),
            self.pool
                .workers
                .iter()
                .map(|w| w.jobs_claimed)
                .sum::<u64>(),
            self.pool.submitter_jobs
        );
        for (i, w) in self.pool.workers.iter().enumerate() {
            let _ = writeln!(
                out,
                "  worker {i}: jobs={} parks={} wakes={}",
                w.jobs_claimed, w.parks, w.wakes
            );
        }
        if let (Some(a), Some(s)) = (&self.wal_append, &self.wal_sync) {
            let _ = writeln!(
                out,
                "wal: append p50={} p99={} ({} samples); fsync p50={} p99={} ({} samples)",
                fmt_nanos(a.p50() as f64),
                fmt_nanos(a.p99() as f64),
                a.count,
                fmt_nanos(s.p50() as f64),
                fmt_nanos(s.p99() as f64),
                s.count
            );
        }
        for ts in &self.series {
            let last = ts.points().last().copied();
            let _ = writeln!(
                out,
                "series {}: {} samples, bucket {}{}",
                ts.name(),
                ts.samples(),
                ts.bucket(),
                match last {
                    Some(p) => format!(", last avg {:.0} max {:.0}", p.avg, p.max),
                    None => String::new(),
                }
            );
        }
        out
    }

    /// The whole report as one JSON document.
    pub fn to_json(&self) -> String {
        json::object([
            ("enabled", json::boolean(self.enabled)),
            (
                "ops",
                json::array(self.ops.iter().map(MaintProfile::to_json)),
            ),
            (
                "pool",
                json::object([
                    (
                        "workers",
                        json::array(self.pool.workers.iter().map(|w| {
                            json::object([
                                ("jobs_claimed", json::num_u(w.jobs_claimed)),
                                ("parks", json::num_u(w.parks)),
                                ("wakes", json::num_u(w.wakes)),
                            ])
                        })),
                    ),
                    ("submitter_jobs", json::num_u(self.pool.submitter_jobs)),
                    ("total_jobs", json::num_u(self.pool.total_jobs())),
                ]),
            ),
            (
                "wal",
                json::object([
                    (
                        "append",
                        match &self.wal_append {
                            Some(h) => h.to_json(),
                            None => "null".to_string(),
                        },
                    ),
                    (
                        "sync",
                        match &self.wal_sync {
                            Some(h) => h.to_json(),
                            None => "null".to_string(),
                        },
                    ),
                ]),
            ),
            (
                "series",
                json::array(self.series.iter().map(TimeSeries::to_json)),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_op() -> MaintProfile {
        MaintProfile {
            view: "v".into(),
            op: "propagate",
            total_nanos: 1_000,
            evals: vec![OpProf {
                label: "Filter".into(),
                rows_in: 10,
                rows_out: 4,
                nanos: 600,
                children: vec![OpProf::leaf("Scan r", 10, 200)],
            }],
            shards: vec![ShardProfile {
                label: "compose_delta",
                tuples: vec![5, 3],
                nanos: vec![300, 100],
            }],
        }
    }

    #[test]
    fn coverage_counts_recorded_trees_but_not_shards_again() {
        let p = sample_op();
        assert_eq!(p.attributed_nanos(), 600);
        assert!((p.coverage() - 0.6).abs() < 1e-9);
        let idle = MaintProfile {
            total_nanos: 0,
            evals: vec![],
            shards: vec![],
            ..p
        };
        assert_eq!(idle.coverage(), 1.0);
    }

    #[test]
    fn report_renders_and_serializes() {
        let report = ProfileReport {
            enabled: true,
            ops: vec![sample_op()],
            pool: PoolStats::default(),
            wal_append: None,
            wal_sync: None,
            series: vec![TimeSeries::new("propagate_ns/v", 8)],
        };
        let r = report.render();
        assert!(r.contains("profiling: on"), "{r}");
        assert!(r.contains("== propagate v"), "{r}");
        assert!(r.contains("Scan r"), "{r}");
        assert!(r.contains("series propagate_ns/v"), "{r}");

        let doc = json::parse(&report.to_json()).unwrap();
        assert_eq!(doc.get("enabled"), Some(&json::Value::Bool(true)));
        let ops = doc.get("ops").unwrap().as_arr().unwrap();
        assert_eq!(ops[0].get("op").unwrap().as_str(), Some("propagate"));
        assert_eq!(ops[0].get("coverage").unwrap().as_f64(), Some(0.6));
        assert_eq!(
            doc.get("wal").unwrap().get("append"),
            Some(&json::Value::Null)
        );
        assert_eq!(doc.get("series").unwrap().as_arr().unwrap().len(), 1);
    }
}
