//! How each metric is computed from a run's samples.
//!
//! Names, units and the run length are stated once, in `BENCHMARK.json`,
//! which is compiled in: a metric computed here that the file does not
//! name, or one it names that is not computed, fails the run.

use crate::layers::{self, Json};
use crate::stats::{self, Quantile};
use crate::trace::Trace;
use crate::traced::Traced;
use crate::workloads::{Built, Run};

const CONTRACT: &str = include_str!("../../BENCHMARK.json");

/// Seconds one run measures: `run_seconds` of `BENCHMARK.json`.
pub fn run_seconds() -> f64 {
    layers::parse_json(CONTRACT)
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("BENCHMARK.json states run_seconds")
}

/// One reported metric. `value` is `None` only when the engine no longer
/// exports the counter behind it (printed `null`).
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: Option<f64>,
    /// Sample count and the percentile actually used, or why it is 0.
    pub note: String,
}

/// Collects the metrics of one mode and holds them to the list
/// `BENCHMARK.json` gives under `key`.
struct Sheet {
    /// Name and unit of every metric of the mode, in the file's order.
    list: Vec<(String, String)>,
    /// End-to-end metrics are gated: each needs samples and a value above
    /// 0. A per-layer metric may be 0 where its layer idles.
    gated: bool,
    out: Vec<Metric>,
    problems: Vec<String>,
}

impl Sheet {
    fn new(key: &str) -> Self {
        let root = layers::parse_json(CONTRACT);
        let field = |m: &Json, f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
        let list = root
            .get(key)
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json lists the mode's metrics")
            .iter()
            .map(|m| field(m, "name").zip(field(m, "unit")))
            .collect::<Option<Vec<_>>>()
            .expect("every metric has a name and a unit");
        Sheet {
            list,
            gated: key == "end_to_end",
            out: Vec::new(),
            problems: Vec::new(),
        }
    }

    fn put(&mut self, name: &str, value: Option<f64>, note: String) {
        let Some((_, unit)) = self.list.iter().find(|(n, _)| n == name) else {
            self.problems.push(format!(
                "{name} is measured but BENCHMARK.json does not name it"
            ));
            return;
        };
        let value = value.filter(|v| v.is_finite());
        if self.gated && !value.is_some_and(|v| v > 0.0) {
            self.problems
                .push(format!("gated metric {name} has no value above 0 ({note})"));
        }
        self.out.push(Metric {
            name: name.to_string(),
            unit: unit.clone(),
            value,
            note,
        });
    }

    /// A plain measured value.
    fn value(&mut self, name: &str, value: f64, note: &str) {
        self.put(name, Some(value), note.to_string());
    }

    /// A counter read by key: `None` prints `null`.
    fn keyed(&mut self, name: &str, value: Option<f64>) {
        let note = if value.is_some() {
            ""
        } else {
            "counter not exported"
        };
        self.put(name, value, note.to_string());
    }

    /// A percentile of `samples` under the ten-samples-beyond rule. With
    /// no samples a per-layer metric reads 0 (the layer took no such call
    /// on this workload) and a gated one fails the run.
    fn quantile(&mut self, name: &str, samples: &mut [f64], wanted: f64) {
        if samples.is_empty() {
            return self.idle(name);
        }
        let Quantile { value, used, n } = stats::quantile(samples, wanted);
        self.put(name, Some(value), format!("n={n} p{}", used * 100.0));
    }

    /// The layer does nothing on this workload.
    fn idle(&mut self, name: &str) {
        self.put(name, Some(0.0), "no samples on this workload".to_string());
    }

    /// The metrics in the file's order; what the file names and was not
    /// measured, or the reverse, goes to `run` as a problem.
    fn finish(mut self, run: &mut Run) -> Vec<Metric> {
        for (name, _) in &self.list {
            if !self.out.iter().any(|m| m.name == *name) {
                self.problems.push(format!(
                    "BENCHMARK.json names {name}, which was not measured"
                ));
            }
        }
        for p in self.problems {
            run.problem(p);
        }
        let mut out = self.out;
        out.sort_by_key(|m| self.list.iter().position(|(n, _)| *n == m.name));
        out
    }
}

pub fn end_to_end(run: &mut Run, setup_s: f64, setups: usize, peak_rss_mb: f64) -> Vec<Metric> {
    let mut s = Sheet::new("end_to_end");
    s.value("setup_s", setup_s, &format!("median of {setups}"));
    s.quantile("visible_p50_ms", &mut run.visible_ms, 0.5);
    s.value(
        "commit_tput_eps",
        run.rows as f64 / run.window_s,
        &format!("{} rows in {:.2} s", run.rows, run.window_s),
    );
    s.quantile("commit_p50_us", &mut run.commit_us, 0.5);
    // The views' holds differ by a factor of 2 to 8, so the median of the
    // pooled samples lies in the gap between two views' modes and jumps
    // with their mix.
    let medians: Option<Vec<f64>> = run
        .downtime_us
        .iter_mut()
        .map(|v| (!v.is_empty()).then(|| stats::median(v)))
        .collect();
    s.put(
        "downtime_p50_us",
        medians.as_deref().and_then(mean),
        format!(
            "mean of the medians of {} views, n={}",
            run.downtime_us.len(),
            run.downtime_us.iter().map(Vec::len).sum::<usize>()
        ),
    );
    s.quantile("read_p50_us", &mut run.read_pass_us, 0.5);
    s.value(
        "recovery_ms",
        run.recovery_ms,
        &format!("median of {} opens", run.opens),
    );
    s.value("peak_rss_mb", peak_rss_mb, "VmHWM after the measured run");
    s.finish(run)
}

fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Durations of the spans called `name`, µs.
fn span_us(trace: &Trace, name: &str) -> Vec<f64> {
    trace.durations(name).iter().map(|d| d / 1e3).collect()
}

/// Median duration of the spans called `name`, in `scale` ns units.
fn span_median(trace: &Trace, name: &str, scale: f64) -> Option<f64> {
    let mut d = trace.durations(name);
    (!d.is_empty()).then(|| stats::median(&mut d) / scale)
}

pub fn per_layer(run: &mut Run, traced: &Traced, built: &Built) -> Vec<Metric> {
    let mut s = Sheet::new("per_layer");
    let tr = &traced.trace;
    let wall = traced.wall_ns as f64;

    // ingest — from the deployed run.
    match run.ingest {
        Some(stats) => {
            let mut submit = run.submit_us.clone();
            s.quantile("ingest.submit_p50_us", &mut submit, 0.5);
            s.quantile("ingest.submit_p99_us", &mut submit, 0.99);
            s.value("ingest.queue_depth_max", stats.max_queue_depth as f64, "");
            s.value(
                "ingest.batch_mean",
                stats.ingested as f64 / stats.batches.max(1) as f64,
                &format!("{} batches", stats.batches),
            );
            s.value(
                "ingest.syncs_per_kev",
                stats.wal_syncs as f64 * 1e3 / stats.ingested.max(1) as f64,
                "",
            );
            s.value("ingest.shed", stats.shed as f64, "");
            s.quantile("ingest.commit_wait_p50_us", &mut run.commit_wait_us, 0.5);
        }
        None => {
            for name in [
                "ingest.submit_p50_us",
                "ingest.submit_p99_us",
                "ingest.queue_depth_max",
                "ingest.batch_mean",
                "ingest.syncs_per_kev",
                "ingest.shed",
                "ingest.commit_wait_p50_us",
            ] {
                s.idle(name);
            }
        }
    }

    // core — commit, maintain and read spans of the traced run; ticks, MV
    // lock and state sizes from the deployed one.
    let total = |name: &str| tr.durations(name).iter().sum::<f64>();
    s.value(
        "core.commit_us_per_row",
        total("commit") / 1e3 / traced.rows.max(1) as f64,
        &format!("{} rows", traced.rows),
    );
    let txs = traced.txs.max(1) as f64;
    s.value(
        "core.makesafe_us_per_tx",
        total("makesafe") / 1e3 / txs,
        &format!("{} txs", traced.txs),
    );
    s.value(
        "core.base_apply_us_per_tx",
        total("base_apply") / 1e3 / txs,
        "",
    );
    let mut propagate = span_us(tr, "propagate");
    s.quantile("core.propagate_p50_us", &mut propagate, 0.5);
    s.quantile("core.propagate_p95_us", &mut propagate, 0.95);
    let mut refresh = span_us(tr, "refresh");
    s.quantile("core.refresh_p50_us", &mut refresh, 0.5);
    let mut partial = span_us(tr, "partial_refresh");
    s.quantile("core.partial_refresh_p50_us", &mut partial, 0.5);
    s.quantile("core.tick_p50_us", &mut run.tick_us, 0.5);
    s.quantile("core.tick_gap_p99_us", &mut run.tick_gap_us, 0.99);
    let mut read_through = span_us(tr, "read_through");
    s.quantile("core.read_through_p50_us", &mut read_through, 0.5);
    let mut query_view = span_us(tr, "query_view");
    s.quantile("core.query_view_p50_us", &mut query_view, 0.5);
    s.value(
        "core.mv_read_wait_us",
        run.mv_read_wait_us,
        "mean per read, deployed run",
    );
    s.value(
        "core.mv_write_hold_us",
        run.mv_write_hold_us,
        "mean per hold, deployed run",
    );
    s.keyed("core.log_tuples_max", run.obs.log_tuples_max);
    s.keyed("core.dt_tuples_max", run.obs.dt_tuples_max);
    s.keyed(
        "core.shared_log_entries_max",
        run.obs.shared_log_entries_max,
    );

    // Self time by span name, as shares of the traced wall.
    let own = tr.self_by_name();
    let share = |names: &[&str]| {
        own.iter()
            .filter(|((_, name), _)| names.contains(name))
            .map(|(_, &t)| t as f64)
            .sum::<f64>()
            / wall
    };
    s.value(
        "core.commit_share",
        share(&["commit", "makesafe", "base_apply"]),
        "",
    );
    s.value(
        "core.maintain_share",
        share(&["propagate", "refresh", "partial_refresh"]),
        "",
    );
    s.value(
        "core.read_share",
        share(&["query_view", "read_through"]),
        "",
    );

    // delta
    match mean(&tr.durations("normalize")) {
        Some(m) => s.value("delta.normalize_us_per_tx", m / 1e3, ""),
        None => s.idle("delta.normalize_us_per_tx"),
    }
    s.put(
        "delta.compose_us",
        span_median(tr, "probe.compose", 1e3),
        String::new(),
    );
    s.value(
        "delta.compile_ms",
        built.compile_ms,
        "all create_view calls of one set-up",
    );
    s.keyed("delta.plan_hit_ratio", run.obs.plan_hit_ratio);

    // algebra — recompute every view from scratch against maintaining it.
    let views = built.views.len() as f64;
    let recompute_ms = span_median(tr, "probe.recompute", 1e6).map(|m| m * views);
    s.put(
        "algebra.recompute_ms",
        recompute_ms,
        "all views".to_string(),
    );
    let per_round = (total("propagate") + total("refresh") + total("partial_refresh"))
        / 1e6
        / traced.rounds.max(1) as f64;
    s.put(
        "algebra.incr_speedup",
        recompute_ms.map(|r| r / per_round),
        format!(
            "recompute ÷ {per_round:.3} ms of maintenance per round, {} rounds",
            traced.rounds
        ),
    );

    // storage
    s.put(
        "storage.apply_delta_us",
        span_median(tr, "probe.apply_delta", 1e3),
        String::new(),
    );
    s.put(
        "storage.union_us",
        span_median(tr, "probe.union", 1e3),
        String::new(),
    );
    s.put(
        "storage.monus_us",
        span_median(tr, "probe.monus", 1e3),
        String::new(),
    );
    s.keyed("storage.join_cache_hit_ratio", run.obs.join_cache_hit_ratio);

    // durability
    if built.wal.is_some() {
        let mut sync = span_us(tr, "sync");
        s.quantile("durability.sync_p50_us", &mut sync, 0.5);
        s.value("durability.sync_share", share(&["sync"]), "");
        s.value(
            "durability.wal_bytes_per_row",
            traced.wal_bytes as f64 / traced.rows.max(1) as f64,
            "",
        );
        s.put(
            "durability.checkpoint_ms",
            span_median(tr, "probe.checkpoint", 1e6),
            String::new(),
        );
    } else {
        for name in [
            "durability.sync_p50_us",
            "durability.sync_share",
            "durability.wal_bytes_per_row",
            "durability.checkpoint_ms",
        ] {
            s.idle(name);
        }
    }
    s.value("durability.replay_us_per_tx", run.replay_us_per_tx, "");

    s.value("sql.parse_lower_us", built.parse_lower_us, "mean per view");
    s.quantile("workload.gen_late_p99_us", &mut run.gen_late_us, 0.99);
    s.value("workload.gen_share", share(&["gen"]), "");

    // bench — is the trace itself valid?
    let in_loop = tr
        .spans
        .iter()
        .filter(|s| !s.name.starts_with("probe."))
        .count() as f64;
    s.value(
        "bench.trace_overhead_frac",
        in_loop * traced.span_cost_ns / wall,
        &format!("{in_loop} spans at {:.0} ns each", traced.span_cost_ns),
    );
    let covered: f64 = own
        .iter()
        .filter(|((layer, name), _)| *layer != "bench" && !name.starts_with("probe."))
        .map(|(_, &t)| t as f64)
        .sum();
    s.value(
        "bench.trace_coverage",
        covered / wall,
        "layer self time ÷ traced wall",
    );

    // What the issue lists end to end but cannot be gated (see README.md,
    // "Deviations"): reported from the deployed run of this invocation.
    s.quantile("visible_p99_ms", &mut run.visible_ms, 0.99);
    s.quantile("downtime_p95_us", &mut run.downtime_us.concat(), 0.95);
    s.quantile("read_p99_us", &mut run.read_call_us, 0.99);
    s.value(
        "refresh_tput_tps",
        run.maint_tuples as f64 / run.maint_busy_s,
        &format!(
            "{} tuples in {:.3} s of maintenance",
            run.maint_tuples, run.maint_busy_s
        ),
    );
    let sla = if run.sla_events > 0 {
        run.sla_misses as f64 / run.sla_events as f64
    } else {
        0.0
    };
    s.value(
        "sla_miss_frac",
        sla,
        &format!("{} of {}", run.sla_misses, run.sla_events),
    );
    s.value("maint_busy_frac", run.maint_busy_s / run.window_s, "");
    s.value(
        "fail_frac",
        run.failed as f64 / run.attempted.max(1) as f64,
        &format!("{} of {}", run.failed, run.attempted),
    );
    s.finish(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sheet_holds_a_run_to_the_contract() {
        let mut run = Run::default();
        let mut s = Sheet::new("end_to_end");
        s.quantile("visible_p50_ms", &mut [], 0.5);
        s.value("peak_rss_mb", 0.0, "");
        s.value("recovery_ms", 12.5, "");
        s.value("no_such_metric", 1.0, "");
        let out = s.finish(&mut run);
        let names: Vec<&str> = out.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["visible_p50_ms", "recovery_ms", "peak_rss_mb"]);
        let problem = |needle: &str| run.problems.iter().any(|p| p.contains(needle));
        assert!(problem("gated metric visible_p50_ms has no value above 0"));
        assert!(problem("gated metric peak_rss_mb has no value above 0"));
        assert!(!problem("gated metric recovery_ms"));
        assert!(problem(
            "no_such_metric is measured but BENCHMARK.json does not name it"
        ));
        assert!(problem(
            "BENCHMARK.json names setup_s, which was not measured"
        ));
        assert_eq!(run.failed as usize, run.problems.len());
    }

    #[test]
    fn a_per_layer_metric_may_idle_at_zero() {
        let mut run = Run::default();
        let mut s = Sheet::new("per_layer");
        s.quantile("core.tick_p50_us", &mut [], 0.5);
        s.keyed("core.log_tuples_max", None);
        let out = s.finish(&mut run);
        assert_eq!(out[0].value, Some(0.0));
        assert_eq!(out[1].value, None);
        assert!(run
            .problems
            .iter()
            .all(|p| p.contains("which was not measured")));
    }

    #[test]
    fn the_run_length_comes_from_the_contract() {
        assert!((1.0..=60.0).contains(&run_seconds()));
    }
}
