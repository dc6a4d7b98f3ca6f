//! The observability registry: one structured report over everything the
//! engine instruments, with a JSON exporter (consumed by the `exp_*`
//! binaries and the CI schema gate) and a human [`TableReport`] exporter
//! (the REPL's `\metrics`).
//!
//! Built by [`Database::observability`](crate::Database::observability);
//! every number is a point-in-time snapshot, safe to take mid-traffic.
//!
//! Three families of signals per view:
//!
//! * **latency distributions** — makesafe / propagate / refresh
//!   histograms from [`ViewMetrics`](crate::ViewMetrics), plus the MV
//!   lock's write-hold (downtime) and read-wait distributions;
//! * **staleness gauges** — how far behind the view is: shared-log epochs
//!   pending behind its cursor, retained backlog volume, and time since
//!   its last refresh;
//! * **auxiliary footprint** — log and differential-table tuple counts
//!   (the space the deferral is buying time with).
//!
//! Per base table, the lock's write-wait and read-wait distributions: how
//! long commits waited for readers that pinned the table, and the reverse;
//! and the join-key indexes the table keeps for its views' probes.
//!
//! The JSON document carries [`SCHEMA_VERSION`]; a change to its shape
//! bumps it.

use crate::metrics::{ViewHistograms, ViewMetricsSnapshot};
use dvm_delta::DeltaProgramStats;
use dvm_obs::json;
use dvm_obs::{fmt_nanos, HistogramSnapshot, TableReport};
use dvm_storage::lock::LockMetricsSnapshot;

/// Version of [`Observability::to_json`]'s document shape. 2: per-table
/// lock waits (`tables`). 3: per-table `indexes` replace `join_cache`.
pub const SCHEMA_VERSION: u64 = 3;

/// How far behind one view is (all zero / `None` for a view that cannot
/// lag, e.g. [`Scenario::Immediate`](crate::Scenario::Immediate)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StalenessGauges {
    /// Shared-log epochs appended since this view's cursor last advanced
    /// (0 for non-shared views: their private logs are always current).
    pub epochs_pending: u64,
    /// Shared-log entries this view still has to fold.
    pub pending_entries: u64,
    /// Tuple volume of that backlog.
    pub pending_volume: u64,
    /// Nanoseconds since the view's last completed refresh /
    /// partial-refresh; `None` if it has never refreshed (a fresh view's
    /// initialization counts as current, so this starts at creation).
    pub nanos_since_refresh: Option<u64>,
}

/// Counters published by a CDC ingest pipeline (`dvm-ingest`) via
/// [`Database::set_ingest_gauges`](crate::Database::set_ingest_gauges):
/// queue depth, batch sizing, and admission-control outcomes. All zero
/// until a pipeline publishes; the most recent snapshot wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestGauges {
    /// Bounded per-table queues the pipeline owns.
    pub queues: u64,
    /// Events currently waiting across all queues.
    pub queue_depth: u64,
    /// High-water mark of any single queue's depth.
    pub max_queue_depth: u64,
    /// Events accepted from producers (admitted into a queue).
    pub submitted: u64,
    /// Events drained and committed through the database.
    pub ingested: u64,
    /// Events dropped by shed-mode admission control.
    pub shed: u64,
    /// Group-committed batches executed.
    pub batches: u64,
    /// Largest single batch (events).
    pub max_batch: u64,
    /// WAL syncs issued by the worker — one per durable batch, however
    /// many transactions the batch carried.
    pub wal_syncs: u64,
}

impl IngestGauges {
    fn to_json(self) -> String {
        json::object([
            ("queues", json::num_u(self.queues)),
            ("queue_depth", json::num_u(self.queue_depth)),
            ("max_queue_depth", json::num_u(self.max_queue_depth)),
            ("submitted", json::num_u(self.submitted)),
            ("ingested", json::num_u(self.ingested)),
            ("shed", json::num_u(self.shed)),
            ("batches", json::num_u(self.batches)),
            ("max_batch", json::num_u(self.max_batch)),
            ("wal_syncs", json::num_u(self.wal_syncs)),
        ])
    }
}

/// Everything observable about one view.
#[derive(Debug, Clone)]
pub struct ViewObservability {
    /// View name.
    pub name: String,
    /// Scenario label (`IM`/`BL`/`DT`/`C`).
    pub scenario: &'static str,
    /// Monotone totals (means).
    pub totals: ViewMetricsSnapshot,
    /// Latency distributions per maintenance operation.
    pub latency: ViewHistograms,
    /// MV-lock write-hold distribution — each sample is one exclusive
    /// hold, so its tail is the view-downtime tail.
    pub mv_write_hold: HistogramSnapshot,
    /// MV-lock read-wait distribution — what readers of *this view*
    /// experienced waiting out refreshes (read-side wait attribution).
    pub mv_read_wait: HistogramSnapshot,
    /// MV-lock counter totals.
    pub mv_lock: LockMetricsSnapshot,
    /// Tuples in the view's log tables.
    pub log_tuples: u64,
    /// Tuples in the view's differential tables.
    pub dt_tuples: u64,
    /// Staleness gauges.
    pub staleness: StalenessGauges,
    /// Compiled delta-program counters (`None` for views without a log,
    /// or whose program has not been compiled yet — e.g. right after
    /// recovery, before the first maintenance operation).
    pub delta_program: Option<DeltaProgramStats>,
}

/// Lock waits and join-key indexes of one base table.
#[derive(Debug, Clone)]
pub struct TableObservability {
    /// Table name.
    pub name: String,
    /// Write-wait distribution: each sample is one writer (a commit's base
    /// apply) waiting for the table's readers to let go.
    pub write_wait: HistogramSnapshot,
    /// Read-wait distribution: each sample is one reader waiting out a
    /// writer.
    pub read_wait: HistogramSnapshot,
    /// The indexes views registered on this table.
    pub indexes: Vec<IndexObservability>,
}

/// One join-key index a base table keeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexObservability {
    /// Key column names.
    pub columns: Vec<String>,
    /// Distinct keys held (0 until the first probe builds the index).
    pub entries: u64,
    /// Keys looked up.
    pub probes: u64,
}

/// The full registry snapshot.
#[derive(Debug, Clone)]
pub struct Observability {
    /// Per-view reports, in name order.
    pub views: Vec<ViewObservability>,
    /// Per-base-table lock waits and indexes, in name order.
    pub tables: Vec<TableObservability>,
    /// Shared-log retained entries (all tables).
    pub shared_log_entries: u64,
    /// Shared-log retained tuple volume.
    pub shared_log_volume: u64,
    /// Current shared-log epoch.
    pub shared_log_epoch: u64,
    /// Whether the tracer is journaling.
    pub trace_enabled: bool,
    /// Events currently retained in the trace ring.
    pub trace_len: u64,
    /// Events evicted from the trace ring.
    pub trace_dropped: u64,
    /// Latest CDC ingest-pipeline gauges, if one ever published.
    pub ingest: Option<IngestGauges>,
}

impl StalenessGauges {
    fn to_json(self) -> String {
        json::object([
            ("epochs_pending", json::num_u(self.epochs_pending)),
            ("pending_entries", json::num_u(self.pending_entries)),
            ("retained_volume", json::num_u(self.pending_volume)),
            (
                "nanos_since_refresh",
                match self.nanos_since_refresh {
                    Some(n) => json::num_u(n),
                    None => "null".to_string(),
                },
            ),
        ])
    }
}

impl ViewObservability {
    /// This view's report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("view", json::string(&self.name)),
            ("scenario", json::string(self.scenario)),
            ("makesafe", self.latency.makesafe.to_json()),
            ("propagate", self.latency.propagate.to_json()),
            ("refresh", self.latency.refresh.to_json()),
            ("mv_write_hold", self.mv_write_hold.to_json()),
            ("mv_read_wait", self.mv_read_wait.to_json()),
            ("log_tuples", json::num_u(self.log_tuples)),
            ("dt_tuples", json::num_u(self.dt_tuples)),
            ("staleness", self.staleness.to_json()),
        ];
        if let Some(dp) = &self.delta_program {
            fields.push((
                "delta_program",
                json::object([
                    ("compiles", json::num_u(dp.compiles)),
                    ("binds", json::num_u(dp.binds)),
                    ("cache_hits", json::num_u(dp.hits)),
                    ("variants", json::num_u(dp.variants)),
                ]),
            ));
        }
        json::object(fields)
    }
}

impl Observability {
    /// The whole registry as one JSON document.
    pub fn to_json(&self) -> String {
        let tables = self.tables.iter().map(|t| {
            let indexes = t.indexes.iter().map(|ix| {
                json::object([
                    (
                        "columns",
                        json::array(ix.columns.iter().map(|c| json::string(c))),
                    ),
                    ("entries", json::num_u(ix.entries)),
                    ("probes", json::num_u(ix.probes)),
                ])
            });
            json::object([
                ("table", json::string(&t.name)),
                ("write_wait", t.write_wait.to_json()),
                ("read_wait", t.read_wait.to_json()),
                ("indexes", json::array(indexes)),
            ])
        });
        let mut fields = vec![
            ("schema_version", json::num_u(SCHEMA_VERSION)),
            ("views", json::array(self.views.iter().map(|v| v.to_json()))),
            ("tables", json::array(tables)),
            (
                "shared_log",
                json::object([
                    ("entries", json::num_u(self.shared_log_entries)),
                    ("volume", json::num_u(self.shared_log_volume)),
                    ("epoch", json::num_u(self.shared_log_epoch)),
                ]),
            ),
            (
                "trace",
                json::object([
                    ("enabled", json::boolean(self.trace_enabled)),
                    ("retained", json::num_u(self.trace_len)),
                    ("dropped", json::num_u(self.trace_dropped)),
                ]),
            ),
        ];
        if let Some(g) = self.ingest {
            fields.push(("ingest", g.to_json()));
        }
        json::object(fields)
    }

    /// Per-view latency percentiles as a [`TableReport`]: one row per view
    /// and operation with samples.
    pub fn latency_table(&self) -> TableReport {
        let mut t = TableReport::new(["view", "op", "count", "mean", "p50", "p95", "p99", "max"]);
        for v in &self.views {
            for (op, h) in [
                ("makesafe", &v.latency.makesafe),
                ("propagate", &v.latency.propagate),
                ("refresh", &v.latency.refresh),
                ("mv write-hold", &v.mv_write_hold),
                ("mv read-wait", &v.mv_read_wait),
            ] {
                if h.is_empty() {
                    continue;
                }
                t.row([
                    v.name.clone(),
                    op.to_string(),
                    h.count.to_string(),
                    fmt_nanos(h.mean()),
                    fmt_nanos(h.p50() as f64),
                    fmt_nanos(h.p95() as f64),
                    fmt_nanos(h.p99() as f64),
                    fmt_nanos(h.max as f64),
                ]);
            }
        }
        t
    }

    /// Per-view staleness gauges as a [`TableReport`].
    pub fn staleness_table(&self) -> TableReport {
        let mut t = TableReport::new([
            "view",
            "scenario",
            "epochs pending",
            "backlog tuples",
            "log tuples",
            "dt tuples",
            "since refresh",
        ]);
        for v in &self.views {
            t.row([
                v.name.clone(),
                v.scenario.to_string(),
                v.staleness.epochs_pending.to_string(),
                v.staleness.pending_volume.to_string(),
                v.log_tuples.to_string(),
                v.dt_tuples.to_string(),
                match v.staleness.nanos_since_refresh {
                    Some(n) => fmt_nanos(n as f64),
                    None => "never".to_string(),
                },
            ]);
        }
        t
    }

    /// Both tables plus the shared-log line, as one human-readable block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.latency_table().render());
        out.push('\n');
        out.push_str(&self.staleness_table().render());
        for v in &self.views {
            if let Some(dp) = &v.delta_program {
                out.push_str(&format!(
                    "delta plans {}: {} variant(s), {} compiles, {} binds, {} cache hits\n",
                    v.name, dp.variants, dp.compiles, dp.binds, dp.hits
                ));
            }
        }
        for t in &self.tables {
            for ix in &t.indexes {
                out.push_str(&format!(
                    "index {}({}): {} keys, {} probes\n",
                    t.name,
                    ix.columns.join(", "),
                    ix.entries,
                    ix.probes
                ));
            }
        }
        out.push_str(&format!(
            "\nshared log: epoch {}, {} entries retained ({} tuples)\n",
            self.shared_log_epoch, self.shared_log_entries, self.shared_log_volume
        ));
        // `trace_dropped > 0` with an off/empty ring still matters: it says
        // the trace was truncated since the last drain.
        if self.trace_enabled || self.trace_len > 0 || self.trace_dropped > 0 {
            out.push_str(&format!(
                "trace: {}, {} events retained, {} dropped\n",
                if self.trace_enabled { "on" } else { "off" },
                self.trace_len,
                self.trace_dropped
            ));
        }
        if let Some(g) = self.ingest {
            out.push_str(&format!(
                "ingest: {} queued across {} queues (peak {}), \
                 {} submitted / {} ingested / {} shed, \
                 {} batches (max {}), {} wal syncs\n",
                g.queue_depth,
                g.queues,
                g.max_queue_depth,
                g.submitted,
                g.ingested,
                g.shed,
                g.batches,
                g.max_batch,
                g.wal_syncs
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Observability {
        let hist = dvm_obs::Histogram::new();
        hist.record(1_000);
        hist.record(2_000);
        Observability {
            views: vec![ViewObservability {
                name: "v".into(),
                scenario: "C",
                totals: ViewMetricsSnapshot::default(),
                latency: ViewHistograms {
                    makesafe: hist.snapshot(),
                    propagate: HistogramSnapshot::default(),
                    refresh: HistogramSnapshot::default(),
                },
                mv_write_hold: HistogramSnapshot::default(),
                mv_read_wait: HistogramSnapshot::default(),
                mv_lock: LockMetricsSnapshot::default(),
                log_tuples: 3,
                dt_tuples: 1,
                staleness: StalenessGauges {
                    epochs_pending: 2,
                    pending_entries: 2,
                    pending_volume: 5,
                    nanos_since_refresh: Some(1_500_000),
                },
                delta_program: None,
            }],
            tables: vec![TableObservability {
                name: "r".into(),
                write_wait: hist.snapshot(),
                read_wait: HistogramSnapshot::default(),
                indexes: vec![IndexObservability {
                    columns: vec!["a".into()],
                    entries: 4,
                    probes: 9,
                }],
            }],
            shared_log_entries: 2,
            shared_log_volume: 5,
            shared_log_epoch: 7,
            trace_enabled: false,
            trace_len: 0,
            trace_dropped: 0,
            ingest: None,
        }
    }

    #[test]
    fn json_parses_back_with_expected_shape() {
        let doc = sample().to_json();
        let v = json::parse(&doc).unwrap();
        let views = v.get("views").unwrap().as_arr().unwrap();
        assert_eq!(views.len(), 1);
        assert_eq!(v.get("schema_version").unwrap().as_f64(), Some(3.0));
        let tables = v.get("tables").unwrap().as_arr().unwrap();
        assert_eq!(tables[0].get("table").unwrap().as_str(), Some("r"));
        let ww = tables[0].get("write_wait").unwrap();
        assert_eq!(ww.get("sum_ns").unwrap().as_f64(), Some(3_000.0));
        let view = &views[0];
        assert_eq!(view.get("view").unwrap().as_str().unwrap(), "v");
        let ms = view.get("makesafe").unwrap();
        assert_eq!(ms.get("count").unwrap().as_f64().unwrap(), 2.0);
        assert!(ms.get("p99_ns").is_some());
        let st = view.get("staleness").unwrap();
        assert_eq!(st.get("epochs_pending").unwrap().as_f64().unwrap(), 2.0);
        assert_eq!(st.get("retained_volume").unwrap().as_f64().unwrap(), 5.0);
        assert!(st.get("nanos_since_refresh").unwrap().as_f64().is_some());
        assert_eq!(
            v.get("shared_log").unwrap().get("epoch").unwrap().as_f64(),
            Some(7.0)
        );
        assert!(v.get("trace").unwrap().get("enabled").is_some());
        assert!(v.get("join_cache").is_none(), "version 3 has no join_cache");
        let ix = &tables[0].get("indexes").unwrap().as_arr().unwrap()[0];
        let cols = ix.get("columns").unwrap().as_arr().unwrap();
        assert_eq!(cols[0].as_str(), Some("a"));
        assert_eq!(ix.get("entries").unwrap().as_f64(), Some(4.0));
        assert_eq!(ix.get("probes").unwrap().as_f64(), Some(9.0));
    }

    #[test]
    fn null_refresh_stamp_serializes_as_null() {
        let mut obs = sample();
        obs.views[0].staleness.nanos_since_refresh = None;
        let v = json::parse(&obs.to_json()).unwrap();
        let st = v.get("views").unwrap().as_arr().unwrap()[0]
            .get("staleness")
            .unwrap();
        assert_eq!(st.get("nanos_since_refresh"), Some(&json::Value::Null));
    }

    #[test]
    fn render_includes_tables_and_gauges() {
        let s = sample().render();
        assert!(s.contains("p99"), "{s}");
        assert!(s.contains("makesafe"), "{s}");
        assert!(s.contains("epochs pending"), "{s}");
        assert!(s.contains("shared log: epoch 7"), "{s}");
        assert!(s.contains("index r(a): 4 keys, 9 probes"), "{s}");
        // empty histograms are skipped in the latency table
        assert!(!s.contains("propagate"), "{s}");
    }

    #[test]
    fn ingest_gauges_serialize_and_render_when_present() {
        let mut obs = sample();
        let doc = json::parse(&obs.to_json()).unwrap();
        assert!(doc.get("ingest").is_none(), "absent until published");
        obs.ingest = Some(IngestGauges {
            queues: 2,
            queue_depth: 7,
            max_queue_depth: 64,
            submitted: 100,
            ingested: 90,
            shed: 3,
            batches: 12,
            max_batch: 16,
            wal_syncs: 12,
        });
        let doc = json::parse(&obs.to_json()).unwrap();
        let g = doc.get("ingest").unwrap();
        assert_eq!(g.get("queue_depth").unwrap().as_f64(), Some(7.0));
        assert_eq!(g.get("shed").unwrap().as_f64(), Some(3.0));
        assert_eq!(g.get("wal_syncs").unwrap().as_f64(), Some(12.0));
        let s = obs.render();
        assert!(s.contains("ingest: 7 queued across 2 queues"), "{s}");
        assert!(s.contains("12 batches (max 16), 12 wal syncs"), "{s}");
    }

    #[test]
    fn delta_program_stats_serialize_and_render_when_present() {
        let mut obs = sample();
        let doc = json::parse(&obs.to_json()).unwrap();
        let view = &doc.get("views").unwrap().as_arr().unwrap()[0];
        assert!(
            view.get("delta_program").is_none(),
            "absent until the program compiles"
        );
        obs.views[0].delta_program = Some(DeltaProgramStats {
            compiles: 2,
            binds: 9,
            hits: 7,
            variants: 2,
            compiled_at: std::time::SystemTime::now(),
        });
        let doc = json::parse(&obs.to_json()).unwrap();
        let dp = doc.get("views").unwrap().as_arr().unwrap()[0]
            .get("delta_program")
            .unwrap()
            .clone();
        assert_eq!(dp.get("compiles").unwrap().as_f64(), Some(2.0));
        assert_eq!(dp.get("binds").unwrap().as_f64(), Some(9.0));
        assert_eq!(dp.get("cache_hits").unwrap().as_f64(), Some(7.0));
        assert_eq!(dp.get("variants").unwrap().as_f64(), Some(2.0));
        let s = obs.render();
        assert!(
            s.contains("delta plans v: 2 variant(s), 2 compiles, 9 binds, 7 cache hits"),
            "{s}"
        );
    }

    #[test]
    fn render_surfaces_dropped_trace_events_even_with_empty_ring() {
        // Tracer off and ring drained, but events were evicted since the
        // last drain: the truncation must still be visible.
        let mut obs = sample();
        assert!(!obs.render().contains("trace:"), "baseline shows no trace");
        obs.trace_dropped = 9;
        let s = obs.render();
        assert!(
            s.contains("trace: off, 0 events retained, 9 dropped"),
            "{s}"
        );
    }
}
