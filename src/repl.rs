//! An interactive shell over a [`Database`]: SQL statements plus
//! maintenance meta-commands (`\refresh`, `\propagate`, …).
//!
//! The command engine is a pure function from input line to rendered
//! output so it can be unit-tested without a terminal; the `dvm-cli`
//! binary is a thin stdin loop over it.

use crate::{
    Admission, ChangeEvent, Database, DvmError, IngestConfig, IngestPipeline, Minimality,
    PolicyDriver, RefreshPolicy, Scenario, SqlOutcome, SqlSession,
};
use dvm_storage::{Schema, TableKind, Tuple, Value, ValueType};
use std::fmt::Write as _;

/// Interactive session state.
pub struct Repl {
    db: Database,
    scenario: Scenario,
    minimality: Minimality,
}

/// Result of processing one input line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplOutcome {
    /// Text to print.
    Output(String),
    /// The user asked to exit.
    Quit,
}

impl Default for Repl {
    fn default() -> Self {
        Self::new()
    }
}

impl Repl {
    /// A fresh shell over an empty database, creating views under
    /// [`Scenario::Combined`].
    pub fn new() -> Self {
        Repl {
            db: Database::new(),
            scenario: Scenario::Combined,
            minimality: Minimality::Weak,
        }
    }

    /// The underlying database (for tests and embedding).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Process one line of input (a SQL statement or a `\` meta-command)
    /// and render the response.
    pub fn process(&mut self, line: &str) -> ReplOutcome {
        let line = line.trim();
        if line.is_empty() {
            return ReplOutcome::Output(String::new());
        }
        if let Some(meta) = line.strip_prefix('\\') {
            return self.meta(meta.trim_end_matches(';'));
        }
        match self.run_sql(line) {
            Ok(out) => ReplOutcome::Output(out),
            Err(e) => ReplOutcome::Output(format!("error: {e}")),
        }
    }

    fn run_sql(&mut self, sql: &str) -> Result<String, DvmError> {
        let session = SqlSession::new(&self.db)
            .with_default_scenario(self.scenario)
            .with_default_minimality(self.minimality);
        let mut out = String::new();
        for outcome in session.run_script(sql)? {
            match outcome {
                SqlOutcome::TableCreated(n) => writeln!(out, "created table '{n}'").unwrap(),
                SqlOutcome::ViewCreated(n) => writeln!(
                    out,
                    "created view '{n}' (scenario {}, {} minimality)",
                    self.scenario.label(),
                    match self.minimality {
                        Minimality::Weak => "weak",
                        Minimality::Strong => "strong",
                    }
                )
                .unwrap(),
                SqlOutcome::Inserted(n) => writeln!(out, "inserted {n} row(s)").unwrap(),
                SqlOutcome::Deleted(n) => writeln!(out, "deleted {n} row(s)").unwrap(),
                SqlOutcome::Rows(bag) => {
                    for (t, m) in bag.sorted_entries() {
                        if m == 1 {
                            writeln!(out, "  {t}").unwrap();
                        } else {
                            writeln!(out, "  {t} ×{m}").unwrap();
                        }
                    }
                    writeln!(out, "({} row(s))", bag.len()).unwrap();
                }
            }
        }
        Ok(out)
    }

    fn meta(&mut self, cmd: &str) -> ReplOutcome {
        let mut parts = cmd.split_whitespace();
        let head = parts.next().unwrap_or("");
        let arg = parts.next();
        let render = |r: Result<String, DvmError>| match r {
            Ok(s) => ReplOutcome::Output(s),
            Err(e) => ReplOutcome::Output(format!("error: {e}")),
        };
        match head {
            "q" | "quit" | "exit" => ReplOutcome::Quit,
            "help" | "h" | "?" => ReplOutcome::Output(HELP.to_string()),
            "tables" => {
                let mut out = String::new();
                for t in self.db.catalog().tables() {
                    if t.kind() == TableKind::External {
                        writeln!(out, "  {} {} — {} rows", t.name(), t.schema(), t.len()).unwrap();
                    }
                }
                ReplOutcome::Output(out)
            }
            "views" => {
                let mut out = String::new();
                for name in self.db.view_names() {
                    let view = self.db.view(&name).expect("listed view");
                    let (log, dt) = self.db.aux_sizes(&name).unwrap_or((0, 0));
                    let shared = if self.db.is_shared_log_view(&name) {
                        ", shared log"
                    } else {
                        ""
                    };
                    writeln!(
                        out,
                        "  {name} [{}{shared}] — {} rows materialized, {log} logged, {dt} in differentials",
                        view.scenario().label(),
                        self.db.query_view(&name).map(|b| b.len()).unwrap_or(0),
                    )
                    .unwrap();
                }
                ReplOutcome::Output(out)
            }
            "scenario" => match arg {
                Some("IM") => self.set_scenario(Scenario::Immediate),
                Some("BL") => self.set_scenario(Scenario::BaseLog),
                Some("DT") => self.set_scenario(Scenario::DiffTable),
                Some("C") => self.set_scenario(Scenario::Combined),
                _ => ReplOutcome::Output("usage: \\scenario IM|BL|DT|C".to_string()),
            },
            "minimality" => match arg {
                Some("weak") => {
                    self.minimality = Minimality::Weak;
                    ReplOutcome::Output("minimality: weak".to_string())
                }
                Some("strong") => {
                    self.minimality = Minimality::Strong;
                    ReplOutcome::Output("minimality: strong".to_string())
                }
                _ => ReplOutcome::Output("usage: \\minimality weak|strong".to_string()),
            },
            "refresh" => render(self.view_op(arg, |db, v| {
                db.refresh(v)?;
                Ok(format!("refreshed '{v}'"))
            })),
            "propagate" => render(self.view_op(arg, |db, v| {
                db.propagate(v)?;
                Ok(format!("propagated '{v}'"))
            })),
            "partial" => render(self.view_op(arg, |db, v| {
                db.partial_refresh(v)?;
                Ok(format!("partially refreshed '{v}'"))
            })),
            "fresh" => render(self.view_op(arg, |db, v| {
                let bag = db.read_through(v)?;
                let mut out = String::new();
                for (t, m) in bag.sorted_entries() {
                    writeln!(out, "  {t} ×{m}").unwrap();
                }
                writeln!(out, "({} fresh row(s), view table untouched)", bag.len()).unwrap();
                Ok(out)
            })),
            "invariant" => {
                render(self.view_op(arg, |db, v| Ok(format!("{}", db.check_invariant(v)?))))
            }
            "explain" => render(self.view_op(arg, |db, v| Ok(db.explain_view(v)?))),
            "plan" => render(self.view_op(arg, |db, v| Ok(db.plan_view(v)?))),
            "invariants" => {
                let failures = match self.db.check_all_invariants() {
                    Ok(f) => f,
                    Err(e) => return ReplOutcome::Output(format!("error: {e}")),
                };
                if failures.is_empty() {
                    ReplOutcome::Output("all invariants hold".to_string())
                } else {
                    let mut out = String::new();
                    for f in failures {
                        writeln!(out, "  {f}").unwrap();
                    }
                    ReplOutcome::Output(out)
                }
            }
            "metrics" => match arg {
                // `\metrics` — the full observability registry, rendered.
                None => ReplOutcome::Output(self.db.observability().render()),
                // `\metrics json` — the same registry as one JSON document.
                Some("json") => ReplOutcome::Output(self.db.observability().to_json()),
                // `\metrics <view>` — one view's counters and percentiles.
                Some(v) => render(self.view_op(Some(v), |db, v| {
                    let m = db.view_metrics(v)?;
                    let h = db.view(v)?.metrics().histograms();
                    let mv = db.mv_table(v)?;
                    let lock = mv.lock_metrics();
                    let wh = lock.write_hold_histogram();
                    let pct = |h: &dvm_obs::HistogramSnapshot| {
                        format!(
                            "p50 {} / p95 {} / p99 {}",
                            dvm_obs::fmt_nanos(h.p50() as f64),
                            dvm_obs::fmt_nanos(h.p95() as f64),
                            dvm_obs::fmt_nanos(h.p99() as f64),
                        )
                    };
                    let st = db.staleness(v)?;
                    Ok(format!(
                        "makesafe:  {} ops, {:.1}µs mean, {}\n\
                         propagate: {} ops, {:.1}µs mean, {}\n\
                         refresh:   {} ops, {:.1}µs mean, {}\n\
                         downtime:  {:.3}ms total over {} holds, {}\n\
                         staleness: {} epochs pending, {} tuples backlog",
                        m.makesafe_count,
                        m.mean_makesafe_nanos() / 1e3,
                        pct(&h.makesafe),
                        m.propagate_count,
                        m.mean_propagate_nanos() / 1e3,
                        pct(&h.propagate),
                        m.refresh_count,
                        m.mean_refresh_nanos() / 1e3,
                        pct(&h.refresh),
                        lock.snapshot().write_hold_nanos as f64 / 1e6,
                        wh.count,
                        pct(&wh),
                        st.epochs_pending,
                        st.pending_volume,
                    ))
                })),
            },
            "open" => match arg {
                Some(path) => match Database::open(path) {
                    Ok(db) => {
                        let r = db.recovery_report().unwrap_or_default();
                        self.db = db;
                        ReplOutcome::Output(format!(
                            "opened '{path}': checkpoint lsn {}, {} wal record(s) ({} bytes) \
                             replayed, {} torn byte(s) dropped, in {}\n",
                            r.checkpoint_lsn,
                            r.wal_records_replayed,
                            r.wal_bytes_replayed,
                            r.torn_bytes_dropped,
                            dvm_obs::fmt_nanos(r.recovery_nanos as f64),
                        ))
                    }
                    Err(e) => ReplOutcome::Output(format!("error: {e}")),
                },
                None => ReplOutcome::Output("usage: \\open <dir>".to_string()),
            },
            "save" => match arg {
                // `\save <dir>` — export a standalone snapshot.
                Some(path) => render(
                    self.db
                        .save_to_dir(path)
                        .map(|()| format!("saved snapshot to '{path}'\n"))
                        .map_err(DvmError::from),
                ),
                // `\save` — checkpoint the attached durable directory.
                None => match self.db.checkpoint() {
                    Ok(lsn) => ReplOutcome::Output(format!("checkpoint cut at wal lsn {lsn}\n")),
                    Err(e) => ReplOutcome::Output(format!(
                        "error: {e} — usage: \\save <dir>, or \\open a durable directory first"
                    )),
                },
            },
            "wal" => match arg {
                Some("status") => match self.db.wal_status() {
                    Ok((s, ckpt)) => ReplOutcome::Output(format!(
                        "dir:        {}\n\
                         policy:     {}\n\
                         segments:   {} sealed ({} bytes) + active '{}' ({} bytes, {} synced)\n\
                         lsn:        last {}, synced {}\n\
                         checkpoint: lsn {}\n",
                        self.db
                            .durability_dir()
                            .map(|p| p.display().to_string())
                            .unwrap_or_default(),
                        s.policy,
                        s.sealed_segments,
                        s.sealed_bytes,
                        s.active_segment,
                        s.active_bytes,
                        s.active_synced_bytes,
                        s.last_lsn,
                        s.synced_lsn,
                        ckpt,
                    )),
                    Err(e) => ReplOutcome::Output(format!("error: {e}")),
                },
                Some("sync") => render(
                    self.db
                        .sync_wal()
                        .map(|()| "wal synced\n".to_string())
                        .map_err(DvmError::from),
                ),
                _ => ReplOutcome::Output("usage: \\wal status|sync".to_string()),
            },
            "trace" => match arg {
                Some("on") => {
                    self.db.tracer().set_enabled(true);
                    ReplOutcome::Output("trace: on".to_string())
                }
                Some("off") => {
                    self.db.tracer().set_enabled(false);
                    ReplOutcome::Output("trace: off".to_string())
                }
                Some("clear") => {
                    self.db.tracer().clear();
                    ReplOutcome::Output("trace: cleared".to_string())
                }
                Some("show") | None => {
                    let n = parts
                        .next()
                        .and_then(|s| s.parse::<usize>().ok())
                        .unwrap_or(40);
                    let tracer = self.db.tracer();
                    let events = tracer.recent(n);
                    if events.is_empty() {
                        let mut hint = if tracer.is_enabled() {
                            "no events journaled yet"
                        } else {
                            "no events — enable with \\trace on"
                        }
                        .to_string();
                        // An empty ring can still hide a truncation: say so.
                        if tracer.dropped() > 0 {
                            write!(hint, " ({} older events dropped)", tracer.dropped()).unwrap();
                        }
                        ReplOutcome::Output(hint)
                    } else {
                        let mut out = String::new();
                        for e in &events {
                            writeln!(out, "{}", e.render()).unwrap();
                        }
                        if tracer.dropped() > 0 {
                            writeln!(out, "({} older events dropped)", tracer.dropped()).unwrap();
                        }
                        ReplOutcome::Output(out)
                    }
                }
                Some(_) => ReplOutcome::Output("usage: \\trace on|off|show [n]|clear".to_string()),
            },
            "ingest" => match arg {
                // `\ingest` — the latest pipeline gauges.
                None => match self.db.observability().ingest {
                    Some(g) => ReplOutcome::Output(format!(
                        "queues: {} ({} queued now, peak depth {})\n\
                         events: {} submitted, {} ingested, {} shed\n\
                         batches: {} group-committed (max {} events), {} wal sync(s)\n",
                        g.queues,
                        g.queue_depth,
                        g.max_queue_depth,
                        g.submitted,
                        g.ingested,
                        g.shed,
                        g.batches,
                        g.max_batch,
                        g.wal_syncs,
                    )),
                    None => ReplOutcome::Output(
                        "no ingest activity yet — usage: \\ingest <table> <n> [block|shed]"
                            .to_string(),
                    ),
                },
                // `\ingest <table> <n> [block|shed]` — burst-ingest n
                // synthesized rows through 4 concurrent producer streams.
                Some(table) => {
                    let Some(n) = parts.next().and_then(|s| s.parse::<i64>().ok()) else {
                        return ReplOutcome::Output(
                            "usage: \\ingest <table> <n> [block|shed]".to_string(),
                        );
                    };
                    let admission = match parts.next() {
                        Some("shed") => Admission::Shed,
                        Some("block") | None => Admission::Block,
                        Some(_) => {
                            return ReplOutcome::Output(
                                "usage: \\ingest <table> <n> [block|shed]".to_string(),
                            )
                        }
                    };
                    ReplOutcome::Output(match self.run_ingest(table, n.max(0), admission) {
                        Ok(s) => s,
                        Err(e) => format!("error: {e}"),
                    })
                }
            },
            "sla" => match (arg, parts.next()) {
                (Some(view), Some(bound)) => {
                    let Ok(bound_ms) = bound.parse::<f64>() else {
                        return ReplOutcome::Output(
                            "usage: \\sla <view> <bound_ms> [ticks]".to_string(),
                        );
                    };
                    let ticks = parts
                        .next()
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or(50);
                    ReplOutcome::Output(match self.run_sla(view, bound_ms, ticks) {
                        Ok(s) => s,
                        Err(e) => format!("error: {e}"),
                    })
                }
                _ => ReplOutcome::Output("usage: \\sla <view> <bound_ms> [ticks]".to_string()),
            },
            "profile" => match arg {
                Some("on") => {
                    self.db.set_profiling(true);
                    ReplOutcome::Output(
                        "profile: on — maintenance ops now record operator trees".to_string(),
                    )
                }
                Some("off") => {
                    self.db.set_profiling(false);
                    ReplOutcome::Output("profile: off".to_string())
                }
                Some("show") | None => ReplOutcome::Output(self.db.profile_report().render()),
                Some("json") => ReplOutcome::Output(self.db.profile_report().to_json()),
                Some(_) => ReplOutcome::Output("usage: \\profile on|off|show|json".to_string()),
            },
            other => ReplOutcome::Output(format!("unknown command '\\{other}' — try \\help")),
        }
    }

    /// A deterministic row for ingest bursts: one value per column,
    /// derived from the event index.
    fn synth_tuple(schema: &Schema, i: i64) -> Tuple {
        Tuple::new(
            schema
                .columns()
                .iter()
                .enumerate()
                .map(|(c, col)| match col.ty {
                    ValueType::Int => Value::Int(i + c as i64),
                    ValueType::Double => Value::Double(i as f64),
                    ValueType::Str => Value::Str(format!("cdc-{i}").into()),
                    ValueType::Bool => Value::Bool(i % 2 == 0),
                })
                .collect(),
        )
    }

    /// `\ingest <table> <n>`: drive `n` synthesized inserts through a CDC
    /// pipeline with 4 concurrent producer streams and report its stats.
    fn run_ingest(&self, table: &str, n: i64, admission: Admission) -> Result<String, DvmError> {
        let schema = self
            .db
            .catalog()
            .require(table)
            .map_err(dvm_core::CoreError::from)?
            .schema()
            .clone();
        let cfg = IngestConfig {
            admission,
            ..IngestConfig::default()
        };
        let pipe =
            IngestPipeline::new(&self.db, &[table], cfg).expect("table existence checked above");
        const STREAMS: i64 = 4;
        let worker_result = std::thread::scope(|s| {
            let worker = s.spawn(|| pipe.run_worker());
            let producers: Vec<_> = (0..STREAMS)
                .map(|w| {
                    let prod = pipe.producer();
                    let schema = &schema;
                    s.spawn(move || {
                        let mut i = w;
                        while i < n {
                            let _ = prod
                                .submit(ChangeEvent::insert(table, Self::synth_tuple(schema, i)));
                            i += STREAMS;
                        }
                    })
                })
                .collect();
            for p in producers {
                let _ = p.join();
            }
            pipe.close();
            worker.join().expect("ingest worker panicked")
        });
        let stats = match worker_result {
            Ok(s) => s,
            Err(e) => return Ok(format!("error: {e}")),
        };
        Ok(format!(
            "ingested {} of {n} event(s) from {STREAMS} streams in {} group-committed \
             batch(es) (max batch {}, {} shed, {} wal sync(s))\n",
            stats.ingested, stats.batches, stats.max_batch, stats.shed, stats.wal_syncs,
        ))
    }

    /// `\sla <view> <bound_ms> [ticks]`: drive the view under the SLA
    /// deadline scheduler and report what it did.
    fn run_sla(&self, view: &str, bound_ms: f64, ticks: u64) -> Result<String, DvmError> {
        let bound = (bound_ms * 1e6).max(0.0) as u64;
        let mut driver = PolicyDriver::new(&self.db);
        driver.add_view(
            view,
            RefreshPolicy::Sla {
                staleness_bound: bound,
            },
        )?;
        let total = driver.run(ticks)?;
        let staleness = self
            .db
            .staleness(view)?
            .nanos_since_refresh
            .map(|n| dvm_obs::fmt_nanos(n as f64))
            .unwrap_or_else(|| "never refreshed".to_string());
        Ok(format!(
            "ran {ticks} tick(s) under sla(bound={}): {} refresh(es), {} propagate(s); \
             staleness now {staleness}\n",
            dvm_obs::fmt_nanos(bound as f64),
            total.refreshes,
            total.propagates,
        ))
    }

    fn set_scenario(&mut self, s: Scenario) -> ReplOutcome {
        self.scenario = s;
        ReplOutcome::Output(format!("new views will use scenario {}", s.label()))
    }

    fn view_op(
        &self,
        arg: Option<&str>,
        f: impl FnOnce(&Database, &str) -> Result<String, DvmError>,
    ) -> Result<String, DvmError> {
        match arg {
            Some(v) => f(&self.db, v),
            None => Ok("usage: \\<command> <view>".to_string()),
        }
    }
}

/// Help text shown by `\help`.
pub const HELP: &str = "\
SQL:   CREATE TABLE t (a INT, b STRING, c DOUBLE, d BOOL)
       CREATE VIEW v AS SELECT ... FROM ... WHERE ...
       INSERT INTO t VALUES (...), (...)    DELETE FROM t [WHERE ...]
       SELECT ... (FROM tables or views; view reads see the stale MV)
meta:  \\tables            list base tables
       \\views             list views with staleness info
       \\scenario IM|BL|DT|C   scenario for new views
       \\minimality weak|strong
       \\refresh <v>       bring the view fully up to date
       \\propagate <v>     fold logged changes into differential tables
       \\partial <v>       apply differential tables (minimal downtime)
       \\fresh <v>         read-through: fresh answer, zero downtime
       \\explain <v>       definition, materialization and refresh plans
       \\plan <v>          stored compiled \u{25bc}/\u{25b2} delta plans + compile/bind counters
       \\invariant <v> | \\invariants
       \\metrics           latency/staleness tables for every view
       \\metrics json      the same registry as JSON
       \\metrics <v>       one view's counters and percentiles
       \\open <dir>        open (or create) a durable database: replay checkpoint + WAL
       \\save [dir]        checkpoint the open directory, or export a snapshot to <dir>
       \\wal status|sync   write-ahead log status / force an fsync
       \\trace on|off      journal maintenance spans and events
       \\trace show [n]    print the most recent n events (default 40)
       \\trace clear       discard the journal
       \\profile on|off    profile maintenance: per-operator trees, pool/WAL attribution
       \\profile show      annotated plan trees + utilization + time series
       \\profile json      the same profiling report as JSON
       \\ingest <t> <n> [block|shed]  burst n CDC events through 4 streams, group-committed
       \\ingest            latest ingest-pipeline gauges (queues, batches, shed, wal syncs)
       \\sla <v> <ms> [ticks]  drive <v> under an SLA staleness bound (deadline scheduler)
       \\quit";

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(repl: &mut Repl, lines: &[&str]) -> String {
        let mut out = String::new();
        for l in lines {
            match repl.process(l) {
                ReplOutcome::Output(s) => out.push_str(&s),
                ReplOutcome::Quit => out.push_str("<quit>"),
            }
        }
        out
    }

    #[test]
    fn ddl_dml_and_query_flow() {
        let mut repl = Repl::new();
        let out = feed(
            &mut repl,
            &[
                "CREATE TABLE s (id INT, qty INT)",
                "CREATE VIEW big AS SELECT id FROM s WHERE qty > 5",
                "INSERT INTO s VALUES (1, 9), (2, 1)",
                "SELECT id FROM big",
            ],
        );
        assert!(out.contains("created table 's'"));
        assert!(out.contains("created view 'big' (scenario C"));
        assert!(out.contains("inserted 2 row(s)"));
        assert!(out.contains("(0 row(s))"), "stale view read: {out}");
        let out = feed(&mut repl, &["\\refresh big", "SELECT id FROM big"]);
        assert!(out.contains("refreshed 'big'"));
        assert!(out.contains("(1 row(s))"));
    }

    #[test]
    fn fresh_reads_without_refresh() {
        let mut repl = Repl::new();
        feed(
            &mut repl,
            &[
                "CREATE TABLE s (id INT)",
                "CREATE VIEW v AS SELECT id FROM s",
                "INSERT INTO s VALUES (7)",
            ],
        );
        let out = feed(&mut repl, &["\\fresh v"]);
        assert!(out.contains("1 fresh row(s)"), "{out}");
        // materialization untouched
        let out = feed(&mut repl, &["SELECT id FROM v"]);
        assert!(out.contains("(0 row(s))"));
    }

    #[test]
    fn meta_commands() {
        let mut repl = Repl::new();
        feed(&mut repl, &["CREATE TABLE t (a INT)"]);
        assert!(feed(&mut repl, &["\\tables"]).contains("t (a: INT) — 0 rows"));
        let out = feed(
            &mut repl,
            &["\\scenario BL", "CREATE VIEW v AS SELECT a FROM t"],
        );
        assert!(out.contains("scenario BL"));
        assert!(feed(&mut repl, &["\\views"]).contains("v [BL]"));
        assert!(feed(&mut repl, &["\\invariants"]).contains("all invariants hold"));
        assert!(feed(&mut repl, &["\\invariant v"]).contains("INV_BL"));
        assert!(feed(&mut repl, &["\\metrics v"]).contains("makesafe"));
        assert!(feed(&mut repl, &["\\metrics v"]).contains("p99"));
        let explained = feed(&mut repl, &["\\explain v"]);
        assert!(explained.contains("materialization plan"), "{explained}");
        assert!(explained.contains("Scan"), "{explained}");
        let plan = feed(&mut repl, &["\\plan v"]);
        assert!(plan.contains("delta program for v"), "{plan}");
        assert!(plan.contains("compiled \u{25bc}(L,Q) plan"), "{plan}");
        assert!(plan.contains("binds"), "{plan}");
        assert!(feed(&mut repl, &["\\minimality strong"]).contains("strong"));
        assert!(feed(&mut repl, &["\\help"]).contains("SQL:"));
        assert!(feed(&mut repl, &["\\nonsense"]).contains("unknown command"));
        assert_eq!(repl.process("\\quit"), ReplOutcome::Quit);
    }

    #[test]
    fn propagate_and_partial_via_repl() {
        let mut repl = Repl::new();
        feed(
            &mut repl,
            &[
                "CREATE TABLE t (a INT)",
                "CREATE VIEW v AS SELECT a FROM t",
                "INSERT INTO t VALUES (1)",
            ],
        );
        assert!(feed(&mut repl, &["\\propagate v"]).contains("propagated"));
        assert!(feed(&mut repl, &["\\partial v"]).contains("partially refreshed"));
        let out = feed(&mut repl, &["SELECT a FROM v"]);
        assert!(out.contains("(1 row(s))"));
    }

    #[test]
    fn metrics_registry_and_json() {
        let mut repl = Repl::new();
        feed(
            &mut repl,
            &[
                "CREATE TABLE t (a INT)",
                "CREATE VIEW v AS SELECT a FROM t",
                "INSERT INTO t VALUES (1)",
                "\\refresh v",
            ],
        );
        let table = feed(&mut repl, &["\\metrics"]);
        assert!(table.contains("p99"), "{table}");
        assert!(table.contains("epochs pending"), "{table}");
        assert!(table.contains("shared log"), "{table}");
        let json = feed(&mut repl, &["\\metrics json"]);
        let parsed = dvm_obs::json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("views").unwrap().as_arr().unwrap().len(),
            1,
            "{json}"
        );
    }

    #[test]
    fn trace_journal_flow() {
        let mut repl = Repl::new();
        feed(
            &mut repl,
            &["CREATE TABLE t (a INT)", "CREATE VIEW v AS SELECT a FROM t"],
        );
        assert!(feed(&mut repl, &["\\trace show"]).contains("\\trace on"));
        assert!(feed(&mut repl, &["\\trace on"]).contains("trace: on"));
        feed(&mut repl, &["INSERT INTO t VALUES (1)", "\\refresh v"]);
        let shown = feed(&mut repl, &["\\trace show 100"]);
        assert!(shown.contains("txn_execute"), "{shown}");
        assert!(shown.contains("refresh v"), "{shown}");
        assert!(feed(&mut repl, &["\\trace clear"]).contains("cleared"));
        assert!(feed(&mut repl, &["\\trace show"]).contains("no events"));
        assert!(feed(&mut repl, &["\\trace off"]).contains("trace: off"));
        assert!(feed(&mut repl, &["\\trace bogus"]).contains("usage"));
    }

    #[test]
    fn profile_flow() {
        let mut repl = Repl::new();
        feed(
            &mut repl,
            &[
                "CREATE TABLE t (a INT)",
                "CREATE VIEW v AS SELECT a FROM t WHERE a > 0",
                "INSERT INTO t VALUES (1), (2)",
            ],
        );
        let off = feed(&mut repl, &["\\profile show"]);
        assert!(off.contains("profiling: off"), "{off}");
        assert!(off.contains("no profiled maintenance operations"), "{off}");
        assert!(feed(&mut repl, &["\\profile on"]).contains("profile: on"));
        feed(&mut repl, &["\\propagate v"]);
        let shown = feed(&mut repl, &["\\profile show"]);
        assert!(shown.contains("profiling: on"), "{shown}");
        assert!(shown.contains("== propagate v"), "{shown}");
        assert!(shown.contains("Scan"), "{shown}");
        assert!(shown.contains("pool:"), "{shown}");
        let json = feed(&mut repl, &["\\profile json"]);
        let parsed = dvm_obs::json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("enabled"),
            Some(&dvm_obs::json::Value::Bool(true)),
            "{json}"
        );
        assert!(!parsed.get("ops").unwrap().as_arr().unwrap().is_empty());
        assert!(feed(&mut repl, &["\\profile off"]).contains("profile: off"));
        assert!(feed(&mut repl, &["\\profile bogus"]).contains("usage"));
    }

    #[test]
    fn durability_commands_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dvm-repl-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dirs = dir.display().to_string();

        let mut repl = Repl::new();
        // Durability commands need an attached directory.
        assert!(feed(&mut repl, &["\\wal status"]).contains("error:"));
        assert!(feed(&mut repl, &["\\save"]).contains("error:"));
        assert!(feed(&mut repl, &["\\open"]).contains("usage"));
        assert!(feed(&mut repl, &["\\wal bogus"]).contains("usage"));

        let out = feed(&mut repl, &[&format!("\\open {dirs}")]);
        assert!(out.contains("checkpoint lsn 0"), "{out}");
        feed(
            &mut repl,
            &[
                "CREATE TABLE t (a INT)",
                "CREATE VIEW v AS SELECT a FROM t",
                "INSERT INTO t VALUES (1), (2)",
            ],
        );
        let status = feed(&mut repl, &["\\wal status"]);
        assert!(status.contains("policy:     every(64)"), "{status}");
        assert!(status.contains("last 3, synced"), "{status}");
        assert!(feed(&mut repl, &["\\wal sync"]).contains("wal synced"));
        assert!(feed(&mut repl, &["\\save"]).contains("checkpoint cut at wal lsn 3"));
        feed(&mut repl, &["INSERT INTO t VALUES (3)", "\\refresh v"]);

        // A fresh shell reopens the directory and sees everything.
        let mut again = Repl::new();
        let out = feed(&mut again, &[&format!("\\open {dirs}")]);
        assert!(out.contains("checkpoint lsn 3"), "{out}");
        assert!(out.contains("2 wal record(s)"), "{out}");
        let rows = feed(&mut again, &["SELECT a FROM v"]);
        assert!(rows.contains("(3 row(s))"), "{rows}");
        assert!(feed(&mut again, &["\\invariants"]).contains("all invariants hold"));

        // `\save <dir>` exports a snapshot an unrelated shell can open.
        let export = std::env::temp_dir().join(format!("dvm-repl-save-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&export);
        let exports = export.display().to_string();
        assert!(feed(&mut again, &[&format!("\\save {exports}")]).contains("saved snapshot"));
        let mut third = Repl::new();
        feed(&mut third, &[&format!("\\open {exports}")]);
        assert!(feed(&mut third, &["SELECT a FROM t"]).contains("(3 row(s))"));

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&export);
    }

    #[test]
    fn ingest_burst_and_gauges() {
        let mut repl = Repl::new();
        feed(
            &mut repl,
            &[
                "CREATE TABLE t (a INT, s STRING, d DOUBLE, b BOOL)",
                "CREATE VIEW v AS SELECT a FROM t",
            ],
        );
        assert!(feed(&mut repl, &["\\ingest"]).contains("no ingest activity yet"));
        assert!(feed(&mut repl, &["\\ingest t"]).contains("usage"));
        assert!(feed(&mut repl, &["\\ingest nope 5"]).contains("error:"));
        let out = feed(&mut repl, &["\\ingest t 20"]);
        assert!(out.contains("ingested 20 of 20 event(s)"), "{out}");
        assert!(out.contains("group-committed"), "{out}");
        let gauges = feed(&mut repl, &["\\ingest"]);
        assert!(
            gauges.contains("20 submitted, 20 ingested, 0 shed"),
            "{gauges}"
        );
        // The rows really landed and the view can catch up.
        let rows = feed(&mut repl, &["\\refresh v", "SELECT a FROM v"]);
        assert!(rows.contains("(20 row(s))"), "{rows}");
        // The shared registry renders the same gauges.
        assert!(feed(&mut repl, &["\\metrics"]).contains("ingest:"));
    }

    #[test]
    fn sla_driver_holds_view_fresh_and_reports_typed_rejection() {
        let mut repl = Repl::new();
        feed(
            &mut repl,
            &[
                "CREATE TABLE t (a INT)",
                "CREATE VIEW v AS SELECT a FROM t",
                "INSERT INTO t VALUES (1), (2)",
            ],
        );
        assert!(feed(&mut repl, &["\\sla v"]).contains("usage"));
        // A 10µs bound is long since breached by REPL overhead, so the
        // deadline scheduler must refresh within the run.
        let out = feed(&mut repl, &["\\sla v 0.01 20"]);
        assert!(out.contains("ran 20 tick(s) under sla"), "{out}");
        assert!(out.contains("refresh(es)"), "{out}");
        let rows = feed(&mut repl, &["SELECT a FROM v"]);
        assert!(
            rows.contains("(2 row(s))"),
            "sla refreshed the view: {rows}"
        );
        // Immediate views cannot lag — the typed error names the scenario.
        feed(
            &mut repl,
            &["\\scenario IM", "CREATE VIEW w AS SELECT a FROM t"],
        );
        let err = feed(&mut repl, &["\\sla w 5"]);
        assert!(err.contains("cannot drive view 'w'"), "{err}");
        assert!(err.contains("IM"), "{err}");
    }

    #[test]
    fn sql_errors_are_reported_not_fatal() {
        let mut repl = Repl::new();
        let out = feed(&mut repl, &["SELEKT nonsense"]);
        assert!(out.contains("error:"), "{out}");
        // the shell keeps working
        let out = feed(&mut repl, &["CREATE TABLE t (a INT)"]);
        assert!(out.contains("created table"));
    }
}
