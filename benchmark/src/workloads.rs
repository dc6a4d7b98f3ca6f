//! The four workloads: set-up, the *deployed* run that yields the
//! end-to-end metrics, the restart phase, the oracle, and the *traced*
//! run that yields the per-layer metrics.
//!
//! A deployed run drives the system the way its users deploy it — ingest
//! worker, `PolicyDriver`, engine defaults; the benchmark sets no engine
//! knob — and only observes it from outside: it times its own calls and
//! reads public counters before and after them. Sizes, rates and cadences
//! below are frozen; README.md says why each was chosen.

use crate::gen::{self, BulkCycles, Sizes, SplitMix};
use crate::layers::{self, PolicyDriver, RefreshPolicy};
use crate::stats::Stamper;
use dvm::workload::{RetailGen, VIEW_SQL};
use dvm::{
    Admission, Database, DurabilityPolicy, IngestConfig, IngestPipeline, IngestStats, Minimality,
    Scenario, WalOptions,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

// ---- frozen constants ------------------------------------------------------

/// Staleness bound of the SLA views, and the limit (1.2 × bound) past
/// which a change counts as a miss.
const SLA_BOUND: Duration = Duration::from_millis(50);
const SLA_LIMIT_NS: u64 = 60_000_000;
/// Offered rate of `stream_sla`, events per second (≈ 40 % of what
/// `ingest_sat` sustains on the reference box).
const STREAM_RATE: f64 = 5_000.0;
/// Events per second the closed-loop feeder reserves sample space for.
const FEED_RESERVE_RATE: f64 = 50_000.0;
/// Maintainer tick period on the stream workloads.
const TICK: Duration = Duration::from_millis(1);
/// The maintainer serves one dashboard read of its views every this many
/// ticks, so the stream workloads have a reader at the end of the path.
const STREAM_READ_EVERY: u64 = 8;
pub const INGEST: IngestConfig = IngestConfig {
    queue_capacity: 1024,
    max_batch: 64,
    admission: Admission::Block,
};
/// Policy 1 of `readers_fleet`: propagate every `K` transactions, refresh
/// every `M`; the shared log is vacuumed after each refresh.
const FLEET_K: u64 = 10;
const FLEET_M: u64 = 100;
/// `readers_fleet` syncs its WAL every this many appends.
const FLEET_SYNC_EVERY: u64 = 32;
/// The reader asks for a `read_through_where` slice after every
/// this-many-th pass over the views (18 `query_view` calls to one slice).
const FLEET_SLICE_EVERY: u64 = 3;
/// Set-up and restart are short, so each is repeated a fixed number of
/// times and its median reported (once in a smoke run).
pub const SETUP_REPEATS: usize = 31;
pub const OPEN_REPEATS: usize = 15;
/// How long the stream workloads may take to drain after the last send.
const DRAIN_LIMIT: Duration = Duration::from_secs(3);

const V_AGG_SQL: &str =
    "CREATE VIEW V_agg AS SELECT custId, SUM(quantity) FROM sales GROUP BY custId";

// ---- workloads -------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    StreamSla,
    IngestSat,
    BulkRefresh,
    ReadersFleet,
}

/// How a view is maintained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum How {
    /// `Scenario::Combined`, private logs.
    Combined,
    /// `Scenario::Combined` on the shared epoch log.
    Shared,
    /// `Scenario::BaseLog`.
    BaseLog,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::StreamSla,
        Kind::IngestSat,
        Kind::BulkRefresh,
        Kind::ReadersFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::StreamSla => "stream_sla",
            Kind::IngestSat => "ingest_sat",
            Kind::BulkRefresh => "bulk_refresh",
            Kind::ReadersFleet => "readers_fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn sizes(self) -> Sizes {
        let (customers, sales) = match self {
            Kind::StreamSla | Kind::IngestSat => (500, 5_000),
            Kind::BulkRefresh => (2_000, 20_000),
            Kind::ReadersFleet => (1_000, 10_000),
        };
        Sizes { customers, sales }
    }

    /// The WAL flush policy users of this workload run with; `None` is an
    /// in-memory database.
    pub fn flush_policy(self) -> Option<DurabilityPolicy> {
        match self {
            Kind::StreamSla | Kind::IngestSat => Some(DurabilityPolicy::Always),
            Kind::BulkRefresh => None,
            Kind::ReadersFleet => Some(DurabilityPolicy::EveryN(FLEET_SYNC_EVERY)),
        }
    }

    fn views(self) -> Vec<(String, How)> {
        match self {
            Kind::ReadersFleet => {
                let mut v: Vec<(String, How)> = (0..4)
                    .map(|i| {
                        let score = if i % 2 == 0 { "High" } else { "Low" };
                        let sql = format!(
                            "CREATE VIEW seg_{i} AS \
                             SELECT c.custId, c.name, s.itemNo, s.quantity \
                             FROM customer c, sales s \
                             WHERE c.custId = s.custId AND c.score = '{score}' \
                             AND s.quantity != {i}"
                        );
                        (sql, How::Shared)
                    })
                    .collect();
                v.push((V_AGG_SQL.to_string(), How::Combined));
                v.push((VIEW_SQL.to_string(), How::BaseLog));
                v
            }
            _ => vec![
                (VIEW_SQL.to_string(), How::Combined),
                (V_AGG_SQL.to_string(), How::Combined),
            ],
        }
    }
}

/// How long a run warms up and measures, and what it may do besides.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub warm: Duration,
    pub measure: Duration,
    /// Sample `Database::observability()` while the run is on. Only the
    /// `--trace 1` deployed run does: a snapshot walks every view.
    pub sample_obs: bool,
}

// ---- set-up ----------------------------------------------------------------

/// A loaded database with its views created, refreshed and checkpointed.
pub struct Built {
    pub db: Database,
    pub gen: RetailGen,
    pub views: Vec<(String, How)>,
    pub wal: Option<(PathBuf, WalOptions)>,
    pub setup_s: f64,
    pub parse_lower_us: f64,
    pub compile_ms: f64,
}

pub fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

pub fn ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// Load tables, parse and lower the view SQL, create the views, refresh
/// them, cut the baseline checkpoint — the whole of `setup_s`. `policy`
/// overrides the workload's flush policy (the traced run opens its WAL
/// `Off` and syncs by hand).
pub fn build(kind: Kind, seed: u64, dir: &Path, policy: Option<DurabilityPolicy>) -> Built {
    let start = Instant::now();
    let wal = policy.map(|policy| {
        let options = WalOptions {
            policy,
            ..WalOptions::default()
        };
        (dir.to_path_buf(), options)
    });
    let db = match &wal {
        Some((dir, options)) => {
            let _ = std::fs::remove_dir_all(dir);
            Database::open_with_options(dir, *options).expect("open durable directory")
        }
        None => Database::new(),
    };
    let mut gen = gen::retail(kind.sizes(), seed);
    gen.install(&db).expect("load tables");
    let (mut parse, mut create) = (Duration::ZERO, Duration::ZERO);
    let mut views = Vec::new();
    for (sql, how) in kind.views() {
        let t = Instant::now();
        let (name, definition) = layers::parse_lower(&sql);
        parse += t.elapsed();
        let t = Instant::now();
        match how {
            How::Shared => db.create_view_shared(&name, definition, Minimality::Weak),
            How::Combined => {
                db.create_view_with(&name, definition, Scenario::Combined, Minimality::Weak)
            }
            How::BaseLog => {
                db.create_view_with(&name, definition, Scenario::BaseLog, Minimality::Weak)
            }
        }
        .expect("create view");
        create += t.elapsed();
        views.push((name, how));
    }
    db.refresh_all().expect("initial refresh");
    if wal.is_some() {
        // `install` loads by bulk replace, which bypasses the WAL: the
        // checkpoint is what makes the loaded state recoverable.
        db.checkpoint().expect("baseline checkpoint");
    }
    Built {
        db,
        gen,
        wal,
        setup_s: start.elapsed().as_secs_f64(),
        parse_lower_us: us(parse) / views.len() as f64,
        compile_ms: ms(create),
        views,
    }
}

// ---- what a deployed run yields ---------------------------------------------

/// Samples and counts of one deployed run, already cut to the measured
/// window. Timings are in the unit their metric reports.
#[derive(Default)]
pub struct Run {
    /// Length of the measured window.
    pub window_s: f64,
    /// Base rows committed in the window.
    pub rows: u64,
    pub visible_ms: Vec<f64>,
    /// Changes in the window later than the SLA limit or never visible,
    /// out of `sla_events` (both 0 where no view is under an SLA).
    pub sla_misses: u64,
    pub sla_events: u64,
    /// Wall of one commit call per transaction in it: an `execute` call
    /// of the run, or (where the ingest worker commits in the run) an
    /// `execute_batch` call of the restart phase.
    pub commit_us: Vec<f64>,
    /// From an event's start to the first time its producer, looking
    /// after a `submit`, sees `ingested` cover it (the mean over
    /// `max_batch` consecutive events).
    pub commit_wait_us: Vec<f64>,
    /// Every `Producer::submit` call.
    pub submit_us: Vec<f64>,
    /// Time inside maintenance calls (`tick`, or `propagate` + `refresh`).
    pub maint_busy_s: f64,
    /// Log tuples those calls turned into visible MV changes.
    pub maint_tuples: u64,
    /// MV write-lock hold per refresh, by view.
    pub downtime_us: Vec<Vec<f64>>,
    /// One reader pass: `query_view` over every view of the workload.
    pub read_pass_us: Vec<f64>,
    /// Every single reader call, `read_through_where` slices too.
    pub read_call_us: Vec<f64>,
    pub recovery_ms: f64,
    pub opens: usize,
    pub replay_us_per_tx: f64,
    pub attempted: u64,
    pub failed: u64,
    /// What makes the run incorrect, beyond operations that failed.
    pub problems: Vec<String>,

    pub tick_us: Vec<f64>,
    pub tick_gap_us: Vec<f64>,
    pub gen_late_us: Vec<f64>,
    pub ingest: Option<IngestStats>,
    pub queue_depth_at_end: u64,
    pub mv_read_wait_us: f64,
    pub mv_write_hold_us: f64,
    pub obs: ObsSamples,
    /// Committed transactions per maintenance step, for the traced run.
    pub shape: Shape,
}

impl Run {
    pub fn check<T, E: std::fmt::Debug>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("dvmbench: {what} failed: {e:?}");
                None
            }
        }
    }

    /// Operations outside the measured window count as attempted and
    /// failed like any other; only their samples are dropped.
    fn count(&mut self, unmeasured: &Run) {
        self.attempted += unmeasured.attempted;
        self.failed += unmeasured.failed;
    }

    pub fn problem(&mut self, what: String) {
        self.failed += 1;
        eprintln!("dvmbench: {what}");
        self.problems.push(what);
    }
}

/// Cadence the traced run copies from the deployed one.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Transactions per commit call.
    pub batch: usize,
    /// Commit calls per propagate, and per refresh.
    pub propagate_every: u64,
    pub refresh_every: u64,
    /// Commit calls per WAL sync.
    pub sync_every: u64,
}

impl Default for Shape {
    fn default() -> Self {
        Shape {
            batch: 1,
            propagate_every: 1,
            refresh_every: 1,
            sync_every: 1,
        }
    }
}

/// State sizes and hit ratios read from the observability JSON by key.
#[derive(Default)]
pub struct ObsSamples {
    pub log_tuples_max: Option<f64>,
    pub dt_tuples_max: Option<f64>,
    pub shared_log_entries_max: Option<f64>,
    pub plan_hit_ratio: Option<f64>,
    pub join_cache_hit_ratio: Option<f64>,
}

impl ObsSamples {
    /// Raise the state-size maxima from one snapshot, and hand it back.
    fn sample(&mut self, db: &Database) -> layers::Json {
        let j = layers::observability(db);
        let raise = |slot: &mut Option<f64>, v: Option<f64>| {
            if let Some(v) = v {
                *slot = Some(slot.map_or(v, |m| m.max(v)));
            }
        };
        let sum = |path: &[&str]| {
            let nums = layers::view_nums(&j, path);
            (!nums.is_empty()).then(|| nums.iter().sum::<f64>())
        };
        raise(&mut self.log_tuples_max, sum(&["log_tuples"]));
        raise(&mut self.dt_tuples_max, sum(&["dt_tuples"]));
        let shared = layers::num_at(&j, &["shared_log", "entries"]);
        raise(&mut self.shared_log_entries_max, shared);
        j
    }

    fn finish(&mut self, db: &Database) {
        let j = self.sample(db);
        let ratio = |num: f64, den: f64| (den > 0.0).then(|| num / den);
        let hits: f64 = layers::view_nums(&j, &["delta_program", "cache_hits"])
            .iter()
            .sum();
        let binds: f64 = layers::view_nums(&j, &["delta_program", "binds"])
            .iter()
            .sum();
        self.plan_hit_ratio = ratio(hits, binds);
        let hits = layers::num_at(&j, &["join_cache", "hits"]);
        let misses = layers::num_at(&j, &["join_cache", "misses"]);
        self.join_cache_hit_ratio = hits.zip(misses).and_then(|(h, m)| ratio(h, h + m));
    }
}

/// Reads each view's refresh count and MV write-lock totals before and
/// after a maintenance step — which views the step refreshed, and for how
/// long each held its MV write lock (the view's downtime).
struct Watch<'a> {
    db: &'a Database,
    views: Vec<&'a str>,
    before: Vec<(u64, u64, u64)>,
}

impl<'a> Watch<'a> {
    fn new(db: &'a Database, views: &'a [(String, How)]) -> Self {
        Watch {
            db,
            views: views.iter().map(|(n, _)| n.as_str()).collect(),
            before: Vec::new(),
        }
    }

    fn read(&self) -> Vec<(u64, u64, u64)> {
        self.views
            .iter()
            .map(|v| {
                let refreshes = self.db.view_metrics(v).expect("view exists").refresh_count;
                let lock = self.db.mv_table(v).expect("view exists");
                let lock = lock.lock_metrics().snapshot();
                (refreshes, lock.write_hold_nanos, lock.write_acquisitions)
            })
            .collect()
    }

    fn before(&mut self) {
        self.before = self.read();
    }

    /// Which views refreshed since [`Watch::before`]; pushes one downtime
    /// sample (µs per write hold) to `downtime_us[v]` for each view `v`
    /// that took its MV lock.
    fn after(&mut self, downtime_us: &mut Vec<Vec<f64>>) -> Vec<bool> {
        let now = self.read();
        downtime_us.resize_with(now.len(), Vec::new);
        now.iter()
            .zip(&self.before)
            .zip(downtime_us)
            .map(|((n, b), samples)| {
                if n.2 > b.2 {
                    samples.push((n.1 - b.1) as f64 / (n.2 - b.2) as f64 / 1e3);
                }
                n.0 > b.0
            })
            .collect()
    }

    /// Mean MV read wait per read and write hold per acquisition, µs,
    /// over all views since the database was built.
    fn lock_means(&self) -> (f64, f64) {
        let (mut wait, mut reads, mut hold, mut writes) = (0u64, 0u64, 0u64, 0u64);
        for v in &self.views {
            let lock = self.db.mv_table(v).expect("view exists");
            let s = lock.lock_metrics().snapshot();
            wait += s.read_block_nanos;
            reads += s.read_acquisitions;
            hold += s.write_hold_nanos;
            writes += s.write_acquisitions;
        }
        (
            wait as f64 / reads.max(1) as f64 / 1e3,
            hold as f64 / writes.max(1) as f64 / 1e3,
        )
    }
}

/// One reader pass: `query_view` over every view, each call timed into
/// `out.read_call_us` and their sum into `out.read_pass_us`. A read
/// sample is a pass because single calls on views of different sizes,
/// pooled, put the median in the gap between the views' modes.
fn read_pass(db: &Database, views: &[(String, How)], out: &mut Run) {
    let mut pass_us = 0.0;
    for (name, _) in views {
        let call = Instant::now();
        let rows = db.query_view(name).map(|b| black_box(b.len()));
        let call_us = us(call.elapsed());
        if out.check("query_view", rows).is_some() {
            out.read_call_us.push(call_us);
            pass_us += call_us;
        }
    }
    out.read_pass_us.push(pass_us);
}

/// Where the thread that maintains also reads, it comes to its read from
/// other work or from sleep: the first pass pays for cold caches and a
/// cold allocator, which on this box differ by a third from one process
/// to the next, so the sample is the second of two back-to-back.
fn warm_read_pass(db: &Database, views: &[(String, How)], out: &mut Run) {
    let mut cold = Run::default();
    read_pass(db, views, &mut cold);
    out.count(&cold);
    read_pass(db, views, out);
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

// ---- stream_sla and ingest_sat ----------------------------------------------

/// What the feeder thread hands back.
struct Feed {
    /// Start of change `i + 1`: its due time (open loop) or the start of
    /// its `submit` call (closed loop).
    starts_ns: Vec<u64>,
    submit_us: Vec<f64>,
    late_us: Vec<f64>,
    refused: u64,
    /// `(ingested, time)` as the feeder saw it after each `submit`.
    commits: Stamper,
}

/// Submit single-row events until `total` has passed: on a fixed
/// schedule of `rate` events per second when given (open loop — a late
/// generator sends at once and the lateness is recorded), else flat out.
/// `ingested` reads the pipeline's count of committed events.
fn feed(
    producer: layers::Producer,
    ingested: impl Fn() -> u64,
    gen: &mut RetailGen,
    t0: Instant,
    total: Duration,
    rate: Option<f64>,
) -> Feed {
    // One sample per event and kind: reserved up front (untouched pages
    // cost nothing), so `peak_rss_mb` does not also carry the copies a
    // growing vector leaves behind.
    let expected = (total.as_secs_f64() * rate.unwrap_or(FEED_RESERVE_RATE)) as usize;
    let mut out = Feed {
        starts_ns: Vec::with_capacity(expected),
        submit_us: Vec::with_capacity(expected),
        late_us: Vec::with_capacity(if rate.is_some() { expected } else { 0 }),
        refused: 0,
        commits: Stamper::new(1),
    };
    let total_ns = total.as_nanos() as u64;
    for i in 0u64.. {
        let event = gen::stream_event(gen, i);
        let start_ns = match rate {
            Some(rate) => {
                let due_ns = (i as f64 * 1e9 / rate) as u64;
                if due_ns >= total_ns {
                    break;
                }
                if let Some(wait) = due_ns.checked_sub(ns(t0)) {
                    std::thread::sleep(Duration::from_nanos(wait));
                }
                out.late_us.push(ns(t0).saturating_sub(due_ns) as f64 / 1e3);
                due_ns
            }
            None => {
                let now = ns(t0);
                if now >= total_ns {
                    break;
                }
                now
            }
        };
        let call = Instant::now();
        let accepted = layers::submit(&producer, event);
        out.submit_us.push(us(call.elapsed()));
        out.starts_ns.push(start_ns);
        if !accepted {
            out.refused += 1;
        }
        out.commits.step(ingested(), &[true], ns(t0));
    }
    out
}

/// One maintainer tick as seen from outside.
struct Tick {
    start_ns: u64,
    busy_ns: u64,
    /// Events committed when the tick began; visible frontier after it.
    committed: u64,
    frontier: u64,
}

pub fn run_stream(built: &mut Built, open_loop: bool, plan: Plan) -> Run {
    let Built { db, gen, views, .. } = built;
    let (db, views) = (&*db, &*views);
    let mut run = Run::default();
    let total = plan.warm + plan.measure;
    let (warm_ns, total_ns) = (plan.warm.as_nanos() as u64, total.as_nanos() as u64);
    let in_window = |t: u64| (warm_ns..total_ns).contains(&t);
    let mut ticks: Vec<Tick> = Vec::new();
    let mut stamper = Stamper::new(views.len());

    let (feed, stats) = {
        let pipe = IngestPipeline::new(db, &["sales"], INGEST).expect("sales exists");
        let mut driver = PolicyDriver::new(db);
        for (name, _) in views {
            let policy = RefreshPolicy::Sla {
                staleness_bound: SLA_BOUND.as_nanos() as u64,
            };
            driver
                .add_view(name, policy)
                .expect("SLA policy fits Combined");
        }
        let mut watch = Watch::new(db, views);
        let producer = pipe.producer();
        let rate = open_loop.then_some(STREAM_RATE);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let worker = s.spawn(|| pipe.run_worker());
            let ingested = || pipe.stats().ingested;
            let feeder = s.spawn(move || feed(producer, ingested, gen, t0, total, rate));
            let mut closed = false;
            for tick_no in 0u64.. {
                let start_ns = ns(t0);
                // Samples outside the measured window are dropped.
                let mut sink = Run::default();
                let out = if in_window(start_ns) {
                    &mut run
                } else {
                    &mut sink
                };
                let committed = pipe.stats().ingested;
                watch.before();
                let call = Instant::now();
                let ticked = driver.tick();
                let busy_ns = call.elapsed().as_nanos() as u64;
                let end_ns = ns(t0);
                out.check("tick", ticked);
                let refreshed = watch.after(&mut out.downtime_us);
                stamper.step(committed, &refreshed, end_ns);
                ticks.push(Tick {
                    start_ns,
                    busy_ns,
                    committed,
                    frontier: stamper.frontier(),
                });
                if tick_no % STREAM_READ_EVERY == 0 {
                    warm_read_pass(db, views, out);
                }
                run.count(&sink);
                if plan.sample_obs && tick_no % 64 == 0 {
                    run.obs.sample(db);
                }
                if feeder.is_finished() {
                    if !closed {
                        run.queue_depth_at_end = pipe.gauges().queue_depth;
                        pipe.close();
                        closed = true;
                    }
                    let drained =
                        worker.is_finished() && stamper.frontier() >= pipe.stats().ingested;
                    if drained {
                        break;
                    }
                    if ns(t0) > total_ns + DRAIN_LIMIT.as_nanos() as u64 {
                        run.problem(format!(
                            "refresh stalled: {} of {} committed events were not visible {:?} after the last send",
                            pipe.stats().ingested - stamper.frontier(),
                            pipe.stats().ingested,
                            DRAIN_LIMIT
                        ));
                        break;
                    }
                }
                if let Some(rest) = TICK.checked_sub(Duration::from_nanos(ns(t0) - start_ns)) {
                    std::thread::sleep(rest);
                }
            }
            let feed = feeder.join().expect("feeder thread");
            let stats = worker.join().expect("ingest worker thread");
            (feed, run.check("ingest worker", stats))
        })
    };

    // Cut the rest to the measured window [warm, total) too.
    let window: Vec<&Tick> = ticks.iter().filter(|t| in_window(t.start_ns)).collect();
    if let (Some(first), Some(last)) = (window.first(), window.last()) {
        run.window_s = (last.start_ns - first.start_ns) as f64 / 1e9;
        run.rows = last.committed - first.committed;
        run.maint_tuples = last.frontier - first.frontier;
    }
    run.maint_busy_s = window.iter().map(|t| t.busy_ns).sum::<u64>() as f64 / 1e9;
    run.tick_us = window.iter().map(|t| t.busy_ns as f64 / 1e3).collect();
    run.tick_gap_us = window
        .windows(2)
        .map(|w| (w[1].start_ns - w[0].start_ns) as f64 / 1e3)
        .collect();
    for (start, latency) in stamper.latencies(&feed.starts_ns) {
        if in_window(start) {
            run.sla_events += 1;
            if let Some(l) = latency {
                run.visible_ms.push(l as f64 / 1e6);
            }
            if latency.is_none_or(|l| l > SLA_LIMIT_NS) {
                run.sla_misses += 1;
            }
        }
    }
    let cut_by_start = |values: &[f64]| -> Vec<f64> {
        let starts = feed.starts_ns.iter().zip(values);
        starts
            .filter(|(&t, _)| in_window(t))
            .map(|(_, &v)| v)
            .collect()
    };
    run.submit_us = cut_by_start(&feed.submit_us);
    run.gen_late_us = cut_by_start(&feed.late_us);
    // The feeder stops looking when it stops sending, so the last events
    // have no commit time; they are a batch or a queue's worth. It looks
    // once per send, which on the open loop puts every commit time on a
    // 200 µs grid; the mean over `max_batch` consecutive events is off
    // the grid, and the median of those is not moved by a stall.
    let commits: Vec<f64> = feed
        .commits
        .latencies(&feed.starts_ns)
        .into_iter()
        .filter_map(|(start, latency)| latency.filter(|_| in_window(start)))
        .map(|l| l as f64 / 1e3)
        .collect();
    run.commit_wait_us = commits
        .chunks_exact(INGEST.max_batch)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    run.attempted += feed.starts_ns.len() as u64;
    run.failed += feed.refused;
    if let Some(stats) = stats {
        let submitted = feed.starts_ns.len() as u64 - feed.refused;
        if stats.ingested != submitted || stats.shed != 0 {
            run.problem(format!(
                "ingested {} of {submitted} submitted, {} shed",
                stats.ingested, stats.shed
            ));
        }
        let refreshes = db
            .view_metrics(&views[0].0)
            .map_or(1, |m| m.refresh_count.max(1));
        let batch = (stats.ingested as f64 / stats.batches.max(1) as f64)
            .round()
            .max(1.0);
        let per_refresh = stats.ingested as f64 / refreshes as f64 / batch;
        run.shape = Shape {
            batch: batch as usize,
            propagate_every: per_refresh.round().max(1.0) as u64,
            refresh_every: per_refresh.round().max(1.0) as u64,
            sync_every: 1,
        };
        run.ingest = Some(stats);
    }
    // A queue still full at the last send means the offered rate is above
    // what the system sustains; anything less is a stall it rode out.
    if open_loop && run.queue_depth_at_end >= INGEST.queue_capacity as u64 {
        run.problem(format!(
            "offered rate is not sustainable: {} events queued at the last send",
            run.queue_depth_at_end
        ));
    }
    let watch = Watch::new(db, views);
    (run.mv_read_wait_us, run.mv_write_hold_us) = watch.lock_means();
    if plan.sample_obs {
        run.obs.finish(db);
    }
    run
}

// ---- bulk_refresh -------------------------------------------------------------

pub fn run_bulk(built: &mut Built, plan: Plan) -> Run {
    let Built { db, gen, views, .. } = built;
    let (db, views) = (&*db, &*views);
    let mut run = Run::default();
    let total_ns = (plan.warm + plan.measure).as_nanos() as u64;
    let warm_ns = plan.warm.as_nanos() as u64;
    let mut cycles = BulkCycles::new();
    let mut watch = Watch::new(db, views);
    let (mut first_ns, mut last_ns) = (None, 0);
    let t0 = Instant::now();
    for cycle in 0u64.. {
        let tx = cycles.next(gen);
        let start_ns = ns(t0);
        if start_ns >= total_ns {
            break;
        }
        let measured = start_ns >= warm_ns;
        let mut sink = Run::default();
        let out = if measured { &mut run } else { &mut sink };
        if measured {
            first_ns.get_or_insert(start_ns);
        }

        let call = Instant::now();
        let committed = db.execute(&tx);
        out.commit_us.push(us(call.elapsed()));
        out.check("execute", committed);

        watch.before();
        let call = Instant::now();
        for (name, _) in views {
            let r = db.propagate(name);
            out.check("propagate", r);
        }
        for (name, _) in views {
            let r = db.refresh(name);
            out.check("refresh", r);
        }
        out.maint_busy_s += call.elapsed().as_secs_f64();
        out.visible_ms.push((ns(t0) - start_ns) as f64 / 1e6);
        watch.after(&mut out.downtime_us);

        warm_read_pass(db, views, out);
        out.rows += tx.change_volume();
        run.count(&sink);
        last_ns = ns(t0);
        if plan.sample_obs && cycle % 16 == 0 {
            run.obs.sample(db);
        }
    }
    run.window_s = (last_ns - first_ns.unwrap_or(last_ns)) as f64 / 1e9;
    run.maint_tuples = run.rows;
    (run.mv_read_wait_us, run.mv_write_hold_us) = watch.lock_means();
    if plan.sample_obs {
        run.obs.finish(db);
    }
    run
}

// ---- readers_fleet ------------------------------------------------------------

pub fn fleet_driver<'a>(db: &'a Database, views: &[(String, How)]) -> PolicyDriver<'a> {
    let mut driver = PolicyDriver::new(db);
    for (name, how) in views {
        let policy = match how {
            How::BaseLog => RefreshPolicy::PeriodicRefresh { every: FLEET_M },
            _ => RefreshPolicy::Policy1 {
                k: FLEET_K,
                m: FLEET_M,
            },
        };
        driver.add_view(name, policy).expect("policy fits scenario");
    }
    driver
}

/// What the reader thread of `readers_fleet` does until told to stop:
/// passes over the views, and after every `FLEET_SLICE_EVERY`-th a
/// `read_through_where` slice of one customer, on each view in turn.
/// Returns the samples of the passes that began inside the window.
fn fleet_reader(
    db: &Database,
    views: &[(String, How)],
    seed: u64,
    stop: &AtomicBool,
    in_window: impl Fn() -> bool,
) -> Run {
    let customers = Kind::ReadersFleet.sizes().customers as u64;
    let mut pick = SplitMix(seed);
    let mut run = Run::default();
    for pass in 1u64.. {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let mut sink = Run::default();
        let out = if in_window() { &mut run } else { &mut sink };
        read_pass(db, views, out);
        if pass % FLEET_SLICE_EVERY == 0 {
            let slices = pass / FLEET_SLICE_EVERY;
            let view = &views[(slices % views.len() as u64) as usize].0;
            let who = layers::customer_slice((pick.next() % customers) as i64);
            let call = Instant::now();
            let rows = db
                .read_through_where(view, &who)
                .map(|b| black_box(b.len()));
            let call_us = us(call.elapsed());
            if out.check("read_through_where", rows).is_some() {
                out.read_call_us.push(call_us);
            }
        }
        run.count(&sink);
    }
    run
}

pub fn run_fleet(built: &mut Built, plan: Plan) -> Run {
    let Built { db, gen, views, .. } = built;
    let (db, views) = (&*db, &*views);
    let mut run = Run::default();
    let total_ns = (plan.warm + plan.measure).as_nanos() as u64;
    let warm_ns = plan.warm.as_nanos() as u64;
    let in_window = |t: u64| (warm_ns..total_ns).contains(&t);
    let stop = AtomicBool::new(false);
    let mut stamper = Stamper::new(views.len());
    let mut starts_ns = Vec::new();
    let (mut first_ns, mut last_ns, mut frontier_at_first) = (None, 0, 0);

    let reads = {
        let mut driver = fleet_driver(db, views);
        let mut watch = Watch::new(db, views);
        let t0 = Instant::now();
        let reads = std::thread::scope(|s| {
            let reader =
                s.spawn(|| fleet_reader(db, views, plan.seed, &stop, || in_window(ns(t0))));
            for n in 1u64.. {
                let tx = gen::fleet_tx(gen);
                let start_ns = ns(t0);
                if start_ns >= total_ns {
                    break;
                }
                let measured = in_window(start_ns);
                let mut sink = Run::default();
                let out = if measured { &mut run } else { &mut sink };
                if measured && first_ns.is_none() {
                    first_ns = Some(start_ns);
                    frontier_at_first = stamper.frontier();
                }
                let call = Instant::now();
                let committed = db.execute(&tx);
                out.commit_us.push(us(call.elapsed()));
                out.check("execute", committed);
                starts_ns.push(start_ns);

                watch.before();
                let call = Instant::now();
                let ticked = driver.tick();
                let busy = call.elapsed();
                out.check("tick", ticked);
                out.tick_us.push(us(busy));
                out.maint_busy_s += busy.as_secs_f64();
                let refreshed = watch.after(&mut out.downtime_us);
                stamper.step(n, &refreshed, ns(t0));
                if n % FLEET_M == 0 {
                    db.vacuum_shared_log();
                }
                out.rows += tx.change_volume();
                run.count(&sink);
                last_ns = ns(t0);
                if plan.sample_obs && n % 256 == 0 {
                    run.obs.sample(db);
                }
            }
            stop.store(true, Ordering::Release);
            reader.join().expect("reader thread")
        });
        (run.mv_read_wait_us, run.mv_write_hold_us) = watch.lock_means();
        reads
    };

    run.window_s = (last_ns - first_ns.unwrap_or(last_ns)) as f64 / 1e9;
    run.maint_tuples = (stamper.frontier() - frontier_at_first) * (2 * gen::FLEET_HALF) as u64;
    for (start, latency) in stamper.latencies(&starts_ns) {
        if let (true, Some(l)) = (in_window(start), latency) {
            run.visible_ms.push(l as f64 / 1e6);
        }
    }
    run.attempted += reads.attempted;
    run.failed += reads.failed;
    run.read_pass_us = reads.read_pass_us;
    run.read_call_us = reads.read_call_us;
    run.shape = Shape {
        batch: 1,
        propagate_every: FLEET_K,
        refresh_every: FLEET_M,
        sync_every: FLEET_SYNC_EVERY,
    };
    if plan.sample_obs {
        run.obs.finish(db);
    }
    run
}
