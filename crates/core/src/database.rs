//! The `Database` facade: tables, views, transactions, and the Figure-3
//! maintenance operations behind one public API.
//!
//! ### Concurrency model
//!
//! Any number of threads may execute transactions, run maintenance
//! operations, and read views concurrently. Correctness rests on two
//! mechanisms:
//!
//! **Commit claims.** Every table carries a commit-intent `RwLock` separate
//! from its data lock (`Table::commit_shared` / `commit_exclusive`).
//! `execute` claims the transaction's write set *exclusively* and every
//! other base table of a relevant view *shared*, and holds the claims from
//! weak-minimality normalization through delta apply — closing the TOCTOU
//! window where a concurrent writer could invalidate the weakly-minimal
//! precondition Lemma 1 depends on. `refresh`/`propagate` claim a view's
//! base tables shared, so maintenance of independent views runs in
//! parallel while conflicting writers serialize. Plain readers
//! (`query_view`, `eval`, `read_through`) never touch commit claims.
//!
//! **Lock order.** Nested acquisition always follows
//!
//! 1. per-view maintenance mutex ([`View::maintenance_lock`]);
//! 2. table commit claims, as one batch in ascending table-name order
//!    (`Catalog::lock_commit`);
//! 3. table data locks (also in sorted order, via `PinnedState::pin` or
//!    one table at a time);
//! 4. `shared_cursors`, then the shared log's internal mutex.
//!
//! The views map and catalog map are leaf locks: they are only held for
//! map lookups/insertions, never while blocking on anything above. A
//! generation counter on the views map lets `execute` detect a view
//! created between snapshotting the view set and acquiring claims, and
//! retry.
//!
//! Invariants (`INV_*`, Figure 1) hold whenever no commit claim is held;
//! mid-flight, readers still see each individual table in a consistent
//! state (data locks are only dropped at consistent points).

use crate::durable::{self, DurableOp, RecoveryReport, StateImage, TableImage, ViewImage};
use crate::epochlog::SharedLog;
use crate::error::{CoreError, Result};
use crate::invariant::{check_view, check_view_with_log_overrides, InvariantReport};
use crate::metrics::ViewMetricsSnapshot;
use crate::obs::{
    IndexObservability, IngestGauges, Observability, StalenessGauges, TableObservability,
    ViewObservability,
};
use crate::profile::{MaintProfile, ProfileReport};
use crate::scenario::{self, base_log, combined, diff_table, immediate};
use crate::view::{Minimality, Scenario, View};
use dvm_algebra::eval::{probed_scans, PinnedState};
use dvm_algebra::infer::compile;
use dvm_algebra::Expr;
use dvm_delta::{compose_into, CompiledDeltaProgram, CompiledDeltaVariant, Transaction};
use dvm_durability::{
    checkpoint as checkpoint_file, Checkpoint, CrashFs, DurabilityError, Wal, WalOptions, WalStatus,
};
use dvm_obs::{profile as obs_profile, EventKind, TimeSeries, Tracer};
use dvm_storage::{Bag, Catalog, CommitGuard, CommitMode, Schema, Table, TableKind};
use dvm_testkit::sync::{Mutex, RwLock};
use dvm_testkit::WorkerPool;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-transaction execution report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecReport {
    /// Nanoseconds spent applying the bare transaction to base tables.
    pub base_apply_nanos: u64,
    /// Nanoseconds spent in maintenance hooks (all views combined) — the
    /// per-transaction overhead of Section 1.
    pub maintenance_nanos: u64,
    /// Number of views whose hooks ran.
    pub views_maintained: usize,
}

/// What [`Database::lock_for_execute`] pins: the held commit claims, the
/// views relevant to the transaction, and the shared-log view names as of
/// claim time (stable for as long as the claims are held).
type ExecuteClaims = (Vec<CommitGuard>, Vec<Arc<View>>, BTreeSet<String>);

/// The durable sink attached by [`Database::open`]: the WAL plus the
/// checkpoint bookkeeping needed to bound replay and WAL truncation.
struct DurableState {
    wal: Wal,
    dir: PathBuf,
    /// WAL LSN of the last durable checkpoint (0 = none). Vacuum may only
    /// drop WAL segments at or below this cut.
    last_checkpoint_lsn: u64,
    /// What the `open` that built this database did.
    last_recovery: Option<RecoveryReport>,
}

/// Render a stored variant's `(▼, ▲)` plans, each under a
/// `-- {kind} ▼(L,Q) plan{note} --` heading with its output schema. A
/// counted program's plans are its input's, `▼(L,E)`/`▲(L,E)`, under a line
/// naming the fold they feed.
fn render_variant(
    out: &mut String,
    program: &CompiledDeltaProgram,
    variant: &CompiledDeltaVariant,
    kind: &str,
    note: &str,
) {
    use std::fmt::Write as _;
    let mut q = "Q";
    if let Some(count) = program.counted() {
        let e = count.input();
        writeln!(out, "-- γ fold over ▼E/▲E, E = {e} --").expect("write to string");
        q = "E";
    }
    for (name, query) in [("▼", &variant.del), ("▲", &variant.ins)] {
        let plan = dvm_algebra::explain_plan_shared(&query.plan, &variant.shared);
        let schema = &query.schema;
        write!(
            out,
            "-- {kind} {name}(L,{q}) plan{note} --\nschema: {schema}\n{plan}"
        )
        .expect("write to string");
    }
}

/// A database with deferred-view-maintenance support.
pub struct Database {
    catalog: Catalog,
    views: RwLock<BTreeMap<String, Arc<View>>>,
    /// Bumped (under the `views` write lock) whenever the view set changes;
    /// lets `execute` detect a racing `create_view`/`drop_view` after it
    /// has acquired commit claims, and retry with the fresh set.
    views_gen: AtomicU64,
    /// Worker threads for fanning maintenance across views: 0 = pick from
    /// `std::thread::available_parallelism`.
    maintenance_threads: AtomicUsize,
    /// Persistent maintenance worker pool. Threads are spawned lazily on
    /// first parallel fan-out and parked between batches, replacing the
    /// per-call spawn/join of the old `with_workers` shims — the dominant
    /// fixed cost that made `propagate_all` slower parallel than serial.
    /// Fan-outs claim items dynamically (work-stealing), so stragglers no
    /// longer gate a whole stride.
    pool: WorkerPool,
    /// The shared epoch log (Section 7): transactions append once,
    /// regardless of how many shared-log views exist.
    shared_log: SharedLog,
    /// Per-shared-view cursor: the epoch through which the view has
    /// consumed the shared log.
    shared_cursors: RwLock<BTreeMap<String, u64>>,
    /// Span/event journal over maintenance operations (off by default;
    /// toggled via [`Database::tracer`]).
    tracer: Tracer,
    /// Origin of the database's monotonic clock — staleness stamps
    /// ([`ViewMetrics::mark_refreshed`](crate::ViewMetrics::mark_refreshed))
    /// are nanoseconds since here.
    started: Instant,
    /// Durable sink, attached by [`Database::open`]. A leaf lock: taken
    /// while commit claims / maintenance locks are held (never the other
    /// way around), so WAL append order is a serialization order.
    durable: Mutex<Option<DurableState>>,
    /// Fast-path flag mirroring `durable.is_some()` — lets the hot execute
    /// path skip the mutex and the op clone entirely when not durable.
    durable_attached: AtomicBool,
    /// Recent profiled maintenance operations, oldest first (bounded ring;
    /// populated only while profiling is on). A leaf lock.
    profiles: Mutex<Vec<MaintProfile>>,
    /// Registered time series, keyed by name: per-view maintenance latency
    /// recorded by `propagate`/`refresh`, staleness gauges sampled by
    /// [`Database::sample_staleness_series`]. Always on — maintenance ops
    /// are µs-to-ms scale, so a mutexed push is noise. A leaf lock.
    tseries: Mutex<BTreeMap<String, TimeSeries>>,
    /// Latest ingest-pipeline gauges published via
    /// [`Database::set_ingest_gauges`]. A leaf lock.
    ingest_gauges: Mutex<Option<IngestGauges>>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database {
            catalog: Catalog::new(),
            views: RwLock::new(BTreeMap::new()),
            views_gen: AtomicU64::new(0),
            maintenance_threads: AtomicUsize::new(0),
            pool: WorkerPool::new(),
            shared_log: SharedLog::new(),
            shared_cursors: RwLock::new(BTreeMap::new()),
            tracer: Tracer::default(),
            started: Instant::now(),
            durable: Mutex::new(None),
            durable_attached: AtomicBool::new(false),
            profiles: Mutex::new(Vec::new()),
            tseries: Mutex::new(BTreeMap::new()),
            ingest_gauges: Mutex::new(None),
        }
    }

    /// The database's event tracer. Disabled by default; enable with
    /// `db.tracer().set_enabled(true)` to journal maintenance spans.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Nanoseconds since the database was created (its monotonic clock).
    pub fn now_nanos(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Most recent profiled operations retained for [`Database::profile_report`].
    const MAX_PROFILES: usize = 32;
    /// Retained points per registered time series (older points are
    /// downsampled, never dropped).
    const TS_CAPACITY: usize = 256;

    /// Enable or disable maintenance profiling (process-wide). While on,
    /// every `propagate`/`refresh`/`partial_refresh` records an annotated
    /// operator tree plus shard/pool/cache attribution, retrievable via
    /// [`Database::profile_report`]. Off (the default), instrumented sites
    /// pay one relaxed atomic load. Turning profiling on clears previously
    /// stored operation profiles so the report covers one phase.
    pub fn set_profiling(&self, on: bool) {
        if on && !dvm_obs::profiling_on() {
            self.profiles.lock().clear();
        }
        dvm_obs::set_profiling(on);
    }

    /// Whether maintenance profiling is currently enabled.
    pub fn profiling_enabled(&self) -> bool {
        dvm_obs::profiling_on()
    }

    /// Append one sample to the named time series, creating it on first use.
    fn ts_push(&self, name: &str, value: f64) {
        let t = self.now_nanos();
        let mut reg = self.tseries.lock();
        match reg.get_mut(name) {
            Some(ts) => ts.push(t, value),
            None => {
                let mut ts = TimeSeries::new(name, Self::TS_CAPACITY);
                ts.push(t, value);
                reg.insert(name.to_string(), ts);
            }
        }
    }

    /// Append one sample to a named time series in the registry (shown by
    /// `\profile show` and exported by [`Database::profile_report`]).
    /// External subsystems (the ingest pipeline, benchmarks) use this to
    /// put their own gauges on the same timeline as staleness samples.
    pub fn record_series(&self, name: &str, value: f64) {
        self.ts_push(name, value);
    }

    /// Publish the latest ingest-pipeline gauges; surfaced in
    /// [`Database::observability`] (REPL `\metrics`, `\ingest`).
    pub fn set_ingest_gauges(&self, gauges: IngestGauges) {
        *self.ingest_gauges.lock() = Some(gauges);
    }

    /// Sample every view's staleness gauges into the time-series registry
    /// (`staleness_ns/<view>`, `backlog_entries/<view>`). The policy driver
    /// calls this each tick; call it yourself when driving maintenance by
    /// hand.
    pub fn sample_staleness_series(&self) {
        for name in self.view_names() {
            let Ok(s) = self.staleness(&name) else {
                continue;
            };
            if let Some(n) = s.nanos_since_refresh {
                self.ts_push(&format!("staleness_ns/{name}"), n as f64);
            }
            self.ts_push(&format!("backlog_entries/{name}"), s.pending_entries as f64);
        }
    }

    /// Snapshot the profiling state: recent per-operation operator trees,
    /// worker-pool utilization, WAL latency histograms, and all registered
    /// time series.
    pub fn profile_report(&self) -> ProfileReport {
        let (wal_append, wal_sync) = match self.durable.lock().as_ref() {
            Some(d) => (Some(d.wal.append_latency()), Some(d.wal.sync_latency())),
            None => (None, None),
        };
        ProfileReport {
            enabled: dvm_obs::profiling_on(),
            ops: self.profiles.lock().clone(),
            pool: self.pool.stats(),
            wal_append,
            wal_sync,
            series: self.tseries.lock().values().cloned().collect(),
        }
    }

    /// Set the number of worker threads used to fan per-view maintenance
    /// work (`makesafe` in `execute`, [`Database::propagate_all`],
    /// [`Database::refresh_all`]) across views. `0` (the default) sizes the
    /// pool from `std::thread::available_parallelism`; `1` forces the
    /// serial path.
    pub fn set_maintenance_threads(&self, n: usize) {
        self.maintenance_threads.store(n, Ordering::Relaxed);
        // Pre-grow the persistent pool so the first parallel fan-out does
        // not pay thread-spawn latency. Width `n` includes the submitting
        // thread, so the pool needs `n - 1` helpers.
        if n > 1 {
            self.pool.ensure_threads(n - 1);
        }
    }

    /// Pool handle + width for per-shard parallelism *inside* a single
    /// view operation (propagate's Lemma 3 fold, partial_refresh's delta
    /// apply). `None` when the configuration resolves to serial. Width is
    /// capped at the shard count — more workers than shards cannot help.
    fn intra_view_par(&self) -> Option<(&WorkerPool, usize)> {
        let width = self.maintenance_workers(Bag::SHARDS);
        (width > 1).then_some((&self.pool, width))
    }

    /// Worker count for a fan-out over `jobs` independent items (at least
    /// 1, never more than the configured/available parallelism or `jobs`).
    fn maintenance_workers(&self, jobs: usize) -> usize {
        let configured = self.maintenance_threads.load(Ordering::Relaxed);
        let cap = if configured == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            configured
        };
        cap.min(jobs).max(1)
    }

    /// The underlying catalog (all tables, including internal ones).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Create a user (external) base table.
    pub fn create_table(&self, name: impl Into<String>, schema: Schema) -> Result<Arc<Table>> {
        let name = name.into();
        let table = self
            .catalog
            .create_table(name.clone(), schema.clone(), TableKind::External)?;
        self.log_op(&DurableOp::CreateTable { name, schema })?;
        Ok(table)
    }

    /// Create a materialized view maintained under `scenario` with weak
    /// minimality. The view is initialized to the definition's current
    /// value.
    pub fn create_view(
        &self,
        name: impl Into<String>,
        definition: Expr,
        scenario: Scenario,
    ) -> Result<()> {
        self.create_view_with(name, definition, scenario, Minimality::Weak)
    }

    /// Create a materialized view with an explicit minimality discipline.
    pub fn create_view_with(
        &self,
        name: impl Into<String>,
        definition: Expr,
        scenario: Scenario,
        minimality: Minimality,
    ) -> Result<()> {
        self.create_view_inner(name.into(), definition, scenario, minimality, false)
    }

    /// Create a [`Scenario::Combined`] view that reads the **shared epoch
    /// log** instead of maintaining private logs per transaction (paper
    /// Section 7: makesafe work independent of the number of views).
    /// Transactions append their changes to the shared log once; this
    /// view's private log tables act as a staging area filled by
    /// [`Database::propagate`] when it drains the shared-log suffix.
    pub fn create_view_shared(
        &self,
        name: impl Into<String>,
        definition: Expr,
        minimality: Minimality,
    ) -> Result<()> {
        self.create_view_inner(
            name.into(),
            definition,
            Scenario::Combined,
            minimality,
            true,
        )
    }

    fn create_view_inner(
        &self,
        name: String,
        definition: Expr,
        scenario: Scenario,
        minimality: Minimality,
        shared: bool,
    ) -> Result<()> {
        {
            let views = self.views.read();
            if views.contains_key(&name) {
                return Err(CoreError::DuplicateView(name));
            }
        }
        let durable_op = if self.durable_attached.load(Ordering::Acquire) {
            Some(DurableOp::CreateView {
                name: name.clone(),
                definition: definition.clone(),
                scenario,
                minimality,
                shared,
            })
        } else {
            None
        };
        let compiled = compile(&definition, &self.catalog)?;
        let view = View::new(&name, definition, compiled, scenario, minimality)?;
        // Hold shared commit claims on every base table from here through
        // registration: a concurrent `execute` over these bases is either
        // fully before (the MV initialization sees its effects) or fully
        // after (the registered view's makesafe hooks cover it) — never
        // split across the initialization.
        let _claims = scenario::claim_shared(&self.catalog, view.base_tables())?;
        // Create MV + auxiliary tables. The MV table gets the unqualified
        // output schema; logs mirror base-table schemas; differential
        // tables mirror the MV schema.
        let mv_schema = view.mv_schema();
        self.catalog
            .create_table(view.mv_table(), mv_schema.clone(), TableKind::Internal)?;
        if let Some(log) = view.log() {
            for base in log.bases() {
                let base_schema = self.catalog.require(base)?.schema().clone();
                let (d, i) = log.get(base).expect("listed base");
                self.catalog
                    .create_table(d, base_schema.clone(), TableKind::Internal)?;
                self.catalog
                    .create_table(i, base_schema, TableKind::Internal)?;
            }
        }
        if let Some((d, i)) = view.diff_tables() {
            self.catalog
                .create_table(d, mv_schema.clone(), TableKind::Internal)?;
            self.catalog
                .create_table(i, mv_schema, TableKind::Internal)?;
        }
        // Compile the view's delta program eagerly, now that the log
        // tables exist in the catalog (the stored ▼/▲ plans scan them, so
        // schema inference needs them registered). Steady-state propagate
        // then starts with a warm all-active variant instead of paying the
        // first symbolic derivation inline.
        if view.log().is_some() {
            view.delta_program(&self.catalog)?;
        }
        // Initialize MV := Q (evaluated now). Initialization counts as the
        // view's first refresh for the staleness gauges.
        let initial = scenario::recompute(&self.catalog, &view)?;
        self.catalog.require(view.mv_table())?.replace(initial)?;
        view.metrics().mark_refreshed(self.now_nanos());
        // Registered after the initialization, so its scans build nothing:
        // each index is built by its first probe.
        for (table, cols) in self.view_indexes(&view) {
            table.register_index(&cols);
        }
        if shared {
            // Register the cursor before the view becomes visible; the
            // claims ensure no relevant transaction commits in between, so
            // the cursor exactly covers what the MV initialization saw.
            self.shared_cursors
                .write()
                .insert(name.clone(), self.shared_log.current_epoch());
        }
        {
            let mut views = self.views.write();
            views.insert(name, Arc::new(view));
            self.views_gen.fetch_add(1, Ordering::SeqCst);
        }
        if let Some(op) = durable_op {
            self.log_op(&op)?;
        }
        Ok(())
    }

    /// Whether a view consumes the shared epoch log.
    pub fn is_shared_log_view(&self, name: &str) -> bool {
        self.shared_cursors.read().contains_key(name)
    }

    /// `(retained entries, retained tuple volume)` of the shared log.
    pub fn shared_log_stats(&self) -> (usize, u64) {
        (self.shared_log.len(), self.shared_log.retained_volume())
    }

    /// Reclaim shared-log entries consumed by every shared view. Returns
    /// the number of entries dropped.
    pub fn vacuum_shared_log(&self) -> usize {
        // Hold the cursors lock across the vacuum: a concurrent
        // `create_view_shared` registering a cursor, or a drain advancing
        // one, blocks on the map until the reclaim is done, so the min we
        // computed stays a true lower bound while entries are dropped.
        // (Lock order: cursors, then the shared log's internal mutex.)
        let start = Instant::now();
        let cursors = self.shared_cursors.read();
        let min_cursor = cursors
            .values()
            .copied()
            .min()
            .unwrap_or_else(|| self.shared_log.current_epoch());
        let reclaimed = self.shared_log.vacuum(min_cursor);
        if self.tracer.is_enabled() {
            self.tracer.event(
                EventKind::Vacuum,
                &format!("shared log ≤{min_cursor}: {reclaimed} entries"),
                Some(start.elapsed().as_nanos() as u64),
            );
        }
        // Best-effort durability bookkeeping: the vacuum is a pure space
        // optimization, so a WAL hiccup here must not fail the call. WAL
        // truncation is bounded by the last durable checkpoint — records
        // past it are still needed for replay even once the shared log
        // entries they produced are reclaimed in memory.
        if self.durable_attached.load(Ordering::Acquire) {
            let _ = self.log_op(&DurableOp::VacuumSharedLog);
            let mut guard = self.durable.lock();
            if let Some(d) = guard.as_mut() {
                let cut = d.last_checkpoint_lsn;
                let _ = d.wal.truncate_through(cut);
            }
        }
        reclaimed
    }

    /// Drain the shared-log suffix for a shared view into its staging log
    /// tables (composition lemma), advancing its cursor.
    ///
    /// The caller must hold the view's maintenance mutex — that makes this
    /// view's cursor ours alone to advance, so the cursors map lock is
    /// only held for the point read and the point write, never across the
    /// staging-table writes (which sit above it in the lock order).
    fn drain_shared(&self, view: &View) -> Result<()> {
        let cursor = {
            let cursors = self.shared_cursors.read();
            match cursors.get(view.name()) {
                Some(c) => *c,
                None => return Ok(()), // not a shared view
            }
        };
        let t = crate::scenario::phase_start();
        let bases: Vec<String> = view.base_tables().iter().cloned().collect();
        let (folds, upto) = self.shared_log.fold_suffixes(bases.iter(), cursor);
        let log = view.log().expect("shared views are Combined");
        let mut folded_rows = 0u64;
        for (table, (suffix_del, suffix_ins)) in folds {
            if suffix_del.is_empty() && suffix_ins.is_empty() {
                continue;
            }
            folded_rows += suffix_del.len() + suffix_ins.len();
            let (del_name, ins_name) = log.get(&table).expect("logged base");
            let del_table = self.catalog.require(del_name)?;
            let ins_table = self.catalog.require(ins_name)?;
            let mut del_guard = del_table.write();
            let mut ins_guard = ins_table.write();
            compose_into(&mut del_guard, &mut ins_guard, &suffix_del, &suffix_ins);
        }
        if let Some(c) = self.shared_cursors.write().get_mut(view.name()) {
            *c = upto;
        }
        crate::scenario::phase_end("DrainSharedLog", folded_rows, t);
        Ok(())
    }

    /// Effective log contents of a shared view: staging tables composed
    /// with the un-drained shared suffix — used to evaluate `PAST(L,Q)`
    /// and read-throughs without draining.
    fn shared_log_overrides(&self, view: &View) -> Result<HashMap<String, dvm_storage::Bag>> {
        let cursor = *self
            .shared_cursors
            .read()
            .get(view.name())
            .expect("caller checked is_shared_log_view");
        let bases: Vec<String> = view.base_tables().iter().cloned().collect();
        let (folds, _) = self.shared_log.fold_suffixes(bases.iter(), cursor);
        let log = view.log().expect("shared views are Combined");
        let mut overrides = HashMap::new();
        for (table, (suffix_del, suffix_ins)) in folds {
            let (del_name, ins_name) = log.get(&table).expect("logged base");
            let mut del = self.catalog.bag_of(del_name)?;
            let mut ins = self.catalog.bag_of(ins_name)?;
            compose_into(&mut del, &mut ins, &suffix_del, &suffix_ins);
            overrides.insert(del_name.to_string(), del);
            overrides.insert(ins_name.to_string(), ins);
        }
        Ok(overrides)
    }

    /// Drop a view and all its auxiliary tables.
    pub fn drop_view(&self, name: &str) -> Result<()> {
        let view = self.view(name)?;
        // Serialize against maintenance of this view, then claim its base
        // tables exclusively so no in-flight `execute` still holds hooks
        // into the auxiliary tables we are about to drop.
        let _maint = view.maintenance_lock();
        let modes: BTreeMap<String, CommitMode> = view
            .base_tables()
            .iter()
            .map(|t| (t.clone(), CommitMode::Exclusive))
            .collect();
        let _claims = self.catalog.lock_commit(&modes)?;
        {
            let mut views = self.views.write();
            if views.remove(name).is_none() {
                return Err(CoreError::NoSuchView(name.to_string()));
            }
            self.views_gen.fetch_add(1, Ordering::SeqCst);
        }
        self.shared_cursors.write().remove(name);
        for t in view.internal_tables() {
            self.catalog.drop_table(&t)?;
        }
        for (table, cols) in self.view_indexes(&view) {
            table.release_index(&cols);
        }
        self.log_op(&DurableOp::DropView(name.to_string()))?;
        Ok(())
    }

    /// The base-table join-key indexes `view`'s evaluations probe: every
    /// key set a join of its compiled definition can push to a base scan.
    /// Its change queries join the same columns, so their key sets reach
    /// the same indexes.
    fn view_indexes(&self, view: &View) -> Vec<(Arc<Table>, Vec<usize>)> {
        probed_scans(&view.compiled().plan)
            .into_iter()
            .filter_map(|(name, cols)| {
                let table = self.catalog.get(&name)?;
                (table.kind() == TableKind::External).then_some((table, cols))
            })
            .collect()
    }

    /// Names of all views.
    pub fn view_names(&self) -> Vec<String> {
        self.views.read().keys().cloned().collect()
    }

    /// Look up a view descriptor.
    pub fn view(&self, name: &str) -> Result<Arc<View>> {
        self.views
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| CoreError::NoSuchView(name.to_string()))
    }

    /// Acquire the commit claims for one `execute`: exclusive on the
    /// transaction's write set, shared on every other base table of a
    /// relevant view. Retries if the view set changes between snapshotting
    /// it and holding the claims, so the returned view set is exactly the
    /// registered set for as long as the claims are held.
    fn lock_for_execute(&self, tx_tables: &BTreeSet<String>) -> Result<ExecuteClaims> {
        loop {
            let gen = self.views_gen.load(Ordering::SeqCst);
            let relevant: Vec<Arc<View>> = self
                .views
                .read()
                .values()
                .filter(|v| v.relevant_to(tx_tables))
                .cloned()
                .collect();
            let mut modes: BTreeMap<String, CommitMode> = BTreeMap::new();
            for view in &relevant {
                for base in view.base_tables() {
                    modes.insert(base.clone(), CommitMode::Shared);
                }
            }
            for t in tx_tables {
                modes.insert(t.clone(), CommitMode::Exclusive);
            }
            let claims = self.catalog.lock_commit(&modes)?;
            // Read the shared-view set only now: a racing
            // `create_view_shared` over our tables held conflicting claims
            // and has fully finished (cursor included) before we got here.
            let shared_names: BTreeSet<String> =
                self.shared_cursors.read().keys().cloned().collect();
            if self.views_gen.load(Ordering::SeqCst) == gen {
                return Ok((claims, relevant, shared_names));
            }
            // A view appeared or vanished while we were acquiring; redo
            // with the fresh view set (claims drop here).
        }
    }

    /// Pre-update `makesafe_*[T]` for one view. Records the view's
    /// makesafe metric; returns the nanos spent and, for Immediate views,
    /// the MV update to apply post-update.
    fn makesafe_one(
        &self,
        view: &View,
        tx: &Transaction,
    ) -> Result<(u64, Option<immediate::PendingMvUpdate>)> {
        let _span = self.tracer.span(EventKind::Makesafe, view.name());
        let start = Instant::now();
        let pending = match view.scenario() {
            Scenario::Immediate => Some(immediate::prepare(&self.catalog, view, tx)?),
            Scenario::BaseLog => {
                base_log::extend_log(&self.catalog, view, tx)?;
                None
            }
            Scenario::Combined => {
                combined::extend_log(&self.catalog, view, tx)?;
                None
            }
            Scenario::DiffTable => {
                diff_table::fold_transaction(&self.catalog, view, tx)?;
                None
            }
        };
        let nanos = start.elapsed().as_nanos() as u64;
        view.metrics().record_makesafe(nanos);
        Ok((nanos, pending))
    }

    /// Run `makesafe_one` for every view, fanning across the persistent
    /// worker pool when both views and workers are plural. Each view
    /// touches only its own auxiliary tables (and takes only read locks on
    /// shared base state), so the per-view work is independent. Workers
    /// claim views one at a time off a shared counter — a cheap view never
    /// waits behind an expensive one the way the old strided split forced
    /// it to. Results come back in input order.
    fn makesafe_fanout(
        &self,
        views: &[Arc<View>],
        tx: &Transaction,
    ) -> Vec<Result<(u64, Option<immediate::PendingMvUpdate>)>> {
        let n = self.maintenance_workers(views.len());
        if n <= 1 || views.len() <= 1 {
            return views.iter().map(|v| self.makesafe_one(v, tx)).collect();
        }
        self.pool
            .run(views.len(), n, |i| self.makesafe_one(&views[i], tx))
    }

    /// Execute a user transaction with maintenance: `makesafe_*[T]` for
    /// every view, per Figure 3.
    ///
    /// Safe to call from any number of threads: commit claims are held
    /// from weak-minimality normalization through delta apply (see the
    /// module docs), so concurrent writers of overlapping tables
    /// serialize and the weakly-minimal precondition cannot go stale.
    pub fn execute(&self, tx: &Transaction) -> Result<ExecReport> {
        self.execute_inner(tx, false)
    }

    /// Execute a batch of transactions as one **group commit**: each
    /// transaction runs the full maintained path of [`Database::execute`]
    /// (its WAL record is still appended while its commit claims are held,
    /// so WAL order remains a serialization order), but the per-record
    /// fsync of `DurabilityPolicy::Always` is deferred and the whole batch
    /// is made durable by a *single* [`Wal::sync`] at the end.
    ///
    /// Durability contract: when this returns `Ok`, every transaction in
    /// the batch is durable (the batch is "acknowledged"). A crash before
    /// the final sync may lose a suffix of the batch's records — recovery
    /// then matches a never-crashed database that executed only the
    /// surviving prefix. On a non-durable database this is just a loop
    /// over [`Database::execute`].
    pub fn execute_batch(&self, txs: &[Transaction]) -> Result<ExecReport> {
        let mut total = ExecReport::default();
        for tx in txs {
            let r = self.execute_inner(tx, true)?;
            total.base_apply_nanos += r.base_apply_nanos;
            total.maintenance_nanos += r.maintenance_nanos;
            total.views_maintained += r.views_maintained;
        }
        if self.durable_attached.load(Ordering::Acquire) {
            self.sync_wal()?;
        }
        Ok(total)
    }

    fn execute_inner(&self, tx: &Transaction, defer_log_sync: bool) -> Result<ExecReport> {
        // Reject writes to internal tables, unknown tables, and
        // schema-invalid tuples up front — BEFORE any maintenance hook
        // runs. Log tables are appended to through raw guards, so a tuple
        // that would only fail validation at base-table apply time would
        // otherwise already have poisoned the logs.
        for t in tx.tables() {
            let table = self.catalog.require(t)?;
            if table.kind() == TableKind::Internal {
                return Err(CoreError::InternalTableWrite(t.clone()));
            }
            let (del, ins) = tx.get(t).expect("listed table");
            table.validate_bag(del)?;
            table.validate_bag(ins)?;
        }
        let tx_tables: BTreeSet<String> = tx.tables().cloned().collect();
        // Only pay for target-string construction when journaling.
        let _span = if self.tracer.is_enabled() {
            let tables: Vec<&str> = tx_tables.iter().map(String::as_str).collect();
            Some(self.tracer.span(EventKind::TxnExecute, &tables.join(",")))
        } else {
            None
        };
        let lock_start = Instant::now();
        let (_claims, relevant, shared_names) = self.lock_for_execute(&tx_tables)?;
        if self.tracer.is_enabled() {
            self.tracer.event(
                EventKind::LockWait,
                "execute claims",
                Some(lock_start.elapsed().as_nanos() as u64),
            );
        }

        // Normalize to weak minimality against the current state. The
        // commit claims keep that state authoritative until the delta is
        // applied below — no concurrent writer can invalidate it.
        let pinned = PinnedState::pin(&self.catalog, &tx_tables)?;
        let tx = tx.make_weakly_minimal(&pinned)?;
        drop(pinned);

        let mut report = ExecReport::default();

        // Pre-update maintenance phase: private views fan out across
        // workers; shared-log views are covered by the single append.
        let (shared_relevant, private_relevant): (Vec<_>, Vec<_>) = relevant
            .into_iter()
            .partition(|v| shared_names.contains(v.name()));
        let mut pending_immediate: Vec<(Arc<View>, immediate::PendingMvUpdate)> = Vec::new();
        let outcomes = self.makesafe_fanout(&private_relevant, &tx);
        for (view, outcome) in private_relevant.iter().zip(outcomes) {
            let (nanos, pending) = outcome?;
            if let Some(p) = pending {
                pending_immediate.push((Arc::clone(view), p));
            }
            report.maintenance_nanos += nanos;
            report.views_maintained += 1;
        }
        if !shared_relevant.is_empty() {
            // One append, independent of the number of shared views; each
            // relevant shared view was maintained by it, so each is
            // counted and charged its amortized slice of the append cost.
            let start = Instant::now();
            self.shared_log.append(&tx);
            let nanos = start.elapsed().as_nanos() as u64;
            let share = (nanos / shared_relevant.len() as u64).max(1);
            for view in &shared_relevant {
                view.metrics().record_makesafe(share);
            }
            report.maintenance_nanos += nanos;
            report.views_maintained += shared_relevant.len();
        }

        // Apply T itself (validated on entry).
        let start = Instant::now();
        for t in tx.tables() {
            let (d, i) = tx.get(t).expect("listed table");
            self.catalog.require(t)?.apply_validated(d, i);
        }
        report.base_apply_nanos = start.elapsed().as_nanos() as u64;

        // Post-update phase: immediate views apply their precomputed deltas.
        for (view, pending) in pending_immediate {
            let start = Instant::now();
            immediate::apply(&self.catalog, &view, &pending)?;
            let nanos = start.elapsed().as_nanos() as u64;
            view.metrics().record_makesafe(nanos);
            report.maintenance_nanos += nanos;
        }
        // Log the *normalized* transaction while the claims are still held
        // (WAL order = serialization order); replay re-normalizes against
        // the identical state, which is a fixpoint. Group-committed
        // callers defer the fsync to their batch-final sync.
        if self.durable_attached.load(Ordering::Acquire) {
            if defer_log_sync {
                self.log_op_deferred(&DurableOp::Txn(tx.clone()))?;
            } else {
                self.log_op(&DurableOp::Txn(tx.clone()))?;
            }
        }
        Ok(report)
    }

    /// Apply a transaction with **no** view maintenance (baseline for
    /// overhead measurements; views become silently inconsistent).
    pub fn execute_unmaintained(&self, tx: &Transaction) -> Result<u64> {
        for t in tx.tables() {
            if self.catalog.require(t)?.kind() == TableKind::Internal {
                return Err(CoreError::InternalTableWrite(t.clone()));
            }
        }
        let tx_tables: BTreeSet<String> = tx.tables().cloned().collect();
        // Same pin-to-apply protection as `execute`, minus the view hooks.
        let modes: BTreeMap<String, CommitMode> = tx_tables
            .iter()
            .map(|t| (t.clone(), CommitMode::Exclusive))
            .collect();
        let _claims = self.catalog.lock_commit(&modes)?;
        let pinned = PinnedState::pin(&self.catalog, &tx_tables)?;
        let tx = tx.make_weakly_minimal(&pinned)?;
        drop(pinned);
        let start = Instant::now();
        for t in tx.tables() {
            let (d, i) = tx.get(t).expect("listed table");
            self.catalog.require(t)?.apply_delta(d, i)?;
        }
        let nanos = start.elapsed().as_nanos() as u64;
        if self.durable_attached.load(Ordering::Acquire) {
            self.log_op(&DurableOp::TxnUnmaintained(tx.clone()))?;
        }
        Ok(nanos)
    }

    /// Shared commit claims on every base table of `view` (for maintenance
    /// ops that read base state): conflicting `execute`s wait; maintenance
    /// of other views over the same bases runs concurrently.
    fn lock_view_bases(&self, view: &View) -> Result<Vec<CommitGuard>> {
        let start = Instant::now();
        let claims = scenario::claim_shared(&self.catalog, view.base_tables())?;
        if self.tracer.is_enabled() {
            self.tracer.event(
                EventKind::LockWait,
                &format!("bases of {}", view.name()),
                Some(start.elapsed().as_nanos() as u64),
            );
        }
        Ok(claims)
    }

    /// The bracket every Figure-3 maintenance operation runs in: resolve the
    /// view, reject a scenario the operation is not defined for, open the
    /// trace span, take the maintenance mutex (and shared base claims when
    /// the body reads base state), time the body, then record metrics, the
    /// latency series, the profile capture and the WAL redo record — in
    /// that order, under the locks that serialized the operation. `op` is
    /// the span kind; its label names the operation everywhere else.
    fn maintain(
        &self,
        name: &str,
        op: EventKind,
        needs_base_claims: bool,
        body: impl FnOnce(&View) -> Result<()>,
    ) -> Result<()> {
        let view = self.view(name)?;
        // Only a full refresh is defined for every scenario.
        if op != EventKind::Refresh && view.scenario() != Scenario::Combined {
            return Err(CoreError::WrongScenario {
                view: name.to_string(),
                op: op.label(),
            });
        }
        let _span = self.tracer.span(op, name);
        let _maint = view.maintenance_lock();
        let _claims = if needs_base_claims {
            self.lock_view_bases(&view)?
        } else {
            Vec::new()
        };
        let profiled = dvm_obs::profiling_on();
        if profiled {
            // Discard captures ad-hoc queries left on this thread.
            let _ = obs_profile::take_captured();
        }
        let start = Instant::now();
        if let Err(e) = body(&view) {
            // Whatever failed, a counted view's `S` may be ahead of the
            // tables it describes: it goes with the program.
            view.invalidate_delta_program();
            return Err(e);
        }
        let nanos = start.elapsed().as_nanos() as u64;
        let redo = if op == EventKind::Propagate {
            view.metrics().record_propagate(nanos);
            self.ts_push(&format!("propagate_ns/{name}"), nanos as f64);
            DurableOp::Propagate(name.to_string())
        } else {
            view.metrics().record_refresh(nanos);
            view.metrics().mark_refreshed(self.now_nanos());
            self.ts_push(&format!("refresh_ns/{name}"), nanos as f64);
            if op == EventKind::Refresh {
                DurableOp::Refresh(name.to_string())
            } else {
                DurableOp::PartialRefresh(name.to_string())
            }
        };
        if profiled {
            // Claim what this thread's evaluations deposited since the
            // drain above as one operation profile; the ring sheds its
            // oldest entry past the cap.
            let cap = obs_profile::take_captured();
            let mut ring = self.profiles.lock();
            if ring.len() >= Self::MAX_PROFILES {
                ring.remove(0);
            }
            ring.push(MaintProfile {
                view: name.to_string(),
                op: op.label(),
                total_nanos: nanos,
                evals: cap.evals,
                shards: cap.shards,
            });
        }
        self.log_op(&redo)
    }

    /// `refresh_*`: bring the view fully up to date
    /// (`{INV_*} refresh_* {Q ≡ MV}`).
    pub fn refresh(&self, name: &str) -> Result<()> {
        self.maintain(name, EventKind::Refresh, true, |view| {
            match view.scenario() {
                Scenario::Immediate => Ok(()), // always consistent
                Scenario::BaseLog => base_log::refresh(&self.catalog, view),
                Scenario::DiffTable => {
                    diff_table::apply_diff_tables(&self.catalog, view, self.intra_view_par())
                }
                Scenario::Combined => {
                    self.drain_shared(view)?;
                    combined::refresh(&self.catalog, view, self.intra_view_par())
                }
            }
        })
    }

    /// `propagate_C`: fold logged changes into the differential tables
    /// without touching the `MV` lock. Only for [`Scenario::Combined`].
    pub fn propagate(&self, name: &str) -> Result<()> {
        self.maintain(name, EventKind::Propagate, true, |view| {
            self.drain_shared(view)?;
            combined::propagate(&self.catalog, view, self.intra_view_par())
        })
    }

    /// `partial_refresh_C`: apply the differential tables, bringing `MV` to
    /// `PAST(L,Q)` (at most one propagation interval stale). Only for
    /// [`Scenario::Combined`].
    pub fn partial_refresh(&self, name: &str) -> Result<()> {
        // Touches only the view's own MV and differential tables, so the
        // maintenance mutex suffices — no base-table claims needed.
        self.maintain(name, EventKind::PartialRefresh, false, |view| {
            combined::partial_refresh(&self.catalog, view, self.intra_view_par())
        })
    }

    /// Run an operation for each named view, fanning independent views
    /// across the persistent worker pool (per-view serialization and
    /// writer conflicts are handled by the maintenance mutex and commit
    /// claims the ops themselves take). Views are claimed dynamically, so
    /// one large view does not serialize the rest of its stride. Every
    /// view runs whatever the worker count — a failing view never leaves
    /// the ones after it unmaintained on a narrow host only — and the
    /// result is the first error in input order.
    fn for_each_view_parallel(
        &self,
        names: &[String],
        op: impl Fn(&str) -> Result<()> + Sync,
    ) -> Result<()> {
        // A width of 1 (or a single view) runs inline on this thread.
        let n = self.maintenance_workers(names.len());
        self.pool
            .run(names.len(), n, |i| op(&names[i]))
            .into_iter()
            .collect()
    }

    /// `propagate_C` for the named views, independent views in parallel.
    pub fn propagate_many(&self, names: &[String]) -> Result<()> {
        self.for_each_view_parallel(names, |name| self.propagate(name))
    }

    /// `propagate_C` for every [`Scenario::Combined`] view, independent
    /// views in parallel. Returns the names propagated.
    pub fn propagate_all(&self) -> Result<Vec<String>> {
        let names: Vec<String> = self
            .views
            .read()
            .values()
            .filter(|v| v.scenario() == Scenario::Combined)
            .map(|v| v.name().to_string())
            .collect();
        self.propagate_many(&names)?;
        Ok(names)
    }

    /// `refresh_*` for the named views, independent views in parallel.
    pub fn refresh_many(&self, names: &[String]) -> Result<()> {
        self.for_each_view_parallel(names, |name| self.refresh(name))
    }

    /// `refresh_*` for every view, independent views in parallel.
    pub fn refresh_all(&self) -> Result<()> {
        self.refresh_many(&self.view_names())
    }

    /// Read the materialized contents of a view (possibly stale under
    /// deferred scenarios). Blocks while a refresh holds the write lock —
    /// the reader-visible face of view downtime.
    pub fn query_view(&self, name: &str) -> Result<Bag> {
        let view = self.view(name)?;
        Ok(self.catalog.bag_of(view.mv_table())?)
    }

    /// The **current** value of the view computed on the fly from `MV`
    /// plus auxiliary state (Section 7's "refresh only what a query
    /// needs", answered on the read path): fresh answers, zero downtime,
    /// nothing mutated.
    pub fn read_through(&self, name: &str) -> Result<Bag> {
        self.read_fresh(name, None)
    }

    /// `σ_pred` over the current view value: the predicate filters the
    /// materialization and differential tables under their read guards,
    /// and the rows of the log's change.
    pub fn read_through_where(&self, name: &str, pred: &dvm_algebra::Predicate) -> Result<Bag> {
        self.read_fresh(name, Some(pred))
    }

    fn read_fresh(&self, name: &str, pred: Option<&dvm_algebra::Predicate>) -> Result<Bag> {
        let view = self.view(name)?;
        // The maintenance mutex keeps a concurrent propagate/refresh from
        // moving entries between the log, differential tables, and MV
        // while we read them (each would be individually consistent but
        // mutually torn). `query_view` stays mutex-free.
        let _maint = view.maintenance_lock();
        let shared_log = || self.shared_log_overrides(&view);
        let shared_log: Option<&dyn Fn() -> _> =
            self.is_shared_log_view(name).then_some(&shared_log);
        crate::readthrough::read_through(&self.catalog, &view, pred, shared_log)
    }

    /// Recompute the view definition from scratch (ground truth; ignores
    /// the materialized table).
    pub fn recompute_view(&self, name: &str) -> Result<Bag> {
        let view = self.view(name)?;
        scenario::recompute(&self.catalog, &view)
    }

    /// Evaluate an ad-hoc query against the current state.
    pub fn eval(&self, query: &Expr) -> Result<Bag> {
        scenario::eval_expr(&self.catalog, query)
    }

    /// Check the view's Figure-1 invariant and minimality invariants.
    /// For shared-log views the *effective* log (staging tables composed
    /// with the un-drained shared suffix) is used.
    ///
    /// Safe to call mid-traffic: the maintenance mutex and shared base
    /// claims hold the view at a commit boundary for the check's duration.
    pub fn check_invariant(&self, name: &str) -> Result<InvariantReport> {
        let view = self.view(name)?;
        let _maint = view.maintenance_lock();
        let _claims = self.lock_view_bases(&view)?;
        if self.is_shared_log_view(name) {
            let overrides = self.shared_log_overrides(&view)?;
            check_view_with_log_overrides(&self.catalog, &view, &overrides)
        } else {
            check_view(&self.catalog, &view)
        }
    }

    /// Check every view; returns the reports of any that fail.
    pub fn check_all_invariants(&self) -> Result<Vec<InvariantReport>> {
        let mut failures = Vec::new();
        for name in self.view_names() {
            let report = self.check_invariant(&name)?;
            if !report.ok() {
                failures.push(report);
            }
        }
        Ok(failures)
    }

    /// Human-readable EXPLAIN of a view: its definition, the optimized
    /// physical plan of `Q`, and — for log-based scenarios — the plans of
    /// the post-update refresh queries `▼(L,Q)` / `▲(L,Q)` as the stored
    /// delta program runs them with every log active. A counted root-`γ`
    /// view shows its input's plans under the `γ fold` they feed; another
    /// root-`γ` view's plans read `PAST(L,Q)` off the view's own tables,
    /// and the line above them says which invariant vouches for that.
    pub fn explain_view(&self, name: &str) -> Result<String> {
        use std::fmt::Write as _;
        let view = self.view(name)?;
        let mut out = String::new();
        writeln!(
            out,
            "view {name} [{}] = {}",
            view.scenario().label(),
            view.definition()
        )
        .expect("write to string");
        writeln!(out, "-- materialization plan --").expect("write to string");
        out.push_str(&dvm_algebra::explain_query(view.compiled()));
        if view.log().is_some() {
            let program = view.delta_program(&self.catalog)?;
            if let (Some(past), None) = (view.materialized_past(), program.counted()) {
                let inv = match view.scenario() {
                    Scenario::BaseLog => "INV_BL",
                    _ => "INV_C",
                };
                writeln!(out, "-- PAST(L,Q) ← {inv}: {past} --").expect("write to string");
            }
            if let Some(variant) = program.full_variant() {
                render_variant(&mut out, &program, &variant, "refresh", "");
            }
        }
        Ok(out)
    }

    /// Render a view's *stored* compiled delta program: the cached ▼/▲
    /// plans steady-state propagate executes, with its compile age,
    /// counters and variant inventory ([`explain_view`](Self::explain_view)
    /// shows the same plans beside the definition's). Compiles the program
    /// on demand if the view has not been maintained yet (e.g. right after
    /// recovery).
    pub fn plan_view(&self, name: &str) -> Result<String> {
        use std::fmt::Write as _;
        let view = self.view(name)?;
        let mut out = String::new();
        if view.log().is_none() {
            writeln!(
                out,
                "view {name} [{}] keeps no log — no delta program is compiled",
                view.scenario().label()
            )
            .expect("write to string");
            return Ok(out);
        }
        let program = view.delta_program(&self.catalog)?;
        let stats = program.stats();
        let age = stats
            .compiled_at
            .elapsed()
            .map(|d| format!("{:.1}s ago", d.as_secs_f64()))
            .unwrap_or_else(|_| "just now".to_string());
        writeln!(
            out,
            "delta program for {name} [{}] — compiled {age}",
            view.scenario().label()
        )
        .expect("write to string");
        writeln!(
            out,
            "  variants {} · compiles {} · binds {} · cache hits {}",
            stats.variants, stats.compiles, stats.binds, stats.hits
        )
        .expect("write to string");
        match program.full_variant() {
            Some(variant) => {
                render_variant(
                    &mut out,
                    &program,
                    &variant,
                    "compiled",
                    " (all logs active)",
                );
                writeln!(
                    out,
                    "  ({} subplans marked [shared #n] run once per maintenance call)",
                    variant.shared.len()
                )
                .expect("write to string");
            }
            None => {
                writeln!(out, "  (definition reads no base tables — ▼/▲ are φ)")
                    .expect("write to string");
            }
        }
        let variants = program.variants_snapshot();
        if variants.len() > 1 {
            writeln!(out, "-- pruned variants --").expect("write to string");
            for v in &variants {
                writeln!(
                    out,
                    "  mask {:#x}: active logs {:?}, expr size {}",
                    v.mask,
                    program.active_log_tables(v.mask),
                    v.expr_size
                )
                .expect("write to string");
            }
        }
        Ok(out)
    }

    /// Maintenance metrics snapshot for a view.
    pub fn view_metrics(&self, name: &str) -> Result<ViewMetricsSnapshot> {
        Ok(self.view(name)?.metrics().snapshot())
    }

    /// The MV table of a view (for lock/downtime metrics).
    pub fn mv_table(&self, name: &str) -> Result<Arc<Table>> {
        let view = self.view(name)?;
        Ok(self.catalog.require(view.mv_table())?)
    }

    /// Size (total multiplicity) of a view's auxiliary state:
    /// `(log tuples, differential-table tuples)`.
    pub fn aux_sizes(&self, name: &str) -> Result<(u64, u64)> {
        let view = self.view(name)?;
        let mut log_size = 0;
        if let Some(log) = view.log() {
            for base in log.bases() {
                let (d, i) = log.get(base).expect("listed base");
                log_size += self.catalog.require(d)?.len();
                log_size += self.catalog.require(i)?.len();
            }
        }
        let mut dt_size = 0;
        if let Some((d, i)) = view.diff_tables() {
            dt_size += self.catalog.require(d)?.len();
            dt_size += self.catalog.require(i)?.len();
        }
        Ok((log_size, dt_size))
    }

    /// Staleness gauges for one view: shared-log epochs/entries pending
    /// behind its cursor (zero for non-shared views — their private logs
    /// are written in-transaction) and time since its last refresh.
    pub fn staleness(&self, name: &str) -> Result<StalenessGauges> {
        let view = self.view(name)?;
        let cursor = self.shared_cursors.read().get(name).copied();
        let (epochs_pending, pending_entries, pending_volume) = match cursor {
            Some(c) => {
                let epoch = self.shared_log.current_epoch();
                let bases: Vec<String> = view.base_tables().iter().cloned().collect();
                let (entries, volume) = self.shared_log.suffix_stats(bases.iter(), c);
                (epoch.saturating_sub(c), entries, volume)
            }
            None => (0, 0, 0),
        };
        let nanos_since_refresh = view
            .metrics()
            .last_refresh_nanos()
            .map(|at| self.now_nanos().saturating_sub(at));
        Ok(StalenessGauges {
            epochs_pending,
            pending_entries,
            pending_volume,
            nanos_since_refresh,
        })
    }

    /// Snapshot the observability registry: per-view latency histograms,
    /// MV-lock distributions, auxiliary footprints, staleness gauges, and
    /// shared-log/tracer state. Safe to call mid-traffic — every number is
    /// an independent point-in-time read.
    pub fn observability(&self) -> Observability {
        let views_list: Vec<Arc<View>> = self.views.read().values().cloned().collect();
        let mut views = Vec::with_capacity(views_list.len());
        for view in views_list {
            let name = view.name().to_string();
            // The view can race a concurrent drop_view; skip it if its
            // tables vanished mid-snapshot.
            let Ok(mv) = self.catalog.require(view.mv_table()) else {
                continue;
            };
            let (log_tuples, dt_tuples) = match self.aux_sizes(&name) {
                Ok(sizes) => sizes,
                Err(_) => continue,
            };
            let Ok(staleness) = self.staleness(&name) else {
                continue;
            };
            let lock = mv.lock_metrics();
            views.push(ViewObservability {
                name,
                scenario: view.scenario().label(),
                totals: view.metrics().snapshot(),
                latency: view.metrics().histograms(),
                mv_write_hold: lock.write_hold_histogram(),
                mv_read_wait: lock.read_wait_histogram(),
                mv_lock: lock.snapshot(),
                log_tuples,
                dt_tuples,
                staleness,
                delta_program: view.delta_program_stats(),
            });
        }
        let tables = self
            .catalog
            .tables()
            .into_iter()
            .filter(|t| t.kind() == TableKind::External)
            .map(|t| {
                let lock = t.lock_metrics();
                let indexes = t.index_stats().into_iter().map(|ix| IndexObservability {
                    columns: ix
                        .cols
                        .iter()
                        .map(|&c| t.schema().columns()[c].name.clone())
                        .collect(),
                    entries: ix.entries,
                    probes: ix.probes,
                });
                TableObservability {
                    name: t.name().to_string(),
                    write_wait: lock.write_wait_histogram(),
                    read_wait: lock.read_wait_histogram(),
                    indexes: indexes.collect(),
                }
            })
            .collect();
        let (shared_log_entries, shared_log_volume) = self.shared_log_stats();
        Observability {
            views,
            tables,
            shared_log_entries: shared_log_entries as u64,
            shared_log_volume,
            shared_log_epoch: self.shared_log.current_epoch(),
            trace_enabled: self.tracer.is_enabled(),
            trace_len: self.tracer.len() as u64,
            trace_dropped: self.tracer.dropped(),
            ingest: *self.ingest_gauges.lock(),
        }
    }

    // ---- durability ------------------------------------------------------

    /// Append a redo record for a just-committed operation. Callers invoke
    /// this *while still holding* the locks that serialized the operation
    /// (commit claims / maintenance mutex), so WAL order is a valid
    /// serialization order. No-op when no durable sink is attached. On
    /// append failure the in-memory effect stands but is not durable; the
    /// error tells the caller exactly that.
    fn log_op(&self, op: &DurableOp) -> Result<()> {
        if !self.durable_attached.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut guard = self.durable.lock();
        if let Some(d) = guard.as_mut() {
            d.wal.append(&durable::encode_op(op))?;
        }
        Ok(())
    }

    /// [`Database::log_op`] without the policy fsync: the record lands in
    /// the OS buffer and joins the open group-commit window, made durable
    /// by the caller's batch-final [`Database::sync_wal`]. Same locking
    /// discipline — the append still happens under the caller's claims.
    fn log_op_deferred(&self, op: &DurableOp) -> Result<()> {
        if !self.durable_attached.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut guard = self.durable.lock();
        if let Some(d) = guard.as_mut() {
            d.wal.append_deferred(&durable::encode_op(op))?;
        }
        Ok(())
    }

    /// Whether a durable directory is attached (database came from
    /// [`Database::open`]).
    pub fn is_durable(&self) -> bool {
        self.durable_attached.load(Ordering::Acquire)
    }

    /// The attached durable directory, if any.
    pub fn durability_dir(&self) -> Option<PathBuf> {
        self.durable.lock().as_ref().map(|d| d.dir.clone())
    }

    /// What the `open` that built this database replayed, if it was opened
    /// from a durable directory.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.durable.lock().as_ref().and_then(|d| d.last_recovery)
    }

    /// WAL status plus the last durable checkpoint LSN. Errors with
    /// [`CoreError::NotDurable`] when nothing is attached.
    pub fn wal_status(&self) -> Result<(WalStatus, u64)> {
        match self.durable.lock().as_ref() {
            Some(d) => Ok((d.wal.status(), d.last_checkpoint_lsn)),
            None => Err(CoreError::NotDurable),
        }
    }

    /// Force every appended WAL record onto stable storage now, whatever
    /// the fsync policy.
    pub fn sync_wal(&self) -> Result<()> {
        match self.durable.lock().as_mut() {
            Some(d) => Ok(d.wal.sync()?),
            None => Err(CoreError::NotDurable),
        }
    }

    /// Open (or create) a durable database at `dir` with default WAL
    /// options: load the checkpoint, replay the WAL suffix, and attach the
    /// WAL so every subsequent mutation is logged.
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        Self::open_with_options(dir, WalOptions::default())
    }

    /// [`Database::open`] with explicit WAL tunables (fsync policy, segment
    /// size).
    ///
    /// Recovery restores exactly the pre-crash invariant state: deferred
    /// views come back with their logs and differential tables intact —
    /// stale to precisely the degree they were stale at the crash — not
    /// eagerly refreshed.
    pub fn open_with_options(dir: impl AsRef<Path>, options: WalOptions) -> Result<Database> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| DurabilityError::io(dir, e))?;
        let start = Instant::now();
        let db = Database::new();

        let checkpoint_lsn = match checkpoint_file::load(dir)? {
            Some(ckpt) => {
                let state = durable::decode_state(&ckpt.payload)?;
                db.restore_state(state)?;
                ckpt.wal_lsn
            }
            None => 0,
        };

        let (mut wal, scan) = Wal::open(dir, options)?;
        wal.ensure_lsn_at_least(checkpoint_lsn);
        let mut report = RecoveryReport {
            checkpoint_lsn,
            torn_bytes_dropped: scan.torn_bytes_dropped,
            ..RecoveryReport::default()
        };
        for rec in &scan.records {
            if rec.lsn <= checkpoint_lsn {
                continue;
            }
            let op = durable::decode_op(&rec.payload)?;
            if matches!(op, DurableOp::Txn(_) | DurableOp::TxnUnmaintained(_)) {
                report.txns_replayed += 1;
            }
            db.apply_replay_op(op)?;
            report.wal_records_replayed += 1;
            report.wal_bytes_replayed +=
                rec.payload.len() as u64 + dvm_durability::wal::FRAME_HEADER;
        }
        report.recovery_nanos = start.elapsed().as_nanos() as u64;
        db.tracer.event(
            EventKind::Recovery,
            &format!(
                "checkpoint lsn {checkpoint_lsn}, {} records ({} bytes) replayed",
                report.wal_records_replayed, report.wal_bytes_replayed
            ),
            Some(report.recovery_nanos),
        );

        *db.durable.lock() = Some(DurableState {
            wal,
            dir: dir.to_path_buf(),
            last_checkpoint_lsn: checkpoint_lsn,
            last_recovery: Some(report),
        });
        db.durable_attached.store(true, Ordering::Release);
        Ok(db)
    }

    /// Cut a durable checkpoint: quiesce the engine, atomically persist the
    /// full state (base tables, MVs, logs, differential tables, cursors,
    /// shared log), and drop the WAL segments the checkpoint supersedes.
    /// Returns the WAL LSN of the cut. Errors with
    /// [`CoreError::NotDurable`] when nothing is attached.
    pub fn checkpoint(&self) -> Result<u64> {
        if !self.durable_attached.load(Ordering::Acquire) {
            return Err(CoreError::NotDurable);
        }
        loop {
            // Quiesce: every view's maintenance mutex (name order — the
            // views map is a BTreeMap) plus exclusive commit claims on
            // every table. Transactions, maintenance ops, and DDL over
            // existing tables are then fully before or fully after the
            // cut; the few unfenced ops (`create_table`, zero-base
            // `create_view`, `vacuum_shared_log`) are replay-tolerant.
            let gen = self.views_gen.load(Ordering::SeqCst);
            let views: Vec<Arc<View>> = self.views.read().values().cloned().collect();
            let _maint: Vec<_> = views.iter().map(|v| v.maintenance_lock()).collect();
            let modes: BTreeMap<String, CommitMode> = self
                .catalog
                .table_names()
                .into_iter()
                .map(|t| (t, CommitMode::Exclusive))
                .collect();
            let _claims = match self.catalog.lock_commit(&modes) {
                Ok(claims) => claims,
                // A dropped view can take its internal tables with it
                // between listing and claiming; retry on a stale view set,
                // otherwise the error is real.
                Err(e) if self.views_gen.load(Ordering::SeqCst) != gen => {
                    let _ = e;
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            if self.views_gen.load(Ordering::SeqCst) != gen {
                continue;
            }
            let _span = self.tracer.span(EventKind::Checkpoint, "cut");
            let start = Instant::now();
            // Hold the durable mutex across encode + cut + save: any op
            // logging concurrently lands strictly after the cut LSN.
            let mut guard = self.durable.lock();
            let d = guard.as_mut().ok_or(CoreError::NotDurable)?;
            let payload = durable::encode_state(&self.capture_state());
            d.wal.sync()?;
            let lsn = d.wal.last_lsn();
            checkpoint_file::save(
                &d.dir,
                &Checkpoint {
                    wal_lsn: lsn,
                    payload,
                },
            )?;
            d.last_checkpoint_lsn = lsn;
            d.wal.truncate_through(lsn)?;
            self.tracer.event(
                EventKind::Checkpoint,
                &format!("cut at lsn {lsn}"),
                Some(start.elapsed().as_nanos() as u64),
            );
            return Ok(lsn);
        }
    }

    /// One-shot export: persist a checkpoint of the current state into
    /// `dir` **without** attaching it. Opening that directory later yields
    /// an equivalent database with an empty WAL. Saving into the attached
    /// durable directory degenerates to [`Database::checkpoint`].
    pub fn save_to_dir(&self, dir: impl AsRef<Path>) -> Result<()> {
        let dir = dir.as_ref();
        if let Some(attached) = self.durability_dir() {
            let same = match (std::fs::canonicalize(dir), std::fs::canonicalize(&attached)) {
                (Ok(a), Ok(b)) => a == b,
                _ => dir == attached,
            };
            if same {
                return self.checkpoint().map(|_| ());
            }
        }
        std::fs::create_dir_all(dir).map_err(|e| DurabilityError::io(dir, e))?;
        loop {
            let gen = self.views_gen.load(Ordering::SeqCst);
            let views: Vec<Arc<View>> = self.views.read().values().cloned().collect();
            let _maint: Vec<_> = views.iter().map(|v| v.maintenance_lock()).collect();
            let modes: BTreeMap<String, CommitMode> = self
                .catalog
                .table_names()
                .into_iter()
                .map(|t| (t, CommitMode::Exclusive))
                .collect();
            let _claims = match self.catalog.lock_commit(&modes) {
                Ok(claims) => claims,
                Err(e) if self.views_gen.load(Ordering::SeqCst) != gen => {
                    let _ = e;
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            if self.views_gen.load(Ordering::SeqCst) != gen {
                continue;
            }
            let payload = durable::encode_state(&self.capture_state());
            // The target may hold WAL segments from an earlier database;
            // with `wal_lsn: 0` they would replay on top of this snapshot.
            // Remove them first (crash in between leaves a WAL-less dir).
            for seg in CrashFs::wal_segments(dir)? {
                std::fs::remove_file(&seg).map_err(|e| DurabilityError::io(&seg, e))?;
            }
            checkpoint_file::save(
                dir,
                &Checkpoint {
                    wal_lsn: 0,
                    payload,
                },
            )?;
            return Ok(());
        }
    }

    /// Full engine image for a checkpoint. Callers hold the quiesce locks;
    /// every read here is then a stable commit-boundary read.
    fn capture_state(&self) -> StateImage {
        let tables = self
            .catalog
            .tables()
            .into_iter()
            .map(|t| TableImage {
                name: t.name().to_string(),
                kind: t.kind(),
                schema: t.schema().clone(),
                bag: t.snapshot_bag(),
            })
            .collect();
        let cursors = self.shared_cursors.read();
        let views = self
            .views
            .read()
            .values()
            .map(|v| ViewImage {
                name: v.name().to_string(),
                definition: v.definition().clone(),
                scenario: v.scenario(),
                minimality: v.minimality(),
                cursor: cursors.get(v.name()).copied(),
            })
            .collect();
        drop(cursors);
        let (shared_epoch, shared_entries) = self.shared_log.export_state();
        StateImage {
            tables,
            views,
            shared_epoch,
            shared_entries,
        }
    }

    /// Rebuild engine state from a checkpoint image: tables (with their
    /// recorded kinds and contents) go in as-is, views are re-registered
    /// around their existing MV/log/differential tables *without*
    /// re-initialization, and the shared log and cursors are restored.
    fn restore_state(&self, state: StateImage) -> Result<()> {
        for t in state.tables {
            let table = self.catalog.create_table(t.name, t.schema, t.kind)?;
            table.replace(t.bag)?;
        }
        self.shared_log
            .restore_state(state.shared_epoch, state.shared_entries);
        {
            let mut cursors = self.shared_cursors.write();
            for v in &state.views {
                if let Some(c) = v.cursor {
                    cursors.insert(v.name.clone(), c);
                }
            }
        }
        let mut registered = BTreeMap::new();
        for v in state.views {
            let compiled = compile(&v.definition, &self.catalog)?;
            let view = View::new(&v.name, v.definition, compiled, v.scenario, v.minimality)?;
            for (table, cols) in self.view_indexes(&view) {
                table.register_index(&cols);
            }
            registered.insert(v.name, Arc::new(view));
        }
        let mut views = self.views.write();
        *views = registered;
        self.views_gen.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Redo one WAL record through the ordinary public methods. Only runs
    /// during `open`, before the durable sink attaches, so nothing re-logs.
    /// DDL records are idempotent-tolerant (see [`Database::checkpoint`]:
    /// a handful of ops can land both in the checkpoint image and after
    /// the cut); transactions are strictly fenced and never replay twice.
    fn apply_replay_op(&self, op: DurableOp) -> Result<()> {
        match op {
            DurableOp::CreateTable { name, schema } => {
                if self.catalog.contains(&name) {
                    return Ok(());
                }
                self.catalog
                    .create_table(name, schema, TableKind::External)?;
                Ok(())
            }
            DurableOp::Txn(tx) => self.execute(&tx).map(|_| ()),
            DurableOp::TxnUnmaintained(tx) => self.execute_unmaintained(&tx).map(|_| ()),
            DurableOp::CreateView {
                name,
                definition,
                scenario,
                minimality,
                shared,
            } => {
                if self.views.read().contains_key(&name)
                    || self.catalog.contains(&crate::view::mv_table_name(&name))
                {
                    return Ok(());
                }
                self.create_view_inner(name, definition, scenario, minimality, shared)
            }
            DurableOp::DropView(name) => match self.drop_view(&name) {
                Err(CoreError::NoSuchView(_)) => Ok(()),
                r => r,
            },
            DurableOp::Refresh(name) => match self.refresh(&name) {
                Err(CoreError::NoSuchView(_)) => Ok(()),
                r => r,
            },
            DurableOp::Propagate(name) => match self.propagate(&name) {
                Err(CoreError::NoSuchView(_)) => Ok(()),
                r => r,
            },
            DurableOp::PartialRefresh(name) => match self.partial_refresh(&name) {
                Err(CoreError::NoSuchView(_)) => Ok(()),
                r => r,
            },
            DurableOp::VacuumSharedLog => {
                self.vacuum_shared_log();
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_storage::{tuple, ValueType};

    fn db_with_r() -> Database {
        let db = Database::new();
        let schema = Schema::from_pairs(&[("a", ValueType::Int)]);
        db.create_table("r", schema).unwrap();
        db.execute_unmaintained(
            &Transaction::new()
                .insert_tuple("r", tuple![1])
                .insert_tuple("r", tuple![2]),
        )
        .unwrap();
        db
    }

    #[test]
    fn view_initialized_to_current_value() {
        let db = db_with_r();
        db.create_view("v", Expr::table("r"), Scenario::BaseLog)
            .unwrap();
        assert_eq!(db.query_view("v").unwrap().len(), 2);
        assert!(db.check_invariant("v").unwrap().ok());
    }

    #[test]
    fn duplicate_view_rejected() {
        let db = db_with_r();
        db.create_view("v", Expr::table("r"), Scenario::Immediate)
            .unwrap();
        assert!(matches!(
            db.create_view("v", Expr::table("r"), Scenario::Immediate),
            Err(CoreError::DuplicateView(_))
        ));
    }

    #[test]
    fn invalid_transaction_leaves_logs_untouched() {
        // Regression (code review): a type-mismatched transaction used to
        // extend the view's log before failing at base-table apply time,
        // leaving phantom entries that broke INV_BL.
        let db = db_with_r();
        db.create_view("v", Expr::table("r"), Scenario::BaseLog)
            .unwrap();
        let bad = Transaction::new().insert_tuple("r", tuple!["not-an-int"]);
        assert!(db.execute(&bad).is_err());
        let (log_size, _) = db.aux_sizes("v").unwrap();
        assert_eq!(log_size, 0, "failed tx must not extend the log");
        assert!(db.check_invariant("v").unwrap().ok());
    }

    #[test]
    fn execute_unmaintained_rejects_internal_tables() {
        let db = db_with_r();
        db.create_view("v", Expr::table("r"), Scenario::BaseLog)
            .unwrap();
        assert!(matches!(
            db.execute_unmaintained(&Transaction::new().insert_tuple("__mv_v", tuple![9])),
            Err(CoreError::InternalTableWrite(_))
        ));
    }

    #[test]
    fn internal_table_writes_rejected() {
        let db = db_with_r();
        db.create_view("v", Expr::table("r"), Scenario::BaseLog)
            .unwrap();
        let tx = Transaction::new().insert_tuple("__mv_v", tuple![9]);
        assert!(matches!(
            db.execute(&tx),
            Err(CoreError::InternalTableWrite(_))
        ));
        let tx = Transaction::new().insert_tuple("__v_log_ins_r", tuple![9]);
        assert!(matches!(
            db.execute(&tx),
            Err(CoreError::InternalTableWrite(_))
        ));
    }

    #[test]
    fn immediate_view_stays_consistent() {
        let db = db_with_r();
        db.create_view("v", Expr::table("r"), Scenario::Immediate)
            .unwrap();
        db.execute(&Transaction::new().insert_tuple("r", tuple![3]))
            .unwrap();
        db.execute(&Transaction::new().delete_tuple("r", tuple![1]))
            .unwrap();
        assert_eq!(db.query_view("v").unwrap(), db.recompute_view("v").unwrap());
        assert!(db.check_invariant("v").unwrap().ok());
    }

    #[test]
    fn deferred_views_refresh_to_truth() {
        for scenario in [Scenario::BaseLog, Scenario::DiffTable, Scenario::Combined] {
            let db = db_with_r();
            db.create_view("v", Expr::table("r"), scenario).unwrap();
            db.execute(&Transaction::new().insert_tuple("r", tuple![3]))
                .unwrap();
            db.execute(&Transaction::new().delete_tuple("r", tuple![2]))
                .unwrap();
            assert!(db.check_invariant("v").unwrap().ok(), "{scenario:?}");
            if scenario != Scenario::DiffTable {
                // deferred: stale before refresh
                assert_ne!(
                    db.query_view("v").unwrap(),
                    db.recompute_view("v").unwrap(),
                    "{scenario:?} should be stale"
                );
            }
            db.refresh("v").unwrap();
            assert_eq!(
                db.query_view("v").unwrap(),
                db.recompute_view("v").unwrap(),
                "{scenario:?}"
            );
            assert!(db.check_invariant("v").unwrap().ok());
        }
    }

    #[test]
    fn combined_propagate_and_partial_refresh() {
        let db = db_with_r();
        db.create_view("v", Expr::table("r"), Scenario::Combined)
            .unwrap();
        db.execute(&Transaction::new().insert_tuple("r", tuple![3]))
            .unwrap();
        db.propagate("v").unwrap();
        db.execute(&Transaction::new().insert_tuple("r", tuple![4]))
            .unwrap();
        db.partial_refresh("v").unwrap();
        // view reflects state as of the propagate, not the later insert
        let v = db.query_view("v").unwrap();
        assert!(v.contains(&tuple![3]));
        assert!(!v.contains(&tuple![4]));
        assert!(db.check_invariant("v").unwrap().ok());
        db.refresh("v").unwrap();
        assert!(db.query_view("v").unwrap().contains(&tuple![4]));
    }

    #[test]
    fn propagate_on_wrong_scenario_rejected() {
        let db = db_with_r();
        db.create_view("v", Expr::table("r"), Scenario::BaseLog)
            .unwrap();
        assert!(matches!(
            db.propagate("v"),
            Err(CoreError::WrongScenario { .. })
        ));
        assert!(matches!(
            db.partial_refresh("v"),
            Err(CoreError::WrongScenario { .. })
        ));
    }

    /// `propagate_many` must not behave differently by core count: a
    /// failing view stops neither the serial nor the pooled fan-out, and
    /// both report the first error in input order.
    #[test]
    fn propagate_many_runs_every_view_at_any_width() {
        for threads in [1, 2] {
            let db = db_with_r();
            db.set_maintenance_threads(threads);
            db.create_view("im", Expr::table("r"), Scenario::Immediate)
                .unwrap();
            db.create_view("c", Expr::table("r"), Scenario::Combined)
                .unwrap();
            db.execute(&Transaction::new().insert_tuple("r", tuple![7]))
                .unwrap();
            assert!(db.aux_sizes("c").unwrap().0 > 0, "the log holds the insert");

            let err = db
                .propagate_many(&["im".to_string(), "c".to_string()])
                .unwrap_err();
            assert!(
                matches!(&err, CoreError::WrongScenario { view, op: "propagate" } if view == "im"),
                "{threads} thread(s): {err:?}"
            );
            assert_eq!(
                db.aux_sizes("c").unwrap().0,
                0,
                "{threads} thread(s): the view after the failing one still propagated"
            );
        }
    }

    #[test]
    fn multiple_views_over_same_base() {
        let db = db_with_r();
        db.create_view("im", Expr::table("r"), Scenario::Immediate)
            .unwrap();
        db.create_view("bl", Expr::table("r"), Scenario::BaseLog)
            .unwrap();
        db.create_view("c", Expr::table("r"), Scenario::Combined)
            .unwrap();
        let report = db
            .execute(&Transaction::new().insert_tuple("r", tuple![7]))
            .unwrap();
        assert_eq!(report.views_maintained, 3);
        assert!(db.check_all_invariants().unwrap().is_empty());
        db.refresh("bl").unwrap();
        db.refresh("c").unwrap();
        for v in ["im", "bl", "c"] {
            assert_eq!(db.query_view(v).unwrap(), db.recompute_view(v).unwrap());
        }
    }

    #[test]
    fn drop_view_removes_aux_tables() {
        let db = db_with_r();
        db.create_view("v", Expr::table("r"), Scenario::Combined)
            .unwrap();
        assert!(db.catalog().contains("__mv_v"));
        db.drop_view("v").unwrap();
        assert!(!db.catalog().contains("__mv_v"));
        assert!(!db.catalog().contains("__v_log_del_r"));
        assert!(!db.catalog().contains("__v_dt_del"));
        assert!(matches!(db.drop_view("v"), Err(CoreError::NoSuchView(_))));
    }

    #[test]
    fn metrics_and_aux_sizes() {
        let db = db_with_r();
        db.create_view("v", Expr::table("r"), Scenario::Combined)
            .unwrap();
        db.execute(&Transaction::new().insert_tuple("r", tuple![5]))
            .unwrap();
        let (log, dt) = db.aux_sizes("v").unwrap();
        assert_eq!(log, 1);
        assert_eq!(dt, 0);
        db.propagate("v").unwrap();
        let (log, dt) = db.aux_sizes("v").unwrap();
        assert_eq!(log, 0);
        assert_eq!(dt, 1);
        let m = db.view_metrics("v").unwrap();
        assert_eq!(m.makesafe_count, 1);
        assert_eq!(m.propagate_count, 1);
    }

    #[test]
    fn irrelevant_views_skip_maintenance() {
        let db = db_with_r();
        let schema = Schema::from_pairs(&[("x", ValueType::Int)]);
        db.create_table("other", schema).unwrap();
        db.create_view("v", Expr::table("r"), Scenario::BaseLog)
            .unwrap();
        let report = db
            .execute(&Transaction::new().insert_tuple("other", tuple![1]))
            .unwrap();
        assert_eq!(report.views_maintained, 0);
    }
}
