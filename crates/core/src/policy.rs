//! Refresh policies (Section 5.3) over a simulated clock.
//!
//! A *policy* decides when the Figure-3 refresh functions actually run.
//! Policies 1 and 2 are the paper's named policies for the `INV_C`
//! scenario; `PeriodicRefresh`, `OnDemand`, and `OnQuery` cover the other
//! variants discussed in Section 5.
//!
//! Time is a discrete tick counter so experiments are deterministic and
//! Example 5.4's "propagate hourly, refresh daily" runs in microseconds
//! (1 tick = 1 simulated minute there).

use crate::database::Database;
use crate::error::{CoreError, Result};
use crate::view::Scenario;
use dvm_obs::EventKind;
use std::fmt;

/// When maintenance operations fire for one view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshPolicy {
    /// Refresh only when the user calls [`Database::refresh`] directly.
    OnDemand,
    /// Refresh before every read (see [`PolicyDriver::query`]).
    OnQuery,
    /// `refresh_*` every `every` ticks (any deferred scenario).
    PeriodicRefresh {
        /// Refresh period in ticks.
        every: u64,
    },
    /// **Policy 1**: `propagate_C` every `k` ticks, full `refresh_C` every
    /// `m` ticks (`m > k`). Low downtime: most incremental work has already
    /// been propagated when the refresh runs.
    Policy1 {
        /// Propagation period `k`.
        k: u64,
        /// Refresh period `m`.
        m: u64,
    },
    /// **Policy 2**: `propagate_C` every `k` ticks, `partial_refresh_C`
    /// every `m` ticks. *Minimal* downtime — the refresh only applies
    /// precomputed differential tables — at the price of the view being up
    /// to `k` ticks stale after a refresh.
    Policy2 {
        /// Propagation period `k`.
        k: u64,
        /// Partial-refresh period `m`.
        m: u64,
    },
    /// **SLA deadline scheduler**: keep the view's *measured* staleness
    /// (time since last refresh, from [`Database::staleness`]) under an
    /// explicit bound, instead of refreshing on a blind period. Each tick
    /// the driver reads the staleness gauges, computes every SLA view's
    /// deadline, and refreshes — earliest deadline first — exactly the
    /// views whose deadlines would pass before the next tick.
    /// Combined-scenario views also join the tick's propagate batch so the
    /// deadline refresh applies mostly precomputed differentials.
    Sla {
        /// Maximum tolerated nanoseconds since the last completed refresh.
        staleness_bound: u64,
    },
}

impl fmt::Display for RefreshPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefreshPolicy::OnDemand => write!(f, "on-demand"),
            RefreshPolicy::OnQuery => write!(f, "on-query"),
            RefreshPolicy::PeriodicRefresh { every } => write!(f, "periodic(every={every})"),
            RefreshPolicy::Policy1 { k, m } => write!(f, "policy1(k={k}, m={m})"),
            RefreshPolicy::Policy2 { k, m } => write!(f, "policy2(k={k}, m={m})"),
            RefreshPolicy::Sla { staleness_bound } => {
                write!(
                    f,
                    "sla(bound={})",
                    dvm_obs::fmt_nanos(*staleness_bound as f64)
                )
            }
        }
    }
}

impl RefreshPolicy {
    /// Whether this policy can drive a view maintained under `scenario`:
    /// `Ok(())`, or a typed [`CoreError::IncompatiblePolicy`] naming the
    /// offending scenario (the `view` field is filled in by
    /// [`PolicyDriver::add_view`], which knows the registration target).
    pub fn compatible_with(&self, scenario: Scenario) -> Result<()> {
        let ok = match self {
            RefreshPolicy::OnDemand => true,
            RefreshPolicy::OnQuery
            | RefreshPolicy::PeriodicRefresh { .. }
            | RefreshPolicy::Sla { .. } => scenario != Scenario::Immediate,
            RefreshPolicy::Policy1 { .. } | RefreshPolicy::Policy2 { .. } => {
                scenario == Scenario::Combined
            }
        };
        if ok {
            Ok(())
        } else {
            Err(CoreError::IncompatiblePolicy {
                view: String::new(),
                policy: self.to_string(),
                scenario: scenario.label(),
            })
        }
    }
}

/// What a tick executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TickActions {
    /// Number of `propagate_C` operations run.
    pub propagates: usize,
    /// Number of full refreshes run.
    pub refreshes: usize,
    /// Number of partial refreshes run.
    pub partial_refreshes: usize,
}

/// One registered view: its policy plus the scenario captured at
/// registration (so the SLA scheduler can route Combined views through
/// the propagate batch without re-resolving the view each tick).
struct Entry {
    name: String,
    policy: RefreshPolicy,
    scenario: Scenario,
}

/// Drives per-view policies against a database on a shared tick counter.
pub struct PolicyDriver<'a> {
    db: &'a Database,
    entries: Vec<Entry>,
    tick: u64,
    /// `Database::now_nanos` at the end of the previous tick, if any.
    last_tick_at: Option<u64>,
    /// Smoothed inter-tick gap estimate (nanoseconds) — the SLA deadline
    /// scheduler acts *this* tick on any view whose deadline would pass
    /// before the next tick is expected.
    est_gap_nanos: u64,
}

impl<'a> PolicyDriver<'a> {
    /// A driver starting at tick 0.
    pub fn new(db: &'a Database) -> Self {
        PolicyDriver {
            db,
            entries: Vec::new(),
            tick: 0,
            last_tick_at: None,
            est_gap_nanos: 0,
        }
    }

    /// Register a view under a policy; validated against its scenario.
    pub fn add_view(&mut self, name: impl Into<String>, policy: RefreshPolicy) -> Result<()> {
        let name = name.into();
        let scenario = self.db.view(&name)?.scenario();
        policy.compatible_with(scenario).map_err(|e| match e {
            CoreError::IncompatiblePolicy {
                policy, scenario, ..
            } => CoreError::IncompatiblePolicy {
                view: name.clone(),
                policy,
                scenario,
            },
            other => other,
        })?;
        self.entries.push(Entry {
            name,
            policy,
            scenario,
        });
        Ok(())
    }

    /// Current tick.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Reposition the tick counter (e.g. to probe behaviour near
    /// `u64::MAX`); the next [`tick`](Self::tick) runs at `tick + 1`,
    /// wrapping to 0 past the end of the counter's range.
    pub fn seek(&mut self, tick: u64) {
        self.tick = tick;
    }

    /// Views whose SLA deadline would pass before the next expected tick,
    /// sorted earliest-deadline-first (ascending remaining slack). A view
    /// that has never refreshed is maximally urgent.
    fn sla_due(&self) -> Result<Vec<(u64, String, Scenario)>> {
        let mut due: Vec<(u64, String, Scenario)> = Vec::new();
        for e in &self.entries {
            if let RefreshPolicy::Sla { staleness_bound } = e.policy {
                let staleness = self
                    .db
                    .staleness(&e.name)?
                    .nanos_since_refresh
                    .unwrap_or(u64::MAX);
                if staleness.saturating_add(self.est_gap_nanos) >= staleness_bound {
                    let slack = staleness_bound.saturating_sub(staleness);
                    due.push((slack, e.name.clone(), e.scenario));
                }
            }
        }
        due.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        Ok(due)
    }

    /// Advance one tick, running whatever is due. When both a propagate and
    /// a refresh are due on the same tick, the propagate runs first (so the
    /// refresh applies the freshest differential tables).
    ///
    /// All due propagates run as one batch through
    /// [`Database::propagate_many`]; refreshes then run in registration
    /// order. SLA views whose
    /// deadline would pass before the next tick join the propagate batch
    /// (Combined scenario only) and are then refreshed
    /// earliest-deadline-first through [`Database::refresh_many`].
    ///
    /// The tick counter wraps at `u64::MAX` rather than panicking, so a
    /// driver left running indefinitely never aborts; period arithmetic
    /// simply restarts from tick 0.
    pub fn tick(&mut self) -> Result<TickActions> {
        self.tick = self.tick.wrapping_add(1);
        let t = self.tick;
        let mut actions = TickActions::default();

        // Real-time bookkeeping for the SLA deadline scheduler.
        let now = self.db.now_nanos();
        if let Some(prev) = self.last_tick_at {
            let gap = now.saturating_sub(prev);
            self.est_gap_nanos = if self.est_gap_nanos == 0 {
                gap
            } else {
                // EWMA (α = 1/4): smooth over scheduling jitter.
                (3 * self.est_gap_nanos + gap) / 4
            };
        }
        self.last_tick_at = Some(now);

        let sla_due = self.sla_due()?;
        let mut due_propagates: Vec<String> = self
            .entries
            .iter()
            .filter_map(|e| match e.policy {
                RefreshPolicy::Policy1 { k, m } if t.is_multiple_of(k) && !t.is_multiple_of(m) => {
                    Some(e.name.clone())
                }
                RefreshPolicy::Policy2 { k, .. } if t.is_multiple_of(k) => Some(e.name.clone()),
                _ => None,
            })
            .collect();
        // Due SLA views under Combined also propagate in the shared batch:
        // their refresh then mostly applies precomputed differentials.
        for (_, name, scenario) in &sla_due {
            if *scenario == Scenario::Combined {
                due_propagates.push(name.clone());
            }
        }
        actions.propagates = due_propagates.len();
        let trace = self.db.tracer();
        if trace.is_enabled() {
            for name in &due_propagates {
                trace.event(
                    EventKind::Policy,
                    &format!("t{t}: propagate {name} due"),
                    None,
                );
            }
        }
        self.db.propagate_many(&due_propagates)?;
        for Entry { name, policy, .. } in &self.entries {
            match *policy {
                RefreshPolicy::OnDemand | RefreshPolicy::OnQuery => {}
                RefreshPolicy::PeriodicRefresh { every } => {
                    if t.is_multiple_of(every) {
                        if trace.is_enabled() {
                            trace.event(
                                EventKind::Policy,
                                &format!("t{t}: refresh {name} (periodic, every {every})"),
                                None,
                            );
                        }
                        self.db.refresh(name)?;
                        actions.refreshes += 1;
                    }
                }
                RefreshPolicy::Policy1 { m, .. } => {
                    if t.is_multiple_of(m) {
                        if trace.is_enabled() {
                            trace.event(
                                EventKind::Policy,
                                &format!("t{t}: refresh {name} (policy 1, m={m})"),
                                None,
                            );
                        }
                        // refresh_C = propagate ; partial_refresh
                        self.db.refresh(name)?;
                        actions.refreshes += 1;
                    }
                }
                RefreshPolicy::Policy2 { m, .. } => {
                    if t.is_multiple_of(m) {
                        if trace.is_enabled() {
                            trace.event(
                                EventKind::Policy,
                                &format!("t{t}: partial refresh {name} (policy 2, m={m})"),
                                None,
                            );
                        }
                        self.db.partial_refresh(name)?;
                        actions.partial_refreshes += 1;
                    }
                }
                // Handled below, earliest-deadline-first.
                RefreshPolicy::Sla { .. } => {}
            }
        }
        if !sla_due.is_empty() {
            if trace.is_enabled() {
                for (slack, name, _) in &sla_due {
                    trace.event(
                        EventKind::Policy,
                        &format!("t{t}: sla refresh {name} (slack {slack}ns)"),
                        None,
                    );
                }
            }
            let names: Vec<String> = sla_due.iter().map(|(_, n, _)| n.clone()).collect();
            self.db.refresh_many(&names)?;
            actions.refreshes += names.len();
        }
        // One staleness sample per tick, after the tick's maintenance — the
        // time-series recorder turns this into per-view staleness/backlog
        // curves (`\profile show`, `exp_profile`).
        self.db.sample_staleness_series();
        Ok(actions)
    }

    /// Advance `n` ticks.
    pub fn run(&mut self, n: u64) -> Result<TickActions> {
        let mut total = TickActions::default();
        for _ in 0..n {
            let a = self.tick()?;
            total.propagates += a.propagates;
            total.refreshes += a.refreshes;
            total.partial_refreshes += a.partial_refreshes;
        }
        Ok(total)
    }

    /// Read a view under its policy: `OnQuery` views are refreshed first.
    pub fn query(&self, name: &str) -> Result<dvm_storage::Bag> {
        if let Some(e) = self.entries.iter().find(|e| e.name == name) {
            if matches!(e.policy, RefreshPolicy::OnQuery) {
                self.db.refresh(name)?;
            }
        }
        self.db.query_view(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_algebra::Expr;
    use dvm_delta::Transaction;
    use dvm_storage::{tuple, Schema, ValueType};

    fn db() -> Database {
        let d = Database::new();
        d.create_table("r", Schema::from_pairs(&[("a", ValueType::Int)]))
            .unwrap();
        d
    }

    #[test]
    fn policy_compatibility() {
        assert!(RefreshPolicy::OnDemand
            .compatible_with(Scenario::Immediate)
            .is_ok());
        assert!(RefreshPolicy::PeriodicRefresh { every: 5 }
            .compatible_with(Scenario::Immediate)
            .is_err());
        assert!(RefreshPolicy::Policy1 { k: 1, m: 24 }
            .compatible_with(Scenario::Combined)
            .is_ok());
        assert!(RefreshPolicy::Policy1 { k: 1, m: 24 }
            .compatible_with(Scenario::BaseLog)
            .is_err());
        assert!(RefreshPolicy::Policy2 { k: 1, m: 24 }
            .compatible_with(Scenario::Combined)
            .is_ok());
        assert!(RefreshPolicy::OnQuery
            .compatible_with(Scenario::BaseLog)
            .is_ok());
        assert!(RefreshPolicy::Sla {
            staleness_bound: 1_000_000
        }
        .compatible_with(Scenario::BaseLog)
        .is_ok());
        assert!(RefreshPolicy::Sla {
            staleness_bound: 1_000_000
        }
        .compatible_with(Scenario::Immediate)
        .is_err());
    }

    #[test]
    fn incompatible_policy_error_names_scenario() {
        // Bare check: the error carries the rendered policy + the
        // offending scenario, with no view attached yet.
        let err = RefreshPolicy::Policy1 { k: 1, m: 24 }
            .compatible_with(Scenario::BaseLog)
            .unwrap_err();
        match &err {
            CoreError::IncompatiblePolicy {
                view,
                policy,
                scenario,
            } => {
                assert!(view.is_empty());
                assert_eq!(policy, "policy1(k=1, m=24)");
                assert_eq!(*scenario, Scenario::BaseLog.label());
            }
            other => panic!("unexpected error: {other:?}"),
        }
        assert!(err.to_string().contains("cannot drive scenario"));
    }

    #[test]
    fn incompatible_registration_rejected() {
        let d = db();
        d.create_view("v", Expr::table("r"), Scenario::BaseLog)
            .unwrap();
        let mut driver = PolicyDriver::new(&d);
        let err = driver
            .add_view("v", RefreshPolicy::Policy2 { k: 1, m: 4 })
            .unwrap_err();
        // The registration path patches the view name into the error.
        match &err {
            CoreError::IncompatiblePolicy { view, scenario, .. } => {
                assert_eq!(view, "v");
                assert_eq!(*scenario, Scenario::BaseLog.label());
            }
            other => panic!("unexpected error: {other:?}"),
        }
        assert!(err.to_string().contains("view 'v'"));
        assert!(driver
            .add_view("v", RefreshPolicy::PeriodicRefresh { every: 3 })
            .is_ok());
    }

    #[test]
    fn periodic_refresh_fires_on_schedule() {
        let d = db();
        d.create_view("v", Expr::table("r"), Scenario::BaseLog)
            .unwrap();
        let mut driver = PolicyDriver::new(&d);
        driver
            .add_view("v", RefreshPolicy::PeriodicRefresh { every: 3 })
            .unwrap();
        d.execute(&Transaction::new().insert_tuple("r", tuple![1]))
            .unwrap();
        assert_eq!(driver.run(2).unwrap().refreshes, 0);
        assert!(d.query_view("v").unwrap().is_empty(), "still stale");
        assert_eq!(driver.tick().unwrap().refreshes, 1);
        assert_eq!(d.query_view("v").unwrap().len(), 1);
        assert_eq!(driver.now(), 3);
    }

    #[test]
    fn policy1_propagates_k_refreshes_m() {
        let d = db();
        d.create_view("v", Expr::table("r"), Scenario::Combined)
            .unwrap();
        let mut driver = PolicyDriver::new(&d);
        driver
            .add_view("v", RefreshPolicy::Policy1 { k: 2, m: 6 })
            .unwrap();
        d.execute(&Transaction::new().insert_tuple("r", tuple![1]))
            .unwrap();
        let total = driver.run(6).unwrap();
        // propagate at t=2,4 (t=6 is folded into refresh), refresh at t=6
        assert_eq!(total.propagates, 2);
        assert_eq!(total.refreshes, 1);
        assert_eq!(d.query_view("v").unwrap().len(), 1);
    }

    #[test]
    fn policy2_partial_refresh_stays_one_interval_stale() {
        let d = db();
        d.create_view("v", Expr::table("r"), Scenario::Combined)
            .unwrap();
        let mut driver = PolicyDriver::new(&d);
        driver
            .add_view("v", RefreshPolicy::Policy2 { k: 1, m: 4 })
            .unwrap();
        // insert on every tick; at t=4 the partial refresh applies
        // everything propagated through t=4's propagate (k=1 propagates
        // first), so staleness ≤ k ticks.
        for i in 0..4i64 {
            d.execute(&Transaction::new().insert_tuple("r", tuple![i]))
                .unwrap();
            driver.tick().unwrap();
        }
        let v = d.query_view("v").unwrap();
        assert_eq!(v.len(), 4, "partial refresh at t=4 saw all 4 inserts");
        assert!(d.check_invariant("v").unwrap().ok());
    }

    #[test]
    fn policy1_with_m_not_above_k_degenerates_to_periodic_refresh() {
        // The paper assumes m > k (propagate often, refresh rarely). The
        // driver must still behave when the periods collide or invert:
        // every k-tick that is also an m-tick folds its propagate into the
        // refresh, so no tick runs both on the same view.
        let d = db();
        d.create_view("v", Expr::table("r"), Scenario::Combined)
            .unwrap();
        let mut driver = PolicyDriver::new(&d);
        driver
            .add_view("v", RefreshPolicy::Policy1 { k: 3, m: 3 })
            .unwrap();
        d.execute(&Transaction::new().insert_tuple("r", tuple![1]))
            .unwrap();
        let total = driver.run(6).unwrap();
        assert_eq!(total.propagates, 0, "m == k: every k-tick is an m-tick");
        assert_eq!(total.refreshes, 2);
        assert_eq!(d.query_view("v").unwrap().len(), 1);

        // m < k with m | k: refreshes dominate, propagates never fire.
        let mut driver = PolicyDriver::new(&d);
        driver
            .add_view("v", RefreshPolicy::Policy1 { k: 4, m: 2 })
            .unwrap();
        d.execute(&Transaction::new().insert_tuple("r", tuple![2]))
            .unwrap();
        let total = driver.run(4).unwrap();
        assert_eq!(total.propagates, 0, "multiples of 4 are all multiples of 2");
        assert_eq!(total.refreshes, 2);
        assert_eq!(d.query_view("v").unwrap().len(), 2);
        assert!(d.check_invariant("v").unwrap().ok());
    }

    #[test]
    fn tick_counter_wraps_at_u64_max_without_panicking() {
        let d = db();
        d.create_view("v", Expr::table("r"), Scenario::BaseLog)
            .unwrap();
        d.create_view("w", Expr::table("r"), Scenario::Combined)
            .unwrap();
        let mut driver = PolicyDriver::new(&d);
        driver
            .add_view("v", RefreshPolicy::PeriodicRefresh { every: 3 })
            .unwrap();
        driver
            .add_view("w", RefreshPolicy::Policy1 { k: 2, m: 4 })
            .unwrap();
        d.execute(&Transaction::new().insert_tuple("r", tuple![1]))
            .unwrap();
        driver.seek(u64::MAX - 2);
        // Ticks: MAX-1, MAX, 0 (wrap), 1, 2, 3.
        let total = driver.run(6).unwrap();
        assert_eq!(driver.now(), 3, "counter wrapped through u64::MAX to 3");
        // u64::MAX ≡ 0 (mod 3), so the periodic view refreshes at MAX, at
        // the wrap tick 0, and at 3. Policy1 (k=2, m=4): MAX-1 ≡ 2 (mod 4)
        // propagates, the wrap tick 0 refreshes, 2 propagates again.
        assert_eq!(total.refreshes, 4);
        assert_eq!(total.propagates, 2);
        assert_eq!(d.query_view("v").unwrap().len(), 1);
        assert_eq!(d.query_view("w").unwrap().len(), 1);
        assert!(d.check_invariant("w").unwrap().ok());
    }

    #[test]
    fn sla_staleness_never_exceeds_bound_plus_one_maintenance() {
        // The deadline scheduler refreshes any view whose staleness would
        // cross the bound by the next expected tick, so right after a tick
        // returns, staleness can only exceed the bound by the duration of
        // that tick's own maintenance (when the refresh ran mid-tick).
        let d = db();
        d.create_view("v", Expr::table("r"), Scenario::Combined)
            .unwrap();
        d.refresh("v").unwrap();
        let bound = 2_000_000; // 2 ms
        let mut driver = PolicyDriver::new(&d);
        driver
            .add_view(
                "v",
                RefreshPolicy::Sla {
                    staleness_bound: bound,
                },
            )
            .unwrap();
        let mut refreshes = 0;
        for i in 0..200i64 {
            d.execute(&Transaction::new().insert_tuple("r", tuple![i]))
                .unwrap();
            // Vary the cadence so the EWMA gap estimate sees jitter.
            if i % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
            let start = std::time::Instant::now();
            refreshes += driver.tick().unwrap().refreshes;
            let after = d.staleness("v").unwrap().nanos_since_refresh.unwrap();
            let tick_ns = start.elapsed().as_nanos() as u64;
            assert!(
                after <= bound + tick_ns,
                "tick {i}: staleness {after}ns above bound {bound}ns + maintenance {tick_ns}ns"
            );
        }
        assert!(refreshes > 0, "the bound forced deadline refreshes");
        assert!(d.check_invariant("v").unwrap().ok());
    }

    #[test]
    fn on_query_refreshes_before_read() {
        let d = db();
        d.create_view("v", Expr::table("r"), Scenario::BaseLog)
            .unwrap();
        let mut driver = PolicyDriver::new(&d);
        driver.add_view("v", RefreshPolicy::OnQuery).unwrap();
        d.execute(&Transaction::new().insert_tuple("r", tuple![1]))
            .unwrap();
        assert_eq!(d.query_view("v").unwrap().len(), 0, "stale via raw read");
        assert_eq!(driver.query("v").unwrap().len(), 1, "fresh via policy read");
    }
}
