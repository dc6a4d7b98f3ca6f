//! # dvm-core — the deferred view maintenance engine
//!
//! Contribution 1 of *"Algorithms for Deferred View Maintenance"* (Colby,
//! Griffin, Libkin, Mumick, Trickey — SIGMOD 1996): view maintenance cast
//! as the preservation of **database invariants** (Figure 1), with the
//! algorithms of **Figure 3** and the refresh **policies** of Section 5.3.
//!
//! | scenario | invariant | per-tx overhead | refresh downtime |
//! |---|---|---|---|
//! | [`Scenario::Immediate`] | `Q ≡ MV` | high (incremental queries per tx) | — |
//! | [`Scenario::BaseLog`] | `PAST(L,Q) ≡ MV` | minimal (log append) | high (incremental queries under lock) |
//! | [`Scenario::DiffTable`] | `Q ≡ (MV ∸ ∇MV) ⊎ ΔMV` | high | minimal (apply precomputed) |
//! | [`Scenario::Combined`] | `PAST(L,Q) ≡ (MV ∸ ∇MV) ⊎ ΔMV` | minimal | minimal (Policies 1 & 2) |
//!
//! Start with [`Database`]: create tables, create views under a scenario,
//! [`Database::execute`] transactions, and drive refreshes by hand or with
//! a [`PolicyDriver`].

#![warn(missing_docs)]

pub mod database;
pub mod durable;
pub mod epochlog;
pub mod error;
pub mod invariant;
pub mod metrics;
pub mod obs;
pub mod policy;
pub mod profile;
pub mod readthrough;
pub mod scenario;
pub mod view;

pub use database::{Database, ExecReport};
pub use durable::{DurableOp, RecoveryReport, StateImage};
pub use epochlog::SharedLog;
pub use error::{CoreError, Result};
pub use invariant::{check_view, InvariantReport};
pub use metrics::{ViewHistograms, ViewMetrics, ViewMetricsSnapshot};
pub use obs::{
    IndexObservability, IngestGauges, Observability, StalenessGauges, TableObservability,
    ViewObservability,
};
pub use policy::{PolicyDriver, RefreshPolicy, TickActions};
pub use profile::{MaintProfile, ProfileReport};
pub use readthrough::read_through;
pub use view::{Minimality, Scenario, View};
