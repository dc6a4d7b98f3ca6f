//! # dvm-obs — hermetic observability primitives
//!
//! The paper's argument is quantitative: deferred maintenance trades
//! *per-transaction overhead* for *view downtime* and background
//! *propagate work* (Section 1.1, Policies 1/2). Means and totals hide
//! exactly the tail behavior those policies are supposed to control, so
//! this crate provides the distribution-aware building blocks the rest of
//! the workspace instruments itself with:
//!
//! * [`Histogram`] — log-bucketed (HDR-style) latency histograms over
//!   lock-free `AtomicU64` buckets, with p50/p95/p99/max and
//!   snapshot-subtract reset;
//! * [`Tracer`] — a bounded ring-buffer journal of structured maintenance
//!   events (`txn_execute`, `makesafe`, `propagate`, `refresh`,
//!   `lock_wait`, `vacuum`, …) with span nesting and per-thread ids, whose
//!   disabled path costs one relaxed atomic load;
//! * [`profile`] — the maintenance profiler's primitives: a process-wide
//!   profiling switch (one relaxed load when off), `EXPLAIN ANALYZE`-style
//!   per-operator cost trees, and the thread-local capture channel
//!   between executor and driver;
//! * [`tseries`] — fixed-capacity downsampling time series for
//!   staleness-over-time and latency-over-time recording;
//! * [`json`] — a dependency-free JSON writer *and* parser (the parser
//!   backs the CI schema gate over `results/*.json`);
//! * [`TableReport`] / [`fmt_nanos`] — the fixed-width human exporter
//!   shared by the REPL and every `exp_*` binary.
//!
//! Like `dvm-testkit`, this crate is hermetic: `std` only, no registry
//! dependencies.

#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod profile;
pub mod table;
pub mod trace;
pub mod tseries;

pub use hist::{Histogram, HistogramSnapshot};
pub use profile::{profiling_on, set_profiling, Captured, OpProf};
pub use table::{fmt_nanos, TableReport};
pub use trace::{EventKind, Span, TraceEvent, Tracer};
pub use tseries::{TimeSeries, TsPoint};

use std::sync::atomic::{AtomicU64, Ordering};

/// Raise `cell` to at least `value` with a compare-exchange loop (the
/// `fetch_max` idiom, written out so the same helper serves every
/// max-tracking site: histogram maxima, `LockMetrics` max write-hold).
///
/// Relaxed ordering: maxima are monotone statistics, never used to
/// synchronize other memory.
pub fn atomic_max(cell: &AtomicU64, value: u64) {
    let mut seen = cell.load(Ordering::Relaxed);
    while seen < value {
        match cell.compare_exchange_weak(seen, value, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(now) => seen = now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_max_raises_and_keeps() {
        let c = AtomicU64::new(5);
        atomic_max(&c, 3);
        assert_eq!(c.load(Ordering::Relaxed), 5);
        atomic_max(&c, 9);
        assert_eq!(c.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn atomic_max_concurrent_keeps_largest() {
        let c = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..1000 {
                        atomic_max(c, t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(c.load(Ordering::Relaxed), 3999);
    }
}
