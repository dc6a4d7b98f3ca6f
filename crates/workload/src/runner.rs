//! Measurement harness: drive update streams and concurrent readers
//! against a database and collect the quantities the paper talks about.

use dvm_core::{Database, Result};
use dvm_delta::Transaction;
use dvm_storage::lock::LockMetricsSnapshot;
use dvm_testkit::sync::with_workers;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Aggregate over an executed update stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamStats {
    /// Number of transactions executed.
    pub transactions: u64,
    /// Total maintenance (makesafe) nanoseconds across the stream.
    pub maintenance_nanos: u64,
    /// Total base-apply nanoseconds across the stream.
    pub base_nanos: u64,
}

impl StreamStats {
    /// Mean per-transaction maintenance overhead, microseconds.
    pub fn mean_overhead_us(&self) -> f64 {
        if self.transactions == 0 {
            0.0
        } else {
            self.maintenance_nanos as f64 / self.transactions as f64 / 1_000.0
        }
    }

    /// Mean per-transaction base apply time, microseconds.
    pub fn mean_base_us(&self) -> f64 {
        if self.transactions == 0 {
            0.0
        } else {
            self.base_nanos as f64 / self.transactions as f64 / 1_000.0
        }
    }

    /// Overhead relative to the bare transaction (1.0 = doubles the cost).
    pub fn relative_overhead(&self) -> f64 {
        if self.base_nanos == 0 {
            0.0
        } else {
            self.maintenance_nanos as f64 / self.base_nanos as f64
        }
    }
}

/// Execute a stream of transactions with maintenance, accumulating stats.
pub fn run_stream(
    db: &Database,
    txs: impl IntoIterator<Item = Transaction>,
) -> Result<StreamStats> {
    let mut stats = StreamStats::default();
    for tx in txs {
        let report = db.execute(&tx)?;
        stats.transactions += 1;
        stats.maintenance_nanos += report.maintenance_nanos;
        stats.base_nanos += report.base_apply_nanos;
    }
    Ok(stats)
}

/// Execute several transaction streams concurrently, one worker thread per
/// stream, all with maintenance on. The commit protocol serializes
/// conflicting transactions (overlapping write-sets, or writes under a view
/// another stream is maintaining) while disjoint ones proceed in parallel;
/// the returned stats aggregate every stream. The first error, in stream
/// order, is propagated after all workers have finished.
pub fn run_stream_concurrent(db: &Database, streams: Vec<Vec<Transaction>>) -> Result<StreamStats> {
    if streams.is_empty() {
        return Ok(StreamStats::default());
    }
    let ((), per_stream) = with_workers(
        streams.len(),
        |i, _stop| -> Result<StreamStats> {
            // Fixed work list, not stop-flag driven: each worker drains its
            // own stream to completion so runs are deterministic in shape.
            let mut stats = StreamStats::default();
            for tx in &streams[i] {
                let report = db.execute(tx)?;
                stats.transactions += 1;
                stats.maintenance_nanos += report.maintenance_nanos;
                stats.base_nanos += report.base_apply_nanos;
            }
            Ok(stats)
        },
        || {},
    );
    let mut total = StreamStats::default();
    for stats in per_stream {
        let stats: StreamStats = stats?;
        total.transactions += stats.transactions;
        total.maintenance_nanos += stats.maintenance_nanos;
        total.base_nanos += stats.base_nanos;
    }
    Ok(total)
}

/// What concurrent readers experienced while `f` ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReaderStats {
    /// Number of reads completed.
    pub reads: u64,
    /// Lock metrics delta on the MV table over the run (read-block time is
    /// the reader-visible downtime).
    pub lock_delta: LockMetricsSnapshot,
    /// Wall time of `f`.
    pub body: Duration,
}

/// Run `f` while `readers` threads continuously read view `view`'s
/// materialized table; returns what the readers observed. This is the
/// paper's decision-support setting: analysts keep querying `MV` while the
/// refresh runs.
pub fn with_concurrent_readers<T>(
    db: &Database,
    view: &str,
    readers: usize,
    f: impl FnOnce() -> Result<T>,
) -> Result<(T, ReaderStats)> {
    let mv = db.mv_table(view)?;
    let before = mv.lock_metrics().snapshot();
    let started = Instant::now();
    let (out, per_reader) = with_workers(
        readers,
        |_, stop| {
            // Always complete at least one read, even if `f` finishes
            // before this thread is first scheduled — a reader harness
            // that observed nothing has measured nothing.
            let mut reads = 0u64;
            loop {
                let guard = mv.read();
                // touch the bag so the read isn't optimized away
                std::hint::black_box(guard.len());
                drop(guard);
                reads += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::yield_now();
            }
            reads
        },
        f,
    );
    let out = out?;
    let reads_total: u64 = per_reader.iter().sum();
    let body = started.elapsed();
    let after = mv.lock_metrics().snapshot();
    let lock_delta = LockMetricsSnapshot {
        write_hold_nanos: after.write_hold_nanos - before.write_hold_nanos,
        // max-hold is a lifetime high-water mark; only report it when it
        // was (re)established during this window, otherwise it would
        // attribute an earlier phase's longest hold to this one.
        write_hold_max_nanos: if after.write_hold_max_nanos > before.write_hold_max_nanos {
            after.write_hold_max_nanos
        } else {
            0
        },
        write_acquisitions: after.write_acquisitions - before.write_acquisitions,
        read_block_nanos: after.read_block_nanos - before.read_block_nanos,
        read_acquisitions: after.read_acquisitions - before.read_acquisitions,
        write_wait_nanos: after.write_wait_nanos - before.write_wait_nanos,
    };
    Ok((
        out,
        ReaderStats {
            reads: reads_total,
            lock_delta,
            body,
        },
    ))
}

/// Downtime of a maintenance operation `f` on `view`: the write-hold time
/// it added to the view's MV table lock.
pub fn measure_downtime<T>(
    db: &Database,
    view: &str,
    f: impl FnOnce() -> Result<T>,
) -> Result<(T, Duration)> {
    let mv = db.mv_table(view)?;
    let before = mv.lock_metrics().snapshot().write_hold_nanos;
    let out = f()?;
    let after = mv.lock_metrics().snapshot().write_hold_nanos;
    Ok((out, Duration::from_nanos(after - before)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retail::{view_expr, RetailConfig, RetailGen};
    use dvm_core::Scenario;

    fn setup() -> (Database, RetailGen) {
        let db = Database::new();
        let mut g = RetailGen::new(RetailConfig {
            customers: 50,
            items: 20,
            initial_sales: 500,
            ..RetailConfig::default()
        });
        g.install(&db).unwrap();
        (db, g)
    }

    #[test]
    fn run_stream_accumulates() {
        let (db, mut g) = setup();
        db.create_view("v", view_expr(), Scenario::BaseLog).unwrap();
        let txs: Vec<_> = (0..10).map(|_| g.sales_batch(5)).collect();
        let stats = run_stream(&db, txs).unwrap();
        assert_eq!(stats.transactions, 10);
        assert!(stats.maintenance_nanos > 0);
        assert!(stats.mean_overhead_us() > 0.0);
    }

    #[test]
    fn run_stream_concurrent_matches_serial_totals() {
        let (db, mut g) = setup();
        db.create_view("v", view_expr(), Scenario::Combined)
            .unwrap();
        let streams: Vec<Vec<_>> = (0..4)
            .map(|_| (0..5).map(|_| g.sales_batch(3)).collect())
            .collect();
        let stats = run_stream_concurrent(&db, streams).unwrap();
        assert_eq!(stats.transactions, 20);
        assert!(stats.maintenance_nanos > 0);
        db.refresh("v").unwrap();
        assert_eq!(
            db.query_view("v").unwrap(),
            db.recompute_view("v").unwrap(),
            "view converges to truth after concurrent streams"
        );
        assert!(db.check_all_invariants().unwrap().is_empty());
    }

    #[test]
    fn run_stream_concurrent_empty_is_noop() {
        let (db, _) = setup();
        let stats = run_stream_concurrent(&db, Vec::new()).unwrap();
        assert_eq!(stats, StreamStats::default());
    }

    #[test]
    fn measure_downtime_captures_refresh_lock() {
        let (db, mut g) = setup();
        db.create_view("v", view_expr(), Scenario::BaseLog).unwrap();
        db.execute(&g.sales_batch(50)).unwrap();
        let (_, downtime) = measure_downtime(&db, "v", || db.refresh("v")).unwrap();
        assert!(downtime.as_nanos() > 0, "refresh must hold the MV lock");
    }

    #[test]
    fn concurrent_readers_observe_view() {
        let (db, mut g) = setup();
        db.create_view("v", view_expr(), Scenario::Combined)
            .unwrap();
        db.execute(&g.sales_batch(100)).unwrap();
        let ((), stats) = with_concurrent_readers(&db, "v", 2, || {
            db.refresh("v")?;
            Ok(())
        })
        .unwrap();
        assert!(stats.reads > 0);
        assert!(stats.lock_delta.write_acquisitions >= 1);
    }

    #[test]
    fn stream_stats_ratios() {
        let s = StreamStats {
            transactions: 2,
            maintenance_nanos: 4_000,
            base_nanos: 2_000,
        };
        assert_eq!(s.mean_overhead_us(), 2.0);
        assert_eq!(s.mean_base_us(), 1.0);
        assert_eq!(s.relative_overhead(), 2.0);
        assert_eq!(StreamStats::default().mean_overhead_us(), 0.0);
        assert_eq!(StreamStats::default().relative_overhead(), 0.0);
    }
}
