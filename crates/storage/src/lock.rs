//! Instrumented reader–writer locks.
//!
//! The paper defines *view downtime* as the time an exclusive write lock is
//! held over the materialized view during refresh (Section 1.1). To measure
//! it faithfully, every table's bag sits behind an [`InstrumentedRwLock`]
//! that records, with nanosecond resolution:
//!
//! * total and maximum **write-hold** time (this *is* downtime),
//! * total **read-block** time (time readers spent waiting — what concurrent
//!   decision-support queries experience during refresh),
//! * total **write-wait** time (time writers spent waiting — what a
//!   committer experiences while readers pin a base table),
//! * acquisition counts,
//! * full latency **distributions** of write-holds, read-waits and
//!   write-waits
//!   ([`dvm_obs::Histogram`]) — the totals above tell you the mean; the
//!   histograms surface the p95/p99 tail the refresh policies trade
//!   against.

use dvm_obs::{atomic_max, Histogram, HistogramSnapshot};
use dvm_testkit::sync::{ArcRwLockReadGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// An owning read guard: keeps the lock's `Arc` alive, so it has no borrow
/// lifetime and can be stored in evaluator state while the catalog entry that
/// produced it goes out of scope.
pub type OwnedReadGuard<T> = ArcRwLockReadGuard<T>;

/// Aggregated lock metrics. All counters are monotone; snapshot with
/// [`LockMetrics::snapshot`].
#[derive(Debug, Default)]
pub struct LockMetrics {
    write_hold_nanos: AtomicU64,
    write_hold_max_nanos: AtomicU64,
    write_acquisitions: AtomicU64,
    read_block_nanos: AtomicU64,
    read_acquisitions: AtomicU64,
    write_wait_nanos: AtomicU64,
    /// Distribution of individual write-hold times (downtime tail).
    write_hold: Histogram,
    /// Distribution of individual read-wait times (what each blocked
    /// reader experienced, attributable to the table's view).
    read_wait: Histogram,
    /// Distribution of individual write-wait times (what each writer
    /// waited for readers and other writers to let go).
    write_wait: Histogram,
}

/// A point-in-time copy of [`LockMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockMetricsSnapshot {
    /// Total nanoseconds the write lock was held.
    pub write_hold_nanos: u64,
    /// Longest single write-hold, nanoseconds.
    pub write_hold_max_nanos: u64,
    /// Number of write acquisitions.
    pub write_acquisitions: u64,
    /// Total nanoseconds readers spent blocked waiting for the lock.
    pub read_block_nanos: u64,
    /// Number of read acquisitions.
    pub read_acquisitions: u64,
    /// Total nanoseconds writers spent blocked waiting for the lock.
    pub write_wait_nanos: u64,
}

impl LockMetrics {
    fn record_write_hold(&self, nanos: u64) {
        self.write_hold_nanos.fetch_add(nanos, Ordering::Relaxed);
        atomic_max(&self.write_hold_max_nanos, nanos);
        self.write_hold.record(nanos);
    }

    fn record_write_wait(&self, nanos: u64) {
        self.write_wait_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.write_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.write_wait.record(nanos);
    }

    fn record_read_wait(&self, nanos: u64) {
        self.read_block_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.read_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.read_wait.record(nanos);
    }

    /// Distribution of individual write-hold times (each sample is one
    /// hold; p99 of this is the downtime tail).
    pub fn write_hold_histogram(&self) -> HistogramSnapshot {
        self.write_hold.snapshot()
    }

    /// Distribution of individual read-wait times (each sample is one
    /// reader's wait to acquire the lock).
    pub fn read_wait_histogram(&self) -> HistogramSnapshot {
        self.read_wait.snapshot()
    }

    /// Distribution of individual write-wait times (each sample is one
    /// writer's wait to acquire the lock).
    pub fn write_wait_histogram(&self) -> HistogramSnapshot {
        self.write_wait.snapshot()
    }

    /// Copy the current counter values.
    pub fn snapshot(&self) -> LockMetricsSnapshot {
        LockMetricsSnapshot {
            write_hold_nanos: self.write_hold_nanos.load(Ordering::Relaxed),
            write_hold_max_nanos: self.write_hold_max_nanos.load(Ordering::Relaxed),
            write_acquisitions: self.write_acquisitions.load(Ordering::Relaxed),
            read_block_nanos: self.read_block_nanos.load(Ordering::Relaxed),
            read_acquisitions: self.read_acquisitions.load(Ordering::Relaxed),
            write_wait_nanos: self.write_wait_nanos.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters to zero (between experiment phases).
    ///
    /// Single-word counters are stored to zero (each is self-contained, so
    /// a concurrent recording lands wholly in the old or the new phase);
    /// the histograms reset by snapshot-and-subtract, which never tears.
    pub fn reset(&self) {
        self.write_hold_nanos.store(0, Ordering::Relaxed);
        self.write_hold_max_nanos.store(0, Ordering::Relaxed);
        self.write_acquisitions.store(0, Ordering::Relaxed);
        self.read_block_nanos.store(0, Ordering::Relaxed);
        self.read_acquisitions.store(0, Ordering::Relaxed);
        self.write_wait_nanos.store(0, Ordering::Relaxed);
        self.write_hold.reset();
        self.read_wait.reset();
        self.write_wait.reset();
    }
}

/// An RwLock that records hold and wait times into [`LockMetrics`].
#[derive(Debug)]
pub struct InstrumentedRwLock<T> {
    inner: Arc<RwLock<T>>,
    metrics: LockMetrics,
}

impl<T: Default> Default for InstrumentedRwLock<T> {
    fn default() -> Self {
        InstrumentedRwLock::new(T::default())
    }
}

impl<T> InstrumentedRwLock<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        InstrumentedRwLock {
            inner: Arc::new(RwLock::new(value)),
            metrics: LockMetrics::default(),
        }
    }

    /// Acquire a read guard, recording block time.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let start = Instant::now();
        let guard = self.inner.read();
        self.metrics
            .record_read_wait(start.elapsed().as_nanos() as u64);
        guard
    }

    /// Acquire an owning read guard (no borrow lifetime), recording block
    /// time. Used by the query evaluator to pin table contents for the
    /// duration of a scan without cloning them.
    pub fn read_owned(&self) -> OwnedReadGuard<T>
    where
        T: 'static,
    {
        let start = Instant::now();
        let guard = RwLock::read_arc(&self.inner);
        self.metrics
            .record_read_wait(start.elapsed().as_nanos() as u64);
        guard
    }

    /// Acquire a write guard, recording wait time; its hold time is
    /// recorded on drop.
    pub fn write(&self) -> TimedWriteGuard<'_, T> {
        let start = Instant::now();
        let guard = self.inner.write();
        let acquired = Instant::now();
        self.metrics
            .record_write_wait(acquired.duration_since(start).as_nanos() as u64);
        TimedWriteGuard {
            guard: Some(guard),
            acquired,
            metrics: &self.metrics,
        }
    }

    /// The lock's metrics.
    pub fn metrics(&self) -> &LockMetrics {
        &self.metrics
    }

    /// Consume the lock, returning the value.
    ///
    /// # Panics
    /// Panics if any owned read guard is still alive.
    pub fn into_inner(self) -> T {
        Arc::try_unwrap(self.inner)
            .unwrap_or_else(|_| panic!("into_inner with outstanding owned guards"))
            .into_inner()
    }
}

/// Write guard that reports its hold duration when dropped.
pub struct TimedWriteGuard<'a, T> {
    guard: Option<RwLockWriteGuard<'a, T>>,
    acquired: Instant,
    metrics: &'a LockMetrics,
}

impl<T> std::ops::Deref for TimedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl<T> std::ops::DerefMut for TimedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present until drop")
    }
}

impl<T> Drop for TimedWriteGuard<'_, T> {
    fn drop(&mut self) {
        // Release the lock first so the recorded hold time does not include
        // metric bookkeeping.
        self.guard.take();
        let held = self.acquired.elapsed().as_nanos() as u64;
        self.metrics.record_write_hold(held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn read_write_roundtrip() {
        let l = InstrumentedRwLock::new(5i32);
        {
            let mut w = l.write();
            *w = 7;
        }
        assert_eq!(*l.read(), 7);
        let m = l.metrics().snapshot();
        assert_eq!(m.write_acquisitions, 1);
        assert_eq!(m.read_acquisitions, 1);
    }

    #[test]
    fn write_hold_time_recorded() {
        let l = InstrumentedRwLock::new(());
        {
            let _w = l.write();
            thread::sleep(Duration::from_millis(5));
        }
        let m = l.metrics().snapshot();
        assert!(m.write_hold_nanos >= 4_000_000, "held ~5ms: {m:?}");
        assert!(m.write_hold_max_nanos >= 4_000_000);
    }

    #[test]
    fn reader_block_time_recorded() {
        let l = Arc::new(InstrumentedRwLock::new(0u32));
        let l2 = Arc::clone(&l);
        let writer = {
            let l = Arc::clone(&l);
            thread::spawn(move || {
                let _w = l.write();
                thread::sleep(Duration::from_millis(10));
            })
        };
        // Give the writer time to grab the lock.
        thread::sleep(Duration::from_millis(2));
        let reader = thread::spawn(move || {
            let _r = l2.read();
        });
        writer.join().unwrap();
        reader.join().unwrap();
        let m = l.metrics().snapshot();
        assert!(
            m.read_block_nanos >= 1_000_000,
            "reader should have blocked: {m:?}"
        );
    }

    #[test]
    fn writer_wait_time_recorded() {
        let l = Arc::new(InstrumentedRwLock::new(0u32));
        let guard = l.read();
        let writer = {
            let l = Arc::clone(&l);
            thread::spawn(move || {
                let _w = l.write();
            })
        };
        thread::sleep(Duration::from_millis(10));
        drop(guard);
        writer.join().unwrap();
        let m = l.metrics().snapshot();
        assert!(
            m.write_wait_nanos >= 5_000_000,
            "writer should have waited out the reader: {m:?}"
        );
        let h = l.metrics().write_wait_histogram();
        assert_eq!(h.count, 1);
        assert_eq!(h.max, m.write_wait_nanos);
    }

    #[test]
    fn max_hold_tracks_largest() {
        let l = InstrumentedRwLock::new(());
        {
            let _w = l.write();
        }
        {
            let _w = l.write();
            thread::sleep(Duration::from_millis(3));
        }
        let m = l.metrics().snapshot();
        assert_eq!(m.write_acquisitions, 2);
        assert!(m.write_hold_max_nanos >= 2_000_000);
        assert!(m.write_hold_max_nanos <= m.write_hold_nanos);
    }

    #[test]
    fn reset_zeroes() {
        let l = InstrumentedRwLock::new(());
        {
            let _w = l.write();
        }
        drop(l.read());
        l.metrics().reset();
        assert_eq!(l.metrics().snapshot(), LockMetricsSnapshot::default());
        assert!(l.metrics().write_hold_histogram().is_empty());
        assert!(l.metrics().read_wait_histogram().is_empty());
        assert!(l.metrics().write_wait_histogram().is_empty());
    }

    #[test]
    fn histograms_track_distributions() {
        let l = InstrumentedRwLock::new(());
        for _ in 0..10 {
            let _w = l.write();
        }
        {
            let _w = l.write();
            thread::sleep(Duration::from_millis(3));
        }
        drop(l.read());
        let wh = l.metrics().write_hold_histogram();
        assert_eq!(wh.count, 11);
        assert!(wh.max >= 2_000_000, "slow hold in the tail: {wh:?}");
        assert!(wh.p50() < wh.max, "fast holds dominate the median");
        assert_eq!(wh.max, l.metrics().snapshot().write_hold_max_nanos);
        assert_eq!(l.metrics().read_wait_histogram().count, 1);
    }

    #[test]
    fn into_inner() {
        let l = InstrumentedRwLock::new(42);
        assert_eq!(l.into_inner(), 42);
    }
}
