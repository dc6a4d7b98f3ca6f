//! A persistent worker pool with dynamic (work-stealing) job claiming.
//!
//! [`sync::with_workers`](crate::sync::with_workers) spawns and joins fresh
//! OS threads on every call, which showed up as a measured regression on the
//! maintenance fan-out path: propagating six views in parallel was *slower*
//! than the serial loop because each `propagate_many` paid thread spawn +
//! join latency, and the strided view split (worker `i` takes views `i`,
//! `i+n`, …) load-imbalanced whenever view sizes were skewed.
//!
//! [`WorkerPool`] fixes both:
//!
//! * **Persistent threads.** Workers are spawned lazily on first parallel
//!   use and then parked on a condvar; a batch submission is two mutex
//!   acquisitions, not `n` thread spawns.
//! * **Dynamic claiming.** A batch of `jobs` closures is consumed by
//!   atomically claiming the next unclaimed index (`fetch_add`), so a
//!   worker that finishes a small job immediately steals the next one.
//!   There is no static stride assignment to imbalance.
//! * **Submitter participation.** The calling thread claims jobs alongside
//!   the workers, so `run` makes progress even with zero pool threads
//!   (single-core hosts, nested submissions from inside a worker) and can
//!   never deadlock waiting for a slot.
//!
//! Batches may be submitted from inside a running job (nested
//! parallelism); the inner submitter participates in its own batch, so
//! nesting needs no reserved threads.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Lifetime utilization counters for one pool worker. Counters are plain
/// relaxed atomics bumped unconditionally — one add per claimed job and
/// two per park/wake cycle, nothing on the job's inner loop — so they are
/// always on (no mode flag) and cost nothing measurable.
#[derive(Debug, Default)]
struct WorkerSlot {
    /// Jobs this worker claimed off batches (work-stealing wins).
    jobs_claimed: AtomicU64,
    /// Times the worker parked on the condvar (no joinable batch).
    parks: AtomicU64,
    /// Times the worker woke from a park (spurious wakes included).
    wakes: AtomicU64,
}

/// Snapshot of one worker's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs claimed by this worker.
    pub jobs_claimed: u64,
    /// Condvar parks.
    pub parks: u64,
    /// Condvar wakes.
    pub wakes: u64,
}

/// Snapshot of the pool's utilization counters: per-worker claims and
/// park/wake churn, plus jobs the submitting threads ran themselves
/// (serial fallbacks and submitter participation in parallel batches).
/// `total_jobs()` therefore equals the number of jobs ever submitted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// One entry per spawned worker, in spawn order.
    pub workers: Vec<WorkerStats>,
    /// Jobs executed by submitting threads (not pool workers).
    pub submitter_jobs: u64,
}

impl PoolStats {
    /// Jobs executed across workers and submitters — equals the total
    /// jobs ever passed to [`WorkerPool::run`].
    pub fn total_jobs(&self) -> u64 {
        self.submitter_jobs + self.workers.iter().map(|w| w.jobs_claimed).sum::<u64>()
    }
}

/// The type-erased body of a batch: runs job `i` and records its result.
///
/// SAFETY invariant: the reference points at a closure on the submitting
/// thread's stack. It is only dereferenced by a claimant that won a
/// `next < total` claim, and the submitter blocks in [`WorkerPool::run`]
/// until every claimed job has reported completion — after which
/// `next >= total` forever, so the pointer is never read again.
type BatchBody = &'static (dyn Fn(usize) + Sync);

struct BatchDone {
    completed: usize,
    panic: Option<Box<dyn Any + Send>>,
}

struct Batch {
    /// Next unclaimed job index; claimed with `fetch_add` (work stealing).
    next: AtomicUsize,
    total: usize,
    /// Pool workers currently helping (excludes the submitter).
    helpers: AtomicUsize,
    /// Cap on concurrent helpers, so a run respects the caller's
    /// configured thread budget even when the pool has more threads.
    max_helpers: usize,
    body: BatchBody,
    done: Mutex<BatchDone>,
    done_cv: Condvar,
}

impl Batch {
    /// Claim and run jobs until the batch is exhausted, counting each
    /// claim into `claimed` (the claimant's utilization counter).
    fn work(&self, claimed: &AtomicU64) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            claimed.fetch_add(1, Ordering::Relaxed);
            let outcome = catch_unwind(AssertUnwindSafe(|| (self.body)(i)));
            let mut done = self.done.lock().unwrap();
            if let Err(payload) = outcome {
                done.panic.get_or_insert(payload);
            }
            done.completed += 1;
            if done.completed == self.total {
                self.done_cv.notify_all();
            }
        }
    }

    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.total
    }

    /// Try to register as a helper; fails when the helper cap is reached.
    fn try_join(&self) -> bool {
        self.helpers
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |h| {
                (h < self.max_helpers).then_some(h + 1)
            })
            .is_ok()
    }

    fn leave(&self) {
        self.helpers.fetch_sub(1, Ordering::Relaxed);
    }
}

struct QueueState {
    queue: Vec<Arc<Batch>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    cv: Condvar,
}

impl Shared {
    fn enqueue(&self, batch: Arc<Batch>) {
        let mut st = self.state.lock().unwrap();
        st.queue.push(batch);
        drop(st);
        self.cv.notify_all();
    }

    fn remove(&self, batch: &Arc<Batch>) {
        let mut st = self.state.lock().unwrap();
        st.queue.retain(|b| !Arc::ptr_eq(b, batch));
    }
}

fn worker_loop(shared: Arc<Shared>, slot: Arc<WorkerSlot>) {
    loop {
        let batch = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                let joinable = st
                    .queue
                    .iter()
                    .find(|b| b.has_unclaimed() && b.try_join())
                    .cloned();
                match joinable {
                    Some(b) => break b,
                    None => {
                        slot.parks.fetch_add(1, Ordering::Relaxed);
                        st = shared.cv.wait(st).unwrap();
                        slot.wakes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        };
        batch.work(&slot.jobs_claimed);
        batch.leave();
        if !batch.has_unclaimed() {
            shared.remove(&batch);
        }
        // A helper slot freed up; another parked worker may now fit.
        shared.cv.notify_all();
    }
}

/// A pool of persistent worker threads executing batches of indexed jobs.
///
/// Threads are spawned lazily (a pool that is never used in parallel costs
/// nothing) and grow monotonically up to the largest requested width; idle
/// workers park on a condvar. Dropping the pool shuts the workers down and
/// joins them.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// One slot per spawned worker, in spawn order; slots survive pool
    /// growth (`ensure_threads` only appends).
    slots: Mutex<Vec<Arc<WorkerSlot>>>,
    /// Jobs run by submitting threads (serial paths + participation).
    submitter_jobs: AtomicU64,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// Create an empty pool. No threads are spawned until a parallel
    /// [`run`](Self::run) needs them.
    pub fn new() -> Self {
        WorkerPool {
            shared: Arc::new(Shared {
                state: Mutex::new(QueueState {
                    queue: Vec::new(),
                    shutdown: false,
                }),
                cv: Condvar::new(),
            }),
            handles: Mutex::new(Vec::new()),
            slots: Mutex::new(Vec::new()),
            submitter_jobs: AtomicU64::new(0),
        }
    }

    /// Number of persistent worker threads currently spawned.
    pub fn threads(&self) -> usize {
        self.handles.lock().unwrap().len()
    }

    /// Grow the pool to at least `n` persistent worker threads.
    pub fn ensure_threads(&self, n: usize) {
        let mut handles = self.handles.lock().unwrap();
        while handles.len() < n {
            let shared = Arc::clone(&self.shared);
            let name = format!("dvm-pool-{}", handles.len());
            let slot = Arc::new(WorkerSlot::default());
            self.slots.lock().unwrap().push(Arc::clone(&slot));
            handles.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || worker_loop(shared, slot))
                    .expect("spawn pool worker"),
            );
        }
    }

    /// Snapshot the utilization counters: per-worker jobs claimed and
    /// park/wake counts, plus submitter-executed jobs.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self
                .slots
                .lock()
                .unwrap()
                .iter()
                .map(|s| WorkerStats {
                    jobs_claimed: s.jobs_claimed.load(Ordering::Relaxed),
                    parks: s.parks.load(Ordering::Relaxed),
                    wakes: s.wakes.load(Ordering::Relaxed),
                })
                .collect(),
            submitter_jobs: self.submitter_jobs.load(Ordering::Relaxed),
        }
    }

    /// Run `jobs` indexed jobs with at most `width` threads working at once
    /// (the calling thread counts toward `width` and always participates).
    /// Returns the job results in index order. A panic in any job is
    /// propagated to the caller after the whole batch has drained.
    pub fn run<R, F>(&self, jobs: usize, width: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if jobs == 0 {
            return Vec::new();
        }
        if width <= 1 || jobs == 1 {
            self.submitter_jobs
                .fetch_add(jobs as u64, Ordering::Relaxed);
            return (0..jobs).map(f).collect();
        }

        let helpers = width.saturating_sub(1).min(jobs.saturating_sub(1));
        self.ensure_threads(helpers);

        let slots: Vec<Mutex<Option<R>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
        let body = |i: usize| {
            let r = f(i);
            *slots[i].lock().unwrap() = Some(r);
        };
        let body_ref: &(dyn Fn(usize) + Sync) = &body;
        // SAFETY: see `BatchBody`. The submitter blocks below until
        // `completed == total`; no claim can observe `next < total`
        // afterwards, so the erased borrow never outlives this frame's use.
        let body_static: BatchBody =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), BatchBody>(body_ref) };
        let batch = Arc::new(Batch {
            next: AtomicUsize::new(0),
            total: jobs,
            helpers: AtomicUsize::new(0),
            max_helpers: helpers,
            body: body_static,
            done: Mutex::new(BatchDone {
                completed: 0,
                panic: None,
            }),
            done_cv: Condvar::new(),
        });

        self.shared.enqueue(Arc::clone(&batch));
        batch.work(&self.submitter_jobs);

        let panic = {
            let mut done = batch.done.lock().unwrap();
            while done.completed < batch.total {
                done = batch.done_cv.wait(done).unwrap();
            }
            done.panic.take()
        };
        self.shared.remove(&batch);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("job completed"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.cv_notify();
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

impl WorkerPool {
    fn cv_notify(&self) {
        self.shared.cv.notify_all();
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_all_jobs_in_order() {
        let pool = WorkerPool::new();
        let out = pool.run(17, 4, |i| i * i);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_serial_paths() {
        let pool = WorkerPool::new();
        assert!(pool.run(0, 4, |i| i).is_empty());
        assert_eq!(pool.run(3, 1, |i| i + 1), vec![1, 2, 3]);
        assert_eq!(pool.threads(), 0, "serial runs must not spawn threads");
    }

    #[test]
    fn threads_grow_monotonically_and_are_reused() {
        let pool = WorkerPool::new();
        pool.run(8, 3, |i| i);
        assert_eq!(pool.threads(), 2);
        pool.run(8, 2, |i| i);
        assert_eq!(pool.threads(), 2, "pool never shrinks below peak");
        pool.run(8, 5, |i| i);
        assert_eq!(pool.threads(), 4);
    }

    #[test]
    fn dynamic_claiming_covers_every_index_once() {
        let pool = WorkerPool::new();
        let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        pool.run(64, 4, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "job {i} claimed once");
        }
    }

    #[test]
    fn uneven_jobs_finish() {
        // Skewed job sizes: dynamic claiming must drain the batch even when
        // one job dominates (the strided-split failure mode).
        let pool = WorkerPool::new();
        let out = pool.run(9, 3, |i| {
            let spins = if i == 0 { 200_000 } else { 10 };
            let mut acc = 0u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(31).wrapping_add(k);
            }
            (i as u64) ^ (acc & 1)
        });
        assert_eq!(out.len(), 9);
    }

    #[test]
    fn nested_submission_does_not_deadlock() {
        let pool = WorkerPool::new();
        let total: u64 = pool
            .run(4, 4, |i| {
                pool.run(4, 4, |j| (i * 4 + j) as u64).iter().sum::<u64>()
            })
            .iter()
            .sum();
        assert_eq!(total, (0..16).sum::<u64>());
    }

    #[test]
    fn panic_propagates_after_drain() {
        let pool = WorkerPool::new();
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, 2, |i| {
                if i == 3 {
                    panic!("job 3 exploded");
                }
                i
            })
        }));
        assert!(r.is_err());
        // Pool is still usable after a panicked batch.
        assert_eq!(pool.run(4, 2, |i| i).len(), 4);
    }

    #[test]
    fn results_from_many_widths_match_serial() {
        let pool = WorkerPool::new();
        for width in 1..=6 {
            let out = pool.run(23, width, |i| i as u64 * 7 + 1);
            assert_eq!(out, (0..23).map(|i| i as u64 * 7 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn jobs_claimed_sums_to_jobs_submitted_across_widths() {
        let pool = WorkerPool::new();
        let mut submitted = 0u64;
        for width in [1usize, 2, 4] {
            for jobs in [1usize, 7, 32] {
                let out = pool.run(jobs, width, |i| i);
                assert_eq!(out.len(), jobs);
                submitted += jobs as u64;
                let stats = pool.stats();
                assert_eq!(
                    stats.total_jobs(),
                    submitted,
                    "width {width}: claims across workers + submitter must \
                     account for every job ever submitted"
                );
            }
        }
        // Serial runs (width 1) never touch the workers, so the whole
        // width-1 block is attributable to the submitter.
        assert!(pool.stats().submitter_jobs >= 1 + 7 + 32);
    }

    #[test]
    fn counters_survive_pool_growth() {
        let pool = WorkerPool::new();
        pool.run(16, 2, |i| i); // spawns 1 helper
        let before = pool.stats();
        assert_eq!(before.workers.len(), 1);
        assert_eq!(before.total_jobs(), 16);

        pool.ensure_threads(4);
        let grown = pool.stats();
        assert_eq!(grown.workers.len(), 4, "growth appends slots");
        assert_eq!(
            grown.workers[0].jobs_claimed, before.workers[0].jobs_claimed,
            "existing worker's counters survive ensure_threads"
        );
        assert_eq!(grown.total_jobs(), 16);

        pool.run(16, 4, |i| i);
        let after = pool.stats();
        assert_eq!(after.total_jobs(), 32);
        assert!(
            after.workers[0].jobs_claimed >= before.workers[0].jobs_claimed,
            "claims are monotone"
        );
    }

    #[test]
    fn parked_workers_record_parks_and_wakes() {
        let pool = WorkerPool::new();
        pool.ensure_threads(2);
        // Give the freshly spawned workers a moment to park on the condvar
        // (no batch is queued, so both must end up waiting).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let stats = pool.stats();
            let parks: u64 = stats.workers.iter().map(|w| w.parks).sum();
            if parks >= 2 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "workers never parked");
            std::thread::yield_now();
        }
        // A batch wakes them; wakes catch up to parks once it drains.
        pool.run(8, 3, |i| i);
        let stats = pool.stats();
        let parks: u64 = stats.workers.iter().map(|w| w.parks).sum();
        let wakes: u64 = stats.workers.iter().map(|w| w.wakes).sum();
        assert!(parks >= 2);
        assert!(wakes <= parks, "every wake follows a park");
    }
}
