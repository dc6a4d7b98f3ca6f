//! Thin synchronization shims over `std::sync`, replacing `parking_lot`
//! and `crossbeam` in the workspace.
//!
//! The wrappers expose the `parking_lot` calling convention the engine was
//! written against — `read()`/`write()`/`lock()` return guards directly,
//! unwrapping poison by recovering the inner guard (a panicked writer in
//! this codebase can only have been mid-mutation of a bag; every such
//! mutation is applied via whole-value replacement or `Bag` methods that
//! keep the structure valid, so continuing is sound and matches
//! `parking_lot`'s no-poisoning semantics).
//!
//! [`RwLock::read_arc`] provides the owned (`Arc`-backed) read guard the
//! query evaluator uses to pin table contents without cloning, and
//! [`with_workers`] is the scoped-thread helper behind the concurrent
//! reader harness in `dvm-workload`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Read guard for [`RwLock`].
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Write guard for [`RwLock`].
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;
/// Guard for [`Mutex`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

/// A reader–writer lock whose accessors never return `Err`: poison is
/// unwrapped into the recovered guard.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquire shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|p| p.into_inner())
    }

    /// Acquire exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Consume the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|p| p.into_inner())
    }

    /// Acquire an owned read guard that keeps the lock's `Arc` alive: it
    /// has no borrow lifetime, so it can outlive the reference it was
    /// acquired through (the `parking_lot` `read_arc` shape).
    pub fn read_arc(this: &Arc<Self>) -> ArcRwLockReadGuard<T>
    where
        T: 'static,
    {
        let owner = Arc::clone(this);
        let guard = owner.read();
        // SAFETY: we extend the guard's borrow lifetime to 'static. This is
        // sound because `owner` (the Arc keeping the RwLock alive) is moved
        // into the returned struct and outlives the guard: fields drop in
        // declaration order, so the guard is released before the Arc.
        let guard: std::sync::RwLockReadGuard<'static, T> =
            unsafe { std::mem::transmute::<RwLockReadGuard<'_, T>, _>(guard) };
        ArcRwLockReadGuard {
            guard,
            _owner: owner,
        }
    }

    /// Acquire an owned write guard (the `write` counterpart of
    /// [`RwLock::read_arc`]): holds the exclusive lock plus a strong
    /// reference to the lock itself, so it can be stored in lock-set
    /// collections that outlive the reference it was acquired through.
    pub fn write_arc(this: &Arc<Self>) -> ArcRwLockWriteGuard<T>
    where
        T: 'static,
    {
        let owner = Arc::clone(this);
        let guard = owner.write();
        // SAFETY: as in `read_arc` — the Arc moved into the returned struct
        // outlives the guard (fields drop in declaration order).
        let guard: std::sync::RwLockWriteGuard<'static, T> =
            unsafe { std::mem::transmute::<RwLockWriteGuard<'_, T>, _>(guard) };
        ArcRwLockWriteGuard {
            guard,
            _owner: owner,
        }
    }
}

/// An owning read guard returned by [`RwLock::read_arc`]: holds both the
/// read lock and a strong reference to the lock itself.
pub struct ArcRwLockReadGuard<T: 'static> {
    // Field order matters: `guard` must drop (releasing the lock) before
    // `_owner` (which keeps the lock's memory alive).
    guard: std::sync::RwLockReadGuard<'static, T>,
    _owner: Arc<RwLock<T>>,
}

impl<T> std::ops::Deref for ArcRwLockReadGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ArcRwLockReadGuard<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// An owning write guard returned by [`RwLock::write_arc`]: holds both the
/// exclusive lock and a strong reference to the lock itself.
pub struct ArcRwLockWriteGuard<T: 'static> {
    // Field order matters: `guard` must drop (releasing the lock) before
    // `_owner` (which keeps the lock's memory alive).
    guard: std::sync::RwLockWriteGuard<'static, T>,
    _owner: Arc<RwLock<T>>,
}

impl<T> std::ops::Deref for ArcRwLockWriteGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for ArcRwLockWriteGuard<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ArcRwLockWriteGuard<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

/// A mutex whose `lock()` never returns `Err` (poison unwrapped).
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquire the lock.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Mutable access without locking: `&mut self` already excludes
    /// every other user.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|p| p.into_inner())
    }

    /// Consume the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

/// Run `body` while `n` scoped worker threads execute `worker(index, stop)`
/// concurrently; when `body` returns, the stop flag is raised and all
/// workers are joined. Returns `body`'s result and the workers' results in
/// index order.
///
/// Workers should poll `stop` and return promptly once it reads `true`.
///
/// # Panics
/// Propagates a panic from any worker thread.
pub fn with_workers<R: Send, T>(
    n: usize,
    worker: impl Fn(usize, &AtomicBool) -> R + Sync,
    body: impl FnOnce() -> T,
) -> (T, Vec<R>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
            let worker = &worker;
            let stop = &stop;
            handles.push(scope.spawn(move || worker(i, stop)));
        }
        let out = body();
        stop.store(true, Ordering::Relaxed);
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        (out, results)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn rwlock_read_write_roundtrip() {
        let l = RwLock::new(1);
        {
            let mut w = l.write();
            *w = 2;
        }
        assert_eq!(*l.read(), 2);
        assert_eq!(l.into_inner(), 2);
    }

    #[test]
    fn rwlock_many_concurrent_readers() {
        let l = Arc::new(RwLock::new(7u64));
        let total = AtomicU64::new(0);
        with_workers(
            4,
            |_, _| total.fetch_add(*l.read(), Ordering::Relaxed),
            || {},
        );
        assert_eq!(total.load(Ordering::Relaxed), 28);
    }

    #[test]
    fn read_arc_outlives_original_reference() {
        let guard = {
            let l = Arc::new(RwLock::new(vec![1, 2, 3]));
            RwLock::read_arc(&l)
            // `l` dropped here; the guard must keep the data alive
        };
        assert_eq!(*guard, vec![1, 2, 3]);
    }

    #[test]
    fn write_arc_outlives_original_reference() {
        let mut guard = {
            let l = Arc::new(RwLock::new(vec![1, 2]));
            RwLock::write_arc(&l)
            // `l` dropped here; the guard must keep the data alive
        };
        guard.push(3);
        assert_eq!(*guard, vec![1, 2, 3]);
    }

    #[test]
    fn write_arc_excludes_other_access_until_dropped() {
        let l = Arc::new(RwLock::new(0));
        let mut g = RwLock::write_arc(&l);
        *g = 9;
        drop(g);
        assert_eq!(*l.read(), 9);
    }

    #[test]
    fn read_arc_blocks_writers_until_dropped() {
        let l = Arc::new(RwLock::new(0));
        let g = RwLock::read_arc(&l);
        // a second reader is fine while the owned guard is held
        assert_eq!(*l.read(), 0);
        drop(g);
        *l.write() = 5;
        assert_eq!(*l.read(), 5);
    }

    #[test]
    fn mutex_poison_is_unwrapped() {
        let m = Arc::new(Mutex::new(10));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the mutex");
        })
        .join();
        // lock() must still succeed and see the value
        assert_eq!(*m.lock(), 10);
    }

    #[test]
    fn rwlock_poison_is_unwrapped() {
        let l = Arc::new(RwLock::new(3));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison the rwlock");
        })
        .join();
        assert_eq!(*l.read(), 3);
        *l.write() = 4;
        assert_eq!(*l.read(), 4);
    }

    #[test]
    fn with_workers_runs_body_and_collects_results() {
        let counter = AtomicU64::new(0);
        let (out, results) = with_workers(
            3,
            |i, stop| {
                let mut spins = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    counter.fetch_add(1, Ordering::Relaxed);
                    spins += 1;
                    std::thread::yield_now();
                }
                (i, spins)
            },
            || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                42
            },
        );
        assert_eq!(out, 42);
        assert_eq!(results.len(), 3);
        for (idx, (i, spins)) in results.iter().enumerate() {
            assert_eq!(*i, idx, "results in index order");
            assert!(*spins > 0, "worker must have spun");
        }
        assert!(counter.load(Ordering::Relaxed) > 0);
    }
}
