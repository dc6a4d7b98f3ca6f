//! Tables: named, schema-validated bags behind instrumented locks.

use crate::bag::Bag;
use crate::error::Result;
use crate::index::{IndexStats, Indexes};
use crate::lock::{InstrumentedRwLock, LockMetrics, OwnedReadGuard, TimedWriteGuard};
use crate::schema::Schema;
use crate::stats::TableStats;
use crate::tuple::Tuple;
use crate::value::Value;
use dvm_testkit::sync::{ArcRwLockReadGuard, ArcRwLockWriteGuard, RwLock, RwLockReadGuard};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Whether a table is user-visible or maintenance-internal.
///
/// The paper (Section 3.1) partitions tables into *external* tables changed
/// by user transactions and *internal* tables (materialized views, logs,
/// view differential files) that user transactions may not touch directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableKind {
    /// User-defined base table.
    External,
    /// Maintenance-owned table (MV, log, or differential).
    Internal,
}

/// A named bag of tuples with a fixed schema.
///
/// All access goes through the instrumented lock so experiments can measure
/// write-hold (downtime) and read-block times.
pub struct Table {
    // `Arc<str>` so evaluator-side pin maps can key by a shared pointer
    // instead of cloning the string per pin (hot path: every change-query
    // evaluation pins every scanned table).
    name: Arc<str>,
    schema: Schema,
    kind: TableKind,
    data: InstrumentedRwLock<Stored>,
    stats: TableStats,
    // Commit-intent lock, distinct from the data lock: writers that must
    // keep this table's state stable across a multi-step protocol (pin →
    // normalize → apply) hold it for the whole span, while the data lock is
    // only held for the instants of actual reads/writes. Plain readers
    // never touch it.
    commit: Arc<RwLock<()>>,
}

/// A table's contents under its lock: the bag and the join-key indexes
/// kept over it, so one pin sees both at one state. Derefs to the bag; the
/// mutable deref is only reached through [`Table::write`], which drops the
/// built indexes first.
#[derive(Debug, Default)]
pub struct Stored {
    bag: Bag,
    indexes: Indexes,
}

impl Stored {
    /// The table's bag.
    pub fn bag(&self) -> &Bag {
        &self.bag
    }

    /// Whether a view registered an index on `cols` (see
    /// [`Table::register_index`]).
    pub fn indexed(&self, cols: &[usize]) -> bool {
        self.indexes.get(cols).is_some()
    }

    /// Look `keys` up in the index on `cols` ([`crate::KeyIndex::lookup`]);
    /// `false` when there is none.
    pub fn lookup(
        &self,
        cols: &[usize],
        keys: &mut dyn Iterator<Item = &[Value]>,
        found: &mut dyn FnMut(usize, &Tuple, u64),
    ) -> bool {
        let index = self.indexes.get(cols);
        index
            .inspect(|ix| ix.lookup(&self.bag, keys, found))
            .is_some()
    }
}

impl Deref for Stored {
    type Target = Bag;
    fn deref(&self) -> &Bag {
        &self.bag
    }
}

impl DerefMut for Stored {
    fn deref_mut(&mut self) -> &mut Bag {
        &mut self.bag
    }
}

/// A held commit-intent claim on one table (see [`Table::commit_shared`]).
///
/// Dropping the guard releases the claim. The variants only differ in
/// exclusivity; neither grants data access by itself.
#[derive(Debug)]
pub enum CommitGuard {
    /// Shared claim: the table's state may be read consistently across a
    /// multi-step protocol; other shared claimants may interleave reads.
    Shared(ArcRwLockReadGuard<()>),
    /// Exclusive claim: the holder may mutate the table; no other commit
    /// claimant (shared or exclusive) is active.
    Exclusive(ArcRwLockWriteGuard<()>),
}

impl CommitGuard {
    /// Whether this is an exclusive claim.
    pub fn is_exclusive(&self) -> bool {
        matches!(self, CommitGuard::Exclusive(_))
    }
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema, kind: TableKind) -> Self {
        Table {
            name: Arc::from(name.into()),
            schema,
            kind,
            data: InstrumentedRwLock::new(Stored::default()),
            stats: TableStats::default(),
            commit: Arc::new(RwLock::new(())),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table name as a cheaply clonable shared string (refcount bump, no
    /// allocation) — what evaluator pin maps key by.
    pub fn name_shared(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// External or internal.
    pub fn kind(&self) -> TableKind {
        self.kind
    }

    /// Lock metrics (write-hold = downtime, read-block = reader stalls).
    pub fn lock_metrics(&self) -> &LockMetrics {
        self.data.metrics()
    }

    /// Usage counters.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Read access to the bag (and its indexes). Records a scan.
    pub fn read(&self) -> RwLockReadGuard<'_, Stored> {
        self.stats.record_scan();
        self.data.read()
    }

    /// Owning read access (no borrow lifetime) — lets the query evaluator
    /// pin a table's bag and indexes without cloning. Records a scan.
    pub fn pin(&self) -> OwnedReadGuard<Stored> {
        self.stats.record_scan();
        self.data.read_owned()
    }

    /// Raw write access to the bag (hold time is recorded as downtime).
    /// Callers are responsible for schema validation of what they put in,
    /// and built indexes are dropped (they rebuild on their next probe);
    /// prefer the typed mutators below, which keep them.
    pub fn write(&self) -> TimedWriteGuard<'_, Stored> {
        let mut guard = self.data.write();
        guard.indexes.reset();
        guard
    }

    /// Keep an index on `cols` for one more view: a key filter reaching a
    /// scan of this table then looks its keys up. The index is built on
    /// its first probe, not here.
    pub fn register_index(&self, cols: &[usize]) {
        self.data.write().indexes.register(cols);
    }

    /// Undo one [`Table::register_index`]; the last release drops the index.
    pub fn release_index(&self, cols: &[usize]) {
        self.data.write().indexes.release(cols);
    }

    /// Counters of every registered index.
    pub fn index_stats(&self) -> Vec<IndexStats> {
        self.data.read().indexes.stats()
    }

    /// Take a shared commit-intent claim: the table's state is guaranteed
    /// not to be mutated by any protocol-respecting writer until the guard
    /// drops. Blocks while an exclusive claim is held.
    ///
    /// Lock-order discipline: commit claims on a *set* of tables must be
    /// acquired in ascending table-name order (use `Catalog::lock_commit`),
    /// and always before any data lock.
    pub fn commit_shared(&self) -> CommitGuard {
        CommitGuard::Shared(RwLock::read_arc(&self.commit))
    }

    /// Take an exclusive commit-intent claim: the holder is the only
    /// protocol-respecting writer of this table until the guard drops.
    ///
    /// Same ordering discipline as [`Table::commit_shared`].
    pub fn commit_exclusive(&self) -> CommitGuard {
        CommitGuard::Exclusive(RwLock::write_arc(&self.commit))
    }

    /// Clone the current contents.
    pub fn snapshot_bag(&self) -> Bag {
        self.read().clone()
    }

    /// Current total cardinality.
    pub fn len(&self) -> u64 {
        self.read().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validate a tuple against this table's schema.
    pub fn validate(&self, t: &Tuple) -> Result<()> {
        self.schema.validate(t)
    }

    /// Validate every tuple in a bag against this table's schema.
    pub fn validate_bag(&self, b: &Bag) -> Result<()> {
        for (t, _) in b.iter() {
            self.schema.validate(t)?;
        }
        Ok(())
    }

    /// Insert one tuple occurrence (validated).
    pub fn insert(&self, t: Tuple) -> Result<()> {
        self.apply_delta(&Bag::new(), &Bag::singleton(t))
    }

    /// Apply a delta atomically: `table := (table ∸ del) ⊎ ins`.
    ///
    /// This is the paper's simple-transaction update shape. Both bags are
    /// validated first; the table is mutated under a single write lock.
    pub fn apply_delta(&self, del: &Bag, ins: &Bag) -> Result<()> {
        self.validate_bag(del)?;
        self.validate_bag(ins)?;
        self.apply_validated(del, ins);
        Ok(())
    }

    /// [`Table::apply_delta`] for a delta whose tuples the caller has
    /// already validated against this table's schema.
    pub fn apply_validated(&self, del: &Bag, ins: &Bag) {
        {
            let mut guard = self.data.write();
            let Stored { bag, indexes } = &mut *guard;
            bag.apply_delta_observed(del, ins, |t, m| indexes.record(t, m));
            indexes.trim(bag.distinct_len());
        }
        self.stats.record_delete(del.len());
        self.stats.record_insert(ins.len());
    }

    /// Replace the entire contents (validated).
    pub fn replace(&self, new: Bag) -> Result<()> {
        self.validate_bag(&new)?;
        let mut guard = self.write();
        let old_len = guard.len();
        guard.bag = new;
        let new_len = guard.len();
        drop(guard);
        self.stats.record_delete(old_len);
        self.stats.record_insert(new_len);
        Ok(())
    }

    /// Empty the table (`T := φ`).
    pub fn clear(&self) {
        let mut guard = self.write();
        let n = guard.len();
        guard.clear();
        drop(guard);
        self.stats.record_delete(n);
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("schema", &self.schema)
            .field("kind", &self.kind)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::ValueType;

    fn t() -> Table {
        Table::new(
            "r",
            Schema::from_pairs(&[("a", ValueType::Int)]),
            TableKind::External,
        )
    }

    #[test]
    fn insert_and_len() {
        let table = t();
        table.insert(tuple![1]).unwrap();
        table.insert(tuple![1]).unwrap();
        assert_eq!(table.len(), 2);
        assert!(!table.is_empty());
    }

    #[test]
    fn insert_validates_schema() {
        let table = t();
        assert!(table.insert(tuple!["oops"]).is_err());
        assert!(table.insert(tuple![1, 2]).is_err());
        assert!(table.is_empty());
    }

    #[test]
    fn apply_delta() {
        let table = t();
        table.insert(tuple![1]).unwrap();
        table.insert(tuple![2]).unwrap();
        let del = Bag::singleton(tuple![1]);
        let ins = Bag::singleton(tuple![3]);
        table.apply_delta(&del, &ins).unwrap();
        let bag = table.snapshot_bag();
        assert!(!bag.contains(&tuple![1]));
        assert!(bag.contains(&tuple![2]));
        assert!(bag.contains(&tuple![3]));
    }

    #[test]
    fn apply_delta_validates_before_mutating() {
        let table = t();
        table.insert(tuple![1]).unwrap();
        let bad = Bag::singleton(tuple!["bad"]);
        assert!(table.apply_delta(&bad, &Bag::new()).is_err());
        assert!(table.apply_delta(&Bag::new(), &bad).is_err());
        assert_eq!(table.len(), 1, "failed delta must not change the table");
    }

    #[test]
    fn replace_and_clear() {
        let table = t();
        table.insert(tuple![1]).unwrap();
        table
            .replace(Bag::from_tuples([tuple![7], tuple![8]]))
            .unwrap();
        assert_eq!(table.len(), 2);
        table.clear();
        assert!(table.is_empty());
    }

    #[test]
    fn stats_track_operations() {
        let table = t();
        table.insert(tuple![1]).unwrap();
        table
            .apply_delta(&Bag::singleton(tuple![1]), &Bag::new())
            .unwrap();
        let s = table.stats().snapshot();
        assert_eq!(s.tuples_inserted, 1);
        assert_eq!(s.tuples_deleted, 1);
    }

    #[test]
    fn write_lock_metrics_accumulate() {
        let table = t();
        table.insert(tuple![1]).unwrap();
        assert!(table.lock_metrics().snapshot().write_acquisitions >= 1);
    }

    #[test]
    fn kind() {
        assert_eq!(t().kind(), TableKind::External);
    }

    #[test]
    fn typed_writes_keep_a_built_index_and_raw_writes_drop_it() {
        let table = t();
        table.register_index(&[0]);
        table.insert(tuple![1]).unwrap();
        let probe = |v: f64| {
            let key = [Value::Double(v)];
            let mut sum = 0;
            let pinned = table.pin();
            let registered = pinned.lookup(&[0], &mut std::iter::once(&key[..]), &mut |_, _, m| {
                sum += m
            });
            assert!(registered);
            sum
        };
        assert_eq!(probe(1.0), 1, "first probe builds");
        table.insert(tuple![1]).unwrap();
        table
            .apply_delta(&Bag::singleton(tuple![1]), &Bag::singleton(tuple![2]))
            .unwrap();
        assert_eq!((probe(1.0), probe(2.0)), (1, 1));
        assert_eq!(table.index_stats()[0].entries, 2, "maintained, not dropped");
        table.replace(Bag::singleton(tuple![3])).unwrap();
        assert_eq!(table.index_stats()[0].entries, 0, "a raw write drops it");
        assert_eq!((probe(1.0), probe(3.0)), (0, 1));
        table.release_index(&[0]);
        assert!(!table
            .pin()
            .lookup(&[0], &mut std::iter::empty(), &mut |_, _, _| {}));
    }

    #[test]
    fn name_shared_is_the_same_allocation() {
        let table = t();
        let a = table.name_shared();
        let b = table.name_shared();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(&*a, table.name());
    }

    #[test]
    fn commit_guards_shared_coexist_exclusive_flagged() {
        let table = t();
        let a = table.commit_shared();
        let b = table.commit_shared();
        assert!(!a.is_exclusive());
        assert!(!b.is_exclusive());
        drop(a);
        drop(b);
        let e = table.commit_exclusive();
        assert!(e.is_exclusive());
        // data access is independent of commit claims
        table.insert(tuple![1]).unwrap();
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn commit_exclusive_blocks_shared_claimants() {
        let table = Arc::new(t());
        let g = table.commit_exclusive();
        let t2 = Arc::clone(&table);
        let h = std::thread::spawn(move || {
            let _s = t2.commit_shared(); // blocks until the exclusive drops
            true
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!h.is_finished(), "shared claim must wait for exclusive");
        drop(g);
        assert!(h.join().unwrap());
    }
}
