//! The catalog: a named collection of tables — the "database state" of the
//! paper (a mapping from table names to finite bags of tuples).

use crate::bag::Bag;
use crate::error::{Result, StorageError};
use crate::schema::Schema;
use crate::snapshot::Snapshot;
use crate::table::{CommitGuard, Table, TableKind};
use dvm_testkit::sync::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// How a commit-protocol participant intends to touch a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitMode {
    /// Read the table's state consistently (other shared claimants may
    /// interleave).
    Shared,
    /// Mutate the table (sole claimant while held).
    Exclusive,
}

/// A mapping from table names to tables. Tables themselves are internally
/// synchronized, so the catalog only guards the name → table map.
#[derive(Default)]
pub struct Catalog {
    tables: RwLock<BTreeMap<String, Arc<Table>>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Create a table; errors if the name is taken.
    pub fn create_table(
        &self,
        name: impl Into<String>,
        schema: Schema,
        kind: TableKind,
    ) -> Result<Arc<Table>> {
        let name = name.into();
        let mut map = self.tables.write();
        if map.contains_key(&name) {
            return Err(StorageError::DuplicateTable(name));
        }
        let table = Arc::new(Table::new(name.clone(), schema, kind));
        map.insert(name, Arc::clone(&table));
        Ok(table)
    }

    /// Look up a table.
    pub fn get(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.read().get(name).cloned()
    }

    /// Look up a table, erroring when absent.
    pub fn require(&self, name: &str) -> Result<Arc<Table>> {
        self.get(name)
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// Drop a table; errors when absent.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        self.tables
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    /// Whether a table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.read().contains_key(name)
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Names of tables of a given kind, sorted.
    pub fn table_names_of_kind(&self, kind: TableKind) -> Vec<String> {
        self.tables
            .read()
            .iter()
            .filter(|(_, t)| t.kind() == kind)
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// All tables, sorted by name.
    pub fn tables(&self) -> Vec<Arc<Table>> {
        self.tables.read().values().cloned().collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.read().len()
    }

    /// Whether the catalog has no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.read().is_empty()
    }

    /// Deep-copy the full database state (every table's bag).
    ///
    /// Used by the invariant checker and by tests that compare against a
    /// past state; the paper reasons constantly about "the value of Q in
    /// state s_p".
    pub fn snapshot(&self) -> Snapshot {
        let map = self.tables.read();
        Snapshot::from_bags(
            map.iter()
                .map(|(n, t)| (n.clone(), t.snapshot_bag()))
                .collect(),
        )
    }

    /// Restore every table mentioned in the snapshot to its recorded bag.
    /// Tables present in the catalog but not in the snapshot are untouched;
    /// snapshot entries without a matching table error.
    pub fn restore(&self, snapshot: &Snapshot) -> Result<()> {
        for (name, bag) in snapshot.iter() {
            let table = self.require(name)?;
            table.replace(bag.clone())?;
        }
        Ok(())
    }

    /// Convenience: clone a table's current bag.
    pub fn bag_of(&self, name: &str) -> Result<Bag> {
        Ok(self.require(name)?.snapshot_bag())
    }

    /// Acquire commit-intent claims on a set of tables, always in ascending
    /// table-name order (the `BTreeMap` iteration order), which makes the
    /// acquisition deadlock-free across all callers of this method.
    ///
    /// The catalog map lock is *not* held while blocking on commit claims:
    /// table `Arc`s are resolved first, then claimed one by one. Errors with
    /// `NoSuchTable` (holding no claims) if any name is absent up front.
    pub fn lock_commit(&self, modes: &BTreeMap<String, CommitMode>) -> Result<Vec<CommitGuard>> {
        let mut resolved = Vec::with_capacity(modes.len());
        for (name, mode) in modes {
            resolved.push((self.require(name)?, *mode));
        }
        Ok(resolved
            .iter()
            .map(|(table, mode)| match mode {
                CommitMode::Shared => table.commit_shared(),
                CommitMode::Exclusive => table.commit_exclusive(),
            })
            .collect())
    }
}

impl fmt::Debug for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let map = self.tables.read();
        f.debug_map()
            .entries(map.iter().map(|(n, t)| (n, t.len())))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::ValueType;

    fn schema() -> Schema {
        Schema::from_pairs(&[("a", ValueType::Int)])
    }

    #[test]
    fn create_get_drop() {
        let c = Catalog::new();
        c.create_table("r", schema(), TableKind::External).unwrap();
        assert!(c.contains("r"));
        assert!(c.get("r").is_some());
        assert!(matches!(
            c.create_table("r", schema(), TableKind::External),
            Err(StorageError::DuplicateTable(_))
        ));
        c.drop_table("r").unwrap();
        assert!(!c.contains("r"));
        assert!(c.drop_table("r").is_err());
    }

    #[test]
    fn require_errors_when_absent() {
        let c = Catalog::new();
        assert!(matches!(
            c.require("nope"),
            Err(StorageError::NoSuchTable(_))
        ));
    }

    #[test]
    fn names_sorted_and_filtered_by_kind() {
        let c = Catalog::new();
        c.create_table("z", schema(), TableKind::External).unwrap();
        c.create_table("a", schema(), TableKind::Internal).unwrap();
        c.create_table("m", schema(), TableKind::External).unwrap();
        assert_eq!(c.table_names(), vec!["a", "m", "z"]);
        assert_eq!(c.table_names_of_kind(TableKind::External), vec!["m", "z"]);
        assert_eq!(c.table_names_of_kind(TableKind::Internal), vec!["a"]);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let c = Catalog::new();
        let r = c.create_table("r", schema(), TableKind::External).unwrap();
        r.insert(tuple![1]).unwrap();
        let snap = c.snapshot();
        r.insert(tuple![2]).unwrap();
        assert_eq!(r.len(), 2);
        c.restore(&snap).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.snapshot_bag().contains(&tuple![1]));
    }

    #[test]
    fn restore_unknown_table_errors() {
        let c = Catalog::new();
        let d = Catalog::new();
        d.create_table("ghost", schema(), TableKind::External)
            .unwrap();
        let snap = d.snapshot();
        assert!(c.restore(&snap).is_err());
    }

    #[test]
    fn bag_of() {
        let c = Catalog::new();
        let r = c.create_table("r", schema(), TableKind::External).unwrap();
        r.insert(tuple![5]).unwrap();
        assert_eq!(c.bag_of("r").unwrap().len(), 1);
        assert!(c.bag_of("zz").is_err());
    }

    #[test]
    fn lock_commit_acquires_in_sorted_order_with_modes() {
        let c = Catalog::new();
        c.create_table("z", schema(), TableKind::External).unwrap();
        c.create_table("a", schema(), TableKind::External).unwrap();
        let mut modes = BTreeMap::new();
        modes.insert("z".to_string(), CommitMode::Exclusive);
        modes.insert("a".to_string(), CommitMode::Shared);
        let guards = c.lock_commit(&modes).unwrap();
        // BTreeMap order: "a" (shared) then "z" (exclusive)
        assert_eq!(guards.len(), 2);
        assert!(!guards[0].is_exclusive());
        assert!(guards[1].is_exclusive());
    }

    #[test]
    fn lock_commit_missing_table_errors_without_claims() {
        let c = Catalog::new();
        c.create_table("r", schema(), TableKind::External).unwrap();
        let mut modes = BTreeMap::new();
        modes.insert("r".to_string(), CommitMode::Exclusive);
        modes.insert("zz".to_string(), CommitMode::Shared);
        assert!(c.lock_commit(&modes).is_err());
        // "r" must not be left claimed: an immediate exclusive claim works
        let g = c.require("r").unwrap().commit_exclusive();
        assert!(g.is_exclusive());
    }
}
