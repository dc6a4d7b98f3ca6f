//! Simple transactions (Section 2.2).
//!
//! A simple transaction has the form
//! `T = {R_i := (R_i ∸ ∇R_i) ⊎ ΔR_i}` — every table is simultaneously
//! updated by deleting the bag `∇R_i` and inserting the bag `ΔR_i`. The
//! paper notes this is without loss of generality: any abstract transaction
//! can be normalized to this shape.

use crate::error::{DeltaError, Result};
use dvm_algebra::eval::BagSource;
use dvm_algebra::infer::SchemaProvider;
use dvm_algebra::subst::FactoredSubstitution;
use dvm_algebra::Expr;
use dvm_storage::{Bag, Tuple};
use std::collections::BTreeMap;
use std::fmt;

/// A simple transaction: per-table delete and insert bags (`∇R`, `ΔR`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Transaction {
    changes: BTreeMap<String, (Bag, Bag)>,
}

impl Transaction {
    /// The empty transaction.
    pub fn new() -> Self {
        Transaction::default()
    }

    /// Add deletions for `table` (accumulates).
    pub fn delete(mut self, table: impl Into<String>, bag: Bag) -> Self {
        let entry = self.changes.entry(table.into()).or_default();
        entry.0.union_assign(&bag);
        self
    }

    /// Add insertions for `table` (accumulates).
    pub fn insert(mut self, table: impl Into<String>, bag: Bag) -> Self {
        let entry = self.changes.entry(table.into()).or_default();
        entry.1.union_assign(&bag);
        self
    }

    /// Delete a single tuple occurrence.
    pub fn delete_tuple(self, table: impl Into<String>, t: Tuple) -> Self {
        self.delete(table, Bag::singleton(t))
    }

    /// Insert a single tuple occurrence.
    pub fn insert_tuple(self, table: impl Into<String>, t: Tuple) -> Self {
        self.insert(table, Bag::singleton(t))
    }

    /// Tables touched by this transaction.
    pub fn tables(&self) -> impl Iterator<Item = &String> {
        self.changes.keys()
    }

    /// `(∇R, ΔR)` for a table, if it is touched.
    pub fn get(&self, table: &str) -> Option<(&Bag, &Bag)> {
        self.changes.get(table).map(|(d, i)| (d, i))
    }

    /// Whether the transaction changes nothing.
    pub fn is_empty(&self) -> bool {
        self.changes
            .values()
            .all(|(d, i)| d.is_empty() && i.is_empty())
    }

    /// Total tuple occurrences deleted + inserted (workload metric).
    pub fn change_volume(&self) -> u64 {
        self.changes.values().map(|(d, i)| d.len() + i.len()).sum()
    }

    /// Normalize against the current state: `∇R := ∇R min R`, so deleting an
    /// absent tuple is a no-op and the result is **weakly minimal**
    /// (`∇R ⊑ R`). The paper (Section 4.1) notes any transaction can be so
    /// transformed.
    pub fn make_weakly_minimal(&self, state: &dyn BagSource) -> Result<Transaction> {
        let mut out = Transaction::new();
        for (table, (del, ins)) in &self.changes {
            let current = state
                .bag(table)
                .map_err(|_| DeltaError::UnknownTable(table.clone()))?;
            // Deletions of rows that are there (the usual case) are kept
            // as they are: a copy, not a rebuild.
            let del = match del.is_subbag_of(current) {
                true => del.clone(),
                false => del.min_intersect(current),
            };
            out.changes.insert(table.clone(), (del, ins.clone()));
        }
        Ok(out)
    }

    /// Whether `∇R ⊑ R` holds in `state` for every touched table.
    pub fn is_weakly_minimal(&self, state: &dyn BagSource) -> Result<bool> {
        for (table, (del, _)) in &self.changes {
            let current = state
                .bag(table)
                .map_err(|_| DeltaError::UnknownTable(table.clone()))?;
            if !del.is_subbag_of(current) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Normalize to **strong** minimality of the transaction itself:
    /// additionally cancel tuples that are both deleted and inserted
    /// (`∇R min ΔR` removed from both sides). Semantics preserved only when
    /// weak minimality holds first, so this calls
    /// [`Transaction::make_weakly_minimal`] internally.
    pub fn make_strongly_minimal(&self, state: &dyn BagSource) -> Result<Transaction> {
        let weak = self.make_weakly_minimal(state)?;
        let mut out = Transaction::new();
        for (table, (del, ins)) in &weak.changes {
            let overlap = del.min_intersect(ins);
            out.changes
                .insert(table.clone(), (del.monus(&overlap), ins.monus(&overlap)));
        }
        Ok(out)
    }

    /// The factored substitution `T̂` (Section 2.4): every touched table
    /// maps to `(R ∸ ∇R) ⊎ ΔR` with the bags as literals.
    pub fn to_subst(&self, provider: &dyn SchemaProvider) -> Result<FactoredSubstitution> {
        let mut f = FactoredSubstitution::new();
        for (table, (del, ins)) in &self.changes {
            let schema = provider
                .schema_of(table)
                .map_err(|_| DeltaError::UnknownTable(table.clone()))?;
            f.set(
                table.clone(),
                Expr::literal(del.clone(), schema.clone()),
                Expr::literal(ins.clone(), schema),
            );
        }
        Ok(f)
    }

    /// Apply to an in-memory state map (tests / simulation): simultaneous
    /// `R := (R ∸ ∇R) ⊎ ΔR` for every touched table.
    pub fn apply_to_map(&self, state: &mut std::collections::HashMap<String, Bag>) {
        for (table, (del, ins)) in &self.changes {
            if let Some(bag) = state.get_mut(table) {
                bag.apply_delta(del, ins);
            }
        }
    }
}

impl fmt::Display for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (table, (del, ins))) in self.changes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{table} := ({table} ∸ {del}) ⊎ {ins}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_storage::tuple;
    use std::collections::HashMap;

    fn state() -> HashMap<String, Bag> {
        let mut m = HashMap::new();
        let mut r = Bag::new();
        r.insert_n(tuple![1], 2);
        r.insert(tuple![2]);
        m.insert("r".to_string(), r);
        m.insert("s".to_string(), Bag::singleton(tuple![9]));
        m
    }

    #[test]
    fn builder_accumulates() {
        let t = Transaction::new()
            .insert_tuple("r", tuple![1])
            .insert_tuple("r", tuple![1])
            .delete_tuple("r", tuple![2]);
        let (d, i) = t.get("r").unwrap();
        assert_eq!(i.multiplicity(&tuple![1]), 2);
        assert_eq!(d.multiplicity(&tuple![2]), 1);
        assert_eq!(t.change_volume(), 3);
        assert!(!t.is_empty());
        assert!(Transaction::new().is_empty());
    }

    #[test]
    fn weak_minimality_normalization() {
        let s = state();
        // delete [1]×5 (only 2 present) and [7] (absent)
        let mut del = Bag::new();
        del.insert_n(tuple![1], 5);
        del.insert(tuple![7]);
        let t = Transaction::new().delete("r", del);
        assert!(!t.is_weakly_minimal(&s).unwrap());
        let w = t.make_weakly_minimal(&s).unwrap();
        assert!(w.is_weakly_minimal(&s).unwrap());
        let (d, _) = w.get("r").unwrap();
        assert_eq!(d.multiplicity(&tuple![1]), 2);
        assert_eq!(d.multiplicity(&tuple![7]), 0);
    }

    #[test]
    fn strong_minimality_cancels_churn() {
        let s = state();
        let t = Transaction::new()
            .delete_tuple("r", tuple![1])
            .insert_tuple("r", tuple![1])
            .insert_tuple("r", tuple![3]);
        let strong = t.make_strongly_minimal(&s).unwrap();
        let (d, i) = strong.get("r").unwrap();
        assert!(d.is_empty(), "delete+reinsert cancels");
        assert_eq!(i.multiplicity(&tuple![1]), 0);
        assert_eq!(i.multiplicity(&tuple![3]), 1);
    }

    #[test]
    fn strong_and_weak_apply_identically() {
        let s = state();
        let t = Transaction::new()
            .delete_tuple("r", tuple![1])
            .insert_tuple("r", tuple![1])
            .delete_tuple("r", tuple![2])
            .insert_tuple("s", tuple![4]);
        let mut after_weak = state();
        t.make_weakly_minimal(&s)
            .unwrap()
            .apply_to_map(&mut after_weak);
        let mut after_strong = state();
        t.make_strongly_minimal(&s)
            .unwrap()
            .apply_to_map(&mut after_strong);
        assert_eq!(after_weak, after_strong);
    }

    #[test]
    fn unknown_table_errors() {
        let s = state();
        let t = Transaction::new().insert_tuple("ghost", tuple![1]);
        assert!(matches!(
            t.make_weakly_minimal(&s),
            Err(DeltaError::UnknownTable(_))
        ));
    }

    #[test]
    fn apply_to_map_simultaneous_delta() {
        let mut s = state();
        let t = Transaction::new()
            .delete_tuple("r", tuple![1])
            .insert_tuple("r", tuple![5]);
        t.apply_to_map(&mut s);
        assert_eq!(s["r"].multiplicity(&tuple![1]), 1);
        assert_eq!(s["r"].multiplicity(&tuple![5]), 1);
    }

    #[test]
    fn display() {
        let t = Transaction::new().insert_tuple("r", tuple![1]);
        assert_eq!(t.to_string(), "{r := (r ∸ {}) ⊎ {[1]}}");
    }
}
