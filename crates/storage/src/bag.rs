//! Bags (multisets) of tuples — the storage representation behind every
//! table, log, and differential table.
//!
//! A [`Bag`] maps each distinct tuple to its multiplicity. All of the paper's
//! bag-algebra primitives are implemented natively here:
//!
//! * additive union `⊎` ([`Bag::union`]),
//! * monus `∸` ([`Bag::monus`]),
//! * minimal intersection `min` ([`Bag::min_intersect`]),
//! * maximal union `max` ([`Bag::max_union`]),
//! * cartesian product `×` ([`Bag::product`]),
//! * selection `σ` ([`Bag::select`]),
//! * projection `Π` ([`Bag::project`]),
//! * duplicate elimination `ε` ([`Bag::dedup`]).
//!
//! The total cardinality is cached so `len()` is O(1).

use crate::hasher::{FxBuildHasher, FxHashMap};
use crate::tuple::Tuple;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// A finite multiset of tuples.
///
/// Tuples are hashed with the workspace [`crate::hasher::FxHasher`] rather
/// than std's SipHash: bag contents are internal maintenance state, and
/// tuple hashing dominates the maintenance hot path (see DESIGN.md §11).
#[derive(Debug, Clone, Default)]
pub struct Bag {
    map: FxHashMap<Tuple, u64>,
    /// Cached total multiplicity (sum over all entries).
    len: u64,
}

impl Bag {
    /// The empty bag `φ`.
    pub fn new() -> Self {
        Bag::default()
    }

    /// An empty bag with capacity for `n` distinct tuples.
    pub fn with_capacity(n: usize) -> Self {
        Bag {
            map: HashMap::with_capacity_and_hasher(n, FxBuildHasher::default()),
            len: 0,
        }
    }

    /// A singleton bag `{x}`.
    pub fn singleton(t: Tuple) -> Self {
        let mut b = Bag::new();
        b.insert(t);
        b
    }

    /// Build from an iterator of tuples, accumulating multiplicities.
    pub fn from_tuples<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        let mut b = Bag::new();
        for t in iter {
            b.insert(t);
        }
        b
    }

    /// Total cardinality, counting duplicates.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Number of distinct tuples.
    pub fn distinct_len(&self) -> usize {
        self.map.len()
    }

    /// Whether the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Multiplicity of `t` (0 when absent).
    pub fn multiplicity(&self, t: &Tuple) -> u64 {
        self.map.get(t).copied().unwrap_or(0)
    }

    /// Whether `t` occurs at least once.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.multiplicity(t) > 0
    }

    /// Insert one occurrence of `t`.
    pub fn insert(&mut self, t: Tuple) {
        self.insert_n(t, 1);
    }

    /// Insert `n` occurrences of `t`.
    pub fn insert_n(&mut self, t: Tuple, n: u64) {
        if n == 0 {
            return;
        }
        *self.map.entry(t).or_insert(0) += n;
        self.len += n;
    }

    /// Remove up to `n` occurrences of `t`; returns how many were removed.
    pub fn remove_n(&mut self, t: &Tuple, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        match self.map.get_mut(t) {
            None => 0,
            Some(m) => {
                let removed = (*m).min(n);
                *m -= removed;
                if *m == 0 {
                    self.map.remove(t);
                }
                self.len -= removed;
                removed
            }
        }
    }

    /// Remove one occurrence of `t`; returns whether one was removed.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        self.remove_n(t, 1) == 1
    }

    /// Remove everything, releasing the map's allocation.
    pub fn clear(&mut self) {
        self.map = FxHashMap::default();
        self.len = 0;
    }

    /// Iterate over `(tuple, multiplicity)` pairs in hash order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, u64)> {
        self.map.iter().map(|(t, &n)| (t, n))
    }

    /// Iterate over tuples, each repeated by its multiplicity.
    pub fn iter_expanded(&self) -> impl Iterator<Item = &Tuple> {
        self.iter()
            .flat_map(|(t, m)| std::iter::repeat_n(t, m as usize))
    }

    /// Entries sorted by tuple — deterministic order for display and tests.
    pub fn sorted_entries(&self) -> Vec<(Tuple, u64)> {
        let mut v: Vec<(Tuple, u64)> = self.iter().map(|(t, m)| (t.clone(), m)).collect();
        v.sort();
        v
    }

    /// Fold `self` with an order-independent combiner — a hash of the
    /// bag's *contents* that never sorts. Each `(tuple, multiplicity)`
    /// entry is hashed independently by `per_entry` and the results are
    /// combined with wrapping addition, which is commutative, so any
    /// iteration order yields the same value. Used by plan fingerprinting
    /// to hash `Literal` bags without an O(n log n) sort.
    pub fn fold_entry_hashes<F: Fn(&Tuple, u64) -> u64>(&self, per_entry: F) -> u64 {
        self.iter()
            .fold(0u64, |acc, (t, m)| acc.wrapping_add(per_entry(t, m)))
    }

    // ---- bag algebra primitives ------------------------------------------

    /// Additive union `self ⊎ other`: multiplicities add.
    pub fn union(&self, other: &Bag) -> Bag {
        let (big, small) = if self.distinct_len() >= other.distinct_len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = big.clone();
        out.union_assign(small);
        out
    }

    /// In-place additive union. Into an empty bag this copies `other`'s
    /// table, which re-hashes nothing; otherwise room for `other` is
    /// reserved first, so the table grows at most once.
    pub fn union_assign(&mut self, other: &Bag) {
        if self.is_empty() {
            self.map.clone_from(&other.map);
            self.len = other.len;
            return;
        }
        self.map.reserve(other.distinct_len());
        for (t, m) in other.iter() {
            self.insert_n(t.clone(), m);
        }
    }

    /// Monus `self ∸ other`: multiplicity of `x` is `max(0, n - m)`. Walks
    /// the smaller side: a small `self` probes a large `other` (a Lemma-3
    /// fold's `d2 ∸ i1` against an accumulated log) in O(|self|).
    pub fn monus(&self, other: &Bag) -> Bag {
        if other.distinct_len() <= self.distinct_len() {
            let mut out = self.clone();
            out.monus_assign(other);
            return out;
        }
        let mut out = Bag::new();
        for (t, m) in self.iter() {
            let k = m.saturating_sub(other.multiplicity(t));
            if k > 0 {
                out.insert_n(t.clone(), k);
            }
        }
        out
    }

    /// In-place monus.
    pub fn monus_assign(&mut self, other: &Bag) {
        if self.is_empty() || other.is_empty() {
            return;
        }
        for (t, m) in other.iter() {
            self.remove_n(t, m);
        }
    }

    /// Minimal intersection: multiplicity is `min(n, m)`.
    ///
    /// Definable as `Q1 ∸ (Q1 ∸ Q2)` (Section 2.1); the native form avoids
    /// two clones. The equivalence is property-tested.
    pub fn min_intersect(&self, other: &Bag) -> Bag {
        let (small, big) = if self.distinct_len() <= other.distinct_len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = Bag::with_capacity(small.distinct_len());
        for (t, m) in small.iter() {
            let k = m.min(big.multiplicity(t));
            if k > 0 {
                out.insert_n(t.clone(), k);
            }
        }
        out
    }

    /// Maximal union: multiplicity is `max(n, m)`.
    ///
    /// Definable as `Q1 ⊎ (Q2 ∸ Q1)` (Section 2.1).
    pub fn max_union(&self, other: &Bag) -> Bag {
        let mut out = self.clone();
        for (t, m) in other.iter() {
            let cur = out.multiplicity(t);
            if m > cur {
                out.insert_n(t.clone(), m - cur);
            }
        }
        out
    }

    /// Cartesian product `self × other` with tuple concatenation;
    /// multiplicities multiply.
    pub fn product(&self, other: &Bag) -> Bag {
        // Cap the pre-allocation: the true result size is the full cross
        // product, which can be enormous; let the map grow instead of
        // reserving gigabytes up front.
        let cap = self
            .distinct_len()
            .saturating_mul(other.distinct_len())
            .min(1 << 20);
        let mut out = Bag::with_capacity(cap);
        for (a, m) in self.iter() {
            for (b, n) in other.iter() {
                // saturating: astronomically large multiplicities clamp
                // rather than wrapping (and panicking in debug builds)
                out.insert_n(a.concat(b), m.saturating_mul(n));
            }
        }
        out
    }

    /// Selection `σ_p`: keep tuples satisfying the predicate, multiplicities
    /// unchanged.
    pub fn select<F: Fn(&Tuple) -> bool>(&self, pred: F) -> Bag {
        let mut out = Bag::new();
        for (t, m) in self.iter() {
            if pred(t) {
                out.insert_n(t.clone(), m);
            }
        }
        out
    }

    /// Projection `Π` onto positions — duplicates are *preserved* (bag
    /// semantics), so distinct inputs may merge and multiplicities add.
    pub fn project(&self, indices: &[usize]) -> Bag {
        let mut out = Bag::new();
        for (t, m) in self.iter() {
            out.insert_n(t.project(indices), m);
        }
        out
    }

    /// Duplicate elimination `ε`: every present tuple gets multiplicity 1.
    pub fn dedup(&self) -> Bag {
        let mut out = Bag::with_capacity(self.distinct_len());
        for (t, _) in self.iter() {
            out.insert_n(t.clone(), 1);
        }
        out
    }

    /// SQL `EXCEPT`-style difference: remove *all* occurrences of any tuple
    /// present in `other`, regardless of multiplicity (Section 2.1 contrasts
    /// this with monus).
    pub fn except_all_occurrences(&self, other: &Bag) -> Bag {
        self.select(|t| !other.contains(t))
    }

    /// Subbag test `self ⊑ other`: every multiplicity in `self` is ≤ the
    /// corresponding multiplicity in `other`.
    pub fn is_subbag_of(&self, other: &Bag) -> bool {
        self.iter().all(|(t, m)| m <= other.multiplicity(t))
    }

    /// Apply a delta: `self := (self ∸ del) ⊎ ins`, in place.
    pub fn apply_delta(&mut self, del: &Bag, ins: &Bag) {
        self.monus_assign(del);
        self.union_assign(ins);
    }

    /// [`Bag::apply_delta`], calling `seen(stored, m)` for every tuple it
    /// changes: `stored` is the bag's own copy (see [`Tuple::addr`]) and `m`
    /// its multiplicity after the change, 0 when it left the bag.
    pub fn apply_delta_observed(
        &mut self,
        del: &Bag,
        ins: &Bag,
        mut seen: impl FnMut(&Tuple, u64),
    ) {
        let (mut removed, mut added) = (0, 0);
        for (t, m) in del.iter() {
            let Some((stored, n)) = self.map.remove_entry(t) else {
                continue;
            };
            let left = n.saturating_sub(m);
            removed += n - left;
            if left > 0 {
                self.map.insert(stored.clone(), left);
            }
            seen(&stored, left);
        }
        for (t, m) in ins.iter() {
            added += m;
            let mut e = match self.map.entry(t.clone()) {
                Entry::Occupied(e) => e,
                Entry::Vacant(e) => e.insert_entry(0),
            };
            *e.get_mut() += m;
            seen(e.key(), *e.get());
        }
        self.len = self.len - removed + added;
    }
}

impl PartialEq for Bag {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.distinct_len() == other.distinct_len()
            && self.iter().all(|(t, m)| other.multiplicity(t) == m)
    }
}

impl Eq for Bag {}

impl FromIterator<Tuple> for Bag {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        Bag::from_tuples(iter)
    }
}

/// Consume the bag, yielding owned `(tuple, multiplicity)` pairs in hash
/// order. Lets the streaming executor turn a materialized pipeline-breaker
/// result back into a stream without cloning tuples.
impl IntoIterator for Bag {
    type Item = (Tuple, u64);
    type IntoIter = std::collections::hash_map::IntoIter<Tuple, u64>;

    fn into_iter(self) -> Self::IntoIter {
        self.map.into_iter()
    }
}

impl fmt::Display for Bag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (t, m)) in self.sorted_entries().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if *m == 1 {
                write!(f, "{t}")?;
            } else {
                write!(f, "{t}×{m}")?;
            }
        }
        write!(f, "}}")
    }
}

/// Convenience constructor: `bag![tuple![1], tuple![2]; tuple![1] => 3]`.
/// Plain items get multiplicity 1; `expr => n` items get multiplicity `n`.
#[macro_export]
macro_rules! bag {
    () => { $crate::bag::Bag::new() };
    ($($t:expr),+ $(,)?) => {{
        let mut b = $crate::bag::Bag::new();
        $(b.insert($t);)+
        b
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn b(items: &[(i64, u64)]) -> Bag {
        let mut bag = Bag::new();
        for &(v, m) in items {
            bag.insert_n(tuple![v], m);
        }
        bag
    }

    #[test]
    fn observed_apply_reports_each_change_with_the_stored_tuple() {
        let mut b = Bag::new();
        let kept = tuple![1];
        b.insert_n(kept.clone(), 3);
        b.insert(tuple![2]);
        let (del, ins) = (
            Bag::from_tuples([tuple![1], tuple![2], tuple![9]]),
            Bag::from_tuples([tuple![3], tuple![1]]),
        );
        let mut seen = Vec::new();
        let mut expected = b.clone();
        expected.apply_delta(&del, &ins);
        b.apply_delta_observed(&del, &ins, |t, m| seen.push((t.clone(), m)));
        assert_eq!(b, expected);
        seen.sort();
        let one = |m| (tuple![1], m);
        assert_eq!(seen, vec![one(2), one(3), (tuple![2], 0), (tuple![3], 1)]);
        let stored = seen.iter().find(|(t, m)| *t == kept && *m == 3).unwrap();
        assert_eq!(stored.0.addr(), kept.addr(), "the bag's own allocation");
    }

    #[test]
    fn insert_remove_multiplicity() {
        let mut bag = Bag::new();
        bag.insert_n(tuple![1], 3);
        assert_eq!(bag.len(), 3);
        assert_eq!(bag.distinct_len(), 1);
        assert_eq!(bag.multiplicity(&tuple![1]), 3);
        assert_eq!(bag.remove_n(&tuple![1], 2), 2);
        assert_eq!(bag.multiplicity(&tuple![1]), 1);
        assert_eq!(bag.remove_n(&tuple![1], 5), 1, "remove saturates");
        assert!(!bag.contains(&tuple![1]));
        assert!(bag.is_empty());
    }

    #[test]
    fn remove_absent_is_zero() {
        let mut bag = b(&[(1, 1)]);
        assert_eq!(bag.remove_n(&tuple![9], 4), 0);
        assert_eq!(bag.len(), 1);
    }

    #[test]
    fn insert_zero_is_noop() {
        let mut bag = Bag::new();
        bag.insert_n(tuple![1], 0);
        assert!(bag.is_empty());
        assert_eq!(bag.distinct_len(), 0, "no phantom zero-multiplicity entry");
    }

    #[test]
    fn union_adds_multiplicities() {
        let x = b(&[(1, 2), (2, 1)]);
        let y = b(&[(1, 1), (3, 4)]);
        let u = x.union(&y);
        assert_eq!(u, b(&[(1, 3), (2, 1), (3, 4)]));
        assert_eq!(u.len(), 8);
    }

    #[test]
    fn union_assign_into_empty_smaller_and_larger_bags() {
        let other = b(&[(1, 2), (2, 1), (3, 4)]);
        // Empty: the table is copied, multiplicities and cached len with it.
        for mut into in [Bag::new(), Bag::with_capacity(64), b(&[(9, 1)])] {
            into.remove_n(&tuple![9], 1);
            into.union_assign(&other);
            assert_eq!(into, other);
            assert_eq!(into.len(), 7);
            assert_eq!(into.len(), into.iter().map(|(_, m)| m).sum::<u64>());
        }
        let mut smaller = b(&[(1, 1)]);
        smaller.union_assign(&other);
        assert_eq!(smaller, b(&[(1, 3), (2, 1), (3, 4)]));
        assert_eq!(smaller.len(), 8);
        let mut larger = b(&[(1, 1), (4, 1), (5, 2), (6, 1), (7, 1)]);
        larger.union_assign(&b(&[(1, 1), (8, 3)]));
        assert_eq!(larger, b(&[(1, 2), (4, 1), (5, 2), (6, 1), (7, 1), (8, 3)]));
        assert_eq!(larger.len(), 10);
        // The copy is independent of its source.
        let mut copy = Bag::new();
        copy.union_assign(&other);
        copy.remove_n(&tuple![3], 4);
        assert_eq!(other.multiplicity(&tuple![3]), 4);
        assert_eq!((copy.len(), other.len()), (3, 7));
    }

    #[test]
    fn monus_assign_with_either_side_empty() {
        let x = b(&[(1, 2), (2, 1)]);
        let mut from_empty = Bag::new();
        from_empty.monus_assign(&x);
        assert!(from_empty.is_empty());
        assert_eq!(from_empty.distinct_len(), 0);
        let mut minus_empty = x.clone();
        minus_empty.monus_assign(&Bag::new());
        assert_eq!(minus_empty, x);
        assert_eq!(minus_empty.len(), 3);
    }

    #[test]
    fn monus_saturates() {
        let x = b(&[(1, 2), (2, 1)]);
        let y = b(&[(1, 5), (3, 1)]);
        assert_eq!(x.monus(&y), b(&[(2, 1)]));
        // monus is not symmetric
        assert_eq!(y.monus(&x), b(&[(1, 3), (3, 1)]));
        // a smaller `self` walks itself, probing the larger side
        let z = b(&[(1, 1), (3, 1), (4, 1), (5, 1)]);
        assert_eq!(x.monus(&z), b(&[(1, 1), (2, 1)]));
        let mut assigned = x.clone();
        assigned.monus_assign(&z);
        assert_eq!(x.monus(&z), assigned);
    }

    #[test]
    fn min_and_max() {
        let x = b(&[(1, 2), (2, 3)]);
        let y = b(&[(1, 5), (2, 1), (3, 7)]);
        assert_eq!(x.min_intersect(&y), b(&[(1, 2), (2, 1)]));
        assert_eq!(x.max_union(&y), b(&[(1, 5), (2, 3), (3, 7)]));
        // symmetry
        assert_eq!(x.min_intersect(&y), y.min_intersect(&x));
        assert_eq!(x.max_union(&y), y.max_union(&x));
    }

    #[test]
    fn min_max_definable_via_monus_and_union() {
        // Q1 min Q2 = Q1 ∸ (Q1 ∸ Q2);  Q1 max Q2 = Q1 ⊎ (Q2 ∸ Q1)
        let x = b(&[(1, 2), (2, 3), (4, 1)]);
        let y = b(&[(1, 5), (2, 1), (3, 7)]);
        assert_eq!(x.min_intersect(&y), x.monus(&x.monus(&y)));
        assert_eq!(x.max_union(&y), x.union(&y.monus(&x)));
    }

    #[test]
    fn product_multiplies() {
        let x = b(&[(1, 2)]);
        let mut y = Bag::new();
        y.insert_n(tuple!["a"], 3);
        let p = x.product(&y);
        assert_eq!(p.multiplicity(&tuple![1, "a"]), 6);
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn product_with_empty_is_empty() {
        let x = b(&[(1, 2)]);
        assert!(x.product(&Bag::new()).is_empty());
        assert!(Bag::new().product(&x).is_empty());
    }

    #[test]
    fn select_keeps_multiplicity() {
        let x = b(&[(1, 2), (2, 3)]);
        let s = x.select(|t| t[0] == crate::value::Value::Int(2));
        assert_eq!(s, b(&[(2, 3)]));
    }

    #[test]
    fn project_merges_and_adds() {
        let mut x = Bag::new();
        x.insert_n(tuple![1, "a"], 2);
        x.insert_n(tuple![1, "b"], 3);
        let p = x.project(&[0]);
        assert_eq!(p.multiplicity(&tuple![1]), 5);
    }

    #[test]
    fn dedup_sets_multiplicity_one() {
        let x = b(&[(1, 5), (2, 1)]);
        let d = x.dedup();
        assert_eq!(d, b(&[(1, 1), (2, 1)]));
    }

    #[test]
    fn except_all_occurrences_ignores_multiplicity() {
        let x = b(&[(1, 5), (2, 2)]);
        let y = b(&[(1, 1)]);
        assert_eq!(x.except_all_occurrences(&y), b(&[(2, 2)]));
    }

    #[test]
    fn subbag() {
        let x = b(&[(1, 2)]);
        let y = b(&[(1, 3), (2, 1)]);
        assert!(x.is_subbag_of(&y));
        assert!(!y.is_subbag_of(&x));
        assert!(Bag::new().is_subbag_of(&x));
        assert!(x.is_subbag_of(&x));
    }

    #[test]
    fn apply_delta_is_monus_then_union() {
        let mut x = b(&[(1, 2), (2, 1)]);
        let del = b(&[(1, 1)]);
        let ins = b(&[(3, 2)]);
        x.apply_delta(&del, &ins);
        assert_eq!(x, b(&[(1, 1), (2, 1), (3, 2)]));
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let mut x = Bag::new();
        x.insert(tuple![1]);
        x.insert(tuple![2]);
        let mut y = Bag::new();
        y.insert(tuple![2]);
        y.insert(tuple![1]);
        assert_eq!(x, y);
    }

    #[test]
    fn len_cache_consistent_after_mixed_ops() {
        let mut x = Bag::new();
        for i in 0i64..100 {
            x.insert_n(tuple![i % 7], (i % 3) as u64 + 1);
        }
        for i in 0i64..50 {
            x.remove_n(&tuple![i % 7], (i % 4) as u64);
        }
        let recomputed: u64 = x.iter().map(|(_, m)| m).sum();
        assert_eq!(x.len(), recomputed);
    }

    #[test]
    fn iter_expanded_repeats() {
        let x = b(&[(1, 3)]);
        assert_eq!(x.iter_expanded().count(), 3);
    }

    #[test]
    fn display_sorted() {
        let x = b(&[(2, 1), (1, 3)]);
        assert_eq!(x.to_string(), "{[1]×3, [2]}");
    }

    #[test]
    fn singleton_and_macro() {
        assert_eq!(Bag::singleton(tuple![1]).len(), 1);
        let m = crate::bag![tuple![1], tuple![1], tuple![2]];
        assert_eq!(m.multiplicity(&tuple![1]), 2);
    }
}
