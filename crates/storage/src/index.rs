//! Join-key indexes on base tables: a join's change queries cost
//! `O(|Δ|)` only if the unchanged side is read by key. A [`KeyIndex`] maps
//! a normalized join key to the tuples carrying it, so the evaluator looks
//! a build side's keys up instead of scanning the table.
//!
//! An index lives in the table's lock beside its bag
//! ([`crate::table::Stored`]), so a pin sees both at one state. It is
//! derived state, never in the WAL or a checkpoint: built by its first
//! probe, dropped by a raw write. Its upkeep is deferred too: a commit only
//! notes each changed tuple ([`Bag::apply_delta_observed`] hands them over
//! for free), and the next probe folds the notes in. The bucket work thus
//! lands on the maintenance that needs the index, not on the commit.

use crate::bag::Bag;
use crate::hasher::FxHashMap;
use crate::tuple::Tuple;
use crate::value::Value;
use dvm_testkit::sync::Mutex;
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Normalize a tuple's key positions into `scratch` (reused across tuples
/// — no allocation). Returns `false` when any key is NULL, which never
/// joins. `Int` coerces to `Double` so hash-equality coincides with
/// `sql_cmp`'s numeric comparison. This is the key of hash joins, of the
/// key sets they push down, and of [`KeyIndex`].
pub fn normalize_key_into(t: &Tuple, cols: &[usize], scratch: &mut Vec<Value>) -> bool {
    scratch.clear();
    for &i in cols {
        match &t[i] {
            Value::Null => return false,
            Value::Int(v) => scratch.push(Value::Double(*v as f64)),
            other => scratch.push(other.clone()),
        }
    }
    true
}

/// Normalized key → the tuples of the bag carrying it, with their
/// multiplicities. A tuple with a NULL key is never indexed; an emptied key
/// is removed.
type Buckets = FxHashMap<Key, Bucket>;

/// A normalized key, held inline when it is one column (every join of one
/// equality), so a lookup compares it without following a pointer.
#[derive(Debug, Clone)]
enum Key {
    One(Value),
    Many(Box<[Value]>),
}

impl Borrow<[Value]> for Key {
    fn borrow(&self) -> &[Value] {
        match self {
            Key::One(v) => std::slice::from_ref(v),
            Key::Many(vs) => vs,
        }
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        Borrow::<[Value]>::borrow(self) == Borrow::<[Value]>::borrow(other)
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        Borrow::<[Value]>::borrow(self).hash(state)
    }
}

/// One key's tuples, each the bag's own allocation and so found by address
/// ([`slot`]): no tuple is hashed or compared by value. A unique key's one
/// tuple is held inline.
#[derive(Debug)]
enum Bucket {
    One(Tuple, u64),
    Many(FxHashMap<usize, (Tuple, u64)>),
}

impl Bucket {
    fn each(&self, mut f: impl FnMut(&Tuple, u64)) {
        match self {
            Bucket::One(t, m) => f(t, *m),
            Bucket::Many(map) => map.values().for_each(|(t, m)| f(t, *m)),
        }
    }

    /// Set the multiplicity of `stored` to `m`; `true` when the bucket is
    /// left empty.
    fn set(&mut self, stored: &Tuple, m: u64) -> bool {
        match self {
            Bucket::One(t, n) if slot(t) == slot(stored) => match m {
                0 => return true,
                _ => *n = m,
            },
            Bucket::One(..) if m == 0 => {}
            Bucket::One(t, n) => {
                let mut map = FxHashMap::default();
                map.insert(slot(t), (t.clone(), *n));
                map.insert(slot(stored), (stored.clone(), m));
                *self = Bucket::Many(map);
            }
            Bucket::Many(map) if m == 0 => {
                map.remove(&slot(stored));
                return map.is_empty();
            }
            Bucket::Many(map) => {
                map.insert(slot(stored), (stored.clone(), m));
            }
        }
        false
    }
}

/// A tuple's address without the alignment zeros, which would otherwise
/// leave the low bits `HashMap` picks buckets with the same for every
/// tuple (an allocation spans more than 16 bytes, so it stays unique).
fn slot(t: &Tuple) -> usize {
    t.addr() >> 4
}

/// An index over one table on one list of key columns.
#[derive(Debug)]
pub struct KeyIndex {
    cols: Box<[usize]>,
    /// Views that registered this index; it goes when the last one does.
    views: usize,
    /// Probes take the lock (under the table's read lock) to build or
    /// catch up; commits hold the table's write lock and need none.
    state: Mutex<State>,
    probes: AtomicU64,
}

#[derive(Debug, Default)]
struct State {
    /// `None` until the first probe builds it from the bag.
    buckets: Option<Buckets>,
    /// Changes committed since the last probe: `(the bag's own tuple, its
    /// multiplicity after the change)`, in commit order.
    pending: Vec<(Tuple, u64)>,
}

/// A point-in-time copy of one index's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexStats {
    /// Key column positions.
    pub cols: Vec<usize>,
    /// Distinct keys held (0 while the index is unbuilt).
    pub entries: u64,
    /// Keys looked up since the index was registered.
    pub probes: u64,
}

impl KeyIndex {
    fn new(cols: &[usize]) -> Self {
        KeyIndex {
            cols: cols.into(),
            views: 0,
            state: Mutex::new(State::default()),
            probes: AtomicU64::new(0),
        }
    }

    /// Hand `found(i, tuple, multiplicity)` every tuple of `bag` — the bag
    /// this index is kept over — whose normalized key is the `i`-th of
    /// `keys`, lent under the index's lock. Builds the index if this is its
    /// first probe, and folds in the changes committed since the last one.
    pub fn lookup(
        &self,
        bag: &Bag,
        keys: &mut dyn Iterator<Item = &[Value]>,
        found: &mut dyn FnMut(usize, &Tuple, u64),
    ) {
        let mut state = self.state.lock();
        let State { buckets, pending } = &mut *state;
        let mut scratch = Vec::with_capacity(self.cols.len());
        let buckets = match buckets {
            Some(buckets) => {
                for (t, m) in pending.drain(..) {
                    set(buckets, &self.cols, &t, m, &mut scratch);
                }
                buckets
            }
            None => {
                let mut built = Buckets::default();
                for (t, m) in bag.iter() {
                    set(&mut built, &self.cols, t, m, &mut scratch);
                }
                buckets.insert(built)
            }
        };
        let mut n = 0;
        for (i, key) in keys.enumerate() {
            n += 1;
            if let Some(b) = buckets.get(key) {
                b.each(|t, m| found(i, t, m));
            }
        }
        self.probes.fetch_add(n, Ordering::Relaxed);
    }

    fn stats(&self) -> IndexStats {
        let entries = self.state.lock().buckets.as_ref().map_or(0, |b| b.len());
        IndexStats {
            cols: self.cols.to_vec(),
            entries: entries as u64,
            probes: self.probes.load(Ordering::Relaxed),
        }
    }
}

/// Set the multiplicity of `stored`, one of the bag's own tuples, to `m`
/// in `buckets`, keyed on `cols`.
fn set(buckets: &mut Buckets, cols: &[usize], stored: &Tuple, m: u64, scratch: &mut Vec<Value>) {
    if !normalize_key_into(stored, cols, scratch) {
        return;
    }
    let key = scratch.as_slice();
    let emptied = match buckets.get_mut(key) {
        Some(b) => b.set(stored, m),
        None if m > 0 => {
            let key = match key {
                [v] => Key::One(v.clone()),
                vs => Key::Many(vs.into()),
            };
            buckets.insert(key, Bucket::One(stored.clone(), m));
            false
        }
        None => false,
    };
    if emptied {
        buckets.remove(key);
    }
}

/// The indexes kept over one table's bag.
#[derive(Debug, Default)]
pub(crate) struct Indexes(Vec<KeyIndex>);

impl Indexes {
    /// The index on `cols`, when a view registered one.
    pub(crate) fn get(&self, cols: &[usize]) -> Option<&KeyIndex> {
        self.0.iter().find(|ix| *ix.cols == *cols)
    }

    /// Count one more view needing the index on `cols`.
    pub(crate) fn register(&mut self, cols: &[usize]) {
        match self.0.iter_mut().find(|ix| *ix.cols == *cols) {
            Some(ix) => ix.views += 1,
            None => {
                let mut ix = KeyIndex::new(cols);
                ix.views = 1;
                self.0.push(ix);
            }
        }
    }

    /// Count one view fewer; the index goes with the last one.
    pub(crate) fn release(&mut self, cols: &[usize]) {
        if let Some(at) = self.0.iter().position(|ix| *ix.cols == *cols) {
            self.0[at].views -= 1;
            if self.0[at].views == 0 {
                self.0.swap_remove(at);
            }
        }
    }

    /// Note for every built index that `stored`, the bag's own tuple, now
    /// occurs `m` times (0: it left the bag). Fed by
    /// [`Bag::apply_delta_observed`]; the next probe folds it in.
    pub(crate) fn record(&mut self, stored: &Tuple, m: u64) {
        for ix in &mut self.0 {
            let state = ix.state.get_mut();
            if state.buckets.is_some() {
                state.pending.push((stored.clone(), m));
            }
        }
    }

    /// Unbuild every index whose notes outnumber the `distinct` tuples a
    /// rebuild would read: an unprobed table stops growing them.
    pub(crate) fn trim(&mut self, distinct: usize) {
        for ix in &mut self.0 {
            let state = ix.state.get_mut();
            if state.pending.len() > distinct.max(16) {
                *state = State::default();
            }
        }
    }

    /// Drop every built index; each rebuilds on its next probe.
    pub(crate) fn reset(&mut self) {
        for ix in &mut self.0 {
            *ix.state.get_mut() = State::default();
        }
    }

    /// Counters of every registered index.
    pub(crate) fn stats(&self) -> Vec<IndexStats> {
        self.0.iter().map(KeyIndex::stats).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn bag() -> Bag {
        let mut b = Bag::new();
        b.insert_n(tuple![1, 10], 2);
        b.insert(tuple![1, 11]);
        b.insert(tuple![2, 20]);
        b.insert(Tuple::new(vec![Value::Null, Value::Int(30)]));
        b
    }

    /// What the index on column 0 holds under the key `v`, as a bag.
    fn find(ix: &Indexes, b: &Bag, v: &Value) -> Bag {
        let key = [v.clone()];
        let mut out = Bag::new();
        ix.get(&[0])
            .unwrap()
            .lookup(b, &mut std::iter::once(&key[..]), &mut |_, t, m| {
                out.insert_n(t.clone(), m)
            });
        out
    }

    fn apply(b: &mut Bag, ix: &mut Indexes, del: &Bag, ins: &Bag) {
        b.apply_delta_observed(del, ins, |t, m| ix.record(t, m));
    }

    #[test]
    fn unregistered_columns_have_no_index() {
        let mut ix = Indexes::default();
        ix.register(&[0]);
        assert!(ix.get(&[1]).is_none());
        assert!(ix.get(&[0]).is_some());
    }

    #[test]
    fn built_on_first_probe_with_int_keys_as_doubles_and_no_nulls() {
        let b = bag();
        let mut ix = Indexes::default();
        ix.register(&[0]);
        assert_eq!(ix.stats()[0].entries, 0, "unbuilt until probed");
        assert_eq!(find(&ix, &b, &Value::Double(1.0)).len(), 3);
        assert_eq!(find(&ix, &b, &Value::Double(2.0)).len(), 1);
        assert!(
            find(&ix, &b, &Value::Int(1)).is_empty(),
            "keys are normalized"
        );
        let s = &ix.stats()[0];
        assert_eq!((s.entries, s.probes), (2, 3), "NULL keys are not indexed");
    }

    #[test]
    fn noted_changes_are_folded_in_by_the_next_probe() {
        let mut b = bag();
        let mut ix = Indexes::default();
        ix.register(&[0]);
        find(&ix, &b, &Value::Double(1.0));
        let del = Bag::from_tuples([tuple![1, 10], tuple![2, 20]]);
        let ins = Bag::from_tuples([tuple![3, 30], tuple![1, 10]]);
        apply(&mut b, &mut ix, &del, &ins);
        assert_eq!(ix.0[0].state.lock().pending.len(), 4, "noted, not applied");
        let one = find(&ix, &b, &Value::Double(1.0));
        assert_eq!(one.multiplicity(&tuple![1, 10]), 2);
        assert!(find(&ix, &b, &Value::Double(2.0)).is_empty());
        assert_eq!(ix.stats()[0].entries, 2, "an emptied key goes");
        assert_eq!(find(&ix, &b, &Value::Double(3.0)).len(), 1);
    }

    #[test]
    fn a_hot_key_fills_and_empties() {
        let mut b = Bag::new();
        let mut ix = Indexes::default();
        ix.register(&[0]);
        find(&ix, &b, &Value::Double(7.0));
        let rows: Bag = (0..50i64).map(|i| tuple![7, i]).collect();
        apply(&mut b, &mut ix, &Bag::new(), &rows);
        assert_eq!(find(&ix, &b, &Value::Double(7.0)), rows);
        apply(&mut b, &mut ix, &rows, &Bag::new());
        assert!(find(&ix, &b, &Value::Double(7.0)).is_empty());
        assert_eq!(ix.stats()[0].entries, 0, "the emptied key goes");
    }

    #[test]
    fn notes_past_a_rebuild_unbuild_and_reset_unbuilds() {
        let mut b = bag();
        let mut ix = Indexes::default();
        ix.register(&[0]);
        ix.register(&[0]);
        find(&ix, &b, &Value::Double(1.0));
        let many: Bag = (0..20i64).map(|i| tuple![i, i]).collect();
        apply(&mut b, &mut ix, &Bag::new(), &many);
        ix.trim(b.distinct_len());
        assert_eq!(ix.0[0].state.lock().pending.len(), 20, "under a rebuild");
        apply(&mut b, &mut ix, &many, &Bag::new());
        ix.trim(b.distinct_len());
        assert!(
            ix.0[0].state.lock().buckets.is_none(),
            "notes outgrew a rebuild"
        );
        assert_eq!(find(&ix, &b, &Value::Double(1.0)).len(), 3, "rebuilt");
        ix.reset();
        assert_eq!(ix.stats()[0].entries, 0);
        ix.release(&[0]);
        assert_eq!(ix.stats().len(), 1, "one view still needs it");
        ix.release(&[0]);
        assert!(ix.stats().is_empty());
    }
}
