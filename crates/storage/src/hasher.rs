//! A hand-rolled FxHash-style hasher — the workspace's fast, hermetic
//! replacement for std's SipHash on the maintenance hot path.
//!
//! Every bag operation hashes tuples; with std's default `RandomState`
//! (SipHash-1-3) that hashing dominates selective change-query evaluation.
//! This module reimplements the multiply-rotate scheme popularized by
//! Firefox and rustc (`FxHasher`): state is folded with
//! `rotate_left(5) ^ chunk` then multiplied by a 64-bit constant with good
//! bit dispersion. It is **not** DoS-resistant — there is no random seed,
//! and an adversary who controls tuple values can construct collisions.
//! That trade-off is deliberate here: bags are internal maintenance state
//! (logs, differential tables, build tables), not an internet-facing hash
//! table. See DESIGN.md §11 for the full discussion.
//!
//! Zero dependencies; `FxHashMap`/`FxHashSet` are plain std collections
//! with the hasher plugged in, so every `HashMap` API works unchanged.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from the FxHash family: a 64-bit constant with no
/// obvious structure and a roughly even bit distribution, chosen so that
/// `wrapping_mul` diffuses low-order entropy into the high bits that
/// `HashMap` uses for bucket selection.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Rotation applied before each fold; 5 keeps consecutive small integers
/// from cancelling in the multiply.
const ROTATE: u32 = 5;

/// A fast, non-cryptographic, non-DoS-resistant hasher.
///
/// Deterministic across processes and runs (no random state), so plan
/// fingerprints computed at one time compare equal at another.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// A hasher starting from an explicit state — used to derive
    /// independent fingerprints from one canonical encoding (plan
    /// fingerprints combine two differently-seeded hashes into 128 bits).
    pub fn with_seed(seed: u64) -> Self {
        FxHasher { hash: seed }
    }

    #[inline]
    fn fold(&mut self, chunk: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ chunk).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // 8-byte chunks, then a length-tagged tail so `"ab" + "c"` and
        // `"a" + "bc"` (same bytes, different write boundaries from the
        // same logical value) still agree, while values of different
        // lengths diverge.
        let mut rest = bytes;
        while rest.len() >= 8 {
            let (head, tail) = rest.split_at(8);
            self.fold(u64::from_le_bytes(head.try_into().expect("8-byte head")));
            rest = tail;
        }
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(tail));
            self.fold(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.fold(i as u64);
        self.fold((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s (zero-sized, `Default`).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hashers() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
        assert_eq!(hash_of(&vec![1i64, 2, 3]), hash_of(&vec![1i64, 2, 3]),);
    }

    #[test]
    fn different_inputs_diverge() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
        assert_ne!(hash_of(&""), hash_of(&"\0"), "length tag separates");
    }

    #[test]
    fn byte_boundary_independence_within_one_write() {
        // A 9-byte string exercises the chunk + tail path.
        let long = "abcdefghi";
        assert_eq!(hash_of(&long), hash_of(&long));
        assert_ne!(hash_of(&"abcdefgh"), hash_of(&long));
    }

    #[test]
    fn seeded_hashes_are_independent() {
        let seeded = |seed| {
            let mut h = FxHasher::with_seed(seed);
            7u64.hash(&mut h);
            h.finish()
        };
        assert_ne!(seeded(0), seeded(0x9e37_79b9_7f4a_7c15));
        assert_eq!(seeded(0), seeded(0));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(format!("key-{i}"), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m["key-517"], 517);
        let s: FxHashSet<u32> = (0..100).collect();
        assert!(s.contains(&99));
    }

    #[test]
    fn small_int_distribution_not_degenerate() {
        // Consecutive integers must not collapse into few buckets: check
        // that the low 6 bits of the hashes of 0..64 take many values.
        let mut buckets = FxHashSet::default();
        for i in 0..64u64 {
            buckets.insert(hash_of(&i) & 0x3f);
        }
        assert!(
            buckets.len() > 32,
            "only {} distinct buckets",
            buckets.len()
        );
    }

    #[test]
    fn tuple_hash_matches_between_vec_and_slice() {
        // `HashMap<Vec<V>, _>` probed with `&[V]` via `Borrow` requires the
        // two Hash impls to agree; std guarantees Vec hashes as its slice.
        let v: Vec<u64> = vec![1, 2, 3];
        assert_eq!(hash_of(&v), hash_of(&v.as_slice()));
    }
}
