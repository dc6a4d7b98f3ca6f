//! # dvm-storage — bag-relational storage engine
//!
//! The substrate under the deferred-view-maintenance reproduction of
//! *Colby, Griffin, Libkin, Mumick, Trickey, "Algorithms for Deferred View
//! Maintenance" (SIGMOD 1996)*.
//!
//! The paper assumes a relational engine with SQL **duplicate (bag)
//! semantics**: database states map table names to finite bags of tuples
//! (Section 2.1). This crate provides exactly that:
//!
//! * [`value::Value`] / [`tuple::Tuple`] — typed scalar values and immutable
//!   reference-counted rows;
//! * [`bag::Bag`] — multisets with native `⊎`, `∸`, `min`, `max`, `×`, `σ`,
//!   `Π`, `ε`;
//! * [`schema::Schema`] — named, typed, optionally qualified columns;
//! * [`table::Table`] — schema-validated bags behind instrumented RW locks
//!   (write-hold time = the paper's *view downtime*), with the
//!   [`index::KeyIndex`]es their views' joins probe;
//! * [`catalog::Catalog`] — the database state, with deep
//!   [`snapshot::Snapshot`]s for cross-state verification and checkpointing.

#![warn(missing_docs)]

pub mod bag;
pub mod catalog;
pub mod codec;
pub mod error;
pub mod hasher;
pub mod index;
pub mod lock;
pub mod schema;
pub mod snapshot;
pub mod stats;
pub mod table;
pub mod tuple;
pub mod value;

pub use bag::{compose_delta_parallel, Bag};
pub use catalog::{Catalog, CommitMode};
pub use error::{Result, StorageError};
pub use hasher::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use index::{normalize_key_into, IndexStats, KeyIndex};
pub use schema::{Column, Schema};
pub use snapshot::Snapshot;
pub use table::{CommitGuard, Stored, Table, TableKind};
pub use tuple::Tuple;
pub use value::{Value, ValueType};

#[cfg(test)]
mod proptests {
    //! Property tests for the algebraic laws the paper relies on
    //! (commutativity/associativity of ⊎, the monus identities behind
    //! `min`/`max`, and the cancellation shape of Lemma 1 at the bag level),
    //! run on the in-workspace `dvm-testkit` shrinking harness.

    use crate::bag::Bag;
    use crate::tuple::Tuple;
    use crate::value::Value;
    use dvm_testkit::{Prop, Rng};

    fn arb_bag(rng: &mut Rng) -> Bag {
        let mut b = Bag::new();
        for _ in 0..rng.below(8) {
            b.insert_n(
                Tuple::new(vec![Value::Int(rng.range(0, 6))]),
                1 + rng.below(3),
            );
        }
        b
    }

    #[test]
    fn union_commutative() {
        Prop::new("union_commutative").run(|rng| {
            let (a, b) = (arb_bag(rng), arb_bag(rng));
            assert_eq!(a.union(&b), b.union(&a));
        });
    }

    #[test]
    fn union_associative() {
        Prop::new("union_associative").run(|rng| {
            let (a, b, c) = (arb_bag(rng), arb_bag(rng), arb_bag(rng));
            assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        });
    }

    #[test]
    fn monus_identity_and_annihilation() {
        Prop::new("monus_identity_and_annihilation").run(|rng| {
            let a = arb_bag(rng);
            assert_eq!(a.monus(&Bag::new()), a.clone());
            assert!(Bag::new().monus(&a).is_empty());
            assert!(a.monus(&a).is_empty());
        });
    }

    #[test]
    fn min_via_double_monus() {
        Prop::new("min_via_double_monus").run(|rng| {
            // Q1 min Q2 = Q1 ∸ (Q1 ∸ Q2)  (Section 2.1)
            let (a, b) = (arb_bag(rng), arb_bag(rng));
            assert_eq!(a.min_intersect(&b), a.monus(&a.monus(&b)));
        });
    }

    #[test]
    fn max_via_union_monus() {
        Prop::new("max_via_union_monus").run(|rng| {
            // Q1 max Q2 = Q1 ⊎ (Q2 ∸ Q1)  (Section 2.1)
            let (a, b) = (arb_bag(rng), arb_bag(rng));
            assert_eq!(a.max_union(&b), a.union(&b.monus(&a)));
        });
    }

    #[test]
    fn union_then_monus_cancels() {
        Prop::new("union_then_monus_cancels").run(|rng| {
            // (A ⊎ B) ∸ B = A
            let (a, b) = (arb_bag(rng), arb_bag(rng));
            assert_eq!(a.union(&b).monus(&b), a);
        });
    }

    #[test]
    fn cancellation_lemma_bag_level() {
        Prop::new("cancellation_lemma_bag_level").run(|rng| {
            // Lemma 1: if N = (O ∸ D) ⊎ I then O = (N ∸ I) ⊎ (O min D),
            // for arbitrary bags (no minimality restriction needed).
            let (o, d, i) = (arb_bag(rng), arb_bag(rng), arb_bag(rng));
            let n = o.monus(&d).union(&i);
            let restored = n.monus(&i).union(&o.min_intersect(&d));
            assert_eq!(restored, o);
        });
    }

    #[test]
    fn apply_delta_matches_formula() {
        Prop::new("apply_delta_matches_formula").run(|rng| {
            let (o, d, i) = (arb_bag(rng), arb_bag(rng), arb_bag(rng));
            let mut applied = o.clone();
            applied.apply_delta(&d, &i);
            assert_eq!(applied, o.monus(&d).union(&i));
        });
    }

    #[test]
    fn subbag_of_union() {
        Prop::new("subbag_of_union").run(|rng| {
            let (a, b) = (arb_bag(rng), arb_bag(rng));
            assert!(a.is_subbag_of(&a.union(&b)));
            assert!(a.monus(&b).is_subbag_of(&a));
            assert!(a.min_intersect(&b).is_subbag_of(&a));
            assert!(a.is_subbag_of(&a.max_union(&b)));
        });
    }

    #[test]
    fn product_distributes_over_union() {
        Prop::new("product_distributes_over_union").run(|rng| {
            // A × (B ⊎ C) = (A × B) ⊎ (A × C)
            let (a, b, c) = (arb_bag(rng), arb_bag(rng), arb_bag(rng));
            assert_eq!(a.product(&b.union(&c)), a.product(&b).union(&a.product(&c)));
        });
    }

    #[test]
    fn dedup_idempotent() {
        Prop::new("dedup_idempotent").run(|rng| {
            let a = arb_bag(rng);
            assert_eq!(a.dedup().dedup(), a.dedup());
        });
    }

    #[test]
    fn snapshot_roundtrip() {
        Prop::new("snapshot_roundtrip").run(|rng| {
            use std::collections::BTreeMap;
            let mut bags = BTreeMap::new();
            bags.insert("r".to_string(), arb_bag(rng));
            bags.insert("s".to_string(), arb_bag(rng));
            let snap = crate::snapshot::Snapshot::from_bags(bags);
            assert_eq!(
                crate::snapshot::Snapshot::decode(snap.encode()).unwrap(),
                snap
            );
        });
    }
}
