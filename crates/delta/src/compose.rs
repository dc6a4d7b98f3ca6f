//! The weakly minimal composition lemma (**Lemma 3**).
//!
//! Two sequential updates fold into one:
//!
//! ```text
//! If   D1 ⊑ O  and  D2 ⊑ (O ∸ D1) ⊎ I1,
//! let  D3 = D1 ⊎ (D2 ∸ I1)   and   I3 = (I1 ∸ D2) ⊎ I2.
//! Then (a) (((O ∸ D1) ⊎ I1) ∸ D2) ⊎ I2 ≡ (O ∸ D3) ⊎ I3
//!      (b) D3 ⊑ O.
//! ```
//!
//! This is the engine behind every "accumulate changes" step in Figure 3:
//! extending a log with a new transaction's changes (`makesafe_BL`), folding
//! a transaction's incremental queries into view differential tables
//! (`makesafe_DT`), and folding logged changes into differential tables
//! (`propagate_C`).

use dvm_storage::Bag;

/// Fold a second update `(d2, i2)` into an accumulated update `(d1, i1)`,
/// mutating the accumulator in place:
///
/// ```text
/// d1 := d1 ⊎ (d2 ∸ i1)
/// i1 := (i1 ∸ d2) ⊎ i2
/// ```
///
/// The order of the two assignments matters: the new `d1` needs the *old*
/// `i1`, so we compute `d2 ∸ i1` before updating `i1`.
pub fn compose_into(d1: &mut Bag, i1: &mut Bag, d2: &Bag, i2: &Bag) {
    let carried_deletes = d2.monus(i1);
    i1.monus_assign(d2);
    i1.union_assign(i2);
    d1.union_assign(&carried_deletes);
}

/// Non-mutating form of [`compose_into`], returning `(d3, i3)`.
pub fn compose(d1: &Bag, i1: &Bag, d2: &Bag, i2: &Bag) -> (Bag, Bag) {
    let mut d = d1.clone();
    let mut i = i1.clone();
    compose_into(&mut d, &mut i, d2, i2);
    (d, i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_algebra::testgen::{Rng, Universe};
    use dvm_storage::tuple;

    fn b(items: &[(i64, u64)]) -> Bag {
        let mut bag = Bag::new();
        for &(v, m) in items {
            bag.insert_n(tuple![v], m);
        }
        bag
    }

    #[test]
    fn lemma3_shape_on_example() {
        // O = {1,2}; first delete 1 insert 3; then delete 3 insert 4.
        let o = b(&[(1, 1), (2, 1)]);
        let (d1, i1) = (b(&[(1, 1)]), b(&[(3, 1)]));
        let (d2, i2) = (b(&[(3, 1)]), b(&[(4, 1)]));
        let (d3, i3) = compose(&d1, &i1, &d2, &i2);
        // 3 was inserted then deleted: cancels inside the composition.
        assert_eq!(d3, b(&[(1, 1)]));
        assert_eq!(i3, b(&[(4, 1)]));
        let sequential = o.monus(&d1).union(&i1).monus(&d2).union(&i2);
        let composed = o.monus(&d3).union(&i3);
        assert_eq!(sequential, composed);
        assert!(d3.is_subbag_of(&o), "Lemma 3(b)");
    }

    #[test]
    fn compose_with_empty_is_identity() {
        let (d1, i1) = (b(&[(1, 2)]), b(&[(2, 1)]));
        let (d3, i3) = compose(&d1, &i1, &Bag::new(), &Bag::new());
        assert_eq!(d3, d1);
        assert_eq!(i3, i1);
        let (d3, i3) = compose(&Bag::new(), &Bag::new(), &d1, &i1);
        assert_eq!(d3, d1);
        assert_eq!(i3, i1);
    }

    #[test]
    fn lemma3_randomized() {
        // For random O and updates satisfying the side conditions, check
        // (a) equality of sequential vs composed application and (b) D3 ⊑ O.
        let u = Universe::small(1);
        let mut rng = Rng::new(31);
        for _ in 0..500 {
            let o = u.bag(&mut rng, 6);
            // D1 ⊑ O
            let d1 = u.bag(&mut rng, 6).min_intersect(&o);
            let i1 = u.bag(&mut rng, 4);
            let mid = o.monus(&d1).union(&i1);
            // D2 ⊑ (O ∸ D1) ⊎ I1
            let d2 = u.bag(&mut rng, 6).min_intersect(&mid);
            let i2 = u.bag(&mut rng, 4);
            let (d3, i3) = compose(&d1, &i1, &d2, &i2);
            let sequential = mid.monus(&d2).union(&i2);
            let composed = o.monus(&d3).union(&i3);
            assert_eq!(sequential, composed, "Lemma 3(a)");
            assert!(d3.is_subbag_of(&o), "Lemma 3(b)");
        }
    }

    #[test]
    fn compose_is_associative_on_application() {
        // Folding (u2 then u3) into u1 equals folding u2 into u1 then u3.
        let u = Universe::small(1);
        let mut rng = Rng::new(77);
        for _ in 0..200 {
            let o = u.bag(&mut rng, 6);
            let d1 = u.bag(&mut rng, 4).min_intersect(&o);
            let i1 = u.bag(&mut rng, 4);
            let s1 = o.monus(&d1).union(&i1);
            let d2 = u.bag(&mut rng, 4).min_intersect(&s1);
            let i2 = u.bag(&mut rng, 4);
            let s2 = s1.monus(&d2).union(&i2);
            let d3 = u.bag(&mut rng, 4).min_intersect(&s2);
            let i3 = u.bag(&mut rng, 4);

            // left association
            let (da, ia) = compose(&d1, &i1, &d2, &i2);
            let (da, ia) = compose(&da, &ia, &d3, &i3);
            // right association
            let (db, ib) = compose(&d2, &i2, &d3, &i3);
            let (db, ib) = compose(&d1, &i1, &db, &ib);
            assert_eq!(
                o.monus(&da).union(&ia),
                o.monus(&db).union(&ib),
                "compositions must agree on application"
            );
        }
    }

    #[test]
    fn compose_into_matches_compose() {
        let (d1, i1) = (b(&[(1, 2), (2, 1)]), b(&[(3, 2)]));
        let (d2, i2) = (b(&[(3, 1), (2, 1)]), b(&[(5, 1)]));
        let (d_expected, i_expected) = compose(&d1, &i1, &d2, &i2);
        let mut d = d1.clone();
        let mut i = i1.clone();
        compose_into(&mut d, &mut i, &d2, &i2);
        assert_eq!(d, d_expected);
        assert_eq!(i, i_expected);
    }
}
