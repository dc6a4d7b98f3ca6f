//! The weakly minimal differential algorithm of **Figure 2**.
//!
//! Given a factored substitution `η` (every table mapped to
//! `(R ∸ D) ⊎ A`), the mutually recursive `Del`/`Add` generators
//! produce queries satisfying **Theorem 2**:
//!
//! ```text
//! (a) η(Q) ≡ (Q ∸ Del(η,Q)) ⊎ Add(η,Q)
//! (b) Del(η,Q) ⊑ Q              (weak minimality)
//! ```
//!
//! provided `η` is weakly minimal (`D_i ⊑ R_i` in the evaluation state).
//! All sub-expressions are evaluated in the *same* state as the equation —
//! the rules are purely syntactic, which is what lets Section 4 reuse them
//! in both the pre-update direction (`η = T̂`) and, via the cancellation
//! lemma, the post-update direction (`η = L̂`).
//!
//! Rules (Figure 2), with `D(E) = Del(η,E)`, `A(E) = Add(η,E)`:
//!
//! ```text
//! D(R)      = D_R                          A(R)      = A_R
//! D(φ|{x})  = φ                            A(φ|{x})  = φ
//! D(σp E)   = σp(D E)                      A(σp E)   = σp(A E)
//! D(Π E)    = Π(D E)                       A(Π E)    = Π(A E)
//! D(ε E)    = ε(D E) ∸ (E ∸ D E)           A(ε E)    = ε(A E) ∸ (E ∸ D E)
//! D(E ⊎ F)  = D E ⊎ D F                    A(E ⊎ F)  = A E ⊎ A F
//! D(E ∸ F)  = (D E ⊎ A F) min (E ∸ F)
//! A(E ∸ F)  = ((A E ⊎ D F) ∸ (F ∸ E)) ∸ ((D E ⊎ A F) ∸ (E ∸ F))
//! D(E × F)  = (D E × D F) ⊎ (D E × (F ∸ D F)) ⊎ ((E ∸ D E) × D F)
//! A(E × F)  = (A E × A F) ⊎ (A E × (F ∸ D F)) ⊎ ((E ∸ D E) × A F)
//! ```
//!
//! Derived operators (`min`, `max`, `EXCEPT`) are expanded into the core
//! grammar first; `Alias` commutes with both functions.

use crate::error::Result;
use dvm_algebra::infer::{infer_schema, SchemaProvider};
use dvm_algebra::simplify::simplify;
use dvm_algebra::subst::FactoredSubstitution;
use dvm_algebra::Expr;

/// A delete/insert pair of incremental queries.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaPair {
    /// The deletions (`Del(η,Q)`).
    pub del: Expr,
    /// The insertions (`Add(η,Q)`).
    pub add: Expr,
}

impl DeltaPair {
    /// Total AST size of both queries (experiment metric).
    pub fn size(&self) -> usize {
        self.del.size() + self.add.size()
    }
}

/// Compute `Del(η,Q)` and `Add(η,Q)`, expanding derived operators first and
/// φ-simplifying the results.
///
/// Simplification is semantics-preserving, so Theorem 2 holds for the
/// returned pair; it is also what makes the pair *incremental*: terms that
/// only mention unchanged tables collapse to `φ`.
pub fn differentiate(
    q: &Expr,
    eta: &FactoredSubstitution,
    provider: &dyn SchemaProvider,
) -> Result<DeltaPair> {
    let raw = differentiate_raw(q, eta, provider)?;
    Ok(DeltaPair {
        del: simplify(&raw.del, provider)?,
        add: simplify(&raw.add, provider)?,
    })
}

/// Compute `Del(η,Q)` / `Add(η,Q)` exactly as written in Figure 2, with no
/// simplification (useful for inspecting the rules themselves).
pub fn differentiate_raw(
    q: &Expr,
    eta: &FactoredSubstitution,
    provider: &dyn SchemaProvider,
) -> Result<DeltaPair> {
    let schema_of = |e: &Expr| infer_schema(e, provider);
    let expanded = q.expand_derived(&schema_of)?;
    del_add(&expanded, eta, provider)
}

/// The mutually recursive core. Returns both queries at once: the binary
/// rules need `Del` and `Add` of both children, so computing them together
/// avoids exponential recomputation.
fn del_add(
    q: &Expr,
    eta: &FactoredSubstitution,
    provider: &dyn SchemaProvider,
) -> Result<DeltaPair> {
    Ok(match q {
        Expr::Table(name) => match eta.get(name) {
            Some((d, a)) => DeltaPair {
                del: d.clone(),
                add: a.clone(),
            },
            None => {
                let schema = provider.schema_of(name)?;
                DeltaPair {
                    del: Expr::empty(schema.clone()),
                    add: Expr::empty(schema),
                }
            }
        },
        Expr::Literal { schema, .. } => DeltaPair {
            del: Expr::empty(schema.clone()),
            add: Expr::empty(schema.clone()),
        },
        Expr::Alias { alias, input } => {
            let p = del_add(input, eta, provider)?;
            DeltaPair {
                del: p.del.alias(alias.clone()),
                add: p.add.alias(alias.clone()),
            }
        }
        Expr::Select { pred, input } => {
            let p = del_add(input, eta, provider)?;
            DeltaPair {
                del: p.del.select(pred.clone()),
                add: p.add.select(pred.clone()),
            }
        }
        Expr::Project { cols, input } => {
            let p = del_add(input, eta, provider)?;
            DeltaPair {
                del: p.del.project_refs(cols.clone()),
                add: p.add.project_refs(cols.clone()),
            }
        }
        Expr::DupElim(e) => {
            let p = del_add(e, eta, provider)?;
            // E ∸ Del(η,E): what survives the deletions.
            let survivors = (**e).clone().monus(p.del.clone());
            DeltaPair {
                del: p.del.dedup().monus(survivors.clone()),
                add: p.add.dedup().monus(survivors),
            }
        }
        Expr::Union(a, b) => {
            let pa = del_add(a, eta, provider)?;
            let pb = del_add(b, eta, provider)?;
            DeltaPair {
                del: pa.del.union(pb.del),
                add: pa.add.union(pb.add),
            }
        }
        Expr::Monus(a, b) => {
            let pa = del_add(a, eta, provider)?;
            let pb = del_add(b, eta, provider)?;
            let e = (**a).clone();
            let f = (**b).clone();
            // Del(E ∸ F) = (Del E ⊎ Add F) min (E ∸ F)
            let del = pa
                .del
                .clone()
                .union(pb.add.clone())
                .min_intersect(e.clone().monus(f.clone()));
            // Add(E ∸ F) = ((Add E ⊎ Del F) ∸ (F ∸ E)) ∸ ((Del E ⊎ Add F) ∸ (E ∸ F))
            let add = pa
                .add
                .union(pb.del)
                .monus(f.clone().monus(e.clone()))
                .monus(pa.del.union(pb.add).monus(e.monus(f)));
            DeltaPair { del, add }
        }
        Expr::Product(a, b) => {
            let pa = del_add(a, eta, provider)?;
            let pb = del_add(b, eta, provider)?;
            let e = (**a).clone();
            let f = (**b).clone();
            let e_surv = e.monus(pa.del.clone()); // E ∸ Del E
            let f_surv = f.monus(pb.del.clone()); // F ∸ Del F
            let del = pa
                .del
                .clone()
                .product(pb.del.clone())
                .union(pa.del.clone().product(f_surv.clone()))
                .union(e_surv.clone().product(pb.del));
            let add = pa
                .add
                .clone()
                .product(pb.add.clone())
                .union(pa.add.product(f_surv))
                .union(e_surv.product(pb.add));
            DeltaPair { del, add }
        }
        // Grouping aggregates are not term-wise differentiable: a single
        // input delta rewrites whole output rows (old group row out, new
        // group row in). The exact rule is the monus form
        //
        //   Del(G(E)) = G(E) ∸ G(η(E))      Add(G(E)) = G(η(E)) ∸ G(E)
        //
        // which satisfies Theorem 2 for *any* P = G(η(E)):
        // (Q ∸ (Q ∸ P)) ⊎ (P ∸ Q) = P pointwise, and (Q ∸ P) ⊑ Q.
        // When no table under the aggregate changed, both deltas are φ —
        // the guard keeps identity substitutions fully incremental. For a
        // changed aggregate the rule costs O(|E|): `G(E)` and `G(η(E))`
        // each once per maintenance call (the evaluator shares them
        // between Del and Add). It is the engine's path where nothing
        // holds `P` materialized: γ below a join/σ/Π, and the pre-update
        // `T̂` direction (Immediate, DiffTable makesafe). A log-keeping
        // view whose *root* is γ never reaches it. With invertible
        // aggregates it is counted: `CompiledDeltaProgram::compile_for_view`
        // differentiates `E` alone and the caller folds `(▼E, ▲E)` into the
        // per-group state `CountedGamma` keeps, in O(|Δ|). Otherwise
        // (MIN/MAX, DOUBLE arguments) its invariant holds `P = PAST(L,Q)`
        // as the view's own rows and the program is these two monus
        // queries over that.
        Expr::GroupAggregate { .. } => {
            let tables = q.tables();
            if !eta.tables().any(|t| tables.contains(t)) {
                let schema = infer_schema(q, provider)?;
                DeltaPair {
                    del: Expr::empty(schema.clone()),
                    add: Expr::empty(schema),
                }
            } else {
                let post = eta.apply(q);
                DeltaPair {
                    del: q.clone().monus(post.clone()),
                    add: post.monus(q.clone()),
                }
            }
        }
        // Derived operators are expanded before differentiation; reaching
        // one here is a caller error.
        Expr::MinIntersect(..) | Expr::MaxUnion(..) | Expr::Except(..) => {
            unreachable!("derived operators must be expanded before del_add")
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_algebra::eval::eval;
    use dvm_algebra::infer::compile;
    use dvm_algebra::testgen::{Rng, Universe};
    use dvm_storage::{tuple, Bag, Schema, ValueType};
    use std::collections::HashMap;

    fn schema_ab() -> Schema {
        Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Int)])
    }

    /// Check Theorem 2 on a concrete (state, query, substitution) instance.
    fn check_theorem2(
        q: &Expr,
        eta: &FactoredSubstitution,
        provider: &HashMap<String, Schema>,
        state: &HashMap<String, Bag>,
    ) {
        let pair = differentiate(q, eta, provider).unwrap();
        let q_val = eval(&compile(q, provider).unwrap().plan, state).unwrap();
        let del_val = eval(&compile(&pair.del, provider).unwrap().plan, state).unwrap();
        let add_val = eval(&compile(&pair.add, provider).unwrap().plan, state).unwrap();
        let eta_q = eta.apply(q);
        let eta_q_val = eval(&compile(&eta_q, provider).unwrap().plan, state).unwrap();
        assert_eq!(
            eta_q_val,
            q_val.monus(&del_val).union(&add_val),
            "Theorem 2(a) failed for {q}"
        );
        assert!(
            del_val.is_subbag_of(&q_val),
            "Theorem 2(b) Del ⊑ Q failed for {q}"
        );
    }

    #[test]
    fn unmapped_table_has_empty_deltas() {
        let u = Universe::small(2);
        let provider = u.provider();
        let eta = FactoredSubstitution::new();
        let pair = differentiate(&Expr::table("t0"), &eta, &provider).unwrap();
        assert!(pair.del.is_empty_literal());
        assert!(pair.add.is_empty_literal());
    }

    #[test]
    fn literal_has_empty_deltas() {
        let u = Universe::small(1);
        let provider = u.provider();
        let mut eta = FactoredSubstitution::new();
        eta.set(
            "t0",
            Expr::empty(schema_ab()),
            Expr::literal(Bag::singleton(tuple![1, 1]), schema_ab()),
        );
        let q = Expr::literal(Bag::singleton(tuple![2, 2]), schema_ab());
        let pair = differentiate(&q, &eta, &provider).unwrap();
        assert!(pair.del.is_empty_literal());
        assert!(pair.add.is_empty_literal());
    }

    #[test]
    fn table_rule_returns_d_and_a() {
        let u = Universe::small(1);
        let provider = u.provider();
        let d = Expr::literal(Bag::singleton(tuple![0, 0]), schema_ab());
        let a = Expr::literal(Bag::singleton(tuple![1, 1]), schema_ab());
        let mut eta = FactoredSubstitution::new();
        eta.set("t0", d.clone(), a.clone());
        let pair = differentiate(&Expr::table("t0"), &eta, &provider).unwrap();
        assert_eq!(pair.del, d);
        assert_eq!(pair.add, a);
    }

    #[test]
    fn example_1_2_join_multiplicities() {
        // Paper Example 1.2: U(A) = Π_{R.A}(σ_{R.B=S.B}(R × S)).
        // R = {[a1,b1]}, S = {[b2,c1]}, insert [a1,b2] into R and
        // [b2,c2] into S. Correct Δ (pre-update) is {[a1],[a1]}:
        // ΔR ⋈ S contributes one and ΔR ⋈ ΔS the other.
        let mut provider: HashMap<String, Schema> = HashMap::new();
        provider.insert(
            "R".into(),
            Schema::from_pairs(&[("A", ValueType::Str), ("B", ValueType::Str)]),
        );
        provider.insert(
            "S".into(),
            Schema::from_pairs(&[("B", ValueType::Str), ("C", ValueType::Str)]),
        );
        let q = Expr::table("R")
            .alias("r")
            .product(Expr::table("S").alias("s"))
            .select(dvm_algebra::Predicate::eq(
                dvm_algebra::col("r.B"),
                dvm_algebra::col("s.B"),
            ))
            .project(["A"]);

        let r_schema = provider["R"].clone();
        let s_schema = provider["S"].clone();
        let mut eta = FactoredSubstitution::new();
        eta.set(
            "R",
            Expr::empty(r_schema.clone()),
            Expr::literal(Bag::singleton(tuple!["a1", "b2"]), r_schema),
        );
        eta.set(
            "S",
            Expr::empty(s_schema.clone()),
            Expr::literal(Bag::singleton(tuple!["b2", "c2"]), s_schema),
        );

        let mut state: HashMap<String, Bag> = HashMap::new();
        state.insert("R".into(), Bag::singleton(tuple!["a1", "b1"]));
        state.insert("S".into(), Bag::singleton(tuple!["b2", "c1"]));

        let pair = differentiate(&q, &eta, &provider).unwrap();
        let add_val = eval(&compile(&pair.add, &provider).unwrap().plan, &state).unwrap();
        // The paper's correct pre-update answer: {[a1], [a1]}.
        assert_eq!(add_val.multiplicity(&tuple!["a1"]), 2);
        assert_eq!(add_val.len(), 2);
        check_theorem2(&q, &eta, &provider, &state);
    }

    #[test]
    fn theorem2_on_paper_monus_example() {
        // Example 1.3: U = R ∸ S (the paper's U = R - S with no duplicates),
        // T deletes [b] from R and inserts it into S.
        let mut provider: HashMap<String, Schema> = HashMap::new();
        let s1 = Schema::from_pairs(&[("x", ValueType::Str)]);
        provider.insert("R".into(), s1.clone());
        provider.insert("S".into(), s1.clone());
        let q = Expr::table("R").monus(Expr::table("S"));
        let mut eta = FactoredSubstitution::new();
        eta.set(
            "R",
            Expr::literal(Bag::singleton(tuple!["b"]), s1.clone()),
            Expr::empty(s1.clone()),
        );
        eta.set(
            "S",
            Expr::empty(s1.clone()),
            Expr::literal(Bag::singleton(tuple!["b"]), s1.clone()),
        );
        let mut state: HashMap<String, Bag> = HashMap::new();
        state.insert(
            "R".into(),
            Bag::from_tuples([tuple!["a"], tuple!["b"], tuple!["c"]]),
        );
        state.insert("S".into(), Bag::from_tuples([tuple!["c"], tuple!["d"]]));
        // Pre-update evaluation must delete [b] from the view.
        let pair = differentiate(&q, &eta, &provider).unwrap();
        let del_val = eval(&compile(&pair.del, &provider).unwrap().plan, &state).unwrap();
        assert_eq!(del_val, Bag::singleton(tuple!["b"]));
        check_theorem2(&q, &eta, &provider, &state);
    }

    #[test]
    fn dup_elim_delta() {
        // ε over a table where deleting one of two duplicates must NOT
        // remove the tuple from ε(R), but deleting both must.
        let u = Universe::small(1);
        let provider = u.provider();
        let mut state: HashMap<String, Bag> = HashMap::new();
        let mut r = Bag::new();
        r.insert_n(tuple![1, 1], 2);
        r.insert_n(tuple![2, 2], 1);
        state.insert("t0".into(), r);
        let q = Expr::table("t0").dedup();

        // delete one copy of [1,1]
        let mut eta = FactoredSubstitution::new();
        eta.set(
            "t0",
            Expr::literal(Bag::singleton(tuple![1, 1]), schema_ab()),
            Expr::empty(schema_ab()),
        );
        let pair = differentiate(&q, &eta, &provider).unwrap();
        let del_val = eval(&compile(&pair.del, &provider).unwrap().plan, &state).unwrap();
        assert!(del_val.is_empty(), "one surviving duplicate keeps ε entry");
        check_theorem2(&q, &eta, &provider, &state);

        // delete both copies
        let mut both = Bag::new();
        both.insert_n(tuple![1, 1], 2);
        let mut eta2 = FactoredSubstitution::new();
        eta2.set(
            "t0",
            Expr::literal(both, schema_ab()),
            Expr::empty(schema_ab()),
        );
        let pair2 = differentiate(&q, &eta2, &provider).unwrap();
        let del_val2 = eval(&compile(&pair2.del, &provider).unwrap().plan, &state).unwrap();
        assert_eq!(del_val2, Bag::singleton(tuple![1, 1]));
        check_theorem2(&q, &eta2, &provider, &state);
    }

    #[test]
    fn simplified_deltas_do_not_mention_unchanged_only_terms() {
        // A view over t0 ⊎ t1 where only t0 changes: the deltas must not
        // reference t1 at all after simplification.
        let u = Universe::small(2);
        let provider = u.provider();
        let q = Expr::table("t0").union(Expr::table("t1"));
        let mut eta = FactoredSubstitution::new();
        eta.set(
            "t0",
            Expr::empty(schema_ab()),
            Expr::literal(Bag::singleton(tuple![1, 1]), schema_ab()),
        );
        let pair = differentiate(&q, &eta, &provider).unwrap();
        assert!(!pair.del.tables().contains("t1"));
        assert!(!pair.add.tables().contains("t1"));
    }

    #[test]
    fn theorem2_randomized() {
        // Theorem 2 over 300 random (state, query, weakly minimal η).
        let u = Universe::small(3);
        let provider = u.provider();
        let mut rng = Rng::new(2024);
        for i in 0..300 {
            let state = u.state(&mut rng, 4);
            let q = u.expr(&mut rng, 2);
            let eta = u.weakly_minimal_subst(&mut rng, &state);
            let _ = i;
            check_theorem2(&q, &eta, &provider, &state);
        }
    }

    #[test]
    fn theorem2_randomized_deeper() {
        let u = Universe::small(2);
        let provider = u.provider();
        let mut rng = Rng::new(77);
        for _ in 0..60 {
            let state = u.state(&mut rng, 3);
            let q = u.expr(&mut rng, 3);
            let eta = u.weakly_minimal_subst(&mut rng, &state);
            check_theorem2(&q, &eta, &provider, &state);
        }
    }

    #[test]
    fn theorem2_on_aggregate_views_randomized() {
        // Theorem 2 for GroupAggregate views over 300 random instances
        // with NULL-bearing states: NULL group keys and NULL aggregate
        // arguments flow through the monus differential rule. States are
        // built from literal-safe tuples (NULLs but no Doubles) because η's
        // deletion deltas are sampled from the state as schema-checked
        // literals. EXCEPT-bearing queries are included: the semijoin
        // expansion now joins on null-safe `<=>`, matching the direct
        // operator's value identity on NULL rows (previously skipped).
        let u = Universe::mixed(3);
        let provider = u.provider();
        let mut rng = Rng::new(0x05EE_DA66);
        for _ in 0..300 {
            let state: HashMap<String, Bag> = u
                .tables
                .iter()
                .map(|t| (t.clone(), u.bag(&mut rng, 4)))
                .collect();
            let q = u.agg_expr(&mut rng, 2);
            let eta = u.weakly_minimal_subst(&mut rng, &state);
            check_theorem2(&q, &eta, &provider, &state);
        }
    }

    #[test]
    fn aggregate_over_unchanged_tables_has_empty_deltas() {
        let u = Universe::small(2);
        let provider = u.provider();
        let q = Expr::table("t0").group_aggregate(
            vec![dvm_algebra::ColRef::new("a")],
            vec![dvm_algebra::AggCall::count_star()],
        );
        // Only t1 changes: the aggregate over t0 must not be touched.
        let mut eta = FactoredSubstitution::new();
        eta.set(
            "t1",
            Expr::empty(schema_ab()),
            Expr::literal(Bag::singleton(tuple![1, 1]), schema_ab()),
        );
        let pair = differentiate(&q, &eta, &provider).unwrap();
        assert!(pair.del.is_empty_literal());
        assert!(pair.add.is_empty_literal());
    }

    #[test]
    fn raw_matches_simplified_semantics() {
        let u = Universe::small(2);
        let provider = u.provider();
        let mut rng = Rng::new(3);
        for _ in 0..100 {
            let state = u.state(&mut rng, 4);
            let q = u.expr(&mut rng, 2);
            let eta = u.weakly_minimal_subst(&mut rng, &state);
            let raw = differentiate_raw(&q, &eta, &provider).unwrap();
            let simp = differentiate(&q, &eta, &provider).unwrap();
            let raw_del = eval(&compile(&raw.del, &provider).unwrap().plan, &state).unwrap();
            let simp_del = eval(&compile(&simp.del, &provider).unwrap().plan, &state).unwrap();
            assert_eq!(raw_del, simp_del);
            let raw_add = eval(&compile(&raw.add, &provider).unwrap().plan, &state).unwrap();
            let simp_add = eval(&compile(&simp.add, &provider).unwrap().plan, &state).unwrap();
            assert_eq!(raw_add, simp_add);
            assert!(simp.size() <= raw.size(), "simplification never grows");
        }
    }

    #[test]
    fn identity_substitution_yields_empty_deltas_after_simplify() {
        let u = Universe::small(2);
        let provider = u.provider();
        let mut rng = Rng::new(8);
        for _ in 0..50 {
            let q = u.expr(&mut rng, 2);
            let eta = FactoredSubstitution::new();
            let pair = differentiate(&q, &eta, &provider).unwrap();
            assert!(
                pair.del.is_empty_literal(),
                "Del(id, {q}) should simplify to φ, got {}",
                pair.del
            );
            assert!(pair.add.is_empty_literal());
        }
    }
}
