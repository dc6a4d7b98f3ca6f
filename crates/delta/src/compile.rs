//! The delta-plan compiler: `Del`/`Add` change queries derived, simplified,
//! and plan-optimized **once per view**, then re-executed with the current
//! log bags bound as parameters — zero symbolic work in steady state.
//!
//! [`post_update_deltas_pruned`](crate::post_update_deltas_pruned) earns
//! its keep by replacing log tables that are empty *right now* with `φ`
//! before differentiation, so untouched tables vanish from the change
//! queries. A compile-once design must keep that property without
//! re-deriving per call, and the resolution here is an **activity-mask
//! keyed variant cache**: each subset of non-empty log tables gets its own
//! pruned, compiled `(▼, ▲)` plan pair, derived the first time that subset
//! is observed and a pure map lookup ever after. Steady workloads touch
//! one or two subsets (e.g. a sales-only stream always dirties exactly the
//! sales logs), so the cache converges immediately; the all-active variant
//! is compiled eagerly at view creation as the universal fallback.
//!
//! Masks are capped at 64 logged bases (two bits per base). Beyond that
//! the mask saturates to [`CompiledDeltaProgram::SATURATED`], which maps
//! every log table active — always *sound*, because substituting a log
//! table whose current contents are empty only loses pruning, never
//! changes the value of the change queries.
//!
//! A view whose invariant already materializes `P = PAST(L,Q)` — `MV`
//! under `INV_BL`, `(MV ∸ ∇MV) ⊎ ΔMV` under `INV_C` — can hand that
//! expression in ([`CompiledDeltaProgram::compile_for_view`]). The program
//! is then the exact pair `▼ = P ∸ Q`, `▲ = Q ∸ P`: nothing is
//! differentiated, no log table is scanned, and one variant serves every
//! non-zero mask.
//!
//! Such a view is instead *counted* ([`CountedGamma`]) when every aggregate
//! of its root `γ(E)` (or of a `γ` under a column permutation) is
//! invertible — `COUNT`, or `SUM`/`AVG` over INT: the program is `E`'s own
//! `(▼E, ▲E)`, folded by the caller into a count state `S ≡ G(PAST(L,E))`
//! whose touched groups' old and new rows are `P ∸ Q` / `Q ∸ P`, in
//! O(|▼E| + |▲E|). MIN/MAX and DOUBLE arguments keep `P ∸ Q`.

use crate::error::Result;
use crate::incremental::LogTables;
use crate::weak::differentiate;
use dvm_algebra::infer::{
    compile, compile_unoptimized, infer_schema, CompiledQuery, SchemaProvider,
};
use dvm_algebra::subst::FactoredSubstitution;
use dvm_algebra::{AggFunc, Expr, GroupAggregateState, Plan, SharedPlans};
use dvm_storage::{Bag, ValueType};
use dvm_testkit::sync::{Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::SystemTime;

/// One compiled `(▼, ▲)` plan pair for a specific set of active log
/// tables.
#[derive(Debug)]
pub struct CompiledDeltaVariant {
    /// The activity mask this variant was derived for.
    pub mask: u128,
    /// Compiled `▼(L,Q)` — what to remove.
    pub del: CompiledQuery,
    /// Compiled `▲(L,Q)` — what to add.
    pub ins: CompiledQuery,
    /// The subplans `del` and `ins` have in common, matched here once so
    /// that every execution evaluates each of them once
    /// ([`dvm_algebra::eval_pair`]).
    pub shared: SharedPlans,
    /// Total AST size of the derived change queries (diagnostics).
    pub expr_size: usize,
}

/// Counters and provenance of one [`CompiledDeltaProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaProgramStats {
    /// Variants compiled (symbolic derivations performed over the
    /// program's lifetime — stops growing once the workload's masks are
    /// all cached).
    pub compiles: u64,
    /// Parameter bindings (steady-state executions).
    pub binds: u64,
    /// Variant-cache hits (executions that did zero symbolic work).
    pub hits: u64,
    /// Variants currently cached.
    pub variants: u64,
    /// When the program was compiled.
    pub compiled_at: SystemTime,
}

#[derive(Debug)]
struct LogEntry {
    base: String,
    del_table: String,
    ins_table: String,
}

/// The counting rule of a view whose root `γ` (or a column permutation of
/// one) has only invertible aggregates — see the module docs. It owns `S`,
/// the count-annotated state of `G(PAST(L,E))`: derived, in memory only,
/// built by the first maintenance call and dropped with the program or by
/// any error.
#[derive(Debug)]
pub struct CountedGamma {
    input: Expr,
    keys: Vec<usize>,
    aggs: Vec<(AggFunc, Option<usize>)>,
    /// The `Π` over the `γ`, as `γ` output positions in view column order.
    perm: Option<Vec<usize>>,
    state: Mutex<Option<GroupAggregateState>>,
}

impl CountedGamma {
    /// The counting rule for `definition`, or `None` when it does not apply.
    fn of(definition: &Expr, provider: &dyn SchemaProvider) -> Result<Option<Self>> {
        let (gamma, cols) = match definition {
            Expr::Project { cols, input } => (&**input, Some(cols)),
            other => (other, None),
        };
        let Expr::GroupAggregate { input, .. } = gamma else {
            return Ok(None);
        };
        let compiled = compile_unoptimized(gamma, provider)?;
        let Plan::GroupAggregate { keys, aggs, .. } = compiled.plan else {
            unreachable!("γ compiles to a GroupAggregate plan");
        };
        let args = infer_schema(input, provider)?;
        let arg_ty = |arg: Option<usize>| arg.and_then(|i| args.column(i)).map(|c| c.ty);
        let invertible = aggs.iter().all(|&(func, arg)| match func {
            AggFunc::Count => true,
            AggFunc::Sum | AggFunc::Avg => arg_ty(arg) == Some(ValueType::Int),
            AggFunc::Min | AggFunc::Max => false,
        });
        let mut perm = Vec::new();
        for c in cols.into_iter().flatten() {
            perm.push(compiled.schema.resolve(c.qualifier.as_deref(), &c.name)?);
        }
        // A Π that drops a column merges groups: only a permutation counts.
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        let arity = compiled.schema.arity();
        if !invertible || cols.is_some() && !sorted.into_iter().eq(0..arity) {
            return Ok(None);
        }
        Ok(Some(CountedGamma {
            input: (**input).clone(),
            keys,
            aggs,
            perm: cols.map(|_| perm),
            state: Mutex::new(None),
        }))
    }

    /// `E`, the input of the `γ` — what the program's variants differentiate.
    pub fn input(&self) -> &Expr {
        &self.input
    }

    /// The state of `γ` over the input value `input`, in one pass.
    pub fn build(&self, input: &Bag) -> GroupAggregateState {
        GroupAggregateState::from_bag(self.keys.clone(), self.aggs.clone(), input)
    }

    /// The view rows state `s` stands for: `P`, while `s` is `S`.
    pub fn render(&self, s: &GroupAggregateState) -> Bag {
        self.permuted(s.render())
    }

    /// Fold the input change `(▼E, ▲E)` into `s`: the view's `(▼, ▲)` and
    /// the number of groups touched. On `Err`, discard `s`.
    pub fn fold(
        &self,
        s: &mut GroupAggregateState,
        del: &Bag,
        ins: &Bag,
    ) -> Result<(Bag, Bag, usize)> {
        let (old, new, touched) = s.fold(del, ins)?;
        Ok((self.permuted(old), self.permuted(new), touched))
    }

    /// [`fold`](Self::fold) into copies of the groups the change touches:
    /// the same result, and `s` is left as it was (read-through).
    pub fn fold_copy(
        &self,
        s: &GroupAggregateState,
        del: &Bag,
        ins: &Bag,
    ) -> Result<(Bag, Bag, usize)> {
        let (old, new, touched) = s.fold_touched(del, ins)?;
        Ok((self.permuted(old), self.permuted(new), touched))
    }

    /// A permutation is injective on rows: permuting the `γ`'s change is
    /// the view's change.
    fn permuted(&self, rows: Bag) -> Bag {
        match &self.perm {
            Some(perm) => rows.iter().map(|(t, _)| t.project(perm)).collect(),
            None => rows,
        }
    }

    /// `S`: `None` until the first maintenance call builds it, and again
    /// after an error drops it. Maintenance holds the guard across a fold;
    /// tests inspect (and corrupt) `S` through it.
    pub fn state(&self) -> MutexGuard<'_, Option<GroupAggregateState>> {
        self.state.lock()
    }
}

/// A view's precompiled delta program: the Figure 2 differentiation of its
/// definition against its log substitution, stored as executable plans
/// keyed by which log tables currently hold tuples. See the module docs.
#[derive(Debug)]
pub struct CompiledDeltaProgram {
    /// What the variants differentiate: the definition, or a counted
    /// view's `E`.
    definition: Expr,
    /// `PAST(L,Q)` over tables the caller's invariant keeps materialized,
    /// when it handed one in; `None` derives the past from base and log.
    past: Option<Expr>,
    count: Option<CountedGamma>,
    /// Logged bases in sorted order — entry `i` owns mask bits `2i`
    /// (deletion log non-empty) and `2i+1` (insertion log non-empty).
    entries: Vec<LogEntry>,
    variants: Mutex<BTreeMap<u128, Arc<CompiledDeltaVariant>>>,
    compiles: AtomicU64,
    binds: AtomicU64,
    hits: AtomicU64,
    compiled_at: SystemTime,
}

impl CompiledDeltaProgram {
    /// The saturated activity mask: every log table treated as active.
    /// Used verbatim when the view logs more than 64 bases.
    pub const SATURATED: u128 = u128::MAX;

    /// Derive, simplify, and plan-compile the program for `definition`
    /// over `log`. The all-active variant is compiled eagerly so the
    /// first propagate already skips symbolic work in the common case of
    /// a fully dirty log.
    pub fn compile(
        definition: &Expr,
        log: &LogTables,
        provider: &dyn SchemaProvider,
    ) -> Result<Self> {
        Self::build(definition, log, None, None, provider)
    }

    /// The program of a log-keeping view, its rule fixed here by the
    /// definition's aggregates and argument types: [counted](CountedGamma)
    /// when they are invertible, else as [`compile`](Self::compile) — bound
    /// to `past` when the caller holds the past value materialized. `past`,
    /// when given, must evaluate to `PAST(L,Q)` whenever the program runs.
    /// The change queries are then `▼ = past ∸ Q` and `▲ = Q ∸ past` —
    /// Theorem 2 holds for them pointwise, `(P ∸ (P ∸ Q)) ⊎ (Q ∸ P) = Q`
    /// and `P ∸ Q ⊑ P` — at the cost of one evaluation of `Q`, which is
    /// what the monus rule of a root `γ` pays *besides* rebuilding `P` from
    /// base and log.
    pub fn compile_for_view(
        definition: &Expr,
        log: &LogTables,
        past: Option<Expr>,
        provider: &dyn SchemaProvider,
    ) -> Result<Self> {
        match CountedGamma::of(definition, provider)? {
            Some(count) => {
                let input = count.input.clone();
                Self::build(&input, log, None, Some(count), provider)
            }
            None => Self::build(definition, log, past, None, provider),
        }
    }

    fn build(
        definition: &Expr,
        log: &LogTables,
        past: Option<Expr>,
        count: Option<CountedGamma>,
        provider: &dyn SchemaProvider,
    ) -> Result<Self> {
        let entries = log
            .bases()
            .map(|base| {
                let (d, i) = log.get(base).expect("listed base");
                LogEntry {
                    base: base.clone(),
                    del_table: d.to_string(),
                    ins_table: i.to_string(),
                }
            })
            .collect();
        let program = CompiledDeltaProgram {
            definition: definition.clone(),
            past,
            count,
            entries,
            variants: Mutex::new(BTreeMap::new()),
            compiles: AtomicU64::new(0),
            binds: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            compiled_at: SystemTime::now(),
        };
        let full = program.all_active_mask();
        if full != 0 {
            program.compile_variant(full, provider)?;
        }
        Ok(program)
    }

    /// The mask with every logged table active.
    pub fn all_active_mask(&self) -> u128 {
        let bits = self.entries.len().saturating_mul(2);
        if bits >= 128 {
            Self::SATURATED
        } else {
            (1u128 << bits) - 1
        }
    }

    fn bit_active(mask: u128, bit: usize) -> bool {
        if mask == Self::SATURATED {
            return true;
        }
        bit < 128 && (mask >> bit) & 1 == 1
    }

    /// Compute the activity mask for the current log state: one bit per
    /// log table that is non-empty *right now*. `0` means the whole log
    /// is empty — propagate is a no-op and no plan need run. Saturates to
    /// [`Self::SATURATED`] past 64 logged bases (sound: over-inclusion
    /// only loses pruning).
    pub fn activity_mask(&self, is_empty_now: &dyn Fn(&str) -> bool) -> u128 {
        if self.entries.len() > 64 {
            let any = self
                .entries
                .iter()
                .any(|e| !is_empty_now(&e.del_table) || !is_empty_now(&e.ins_table));
            return if any { Self::SATURATED } else { 0 };
        }
        let mut mask = 0u128;
        for (i, e) in self.entries.iter().enumerate() {
            if !is_empty_now(&e.del_table) {
                mask |= 1 << (2 * i);
            }
            if !is_empty_now(&e.ins_table) {
                mask |= 1 << (2 * i + 1);
            }
        }
        mask
    }

    /// The log tables active under `mask`, i.e. exactly the parameter
    /// tables the variant's plans may scan.
    pub fn active_log_tables(&self, mask: u128) -> Vec<&str> {
        let mut out = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            if Self::bit_active(mask, 2 * i) {
                out.push(e.del_table.as_str());
            }
            if Self::bit_active(mask, 2 * i + 1) {
                out.push(e.ins_table.as_str());
            }
        }
        out
    }

    /// Fetch the compiled variant for `mask`, deriving and compiling it on
    /// first sight. Returns `(variant, freshly_compiled)` so callers can
    /// attribute the one-time symbolic cost to a `CompileDelta` phase.
    pub fn variant(
        &self,
        mask: u128,
        provider: &dyn SchemaProvider,
    ) -> Result<(Arc<CompiledDeltaVariant>, bool)> {
        // A bound program scans no log table: one variant serves them all.
        let mask = if self.past.is_some() && mask != 0 {
            self.all_active_mask()
        } else {
            mask
        };
        if let Some(v) = self.variants.lock().get(&mask) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(v), false));
        }
        Ok((self.compile_variant(mask, provider)?, true))
    }

    /// The counting rule, when the program follows it: its variants are
    /// then `E`'s change queries, to be folded into the view's.
    pub fn counted(&self) -> Option<&CountedGamma> {
        self.count.as_ref()
    }

    /// The eagerly compiled all-active variant, if the view logs any base.
    pub fn full_variant(&self) -> Option<Arc<CompiledDeltaVariant>> {
        self.variants
            .lock()
            .get(&self.all_active_mask())
            .map(Arc::clone)
    }

    /// Every cached variant, in mask order.
    pub fn variants_snapshot(&self) -> Vec<Arc<CompiledDeltaVariant>> {
        self.variants.lock().values().map(Arc::clone).collect()
    }

    /// Count one steady-state parameter binding.
    pub fn record_bind(&self) {
        self.binds.fetch_add(1, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DeltaProgramStats {
        DeltaProgramStats {
            compiles: self.compiles.load(Ordering::Relaxed),
            binds: self.binds.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            variants: self.variants.lock().len() as u64,
            compiled_at: self.compiled_at,
        }
    }

    /// Derive + compile the variant for `mask` and cache it. Without a
    /// bound past this mirrors
    /// [`post_update_deltas_pruned`](crate::post_update_deltas_pruned):
    /// inactive log tables enter the substitution as `φ` literals (so
    /// φ-propagation prunes their terms at compile time) and wholly
    /// inactive bases are left out of `η` entirely.
    fn compile_variant(
        &self,
        mask: u128,
        provider: &dyn SchemaProvider,
    ) -> Result<Arc<CompiledDeltaVariant>> {
        let (del, ins) = match &self.past {
            Some(past) => {
                let q = &self.definition;
                (past.clone().monus(q.clone()), q.clone().monus(past.clone()))
            }
            None => {
                let mut l_hat = FactoredSubstitution::new();
                for (i, e) in self.entries.iter().enumerate() {
                    let del_active = Self::bit_active(mask, 2 * i);
                    let ins_active = Self::bit_active(mask, 2 * i + 1);
                    if !del_active && !ins_active {
                        continue;
                    }
                    let schema = provider.schema_of(&e.base)?;
                    // `L̂`: `R ↦ (R ∸ ▲R) ⊎ ▼R` — the factored D is the
                    // insertion log and A the deletion log (reconstructing
                    // the past).
                    let d = if ins_active {
                        Expr::table(e.ins_table.clone())
                    } else {
                        Expr::empty(schema.clone())
                    };
                    let a = if del_active {
                        Expr::table(e.del_table.clone())
                    } else {
                        Expr::empty(schema.clone())
                    };
                    l_hat.set(e.base.clone(), d, a);
                }
                let pair = differentiate(&self.definition, &l_hat, provider)?;
                // Post-update role swap: ▼ = Add(L̂,Q), ▲ = Del(L̂,Q).
                (pair.add, pair.del)
            }
        };
        let expr_size = del.size() + ins.size();
        let (del, ins) = (compile(&del, provider)?, compile(&ins, provider)?);
        let variant = Arc::new(CompiledDeltaVariant {
            mask,
            shared: SharedPlans::of(&del.plan, &ins.plan),
            del,
            ins,
            expr_size,
        });
        self.compiles.fetch_add(1, Ordering::Relaxed);
        self.variants.lock().insert(mask, Arc::clone(&variant));
        Ok(variant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::{log_del_name, log_ins_name, post_update_deltas_pruned};
    use dvm_algebra::eval::eval;
    use dvm_algebra::testgen::{Rng, Universe};
    use dvm_storage::{tuple, Bag, Schema};
    use std::collections::HashMap;

    fn provider_with_logs(u: &Universe) -> HashMap<String, Schema> {
        let mut p = u.provider();
        for t in &u.tables {
            p.insert(log_del_name(t), u.schema.clone());
            p.insert(log_ins_name(t), u.schema.clone());
        }
        p
    }

    fn empty_logs(u: &Universe, state: &mut HashMap<String, Bag>) -> LogTables {
        let mut log = LogTables::new();
        for t in &u.tables {
            log.add(t.clone());
            state.insert(log_del_name(t), Bag::new());
            state.insert(log_ins_name(t), Bag::new());
        }
        log
    }

    #[test]
    fn empty_log_is_mask_zero_and_full_variant_eager() {
        let u = Universe::small(2);
        let provider = provider_with_logs(&u);
        let mut state = u.state(&mut Rng::new(1), 4);
        let log = empty_logs(&u, &mut state);
        let q = Expr::table("t0").union(Expr::table("t1"));
        let p = CompiledDeltaProgram::compile(&q, &log, &provider).unwrap();
        let is_empty = |t: &str| state.get(t).map(|b| b.is_empty()).unwrap_or(false);
        assert_eq!(p.activity_mask(&is_empty), 0);
        assert_eq!(p.all_active_mask(), 0b1111);
        let s = p.stats();
        assert_eq!(s.compiles, 1, "all-active variant compiled eagerly");
        assert_eq!(s.variants, 1);
        assert!(p.full_variant().is_some());
    }

    #[test]
    fn variant_cache_hits_after_first_compile() {
        let u = Universe::small(2);
        let provider = provider_with_logs(&u);
        let mut state = u.state(&mut Rng::new(2), 4);
        let log = empty_logs(&u, &mut state);
        state.insert(log_ins_name("t0"), Bag::singleton(tuple![1, 1]));
        let q = Expr::table("t0").union(Expr::table("t1"));
        let p = CompiledDeltaProgram::compile(&q, &log, &provider).unwrap();
        let is_empty = |t: &str| state.get(t).map(|b| b.is_empty()).unwrap_or(false);
        let mask = p.activity_mask(&is_empty);
        assert_ne!(mask, 0);
        assert_ne!(mask, p.all_active_mask());
        let (_, fresh) = p.variant(mask, &provider).unwrap();
        assert!(fresh, "first sighting of this mask derives");
        let (_, fresh) = p.variant(mask, &provider).unwrap();
        assert!(!fresh, "second sighting is a pure lookup");
        let s = p.stats();
        assert_eq!(s.compiles, 2); // all-active + this mask
        assert_eq!(s.hits, 1);
        assert_eq!(s.variants, 2);
        // The active tables are exactly t0's insertion log.
        assert_eq!(p.active_log_tables(mask), vec![log_ins_name("t0")]);
    }

    #[test]
    fn masked_variant_matches_pruned_derivation() {
        // The central equivalence, small-scale (the full property suite
        // lives in tests/compile_differential.rs): the compiled variant's
        // plans evaluate bag-equal to a fresh pruned derivation.
        let u = Universe::small(3);
        let provider = provider_with_logs(&u);
        let mut rng = Rng::new(77);
        for _ in 0..40 {
            let q = u.expr(&mut rng, 2);
            let mut state = u.state(&mut rng, 4);
            let log = empty_logs(&u, &mut state);
            let f = u.weakly_minimal_subst(&mut rng, &state);
            let mut state = u.apply_subst_to_state(&f, &state);
            for t in &u.tables {
                let (d, a) = match f.get(t) {
                    Some((Expr::Literal { bag: d, .. }, Expr::Literal { bag: a, .. })) => {
                        (d.clone(), a.clone())
                    }
                    None => (Bag::new(), Bag::new()),
                    _ => unreachable!("literal deltas"),
                };
                state.insert(log_del_name(t), d);
                state.insert(log_ins_name(t), a);
            }
            let program = CompiledDeltaProgram::compile(&q, &log, &provider).unwrap();
            let is_empty = |t: &str| state.get(t).map(|b| b.is_empty()).unwrap_or(false);
            let fresh = post_update_deltas_pruned(&q, &log, &provider, &is_empty).unwrap();
            let ev = |e: &Expr| eval(&compile(e, &provider).unwrap().plan, &state).unwrap();
            let mask = program.activity_mask(&is_empty);
            if mask == 0 {
                assert!(ev(&fresh.del).is_empty() && ev(&fresh.ins).is_empty());
                continue;
            }
            let (v, _) = program.variant(mask, &provider).unwrap();
            assert_eq!(
                eval(&v.del.plan, &state).unwrap(),
                ev(&fresh.del),
                "▼ for {q}"
            );
            assert_eq!(
                eval(&v.ins.plan, &state).unwrap(),
                ev(&fresh.ins),
                "▲ for {q}"
            );
        }
    }

    #[test]
    fn bound_past_is_one_log_free_variant_for_every_mask() {
        use dvm_algebra::{AggCall, ColRef};
        let u = Universe::small(2);
        let mut provider = provider_with_logs(&u);
        // MAX is not invertible: the view keeps the `P ∸ Q` program.
        let q = Expr::table("t0").union(Expr::table("t1")).group_aggregate(
            vec![ColRef::new("a")],
            vec![AggCall::new(AggFunc::Max, ColRef::new("b"))],
        );
        let q_plan = compile(&q, &provider).unwrap();
        provider.insert("mv".into(), q_plan.schema.clone());
        let mut state = u.state(&mut Rng::new(3), 4);
        let log = empty_logs(&u, &mut state);
        // `mv` holds the past value; then t0 gains a row in a new group.
        let past = eval(&q_plan.plan, &state).unwrap();
        state.insert("mv".into(), past.clone());
        state.get_mut("t0").unwrap().insert(tuple![9, 9]);
        state.insert(log_ins_name("t0"), Bag::singleton(tuple![9, 9]));
        let now = eval(&q_plan.plan, &state).unwrap();

        let mv = Some(Expr::table("mv"));
        let p = CompiledDeltaProgram::compile_for_view(&q, &log, mv, &provider).unwrap();
        assert!(p.counted().is_none());
        let (v, fresh) = p.variant(0b10, &provider).unwrap();
        assert!(!fresh, "the eager variant serves the insert-only mask");
        let (full, _) = p.variant(p.all_active_mask(), &provider).unwrap();
        assert!(Arc::ptr_eq(&v, &full));
        assert_eq!(p.stats().variants, 1);
        let mut tables = v.del.plan.tables();
        tables.extend(v.ins.plan.tables());
        let names: Vec<&str> = tables.iter().map(String::as_str).collect();
        assert_eq!(names, ["mv", "t0", "t1"], "no log table is scanned");
        assert_eq!(eval(&v.del.plan, &state).unwrap(), past.monus(&now));
        assert_eq!(eval(&v.ins.plan, &state).unwrap(), now.monus(&past));
        assert_eq!(now.monus(&past).len(), 1);
    }

    #[test]
    fn invertible_root_aggregates_are_counted_over_their_input() {
        use dvm_algebra::{AggCall, ColRef};
        use dvm_storage::ValueType;
        let u = Universe::small(1);
        let mut provider = provider_with_logs(&u);
        provider.insert(
            "d".into(),
            Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Double)]),
        );
        let mut state = u.state(&mut Rng::new(4), 4);
        let log = empty_logs(&u, &mut state);
        let gamma = |table: &str, func| {
            Expr::table(table).group_aggregate(
                vec![ColRef::new("a")],
                vec![AggCall::count_star(), AggCall::new(func, ColRef::new("b"))],
            )
        };
        let program =
            |q: &Expr| CompiledDeltaProgram::compile_for_view(q, &log, None, &provider).unwrap();

        let sum = gamma("t0", AggFunc::Sum);
        let p = program(&sum);
        let count = p.counted().expect("COUNT + SUM over INT is invertible");
        assert_eq!(count.input(), &Expr::table("t0"));
        let v = p.full_variant().unwrap();
        let tables = v.del.plan.tables();
        assert!(
            tables.iter().all(|t| t.contains("_log_")),
            "▼E reads the log: {tables:?}"
        );

        // S folds the input change into exactly the view's change.
        let before = state["t0"].clone();
        let (del, ins) = (before.clone(), Bag::singleton(tuple![9, 9]));
        let mut s = count.build(&before);
        let (old, new, touched) = count.fold(&mut s, &del, &ins).unwrap();
        let plan = compile(&sum, &provider).unwrap().plan;
        let at = |t0: Bag| eval(&plan, &HashMap::from([("t0".to_string(), t0)])).unwrap();
        assert_eq!(old, at(before.clone()));
        assert_eq!(new, at(ins.clone()));
        assert_eq!(count.render(&s), new);
        assert_eq!(touched, at(before.union(&ins)).len() as usize);

        // The output permuted by Π keeps the rule; a Π that drops a column,
        // MIN/MAX and DOUBLE arguments do not.
        let permuted = sum.clone().project(["sum_b", "count", "a"]);
        assert!(program(&permuted).counted().is_some());
        assert!(program(&sum.clone().project(["a", "sum_b"]))
            .counted()
            .is_none());
        assert!(program(&gamma("t0", AggFunc::Min)).counted().is_none());
        assert!(program(&gamma("d", AggFunc::Avg)).counted().is_none());
    }

    #[test]
    fn saturated_mask_is_sound_past_64_bases() {
        // 70 logged bases force saturation; the program must still answer
        // correctly because empty log tables evaluate to φ at runtime.
        let schema = Schema::from_pairs(&[
            ("a", dvm_storage::ValueType::Int),
            ("b", dvm_storage::ValueType::Int),
        ]);
        let mut provider: HashMap<String, Schema> = HashMap::new();
        let mut log = LogTables::new();
        let mut state: HashMap<String, Bag> = HashMap::new();
        for i in 0..70 {
            let t = format!("t{i}");
            provider.insert(t.clone(), schema.clone());
            provider.insert(log_del_name(&t), schema.clone());
            provider.insert(log_ins_name(&t), schema.clone());
            state.insert(t.clone(), Bag::new());
            state.insert(log_del_name(&t), Bag::new());
            state.insert(log_ins_name(&t), Bag::new());
            log.add(t);
        }
        let q = Expr::table("t0").union(Expr::table("t1"));
        let p = CompiledDeltaProgram::compile(&q, &log, &provider).unwrap();
        assert_eq!(p.all_active_mask(), CompiledDeltaProgram::SATURATED);

        state.insert("t0".into(), Bag::singleton(tuple![1, 1]));
        state.insert(log_ins_name("t0"), Bag::singleton(tuple![1, 1]));
        let is_empty = |t: &str| state.get(t).map(|b| b.is_empty()).unwrap_or(false);
        let mask = p.activity_mask(&is_empty);
        assert_eq!(mask, CompiledDeltaProgram::SATURATED, "mask saturates");
        let (v, _) = p.variant(mask, &provider).unwrap();
        let ins = eval(&v.ins.plan, &state).unwrap();
        assert_eq!(ins, Bag::singleton(tuple![1, 1]), "▲ = the logged insert");
        let del = eval(&v.del.plan, &state).unwrap();
        assert!(del.is_empty());
    }
}
