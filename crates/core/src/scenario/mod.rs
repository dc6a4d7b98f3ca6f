//! The maintenance operations of **Figure 3**, one module per scenario.
//!
//! | invariant | makesafe hook | refresh path |
//! |---|---|---|
//! | `INV_IM` | eval `∇(T,Q)/Δ(T,Q)` pre-update, apply to `MV` with `T` | — |
//! | `INV_BL` | extend log (`compose`) | eval `▼(L,Q)/▲(L,Q)` post-update under the `MV` write lock |
//! | `INV_DT` | eval `∇(T,Q)/Δ(T,Q)` pre-update, fold into `∇MV/ΔMV` | apply `∇MV/ΔMV` under the `MV` write lock |
//! | `INV_C` | extend log (same as BL) | `propagate_C` (fold `▼/▲` into `∇MV/ΔMV`, *no* `MV` lock) + `partial_refresh_C` (apply) |
//!
//! Downtime — the time the `MV` write lock is held — is measured by the MV
//! table's lock metrics; everything evaluated inside that lock counts.

pub mod base_log;
pub mod combined;
pub mod diff_table;
pub mod immediate;

use crate::error::Result;
use crate::view::View;
use dvm_algebra::eval::{eval, eval_pair as eval_plan_pair, ParamSource, PinnedState, SharedPlans};
use dvm_algebra::infer::compile;
use dvm_algebra::{Expr, GroupAggregateState};
use dvm_delta::{CompiledDeltaVariant, CountedGamma};
use dvm_obs::OpProf;
use dvm_storage::{Bag, Catalog, CommitGuard, CommitMode};
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

/// Start a phase timer iff profiling is on (`None` keeps the off path at
/// one relaxed atomic load).
pub(crate) fn phase_start() -> Option<Instant> {
    dvm_obs::profiling_on().then(Instant::now)
}

/// Record a finished phase timer as a leaf in the current profiling
/// capture. The non-evaluation work of a maintenance operation — delta
/// derivation, compile/pin, the Lemma-3 fold, log truncation — lands in
/// the same per-operation capture as the operator pipelines, so the
/// recorded nanos can telescope to the operation's observed wall time
/// (`MaintProfile::coverage`).
pub(crate) fn phase_end(label: &'static str, rows: u64, started: Option<Instant>) {
    if let Some(s) = started {
        dvm_obs::profile::record_eval(dvm_obs::OpProf::leaf(
            label,
            rows,
            s.elapsed().as_nanos() as u64,
        ));
    }
}

/// Shared commit claims on `tables`: commits to them wait, commits to
/// other tables and other shared claims go ahead.
pub(crate) fn claim_shared(
    catalog: &Catalog,
    tables: &BTreeSet<String>,
) -> Result<Vec<CommitGuard>> {
    let modes = tables.iter().map(|t| (t.clone(), CommitMode::Shared));
    Ok(catalog.lock_commit(&modes.collect())?)
}

/// Compile and evaluate an expression in the current catalog state,
/// pinning exactly the tables it reads.
pub(crate) fn eval_expr(catalog: &Catalog, expr: &Expr) -> Result<Bag> {
    let q = compile(expr, catalog)?;
    let pinned = PinnedState::pin_for(catalog, &q.plan)?;
    Ok(eval(&q.plan, &pinned)?)
}

/// Evaluate an expression with some table contents overridden. The
/// overrides ride the algebra's [`ParamSource`] — the same parameterized
/// source the compiled delta programs bind log bags through.
pub(crate) fn eval_expr_overlay<'a, S: AsRef<str> + ?Sized + 'a>(
    catalog: &Catalog,
    expr: &Expr,
    overrides: impl IntoIterator<Item = (&'a S, &'a Bag)>,
) -> Result<Bag> {
    let q = compile(expr, catalog)?;
    let src = ParamSource::pin(catalog, &q.plan.tables(), overrides)?;
    Ok(eval(&q.plan, &src)?)
}

/// Evaluate a delete/insert expression pair against one pinned state (both
/// sides must see the same state).
pub(crate) fn eval_pair(catalog: &Catalog, del: &Expr, ins: &Expr) -> Result<(Bag, Bag)> {
    let t = phase_start();
    let dq = compile(del, catalog)?;
    let iq = compile(ins, catalog)?;
    let mut tables = dq.plan.tables();
    tables.extend(iq.plan.tables());
    let pinned = PinnedState::pin(catalog, &tables)?;
    let shared = SharedPlans::of(&dq.plan, &iq.plan);
    phase_end("CompilePin(▼,▲)", 0, t);
    Ok(eval_plan_pair(&dq.plan, &iq.plan, &shared, &pinned)?)
}

/// Execute a precompiled delta-plan variant: bind those of the active log
/// tables the stored plans scan as parameter bags — by reference from
/// `logs` where it holds the table (read-through's pinned or composed
/// log), else a snapshot — pin every other table they scan, and
/// evaluate both plans against the bound source as one program (subplans
/// they share run once). This is the whole steady-state front half of
/// propagate, refresh and read-through — no differentiation, no
/// simplification, no plan construction. `lent` is a table whose lock the
/// caller already holds (`refresh_BL` evaluates under the `MV` write
/// lock): its bag is bound by reference, never pinned, never copied. The
/// snapshot+pin is recorded as the `BindParams` phase; the evaluations
/// profile themselves.
pub(crate) fn eval_variant_bound(
    catalog: &Catalog,
    variant: &CompiledDeltaVariant,
    param_tables: &[&str],
    lent: Option<(&str, &Bag)>,
    logs: &HashMap<&str, &Bag>,
) -> Result<(Bag, Bag)> {
    let t = phase_start();
    let mut tables = variant.del.plan.tables();
    tables.extend(variant.ins.plan.tables());
    let mut copies = Vec::with_capacity(param_tables.len());
    let mut params: Vec<(&str, &Bag)> = Vec::with_capacity(param_tables.len() + 1);
    for name in param_tables.iter().filter(|t| tables.contains(**t)) {
        match logs.get(*name) {
            Some(bag) => params.push((name, *bag)),
            None => copies.push((*name, catalog.bag_of(name)?)),
        }
    }
    params.extend(copies.iter().map(|(n, b)| (*n, b)));
    let bound = params.iter().map(|(_, b)| b.len()).sum();
    params.extend(lent);
    let src = ParamSource::pin(catalog, &tables, params)?;
    phase_end("BindParams", bound, t);
    Ok(eval_plan_pair(
        &variant.del.plan,
        &variant.ins.plan,
        &variant.shared,
        &src,
    )?)
}

/// A counted program's input change `(▼E, ▲E)`, folded by `fold` into
/// `S`, as the view's `(▼, ▲)`. `S` is built first, from one pass over
/// `PAST(L,E)` with the log read through `logs` as in
/// [`eval_variant_bound`], when no earlier call left one (profiled as
/// `AggStateBuild`); the fold is profiled as `AggFold` (rows in: folded,
/// rows out: groups touched). Maintenance passes [`CountedGamma::fold`],
/// read-through [`CountedGamma::fold_copy`]. A failed fold drops `S`.
pub(crate) fn fold_counted(
    catalog: &Catalog,
    view: &View,
    count: &CountedGamma,
    (del, ins): (&Bag, &Bag),
    logs: &HashMap<&str, &Bag>,
    fold: impl FnOnce(&mut GroupAggregateState, &Bag, &Bag) -> dvm_delta::Result<(Bag, Bag, usize)>,
) -> Result<(Bag, Bag)> {
    let mut state = count.state();
    let s = match state.as_mut() {
        Some(s) => s,
        None => {
            let t = phase_start();
            let log = view.log().expect("a counted view keeps a log");
            let past = log.past_subst().apply(count.input());
            let past = eval_expr_overlay(catalog, &past, logs.iter().map(|(t, b)| (*t, *b)))?;
            phase_end("AggStateBuild", past.len(), t);
            state.insert(count.build(&past))
        }
    };
    let t = phase_start();
    let folded = fold(s, del, ins);
    if let (Some(t), Ok((_, _, touched))) = (t, &folded) {
        let leaf = OpProf::leaf("AggFold", *touched as u64, t.elapsed().as_nanos() as u64);
        dvm_obs::profile::record_eval(OpProf {
            rows_in: del.len() + ins.len(),
            ..leaf
        });
    }
    let (old, new, _) = folded.inspect_err(|_| *state = None)?;
    Ok((old, new))
}

/// Recompute the view definition from scratch (the non-incremental
/// baseline used by experiments and the invariant checker).
pub fn recompute(catalog: &Catalog, view: &View) -> Result<Bag> {
    let pinned = PinnedState::pin_for(catalog, &view.compiled().plan)?;
    Ok(eval(&view.compiled().plan, &pinned)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_storage::{tuple, Schema, TableKind, ValueType};

    #[test]
    fn eval_expr_and_pair() {
        let c = Catalog::new();
        let t = c
            .create_table(
                "r",
                Schema::from_pairs(&[("a", ValueType::Int)]),
                TableKind::External,
            )
            .unwrap();
        t.insert(tuple![1]).unwrap();
        let e = Expr::table("r");
        assert_eq!(eval_expr(&c, &e).unwrap().len(), 1);
        let (d, i) = eval_pair(&c, &e, &e).unwrap();
        assert_eq!(d, i);
    }
}
