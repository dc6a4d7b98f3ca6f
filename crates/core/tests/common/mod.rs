//! Checks shared by the engine's test crates: the three-way differential
//! for a root-`γ` view's delta program — bound to `PAST(L,Q)` or counted —
//! (`aggregates.rs`, `recovery.rs`), and the read path against the truth
//! (those and `sharedlog.rs`).

// Each test crate uses a subset of these helpers.
#![allow(dead_code)]

use dvm_algebra::eval::{eval_pair, PinnedState};
use dvm_algebra::{col, lit, Predicate};
use dvm_core::readthrough::recompute_where;
use dvm_core::{Database, View};
use dvm_delta::{post_update_deltas, CountedGamma};
use dvm_storage::{Bag, Value};

/// The read path against the truth, for any view: `read_through` ≡
/// `recompute_view`, and `read_through_where(p)` ≡ `recompute_where(p)`
/// for `p` an equality on the view's first column with a (non-NULL, when
/// there is one) value a current row holds. Neither call may change
/// anything observable: the view's tables — `MV`, `∇MV`, `ΔMV` and every
/// log table — stay bag-equal, and so does `render(S)` when a counted
/// view had built `S`. Returns whether the calls built `S`.
pub fn read_through_exact(db: &Database, name: &str, ctx: &str) -> bool {
    let view = db.view(name).unwrap();
    let catalog = db.catalog();
    let tables = || -> Vec<Bag> {
        let names = view.internal_tables();
        names.iter().map(|t| catalog.bag_of(t).unwrap()).collect()
    };
    // `None`: not counted; `Some(None)`: `S` not built.
    let state = || -> Option<Option<Bag>> {
        view.log()?;
        let program = view.delta_program(catalog).unwrap();
        let count = program.counted()?;
        let rendered = count.state().as_ref().map(|s| count.render(s));
        Some(rendered)
    };
    let (before, s_before) = (tables(), state());

    let truth = db.recompute_view(name).unwrap();
    let fresh = db.read_through(name).unwrap();
    assert_eq!(fresh, truth, "{ctx}: read_through vs recompute");
    let values: Vec<Value> = truth.iter().map(|(t, _)| t[0].clone()).collect();
    let value = values
        .iter()
        .find(|v| !v.is_null())
        .or(values.first())
        .cloned()
        .unwrap_or(Value::Int(0));
    let column = view.mv_schema().columns()[0].name.clone();
    let pred = Predicate::eq(col(&column), lit(value));
    assert_eq!(
        db.read_through_where(name, &pred).unwrap(),
        recompute_where(catalog, &view, &pred).unwrap(),
        "{ctx}: read_through_where({pred}) vs recompute_where"
    );

    assert_eq!(tables(), before, "{ctx}: read-through changed a table");
    let s_after = state();
    if let Some(Some(s)) = &s_before {
        assert_eq!(
            s_after,
            Some(Some(s.clone())),
            "{ctx}: read-through changed S"
        );
    }
    matches!((s_before, s_after), (Some(None), Some(Some(_))))
}

/// Compare, in the database's current state, the three derivations of
/// `(▼(L,Q), ▲(L,Q))` for root-`γ` view `name`:
///
/// 1. the stored program's plans, which read `PAST(L,Q)` off the view's
///    own `MV`/`∇MV`/`ΔMV` — evaluated exactly as maintenance would; or,
///    for a counted view, its input's change `(▼E, ▲E)` folded into a copy
///    of `S` (see [`counted_leg`]);
/// 2. `post_update_deltas`, differentiated per call and evaluated from
///    base and log tables (the monus rule of `weak.rs`);
/// 3. the diff of two recomputes, `PAST(L,Q) ∸ Q` and `Q ∸ PAST(L,Q)`,
///    with both sides evaluated from base and log.
///
/// A shared-log view's private log tables are only a staging area, so for
/// it legs 2 and 3 take the past from the from-base invariant checker
/// instead (which composes the un-drained shared suffix in): the checker
/// must pass, and the past is then the value it just vouched for.
///
/// Returns `None` when the view's log is empty (the program would not run;
/// the other two legs must then be `φ`), else whether `∇MV ⊎ ΔMV` was
/// non-empty when the program read it.
pub fn three_way(db: &Database, name: &str, ctx: &str) -> Option<bool> {
    let view = db.view(name).unwrap();
    let catalog = db.catalog();
    let rows = |t: &str| catalog.require(t).unwrap().len();
    let shared = db.is_shared_log_view(name);

    let q = db.recompute_view(name).unwrap();
    let past = if shared {
        let report = db.check_invariant(name).unwrap();
        assert!(report.ok(), "{ctx}: {report}");
        let mut p = db.query_view(name).unwrap();
        let (d, i) = view.diff_tables().unwrap();
        p.apply_delta(&catalog.bag_of(d).unwrap(), &catalog.bag_of(i).unwrap());
        p
    } else {
        db.eval(&view.past_query()).unwrap()
    };
    let want = (past.monus(&q), q.monus(&past));
    if !shared {
        let d = post_update_deltas(view.definition(), view.log().unwrap(), catalog).unwrap();
        let from_base = (db.eval(&d.del).unwrap(), db.eval(&d.ins).unwrap());
        assert_eq!(from_base, want, "{ctx}: from-base ▼/▲ vs recompute diff");
    }

    let program = view.delta_program(catalog).unwrap();
    let dt_nonempty = || {
        let dt = view.diff_tables();
        Some(dt.is_some_and(|(d, i)| rows(d) + rows(i) > 0))
    };
    if let Some(count) = program.counted() {
        counted_leg(db, &view, count, (&past, &q), &want, ctx);
        return dt_nonempty();
    }
    // A `Π` over a non-invertible `γ` keeps the differentiated program,
    // which a shared view's staging tables cannot feed.
    let bound = view.materialized_past().is_some();
    if shared && !bound {
        return dt_nonempty();
    }
    let mask = if shared {
        program.all_active_mask()
    } else {
        program.activity_mask(&|t| rows(t) == 0)
    };
    if mask == 0 {
        assert!(
            want.0.is_empty() && want.1.is_empty(),
            "{ctx}: empty log, non-empty change"
        );
        return None;
    }
    let (variant, _) = program.variant(mask, catalog).unwrap();
    let mut tables = variant.del.plan.tables();
    tables.extend(variant.ins.plan.tables());
    assert!(
        !bound || tables.iter().all(|t| !t.contains("_log_")),
        "{ctx}: the bound program scans a log table: {tables:?}"
    );
    let pinned = PinnedState::pin(catalog, &tables).unwrap();
    let deltas = eval_pair(
        &variant.del.plan,
        &variant.ins.plan,
        &variant.shared,
        &pinned,
    )
    .unwrap();
    assert_eq!(deltas, want, "{ctx}: program ▼/▲ vs recompute diff");
    dt_nonempty()
}

/// The fourth leg, for a counted view: `S`, when built, renders `P`; and
/// (private logs only — a shared view's log tables are a staging area)
/// the program's `(▼E, ▲E)`, folded into a copy of `S` (or of a state
/// freshly built from `PAST(L,E)` when `S` is not built yet), give exactly
/// `want` and leave a state rendering `Q`. The program reads no table of
/// the view's own.
pub fn counted_leg(
    db: &Database,
    view: &View,
    count: &CountedGamma,
    (past, q): (&Bag, &Bag),
    want: &(Bag, Bag),
    ctx: &str,
) {
    let catalog = db.catalog();
    let state = count.state().clone();
    if let Some(s) = &state {
        assert_eq!(&count.render(s), past, "{ctx}: render(S) vs P");
    }
    if db.is_shared_log_view(view.name()) {
        return;
    }
    let program = view.delta_program(catalog).unwrap();
    let mask = program.activity_mask(&|t| catalog.require(t).unwrap().is_empty());
    if mask == 0 {
        assert!(
            want.0.is_empty() && want.1.is_empty(),
            "{ctx}: empty log, non-empty change"
        );
        return;
    }
    let (variant, _) = program.variant(mask, catalog).unwrap();
    let mut tables = variant.del.plan.tables();
    tables.extend(variant.ins.plan.tables());
    assert!(
        tables
            .iter()
            .all(|t| t != view.mv_table() && !t.contains("_dt_")),
        "{ctx}: the counted program scans the view's own tables: {tables:?}"
    );
    let pinned = PinnedState::pin(catalog, &tables).unwrap();
    let (del_e, ins_e) = eval_pair(
        &variant.del.plan,
        &variant.ins.plan,
        &variant.shared,
        &pinned,
    )
    .unwrap();
    let mut s = state.unwrap_or_else(|| {
        let log = view.log().unwrap();
        count.build(&db.eval(&log.past_subst().apply(count.input())).unwrap())
    });
    let (del, ins, _) = count.fold(&mut s, &del_e, &ins_e).unwrap();
    assert_eq!(&(del, ins), want, "{ctx}: counted ▼/▲ vs recompute diff");
    assert_eq!(&count.render(&s), q, "{ctx}: S after the fold vs Q");
}
