//! **Delta-plan compilation experiment**: the front half of a
//! steady-state propagate through the view's compiled delta program vs
//! re-deriving the change queries symbolically on every call, written to
//! `results/BENCH_compile.json`.
//!
//! Both series evaluate the pending `▼(L,Q)/▲(L,Q)` against the same
//! state and stop there — the Lemma 3 fold and log clear that follow are
//! identical either way and are not timed. `compiled` is what `propagate`
//! does (variant lookup, bind, evaluate: `dvm_bench::eval_pending_deltas`);
//! `per_call` is [`per_call_deltas`], assembled here from the library's
//! public derivation calls since the engine no longer carries that path.
//! The difference under measurement is exactly the per-call symbolic work
//! the compiler amortizes — `Del`/`Add` differentiation, simplification,
//! and physical plan construction.
//!
//! Series:
//!
//! * `compile/small_delta/{compiled,per_call}` — a 10-sale backlog on the
//!   Example-1.1 join view. Small deltas are the steady-state regime
//!   deferred maintenance lives in, and where the symbolic front half
//!   dominates; `obs_guard` gates `per_call ≥ 1.5× compiled` here.
//! * `compile/delta1000/{compiled,per_call}` — a 1 000-sale backlog: the
//!   evaluation dominates and the ratio shrinks toward 1, bounding what
//!   compilation can and cannot buy.
//! * `compile/agg_small/{compiled,per_call}` — a GROUP BY view (COUNT,
//!   MAX over sales), whose γ differentiation is the costliest to re-run
//!   per call. MAX keeps it on the `P ∸ Q` program; a view with only
//!   invertible aggregates is counted instead, and its program is its
//!   input's (DESIGN.md §13).
//! * `compile/both_logs/{compiled,per_call}` — sales *and* customer scores
//!   change between propagates (dvmbench's `bulk_refresh` shape): all four
//!   logs of the join view are active, no join side is a cacheable base
//!   build, and both series run the pair evaluation that builds on the
//!   log side and pushes its key set into the base scan.
//!
//! Every round is differentially checked before timing: the compiled and
//! per-call `▼/▲` must be bag-equal on the same backlog, and the view
//! they maintain must match a from-scratch recompute. `--test` runs the
//! checks and one quick sample per series without writing (the
//! `scripts/ci.sh` smoke).

use dvm_algebra::{compile, eval_pair, AggCall, AggFunc, ColRef, Expr, PinnedState, SharedPlans};
use dvm_bench::report::{summary_table, write_json};
use dvm_bench::{eval_pending_deltas, retail_db};
use dvm_core::{Database, Minimality, Scenario};
use dvm_delta::{post_update_deltas_pruned, Transaction};
use dvm_storage::Bag;
use dvm_testkit::bench::{Bench, Summary};
use dvm_workload::RetailGen;

// Small base tables keep the fixed evaluation cost low, so the
// small-delta series isolates the per-call symbolic front half (the thing
// compilation removes) instead of burying it under table scans.
const CUSTOMERS: usize = 100;
const INITIAL_SALES: usize = 300;
const SMALL: usize = 8;
const LARGE: usize = 1_000;

/// `γ_{custId; COUNT(*), MAX(quantity)}(sales)` — an aggregate view over
/// the same fact stream.
fn agg_expr() -> Expr {
    Expr::table("sales").group_aggregate(
        vec![ColRef::new("custId")],
        vec![
            AggCall::count_star(),
            AggCall::new(AggFunc::Max, ColRef::new("quantity")),
        ],
    )
}

/// A retail database with the join view `V` and the aggregate view `VA`,
/// plus one warmed-up propagate of the backlog shape about to be measured,
/// so the measured rounds hit the variant cache (steady state), never the
/// one-time compile of their log-activity mask.
fn make(seed: u64, both_logs: bool) -> (Database, RetailGen) {
    let (db, mut gen) = retail_db(
        CUSTOMERS,
        INITIAL_SALES,
        Scenario::Combined,
        Minimality::Weak,
        seed,
    );
    db.create_view_with("VA", agg_expr(), Scenario::Combined, Minimality::Weak)
        .expect("create aggregate view");
    db.execute(&backlog(&mut gen, SMALL, both_logs)).unwrap();
    db.propagate("V").unwrap();
    db.propagate("VA").unwrap();
    (db, gen)
}

/// A backlog of `sales` new sales, plus — for the `both_logs` shape — as
/// many customer score flips as a tenth of that (at least one).
fn backlog(gen: &mut RetailGen, sales: usize, both_logs: bool) -> Transaction {
    let mut tx = gen.sales_batch(sales);
    if both_logs {
        let flips = gen.score_change_batch((sales / 10).max(1));
        let (old, new) = flips.get("customer").expect("score flips touch customer");
        // A customer drawn twice still flips once.
        tx = tx
            .delete("customer", old.dedup())
            .insert("customer", new.dedup());
    }
    tx
}

/// The pre-compilation propagate front half: re-derive, simplify and
/// plan-compile `▼(L,Q)/▲(L,Q)` symbolically for the current log, then
/// evaluate the pair against one pinned state.
fn per_call_deltas(db: &Database, view: &str) -> (Bag, Bag) {
    let catalog = db.catalog();
    let view = db.view(view).unwrap();
    let log = view.log().expect("combined views keep a log");
    let deltas = post_update_deltas_pruned(view.definition(), log, catalog, &|t| {
        catalog.get(t).is_some_and(|t| t.is_empty())
    })
    .unwrap();
    let del = compile(&deltas.del, catalog).unwrap();
    let ins = compile(&deltas.ins, catalog).unwrap();
    let mut tables = del.plan.tables();
    tables.extend(ins.plan.tables());
    let pinned = PinnedState::pin(catalog, &tables).unwrap();
    let shared = SharedPlans::of(&del.plan, &ins.plan);
    eval_pair(&del.plan, &ins.plan, &shared, &pinned).unwrap()
}

/// Compiled and per-call derivation must be indistinguishable: the same
/// `▼/▲` bags on every backlog, and a maintained view equal to the truth —
/// checked across several rounds on both views.
fn differential_check() {
    let (db, mut gen) = make(7, false);
    for round in 0..6 {
        // The last rounds change customer scores too: every log active.
        db.execute(&backlog(&mut gen, 25, round >= 4)).unwrap();
        for v in ["V", "VA"] {
            assert_eq!(
                eval_pending_deltas(&db, v, eval_pair),
                per_call_deltas(&db, v),
                "round {round}: {v} ▼/▲ diverged compiled vs per-call"
            );
            db.propagate(v).unwrap();
            db.partial_refresh(v).unwrap();
            assert_eq!(
                db.query_view(v).unwrap(),
                db.recompute_view(v).unwrap(),
                "round {round}: {v} diverged from recomputed truth"
            );
        }
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let bench = if quick {
        Bench::quick()
    } else {
        Bench::from_env()
    };

    differential_check();

    let mut out: Vec<Summary> = Vec::new();
    let cases: &[(&str, &str, usize, bool)] = &[
        ("compile/small_delta/compiled", "V", SMALL, true),
        ("compile/small_delta/per_call", "V", SMALL, false),
        ("compile/delta1000/compiled", "V", LARGE, true),
        ("compile/delta1000/per_call", "V", LARGE, false),
        ("compile/agg_small/compiled", "VA", SMALL, true),
        ("compile/agg_small/per_call", "VA", SMALL, false),
        ("compile/both_logs/compiled", "V", SMALL, true),
        ("compile/both_logs/per_call", "V", SMALL, false),
    ];
    for &(name, view, batch, use_compiled) in cases {
        out.push(bench.run_batched(
            name,
            || {
                let both_logs = name.contains("both_logs");
                let (db, mut gen) = make(42, both_logs);
                db.execute(&backlog(&mut gen, batch, both_logs)).unwrap();
                db
            },
            |db| {
                let deltas = if use_compiled {
                    eval_pending_deltas(&db, view, eval_pair)
                } else {
                    per_call_deltas(&db, view)
                };
                (db, deltas)
            },
        ));
    }

    if quick {
        println!(
            "exp_compile: smoke OK — compiled≡per-call differential checks passed, \
             {} benchmarks ran",
            out.len()
        );
        return;
    }
    summary_table(&out).print();

    let median = |name: &str| {
        out.iter()
            .find(|s| s.name == name)
            .map(|s| s.median_ns)
            .unwrap_or(f64::NAN)
    };
    println!(
        "\ncompiled-plan speedup (median per-call / compiled): \
         small delta {:.1}x, 1000-delta {:.1}x, aggregate {:.1}x, both logs {:.1}x",
        median("compile/small_delta/per_call") / median("compile/small_delta/compiled"),
        median("compile/delta1000/per_call") / median("compile/delta1000/compiled"),
        median("compile/agg_small/per_call") / median("compile/agg_small/compiled"),
        median("compile/both_logs/per_call") / median("compile/both_logs/compiled"),
    );

    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join("BENCH_compile.json");
        match write_json(&path, &out) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}
