//! **Executor experiment**: the streaming fused executor vs the
//! materializing reference evaluator vs a faithful reconstruction of the
//! pre-streaming evaluator (std `HashMap` = SipHash bags, per-tuple join-key
//! allocation, materialize-every-operator, no key pushdown).
//!
//! Four benchmark families, written to `results/BENCH_eval.json` behind a
//! `{host, commit}` stamp:
//!
//! * `hash/tuple_insert/{siphash,fxhash}` — the raw hashing delta on the
//!   bag-building inner loop;
//! * `eval/filter_project/{prepr_sip,reference,fused}` — a selective
//!   filter→project change query: the reference evaluator materializes the
//!   filtered intermediate, the fused executor streams tuples straight into
//!   the result;
//! * `eval/join_delta/{prepr_sip,cold,indexed}` — a small delta joined
//!   with a large base table: `cold` builds the delta and scans the table
//!   through its pushed key set, `indexed` looks those keys up in the
//!   table's join-key index;
//! * `propagate/{reference,fused}` — the evaluation half of
//!   `exp_downtime`'s propagate phase (Combined scenario, deferred sales
//!   backlog): the view's compiled `▼/▲` plans over its bound log, run
//!   through each executor by `dvm_bench::eval_pending_deltas` (`fused` is
//!   the engine's pair evaluation, `reference` the oracle on each plan). The
//!   Lemma-3 fold and log clear, identical under both, are not timed.
//!
//! `scripts/ci.sh` gates on the recorded ratios via `obs_guard`.

use dvm_algebra::plan::{PhysOperand, PhysPredicate, Plan};
use dvm_algebra::predicate::CmpOp;
use dvm_algebra::{eval, eval_pair, eval_reference, PinnedState};
use dvm_bench::report::{summary_table, write_json_stamped};
use dvm_bench::{eval_pending_deltas, retail_db};
use dvm_core::{Minimality, Scenario};
use dvm_storage::{tuple, Bag, Catalog, FxHashMap, Schema, TableKind, Tuple, Value, ValueType};
use dvm_testkit::bench::{Bench, Summary};
use std::collections::HashMap;

// ---- the pre-streaming evaluator, reconstructed --------------------------
//
// Before the streaming executor landed, bags were `std::collections::HashMap`
// (SipHash) and every operator materialized its full output; the hash join
// allocated one `Vec<Value>` key per build AND per probe tuple. These
// baseline bodies reproduce exactly that shape so the recorded speedups
// compare against what the engine actually did, not a strawman.

type SipBag = HashMap<Tuple, u64>;

fn to_sip(bag: &Bag) -> SipBag {
    bag.iter().map(|(t, m)| (t.clone(), m)).collect()
}

fn sip_filter_project(input: &SipBag, pred: &PhysPredicate, cols: &[usize]) -> SipBag {
    let mut filtered: SipBag = HashMap::new();
    for (t, m) in input {
        if pred.eval(t) {
            *filtered.entry(t.clone()).or_insert(0) += m;
        }
    }
    let mut out: SipBag = HashMap::new();
    for (t, m) in &filtered {
        *out.entry(t.project(cols)).or_insert(0) += m;
    }
    out
}

/// Pre-PR key extraction: a fresh `Vec<Value>` per tuple, `None` on NULL.
fn sip_key(t: &Tuple, keys: &[usize]) -> Option<Vec<Value>> {
    let mut out = Vec::with_capacity(keys.len());
    for &i in keys {
        match &t[i] {
            Value::Null => return None,
            Value::Int(v) => out.push(Value::Double(*v as f64)),
            other => out.push(other.clone()),
        }
    }
    Some(out)
}

fn sip_hash_join(left: &SipBag, right: &SipBag, lk: &[usize], rk: &[usize]) -> SipBag {
    let mut build: HashMap<Vec<Value>, Vec<(&Tuple, u64)>> = HashMap::new();
    for (t, m) in right {
        let Some(key) = sip_key(t, rk) else { continue };
        build.entry(key).or_default().push((t, *m));
    }
    let mut out: SipBag = HashMap::new();
    for (lt, lm) in left {
        let Some(key) = sip_key(lt, lk) else { continue };
        if let Some(matches) = build.get(&key) {
            for (rt, rm) in matches {
                *out.entry(lt.concat(rt)).or_insert(0) += lm * rm;
            }
        }
    }
    out
}

// ---- workloads -----------------------------------------------------------

/// 50k two-column tuples; `a` spreads over 1000 keys, `b` over 37.
fn change_table() -> Bag {
    let mut b = Bag::new();
    for i in 0..50_000i64 {
        b.insert_n(tuple![i % 1_000, (i * 7) % 37], 1 + (i % 2) as u64);
    }
    b
}

fn lt_pred(col: usize, bound: i64) -> PhysPredicate {
    PhysPredicate::Cmp(
        PhysOperand::Col(col),
        CmpOp::Lt,
        PhysOperand::Const(Value::Int(bound)),
    )
}

fn bench_hashing(b: &Bench, out: &mut Vec<Summary>) {
    let tuples: Vec<Tuple> = change_table().iter().map(|(t, _)| t.clone()).collect();
    out.push(b.run("hash/tuple_insert/siphash", || {
        let mut m: HashMap<Tuple, u64> = HashMap::with_capacity(tuples.len());
        for t in &tuples {
            *m.entry(t.clone()).or_insert(0) += 1;
        }
        m.len()
    }));
    out.push(b.run("hash/tuple_insert/fxhash", || {
        let mut m: FxHashMap<Tuple, u64> = FxHashMap::default();
        m.reserve(tuples.len());
        for t in &tuples {
            *m.entry(t.clone()).or_insert(0) += 1;
        }
        m.len()
    }));
}

fn bench_filter_project(b: &Bench, out: &mut Vec<Summary>) {
    let table = change_table();
    let sip = to_sip(&table);
    let mut state: HashMap<String, Bag> = HashMap::new();
    state.insert("s".to_string(), table);
    // Π[1](σ_{a < 500}(s)) — half the scan qualifies, then collapses onto
    // 37 keys; the materializing evaluators pay for the 25k-tuple
    // intermediate, the fused executor never builds it.
    let pred = lt_pred(0, 500);
    let plan = Plan::Project(
        vec![1],
        Box::new(Plan::Filter(pred.clone(), Box::new(Plan::Scan("s".into())))),
    );
    out.push(b.run("eval/filter_project/prepr_sip", || {
        sip_filter_project(&sip, &pred, &[1]).len()
    }));
    out.push(b.run("eval/filter_project/reference", || {
        eval_reference(&plan, &state).unwrap().len()
    }));
    out.push(b.run("eval/filter_project/fused", || {
        eval(&plan, &state).unwrap().len()
    }));
}

fn bench_join_delta(b: &Bench, out: &mut Vec<Summary>) {
    // A 200-tuple delta probing a 40k-row build side on `a` (1000 keys).
    let mut big = Bag::new();
    for i in 0..40_000i64 {
        big.insert(tuple![i % 1_000, i % 53]);
    }
    let mut delta = Bag::new();
    for i in 0..200i64 {
        delta.insert(tuple![(i * 5) % 1_000, i]);
    }
    let sip_big = to_sip(&big);
    let sip_delta = to_sip(&delta);
    out.push(b.run("eval/join_delta/prepr_sip", || {
        sip_hash_join(&sip_delta, &sip_big, &[0], &[0]).len()
    }));

    let catalog = Catalog::new();
    let table = catalog
        .create_table(
            "big",
            Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Int)]),
            TableKind::External,
        )
        .unwrap();
    table.replace(big).unwrap();
    let plan = Plan::HashJoin {
        left: Box::new(Plan::Literal(delta)),
        right: Box::new(Plan::Scan("big".into())),
        left_keys: vec![0],
        right_keys: vec![0],
        residual: PhysPredicate::Const(true),
    };
    let pinned = PinnedState::pin_for(&catalog, &plan).unwrap();
    out.push(b.run("eval/join_delta/cold", || {
        eval(&plan, &pinned).unwrap().len()
    }));
    drop(pinned);
    table.register_index(&[0]);
    let pinned = PinnedState::pin_for(&catalog, &plan).unwrap();
    eval(&plan, &pinned).unwrap(); // the first probe builds the index
    out.push(b.run("eval/join_delta/indexed", || {
        eval(&plan, &pinned).unwrap().len()
    }));
    assert!(
        table.index_stats()[0].probes > 0,
        "indexed runs must look keys up"
    );
}

/// `exp_downtime`'s propagate phase at its full scale (5k customers, 25k
/// initial sales): a deferred sales backlog, timed through the evaluation
/// of the pending `▼/▲` only. One warm-up propagate runs in setup —
/// `exp_downtime` propagates every N/10 transactions, so the steady-state
/// propagate is what its latency is made of. The streaming executor builds
/// the small log side and looks its keys up in the customer table's
/// join-key index; the reference evaluator scans and builds every time.
fn bench_propagate(b: &Bench, out: &mut Vec<Summary>) {
    let b = b.clone().samples(8);
    let make = || {
        let (db, mut gen) = retail_db(5_000, 25_000, Scenario::Combined, Minimality::Weak, 9);
        for _ in 0..40 {
            db.execute(&gen.sales_batch(10)).unwrap();
        }
        db.propagate("V").unwrap();
        for _ in 0..40 {
            db.execute(&gen.sales_batch(10)).unwrap();
        }
        db
    };
    // The routines hand the database back so its deallocation (tens of
    // thousands of tuples) is not charged to the evaluation being timed.
    out.push(b.run_batched("propagate/reference", make, |db| {
        let deltas = eval_pending_deltas(&db, "V", |del, ins, _, src| {
            Ok((eval_reference(del, src)?, eval_reference(ins, src)?))
        });
        (db, deltas)
    }));
    out.push(b.run_batched("propagate/fused", make, |db| {
        let deltas = eval_pending_deltas(&db, "V", eval_pair);
        (db, deltas)
    }));
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let bench = if quick {
        Bench::quick()
    } else {
        Bench::from_env()
    };
    let mut out = Vec::new();
    bench_hashing(&bench, &mut out);
    bench_filter_project(&bench, &mut out);
    bench_join_delta(&bench, &mut out);
    bench_propagate(&bench, &mut out);
    if quick {
        println!("exp_eval: {} benchmarks smoke-ran", out.len());
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
        "\nspeedups (median): filter_project fused vs pre-PR {:.2}x, vs reference {:.2}x;\n\
         join_delta indexed vs pre-PR {:.2}x, indexed vs cold {:.2}x; propagate fused vs reference {:.2}x",
        median("eval/filter_project/prepr_sip") / median("eval/filter_project/fused"),
        median("eval/filter_project/reference") / median("eval/filter_project/fused"),
        median("eval/join_delta/prepr_sip") / median("eval/join_delta/indexed"),
        median("eval/join_delta/cold") / median("eval/join_delta/indexed"),
        median("propagate/reference") / median("propagate/fused"),
    );

    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join("BENCH_eval.json");
        match write_json_stamped(&path, &out) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}
