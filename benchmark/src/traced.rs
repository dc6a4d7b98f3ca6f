//! The traced run: the benchmark orchestrates, one span per call into a
//! layer's public function.

use crate::gen::{self, BulkCycles, SplitMix};
use crate::layers;
use crate::trace::Trace;
use crate::workloads::{Built, How, Kind, Shape};
use dvm::{Database, ExecReport, Transaction};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Span medians and totals of one traced run, in reporting units.
pub struct Traced {
    pub trace: Trace,
    /// Wall of the traced loop (the probes after it are not in it).
    pub wall_ns: u64,
    pub rows: u64,
    pub txs: u64,
    pub rounds: u64,
    pub wal_bytes: u64,
    pub span_cost_ns: f64,
    pub failed: u64,
    pub attempted: u64,
}

const NORMALIZE_EVERY: u64 = 16;
const READ_THROUGH_EVERY_ROUND: u64 = 4;
const PROBE_REPS: usize = 9;
const RECOMPUTE_REPS: usize = 3;

/// Single-threaded over the same generated inputs as the deployed run:
/// the benchmark orchestrates, and wraps every call into a layer's public
/// function in a span. Per operation: generate → (normalize probe) →
/// commit [makesafe, base apply] → WAL sync → propagate → refresh or
/// partial refresh → reads; then the storage/delta/algebra/durability
/// probes on the last operations' bags.
pub fn run_traced(kind: Kind, built: &mut Built, shape: Shape, budget: Duration) -> Traced {
    let db = &built.db;
    let gen = &mut built.gen;
    let views = &built.views;
    let durable = db.is_durable();
    let mut tr = Trace::new();
    let (mut rows, mut txs_done, mut rounds) = (0u64, 0u64, 0u64);
    let mut cycles = BulkCycles::new();
    let mut pick = SplitMix(0x5eed);
    let customers = kind.sizes().customers as u64;
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut ok = |r: bool| {
        attempted += 1;
        failed += u64::from(!r);
    };
    let wal_bytes = |db: &Database| {
        db.wal_status()
            .map_or(0, |(s, _)| s.sealed_bytes + s.active_bytes)
    };
    let wal_before = wal_bytes(db);
    let mut recent: Vec<Transaction> = Vec::new();

    let loop_start = tr.now_ns();
    let deadline = Instant::now() + budget;
    let mut event = 0u64;
    for op in 0u64.. {
        if Instant::now() >= deadline {
            break;
        }
        let root = tr.open("op", "bench", None, op);
        let txs: Vec<Transaction> = tr.span("gen", "workload", Some(root), op, || match kind {
            Kind::StreamSla | Kind::IngestSat => (0..shape.batch)
                .map(|_| {
                    event += 1;
                    gen::stream_tx(gen, event - 1)
                })
                .collect(),
            Kind::BulkRefresh => vec![cycles.next(gen)],
            Kind::ReadersFleet => vec![gen::fleet_tx(gen)],
        });
        if op % NORMALIZE_EVERY == 0 {
            let r = tr.span("normalize", "delta", Some(root), op, || {
                layers::normalize(db, &txs[0])
            });
            ok(r.is_ok());
        }
        let commit = tr.open("commit", "core", Some(root), op);
        let mut report = ExecReport::default();
        for tx in &txs {
            match db.execute(tx) {
                Ok(r) => {
                    report.base_apply_nanos += r.base_apply_nanos;
                    report.maintenance_nanos += r.maintenance_nanos;
                    ok(true);
                }
                Err(_) => ok(false),
            }
            rows += tx.change_volume();
        }
        tr.close(commit);
        tr.reported_child("makesafe", "core", commit, 0, report.maintenance_nanos);
        tr.reported_child(
            "base_apply",
            "core",
            commit,
            report.maintenance_nanos,
            report.base_apply_nanos,
        );
        txs_done += txs.len() as u64;
        if durable && (op + 1) % shape.sync_every == 0 {
            let r = tr.span("sync", "durability", Some(root), op, || db.sync_wal());
            ok(r.is_ok());
        }
        let refresh_due = (op + 1) % shape.refresh_every == 0;
        if refresh_due || (op + 1) % shape.propagate_every == 0 {
            for (name, how) in views {
                if *how != How::BaseLog {
                    let r = tr.span("propagate", "core", Some(root), op, || db.propagate(name));
                    ok(r.is_ok());
                }
            }
        }
        if refresh_due {
            rounds += 1;
            for (name, how) in views {
                // After the propagate above a partial refresh brings MV to
                // the same state a full refresh does; alternate the two.
                let r = if *how != How::BaseLog && rounds % 2 == 0 {
                    tr.span("partial_refresh", "core", Some(root), op, || {
                        db.partial_refresh(name)
                    })
                } else {
                    tr.span("refresh", "core", Some(root), op, || db.refresh(name))
                };
                ok(r.is_ok());
            }
            for (name, _) in views {
                let r = tr.span("query_view", "core", Some(root), op, || {
                    db.query_view(name).map(|b| black_box(b.len()))
                });
                ok(r.is_ok());
            }
            if rounds % READ_THROUGH_EVERY_ROUND == 0 {
                let who = layers::customer_slice((pick.next() % customers) as i64);
                let r = tr.span("read_through", "core", Some(root), op, || {
                    db.read_through_where(&views[0].0, &who)
                        .map(|b| black_box(b.len()))
                });
                ok(r.is_ok());
            }
        }
        tr.close(root);
        recent.extend(txs);
        let keep = recent.len().saturating_sub(2);
        recent.drain(..keep);
    }
    let wall_ns = tr.now_ns() - loop_start;
    let wal_bytes = wal_bytes(db).saturating_sub(wal_before);

    // Probes: the storage and delta primitives on a base-table-sized bag
    // with this workload's per-commit delta, a from-scratch recompute of
    // every view, a checkpoint. Their spans are named `probe.*` and lie
    // after the loop, outside `wall_ns`.
    let probe_op = tr.spans.last().map_or(0, |s| s.op_id + 1);
    let delta_of = |tx: &Transaction| {
        tx.get("sales")
            .map(|(d, i)| (d.clone(), i.clone()))
            .unwrap_or_default()
    };
    if let [prev, last] = recent.as_slice() {
        let (prev, last) = (delta_of(prev), delta_of(last));
        let mut bag = db.catalog().bag_of("sales").expect("sales exists");
        for _ in 0..PROBE_REPS {
            // `last` is already applied to `sales`: take it out off the
            // clock, put it back on the clock.
            layers::bag_apply_delta(&mut bag, &last.1, &last.0);
            tr.span("probe.apply_delta", "storage", None, probe_op, || {
                layers::bag_apply_delta(&mut bag, &last.0, &last.1)
            });
            tr.span("probe.union", "storage", None, probe_op, || {
                black_box(layers::bag_union(&bag, &last.1).len())
            });
            tr.span("probe.monus", "storage", None, probe_op, || {
                black_box(layers::bag_monus(&bag, &last.1).len())
            });
            tr.span("probe.compose", "delta", None, probe_op, || {
                black_box(
                    layers::compose((&prev.0, &prev.1), (&last.0, &last.1))
                        .0
                        .len(),
                )
            });
        }
    }
    for _ in 0..RECOMPUTE_REPS {
        for (name, _) in views {
            let r = tr.span("probe.recompute", "algebra", None, probe_op, || {
                db.recompute_view(name).map(|b| black_box(b.len()))
            });
            ok(r.is_ok());
        }
    }
    if durable {
        let r = tr.span("probe.checkpoint", "durability", None, probe_op, || {
            db.checkpoint()
        });
        ok(r.is_ok());
    }

    // What recording one span costs, from a loop that records nothing else.
    let mut idle = Trace::new();
    let reps = 20_000;
    let call = Instant::now();
    for i in 0..reps {
        idle.span("idle", "bench", None, i, || ());
    }
    let span_cost_ns = call.elapsed().as_nanos() as f64 / reps as f64;
    black_box(idle.spans.len());

    Traced {
        trace: tr,
        wall_ns,
        rows,
        txs: txs_done,
        rounds,
        wal_bytes,
        span_cost_ns,
        failed,
        attempted,
    }
}
