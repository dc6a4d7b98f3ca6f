//! Crash-recovery fault injection: every interesting crash point — torn
//! frame, post-append-pre-fsync power loss, bit rot, crash mid-checkpoint
//! rename — must recover to a state where every view's invariant holds and
//! the database is indistinguishable from a never-crashed twin that simply
//! executed fewer transactions.
//!
//! The scripted workload below is chosen so that **each op appends exactly
//! one WAL record**; op `k` therefore carries LSN `k`, and a WAL prefix of
//! `k` complete frames recovers precisely `twin(k)`.

use dvm_algebra::{col, lit, AggCall, AggFunc, ColRef, Expr, Predicate};
use dvm_core::{Database, Minimality, Scenario};
use dvm_delta::Transaction;
use dvm_durability::{CrashFs, DurabilityPolicy, WalOptions};
use dvm_storage::{tuple, Schema, ValueType};
use dvm_testkit::Prop;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvm-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn schema_ab() -> Schema {
    Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Int)])
}

fn def_r() -> Expr {
    Expr::table("r").select(Predicate::gt(col("b"), lit(2)))
}

fn def_s() -> Expr {
    Expr::table("s").select(Predicate::le(col("b"), lit(40)))
}

fn def_union() -> Expr {
    def_r().union(def_s())
}

fn def_agg() -> Expr {
    Expr::table("r").group_aggregate(
        vec![ColRef::new("a")],
        vec![
            AggCall::count_star(),
            AggCall::new(AggFunc::Sum, ColRef::new("b")),
            AggCall::new(AggFunc::Avg, ColRef::new("b")),
            AggCall::new(AggFunc::Min, ColRef::new("b")),
            AggCall::new(AggFunc::Max, ColRef::new("b")),
        ],
    )
}

type Op = (&'static str, fn(&Database));

/// The scripted workload: one WAL record per op, covering all four
/// scenarios, the shared epoch log, and every maintenance verb.
const OPS: &[Op] = &[
    ("create r", |db| {
        db.create_table("r", schema_ab()).unwrap();
    }),
    ("create s", |db| {
        db.create_table("s", schema_ab()).unwrap();
    }),
    ("view v_im", |db| {
        db.create_view("v_im", def_r(), Scenario::Immediate)
            .unwrap();
    }),
    ("view v_bl", |db| {
        db.create_view("v_bl", def_r(), Scenario::BaseLog).unwrap();
    }),
    ("view v_dt", |db| {
        db.create_view("v_dt", def_s(), Scenario::DiffTable)
            .unwrap();
    }),
    ("view v_c", |db| {
        db.create_view_with("v_c", def_union(), Scenario::Combined, Minimality::Strong)
            .unwrap();
    }),
    ("view v_sh", |db| {
        db.create_view_shared("v_sh", def_r(), Minimality::Weak)
            .unwrap();
    }),
    ("tx ins r", |db| {
        db.execute(
            &Transaction::new()
                .insert_tuple("r", tuple![1, 5])
                .insert_tuple("r", tuple![2, 1]),
        )
        .unwrap();
    }),
    ("tx ins s", |db| {
        db.execute(&Transaction::new().insert_tuple("s", tuple![3, 10]))
            .unwrap();
    }),
    ("tx move r", |db| {
        db.execute(
            &Transaction::new()
                .delete_tuple("r", tuple![2, 1])
                .insert_tuple("r", tuple![4, 7]),
        )
        .unwrap();
    }),
    ("propagate v_c", |db| {
        db.propagate("v_c").unwrap();
    }),
    ("tx ins s wide", |db| {
        db.execute(&Transaction::new().insert_tuple("s", tuple![5, 100]))
            .unwrap();
    }),
    ("partial_refresh v_c", |db| {
        db.partial_refresh("v_c").unwrap();
    }),
    ("tx del s", |db| {
        db.execute(&Transaction::new().delete_tuple("s", tuple![3, 10]))
            .unwrap();
    }),
    ("refresh v_bl", |db| {
        db.refresh("v_bl").unwrap();
    }),
    ("propagate v_sh", |db| {
        db.propagate("v_sh").unwrap();
    }),
    ("tx ins r late", |db| {
        db.execute(&Transaction::new().insert_tuple("r", tuple![6, 3]))
            .unwrap();
    }),
    ("refresh v_c", |db| {
        db.refresh("v_c").unwrap();
    }),
    ("vacuum", |db| {
        db.vacuum_shared_log();
    }),
    ("tx ins r tail", |db| {
        db.execute(&Transaction::new().insert_tuple("r", tuple![7, 9]))
            .unwrap();
    }),
    ("refresh v_sh", |db| {
        db.refresh("v_sh").unwrap();
    }),
    // Aggregate view under the same crash matrix: the WAL must replay
    // the γ definition (Expr codec tag 12), its diff tables, and every
    // maintenance verb so each cut recovers the exact possibly-stale
    // state of the never-crashed twin.
    ("view v_agg", |db| {
        db.create_view_with("v_agg", def_agg(), Scenario::Combined, Minimality::Weak)
            .unwrap();
    }),
    ("tx ins r agg", |db| {
        db.execute(
            &Transaction::new()
                .insert_tuple("r", tuple![1, 6])
                .insert_tuple("r", tuple![2, 2]),
        )
        .unwrap();
    }),
    ("propagate v_agg", |db| {
        db.propagate("v_agg").unwrap();
    }),
    ("tx del r extremum", |db| {
        // Removes group a=7's only row — its MIN and MAX — so replaying
        // this op forces the aggregate delta to retire a whole group;
        // v_agg stays stale until the next op refreshes it.
        db.execute(
            &Transaction::new()
                .delete_tuple("r", tuple![7, 9])
                .insert_tuple("r", tuple![1, 4]),
        )
        .unwrap();
    }),
    ("refresh v_agg", |db| {
        db.refresh("v_agg").unwrap();
    }),
];

fn apply_ops(db: &Database, n: usize) {
    for (name, op) in &OPS[..n] {
        let _ = name;
        op(db);
    }
}

/// A never-crashed in-memory twin that ran the first `n` ops.
fn twin(n: usize) -> Database {
    let db = Database::new();
    apply_ops(&db, n);
    db
}

/// Recovered state must be indistinguishable from the twin: same tables
/// (bases, MVs, logs, differentials — `Internal` tables included), same
/// views with the same materializations and read-through answers, same
/// shared-log backlog, and every invariant intact.
fn assert_equiv(got: &Database, want: &Database, ctx: &str) {
    assert_eq!(
        got.catalog().table_names(),
        want.catalog().table_names(),
        "{ctx}: table set"
    );
    for name in got.catalog().table_names() {
        assert_eq!(
            got.catalog().bag_of(&name).unwrap(),
            want.catalog().bag_of(&name).unwrap(),
            "{ctx}: table {name}"
        );
    }
    assert_eq!(got.view_names(), want.view_names(), "{ctx}: view set");
    for v in got.view_names() {
        assert_eq!(
            got.query_view(&v).unwrap(),
            want.query_view(&v).unwrap(),
            "{ctx}: MV of {v}"
        );
        assert_eq!(
            got.read_through(&v).unwrap(),
            want.read_through(&v).unwrap(),
            "{ctx}: read_through {v}"
        );
    }
    assert_eq!(
        got.shared_log_stats(),
        want.shared_log_stats(),
        "{ctx}: shared log"
    );
    let failures = got.check_all_invariants().unwrap();
    assert!(
        failures.is_empty(),
        "{ctx}: invariants broken: {failures:?}"
    );
}

/// The acceptance bar beyond state equality: after recovery the engine must
/// keep working — a fresh transaction and a full refresh land the recovered
/// database and the twin on identical, invariant-clean states.
fn assert_equiv_after_resume(got: &Database, want: &Database, ctx: &str) {
    let tx = Transaction::new().insert_tuple("r", tuple![9, 9]);
    got.execute(&tx).unwrap();
    want.execute(&tx).unwrap();
    got.refresh_all().unwrap();
    want.refresh_all().unwrap();
    for v in got.view_names() {
        assert_eq!(
            got.query_view(&v).unwrap(),
            want.query_view(&v).unwrap(),
            "{ctx}: post-resume MV of {v}"
        );
    }
    let failures = got.check_all_invariants().unwrap();
    assert!(
        failures.is_empty(),
        "{ctx}: post-resume invariants: {failures:?}"
    );
}

fn wal_off() -> WalOptions {
    WalOptions {
        policy: DurabilityPolicy::Off,
        segment_bytes: 1 << 20,
    }
}

/// Build the full scripted workload durably at `dir` and return the frame
/// boundaries of its (single) WAL segment.
fn build_base(dir: &PathBuf) -> Vec<u64> {
    let db = Database::open_with_options(dir, wal_off()).unwrap();
    apply_ops(&db, OPS.len());
    drop(db);
    let tail = CrashFs::tail_segment(dir).unwrap().expect("wal segment");
    let bounds = CrashFs::frame_boundaries(&tail).unwrap();
    assert_eq!(bounds.len(), OPS.len() + 1, "one frame per op");
    bounds
}

#[test]
fn torn_tail_matrix_recovers_at_every_crash_point() {
    let base = tmpdir("matrix");
    let bounds = build_base(&base);

    // Crash points: every frame boundary (clean prefix) plus two cuts
    // strictly inside every frame (torn length field, torn payload).
    let mut cuts: Vec<(u64, usize, bool)> = Vec::new(); // (cut, expected ops, torn?)
    for k in 0..OPS.len() + 1 {
        cuts.push((bounds[k], k, false));
        if k < OPS.len() {
            cuts.push((bounds[k] + 1, k, true));
            if bounds[k + 1] - 1 > bounds[k] + 1 {
                cuts.push((bounds[k + 1] - 1, k, true));
            }
        }
    }

    for (i, &(cut, expect, torn)) in cuts.iter().enumerate() {
        let clone = tmpdir(&format!("matrix-{i}"));
        CrashFs::clone_dir(&base, &clone).unwrap();
        CrashFs::truncate_wal_tail(&clone, cut).unwrap();

        let ctx = format!("cut at byte {cut} ({expect} ops survive)");
        let recovered = Database::open_with_options(&clone, wal_off())
            .unwrap_or_else(|e| panic!("{ctx}: open failed: {e}"));
        let report = recovered.recovery_report().unwrap();
        assert_eq!(report.checkpoint_lsn, 0, "{ctx}");
        assert_eq!(report.wal_records_replayed, expect as u64, "{ctx}");
        assert_eq!(
            report.wal_bytes_replayed,
            bounds[expect] - bounds[0],
            "{ctx}"
        );
        assert_eq!(report.torn_bytes_dropped, cut - bounds[expect], "{ctx}");
        assert_eq!(report.torn_bytes_dropped > 0, torn, "{ctx}");

        let reference = twin(expect);
        assert_equiv(&recovered, &reference, &ctx);
        // Resuming work is only meaningful once the base tables exist.
        if expect >= 2 {
            assert_equiv_after_resume(&recovered, &reference, &ctx);
        }
        let _ = std::fs::remove_dir_all(&clone);
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn power_loss_drops_exactly_the_unsynced_suffix() {
    let dir = tmpdir("unsynced");
    let db = Database::open_with_options(
        &dir,
        WalOptions {
            policy: DurabilityPolicy::EveryN(4),
            segment_bytes: 1 << 20,
        },
    )
    .unwrap();
    apply_ops(&db, OPS.len());
    let (status, _) = db.wal_status().unwrap();
    assert!(
        status.synced_lsn < OPS.len() as u64,
        "workload must end between fsync batches for this test to bite"
    );

    // Crash with the write-back cache lost: clone while the original is
    // still live, then discard everything past the last fsync.
    let clone = tmpdir("unsynced-crash");
    CrashFs::clone_dir(&dir, &clone).unwrap();
    CrashFs::drop_unsynced(&clone, status.active_synced_bytes).unwrap();
    drop(db);

    let recovered = Database::open(&clone).unwrap();
    let report = recovered.recovery_report().unwrap();
    assert_eq!(report.wal_records_replayed, status.synced_lsn);
    assert_eq!(
        report.torn_bytes_dropped, 0,
        "fsync boundary is a clean cut"
    );
    let reference = twin(status.synced_lsn as usize);
    assert_equiv(&recovered, &reference, "power loss at fsync boundary");
    assert_equiv_after_resume(&recovered, &reference, "power loss at fsync boundary");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clone);
}

#[test]
fn bit_rot_in_tail_drops_the_corrupted_suffix() {
    let base = tmpdir("rot");
    let bounds = build_base(&base);

    // Corrupt (a) the last frame's payload and (b) an interior frame's CRC
    // region; scanning stops at the first bad frame, so recovery keeps the
    // valid prefix in both cases.
    let last = OPS.len();
    for (i, &(offset, expect)) in [
        (bounds[last - 1] + 16, last - 1), // payload byte of the final frame
        (bounds[4] + 12, 4),               // CRC byte of frame 5
    ]
    .iter()
    .enumerate()
    {
        let clone = tmpdir(&format!("rot-{i}"));
        CrashFs::clone_dir(&base, &clone).unwrap();
        CrashFs::corrupt_wal_byte(&clone, offset).unwrap();

        let ctx = format!("bit rot at byte {offset}");
        let recovered = Database::open_with_options(&clone, wal_off()).unwrap();
        let report = recovered.recovery_report().unwrap();
        assert_eq!(report.wal_records_replayed, expect as u64, "{ctx}");
        assert!(report.torn_bytes_dropped > 0, "{ctx}");
        assert_equiv(&recovered, &twin(expect), &ctx);
        let _ = std::fs::remove_dir_all(&clone);
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn checkpoint_crash_points_recover() {
    const CKPT_AT: usize = 14;
    let base = tmpdir("ckpt");
    let db = Database::open_with_options(&base, wal_off()).unwrap();
    apply_ops(&db, CKPT_AT);
    let lsn = db.checkpoint().unwrap();
    assert_eq!(lsn, CKPT_AT as u64, "one WAL record per op before the cut");
    for (_, op) in &OPS[CKPT_AT..] {
        op(&db);
    }
    drop(db);

    // (a) Clean restart: checkpoint + full WAL suffix.
    {
        let clone = tmpdir("ckpt-clean");
        CrashFs::clone_dir(&base, &clone).unwrap();
        let recovered = Database::open_with_options(&clone, wal_off()).unwrap();
        let report = recovered.recovery_report().unwrap();
        assert_eq!(report.checkpoint_lsn, CKPT_AT as u64);
        assert_eq!(report.wal_records_replayed, (OPS.len() - CKPT_AT) as u64);
        assert_equiv(
            &recovered,
            &twin(OPS.len()),
            "clean restart from checkpoint",
        );
        let _ = std::fs::remove_dir_all(&clone);
    }

    // (b) Crash mid-checkpoint: a partial successor checkpoint sits in
    // checkpoint.dvm.tmp, never renamed. Recovery ignores and removes it.
    {
        let clone = tmpdir("ckpt-tmp");
        CrashFs::clone_dir(&base, &clone).unwrap();
        CrashFs::partial_checkpoint_tmp(&clone, &[0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
        let recovered = Database::open_with_options(&clone, wal_off()).unwrap();
        assert_eq!(
            recovered.recovery_report().unwrap().checkpoint_lsn,
            CKPT_AT as u64
        );
        assert_equiv(&recovered, &twin(OPS.len()), "partial checkpoint tmp");
        assert!(
            !clone.join(dvm_durability::CHECKPOINT_TMP).exists(),
            "stale tmp must be cleared"
        );
        let _ = std::fs::remove_dir_all(&clone);
    }

    // (c) Torn tail after the checkpoint: cutting below the checkpoint LSN
    // loses nothing the checkpoint already holds; cutting above it loses
    // only the torn suffix.
    {
        let tail = CrashFs::tail_segment(&base).unwrap().unwrap();
        let bounds = CrashFs::frame_boundaries(&tail).unwrap();
        for &(k, mid) in &[(8usize, true), (CKPT_AT, false), (OPS.len() - 2, true)] {
            let cut = if mid { bounds[k] + 3 } else { bounds[k] };
            let clone = tmpdir(&format!("ckpt-torn-{k}"));
            CrashFs::clone_dir(&base, &clone).unwrap();
            CrashFs::truncate_wal_tail(&clone, cut).unwrap();
            let recovered = Database::open_with_options(&clone, wal_off()).unwrap();
            let expect = k.max(CKPT_AT);
            let ctx = format!("torn tail at frame {k} with checkpoint at {CKPT_AT}");
            assert_eq!(
                recovered.recovery_report().unwrap().wal_records_replayed,
                (expect - CKPT_AT) as u64,
                "{ctx}"
            );
            let reference = twin(expect);
            assert_equiv(&recovered, &reference, &ctx);
            assert_equiv_after_resume(&recovered, &reference, &ctx);
            let _ = std::fs::remove_dir_all(&clone);
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn vacuum_never_truncates_past_the_checkpoint() {
    // Tiny segments force rotation, so sealed segments exist for vacuum
    // and checkpoint to (not) reclaim.
    let options = WalOptions {
        policy: DurabilityPolicy::Always,
        segment_bytes: 96,
    };
    let dir = tmpdir("vacuum");
    let db = Database::open_with_options(&dir, options).unwrap();
    apply_ops(&db, OPS.len());
    let (status, ckpt_lsn) = db.wal_status().unwrap();
    assert!(status.sealed_segments > 0, "workload must rotate segments");
    assert_eq!(ckpt_lsn, 0);

    // Without a checkpoint, vacuum may reclaim shared-log entries but must
    // not drop a single WAL segment — the WAL is the only copy.
    db.vacuum_shared_log();
    let (status2, _) = db.wal_status().unwrap();
    assert_eq!(
        status2.sealed_segments, status.sealed_segments,
        "no checkpoint ⇒ no WAL reclamation"
    );
    drop(db);
    let reference = {
        let t = twin(OPS.len());
        t.vacuum_shared_log();
        t
    };
    let recovered = Database::open_with_options(&dir, options).unwrap();
    assert_equiv(&recovered, &reference, "vacuum before any checkpoint");

    // After a checkpoint, the superseded segments go away; the tail (and
    // recovery) are unaffected.
    recovered.checkpoint().unwrap();
    let (status3, ckpt_lsn) = recovered.wal_status().unwrap();
    assert_eq!(status3.sealed_segments, 0, "checkpoint reclaims sealed WAL");
    assert!(ckpt_lsn > 0);
    recovered
        .execute(&Transaction::new().insert_tuple("r", tuple![8, 8]))
        .unwrap();
    recovered.vacuum_shared_log();
    drop(recovered);
    reference
        .execute(&Transaction::new().insert_tuple("r", tuple![8, 8]))
        .unwrap();
    reference.vacuum_shared_log();
    let reopened = Database::open_with_options(&dir, options).unwrap();
    assert_equiv(&reopened, &reference, "vacuum after checkpoint");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn save_to_dir_then_open_roundtrips() {
    // Export from a purely in-memory database…
    let db = twin(OPS.len());
    let dir = tmpdir("save");
    db.save_to_dir(&dir).unwrap();
    let reopened = Database::open(&dir).unwrap();
    let report = reopened.recovery_report().unwrap();
    assert_eq!(
        report.wal_records_replayed, 0,
        "snapshot carries everything"
    );
    assert_equiv(&reopened, &db, "save_to_dir roundtrip");
    assert!(reopened.is_durable() && !db.is_durable());

    // …and re-export from the recovered database into a dirty directory
    // (stale WAL segments from a previous life must not replay on top).
    reopened
        .execute(&Transaction::new().insert_tuple("r", tuple![8, 8]))
        .unwrap();
    let other = tmpdir("save-other");
    {
        let scratch = Database::open(&other).unwrap();
        scratch.create_table("junk", schema_ab()).unwrap();
    }
    reopened.save_to_dir(&other).unwrap();
    let third = Database::open(&other).unwrap();
    assert_equiv(&third, &reopened, "export over a dirty directory");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&other);
}

#[test]
fn clean_close_property_roundtrip() {
    let case = std::sync::atomic::AtomicUsize::new(0);
    Prop::new("durable-roundtrip").cases(4).run(|rng| {
        let i = case.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let dir = tmpdir(&format!("prop-{i}"));
        let policy = match rng.below(3) {
            0 => DurabilityPolicy::Always,
            1 => DurabilityPolicy::EveryN(1 + rng.below(8)),
            _ => DurabilityPolicy::Off,
        };
        let options = WalOptions {
            policy,
            segment_bytes: 256 + rng.below(4096),
        };
        let db = Database::open_with_options(&dir, options).unwrap();
        let mem = Database::new();
        for d in [&db, &mem] {
            d.create_table("r", schema_ab()).unwrap();
            d.create_table("s", schema_ab()).unwrap();
            d.create_view("v_bl", def_r(), Scenario::BaseLog).unwrap();
            d.create_view_with("v_c", def_union(), Scenario::Combined, Minimality::Weak)
                .unwrap();
            d.create_view_shared("v_sh", def_s(), Minimality::Strong)
                .unwrap();
            d.create_view_with("v_agg", def_agg(), Scenario::Combined, Minimality::Weak)
                .unwrap();
        }
        for _ in 0..30 {
            match rng.below(10) {
                0..=5 => {
                    // A random transaction, derived from the (identical)
                    // current state so deletes always hit live tuples.
                    let mut tx = Transaction::new();
                    for t in ["r", "s"] {
                        if rng.chance(1, 2) {
                            continue;
                        }
                        let current = mem.catalog().bag_of(t).unwrap();
                        let mut del = dvm_storage::Bag::new();
                        for (tuple, mult) in current.iter() {
                            if rng.chance(1, 4) {
                                del.insert_n(tuple.clone(), 1 + rng.below(mult));
                            }
                        }
                        tx = tx.delete(t, del);
                        for _ in 0..rng.below(3) {
                            tx = tx.insert_tuple(t, tuple![rng.range(0, 9), rng.range(0, 50)]);
                        }
                    }
                    db.execute(&tx).unwrap();
                    mem.execute(&tx).unwrap();
                }
                6 => {
                    let v = *rng.choice(&["v_bl", "v_c", "v_sh", "v_agg"]);
                    db.refresh(v).unwrap();
                    mem.refresh(v).unwrap();
                }
                7 => {
                    let v = *rng.choice(&["v_c", "v_sh", "v_agg"]);
                    db.propagate(v).unwrap();
                    mem.propagate(v).unwrap();
                }
                8 => {
                    db.vacuum_shared_log();
                    mem.vacuum_shared_log();
                }
                _ => {
                    // Checkpoints are logically invisible; only the durable
                    // database takes one.
                    db.checkpoint().unwrap();
                }
            }
        }
        drop(db);
        let reopened = Database::open_with_options(&dir, options).unwrap();
        assert_equiv(&reopened, &mem, "property roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// Crash at every frame boundary (and inside every frame) of a
/// group-committed batch: `execute_batch` appends one WAL frame per
/// batched transaction in serialization order and syncs once at the end,
/// so a crash mid-batch must lose exactly a suffix — the recovered
/// database is indistinguishable from a twin that executed just the
/// surviving prefix per-op.
#[test]
fn group_commit_crash_matrix_recovers_batch_prefix() {
    const BATCH: usize = 6;
    const PRELUDE_FRAMES: usize = 3;
    let prelude = |db: &Database| {
        db.create_table("r", schema_ab()).unwrap();
        db.create_view_with("v_c", def_r(), Scenario::Combined, Minimality::Weak)
            .unwrap();
        db.execute(&Transaction::new().insert_tuple("r", tuple![0, 9]))
            .unwrap();
    };
    let batch: Vec<Transaction> = (0..BATCH as i64)
        .map(|i| {
            let tx = Transaction::new().insert_tuple("r", tuple![i + 1, i + 3]);
            if i == 4 {
                // A return inside the batch: deletes a row an earlier
                // batched transaction inserted, so prefix recovery must
                // preserve the insert-before-delete order.
                tx.delete_tuple("r", tuple![2, 4])
            } else {
                tx
            }
        })
        .collect();

    let base = tmpdir("group-base");
    let db = Database::open_with_options(&base, wal_off()).unwrap();
    prelude(&db);
    db.execute_batch(&batch).unwrap();
    drop(db);
    let tail = CrashFs::tail_segment(&base).unwrap().expect("wal segment");
    let bounds = CrashFs::frame_boundaries(&tail).unwrap();
    assert_eq!(
        bounds.len(),
        PRELUDE_FRAMES + BATCH + 1,
        "one frame per batched transaction"
    );

    let twin_prefix = |k: usize| {
        let t = Database::new();
        prelude(&t);
        for tx in &batch[..k] {
            t.execute(tx).unwrap();
        }
        t
    };

    for k in 0..=BATCH {
        let frame = PRELUDE_FRAMES + k;
        let mut cuts = vec![bounds[frame]]; // crash exactly at the boundary
        if k < BATCH {
            cuts.push(bounds[frame] + 1); // torn header of batched tx k+1
            cuts.push(bounds[frame + 1] - 1); // torn payload of batched tx k+1
        }
        for (j, &cut) in cuts.iter().enumerate() {
            let clone = tmpdir(&format!("group-{k}-{j}"));
            CrashFs::clone_dir(&base, &clone).unwrap();
            CrashFs::truncate_wal_tail(&clone, cut).unwrap();
            let ctx = format!("crash after {k}/{BATCH} batched txs (cut at byte {cut})");
            let recovered = Database::open_with_options(&clone, wal_off())
                .unwrap_or_else(|e| panic!("{ctx}: open failed: {e}"));
            assert_eq!(
                recovered.recovery_report().unwrap().wal_records_replayed,
                (PRELUDE_FRAMES + k) as u64,
                "{ctx}"
            );
            let reference = twin_prefix(k);
            assert_equiv(&recovered, &reference, &ctx);
            assert_equiv_after_resume(&recovered, &reference, &ctx);
            let _ = std::fs::remove_dir_all(&clone);
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

mod common;

/// One logged step of [`bound_program_is_rebuilt_against_the_recovered_view`]:
/// each appends exactly one WAL record, so a recovered database is the
/// twin that ran a prefix.
enum Step {
    Table(&'static str),
    View(&'static str, Expr, Scenario, Minimality),
    Tx(Transaction),
    Propagate,
    PartialRefresh,
    RefreshBl,
}

impl Step {
    fn run(&self, db: &Database) {
        match self {
            Step::Table(t) => drop(db.create_table(*t, schema_ab()).unwrap()),
            Step::View(v, def, scenario, minimality) => db
                .create_view_with(*v, def.clone(), *scenario, *minimality)
                .unwrap(),
            Step::Tx(tx) => drop(db.execute(tx).unwrap()),
            Step::Propagate => db.propagate("v_c").unwrap(),
            Step::PartialRefresh => db.partial_refresh("v_c").unwrap(),
            Step::RefreshBl => db.refresh("v_bl").unwrap(),
        }
    }
}

/// A root-γ view's delta program reads `PAST(L,Q)` off the view's own
/// tables, so what it is compiled against after a crash is the *recovered*
/// `MV`/`∇MV`/`ΔMV`. Random root-γ definitions (NULL keys and arguments),
/// a checkpoint taken with propagated-but-unapplied work in `∇MV`/`ΔMV`,
/// a WAL tail of transactions cut at and inside its last frames: the
/// recovered views carry no program until first use, the lazily compiled
/// one passes the three-way differential ([`common::three_way`]) before
/// and after a propagate, and maintenance through it lands on the twin.
#[test]
fn bound_program_is_rebuilt_against_the_recovered_view() {
    use dvm_algebra::testgen::{Rng, Universe};
    let u = Universe::mixed(2);
    let mut rng = Rng::new(0xA66_0021);
    let (mut cases, mut dt_nonempty, mut attempts, mut counted) = (0, 0, 0, 0);
    while cases < 40 {
        attempts += 1;
        assert!(attempts < 400, "generator starved");
        let mut def = u.agg_expr(&mut rng, 1);
        // Half the definitions drop their MIN/MAX calls, and are counted.
        if let Expr::GroupAggregate { aggs, .. } = &mut def {
            if rng.chance(1, 2) {
                aggs.retain(|a| !matches!(a.func, AggFunc::Min | AggFunc::Max));
                if aggs.is_empty() {
                    aggs.push(AggCall::count_star());
                }
            }
        }
        if def.to_string().contains("EXCEPT") {
            continue;
        }
        // Script the workload against an in-memory database (deletions
        // are drawn from its current contents).
        let mem = Database::new();
        let minimality = *rng.choice(&[Minimality::Weak, Minimality::Strong]);
        let mut steps = vec![
            Step::Table("t0"),
            Step::Table("t1"),
            Step::Tx(
                Transaction::new()
                    .insert("t0", u.bag(&mut rng, 5))
                    .insert("t1", u.bag(&mut rng, 5))
                    .insert_tuple("t0", tuple![1, 1]),
            ),
            Step::View("v_bl", def.clone(), Scenario::BaseLog, Minimality::Weak),
            Step::View("v_c", def.clone(), Scenario::Combined, minimality),
        ];
        steps.iter().for_each(|s| s.run(&mem));
        let random_tx = |rng: &mut Rng, mem: &Database| {
            let mut tx = Transaction::new().insert_tuple("t0", tuple![rng.range(0, 4), 2]);
            for t in ["t0", "t1"] {
                let mut del = dvm_storage::Bag::new();
                for (tuple, mult) in mem.catalog().bag_of(t).unwrap().iter() {
                    if rng.chance(1, 3) {
                        del.insert_n(tuple.clone(), 1 + rng.below(mult));
                    }
                }
                tx = tx.delete(t, del).insert(t, u.bag(rng, 2));
            }
            tx
        };
        for _ in 0..6 {
            let step = match rng.below(6) {
                0..=2 => Step::Tx(random_tx(&mut rng, &mem)),
                3 => Step::Propagate,
                4 => Step::PartialRefresh,
                _ => Step::RefreshBl,
            };
            step.run(&mem);
            steps.push(step);
        }
        // Checkpoint with propagated work pending, then a transaction-only
        // tail: replay runs no maintenance, so nothing compiles a program.
        steps.push(Step::Tx(random_tx(&mut rng, &mem)));
        steps.last().unwrap().run(&mem);
        steps.push(Step::Propagate);
        let ckpt_at = steps.len();
        steps.last().unwrap().run(&mem);
        for _ in 0..2 {
            steps.push(Step::Tx(random_tx(&mut rng, &mem)));
            steps.last().unwrap().run(&mem);
        }

        let base = tmpdir(&format!("bound-{cases}"));
        let db = Database::open_with_options(&base, wal_off()).unwrap();
        steps[..ckpt_at].iter().for_each(|s| s.run(&db));
        assert_eq!(
            db.checkpoint().unwrap(),
            ckpt_at as u64,
            "one record per step"
        );
        steps[ckpt_at..].iter().for_each(|s| s.run(&db));
        drop(db);
        let tail = CrashFs::tail_segment(&base).unwrap().unwrap();
        let bounds = CrashFs::frame_boundaries(&tail).unwrap();
        assert_eq!(bounds.len(), steps.len() + 1);

        // Crash after the last frame, and inside it.
        for (cut, expect) in [
            (bounds[steps.len()], steps.len()),
            (bounds[steps.len()] - 2, steps.len() - 1),
        ] {
            cases += 1;
            let ctx = format!("{def}, {expect} of {} steps survive", steps.len());
            let clone = tmpdir(&format!("bound-{cases}-crash"));
            CrashFs::clone_dir(&base, &clone).unwrap();
            CrashFs::truncate_wal_tail(&clone, cut).unwrap();
            let recovered = Database::open_with_options(&clone, wal_off()).unwrap();
            let report = recovered.recovery_report().unwrap();
            assert_eq!(report.checkpoint_lsn, ckpt_at as u64, "{ctx}");
            assert_eq!(
                report.wal_records_replayed,
                (expect - ckpt_at) as u64,
                "{ctx}"
            );
            let twin = Database::new();
            steps[..expect].iter().for_each(|s| s.run(&twin));

            let s_built = |db: &Database, v: &str| {
                let program = db.view(v).unwrap().delta_program(db.catalog()).unwrap();
                program.counted().map(|c| c.state().is_some())
            };
            for v in ["v_bl", "v_c"] {
                let view = recovered.view(v).unwrap();
                assert!(view.delta_program_stats().is_none(), "{ctx}: {v} is lazy");
                let dt = common::three_way(&recovered, v, &format!("{v} of {ctx}"));
                dt_nonempty += usize::from(dt == Some(true));
                assert!(view.delta_program_stats().is_some(), "{ctx}: {v} compiled");
                // A counted view's `S` is not recovered but rebuilt, lazily.
                assert_ne!(s_built(&recovered, v), Some(true), "{ctx}: {v}'s S is lazy");
            }
            // The recovered `v_bl` is read before any maintenance: a
            // counted one's `S` is built by the read (`v_c`'s is left for
            // the propagate below to build).
            common::read_through_exact(&recovered, "v_bl", &format!("v_bl of {ctx}"));
            let logged = recovered
                .view("v_c")
                .unwrap()
                .internal_tables()
                .iter()
                .any(|t| {
                    t.contains("_log_") && !recovered.catalog().require(t).unwrap().is_empty()
                });
            for db in [&recovered, &twin] {
                db.propagate("v_c").unwrap();
            }
            if let Some(built) = s_built(&recovered, "v_c") {
                counted += 1;
                assert_eq!(
                    built, logged,
                    "{ctx}: the first propagate with a log builds S"
                );
            }
            common::three_way(&recovered, "v_c", &format!("v_c propagated, {ctx}"));
            common::read_through_exact(&recovered, "v_c", &format!("v_c propagated, {ctx}"));
            assert_equiv(&recovered, &twin, &ctx);
            for db in [&recovered, &twin] {
                db.refresh_all().unwrap();
            }
            for v in ["v_bl", "v_c"] {
                let mv = recovered.query_view(v).unwrap();
                assert_eq!(mv, twin.query_view(v).unwrap(), "{ctx}: {v}");
                assert_eq!(mv, recovered.recompute_view(v).unwrap(), "{ctx}: {v}");
            }
            let _ = std::fs::remove_dir_all(&clone);
        }
        let _ = std::fs::remove_dir_all(&base);
    }
    assert!(
        dt_nonempty >= 10,
        "∇MV ⊎ ΔMV non-empty at bind time: {dt_nonempty}"
    );
    assert!(counted >= 10, "counted cases: {counted}");
}
