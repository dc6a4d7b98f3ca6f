//! Input generation (the `workload` layer): every input is a pure
//! function of `--seed`; the engine only ever sees what comes out of here.
//!
//! All streams are *stationary*: each inserted row is matched by the
//! delete of a live row, so `|sales|` stays level and a faster engine
//! does not end up measuring a bigger table because it got further.

use dvm::workload::{RetailConfig, RetailGen};
use dvm::{Bag, ChangeEvent, Transaction};

/// Table sizes of one workload (frozen in README.md).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub customers: usize,
    pub sales: usize,
}

/// The retail generator for `sizes`, seeded.
pub fn retail(sizes: Sizes, seed: u64) -> RetailGen {
    RetailGen::new(RetailConfig {
        customers: sizes.customers,
        items: (sizes.customers / 2).max(10),
        initial_sales: sizes.sales,
        high_fraction: 0.1,
        theta: 1.0,
        seed,
    })
}

/// Event `i` of the single-row stream: even `i` inserts a new sale, odd
/// `i` returns (deletes) a live one.
pub fn stream_tx(gen: &mut RetailGen, i: u64) -> Transaction {
    if i.is_multiple_of(2) {
        gen.mixed_batch(1, 0)
    } else {
        gen.mixed_batch(0, 1)
    }
}

/// [`stream_tx`] as the CDC event the ingest pipeline takes.
pub fn stream_event(gen: &mut RetailGen, i: u64) -> ChangeEvent {
    let tx = stream_tx(gen, i);
    let (del, ins) = tx.get("sales").expect("stream events touch sales");
    ChangeEvent::delta("sales", del.clone(), ins.clone())
}

/// `n` returns of live sales and `n` new sales in one transaction. The
/// returns are drawn first, so none of them hits a row the transaction
/// itself inserts and `|sales|` stays exactly level.
fn level_batch(gen: &mut RetailGen, n: usize) -> Transaction {
    let returns = gen.mixed_batch(0, n);
    let sales = gen.sales_batch(n);
    let (del, _) = returns.get("sales").expect("returns touch sales");
    let (_, ins) = sales.get("sales").expect("sales touch sales");
    Transaction::new()
        .delete("sales", del.clone())
        .insert("sales", ins.clone())
}

/// Rows a [`BulkCycles`] transaction changes in `sales` (half inserts, half deletes) and
/// customers whose score it flips.
pub const BULK_SALES_ROWS: usize = 2_400;
pub const BULK_SCORE_FLIPS: usize = 20;

/// Cycle transactions of `bulk_refresh`: `BULK_SALES_ROWS / 2` inserts
/// and as many deletes on `sales`, plus `BULK_SCORE_FLIPS` customer score
/// flips so ▼/▲ join against the big side. Every odd cycle flips the
/// previous cycle's customers back, so `customer` returns to its loaded
/// state every two cycles.
pub struct BulkCycles {
    undo: Option<(Bag, Bag)>,
}

impl BulkCycles {
    pub fn new() -> Self {
        BulkCycles { undo: None }
    }

    pub fn next(&mut self, gen: &mut RetailGen) -> Transaction {
        let tx = level_batch(gen, BULK_SALES_ROWS / 2);
        let (del, ins) = match self.undo.take() {
            Some((old, flipped)) => (flipped, old),
            None => {
                let flips = gen.score_change_batch(BULK_SCORE_FLIPS);
                let (old, flipped) = flips.get("customer").expect("score flips touch customer");
                // A customer drawn twice must still flip once.
                let pair = (old.dedup(), flipped.dedup());
                self.undo = Some(pair.clone());
                pair
            }
        };
        tx.delete("customer", del).insert("customer", ins)
    }
}

/// Rows a [`fleet_tx`] inserts, and deletes.
pub const FLEET_HALF: usize = 6;

/// One writer transaction of `readers_fleet`.
pub fn fleet_tx(gen: &mut RetailGen) -> Transaction {
    level_batch(gen, FLEET_HALF)
}

/// splitmix64 — the harness's own choices (which slice a reader asks
/// for) must not disturb the retail generator's stream.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm::Database;

    const SMALL: Sizes = Sizes {
        customers: 200,
        sales: 2_000,
    };

    fn loaded(seed: u64) -> (Database, RetailGen) {
        let db = Database::new();
        let mut gen = retail(SMALL, seed);
        gen.install(&db).unwrap();
        (db, gen)
    }

    fn sales_len(db: &Database) -> u64 {
        db.catalog().require("sales").unwrap().len()
    }

    #[test]
    fn stationary_mix_keeps_sales_level() {
        let (db, mut gen) = loaded(3);
        for i in 0..2_000 {
            db.execute(&stream_tx(&mut gen, i)).unwrap();
            let len = sales_len(&db);
            assert!((2_000..=2_001).contains(&len), "event {i}: |sales| = {len}");
        }
        for _ in 0..50 {
            db.execute(&fleet_tx(&mut gen)).unwrap();
            assert_eq!(sales_len(&db), 2_000);
        }
    }

    #[test]
    fn bulk_cycles_restore_customer_every_two_cycles() {
        let (db, mut gen) = loaded(5);
        let loaded_customers = db.catalog().bag_of("customer").unwrap();
        let mut cycles = BulkCycles::new();
        for c in 0..6 {
            db.execute(&cycles.next(&mut gen)).unwrap();
            assert_eq!(sales_len(&db), 2_000);
            let same = db.catalog().bag_of("customer").unwrap() == loaded_customers;
            assert_eq!(same, c % 2 == 1, "cycle {c}");
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let render = |seed: u64| {
            let (db, mut gen) = loaded(seed);
            let mut cycles = BulkCycles::new();
            let mut out = format!(
                "{:?}",
                db.catalog().bag_of("sales").unwrap().sorted_entries()
            );
            for i in 0..64 {
                out += &format!("{:?}", stream_event(&mut gen, i));
            }
            for _ in 0..4 {
                out += &format!("{:?}", cycles.next(&mut gen));
                out += &format!("{:?}", fleet_tx(&mut gen));
            }
            out.into_bytes()
        };
        assert_eq!(render(11), render(11));
        assert_ne!(render(11), render(12));
    }
}
