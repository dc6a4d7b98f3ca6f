//! **E2 — per-transaction overhead by scenario** (paper Sections 1.1, 3,
//! 5.3).
//!
//! Claim: `makesafe_BL`/`makesafe_C` only append to logs, so deferred
//! maintenance imposes minimal per-transaction overhead, while immediate
//! maintenance (`IM`) and differential-table maintenance (`DT`) evaluate
//! incremental queries inside every update transaction — an overhead that
//! grows with base-table size.
//!
//! Setup: the Example-1.1 retail view; 200 transactions of 10 Zipf-skewed
//! sales inserts + 2 deletes each, sweeping the customer-table size.

use dvm_bench::report::TableReport;
use dvm_bench::retail_db;
use dvm_core::{Minimality, Scenario};
use dvm_workload::run_stream;

fn main() {
    println!("=== E2: per-transaction maintenance overhead (µs/tx) ===\n");
    println!("{}\n", dvm_bench::report::Stamp::here().line());
    println!("workload: 200 tx × (10 inserts + 2 deletes) on sales; view = Example 1.1\n");

    let sizes = [1_000usize, 10_000, 50_000];
    let scenarios = [
        (Scenario::Immediate, "IM"),
        (Scenario::BaseLog, "BL"),
        (Scenario::DiffTable, "DT"),
        (Scenario::Combined, "C"),
    ];

    let mut table = TableReport::new([
        "customers".to_string(),
        "bare tx".to_string(),
        "IM".to_string(),
        "BL".to_string(),
        "DT".to_string(),
        "C".to_string(),
        "IM/C ratio".to_string(),
    ]);

    for &customers in &sizes {
        let mut cells = vec![customers.to_string()];
        // baseline: no views at all
        {
            let db = dvm_core::Database::new();
            let mut gen = dvm_workload::RetailGen::new(dvm_workload::RetailConfig {
                customers,
                items: customers / 2,
                initial_sales: customers * 5,
                ..dvm_workload::RetailConfig::default()
            });
            gen.install(&db).unwrap();
            let mut total = 0u64;
            for _ in 0..200 {
                total += db.execute_unmaintained(&gen.mixed_batch(10, 2)).unwrap();
            }
            cells.push(format!("{:.1}", total as f64 / 200.0 / 1e3));
        }
        let mut per_scenario = Vec::new();
        for (scenario, _label) in scenarios {
            let (db, mut gen) = retail_db(customers, customers * 5, scenario, Minimality::Weak, 42);
            let txs: Vec<_> = (0..200).map(|_| gen.mixed_batch(10, 2)).collect();
            let stats = run_stream(&db, txs).unwrap();
            per_scenario.push(stats.mean_overhead_us());
            cells.push(format!("{:.1}", stats.mean_overhead_us()));
        }
        let im = per_scenario[0];
        let c = per_scenario[3].max(0.001);
        cells.push(format!("{:.0}×", im / c));
        table.row(cells);
    }
    table.print();

    println!(
        "\npaper claim reproduced when BL ≈ C ≪ IM ≈ DT and the gap grows with\n\
         base-table size: log appends are O(changes), incremental queries join\n\
         the deltas against ever-larger base tables."
    );
}
