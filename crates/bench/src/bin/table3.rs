//! Table 3: incremental graph partitioning vs RSB-from-scratch, Fitness 1.
//!
//! Protocol per §4.2: partition the base graph, grow it by adding nodes in
//! a random local area, then (a) incrementally repartition with the GA
//! seeded from the old partition, and (b) run RSB from scratch on the
//! grown graph for comparison.
//!
//! Run: `cargo run -p gapart-bench --release --bin table3`

use gapart_bench::paper_data::{parse_incremental_label, TABLE3};
use gapart_bench::runner::incremental_fixture;
use gapart_bench::table::PaperTable;
use gapart_bench::ExperimentProtocol;
use gapart_core::FitnessKind;

fn main() {
    let protocol = ExperimentProtocol::from_env();
    let table = PaperTable {
        title: "Table 3 — Incremental partitioning (DKNUX) vs RSB from scratch, Fitness 1",
        parts: [2, 4, 8],
        rows: &TABLE3,
        suffixes: [" — DKNUX (incr)", " — RSB (scratch)"],
    };
    print!(
        "{}",
        table.render(&protocol, |label, parts| {
            let (base_n, added) =
                parse_incremental_label(label).expect("table3 labels are base+added");
            let (_base, grown, old) = incremental_fixture(base_n, added, parts);
            let summary = protocol.run_incremental(&grown, &old, FitnessKind::TotalCut);
            let rsb = protocol.baseline("rsb", &grown, parts);
            [summary.best_cut, rsb.metrics.total_cut]
        })
    );
}
