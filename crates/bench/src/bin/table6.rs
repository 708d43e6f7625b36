//! Table 6: incremental partitioning under Fitness 2 (worst cut), vs RSB
//! from scratch on the grown graph.
//!
//! Run: `cargo run -p gapart-bench --release --bin table6`

use gapart_bench::paper_data::{parse_incremental_label, TABLE6};
use gapart_bench::runner::incremental_fixture;
use gapart_bench::table::PaperTable;
use gapart_bench::ExperimentProtocol;
use gapart_core::FitnessKind;

fn main() {
    let protocol = ExperimentProtocol::from_env();
    let table = PaperTable {
        title: "Table 6 — Incremental partitioning under Fitness 2 (worst cut)",
        parts: [4, 8],
        rows: &TABLE6,
        suffixes: [" — DKNUX (incr)", " — RSB (scratch)"],
    };
    print!(
        "{}",
        table.render(&protocol, |label, parts| {
            let (base_n, added) =
                parse_incremental_label(label).expect("table6 labels are base+added");
            let (_base, grown, old) = incremental_fixture(base_n, added, parts);
            let summary = protocol.run_incremental(&grown, &old, FitnessKind::WorstCut);
            let rsb = protocol.baseline("rsb", &grown, parts);
            [summary.best_cut, rsb.metrics.max_cut]
        })
    );
}
