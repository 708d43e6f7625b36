//! Table 1: DKNUX (population seeded with an IBP solution) vs RSB, using
//! Fitness 1. Reports total inter-part edges `Σ_q C(q)/2`.
//!
//! Run: `cargo run -p gapart-bench --release --bin table1`

use gapart_bench::paper_data::TABLE1;
use gapart_bench::table::PaperTable;
use gapart_bench::ExperimentProtocol;
use gapart_core::FitnessKind;
use gapart_graph::generators::paper_graph;

fn main() {
    let protocol = ExperimentProtocol::from_env();
    let table = PaperTable {
        title: "Table 1 — Best solutions: DKNUX (IBP-seeded) vs RSB, Fitness 1",
        parts: [2, 4, 8],
        rows: &TABLE1,
        suffixes: [" nodes — DKNUX", " nodes — RSB"],
    };
    print!(
        "{}",
        table.render(&protocol, |label, parts| {
            let graph = paper_graph(label.parse().expect("table1 labels are node counts"));
            let ibp_seed = protocol.baseline("ibp", &graph, parts);
            let summary =
                protocol.run_seeded(&graph, parts, FitnessKind::TotalCut, &ibp_seed.partition);
            let rsb = protocol.baseline("rsb", &graph, parts);
            [summary.best_cut, rsb.metrics.total_cut]
        })
    );
}
