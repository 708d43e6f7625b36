//! Table 2: improving Recursive Spectral Bisection solutions with the GA,
//! using Fitness 1. The population is seeded with the RSB partition; the
//! GA must end at least as good and usually better.
//!
//! Run: `cargo run -p gapart-bench --release --bin table2`

use gapart_bench::paper_data::TABLE2;
use gapart_bench::table::PaperTable;
use gapart_bench::ExperimentProtocol;
use gapart_core::FitnessKind;
use gapart_graph::generators::paper_graph;

fn main() {
    let protocol = ExperimentProtocol::from_env();
    let table = PaperTable {
        title: "Table 2 — Improving RSB solutions with the GA, Fitness 1",
        parts: [2, 4, 8],
        rows: &TABLE2,
        suffixes: [" nodes — DKNUX", " nodes — RSB"],
    };
    print!(
        "{}",
        table.render(&protocol, |label, parts| {
            let graph = paper_graph(label.parse().expect("table2 labels are node counts"));
            let rsb = protocol.baseline("rsb", &graph, parts);
            let summary = protocol.run_seeded(&graph, parts, FitnessKind::TotalCut, &rsb.partition);
            [summary.best_cut, rsb.metrics.total_cut]
        })
    );
}
