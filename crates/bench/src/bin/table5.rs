//! Table 5: improving RSB solutions under Fitness 2 (worst cut). The
//! population is seeded with the RSB partition and the GA minimizes
//! `max_q C(q)` — a refinement RSB itself has no mechanism for.
//!
//! Run: `cargo run -p gapart-bench --release --bin table5`

use gapart_bench::paper_data::TABLE5;
use gapart_bench::table::PaperTable;
use gapart_bench::ExperimentProtocol;
use gapart_core::FitnessKind;
use gapart_graph::generators::paper_graph;

fn main() {
    let protocol = ExperimentProtocol::from_env();
    let table = PaperTable {
        title: "Table 5 — Improving RSB solutions under Fitness 2 (worst cut)",
        parts: [4, 8],
        rows: &TABLE5,
        suffixes: [" nodes — DKNUX", " nodes — RSB"],
    };
    print!(
        "{}",
        table.render(&protocol, |label, parts| {
            let graph = paper_graph(label.parse().expect("table5 labels are node counts"));
            let rsb = protocol.baseline("rsb", &graph, parts);
            let summary = protocol.run_seeded(&graph, parts, FitnessKind::WorstCut, &rsb.partition);
            [summary.best_cut, rsb.metrics.max_cut]
        })
    );
}
