//! Table 4: minimizing worst-case communication cost (Fitness 2) with a
//! randomly initialized population, vs RSB. Reports `max_q C(q)`.
//!
//! This is the experiment gradient-based methods cannot run at all: the
//! objective `Σ I(q) + max_q C(q)` is not differentiable (§4.3).
//!
//! Run: `cargo run -p gapart-bench --release --bin table4`

use gapart_bench::paper_data::TABLE4;
use gapart_bench::table::PaperTable;
use gapart_bench::ExperimentProtocol;
use gapart_core::{FitnessKind, InitStrategy};
use gapart_graph::generators::paper_graph;

fn main() {
    let protocol = ExperimentProtocol::from_env();
    let table = PaperTable {
        title: "Table 4 — Worst-cut minimization from a random population, Fitness 2",
        parts: [4, 8],
        rows: &TABLE4,
        suffixes: [" nodes — DKNUX", " nodes — RSB"],
    };
    print!(
        "{}",
        table.render(&protocol, |label, parts| {
            let graph = paper_graph(label.parse().expect("table4 labels are node counts"));
            let summary = protocol.run(
                &graph,
                parts,
                FitnessKind::WorstCut,
                InitStrategy::BalancedRandom,
            );
            let rsb = protocol.baseline("rsb", &graph, parts);
            [summary.best_cut, rsb.metrics.max_cut]
        })
    );
}
