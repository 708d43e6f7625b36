//! Refining solutions from other partitioners (the paper's Tables 1–2
//! use case): run IBP and RSB, then let the GA improve both, under both
//! fitness functions.
//!
//! Run: `cargo run --release --example refine_heuristic`

use gapart::core::population::InitStrategy;
use gapart::core::{DpgaConfig, DpgaEngine, FitnessKind, GaConfig};
use gapart::graph::generators::paper_graph;
use gapart::graph::partition::PartitionMetrics;
use gapart::graph::{CsrGraph, Partition};
use gapart::ibp::ibp_partition;
use gapart::rsb::{rsb_partition, DEFAULT_SEED};

/// GA refinement of `seed`: heterogeneous islands (half seeded, half
/// random) so the search explores while elitism protects the seed.
fn refine(graph: &CsrGraph, seed: &Partition, kind: FitnessKind) -> Partition {
    let parts = seed.num_parts();
    let seeded = InitStrategy::Seeded {
        partition: seed.labels().to_vec(),
        perturbation: 0.1,
    };
    let mut base = GaConfig::paper_defaults(parts)
        .with_fitness(kind)
        .with_generations(100)
        .with_population_size(160)
        .with_init(seeded.clone())
        .with_hill_climb(gapart::core::HillClimbMode::Offspring { passes: 1 })
        .with_seed(7);
    base.boundary_mutation_rate = 0.05;
    let config = DpgaConfig {
        base,
        topology: gapart::core::Topology::Hypercube(3),
        migration_interval: 5,
        init_overrides: Some(vec![seeded, InitStrategy::BalancedRandom]),
    };
    DpgaEngine::new(graph, config)
        .expect("valid configuration")
        .run()
        .best_partition
}

fn main() {
    let graph = paper_graph(167);
    let parts = 8u32;
    println!(
        "graph: 167 nodes, {} edges, {parts} parts\n",
        graph.num_edges()
    );

    let ibp = ibp_partition(&graph, parts).expect("coords exist");
    let rsb = rsb_partition(&graph, parts, DEFAULT_SEED).expect("partitionable");

    println!("{:<28} {:>9} {:>9}", "method", "total cut", "worst cut");
    println!("{}", "-".repeat(48));
    for (name, p) in [("IBP (shuffled row-major)", &ibp), ("RSB", &rsb)] {
        let m = PartitionMetrics::compute(&graph, p);
        println!("{name:<28} {:>9} {:>9}", m.total_cut, m.max_cut);
    }

    for (name, seed) in [("IBP", &ibp), ("RSB", &rsb)] {
        let refined_total = refine(&graph, seed, FitnessKind::TotalCut);
        let mt = PartitionMetrics::compute(&graph, &refined_total);
        println!(
            "{:<28} {:>9} {:>9}",
            format!("GA refining {name} (fitness1)"),
            mt.total_cut,
            mt.max_cut
        );
        let refined_worst = refine(&graph, seed, FitnessKind::WorstCut);
        let mw = PartitionMetrics::compute(&graph, &refined_worst);
        println!(
            "{:<28} {:>9} {:>9}",
            format!("GA refining {name} (fitness2)"),
            mw.total_cut,
            mw.max_cut
        );

        let seed_m = PartitionMetrics::compute(&graph, seed);
        assert!(
            mt.total_cut <= seed_m.total_cut,
            "fitness-1 refinement must not worsen the total cut"
        );
    }
    println!("\nGA refinement never worsened a seed ✓");
}
