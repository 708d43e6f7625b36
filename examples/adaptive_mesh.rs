//! Incremental repartitioning of an adaptively-refined mesh — the paper's
//! §4.2 scenario end to end.
//!
//! A solver partitions its mesh, runs, then refines the mesh in a hot
//! region (adding nodes in a local area). Instead of repartitioning from
//! scratch, the incremental GA reuses the previous partition as its seed
//! and repairs it, which both converges faster and keeps most nodes on
//! their original processor (less data movement).
//!
//! Run: `cargo run --release --example adaptive_mesh`

use gapart::core::incremental::{
    extend_partition_balanced, greedy_neighbor_assign, incremental_ga,
};
use gapart::core::{FitnessEvaluator, FitnessKind, GaConfig};
use gapart::graph::generators::paper_graph;
use gapart::graph::incremental::grow_local;
use gapart::graph::partition::PartitionMetrics;
use gapart::rsb::{rsb_partition, DEFAULT_SEED};

fn main() {
    let parts = 4u32;

    // Step 1: initial mesh and partition.
    let mesh = paper_graph(183);
    let initial = rsb_partition(&mesh, parts, DEFAULT_SEED).expect("mesh is partitionable");
    let m0 = PartitionMetrics::compute(&mesh, &initial);
    println!("initial mesh: 183 nodes, cut {}", m0.total_cut);

    // Step 2: adaptive refinement adds 60 nodes around a random hot spot.
    let refined = grow_local(&mesh, 60, 7).expect("mesh has coordinates");
    println!(
        "refined mesh: {} nodes (60 new around node {})",
        refined.graph.num_nodes(),
        refined.anchor
    );

    // Step 3a: the paper's deterministic baseline — each new node joins
    // the part most of its neighbours are in.
    let evaluator = FitnessEvaluator::new(&refined.graph, parts, FitnessKind::TotalCut);
    let greedy = greedy_neighbor_assign(&refined.graph, &initial).expect("prefix partition");
    let greedy_m = PartitionMetrics::compute(&refined.graph, &greedy);
    println!(
        "\ngreedy neighbour-majority baseline: cut {}, imbalance {:.1}",
        greedy_m.total_cut, greedy_m.imbalance
    );

    // Step 3b: the incremental GA (§3.5 seeding + DKNUX).
    let config = GaConfig::paper_defaults(parts)
        .with_generations(120)
        .with_population_size(160)
        .with_seed(42);
    let ga = incremental_ga(&refined.graph, &initial, config).expect("valid incremental run");
    println!(
        "incremental GA (DKNUX):             cut {}, imbalance {:.1}",
        ga.best_metrics.total_cut, ga.best_metrics.imbalance
    );

    // Step 3c: how many nodes stayed on their original part? (data
    // movement cost of the repartitioning)
    let moved = (0..183u32)
        .filter(|&v| ga.best_partition.part(v) != initial.part(v))
        .count();
    println!("nodes migrated off their original part: {moved} / 183");

    // The balanced random extension the GA starts from, for reference.
    let ext = extend_partition_balanced(&refined.graph, &initial, 0).unwrap();
    let ext_cut = PartitionMetrics::compute(&refined.graph, &ext).total_cut;
    println!("(raw balanced extension before optimization: cut {ext_cut})");

    assert!(
        evaluator.evaluate(ga.best_partition.labels()) >= evaluator.evaluate(greedy.labels()),
        "the GA should never lose to the greedy baseline"
    );
    println!("\nincremental GA beat or matched the deterministic baseline ✓");
}
