//! Cross-crate integration tests: the full pipelines a user of the facade
//! crate would run, spanning graph generation, baselines, the GA, and
//! incremental repartitioning.

use gapart::core::incremental::{greedy_neighbor_assign, incremental_ga};
use gapart::core::population::InitStrategy;
use gapart::core::{
    CrossoverOp, DpgaConfig, DpgaEngine, FitnessEvaluator, FitnessKind, GaConfig, GaEngine,
    Topology,
};
use gapart::graph::generators::{paper_graph, PAPER_SIZES};
use gapart::graph::incremental::grow_local;
use gapart::graph::partition::{cut_size, PartitionMetrics};
use gapart::ibp::ibp_partition;
use gapart::rsb::{rsb_partition, DEFAULT_SEED};

fn quick_ga(parts: u32, gens: usize) -> GaConfig {
    GaConfig::paper_defaults(parts)
        .with_population_size(48)
        .with_generations(gens)
        .with_seed(11)
}

#[test]
fn every_paper_graph_flows_through_all_partitioners() {
    for &n in &PAPER_SIZES {
        let g = paper_graph(n);
        for parts in [2u32, 4] {
            let ibp = ibp_partition(&g, parts).unwrap();
            let rsb = rsb_partition(&g, parts, DEFAULT_SEED).unwrap();
            let ga = GaEngine::new(&g, quick_ga(parts, 10)).unwrap().run();
            for (name, p) in [("ibp", &ibp), ("rsb", &rsb), ("ga", &ga.best_partition)] {
                let m = PartitionMetrics::compute(&g, p);
                assert_eq!(
                    m.part_loads.iter().sum::<u64>(),
                    n as u64,
                    "{name} lost nodes on n={n}, parts={parts}"
                );
                assert!(
                    m.total_cut > 0,
                    "{name} reported a zero cut on a connected mesh"
                );
            }
        }
    }
}

#[test]
fn ga_refines_rsb_without_regression() {
    let g = paper_graph(139);
    for parts in [2u32, 4, 8] {
        let rsb = rsb_partition(&g, parts, DEFAULT_SEED).unwrap();
        let evaluator = FitnessEvaluator::new(&g, parts, FitnessKind::TotalCut);
        let seed_fitness = evaluator.evaluate(rsb.labels());
        let config = quick_ga(parts, 40).seeded_from(&rsb);
        let result = GaEngine::new(&g, config).unwrap().run();
        assert!(
            result.best_fitness >= seed_fitness,
            "parts={parts}: GA regressed below its RSB seed"
        );
    }
}

#[test]
fn dpga_full_paper_configuration_runs() {
    // The exact §4 setup (16 subpops, 320 individuals) on the smallest
    // paper graph, with a reduced generation budget to stay test-fast.
    let g = paper_graph(78);
    let config = DpgaConfig::paper(4).with_base(
        GaConfig::paper_defaults(4)
            .with_generations(15)
            .with_seed(3),
    );
    let result = DpgaEngine::new(&g, config).unwrap().run();
    assert_eq!(result.per_subpop.len(), 16);
    assert_eq!(result.best_partition.num_nodes(), 78);
    let m = PartitionMetrics::compute(&g, &result.best_partition);
    assert_eq!(m.total_cut, result.best_metrics.total_cut);
}

#[test]
fn incremental_pipeline_end_to_end() {
    let base = paper_graph(118);
    let old = rsb_partition(&base, 4, DEFAULT_SEED).unwrap();
    let grown = grow_local(&base, 21, 5).unwrap();
    assert_eq!(grown.graph.num_nodes(), 139);

    // Deterministic baseline and GA both cover the grown graph.
    let greedy = greedy_neighbor_assign(&grown.graph, &old).unwrap();
    assert_eq!(greedy.num_nodes(), 139);

    let result = incremental_ga(&grown.graph, &old, quick_ga(4, 40)).unwrap();
    assert_eq!(result.best_partition.num_nodes(), 139);

    let e = FitnessEvaluator::new(&grown.graph, 4, FitnessKind::TotalCut);
    assert!(
        e.evaluate(result.best_partition.labels()) >= e.evaluate(greedy.labels()),
        "incremental GA lost to the greedy baseline"
    );
}

#[test]
fn heterogeneous_islands_never_lose_the_seed() {
    let g = paper_graph(98);
    let parts = 4;
    let ibp = ibp_partition(&g, parts).unwrap();
    let seeded = InitStrategy::Seeded {
        partition: ibp.labels().to_vec(),
        perturbation: 0.1,
    };
    let config = DpgaConfig {
        base: GaConfig::paper_defaults(parts)
            .with_population_size(64)
            .with_generations(15)
            .with_init(seeded.clone())
            .with_seed(9),
        topology: Topology::Hypercube(2),
        migration_interval: 5,
        init_overrides: Some(vec![seeded, InitStrategy::BalancedRandom]),
    };
    let result = DpgaEngine::new(&g, config).unwrap().run();
    let e = FitnessEvaluator::new(&g, parts, FitnessKind::TotalCut);
    assert!(result.best_fitness >= e.evaluate(ibp.labels()));
}

#[test]
fn multilevel_rsb_agrees_with_flat_rsb_quality_class() {
    let g = paper_graph(309);
    let flat = rsb_partition(&g, 8, DEFAULT_SEED).unwrap();
    // The registry's `mlrsb` at the seed multilevel RSB defaulted to.
    let mlrsb = gapart::partitioners::by_name("mlrsb").unwrap();
    let ml = mlrsb.partition(&g, 8, 0x4d4c_5253).unwrap().partition;
    let cf = cut_size(&g, &flat);
    let cm = cut_size(&g, &ml);
    assert!(cm <= cf * 2, "multilevel cut {cm} vs flat {cf}");
}

#[test]
fn worst_cut_objective_improves_its_own_metric() {
    // Optimizing Fitness 2 must drive max_q C(q) well below the initial
    // population's value, and the reported cut is the max cut.
    let g = paper_graph(144);
    let parts = 8;
    let result = GaEngine::new(&g, quick_ga(parts, 80).with_fitness(FitnessKind::WorstCut))
        .unwrap()
        .run();
    assert_eq!(result.best_cut, result.best_metrics.max_cut);
    let initial = result.history.best_cut[0];
    let final_cut = *result.history.best_cut.last().unwrap();
    assert!(
        final_cut * 2 <= initial * 3,
        "worst cut barely improved: {initial} -> {final_cut}"
    );
}

#[test]
fn dknux_dominates_traditional_operators_on_fixed_budget() {
    let g = paper_graph(167);
    let mut cuts = std::collections::HashMap::new();
    for op in [CrossoverOp::TwoPoint, CrossoverOp::Dknux] {
        let mut config = quick_ga(4, 60).with_crossover(op);
        config.elite_swap_passes = 0; // isolate the operator effect
        let r = GaEngine::new(&g, config).unwrap().run();
        cuts.insert(op.to_string(), r.best_cut);
    }
    assert!(
        cuts["DKNUX"] < cuts["2-point"],
        "DKNUX {} should beat 2-point {}",
        cuts["DKNUX"],
        cuts["2-point"]
    );
}

#[test]
fn metis_round_trip_preserves_ga_results() {
    // Serialize a paper graph, parse it back, and check the GA sees the
    // identical problem (same fitness for the same chromosome).
    let g = paper_graph(88);
    let text = gapart::graph::io::to_metis(&g);
    let g2 = gapart::graph::io::from_metis(&text).unwrap();
    let e1 = FitnessEvaluator::new(&g, 4, FitnessKind::TotalCut);
    let e2 = FitnessEvaluator::new(&g2, 4, FitnessKind::TotalCut);
    let genes: Vec<u32> = (0..88).map(|v| v % 4).collect();
    assert_eq!(e1.evaluate(&genes), e2.evaluate(&genes));
}
