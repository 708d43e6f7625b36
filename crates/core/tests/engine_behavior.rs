//! Behavioral integration tests of the GA engine and DPGA driver:
//! everything a user would rely on beyond "it runs" — budget accounting,
//! seeding guarantees, operator wiring, topology effects, and the
//! incremental pipeline's contract.

use gapart_core::history::average_histories;
use gapart_core::incremental::{extend_partition_balanced, greedy_neighbor_assign};
use gapart_core::population::InitStrategy;
use gapart_core::{
    CrossoverOp, DpgaConfig, DpgaEngine, FitnessEvaluator, FitnessKind, GaConfig, GaEngine,
    HillClimbMode, Topology,
};
use gapart_graph::generators::{gnp, paper_graph};
use gapart_graph::incremental::grow_local;
use gapart_graph::Partition;

fn base(parts: u32) -> GaConfig {
    GaConfig::paper_defaults(parts)
        .with_population_size(40)
        .with_generations(20)
        .with_seed(77)
}

#[test]
fn history_length_tracks_generation_budget() {
    let g = paper_graph(78);
    for gens in [0usize, 1, 7, 20] {
        let r = GaEngine::new(&g, base(4).with_generations(gens))
            .unwrap()
            .run();
        assert_eq!(r.generations_run, gens);
        assert_eq!(r.history.len(), gens + 1, "gens={gens}");
    }
}

#[test]
fn every_crossover_operator_drives_the_engine() {
    let g = paper_graph(78);
    for op in CrossoverOp::ALL {
        let r = GaEngine::new(&g, base(4).with_crossover(op)).unwrap().run();
        assert!(r.best_cut > 0, "{op}");
    }
}

#[test]
fn engine_works_without_coordinates() {
    // KNUX uses adjacency only, so coordinate-free graphs must work.
    let g = gnp(60, 0.15, 3);
    let r = GaEngine::new(&g, base(4)).unwrap().run();
    assert_eq!(r.best_partition.num_nodes(), 60);
}

#[test]
fn dpga_respects_topology_sizes() {
    let g = paper_graph(88);
    for topo in [
        Topology::Hypercube(0),
        Topology::Hypercube(2),
        Topology::Ring(6),
        Topology::Complete(5),
    ] {
        let config = DpgaConfig {
            base: base(4).with_population_size(2 * topo.size().max(8)),
            topology: topo,
            migration_interval: 3,
            init_overrides: None,
        };
        let r = DpgaEngine::new(&g, config).unwrap().run();
        assert_eq!(r.per_subpop.len(), topo.size(), "{topo}");
    }
}

#[test]
fn average_histories_matches_figure_protocol() {
    // 3 runs of different seeds; the averaged curve must lie between the
    // pointwise min and max of the individual curves.
    let g = paper_graph(98);
    let histories: Vec<_> = (0..3)
        .map(|s| {
            GaEngine::new(&g, base(4).with_seed(s))
                .unwrap()
                .run()
                .history
        })
        .collect();
    let (avg_cut, _) = average_histories(&histories);
    for (gidx, &avg) in avg_cut.iter().enumerate() {
        let vals: Vec<f64> = histories
            .iter()
            .map(|h| h.best_cut[gidx.min(h.best_cut.len() - 1)] as f64)
            .collect();
        let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9);
    }
}

#[test]
fn incremental_seeding_contract() {
    // The balanced extension must (a) preserve old labels, (b) be balanced,
    // and (c) produce something the greedy baseline can be compared to.
    let old_g = paper_graph(118);
    let old_p = Partition::round_robin(118, 4);
    let grown = grow_local(&old_g, 41, 9).unwrap().graph;

    let ext = extend_partition_balanced(&grown, &old_p, 5).unwrap();
    for v in 0..118u32 {
        assert_eq!(ext.part(v), old_p.part(v));
    }
    let sizes = ext.part_sizes();
    assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);

    let greedy = greedy_neighbor_assign(&grown, &old_p).unwrap();
    for v in 0..118u32 {
        assert_eq!(greedy.part(v), old_p.part(v));
    }
    // Greedy follows locality, so its cut should beat the random balanced
    // extension's cut (it ignores balance to do so).
    let e = FitnessEvaluator::new(&grown, 4, FitnessKind::TotalCut);
    assert!(e.reported_cut(greedy.labels()) <= e.reported_cut(ext.labels()));
}

#[test]
fn hill_climb_mode_cost_quality_order() {
    // On equal budgets: memetic ≥ plain in quality (it embeds local
    // search); both must be deterministic.
    let g = paper_graph(144);
    let plain = GaEngine::new(&g, base(4).with_generations(15))
        .unwrap()
        .run();
    let memetic = GaEngine::new(
        &g,
        base(4)
            .with_generations(15)
            .with_hill_climb(HillClimbMode::Offspring { passes: 1 }),
    )
    .unwrap()
    .run();
    assert!(memetic.best_fitness >= plain.best_fitness);
}

#[test]
fn seeded_and_random_islands_alternate() {
    // `init_overrides` cycles across the islands. With an unperturbed
    // seed every individual of islands 0 and 2 is the seed, so their
    // initial mean fitness is the seed's; islands 1 and 3 start
    // balanced-random, far from it.
    let g = paper_graph(98);
    let seed_p = Partition::blocks(98, 4);
    let seeded = InitStrategy::Seeded {
        partition: seed_p.labels().to_vec(),
        perturbation: 0.0,
    };
    let config = DpgaConfig {
        base: base(4).with_generations(0),
        topology: Topology::Hypercube(2),
        migration_interval: 5,
        init_overrides: Some(vec![seeded, InitStrategy::BalancedRandom]),
    };
    let r = DpgaEngine::new(&g, config).unwrap().run();
    let seed_fit = FitnessEvaluator::new(&g, 4, FitnessKind::TotalCut).evaluate(seed_p.labels());
    for (i, sub) in r.per_subpop.iter().enumerate() {
        let mean = sub.history.mean_fitness[0];
        if i % 2 == 0 {
            assert!(
                (mean - seed_fit).abs() < 1e-9,
                "island {i}: {mean} vs {seed_fit}"
            );
        } else {
            assert!(mean < seed_fit - 1.0, "island {i}: {mean} vs {seed_fit}");
        }
    }
}
