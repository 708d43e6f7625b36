//! Behavioral integration tests of the GA engine and DPGA driver:
//! everything a user would rely on beyond "it runs" — budget accounting,
//! seeding guarantees, operator wiring, topology effects, and the
//! incremental pipeline's contract.

use gapart_core::dpga::MigrationPolicy;
use gapart_core::history::average_histories;
use gapart_core::incremental::{extend_partition_balanced, greedy_neighbor_assign};
use gapart_core::population::InitStrategy;
use gapart_core::{
    CrossoverOp, DpgaConfig, DpgaEngine, FitnessEvaluator, FitnessKind, GaConfig, GaEngine,
    HillClimbMode, SelectionScheme, Topology,
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
fn zero_crossover_rate_still_improves_via_selection_and_elitism() {
    let g = paper_graph(98);
    let mut cfg = base(4).with_generations(40);
    cfg.crossover_rate = 0.0;
    let r = GaEngine::new(&g, cfg).unwrap().run();
    assert!(r.history.best_fitness.last().unwrap() >= &r.history.best_fitness[0]);
}

#[test]
fn zero_mutation_zero_crossover_is_pure_selection() {
    // With no variation operators and no elite swap, the best individual
    // can never improve beyond the initial population's best.
    let g = paper_graph(78);
    let mut cfg = base(4).with_generations(15);
    cfg.crossover_rate = 0.0;
    cfg.mutation_rate = 0.0;
    cfg.elite_swap_passes = 0;
    let r = GaEngine::new(&g, cfg).unwrap().run();
    assert_eq!(
        r.history.best_fitness[0],
        *r.history.best_fitness.last().unwrap(),
        "best improved without any variation operator"
    );
}

#[test]
fn every_selection_scheme_drives_the_engine() {
    let g = paper_graph(88);
    for scheme in [
        SelectionScheme::Tournament(2),
        SelectionScheme::Tournament(5),
        SelectionScheme::RouletteWheel,
        SelectionScheme::Rank,
    ] {
        let mut cfg = base(4);
        cfg.selection = scheme;
        let r = GaEngine::new(&g, cfg).unwrap().run();
        assert_eq!(r.best_partition.num_nodes(), 88, "{scheme}");
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
fn explicit_knux_reference_is_honoured() {
    // With a reference that fully matches a target partition and KNUX
    // (static reference), offspring are pulled toward the reference.
    let g = paper_graph(144);
    let target: Vec<u32> = g
        .coords()
        .unwrap()
        .iter()
        .map(|p| u32::from(p.x > 0.5))
        .collect();
    let mut cfg = base(2)
        .with_crossover(CrossoverOp::Knux)
        .with_generations(30);
    cfg.knux_reference = Some(target.clone());
    let r = GaEngine::new(&g, cfg).unwrap().run();
    // The run should land close to the reference's quality class: compare
    // cut against the target's cut within 2x.
    let e = FitnessEvaluator::new(&g, 2, FitnessKind::TotalCut, 1.0);
    let target_cut = e.reported_cut(&target);
    assert!(
        r.best_cut <= target_cut * 2,
        "KNUX ignored its reference: {} vs {target_cut}",
        r.best_cut
    );
}

#[test]
fn engine_works_without_coordinates() {
    // KNUX uses adjacency only, so coordinate-free graphs must work.
    let g = gnp(60, 0.15, 3);
    let r = GaEngine::new(&g, base(4)).unwrap().run();
    assert_eq!(r.best_partition.num_nodes(), 60);
}

#[test]
fn lambda_zero_optimizes_balance_only() {
    let g = paper_graph(98);
    let mut cfg = base(4).with_generations(40);
    cfg.lambda = 0.0;
    let r = GaEngine::new(&g, cfg).unwrap().run();
    // With λ=0 the imbalance should be driven to (near) the minimum
    // achievable for 98 nodes / 4 parts: sizes {24,24,25,25} → 2·(0.5)²·2 = 1.
    assert!(
        r.best_metrics.imbalance <= 1.0 + 1e-9,
        "imbalance {} not minimized",
        r.best_metrics.imbalance
    );
}

#[test]
fn dpga_respects_topology_sizes() {
    let g = paper_graph(88);
    for topo in [
        Topology::Hypercube(0),
        Topology::Hypercube(2),
        Topology::Ring(6),
        Topology::Mesh2d(2, 3),
        Topology::Complete(5),
    ] {
        let config = DpgaConfig {
            base: base(4).with_population_size(2 * topo.size().max(8)),
            topology: topo,
            migration_interval: 3,
            num_migrants: 1,
            migration_policy: MigrationPolicy::Best,
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
    let e = FitnessEvaluator::new(&grown, 4, FitnessKind::TotalCut, 1.0);
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
fn seeded_plus_random_composition() {
    let seed_p = Partition::blocks(98, 4);
    let init = InitStrategy::SeededPlusRandom {
        partition: seed_p.labels().to_vec(),
        perturbation: 0.0, // perturbed copies stay exact for this test
        random_fraction: 0.5,
    };
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let chroms = init.generate(98, 4, 20, &mut rng);
    assert_eq!(chroms.len(), 20);
    let exact = chroms
        .iter()
        .filter(|c| c.genes() == seed_p.labels())
        .count();
    // Half the population (10) are unperturbed seed copies; random ones
    // almost surely differ.
    assert!(exact >= 10, "only {exact} seed copies");
    assert!(exact <= 12, "{exact} — random share missing");
}
