//! Property-based tests for the GA core.

use gapart_core::fitness::{FitnessEvaluator, FitnessKind, PartitionState};
use gapart_core::hillclimb::{hill_climb, swap_climb};
use gapart_core::ops::crossover::{knux_bias, CrossoverCtx, CrossoverOp};
use gapart_core::ops::mutation::{boundary_mutate, mutate};
use gapart_core::selection::binary_tournament;
use gapart_core::{GaConfig, GaEngine};
use gapart_graph::generators::jittered_mesh;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_genes(n: usize, parts: u32, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..parts)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Incremental gain prediction equals the actual fitness delta for
    /// arbitrary graphs, objectives and move sequences.
    #[test]
    fn partition_state_gain_exactness(
        n in 6usize..80,
        parts in 2u32..7,
        seed in any::<u64>(),
        kind_idx in 0usize..2,
        moves in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..60),
    ) {
        let kind = [FitnessKind::TotalCut, FitnessKind::WorstCut][kind_idx];
        let g = jittered_mesh(n, seed);
        let e = FitnessEvaluator::new(&g, parts, kind);
        let genes = arb_genes(n, parts, seed ^ 3);
        let mut state = PartitionState::new(e.clone(), genes);
        for (rv, rp) in moves {
            let v = rv % n as u32;
            let to = rp % parts;
            let before = state.fitness();
            let predicted = state.gain(v, to);
            state.apply(v, to);
            let after = state.fitness();
            prop_assert!((after - before - predicted).abs() < 1e-6);
        }
        // Final state agrees with a from-scratch evaluation.
        prop_assert!((state.fitness() - e.evaluate(state.labels())).abs() < 1e-6);
    }

    /// Hill climbing and swap climbing never decrease fitness and always
    /// keep genes in range.
    #[test]
    fn climbers_are_monotone(
        n in 6usize..100,
        parts in 2u32..6,
        seed in any::<u64>(),
        kind_idx in 0usize..2,
    ) {
        let kind = [FitnessKind::TotalCut, FitnessKind::WorstCut][kind_idx];
        let g = jittered_mesh(n, seed);
        let e = FitnessEvaluator::new(&g, parts, kind);
        type Climber = fn(&FitnessEvaluator<'_>, &mut Vec<u32>, usize) -> gapart_core::hillclimb::ClimbStats;
        for (name, f) in [
            ("hill", hill_climb as Climber),
            ("swap", swap_climb as Climber),
        ] {
            let mut genes = arb_genes(n, parts, seed ^ 5);
            let before = e.evaluate(&genes);
            let stats = f(&e, &mut genes, 10);
            let after = e.evaluate(&genes);
            prop_assert!(after >= before - 1e-9, "{name} decreased fitness");
            prop_assert!((after - before - stats.gain).abs() < 1e-6,
                "{name} misreported its gain");
            prop_assert!(genes.iter().all(|&x| x < parts));
        }
    }

    /// Mutation changes at most the expected number of genes and keeps
    /// labels in range.
    #[test]
    fn mutation_in_range(
        n in 1usize..200,
        parts in 1u32..8,
        rate in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut genes = arb_genes(n, parts, seed);
        let before = genes.clone();
        mutate(&mut genes, rate, parts, &mut rng);
        prop_assert!(genes.iter().all(|&g| g < parts));
        if rate == 0.0 || parts == 1 {
            prop_assert_eq!(genes, before);
        }
    }

    /// Boundary mutation only ever moves nodes to parts adjacent to them
    /// (computed against the pre-mutation state).
    #[test]
    fn boundary_mutation_moves_are_local(
        n in 4usize..120,
        parts in 2u32..6,
        rate in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let g = jittered_mesh(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 7);
        let mut genes = arb_genes(n, parts, seed ^ 9);
        let before = genes.clone();
        boundary_mutate(&mut genes, &g, rate, &mut rng);
        for v in 0..n as u32 {
            if genes[v as usize] != before[v as usize] {
                prop_assert!(g.neighbors(v).iter().any(|&u| before[u as usize] == genes[v as usize]));
            }
        }
    }

    /// Selection always returns a valid index for any finite fitness
    /// landscape.
    #[test]
    fn selection_index_valid(
        fitness in proptest::collection::vec(-1e7f64..0.0, 1..50),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let idx = binary_tournament(&fitness, &mut rng);
            prop_assert!(idx < fitness.len());
        }
    }

    /// The KNUX bias is a probability and is symmetric in its arguments:
    /// p(a, b) + p(b, a) = 1 whenever some neighbour supports either side.
    #[test]
    fn knux_bias_is_probability(
        n in 4usize..80,
        parts in 2u32..6,
        seed in any::<u64>(),
    ) {
        let g = jittered_mesh(n, seed);
        let reference = arb_genes(n, parts, seed ^ 11);
        let mut rng = StdRng::seed_from_u64(seed ^ 13);
        for _ in 0..30 {
            let i = rng.gen_range(0..n as u32);
            let a = rng.gen_range(0..parts);
            let b = rng.gen_range(0..parts);
            let p_ab = knux_bias(&g, &reference, i, a, b);
            let p_ba = knux_bias(&g, &reference, i, b, a);
            prop_assert!((0.0..=1.0).contains(&p_ab));
            prop_assert!((p_ab + p_ba - 1.0).abs() < 1e-12);
        }
    }

    /// Engine runs are deterministic and never lose in-range genes, for
    /// arbitrary small configurations.
    #[test]
    fn engine_determinism_and_validity(
        n in 8usize..60,
        parts in 2u32..5,
        pop in 4usize..24,
        gens in 1usize..12,
        seed in any::<u64>(),
    ) {
        let g = jittered_mesh(n, seed);
        let make = || {
            GaConfig::paper_defaults(parts)
                .with_population_size(pop)
                .with_generations(gens)
                .with_seed(seed ^ 15)
        };
        let a = GaEngine::new(&g, make()).unwrap().run();
        let b = GaEngine::new(&g, make()).unwrap().run();
        prop_assert_eq!(&a.best_partition, &b.best_partition);
        prop_assert_eq!(&a.history, &b.history);
        prop_assert_eq!(a.best_partition.num_nodes(), n);
        prop_assert!(a.best_partition.labels().iter().all(|&l| l < parts));
        // History is monotone in best fitness.
        prop_assert!(a.history.best_fitness.windows(2).all(|w| w[1] >= w[0] - 1e-12));
    }

    /// Crossover output lengths and gene conservation hold for arbitrary
    /// parent pairs (complementarity checked per locus).
    #[test]
    fn crossover_conserves_loci(
        n in 2usize..100,
        parts in 2u32..6,
        seed in any::<u64>(),
        op_idx in 0usize..7,
    ) {
        let g = jittered_mesh(n, seed);
        let a = arb_genes(n, parts, seed ^ 17);
        let b = arb_genes(n, parts, seed ^ 19);
        let reference = arb_genes(n, parts, seed ^ 21);
        let op = CrossoverOp::ALL[op_idx];
        let ctx = CrossoverCtx::with_reference(&g, &reference);
        let mut rng = StdRng::seed_from_u64(seed ^ 23);
        let (c1, c2) = op.apply(&a, &b, &ctx, &mut rng);
        prop_assert_eq!(c1.len(), n);
        for i in 0..n {
            let pair = (c1[i], c2[i]);
            prop_assert!(pair == (a[i], b[i]) || pair == (b[i], a[i]));
        }
    }

    /// §3.5 balanced extension: starting from a greedily balanced old
    /// partition, every part's load stays within one maximum node weight
    /// of the ideal average, and the old-node prefix is never relabelled.
    #[test]
    fn balanced_extension_stays_within_one_max_weight_of_ideal(
        weights in proptest::collection::vec(1u32..9, 8..120),
        parts in 2u32..7,
        split_frac in 0.1f64..0.9,
        seed in any::<u64>(),
    ) {
        use gapart_core::incremental::extend_partition_balanced;
        use gapart_graph::{GraphBuilder, Partition};

        let n = weights.len();
        let n_old = ((n as f64 * split_frac) as usize).clamp(1, n);
        // Structure is irrelevant to the balance property; a path keeps
        // the builder happy for any n.
        let mut b = GraphBuilder::with_nodes(n);
        for v in 1..n as u32 {
            b.push_edge(v - 1, v, 1);
        }
        let graph = b.node_weights(weights.clone()).build().unwrap();

        // Old partition: the same greedy lightest-part rule, so its own
        // spread is already ≤ one max node weight (the precondition §3.5
        // maintains batch over batch).
        let mut loads = vec![0u64; parts as usize];
        let mut old_labels = Vec::with_capacity(n_old);
        for &w in weights.iter().take(n_old) {
            let p = (0..parts as usize).min_by_key(|&q| loads[q]).unwrap();
            old_labels.push(p as u32);
            loads[p] += w as u64;
        }
        let old = Partition::new(old_labels, parts).unwrap();

        let ext = extend_partition_balanced(&graph, &old, seed).unwrap();

        // Prefix preserved.
        for v in 0..n_old as u32 {
            prop_assert_eq!(ext.part(v), old.part(v), "old node {} relabelled", v);
        }
        // Every part within one max node weight of the ideal average.
        let wmax = *weights.iter().max().unwrap() as f64;
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        let avg = total as f64 / parts as f64;
        let mut final_loads = vec![0u64; parts as usize];
        for v in 0..n as u32 {
            final_loads[ext.part(v) as usize] += graph.node_weight(v) as u64;
        }
        for (q, &load) in final_loads.iter().enumerate() {
            prop_assert!(
                (load as f64 - avg).abs() <= wmax + 1e-9,
                "part {} load {} vs ideal {} (wmax {})",
                q, load, avg, wmax
            );
        }
    }
}
