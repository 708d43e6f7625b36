//! Workspace-level property-based tests (proptest) on the core invariants
//! that hold across crate boundaries.

use gapart::core::ops::crossover::{CrossoverCtx, CrossoverOp};
use gapart::core::{FitnessEvaluator, FitnessKind};
use gapart::graph::generators::jittered_mesh;
use gapart::graph::partition::{cut_size, Partition, PartitionMetrics};
use gapart::graph::subgraph::induced_subgraph;
use gapart::graph::traversal::connected_components;
use gapart::ibp::{ibp_partition, IbpOptions};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any mesh size and seed yields a connected graph with exactly the
    /// requested node count.
    #[test]
    fn mesh_generator_total(n in 1usize..400, seed in any::<u64>()) {
        let g = jittered_mesh(n, seed);
        prop_assert_eq!(g.num_nodes(), n);
        let (_, comps) = connected_components(&g);
        prop_assert_eq!(comps, 1);
        prop_assert!(g.validate().is_ok());
    }

    /// Fitness decomposition: for any chromosome, −fitness equals
    /// imbalance + ΣC(q) (the paper's λ = 1), and reported total cut
    /// equals `cut_size`.
    #[test]
    fn fitness_matches_metrics(
        n in 8usize..200,
        parts in 2u32..9,
        seed in any::<u64>(),
    ) {
        let g = jittered_mesh(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..parts)).collect();
        let p = Partition::new(labels.clone(), parts).unwrap();
        let m = PartitionMetrics::compute(&g, &p);
        let e = FitnessEvaluator::new(&g, parts, FitnessKind::TotalCut);
        let expected = -(m.imbalance + (2 * m.total_cut) as f64);
        prop_assert!((e.evaluate(&labels) - expected).abs() < 1e-6);
        prop_assert_eq!(e.reported_cut(&labels), cut_size(&g, &p));

        let e2 = FitnessEvaluator::new(&g, parts, FitnessKind::WorstCut);
        let expected2 = -(m.imbalance + m.max_cut as f64);
        prop_assert!((e2.evaluate(&labels) - expected2).abs() < 1e-6);
    }

    /// The two independent cost tallies — `FitnessEvaluator::evaluate`
    /// (gapart-core, the GA hot path) and `PartitionMetrics::compute`
    /// (gapart-graph, what reports and refinement use) — must agree on
    /// imbalance and cut for arbitrary random graphs with random node and
    /// edge weights, not just uniform meshes. They duplicate the cut loop
    /// independently; this pins them together.
    #[test]
    fn evaluator_and_metrics_agree_on_random_weighted_graphs(
        n in 4usize..120,
        parts in 2u32..7,
        p_edge in 0.05f64..0.5,
        seed in any::<u64>(),
    ) {
        use gapart::graph::generators::gnp;
        use gapart::graph::GraphBuilder;

        // Random topology, then re-weight nodes and edges randomly.
        let base = gnp(n, p_edge, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
        let mut b = GraphBuilder::with_nodes(n);
        for (u, v, _) in base.edges() {
            b.push_edge(u, v, rng.gen_range(1..20));
        }
        let g = b
            .node_weights((0..n).map(|_| rng.gen_range(1..10)).collect())
            .build()
            .unwrap();

        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..parts)).collect();
        let partition = Partition::new(labels.clone(), parts).unwrap();
        let m = PartitionMetrics::compute(&g, &partition);

        // Fitness 1: −(imbalance + ΣC(q)) with ΣC(q) = 2·total_cut.
        let e1 = FitnessEvaluator::new(&g, parts, FitnessKind::TotalCut);
        prop_assert!(
            (e1.evaluate(&labels) + m.imbalance + (2 * m.total_cut) as f64).abs() < 1e-6
        );
        prop_assert_eq!(e1.reported_cut(&labels), m.total_cut);
        // Fitness 2: −(imbalance + max C(q)).
        let e2 = FitnessEvaluator::new(&g, parts, FitnessKind::WorstCut);
        prop_assert!(
            (e2.evaluate(&labels) + m.imbalance + m.max_cut as f64).abs() < 1e-6
        );
        prop_assert_eq!(e2.reported_cut(&labels), m.max_cut);
        // And both agree with the standalone cut helper.
        prop_assert_eq!(m.total_cut, cut_size(&g, &partition));
    }

    /// Every crossover operator conserves genes: each offspring gene comes
    /// from one of the parents at the same locus.
    #[test]
    fn crossover_gene_conservation(
        n in 4usize..120,
        parts in 2u32..6,
        seed in any::<u64>(),
        op_idx in 0usize..7,
    ) {
        let g = jittered_mesh(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 2);
        let a: Vec<u32> = (0..n).map(|_| rng.gen_range(0..parts)).collect();
        let b: Vec<u32> = (0..n).map(|_| rng.gen_range(0..parts)).collect();
        let reference: Vec<u32> = (0..n).map(|_| rng.gen_range(0..parts)).collect();
        let op = CrossoverOp::ALL[op_idx];
        let ctx = CrossoverCtx::with_reference(&g, &reference);
        let (c1, c2) = op.apply(&a, &b, &ctx, &mut rng);
        prop_assert_eq!(c1.len(), n);
        prop_assert_eq!(c2.len(), n);
        for i in 0..n {
            let pair = (c1[i], c2[i]);
            prop_assert!(
                pair == (a[i], b[i]) || pair == (b[i], a[i]),
                "op {} gene {} not conserved", op, i
            );
        }
    }

    /// IBP always produces parts whose sizes differ by at most one, for
    /// every scheme, resolution and part count.
    #[test]
    fn ibp_balance_invariant(
        n in 8usize..300,
        parts in 2u32..9,
        seed in any::<u64>(),
        scheme_idx in 0usize..3,
        resolution in 2u32..512,
    ) {
        prop_assume!(parts as usize <= n);
        let g = jittered_mesh(n, seed);
        let opts = IbpOptions {
            scheme: gapart::ibp::IndexScheme::ALL[scheme_idx],
            resolution,
        };
        let p = ibp_partition(&g, parts, &opts).unwrap();
        let sizes = p.part_sizes();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1, "sizes {:?}", sizes);
    }

    /// An induced subgraph never invents edges: its cut values against any
    /// 2-coloring stay consistent with the parent graph's edge set.
    #[test]
    fn subgraph_edges_subset_of_parent(
        n in 4usize..150,
        seed in any::<u64>(),
        take in 2usize..100,
    ) {
        let g = jittered_mesh(n, seed);
        let take = take.min(n);
        let nodes: Vec<u32> = (0..take as u32).collect();
        let sub = induced_subgraph(&g, &nodes);
        for (u, v, w) in sub.graph.edges() {
            let (ou, ov) = (sub.orig_ids[u as usize], sub.orig_ids[v as usize]);
            prop_assert_eq!(g.edge_weight(ou, ov), Some(w));
        }
    }
}
