//! Property-based tests for the spectral bisection pipeline.
//!
//! - The Laplacian operator reproduces the triplet-built matrix RSB used
//!   to assemble (`support/triplet_laplacian.rs`) bit for bit, so every
//!   Fiedler vector, and with it every RSB label, is what it was.

#[path = "support/triplet_laplacian.rs"]
mod triplet_laplacian;

use gapart_graph::generators::jittered_mesh;
use gapart_graph::multilevel::MultilevelPartitioner;
use gapart_graph::partition::{cut_size, Partition, PartitionMetrics};
use gapart_graph::subgraph::induced_subgraph;
use gapart_graph::{CsrGraph, GraphBuilder, Partitioner};
use gapart_rsb::{fiedler_vector, laplacian, rsb_partition, RsbPartitioner, DEFAULT_SEED};
use proptest::prelude::*;
use triplet_laplacian::TripletLaplacian;

fn apply(g: &CsrGraph, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; g.num_nodes()];
    laplacian(g)(x, &mut y);
    y
}

/// `L x` from the operator and from the triplet oracle, as bit patterns.
fn both_products(g: &CsrGraph, x: &[f64]) -> (Vec<u64>, Vec<u64>) {
    let mut oracle = vec![0.0; g.num_nodes()];
    TripletLaplacian::new(g).matvec(x, &mut oracle);
    let bits = |y: Vec<f64>| y.into_iter().map(f64::to_bits).collect();
    (bits(apply(g, x)), bits(oracle))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On random weighted graphs (isolated nodes, repeated edges that
    /// saturate, weights up to `u32::MAX`) and on induced subgraphs of
    /// them in shuffled node order, as RSB's recursion builds them, the
    /// operator's product equals the triplet-built matrix's bit for bit.
    #[test]
    fn laplacian_matches_the_triplet_oracle_bit_for_bit(
        n in 1u32..60,
        edges in proptest::collection::vec((0u32..60, 0u32..60, 0u32..3, 1u32..8), 0..150),
        x in proptest::collection::vec(-10.0f64..10.0, 60..=60),
        seed in any::<u64>(),
    ) {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::with_nodes(n as usize);
        for (u, v, kind, small) in edges {
            let w = match kind {
                0 => small,
                1 => u32::MAX,
                _ => rng.gen_range(1..=u32::MAX),
            };
            if u % n != v % n {
                b.push_edge(u % n, v % n, w);
            }
        }
        let g = b.build().unwrap();
        let (got, want) = both_products(&g, &x[..n as usize]);
        prop_assert_eq!(got, want);

        let mut nodes: Vec<u32> = (0..n).filter(|_| rng.gen_range(0..3) > 0).collect();
        nodes.shuffle(&mut rng);
        let sub = induced_subgraph(&g, &nodes);
        let (got, want) = both_products(&sub.graph, &x[..nodes.len()]);
        prop_assert_eq!(got, want);
    }

    /// The Laplacian quadratic form equals the weighted cut of the
    /// indicator vector, for arbitrary meshes and arbitrary 2-colorings.
    #[test]
    fn laplacian_quadratic_form_counts_cut(
        n in 4usize..120,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let g = jittered_mesh(n, seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 1);
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2)).collect();
        let x: Vec<f64> = labels.iter().map(|&b| b as f64).collect();
        let lx = apply(&g, &x);
        let q: f64 = x.iter().zip(&lx).map(|(a, b)| a * b).sum();
        let p = Partition::new(labels, 2).unwrap();
        prop_assert!((q - cut_size(&g, &p) as f64).abs() < 1e-8);
    }

    /// The Fiedler vector is orthogonal to the constant vector and has a
    /// nonpositive Rayleigh quotient gap: λ2 ≥ 0.
    #[test]
    fn fiedler_vector_properties(n in 4usize..150, seed in any::<u64>()) {
        let g = jittered_mesh(n, seed);
        let v = fiedler_vector(&g, seed).unwrap();
        prop_assert_eq!(v.len(), n);
        let sum: f64 = v.iter().sum();
        prop_assert!(sum.abs() < 1e-5, "not orthogonal to ones: {sum}");
        let lv = apply(&g, &v);
        let rayleigh: f64 = v.iter().zip(&lv).map(|(a, b)| a * b).sum();
        prop_assert!(rayleigh >= -1e-8, "negative Rayleigh quotient {rayleigh}");
    }

    /// RSB produces covering, balanced, deterministic partitions for any
    /// part count.
    #[test]
    fn rsb_invariants(
        n in 8usize..200,
        parts in 2u32..9,
        seed in any::<u64>(),
    ) {
        prop_assume!(parts as usize <= n);
        let g = jittered_mesh(n, seed);
        let p = rsb_partition(&g, parts, DEFAULT_SEED).unwrap();
        prop_assert_eq!(p.num_nodes(), n);
        let m = PartitionMetrics::compute(&g, &p);
        prop_assert_eq!(m.part_loads.iter().sum::<u64>(), n as u64);
        // No empty part.
        prop_assert!(m.part_loads.iter().all(|&l| l > 0));
        // Weighted-median splits keep sizes within the proportional bound.
        let ideal = n as f64 / parts as f64;
        for &load in &m.part_loads {
            prop_assert!((load as f64 - ideal).abs() <= ideal * 0.5 + 2.0,
                "load {load} far from ideal {ideal}");
        }
        // Determinism.
        prop_assert_eq!(p, rsb_partition(&g, parts, DEFAULT_SEED).unwrap());
    }

    /// Multilevel RSB returns covering partitions of the right shape on
    /// meshes big enough to actually coarsen.
    #[test]
    fn multilevel_rsb_covers(n in 150usize..400, seed in any::<u64>()) {
        let g = jittered_mesh(n, seed);
        let mlrsb = MultilevelPartitioner::new(Box::new(RsbPartitioner));
        // The seed multilevel RSB defaulted to ("MLRS").
        let p = mlrsb.partition(&g, 4, 0x4d4c_5253).unwrap().partition;
        prop_assert_eq!(p.num_nodes(), n);
        let m = PartitionMetrics::compute(&g, &p);
        prop_assert_eq!(m.part_loads.iter().sum::<u64>(), n as u64);
        prop_assert!(m.part_loads.iter().all(|&l| l > 0));
    }
}
