//! Property-based tests for the spectral bisection pipeline.

use gapart_graph::generators::jittered_mesh;
use gapart_graph::multilevel::MultilevelPartitioner;
use gapart_graph::partition::{cut_size, Partition, PartitionMetrics};
use gapart_graph::Partitioner;
use gapart_rsb::{fiedler_vector, laplacian, rsb_partition, RsbOptions, RsbPartitioner};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The Laplacian quadratic form equals the weighted cut of the
    /// indicator vector, for arbitrary meshes and arbitrary 2-colorings.
    #[test]
    fn laplacian_quadratic_form_counts_cut(
        n in 4usize..120,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let g = jittered_mesh(n, seed);
        let l = laplacian(&g);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 1);
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..2)).collect();
        let x: Vec<f64> = labels.iter().map(|&b| b as f64).collect();
        let lx = l.apply(&x);
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
        let l = laplacian(&g);
        let lv = l.apply(&v);
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
        let opts = RsbOptions::default();
        let p = rsb_partition(&g, parts, &opts).unwrap();
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
        prop_assert_eq!(p, rsb_partition(&g, parts, &opts).unwrap());
    }

    /// Multilevel RSB returns covering partitions of the right shape on
    /// meshes big enough to actually coarsen.
    #[test]
    fn multilevel_rsb_covers(n in 150usize..400, seed in any::<u64>()) {
        let g = jittered_mesh(n, seed);
        let mlrsb = MultilevelPartitioner::new("mlrsb", Box::new(RsbPartitioner::default()));
        // The seed multilevel RSB defaulted to ("MLRS").
        let p = mlrsb.partition(&g, 4, 0x4d4c_5253).unwrap().partition;
        prop_assert_eq!(p.num_nodes(), n);
        let m = PartitionMetrics::compute(&g, &p);
        prop_assert_eq!(m.part_loads.iter().sum::<u64>(), n as u64);
        prop_assert!(m.part_loads.iter().all(|&l| l > 0));
    }
}
