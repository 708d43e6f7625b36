//! Property-based tests for index-based partitioning.

use gapart_graph::generators::jittered_mesh;
use gapart_graph::partition::cut_size;
use gapart_graph::Partition;
use gapart_ibp::ibp_partition;
use gapart_ibp::interleave::{bits_for, interleave, interleave2, Dim};
use proptest::prelude::*;

/// Inverse of `interleave2`, the oracle of its round trip: recovers
/// `(row, col)` from a Morton index.
fn deinterleave2(index: u64, bits: u32) -> (u32, u32) {
    let mut row = 0u32;
    let mut col = 0u32;
    for k in 0..bits {
        col |= (((index >> (2 * k)) & 1) as u32) << k;
        row |= (((index >> (2 * k + 1)) & 1) as u32) << k;
    }
    (row, col)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interleaving is injective for any dimension widths: distinct
    /// coordinate tuples give distinct indices.
    #[test]
    fn interleave_injective(
        bits1 in 1u32..6,
        bits2 in 1u32..6,
        bits3 in 1u32..6,
    ) {
        let mut seen = std::collections::HashSet::new();
        for v1 in 0..(1u64 << bits1) {
            for v2 in 0..(1u64 << bits2) {
                for v3 in 0..(1u64 << bits3) {
                    let idx = interleave(&[
                        Dim::new(v1, bits1),
                        Dim::new(v2, bits2),
                        Dim::new(v3, bits3),
                    ]);
                    prop_assert!(seen.insert(idx), "collision at ({v1},{v2},{v3})");
                }
            }
        }
    }

    /// Interleaved index fits in the sum of the widths.
    #[test]
    fn interleave_bit_budget(
        v1 in 0u64..32, v2 in 0u64..8, v3 in 0u64..4,
    ) {
        let idx = interleave(&[Dim::new(v1, 5), Dim::new(v2, 3), Dim::new(v3, 2)]);
        prop_assert!(idx < (1u64 << 10));
    }

    /// Morton round trip for arbitrary coordinates and widths.
    #[test]
    fn morton_round_trip(row in 0u32..4096, col in 0u32..4096) {
        let bits = bits_for(4096);
        let idx = interleave2(row, col, bits);
        prop_assert_eq!(deinterleave2(idx, bits), (row, col));
    }

    /// Morton order preserves quadrant nesting: indices of one quadrant
    /// of a 2^b grid form a contiguous range.
    #[test]
    fn morton_quadrants_contiguous(bits in 1u32..6) {
        let side = 1u32 << bits;
        let half = side / 2;
        if half == 0 {
            return Ok(());
        }
        let quarter = (side as u64 * side as u64) / 4;
        // Top-left quadrant (rows < half, cols < half) = indices [0, q).
        for r in 0..half {
            for c in 0..half {
                let idx = interleave2(r, c, bits);
                prop_assert!(idx < quarter, "({r},{c}) -> {idx} >= {quarter}");
            }
        }
    }

    /// IBP balance invariant and determinism on arbitrary meshes.
    #[test]
    fn ibp_balanced_and_deterministic(
        n in 4usize..250,
        parts in 2u32..9,
        seed in any::<u64>(),
    ) {
        prop_assume!(parts as usize <= n);
        let g = jittered_mesh(n, seed);
        let p1 = ibp_partition(&g, parts).unwrap();
        let p2 = ibp_partition(&g, parts).unwrap();
        prop_assert_eq!(&p1, &p2);
        let sizes = p1.part_sizes();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1);
    }

    /// Morton-order IBP never does worse than a random shuffle of the
    /// same part sizes — the entire point of indexing.
    #[test]
    fn spatial_indexing_beats_random_assignment(
        n in 40usize..200,
        seed in any::<u64>(),
    ) {
        let g = jittered_mesh(n, seed);
        let parts = 4u32;
        let ibp = ibp_partition(&g, parts).unwrap();
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabc);
        let mut shuffled = ibp.labels().to_vec();
        shuffled.shuffle(&mut rng);
        let random = Partition::new(shuffled, parts).unwrap();
        prop_assert!(cut_size(&g, &ibp) <= cut_size(&g, &random),
            "Morton IBP lost to a random shuffle");
    }

    /// bits_for always covers the requested range with the minimum width.
    #[test]
    fn bits_for_is_minimal_cover(n in 1u32..100_000) {
        let b = bits_for(n);
        prop_assert!((1u64 << b) >= n as u64);
        if n > 2 {
            prop_assert!((1u64 << (b - 1)) < n as u64);
        }
    }
}
