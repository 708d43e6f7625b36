//! The vocabulary of k-way refinement: the knobs of a run
//! ([`RefineOptions`]) and what it reports ([`RefineStats`]).
//!
//! The engine itself is the boundary Fiduccia–Mattheyses refiner
//! [`crate::fm::FmRefiner`]. The multilevel V-cycle
//! ([`crate::multilevel`]) runs it after each projection, and the
//! streaming session (`gapart_core::dynamic`) runs it over each batch's
//! dirty frontier.
//!
//! This is the classical cut/balance refinement every multilevel
//! partitioner uses, distinct from the GA's fitness-driven hill climbing
//! in `gapart-core` (which optimizes the paper's composite objective, not
//! the cut under a hard balance cap).

/// Knobs of a refinement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineOptions {
    /// Allowed deviation of any part's load from the ideal average, as a
    /// fraction (e.g. `0.05` allows 5% overweight parts). A move is
    /// admissible only if the destination part stays within
    /// `(1 + balance_slack) × avg` afterwards.
    pub balance_slack: f64,
    /// Maximum passes over the boundary; refinement also stops as soon
    /// as a pass makes no progress.
    pub max_passes: usize,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            balance_slack: 0.05,
            max_passes: 4,
        }
    }
}

/// Outcome of a refinement run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineStats {
    /// Number of vertices moved.
    pub moves: usize,
    /// Total cut-weight reduction achieved.
    pub gain: u64,
}

#[cfg(test)]
mod tests {
    //! The contract the refiner promises its callers under
    //! [`RefineOptions`], checked on fresh [`FmRefiner`] workspaces. The
    //! engine's own unit tests in [`crate::fm`] cover the rest.

    use super::*;
    use crate::builder::from_edges;
    use crate::fm::FmRefiner;
    use crate::generators::paper_graph;
    use crate::partition::{cut_size, Partition};

    const SEED: u64 = 0x5245_4649; // "REFI"

    fn opts(balance_slack: f64, max_passes: usize) -> RefineOptions {
        RefineOptions {
            balance_slack,
            max_passes,
        }
    }

    #[test]
    fn never_drains_a_part_to_zero() {
        // Triangle with node 0 alone in part 0: moving it to part 1
        // improves the cut (2 -> 0) and respects the destination cap at
        // 100% slack, but would empty part 0.
        let g = from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let mut p = Partition::new(vec![0, 1, 1], 2).unwrap();
        let stats = FmRefiner::new().refine(&g, &mut p, &opts(1.0, 4), SEED);
        assert_eq!(stats.moves, 0, "a move emptied part 0");
        assert!(p.part_sizes().iter().all(|&s| s > 0));
        // The guard is per-part, not global: a two-node part may still
        // shed one node.
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 2)]).unwrap();
        let mut p = Partition::new(vec![1, 0, 1, 1], 2).unwrap();
        FmRefiner::new().refine(&g, &mut p, &opts(1.0, 4), SEED);
        assert!(p.part_sizes().iter().all(|&s| s > 0));
    }

    #[test]
    fn misplaced_zero_weight_vertex_gets_moved() {
        // Parts {0, 1, 5} and {2, 3, 4}. The weightless vertex 5 has both
        // its edges into part 1; draining no load must not pin it. Zero
        // weights are unreachable through the builder, so construct the
        // CSR directly, as the streaming layers could.
        let mut g = from_edges(6, &[(0, 1), (2, 3), (3, 4), (2, 4), (5, 2), (5, 3)]).unwrap();
        g.vweights = vec![2, 2, 2, 2, 2, 0];
        let mut p = Partition::new(vec![0, 0, 1, 1, 1, 0], 2).unwrap();
        let before = cut_size(&g, &p);
        let stats = FmRefiner::new().refine(&g, &mut p, &opts(0.2, 4), SEED);
        assert_eq!(p.part(5), 1, "zero-weight vertex stayed pinned");
        assert!(stats.moves >= 1);
        assert!(cut_size(&g, &p) < before);
        assert!(p.part_sizes().iter().all(|&s| s > 0));
        // The guard still pins the *last* vertex of a part, even a
        // zero-weight one.
        let mut lone = from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        lone.vweights = vec![0, 1, 1];
        let mut p = Partition::new(vec![0, 1, 1], 2).unwrap();
        let stats = FmRefiner::new().refine(&lone, &mut p, &opts(1.0, 4), SEED);
        assert_eq!(stats.moves, 0, "sole occupant left part 0");
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let g = paper_graph(611);
        let base = random_partition(611, 5, 1);
        let mut reference: Option<(Partition, RefineStats)> = None;
        for threads in [1usize, 2, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut p = base.clone();
            let stats = pool.install(|| FmRefiner::new().refine(&g, &mut p, &opts(0.1, 6), SEED));
            match &reference {
                None => reference = Some((p, stats)),
                Some((rp, rs)) => {
                    assert_eq!(&p, rp, "{threads}-thread refine diverged");
                    assert_eq!(&stats, rs);
                }
            }
        }
    }

    #[test]
    fn local_region_matches_full_sweep_when_region_is_everything() {
        let g = paper_graph(139);
        let all: Vec<u32> = (0..139u32).collect();
        for seed in 0..3u64 {
            let mut full = random_partition(139, 4, seed);
            let mut local = full.clone();
            let sf = FmRefiner::new().refine(&g, &mut full, &opts(0.1, 8), SEED);
            let sl = FmRefiner::new().refine_local(&g, &mut local, &opts(0.1, 8), SEED, &all);
            assert_eq!(full, local);
            assert_eq!(sf, sl);
        }
    }

    fn random_partition(n: usize, parts: u32, seed: u64) -> Partition {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Partition::new((0..n).map(|_| rng.gen_range(0..parts)).collect(), parts).unwrap()
    }
}
