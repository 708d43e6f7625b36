//! The vocabulary every k-way refiner shares: which engine runs
//! ([`RefineScheme`]), with which knobs ([`RefineOptions`]), and what it
//! reports ([`RefineStats`]).
//!
//! The engines themselves live in [`crate::fm`]: the sequential
//! boundary Fiduccia–Mattheyses refiner ([`crate::fm::FmRefiner`], the
//! default) and its deterministic parallel counterpart
//! ([`crate::fm::ParallelFm`]). The multilevel V-cycle
//! ([`crate::multilevel`]) runs one after each projection, and the
//! streaming session (`gapart_core::dynamic`) runs one over each batch's
//! dirty frontier.
//!
//! This is the classical cut/balance refinement every multilevel
//! partitioner uses, distinct from the GA's fitness-driven hill climbing
//! in `gapart-core` (which optimizes the paper's composite objective, not
//! the cut under a hard balance cap).

/// Which refinement engine a caller (the multilevel V-cycle, the
/// streaming session, the CLI's `--refine` flag) runs after each
/// projection or batch. Callers dispatch on the variant themselves —
/// the V-cycle and the streaming session keep a persistent engine
/// workspace across calls, which a stateless dispatch function could
/// not provide.
///
/// Both schemes share [`RefineOptions`], never increase the cut, respect
/// the balance cap and the never-empty-a-part rule, report exact gains,
/// and are bit-identical for any worker-pool size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefineScheme {
    /// The boundary-driven Fiduccia–Mattheyses engine
    /// ([`crate::fm::FmRefiner`]): gain buckets over the cut boundary
    /// only, hill-climbing move chains with rollback to the best prefix,
    /// seeded tie-breaking. The default.
    #[default]
    BoundaryFm,
    /// The parallel boundary FM ([`crate::fm::ParallelFm`]): each pass
    /// applies conflict-free batches of edge-disjoint moves selected by
    /// seeded part-pair-colored keys — frozen-label gain evaluation in
    /// parallel, exact sequential apply in index order. Same invariants
    /// as [`RefineScheme::BoundaryFm`]; rounds after a pass's first
    /// reuse an incrementally repaired evaluation table (`O(touched)`
    /// per round instead of `O(boundary)`).
    ParallelFm,
}

impl RefineScheme {
    /// CLI name of the scheme (`fm` / `pfm`).
    pub fn name(self) -> &'static str {
        match self {
            RefineScheme::BoundaryFm => "fm",
            RefineScheme::ParallelFm => "pfm",
        }
    }

    /// Resolves a CLI name (`fm` / `pfm`); `None` for unknown names.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "fm" => Some(RefineScheme::BoundaryFm),
            "pfm" => Some(RefineScheme::ParallelFm),
            _ => None,
        }
    }
}

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
    //! The contract [`RefineScheme`] promises its callers, checked for
    //! every scheme through the engine it names.

    use super::*;
    use crate::builder::from_edges;
    use crate::csr::CsrGraph;
    use crate::fm::{FmRefiner, ParallelFm};
    use crate::generators::paper_graph;
    use crate::partition::{cut_size, Partition, PartitionMetrics};

    const SCHEMES: [RefineScheme; 2] = [RefineScheme::BoundaryFm, RefineScheme::ParallelFm];
    const SEED: u64 = 0x5245_4649; // "REFI"

    fn opts(balance_slack: f64, max_passes: usize) -> RefineOptions {
        RefineOptions {
            balance_slack,
            max_passes,
        }
    }

    /// Runs `scheme`'s engine on a fresh workspace: over the whole
    /// graph, or only over `region`.
    fn refine(
        scheme: RefineScheme,
        g: &CsrGraph,
        p: &mut Partition,
        opts: &RefineOptions,
        region: Option<&[u32]>,
    ) -> RefineStats {
        match (scheme, region) {
            (RefineScheme::BoundaryFm, None) => FmRefiner::new().refine(g, p, opts, SEED),
            (RefineScheme::BoundaryFm, Some(r)) => {
                FmRefiner::new().refine_local(g, p, opts, SEED, r)
            }
            (RefineScheme::ParallelFm, None) => ParallelFm::new().refine(g, p, opts, SEED),
            (RefineScheme::ParallelFm, Some(r)) => {
                ParallelFm::new().refine_local(g, p, opts, SEED, r)
            }
        }
    }

    #[test]
    fn names_round_trip_and_nothing_else_resolves() {
        for scheme in SCHEMES {
            assert_eq!(RefineScheme::by_name(scheme.name()), Some(scheme));
        }
        for retired in ["sweep", "FM", ""] {
            assert_eq!(RefineScheme::by_name(retired), None, "{retired:?}");
        }
    }

    #[test]
    fn fixes_an_obviously_misplaced_vertex() {
        // Path 0-1-2-3 with node 0 on the wrong side.
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        for scheme in SCHEMES {
            let mut p = Partition::new(vec![1, 0, 1, 1], 2).unwrap();
            let before = cut_size(&g, &p);
            let stats = refine(scheme, &g, &mut p, &opts(0.6, 4), None);
            let after = cut_size(&g, &p);
            assert!(
                after < before,
                "{scheme:?}: no improvement {before} -> {after}"
            );
            assert_eq!(before - after, stats.gain, "{scheme:?}");
        }
    }

    #[test]
    fn never_increases_cut() {
        let g = paper_graph(139);
        for scheme in SCHEMES {
            for seed in 0..3u64 {
                let mut p = random_partition(139, 4, seed);
                let before = cut_size(&g, &p);
                refine(scheme, &g, &mut p, &opts(0.1, 8), None);
                let after = cut_size(&g, &p);
                assert!(
                    after <= before,
                    "{scheme:?}: cut increased {before} -> {after}"
                );
            }
        }
    }

    #[test]
    fn respects_balance_slack() {
        let g = paper_graph(144);
        for scheme in SCHEMES {
            let mut p = random_partition(144, 4, 9);
            refine(scheme, &g, &mut p, &opts(0.05, 8), None);
            let m = PartitionMetrics::compute(&g, &p);
            let cap = (m.avg_load * 1.05).ceil() as u64;
            for &l in &m.part_loads {
                assert!(l <= cap, "{scheme:?}: load {l} exceeds cap {cap}");
            }
        }
    }

    #[test]
    fn gain_matches_cut_delta_kway() {
        let g = paper_graph(98);
        for scheme in SCHEMES {
            let mut p = random_partition(98, 8, 4);
            let before = cut_size(&g, &p);
            let stats = refine(scheme, &g, &mut p, &opts(0.2, 10), None);
            assert_eq!(before - cut_size(&g, &p), stats.gain, "{scheme:?}");
        }
    }

    #[test]
    fn deterministic() {
        let g = paper_graph(167);
        for scheme in SCHEMES {
            let mut a = random_partition(167, 6, 2);
            let mut b = a.clone();
            let sa = refine(scheme, &g, &mut a, &opts(0.1, 6), None);
            let sb = refine(scheme, &g, &mut b, &opts(0.1, 6), None);
            assert_eq!(a, b, "{scheme:?}");
            assert_eq!(sa, sb, "{scheme:?}");
        }
    }

    #[test]
    fn never_drains_a_part_to_zero() {
        // Triangle with node 0 alone in part 0: moving it to part 1
        // improves the cut (2 -> 0) and respects the destination cap at
        // 100% slack, but would empty part 0.
        let g = from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        for scheme in SCHEMES {
            let mut p = Partition::new(vec![0, 1, 1], 2).unwrap();
            let stats = refine(scheme, &g, &mut p, &opts(1.0, 4), None);
            assert_eq!(stats.moves, 0, "{scheme:?}: a move emptied part 0");
            assert!(p.part_sizes().iter().all(|&s| s > 0), "{scheme:?}");
        }
        // The guard is per-part, not global: a two-node part may still
        // shed one node.
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 2)]).unwrap();
        for scheme in SCHEMES {
            let mut p = Partition::new(vec![1, 0, 1, 1], 2).unwrap();
            refine(scheme, &g, &mut p, &opts(1.0, 4), None);
            assert!(p.part_sizes().iter().all(|&s| s > 0), "{scheme:?}");
        }
    }

    #[test]
    fn misplaced_zero_weight_vertex_gets_moved() {
        // Parts {0, 1, 5} and {2, 3, 4}. The weightless vertex 5 has both
        // its edges into part 1; draining no load must not pin it. Zero
        // weights are unreachable through the builder, so construct the
        // CSR directly, as the streaming layers could.
        let mut g = from_edges(6, &[(0, 1), (2, 3), (3, 4), (2, 4), (5, 2), (5, 3)]).unwrap();
        g.vweights = vec![2, 2, 2, 2, 2, 0];
        // The guard still pins the *last* vertex of a part, even a
        // zero-weight one.
        let mut lone = from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        lone.vweights = vec![0, 1, 1];
        for scheme in SCHEMES {
            let mut p = Partition::new(vec![0, 0, 1, 1, 1, 0], 2).unwrap();
            let before = cut_size(&g, &p);
            let stats = refine(scheme, &g, &mut p, &opts(0.2, 4), None);
            assert_eq!(p.part(5), 1, "{scheme:?}: zero-weight vertex stayed pinned");
            assert!(stats.moves >= 1);
            assert!(cut_size(&g, &p) < before);
            assert!(p.part_sizes().iter().all(|&s| s > 0));

            let mut p = Partition::new(vec![0, 1, 1], 2).unwrap();
            let stats = refine(scheme, &lone, &mut p, &opts(1.0, 4), None);
            assert_eq!(stats.moves, 0, "{scheme:?}: sole occupant left part 0");
        }
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let g = paper_graph(611);
        for scheme in SCHEMES {
            let base = random_partition(611, 5, 1);
            let mut reference: Option<(Partition, RefineStats)> = None;
            for threads in [1usize, 2, 4, 8] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let mut p = base.clone();
                let stats = pool.install(|| refine(scheme, &g, &mut p, &opts(0.1, 6), None));
                match &reference {
                    None => reference = Some((p, stats)),
                    Some((rp, rs)) => {
                        assert_eq!(&p, rp, "{scheme:?}: {threads}-thread refine diverged");
                        assert_eq!(&stats, rs);
                    }
                }
            }
        }
    }

    #[test]
    fn local_region_matches_full_sweep_when_region_is_everything() {
        let g = paper_graph(139);
        let all: Vec<u32> = (0..139u32).collect();
        for scheme in SCHEMES {
            for seed in 0..3u64 {
                let mut full = random_partition(139, 4, seed);
                let mut local = full.clone();
                let sf = refine(scheme, &g, &mut full, &opts(0.1, 8), None);
                let sl = refine(scheme, &g, &mut local, &opts(0.1, 8), Some(&all));
                assert_eq!(full, local, "{scheme:?}");
                assert_eq!(sf, sl, "{scheme:?}");
            }
        }
    }

    #[test]
    fn local_region_only_moves_region_nodes() {
        let g = paper_graph(144);
        let region: Vec<u32> = (40..80u32).collect();
        for scheme in SCHEMES {
            let mut p = random_partition(144, 4, 5);
            let before = p.clone();
            let stats = refine(scheme, &g, &mut p, &opts(0.2, 6), Some(&region));
            for v in 0..144u32 {
                if !region.contains(&v) {
                    assert_eq!(p.part(v), before.part(v), "{scheme:?}: node {v} moved");
                }
            }
            // A random partition always leaves the region something to
            // improve, and the cut never increases.
            assert!(stats.moves > 0, "{scheme:?}");
            assert!(cut_size(&g, &p) <= cut_size(&g, &before));
        }
    }

    #[test]
    fn local_region_is_order_insensitive_and_dedups() {
        let g = paper_graph(98);
        let fwd: Vec<u32> = (10..50u32).collect();
        let mut rev: Vec<u32> = fwd.iter().rev().copied().collect();
        rev.extend_from_slice(&fwd); // duplicates too
        for scheme in SCHEMES {
            let mut a = random_partition(98, 4, 8);
            let mut b = a.clone();
            let sa = refine(scheme, &g, &mut a, &opts(0.2, 6), Some(&fwd));
            let sb = refine(scheme, &g, &mut b, &opts(0.2, 6), Some(&rev));
            assert_eq!(a, b, "{scheme:?}");
            assert_eq!(sa, sb, "{scheme:?}");
        }
    }

    #[test]
    fn empty_region_is_a_no_op() {
        let g = paper_graph(78);
        for scheme in SCHEMES {
            let mut p = random_partition(78, 4, 1);
            let before = p.clone();
            let stats = refine(scheme, &g, &mut p, &opts(0.1, 4), Some(&[]));
            assert_eq!(stats, RefineStats { moves: 0, gain: 0 }, "{scheme:?}");
            assert_eq!(p, before);
        }
    }

    fn random_partition(n: usize, parts: u32, seed: u64) -> Partition {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Partition::new((0..n).map(|_| rng.gen_range(0..parts)).collect(), parts).unwrap()
    }
}
