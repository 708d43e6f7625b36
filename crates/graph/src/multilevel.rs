//! The generic multilevel V-cycle: coarsen → partition → project + refine.
//!
//! The paper recommends "a prior graph contraction step" before applying
//! the GA to very large graphs; its RSB baseline (Barnard & Simon) is
//! itself a multilevel method. Rather than hand-wiring that V-cycle into
//! each algorithm, [`MultilevelPartitioner`] wraps **any**
//! [`Partitioner`] and runs the standard scheme around it:
//!
//! ```text
//! fine graph ──coarsen_hem──► ... ──coarsen_hem──► coarsest graph
//!     ▲                                                  │
//!     │ project + FM refine          inner Partitioner   │
//!     └───────── ... ◄──────────────────────────────────┘
//! ```
//!
//! 1. **Coarsen** ([`crate::coarsen::coarsen_to`]) by matching each
//!    vertex along its best edge under the rating ω² / (c(u)·c(v))
//!    ([`crate::coarsen::edge_key`]), which favours light partners so
//!    no vertex is stranded, until at most `coarsen_target` nodes remain
//!    (never below `2 × k`).
//! 2. **Partition** the coarsest graph with the wrapped algorithm — GA,
//!    DPGA, RSB, IBP, or anything else implementing the trait.
//! 3. **Uncoarsen**: project the partition level by level back to the fine
//!    graph ([`crate::coarsen::Coarsening::project_for_fm`]), running
//!    the boundary FM refiner ([`crate::fm::FmRefiner`]) after every
//!    projection (and once on the coarsest graph before the first one).
//!
//! Because contraction sums node and edge weights, a coarse partition has
//! *exactly* the same cut and loads as its projection, so every refinement
//! pass starts from a faithful cost picture and the final cut is never
//! worse than the projected inner solution.
//!
//! # Determinism
//!
//! The V-cycle adds no randomness of its own: coarsening is seeded from
//! the trait's `seed` argument and refinement is deterministic, so the
//! wrapper is deterministic-under-seed exactly when the inner algorithm
//! is. All registered `ml*` methods therefore satisfy the full
//! [`Partitioner`] contract (asserted by `tests/partitioner_contract.rs`
//! at the workspace root).

use crate::coarsen::{coarsen_to_with_arena, LevelArena, MatchScheme};
use crate::csr::CsrGraph;
use crate::partitioner::{PartitionReport, Partitioner, PartitionerError};
use crate::refine::RefineOptions;
use std::sync::Mutex;

/// The V-cycle's settings (the inner algorithm keeps its own).
/// [`MultilevelPartitioner`] always runs on [`MultilevelConfig::default`];
/// the fields stay public because the benchmark harness re-composes the
/// V-cycle from them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultilevelConfig {
    /// Stop coarsening once the graph has at most this many nodes. The
    /// effective target is never below `2 × num_parts`, so the inner
    /// algorithm always sees more nodes than parts.
    pub coarsen_target: usize,
    /// Matching algorithm for each coarsening round. The handshake is
    /// the only one; the field stays because the benchmark harness
    /// passes it to [`crate::coarsen::coarsen_to_with_arena`].
    pub match_scheme: MatchScheme,
    /// Per-level refinement options (balance slack and pass budget).
    pub refine: RefineOptions,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            coarsen_target: 64,
            match_scheme: MatchScheme::default(),
            refine: RefineOptions::default(),
        }
    }
}

/// Wraps any inner [`Partitioner`] in the standard multilevel V-cycle.
///
/// The wrapper's registry name is supplied at construction (`"mlga"`,
/// `"mldpga"`, `"mlrsb"`, `"mlibp"`, …) because [`Partitioner::name`]
/// returns `&'static str` — the composed name cannot be derived from the
/// inner one at runtime.
pub struct MultilevelPartitioner {
    name: &'static str,
    inner: Box<dyn Partitioner>,
    /// Recycled per-level workspace (match arrays, contraction scratch,
    /// FM engine), kept warm across `partition` calls and
    /// `DynamicSession` batches. Behind a mutex because the trait takes
    /// `&self`; a contended call simply runs on a throwaway fresh arena
    /// (the arena is an allocation cache only — results are identical).
    arena: Mutex<LevelArena>,
}

impl MultilevelPartitioner {
    /// Wraps `inner` in the V-cycle of [`MultilevelConfig::default`].
    pub fn new(name: &'static str, inner: Box<dyn Partitioner>) -> Self {
        MultilevelPartitioner {
            name,
            inner,
            arena: Mutex::new(LevelArena::new()),
        }
    }
}

impl std::fmt::Debug for MultilevelPartitioner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultilevelPartitioner")
            .field("name", &self.name)
            .field("inner", &self.inner.name())
            .finish()
    }
}

impl Partitioner for MultilevelPartitioner {
    fn name(&self) -> &'static str {
        self.name
    }

    fn partition(
        &self,
        graph: &CsrGraph,
        num_parts: u32,
        seed: u64,
    ) -> Result<PartitionReport, PartitionerError> {
        let n = graph.num_nodes();
        if num_parts == 0 || num_parts as usize > n {
            return Err(PartitionerError::new(format!(
                "cannot split {n} nodes into {num_parts} parts"
            )));
        }
        let config = MultilevelConfig::default();
        // Never coarsen below the part count; a matching round at most
        // halves, so the coarsest graph keeps strictly more nodes than k.
        let target = config.coarsen_target.max(num_parts as usize * 2);

        // Claim the recycled arena (or fall back to a fresh one under
        // contention/poisoning — same results, just cold buffers).
        let mut guard = self.arena.try_lock();
        let mut cold;
        let arena: &mut LevelArena = match guard {
            Ok(ref mut g) => g,
            Err(_) => {
                cold = LevelArena::new();
                &mut cold
            }
        };

        let levels = coarsen_to_with_arena(graph, target, seed, config.match_scheme, arena);
        let coarsest = levels.last().map_or(graph, |l| &l.coarse);

        let opts = &config.refine;
        let mut partition = self.inner.partition(coarsest, num_parts, seed)?.partition;
        // The arena's FM workspace serves every level of the uncoarsening
        // (its buffers are sized once at the fine level and reused — and
        // stay warm for the next call).
        arena.fm.refine(coarsest, &mut partition, opts, seed);

        // Uncoarsen: project through each level, refining on the finer
        // graph after every projection. The fine boundary after a
        // projection is exactly the preimage of the coarse boundary
        // (a cut fine edge maps to a cut coarse edge), and the engine's
        // own [`FmRefiner::last_boundary_superset`] covers the coarse
        // boundary after each refine — so each level masks that
        // superset and projects through `project_for_fm`, one fused
        // pass that also yields the boundary hint and the per-part
        // loads/populations for the primed refiner. No O(V + E)
        // boundary rediscovery, no O(V) re-tally, and supersets compose,
        // so results are bit-identical to the unhinted engine
        // (`boundary_fm_fast_path_matches_the_unhinted_engine` pins it).
        for (i, level) in levels.iter().enumerate().rev() {
            let fine = if i == 0 { graph } else { &levels[i - 1].coarse };
            arena.mask.clear();
            arena.mask.resize(level.coarse.num_nodes(), false);
            for &v in arena.fm.last_boundary_superset() {
                arena.mask[v as usize] = true;
            }
            let projected = level.project_for_fm(&partition, fine, &arena.mask);
            partition = projected.partition;
            arena.fm.refine_primed(
                fine,
                &mut partition,
                opts,
                seed,
                &projected.hint,
                projected.loads,
                projected.counts,
            );
        }
        Ok(PartitionReport::new(self.name, graph, partition))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::{coarsen_to, project_through};
    use crate::generators::{grid2d, jittered_mesh, GridKind};
    use crate::partition::{cut_size, Partition};
    use std::cell::Cell;
    use std::rc::Rc;

    /// Deterministic inner fixture: contiguous block assignment. Being a
    /// crate-local impl it also proves the framework needs nothing from
    /// the algorithm crates above `gapart-graph`.
    struct Blocks;

    impl Partitioner for Blocks {
        fn name(&self) -> &'static str {
            "blocks"
        }

        fn partition(
            &self,
            graph: &CsrGraph,
            num_parts: u32,
            _seed: u64,
        ) -> Result<PartitionReport, PartitionerError> {
            if num_parts == 0 || num_parts as usize > graph.num_nodes() {
                return Err(PartitionerError::new("bad part count"));
            }
            let p = Partition::blocks(graph.num_nodes(), num_parts);
            Ok(PartitionReport::new(self.name(), graph, p))
        }
    }

    fn ml_blocks() -> MultilevelPartitioner {
        MultilevelPartitioner::new("mlblocks", Box::new(Blocks))
    }

    #[test]
    fn projects_back_to_full_size_with_valid_labels() {
        let g = jittered_mesh(500, 3);
        let report = ml_blocks().partition(&g, 4, 7).unwrap();
        assert_eq!(report.algorithm, "mlblocks");
        assert_eq!(report.partition.num_nodes(), 500);
        assert!(report.partition.labels().iter().all(|&l| l < 4));
        assert_eq!(report.metrics.part_loads.iter().sum::<u64>(), 500);
    }

    #[test]
    fn refinement_never_worsens_the_projected_inner_cut() {
        let g = grid2d(24, 24, GridKind::FourConnected);
        let ml = ml_blocks();
        let report = ml.partition(&g, 4, 11).unwrap();
        // Recompute the raw projected solution (deterministic pipeline).
        let target = MultilevelConfig::default().coarsen_target;
        let levels = coarsen_to(&g, target.max(8), 11);
        let coarsest = levels.last().map_or(&g, |l| &l.coarse);
        let coarse_p = Blocks.partition(coarsest, 4, 11).unwrap().partition;
        let projected = project_through(&levels, &coarse_p);
        assert!(
            report.metrics.total_cut <= cut_size(&g, &projected),
            "V-cycle cut {} worse than raw projection {}",
            report.metrics.total_cut,
            cut_size(&g, &projected)
        );
    }

    #[test]
    fn small_graph_skips_coarsening_and_reaches_the_inner_directly() {
        // Probe inner that records the node count it was handed.
        struct Probe(Rc<Cell<usize>>);
        impl Partitioner for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn partition(
                &self,
                graph: &CsrGraph,
                num_parts: u32,
                _seed: u64,
            ) -> Result<PartitionReport, PartitionerError> {
                self.0.set(graph.num_nodes());
                let p = Partition::blocks(graph.num_nodes(), num_parts);
                Ok(PartitionReport::new(self.name(), graph, p))
            }
        }
        let seen = Rc::new(Cell::new(0usize));
        let g = jittered_mesh(40, 1);
        // 40 ≤ default target 64: the inner must see the original graph.
        let ml = MultilevelPartitioner::new("mlprobe", Box::new(Probe(Rc::clone(&seen))));
        let report = ml.partition(&g, 2, 0).unwrap();
        assert_eq!(seen.get(), 40, "inner saw a coarsened graph");
        assert_eq!(report.partition.num_nodes(), 40);
    }

    #[test]
    fn boundary_fm_fast_path_matches_the_unhinted_engine() {
        // The V-cycle's fused projection + boundary-superset chaining +
        // primed tallies are pure plumbing: the result must be
        // bit-identical to projecting plainly and running a fresh,
        // unhinted FM engine at every level.
        use crate::coarsen::coarsen_to;
        use crate::fm::FmRefiner;
        let g = jittered_mesh(600, 21);
        let seed = 17;
        let fast = ml_blocks().partition(&g, 5, seed).unwrap().partition;

        let levels = coarsen_to(&g, 64, seed);
        let coarsest = levels.last().map_or(&g, |l| &l.coarse);
        let mut p = Blocks.partition(coarsest, 5, seed).unwrap().partition;
        let opts = crate::refine::RefineOptions::default();
        FmRefiner::new().refine(coarsest, &mut p, &opts, seed);
        for (i, level) in levels.iter().enumerate().rev() {
            p = level.project(&p);
            let fine = if i == 0 { &g } else { &levels[i - 1].coarse };
            FmRefiner::new().refine(fine, &mut p, &opts, seed);
        }
        assert_eq!(fast, p, "fast path diverged from the reference V-cycle");
    }

    #[test]
    fn rejects_bad_part_counts_without_panicking() {
        let g = jittered_mesh(30, 5);
        let ml = ml_blocks();
        assert!(ml.partition(&g, 0, 1).is_err());
        assert!(ml.partition(&g, 31, 1).is_err());
    }

    #[test]
    fn inner_errors_propagate() {
        struct Fails;
        impl Partitioner for Fails {
            fn name(&self) -> &'static str {
                "fails"
            }
            fn partition(
                &self,
                _graph: &CsrGraph,
                _num_parts: u32,
                _seed: u64,
            ) -> Result<PartitionReport, PartitionerError> {
                Err(PartitionerError::new("inner exploded"))
            }
        }
        let g = jittered_mesh(200, 2);
        let ml = MultilevelPartitioner::new("mlfails", Box::new(Fails));
        let err = ml.partition(&g, 4, 0).unwrap_err();
        assert!(err.message().contains("inner exploded"));
    }

    #[test]
    fn deterministic_under_seed() {
        let g = jittered_mesh(300, 9);
        let ml = ml_blocks();
        let a = ml.partition(&g, 8, 42).unwrap();
        let b = ml.partition(&g, 8, 42).unwrap();
        assert_eq!(a.partition, b.partition);
        // A different seed shuffles the matching order, which is allowed
        // to (and on meshes does) change the result.
        let c = ml.partition(&g, 8, 43).unwrap();
        assert_eq!(c.partition.num_nodes(), 300);
    }

    #[test]
    fn edgeless_graph_terminates_and_covers_every_node() {
        let g = crate::builder::GraphBuilder::with_nodes(20)
            .build()
            .unwrap();
        let report = ml_blocks().partition(&g, 4, 3).unwrap();
        assert_eq!(report.partition.num_nodes(), 20);
        assert_eq!(report.metrics.total_cut, 0);
    }
}
