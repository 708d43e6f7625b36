//! Rated-edge-matching graph contraction.
//!
//! The paper recommends "a prior graph contraction step" before applying
//! the GA to very large graphs, and its RSB reference \[13\] (Barnard &
//! Simon) is a multilevel method. This module provides the matching
//! coarsening used by both: match each unmatched vertex to an unmatched
//! neighbour behind its best-rated edge, merge matched pairs, and sum
//! node/edge weights so a partition of the coarse graph has exactly the
//! same cost on the fine graph.
//!
//! An edge is rated by ω(u,v)² / (c(u)·c(v)), KaHIP's expansion*²
//! (Holtgrewe, Sanders & Schulz, IPDPS 2010), where ω is the edge weight
//! and c the node weight. Raw heavy-edge matching pairs heavy nodes with
//! heavy nodes and strands their light neighbours; dividing by the node
//! weights makes a light vertex the preferred partner, so every level
//! shrinks by about half until the target size.
//!
//! Matching is a **parallel handshake**: every unmatched vertex points,
//! in parallel, at its best available neighbour under [`edge_key`], a
//! seeded, edge-symmetric total order; vertices that point at each other
//! lock in as a pair; repeat until a round locks nothing new. The fixed
//! point is a pure function of `(graph, seed)` — never of scheduling or
//! thread count — because each round's preferences depend only on the
//! matched set left by earlier rounds.
//!
//! Contraction (coarse node weights, centroid coordinates, merged coarse
//! edges) runs over fixed-size chunks of coarse vertices, each building
//! flat arrays that are concatenated in chunk order, so the whole module
//! is bit-identical for any worker-pool size.

use crate::csr::{CsrGraph, SmallCsr};
use crate::fm::FmRefiner;
use crate::geometry::Point2;
use crate::partition::Partition;
use rayon::prelude::*;
use std::cmp::Ordering;

/// Sentinel for "not matched yet" in mate arrays.
const UNMATCHED: u32 = u32::MAX;

/// Minimum items per worker for the parallel matching scan: vertices are
/// cheap to process individually, so small levels run inline rather than
/// paying thread-spawn overhead.
const PAR_MIN_LEN: usize = 2048;

/// Coarse vertices per contraction chunk. Fixed, never derived from the
/// pool size, so the chunk boundaries — and with them every byte of the
/// contracted graph — are the same at any thread count.
const CONTRACT_CHUNK: usize = 4096;

/// Which matching algorithm drives a coarsening round. The handshake is
/// the only one; the type stays because the benchmark harness passes
/// `MultilevelConfig::match_scheme` to [`coarsen_to_with_arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchScheme {
    /// Deterministic parallel handshake matching: rounds of
    /// mutual-preference locking whose fixed point depends only on
    /// `(graph, seed)`, never on thread count.
    #[default]
    ParallelHandshake,
}

/// One coarsening level: the coarse graph plus the fine→coarse vertex map.
#[derive(Debug, Clone)]
pub struct Coarsening {
    /// The contracted graph. Node weights are the sums of the merged fine
    /// nodes; edge weights are the sums of the fine edges they represent.
    pub coarse: CsrGraph,
    /// `map[v]` is the coarse vertex that fine vertex `v` merged into.
    pub map: Vec<u32>,
}

impl Coarsening {
    /// Lifts a partition of the coarse graph back to the fine graph: fine
    /// vertex `v` gets the part of `map[v]`.
    pub fn project(&self, coarse_partition: &Partition) -> Partition {
        assert_eq!(
            coarse_partition.num_nodes(),
            self.coarse.num_nodes(),
            "partition does not match coarse graph"
        );
        let labels = self
            .map
            .iter()
            .map(|&cv| coarse_partition.part(cv))
            .collect();
        Partition::new(labels, coarse_partition.num_parts()).expect("projected labels are in range")
    }

    /// [`Coarsening::project`] fused with everything the hinted
    /// boundary-FM refiner ([`crate::fm::FmRefiner::refine_primed`])
    /// needs, collected in the same single pass over the fine vertices:
    /// per-part loads and populations of the projected partition, and
    /// the *boundary hint* — every fine vertex whose coarse node is
    /// flagged in `coarse_boundary`. Since a cut fine edge always maps
    /// to a cut coarse edge, flagging the coarse boundary makes the
    /// hint a superset of the fine boundary, which is exactly the
    /// contract the hinted refiner requires.
    ///
    /// Equivalent to `project` + a load tally + a boundary filter, at a
    /// third of the memory passes — the uncoarsening hot path.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not match the coarse graph, if
    /// `fine` is not this level's fine graph, or if `coarse_boundary`
    /// is not sized to the coarse graph.
    pub fn project_for_fm(
        &self,
        coarse_partition: &Partition,
        fine: &CsrGraph,
        coarse_boundary: &[bool],
    ) -> ProjectedLevel {
        assert_eq!(
            coarse_partition.num_nodes(),
            self.coarse.num_nodes(),
            "partition does not match coarse graph"
        );
        assert_eq!(self.map.len(), fine.num_nodes(), "fine graph mismatch");
        assert_eq!(
            coarse_boundary.len(),
            self.coarse.num_nodes(),
            "boundary mask mismatch"
        );
        let n_parts = coarse_partition.num_parts() as usize;
        let mut labels = Vec::with_capacity(self.map.len());
        let mut hint = Vec::new();
        let mut loads = vec![0u64; n_parts];
        let mut counts = vec![0usize; n_parts];
        for (v, &cv) in self.map.iter().enumerate() {
            let l = coarse_partition.part(cv);
            labels.push(l);
            loads[l as usize] += fine.node_weight(v as u32) as u64;
            counts[l as usize] += 1;
            if coarse_boundary[cv as usize] {
                hint.push(v as u32);
            }
        }
        let partition = Partition::new(labels, coarse_partition.num_parts())
            .expect("projected labels are in range");
        ProjectedLevel {
            partition,
            hint,
            loads,
            counts,
        }
    }
}

/// Output of [`Coarsening::project_for_fm`]: the projected partition
/// plus the refinement state the boundary-FM fast path consumes.
pub struct ProjectedLevel {
    /// The lifted fine partition.
    pub partition: Partition,
    /// Fine vertices whose coarse node was on the cut boundary — a
    /// superset of the fine boundary.
    pub hint: Vec<u32>,
    /// Per-part loads of `partition` (identical to the coarse loads:
    /// contraction preserves them exactly).
    pub loads: Vec<u64>,
    /// Per-part node populations of `partition`.
    pub counts: Vec<usize>,
}

/// Recycled workspace for the multilevel V-cycle: every per-level buffer
/// the coarsening and refinement layers would otherwise allocate afresh —
/// handshake match arrays, the contraction's coarse-id owner table, the
/// projection boundary mask, and the FM engine workspace — owned in one
/// place and reused across levels, across calls, and across
/// `DynamicSession` batches. The coarse graph's own arrays are built
/// fresh, since the returned level owns them.
///
/// The arena is purely an allocation cache: every user fully
/// reinitializes the portion it reads before reading it, so results are
/// bit-identical whether the arena is fresh or recycled and sharing one
/// across calls never affects determinism.
pub struct LevelArena {
    // Handshake matching: mate/pref tables and the active worklist.
    mate: Vec<u32>,
    pref: Vec<u32>,
    active: Vec<u32>,
    // Per-round preference snapshot, aligned with `active`.
    prefs: Vec<u32>,
    // Contraction: coarse-id owner table.
    rep: Vec<u32>,
    // V-cycle: coarse boundary mask for the fused projection.
    pub(crate) mask: Vec<bool>,
    // Refinement engine workspace, kept warm across levels and calls.
    pub(crate) fm: FmRefiner,
}

impl Default for LevelArena {
    fn default() -> Self {
        Self::new()
    }
}

impl LevelArena {
    /// A fresh arena; buffers grow on first use and persist afterwards.
    pub fn new() -> Self {
        LevelArena {
            mate: Vec::new(),
            pref: Vec::new(),
            active: Vec::new(),
            prefs: Vec::new(),
            rep: Vec::new(),
            mask: Vec::new(),
            fm: FmRefiner::new(),
        }
    }
}

/// SplitMix64 — the mixing function behind the seeded edge priorities
/// (also used by [`crate::fm`] for its seeded tie-breaking keys).
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An edge's rank in the handshake: its rating ω² / (c(u)·c(v)), then a
/// seeded hash, then the packed endpoint pair. Built by [`edge_key`].
///
/// The rating is held as an exact fraction and compared by
/// cross-multiplication in `u128` — a/b > c/d ⇔ a·d > c·b — so no float
/// enters the matcher. Both ω² and the denominator are below 2⁶⁴, so
/// each product fits. Ratings that tie as fractions fall through to the
/// hash and then to the endpoints, which makes the order total and
/// strict on the edges of a graph.
#[derive(Debug, Clone, Copy)]
pub struct EdgeKey {
    // ω², exact.
    num: u64,
    // max(c(u), 1) · max(c(v), 1), exact and never zero.
    den: u64,
    hash: u64,
    packed: u64,
}

impl Ord for EdgeKey {
    fn cmp(&self, other: &Self) -> Ordering {
        (u128::from(self.num) * u128::from(other.den))
            .cmp(&(u128::from(other.num) * u128::from(self.den)))
            .then(self.hash.cmp(&other.hash))
            .then(self.packed.cmp(&other.packed))
    }
}

impl PartialOrd for EdgeKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for EdgeKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for EdgeKey {}

/// The key the handshake ranks the edge `{v, u}` of weight `w` by, where
/// `cv` and `cu` are the endpoints' node weights: the larger the key, the
/// more both endpoints want the merge.
///
/// The rating ω² / (c(u)·c(v)) prefers light partners, so light vertices
/// are absorbed instead of stranded. A zero node weight counts as 1 in
/// the denominator, so every rating is defined. The key is symmetric in
/// the endpoints, so both sides of an edge agree on its rank — the
/// property the handshake's progress argument needs.
#[inline]
pub fn edge_key(seed: u64, w: u32, v: u32, cv: u32, u: u32, cu: u32) -> EdgeKey {
    let packed = (u64::from(v.min(u)) << 32) | u64::from(v.max(u));
    EdgeKey {
        num: u64::from(w) * u64::from(w),
        den: u64::from(cv.max(1)) * u64::from(cu.max(1)),
        hash: splitmix64(seed ^ packed),
        packed,
    }
}

/// Deterministic parallel handshake matching. Each round, every active
/// (unmatched, not yet isolated) vertex computes its preferred available
/// neighbour — the incident edge of maximum [`edge_key`] — in parallel;
/// mutually-preferring pairs lock in sequentially (cheap, `O(active)`).
/// The keys are fixed for the whole level (node weights only change at
/// contraction) and form a strict total order on its edges, so the
/// globally best available edge is always mutual: every round with any
/// available edge locks at least one pair and the loop terminates.
///
/// `max_weight` bounds the node weight a merge may create (pairs with
/// `w(v) + w(u) > max_weight` are never formed), so no coarse node
/// outgrows the balance the target size allows and the inner solver
/// always has nodes light enough to even out its parts.
/// [`coarsen_to`] supplies the standard `1.5 × total / target` cap;
/// a single explicit round is uncapped.
/// The matching is left in `arena.mate`; every buffer it touches is
/// reinitialized here, so a recycled arena gives the identical result.
fn match_handshake(graph: &CsrGraph, seed: u64, max_weight: u32, arena: &mut LevelArena) {
    let n = graph.num_nodes();
    let LevelArena {
        mate,
        pref,
        active,
        prefs,
        ..
    } = arena;
    mate.clear();
    mate.resize(n, UNMATCHED);
    pref.clear();
    pref.resize(n, UNMATCHED);
    active.clear();
    active.extend(0..n as u32);
    while !active.is_empty() {
        // Parallel preference scan against the frozen matched set,
        // written in place into the recycled `prefs` buffer (chunked
        // exactly like the old collect, so the values are unchanged).
        prefs.clear();
        prefs.resize(active.len(), UNMATCHED);
        {
            let mate = &*mate;
            let active = &*active;
            prefs
                .par_chunks_mut(PAR_MIN_LEN)
                .enumerate()
                .for_each(|(ci, chunk)| {
                    let base = ci * PAR_MIN_LEN;
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        let v = active[base + i];
                        let wv = graph.node_weight(v);
                        let mut best: Option<(EdgeKey, u32)> = None;
                        for (&u, &w) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
                            let wu = graph.node_weight(u);
                            if mate[u as usize] == UNMATCHED && wv.saturating_add(wu) <= max_weight
                            {
                                let key = edge_key(seed, w, v, wv, u, wu);
                                if best.is_none_or(|(bk, _)| key > bk) {
                                    best = Some((key, u));
                                }
                            }
                        }
                        *slot = best.map_or(UNMATCHED, |(_, u)| u);
                    }
                });
        }
        for (&v, &p) in active.iter().zip(prefs.iter()) {
            pref[v as usize] = p;
        }
        // Lock mutual pairs; a vertex with no available neighbour can
        // never regain one (the matched set only grows), so it leaves the
        // active set for good and becomes a singleton at the end.
        let mut locked = 0usize;
        for &v in active.iter() {
            let u = pref[v as usize];
            if u != UNMATCHED && mate[v as usize] == UNMATCHED && pref[u as usize] == v {
                mate[v as usize] = u;
                mate[u as usize] = v;
                locked += 1;
            }
        }
        if locked == 0 {
            break;
        }
        active.retain(|&v| mate[v as usize] == UNMATCHED && pref[v as usize] != UNMATCHED);
    }
    for (v, m) in mate.iter_mut().enumerate() {
        if *m == UNMATCHED {
            *m = v as u32; // singleton
        }
    }
}

/// One chunk of the coarse graph: the weights, centroids and merged rows
/// of a contiguous range of coarse vertices, in flat arrays.
struct ContractedChunk {
    lens: Vec<u32>,
    adjncy: Vec<u32>,
    eweights: Vec<u32>,
    vweights: Vec<u32>,
    coords: Vec<Point2>,
}

/// Contracts `graph` along a complete matching (`mate[v] == v` marks a
/// singleton): assigns coarse ids in fine-id order, then builds the
/// coarse vertices in fixed chunks of [`CONTRACT_CHUNK`], in parallel,
/// and concatenates the chunks in order into the coarse CSR.
fn contract(graph: &CsrGraph, mate: &[u32], rep: &mut Vec<u32>) -> Coarsening {
    let n = graph.num_nodes();

    // Coarse ids: the lower endpoint of each pair owns the id. `rep[cv]`
    // is that owner, so each coarse vertex knows its 1–2 fine preimages
    // (`rep` and `mate[rep]`) without a scatter pass. `map` is owned by
    // the returned Coarsening, so it alone is allocated fresh.
    let mut map = vec![u32::MAX; n];
    rep.clear();
    rep.reserve(n / 2 + 1);
    for v in 0..n as u32 {
        if map[v as usize] != u32::MAX {
            continue;
        }
        let next = rep.len() as u32;
        map[v as usize] = next;
        let m = mate[v as usize];
        if m != v {
            map[m as usize] = next;
        }
        rep.push(v);
    }
    let n_coarse = rep.len();
    let rep: &[u32] = rep;

    let chunks: Vec<ContractedChunk> = (0..n_coarse.div_ceil(CONTRACT_CHUNK))
        .into_par_iter()
        .map(|ci| {
            let first = ci * CONTRACT_CHUNK;
            let range = first..n_coarse.min(first + CONTRACT_CHUNK);
            contract_chunk(graph, mate, rep, &map, range)
        })
        .collect();

    // Concatenate in chunk order. The coarse adjacency never exceeds the
    // fine graph's, and every existing `CsrGraph` already fits the u32
    // offset space, so the offsets accumulate in u32 directly.
    let total: usize = chunks.iter().map(|c| c.adjncy.len()).sum();
    debug_assert!(total <= graph.adjncy().len());
    let mut xadj: Vec<u32> = Vec::with_capacity(n_coarse + 1);
    let mut adjncy = Vec::with_capacity(total);
    let mut eweights = Vec::with_capacity(total);
    let mut vweights = Vec::with_capacity(n_coarse);
    let mut coords = graph.coords().map(|_| Vec::with_capacity(n_coarse));
    let mut offset = 0u32;
    xadj.push(offset);
    for chunk in chunks {
        xadj.extend(chunk.lens.iter().map(|&len| {
            offset += len;
            offset
        }));
        adjncy.extend_from_slice(&chunk.adjncy);
        eweights.extend_from_slice(&chunk.eweights);
        vweights.extend_from_slice(&chunk.vweights);
        if let Some(coords) = coords.as_mut() {
            coords.extend_from_slice(&chunk.coords);
        }
    }
    let coarse = CsrGraph {
        topo: SmallCsr::from_u32_offsets(xadj, adjncy, eweights),
        vweights,
        coords,
    };
    debug_assert!(coarse.validate().is_ok());
    Coarsening { coarse, map }
}

/// Builds the coarse vertices in `range`: node weights (saturating sums),
/// centroids, and one merged row each — the neighbours' coarse ids sorted,
/// self-loops dropped, and parallel edges summed. Summing in u64 and
/// clamping once makes a row independent of accumulation order (u32
/// saturation is order-sensitive only at the limit).
fn contract_chunk(
    graph: &CsrGraph,
    mate: &[u32],
    rep: &[u32],
    map: &[u32],
    range: std::ops::Range<usize>,
) -> ContractedChunk {
    let fine_coords = graph.coords();
    let mut out = ContractedChunk {
        lens: Vec::with_capacity(range.len()),
        adjncy: Vec::new(),
        eweights: Vec::new(),
        vweights: Vec::with_capacity(range.len()),
        coords: Vec::with_capacity(fine_coords.map_or(0, |_| range.len())),
    };
    let mut scratch: Vec<(u32, u32)> = Vec::with_capacity(16);
    for (cv, &a) in range.clone().zip(&rep[range]) {
        // Fine preimages of `cv`, singleton-aware.
        let b = mate[a as usize];
        let pair = [a, b];
        let members = &pair[..1 + usize::from(b != a)];

        out.vweights.push(
            members
                .iter()
                .fold(0u32, |acc, &v| acc.saturating_add(graph.node_weight(v))),
        );

        // Centroid: node-weight-weighted mean of the group, with an
        // unweighted-mean fallback for a zero-weight group — `sx / 0`
        // would be NaN and poison `geometry::NearestGrid` and every
        // coords consumer downstream.
        if let Some(fine) = fine_coords {
            let (mut sx, mut sy, mut sw, mut count) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for &v in members {
                let wv = f64::from(graph.node_weight(v));
                let p = fine[v as usize];
                sx += p.x * wv;
                sy += p.y * wv;
                sw += wv;
                count += 1.0;
            }
            out.coords.push(if sw > 0.0 {
                Point2::new(sx / sw, sy / sw)
            } else {
                let (mut ux, mut uy) = (0.0f64, 0.0f64);
                for &v in members {
                    let p = fine[v as usize];
                    ux += p.x;
                    uy += p.y;
                }
                Point2::new(ux / count, uy / count)
            });
        }

        scratch.clear();
        for &v in members {
            for (&u, &w) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
                let cu = map[u as usize];
                if cu as usize != cv {
                    scratch.push((cu, w));
                }
            }
        }
        scratch.sort_unstable_by_key(|&(cu, _)| cu);
        let mut len = 0u32;
        for run in scratch.chunk_by(|x, y| x.0 == y.0) {
            let sum: u64 = run.iter().map(|&(_, w)| u64::from(w)).sum();
            out.adjncy.push(run[0].0);
            out.eweights.push(u32::try_from(sum).unwrap_or(u32::MAX));
            len += 1;
        }
        out.lens.push(len);
    }
    out
}

/// One uncapped round of matching along [`edge_key`]'s best edges (the
/// name is from when the order was the raw edge weight). Deterministic
/// for any worker-pool size: the result is a pure function of
/// `(graph, seed)`.
///
/// The coarse graph is never larger than the fine one and is strictly
/// smaller whenever any edge has both endpoints unmatched at fixed point.
pub fn coarsen_hem(graph: &CsrGraph, seed: u64) -> Coarsening {
    coarsen_round(graph, seed, u32::MAX, &mut LevelArena::new())
}

/// One matching + contraction round under a merge-weight cap.
fn coarsen_round(
    graph: &CsrGraph,
    seed: u64,
    max_weight: u32,
    arena: &mut LevelArena,
) -> Coarsening {
    match_handshake(graph, seed, max_weight, arena);
    contract(graph, &arena.mate, &mut arena.rep)
}

/// Coarsens repeatedly until the graph has at most `target_nodes` nodes or
/// a round fails to shrink it by at least 5%. Returns the levels from
/// finest to coarsest (empty if the graph is already small enough).
///
/// Degenerate inputs terminate with a valid (possibly empty) level stack:
/// an edgeless graph can never contract (there is nothing to match), a
/// single-node or empty graph is already at its floor, and a star shrinks
/// by only one pair per round until the 5% rule stops it.
pub fn coarsen_to(graph: &CsrGraph, target_nodes: usize, seed: u64) -> Vec<Coarsening> {
    coarsen_to_with_arena(
        graph,
        target_nodes,
        seed,
        MatchScheme::default(),
        &mut LevelArena::new(),
    )
}

/// [`coarsen_to`] against a caller-owned [`LevelArena`], so repeated
/// V-cycles (and `DynamicSession` batches) recycle every per-level scratch
/// buffer instead of reallocating it each call. Bit-identical to the
/// fresh-arena path. [`MatchScheme`] has a single variant, so `_scheme`
/// selects nothing.
pub fn coarsen_to_with_arena(
    graph: &CsrGraph,
    target_nodes: usize,
    seed: u64,
    _scheme: MatchScheme,
    arena: &mut LevelArena,
) -> Vec<Coarsening> {
    assert!(target_nodes > 0, "target must be positive");
    // METIS-style merge cap: no coarse node may exceed 1.5× the average
    // node weight the target size implies. Total weight is conserved by
    // contraction, so one cap serves every level.
    let max_weight = ((graph.total_node_weight() as f64 * 1.5 / target_nodes as f64).ceil() as u64)
        .clamp(1, u32::MAX as u64) as u32;
    let mut levels: Vec<Coarsening> = Vec::new();
    let mut round = 0u64;
    loop {
        // Each level's graph is already owned by the Vec, so the next
        // round borrows it instead of keeping a cloned "current" copy.
        let current = levels.last().map_or(graph, |l| &l.coarse);
        let before = current.num_nodes();
        if before <= target_nodes {
            break;
        }
        if current.num_edges() == 0 {
            break; // every vertex is isolated; a round would be a no-op
        }
        let level = coarsen_round(current, seed.wrapping_add(round), max_weight, arena);
        if level.coarse.num_nodes() as f64 > before as f64 * 0.95 {
            break; // diminishing returns (e.g. star graphs)
        }
        levels.push(level);
        round += 1;
    }
    levels
}

/// Projects a partition of the coarsest level of `levels` all the way back
/// to the original fine graph.
pub fn project_through(levels: &[Coarsening], coarsest: &Partition) -> Partition {
    let mut p = coarsest.clone();
    for level in levels.iter().rev() {
        p = level.project(&p);
    }
    p
}

/// The row-merge contraction the flat one must reproduce, shared with
/// the integration tests.
#[cfg(test)]
#[path = "../tests/support/row_merge.rs"]
mod row_merge;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_edges, GraphBuilder};
    use crate::generators::{paper_graph, ring_lattice};
    use crate::partition::{cut_size, PartitionMetrics};
    use crate::traversal::is_connected;

    #[test]
    fn coarsening_halves_a_matching_friendly_graph() {
        let g = ring_lattice(16, 1);
        let c = coarsen_hem(&g, 1);
        assert!(c.coarse.num_nodes() <= 12, "got {}", c.coarse.num_nodes());
        assert!(c.coarse.num_nodes() >= 8);
    }

    #[test]
    fn project_for_fm_matches_the_separate_passes() {
        use crate::partition::boundary_nodes;
        let g = paper_graph(213);
        let c = coarsen_hem(&g, 7);
        for seed in 0..3u64 {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let coarse_p = Partition::new(
                (0..c.coarse.num_nodes())
                    .map(|_| rng.gen_range(0..4))
                    .collect(),
                4,
            )
            .unwrap();
            let mut mask = vec![false; c.coarse.num_nodes()];
            for v in boundary_nodes(&c.coarse, &coarse_p) {
                mask[v as usize] = true;
            }
            let fused = c.project_for_fm(&coarse_p, &g, &mask);
            // Partition: identical to the plain projection.
            let plain = c.project(&coarse_p);
            assert_eq!(fused.partition, plain);
            // Loads/counts: the exact tally of the projected partition.
            let m = PartitionMetrics::compute(&g, &plain);
            assert_eq!(fused.loads, m.part_loads);
            let mut counts = vec![0usize; 4];
            for &l in plain.labels() {
                counts[l as usize] += 1;
            }
            assert_eq!(fused.counts, counts);
            // Hint: exactly the preimage of the flagged coarse nodes,
            // and a superset of the true fine boundary.
            let expect: Vec<u32> = (0..g.num_nodes() as u32)
                .filter(|&v| mask[c.map[v as usize] as usize])
                .collect();
            assert_eq!(fused.hint, expect);
            for v in boundary_nodes(&g, &plain) {
                assert!(fused.hint.contains(&v), "hint missed boundary node {v}");
            }
        }
    }

    #[test]
    fn node_weight_is_conserved() {
        let g = paper_graph(144);
        let c = coarsen_hem(&g, 3);
        assert_eq!(c.coarse.total_node_weight(), g.total_node_weight());
    }

    #[test]
    fn connectivity_is_preserved() {
        let g = paper_graph(167);
        let c = coarsen_hem(&g, 5);
        assert!(is_connected(&c.coarse));
    }

    #[test]
    fn projected_partition_cost_matches_coarse_cost() {
        // Key invariant: summed weights mean a coarse partition's cut and
        // loads equal the projected fine partition's cut and loads.
        let g = paper_graph(139);
        let c = coarsen_hem(&g, 9);
        let coarse_p = Partition::round_robin(c.coarse.num_nodes(), 4);
        let fine_p = c.project(&coarse_p);
        let mc = PartitionMetrics::compute(&c.coarse, &coarse_p);
        let mf = PartitionMetrics::compute(&g, &fine_p);
        assert_eq!(mc.total_cut, mf.total_cut);
        assert_eq!(mc.part_loads, mf.part_loads);
    }

    #[test]
    fn map_covers_every_fine_vertex() {
        let g = paper_graph(98);
        let c = coarsen_hem(&g, 2);
        assert_eq!(c.map.len(), 98);
        let max = *c.map.iter().max().unwrap() as usize;
        assert_eq!(max + 1, c.coarse.num_nodes());
        // Each coarse vertex has 1 or 2 fine preimages after one round.
        let mut counts = vec![0; c.coarse.num_nodes()];
        for &cv in &c.map {
            counts[cv as usize] += 1;
        }
        assert!(counts.iter().all(|&k| k == 1 || k == 2));
    }

    #[test]
    fn handshake_matches_are_edges() {
        // Every merged pair must actually be adjacent in the fine graph.
        let g = paper_graph(211);
        let c = coarsen_hem(&g, 17);
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); c.coarse.num_nodes()];
        for (v, &cv) in c.map.iter().enumerate() {
            groups[cv as usize].push(v as u32);
        }
        for group in groups {
            if let [a, b] = group[..] {
                assert!(g.has_edge(a, b), "merged non-adjacent pair {a},{b}");
            }
        }
    }

    #[test]
    fn coarsen_to_reaches_target() {
        let g = paper_graph(309);
        let levels = coarsen_to(&g, 40, 7);
        assert!(!levels.is_empty());
        let coarsest = &levels.last().unwrap().coarse;
        assert!(coarsest.num_nodes() <= 40 || levels.len() > 6);
        // Weight conserved through all levels.
        assert_eq!(coarsest.total_node_weight(), g.total_node_weight());
    }

    #[test]
    fn project_through_round_trips_costs() {
        let g = paper_graph(213);
        let levels = coarsen_to(&g, 30, 1);
        let coarsest = &levels.last().unwrap().coarse;
        let cp = Partition::blocks(coarsest.num_nodes(), 2);
        let fp = project_through(&levels, &cp);
        assert_eq!(fp.num_nodes(), 213);
        assert_eq!(
            cut_size(coarsest, &cp),
            cut_size(&g, &fp),
            "cut not preserved by projection"
        );
    }

    #[test]
    fn coarsen_star_terminates() {
        // A star can only shrink by one pair per round; coarsen_to must not
        // loop forever.
        let edges: Vec<(u32, u32)> = (1..50u32).map(|v| (0, v)).collect();
        let g = from_edges(50, &edges).unwrap();
        let levels = coarsen_to(&g, 2, 0);
        assert!(levels.len() < 60);
    }

    #[test]
    fn deterministic() {
        let g = paper_graph(88);
        let a = coarsen_hem(&g, 4);
        let b = coarsen_hem(&g, 4);
        assert_eq!(a.coarse, b.coarse);
        assert_eq!(a.map, b.map);
    }

    #[test]
    fn edgeless_graph_terminates_with_empty_stack() {
        // No edges → matching can never pair anything; coarsen_to must stop
        // immediately rather than looping on no-op rounds.
        let g = GraphBuilder::with_nodes(12).build().unwrap();
        let levels = coarsen_to(&g, 4, 0);
        assert!(levels.is_empty());
        // One explicit round is a valid identity contraction.
        let c = coarsen_hem(&g, 0);
        assert_eq!(c.coarse.num_nodes(), 12);
        assert_eq!(c.coarse.num_edges(), 0);
        let p = Partition::round_robin(12, 3);
        assert_eq!(c.project(&p).num_nodes(), 12);
    }

    #[test]
    fn single_node_graph_is_already_coarse() {
        let g = GraphBuilder::with_nodes(1).build().unwrap();
        assert!(coarsen_to(&g, 1, 7).is_empty());
        let c = coarsen_hem(&g, 7);
        assert_eq!(c.coarse.num_nodes(), 1);
        assert_eq!(c.map, vec![0]);
    }

    #[test]
    fn empty_graph_is_a_no_op() {
        let g = GraphBuilder::with_nodes(0).build().unwrap();
        assert!(coarsen_to(&g, 1, 0).is_empty());
        let c = coarsen_hem(&g, 0);
        assert_eq!(c.coarse.num_nodes(), 0);
        assert!(c.map.is_empty());
    }

    #[test]
    fn two_singleton_components_still_project() {
        // Mixed case: one matchable pair plus two isolated vertices.
        let g = {
            let mut b = GraphBuilder::with_nodes(4);
            b.push_edge(0, 1, 1);
            b.build().unwrap()
        };
        let levels = coarsen_to(&g, 2, 1);
        assert_eq!(levels.len(), 1);
        let coarsest = &levels.last().unwrap().coarse;
        assert_eq!(coarsest.num_nodes(), 3);
        let cp = Partition::round_robin(3, 3);
        let fp = project_through(&levels, &cp);
        assert_eq!(fp.num_nodes(), 4);
        assert_eq!(cut_size(coarsest, &cp), cut_size(&g, &fp));
    }

    #[test]
    fn contraction_matches_builder_construction() {
        // The direct CSR assembly must agree with what the validated
        // builder would produce from the same matching.
        let g = paper_graph(177);
        let c = coarsen_hem(&g, 6);
        let mut b = GraphBuilder::with_nodes(c.coarse.num_nodes());
        for (u, v, w) in g.edges() {
            let (cu, cv) = (c.map[u as usize], c.map[v as usize]);
            if cu != cv {
                b.push_edge(cu, cv, w);
            }
        }
        let mut vw = vec![0u32; c.coarse.num_nodes()];
        for (v, &cv) in c.map.iter().enumerate() {
            vw[cv as usize] = vw[cv as usize].saturating_add(g.node_weight(v as u32));
        }
        let rebuilt = b.node_weights(vw).build().unwrap();
        assert_eq!(rebuilt.xadj(), c.coarse.xadj());
        assert_eq!(rebuilt.adjncy(), c.coarse.adjncy());
        assert_eq!(rebuilt.node_weights(), c.coarse.node_weights());
    }

    #[test]
    fn zero_weight_group_centroid_falls_back_to_unweighted_mean() {
        // Regression: a merge group with total node weight 0 used to get
        // a NaN centroid (`sx / 0`). Zero node weights are unreachable
        // through the builder, so construct the CSR directly, as the
        // streaming layers could.
        let mut g = from_edges(4, &[(0, 1), (2, 3), (1, 2)]).unwrap();
        g.coords = Some(vec![
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 2.0),
            Point2::new(4.0, 0.0),
            Point2::new(6.0, 2.0),
        ]);
        g.vweights = vec![0, 0, 1, 3];
        for seed in 0..4u64 {
            let c = coarsen_hem(&g, seed);
            let coords = c.coarse.coords().expect("coords survive contraction");
            for p in coords {
                assert!(
                    p.x.is_finite() && p.y.is_finite(),
                    "seed {seed}: non-finite centroid {p:?}"
                );
            }
            // Wherever {0,1} merged, the centroid is their plain mean.
            if c.map[0] == c.map[1] {
                let p = coords[c.map[0] as usize];
                assert_eq!((p.x, p.y), (1.0, 1.0));
            }
        }
    }

    #[test]
    fn coarsens_to_the_target_where_heavy_edge_matching_stalled() {
        // Raw heavy-edge matching stranded light vertices: these stopped
        // at 1,485 and 7,182 nodes. The rating reaches the target.
        use crate::generators::{grid2d, jittered_mesh, GridKind};
        for g in [
            jittered_mesh(20_000, 7),
            grid2d(320, 320, GridKind::Triangulated),
        ] {
            for seed in 1..=2u64 {
                let levels = coarsen_to(&g, 64, seed);
                let coarsest = levels
                    .last()
                    .map_or(g.num_nodes(), |l| l.coarse.num_nodes());
                assert!(
                    coarsest <= 128,
                    "{} nodes, seed {seed}: stalled at {coarsest}",
                    g.num_nodes()
                );
            }
        }
    }

    #[test]
    fn zero_weight_nodes_contract_like_the_row_merge_oracle() {
        // Zero node weights are unreachable through the builder, so this
        // case lives here rather than in tests/proptest_coarsen.rs: random
        // graphs where a third of the nodes weigh nothing, every level
        // compared with the row-merge contraction.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..120usize);
            let edges: Vec<(u32, u32)> = (0..n * 2)
                .map(|_| {
                    let u = rng.gen_range(0..n as u64) as u32;
                    (u, (u + rng.gen_range(1..n as u64) as u32) % n as u32)
                })
                .collect();
            let mut g = from_edges(n, &edges).unwrap();
            g.vweights = (0..n)
                .map(|_| {
                    if rng.gen_range(0..3u32) == 0 {
                        0
                    } else {
                        rng.gen_range(1..5u32)
                    }
                })
                .collect();
            g.coords = Some(
                (0..n)
                    .map(|_| Point2::new(rng.gen_range(-9.0..9.0), rng.gen_range(-9.0..9.0)))
                    .collect(),
            );
            let mut fine = &g;
            for (i, level) in coarsen_to(&g, 4, seed).iter().enumerate() {
                let coords: Vec<(f64, f64)> =
                    fine.coords().unwrap().iter().map(|p| (p.x, p.y)).collect();
                let want = super::row_merge::contract_rows(
                    fine.xadj(),
                    fine.adjncy(),
                    fine.eweights(),
                    fine.node_weights(),
                    Some(&coords),
                    &level.map,
                );
                let c = &level.coarse;
                let got = super::row_merge::Contracted {
                    xadj: c.xadj().to_vec(),
                    adjncy: c.adjncy().to_vec(),
                    eweights: c.eweights().to_vec(),
                    vweights: c.node_weights().to_vec(),
                    coords: c
                        .coords()
                        .map(|c| c.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()),
                };
                assert_eq!(got, want, "seed {seed}, level {i}");
                fine = c;
            }
        }
    }

    #[test]
    fn zero_weight_nodes_survive_a_full_coarsen_stack() {
        // A zero-weight region must coarsen through multiple levels with
        // every centroid finite, so `geometry::NearestGrid` stays usable.
        let n = 64usize;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
        let mut g = from_edges(n, &edges).unwrap();
        g.coords = Some(
            (0..n)
                .map(|i| Point2::new(i as f64, (i % 7) as f64))
                .collect(),
        );
        // The first half of the chain is weightless.
        g.vweights = (0..n).map(|i| if i < n / 2 { 0 } else { 2 }).collect();
        let levels = coarsen_to(&g, 8, 3);
        assert!(!levels.is_empty());
        for level in &levels {
            for p in level.coarse.coords().unwrap() {
                assert!(p.x.is_finite() && p.y.is_finite(), "NaN centroid: {p:?}");
            }
        }
        let coarsest = &levels.last().unwrap().coarse;
        assert_eq!(coarsest.total_node_weight(), g.total_node_weight());
    }
}
