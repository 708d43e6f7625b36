//! Boundary-vertex hill climbing (§3.6).
//!
//! "Only the 'boundary points' of each part (with neighbors in other
//! parts) are examined to see if migrating them to the appropriate
//! neighboring part improves fitness." Implemented on top of the
//! incremental [`PartitionState`]. Every move gain comes from cached edge
//! weights into neighbouring parts, the connectivity that METIS's k-way
//! refinement keeps per boundary vertex (Karypis & Kumar, JPDC 1998): a
//! gain costs `O(1)`, or `O(P)` under Fitness 2, and never rescans an
//! adjacency list.
//!
//! The sweeps visit only *marked* vertices. The tally that builds the
//! state marks the boundary, a scan that finds a vertex interior clears
//! its mark, and every kept move (a single move, or either half of an
//! accepted pair swap) marks the mover's neighbours, so the marks stay a
//! superset of the boundary. An unmarked vertex has no neighbour
//! in another part, hence no candidate move: skipping it changes no move,
//! no order and no gain.

use crate::fitness::{EvalScratch, FitnessEvaluator, Marks, MoveCounts, PartitionState};
use gapart_graph::CsrGraph;

/// Statistics from a hill-climbing run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClimbStats {
    /// Vertices moved.
    pub moves: usize,
    /// Total fitness improvement (≥ 0).
    pub gain: f64,
    /// Passes executed before reaching a local optimum (or the cap).
    pub passes: usize,
    /// Fitness of the climbed labels, from the climb's final loads and
    /// cuts: bit for bit what [`FitnessEvaluator::evaluate`] returns for
    /// them, without its `O(V + E)` tally.
    pub fitness: f64,
}

/// Hill-climbs `genes` in place: repeatedly sweeps the boundary vertices,
/// moving each to the *best* strictly-improving neighbouring part, until a
/// full pass makes no move or `max_passes` is reached. Returns statistics.
///
/// Only parts that actually appear among a vertex's neighbours are
/// candidate destinations ("the appropriate neighboring part"). One scan
/// of a vertex's adjacency gathers its edge weight into each of them, and
/// every candidate gain and the applied move reuse those sums. Building
/// the state costs one `O(V + E)` tally; a pass then costs `O(deg)` per
/// marked vertex.
pub fn hill_climb(
    evaluator: &FitnessEvaluator<'_>,
    genes: &mut Vec<u32>,
    max_passes: usize,
) -> ClimbStats {
    hill_climb_in(evaluator, genes, max_passes, &mut EvalScratch::default())
}

/// [`hill_climb`] in `scratch`'s buffers, which it leaves grown for the
/// next climb.
// gapart-lint: allow(panic-reach) -- crate-internal: the engine climbs only chromosomes of the graph's length with every label below num_parts, so every index is a node or a part
pub(crate) fn hill_climb_in(
    evaluator: &FitnessEvaluator<'_>,
    genes: &mut Vec<u32>,
    max_passes: usize,
    scratch: &mut EvalScratch,
) -> ClimbStats {
    let mut state = PartitionState::new_in(evaluator.clone(), std::mem::take(genes), scratch);
    let mut stats = ClimbStats::default();
    scratch.sums.reset(evaluator.num_parts());
    for _ in 0..max_passes {
        stats.passes += 1;
        if !single_move_sweep(&mut state, scratch, 0.0, 1e-12, &mut stats) {
            break;
        }
    }
    stats.fitness = state.fitness();
    *genes = state.into_labels_in(scratch);
    stats
}

/// Swap-aware hill climbing: alternates the single-move sweep of
/// [`hill_climb`] with a *pair-swap* sweep that exchanges two boundary
/// vertices between parts. Swaps preserve balance exactly, so they escape
/// the single-move local optima that the squared imbalance term creates
/// (a lone migration pays an `O(load)` imbalance penalty that usually
/// outweighs a 1–2 edge cut gain; an exchange pays none).
///
/// The pair-swap phase keeps a connectivity row for each of its `B`
/// boundary vertices and buckets them by part, so a counter-move gain is
/// `O(1)` (`O(P)` under Fitness 2). A tentative move scans the bucket of
/// its destination, `O(B / P)` vertices on a balanced partition, and
/// updates its neighbours' rows in `O(deg)`. A pass thus costs the
/// single moves' sweep over the marked vertices plus `O(B² / P)` for the
/// swaps — fine for polishing elites, too slow for every offspring.
pub fn swap_climb(
    evaluator: &FitnessEvaluator<'_>,
    genes: &mut Vec<u32>,
    max_passes: usize,
) -> ClimbStats {
    swap_climb_in(evaluator, genes, max_passes, &mut EvalScratch::default())
}

/// [`swap_climb`] in `scratch`'s buffers, which it leaves grown for the
/// next climb.
// gapart-lint: allow(panic-reach) -- crate-internal: the engine climbs only chromosomes of the graph's length with every label below num_parts, so every index is a node or a part
pub(crate) fn swap_climb_in(
    evaluator: &FitnessEvaluator<'_>,
    genes: &mut Vec<u32>,
    max_passes: usize,
    scratch: &mut EvalScratch,
) -> ClimbStats {
    let graph = evaluator.graph();
    let mut state = PartitionState::new_in(evaluator.clone(), std::mem::take(genes), scratch);
    let mut stats = ClimbStats::default();
    scratch.sums.reset(evaluator.num_parts());
    for _ in 0..max_passes {
        stats.passes += 1;

        // Phase 1: greedy single moves (cheap).
        let mut improved = single_move_sweep(&mut state, scratch, 1e-12, 0.0, &mut stats);

        // Phase 2: boundary pair swaps. For each boundary vertex v with a
        // neighbouring part q, tentatively move v → q, then look for the
        // best counter-move u → p among q's boundary vertices.
        let EvalScratch { marks, sums, .. } = &mut *scratch;
        let mut rows = SwapRows::new(graph, state.labels(), evaluator.num_parts(), marks);
        for i in 0..rows.vertices.len() {
            let v = rows.vertices[i];
            let p = state.labels()[v as usize];
            // v's neighbouring parts, in adjacency order.
            sums.scan(graph, state.labels(), v);
            for &q in sums.parts() {
                // v may have moved in an earlier successful swap; always
                // work relative to its current part.
                let cur = state.labels()[v as usize];
                if q == p || q == cur {
                    continue;
                }
                let g1 = state.gain_with(v, q, rows.counts(v, cur, q));
                rows.apply(&mut state, v, q);
                // Best counter-move from q back to cur, first maximum in
                // ascending id. v itself is excluded: its bucket is still
                // `cur` during the tentative move.
                let mut best: Option<(u32, f64)> = None;
                for &u in &rows.buckets[q as usize] {
                    let g2 = state.gain_with(u, cur, rows.counts(u, q, cur));
                    if best.is_none_or(|(_, bg)| g2 > bg) {
                        best = Some((u, g2));
                    }
                }
                match best {
                    Some((u, g2)) if g1 + g2 > 1e-12 => {
                        rows.apply(&mut state, u, cur);
                        rows.rebucket(v, cur, q);
                        rows.rebucket(u, q, cur);
                        mark_neighbours(marks, graph, v);
                        mark_neighbours(marks, graph, u);
                        stats.moves += 2;
                        stats.gain += g1 + g2;
                        improved = true;
                    }
                    _ => {
                        rows.apply(&mut state, v, cur); // revert the tentative move
                    }
                }
            }
        }

        if !improved {
            break;
        }
    }
    stats.fitness = state.fitness();
    *genes = state.into_labels_in(scratch);
    stats
}

/// The one single-move sweep: visits the marked vertices in ascending id
/// and moves each to its neighbouring part of largest gain `g`. A
/// candidate must beat the best so far by more than `slack`, and the best
/// starts at `floor`. `hill_climb` passes `(0, 1e-12)` and `swap_climb`'s
/// single moves `(1e-12, 0)`: the pair decides near-ties, so every label
/// depends on it. A scan that finds a vertex interior clears its mark, and
/// a move marks the mover's neighbours; those above the mover are visited
/// later in the same sweep. Returns whether any vertex moved.
fn single_move_sweep(
    state: &mut PartitionState<'_>,
    scratch: &mut EvalScratch,
    floor: f64,
    slack: f64,
    stats: &mut ClimbStats,
) -> bool {
    let graph = state.graph();
    let EvalScratch { marks, sums, .. } = scratch;
    let mut moved = false;
    let mut next = marks.next_from(0);
    while let Some(v) = next {
        let pv = state.labels()[v as usize];
        sums.scan(graph, state.labels(), v);
        let mut boundary = false;
        let mut best_gain = floor;
        let mut best_part = pv;
        for &q in sums.parts() {
            if q != pv {
                boundary = true;
                let g = state.gain_with(v, q, sums.counts(pv, q));
                if g > best_gain + slack {
                    best_gain = g;
                    best_part = q;
                }
            }
        }
        if !boundary {
            marks.remove(v);
        } else if best_part != pv {
            state.apply_with(v, best_part, sums.counts(pv, best_part));
            mark_neighbours(marks, graph, v);
            stats.moves += 1;
            stats.gain += best_gain;
            moved = true;
        }
        next = marks.next_from(v as usize + 1);
    }
    moved
}

/// Marks every neighbour of `v`, whose move may have put them on the
/// boundary.
fn mark_neighbours(marks: &mut Marks, graph: &CsrGraph, v: u32) {
    for &u in graph.neighbors(v) {
        marks.insert(u);
    }
}

/// One vertex's edge weight into each part, from one scan of its
/// adjacency.
#[derive(Debug, Default, Clone)]
pub(crate) struct PartSums {
    /// Edge weight into each part; zero outside the listed parts.
    weight: Vec<u64>,
    /// The parts of the vertex's neighbours, in order of first appearance
    /// in its adjacency list, are `list[..len]`. The scan writes every
    /// edge's part at `list[len]` and advances `len` only for a new one,
    /// so the list has one slot more than there are parts.
    list: Vec<u32>,
    len: usize,
    /// Weighted degree.
    deg_w: u64,
    /// Scans so far; `seen[q] == scans` marks `q` as listed, which is
    /// cheaper than searching the list for every edge.
    scans: u64,
    seen: Vec<u64>,
}

impl PartSums {
    /// Sizes the sums for `num_parts` parts, all zero.
    fn reset(&mut self, num_parts: u32) {
        let p = num_parts as usize;
        self.weight.clear();
        self.weight.resize(p, 0);
        self.list.clear();
        self.list.resize(p + 1, 0);
        self.len = 0;
        // Every entry stays at most `scans`, so no part reads as listed.
        self.seen.resize(p, 0);
    }

    /// Replaces the sums with `v`'s under `labels`. Branch-free per edge:
    /// which parts are new depends on the labels, so a branch on it would
    /// mispredict.
    fn scan(&mut self, graph: &CsrGraph, labels: &[u32], v: u32) {
        let PartSums {
            weight,
            list,
            len,
            deg_w,
            scans,
            seen,
        } = self;
        for &q in &list[..*len] {
            weight[q as usize] = 0;
        }
        *scans += 1;
        let mut listed = 0;
        let mut total = 0u64;
        for (&u, &w) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
            let q = labels[u as usize];
            let new = seen[q as usize] != *scans;
            seen[q as usize] = *scans;
            list[listed] = q;
            listed += usize::from(new);
            weight[q as usize] += w as u64;
            total += w as u64;
        }
        *len = listed;
        *deg_w = total;
    }

    /// The scanned vertex's neighbouring parts, in order of first
    /// appearance in its adjacency list.
    fn parts(&self) -> &[u32] {
        &self.list[..self.len]
    }

    /// The scanned vertex's counts for a move from `from` to `to`.
    fn counts(&self, from: u32, to: u32) -> MoveCounts {
        MoveCounts {
            in_from: self.weight[from as usize],
            in_to: self.weight[to as usize],
            deg_w: self.deg_w,
        }
    }
}

/// Marks a vertex without a connectivity row.
const NO_ROW: u32 = u32::MAX;

/// The pair-swap phase's cache over the vertices on the boundary when the
/// phase starts. Each has a connectivity row, its edge weight into every
/// part plus its weighted degree, kept current through every tentative
/// move, revert and accepted swap. The vertices are also bucketed by part.
struct SwapRows<'g> {
    graph: &'g CsrGraph,
    num_parts: usize,
    /// The phase's boundary vertices, ascending; vertex `vertices[r]` owns
    /// row `r`.
    vertices: Vec<u32>,
    /// Each vertex's row, or [`NO_ROW`].
    row_of: Vec<u32>,
    /// `num_parts` edge weights per row, row-major.
    conn: Vec<u64>,
    /// Weighted degree per row.
    deg_w: Vec<u64>,
    /// The boundary vertices in each part, in ascending id: the phase's
    /// scan order, which fixes its first-maximum tie-break. A vertex
    /// changes bucket only when a swap is accepted.
    buckets: Vec<Vec<u32>>,
}

impl<'g> SwapRows<'g> {
    /// Rows for the boundary vertices among `marks`, which hold a
    /// superset of the boundary.
    fn new(graph: &'g CsrGraph, labels: &[u32], num_parts: u32, marks: &Marks) -> Self {
        let p = num_parts as usize;
        let mut rows = SwapRows {
            graph,
            num_parts: p,
            vertices: Vec::new(),
            row_of: vec![NO_ROW; graph.num_nodes()],
            conn: Vec::new(),
            deg_w: Vec::new(),
            buckets: vec![Vec::new(); p],
        };
        let mut next = marks.next_from(0);
        while let Some(v) = next {
            next = marks.next_from(v as usize + 1);
            let pv = labels[v as usize];
            if graph.neighbors(v).iter().all(|&u| labels[u as usize] == pv) {
                continue; // interior vertex
            }
            rows.row_of[v as usize] = rows.vertices.len() as u32;
            rows.vertices.push(v);
            rows.buckets[pv as usize].push(v);
            let base = rows.conn.len();
            rows.conn.resize(base + p, 0);
            let mut deg_w = 0u64;
            for (&u, &w) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
                rows.conn[base + labels[u as usize] as usize] += w as u64;
                deg_w += w as u64;
            }
            rows.deg_w.push(deg_w);
        }
        rows
    }

    /// Row vertex `v`'s counts for a move from `from` to `to`.
    fn counts(&self, v: u32, from: u32, to: u32) -> MoveCounts {
        let r = self.row_of[v as usize] as usize;
        let row = &self.conn[r * self.num_parts..(r + 1) * self.num_parts];
        MoveCounts {
            in_from: row[from as usize],
            in_to: row[to as usize],
            deg_w: self.deg_w[r],
        }
    }

    /// Moves row vertex `x` to part `to` in `state` and carries the move
    /// into the rows of its neighbours on the boundary, in `O(deg(x))`.
    fn apply(&mut self, state: &mut PartitionState<'_>, x: u32, to: u32) {
        let from = state.labels()[x as usize];
        state.apply_with(x, to, self.counts(x, from, to));
        let graph = self.graph;
        for (&y, &w) in graph.neighbors(x).iter().zip(graph.edge_weights(x)) {
            let r = self.row_of[y as usize];
            if r != NO_ROW {
                let base = r as usize * self.num_parts;
                self.conn[base + from as usize] -= w as u64;
                self.conn[base + to as usize] += w as u64;
            }
        }
    }

    /// Moves row vertex `x` from bucket `from` to bucket `to`, keeping
    /// both in ascending id.
    fn rebucket(&mut self, x: u32, from: u32, to: u32) {
        let old = &mut self.buckets[from as usize];
        if let Ok(i) = old.binary_search(&x) {
            old.remove(i);
        }
        let new = &mut self.buckets[to as usize];
        if let Err(i) = new.binary_search(&x) {
            new.insert(i, x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::FitnessKind;
    use gapart_graph::builder::from_edges;
    use gapart_graph::generators::paper_graph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn repairs_a_single_misplaced_vertex() {
        // Path 0-1-2-3-4-5 with node 1 on the wrong side.
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let e = FitnessEvaluator::new(&g, 2, FitnessKind::TotalCut);
        let mut genes = vec![0u32, 1, 0, 1, 1, 1];
        let before = e.evaluate(&genes);
        let stats = hill_climb(&e, &mut genes, 10);
        let after = e.evaluate(&genes);
        assert!(after > before);
        assert!((after - before - stats.gain).abs() < 1e-9);
        assert_eq!(genes, vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn never_decreases_fitness() {
        let g = paper_graph(144);
        let mut rng = StdRng::seed_from_u64(5);
        for kind in [FitnessKind::TotalCut, FitnessKind::WorstCut] {
            let e = FitnessEvaluator::new(&g, 4, kind);
            for _ in 0..5 {
                let mut genes: Vec<u32> = (0..144).map(|_| rng.gen_range(0..4)).collect();
                let before = e.evaluate(&genes);
                hill_climb(&e, &mut genes, 8);
                assert!(e.evaluate(&genes) >= before, "{kind}");
            }
        }
    }

    #[test]
    fn reaches_local_optimum() {
        // After convergence, no single boundary move may improve fitness.
        let g = paper_graph(98);
        let e = FitnessEvaluator::new(&g, 4, FitnessKind::TotalCut);
        let mut rng = StdRng::seed_from_u64(9);
        let mut genes: Vec<u32> = (0..98).map(|_| rng.gen_range(0..4)).collect();
        hill_climb(&e, &mut genes, 100);
        let state = crate::fitness::PartitionState::new(e.clone(), genes.clone());
        for v in 0..98u32 {
            for q in 0..4u32 {
                assert!(
                    state.gain(v, q) <= 1e-9,
                    "improving move remained: {v} -> {q}"
                );
            }
        }
    }

    #[test]
    fn improves_random_partitions_substantially() {
        let g = paper_graph(167);
        let e = FitnessEvaluator::new(&g, 4, FitnessKind::TotalCut);
        let mut rng = StdRng::seed_from_u64(3);
        let mut genes: Vec<u32> = (0..167).map(|_| rng.gen_range(0..4)).collect();
        let before = e.reported_cut(&genes);
        hill_climb(&e, &mut genes, 30);
        let after = e.reported_cut(&genes);
        assert!(
            after < before / 2,
            "hill climbing should at least halve a random cut: {before} -> {after}"
        );
    }

    #[test]
    fn stats_report_passes() {
        let g = paper_graph(78);
        let e = FitnessEvaluator::new(&g, 2, FitnessKind::TotalCut);
        // Already-optimal-ish input: single pass, no moves.
        let mut genes: Vec<u32> = vec![0; 78];
        let stats = hill_climb(&e, &mut genes, 5);
        assert_eq!(stats.moves, 0);
        assert_eq!(stats.passes, 1);
    }

    #[test]
    fn zero_passes_is_identity() {
        let g = paper_graph(78);
        let e = FitnessEvaluator::new(&g, 4, FitnessKind::TotalCut);
        let mut genes: Vec<u32> = (0..78).map(|v| v % 4).collect();
        let before = genes.clone();
        let stats = hill_climb(&e, &mut genes, 0);
        assert_eq!(genes, before);
        assert_eq!(stats.moves, 0);
    }
}
