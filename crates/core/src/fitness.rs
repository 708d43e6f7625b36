//! The paper's fitness functions (§2) and an incremental-move evaluator.
//!
//! With unit λ the paper maximizes
//!
//! * Fitness 1: `−( Σ_q (|B(q)| − |V|/n)² + Σ_q C(q) )`
//! * Fitness 2: `−( Σ_q (|B(q)| − |V|/n)² + max_q C(q) )`
//!
//! where `C(q)` is the weight of edges leaving part `q` (so each cut edge
//! contributes to two parts in the Fitness-1 sum). Node/edge weights
//! generalize `|B(q)|` to weighted loads exactly as §2 defines. λ is fixed
//! at 1, so the communication term is added unscaled.

use crate::hillclimb::PartSums;
use gapart_graph::CsrGraph;

/// Which of the paper's two objectives to optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitnessKind {
    /// Fitness 1: imbalance + total communication cost `Σ_q C(q)`.
    TotalCut,
    /// Fitness 2: imbalance + worst-part cost `max_q C(q)` — the
    /// non-differentiable objective gradient methods cannot handle (§4.3).
    WorstCut,
}

impl std::fmt::Display for FitnessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitnessKind::TotalCut => write!(f, "fitness1(total-cut)"),
            FitnessKind::WorstCut => write!(f, "fitness2(worst-cut)"),
        }
    }
}

/// Reusable buffers for [`FitnessEvaluator::evaluate_with`] and the hill
/// climbs: per-part loads and cuts, the boundary marks and one vertex's
/// per-part edge sums. The GA engine keeps one per worker, so once the
/// buffers have grown neither an evaluation nor a climb allocates.
#[derive(Debug, Default, Clone)]
pub struct EvalScratch {
    loads: Vec<u64>,
    cuts: Vec<u64>,
    /// The vertices the last tally found with a neighbour in another part.
    /// The climbs keep this a superset of the boundary as they move
    /// vertices.
    pub(crate) marks: Marks,
    /// The hill climbs' per-part edge sums.
    pub(crate) sums: PartSums,
}

/// A set of vertices, one bit each: the hill climbs' boundary marks.
#[derive(Debug, Default, Clone)]
pub(crate) struct Marks {
    words: Vec<u64>,
}

impl Marks {
    /// Adds `v`; a vertex beyond the sized range is ignored.
    #[inline]
    pub(crate) fn insert(&mut self, v: u32) {
        if let Some(word) = self.words.get_mut(v as usize / 64) {
            *word |= 1 << (v % 64);
        }
    }

    /// Removes `v`.
    #[inline]
    pub(crate) fn remove(&mut self, v: u32) {
        if let Some(word) = self.words.get_mut(v as usize / 64) {
            *word &= !(1 << (v % 64));
        }
    }

    /// The smallest member that is at least `from`. A sweep that calls
    /// this after each vertex sees members added above its position.
    #[inline]
    pub(crate) fn next_from(&self, from: usize) -> Option<u32> {
        let mut i = from / 64;
        let mut word = self.words.get(i)? & (!0u64 << (from % 64));
        while word == 0 {
            i += 1;
            word = *self.words.get(i)?;
        }
        Some((i * 64) as u32 + word.trailing_zeros())
    }
}

/// Evaluates chromosomes against a graph. Borrowing the graph keeps
/// evaluation allocation-free on the hot path (via [`EvalScratch`]).
#[derive(Debug, Clone)]
pub struct FitnessEvaluator<'g> {
    graph: &'g CsrGraph,
    num_parts: u32,
    kind: FitnessKind,
    avg_load: f64,
}

impl<'g> FitnessEvaluator<'g> {
    /// Creates an evaluator of `kind` for `num_parts` parts.
    pub fn new(graph: &'g CsrGraph, num_parts: u32, kind: FitnessKind) -> Self {
        assert!(num_parts > 0, "num_parts must be positive");
        let avg_load = graph.total_node_weight() as f64 / num_parts as f64;
        FitnessEvaluator {
            graph,
            num_parts,
            kind,
            avg_load,
        }
    }

    /// The graph under evaluation.
    #[inline]
    pub fn graph(&self) -> &'g CsrGraph {
        self.graph
    }

    /// Number of parts.
    #[inline]
    pub fn num_parts(&self) -> u32 {
        self.num_parts
    }

    /// The objective being optimized.
    #[inline]
    pub fn kind(&self) -> FitnessKind {
        self.kind
    }

    /// Ideal per-part load.
    #[inline]
    pub fn avg_load(&self) -> f64 {
        self.avg_load
    }

    /// Fitness of `genes` (higher is better; always ≤ 0).
    pub fn evaluate(&self, genes: &[u32]) -> f64 {
        let mut scratch = EvalScratch::default();
        self.evaluate_with(genes, &mut scratch)
    }

    /// Allocation-free fitness evaluation using caller-provided scratch.
    pub fn evaluate_with(&self, genes: &[u32], scratch: &mut EvalScratch) -> f64 {
        let (loads, cuts) = self.tally(genes, scratch);
        self.fitness_of(loads, cuts)
    }

    /// The objective for per-part `loads` and cuts `C(q)`: the one formula
    /// behind both [`FitnessEvaluator::evaluate_with`] and
    /// [`PartitionState::fitness`], so the two agree bit for bit.
    fn fitness_of(&self, loads: &[u64], cuts: &[u64]) -> f64 {
        let imbalance: f64 = loads
            .iter()
            .map(|&l| {
                let d = l as f64 - self.avg_load;
                d * d
            })
            .sum();
        let comm = match self.kind {
            FitnessKind::TotalCut => cuts.iter().sum::<u64>() as f64,
            FitnessKind::WorstCut => cuts.iter().copied().max().unwrap_or(0) as f64,
        };
        -(imbalance + comm)
    }

    /// The cut number the paper's tables report for this objective:
    /// `Σ_q C(q) / 2` for Fitness 1 (Tables 1–3), `max_q C(q)` for
    /// Fitness 2 (Tables 4–6).
    pub fn reported_cut(&self, genes: &[u32]) -> u64 {
        let mut scratch = EvalScratch::default();
        let (_, cuts) = self.tally(genes, &mut scratch);
        match self.kind {
            FitnessKind::TotalCut => cuts.iter().sum::<u64>() / 2,
            FitnessKind::WorstCut => cuts.iter().copied().max().unwrap_or(0),
        }
    }

    /// The one `O(V + E)` tally: per-part loads and cuts into `scratch`,
    /// and into `scratch.marks` every vertex with a neighbour in another
    /// part.
    fn tally<'s>(&self, genes: &[u32], scratch: &'s mut EvalScratch) -> (&'s [u64], &'s [u64]) {
        let g = self.graph;
        assert_eq!(
            genes.len(),
            g.num_nodes(),
            "chromosome length != node count"
        );
        let p = self.num_parts as usize;
        let EvalScratch {
            loads, cuts, marks, ..
        } = scratch;
        loads.clear();
        loads.resize(p, 0);
        cuts.clear();
        cuts.resize(p, 0);
        // The marks are built a word at a time.
        marks.words.clear();
        let mut word = 0u64;
        let (adjncy, eweights) = (g.adjncy(), g.eweights());
        let rows = g.xadj().windows(2);
        for (v, ((&pv, &wv), row)) in genes.iter().zip(g.node_weights()).zip(rows).enumerate() {
            debug_assert!(pv < self.num_parts, "gene out of range");
            let (lo, hi) = (row[0] as usize, row[1] as usize);
            loads[pv as usize] += wv as u64;
            let mut out = 0u64;
            let mut boundary = false;
            for (&u, &w) in adjncy[lo..hi].iter().zip(&eweights[lo..hi]) {
                let cut = genes[u as usize] != pv;
                out += if cut { w as u64 } else { 0 };
                boundary |= cut;
            }
            cuts[pv as usize] += out;
            word |= u64::from(boundary) << (v % 64);
            if v % 64 == 63 {
                marks.words.push(word);
                word = 0;
            }
        }
        if !genes.len().is_multiple_of(64) {
            marks.words.push(word);
        }
        (loads, cuts)
    }
}

/// The edge weights of one node that decide the effect of moving it from
/// its part `from` to part `to`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MoveCounts {
    /// Weight of the node's edges into `from`.
    pub(crate) in_from: u64,
    /// Weight of its edges into `to`.
    pub(crate) in_to: u64,
    /// Its weighted degree.
    pub(crate) deg_w: u64,
}

/// Incremental-move evaluator: maintains per-part loads and cuts so that
/// the fitness effect of moving one node can be computed in `O(deg(v) +
/// P)` and applied in the same bound. This is what makes the paper's
/// boundary hill climbing (§3.6) affordable inside the GA loop. The scan
/// of `deg(v)` only gathers the node's edge weights into its part and the
/// destination; callers that cache those weights (the hill climbs) pay
/// `O(1)`, or `O(P)` under Fitness 2.
#[derive(Debug, Clone)]
pub struct PartitionState<'g> {
    evaluator: FitnessEvaluator<'g>,
    labels: Vec<u32>,
    loads: Vec<u64>,
    cuts: Vec<u64>,
}

impl<'g> PartitionState<'g> {
    /// Builds the state for `genes` (one full `O(V + E)` tally).
    pub fn new(evaluator: FitnessEvaluator<'g>, genes: Vec<u32>) -> Self {
        Self::new_in(evaluator, genes, &mut EvalScratch::default())
    }

    /// [`PartitionState::new`] in `scratch`'s buffers: the state takes the
    /// loads and cuts, and the tally leaves the boundary marks in
    /// `scratch.marks`. [`PartitionState::into_labels_in`] hands the
    /// buffers back.
    // gapart-lint: allow(panic-reach) -- crate-internal: the climbs pass only chromosomes of the graph's length with every label below num_parts, so every index is a node or a part
    pub(crate) fn new_in(
        evaluator: FitnessEvaluator<'g>,
        genes: Vec<u32>,
        scratch: &mut EvalScratch,
    ) -> Self {
        evaluator.tally(&genes, scratch);
        PartitionState {
            evaluator,
            labels: genes,
            loads: std::mem::take(&mut scratch.loads),
            cuts: std::mem::take(&mut scratch.cuts),
        }
    }

    /// The graph being partitioned.
    #[inline]
    pub(crate) fn graph(&self) -> &'g CsrGraph {
        self.evaluator.graph
    }

    /// Current labels.
    #[inline]
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Consumes the state, returning the label vector.
    pub fn into_labels(self) -> Vec<u32> {
        self.labels
    }

    /// Consumes the state, returning the label vector and handing its
    /// loads and cuts back to `scratch` for the next state.
    pub(crate) fn into_labels_in(self, scratch: &mut EvalScratch) -> Vec<u32> {
        scratch.loads = self.loads;
        scratch.cuts = self.cuts;
        self.labels
    }

    /// Current fitness: bit for bit the value [`FitnessEvaluator::evaluate`]
    /// returns for the current labels, since both apply one formula to the
    /// same integer loads and cuts.
    pub fn fitness(&self) -> f64 {
        self.evaluator.fitness_of(&self.loads, &self.cuts)
    }

    /// Fitness change if node `v` moved to part `to` (0 if `to` is its
    /// current part). Does not mutate.
    pub fn gain(&self, v: u32, to: u32) -> f64 {
        let from = self.labels[v as usize];
        if from == to {
            return 0.0;
        }
        self.gain_with(v, to, self.move_counts(v, from, to))
    }

    /// [`PartitionState::gain`] from `v`'s edge-weight counts for the move
    /// to `to`, with no adjacency scan: `O(1)` under Fitness 1 and `O(P)`
    /// under Fitness 2. `to` must differ from `v`'s part. The hill climbs
    /// cache the counts, so every gain they compute is this arithmetic.
    // gapart-lint: allow(panic-reach) -- v is a node of this graph and to a part below num_parts: the climbs pass only nodes and the labels of their neighbours
    pub(crate) fn gain_with(&self, v: u32, to: u32, counts: MoveCounts) -> f64 {
        let from = self.labels[v as usize];
        debug_assert_ne!(from, to, "a move must change the part");
        let MoveCounts {
            in_from,
            in_to,
            deg_w,
        } = counts;
        let wv = self.evaluator.graph.node_weight(v) as u64;
        // C(from) loses v's outgoing contribution (deg_w − in_from) but
        // gains the now-cut edges to v from its old part (in_from).
        // C(to) gains v's new outgoing contribution (deg_w − in_to) and
        // loses the previously-cut edges from `to` into v (in_to).
        let new_cut_from = self.cuts[from as usize] + 2 * in_from - deg_w;
        let new_cut_to = self.cuts[to as usize] + deg_w - 2 * in_to;

        let imb_delta = {
            let a = self.evaluator.avg_load;
            let lf = self.loads[from as usize] as f64;
            let lt = self.loads[to as usize] as f64;
            let w = wv as f64;
            ((lf - w - a).powi(2) - (lf - a).powi(2)) + ((lt + w - a).powi(2) - (lt - a).powi(2))
        };
        let comm_delta = match self.evaluator.kind {
            FitnessKind::TotalCut => {
                (new_cut_from + new_cut_to) as f64
                    - (self.cuts[from as usize] + self.cuts[to as usize]) as f64
            }
            FitnessKind::WorstCut => {
                let old_max = self.cuts.iter().copied().max().unwrap_or(0);
                let mut new_max = new_cut_from.max(new_cut_to);
                for (r, &c) in self.cuts.iter().enumerate() {
                    if r as u32 != from && r as u32 != to {
                        new_max = new_max.max(c);
                    }
                }
                new_max as f64 - old_max as f64
            }
        };
        -(imb_delta + comm_delta)
    }

    /// Moves node `v` to part `to`, updating loads and cuts incrementally.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range.
    pub fn apply(&mut self, v: u32, to: u32) {
        assert!(to < self.evaluator.num_parts, "part out of range");
        let from = self.labels[v as usize];
        if from == to {
            return;
        }
        self.apply_with(v, to, self.move_counts(v, from, to));
    }

    /// [`PartitionState::apply`] from `v`'s edge-weight counts for the move
    /// to `to`, in `O(1)`. `to` must differ from `v`'s part.
    // gapart-lint: allow(panic-reach) -- v is a node of this graph and to a part below num_parts: the climbs pass only nodes and the labels of their neighbours
    pub(crate) fn apply_with(&mut self, v: u32, to: u32, counts: MoveCounts) {
        let from = self.labels[v as usize];
        debug_assert_ne!(from, to, "a move must change the part");
        let MoveCounts {
            in_from,
            in_to,
            deg_w,
        } = counts;
        let wv = self.evaluator.graph.node_weight(v) as u64;
        self.cuts[from as usize] = self.cuts[from as usize] + 2 * in_from - deg_w;
        self.cuts[to as usize] = self.cuts[to as usize] + deg_w - 2 * in_to;
        self.loads[from as usize] -= wv;
        self.loads[to as usize] += wv;
        self.labels[v as usize] = to;
    }

    /// `v`'s edge weight into `from` and into `to`, and its weighted
    /// degree, from one scan of its adjacency.
    fn move_counts(&self, v: u32, from: u32, to: u32) -> MoveCounts {
        let g = self.evaluator.graph;
        let mut counts = MoveCounts::default();
        for (&u, &w) in g.neighbors(v).iter().zip(g.edge_weights(v)) {
            let r = self.labels[u as usize];
            counts.deg_w += w as u64;
            if r == from {
                counts.in_from += w as u64;
            } else if r == to {
                counts.in_to += w as u64;
            }
        }
        counts
    }

    /// Per-part cut values `C(q)` (directed: each cut edge counted in two
    /// parts).
    #[inline]
    pub fn cuts(&self) -> &[u64] {
        &self.cuts
    }

    /// Per-part weighted loads.
    #[inline]
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapart_graph::builder::from_edges;
    use gapart_graph::generators::paper_graph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn square() -> CsrGraph {
        from_edges(4, &[(0, 1), (2, 3), (0, 2), (1, 3)]).unwrap()
    }

    #[test]
    fn fitness1_matches_hand_computation() {
        let g = square();
        let e = FitnessEvaluator::new(&g, 2, FitnessKind::TotalCut);
        // {0,1} vs {2,3}: balanced, 2 cut edges → Σ C(q) = 4.
        assert_eq!(e.evaluate(&[0, 0, 1, 1]), -4.0);
        // {0} vs {1,2,3}: imbalance (1-2)² + (3-2)² = 2, cuts 0-1 and 0-2
        // → Σ C(q) = 4 → fitness −6.
        assert_eq!(e.evaluate(&[0, 1, 1, 1]), -6.0);
    }

    #[test]
    fn fitness2_uses_max_part_cut() {
        let g = from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let e = FitnessEvaluator::new(&g, 3, FitnessKind::WorstCut);
        // {0},{1,2},{3,4}: C = [4, 2, 2]; max 4. Loads [1,2,2], avg 5/3;
        // imbalance = (1-5/3)² + 2(2-5/3)² = 4/9 + 2/9 = 6/9.
        let f = e.evaluate(&[0, 1, 1, 2, 2]);
        assert!((f - -(6.0 / 9.0 + 4.0)).abs() < 1e-12, "{f}");
    }

    #[test]
    fn paper_ordering_example() {
        // §3.1: on a path of 8 nodes, 11100011 < 11100001 (less balanced)
        // and 11100011 > 10101011 (6 inter-part edges).
        let edges: Vec<(u32, u32)> = (0..7).map(|i| (i, i + 1)).collect();
        let g = from_edges(8, &edges).unwrap();
        let e = FitnessEvaluator::new(&g, 2, FitnessKind::TotalCut);
        let f_11100011 = e.evaluate(&[1, 1, 1, 0, 0, 0, 1, 1]);
        let f_11100001 = e.evaluate(&[1, 1, 1, 0, 0, 0, 0, 1]);
        let f_10101011 = e.evaluate(&[1, 0, 1, 0, 1, 0, 1, 1]);
        assert!(f_11100001 > f_11100011, "more balanced string should win");
        assert!(f_11100011 > f_10101011, "fewer cut edges should win");
    }

    #[test]
    fn reported_cut_total_vs_worst() {
        let g = square();
        let genes = [0u32, 0, 1, 1];
        let e1 = FitnessEvaluator::new(&g, 2, FitnessKind::TotalCut);
        let e2 = FitnessEvaluator::new(&g, 2, FitnessKind::WorstCut);
        assert_eq!(e1.reported_cut(&genes), 2); // Σ C / 2
        assert_eq!(e2.reported_cut(&genes), 2); // max C
    }

    #[test]
    fn scratch_reuse_matches_fresh_eval() {
        let g = paper_graph(78);
        let e = FitnessEvaluator::new(&g, 4, FitnessKind::TotalCut);
        let mut scratch = EvalScratch::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let genes: Vec<u32> = (0..78).map(|_| rng.gen_range(0..4)).collect();
            assert_eq!(e.evaluate(&genes), e.evaluate_with(&genes, &mut scratch));
        }
    }

    #[test]
    fn state_fitness_matches_evaluator() {
        let g = paper_graph(98);
        for kind in [FitnessKind::TotalCut, FitnessKind::WorstCut] {
            let e = FitnessEvaluator::new(&g, 4, kind);
            let mut rng = StdRng::seed_from_u64(7);
            let genes: Vec<u32> = (0..98).map(|_| rng.gen_range(0..4)).collect();
            let state = PartitionState::new(e.clone(), genes.clone());
            assert!(
                (state.fitness() - e.evaluate(&genes)).abs() < 1e-9,
                "{kind}"
            );
        }
    }

    #[test]
    fn gain_predicts_apply_exactly() {
        let g = paper_graph(88);
        for kind in [FitnessKind::TotalCut, FitnessKind::WorstCut] {
            let e = FitnessEvaluator::new(&g, 8, kind);
            let mut rng = StdRng::seed_from_u64(11);
            let genes: Vec<u32> = (0..88).map(|_| rng.gen_range(0..8)).collect();
            let mut state = PartitionState::new(e.clone(), genes);
            for _ in 0..200 {
                let v = rng.gen_range(0..88u32);
                let to = rng.gen_range(0..8u32);
                let before = state.fitness();
                let predicted = state.gain(v, to);
                state.apply(v, to);
                let after = state.fitness();
                assert!(
                    (after - before - predicted).abs() < 1e-6,
                    "{kind}: predicted {predicted}, actual {}",
                    after - before
                );
                // Cross-check against a full evaluation.
                assert!((after - e.evaluate(state.labels())).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn weighted_graph_state_consistency() {
        use gapart_graph::GraphBuilder;
        let g = GraphBuilder::with_nodes(5)
            .weighted_edge(0, 1, 3)
            .weighted_edge(1, 2, 2)
            .weighted_edge(2, 3, 5)
            .weighted_edge(3, 4, 1)
            .weighted_edge(4, 0, 4)
            .node_weights(vec![2, 1, 3, 1, 2])
            .build()
            .unwrap();
        let e = FitnessEvaluator::new(&g, 2, FitnessKind::WorstCut);
        let mut state = PartitionState::new(e.clone(), vec![0, 0, 1, 1, 0]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let v = rng.gen_range(0..5u32);
            let to = rng.gen_range(0..2u32);
            let predicted = state.gain(v, to);
            let before = state.fitness();
            state.apply(v, to);
            assert!((state.fitness() - before - predicted).abs() < 1e-9);
            assert!((state.fitness() - e.evaluate(state.labels())).abs() < 1e-9);
        }
    }

    #[test]
    fn gain_to_same_part_is_zero() {
        let g = square();
        let e = FitnessEvaluator::new(&g, 2, FitnessKind::TotalCut);
        let state = PartitionState::new(e, vec![0, 0, 1, 1]);
        assert_eq!(state.gain(0, 0), 0.0);
    }

    use gapart_graph::CsrGraph;
}
