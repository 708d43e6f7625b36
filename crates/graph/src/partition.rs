//! Partitions and the cost metrics of the paper (§2).
//!
//! For a partition into `n` parts the paper defines, per part `q`:
//!
//! * load imbalance `I(q) = (Σ_{v ∈ B(q)} w_v − Σ_v w_v / n)²`
//! * communication cost `C(q) = Σ_{u ∈ B(q), v ∉ B(q)} w_e(u, v)`
//!
//! and optimizes either `Σ_q I(q) + λ Σ_q C(q)` (total-cost form; note each
//! cut edge contributes to the `C` of *both* its parts, so the tables report
//! `Σ_q C(q) / 2`) or `Σ_q I(q) + λ max_q C(q)` (worst-part form), at λ = 1
//! in its experiments. [`PartitionMetrics`] reports the terms; the
//! objective itself is `gapart_core::FitnessEvaluator`'s.

use crate::csr::CsrGraph;
use crate::error::GraphError;

/// An assignment of every node to one of `num_parts` parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    labels: Vec<u32>,
    num_parts: u32,
}

impl Partition {
    /// Creates a partition from explicit labels.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::PartOutOfRange`] if any label is `≥ num_parts`.
    pub fn new(labels: Vec<u32>, num_parts: u32) -> Result<Self, GraphError> {
        assert!(num_parts > 0, "num_parts must be positive");
        if let Some(&bad) = labels.iter().find(|&&p| p >= num_parts) {
            return Err(GraphError::PartOutOfRange {
                part: bad,
                num_parts,
            });
        }
        Ok(Partition { labels, num_parts })
    }

    /// All nodes in part 0 — the trivial single-part partition when
    /// `num_parts == 1`, otherwise a maximally unbalanced starting point.
    pub fn all_zero(num_nodes: usize, num_parts: u32) -> Self {
        assert!(num_parts > 0, "num_parts must be positive");
        Partition {
            labels: vec![0; num_nodes],
            num_parts,
        }
    }

    /// Round-robin assignment `v ↦ v mod num_parts`; perfectly balanced for
    /// unit weights but ignores locality. Useful as a test fixture and as a
    /// worst-case communication baseline.
    pub fn round_robin(num_nodes: usize, num_parts: u32) -> Self {
        assert!(num_parts > 0, "num_parts must be positive");
        Partition {
            labels: (0..num_nodes).map(|v| v as u32 % num_parts).collect(),
            num_parts,
        }
    }

    /// Contiguous block assignment: the first `⌈N/n⌉` nodes to part 0, etc.
    pub fn blocks(num_nodes: usize, num_parts: u32) -> Self {
        assert!(num_parts > 0, "num_parts must be positive");
        let chunk = num_nodes.div_ceil(num_parts as usize).max(1);
        Partition {
            labels: (0..num_nodes).map(|v| (v / chunk) as u32).collect(),
            num_parts,
        }
    }

    /// The part of node `v`.
    #[inline]
    pub fn part(&self, v: u32) -> u32 {
        self.labels[v as usize]
    }

    /// Moves node `v` to `part`.
    ///
    /// # Panics
    ///
    /// Panics if `part >= num_parts()`.
    #[inline]
    pub fn set(&mut self, v: u32, part: u32) {
        assert!(part < self.num_parts, "part label out of range");
        self.labels[v as usize] = part;
    }

    /// Number of parts.
    #[inline]
    pub fn num_parts(&self) -> u32 {
        self.num_parts
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// The raw label vector, indexed by node id.
    #[inline]
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Consumes the partition, returning the label vector.
    pub fn into_labels(self) -> Vec<u32> {
        self.labels
    }

    /// Node count of each part (unweighted `|B(q)|`).
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_parts as usize];
        for &p in &self.labels {
            sizes[p as usize] += 1;
        }
        sizes
    }
}

/// All cost metrics of a `(graph, partition)` pair, computed in one pass
/// over the CSR arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionMetrics {
    /// Weighted load `Σ_{v ∈ B(q)} w_v` of each part.
    pub part_loads: Vec<u64>,
    /// Communication cost `C(q)` of each part: total weight of edges with
    /// exactly one endpoint in `q` (each cut edge appears in two entries).
    pub part_cuts: Vec<u64>,
    /// Total cut `Σ_q C(q) / 2` — each cut edge counted once, as reported
    /// in the paper's Tables 1–3.
    pub total_cut: u64,
    /// Worst-part cut `max_q C(q)`, as reported in Tables 4–6.
    pub max_cut: u64,
    /// Total load imbalance `Σ_q I(q)` with `I(q) = (load(q) − avg)²`.
    pub imbalance: f64,
    /// Average (ideal) part load `Σ_v w_v / n`.
    pub avg_load: f64,
}

impl PartitionMetrics {
    /// Computes every metric for `partition` on `graph`.
    ///
    /// # Panics
    ///
    /// Panics if the partition covers a different number of nodes than the
    /// graph has.
    pub fn compute(graph: &CsrGraph, partition: &Partition) -> Self {
        assert_eq!(
            graph.num_nodes(),
            partition.num_nodes(),
            "partition/graph size mismatch"
        );
        let n_parts = partition.num_parts() as usize;
        let mut part_loads = vec![0u64; n_parts];
        let mut part_cuts = vec![0u64; n_parts];
        let labels = partition.labels();
        for v in 0..graph.num_nodes() as u32 {
            let pv = labels[v as usize];
            part_loads[pv as usize] += graph.node_weight(v) as u64;
            let nbrs = graph.neighbors(v);
            let ws = graph.edge_weights(v);
            let mut out = 0u64;
            for (&u, &w) in nbrs.iter().zip(ws) {
                if labels[u as usize] != pv {
                    out += w as u64;
                }
            }
            part_cuts[pv as usize] += out;
        }
        let directed_total: u64 = part_cuts.iter().sum();
        let total_cut = directed_total / 2;
        let max_cut = part_cuts.iter().copied().max().unwrap_or(0);
        let avg_load = graph.total_node_weight() as f64 / n_parts as f64;
        let imbalance = part_loads
            .iter()
            .map(|&l| {
                let d = l as f64 - avg_load;
                d * d
            })
            .sum();
        PartitionMetrics {
            part_loads,
            part_cuts,
            total_cut,
            max_cut,
            imbalance,
            avg_load,
        }
    }
}

/// Total cut `Σ C(q)/2` only — cheaper than full metrics when only the cut
/// matters (e.g. inside tight test loops).
pub fn cut_size(graph: &CsrGraph, partition: &Partition) -> u64 {
    assert_eq!(graph.num_nodes(), partition.num_nodes());
    let labels = partition.labels();
    let mut cut = 0u64;
    for (u, v, w) in graph.edges() {
        if labels[u as usize] != labels[v as usize] {
            cut += w as u64;
        }
    }
    cut
}

/// FNV-1a hash of a label vector, as 16 hex digits — the workspace's
/// determinism witness. The bench trajectory schema, the CLI `stream`
/// report, and the `serve` daemon's `query` reply all emit this hash, so
/// any two runs (live, tape replay, different thread counts) can be
/// compared for bit-identity by comparing one short string.
pub fn hash_labels(labels: &[u32]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &l in labels {
        for b in l.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

/// Nodes with at least one neighbour in a different part — the "boundary
/// points" that the paper's hill-climbing step examines (§3.6).
pub fn boundary_nodes(graph: &CsrGraph, partition: &Partition) -> Vec<u32> {
    assert_eq!(graph.num_nodes(), partition.num_nodes());
    let labels = partition.labels();
    (0..graph.num_nodes() as u32)
        .filter(|&v| {
            let pv = labels[v as usize];
            graph.neighbors(v).iter().any(|&u| labels[u as usize] != pv)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    /// 2x2 grid: 0-1 / 2-3 with vertical edges 0-2, 1-3.
    fn square() -> CsrGraph {
        from_edges(4, &[(0, 1), (2, 3), (0, 2), (1, 3)]).unwrap()
    }

    #[test]
    fn validated_construction() {
        assert!(Partition::new(vec![0, 1, 0], 2).is_ok());
        assert!(Partition::new(vec![0, 2], 2).is_err());
    }

    #[test]
    fn fixtures_have_expected_shapes() {
        let rr = Partition::round_robin(5, 2);
        assert_eq!(rr.labels(), &[0, 1, 0, 1, 0]);
        let blocks = Partition::blocks(5, 2);
        assert_eq!(blocks.labels(), &[0, 0, 0, 1, 1]);
        let zero = Partition::all_zero(3, 4);
        assert_eq!(zero.part_sizes(), vec![3, 0, 0, 0]);
    }

    #[test]
    fn metrics_on_balanced_square() {
        let g = square();
        // Split horizontally: {0,1} vs {2,3}; cut edges 0-2 and 1-3.
        let p = Partition::new(vec![0, 0, 1, 1], 2).unwrap();
        let m = PartitionMetrics::compute(&g, &p);
        assert_eq!(m.part_loads, vec![2, 2]);
        assert_eq!(m.part_cuts, vec![2, 2]);
        assert_eq!(m.total_cut, 2);
        assert_eq!(m.max_cut, 2);
        assert_eq!(m.imbalance, 0.0);
    }

    #[test]
    fn metrics_on_unbalanced_partition() {
        let g = square();
        // {0} vs {1,2,3}: cut edges 0-1, 0-2.
        let p = Partition::new(vec![0, 1, 1, 1], 2).unwrap();
        let m = PartitionMetrics::compute(&g, &p);
        assert_eq!(m.total_cut, 2);
        assert_eq!(m.part_cuts, vec![2, 2]);
        // avg load 2; (1-2)^2 + (3-2)^2 = 2
        assert_eq!(m.imbalance, 2.0);
    }

    #[test]
    fn max_cut_differs_from_total_cut() {
        // Star: center 0 with leaves 1..=4; parts {0},{1,2},{3,4}.
        let g = from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        let p = Partition::new(vec![0, 1, 1, 2, 2], 3).unwrap();
        let m = PartitionMetrics::compute(&g, &p);
        assert_eq!(m.total_cut, 4);
        assert_eq!(m.part_cuts, vec![4, 2, 2]);
        assert_eq!(m.max_cut, 4);
    }

    #[test]
    fn weighted_edges_contribute_their_weight() {
        let g = crate::GraphBuilder::with_nodes(2)
            .weighted_edge(0, 1, 5)
            .build()
            .unwrap();
        let p = Partition::round_robin(2, 2);
        let m = PartitionMetrics::compute(&g, &p);
        assert_eq!(m.total_cut, 5);
        assert_eq!(cut_size(&g, &p), 5);
    }

    #[test]
    fn weighted_nodes_drive_imbalance() {
        let g = crate::GraphBuilder::with_nodes(2)
            .edge(0, 1)
            .node_weights(vec![3, 1])
            .build()
            .unwrap();
        let p = Partition::round_robin(2, 2);
        let m = PartitionMetrics::compute(&g, &p);
        assert_eq!(m.part_loads, vec![3, 1]);
        // avg 2, (3-2)^2 + (1-2)^2 = 2
        assert_eq!(m.imbalance, 2.0);
    }

    #[test]
    fn cut_size_matches_full_metrics() {
        let g = square();
        for labels in [[0u32, 1, 1, 0], [0, 0, 1, 1], [0, 1, 0, 1]] {
            let p = Partition::new(labels.to_vec(), 2).unwrap();
            assert_eq!(
                cut_size(&g, &p),
                PartitionMetrics::compute(&g, &p).total_cut
            );
        }
    }

    #[test]
    fn boundary_nodes_on_split_square() {
        let g = square();
        let p = Partition::new(vec![0, 0, 1, 1], 2).unwrap();
        // Every node touches the other part across a vertical edge.
        assert_eq!(boundary_nodes(&g, &p), vec![0, 1, 2, 3]);
        let single = Partition::all_zero(4, 2);
        assert!(boundary_nodes(&g, &single).is_empty());
    }

    #[test]
    #[should_panic(expected = "part label out of range")]
    fn set_rejects_bad_label() {
        let mut p = Partition::round_robin(3, 2);
        p.set(0, 2);
    }

    #[test]
    fn single_part_metrics_are_trivial() {
        let g = square();
        let p = Partition::all_zero(4, 1);
        let m = PartitionMetrics::compute(&g, &p);
        assert_eq!(m.total_cut, 0);
        assert_eq!(m.max_cut, 0);
        assert_eq!(m.imbalance, 0.0);
    }
}
