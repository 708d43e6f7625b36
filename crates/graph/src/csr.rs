//! Compressed-sparse-row undirected graph.

use crate::error::GraphError;
use crate::geometry::Point2;

/// An undirected graph in compressed-sparse-row form.
///
/// Each undirected edge `{u, v}` is stored twice (once in each endpoint's
/// adjacency list), the standard CSR convention. Node ids are `u32` and
/// dense in `0..num_nodes()`. Vertex weights model per-node computation
/// cost, edge weights model communication volume; the paper's experiments
/// use unit weights but the representation is fully weighted.
///
/// The three hot arrays every coarsening and refinement scan walks —
/// row offsets, adjacency and edge weights — are `u32`, which halves the
/// offset array on 64-bit hosts and keeps more of the topology in cache
/// on million-node graphs. The price is a hard capacity ceiling: **at
/// most `u32::MAX` adjacency entries** (≈2.1 billion directed
/// half-edges). The builder, the METIS reader and batch mutation return
/// [`GraphError::AdjacencyOverflow`] past it; coarsening only ever
/// shrinks an in-range graph.
///
/// Construct via [`crate::GraphBuilder`] (validated) or the generators.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    pub(crate) xadj: Vec<u32>,
    pub(crate) adjncy: Vec<u32>,
    pub(crate) eweights: Vec<u32>,
    pub(crate) vweights: Vec<u32>,
    pub(crate) coords: Option<Vec<Point2>>,
}

impl CsrGraph {
    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Neighbours of `v`, sorted ascending, no duplicates.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.adjncy[self.xadj[v] as usize..self.xadj[v + 1] as usize]
    }

    /// Weights of the edges leaving `v`, aligned with [`Self::neighbors`].
    #[inline]
    pub fn edge_weights(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.eweights[self.xadj[v] as usize..self.xadj[v + 1] as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        let v = v as usize;
        (self.xadj[v + 1] - self.xadj[v]) as usize
    }

    /// Weight (computation cost) of node `v`.
    #[inline]
    pub fn node_weight(&self, v: u32) -> u32 {
        self.vweights[v as usize]
    }

    /// All node weights, indexed by node id.
    #[inline]
    pub fn node_weights(&self) -> &[u32] {
        &self.vweights
    }

    /// Sum of all node weights.
    pub fn total_node_weight(&self) -> u64 {
        self.vweights.iter().map(|&w| w as u64).sum()
    }

    /// Weight of edge `{u, v}`, or `None` if the edge does not exist.
    pub fn edge_weight(&self, u: u32, v: u32) -> Option<u32> {
        let nbrs = self.neighbors(u);
        let idx = nbrs.binary_search(&v).ok()?;
        Some(self.edge_weights(u)[idx])
    }

    /// Whether `{u, v}` is an edge.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Vertex coordinates, if the graph carries them.
    #[inline]
    pub fn coords(&self) -> Option<&[Point2]> {
        self.coords.as_deref()
    }

    /// Vertex coordinates, or [`GraphError::MissingCoordinates`].
    pub fn coords_required(&self) -> Result<&[Point2], GraphError> {
        self.coords.as_deref().ok_or(GraphError::MissingCoordinates)
    }

    /// Iterator over node ids.
    pub fn nodes(&self) -> impl Iterator<Item = u32> + '_ {
        0..self.num_nodes() as u32
    }

    /// Iterator over undirected edges as `(u, v, weight)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .zip(self.edge_weights(u))
                .filter(move |(&v, _)| u < v)
                .map(move |(&v, &w)| (u, v, w))
        })
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average degree (0.0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.adjncy.len() as f64 / self.num_nodes() as f64
        }
    }

    /// Checks internal CSR invariants. Cheap enough for debug assertions in
    /// tests; not called on hot paths.
    ///
    /// Invariants: monotone `xadj`, aligned weight arrays, sorted duplicate-
    /// free adjacency rows, no self-loops, and symmetry (`v ∈ adj(u)` iff
    /// `u ∈ adj(v)` with equal weights).
    pub fn validate(&self) -> Result<(), GraphError> {
        let n = self.num_nodes();
        if self.adjncy.len() != self.eweights.len() || self.vweights.len() != n {
            return Err(GraphError::Parse {
                line: 0,
                message: "internal arrays misaligned".into(),
            });
        }
        for v in 0..n {
            if self.xadj[v] > self.xadj[v + 1] {
                return Err(GraphError::Parse {
                    line: 0,
                    message: format!("xadj not monotone at node {v}"),
                });
            }
            let nbrs = self.neighbors(v as u32);
            for w in nbrs.windows(2) {
                if w[0] >= w[1] {
                    return Err(GraphError::Parse {
                        line: 0,
                        message: format!("adjacency of node {v} not sorted/unique"),
                    });
                }
            }
            for (&u, &w) in nbrs.iter().zip(self.edge_weights(v as u32)) {
                if u as usize >= n {
                    return Err(GraphError::NodeOutOfRange {
                        node: u,
                        num_nodes: n,
                    });
                }
                if u as usize == v {
                    return Err(GraphError::SelfLoop { node: u });
                }
                match self.edge_weight(u, v as u32) {
                    Some(back) if back == w => {}
                    _ => {
                        return Err(GraphError::Parse {
                            line: 0,
                            message: format!("edge ({v}, {u}) not symmetric"),
                        })
                    }
                }
            }
        }
        if let Some(coords) = &self.coords {
            if coords.len() != n {
                return Err(GraphError::Parse {
                    line: 0,
                    message: "coordinate array length mismatch".into(),
                });
            }
        }
        Ok(())
    }

    /// Raw CSR row offsets (length `num_nodes() + 1`, `u32` — see
    /// [`CsrGraph`] for the capacity ceiling). Exposed for substrates
    /// (e.g. Laplacian assembly) that want zero-copy access.
    #[inline]
    pub fn xadj(&self) -> &[u32] {
        &self.xadj
    }

    /// Raw flattened adjacency (each undirected edge appears twice).
    #[inline]
    pub fn adjncy(&self) -> &[u32] {
        &self.adjncy
    }

    /// Raw flattened edge weights, aligned with [`Self::adjncy`].
    #[inline]
    pub fn eweights(&self) -> &[u32] {
        &self.eweights
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::geometry::Point2;

    fn path3() -> crate::CsrGraph {
        // 0 - 1 - 2
        GraphBuilder::with_nodes(3)
            .edge(0, 1)
            .edge(1, 2)
            .build()
            .unwrap()
    }

    #[test]
    fn counts() {
        let g = path3();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn neighbors_sorted() {
        let g = GraphBuilder::with_nodes(4)
            .edge(2, 0)
            .edge(2, 3)
            .edge(2, 1)
            .build()
            .unwrap();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
    }

    #[test]
    fn edge_queries() {
        let g = path3();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.edge_weight(0, 1), Some(1));
        assert_eq!(g.edge_weight(0, 2), None);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = GraphBuilder::with_nodes(4)
            .edge(0, 1)
            .edge(1, 2)
            .edge(2, 3)
            .edge(3, 0)
            .build()
            .unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 1), (0, 3, 1), (1, 2, 1), (2, 3, 1)]);
    }

    #[test]
    fn weighted_edges_round_trip() {
        let g = GraphBuilder::with_nodes(2)
            .weighted_edge(0, 1, 7)
            .build()
            .unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(7));
        assert_eq!(g.edge_weight(1, 0), Some(7));
    }

    #[test]
    fn node_weights_default_to_unit() {
        let g = path3();
        assert_eq!(g.node_weights(), &[1, 1, 1]);
        assert_eq!(g.total_node_weight(), 3);
    }

    #[test]
    fn coords_required_errors_without_coords() {
        let g = path3();
        assert!(g.coords().is_none());
        assert!(g.coords_required().is_err());
    }

    #[test]
    fn coords_round_trip() {
        let g = GraphBuilder::with_nodes(2)
            .edge(0, 1)
            .coords(vec![Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)])
            .build()
            .unwrap();
        assert_eq!(g.coords().unwrap()[1], Point2::new(1.0, 0.0));
    }

    #[test]
    fn validate_accepts_builder_output() {
        path3().validate().unwrap();
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::with_nodes(0).build().unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        g.validate().unwrap();
    }
}
