//! Validated construction of [`CsrGraph`]s from edge lists.

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::geometry::Point2;

/// Incremental, validated builder for [`CsrGraph`].
///
/// Duplicate edges are merged by summing their weights (so a generator may
/// emit the same edge from both sides without special-casing). Self-loops
/// and zero weights are rejected at [`GraphBuilder::build`] time.
///
/// ```
/// use gapart_graph::GraphBuilder;
/// let g = GraphBuilder::with_nodes(3).edge(0, 1).edge(1, 2).build().unwrap();
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    edges: Vec<(u32, u32, u32)>,
    vweights: Option<Vec<u32>>,
    coords: Option<Vec<Point2>>,
}

impl GraphBuilder {
    /// Builder for a graph with `num_nodes` nodes and, initially, no edges.
    pub fn with_nodes(num_nodes: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
            vweights: None,
            coords: None,
        }
    }

    /// Number of nodes the builder was created with.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Adds a unit-weight undirected edge.
    #[must_use]
    pub fn edge(mut self, u: u32, v: u32) -> Self {
        self.edges.push((u, v, 1));
        self
    }

    /// Adds a weighted undirected edge.
    #[must_use]
    pub fn weighted_edge(mut self, u: u32, v: u32, w: u32) -> Self {
        self.edges.push((u, v, w));
        self
    }

    /// Adds many unit-weight edges at once.
    #[must_use]
    pub fn edges<I: IntoIterator<Item = (u32, u32)>>(mut self, it: I) -> Self {
        self.edges.extend(it.into_iter().map(|(u, v)| (u, v, 1)));
        self
    }

    /// Adds many weighted edges at once.
    #[must_use]
    pub fn weighted_edges<I: IntoIterator<Item = (u32, u32, u32)>>(mut self, it: I) -> Self {
        self.edges.extend(it);
        self
    }

    /// In-place (non-consuming) edge insertion, for loop-heavy generators.
    pub fn push_edge(&mut self, u: u32, v: u32, w: u32) {
        self.edges.push((u, v, w));
    }

    /// Sets per-node weights; length must equal the node count.
    #[must_use]
    pub fn node_weights(mut self, weights: Vec<u32>) -> Self {
        self.vweights = Some(weights);
        self
    }

    /// Sets per-node coordinates; length must equal the node count.
    #[must_use]
    pub fn coords(mut self, coords: Vec<Point2>) -> Self {
        self.coords = Some(coords);
        self
    }

    /// Finalizes the graph, validating every input.
    ///
    /// # Errors
    ///
    /// * [`GraphError::TooManyNodes`] if the node count exceeds `u32`.
    /// * [`GraphError::NodeOutOfRange`] for an edge endpoint `≥ num_nodes`.
    /// * [`GraphError::SelfLoop`] for an edge `(v, v)`.
    /// * [`GraphError::ZeroEdgeWeight`] / [`GraphError::ZeroNodeWeight`].
    /// * [`GraphError::Parse`] if the weight or coordinate array lengths
    ///   don't match the node count.
    /// * [`GraphError::AdjacencyOverflow`] if the merged adjacency exceeds
    ///   the `u32` offset space of the memory-lean CSR core.
    pub fn build(self) -> Result<CsrGraph, GraphError> {
        let n = self.num_nodes;
        if n > u32::MAX as usize {
            return Err(GraphError::TooManyNodes { requested: n });
        }
        let vweights = match self.vweights {
            Some(w) => {
                if w.len() != n {
                    return Err(GraphError::Parse {
                        line: 0,
                        message: format!("{} node weights for {} nodes", w.len(), n),
                    });
                }
                if let Some(pos) = w.iter().position(|&x| x == 0) {
                    return Err(GraphError::ZeroNodeWeight { node: pos as u32 });
                }
                w
            }
            None => vec![1; n],
        };
        if let Some(coords) = &self.coords {
            if coords.len() != n {
                return Err(GraphError::Parse {
                    line: 0,
                    message: format!("{} coordinates for {} nodes", coords.len(), n),
                });
            }
        }

        // Normalize to (min, max, w), validate, sort, and merge duplicates.
        let mut half: Vec<(u32, u32, u32)> = Vec::with_capacity(self.edges.len());
        for (u, v, w) in self.edges {
            if u as usize >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: u,
                    num_nodes: n,
                });
            }
            if v as usize >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: v,
                    num_nodes: n,
                });
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            if w == 0 {
                return Err(GraphError::ZeroEdgeWeight { u, v });
            }
            half.push((u.min(v), u.max(v), w));
        }
        half.sort_unstable_by_key(|&(u, v, _)| (u, v));
        half.dedup_by(|cur, prev| {
            if cur.0 == prev.0 && cur.1 == prev.1 {
                prev.2 = prev.2.saturating_add(cur.2);
                true
            } else {
                false
            }
        });

        // Degree counting pass, then CSR fill.
        let mut degree = vec![0usize; n];
        for &(u, v, _) in &half {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut xadj = Vec::with_capacity(n + 1);
        let mut total = 0usize;
        xadj.push(0usize);
        for d in &degree {
            total += d;
            xadj.push(total);
        }
        let mut adjncy = vec![0u32; total];
        let mut eweights = vec![0u32; total];
        let mut cursor = xadj[..n].to_vec();
        for &(u, v, w) in &half {
            let cu = &mut cursor[u as usize];
            adjncy[*cu] = v;
            eweights[*cu] = w;
            *cu += 1;
            let cv = &mut cursor[v as usize];
            adjncy[*cv] = u;
            eweights[*cv] = w;
            *cv += 1;
        }
        // Rows were filled in (u, v)-sorted order: row u receives its
        // higher-numbered neighbours in order, then row v the lower ones —
        // but interleaving can break per-row order, so sort each row.
        for v in 0..n {
            let (s, e) = (xadj[v], xadj[v + 1]);
            let mut row: Vec<(u32, u32)> = adjncy[s..e]
                .iter()
                .copied()
                .zip(eweights[s..e].iter().copied())
                .collect();
            row.sort_unstable_by_key(|&(nbr, _)| nbr);
            for (i, (nbr, w)) in row.into_iter().enumerate() {
                adjncy[s + i] = nbr;
                eweights[s + i] = w;
            }
        }

        let g = CsrGraph {
            xadj: u32_offsets(xadj)?,
            adjncy,
            eweights,
            vweights,
            coords: self.coords,
        };
        debug_assert!(g.validate().is_ok());
        Ok(g)
    }
}

/// Convenience: builds a unit-weight graph from an edge list.
pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)]) -> Result<CsrGraph, GraphError> {
    GraphBuilder::with_nodes(num_nodes)
        .edges(edges.iter().copied())
        .build()
}

/// Checked conversion of the builder's `usize` prefix sums to the
/// graph's `u32` offsets. `xadj` must be monotone, so its last entry (the
/// adjacency length) bounds every other; past `u32::MAX` it is a
/// [`GraphError::AdjacencyOverflow`], never a wrap.
fn u32_offsets(xadj: Vec<usize>) -> Result<Vec<u32>, GraphError> {
    let entries = xadj.last().copied().unwrap_or(0);
    if entries > u32::MAX as usize {
        return Err(GraphError::AdjacencyOverflow { entries });
    }
    Ok(xadj.into_iter().map(|x| x as u32).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked conversion looks only at the offsets, so rejecting a
    /// past-ceiling adjacency needs no multi-gigabyte allocation.
    #[test]
    fn usize_offsets_past_u32_are_rejected() {
        let entries = u32::MAX as usize + 1;
        let err = u32_offsets(vec![0, entries]).expect_err("past-ceiling offsets must not convert");
        assert!(matches!(err, GraphError::AdjacencyOverflow { entries: e } if e == entries));
        let msg = err.to_string();
        assert!(msg.contains("4294967296"), "error names the count: {msg}");
        assert_eq!(u32_offsets(vec![0, 2, 5]).unwrap(), [0, 2, 5]);
    }

    #[test]
    fn duplicate_edges_merge_weights() {
        let g = GraphBuilder::with_nodes(2)
            .weighted_edge(0, 1, 2)
            .weighted_edge(1, 0, 3)
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(5));
    }

    #[test]
    fn rejects_out_of_range() {
        let err = GraphBuilder::with_nodes(2).edge(0, 2).build().unwrap_err();
        assert_eq!(
            err,
            GraphError::NodeOutOfRange {
                node: 2,
                num_nodes: 2
            }
        );
    }

    #[test]
    fn rejects_self_loop() {
        let err = GraphBuilder::with_nodes(2).edge(1, 1).build().unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: 1 });
    }

    #[test]
    fn rejects_zero_edge_weight() {
        let err = GraphBuilder::with_nodes(2)
            .weighted_edge(0, 1, 0)
            .build()
            .unwrap_err();
        assert_eq!(err, GraphError::ZeroEdgeWeight { u: 0, v: 1 });
    }

    #[test]
    fn rejects_zero_node_weight() {
        let err = GraphBuilder::with_nodes(2)
            .edge(0, 1)
            .node_weights(vec![1, 0])
            .build()
            .unwrap_err();
        assert_eq!(err, GraphError::ZeroNodeWeight { node: 1 });
    }

    #[test]
    fn rejects_mismatched_weight_length() {
        assert!(GraphBuilder::with_nodes(3)
            .node_weights(vec![1, 1])
            .build()
            .is_err());
    }

    #[test]
    fn rejects_mismatched_coords_length() {
        assert!(GraphBuilder::with_nodes(3)
            .coords(vec![Point2::ORIGIN])
            .build()
            .is_err());
    }

    #[test]
    fn from_edges_round_trip() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(g.num_edges(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn rows_are_sorted_regardless_of_insertion_order() {
        let g = GraphBuilder::with_nodes(5)
            .edge(4, 2)
            .edge(0, 4)
            .edge(4, 1)
            .edge(3, 4)
            .build()
            .unwrap();
        assert_eq!(g.neighbors(4), &[0, 1, 2, 3]);
        g.validate().unwrap();
    }
}
