//! Streaming graph mutations: the substrate of dynamic repartitioning.
//!
//! The paper's incremental model (§3.5, §4.2) is one-shot — grow the
//! graph once, then re-run the GA. A production partitioner instead
//! maintains its partition across a *stream* of changes. This module
//! provides the graph half of that subsystem (the session logic lives in
//! `gapart-core::dynamic`):
//!
//! * [`Mutation`] — the three structural events a stream can carry:
//!   add a node, add (or reinforce) an edge, change a node weight.
//! * [`MutationLog`] — an append-only batch under construction, with
//!   id allocation for nodes added within the batch.
//! * [`apply_batch`] — applies a batch to a [`CsrGraph`] with a *merge*
//!   rebuild: `O(V + E + |batch|)` with no re-sorting of untouched
//!   adjacency rows, instead of the builder's full `O(E log E)` path.
//! * [`DirtyRegion`] — the nodes a batch touched, expandable by BFS to
//!   the refinement frontier ([`DirtyRegion::frontier`]).
//! * [`wire`] — the one mutation codec every transport shares (trace
//!   files, the serve protocol, the JSONL session tape).
//! * [`trace`] — a line-oriented text format for mutation traces, so
//!   streams can be recorded, replayed and diffed.
//! * [`scenario`] — deterministic trace generators (mesh-refinement
//!   growth, random churn, hotspot weight drift).
//!
//! [`CsrGraph`] stays immutable: applying a batch produces a new graph.
//! Everything here is deterministic — a trace replay is a pure function
//! of `(graph, trace)`.

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::geometry::Point2;

pub mod scenario;
pub mod trace;
pub mod wire;

/// One structural event in a mutation stream.
///
/// Node ids added by [`Mutation::AddNode`] are assigned sequentially
/// starting at the current node count, in batch order, so later mutations
/// in the same batch may reference them.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Appends a node with the given weight. `pos` is required when the
    /// graph carries coordinates (every node must have one) and ignored
    /// when it does not.
    AddNode {
        /// Computation weight of the new node (must be positive).
        weight: u32,
        /// Position of the new node, for coordinate-carrying graphs.
        pos: Option<Point2>,
    },
    /// Adds an undirected edge `{u, v}` of the given weight. Adding an
    /// edge that already exists reinforces it (weights sum), matching
    /// [`crate::GraphBuilder`]'s duplicate-merge semantics.
    AddEdge {
        /// One endpoint.
        u: u32,
        /// The other endpoint.
        v: u32,
        /// Communication weight (must be positive).
        weight: u32,
    },
    /// Replaces the weight of an existing node.
    SetNodeWeight {
        /// The node whose weight changes.
        node: u32,
        /// The new weight (must be positive).
        weight: u32,
    },
}

/// A batch of mutations under construction. Thin wrapper over
/// `Vec<Mutation>` that also allocates ids for nodes added through it, so
/// generators can wire new nodes to each other before the batch is
/// applied.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MutationLog {
    ops: Vec<Mutation>,
    nodes_added: usize,
    base_nodes: usize,
}

impl MutationLog {
    /// An empty log for mutations over a graph that currently has
    /// `base_nodes` nodes.
    pub fn new(base_nodes: usize) -> Self {
        MutationLog {
            ops: Vec::new(),
            nodes_added: 0,
            base_nodes,
        }
    }

    /// Appends an [`Mutation::AddNode`], returning the id the node will
    /// receive when the batch is applied.
    pub fn add_node(&mut self, weight: u32, pos: Option<Point2>) -> u32 {
        let id = (self.base_nodes + self.nodes_added) as u32;
        self.ops.push(Mutation::AddNode { weight, pos });
        self.nodes_added += 1;
        id
    }

    /// Appends an [`Mutation::AddEdge`].
    pub fn add_edge(&mut self, u: u32, v: u32, weight: u32) {
        self.ops.push(Mutation::AddEdge { u, v, weight });
    }

    /// Appends a [`Mutation::SetNodeWeight`].
    pub fn set_node_weight(&mut self, node: u32, weight: u32) {
        self.ops.push(Mutation::SetNodeWeight { node, weight });
    }

    /// Number of recorded mutations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the log holds no mutations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The recorded mutations, in order.
    pub fn ops(&self) -> &[Mutation] {
        &self.ops
    }

    /// Consumes the log, returning the mutation list.
    pub fn into_ops(self) -> Vec<Mutation> {
        self.ops
    }
}

/// The set of nodes a mutation batch touched: new nodes, endpoints of
/// added edges, and weight-changed nodes. Ids are sorted and unique.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyRegion {
    nodes: Vec<u32>,
}

impl DirtyRegion {
    /// The touched node ids, sorted ascending without duplicates.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// Number of touched nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the batch touched no nodes (e.g. an empty batch).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Expands the region by `hops` breadth-first steps over `graph`,
    /// returning the sorted ids of every node within that distance of a
    /// touched node — the localized-refinement frontier. `hops = 0`
    /// returns the region itself.
    ///
    /// # Panics
    ///
    /// Panics if the region references a node `graph` does not have (it
    /// must be the graph the batch produced).
    pub fn frontier(&self, graph: &CsrGraph, hops: usize) -> Vec<u32> {
        let n = graph.num_nodes();
        let mut depth = vec![usize::MAX; n];
        let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        for &v in &self.nodes {
            assert!((v as usize) < n, "dirty node {v} out of range");
            depth[v as usize] = 0;
            queue.push_back(v);
        }
        while let Some(v) = queue.pop_front() {
            let d = depth[v as usize];
            if d == hops {
                continue;
            }
            for &u in graph.neighbors(v) {
                if depth[u as usize] == usize::MAX {
                    depth[u as usize] = d + 1;
                    queue.push_back(u);
                }
            }
        }
        (0..n as u32)
            .filter(|&v| depth[v as usize] != usize::MAX)
            .collect()
    }
}

/// Applies a mutation batch to `graph`, returning the mutated graph and
/// the [`DirtyRegion`] it touched.
///
/// The rebuild merges per row instead of re-sorting the whole edge list:
/// each run of untouched adjacency rows is copied as one span with
/// shifted offsets, touched rows merge their (sorted) additions in one
/// pass, and node weights/coordinates are extended in place —
/// `O(V + E + |batch| log |batch|)` overall, with the `O(V + E)` part at
/// memory-copy speed.
///
/// # Errors
///
/// * [`GraphError::NodeOutOfRange`] — an edge endpoint or weight change
///   references a node that does not exist at that point of the batch.
/// * [`GraphError::SelfLoop`] — an edge `{v, v}`.
/// * [`GraphError::ZeroEdgeWeight`] / [`GraphError::ZeroNodeWeight`] —
///   zero weights are invalid, as everywhere in the workspace.
/// * [`GraphError::MissingCoordinates`] — the graph carries coordinates
///   but an added node has no `pos`.
/// * [`GraphError::TooManyNodes`] — the batch would overflow `u32` ids.
/// * [`GraphError::AdjacencyOverflow`] — the mutated graph would hold
///   more than `u32::MAX` adjacency entries.
pub fn apply_batch(
    graph: &CsrGraph,
    batch: &[Mutation],
) -> Result<(CsrGraph, DirtyRegion), GraphError> {
    let n_old = graph.num_nodes();
    let has_coords = graph.coords().is_some();

    // Pass 1: validate in stream order, tracking the growing node count.
    let mut n_cur = n_old;
    let mut new_weights: Vec<u32> = Vec::new();
    let mut new_coords: Vec<Point2> = Vec::new();
    let mut weight_sets: Vec<(u32, u32)> = Vec::new();
    let mut added_edges: Vec<(u32, u32, u32)> = Vec::new();
    let mut dirty: Vec<u32> = Vec::new();
    for m in batch {
        match *m {
            Mutation::AddNode { weight, pos } => {
                if weight == 0 {
                    return Err(GraphError::ZeroNodeWeight { node: n_cur as u32 });
                }
                if n_cur + 1 > u32::MAX as usize {
                    return Err(GraphError::TooManyNodes {
                        requested: n_cur + 1,
                    });
                }
                if has_coords {
                    match pos {
                        Some(p) => new_coords.push(p),
                        None => return Err(GraphError::MissingCoordinates),
                    }
                }
                dirty.push(n_cur as u32);
                new_weights.push(weight);
                n_cur += 1;
            }
            Mutation::AddEdge { u, v, weight } => {
                if u as usize >= n_cur {
                    return Err(GraphError::NodeOutOfRange {
                        node: u,
                        num_nodes: n_cur,
                    });
                }
                if v as usize >= n_cur {
                    return Err(GraphError::NodeOutOfRange {
                        node: v,
                        num_nodes: n_cur,
                    });
                }
                if u == v {
                    return Err(GraphError::SelfLoop { node: u });
                }
                if weight == 0 {
                    return Err(GraphError::ZeroEdgeWeight { u, v });
                }
                added_edges.push((u.min(v), u.max(v), weight));
                dirty.push(u);
                dirty.push(v);
            }
            Mutation::SetNodeWeight { node, weight } => {
                if node as usize >= n_cur {
                    return Err(GraphError::NodeOutOfRange {
                        node,
                        num_nodes: n_cur,
                    });
                }
                if weight == 0 {
                    return Err(GraphError::ZeroNodeWeight { node });
                }
                weight_sets.push((node, weight));
                dirty.push(node);
            }
        }
    }

    // Merge duplicate additions of the same edge within the batch.
    added_edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
    added_edges.dedup_by(|cur, prev| {
        if cur.0 == prev.0 && cur.1 == prev.1 {
            prev.2 = prev.2.saturating_add(cur.2);
            true
        } else {
            false
        }
    });

    // Split additions into reinforcements of existing edges (weight
    // bumps, no structural change) and genuinely new adjacency entries,
    // one `(row, neighbour, weight)` per direction, sorted by row.
    let mut bumps: Vec<(u32, u32, u32)> = Vec::new();
    let mut inserts: Vec<(u32, u32, u32)> = Vec::with_capacity(2 * added_edges.len());
    for &(u, v, w) in &added_edges {
        if (v as usize) < n_old && graph.has_edge(u, v) {
            bumps.push((u, v, w));
        } else {
            inserts.push((u, v, w));
            inserts.push((v, u, w));
        }
    }
    inserts.sort_unstable_by_key(|&(row, nbr, _)| (row, nbr));

    let entries = graph.adjncy().len() + inserts.len();
    if u32::try_from(entries).is_err() {
        return Err(GraphError::AdjacencyOverflow { entries });
    }

    // Pass 2: assemble the new CSR arrays. Each run of rows no insert
    // touches is copied as one span, its offsets shifted by the inserts
    // placed before it; only a touched row is merged entry by entry.
    let mut rows = Rows {
        xadj: Vec::with_capacity(n_cur + 1),
        adjncy: Vec::with_capacity(entries),
        eweights: Vec::with_capacity(entries),
    };
    rows.xadj.push(0);
    let mut next = 0usize;
    for row_inserts in inserts.chunk_by(|a, b| a.0 == b.0) {
        let row = row_inserts[0].0 as usize;
        rows.copy_untouched(graph, next, row);
        let mut pending = row_inserts.iter().peekable();
        if row < n_old {
            let v = row as u32;
            for (&nbr, &w) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
                while let Some(&(_, ins, iw)) = pending.next_if(|e| e.1 < nbr) {
                    rows.push(ins, iw);
                }
                rows.push(nbr, w);
            }
        }
        for &(_, ins, iw) in pending {
            rows.push(ins, iw);
        }
        rows.end_row();
        next = row + 1;
    }
    rows.copy_untouched(graph, next, n_cur);
    let Rows {
        xadj,
        adjncy,
        mut eweights,
    } = rows;

    // Apply weight bumps for reinforced edges (both directions).
    for &(u, v, w) in &bumps {
        for (a, b) in [(u, v), (v, u)] {
            let start = xadj[a as usize] as usize;
            let row = &adjncy[start..xadj[a as usize + 1] as usize];
            // A bump is an edge `has_edge` found, so the search hits.
            if let Ok(idx) = row.binary_search(&b) {
                let slot = start + idx;
                eweights[slot] = eweights[slot].saturating_add(w);
            }
        }
    }

    let mut vweights = Vec::with_capacity(n_cur);
    vweights.extend_from_slice(graph.node_weights());
    vweights.extend_from_slice(&new_weights);
    for &(node, w) in &weight_sets {
        vweights[node as usize] = w;
    }
    let coords = graph.coords().map(|c| {
        let mut all = Vec::with_capacity(n_cur);
        all.extend_from_slice(c);
        all.extend_from_slice(&new_coords);
        all
    });

    let mutated = CsrGraph {
        xadj,
        adjncy,
        eweights,
        vweights,
        coords,
    };
    debug_assert!(mutated.validate().is_ok());

    dirty.sort_unstable();
    dirty.dedup();
    Ok((mutated, DirtyRegion { nodes: dirty }))
}

/// The CSR arrays [`apply_batch`] assembles, row by row. Offsets are
/// `u32` from the start: the caller checked the final entry count
/// against `u32::MAX`, and every offset is at most that count.
struct Rows {
    xadj: Vec<u32>,
    adjncy: Vec<u32>,
    eweights: Vec<u32>,
}

impl Rows {
    /// Appends rows `from..to`, which no insert touches: rows of `old`
    /// keep their entries, copied as one span with shifted offsets; rows
    /// past `old`'s last are new and empty.
    fn copy_untouched(&mut self, old: &CsrGraph, from: usize, to: usize) {
        let old_to = to.min(old.num_nodes());
        if from < old_to {
            let old_xadj = old.xadj();
            let (a, b) = (old_xadj[from], old_xadj[old_to]);
            let shift = self.adjncy.len() as u32 - a;
            self.adjncy
                .extend_from_slice(&old.adjncy()[a as usize..b as usize]);
            self.eweights
                .extend_from_slice(&old.eweights()[a as usize..b as usize]);
            self.xadj
                .extend(old_xadj[from + 1..=old_to].iter().map(|&x| x + shift));
        }
        let end = self.adjncy.len() as u32;
        self.xadj.resize(to + 1, end);
    }

    fn push(&mut self, nbr: u32, w: u32) {
        self.adjncy.push(nbr);
        self.eweights.push(w);
    }

    fn end_row(&mut self) {
        self.xadj.push(self.adjncy.len() as u32);
    }
}

/// Applies several batches in sequence, returning the final graph and the
/// union of every batch's dirty region (on the final graph's id space).
///
/// # Errors
///
/// Propagates the first [`GraphError`] any batch raises; earlier batches
/// are not rolled back into the return value (the input graph is
/// untouched either way).
pub fn apply_all(
    graph: &CsrGraph,
    batches: &[Vec<Mutation>],
) -> Result<(CsrGraph, DirtyRegion), GraphError> {
    let mut g = graph.clone();
    let mut union: Vec<u32> = Vec::new();
    for batch in batches {
        let (next, dirty) = apply_batch(&g, batch)?;
        union.extend_from_slice(dirty.nodes());
        g = next;
    }
    union.sort_unstable();
    union.dedup();
    Ok((g, DirtyRegion { nodes: union }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::generators::{jittered_mesh, paper_graph};

    #[test]
    fn add_edge_between_existing_nodes() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let batch = vec![Mutation::AddEdge {
            u: 3,
            v: 0,
            weight: 2,
        }];
        let (g2, dirty) = apply_batch(&g, &batch).unwrap();
        g2.validate().unwrap();
        assert_eq!(g2.num_edges(), 4);
        assert_eq!(g2.edge_weight(0, 3), Some(2));
        assert_eq!(dirty.nodes(), &[0, 3]);
        // Untouched structure preserved.
        assert_eq!(g2.edge_weight(1, 2), Some(1));
    }

    #[test]
    fn add_node_wired_to_existing_and_new() {
        let g = from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let mut log = MutationLog::new(g.num_nodes());
        let a = log.add_node(2, None);
        let b = log.add_node(1, None);
        assert_eq!((a, b), (3, 4));
        log.add_edge(a, 0, 1);
        log.add_edge(a, b, 3);
        let (g2, dirty) = apply_batch(&g, log.ops()).unwrap();
        g2.validate().unwrap();
        assert_eq!(g2.num_nodes(), 5);
        assert_eq!(g2.node_weight(3), 2);
        assert_eq!(g2.edge_weight(3, 4), Some(3));
        assert_eq!(g2.edge_weight(0, 3), Some(1));
        assert_eq!(dirty.nodes(), &[0, 3, 4]);
    }

    #[test]
    fn reinforcing_an_existing_edge_sums_weights() {
        let g = from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let batch = vec![Mutation::AddEdge {
            u: 1,
            v: 0,
            weight: 4,
        }];
        let (g2, _) = apply_batch(&g, &batch).unwrap();
        assert_eq!(g2.num_edges(), 2);
        assert_eq!(g2.edge_weight(0, 1), Some(5));
        g2.validate().unwrap();
    }

    #[test]
    fn duplicate_edges_within_a_batch_merge() {
        let g = from_edges(2, &[(0, 1)]).unwrap();
        let batch = vec![
            Mutation::AddNode {
                weight: 1,
                pos: None,
            },
            Mutation::AddEdge {
                u: 2,
                v: 0,
                weight: 1,
            },
            Mutation::AddEdge {
                u: 0,
                v: 2,
                weight: 2,
            },
        ];
        let (g2, _) = apply_batch(&g, &batch).unwrap();
        assert_eq!(g2.edge_weight(0, 2), Some(3));
        g2.validate().unwrap();
    }

    #[test]
    fn set_node_weight_changes_only_that_node() {
        let g = from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let batch = vec![Mutation::SetNodeWeight { node: 1, weight: 9 }];
        let (g2, dirty) = apply_batch(&g, &batch).unwrap();
        assert_eq!(g2.node_weights(), &[1, 9, 1]);
        assert_eq!(dirty.nodes(), &[1]);
    }

    #[test]
    fn matches_full_rebuild_on_a_mixed_batch() {
        // The merge rebuild must agree with GraphBuilder's full path.
        let g = jittered_mesh(60, 3);
        let mut log = MutationLog::new(60);
        let a = log.add_node(2, Some(Point2::new(0.5, 0.5)));
        log.add_edge(a, 10, 1);
        log.add_edge(a, 11, 2);
        log.add_edge(5, 40, 7);
        log.set_node_weight(20, 4);
        let (fast, _) = apply_batch(&g, log.ops()).unwrap();

        let mut b = crate::builder::GraphBuilder::with_nodes(61);
        for (u, v, w) in g.edges() {
            b.push_edge(u, v, w);
        }
        b.push_edge(60, 10, 1);
        b.push_edge(60, 11, 2);
        b.push_edge(5, 40, 7);
        let mut weights = g.node_weights().to_vec();
        weights.push(2);
        weights[20] = 4;
        let mut coords = g.coords().unwrap().to_vec();
        coords.push(Point2::new(0.5, 0.5));
        let slow = b.node_weights(weights).coords(coords).build().unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn rejects_invalid_mutations() {
        let g = from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let err = |batch: Vec<Mutation>| apply_batch(&g, &batch).unwrap_err();
        assert!(matches!(
            err(vec![Mutation::AddEdge {
                u: 0,
                v: 3,
                weight: 1
            }]),
            GraphError::NodeOutOfRange { node: 3, .. }
        ));
        assert_eq!(
            err(vec![Mutation::AddEdge {
                u: 1,
                v: 1,
                weight: 1
            }]),
            GraphError::SelfLoop { node: 1 }
        );
        assert_eq!(
            err(vec![Mutation::AddEdge {
                u: 0,
                v: 2,
                weight: 0
            }]),
            GraphError::ZeroEdgeWeight { u: 0, v: 2 }
        );
        assert_eq!(
            err(vec![Mutation::SetNodeWeight { node: 0, weight: 0 }]),
            GraphError::ZeroNodeWeight { node: 0 }
        );
        assert!(matches!(
            err(vec![Mutation::SetNodeWeight { node: 9, weight: 1 }]),
            GraphError::NodeOutOfRange { node: 9, .. }
        ));
        // Coordinate-carrying graphs demand positions for new nodes.
        let gm = jittered_mesh(10, 1);
        assert_eq!(
            apply_batch(
                &gm,
                &[Mutation::AddNode {
                    weight: 1,
                    pos: None
                }]
            )
            .unwrap_err(),
            GraphError::MissingCoordinates
        );
    }

    #[test]
    fn later_mutations_may_reference_nodes_added_earlier_in_the_batch() {
        let g = from_edges(2, &[(0, 1)]).unwrap();
        // Edge to node 2 *before* validation order would see it — must
        // fail, because the node does not exist yet at that point.
        let bad = vec![
            Mutation::AddEdge {
                u: 0,
                v: 2,
                weight: 1,
            },
            Mutation::AddNode {
                weight: 1,
                pos: None,
            },
        ];
        assert!(matches!(
            apply_batch(&g, &bad).unwrap_err(),
            GraphError::NodeOutOfRange { node: 2, .. }
        ));
        let good = vec![
            Mutation::AddNode {
                weight: 1,
                pos: None,
            },
            Mutation::AddEdge {
                u: 0,
                v: 2,
                weight: 1,
            },
        ];
        assert!(apply_batch(&g, &good).is_ok());
    }

    #[test]
    fn empty_batch_is_identity() {
        let g = paper_graph(78);
        let (g2, dirty) = apply_batch(&g, &[]).unwrap();
        assert_eq!(g, g2);
        assert!(dirty.is_empty());
        assert!(dirty.frontier(&g2, 3).is_empty());
    }

    #[test]
    fn frontier_expands_by_bfs_hops() {
        // Path 0-1-2-3-4-5; touch node 0 only.
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let batch = vec![Mutation::SetNodeWeight { node: 0, weight: 2 }];
        let (g2, dirty) = apply_batch(&g, &batch).unwrap();
        assert_eq!(dirty.frontier(&g2, 0), vec![0]);
        assert_eq!(dirty.frontier(&g2, 2), vec![0, 1, 2]);
        assert_eq!(dirty.frontier(&g2, 9), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn apply_all_chains_batches_and_unions_dirt() {
        let g = from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let batches = vec![
            vec![
                Mutation::AddNode {
                    weight: 1,
                    pos: None,
                },
                Mutation::AddEdge {
                    u: 3,
                    v: 0,
                    weight: 1,
                },
            ],
            vec![Mutation::SetNodeWeight { node: 2, weight: 5 }],
        ];
        let (g2, dirty) = apply_all(&g, &batches).unwrap();
        assert_eq!(g2.num_nodes(), 4);
        assert_eq!(g2.node_weight(2), 5);
        assert_eq!(dirty.nodes(), &[0, 2, 3]);
    }

    #[test]
    fn growth_scale_smoke() {
        // A few hundred mutations over a real mesh, validated at the end.
        let mut g = jittered_mesh(200, 7);
        for round in 0..5u64 {
            let mut log = MutationLog::new(g.num_nodes());
            for i in 0..20 {
                let id = log.add_node(1, Some(Point2::new(0.1 * round as f64, 0.01 * i as f64)));
                log.add_edge(id, (i % g.num_nodes()) as u32, 1);
                if i > 0 {
                    log.add_edge(id, id - 1, 1);
                }
            }
            let (next, dirty) = apply_batch(&g, log.ops()).unwrap();
            next.validate().unwrap();
            assert_eq!(next.num_nodes(), g.num_nodes() + 20);
            assert!(dirty.len() >= 20);
            g = next;
        }
        assert_eq!(g.num_nodes(), 300);
    }
}
