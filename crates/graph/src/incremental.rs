//! The paper's incremental-update model (§4.2): "start with a graph,
//! partition it, then modify by adding some number of nodes in a local area
//! chosen randomly within the graph".

use crate::csr::CsrGraph;
use crate::dynamic::{apply_batch, MutationLog};
use crate::error::GraphError;
use crate::geometry::{density_cell, NearestGrid, Point2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of growing a graph locally. New nodes take the ids after the
/// old graph's last; the ids of pre-existing nodes are unchanged, so a
/// partition of the old graph remains valid on the prefix.
#[derive(Debug, Clone)]
pub struct GrowthResult {
    /// The grown graph.
    pub graph: CsrGraph,
    /// The randomly chosen vertex around which the new nodes cluster.
    pub anchor: u32,
}

/// Grows `graph` by `k` unit-weight nodes clustered in a local area around
/// a randomly chosen anchor vertex (mesh-refinement style).
///
/// Each new node is placed by a small random offset from the anchor
/// (within ≈ 2 grid spacings) and connected to its 3 nearest neighbours
/// among all nodes placed so far, which keeps the grown region
/// triangulation-like and the whole graph connected.
///
/// Deterministic in `(graph, k, seed)`.
///
/// # Errors
///
/// Returns [`GraphError::MissingCoordinates`] if the graph has no vertex
/// coordinates (the locality model needs geometry),
/// [`GraphError::EmptyGraph`] if it has no node to anchor the growth, and
/// [`GraphError::UnboundedCoords`] if the coordinates span more than an
/// `f64` measures.
pub fn grow_local(graph: &CsrGraph, k: usize, seed: u64) -> Result<GrowthResult, GraphError> {
    let coords = graph.coords_required()?;
    let n_old = graph.num_nodes();
    if n_old == 0 {
        return Err(GraphError::EmptyGraph);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6772_6f77); // "grow"
    let anchor = rng.gen_range(0..n_old as u32);
    let anchor_pt = coords[anchor as usize];

    // Local length scale: roughly two grid spacings of the original mesh.
    let spacing = 1.0 / (n_old as f64).sqrt();
    let radius = 2.0 * spacing;

    // The grid's cell size comes from the measured point density (not
    // the unit-square 1/√n, which `radius` keeps only for
    // backwards-compatible growth geometry), so ring searches stay O(k)
    // for coordinates on any scale.
    let mut index = NearestGrid::new(coords, density_cell(coords)?);
    let mut log = MutationLog::new(n_old);
    grow_step(&mut index, anchor_pt, radius, k, &mut log, &mut rng);
    let (grown, _) = apply_batch(graph, log.ops())?;
    Ok(GrowthResult {
        graph: grown,
        anchor,
    })
}

/// The §4.2 local-growth step that [`grow_local`] and the mesh-growth
/// trace generator share: scatters `count` unit-weight nodes uniformly
/// over the square of half-width `radius` around `anchor_pt`, and wires
/// each to its 3 nearest points placed so far, ties to the lower id. The
/// nodes and their edges go into `log`, and the points into `index`,
/// whose ids must continue `log`'s.
// gapart-lint: allow(panic-reach) -- `nearest` reads only ids `index` inserted, and finite coordinates (checked by `density_cell`) keep its distances comparable
pub(crate) fn grow_step<R: Rng + ?Sized>(
    index: &mut NearestGrid,
    anchor_pt: Point2,
    radius: f64,
    count: usize,
    log: &mut MutationLog,
    rng: &mut R,
) {
    for _ in 0..count {
        let pt = Point2::new(
            anchor_pt.x + rng.gen_range(-radius..radius),
            anchor_pt.y + rng.gen_range(-radius..radius),
        );
        let nbrs = index.nearest(&pt, 3);
        let id = log.add_node(1, Some(pt));
        for nbr in nbrs {
            log.add_edge(id, nbr, 1);
        }
        index.insert(pt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generators::paper_graph;
    use crate::traversal::is_connected;

    #[test]
    fn grows_by_exactly_k() {
        let g = paper_graph(118);
        let r = grow_local(&g, 21, 7).unwrap();
        assert_eq!(r.graph.num_nodes(), 139);
    }

    #[test]
    fn preserves_existing_structure() {
        let g = paper_graph(78);
        let r = grow_local(&g, 10, 3).unwrap();
        for (u, v, w) in g.edges() {
            assert_eq!(r.graph.edge_weight(u, v), Some(w), "lost edge ({u},{v})");
        }
        // Old coordinates unchanged.
        let old = g.coords().unwrap();
        let new = r.graph.coords().unwrap();
        assert_eq!(&new[..78], old);
    }

    #[test]
    fn grown_graph_is_connected() {
        for seed in 0..5 {
            let g = paper_graph(98);
            let r = grow_local(&g, 30, seed).unwrap();
            assert!(is_connected(&r.graph), "seed {seed}");
        }
    }

    #[test]
    fn new_nodes_cluster_near_anchor() {
        let g = paper_graph(183);
        let r = grow_local(&g, 30, 11).unwrap();
        let coords = r.graph.coords().unwrap();
        let anchor_pt = coords[r.anchor as usize];
        let spacing = 1.0 / (183f64).sqrt();
        for v in 183..r.graph.num_nodes() as u32 {
            let d = coords[v as usize].dist(&anchor_pt);
            assert!(d <= 2.0 * spacing * 1.5 + 1e-9, "node {v} too far: {d}");
        }
    }

    #[test]
    fn deterministic() {
        let g = paper_graph(118);
        let a = grow_local(&g, 21, 5).unwrap();
        let b = grow_local(&g, 21, 5).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.anchor, b.anchor);
    }

    /// The pre-spatial-grid implementation, preserved verbatim as the
    /// reference: a full scan-and-sort over every placed node per new
    /// node. The grid path must reproduce its output bit for bit.
    fn grow_local_reference(graph: &CsrGraph, k: usize, seed: u64) -> GrowthResult {
        let old_coords = graph.coords_required().unwrap().to_vec();
        let n_old = graph.num_nodes();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6772_6f77);
        let anchor = rng.gen_range(0..n_old as u32);
        let anchor_pt = old_coords[anchor as usize];
        let spacing = 1.0 / (n_old as f64).sqrt();
        let radius = 2.0 * spacing;
        let n_new = n_old + k;
        let mut coords = old_coords;
        let mut b = GraphBuilder::with_nodes(n_new);
        for (u, v, w) in graph.edges() {
            b.push_edge(u, v, w);
        }
        for step in 0..k {
            let new_id = (n_old + step) as u32;
            let pt = Point2::new(
                anchor_pt.x + rng.gen_range(-radius..radius),
                anchor_pt.y + rng.gen_range(-radius..radius),
            );
            let mut nearest: Vec<(f64, u32)> = coords
                .iter()
                .enumerate()
                .map(|(i, p)| (p.dist2(&pt), i as u32))
                .collect();
            nearest.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for &(_, nbr) in nearest.iter().take(3) {
                b.push_edge(new_id, nbr, 1);
            }
            coords.push(pt);
        }
        let mut vweights = graph.node_weights().to_vec();
        vweights.extend(std::iter::repeat_n(1, k));
        let grown = b.node_weights(vweights).coords(coords).build().unwrap();
        GrowthResult {
            graph: grown,
            anchor,
        }
    }

    #[test]
    fn grid_lookup_is_bit_identical_to_the_linear_scan() {
        for (n, k, seed) in [(78, 10, 0), (118, 21, 5), (183, 45, 11), (309, 60, 42)] {
            let g = paper_graph(n);
            let fast = grow_local(&g, k, seed).unwrap();
            let slow = grow_local_reference(&g, k, seed);
            assert_eq!(fast.graph, slow.graph, "n={n} k={k} seed={seed}");
            assert_eq!(fast.anchor, slow.anchor);
        }
    }

    #[test]
    fn grid_lookup_handles_non_unit_square_coordinates() {
        // User-supplied .xy files are not confined to the unit square;
        // the grid must stay exact (and fast) when the domain is three
        // orders of magnitude wider than 1/√n.
        let g = paper_graph(118);
        let scaled: Vec<Point2> = g
            .coords()
            .unwrap()
            .iter()
            .map(|p| Point2::new(p.x * 1000.0, p.y * 1000.0))
            .collect();
        let mut b = GraphBuilder::with_nodes(118);
        for (u, v, w) in g.edges() {
            b.push_edge(u, v, w);
        }
        let big = b
            .node_weights(g.node_weights().to_vec())
            .coords(scaled)
            .build()
            .unwrap();
        let fast = grow_local(&big, 25, 9).unwrap();
        let slow = grow_local_reference(&big, 25, 9);
        assert_eq!(fast.graph, slow.graph);
    }

    #[test]
    fn requires_coordinates() {
        let g = crate::generators::gnp(20, 0.3, 1);
        assert_eq!(
            grow_local(&g, 5, 0).unwrap_err(),
            GraphError::MissingCoordinates
        );
        let empty = GraphBuilder::with_nodes(0)
            .coords(Vec::new())
            .build()
            .unwrap();
        assert_eq!(
            grow_local(&empty, 3, 0).unwrap_err(),
            GraphError::EmptyGraph
        );
    }

    #[test]
    fn zero_growth_is_identity_graph() {
        let g = paper_graph(78);
        let r = grow_local(&g, 0, 1).unwrap();
        assert_eq!(r.graph, g);
    }
}
