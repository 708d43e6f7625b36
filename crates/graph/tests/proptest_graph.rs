//! Property-based tests for the graph substrate.

use gapart_graph::builder::GraphBuilder;
use gapart_graph::coarsen::{coarsen_hem, coarsen_to, project_through};
use gapart_graph::generators::{gnp, grid2d, jittered_mesh, random_geometric, GridKind};
use gapart_graph::geometry::{bounding_box, quantize, Point2};
use gapart_graph::incremental::grow_local;
use gapart_graph::io::{coords_from_text, coords_to_text, from_metis, to_metis};
use gapart_graph::partition::{boundary_nodes, cut_size, Partition, PartitionMetrics};
use gapart_graph::traversal::{bfs_distances, bfs_order, connected_components, is_connected};
use proptest::prelude::*;

/// Strategy: a random simple graph as (n, edges).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..60).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32).prop_filter("no self-loops", |(u, v)| u != v);
        (Just(n), proptest::collection::vec(edge, 0..(n * 3)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_produces_valid_csr((n, edges) in arb_graph()) {
        let g = GraphBuilder::with_nodes(n).edges(edges.iter().copied()).build().unwrap();
        prop_assert!(g.validate().is_ok());
        // Degree sum = 2 |E|.
        let deg_sum: usize = (0..n as u32).map(|v| g.degree(v)).sum();
        prop_assert_eq!(deg_sum, 2 * g.num_edges());
        // Every listed edge exists, symmetrically.
        for &(u, v) in &edges {
            prop_assert!(g.has_edge(u, v));
            prop_assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn metis_round_trip_arbitrary((n, edges) in arb_graph()) {
        let g = GraphBuilder::with_nodes(n).edges(edges.iter().copied()).build().unwrap();
        let g2 = from_metis(&to_metis(&g)).unwrap();
        prop_assert_eq!(g.xadj(), g2.xadj());
        prop_assert_eq!(g.adjncy(), g2.adjncy());
        prop_assert_eq!(g.eweights(), g2.eweights());
    }

    #[test]
    fn metis_round_trip_weighted(
        (n, edges) in arb_graph(),
        wseed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(wseed);
        let weighted: Vec<(u32, u32, u32)> = edges
            .iter()
            .map(|&(u, v)| (u, v, rng.gen_range(1..100)))
            .collect();
        let vw: Vec<u32> = (0..n).map(|_| rng.gen_range(1..50)).collect();
        let g = GraphBuilder::with_nodes(n)
            .weighted_edges(weighted)
            .node_weights(vw)
            .build()
            .unwrap();
        let g2 = from_metis(&to_metis(&g)).unwrap();
        prop_assert_eq!(g.eweights(), g2.eweights());
        prop_assert_eq!(g.node_weights(), g2.node_weights());
    }

    /// Contraction sums node and edge weights, so a partition of any
    /// coarse level has *exactly* the same cut and loads as its lifted
    /// fine partition — the invariant `coarsen.rs` documents and the
    /// multilevel V-cycle's refinement correctness rests on.
    #[test]
    fn projection_preserves_partition_cost_exactly(
        (n, edges) in arb_graph(),
        parts in 2u32..6,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let g = GraphBuilder::with_nodes(n).edges(edges.iter().copied()).build().unwrap();
        let target = (n / 3).max(2);
        let levels = coarsen_to(&g, target, seed);
        let coarsest = levels.last().map_or(&g, |l| &l.coarse);

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x6c69_6674);
        let labels: Vec<u32> = (0..coarsest.num_nodes()).map(|_| rng.gen_range(0..parts)).collect();
        let cp = Partition::new(labels, parts).unwrap();

        // Through the whole stack at once…
        let fp = project_through(&levels, &cp);
        prop_assert_eq!(fp.num_nodes(), n);
        prop_assert_eq!(cut_size(coarsest, &cp), cut_size(&g, &fp));
        let mc = PartitionMetrics::compute(coarsest, &cp);
        let mf = PartitionMetrics::compute(&g, &fp);
        prop_assert_eq!(mc.part_loads, mf.part_loads);
        prop_assert_eq!(mc.part_cuts, mf.part_cuts);
        prop_assert_eq!(mc.max_cut, mf.max_cut);

        // …and one level at a time, each hop preserving the cut.
        let mut p = cp;
        let mut cut = cut_size(coarsest, &p);
        for (i, level) in levels.iter().enumerate().rev() {
            p = level.project(&p);
            let fine = if i == 0 { &g } else { &levels[i - 1].coarse };
            let fine_cut = cut_size(fine, &p);
            prop_assert_eq!(cut, fine_cut, "cut changed at level {}", i);
            cut = fine_cut;
        }
    }

    /// The parallel handshake matching is a valid contraction on any
    /// graph: every merge group has 1–2 members, merged pairs are
    /// adjacent, node weight is conserved, and the whole stack is
    /// bit-identical across forced pool sizes.
    #[test]
    fn parallel_matching_is_a_valid_contraction(
        (n, edges) in arb_graph(),
        seed in any::<u64>(),
    ) {
        let g = GraphBuilder::with_nodes(n).edges(edges.iter().copied()).build().unwrap();
        let c = coarsen_hem(&g, seed);
        prop_assert!(c.coarse.validate().is_ok());
        prop_assert_eq!(c.coarse.total_node_weight(), g.total_node_weight());
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); c.coarse.num_nodes()];
        for (v, &cv) in c.map.iter().enumerate() {
            groups[cv as usize].push(v as u32);
        }
        for group in &groups {
            prop_assert!(!group.is_empty() && group.len() <= 2, "group {:?}", group);
            if let [a, b] = group[..] {
                prop_assert!(g.has_edge(a, b), "merged non-adjacent {},{}", a, b);
            }
        }
        // Pool-size independence of the full multi-level stack.
        let reference = coarsen_to(&g, 2, seed);
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let run = pool.install(|| coarsen_to(&g, 2, seed));
            prop_assert_eq!(run.len(), reference.len());
            for (a, b) in run.iter().zip(&reference) {
                prop_assert_eq!(&a.map, &b.map);
                prop_assert_eq!(&a.coarse, &b.coarse);
            }
        }
    }

    #[test]
    fn components_partition_the_nodes((n, edges) in arb_graph()) {
        let g = GraphBuilder::with_nodes(n).edges(edges.iter().copied()).build().unwrap();
        let (comp, count) = connected_components(&g);
        prop_assert_eq!(comp.len(), n);
        // Component ids are dense 0..count.
        let max = comp.iter().copied().max().unwrap() as usize;
        prop_assert_eq!(max + 1, count);
        // Endpoints of every edge share a component.
        for (u, v, _) in g.edges() {
            prop_assert_eq!(comp[u as usize], comp[v as usize]);
        }
        // BFS from node 0 visits exactly node 0's component.
        let order = bfs_order(&g, 0);
        let c0 = comp[0];
        let expected = comp.iter().filter(|&&c| c == c0).count();
        prop_assert_eq!(order.len(), expected);
    }

    #[test]
    fn bfs_distances_satisfy_triangle_on_edges((n, edges) in arb_graph()) {
        let g = GraphBuilder::with_nodes(n).edges(edges.iter().copied()).build().unwrap();
        let dist = bfs_distances(&g, 0);
        for (u, v, _) in g.edges() {
            let (du, dv) = (dist[u as usize], dist[v as usize]);
            if du != usize::MAX && dv != usize::MAX {
                prop_assert!(du.abs_diff(dv) <= 1, "edge ({u},{v}): {du} vs {dv}");
            } else {
                prop_assert_eq!(du, dv); // both unreachable
            }
        }
    }

    #[test]
    fn metrics_identities(
        (n, edges) in arb_graph(),
        parts in 1u32..6,
        pseed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let g = GraphBuilder::with_nodes(n).edges(edges.iter().copied()).build().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(pseed);
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..parts)).collect();
        let p = Partition::new(labels, parts).unwrap();
        let m = PartitionMetrics::compute(&g, &p);
        // Loads sum to total node weight.
        prop_assert_eq!(m.part_loads.iter().sum::<u64>(), g.total_node_weight());
        // Directed cuts sum to exactly twice the total cut.
        prop_assert_eq!(m.part_cuts.iter().sum::<u64>(), 2 * m.total_cut);
        // max_cut is the max entry.
        prop_assert_eq!(m.max_cut, m.part_cuts.iter().copied().max().unwrap_or(0));
        // cut_size agrees.
        prop_assert_eq!(cut_size(&g, &p), m.total_cut);
        // Boundary nodes: a node is boundary iff it has a cross edge.
        let b = boundary_nodes(&g, &p);
        for v in 0..n as u32 {
            let is_boundary = g.neighbors(v).iter().any(|&u| p.part(u) != p.part(v));
            prop_assert_eq!(b.contains(&v), is_boundary);
        }
    }

    #[test]
    fn coarsening_conserves_weight_and_cut(
        n in 4usize..120,
        seed in any::<u64>(),
        parts in 2u32..5,
    ) {
        let g = jittered_mesh(n, seed);
        let c = coarsen_hem(&g, seed ^ 1);
        prop_assert_eq!(c.coarse.total_node_weight(), g.total_node_weight());
        // A coarse partition's metrics equal the projected fine metrics.
        let cp = Partition::round_robin(c.coarse.num_nodes(), parts);
        let fp = c.project(&cp);
        let mc = PartitionMetrics::compute(&c.coarse, &cp);
        let mf = PartitionMetrics::compute(&g, &fp);
        prop_assert_eq!(mc.total_cut, mf.total_cut);
        prop_assert_eq!(mc.part_loads, mf.part_loads);
    }

    #[test]
    fn multilevel_projection_preserves_cut(
        n in 50usize..300,
        seed in any::<u64>(),
    ) {
        let g = jittered_mesh(n, seed);
        let levels = coarsen_to(&g, 20, seed);
        if let Some(last) = levels.last() {
            let cp = Partition::blocks(last.coarse.num_nodes(), 2);
            let fp = project_through(&levels, &cp);
            prop_assert_eq!(cut_size(&last.coarse, &cp), cut_size(&g, &fp));
        }
    }

    #[test]
    fn grow_local_preserves_prefix(
        n in 10usize..150,
        k in 0usize..40,
        seed in any::<u64>(),
    ) {
        let g = jittered_mesh(n, seed);
        let r = grow_local(&g, k, seed ^ 2).unwrap();
        prop_assert_eq!(r.graph.num_nodes(), n + k);
        prop_assert!(is_connected(&r.graph));
        for (u, v, w) in g.edges() {
            prop_assert_eq!(r.graph.edge_weight(u, v), Some(w));
        }
    }

    #[test]
    fn generators_emit_valid_graphs(
        n in 1usize..150,
        seed in any::<u64>(),
        p in 0.0f64..0.4,
    ) {
        let mesh = jittered_mesh(n, seed);
        prop_assert!(mesh.validate().is_ok());
        let er = gnp(n, p, seed);
        prop_assert!(er.validate().is_ok());
        let geo = random_geometric(n, 0.15, seed);
        prop_assert!(geo.validate().is_ok());
        prop_assert!(is_connected(&geo));
    }

    #[test]
    fn grid_is_connected_and_valid(
        rows in 1usize..12,
        cols in 1usize..12,
        kind_idx in 0usize..3,
    ) {
        let kind = [GridKind::FourConnected, GridKind::Triangulated, GridKind::EightConnected][kind_idx];
        let g = grid2d(rows, cols, kind);
        prop_assert!(g.validate().is_ok());
        prop_assert!(is_connected(&g));
        prop_assert_eq!(g.num_nodes(), rows * cols);
    }

    #[test]
    fn quantize_stays_in_range(
        pts in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 1..50),
        resolution in 1u32..64,
    ) {
        let pts: Vec<Point2> = pts.into_iter().map(|(x, y)| Point2::new(x, y)).collect();
        let cells = quantize(&pts, resolution);
        prop_assert_eq!(cells.len(), pts.len());
        for &(cx, cy) in &cells {
            prop_assert!(cx < resolution && cy < resolution);
        }
        let (lo, hi) = bounding_box(&pts).unwrap();
        prop_assert!(lo.x <= hi.x && lo.y <= hi.y);
    }

    #[test]
    fn coords_io_round_trip(
        pts in proptest::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 0..40),
    ) {
        let pts: Vec<Point2> = pts.into_iter().map(|(x, y)| Point2::new(x, y)).collect();
        let parsed = coords_from_text(&coords_to_text(&pts)).unwrap();
        prop_assert_eq!(parsed, pts);
    }
}
