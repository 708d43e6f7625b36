//! Multilevel RSB (Barnard & Simon '92) — the "prior graph contraction
//! step" the paper recommends before partitioning large graphs — is
//! [`crate::RsbPartitioner`] on the coarsest graph of the generic V-cycle
//! in [`gapart_graph::multilevel`], which is how the registry builds
//! `mlrsb`. This module holds the tests of that composition.

#[cfg(test)]
mod tests {
    use crate::bisect::{rsb_partition, DEFAULT_SEED};
    use crate::RsbPartitioner;
    use gapart_graph::generators::{jittered_mesh, paper_graph};
    use gapart_graph::multilevel::{MultilevelConfig, MultilevelPartitioner};
    use gapart_graph::partition::PartitionMetrics;
    use gapart_graph::{CsrGraph, Partition, Partitioner};

    /// The seed multilevel RSB defaulted to before it became a plain
    /// registry composition ("MLRS").
    const ML_SEED: u64 = 0x4d4c_5253;

    /// RSB inside the default V-cycle, exactly as the registry builds
    /// `mlrsb`.
    fn mlrsb() -> MultilevelPartitioner {
        MultilevelPartitioner::new(Box::new(RsbPartitioner))
    }

    fn mlrsb_partition(g: &CsrGraph, parts: u32) -> Partition {
        mlrsb().partition(g, parts, ML_SEED).unwrap().partition
    }

    #[test]
    fn small_graph_degenerates_to_rsb_quality() {
        let g = paper_graph(144);
        let p = mlrsb_partition(&g, 4);
        let m = PartitionMetrics::compute(&g, &p);
        assert_eq!(m.part_loads.iter().sum::<u64>(), 144);
        assert!(m.total_cut > 0);
    }

    #[test]
    fn large_mesh_is_partitioned_with_bounded_imbalance() {
        let g = jittered_mesh(2000, 11);
        let p = mlrsb_partition(&g, 8);
        let m = PartitionMetrics::compute(&g, &p);
        let slack = MultilevelConfig::default().refine.balance_slack;
        let cap = (m.avg_load * (1.0 + slack)).ceil() as u64;
        for &l in &m.part_loads {
            assert!(l <= cap + 1, "load {l} vs cap {cap}");
        }
        // Mesh bisection-width heuristic: 8-way cut of a 2000-node mesh
        // should be well under 10% of edges.
        assert!(
            (m.total_cut as f64) < g.num_edges() as f64 * 0.15,
            "cut {} of {} edges",
            m.total_cut,
            g.num_edges()
        );
    }

    #[test]
    fn comparable_to_flat_rsb_on_medium_mesh() {
        let g = jittered_mesh(600, 3);
        let flat = rsb_partition(&g, 4, DEFAULT_SEED).unwrap();
        let ml = mlrsb_partition(&g, 4);
        let mf = PartitionMetrics::compute(&g, &flat);
        let mm = PartitionMetrics::compute(&g, &ml);
        // Multilevel should be in the same quality class (within 2x).
        assert!(
            mm.total_cut <= mf.total_cut * 2,
            "multilevel {} vs flat {}",
            mm.total_cut,
            mf.total_cut
        );
    }

    #[test]
    fn rejects_bad_part_counts() {
        let g = paper_graph(78);
        assert!(mlrsb().partition(&g, 0, ML_SEED).is_err());
        assert!(mlrsb().partition(&g, 100, ML_SEED).is_err());
    }

    #[test]
    fn deterministic() {
        let g = paper_graph(213);
        assert_eq!(mlrsb_partition(&g, 8), mlrsb_partition(&g, 8));
    }
}
