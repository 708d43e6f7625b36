//! [`Partitioner`] implementation for RSB.

use crate::bisect::rsb_partition;
use gapart_graph::partitioner::{PartitionReport, Partitioner, PartitionerError};
use gapart_graph::CsrGraph;

/// Recursive spectral bisection as a [`Partitioner`].
///
/// The trait's `seed` argument is RSB's seed, so a single instance
/// serves any number of seeded runs. Wrapped in
/// [`gapart_graph::multilevel::MultilevelPartitioner`] it is the
/// registry's multilevel RSB, `mlrsb`.
#[derive(Debug, Clone, Default)]
pub struct RsbPartitioner;

impl Partitioner for RsbPartitioner {
    fn partition(
        &self,
        graph: &CsrGraph,
        num_parts: u32,
        seed: u64,
    ) -> Result<PartitionReport, PartitionerError> {
        let p = rsb_partition(graph, num_parts, seed).map_err(PartitionerError::new)?;
        Ok(PartitionReport::new(graph, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapart_graph::generators::jittered_mesh;
    use gapart_graph::multilevel::MultilevelPartitioner;

    #[test]
    fn both_implementations_satisfy_the_contract() {
        let g = jittered_mesh(80, 3);
        let mlrsb = MultilevelPartitioner::new(Box::new(RsbPartitioner));
        for (name, p) in [
            ("rsb", Box::new(RsbPartitioner) as Box<dyn Partitioner>),
            ("mlrsb", Box::new(mlrsb)),
        ] {
            let a = p.partition(&g, 4, 11).unwrap();
            let b = p.partition(&g, 4, 11).unwrap();
            assert_eq!(a.partition, b.partition, "{name} not deterministic");
            assert_eq!(a.partition.num_nodes(), 80);
            assert!(a.partition.labels().iter().all(|&l| l < 4));
            assert!(p.partition(&g, 0, 11).is_err());
        }
    }
}
