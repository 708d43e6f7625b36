//! [`Partitioner`] implementation for the index-based partitioner.

use crate::partition::ibp_partition;
use gapart_graph::partitioner::{PartitionReport, Partitioner, PartitionerError};
use gapart_graph::CsrGraph;

/// The paper's appendix IBP as a [`Partitioner`].
///
/// IBP is fully determined by vertex coordinates — it has no internal
/// randomness — so the trait's `seed` argument is ignored. Graphs without
/// coordinates are rejected with a [`PartitionerError`].
#[derive(Debug, Clone, Default)]
pub struct IbpPartitioner;

impl Partitioner for IbpPartitioner {
    fn partition(
        &self,
        graph: &CsrGraph,
        num_parts: u32,
        _seed: u64,
    ) -> Result<PartitionReport, PartitionerError> {
        let p = ibp_partition(graph, num_parts).map_err(PartitionerError::new)?;
        Ok(PartitionReport::new(graph, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapart_graph::generators::{gnp, jittered_mesh};

    #[test]
    fn seed_is_irrelevant_and_coordinates_required() {
        let g = jittered_mesh(60, 9);
        let p = IbpPartitioner;
        let a = p.partition(&g, 4, 1).unwrap();
        let b = p.partition(&g, 4, 2).unwrap();
        assert_eq!(a.partition, b.partition);

        let no_coords = gnp(30, 0.2, 1);
        assert!(p.partition(&no_coords, 4, 0).is_err());
    }
}
