//! [`Partitioner`] implementations for the GA and DPGA engines.

use crate::dpga::{DpgaConfig, DpgaEngine};
use crate::engine::{GaConfig, GaEngine};
use gapart_graph::partitioner::{PartitionReport, Partitioner, PartitionerError};
use gapart_graph::CsrGraph;

/// The single-population GA as a [`Partitioner`].
///
/// Holds a [`GaConfig`] template; each call clones it and overrides
/// `num_parts` and `seed` with the trait arguments, so one instance
/// serves any part count and any number of seeded runs.
#[derive(Debug, Clone)]
pub struct GaPartitioner {
    /// Template configuration (part count and seed are per-call).
    pub config: GaConfig,
}

impl GaPartitioner {
    /// Partitioner from an explicit configuration template.
    pub fn new(config: GaConfig) -> Self {
        GaPartitioner { config }
    }
}

impl Partitioner for GaPartitioner {
    fn partition(
        &self,
        graph: &CsrGraph,
        num_parts: u32,
        seed: u64,
    ) -> Result<PartitionReport, PartitionerError> {
        let mut config = self.config.clone();
        config.num_parts = num_parts;
        config.seed = seed;
        let result = GaEngine::new(graph, config)
            .map_err(PartitionerError::new)?
            .run();
        Ok(PartitionReport {
            partition: result.best_partition,
            metrics: result.best_metrics,
        })
    }
}

/// The distributed-population GA as a [`Partitioner`].
///
/// Holds a [`DpgaConfig`] template; each call overrides the base config's
/// `num_parts` and `seed` with the trait arguments.
#[derive(Debug, Clone)]
pub struct DpgaPartitioner {
    /// Template configuration (part count and seed are per-call).
    pub config: DpgaConfig,
}

impl DpgaPartitioner {
    /// Partitioner from an explicit configuration template.
    pub fn new(config: DpgaConfig) -> Self {
        DpgaPartitioner { config }
    }
}

impl Partitioner for DpgaPartitioner {
    fn partition(
        &self,
        graph: &CsrGraph,
        num_parts: u32,
        seed: u64,
    ) -> Result<PartitionReport, PartitionerError> {
        let mut config = self.config.clone();
        config.base.num_parts = num_parts;
        config.base.seed = seed;
        let result = DpgaEngine::new(graph, config)
            .map_err(PartitionerError::new)?
            .run();
        Ok(PartitionReport {
            partition: result.best_partition,
            metrics: result.best_metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapart_graph::generators::paper_graph;

    fn small_ga() -> GaPartitioner {
        GaPartitioner::new(
            GaConfig::paper_defaults(2)
                .with_population_size(32)
                .with_generations(10),
        )
    }

    fn small_dpga() -> DpgaPartitioner {
        DpgaPartitioner::new(DpgaConfig {
            topology: crate::topology::Topology::Hypercube(2),
            ..DpgaConfig::paper(2).with_base(small_ga().config)
        })
    }

    #[test]
    fn trait_runs_are_deterministic_and_valid() {
        let g = paper_graph(78);
        for (name, p) in [
            ("ga", Box::new(small_ga()) as Box<dyn Partitioner>),
            ("dpga", Box::new(small_dpga())),
        ] {
            let a = p.partition(&g, 4, 77).unwrap();
            let b = p.partition(&g, 4, 77).unwrap();
            assert_eq!(a.partition, b.partition, "{name} not deterministic");
            assert_eq!(a.partition.num_nodes(), 78);
            assert!(a.partition.labels().iter().all(|&l| l < 4));
            assert!(a.metrics.total_cut > 0);
            assert!(p.partition(&g, 0, 77).is_err(), "{name}");
        }
    }

    #[test]
    fn template_part_count_is_overridden() {
        // The template says 2 parts; the call says 5.
        let g = paper_graph(78);
        let report = small_ga().partition(&g, 5, 3).unwrap();
        assert_eq!(report.partition.num_parts(), 5);
        assert_eq!(report.metrics.part_loads.len(), 5);
    }
}
