//! The unified partitioner abstraction.
//!
//! Every algorithm in the workspace — GA, DPGA, RSB, multilevel RSB and
//! IBP — implements [`Partitioner`], so the CLI, the bench runner, and
//! cross-implementation tests dispatch through one interface instead of
//! five ad-hoc call sites.
//!
//! # Contract
//!
//! For any implementation `p`:
//!
//! * **Determinism under seed** — `p.partition(g, k, s)` returns an
//!   identical [`PartitionReport`] every time it is called with the same
//!   graph, part count and seed, regardless of thread count or host.
//!   Algorithms without internal randomness (e.g. IBP) simply ignore the
//!   seed.
//! * **Validity** — on success, the returned partition has exactly
//!   `g.num_nodes()` labels, every label is `< num_parts`, and
//!   `metrics` was computed against `g`.
//! * **Balance is best-effort** — implementations drive
//!   `metrics.imbalance` (the paper's `Σ_q (load(q) − avg)²`; zero at
//!   perfect balance) toward 0 but the trait does not hard-fail
//!   unbalanced results; callers that need a guarantee check the report.
//!   See `docs/ARCHITECTURE.md` for the slack semantics.
//! * **Errors, not panics** — invalid inputs (zero parts, more parts than
//!   nodes, missing coordinates for geometric methods) surface as
//!   [`PartitionerError`].

use crate::partition::{Partition, PartitionMetrics};
use crate::CsrGraph;

/// Error raised by a [`Partitioner`] implementation.
///
/// Deliberately a plain message: the concrete error enums
/// (`GaError`, `RsbError`, `GraphError`, …) live in crates *above*
/// `gapart-graph`, so the shared trait flattens them at the boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionerError {
    message: String,
}

impl PartitionerError {
    /// Wraps any displayable error.
    pub fn new(message: impl std::fmt::Display) -> Self {
        PartitionerError {
            message: message.to_string(),
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for PartitionerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for PartitionerError {}

/// A partition plus the cost report every algorithm returns.
#[derive(Debug, Clone)]
pub struct PartitionReport {
    /// The node → part assignment.
    pub partition: Partition,
    /// Cost metrics of `partition` on the input graph: per-part loads and
    /// communication costs, total cut, worst cut, and imbalance.
    pub metrics: PartitionMetrics,
}

impl PartitionReport {
    /// Builds a report, computing the metrics against `graph`.
    pub fn new(graph: &CsrGraph, partition: Partition) -> Self {
        let metrics = PartitionMetrics::compute(graph, &partition);
        PartitionReport { partition, metrics }
    }
}

/// A graph-partitioning algorithm: graph + part count + seed in,
/// partition + cost report out. See the [module docs](self) for the
/// behavioural contract. An implementation carries no name: the
/// facade's `partitioners` registry names and configures every method.
pub trait Partitioner {
    /// Partitions `graph` into `num_parts` parts.
    ///
    /// `seed` fixes all internal randomness; implementations without
    /// randomness ignore it.
    ///
    /// # Errors
    ///
    /// [`PartitionerError`] on invalid input or algorithm failure; never
    /// panics on user-supplied graphs.
    fn partition(
        &self,
        graph: &CsrGraph,
        num_parts: u32,
        seed: u64,
    ) -> Result<PartitionReport, PartitionerError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::grid2d;
    use crate::generators::GridKind;

    /// A trivial in-crate implementation, proving the trait is object
    /// safe and usable without the algorithm crates.
    struct RoundRobin;

    impl Partitioner for RoundRobin {
        fn partition(
            &self,
            graph: &CsrGraph,
            num_parts: u32,
            _seed: u64,
        ) -> Result<PartitionReport, PartitionerError> {
            if num_parts == 0 || num_parts as usize > graph.num_nodes() {
                return Err(PartitionerError::new("bad part count"));
            }
            let p = Partition::round_robin(graph.num_nodes(), num_parts);
            Ok(PartitionReport::new(graph, p))
        }
    }

    #[test]
    fn trait_objects_dispatch() {
        let g = grid2d(6, 6, GridKind::FourConnected);
        let p: Box<dyn Partitioner> = Box::new(RoundRobin);
        let report = p.partition(&g, 4, 0).unwrap();
        assert_eq!(report.partition.num_nodes(), 36);
        // 36 nodes round-robin across 4 parts is perfectly balanced, and
        // imbalance is the paper's Σ (load − avg)² — zero at balance.
        assert!(report.metrics.imbalance.abs() < 1e-9);
        assert!(p.partition(&g, 0, 0).is_err());
    }

    #[test]
    fn error_formats_and_compares() {
        let e = PartitionerError::new("boom");
        assert_eq!(e.message(), "boom");
        assert_eq!(e.to_string(), "boom");
        assert_eq!(e, PartitionerError::new("boom"));
    }
}
