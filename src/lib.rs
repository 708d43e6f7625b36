//! # gapart — Genetic Algorithms for Graph Partitioning
//!
//! Facade crate for the reproduction of Maini, Mehrotra, Mohan & Ranka,
//! *"Genetic Algorithms for Graph Partitioning and Incremental Graph
//! Partitioning"*, Proc. IEEE Supercomputing 1994.
//!
//! This crate re-exports the workspace's public API:
//!
//! * [`graph`] — CSR graphs, generators (including the paper's suite),
//!   incremental local growth, partition metrics.
//! * [`linalg`] — dense vector kernels, the tridiagonal eigensolver and
//!   Lanczos over an operator closure.
//! * [`rsb`] — the recursive-spectral-bisection baseline.
//! * [`ibp`] — the index-based partitioner from the paper's appendix.
//! * [`core`] — the paper's contribution: the GA partitioner with KNUX and
//!   DKNUX crossover, DPGA distributed populations, hill climbing, and
//!   incremental repartitioning.
//! * [`serve`] — the multi-session partition daemon behind
//!   `gapart-cli serve`: session protocol, durable session tape, crash
//!   recovery.
//!
//! ## Quickstart
//!
//! ```
//! use gapart::graph::generators::paper_graph;
//! use gapart::core::{GaConfig, GaEngine, FitnessKind};
//!
//! let graph = paper_graph(78);
//! let config = GaConfig::paper_defaults(4)      // 4 parts, paper's DPGA params
//!     .with_generations(60)
//!     .with_seed(42);
//! let result = GaEngine::new(&graph, config).unwrap().run();
//! assert!(result.best_metrics.total_cut > 0);
//! let _ = FitnessKind::TotalCut;
//! ```
//!
//! Every algorithm is also reachable through the unified
//! [`graph::partitioner::Partitioner`] trait via the [`partitioners`]
//! registry — the one place a method is named and configured, and the
//! dispatch path of the CLI's `--method` flag:
//!
//! ```
//! use gapart::graph::generators::paper_graph;
//! use gapart::partitioners;
//!
//! let graph = paper_graph(78);
//! assert!(partitioners::NAMES.contains(&"rsb"));
//! let rsb = partitioners::by_name("rsb").unwrap();
//! let report = rsb.partition(&graph, 4, 42).unwrap();
//! assert_eq!(report.partition.num_nodes(), 78);
//! assert!(report.metrics.total_cut > 0);
//! ```

pub use gapart_core as core;
pub use gapart_graph as graph;
pub use gapart_ibp as ibp;
pub use gapart_linalg as linalg;
pub use gapart_rsb as rsb;
pub use gapart_serve as serve;

pub mod cli;
pub mod partitioners;
