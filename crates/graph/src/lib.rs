//! Graph substrate for the SC'94 GA graph-partitioning reproduction.
//!
//! This crate provides everything the partitioners need from a graph:
//!
//! * [`CsrGraph`] — a compressed-sparse-row undirected graph with optional
//!   integer vertex/edge weights and optional 2-D vertex coordinates (the
//!   paper's test graphs model physical computational domains, and the
//!   index-based partitioner in the paper's appendix requires coordinates).
//! * [`GraphBuilder`] — safe, validated construction from edge lists.
//! * [`generators`] — deterministic synthetic workloads, including the
//!   [`generators::paper_graph`] suite that reproduces the node counts used
//!   in the paper's Tables 1–6 (78 … 309 nodes).
//! * [`incremental`] — the paper's incremental-update model: grow the graph
//!   by adding nodes "in a local area chosen randomly" (§4.2).
//! * [`dynamic`] — the streaming generalization of that model: mutation
//!   logs (add-node / add-edge / weight change) with cheap incremental
//!   CSR rebuild, dirty-region tracking, a text trace format, and
//!   deterministic stream-scenario generators.
//! * [`partition`] — the [`partition::Partition`] type plus every metric the
//!   paper reports: per-part communication cost `C(q)`, total cut
//!   `Σ C(q)/2`, worst cut `max C(q)`, and load imbalance `I(q)`.
//! * [`traversal`] — BFS, connected components.
//! * [`coarsen`] — rated-edge-matching contraction (the "prior graph
//!   contraction step" the paper recommends for large graphs).
//! * [`multilevel`] — the generic multilevel V-cycle:
//!   [`multilevel::MultilevelPartitioner`] wraps *any* [`Partitioner`]
//!   with coarsen → partition → project + refine.
//! * [`refine`] — the options and stats of a refinement run.
//! * [`fm`] — the boundary-driven k-way Fiduccia–Mattheyses refiner
//!   (gain buckets, hill-climbing rollback) the V-cycle runs after each
//!   projection.
//! * [`io`] — METIS-compatible text format with a coordinate extension.
//!
//! The representation is deliberately minimal and cache-friendly: node ids
//! are `u32`, adjacency is a flat CSR array, and all algorithms iterate
//! slices rather than chasing pointers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod coarsen;
pub mod csr;
pub mod dynamic;
pub mod error;
pub mod fm;
pub mod generators;
pub mod geometry;
pub mod incremental;
pub mod io;
pub mod multilevel;
pub mod partition;
pub mod partitioner;
pub mod refine;
pub mod subgraph;
pub mod svg;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use dynamic::{DirtyRegion, Mutation, MutationLog};
pub use error::GraphError;
pub use geometry::Point2;
pub use multilevel::{MultilevelConfig, MultilevelPartitioner};
pub use partition::{Partition, PartitionMetrics};
pub use partitioner::{PartitionReport, Partitioner, PartitionerError};
