//! The SC'94 contribution: genetic algorithms for graph partitioning and
//! incremental graph partitioning.
//!
//! This crate implements everything in §3 of the paper:
//!
//! * [`population`] — the vector representation (an individual's gene
//!   `i` is the part of node `i`), population containers and the seeding
//!   strategies of §3.5 (balanced-random, heuristic-seeded, incremental
//!   reuse).
//! * [`fitness`] — Fitness 1 (total communication cost) and Fitness 2
//!   (worst-part communication cost), plus an incremental-move evaluator.
//! * [`ops`] — crossover operators: 1-point, 2-point, k-point, uniform
//!   (UX), and the paper's **KNUX** and **DKNUX**; plus mutation.
//! * [`selection`] — binary tournament selection.
//! * [`hillclimb`] — boundary-vertex hill climbing (§3.6).
//! * [`engine`] — the single-population generational GA.
//! * [`dpga`] — the coarse-grained distributed-population GA (§3.4):
//!   subpopulations on a hypercube (or a ring or complete graph)
//!   exchanging their best individuals, executed on real threads in
//!   deterministic lockstep.
//! * [`incremental`] — incremental repartitioning (§3.5, §4.2) plus the
//!   greedy neighbour-majority baseline the conclusion mentions.
//! * [`dynamic`] — the streaming generalization: a [`DynamicSession`]
//!   maintains a partition across mutation batches with localized
//!   refinement and threshold-triggered full repartitions.
//! * [`topology`] — the DPGA communication topologies.
//! * [`history`] — per-generation convergence records (the paper's
//!   figures average these over 5 runs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dpga;
pub mod dynamic;
pub mod engine;
pub mod error;
pub mod fitness;
pub mod hillclimb;
pub mod history;
pub mod incremental;
pub mod ops;
pub mod partitioner_impl;
pub mod population;
pub mod selection;
pub mod topology;

pub use dpga::{DpgaConfig, DpgaEngine, DpgaResult};
pub use dynamic::{
    BatchAction, BatchRecord, DynamicError, DynamicSession, MethodResolver, SessionSpec,
    SessionState, SpecError, DEFAULT_SESSION_SEED,
};
pub use engine::{GaConfig, GaEngine, GaResult, HillClimbMode};
pub use error::GaError;
pub use fitness::{FitnessEvaluator, FitnessKind};
pub use history::ConvergenceHistory;
pub use ops::crossover::CrossoverOp;
pub use partitioner_impl::{DpgaPartitioner, GaPartitioner};
pub use population::InitStrategy;
pub use topology::Topology;
