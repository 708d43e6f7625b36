//! Recursive Spectral Bisection — the paper's comparison baseline.
//!
//! RSB (Pothen, Simon & Liou; Simon '91) bisects a graph at the weighted
//! median of its Fiedler vector (the eigenvector of the second-smallest
//! Laplacian eigenvalue) and recurses on the halves. This crate implements:
//!
//! * [`laplacian()`] — the Laplacian `y = L x`, applied straight from a
//!   [`gapart_graph::CsrGraph`]'s rows.
//! * [`fiedler`] — the Fiedler vector via deflated Lanczos.
//! * [`bisect`] — median bisection and the full recursive partitioner,
//!   supporting any part count (not just powers of two) via proportional
//!   splits.
//! * [`RsbPartitioner`] — RSB behind the workspace's `Partitioner` trait.
//!
//! Barnard–Simon-style multilevel RSB — the "prior graph contraction
//! step" the paper recommends for large graphs — is this partitioner
//! inside the generic V-cycle of [`gapart_graph::multilevel`]: the
//! registry's `mlrsb`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bisect;
pub mod fiedler;
pub mod laplacian;
#[cfg(test)]
mod multilevel;
pub mod partitioner_impl;

pub use bisect::{rsb_partition, DEFAULT_SEED};
pub use fiedler::fiedler_vector;
pub use laplacian::laplacian;
pub use partitioner_impl::RsbPartitioner;

/// Errors from the spectral partitioning pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum RsbError {
    /// The eigensolver failed to produce a usable Fiedler vector.
    Eigensolver(String),
    /// `num_parts` was zero or exceeded the node count.
    BadPartCount {
        /// Requested number of parts.
        num_parts: u32,
        /// Number of nodes available.
        num_nodes: usize,
    },
}

impl std::fmt::Display for RsbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsbError::Eigensolver(msg) => write!(f, "eigensolver failure: {msg}"),
            RsbError::BadPartCount {
                num_parts,
                num_nodes,
            } => {
                write!(f, "cannot split {num_nodes} nodes into {num_parts} parts")
            }
        }
    }
}

impl std::error::Error for RsbError {}
