//! Index-Based Partitioning — the paper's appendix algorithm (Ou, Ranka &
//! Fox).
//!
//! IBP has three phases: **indexing** (map each vertex's N-dimensional
//! coordinate to a one-dimensional index that preserves spatial
//! proximity), **sorting** (order vertices by index), and **coloring**
//! (cut the sorted list into `P` equal sublists). The paper uses it to
//! seed the GA population for Table 1.
//!
//! * [`interleave`] — bit interleaving, including the generalized
//!   unequal-width scheme worked through in the appendix.
//! * [`index`] — row-major and shuffled row-major (Morton / Z-order)
//!   indexing of grid coordinates, plus the exact 8×8 matrices of the
//!   paper's Figure 1.
//! * [`partition`] — the full pipeline from a coordinate-carrying graph to
//!   a [`gapart_graph::Partition`], indexing by shuffled row-major.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod interleave;
pub mod partition;
pub mod partitioner_impl;

pub use index::{figure1_row_major, figure1_shuffled, IndexScheme};
pub use partition::ibp_partition;
pub use partitioner_impl::IbpPartitioner;
