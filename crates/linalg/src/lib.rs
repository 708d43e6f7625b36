//! Minimal linear algebra for the RSB baseline.
//!
//! The paper's main comparison baseline is Recursive Spectral Bisection
//! (Pothen–Simon–Liou), which needs the second-smallest eigenpair (the
//! Fiedler vector) of a graph Laplacian. This crate provides the required
//! substrate from scratch:
//!
//! * [`dense`] — the handful of dense vector kernels Lanczos needs.
//! * [`tridiag`] — implicit-QL eigensolver for symmetric tridiagonal
//!   matrices (the classic `tql2` algorithm), eigenvalues + eigenvectors.
//! * [`lanczos`] — Lanczos iteration with full reorthogonalization and
//!   optional deflation, returning the smallest eigenpairs of a symmetric
//!   operator given as a closure `y = A x` — RSB applies its Laplacian
//!   straight from the graph's own CSR rows, so this crate stores no
//!   matrix.
//!
//! Scope is deliberately limited to what spectral bisection needs; this is
//! not a general linear-algebra library.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod lanczos;
pub mod tridiag;

pub use lanczos::{lanczos_smallest, LanczosResult};
