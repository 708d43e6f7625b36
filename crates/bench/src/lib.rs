//! Experiment harness: regenerates every table and figure of the SC'94
//! paper.
//!
//! * [`paper_data`] — the numbers the paper actually reports, transcribed
//!   from Tables 1–6, so every binary prints paper-vs-measured side by
//!   side.
//! * [`runner`] — the standard experimental protocol: DPGA (16
//!   subpopulations, total population 320, `p_c = 0.7`, `p_m = 0.01`),
//!   tables take the best of 5 runs, figures average 5 runs.
//! * [`table`] — plain-text table rendering for the experiment binaries,
//!   and [`table::PaperTable`], the one driver behind Tables 1–6.
//!
//! Binaries (run with `cargo run -p gapart-bench --release --bin <name>`):
//! the paper reproductions `table1` … `table6`, `figure1`,
//! `convergence`, `ablation` and `sweep`, plus `benchsuite`, the one
//! benchmark entry point, which writes the `BENCH_*.json` trajectory.
//!
//! Environment knobs (all optional): `GAPART_RUNS` (default 5),
//! `GAPART_GENS` (default 150), `GAPART_POP` (default 320), and
//! `GAPART_FAST=1` (shrinks everything for smoke tests).

pub mod json;
pub mod paper_data;
pub mod runner;
pub mod table;

pub use runner::{ExperimentProtocol, RunSummary};
