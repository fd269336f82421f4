//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (see DESIGN.md §4 for the full index).
//!
//! The `experiments` binary (`src/bin/experiments/`) holds one registry
//! entry per table or figure; `experiments <id>` prints its
//! paper-vs-measured comparison. The simulator's benchmark is the
//! separate `perfbench/` package (see `docs/BENCHMARKS.md`).
//!
//! - [`harness`] — standard run configurations, the max-throughput
//!   (SLO-bounded) search, and experiment plumbing.
//! - [`sweep`] — the parallel sweep runner: independent simulations
//!   fan out across worker threads (`ACCELFLOW_THREADS`), results come
//!   back in deterministic input order.
//! - [`table`] — plain-text table rendering for experiment output.
//! - [`paper`] — the numbers the paper reports, as constants, so every
//!   experiment can print paper-vs-measured side by side.

#![warn(missing_docs)]

pub mod harness;
pub mod paper;
pub mod sweep;
pub mod table;
