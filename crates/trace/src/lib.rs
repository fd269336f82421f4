//! The AccelFlow trace programming model (paper §IV–§V).
//!
//! A **trace** is a software structure built by a CPU core that encodes
//! a sequence of accelerator invocations, optionally interleaved with
//! **branch conditions** (resolved on the fly by output dispatchers,
//! without CPU involvement), **data-format transformations**, and — in
//! its tail — the address of a follow-on trace in the **Accelerator
//! Trace Memory (ATM)**.
//!
//! This crate contains everything about traces that is independent of
//! the machine model:
//!
//! - [`kind`] — the nine accelerator kinds of the ensemble.
//! - [`cond`] — branch conditions and the payload flags they test.
//! - [`mod@format`] — data formats and transformation descriptors.
//! - [`ir`] — the trace intermediate representation and its
//!   *interpreter*: the pure `advance` function that output dispatchers
//!   execute (resolve branches, apply transforms, find the next
//!   accelerator).
//! - [`packed`] — the compact binary (nibble-stream) encoding; simple
//!   traces fit the paper's 8-byte budget (4 bits per accelerator).
//! - [`snapshot`] — checkpoint serialization of the trace IR (the
//!   `Snapshot` impls behind `MachineRun::{snapshot,restore}`; see
//!   `docs/CHECKPOINT.md`).
//! - [`builder`] — the paper's programming API: `seq` / `branch` /
//!   `trans` (Listing 1).
//! - [`atm`] — the Accelerator Trace Memory.
//! - [`compiler`] — automated trace synthesis from observed paths
//!   (the paper's stated future work).
//! - [`viz`] — text rendering of traces (Figures 2/4/7 as ASCII).
//! - [`templates`] — the paper's complete trace library T1–T12
//!   (Table II, Figs 2/4/7) and the Table I connectivity matrix derived
//!   from it.
//!
//! # Example: building Fig 4a's trace (T1)
//!
//! ```
//! use accelflow_trace::builder::TraceBuilder;
//! use accelflow_trace::cond::BranchCond;
//! use accelflow_trace::format::DataFormat;
//! use accelflow_trace::kind::AccelKind::*;
//!
//! let trace = TraceBuilder::new("func_req")
//!     .seq([Tcp, Decr, Rpc, Dser])
//!     .branch(
//!         BranchCond::Compressed,
//!         |t| t.trans(DataFormat::Json, DataFormat::Str).seq([Dcmp]),
//!         |t| t,
//!     )
//!     .seq([Ldb])
//!     .to_cpu()
//!     .build();
//! assert_eq!(trace.accelerator_count(), 6); // Tcp Decr Rpc Dser Dcmp Ldb
//! ```

#![warn(missing_docs)]

pub mod atm;
pub mod builder;
pub mod compiler;
pub mod cond;
pub mod format;
pub mod ir;
pub mod kind;
pub mod packed;
pub mod snapshot;
pub mod templates;
pub mod viz;

pub use atm::{Atm, AtmAddr};
pub use builder::TraceBuilder;
pub use cond::{BranchCond, PayloadFlags};
pub use format::DataFormat;
pub use ir::{Advance, GlueAction, Next, PositionMark, Slot, Trace};
pub use kind::AccelKind;
pub use templates::{TemplateId, TraceLibrary};
