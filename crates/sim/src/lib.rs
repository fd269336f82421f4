//! Deterministic discrete-event simulation kernel for the AccelFlow
//! reproduction.
//!
//! This crate is the foundation substrate: the paper evaluates AccelFlow
//! with full-system simulation (QEMU + SST); we reproduce the evaluation
//! with a deterministic discrete-event simulator built on this kernel.
//!
//! The kernel is deliberately small and generic:
//!
//! - [`time`] — picosecond-resolution simulated time ([`SimTime`],
//!   [`SimDuration`]) and clock-frequency conversions ([`Frequency`]).
//! - [`engine`] — the event loop: an [`EventQueue`] delivers timestamped
//!   events to a handler closure, which schedules follow-ons on the same
//!   queue. Ties in time are broken by insertion order, so runs are
//!   exactly reproducible.
//! - [`rng`] — a seeded random-number source and the distributions used
//!   by the workload generators (exponential, log-normal, bounded
//!   Pareto, empirical).
//! - [`stats`] — streaming statistics: a log-bucketed latency
//!   [`Histogram`], counters, and busy-time (utilization) trackers.
//! - [`resource`] — helpers for modeling pools of identical servers
//!   (DMA engines, processing elements, CPU cores).
//! - [`snapshot`] — versioned checkpoint serialization: the
//!   [`Snapshot`](snapshot::Snapshot) trait and wire format behind
//!   `MachineRun::{snapshot,restore}` (see `docs/CHECKPOINT.md`).
//! - [`json`] — a small JSON reader/writer, shared by workload
//!   configuration files and Chrome-trace validation.
//! - [`telemetry`] — structured observability: component-keyed event
//!   records, windowed time-series sampling, and a Chrome `trace_event`
//!   exporter (see `docs/METRICS.md` for the metric glossary).
//!
//! # Example
//!
//! ```
//! use accelflow_sim::engine::EventQueue;
//! use accelflow_sim::time::{SimDuration, SimTime};
//!
//! enum Ev {
//!     Ping,
//! }
//!
//! let mut bounces = 0;
//! let mut queue = EventQueue::with_capacity(1);
//! queue.schedule(SimDuration::ZERO, Ev::Ping);
//! let forever = SimTime::from_picos(u64::MAX);
//! queue.run_until(forever, |_now, Ev::Ping, queue| {
//!     bounces += 1;
//!     if bounces < 10 {
//!         queue.schedule(SimDuration::from_nanos(5), Ev::Ping);
//!     }
//! });
//! assert_eq!(bounces, 10);
//! assert_eq!(queue.now(), SimTime::ZERO + SimDuration::from_nanos(45));
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod json;
mod keyheap;
pub mod resource;
pub mod rng;
pub mod slab;
pub mod snapshot;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use engine::EventQueue;
pub use rng::SimRng;
pub use stats::Histogram;
pub use telemetry::{CompId, CompKind, Record, RecordKind, Sampler, Telemetry, TelemetryReport};
pub use time::{Frequency, SimDuration, SimTime};
