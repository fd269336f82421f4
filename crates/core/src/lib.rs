//! The AccelFlow machine model and orchestration policies — the
//! paper's contribution, executable.
//!
//! This crate assembles the substrates (simulation kernel, hardware
//! models, trace library, accelerator stations) into a full server
//! model and implements every orchestration design the paper
//! evaluates:
//!
//! - [`policy`] — Non-acc, CPU-Centric, RELIEF (+ the Fig 13 ablation
//!   rungs), Cohort, AccelFlow (+ deadline scheduling), and Ideal.
//! - [`request`] — service specifications (Table IV paths) and the
//!   sampled request programs the machine executes.
//! - [`arrivals`] — the one draw loop every arrival generator calls, and
//!   the open-loop Poisson generator the machine's own runner uses.
//! - [`machine`] — the event-driven server: cores, the nine
//!   accelerator stations, A-DMA engines, the centralized manager, the
//!   ATM, overflow/fallback/timeout handling, multi-tenancy, and SLO
//!   deadlines.
//! - [`stats`] — run reports: latency percentiles, execution-time
//!   breakdowns, counters, utilization, and energy.
//! - [`audit`] — the invariant auditor the machine consults at every
//!   state transition (request/call conservation, queue bounds,
//!   monotonicity, ATM chain termination); always on in debug builds,
//!   opt-in via the `audit` feature for release runs.
//! - [`faults`] — seeded deterministic fault injection (stalls, DMA
//!   errors, TLB shootdowns, queue drops, ATM misses) and the recovery
//!   counters; see `docs/RESILIENCE.md`.
//! - [`control`] — online traffic control for open-loop load:
//!   per-tenant rate limiting, admission ceilings, SLO-window
//!   tracking, and the telemetry-feedback station autoscaler; see
//!   `docs/WORKLOADS.md`.
//! - [`cluster`] — a fleet of machines behind a two-level
//!   orchestrator: one shared event kernel, pluggable load balancers,
//!   an inter-node link model, and keep-alive health relocation; see
//!   `docs/CLUSTER.md`.
//!
//! Two observability layers ride along with the machine, both gated so
//! the disabled hot path costs a single branch:
//!
//! | Layer | Runtime switch | Cargo feature | Debug default |
//! |-------|----------------|---------------|---------------|
//! | invariant audit | [`MachineConfig::audit`] | `audit` | on |
//! | telemetry | [`MachineConfig::telemetry`] | `telemetry` | off |
//!
//! Telemetry records land in
//! [`RunReport::telemetry`](stats::RunReport::telemetry) and export to
//! a Perfetto-loadable Chrome trace; `docs/METRICS.md` defines every
//! metric and record, and DESIGN.md §7 describes the machinery.

#![warn(missing_docs)]

pub mod arrivals;
pub mod audit;
pub mod cluster;
pub mod control;
pub mod faults;
pub mod machine;
pub mod policy;
pub mod request;
pub mod stats;

pub use arrivals::{poisson_arrivals, Arrival, BUFFER_POOL, MAX_RATE_RPS};
pub use audit::{AuditReport, Auditor, Violation};
pub use cluster::{BalancerKind, Cluster, ClusterConfig, ClusterReport, NodeLink};
pub use control::{AutoscalerConfig, ControlConfig, ControlStats, RateLimit, SloTarget};
pub use faults::{FaultClass, FaultConfig, FaultStats};
pub use machine::{Machine, MachineConfig};
pub use policy::Policy;
pub use request::{
    CallSpec, CallView, CyclesDist, ExternalSpec, FlagProbs, Program, SegmentEnd, SegmentView,
    ServiceId, ServiceSpec, SizeDist, StageSpec,
};
pub use stats::{Breakdown, MachineTotals, RunReport, ServiceStats};
