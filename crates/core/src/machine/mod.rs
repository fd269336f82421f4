//! The machine model: a 36-core server with the nine-accelerator
//! ensemble, executing sampled request programs under any of the ten
//! orchestration policies (paper §III, §IV, §VI).
//!
//! The machine is a discrete-event model driven by the
//! [`cluster`](crate::cluster) layer's one run loop: a bare run is a
//! one-node fleet over a zero-cost link ([`MachineRun`]). Requests arrive as
//! network messages; their programs interleave app-logic stages on the
//! core pool with trace calls over the accelerator stations. What
//! differs between policies is purely *how control and data move
//! between hops*:
//!
//! - **AccelFlow family** — output dispatchers walk the trace (glue
//!   instructions at the dispatcher clock), resolve branches, transform
//!   data, read the ATM, and move payloads accelerator-to-accelerator
//!   with the shared A-DMA engines. The ablation rungs bounce branches
//!   and transforms to the centralized manager instead.
//! - **RELIEF** — every hop transition passes through a single-server
//!   hardware manager (~1.5 µs occupancy per completion, §VII-A1); the
//!   base design also funnels all work through one shared queue with
//!   head-of-line blocking across accelerator types.
//! - **CPU-Centric** — every completion interrupts the originating
//!   core, which then submits the next invocation.
//! - **Cohort** — statically linked pairs hand off directly through
//!   software queues; everything else bounces through a core.
//! - **Non-acc** — tax ops run as CPU work on the core pool.
//! - **Ideal** — direct transfers with zero orchestration cost.
//!
//! # Module map
//!
//! The event loop is split by concern; every handler is a method on
//! `MachineCtx`, the shared mutable state, and consults the policy's
//! `Transition` for every decision that differs between designs (the
//! per-policy facts live in [`crate::policy`]'s table):
//!
//! | module | owns |
//! |---|---|
//! | `lifecycle` | request admission, program steps, call initiation, completion, timeouts |
//! | `dispatch` | accelerator input queues, the PE inner loop, RELIEF's shared queue |
//! | `transfer` | core→accelerator submission, the per-transition orchestration cost, inter-hop payload movement, external responses |
//! | `fallback` | CPU execution of segments (Non-acc and overflow escape) |
//! | `resilience` | fault injection and recovery (retry/backoff, sibling re-dispatch, CPU degrade) |
//! | `scaling` | ingress control (rate limit / admission) and the telemetry-feedback autoscaler |
//! | `accounting` | latency breakdowns, stats/energy emission, telemetry, audit hooks, reports |
//! | `snapshot` | the wire form of the machine's dynamic state, nested in fleet snapshots |
//! | `run` | [`MachineRun`], the one-node view of [`ClusterRun`](crate::cluster::ClusterRun) |

mod accounting;
#[cfg(test)]
mod control_tests;
mod dispatch;
mod fallback;
mod lifecycle;
mod resilience;
mod run;
mod scaling;
#[cfg(test)]
mod slab_tests;
mod snapshot;
#[cfg(test)]
mod tests;
mod transfer;

pub use run::MachineRun;
pub(crate) use snapshot::{config_hash, service_names, DRAIN_MARGIN};

use std::collections::VecDeque;

use accelflow_accel::accelerator::Accelerator;
use accelflow_accel::timing::ServiceTimeModel;
use accelflow_arch::cache::MemoryBus;
use accelflow_arch::config::ArchConfig;
use accelflow_arch::dma::DmaPool;
use accelflow_arch::energy::{EnergyMeter, EnergyModel};
use accelflow_arch::interconnect::Interconnect;
use accelflow_arch::topology::{ChipletLayout, Endpoint, UnitId};
use accelflow_sim::engine::Schedule;
use accelflow_sim::resource::ServerPool;
use accelflow_sim::rng::SimRng;
use accelflow_sim::slab::{Slab, SlotId};
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::kind::AccelKind;
use accelflow_trace::templates::TraceLibrary;

use crate::arrivals::{fresh_programs, poisson_arrivals_with, Arrival};
use crate::control::{ControlConfig, ControlState};
use crate::faults::{FaultClass, FaultConfig, FaultState};
use crate::policy::{Policy, Transition};
use crate::request::{CallAddr, ServiceSpec};
use crate::stats::{MachineTotals, RunReport, ServiceStats};

use accounting::TelState;
use dispatch::SharedJob;
use lifecycle::RequestState;

/// Configuration of one simulated machine.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Hardware parameters (Table III).
    pub arch: ArchConfig,
    /// Orchestration policy.
    pub policy: Policy,
    /// Number of chiplets: 1, 2 (default), 3, 4, or 6 (Fig 18).
    pub chiplets: usize,
    /// Max concurrent traces per tenant (§IV-D's anti-hoarding cap).
    pub tenant_cap: usize,
    /// Measurement starts after this much simulated time.
    pub warmup: SimDuration,
    /// TCP input-queue response timeout (§IV-B).
    pub tcp_timeout: SimDuration,
    /// Probability an accelerator invocation page-faults (§VII-B6).
    pub page_fault_prob: f64,
    /// Global accelerator speedup multiplier (§VII-C5).
    pub speedup_scale: f64,
    /// Overrides the input-dispatcher scheduling policy implied by
    /// `policy` (e.g. priority scheduling, §V-1).
    pub queue_policy_override: Option<accelflow_accel::dispatcher::QueuePolicy>,
    /// Accelerator instances per type (paper §IV-A: "one or more
    /// instances of all the accelerators"; a core whose Enqueue is
    /// rejected "retries with another accelerator of the same type").
    pub instances_per_accel: usize,
    /// Record raw (completion time, latency) samples per service for
    /// time-series diagnostics (costs memory; off by default).
    pub sample_latencies: bool,
    /// Run the invariant [`Auditor`](crate::audit::Auditor) alongside
    /// the event loop. Defaults to on in debug builds and under the
    /// `audit` cargo feature; costs a constant-factor slowdown.
    pub audit: bool,
    /// Capture structured telemetry (per-component spans, instants,
    /// counters and windowed utilization samples) for Chrome-trace
    /// export and latency breakdowns. Off by default — including in
    /// debug builds, unlike `audit` — because the record stream costs
    /// memory and time; the `telemetry` cargo feature flips the
    /// default on. See `docs/METRICS.md` for every emitted record.
    pub telemetry: bool,
    /// Telemetry ring capacity in records; on overflow the oldest
    /// records are dropped and counted in the report's
    /// `dropped` field (the tail of a run is kept).
    pub telemetry_capacity: usize,
    /// Sampling window for the telemetry time series (utilization,
    /// queue occupancy, tenant-slot pressure). Sampling piggybacks on
    /// event delivery, so it never perturbs the event sequence.
    pub telemetry_sample: SimDuration,
    /// Deterministic fault injection (stalls, DMA errors, TLB
    /// shootdowns, queue drops, ATM misses) and the recovery knobs.
    /// Disabled by default: the machine then builds no injector state,
    /// draws no fault randomness, and emits a bit-identical event
    /// stream. See [`crate::faults`] and `docs/RESILIENCE.md`.
    pub faults: FaultConfig,
    /// Online traffic control for open-loop load: per-tenant rate
    /// limiting, admission ceilings, SLO-window tracking, and the
    /// telemetry-feedback station autoscaler. Disabled by default:
    /// the machine then builds no control state and emits a
    /// bit-identical event stream. See [`crate::control`] and
    /// `docs/WORKLOADS.md`.
    pub control: ControlConfig,
}

impl MachineConfig {
    /// Baseline configuration for a policy.
    pub fn new(policy: Policy) -> Self {
        MachineConfig {
            arch: ArchConfig::icelake(),
            policy,
            chiplets: 2,
            tenant_cap: 1024,
            warmup: SimDuration::from_millis(5),
            tcp_timeout: SimDuration::from_millis(20),
            page_fault_prob: 3e-6,
            speedup_scale: 1.0,
            queue_policy_override: None,
            instances_per_accel: 1,
            sample_latencies: false,
            audit: cfg!(any(debug_assertions, feature = "audit")),
            telemetry: cfg!(feature = "telemetry"),
            telemetry_capacity: 1 << 18,
            telemetry_sample: SimDuration::from_micros(50),
            faults: FaultConfig::disabled(),
            control: ControlConfig::disabled(),
        }
    }

    /// The chiplet grouping of accelerator units for `self.chiplets`
    /// (Fig 18's organizations); unit IDs are [`AccelKind::id`]s.
    ///
    /// # Panics
    ///
    /// Panics if `chiplets` is not one of 1, 2, 3, 4, 6.
    pub fn chiplet_groups(&self) -> Vec<Vec<u8>> {
        use AccelKind::*;
        let ids = |kinds: &[AccelKind]| kinds.iter().map(|k| k.id()).collect::<Vec<_>>();
        match self.chiplets {
            1 => vec![ids(&[Ldb, Tcp, Encr, Decr, Rpc, Ser, Dser, Cmp, Dcmp])],
            2 => vec![
                ids(&[Ldb]),
                ids(&[Tcp, Encr, Decr, Rpc, Ser, Dser, Cmp, Dcmp]),
            ],
            3 => vec![
                ids(&[Ldb]),
                ids(&[Tcp, Encr, Decr]),
                ids(&[Rpc, Ser, Dser, Cmp, Dcmp]),
            ],
            4 => vec![
                ids(&[Ldb]),
                ids(&[Tcp, Encr, Decr]),
                ids(&[Rpc, Ser, Dser]),
                ids(&[Cmp, Dcmp]),
            ],
            6 => vec![
                ids(&[Ldb]),
                ids(&[Tcp]),
                ids(&[Encr, Decr]),
                ids(&[Rpc]),
                ids(&[Ser, Dser]),
                ids(&[Cmp, Dcmp]),
            ],
            n => panic!("unsupported chiplet count {n} (use 1, 2, 3, 4, or 6)"),
        }
    }

    /// Poisson arrivals at `rps_per_service` for each service over
    /// `duration` (the [`Machine::run_workload`] and
    /// [`Cluster::run_workload`](crate::cluster::Cluster::run_workload)
    /// generator).
    pub fn poisson_arrivals(
        &self,
        services: &[ServiceSpec],
        rps_per_service: f64,
        duration: SimDuration,
        seed: u64,
    ) -> Vec<Arrival> {
        let lib = TraceLibrary::standard();
        let sample = fresh_programs(services, &lib);
        poisson_arrivals_with(services, rps_per_service, duration, seed, sample)
    }
}

/// Machine events (an implementation detail exposed only for event
/// observers such as [`Machine::run_arrivals_observed`]).
#[derive(Clone, Debug)]
#[doc(hidden)]
pub enum Ev {
    /// The node's pending arrival lands; the index is the node-local
    /// admission number.
    Arrive(u32),
    /// Begin the request's current program step.
    StartStep(u32),
    /// An app-logic stage finished on a core.
    AppDone(u32),
    /// A payload landed in an accelerator's input queue, carrying its
    /// size.
    HopArrive(HopArrival),
    /// Retry a tenant-throttled trace initiation.
    HopArriveRetry(CallAddr),
    /// A remote response arrived under Non-acc (next segment runs on a
    /// core).
    ExternalArriveCpu(CallAddr),
    /// A PE finished computing a hop.
    PeDone {
        addr: CallAddr,
        accel: u8,
        pe: u8,
        busy_ps: u64,
    },
    /// Start queued work on an accelerator. Nothing schedules it: each
    /// handler that can make a station startable starts its queued
    /// work itself. The variant stays only because the benchmark's
    /// per-variant event counter names it; the next benchmark change
    /// removes it.
    TryStart(u8),
    /// A remote response arrived, triggering the chained segment.
    ExternalArrive(CallAddr),
    /// A trace call completed (final notification delivered).
    CallDone {
        req: u32,
        step: u8,
        par: u8,
        error: bool,
    },
    /// A CPU fallback finished executing the segment remainder.
    FallbackDone(CallAddr),
    /// A TCP response timeout fired (§IV-B).
    Timeout { req: u32, step: u8, par: u8 },
    /// The fault injector fires one fault of the given class; the
    /// class's Poisson stream re-arms itself from the handler. Never
    /// scheduled when [`MachineConfig::faults`] is disabled, so the
    /// golden event streams are unchanged.
    FaultInject(FaultClass),
    /// A station's stall window may have ended; wake its queues.
    StallEnd(u8),
    /// Periodic autoscaler tick: sample utilization and light/darken
    /// stations. Never scheduled when
    /// [`MachineConfig::control`] has no autoscaler, so the golden
    /// event streams are unchanged.
    ScaleTick,
}

/// A payload landing at hop `addr`, with the size entering the hop:
/// the segment's entry size at its first hop, and after that the size
/// the hop before it produced. The size travels with the work, so
/// admitting the payload reads no earlier hop.
///
/// `Debug` renders the address alone, as the event rendered before it
/// carried the size: the pinned event-stream hashes fold that text,
/// and along a run the size is a function of the address (snapshot
/// loading checks it against the walk).
#[derive(Clone, Copy, PartialEq, Eq)]
#[doc(hidden)]
pub struct HopArrival {
    pub(crate) addr: CallAddr,
    pub(crate) in_bytes: u64,
}

impl std::fmt::Debug for HopArrival {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.addr.fmt(f)
    }
}

impl Ev {
    /// The [`Ev::HopArrive`] landing `in_bytes` at hop `addr`.
    pub(crate) fn hop_arrive(addr: CallAddr, in_bytes: u64) -> Ev {
        Ev::HopArrive(HopArrival { addr, in_bytes })
    }
}

/// The machine's shared mutable state: every hardware model, the
/// request table, and the measurement sinks.
///
/// Event handlers are methods on this type, spread across the
/// submodules by concern; every policy-specific decision consults
/// `transition`, the policy's row of the policy table.
pub(crate) struct MachineCtx {
    pub(crate) cfg: MachineConfig,
    pub(crate) transition: Transition,
    pub(crate) timing: ServiceTimeModel,
    pub(crate) lib: TraceLibrary,
    pub(crate) net: Interconnect,
    pub(crate) dma: DmaPool,
    pub(crate) bus: MemoryBus,
    pub(crate) cores: ServerPool,
    pub(crate) manager: ServerPool,
    pub(crate) accels: Vec<Accelerator>,
    pub(crate) shared_queue: VecDeque<SharedJob>,
    /// Live per-request state. Requests live for microseconds while a
    /// run spans millions of arrivals, so the table is a recycling slab
    /// rather than a `Vec<Option<_>>` indexed by arrival number: the
    /// live set stays packed in the first few dozen slots (cache-warm)
    /// and the footprint is bounded by peak concurrency, not run
    /// length. `req_slots` maps the stable arrival index carried in
    /// events to the current slab handle; generation tags turn stale
    /// handles (freed requests) into misses instead of aliasing.
    pub(crate) requests: Slab<RequestState>,
    pub(crate) req_slots: Vec<SlotId>,
    /// The dispatched arrival whose [`Ev::Arrive`] is pending. The
    /// fleet places arrival *k+1* only when arrival *k* lands, so a
    /// node holds at most one.
    pub(crate) arrival: Option<Arrival>,
    pub(crate) stats: Vec<ServiceStats>,
    pub(crate) totals: MachineTotals,
    pub(crate) energy: EnergyMeter,
    pub(crate) rng: SimRng,
    /// In-flight call count per tenant, dense-indexed by `TenantId.0`
    /// (tenant ids are small sequential u16s, so a Vec lookup beats a
    /// HashMap probe in the dispatch inner loop). Grown on demand.
    pub(crate) tenant_active: Vec<u32>,
    pub(crate) warmup_end: SimTime,
    pub(crate) end: SimTime,
    pub(crate) app_factor: f64,
    pub(crate) live: u64,
    pub(crate) auditor: Option<crate::audit::Auditor>,
    pub(crate) tel: Option<Box<TelState>>,
    /// Fault-injector state; `None` when every rate is zero, so the
    /// fault-free hot path pays a single branch.
    pub(crate) faults: Option<Box<FaultState>>,
    /// Online-control state; `None` when control is disabled, so the
    /// control-free hot path pays a single branch.
    pub(crate) control: Option<Box<ControlState>>,
}

/// The simulated server.
pub struct Machine {
    ctx: MachineCtx,
}

impl Machine {
    /// Builds the machine for a workload of `service_names.len()`
    /// services.
    pub fn new(cfg: MachineConfig, service_names: Vec<String>, end: SimTime, seed: u64) -> Self {
        cfg.arch.validate().expect("invalid architecture config");
        let row = cfg.policy.row();
        let mut timing = ServiceTimeModel::calibrated(cfg.arch.core_clock);
        timing.set_speedup_scale(cfg.speedup_scale);
        timing.set_tax_speed_factor(cfg.arch.generation.tax_factor());
        let app_factor = cfg.arch.generation.app_logic_factor();

        let layout = ChipletLayout::new(cfg.chiplet_groups(), AccelKind::COUNT as u8);
        let net = Interconnect::new(&cfg.arch, layout);
        let dma = DmaPool::new(&cfg.arch);
        let bus = MemoryBus::new(&cfg.arch);
        let cores = ServerPool::new(cfg.arch.cores);
        let manager = ServerPool::new(1);
        let queue_policy = cfg.queue_policy_override.unwrap_or(row.queue);
        let instances = cfg.instances_per_accel;
        assert!(
            (1..=16).contains(&instances),
            "instances_per_accel must be within 1..=16"
        );
        let accels: Vec<Accelerator> = AccelKind::ALL
            .iter()
            .flat_map(|&k| {
                // Instances of a kind share the kind's mesh placement.
                (0..instances).map(move |_| k)
            })
            .map(|k| Accelerator::new(k, UnitId(k.id()), &cfg.arch, queue_policy))
            .collect();
        let stats = service_names.iter().map(ServiceStats::new).collect();
        let energy = EnergyMeter::new(EnergyModel::mcpat_like(), cfg.arch.cores, AccelKind::COUNT);
        let warmup_end = SimTime::ZERO + cfg.warmup;
        let lib = TraceLibrary::standard();
        let auditor = cfg.audit.then(|| crate::audit::Auditor::new(0, lib.atm()));
        let tel = TelState::for_config(&cfg, &accels);
        let faults = cfg.faults.enabled().then(|| {
            Box::new(FaultState::new(
                cfg.faults.clone(),
                seed,
                accels.len(),
                cfg.arch.pes_per_accelerator,
            ))
        });
        let kind_names: Vec<&'static str> = AccelKind::ALL.iter().map(|k| k.name()).collect();
        let control = cfg.control.enabled().then(|| {
            Box::new(ControlState::new(
                cfg.control.clone(),
                accels.len(),
                instances,
                &kind_names,
                warmup_end,
            ))
        });
        Machine {
            ctx: MachineCtx {
                cfg,
                transition: row.transition,
                timing,
                lib,
                net,
                dma,
                bus,
                cores,
                manager,
                accels,
                shared_queue: VecDeque::new(),
                requests: Slab::with_capacity(64),
                req_slots: Vec::new(),
                arrival: None,
                stats,
                totals: MachineTotals::default(),
                energy,
                rng: SimRng::seed(seed ^ 0xACCE1F10),
                tenant_active: Vec::new(),
                warmup_end,
                end,
                app_factor,
                live: 0,
                auditor,
                tel,
                faults,
                control,
            },
        }
    }

    /// Convenience runner: Poisson arrivals at `rps_per_service` for
    /// each service over `duration`, then a drain window.
    ///
    /// ```
    /// use accelflow_core::machine::{Machine, MachineConfig};
    /// use accelflow_core::policy::Policy;
    /// use accelflow_core::request::{CallSpec, ServiceSpec, StageSpec};
    /// use accelflow_sim::time::SimDuration;
    /// use accelflow_trace::templates::TemplateId;
    ///
    /// let svc = ServiceSpec::new(
    ///     "Ping",
    ///     vec![StageSpec::Call(CallSpec::new(TemplateId::T1))],
    /// );
    /// let mut cfg = MachineConfig::new(Policy::AccelFlow);
    /// cfg.warmup = SimDuration::from_millis(1);
    /// let report =
    ///     Machine::run_workload(&cfg, &[svc], 500.0, SimDuration::from_millis(5), 7);
    /// assert!(report.offered() > 0);
    /// assert!(report.completion_ratio() > 0.99);
    /// ```
    pub fn run_workload(
        cfg: &MachineConfig,
        services: &[ServiceSpec],
        rps_per_service: f64,
        duration: SimDuration,
        seed: u64,
    ) -> RunReport {
        let arrivals = cfg.poisson_arrivals(services, rps_per_service, duration, seed);
        Self::run_arrivals(cfg, services, arrivals, duration, seed)
    }

    /// Runs a pre-generated arrival list (for bursty trace-driven loads
    /// and for common-random-number comparisons across policies).
    pub fn run_arrivals(
        cfg: &MachineConfig,
        services: &[ServiceSpec],
        arrivals: Vec<Arrival>,
        duration: SimDuration,
        seed: u64,
    ) -> RunReport {
        Self::run_arrivals_observed(cfg, services, arrivals, duration, seed, |_, _| {})
    }

    /// [`Machine::run_arrivals`] with an event observer: `observe` is
    /// invoked for every delivered event, in delivery order, before the
    /// machine handles it. Observation is read-only and cannot perturb
    /// the run, which makes this the anchor for the golden
    /// event-sequence snapshot tests (hash the observed stream, assert
    /// it never drifts across refactors).
    ///
    /// One-shot wrapper over [`MachineRun`]; hold the run open instead
    /// when you need mid-run checkpoints or appended arrivals.
    pub fn run_arrivals_observed(
        cfg: &MachineConfig,
        services: &[ServiceSpec],
        arrivals: Vec<Arrival>,
        duration: SimDuration,
        seed: u64,
        observe: impl FnMut(SimTime, &Ev),
    ) -> RunReport {
        MachineRun::start(cfg, services, arrivals, duration, seed, observe).finish()
    }
}

/// Hooks for the [`cluster`](crate::cluster) layer, which drives every
/// machine from the fleet's one shared queue. Crate-private: the fleet
/// is the only caller, and the contract (one pending arrival per
/// machine at a time, reports extracted after the run drains) is
/// enforced there.
impl Machine {
    /// Hands the machine the arrival its next [`Ev::Arrive`] admits and
    /// returns the local index that event carries. The fleet's
    /// admission chain places arrival *k+1* only when arrival *k* is
    /// delivered, so at most one is ever pending.
    pub(crate) fn push_arrival(&mut self, arrival: Arrival) -> u32 {
        debug_assert!(self.ctx.arrival.is_none(), "one pending arrival");
        let idx = self.ctx.req_slots.len() as u32;
        self.ctx.req_slots.push(SlotId::INVALID);
        self.ctx.arrival = Some(arrival);
        idx
    }

    /// True while a pushed arrival awaits its [`Ev::Arrive`].
    pub(crate) fn holds_arrival(&self) -> bool {
        self.ctx.arrival.is_some()
    }

    /// Moves the arrival horizon (the measurement window end) out to
    /// `end` if that is later.
    pub(crate) fn extend_end(&mut self, end: SimTime) {
        self.ctx.end = self.ctx.end.max(end);
    }

    /// In-flight (admitted, not yet terminated) request count — the
    /// load signal the cluster's least-loaded balancer reads.
    pub(crate) fn live_requests(&self) -> u64 {
        self.ctx.live
    }

    /// Number of accelerator stations currently inside a fault-injected
    /// stall window. Zero when injection is disabled. The cluster's
    /// keep-alive poll reads this as the node-health signal.
    pub(crate) fn dark_stations(&self, now: SimTime) -> usize {
        self.ctx
            .faults
            .as_ref()
            .map_or(0, |f| f.avail.len() - f.avail.available_count(now))
    }

    /// Extracts the run report once the outer kernel has drained.
    pub(crate) fn into_run_report(self, now: SimTime, end: SimTime) -> RunReport {
        self.ctx.into_report(now, end)
    }
}

impl MachineCtx {
    // ----- helpers shared across the handler modules -----

    pub(crate) fn endpoint(kind: AccelKind) -> Endpoint {
        Endpoint::Unit(UnitId(kind.id()))
    }

    /// Flat station indices of a kind's instances.
    pub(crate) fn stations_of(&self, kind: AccelKind) -> std::ops::Range<usize> {
        let n = self.cfg.instances_per_accel;
        let base = kind.id() as usize * n;
        base..base + n
    }

    /// The least-backlogged station of a kind (hardware routes new work
    /// to the emptiest instance). Scans the kind's instances directly:
    /// a struct-of-arrays backlog mirror was tried here and lost ~4% of
    /// fig14-shape throughput — with a handful of instances per kind
    /// the scan is a few loads, while keeping the mirror coherent cost
    /// a resync at every accelerator mutation site.
    pub(crate) fn least_loaded_station(&self, kind: AccelKind) -> usize {
        self.stations_of(kind)
            .min_by_key(|&i| self.accels[i].input().backlog())
            .expect("at least one instance")
    }

    pub(crate) fn req(&self, idx: u32) -> &RequestState {
        self.requests
            .get(self.req_slots[idx as usize])
            .expect("request alive")
    }

    /// True when the request already terminated — either still parked
    /// with `done` set or freed entirely. Every handler reachable from
    /// a stale event (a response landing after a timeout killed the
    /// request) must check this before touching request state:
    /// termination frees the slot, so `req()` would panic.
    pub(crate) fn req_gone(&self, idx: u32) -> bool {
        self.requests
            .get(self.req_slots[idx as usize])
            .is_none_or(|r| r.done)
    }

    pub(crate) fn req_mut(&mut self, idx: u32) -> &mut RequestState {
        self.requests
            .get_mut(self.req_slots[idx as usize])
            .expect("request alive")
    }

    pub(crate) fn dispatcher_time(&self, instrs: u32) -> SimDuration {
        SimDuration::from_picos(self.cfg.arch.dispatcher_cycle.as_picos() * instrs as u64)
    }
}

impl Machine {
    /// Schedules a fresh run's opening events through `queue`, in this
    /// order: each enabled fault class's first [`Ev::FaultInject`] in
    /// [`FaultClass::ALL`] order, and the autoscaler's first
    /// [`Ev::ScaleTick`]. Each chain then re-arms itself from its
    /// handler. Without faults or an autoscaler it schedules nothing
    /// and draws no randomness. Arrivals are the fleet's to dispatch.
    pub(crate) fn arm(&mut self, queue: &mut impl Schedule<Ev>) {
        let ctx = &mut self.ctx;
        if let Some(f) = ctx.faults.as_mut() {
            for class in FaultClass::ALL {
                if let Some(gap) = f.draw_gap(class) {
                    queue.schedule_at(SimTime::ZERO + gap, Ev::FaultInject(class));
                }
            }
        }
        if let Some(scaler) = ctx.control.as_ref().and_then(|c| c.cfg.autoscaler) {
            queue.schedule_at(SimTime::ZERO + scaler.interval, Ev::ScaleTick);
        }
    }

    /// Admits the pending arrival `idx`: the [`Ev::Arrive`] arm of
    /// [`Machine::handle_event`], which the fleet calls with a sink of
    /// its own so it can hold the admitted request's schedules behind
    /// the next arrival.
    pub(crate) fn admit(&mut self, now: SimTime, idx: u32, queue: &mut impl Schedule<Ev>) {
        let ctx = &mut self.ctx;
        if ctx.tel.is_some() {
            ctx.sample_telemetry(now);
        }
        ctx.audit_pre_event(now);
        ctx.on_arrive(now, idx, queue);
        ctx.audit_post_event(now);
    }

    /// Delivers one event, scheduling follow-ons through `queue` (the
    /// fleet's per-node sink into its shared queue).
    #[inline(always)]
    pub(crate) fn handle_event(&mut self, now: SimTime, event: Ev, queue: &mut impl Schedule<Ev>) {
        let ctx = &mut self.ctx;
        if ctx.tel.is_some() {
            ctx.sample_telemetry(now);
        }
        ctx.audit_pre_event(now);
        match event {
            Ev::Arrive(idx) => ctx.on_arrive(now, idx, queue),
            Ev::StartStep(req) => ctx.on_start_step(now, req, queue),
            Ev::AppDone(req) => ctx.on_app_done(now, req, queue),
            Ev::HopArrive(arrival) => ctx.on_hop_arrive(now, arrival, queue),
            Ev::HopArriveRetry(addr) => ctx.start_call(now, addr, queue),
            Ev::ExternalArriveCpu(addr) => ctx.start_segment_on_cpu(now, addr, queue),
            Ev::PeDone {
                addr,
                accel,
                pe,
                busy_ps,
            } => ctx.on_pe_done(now, addr, accel, pe, busy_ps, queue),
            Ev::TryStart(station) => ctx.start_queued(now, station as usize, queue),
            Ev::ExternalArrive(addr) => ctx.on_external_arrive(now, addr, queue),
            Ev::CallDone {
                req,
                step,
                par,
                error,
            } => ctx.on_call_done(now, req, step, par, error, queue),
            Ev::FallbackDone(addr) => ctx.on_fallback_done(now, addr, queue),
            Ev::Timeout { req, step, par } => ctx.on_timeout(now, req, step, par),
            Ev::FaultInject(class) => ctx.on_fault_inject(now, class, queue),
            Ev::StallEnd(station) => ctx.on_stall_end(now, station, queue),
            Ev::ScaleTick => ctx.on_scale_tick(now, queue),
        }
        ctx.audit_post_event(now);
    }
}
