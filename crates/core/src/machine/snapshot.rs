//! Machine-level checkpoint/restore and the resumable [`MachineRun`]
//! handle.
//!
//! A snapshot captures the machine's complete dynamic state — request
//! slab, accelerator stations, queues, RNG stream positions, fault and
//! control state, measurement sinks — plus the pending event set, under
//! a versioned header carrying a configuration hash. Restoring into a
//! machine rebuilt from the *same* configuration resumes the run
//! byte-identically (enforced by `tests/snapshot_equivalence.rs`);
//! restoring into a different configuration is refused.
//!
//! What is rebuilt rather than serialized: everything derivable from
//! [`MachineConfig`] alone — the orchestrator strategy, the service
//! time model, the trace library contents, the interconnect, and the
//! chiplet layout. The ATM's read/write counters are dynamic and *are*
//! carried over. See `docs/CHECKPOINT.md` for the captured/not-captured
//! accounting and the determinism argument.

use accelflow_sim::engine::EventQueue;
use accelflow_sim::impl_snapshot;
use accelflow_sim::slab::SlotId;
use accelflow_sim::snapshot::{
    check_header, fnv1a, write_header, SnapReader, SnapWriter, Snapshot, SnapshotError,
};
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::kind::AccelKind;

use crate::arrivals::Arrival;
use crate::request::ServiceSpec;
use crate::request::{CallAddr, ServiceId};
use crate::stats::{Breakdown, MachineTotals, RunReport, ServiceStats};

use super::accounting::TelState;
use super::dispatch::SharedJob;
use super::{Ev, Machine, MachineConfig, MachineCtx};

/// Leading magic bytes of a machine snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"AFSN";

/// Drain window granted past the arrival horizon before a machine or
/// cluster report is extracted (stragglers complete).
pub(crate) const DRAIN_MARGIN: SimDuration = SimDuration::from_millis(30);

// ----- request serialization -----
//
// `Program` writes its own wire form next to its flat layout
// (`request/program.rs`).

impl_snapshot! { struct ServiceId { 0 } }

impl Snapshot for CallAddr {
    fn save(&self, w: &mut SnapWriter) {
        // The packed queue-entry tag is already the canonical wire form.
        w.u64(self.tag());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(CallAddr::from_tag(r.u64()?))
    }
}

impl_snapshot! { struct Arrival { at, service, tenant, program } }

impl_snapshot! {
    struct super::lifecycle::RequestState {
        service, tenant, arrival, measured, program, step, pending_calls, active_calls,
        completed_pars, deadline, done, error,
    }
}

impl_snapshot! { struct SharedJob { entry, kind } }

// ----- event serialization -----

// Stable one-byte tags, independent of declaration order.
impl_snapshot! {
    enum Ev {
        0 => Arrive(idx),
        1 => StartStep(req),
        2 => AppDone(req),
        3 => HopArrive(addr),
        4 => HopArriveRetry(addr),
        5 => ExternalArriveCpu(addr),
        6 => PeDone { addr, accel, pe, busy_ps },
        7 => TryStart(accel),
        8 => ExternalArrive(addr),
        9 => CallDone { req, step, par, error },
        10 => FallbackDone(addr),
        11 => Timeout { req, step, par },
        12 => FaultInject(class),
        13 => StallEnd(station),
        14 => ScaleTick,
    }
}

// ----- measurement-sink serialization -----

impl_snapshot! {
    struct Breakdown { cpu, accel, orchestration, communication, external }
}

impl_snapshot! {
    struct ServiceStats {
        name, latency, offered, completed, errors, deadline_misses, breakdown, tax_by_kind,
        app_logic, samples,
    }
}

impl_snapshot! {
    struct MachineTotals {
        fallbacks, overflows, enqueue_rejections, tcp_timeouts, page_faults, atm_reads,
        dispatcher_instrs, dispatches, manager_jobs, manager_busy, accel_utilization, accel_jobs,
        tlb, tenant_wipes, tenant_throttled, clamped_events, dma_bytes, energy,
    }
}

// The telemetry ring restores *empty* (records hold `&'static str`
// names that cannot round-trip through bytes); `emitted`/`dropped`
// counters, labels, and the windowed sampler all persist, so a restored
// run's telemetry report differs from a straight run's only in which
// record window the ring retains — documented in `docs/CHECKPOINT.md`
// under "not captured".
impl_snapshot! { struct TelState { sink, sampler, prev_busy, prev_at } }

// ----- whole-machine checkpoint -----

impl MachineCtx {
    /// Serializes every dynamic field, in declaration order. Statics
    /// (orchestrator, timing model, trace library, interconnect) are
    /// rebuilt from config at restore.
    fn save_dynamic(&self, w: &mut SnapWriter) {
        self.dma.save(w);
        self.bus.save(w);
        self.cores.save(w);
        self.manager.save(w);
        self.accels.save(w);
        self.shared_queue.save(w);
        self.requests.save(w);
        self.req_slots.save(w);
        self.arrivals.save(w);
        self.stats.save(w);
        self.totals.save(w);
        self.energy.save(w);
        self.rng.save(w);
        self.tenant_active.save(w);
        self.warmup_end.save(w);
        self.end.save(w);
        w.u64(self.live);
        self.auditor.save(w);
        self.tel.save(w);
        self.faults.save(w);
        self.control.save(w);
        // The trace library is rebuilt from config, but the ATM's
        // read/write counters are run state.
        w.u64(self.lib.atm().reads());
        w.u64(self.lib.atm().writes());
    }

    /// Overwrites every dynamic field from the reader (the counterpart
    /// of [`MachineCtx::save_dynamic`]), validating structural
    /// consistency against the rebuilt configuration.
    fn load_dynamic(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        self.dma = Snapshot::load(r)?;
        self.bus = Snapshot::load(r)?;
        self.cores = Snapshot::load(r)?;
        self.manager = Snapshot::load(r)?;
        let accels: Vec<accelflow_accel::accelerator::Accelerator> = Snapshot::load(r)?;
        if accels.len() != AccelKind::COUNT * self.cfg.instances_per_accel {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot holds {} stations, config builds {}",
                accels.len(),
                AccelKind::COUNT * self.cfg.instances_per_accel
            )));
        }
        self.accels = accels;
        self.shared_queue = Snapshot::load(r)?;
        self.requests = Snapshot::load(r)?;
        self.req_slots = Snapshot::load(r)?;
        self.arrivals = Snapshot::load(r)?;
        if self.arrivals.len() > self.req_slots.len() {
            return Err(SnapshotError::Corrupt(format!(
                "{} pending arrivals but only {} request slots",
                self.arrivals.len(),
                self.req_slots.len()
            )));
        }
        let stats: Vec<ServiceStats> = Snapshot::load(r)?;
        if stats.len() != self.stats.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot holds {} services, restore target has {}",
                stats.len(),
                self.stats.len()
            )));
        }
        self.stats = stats;
        self.totals = Snapshot::load(r)?;
        self.energy = Snapshot::load(r)?;
        self.rng = Snapshot::load(r)?;
        self.tenant_active = Snapshot::load(r)?;
        self.warmup_end = Snapshot::load(r)?;
        self.end = Snapshot::load(r)?;
        self.live = r.u64()?;
        self.auditor = Snapshot::load(r)?;
        self.tel = Snapshot::load(r)?;
        self.faults = Snapshot::load(r)?;
        self.control = Snapshot::load(r)?;
        let atm_reads = r.u64()?;
        let atm_writes = r.u64()?;
        self.lib.atm_mut().restore_counters(atm_reads, atm_writes);
        Ok(())
    }
}

/// The configuration-identity hash carried in machine and cluster
/// snapshot headers: FNV-1a over the config's `Debug` rendering plus
/// the service names. The workload seed is *not* part of the identity
/// — every RNG stream position is serialized, so a snapshot carries its
/// seed's consequences with it.
pub(crate) fn config_hash(cfg: &impl std::fmt::Debug, service_names: &[String]) -> u64 {
    let mut buf = format!("{cfg:?}").into_bytes();
    for name in service_names {
        buf.push(0);
        buf.extend_from_slice(name.as_bytes());
    }
    fnv1a(&buf)
}

/// The service names a machine is built with, in service order.
pub(crate) fn service_names(services: &[ServiceSpec]) -> Vec<String> {
    services.iter().map(|s| s.name.clone()).collect()
}

impl Machine {
    /// The headerless machine body of a snapshot — the cluster layer
    /// embeds per-node machine state under its own single header.
    pub(crate) fn save_dynamic(&self, w: &mut SnapWriter) {
        self.ctx.save_dynamic(w);
    }

    /// Headerless counterpart of [`Machine::save_dynamic`]: rebuilds
    /// statics from the configuration and overwrites dynamics from the
    /// reader.
    pub(crate) fn restore_dynamic(
        cfg: &MachineConfig,
        service_names: &[String],
        r: &mut SnapReader<'_>,
    ) -> Result<Machine, SnapshotError> {
        let mut machine = Machine::new(
            cfg.clone(),
            service_names.to_vec(),
            Vec::new(),
            SimTime::ZERO,
            0,
        );
        machine.ctx.load_dynamic(r)?;
        Ok(machine)
    }
}

// ----- the resumable run handle -----

/// A machine run held open for stepwise control: run to an instant,
/// snapshot, append arrivals, resume, finish. [`Machine::run_arrivals`]
/// and friends are one-shot wrappers over this.
///
/// The observer `F` is invoked for every delivered event in delivery
/// order, before the machine handles it — pass `|_, _| {}` when the
/// event stream is not needed.
///
/// # Example: checkpoint mid-run, fork, resume
///
/// ```
/// use accelflow_core::machine::{MachineConfig, MachineRun};
/// use accelflow_core::policy::Policy;
/// use accelflow_core::request::{CallSpec, ServiceSpec, StageSpec};
/// use accelflow_sim::time::{SimDuration, SimTime};
/// use accelflow_trace::templates::TemplateId;
///
/// let mut cfg = MachineConfig::new(Policy::AccelFlow);
/// cfg.warmup = SimDuration::from_millis(1);
/// let services = vec![ServiceSpec::new(
///     "Ping",
///     vec![StageSpec::Call(CallSpec::new(TemplateId::T1))],
/// )];
/// let duration = SimDuration::from_millis(4);
/// let arrivals = cfg.poisson_arrivals(&services, 2_000.0, duration, 7);
/// let mut run = MachineRun::start(&cfg, &services, arrivals, duration, 7, |_, _| {});
/// run.run_to(SimTime::ZERO + SimDuration::from_millis(2));
/// let bytes = run.snapshot();
///
/// // The original continues; a fork resumes from the same instant.
/// let straight = run.finish();
/// let mut fork = MachineRun::restore(&cfg, &services, &bytes, |_, _| {}).unwrap();
/// let forked = fork.finish();
/// assert_eq!(straight.completed(), forked.completed());
/// ```
pub struct MachineRun<F: FnMut(SimTime, &Ev)> {
    machine: Machine,
    queue: EventQueue<Ev>,
    observe: F,
}

impl<F: FnMut(SimTime, &Ev)> MachineRun<F> {
    /// Opens a run over a pre-generated arrival list. Arrivals stop at
    /// `duration`; [`MachineRun::finish`] grants the drain margin.
    pub fn start(
        cfg: &MachineConfig,
        services: &[ServiceSpec],
        arrivals: Vec<Arrival>,
        duration: SimDuration,
        seed: u64,
        observe: F,
    ) -> Self {
        let end = SimTime::ZERO + duration;
        let mut machine = Machine::new(cfg.clone(), service_names(services), arrivals, end, seed);
        let mut queue = EventQueue::with_capacity(0);
        machine.arm(&mut queue);
        MachineRun {
            machine,
            queue,
            observe,
        }
    }

    /// Reopens a run from a snapshot taken by [`MachineRun::snapshot`],
    /// rebuilding the machine from `cfg` + `services`. The restored run
    /// continues exactly where the saved one stood; extend it with
    /// [`MachineRun::append_arrivals`] for warm-started sweeps. Refuses
    /// snapshots whose header magic, schema version, or configuration
    /// hash does not match.
    pub fn restore(
        cfg: &MachineConfig,
        services: &[ServiceSpec],
        bytes: &[u8],
        observe: F,
    ) -> Result<Self, SnapshotError> {
        let names = service_names(services);
        let mut r = SnapReader::new(bytes);
        check_header(&mut r, SNAPSHOT_MAGIC, config_hash(cfg, &names))?;
        let machine = Machine::restore_dynamic(cfg, &names, &mut r)?;
        let queue = EventQueue::load_snapshot(&mut r)?;
        if !r.is_exhausted() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after the event queue",
                bytes.len() - r.position()
            )));
        }
        Ok(MachineRun {
            machine,
            queue,
            observe,
        })
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The arrival horizon (measurement window end; excludes drain).
    pub fn end(&self) -> SimTime {
        self.machine.ctx.end
    }

    /// Delivers every event strictly before `t`.
    pub fn run_to(&mut self, t: SimTime) {
        let MachineRun {
            machine,
            queue,
            observe,
        } = self;
        queue.run_until(t, |now, event, queue| {
            observe(now, &event);
            machine.handle_event(now, event, queue);
        });
    }

    /// Takes a versioned snapshot of the machine and its pending
    /// events. The run is not disturbed and may keep going; the queue
    /// is borrowed mutably because observing delivery order takes a
    /// non-destructive drain (see [`EventQueue::save_snapshot`]).
    pub fn snapshot(&mut self) -> Vec<u8> {
        let ctx = &self.machine.ctx;
        let names: Vec<String> = ctx.stats.iter().map(|s| s.name.clone()).collect();
        let mut w = SnapWriter::new();
        write_header(&mut w, SNAPSHOT_MAGIC, config_hash(&ctx.cfg, &names));
        ctx.save_dynamic(&mut w);
        self.queue.save_snapshot(&mut w);
        w.into_bytes()
    }

    /// Appends later arrivals to a (typically restored) run and extends
    /// the horizon to `new_end` — the warm-start path: simulate the
    /// shared prefix once, snapshot, then fork one restored copy per
    /// grid point and feed each its own tail.
    ///
    /// `tail` must be time-sorted and entirely at-or-after both the
    /// current clock and every pending arrival (it is a *tail*). If the
    /// preloaded arrival chain already drained, a fresh admission chain
    /// is armed at the first appended arrival.
    pub fn append_arrivals(&mut self, tail: Vec<Arrival>, new_end: SimTime) {
        let ctx = &mut self.machine.ctx;
        ctx.end = ctx.end.max(new_end);
        if tail.is_empty() {
            return;
        }
        debug_assert!(tail.windows(2).all(|w| w[0].at <= w[1].at), "tail sorted");
        debug_assert!(
            ctx.arrivals
                .last()
                .is_none_or(|pending| pending.at <= tail[0].at),
            "tail starts after every pending arrival"
        );
        let chain_dead = ctx.arrivals.is_empty();
        let next_idx = ctx.req_slots.len() as u32;
        let first_at = tail[0].at;
        ctx.req_slots
            .extend(std::iter::repeat_n(SlotId::INVALID, tail.len()));
        // `arrivals` is stored reversed (earliest at the back, consumed
        // by pop); the appended tail is later than everything pending,
        // so its reversed form goes in front.
        let mut merged = tail;
        merged.reverse();
        merged.append(&mut ctx.arrivals);
        ctx.arrivals = merged;
        // The admission chain schedules each next Arrive as the prior
        // one delivers; if it already ran dry, re-arm it at the first
        // appended arrival.
        if chain_dead {
            self.queue.schedule_at(first_at, Ev::Arrive(next_idx));
        }
    }

    /// Runs through the drain window past the horizon and extracts the
    /// report.
    pub fn finish(mut self) -> RunReport {
        let end = self.end();
        self.run_to(end + DRAIN_MARGIN);
        let mut report = self.machine.ctx.into_report(self.queue.now(), end);
        report.totals.clamped_events = self.queue.clamped();
        report
    }
}
