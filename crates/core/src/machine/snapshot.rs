//! The wire form of one machine's dynamic state: request slab,
//! accelerator stations, queues, RNG stream positions, fault and
//! control state, measurement sinks. It has no header of its own: the
//! fleet snapshot ([`ClusterRun::snapshot`](crate::cluster::ClusterRun::snapshot))
//! nests one body per node under its single versioned header, beside
//! the shared event queue. Restoring into a machine rebuilt from the
//! *same* configuration resumes the run byte-identically (enforced by
//! `tests/snapshot_equivalence.rs`).
//!
//! What is rebuilt rather than serialized: everything derivable from
//! [`MachineConfig`] alone — the orchestrator strategy, the service
//! time model, the trace library contents, the interconnect, and the
//! chiplet layout. The ATM's read/write counters are dynamic and *are*
//! carried over. See `docs/CHECKPOINT.md` for the captured/not-captured
//! accounting and the determinism argument.
//!
//! A run carries each hop's payload size with the work — in queued
//! entries, at busy PEs and in pending [`Ev::HopArrive`]s — and every
//! later hop's size follows from it. So loading checks each carried
//! size of a live request against the walk of its segment
//! ([`Machine::check_pending`] for the events).

use accelflow_sim::impl_snapshot;
use accelflow_sim::snapshot::{fnv1a, SnapReader, SnapWriter, Snapshot, SnapshotError};
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::kind::AccelKind;

use crate::arrivals::Arrival;
use crate::request::ServiceSpec;
use crate::request::{CallAddr, ServiceId};
use crate::stats::{Breakdown, MachineTotals, ServiceStats};

use super::accounting::TelState;
use super::dispatch::SharedJob;
use super::{Ev, HopArrival, Machine, MachineConfig, MachineCtx};

/// Drain window granted past the arrival horizon before a run's report
/// is extracted (stragglers complete).
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

impl_snapshot! { struct HopArrival { addr, in_bytes } }

// ----- event serialization -----

// Stable one-byte tags, independent of declaration order.
impl_snapshot! {
    enum Ev {
        0 => Arrive(idx),
        1 => StartStep(req),
        2 => AppDone(req),
        3 => HopArrive(arrival),
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
        self.arrival.save(w);
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
        self.arrival = Snapshot::load(r)?;
        if self.arrival.is_some() && self.req_slots.is_empty() {
            return Err(SnapshotError::Corrupt(
                "a pending arrival but no request slot".into(),
            ));
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
        let queued = self.accels.iter().flat_map(|a| a.input().waiting());
        for entry in queued.chain(self.shared_queue.iter().map(|job| &job.entry)) {
            let addr = CallAddr::from_tag(entry.tag);
            self.check_carried("a queued entry", addr, entry.data_bytes)?;
        }
        Ok(())
    }

    /// Checks that `in_bytes` is the size walking hop `addr`'s segment
    /// gives. A request that is gone passes: its work is dropped unread.
    fn check_carried(
        &self,
        what: &str,
        addr: CallAddr,
        in_bytes: u64,
    ) -> Result<(), SnapshotError> {
        let Some(&slot) = self.req_slots.get(addr.req as usize) else {
            return Err(SnapshotError::Corrupt(format!(
                "{what} names request {} of {}",
                addr.req,
                self.req_slots.len()
            )));
        };
        let Some(request) = self.requests.get(slot).filter(|r| !r.done) else {
            return Ok(());
        };
        match request.program.walk_in_bytes(addr) {
            Some(walk) if walk == in_bytes => Ok(()),
            Some(walk) => Err(SnapshotError::Corrupt(format!(
                "{what} carries {in_bytes} B into {addr:?}, its walk {walk} B"
            ))),
            None => Err(SnapshotError::Corrupt(format!(
                "{what} names {addr:?}, no hop of its program"
            ))),
        }
    }
}

/// The configuration-identity hash carried in the fleet snapshot
/// header: FNV-1a over the config's `Debug` rendering plus
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
    /// Checks a pending event against the restored machine: a hop
    /// arrival's carried size, and the size held by the PE a completion
    /// names, must be what walking the hop's segment gives.
    pub(crate) fn check_pending(&self, ev: &Ev) -> Result<(), SnapshotError> {
        let ctx = &self.ctx;
        match *ev {
            Ev::HopArrive(HopArrival { addr, in_bytes }) => {
                ctx.check_carried("a hop arrival", addr, in_bytes)
            }
            Ev::PeDone {
                addr, accel, pe, ..
            } => {
                let station = ctx.accels.get(accel as usize);
                let Some(bytes) = station.and_then(|a| a.running_bytes(pe as usize)) else {
                    return Err(SnapshotError::Corrupt(format!(
                        "a PE completion names idle PE {pe} of station {accel}"
                    )));
                };
                ctx.check_carried("a busy PE", addr, bytes)
            }
            _ => Ok(()),
        }
    }

    /// The headerless machine body of a fleet snapshot, one per node.
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
        let mut machine = Machine::new(cfg.clone(), service_names.to_vec(), SimTime::ZERO, 0);
        machine.ctx.load_dynamic(r)?;
        Ok(machine)
    }
}
