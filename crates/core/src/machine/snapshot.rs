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
//! size of a live request against the walk of its segment. It also
//! checks every index a resumed run reads unguarded: each request's
//! and the pending arrival's service, and what each pending event
//! names ([`Machine::check_pending`]).

use accelflow_sim::impl_snapshot;
use accelflow_sim::slab::SlotId;
use accelflow_sim::snapshot::{fnv1a, SnapReader, SnapWriter, Snapshot, SnapshotError};
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::kind::AccelKind;

use crate::arrivals::Arrival;
use crate::control::ControlState;
use crate::faults::FaultState;
use crate::request::ServiceSpec;
use crate::request::{CallAddr, ServiceId};
use crate::stats::{Breakdown, MachineTotals, ServiceStats};

use super::accounting::TelState;
use super::dispatch::SharedJob;
use super::lifecycle::RequestState;
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
        // Fault and control state each carry a copy of their
        // configuration and are sized by the station table: both must
        // match the state the configuration builds.
        let (built_faults, built_control) = (self.faults.take(), self.control.take());
        self.faults = Snapshot::load(r)?;
        self.control = Snapshot::load(r)?;
        if self.faults.as_deref().map(FaultState::layout)
            != built_faults.as_deref().map(FaultState::layout)
            || self.control.as_deref().map(ControlState::layout)
                != built_control.as_deref().map(ControlState::layout)
        {
            return Err(SnapshotError::Corrupt(
                "fault or control state of another configuration".into(),
            ));
        }
        // The autoscaler and the telemetry sampler difference each
        // station's busy time against their last sample of it.
        let samples = self.control.as_ref().map(|c| &c.prev_busy);
        for prev in samples
            .into_iter()
            .chain(self.tel.as_ref().map(|t| &t.prev_busy))
        {
            let mut stations = prev.iter().zip(&self.accels);
            if prev.len() != self.accels.len()
                || stations.any(|(&busy, a)| busy > a.busy_time().as_picos())
            {
                return Err(SnapshotError::Corrupt(
                    "busy-time samples that do not fit the stations".into(),
                ));
            }
        }
        let atm_reads = r.u64()?;
        let atm_writes = r.u64()?;
        self.lib.atm_mut().restore_counters(atm_reads, atm_writes);
        let requests = self
            .req_slots
            .iter()
            .filter_map(|&slot| self.requests.get(slot));
        let services = requests
            .map(|r| r.service)
            .chain(self.arrival.as_ref().map(|a| a.service));
        for service in services {
            if service.0 >= self.stats.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "a request of service {} of {}",
                    service.0,
                    self.stats.len()
                )));
            }
        }
        let queued = self.accels.iter().flat_map(|a| a.input().waiting());
        for entry in queued.chain(self.shared_queue.iter().map(|job| &job.entry)) {
            let addr = CallAddr::from_tag(entry.tag);
            self.check_hop("a queued entry", addr, Some(entry.data_bytes))?;
        }
        Ok(())
    }

    /// The request `req` names, or `None` when it is gone (its events
    /// are dropped unread). An index past the table, or of an arrival
    /// never admitted, is corrupt.
    fn live_request(&self, what: &str, req: u32) -> Result<Option<&RequestState>, SnapshotError> {
        match self.req_slots.get(req as usize) {
            Some(&slot) if slot != SlotId::INVALID => {
                Ok(self.requests.get(slot).filter(|r| !r.done))
            }
            _ => Err(SnapshotError::Corrupt(format!(
                "{what} names request {req} of {}, not admitted",
                self.req_slots.len()
            ))),
        }
    }

    /// Checks that `addr` names a hop of its request's program and, if
    /// `carried` holds a size, that walking the hop's segment gives it.
    /// A request that is gone passes: its work is dropped unread.
    fn check_hop(
        &self,
        what: &str,
        addr: CallAddr,
        carried: Option<u64>,
    ) -> Result<(), SnapshotError> {
        let Some(request) = self.live_request(what, addr.req)? else {
            return Ok(());
        };
        match (request.program.walk_in_bytes(addr), carried) {
            (Some(walk), Some(in_bytes)) if walk != in_bytes => Err(SnapshotError::Corrupt(
                format!("{what} carries {in_bytes} B into {addr:?}, its walk {walk} B"),
            )),
            (Some(_), _) => Ok(()),
            (None, _) => Err(SnapshotError::Corrupt(format!(
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
    /// Checks a pending event against the restored machine: whatever
    /// its handler reads without a guard must be there. An arrival
    /// names the pushed arrival's slot; a start or app stage names a
    /// live request; a call's completion or timeout, a request index;
    /// a hop arrival, retry, external response or fallback, a hop of a
    /// live request's program (a hop arrival with the size walking its
    /// segment gives); a PE completion, a busy PE holding that size;
    /// a start or stall end, a station; a fault, the injector.
    pub(crate) fn check_pending(&self, ev: &Ev) -> Result<(), SnapshotError> {
        let ctx = &self.ctx;
        match *ev {
            Ev::Arrive(idx) => {
                if ctx.arrival.is_none() || idx as usize + 1 != ctx.req_slots.len() {
                    return Err(SnapshotError::Corrupt(format!(
                        "an arrival names slot {idx} of {}, pushed arrival {}",
                        ctx.req_slots.len(),
                        ctx.arrival.is_some()
                    )));
                }
                Ok(())
            }
            Ev::StartStep(req) | Ev::AppDone(req) => match ctx.live_request("a step", req)? {
                Some(_) => Ok(()),
                None => Err(SnapshotError::Corrupt(format!(
                    "a step of finished request {req}"
                ))),
            },
            Ev::CallDone { req, .. } | Ev::Timeout { req, .. } => {
                ctx.live_request("a call's end", req).map(|_| ())
            }
            Ev::HopArrive(HopArrival { addr, in_bytes }) => {
                ctx.check_hop("a hop arrival", addr, Some(in_bytes))
            }
            Ev::HopArriveRetry(addr)
            | Ev::ExternalArrive(addr)
            | Ev::ExternalArriveCpu(addr)
            | Ev::FallbackDone(addr) => ctx.check_hop("a call event", addr, None),
            Ev::PeDone {
                addr, accel, pe, ..
            } => {
                let station = ctx.accels.get(accel as usize);
                let Some(bytes) = station.and_then(|a| a.running_bytes(pe as usize)) else {
                    return Err(SnapshotError::Corrupt(format!(
                        "a PE completion names idle PE {pe} of station {accel}"
                    )));
                };
                ctx.check_hop("a busy PE", addr, Some(bytes))
            }
            Ev::TryStart(station) | Ev::StallEnd(station) => {
                if station as usize >= ctx.accels.len() {
                    return Err(SnapshotError::Corrupt(format!(
                        "an event names station {station} of {}",
                        ctx.accels.len()
                    )));
                }
                Ok(())
            }
            Ev::FaultInject(_) if ctx.faults.is_none() => Err(SnapshotError::Corrupt(
                "a fault event without an injector".into(),
            )),
            Ev::FaultInject(_) | Ev::ScaleTick => Ok(()),
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

#[cfg(test)]
mod tests {
    use accelflow_sim::engine::EventQueue;
    use accelflow_trace::templates::TemplateId;

    use super::*;
    use crate::faults::{FaultClass, FaultConfig};
    use crate::policy::Policy;
    use crate::request::{CallSpec, StageSpec};

    /// A machine just past its first admission: request 0 is live,
    /// arrival 1 is pushed and not yet admitted.
    fn mid_run(cfg: MachineConfig) -> (Machine, Vec<String>) {
        let services = [ServiceSpec::new(
            "Ping",
            vec![StageSpec::Call(CallSpec::new(TemplateId::T1))],
        )];
        let names = service_names(&services);
        let horizon = SimDuration::from_millis(2);
        let mut arrivals = cfg
            .poisson_arrivals(&services, 5_000.0, horizon, 1)
            .into_iter();
        let first = arrivals.next().expect("an arrival");
        let mut machine = Machine::new(cfg, names.clone(), SimTime::ZERO + horizon, 1);
        let mut queue = EventQueue::with_capacity(0);
        let at = first.at;
        let idx = machine.push_arrival(first);
        queue.schedule_at(at, Ev::Arrive(idx));
        queue.run_until(at + SimDuration::from_nanos(1), |now, ev, q| {
            machine.handle_event(now, ev, q)
        });
        assert!(!machine.ctx.req_gone(0), "request 0 is in flight");
        machine.push_arrival(arrivals.next().expect("a second arrival"));
        (machine, names)
    }

    fn assert_corrupt<T>(result: Result<T, SnapshotError>, what: &str) {
        match result {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
            Err(other) => panic!("{what}: expected Corrupt, got {other:?}"),
            Ok(_) => panic!("{what}: expected Corrupt, got Ok"),
        }
    }

    /// Saves `machine` and restores the bytes into a machine rebuilt
    /// from its configuration.
    fn round_trip(machine: &Machine, names: &[String]) -> Result<Machine, SnapshotError> {
        let mut w = SnapWriter::new();
        machine.save_dynamic(&mut w);
        let bytes = w.into_bytes();
        Machine::restore_dynamic(&machine.ctx.cfg, names, &mut SnapReader::new(&bytes))
    }

    #[test]
    fn pending_events_name_admitted_requests() {
        let (machine, _) = mid_run(MachineConfig::new(Policy::AccelFlow));
        let events = |req| {
            [
                Ev::StartStep(req),
                Ev::AppDone(req),
                Ev::CallDone {
                    req,
                    step: 0,
                    par: 0,
                    error: false,
                },
                Ev::Timeout {
                    req,
                    step: 0,
                    par: 0,
                },
            ]
        };
        for ev in events(0) {
            assert_eq!(machine.check_pending(&ev), Ok(()), "{ev:?}");
        }
        // Request 1 is pushed but not admitted; 2 is past the table.
        for ev in events(1).into_iter().chain(events(2)) {
            assert_corrupt(machine.check_pending(&ev), "not admitted");
        }
        assert_eq!(machine.check_pending(&Ev::Arrive(1)), Ok(()));
        assert_corrupt(machine.check_pending(&Ev::Arrive(0)), "arrival");
    }

    #[test]
    fn pending_call_events_name_a_hop_of_their_program() {
        let (machine, _) = mid_run(MachineConfig::new(Policy::AccelFlow));
        let first = CallAddr::from_tag(0);
        let events = |addr| {
            [
                Ev::HopArriveRetry(addr),
                Ev::ExternalArrive(addr),
                Ev::ExternalArriveCpu(addr),
                Ev::FallbackDone(addr),
            ]
        };
        for ev in events(first) {
            assert_eq!(machine.check_pending(&ev), Ok(()), "{ev:?}");
        }
        let past = [
            CallAddr { step: 1, ..first },
            CallAddr { par: 1, ..first },
            CallAddr { seg: 200, ..first },
            CallAddr { hop: 200, ..first },
        ];
        for ev in past.into_iter().flat_map(events) {
            assert_corrupt(machine.check_pending(&ev), "no hop");
        }
    }

    #[test]
    fn pending_events_name_stations_in_range() {
        let (machine, _) = mid_run(MachineConfig::new(Policy::AccelFlow));
        let last = machine.ctx.accels.len() as u8 - 1;
        for station in [0, last] {
            assert_eq!(machine.check_pending(&Ev::TryStart(station)), Ok(()));
            assert_eq!(machine.check_pending(&Ev::StallEnd(station)), Ok(()));
        }
        for station in [last + 1, u8::MAX] {
            assert_corrupt(machine.check_pending(&Ev::TryStart(station)), "station");
            assert_corrupt(machine.check_pending(&Ev::StallEnd(station)), "station");
        }
        // No injector, so no fault can be pending.
        let fault = Ev::FaultInject(FaultClass::AccelStall);
        assert_corrupt(machine.check_pending(&fault), "injector");
    }

    #[test]
    fn restore_rejects_a_service_past_the_stats_table() {
        let (mut machine, names) = mid_run(MachineConfig::new(Policy::AccelFlow));
        round_trip(&machine, &names).expect("the machine's own bytes restore");
        let slot = machine.ctx.req_slots[0];
        let request = machine.ctx.requests.get_mut(slot).expect("live");
        request.service = ServiceId(1);
        assert_corrupt(round_trip(&machine, &names), "service 1 of 1");
        machine.ctx.requests.get_mut(slot).expect("live").service = ServiceId(0);
        machine.ctx.arrival.as_mut().expect("pushed").service = ServiceId(7);
        assert_corrupt(round_trip(&machine, &names), "service 7 of 1");
    }

    #[test]
    fn restore_rejects_fault_state_of_another_configuration() {
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.faults = FaultConfig::uniform(1.0);
        let (mut machine, names) = mid_run(cfg);
        round_trip(&machine, &names).expect("the machine's own bytes restore");
        let faults = machine.ctx.faults.as_mut().expect("injector");
        faults.cfg.stall_rate_per_ms *= 1e9;
        assert_corrupt(round_trip(&machine, &names), "another configuration");
    }
}
