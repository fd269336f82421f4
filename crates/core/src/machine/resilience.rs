//! Fault injection and recovery: the machine-side handlers for
//! [`crate::faults`] (see `docs/RESILIENCE.md`).
//!
//! Injection: each enabled fault class is a Poisson process that
//! re-arms itself through [`Ev::FaultInject`], drawn from the
//! injector's private RNG stream — the workload streams never see a
//! fault draw, so a zero-rate config is bit-identical to no injector.
//!
//! Recovery is layered: a failed hop is **retried** (bounded, with
//! exponential backoff; software designs pay a core submit per retry,
//! the dispatcher family re-issues from hardware —
//! [`Transition::recovery_via_core`](crate::policy::Transition::recovery_via_core)),
//! admission routes around **dark stations** to sibling instances
//! ([`MachineCtx::route_station`]), and when retries exhaust the rest
//! of the segment **degrades** to the existing CPU fallback. Every
//! decision is counted in [`FaultStats`](crate::faults::FaultStats)
//! and checked by the auditor's resilience invariants (no request lost
//! or double-completed under any injected fault).

use accelflow_sim::engine::Schedule;
use accelflow_sim::telemetry::CompId;
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::kind::AccelKind;

use crate::faults::FaultClass;
use crate::request::CallAddr;

use super::lifecycle::call_arg;
use super::{Ev, MachineCtx};

impl MachineCtx {
    /// Whether `station`'s PEs may start work at `now`: not inside a
    /// fault-injected stall window, and lit by the autoscaler (always
    /// true when both subsystems are off).
    pub(crate) fn station_available(&self, station: usize, now: SimTime) -> bool {
        self.faults
            .as_ref()
            .is_none_or(|f| f.avail.is_available(station, now))
            && self.control.as_ref().is_none_or(|c| c.station_lit(station))
    }

    /// Whether any station could currently be dark — fault injection
    /// live, or the autoscaler managing a lit set. The dispatch paths
    /// use this to keep the no-darkness fast path a single branch.
    pub(crate) fn stations_may_be_dark(&self) -> bool {
        self.faults.is_some() || self.control.as_ref().is_some_and(|c| c.scaler_active())
    }

    /// Dispatcher-side routing with darkness awareness: prefers the
    /// least-backlogged *available* instance of `kind`, counting a
    /// re-dispatch when that skips a dark station the plain
    /// least-loaded rule would have picked. With every instance dark
    /// the work queues at the least-loaded one anyway — its SRAM still
    /// buffers, and PEs resume at [`Ev::StallEnd`].
    pub(crate) fn route_station(&mut self, kind: AccelKind, now: SimTime) -> usize {
        let preferred = self.least_loaded_station(kind);
        if !self.stations_may_be_dark() || self.station_available(preferred, now) {
            return preferred;
        }
        let lit = self
            .stations_of(kind)
            .filter(|&i| self.station_available(i, now))
            .min_by_key(|&i| self.accels[i].input().backlog());
        match lit {
            Some(station) => {
                // Routing around a *fault*-dark station is a counted
                // re-dispatch; skipping a scaler-darkened sibling is
                // just the intended lit-set routing.
                if let Some(f) = self.faults.as_mut() {
                    f.stats.redispatches += 1;
                }
                station
            }
            None => preferred,
        }
    }

    /// One fault of `class` fires. The class's Poisson stream re-arms
    /// first, so the chain survives whatever the fault does below.
    pub(crate) fn on_fault_inject(
        &mut self,
        now: SimTime,
        class: FaultClass,
        queue: &mut impl Schedule<Ev>,
    ) {
        if let Some(gap) = self.faults.as_mut().and_then(|f| f.draw_gap(class)) {
            queue.schedule(gap, Ev::FaultInject(class));
        }
        match class {
            FaultClass::AccelStall => self.inject_stall(now, queue),
            FaultClass::DmaError => {
                let f = self.faults.as_mut().expect("fault event implies injector");
                f.pending_dma_errors += 1;
                f.stats.dma_errors += 1;
                self.tel_instant_sys(now, CompId::DMA, "fault_dma_error");
            }
            FaultClass::TlbShootdown => self.inject_shootdown(now),
            FaultClass::QueueDrop => self.inject_queue_drop(now, queue),
            FaultClass::AtmMiss => {
                let f = self.faults.as_mut().expect("fault event implies injector");
                f.pending_atm_misses += 1;
                f.stats.atm_misses += 1;
                self.tel_instant_sys(now, CompId::ATM, "fault_atm_miss");
            }
        }
    }

    /// A station's PEs go dark for a drawn duration; jobs running there
    /// fail (poisoned; their `PeDone` routes to recovery).
    fn inject_stall(&mut self, now: SimTime, queue: &mut impl Schedule<Ev>) {
        let stations = self.accels.len();
        let (station, dur) = {
            let f = self.faults.as_mut().expect("fault event implies injector");
            let station = f.rng.index(stations);
            let mean = (f.cfg.stall_duration.as_picos() as f64).max(1.0);
            let dur = SimDuration::from_picos(f.rng.exponential(mean).min(3.6e15) as u64)
                .max(SimDuration::from_picos(1));
            (station, dur)
        };
        let failed: Vec<usize> = self.accels[station].busy_pe_indices().collect();
        let f = self.faults.as_mut().expect("fault event implies injector");
        let until = f.avail.darken(station, now, dur);
        f.stats.stalls += 1;
        f.stats.jobs_failed += failed.len() as u64;
        for pe in failed {
            f.poison(station, pe);
        }
        if let Some(aud) = self.auditor.as_mut() {
            aud.record_station_dark(now, station, until);
        }
        self.tel_instant_sys(now, CompId::accelerator(station as u16), "fault_stall");
        queue.schedule_at(until, Ev::StallEnd(station as u8));
    }

    /// Shootdown storm: every accelerator TLB invalidated at once.
    fn inject_shootdown(&mut self, now: SimTime) {
        let mut flushed = 0;
        for acc in &mut self.accels {
            flushed += acc.tlb_mut().flush_all();
        }
        let f = self.faults.as_mut().expect("fault event implies injector");
        f.stats.tlb_shootdowns += 1;
        f.stats.tlb_entries_flushed += flushed;
        self.tel_instant_sys(now, CompId::MACHINE, "fault_tlb_shootdown");
    }

    /// One occupied SRAM input-queue entry is lost before reaching a
    /// PE; the orphaned call re-enters through recovery.
    fn inject_queue_drop(&mut self, now: SimTime, queue: &mut impl Schedule<Ev>) {
        let stations = self.accels.len();
        let start = self
            .faults
            .as_mut()
            .expect("fault event implies injector")
            .rng
            .index(stations);
        // First station with SRAM entries, scanning from a random
        // start; every queue empty means the glitch hit vacant slots.
        let Some(station) = (0..stations)
            .map(|k| (start + k) % stations)
            .find(|&i| !self.accels[i].input().is_empty())
        else {
            return;
        };
        let len = self.accels[station].input().len();
        let f = self.faults.as_mut().expect("fault event implies injector");
        let idx = f.rng.index(len);
        f.stats.queue_drops += 1;
        let entry = self.accels[station].drop_entry(idx);
        self.tel_instant_sys(now, CompId::accelerator(station as u16), "fault_queue_drop");
        self.recover_call(now, CallAddr::from_tag(entry.tag), entry.data_bytes, queue);
    }

    /// A station's stall window may have ended: wake its input queue
    /// (and the shared queue under RELIEF).
    pub(crate) fn on_stall_end(
        &mut self,
        now: SimTime,
        station: u8,
        queue: &mut impl Schedule<Ev>,
    ) {
        if !self.station_available(station as usize, now) {
            // A later stall extended the window; its own StallEnd wakes.
            return;
        }
        self.tel_instant_sys(now, CompId::accelerator(station as u16), "stall_end");
        if self.transition.single_shared_queue() {
            self.dispatch_shared(now, queue);
        }
        self.schedule_try_start(station as usize, queue);
    }

    /// Consumes one armed A-DMA transfer error, if any: the transfer
    /// still occupied its engine until `at`, but the payload arrives
    /// corrupt and is discarded. Returns true when the caller must
    /// suppress the normal delivery (hop `addr` re-enters via recovery
    /// with `in_bytes`, the size the lost payload carried into it).
    pub(crate) fn dma_transfer_faulted(
        &mut self,
        at: SimTime,
        addr: CallAddr,
        in_bytes: u64,
        queue: &mut impl Schedule<Ev>,
    ) -> bool {
        let Some(f) = self.faults.as_mut() else {
            return false;
        };
        if f.pending_dma_errors == 0 {
            return false;
        }
        f.pending_dma_errors -= 1;
        self.tel_instant(at, CompId::DMA, "dma_corrupt", addr.req);
        self.recover_call(at, addr, in_bytes, queue);
        true
    }

    /// Consumes one armed ATM fetch miss, if any, returning the extra
    /// refetch latency the synchronous read pays.
    pub(crate) fn atm_read_penalty(&mut self, at: SimTime, addr: CallAddr) -> SimDuration {
        let Some(f) = self.faults.as_mut() else {
            return SimDuration::ZERO;
        };
        if f.pending_atm_misses == 0 {
            return SimDuration::ZERO;
        }
        f.pending_atm_misses -= 1;
        f.stats.atm_refetches += 1;
        let penalty = f.cfg.atm_miss_penalty;
        self.tel_instant(at, CompId::ATM, "atm_refetch", addr.req);
        self.charge(addr.req, |b| b.communication += penalty);
        penalty
    }

    /// Takes the poison flag for `(station, pe)` — set when a stall
    /// failed the job mid-flight. Must run at *every* `PeDone`, even
    /// for dead requests, so a flag never outlives the slot's current
    /// occupant.
    pub(crate) fn pe_job_poisoned(&mut self, station: usize, pe: usize) -> bool {
        self.faults
            .as_mut()
            .map(|f| f.take_poisoned(station, pe))
            .unwrap_or(false)
    }

    /// The recovery policy for a failed hop: bounded retry with
    /// exponential backoff, then degradation of the segment remainder
    /// to the CPU fallback. Retried first hops re-enter ordinary
    /// admission, which routes around dark stations (sibling
    /// re-dispatch). The attempt budget is per call position
    /// ([`CallAddr::tag`]) over the request's lifetime. `in_bytes` is
    /// the payload size entering the failed hop; the retry carries it
    /// again.
    pub(crate) fn recover_call(
        &mut self,
        at: SimTime,
        addr: CallAddr,
        in_bytes: u64,
        queue: &mut impl Schedule<Ev>,
    ) {
        if self.req_gone(addr.req) {
            return;
        }
        let tag = addr.tag();
        let (spent, max_retries) = {
            let f = self.faults.as_mut().expect("recovery implies injector");
            let max = f.cfg.max_retries;
            let spent = match f.retries.iter().find(|(t, _)| *t == tag) {
                Some(&(_, n)) => n,
                None => {
                    f.retries.push((tag, 0));
                    0
                }
            };
            (spent, max)
        };
        if spent >= max_retries {
            let f = self.faults.as_mut().expect("recovery implies injector");
            if let Some(pos) = f.retries.iter().position(|(t, _)| *t == tag) {
                f.retries.swap_remove(pos);
            }
            f.stats.degraded += 1;
            self.totals.fallbacks += 1;
            self.tel_instant_arg(
                at,
                CompId::MACHINE,
                "fault_degrade",
                addr.req,
                call_arg(addr.step, addr.par),
            );
            self.fallback_segment(at, addr, in_bytes, queue);
            return;
        }
        let (attempt, backoff) = {
            let f = self.faults.as_mut().expect("recovery implies injector");
            let a = &mut f
                .retries
                .iter_mut()
                .find(|(t, _)| *t == tag)
                .expect("entry just inserted")
                .1;
            *a += 1;
            let attempt = *a;
            let backoff = f.cfg.backoff_after(attempt - 1);
            f.stats.retries += 1;
            f.stats.backoff_time += backoff;
            (attempt, backoff)
        };
        if let Some(aud) = self.auditor.as_mut() {
            aud.record_retry(at, attempt, max_retries);
        }
        self.tel_instant_arg(at, CompId::MACHINE, "fault_retry", addr.req, attempt as u64);
        let ready = if self.transition.recovery_via_core() {
            // Software-managed designs: a core notices the failure and
            // re-submits (same overhead as an external-response pickup).
            let submit = self.cfg.arch.cpu_submit_overhead;
            let b = self.cores.acquire(at, submit);
            self.energy.add_core_busy(submit);
            self.charge(addr.req, |bd| bd.orchestration += submit);
            b.finish
        } else {
            at
        };
        queue.schedule_at(ready + backoff, Ev::hop_arrive(addr, in_bytes));
    }

    /// Drops retry bookkeeping for a terminating request (called from
    /// `complete_request`), keeping the map bounded by the live set.
    pub(crate) fn prune_retries(&mut self, req: u32) {
        if let Some(f) = self.faults.as_mut() {
            if !f.retries.is_empty() {
                f.retries.retain(|&(tag, _)| (tag >> 32) as u32 != req);
            }
        }
    }
}
