//! Accelerator dispatch: input-queue admission, the PE inner loop, and
//! RELIEF's shared-queue scheduling.
//!
//! A payload landing at a station ([`MachineCtx::on_hop_arrive`]) is
//! admitted to an input queue (or bounced to the CPU fallback when
//! every instance rejects it), started on a free PE
//! ([`MachineCtx::begin_pe`]), and completed by
//! [`MachineCtx::on_pe_done`], which hands the policy-defining hop
//! transition to the [`transfer`](super::transfer) module. Each
//! handler that can make a station startable (an admission, a freed
//! PE, a stall's end) ends with [`MachineCtx::start_queued`], the
//! input dispatcher starting queued work on free PEs. Designs with a
//! single shared queue (RELIEF) go through
//! [`MachineCtx::dispatch_shared`] instead of per-station queues.

use accelflow_accel::queue::{PushOutcome, QueueEntry, RequestId};
use accelflow_sim::engine::Schedule;
use accelflow_sim::telemetry::CompId;
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::kind::AccelKind;

use crate::request::CallAddr;

use super::{Ev, HopArrival, MachineCtx};

/// A job waiting in RELIEF's single shared queue.
#[derive(Clone, Debug)]
pub(crate) struct SharedJob {
    pub(crate) entry: QueueEntry,
    pub(crate) kind: AccelKind,
}

impl MachineCtx {
    pub(crate) fn on_hop_arrive(
        &mut self,
        now: SimTime,
        arrival: HopArrival,
        queue: &mut impl Schedule<Ev>,
    ) {
        let addr = arrival.addr;
        if self.req_gone(addr.req) {
            return; // e.g. a response arriving after a timeout
        }
        let (kind, entry) = self.make_entry(now, arrival);
        if self.transition.single_shared_queue() {
            self.shared_queue.push_back(SharedJob { entry, kind });
            self.energy.add_queue_accesses(1);
            self.dispatch_shared(now, queue);
            return;
        }
        let from_core = addr.hop == 0 && addr.seg == 0 && {
            let r = self.req(addr.req);
            !r.program.segment(addr).entry_is_network
        };
        let (station, outcome) = if from_core {
            self.admit_entry_from_core(now, kind, entry)
        } else {
            let station = self.route_station(kind, now);
            (station, self.accels[station].admit_from_dispatcher(entry))
        };
        self.energy.add_queue_accesses(1);
        match outcome {
            PushOutcome::Accepted | PushOutcome::Overflowed => {
                self.start_queued(now, station, queue);
            }
            PushOutcome::Rejected => {
                // Starvation/deadlock escape (§IV-A): fall back to CPU
                // for the rest of the segment.
                self.totals.fallbacks += 1;
                self.tel_instant(now, CompId::MACHINE, "fallback", addr.req);
                self.fallback_segment(now, addr, arrival.in_bytes, queue);
            }
        }
    }

    /// Core-side admission: the Enqueue instruction errors on a full
    /// queue, and the core retries each instance of the type before
    /// falling back. When fault injection is live, instances whose PEs
    /// are stalled dark are tried *last* (their queues still buffer
    /// work for `StallEnd`, but an available sibling is preferred —
    /// counted as a re-dispatch).
    fn admit_entry_from_core(
        &mut self,
        now: SimTime,
        kind: AccelKind,
        entry: QueueEntry,
    ) -> (usize, PushOutcome) {
        let mut entry = Some(entry);
        let mut skipped_dark = false;
        for pass in 0..2 {
            for i in self.stations_of(kind) {
                if (pass == 0) != self.station_available(i, now) {
                    if pass == 0 {
                        skipped_dark = true;
                    }
                    continue;
                }
                match self.accels[i].admit_from_core(entry.take().expect("entry present")) {
                    Ok(()) => {
                        if pass == 0 && skipped_dark {
                            if let Some(f) = self.faults.as_mut() {
                                f.stats.redispatches += 1;
                            }
                        }
                        return (i, PushOutcome::Accepted);
                    }
                    Err(back) => entry = Some(back),
                }
            }
            if !self.stations_may_be_dark() {
                break; // no station is ever dark; one pass covers all
            }
        }
        (self.stations_of(kind).start, PushOutcome::Rejected)
    }

    /// The queue entry for a landed payload: the hop's accelerator and
    /// Position Mark from its segment's walk, the size it carries.
    fn make_entry(&self, now: SimTime, arrival: HopArrival) -> (AccelKind, QueueEntry) {
        let addr = arrival.addr;
        let r = self.req(addr.req);
        let call = r.program.call(addr.step, addr.par);
        let seg = call.segment(addr.seg as usize);
        let (kind, pm) = seg.mark(addr.hop as usize);
        let entry = QueueEntry {
            request: RequestId(addr.req as u64),
            tenant: r.tenant,
            pm,
            data_bytes: arrival.in_bytes,
            flags: seg.flags,
            vaddr: call.vaddr() + ((addr.seg as u64) << 12),
            deadline: r.deadline,
            priority: r.program.priority(),
            enqueued_at: now,
            origin_core: 0,
            tag: addr.tag(),
        };
        (kind, entry)
    }

    /// How far RELIEF's manager can look past the head of its shared
    /// queue for a runnable job. The manager schedules out of one
    /// queue but is not strictly FIFO-blocked (otherwise Fig 13's
    /// PerAccTypeQ step would be worth far more than the paper's 6.8%);
    /// a bounded scan window models its reordering ability.
    const SHARED_QUEUE_WINDOW: usize = 12;

    /// RELIEF base: one shared queue for all accelerator types, with
    /// bounded look-ahead (residual head-of-line blocking).
    pub(crate) fn dispatch_shared(&mut self, now: SimTime, queue: &mut impl Schedule<Ev>) {
        loop {
            let pick = self
                .shared_queue
                .iter()
                .take(Self::SHARED_QUEUE_WINDOW)
                .position(|job| {
                    self.stations_of(job.kind)
                        .any(|i| self.accels[i].has_free_pe() && self.station_available(i, now))
                });
            let Some(pos) = pick else { return };
            let job = self.shared_queue.remove(pos).expect("position exists");
            let idx = self
                .stations_of(job.kind)
                .find(|&i| self.accels[i].has_free_pe() && self.station_available(i, now))
                .expect("checked a free PE exists");
            let admitted = self.accels[idx].admit_from_dispatcher(job.entry);
            debug_assert_ne!(
                admitted,
                PushOutcome::Rejected,
                "free-PE accel has queue space"
            );
            if let Some(started) = self.accels[idx].start_next(now) {
                self.begin_pe(now, idx, started, queue);
            }
        }
    }

    /// The input dispatcher FSM: starts queued work on `station`'s
    /// free PEs, unless the station is dark (its queue then waits for
    /// the [`Ev::StallEnd`] that lights it). Runs last in each handler
    /// that can make a station startable, so the work that handler
    /// books precedes the starts'.
    pub(crate) fn start_queued(
        &mut self,
        now: SimTime,
        station: usize,
        queue: &mut impl Schedule<Ev>,
    ) {
        if !self.station_available(station, now) {
            return;
        }
        while let Some(started) = self.accels[station].start_next(now) {
            self.begin_pe(now, station, started, queue);
        }
    }

    fn begin_pe(
        &mut self,
        now: SimTime,
        accel_idx: usize,
        started: accelflow_accel::accelerator::StartedJob,
        queue: &mut impl Schedule<Ev>,
    ) {
        let addr = CallAddr::from_tag(started.entry.tag);
        if let Some(aud) = self.auditor.as_mut() {
            aud.record_pe_start(now, accel_idx);
        }
        if self.req_gone(addr.req) {
            // Owner gave up (timeout); release the PE immediately. The
            // caller's start loop takes the freed PE.
            self.accels[accel_idx].complete(started.pe, SimDuration::ZERO);
            return;
        }
        let entry = &started.entry;
        let kind = self.accels[accel_idx].kind();
        let inline = entry.inline_bytes(self.cfg.arch.queue_entry_inline_bytes);
        let spilled = entry.spilled_bytes(self.cfg.arch.queue_entry_inline_bytes);

        // 1. Load inputs into the scratchpad.
        let mut load = self.cfg.arch.queue_to_scratchpad(inline);
        // 2. Memory-Pointer data comes through the coherent hierarchy.
        if spilled > 0 {
            load += self.cfg.arch.payload_access(spilled);
            let dram = spilled / 2; // coherent read, partially cached
            self.bus.stream(now, dram);
            // Designs with a centralized manager bounce Memory-Pointer
            // payloads to it (the final AccelFlow rung moves this into
            // the dispatchers); the occupancy each design pays comes
            // from its transition.
            if let Some(occupancy) = self.transition.spill_occupancy(&self.cfg.arch) {
                let b = self
                    .manager
                    .acquire(now + self.cfg.arch.manager_latency, occupancy);
                let wait = b.finish.saturating_since(now);
                self.charge(addr.req, |bd| bd.orchestration += wait);
                self.tel_span(b.start, CompId::MANAGER, "manager", occupancy, addr.req, 0);
                load += wait;
            }
        }
        // 3. Address translation through the accelerator TLB/IOMMU.
        let pid = accelflow_arch::tlb::ProcessId(entry.tenant.0 as u32);
        let (tlb_lat, _misses) =
            self.accels[accel_idx]
                .tlb_mut()
                .translate_range(pid, entry.vaddr, entry.data_bytes);
        // 4. Tenant isolation: wipe PE state between tenants (§IV-D).
        let wipe = if started.tenant_wipe {
            self.cfg
                .arch
                .queue_to_scratchpad(self.cfg.arch.scratchpad_bytes)
        } else {
            SimDuration::ZERO
        };
        // 5. The compute phase C/S.
        let compute = self.timing.accel_time(kind, entry.data_bytes);

        // Rare page fault: the accelerator stops and the OS handles it.
        let fault = if self.rng.chance(self.cfg.page_fault_prob) {
            self.totals.page_faults += 1;
            let b = self.cores.acquire(now, self.cfg.arch.exception_handling);
            self.energy.add_core_busy(self.cfg.arch.exception_handling);
            b.finish.saturating_since(now)
        } else {
            SimDuration::ZERO
        };

        let busy = load + tlb_lat + wipe + compute + fault;
        self.energy.add_accel_busy(busy);
        self.charge(addr.req, |b| {
            b.accel += compute;
            b.communication += load + tlb_lat;
            b.orchestration += wipe + fault;
        });
        let station = CompId::accelerator(accel_idx as u16);
        self.tel_span(
            now,
            station,
            "pe",
            busy,
            addr.req,
            started.queueing.as_picos(),
        );
        if started.tenant_wipe {
            self.tel_instant(now, station, "tenant_wipe", addr.req);
        }
        queue.schedule(
            busy,
            Ev::PeDone {
                addr,
                accel: accel_idx as u8,
                pe: started.pe as u8,
                busy_ps: busy.as_picos(),
            },
        );
    }

    pub(crate) fn on_pe_done(
        &mut self,
        now: SimTime,
        addr: CallAddr,
        accel: u8,
        pe: u8,
        busy_ps: u64,
        queue: &mut impl Schedule<Ev>,
    ) {
        // Take the poison flag unconditionally (before any early
        // return) so it never outlives this PE occupancy.
        let failed = self.pe_job_poisoned(accel as usize, pe as usize);
        // The PE hands back the size of the payload it ran.
        let in_bytes =
            self.accels[accel as usize].complete(pe as usize, SimDuration::from_picos(busy_ps));
        // Free PE: more queued work may start.
        if self.transition.single_shared_queue() {
            self.dispatch_shared(now, queue);
        }
        if !self.req_gone(addr.req) {
            if failed {
                // A stall killed this job mid-flight: its output is
                // void; the hop re-enters through recovery instead of
                // moving on.
                self.tel_instant(
                    now,
                    CompId::accelerator(accel as u16),
                    "pe_job_failed",
                    addr.req,
                );
                self.recover_call(now, addr, in_bytes, queue);
            } else {
                self.after_hop(now, addr, accel, in_bytes, queue);
            }
        }
        // After the transition, so its manager and core bookings
        // precede the started job's.
        self.start_queued(now, accel as usize, queue);
    }
}
