//! Payload movement: core→accelerator submission, the inter-hop
//! transition after a PE completes, and external-response re-entry.
//!
//! [`MachineCtx::after_hop`] is the policy-defining moment of the
//! model: the completed hop's output must reach its next station (or
//! the originating core). The *orchestration cost* of the transition
//! ([`MachineCtx::transition_cost`], one `match` over the policy's
//! [`Transition`]) and the *transfer mechanism*
//! ([`Transition::transfer_mode`]) both come from the policy table —
//! dispatcher glue + A-DMA for the AccelFlow family, manager
//! interrupts for RELIEF, core staging for CPU-Centric/Cohort, nothing
//! for Ideal.

use accelflow_arch::topology::Endpoint;
use accelflow_sim::engine::Schedule;
use accelflow_sim::telemetry::CompId;
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::kind::AccelKind;

use crate::policy::{cohort_linked, TransferMode, Transition};
use crate::request::{CallAddr, SegmentEnd};

use super::{Ev, MachineCtx};

/// The completed hop, copied out of the request table so the
/// transition can borrow the machine mutably.
struct HopInfo {
    kind: AccelKind,
    out_bytes: u64,
    glue_instrs: u32,
    branches_after: u8,
    transform_after: bool,
    fork_after: bool,
    next_kind: Option<AccelKind>,
    end: SegmentEnd,
    /// The next segment's entry size, if the call has one.
    next_entry_bytes: Option<u64>,
}

impl MachineCtx {
    /// Core-side submission of a fresh trace call (non-Non-acc
    /// policies): the policy's submit cost on a core, then a DMA of the
    /// payload into the first accelerator — unless the call enters as a
    /// network message, which lands at TCP directly.
    pub(crate) fn submit_call(
        &mut self,
        now: SimTime,
        addr: CallAddr,
        queue: &mut impl Schedule<Ev>,
    ) {
        debug_assert!(
            addr.seg == 0 && addr.hop == 0,
            "a call starts at its first hop"
        );
        let (entry_is_network, first_kind, bytes) = {
            let seg = self.req(addr.req).program.segment(addr);
            (seg.entry_is_network, seg.mark(0).0, seg.entry_bytes())
        };
        if entry_is_network {
            // The message lands at TCP directly; no core submission.
            queue.schedule(SimDuration::ZERO, Ev::hop_arrive(addr, bytes));
        } else {
            // The core prepares and submits the trace (Enqueue + A-DMA
            // programming for AccelFlow; heavier software paths for the
            // baselines).
            let submit = self.transition.submit_cost(&self.cfg.arch);
            let booking = if submit.is_zero() {
                None
            } else {
                Some(self.cores.acquire(now, submit))
            };
            if let Some(b) = &booking {
                self.energy.add_core_busy(submit);
                self.charge(addr.req, |bd| bd.orchestration += submit);
                let _ = b;
            }
            let start = booking.map(|b| b.finish).unwrap_or(now);
            // DMA the payload from the core into the first accelerator.
            let booking = self.dma.transfer(
                start,
                &self.net,
                Endpoint::Cores,
                Self::endpoint(first_kind),
                bytes,
            );
            self.energy.add_dma_bytes(bytes);
            self.energy.add_noc_bytes(bytes);
            let comm = booking.finish.saturating_since(start);
            self.charge(addr.req, |bd| bd.communication += comm);
            self.tel_span(
                booking.start,
                CompId::DMA,
                "dma",
                booking.finish.saturating_since(booking.start),
                addr.req,
                bytes,
            );
            if self.dma_transfer_faulted(booking.finish, addr, bytes, queue) {
                return;
            }
            queue.schedule_at(booking.finish, Ev::hop_arrive(addr, bytes));
        }
    }

    /// The policy-defining transition after a completed hop. `accel` is
    /// the station whose output dispatcher runs the transition (only
    /// telemetry attribution uses it); `in_bytes` is the payload size
    /// the hop ran on, which sizes its output.
    pub(crate) fn after_hop(
        &mut self,
        now: SimTime,
        addr: CallAddr,
        accel: u8,
        in_bytes: u64,
        queue: &mut impl Schedule<Ev>,
    ) {
        let info = {
            let call = self.req(addr.req).program.call(addr.step, addr.par);
            let seg = call.segment(addr.seg as usize);
            let hop = seg.exec(addr.hop as usize, in_bytes);
            let next_seg = addr.seg as usize + 1;
            HopInfo {
                kind: hop.kind,
                out_bytes: hop.out_bytes,
                glue_instrs: hop.glue_instrs,
                branches_after: hop.branches_after,
                transform_after: hop.transform_after,
                fork_after: hop.fork_after,
                next_kind: seg.kind(addr.hop as usize + 1),
                end: seg.end,
                next_entry_bytes: (next_seg < call.segment_count())
                    .then(|| call.segment(next_seg).entry_bytes()),
            }
        };

        // --- Orchestration cost of the transition ---
        let t = self.transition_cost(now, addr, accel, &info);

        // --- Fork a result copy to the CPU (T6), in parallel ---
        if info.fork_after {
            let notify = self.cfg.arch.notification_latency();
            self.charge(addr.req, |b| b.communication += notify);
            self.energy.add_noc_bytes(info.out_bytes);
        }

        // --- Move the payload to its next station ---
        if let Some(next) = info.next_kind {
            let next_addr = CallAddr {
                hop: addr.hop + 1,
                ..addr
            };
            let from = Self::endpoint(info.kind);
            let to = Self::endpoint(next);
            match self.transition.transfer_mode(info.kind, next) {
                TransferMode::Instant => {
                    // Zero-cost orchestration bound: only the raw
                    // interconnect latency, no engine occupancy.
                    let arrive = t + self.net.transfer_time(from, to, info.out_bytes);
                    let comm = arrive.saturating_since(t);
                    self.charge(addr.req, |b| b.communication += comm);
                    queue.schedule_at(arrive, Ev::hop_arrive(next_addr, info.out_bytes));
                }
                TransferMode::StagedViaCore => {
                    // Data staged through the core's memory via the
                    // coherent hierarchy (these designs do not use the
                    // A-DMA engines): two network legs plus the cache
                    // access, pure latency on the request.
                    let legs = self
                        .net
                        .transfer_time(from, Endpoint::Cores, info.out_bytes)
                        + self.net.transfer_time(Endpoint::Cores, to, info.out_bytes)
                        + self.cfg.arch.payload_access(info.out_bytes);
                    self.bus.stream(t, info.out_bytes / 2);
                    self.energy.add_noc_bytes(2 * info.out_bytes);
                    self.charge(addr.req, |b| b.communication += legs);
                    queue.schedule_at(t + legs, Ev::hop_arrive(next_addr, info.out_bytes));
                }
                TransferMode::Dma => {
                    let booking = self.dma.transfer(t, &self.net, from, to, info.out_bytes);
                    self.energy.add_dma_bytes(info.out_bytes);
                    self.energy.add_noc_bytes(info.out_bytes);
                    let comm = booking.finish.saturating_since(t);
                    self.charge(addr.req, |b| b.communication += comm);
                    self.tel_span(
                        booking.start,
                        CompId::DMA,
                        "dma",
                        booking.finish.saturating_since(booking.start),
                        addr.req,
                        info.out_bytes,
                    );
                    if self.dma_transfer_faulted(booking.finish, next_addr, info.out_bytes, queue) {
                        return;
                    }
                    queue.schedule_at(booking.finish, Ev::hop_arrive(next_addr, info.out_bytes));
                }
            }
            return;
        }

        // --- End of segment ---
        match info.end {
            SegmentEnd::ToCpu => {
                // DMA the result to memory and notify the core.
                let service = self.cfg.arch.payload_access(info.out_bytes)
                    + self
                        .net
                        .transfer_time(Self::endpoint(info.kind), Endpoint::Cores, 0);
                let booking = self.dma.transfer_with_service(t, service, info.out_bytes);
                self.bus.stream(t, info.out_bytes / 2);
                self.energy.add_dma_bytes(info.out_bytes);
                self.tel_span(
                    booking.start,
                    CompId::DMA,
                    "dma",
                    booking.finish.saturating_since(booking.start),
                    addr.req,
                    info.out_bytes,
                );
                let notify = self.cfg.arch.notification_latency();
                let done_at = booking.finish + notify;
                let comm = done_at.saturating_since(t);
                self.charge(addr.req, |b| b.communication += comm);
                // A corrupt result delivery re-runs the hop instead of
                // completing the call.
                if self.dma_transfer_faulted(done_at, addr, in_bytes, queue) {
                    return;
                }
                let error = self.req(addr.req).program.segment(addr).trace.name() == "report_error";
                queue.schedule_at(
                    done_at,
                    Ev::CallDone {
                        req: addr.req,
                        step: addr.step,
                        par: addr.par,
                        error,
                    },
                );
            }
            SegmentEnd::Continue => {
                let entry_bytes = info
                    .next_entry_bytes
                    .expect("Continue requires a next segment");
                // Split subtrace: the dispatcher reads the ATM and
                // forwards to the next segment's first accelerator.
                self.totals.atm_reads += 1;
                let _ = self.lib.atm_mut().load(accelflow_trace::atm::AtmAddr(0));
                self.tel_instant(t, CompId::ATM, "atm_read", addr.req);
                let t2 = t + self.cfg.arch.atm_read_latency + self.atm_read_penalty(t, addr);
                let next_addr = CallAddr {
                    seg: addr.seg + 1,
                    hop: 0,
                    ..addr
                };
                queue.schedule_at(t2, Ev::hop_arrive(next_addr, entry_bytes));
            }
            SegmentEnd::AwaitResponse { external } => {
                debug_assert!(
                    info.next_entry_bytes.is_some(),
                    "AwaitResponse requires a next segment"
                );
                // AccelFlow: the TCP dispatcher pre-loads the response
                // trace from the ATM (§IV-B). Baselines: the core will
                // re-orchestrate when the response interrupt arrives.
                if self.transition.preloads_response_trace() {
                    self.totals.atm_reads += 1;
                    let _ = self.lib.atm_mut().load(accelflow_trace::atm::AtmAddr(0));
                    self.tel_instant(t, CompId::ATM, "atm_read", addr.req);
                }
                let next_addr = CallAddr {
                    seg: addr.seg + 1,
                    hop: 0,
                    ..addr
                };
                self.charge(addr.req, |b| b.external += external);
                self.tel_span(
                    t,
                    CompId::MACHINE,
                    "external",
                    external.min(self.cfg.tcp_timeout),
                    addr.req,
                    0,
                );
                if external >= self.cfg.tcp_timeout {
                    queue.schedule_at(
                        t + self.cfg.tcp_timeout,
                        Ev::Timeout {
                            req: addr.req,
                            step: addr.step,
                            par: addr.par,
                        },
                    );
                } else {
                    queue.schedule_at(t + external, Ev::ExternalArrive(next_addr));
                }
            }
        }
    }

    /// The orchestration cost of the transition after a completed hop:
    /// may occupy cores or the manager and charges the latency to the
    /// request. Returns when the payload is ready to move on.
    fn transition_cost(
        &mut self,
        now: SimTime,
        addr: CallAddr,
        accel: u8,
        info: &HopInfo,
    ) -> SimTime {
        let arch = &self.cfg.arch;
        match self.transition {
            Transition::CpuOnly => unreachable!("Non-acc runs no accelerator hops"),
            // Completion interrupts the originating core, which then
            // submits the next invocation.
            Transition::CoreIrq => {
                let overhead = arch.cpu_interrupt_overhead + arch.cpu_submit_overhead;
                self.core_orchestrates(now, addr, overhead)
            }
            // RELIEF: every completion interrupts the manager —
            // interrupt-delivery latency plus serialized decision
            // occupancy (§VII-A1).
            Transition::Manager { .. } => {
                let occupancy = arch.manager_service_time;
                self.totals.manager_busy += occupancy;
                self.manager_orchestrates(now, addr, occupancy)
            }
            // The output dispatcher executes the glue instructions;
            // ablation rungs that cannot resolve branches or transforms
            // locally bounce them to the manager.
            Transition::Dispatcher {
                branches,
                transforms,
            } => {
                let td = self.dispatcher_time(info.glue_instrs);
                self.totals.dispatcher_instrs += info.glue_instrs as u64;
                self.totals.dispatches += 1;
                self.energy.add_dispatcher_instrs(info.glue_instrs as u64);
                self.charge(addr.req, |b| b.orchestration += td);
                self.tel_span(
                    now,
                    CompId::accelerator(accel as u16),
                    "glue",
                    td,
                    addr.req,
                    info.glue_instrs as u64,
                );
                let t = now + td;
                let needs_manager =
                    (info.branches_after > 0 && !branches) || (info.transform_after && !transforms);
                if needs_manager {
                    let occupancy = self.cfg.arch.manager_fallback_time;
                    self.manager_orchestrates(t, addr, occupancy)
                } else {
                    t
                }
            }
            Transition::Cohort => {
                if info.next_kind.is_some_and(|n| cohort_linked(info.kind, n)) {
                    // Producer/consumer software queue in the LLC.
                    let hand = arch.cycles(2.0 * arch.llc_latency_cycles);
                    self.charge(addr.req, |bd| bd.orchestration += hand);
                    now + hand
                } else {
                    // Unlinked hops fall back to core orchestration
                    // (Cohort "otherwise relies on the cores"): the core
                    // polls the software queue, runs the glue, and
                    // resubmits — the CPU-Centric software path minus
                    // the interrupt entry.
                    let overhead = arch.cohort_queue_overhead + arch.cpu_submit_overhead;
                    self.core_orchestrates(now, addr, overhead)
                }
            }
            Transition::Free => now,
        }
    }

    /// A core spends `overhead` coordinating the request; returns when
    /// it is done.
    fn core_orchestrates(
        &mut self,
        now: SimTime,
        addr: CallAddr,
        overhead: SimDuration,
    ) -> SimTime {
        let b = self.cores.acquire(now, overhead);
        self.energy.add_core_busy(overhead);
        let spent = b.finish.saturating_since(now);
        self.charge(addr.req, |bd| bd.orchestration += spent);
        b.finish
    }

    /// The manager takes an interrupt at `now` and spends `occupancy`
    /// deciding; returns when the decision is made.
    fn manager_orchestrates(
        &mut self,
        now: SimTime,
        addr: CallAddr,
        occupancy: SimDuration,
    ) -> SimTime {
        let after_irq = now + self.cfg.arch.manager_latency;
        let b = self.manager.acquire(after_irq, occupancy);
        let spent = b.finish.saturating_since(now);
        self.charge(addr.req, |bd| bd.orchestration += spent);
        self.tel_span(b.start, CompId::MANAGER, "manager", occupancy, addr.req, 0);
        b.finish
    }

    pub(crate) fn on_external_arrive(
        &mut self,
        now: SimTime,
        addr: CallAddr,
        queue: &mut impl Schedule<Ev>,
    ) {
        if self.req_gone(addr.req) {
            return;
        }
        // Response messages re-enter through TCP. In the baselines the
        // core must notice and resubmit the processing chain.
        let bytes = self.req(addr.req).program.segment(addr).entry_bytes();
        if self.transition.resubmits_external_response() {
            let ready = self.core_orchestrates(now, addr, self.cfg.arch.cpu_submit_overhead);
            queue.schedule_at(ready, Ev::hop_arrive(addr, bytes));
        } else {
            queue.schedule(SimDuration::ZERO, Ev::hop_arrive(addr, bytes));
        }
    }
}
