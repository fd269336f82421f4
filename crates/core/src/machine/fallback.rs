//! Software execution paths: the Non-acc baseline (every segment runs
//! on a core) and the CPU fallback that absorbs work when every
//! instance of an accelerator type rejects an admission (§IV-A).
//!
//! Both paths converge on [`MachineCtx::on_fallback_done`], which
//! re-enters the normal segment-end handling — the only difference
//! from the accelerated path being that continuation hops stay on the
//! CPU for cpu-only orchestrators.

use accelflow_sim::engine::Schedule;
use accelflow_sim::time::{SimDuration, SimTime};

use crate::request::{CallAddr, SegmentEnd};

use super::{Ev, MachineCtx};

impl MachineCtx {
    /// Non-acc path: the whole segment is CPU work.
    pub(crate) fn start_segment_on_cpu(
        &mut self,
        now: SimTime,
        addr: CallAddr,
        queue: &mut impl Schedule<Ev>,
    ) {
        // An external response may arrive after a timeout terminated
        // the request.
        if self.req_gone(addr.req) {
            return;
        }
        let work = {
            let seg = self.req(addr.req).program.segment(addr);
            seg.hops()
                .map(|h| self.timing.cpu_time(h.kind, h.in_bytes))
                .sum::<SimDuration>()
        };
        let booking = self.cores.acquire(now, work);
        self.energy.add_core_busy(work);
        self.charge(addr.req, |b| b.cpu += work);
        queue.schedule_at(booking.finish, Ev::FallbackDone(addr));
    }

    /// CPU fallback: execute the rest of the segment in software, from
    /// hop `addr` entered with `in_bytes`.
    pub(crate) fn fallback_segment(
        &mut self,
        now: SimTime,
        addr: CallAddr,
        in_bytes: u64,
        queue: &mut impl Schedule<Ev>,
    ) {
        let work = {
            let seg = self.req(addr.req).program.segment(addr);
            let mut bytes = in_bytes;
            (addr.hop as usize..seg.hop_count())
                .map(|i| {
                    let h = seg.exec(i, bytes);
                    bytes = h.out_bytes;
                    self.timing.cpu_time(h.kind, h.in_bytes)
                })
                .sum::<SimDuration>()
        };
        let booking = self.cores.acquire(now, work);
        self.energy.add_core_busy(work);
        self.charge(addr.req, |b| b.cpu += work);
        queue.schedule_at(booking.finish, Ev::FallbackDone(addr));
    }

    pub(crate) fn on_fallback_done(
        &mut self,
        now: SimTime,
        addr: CallAddr,
        queue: &mut impl Schedule<Ev>,
    ) {
        if self.req_gone(addr.req) {
            return;
        }
        let (end, next_entry_bytes, is_error) = {
            let call = self.req(addr.req).program.call(addr.step, addr.par);
            let seg = call.segment(addr.seg as usize);
            let next_seg = addr.seg as usize + 1;
            (
                seg.end,
                (next_seg < call.segment_count()).then(|| call.segment(next_seg).entry_bytes()),
                seg.trace.name() == "report_error",
            )
        };
        match end {
            SegmentEnd::ToCpu => {
                queue.schedule(
                    SimDuration::ZERO,
                    Ev::CallDone {
                        req: addr.req,
                        step: addr.step,
                        par: addr.par,
                        error: is_error,
                    },
                );
            }
            SegmentEnd::Continue => {
                let entry_bytes = next_entry_bytes.expect("Continue requires a next segment");
                let next_addr = CallAddr {
                    seg: addr.seg + 1,
                    hop: 0,
                    ..addr
                };
                if self.transition.cpu_only() {
                    self.start_segment_on_cpu(now, next_addr, queue);
                } else {
                    queue.schedule(SimDuration::ZERO, Ev::hop_arrive(next_addr, entry_bytes));
                }
            }
            SegmentEnd::AwaitResponse { external } => {
                debug_assert!(next_entry_bytes.is_some());
                self.charge(addr.req, |b| b.external += external);
                let next_addr = CallAddr {
                    seg: addr.seg + 1,
                    hop: 0,
                    ..addr
                };
                if external >= self.cfg.tcp_timeout {
                    queue.schedule_at(
                        now + self.cfg.tcp_timeout,
                        Ev::Timeout {
                            req: addr.req,
                            step: addr.step,
                            par: addr.par,
                        },
                    );
                } else if self.transition.cpu_only() {
                    queue.schedule_at(now + external, Ev::ExternalArriveCpu(next_addr));
                } else {
                    queue.schedule_at(now + external, Ev::ExternalArrive(next_addr));
                }
            }
        }
    }
}
