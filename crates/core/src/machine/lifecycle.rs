//! Request lifecycle: admission, program stepping, call initiation,
//! call completion, timeouts, and termination.
//!
//! A request is admitted by [`MachineCtx::on_arrive`], walks its
//! program one step at a time ([`MachineCtx::on_start_step`]), and
//! terminates through [`MachineCtx::complete_request`] — either
//! normally after its last step or early when a TCP response timeout
//! fires ([`MachineCtx::on_timeout`], §IV-B). Trace calls started here
//! hand off to the [`transfer`](super::transfer) module for submission
//! and are notified back through [`MachineCtx::on_call_done`].

use accelflow_sim::engine::Schedule;
use accelflow_sim::telemetry::CompId;
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::kind::AccelKind;

use crate::request::{CallAddr, Program, SegmentEnd, ServiceId, Step};

use super::{Ev, MachineCtx};
use accelflow_accel::queue::TenantId;

/// Per-request simulation state, parked in the machine's request table
/// from admission to termination.
#[derive(Debug)]
pub(crate) struct RequestState {
    pub(crate) service: ServiceId,
    pub(crate) tenant: TenantId,
    pub(crate) arrival: SimTime,
    pub(crate) measured: bool,
    pub(crate) program: Program,
    pub(crate) step: usize,
    pub(crate) pending_calls: u32,
    /// Trace calls currently holding a per-tenant slot. Unlike
    /// `pending_calls` (which only counts the current step), this spans
    /// the whole request so termination can release slots still held by
    /// in-flight calls (e.g. siblings of a timed-out await).
    pub(crate) active_calls: u32,
    /// Bitmask of parallel arms already completed in the *current*
    /// step (bit `par.min(31)`), reset when the step advances. Guards
    /// [`MachineCtx::on_timeout`] against a stale timer firing for a
    /// call that completed while the request is still alive — the call
    /// must not re-enter accounting (no timeout count, no error, no
    /// second call-finished record).
    pub(crate) completed_pars: u32,
    pub(crate) deadline: Option<SimTime>,
    pub(crate) done: bool,
    pub(crate) error: bool,
}

impl MachineCtx {
    pub(crate) fn on_arrive(&mut self, now: SimTime, idx: u32, queue: &mut impl Schedule<Ev>) {
        let arrival = self.arrival.take().expect("arrival taken once");
        let measured = now >= self.warmup_end && now < self.end;
        // Ingress control (rate limit / admission ceiling): a rejected
        // arrival is never admitted — no request state, no `offered`
        // row, no audit record — but the fleet chains the next arrival
        // regardless, so the open-loop stream never stalls.
        if self.control.is_some() {
            let tenant = arrival.tenant.0 as usize;
            if let Some(reason) = self.ingress_reject_reason(now, tenant, measured) {
                self.tel_instant(now, CompId::MACHINE, reason, idx);
                return;
            }
        }
        let deadline = arrival.program.slo_slack().map(|slack| {
            let est = self.unloaded_estimate(&arrival.program);
            now + est * slack
        });
        if measured {
            self.stats[arrival.service.0].offered += 1;
        }
        let slot = self.requests.insert(RequestState {
            service: arrival.service,
            tenant: arrival.tenant,
            arrival: now,
            measured,
            program: arrival.program,
            step: 0,
            pending_calls: 0,
            active_calls: 0,
            completed_pars: 0,
            deadline,
            done: false,
            error: false,
        });
        self.req_slots[idx as usize] = slot;
        self.live += 1;
        if let Some(aud) = self.auditor.as_mut() {
            aud.record_admit(now, idx, measured);
        }
        self.tel_instant(now, CompId::MACHINE, "arrive", idx);
        queue.schedule(SimDuration::ZERO, Ev::StartStep(idx));
    }

    /// Unloaded execution estimate for SLO deadlines: accel compute +
    /// app cycles + external waits.
    fn unloaded_estimate(&self, program: &Program) -> SimDuration {
        let mut total = self.cfg.arch.cycles(program.app_cycles() / self.app_factor);
        for call in program.calls() {
            for seg in call.segments() {
                for hop in seg.hops() {
                    total += self.timing.accel_time(hop.kind, hop.in_bytes);
                }
                if let SegmentEnd::AwaitResponse { external } = seg.end {
                    total += external;
                }
            }
        }
        total
    }

    pub(crate) fn on_start_step(&mut self, now: SimTime, req: u32, queue: &mut impl Schedule<Ev>) {
        let (step_idx, done) = {
            let r = self.req(req);
            (r.step, r.step >= r.program.step_count())
        };
        if done {
            self.complete_request(now, req);
            return;
        }
        enum Plan {
            Cpu(f64),
            Calls(u8),
        }
        let plan = match self.req(req).program.step(step_idx) {
            Step::Cpu { cycles } => Plan::Cpu(cycles),
            Step::Calls { calls, .. } => Plan::Calls(calls.len() as u8),
        };
        match plan {
            Plan::Cpu(cycles) => {
                let service = self.cfg.arch.cycles(cycles / self.app_factor);
                let booking = self.cores.acquire(now, service);
                self.energy.add_core_busy(service);
                self.charge(req, |b| b.cpu += service);
                queue.schedule_at(booking.finish, Ev::AppDone(req));
            }
            Plan::Calls(n) => {
                self.req_mut(req).pending_calls = n as u32;
                for par in 0..n {
                    self.start_call(
                        now,
                        CallAddr {
                            req,
                            step: step_idx as u8,
                            par,
                            seg: 0,
                            hop: 0,
                        },
                        queue,
                    );
                }
            }
        }
    }

    pub(crate) fn on_app_done(&mut self, _now: SimTime, req: u32, queue: &mut impl Schedule<Ev>) {
        self.req_mut(req).step += 1;
        queue.schedule(SimDuration::ZERO, Ev::StartStep(req));
    }

    /// Initiates one trace call: tenant-cap admission, then policy-
    /// specific submission (or the Non-acc CPU path).
    pub(crate) fn start_call(
        &mut self,
        now: SimTime,
        addr: CallAddr,
        queue: &mut impl Schedule<Ev>,
    ) {
        // A throttled retry may land after a timeout terminated the
        // request; there is nothing left to start.
        if self.req_gone(addr.req) {
            return;
        }
        // Per-tenant trace cap (§IV-D): over-cap initiations are
        // throttled by retrying shortly (the VMM delays the Enqueue).
        let tenant = self.req(addr.req).tenant;
        let idx = tenant.0 as usize;
        let active = self.tenant_active.get(idx).copied().unwrap_or(0);
        if active as usize >= self.cfg.tenant_cap {
            self.totals.tenant_throttled += 1;
            self.tel_instant(now, CompId::MACHINE, "tenant_throttle", addr.req);
            queue.schedule(SimDuration::from_micros(5), Ev::HopArriveRetry(addr));
            return;
        }
        if idx >= self.tenant_active.len() {
            self.tenant_active.resize(idx + 1, 0);
        }
        self.tenant_active[idx] += 1;
        self.req_mut(addr.req).active_calls += 1;
        if let Some(aud) = self.auditor.as_mut() {
            aud.record_call_start(now);
        }

        if self.transition.cpu_only() {
            self.start_segment_on_cpu(now, addr, queue);
            return;
        }
        self.submit_call(now, addr, queue);
    }

    /// The call's final notification was delivered: release the per-
    /// tenant slot and advance the step once every sibling finished.
    /// `step`/`par` identify the exact call for audit and telemetry.
    pub(crate) fn on_call_done(
        &mut self,
        now: SimTime,
        req: u32,
        step: u8,
        par: u8,
        error: bool,
        queue: &mut impl Schedule<Ev>,
    ) {
        if self.req_gone(req) {
            return;
        }
        // The core picks up the user-level notification.
        let pickup = self.cfg.arch.cycles(self.cfg.arch.pickup_cycles);
        self.cores.acquire(now, pickup);
        self.energy.add_core_busy(pickup);
        self.charge(req, |b| b.cpu += pickup);

        let tenant = self.req(req).tenant;
        if let Some(n) = self.tenant_active.get_mut(tenant.0 as usize) {
            *n = n.saturating_sub(1);
        }
        if let Some(aud) = self.auditor.as_mut() {
            aud.record_call_end(now, 1);
            aud.record_call_finished(now, req, step, par);
        }
        self.tel_instant_arg(now, CompId::MACHINE, "call_done", req, call_arg(step, par));
        let r = self.req_mut(req);
        r.completed_pars |= 1u32 << par.min(31);
        r.active_calls = r.active_calls.saturating_sub(1);
        if error {
            r.error = true;
        }
        r.pending_calls = r.pending_calls.saturating_sub(1);
        if r.pending_calls == 0 {
            r.step += 1;
            r.completed_pars = 0;
            queue.schedule(SimDuration::ZERO, Ev::StartStep(req));
        }
    }

    /// A TCP response timeout terminated the request (§IV-B).
    /// `step`/`par` identify the awaiting call that never got its
    /// response, for audit and telemetry attribution.
    pub(crate) fn on_timeout(&mut self, now: SimTime, req: u32, step: u8, par: u8) {
        if self.req_gone(req) {
            return;
        }
        // Stale-timer guard: the awaited response (or a recovery retry)
        // completed this call before the timer fired, but a sibling arm
        // kept the request alive. The completed call must not re-enter
        // accounting — counting the timeout, re-recording the finish,
        // and terminating the request here would double-complete it
        // (flagged by the auditor's call-finished-once invariant).
        {
            let r = self.req(req);
            if r.step != step as usize || r.completed_pars & (1u32 << par.min(31)) != 0 {
                return;
            }
        }
        self.totals.tcp_timeouts += 1;
        self.tel_instant_arg(now, CompId::MACHINE, "timeout", req, call_arg(step, par));
        if let Some(aud) = self.auditor.as_mut() {
            aud.record_call_finished(now, req, step, par);
        }
        // The core terminates the request (§IV-B).
        let handling = self.cfg.arch.cycles(self.cfg.arch.pickup_cycles);
        self.cores.acquire(now, handling);
        self.energy.add_core_busy(handling);
        self.req_mut(req).error = true;
        self.complete_request(now, req);
    }

    pub(crate) fn complete_request(&mut self, now: SimTime, req: u32) {
        let slot = self.req_slots[req as usize];
        let r = self.requests.get_mut(slot).expect("request alive");
        if r.done {
            return;
        }
        r.done = true;
        self.live -= 1;
        // A timeout can terminate the request while sibling calls are
        // still in flight; their per-tenant slots must be released here
        // or the tenant cap throttles forever on leaked slots (the
        // stale CallDone events are dropped by the `req_gone` guards).
        let leftover = std::mem::take(&mut r.active_calls);
        let tenant = r.tenant;
        let measured = r.measured;
        if leftover > 0 {
            if let Some(n) = self.tenant_active.get_mut(tenant.0 as usize) {
                *n = n.saturating_sub(leftover);
            }
        }
        if let Some(aud) = self.auditor.as_mut() {
            aud.record_terminate(now, req, measured);
            if leftover > 0 {
                aud.record_call_end(now, leftover);
            }
        }
        self.tel_instant(now, CompId::MACHINE, "done", req);
        let r = self.requests.get_mut(slot).expect("request alive");
        let latency = now.saturating_since(r.arrival);
        if r.measured {
            let svc = r.service.0;
            let missed = r.deadline.map(|d| now > d).unwrap_or(false);
            let error = r.error;
            // Fig 1 attribution: CPU-equivalent tax per kind + app.
            let mut tax = [SimDuration::ZERO; AccelKind::COUNT];
            for hop in r.program.hops() {
                tax[hop.kind.id() as usize] += self.timing.cpu_time(hop.kind, hop.in_bytes);
            }
            let app = self
                .cfg
                .arch
                .cycles(r.program.app_cycles() / self.app_factor);
            let stats = &mut self.stats[svc];
            stats.latency.record_duration(latency);
            if self.cfg.sample_latencies {
                stats.samples.push((now, latency));
            }
            stats.completed += 1;
            if missed {
                stats.deadline_misses += 1;
            }
            if error {
                stats.errors += 1;
            }
            for (i, d) in tax.iter().enumerate() {
                stats.tax_by_kind[i] += *d;
            }
            stats.app_logic += app;
        }
        if measured {
            // SLO-window tracking (docs/WORKLOADS.md): bucket this
            // completion into the current window.
            if let Some(c) = self.control.as_mut() {
                c.observe_completion(now, latency);
            }
        }
        // Free the slot: the slab recycles it for the next admission,
        // and the bumped generation turns any straggler lookup through
        // `req_slots` into a miss (`req_gone`) rather than an alias.
        self.requests.remove(slot);
        // Drop any recovery retry budgets held by this request's calls.
        self.prune_retries(req);
    }
}

/// Packs a call position into the telemetry `arg` field:
/// `(step << 8) | par`, so two parallel arms of one step stay
/// distinguishable in the record stream.
pub(crate) fn call_arg(step: u8, par: u8) -> u64 {
    ((step as u64) << 8) | par as u64
}
