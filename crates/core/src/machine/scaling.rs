//! Online control handlers: ingress admission decisions and the
//! telemetry-feedback autoscaler (see [`crate::control`] and
//! `docs/WORKLOADS.md`).
//!
//! Ingress control runs inside `on_arrive`, *after* the next arrival
//! is chained (rejecting a request must never stall the open-loop
//! stream) and *before* any request state exists — a rejected arrival
//! is never admitted, so the auditor's conservation invariants hold
//! untouched.
//!
//! The autoscaler is a periodic [`Ev::ScaleTick`] chain (armed only
//! when configured, like the fault streams): each tick differences
//! per-station busy time into a windowed per-kind utilization row,
//! pushes it into the control state's [`Sampler`] signal, and — when
//! adaptive — lights or darkens at most one station per kind. The
//! actuator is the PR 5 darkness machinery: a darkened station fails
//! `station_available` exactly like a fault-stalled one, and
//! relighting wakes the station through the same [`Ev::StallEnd`]
//! path.
//!
//! [`Sampler`]: accelflow_sim::telemetry::Sampler

use accelflow_sim::engine::Schedule;
use accelflow_sim::telemetry::CompId;
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::kind::AccelKind;

use super::{Ev, MachineCtx};

impl MachineCtx {
    /// Ingress decision for one arrival: `None` admits; otherwise the
    /// rejection reason (also the telemetry instant name). Counters
    /// cover measured arrivals only, matching `offered`.
    pub(crate) fn ingress_reject_reason(
        &mut self,
        now: SimTime,
        tenant: usize,
        measured: bool,
    ) -> Option<&'static str> {
        let live = self.live;
        let c = self.control.as_mut()?;
        if !c.take_token(tenant, now) {
            if measured {
                c.stats.rate_limited += 1;
            }
            return Some("rate_limited");
        }
        if let Some(max) = c.cfg.max_live {
            if live >= max {
                if measured {
                    c.stats.shed += 1;
                }
                return Some("load_shed");
            }
        }
        if measured {
            c.stats.admitted += 1;
        }
        None
    }

    /// One autoscaler tick: sample the utilization signal, decide, and
    /// re-arm. The chain stops re-arming once the arrival window ends
    /// (the drain runs with the final lit set).
    pub(crate) fn on_scale_tick(&mut self, now: SimTime, queue: &mut impl Schedule<Ev>) {
        let end = self.end;
        let MachineCtx {
            control,
            accels,
            cfg,
            tel,
            ..
        } = self;
        let Some(c) = control.as_mut() else { return };
        let Some(auto) = c.cfg.autoscaler else { return };
        if now < end {
            queue.schedule(auto.interval, Ev::ScaleTick);
        }
        if !c.signal.due(now) {
            return;
        }
        let window = now.saturating_since(c.prev_tick).as_picos();
        let instances = cfg.instances_per_accel;
        let pes = cfg.arch.pes_per_accelerator as u64;
        let mut row = Vec::with_capacity(AccelKind::COUNT);
        for kind in 0..AccelKind::COUNT {
            let range = kind * instances..(kind + 1) * instances;
            let mut delta = 0u64;
            for (acc, prev) in accels[range.clone()]
                .iter()
                .zip(&mut c.prev_busy[range.clone()])
            {
                let busy = acc.busy_time().as_picos();
                delta += busy - *prev;
                *prev = busy;
            }
            let lit_count = range.clone().filter(|&i| c.lit[i]).count();
            // Utilization of the *lit* capacity of this kind, percent.
            let denom = window * pes * lit_count.max(1) as u64;
            let util_pct = (delta * 100).checked_div(denom).unwrap_or(0);
            row.push(util_pct);

            if !auto.adaptive {
                continue;
            }
            let util = delta as f64 / denom.max(1) as f64;
            if util > auto.light_above && lit_count < instances {
                // Light the lowest-index dark station of the kind and
                // wake it through the stall-end path.
                let station = range.clone().find(|&i| !c.lit[i]).expect("a dark station");
                c.lit[station] = true;
                if let Some(since) = c.dark_since[station].take() {
                    c.stats.scaler_dark_time += now.saturating_since(since);
                }
                c.stats.scale_ups += 1;
                if let Some(t) = tel.as_mut() {
                    t.sink.instant(
                        now,
                        CompId::accelerator(station as u16),
                        "scale_light",
                        None,
                    );
                }
                queue.schedule(SimDuration::ZERO, Ev::StallEnd(station as u8));
            } else if util < auto.darken_below && lit_count > 1 {
                // Darken the highest-index lit station whose input
                // queue is empty — darkening never strands queued work.
                let station = range
                    .clone()
                    .rev()
                    .find(|&i| c.lit[i] && accels[i].input().backlog() == 0);
                if let Some(station) = station {
                    c.lit[station] = false;
                    c.dark_since[station] = Some(now);
                    c.stats.scale_downs += 1;
                    if let Some(t) = tel.as_mut() {
                        t.sink.instant(
                            now,
                            CompId::accelerator(station as u16),
                            "scale_dark",
                            None,
                        );
                    }
                }
            }
        }
        c.signal.push_row(now, row);
        c.prev_tick = now;
    }
}
