//! Invariant auditing for the machine model.
//!
//! The paper's headline claim is that traces execute end-to-end with
//! no CPU involvement — which makes silent bookkeeping bugs (a lost
//! request, a leaked tenant slot, a queue past its SRAM capacity) the
//! most dangerous failure mode of the reproduction: they skew every
//! figure without crashing anything. The [`Auditor`] watches the
//! [`Machine`](crate::machine::Machine) event loop and checks, at every
//! state transition:
//!
//! - **Request conservation** — every admitted request terminates
//!   exactly once, `admitted == terminated + live` at all times, and
//!   the measured totals match the per-service `offered`/`completed`
//!   rows.
//! - **Call conservation** — every initiated trace call releases its
//!   per-tenant slot exactly once (normal completion or cleanup at
//!   request termination); once the machine drains, no tenant holds a
//!   slot.
//! - **Call finish uniqueness** — each call position (`step`, `par`)
//!   of a live request delivers its completion (CallDone or Timeout)
//!   at most once; a duplicate means a handler lost the call identity
//!   or a stale event slipped past the liveness guards.
//! - **Queue bounds** — SRAM input-queue occupancy never exceeds the
//!   configured capacity, the overflow area never exceeds its own
//!   capacity, and the overflow area is only occupied while the SRAM
//!   queue is full (a bounce happened).
//! - **Time/energy monotonicity** — event timestamps never move
//!   backwards, and the monotone activity meters (busy time, DMA
//!   bytes, ATM reads, overflow/rejection counts) never decrease.
//! - **ATM chain termination** — no stored trace chain revisits an ATM
//!   address without a branch on the cycle (checked statically at
//!   construction; a branch-free cycle is an infinite dispatch loop).
//! - **Resilience invariants** — under fault injection (see
//!   [`faults`](crate::faults)), no PE starts a job while its station
//!   is stalled dark, every retry stays within the configured budget,
//!   and a drained machine holds no orphaned retry bookkeeping (a
//!   request lost inside the recovery layer would strand one).
//!
//! Auditing is on by default in debug builds (`debug_assertions`) and
//! opt-in for release builds through the `audit` cargo feature or
//! [`MachineConfig::audit`](crate::machine::MachineConfig). Violations
//! are collected into the run's [`AuditReport`]; debug builds
//! additionally panic at report time so tests fail loudly.

use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::atm::{Atm, AtmAddr};
use accelflow_trace::ir::Slot;

/// One observed invariant violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant failed (short stable identifier).
    pub invariant: &'static str,
    /// Simulated time of the observation.
    pub at: SimTime,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] t={} {}", self.invariant, self.at, self.detail)
    }
}

/// Outcome of a run's invariant audit.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Whether auditing ran at all.
    pub enabled: bool,
    /// Individual invariant evaluations performed.
    pub checks: u64,
    /// Total violations observed (may exceed `violations.len()`).
    pub violation_count: u64,
    /// The first violations, capped to keep reports bounded.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// Report for a run that had auditing disabled.
    pub fn disabled() -> Self {
        AuditReport::default()
    }

    /// True when auditing found nothing (vacuously true if disabled).
    pub fn is_clean(&self) -> bool {
        self.violation_count == 0
    }
}

/// Cap on retained [`Violation`]s; the count keeps incrementing past it.
const MAX_RECORDED: usize = 32;

/// Watches the machine's state transitions and records violations.
#[derive(Debug)]
pub struct Auditor {
    checks: u64,
    violation_count: u64,
    violations: Vec<Violation>,
    // Request conservation.
    admitted: u64,
    terminated: u64,
    measured_admitted: u64,
    measured_terminated: u64,
    terminated_flags: Vec<bool>,
    // Call / tenant-slot conservation.
    calls_started: u64,
    calls_ended: u64,
    /// Per request (dense-indexed by arrival number, like
    /// `terminated_flags`), the packed `(step << 8) | par` positions
    /// whose completion (CallDone or Timeout) was already delivered —
    /// cleared on termination. Dense slots replace the former
    /// `HashMap`: the hot-path duplicate check becomes one bounds-free
    /// index plus a scan of a few inline entries, no hashing.
    finished_calls: Vec<Vec<u16>>,
    // Monotonicity snapshots.
    last_event_time: SimTime,
    last_core_busy: SimDuration,
    last_accel_busy: SimDuration,
    last_activity_events: u64,
    last_dma_bytes: u64,
    last_atm_reads: u64,
    last_overflows: Vec<u64>,
    last_rejections: Vec<u64>,
    // Resilience: the auditor's own copy of each station's stall
    // window, recorded when the injector darkens a station and checked
    // against every PE start (independent of the machine's
    // availability bookkeeping, so a desync between the two shows up).
    dark_until: Vec<SimTime>,
}

impl Auditor {
    /// Creates an auditor for a run with `n_requests` possible arrivals
    /// and the given ATM contents (whose chains are checked here, once:
    /// the stored traces do not change during a run).
    pub fn new(n_requests: usize, atm: &Atm) -> Self {
        let mut aud = Auditor {
            checks: 0,
            violation_count: 0,
            violations: Vec::new(),
            admitted: 0,
            terminated: 0,
            measured_admitted: 0,
            measured_terminated: 0,
            terminated_flags: vec![false; n_requests],
            calls_started: 0,
            calls_ended: 0,
            finished_calls: vec![Vec::new(); n_requests],
            last_event_time: SimTime::ZERO,
            last_core_busy: SimDuration::ZERO,
            last_accel_busy: SimDuration::ZERO,
            last_activity_events: 0,
            last_dma_bytes: 0,
            last_atm_reads: 0,
            last_overflows: Vec::new(),
            last_rejections: Vec::new(),
            dark_until: Vec::new(),
        };
        aud.check_atm_chains(atm);
        aud
    }

    fn violation(&mut self, invariant: &'static str, at: SimTime, detail: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(Violation {
                invariant,
                at,
                detail,
            });
        }
    }

    fn check(
        &mut self,
        ok: bool,
        invariant: &'static str,
        at: SimTime,
        detail: impl FnOnce() -> String,
    ) {
        self.checks += 1;
        if !ok {
            self.violation(invariant, at, detail());
        }
    }

    // ----- event-loop hooks -----

    /// Before dispatching an event: simulated time must not run
    /// backwards (the event queue orders by time; `schedule_at` clamps
    /// past times, so a regression here means the engine broke).
    pub fn pre_event(&mut self, now: SimTime) {
        let last = self.last_event_time;
        self.check(now >= last, "time-monotonic", now, || {
            format!("event at {now} after event at {last}")
        });
        self.last_event_time = now;
    }

    /// After an event: SRAM queue bounds for one accelerator station.
    /// `overflow_count`/`rejected_count` are the station's lifetime
    /// counters (must be monotone).
    #[allow(clippy::too_many_arguments)]
    pub fn check_queue(
        &mut self,
        now: SimTime,
        station: usize,
        len: usize,
        capacity: usize,
        overflow_len: usize,
        overflow_capacity: usize,
        overflow_count: u64,
        rejected_count: u64,
    ) {
        self.check(len <= capacity, "queue-bound", now, || {
            format!("station {station}: SRAM occupancy {len} > capacity {capacity}")
        });
        self.check(
            overflow_len <= overflow_capacity,
            "overflow-bound",
            now,
            || {
                format!(
                    "station {station}: overflow occupancy {overflow_len} > capacity {overflow_capacity}"
                )
            },
        );
        // The overflow area is a spill path: it only holds entries
        // while the SRAM queue is full (an actual bounce happened).
        self.check(
            overflow_len == 0 || len == capacity,
            "overflow-implies-full",
            now,
            || {
                format!(
                    "station {station}: {overflow_len} overflowed entries while SRAM holds {len}/{capacity}"
                )
            },
        );
        if self.last_overflows.len() <= station {
            self.last_overflows.resize(station + 1, 0);
            self.last_rejections.resize(station + 1, 0);
        }
        let prev = self.last_overflows[station];
        self.check(overflow_count >= prev, "counter-monotonic", now, || {
            format!("station {station}: overflow count fell {prev} -> {overflow_count}")
        });
        self.last_overflows[station] = overflow_count;
        let prev = self.last_rejections[station];
        self.check(rejected_count >= prev, "counter-monotonic", now, || {
            format!("station {station}: rejection count fell {prev} -> {rejected_count}")
        });
        self.last_rejections[station] = rejected_count;
    }

    /// After an event: the machine-wide activity meters only grow.
    pub fn check_meters(
        &mut self,
        now: SimTime,
        core_busy: SimDuration,
        accel_busy: SimDuration,
        activity_events: u64,
        dma_bytes: u64,
        atm_reads: u64,
    ) {
        let prev = self.last_core_busy;
        self.check(core_busy >= prev, "energy-monotonic", now, || {
            format!("core busy time fell {prev} -> {core_busy}")
        });
        self.last_core_busy = core_busy;
        let prev = self.last_accel_busy;
        self.check(accel_busy >= prev, "energy-monotonic", now, || {
            format!("accel busy time fell {prev} -> {accel_busy}")
        });
        self.last_accel_busy = accel_busy;
        let prev = self.last_activity_events;
        self.check(activity_events >= prev, "energy-monotonic", now, || {
            format!("activity event count fell {prev} -> {activity_events}")
        });
        self.last_activity_events = activity_events;
        let prev = self.last_dma_bytes;
        self.check(dma_bytes >= prev, "counter-monotonic", now, || {
            format!("DMA byte count fell {prev} -> {dma_bytes}")
        });
        self.last_dma_bytes = dma_bytes;
        let prev = self.last_atm_reads;
        self.check(atm_reads >= prev, "counter-monotonic", now, || {
            format!("ATM read count fell {prev} -> {atm_reads}")
        });
        self.last_atm_reads = atm_reads;
    }

    // ----- lifecycle records -----

    /// A request was admitted (its `RequestState` created).
    pub fn record_admit(&mut self, now: SimTime, idx: u32, measured: bool) {
        self.admitted += 1;
        if measured {
            self.measured_admitted += 1;
        }
        // Externally-dispatched arrivals (the cluster layer) register
        // requests past the construction-time count; grow the dense
        // per-request tables so those admits are audited, not flagged.
        if idx as usize >= self.terminated_flags.len() {
            self.terminated_flags.resize(idx as usize + 1, false);
            self.finished_calls.resize(idx as usize + 1, Vec::new());
        }
        let fresh = self
            .terminated_flags
            .get(idx as usize)
            .map(|t| !t)
            .unwrap_or(false);
        self.check(fresh, "admit-once", now, || {
            format!("request {idx} admitted after terminating")
        });
    }

    /// A request terminated (completed, errored, or timed out).
    pub fn record_terminate(&mut self, now: SimTime, idx: u32, measured: bool) {
        self.terminated += 1;
        if measured {
            self.measured_terminated += 1;
        }
        let first = match self.terminated_flags.get_mut(idx as usize) {
            Some(flag) => !std::mem::replace(flag, true),
            None => false,
        };
        self.check(first, "terminate-once", now, || {
            format!("request {idx} terminated twice")
        });
        // The per-call finish log only needs to cover live requests;
        // stale events for this request are dropped by the machine's
        // liveness guards before they could re-finish a call.
        if let Some(seen) = self.finished_calls.get_mut(idx as usize) {
            seen.clear();
        }
    }

    /// A trace call acquired its per-tenant slot.
    pub fn record_call_start(&mut self, _now: SimTime) {
        self.calls_started += 1;
    }

    /// `n` trace calls released their per-tenant slots (`n > 1` when a
    /// terminating request cleans up still-in-flight calls).
    pub fn record_call_end(&mut self, _now: SimTime, n: u32) {
        self.calls_ended += n as u64;
    }

    /// One specific call of a request — identified by its `step`/`par`
    /// position — delivered its completion (CallDone or Timeout). Each
    /// position may finish at most once per request; a duplicate means
    /// a handler lost the call identity or a stale event slipped past
    /// the liveness guards.
    pub fn record_call_finished(&mut self, now: SimTime, req: u32, step: u8, par: u8) {
        let key = ((step as u16) << 8) | par as u16;
        if self.finished_calls.len() <= req as usize {
            // Requests beyond the declared arrival count (defensive —
            // the machine never issues them).
            self.finished_calls.resize(req as usize + 1, Vec::new());
        }
        let seen = &mut self.finished_calls[req as usize];
        let fresh = !seen.contains(&key);
        if fresh {
            seen.push(key);
        }
        self.check(fresh, "call-finished-once", now, || {
            format!("request {req} call (step {step}, par {par}) finished twice")
        });
    }

    // ----- resilience records -----

    /// The fault injector darkened `station` until `until`. Overlapping
    /// stalls keep the later end, matching the injector's merge rule.
    pub fn record_station_dark(&mut self, _now: SimTime, station: usize, until: SimTime) {
        if self.dark_until.len() <= station {
            self.dark_until.resize(station + 1, SimTime::ZERO);
        }
        if until > self.dark_until[station] {
            self.dark_until[station] = until;
        }
    }

    /// A PE on `station` started a job. Stalled-dark stations must not
    /// start work — their queues buffer until `StallEnd` wakes them.
    pub fn record_pe_start(&mut self, now: SimTime, station: usize) {
        let until = self
            .dark_until
            .get(station)
            .copied()
            .unwrap_or(SimTime::ZERO);
        self.check(now >= until, "dark-station-start", now, || {
            format!("station {station} started a PE while dark until {until}")
        });
    }

    /// The recovery layer retried a call; `attempt` is 1-based and must
    /// stay within the configured budget (the budget exhausting is the
    /// degrade path, never a further retry).
    pub fn record_retry(&mut self, now: SimTime, attempt: u32, max_retries: u32) {
        self.check(attempt <= max_retries, "retry-bounded", now, || {
            format!("retry attempt {attempt} exceeds budget {max_retries}")
        });
    }

    /// After the run drained (`live == 0`), the recovery layer may hold
    /// no retry bookkeeping: an `outstanding` entry means a call went
    /// into recovery and never came out (lost request).
    pub fn check_recovery_drained(&mut self, now: SimTime, live: u64, outstanding: u64) {
        self.check(
            live != 0 || outstanding == 0,
            "recovery-drained",
            now,
            || format!("machine drained but {outstanding} retry entries remain"),
        );
    }

    // ----- end of run -----

    /// Final conservation checks once the event loop drained.
    ///
    /// `offered`/`completed` are the sums of the per-service stats
    /// rows; `live` and `tenant_active` are the machine's idea of
    /// still-in-flight work.
    pub fn finish(
        &mut self,
        now: SimTime,
        live: u64,
        tenant_active: &[u32],
        offered: u64,
        completed: u64,
    ) {
        let (admitted, terminated) = (self.admitted, self.terminated);
        self.check(
            admitted == terminated + live,
            "request-conservation",
            now,
            || format!("admitted {admitted} != terminated {terminated} + live {live}"),
        );
        let measured_admitted = self.measured_admitted;
        self.check(measured_admitted == offered, "offered-row-sum", now, || {
            format!("measured admissions {measured_admitted} != sum of offered rows {offered}")
        });
        let measured_terminated = self.measured_terminated;
        self.check(
            measured_terminated == completed,
            "completed-row-sum",
            now,
            || {
                format!(
                    "measured terminations {measured_terminated} != sum of completed rows {completed}"
                )
            },
        );
        if live == 0 {
            // A drained machine holds no tenant slots and has matched
            // every call start with a call end.
            let held: u64 = tenant_active.iter().map(|&n| n as u64).sum();
            self.check(held == 0, "tenant-slot-leak", now, || {
                format!("machine drained but tenants hold {held} slots")
            });
            let (started, ended) = (self.calls_started, self.calls_ended);
            self.check(started == ended, "call-conservation", now, || {
                format!("calls started {started} != calls ended {ended}")
            });
        }
    }

    /// Consumes the auditor into its report.
    pub fn into_report(self) -> AuditReport {
        AuditReport {
            enabled: true,
            checks: self.checks,
            violation_count: self.violation_count,
            violations: self.violations,
        }
    }

    // ----- static ATM chain check -----

    /// Flags ATM chain cycles with no branch on them: a dispatcher
    /// following such a chain re-dispatches the same traces forever.
    /// Cycles *through* a branch are legitimate (retry loops resolved
    /// by payload data), so only branch-free cycles are violations.
    fn check_atm_chains(&mut self, atm: &Atm) {
        let n = atm.capacity();
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut has_branch = vec![false; n];
        for (i, edge_list) in edges.iter_mut().enumerate() {
            let Some(trace) = atm.peek(AtmAddr(i as u16)) else {
                continue;
            };
            has_branch[i] = trace.branch_count() > 0;
            for slot in trace.slots() {
                if let Slot::NextTrace(a) = slot {
                    if (a.0 as usize) < n {
                        edge_list.push(a.0 as usize);
                    }
                }
            }
        }
        // Iterative coloring DFS; a back edge onto the gray path is a
        // cycle, violating termination iff no node on it has a branch.
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let mut color = vec![WHITE; n];
        let mut path: Vec<usize> = Vec::new();
        for start in 0..n {
            if color[start] != WHITE {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = GRAY;
            path.push(start);
            while let Some(&(node, next)) = stack.last() {
                if next < edges[node].len() {
                    stack.last_mut().expect("non-empty").1 += 1;
                    let target = edges[node][next];
                    match color[target] {
                        WHITE => {
                            color[target] = GRAY;
                            path.push(target);
                            stack.push((target, 0));
                        }
                        GRAY => {
                            self.checks += 1;
                            let cycle_start = path
                                .iter()
                                .position(|&p| p == target)
                                .expect("gray is on path");
                            let cycle = &path[cycle_start..];
                            if !cycle.iter().any(|&p| has_branch[p]) {
                                let chain: Vec<String> = cycle
                                    .iter()
                                    .map(|&p| AtmAddr(p as u16).to_string())
                                    .collect();
                                self.violation(
                                    "atm-chain-termination",
                                    SimTime::ZERO,
                                    format!("branch-free ATM cycle: {}", chain.join(" -> ")),
                                );
                            }
                        }
                        _ => {}
                    }
                } else {
                    color[node] = BLACK;
                    path.pop();
                    stack.pop();
                }
            }
        }
        self.checks += 1; // the whole-ATM scan counts as one check
    }
}

// ----- checkpoint serialization (see docs/CHECKPOINT.md) -----

use accelflow_sim::snapshot::{SnapReader, SnapWriter, Snapshot, SnapshotError};

/// Every invariant identifier the auditor can record, in wire-tag
/// order. `Violation.invariant` is a `&'static str`, which cannot
/// round-trip through bytes directly, so snapshots intern it as an
/// index into this table; appending new invariants is wire-compatible,
/// reordering is not.
const INVARIANTS: [&str; 18] = [
    "time-monotonic",
    "queue-bound",
    "overflow-bound",
    "overflow-implies-full",
    "counter-monotonic",
    "energy-monotonic",
    "admit-once",
    "terminate-once",
    "call-finished-once",
    "dark-station-start",
    "retry-bounded",
    "recovery-drained",
    "request-conservation",
    "offered-row-sum",
    "completed-row-sum",
    "tenant-slot-leak",
    "call-conservation",
    "atm-chain-termination",
];

impl Snapshot for Violation {
    fn save(&self, w: &mut SnapWriter) {
        let tag = INVARIANTS
            .iter()
            .position(|&name| name == self.invariant)
            .expect("every recordable invariant is interned") as u8;
        w.u8(tag);
        self.at.save(w);
        self.detail.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let tag = r.u8()? as usize;
        let invariant = *INVARIANTS
            .get(tag)
            .ok_or_else(|| SnapshotError::Corrupt(format!("unknown invariant tag {tag}")))?;
        Ok(Violation {
            invariant,
            at: SimTime::load(r)?,
            detail: String::load(r)?,
        })
    }
}

// Load restores the mid-run bookkeeping directly: the constructor's
// one-time ATM chain check is *not* re-run, because its checks and any
// violations it found are already part of the serialized counters.
accelflow_sim::impl_snapshot! {
    struct Auditor {
        checks, violation_count, violations, admitted, terminated, measured_admitted,
        measured_terminated, terminated_flags, calls_started, calls_ended, finished_calls,
        last_event_time, last_core_busy, last_accel_busy, last_activity_events, last_dma_bytes,
        last_atm_reads, last_overflows, last_rejections, dark_until,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelflow_trace::cond::BranchCond;
    use accelflow_trace::ir::Trace;
    use accelflow_trace::kind::AccelKind;

    fn chain_trace(name: &str, next: AtmAddr) -> Trace {
        Trace::new(
            name,
            vec![Slot::Accel(AccelKind::Tcp), Slot::NextTrace(next)],
        )
    }

    #[test]
    fn branch_free_atm_cycle_is_flagged() {
        let mut atm = Atm::new(8);
        atm.store_at(AtmAddr(0), chain_trace("a", AtmAddr(1)));
        atm.store_at(AtmAddr(1), chain_trace("b", AtmAddr(0)));
        let aud = Auditor::new(0, &atm);
        let report = aud.into_report();
        assert_eq!(report.violation_count, 1);
        assert_eq!(report.violations[0].invariant, "atm-chain-termination");
        assert!(report.violations[0].detail.contains("atm:0x0000"));
    }

    #[test]
    fn atm_cycle_through_a_branch_is_allowed() {
        let mut atm = Atm::new(8);
        atm.store_at(AtmAddr(0), chain_trace("a", AtmAddr(1)));
        atm.store_at(
            AtmAddr(1),
            Trace::new(
                "b",
                vec![
                    Slot::Branch {
                        cond: BranchCond::Hit,
                        on_true: 1,
                        on_false: 2,
                    },
                    Slot::NextTrace(AtmAddr(0)),
                    Slot::ToCpu,
                ],
            ),
        );
        let aud = Auditor::new(0, &atm);
        assert!(aud.into_report().is_clean());
    }

    #[test]
    fn straight_chains_are_clean() {
        let mut atm = Atm::new(8);
        atm.store_at(AtmAddr(0), chain_trace("a", AtmAddr(1)));
        atm.store_at(AtmAddr(1), chain_trace("b", AtmAddr(2)));
        atm.store_at(
            AtmAddr(2),
            Trace::new("c", vec![Slot::Accel(AccelKind::Ser), Slot::ToCpu]),
        );
        assert!(Auditor::new(0, &atm).into_report().is_clean());
    }

    #[test]
    fn duplicate_call_finish_is_flagged_per_position() {
        let atm = Atm::new(1);
        let mut aud = Auditor::new(2, &atm);
        let t = SimTime::ZERO;
        aud.record_admit(t, 0, true);
        // Two parallel arms of the same step finish once each: clean.
        aud.record_call_finished(t, 0, 1, 0);
        aud.record_call_finished(t, 0, 1, 1);
        // The same arm finishing again is the lost-identity bug.
        aud.record_call_finished(t, 0, 1, 1);
        // Termination prunes the log; a fresh admission of the same
        // slot index starts from a clean slate.
        aud.record_terminate(t, 0, true);
        aud.record_admit(t, 1, true);
        aud.record_call_finished(t, 1, 1, 1);
        let report = aud.into_report();
        assert_eq!(report.violation_count, 1);
        assert_eq!(report.violations[0].invariant, "call-finished-once");
        assert!(report.violations[0].detail.contains("step 1, par 1"));
    }

    #[test]
    fn double_termination_is_flagged() {
        let atm = Atm::new(1);
        let mut aud = Auditor::new(2, &atm);
        let t = SimTime::ZERO;
        aud.record_admit(t, 0, true);
        aud.record_terminate(t, 0, true);
        aud.record_terminate(t, 0, true);
        let report = aud.into_report();
        assert_eq!(report.violation_count, 1);
        assert_eq!(report.violations[0].invariant, "terminate-once");
    }

    #[test]
    fn conservation_mismatch_is_flagged() {
        let atm = Atm::new(1);
        let mut aud = Auditor::new(4, &atm);
        let t = SimTime::ZERO;
        aud.record_admit(t, 0, true);
        aud.record_admit(t, 1, true);
        aud.record_terminate(t, 0, true);
        // One request vanished: admitted 2, terminated 1, live 0.
        aud.finish(t, 0, &[], 2, 1);
        let report = aud.into_report();
        assert!(!report.is_clean());
        assert!(report
            .violations
            .iter()
            .any(|v| v.invariant == "request-conservation"));
    }

    #[test]
    fn tenant_slot_leak_is_flagged() {
        let atm = Atm::new(1);
        let mut aud = Auditor::new(1, &atm);
        let t = SimTime::ZERO;
        aud.record_admit(t, 0, false);
        aud.record_call_start(t);
        aud.record_terminate(t, 0, false);
        // Drained, but a tenant still holds a slot and the call never
        // ended.
        aud.finish(t, 0, &[0, 1], 0, 0);
        let report = aud.into_report();
        let kinds: Vec<_> = report.violations.iter().map(|v| v.invariant).collect();
        assert!(kinds.contains(&"tenant-slot-leak"), "{kinds:?}");
        assert!(kinds.contains(&"call-conservation"), "{kinds:?}");
    }

    #[test]
    fn queue_bound_breach_is_flagged() {
        let atm = Atm::new(1);
        let mut aud = Auditor::new(0, &atm);
        let t = SimTime::ZERO;
        aud.check_queue(t, 0, 65, 64, 0, 256, 0, 0);
        aud.check_queue(t, 0, 64, 64, 3, 256, 3, 0); // legal spill
        aud.check_queue(t, 0, 10, 64, 1, 256, 3, 0); // spill while SRAM has room
        let report = aud.into_report();
        let kinds: Vec<_> = report.violations.iter().map(|v| v.invariant).collect();
        assert_eq!(kinds, vec!["queue-bound", "overflow-implies-full"]);
    }

    #[test]
    fn time_and_meter_regressions_are_flagged() {
        let atm = Atm::new(1);
        let mut aud = Auditor::new(0, &atm);
        let t1 = SimTime::ZERO + SimDuration::from_micros(10);
        let t0 = SimTime::ZERO;
        aud.pre_event(t1);
        aud.pre_event(t0); // time ran backwards
        aud.check_meters(
            t1,
            SimDuration::from_micros(5),
            SimDuration::ZERO,
            10,
            100,
            1,
        );
        aud.check_meters(
            t1,
            SimDuration::from_micros(4),
            SimDuration::ZERO,
            10,
            90,
            1,
        );
        let report = aud.into_report();
        let kinds: Vec<_> = report.violations.iter().map(|v| v.invariant).collect();
        assert!(kinds.contains(&"time-monotonic"), "{kinds:?}");
        assert!(kinds.contains(&"energy-monotonic"), "{kinds:?}");
        assert!(kinds.contains(&"counter-monotonic"), "{kinds:?}");
    }

    #[test]
    fn dark_station_start_is_flagged() {
        let atm = Atm::new(1);
        let mut aud = Auditor::new(0, &atm);
        let t0 = SimTime::ZERO;
        let until = t0 + SimDuration::from_micros(50);
        aud.record_station_dark(t0, 2, until);
        // Overlapping shorter stall must not shrink the window.
        aud.record_station_dark(t0, 2, t0 + SimDuration::from_micros(10));
        aud.record_pe_start(t0 + SimDuration::from_micros(20), 2); // dark
        aud.record_pe_start(t0 + SimDuration::from_micros(20), 0); // other station fine
        aud.record_pe_start(until, 2); // boundary: window is half-open
        let report = aud.into_report();
        assert_eq!(report.violation_count, 1);
        assert_eq!(report.violations[0].invariant, "dark-station-start");
        assert!(report.violations[0].detail.contains("station 2"));
    }

    #[test]
    fn retry_budget_breach_is_flagged() {
        let atm = Atm::new(1);
        let mut aud = Auditor::new(0, &atm);
        let t = SimTime::ZERO;
        aud.record_retry(t, 1, 3);
        aud.record_retry(t, 3, 3); // at the budget: legal
        aud.record_retry(t, 4, 3); // past it: the degrade path was missed
        let report = aud.into_report();
        assert_eq!(report.violation_count, 1);
        assert_eq!(report.violations[0].invariant, "retry-bounded");
    }

    #[test]
    fn orphaned_retry_entries_are_flagged_only_when_drained() {
        let atm = Atm::new(1);
        let mut aud = Auditor::new(0, &atm);
        let t = SimTime::ZERO;
        aud.check_recovery_drained(t, 3, 2); // live work may hold entries
        aud.check_recovery_drained(t, 0, 0); // drained and clean
        aud.check_recovery_drained(t, 0, 2); // drained with strays: lost calls
        let report = aud.into_report();
        assert_eq!(report.violation_count, 1);
        assert_eq!(report.violations[0].invariant, "recovery-drained");
    }

    #[test]
    fn violation_recording_is_capped_but_counted() {
        let atm = Atm::new(1);
        let mut aud = Auditor::new(0, &atm);
        for _ in 0..100 {
            aud.check_queue(SimTime::ZERO, 0, 99, 64, 0, 256, 0, 0);
        }
        let report = aud.into_report();
        assert_eq!(report.violation_count, 100);
        assert_eq!(report.violations.len(), MAX_RECORDED);
        assert!(!report.is_clean());
    }
}
