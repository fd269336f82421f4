//! Dispatcher models: glue-instruction accounting for the output
//! dispatcher (paper Fig 8, §VII-B2) and scheduling policies for the
//! input dispatcher (paper §IV-C, §V-1).

use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::ir::{Advance, GlueAction, Next};

use crate::queue::QueueEntry;

/// Glue-instruction cost of one output-dispatcher walk (paper §VII-B2):
///
/// - no branch / end / transform: **~15** RISC-like instructions;
/// - each branch resolved: **+7** (named flags) / +9 (custom tests);
/// - end of trace: **12–20** — we charge 14 for an ATM chain (read ATM,
///   move trace) and 18 for a CPU hand-off (program DMA, notify, clear);
/// - data transformation: **12 per 2 KB** of payload;
/// - a mid-trace fork to the CPU costs like a CPU hand-off (18).
///
/// Returns the instruction count; the machine converts instructions to
/// time at the dispatcher clock and charges energy per instruction.
pub fn output_dispatch_instructions(advance: &Advance, payload_bytes: u64) -> u32 {
    glue_instructions(&advance.actions, advance.next, payload_bytes)
}

/// [`output_dispatch_instructions`] of a walk given as its parts, for
/// callers that walk into a reused buffer ([`Trace::advance_into`]).
/// Saturates at `u32::MAX` for payload sizes no run reaches.
///
/// [`Trace::advance_into`]: accelflow_trace::ir::Trace::advance_into
pub fn glue_instructions(actions: &[GlueAction], next: Next, payload_bytes: u64) -> u32 {
    let mut instrs = 15u32;
    for action in actions {
        instrs = instrs.saturating_add(match action {
            GlueAction::Branch { cond, .. } => cond.resolve_instructions(),
            GlueAction::Transform(t) => t.dispatcher_instructions(payload_bytes),
            GlueAction::ForkToCpu => 18,
        });
    }
    instrs.saturating_add(match next {
        Next::Invoke { .. } => 0,
        Next::Chain(_) => 14,
        Next::ToCpu => 18,
    })
}

/// Input-dispatcher scheduling policy (paper §V-1: FIFO by default;
/// priority and deadline-aware orders as extensions, §IV-C).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueuePolicy {
    /// First in, first out (the base AccelFlow design).
    #[default]
    Fifo,
    /// Highest `priority` tag first (FIFO among equals).
    Priority,
    /// Deadline-aware: pick the entry closest to violating its soft
    /// deadline; entries without deadlines run FIFO behind
    /// deadline-tagged ones only when those have negative slack.
    DeadlineAware,
}

impl QueuePolicy {
    /// Chooses which SRAM queue index the input dispatcher moves into
    /// the free PE next. Returns `None` when the queue slice is empty.
    pub fn select(self, entries: &[&QueueEntry], now: SimTime) -> Option<usize> {
        self.select_from(entries.iter().copied(), now)
    }

    /// [`QueuePolicy::select`] over any entry iterator, so callers can
    /// scan a queue in place without collecting a slice of references
    /// (the dispatch inner loop runs this on every PE start).
    pub fn select_from<'a, I>(self, mut entries: I, now: SimTime) -> Option<usize>
    where
        I: Iterator<Item = &'a QueueEntry>,
    {
        let head = entries.next()?;
        match self {
            QueuePolicy::Fifo => Some(0),
            QueuePolicy::Priority => {
                // Highest priority wins; FIFO among equals (strict
                // greater-than keeps the earliest index).
                let mut best = (0, head.priority);
                for (i, e) in entries.enumerate() {
                    if e.priority > best.1 {
                        best = (i + 1, e.priority);
                    }
                }
                Some(best.0)
            }
            QueuePolicy::DeadlineAware => {
                // Earliest-deadline-first among tagged entries; if the
                // head has comfortable slack and someone is about to
                // violate, the urgent one jumps the line (§IV-C's
                // slack-passing reorder).
                let head_deadline = head.deadline;
                let mut urgent = head_deadline.map(|d| (0usize, d));
                for (i, e) in entries.enumerate() {
                    if let Some(d) = e.deadline {
                        if urgent.map(|(_, ud)| d < ud).unwrap_or(true) {
                            urgent = Some((i + 1, d));
                        }
                    }
                }
                match urgent {
                    Some((i, deadline)) => match head_deadline {
                        // Head itself is the most urgent or equally
                        // urgent: FIFO.
                        Some(hd) if hd <= deadline => Some(0),
                        // Head has no deadline or later deadline:
                        // run the urgent entry if it is at risk,
                        // otherwise stay FIFO.
                        _ => {
                            if deadline <= now + SimDuration::from_micros(50) {
                                Some(i)
                            } else {
                                Some(0)
                            }
                        }
                    },
                    None => Some(0),
                }
            }
        }
    }
}

accelflow_sim::impl_snapshot! {
    enum QueuePolicy { 0 => Fifo, 1 => Priority, 2 => DeadlineAware }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelflow_trace::atm::AtmAddr;
    use accelflow_trace::cond::{BranchCond, PayloadFlags};
    use accelflow_trace::format::{DataFormat, Transform};
    use accelflow_trace::ir::PositionMark;
    use accelflow_trace::kind::AccelKind;

    use crate::queue::{RequestId, TenantId};

    fn advance(actions: Vec<GlueAction>, next: Next) -> Advance {
        Advance { actions, next }
    }

    #[test]
    fn plain_hop_costs_fifteen() {
        let adv = advance(
            vec![],
            Next::Invoke {
                kind: AccelKind::Ser,
                pm: PositionMark(1),
            },
        );
        assert_eq!(output_dispatch_instructions(&adv, 2048), 15);
    }

    #[test]
    fn branch_adds_seven() {
        let adv = advance(
            vec![GlueAction::Branch {
                cond: BranchCond::Hit,
                taken: true,
            }],
            Next::Invoke {
                kind: AccelKind::Ldb,
                pm: PositionMark(5),
            },
        );
        assert_eq!(output_dispatch_instructions(&adv, 2048), 22);
    }

    #[test]
    fn terminals_cost_twelve_to_twenty() {
        let chain = advance(vec![], Next::Chain(AtmAddr(1)));
        let to_cpu = advance(vec![], Next::ToCpu);
        let chain_cost = output_dispatch_instructions(&chain, 0) - 15;
        let cpu_cost = output_dispatch_instructions(&to_cpu, 0) - 15;
        assert!((12..=20).contains(&chain_cost));
        assert!((12..=20).contains(&cpu_cost));
    }

    #[test]
    fn transform_costs_twelve_per_2kb() {
        let t = Transform {
            src: DataFormat::Json,
            dst: DataFormat::Str,
        };
        let adv = advance(
            vec![GlueAction::Transform(t)],
            Next::Invoke {
                kind: AccelKind::Dcmp,
                pm: PositionMark(3),
            },
        );
        assert_eq!(output_dispatch_instructions(&adv, 2048), 27);
        assert_eq!(output_dispatch_instructions(&adv, 6000), 15 + 36);
    }

    #[test]
    fn worst_case_near_fifty() {
        // Paper: "in the worst case, an output dispatcher executes
        // about 50 RISC instructions".
        let t = Transform {
            src: DataFormat::Json,
            dst: DataFormat::Str,
        };
        let adv = advance(
            vec![
                GlueAction::Branch {
                    cond: BranchCond::Compressed,
                    taken: true,
                },
                GlueAction::Transform(t),
            ],
            Next::ToCpu,
        );
        let worst = output_dispatch_instructions(&adv, 2048);
        assert!((45..=55).contains(&worst), "{worst}");
    }

    fn entry(req: u64, priority: u8, deadline_us: Option<u64>) -> QueueEntry {
        QueueEntry {
            request: RequestId(req),
            tenant: TenantId(0),
            pm: PositionMark(0),
            data_bytes: 512,
            flags: PayloadFlags::default(),
            vaddr: 0,
            deadline: deadline_us.map(|us| SimTime::ZERO + SimDuration::from_micros(us)),
            priority,
            enqueued_at: SimTime::ZERO,
            origin_core: 0,
            tag: 0,
        }
    }

    #[test]
    fn fifo_picks_head() {
        let a = entry(1, 0, None);
        let b = entry(2, 9, None);
        let picks = QueuePolicy::Fifo.select(&[&a, &b], SimTime::ZERO);
        assert_eq!(picks, Some(0));
        assert_eq!(QueuePolicy::Fifo.select(&[], SimTime::ZERO), None);
    }

    #[test]
    fn priority_picks_highest_fifo_among_equals() {
        let a = entry(1, 3, None);
        let b = entry(2, 9, None);
        let c = entry(3, 9, None);
        assert_eq!(
            QueuePolicy::Priority.select(&[&a, &b, &c], SimTime::ZERO),
            Some(1)
        );
        let d = entry(4, 3, None);
        assert_eq!(
            QueuePolicy::Priority.select(&[&a, &d], SimTime::ZERO),
            Some(0)
        );
    }

    #[test]
    fn deadline_aware_promotes_urgent_entries() {
        let now = SimTime::ZERO + SimDuration::from_micros(100);
        let relaxed = entry(1, 0, Some(10_000)); // 10 ms away
        let urgent = entry(2, 0, Some(120)); // 20 us away
        assert_eq!(
            QueuePolicy::DeadlineAware.select(&[&relaxed, &urgent], now),
            Some(1)
        );
        // Without urgency, FIFO.
        let far = entry(3, 0, Some(20_000));
        assert_eq!(
            QueuePolicy::DeadlineAware.select(&[&relaxed, &far], now),
            Some(0)
        );
        // No deadlines at all: FIFO.
        let plain = entry(4, 0, None);
        assert_eq!(
            QueuePolicy::DeadlineAware.select(&[&plain, &plain], now),
            Some(0)
        );
    }
}
