//! The trace intermediate representation and its interpreter.
//!
//! A [`Trace`] is a short, branch-capable program over accelerator
//! invocations. Hardware walks it with a **Position Mark** (paper
//! §IV-A): when a PE finishes, the accelerator's output dispatcher
//! advances the mark, resolving branch conditions, applying data
//! transformations, forking results to the CPU, chaining to a follow-on
//! trace in the ATM, or handing the payload to the next accelerator.
//!
//! [`Trace::advance`] is that dispatcher walk as a *pure function*: it
//! reports every glue action taken (so the machine model can charge
//! instruction costs, paper §VII-B2) and where control goes next.

use crate::atm::AtmAddr;
use crate::cond::{BranchCond, PayloadFlags};
use crate::format::Transform;
use crate::kind::AccelKind;

/// Index of a slot within a trace: the paper's moving Position Mark.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PositionMark(pub u8);

/// One slot of a trace program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Slot {
    /// Invoke an accelerator; the payload moves to its input queue.
    Accel(AccelKind),
    /// Resolve a branch condition and jump to the corresponding slot.
    Branch {
        /// Condition evaluated on the payload flags.
        cond: BranchCond,
        /// Slot index when the condition holds.
        on_true: u8,
        /// Slot index when it does not.
        on_false: u8,
    },
    /// Unconditional jump (used to rejoin after a branch arm).
    Jump(u8),
    /// Transform the payload between data formats.
    Transform(Transform),
    /// Deliver a copy of the payload to the originating CPU core and
    /// keep executing (T6 writes the DB cache *in parallel* with
    /// notifying the CPU).
    ForkToCpu,
    /// Terminal: deliver the payload to the originating CPU core.
    ToCpu,
    /// Terminal: load the trace stored at this ATM address and continue
    /// with it (paper: "the tail of the trace has an address").
    NextTrace(AtmAddr),
}

/// A glue operation the output dispatcher performed while advancing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GlueAction {
    /// A branch was resolved.
    Branch {
        /// The condition that was evaluated.
        cond: BranchCond,
        /// Whether it held.
        taken: bool,
    },
    /// A data transformation was applied.
    Transform(Transform),
    /// A result copy was forked to the CPU.
    ForkToCpu,
}

/// Where control goes after advancing the Position Mark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Next {
    /// Hand the payload to this accelerator; resume from `pm` when it
    /// completes.
    Invoke {
        /// The accelerator to invoke.
        kind: AccelKind,
        /// The position mark of the invocation slot.
        pm: PositionMark,
    },
    /// Trace complete: DMA the result to memory and notify the
    /// originating core.
    ToCpu,
    /// Trace complete: chain to the trace at this ATM address.
    Chain(AtmAddr),
}

/// The result of one dispatcher walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Advance {
    /// Glue actions performed, in order.
    pub actions: Vec<GlueAction>,
    /// Where control goes next.
    pub next: Next,
}

impl Advance {
    /// Whether any branch was resolved during this walk.
    pub fn resolved_branch(&self) -> bool {
        self.actions
            .iter()
            .any(|a| matches!(a, GlueAction::Branch { .. }))
    }
}

/// One step of a fully-resolved execution path (see
/// [`Trace::all_paths`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PathStep {
    /// An accelerator invocation.
    Accel(AccelKind),
    /// Delivery to the CPU (terminal or forked).
    Cpu,
    /// Chain to another trace.
    Chain(AtmAddr),
}

/// A trace: a named, validated program over accelerator invocations.
///
/// Construct traces with [`crate::builder::TraceBuilder`]; the paper's
/// T1–T12 library lives in [`crate::templates`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    name: String,
    slots: Vec<Slot>,
}

impl Trace {
    /// Creates a trace from raw slots.
    ///
    /// # Panics
    ///
    /// Panics if the program is invalid: more than 255 slots, a jump or
    /// branch target that is out of range or not strictly forward
    /// (forward-only control flow guarantees termination). Use
    /// [`Trace::try_new`] for untrusted input.
    pub fn new(name: impl Into<String>, slots: Vec<Slot>) -> Self {
        Self::try_new(name, slots).expect("invalid trace program")
    }

    /// Fallible constructor for untrusted slot programs (e.g. decoded
    /// from bytes off the wire).
    ///
    /// # Errors
    ///
    /// Returns the validation failure (see [`Trace::validate`]).
    pub fn try_new(name: impl Into<String>, slots: Vec<Slot>) -> Result<Self, String> {
        let trace = Trace {
            name: name.into(),
            slots,
        };
        trace.validate()?;
        Ok(trace)
    }

    /// Validates the program.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.slots.len() > u8::MAX as usize {
            return Err(format!("trace '{}' exceeds 255 slots", self.name));
        }
        let len = self.slots.len();
        for (i, slot) in self.slots.iter().enumerate() {
            let check = |target: u8, what: &str| -> Result<(), String> {
                if (target as usize) > len {
                    return Err(format!(
                        "trace '{}': {what} target {target} out of range at slot {i}",
                        self.name
                    ));
                }
                if (target as usize) <= i {
                    return Err(format!(
                        "trace '{}': {what} target {target} not forward at slot {i}",
                        self.name
                    ));
                }
                Ok(())
            };
            match slot {
                Slot::Branch {
                    on_true, on_false, ..
                } => {
                    check(*on_true, "branch")?;
                    check(*on_false, "branch")?;
                }
                Slot::Jump(t) => check(*t, "jump")?,
                _ => {}
            }
        }
        Ok(())
    }

    /// The trace's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The raw program.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Number of `Accel` slots (static count over both branch arms).
    pub fn accelerator_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, Slot::Accel(_)))
            .count()
    }

    /// Number of branch slots.
    pub fn branch_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, Slot::Branch { .. }))
            .count()
    }

    /// Finds the first accelerator to invoke (processing any leading
    /// glue slots with `flags`), as the CPU's `Enqueue` instruction
    /// does.
    pub fn first(&self, flags: &PayloadFlags) -> Advance {
        let mut actions = Vec::new();
        let next = self.first_into(flags, &mut actions);
        Advance { actions, next }
    }

    /// [`Trace::first`] into a caller-owned buffer: clears `actions`,
    /// records the glue actions in it and returns where control goes,
    /// so a caller that reuses one buffer walks without allocating.
    pub fn first_into(&self, flags: &PayloadFlags, actions: &mut Vec<GlueAction>) -> Next {
        actions.clear();
        self.walk(0, flags, actions)
    }

    /// Advances the Position Mark past a completed invocation at `pm`,
    /// resolving glue slots with `flags` — the output-dispatcher walk
    /// of paper Fig 8.
    ///
    /// # Panics
    ///
    /// Panics if `pm` does not point at an `Accel` slot.
    pub fn advance(&self, pm: PositionMark, flags: &PayloadFlags) -> Advance {
        let mut actions = Vec::new();
        let next = self.advance_into(pm, flags, &mut actions);
        Advance { actions, next }
    }

    /// [`Trace::advance`] into a caller-owned buffer, as
    /// [`Trace::first_into`] does.
    ///
    /// # Panics
    ///
    /// Panics if `pm` does not point at an `Accel` slot.
    pub fn advance_into(
        &self,
        pm: PositionMark,
        flags: &PayloadFlags,
        actions: &mut Vec<GlueAction>,
    ) -> Next {
        assert!(
            matches!(self.slots.get(pm.0 as usize), Some(Slot::Accel(_))),
            "advance must start from an accelerator slot"
        );
        actions.clear();
        self.walk(pm.0 as usize + 1, flags, actions)
    }

    fn walk(&self, mut idx: usize, flags: &PayloadFlags, actions: &mut Vec<GlueAction>) -> Next {
        loop {
            match self.slots.get(idx) {
                // Falling off the end notifies the CPU.
                None | Some(Slot::ToCpu) => return Next::ToCpu,
                Some(Slot::Accel(kind)) => {
                    return Next::Invoke {
                        kind: *kind,
                        pm: PositionMark(idx as u8),
                    }
                }
                Some(Slot::Branch {
                    cond,
                    on_true,
                    on_false,
                }) => {
                    let taken = cond.evaluate(flags);
                    actions.push(GlueAction::Branch { cond: *cond, taken });
                    idx = if taken { *on_true } else { *on_false } as usize;
                }
                Some(Slot::Jump(t)) => idx = *t as usize,
                Some(Slot::Transform(t)) => {
                    actions.push(GlueAction::Transform(*t));
                    idx += 1;
                }
                Some(Slot::ForkToCpu) => {
                    actions.push(GlueAction::ForkToCpu);
                    idx += 1;
                }
                Some(Slot::NextTrace(addr)) => return Next::Chain(*addr),
            }
        }
    }

    /// Enumerates every distinct fully-resolved execution path by
    /// exhaustively toggling the payload flags (the five named flags:
    /// 32 combinations). Used to derive the Table I connectivity matrix
    /// and to characterize traces.
    pub fn all_paths(&self) -> Vec<Vec<PathStep>> {
        let mut paths: Vec<Vec<PathStep>> = Vec::new();
        for bits in 0u8..32 {
            let path = self.resolve_path(&named_flags(bits));
            if !paths.contains(&path) {
                paths.push(path);
            }
        }
        paths
    }

    /// The execution path under one specific flag assignment.
    pub fn resolve_path(&self, flags: &PayloadFlags) -> Vec<PathStep> {
        let mut path = Vec::new();
        let mut actions = Vec::new();
        let mut next = self.first_into(flags, &mut actions);
        loop {
            for a in &actions {
                if matches!(a, GlueAction::ForkToCpu) {
                    path.push(PathStep::Cpu);
                }
            }
            match next {
                Next::Invoke { kind, pm } => {
                    path.push(PathStep::Accel(kind));
                    next = self.advance_into(pm, flags, &mut actions);
                }
                Next::ToCpu => {
                    path.push(PathStep::Cpu);
                    return path;
                }
                Next::Chain(addr) => {
                    path.push(PathStep::Chain(addr));
                    return path;
                }
            }
        }
    }
}

/// The five named payload flags set from the low five bits of `bits`.
fn named_flags(bits: u8) -> PayloadFlags {
    PayloadFlags {
        compressed: bits & 1 != 0,
        hit: bits & 2 != 0,
        found: bits & 4 != 0,
        exception: bits & 8 != 0,
        cache_compressed: bits & 16 != 0,
        custom_field: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::DataFormat;

    fn t1_like() -> Trace {
        // Tcp Decr Rpc Dser [Compressed? -> Transform, Dcmp] Ldb ToCpu
        Trace::new(
            "t1",
            vec![
                Slot::Accel(AccelKind::Tcp),
                Slot::Accel(AccelKind::Decr),
                Slot::Accel(AccelKind::Rpc),
                Slot::Accel(AccelKind::Dser),
                Slot::Branch {
                    cond: BranchCond::Compressed,
                    on_true: 5,
                    on_false: 7,
                },
                Slot::Transform(Transform {
                    src: DataFormat::Json,
                    dst: DataFormat::Str,
                }),
                Slot::Accel(AccelKind::Dcmp),
                Slot::Accel(AccelKind::Ldb),
                Slot::ToCpu,
            ],
        )
    }

    #[test]
    fn sequence_walk_without_branch() {
        let t = t1_like();
        let flags = PayloadFlags::default();
        let first = t.first(&flags);
        assert_eq!(
            first.next,
            Next::Invoke {
                kind: AccelKind::Tcp,
                pm: PositionMark(0)
            }
        );
        assert!(first.actions.is_empty());

        // After Dser with an uncompressed payload: branch skips Dcmp.
        let adv = t.advance(PositionMark(3), &flags);
        assert_eq!(
            adv.next,
            Next::Invoke {
                kind: AccelKind::Ldb,
                pm: PositionMark(7)
            }
        );
        assert_eq!(adv.actions.len(), 1);
        assert!(adv.resolved_branch());
    }

    #[test]
    fn branch_taken_inserts_transform_and_dcmp() {
        let t = t1_like();
        let flags = PayloadFlags {
            compressed: true,
            ..Default::default()
        };
        let adv = t.advance(PositionMark(3), &flags);
        assert_eq!(
            adv.next,
            Next::Invoke {
                kind: AccelKind::Dcmp,
                pm: PositionMark(6)
            }
        );
        // Branch resolution + transform.
        assert_eq!(adv.actions.len(), 2);
        assert!(matches!(adv.actions[1], GlueAction::Transform(_)));
    }

    #[test]
    fn terminal_to_cpu() {
        let t = t1_like();
        let adv = t.advance(PositionMark(7), &PayloadFlags::default());
        assert_eq!(adv.next, Next::ToCpu);
    }

    #[test]
    fn chain_terminal() {
        let t = Trace::new(
            "t4",
            vec![
                Slot::Accel(AccelKind::Ser),
                Slot::Accel(AccelKind::Encr),
                Slot::Accel(AccelKind::Tcp),
                Slot::NextTrace(AtmAddr(42)),
            ],
        );
        let adv = t.advance(PositionMark(2), &PayloadFlags::default());
        assert_eq!(adv.next, Next::Chain(AtmAddr(42)));
    }

    #[test]
    fn implicit_to_cpu_at_end() {
        let t = Trace::new("short", vec![Slot::Accel(AccelKind::Ldb)]);
        let adv = t.advance(PositionMark(0), &PayloadFlags::default());
        assert_eq!(adv.next, Next::ToCpu);
    }

    #[test]
    fn fork_to_cpu_is_reported_and_continues() {
        let t = Trace::new(
            "fork",
            vec![
                Slot::Accel(AccelKind::Dser),
                Slot::ForkToCpu,
                Slot::Accel(AccelKind::Ser),
            ],
        );
        let adv = t.advance(PositionMark(0), &PayloadFlags::default());
        assert_eq!(adv.actions, vec![GlueAction::ForkToCpu]);
        assert!(matches!(
            adv.next,
            Next::Invoke {
                kind: AccelKind::Ser,
                ..
            }
        ));
    }

    #[test]
    fn all_paths_of_t1() {
        let t = t1_like();
        let paths = t.all_paths();
        assert_eq!(paths.len(), 2);
        let lens: Vec<usize> = paths.iter().map(|p| p.len()).collect();
        // Uncompressed: 5 accels + Cpu = 6; compressed: 6 accels + Cpu = 7.
        assert!(lens.contains(&6) && lens.contains(&7), "{lens:?}");
    }

    #[test]
    fn counts() {
        let t = t1_like();
        assert_eq!(t.accelerator_count(), 6);
        assert_eq!(t.branch_count(), 1);
        assert_eq!(t.name(), "t1");
    }

    #[test]
    #[should_panic(expected = "not forward")]
    fn backward_jump_rejected() {
        let _ = Trace::new("loop", vec![Slot::Accel(AccelKind::Tcp), Slot::Jump(0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_branch_rejected() {
        let _ = Trace::new(
            "oob",
            vec![Slot::Branch {
                cond: BranchCond::Hit,
                on_true: 9,
                on_false: 1,
            }],
        );
    }

    #[test]
    fn into_walks_match_the_allocating_walks() {
        let lib = crate::templates::TraceLibrary::standard();
        // Dirty from a walk that recorded a branch and a transform.
        let mut actions = Vec::new();
        let flags = PayloadFlags {
            compressed: true,
            ..Default::default()
        };
        t1_like().advance_into(PositionMark(3), &flags, &mut actions);
        assert_eq!(actions.len(), 2);
        let mut walks = 0;
        for trace in lib.traces() {
            for bits in 0u8..32 {
                let flags = named_flags(bits);
                let first = trace.first(&flags);
                assert_eq!(trace.first_into(&flags, &mut actions), first.next);
                assert_eq!(actions, first.actions, "{}", trace.name());
                for (pm, slot) in trace.slots().iter().enumerate() {
                    if !matches!(slot, Slot::Accel(_)) {
                        continue;
                    }
                    let pm = PositionMark(pm as u8);
                    let adv = trace.advance(pm, &flags);
                    assert_eq!(trace.advance_into(pm, &flags, &mut actions), adv.next);
                    assert_eq!(actions, adv.actions, "{} at {pm:?}", trace.name());
                    walks += 1;
                }
            }
        }
        assert!(walks > 1000, "{walks} walks");
    }

    #[test]
    #[should_panic(expected = "accelerator slot")]
    fn advance_from_glue_slot_rejected() {
        let t = t1_like();
        let _ = t.advance(PositionMark(4), &PayloadFlags::default());
    }
}
