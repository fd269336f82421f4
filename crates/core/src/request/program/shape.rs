//! Segment shapes: what one walk of a trace decides.
//!
//! A segment's hops depend only on its trace, its payload flags and its
//! entry size, and only the sizes depend on the entry size. So a
//! [`Shape`] holds the size-free part of a walk — each hop's
//! accelerator, Position Mark, transforms, branch and fork bits and the
//! glue count of its other actions, and how the walk ends — and
//! [`Shape::exec`] computes one hop's output size and glue count from
//! the size entering it, with the arithmetic the output dispatcher
//! uses. That is O(1) in the hop's index: the machine carries each
//! hop's input size with the work, so no read folds the hops before
//! it. Each thread interns one shape per walk in [`Shapes`], so a
//! program stores a shared handle per segment instead of a record per
//! hop.

use std::collections::HashMap;
use std::sync::Arc;

use accelflow_accel::dispatcher::glue_instructions;
use accelflow_accel::timing::ServiceTimeModel;
use accelflow_sim::time::SimDuration;
use accelflow_trace::atm::AtmAddr;
use accelflow_trace::cond::PayloadFlags;
use accelflow_trace::format::Transform;
use accelflow_trace::ir::{GlueAction, Next, PositionMark, Trace};
use accelflow_trace::kind::AccelKind;

use super::{HopExec, SegmentEnd};

/// One walk of `trace` under `flags`, entered from the network or from
/// a core.
#[derive(Debug)]
pub(super) struct Shape {
    pub(super) trace: Arc<Trace>,
    pub(super) flags: PayloadFlags,
    pub(super) entry_is_network: bool,
    /// How the walk ends; an `AwaitResponse` delay is the segment's own,
    /// and zero here.
    pub(super) end: SegmentEnd,
    /// The ATM address the walk chains to, if it does.
    pub(super) chain: Option<AtmAddr>,
    hops: Box<[HopShape]>,
}

/// The size-free part of one accelerator visit.
#[derive(Debug)]
struct HopShape {
    kind: AccelKind,
    pm: PositionMark,
    /// The transforms the output dispatcher applies after the hop, in
    /// walk order.
    transforms: Box<[Transform]>,
    /// The glue count of the hop's other actions and of where control
    /// goes next. [`glue_instructions`] sums one term per action, and
    /// only the transforms' terms depend on the size.
    fixed_glue: u32,
    branches_after: u8,
    fork_after: bool,
}

impl HopShape {
    /// The payload size leaving the hop when `in_bytes` enter it: the
    /// accelerator's output size, then each transform's ratio.
    fn out_bytes(&self, in_bytes: u64) -> u64 {
        let out = ServiceTimeModel::output_bytes(self.kind, in_bytes);
        self.transforms.iter().fold(out, |bytes, t| {
            ((bytes as f64) * t.size_ratio()).round().max(1.0) as u64
        })
    }

    /// The visit with `in_bytes` entering it, its glue counted at its
    /// output size.
    fn exec(&self, in_bytes: u64) -> HopExec {
        let out_bytes = self.out_bytes(in_bytes);
        let glue_instrs = self.transforms.iter().fold(self.fixed_glue, |glue, t| {
            glue.saturating_add(t.dispatcher_instructions(out_bytes))
        });
        HopExec {
            kind: self.kind,
            pm: self.pm,
            in_bytes,
            out_bytes,
            glue_instrs,
            branches_after: self.branches_after,
            transform_after: !self.transforms.is_empty(),
            fork_after: self.fork_after,
        }
    }
}

impl Shape {
    /// Walks `trace` under `flags`, using `actions` as the glue-action
    /// buffer.
    fn walk(
        trace: &Arc<Trace>,
        flags: PayloadFlags,
        entry_is_network: bool,
        actions: &mut Vec<GlueAction>,
    ) -> Shape {
        let mut hops: Vec<HopShape> = Vec::new();
        let mut next = trace.first_into(&flags, actions);
        while let Next::Invoke { kind, pm } = next {
            next = trace.advance_into(pm, &flags, actions);
            let transforms: Box<[Transform]> = actions
                .iter()
                .filter_map(|a| match a {
                    GlueAction::Transform(t) => Some(*t),
                    _ => None,
                })
                .collect();
            actions.retain(|a| !matches!(a, GlueAction::Transform(_)));
            hops.push(HopShape {
                kind,
                pm,
                transforms,
                // Without transforms the count does not read the size.
                fixed_glue: glue_instructions(actions, next, 0),
                branches_after: actions
                    .iter()
                    .filter(|a| matches!(a, GlueAction::Branch { .. }))
                    .count() as u8,
                fork_after: actions.iter().any(|a| matches!(a, GlueAction::ForkToCpu)),
            });
        }
        let (end, chain) = match next {
            Next::Chain(addr) => {
                // Chains whose last hop sent a network message wait for
                // the response; split-subtrace chains continue at once.
                let waits = hops.last().is_some_and(|h| h.kind == AccelKind::Tcp);
                let end = if waits {
                    SegmentEnd::AwaitResponse {
                        external: SimDuration::ZERO,
                    }
                } else {
                    SegmentEnd::Continue
                };
                (end, Some(addr))
            }
            _ => (SegmentEnd::ToCpu, None),
        };
        Shape {
            trace: Arc::clone(trace),
            flags,
            entry_is_network,
            end,
            chain,
            hops: hops.into(),
        }
    }

    pub(super) fn hop_count(&self) -> usize {
        self.hops.len()
    }

    pub(super) fn kind(&self, i: usize) -> Option<AccelKind> {
        self.hops.get(i).map(|hop| hop.kind)
    }

    /// The accelerator and Position Mark of visit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.hop_count()`.
    pub(super) fn mark(&self, i: usize) -> (AccelKind, PositionMark) {
        let hop = &self.hops[i];
        (hop.kind, hop.pm)
    }

    /// Visit `i` with `in_bytes` entering it.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.hop_count()`.
    pub(super) fn exec(&self, i: usize, in_bytes: u64) -> HopExec {
        self.hops[i].exec(in_bytes)
    }

    /// The visits of a segment entered with `entry_bytes`, in order,
    /// each taking the size the one before it produced.
    pub(super) fn hops(&self, entry_bytes: u64) -> impl ExactSizeIterator<Item = HopExec> + '_ {
        let mut bytes = entry_bytes;
        self.hops.iter().map(move |hop| {
            let exec = hop.exec(bytes);
            bytes = exec.out_bytes;
            exec
        })
    }
}

/// One thread's interned shapes. A key holds its trace's address; the
/// shape it maps to holds the trace, so no listed address is reused.
#[derive(Debug, Default)]
pub(super) struct Shapes {
    by_walk: HashMap<(*const Trace, PayloadFlags, bool), Arc<Shape>>,
    /// Size at which the next new shape first drops those no program
    /// holds (traces decoded from snapshots are fresh each time).
    prune_at: usize,
    actions: Vec<GlueAction>,
}

impl Shapes {
    /// Fewest shapes kept before pruning: far more than the walks of
    /// the standard library under every flag set a workload draws.
    const MIN_PRUNE_AT: usize = 4096;

    /// The shape of `trace`'s walk under `flags`, walked on first use.
    pub(super) fn intern(
        &mut self,
        trace: &Arc<Trace>,
        flags: PayloadFlags,
        entry_is_network: bool,
    ) -> Arc<Shape> {
        let key = (Arc::as_ptr(trace), flags, entry_is_network);
        if let Some(shape) = self.by_walk.get(&key) {
            return Arc::clone(shape);
        }
        if self.by_walk.len() >= self.prune_at {
            self.by_walk.retain(|_, shape| Arc::strong_count(shape) > 1);
            self.prune_at = (2 * self.by_walk.len()).max(Self::MIN_PRUNE_AT);
        }
        let shape = Arc::new(Shape::walk(
            trace,
            flags,
            entry_is_network,
            &mut self.actions,
        ));
        self.by_walk.insert(key, Arc::clone(&shape));
        shape
    }
}
