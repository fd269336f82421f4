//! The orchestration policies under evaluation (paper §III, §VI).
//!
//! Every design point shares the accelerators, queues, A-DMA engines
//! and interconnect; the designs differ only in *who coordinates an
//! accelerator-to-accelerator transition*. Each [`Policy`] is therefore
//! one const `PolicyRow`: its display name, its `Transition`, and the
//! input-queue discipline. Every other per-policy fact the machine
//! consults is a method on `Transition`, so adding a design point is
//! one row.
//!
//! | policy | transition | orchestration |
//! |---|---|---|
//! | `NonAcc` | `CpuOnly` | every tax op runs on a CPU core |
//! | `CpuCentric` | `CoreIrq` | a core invokes one accelerator at a time; completion interrupts the core |
//! | `Relief` | `Manager { shared_queue: true }` | centralized HW manager, one shared queue for all 72 PEs |
//! | `ReliefPerTypeQ` | `Manager { shared_queue: false }` | Fig 13 step 1: + a queue per accelerator type |
//! | `Direct` | `Dispatcher { branches: false, transforms: false }` | Fig 13 step 2: + traces with direct accelerator-to-accelerator transfers; branches, transforms, and large payloads still bounce to the manager |
//! | `CntrFlow` | `Dispatcher { branches: true, transforms: false }` | Fig 13 step 3: + branches resolved in output dispatchers |
//! | `AccelFlow` | `Dispatcher { branches: true, transforms: true }` | the full design: + transforms and large payloads handled by dispatchers |
//! | `AccelFlowDeadline` | as `AccelFlow` | AccelFlow with the deadline-aware input-dispatcher policy (§IV-C) |
//! | `Cohort` | `Cohort` | statically linked accelerator pairs communicate directly; everything else is orchestrated by cores through shared-memory software queues |
//! | `Ideal` | `Free` | direct communication with zero orchestration cost (Fig 14's bound) |

use accelflow_accel::dispatcher::QueuePolicy;
use accelflow_arch::config::ArchConfig;
use accelflow_sim::time::SimDuration;
use accelflow_trace::kind::AccelKind;

/// An orchestration policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Policy {
    /// No accelerators: all tax operations execute on cores.
    NonAcc,
    /// Cores orchestrate accelerators one invocation at a time.
    CpuCentric,
    /// RELIEF-style centralized hardware manager with a single shared
    /// queue.
    Relief,
    /// RELIEF with per-accelerator-type queues (Fig 13 "PerAccTypeQ").
    ReliefPerTypeQ,
    /// Traces + direct transfers; control flow and transforms still go
    /// through the manager (Fig 13 "Direct").
    Direct,
    /// Direct + branch resolution in dispatchers (Fig 13 "CntrFlow").
    CntrFlow,
    /// The complete AccelFlow design.
    AccelFlow,
    /// AccelFlow with deadline-aware input scheduling (§IV-C).
    AccelFlowDeadline,
    /// Cohort-style static pair chaining with software queues.
    Cohort,
    /// Zero-overhead direct chaining (upper bound, Fig 14).
    Ideal,
}

/// Who coordinates the transition after an accelerator hop completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Transition {
    /// No accelerator hops: whole segments run on cores.
    CpuOnly,
    /// Completion interrupts the originating core, which submits the
    /// next invocation; payloads are staged through the core.
    CoreIrq,
    /// Every completion interrupts a centralized hardware manager.
    Manager {
        /// All accelerator types share one queue drained by the
        /// manager, with head-of-line blocking across types.
        shared_queue: bool,
    },
    /// Output dispatchers run the glue instructions and move payloads
    /// with the A-DMA engines; whatever they cannot resolve locally
    /// bounces to the manager.
    Dispatcher {
        /// Dispatchers resolve branches.
        branches: bool,
        /// Dispatchers perform data transforms and drive
        /// Memory-Pointer payloads.
        transforms: bool,
    },
    /// Statically linked pairs hand off through LLC software queues;
    /// every other hop falls back to a polling core.
    Cohort,
    /// Transitions are free; payloads move at raw interconnect latency.
    Free,
}

/// How a payload moves between two accelerator stations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TransferMode {
    /// Raw interconnect latency only — the Ideal bound.
    Instant,
    /// Staged through the core's memory hierarchy (two network legs
    /// plus a cache access); designs without A-DMA engines.
    StagedViaCore,
    /// An A-DMA engine moves the payload station-to-station.
    Dma,
}

/// One design point: everything the machine needs to know about a
/// [`Policy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PolicyRow {
    /// Display name matching the paper's figures.
    pub(crate) name: &'static str,
    /// Who coordinates accelerator-to-accelerator transitions.
    pub(crate) transition: Transition,
    /// Scheduling discipline of the accelerator input queues.
    pub(crate) queue: QueuePolicy,
}

/// Cohort's statically linked ordered pairs: Cohort links "a few"
/// accelerators that always go together — the TCP→Decr receive edge
/// and the Encr→TCP send edge. Transfers matching a linked pair bypass
/// the cores.
pub(crate) const COHORT_LINKS: [(AccelKind, AccelKind); 2] = [
    (AccelKind::Tcp, AccelKind::Decr),
    (AccelKind::Encr, AccelKind::Tcp),
];

/// Whether this ordered hop is covered by a Cohort static link.
pub(crate) fn cohort_linked(from: AccelKind, to: AccelKind) -> bool {
    COHORT_LINKS.contains(&(from, to))
}

impl Policy {
    /// The five architectures of Fig 11/12/14, in the paper's order.
    pub const HEADLINE: [Policy; 5] = [
        Policy::NonAcc,
        Policy::CpuCentric,
        Policy::Relief,
        Policy::Cohort,
        Policy::AccelFlow,
    ];

    /// The Fig 13 ablation ladder, in order of technique addition.
    pub const ABLATION: [Policy; 5] = [
        Policy::Relief,
        Policy::ReliefPerTypeQ,
        Policy::Direct,
        Policy::CntrFlow,
        Policy::AccelFlow,
    ];

    /// This policy's row of the policy table.
    #[rustfmt::skip]
    pub(crate) const fn row(self) -> PolicyRow {
        use QueuePolicy::{DeadlineAware, Fifo};
        use Transition::*;
        let (name, transition, queue) = match self {
            Policy::NonAcc            => ("Non-acc",      CpuOnly,                                           Fifo),
            Policy::CpuCentric        => ("CPU-Centric",  CoreIrq,                                           Fifo),
            Policy::Relief            => ("RELIEF",       Manager { shared_queue: true },                    Fifo),
            Policy::ReliefPerTypeQ    => ("PerAccTypeQ",  Manager { shared_queue: false },                   Fifo),
            Policy::Direct            => ("Direct",       Dispatcher { branches: false, transforms: false }, Fifo),
            Policy::CntrFlow          => ("CntrFlow",     Dispatcher { branches: true, transforms: false },  Fifo),
            Policy::AccelFlow         => ("AccelFlow",    Dispatcher { branches: true, transforms: true },   Fifo),
            Policy::AccelFlowDeadline => ("AccelFlow+DL", Dispatcher { branches: true, transforms: true },   DeadlineAware),
            Policy::Cohort            => ("Cohort",       Cohort,                                            Fifo),
            Policy::Ideal             => ("Ideal",        Free,                                              Fifo),
        };
        PolicyRow { name, transition, queue }
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        self.row().name
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Transition {
    /// Whole segments run on cores; no accelerator is ever touched.
    pub(crate) fn cpu_only(self) -> bool {
        matches!(self, Transition::CpuOnly)
    }

    /// All accelerator types share one queue drained by the manager
    /// (RELIEF base design).
    pub(crate) fn single_shared_queue(self) -> bool {
        matches!(self, Transition::Manager { shared_queue: true })
    }

    /// Core-side cost of submitting a fresh trace call.
    pub(crate) fn submit_cost(self, arch: &ArchConfig) -> SimDuration {
        match self {
            Transition::CpuOnly | Transition::CoreIrq | Transition::Manager { .. } => {
                arch.cpu_submit_overhead
            }
            Transition::Dispatcher { .. } => arch.cycles(arch.enqueue_cycles),
            Transition::Cohort => arch.cohort_queue_overhead,
            Transition::Free => SimDuration::ZERO,
        }
    }

    /// Manager occupancy paid when a queue entry's Memory-Pointer
    /// payload spills past the inline bytes; `None` when the design
    /// handles spills without the manager.
    pub(crate) fn spill_occupancy(self, arch: &ArchConfig) -> Option<SimDuration> {
        match self {
            Transition::Manager { .. } => Some(arch.manager_service_time),
            Transition::Dispatcher {
                transforms: false, ..
            } => Some(arch.manager_fallback_time),
            _ => None,
        }
    }

    /// How the payload travels from `from` to `to`.
    pub(crate) fn transfer_mode(self, from: AccelKind, to: AccelKind) -> TransferMode {
        match self {
            Transition::CoreIrq => TransferMode::StagedViaCore,
            Transition::Cohort if !cohort_linked(from, to) => TransferMode::StagedViaCore,
            Transition::Free => TransferMode::Instant,
            _ => TransferMode::Dma,
        }
    }

    /// The TCP dispatcher pre-loads the response trace from the ATM at
    /// an `AwaitResponse` boundary (§IV-B) instead of leaving it to
    /// the core.
    pub(crate) fn preloads_response_trace(self) -> bool {
        matches!(self, Transition::Dispatcher { .. })
    }

    /// A core must notice and resubmit when an external response
    /// re-enters through TCP. Non-acc responses re-enter through the
    /// CPU path instead, and dispatchers that own transforms
    /// re-dispatch in hardware.
    pub(crate) fn resubmits_external_response(self) -> bool {
        matches!(
            self,
            Transition::CoreIrq
                | Transition::Manager { .. }
                | Transition::Cohort
                | Transition::Dispatcher {
                    transforms: false,
                    ..
                }
        )
    }

    /// A failed trace hop is re-issued by software on a core (paying
    /// the submit overhead per retry). Dispatcher designs re-issue
    /// from the hardware front-end instead — retries cost only the
    /// backoff delay. See `docs/RESILIENCE.md`.
    pub(crate) fn recovery_via_core(self) -> bool {
        !matches!(self, Transition::Dispatcher { .. } | Transition::Free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVERY_POLICY: [Policy; 10] = [
        Policy::NonAcc,
        Policy::CpuCentric,
        Policy::Relief,
        Policy::ReliefPerTypeQ,
        Policy::Direct,
        Policy::CntrFlow,
        Policy::AccelFlow,
        Policy::AccelFlowDeadline,
        Policy::Cohort,
        Policy::Ideal,
    ];

    #[test]
    fn ablation_ladder_adds_one_capability_per_rung() {
        // [per-type queues, direct transfers, branches, transforms]
        let caps = |p: Policy| match p.row().transition {
            Transition::Manager { shared_queue } => [!shared_queue, false, false, false],
            Transition::Dispatcher {
                branches,
                transforms,
            } => [true, true, branches, transforms],
            other => panic!("{p}: {other:?} is not on the ablation ladder"),
        };
        for w in Policy::ABLATION.windows(2) {
            let (a, b) = (caps(w[0]), caps(w[1]));
            for i in 0..a.len() {
                assert!(!a[i] || b[i], "{} → {} loses capability {i}", w[0], w[1]);
            }
            let added = (0..a.len()).filter(|&i| !a[i] && b[i]).count();
            assert_eq!(added, 1, "{} → {} must add exactly one", w[0], w[1]);
        }
    }

    #[test]
    fn deadline_variant_differs_only_in_queue() {
        let a = Policy::AccelFlow.row();
        let b = Policy::AccelFlowDeadline.row();
        assert_ne!(a.queue, b.queue);
        assert_eq!(
            PolicyRow {
                queue: a.queue,
                ..b
            },
            PolicyRow { name: b.name, ..a }
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = EVERY_POLICY.iter().map(|p| p.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), EVERY_POLICY.len());
    }

    #[test]
    fn cohort_links_are_ordered_pairs() {
        use AccelKind::*;
        for (from, to) in COHORT_LINKS {
            assert!(cohort_linked(from, to));
            assert!(!cohort_linked(to, from), "{from:?}→{to:?} is one-way");
            assert_eq!(
                Transition::Cohort.transfer_mode(from, to),
                TransferMode::Dma
            );
            assert_eq!(
                Transition::Cohort.transfer_mode(to, from),
                TransferMode::StagedViaCore
            );
        }
        assert!(!cohort_linked(Dser, Ldb));
    }
}
