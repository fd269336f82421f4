//! Deterministic fault injection: the fault model and its knobs.
//!
//! The machine models the happy path plus a single timeout escape
//! hatch; real hardware hiccups. This module defines the seeded fault
//! injector the machine runs when any [`FaultConfig`] rate is nonzero:
//! five fault classes, each a Poisson process scheduled through the
//! ordinary event kernel, drawn from an RNG stream *isolated* from the
//! workload streams so that
//!
//! 1. same seed ⇒ byte-identical runs (fault times, targets, and
//!    durations included), and
//! 2. all rates zero ⇒ the event stream is bit-identical to a build
//!    without the injector (zero draws, zero events — enforced against
//!    the committed golden hashes in `tests/golden_events.rs`).
//!
//! The classes (see `docs/RESILIENCE.md` for the full model):
//!
//! | class | effect |
//! |---|---|
//! | [`FaultClass::AccelStall`] | a station's PEs go dark for a drawn duration; in-flight jobs fail |
//! | [`FaultClass::DmaError`] | the next A-DMA transfer delivers a corrupt payload |
//! | [`FaultClass::TlbShootdown`] | every accelerator TLB is invalidated at once |
//! | [`FaultClass::QueueDrop`] | one SRAM input-queue entry is lost |
//! | [`FaultClass::AtmMiss`] | the next synchronous ATM read misses and refetches |
//!
//! Recovery (bounded retry with exponential backoff, sibling
//! re-dispatch around dark stations, CPU degradation when retries
//! exhaust) lives in the machine's `resilience` handler module; every
//! decision is counted here in [`FaultStats`].
//!
//! # Example
//!
//! A faulty run stays conservation-clean under the invariant auditor,
//! and every injection/recovery decision is counted:
//!
//! ```
//! use accelflow_core::faults::FaultConfig;
//! use accelflow_core::machine::{Machine, MachineConfig};
//! use accelflow_core::policy::Policy;
//! use accelflow_core::request::{CallSpec, ServiceSpec, StageSpec};
//! use accelflow_sim::time::SimDuration;
//! use accelflow_trace::templates::TemplateId;
//!
//! let mut cfg = MachineConfig::new(Policy::AccelFlow);
//! cfg.warmup = SimDuration::from_millis(1);
//! cfg.audit = true;
//! cfg.faults = FaultConfig::uniform(20.0); // ~20 faults/ms per class
//! let svc = ServiceSpec::new(
//!     "Ping",
//!     vec![StageSpec::Call(CallSpec::new(TemplateId::T1))],
//! );
//! let report =
//!     Machine::run_workload(&cfg, &[svc], 2_000.0, SimDuration::from_millis(4), 7);
//! assert!(report.audit.is_clean(), "no request lost or double-completed");
//! assert!(report.faults.injected() > 0);
//! ```

use accelflow_arch::availability::AvailabilitySet;
use accelflow_sim::rng::SimRng;
use accelflow_sim::time::SimDuration;

/// Salt folded into the machine seed for the injector's private RNG
/// stream, so fault draws never perturb the workload streams.
const FAULT_STREAM_SALT: u64 = 0xFA01_75EE_D000_0001;

/// Ceiling on a drawn inter-fault gap (one simulated hour): keeps the
/// picosecond conversion of an extreme exponential tail from
/// overflowing while staying far past any realistic run length.
const MAX_GAP_PS: f64 = 3.6e15;

/// Ceiling on an exponential-backoff delay, so a deep retry chain
/// cannot push a re-dispatch past the drain window.
const MAX_BACKOFF: SimDuration = SimDuration::from_millis(1);

/// One of the injectable fault classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A whole accelerator station's PEs go dark for a drawn duration
    /// (microcode assist, thermal trip, transient hang); jobs running
    /// there fail and recover.
    AccelStall,
    /// The next A-DMA transfer delivers a corrupt payload, which is
    /// discarded at the destination.
    DmaError,
    /// A TLB shootdown storm: every accelerator TLB is invalidated at
    /// once; subsequent translations pay the IOMMU walk again.
    TlbShootdown,
    /// One occupied SRAM input-queue entry is lost (bit flip, dropped
    /// credit) before it ever reaches a PE.
    QueueDrop,
    /// The next synchronous ATM read misses its cached trace and
    /// refetches from memory, paying [`FaultConfig::atm_miss_penalty`].
    AtmMiss,
}

impl FaultClass {
    /// Every class, in injection-scheduling order.
    pub const ALL: [FaultClass; 5] = [
        FaultClass::AccelStall,
        FaultClass::DmaError,
        FaultClass::TlbShootdown,
        FaultClass::QueueDrop,
        FaultClass::AtmMiss,
    ];

    /// Short stable identifier (telemetry, tables).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::AccelStall => "accel_stall",
            FaultClass::DmaError => "dma_error",
            FaultClass::TlbShootdown => "tlb_shootdown",
            FaultClass::QueueDrop => "queue_drop",
            FaultClass::AtmMiss => "atm_miss",
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Fault-injection knobs, part of
/// [`MachineConfig`](crate::machine::MachineConfig). The default is
/// fully disabled (all rates zero): the machine then creates no
/// injector state, draws nothing, and schedules nothing.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Mean [`AccelStall`](FaultClass::AccelStall) injections per
    /// simulated millisecond (Poisson).
    pub stall_rate_per_ms: f64,
    /// Mean [`DmaError`](FaultClass::DmaError) injections per ms.
    pub dma_error_rate_per_ms: f64,
    /// Mean [`TlbShootdown`](FaultClass::TlbShootdown) injections per ms.
    pub tlb_shootdown_rate_per_ms: f64,
    /// Mean [`QueueDrop`](FaultClass::QueueDrop) injections per ms.
    pub queue_drop_rate_per_ms: f64,
    /// Mean [`AtmMiss`](FaultClass::AtmMiss) injections per ms.
    pub atm_miss_rate_per_ms: f64,
    /// Mean dark duration of one accelerator stall (exponential draw).
    pub stall_duration: SimDuration,
    /// Extra latency of an ATM read whose cached trace was missed (the
    /// refetch from memory).
    pub atm_miss_penalty: SimDuration,
    /// Recovery retries per call position before degrading the rest of
    /// the segment to the CPU fallback.
    pub max_retries: u32,
    /// First retry backoff; doubles per attempt (exponential backoff,
    /// capped at 1 ms).
    pub backoff_base: SimDuration,
    /// Extra salt folded into the injector's RNG stream, for running
    /// distinct fault realizations against one workload seed.
    pub seed_salt: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            stall_rate_per_ms: 0.0,
            dma_error_rate_per_ms: 0.0,
            tlb_shootdown_rate_per_ms: 0.0,
            queue_drop_rate_per_ms: 0.0,
            atm_miss_rate_per_ms: 0.0,
            stall_duration: SimDuration::from_micros(50),
            atm_miss_penalty: SimDuration::from_nanos(500),
            max_retries: 3,
            backoff_base: SimDuration::from_micros(2),
            seed_salt: 0,
        }
    }
}

impl FaultConfig {
    /// All classes disabled (the default).
    pub fn disabled() -> Self {
        FaultConfig::default()
    }

    /// Every class at the same `rate_per_ms` (handy for sweeps; zero
    /// yields a disabled config).
    pub fn uniform(rate_per_ms: f64) -> Self {
        FaultConfig {
            stall_rate_per_ms: rate_per_ms,
            dma_error_rate_per_ms: rate_per_ms,
            tlb_shootdown_rate_per_ms: rate_per_ms,
            queue_drop_rate_per_ms: rate_per_ms,
            atm_miss_rate_per_ms: rate_per_ms,
            ..FaultConfig::default()
        }
    }

    /// Only `class` enabled, at `rate_per_ms` (per-class degradation
    /// curves).
    pub fn only(class: FaultClass, rate_per_ms: f64) -> Self {
        let mut cfg = FaultConfig::default();
        *cfg.rate_of_mut(class) = rate_per_ms;
        cfg
    }

    /// The configured rate of one class, in injections per ms.
    pub fn rate_of(&self, class: FaultClass) -> f64 {
        match class {
            FaultClass::AccelStall => self.stall_rate_per_ms,
            FaultClass::DmaError => self.dma_error_rate_per_ms,
            FaultClass::TlbShootdown => self.tlb_shootdown_rate_per_ms,
            FaultClass::QueueDrop => self.queue_drop_rate_per_ms,
            FaultClass::AtmMiss => self.atm_miss_rate_per_ms,
        }
    }

    fn rate_of_mut(&mut self, class: FaultClass) -> &mut f64 {
        match class {
            FaultClass::AccelStall => &mut self.stall_rate_per_ms,
            FaultClass::DmaError => &mut self.dma_error_rate_per_ms,
            FaultClass::TlbShootdown => &mut self.tlb_shootdown_rate_per_ms,
            FaultClass::QueueDrop => &mut self.queue_drop_rate_per_ms,
            FaultClass::AtmMiss => &mut self.atm_miss_rate_per_ms,
        }
    }

    /// Whether any class can fire. `false` means the machine builds no
    /// injector at all — the no-faults hot path is untouched.
    pub fn enabled(&self) -> bool {
        FaultClass::ALL.iter().any(|&c| self.rate_of(c) > 0.0)
    }

    /// Backoff before retry number `attempt + 1` (zero-based):
    /// `backoff_base << attempt`, capped at 1 ms.
    pub fn backoff_after(&self, attempt: u32) -> SimDuration {
        let shifted = self
            .backoff_base
            .as_picos()
            .saturating_mul(1u64 << attempt.min(20));
        SimDuration::from_picos(shifted).min(MAX_BACKOFF)
    }
}

/// Fault-injection and recovery counters, part of
/// [`RunReport`](crate::stats::RunReport). All zeros when injection was
/// disabled. `docs/METRICS.md` documents every field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Accelerator stalls injected.
    pub stalls: u64,
    /// Cumulative station dark time across all stalls (overlapping
    /// windows counted once).
    pub stall_dark_time: SimDuration,
    /// In-flight PE jobs failed by stalls (each routes to recovery).
    pub jobs_failed: u64,
    /// A-DMA transfer errors injected (armed; each fails the next
    /// transfer).
    pub dma_errors: u64,
    /// TLB shootdown storms injected.
    pub tlb_shootdowns: u64,
    /// TLB entries invalidated by shootdowns, summed over stations.
    pub tlb_entries_flushed: u64,
    /// SRAM queue entries dropped.
    pub queue_drops: u64,
    /// ATM fetch misses injected (armed; each slows the next
    /// synchronous read).
    pub atm_misses: u64,
    /// Armed ATM misses actually consumed by a read (the rest were
    /// still pending when the run drained).
    pub atm_refetches: u64,
    /// Recovery retries issued (bounded per call position by
    /// [`FaultConfig::max_retries`]).
    pub retries: u64,
    /// Total backoff delay inserted ahead of retries.
    pub backoff_time: SimDuration,
    /// Admissions routed to a sibling instance because the preferred
    /// station was dark.
    pub redispatches: u64,
    /// Calls degraded to the CPU fallback after exhausting retries.
    pub degraded: u64,
}

impl FaultStats {
    /// Total faults injected across every class.
    pub fn injected(&self) -> u64 {
        self.stalls + self.dma_errors + self.tlb_shootdowns + self.queue_drops + self.atm_misses
    }

    /// Total recovery decisions taken (retries plus degradations).
    pub fn recovery_actions(&self) -> u64 {
        self.retries + self.degraded
    }
}

/// Live injector state, boxed behind an `Option` in the machine so the
/// disabled hot path pays one `None` check.
#[derive(Debug)]
pub(crate) struct FaultState {
    pub(crate) cfg: FaultConfig,
    /// The injector's private stream; never shared with workload RNGs.
    pub(crate) rng: SimRng,
    /// Per-station dark windows (stall class).
    pub(crate) avail: AvailabilitySet,
    /// Flat `[station][pe]` poison flags: jobs running when a stall
    /// hit; their `PeDone` routes to recovery instead of `after_hop`.
    poisoned: Vec<bool>,
    pes_per_station: usize,
    /// Armed DMA errors, consumed by the next A-DMA transfer.
    pub(crate) pending_dma_errors: u32,
    /// Armed ATM misses, consumed by the next synchronous ATM read.
    pub(crate) pending_atm_misses: u32,
    /// Retry attempts per call-position tag ([`CallAddr::tag`]); pruned
    /// on degrade and at request termination. A flat `(tag, attempts)`
    /// list rather than a `HashMap`: pruning runs on *every* request
    /// termination, and the live set is bounded by in-flight faulted
    /// calls (typically zero to a handful), so a linear scan over a few
    /// contiguous pairs beats hashing — and costs nothing when empty.
    ///
    /// [`CallAddr::tag`]: crate::request::CallAddr
    pub(crate) retries: Vec<(u64, u32)>,
    pub(crate) stats: FaultStats,
}

impl FaultState {
    /// Builds injector state for `stations` stations of
    /// `pes_per_station` PEs each.
    pub(crate) fn new(
        cfg: FaultConfig,
        seed: u64,
        stations: usize,
        pes_per_station: usize,
    ) -> FaultState {
        let rng = SimRng::seed(seed ^ FAULT_STREAM_SALT ^ cfg.seed_salt);
        FaultState {
            cfg,
            rng,
            avail: AvailabilitySet::new(stations),
            poisoned: vec![false; stations * pes_per_station],
            pes_per_station,
            pending_dma_errors: 0,
            pending_atm_misses: 0,
            retries: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Draws the gap to the class's next injection; `None` when the
    /// class is disabled (and then nothing was drawn).
    pub(crate) fn draw_gap(&mut self, class: FaultClass) -> Option<SimDuration> {
        let rate = self.cfg.rate_of(class);
        if rate <= 0.0 {
            return None;
        }
        // rate is per millisecond; 1 ms = 1e9 ps.
        let gap_ps = self.rng.exponential(1e9 / rate).min(MAX_GAP_PS);
        Some(SimDuration::from_picos(gap_ps as u64).max(SimDuration::from_picos(1)))
    }

    /// Marks the job on `(station, pe)` as failed by a stall.
    pub(crate) fn poison(&mut self, station: usize, pe: usize) {
        self.poisoned[station * self.pes_per_station + pe] = true;
    }

    /// Clears and returns the poison flag for `(station, pe)`; called
    /// at every `PeDone` so flags never outlive their job.
    pub(crate) fn take_poisoned(&mut self, station: usize, pe: usize) -> bool {
        std::mem::take(&mut self.poisoned[station * self.pes_per_station + pe])
    }
}

// ----- checkpoint serialization (see docs/CHECKPOINT.md) -----

use accelflow_sim::impl_snapshot;
use accelflow_sim::snapshot::SnapshotError;

// Stable one-byte tags, independent of declaration order.
impl_snapshot! {
    enum FaultClass {
        0 => AccelStall,
        1 => DmaError,
        2 => TlbShootdown,
        3 => QueueDrop,
        4 => AtmMiss,
    }
}

impl_snapshot! {
    struct FaultConfig {
        stall_rate_per_ms, dma_error_rate_per_ms, tlb_shootdown_rate_per_ms,
        queue_drop_rate_per_ms, atm_miss_rate_per_ms, stall_duration, atm_miss_penalty,
        max_retries, backoff_base, seed_salt,
    }
}

impl_snapshot! {
    struct FaultStats {
        stalls, stall_dark_time, jobs_failed, dma_errors, tlb_shootdowns, tlb_entries_flushed,
        queue_drops, atm_misses, atm_refetches, retries, backoff_time, redispatches, degraded,
    }
}

// The injector round-trips whole — config, the private RNG stream
// position, dark windows, poison flags, armed errors, and retry
// bookkeeping — so a restored run replays the exact same fault
// realization the straight run would have produced.
impl_snapshot! {
    struct FaultState {
        cfg, rng, avail, poisoned, pes_per_station, pending_dma_errors, pending_atm_misses,
        retries, stats,
    } check FaultState::check_loaded
}

impl FaultState {
    /// Refuses a poison table that does not divide into stations.
    fn check_loaded(&self) -> Result<(), SnapshotError> {
        if self.pes_per_station == 0 || !self.poisoned.len().is_multiple_of(self.pes_per_station) {
            return Err(SnapshotError::Corrupt(format!(
                "poison table of {} flags not divisible into stations of {} PEs",
                self.poisoned.len(),
                self.pes_per_station
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_disabled() {
        let cfg = FaultConfig::default();
        assert!(!cfg.enabled());
        assert_eq!(cfg, FaultConfig::disabled());
        assert!(!FaultConfig::uniform(0.0).enabled());
        assert!(FaultConfig::uniform(0.1).enabled());
        for class in FaultClass::ALL {
            let only = FaultConfig::only(class, 2.0);
            assert!(only.enabled());
            assert_eq!(only.rate_of(class), 2.0);
            let others: f64 = FaultClass::ALL
                .iter()
                .filter(|&&c| c != class)
                .map(|&c| only.rate_of(c))
                .sum();
            assert_eq!(others, 0.0);
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = FaultConfig::default();
        assert_eq!(cfg.backoff_after(0), SimDuration::from_micros(2));
        assert_eq!(cfg.backoff_after(1), SimDuration::from_micros(4));
        assert_eq!(cfg.backoff_after(2), SimDuration::from_micros(8));
        assert_eq!(cfg.backoff_after(63), MAX_BACKOFF);
    }

    #[test]
    fn gap_draws_are_deterministic_and_rate_sensitive() {
        let mk = || FaultState::new(FaultConfig::uniform(5.0), 42, 9, 8);
        let (mut a, mut b) = (mk(), mk());
        for class in FaultClass::ALL {
            assert_eq!(a.draw_gap(class), b.draw_gap(class));
        }
        // A disabled class draws nothing at all: the stream position of
        // a subsequent enabled draw is unchanged.
        let mut only = FaultState::new(FaultConfig::only(FaultClass::DmaError, 5.0), 42, 9, 8);
        let mut full = FaultState::new(FaultConfig::uniform(5.0), 42, 9, 8);
        assert_eq!(only.draw_gap(FaultClass::AccelStall), None);
        assert_eq!(
            only.draw_gap(FaultClass::DmaError),
            full.draw_gap(FaultClass::AccelStall),
            "skipped classes must not consume RNG state"
        );
    }

    #[test]
    fn seed_salt_shifts_the_stream() {
        let mut base = FaultState::new(FaultConfig::uniform(5.0), 42, 9, 8);
        let mut salted = FaultState::new(
            FaultConfig {
                seed_salt: 1,
                ..FaultConfig::uniform(5.0)
            },
            42,
            9,
            8,
        );
        assert_ne!(
            base.draw_gap(FaultClass::AccelStall),
            salted.draw_gap(FaultClass::AccelStall)
        );
    }

    #[test]
    fn poison_flags_are_taken_once() {
        let mut f = FaultState::new(FaultConfig::uniform(1.0), 1, 3, 4);
        f.poison(2, 3);
        assert!(!f.take_poisoned(2, 2));
        assert!(f.take_poisoned(2, 3));
        assert!(!f.take_poisoned(2, 3), "flag cleared on take");
    }

    #[test]
    fn stats_roll_up() {
        let s = FaultStats {
            stalls: 1,
            dma_errors: 2,
            tlb_shootdowns: 3,
            queue_drops: 4,
            atm_misses: 5,
            retries: 6,
            degraded: 7,
            ..FaultStats::default()
        };
        assert_eq!(s.injected(), 15);
        assert_eq!(s.recovery_actions(), 13);
        assert_eq!(FaultStats::default().injected(), 0);
    }
}
