//! The accelerator station: input queue + PEs + TLB + statistics
//! (paper Fig 6/9, §IV-A, §IV-D).
//!
//! An accelerator admits queue entries (from cores via `Enqueue`, or
//! from other accelerators' output dispatchers via A-DMA), assigns them
//! to free PEs under a scheduling policy, and tracks tenant occupancy
//! of PEs so that the machine can charge the scratchpad wipe the
//! fine-grained virtualization of §IV-D requires between tenants. A PE
//! keeps the payload size of the entry it runs and hands it back at
//! completion, so the output dispatcher sizes the next hop from the
//! payload it holds.

use accelflow_arch::config::ArchConfig;
use accelflow_arch::tlb::Tlb;
use accelflow_arch::topology::UnitId;
use accelflow_sim::stats::BusyTracker;
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::kind::AccelKind;

use crate::dispatcher::QueuePolicy;
use crate::queue::{InputQueue, PushOutcome, QueueEntry, TenantId};

/// Outcome of offering work to the accelerator.
pub type AdmitOutcome = PushOutcome;

/// A job the input dispatcher just moved onto a PE.
#[derive(Clone, Debug)]
pub struct StartedJob {
    /// The queue entry now executing.
    pub entry: QueueEntry,
    /// Which PE runs it.
    pub pe: usize,
    /// Whether the PE's scratchpad must be wiped first (previous
    /// occupant belonged to a different tenant, §IV-D).
    pub tenant_wipe: bool,
    /// How long the entry waited in the input queue.
    pub queueing: SimDuration,
}

/// What a station keeps per PE.
#[derive(Clone, Copy, Debug, Default)]
struct PeSlot {
    /// The tenant whose state the scratchpad last held.
    last_tenant: Option<TenantId>,
    /// Payload size of the entry the PE runs (or last ran).
    data_bytes: u64,
}

/// One accelerator instance.
///
/// # Example
///
/// ```
/// use accelflow_accel::accelerator::Accelerator;
/// use accelflow_accel::dispatcher::QueuePolicy;
/// use accelflow_arch::config::ArchConfig;
/// use accelflow_arch::topology::UnitId;
/// use accelflow_trace::kind::AccelKind;
///
/// let cfg = ArchConfig::icelake();
/// let acc = Accelerator::new(AccelKind::Tcp, UnitId(0), &cfg, QueuePolicy::Fifo);
/// assert_eq!(acc.kind(), AccelKind::Tcp);
/// assert!(acc.has_free_pe());
/// ```
#[derive(Clone, Debug)]
pub struct Accelerator {
    kind: AccelKind,
    unit: UnitId,
    input: InputQueue,
    policy: QueuePolicy,
    /// PE occupancy in struct-of-arrays form: one busy bitmask plus a
    /// dense per-PE array, so the dispatch inner loop is bit math over a
    /// word and a linear probe of a small contiguous array.
    pe_busy: u64,
    pe_full: u64,
    pes: Vec<PeSlot>,
    tlb: Tlb,
    busy: BusyTracker,
    processed: u64,
    tenant_wipes: u64,
}

impl Accelerator {
    /// Creates an accelerator with the configured queue/PE geometry.
    pub fn new(kind: AccelKind, unit: UnitId, cfg: &ArchConfig, policy: QueuePolicy) -> Self {
        let n = cfg.pes_per_accelerator;
        assert!((1..=64).contains(&n), "pes_per_accelerator must be 1..=64");
        Accelerator {
            kind,
            unit,
            input: InputQueue::new(cfg.input_queue_entries, cfg.overflow_entries),
            policy,
            pe_busy: 0,
            pe_full: if n == 64 { !0 } else { (1u64 << n) - 1 },
            pes: vec![PeSlot::default(); n],
            tlb: Tlb::new(cfg),
            busy: BusyTracker::new(),
            processed: 0,
            tenant_wipes: 0,
        }
    }

    /// The accelerator's function.
    pub fn kind(&self) -> AccelKind {
        self.kind
    }

    /// The accelerator's placement unit.
    pub fn unit(&self) -> UnitId {
        self.unit
    }

    /// The scheduling policy in force.
    pub fn policy(&self) -> QueuePolicy {
        self.policy
    }

    /// Core-path admission (`Enqueue`): errors when the SRAM queue is
    /// full so the core can retry or fall back (§IV-A).
    pub fn admit_from_core(&mut self, entry: QueueEntry) -> Result<(), QueueEntry> {
        self.input.try_enqueue(entry)
    }

    /// Dispatcher-path admission: spills to the overflow area; rejects
    /// only when both queue and overflow are full (fall back to CPU).
    pub fn admit_from_dispatcher(&mut self, entry: QueueEntry) -> AdmitOutcome {
        self.input.push(entry)
    }

    /// Whether any PE is idle.
    pub fn has_free_pe(&self) -> bool {
        self.pe_busy != self.pe_full
    }

    /// Whether work is waiting.
    pub fn has_backlog(&self) -> bool {
        !self.input.is_empty()
    }

    /// Input-dispatcher step: if a PE is free and an entry is ready,
    /// move the policy's pick onto a PE, preferring a PE last used by
    /// the same tenant (avoids a scratchpad wipe).
    pub fn start_next(&mut self, now: SimTime) -> Option<StartedJob> {
        if self.pe_busy == self.pe_full || self.input.is_empty() {
            return None;
        }
        // FIFO takes the head without inspecting the queue; the other
        // policies scan the entries in place — no per-start allocation.
        let idx = match self.policy {
            QueuePolicy::Fifo => 0,
            _ => self.policy.select_from(self.input.iter(), now)?,
        };
        let entry = self.input.take(idx);

        // Prefer a free PE whose previous occupant shares the tenant.
        let free = !self.pe_busy & self.pe_full;
        let mut pe = None;
        let mut probe = free;
        while probe != 0 {
            let i = probe.trailing_zeros() as usize;
            if self.pes[i].last_tenant == Some(entry.tenant) {
                pe = Some(i);
                break;
            }
            probe &= probe - 1;
        }
        let pe = pe.unwrap_or_else(|| free.trailing_zeros() as usize);
        let tenant_wipe = match self.pes[pe].last_tenant {
            Some(t) => t != entry.tenant,
            None => false,
        };
        if tenant_wipe {
            self.tenant_wipes += 1;
        }
        self.pe_busy |= 1u64 << pe;
        self.pes[pe] = PeSlot {
            last_tenant: Some(entry.tenant),
            data_bytes: entry.data_bytes,
        };
        let queueing = now.saturating_since(entry.enqueued_at);
        Some(StartedJob {
            entry,
            pe,
            tenant_wipe,
            queueing,
        })
    }

    /// Marks a PE's job complete, accounting `busy_time` of PE
    /// occupancy, and returns the payload size of the entry it ran.
    ///
    /// # Panics
    ///
    /// Panics if the PE was not busy.
    pub fn complete(&mut self, pe: usize, busy_time: SimDuration) -> u64 {
        assert!(self.pe_busy & (1u64 << pe) != 0, "completing an idle PE");
        self.pe_busy &= !(1u64 << pe);
        self.busy.add_busy(busy_time);
        self.processed += 1;
        self.pes[pe].data_bytes
    }

    /// The payload size of the entry PE `pe` runs, or `None` when the
    /// PE is idle or does not exist.
    pub fn running_bytes(&self, pe: usize) -> Option<u64> {
        let busy = pe < self.pes.len() && self.pe_busy & (1u64 << pe) != 0;
        busy.then(|| self.pes[pe].data_bytes)
    }

    /// The accelerator's address-translation cache.
    pub fn tlb_mut(&mut self) -> &mut Tlb {
        &mut self.tlb
    }

    /// Shared view of the TLB (for stats).
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// The input queue (for stats).
    pub fn input(&self) -> &InputQueue {
        &self.input
    }

    /// Jobs completed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Scratchpad wipes forced by tenant changes.
    pub fn tenant_wipes(&self) -> u64 {
        self.tenant_wipes
    }

    /// PE utilization over `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let window = now.as_picos() as f64 * self.pes.len() as f64;
        if window == 0.0 {
            0.0
        } else {
            (self.busy.busy().as_picos() as f64 / window).min(1.0)
        }
    }

    /// Number of busy PEs right now.
    pub fn busy_pes(&self) -> usize {
        self.pe_busy.count_ones() as usize
    }

    /// Indices of the PEs currently running a job (for fault injection:
    /// a station-wide stall poisons the jobs in flight).
    pub fn busy_pe_indices(&self) -> impl Iterator<Item = usize> + '_ {
        let mask = self.pe_busy;
        (0..self.pes.len()).filter(move |i| mask & (1u64 << i) != 0)
    }

    /// Removes the SRAM queue entry at `index` without running it (fault
    /// injection: an SRAM bit flip or lost credit drops the entry). The
    /// freed slot is refilled from the overflow area exactly as a normal
    /// dispatch would.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn drop_entry(&mut self, index: usize) -> QueueEntry {
        self.input.take(index)
    }

    /// Number of processing elements.
    pub fn pe_count(&self) -> usize {
        self.pes.len()
    }

    /// Cumulative PE busy time (sum over PEs). Windowed utilization
    /// samplers difference this between sampling instants.
    pub fn busy_time(&self) -> SimDuration {
        self.busy.busy()
    }
}

accelflow_sim::impl_snapshot! { struct PeSlot { last_tenant, data_bytes } }

accelflow_sim::impl_snapshot! {
    struct Accelerator {
        kind, unit, input, policy, pe_busy, pe_full, pes, tlb, busy, processed,
        tenant_wipes,
    } check Accelerator::check_loaded
}

impl Accelerator {
    /// Refuses PE occupancy masks that disagree with the PE count.
    fn check_loaded(&self) -> Result<(), accelflow_sim::snapshot::SnapshotError> {
        let (n, full, busy) = (self.pes.len(), self.pe_full, self.pe_busy);
        if (1..=64).contains(&n) && full == u64::MAX >> (64 - n) && busy & !full == 0 {
            return Ok(());
        }
        Err(accelflow_sim::snapshot::SnapshotError::Corrupt(format!(
            "inconsistent PE occupancy: {n} PEs, full {full:#x}, busy {busy:#x}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelflow_sim::time::SimDuration;
    use accelflow_trace::cond::PayloadFlags;
    use accelflow_trace::ir::PositionMark;

    use crate::queue::RequestId;

    fn entry(req: u64, tenant: u16) -> QueueEntry {
        QueueEntry {
            request: RequestId(req),
            tenant: TenantId(tenant),
            pm: PositionMark(0),
            data_bytes: 1024,
            flags: PayloadFlags::default(),
            vaddr: req * 0x10000,
            deadline: None,
            priority: 0,
            enqueued_at: SimTime::ZERO,
            origin_core: 0,
            tag: 0,
        }
    }

    fn accel() -> Accelerator {
        Accelerator::new(
            AccelKind::Tcp,
            UnitId(0),
            &ArchConfig::icelake(),
            QueuePolicy::Fifo,
        )
    }

    #[test]
    fn jobs_flow_through_pes() {
        let mut a = accel();
        a.admit_from_core(entry(1, 0)).unwrap();
        a.admit_from_core(entry(2, 0)).unwrap();
        let j1 = a.start_next(SimTime::ZERO).unwrap();
        let j2 = a.start_next(SimTime::ZERO).unwrap();
        assert_ne!(j1.pe, j2.pe);
        assert!(a.start_next(SimTime::ZERO).is_none(), "queue drained");
        assert_eq!(a.busy_pes(), 2);
        assert_eq!(a.running_bytes(j1.pe), Some(1024));
        // Completion hands back the size of the payload the PE held.
        assert_eq!(a.complete(j1.pe, SimDuration::from_micros(3)), 1024);
        assert_eq!(a.running_bytes(j1.pe), None);
        assert_eq!(a.running_bytes(a.pe_count()), None);
        a.complete(j2.pe, SimDuration::from_micros(3));
        assert_eq!(a.busy_pes(), 0);
        assert_eq!(a.processed(), 2);
    }

    #[test]
    fn all_pes_busy_blocks_start() {
        let cfg = ArchConfig::icelake();
        let mut a = accel();
        for i in 0..cfg.pes_per_accelerator as u64 + 3 {
            a.admit_from_core(entry(i, 0)).unwrap();
        }
        let mut jobs = vec![];
        while let Some(j) = a.start_next(SimTime::ZERO) {
            jobs.push(j);
        }
        assert_eq!(jobs.len(), cfg.pes_per_accelerator);
        assert!(a.has_backlog());
        a.complete(jobs[0].pe, SimDuration::from_micros(1));
        assert!(a.start_next(SimTime::ZERO).is_some());
    }

    #[test]
    fn tenant_wipe_on_switch_and_affinity_avoids_it() {
        let mut a = accel();
        // Tenant 1 occupies a PE, finishes.
        a.admit_from_core(entry(1, 1)).unwrap();
        let j = a.start_next(SimTime::ZERO).unwrap();
        assert!(!j.tenant_wipe, "first use of a PE needs no wipe");
        let pe1 = j.pe;
        a.complete(pe1, SimDuration::from_micros(1));

        // Same tenant returns: the dispatcher prefers the same PE.
        a.admit_from_core(entry(2, 1)).unwrap();
        let j = a.start_next(SimTime::ZERO).unwrap();
        assert_eq!(j.pe, pe1);
        assert!(!j.tenant_wipe);
        a.complete(j.pe, SimDuration::from_micros(1));

        // Occupy every PE with tenant 1, then free exactly one; a
        // tenant-2 job must reuse it and pay the wipe.
        let cfg = ArchConfig::icelake();
        let mut jobs = vec![];
        for i in 0..cfg.pes_per_accelerator as u64 {
            a.admit_from_core(entry(100 + i, 1)).unwrap();
            jobs.push(a.start_next(SimTime::ZERO).unwrap());
        }
        let freed = jobs[3].pe;
        a.complete(freed, SimDuration::from_micros(1));
        a.admit_from_core(entry(200, 2)).unwrap();
        let j = a.start_next(SimTime::ZERO).unwrap();
        assert_eq!(j.pe, freed);
        assert!(j.tenant_wipe);
        assert_eq!(a.tenant_wipes(), 1);
    }

    #[test]
    fn queueing_time_is_reported() {
        let mut a = accel();
        let mut e = entry(1, 0);
        e.enqueued_at = SimTime::ZERO;
        a.admit_from_core(e).unwrap();
        let later = SimTime::ZERO + SimDuration::from_micros(7);
        let j = a.start_next(later).unwrap();
        assert_eq!(j.queueing, SimDuration::from_micros(7));
    }

    #[test]
    fn utilization_accumulates() {
        let mut a = accel();
        a.admit_from_core(entry(1, 0)).unwrap();
        let j = a.start_next(SimTime::ZERO).unwrap();
        a.complete(j.pe, SimDuration::from_micros(8));
        let now = SimTime::ZERO + SimDuration::from_micros(8);
        // 8 us busy on one of 8 PEs over an 8 us window = 1/8.
        assert!((a.utilization(now) - 0.125).abs() < 1e-9);
    }

    #[test]
    fn busy_pe_enumeration_and_entry_drop() {
        let mut a = accel();
        a.admit_from_core(entry(1, 0)).unwrap();
        a.admit_from_core(entry(2, 0)).unwrap();
        a.admit_from_core(entry(3, 0)).unwrap();
        let j = a.start_next(SimTime::ZERO).unwrap();
        assert_eq!(a.busy_pe_indices().collect::<Vec<_>>(), vec![j.pe]);
        // Drop the head of the two still queued; the other survives.
        assert_eq!(a.input().len(), 2);
        let dropped = a.drop_entry(0);
        assert_eq!(dropped.request, RequestId(2));
        assert_eq!(a.input().len(), 1);
        a.complete(j.pe, SimDuration::from_micros(1));
        assert_eq!(a.busy_pe_indices().count(), 0);
    }

    #[test]
    #[should_panic(expected = "idle PE")]
    fn completing_idle_pe_panics() {
        let mut a = accel();
        a.complete(0, SimDuration::ZERO);
    }

    #[test]
    fn snapshot_roundtrip_mid_flight() {
        use accelflow_sim::snapshot::{SnapReader, SnapWriter, Snapshot};
        let mut a = accel();
        for i in 0..5u64 {
            a.admit_from_core(entry(i, (i % 2) as u16)).unwrap();
        }
        let j = a.start_next(SimTime::ZERO).unwrap();
        a.complete(j.pe, SimDuration::from_micros(2));
        let _running = a.start_next(SimTime::ZERO).unwrap(); // left in flight
        let mut w = SnapWriter::new();
        a.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut b = Accelerator::load(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(b.kind(), a.kind());
        assert_eq!(b.busy_pes(), a.busy_pes());
        assert_eq!(b.processed(), a.processed());
        assert_eq!(b.input().len(), a.input().len());
        assert_eq!(b.busy_time(), a.busy_time());
        // Both copies dispatch the same next entry onto the same PE.
        let next_a = a.start_next(SimTime::ZERO).unwrap();
        let next_b = b.start_next(SimTime::ZERO).unwrap();
        assert_eq!(next_a.entry.request, next_b.entry.request);
        assert_eq!(next_a.pe, next_b.pe);
        assert_eq!(next_a.tenant_wipe, next_b.tenant_wipe);
    }

    #[test]
    fn corrupt_pe_mask_rejected() {
        use accelflow_sim::snapshot::{SnapReader, SnapWriter, Snapshot, SnapshotError};
        let a = accel();
        // Hand-encode a stream whose busy mask claims a PE outside the
        // station's geometry: load must reject it as corrupt.
        let mut v = SnapWriter::new();
        a.kind.save(&mut v);
        v.u8(a.unit.0);
        a.input.save(&mut v);
        a.policy.save(&mut v);
        v.u64(a.pe_full << 1); // busy bit outside pe_full
        v.u64(a.pe_full);
        a.pes.save(&mut v);
        a.tlb.save(&mut v);
        a.busy.save(&mut v);
        v.u64(0);
        v.u64(0);
        let bytes = v.into_bytes();
        assert!(matches!(
            Accelerator::load(&mut SnapReader::new(&bytes)),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}
