//! Accelerator queue entries and the bounded input queue with its
//! memory overflow area (paper §IV-A).
//!
//! A queue entry carries: the moving Position Mark into its trace (the
//! trace itself stays resident in the ATM, and the embedder's tag names
//! the request that walks it), the tenant ID (accelerators are shared
//! by tenants, §IV-D), the payload size — up to 2 KB inline plus a
//! Memory Pointer for larger payloads — and, when the system runs SLOs,
//! the request's soft deadline (§IV-C).
//!
//! Starvation/deadlock handling (§IV-A): a *core* that finds the queue
//! full gets an error and retries elsewhere; an *output dispatcher*
//! cannot retry, so it spills into the queue's overflow area in memory;
//! if even the overflow area is full, execution falls back to the CPU.

use std::collections::VecDeque;

use accelflow_sim::time::SimTime;
use accelflow_trace::cond::PayloadFlags;
use accelflow_trace::ir::PositionMark;

/// Identifies one request (one service invocation) end to end.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Identifies a tenant sharing the accelerator ensemble (§IV-D).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u16);

/// One entry of an accelerator input (or output) queue.
#[derive(Clone, Debug)]
pub struct QueueEntry {
    /// The request this work belongs to.
    pub request: RequestId,
    /// The owning tenant.
    pub tenant: TenantId,
    /// Position Mark: the `Accel` slot of the entry's trace it is
    /// queued for.
    pub pm: PositionMark,
    /// Current payload size in bytes (inline up to 2 KB; the rest via
    /// the Memory Pointer).
    pub data_bytes: u64,
    /// Payload facts branch conditions test.
    pub flags: PayloadFlags,
    /// Virtual address of the payload buffer (drives the TLB).
    pub vaddr: u64,
    /// Soft deadline for this acceleration step, if the system runs
    /// SLOs.
    pub deadline: Option<SimTime>,
    /// Priority tag (higher runs first under the priority policy).
    pub priority: u8,
    /// When the entry entered the input queue (for queueing stats).
    pub enqueued_at: SimTime,
    /// The core that initiated the trace (gets the final notification).
    pub origin_core: usize,
    /// Opaque embedder bookkeeping (the machine model packs its
    /// request/call/segment/hop addressing here).
    pub tag: u64,
}

impl QueueEntry {
    /// Bytes held inline in the SRAM entry (the rest goes through the
    /// Memory Pointer).
    pub fn inline_bytes(&self, entry_capacity: u64) -> u64 {
        self.data_bytes.min(entry_capacity)
    }

    /// Bytes reached through the Memory Pointer.
    pub fn spilled_bytes(&self, entry_capacity: u64) -> u64 {
        self.data_bytes.saturating_sub(entry_capacity)
    }

    /// Whether the payload exceeds the inline capacity.
    pub fn uses_memory_pointer(&self, entry_capacity: u64) -> bool {
        self.data_bytes > entry_capacity
    }
}

/// Outcome of offering an entry to an input queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// Stored in an SRAM queue entry.
    Accepted,
    /// SRAM queue full; stored in the memory overflow area (dispatcher
    /// path only).
    Overflowed,
    /// Queue and overflow both full (or core-path queue full): the
    /// caller must fall back.
    Rejected,
}

/// A bounded SRAM input queue with a memory overflow area.
///
/// # Example
///
/// ```
/// use accelflow_accel::queue::{InputQueue, PushOutcome};
///
/// let mut q = InputQueue::new(2, 2);
/// assert_eq!(q.len(), 0);
/// assert!(q.has_space());
/// ```
#[derive(Clone, Debug)]
pub struct InputQueue {
    entries: VecDeque<QueueEntry>,
    capacity: usize,
    overflow: VecDeque<QueueEntry>,
    overflow_capacity: usize,
    overflow_count: u64,
    rejected_count: u64,
    accepted_count: u64,
}

impl InputQueue {
    /// Creates a queue with `capacity` SRAM entries and
    /// `overflow_capacity` overflow slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, overflow_capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        InputQueue {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            overflow: VecDeque::new(),
            overflow_capacity,
            overflow_count: 0,
            rejected_count: 0,
            accepted_count: 0,
        }
    }

    /// Entries currently in the SRAM queue.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the SRAM queue is empty (overflow may still hold work).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.overflow.is_empty()
    }

    /// Entries waiting in the overflow area.
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Whether the SRAM queue has a free entry.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// SRAM entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Overflow-area capacity.
    pub fn overflow_capacity(&self) -> usize {
        self.overflow_capacity
    }

    /// Total entries waiting (SRAM + overflow).
    pub fn backlog(&self) -> usize {
        self.entries.len() + self.overflow.len()
    }

    /// Core-path enqueue (the `Enqueue` instruction): fails when the
    /// SRAM queue is full — the core retries on another instance or
    /// falls back.
    pub fn try_enqueue(&mut self, entry: QueueEntry) -> Result<(), QueueEntry> {
        if self.has_space() {
            self.entries.push_back(entry);
            self.accepted_count += 1;
            Ok(())
        } else {
            self.rejected_count += 1;
            Err(entry)
        }
    }

    /// Dispatcher-path push: spills to the overflow area when the SRAM
    /// queue is full; rejects only when both are full.
    pub fn push(&mut self, entry: QueueEntry) -> PushOutcome {
        if self.has_space() && self.overflow.is_empty() {
            self.entries.push_back(entry);
            self.accepted_count += 1;
            PushOutcome::Accepted
        } else if self.overflow.len() < self.overflow_capacity {
            // Keep FIFO order: once anything overflowed, later arrivals
            // must queue behind it.
            self.overflow.push_back(entry);
            self.overflow_count += 1;
            PushOutcome::Overflowed
        } else {
            self.rejected_count += 1;
            PushOutcome::Rejected
        }
    }

    /// Removes the entry at `index` in the SRAM queue (the input
    /// dispatcher's pick), refilling one slot from the overflow area
    /// (paper §V-1: "as soon as a queue entry is moved into a PE, the
    /// dispatcher follows the Overflow pointer and moves an entry from
    /// there into the input queue").
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn take(&mut self, index: usize) -> QueueEntry {
        let entry = self.entries.remove(index).expect("take index in range");
        if let Some(spilled) = self.overflow.pop_front() {
            self.entries.push_back(spilled);
        }
        entry
    }

    /// Iterates over the SRAM entries (for scheduling decisions).
    pub fn iter(&self) -> impl Iterator<Item = &QueueEntry> {
        self.entries.iter()
    }

    /// Iterates over every waiting entry: the SRAM queue, then the
    /// overflow area.
    pub fn waiting(&self) -> impl Iterator<Item = &QueueEntry> {
        self.entries.iter().chain(&self.overflow)
    }

    /// Lifetime count of entries that landed in the overflow area.
    pub fn overflow_count(&self) -> u64 {
        self.overflow_count
    }

    /// Lifetime count of rejected offers.
    pub fn rejected_count(&self) -> u64 {
        self.rejected_count
    }

    /// Lifetime count of accepted entries (SRAM path).
    pub fn accepted_count(&self) -> u64 {
        self.accepted_count
    }
}

accelflow_sim::impl_snapshot! { struct RequestId { 0 } }

accelflow_sim::impl_snapshot! { struct TenantId { 0 } }

accelflow_sim::impl_snapshot! {
    struct QueueEntry {
        request, tenant, pm, data_bytes, flags, vaddr, deadline, priority, enqueued_at,
        origin_core, tag,
    }
}

accelflow_sim::impl_snapshot! {
    struct InputQueue {
        capacity, overflow_capacity, entries, overflow, overflow_count, rejected_count,
        accepted_count,
    } check InputQueue::check_loaded
}

impl InputQueue {
    /// Refuses a zero capacity and occupancy beyond capacity.
    fn check_loaded(&self) -> Result<(), accelflow_sim::snapshot::SnapshotError> {
        use accelflow_sim::snapshot::SnapshotError;
        if self.capacity == 0 {
            return Err(SnapshotError::Corrupt(
                "zero-capacity input queue".to_string(),
            ));
        }
        if self.entries.len() > self.capacity || self.overflow.len() > self.overflow_capacity {
            return Err(SnapshotError::Corrupt(format!(
                "input queue occupancy {}/{} exceeds capacity {}/{}",
                self.entries.len(),
                self.overflow.len(),
                self.capacity,
                self.overflow_capacity
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(req: u64) -> QueueEntry {
        QueueEntry {
            request: RequestId(req),
            tenant: TenantId(0),
            pm: PositionMark(0),
            data_bytes: 1024,
            flags: PayloadFlags::default(),
            vaddr: 0x1000 * req,
            deadline: None,
            priority: 0,
            enqueued_at: SimTime::ZERO,
            origin_core: 0,
            tag: 0,
        }
    }

    #[test]
    fn core_enqueue_fails_when_full() {
        let mut q = InputQueue::new(2, 4);
        assert!(q.try_enqueue(entry(1)).is_ok());
        assert!(q.try_enqueue(entry(2)).is_ok());
        let back = q.try_enqueue(entry(3)).unwrap_err();
        assert_eq!(back.request, RequestId(3));
        assert_eq!(q.rejected_count(), 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn dispatcher_push_overflows_then_rejects() {
        let mut q = InputQueue::new(1, 2);
        assert_eq!(q.push(entry(1)), PushOutcome::Accepted);
        assert_eq!(q.push(entry(2)), PushOutcome::Overflowed);
        assert_eq!(q.push(entry(3)), PushOutcome::Overflowed);
        assert_eq!(q.push(entry(4)), PushOutcome::Rejected);
        assert_eq!(q.overflow_count(), 2);
        assert_eq!(q.backlog(), 3);
        let waiting: Vec<u64> = q.waiting().map(|e| e.request.0).collect();
        assert_eq!(waiting, vec![1, 2, 3]);
    }

    #[test]
    fn take_refills_from_overflow_in_fifo_order() {
        let mut q = InputQueue::new(1, 2);
        q.push(entry(1));
        q.push(entry(2));
        q.push(entry(3));
        let first = q.take(0);
        assert_eq!(first.request, RequestId(1));
        // Overflowed entry 2 moved into SRAM.
        assert_eq!(q.len(), 1);
        assert_eq!(q.overflow_len(), 1);
        assert_eq!(q.take(0).request, RequestId(2));
        assert_eq!(q.take(0).request, RequestId(3));
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_preserved_across_overflow() {
        // Once something overflowed, a later push must not jump the line
        // even if an SRAM slot happens to be free.
        let mut q = InputQueue::new(2, 4);
        q.push(entry(1));
        q.push(entry(2));
        q.push(entry(3)); // overflow
        q.take(0); // frees an SRAM slot and pulls 3 in — queue full again
        assert_eq!(q.push(entry(4)), PushOutcome::Overflowed);
        let order: Vec<u64> = (0..3).map(|_| q.take(0).request.0).collect();
        assert_eq!(order, vec![2, 3, 4]);
    }

    #[test]
    fn memory_pointer_fields() {
        let mut e = entry(1);
        e.data_bytes = 5000;
        assert!(e.uses_memory_pointer(2048));
        assert_eq!(e.inline_bytes(2048), 2048);
        assert_eq!(e.spilled_bytes(2048), 2952);
        e.data_bytes = 100;
        assert!(!e.uses_memory_pointer(2048));
        assert_eq!(e.spilled_bytes(2048), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = InputQueue::new(0, 0);
    }
}
