//! The discrete-event loop.
//!
//! A simulation is the mutable state of the system under study plus
//! an [`EventQueue`] of timestamped events of its choosing.
//! [`EventQueue::run_until`] pops the earliest event and hands it to a
//! handler closure, which schedules follow-on events on the queue it
//! is passed. Events with equal timestamps are delivered in the order
//! they were scheduled, which makes every run bit-for-bit reproducible.
//!
//! A countdown that reschedules itself until it hits zero:
//!
//! ```
//! use accelflow_sim::engine::EventQueue;
//! use accelflow_sim::time::{SimDuration, SimTime};
//!
//! fn tick(remaining: &mut u32, queue: &mut EventQueue<()>) {
//!     *remaining -= 1;
//!     if *remaining > 0 {
//!         queue.schedule(SimDuration::from_micros(1), ());
//!     }
//! }
//!
//! let mut remaining = 3;
//! let mut queue = EventQueue::with_capacity(1);
//! queue.schedule(SimDuration::ZERO, ());
//! // The deadline is exclusive: only the event at t=0 is delivered,
//! // the one sitting exactly at t=1µs stays queued.
//! queue.run_until(SimTime::ZERO + SimDuration::from_micros(1), |_, (), q| {
//!     tick(&mut remaining, q)
//! });
//! assert_eq!(remaining, 2);
//! // Resume to completion; the last event lands at t=2µs.
//! queue.run_until(SimTime::ZERO + SimDuration::from_millis(1), |_, (), q| {
//!     tick(&mut remaining, q)
//! });
//! assert_eq!(remaining, 0);
//! assert_eq!(queue.now(), SimTime::ZERO + SimDuration::from_micros(2));
//! ```

use std::collections::VecDeque;

use crate::keyheap::KeyHeap;
use crate::time::{SimDuration, SimTime};

/// Where event handlers put follow-on events.
///
/// [`EventQueue`] is the usual implementation. A composition that
/// drives captive models from one shared queue (the cluster layer
/// tags each node's events with its node id) implements it with a thin
/// adapter that forwards into the shared queue, so handlers written
/// against `&mut impl Schedule<E>` run unchanged under either.
pub trait Schedule<E> {
    /// The current simulated time.
    fn now(&self) -> SimTime;

    /// Schedules `event` at the absolute instant `at`; an instant in the
    /// past is clamped to [`Schedule::now`].
    fn schedule_at(&mut self, at: SimTime, event: E);

    /// Schedules `event` to fire `delay` after the current time.
    #[inline]
    fn schedule(&mut self, delay: SimDuration, event: E) {
        let at = self.now() + delay;
        self.schedule_at(at, event);
    }
}

/// The pending-event set of a simulation.
///
/// Events are delivered in `(time, insertion order)` order. The queue
/// tracks the current simulated time; [`EventQueue::schedule`] is
/// relative to it.
///
/// Internally this is a binary min-heap of compact `(at, seq, slot)`
/// keys over a payload slab, sized for the small pending populations
/// the simulator actually has, plus a staging buffer that extracts the
/// entire run of events sharing the next timestamp at once. Events a
/// model schedules *at* the current instant (including clamped
/// past-time schedules) carry a higher insertion sequence than
/// everything already staged, so they go straight onto the staged
/// batch and correctly fire after it; delivery order is exactly
/// `(time, insertion order)`.
pub struct EventQueue<E> {
    heap: KeyHeap<E>,
    /// Events popped as one same-timestamp batch, awaiting delivery in
    /// insertion order.
    ready: VecDeque<E>,
    /// Shared timestamp of everything in `ready`.
    ready_at: SimTime,
    now: SimTime,
    seq: u64,
    delivered: u64,
    clamped: u64,
}

impl<E> EventQueue<E> {
    /// An empty queue with room for about `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: KeyHeap::with_capacity(capacity),
            ready: VecDeque::new(),
            ready_at: SimTime::ZERO,
            now: SimTime::ZERO,
            seq: 0,
            delivered: 0,
            clamped: 0,
        }
    }

    /// The current simulated time (the timestamp of the event being
    /// handled, or the last one handled).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.schedule_at(at, event);
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// Scheduling in the past is clamped to the current time (the event
    /// still fires, immediately after already-queued same-time events).
    /// Each clamp increments the [`EventQueue::clamped`] counter — a
    /// past-time schedule usually means a model computed a timestamp
    /// from stale state, so the count makes such time-travel bugs
    /// visible instead of silently rewriting them.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        if at < self.now {
            self.clamped += 1;
        }
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        if at == self.now {
            // Same-instant fast lane. Event-driven models schedule a
            // large share of their events at zero delay (cascade events
            // within one logical instant); those never need to touch
            // the heap at all. Appending to the staging buffer is
            // exactly delivery order: everything staged was scheduled
            // earlier (lower seq), the heap never holds an event at the
            // current instant once the batch for `now` has been
            // extracted (`pop_batch` drains every tie), and all other
            // pending events are strictly later.
            if self.ready.is_empty() {
                self.ready_at = at;
            }
            debug_assert_eq!(self.ready_at, at, "staged batch is not at now");
            self.ready.push_back(event);
        } else {
            self.heap.schedule(at.as_picos(), seq, event);
        }
    }

    /// Number of events not yet delivered.
    pub fn len(&self) -> usize {
        self.heap.len() + self.ready.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// How many [`EventQueue::schedule_at`] calls targeted an instant
    /// before the current time and were clamped forward. Zero in a
    /// healthy model; a growing count points at a component scheduling
    /// from stale timestamps.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Delivers every event before `deadline` to `handle`, in
    /// `(time, insertion order)` order, passing the event's instant and
    /// the queue for follow-ons. Stops when the queue is empty or the
    /// next event is at or after `deadline`: events exactly at
    /// `deadline` are *not* delivered, so consecutive calls partition
    /// time cleanly.
    pub fn run_until(&mut self, deadline: SimTime, mut handle: impl FnMut(SimTime, E, &mut Self)) {
        let Some(last) = deadline.as_picos().checked_sub(1) else {
            return;
        };
        while let Some((at, event)) = self.pop_through(last) {
            handle(at, event, self);
        }
    }

    /// Takes the next event, wherever it is due.
    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_through(u64::MAX)
    }

    /// Takes the next event if it is due at or before `last` (in
    /// picoseconds) and advances the clock to it. One step both checks
    /// the deadline and takes the event, so the delivery loop needs no
    /// separate peek.
    #[inline]
    fn pop_through(&mut self, last: u64) -> Option<(SimTime, E)> {
        let event = if self.ready.is_empty() {
            if self.heap.peek_at()? > last {
                return None;
            }
            // Batched delivery: the heap hands back the minimum event
            // and stages the rest of its same-timestamp run (the
            // single-event common case stages nothing).
            let (at, event) = self.heap.pop_batch(&mut self.ready)?;
            self.ready_at = SimTime::from_picos(at);
            event
        } else if self.ready_at.as_picos() <= last {
            self.ready.pop_front()?
        } else {
            return None;
        };
        let at = self.ready_at;
        debug_assert!(at >= self.now, "event queue went backwards in time");
        self.now = at;
        self.delivered += 1;
        Some((at, event))
    }
}

impl<E> Schedule<E> for EventQueue<E> {
    #[inline]
    fn now(&self) -> SimTime {
        self.now
    }

    #[inline]
    fn schedule_at(&mut self, at: SimTime, event: E) {
        EventQueue::schedule_at(self, at, event);
    }
}

impl<E: crate::snapshot::Snapshot> EventQueue<E> {
    /// Serializes the queue — clock, counters, and every pending event
    /// in delivery order — without disturbing it.
    ///
    /// Internally the pending set is drained through the delivery path
    /// (the only way to observe delivery order), the clock and the
    /// `delivered` counter are put back, and the events are re-scheduled
    /// in that same order; the re-scheduled events receive fresh
    /// insertion sequences, which preserves their relative order
    /// exactly, so a queue that has been saved delivers the same event
    /// stream as one that never was.
    pub fn save_snapshot(&mut self, w: &mut crate::snapshot::SnapWriter) {
        use crate::snapshot::Snapshot;
        let (now, delivered) = (self.now, self.delivered);
        now.save(w);
        w.u64(delivered);
        w.u64(self.clamped);
        let pending: Vec<_> = std::iter::from_fn(|| self.pop()).collect();
        self.now = now;
        self.delivered = delivered;
        w.usize(pending.len());
        for (at, ev) in &pending {
            at.save(w);
            ev.save(w);
        }
        for (at, ev) in pending {
            self.schedule_at(at, ev);
        }
    }

    /// Rebuilds a queue from [`EventQueue::save_snapshot`] bytes.
    ///
    /// The clock is set *before* any event is scheduled, so restored
    /// events at exactly the snapshot instant take the same-instant
    /// staging lane, as they would have in the saved queue.
    pub fn load_snapshot(
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        Self::load_snapshot_checked(r, |_| Ok(()))
    }

    /// [`EventQueue::load_snapshot`] that passes each decoded event to
    /// `check` before scheduling it, so the embedder can refuse events
    /// that disagree with the state it restored beside the queue.
    pub fn load_snapshot_checked(
        r: &mut crate::snapshot::SnapReader<'_>,
        mut check: impl FnMut(&E) -> Result<(), crate::snapshot::SnapshotError>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::Snapshot;
        let now = SimTime::load(r)?;
        let delivered = r.u64()?;
        let clamped = r.u64()?;
        let n = r.seq_len()?;
        let mut q = EventQueue::with_capacity(n);
        q.now = now;
        let mut prev = now;
        for _ in 0..n {
            let at = SimTime::load(r)?;
            if at < prev {
                return Err(crate::snapshot::SnapshotError::Corrupt(
                    "pending events out of delivery order".into(),
                ));
            }
            prev = at;
            let ev = E::load(r)?;
            check(&ev)?;
            q.schedule_at(at, ev);
        }
        q.delivered = delivered;
        q.clamped = clamped;
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deadline no event reaches: runs to it drain the queue.
    const FOREVER: SimTime = SimTime::from_picos(u64::MAX);

    /// Logs every delivery; event 1 chains two events at the same
    /// future instant, which must arrive in scheduling order.
    fn record(now: SimTime, ev: u32, queue: &mut EventQueue<u32>, log: &mut Vec<(u64, u32)>) {
        log.push((now.as_picos(), ev));
        if ev == 1 {
            queue.schedule(SimDuration::from_picos(10), 2);
            queue.schedule(SimDuration::from_picos(10), 3);
        }
    }

    #[test]
    fn events_fire_in_time_then_fifo_order() {
        let mut q = EventQueue::with_capacity(4);
        q.schedule(SimDuration::from_picos(5), 1);
        q.schedule(SimDuration::from_picos(1), 0);
        let mut log = vec![];
        q.run_until(FOREVER, |now, ev, q| record(now, ev, q, &mut log));
        assert_eq!(log, vec![(1, 0), (5, 1), (15, 2), (15, 3)]);
    }

    #[test]
    fn run_until_excludes_deadline() {
        let mut q = EventQueue::with_capacity(8);
        for i in 0..5 {
            q.schedule(SimDuration::from_picos(i * 10), 100 + i as u32);
        }
        let mut log = vec![];
        q.run_until(SimTime::from_picos(20), |now, ev, q| {
            record(now, ev, q, &mut log)
        });
        assert_eq!(log.len(), 2); // events at 0 and 10 only
        q.run_until(SimTime::from_picos(100), |now, ev, q| {
            record(now, ev, q, &mut log)
        });
        assert_eq!(log.len(), 5);
        assert_eq!(q.delivered(), 5);
    }

    #[test]
    fn scheduling_in_past_clamps_to_now() {
        let mut q = EventQueue::with_capacity(2);
        q.schedule(SimDuration::from_picos(50), true);
        let mut fired = vec![];
        q.run_until(FOREVER, |now, ev, q| {
            fired.push(now.as_picos());
            if ev {
                q.schedule_at(SimTime::from_picos(1), false); // in the past
            }
        });
        assert_eq!(fired, vec![50, 50]);
        // The clamp is counted, not silent.
        assert_eq!(q.clamped(), 1);
    }

    #[test]
    fn clamped_event_fires_after_queued_same_time_events() {
        // A past-time schedule is clamped to `now`, but it must not jump
        // ahead of events already queued for `now`: the FIFO tie-break
        // orders by scheduling sequence, and the clamped event was
        // scheduled last.
        let mut q = EventQueue::with_capacity(8);
        q.schedule(SimDuration::from_picos(50), 1);
        let mut log = vec![];
        q.run_until(FOREVER, |now, ev, q| {
            log.push((now.as_picos(), ev));
            if ev == 1 {
                q.schedule(SimDuration::ZERO, 2); // same instant
                q.schedule(SimDuration::ZERO, 3); // same instant
                q.schedule_at(SimTime::from_picos(1), 4); // past → clamped
                q.schedule_at(now, 5); // exactly now: legal, not a clamp
            }
        });
        assert_eq!(
            log,
            vec![(50, 1), (50, 2), (50, 3), (50, 4), (50, 5)],
            "clamped event must run after already-queued same-time events"
        );
        assert_eq!(q.clamped(), 1, "only the past-time schedule clamps");
    }

    #[test]
    fn at_now_schedule_mid_batch_fires_after_staged_events() {
        // Three events staged for t=50 drain as one batch. The first
        // handler schedules a fourth at exactly `now`: the same-instant
        // fast lane appends it to the staged batch, and it must fire
        // after the two events already staged (it has the higher seq),
        // never between or before them.
        let mut q = EventQueue::with_capacity(4);
        for ev in 1..=3 {
            q.schedule(SimDuration::from_picos(50), ev);
        }
        let mut log = vec![];
        q.run_until(FOREVER, |now, ev, q| {
            log.push(ev);
            if ev == 1 {
                q.schedule_at(now, 4);
            }
        });
        assert_eq!(log, vec![1, 2, 3, 4]);
        assert_eq!(q.clamped(), 0, "at-now is not a clamp");
    }

    #[test]
    fn clamp_counter_matches_observed_clamps() {
        // Every past-time schedule — and nothing else — bumps the
        // counter, so it equals the number of clamps the handler
        // actually performed.
        let mut q = EventQueue::with_capacity(16);
        for i in 0..3u64 {
            q.schedule(SimDuration::from_picos(10 + i * 10), i as u32);
        }
        let (mut past_schedules, mut delivered) = (0u64, 0u64);
        q.run_until(FOREVER, |now, ev, q| {
            delivered += 1;
            if ev < 3 {
                // One stale (past) schedule and one healthy one per
                // seed event.
                q.schedule_at(SimTime::from_picos(now.as_picos() / 2), 10 + ev);
                past_schedules += 1;
                q.schedule(SimDuration::from_picos(7), 20 + ev);
            }
        });
        assert_eq!(past_schedules, 3);
        assert_eq!(q.clamped(), past_schedules, "counter == observed clamps");
        assert_eq!(delivered, 9, "no clamped event was lost");
        assert_eq!(q.delivered(), 9);
    }

    #[test]
    fn clamp_counter_starts_at_zero_and_ignores_future() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(16);
        assert_eq!(q.clamped(), 0);
        q.schedule_at(SimTime::from_picos(10), 1);
        q.schedule(SimDuration::from_picos(5), 2);
        assert_eq!(q.clamped(), 0, "future events are not clamps");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn with_capacity_preallocates() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(1000);
        for i in 0..1000 {
            q.schedule(SimDuration::from_picos(i), i as u32);
        }
        assert_eq!(q.len(), 1000);
    }

    /// A queue whose clock sits at 100 ps with nothing pending.
    fn queue_at_100() -> EventQueue<u32> {
        let mut q = EventQueue::with_capacity(8);
        q.schedule_at(SimTime::from_picos(100), u32::MAX);
        q.pop().expect("the clock-advancing event");
        q
    }

    #[test]
    fn save_snapshot_keeps_the_clock_and_later_schedules_fire_in_order() {
        use crate::snapshot::SnapWriter;
        let mut q = queue_at_100();
        q.schedule(SimDuration::from_picos(50), 2);
        q.schedule(SimDuration::ZERO, 0); // at-now fast lane
        q.schedule(SimDuration::from_picos(50), 3); // tie with 2: FIFO
        q.schedule(SimDuration::from_picos(10), 9);
        q.save_snapshot(&mut SnapWriter::new());
        // Saving drains and re-schedules: bookkeeping, not delivery.
        assert_eq!(q.now(), SimTime::from_picos(100));
        assert_eq!(q.delivered(), 1);
        // The drain popped out to 150 ps; an event at 105 ps scheduled
        // after the save must still fire in order.
        q.schedule(SimDuration::from_picos(5), 5);
        q.schedule(SimDuration::ZERO, 1);
        let mut order = Vec::new();
        while let Some((at, ev)) = q.pop() {
            order.push((at.as_picos(), ev));
        }
        assert_eq!(
            order,
            vec![(100, 0), (100, 1), (105, 5), (110, 9), (150, 2), (150, 3)]
        );
        assert_eq!(q.clamped(), 0);
    }

    #[test]
    fn at_now_schedule_after_restore_joins_the_restored_batch() {
        use crate::snapshot::{SnapReader, SnapWriter};
        // Snapshot *mid-burst*: three events share an instant deep into
        // the run; the first has been delivered, two are still staged.
        let mut q: EventQueue<u32> = EventQueue::with_capacity(8);
        for ev in 1..=3 {
            q.schedule_at(SimTime::from_picos(1_000_000), ev);
        }
        q.schedule_at(SimTime::from_picos(2_000_000), 9);
        let (at, ev) = q.pop().unwrap();
        assert_eq!((at.as_picos(), ev), (1_000_000, 1));

        let mut w = SnapWriter::new();
        q.save_snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut restored = EventQueue::<u32>::load_snapshot(&mut r).unwrap();
        assert!(r.is_exhausted(), "queue snapshot left trailing bytes");
        assert_eq!(restored.now(), SimTime::from_picos(1_000_000));
        assert_eq!(restored.len(), 3);
        assert_eq!(restored.delivered(), 1);

        // An at-now schedule straight after restore must join the
        // staging lane *behind* the restored burst, which needs the
        // restored clock set before the burst was scheduled back.
        restored.schedule_at(restored.now(), 4);
        assert_eq!(restored.clamped(), 0, "at-now after restore is not a clamp");
        let mut order = Vec::new();
        while let Some((at, ev)) = restored.pop() {
            order.push((at.as_picos(), ev));
        }
        assert_eq!(
            order,
            vec![
                (1_000_000, 2),
                (1_000_000, 3),
                (1_000_000, 4),
                (2_000_000, 9)
            ],
            "restored burst must keep delivery order, at-now event last in batch"
        );
        assert_eq!(restored.delivered(), 5);
    }

    #[test]
    fn save_snapshot_does_not_disturb_the_queue() {
        use crate::snapshot::SnapWriter;
        // Identical queues; one is saved mid-run, one never is. Both
        // must deliver the same stream afterwards.
        let build = || {
            let mut q = queue_at_100();
            q.schedule(SimDuration::from_picos(50), 2);
            q.schedule(SimDuration::ZERO, 0); // at-now staging lane
            q.schedule(SimDuration::from_picos(50), 3); // tie with 2: FIFO
            q.schedule(SimDuration::ZERO, 1);
            q
        };
        let mut saved = build();
        let mut w = SnapWriter::new();
        saved.save_snapshot(&mut w);
        let mut untouched = build();
        let drain = |q: &mut EventQueue<u32>| {
            let mut out = Vec::new();
            while let Some((at, ev)) = q.pop() {
                out.push((at.as_picos(), ev));
            }
            out
        };
        assert_eq!(drain(&mut saved), drain(&mut untouched));
        assert_eq!(saved.delivered(), untouched.delivered());
    }

    #[test]
    fn empty_queue_reports() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(0);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        q.run_until(FOREVER, |_, _, _| {
            panic!("an empty queue delivered an event")
        });
        assert_eq!(q.delivered(), 0);
    }
}
