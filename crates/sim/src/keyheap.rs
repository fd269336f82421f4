//! A compact key heap: the engine's pending-event set.
//!
//! The simulator's pending population is small. Measured at every pop,
//! it averages 34 events on the Fig 11 workload, 27 on the four-node
//! diurnal cluster and 7 on the Fig 14 search, and more than 99% of
//! pops see fewer than 256. At that size the whole heap fits in a few
//! cache lines, and a binary heap beats bucketed structures (calendar
//! queues) on constant factor. So the queue is the plainest heap that
//! keeps its sifts cheap:
//!
//! - **Keys apart from payloads.** The heap orders 24-byte
//!   `(at, seq, slot)` keys. The payloads stay put in a slab whose
//!   vacant slots are reused LIFO, so a sift moves 24 bytes a level
//!   whatever the event type's size.
//! - **Bottom-up pop.** Pop walks the root's hole down to a leaf along
//!   the smaller children, then sifts the last key up from there
//!   (Floyd). The last key usually belongs near the bottom, so this
//!   costs about one compare a level instead of two. `(at, seq)`
//!   compares as one `u128`, so picking the smaller child is
//!   branch-free.
//! - **A parked front.** An event scheduled below everything queued
//!   waits outside the heap, and the next pop takes it without a sift.
//!   A model whose population hovers near one (a self-rescheduling
//!   timer, a machine draining its last request) then pays an `Option`
//!   write and a take per event instead of a push and a pop, and a
//!   short-delay follow-up in a busy queue skips both sifts too.
//!
//! Delivery is in `(at, seq)` order exactly, so the event stream is the
//! same as from any other correct priority queue.

use std::collections::VecDeque;

/// One pending event's heap key: absolute timestamp in picoseconds,
/// the insertion sequence that breaks timestamp ties FIFO, and the
/// payload's slab slot.
#[derive(Clone, Copy, Debug)]
struct Key {
    at: u64,
    seq: u64,
    slot: usize,
}

impl Key {
    /// `(at, seq)` as one integer, so an ordering test is one compare.
    #[inline]
    fn rank(self) -> u128 {
        (u128::from(self.at) << 64) | u128::from(self.seq)
    }
}

/// A min-heap delivering in `(at, seq)` order.
///
/// `seq` must be strictly increasing across [`KeyHeap::schedule`]
/// calls; the engine's `EventQueue` hands out one sequence number per
/// schedule.
#[derive(Debug)]
pub(crate) struct KeyHeap<E> {
    /// Binary min-heap on [`Key::rank`].
    keys: Vec<Key>,
    /// Payloads addressed by [`Key::slot`]; `None` while vacant.
    slots: Vec<Option<E>>,
    /// Vacant slots, reused LIFO (the most recently touched first).
    free: Vec<usize>,
    /// When `Some`, this event's `(at, seq)` is strictly below every
    /// key in the heap, so it is the next event out.
    front: Option<(u64, u64, E)>,
}

impl<E> KeyHeap<E> {
    /// An empty heap with room for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        KeyHeap {
            keys: Vec::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            front: None,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.front.is_some() as usize + self.keys.len()
    }

    /// Inserts an event at absolute time `at` with tie-break `seq`.
    #[inline]
    pub fn schedule(&mut self, at: u64, seq: u64, event: E) {
        // `seq` exceeds every queued seq, so the new event sorts below a
        // queued one exactly when its timestamp is earlier.
        match &self.front {
            None if self.keys.first().is_none_or(|k| at < k.at) => {
                self.front = Some((at, seq, event));
                return;
            }
            // A yet-earlier event takes the front over; the old front
            // still sits below everything in the heap, so it goes in
            // like any other key.
            Some((f_at, _, _)) if at < *f_at => {
                let (f_at, f_seq, f_event) = self
                    .front
                    .replace((at, seq, event))
                    .expect("front checked Some");
                self.push(f_at, f_seq, f_event);
                return;
            }
            _ => {}
        }
        self.push(at, seq, event);
    }

    fn push(&mut self, at: u64, seq: u64, event: E) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.slots[slot] = Some(event);
        let key = Key { at, seq, slot };
        self.keys.push(key);
        self.sift_up(self.keys.len() - 1, key);
    }

    /// Places `key` at or above position `i`, moving larger parents
    /// down into the hole.
    #[inline]
    fn sift_up(&mut self, mut i: usize, key: Key) {
        let rank = key.rank();
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.keys[parent].rank() <= rank {
                break;
            }
            self.keys[i] = self.keys[parent];
            i = parent;
        }
        self.keys[i] = key;
    }

    /// Removes the minimum key (bottom-up, see the module docs).
    #[inline]
    fn pop_key(&mut self) -> Option<Key> {
        let last = self.keys.pop()?;
        let len = self.keys.len();
        if len == 0 {
            return Some(last);
        }
        let top = self.keys[0];
        let mut hole = 0;
        let mut child = 1;
        while child + 1 < len {
            child += (self.keys[child + 1].rank() < self.keys[child].rank()) as usize;
            self.keys[hole] = self.keys[child];
            hole = child;
            child = 2 * hole + 1;
        }
        if child < len {
            self.keys[hole] = self.keys[child];
            hole = child;
        }
        self.sift_up(hole, last);
        Some(top)
    }

    /// Takes `key`'s payload out of the slab and frees its slot.
    #[inline]
    fn take(&mut self, key: Key) -> E {
        self.free.push(key.slot);
        self.slots[key.slot]
            .take()
            .expect("a queued key owns its slot")
    }

    /// Timestamp of the next event, if any.
    #[inline]
    pub fn peek_at(&self) -> Option<u64> {
        match &self.front {
            Some((at, _, _)) => Some(*at),
            None => self.keys.first().map(|k| k.at),
        }
    }

    /// Pops the minimum event and stages the *rest* of its
    /// same-timestamp run (if any) into `out` in delivery order, so the
    /// heap never holds an event at the instant just delivered. The
    /// common single-event case only peeks.
    #[inline]
    pub fn pop_batch(&mut self, out: &mut VecDeque<E>) -> Option<(u64, E)> {
        let (at, event) = match self.front.take() {
            Some((at, _, event)) => (at, event),
            None => {
                let key = self.pop_key()?;
                (key.at, self.take(key))
            }
        };
        while self.keys.first().is_some_and(|k| k.at == at) {
            let key = self.pop_key().expect("peeked nonempty");
            out.push_back(self.take(key));
        }
        Some((at, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops everything through `pop_batch` as `(at, payload)` in
    /// delivery order. The tests schedule each event's seq as its
    /// payload, so the log shows the `(at, seq)` order.
    fn drain(q: &mut KeyHeap<u64>) -> Vec<(u64, u64)> {
        let mut log = Vec::new();
        let mut batch = VecDeque::new();
        while let Some((at, seq)) = q.pop_batch(&mut batch) {
            log.push((at, seq));
            log.extend(batch.drain(..).map(|seq| (at, seq)));
        }
        log
    }

    #[test]
    fn delivers_in_time_then_seq_order() {
        let mut q = KeyHeap::with_capacity(0);
        for (seq, at) in [500, 100, 500, 100].into_iter().enumerate() {
            q.schedule(at, seq as u64, seq as u64);
        }
        assert_eq!(q.len(), 4);
        assert_eq!(drain(&mut q), [(100, 1), (100, 3), (500, 0), (500, 2)]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn far_future_events_keep_their_order() {
        let mut q = KeyHeap::with_capacity(64);
        let far = 1u64 << 40;
        for (seq, at) in [far, 10, far + 1].into_iter().enumerate() {
            q.schedule(at, seq as u64, seq as u64);
        }
        assert_eq!(q.peek_at(), Some(10));
        assert_eq!(drain(&mut q), [(10, 1), (far, 0), (far + 1, 2)]);
    }

    #[test]
    fn same_timestamp_runs_pop_in_one_batch() {
        let mut q = KeyHeap::with_capacity(0);
        for seq in 0..5 {
            q.schedule(777, seq, seq);
        }
        q.schedule(9999, 5, 99);
        let mut out = VecDeque::new();
        assert_eq!(q.pop_batch(&mut out), Some((777, 0)));
        assert_eq!(out, [1, 2, 3, 4]);
        assert_eq!(q.len(), 1);
        // A lone event stages nothing.
        out.clear();
        assert_eq!(q.pop_batch(&mut out), Some((9999, 99)));
        assert!(out.is_empty());
        assert_eq!(q.pop_batch(&mut out), None);
    }

    #[test]
    fn ties_behind_a_parked_front_drain_with_it() {
        let mut q = KeyHeap::with_capacity(0);
        q.schedule(70, 0, 0); // parks
        q.schedule(70, 1, 1); // heap
        q.schedule(70, 2, 2); // heap
        q.schedule(90, 3, 3); // heap
        q.schedule(30, 4, 4); // takes the front over; 70/0 goes to the heap
        let mut out = VecDeque::new();
        assert_eq!(q.pop_batch(&mut out), Some((30, 4)));
        assert!(out.is_empty());
        assert_eq!(q.pop_batch(&mut out), Some((70, 0)));
        assert_eq!(out, [1, 2]);
        assert_eq!(drain(&mut q), [(90, 3)]);
    }

    #[test]
    fn interleaved_schedule_pop_stays_sorted() {
        let mut q = KeyHeap::with_capacity(0);
        let mut seq = 0u64;
        let mut sched = |q: &mut KeyHeap<u64>, at: u64| {
            q.schedule(at, seq, seq);
            seq += 1;
        };
        sched(&mut q, 10);
        sched(&mut q, 20);
        let mut last = (0, 0);
        let mut batch = VecDeque::new();
        for round in 0..1000u64 {
            let (at, first) = q.pop_batch(&mut batch).expect("nonempty");
            for s in std::iter::once(first).chain(batch.drain(..)) {
                assert!((at, s) > last, "delivery order went backwards");
                last = (at, s);
            }
            sched(&mut q, at + 3 + (round % 11) * 97);
            if round % 3 == 0 {
                sched(&mut q, at + (round % 5) * 40);
            }
        }
    }

    #[test]
    fn slots_are_recycled() {
        let mut q = KeyHeap::with_capacity(0);
        for round in 0..100 {
            q.schedule(round * 10 + 5, 2 * round, 0);
            q.schedule(round * 10, 2 * round + 1, 0);
            assert_eq!(drain(&mut q).len(), 2);
        }
        assert_eq!(q.slots.len(), 1, "the slab grew past the population");
    }
}
