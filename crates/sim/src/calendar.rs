//! A calendar (bucket) queue: the engine's pending-event set.
//!
//! A classic binary heap pays `O(log n)` per operation with poor cache
//! behavior — every sift walks pointer-distant nodes, and the cost
//! grows with the pending-event population. A calendar queue exploits
//! what an event-driven simulator actually does: almost every event is
//! scheduled a short, bounded horizon ahead of the current time, and
//! time only moves forward. It hashes events by timestamp into a ring
//! of time-width buckets ("days" on a calendar) and pops by scanning
//! the ring from the current day, giving `O(1)` amortized schedule and
//! pop regardless of population (Brown, CACM 1988).
//!
//! This implementation keeps the engine's delivery contract exactly:
//! events are delivered in `(time, insertion sequence)` order, so runs
//! are bit-for-bit reproducible and the golden event-hash tests hold
//! across the heap → calendar swap.
//!
//! Layout:
//!
//! - **Bucket ring** — `2^k` buckets, each `2^shift` picoseconds wide.
//!   An event at time `t` has *virtual bucket* `vb = t >> shift` and
//!   lives in ring slot `vb & (2^k - 1)`, kept sorted ascending by
//!   `(time, seq)`. The ring covers the window `[cursor, cursor + 2^k)`
//!   of virtual buckets, where `cursor` is the virtual bucket of the
//!   last event popped. Because time never runs backwards and the
//!   window only slides forward, every stored event's virtual bucket
//!   lies inside the window — a nonempty slot holds events of exactly
//!   one virtual bucket, so the first nonempty slot in ring order from
//!   the cursor holds the global minimum.
//! - **Overflow level** — events beyond the window land in a min-heap
//!   keyed on `(time, seq)`. When the window slides over the heap
//!   minimum, in-window events migrate into the ring by popping the
//!   heap — `O(log overflow)` per migrated event and, crucially, *no
//!   scan of the rest*: a population whose horizon dwarfs the ring
//!   window (a saturated machine backlogging far-future completions)
//!   degrades to plain heap behavior instead of rescanning the spill
//!   on every window advance.
//! - **Occupancy bitset** — one bit per ring slot; the pop-side scan
//!   skips empty days a word (64 slots) at a time.
//! - **Adaptive rebuild** — when the population outgrows the ring, the
//!   queue re-derives `shift` from the observed spacing of pending
//!   events and re-hashes everything. The same machinery runs in
//!   reverse: when the population falls to a quarter of the ring size,
//!   a pop-side rebuild downsizes the ring and releases every slot's
//!   retained capacity, so a burst's high-water mark does not pin the
//!   queue's footprint for the rest of the run.

/// One pending event: absolute timestamp in picoseconds, the insertion
/// sequence number that breaks timestamp ties FIFO, and the payload.
#[derive(Debug)]
pub(crate) struct Entry<E> {
    pub at: u64,
    pub seq: u64,
    pub event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

/// Overflow-heap wrapper ordering [`Entry`]s as a *min*-heap on
/// `(at, seq)` (the payload never participates in ordering).
#[derive(Debug)]
struct Spill<E>(Entry<E>);

impl<E> PartialEq for Spill<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<E> Eq for Spill<E> {}
impl<E> PartialOrd for Spill<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Spill<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: `BinaryHeap` is a max-heap, so the peek is the min.
        other.0.key().cmp(&self.0.key())
    }
}

/// Initial bucket width of 2^16 ps ≈ 66 ns, a good fit for the
/// nanosecond-scale dispatch gaps the machine model produces; the first
/// rebuild re-derives it from the live event spacing anyway.
const INITIAL_SHIFT: u32 = 16;
/// Ring sizes stay in this range: small enough that the occupancy
/// bitset scan stays cheap, large enough to keep slot occupancy near
/// one event.
const MIN_BUCKETS: usize = 64;
const MAX_BUCKETS: usize = 1 << 14;

/// A monotonic-time calendar queue delivering in `(time, seq)` order.
///
/// The caller owns the clock: timestamps passed to
/// [`CalendarQueue::schedule`] must never be less than the timestamp of
/// the last popped event (the engine's `EventQueue` enforces this by
/// clamping past-time schedules to *now*), and `seq` must be strictly
/// increasing across calls.
#[derive(Debug)]
pub(crate) struct CalendarQueue<E> {
    /// Ring of days; each slot sorted ascending by `(at, seq)`.
    buckets: Vec<Vec<Entry<E>>>,
    /// `buckets.len() - 1`; the ring size is a power of two.
    mask: usize,
    /// log2 of the bucket width in picoseconds.
    shift: u32,
    /// One bit per ring slot: set while the slot is nonempty.
    occupied: Vec<u64>,
    /// Virtual bucket (`at >> shift`) of the last popped event.
    cursor: u64,
    /// Events currently stored in the ring.
    in_ring: usize,
    /// Events beyond the ring window: a min-heap on `(at, seq)`.
    overflow: std::collections::BinaryHeap<Spill<E>>,
    /// Timestamp of the last popped event (rebuild re-anchors on it).
    last_popped: u64,
    /// Population high-water mark that triggers a growth rebuild.
    rebuild_at: usize,
    /// Population low-water mark that triggers a shrink rebuild (0 when
    /// the ring is already at its minimum size). Without it the ring —
    /// and every slot `Vec`'s retained capacity — would only ever grow,
    /// so one population spike would pin the queue's footprint at its
    /// high-water mark for the rest of the run.
    shrink_at: usize,
    /// Cached pop candidate: ring slot of the current minimum, with its
    /// timestamp for cheap invalidation on schedule.
    candidate: Option<(u64, usize)>,
    /// Front cache: when `Some`, this entry's `(at, seq)` is strictly
    /// below every key in the ring and the overflow heap, so it is the
    /// next event out. An event scheduled into an otherwise-empty queue
    /// parks here and is popped straight back out without ever touching
    /// the ring — the schedule-then-pop churn pattern of a model whose
    /// pending population hovers near one (a self-rescheduling timer, a
    /// machine draining its last request) costs an `Option` write and a
    /// take instead of bucket hashing, occupancy bookkeeping, and the
    /// candidate scan.
    front: Option<Entry<E>>,
}

impl<E> CalendarQueue<E> {
    #[cfg(test)]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    pub fn with_capacity(capacity: usize) -> Self {
        let n = capacity.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        let mut q = CalendarQueue {
            buckets: Vec::new(),
            mask: 0,
            shift: INITIAL_SHIFT,
            occupied: Vec::new(),
            cursor: 0,
            in_ring: 0,
            overflow: std::collections::BinaryHeap::new(),
            last_popped: 0,
            rebuild_at: 0,
            shrink_at: 0,
            candidate: None,
            front: None,
        };
        q.init_ring(n, INITIAL_SHIFT, 0);
        q
    }

    fn init_ring(&mut self, n: usize, shift: u32, cursor: u64) {
        debug_assert!(n.is_power_of_two());
        self.buckets = (0..n).map(|_| Vec::new()).collect();
        self.mask = n - 1;
        self.shift = shift;
        self.occupied = vec![0u64; n.div_ceil(64)];
        self.cursor = cursor;
        self.in_ring = 0;
        self.rebuild_at = n * 4;
        // Shrink when the population falls to a quarter of the ring
        // size; with growth at 4× the ring size the two thresholds
        // leave a 16× hysteresis band, so a population oscillating
        // around either edge cannot thrash rebuilds.
        self.shrink_at = if n > MIN_BUCKETS { n / 4 } else { 0 };
        self.candidate = None;
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.front.is_some() as usize + self.in_ring + self.overflow.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring size in buckets (footprint diagnostics / shrink tests).
    #[cfg(test)]
    pub fn ring_size(&self) -> usize {
        self.buckets.len()
    }

    /// `(at, seq)` of the earliest overflow event, if any.
    #[inline]
    fn overflow_min(&self) -> Option<(u64, u64)> {
        self.overflow.peek().map(|s| s.0.key())
    }

    /// Inserts an event. `at` is absolute picoseconds (≥ the last
    /// popped timestamp); `seq` breaks ties FIFO and must be strictly
    /// increasing across calls.
    pub fn schedule(&mut self, at: u64, seq: u64, event: E) {
        debug_assert!(at >= self.last_popped, "scheduled before the last pop");
        match &self.front {
            // Empty queue: the sole event parks in the front cache.
            None if self.in_ring == 0 && self.overflow.is_empty() => {
                self.front = Some(Entry { at, seq, event });
                return;
            }
            // The front cache holds the strict minimum. A yet-smaller
            // event takes the cache over and the old front demotes to
            // the ring (its timestamp is still ≥ `last_popped`: the
            // front was the global minimum the whole time it was
            // cached, so no pop can have advanced the clock past it).
            Some(f) if (at, seq) < f.key() => {
                let prev = self
                    .front
                    .replace(Entry { at, seq, event })
                    .expect("front checked Some");
                self.schedule_inner(prev);
                return;
            }
            _ => {}
        }
        self.schedule_inner(Entry { at, seq, event });
    }

    /// [`CalendarQueue::schedule`]'s slow half: routes an entry into
    /// the ring or the overflow heap, maintaining the candidate cache.
    fn schedule_inner(&mut self, entry: Entry<E>) {
        let Entry { at, seq, event } = entry;
        if self.in_ring + self.overflow.len() + 1 > self.rebuild_at {
            self.rebuild(self.in_ring + self.overflow.len() + 1);
        }
        let vb = at >> self.shift;
        if vb < self.cursor + (self.mask as u64 + 1) {
            // In-window: keep the pop candidate warm. A valid candidate
            // is the global minimum (overflow events sit beyond the
            // window, strictly after every in-window timestamp), so a
            // smaller in-window timestamp *is* the new minimum and can
            // take the cache over directly instead of invalidating it;
            // and when the queue was empty the sole event is trivially
            // the minimum. Both cases save the pop-side bitset re-scan —
            // the dominant cost of the schedule-then-pop churn pattern
            // that keeps the population near one.
            let idx = (vb as usize) & self.mask;
            match self.candidate {
                // Equal timestamps lose on seq: the cache stays valid.
                Some((cand_at, _)) if at >= cand_at => {}
                Some(_) => self.candidate = Some((at, idx)),
                None if self.in_ring == 0 && self.overflow.is_empty() => {
                    self.candidate = Some((at, idx));
                }
                // Unknown minimum stays unknown; the next pop re-scans.
                None => {}
            }
            self.insert_ring(Entry { at, seq, event });
        } else {
            self.overflow.push(Spill(Entry { at, seq, event }));
        }
    }

    #[inline]
    fn insert_ring(&mut self, entry: Entry<E>) {
        let idx = ((entry.at >> self.shift) as usize) & self.mask;
        let slot = &mut self.buckets[idx];
        // Ascending `(at, seq)`; events usually arrive in roughly
        // increasing time order, so the common case is a plain append.
        if slot.last().is_none_or(|tail| tail.key() < entry.key()) {
            slot.push(entry);
        } else {
            let mut i = slot.len() - 1;
            while i > 0 && slot[i - 1].key() > entry.key() {
                i -= 1;
            }
            slot.insert(i, entry);
        }
        self.occupied[idx / 64] |= 1u64 << (idx % 64);
        self.in_ring += 1;
    }

    /// Timestamp of the next event, if any.
    ///
    /// Unlike the pop path this never moves the cursor: the caller may
    /// schedule new (earlier, but still ≥ *now*) events between a peek
    /// and the next pop, and a peek-time window jump would strand those
    /// behind the cursor.
    #[inline]
    pub fn peek_at(&mut self) -> Option<u64> {
        if let Some(f) = &self.front {
            return Some(f.at);
        }
        loop {
            if let Some((at, _)) = self.candidate {
                return Some(at);
            }
            if self.in_ring == 0 {
                let (min_at, _) = self.overflow_min()?;
                if min_at >> self.shift < self.cursor + (self.mask as u64 + 1) {
                    self.migrate();
                    continue;
                }
                // Beyond the window: report it without jumping.
                return Some(min_at);
            }
            return self.refresh_in_ring().map(|(at, _)| at);
        }
    }

    /// Pops the minimum event.
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<(u64, u64, E)> {
        if let Some(f) = self.take_cached_front() {
            return Some((f.at, f.seq, f.event));
        }
        let (_, idx) = self.refresh()?;
        let entry = self.take_front(idx);
        Some((entry.at, entry.seq, entry.event))
    }

    /// Takes the front cache, re-anchoring the clock on it. The cached
    /// entry is the strict global minimum, so popping it is legal from
    /// any state; the window only ever moves forward because the front
    /// was scheduled at or after the last popped instant (and its
    /// virtual bucket is ≤ every stored event's, so nothing is
    /// stranded behind the cursor).
    #[inline]
    fn take_cached_front(&mut self) -> Option<Entry<E>> {
        let f = self.front.take()?;
        self.cursor = f.at >> self.shift;
        self.last_popped = f.at;
        Some(f)
    }

    /// After a front-cache pop at `at`, drains every remaining event
    /// with the same timestamp into `out` in seq order. Ring ties are
    /// the sorted prefix of the cursor's slot; overflow ties exist when
    /// they were scheduled while the window sat further back than the
    /// front pop just slid it (the front pop migrates nothing), and
    /// their seqs interleave with the ring run, so a merged batch is
    /// re-sorted. Cold by construction: ties behind a cached front are
    /// rare, and the empty-queue churn path never gets here.
    fn stage_ties(&mut self, at: u64, out: &mut std::collections::VecDeque<(u64, E)>) {
        let start = out.len();
        if self.in_ring != 0 {
            let idx = ((at >> self.shift) as usize) & self.mask;
            let slot = &mut self.buckets[idx];
            if slot.first().is_some_and(|e| e.at == at) {
                let run = slot.iter().take_while(|e| e.at == at).count();
                out.extend(slot.drain(..run).map(|e| (e.seq, e.event)));
                self.in_ring -= run;
                if slot.is_empty() {
                    self.occupied[idx / 64] &= !(1u64 << (idx % 64));
                }
                // The drained run was the remaining minimum; whatever
                // follows needs a full refresh (stale in-window overflow
                // may undercut this slot's next entry).
                self.candidate = None;
            }
        }
        let ring_ties = out.len() > start;
        let mut merged = false;
        while self.overflow_min().is_some_and(|(m, _)| m == at) {
            let Spill(e) = self.overflow.pop().expect("peeked nonempty");
            out.push_back((e.seq, e.event));
            merged = ring_ties;
        }
        if merged {
            // Ring and overflow ties carry interleaved seqs.
            out.make_contiguous()[start..].sort_unstable_by_key(|&(seq, _)| seq);
        }
    }

    /// Pops the minimum event and stages the *rest* of its
    /// same-timestamp run (if any) into `out` as `(seq, event)` pairs in
    /// delivery order. Ties in time always hash to the same ring slot,
    /// so the run is one contiguous prefix of one slot and drains in a
    /// single pass; the common single-event case never touches `out`.
    pub fn pop_batch(
        &mut self,
        out: &mut std::collections::VecDeque<(u64, E)>,
    ) -> Option<(u64, E)> {
        // The front cache short-circuits the whole ring machinery. Any
        // ring or overflow events tying its timestamp (higher seq, or
        // they would be the front) must still come out as part of the
        // batch: the engine's same-instant fast lane relies on the
        // queue never holding an event at the delivered instant once a
        // batch is extracted. The empty-queue churn case skips all of
        // it.
        if let Some(f) = self.take_cached_front() {
            if self.in_ring != 0 || !self.overflow.is_empty() {
                self.stage_ties(f.at, out);
            }
            return Some((f.at, f.event));
        }
        let (at, idx) = self.refresh()?;
        let first = self.take_front(idx);
        debug_assert_eq!(first.at, at);
        if self.candidate == Some((at, idx)) {
            // The slot still leads with the same instant: drain the run.
            let slot = &mut self.buckets[idx];
            let run = slot.iter().take_while(|e| e.at == at).count();
            out.extend(slot.drain(..run).map(|e| (e.seq, e.event)));
            self.in_ring -= run;
            self.set_candidate_from_slot(idx);
        }
        Some((at, first.event))
    }

    /// Removes and returns the front (minimum) event of ring slot
    /// `idx`, maintaining the occupancy bit, cursor, and counters.
    #[inline]
    fn take_front(&mut self, idx: usize) -> Entry<E> {
        let entry = self.buckets[idx].remove(0);
        self.in_ring -= 1;
        self.cursor = entry.at >> self.shift;
        self.last_popped = entry.at;
        self.set_candidate_from_slot(idx);
        entry
    }

    /// Re-derives the cached candidate after slot `idx` lost its front,
    /// clearing the occupancy bit when the slot emptied.
    ///
    /// A nonempty slot's new front is the global ring minimum: the slot
    /// holds only the just-popped virtual bucket (anything a full window
    /// later could never have been inserted), every other slot's bucket
    /// is strictly later, and overflow events sit beyond the window —
    /// the cursor only advances through `refresh`, which migrates any
    /// overflow that slid into the window first.
    #[inline]
    fn set_candidate_from_slot(&mut self, idx: usize) {
        match self.buckets[idx].first() {
            Some(next) => {
                debug_assert!(self.overflow_min().is_none_or(|(m, _)| next.at <= m));
                self.candidate = Some((next.at, idx));
            }
            None => {
                self.occupied[idx / 64] &= !(1u64 << (idx % 64));
                self.candidate = None;
            }
        }
    }

    /// Ensures the cached candidate points at the global minimum,
    /// migrating overflow events that have entered the window and
    /// sliding the window over empty stretches.
    ///
    /// Pop-side only: the window jump it performs over an empty ring is
    /// legal only because the caller pops (and so re-anchors the cursor
    /// on the popped timestamp) before control returns to the model.
    fn refresh(&mut self) -> Option<(u64, usize)> {
        if let Some(c) = self.candidate {
            return Some(c);
        }
        // Already on the slow path (no cached candidate), so the
        // low-water check costs two compares; a shrink rebuild here
        // frees the over-sized ring and every slot's retained capacity.
        // Pop-side only: rebuild re-anchors the cursor, which the peek
        // path must never do.
        let pop = self.in_ring + self.overflow.len();
        if pop < self.shrink_at {
            self.rebuild(pop.max(1));
        }
        loop {
            if self.in_ring == 0 {
                let (min_at, _) = self.overflow_min()?;
                // Jump the window to the first overflow event, then
                // migrate everything that now fits.
                self.cursor = min_at >> self.shift;
                self.migrate();
                continue;
            }
            return self.refresh_in_ring();
        }
    }

    /// Candidate refresh when the ring is known nonempty: migrate any
    /// overflow events that slid into the window, then scan.
    fn refresh_in_ring(&mut self) -> Option<(u64, usize)> {
        if let Some((min_at, _)) = self.overflow_min() {
            if min_at >> self.shift < self.cursor + (self.mask as u64 + 1) {
                self.migrate();
            }
        }
        let idx = self.scan_from_cursor();
        let at = self.buckets[idx][0].at;
        self.candidate = Some((at, idx));
        Some((at, idx))
    }

    /// First nonempty ring slot in ring order from the cursor's slot.
    /// Ring order from the cursor is increasing virtual-bucket (and so
    /// increasing time) order, and every stored event's virtual bucket
    /// is inside the window, so this is the slot of the global minimum.
    /// Caller guarantees `in_ring > 0`.
    #[inline]
    fn scan_from_cursor(&self) -> usize {
        let start = (self.cursor as usize) & self.mask;
        let words = self.occupied.len();
        let mut word = start / 64;
        // Mask off slots before the cursor in its word.
        let mut bits = self.occupied[word] & !0u64 << (start % 64);
        for _ in 0..=words {
            if bits != 0 {
                let idx = word * 64 + bits.trailing_zeros() as usize;
                if idx <= self.mask {
                    return idx;
                }
            }
            word = (word + 1) % words;
            bits = self.occupied[word];
        }
        unreachable!("scan_from_cursor called on an empty ring");
    }

    /// Moves every overflow event whose virtual bucket fits the current
    /// window into the ring. The heap yields them in ascending `(at,
    /// seq)` order, so the first out-of-window peek ends the migration —
    /// cost is `O(log overflow)` per migrated event, independent of how
    /// many events remain spilled.
    fn migrate(&mut self) {
        let horizon = self.cursor + (self.mask as u64 + 1);
        while let Some(top) = self.overflow.peek() {
            if top.0.at >> self.shift >= horizon {
                break;
            }
            let Spill(entry) = self.overflow.pop().expect("peeked nonempty");
            self.insert_ring(entry);
        }
    }

    /// Re-anchors an **empty** queue's window and clock at `at`. A bulk
    /// drain (a snapshot save) pops events sitting arbitrarily far in
    /// the future, dragging `last_popped` and the cursor out to the
    /// drained horizon; once nothing is stored those anchors are
    /// meaningless, and leaving them there would reject — or worse,
    /// strand behind the window — the caller's next schedule at the
    /// *real* current time.
    pub(crate) fn reanchor(&mut self, at: u64) {
        debug_assert!(self.is_empty(), "reanchor requires an empty queue");
        self.cursor = at >> self.shift;
        self.last_popped = at;
        self.candidate = None;
    }

    /// Re-hashes every pending event into a ring resized for the
    /// population, with the bucket width re-derived from the observed
    /// event spacing.
    fn rebuild(&mut self, target_len: usize) {
        let mut all: Vec<Entry<E>> = Vec::with_capacity(self.len());
        for slot in &mut self.buckets {
            all.append(slot);
        }
        all.extend(std::mem::take(&mut self.overflow).into_iter().map(|s| s.0));

        let n = target_len
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let shift = if all.len() >= 2 {
            // Width ≈ spacing of the densest three quarters of pending
            // events, so one far-future outlier (e.g. a drain deadline)
            // cannot blow the bucket width up. Floor: the ring must
            // still span that dense range, or populations past the
            // maximum ring size would thrash straight back to overflow.
            let k = all.len() * 3 / 4;
            let k = k.clamp(1, all.len() - 1);
            let (lo, kth, _) = all.select_nth_unstable_by_key(k, |e| e.at);
            let min_at = lo.iter().map(|e| e.at).min().unwrap_or(kth.at).min(kth.at);
            let near_span = kth.at - min_at;
            let gap = (near_span / k as u64).max(1);
            let gap_shift = 63 - gap.leading_zeros();
            let cover_shift = 64 - (near_span.max(1) / n as u64).leading_zeros();
            gap_shift.max(cover_shift).min(46)
        } else {
            self.shift
        };
        // Anchor on the last popped instant — the one timestamp no
        // pending or future event may precede.
        let cursor = self.last_popped >> shift;
        self.init_ring(n, shift, cursor);
        // Above-window events fall back into overflow naturally.
        let horizon = self.cursor + (self.mask as u64 + 1);
        for entry in all {
            if entry.at >> shift < horizon {
                self.insert_ring(entry);
            } else {
                self.overflow.push(Spill(entry));
            }
        }
        self.rebuild_at = (self.len() * 2).max(n * 4);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        out
    }

    #[test]
    fn delivers_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.schedule(500, 0, 1);
        q.schedule(100, 1, 2);
        q.schedule(500, 2, 3);
        q.schedule(100, 3, 4);
        assert_eq!(q.len(), 4);
        assert_eq!(
            drain(&mut q),
            vec![(100, 1, 2), (100, 3, 4), (500, 0, 1), (500, 2, 3)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_route_through_overflow() {
        let mut q = CalendarQueue::with_capacity(64);
        // Far beyond the initial 64-bucket × 2^16 ps window.
        let far = 1u64 << 40;
        q.schedule(far, 0, 1);
        q.schedule(10, 1, 2);
        q.schedule(far + 1, 2, 3);
        assert_eq!(q.peek_at(), Some(10));
        assert_eq!(
            drain(&mut q),
            vec![(10, 1, 2), (far, 0, 1), (far + 1, 2, 3)]
        );
    }

    #[test]
    fn same_timestamp_runs_pop_in_one_batch() {
        let mut q = CalendarQueue::new();
        for seq in 0..5u64 {
            q.schedule(777, seq, seq as u32);
        }
        q.schedule(9999, 5, 99);
        let mut out = std::collections::VecDeque::new();
        assert_eq!(q.pop_batch(&mut out), Some((777, 0)));
        let staged: Vec<_> = out.iter().map(|&(s, e)| (s, e)).collect();
        assert_eq!(staged, vec![(1, 1), (2, 2), (3, 3), (4, 4)]);
        assert_eq!(q.len(), 1);
        // A lone event stages nothing.
        out.clear();
        assert_eq!(q.pop_batch(&mut out), Some((9999, 99)));
        assert!(out.is_empty());
    }

    #[test]
    fn rebuild_preserves_order_under_growth() {
        let mut q = CalendarQueue::with_capacity(64);
        // Enough events to force at least one growth rebuild.
        let mut expect: Vec<(u64, u64)> = Vec::new();
        for seq in 0..2000u64 {
            let at = (seq * 7919) % 100_000;
            q.schedule(at, seq, seq as u32);
            expect.push((at, seq));
        }
        expect.sort();
        let got: Vec<(u64, u64)> = drain(&mut q).into_iter().map(|(a, s, _)| (a, s)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn ring_shrinks_after_population_drains() {
        let mut q = CalendarQueue::with_capacity(64);
        // Grow the ring with a dense burst...
        for seq in 0..20_000u64 {
            q.schedule((seq * 131) % 2_000_000, seq, seq as u32);
        }
        let grown = q.ring_size();
        assert!(grown > 64, "burst should have grown the ring");
        // ...drain it down to a trickle, and keep popping: the
        // low-water rebuild must kick in and downsize the ring.
        let mut last = 0;
        for _ in 0..19_990 {
            let (at, _, _) = q.pop().expect("still populated");
            assert!(at >= last);
            last = at;
        }
        // Pops only shrink on the candidate-miss slow path; a few
        // schedule/pop rounds at the tail guarantee one.
        for seq in 20_000..20_020u64 {
            q.schedule(last + (seq - 20_000) * 3, seq, seq as u32);
            let (at, _, _) = q.pop().expect("nonempty");
            last = at;
        }
        assert!(
            q.ring_size() < grown,
            "ring stayed at {} buckets with ~10 events pending",
            q.ring_size()
        );
        // Order still holds through the shrink.
        let rest = drain(&mut q);
        assert!(rest.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    }

    #[test]
    fn idle_queue_reanchors_after_long_gap() {
        let mut q = CalendarQueue::new();
        q.schedule(50, 0, 1);
        assert_eq!(q.pop(), Some((50, 0, 1)));
        // Next event eons later: must not strand the window.
        let late = 1u64 << 50;
        q.schedule(late, 1, 2);
        assert_eq!(q.pop(), Some((late, 1, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_schedule_pop_stays_sorted() {
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut last = 0u64;
        let mut sched = |q: &mut CalendarQueue<u32>, at: u64| {
            let s = seq;
            seq += 1;
            q.schedule(at, s, s as u32);
        };
        sched(&mut q, 10);
        sched(&mut q, 20);
        for round in 0..1000u64 {
            let (at, _, _) = q.pop().expect("nonempty");
            assert!(at >= last, "time went backwards");
            last = at;
            sched(&mut q, at + 3 + (round % 11) * 97);
        }
    }
}
