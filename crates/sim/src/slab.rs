//! A free-list slab with generation-tagged handles.
//!
//! Simulation models park per-entity state (requests, calls, jobs) for
//! the entity's lifetime and address it from events. A `Vec<Option<T>>`
//! indexed by a global entity id works, but its footprint grows with
//! *every entity ever created* — a long run's table spans megabytes
//! while only a handful of entries are live, so every lookup is a
//! near-guaranteed cache miss. A slab recycles freed slots through a
//! free list: live entries cluster in the first few dozen slots,
//! keeping the whole working set a few cache lines wide regardless of
//! run length.
//!
//! Recycling makes stale handles a hazard: a dangling index would
//! silently read the slot's *next* occupant. Every slot therefore
//! carries a generation counter, bumped on each removal; a [`SlotId`]
//! captures the generation at insertion and is rejected (`None`) once
//! the slot moves on. Use-after-free reads become observable misses
//! instead of aliasing bugs.

/// Handle to one slab entry: slot index plus the generation observed at
/// insertion. Stale handles (outliving their entry) fail lookups
/// instead of aliasing the slot's next occupant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SlotId {
    index: u32,
    gen: u32,
}

impl SlotId {
    /// A handle no slab ever issues; lookups always miss. Useful as the
    /// initial value of dense id→slot maps.
    pub const INVALID: SlotId = SlotId {
        index: u32::MAX,
        gen: u32::MAX,
    };

    /// The raw slot index (diagnostics only — not a stable identifier,
    /// slots are recycled).
    pub fn index(self) -> u32 {
        self.index
    }
}

#[derive(Debug)]
struct Slot<T> {
    /// Bumped every time the slot's occupant is removed; odd/even says
    /// nothing — only equality with a handle's captured value matters.
    gen: u32,
    val: Option<T>,
}

/// A slab allocator over `T` with O(1) insert/remove and
/// generation-checked lookups. See the module docs for why.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// Indices of vacant slots, reused LIFO (the hottest line first).
    free: Vec<u32>,
    live: usize,
    /// Generation floor for slots created after a tail trim: every new
    /// slot starts here, strictly above any generation a retired slot
    /// ever issued, so handles into trimmed slots can never alias a
    /// later occupant of the same index.
    floor_gen: u32,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            floor_gen: 0,
        }
    }

    /// An empty slab with room for `capacity` entries before growing.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            live: 0,
            floor_gen: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots ever allocated (live + vacant) — the table's high-water
    /// mark, and so its resident footprint.
    pub fn capacity_used(&self) -> usize {
        self.slots.len()
    }

    /// Inserts `val`, reusing the most recently freed slot if any.
    pub fn insert(&mut self, val: T) -> SlotId {
        self.live += 1;
        match self.free.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                debug_assert!(slot.val.is_none(), "free list pointed at a live slot");
                slot.val = Some(val);
                SlotId {
                    index,
                    gen: slot.gen,
                }
            }
            None => {
                let index = self.slots.len() as u32;
                let gen = self.floor_gen;
                self.slots.push(Slot {
                    gen,
                    val: Some(val),
                });
                SlotId { index, gen }
            }
        }
    }

    /// Removes and returns the entry behind `id`, or `None` if the
    /// handle is stale or invalid. The slot's generation advances, so
    /// copies of `id` held elsewhere miss from now on.
    pub fn remove(&mut self, id: SlotId) -> Option<T> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        let val = slot.val.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(id.index);
        self.live -= 1;
        if self.slots.len() >= 64 && self.live * 4 < self.slots.len() {
            self.trim_tail();
        }
        Some(val)
    }

    /// Retires vacant slots off the tail once the live population has
    /// fallen to a quarter of the table's high-water mark, capping the
    /// footprint at roughly 2× the live set instead of letting one
    /// burst pin it forever. LIFO free-list reuse keeps live entries
    /// clustered at the low indices, so the tail is where vacancy
    /// accumulates. Every retired slot raises `floor_gen` past its
    /// last generation, keeping stale handles unambiguous if the table
    /// later re-grows over the same indices.
    fn trim_tail(&mut self) {
        let keep = (self.live * 2).max(32);
        let mut new_len = self.slots.len();
        while new_len > keep && self.slots[new_len - 1].val.is_none() {
            new_len -= 1;
        }
        if new_len == self.slots.len() {
            return;
        }
        for slot in &self.slots[new_len..] {
            self.floor_gen = self.floor_gen.max(slot.gen.wrapping_add(1));
        }
        self.slots.truncate(new_len);
        self.slots.shrink_to_fit();
        self.free.retain(|&i| (i as usize) < new_len);
        self.free.shrink_to_fit();
    }

    /// The entry behind `id`, or `None` for stale/invalid handles.
    #[inline]
    pub fn get(&self, id: SlotId) -> Option<&T> {
        match self.slots.get(id.index as usize) {
            Some(slot) if slot.gen == id.gen => slot.val.as_ref(),
            _ => None,
        }
    }

    /// Mutable access to the entry behind `id`, or `None` for
    /// stale/invalid handles.
    #[inline]
    pub fn get_mut(&mut self, id: SlotId) -> Option<&mut T> {
        match self.slots.get_mut(id.index as usize) {
            Some(slot) if slot.gen == id.gen => slot.val.as_mut(),
            _ => None,
        }
    }
}

crate::impl_snapshot! { struct SlotId { index, gen } }

impl<T: crate::snapshot::Snapshot> crate::snapshot::Snapshot for Slab<T> {
    /// The full table round-trips — slot generations, the free list,
    /// and the trim-floor included — so handles captured in the same
    /// snapshot keep resolving (or keep missing) exactly as before.
    fn save(&self, w: &mut crate::snapshot::SnapWriter) {
        w.usize(self.slots.len());
        for slot in &self.slots {
            w.u32(slot.gen);
            slot.val.save(w);
        }
        self.free.save(w);
        w.usize(self.live);
        w.u32(self.floor_gen);
    }
    fn load(
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        let n = r.seq_len()?;
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            let gen = r.u32()?;
            let val = Option::<T>::load(r)?;
            slots.push(Slot { gen, val });
        }
        let free = Vec::<u32>::load(r)?;
        let live = r.usize()?;
        let floor_gen = r.u32()?;
        if slots.iter().filter(|s| s.val.is_some()).count() != live {
            return Err(crate::snapshot::SnapshotError::Corrupt(
                "slab live count disagrees with occupied slots".into(),
            ));
        }
        // `insert` trusts the free list: an out-of-range index would
        // panic there, and a repeated or occupied one would overwrite a
        // live entry. Repeats are found 4,096 slots at a time with a
        // bitset on the stack, so a restore allocates nothing extra.
        let corrupt = |index: u32| {
            Err(crate::snapshot::SnapshotError::Corrupt(format!(
                "slab free list names slot {index}, which is out of range, occupied or listed twice"
            )))
        };
        let misplaced = |&&i: &&u32| slots.get(i as usize).is_none_or(|s| s.val.is_some());
        if let Some(&index) = free.iter().find(misplaced) {
            return corrupt(index);
        }
        for base in (0..slots.len()).step_by(4096) {
            let mut seen = [0u64; 64];
            for &index in &free {
                let Some(bit) = (index as usize).checked_sub(base).filter(|&b| b < 4096) else {
                    continue;
                };
                if seen[bit / 64] & 1 << (bit % 64) != 0 {
                    return corrupt(index);
                }
                seen[bit / 64] |= 1 << (bit % 64);
            }
        }
        Ok(Slab {
            slots,
            free,
            live,
            floor_gen,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.get(b), Some(&"b"));
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn slots_are_reused_lifo() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        let _b = slab.insert(2);
        slab.remove(a);
        let c = slab.insert(3);
        assert_eq!(c.index(), a.index(), "freed slot is recycled first");
        assert_eq!(slab.capacity_used(), 2, "no new slot allocated");
    }

    #[test]
    fn stale_handles_miss_after_reuse() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        slab.remove(a);
        let c = slab.insert(3);
        assert_eq!(c.index(), a.index());
        // The stale handle must not alias the new occupant.
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.get_mut(a), None);
        assert_eq!(slab.remove(a), None);
        assert_eq!(slab.get(c), Some(&3));
    }

    #[test]
    fn invalid_handle_always_misses() {
        let mut slab: Slab<u32> = Slab::new();
        assert_eq!(slab.get(SlotId::INVALID), None);
        slab.insert(7);
        assert_eq!(slab.get(SlotId::INVALID), None);
        assert_eq!(slab.remove(SlotId::INVALID), None);
    }

    #[test]
    fn double_remove_is_inert() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        assert_eq!(slab.remove(a), Some(1));
        assert_eq!(slab.remove(a), None, "second remove must not free again");
        assert_eq!(slab.len(), 0);
        // The free list holds the slot exactly once.
        let b = slab.insert(2);
        let c = slab.insert(3);
        assert_ne!(b.index(), c.index());
    }

    #[test]
    fn tail_trims_after_burst_drains() {
        let mut slab = Slab::new();
        let ids: Vec<_> = (0..1000).map(|i| slab.insert(i)).collect();
        assert_eq!(slab.capacity_used(), 1000);
        // Drain the burst newest-first so vacancy lands on the tail.
        for id in ids.iter().skip(8).rev() {
            slab.remove(*id);
        }
        assert!(
            slab.capacity_used() < 1000,
            "table stayed at {} slots with 8 live entries",
            slab.capacity_used()
        );
        // Survivors are untouched, and handles into the retired range
        // miss rather than alias anything newly grown.
        for (i, id) in ids.iter().enumerate().take(8) {
            assert_eq!(slab.get(*id), Some(&(i as i32)));
        }
        let regrown: Vec<_> = (0..1000).map(|i| slab.insert(i + 1000)).collect();
        for id in ids.iter().skip(8) {
            assert_eq!(slab.get(*id), None, "stale handle aliased after regrow");
        }
        for (i, id) in regrown.iter().enumerate() {
            assert_eq!(slab.get(*id), Some(&(i as i32 + 1000)));
        }
    }

    #[test]
    fn corrupt_free_list_is_rejected() {
        use crate::snapshot::{SnapReader, SnapWriter, Snapshot, SnapshotError};
        // Saves `slab`, overwrites the last free-list entry (just before
        // `live`, a u64, and `floor_gen`, a u32) and loads it back.
        fn load_patched(slab: &Slab<u32>, patch: u32) -> Result<Slab<u32>, SnapshotError> {
            let mut w = SnapWriter::new();
            slab.save(&mut w);
            let mut bytes = w.into_bytes();
            let last = bytes.len() - 12 - 4;
            bytes[last..last + 4].copy_from_slice(&patch.to_le_bytes());
            Slab::load(&mut SnapReader::new(&bytes))
        }
        let rejected = |slab: &Slab<u32>, patch: u32| match load_patched(slab, patch) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("free list"), "{msg}"),
            other => panic!("free-list entry {patch} loaded: {other:?}"),
        };
        // Three slots, the first two vacant: the free list is [1, 0].
        let mut slab = Slab::new();
        let a = slab.insert(10);
        let b = slab.insert(11);
        slab.insert(12);
        slab.remove(b);
        slab.remove(a);
        assert!(
            load_patched(&slab, 0).is_ok(),
            "the unpatched free list loads"
        );
        // Out of range (twice), occupied, and a repeat of slot 1.
        for patch in [3, u32::MAX, 2, 1] {
            rejected(&slab, patch);
        }
        // A repeat past the first 4,096 slots: the free list is
        // [4500, 4700].
        let mut big = Slab::new();
        let ids: Vec<_> = (0..5000).map(|i| big.insert(i)).collect();
        big.remove(ids[4500]);
        big.remove(ids[4700]);
        assert!(load_patched(&big, 4700).is_ok());
        rejected(&big, 4500);
    }

    #[test]
    fn generations_isolate_many_reuses() {
        let mut slab = Slab::new();
        let mut old = Vec::new();
        for i in 0..100 {
            let id = slab.insert(i);
            old.push(id);
            slab.remove(id);
        }
        assert_eq!(slab.capacity_used(), 1, "one slot serves all cycles");
        let live = slab.insert(999);
        for id in old {
            assert_eq!(slab.get(id), None);
        }
        assert_eq!(slab.get(live), Some(&999));
    }
}
