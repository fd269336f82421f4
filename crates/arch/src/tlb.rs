//! Address-translation caches for the accelerators (paper §IV-A/§V-3).
//!
//! Accelerators operate on virtual addresses (Intel SVM-style) and use
//! PCIe ATS: each accelerator has a TLB shared with its dispatchers; a
//! miss triggers an IOMMU radix page walk. This module implements a
//! set-associative, LRU TLB keyed by `(process, virtual page)`.

use accelflow_sim::time::SimDuration;

use crate::config::ArchConfig;

/// A process (address-space) identifier, as carried by ATS requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub u32);

/// Result of a TLB access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbAccess {
    /// Whether the translation was cached.
    pub hit: bool,
    /// Latency charged for this access (hit latency, or hit latency
    /// plus the IOMMU walk).
    pub latency: SimDuration,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TlbTag {
    pid: ProcessId,
    page: u64,
    /// LRU stamp: larger is more recent.
    stamp: u64,
}

/// A set-associative, LRU address-translation cache with an IOMMU
/// page-walk penalty on miss.
///
/// # Example
///
/// ```
/// use accelflow_arch::config::ArchConfig;
/// use accelflow_arch::tlb::{ProcessId, Tlb};
///
/// let cfg = ArchConfig::icelake();
/// let mut tlb = Tlb::new(&cfg);
/// let pid = ProcessId(1);
/// let miss = tlb.translate(pid, 0x7f00_0000_0000);
/// let hit = tlb.translate(pid, 0x7f00_0000_0000);
/// assert!(!miss.hit && hit.hit);
/// assert!(miss.latency > hit.latency);
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    /// All tags in one flat arena, `ways` slots per set: set `s`
    /// occupies `tags[s * ways .. s * ways + lens[s]]`. One contiguous
    /// allocation instead of a `Vec` per set keeps the per-translation
    /// probe a single indexed slice scan.
    tags: Vec<TlbTag>,
    /// Occupied slots per set.
    lens: Vec<u16>,
    n_sets: usize,
    /// `n_sets - 1` when the set count is a power of two (the common
    /// geometry): index extraction is then a mask instead of a divide.
    set_mask: Option<usize>,
    ways: usize,
    page_shift: u32,
    hit_latency: SimDuration,
    walk_latency: SimDuration,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a TLB with the configured geometry and latencies.
    /// Degenerate geometries (zero ways or fewer entries than ways)
    /// are clamped to a 1-way, 1-set cache rather than producing a
    /// structure whose eviction path would panic on an empty set.
    pub fn new(cfg: &ArchConfig) -> Self {
        let ways = cfg.accel_tlb_ways.max(1);
        let sets = (cfg.accel_tlb_entries / ways).max(1);
        let empty = TlbTag {
            pid: ProcessId(0),
            page: 0,
            stamp: 0,
        };
        Tlb {
            tags: vec![empty; sets * ways],
            lens: vec![0; sets],
            n_sets: sets,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            ways,
            page_shift: cfg.page_bytes.trailing_zeros(),
            hit_latency: cfg.cycles(cfg.tlb_hit_cycles),
            walk_latency: cfg.cycles(cfg.iommu_walk_cycles),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Set index for `(pid, page)`. Folds high page bits into the
    /// index: buffer arenas sit at large power-of-two strides, which a
    /// plain modulo would alias onto a single set.
    #[inline]
    fn set_index(&self, pid: ProcessId, page: u64) -> usize {
        let mixed = page ^ (page >> 8) ^ (page >> 16) ^ ((pid.0 as u64) << 4);
        match self.set_mask {
            Some(mask) => (mixed as usize) & mask,
            None => (mixed as usize) % self.n_sets,
        }
    }

    /// Translates the page containing `vaddr` for `pid`, updating LRU
    /// state and filling on miss.
    pub fn translate(&mut self, pid: ProcessId, vaddr: u64) -> TlbAccess {
        self.translate_page(pid, vaddr >> self.page_shift)
    }

    fn translate_page(&mut self, pid: ProcessId, page: u64) -> TlbAccess {
        let set_idx = self.set_index(pid, page);
        self.clock += 1;
        let stamp = self.clock;
        let base = set_idx * self.ways;
        let len = self.lens[set_idx] as usize;
        let set = &mut self.tags[base..base + len];
        if let Some(tag) = set.iter_mut().find(|t| t.pid == pid && t.page == page) {
            tag.stamp = stamp;
            self.hits += 1;
            return TlbAccess {
                hit: true,
                latency: self.hit_latency,
            };
        }
        self.misses += 1;
        if len >= self.ways {
            // Evict least recently used: the last slot fills the LRU
            // hole and the new tag takes the freed last slot.
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.stamp)
                .map(|(i, _)| i)
                .expect("set is non-empty");
            set[lru] = set[len - 1];
            set[len - 1] = TlbTag { pid, page, stamp };
        } else {
            self.tags[base + len] = TlbTag { pid, page, stamp };
            self.lens[set_idx] = (len + 1) as u16;
        }
        TlbAccess {
            hit: false,
            latency: self.hit_latency + self.walk_latency,
        }
    }

    /// Translates every page overlapped by `[vaddr, vaddr + bytes)`,
    /// returning the total latency and the number of misses.
    pub fn translate_range(
        &mut self,
        pid: ProcessId,
        vaddr: u64,
        bytes: u64,
    ) -> (SimDuration, u32) {
        let first = vaddr >> self.page_shift;
        let last = (vaddr + bytes.max(1) - 1) >> self.page_shift;
        let mut total = SimDuration::ZERO;
        let mut misses = 0;
        for page in first..=last {
            let a = self.translate_page(pid, page);
            total += a.latency;
            if !a.hit {
                misses += 1;
            }
        }
        (total, misses)
    }

    /// Invalidates all translations for `pid` (e.g. on context switch
    /// or tenant change).
    pub fn flush_process(&mut self, pid: ProcessId) {
        for s in 0..self.n_sets {
            let base = s * self.ways;
            let len = self.lens[s] as usize;
            let mut keep = 0;
            for i in 0..len {
                let t = self.tags[base + i];
                if t.pid != pid {
                    self.tags[base + keep] = t;
                    keep += 1;
                }
            }
            self.lens[s] = keep as u16;
        }
    }

    /// Invalidates every translation — a TLB shootdown: the OS
    /// broadcasts invalidation IPIs to all address spaces at once (page
    /// migration, memory reclaim). Returns the number of entries
    /// dropped; subsequent translations pay the IOMMU walk again. The
    /// lifetime hit/miss counters are unaffected.
    pub fn flush_all(&mut self) -> u64 {
        let mut dropped = 0;
        for len in &mut self.lens {
            dropped += u64::from(*len);
            *len = 0;
        }
        dropped
    }

    /// Lifetime hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime hit ratio (1.0 when never accessed).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl accelflow_sim::snapshot::Snapshot for Tlb {
    /// Canonical form: geometry + latencies + counters, then per set a
    /// `u16` occupancy and only the occupied tags. Unoccupied arena
    /// slots carry stale garbage that never affects behavior, so
    /// skipping them keeps the bytes canonical (identical state ⇒
    /// identical bytes). `set_mask` is derived from the set count and
    /// recomputed on load.
    fn save(&self, w: &mut accelflow_sim::snapshot::SnapWriter) {
        w.usize(self.n_sets);
        w.usize(self.ways);
        w.u32(self.page_shift);
        self.hit_latency.save(w);
        self.walk_latency.save(w);
        w.u64(self.clock);
        w.u64(self.hits);
        w.u64(self.misses);
        for s in 0..self.n_sets {
            let len = self.lens[s];
            w.u16(len);
            let base = s * self.ways;
            for tag in &self.tags[base..base + len as usize] {
                w.u32(tag.pid.0);
                w.u64(tag.page);
                w.u64(tag.stamp);
            }
        }
    }
    fn load(
        r: &mut accelflow_sim::snapshot::SnapReader<'_>,
    ) -> Result<Self, accelflow_sim::snapshot::SnapshotError> {
        use accelflow_sim::snapshot::SnapshotError;
        // Every set stores at least its `u16` occupancy, so `seq_len`
        // bounds the set count by the bytes left; occupancy is a `u16`,
        // which bounds the ways. Both checks run before allocating.
        let n_sets = r.seq_len()?;
        let ways = r.usize()?;
        let slots = n_sets
            .checked_mul(ways)
            .filter(|_| n_sets > 0 && (1..=u16::MAX as usize).contains(&ways));
        let Some(slots) = slots else {
            return Err(SnapshotError::Corrupt(format!(
                "bad TLB geometry: {n_sets} sets x {ways} ways"
            )));
        };
        let page_shift = r.u32()?;
        let hit_latency = SimDuration::load(r)?;
        let walk_latency = SimDuration::load(r)?;
        let clock = r.u64()?;
        let hits = r.u64()?;
        let misses = r.u64()?;
        let empty = TlbTag {
            pid: ProcessId(0),
            page: 0,
            stamp: 0,
        };
        let mut tags = vec![empty; slots];
        let mut lens = vec![0u16; n_sets];
        for (s, slot) in lens.iter_mut().enumerate() {
            let len = r.u16()?;
            if len as usize > ways {
                return Err(SnapshotError::Corrupt(format!(
                    "TLB set {s} occupancy {len} exceeds {ways} ways"
                )));
            }
            *slot = len;
            let base = s * ways;
            for i in 0..len as usize {
                tags[base + i] = TlbTag {
                    pid: ProcessId(r.u32()?),
                    page: r.u64()?,
                    stamp: r.u64()?,
                };
            }
        }
        Ok(Tlb {
            tags,
            lens,
            n_sets,
            set_mask: n_sets.is_power_of_two().then(|| n_sets - 1),
            ways,
            page_shift,
            hit_latency,
            walk_latency,
            clock,
            hits,
            misses,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> Tlb {
        Tlb::new(&ArchConfig::icelake())
    }

    #[test]
    fn miss_then_hit() {
        let mut t = tlb();
        let pid = ProcessId(7);
        assert!(!t.translate(pid, 0x1000).hit);
        assert!(t.translate(pid, 0x1000).hit);
        assert!(t.translate(pid, 0x1fff).hit); // same page
        assert!(!t.translate(pid, 0x2000).hit); // next page
        assert_eq!(t.hits(), 2);
        assert_eq!(t.misses(), 2);
        assert!((t.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn processes_are_isolated() {
        let mut t = tlb();
        t.translate(ProcessId(1), 0x5000);
        assert!(!t.translate(ProcessId(2), 0x5000).hit);
        assert!(t.translate(ProcessId(1), 0x5000).hit);
    }

    #[test]
    fn lru_eviction_within_set() {
        let cfg = ArchConfig::icelake();
        let mut t = Tlb::new(&cfg);
        let pid = ProcessId(1);
        let sets = cfg.accel_tlb_entries / cfg.accel_tlb_ways;
        // Collect ways+1 pages that collide onto one set under the
        // mixed index.
        let set_of = |page: u64| {
            let mixed = page ^ (page >> 8) ^ (page >> 16) ^ ((pid.0 as u64) << 4);
            (mixed as usize) % sets
        };
        let target = set_of(1);
        let colliding: Vec<u64> = (1u64..1_000_000)
            .filter(|&p| set_of(p) == target)
            .take(cfg.accel_tlb_ways + 1)
            .collect();
        assert_eq!(colliding.len(), cfg.accel_tlb_ways + 1);
        let vaddr = |i: usize| colliding[i] << 12;
        for i in 0..cfg.accel_tlb_ways {
            t.translate(pid, vaddr(i));
        }
        // Touch entry 0 so entry 1 becomes LRU, then insert a new page.
        assert!(t.translate(pid, vaddr(0)).hit);
        t.translate(pid, vaddr(cfg.accel_tlb_ways));
        assert!(t.translate(pid, vaddr(0)).hit, "recently used survived");
        assert!(!t.translate(pid, vaddr(1)).hit, "LRU page evicted");
    }

    #[test]
    fn range_translation_counts_pages() {
        let mut t = tlb();
        let pid = ProcessId(3);
        // 10 KB spanning pages 0..2 (3 pages) starting at page boundary.
        let (lat, misses) = t.translate_range(pid, 0, 10 * 1024);
        assert_eq!(misses, 3);
        assert!(lat > SimDuration::ZERO);
        let (_, misses2) = t.translate_range(pid, 0, 10 * 1024);
        assert_eq!(misses2, 0);
    }

    #[test]
    fn flush_clears_only_target_process() {
        let mut t = tlb();
        t.translate(ProcessId(1), 0x1000);
        t.translate(ProcessId(2), 0x1000);
        t.flush_process(ProcessId(1));
        assert!(!t.translate(ProcessId(1), 0x1000).hit);
        assert!(t.translate(ProcessId(2), 0x1000).hit);
    }

    #[test]
    fn degenerate_geometries_never_panic() {
        // Regression: ways == 0 used to divide by zero in `new`, and a
        // ways-0 TLB that survived construction hit the
        // `.expect("set is non-empty")` eviction on its first miss.
        for ways in 0..4usize {
            for entries in 0..8usize {
                let mut cfg = ArchConfig::icelake();
                cfg.accel_tlb_ways = ways;
                cfg.accel_tlb_entries = entries;
                let mut t = Tlb::new(&cfg);
                let pid = ProcessId(1);
                // Enough distinct pages to force evictions whatever the
                // clamped geometry came out as.
                for page in 0..32u64 {
                    let _ = t.translate(pid, page << 12);
                }
                assert_eq!(t.hits() + t.misses(), 32, "ways={ways} entries={entries}");
            }
        }
        // A 1-entry clamp still caches: re-touching the same page hits.
        let mut cfg = ArchConfig::icelake();
        cfg.accel_tlb_ways = 0;
        cfg.accel_tlb_entries = 0;
        let mut t = Tlb::new(&cfg);
        assert!(!t.translate(ProcessId(2), 0x1000).hit);
        assert!(t.translate(ProcessId(2), 0x1000).hit);
    }

    #[test]
    fn flush_all_drops_every_process_but_keeps_counters() {
        let mut t = tlb();
        t.translate(ProcessId(1), 0x1000);
        t.translate(ProcessId(2), 0x2000);
        t.translate(ProcessId(2), 0x2000); // one hit
        let (hits, misses) = (t.hits(), t.misses());
        assert_eq!(t.flush_all(), 2);
        assert_eq!((t.hits(), t.misses()), (hits, misses));
        assert!(!t.translate(ProcessId(1), 0x1000).hit);
        assert!(!t.translate(ProcessId(2), 0x2000).hit);
        assert_eq!(t.flush_all(), 2);
    }

    #[test]
    fn zero_byte_range_touches_one_page() {
        let mut t = tlb();
        let (_, misses) = t.translate_range(ProcessId(1), 0x123, 0);
        assert_eq!(misses, 1);
    }

    #[test]
    fn snapshot_roundtrip_preserves_residency_and_lru() {
        use accelflow_sim::snapshot::{SnapReader, SnapWriter, Snapshot};
        let mut t = tlb();
        for page in 0..40u64 {
            t.translate(ProcessId((page % 3) as u32), page << 12);
        }
        t.translate(ProcessId(0), 0); // a hit to split the counters
        let mut w = SnapWriter::new();
        t.save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Tlb::load(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!((restored.hits(), restored.misses()), (t.hits(), t.misses()));
        // Behavioral equivalence: the same probe sequence produces the
        // same hit/miss outcomes on both copies (LRU stamps included).
        for page in 0..60u64 {
            let a = t.translate(ProcessId(1), page << 12);
            let b = restored.translate(ProcessId(1), page << 12);
            assert_eq!(a, b, "page {page}");
        }
    }
}
