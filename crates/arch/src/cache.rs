//! Memory-system models: cache-hierarchy access latency and the shared
//! memory-bandwidth bus.
//!
//! The paper models LLC accesses, snoops, and DRAM contention
//! (DRAMSim2). At the operation granularity of this reproduction we
//! charge each payload access an expected hierarchy latency (LLC hit
//! ratio × LLC latency + miss ratio × memory latency) and serialize
//! memory-bound streaming on a shared bandwidth bus, so heavy load
//! produces genuine memory contention.

use accelflow_sim::time::{SimDuration, SimTime};

use crate::config::ArchConfig;

/// The shared memory bus: a bandwidth-limited resource all DRAM
/// streaming contends on.
///
/// # Example
///
/// ```
/// use accelflow_arch::cache::MemoryBus;
/// use accelflow_arch::config::ArchConfig;
/// use accelflow_sim::time::SimTime;
///
/// let cfg = ArchConfig::icelake();
/// let mut bus = MemoryBus::new(&cfg);
/// let t1 = bus.stream(SimTime::ZERO, 1 << 20);
/// let t2 = bus.stream(SimTime::ZERO, 1 << 20);
/// assert!(t2 > t1); // second stream queues behind the first
/// ```
#[derive(Clone, Debug)]
pub struct MemoryBus {
    bytes_per_sec: f64,
    next_free: SimTime,
    bytes: u64,
}

impl MemoryBus {
    /// Creates the bus with the configured aggregate bandwidth.
    pub fn new(cfg: &ArchConfig) -> Self {
        MemoryBus {
            bytes_per_sec: cfg.memory_bw,
            next_free: SimTime::ZERO,
            bytes: 0,
        }
    }

    /// Streams `bytes` through the bus starting no earlier than `now`;
    /// returns the completion instant.
    pub fn stream(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = self.next_free.max(now);
        let service = SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec);
        self.next_free = start + service;
        self.bytes += bytes;
        self.next_free
    }

    /// Total bytes streamed.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Bus utilization over `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let secs = now.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            (self.bytes as f64 / self.bytes_per_sec / secs).min(1.0)
        }
    }
}

/// Expected-latency model of the cache hierarchy, for payload reads and
/// writes by cores and accelerators.
#[derive(Clone, Copy, Debug)]
pub struct CacheHierarchy {
    llc_latency: SimDuration,
    memory_latency: SimDuration,
    llc_hit_ratio: f64,
    line_bytes: u64,
    memory_bw: f64,
}

impl CacheHierarchy {
    /// Builds the model from the architecture config.
    pub fn new(cfg: &ArchConfig) -> Self {
        CacheHierarchy {
            llc_latency: cfg.cycles(cfg.llc_latency_cycles),
            memory_latency: cfg.cycles(cfg.memory_latency_cycles),
            llc_hit_ratio: cfg.llc_hit_ratio,
            line_bytes: 64,
            memory_bw: cfg.memory_bw,
        }
    }

    /// Expected head latency for the first line of an access.
    pub fn head_latency(&self) -> SimDuration {
        let l = self.llc_hit_ratio * self.llc_latency.as_picos() as f64
            + (1.0 - self.llc_hit_ratio) * self.memory_latency.as_picos() as f64;
        SimDuration::from_picos(l.round() as u64)
    }

    /// Expected time to touch `bytes` sequentially: one head latency
    /// plus pipelined streaming of the remaining lines at memory
    /// bandwidth for the missing fraction.
    pub fn access(&self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let lines = bytes.div_ceil(self.line_bytes);
        let missed_bytes = (lines * self.line_bytes) as f64 * (1.0 - self.llc_hit_ratio);
        self.head_latency() + SimDuration::from_secs_f64(missed_bytes / self.memory_bw)
    }

    /// Bytes of this access that (in expectation) go to DRAM — the
    /// amount to book on the [`MemoryBus`].
    pub fn dram_bytes(&self, bytes: u64) -> u64 {
        ((bytes as f64) * (1.0 - self.llc_hit_ratio)).round() as u64
    }
}

accelflow_sim::impl_snapshot! { struct MemoryBus { bytes_per_sec, next_free, bytes } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_serializes_streams() {
        let cfg = ArchConfig::icelake();
        let mut bus = MemoryBus::new(&cfg);
        let mb = 1 << 20;
        let f1 = bus.stream(SimTime::ZERO, mb);
        let f2 = bus.stream(SimTime::ZERO, mb);
        assert_eq!(
            (f2 - SimTime::ZERO).as_picos(),
            2 * (f1 - SimTime::ZERO).as_picos()
        );
        assert_eq!(bus.bytes(), 2 * mb);
    }

    #[test]
    fn bus_idles_between_bursts() {
        let cfg = ArchConfig::icelake();
        let mut bus = MemoryBus::new(&cfg);
        bus.stream(SimTime::ZERO, 1024);
        let late = SimTime::ZERO + SimDuration::from_millis(1);
        let f = bus.stream(late, 1024);
        assert!(f > late);
        assert!(f - late < SimDuration::from_micros(1));
        assert!(bus.utilization(late) < 0.01);
    }

    #[test]
    fn hierarchy_latency_bounds() {
        let cfg = ArchConfig::icelake();
        let h = CacheHierarchy::new(&cfg);
        let head = h.head_latency();
        assert!(head >= cfg.cycles(cfg.llc_latency_cycles));
        assert!(head <= cfg.cycles(cfg.memory_latency_cycles));
        assert_eq!(h.access(0), SimDuration::ZERO);
        assert!(h.access(64 * 1024) > h.access(64));
    }

    #[test]
    fn dram_fraction_tracks_hit_ratio() {
        let mut cfg = ArchConfig::icelake();
        cfg.llc_hit_ratio = 0.75;
        let h = CacheHierarchy::new(&cfg);
        assert_eq!(h.dram_bytes(4096), 1024);
    }
}
