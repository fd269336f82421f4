//! The A-DMA engines (paper Fig 6/10, Table III).
//!
//! AccelFlow output dispatchers and cores move payloads with a pool of
//! ten shared on-chip DMA engines. An engine is busy for the duration of
//! its transfer, so engines are a contended resource under load; the
//! transfer itself pays the engine programming latency plus the network
//! time between source and destination.

use accelflow_sim::resource::{Booking, ServerPool};
use accelflow_sim::time::{SimDuration, SimTime};

use crate::config::ArchConfig;
use crate::interconnect::Interconnect;
use crate::topology::Endpoint;

/// The pool of shared A-DMA engines.
///
/// # Example
///
/// ```
/// use accelflow_arch::config::ArchConfig;
/// use accelflow_arch::dma::DmaPool;
/// use accelflow_arch::interconnect::Interconnect;
/// use accelflow_arch::topology::{ChipletLayout, Endpoint, UnitId};
/// use accelflow_sim::time::SimTime;
///
/// let cfg = ArchConfig::icelake();
/// let net = Interconnect::new(&cfg, ChipletLayout::new(vec![vec![8], (0..8).collect()], 9));
/// let mut dma = DmaPool::new(&cfg);
/// let b = dma.transfer(SimTime::ZERO, &net, Endpoint::Unit(UnitId(0)), Endpoint::Unit(UnitId(1)), 2048);
/// assert!(b.finish > SimTime::ZERO);
/// ```
#[derive(Clone, Debug)]
pub struct DmaPool {
    engines: ServerPool,
    program_latency: SimDuration,
    bytes_moved: u64,
}

impl DmaPool {
    /// Creates the pool with `cfg.dma_engines` engines. Engine
    /// programming costs the queue→scratchpad base latency (both are
    /// short on-chip descriptor writes).
    pub fn new(cfg: &ArchConfig) -> Self {
        DmaPool {
            engines: ServerPool::new(cfg.dma_engines),
            program_latency: cfg.queue_to_scratchpad_latency,
            bytes_moved: 0,
        }
    }

    /// Books a transfer of `bytes` from `from` to `to` requested at
    /// `now`; returns when the transfer starts (an engine is free) and
    /// finishes (data landed at the destination).
    pub fn transfer(
        &mut self,
        now: SimTime,
        net: &Interconnect,
        from: Endpoint,
        to: Endpoint,
        bytes: u64,
    ) -> Booking {
        let service = self.program_latency + net.transfer_time(from, to, bytes);
        self.bytes_moved += bytes;
        self.engines.acquire(now, service)
    }

    /// Books a transfer with an explicitly-computed service time (e.g.
    /// a memory write that also pays the payload-access cost).
    pub fn transfer_with_service(
        &mut self,
        now: SimTime,
        service: SimDuration,
        bytes: u64,
    ) -> Booking {
        self.bytes_moved += bytes;
        self.engines.acquire(now, self.program_latency + service)
    }

    /// Total bytes moved by all engines.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Number of transfers performed.
    pub fn transfers(&self) -> u64 {
        self.engines.jobs()
    }

    /// Average engine utilization over `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.engines.utilization(now)
    }

    /// Engines with a transfer in flight at `now`.
    pub fn busy_engines(&self, now: SimTime) -> usize {
        self.engines.busy_at(now)
    }
}

accelflow_sim::impl_snapshot! { struct DmaPool { engines, program_latency, bytes_moved } }

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{ChipletLayout, UnitId};

    fn setup() -> (ArchConfig, Interconnect, DmaPool) {
        let cfg = ArchConfig::icelake();
        let net = Interconnect::new(&cfg, ChipletLayout::new(vec![vec![8], (0..8).collect()], 9));
        let dma = DmaPool::new(&cfg);
        (cfg, net, dma)
    }

    #[test]
    fn transfers_queue_when_engines_exhausted() {
        let (cfg, net, mut dma) = setup();
        let from = Endpoint::Unit(UnitId(0));
        let to = Endpoint::Unit(UnitId(1));
        let mut last = SimTime::ZERO;
        // 11 concurrent transfers on 10 engines: the 11th must wait.
        for i in 0..11 {
            let b = dma.transfer(SimTime::ZERO, &net, from, to, 2048);
            if i < cfg.dma_engines {
                assert_eq!(b.start, SimTime::ZERO, "engine {i} should start at 0");
            } else {
                assert!(b.start > SimTime::ZERO, "11th transfer must queue");
            }
            last = last.max(b.finish);
        }
        assert_eq!(dma.transfers(), 11);
        assert_eq!(dma.bytes_moved(), 11 * 2048);
        assert!(dma.utilization(last) > 0.0);
    }

    #[test]
    fn bigger_transfers_take_longer() {
        let (_, net, mut dma) = setup();
        let from = Endpoint::Unit(UnitId(0));
        let to = Endpoint::Unit(UnitId(7));
        let small = dma.transfer(SimTime::ZERO, &net, from, to, 64);
        let big = dma.transfer(SimTime::ZERO, &net, from, to, 32 * 1024);
        assert!(big.finish - big.start > small.finish - small.start);
    }

    #[test]
    fn explicit_service_transfer() {
        let (_, _, mut dma) = setup();
        let b = dma.transfer_with_service(SimTime::ZERO, SimDuration::from_nanos(100), 512);
        assert_eq!(
            b.finish - b.start,
            SimDuration::from_nanos(110) // 10 ns programming + 100 ns service
        );
        assert_eq!(dma.bytes_moved(), 512);
    }
}
