//! Energy and power accounting (paper §VI area/power and §VII-B5).
//!
//! The paper computes power with McPAT and reports: accelerators draw at
//! most 12.5 W and the AccelFlow orchestration structures 5.0 W (3.1%
//! and 1.2% of server power); running the services, AccelFlow cuts
//! server energy 74% versus Non-acc and improves perf/W 7.2× (2.1× vs
//! RELIEF). We reproduce the *relative* results with a parameterized
//! activity-based model: busy/idle power for cores and accelerators
//! plus per-event energies for the orchestration structures.

use accelflow_sim::time::{SimDuration, SimTime};

/// Power/energy coefficients, loosely calibrated to the paper's McPAT
/// numbers (36-core server ≈ 400 W max; nine 8-PE accelerators ≈
/// 12.5 W; orchestration ≈ 5 W).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Active power of one core, watts.
    pub core_active_w: f64,
    /// Idle power of one core, watts.
    pub core_idle_w: f64,
    /// Active power of one accelerator (all PEs), watts.
    pub accel_active_w: f64,
    /// Idle power of one accelerator, watts.
    pub accel_idle_w: f64,
    /// Uncore/LLC/static power, watts.
    pub uncore_w: f64,
    /// Energy per dispatcher RISC-like glue instruction, joules.
    pub dispatcher_instr_j: f64,
    /// Energy per input/output queue access, joules.
    pub queue_access_j: f64,
    /// Energy per DMA byte moved, joules.
    pub dma_byte_j: f64,
    /// Energy per byte crossing the on-package network, joules.
    pub noc_byte_j: f64,
}

impl EnergyModel {
    /// The reproduction's default coefficients.
    pub fn mcpat_like() -> Self {
        EnergyModel {
            core_active_w: 8.0,
            core_idle_w: 0.8,
            accel_active_w: 1.4,
            accel_idle_w: 0.1,
            uncore_w: 60.0,
            dispatcher_instr_j: 40e-12,
            queue_access_j: 120e-12,
            dma_byte_j: 1.2e-12,
            noc_byte_j: 0.8e-12,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::mcpat_like()
    }
}

/// Accumulates activity and converts it to energy.
///
/// # Example
///
/// ```
/// use accelflow_arch::energy::{EnergyMeter, EnergyModel};
/// use accelflow_sim::time::{SimDuration, SimTime};
///
/// let mut meter = EnergyMeter::new(EnergyModel::mcpat_like(), 36, 9);
/// meter.add_core_busy(SimDuration::from_millis(10));
/// meter.add_accel_busy(SimDuration::from_millis(5));
/// let report = meter.report(SimTime::ZERO + SimDuration::from_millis(10));
/// assert!(report.total_j > 0.0);
/// assert!(report.core_j > report.accel_j);
/// ```
#[derive(Clone, Debug)]
pub struct EnergyMeter {
    model: EnergyModel,
    cores: usize,
    accelerators: usize,
    core_busy: SimDuration,
    accel_busy: SimDuration,
    dispatcher_instrs: u64,
    queue_accesses: u64,
    dma_bytes: u64,
    noc_bytes: u64,
}

/// An energy breakdown over a simulated window.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyReport {
    /// Core energy (active + idle), joules.
    pub core_j: f64,
    /// Accelerator energy (active + idle), joules.
    pub accel_j: f64,
    /// Orchestration energy (dispatchers, queues, DMA, NoC), joules.
    pub orchestration_j: f64,
    /// Uncore/static energy, joules.
    pub uncore_j: f64,
    /// Total, joules.
    pub total_j: f64,
    /// Average power over the window, watts.
    pub avg_power_w: f64,
}

impl EnergyMeter {
    /// Creates a meter for `cores` cores and `accelerators`
    /// accelerators.
    pub fn new(model: EnergyModel, cores: usize, accelerators: usize) -> Self {
        EnergyMeter {
            model,
            cores,
            accelerators,
            core_busy: SimDuration::ZERO,
            accel_busy: SimDuration::ZERO,
            dispatcher_instrs: 0,
            queue_accesses: 0,
            dma_bytes: 0,
            noc_bytes: 0,
        }
    }

    /// Adds core busy time (across all cores).
    pub fn add_core_busy(&mut self, d: SimDuration) {
        self.core_busy += d;
    }

    /// Adds accelerator busy time (across all accelerators/PEs).
    pub fn add_accel_busy(&mut self, d: SimDuration) {
        self.accel_busy += d;
    }

    /// Adds dispatcher glue instructions.
    pub fn add_dispatcher_instrs(&mut self, n: u64) {
        self.dispatcher_instrs += n;
    }

    /// Adds input/output queue accesses.
    pub fn add_queue_accesses(&mut self, n: u64) {
        self.queue_accesses += n;
    }

    /// Adds DMA traffic.
    pub fn add_dma_bytes(&mut self, n: u64) {
        self.dma_bytes += n;
    }

    /// Adds on-package network traffic.
    pub fn add_noc_bytes(&mut self, n: u64) {
        self.noc_bytes += n;
    }

    /// Monotone activity totals: `(core busy, accel busy, summed event
    /// counters)`. Every accumulator only grows, so consistency audits
    /// can assert these never decrease between observations.
    pub fn activity(&self) -> (SimDuration, SimDuration, u64) {
        (
            self.core_busy,
            self.accel_busy,
            self.dispatcher_instrs + self.queue_accesses + self.dma_bytes + self.noc_bytes,
        )
    }

    /// Produces the energy breakdown for the window `[0, now]`.
    ///
    /// Busy time beyond the available capacity (e.g. accumulated after
    /// `now`) is clamped so idle time never goes negative.
    pub fn report(&self, now: SimTime) -> EnergyReport {
        let window = now.as_secs_f64();
        let m = &self.model;

        let core_capacity = window * self.cores as f64;
        let core_busy = self.core_busy.as_secs_f64().min(core_capacity);
        let core_idle = (core_capacity - core_busy).max(0.0);
        let core_j = core_busy * m.core_active_w + core_idle * m.core_idle_w;

        let accel_capacity = window * self.accelerators as f64;
        let accel_busy = self.accel_busy.as_secs_f64().min(accel_capacity);
        let accel_idle = (accel_capacity - accel_busy).max(0.0);
        let accel_j = accel_busy * m.accel_active_w + accel_idle * m.accel_idle_w;

        let orchestration_j = self.dispatcher_instrs as f64 * m.dispatcher_instr_j
            + self.queue_accesses as f64 * m.queue_access_j
            + self.dma_bytes as f64 * m.dma_byte_j
            + self.noc_bytes as f64 * m.noc_byte_j;

        let uncore_j = window * m.uncore_w;
        let total_j = core_j + accel_j + orchestration_j + uncore_j;
        EnergyReport {
            core_j,
            accel_j,
            orchestration_j,
            uncore_j,
            total_j,
            avg_power_w: if window > 0.0 { total_j / window } else { 0.0 },
        }
    }
}

accelflow_sim::impl_snapshot! {
    struct EnergyReport { core_j, accel_j, orchestration_j, uncore_j, total_j, avg_power_w }
}

accelflow_sim::impl_snapshot! {
    struct EnergyModel {
        core_active_w, core_idle_w, accel_active_w, accel_idle_w, uncore_w,
        dispatcher_instr_j, queue_access_j, dma_byte_j, noc_byte_j,
    }
}

accelflow_sim::impl_snapshot! {
    struct EnergyMeter {
        model, cores, accelerators, core_busy, accel_busy,
        dispatcher_instrs, queue_accesses, dma_bytes, noc_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> EnergyMeter {
        EnergyMeter::new(EnergyModel::mcpat_like(), 36, 9)
    }

    #[test]
    fn idle_server_burns_idle_power_only() {
        let m = meter();
        let window = SimTime::ZERO + SimDuration::from_secs(1);
        let r = m.report(window);
        let expect = 36.0 * 0.8 + 9.0 * 0.1 + 60.0;
        assert!((r.avg_power_w - expect).abs() < 1e-6, "{}", r.avg_power_w);
        assert_eq!(r.orchestration_j, 0.0);
    }

    #[test]
    fn moving_work_to_accelerators_saves_energy() {
        // 1 second window; the same "work" done on cores vs on
        // accelerators (5x faster and much lower power).
        let window = SimTime::ZERO + SimDuration::from_secs(1);
        let mut on_cpu = meter();
        on_cpu.add_core_busy(SimDuration::from_millis(10_000)); // 10 core-seconds

        let mut on_accel = meter();
        on_accel.add_core_busy(SimDuration::from_millis(2_100)); // app logic
        on_accel.add_accel_busy(SimDuration::from_millis(1_600)); // tax / speedup

        let e_cpu = on_cpu.report(window).total_j;
        let e_accel = on_accel.report(window).total_j;
        assert!(e_accel < e_cpu * 0.75, "cpu {e_cpu} accel {e_accel}");

        // The paper's −74% (§VII-B5) also reflects the accelerated run
        // *finishing sooner* (fixed 400K-request batch): a shorter
        // window shrinks idle/static energy too.
        let short = SimTime::ZERO + SimDuration::from_millis(250);
        let e_accel_fast = on_accel.report(short).total_j;
        assert!(
            e_accel_fast < e_cpu * 0.35,
            "cpu {e_cpu} accel fast {e_accel_fast}"
        );
    }

    #[test]
    fn orchestration_energy_accumulates() {
        let mut m = meter();
        m.add_dispatcher_instrs(1_000_000);
        m.add_queue_accesses(100_000);
        m.add_dma_bytes(1 << 30);
        m.add_noc_bytes(1 << 30);
        let r = m.report(SimTime::ZERO + SimDuration::from_secs(1));
        assert!(r.orchestration_j > 0.0);
        // Orchestration stays a small fraction of server energy.
        assert!(r.orchestration_j < 0.05 * r.total_j);
    }

    #[test]
    fn busy_clamped_to_capacity() {
        let mut m = meter();
        m.add_core_busy(SimDuration::from_secs(100)); // > 36 core-seconds in 1s window
        let r = m.report(SimTime::ZERO + SimDuration::from_secs(1));
        let max_core = 36.0 * 8.0;
        assert!(r.core_j <= max_core + 1e-9);
    }

    #[test]
    fn zero_window_is_safe() {
        let r = meter().report(SimTime::ZERO);
        assert_eq!(r.avg_power_w, 0.0);
        assert_eq!(r.total_j, 0.0);
    }
}
