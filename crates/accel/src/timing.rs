//! Service-time models for the nine accelerators.
//!
//! The paper (§VI, "How We Model the Accelerators") does not simulate
//! accelerator RTL. It measures how many cycles a CPU takes for each
//! tax operation `C` and charges the accelerator `C / S`, where `S` is
//! the speedup the accelerator's paper reports (averaged across input
//! sizes): **TCP 3.5 (F4T), (De)Encr 6.6 (QTLS), RPC 20.5 (Cerebros),
//! (De)Ser 3.8 (ProtoAcc), Dcmp 4.1 / Cmp 15.2 (CDPU), LdB 8.1 (Intel
//! DLB)**. We adopt exactly that abstraction.
//!
//! The CPU cycle counts themselves are synthesized as
//! `fixed + per_byte × payload` and calibrated (see DESIGN.md §5)
//! so that the *Non-acc* execution-time breakdown reproduces the
//! paper's Fig 1 averages.

use accelflow_sim::time::{Frequency, SimDuration};
use accelflow_trace::kind::AccelKind;

/// CPU cycle cost of one tax operation: `fixed + per_byte * bytes`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Fixed cycles per invocation (setup, headers, control).
    pub fixed_cycles: f64,
    /// Cycles per payload byte.
    pub cycles_per_byte: f64,
}

impl CostModel {
    /// Total CPU cycles for a payload of `bytes`.
    pub fn cycles(&self, bytes: u64) -> f64 {
        self.fixed_cycles + self.cycles_per_byte * bytes as f64
    }
}

/// The ensemble's timing model: CPU costs, accelerator speedups, and
/// payload-size transfer functions.
///
/// # Example
///
/// ```
/// use accelflow_accel::timing::ServiceTimeModel;
/// use accelflow_sim::time::Frequency;
/// use accelflow_trace::kind::AccelKind;
///
/// let model = ServiceTimeModel::calibrated(Frequency::from_ghz(2.4));
/// let cpu = model.cpu_time(AccelKind::Tcp, 2048);
/// let acc = model.accel_time(AccelKind::Tcp, 2048);
/// // F4T accelerates TCP by 3.5x.
/// assert!((cpu.as_nanos_f64() / acc.as_nanos_f64() - 3.5).abs() < 0.01);
/// ```
#[derive(Clone, Debug)]
pub struct ServiceTimeModel {
    costs: [CostModel; AccelKind::COUNT],
    speedups: [f64; AccelKind::COUNT],
    clock: Frequency,
    /// Global multiplier on all speedups (§VII-C5 sweeps ×0.25–×4).
    speedup_scale: f64,
    /// Multiplier on CPU-side tax cycles (CPU-generation scaling).
    tax_cycle_scale: f64,
}

impl ServiceTimeModel {
    /// The calibrated baseline model at the given core clock.
    ///
    /// The cost/speedup tables are clock-independent constants, so
    /// they are built once and memoized; each call clones the cached
    /// tables and stamps in the requested clock. This keeps the call
    /// cheap enough for per-probe use in the harness hot path.
    pub fn calibrated(clock: Frequency) -> Self {
        static BASE: std::sync::OnceLock<ServiceTimeModel> = std::sync::OnceLock::new();
        let mut model = BASE
            .get_or_init(|| Self::build_calibrated(Frequency::from_ghz(1.0)))
            .clone();
        model.clock = clock;
        model
    }

    /// The uncached table build backing [`Self::calibrated`].
    fn build_calibrated(clock: Frequency) -> Self {
        use AccelKind::*;
        let mut costs = [CostModel {
            fixed_cycles: 0.0,
            cycles_per_byte: 0.0,
        }; AccelKind::COUNT];
        // Synthesized CPU cost models; see DESIGN.md §5. At the median
        // 2 KB payload these yield ops of a few µs — the paper's
        // "fine grained, potentially taking only tens of µs" regime —
        // and reproduce Fig 1's average breakdown on the service mix.
        costs[Tcp.id() as usize] = CostModel {
            fixed_cycles: 7_000.0,
            cycles_per_byte: 4.6,
        };
        costs[Encr.id() as usize] = CostModel {
            fixed_cycles: 3_200.0,
            cycles_per_byte: 3.1,
        };
        costs[Decr.id() as usize] = CostModel {
            fixed_cycles: 3_200.0,
            cycles_per_byte: 3.1,
        };
        costs[Rpc.id() as usize] = CostModel {
            fixed_cycles: 2_700.0,
            cycles_per_byte: 0.3,
        };
        costs[Ser.id() as usize] = CostModel {
            fixed_cycles: 3_800.0,
            cycles_per_byte: 4.9,
        };
        costs[Dser.id() as usize] = CostModel {
            fixed_cycles: 4_200.0,
            cycles_per_byte: 5.3,
        };
        costs[Cmp.id() as usize] = CostModel {
            fixed_cycles: 5_000.0,
            cycles_per_byte: 10.0,
        };
        costs[Dcmp.id() as usize] = CostModel {
            fixed_cycles: 3_600.0,
            cycles_per_byte: 4.6,
        };
        costs[Ldb.id() as usize] = CostModel {
            fixed_cycles: 5_400.0,
            cycles_per_byte: 0.0,
        };

        let mut speedups = [1.0; AccelKind::COUNT];
        speedups[Tcp.id() as usize] = 3.5; // F4T
        speedups[Encr.id() as usize] = 6.6; // QTLS
        speedups[Decr.id() as usize] = 6.6; // QTLS
        speedups[Rpc.id() as usize] = 20.5; // Cerebros
        speedups[Ser.id() as usize] = 3.8; // ProtoAcc
        speedups[Dser.id() as usize] = 3.8; // ProtoAcc
        speedups[Cmp.id() as usize] = 15.2; // CDPU compression
        speedups[Dcmp.id() as usize] = 4.1; // CDPU decompression
        speedups[Ldb.id() as usize] = 8.1; // Intel DLB

        ServiceTimeModel {
            costs,
            speedups,
            clock,
            speedup_scale: 1.0,
            tax_cycle_scale: 1.0,
        }
    }

    /// Scales all accelerator speedups (the §VII-C5 sensitivity knob).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn set_speedup_scale(&mut self, scale: f64) {
        assert!(scale > 0.0, "speedup scale must be positive");
        self.speedup_scale = scale;
    }

    /// Scales CPU-side tax cycles (CPU-generation factor; Fig 20).
    /// A factor above 1.0 means the CPU runs tax code *faster*.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn set_tax_speed_factor(&mut self, factor: f64) {
        assert!(factor > 0.0, "tax speed factor must be positive");
        self.tax_cycle_scale = 1.0 / factor;
    }

    /// The core clock used for cycle→time conversion.
    pub fn clock(&self) -> Frequency {
        self.clock
    }

    /// CPU cycles for one tax operation.
    pub fn cpu_cycles(&self, kind: AccelKind, bytes: u64) -> f64 {
        self.costs[kind.id() as usize].cycles(bytes) * self.tax_cycle_scale
    }

    /// Time for the operation on a CPU core.
    pub fn cpu_time(&self, kind: AccelKind, bytes: u64) -> SimDuration {
        self.clock.cycles(self.cpu_cycles(kind, bytes))
    }

    /// Effective speedup of the accelerator (literature × scale).
    pub fn speedup(&self, kind: AccelKind) -> f64 {
        self.speedups[kind.id() as usize] * self.speedup_scale
    }

    /// Time for the operation's compute phase `C` on an accelerator PE:
    /// `C / S` (paper §VI).
    pub fn accel_time(&self, kind: AccelKind, bytes: u64) -> SimDuration {
        // The accelerator's compute time does not improve with CPU
        // generation, so undo the tax scale.
        let base_cycles = self.costs[kind.id() as usize].cycles(bytes);
        self.clock.cycles(base_cycles / self.speedup(kind))
    }

    /// Output payload size of the operation given its input size.
    ///
    /// Compression shrinks the payload (~3×, typical for Zstd/Snappy on
    /// service data), decompression expands it back; serialization
    /// densifies slightly; framing and crypto are size-preserving; the
    /// load balancer carries no payload. The size depends on the kind
    /// alone, so sampled programs derive it when read.
    #[inline]
    pub fn output_bytes(kind: AccelKind, input: u64) -> u64 {
        use AccelKind::*;
        match kind {
            Cmp => (input as f64 / 3.0).round().max(1.0) as u64,
            Dcmp => input.saturating_mul(3),
            Ser => (input as f64 * 0.9).round().max(1.0) as u64,
            Dser => (input as f64 * 1.1).round().max(1.0) as u64,
            Tcp | Encr | Decr | Rpc => input,
            // LdB does not process the payload (it picks a core); the
            // data passes through to the chosen core untouched.
            Ldb => input,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AccelKind::*;

    fn model() -> ServiceTimeModel {
        ServiceTimeModel::calibrated(Frequency::from_ghz(2.4))
    }

    #[test]
    fn speedups_match_the_literature() {
        let m = model();
        assert_eq!(m.speedup(Tcp), 3.5);
        assert_eq!(m.speedup(Encr), 6.6);
        assert_eq!(m.speedup(Decr), 6.6);
        assert_eq!(m.speedup(Rpc), 20.5);
        assert_eq!(m.speedup(Ser), 3.8);
        assert_eq!(m.speedup(Dser), 3.8);
        assert_eq!(m.speedup(Cmp), 15.2);
        assert_eq!(m.speedup(Dcmp), 4.1);
        assert_eq!(m.speedup(Ldb), 8.1);
    }

    #[test]
    fn ops_are_fine_grained() {
        // §I: "the basic operations to be accelerated are fine grained,
        // potentially taking only tens of µs" — CPU-side ops at the
        // median 2 KB payload must be single-digit µs to tens of µs.
        let m = model();
        for kind in AccelKind::ALL {
            let t = m.cpu_time(kind, 2048).as_micros_f64();
            assert!(t > 0.5 && t < 50.0, "{kind}: {t} us");
        }
    }

    #[test]
    fn accel_time_is_cpu_over_speedup() {
        let m = model();
        for kind in AccelKind::ALL {
            for bytes in [0u64, 512, 2048, 65536] {
                let cpu = m.cpu_time(kind, bytes).as_nanos_f64();
                let acc = m.accel_time(kind, bytes).as_nanos_f64();
                let ratio = cpu / acc;
                assert!(
                    (ratio - m.speedup(kind)).abs() / m.speedup(kind) < 0.01,
                    "{kind} {bytes}"
                );
            }
        }
    }

    #[test]
    fn speedup_scale_sweeps() {
        let mut m = model();
        let base = m.accel_time(Encr, 2048);
        m.set_speedup_scale(4.0);
        let fast = m.accel_time(Encr, 2048);
        assert!((base.as_nanos_f64() / fast.as_nanos_f64() - 4.0).abs() < 0.01);
        m.set_speedup_scale(0.25);
        let slow = m.accel_time(Encr, 2048);
        assert!((slow.as_nanos_f64() / base.as_nanos_f64() - 4.0).abs() < 0.01);
    }

    #[test]
    fn tax_factor_speeds_cpu_not_accel() {
        let mut m = model();
        let cpu_base = m.cpu_time(Tcp, 2048);
        let acc_base = m.accel_time(Tcp, 2048);
        m.set_tax_speed_factor(1.09); // Emerald Rapids
        assert!(m.cpu_time(Tcp, 2048) < cpu_base);
        assert_eq!(m.accel_time(Tcp, 2048), acc_base);
    }

    #[test]
    fn payload_size_transfer_functions() {
        let out = ServiceTimeModel::output_bytes;
        assert_eq!(out(Cmp, 3000), 1000);
        assert_eq!(out(Dcmp, 1000), 3000);
        assert_eq!(out(Tcp, 2048), 2048);
        assert_eq!(out(Ldb, 2048), 2048);
        assert!(out(Ser, 2048) < 2048);
        assert!(out(Dser, 2048) > 2048);
        assert_eq!(out(Cmp, 1), 1); // never rounds to zero
    }

    #[test]
    fn compression_is_asymmetric() {
        // CDPU: compression has a much larger speedup (15.2) than
        // decompression (4.1) — the paper's Cmp/Dcmp asymmetry.
        let m = model();
        assert!(m.accel_time(Cmp, 8192) < m.cpu_time(Cmp, 8192) * 0.1);
        assert!(m.accel_time(Dcmp, 8192) > m.cpu_time(Dcmp, 8192) * 0.2);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn bad_scale_rejected() {
        model().set_speedup_scale(0.0);
    }
}
