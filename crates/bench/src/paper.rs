//! The numbers the paper reports, as constants.
//!
//! Every experiment prints these beside the measured values so
//! EXPERIMENTS.md can record paper-vs-measured for each table/figure.

/// Fig 1 average execution-time shares on Non-acc (§III Q1), in the
/// order: TCP, (De)Encr, RPC, (De)Ser, (De)Cmp, LdB, AppLogic.
pub const FIG1_SHARES: [(&str, f64); 7] = [
    ("TCP", 0.256),
    ("(De)Encr", 0.146),
    ("RPC", 0.032),
    ("(De)Ser", 0.224),
    ("(De)Cmp", 0.095),
    ("LdB", 0.039),
    ("AppLogic", 0.207),
];

/// Fig 3: orchestration overhead fraction at 15 kRPS.
pub const FIG3_CPU_CENTRIC_AT_15K: f64 = 0.25;
/// Fig 3: HW-Manager overhead at 15 kRPS.
pub const FIG3_HW_MANAGER_AT_15K: f64 = 0.15;

/// Fig 11: average P99 reduction of AccelFlow vs (Non-acc,
/// CPU-Centric, RELIEF, Cohort).
pub const FIG11_P99_REDUCTION: [(&str, f64); 4] = [
    ("Non-acc", 0.907),
    ("CPU-Centric", 0.812),
    ("RELIEF", 0.688),
    ("Cohort", 0.701),
];

/// Fig 11: average mean-latency reduction of AccelFlow vs the same
/// baselines.
pub const FIG11_MEAN_REDUCTION: [(&str, f64); 4] = [
    ("Non-acc", 0.772),
    ("CPU-Centric", 0.539),
    ("RELIEF", 0.407),
    ("Cohort", 0.379),
];

/// Fig 12: P99 reduction vs RELIEF at 5/10/15 kRPS.
pub const FIG12_VS_RELIEF: [(f64, f64); 3] =
    [(5_000.0, 0.551), (10_000.0, 0.609), (15_000.0, 0.683)];

/// Fig 13: cumulative average P99 reduction after each technique
/// (PerAccTypeQ, Direct, CntrFlow, AccelFlow) relative to RELIEF.
pub const FIG13_CUMULATIVE_REDUCTION: [(&str, f64); 4] = [
    ("PerAccTypeQ", 0.068),
    ("Direct", 0.327),
    ("CntrFlow", 0.551),
    ("AccelFlow", 0.687),
];

/// Fig 14: throughput of AccelFlow vs Non-acc.
pub const FIG14_VS_NONACC: f64 = 8.3;
/// Fig 14: throughput of AccelFlow vs RELIEF.
pub const FIG14_VS_RELIEF: f64 = 2.2;
/// Fig 14: AccelFlow is within this fraction of Ideal.
pub const FIG14_WITHIN_IDEAL: f64 = 0.08;
/// §VII-A3: extra throughput from deadline scheduling.
pub const FIG14_DEADLINE_EXTRA: f64 = 1.6;

/// Fig 15: throughput of AccelFlow vs RELIEF on the coarse-grain
/// suite.
pub const FIG15_VS_RELIEF: f64 = 1.8;

/// Fig 16: average serverless P99 reduction vs RELIEF.
pub const FIG16_VS_RELIEF: f64 = 0.37;

/// Fig 17: orchestration share of AccelFlow execution time (unloaded).
pub const FIG17_ORCH_SHARE: f64 = 0.022;
/// Fig 17 text: RELIEF's orchestration share for comparison.
pub const FIG17_RELIEF_ORCH_SHARE: f64 = 0.10;

/// §VII-B2: average glue instructions per output-dispatcher operation.
pub const GLUE_AVG_INSTRUCTIONS: f64 = 18.0;

/// §VII-B4: accelerator utilization at peak throughput.
pub const UTILIZATION_AT_PEAK: [(&str, f64); 6] = [
    ("TCP", 0.92),
    ("(De)Encr", 0.82),
    ("RPC", 0.68),
    ("(De)Ser", 0.73),
    ("(De)Cmp", 0.38),
    ("LdB", 0.71),
];

/// §VII-B5: energy reduction vs Non-acc.
pub const ENERGY_REDUCTION_VS_NONACC: f64 = 0.74;
/// §VII-B5: perf/W vs Non-acc.
pub const PERF_PER_WATT_VS_NONACC: f64 = 7.2;
/// §VII-B5: perf/W vs RELIEF.
pub const PERF_PER_WATT_VS_RELIEF: f64 = 2.1;

/// §VII-B6: overflow-area fallbacks as a share of invocations (avg).
pub const OVERFLOW_SHARE_AVG: f64 = 0.014;
/// §VII-B6: overflow share at peak load.
pub const OVERFLOW_SHARE_PEAK: f64 = 0.059;

/// Fig 18: average P99 increase from 2 to 6 chiplets.
pub const FIG18_2_TO_6_CHIPLETS: f64 = 0.14;
/// §VII-C2: P99 increase for 6-chiplet when inter-chiplet latency goes
/// 60 → 100 cycles.
pub const INTERCHIPLET_60_TO_100: f64 = 0.45;

/// Fig 19: average P99 increase with 4 PEs (vs 8).
pub const FIG19_P99_4PES: f64 = 0.200;
/// Fig 19: average P99 increase with 2 PEs (vs 8).
pub const FIG19_P99_2PES: f64 = 0.357;
/// Fig 19 text: Encr requests denied with 4 PEs.
pub const FIG19_ENCR_FALLBACK_4PES: f64 = 0.16;
/// Fig 19 text: Encr requests denied with 2 PEs.
pub const FIG19_ENCR_FALLBACK_2PES: f64 = 0.39;
/// Fig 19 text: deadline misses with 4 / 2 PEs.
pub const FIG19_DEADLINE_MISSES: [(usize, f64); 2] = [(4, 0.082), (2, 0.217)];
/// Fig 19 text: throughput drop with 4 / 2 PEs.
pub const FIG19_THROUGHPUT_DROP: [(usize, f64); 2] = [(4, 0.11), (2, 0.25)];

/// Fig 20: P99 reduction vs RELIEF on IceLake and EmeraldRapids.
pub const FIG20_ICELAKE: f64 = 0.688;
/// Fig 20: the reduction grows on Emerald Rapids.
pub const FIG20_EMERALD: f64 = 0.717;

/// §VII-C5: AccelFlow gain vs RELIEF at 0.25x / 1x / 4x accelerator
/// speedups.
pub const SPEEDUP_SWEEP_GAINS: [(f64, f64); 3] = [(0.25, 1.4), (1.0, 2.2), (4.0, 3.9)];

/// §III Q2: fraction of sequences with at least one conditional, per
/// suite.
pub const BRANCHY_SEQUENCES: [(&str, f64); 4] = [
    ("SocialNet", 0.692),
    ("HotelReservation", 0.625),
    ("MediaServices", 0.825),
    ("TrainTicket", 0.538),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shares_sum_to_one() {
        let total: f64 = FIG1_SHARES.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 0.01, "total {total}");
    }

    #[test]
    fn reductions_are_fractions() {
        for (_, r) in FIG11_P99_REDUCTION.iter().chain(&FIG11_MEAN_REDUCTION) {
            assert!((0.0..1.0).contains(r));
        }
        for (_, r) in &FIG13_CUMULATIVE_REDUCTION {
            assert!((0.0..1.0).contains(r));
        }
    }

    #[test]
    fn ablation_ladder_monotone() {
        for w in FIG13_CUMULATIVE_REDUCTION.windows(2) {
            assert!(w[0].1 < w[1].1);
        }
    }
}
