//! Bursty arrival-trace generators.
//!
//! The paper drives the Fig 11/13 experiments with Alibaba's production
//! invocation traces (average 13.4 kRPS per service) and the Fig 16
//! serverless experiment with Microsoft Azure traces. Both are bursty:
//! rates swing over seconds and sub-seconds. We substitute
//! Markov-modulated Poisson processes (MMPP) whose states and dwell
//! times are tuned to produce the same qualitative burstiness (see
//! DESIGN.md §2); tail-latency separation between orchestrators comes
//! from exactly this burstiness. The timeline is a [`CorrelatedBursts`]
//! and its segments feed [`draw_arrivals`] directly, so each
//! segment is an exact Poisson stream rather than a thinned one.

use accelflow_core::arrivals::{draw_arrivals, fresh_programs, Arrival};
use accelflow_core::request::ServiceSpec;
use accelflow_sim::rng::SimRng;
use accelflow_sim::time::SimDuration;
use accelflow_trace::templates::TraceLibrary;

use crate::openloop::CorrelatedBursts;

/// A burstiness profile: a set of rate multipliers and how long the
/// process dwells in each before re-drawing.
#[derive(Clone, Debug)]
pub struct BurstyProfile {
    /// Rate multipliers relative to the mean rate.
    pub states: Vec<f64>,
    /// Probability weight of each state.
    pub weights: Vec<f64>,
    /// Mean dwell time in a state.
    pub dwell: SimDuration,
}

impl BurstyProfile {
    /// Alibaba-like: mostly steady with regular surges (the paper's
    /// microservice invocation traces show diurnal plus bursty
    /// sub-second behavior; we reproduce the sub-second part).
    pub fn alibaba_like() -> Self {
        BurstyProfile {
            states: vec![0.5, 0.9, 1.35, 2.1],
            weights: vec![0.28, 0.42, 0.22, 0.08],
            dwell: SimDuration::from_millis(8),
        }
    }

    /// Azure-like serverless: long idle-ish stretches punctuated by
    /// sharp invocation storms (heavier burst state).
    pub fn azure_like() -> Self {
        BurstyProfile {
            states: vec![0.15, 0.7, 1.2, 5.5],
            weights: vec![0.35, 0.35, 0.22, 0.08],
            dwell: SimDuration::from_millis(20),
        }
    }

    /// Validates that the profile's mean multiplier is ~1.0 so the
    /// requested mean rate is respected.
    pub fn mean_multiplier(&self) -> f64 {
        let wsum: f64 = self.weights.iter().sum();
        self.states
            .iter()
            .zip(&self.weights)
            .map(|(s, w)| s * w / wsum)
            .sum()
    }
}

/// Bursty arrivals under an explicit profile, `mean_rps` per service
/// (the paper's real-trace average is 13.4 kRPS): one Markov-modulated
/// timeline drawn on `seed`'s `0xB00` fork drives every service, since
/// a production surge raises the load of every colocated service at
/// once. Pass [`BurstyProfile::alibaba_like`] for Fig 11/13 and
/// [`BurstyProfile::azure_like`] for Fig 16.
pub fn bursty_arrivals(
    services: &[ServiceSpec],
    lib: &TraceLibrary,
    mean_rps: f64,
    duration: SimDuration,
    seed: u64,
    profile: &BurstyProfile,
) -> Vec<Arrival> {
    let mut master = SimRng::seed(seed);
    let timeline = CorrelatedBursts::draw("mmpp", profile, duration, &mut master.fork(0xB00));
    let bursts = &timeline.segments;
    let sample = fresh_programs(services, lib);
    draw_arrivals(services, mean_rps, bursts, master, |_, _| true, sample)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socialnetwork;

    fn alibaba(services: &[ServiceSpec], rps: f64, dur: SimDuration, seed: u64) -> Vec<Arrival> {
        let lib = TraceLibrary::standard();
        let profile = BurstyProfile::alibaba_like();
        bursty_arrivals(services, &lib, rps, dur, seed, &profile)
    }

    #[test]
    fn profiles_have_unit_mean() {
        for p in [BurstyProfile::alibaba_like(), BurstyProfile::azure_like()] {
            let m = p.mean_multiplier();
            assert!((m - 1.0).abs() < 0.05, "mean multiplier {m}");
        }
    }

    #[test]
    fn mean_rate_is_respected() {
        let services = vec![socialnetwork::uniq_id()];
        let dur = SimDuration::from_millis(2_000);
        let arr = alibaba(&services, 1_000.0, dur, 5);
        let rate = arr.len() as f64 / dur.as_secs_f64();
        assert!((rate - 1_000.0).abs() / 1_000.0 < 0.15, "rate {rate}");
    }

    #[test]
    fn arrivals_are_sorted_and_bursty() {
        let services = vec![socialnetwork::uniq_id(), socialnetwork::login()];
        let dur = SimDuration::from_millis(500);
        let arr = alibaba(&services, 2_000.0, dur, 9);
        for w in arr.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        // Burstiness: the per-10ms bucket counts must vary much more
        // than Poisson (index of dispersion >> 1).
        let bucket = SimDuration::from_millis(10);
        let buckets = (dur.as_picos() / bucket.as_picos()) as usize;
        let mut counts = vec![0f64; buckets];
        for a in &arr {
            let b = ((a.at.as_picos()) / bucket.as_picos()) as usize;
            counts[b.min(buckets - 1)] += 1.0;
        }
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / counts.len() as f64;
        let dispersion = var / mean;
        assert!(
            dispersion > 2.0,
            "dispersion {dispersion} (Poisson would be ~1)"
        );
    }

    #[test]
    fn azure_is_burstier_than_alibaba() {
        let a = BurstyProfile::alibaba_like();
        let z = BurstyProfile::azure_like();
        let peak = |p: &BurstyProfile| {
            p.states.iter().cloned().fold(0.0f64, f64::max) / p.mean_multiplier()
        };
        assert!(peak(&z) > peak(&a));
    }

    #[test]
    fn deterministic_per_seed() {
        let services = vec![socialnetwork::uniq_id()];
        let dur = SimDuration::from_millis(100);
        let a = alibaba(&services, 500.0, dur, 42);
        let b = alibaba(&services, 500.0, dur, 42);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.at == y.at));
    }

    #[test]
    fn every_generator_is_empty_at_a_zero_or_vanishing_rate() {
        use crate::openloop::{openloop_arrivals, Steady};
        use accelflow_accel::timing::ServiceTimeModel;
        use accelflow_core::arrivals::poisson_arrivals;
        use accelflow_sim::time::Frequency;

        let lib = TraceLibrary::standard();
        let timing = ServiceTimeModel::calibrated(Frequency::from_ghz(2.4));
        let services = socialnetwork::all();
        let dur = SimDuration::from_millis(50);
        // At 1e-9 rps a gap saturates `SimDuration`, so no instant may
        // be advanced by it.
        for rps in [0.0, 1e-9] {
            assert!(poisson_arrivals(&services, &lib, &timing, rps, dur, 1).is_empty());
            assert!(alibaba(&services, rps, dur, 1).is_empty());
            assert!(openloop_arrivals(&Steady, &services, &lib, &timing, rps, dur, 1).is_empty());
        }
    }
}
