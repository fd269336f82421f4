//! Bursty arrival-trace generators.
//!
//! The paper drives the Fig 11/13 experiments with Alibaba's production
//! invocation traces (average 13.4 kRPS per service) and the Fig 16
//! serverless experiment with Microsoft Azure traces. Both are bursty:
//! rates swing over seconds and sub-seconds. We substitute
//! Markov-modulated Poisson processes (MMPP) whose states and dwell
//! times are tuned to produce the same qualitative burstiness (see
//! DESIGN.md §2); tail-latency separation between orchestrators comes
//! from exactly this burstiness.

use accelflow_accel::timing::ServiceTimeModel;
use accelflow_core::arrivals::Arrival;
use accelflow_core::request::{ServiceId, ServiceSpec};
use accelflow_sim::rng::SimRng;
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::templates::TraceLibrary;

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

/// A shared burst timeline: production surges hit the whole machine at
/// once (a traffic spike raises the load of every colocated service),
/// so one modulation sequence drives all services.
fn burst_timeline(
    profile: &BurstyProfile,
    duration: SimDuration,
    rng: &mut SimRng,
) -> Vec<(SimTime, SimTime, f64)> {
    let norm = profile.mean_multiplier();
    let mut segments = Vec::new();
    let mut t = SimTime::ZERO;
    let end = SimTime::ZERO + duration;
    while t < end {
        let state = profile.states[rng.weighted_index(&profile.weights)] / norm;
        let dwell = SimDuration::from_micros_f64(rng.exponential(profile.dwell.as_micros_f64()));
        let seg_end = (t + dwell).min(end);
        segments.push((t, seg_end, state));
        t = seg_end;
    }
    segments
}

/// Generates one service's arrivals along a shared burst timeline.
#[allow(clippy::too_many_arguments)]
fn mmpp_arrivals(
    svc: &ServiceSpec,
    idx: usize,
    lib: &TraceLibrary,
    timing: &ServiceTimeModel,
    mean_rps: f64,
    timeline: &[(SimTime, SimTime, f64)],
    rng: &mut SimRng,
    counter: &mut u64,
) -> Vec<Arrival> {
    let mut arrivals = Vec::new();
    for &(start, seg_end, state) in timeline {
        let rate = mean_rps * state;
        if rate <= 0.0 {
            continue;
        }
        let mean_gap_us = 1e6 / rate;
        let mut t = start;
        loop {
            let gap = SimDuration::from_micros_f64(rng.exponential(mean_gap_us));
            if t + gap >= seg_end {
                break;
            }
            t += gap;
            *counter += 1;
            let buffer = (*counter % accelflow_core::arrivals::BUFFER_POOL) << 24;
            arrivals.push(Arrival {
                at: t,
                service: ServiceId(idx),
                tenant: svc.tenant,
                program: svc.sample(lib, timing, rng, buffer),
            });
        }
    }
    arrivals
}

/// Alibaba-like bursty arrivals for a service mix, `mean_rps` per
/// service (the paper's average is 13.4 kRPS).
pub fn alibaba_like_arrivals(
    services: &[ServiceSpec],
    lib: &TraceLibrary,
    timing: &ServiceTimeModel,
    mean_rps: f64,
    duration: SimDuration,
    seed: u64,
) -> Vec<Arrival> {
    bursty_arrivals(
        services,
        lib,
        timing,
        mean_rps,
        duration,
        seed,
        &BurstyProfile::alibaba_like(),
    )
}

/// Azure-like bursty arrivals (Fig 16's serverless experiment).
pub fn azure_like_arrivals(
    services: &[ServiceSpec],
    lib: &TraceLibrary,
    timing: &ServiceTimeModel,
    mean_rps: f64,
    duration: SimDuration,
    seed: u64,
) -> Vec<Arrival> {
    bursty_arrivals(
        services,
        lib,
        timing,
        mean_rps,
        duration,
        seed,
        &BurstyProfile::azure_like(),
    )
}

/// Bursty arrivals under an explicit profile.
pub fn bursty_arrivals(
    services: &[ServiceSpec],
    lib: &TraceLibrary,
    timing: &ServiceTimeModel,
    mean_rps: f64,
    duration: SimDuration,
    seed: u64,
    profile: &BurstyProfile,
) -> Vec<Arrival> {
    let mut master = SimRng::seed(seed);
    let mut timeline_rng = master.fork(0xB00);
    let timeline = burst_timeline(profile, duration, &mut timeline_rng);
    let mut counter = 0u64;
    let mut all = Vec::new();
    for (idx, svc) in services.iter().enumerate() {
        let mut rng = master.fork(idx as u64);
        all.extend(mmpp_arrivals(
            svc,
            idx,
            lib,
            timing,
            mean_rps,
            &timeline,
            &mut rng,
            &mut counter,
        ));
    }
    accelflow_core::arrivals::sort_by_time(&mut all);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socialnetwork;
    use accelflow_sim::time::Frequency;

    fn fixtures() -> (TraceLibrary, ServiceTimeModel) {
        (
            TraceLibrary::standard(),
            ServiceTimeModel::calibrated(Frequency::from_ghz(2.4)),
        )
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
        let (lib, timing) = fixtures();
        let services = vec![socialnetwork::uniq_id()];
        let dur = SimDuration::from_millis(2_000);
        let arr = alibaba_like_arrivals(&services, &lib, &timing, 1_000.0, dur, 5);
        let rate = arr.len() as f64 / dur.as_secs_f64();
        assert!((rate - 1_000.0).abs() / 1_000.0 < 0.15, "rate {rate}");
    }

    #[test]
    fn arrivals_are_sorted_and_bursty() {
        let (lib, timing) = fixtures();
        let services = vec![socialnetwork::uniq_id(), socialnetwork::login()];
        let dur = SimDuration::from_millis(500);
        let arr = alibaba_like_arrivals(&services, &lib, &timing, 2_000.0, dur, 9);
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
        let (lib, timing) = fixtures();
        let services = vec![socialnetwork::uniq_id()];
        let dur = SimDuration::from_millis(100);
        let a = alibaba_like_arrivals(&services, &lib, &timing, 500.0, dur, 42);
        let b = alibaba_like_arrivals(&services, &lib, &timing, 500.0, dur, 42);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.at == y.at));
    }
}
