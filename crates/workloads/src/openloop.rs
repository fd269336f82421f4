//! Open-loop, trace-shaped arrival processes (ROADMAP "production
//! traffic scenarios").
//!
//! The paper grounds AccelFlow in production microservice traffic:
//! Alibaba invocation traces with diurnal cycles and correlated
//! sub-second bursts, and Azure serverless traces with cold-start
//! storms. Everything this module generates is **open loop** — offered
//! load is a function of time only, never of completion rate — which
//! is the regime where tail-latency SLO claims mean something (a
//! closed loop self-throttles exactly when the system congests).
//!
//! An [`ArrivalProcess`] is a deterministic intensity function `λ(t)`
//! expressed as a multiplier over a mean rate. Arrivals are drawn from
//! the non-homogeneous Poisson process with that intensity by
//! Lewis–Shedler thinning: candidates at the constant envelope rate
//! `mean_rps × peak()` are kept with probability `intensity(t)/peak()`,
//! by the draw loop the Poisson and MMPP generators use too
//! ([`draw_arrivals`]). Stochastic processes (burst timelines, storm
//! schedules) pre-draw their timeline at construction from an isolated
//! [`SimRng`] stream (the fault injector's pattern), so `intensity`
//! itself is a pure function and two calls with the same seed are
//! byte-identical.
//!
//! See `docs/WORKLOADS.md` for the scenario gallery: each generator's
//! math, its knobs, the determinism argument, and worked
//! `stats_openloop` runs.

use accelflow_accel::timing::ServiceTimeModel;
use accelflow_core::arrivals::{draw_arrivals, fresh_programs, Arrival};
use accelflow_core::request::ServiceSpec;
use accelflow_sim::rng::SimRng;
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::templates::TraceLibrary;

use crate::arrivals::BurstyProfile;

/// Salt isolating the open-loop RNG stream from every other consumer
/// of the run seed (faults use their own salt, dispatch its own): the
/// same seed drives arrivals, faults, and dispatch without any stream
/// observing another's draws.
pub const OPENLOOP_STREAM_SALT: u64 = 0x00A5_F10E_D00D_CAFE;

/// A time-varying arrival intensity, as a multiplier over a mean rate.
///
/// Implementations must be **pure**: `intensity(at)` depends only on
/// `self` and `at`. Stochastic shapes (e.g. [`CorrelatedBursts`])
/// pre-draw their whole timeline at construction from a seed, so the
/// trait itself stays deterministic and arrival generation is
/// byte-identical per seed.
///
/// `peak()` must bound `intensity` from above (the thinning envelope);
/// a loose bound only costs rejected candidates, never correctness —
/// intensities above the envelope are clamped to it.
///
/// # Implementing a custom generator
///
/// A square wave that alternates between off and double rate every
/// millisecond:
///
/// ```
/// use accelflow_sim::time::{SimDuration, SimTime};
/// use accelflow_workloads::openloop::{openloop_arrivals, ArrivalProcess};
/// use accelflow_workloads::socialnetwork;
/// use accelflow_accel::timing::ServiceTimeModel;
/// use accelflow_sim::time::Frequency;
/// use accelflow_trace::templates::TraceLibrary;
///
/// struct SquareWave {
///     half_period: SimDuration,
/// }
///
/// impl ArrivalProcess for SquareWave {
///     fn name(&self) -> &str {
///         "square"
///     }
///     fn peak(&self) -> f64 {
///         2.0
///     }
///     fn intensity(&self, at: SimTime) -> f64 {
///         let phase = (at.as_picos() / self.half_period.as_picos()) % 2;
///         if phase == 0 { 2.0 } else { 0.0 }
///     }
/// }
///
/// let process = SquareWave { half_period: SimDuration::from_millis(1) };
/// let lib = TraceLibrary::standard();
/// let timing = ServiceTimeModel::calibrated(Frequency::from_ghz(2.4));
/// let services = vec![socialnetwork::uniq_id()];
/// let arrivals = openloop_arrivals(
///     &process, &services, &lib, &timing,
///     2_000.0, SimDuration::from_millis(20), 7,
/// );
/// // All arrivals land in "on" half-periods, none in "off" ones.
/// assert!(!arrivals.is_empty());
/// assert!(arrivals
///     .iter()
///     .all(|a| (a.at.as_picos() / SimDuration::from_millis(1).as_picos()) % 2 == 0));
/// ```
pub trait ArrivalProcess {
    /// Short scenario name for tables and logs.
    fn name(&self) -> &str;

    /// Upper bound on [`intensity`](Self::intensity) over the run —
    /// the constant thinning envelope. Must be `> 0`.
    fn peak(&self) -> f64;

    /// Rate multiplier at instant `at` (relative to the mean rate
    /// handed to [`openloop_arrivals`]). Must be `>= 0` and should
    /// stay `<= peak()`; excursions above the envelope are clamped.
    fn intensity(&self, at: SimTime) -> f64;
}

/// Steady unit-rate process: `λ(t) = 1`. Thinning accepts every
/// candidate, so this is an ordinary Poisson stream — the control
/// scenario every shaped generator is compared against.
#[derive(Clone, Debug)]
pub struct Steady;

impl ArrivalProcess for Steady {
    fn name(&self) -> &str {
        "steady"
    }
    fn peak(&self) -> f64 {
        1.0
    }
    fn intensity(&self, _at: SimTime) -> f64 {
        1.0
    }
}

/// Diurnal cycle: a raised sinusoid with unit mean,
/// `λ(t) = 1 − a·cos(2π·t/period)`. `t = 0` is the overnight trough
/// and `t = period/2` the midday peak, like the day-scale envelope of
/// the Alibaba invocation traces.
#[derive(Clone, Debug)]
pub struct Diurnal {
    /// One full day (trough → peak → trough).
    pub period: SimDuration,
    /// Swing amplitude in `[0, 1]`: peak is `1 + a`, trough `1 − a`.
    pub amplitude: f64,
}

impl Diurnal {
    /// A "day" spanning exactly one run of `duration`, so a single run
    /// sees trough, peak, and trough.
    pub fn day(duration: SimDuration, amplitude: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&amplitude),
            "amplitude must be in [0,1]"
        );
        Diurnal {
            period: duration,
            amplitude,
        }
    }
}

impl ArrivalProcess for Diurnal {
    fn name(&self) -> &str {
        "diurnal"
    }
    fn peak(&self) -> f64 {
        1.0 + self.amplitude
    }
    fn intensity(&self, at: SimTime) -> f64 {
        let frac = at.as_secs_f64() / self.period.as_secs_f64();
        1.0 - self.amplitude * (std::f64::consts::TAU * frac).cos()
    }
}

/// Flash crowd: baseline rate 1, then a linear ramp to `peak_mult`
/// starting at `start`, followed by an exponential decay back toward
/// baseline with time constant `decay` (the classic breaking-news /
/// sale-event shape).
#[derive(Clone, Debug)]
pub struct FlashCrowd {
    /// When the crowd starts arriving (offset from run start).
    pub start: SimDuration,
    /// Ramp-up time from baseline to the full crowd.
    pub ramp: SimDuration,
    /// Rate multiplier at the crowd's height.
    pub peak_mult: f64,
    /// Exponential decay constant of the crowd's interest.
    pub decay: SimDuration,
}

impl FlashCrowd {
    /// A crowd sized for one run: starts 1/4 in, ramps over 1/16 of
    /// the run, decays with an 1/8-run time constant.
    pub fn for_run(duration: SimDuration, peak_mult: f64) -> Self {
        let ps = duration.as_picos();
        FlashCrowd {
            start: SimDuration::from_picos(ps / 4),
            ramp: SimDuration::from_picos(ps / 16),
            peak_mult,
            decay: SimDuration::from_picos(ps / 8),
        }
    }
}

impl ArrivalProcess for FlashCrowd {
    fn name(&self) -> &str {
        "flash"
    }
    fn peak(&self) -> f64 {
        self.peak_mult
    }
    fn intensity(&self, at: SimTime) -> f64 {
        let t = at.saturating_since(SimTime::ZERO);
        if t < self.start {
            return 1.0;
        }
        let since = t.saturating_sub(self.start);
        if since < self.ramp {
            let frac = since.as_secs_f64() / self.ramp.as_secs_f64();
            return 1.0 + (self.peak_mult - 1.0) * frac;
        }
        let tail = since.saturating_sub(self.ramp);
        1.0 + (self.peak_mult - 1.0) * (-tail.as_secs_f64() / self.decay.as_secs_f64()).exp()
    }
}

/// Correlated multi-service bursts: one piecewise-constant
/// Markov-modulated timeline (a [`BurstyProfile`], normalized to unit
/// mean) drives **every** service, reproducing the Alibaba-trace
/// property that surges hit colocated services together. The timeline
/// is pre-drawn at construction, so `intensity` is pure.
#[derive(Clone, Debug)]
pub struct CorrelatedBursts {
    label: &'static str,
    /// `(end, mult)` per segment, ends ascending, the last at the
    /// horizon; mults are normalized to unit mean.
    pub(crate) segments: Vec<(SimTime, f64)>,
    peak: f64,
}

impl CorrelatedBursts {
    /// Draws a timeline from `profile` covering `duration`, on the
    /// `0xB00` fork of `seed`'s open-loop stream.
    pub fn new(
        label: &'static str,
        profile: &BurstyProfile,
        duration: SimDuration,
        seed: u64,
    ) -> Self {
        let mut rng = SimRng::seed(seed ^ OPENLOOP_STREAM_SALT).fork(0xB00);
        Self::draw(label, profile, duration, &mut rng)
    }

    /// Draws a timeline from `profile` covering `duration` on `rng`:
    /// each segment's state, then its exponential dwell, clipped to the
    /// horizon.
    pub(crate) fn draw(
        label: &'static str,
        profile: &BurstyProfile,
        duration: SimDuration,
        rng: &mut SimRng,
    ) -> Self {
        let norm = profile.mean_multiplier();
        let end = SimTime::ZERO + duration;
        let mut segments = Vec::new();
        let mut t = SimTime::ZERO;
        let mut peak = 0.0f64;
        while t < end {
            let mult = profile.states[rng.weighted_index(&profile.weights)] / norm;
            let dwell =
                SimDuration::from_micros_f64(rng.exponential(profile.dwell.as_micros_f64()));
            t = (t + dwell).min(end);
            segments.push((t, mult));
            peak = peak.max(mult);
        }
        CorrelatedBursts {
            label,
            segments,
            peak: peak.max(1e-9),
        }
    }

    /// Alibaba-like sub-second burst correlation.
    pub fn alibaba(duration: SimDuration, seed: u64) -> Self {
        Self::new("bursts", &BurstyProfile::alibaba_like(), duration, seed)
    }
}

impl ArrivalProcess for CorrelatedBursts {
    fn name(&self) -> &str {
        self.label
    }
    fn peak(&self) -> f64 {
        self.peak
    }
    fn intensity(&self, at: SimTime) -> f64 {
        // First segment whose end lies strictly after `at` holds it.
        let i = self.segments.partition_point(|&(end, _)| end <= at);
        self.segments.get(i).map_or(0.0, |&(_, mult)| mult)
    }
}

/// Serverless cold-start storm (Azure-like): a low idle baseline
/// punctuated by short, violent invocation storms. Storm starts form a
/// Poisson chain, widths are exponential, and each storm's height is
/// drawn in `[0.5, 1.5] × storm_mult`; storms never overlap (the next
/// gap starts where the previous storm ended). The schedule is
/// pre-drawn at construction from `seed`.
#[derive(Clone, Debug)]
pub struct ColdStartStorm {
    /// Baseline multiplier between storms (keep-warm trickle).
    pub idle: f64,
    /// `(start, end, added multiplier)` per storm, ascending, disjoint.
    storms: Vec<(SimTime, SimTime, f64)>,
    peak: f64,
}

impl ColdStartStorm {
    /// Draws a storm schedule over `duration`: mean `gap` between
    /// storms, mean `width` per storm, height around `storm_mult`.
    pub fn new(
        duration: SimDuration,
        seed: u64,
        idle: f64,
        gap: SimDuration,
        width: SimDuration,
        storm_mult: f64,
    ) -> Self {
        let mut rng = SimRng::seed(seed ^ OPENLOOP_STREAM_SALT).fork(0xC01D);
        let end = SimTime::ZERO + duration;
        let mut storms = Vec::new();
        let mut t = SimTime::ZERO;
        let mut peak = idle;
        loop {
            t += SimDuration::from_micros_f64(rng.exponential(gap.as_micros_f64()));
            if t >= end {
                break;
            }
            let w = SimDuration::from_micros_f64(rng.exponential(width.as_micros_f64()));
            let stop = (t + w).min(end);
            let mult = storm_mult * rng.uniform_range(0.5, 1.5);
            peak = peak.max(idle + mult);
            storms.push((t, stop, mult));
            t = stop;
        }
        ColdStartStorm { idle, storms, peak }
    }

    /// Azure-like defaults for one run: 10% idle trickle, storms
    /// covering ~1/4 of the run at ~8× the mean rate.
    pub fn azure(duration: SimDuration, seed: u64) -> Self {
        let gap = SimDuration::from_picos(duration.as_picos() / 12);
        let width = SimDuration::from_picos(duration.as_picos() / 36);
        Self::new(duration, seed, 0.1, gap, width, 8.0)
    }
}

impl ArrivalProcess for ColdStartStorm {
    fn name(&self) -> &str {
        "coldstart"
    }
    fn peak(&self) -> f64 {
        self.peak
    }
    fn intensity(&self, at: SimTime) -> f64 {
        // Storms are few (dozens); a scan is cheaper than it looks and
        // partition_point over starts needs the same memory touch.
        let i = self.storms.partition_point(|&(start, _, _)| start <= at);
        if i > 0 {
            let (_, stop, mult) = self.storms[i - 1];
            if at < stop {
                return self.idle + mult;
            }
        }
        self.idle
    }
}

/// Product of two processes: `λ(t) = a(t) × b(t)` — e.g. a diurnal
/// envelope modulating sub-second correlated bursts, the full
/// Alibaba-trace shape.
#[derive(Clone, Debug)]
pub struct Modulated<A, B> {
    label: String,
    /// Outer (slow) envelope.
    pub a: A,
    /// Inner (fast) modulation.
    pub b: B,
}

impl<A: ArrivalProcess, B: ArrivalProcess> Modulated<A, B> {
    /// Composes two processes by pointwise product.
    pub fn new(a: A, b: B) -> Self {
        let label = format!("{}*{}", a.name(), b.name());
        Modulated { label, a, b }
    }
}

impl<A: ArrivalProcess, B: ArrivalProcess> ArrivalProcess for Modulated<A, B> {
    fn name(&self) -> &str {
        &self.label
    }
    fn peak(&self) -> f64 {
        self.a.peak() * self.b.peak()
    }
    fn intensity(&self, at: SimTime) -> f64 {
        self.a.intensity(at) * self.b.intensity(at)
    }
}

/// Generates the time-sorted open-loop arrival list for a service mix:
/// a non-homogeneous Poisson stream per service with intensity
/// `mean_rps × process.intensity(t)`, drawn by thinning on forked
/// per-service streams off `seed ^ OPENLOOP_STREAM_SALT`.
///
/// Byte-identical per `(process, services, mean_rps, duration, seed)`.
/// `_timing` is ignored.
///
/// # Panics
///
/// Panics if `process.peak()` is not positive.
pub fn openloop_arrivals(
    process: &dyn ArrivalProcess,
    services: &[ServiceSpec],
    lib: &TraceLibrary,
    _timing: &ServiceTimeModel,
    mean_rps: f64,
    duration: SimDuration,
    seed: u64,
) -> Vec<Arrival> {
    let peak = process.peak();
    assert!(peak > 0.0, "ArrivalProcess::peak() must be positive");
    // Candidates come at the constant envelope rate `mean_rps × peak`.
    let segments = [(SimTime::ZERO + duration, peak)];
    let master = SimRng::seed(seed ^ OPENLOOP_STREAM_SALT);
    // Lewis–Shedler thinning: keep a candidate with probability
    // λ(t)/peak. The accept draw is consumed for every candidate, so the
    // kept instants do not depend on how loose the envelope is.
    let thin = |at, rng: &mut SimRng| rng.uniform() < (process.intensity(at) / peak).min(1.0);
    let sample = fresh_programs(services, lib);
    draw_arrivals(services, mean_rps, &segments, master, thin, sample)
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

    fn gen(process: &dyn ArrivalProcess, rps: f64, ms: u64, seed: u64) -> Vec<Arrival> {
        let (lib, timing) = fixtures();
        let services = vec![socialnetwork::uniq_id(), socialnetwork::login()];
        openloop_arrivals(
            process,
            &services,
            &lib,
            &timing,
            rps,
            SimDuration::from_millis(ms),
            seed,
        )
    }

    #[test]
    fn steady_matches_requested_mean() {
        let arr = gen(&Steady, 1_000.0, 2_000, 11);
        // 2 services × 1000 rps × 2 s = 4000 expected.
        let rate = arr.len() as f64 / 2.0 / 2.0;
        assert!((rate - 1_000.0).abs() / 1_000.0 < 0.1, "rate {rate}");
    }

    #[test]
    fn diurnal_keeps_unit_mean_and_shapes_the_day() {
        let dur = SimDuration::from_millis(2_000);
        let process = Diurnal::day(dur, 0.8);
        let arr = gen(&process, 1_000.0, 2_000, 3);
        let rate = arr.len() as f64 / 2.0 / 2.0;
        assert!((rate - 1_000.0).abs() / 1_000.0 < 0.1, "rate {rate}");
        // Midday half must carry clearly more than the overnight half.
        let mid = SimTime::ZERO + SimDuration::from_millis(500);
        let late = SimTime::ZERO + SimDuration::from_millis(1_500);
        let peak_half = arr.iter().filter(|a| a.at >= mid && a.at < late).count();
        let trough_half = arr.len() - peak_half;
        assert!(
            peak_half as f64 > 1.5 * trough_half as f64,
            "peak {peak_half} vs trough {trough_half}"
        );
    }

    #[test]
    fn flash_crowd_concentrates_after_start() {
        let dur = SimDuration::from_millis(800);
        let process = FlashCrowd::for_run(dur, 6.0);
        let arr = gen(&process, 500.0, 800, 17);
        let start = SimTime::ZERO + process.start;
        let crowd_end = start + process.ramp + process.decay;
        let before_rate =
            arr.iter().filter(|a| a.at < start).count() as f64 / process.start.as_secs_f64();
        let crowd_rate = arr
            .iter()
            .filter(|a| a.at >= start && a.at < crowd_end)
            .count() as f64
            / (process.ramp + process.decay).as_secs_f64();
        assert!(
            crowd_rate > 2.0 * before_rate,
            "crowd {crowd_rate}/s vs before {before_rate}/s"
        );
    }

    #[test]
    fn correlated_bursts_are_overdispersed_and_correlated() {
        let dur = SimDuration::from_millis(500);
        let process = CorrelatedBursts::alibaba(dur, 23);
        let arr = gen(&process, 2_000.0, 500, 23);
        let bucket = SimDuration::from_millis(10);
        let buckets = (dur.as_picos() / bucket.as_picos()) as usize;
        // Dispersion per service, and cross-service correlation of
        // bucket counts (both services ride one timeline).
        let mut counts = vec![[0f64; 2]; buckets];
        for a in &arr {
            let b = ((a.at.as_picos()) / bucket.as_picos()) as usize;
            counts[b.min(buckets - 1)][a.service.0.min(1)] += 1.0;
        }
        for svc in 0..2 {
            let col: Vec<f64> = counts.iter().map(|c| c[svc]).collect();
            let mean = col.iter().sum::<f64>() / col.len() as f64;
            let var = col.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / col.len() as f64;
            assert!(var / mean > 2.0, "dispersion {} for svc {svc}", var / mean);
        }
        let (mx, my) = (
            counts.iter().map(|c| c[0]).sum::<f64>() / buckets as f64,
            counts.iter().map(|c| c[1]).sum::<f64>() / buckets as f64,
        );
        let cov = counts
            .iter()
            .map(|c| (c[0] - mx) * (c[1] - my))
            .sum::<f64>();
        let (vx, vy) = (
            counts.iter().map(|c| (c[0] - mx).powi(2)).sum::<f64>(),
            counts.iter().map(|c| (c[1] - my).powi(2)).sum::<f64>(),
        );
        let corr = cov / (vx * vy).sqrt();
        assert!(corr > 0.5, "cross-service burst correlation {corr}");
    }

    #[test]
    fn cold_start_storms_leave_idle_valleys() {
        let dur = SimDuration::from_millis(1_000);
        let process = ColdStartStorm::azure(dur, 31);
        let arr = gen(&process, 2_000.0, 1_000, 31);
        assert!(!arr.is_empty());
        // At a 0.1× idle baseline most 5ms buckets should be
        // near-empty while storm buckets overflow.
        let bucket = SimDuration::from_millis(5);
        let buckets = (dur.as_picos() / bucket.as_picos()) as usize;
        let mut counts = vec![0u64; buckets];
        for a in &arr {
            counts[((a.at.as_picos() / bucket.as_picos()) as usize).min(buckets - 1)] += 1;
        }
        let idle_per_bucket = 2.0 * 2_000.0 * 0.1 * bucket.as_secs_f64();
        let quiet = counts
            .iter()
            .filter(|&&c| (c as f64) < 4.0 * idle_per_bucket)
            .count();
        let max = *counts.iter().max().unwrap() as f64;
        assert!(
            quiet * 2 > buckets,
            "expected mostly-idle valleys, quiet {quiet}/{buckets}"
        );
        assert!(
            max > 10.0 * idle_per_bucket.max(1.0),
            "expected violent storms, max bucket {max}"
        );
    }

    #[test]
    fn modulated_composes_envelopes() {
        let dur = SimDuration::from_millis(400);
        let process = Modulated::new(Diurnal::day(dur, 0.5), CorrelatedBursts::alibaba(dur, 5));
        assert_eq!(process.name(), "diurnal*bursts");
        let mid = SimTime::ZERO + SimDuration::from_picos(dur.as_picos() / 2);
        assert!(process.peak() >= process.intensity(mid));
        let arr = gen(&process, 1_000.0, 400, 5);
        assert!(!arr.is_empty());
    }

    #[test]
    fn every_generator_is_seed_deterministic() {
        let dur = SimDuration::from_millis(300);
        let procs: Vec<Box<dyn ArrivalProcess>> = vec![
            Box::new(Steady),
            Box::new(Diurnal::day(dur, 0.7)),
            Box::new(FlashCrowd::for_run(dur, 5.0)),
            Box::new(CorrelatedBursts::alibaba(dur, 77)),
            Box::new(ColdStartStorm::azure(dur, 77)),
        ];
        for p in &procs {
            let a = gen(p.as_ref(), 800.0, 300, 77);
            let b = gen(p.as_ref(), 800.0, 300, 77);
            assert_eq!(a.len(), b.len(), "{}", p.name());
            assert!(
                a.iter()
                    .zip(&b)
                    .all(|(x, y)| x.at == y.at && x.service == y.service),
                "{} not deterministic",
                p.name()
            );
            let c = gen(p.as_ref(), 800.0, 300, 78);
            assert!(
                a.len() != c.len() || a.iter().zip(&c).any(|(x, y)| x.at != y.at),
                "{} ignores its seed",
                p.name()
            );
        }
    }
}
