//! Streaming statistics for simulation output.
//!
//! The evaluation reports P99 tail latency, average latency, throughput,
//! utilization, and event counters. This module provides:
//!
//! - [`Histogram`] — a log-bucketed (HDR-style) histogram over `u64`
//!   values (we record latencies in picoseconds) with ~1% relative
//!   error at any magnitude, O(1) record, and exact count/sum.
//! - [`BusyTracker`] — accumulates busy time of a server to report
//!   utilization.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Number of linear sub-buckets per power-of-two bucket. 64 sub-buckets
/// give a worst-case relative error of 1/64 ≈ 1.6%.
const SUB_BUCKET_BITS: u32 = 6;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// A log-bucketed histogram of `u64` samples.
///
/// Values are grouped into power-of-two ranges, each split into 64
/// linear sub-buckets, bounding relative error at ~1.6% — more than
/// enough resolution for latency percentiles.
///
/// # Example
///
/// ```
/// use accelflow_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.percentile(50.0);
/// assert!((p50 as f64 - 500.0).abs() / 500.0 < 0.05);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_of(value: u64) -> usize {
        // Values below SUB_BUCKETS map 1:1 into the first SUB_BUCKETS
        // slots; above that, each power-of-two range contributes
        // SUB_BUCKETS slots addressed by the top SUB_BUCKET_BITS bits
        // below the leading one.
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BUCKET_BITS;
        let sub = ((value >> shift) as usize) & (SUB_BUCKETS - 1);
        let range = (msb - SUB_BUCKET_BITS + 1) as usize;
        range * SUB_BUCKETS + sub
    }

    fn value_of(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let range = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        let shift = (range - 1) as u32;
        // Midpoint-ish representative: top of the sub-bucket.
        ((SUB_BUCKETS as u64 + sub) << shift) + (1u64 << shift) - 1
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = Self::index_of(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a [`SimDuration`] sample (stored as picoseconds).
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_picos());
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean of the recorded samples, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The smallest recorded sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// The largest recorded sample (exact), or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at the given percentile (0–100), within ~1.6% relative
    /// error. Returns 0 for an empty histogram. `p = 0` is the exact
    /// minimum and `p = 100` the exact maximum.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if self.count == 0 {
            return 0;
        }
        if p == 0.0 {
            // The rank formula below floors at rank 1, which is p~ε,
            // not p0: a histogram of {1, 1000} must report p0 = 1 even
            // though bucket resolution would round rank 1 upward.
            return self.min;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value_of(idx).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Mean as a [`SimDuration`] (interpreting samples as picoseconds).
    pub fn mean_duration(&self) -> SimDuration {
        SimDuration::from_picos(self.mean().round() as u64)
    }

    /// Percentile as a [`SimDuration`] (interpreting samples as
    /// picoseconds).
    pub fn percentile_duration(&self, p: f64) -> SimDuration {
        SimDuration::from_picos(self.percentile(p))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p99={} max={}",
            self.count,
            self.mean(),
            self.percentile(50.0),
            self.percentile(99.0),
            self.max()
        )
    }
}

/// Accumulates the busy time of a single logical server, for
/// utilization reporting.
///
/// # Example
///
/// ```
/// use accelflow_sim::stats::BusyTracker;
/// use accelflow_sim::time::{SimDuration, SimTime};
///
/// let mut b = BusyTracker::new();
/// b.add_busy(SimDuration::from_micros(30));
/// let util = b.utilization(SimTime::ZERO + SimDuration::from_micros(100));
/// assert!((util - 0.3).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct BusyTracker {
    busy: SimDuration,
}

impl BusyTracker {
    /// Creates a tracker with no accumulated busy time.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a span of busy time.
    pub fn add_busy(&mut self, d: SimDuration) {
        self.busy += d;
    }

    /// Total accumulated busy time.
    pub fn busy(&self) -> SimDuration {
        self.busy
    }

    /// Busy fraction of the window `[0, now]`; 0.0 when `now` is zero.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let total = now.as_picos();
        if total == 0 {
            0.0
        } else {
            (self.busy.as_picos() as f64 / total as f64).min(1.0)
        }
    }
}

crate::impl_snapshot! { struct Histogram { buckets, count, sum, min, max } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_accurate() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9] {
            let expect = p / 100.0 * 100_000.0;
            let got = h.percentile(p) as f64;
            assert!(
                (got - expect).abs() / expect < 0.02,
                "p{p}: got {got}, expected {expect}"
            );
        }
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100_000);
        assert!((h.mean() - 50_000.5).abs() < 1.0);
    }

    #[test]
    fn histogram_handles_small_and_zero() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(100.0), 2);
    }

    #[test]
    fn histogram_large_values() {
        let mut h = Histogram::new();
        let big = 3_000_000_000_000u64; // 3 seconds in ps
        h.record(big);
        let p = h.percentile(50.0);
        assert!((p as f64 / big as f64 - 1.0).abs() < 0.02, "got {p}");
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in 0..1000u64 {
            if v % 2 == 0 {
                a.record(v * 17);
            } else {
                b.record(v * 17);
            }
            both.record(v * 17);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.max(), both.max());
        assert_eq!(a.percentile(99.0), both.percentile(99.0));
        assert_eq!(a.mean(), both.mean());
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn percentile_range_checked() {
        Histogram::new().percentile(101.0);
    }

    /// Sorted-vec reference: exact p0/p100, nearest-rank interior.
    fn oracle(sorted: &[u64], p: f64) -> u64 {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    #[test]
    fn percentile_edges_match_sorted_oracle() {
        // Regression: p0 used to floor the rank at 1, returning p~ε
        // instead of the minimum — {1, 1000} reported p0 ≈ 1000.
        let mut h = Histogram::new();
        h.record(1);
        h.record(1000);
        assert_eq!(h.percentile(0.0), 1, "p0 must be the minimum");
        assert_eq!(h.percentile(100.0), 1000);

        let mut rng = crate::rng::SimRng::seed(0x5EED);
        let mut values: Vec<u64> = (0..5_000)
            .map(|_| rng.uniform_range(1.0, 1e10) as u64)
            .collect();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        assert_eq!(h.percentile(0.0), values[0], "p0 == exact min");
        assert_eq!(
            h.percentile(100.0),
            *values.last().unwrap(),
            "p100 == exact max"
        );
        for p in [10.0, 50.0, 90.0, 99.0] {
            let want = oracle(&values, p) as f64;
            let got = h.percentile(p) as f64;
            assert!(
                (got - want).abs() / want < 0.02,
                "p{p}: got {got}, oracle {want}"
            );
        }
    }

    /// Metamorphic check: merging N partial histograms must equal one
    /// histogram of the concatenated stream — exactly for count, sum,
    /// mean, min, max, and every percentile (identical bucket arrays).
    #[test]
    fn merge_is_metamorphic_over_partitions() {
        let mut rng = crate::rng::SimRng::seed(0xACC0);
        let values: Vec<u64> = (0..4_000)
            .map(|_| {
                // Mixed magnitudes: sub-bucket linear range up to ~1e12.
                let exp = rng.uniform_range(0.0, 12.0);
                10f64.powf(exp) as u64
            })
            .collect();
        for parts in [2usize, 3, 7] {
            let mut partials = vec![Histogram::new(); parts];
            let mut whole = Histogram::new();
            for (i, &v) in values.iter().enumerate() {
                partials[i % parts].record(v);
                whole.record(v);
            }
            let mut merged = Histogram::new();
            for p in &partials {
                merged.merge(p);
            }
            assert_eq!(merged.count(), whole.count());
            assert_eq!(merged.min(), whole.min());
            assert_eq!(merged.max(), whole.max());
            assert_eq!(merged.mean(), whole.mean(), "sums must match exactly");
            for p in [0.0, 1.0, 25.0, 50.0, 75.0, 99.0, 99.9, 100.0] {
                assert_eq!(
                    merged.percentile(p),
                    whole.percentile(p),
                    "p{p} diverged with {parts} partitions"
                );
            }
        }
    }

    #[test]
    fn merge_disjoint_ranges_and_bucket_counts() {
        // `a` only has small values (short bucket array); `b` only huge
        // ones (long bucket array). Merge in both directions and check
        // against recording the concatenated stream.
        let small: Vec<u64> = (1..=100).collect();
        let huge: Vec<u64> = (1..=100).map(|v| v * 1_000_000_000).collect();
        let build = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let mut whole = Histogram::new();
        for &v in small.iter().chain(huge.iter()) {
            whole.record(v);
        }
        for (first, second) in [(&small, &huge), (&huge, &small)] {
            let mut m = build(first);
            m.merge(&build(second));
            assert_eq!(m.count(), whole.count());
            assert_eq!(m.mean(), whole.mean());
            assert_eq!(m.percentile(0.0), 1, "global min survives merge");
            assert_eq!(m.percentile(100.0), 100_000_000_000);
            for p in [10.0, 50.0, 90.0] {
                assert_eq!(m.percentile(p), whole.percentile(p));
            }
        }
    }

    #[test]
    fn busy_tracker_utilization() {
        let mut b = BusyTracker::new();
        b.add_busy(SimDuration::from_micros(25));
        b.add_busy(SimDuration::from_micros(25));
        let now = SimTime::ZERO + SimDuration::from_micros(200);
        assert!((b.utilization(now) - 0.25).abs() < 1e-12);
        assert_eq!(b.utilization(SimTime::ZERO), 0.0);
        assert_eq!(b.busy(), SimDuration::from_micros(50));
    }

    #[test]
    fn duration_recording_roundtrip() {
        let mut h = Histogram::new();
        h.record_duration(SimDuration::from_micros(100));
        let p = h.percentile_duration(50.0);
        assert!((p.as_micros_f64() - 100.0).abs() / 100.0 < 0.02);
        assert!((h.mean_duration().as_micros_f64() - 100.0).abs() < 1e-6);
    }
}

/// Time-bucketed samples for time-series diagnostics: values recorded
/// at instants are grouped into fixed-width buckets, each summarizable
/// by count, mean, or percentile.
///
/// # Example
///
/// ```
/// use accelflow_sim::stats::TimeSeries;
/// use accelflow_sim::time::{SimDuration, SimTime};
///
/// let mut ts = TimeSeries::new(SimDuration::from_millis(1), SimDuration::from_millis(10));
/// ts.record(SimTime::from_picos(500_000_000), 42); // 0.5 ms
/// ts.record(SimTime::from_picos(1_500_000_000), 7); // 1.5 ms
/// assert_eq!(ts.buckets(), 10);
/// assert_eq!(ts.count(0), 1);
/// assert_eq!(ts.percentile(1, 50.0), Some(7));
/// ```
#[derive(Clone, Debug)]
pub struct TimeSeries {
    bucket: SimDuration,
    data: Vec<Vec<u64>>,
    clamped: u64,
}

impl TimeSeries {
    /// Creates a series covering `[0, span)` with the given bucket
    /// width. Samples beyond the span land in the last bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero or wider than `span`.
    pub fn new(bucket: SimDuration, span: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        assert!(
            bucket.as_picos() <= span.as_picos(),
            "bucket wider than span"
        );
        let buckets = span.as_picos().div_ceil(bucket.as_picos()) as usize;
        TimeSeries {
            bucket,
            data: vec![Vec::new(); buckets],
            clamped: 0,
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.data.len()
    }

    /// Records a sample at instant `at`. Samples past the configured
    /// span are folded into the last bucket and counted in
    /// [`clamped`](TimeSeries::clamped).
    pub fn record(&mut self, at: SimTime, value: u64) {
        let idx = (at.as_picos() / self.bucket.as_picos()) as usize;
        if idx >= self.data.len() {
            self.clamped += 1;
        }
        let idx = idx.min(self.data.len() - 1);
        self.data[idx].push(value);
    }

    /// Samples that fell past the configured span and were folded into
    /// the last bucket. A non-zero value means that bucket mixes
    /// in-window and out-of-window data — the distortion is counted
    /// here rather than happening silently.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Samples in bucket `i`.
    pub fn count(&self, i: usize) -> usize {
        self.data[i].len()
    }

    /// Mean of bucket `i`, or `None` if empty.
    pub fn mean(&self, i: usize) -> Option<f64> {
        let v = &self.data[i];
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<u64>() as f64 / v.len() as f64)
        }
    }

    /// Percentile `p` (0–100) of bucket `i`, or `None` if empty.
    pub fn percentile(&self, i: usize, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        let v = &self.data[i];
        if v.is_empty() {
            return None;
        }
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank])
    }

    /// Renders one character per bucket, scaled to the series maximum,
    /// using the provided glyph ramp (e.g. `['.', ':', '|', '#']`).
    pub fn sparkline(&self, ramp: &[char], stat: impl Fn(&TimeSeries, usize) -> f64) -> String {
        assert!(!ramp.is_empty(), "ramp must be non-empty");
        let values: Vec<f64> = (0..self.buckets()).map(|i| stat(self, i)).collect();
        let max = values.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
        values
            .iter()
            .map(|&v| {
                let idx = ((v / max) * (ramp.len() - 1) as f64).round() as usize;
                ramp[idx.min(ramp.len() - 1)]
            })
            .collect()
    }
}

#[cfg(test)]
mod timeseries_tests {
    use super::*;

    fn series() -> TimeSeries {
        TimeSeries::new(SimDuration::from_millis(1), SimDuration::from_millis(5))
    }

    #[test]
    fn buckets_partition_time() {
        let mut ts = series();
        assert_eq!(ts.buckets(), 5);
        for ms in 0..5u64 {
            ts.record(
                SimTime::ZERO + SimDuration::from_micros(ms * 1000 + 500),
                ms,
            );
        }
        for i in 0..5 {
            assert_eq!(ts.count(i), 1, "bucket {i}");
            assert_eq!(ts.mean(i), Some(i as f64));
        }
    }

    #[test]
    fn overflow_lands_in_last_bucket() {
        let mut ts = series();
        ts.record(SimTime::ZERO + SimDuration::from_millis(99), 7);
        assert_eq!(ts.count(4), 1);
    }

    #[test]
    fn overflow_clamps_are_counted_not_silent() {
        // Regression: out-of-span samples used to fold into the last
        // bucket with no trace that its data was distorted.
        let mut ts = series();
        ts.record(SimTime::ZERO + SimDuration::from_millis(2), 1);
        assert_eq!(ts.clamped(), 0);
        ts.record(SimTime::ZERO + SimDuration::from_millis(99), 7);
        ts.record(SimTime::ZERO + SimDuration::from_millis(5), 8);
        assert_eq!(ts.clamped(), 2, "both out-of-span samples counted");
        // Landing exactly in the last bucket is not a clamp.
        ts.record(SimTime::ZERO + SimDuration::from_micros(4_500), 9);
        assert_eq!(ts.clamped(), 2);
    }

    #[test]
    fn percentiles_per_bucket() {
        let mut ts = series();
        for v in 1..=100u64 {
            ts.record(SimTime::ZERO, v);
        }
        assert_eq!(ts.percentile(0, 0.0), Some(1));
        assert_eq!(ts.percentile(0, 100.0), Some(100));
        let p50 = ts.percentile(0, 50.0).unwrap();
        assert!((49..=52).contains(&p50), "{p50}");
        assert_eq!(ts.percentile(1, 50.0), None);
    }

    #[test]
    fn sparkline_scales_to_max() {
        let mut ts = series();
        ts.record(SimTime::ZERO, 1);
        ts.record(SimTime::ZERO + SimDuration::from_millis(2), 10);
        let art = ts.sparkline(&['.', '#'], |t, i| t.mean(i).unwrap_or(0.0));
        assert_eq!(art.len(), 5);
        assert_eq!(art.chars().nth(2), Some('#'));
        assert_eq!(art.chars().next(), Some('.'));
    }

    #[test]
    #[should_panic(expected = "bucket width must be positive")]
    fn zero_bucket_rejected() {
        let _ = TimeSeries::new(SimDuration::ZERO, SimDuration::from_millis(1));
    }
}
