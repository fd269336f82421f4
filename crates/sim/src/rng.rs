//! Seeded randomness and the distributions used by the workload
//! generators.
//!
//! Every stochastic element of the reproduction (arrival processes,
//! payload sizes, branch outcomes, app-logic variability) draws from a
//! [`SimRng`] seeded explicitly, so experiments are reproducible and
//! comparable across orchestration policies (common random numbers).
//!
//! The generator is a self-contained xoshiro256++ (the algorithm behind
//! `rand`'s 64-bit `SmallRng`), seeded through SplitMix64 exactly as
//! `SmallRng::seed_from_u64` does, with the same `u64 -> f64` and
//! bounded-integer mappings `rand` 0.8 used. Streams are therefore
//! bit-identical to the `rand`-backed original while the crate stays
//! dependency-free (the build environment has no package registry).

/// The simulation's random-number generator.
///
/// A thin wrapper over a small, fast, seedable PRNG plus the inverse-CDF
/// samplers the workloads need.
///
/// # Example
///
/// ```
/// use accelflow_sim::rng::SimRng;
///
/// let mut rng = SimRng::seed(42);
/// let x = rng.exponential(1000.0); // mean-1000 exponential
/// assert!(x > 0.0);
/// // Same seed, same stream.
/// assert_eq!(SimRng::seed(42).exponential(1000.0), x);
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed (SplitMix64 expansion,
    /// matching `SmallRng::seed_from_u64`).
    pub fn seed(seed: u64) -> Self {
        const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut state = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            state = state.wrapping_add(PHI);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *word = z ^ (z >> 31);
        }
        SimRng { s }
    }

    /// The raw xoshiro256++ step.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Derives an independent child stream; useful to give each service
    /// or component its own stream while staying reproducible.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed(s)
    }

    /// Uniform in `[0, 1)` (53 random mantissa bits).
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty uniform range");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` (widening-multiply with rejection,
    /// the exact sampler `rand` 0.8 used for `gen_range(0..n)`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        let range = n as u64;
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let v = self.next_u64();
            let m = (v as u128) * (range as u128);
            let lo = m as u64;
            if lo <= zone {
                return (m >> 64) as usize;
            }
        }
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Exponential with the given mean (inverse-CDF method). Used for
    /// Poisson inter-arrival times.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive"
        );
        let u = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Standard normal via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal parameterized by the *median* and the shape `sigma`
    /// (the std-dev of the underlying normal). Payload sizes in the
    /// paper are "a few KB median with a long tail" (Fig 5 / §III Q3);
    /// log-normal matches that shape.
    ///
    /// # Panics
    ///
    /// Panics if `median` is not positive or `sigma` is negative.
    pub fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        assert!(
            median.is_finite() && median > 0.0,
            "log-normal median must be positive"
        );
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "log-normal sigma must be non-negative"
        );
        (median.ln() + sigma * self.standard_normal()).exp()
    }

    /// Bounded Pareto on `[lo, hi]` with shape `alpha`; used for
    /// heavy-tailed serverless execution times.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not `0 < lo < hi` or `alpha <= 0`.
    pub fn bounded_pareto(&mut self, lo: f64, hi: f64, alpha: f64) -> f64 {
        assert!(lo > 0.0 && lo < hi, "bounded pareto needs 0 < lo < hi");
        assert!(alpha > 0.0, "bounded pareto needs alpha > 0");
        let u = self.uniform();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }

    /// Samples one entry of `weights` proportionally to its value.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "weights must be non-empty and positive"
        );
        let mut x = self.uniform() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

crate::impl_snapshot! { struct SimRng { s } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn matches_reference_vectors() {
        // First outputs of xoshiro256++ seeded via SplitMix64(0),
        // exactly what `SmallRng::seed_from_u64(0)` produced under
        // rand 0.8. Guards the stream against accidental algorithm
        // drift (every calibrated threshold in the repo depends on it).
        let mut r = SimRng::seed(0);
        let expect: [u64; 4] = {
            // Independently recompute from the published constants.
            const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
            let mut state = 0u64;
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(PHI);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            let mut out = [0u64; 4];
            for o in &mut out {
                let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
                let t = s[1] << 17;
                s[2] ^= s[0];
                s[3] ^= s[1];
                s[1] ^= s[2];
                s[0] ^= s[3];
                s[2] ^= t;
                s[3] = s[3].rotate_left(45);
                *o = result;
            }
            out
        };
        for e in expect {
            assert_eq!(r.next_u64(), e);
        }
    }

    #[test]
    fn index_is_unbiased_at_small_n() {
        let mut rng = SimRng::seed(11);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[rng.index(5)] += 1;
        }
        for c in counts {
            let frac = c as f64 / 50_000.0;
            assert!((frac - 0.2).abs() < 0.01, "frac {frac}");
        }
    }

    #[test]
    fn fork_is_independent_but_deterministic() {
        let mut parent1 = SimRng::seed(1);
        let mut parent2 = SimRng::seed(1);
        let mut c1 = parent1.fork(99);
        let mut c2 = parent2.fork(99);
        assert_eq!(c1.uniform().to_bits(), c2.uniform().to_bits());
        let mut c3 = parent1.fork(99); // second fork: different stream
        assert_ne!(c1.uniform().to_bits(), c3.uniform().to_bits());
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed(3);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(50.0)).sum::<f64>() / n as f64;
        assert!((mean - 50.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn log_normal_median_is_close() {
        let mut rng = SimRng::seed(4);
        let mut xs: Vec<f64> = (0..100_001).map(|_| rng.log_normal(2048.0, 0.8)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median / 2048.0 - 1.0).abs() < 0.05, "median {median}");
    }

    #[test]
    fn bounded_pareto_respects_bounds() {
        let mut rng = SimRng::seed(5);
        for _ in 0..10_000 {
            let x = rng.bounded_pareto(1.0, 100.0, 1.2);
            assert!((1.0..=100.0).contains(&x), "out of bounds: {x}");
        }
    }

    #[test]
    fn weighted_index_tracks_weights() {
        let mut rng = SimRng::seed(6);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.weighted_index(&[1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let frac = counts[2] as f64 / 30_000.0;
        assert!((frac - 0.7).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(rng.chance(2.0)); // clamped
    }

    #[test]
    #[should_panic(expected = "empty uniform range")]
    fn uniform_range_rejects_empty() {
        SimRng::seed(0).uniform_range(2.0, 1.0);
    }
}
