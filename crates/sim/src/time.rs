//! Simulated time with picosecond resolution.
//!
//! All simulated quantities are integers (picoseconds), so arithmetic is
//! exact and runs are reproducible regardless of evaluation order. One
//! CPU cycle at the paper's 2.4 GHz is ~417 ps, so the rounding error of
//! a cycle→duration conversion is below 0.1% and does not accumulate
//! (conversions always start from a cycle count, never chain).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, measured in picoseconds since the start
/// of the simulation.
///
/// `SimTime` is ordered and copyable; subtracting two instants yields a
/// [`SimDuration`].
///
/// # Example
///
/// ```
/// use accelflow_sim::time::{SimDuration, SimTime};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_micros(3);
/// assert_eq!(t1 - t0, SimDuration::from_nanos(3000));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from raw picoseconds since simulation start.
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Raw picoseconds since simulation start.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Microseconds since simulation start, as a float (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

/// A span of simulated time, measured in picoseconds.
///
/// # Example
///
/// ```
/// use accelflow_sim::time::SimDuration;
///
/// let d = SimDuration::from_nanos(10) * 3;
/// assert_eq!(d.as_nanos_f64(), 30.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the
    /// nearest picosecond. Negative or non-finite inputs yield zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * 1e12).round() as u64)
    }

    /// Creates a duration from fractional microseconds, rounding to the
    /// nearest picosecond. Negative or non-finite inputs yield zero.
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_secs_f64(us / 1e6)
    }

    /// Raw picoseconds.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// Nanoseconds, as a float.
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Microseconds, as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: `self - other`, or zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.1}ns", self.0 as f64 / 1e3)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration((self.0 as f64 * rhs).round() as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// A clock frequency, used to convert cycle counts into durations.
///
/// # Example
///
/// ```
/// use accelflow_sim::time::Frequency;
///
/// let clk = Frequency::from_ghz(2.4);
/// // 2400 cycles at 2.4 GHz is exactly 1 microsecond.
/// assert_eq!(clk.cycles(2400.0).as_micros_f64(), 1.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct Frequency {
    hz: f64,
}

impl Frequency {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not finite and positive.
    pub fn from_hz(hz: f64) -> Self {
        assert!(hz.is_finite() && hz > 0.0, "frequency must be positive");
        Frequency { hz }
    }

    /// Creates a frequency from gigahertz.
    pub fn from_ghz(ghz: f64) -> Self {
        Self::from_hz(ghz * 1e9)
    }

    /// The frequency in gigahertz.
    pub fn as_ghz(self) -> f64 {
        self.hz / 1e9
    }

    /// The duration of `n` clock cycles, rounded to the nearest
    /// picosecond. Negative cycle counts yield zero.
    pub fn cycles(self, n: f64) -> SimDuration {
        if n <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_picos((n * 1e12 / self.hz).round() as u64)
    }

    /// The duration of one clock cycle.
    pub fn cycle(self) -> SimDuration {
        self.cycles(1.0)
    }

    /// How many cycles (fractional) fit into `d`.
    pub fn cycles_in(self, d: SimDuration) -> f64 {
        d.as_secs_f64() * self.hz
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}GHz", self.as_ghz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::ZERO + SimDuration::from_micros(5) + SimDuration::from_nanos(250);
        assert_eq!(t.as_picos(), 5_250_000);
        assert_eq!(t - SimTime::ZERO, SimDuration::from_picos(5_250_000));
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
        assert_eq!(
            SimDuration::from_micros_f64(1.5),
            SimDuration::from_nanos(1500)
        );
    }

    #[test]
    fn duration_from_float_clamps_bad_input() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn saturating_ops() {
        let a = SimDuration::from_nanos(5);
        let b = SimDuration::from_nanos(9);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a), SimDuration::from_nanos(4));
        let t = SimTime::from_picos(100);
        assert_eq!(
            t.saturating_since(SimTime::from_picos(400)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn frequency_cycle_conversion() {
        let f = Frequency::from_ghz(2.4);
        assert_eq!(f.cycles(2400.0), SimDuration::from_micros(1));
        assert_eq!(f.cycles(0.0), SimDuration::ZERO);
        assert_eq!(f.cycles(-5.0), SimDuration::ZERO);
        let d = f.cycles(36.0);
        assert!((f.cycles_in(d) - 36.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn frequency_rejects_zero() {
        let _ = Frequency::from_hz(0.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12.0ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Frequency::from_ghz(2.4)), "2.40GHz");
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_nanos(100);
        assert_eq!(d * 3u64, SimDuration::from_nanos(300));
        assert_eq!(d * 0.5f64, SimDuration::from_nanos(50));
        assert_eq!(d / 4, SimDuration::from_nanos(25));
        let total: SimDuration = vec![d, d, d].into_iter().sum();
        assert_eq!(total, SimDuration::from_nanos(300));
    }
}
