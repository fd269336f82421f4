//! Availability state for a set of hardware units.
//!
//! The fault injector (see `accelflow-core::faults`) marks accelerator
//! stations *dark* for drawn durations — a transient hang, a microcode
//! assist, a thermal trip. This tracker owns the per-unit dark-until
//! timestamps and the cumulative dark-time meter so the machine and
//! the auditor can share one definition of "available".
//!
//! # Example
//!
//! ```
//! use accelflow_arch::availability::AvailabilitySet;
//! use accelflow_sim::time::{SimDuration, SimTime};
//!
//! let mut avail = AvailabilitySet::new(3);
//! let now = SimTime::ZERO;
//! assert!(avail.is_available(1, now));
//! let until = avail.darken(1, now, SimDuration::from_micros(50));
//! assert!(!avail.is_available(1, now));
//! assert!(avail.is_available(1, until)); // the window is half-open
//! assert_eq!(avail.total_dark_time(), SimDuration::from_micros(50));
//! ```

use accelflow_sim::time::{SimDuration, SimTime};

/// Per-unit dark windows with a cumulative dark-time meter.
///
/// A unit is *dark* on the half-open interval `[darken-time,
/// dark_until)`; overlapping darkenings extend the window and the
/// meter counts each simulated picosecond of darkness exactly once.
#[derive(Clone, Debug)]
pub struct AvailabilitySet {
    dark_until: Vec<SimTime>,
    dark_time: SimDuration,
    darkenings: u64,
}

impl AvailabilitySet {
    /// Creates a tracker for `n` units, all available.
    pub fn new(n: usize) -> Self {
        AvailabilitySet {
            dark_until: vec![SimTime::ZERO; n],
            dark_time: SimDuration::ZERO,
            darkenings: 0,
        }
    }

    /// Number of tracked units.
    pub fn len(&self) -> usize {
        self.dark_until.len()
    }

    /// Whether the tracker has no units.
    pub fn is_empty(&self) -> bool {
        self.dark_until.is_empty()
    }

    /// Whether `unit` may accept or start work at `now`.
    pub fn is_available(&self, unit: usize, now: SimTime) -> bool {
        now >= self.dark_until[unit]
    }

    /// When `unit`'s current dark window ends (`<= now` if available).
    pub fn dark_until(&self, unit: usize) -> SimTime {
        self.dark_until[unit]
    }

    /// Marks `unit` dark for `duration` starting at `now`, merging with
    /// any dark window still in force. Returns the (possibly extended)
    /// end of the window.
    pub fn darken(&mut self, unit: usize, now: SimTime, duration: SimDuration) -> SimTime {
        self.darkenings += 1;
        let fresh_from = self.dark_until[unit].max(now);
        let until = now + duration;
        if until > fresh_from {
            self.dark_time += until.saturating_since(fresh_from);
            self.dark_until[unit] = until;
        }
        self.dark_until[unit]
    }

    /// Units available at `now`.
    pub fn available_count(&self, now: SimTime) -> usize {
        self.dark_until.iter().filter(|&&u| now >= u).count()
    }

    /// Cumulative unit-time spent dark (overlaps counted once).
    pub fn total_dark_time(&self) -> SimDuration {
        self.dark_time
    }

    /// How many darkenings were applied over the tracker's lifetime.
    pub fn darkenings(&self) -> u64 {
        self.darkenings
    }
}

accelflow_sim::impl_snapshot! { struct AvailabilitySet { dark_until, dark_time, darkenings } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_units_are_available() {
        let a = AvailabilitySet::new(4);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
        assert_eq!(a.available_count(SimTime::ZERO), 4);
        assert_eq!(a.total_dark_time(), SimDuration::ZERO);
    }

    #[test]
    fn darken_and_recover() {
        let mut a = AvailabilitySet::new(2);
        let now = SimTime::ZERO + SimDuration::from_micros(10);
        let until = a.darken(0, now, SimDuration::from_micros(5));
        assert_eq!(until, now + SimDuration::from_micros(5));
        assert!(!a.is_available(0, now));
        assert!(a.is_available(1, now), "sibling unaffected");
        assert_eq!(a.available_count(now), 1);
        assert!(a.is_available(0, until), "window is half-open");
        assert_eq!(a.darkenings(), 1);
    }

    #[test]
    fn overlapping_windows_merge_without_double_counting() {
        let mut a = AvailabilitySet::new(1);
        let t0 = SimTime::ZERO;
        a.darken(0, t0, SimDuration::from_micros(10));
        // Overlap: starts inside the first window, extends it by 5 µs.
        let t5 = t0 + SimDuration::from_micros(5);
        let until = a.darken(0, t5, SimDuration::from_micros(10));
        assert_eq!(until, t5 + SimDuration::from_micros(10));
        assert_eq!(a.total_dark_time(), SimDuration::from_micros(15));
        // Fully contained window: no extension, no extra dark time.
        let t6 = t0 + SimDuration::from_micros(6);
        assert_eq!(a.darken(0, t6, SimDuration::from_micros(1)), until);
        assert_eq!(a.total_dark_time(), SimDuration::from_micros(15));
        assert_eq!(a.darkenings(), 3);
    }
}
