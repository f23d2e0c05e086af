//! Simulation time: a totally ordered wrapper over `f64` seconds.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Sub};

/// A point in simulated time, in seconds since the run started.
///
/// Wraps `f64` with `Ord` via `total_cmp` so it can key the event queue;
/// equality is the same order's `Equal`. Construction rejects NaN and
/// negative values and stores `-0.0` as `0.0`, so `total_cmp` and `==`
/// agree on every value a `SimTime` can hold.
#[derive(Debug, Clone, Copy)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Wrap a number of seconds.
    ///
    /// # Panics
    /// On NaN or negative values.
    pub fn new(seconds: f64) -> Self {
        assert!(seconds.is_finite() && seconds >= 0.0, "bad time {seconds}");
        // `-0.0 >= 0.0` passes the check, but `total_cmp` orders it below
        // `0.0`; adding `0.0` maps it to `+0.0` and leaves the rest alone.
        SimTime(seconds + 0.0)
    }

    /// Seconds since the run started.
    pub fn seconds(self) -> f64 {
        self.0
    }
}

impl PartialEq for SimTime {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: f64) -> SimTime {
        SimTime::new(self.0 + rhs)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.5);
        assert!(a < b);
        assert_eq!(b - a, 1.5);
        assert_eq!((a + 1.5).seconds(), 2.5);
        assert_eq!(SimTime::ZERO.seconds(), 0.0);
    }

    #[test]
    fn negative_zero_is_zero() {
        let z = SimTime::new(-0.0);
        assert_eq!(z, SimTime::ZERO);
        assert_eq!(z.cmp(&SimTime::ZERO), Ordering::Equal);
        assert!(z.seconds().is_sign_positive());
        assert!((SimTime::ZERO + -0.0).seconds().is_sign_positive());
    }

    #[test]
    #[should_panic(expected = "bad time")]
    fn nan_rejected() {
        SimTime::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "bad time")]
    fn negative_rejected() {
        SimTime::new(-1.0);
    }
}
