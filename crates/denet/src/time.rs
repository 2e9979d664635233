//! Simulation time.
//!
//! Time is kept as an integer number of nanoseconds so that event ordering is
//! exact and platform-independent. One nanosecond of resolution is ample: the
//! finest-grained costs in the model are single CPU instructions on a 10 MIPS
//! processor (100 ns each).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulation time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

/// Nanoseconds per microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;
/// Nanoseconds per millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    /// The simulation epoch (time zero).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Time elapsed since `earlier`. Panics in debug builds if `earlier` is
    /// in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier <= self, "since() called with a future instant");
        SimDuration(self.0 - earlier.0)
    }

    /// This instant expressed in (floating-point) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Construct from seconds.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> SimTime {
        SimTime(secs_to_nanos(secs))
    }
}

impl SimDuration {
    /// The zero value.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from floating-point seconds (rounded to the nearest ns).
    #[inline]
    pub fn from_secs_f64(secs: f64) -> SimDuration {
        SimDuration(secs_to_nanos(secs))
    }

    /// Construct from milliseconds.
    #[inline]
    pub fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    /// Construct from microseconds.
    #[inline]
    pub fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * NANOS_PER_MICRO)
    }

    /// The duration in floating-point seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    #[inline]
    /// True for the zero duration.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

#[inline]
fn secs_to_nanos(secs: f64) -> u64 {
    debug_assert!(secs >= 0.0, "negative durations are not representable");
    debug_assert!(secs.is_finite(), "non-finite duration");
    (secs * NANOS_PER_SEC as f64).round() as u64
}

/// Saturates at [`SimTime::MAX`]: an instant that far out lies past every
/// run horizon, so an event scheduled with a huge delay (say, a lock
/// timeout of `SimDuration(u64::MAX)`) simply never fires instead of
/// wrapping around into the past.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(rhs <= self, "duration underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.0, 1_500_000_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(SimDuration::from_millis(20).0, 20_000_000);
        assert_eq!(SimDuration::from_micros(7).0, 7_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(10);
        assert_eq!(t, SimTime(10_000_000));
        let t2 = t + SimDuration::from_millis(5);
        assert_eq!(t2.since(t), SimDuration::from_millis(5));
    }

    #[test]
    fn adding_a_duration_saturates_at_max() {
        let t = SimTime(5);
        assert_eq!(t + SimDuration(u64::MAX), SimTime::MAX);
        assert_eq!(SimTime::MAX + SimDuration(1), SimTime::MAX);
        let mut u = SimTime(u64::MAX - 1);
        u += SimDuration(7);
        assert_eq!(u, SimTime::MAX);
        assert_eq!(SimTime(1) + SimDuration(2), SimTime(3));
    }

    #[test]
    fn ordering_is_total_and_exact() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimTime::MAX > SimTime(u64::MAX - 1));
        let mut v = vec![SimTime(5), SimTime(1), SimTime(3)];
        v.sort();
        assert_eq!(v, vec![SimTime(1), SimTime(3), SimTime(5)]);
    }

    #[test]
    fn display_formats_as_seconds() {
        assert_eq!(format!("{}", SimTime(1_500_000_000)), "1.500000s");
        assert_eq!(format!("{}", SimDuration(250_000)), "0.000250s");
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }
}
