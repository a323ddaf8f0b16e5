//! Simulation time: nanosecond-resolution instants and durations.
//!
//! The 802.11b PHY needs sub-microsecond arithmetic (a 28-byte header at
//! 11 Mb/s lasts 20 363.6 ns), so both types count integer nanoseconds.
//! `u64` nanoseconds covers ~584 years of simulated time — far beyond any
//! experiment here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since the start of
/// the run.
///
/// `SimTime` is a point; [`SimDuration`] is a span. The arithmetic between
/// them mirrors `std::time::{Instant, Duration}`.
///
/// # Example
///
/// ```
/// use desim::{SimDuration, SimTime};
/// let t = SimTime::ZERO + SimDuration::from_micros(50);
/// assert_eq!(t.as_micros(), 50);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_micros(50));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in nanoseconds.
///
/// # Example
///
/// ```
/// use desim::SimDuration;
/// let slot = SimDuration::from_micros(20);
/// assert_eq!(slot * 16, SimDuration::from_micros(320));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from integer nanoseconds since the start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Builds an instant from integer microseconds since the start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Builds an instant from integer milliseconds since the start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Builds an instant from integer seconds since the start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since the start of the run.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the start of the run (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the start of the run, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`, or [`SimDuration::ZERO`] if
    /// `earlier` is actually later.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a span from integer nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a span from integer microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Builds a span from integer milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a span from integer seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Builds a span from float seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or too large for the nanosecond
    /// range of `u64`.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0 && s <= u64::MAX as f64 / 1e9,
            "duration out of range: {s}"
        );
        SimDuration((s * 1e9).round() as u64)
    }

    /// Builds a span from float microseconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative, NaN, or out of range.
    pub fn from_micros_f64(us: f64) -> Self {
        assert!(
            us.is_finite() && us >= 0.0 && us <= u64::MAX as f64 / 1e3,
            "duration out of range: {us}"
        );
        SimDuration((us * 1e3).round() as u64)
    }

    /// The span in integer nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The span in float microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The span in float seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `self - other`, clamped at zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// True for the empty span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("simulation clock overflow"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("simulation clock underflow"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("negative duration between instants"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative duration"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
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
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 && ns.is_multiple_of(1_000_000) {
            write!(
                f,
                "{}.{:03}s",
                ns / 1_000_000_000,
                ns % 1_000_000_000 / 1_000_000
            )
        } else if ns >= 1_000 && ns.is_multiple_of(1_000) {
            write!(f, "{}us", ns / 1_000)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(
            SimDuration::from_secs(2),
            SimDuration::from_nanos(2_000_000_000)
        );
    }

    #[test]
    fn instant_duration_arithmetic_round_trips() {
        let t0 = SimTime::from_micros(100);
        let d = SimDuration::from_nanos(1_500);
        let t1 = t0 + d;
        assert_eq!(t1 - t0, d);
        assert_eq!(t1 - d, t0);
    }

    #[test]
    fn saturating_duration_since_clamps() {
        let early = SimTime::from_micros(10);
        let late = SimTime::from_micros(30);
        assert_eq!(
            late.saturating_duration_since(early),
            SimDuration::from_micros(20)
        );
        assert_eq!(early.saturating_duration_since(late), SimDuration::ZERO);
    }

    #[test]
    fn float_conversions_are_consistent() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d, SimDuration::from_millis(1_500));
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
        let us = SimDuration::from_micros_f64(20.3636);
        assert_eq!(us.as_nanos(), 20_364); // rounds to nearest ns
    }

    #[test]
    #[should_panic(expected = "duration out of range")]
    fn negative_float_duration_panics() {
        let _ = SimDuration::from_secs_f64(-0.1);
    }

    #[test]
    #[should_panic(expected = "negative duration between instants")]
    fn reversed_instant_subtraction_panics() {
        let _ = SimTime::from_micros(1) - SimTime::from_micros(2);
    }

    #[test]
    fn scaling_and_sum() {
        let slot = SimDuration::from_micros(20);
        assert_eq!(slot * 3, SimDuration::from_micros(60));
        assert_eq!(slot / 2, SimDuration::from_micros(10));
        let total: SimDuration = [slot, slot, slot].into_iter().sum();
        assert_eq!(total, SimDuration::from_micros(60));
    }

    #[test]
    fn debug_formats_pick_natural_units() {
        assert_eq!(format!("{:?}", SimDuration::from_micros(50)), "50us");
        assert_eq!(format!("{:?}", SimDuration::from_nanos(1_500)), "1500ns");
        assert_eq!(format!("{:?}", SimDuration::from_millis(2_500)), "2.500s");
        assert_eq!(format!("{:?}", SimTime::from_micros(7)), "t+7us");
    }
}
