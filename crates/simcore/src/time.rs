//! Virtual time: a nanosecond-resolution monotone counter.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since simulation start.
///
/// `SimTime` is deliberately *not* convertible from wall-clock types: the
/// simulation must be a pure function of its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future — useful as an "infinite" deadline sentinel.
    pub(crate) const MAX: SimTime = SimTime(u64::MAX);

    /// From raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// From microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// From milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// From seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// From fractional seconds (saturating at the representable range;
    /// negative values clamp to zero).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimTime::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(ns as u64)
        }
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// As fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// As fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Duration between two instants (panics in debug if `earlier > self`).
    #[inline]
    #[cfg(test)]
    pub(crate) fn since(self, earlier: SimTime) -> SimTime {
        debug_assert!(self >= earlier, "time went backwards");
        SimTime(self.0 - earlier.0)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
        assert_eq!(SimTime::from_secs_f64(0.5), SimTime::from_millis(500));
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(0.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::MAX);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(3);
        assert_eq!((a + b).as_nanos(), 13_000_000);
        assert_eq!((a - b).as_nanos(), 7_000_000);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_millis(13));
    }

    #[test]
    fn add_saturates() {
        assert_eq!(SimTime::MAX + SimTime::from_secs(1), SimTime::MAX);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimTime::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn since_measures_durations() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(12);
        assert_eq!(b.since(a), SimTime::from_millis(7));
    }
}
