//! Integer tick time base.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Default number of ticks per abstract model-time unit.
///
/// The ICPP'98 workload generators draw periods and execution times as real
/// numbers in "period units"; quantizing at one million ticks per unit keeps
/// relative quantization error below 10⁻⁶ while all analysis arithmetic stays
/// inside `i64`.
pub const DEFAULT_TICKS_PER_UNIT: i64 = 1_000_000;

/// A point in (or span of) time, measured in integer ticks.
///
/// `Time` is deliberately a thin transparent wrapper: the analysis performs a
/// large volume of breakpoint arithmetic, and the wrapper exists purely so the
/// type system separates *time* from *work* and *counts* (both plain `i64` at
/// the curve layer). Spans and instants share this one type, mirroring the
/// paper's usage where `t`, response times, and execution times all live on
/// the same axis.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Time(pub i64);

impl Time {
    /// The origin of the timeline.
    pub const ZERO: Time = Time(0);
    /// One single tick.
    pub const ONE: Time = Time(1);

    /// Raw tick count.
    #[inline]
    pub const fn ticks(self) -> i64 {
        self.0
    }

    /// Quantize a real-valued duration in model units, rounding to nearest.
    #[inline]
    pub fn from_units(units: f64, ticks_per_unit: i64) -> Time {
        Time((units * ticks_per_unit as f64).round() as i64)
    }

    /// Quantize rounding **up** — the conservative direction for execution
    /// times (never underestimate demand).
    #[inline]
    pub fn from_units_ceil(units: f64, ticks_per_unit: i64) -> Time {
        Time((units * ticks_per_unit as f64).ceil() as i64)
    }

    /// Quantize rounding **down** — the conservative direction for release
    /// times (never postpone an arrival).
    #[inline]
    pub fn from_units_floor(units: f64, ticks_per_unit: i64) -> Time {
        Time((units * ticks_per_unit as f64).floor() as i64)
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Pointwise minimum.
    #[inline]
    pub fn min(self, rhs: Time) -> Time {
        Time(self.0.min(rhs.0))
    }

    /// Pointwise maximum.
    #[inline]
    pub fn max(self, rhs: Time) -> Time {
        Time(self.0.max(rhs.0))
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<i64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: i64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<i64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: i64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        Time(iter.map(|t| t.0).sum())
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Time({})", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<i64> for Time {
    #[inline]
    fn from(v: i64) -> Time {
        Time(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Time(30);
        let b = Time(12);
        assert_eq!(a + b, Time(42));
        assert_eq!(a - b, Time(18));
        assert_eq!(a * 2, Time(60));
        assert_eq!(a / 3, Time(10));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn quantization_directions() {
        // ceil for demand, floor for releases.
        assert_eq!(Time::from_units_ceil(1.0000001, 1_000_000), Time(1_000_001));
        assert_eq!(
            Time::from_units_floor(1.9999999, 1_000_000),
            Time(1_999_999)
        );
        assert_eq!(Time::from_units(0.5, 10), Time(5));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Time(i64::MAX).saturating_add(Time(1)), Time(i64::MAX));
        assert_eq!(Time(i64::MIN).saturating_sub(Time(1)), Time(i64::MIN));
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [Time(1), Time(2), Time(3)].into_iter().sum();
        assert_eq!(total, Time(6));
    }
}
