//! Integer time representation shared across the workspace.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Rem, Sub, SubAssign};

/// A point in time or a duration, measured in integer nanoseconds.
///
/// All scheduling quantities of the synthesis problem (link transmission
/// delays, switch forwarding delays, release times, periods, end-to-end
/// delays, latencies and jitters) are exactly representable as integer
/// nanoseconds, which keeps the SMT encoding in pure integer difference
/// logic and avoids floating-point rounding in the schedule itself.
///
/// # Example
///
/// ```
/// use tsn_net::Time;
///
/// let ld = Time::from_micros(1200); // 1.2 ms transmission delay
/// let sd = Time::from_micros(5);
/// assert_eq!((ld + sd).as_nanos(), 1_205_000);
/// assert_eq!(Time::from_millis(20).as_micros(), 20_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(i64);

impl Time {
    /// The zero duration / time origin.
    pub const ZERO: Time = Time(0);
    /// The largest representable time.
    pub const MAX: Time = Time(i64::MAX);

    /// Creates a time from integer nanoseconds.
    pub const fn from_nanos(ns: i64) -> Self {
        Time(ns)
    }

    /// Creates a time from integer microseconds.
    pub const fn from_micros(us: i64) -> Self {
        Time(us * 1_000)
    }

    /// Creates a time from integer milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Time(ms * 1_000_000)
    }

    /// Creates a time from integer seconds.
    pub const fn from_secs(s: i64) -> Self {
        Time(s * 1_000_000_000)
    }

    /// Creates a time from a floating-point number of seconds, rounding to
    /// the nearest nanosecond.
    pub fn from_secs_f64(s: f64) -> Self {
        Time((s * 1e9).round() as i64)
    }

    /// The value in nanoseconds.
    pub const fn as_nanos(self) -> i64 {
        self.0
    }

    /// The value in whole microseconds (truncating).
    pub const fn as_micros(self) -> i64 {
        self.0 / 1_000
    }

    /// The value in whole milliseconds (truncating).
    pub const fn as_millis(self) -> i64 {
        self.0 / 1_000_000
    }

    /// The value as floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The value as floating-point milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns `true` if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` for strictly negative values.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Saturating addition.
    pub const fn saturating_add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Checked multiplication by an integer factor.
    pub const fn checked_mul(self, factor: i64) -> Option<Time> {
        match self.0.checked_mul(factor) {
            Some(v) => Some(Time(v)),
            None => None,
        }
    }

    /// The least common multiple of two positive durations.
    ///
    /// Used to compute the hyper-period of a set of periodic applications.
    ///
    /// # Panics
    ///
    /// Panics if either duration is not strictly positive, or if the result
    /// does not fit in a `Time` (see [`checked_lcm`](Time::checked_lcm)).
    pub fn lcm(self, other: Time) -> Time {
        assert!(self.0 > 0 && other.0 > 0, "lcm requires positive durations");
        self.checked_lcm(other)
            .expect("lcm overflows the nanosecond range")
    }

    /// The least common multiple of two durations, or `None` when either is
    /// not strictly positive or the result exceeds `i64::MAX` nanoseconds
    /// (about 292 years). Three pairwise coprime periods near 10 ms already
    /// get there.
    pub fn checked_lcm(self, other: Time) -> Option<Time> {
        if self.0 <= 0 || other.0 <= 0 {
            return None;
        }
        let g = gcd(self.0, other.0);
        (self.0 / g).checked_mul(other.0).map(Time)
    }

    /// The maximum of two times.
    pub fn max(self, other: Time) -> Time {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The minimum of two times.
    pub fn min(self, other: Time) -> Time {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.abs()
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns % 1_000_000 == 0 {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns % 1_000 == 0 {
            write!(f, "{}us", ns / 1_000)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Neg for Time {
    type Output = Time;
    fn neg(self) -> Time {
        Time(-self.0)
    }
}

impl Mul<i64> for Time {
    type Output = Time;
    fn mul(self, rhs: i64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<i64> for Time {
    type Output = Time;
    fn div(self, rhs: i64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Div<Time> for Time {
    type Output = i64;
    fn div(self, rhs: Time) -> i64 {
        self.0 / rhs.0
    }
}

impl Rem<Time> for Time {
    type Output = Time;
    fn rem(self, rhs: Time) -> Time {
        Time(self.0 % rhs.0)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_roundtrips() {
        assert_eq!(Time::from_micros(1200).as_nanos(), 1_200_000);
        assert_eq!(Time::from_millis(20).as_micros(), 20_000);
        assert_eq!(Time::from_secs(2).as_millis(), 2_000);
        assert_eq!(Time::from_secs_f64(0.0062).as_micros(), 6_200);
        assert!((Time::from_millis(50).as_secs_f64() - 0.050).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_micros(10);
        let b = Time::from_micros(4);
        assert_eq!(a + b, Time::from_micros(14));
        assert_eq!(a - b, Time::from_micros(6));
        assert_eq!(a * 3, Time::from_micros(30));
        assert_eq!(a / 2, Time::from_micros(5));
        assert_eq!(a / b, 2);
        assert_eq!(a % b, Time::from_micros(2));
        assert_eq!(-b, Time::from_micros(-4));
        assert!(Time::from_micros(-1).is_negative());
    }

    #[test]
    fn lcm_of_periods() {
        let h1 = Time::from_millis(20);
        let h2 = Time::from_millis(50);
        assert_eq!(h1.lcm(h2), Time::from_millis(100));
        let h3 = Time::from_millis(40);
        assert_eq!(h1.lcm(h2).lcm(h3), Time::from_millis(200));
    }

    #[test]
    fn checked_lcm_refuses_what_does_not_fit() {
        let (a, b, c) = (
            Time::from_nanos(10_000_001),
            Time::from_nanos(10_000_003),
            Time::from_nanos(10_000_007),
        );
        let ab = a.checked_lcm(b).expect("two periods fit");
        assert_eq!(ab, Time::from_nanos(10_000_001 * 10_000_003));
        // The product of all three is about 1.0e21 ns, past i64::MAX.
        assert_eq!(ab.checked_lcm(c), None);
        assert_eq!(
            Time::from_millis(20).checked_lcm(Time::from_millis(50)),
            Some(Time::from_millis(100))
        );
        assert_eq!(
            Time::from_nanos(i64::MAX).checked_lcm(Time::from_nanos(i64::MAX)),
            Some(Time::from_nanos(i64::MAX))
        );
        assert_eq!(Time::ZERO.checked_lcm(Time::from_millis(1)), None);
        assert_eq!(
            Time::from_millis(-1).checked_lcm(Time::from_millis(1)),
            None
        );
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn lcm_panics_instead_of_wrapping() {
        let _ = Time::from_nanos(10_000_001 * 10_000_003).lcm(Time::from_nanos(10_000_007));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn lcm_rejects_zero() {
        let _ = Time::ZERO.lcm(Time::from_millis(1));
    }

    #[test]
    fn ordering_and_minmax() {
        let a = Time::from_micros(3);
        let b = Time::from_micros(7);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_picks_reasonable_unit() {
        assert_eq!(Time::from_millis(3).to_string(), "3ms");
        assert_eq!(Time::from_micros(1205).to_string(), "1205us");
        assert_eq!(Time::from_nanos(17).to_string(), "17ns");
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [1, 2, 3].iter().map(|&m| Time::from_millis(m)).sum();
        assert_eq!(total, Time::from_millis(6));
    }
}
