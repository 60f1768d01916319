//! Simulation time as integer microseconds.
//!
//! All latencies, deadlines, and clocks in the reproduction are expressed in
//! [`Micros`]. Integer microseconds keep the discrete-event simulator exactly
//! deterministic (no floating-point drift in event ordering) while providing
//! sub-millisecond resolution, which is finer than any quantity the paper
//! reports (its profiles are in milliseconds).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A duration or instant measured in integer microseconds.
///
/// `Micros` is used both as a point in simulated time (offset from the start
/// of the simulation) and as a duration; the arithmetic is identical and the
/// simulator never needs wall-clock anchoring.
///
/// # Examples
///
/// ```
/// use nexus_profile::Micros;
///
/// let slo = Micros::from_millis(100);
/// let batch = Micros::from_millis(40);
/// assert!(batch * 2 <= slo);
/// assert_eq!(slo.as_millis_f64(), 100.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Micros(pub u64);

impl Micros {
    /// The zero duration / the simulation epoch.
    pub const ZERO: Micros = Micros(0);

    /// The maximum representable time; used as "never" in schedulers.
    pub const MAX: Micros = Micros(u64::MAX);

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Micros(us)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Micros(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Micros(s * 1_000_000)
    }

    /// Creates a duration from fractional milliseconds, rounding to the
    /// nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub(crate) fn from_millis_f64(ms: f64) -> Self {
        assert!(ms.is_finite() && ms >= 0.0, "invalid millis: {ms}");
        Micros((ms * 1_000.0).round() as u64)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid seconds: {s}");
        Micros((s * 1_000_000.0).round() as u64)
    }

    /// Returns the raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction; clamps at zero instead of underflowing.
    pub const fn saturating_sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    pub const fn checked_add(self, rhs: Micros) -> Option<Micros> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Micros(v)),
            None => None,
        }
    }

    /// Multiplies by a floating-point scale factor, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(self, factor: f64) -> Micros {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid scale factor: {factor}"
        );
        Micros((self.0 as f64 * factor).round() as u64)
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Micros) -> Micros {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Micros) -> Micros {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Micros {
    type Output = Micros;

    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl AddAssign for Micros {
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl Sub for Micros {
    type Output = Micros;

    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0 - rhs.0)
    }
}

impl SubAssign for Micros {
    fn sub_assign(&mut self, rhs: Micros) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Micros {
    type Output = Micros;

    fn mul(self, rhs: u64) -> Micros {
        Micros(self.0 * rhs)
    }
}

impl Div<u64> for Micros {
    type Output = Micros;

    fn div(self, rhs: u64) -> Micros {
        Micros(self.0 / rhs)
    }
}

impl Sum for Micros {
    fn sum<I: Iterator<Item = Micros>>(iter: I) -> Micros {
        iter.fold(Micros::ZERO, Add::add)
    }
}

impl fmt::Debug for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 && self.0.is_multiple_of(100_000) {
            write!(f, "{}s", self.0 as f64 / 1_000_000.0)
        } else if self.0 >= 1_000 {
            write!(f, "{}ms", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Micros::from_millis(7).as_micros(), 7_000);
        assert_eq!(Micros::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(Micros::from_millis_f64(1.5).as_micros(), 1_500);
        assert_eq!(Micros::from_secs_f64(0.25).as_micros(), 250_000);
        assert_eq!(Micros::from_millis(40).as_millis_f64(), 40.0);
        assert_eq!(Micros::from_millis(500).as_secs_f64(), 0.5);
    }

    #[test]
    fn arithmetic() {
        let a = Micros::from_millis(10);
        let b = Micros::from_millis(4);
        assert_eq!(a + b, Micros::from_millis(14));
        assert_eq!(a - b, Micros::from_millis(6));
        assert_eq!(a * 3, Micros::from_millis(30));
        assert_eq!(a / 2, Micros::from_millis(5));
        let mut c = a;
        c += b;
        assert_eq!(c, Micros::from_millis(14));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = Micros::from_millis(1);
        let b = Micros::from_millis(2);
        assert_eq!(a.saturating_sub(b), Micros::ZERO);
        assert_eq!(b.saturating_sub(a), Micros::from_millis(1));
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(Micros(100).scale(1.5), Micros(150));
        assert_eq!(Micros(3).scale(0.5), Micros(2)); // rounds 1.5 -> 2
        assert_eq!(Micros(1000).scale(0.0), Micros::ZERO);
    }

    #[test]
    fn min_max() {
        let a = Micros(5);
        let b = Micros(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn sum_of_iterator() {
        let total: Micros = (1..=4).map(Micros::from_millis).sum();
        assert_eq!(total, Micros::from_millis(10));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Micros(500).to_string(), "500us");
        assert_eq!(Micros::from_millis(42).to_string(), "42ms");
        assert_eq!(Micros::from_secs(2).to_string(), "2s");
    }

    #[test]
    #[should_panic(expected = "invalid millis")]
    fn negative_millis_panics() {
        let _ = Micros::from_millis_f64(-1.0);
    }
}
