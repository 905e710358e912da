//! Simulated time.
//!
//! Time is measured in integer nanoseconds. [`SimTime`] is a point on the
//! simulated clock; [`SimSpan`] is a duration. The arithmetic follows the
//! usual affine rules: `Time + Span = Time`, `Time - Time = Span`,
//! `Span * k = Span`, and so on. Keeping the two concepts as distinct
//! newtypes prevents an entire class of unit bugs in the simulators built
//! on top of the kernel.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, in nanoseconds since simulation start.
///
/// # Example
///
/// ```
/// use dssd_kernel::{SimTime, SimSpan};
/// let t = SimTime::from_us(3);
/// assert_eq!(t + SimSpan::from_us(2), SimTime::from_us(5));
/// assert_eq!(SimTime::from_us(5) - t, SimSpan::from_us(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A length of simulated time, in nanoseconds.
///
/// # Example
///
/// ```
/// use dssd_kernel::SimSpan;
/// let s = SimSpan::from_us(4);
/// assert_eq!(s * 2, SimSpan::from_us(8));
/// assert_eq!(s.as_ns(), 4_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimSpan(u64);

impl SimTime {
    /// The start of simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; useful as an "idle forever" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time `ns` nanoseconds after simulation start.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time `us` microseconds after simulation start.
    #[must_use]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time `ms` milliseconds after simulation start.
    #[must_use]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Nanoseconds since simulation start.
    #[must_use]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start, as a float.
    #[must_use]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Milliseconds since simulation start, as a float.
    #[must_use]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Seconds since simulation start, as a float.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimSpan {
        SimSpan(self.0.saturating_sub(earlier.0))
    }

    /// The later of two times.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two times.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimSpan {
    /// The empty span.
    pub const ZERO: SimSpan = SimSpan(0);

    /// Creates a span of `ns` nanoseconds.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        SimSpan(ns)
    }

    /// Creates a span of `us` microseconds.
    #[must_use]
    pub const fn from_us(us: u64) -> Self {
        SimSpan(us * 1_000)
    }

    /// Creates a span of `ms` milliseconds.
    #[must_use]
    pub const fn from_ms(ms: u64) -> Self {
        SimSpan(ms * 1_000_000)
    }

    /// The time needed to move `bytes` at `bytes_per_sec`, rounded up to a
    /// whole nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    #[must_use]
    pub fn for_transfer(bytes: u64, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be non-zero");
        // ns = bytes * 1e9 / rate, computed in u128 to avoid overflow.
        let ns = (bytes as u128 * 1_000_000_000).div_ceil(bytes_per_sec as u128);
        SimSpan(ns as u64)
    }

    /// Length in nanoseconds.
    #[must_use]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Length in microseconds, as a float.
    #[must_use]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Length in seconds, as a float.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// True if the span is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The longer of two spans.
    #[must_use]
    pub fn max(self, other: SimSpan) -> SimSpan {
        SimSpan(self.0.max(other.0))
    }

    /// Saturating subtraction of spans.
    #[must_use]
    pub fn saturating_sub(self, other: SimSpan) -> SimSpan {
        SimSpan(self.0.saturating_sub(other.0))
    }
}

impl Add<SimSpan> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimSpan) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimSpan> for SimTime {
    fn add_assign(&mut self, rhs: SimSpan) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimSpan;
    fn sub(self, rhs: SimTime) -> SimSpan {
        SimSpan(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction went negative"),
        )
    }
}

impl Sub<SimSpan> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimSpan) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime - SimSpan went negative"),
        )
    }
}

impl Add for SimSpan {
    type Output = SimSpan;
    fn add(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0 + rhs.0)
    }
}

impl AddAssign for SimSpan {
    fn add_assign(&mut self, rhs: SimSpan) {
        self.0 += rhs.0;
    }
}

impl Sub for SimSpan {
    type Output = SimSpan;
    fn sub(self, rhs: SimSpan) -> SimSpan {
        SimSpan(
            self.0
                .checked_sub(rhs.0)
                .expect("SimSpan subtraction went negative"),
        )
    }
}

impl SubAssign for SimSpan {
    fn sub_assign(&mut self, rhs: SimSpan) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimSpan {
    type Output = SimSpan;
    fn mul(self, rhs: u64) -> SimSpan {
        SimSpan(self.0 * rhs)
    }
}

impl Div<u64> for SimSpan {
    type Output = SimSpan;
    fn div(self, rhs: u64) -> SimSpan {
        SimSpan(self.0 / rhs)
    }
}

impl Sum for SimSpan {
    fn sum<I: Iterator<Item = SimSpan>>(iter: I) -> SimSpan {
        iter.fold(SimSpan::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimSpan::from_us(1), SimSpan::from_ns(1_000));
        assert_eq!(SimSpan::from_ms(2), SimSpan::from_us(2_000));
    }

    #[test]
    fn affine_arithmetic() {
        let t = SimTime::from_us(10);
        let s = SimSpan::from_us(4);
        assert_eq!(t + s, SimTime::from_us(14));
        assert_eq!((t + s) - t, s);
        assert_eq!(t - s, SimTime::from_us(6));
        assert_eq!(s + s, SimSpan::from_us(8));
        assert_eq!(s * 3, SimSpan::from_us(12));
        assert_eq!(s / 2, SimSpan::from_us(2));
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_span_panics() {
        let _ = SimTime::from_us(1) - SimTime::from_us(2);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_us(1);
        let b = SimTime::from_us(2);
        assert_eq!(a.saturating_since(b), SimSpan::ZERO);
        assert_eq!(b.saturating_since(a), SimSpan::from_us(1));
    }

    #[test]
    fn transfer_time_rounds_up() {
        // 1 byte at 3 B/s is 333,333,333.33 ns, so it must round up.
        assert_eq!(
            SimSpan::for_transfer(1, 3),
            SimSpan::from_ns(333_333_334)
        );
        // 4 KiB at 1 GB/s is exactly 4096 ns.
        assert_eq!(
            SimSpan::for_transfer(4096, 1_000_000_000),
            SimSpan::from_ns(4096)
        );
    }

    #[test]
    fn transfer_time_large_values_do_not_overflow() {
        let s = SimSpan::for_transfer(u64::MAX / 2, 8_000_000_000);
        assert!(s.as_ns() > 0);
    }

    #[test]
    fn float_views() {
        assert!((SimTime::from_ms(3).as_ms_f64() - 3.0).abs() < 1e-12);
        assert!((SimSpan::from_us(7).as_us_f64() - 7.0).abs() < 1e-12);
        assert!((SimTime::from_ms(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sum_of_spans() {
        let total: SimSpan = [1u64, 2, 3].iter().map(|&u| SimSpan::from_us(u)).sum();
        assert_eq!(total, SimSpan::from_us(6));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", SimTime::from_us(5)).is_empty());
        assert!(!format!("{}", SimSpan::from_us(5)).is_empty());
    }
}
