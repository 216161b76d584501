//! Virtual time.
//!
//! All engines in the workspace advance a nanosecond-granularity virtual clock.
//! A nanosecond `u64` covers ~584 years of virtual time, far beyond any
//! experiment horizon (the longest paper experiment, Figure 5, runs 6 seconds).
//!
//! Two types are provided: [`SimTime`] is a point on the virtual timeline and
//! [`SimDuration`] is a span between two points. Keeping them distinct catches
//! unit bugs (adding two absolute times) at compile time.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An absolute point on the simulated timeline, in nanoseconds since the
/// beginning of the simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs a time from raw nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs a time from microseconds since simulation start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Constructs a time from milliseconds since simulation start.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Constructs a time from seconds since simulation start.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`. Saturates to zero if `earlier` is in
    /// the future, which keeps telemetry arithmetic total.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Constructs a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Constructs a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Constructs a duration from fractional nanoseconds, rounding to the
    /// nearest whole nanosecond. Negative inputs clamp to zero.
    #[inline]
    pub fn from_nanos_f64(ns: f64) -> Self {
        SimDuration(round_to_u64(ns))
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True when the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// Exactly `x.ceil() as u64`, including its saturation (NaN and negatives
/// → 0, +inf and values ≥ 2⁶⁴ → `u64::MAX`), without the floating-point
/// `ceil`: on targets without SSE4.1 that is a library call, and the
/// event engine rounds every scheduled timestamp through it.
#[inline]
pub fn ceil_to_u64(x: f64) -> u64 {
    match nearest_even(x) {
        Some((r, r_f64)) => r + u64::from(r_f64 < x),
        // Negative, NaN, or already integral: truncation is the answer.
        None => x as u64,
    }
}

/// Exactly `x.round() as u64` (ties away from zero, saturating like
/// [`ceil_to_u64`]) without the floating-point `round`.
#[inline]
pub fn round_to_u64(x: f64) -> u64 {
    match nearest_even(x) {
        // `x - r` is exact, so a tie shows as exactly one half.
        Some((r, r_f64)) => r + u64::from(x - r_f64 == 0.5),
        None => x as u64,
    }
}

/// For `0 ≤ x < 2⁵²`, `x` rounded to the nearest integer (ties to even),
/// as a `u64` and as an `f64`; `None` outside that range. Adding 2⁵² leaves
/// the sum no fraction bits, so the addition itself rounds, and the integer
/// is the difference of the bit patterns.
#[inline]
fn nearest_even(x: f64) -> Option<(u64, f64)> {
    const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
    if !(0.0..TWO_POW_52).contains(&x) {
        return None;
    }
    let y = x + TWO_POW_52;
    Some((y.to_bits() - TWO_POW_52.to_bits(), y - TWO_POW_52))
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
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
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.saturating_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
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
        SimDuration(self.0.saturating_sub(rhs.0))
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
        SimDuration(self.0.saturating_mul(rhs))
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

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
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
        assert_eq!(SimTime::from_secs(1), SimTime::from_nanos(1_000_000_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_nanos(1_000_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(
            SimDuration::from_millis(2),
            SimDuration::from_nanos(2_000_000)
        );
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_nanos(100);
        let d = SimDuration::from_nanos(40);
        assert_eq!(t + d, SimTime::from_nanos(140));
        assert_eq!(t - d, SimTime::from_nanos(60));
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn saturating_behaviour() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(50);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_nanos(40));
        let end = SimTime::from_nanos(u64::MAX);
        assert_eq!(end + SimDuration::from_nanos(1), end);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_nanos(64);
        assert_eq!(d * 3, SimDuration::from_nanos(192));
        assert_eq!(d / 2, SimDuration::from_nanos(32));
    }

    #[test]
    fn from_nanos_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_nanos_f64(1.4), SimDuration::from_nanos(1));
        assert_eq!(SimDuration::from_nanos_f64(1.6), SimDuration::from_nanos(2));
        assert_eq!(SimDuration::from_nanos_f64(-5.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_nanos_f64(2.5), SimDuration::from_nanos(3));
        assert_eq!(SimDuration::from_nanos_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_nanos_f64(f64::INFINITY).as_nanos(),
            u64::MAX
        );
    }

    #[test]
    fn integer_rounding_matches_float_rounding_at_the_edges() {
        let edges = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            0.49999999999999994,
            0.5,
            1.5,
            -0.5,
            -1.5,
            4503599627370495.5,     // 2^52 - 0.5
            4503599627370497.0,     // 2^52 + 1
            9007199254740993.0,     // 2^53 + 1 (rounds to 2^53)
            18446744073709549568.0, // largest f64 below 2^64
            18446744073709551616.0, // 2^64
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for x in edges {
            assert_eq!(ceil_to_u64(x), x.ceil() as u64, "ceil {x:e}");
            assert_eq!(round_to_u64(x), x.round() as u64, "round {x:e}");
        }
    }

    #[test]
    fn display_picks_human_unit() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_nanos(1_500).to_string(), "1.500us");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_millis(3_000).to_string(), "3.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_nanos).sum();
        assert_eq!(total, SimDuration::from_nanos(10));
    }
}
