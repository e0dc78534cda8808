//! Virtual time types: [`SimTime`] (an instant) and [`SimDuration`] (a span).
//!
//! Both are thin wrappers over a `u64` nanosecond count. Arithmetic is
//! saturating: a simulation that somehow runs past `u64::MAX` nanoseconds
//! (~584 years) pins at the maximum rather than wrapping, which turns a
//! logic error into an obviously-stuck simulation instead of silent
//! time travel.

use crate::units::{ByteRate, Bytes};

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time, measured in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from a raw nanosecond count.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since the simulation epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the epoch, as a float (for reporting).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since the epoch, as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The span from `earlier` to `self`; zero if `earlier` is later.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub(crate) fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The longest span (saturation point): an unbounded gap.
    pub(crate) const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us.saturating_mul(1_000))
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    /// Construct from fractional seconds; negative values clamp to zero.
    ///
    /// # Contract
    ///
    /// The span must be finite: NaN and infinity are never a meaningful
    /// duration — they arise from a bad rate/interarrival config (divide
    /// by zero, log of zero) and should fail loudly, not saturate
    /// silently. Debug builds assert; release builds clamp NaN to zero
    /// and ±infinity to the saturation bounds (0 / `u64::MAX` ns).
    #[inline]
    #[allow(
        clippy::cast_possible_truncation,
        reason = "deliberate saturating float-to-int conversion"
    )]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(
            s.is_finite(),
            "SimDuration::from_secs_f64 requires a finite span, got {s}"
        );
        // NaN.max(0.0) is 0.0 and `as u64` saturates, so the release
        // clamps fall out of the expression; the assert is the loud path.
        SimDuration((s.max(0.0) * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds as a float (for reporting).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// True when the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The time to serialize `bytes` at `rate`, rounded up.
    ///
    /// This is the fundamental bandwidth→time conversion used by every
    /// [`crate::pipe::Pipe`]; `Bytes / ByteRate` delegates here. Computed
    /// in `u64` while `bytes · 10⁹` fits (below 18.4 GB), else in `u128`
    /// so that larger transfers cannot overflow; the two agree wherever
    /// both apply, and the result saturates at `u64::MAX` ns. The `u64`
    /// form is a hardware divide where the `u128` one is a library call
    /// on every reservation.
    ///
    /// # Contract
    ///
    /// `rate` must be nonzero — serialization over a zero-bandwidth link
    /// never completes, so there is no duration to return. Every rate in
    /// the workspace comes from a calibration constant or [`crate::Pipe`]
    /// construction, both of which reject zero; the check here turns a
    /// bare `div_ceil` divide-by-zero into a stated invariant.
    #[inline]
    pub(crate) fn serialize(bytes: Bytes, rate: ByteRate) -> SimDuration {
        assert!(
            !rate.is_zero(),
            "SimDuration::serialize over a zero-bandwidth rate never completes"
        );
        let (bytes, rate) = (bytes.get(), rate.as_bytes_per_sec());
        match bytes.checked_mul(1_000_000_000) {
            Some(scaled) => SimDuration(scaled.div_ceil(rate)),
            None => SimDuration(serialize_wide(bytes, rate)),
        }
    }
}

/// [`SimDuration::serialize`] in `u128`, saturating at `u64::MAX` ns.
fn serialize_wide(bytes: u64, rate: u64) -> u64 {
    let ns = (u128::from(bytes) * 1_000_000_000).div_ceil(u128::from(rate));
    u64::try_from(ns).unwrap_or(u64::MAX)
}

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

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// Floor division by a count. `rhs` must be positive: averaging over
    /// zero samples has no meaning, so this panics with the stated
    /// invariant instead of a bare divide-by-zero.
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        assert!(rhs > 0, "SimDuration division by a zero count");
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimTime::from_nanos(42).as_nanos(), 42);
    }

    #[test]
    fn float_construction_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1.5e-9).as_nanos(), 2);
        assert_eq!(SimDuration::from_secs_f64(0.5e-6).as_nanos(), 500);
        assert_eq!(SimDuration::from_secs_f64(-1.0).as_nanos(), 0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "finite span"))]
    fn float_construction_rejects_nan() {
        // Debug builds state the invariant; release builds clamp NaN to
        // zero (the `max(0.0)`/saturating-cast path), so the assert below
        // documents the release behavior.
        assert_eq!(SimDuration::from_secs_f64(f64::NAN).as_nanos(), 0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "finite span"))]
    fn float_construction_rejects_infinity() {
        // Release builds saturate +inf at u64::MAX ns, -inf clamps to 0.
        assert_eq!(
            SimDuration::from_secs_f64(f64::INFINITY).as_nanos(),
            u64::MAX
        );
        assert_eq!(SimDuration::from_secs_f64(f64::NEG_INFINITY).as_nanos(), 0);
    }

    #[test]
    fn arithmetic_saturates() {
        let huge = SimTime::from_nanos(u64::MAX);
        assert_eq!((huge + SimDuration::from_millis(1)).as_nanos(), u64::MAX);
        assert_eq!(SimDuration::from_millis(u64::MAX), SimDuration::MAX);
        assert_eq!(SimDuration::from_micros(u64::MAX).as_nanos(), u64::MAX);
        assert_eq!(SimDuration::from_millis(1 << 50).as_nanos(), u64::MAX);
        let d = SimDuration::from_nanos(5) - SimDuration::from_nanos(9);
        assert_eq!(d.as_nanos(), 0);
        assert_eq!(
            SimTime::from_nanos(3).duration_since(SimTime::from_nanos(9)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn instant_difference() {
        let a = SimTime::from_nanos(1_000);
        let b = SimTime::from_nanos(4_500);
        assert_eq!((b - a).as_nanos(), 3_500);
        // 3500 ns is exactly 3.5 us in f64, so bit equality holds.
        assert_eq!(
            b.duration_since(a).as_micros_f64().to_bits(),
            3.5_f64.to_bits()
        );
    }

    #[test]
    fn serialization_time_rounds_up() {
        // 1 byte at 1 GB/s = 1 ns exactly.
        assert_eq!(
            SimDuration::serialize(Bytes::new(1), ByteRate::from_gbps(8)).as_nanos(),
            1
        );
        // 1500 bytes at 1.25 GB/s (10GbE) = 1200 ns.
        assert_eq!(
            SimDuration::serialize(Bytes::new(1500), ByteRate::from_gbps(10)).as_nanos(),
            1200
        );
        // Rounds up: 1 byte at 3 GB/s = ceil(1/3 ns) = 1 ns.
        assert_eq!(
            SimDuration::serialize(Bytes::new(1), ByteRate::from_bytes_per_sec(3_000_000_000))
                .as_nanos(),
            1
        );
        // Large transfer does not overflow: 16 GiB at 1 GB/s ≈ 17.18 s.
        let d = SimDuration::serialize(Bytes::new(16 << 30), ByteRate::from_gbps(8));
        assert!(d.as_secs_f64() > 17.0 && d.as_secs_f64() < 17.3);
    }

    #[test]
    fn serialization_agrees_with_the_u128_form_at_the_u64_edge() {
        // `bytes · 10⁹` fits in `u64` up to `EDGE` and overflows past it.
        const EDGE: u64 = u64::MAX / 1_000_000_000;
        let mut remainders = [false; 2];
        for bytes in [EDGE - 1, EDGE, EDGE + 1] {
            for rate in [1, 7, 1_000_000_000, 1_250_000_000, 3_000_000_000] {
                let d =
                    SimDuration::serialize(Bytes::new(bytes), ByteRate::from_bytes_per_sec(rate));
                assert_eq!(
                    d.as_nanos(),
                    serialize_wide(bytes, rate),
                    "{bytes} B at {rate} B/s"
                );
                remainders
                    [usize::from(u128::from(bytes) * 1_000_000_000 % u128::from(rate) != 0)] = true;
            }
        }
        assert_eq!(
            remainders,
            [true, true],
            "cases with and without a remainder"
        );
        // Past the edge at 1 B/s the result saturates.
        assert_eq!(serialize_wide(EDGE + 1, 1), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "zero-bandwidth")]
    fn serialization_over_zero_rate_states_invariant() {
        let _ = SimDuration::serialize(Bytes::new(1), ByteRate::from_bytes_per_sec(0));
    }

    #[test]
    #[should_panic(expected = "zero count")]
    fn div_operator_by_zero_states_invariant() {
        let _ = SimDuration::from_nanos(10) / 0;
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(format!("{}", SimDuration::from_nanos(9_780)), "9.780us");
        assert_eq!(format!("{}", SimTime::from_nanos(4_530)), "4.530us");
    }
}
