//! Typed physical quantities: [`Bytes`] (a byte count) and [`ByteRate`]
//! (a bandwidth in bytes per second).
//!
//! Every figure the paper reports is arithmetic over three physical
//! dimensions — nanoseconds, bytes, and bytes/second — and until these
//! newtypes existed the codebase passed all three as bare `u64`, where a
//! swapped argument (`Pipe::new(&sim, overhead, rate)`) or a ns/µs slip
//! silently bends a curve instead of failing to compile. The wrappers are
//! zero-cost: `repr(transparent)` over `u64`, every operator `#[inline]`
//! and delegating to the *exact* integer arithmetic the untyped code used,
//! so the migration is byte-identical in figure output (EXPERIMENTS.md
//! records the digest check).
//!
//! Only the dimensionally legal operators exist:
//!
//! * `Bytes ± Bytes`, `Bytes × count`, `count × Bytes`
//! * `Bytes ÷ ByteRate → SimDuration` — serialization time, rounds up
//!   (the [`SimDuration::serialize`] conversion as an operator)
//! * `ByteRate × SimDuration → Bytes` — how much drains in a window,
//!   rounds down
//! * `ByteRate × count` (lane/port aggregation)
//!
//! There is deliberately no `From<u64>` / `Into<u64>`: constructing or
//! unwrapping a quantity is always a *named* operation ([`Bytes::new`],
//! [`Bytes::get`], [`ByteRate::from_gbps`], …), so every place a raw
//! number enters or leaves the type system is a greppable call
//! (DESIGN.md §12).

use crate::time::SimDuration;

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A count of bytes: message payloads, segment sizes, header overheads.
///
/// Arithmetic is saturating, matching [`SimDuration`]: a byte count that
/// somehow exceeds `u64::MAX` pins at the maximum rather than wrapping.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct Bytes(u64);

/// A bandwidth in bytes per second.
///
/// Rates are configuration-time constants (calibration fields, pipe
/// construction); the only arithmetic they participate in is the legal
/// cross-dimension kind ([`Bytes`] ÷ rate, rate × [`SimDuration`]) plus
/// integer scaling for lane/port aggregation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct ByteRate(u64);

impl Bytes {
    /// The zero byte count.
    pub const ZERO: Bytes = Bytes(0);

    /// Construct from a raw byte count.
    #[inline]
    pub const fn new(count: u64) -> Self {
        Bytes(count)
    }

    /// Construct from KiB (1024-byte units).
    #[inline]
    pub const fn from_kib(kib: u64) -> Self {
        Bytes(kib.saturating_mul(1024))
    }

    /// Construct from MiB.
    #[inline]
    pub const fn from_mib(mib: u64) -> Self {
        Bytes(mib.saturating_mul(1024 * 1024))
    }

    /// The raw byte count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// True when the count is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The smaller of two counts.
    #[inline]
    pub(crate) const fn min(self, other: Bytes) -> Bytes {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// How many `part`-sized pieces cover this count, rounding up: the
    /// segment/packet count of a message. `part` must be nonzero — a
    /// zero-sized segment cannot tile anything.
    #[inline]
    pub const fn div_ceil(self, part: Bytes) -> u64 {
        assert!(!part.is_zero(), "Bytes::div_ceil by a zero-sized part");
        self.0.div_ceil(part.0)
    }

    /// Split the count into `parts` pieces, rounding the piece size up:
    /// the per-segment share of a chunk. `parts` must be nonzero.
    #[inline]
    pub(crate) const fn div_ceil_count(self, parts: u64) -> Bytes {
        assert!(parts > 0, "Bytes::div_ceil_count into zero parts");
        Bytes(self.0.div_ceil(parts))
    }
}

impl ByteRate {
    /// Construct from a raw bytes-per-second figure (odd calibration
    /// constants that aren't a round gigabit rate).
    #[inline]
    pub const fn from_bytes_per_sec(bytes_per_sec: u64) -> Self {
        ByteRate(bytes_per_sec)
    }

    /// Construct from a link rate in gigabits per second:
    /// `from_gbps(10)` is 10 GbE's 1.25 GB/s, `from_gbps(8)` is 1 GB/s.
    #[inline]
    pub const fn from_gbps(gigabits_per_sec: u64) -> Self {
        ByteRate(gigabits_per_sec.saturating_mul(125_000_000))
    }

    /// The raw bytes-per-second figure.
    #[inline]
    pub(crate) const fn as_bytes_per_sec(self) -> u64 {
        self.0
    }

    /// True when the rate is zero (no legal time conversion exists).
    #[inline]
    pub(crate) const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

// --- Bytes ± Bytes, saturating --------------------------------------------

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        *self = *self + rhs;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Bytes {
    #[inline]
    fn sub_assign(&mut self, rhs: Bytes) {
        *self = *self - rhs;
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |acc, b| acc + b)
    }
}

// --- Bytes × count ---------------------------------------------------------

impl Mul<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0.saturating_mul(rhs))
    }
}

impl Mul<Bytes> for u64 {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: Bytes) -> Bytes {
        rhs * self
    }
}

// --- ByteRate × count ------------------------------------------------------

impl Mul<u64> for ByteRate {
    type Output = ByteRate;
    #[inline]
    fn mul(self, rhs: u64) -> ByteRate {
        ByteRate(self.0.saturating_mul(rhs))
    }
}

// --- The legal cross-dimension operators -----------------------------------

/// `Bytes / ByteRate -> SimDuration`: the serialization time of a payload
/// at a rate, rounded up. Identical to `SimDuration::serialize` — this
/// operator *is* that conversion. Panics on a zero rate (see the
/// stated invariant there).
impl Div<ByteRate> for Bytes {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: ByteRate) -> SimDuration {
        SimDuration::serialize(self, rhs)
    }
}

/// `ByteRate * SimDuration -> Bytes`: how many bytes drain through a rate
/// in a window, rounded down. Widened through `u128` so multi-GB/s rates
/// over long windows cannot overflow; saturates at `u64::MAX` bytes.
impl Mul<SimDuration> for ByteRate {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: SimDuration) -> Bytes {
        let drained = (self.0 as u128 * rhs.as_nanos() as u128) / 1_000_000_000u128;
        Bytes(u64::try_from(drained).unwrap_or(u64::MAX))
    }
}

// --- Formatting ------------------------------------------------------------

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.0)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for ByteRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B/s", self.0)
    }
}

impl fmt::Display for ByteRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}GB/s", self.0 as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_roundtrip() {
        assert_eq!(Bytes::new(1500).get(), 1500);
        assert_eq!(Bytes::from_kib(32).get(), 32_768);
        assert_eq!(Bytes::from_mib(2).get(), 2 * 1024 * 1024);
        assert_eq!(ByteRate::from_gbps(10).as_bytes_per_sec(), 1_250_000_000);
        assert_eq!(ByteRate::from_gbps(8).as_bytes_per_sec(), 1_000_000_000);
        assert_eq!(
            ByteRate::from_bytes_per_sec(1_845_000_000).as_bytes_per_sec(),
            1_845_000_000
        );
    }

    #[test]
    fn byte_arithmetic_saturates() {
        assert_eq!((Bytes::new(u64::MAX) + Bytes::new(1)).get(), u64::MAX);
        assert_eq!((Bytes::new(5) - Bytes::new(9)).get(), 0);
        assert_eq!((Bytes::new(u64::MAX) * 2).get(), u64::MAX);
        assert_eq!(
            (ByteRate::from_bytes_per_sec(u64::MAX) * 2).as_bytes_per_sec(),
            u64::MAX
        );
        let mut acc = Bytes::new(10);
        acc += Bytes::new(5);
        acc -= Bytes::new(3);
        assert_eq!(acc.get(), 12);
    }

    #[test]
    fn scaling_by_counts() {
        assert_eq!((Bytes::new(110) * 3).get(), 330);
        assert_eq!((3u64 * Bytes::new(110)).get(), 330);
        assert_eq!(
            (ByteRate::from_gbps(10) * 4).as_bytes_per_sec(),
            5_000_000_000
        );
        let total: Bytes = [Bytes::new(1), Bytes::new(2), Bytes::new(3)]
            .into_iter()
            .sum();
        assert_eq!(total.get(), 6);
    }

    #[test]
    fn div_ceil_partitions() {
        // 3000 B over 1448 B segments = 3 segments.
        assert_eq!(Bytes::new(3000).div_ceil(Bytes::new(1448)), 3);
        assert_eq!(Bytes::ZERO.div_ceil(Bytes::new(1448)), 0);
        // 3000 B split into 3 parts = 1000 B each; 3001 rounds up.
        assert_eq!(Bytes::new(3000).div_ceil_count(3).get(), 1000);
        assert_eq!(Bytes::new(3001).div_ceil_count(3).get(), 1001);
    }

    #[test]
    #[should_panic(expected = "zero-sized part")]
    fn div_ceil_by_zero_part_states_invariant() {
        let _ = Bytes::new(10).div_ceil(Bytes::ZERO);
    }

    #[test]
    fn division_by_rate_is_serialize() {
        // 1500 bytes at 10 GbE = 1200 ns, rounds up like serialize.
        let d = Bytes::new(1500) / ByteRate::from_gbps(10);
        assert_eq!(d.as_nanos(), 1200);
        assert_eq!(
            d,
            SimDuration::serialize(Bytes::new(1500), ByteRate::from_gbps(10))
        );
        // Rounds up: 1 byte at 3 GB/s = 1 ns.
        assert_eq!(
            (Bytes::new(1) / ByteRate::from_bytes_per_sec(3_000_000_000)).as_nanos(),
            1
        );
    }

    #[test]
    fn division_widens_to_u128_like_old_serialize() {
        // Multi-gigabyte transfer at multi-GB/s: u64 math would overflow
        // (16 GiB × 1e9 ≈ 2^64 × 0.93 — just fits, but 64 GiB does not).
        let d = Bytes::new(64 << 30) / ByteRate::from_gbps(8);
        assert!(d.as_secs_f64() > 68.0 && d.as_secs_f64() < 69.0, "{d}");
        // Saturation: a huge payload over a 1 B/s trickle pins at u64::MAX.
        let d = Bytes::new(u64::MAX) / ByteRate::from_bytes_per_sec(1);
        assert_eq!(d.as_nanos(), u64::MAX);
    }

    #[test]
    fn rate_times_duration_drains_bytes() {
        // 1.25 GB/s × 1200 ns = 1500 bytes exactly.
        let b = ByteRate::from_gbps(10) * SimDuration::from_nanos(1200);
        assert_eq!(b.get(), 1500);
        // Rounds down: 1 GB/s × 1 ns = 1 byte, × 0 ns = 0.
        assert_eq!(
            (ByteRate::from_gbps(8) * SimDuration::from_nanos(1)).get(),
            1
        );
        assert_eq!((ByteRate::from_gbps(8) * SimDuration::ZERO).get(), 0);
        // Widened: u64::MAX ns at 4 GB/s would overflow u64 ns×rate.
        let b = ByteRate::from_bytes_per_sec(4_000_000_000) * SimDuration::from_nanos(u64::MAX);
        assert_eq!(b.get(), u64::MAX, "saturates, does not wrap");
    }

    #[test]
    fn ordering_min_max() {
        assert!(Bytes::new(1) < Bytes::new(2));
        assert_eq!(Bytes::new(7).min(Bytes::new(3)).get(), 3);
        assert_eq!(Bytes::new(7).max(Bytes::new(3)).get(), 7);
        assert_eq!(
            ByteRate::from_gbps(10).min(ByteRate::from_gbps(8)),
            ByteRate::from_gbps(8)
        );
        assert!(ByteRate::from_gbps(8) < ByteRate::from_gbps(10));
    }

    #[test]
    fn zero_checks() {
        assert!(Bytes::ZERO.is_zero());
        assert!(!Bytes::new(1).is_zero());
        assert!(ByteRate::from_bytes_per_sec(0).is_zero());
        assert!(!ByteRate::from_gbps(10).is_zero());
    }

    #[test]
    fn formatting() {
        assert_eq!(format!("{:?}", Bytes::new(1500)), "1500B");
        assert_eq!(format!("{}", Bytes::new(1500)), "1500");
        assert_eq!(format!("{:?}", ByteRate::from_gbps(10)), "1250000000B/s");
        assert_eq!(format!("{}", ByteRate::from_gbps(10)), "1.250GB/s");
    }
}
