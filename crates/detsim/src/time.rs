//! Virtual time for the discrete-event simulation.
//!
//! Time is kept as an integer count of picoseconds so that simulations are
//! exactly reproducible: there is no accumulated floating-point drift in the
//! clock itself. Durations derived from bandwidth math are computed in `f64`
//! and rounded up to the next picosecond.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// An instant in virtual time, measured in picoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, measured in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Picoseconds since simulation start.
    #[inline]
    pub fn picos(self) -> u64 {
        self.0
    }

    /// Convert to (floating-point) seconds. Used for reporting only.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`. Panics if `earlier` is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(self.0 >= earlier.0, "SimTime::since: earlier is later");
        SimDuration(self.0 - earlier.0)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_picos(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Construct from floating-point seconds, rounding up to the next
    /// picosecond. Negative or NaN inputs are treated as zero; infinite
    /// inputs saturate.
    pub fn from_secs_f64(s: f64) -> Self {
        // NaN and negatives both land in the zero branch on purpose.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(s > 0.0) {
            return SimDuration(0);
        }
        SimDuration(ceil_to_u64(s * PS_PER_SEC as f64))
    }

    /// The time it takes to move `bytes` bytes at `bytes_per_sec`, rounded up
    /// to the next picosecond. A zero or non-finite bandwidth saturates.
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> Self {
        // NaN capacity saturates, like zero.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(bytes_per_sec > 0.0) {
            return SimDuration(u64::MAX);
        }
        SimDuration::from_secs_f64(bytes as f64 / bytes_per_sec)
    }

    /// Picoseconds in this duration.
    #[inline]
    pub fn picos(self) -> u64 {
        self.0
    }

    /// This duration in (floating-point) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// This duration in microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This duration in milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

/// `x.ceil() as u64` for non-negative `x`, saturating at `u64::MAX`, without
/// the out-of-line `ceil` call the baseline x86-64 target makes: truncate,
/// then add one if truncation dropped a fraction. Bit-exact with `ceil`:
/// below 2^52 the truncated value is exact, so it is below `x` exactly
/// when `x` has a fraction; from 2^52 up every `f64` is an integer and
/// truncation is the identity.
#[inline]
fn ceil_to_u64(x: f64) -> u64 {
    if x >= u64::MAX as f64 {
        return u64::MAX;
    }
    let t = x as u64;
    if (t as f64) < x {
        t + 1
    } else {
        t
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimDuration {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}ms", self.as_secs_f64() * 1e3)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}ms", self.as_secs_f64() * 1e3)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimDuration::from_micros(3).picos(), 3_000_000);
        assert_eq!(SimDuration::from_nanos(5).picos(), 5_000);
        assert_eq!(SimDuration::from_millis(2).picos(), 2_000_000_000);
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.picos(), 3 * PS_PER_SEC / 2);
    }

    #[test]
    fn bandwidth_time() {
        // 1 GiB at 1 GiB/s is exactly one second.
        let d = SimDuration::for_bytes(1 << 30, (1u64 << 30) as f64);
        assert_eq!(d.picos(), PS_PER_SEC);
    }

    #[test]
    fn bandwidth_time_rounds_up() {
        // one byte at 3 bytes/sec: 1/3 sec, must round up.
        let d = SimDuration::for_bytes(1, 3.0);
        assert!(d.picos() > PS_PER_SEC / 3);
        assert!(d.picos() <= PS_PER_SEC / 3 + 1);
    }

    #[test]
    fn degenerate_inputs_saturate() {
        assert_eq!(SimDuration::for_bytes(10, 0.0).picos(), u64::MAX);
        assert_eq!(SimDuration::from_secs_f64(-1.0).picos(), 0);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN).picos(), 0);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY).picos(), u64::MAX);
    }

    #[test]
    fn ceil_to_u64_matches_f64_ceil() {
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let mut xs = vec![0.0, 0.5, 1.0, 1.5, 2.5, 1e-300, 3.0e6 + 0.5];
        for i in [
            1u64,
            2,
            3,
            7,
            1_000,
            1 << 20,
            123_456_789,
            1 << 40,
            (1 << 52) - 1,
        ] {
            let x = i as f64;
            xs.extend([x, x + 0.5, below(x), below(x + 1.0)]);
        }
        // Between 2^52 and 2^53 the spacing is 1 (every value an integer);
        // at 2^63 it is 2048.
        let two52 = (1u64 << 52) as f64;
        xs.extend([two52, below(two52), two52 + 1.0, two52 + 12345.0]);
        xs.extend([
            below((1u64 << 53) as f64),
            (1u64 << 63) as f64,
            below((1u64 << 63) as f64),
        ]);
        xs.push(below(u64::MAX as f64));
        for x in xs {
            assert_eq!(ceil_to_u64(x), x.ceil() as u64, "ceil({x:e})");
        }
        // At or above u64::MAX (2^64 as an f64) it saturates.
        for x in [u64::MAX as f64, 1e30, f64::MAX, f64::INFINITY] {
            assert_eq!(ceil_to_u64(x), u64::MAX, "ceil({x:e}) saturates");
        }
        assert_eq!(SimDuration::from_secs_f64(1e10).picos(), u64::MAX);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_micros(10);
        assert_eq!(t.picos(), 10_000_000);
        assert_eq!((t - SimTime::ZERO).picos(), 10_000_000);
        assert_eq!(t.since(t).picos(), 0);
    }

    #[test]
    fn saturating_behaviour() {
        let t = SimTime(u64::MAX - 1) + SimDuration::from_millis(5);
        assert_eq!(t.picos(), u64::MAX);
    }
}
