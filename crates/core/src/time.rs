//! Time representations used throughout Loki.
//!
//! Loki distinguishes between *local* clock readings (what one machine's
//! clock says, recorded in local timelines) and *global* time (the reference
//! machine's timeline, onto which the analysis phase projects every local
//! reading with guaranteed-enclosing bounds).
//!
//! Local readings are exact integers (`u64` nanoseconds) because that is what
//! a clock register yields. Projected global times are whole nanoseconds too
//! ([`GlobalNanos`]): projection divides by a drift rate, and each bound of
//! the exact quotient is rounded outward to an integer once.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A reading of one machine's local clock, in nanoseconds.
///
/// The on-disk timeline format (see `loki-spec`) stores these as two 32-bit
/// halves, mirroring the thesis's `<EventTime.Hi> <EventTime.Lo>` records;
/// [`LocalNanos::split_hi_lo`] and [`LocalNanos::from_hi_lo`] perform that
/// conversion.
///
/// # Examples
///
/// ```
/// use loki_core::time::LocalNanos;
///
/// let t = LocalNanos::from_millis(12);
/// assert_eq!(t.as_nanos(), 12_000_000);
/// let (hi, lo) = t.split_hi_lo();
/// assert_eq!(LocalNanos::from_hi_lo(hi, lo), t);
/// ```
#[derive(
    Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct LocalNanos(pub u64);

impl LocalNanos {
    /// The zero reading.
    pub const ZERO: LocalNanos = LocalNanos(0);

    /// Constructs a reading from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        LocalNanos(ms * 1_000_000)
    }

    /// Constructs a reading from whole microseconds.
    pub fn from_micros(us: u64) -> Self {
        LocalNanos(us * 1_000)
    }

    /// Constructs a reading from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        LocalNanos(s * 1_000_000_000)
    }

    /// Returns the raw nanosecond count.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the reading as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the reading as an `f64` nanosecond count (for projection
    /// arithmetic).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Splits the 64-bit reading into the `(hi, lo)` 32-bit halves used by
    /// the timeline file format.
    pub fn split_hi_lo(self) -> (u32, u32) {
        ((self.0 >> 32) as u32, self.0 as u32)
    }

    /// Reassembles a reading from its `(hi, lo)` 32-bit halves.
    pub fn from_hi_lo(hi: u32, lo: u32) -> Self {
        LocalNanos(((hi as u64) << 32) | lo as u64)
    }

    /// Saturating difference between two readings, as nanoseconds.
    pub fn saturating_sub(self, earlier: LocalNanos) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// The reading advanced by `delta` nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics on overflow in debug builds, wraps in release (as `u64 + u64`).
    pub fn offset(self, delta_ns: u64) -> LocalNanos {
        LocalNanos(self.0 + delta_ns)
    }
}

impl fmt::Display for LocalNanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// A point on the reference machine's (global) timeline, in whole
/// nanoseconds.
///
/// The projection `(C − α)/β` is rarely whole: each bound is rounded outward
/// to the nanosecond once, exactly, so a [`TimeBounds`] still contains the
/// true global time and widens by under 1 ns per side. Projected times lie
/// strictly inside `±`[`GlobalNanos::LIMIT`] (2⁶² ns, about 146 years), so
/// the sum of two fits an `i64`, and `i64::MIN`/`i64::MAX` never meet one:
/// the analysis uses them as the open ends of the line.
#[derive(
    Copy, Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct GlobalNanos(pub i64);

impl GlobalNanos {
    /// The origin of the global timeline.
    pub const ZERO: GlobalNanos = GlobalNanos(0);

    /// Projected times lie strictly between `-LIMIT` and `LIMIT` ns.
    pub const LIMIT: i64 = 1 << 62;

    /// Returns the time as fractional milliseconds.
    pub fn as_millis(self) -> f64 {
        self.as_f64() / 1e6
    }

    /// Returns the nanosecond count as an `f64`: exact below 2⁵³ ns in
    /// magnitude, rounded to nearest past it.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl fmt::Display for GlobalNanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis())
    }
}

/// An interval `[lo, hi]` on the global timeline guaranteed to contain the
/// true occurrence time of an event.
///
/// The off-line synchronization computes *bounds* (not estimates) on the
/// clock offset and drift, so every projected occurrence time is an interval
/// that provably contains the true global time (thesis §2.5). Both ends are
/// whole nanoseconds, so every comparison of bounds is exact.
///
/// # Examples
///
/// ```
/// use loki_core::time::{GlobalNanos, TimeBounds};
///
/// let b = TimeBounds::new(GlobalNanos(10_000_000), GlobalNanos(11_000_001));
/// assert!(b.contains(GlobalNanos(10_500_000)));
/// assert_eq!(b.mid(), 10_500_000.5);
/// assert_eq!(b.width(), 1_000_001);
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TimeBounds {
    /// Earliest possible true global time.
    pub lo: GlobalNanos,
    /// Latest possible true global time.
    pub hi: GlobalNanos,
}

impl TimeBounds {
    /// Creates bounds from `lo` and `hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn new(lo: GlobalNanos, hi: GlobalNanos) -> Self {
        assert!(lo <= hi, "time bounds inverted: {lo} > {hi}");
        TimeBounds { lo, hi }
    }

    /// A degenerate interval containing exactly one instant.
    pub fn point(t: GlobalNanos) -> Self {
        TimeBounds { lo: t, hi: t }
    }

    /// Midpoint of the interval in nanoseconds, the exact `(lo + hi) / 2`
    /// rounded to `f64` once; the measure phase evaluates predicates at the
    /// mean of the two bounds, as in the thesis's Figure 4.2 example.
    pub fn mid(self) -> f64 {
        (i128::from(self.lo.0) + i128::from(self.hi.0)) as f64 / 2.0
    }

    /// Width of the interval in nanoseconds.
    pub fn width(self) -> u64 {
        self.hi.0.abs_diff(self.lo.0)
    }

    /// Whether the instant `t` lies inside the interval (inclusive).
    pub fn contains(self, t: GlobalNanos) -> bool {
        self.lo <= t && t <= self.hi
    }
}

impl fmt::Display for TimeBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hi_lo_roundtrip() {
        for v in [0u64, 1, u32::MAX as u64, u32::MAX as u64 + 1, u64::MAX] {
            let t = LocalNanos(v);
            let (hi, lo) = t.split_hi_lo();
            assert_eq!(LocalNanos::from_hi_lo(hi, lo), t);
        }
    }

    #[test]
    fn conversions() {
        assert_eq!(LocalNanos::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(LocalNanos::from_micros(3).as_nanos(), 3_000);
        assert_eq!(LocalNanos::from_secs(2).as_nanos(), 2_000_000_000);
        assert!((LocalNanos::from_millis(5).as_millis_f64() - 5.0).abs() < 1e-12);
        assert_eq!(GlobalNanos(5_000_000).as_millis(), 5.0);
    }

    #[test]
    fn bounds_containment() {
        let b = TimeBounds::new(GlobalNanos(10), GlobalNanos(20));
        assert!(b.contains(GlobalNanos(10)));
        assert!(b.contains(GlobalNanos(20)));
        assert!(!b.contains(GlobalNanos(21)));
        assert_eq!(b.mid(), 15.0);
        assert_eq!(b.width(), 10);
        // Exact to the half nanosecond, without overflow at the ends.
        assert_eq!(TimeBounds::new(GlobalNanos(-3), GlobalNanos(4)).mid(), 0.5);
        let wide = TimeBounds::new(GlobalNanos(i64::MIN), GlobalNanos(i64::MAX));
        assert_eq!((wide.mid(), wide.width()), (-0.5, u64::MAX));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn bounds_inverted_panics() {
        let _ = TimeBounds::new(GlobalNanos(2), GlobalNanos(1));
    }

    #[test]
    fn point_bounds() {
        let p = TimeBounds::point(GlobalNanos(7));
        assert_eq!(p.width(), 0);
        assert!(p.contains(GlobalNanos(7)));
    }
}
