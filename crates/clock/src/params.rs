//! Clock models: per-machine virtual clocks with offset, drift, and read
//! granularity.
//!
//! The analysis phase assumes processor clock drifts are linear (§2.5,
//! Eqn. 2.1): for machines `i` and `j`,
//!
//! ```text
//! Cj(t) ≈ αij + βij · Ci(t)
//! ```
//!
//! A [`VirtualClock`] realizes exactly this model against *physical* time:
//! `C(t) = offset + drift · t`, quantized to the clock's read granularity.
//! The simulator gives every host such a clock.

use loki_core::time::LocalNanos;
use serde::{Deserialize, Serialize};

/// Parameters of one machine's clock relative to physical time.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClockParams {
    /// Clock reading at physical time zero, in nanoseconds. Must be ≥ 0 so
    /// readings never underflow.
    pub offset_ns: f64,
    /// Drift rate: local nanoseconds per physical nanosecond (1.0 = ideal).
    pub drift: f64,
    /// Read granularity in nanoseconds: readings are truncated to a
    /// multiple of this (1 = full resolution, e.g. a TSC read).
    pub granularity_ns: u64,
}

impl ClockParams {
    /// The ideal clock: zero offset, unit drift, nanosecond granularity.
    pub fn ideal() -> Self {
        ClockParams {
            offset_ns: 0.0,
            drift: 1.0,
            granularity_ns: 1,
        }
    }

    /// An ideal clock skewed by `offset_ns` and drifting by `ppm` parts per
    /// million (positive = fast).
    ///
    /// # Examples
    ///
    /// ```
    /// use loki_clock::params::ClockParams;
    ///
    /// let c = ClockParams::with_drift_ppm(5_000.0, 50.0);
    /// assert_eq!(c.offset_ns, 5_000.0);
    /// assert!((c.drift - 1.00005).abs() < 1e-12);
    /// ```
    pub fn with_drift_ppm(offset_ns: f64, ppm: f64) -> Self {
        ClockParams {
            offset_ns,
            drift: 1.0 + ppm / 1e6,
            granularity_ns: 1,
        }
    }

    /// Sets the read granularity.
    pub fn granularity(mut self, granularity_ns: u64) -> Self {
        self.granularity_ns = granularity_ns.max(1);
        self
    }

    /// The `(α, β)` of *this* clock relative to `reference`:
    /// `C_self = α + β · C_ref`.
    ///
    /// This is the ground truth the off-line synchronization estimates
    /// bounds for; tests assert the estimated interval contains it.
    pub fn relative_to(&self, reference: &ClockParams) -> (f64, f64) {
        let beta = self.drift / reference.drift;
        let alpha = self.offset_ns - reference.offset_ns * beta;
        (alpha, beta)
    }
}

impl Default for ClockParams {
    fn default() -> Self {
        ClockParams::ideal()
    }
}

/// A readable clock following a [`ClockParams`] model.
///
/// # Examples
///
/// ```
/// use loki_clock::params::{ClockParams, VirtualClock};
///
/// let clock = VirtualClock::new(ClockParams::with_drift_ppm(1_000.0, 100.0));
/// let t = clock.read(1_000_000); // physical 1 ms
/// assert_eq!(t.as_nanos(), 1_001_100); // 1_000 + 1.0001 * 1_000_000
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VirtualClock {
    params: ClockParams,
}

impl VirtualClock {
    /// Creates a clock with the given parameters.
    pub fn new(params: ClockParams) -> Self {
        VirtualClock { params }
    }

    /// The clock's parameters.
    pub fn params(&self) -> &ClockParams {
        &self.params
    }

    /// Reads the clock at physical time `physical_ns`.
    ///
    /// Readings are non-negative (clamped at zero) and truncated to the
    /// clock's granularity.
    pub fn read(&self, physical_ns: u64) -> LocalNanos {
        let raw = self.params.offset_ns + self.params.drift * physical_ns as f64;
        let clamped = raw.max(0.0);
        let g = self.params.granularity_ns.max(1);
        // Nanosecond granularity (the default) quantizes to itself; skip
        // the div/mul round trip — this read sits under every timestamped
        // record and message on the hot path, and a division by a runtime
        // variable is its single priciest instruction.
        let quantized = if g == 1 {
            clamped as u64
        } else {
            (clamped as u64 / g) * g
        };
        LocalNanos(quantized)
    }
}

/// Chooses the reference machine: the one with the *fastest* clock, because
/// mapping a fast clock's times onto a slower clock's timeline loses
/// accuracy (§5.7).
///
/// Returns `None` for an empty iterator.
///
/// # Examples
///
/// ```
/// use loki_clock::params::{fastest_reference, ClockParams};
///
/// let hosts = [
///     ("h1".to_owned(), ClockParams::with_drift_ppm(0.0, -20.0)),
///     ("h2".to_owned(), ClockParams::with_drift_ppm(0.0, 80.0)),
/// ];
/// assert_eq!(fastest_reference(hosts.iter().map(|(h, c)| (h.as_str(), c))), Some("h2"));
/// ```
pub fn fastest_reference<'a, I>(hosts: I) -> Option<&'a str>
where
    I: IntoIterator<Item = (&'a str, &'a ClockParams)>,
{
    hosts
        .into_iter()
        .max_by(|a, b| a.1.drift.total_cmp(&b.1.drift))
        .map(|(name, _)| name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_clock_reads_physical_time() {
        let c = VirtualClock::new(ClockParams::ideal());
        assert_eq!(c.read(12345), LocalNanos(12345));
    }

    #[test]
    fn granularity_truncates() {
        let c = VirtualClock::new(ClockParams::ideal().granularity(1000));
        assert_eq!(c.read(12345), LocalNanos(12000));
        assert_eq!(c.read(999), LocalNanos(0));
    }

    #[test]
    fn negative_offset_clamps_at_zero() {
        let c = VirtualClock::new(ClockParams {
            offset_ns: -5000.0,
            drift: 1.0,
            granularity_ns: 1,
        });
        assert_eq!(c.read(1000), LocalNanos(0));
        assert_eq!(c.read(6000), LocalNanos(1000));
    }

    #[test]
    fn relative_to_identity() {
        let c = ClockParams::with_drift_ppm(123.0, 45.0);
        let (alpha, beta) = c.relative_to(&c);
        assert!((alpha).abs() < 1e-9);
        assert!((beta - 1.0).abs() < 1e-15);
    }

    #[test]
    fn relative_to_matches_direct_computation() {
        let i = ClockParams::with_drift_ppm(1e6, 120.0);
        let r = ClockParams::with_drift_ppm(3e5, -40.0);
        let (alpha, beta) = i.relative_to(&r);
        // For several physical instants, C_i == alpha + beta * C_r exactly
        // (both are affine in t).
        for t in [0u64, 1_000_000, 7_777_777_777] {
            let ci = i.offset_ns + i.drift * t as f64;
            let cr = r.offset_ns + r.drift * t as f64;
            assert!((ci - (alpha + beta * cr)).abs() < 1e-3, "t={t}");
        }
    }

    #[test]
    fn fastest_reference_picks_max_drift() {
        let a = ClockParams::with_drift_ppm(0.0, -100.0);
        let b = ClockParams::with_drift_ppm(0.0, 0.0);
        let c = ClockParams::with_drift_ppm(0.0, 100.0);
        let hosts = [("a", &a), ("b", &b), ("c", &c)];
        assert_eq!(fastest_reference(hosts), Some("c"));
        assert_eq!(fastest_reference([] as [(&str, &ClockParams); 0]), None);
    }
}
