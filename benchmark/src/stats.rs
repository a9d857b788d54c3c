//! Order statistics for a handful of repetitions.
//!
//! The quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the acceptance driver
//! computes over ten runs: a spread printed here can be compared with the
//! driver's without a conversion.

use crate::json::Value;

/// Median, quartiles and sample count of one metric's repetitions.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Inter-quartile range as a share of the median (0 for one sample).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }

    pub fn to_json(self, unit: &str) -> Value {
        Value::obj([
            ("unit", Value::str(unit)),
            ("n", Value::Num(self.n as f64)),
            ("median", Value::Num(self.median)),
            ("q1", Value::Num(self.q1)),
            ("q3", Value::Num(self.q3)),
            ("spread", Value::Num(self.spread())),
        ])
    }
}

/// Summarizes `values`; a single value is its own median and quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN: both are bugs in the caller, which
/// always measures at least one repetition.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples to summarize");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = sorted.len();
    if n == 1 {
        return Summary {
            n,
            median: sorted[0],
            q1: sorted[0],
            q3: sorted[0],
        };
    }
    let cut = |i: usize| -> f64 {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Summary {
        n,
        median: cut(2),
        q1: cut(1),
        q3: cut(3),
    }
}

/// The median alone.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_count() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.n, s.median), (5, 3.0));
        // Python: statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
    }

    #[test]
    fn even_count() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        // Python: statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
    }

    #[test]
    fn ten_values_match_python() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
    }

    #[test]
    fn ties_and_single() {
        let s = summarize(&[7.0, 7.0, 7.0, 7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
        assert_eq!(s.spread(), 0.0);
        let one = summarize(&[2.5]);
        assert_eq!((one.n, one.q1, one.median, one.q3), (1, 2.5, 2.5, 2.5));
    }

    #[test]
    fn two_values_clamp_to_the_data() {
        // Python: statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let s = summarize(&[3.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
        assert_eq!(s.spread(), 1.5);
    }
}
