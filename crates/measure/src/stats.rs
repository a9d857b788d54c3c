//! Moment statistics and percentile approximation (§4.4).
//!
//! Loki characterizes a campaign measure by its first four moments: "in
//! practice, the properties obtained when calculating the first four
//! moments are very close to the properties of the real distribution"
//! (§4.4). From the central moments it derives the skewness and kurtosis
//! coefficients (Eqns. 4.4–4.5)
//!
//! ```text
//! β₁ = μ₃² / μ₂³        β₂ = μ₄ / μ₂²
//! ```
//!
//! and percentile points. The thesis uses the Bowman–Shenton 19-point
//! rational-fraction approximation for Pearson-system percentiles [14, 15];
//! those coefficient tables are not available, so this implementation uses
//! the **Cornish–Fisher** four-moment expansion — the standard substitute
//! for approximating percentiles of a distribution known only through its
//! first four moments (see `DESIGN.md`, substitutions).

use serde::{Deserialize, Serialize};

/// Moment-based summary statistics of one sample (or of a stratified
/// combination).
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MomentStats {
    /// Sample size (total observations behind the estimate).
    pub n: usize,
    /// First four non-central moments `μ'₁..μ'₄`.
    pub raw: [f64; 4],
    /// Central moments `μ₂, μ₃, μ₄`.
    pub central: [f64; 3],
}

impl MomentStats {
    /// Computes moments of a sample.
    ///
    /// Returns `None` for an empty sample.
    pub fn from_sample(values: &[f64]) -> Option<MomentStats> {
        if values.is_empty() {
            return None;
        }
        let n = values.len() as f64;
        let mut raw = [0.0f64; 4];
        for &x in values {
            let mut p = x;
            for r in raw.iter_mut() {
                *r += p;
                p *= x;
            }
        }
        for r in raw.iter_mut() {
            *r /= n;
        }
        Some(MomentStats {
            n: values.len(),
            raw,
            central: central_from_raw(raw),
        })
    }

    /// Builds stats directly from non-central moments (used by the
    /// stratified combination).
    pub fn from_raw_moments(n: usize, raw: [f64; 4]) -> MomentStats {
        MomentStats {
            n,
            raw,
            central: central_from_raw(raw),
        }
    }

    /// The mean `μ'₁`.
    pub fn mean(&self) -> f64 {
        self.raw[0]
    }

    /// The variance `μ₂`.
    pub fn variance(&self) -> f64 {
        self.central[0]
    }

    /// The standard deviation `√μ₂`.
    pub fn std_dev(&self) -> f64 {
        self.variance().max(0.0).sqrt()
    }

    /// Skewness coefficient `β₁ = μ₃²/μ₂³` (Eqn. 4.4).
    pub fn beta1(&self) -> f64 {
        let mu2 = self.central[0];
        if mu2 <= 0.0 {
            0.0
        } else {
            self.central[1].powi(2) / mu2.powi(3)
        }
    }

    /// Kurtosis coefficient `β₂ = μ₄/μ₂²` (Eqn. 4.5).
    pub fn beta2(&self) -> f64 {
        let mu2 = self.central[0];
        if mu2 <= 0.0 {
            0.0
        } else {
            self.central[2] / mu2.powi(2)
        }
    }

    /// Signed skewness `g₁ = μ₃/μ₂^{3/2}` (used by Cornish–Fisher).
    pub fn skewness(&self) -> f64 {
        let s = self.std_dev();
        if s <= 0.0 {
            0.0
        } else {
            self.central[1] / s.powi(3)
        }
    }

    /// Excess kurtosis `g₂ = μ₄/μ₂² − 3`.
    fn excess_kurtosis(&self) -> f64 {
        if self.variance() <= 0.0 {
            0.0
        } else {
            self.beta2() - 3.0
        }
    }

    /// The `gamma`-percentile (e.g. `0.95`) by the Cornish–Fisher
    /// four-moment expansion.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is not within `(0, 1)`.
    pub fn percentile(&self, gamma: f64) -> f64 {
        assert!(
            gamma > 0.0 && gamma < 1.0,
            "percentile level must be in (0,1), got {gamma}"
        );
        if self.variance() <= 0.0 {
            return self.mean();
        }
        let z = inverse_normal_cdf(gamma);
        let g1 = self.skewness();
        let g2 = self.excess_kurtosis();
        let w = z + (z * z - 1.0) * g1 / 6.0 + (z.powi(3) - 3.0 * z) * g2 / 24.0
            - (2.0 * z.powi(3) - 5.0 * z) * g1 * g1 / 36.0;
        self.mean() + self.std_dev() * w
    }
}

/// Central moments from non-central ones (thesis Eqns. 4.1–4.3, from
/// Johnson & Kotz \[13\] Eqn. (100)):
///
/// ```text
/// μ₂ = μ'₂ − μ'₁²
/// μ₃ = μ'₃ − 3 μ'₂ μ'₁ + 2 μ'₁³
/// μ₄ = μ'₄ − 4 μ'₃ μ'₁ + 6 μ'₂ μ'₁² − 3 μ'₁⁴
/// ```
pub fn central_from_raw(raw: [f64; 4]) -> [f64; 3] {
    let [m1, m2, m3, m4] = raw;
    let mu2 = m2 - m1 * m1;
    let mu3 = m3 - 3.0 * m2 * m1 + 2.0 * m1.powi(3);
    let mu4 = m4 - 4.0 * m3 * m1 + 6.0 * m2 * m1 * m1 - 3.0 * m1.powi(4);
    [mu2, mu3, mu4]
}

/// Inverse standard-normal CDF by Acklam's rational approximation
/// (|relative error| < 1.15e-9 over the whole domain).
///
/// # Panics
///
/// Panics if `p` is not within `(0, 1)`.
// Acklam's coefficients are kept verbatim from the published algorithm.
#[allow(clippy::excessive_precision)]
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must be in (0,1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_of_known_sample() {
        // 0,1,2,3,4: mean 2, μ2 = 2, μ3 = 0, μ4 = 6.8.
        let s = MomentStats::from_sample(&[0.0, 1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.n, 5);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert!((s.variance() - 2.0).abs() < 1e-12);
        assert!(s.central[1].abs() < 1e-12);
        assert!((s.central[2] - 6.8).abs() < 1e-12);
        assert!((s.beta2() - 1.7).abs() < 1e-12);
        assert_eq!(s.beta1(), 0.0);
    }

    #[test]
    fn empty_sample_is_none() {
        assert!(MomentStats::from_sample(&[]).is_none());
    }

    #[test]
    fn constant_sample_degenerates_gracefully() {
        let s = MomentStats::from_sample(&[3.0, 3.0, 3.0]).unwrap();
        assert_eq!(s.mean(), 3.0);
        assert!(s.variance().abs() < 1e-12);
        assert_eq!(s.percentile(0.99), 3.0);
        assert_eq!(s.skewness(), 0.0);
    }

    #[test]
    fn skewed_sample_has_positive_beta1() {
        let s = MomentStats::from_sample(&[0.0, 0.0, 0.0, 0.0, 10.0]).unwrap();
        assert!(s.skewness() > 0.0);
        assert!(s.beta1() > 0.0);
    }

    #[test]
    fn inverse_normal_known_values() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-5);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-5);
        assert!((inverse_normal_cdf(0.84134) - 1.0).abs() < 1e-3);
        assert!((inverse_normal_cdf(0.999) - 3.090232).abs() < 1e-5);
        assert!((inverse_normal_cdf(0.001) + 3.090232).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn inverse_normal_rejects_out_of_range() {
        inverse_normal_cdf(1.0);
    }

    #[test]
    fn percentiles_of_normal_like_sample() {
        // A symmetric sample: Cornish–Fisher reduces to mean + z·σ.
        let values: Vec<f64> = (-500..=500).map(|i| i as f64 / 100.0).collect();
        let s = MomentStats::from_sample(&values).unwrap();
        let p95 = s.percentile(0.95);
        let expected = s.mean() + inverse_normal_cdf(0.95) * s.std_dev();
        // Platykurtic uniform-ish sample shifts the estimate a bit; the
        // skewness term is zero though.
        assert!((p95 - expected).abs() < 0.5, "{p95} vs {expected}");
        // Monotonicity in gamma.
        assert!(s.percentile(0.9) < s.percentile(0.95));
        assert!(s.percentile(0.05) < s.percentile(0.5));
    }

    #[test]
    fn central_from_raw_matches_direct() {
        let values = [1.5, 2.5, 3.0, 7.25, 0.5];
        let s = MomentStats::from_sample(&values).unwrap();
        let mean = s.mean();
        let n = values.len() as f64;
        let direct2: f64 = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let direct3: f64 = values.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n;
        let direct4: f64 = values.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
        assert!((s.central[0] - direct2).abs() < 1e-9);
        assert!((s.central[1] - direct3).abs() < 1e-9);
        assert!((s.central[2] - direct4).abs() < 1e-9);
    }
}
