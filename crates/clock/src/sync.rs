//! Off-line clock synchronization: bounds on clock offset α and drift β.
//!
//! Loki calibrates each machine's clock against a reference machine *after*
//! the experiment, from synchronization messages exchanged in mini-phases
//! before and after each run (§2.5). Unlike statistical confidence
//! intervals, the computed intervals `[α⁻, α⁺]` and `[β⁻, β⁺]` *always*
//! contain the true values: each message yields a hard one-sided constraint
//! (a message cannot be received before it is sent), and the feasible set of
//! `(β, α)` pairs is the intersection of those half-planes — a convex
//! polygon. This module computes that polygon by half-plane clipping (the
//! "convex hull" method of Duda et al. used by the thesis's `alphabeta`
//! tool) and reports the polygon's extremes.
//!
//! Writing `C_i = α + β·C_r` for the calibrated clock in terms of the
//! reference clock:
//!
//! * a message **reference → machine** sent at reference reading `S_r` and
//!   received at machine reading `R_i` implies `R_i ≥ α + β·S_r`;
//! * a message **machine → reference** sent at `S_i` and received at `R_r`
//!   implies `S_i ≤ α + β·R_r`.

use crate::params::ClockParams;
use loki_core::campaign::SyncSample;
use loki_core::time::{GlobalNanos, LocalNanos, TimeBounds};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Options for the bound estimation.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SyncOptions {
    /// Physical plausibility box for the drift β (`C_i` ns per `C_r` ns).
    /// Real clock drifts are within ±a few hundred ppm; the default box of
    /// `[0.9, 1.1]` is generous.
    pub beta_range: (f64, f64),
    /// Slack added to each constraint, in nanoseconds, to absorb clock read
    /// granularity (a quantized receive timestamp can appear to precede the
    /// send timestamp by up to one granule).
    pub slack_ns: f64,
}

impl SyncOptions {
    /// Checks the options before any sample is read: a β box touching zero
    /// would divide by zero in `AlphaBetaBounds::project` (`0/0` is NaN,
    /// which trips the `TimeBounds` constructor), and a non-finite slack
    /// poisons every constraint.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::InvalidOptions`] unless
    /// `0 < beta_lo ≤ beta_hi` with finite bounds and the slack is finite
    /// and non-negative.
    pub fn validate(&self) -> Result<(), SyncError> {
        let (lo, hi) = self.beta_range;
        if lo.is_finite()
            && hi.is_finite()
            && lo > 0.0
            && lo <= hi
            && self.slack_ns.is_finite()
            && self.slack_ns >= 0.0
        {
            Ok(())
        } else {
            Err(SyncError::InvalidOptions {
                beta_range: self.beta_range,
                slack_ns: self.slack_ns,
            })
        }
    }
}

impl Default for SyncOptions {
    fn default() -> Self {
        SyncOptions {
            beta_range: (0.9, 1.1),
            slack_ns: 1.0,
        }
    }
}

/// Errors from the bound estimation.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SyncError {
    /// Bound estimation needs at least one message in each direction.
    NotEnoughSamples {
        /// Samples from the reference to the machine.
        from_reference: usize,
        /// Samples from the machine to the reference.
        to_reference: usize,
    },
    /// The constraints admit no `(α, β)` — timestamps are inconsistent with
    /// linear clocks within the configured β box (e.g. a clock stepped
    /// mid-experiment).
    Infeasible,
    /// The [`SyncOptions`] are unusable: the β box must satisfy
    /// `0 < beta_lo ≤ beta_hi` with finite bounds (a β interval touching
    /// zero would make the timestamp projection `(C_i − α)/β` divide by
    /// zero), and the slack must be finite and non-negative.
    InvalidOptions {
        /// The offending β box.
        beta_range: (f64, f64),
        /// The offending slack.
        slack_ns: f64,
    },
}

impl fmt::Display for SyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncError::NotEnoughSamples {
                from_reference,
                to_reference,
            } => write!(
                f,
                "need at least one sync message in each direction (got {from_reference} from and {to_reference} to the reference)"
            ),
            SyncError::Infeasible => {
                write!(f, "sync timestamps admit no linear clock relation")
            }
            SyncError::InvalidOptions {
                beta_range: (lo, hi),
                slack_ns,
            } => write!(
                f,
                "invalid sync options: need finite 0 < beta_lo <= beta_hi and finite slack_ns >= 0 \
                 (got beta_range = [{lo}, {hi}], slack_ns = {slack_ns})"
            ),
        }
    }
}

impl Error for SyncError {}

/// Guaranteed-enclosing bounds on the `(α, β)` of one machine's clock
/// relative to the reference clock.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlphaBetaBounds {
    /// Lower bound on the offset α (ns).
    pub alpha_lo: f64,
    /// Upper bound on the offset α (ns).
    pub alpha_hi: f64,
    /// Lower bound on the drift β.
    pub beta_lo: f64,
    /// Upper bound on the drift β.
    pub beta_hi: f64,
}

impl AlphaBetaBounds {
    /// Exact bounds for the reference machine itself: `α = 0`, `β = 1`
    /// (`α_rr = 0`, `β_rr = 1`, §2.5).
    pub fn identity() -> Self {
        AlphaBetaBounds {
            alpha_lo: 0.0,
            alpha_hi: 0.0,
            beta_lo: 1.0,
            beta_hi: 1.0,
        }
    }

    /// Whether the (true) pair `(alpha, beta)` lies within the bounds.
    pub fn contains(&self, alpha: f64, beta: f64) -> bool {
        self.alpha_lo <= alpha
            && alpha <= self.alpha_hi
            && self.beta_lo <= beta
            && beta <= self.beta_hi
    }

    /// Width of the α interval in nanoseconds.
    pub fn alpha_width(&self) -> f64 {
        self.alpha_hi - self.alpha_lo
    }

    /// Width of the β interval.
    pub fn beta_width(&self) -> f64 {
        self.beta_hi - self.beta_lo
    }

    /// Projects a local clock reading onto the reference timeline with
    /// guaranteed-enclosing bounds (§2.5):
    ///
    /// ```text
    /// C_r(T) = (C_i(T) − α) / β
    /// ```
    ///
    /// evaluated over all `(α, β)` corners of the bound box. The true global
    /// time of the event always lies inside the returned interval.
    pub fn project(&self, local: LocalNanos) -> TimeBounds {
        let ci = local.as_f64();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for alpha in [self.alpha_lo, self.alpha_hi] {
            for beta in [self.beta_lo, self.beta_hi] {
                let v = (ci - alpha) / beta;
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        TimeBounds::new(GlobalNanos(lo), GlobalNanos(hi))
    }

    /// The midpoint estimate `(α, β)` (useful for reporting, not for
    /// correctness checks).
    pub fn midpoint(&self) -> (f64, f64) {
        (
            (self.alpha_lo + self.alpha_hi) / 2.0,
            (self.beta_lo + self.beta_hi) / 2.0,
        )
    }
}

/// Estimates `(α, β)` bounds for one machine from its sync samples.
///
/// # Errors
///
/// Returns [`SyncError::InvalidOptions`] when [`SyncOptions::validate`]
/// rejects `opts`, [`SyncError::NotEnoughSamples`] unless there is at
/// least one sample in each direction, and [`SyncError::Infeasible`] when
/// the constraint polygon is empty.
///
/// # Examples
///
/// ```
/// use loki_clock::params::{ClockParams, VirtualClock};
/// use loki_clock::sync::{estimate_alpha_beta, SyncOptions};
/// use loki_core::campaign::SyncSample;
///
/// let reference = VirtualClock::new(ClockParams::ideal());
/// let machine = VirtualClock::new(ClockParams::with_drift_ppm(1e6, 80.0));
/// let mut samples = Vec::new();
/// for k in 0..20u64 {
///     let t = k * 1_000_000;
///     // reference -> machine with 100 µs delay
///     samples.push(SyncSample {
///         from_reference: true,
///         send: reference.read(t),
///         recv: machine.read(t + 100_000),
///     });
///     // machine -> reference with 100 µs delay
///     samples.push(SyncSample {
///         from_reference: false,
///         send: machine.read(t + 500_000),
///         recv: reference.read(t + 600_000),
///     });
/// }
/// let bounds = estimate_alpha_beta(&samples, &SyncOptions::default())?;
/// let (alpha, beta) = machine.params().relative_to(reference.params());
/// assert!(bounds.contains(alpha, beta));
/// # Ok::<(), loki_clock::sync::SyncError>(())
/// ```
pub fn estimate_alpha_beta(
    samples: &[SyncSample],
    opts: &SyncOptions,
) -> Result<AlphaBetaBounds, SyncError> {
    opts.validate()?;
    let n_from = samples.iter().filter(|s| s.from_reference).count();
    let n_to = samples.len() - n_from;
    if n_from == 0 || n_to == 0 {
        return Err(SyncError::NotEnoughSamples {
            from_reference: n_from,
            to_reference: n_to,
        });
    }

    // Each sample yields a constraint  y ≷ α + β·x  where x is the
    // reference-clock reading and y the machine-clock reading:
    //   reference→machine: x = send (ref),  y = recv (machine), y ≥ α + β·x
    //   machine→reference: x = recv (ref),  y = send (machine), y ≤ α + β·x
    //
    // Returns `(x, y, s)` with `s = +1` for upper constraints
    // (α + β·x ≤ y) and `−1` for lower ones. Computed on the fly — this
    // runs once per host per experiment on the analysis hot path, and
    // materializing the constraint list was a per-call allocation.
    #[inline]
    fn constraint(s: &SyncSample, slack: f64) -> (f64, f64, f64) {
        if s.from_reference {
            (s.send.as_f64(), s.recv.as_f64() + slack, 1.0)
        } else {
            (s.recv.as_f64(), s.send.as_f64() - slack, -1.0)
        }
    }

    // Center the data to keep the clipping well-conditioned: substitute
    // α' = α + β·x̄ − ȳ so constraints become  y' ≷ α' + β·x'.
    let (mut x_sum, mut y_sum) = (0.0f64, 0.0f64);
    for s in samples {
        let (x, y, _) = constraint(s, opts.slack_ns);
        x_sum += x;
        y_sum += y;
    }
    let x_bar = x_sum / samples.len() as f64;
    let y_bar = y_sum / samples.len() as f64;

    // Initial polygon: the (β, α') box.
    let (beta_lo, beta_hi) = opts.beta_range;
    let mut spread = 0.0f64;
    for s in samples {
        let (x, y, _) = constraint(s, opts.slack_ns);
        spread = spread.max((y - y_bar).abs() + beta_hi * (x - x_bar).abs());
    }
    let a_box = 4.0 * (spread + opts.slack_ns.abs() + 1.0);
    // Each clip adds at most one vertex to the 4-vertex box, so sizing both
    // buffers to `samples + 5` keeps the whole clipping sweep at exactly
    // two allocations (the ping-pong pair), down from one fresh vector per
    // constraint.
    let mut poly: Vec<(f64, f64)> = Vec::with_capacity(samples.len() + 5);
    poly.extend([
        (beta_lo, -a_box),
        (beta_hi, -a_box),
        (beta_hi, a_box),
        (beta_lo, a_box),
    ]);
    let mut clipped: Vec<(f64, f64)> = Vec::with_capacity(samples.len() + 5);

    // Clip by every constraint half-plane. In (β, α') coordinates a
    // constraint  y' ≥ α' + β·x'  is  α' + β·x' − y' ≤ 0.
    for sample in samples {
        let (x, y, s) = constraint(sample, opts.slack_ns);
        let (xp, yp) = (x - x_bar, y - y_bar);
        // f(β, α') = s · (α' + β·xp − yp) ≤ 0 with s = +1 for upper
        // constraints and −1 for lower ones.
        clip_into(&poly, &mut clipped, |beta, alpha_p| {
            s * (alpha_p + beta * xp - yp)
        });
        std::mem::swap(&mut poly, &mut clipped);
        if poly.is_empty() {
            return Err(SyncError::Infeasible);
        }
    }

    // Extremes over the polygon, mapping α = α' − β·x̄ + ȳ.
    let mut out = AlphaBetaBounds {
        alpha_lo: f64::INFINITY,
        alpha_hi: f64::NEG_INFINITY,
        beta_lo: f64::INFINITY,
        beta_hi: f64::NEG_INFINITY,
    };
    for &(beta, alpha_p) in &poly {
        let alpha = alpha_p - beta * x_bar + y_bar;
        out.alpha_lo = out.alpha_lo.min(alpha);
        out.alpha_hi = out.alpha_hi.max(alpha);
        out.beta_lo = out.beta_lo.min(beta);
        out.beta_hi = out.beta_hi.max(beta);
    }
    Ok(out)
}

/// Sutherland–Hodgman clip of a convex polygon by the half-plane
/// `f(x, y) ≤ 0`, written into `out` (cleared first) so the caller can
/// ping-pong two buffers instead of allocating per clip.
fn clip_into(poly: &[(f64, f64)], out: &mut Vec<(f64, f64)>, f: impl Fn(f64, f64) -> f64) {
    out.clear();
    let n = poly.len();
    for i in 0..n {
        let p = poly[i];
        let q = poly[(i + 1) % n];
        let fp = f(p.0, p.1);
        let fq = f(q.0, q.1);
        if fp <= 0.0 {
            out.push(p);
        }
        if (fp < 0.0 && fq > 0.0) || (fp > 0.0 && fq < 0.0) {
            let t = fp / (fp - fq);
            out.push((p.0 + t * (q.0 - p.0), p.1 + t * (q.1 - p.1)));
        }
    }
}

/// Ground-truth helper for tests and the simulator: the true `(α, β)` of
/// `machine` relative to `reference`.
pub fn true_alpha_beta(machine: &ClockParams, reference: &ClockParams) -> (f64, f64) {
    machine.relative_to(reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::VirtualClock;

    /// Generates `n` round trips between the reference and a machine with
    /// the given one-way delays (physical ns).
    fn exchange(
        reference: &VirtualClock,
        machine: &VirtualClock,
        n: u64,
        period_ns: u64,
        delay: impl Fn(u64) -> u64,
        start_ns: u64,
    ) -> Vec<SyncSample> {
        let mut samples = Vec::new();
        for k in 0..n {
            let t = start_ns + k * period_ns;
            samples.push(SyncSample {
                from_reference: true,
                send: reference.read(t),
                recv: machine.read(t + delay(2 * k)),
            });
            let t2 = t + period_ns / 2;
            samples.push(SyncSample {
                from_reference: false,
                send: machine.read(t2),
                recv: reference.read(t2 + delay(2 * k + 1)),
            });
        }
        samples
    }

    #[test]
    fn bounds_contain_truth_constant_delay() {
        let r = VirtualClock::new(ClockParams::ideal());
        let m = VirtualClock::new(ClockParams::with_drift_ppm(2e6, 150.0));
        let samples = exchange(&r, &m, 10, 1_000_000, |_| 120_000, 0);
        let b = estimate_alpha_beta(&samples, &SyncOptions::default()).unwrap();
        let (alpha, beta) = m.params().relative_to(r.params());
        assert!(b.contains(alpha, beta), "{b:?} vs ({alpha}, {beta})");
    }

    #[test]
    fn bounds_contain_truth_variable_delay() {
        let r = VirtualClock::new(ClockParams::with_drift_ppm(7e5, -60.0));
        let m = VirtualClock::new(ClockParams::with_drift_ppm(9e6, 210.0));
        // Jittery delays between 40 and 400 µs.
        let samples = exchange(&r, &m, 25, 800_000, |k| 40_000 + (k * 37_813) % 360_000, 0);
        let b = estimate_alpha_beta(&samples, &SyncOptions::default()).unwrap();
        let (alpha, beta) = m.params().relative_to(r.params());
        assert!(b.contains(alpha, beta), "{b:?} vs ({alpha}, {beta})");
    }

    #[test]
    fn two_phases_tighten_beta() {
        let r = VirtualClock::new(ClockParams::ideal());
        let m = VirtualClock::new(ClockParams::with_drift_ppm(1e6, 75.0));
        let pre = exchange(&r, &m, 10, 500_000, |_| 100_000, 0);
        let mut both = pre.clone();
        // Post-phase 10 physical seconds later: a long baseline pins β.
        both.extend(exchange(&r, &m, 10, 500_000, |_| 100_000, 10_000_000_000));
        let b_pre = estimate_alpha_beta(&pre, &SyncOptions::default()).unwrap();
        let b_both = estimate_alpha_beta(&both, &SyncOptions::default()).unwrap();
        assert!(b_both.beta_width() < b_pre.beta_width() / 10.0);
        let (alpha, beta) = m.params().relative_to(r.params());
        assert!(b_both.contains(alpha, beta));
    }

    #[test]
    fn projection_contains_true_global_time() {
        let r = VirtualClock::new(ClockParams::ideal());
        let m = VirtualClock::new(ClockParams::with_drift_ppm(3e6, 95.0));
        let mut samples = exchange(&r, &m, 10, 500_000, |k| 50_000 + k * 13_337 % 90_000, 0);
        samples.extend(exchange(&r, &m, 10, 500_000, |_| 75_000, 5_000_000_000));
        let b = estimate_alpha_beta(&samples, &SyncOptions::default()).unwrap();
        // An event at physical time T: true global time is the reference
        // clock's reading at T.
        for t in [1_234_567u64, 2_500_000_000, 4_999_999_999] {
            let local = m.read(t);
            let truth = r.read(t).as_f64();
            let proj = b.project(local);
            assert!(
                proj.lo.as_f64() <= truth + 1.0 && truth - 1.0 <= proj.hi.as_f64(),
                "t={t}: {proj:?} vs truth {truth}"
            );
        }
    }

    #[test]
    fn identity_bounds_are_exact() {
        let b = AlphaBetaBounds::identity();
        assert!(b.contains(0.0, 1.0));
        let p = b.project(LocalNanos(42));
        assert_eq!(p.lo.as_f64(), 42.0);
        assert_eq!(p.hi.as_f64(), 42.0);
    }

    #[test]
    fn needs_samples_both_directions() {
        let only_from = vec![SyncSample {
            from_reference: true,
            send: LocalNanos(0),
            recv: LocalNanos(100),
        }];
        assert!(matches!(
            estimate_alpha_beta(&only_from, &SyncOptions::default()),
            Err(SyncError::NotEnoughSamples { .. })
        ));
        assert!(matches!(
            estimate_alpha_beta(&[], &SyncOptions::default()),
            Err(SyncError::NotEnoughSamples { .. })
        ));
    }

    #[test]
    fn inconsistent_samples_are_infeasible() {
        // A message "received before it was sent" (beyond slack) on both
        // directions with contradictory offsets.
        let samples = vec![
            SyncSample {
                from_reference: true,
                send: LocalNanos(1_000_000),
                recv: LocalNanos(0),
            },
            SyncSample {
                from_reference: false,
                send: LocalNanos(10_000_000),
                recv: LocalNanos(0),
            },
        ];
        assert_eq!(
            estimate_alpha_beta(&samples, &SyncOptions::default()),
            Err(SyncError::Infeasible)
        );
    }

    #[test]
    fn quantized_clocks_respect_slack() {
        // 1 µs granularity clocks: receive timestamps can round below send.
        let r = VirtualClock::new(ClockParams::ideal().granularity(1000));
        let m = VirtualClock::new(ClockParams::with_drift_ppm(5e5, 30.0).granularity(1000));
        let samples = exchange(&r, &m, 15, 400_000, |_| 1_500, 0);
        let opts = SyncOptions {
            slack_ns: 2_000.0,
            ..Default::default()
        };
        let b = estimate_alpha_beta(&samples, &opts).unwrap();
        let (alpha, beta) = m.params().relative_to(r.params());
        assert!(b.contains(alpha, beta));
    }

    #[test]
    fn single_sample_each_direction_is_enough() {
        // The minimum legal input: one message per direction. Bounds are
        // wide but valid and contain the truth.
        let r = VirtualClock::new(ClockParams::ideal());
        let m = VirtualClock::new(ClockParams::with_drift_ppm(1e6, 50.0));
        let samples = vec![
            SyncSample {
                from_reference: true,
                send: r.read(0),
                recv: m.read(100_000),
            },
            SyncSample {
                from_reference: false,
                send: m.read(500_000),
                recv: r.read(600_000),
            },
        ];
        let b = estimate_alpha_beta(&samples, &SyncOptions::default()).unwrap();
        let (alpha, beta) = m.params().relative_to(r.params());
        assert!(b.contains(alpha, beta), "{b:?} vs ({alpha}, {beta})");
        assert!(b.alpha_lo <= b.alpha_hi && b.beta_lo <= b.beta_hi);
    }

    #[test]
    fn identical_timestamps_do_not_panic() {
        // All sync messages carry the same instant (e.g. a clock with
        // granularity coarser than the whole mini-phase). The constraints
        // are satisfiable (α ≈ 0 works), so this must produce bounds, not
        // a crash or an inverted interval.
        let s = |from_reference| SyncSample {
            from_reference,
            send: LocalNanos(1_000_000),
            recv: LocalNanos(1_000_000),
        };
        let samples = vec![s(true), s(true), s(false), s(false)];
        let b = estimate_alpha_beta(&samples, &SyncOptions::default()).unwrap();
        assert!(b.alpha_lo <= 0.0 && 0.0 <= b.alpha_hi, "{b:?}");
        assert!(b.beta_lo <= b.beta_hi, "{b:?}");
        // Projection through those wide-but-valid bounds stays ordered.
        let p = b.project(LocalNanos(2_000_000));
        assert!(p.lo.as_f64() <= p.hi.as_f64());
    }

    #[test]
    fn zero_drift_identical_clocks_give_tight_valid_bounds() {
        // Reference and machine are the same ideal clock: α = 0, β = 1
        // exactly. Degenerate (every constraint passes through the truth)
        // but must not panic or go infeasible.
        let r = VirtualClock::new(ClockParams::ideal());
        let m = VirtualClock::new(ClockParams::ideal());
        let samples = exchange(&r, &m, 10, 500_000, |_| 80_000, 0);
        let b = estimate_alpha_beta(&samples, &SyncOptions::default()).unwrap();
        assert!(b.contains(0.0, 1.0), "{b:?}");
    }

    #[test]
    fn invalid_options_are_a_typed_error() {
        let samples = vec![
            SyncSample {
                from_reference: true,
                send: LocalNanos(0),
                recv: LocalNanos(100),
            },
            SyncSample {
                from_reference: false,
                send: LocalNanos(200),
                recv: LocalNanos(300),
            },
        ];
        for opts in [
            // β box spanning zero divides by zero in project().
            SyncOptions {
                beta_range: (-0.5, 1.1),
                ..Default::default()
            },
            // Inverted β box.
            SyncOptions {
                beta_range: (1.1, 0.9),
                ..Default::default()
            },
            // Non-finite β bound.
            SyncOptions {
                beta_range: (0.9, f64::INFINITY),
                ..Default::default()
            },
            // Negative slack silently tightens constraints past the truth.
            SyncOptions {
                slack_ns: -1.0,
                ..Default::default()
            },
            // Non-finite slack poisons every constraint.
            SyncOptions {
                slack_ns: f64::NAN,
                ..Default::default()
            },
        ] {
            assert!(
                matches!(opts.validate(), Err(SyncError::InvalidOptions { .. })),
                "{opts:?} should be rejected"
            );
            assert!(
                matches!(
                    estimate_alpha_beta(&samples, &opts),
                    Err(SyncError::InvalidOptions { .. })
                ),
                "{opts:?} should be rejected"
            );
        }
        assert_eq!(SyncOptions::default().validate(), Ok(()));
    }

    #[test]
    fn tighter_delays_give_tighter_alpha() {
        let r = VirtualClock::new(ClockParams::ideal());
        let m = VirtualClock::new(ClockParams::with_drift_ppm(1e6, 40.0));
        let tight = exchange(&r, &m, 10, 500_000, |_| 10_000, 0);
        let loose = exchange(&r, &m, 10, 500_000, |_| 500_000, 0);
        let bt = estimate_alpha_beta(&tight, &SyncOptions::default()).unwrap();
        let bl = estimate_alpha_beta(&loose, &SyncOptions::default()).unwrap();
        assert!(bt.alpha_width() < bl.alpha_width());
    }
}
