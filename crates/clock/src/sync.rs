//! Off-line clock synchronization: bounds on clock offset α and drift β.
//!
//! Loki calibrates each machine's clock against a reference machine *after*
//! the experiment, from synchronization messages exchanged in mini-phases
//! before and after each run (§2.5). Unlike statistical confidence
//! intervals, the computed intervals `[α⁻, α⁺]` and `[β⁻, β⁺]` *always*
//! contain the true values: each message yields a hard one-sided constraint
//! (a message cannot be received before it is sent), and the feasible set of
//! `(β, α)` pairs is the intersection of those half-planes — a convex
//! polygon. This module reports that polygon's exact extremes, found on the
//! two convex hulls of the samples (the "convex hull" method of Duda et al.
//! used by the thesis's `alphabeta` tool).
//!
//! Writing `C_i = α + β·C_r` for the calibrated clock in terms of the
//! reference clock:
//!
//! * a message **reference → machine** sent at reference reading `S_r` and
//!   received at machine reading `R_i` implies `R_i ≥ α + β·S_r`;
//! * a message **machine → reference** sent at `S_i` and received at `R_r`
//!   implies `S_i ≤ α + β·R_r`.
//!
//! # Algorithm
//!
//! Each sample is an integer point `(x, y)`: `x` is the reference reading,
//! `y` the machine reading plus the slack for a reference → machine message
//! (an *upper* constraint `α ≤ y − β·x`) and minus the slack for a
//! machine → reference one (a *lower* constraint `α ≥ y − β·x`). At a given
//! β the feasible offsets are
//!
//! ```text
//! L(β) = max over lower points (y − β·x)  ≤  α  ≤  U(β) = min over upper points (y − β·x)
//! ```
//!
//! U is attained on the lower convex hull of the upper points and L on the
//! upper hull of the lower points. Both hulls are built by monotone chain
//! in O(n): the samples arrive sorted by `x`, and a copy is sorted only when
//! they do not. `U − L` is concave, so the feasible β form one interval
//! `[b1, b2]` of the β box; walking the two hulls' breakpoints from each end
//! of the box to the first zero of `U − L` finds `b1` and `b2` in O(n).
//! Readings are never negative, so U and L are non-increasing in β, and the
//! extreme offsets are `α⁺ = U(b1)` and `α⁻ = L(b2)`.
//!
//! # Exactness
//!
//! Every quantity above is a ratio of integers: the β box ends are read as
//! the exact dyadic rationals their `f64`s are, hull slopes and zero
//! crossings are ratios of reading differences, and an offset is
//! `y − (p/q)·x`. While every reading plus the slack stays below
//! [`MAX_READING_NS`] (2⁶² ns, about 146 years) and the β box lies within
//! `[2⁻¹⁰, 2¹⁰]`, every product the walk forms fits in `i128`; a reading
//! past the range is [`SyncError::OutOfRange`], a box past it
//! [`SyncError::InvalidOptions`]. Each of the four extremes is then rounded
//! outward to `f64` once, so the bounds enclose the exact polygon and do not
//! depend on the algorithm that found it.
//!
//! [`AlphaBetaBounds::project`] reads those `f64`s as the exact dyadic
//! rationals they are and rounds `(C − α)/β` outward to whole nanoseconds
//! once, so a projected interval encloses the exact projection over the box.
//!
//! # Layout
//!
//! This file holds the options, the errors and the bounds. The hull walk
//! that finds them is `estimate` ([`estimate_alpha_beta`]); the exact
//! projection through them is `project` ([`Projector`]).

use crate::params::ClockParams;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

mod estimate;
mod project;
#[cfg(test)]
mod tests;

pub use estimate::estimate_alpha_beta;
pub use project::Projector;

/// Readings at or past this value, plus the slack for a sync sample, are
/// outside the exact arithmetic's range (2⁶² ns, about 146 years): see the
/// module docs.
pub const MAX_READING_NS: u64 = 1 << 62;

/// The β box the exact arithmetic covers, in the estimate and in the
/// projection: `[2⁻¹⁰, 2¹⁰]`.
const BETA_MIN: f64 = 1.0 / 1024.0;
const BETA_MAX: f64 = 1024.0;

/// Options for the bound estimation.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SyncOptions {
    /// Physical plausibility box for the drift β (`C_i` ns per `C_r` ns).
    /// Real clock drifts are within ±a few hundred ppm; the default box of
    /// `[0.9, 1.1]` is generous.
    pub beta_range: (f64, f64),
    /// Slack added to each constraint, in nanoseconds: at least one read
    /// granule. [`VirtualClock::read`](crate::params::VirtualClock::read)
    /// floors, so a receive reading can fall short of `α + β·S` by under
    /// one granule of the receiving clock (under β granules of the
    /// reference on the way back; the reference is the fastest clock, so
    /// β ≤ 1). The bounds are otherwise exact, so a slack of 0 excludes
    /// a true `(α, β)` that such a truncated reading touches.
    pub slack_ns: u64,
}

impl SyncOptions {
    /// Checks the options before any sample is read.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::InvalidOptions`] unless
    /// `2⁻¹⁰ ≤ beta_lo ≤ beta_hi ≤ 2¹⁰` (a β box touching zero would make
    /// the projection `(C_i − α)/β` divide by zero, and the exact
    /// arithmetic covers this box) and the slack is below
    /// [`MAX_READING_NS`].
    pub fn validate(&self) -> Result<(), SyncError> {
        let (lo, hi) = self.beta_range;
        if BETA_MIN <= lo && lo <= hi && hi <= BETA_MAX && self.slack_ns < MAX_READING_NS {
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
            slack_ns: 1,
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
    /// `2⁻¹⁰ ≤ beta_lo ≤ beta_hi ≤ 2¹⁰` (a β interval touching zero would
    /// make the timestamp projection `(C_i − α)/β` divide by zero), and the
    /// slack must be below [`MAX_READING_NS`].
    InvalidOptions {
        /// The offending β box.
        beta_range: (f64, f64),
        /// The offending slack.
        slack_ns: u64,
    },
    /// A sample reading plus the slack, or a reading to project, reaches
    /// [`MAX_READING_NS`], past the range the exact arithmetic covers.
    OutOfRange {
        /// The offending reading, in nanoseconds.
        reading_ns: u64,
    },
    /// [`AlphaBetaBounds::project`] was given a box with a corner it cannot
    /// evaluate: an α bound that is not finite, or a β bound outside
    /// `[2⁻¹⁰, 2¹⁰]` (the box [`SyncOptions::validate`] admits and the exact
    /// arithmetic covers; a β of zero, say, has no finite corner).
    InvalidBox,
    /// The exact projection of a reading reaches
    /// `±`[`GlobalNanos::LIMIT`](loki_core::time::GlobalNanos::LIMIT) (2⁶²
    /// ns): a whole-ns bound would leave the range of global time.
    ProjectionOutOfRange {
        /// The projected reading, in nanoseconds.
        reading_ns: u64,
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
                "invalid sync options: need 2^-10 <= beta_lo <= beta_hi <= 2^10 and slack_ns < 2^62 \
                 (got beta_range = [{lo}, {hi}], slack_ns = {slack_ns})"
            ),
            SyncError::OutOfRange { reading_ns } => write!(
                f,
                "reading {reading_ns} ns (plus the slack, for a sync sample) is not below 2^62 ns"
            ),
            SyncError::InvalidBox => write!(
                f,
                "cannot project through an alpha/beta box unless alpha is finite and 2^-10 <= beta <= 2^10"
            ),
            SyncError::ProjectionOutOfRange { reading_ns } => write!(
                f,
                "reading {reading_ns} ns projects outside the +-2^62 ns of global time"
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

    /// The midpoint estimate `(α, β)` (useful for reporting, not for
    /// correctness checks).
    pub fn midpoint(&self) -> (f64, f64) {
        (
            (self.alpha_lo + self.alpha_hi) / 2.0,
            (self.beta_lo + self.beta_hi) / 2.0,
        )
    }
}

/// Ground-truth helper for tests and the simulator: the true `(α, β)` of
/// `machine` relative to `reference`.
pub fn true_alpha_beta(machine: &ClockParams, reference: &ClockParams) -> (f64, f64) {
    machine.relative_to(reference)
}
