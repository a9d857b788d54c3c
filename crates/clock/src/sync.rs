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

use crate::params::ClockParams;
use loki_core::campaign::SyncSample;
use loki_core::time::{GlobalNanos, LocalNanos, TimeBounds};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::error::Error;
use std::fmt;

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
    /// The exact projection of a reading reaches `±`[`GlobalNanos::LIMIT`]
    /// (2⁶² ns): a whole-ns bound would leave the range of global time.
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

    /// Projects a local clock reading onto the reference timeline with
    /// guaranteed-enclosing bounds (§2.5):
    ///
    /// ```text
    /// C_r(T) = (C_i(T) − α) / β
    /// ```
    ///
    /// evaluated over all `(α, β)` corners of the bound box, exactly: the
    /// result is `[⌊min⌋, ⌈max⌉]` of the four exact rational corner values,
    /// each rounded outward to a whole nanosecond once, so the true global
    /// time of the event always lies inside it. An inverted box is read as
    /// the box of its four corners.
    ///
    /// One reading through [`AlphaBetaBounds::projector`]; many readings
    /// through one box should hold on to the [`Projector`], which
    /// validates and decomposes the box once.
    ///
    /// # Errors
    ///
    /// As [`Projector::project`].
    #[inline]
    pub fn project(&self, local: LocalNanos) -> Result<TimeBounds, SyncError> {
        self.projector().project(local)
    }

    /// The box prepared for [`Projector::project`]: validated, and each
    /// corner's α and β decomposed into the integers the exact rounding
    /// works with. An invalid box still gives a projector, whose every
    /// in-range reading is [`SyncError::InvalidBox`].
    pub fn projector(&self) -> Projector {
        let in_box = |beta: f64| (BETA_MIN..=BETA_MAX).contains(&beta);
        let valid = self.alpha_lo.is_finite()
            && self.alpha_hi.is_finite()
            && in_box(self.beta_lo)
            && in_box(self.beta_hi);
        Projector {
            corners: valid.then(|| {
                [
                    (self.alpha_hi, self.beta_hi),
                    (self.alpha_hi, self.beta_lo),
                    (self.alpha_lo, self.beta_hi),
                    (self.alpha_lo, self.beta_lo),
                ]
                .map(|(alpha, beta)| CornerForm::new(alpha, beta))
            }),
            ordered: self.alpha_lo <= self.alpha_hi && self.beta_lo <= self.beta_hi,
        }
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

/// An [`AlphaBetaBounds`] box prepared for projecting many readings:
/// [`AlphaBetaBounds::projector`] validates it and decomposes each
/// corner's α and β once, and [`Projector::project`] then costs each
/// reading only its own products. `make_global` holds one per host stint.
///
/// # Examples
///
/// ```
/// use loki_clock::sync::AlphaBetaBounds;
/// use loki_core::time::{GlobalNanos, LocalNanos};
///
/// let bounds = AlphaBetaBounds {
///     alpha_lo: 1_000.0,
///     alpha_hi: 1_000.5,
///     beta_lo: 1.0,
///     beta_hi: 1.0,
/// };
/// let projector = bounds.projector();
/// let t = projector.project(LocalNanos(11_000))?;
/// assert_eq!((t.lo, t.hi), (GlobalNanos(9_999), GlobalNanos(10_000)));
/// assert_eq!(Ok(t), bounds.project(LocalNanos(11_000)));
/// # Ok::<(), loki_clock::sync::SyncError>(())
/// ```
#[derive(Copy, Clone, Debug)]
pub struct Projector {
    /// The corners `(α⁺, β⁺)`, `(α⁺, β⁻)`, `(α⁻, β⁺)`, `(α⁻, β⁻)`; `None`
    /// for an invalid box.
    corners: Option<[CornerForm; 4]>,
    /// `α⁻ ≤ α⁺` and `β⁻ ≤ β⁺`.
    ordered: bool,
}

impl Projector {
    /// Projects `local` through the box: exactly
    /// [`AlphaBetaBounds::project`]'s `[⌊min⌋, ⌈max⌉]` of the exact corner
    /// values, bit for bit.
    ///
    /// The `f64` quotient is only a guess: one exact integer product
    /// against `C − α` checks each floor (ceiling) candidate and its two
    /// neighbours, and a guess further off (rare below 2⁵³ ns) is replaced
    /// by one exact `i128` division.
    ///
    /// # Errors
    ///
    /// [`SyncError::OutOfRange`] for a reading at or past
    /// [`MAX_READING_NS`], [`SyncError::InvalidBox`] for a box with an α
    /// bound that is not finite or a β bound outside `[2⁻¹⁰, 2¹⁰]`, and
    /// [`SyncError::ProjectionOutOfRange`] when a bound would reach
    /// `±`[`GlobalNanos::LIMIT`].
    #[inline]
    pub fn project(&self, local: LocalNanos) -> Result<TimeBounds, SyncError> {
        let reading_ns = local.0;
        if reading_ns >= MAX_READING_NS {
            return Err(SyncError::OutOfRange { reading_ns });
        }
        let Some([hi_hi, hi_lo, lo_hi, lo_lo]) = self.corners else {
            return Err(SyncError::InvalidBox);
        };
        let top = hi_hi.at(reading_ns)?;
        // With `C − α⁺ ≥ 0` over an ordered box of positive β, `(C − α)/β`
        // falls in both α and β: the extremes are the diagonal corners.
        // Every other box takes the four-corner scan.
        let (lo, hi) = if top.floor_num >= 0 && self.ordered {
            (top.floor(), lo_lo.at(reading_ns)?.ceil())
        } else {
            let corners = [
                top,
                hi_lo.at(reading_ns)?,
                lo_hi.at(reading_ns)?,
                lo_lo.at(reading_ns)?,
            ];
            let (floors, ceils) = (corners.map(Corner::floor), corners.map(Corner::ceil));
            (
                floors.into_iter().fold(i128::MAX, i128::min),
                ceils.into_iter().fold(i128::MIN, i128::max),
            )
        };
        let limit = i128::from(GlobalNanos::LIMIT);
        let whole = |k: i128| (-limit < k && k < limit).then_some(GlobalNanos(k as i64));
        match (whole(lo), whole(hi)) {
            (Some(lo), Some(hi)) => Ok(TimeBounds { lo, hi }),
            _ => Err(SyncError::ProjectionOutOfRange { reading_ns }),
        }
    }
}

/// One corner `(α, β)` of a valid box, decomposed for every reading. The β
/// range makes `β = den·2⁻ˢ` with `den` a 53-bit integer and
/// `s ∈ [42, 62]`, so scaling by `2ˢ` turns `(C − α)/β` into
/// `(C·2ˢ − whole − f)/den` for the integer `whole = ⌊α·2ˢ⌋` and a
/// fraction `f ∈ [0, 1)` from α's bits below `2⁻ˢ`.
#[derive(Copy, Clone, Debug)]
struct CornerForm {
    /// `s`.
    shift: u32,
    /// `⌊α·2ˢ⌋`.
    whole: i128,
    /// `1` when `f > 0`, else `0`.
    frac: i128,
    den: i64,
    alpha: f64,
    beta: f64,
    /// `|α·2ˢ|` is so large that every reading projects out of range.
    too_far: bool,
}

impl CornerForm {
    /// The corner `(alpha, beta)`, for a finite `alpha` and a `beta` in
    /// `[2⁻¹⁰, 2¹⁰]`.
    fn new(alpha: f64, beta: f64) -> CornerForm {
        let (den, q) = decompose(beta);
        let s = -q;
        // α·2ˢ = a·2ᵗ, split into its floor `whole` and whether a fraction
        // is left over.
        let (a, t) = decompose(alpha);
        let a = i128::from(a);
        let (whole, frac, too_far) = if t + s >= 0 {
            // α is normal here (`|a| ≥ 2⁵²`): past a shift of 72,
            // `|α·2ˢ| ≥ 2¹²⁵` against `C·2ˢ < 2¹²⁴` leaves a quotient past
            // 2⁷¹ in magnitude, out of range.
            if t + s > 72 {
                (0, false, true)
            } else {
                (a << (t + s), false, false)
            }
        } else {
            // `|a| < 2⁵³`, so a shift of 64 leaves only its sign's floor.
            let shift = (-(t + s)).min(64);
            let whole = a >> shift;
            (whole, whole << shift != a, false)
        };
        CornerForm {
            shift: s as u32,
            whole,
            frac: i128::from(frac),
            den,
            alpha,
            beta,
            too_far,
        }
    }

    /// The corner's exact `(C − α)/β` at `reading_ns`, a reading below
    /// [`MAX_READING_NS`].
    #[inline]
    fn at(self, reading_ns: u64) -> Result<Corner, SyncError> {
        if self.too_far {
            return Err(SyncError::ProjectionOutOfRange { reading_ns });
        }
        let num = (i128::from(reading_ns) << self.shift) - self.whole;
        Ok(Corner {
            num,
            floor_num: num - self.frac,
            den: self.den,
            estimate: (reading_ns as f64 - self.alpha) / self.beta,
        })
    }
}

/// One corner's exact `(C − α)/β`, as `(num − f)/den` (see
/// [`CornerForm`]): the integer `num` is below 2¹²⁶ in magnitude.
#[derive(Copy, Clone)]
struct Corner {
    /// `⌈(C − α)·2ˢ⌉`.
    num: i128,
    /// `⌊(C − α)·2ˢ⌋`: `num − 1` when `f > 0`, else `num`.
    floor_num: i128,
    den: i64,
    /// The `f64` quotient, the guess at the floor and ceiling.
    estimate: f64,
}

impl Corner {
    /// `⌊(C − α)/β⌋`: the largest `k` with `k·den ≤ floor_num`.
    #[inline]
    fn floor(self) -> i128 {
        floor_div(self.floor_num, self.den, self.estimate)
    }

    /// `⌈(C − α)/β⌉`: the smallest `k` with `k·den ≥ num`.
    #[inline]
    fn ceil(self) -> i128 {
        floor_div(self.num - 1, self.den, self.estimate) + 1
    }
}

/// `⌊n / den⌋` for `den > 0`, from a `guess` at the quotient: one exact
/// product checks the truncated guess and its two neighbours, and only a
/// guess further off (rare below 2⁵³ ns) pays an exact division.
#[inline]
fn floor_div(n: i128, den: i64, guess: f64) -> i128 {
    // Truncated and saturated, so the product stays below 2¹¹⁷.
    let k = guess as i64;
    let r = n - wide(k, den);
    let (k, den) = (i128::from(k), i128::from(den));
    if (0..den).contains(&r) {
        k
    } else if (den..2 * den).contains(&r) {
        k + 1
    } else if (-den..0).contains(&r) {
        k - 1
    } else {
        n.div_euclid(den)
    }
}

/// Estimates `(α, β)` bounds for one machine from its sync samples: the
/// exact extremes of the feasible polygon, rounded outward (see the module
/// docs). Two allocations per call, one per hull.
///
/// # Errors
///
/// Returns [`SyncError::InvalidOptions`] when [`SyncOptions::validate`]
/// rejects `opts`, [`SyncError::OutOfRange`] when a reading plus the slack
/// reaches [`MAX_READING_NS`], [`SyncError::NotEnoughSamples`] unless
/// there is at least one sample in each direction, and
/// [`SyncError::Infeasible`] when the constraint polygon is empty.
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
    let slack = opts.slack_ns;
    // Upper points (reference → machine): α ≤ y − β·x with x the reference
    // send and y the machine receive plus the slack. Lower points
    // (machine → reference): α ≥ y − β·x with x the reference receive and
    // y the machine send minus the slack. In range, x ∈ [0, 2⁶²) and
    // y ∈ (−2⁶², 2⁶²), so every difference of two fits `i64` and every
    // product of two differences, or of one with a β box end, stays below
    // 2¹²⁵.
    let mut upper: Vec<(i64, i64)> = Vec::with_capacity(samples.len());
    let mut lower: Vec<(i64, i64)> = Vec::with_capacity(samples.len());
    for s in samples {
        let reading_ns = s.send.0.max(s.recv.0);
        if reading_ns.saturating_add(slack) >= MAX_READING_NS {
            return Err(SyncError::OutOfRange { reading_ns });
        }
        let (send, recv, slack) = (s.send.0 as i64, s.recv.0 as i64, slack as i64);
        if s.from_reference {
            upper.push((send, recv + slack));
        } else {
            lower.push((recv, send - slack));
        }
    }
    if upper.is_empty() || lower.is_empty() {
        return Err(SyncError::NotEnoughSamples {
            from_reference: upper.len(),
            to_reference: lower.len(),
        });
    }
    hull::<true>(&mut upper);
    hull::<false>(&mut lower);

    let (beta_lo, beta_hi) = opts.beta_range;
    let (from, to) = (Ratio::of_f64(beta_lo), Ratio::of_f64(beta_hi));
    let walk = |mirror, from, to| {
        let chain = |pts| Chain { pts, mirror };
        first_feasible(chain(&upper), chain(&lower), from, to).ok_or(SyncError::Infeasible)
    };
    let (b1, i, _) = walk(false, from, to)?;
    let (b2, _, j) = walk(true, to.neg(), from.neg())?;
    let b2 = b2.neg();
    Ok(AlphaBetaBounds {
        alpha_lo: round(offset_at(lower[j], b2), b2.den, Round::Down),
        alpha_hi: round(offset_at(upper[i], b1), b1.den, Round::Up),
        beta_lo: round(b1.num.into(), b1.den, Round::Down),
        beta_hi: round(b2.num.into(), b2.den, Round::Up),
    })
}

/// The numerator over `beta.den` of `y − β·x`, the offset a constraint line
/// takes at β: below 2¹²⁶ in magnitude.
fn offset_at((x, y): (i64, i64), beta: Ratio) -> i128 {
    wide(y, beta.den) - wide(beta.num, x)
}

/// The exact product of two `i64`s.
fn wide(a: i64, b: i64) -> i128 {
    i128::from(a) * i128::from(b)
}

/// Keeps in `pts` the vertices of its lower hull (`LOWER`: every point on
/// or above each edge) or upper hull, in ascending `x` with one point per
/// `x`: Andrew's monotone chain, run in place over the sorted points.
fn hull<const LOWER: bool>(pts: &mut Vec<(i64, i64)>) {
    if !pts.is_sorted_by_key(|p| p.0) {
        pts.sort_unstable();
    }
    let mut n = 0;
    for r in 0..pts.len() {
        let p = pts[r];
        if n > 0 && pts[n - 1].0 == p.0 {
            // The same x: only the lowest (highest) y bounds α.
            let top = pts[n - 1].1;
            if (LOWER && p.1 < top) || (!LOWER && p.1 > top) {
                n -= 1;
            } else {
                continue;
            }
        }
        while n >= 2 {
            let turn = cross(pts[n - 2], pts[n - 1], p);
            if (LOWER && turn > 0) || (!LOWER && turn < 0) {
                break;
            }
            n -= 1;
        }
        pts[n] = p;
        n += 1;
    }
    pts.truncate(n);
}

/// The z component of `(a − o) × (b − o)`: positive for a left turn.
fn cross(o: (i64, i64), a: (i64, i64), b: (i64, i64)) -> i128 {
    wide(a.0 - o.0, b.1 - o.1) - wide(a.1 - o.1, b.0 - o.0)
}

/// One hull as the walk reads it. `mirror` reads it right to left with `x`
/// negated: `y − β·x = y − (−β)·(−x)`, so the walk down from β⁺ is the walk
/// up from −β⁺ over the mirrored hulls.
#[derive(Copy, Clone)]
struct Chain<'a> {
    pts: &'a [(i64, i64)],
    mirror: bool,
}

impl Chain<'_> {
    fn len(self) -> usize {
        self.pts.len()
    }

    /// The index in `pts` of the walk's vertex `k`.
    fn index(self, k: usize) -> usize {
        if self.mirror {
            self.pts.len() - 1 - k
        } else {
            k
        }
    }

    fn at(self, k: usize) -> (i64, i64) {
        let (x, y) = self.pts[self.index(k)];
        (if self.mirror { -x } else { x }, y)
    }

    /// The slope of edge `k → k + 1` (its `x` step is positive).
    fn slope(self, k: usize) -> Ratio {
        let ((x0, y0), (x1, y1)) = (self.at(k), self.at(k + 1));
        Ratio {
            num: y1 - y0,
            den: x1 - x0,
        }
    }
}

/// The smallest β in `[from, to]` where `U(β) ≥ L(β)`, U being the lower
/// envelope of `upper`'s lines and L the upper envelope of `lower`'s, with
/// the index in each hull of the vertex active there; `None` when
/// `U < L` on the whole range. Each step passes one hull breakpoint.
fn first_feasible(
    upper: Chain<'_>,
    lower: Chain<'_>,
    from: Ratio,
    to: Ratio,
) -> Option<(Ratio, usize, usize)> {
    // The vertices active just above `from`: U's is past every edge of
    // slope ≤ β, L's past every edge of slope > β. Drifts lie well inside
    // the box, so U's is found from the left end and L's from the right,
    // each in a step or two.
    let mut i = 0;
    while i + 1 < upper.len() && upper.slope(i).cmp(from).is_le() {
        i += 1;
    }
    let mut j = lower.len() - 1;
    while j > 0 && lower.slope(j - 1).cmp(from).is_le() {
        j -= 1;
    }
    // On the piece where vertices i and j are active,
    // U − L = (yi − yj) − β·(xi − xj); its sign at `beta` decides.
    let gap = |i: usize, j: usize, beta: Ratio| {
        let ((xi, yi), (xj, yj)) = (upper.at(i), lower.at(j));
        wide(yi - yj, beta.den) - wide(beta.num, xi - xj)
    };
    if gap(i, j, from) >= 0 {
        return Some((from, upper.index(i), lower.index(j)));
    }
    loop {
        // The next breakpoint: U's vertex moves right, L's moves left.
        let mut next = to;
        let mut step = None;
        if i + 1 < upper.len() && upper.slope(i).cmp(next).is_lt() {
            next = upper.slope(i);
            step = Some(true);
        }
        if j > 0 && lower.slope(j - 1).cmp(next).is_lt() {
            next = lower.slope(j - 1);
            step = Some(false);
        }
        if gap(i, j, next) >= 0 {
            // U − L rises from below zero to zero or above on this piece,
            // so xi < xj and its zero is (yj − yi)/(xj − xi).
            let ((xi, yi), (xj, yj)) = (upper.at(i), lower.at(j));
            let zero = Ratio {
                num: yj - yi,
                den: xj - xi,
            };
            return Some((zero, upper.index(i), lower.index(j)));
        }
        match step {
            None => return None,
            Some(true) => i += 1,
            Some(false) => j -= 1,
        }
    }
}

/// An exact rational `num / den` with `den > 0`: a β box end, hull slope
/// or zero crossing, whose terms are below 2⁶³ in magnitude.
#[derive(Copy, Clone, Debug)]
struct Ratio {
    num: i64,
    den: i64,
}

impl Ratio {
    /// The exact value of a β box end in `[2⁻¹⁰, 2¹⁰]`, as `p / 2^s` with
    /// `p < 2⁵³` and `s ≤ 62`.
    fn of_f64(v: f64) -> Ratio {
        let (m, e) = decompose(v);
        if e >= 0 {
            return Ratio {
                num: m << e,
                den: 1,
            };
        }
        let shift = (m.trailing_zeros() as i32).min(-e);
        Ratio {
            num: m >> shift,
            den: 1 << (-e - shift),
        }
    }

    fn neg(self) -> Ratio {
        Ratio {
            num: -self.num,
            den: self.den,
        }
    }

    fn cmp(self, other: Ratio) -> Ordering {
        wide(self.num, other.den).cmp(&wide(other.num, self.den))
    }
}

/// The direction [`round`] rounds in.
#[derive(Copy, Clone)]
enum Round {
    Down,
    Up,
}

/// The nearest `f64` at or below (`Down`) or at or above (`Up`) the exact
/// `num / den`, for `den > 0` and `|num| < 2¹²⁶`.
fn round(num: i128, den: i64, dir: Round) -> f64 {
    // Within a few ulps; then step to the exact answer.
    let mut f = num as f64 / den as f64;
    let cmp = |f| cmp_f64(num, den, f);
    match dir {
        Round::Down => {
            while cmp(f).is_lt() {
                f = f.next_down();
            }
            while cmp(f.next_up()).is_ge() {
                f = f.next_up();
            }
        }
        Round::Up => {
            while cmp(f).is_gt() {
                f = f.next_up();
            }
            while cmp(f.next_down()).is_le() {
                f = f.next_down();
            }
        }
    }
    f
}

/// Orders `num / den` against the finite `f` exactly.
fn cmp_f64(num: i128, den: i64, f: f64) -> Ordering {
    // f = m·2^e: compare num·2^(−e) with m·den, scaling whichever side
    // needs it. Both sides start below 2¹²⁶ in magnitude.
    let (m, e) = decompose(f);
    let m_den = wide(m, den);
    if e >= 0 {
        cmp_shifted(m_den, e, num).reverse()
    } else {
        cmp_shifted(num, -e, m_den)
    }
}

/// `f` as `m·2^e` with `|m| < 2⁵³`.
fn decompose(f: f64) -> (i64, i32) {
    let bits = f.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32;
    let frac = (bits & ((1 << 52) - 1)) as i64;
    let (m, e) = if exp == 0 {
        (frac, -1074)
    } else {
        (frac | 1 << 52, exp - 1075)
    };
    (if bits >> 63 == 1 { -m } else { m }, e)
}

/// Orders `a·2^k` against `b` for `k ≥ 0` and `|b| < 2¹²⁶`, without
/// overflow: a shifted value at or past 2¹²⁶ outranks `b` by its sign.
fn cmp_shifted(a: i128, k: i32, b: i128) -> Ordering {
    if a == 0 {
        return 0.cmp(&b);
    }
    let bits = 128 - a.unsigned_abs().leading_zeros() as i32;
    if bits + k > 126 {
        return a.cmp(&0);
    }
    (a << k).cmp(&b)
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
            let truth = GlobalNanos(r.read(t).0 as i64);
            let proj = b.project(local).unwrap();
            assert!(
                proj.lo.0 <= truth.0 + 1 && truth.0 - 1 <= proj.hi.0,
                "t={t}: {proj:?} vs truth {truth:?}"
            );
        }
    }

    #[test]
    fn identity_bounds_are_exact() {
        let b = AlphaBetaBounds::identity();
        assert!(b.contains(0.0, 1.0));
        let p = b.project(LocalNanos(42)).unwrap();
        assert_eq!(p, TimeBounds::point(GlobalNanos(42)));
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
            slack_ns: 2_000,
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
        let p = b.project(LocalNanos(2_000_000)).unwrap();
        assert!(p.lo <= p.hi);
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
            // A slack past the exact arithmetic's range.
            SyncOptions {
                slack_ns: MAX_READING_NS,
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

    /// A box with a corner the projection cannot evaluate — an α or β that
    /// is not finite, a β of zero or outside the exact range — is a typed
    /// error, never a NaN or infinite bound.
    #[test]
    fn non_finite_corners_are_a_typed_error() {
        let good = AlphaBetaBounds {
            alpha_lo: -1.5,
            alpha_hi: 2.0,
            beta_lo: 0.999,
            beta_hi: 1.001,
        };
        assert!(good.project(LocalNanos(1_000)).is_ok());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for b in [
                AlphaBetaBounds {
                    alpha_lo: bad,
                    ..good
                },
                AlphaBetaBounds {
                    alpha_hi: bad,
                    ..good
                },
            ] {
                assert_eq!(b.project(LocalNanos(1_000)), Err(SyncError::InvalidBox));
            }
        }
        for bad in [f64::NAN, f64::INFINITY, 0.0, -0.0, -1.0, 1e-300, 2048.0] {
            for b in [
                AlphaBetaBounds {
                    beta_lo: bad,
                    ..good
                },
                AlphaBetaBounds {
                    beta_hi: bad,
                    ..good
                },
            ] {
                assert_eq!(b.project(LocalNanos(1_000)), Err(SyncError::InvalidBox));
            }
        }
        // A finite α past what `f64` can divide still projects to a typed
        // error: its corner lies out of range.
        let huge = AlphaBetaBounds {
            alpha_lo: -f64::MAX,
            ..good
        };
        assert_eq!(
            huge.project(LocalNanos(1_000)),
            Err(SyncError::ProjectionOutOfRange { reading_ns: 1_000 })
        );
    }

    /// A reading in range can still project past `±GlobalNanos::LIMIT`
    /// through a slow clock: a typed error, not an overflowed bound.
    #[test]
    fn projection_past_the_global_range_is_a_typed_error() {
        // A clock at 2⁻¹⁰ of the reference's rate, α within ±1 ns: 2⁵² ns
        // on it is 2⁶² ± 1 024 ns on the reference.
        let slow = AlphaBetaBounds {
            alpha_lo: -1.0,
            alpha_hi: 1.0,
            beta_lo: 1.0 / 1024.0,
            beta_hi: 1.0 / 1024.0,
        };
        let reading_ns = 1 << 52;
        assert_eq!(
            slow.project(LocalNanos(reading_ns)),
            Err(SyncError::ProjectionOutOfRange { reading_ns })
        );
        let inside = slow.project(LocalNanos(reading_ns - 2)).unwrap();
        assert_eq!(inside.hi, GlobalNanos(GlobalNanos::LIMIT - 1024));
        // Below zero as well: the projection is symmetric in range.
        let ahead = AlphaBetaBounds {
            alpha_lo: (1u64 << 53) as f64,
            alpha_hi: (1u64 << 53) as f64,
            ..slow
        };
        assert_eq!(
            ahead.project(LocalNanos(0)),
            Err(SyncError::ProjectionOutOfRange { reading_ns: 0 })
        );
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

    #[test]
    fn default_slack_absorbs_read_truncation_and_zero_slack_does_not() {
        // The machine runs 0.5 ns ahead of an ideal reference, so its
        // floored readings equal the reference's, and zero-delay exchanges
        // put every receive reading on its send reading: the true α = 0.5
        // lies half a granule past the unslacked upper constraints.
        let r = VirtualClock::new(ClockParams::ideal());
        let m = VirtualClock::new(ClockParams::with_drift_ppm(0.5, 0.0));
        let samples = exchange(&r, &m, 10, 500_000, |_| 0, 0);
        let (alpha, beta) = true_alpha_beta(m.params(), r.params());
        assert_eq!((alpha, beta), (0.5, 1.0));
        let b = estimate_alpha_beta(&samples, &SyncOptions::default()).unwrap();
        assert!(b.contains(alpha, beta), "{b:?}");
        let unslacked = SyncOptions {
            slack_ns: 0,
            ..Default::default()
        };
        let b0 = estimate_alpha_beta(&samples, &unslacked).unwrap();
        assert!(!b0.contains(alpha, beta), "{b0:?}");
    }
}
