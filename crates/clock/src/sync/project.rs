//! The exact projection `make_global` applies: [`AlphaBetaBounds::project`]
//! and the [`Projector`] that prepares one box for many readings, each
//! reading's `(C − α)/β` rounded outward to whole nanoseconds once.

use super::estimate::{decompose, wide};
use super::{AlphaBetaBounds, SyncError, BETA_MAX, BETA_MIN, MAX_READING_NS};
use loki_core::time::{GlobalNanos, LocalNanos, TimeBounds};

impl AlphaBetaBounds {
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
