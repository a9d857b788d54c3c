//! The bound estimator, the thesis's `alphabeta`: the two constraint hulls
//! of a machine's sync samples, walked to the zero crossings of `U − L`
//! in exact rationals, each extreme rounded outward once.

use super::{AlphaBetaBounds, SyncError, SyncOptions, MAX_READING_NS};
use loki_core::campaign::SyncSample;
use std::cmp::Ordering;

/// Estimates `(α, β)` bounds for one machine from its sync samples: the
/// exact extremes of the feasible polygon, rounded outward (see the `sync`
/// module docs). Two allocations per call, one per hull.
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
pub(super) fn wide(a: i64, b: i64) -> i128 {
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
pub(super) fn decompose(f: f64) -> (i64, i32) {
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
