//! Exactness oracle for the α/β bounds: a brute-force reference that
//! shares no code with the library.
//!
//! The reference intersects every pair of constraint lines (and every line
//! with each end of the β box), keeps the intersections that satisfy every
//! constraint, and takes the extremes of α and β over them, all in exact
//! rationals of arbitrary size. O(n³), so the sample sets stay small. Its
//! extremes, rounded outward to `f64`, must equal `estimate_alpha_beta`'s
//! bounds bit for bit on generated adversarial sets: samples exactly on a
//! hull edge, a vertex on the β box, 10¹² ns timestamps, repeated reference
//! readings, one sample per direction, unsorted input and infeasible input.
//! Where the samples come from real clocks, the true `(α, β)` must lie
//! inside the bounds as well.
//!
//! The projection has an oracle of its own in the same rationals: for any
//! box and reading, `project` must return `[⌊min⌋, ⌈max⌉]` of the four
//! exact corner values `(C − α)/β`, on generated boxes with readings near an
//! integer, below α, past 2⁵³ ns and out of range.

use loki_clock::params::{ClockParams, VirtualClock};
use loki_clock::sync::{
    estimate_alpha_beta, true_alpha_beta, AlphaBetaBounds, SyncError, SyncOptions, MAX_READING_NS,
};
use loki_core::campaign::SyncSample;
use loki_core::time::{GlobalNanos, LocalNanos, TimeBounds};
use proptest::prelude::*;
use std::cmp::Ordering;

/// A signed integer of any size: a sign and little-endian base-2³² limbs
/// with no zero limb on top (zero has no limbs and is never negative).
#[derive(Clone, Debug)]
struct Big {
    neg: bool,
    mag: Vec<u32>,
}

impl Big {
    fn of(v: i128) -> Big {
        let mut u = v.unsigned_abs();
        let mut mag = Vec::new();
        while u > 0 {
            mag.push(u as u32);
            u >>= 32;
        }
        Big { neg: v < 0, mag }
    }

    fn pow2(k: u32) -> Big {
        let mut mag = vec![0; (k / 32) as usize];
        mag.push(1 << (k % 32));
        Big { neg: false, mag }
    }

    fn trimmed(neg: bool, mut mag: Vec<u32>) -> Big {
        while mag.last() == Some(&0) {
            mag.pop();
        }
        Big {
            neg: neg && !mag.is_empty(),
            mag,
        }
    }

    fn mul(&self, o: &Big) -> Big {
        let mut out = vec![0u32; self.mag.len() + o.mag.len()];
        for (i, &a) in self.mag.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in o.mag.iter().enumerate() {
                let t = u64::from(out[i + j]) + u64::from(a) * u64::from(b) + carry;
                out[i + j] = t as u32;
                carry = t >> 32;
            }
            out[i + o.mag.len()] = carry as u32;
        }
        Big::trimmed(self.neg != o.neg, out)
    }

    fn cmp_mag(a: &[u32], b: &[u32]) -> Ordering {
        a.len()
            .cmp(&b.len())
            .then_with(|| a.iter().rev().cmp(b.iter().rev()))
    }

    fn add(&self, o: &Big) -> Big {
        if self.neg == o.neg {
            let mut out = Vec::new();
            let mut carry = 0u64;
            for k in 0..self.mag.len().max(o.mag.len()) {
                let t = u64::from(*self.mag.get(k).unwrap_or(&0))
                    + u64::from(*o.mag.get(k).unwrap_or(&0))
                    + carry;
                out.push(t as u32);
                carry = t >> 32;
            }
            out.push(carry as u32);
            return Big::trimmed(self.neg, out);
        }
        let (big, small) = match Big::cmp_mag(&self.mag, &o.mag) {
            Ordering::Less => (o, self),
            _ => (self, o),
        };
        let mut out = Vec::new();
        let mut borrow = 0i64;
        for k in 0..big.mag.len() {
            let mut t = i64::from(big.mag[k]) - i64::from(*small.mag.get(k).unwrap_or(&0)) - borrow;
            borrow = i64::from(t < 0);
            t += borrow << 32;
            out.push(t as u32);
        }
        Big::trimmed(big.neg, out)
    }

    fn sub(&self, o: &Big) -> Big {
        self.add(&Big {
            neg: !o.neg && !o.mag.is_empty(),
            mag: o.mag.clone(),
        })
    }

    fn cmp(&self, o: &Big) -> Ordering {
        match (self.neg, o.neg) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => Big::cmp_mag(&self.mag, &o.mag),
            (true, true) => Big::cmp_mag(&o.mag, &self.mag),
        }
    }

    fn to_f64(&self) -> f64 {
        let v = self
            .mag
            .iter()
            .rev()
            .fold(0.0, |acc, &limb| acc * 4_294_967_296.0 + f64::from(limb));
        if self.neg {
            -v
        } else {
            v
        }
    }
}

/// An exact rational `num / den` with `den > 0`.
#[derive(Clone, Debug)]
struct Q {
    num: Big,
    den: Big,
}

impl Q {
    fn int(v: i128) -> Q {
        Q {
            num: Big::of(v),
            den: Big::of(1),
        }
    }

    fn of_f64(f: f64) -> Q {
        assert!(f.is_finite());
        let bits = f.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32;
        let frac = (bits & ((1 << 52) - 1)) as i128;
        let (m, e) = if exp == 0 {
            (frac, -1074)
        } else {
            (frac | 1 << 52, exp - 1075)
        };
        let m = if bits >> 63 == 1 { -m } else { m };
        if e >= 0 {
            Q {
                num: Big::of(m).mul(&Big::pow2(e as u32)),
                den: Big::of(1),
            }
        } else {
            Q {
                num: Big::of(m),
                den: Big::pow2((-e) as u32),
            }
        }
    }

    fn ratio(num: Big, den: Big) -> Q {
        assert!(!den.mag.is_empty(), "zero denominator");
        if den.neg {
            Q {
                num: Big::of(0).sub(&num),
                den: Big::of(0).sub(&den),
            }
        } else {
            Q { num, den }
        }
    }

    fn sub(&self, o: &Q) -> Q {
        Q {
            num: self.num.mul(&o.den).sub(&o.num.mul(&self.den)),
            den: self.den.mul(&o.den),
        }
    }

    fn mul(&self, o: &Q) -> Q {
        Q {
            num: self.num.mul(&o.num),
            den: self.den.mul(&o.den),
        }
    }

    fn div(&self, o: &Q) -> Q {
        Q::ratio(self.num.mul(&o.den), self.den.mul(&o.num))
    }

    fn cmp(&self, o: &Q) -> Ordering {
        self.num.mul(&o.den).cmp(&o.num.mul(&self.den))
    }

    /// The largest `f64` at or below the value.
    fn floor_f64(&self) -> f64 {
        let mut f = self.num.to_f64() / self.den.to_f64();
        while Q::of_f64(f).cmp(self) == Ordering::Greater {
            f = f.next_down();
        }
        while Q::of_f64(f.next_up()).cmp(self) != Ordering::Greater {
            f = f.next_up();
        }
        f
    }

    /// The smallest `f64` at or above the value.
    fn ceil_f64(&self) -> f64 {
        let mut f = self.num.to_f64() / self.den.to_f64();
        while Q::of_f64(f).cmp(self) == Ordering::Less {
            f = f.next_up();
        }
        while Q::of_f64(f.next_down()).cmp(self) != Ordering::Less {
            f = f.next_down();
        }
        f
    }
}

/// One constraint line `α + β·x ≤ y` (`upper`) or `≥ y`.
struct Line {
    x: Q,
    y: Q,
    upper: bool,
}

/// The bounds by brute force: every pairwise intersection of the lines and
/// the two ends of the β box, filtered for feasibility.
fn reference(samples: &[SyncSample], opts: &SyncOptions) -> Result<AlphaBetaBounds, SyncError> {
    opts.validate()?;
    let slack = i128::from(opts.slack_ns);
    for s in samples {
        let reading_ns = s.send.0.max(s.recv.0);
        if i128::from(reading_ns) + slack >= i128::from(MAX_READING_NS) {
            return Err(SyncError::OutOfRange { reading_ns });
        }
    }
    let lines: Vec<Line> = samples
        .iter()
        .map(|s| {
            let (send, recv) = (i128::from(s.send.0), i128::from(s.recv.0));
            if s.from_reference {
                Line {
                    x: Q::int(send),
                    y: Q::int(recv + slack),
                    upper: true,
                }
            } else {
                Line {
                    x: Q::int(recv),
                    y: Q::int(send - slack),
                    upper: false,
                }
            }
        })
        .collect();
    let n_from = lines.iter().filter(|l| l.upper).count();
    if n_from == 0 || n_from == lines.len() {
        return Err(SyncError::NotEnoughSamples {
            from_reference: n_from,
            to_reference: lines.len() - n_from,
        });
    }
    let (beta_lo, beta_hi) = (Q::of_f64(opts.beta_range.0), Q::of_f64(opts.beta_range.1));
    // The offset line `l` takes at `beta`.
    let offset = |l: &Line, beta: &Q| l.y.sub(&beta.mul(&l.x));
    let mut candidates: Vec<(Q, Q)> = Vec::new();
    for (a, la) in lines.iter().enumerate() {
        for lb in &lines[a + 1..] {
            if la.x.cmp(&lb.x) != Ordering::Equal {
                let beta = la.y.sub(&lb.y).div(&la.x.sub(&lb.x));
                candidates.push((beta.clone(), offset(la, &beta)));
            }
        }
        for end in [&beta_lo, &beta_hi] {
            candidates.push((end.clone(), offset(la, end)));
        }
    }
    let feasible = |(beta, alpha): &(Q, Q)| {
        beta.cmp(&beta_lo) != Ordering::Less
            && beta.cmp(&beta_hi) != Ordering::Greater
            && lines.iter().all(|l| {
                let bound = offset(l, beta);
                match alpha.cmp(&bound) {
                    Ordering::Equal => true,
                    Ordering::Less => l.upper,
                    Ordering::Greater => !l.upper,
                }
            })
    };
    let vertices: Vec<&(Q, Q)> = candidates.iter().filter(|v| feasible(v)).collect();
    if vertices.is_empty() {
        return Err(SyncError::Infeasible);
    }
    let extreme = |pick: &dyn Fn(&(Q, Q)) -> &Q, want: Ordering| {
        let mut best = pick(vertices[0]);
        for v in &vertices[1..] {
            if pick(v).cmp(best) == want {
                best = pick(v);
            }
        }
        best.clone()
    };
    Ok(AlphaBetaBounds {
        alpha_lo: extreme(&|v| &v.1, Ordering::Less).floor_f64(),
        alpha_hi: extreme(&|v| &v.1, Ordering::Greater).ceil_f64(),
        beta_lo: extreme(&|v| &v.0, Ordering::Less).floor_f64(),
        beta_hi: extreme(&|v| &v.0, Ordering::Greater).ceil_f64(),
    })
}

/// A small deterministic generator (SplitMix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn sample(from_reference: bool, send: u64, recv: u64) -> SyncSample {
    SyncSample {
        from_reference,
        send: LocalNanos(send),
        recv: LocalNanos(recv),
    }
}

/// Round trips between two clocks from physical `start_ns` on: a ping at
/// each `period_ns`, its echo half a period later, each one-way delay drawn
/// from `delay`.
fn exchange(
    reference: &VirtualClock,
    machine: &VirtualClock,
    rounds: u64,
    start_ns: u64,
    period_ns: u64,
    mut delay: impl FnMut() -> u64,
) -> Vec<SyncSample> {
    let mut samples = Vec::new();
    for k in 0..rounds {
        let t = start_ns + k * period_ns;
        samples.push(sample(
            true,
            reference.read(t).0,
            machine.read(t + delay()).0,
        ));
        let t2 = t + period_ns / 2;
        samples.push(sample(
            false,
            machine.read(t2).0,
            reference.read(t2 + delay()).0,
        ));
    }
    samples
}

/// A pair of clocks with random drift and offset, `scale` ns apart at
/// physical time zero.
fn clocks(g: &mut Gen, scale: u64) -> (VirtualClock, VirtualClock) {
    let ppm = |g: &mut Gen| g.below(601) as f64 - 300.0;
    let reference = VirtualClock::new(ClockParams::with_drift_ppm(g.below(scale) as f64, ppm(g)));
    let machine = VirtualClock::new(ClockParams::with_drift_ppm(g.below(scale) as f64, ppm(g)));
    (reference, machine)
}

/// One adversarial case: the samples, the options, and the clocks they
/// came from when they came from clocks.
type Case = (
    Vec<SyncSample>,
    SyncOptions,
    Option<(VirtualClock, VirtualClock)>,
);

fn adversarial(shape: u8, g: &mut Gen) -> Case {
    let opts = SyncOptions::default();
    let rounds = 1 + g.below(6);
    match shape {
        // Clocks, a few ns to a few µs of delay, pre- and post-phase.
        0 => {
            let (r, m) = clocks(g, 1_000_000_000);
            let mut samples = exchange(&r, &m, rounds, 0, 200_000, || g.below(5_000));
            samples.extend(exchange(&r, &m, rounds, 3_000_000_000, 200_000, || {
                g.below(5_000)
            }));
            (samples, opts, Some((r, m)))
        }
        // Samples exactly on an edge: one line y = c + x, every sample on
        // it (zero delay, no slack), plus collinear extras.
        1 => {
            let c = g.below(1_000_000);
            let step = 1 + g.below(1_000);
            let mut samples = Vec::new();
            for k in 0..=rounds {
                let x = k * step;
                samples.push(sample(true, x, x + c));
                samples.push(sample(false, x + c + step / 2, x + step / 2));
            }
            let slack_ns = g.below(2);
            (samples, SyncOptions { slack_ns, ..opts }, None)
        }
        // A vertex on the β box: one upper line crossing one lower line at
        // β = 7/8 and another at β = 9/8, the box's dyadic ends, with
        // samples around them that bind nowhere in the box.
        2 => {
            let opts = SyncOptions {
                beta_range: (0.875, 1.125),
                slack_ns: 0,
            };
            let (x0, y0) = (
                1_000_000 + g.below(1_000_000),
                1_000_000 + g.below(1_000_000),
            );
            let k = 1 + g.below(10_000);
            let mut samples = vec![
                sample(true, x0, y0),
                // (x0 + 8k, y0 + 7k): crosses the upper line at 7/8.
                sample(false, y0 + 7 * k, x0 + 8 * k),
                // (x0 − 8k, y0 − 9k): crosses it at 9/8.
                sample(false, y0 - 9 * k, x0 - 8 * k),
            ];
            for _ in 0..rounds {
                let d = g.below(2 * k + 1) as i64 - k as i64;
                let x = (x0 as i64 + 8 * d) as u64;
                let rise = if d > 0 { 7 * d } else { 9 * d };
                let fall = if d > 0 { 9 * d } else { 7 * d };
                let (k, y0) = (k as i64, y0 as i64);
                samples.push(sample(true, x, (y0 + fall + 3 * k) as u64));
                samples.push(sample(false, (y0 + rise - 3 * k) as u64, x));
            }
            (samples, opts, None)
        }
        // 10¹² ns timestamps.
        3 => {
            let (r, m) = clocks(g, 1_000_000_000_000);
            let start = 1_000_000_000_000 + g.below(1_000_000_000);
            let mut samples = exchange(&r, &m, rounds, start, 300_000, || 1 + g.below(50_000));
            samples.extend(exchange(
                &r,
                &m,
                rounds,
                start + 7_000_000_000,
                300_000,
                || 1 + g.below(50_000),
            ));
            (samples, opts, Some((r, m)))
        }
        // Repeated reference readings: a coarse reference granularity, and
        // back-to-back pings in the same instant.
        4 => {
            let gran = 1 + g.below(5_000);
            let (r, m) = clocks(g, 1_000_000_000);
            let r = VirtualClock::new(r.params().granularity(gran));
            let mut samples = exchange(&r, &m, rounds, 0, 2 * gran, || g.below(3 * gran));
            samples.extend(exchange(&r, &m, rounds, 0, 2 * gran, || g.below(3 * gran)));
            let opts = SyncOptions {
                slack_ns: 2 * gran,
                ..opts
            };
            (samples, opts, Some((r, m)))
        }
        // One sample per direction.
        5 => {
            let (r, m) = clocks(g, 1_000_000_000);
            let samples = exchange(&r, &m, 1, g.below(1_000_000), 100_000, || g.below(20_000));
            (samples, opts, Some((r, m)))
        }
        // Unsorted input: a shuffled clock set.
        6 => {
            let (r, m) = clocks(g, 1_000_000_000);
            let mut samples = exchange(&r, &m, rounds + 2, 0, 100_000, || g.below(20_000));
            samples.extend(exchange(&r, &m, rounds, 900_000_000, 100_000, || {
                g.below(20_000)
            }));
            for k in (1..samples.len()).rev() {
                samples.swap(k, g.below(k as u64 + 1) as usize);
            }
            (samples, opts, Some((r, m)))
        }
        // Infeasible input: a clock set plus an echo that the machine sent
        // 10 s after the first ping's arrival but that reached the
        // reference at the ping's own send reading.
        _ => {
            let (r, m) = clocks(g, 1_000_000_000);
            let mut samples = exchange(&r, &m, rounds, 0, 100_000, || g.below(20_000));
            let (ping_sent, ping_received) = (samples[0].send.0, samples[0].recv.0);
            samples.push(sample(false, ping_received + 10_000_000_000, ping_sent));
            (samples, opts, None)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bounds_equal_the_brute_force_reference(shape in 0u8..8, seed in any::<u64>()) {
        let mut g = Gen(seed);
        let (samples, opts, clocks) = adversarial(shape, &mut g);
        let got = estimate_alpha_beta(&samples, &opts);
        let want = reference(&samples, &opts);
        prop_assert_eq!(&got, &want, "shape {} on {:?}", shape, samples);
        if let (Some((r, m)), Ok(bounds)) = (clocks, &got) {
            let (alpha, beta) = true_alpha_beta(m.params(), r.params());
            prop_assert!(
                bounds.contains(alpha, beta),
                "shape {shape}: {bounds:?} misses the truth ({alpha}, {beta})"
            );
        }
        if shape == 7 {
            prop_assert_eq!(got, Err(SyncError::Infeasible));
        }
    }

    #[test]
    fn readings_past_the_range_are_a_typed_error(seed in any::<u64>(), slack_ns in 0u64..1_000) {
        let mut g = Gen(seed);
        let (mut samples, _, _) = adversarial(0, &mut g);
        let k = g.below(samples.len() as u64) as usize;
        let reading_ns = MAX_READING_NS - slack_ns + g.below(1_000);
        samples[k].recv = LocalNanos(reading_ns);
        let opts = SyncOptions { slack_ns, ..Default::default() };
        prop_assert_eq!(
            estimate_alpha_beta(&samples, &opts),
            Err(SyncError::OutOfRange { reading_ns })
        );
        // One ns earlier the reading is in range.
        samples[k].recv = LocalNanos(MAX_READING_NS - slack_ns - 1);
        prop_assert!(!matches!(
            estimate_alpha_beta(&samples, &opts),
            Err(SyncError::OutOfRange { .. })
        ));
    }

    #[test]
    fn projection_is_the_outward_rounding_of_the_exact_corners(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let (bounds, reading_ns) = projection_case(&mut g);
        prop_assert_eq!(
            bounds.project(LocalNanos(reading_ns)),
            reference_projection(&bounds, reading_ns),
            "{:?} at {}", bounds, reading_ns
        );
    }
}

/// `[⌊min⌋, ⌈max⌉]` of the four exact corner values `(C − α)/β`, in big
/// rationals, with the library's errors for a reading, a box or a bound out
/// of range.
fn reference_projection(
    bounds: &AlphaBetaBounds,
    reading_ns: u64,
) -> Result<TimeBounds, SyncError> {
    if reading_ns >= MAX_READING_NS {
        return Err(SyncError::OutOfRange { reading_ns });
    }
    let alphas = [bounds.alpha_lo, bounds.alpha_hi];
    let betas = [bounds.beta_lo, bounds.beta_hi];
    let beta_ok = |b: f64| (1.0 / 1024.0..=1024.0).contains(&b);
    if !alphas.iter().all(|a| a.is_finite()) || !betas.iter().all(|&b| beta_ok(b)) {
        return Err(SyncError::InvalidBox);
    }
    let corners: Vec<Q> = alphas
        .iter()
        .flat_map(|&a| {
            betas.iter().map(move |&b| {
                Q::int(i128::from(reading_ns))
                    .sub(&Q::of_f64(a))
                    .div(&Q::of_f64(b))
            })
        })
        .collect();
    let lo = corners.iter().map(floor_int).min().unwrap();
    let hi = corners
        .iter()
        .map(|q| -floor_int(&Q::int(0).sub(q)))
        .max()
        .unwrap();
    let limit = 1i128 << 62;
    if lo <= -limit || hi >= limit {
        return Err(SyncError::ProjectionOutOfRange { reading_ns });
    }
    Ok(TimeBounds {
        lo: GlobalNanos(lo as i64),
        hi: GlobalNanos(hi as i64),
    })
}

/// The largest integer at or below `q`, for `|q| < 2⁹⁰`, by bisection.
fn floor_int(q: &Q) -> i128 {
    let (mut lo, mut hi) = (-(1i128 << 90), 1i128 << 90);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if Q::int(mid).cmp(q) == Ordering::Greater {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

/// A uniform draw from `[lo, hi)`.
fn uniform(g: &mut Gen, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (g.next() >> 11) as f64 / (1u64 << 53) as f64
}

/// An α and a β whose exact corner value at `reading_ns` lies within
/// 10⁻⁶ ns of the integer `k`, on either side: α is `C − k·β` rounded to
/// the `f64` below or above it.
fn near_integer_corner(g: &mut Gen, reading_ns: u64, k: i128, beta: f64) -> f64 {
    let alpha = Q::int(i128::from(reading_ns)).sub(&Q::int(k).mul(&Q::of_f64(beta)));
    if g.below(2) == 0 {
        alpha.floor_f64()
    } else {
        alpha.ceil_f64()
    }
}

/// One projection case: a box, inverted or not, and a reading.
///
/// Readings run from below the box's α (so that `C − α⁺ < 0`) through
/// 10⁹–10¹² ns to 2⁵³ ns and past it up to [`MAX_READING_NS`] and beyond.
/// Offsets include ±0, `|α| < 1` and `|α|` up to 2¹⁰⁰; drifts are near 1
/// or anywhere in the β range, where large readings project out of range.
/// Half the boxes put two corners within 10⁻⁶ ns of an integer, where a
/// plain floor or ceiling of the `f64` quotient goes wrong.
fn projection_case(g: &mut Gen) -> (AlphaBetaBounds, u64) {
    let reading_ns = match g.below(6) {
        0 => g.below(2_000_000),
        1 | 2 => 1_000_000_000 + g.below(999_000_000_000),
        3 => (1u64 << 53) - 2 + g.below(5),
        4 => (1u64 << 53) + g.below(MAX_READING_NS - (1 << 53)),
        _ => MAX_READING_NS - 2 + g.below(4),
    };
    let beta = |g: &mut Gen| match g.below(4) {
        0 => uniform(g, 1.0 / 1024.0, 1024.0),
        _ => uniform(g, 0.999, 1.001),
    };
    let alpha = |g: &mut Gen| match g.below(7) {
        0 => 0.0,
        1 => -0.0,
        2 => uniform(g, -1.0, 1.0),
        3 => uniform(g, -1e6, 1e6),
        4 => reading_ns as f64 + uniform(g, -1e3, 1e3),
        // Around the largest offsets the exact arithmetic takes.
        5 => uniform(g, -2.0, 2.0) * 2f64.powi(60 + g.below(40) as i32),
        _ => uniform(g, -1e12, 1e12),
    };
    let (mut a, mut b) = ([alpha(g), alpha(g)], [beta(g), beta(g)]);
    if g.below(2) == 0 {
        for c in 0..2 {
            let estimate = (reading_ns as f64 - a[c]) / b[c];
            let k = estimate as i128 + g.below(3) as i128 - 1;
            a[c] = near_integer_corner(g, reading_ns, k, b[c]);
        }
    }
    // Ordered, or inverted in α, β or both.
    if g.below(2) == 0 {
        a.sort_by(f64::total_cmp);
    }
    if g.below(2) == 0 {
        b.sort_by(f64::total_cmp);
    }
    let bounds = AlphaBetaBounds {
        alpha_lo: a[0],
        alpha_hi: a[1],
        beta_lo: b[0],
        beta_hi: b[1],
    };
    (bounds, reading_ns)
}

/// The two cases that first showed the `f64` quotient on the wrong side of
/// the exact value: a lower bound 4.5·10⁻⁵ ns above it, and an upper bound
/// 2.8·10⁻⁵ ns below it.
#[test]
fn projection_rounds_outward_past_the_f64_quotient() {
    let point = |alpha: f64, beta: f64| AlphaBetaBounds {
        alpha_lo: alpha,
        alpha_hi: alpha,
        beta_lo: beta,
        beta_hi: beta,
    };
    let reading = 810_979_125_308;
    let bounds = point(293_339.0, 1.000179);
    assert_eq!((reading as f64 - 293_339.0) / 1.000179, 810_833_692_738.0);
    let got = bounds.project(LocalNanos(reading)).unwrap();
    assert_eq!(got.lo, GlobalNanos(810_833_692_737));
    assert_eq!(Ok(got), reference_projection(&bounds, reading));

    let reading = 408_180_509_764;
    let bounds = point(943_843.0, 0.999828);
    assert_eq!((reading as f64 - 943_843.0) / 0.999828, 408_249_784_884.0);
    let got = bounds.project(LocalNanos(reading)).unwrap();
    assert_eq!(got.hi, GlobalNanos(408_249_784_885));
    assert_eq!(Ok(got), reference_projection(&bounds, reading));
}
