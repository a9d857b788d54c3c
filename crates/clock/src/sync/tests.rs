use super::*;
use crate::params::VirtualClock;
use loki_core::campaign::SyncSample;
use loki_core::time::{GlobalNanos, LocalNanos, TimeBounds};

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
