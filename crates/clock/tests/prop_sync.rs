//! Property tests: the off-line synchronization's bounds are *guarantees*.
//!
//! For any linear-drift clock pair and any positive message delays, the
//! estimated `(α, β)` box must contain the true values, and every projected
//! local timestamp must contain the true global time.

use loki_clock::params::{ClockParams, VirtualClock};
use loki_clock::sync::{estimate_alpha_beta, SyncOptions};
use loki_core::campaign::SyncSample;
use proptest::prelude::*;

fn exchange(
    reference: &VirtualClock,
    machine: &VirtualClock,
    delays: &[u64],
    period_ns: u64,
    start_ns: u64,
) -> Vec<SyncSample> {
    let mut samples = Vec::new();
    for (k, chunk) in delays.chunks(2).enumerate() {
        if chunk.len() < 2 {
            break;
        }
        let t = start_ns + k as u64 * period_ns;
        samples.push(SyncSample {
            from_reference: true,
            send: reference.read(t),
            recv: machine.read(t + chunk[0]),
        });
        let t2 = t + period_ns / 2;
        samples.push(SyncSample {
            from_reference: false,
            send: machine.read(t2),
            recv: reference.read(t2 + chunk[1]),
        });
    }
    samples
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bounds_always_contain_truth(
        ref_ppm in -300.0f64..300.0,
        m_ppm in -300.0f64..300.0,
        ref_off in 0.0f64..1e9,
        m_off in 0.0f64..1e9,
        delays in prop::collection::vec(1_000u64..500_000, 8..40),
        period in 200_000u64..2_000_000,
    ) {
        let r = VirtualClock::new(ClockParams::with_drift_ppm(ref_off, ref_ppm));
        let m = VirtualClock::new(ClockParams::with_drift_ppm(m_off, m_ppm));
        let samples = exchange(&r, &m, &delays, period, 0);
        prop_assume!(samples.len() >= 4);
        let bounds = estimate_alpha_beta(&samples, &SyncOptions::default()).unwrap();
        let (alpha, beta) = m.params().relative_to(r.params());
        prop_assert!(
            bounds.contains(alpha, beta),
            "bounds {bounds:?} miss truth ({alpha}, {beta})"
        );
    }

    #[test]
    fn projection_always_contains_true_global_time(
        m_ppm in -200.0f64..200.0,
        m_off in 0.0f64..1e8,
        delays in prop::collection::vec(5_000u64..200_000, 12..24),
        event_t in 1_000_000u64..3_000_000_000,
    ) {
        let r = VirtualClock::new(ClockParams::ideal());
        let m = VirtualClock::new(ClockParams::with_drift_ppm(m_off, m_ppm));
        // Pre- and post-phase exchanges around the experiment window.
        let mut samples = exchange(&r, &m, &delays, 400_000, 0);
        samples.extend(exchange(&r, &m, &delays, 400_000, 4_000_000_000));
        let bounds = estimate_alpha_beta(&samples, &SyncOptions::default()).unwrap();
        let local = m.read(event_t);
        let truth = r.read(event_t).as_f64();
        let proj = bounds.project(local).unwrap();
        prop_assert!(
            proj.lo.as_f64() <= truth + 2.0 && truth - 2.0 <= proj.hi.as_f64(),
            "projection {proj:?} misses truth {truth}"
        );
    }

    #[test]
    fn quantized_clocks_stay_sound_with_granularity_slack(
        m_ppm in -100.0f64..100.0,
        gran in 1u64..10_000,
        delays in prop::collection::vec(20_000u64..100_000, 8..20),
    ) {
        let r = VirtualClock::new(ClockParams::ideal().granularity(gran));
        let m = VirtualClock::new(
            ClockParams::with_drift_ppm(1e6, m_ppm).granularity(gran),
        );
        let samples = exchange(&r, &m, &delays, 500_000, 0);
        prop_assume!(samples.len() >= 4);
        let opts = SyncOptions { slack_ns: 2 * gran, ..Default::default() };
        let bounds = estimate_alpha_beta(&samples, &opts).unwrap();
        let (alpha, beta) = m.params().relative_to(r.params());
        prop_assert!(bounds.contains(alpha, beta));
    }
}
