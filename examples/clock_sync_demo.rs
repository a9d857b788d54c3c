//! Off-line clock synchronization in isolation: how message exchanges
//! bound a remote clock's offset and drift, and why the bounds are
//! *guarantees* rather than estimates.
//!
//! ```text
//! cargo run --example clock_sync_demo
//! ```

use loki::clock::params::{ClockParams, VirtualClock};
use loki::clock::sync::{estimate_alpha_beta, SyncOptions};
use loki::core::campaign::SyncSample;

fn exchange(
    reference: &VirtualClock,
    machine: &VirtualClock,
    rounds: u64,
    period_ns: u64,
    delay_ns: impl Fn(u64) -> u64,
    start_ns: u64,
) -> Vec<SyncSample> {
    let mut samples = Vec::new();
    for k in 0..rounds {
        let t = start_ns + k * period_ns;
        samples.push(SyncSample {
            from_reference: true,
            send: reference.read(t),
            recv: machine.read(t + delay_ns(2 * k)),
        });
        let t2 = t + period_ns / 2;
        samples.push(SyncSample {
            from_reference: false,
            send: machine.read(t2),
            recv: reference.read(t2 + delay_ns(2 * k + 1)),
        });
    }
    samples
}

fn main() {
    // A remote machine whose clock is 2 ms ahead and runs 150 ppm fast.
    let reference = VirtualClock::new(ClockParams::ideal());
    let machine = VirtualClock::new(ClockParams::with_drift_ppm(2e6, 150.0));
    let (true_alpha, true_beta) = machine.params().relative_to(reference.params());
    println!("true offset alpha = {true_alpha:.0} ns, true drift beta = {true_beta:.9}");

    let jitter = |k: u64| 40_000 + (k * 37_813) % 160_000; // 40–200 µs one-way
    println!();
    println!(
        "{:>8} {:>14} {:>14} {:>16} {:>16}",
        "rounds", "alpha width", "beta width", "alpha in bounds", "beta in bounds"
    );
    for rounds in [2u64, 5, 10, 20, 50] {
        // Pre-phase at t=0 and post-phase 10 s later (the long baseline is
        // what pins the drift).
        let mut samples = exchange(&reference, &machine, rounds, 1_000_000, jitter, 0);
        samples.extend(exchange(
            &reference,
            &machine,
            rounds,
            1_000_000,
            jitter,
            10_000_000_000,
        ));
        let bounds = estimate_alpha_beta(&samples, &SyncOptions::default()).unwrap();
        println!(
            "{:>8} {:>11.1} us {:>14.2e} {:>16} {:>16}",
            rounds,
            bounds.alpha_width() / 1e3,
            bounds.beta_width(),
            bounds.alpha_lo <= true_alpha && true_alpha <= bounds.alpha_hi,
            bounds.beta_lo <= true_beta && true_beta <= bounds.beta_hi,
        );
    }

    println!();
    println!("projection: local events map to global-time *intervals* that always");
    println!("contain the truth — the foundation of the conservative injection check:");
    let samples = {
        let mut s = exchange(&reference, &machine, 20, 1_000_000, jitter, 0);
        s.extend(exchange(
            &reference,
            &machine,
            20,
            1_000_000,
            jitter,
            10_000_000_000,
        ));
        s
    };
    let bounds = estimate_alpha_beta(&samples, &SyncOptions::default()).unwrap();
    for t_physical in [1_000_000_000u64, 5_000_000_000, 9_000_000_000] {
        let local = machine.read(t_physical);
        let truth = reference.read(t_physical);
        let projected = bounds.project(local).unwrap();
        println!(
            "  local {:>14} -> global [{:.3}, {:.3}] ms (truth {:.3} ms, width {:.1} us)",
            local.as_nanos(),
            projected.lo.as_millis(),
            projected.hi.as_millis(),
            truth.as_millis_f64(),
            projected.width() as f64 / 1e3,
        );
    }
}
