//! Ablation: how the synchronization mini-phases drive the quality of the
//! off-line clock bounds — and hence the conservatism of the correctness
//! check (§2.5: "bounds ... acceptably small" on a LAN).
//!
//! Sweeps (a) the number of sync rounds and (b) the network jitter, and
//! reports the resulting α-interval width (the uncertainty every projected
//! timestamp inherits) plus the drift-interval width.
//!
//! ```text
//! cargo run -p loki-bench --release --bin sync_ablation
//! ```

use loki_bench::ablation::sync_bound_quality;

fn main() {
    println!("# Sync-phase ablation: bound quality vs rounds and network jitter");
    println!("# (pre-phase at t=0, post-phase 10 s later, one-way base delay 50 us)");
    println!(
        "{:>7} {:>11} {:>14} {:>14} {:>9}",
        "rounds", "jitter_us", "alpha_width_us", "beta_width", "sound"
    );
    let mut unsound = 0u32;
    for &jitter_us in &[10u64, 50, 200, 1000] {
        for &rounds in &[2u32, 5, 10, 20, 50] {
            let (bounds, (true_alpha, true_beta)) = sync_bound_quality(rounds, jitter_us * 1_000);
            let sound = bounds.contains(true_alpha, true_beta);
            unsound += u32::from(!sound);
            println!(
                "{:>7} {:>11} {:>14.1} {:>14.2e} {:>9}",
                rounds,
                jitter_us,
                bounds.alpha_width() / 1e3,
                bounds.beta_width(),
                sound,
            );
        }
    }
    println!();
    println!("# Reading: the alpha width tracks the *minimum observed round-trip*, so more");
    println!("# rounds help exactly as much as they improve the best-case exchange; jitter");
    println!("# sets the floor. Every row must report sound=true: the bounds are guarantees.");
    println!("# The alpha width is the uncertainty added to every projected timestamp, i.e.");
    println!("# the margin the conservative injection check forfeits at state boundaries.");
    if unsound > 0 {
        eprintln!("{unsound} row(s) report bounds that miss the true (alpha, beta)");
        std::process::exit(1);
    }
}
