//! Regenerates **Figure 3.2**: correct fault injection probability as a
//! function of time spent in a state, 10 ms Linux timeslice (§3.2.2).
//!
//! ```text
//! cargo run -p loki-bench --release --bin fig3_2 [experiments_per_point]
//! ```

use loki_bench::accuracy::print_accuracy_figure;

fn main() {
    let experiments: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);
    print_accuracy_figure(
        "Figure 3.2",
        10_000_000,
        &[
            1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 25.0, 30.0, 40.0, 50.0,
        ],
        experiments,
        0x0302,
        "# Paper shape: ~0 below one timeslice, ~0.5 around one timeslice (10 ms),\n\
         # ~1.0 once time-in-state exceeds a couple of timeslices (>= 20-25 ms).",
    );
}
