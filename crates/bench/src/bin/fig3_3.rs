//! Regenerates **Figure 3.3**: correct fault injection probability as a
//! function of time spent in a state, 1 ms Linux timeslice (§3.2.2).
//!
//! ```text
//! cargo run -p loki-bench --release --bin fig3_3 [experiments_per_point]
//! ```

use loki_bench::accuracy::print_accuracy_figure;

fn main() {
    let experiments: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);
    print_accuracy_figure(
        "Figure 3.3",
        1_000_000,
        &[
            0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 7.5, 10.0,
        ],
        experiments,
        0x0303,
        "# Paper shape: the knee moves in with the timeslice — accuracy reaches ~1.0\n\
         # once time-in-state exceeds ~2-3 ms (a couple of 1 ms timeslices).",
    );
}
