//! # loki-bench
//!
//! Benchmark harness and figure-regeneration experiments for the Loki
//! reproduction. Binaries print the same rows/series the thesis's
//! evaluation reports:
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig3_2` | Figure 3.2 — P(correct injection) vs time-in-state, 10 ms timeslice |
//! | `fig3_3` | Figure 3.3 — same with a 1 ms timeslice |
//! | `fig4_2` | Figure 4.2 — predicate value timelines + observation values |
//! | `design_ablation` | §3.4.2 — notification latency and entry cost per design |
//! | `ch5_campaign` | §5.8 — coverage and correlation measures |
//! | `sync_ablation` | §2.5 — clock-bound quality vs sync rounds and jitter |
//!
//! Performance is measured by the campaign benchmark in `benchmark/` (a
//! package of its own); `benches/` keeps criterion groups only for the
//! three costs its ledger has no line for yet — fault parser, recorder and
//! `make_global` on a 32-machine view (`cargo bench`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod accuracy;
pub mod ch5;

pub use ablation::{entry_connections, notification_latency, sync_bound_quality, LatencySample};
pub use accuracy::{
    accuracy_study, accuracy_sweep, injection_accuracy, print_accuracy_figure, AccuracyConfig,
    AccuracyPoint,
};
pub use ch5::{correlation_campaign, coverage_campaign, CorrelationCampaign, CoverageCampaign};
