//! Checking a *global invariant* with Loki's measure language: in the
//! token-ring protocol, two machines must never hold the token
//! simultaneously — a statement about the combined state of multiple
//! components that only a global-timeline tool can check.
//!
//! We also inject a message-drop fault (a lost token) and measure the
//! recovery latency of the regeneration protocol.
//!
//! ```text
//! cargo run --example token_ring_invariants [experiments]
//! ```

use loki::apps::token_ring::{ring_factory, ring_study, RingConfig};
use loki::core::fault::{FaultExpr, Trigger};
use loki::core::probe::{ActionProbe, FaultAction};
use loki::core::study::Study;
use loki::measure::prelude::*;
use loki::runtime::harness::{CampaignPipeline, SimHarnessConfig};
use std::sync::Arc;

fn main() {
    let experiments: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);

    // Drop one token pass while tr1 holds the token.
    let def = ring_study("ring", 3).fault(
        "tr1",
        "drop_pass",
        FaultExpr::atom("tr1", "HAS_TOKEN"),
        Trigger::Once,
    );
    let study = Arc::new(Study::compile(&def).expect("valid study"));
    let app_cfg = RingConfig {
        probe: ActionProbe::new().on("drop_pass", FaultAction::DropMessages { count: 1 }),
        ..Default::default()
    };

    // --- invariant: mutual exclusion ------------------------------------------
    // total_duration of (tri:HAS_TOKEN) & (trj:HAS_TOKEN) must be 0.
    let pairs = [("tr1", "tr2"), ("tr1", "tr3"), ("tr2", "tr3")];
    let mut mutex = pairs.map(|(a, b)| {
        StudyAccumulator::new(StudyMeasure::new("mutex").step(MeasureStep {
            subset: SubsetSel::All,
            predicate: Predicate::state(a, "HAS_TOKEN").and(Predicate::state(b, "HAS_TOKEN")),
            observation: ObservationFn::total_true(),
        }))
    });

    // --- recovery latency ------------------------------------------------------
    // Time from a TOKEN_LOST declaration to the next HAS_TOKEN anywhere.
    let any_token = Predicate::state("tr1", "HAS_TOKEN")
        .or(Predicate::state("tr2", "HAS_TOKEN"))
        .or(Predicate::state("tr3", "HAS_TOKEN"));
    let any_recover = Predicate::state("tr1", "RECOVER")
        .or(Predicate::state("tr2", "RECOVER"))
        .or(Predicate::state("tr3", "RECOVER"));
    let recovery = StudyMeasure::new("recovery")
        .step(MeasureStep {
            subset: SubsetSel::All,
            predicate: any_recover,
            observation: ObservationFn::total_true(),
        })
        .step(MeasureStep {
            subset: SubsetSel::Gt(0.0), // token loss occurred
            predicate: any_token.not(),
            // The longest token drought is the loss-to-regeneration gap.
            observation: ObservationFn::User(std::rc::Rc::new(|tl| {
                tl.steps()
                    .spans()
                    .iter()
                    .map(|(lo, hi)| hi - lo)
                    .fold(0.0, f64::max)
                    / 1e6
            })),
        });
    let mut gaps = StudyAccumulator::new(recovery);

    println!("running {experiments} experiments with a dropped token pass...");
    let pipeline = CampaignPipeline::new(
        study.clone(),
        ring_factory(app_cfg),
        SimHarnessConfig::three_hosts(314),
    );
    let summary = pipeline
        .run(experiments, |analyzed| {
            for acc in mutex.iter_mut().chain([&mut gaps]) {
                acc.push(&study, &analyzed).unwrap();
            }
        })
        .expect("valid campaign config");
    println!(
        "analysis accepted {}/{}",
        summary.accepted, summary.experiments
    );

    let worst = (mutex.iter())
        .flat_map(StudyAccumulator::values)
        .fold(0.0f64, |worst, &v| worst.max(v));
    println!("mutual exclusion: worst simultaneous HAS_TOKEN time = {worst:.3} ms (must be 0)");

    match gaps.stats() {
        Some(stats) => println!(
            "token-loss recovery: longest drought mean {:.1} ms over {} experiments \
             (≈ loss_timeout {} ms + regen_delay {} ms)",
            stats.mean(),
            stats.n,
            RingConfig::default().loss_timeout_ns / 1_000_000,
            RingConfig::default().regen_delay_ns / 1_000_000,
        ),
        None => println!("no token loss observed"),
    }
}
