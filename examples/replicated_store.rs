//! Fault-injecting the primary-backup replicated store: targeted crash of
//! the primary, then measuring the *unavailability window* — how long no
//! machine was `PRIMARY` — with a global-state predicate no single-node
//! injector could express.
//!
//! ```text
//! cargo run --example replicated_store [experiments]
//! ```

use loki::apps::kvstore::{kv_factory, kv_study, KvConfig};
use loki::core::fault::{FaultExpr, Trigger};
use loki::core::study::Study;
use loki::measure::prelude::*;
use loki::runtime::harness::{CampaignPipeline, SimHarnessConfig};
use std::sync::Arc;

fn main() {
    let experiments: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);

    // kv1 starts as primary; the fault kills it exactly while it is
    // PRIMARY (a *state-targeted* crash, not a random one).
    let def = kv_study("failover", 3).fault(
        "kv1",
        "kill_primary",
        FaultExpr::atom("kv1", "PRIMARY"),
        Trigger::Once,
    );
    let study = Arc::new(Study::compile(&def).expect("valid study"));

    // Unavailability: total time during which *no* machine was PRIMARY,
    // counted from the crash (first experiment half is setup).
    let no_primary = Predicate::state("kv1", "PRIMARY")
        .or(Predicate::state("kv2", "PRIMARY"))
        .or(Predicate::state("kv3", "PRIMARY"))
        .not();
    let unavailability = StudyMeasure::new("unavailability")
        .step(MeasureStep {
            subset: SubsetSel::All,
            predicate: Predicate::state("kv1", "CRASH"),
            observation: ObservationFn::total_true(),
        })
        .step(MeasureStep {
            subset: SubsetSel::Gt(0.0), // only experiments where kv1 crashed
            predicate: no_primary.clone(),
            // The *second* false-run is the failover gap: the first "no
            // primary" period is initialization. duration(F of PRIMARY...)
            // is expressed directly on the no_primary predicate: measure
            // the true-run after its second rise.
            observation: ObservationFn::duration(loki::measure::TrueFalse::True, 2, 0.0, 1e9),
        });
    let mut gaps = StudyAccumulator::new(unavailability);

    println!("running {experiments} experiments with a PRIMARY-targeted crash...");
    let pipeline = CampaignPipeline::new(
        study.clone(),
        kv_factory(KvConfig::default()),
        SimHarnessConfig::three_hosts(99),
    );
    let summary = pipeline
        .run(experiments, |analyzed| {
            gaps.push(&study, &analyzed).unwrap()
        })
        .expect("valid campaign config");
    println!(
        "analysis accepted {}/{}",
        summary.accepted, summary.experiments
    );

    match gaps.stats() {
        Some(stats) => {
            println!(
                "failover unavailability: mean {:.1} ms, std-dev {:.2} ms, p95 {:.1} ms ({} samples)",
                stats.mean(),
                stats.std_dev(),
                stats.percentile(0.95),
                stats.n
            );
            println!(
                "(expected ≈ fail_timeout {} ms + promote_delay {} ms + detection slack)",
                KvConfig::default().fail_timeout_ns / 1_000_000,
                KvConfig::default().promote_delay_ns / 1_000_000
            );
        }
        None => println!("kv1 never crashed — rerun with more experiments"),
    }
}
