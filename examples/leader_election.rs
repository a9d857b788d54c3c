//! The thesis's Chapter-5 campaign end-to-end: the leader election test
//! application with the `bfault1` leader fault, crash/restart, off-line
//! analysis, and the §5.8 coverage measure.
//!
//! ```text
//! cargo run --example leader_election [experiments]
//! ```

use loki::apps::election::{election_factory, election_study, ElectionConfig};
use loki::core::campaign::ExperimentData;
use loki::core::fault::{FaultExpr, Trigger};
use loki::core::study::Study;
use loki::measure::prelude::*;
use loki::runtime::daemons::{RestartPlacement, RestartPolicy};
use loki::runtime::harness::{CampaignPipeline, SimHarnessConfig};
use std::rc::Rc;
use std::sync::Arc;

fn main() {
    let experiments: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(15);

    // Study 1 of §5.8: bfault1 (black:LEAD), injected by black's own probe
    // whenever black leads; the fault crashes the leader; the system may
    // restart it (coverage).
    let def = election_study("study1").fault(
        "black",
        "bfault1",
        FaultExpr::atom("black", "LEAD"),
        Trigger::Once,
    );
    let study = Arc::new(Study::compile(&def).expect("valid study"));

    let mut harness = SimHarnessConfig::three_hosts(2026);
    harness.restart = Some(RestartPolicy {
        probability: 0.8, // the system's true coverage
        delay_ns: 60_000_000,
        max_restarts: 1,
        placement: RestartPlacement::NextHost, // restart on a different host
    });

    // The §5.8 coverage study measure:
    //   ((default,      (black:CRASH),      total_duration(T, ...)),
    //    ((OBS > 0),    (black:RESTART_SM), total_duration(T, ...) > 0))
    let ever = |tl: &loki::measure::PredicateTimeline| {
        let (lo, hi) = tl.window;
        if tl.total_true(lo, hi) > 0.0 {
            1.0
        } else {
            0.0
        }
    };
    let measure = StudyMeasure::new("coverage-black")
        .step(MeasureStep {
            subset: SubsetSel::All,
            predicate: Predicate::state("black", "CRASH"),
            observation: ObservationFn::total_true(),
        })
        .step(MeasureStep {
            subset: SubsetSel::Gt(0.0),
            predicate: Predicate::state("black", "RESTART_SM"),
            observation: ObservationFn::User(Rc::new(ever)),
        });
    let mut coverage = StudyAccumulator::new(measure);

    // Restarts on *different hosts* show up in the raw timelines: the
    // pipeline's tap reads black's stint hosts before the raw data goes.
    let black = study.sm_id("black").expect("machine exists");
    let stint_hosts = |data: &ExperimentData| -> Option<Vec<String>> {
        let tl = data.timeline_for(black)?;
        (tl.stints.len() > 1).then(|| {
            tl.stints
                .iter()
                .map(|s| data.host_name(s.host).to_owned())
                .collect()
        })
    };

    // Runtime, then off-line analysis (clock sync, global timelines,
    // correctness check) on the worker, then the measure fold here.
    println!("running {experiments} experiments of study 1 (bfault1 on black:LEAD)...");
    let mut moved = Vec::new();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pipeline = CampaignPipeline::new(
        study.clone(),
        election_factory(ElectionConfig::default()),
        harness,
    );
    let summary = pipeline
        .run_tapped_with_workers(experiments, workers, stint_hosts, |analyzed, hosts| {
            coverage.push(&study, &analyzed).expect("measure evaluates");
            if let Some(hosts) = hosts.filter(|_| analyzed.accepted()) {
                moved.push((analyzed.experiment, hosts));
            }
        })
        .expect("valid campaign config");
    println!(
        "analysis: {}/{} experiments accepted",
        summary.accepted, summary.experiments
    );

    let values = coverage.values();
    println!(
        "black crashed in {} accepted experiments (it must win the election first)",
        values.len()
    );
    if let Some(stats) = coverage.stats() {
        println!(
            "coverage of a leader error in black: {:.2} (true value 0.8)",
            stats.mean()
        );
    } else {
        println!("no crashes observed — rerun with more experiments");
    }

    for (experiment, hosts) in moved {
        println!("experiment {experiment}: black ran on {hosts:?}");
    }
}
