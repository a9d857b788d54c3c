//! The test-side oracle for the campaign driver: every experiment on a
//! *fresh* world, one at a time, through no pool at all. The driver runs
//! campaigns on one reset-reused world per worker, spread over a
//! work-stealing pool; whatever it returns must equal this, byte for
//! byte.

#![allow(dead_code)] // each test binary uses its own subset

use loki::analysis::{analyze_one, AnalysisOptions, AnalyzedExperiment};
use loki::apps::token_ring::{ring_factory, ring_study, RingConfig};
use loki::core::campaign::ExperimentData;
use loki::core::fault::{FaultExpr, Trigger};
use loki::core::study::Study;
use loki::runtime::harness::{run_experiment, SimHarnessConfig};
use loki::runtime::AppFactory;
use std::sync::Arc;

/// The token-ring campaign the determinism suites share: a ring of three
/// members, killing the token holder once it provably holds the token.
/// Rich enough to exercise injections, token regeneration, and sync
/// phases in every experiment.
pub fn ring_campaign(name: &str) -> (Arc<Study>, AppFactory) {
    let def = ring_study(name, 3).fault(
        "tr2",
        "kill_holder",
        FaultExpr::atom("tr2", "HAS_TOKEN"),
        Trigger::Once,
    );
    let study = Study::compile_arc(&def).expect("valid study");
    (study, ring_factory(RingConfig::default()))
}

/// The raw data of experiments `0..experiments`, each from
/// `run_experiment` on a world of its own.
pub fn fresh_world_raw(
    study: &Arc<Study>,
    factory: &AppFactory,
    cfg: &SimHarnessConfig,
    experiments: u32,
) -> Vec<ExperimentData> {
    (0..experiments)
        .map(|k| run_experiment(study, factory.clone(), cfg, k).expect("valid config"))
        .collect()
}

/// [`fresh_world_raw`], analyzed one experiment at a time with the
/// default options: what a `CampaignPipeline` sink must observe.
pub fn fresh_world_reference(
    study: &Arc<Study>,
    factory: &AppFactory,
    cfg: &SimHarnessConfig,
    experiments: u32,
) -> Vec<AnalyzedExperiment> {
    let opts = AnalysisOptions::default();
    fresh_world_raw(study, factory, cfg, experiments)
        .iter()
        .map(|data| analyze_one(study, data, &opts))
        .collect()
}
