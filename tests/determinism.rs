//! Campaign determinism: the parallel campaign pipeline must produce
//! results *byte-identical* to a forced single-worker run — same
//! timelines, same sync samples, same experiment ends, and, after the
//! analysis phase, the same verdict for every experiment. Each experiment
//! seeds its own simulation from `(study_seed, experiment_index)`, so the
//! worker count and thread scheduling must be unobservable in the output.

mod common;

use loki::analysis::{analyze_one, AnalysisOptions};
use loki::apps::kvstore::{cascade_probe, cascade_study, kv_factory, storm_retry, KvConfig};
use loki::core::campaign::ExperimentData;
use loki::core::fault::{FaultExpr, Trigger};
use loki::core::probe::FaultAction;
use loki::core::study::Study;
use loki::runtime::harness::{CampaignError, CampaignPipeline, SimHarnessConfig};
use loki::runtime::AppFactory;
use std::sync::Arc;

/// The campaign's raw data, taken through the pipeline's tap, with a
/// forced pool shape: `workers` workers (the calling thread included)
/// claiming `batch` consecutive indices at a time.
fn run_shaped(
    study: &Arc<Study>,
    factory: &AppFactory,
    cfg: &SimHarnessConfig,
    experiments: u32,
    workers: usize,
    batch: usize,
) -> Vec<ExperimentData> {
    let mut cfg = cfg.clone();
    cfg.batch = Some(batch);
    common::campaign_raw(study, factory, &cfg, experiments, workers).expect("valid campaign config")
}

fn ring_campaign() -> (Arc<Study>, AppFactory) {
    common::ring_campaign("ring-determinism")
}

#[test]
fn parallel_raw_data_is_byte_identical_to_single_worker() {
    let (study, factory) = ring_campaign();
    let cfg = SimHarnessConfig::three_hosts(0xD5E7);
    let experiments = 12;

    let sequential = run_shaped(&study, &factory, &cfg, experiments, 1, 1);
    let parallel = run_shaped(&study, &factory, &cfg, experiments, 4, 1);
    // More workers than experiments must also work (workers are clamped).
    let oversubscribed = run_shaped(&study, &factory, &cfg, experiments, 64, 1);

    assert_eq!(sequential.len(), experiments as usize);
    assert_eq!(sequential, parallel, "worker count changed experiment data");
    assert_eq!(sequential, oversubscribed);

    // Experiments come back in index order.
    for (k, data) in sequential.iter().enumerate() {
        assert_eq!(data.experiment, k as u32);
    }

    // The raw path is pinned across pool shapes like the compact path is:
    // whatever the workers × K split, the driver's reset-reused worlds
    // return what a fresh world per experiment returns.
    let reference = common::fresh_world_raw(&study, &factory, &cfg, experiments);
    for workers in [1usize, 3] {
        for k in [1usize, 4] {
            assert_eq!(
                run_shaped(&study, &factory, &cfg, experiments, workers, k),
                reference,
                "workers={workers} K={k}: raw data diverged from fresh worlds"
            );
        }
    }
}

#[test]
fn parallel_and_sequential_agree_on_verdicts_and_timelines() {
    let (study, factory) = ring_campaign();
    let cfg = SimHarnessConfig::three_hosts(0xBEEF);
    let experiments = 8;

    let seq_data = run_shaped(&study, &factory, &cfg, experiments, 1, 1);
    let par_data = run_shaped(&study, &factory, &cfg, experiments, 3, 1);

    let opts = AnalysisOptions::default();
    assert_eq!(seq_data.len(), par_data.len());
    for (s, p) in seq_data.iter().zip(&par_data) {
        assert_eq!(
            analyze_one(&study, s, &opts).accepted(),
            analyze_one(&study, p, &opts).accepted(),
            "verdict diverged"
        );
        assert_eq!(s.end, p.end, "experiment end diverged");
        assert_eq!(s.timelines, p.timelines, "timelines diverged");
        assert_eq!(s.pre_sync, p.pre_sync);
        assert_eq!(s.post_sync, p.post_sync);
    }
    // The campaign does something: at least one injection was attempted
    // and at least one experiment completed.
    assert!(seq_data.iter().any(|d| d.total_injections() > 0));
}

/// The cascading-failure study plus a lossy link and a gray node: every
/// class of network fault — partition, heal, probabilistic link fault,
/// slowdown — is armed in one campaign, with the retry storm generating
/// heavy traffic through the degraded fault plane.
fn netfault_campaign() -> (Arc<Study>, AppFactory) {
    let def = cascade_study("netfault-determinism")
        .fault(
            "kv2",
            "lossy",
            FaultExpr::atom("kv2", "BACKUP"),
            Trigger::Once,
        )
        .fault(
            "kv3",
            "slowpoke",
            FaultExpr::atom("kv3", "BACKUP"),
            Trigger::Once,
        );
    let study = Study::compile_arc(&def).expect("valid study");
    let probe = cascade_probe(true)
        .on(
            "lossy",
            FaultAction::LinkFault {
                from: "host2".to_owned(),
                to: "host3".to_owned(),
                drop_prob: 0.2,
                dup_prob: 0.1,
                reorder_ns: 200_000,
                corrupt_prob: 0.05,
                extra_latency_ns: 30_000,
            },
        )
        .on(
            "slowpoke",
            FaultAction::GrayNode {
                host: "host3".to_owned(),
                slowdown: 3.0,
            },
        );
    let cfg = KvConfig {
        retry: Some(storm_retry()),
        probe,
        ..KvConfig::default()
    };
    (study, kv_factory(cfg))
}

#[test]
fn net_fault_campaign_is_byte_identical_across_workers() {
    // Network faults route every probabilistic decision (drop, dup,
    // corrupt, reorder, gray slowdown) through the per-experiment
    // simulation RNG, so the worker split must stay unobservable even
    // with the full fault vocabulary armed at once.
    let (study, factory) = netfault_campaign();
    let cfg = SimHarnessConfig::three_hosts(0x10C1);
    let experiments = 8;

    let sequential = run_shaped(&study, &factory, &cfg, experiments, 1, 1);
    let parallel = run_shaped(&study, &factory, &cfg, experiments, 4, 1);

    assert_eq!(sequential.len(), experiments as usize);
    assert_eq!(
        sequential, parallel,
        "worker count changed net-fault experiment data"
    );
    // The campaign is not vacuous: the partition, heal, and link faults
    // all actually fired somewhere in the batch.
    assert!(sequential.iter().any(|d| d.total_injections() >= 3));
}

#[test]
fn pipeline_run_takes_its_worker_count_from_config() {
    // `None` is the machine's available parallelism; whichever count
    // `run` picks, the results match a single worker's, and `Some(0)` is a
    // typed error, never a silent fallback.
    let (study, factory) = ring_campaign();
    let run = |workers| {
        let cfg = SimHarnessConfig {
            workers,
            ..SimHarnessConfig::three_hosts(7)
        };
        let mut out = Vec::new();
        let pipeline = CampaignPipeline::new(study.clone(), factory.clone(), cfg);
        let summary = pipeline.run(4, |analyzed| out.push(analyzed));
        summary.map(|summary| (out, summary.workers))
    };
    let (forced, _) = run(Some(1)).expect("valid campaign config");
    assert_eq!(run(Some(3)), Ok((forced.clone(), 3)));
    assert_eq!(run(None).expect("valid campaign config").0, forced);
    let err = run(Some(0)).expect_err("workers: Some(0) must be rejected");
    assert!(matches!(err, CampaignError::Workers(_)), "{err:?}");
}
