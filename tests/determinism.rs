//! Campaign determinism: the parallel experiment executor must produce
//! results *byte-identical* to a forced single-worker run — same
//! timelines, same sync samples, same experiment ends, and, after the
//! analysis phase, the same verdict for every experiment. Each experiment
//! seeds its own simulation from `(study_seed, experiment_index)`, so the
//! worker count and thread scheduling must be unobservable in the output.

mod common;

use loki::analysis::{analyze, AnalysisOptions};
use loki::apps::kvstore::{cascade_probe, cascade_study, kv_factory, storm_retry, KvConfig};
use loki::core::campaign::ExperimentData;
use loki::core::fault::{FaultExpr, Trigger};
use loki::core::probe::FaultAction;
use loki::core::study::Study;
use loki::runtime::harness::{run_study, SimHarnessConfig};
use loki::runtime::AppFactory;
use std::sync::Arc;

/// `run_study` with a forced pool shape: `workers` workers (the calling
/// thread included) claiming `batch` consecutive indices at a time.
/// Forcing both keeps these tests off the `LOKI_WORKERS` / `LOKI_BATCH`
/// environment.
fn run_shaped(
    study: &Arc<Study>,
    factory: &AppFactory,
    cfg: &SimHarnessConfig,
    experiments: u32,
    workers: usize,
    batch: usize,
) -> Vec<ExperimentData> {
    let mut cfg = cfg.clone();
    cfg.workers = Some(workers);
    cfg.batch = Some(batch);
    run_study(study, factory.clone(), &cfg, experiments).expect("valid campaign config")
}

fn ring_campaign() -> (Arc<Study>, AppFactory) {
    common::ring_campaign("ring-determinism")
}

#[test]
fn parallel_run_study_is_byte_identical_to_single_worker() {
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
    let seq = analyze(&study, seq_data, &opts);
    let par = analyze(&study, par_data, &opts);

    assert_eq!(seq.len(), par.len());
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(s.accepted(), p.accepted(), "verdict diverged");
        assert_eq!(s.data.end, p.data.end, "experiment end diverged");
        assert_eq!(s.data.timelines, p.data.timelines, "timelines diverged");
        assert_eq!(s.data.pre_sync, p.data.pre_sync);
        assert_eq!(s.data.post_sync, p.data.post_sync);
    }
    // The campaign does something: at least one injection was attempted
    // and at least one experiment completed.
    assert!(seq.iter().any(|a| a.data.total_injections() > 0));
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
fn run_study_defaults_respect_env_override() {
    // `run_study` resolves its worker count from the config (None here),
    // then the LOKI_WORKERS environment variable, then available
    // parallelism — whichever it picks, the result must match a single
    // worker. The other tests in this file don't read the environment, so
    // setting the variable here doesn't race them.
    let (study, factory) = ring_campaign();
    let cfg = SimHarnessConfig::three_hosts(7);
    let forced = run_shaped(&study, &factory, &cfg, 4, 1, 1);

    std::env::set_var("LOKI_WORKERS", "3");
    let via_env = run_study(&study, factory.clone(), &cfg, 4).expect("valid campaign config");

    // Invalid worker counts are rejected loudly — a silent fallback would
    // run the campaign with a surprise worker count. Since the survivability
    // work these come back as typed `CampaignError`s, not panics.
    for bad in ["not-a-number", "0"] {
        std::env::set_var("LOKI_WORKERS", bad);
        let err = run_study(&study, factory.clone(), &cfg, 4)
            .expect_err(&format!("LOKI_WORKERS={bad:?} must be rejected"));
        assert!(err.to_string().contains("LOKI_WORKERS"), "{err}");
    }

    std::env::remove_var("LOKI_WORKERS");
    let auto = run_study(&study, factory, &cfg, 4).expect("valid campaign config");

    assert_eq!(via_env, forced);
    assert_eq!(auto, forced);
}
