//! Pool-shape acceptance: each worker runs its experiments one after
//! another on one reset-reused world, claiming K consecutive indices at a
//! time, and that must be *unobservable* in the results. The sweep below
//! pins byte-identical study output for claim chunks K ∈ {1, 2, 4, 8}
//! crossed with worker counts ∈ {1, 2, 4} against the fresh-world
//! reference (`common::fresh_world_reference`: one `run_experiment` per
//! experiment, no pool), pinning that a reset-reused world replays exactly
//! like a fresh one, and checks the pipeline's retention stays within the
//! documented one-raw-experiment-per-worker bound.

mod common;

use common::fresh_world_reference;
use loki::analysis::{AnalyzedExperiment, GlobalTimeline};
use loki::apps::kvstore::{cascade_probe, cascade_study, kv_factory, storm_retry, KvConfig};
use loki::core::campaign::ExperimentEnd;
use loki::core::fault::{FaultExpr, Trigger};
use loki::core::probe::FaultAction;
use loki::core::study::Study;
use loki::runtime::harness::{
    run_study, CampaignError, CampaignPipeline, PipelineSummary, SimHarnessConfig,
};
use std::sync::Arc;

fn ring_campaign() -> (Arc<Study>, loki::runtime::AppFactory) {
    common::ring_campaign("ring-batching")
}

/// Runs the pipeline and collects every compact result in sink order.
fn run_collect(
    pipeline: &CampaignPipeline,
    experiments: u32,
    workers: usize,
) -> (Vec<AnalyzedExperiment>, PipelineSummary) {
    let mut out = Vec::with_capacity(experiments as usize);
    let summary = pipeline
        .run_with_workers(experiments, workers, |analyzed| out.push(analyzed))
        .expect("valid campaign config");
    (out, summary)
}

#[test]
fn batched_results_are_byte_identical_across_k_and_workers() {
    let (study, factory) = ring_campaign();
    let cfg = SimHarnessConfig::three_hosts(0xBA7C);
    let experiments = 10u32;

    // Reference: every experiment on a fresh world, no pool.
    let baseline = fresh_world_reference(&study, &factory, &cfg, experiments);
    assert_eq!(baseline.len(), experiments as usize);
    assert!(
        baseline.iter().any(|a| a.injections > 0),
        "campaign must inject"
    );
    let accepted = baseline.iter().filter(|a| a.accepted()).count();
    let completed = baseline
        .iter()
        .filter(|a| a.end == ExperimentEnd::Completed)
        .count();
    let injections: usize = baseline.iter().map(|a| a.injections).sum();

    for k in [1usize, 2, 4, 8] {
        for workers in [1usize, 2, 4] {
            // Explicit batch: these tests must not read LOKI_BATCH (the
            // env-validation test owns the environment variable).
            let mut cfg = cfg.clone();
            cfg.batch = Some(k);
            let pipeline = CampaignPipeline::new(study.clone(), factory.clone(), cfg);
            let (streamed, summary) = run_collect(&pipeline, experiments, workers);

            // Sink sees every experiment exactly once, in index order.
            let indices: Vec<u32> = streamed.iter().map(|a| a.experiment).collect();
            assert_eq!(indices, (0..experiments).collect::<Vec<u32>>());

            // Byte-identical compact results and summary counters.
            assert_eq!(
                streamed, baseline,
                "K={k} workers={workers}: results diverged from the fresh-world reference"
            );
            assert_eq!(summary.batch, k);
            assert_eq!(summary.accepted, accepted);
            assert_eq!(summary.completed, completed);
            assert_eq!(summary.injections, injections);

            // Bounded retention: never more in-flight experiments than
            // workers, whatever the claim chunk.
            assert!(
                (1..=workers).contains(&summary.peak_raw_retained),
                "K={k} workers={workers}: peak retention {}",
                summary.peak_raw_retained
            );

            // The driver counts events in every matrix cell — while
            // the results above stay identical.
            assert!(
                summary.events > 0,
                "K={k} workers={workers}: no events counted"
            );
            // Dead hulls reach the pool only when their world drains, so
            // they are recycled across experiments, never within one
            // (the sync mini-phases spawn no actors at all). Reuse is
            // therefore guaranteed only where one worker runs a second
            // experiment: always for a lone worker. With several workers
            // at K = 8 the claim race may hand every worker a single
            // experiment, and then nothing is reused.
            if workers == 1 {
                assert!(
                    summary.actor_reuses > 0,
                    "K={k} workers={workers}: no pooled actor reuse"
                );
            }
        }
    }
}

#[test]
fn caller_runs_driver_is_byte_identical_at_ragged_shapes() {
    // One driver serves every worker count: `workers − 1` spawned threads
    // plus the calling thread. Pin the shapes where it could miscount —
    // fewer experiments than workers (the pool clamps, spawned workers may
    // claim nothing), a last chunk shorter than K, and an odd worker
    // count — against the one-worker, K = 1 run of the same driver.
    let (study, factory) = ring_campaign();
    let cfg = SimHarnessConfig::three_hosts(0xCA11);
    let run = |experiments: u32, workers: usize, k: usize| {
        let mut cfg = cfg.clone();
        cfg.batch = Some(k);
        let pipeline = CampaignPipeline::new(study.clone(), factory.clone(), cfg);
        run_collect(&pipeline, experiments, workers)
    };
    for experiments in [3u32, 13] {
        let (reference, reference_summary) = run(experiments, 1, 1);
        assert_eq!(reference.len(), experiments as usize);
        assert_eq!(reference_summary.workers, 1);
        for k in [1usize, 8] {
            for workers in [1usize, 2, 3, 4] {
                let (streamed, summary) = run(experiments, workers, k);
                assert_eq!(
                    streamed, reference,
                    "experiments={experiments} K={k} workers={workers}: results diverged"
                );
                assert_eq!(summary.workers, workers.min(experiments as usize));
                assert_eq!(summary.accepted, reference_summary.accepted);
                assert_eq!(summary.injections, reference_summary.injections);
                assert!(
                    (1..=summary.workers).contains(&summary.peak_raw_retained),
                    "experiments={experiments} K={k} workers={workers}: peak retention {}",
                    summary.peak_raw_retained
                );
                // Every result passes through the reorder buffer; a lone
                // worker finishes in index order and never holds two.
                let deepest = if workers == 1 {
                    1
                } else {
                    experiments as usize
                };
                assert!(
                    (1..=deepest).contains(&summary.peak_reorder_depth),
                    "experiments={experiments} K={k} workers={workers}: reorder depth {}",
                    summary.peak_reorder_depth
                );
            }
        }
    }
}

#[test]
fn oversized_batch_is_the_whole_campaign() {
    // A chunk larger than the campaign is the campaign: the driver clamps
    // it, so neither the channel bound (2 × workers × chunk slots,
    // allocated up front) nor the `u32` claim step sees the raw value.
    // Unclamped, these abort in the allocator, overflow the capacity, or
    // truncate the step to 0 and claim nothing forever. Explicit
    // `cfg.batch` only — LOKI_BATCH belongs to the env-owning test.
    let (study, factory) = ring_campaign();
    let cfg = SimHarnessConfig::three_hosts(0xB16);
    for experiments in [3u32, 13] {
        let raw = common::fresh_world_raw(&study, &factory, &cfg, experiments);
        let reference = fresh_world_reference(&study, &factory, &cfg, experiments);
        for batch in [usize::MAX, 1 << 32, 1_000_000_000] {
            for workers in [1usize, 3] {
                let mut cfg = cfg.clone();
                cfg.batch = Some(batch);
                cfg.workers = Some(workers);
                let what = format!("experiments={experiments} batch={batch} workers={workers}");
                let pipeline = CampaignPipeline::new(study.clone(), factory.clone(), cfg.clone());
                let (streamed, summary) = run_collect(&pipeline, experiments, workers);
                assert_eq!(streamed, reference, "{what}: pipeline diverged");
                assert_eq!(summary.batch, batch, "{what}: reports the configured value");
                let data = run_study(&study, factory.clone(), &cfg, experiments)
                    .expect("valid campaign config");
                assert_eq!(data, raw, "{what}: run_study diverged");
            }
        }
    }
}

/// The cascading-failure study with a lossy link layered on top: the
/// network fault plane (partition, heal, probabilistic link faults) plus
/// the retry storm pushing heavy traffic through it. Every drop / dup /
/// corrupt / reorder decision draws from the per-experiment RNG, so this
/// is the densest RNG-consumption campaign the suite has.
fn netfault_campaign() -> (Arc<Study>, loki::runtime::AppFactory) {
    let def = cascade_study("netfault-batching").fault(
        "kv2",
        "lossy",
        FaultExpr::atom("kv2", "BACKUP"),
        Trigger::Once,
    );
    let study = Study::compile_arc(&def).expect("valid study");
    let probe = cascade_probe(true).on(
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
    );
    let cfg = KvConfig {
        retry: Some(storm_retry()),
        probe,
        ..KvConfig::default()
    };
    (study, kv_factory(cfg))
}

#[test]
fn net_fault_campaign_batches_byte_identically() {
    // A worker runs experiment after experiment on one reused world, and
    // the network fault plane is part of that world: its armed state and its
    // RNG draws must reset and replay exactly, or a partition from
    // experiment N would leak into experiment N+1's messages. Pin the
    // K × workers matrix against the fresh-world reference under the full
    // fault vocabulary.
    let (study, factory) = netfault_campaign();
    let cfg = SimHarnessConfig::three_hosts(0x2C2C);
    let experiments = 8u32;

    let baseline = fresh_world_reference(&study, &factory, &cfg, experiments);
    assert_eq!(baseline.len(), experiments as usize);
    assert!(
        baseline.iter().any(|a| a.injections >= 2),
        "partition and heal must both fire"
    );

    for k in [1usize, 8] {
        for workers in [1usize, 4] {
            let mut cfg = cfg.clone();
            cfg.batch = Some(k);
            let pipeline = CampaignPipeline::new(study.clone(), factory.clone(), cfg);
            let (streamed, summary) = run_collect(&pipeline, experiments, workers);
            assert_eq!(
                streamed, baseline,
                "K={k} workers={workers}: net-fault results diverged from the reference"
            );
            assert_eq!(summary.batch, k);
        }
    }
}

#[test]
fn pooling_recycles_across_experiments_without_changing_results() {
    // A restart-policy campaign exercises the full pooled-actor lifecycle:
    // mid-experiment node respawns (supervisor restarts the killed token
    // holder) plus cross-experiment recycling of daemons, the central
    // daemon, the supervisor, and capacity-retaining timeline shells. One
    // worker runs all twelve experiments on one world and one script, so
    // everything the first leaves behind is there for the next to recycle.
    use loki::runtime::daemons::RestartPolicy;
    let (study, factory) = ring_campaign();
    let mut cfg = SimHarnessConfig::three_hosts(0x9001);
    cfg.restart = Some(RestartPolicy::default());
    cfg.batch = Some(2);

    let baseline = fresh_world_reference(&study, &factory, &cfg, 12);

    let pipeline = CampaignPipeline::new(study, factory, cfg);
    let (streamed, summary) = run_collect(&pipeline, 12, 1);

    assert_eq!(streamed, baseline, "pooling changed campaign results");
    assert!(
        summary.actor_reuses > 0,
        "restart campaign must reuse pooled hulls"
    );
    assert!(
        summary.timeline_reuses > 0,
        "recycled scripts must reuse reclaimed timeline shells"
    );
    assert!(summary.events > 0);
}

#[test]
fn results_are_plain_data_whatever_the_sink_does() {
    // Results are owned values nothing recycles: a sink that drops each
    // result and one that keeps them all see the same campaign, and the
    // two counters that once told those regimes apart no longer do.
    let (study, factory) = ring_campaign();
    let mut cfg = SimHarnessConfig::three_hosts(0x5E11);
    cfg.batch = Some(4);
    let experiments = 200u32;

    let (collected, retaining) = CampaignPipeline::new(study.clone(), factory.clone(), cfg.clone())
        .collect(experiments)
        .expect("valid campaign config");
    assert_eq!(collected.len(), experiments as usize);

    let mut expected = collected.iter();
    let dropping = CampaignPipeline::new(study, factory, cfg)
        .run_with_workers(experiments, 1, |analyzed| {
            assert_eq!(Some(&analyzed), expected.next());
        })
        .expect("valid campaign config");
    assert!(expected.next().is_none());

    let built = collected.iter().filter(|a| a.global.is_some()).count() as u64;
    assert!(built > 0, "campaign must build global timelines");
    for summary in [&dropping, &retaining] {
        assert_eq!(summary.result_shell_reuses, 0);
        assert_eq!(summary.result_shell_allocs, built);
    }

    // Plain data: cloned, compared, and taken apart by value (the last
    // needs `GlobalTimeline` to have no destructor).
    let original = collected
        .into_iter()
        .find(|a| a.global.is_some())
        .expect("built > 0");
    let copy = original.clone();
    assert_eq!(copy, original);
    let GlobalTimeline {
        events,
        intervals,
        alpha_beta,
        ..
    } = copy.global.expect("cloned from a result with a timeline");
    let global = original.global.as_ref().expect("found by is_some");
    assert_eq!(events, global.events);
    assert_eq!(intervals, global.intervals);
    assert_eq!(alpha_beta, global.alpha_beta);
}

#[test]
fn batch_env_override_is_validated_and_applied() {
    // All LOKI_BATCH manipulation lives in this one test; the other tests
    // in this binary pass `cfg.batch` explicitly, so nothing races.
    let (study, factory) = ring_campaign();
    let cfg = SimHarnessConfig::three_hosts(0xEB7);
    let experiments = 4u32;

    let mut forced_cfg = cfg.clone();
    forced_cfg.batch = Some(1);
    let forced_pipeline = CampaignPipeline::new(study.clone(), factory.clone(), forced_cfg);
    let (forced, _) = run_collect(&forced_pipeline, experiments, 1);

    std::env::set_var("LOKI_BATCH", "3");
    let env_pipeline = CampaignPipeline::new(study.clone(), factory.clone(), cfg.clone());
    let (via_env, summary) = run_collect(&env_pipeline, experiments, 1);
    assert_eq!(summary.batch, 3, "LOKI_BATCH not picked up");
    assert_eq!(via_env, forced, "batch size changed the results");

    // Invalid batch sizes are rejected loudly — a silent fallback would
    // run the campaign with a surprise claim chunk. Since the
    // survivability work these come back as typed `CampaignError`s.
    for bad in ["not-a-number", "0", "", "-2"] {
        std::env::set_var("LOKI_BATCH", bad);
        let pipeline = CampaignPipeline::new(study.clone(), factory.clone(), cfg.clone());
        let err = pipeline
            .run_with_workers(experiments, 1, drop)
            .expect_err(&format!("LOKI_BATCH={bad:?} must be rejected"));
        assert!(err.to_string().contains("LOKI_BATCH"), "{err}");
    }

    // `batch: Some(0)` is rejected with the config-side message even when
    // the environment variable is valid.
    std::env::set_var("LOKI_BATCH", "2");
    let mut zero_cfg = cfg.clone();
    zero_cfg.batch = Some(0);
    let pipeline = CampaignPipeline::new(study.clone(), factory.clone(), zero_cfg);
    let err = pipeline
        .run_with_workers(experiments, 1, drop)
        .expect_err("batch: Some(0) must be rejected");
    assert!(
        err.to_string().contains("batch size must be at least 1"),
        "{err}"
    );
    // The raw-data entry point rides the same driver: same typed error.
    let err = run_study(&study, factory.clone(), pipeline.config(), experiments)
        .expect_err("batch: Some(0) must be rejected by run_study too");
    assert!(matches!(err, CampaignError::Batch(_)), "{err:?}");

    std::env::remove_var("LOKI_BATCH");
    let default_pipeline = CampaignPipeline::new(study, factory, cfg);
    let (auto, summary) = run_collect(&default_pipeline, experiments, 1);
    assert_eq!(summary.batch, 1, "default batch must be 1");
    assert_eq!(auto, forced);
}
