//! Campaign survivability acceptance: arbitrary per-experiment failure —
//! application panics, runaway experiments cut off by deterministic
//! budgets, panics in the harness itself — must never take down the
//! campaign, leak state into another experiment, or perturb the healthy
//! experiments' results. The chaos workload ([`loki::apps::chaos`]) draws one RNG roll
//! per tick in *every* configuration, so a disarmed (never-panicking) run
//! is the byte-identical baseline for each experiment the armed run
//! completes — at every workers × batch combination.

mod common;

use common::{campaign_raw, run_collect};
use loki::apps::chaos::{chaos_factory, chaos_study, ChaosConfig, CHAOS_PANIC};
use loki::clock::params::ClockParams;
use loki::core::campaign::{ExperimentData, ExperimentEnd, ExperimentFailure, HostSync, Warning};
use loki::core::study::Study;
use loki::runtime::harness::{CampaignPipeline, SimHarnessConfig};
use loki::runtime::{AppFactory, NotifyRouting};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Once};

/// Installs a panic hook that suppresses the expected chaos unwinds (the
/// harness catches them; the default hook would still spam stderr with
/// hundreds of backtraces) while delegating everything else.
fn quiet_chaos_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let expected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.contains(CHAOS_PANIC))
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|m| m.contains(CHAOS_PANIC));
            if !expected {
                previous(info);
            }
        }));
    });
}

/// A chaos campaign configuration: panics and hangs both armed, with a
/// virtual-time budget well above the healthy lifetime (6 ticks × 50 ms)
/// but far below the central daemon's 60 s timeout, so hung experiments
/// fail fast and deterministically.
fn chaos_harness(seed: u64) -> SimHarnessConfig {
    let mut cfg = SimHarnessConfig::three_hosts(seed);
    cfg.max_virtual_time = Some(3_000_000_000); // 3 s virtual
    cfg
}

fn chaos_cfg(armed: bool) -> ChaosConfig {
    ChaosConfig {
        panic_p: 0.03,
        hang_p: 0.02,
        armed,
        ..ChaosConfig::default()
    }
}

#[test]
fn survivors_are_byte_identical_to_the_disarmed_baseline() {
    quiet_chaos_panics();
    let study = Study::compile_arc(&chaos_study("chaos-survive", 3)).unwrap();
    let experiments = 24u32;

    // Baseline: same seeds, same budgets, same RNG stream — panic rolls
    // are simply ignored. Hang rolls still hang (and trip the budget), so
    // the baseline and armed runs disagree only on panicked experiments.
    let baseline_pipeline = CampaignPipeline::new(
        study.clone(),
        chaos_factory(chaos_cfg(false)),
        chaos_harness(0xC405),
    );
    let (baseline, _) = run_collect(&baseline_pipeline, experiments, 1);

    let mut reference: Option<Vec<_>> = None;
    for workers in [1usize, 4] {
        for k in [1usize, 8] {
            let mut cfg = chaos_harness(0xC405);
            cfg.batch = Some(k);
            let pipeline =
                CampaignPipeline::new(study.clone(), chaos_factory(chaos_cfg(true)), cfg);
            let (streamed, summary) = run_collect(&pipeline, experiments, workers);

            // The campaign ran to completion and delivered every
            // experiment, in index order, despite the failures.
            let indices: Vec<u32> = streamed.iter().map(|a| a.experiment).collect();
            assert_eq!(indices, (0..experiments).collect::<Vec<u32>>());

            // All three populations are present, and the books balance.
            let panicked = streamed
                .iter()
                .filter(|a| a.end == ExperimentEnd::Failed(ExperimentFailure::AppPanic))
                .count();
            let budget_cut = streamed
                .iter()
                .filter(|a| a.end == ExperimentEnd::Failed(ExperimentFailure::BudgetVirtualTime))
                .count();
            let completed = streamed
                .iter()
                .filter(|a| a.end == ExperimentEnd::Completed)
                .count();
            assert!(panicked > 0, "workers={workers} K={k}: no panic fired");
            assert!(budget_cut > 0, "workers={workers} K={k}: no budget trip");
            assert!(completed > 0, "workers={workers} K={k}: nothing healthy");
            assert_eq!(summary.failed, panicked + budget_cut);
            assert_eq!(summary.completed, completed);
            // Failed experiments are never accepted.
            assert!(streamed
                .iter()
                .filter(|a| a.end.failure().is_some())
                .all(|a| !a.accepted()));
            // Every failure quarantined its world.
            assert_eq!(summary.quarantined_worlds, summary.failed);

            // Workers × batch is unobservable, failures included.
            match &reference {
                None => reference = Some(streamed.clone()),
                Some(reference) => assert_eq!(
                    &streamed, reference,
                    "workers={workers} K={k}: results diverged"
                ),
            }

            // Every experiment the armed run completed is byte-identical
            // to the disarmed baseline — a panic in experiment N was fully
            // contained, with no RNG or pooled-state leakage into
            // experiment N+1.
            for (armed, base) in streamed.iter().zip(&baseline) {
                if armed.end == ExperimentEnd::Completed {
                    assert_eq!(
                        armed, base,
                        "workers={workers} K={k}: healthy experiment {} perturbed",
                        armed.experiment
                    );
                }
            }
        }
    }
}

/// A failed experiment's raw data is its fresh-world replay too, at every
/// pool shape. A budget trip ends an experiment without a post-sync phase,
/// so nothing a worker's recycled script held from the experiment before
/// may show in it.
#[test]
fn failed_experiments_replay_byte_identically() {
    quiet_chaos_panics();
    let study = Study::compile_arc(&chaos_study("chaos-replay", 3)).unwrap();
    let factory = chaos_factory(chaos_cfg(true));
    let mut cfg = chaos_harness(0xC405);
    let experiments = 24u32;
    let fresh = common::fresh_world_raw(&study, &factory, &cfg, experiments);
    let trips_after_a_completion = fresh.windows(2).any(|pair| {
        pair[0].end == ExperimentEnd::Completed
            && pair[1].end == ExperimentEnd::Failed(ExperimentFailure::BudgetVirtualTime)
    });
    assert!(
        trips_after_a_completion,
        "no budget trip follows a completion"
    );
    for workers in [1usize, 4] {
        for k in [1usize, 8] {
            cfg.batch = Some(k);
            let raw = campaign_raw(&study, &factory, &cfg, experiments, workers)
                .expect("valid campaign config");
            assert!(raw == fresh, "workers={workers} K={k}: raw data diverged");
        }
    }
}

#[test]
fn event_budget_trips_identically_across_pool_shapes() {
    // Every experiment hangs immediately (hang_p = 1.0): the event-count
    // budget is the only thing that ends them, and its trip point must
    // depend only on (seed, experiment index).
    let study = Study::compile_arc(&chaos_study("chaos-budget", 3)).unwrap();
    let cfg_for = |k: usize| {
        let mut cfg = SimHarnessConfig::three_hosts(0xB1D6);
        cfg.max_events = Some(2_000);
        cfg.batch = Some(k);
        cfg
    };
    let chaos = ChaosConfig {
        hang_p: 1.0,
        ..ChaosConfig::default()
    };

    let mut reference: Option<Vec<_>> = None;
    for workers in [1usize, 4] {
        for k in [1usize, 8] {
            let pipeline =
                CampaignPipeline::new(study.clone(), chaos_factory(chaos.clone()), cfg_for(k));
            let (streamed, summary) = run_collect(&pipeline, 8, workers);
            assert_eq!(summary.failed, 8);
            assert!(streamed
                .iter()
                .all(|a| a.end == ExperimentEnd::Failed(ExperimentFailure::BudgetEvents)));
            match &reference {
                None => reference = Some(streamed),
                Some(reference) => assert_eq!(
                    &streamed, reference,
                    "workers={workers} K={k}: budget trips diverged"
                ),
            }
        }
    }
}

/// Runs `experiments` experiments under `cfg` at every pool shape of
/// workers {1, 4} × K {1, 8}, taking the raw data through the pipeline's
/// tap, asserts it is byte-identical across them, and returns it.
fn raw_data_at_every_pool_shape(
    study: &Arc<Study>,
    cfg: &SimHarnessConfig,
    experiments: u32,
) -> Vec<ExperimentData> {
    let chaos = ChaosConfig {
        ticks: 2,
        ..ChaosConfig::default()
    };
    let mut reference: Option<Vec<ExperimentData>> = None;
    for workers in [1usize, 4] {
        for k in [1usize, 8] {
            let mut cfg = cfg.clone();
            cfg.batch = Some(k);
            let raw = campaign_raw(
                study,
                &chaos_factory(chaos.clone()),
                &cfg,
                experiments,
                workers,
            )
            .expect("valid campaign config");
            match &reference {
                None => reference = Some(raw),
                Some(reference) => assert_eq!(
                    &raw, reference,
                    "workers={workers} K={k}: raw data diverged"
                ),
            }
        }
    }
    reference.expect("four shapes ran")
}

/// Total samples of one mini-phase.
fn sample_count(phase: &[HostSync]) -> usize {
    phase.iter().map(|hs| hs.samples.len()).sum()
}

/// Whether every host's samples in `part` are the first samples of the
/// same host in `full` — what a mini-phase cut short must leave behind.
fn is_prefix_of(part: &[HostSync], full: &[HostSync]) -> bool {
    part.iter().all(|hs| {
        full.iter()
            .find(|f| f.host == hs.host)
            .is_some_and(|f| f.samples.starts_with(&hs.samples))
    })
}

#[test]
fn budgets_trip_inside_the_sync_mini_phases() {
    // Budgets are armed for the whole experiment, mini-phases included,
    // and the mini-phases are played in closed form — so a trip inside
    // one must land on exactly the same event as anywhere else, leave
    // exactly the completed rounds' samples behind, and not depend on the
    // pool shape. host1 is the reference and has an ideal clock, so the
    // reference-side readings of the samples are virtual time.
    let study = Study::compile_arc(&chaos_study("chaos-sync-budget", 3)).unwrap();
    let mut cfg = SimHarnessConfig::three_hosts(0x57AC);
    cfg.hosts[0].clock = ClockParams::ideal();
    cfg.hosts[2].clock = ClockParams::with_drift_ppm(5e5, -60.0);
    assert_eq!(cfg.reference_host(), Some("host1"));
    cfg.sync_rounds = 3;
    cfg.sync_interval_ns = 50_000_000;
    let experiments = 4u32;

    let full = raw_data_at_every_pool_shape(&study, &cfg, experiments);
    let rounds_per_phase = 2 * cfg.sync_rounds as usize; // two calibrated hosts
    for data in &full {
        assert_eq!(data.end, ExperimentEnd::Completed);
        assert_eq!(sample_count(&data.pre_sync), 2 * rounds_per_phase);
        assert_eq!(sample_count(&data.post_sync), 2 * rounds_per_phase);
    }

    // --- every event budget below each experiment's total ----------------
    let mut completed_at: Vec<Option<u64>> = vec![None; experiments as usize];
    let mut previous_rounds = vec![0usize; experiments as usize];
    for n in 0u64.. {
        assert!(n < 5_000, "experiments never completed: {completed_at:?}");
        let mut budgeted = cfg.clone();
        budgeted.max_events = Some(n);
        let cut = raw_data_at_every_pool_shape(&study, &budgeted, experiments);
        for (k, (data, full)) in cut.iter().zip(&full).enumerate() {
            if completed_at[k].is_some() || data.end == ExperimentEnd::Completed {
                // `n` has reached this experiment's total: untouched.
                completed_at[k].get_or_insert(n);
                assert_eq!(data, full, "n={n} k={k}");
                continue;
            }
            assert_eq!(
                data.end,
                ExperimentEnd::Failed(ExperimentFailure::BudgetEvents),
                "n={n} k={k}"
            );
            assert!(
                data.warnings.iter().any(|w| matches!(
                    w,
                    Warning::BudgetTrip { failure: ExperimentFailure::BudgetEvents, events, .. }
                        if *events == n
                )),
                "n={n} k={k}: {:?}",
                data.warnings
            );
            assert!(is_prefix_of(&data.pre_sync, &full.pre_sync), "n={n} k={k}");
            assert!(
                is_prefix_of(&data.post_sync, &full.post_sync),
                "n={n} k={k}"
            );
            let (pre, post) = (sample_count(&data.pre_sync), sample_count(&data.post_sync));
            if pre < 2 * rounds_per_phase {
                // Cut inside pre-sync: the runtime never started.
                assert!(data.timelines.is_empty(), "n={n} k={k}");
                assert_eq!(post, 0, "n={n} k={k}");
            }
            // One more event completes at most one more round, and a
            // completed round is never lost again.
            let rounds = (pre + post) / 2;
            assert_eq!((pre % 2, post % 2), (0, 0), "n={n} k={k}: half a round");
            assert!(
                rounds == previous_rounds[k] || rounds == previous_rounds[k] + 1,
                "n={n} k={k}: {} -> {rounds} rounds",
                previous_rounds[k]
            );
            previous_rounds[k] = rounds;
        }
        if completed_at.iter().all(Option::is_some) {
            break;
        }
    }
    // The last event of an experiment is a post-sync end-of-session
    // notice: by then every round of both phases had completed.
    assert_eq!(previous_rounds, vec![2 * rounds_per_phase; 4]);

    // --- a virtual-time budget inside pre-sync ----------------------------
    // Rounds start 50 ms apart: 75 ms falls between the second and third.
    let mut budgeted = cfg.clone();
    budgeted.max_virtual_time = Some(75_000_000);
    for (data, full) in raw_data_at_every_pool_shape(&study, &budgeted, experiments)
        .iter()
        .zip(&full)
    {
        assert_eq!(
            data.end,
            ExperimentEnd::Failed(ExperimentFailure::BudgetVirtualTime)
        );
        assert!(is_prefix_of(&data.pre_sync, &full.pre_sync));
        assert_eq!(sample_count(&data.pre_sync), 2 * 2 * 2); // 2 rounds × 2 hosts
        assert!(data.post_sync.is_empty() && data.timelines.is_empty());
    }

    // --- a virtual-time budget inside post-sync ---------------------------
    // The instant the second round's ping reached the reference (its own
    // reading, third sample of the phase), latest over the experiments:
    // past every experiment's first post-sync round, short of its third.
    let ping_arrival =
        |data: &ExperimentData, round: usize| data.post_sync[0].samples[2 * round].recv.0;
    let budget = full.iter().map(|d| ping_arrival(d, 1)).max().unwrap();
    assert!(full.iter().all(|d| budget < ping_arrival(d, 2)));
    let mut budgeted = cfg.clone();
    budgeted.max_virtual_time = Some(budget);
    for (data, full) in raw_data_at_every_pool_shape(&study, &budgeted, experiments)
        .iter()
        .zip(&full)
    {
        assert_eq!(
            data.end,
            ExperimentEnd::Failed(ExperimentFailure::BudgetVirtualTime)
        );
        assert_eq!(data.pre_sync, full.pre_sync);
        assert_eq!(data.timelines, full.timelines);
        assert!(is_prefix_of(&data.post_sync, &full.post_sync));
        let post = sample_count(&data.post_sync);
        assert!(
            (2 * 2..2 * rounds_per_phase).contains(&post),
            "{post} post-sync samples"
        );
    }
}

/// Wraps `factory` so that its `nth` call (counted from 0, per wrapper)
/// panics — not an application callback, which `SimNode` contains, but
/// the daemon's own node start-up, deep inside engine dispatch.
fn panicking_on_call(factory: AppFactory, nth: u32) -> AppFactory {
    let calls = AtomicU32::new(0);
    Arc::new(move |study: &Study, sm| {
        if calls.fetch_add(1, Ordering::Relaxed) == nth {
            panic!("{CHAOS_PANIC} in the factory");
        }
        factory(study, sm)
    })
}

#[test]
fn harness_panics_are_contained_and_quarantined() {
    quiet_chaos_panics();
    let (study, factory) = common::ring_campaign("ring-harness-panic");
    // One worker, K = 1: the factory's call sequence — and so the
    // experiment its 20th call lands in — is deterministic.
    let mut cfg = SimHarnessConfig::three_hosts(0x4A12);
    cfg.batch = Some(1);
    let experiments = 8u32;

    // The raw path: the campaign survives, exactly one experiment ends as
    // a harness failure carrying the panic note, the rest are untouched.
    let healthy = campaign_raw(&study, &factory, &cfg, experiments, 1).unwrap();
    let raw = campaign_raw(
        &study,
        &panicking_on_call(factory.clone(), 20),
        &cfg,
        experiments,
        1,
    )
    .expect("a harness panic must not fail the campaign");
    let harness_failed = ExperimentEnd::Failed(ExperimentFailure::Harness);
    let failed: Vec<u32> = raw
        .iter()
        .filter(|d| d.end == harness_failed)
        .map(|d| d.experiment)
        .collect();
    assert_eq!(failed.len(), 1, "failed experiments: {failed:?}");
    let victim = failed[0] as usize;
    assert!(
        raw[victim]
            .warnings
            .iter()
            .any(|w| matches!(w, Warning::HarnessPanic { note } if note.contains(CHAOS_PANIC))),
        "{:?}",
        raw[victim].warnings
    );
    for (data, healthy) in raw.iter().zip(&healthy) {
        if data.experiment as usize != victim {
            assert_eq!(data, healthy, "experiment {} perturbed", data.experiment);
        }
    }

    // The compact path: same victim, typed and counted, world quarantined.
    let collect = |factory: AppFactory| {
        let pipeline = CampaignPipeline::new(study.clone(), factory, cfg.clone());
        run_collect(&pipeline, experiments, 1)
    };
    let (healthy, healthy_summary) = collect(factory.clone());
    let (streamed, summary) = collect(panicking_on_call(factory, 20));
    assert_eq!(
        (healthy_summary.failed, healthy_summary.quarantined_worlds),
        (0, 0)
    );
    assert_eq!((summary.failed, summary.quarantined_worlds), (1, 1));
    for (analyzed, healthy) in streamed.iter().zip(&healthy) {
        if analyzed.experiment as usize == victim {
            assert_eq!(analyzed.end, harness_failed);
            assert!(!analyzed.accepted());
        } else {
            assert_eq!(
                analyzed, healthy,
                "experiment {} perturbed",
                analyzed.experiment
            );
        }
    }
}

#[test]
fn direct_routing_records_each_dropped_notification_once() {
    // Under direct routing each node looks its targets up itself. Once the
    // token holder is killed, every notification still aimed at it is
    // dropped: the experiment records that once, not once per drop.
    let (study, factory) = common::ring_campaign("ring-direct-warnings");
    let mut cfg = SimHarnessConfig::three_hosts(11);
    cfg.routing = NotifyRouting::Direct;
    let raw = campaign_raw(&study, &factory, &cfg, 16, 2).expect("valid campaign config");
    for data in &raw {
        for (i, warning) in data.warnings.iter().enumerate() {
            assert!(
                !data.warnings[..i].contains(warning),
                "experiment {}: {warning:?} recorded twice",
                data.experiment
            );
        }
    }
    assert!(raw
        .iter()
        .flat_map(|data| &data.warnings)
        .any(|w| matches!(w, Warning::DroppedNotification { .. })));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn chaos_campaigns_stay_deterministic_under_any_mix(
        panic_p in 0.0f64..0.3,
        hang_p in 0.0f64..0.2,
        seed in any::<u64>(),
    ) {
        quiet_chaos_panics();
        let study = Study::compile_arc(&chaos_study("chaos-prop", 3)).unwrap();
        let chaos = ChaosConfig { panic_p, hang_p, armed: true, ..ChaosConfig::default() };

        let run = |workers: usize, k: usize| {
            let mut cfg = chaos_harness(seed);
            cfg.batch = Some(k);
            let pipeline = CampaignPipeline::new(study.clone(), chaos_factory(chaos.clone()), cfg);
            run_collect(&pipeline, 10, workers)
        };
        let (reference, reference_summary) = run(1, 1);
        let (wide, wide_summary) = run(4, 4);
        prop_assert_eq!(&reference, &wide, "worker/batch split observable");
        prop_assert_eq!(reference_summary.failed, wide_summary.failed);
        // Whatever the mix, every experiment ends in a typed state.
        for analyzed in &reference {
            prop_assert!(matches!(
                analyzed.end,
                ExperimentEnd::Completed | ExperimentEnd::TimedOut
                    | ExperimentEnd::Aborted | ExperimentEnd::Failed(_)
            ));
        }
    }
}

/// The CI chaos storm (`LOKI_CHAOS_SELFTEST=1`): a larger campaign with a
/// dense failure mix, re-checking the survivor-identity contract at scale.
#[test]
fn chaos_selftest_storm() {
    if std::env::var("LOKI_CHAOS_SELFTEST").as_deref() != Ok("1") {
        return;
    }
    quiet_chaos_panics();
    let study = Study::compile_arc(&chaos_study("chaos-storm", 6)).unwrap();
    let experiments = 200u32;

    let baseline_pipeline = CampaignPipeline::new(
        study.clone(),
        chaos_factory(ChaosConfig {
            panic_p: 0.02,
            hang_p: 0.012,
            armed: false,
            ..ChaosConfig::default()
        }),
        chaos_harness(0x57_02_13),
    );
    let (baseline, _) = run_collect(&baseline_pipeline, experiments, 4);

    let mut cfg = chaos_harness(0x57_02_13);
    cfg.batch = Some(8);
    let pipeline = CampaignPipeline::new(
        study,
        chaos_factory(ChaosConfig {
            panic_p: 0.02,
            hang_p: 0.012,
            armed: true,
            ..ChaosConfig::default()
        }),
        cfg,
    );
    let (streamed, summary) = run_collect(&pipeline, experiments, 4);

    assert_eq!(streamed.len(), experiments as usize);
    assert!(summary.failed > 10, "storm too tame: {}", summary.failed);
    assert!(summary.completed > 10, "storm killed everything");
    assert_eq!(summary.quarantined_worlds, summary.failed);
    for (armed, base) in streamed.iter().zip(&baseline) {
        if armed.end == ExperimentEnd::Completed {
            assert_eq!(armed, base, "survivor {} perturbed", armed.experiment);
        }
    }
}
