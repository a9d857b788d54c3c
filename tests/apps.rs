//! App acceptance: every app in `crates/apps` implements the `App` trait
//! exactly once, and that one implementation runs a deterministic
//! simulated campaign the analysis accepts.
//!
//! For each app this test checks that
//! * the campaign produces *identical fault-injection intent* (which
//!   faults fired, per machine, per experiment) across repeated runs and
//!   across worker counts;
//! * the analysis pipeline consumes its `ExperimentData`, with at least
//!   one experiment's injections provably correct.
//!
//! It also pins the streaming pipeline against fresh-world replay, and the
//! typed errors both entry points return for a bad host list.

mod common;

use loki::analysis::{analyze_one, AnalysisOptions};
use loki::apps::election::{election_factory, election_study, ElectionConfig};
use loki::apps::kvstore::{kv_factory, kv_study, KvConfig};
use loki::apps::token_ring::{ring_factory, ring_study, RingConfig};
use loki::core::campaign::{ExperimentData, ExperimentEnd};
use loki::core::fault::{FaultExpr, Trigger};
use loki::core::probe::{ActionProbe, FaultAction};
use loki::core::recorder::RecordKind;
use loki::core::study::Study;
use loki::measure::prelude::*;
use loki::runtime::harness::{run_experiment, CampaignError, CampaignPipeline, SimHarnessConfig};
use loki::runtime::{AppFactory, RestartPolicy};
use loki::sim::config::HostConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The fault names injected in one experiment, per machine in timeline
/// order — the campaign's injection *intent*, independent of timestamps.
fn injection_intent(study: &Study, data: &ExperimentData) -> Vec<(String, Vec<String>)> {
    data.timelines
        .iter()
        .map(|t| {
            let fired = t
                .records
                .iter()
                .filter_map(|r| match r.kind {
                    RecordKind::FaultInjection { fault } => {
                        Some(study.fault_names.name(fault).to_owned())
                    }
                    _ => None,
                })
                .collect();
            (study.sms.name(t.sm).to_owned(), fired)
        })
        .collect()
}

/// Runs one app's campaign and checks the acceptance criteria above.
fn check_app_campaign(label: &str, study: &Arc<Study>, factory: AppFactory, seed: u64) {
    let cfg = SimHarnessConfig::three_hosts(seed);
    let run = |workers: usize| {
        common::campaign_raw(study, &factory, &cfg, 3, workers).expect("valid campaign config")
    };
    let (first, rerun, parallel) = (run(1), run(1), run(2));

    let intent: Vec<_> = first.iter().map(|d| injection_intent(study, d)).collect();
    assert!(
        intent.iter().flatten().any(|(_, fired)| !fired.is_empty()),
        "{label}: the campaign never injected"
    );
    let rerun_intent: Vec<_> = rerun.iter().map(|d| injection_intent(study, d)).collect();
    let parallel_intent: Vec<_> = parallel
        .iter()
        .map(|d| injection_intent(study, d))
        .collect();
    assert_eq!(intent, rerun_intent, "{label}: intent diverged across runs");
    assert_eq!(
        intent, parallel_intent,
        "{label}: intent diverged across worker counts"
    );

    let opts = AnalysisOptions::default();
    assert!(
        first
            .iter()
            .any(|d| analyze_one(study, d, &opts).accepted()),
        "{label}: no experiment accepted by the analysis"
    );
}

/// The quick election campaign used by several tests: every machine faults
/// on its *own* LEAD entry, so whichever machine wins, an injection
/// happens — with zero notification latency, keeping it provably correct.
fn quick_election() -> (Arc<Study>, AppFactory) {
    let mut def = election_study("cross-election");
    for (fault, sm) in [
        ("bfault1", "black"),
        ("yfault1", "yellow"),
        ("gfault1", "green"),
    ] {
        def = def.fault(sm, fault, FaultExpr::atom(sm, "LEAD"), Trigger::Once);
    }
    let study = Study::compile_arc(&def).unwrap();
    // Durations shortened, with detection timeouts several times the
    // heartbeat interval.
    let cfg = ElectionConfig {
        init_delay_ns: 60_000_000,
        collect_timeout_ns: 80_000_000,
        heartbeat_interval_ns: 25_000_000,
        heartbeat_timeout_ns: 150_000_000,
        lifetime_ns: 1_000_000_000,
        restart_done_delay_ns: 15_000_000,
        ..Default::default()
    };
    (study, election_factory(cfg))
}

#[test]
fn election_campaign_is_deterministic_and_accepted() {
    let (study, factory) = quick_election();
    check_app_campaign("election", &study, factory, 0xE1EC);
}

/// A one-step study measure over the election campaign: how long `black`
/// held LEAD.
fn lead_measure() -> StudyMeasure {
    StudyMeasure::new("black-lead").step(MeasureStep {
        subset: SubsetSel::All,
        predicate: Predicate::state("black", "LEAD"),
        observation: ObservationFn::total_true(),
    })
}

/// The pipeline acceptance test: the streaming pipeline must be
/// *unobservable* in the results — byte-identical to replaying each
/// experiment on a fresh world, analyzing it and applying the measure to
/// it, for every worker count — while
/// never holding more than O(workers) raw `ExperimentData` in memory
/// (asserted via the pipeline's retention gauge). Workers claim
/// experiments from a shared index counter (work stealing), so which
/// worker runs which experiment varies with scheduling; the sweep below
/// pins that the *results* nevertheless stay byte-identical across every
/// worker count, including counts that do not divide the experiment count.
#[test]
fn pipeline_streaming_matches_fresh_world_replay_and_bounds_raw_retention() {
    let (study, factory) = quick_election();
    let cfg = SimHarnessConfig::three_hosts(0x51DE);
    let experiments = 6u32;

    // --- fresh-world reference ---------------------------------------------
    let reference = common::fresh_world_reference(&study, &factory, &cfg, experiments);
    let reference_accepted = reference.iter().filter(|a| a.accepted()).count();
    let reference_values: Vec<f64> = reference
        .iter()
        .filter(|a| a.accepted())
        .filter_map(|a| a.global.as_ref())
        .filter_map(|gt| lead_measure().apply(&study, gt).unwrap())
        .collect();
    assert!(reference_accepted > 0, "campaign must accept something");

    for workers in [1usize, 2, 4, 5, 6] {
        let cfg = SimHarnessConfig {
            workers: Some(workers),
            ..cfg.clone()
        };
        let pipeline = CampaignPipeline::new(study.clone(), factory.clone(), cfg);
        let mut acc = StudyAccumulator::new(lead_measure());
        let mut streamed = Vec::new();
        let summary = pipeline
            .run(experiments, |analyzed| {
                acc.push(&study, &analyzed).unwrap();
                streamed.push(analyzed);
            })
            .expect("valid campaign config");

        // Bounded memory: never more raw experiments alive than workers.
        assert!(
            (1..=workers).contains(&summary.peak_raw_retained),
            "workers {workers}: peak raw retention {}",
            summary.peak_raw_retained
        );

        // Sink sees every experiment exactly once, in index order.
        let indices: Vec<u32> = streamed.iter().map(|a| a.experiment).collect();
        assert_eq!(indices, (0..experiments).collect::<Vec<u32>>());

        // Byte-identical analyses, verdicts, and measure values.
        assert_eq!(streamed, reference, "workers {workers}: analysis diverged");
        assert_eq!(summary.accepted, reference_accepted);
        assert_eq!(acc.seen(), experiments as usize);
        assert_eq!(acc.accepted(), reference_accepted);
        assert_eq!(acc.into_values(), reference_values, "workers {workers}");
    }
}

#[test]
fn kvstore_campaign_is_deterministic_and_accepted() {
    let def = kv_study("cross-kv", 3).fault(
        "kv1",
        "kill_primary",
        FaultExpr::atom("kv1", "PRIMARY"),
        Trigger::Once,
    );
    let study = Study::compile_arc(&def).unwrap();
    let cfg = KvConfig {
        init_delay_ns: 60_000_000,
        op_interval_ns: 20_000_000,
        fail_timeout_ns: 120_000_000,
        promote_delay_ns: 30_000_000,
        lifetime_ns: 700_000_000,
        ..Default::default()
    };
    check_app_campaign("kvstore", &study, kv_factory(cfg), 0x4B56);
}

#[test]
fn token_ring_campaign_is_deterministic_and_accepted() {
    // A communication fault instead of a crash: the holder drops its next
    // pass, the ring detects the drought and regenerates the token.
    let def = ring_study("cross-ring", 3).fault(
        "tr2",
        "drop_pass",
        FaultExpr::atom("tr2", "HAS_TOKEN"),
        Trigger::Once,
    );
    let study = Study::compile_arc(&def).unwrap();
    let cfg = RingConfig {
        init_delay_ns: 60_000_000,
        hold_ns: 15_000_000,
        loss_timeout_ns: 150_000_000,
        regen_delay_ns: 25_000_000,
        lifetime_ns: 800_000_000,
        probe: ActionProbe::new().on("drop_pass", FaultAction::DropMessages { count: 1 }),
    };
    check_app_campaign("token-ring", &study, ring_factory(cfg), 0x716);
}

/// Runs `ring_study`, which places tr1..tr3 on host1..host3, on `hosts`:
/// both entry points must reject the list with the same typed error,
/// carrying `message`, before a single experiment starts.
fn assert_host_error(hosts: Vec<HostConfig>, message: &str) {
    let study = Study::compile_arc(&ring_study("bad-hosts", 3)).unwrap();
    let factory = ring_factory(RingConfig::default());
    let cfg = SimHarnessConfig {
        hosts,
        ..SimHarnessConfig::three_hosts(0x0457)
    };
    let expected = CampaignError::Hosts(message.to_owned());
    assert_eq!(
        run_experiment(&study, factory.clone(), &cfg, 0).unwrap_err(),
        expected
    );
    let pipeline = CampaignPipeline::new(study, factory, cfg);
    assert_eq!(
        pipeline
            .run(2, |_| panic!("the sink ran on a rejected campaign"))
            .unwrap_err(),
        expected
    );
}

fn three_hosts() -> Vec<HostConfig> {
    SimHarnessConfig::three_hosts(0x0457).hosts
}

#[test]
fn an_empty_host_list_is_a_typed_error() {
    assert_host_error(Vec::new(), "loki: harness config needs at least one host");
}

#[test]
fn a_duplicate_host_name_is_a_typed_error() {
    // Interned naively, the second `host1` would get an id of its own, and
    // a machine placed on `host1` could run on that host's clock.
    let hosts = three_hosts();
    assert_host_error(
        vec![
            hosts[0].clone(),
            hosts[0].clone(),
            hosts[1].clone(),
            hosts[2].clone(),
        ],
        "loki: invalid harness config: duplicate host name \"host1\"",
    );
}

#[test]
fn placement_on_an_unknown_host_is_a_typed_error() {
    // host2 and host3 are both gone: the error names the first placement
    // that fails, tr2's.
    assert_host_error(
        three_hosts()[..1].to_vec(),
        "loki: invalid harness config: placement on unknown host `host2`",
    );
}

#[test]
fn a_placement_on_a_dropped_host_is_a_typed_error() {
    // Only the last host is gone, so only tr3 has nowhere to run.
    assert_host_error(
        three_hosts()[..2].to_vec(),
        "loki: invalid harness config: placement on unknown host `host3`",
    );
}

/// `ring_campaign` with a factory that counts its calls.
fn counted_ring_campaign(name: &str) -> (Arc<Study>, AppFactory, Arc<AtomicUsize>) {
    let (study, factory) = common::ring_campaign(name);
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = calls.clone();
    let counted: AppFactory = Arc::new(move |study: &Study, sm| {
        counter.fetch_add(1, Ordering::Relaxed);
        factory(study, sm)
    });
    (study, counted, calls)
}

/// Node lives in one experiment: every start and restart opens a stint.
fn lives(data: &ExperimentData) -> usize {
    data.timelines.iter().map(|t| t.stints.len()).sum()
}

#[test]
fn the_factory_runs_once_per_node_life() {
    // `AppFactory` promises one call per (re)start of a machine, whether
    // the node's actor is recycled or built fresh — on a fresh world, on a
    // worker's first experiment, and after restarts.
    for restart in [None, Some(RestartPolicy::default())] {
        let (study, factory, calls) = counted_ring_campaign("ring-factory-calls");
        let cfg = SimHarnessConfig {
            restart,
            ..SimHarnessConfig::three_hosts(0xFAC7)
        };

        let data = run_experiment(&study, factory.clone(), &cfg, 0).expect("valid config");
        assert_eq!(
            calls.swap(0, Ordering::Relaxed),
            lives(&data),
            "restart {restart:?}: one fresh-world experiment"
        );

        let mut total = 0;
        CampaignPipeline::new(study, factory, cfg)
            .run_tapped_with_workers(10, 1, lives, |_, lives| total += lives)
            .expect("valid campaign config");
        if restart.is_some() {
            assert!(total > 30, "no node of the three per experiment restarted");
        }
        assert_eq!(
            calls.load(Ordering::Relaxed),
            total,
            "restart {restart:?}: a ten-experiment campaign"
        );
    }
}

/// A crash probability outside [0, 1] can only be built in code: a NaN or
/// negative one never activates, and a fault that fires with it must not
/// end the experiment as an application panic.
#[test]
fn an_activation_outside_the_unit_interval_never_panics() {
    let def = ring_study("odd-ring", 3).fault(
        "tr2",
        "maybe_crash",
        FaultExpr::atom("tr2", "HAS_TOKEN"),
        Trigger::Once,
    );
    let study = Study::compile_arc(&def).unwrap();
    for activation in [f64::NAN, -0.5] {
        let action = FaultAction::CrashWithProbability {
            activation,
            dormancy_ns: 0,
        };
        let probe = ActionProbe::new().on("maybe_crash", action);
        let factory = ring_factory(RingConfig {
            probe,
            ..Default::default()
        });
        let cfg = SimHarnessConfig::three_hosts(7);
        let data = run_experiment(&study, factory, &cfg, 0).expect("valid config");
        assert!(data.total_injections() > 0, "{activation}: no injection");
        assert_eq!(
            data.end,
            ExperimentEnd::Completed,
            "{activation}: {:?}",
            data.warnings
        );
    }
}
