//! Cross-backend acceptance: every app in `crates/apps` implements the
//! unified `App` trait exactly once, and that one implementation runs the
//! same study on both the deterministic simulation backend and the
//! real-concurrency thread backend.
//!
//! For each app this test checks that
//! * the simulation backend produces *identical fault-injection intent*
//!   (which faults fired, per machine, per experiment) across repeated
//!   runs and across worker counts;
//! * both backends produce `ExperimentData` the analysis pipeline
//!   consumes, with at least one experiment's injections provably correct.

use loki::analysis::{analyze, analyze_one, AnalysisOptions};
use loki::apps::election::{election_factory, election_study, ElectionConfig};
use loki::apps::kvstore::{kv_factory, kv_study, KvConfig};
use loki::apps::token_ring::{ring_factory, ring_study, RingConfig};
use loki::core::campaign::{ExperimentData, ExperimentEnd};
use loki::core::fault::{FaultExpr, Trigger};
use loki::core::probe::{ActionProbe, FaultAction};
use loki::core::recorder::RecordKind;
use loki::core::study::Study;
use loki::measure::prelude::*;
use loki::runtime::harness::{
    run_experiment, run_study, CampaignError, CampaignPipeline, SimHarnessConfig,
};
use loki::runtime::{run_thread_experiment, AppFactory, ThreadHarnessConfig};
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

/// Runs one app's campaign on both backends and checks the acceptance
/// criteria above.
fn check_cross_backend(label: &str, study: &Arc<Study>, factory: AppFactory, seed: u64) {
    let sim_cfg = SimHarnessConfig::three_hosts(seed);

    // --- deterministic backend -------------------------------------------
    let run_sim = |workers: usize| {
        let mut cfg = sim_cfg.clone();
        cfg.workers = Some(workers);
        run_study(study, factory.clone(), &cfg, 3).expect("valid campaign config")
    };
    let (first, rerun, parallel) = (run_sim(1), run_sim(1), run_sim(2));

    let intent: Vec<_> = first.iter().map(|d| injection_intent(study, d)).collect();
    assert!(
        intent.iter().flatten().any(|(_, fired)| !fired.is_empty()),
        "{label}: the sim campaign never injected"
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

    let analyzed = analyze(study, first, &AnalysisOptions::default());
    assert!(
        analyzed.iter().any(|a| a.accepted()),
        "{label}: no sim experiment accepted by the analysis"
    );

    // --- thread backend: the same factory, real concurrency ---------------
    let d = run_thread_experiment(study, factory, &ThreadHarnessConfig::from(&sim_cfg), 0)
        .expect("valid host list");
    assert_eq!(d.end, ExperimentEnd::Completed, "{label}: thread run hung");
    assert_eq!(
        d.timelines.len(),
        study.num_machines(),
        "{label}: missing thread timelines"
    );
    assert!(
        !d.pre_sync.is_empty() && !d.post_sync.is_empty(),
        "{label}: missing sync mini-phases"
    );
    assert!(
        d.total_injections() >= 1,
        "{label}: the thread campaign never injected"
    );
    let analyzed = analyze_one(study, &d, &AnalysisOptions::default());
    assert!(
        analyzed.accepted(),
        "{label}: thread experiment rejected: {:?}",
        analyzed.verdict
    );
}

/// The quick election campaign used by several tests: every machine faults
/// on its *own* LEAD entry, so whichever machine wins, an injection
/// happens — with zero notification latency, keeping it provably correct
/// on both backends.
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
    // Durations shortened (the thread backend runs in real time) but with
    // detection timeouts several times larger than any plausible CI
    // scheduling stall, so a loaded runner cannot fake a failure.
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
fn election_runs_on_both_backends() {
    let (study, factory) = quick_election();
    check_cross_backend("election", &study, factory, 0xE1EC);
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
/// *unobservable* in the results — byte-identical to the batch
/// `run_study` → `analyze` → measure fold, for every worker count — while
/// never holding more than O(workers) raw `ExperimentData` in memory
/// (asserted via the pipeline's retention gauge). Workers claim
/// experiments from a shared index counter (work stealing), so which
/// worker runs which experiment varies with scheduling; the sweep below
/// pins that the *results* nevertheless stay byte-identical across every
/// worker count, including counts that do not divide the experiment count.
#[test]
fn pipeline_streaming_matches_batch_and_bounds_raw_retention() {
    let (study, factory) = quick_election();
    let mut cfg = SimHarnessConfig::three_hosts(0x51DE);
    cfg.workers = Some(1);
    let experiments = 6u32;

    // --- batch reference ---------------------------------------------------
    let raw = run_study(&study, factory.clone(), &cfg, experiments).expect("valid campaign config");
    let batch = analyze(&study, raw, &AnalysisOptions::default());
    let batch_accepted = batch.iter().filter(|a| a.accepted()).count();
    let batch_values = lead_measure()
        .apply_all(
            &study,
            batch
                .iter()
                .filter(|a| a.accepted())
                .filter_map(|a| a.global()),
        )
        .unwrap();
    assert!(batch_accepted > 0, "campaign must accept something");

    for workers in [1usize, 2, 4, 5, 6] {
        let pipeline = CampaignPipeline::new(study.clone(), factory.clone(), cfg.clone());
        let mut acc = StudyAccumulator::new(lead_measure());
        let mut streamed = Vec::new();
        let summary = pipeline
            .run_with_workers(experiments, workers, |analyzed| {
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
        assert_eq!(streamed.len(), batch.len());
        for (s, b) in streamed.iter().zip(&batch) {
            assert_eq!(s, &b.analysis, "workers {workers}: analysis diverged");
        }
        assert_eq!(summary.accepted, batch_accepted);
        assert!(acc.is_drained());
        assert_eq!(acc.accepted(), batch_accepted);
        assert_eq!(acc.into_values(), batch_values, "workers {workers}");
    }
}

/// On the thread backend the interleavings are genuinely nondeterministic,
/// so streaming-vs-batch equality is checked on the *same* raw data: the
/// per-experiment `analyze_one` a thread campaign loop (and the pipeline's
/// workers) applies must be byte-identical to the batch `analyze`.
#[test]
fn pipeline_analysis_is_faithful_on_the_thread_backend() {
    let (study, factory) = quick_election();
    let cfg = ThreadHarnessConfig::from(&SimHarnessConfig::three_hosts(0x7EAD));
    let opts = AnalysisOptions::default();

    let data: Vec<ExperimentData> = (0..2)
        .map(|k| run_thread_experiment(&study, factory.clone(), &cfg, k).expect("valid host list"))
        .collect();
    let batch = analyze(&study, data.clone(), &opts);
    for (d, b) in data.iter().zip(&batch) {
        assert_eq!(
            d.end,
            ExperimentEnd::Completed,
            "thread experiments must complete"
        );
        assert_eq!(
            analyze_one(&study, d, &opts),
            b.analysis,
            "streamed analysis diverged from batch on experiment {}",
            d.experiment
        );
    }
}

#[test]
fn kvstore_runs_on_both_backends() {
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
    check_cross_backend("kvstore", &study, kv_factory(cfg), 0x4B56);
}

#[test]
fn token_ring_runs_on_both_backends() {
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
    check_cross_backend("token-ring", &study, ring_factory(cfg), 0x716);
}

#[test]
fn threads_backend_rejects_a_placement_on_an_unknown_host() {
    // `ring_study` places its third member on host3. Without that host
    // neither backend has a host to run the machine on: both say so, with
    // the same typed error, before a single experiment starts.
    let study = Study::compile_arc(&ring_study("cross-unknown-host", 3)).unwrap();
    let factory = ring_factory(RingConfig::default());
    let mut cfg = SimHarnessConfig::three_hosts(0x0457);
    cfg.hosts.truncate(2);
    let expected = CampaignError::Hosts(
        "loki: invalid harness config: placement on unknown host `host3`".to_owned(),
    );

    let threads =
        run_thread_experiment(&study, factory.clone(), &ThreadHarnessConfig::from(&cfg), 0);
    assert_eq!(threads.unwrap_err(), expected);
    assert_eq!(
        run_experiment(&study, factory.clone(), &cfg, 0).unwrap_err(),
        expected
    );
    assert_eq!(run_study(&study, factory, &cfg, 2).unwrap_err(), expected);
}
