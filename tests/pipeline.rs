//! Cross-crate integration tests: the full Loki pipeline
//! (specification → runtime → off-line analysis → measures).

use loki::analysis::{accepted_timelines, analyze, AnalysisOptions, MissingPolicy};
use loki::apps::election::{election_factory, election_study, ElectionConfig};
use loki::core::fault::{FaultExpr, Trigger};
use loki::core::spec::{StateMachineSpec, StudyDef};
use loki::core::study::Study;
use loki::measure::prelude::*;
use loki::runtime::daemons::{RestartPlacement, RestartPolicy};
use loki::runtime::harness::{run_experiment, run_study, CampaignPipeline, SimHarnessConfig};
use loki::runtime::AppFactory;
use loki::runtime::{App, NodeCtx, Payload};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A deterministic worker/observer pair used by several tests.
fn wo_study(busy_ms: u64) -> (Arc<Study>, AppFactory) {
    let def = StudyDef::new("wo")
        .machine(
            StateMachineSpec::builder("worker")
                .states(&["INIT", "BUSY", "DONE"])
                .events(&["GO", "FINISH"])
                .state("INIT", &["observer"], &[("GO", "BUSY")])
                .state("BUSY", &["observer"], &[("FINISH", "DONE")])
                .state("DONE", &["observer"], &[])
                .build(),
        )
        .machine(
            StateMachineSpec::builder("observer")
                .states(&["WATCH"])
                .events(&["STOP"])
                .state("WATCH", &[], &[("STOP", "EXIT")])
                .build(),
        )
        .fault(
            "observer",
            "f",
            FaultExpr::atom("worker", "BUSY"),
            Trigger::Once,
        )
        .place("worker", "host1")
        .place("observer", "host2");
    let study = Study::compile_arc(&def).unwrap();

    struct Worker {
        busy_ns: u64,
    }
    impl App for Worker {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _restarted: bool) {
            ctx.notify_event("INIT").unwrap();
            ctx.set_timer(100_000_000, 1);
        }
        fn on_app_message(
            &mut self,
            _ctx: &mut NodeCtx<'_>,
            _from: loki::core::ids::SmId,
            _p: Payload,
        ) {
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
            match tag {
                1 => {
                    ctx.notify_event("GO").unwrap();
                    ctx.set_timer(self.busy_ns, 2);
                }
                2 => {
                    ctx.notify_event("FINISH").unwrap();
                    ctx.exit();
                }
                _ => {}
            }
        }
        fn on_fault(&mut self, _ctx: &mut NodeCtx<'_>, _fault: &str) {}
    }
    struct Observer;
    impl App for Observer {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _restarted: bool) {
            ctx.notify_event("WATCH").unwrap();
            ctx.set_timer(500_000_000, 1);
        }
        fn on_app_message(
            &mut self,
            _ctx: &mut NodeCtx<'_>,
            _from: loki::core::ids::SmId,
            _p: Payload,
        ) {
        }
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
            if tag == 1 {
                ctx.notify_event("STOP").unwrap();
                ctx.exit();
            }
        }
        fn on_fault(&mut self, _ctx: &mut NodeCtx<'_>, _fault: &str) {}
    }

    let busy_ns = busy_ms * 1_000_000;
    let factory: AppFactory = Arc::new(move |study: &Study, sm| -> Box<dyn App> {
        if study.sms.name(sm) == "worker" {
            Box::new(Worker { busy_ns })
        } else {
            Box::new(Observer)
        }
    });
    (study, factory)
}

fn harness(seed: u64) -> SimHarnessConfig {
    let mut h = SimHarnessConfig::three_hosts(seed);
    h.hosts.truncate(2);
    h
}

#[test]
fn full_pipeline_accepts_long_states_and_rejects_short_ones() {
    // 60 ms of BUSY with a 10 ms timeslice: the notification always makes
    // it in time; analysis accepts.
    let (study, factory) = wo_study(60);
    let data = run_study(&study, factory, &harness(1), 8).expect("valid campaign config");
    let analyzed = analyze(&study, data, &AnalysisOptions::default());
    let long_accepted = analyzed.iter().filter(|a| a.accepted()).count();
    assert!(
        long_accepted >= 6,
        "long states accepted: {long_accepted}/8"
    );

    // 2 ms of BUSY: the stale partial view makes most injections land
    // after BUSY ended; analysis must catch them.
    let (study, factory) = wo_study(2);
    let data = run_study(&study, factory, &harness(2), 8).expect("valid campaign config");
    let analyzed = analyze(&study, data, &AnalysisOptions::default());
    let short_accepted = analyzed.iter().filter(|a| a.accepted()).count();
    assert!(
        short_accepted <= 2,
        "short states mostly rejected: {short_accepted}/8"
    );

    // Crucially: the injections *happened* in both cases — only the
    // analysis distinguishes them (the whole point of the thesis).
    assert!(long_accepted > short_accepted);
}

#[test]
fn pipeline_is_deterministic() {
    let (study, factory) = wo_study(40);
    let a = run_experiment(&study, factory.clone(), &harness(7), 0).expect("valid config");
    let b = run_experiment(&study, factory, &harness(7), 0).expect("valid config");
    assert_eq!(a, b);
}

#[test]
fn measure_values_track_ground_truth() {
    let (study, factory) = wo_study(40);
    let data = run_study(&study, factory, &harness(3), 6).expect("valid campaign config");
    let analyzed = analyze(&study, data, &AnalysisOptions::default());
    let accepted = accepted_timelines(&analyzed);
    assert!(!accepted.is_empty());
    let m = StudyMeasure::new("busy").step(MeasureStep {
        subset: SubsetSel::All,
        predicate: Predicate::state("worker", "BUSY"),
        observation: ObservationFn::total_true(),
    });
    let values = m.apply_all(&study, accepted.iter().copied()).unwrap();
    let stats = MomentStats::from_sample(&values).unwrap();
    // The worker is BUSY for exactly 40 ms of its own clock; projected
    // durations may differ by the clock drift (~100 ppm) and bound
    // midpoints, so allow a small tolerance.
    assert!(
        (stats.mean() - 40.0).abs() < 1.0,
        "measured busy time {} ms",
        stats.mean()
    );
}

#[test]
fn election_campaign_end_to_end_with_restart() {
    let def = election_study("study1").fault(
        "black",
        "bfault1",
        FaultExpr::atom("black", "LEAD"),
        Trigger::Once,
    );
    let study = Arc::new(Study::compile(&def).unwrap());
    let mut h = SimHarnessConfig::three_hosts(41);
    h.restart = Some(RestartPolicy {
        probability: 1.0,
        delay_ns: 60_000_000,
        max_restarts: 1,
        placement: RestartPlacement::NextHost,
    });
    let data = run_study(&study, election_factory(ElectionConfig::default()), &h, 10)
        .expect("valid campaign config");
    let analyzed = analyze(&study, data, &AnalysisOptions::default());
    let accepted = accepted_timelines(&analyzed);
    assert!(accepted.len() >= 8, "accepted {}/10", accepted.len());

    // §5.8 coverage measure: every crash must be covered (restart prob 1).
    let ever = |tl: &loki::measure::PredicateTimeline| {
        let (lo, hi) = tl.window;
        (tl.total_true(lo, hi) > 0.0) as u32 as f64
    };
    let m = StudyMeasure::new("coverage")
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
    let values = m.apply_all(&study, accepted.iter().copied()).unwrap();
    for v in &values {
        assert_eq!(*v, 1.0, "restart probability 1.0 means full coverage");
    }
}

#[test]
fn missing_policy_distinguishes_unfired_faults() {
    // With a 1 ms BUSY window and 10 ms timeslices, some experiments see
    // no injection at all (the notification arrives after the observer's
    // view stopped mattering). Under Fail they are rejected; under Ignore
    // the never-injected ones are tolerated (the injected-but-late ones
    // are still rejected).
    let (study, factory) = wo_study(1);
    let data = run_study(&study, factory, &harness(5), 10).expect("valid campaign config");
    let with_fail = analyze(
        &study,
        data.clone(),
        &AnalysisOptions {
            missing: MissingPolicy::Fail,
            ..Default::default()
        },
    );
    let with_ignore = analyze(
        &study,
        data,
        &AnalysisOptions {
            missing: MissingPolicy::Ignore,
            ..Default::default()
        },
    );
    let fail_count = with_fail.iter().filter(|a| a.accepted()).count();
    let ignore_count = with_ignore.iter().filter(|a| a.accepted()).count();
    assert!(ignore_count >= fail_count);
}

#[test]
fn timelines_roundtrip_through_on_disk_format_and_reanalyze() {
    use loki::spec::timeline_file;
    let (study, factory) = wo_study(50);
    let data = run_experiment(&study, factory, &harness(6), 0).expect("valid config");

    // Write every local timeline to the thesis's file format and read it
    // back; the analysis of the round-tripped data must agree.
    let mut roundtripped = data.clone();
    // Hosts written to disk already live in the study-run table, so
    // re-interning on parse reproduces the same ids.
    let mut symbols = (*data.symbols).clone();
    roundtripped.timelines = data
        .timelines
        .iter()
        .map(|t| {
            let text = timeline_file::write(&study, &data.symbols, t);
            timeline_file::parse(&study, &mut symbols, &text).expect("roundtrip parses")
        })
        .collect();
    assert_eq!(roundtripped.timelines, data.timelines);

    let a = analyze(&study, vec![data], &AnalysisOptions::default());
    let b = analyze(&study, vec![roundtripped], &AnalysisOptions::default());
    assert_eq!(a[0].accepted(), b[0].accepted());
}

/// A `CampaignPipeline` over the worker/observer study with an explicit
/// batch (these tests must not read `LOKI_BATCH`).
fn wo_pipeline(seed: u64, batch: usize) -> CampaignPipeline {
    let (study, factory) = wo_study(40);
    let mut cfg = harness(seed);
    cfg.batch = Some(batch);
    CampaignPipeline::new(study, factory, cfg)
}

#[test]
fn sink_runs_on_the_calling_thread_in_index_order() {
    // Caller-runs: the calling thread is one of the workers *and* the only
    // thread that ever touches the sink.
    let experiments = 50u32;
    let caller = std::thread::current().id();
    let mut seen = Vec::new();
    let summary = wo_pipeline(11, 2)
        .run_with_workers(experiments, 3, |analyzed| {
            assert_eq!(std::thread::current().id(), caller, "sink left the caller");
            seen.push(analyzed.experiment);
        })
        .expect("valid campaign config");
    assert_eq!(seen, (0..experiments).collect::<Vec<u32>>());
    assert_eq!(summary.workers, 3);
    assert_eq!(summary.completed, experiments as usize);
}

#[test]
fn panicking_sink_propagates_and_leaves_no_worker_blocked() {
    // The sink panics at index 5 of 400 with four workers. The unwind
    // drops the receiver, so a worker parked in `send` on the (by then
    // full) channel fails its send and bails out; were one left blocked,
    // the scope would never join and this test would time out.
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut sunk = Vec::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            wo_pipeline(12, 1).run_with_workers(400, 4, |analyzed| {
                sunk.push(analyzed.experiment);
                assert!(analyzed.experiment != 5, "sink refuses index 5");
            })
        }));
        done_tx.send((outcome.is_err(), sunk)).ok();
    });
    let (panicked, sunk) = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("pipeline hung after its sink panicked");
    assert!(panicked, "the sink's panic must reach the caller");
    assert_eq!(sunk, vec![0, 1, 2, 3, 4, 5]);
}

#[test]
fn slow_sink_parks_the_workers_instead_of_buffering_the_campaign() {
    // The committer is also a worker, so back-pressure has to come from
    // the channel bound alone: while the caller sits in a slow sink it
    // drains nothing, and the spawned workers can finish only what fits in
    // the channel plus the one result each holds in `send`.
    let (workers, batch, experiments) = (4usize, 2usize, 1000u32);
    let bound = 2 * workers * batch;
    let produced = AtomicUsize::new(0);
    let mut committed = 0usize;
    let mut peak_buffered = 0usize;
    let summary = wo_pipeline(13, batch)
        .run_tapped_with_workers(
            experiments,
            workers,
            |_| {
                produced.fetch_add(1, Ordering::Relaxed);
            },
            |_, ()| {
                std::thread::sleep(Duration::from_micros(200));
                committed += 1;
                // Finished but uncommitted results, wherever they wait.
                let buffered = produced.load(Ordering::Relaxed).saturating_sub(committed);
                peak_buffered = peak_buffered.max(buffered);
            },
        )
        .expect("valid campaign config");
    assert_eq!(committed, experiments as usize);
    // Exact, whatever the scheduling: a finished result waits in the
    // reorder buffer, in the channel, or in the hands of the spawned
    // worker about to send it — nowhere else.
    assert!(
        peak_buffered <= summary.peak_reorder_depth + bound + (workers - 1),
        "{peak_buffered} results buffered: more than reorder depth {} + channel {bound} + senders",
        summary.peak_reorder_depth
    );
    // The reorder buffer itself is deliberately not asserted on: it has no
    // hard bound (a worker descheduled while it holds the next index to
    // commit lets its siblings run ahead — a few dozen results on a quiet
    // machine, hundreds on a loaded one).
}
