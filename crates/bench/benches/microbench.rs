//! Criterion micro-benchmarks for the Loki runtime and analysis paths.
//!
//! The thesis's performance analysis (§3.2.2) argues that Loki's own
//! overheads — fault-expression parsing, recording, notification handling —
//! are minimal next to OS context-switch costs; these benchmarks quantify
//! our implementation's equivalents, plus the off-line analysis and
//! measure-evaluation costs.

use criterion::{criterion_group, BatchSize, Criterion};
use loki_analysis::global::{make_global, GlobalOptions};
use loki_analysis::{accepted_timelines, analyze, AnalysisOptions};
use loki_apps::token_ring::{ring_factory, ring_study, RingConfig};
use loki_bench::accuracy::{injection_accuracy, AccuracyConfig};
use loki_bench::report;
use loki_clock::params::{ClockParams, VirtualClock};
use loki_clock::sync::{estimate_alpha_beta, AlphaBetaBounds, SyncOptions};
use loki_core::campaign::{ExperimentData, HostSync, SyncSample};
use loki_core::fault::{FaultExpr, FaultParser, Trigger};
use loki_core::ids::{Id, StateId, SymbolTable};
use loki_core::recorder::{RecordKind, Recorder};
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_core::time::{LocalNanos, TimeBounds};
use loki_core::view::PartialView;
use loki_measure::fig42::{fig_4_2, predicate_3};
use loki_measure::obsfn::{ImpulseStep, ObservationFn, UpDown};
use loki_measure::prelude::*;
use loki_runtime::harness::{run_study, CampaignPipeline, SimHarnessConfig};
use loki_runtime::messages::NotifyRouting;
use std::collections::HashMap;
use std::sync::Arc;

/// Fault parser re-evaluation on a view change (the §3.5.5 hot path).
fn bench_fault_parser(c: &mut Criterion) {
    // Twenty faults over a five-machine view, mixed expressions.
    let def = (0..5).fold(StudyDef::new("s"), |def, i| {
        def.machine(
            StateMachineSpec::builder(&format!("m{i}"))
                .states(&["A", "B", "C"])
                .events(&["go"])
                .state("A", &[], &[("go", "B")])
                .build(),
        )
    });
    let def = (0..20).fold(def, |def, i| {
        let expr = FaultExpr::atom(&format!("m{}", i % 5), "B")
            .and(FaultExpr::atom(&format!("m{}", (i + 1) % 5), "A").not())
            .or(FaultExpr::atom(&format!("m{}", (i + 2) % 5), "C"));
        def.fault("m0", &format!("f{i}"), expr, Trigger::Always)
    });
    let study = Study::compile(&def).unwrap();
    let faults = study.faults_owned_by(study.sm_id("m0").unwrap());
    let b = study.states.lookup("B").unwrap();
    let a = study.states.lookup("A").unwrap();

    c.bench_function("fault_parser/20_faults_view_change", |bencher| {
        bencher.iter_batched(
            || {
                let mut view = PartialView::new(5);
                for i in 0..5u32 {
                    view.set(Id::from_raw(i), a);
                }
                (FaultParser::new(faults.clone()), view)
            },
            |(mut parser, mut view)| {
                for i in 0..5u32 {
                    view.set(Id::from_raw(i), b);
                    criterion::black_box(parser.on_view_change(&view));
                }
            },
            BatchSize::SmallInput,
        )
    });
}

/// Incremental vs. full fault-parser re-evaluation on a large study: 32
/// machines, 64 faults. A node's view changes one machine at a time, so
/// the parser indexes expressions by the machines they mention and
/// re-evaluates only those ([`FaultParser::on_machine_change`]); this
/// benchmark quantifies the win over the full `on_view_change` scan.
fn bench_fault_parser_incremental(c: &mut Criterion) {
    const MACHINES: u32 = 32;
    const FAULTS: u32 = 64;
    let def = (0..MACHINES).fold(StudyDef::new("big"), |def, i| {
        def.machine(
            StateMachineSpec::builder(&format!("m{i}"))
                .states(&["A", "B", "C"])
                .events(&["go"])
                .state("A", &[], &[("go", "B")])
                .build(),
        )
    });
    // Each fault observes three machines; collectively they cover all 32.
    let def = (0..FAULTS).fold(def, |def, i| {
        let expr = FaultExpr::atom(&format!("m{}", i % MACHINES), "B")
            .and(FaultExpr::atom(&format!("m{}", (i + 7) % MACHINES), "A").not())
            .or(FaultExpr::atom(&format!("m{}", (i + 13) % MACHINES), "C"));
        def.fault("m0", &format!("f{i}"), expr, Trigger::Always)
    });
    let study = Study::compile(&def).unwrap();
    let faults = study.faults_owned_by(study.sm_id("m0").unwrap());
    let a = study.states.lookup("A").unwrap();
    let b = study.states.lookup("B").unwrap();

    // A primed parser; each iteration flips machine 5 between B and A —
    // two genuine single-machine view changes (with real false→true
    // edges), no parser construction or teardown inside the timed region.
    let setup = || {
        let mut view = PartialView::new(MACHINES as usize);
        for i in 0..MACHINES {
            view.set(Id::from_raw(i), a);
        }
        let mut parser = FaultParser::new(faults.clone());
        parser.on_view_change(&view); // prime
        (parser, view)
    };
    let m5 = Id::from_raw(5);

    let mut group = c.benchmark_group("fault_parser_32m_64f");
    group.bench_function("full_scan_on_one_change", |bencher| {
        let (mut parser, mut view) = setup();
        bencher.iter(|| {
            view.set(m5, b);
            criterion::black_box(parser.on_view_change(&view));
            view.set(m5, a);
            criterion::black_box(parser.on_view_change(&view));
        })
    });
    group.bench_function("indexed_scan_on_one_change", |bencher| {
        let (mut parser, mut view) = setup();
        bencher.iter(|| {
            view.set(m5, b);
            criterion::black_box(parser.on_machine_change(&view, m5));
            view.set(m5, a);
            criterion::black_box(parser.on_machine_change(&view, m5));
        })
    });
    group.finish();
}

/// Recorder append (the intrusion §3.5.6 minimizes with index tables).
fn bench_recorder(c: &mut Criterion) {
    c.bench_function("recorder/append_state_change", |bencher| {
        bencher.iter_batched(
            || Recorder::new(Id::from_raw(0), Id::from_raw(0)),
            |mut rec| {
                for i in 0..100u64 {
                    rec.record_state_change(LocalNanos(i), Id::from_raw(0), Id::from_raw(1));
                }
                rec
            },
            BatchSize::SmallInput,
        )
    });
}

/// Off-line clock synchronization: the convex-hull bound estimation.
fn bench_clock_sync(c: &mut Criterion) {
    let reference = VirtualClock::new(ClockParams::ideal());
    let machine = VirtualClock::new(ClockParams::with_drift_ppm(2e6, 80.0));
    let mut samples = Vec::new();
    for k in 0..40u64 {
        let t = k * 500_000;
        samples.push(SyncSample {
            from_reference: true,
            send: reference.read(t),
            recv: machine.read(t + 60_000 + (k * 7919) % 90_000),
        });
        samples.push(SyncSample {
            from_reference: false,
            send: machine.read(t + 250_000),
            recv: reference.read(t + 310_000 + (k * 104_729) % 80_000),
        });
    }
    c.bench_function("clock_sync/estimate_80_samples", |bencher| {
        bencher.iter(|| {
            criterion::black_box(estimate_alpha_beta(&samples, &SyncOptions::default()).unwrap())
        })
    });

    let bounds = estimate_alpha_beta(&samples, &SyncOptions::default()).unwrap();
    c.bench_function("clock_sync/project_timestamp", |bencher| {
        bencher.iter(|| criterion::black_box(bounds.project(LocalNanos(123_456_789))))
    });
}

/// Predicate evaluation + observation functions on the Figure 4.2 data.
fn bench_measure(c: &mut Criterion) {
    let (study, gt) = fig_4_2();
    let compiled = predicate_3().compile(&study).unwrap();
    let window = (0.0, 50.0e6);
    c.bench_function("measure/predicate3_eval", |bencher| {
        bencher.iter(|| criterion::black_box(compiled.eval(&gt, window)))
    });
    let tl = compiled.eval(&gt, window);
    let f = ObservationFn::count(UpDown::Up, ImpulseStep::Both, 10.0, 35.0);
    c.bench_function("measure/count_observation", |bencher| {
        bencher.iter(|| criterion::black_box(f.eval(&tl, window)))
    });
}

/// One complete experiment through the whole pipeline (runtime → sync →
/// analysis): the end-to-end cost of a single Figure 3.2 data point cell.
fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("one_accuracy_experiment", |bencher| {
        let mut seed = 0u64;
        bencher.iter(|| {
            seed += 1;
            criterion::black_box(injection_accuracy(&AccuracyConfig {
                timeslice_ns: 1_000_000,
                time_in_state_ns: 5_000_000,
                experiments: 1,
                seed,
                routing: NotifyRouting::Direct,
            }))
        })
    });
    group.finish();
}

/// A large multi-host analyze-phase fixture: 32 machines over 8 hosts
/// with fleet-style FQDN names, each timeline segmented by restart churn
/// into 64 host stints, ~250 records per machine (state changes plus one
/// injection per stint).
fn make_global_fixture() -> (Study, ExperimentData) {
    const MACHINES: u32 = 32;
    const HOSTS: u32 = 8;
    const STINTS: u64 = 64;
    const CHANGES_PER_STINT: u64 = 2;

    let def = (0..MACHINES).fold(StudyDef::new("mg32"), |def, i| {
        def.machine(
            StateMachineSpec::builder(&format!("m{i}"))
                .states(&["A", "B"])
                .events(&["GO"])
                .state("A", &[], &[("GO", "B")])
                .state("B", &[], &[("GO", "A")])
                .build(),
        )
    });
    let def = (0..MACHINES).fold(def, |def, i| {
        def.fault(
            &format!("m{i}"),
            &format!("f{i}"),
            FaultExpr::atom(&format!("m{i}"), "B"),
            Trigger::Always,
        )
    });
    let study = Study::compile(&def).expect("valid study");

    // Realistic fleet-style host names: the PR 3 baseline hashed one of
    // these per record.
    let symbols =
        Arc::new(SymbolTable::for_hosts((0..HOSTS).map(|h| {
            format!("worker-{h:02}.rack{}.dc1.cluster.example.com", h % 4)
        })));
    let go = study.events.lookup("GO").unwrap();
    let a_state = study.states.lookup("A").unwrap();
    let b_state = study.states.lookup("B").unwrap();

    let timelines = (0..MACHINES)
        .map(|m| {
            let sm = study.sm_id(&format!("m{m}")).unwrap();
            let fault = study.fault_names.lookup(&format!("f{m}")).unwrap();
            let first_host = Id::from_raw(m % HOSTS);
            let mut rec = Recorder::new(sm, first_host);
            let mut t = 1_000_000u64;
            for stint in 0..STINTS {
                if stint > 0 {
                    let host = Id::from_raw((m + stint as u32) % HOSTS);
                    rec = Recorder::resume(rec.finish(), LocalNanos(t), host);
                    t += 500_000;
                }
                for k in 0..CHANGES_PER_STINT {
                    let state = if k % 2 == 0 { b_state } else { a_state };
                    rec.record_state_change(LocalNanos(t), go, state);
                    t += 700_000;
                    if k == 0 {
                        rec.record_injection(LocalNanos(t), fault);
                        t += 100_000;
                    }
                }
            }
            rec.record_state_change(LocalNanos(t), go, study.reserved.exit);
            rec.finish()
        })
        .collect();

    let sync_for = |host: u32| {
        let mut samples = Vec::new();
        for k in 0..8u64 {
            let t = k * 1_000_000 + host as u64 * 37;
            samples.push(SyncSample {
                from_reference: true,
                send: LocalNanos(t),
                recv: LocalNanos(t + 45_000),
            });
            samples.push(SyncSample {
                from_reference: false,
                send: LocalNanos(t + 450_000),
                recv: LocalNanos(t + 495_000),
            });
        }
        HostSync {
            host: Id::from_raw(host),
            samples,
        }
    };
    let data = ExperimentData {
        study: "mg32".into(),
        experiment: 0,
        timelines,
        hosts: symbols.host_ids().collect(),
        reference_host: Id::from_raw(0),
        symbols,
        pre_sync: (1..HOSTS).map(sync_for).collect(),
        post_sync: (1..HOSTS).map(sync_for).collect(),
        end: Default::default(),
        warnings: vec![],
    };
    (study, data)
}

/// The event payload the PR 3 `GlobalEventKind` carried: ids for state
/// changes and injections, an owned `String` for restart hosts.
#[allow(dead_code)] // mirrors the retired type; fields exist to be built
enum BaselineKind {
    StateChange {
        event: loki_core::ids::EventId,
        from_state: StateId,
        new_state: StateId,
    },
    Injection {
        fault: loki_core::ids::FaultId,
    },
    Restart {
        host: String,
    },
    UserMessage(String),
}

#[allow(dead_code)] // mirrors the retired type; fields exist to be built
struct BaselineEvent {
    sm: u32,
    kind: BaselineKind,
    bounds: TimeBounds,
    record_index: usize,
}

type BaselineInterval = (u32, StateId, TimeBounds, Option<TimeBounds>);

/// The PR 3 string-based `make_global`, reproduced cost-for-cost: a
/// name-keyed `HashMap<String, AlphaBetaBounds>` for calibration, a full
/// stint rescan (`host_of_record`) plus a string-hash lookup per record,
/// owned host `String`s cloned into restart events, no capacity
/// reservation — and the same event/interval construction and final sort
/// as the real thing, so the comparison isolates exactly what interning
/// and the cursor scan removed.
fn make_global_strings_baseline(
    study: &Study,
    data: &ExperimentData,
) -> (
    Vec<BaselineEvent>,
    Vec<BaselineInterval>,
    HashMap<String, AlphaBetaBounds>,
) {
    let opts = SyncOptions::default();
    let mut alpha_beta: HashMap<String, AlphaBetaBounds> = HashMap::new();
    alpha_beta.insert(
        data.host_name(data.reference_host).to_owned(),
        AlphaBetaBounds::identity(),
    );
    for &host in &data.hosts {
        if host == data.reference_host {
            continue;
        }
        let samples = data.sync_samples_for(host);
        let bounds = estimate_alpha_beta(&samples, &opts).unwrap();
        alpha_beta.insert(data.host_name(host).to_owned(), bounds);
    }

    let mut events: Vec<BaselineEvent> = Vec::new();
    let mut intervals: Vec<BaselineInterval> = Vec::new();
    for timeline in &data.timelines {
        let mut current_state = study.reserved.begin;
        let mut open: Option<(StateId, TimeBounds)> = None;
        for (idx, record) in timeline.records.iter().enumerate() {
            // PR 3 shape: full stint scan per record, then hash the name.
            let host = data.host_name(timeline.host_of_record(idx));
            let ab = &alpha_beta[host];
            let bounds = ab.project(record.time);
            let kind = match &record.kind {
                RecordKind::StateChange { event, new_state } => {
                    let from_state = current_state;
                    if let Some((state, enter)) = open.take() {
                        intervals.push((timeline.sm.raw(), state, enter, Some(bounds)));
                    }
                    open = Some((*new_state, bounds));
                    current_state = *new_state;
                    BaselineKind::StateChange {
                        event: *event,
                        from_state,
                        new_state: *new_state,
                    }
                }
                RecordKind::FaultInjection { fault } => BaselineKind::Injection { fault: *fault },
                RecordKind::Restart { host } => {
                    if let Some((state, enter)) = open.take() {
                        intervals.push((timeline.sm.raw(), state, enter, Some(bounds)));
                    }
                    open = Some((study.reserved.begin, bounds));
                    current_state = study.reserved.begin;
                    BaselineKind::Restart {
                        host: data.host_name(*host).to_owned(),
                    }
                }
                RecordKind::UserMessage(m) => BaselineKind::UserMessage(m.clone()),
            };
            events.push(BaselineEvent {
                sm: timeline.sm.raw(),
                kind,
                bounds,
                record_index: idx,
            });
        }
        if let Some((state, enter)) = open.take() {
            intervals.push((timeline.sm.raw(), state, enter, None));
        }
    }
    events.sort_by(|a, b| a.bounds.mid().total_cmp(&b.bounds.mid()));
    (events, intervals, alpha_beta)
}

/// `make_global` on the 32-machine / 8-host / 64-stint view: the interned
/// hot path against the PR 3 string-based baseline. The untimed gauge pass
/// records the speedup and ns/op for the `BENCH_pr4.json` artifact.
fn bench_make_global(c: &mut Criterion) {
    let names = [
        "make_global_32m/interned",
        "make_global_32m/strings_baseline",
    ];
    if names.iter().all(|n| criterion::is_filtered_out(n)) {
        return;
    }
    let (study, data) = make_global_fixture();
    let opts = GlobalOptions::default();

    // Sanity: both paths see the same projected event count.
    let gt = make_global(&study, &data, &opts).expect("fixture analyzes");
    let (ref_events, ref_intervals, _) = make_global_strings_baseline(&study, &data);
    assert_eq!(gt.events.len(), ref_events.len());
    assert_eq!(gt.intervals.len(), ref_intervals.len());

    // Untimed gauge pass for the metrics artifact.
    let time = |f: &dyn Fn()| {
        const ITERS: u32 = 20;
        for _ in 0..3 {
            f(); // warm up caches and the allocator
        }
        let start = std::time::Instant::now();
        for _ in 0..ITERS {
            f();
        }
        start.elapsed().as_nanos() as f64 / ITERS as f64
    };
    let interned_ns = time(&|| {
        criterion::black_box(make_global(&study, &data, &opts).unwrap());
    });
    let strings_ns = time(&|| {
        criterion::black_box(make_global_strings_baseline(&study, &data));
    });
    report::record("make_global_32m_ns_per_op", interned_ns);
    report::record("make_global_32m_strings_ns_per_op", strings_ns);
    report::record("make_global_32m_speedup", strings_ns / interned_ns);
    println!(
        "make_global_32m: interned {:.0} ns/op, string baseline {:.0} ns/op ({:.2}x)",
        interned_ns,
        strings_ns,
        strings_ns / interned_ns
    );

    let mut group = c.benchmark_group("make_global_32m");
    group.sample_size(20);
    group.bench_function("interned", |bencher| {
        bencher.iter(|| criterion::black_box(make_global(&study, &data, &opts).unwrap()))
    });
    group.bench_function("strings_baseline", |bencher| {
        bencher.iter(|| criterion::black_box(make_global_strings_baseline(&study, &data)))
    });
    group.finish();
}

/// Campaign-level throughput: the batch collect-everything path
/// (`run_study` → `analyze` → measure fold over all accepted timelines)
/// against the streaming `CampaignPipeline` + `StudyAccumulator` on the
/// identical token-ring campaign. Streaming additionally bounds raw-data
/// retention to the worker count; the gauge line printed before the timed
/// samples shows it next to the batch path's O(experiments) retention.
fn bench_campaign_pipeline(c: &mut Criterion) {
    const EXPERIMENTS: u32 = 8;
    const WORKERS: usize = 2;
    // The untimed gauge pass below runs real campaigns, so skip it (and
    // its output) entirely when the CLI name filter excludes this group.
    let bench_names = [
        "campaign_pipeline/batch_8exp_2workers",
        "campaign_pipeline/streaming_8exp_2workers",
    ];
    if bench_names.iter().all(|n| criterion::is_filtered_out(n)) {
        return;
    }
    let def = ring_study("bench-ring", 3).fault(
        "tr2",
        "kill_holder",
        FaultExpr::atom("tr2", "HAS_TOKEN"),
        Trigger::Once,
    );
    let study = Study::compile_arc(&def).expect("valid study");
    let mut cfg = SimHarnessConfig::three_hosts(0xBE7C);
    cfg.workers = Some(WORKERS);
    let factory = || ring_factory(RingConfig::default());
    let measure = || {
        StudyMeasure::new("token-held").step(MeasureStep {
            subset: SubsetSel::All,
            predicate: Predicate::state("tr2", "HAS_TOKEN"),
            observation: ObservationFn::total_true(),
        })
    };

    let run_batch = || {
        let data = run_study(&study, factory(), &cfg, EXPERIMENTS).expect("valid campaign config");
        let analyzed = analyze(&study, data, &AnalysisOptions::default());
        let accepted = accepted_timelines(&analyzed);
        measure()
            .apply_all(&study, accepted.iter().copied())
            .expect("measure evaluates")
    };
    let run_streaming = || {
        let pipeline = CampaignPipeline::new(study.clone(), factory(), cfg.clone());
        let mut acc = StudyAccumulator::new(measure());
        let mut compact_bytes = 0usize;
        let summary = pipeline
            .run_with_workers(EXPERIMENTS, WORKERS, |analyzed| {
                compact_bytes += analyzed.approx_size_bytes();
                acc.push(&study, &analyzed).expect("measure evaluates");
            })
            .expect("valid campaign config");
        (acc.into_values(), summary, compact_bytes)
    };

    // One untimed pass for the campaign-level gauges the timer can't show:
    // experiments/sec, peak resident raw experiments, and the compact
    // cross-channel payload per experiment (host interning shrank it; the
    // artifact tracks it from PR 4 on).
    let start = std::time::Instant::now();
    let batch_values = run_batch();
    let batch_rate = EXPERIMENTS as f64 / start.elapsed().as_secs_f64();
    let start = std::time::Instant::now();
    let (streaming_values, summary, compact_bytes) = run_streaming();
    let streaming_rate = EXPERIMENTS as f64 / start.elapsed().as_secs_f64();
    assert_eq!(
        batch_values, streaming_values,
        "pipeline must be unobservable"
    );
    let result_bytes_per_exp = compact_bytes as f64 / EXPERIMENTS as f64;
    report::record("campaign_pipeline_streaming_exp_per_sec", streaming_rate);
    report::record("campaign_pipeline_batch_exp_per_sec", batch_rate);
    report::record("compact_result_bytes_per_experiment", result_bytes_per_exp);
    println!(
        "campaign_pipeline: {EXPERIMENTS} experiments, {WORKERS} workers — \
         batch {batch_rate:.1} exp/s holding {EXPERIMENTS} raw experiments; \
         streaming {streaming_rate:.1} exp/s holding peak {} raw experiments; \
         compact result {result_bytes_per_exp:.0} bytes/experiment",
        summary.peak_raw_retained
    );

    let mut group = c.benchmark_group("campaign_pipeline");
    group.sample_size(10);
    group.bench_function("batch_8exp_2workers", |bencher| {
        bencher.iter(|| criterion::black_box(run_batch()))
    });
    group.bench_function("streaming_8exp_2workers", |bencher| {
        bencher.iter(|| criterion::black_box(run_streaming().0))
    });
    group.finish();
}

/// All-in per-event overhead of the batched pipeline: wall clock per
/// simulation event across complete experiments — world reset, (pooled)
/// actor spawning, event dispatch, recording, sync phases, analysis, and
/// buffer reclaim all land in this denominator. The single-`Rc`
/// experiment context, recycled actor hulls, dense daemon tables, and
/// capacity-retaining timeline shells exist to push this number down;
/// `summary.events` (counted by the pipeline itself) makes it measurable
/// without instrumenting the hot loop.
fn bench_event_overhead(c: &mut Criterion) {
    const EXPERIMENTS: u32 = 400;
    const WORKERS: usize = 1; // isolate per-event cost, not thread scaling
    const K: usize = 8;
    if criterion::is_filtered_out("event_overhead/batched_all_in") {
        return;
    }

    // The three-host ring with full-length sync phases: event-rich enough
    // that per-experiment fixed costs amortize, faithful enough that the
    // recording/notification paths dominate like in a real campaign.
    let def = ring_study("bench-ring-events", 3).fault(
        "tr2",
        "kill_holder",
        FaultExpr::atom("tr2", "HAS_TOKEN"),
        Trigger::Once,
    );
    let study = Study::compile_arc(&def).expect("valid study");
    let factory = ring_factory(RingConfig::default());
    let mut cfg = SimHarnessConfig::three_hosts(0xE7E7);
    cfg.batch = Some(K);
    // Containment armed, ceilings far above what the workload uses: the
    // gauge prices the armed admission branch, not budget trips.
    cfg.max_virtual_time = Some(30_000_000_000);
    cfg.max_events = Some(100_000_000);

    let run = || {
        let pipeline = CampaignPipeline::new(study.clone(), factory.clone(), cfg.clone());
        pipeline
            .run_with_workers(EXPERIMENTS, WORKERS, |analyzed| {
                criterion::black_box(analyzed);
            })
            .expect("valid campaign config")
    };

    // Best-of-5 (plus one warm-up), the same robust estimate as the
    // batched-worlds gauge.
    let mut summary = run();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = std::time::Instant::now();
        summary = criterion::black_box(run());
        best = best.min(start.elapsed().as_secs_f64());
    }
    assert!(summary.events > 0, "pipeline must count events");
    // One worker: hulls are reused from the second experiment on (never
    // within an experiment).
    assert!(summary.actor_reuses > 0, "pipeline must recycle hulls");
    let ns_per_event = best * 1e9 / summary.events as f64;
    let events_per_exp = summary.events as f64 / f64::from(EXPERIMENTS);
    report::record("event_overhead_ns_per_event", ns_per_event);
    report::record("event_overhead_events_per_experiment", events_per_exp);
    report::record("event_overhead_actor_reuses", summary.actor_reuses as f64);
    report::record(
        "event_overhead_timeline_reuses",
        summary.timeline_reuses as f64,
    );
    println!(
        "event_overhead: {EXPERIMENTS} experiments (K={K}, {WORKERS} worker), \
         {} events ({events_per_exp:.0}/experiment) — {ns_per_event:.0} ns/event all-in; \
         {} pooled-hull reuses, {} timeline-shell reuses",
        summary.events, summary.actor_reuses, summary.timeline_reuses
    );

    let mut group = c.benchmark_group("event_overhead");
    group.sample_size(10);
    group.bench_function("batched_all_in", |bencher| {
        bencher.iter(|| criterion::black_box(run()))
    });
    group.finish();
}

/// The `sim_event_core` storm: 32 hosts, one node per host, each driving
/// a heartbeat that fans out notification-like messages to three peers,
/// re-arms (set + cancel) a watchdog timer every round, and watches its
/// neighbour; a quarter of the nodes crash at the end, exercising the
/// peer-down path. The same workload runs on the real engine (index heap +
/// timer slab + dense actor state + `InlineVec` fan-out) and on
/// [`loki_bench::event_baseline`] — a structure-for-structure replica of
/// the previous engine (full-payload heap, `HashMap` FIFO horizons,
/// `HashSet` timer tombstones, `Vec` fan-out) — so the measured delta is
/// exactly the event-core rework.
mod storm {
    use loki_core::small::InlineVec;

    pub const HOSTS: u32 = 32;
    pub const ROUNDS: u32 = 48;
    pub const FANOUT: u32 = 3;
    pub const TAG_TICK: u64 = 0;
    pub const TAG_DOG: u64 = 1;

    /// A notification-shaped message: the fan-out list is the part the
    /// engines carry differently (inline vs heap-allocated).
    #[derive(Clone)]
    pub enum NewMsg {
        Note {
            seq: u64,
            hops: u8,
            targets: InlineVec<u32, 4>,
        },
    }

    /// The baseline's message: identical content, `Vec` fan-out (one heap
    /// allocation per message, as before the rework).
    pub enum BaseMsg {
        Note {
            seq: u64,
            hops: u8,
            targets: Vec<u32>,
        },
    }

    /// Deterministic peer choice shared by both implementations.
    pub fn peer(idx: u32, k: u32) -> u32 {
        (idx + k * 7 + 1) % HOSTS
    }
}

/// The storm on the real (indexed) engine.
fn run_storm_indexed(seed: u64) -> u64 {
    use loki_core::small::InlineVec;
    use loki_sim::engine::{Actor, ActorId, Ctx, Simulation, TimerId};
    use std::cell::Cell;
    use std::rc::Rc;
    use storm::{NewMsg, FANOUT, HOSTS, ROUNDS, TAG_DOG, TAG_TICK};

    struct Node {
        idx: u32,
        rounds_left: u32,
        seq: u64,
        watchdog: Option<TimerId>,
        delivered: Rc<Cell<u64>>,
    }
    impl Actor<NewMsg> for Node {
        fn on_start(&mut self, ctx: &mut Ctx<'_, NewMsg>) {
            ctx.watch(ActorId((self.idx + 1) % HOSTS));
            ctx.set_timer(10_000 + u64::from(self.idx) * 97, TAG_TICK);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, NewMsg>, from: ActorId, msg: NewMsg) {
            let NewMsg::Note { seq, hops, targets } = msg;
            // Consume the fan-out list like a daemon routing it.
            self.delivered
                .set(self.delivered.get() + targets.len() as u64);
            if hops == 0 && seq % 4 == 0 {
                let targets: InlineVec<u32, 4> = [self.idx].into_iter().collect();
                ctx.send(
                    from,
                    NewMsg::Note {
                        seq: seq + 1,
                        hops: 1,
                        targets,
                    },
                );
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, NewMsg>, tag: u64) {
            if tag != TAG_TICK {
                return;
            }
            if let Some(old) = self.watchdog.take() {
                ctx.cancel_timer(old);
            }
            self.watchdog = Some(ctx.set_timer(5_000_000, TAG_DOG));
            for k in 0..FANOUT {
                let to = storm::peer(self.idx, k);
                let targets: InlineVec<u32, 4> = [self.idx, to, k].into_iter().collect();
                self.seq += 1;
                ctx.send(
                    ActorId(to),
                    NewMsg::Note {
                        seq: self.seq,
                        hops: 0,
                        targets,
                    },
                );
            }
            self.rounds_left -= 1;
            if self.rounds_left > 0 {
                ctx.set_timer(20_000 + u64::from(self.idx * 31 % 11) * 1_000, TAG_TICK);
            } else if self.idx % 4 == 3 {
                ctx.crash_self();
            }
        }
        fn on_peer_down(
            &mut self,
            _ctx: &mut Ctx<'_, NewMsg>,
            _peer: ActorId,
            _reason: loki_sim::engine::DownReason,
        ) {
            self.delivered.set(self.delivered.get() + 1);
        }
    }

    let mut sim: Simulation<NewMsg> = Simulation::new(seed);
    sim.disable_trace();
    let delivered = Rc::new(Cell::new(0u64));
    let hosts: Vec<_> = (0..HOSTS)
        .map(|i| {
            sim.add_host(
                loki_sim::config::HostConfig::new(&format!("h{i}")).timeslice_ns(2_000_000),
            )
        })
        .collect();
    for (i, &h) in hosts.iter().enumerate() {
        sim.spawn(
            h,
            Box::new(Node {
                idx: i as u32,
                rounds_left: ROUNDS,
                seq: 0,
                watchdog: None,
                delivered: delivered.clone(),
            }),
        );
    }
    sim.run();
    delivered.get()
}

/// The identical storm on the baseline (previous-structures) engine.
fn run_storm_baseline(seed: u64) -> u64 {
    use loki_bench::event_baseline::{
        ActorId, BaselineActor, BaselineCtx, BaselineSim, DownReason, TimerId,
    };
    use std::cell::Cell;
    use std::rc::Rc;
    use storm::{BaseMsg, FANOUT, HOSTS, ROUNDS, TAG_DOG, TAG_TICK};

    struct Node {
        idx: u32,
        rounds_left: u32,
        seq: u64,
        watchdog: Option<TimerId>,
        delivered: Rc<Cell<u64>>,
    }
    impl BaselineActor<BaseMsg> for Node {
        fn on_start(&mut self, ctx: &mut BaselineCtx<'_, BaseMsg>) {
            ctx.watch(ActorId((self.idx + 1) % HOSTS));
            ctx.set_timer(10_000 + u64::from(self.idx) * 97, TAG_TICK);
        }
        fn on_message(&mut self, ctx: &mut BaselineCtx<'_, BaseMsg>, from: ActorId, msg: BaseMsg) {
            let BaseMsg::Note { seq, hops, targets } = msg;
            // Consume the fan-out list like a daemon routing it.
            self.delivered
                .set(self.delivered.get() + targets.len() as u64);
            if hops == 0 && seq % 4 == 0 {
                ctx.send(
                    from,
                    BaseMsg::Note {
                        seq: seq + 1,
                        hops: 1,
                        targets: vec![self.idx],
                    },
                );
            }
        }
        fn on_timer(&mut self, ctx: &mut BaselineCtx<'_, BaseMsg>, tag: u64) {
            if tag != TAG_TICK {
                return;
            }
            if let Some(old) = self.watchdog.take() {
                ctx.cancel_timer(old);
            }
            self.watchdog = Some(ctx.set_timer(5_000_000, TAG_DOG));
            for k in 0..FANOUT {
                let to = storm::peer(self.idx, k);
                self.seq += 1;
                ctx.send(
                    ActorId(to),
                    BaseMsg::Note {
                        seq: self.seq,
                        hops: 0,
                        targets: vec![self.idx, to, k],
                    },
                );
            }
            self.rounds_left -= 1;
            if self.rounds_left > 0 {
                ctx.set_timer(20_000 + u64::from(self.idx * 31 % 11) * 1_000, TAG_TICK);
            } else if self.idx % 4 == 3 {
                ctx.crash_self();
            }
        }
        fn on_peer_down(
            &mut self,
            _ctx: &mut BaselineCtx<'_, BaseMsg>,
            _peer: ActorId,
            _reason: DownReason,
        ) {
            self.delivered.set(self.delivered.get() + 1);
        }
    }

    let mut sim: BaselineSim<BaseMsg> = BaselineSim::new(seed);
    let delivered = Rc::new(Cell::new(0u64));
    let hosts: Vec<_> = (0..HOSTS)
        .map(|i| {
            sim.add_host(
                loki_sim::config::HostConfig::new(&format!("h{i}")).timeslice_ns(2_000_000),
            )
        })
        .collect();
    for (i, &h) in hosts.iter().enumerate() {
        sim.spawn(
            h,
            Box::new(Node {
                idx: i as u32,
                rounds_left: ROUNDS,
                seq: 0,
                watchdog: None,
                delivered: delivered.clone(),
            }),
        );
    }
    sim.run();
    delivered.get()
}

/// The event-core storm: the indexed engine against the cost-faithful
/// replica of the previous structures. The untimed gauge pass records the
/// speedup for the `BENCH_pr5.json` artifact.
fn bench_sim_event_core(c: &mut Criterion) {
    let names = [
        "sim_event_core/indexed_slab_engine",
        "sim_event_core/hash_heap_baseline",
    ];
    if names.iter().all(|n| criterion::is_filtered_out(n)) {
        return;
    }

    // Sanity: both engines drive the identical storm (same RNG draws, same
    // delivery schedule) — the workloads being compared are the same.
    assert_eq!(run_storm_indexed(0x10C0), run_storm_baseline(0x10C0));

    let time = |f: &dyn Fn() -> u64| {
        const ITERS: u32 = 30;
        for _ in 0..10 {
            criterion::black_box(f()); // warm caches and the allocator
        }
        let start = std::time::Instant::now();
        for _ in 0..ITERS {
            criterion::black_box(f());
        }
        start.elapsed().as_nanos() as f64 / ITERS as f64
    };
    let indexed_ns = time(&|| run_storm_indexed(7));
    let baseline_ns = time(&|| run_storm_baseline(7));
    report::record("sim_event_core_indexed_ns_per_storm", indexed_ns);
    report::record("sim_event_core_baseline_ns_per_storm", baseline_ns);
    report::record("sim_event_core_speedup", baseline_ns / indexed_ns);
    println!(
        "sim_event_core: indexed {:.0} ns/storm, hash/heap baseline {:.0} ns/storm ({:.2}x)",
        indexed_ns,
        baseline_ns,
        baseline_ns / indexed_ns
    );

    let mut group = c.benchmark_group("sim_event_core");
    group.bench_function("indexed_slab_engine", |bencher| {
        bencher.iter(|| criterion::black_box(run_storm_indexed(7)))
    });
    group.bench_function("hash_heap_baseline", |bencher| {
        bencher.iter(|| criterion::black_box(run_storm_baseline(7)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fault_parser,
    bench_fault_parser_incremental,
    bench_recorder,
    bench_clock_sync,
    bench_measure,
    bench_make_global,
    bench_sim_event_core,
    bench_pipeline,
    bench_campaign_pipeline,
    bench_event_overhead
);

// Custom main instead of `criterion_main!`: after the groups run, flush
// the collected metrics to the `$LOKI_BENCH_JSON` artifact (no-op when the
// variable is unset).
fn main() {
    benches();
    report::flush();
}
