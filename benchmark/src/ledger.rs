//! The traced pass: the per-crate cost ledger of one workload, measured
//! from outside the crates.
//!
//! A sample of experiments runs through the pipeline at `workers = 1`,
//! `batch = 1` with a tap that clones the raw `ExperimentData`; then the
//! benchmark itself calls each crate's public function over the retained
//! data, one span per call. Alongside, the same campaign is timed untraced
//! at batch 1 and 8 and at one and two workers, and the simulation
//! substrate's queue and engine are timed bare. Exact counts come from
//! `PipelineSummary` and the retained data.
//!
//! `apps` has no timing of its own from outside: it runs inside execute and
//! is covered by `runtime.execute_us_per_exp` and the exact event and
//! record counts.

use crate::bench::{run_rep, time_set_up, Outcome, RunConfig, Sink};
use crate::json::Value;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::{self, Workload, BATCH};
use loki::analysis::cascade::{detect_cascade, CascadeConfig};
use loki::analysis::{analyze_one, check_experiment, make_global, AnalysisOptions};
use loki::clock::sync::estimate_alpha_beta;
use loki::core::campaign::ExperimentData;
use loki::measure::StudyAccumulator;
use loki::sim::engine::{Actor, ActorId, Ctx, Simulation};
use loki::sim::queue::EventQueue;
use loki::sim::HostConfig;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Experiments whose raw data the traced sample retains.
const SAMPLE: u32 = 512;
/// Traced passes over the retained data (after one untraced warm-up).
const PASSES: u32 = 3;
/// Traced set-ups behind the `spec.*` and `core.*` timings.
const SETUP_REPS: usize = 51;
/// Rounds of (batch 1, batch 8, two workers) at least, whatever `--seconds`.
const MIN_ROUNDS: usize = 2;

/// Every per-layer metric, in report order: `(name, unit)`. A metric that
/// does not apply to a workload (cascade detection off `kv_cascade`, the
/// fold where no measure is folded) reads 0 there.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("spec.load_us", "us"),
    ("spec.dir_bytes", "count"),
    ("core.derive_notify_us", "us"),
    ("core.compile_us", "us"),
    ("core.records_per_exp", "count"),
    ("core.injections_per_exp", "count"),
    ("sim.queue_d64_ns_per_op", "ns"),
    ("sim.queue_d4096_ns_per_op", "ns"),
    ("sim.engine_floor_ns_per_event", "ns"),
    ("sim.events_per_exp", "count"),
    ("runtime.pipeline_new_us", "us"),
    ("runtime.pipeline_k1_us_per_exp", "us"),
    ("runtime.pipeline_k8_us_per_exp", "us"),
    ("runtime.batch_gain_us_per_exp", "us"),
    ("runtime.execute_us_per_exp", "us"),
    ("runtime.over_floor_ns_per_event", "ns"),
    ("runtime.handoff_cpu_us_per_exp", "us"),
    ("runtime.scaling_w2", "ratio"),
    ("runtime.actor_reuses", "count"),
    ("runtime.timeline_reuses", "count"),
    ("runtime.result_shell_reuses", "count"),
    ("runtime.result_shell_allocs", "count"),
    ("runtime.peak_raw_retained", "count"),
    ("runtime.quarantined_worlds", "count"),
    ("clock.alpha_beta_us_per_exp", "us"),
    ("analysis.make_global_us_per_exp", "us"),
    ("analysis.make_global_self_us_per_exp", "us"),
    ("analysis.check_us_per_exp", "us"),
    ("analysis.analyze_one_us_per_exp", "us"),
    ("analysis.checks_per_exp", "count"),
    ("analysis.cascade_us_per_exp", "us"),
    ("analysis.accepted_frac", "ratio"),
    ("analysis.result_bytes_per_exp", "count"),
    ("analysis.share_of_all_in", "ratio"),
    ("measure.fold_us_per_exp", "us"),
    ("ledger.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// `EventQueue` hold model: at a steady `depth`, pop the earliest entry and
/// push one later. Returns ns per operation (a pop or a push).
fn queue_ns_per_op(depth: usize) -> f64 {
    const OPS: u64 = 400_000;
    let mut queue: EventQueue<u64> = EventQueue::new();
    // A fixed multiplicative generator: the queue's cost depends on the
    // spread of the times, not on which seed the workload runs.
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        state >> 44
    };
    for i in 0..depth as u64 {
        queue.push(next(), i);
    }
    let run = |queue: &mut EventQueue<u64>, next: &mut dyn FnMut() -> u64| {
        let start = Instant::now();
        for _ in 0..OPS / 2 {
            let (time, body) = queue.pop().expect("the queue holds `depth` entries");
            queue.push(time + 1 + next(), black_box(body));
        }
        start.elapsed().as_secs_f64() * 1e9 / OPS as f64
    };
    run(&mut queue, &mut next);
    let samples: Vec<f64> = (0..5).map(|_| run(&mut queue, &mut next)).collect();
    median(&samples)
}

/// The bare engine: two actors on two hosts returning a message shaped
/// like the runtime's (~40 bytes), engine trace off, scheduling delays on,
/// no runtime layer at all. Returns ns per simulation event.
fn engine_floor_ns_per_event() -> f64 {
    #[derive(Clone)]
    struct Ball {
        _pad: [u64; 4],
    }
    struct Player {
        peer: ActorId,
        left: u32,
        serve: bool,
    }
    impl Actor<Ball> for Player {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Ball>) {
            if self.serve {
                ctx.send(self.peer, Ball { _pad: [0; 4] });
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Ball>, from: ActorId, _msg: Ball) {
            if self.left > 0 {
                self.left -= 1;
                ctx.send(from, Ball { _pad: [0; 4] });
            }
        }
    }
    let run = || {
        let mut sim: Simulation<Ball> = Simulation::new(0x0F00);
        sim.disable_trace();
        let h1 = sim.add_host(HostConfig::new("h1"));
        let h2 = sim.add_host(HostConfig::new("h2"));
        for (host, peer, serve) in [(h1, ActorId(1), true), (h2, ActorId(0), false)] {
            sim.spawn(
                host,
                Box::new(Player {
                    peer,
                    left: 50_000,
                    serve,
                }),
            );
        }
        let start = Instant::now();
        sim.run();
        start.elapsed().as_secs_f64() * 1e9 / sim.events_processed() as f64
    };
    run();
    let samples: Vec<f64> = (0..5).map(|_| run()).collect();
    median(&samples)
}

/// Median duration, in µs, of the spans called `name`.
fn median_span_us(tracer: &Tracer, name: &str) -> f64 {
    let durations: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    median(&durations)
}

pub fn run(cfg: &RunConfig, dir: &Path) -> Result<Outcome, String> {
    let workload = cfg.workload;
    let started = Instant::now();
    workloads::generate(workload, cfg.seed, dir)?;
    let dir_bytes: usize = workloads::dir_contents(dir)?
        .iter()
        .map(|(_, bytes)| bytes.len())
        .sum();

    // --- set-up, one span per step -------------------------------------
    time_set_up(workload, dir, cfg.seed, 3)?;
    let mut setup_tracer = Tracer::on();
    for _ in 0..SETUP_REPS {
        workloads::set_up(workload, dir, cfg.seed, &mut setup_tracer)?;
    }
    let campaign = workloads::set_up(workload, dir, cfg.seed, &mut Tracer::off())?;
    let study = &campaign.study;

    // --- the traced sample: raw data retained through the tap ------------
    let sample = if cfg.quick { SAMPLE / 8 } else { SAMPLE };
    let mut tracer = Tracer::on();
    let mut raw: Vec<ExperimentData> = Vec::with_capacity(sample as usize);
    let mut piped = Vec::with_capacity(sample as usize);
    let mut sample_failed = 0u64;
    let span = tracer.begin("runtime.pipeline_traced_sample", None);
    let sample_start = Instant::now();
    let sample_summary = campaign
        .pipeline(1)
        .run_tapped_with_workers(sample, 1, ExperimentData::clone, |analyzed, data| {
            piped.push(analyzed);
            raw.push(data);
        })
        .map_err(|e| format!("campaign rejected: {e}"))?;
    let traced_us_per_exp = sample_start.elapsed().as_secs_f64() * 1e6 / f64::from(sample);
    tracer.end(span);

    // --- each crate's public function over the retained data -------------
    let opts = AnalysisOptions::default();
    let cascade = CascadeConfig::default();
    let mut samples = Vec::new();
    let mut outside_matches = true;
    let (mut check_count, mut accepted, mut result_bytes, mut records) =
        (0usize, 0usize, 0usize, 0usize);
    for pass in 0..=PASSES {
        // Pass 0 warms caches and the allocator and is not traced.
        let mut off = Tracer::off();
        let t = if pass == 0 { &mut off } else { &mut tracer };
        let mut acc = workload.measure().map(StudyAccumulator::new);
        for (data, from_pipeline) in raw.iter().zip(&piped) {
            let k = Some(data.experiment);
            let root = t.begin("ledger.experiment", k);
            for &host in data.hosts.iter().filter(|&&h| h != data.reference_host) {
                data.sync_samples_into(host, &mut samples);
                let span = t.begin("clock.alpha_beta", k);
                let bounds = estimate_alpha_beta(&samples, &opts.global.sync);
                t.end(span);
                black_box(bounds).map_err(|e| format!("clock calibration failed: {e}"))?;
            }
            let span = t.begin("analysis.make_global", k);
            let global = make_global(study, data, &opts.global);
            t.end(span);
            let global = global.map_err(|e| format!("make_global failed: {e}"))?;
            let span = t.begin("analysis.check_experiment", k);
            let verdict = check_experiment(study, &global, opts.missing);
            t.end(span);
            if workload == Workload::KvCascade {
                let span = t.begin("analysis.detect_cascade", k);
                black_box(detect_cascade(study, &global, &cascade));
                t.end(span);
            }
            let span = t.begin("analysis.analyze_one", k);
            let analyzed = analyze_one(study, data, &opts);
            t.end(span);
            if let Some(acc) = &mut acc {
                let span = t.begin("measure.fold", k);
                let pushed = acc.push(study, &analyzed);
                t.end(span);
                pushed.map_err(|e| format!("measure failed: {e}"))?;
            }
            if pass == 0 {
                outside_matches &= analyzed == *from_pipeline
                    && analyzed.verdict.as_ref() == Some(&verdict)
                    && analyzed.global.as_ref() == Some(&global);
                if analyzed.end != loki::core::campaign::ExperimentEnd::Completed
                    || analyzed.error.is_some()
                {
                    sample_failed += 1;
                }
                check_count += verdict.checks.len();
                accepted += usize::from(analyzed.accepted());
                result_bytes += analyzed.approx_size_bytes();
                records += data
                    .timelines
                    .iter()
                    .map(|t| t.records.len())
                    .sum::<usize>();
            }
            t.end(root);
        }
    }
    let calls = f64::from(sample) * f64::from(PASSES);
    let per_exp_us = |name: &str| tracer.total_ns(name).0 as f64 / 1e3 / calls;
    let per_exp = |count: usize| count as f64 / f64::from(sample);

    // --- the same campaign untraced: batch 1 and 8, one and two workers ---
    let n = (cfg.experiments() / 2).max(1);
    // Shapes: batch 1; batch 8; batch 8 on two workers.
    let (k1, k8) = (campaign.pipeline(1), campaign.pipeline(BATCH));
    let shapes = [(&k1, 1), (&k8, 1), (&k8, 2)];
    let mut us_per_exp: [Vec<f64>; 3] = Default::default();
    let mut cpu_s = [0.0f64; 3];
    let (mut attempted, mut failed) = (u64::from(sample), sample_failed);
    // Whatever the shape, the same experiments must yield the same counts.
    let mut expected = None;
    let mut counts_agree = true;
    let mut k8_summary = sample_summary;
    let budget = cfg.seconds * 0.6;
    while us_per_exp[0].len() < MIN_ROUNDS
        || (!cfg.quick && started.elapsed().as_secs_f64() < budget && us_per_exp[0].len() < 64)
    {
        for (shape, (pipeline, workers)) in shapes.into_iter().enumerate() {
            let mut sink = Sink::light(workload, study);
            let (wall, cpu, summary) = run_rep(pipeline, n, workers, &mut sink)?;
            us_per_exp[shape].push(wall * 1e6 / f64::from(n));
            cpu_s[shape] += cpu;
            attempted += u64::from(n);
            failed += sink.failed;
            let counts = (summary.events, summary.injections, summary.accepted);
            counts_agree &= *expected.get_or_insert(counts) == counts;
            if shape == 1 {
                k8_summary = summary;
            }
        }
    }
    let rounds = us_per_exp[0].len();
    let done = f64::from(n) * rounds as f64;

    // --- the substrate, bare ---------------------------------------------
    let queue_d64 = queue_ns_per_op(64);
    let queue_d4096 = queue_ns_per_op(4096);
    let engine_floor = engine_floor_ns_per_event();

    // --- the ledger -------------------------------------------------------
    let [pipeline_k1, pipeline_k8, pipeline_w2] = us_per_exp.each_ref().map(|v| median(v));
    let events_per_exp = k8_summary.events as f64 / f64::from(n);
    let analyze_one_us = per_exp_us("analysis.analyze_one");
    let make_global_us = per_exp_us("analysis.make_global");
    let alpha_beta_us = per_exp_us("clock.alpha_beta");
    let cascade_us = per_exp_us("analysis.detect_cascade");
    let fold_us = per_exp_us("measure.fold");
    // Execute cannot be called alone from outside the crates: it is what is
    // left of the plainest pipeline once the analysis is taken out.
    let execute_us = pipeline_k1 - analyze_one_us - cascade_us - fold_us;
    // Attributed: what a span or a bare measurement owns. The issue's
    // formula (execute + analyze_one + fold over pipeline_k1) is 1 by
    // construction, because execute is itself a difference; what no layer
    // owns yet is execute above the bare engine — node core, daemons,
    // recorder, applications and the per-experiment fixed cost.
    let attributed_us = engine_floor * events_per_exp / 1e3 + analyze_one_us + cascade_us + fold_us;
    let values: Vec<f64> = vec![
        median_span_us(&setup_tracer, "spec.load"),
        dir_bytes as f64,
        median_span_us(&setup_tracer, "core.derive_notify"),
        median_span_us(&setup_tracer, "core.compile"),
        per_exp(records),
        sample_summary.injections as f64 / f64::from(sample),
        queue_d64,
        queue_d4096,
        engine_floor,
        events_per_exp,
        median_span_us(&setup_tracer, "runtime.pipeline_new"),
        pipeline_k1,
        pipeline_k8,
        pipeline_k1 - pipeline_k8,
        execute_us,
        execute_us * 1e3 / events_per_exp - engine_floor,
        (cpu_s[2] - cpu_s[1]) * 1e6 / done,
        pipeline_k8 / pipeline_w2,
        k8_summary.actor_reuses as f64,
        k8_summary.timeline_reuses as f64,
        k8_summary.result_shell_reuses as f64,
        k8_summary.result_shell_allocs as f64,
        k8_summary.peak_raw_retained as f64,
        k8_summary.quarantined_worlds as f64,
        alpha_beta_us,
        make_global_us,
        make_global_us - alpha_beta_us,
        per_exp_us("analysis.check_experiment"),
        analyze_one_us,
        per_exp(check_count),
        cascade_us,
        per_exp(accepted),
        per_exp(result_bytes),
        analyze_one_us / pipeline_k1,
        fold_us,
        1.0 - attributed_us / pipeline_k1,
        traced_us_per_exp / pipeline_k1 - 1.0,
        tracer.spans.len() as f64,
    ];
    assert_eq!(values.len(), PER_LAYER.len());

    // --- the trace file ---------------------------------------------------
    let out = crate::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let trace_path = out.join(format!("trace_{}.json", workload.name()));
    std::fs::write(
        &trace_path,
        tracer.to_chrome_trace(workload.name()).to_line(),
    )
    .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    let checks = [
        ("outside_analysis_matches_pipeline", outside_matches),
        ("all_completed", sample_summary.completed == sample as usize),
        ("no_operation_failed", failed == 0),
        ("counts_agree_across_batch_sizes", counts_agree),
        ("metrics_are_finite", values.iter().all(|v| v.is_finite())),
    ];
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .zip(&values)
        .map(|((name, unit), value)| (*name, *unit, *value))
        .collect();
    let detail = Value::obj([
        ("workload", Value::str(workload.name())),
        ("seed", Value::str(cfg.seed.to_string())),
        ("comparable", Value::Bool(!cfg.quick)),
        ("sample", Value::Num(f64::from(sample))),
        ("passes", Value::Num(f64::from(PASSES))),
        ("rounds", Value::Num(rounds as f64)),
        ("experiments_per_round_run", Value::Num(f64::from(n))),
        ("ops_attempted", Value::Num(attempted as f64)),
        ("ops_failed", Value::Num(failed as f64)),
        ("trace_file", Value::str(trace_path.display().to_string())),
        (
            "self_time_us_per_exp",
            Value::obj(
                [
                    "ledger.experiment",
                    "analysis.make_global",
                    "analysis.check_experiment",
                    "analysis.analyze_one",
                ]
                .map(|name| {
                    (
                        name,
                        Value::Num(tracer.total_self_ns(name) as f64 / 1e3 / calls),
                    )
                }),
            ),
        ),
        (
            "metrics",
            Value::obj(metrics.iter().map(|(name, unit, value)| {
                (
                    *name,
                    Value::obj([("unit", Value::str(*unit)), ("value", Value::Num(*value))]),
                )
            })),
        ),
        (
            "checks",
            Value::obj(checks.iter().map(|(name, ok)| (*name, Value::Bool(*ok)))),
        ),
    ]);
    Ok(Outcome {
        correct: checks.iter().all(|(_, ok)| *ok),
        attempted,
        failed,
        metrics,
        detail,
    })
}
