//! Quickstart: the whole Loki pipeline in one file.
//!
//! 1. Specify a two-machine system (state machines + a global-state fault).
//! 2. Implement the application against the probe interface — once.
//! 3. Run the streaming campaign pipeline on the simulator: each
//!    experiment is executed, analyzed (off-line clock sync → global
//!    timeline → correctness check), and folded into the measure the
//!    moment it finishes — raw data never outlives its worker.
//! 4. Read the measure estimate off the accumulator.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use loki::core::fault::{FaultExpr, Trigger};
use loki::core::spec::{StateMachineSpec, StudyDef};
use loki::core::study::Study;
use loki::measure::prelude::*;
use loki::runtime::harness::{CampaignPipeline, SimHarnessConfig};
use loki::runtime::{App, AppFactory, NodeCtx, Payload};
use std::sync::Arc;

/// `worker` grinds through INIT → BUSY → DONE; `observer` watches and
/// injects a fault whenever the worker is BUSY — based purely on its
/// (possibly stale) view of the *global* state.
struct Worker;
struct Observer;

impl App for Worker {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _restarted: bool) {
        ctx.notify_event("INIT").unwrap();
        ctx.set_timer(100_000_000, 1); // 100 ms of setup
    }
    fn on_app_message(
        &mut self,
        _ctx: &mut NodeCtx<'_>,
        _from: loki::core::ids::SmId,
        _payload: Payload,
    ) {
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        match tag {
            1 => {
                ctx.notify_event("GO").unwrap(); // -> BUSY
                ctx.set_timer(40_000_000, 2); // 40 ms of work
            }
            2 => {
                ctx.notify_event("FINISH").unwrap(); // -> DONE
                ctx.exit();
            }
            _ => {}
        }
    }
    fn on_fault(&mut self, _ctx: &mut NodeCtx<'_>, _fault: &str) {}
}

impl App for Observer {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _restarted: bool) {
        ctx.notify_event("WATCH").unwrap();
        ctx.set_timer(400_000_000, 1);
    }
    fn on_app_message(
        &mut self,
        _ctx: &mut NodeCtx<'_>,
        _from: loki::core::ids::SmId,
        _payload: Payload,
    ) {
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        if tag == 1 {
            ctx.notify_event("STOP").unwrap();
            ctx.exit();
        }
    }
    fn on_fault(&mut self, ctx: &mut NodeCtx<'_>, fault: &str) {
        // The probe's injectFault(): here we only log; campaigns usually
        // crash/corrupt the process.
        ctx.record_user_message(format!("injected {fault}"));
    }
}

fn main() {
    // --- 1. specification ---------------------------------------------------
    let def = StudyDef::new("quickstart")
        .machine(
            StateMachineSpec::builder("worker")
                .states(&["INIT", "BUSY", "DONE"])
                .events(&["GO", "FINISH"])
                // BUSY notifies the observer: that's the partial view of
                // global state the fault needs.
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
            "poke_busy_worker",
            FaultExpr::atom("worker", "BUSY"),
            Trigger::Once,
        )
        .place("worker", "host1")
        .place("observer", "host2");
    let study = Study::compile_arc(&def).expect("specification is valid");

    // --- 2./3./4. the streaming campaign pipeline -----------------------------
    // Execution, clock sync, global-timeline construction, verdict
    // checking, and the measure fold all happen per experiment, on the
    // worker pool; at no point does the campaign hold more than one raw
    // experiment per worker.
    let factory: AppFactory = Arc::new(|study: &Study, sm| -> Box<dyn App> {
        if study.sms.name(sm) == "worker" {
            Box::new(Worker)
        } else {
            Box::new(Observer)
        }
    });
    let mut harness = SimHarnessConfig::three_hosts(7);
    harness.hosts.truncate(2);

    // "How long was the worker BUSY?" across accepted experiments.
    let measure = StudyMeasure::new("busy-time").step(MeasureStep {
        subset: SubsetSel::All,
        predicate: Predicate::state("worker", "BUSY"),
        observation: ObservationFn::total_true(),
    });
    let mut busy_time = StudyAccumulator::new(measure);
    let pipeline = CampaignPipeline::new(study.clone(), factory, harness);
    let summary = pipeline
        .run(10, |analyzed| {
            busy_time
                .push(&study, &analyzed)
                .expect("measure evaluates");
        })
        .expect("valid campaign config");
    println!(
        "ran {} experiments on {} workers (peak raw experiments in memory: {})",
        summary.experiments, summary.workers, summary.peak_raw_retained
    );
    println!(
        "analysis accepted {}/{} experiments (injections provably in (worker:BUSY))",
        summary.accepted, summary.experiments
    );
    if let Some(stats) = busy_time.stats() {
        println!(
            "busy time: mean {:.2} ms, std-dev {:.3} ms over {} experiments",
            stats.mean(),
            stats.std_dev(),
            stats.n
        );
    }
}
