//! The Figure 3.2/3.3 experiment: correct-injection probability as a
//! function of time spent in the targeted state (§3.2.2).
//!
//! Setup (mirroring the thesis's performance analysis): a *target* machine
//! on one host holds a designated state for a configurable duration; an
//! *injector* machine on another host owns a fault triggered by that remote
//! state. The injector's view lags by the notification latency — dominated
//! by the OS scheduling delay at the message endpoints — so for short state
//! residence times the injection often lands after the state was left. The
//! full pipeline (runtime → off-line clock sync → conservative correctness
//! check) classifies each experiment, and the probability of correct
//! injection rises to ≈1 once the residence time exceeds a couple of OS
//! timeslices.

use loki_core::fault::{FaultExpr, Trigger};
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_runtime::harness::{CampaignPipeline, SimHarnessConfig};
use loki_runtime::messages::NotifyRouting;
use loki_runtime::{App, AppFactory, NodeCtx, Payload};
use loki_sim::config::HostConfig;
use std::sync::Arc;

/// Configuration for one accuracy sweep point.
#[derive(Clone, Debug)]
pub struct AccuracyConfig {
    /// OS scheduler timeslice on both hosts (ns): 10 ms for Figure 3.2,
    /// 1 ms for Figure 3.3.
    pub timeslice_ns: u64,
    /// How long the target stays in the targeted state (ns).
    pub time_in_state_ns: u64,
    /// Experiments per point.
    pub experiments: u32,
    /// Base seed.
    pub seed: u64,
    /// Notification routing. The thesis's Figures 3.2/3.3 measured the
    /// *original* runtime whose state machines hold direct connections, so
    /// the figure binaries use [`NotifyRouting::Direct`].
    pub routing: NotifyRouting,
}

/// One sweep point's outcome.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct AccuracyPoint {
    /// Experiments run.
    pub total: u32,
    /// Experiments in which the injection occurred at all.
    pub injected: u32,
    /// Experiments accepted by the analysis (injection provably correct).
    pub correct: u32,
}

impl AccuracyPoint {
    /// The correct-injection probability.
    pub fn probability(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }
}

const TAG_ENTER: u64 = 1;
const TAG_LEAVE: u64 = 2;
const TAG_EXIT: u64 = 3;
const TAG_LIFETIME: u64 = 4;

/// The target application: SETUP, then ARMED for a configured duration,
/// then COOL and exit.
pub struct TargetApp {
    settle_ns: u64,
    time_in_state_ns: u64,
}

impl TargetApp {
    /// Creates a target that enters `ARMED` after `settle_ns` and leaves it
    /// after `time_in_state_ns`.
    pub fn new(settle_ns: u64, time_in_state_ns: u64) -> Self {
        TargetApp {
            settle_ns,
            time_in_state_ns,
        }
    }
}

impl App for TargetApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _restarted: bool) {
        ctx.notify_event("SETUP").expect("initial state");
        ctx.set_timer(self.settle_ns, TAG_ENTER);
    }
    fn on_app_message(
        &mut self,
        _ctx: &mut NodeCtx<'_>,
        _from: loki_core::ids::SmId,
        _payload: Payload,
    ) {
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        match tag {
            TAG_ENTER => {
                ctx.notify_event("ENTER").expect("SETUP -> ARMED");
                ctx.set_timer(self.time_in_state_ns, TAG_LEAVE);
            }
            TAG_LEAVE => {
                ctx.notify_event("LEAVE").expect("ARMED -> COOL");
                ctx.set_timer(50_000_000, TAG_EXIT);
            }
            TAG_EXIT => {
                let _ = ctx.notify_event("DONE");
                ctx.exit();
            }
            _ => {}
        }
    }
    fn on_fault(&mut self, _ctx: &mut NodeCtx<'_>, _fault: &str) {}
}

/// The injector application: watches passively; its fault parser performs
/// the injection when the remote state notification arrives.
pub struct InjectorApp {
    lifetime_ns: u64,
}

impl InjectorApp {
    /// Creates an injector that exits after `lifetime_ns`.
    pub fn new(lifetime_ns: u64) -> Self {
        InjectorApp { lifetime_ns }
    }
}

impl App for InjectorApp {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _restarted: bool) {
        ctx.notify_event("WATCH").expect("initial state");
        ctx.set_timer(self.lifetime_ns, TAG_LIFETIME);
    }
    fn on_app_message(
        &mut self,
        _ctx: &mut NodeCtx<'_>,
        _from: loki_core::ids::SmId,
        _payload: Payload,
    ) {
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        if tag == TAG_LIFETIME {
            let _ = ctx.notify_event("DONE");
            ctx.exit();
        }
    }
    fn on_fault(&mut self, _ctx: &mut NodeCtx<'_>, _fault: &str) {
        // The actual injection effect is irrelevant for the accuracy
        // measurement; only its recorded time matters.
    }
}

/// The two-machine accuracy study: `target` holds `ARMED`; `injector` owns
/// fault `f` on `(target:ARMED)`.
pub fn accuracy_study() -> StudyDef {
    StudyDef::new("accuracy")
        .machine(
            StateMachineSpec::builder("target")
                .states(&["SETUP", "ARMED", "COOL"])
                .events(&["ENTER", "LEAVE", "DONE"])
                .state(
                    "SETUP",
                    &["injector"],
                    &[("ENTER", "ARMED"), ("DONE", "EXIT")],
                )
                .state("ARMED", &["injector"], &[("LEAVE", "COOL")])
                .state("COOL", &["injector"], &[("DONE", "EXIT")])
                .build(),
        )
        .machine(
            StateMachineSpec::builder("injector")
                .states(&["WATCH"])
                .events(&["DONE"])
                .state("WATCH", &[], &[("DONE", "EXIT")])
                .build(),
        )
        .fault(
            "injector",
            "f",
            FaultExpr::atom("target", "ARMED"),
            Trigger::Once,
        )
        .place("target", "host1")
        .place("injector", "host2")
}

/// Runs one sweep point and classifies every experiment through the full
/// analysis pipeline.
pub fn injection_accuracy(cfg: &AccuracyConfig) -> AccuracyPoint {
    use loki_clock::params::ClockParams;
    let study = Arc::new(Study::compile(&accuracy_study()).expect("valid study"));

    let settle_ns = 150_000_000; // everyone registered before ARMED
    let lifetime_ns = settle_ns + cfg.time_in_state_ns + 250_000_000;
    let time_in_state_ns = cfg.time_in_state_ns;
    let factory: AppFactory = Arc::new(move |study: &Study, sm| -> Box<dyn App> {
        if study.sms.name(sm) == "target" {
            Box::new(TargetApp::new(settle_ns, time_in_state_ns))
        } else {
            Box::new(InjectorApp::new(lifetime_ns))
        }
    });

    let harness = SimHarnessConfig {
        hosts: vec![
            HostConfig::new("host1")
                .clock(ClockParams::with_drift_ppm(0.0, 80.0))
                .timeslice_ns(cfg.timeslice_ns),
            HostConfig::new("host2")
                .clock(ClockParams::with_drift_ppm(1e6, -45.0))
                .timeslice_ns(cfg.timeslice_ns),
        ],
        routing: cfg.routing,
        seed: cfg.seed,
        ..Default::default()
    };

    // Streaming: each experiment is classified the moment it finishes and
    // its raw data dropped; only the two counters survive.
    let pipeline = CampaignPipeline::new(study, factory, harness);
    let mut injected = 0u32;
    let mut correct = 0u32;
    pipeline
        .run(cfg.experiments, |analyzed| {
            if analyzed.injections > 0 {
                injected += 1;
            }
            if analyzed.accepted() {
                correct += 1;
            }
        })
        .expect("valid campaign config");
    AccuracyPoint {
        total: cfg.experiments,
        injected,
        correct,
    }
}

/// Sweeps time-in-state over `points_ms` and returns
/// `(time_in_state_ms, probability)` rows.
pub fn accuracy_sweep(
    timeslice_ns: u64,
    points_ms: &[f64],
    experiments: u32,
    seed: u64,
) -> Vec<(f64, AccuracyPoint)> {
    points_ms
        .iter()
        .enumerate()
        .map(|(i, &ms)| {
            let cfg = AccuracyConfig {
                timeslice_ns,
                time_in_state_ns: (ms * 1e6) as u64,
                experiments,
                seed: seed.wrapping_add((i as u64) << 32),
                routing: NotifyRouting::Direct,
            };
            (ms, injection_accuracy(&cfg))
        })
        .collect()
}

/// Prints one of the two accuracy figures (3.2, 3.3) the way the thesis
/// tabulates it: a header naming the timeslice, one row per time-in-state
/// point of [`accuracy_sweep`], and `shape_note` — what the paper's curve
/// looks like, for the reader to hold the rows against.
pub fn print_accuracy_figure(
    title: &str,
    timeslice_ns: u64,
    points_ms: &[f64],
    experiments: u32,
    seed: u64,
    shape_note: &str,
) {
    println!("# {title} — correct fault injection probability vs time in state");
    println!(
        "# OS timeslice: {} ms; runtime: direct connections (original Loki runtime)",
        timeslice_ns / 1_000_000
    );
    println!("# {experiments} experiments per point; full runtime->sync->analysis pipeline");
    println!(
        "{:>16} {:>12} {:>10} {:>10}",
        "time_in_state_ms", "P(correct)", "injected", "total"
    );
    for (ms, point) in accuracy_sweep(timeslice_ns, points_ms, experiments, seed) {
        println!(
            "{:>16.1} {:>12.3} {:>10} {:>10}",
            ms,
            point.probability(),
            point.injected,
            point.total
        );
    }
    println!("{shape_note}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_residence_is_nearly_always_correct() {
        let p = injection_accuracy(&AccuracyConfig {
            timeslice_ns: 1_000_000,      // 1 ms slice
            time_in_state_ns: 20_000_000, // 20 ms >> 2 timeslices
            experiments: 15,
            seed: 1,
            routing: NotifyRouting::Direct,
        });
        assert!(p.probability() > 0.9, "{p:?}");
    }

    #[test]
    fn sub_timeslice_residence_mostly_misses() {
        let p = injection_accuracy(&AccuracyConfig {
            timeslice_ns: 10_000_000,    // 10 ms slice
            time_in_state_ns: 2_000_000, // 2 ms << timeslice
            experiments: 15,
            seed: 2,
            routing: NotifyRouting::Direct,
        });
        assert!(p.probability() < 0.5, "{p:?}");
    }

    #[test]
    fn probability_is_monotone_ish_in_residence_time() {
        let rows = accuracy_sweep(10_000_000, &[2.0, 10.0, 40.0], 12, 3);
        let probs: Vec<f64> = rows.iter().map(|(_, p)| p.probability()).collect();
        assert!(probs[0] <= probs[1] + 0.2, "{probs:?}");
        assert!(probs[1] <= probs[2] + 0.2, "{probs:?}");
        assert!(probs[2] > 0.8, "{probs:?}");
    }
}
