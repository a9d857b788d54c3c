//! The reproduction's central soundness property: the analysis phase never
//! accepts an experiment whose injection did **not** truly land in the
//! targeted global state.
//!
//! Oracle construction: both hosts get *ideal* clocks (offset 0, drift 0),
//! so every recorded local time equals true physical time, and ground
//! truth is directly computable from the timelines — the injection is
//! truly correct iff its timestamp lies within the target's
//! `[ARMED entry, ARMED exit]` window. The analysis, of course, does not
//! know the clocks are ideal: it estimates (α, β) bounds from sync
//! messages like always. Soundness requires
//! `accepted ⇒ truly correct` for every seed and state-residence time;
//! completeness (accepting most truly-correct ones) is measured but only
//! loosely asserted, since the check is deliberately conservative.
//!
//! The sweep covers two delay regimes: the thesis's (10 ms timeslices,
//! LAN latencies, holds of milliseconds) and a microsecond one (10 µs
//! timeslices, TCP 10 + U(0, 20) µs, IPC 2 + U(0, 2) µs, holds down to
//! 20 µs), where the α bounds are as wide as the shortest holds.

use loki::analysis::{AnalysisOptions, MissingPolicy};
use loki::core::fault::{FaultExpr, Trigger};
use loki::core::recorder::RecordKind;
use loki::core::spec::{StateMachineSpec, StudyDef};
use loki::core::study::Study;
use loki::runtime::harness::{CampaignPipeline, SimHarnessConfig};
use loki::runtime::messages::NotifyRouting;
use loki::runtime::AppFactory;
use loki::runtime::{App, NodeCtx, Payload};
use loki::sim::config::{HostConfig, LatencyModel, NetworkConfig};
use std::sync::Arc;

struct Target {
    settle_ns: u64,
    hold_ns: u64,
}
impl App for Target {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _: bool) {
        ctx.notify_event("SETUP").unwrap();
        ctx.set_timer(self.settle_ns, 1);
    }
    fn on_app_message(&mut self, _: &mut NodeCtx<'_>, _: loki::core::ids::SmId, _: Payload) {}
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        match tag {
            1 => {
                ctx.notify_event("ENTER").unwrap();
                ctx.set_timer(self.hold_ns, 2);
            }
            2 => {
                ctx.notify_event("LEAVE").unwrap();
                ctx.set_timer(50_000_000, 3);
            }
            3 => {
                let _ = ctx.notify_event("DONE");
                ctx.exit();
            }
            _ => {}
        }
    }
    fn on_fault(&mut self, _: &mut NodeCtx<'_>, _: &str) {}
}

struct Watcher {
    lifetime_ns: u64,
}
impl App for Watcher {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _: bool) {
        ctx.notify_event("WATCH").unwrap();
        ctx.set_timer(self.lifetime_ns, 1);
    }
    fn on_app_message(&mut self, _: &mut NodeCtx<'_>, _: loki::core::ids::SmId, _: Payload) {}
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        if tag == 1 {
            let _ = ctx.notify_event("DONE");
            ctx.exit();
        }
    }
    fn on_fault(&mut self, _: &mut NodeCtx<'_>, _: &str) {}
}

fn oracle_study() -> Arc<Study> {
    let def = StudyDef::new("oracle")
        .machine(
            StateMachineSpec::builder("target")
                .states(&["SETUP", "ARMED", "COOL"])
                .events(&["ENTER", "LEAVE", "DONE"])
                .state(
                    "SETUP",
                    &["watcher"],
                    &[("ENTER", "ARMED"), ("DONE", "EXIT")],
                )
                .state("ARMED", &["watcher"], &[("LEAVE", "COOL")])
                .state("COOL", &["watcher"], &[("DONE", "EXIT")])
                .build(),
        )
        .machine(
            StateMachineSpec::builder("watcher")
                .states(&["WATCH"])
                .events(&["DONE"])
                .state("WATCH", &[], &[("DONE", "EXIT")])
                .build(),
        )
        .fault(
            "watcher",
            "f",
            FaultExpr::atom("target", "ARMED"),
            Trigger::Once,
        )
        .place("target", "host1")
        .place("watcher", "host2");
    Study::compile_arc(&def).unwrap()
}

/// Ground truth on ideal clocks: was the injection within [enter, leave]?
fn truly_correct(study: &Study, data: &loki::core::ExperimentData) -> Option<bool> {
    let armed = study.states.lookup("ARMED").unwrap();
    let cool = study.states.lookup("COOL").unwrap();
    let target = data.timeline_for(study.sm_id("target")?)?;
    let watcher = data.timeline_for(study.sm_id("watcher")?)?;
    let mut enter = None;
    let mut leave = None;
    for r in &target.records {
        if let RecordKind::StateChange { new_state, .. } = r.kind {
            if new_state == armed {
                enter = Some(r.time.as_nanos());
            } else if new_state == cool {
                leave = Some(r.time.as_nanos());
            }
        }
    }
    let injection = watcher.records.iter().find_map(|r| match r.kind {
        RecordKind::FaultInjection { .. } => Some(r.time.as_nanos()),
        _ => None,
    })?;
    Some(enter? <= injection && injection <= leave?)
}

/// Two hosts with *ideal* clocks, so the oracle sees true times, and
/// direct routing; `seed` is the seed of the row's first hold.
fn oracle_harness(timeslice_ns: u64, network: NetworkConfig, seed: u64) -> SimHarnessConfig {
    SimHarnessConfig {
        hosts: vec![
            HostConfig::new("host1").timeslice_ns(timeslice_ns),
            HostConfig::new("host2").timeslice_ns(timeslice_ns),
        ],
        network,
        routing: NotifyRouting::Direct,
        seed,
        ..Default::default()
    }
}

#[test]
fn analysis_acceptance_is_sound_against_ground_truth() {
    let study = oracle_study();
    let microseconds = NetworkConfig {
        ipc: LatencyModel {
            base_ns: 2_000,
            jitter_ns: 2_000,
        },
        tcp: LatencyModel {
            base_ns: 10_000,
            jitter_ns: 20_000,
        },
    };
    // (harness, hold times in ns), one row per delay regime.
    let sweep = [
        (
            oracle_harness(10_000_000, NetworkConfig::default(), 0x50D0),
            [1u64, 3, 6, 10, 15, 25].map(|ms| ms * 1_000_000),
        ),
        (
            oracle_harness(10_000, microseconds, 0x50E0),
            [20u64, 50, 100, 200, 500, 1_000].map(|us| us * 1_000),
        ),
    ];
    let mut accepted_total = 0usize;
    let mut truly_correct_total = 0usize;
    let mut injected_total = 0usize;
    let mut total = 0usize;

    for (row, holds_ns) in &sweep {
        for (i, &hold_ns) in holds_ns.iter().enumerate() {
            let factory: AppFactory = Arc::new(move |study: &Study, sm| -> Box<dyn App> {
                if study.sms.name(sm) == "target" {
                    Box::new(Target {
                        settle_ns: 150_000_000,
                        hold_ns,
                    })
                } else {
                    Box::new(Watcher {
                        lifetime_ns: 450_000_000,
                    })
                }
            });
            let harness = SimHarnessConfig {
                seed: row.seed + i as u64,
                ..row.clone()
            };
            // Ground truth comes from the raw timelines, through the tap.
            let pipeline =
                CampaignPipeline::new(study.clone(), factory, harness).analysis(AnalysisOptions {
                    missing: MissingPolicy::Ignore,
                    ..Default::default()
                });
            let tap = |d: &_| truly_correct(&study, d);
            pipeline
                .run_tapped_with_workers(12, 2, tap, |a, truth| {
                    total += 1;
                    if truth.is_some() {
                        injected_total += 1;
                    }
                    if truth == Some(true) {
                        truly_correct_total += 1;
                    }
                    // Only consider the injection verdicts (MissingPolicy::Ignore
                    // keeps never-injected experiments accepted with zero checks).
                    let has_injection = a.verdict.as_ref().is_some_and(|v| !v.checks.is_empty());
                    if a.accepted() && has_injection {
                        accepted_total += 1;
                        // SOUNDNESS: accepted ⇒ truly correct.
                        assert_eq!(
                            truth,
                            Some(true),
                            "accepted an injection that truly missed (hold {hold_ns} ns, exp {})",
                            a.experiment
                        );
                    }
                })
                .expect("valid campaign config");
        }
    }

    // Sanity: the sweep exercises both regimes.
    assert!(injected_total > 0);
    assert!(accepted_total > 0, "some experiments must be accepted");
    assert!(
        truly_correct_total > accepted_total / 2,
        "conservatism should not be vacuous (accepted {accepted_total}, true {truly_correct_total}, total {total})"
    );
    // COMPLETENESS (loose): with long holds most truly-correct injections
    // are provable; globally at least a third must be accepted.
    assert!(
        accepted_total * 3 >= truly_correct_total,
        "too conservative: accepted {accepted_total} of {truly_correct_total} truly correct"
    );
}
