//! Failure injection on the injector itself: daemon crashes, dropped
//! notifications, dynamic entry, machines that end at once, and injector
//! configurations no experiment can run.

use loki_core::campaign::{ExperimentEnd, Warning};
use loki_core::fault::{FaultExpr, Trigger};
use loki_core::ids::StateId;
use loki_core::recorder::RecordKind;
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_runtime::harness::{run_experiment, CampaignError, SimHarnessConfig};
use loki_runtime::{App, NodeCtx, Payload};
use loki_runtime::{AppFactory, RestartPolicy};
use std::mem::discriminant;
use std::sync::Arc;

struct ShortLived {
    lifetime_ns: u64,
    notify_after_death_of: Option<String>,
}

impl App for ShortLived {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _restarted: bool) {
        ctx.notify_event("RUN").unwrap();
        ctx.set_timer(self.lifetime_ns, 1);
        if self.notify_after_death_of.is_some() {
            ctx.set_timer(self.lifetime_ns / 2, 2);
        }
    }
    fn on_app_message(&mut self, _: &mut NodeCtx<'_>, _: loki_core::ids::SmId, _: Payload) {}
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        match tag {
            1 => {
                let _ = ctx.notify_event("DONE");
                ctx.exit();
            }
            2 => {
                // Cycle through RUN -> PAUSE -> RUN; PAUSE's notify list
                // includes the (long-dead) peer, provoking the
                // notification-for-dead-machine warning path.
                let _ = ctx.notify_event("HOP");
                let _ = ctx.notify_event("BACK");
            }
            _ => {}
        }
    }
    fn on_fault(&mut self, _: &mut NodeCtx<'_>, _: &str) {}
}

#[test]
fn notification_to_dead_machine_is_dropped_with_warning() {
    // `b` dies quickly; `a` later enters a state whose notify list names
    // `b` — the daemon must drop the notification and record a warning
    // (§3.6.1).
    let def = StudyDef::new("s")
        .machine(
            StateMachineSpec::builder("a")
                .states(&["RUN", "PAUSE"])
                .events(&["HOP", "BACK", "DONE"])
                .state("RUN", &[], &[("HOP", "PAUSE"), ("DONE", "EXIT")])
                .state("PAUSE", &["b"], &[("BACK", "RUN")])
                .build(),
        )
        .machine(
            StateMachineSpec::builder("b")
                .states(&["RUN"])
                .events(&["DONE"])
                .state("RUN", &[], &[("DONE", "EXIT")])
                .build(),
        )
        .place("a", "host1")
        .place("b", "host2");
    let study = Study::compile_arc(&def).unwrap();
    let factory: AppFactory = Arc::new(|study: &Study, sm| -> Box<dyn App> {
        if study.sms.name(sm) == "a" {
            Box::new(ShortLived {
                lifetime_ns: 800_000_000,
                notify_after_death_of: Some("b".into()),
            })
        } else {
            Box::new(ShortLived {
                lifetime_ns: 100_000_000,
                notify_after_death_of: None,
            })
        }
    });
    let mut cfg = SimHarnessConfig::three_hosts(21);
    cfg.hosts.truncate(2);
    let data = run_experiment(&study, factory, &cfg, 0).expect("valid config");
    assert_eq!(data.end, ExperimentEnd::Completed);
    let dropped = Warning::DroppedNotification {
        from: study.sm_id("a").unwrap(),
        to: study.sm_id("b").unwrap(),
    };
    assert!(
        data.warnings.contains(&dropped),
        "expected a dropped-notification warning, got {:?}",
        data.warnings
    );
}

#[test]
fn dynamic_entry_machine_not_started_at_begin() {
    // A machine listed in the node file without a host is *not* started at
    // experiment begin (§3.5.1); the experiment completes without it, and
    // its timeline is absent.
    let def = StudyDef::new("s")
        .machine(
            StateMachineSpec::builder("a")
                .states(&["RUN"])
                .events(&["DONE"])
                .state("RUN", &[], &[("DONE", "EXIT")])
                .build(),
        )
        .machine(
            StateMachineSpec::builder("ghost")
                .states(&["RUN"])
                .events(&["DONE"])
                .state("RUN", &[], &[("DONE", "EXIT")])
                .build(),
        )
        .fault("a", "f", FaultExpr::atom("ghost", "RUN"), Trigger::Once)
        .place("a", "host1")
        .dynamic("ghost");
    let study = Study::compile_arc(&def).unwrap();
    let factory: AppFactory = Arc::new(|_, _| {
        Box::new(ShortLived {
            lifetime_ns: 150_000_000,
            notify_after_death_of: None,
        }) as Box<dyn App>
    });
    let mut cfg = SimHarnessConfig::three_hosts(22);
    cfg.hosts.truncate(2);
    let data = run_experiment(&study, factory, &cfg, 0).expect("valid config");
    assert_eq!(data.end, ExperimentEnd::Completed);
    assert!(data.timeline_for(study.sm_id("a").unwrap()).is_some());
    assert!(data.timeline_for(study.sm_id("ghost").unwrap()).is_none());
    // The fault on the never-started machine never fired.
    assert_eq!(data.total_injections(), 0);
}

#[test]
fn daemon_crash_aborts_the_experiment() {
    // Kill host2's local daemon mid-run: the central daemon detects the
    // broken connection and aborts (§3.5.1 / §3.6.4).
    let def = StudyDef::new("s")
        .machine(
            StateMachineSpec::builder("a")
                .states(&["RUN"])
                .events(&["DONE"])
                .state("RUN", &[], &[("DONE", "EXIT")])
                .build(),
        )
        .machine(
            StateMachineSpec::builder("b")
                .states(&["RUN"])
                .events(&["DONE"])
                .state("RUN", &[], &[("DONE", "EXIT")])
                .build(),
        )
        .place("a", "host1")
        .place("b", "host2");
    let study = Study::compile_arc(&def).unwrap();
    let factory: AppFactory = Arc::new(|_, _| {
        Box::new(ShortLived {
            lifetime_ns: 500_000_000,
            notify_after_death_of: None,
        }) as Box<dyn App>
    });
    let mut cfg = SimHarnessConfig::three_hosts(23);
    cfg.hosts.truncate(2);
    cfg.kill_daemon = Some((1, 100_000_000)); // host2's daemon dies at +100 ms
    let data = run_experiment(&study, factory, &cfg, 0).expect("valid config");
    assert_eq!(data.end, ExperimentEnd::Aborted);
}

/// Ends in its first callback, before its `Register` reaches the daemon.
struct ExitAtOnce;

impl App for ExitAtOnce {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _restarted: bool) {
        ctx.exit();
    }
    fn on_app_message(&mut self, _: &mut NodeCtx<'_>, _: loki_core::ids::SmId, _: Payload) {}
    fn on_fault(&mut self, _: &mut NodeCtx<'_>, _: &str) {}
}

/// A study whose machine `a` is placed on host1, plus a machine `b` on
/// host2 when `with_b`.
fn exit_study(with_b: bool) -> Arc<Study> {
    let machine = |name| {
        StateMachineSpec::builder(name)
            .states(&["RUN"])
            .events(&["DONE"])
            .state("RUN", &[], &[("DONE", "EXIT")])
            .build()
    };
    let mut def = StudyDef::new("s").machine(machine("a")).place("a", "host1");
    if with_b {
        def = def.machine(machine("b")).place("b", "host2");
    }
    Study::compile_arc(&def).unwrap()
}

#[test]
fn a_machine_that_exits_in_on_start_completes_on_every_host_count() {
    // Only `Register` announces a machine to the peer daemons, so they
    // learn of `a` from its `NodeDown` alone — which must still count as a
    // machine that started, or they never report completion. A daemon
    // with a machine of its own to start (`b`) must not take that
    // `NodeDown` for the end of the experiment: `b` still runs to its
    // `EXIT`.
    let factory: AppFactory = Arc::new(|study: &Study, sm| -> Box<dyn App> {
        if study.sms.name(sm) == "a" {
            Box::new(ExitAtOnce)
        } else {
            Box::new(ShortLived {
                lifetime_ns: 20_000_000,
                notify_after_death_of: None,
            })
        }
    });
    // On two hosts, seeds 506, 678 and 781 are among those where `a`'s
    // `NodeDown` reaches host2's daemon before `b`'s `StartNode` does.
    let seeds = (0..8).chain([506, 678, 781]);
    for with_b in [false, true] {
        let study = exit_study(with_b);
        for hosts in if with_b { 2..=3 } else { 1..=3 } {
            for seed in seeds.clone() {
                let mut cfg = SimHarnessConfig::three_hosts(seed);
                cfg.hosts.truncate(hosts);
                let data = run_experiment(&study, factory.clone(), &cfg, 0).expect("valid config");
                let case = format!("b: {with_b}, {hosts} hosts, seed {seed}");
                assert_eq!(data.end, ExperimentEnd::Completed, "{case}");
                if let Some(b) = study.sm_id("b") {
                    let last = data.timeline_for(b).and_then(|t| t.records.last());
                    assert!(
                        matches!(last.map(|r| &r.kind), Some(RecordKind::StateChange { new_state, .. }) if *new_state == StateId::EXIT),
                        "{case}: b did not reach EXIT: {last:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn an_unusable_injector_config_is_a_typed_error() {
    let study = exit_study(false);
    let factory: AppFactory = Arc::new(|_, _| Box::new(ExitAtOnce) as Box<dyn App>);
    let restart = |probability| {
        Some(RestartPolicy {
            probability,
            ..RestartPolicy::default()
        })
    };
    let rows: [(&str, SimHarnessConfig, CampaignError); 4] = [
        (
            "kill_daemon past the host list",
            SimHarnessConfig {
                kill_daemon: Some((7, 1_000_000)),
                ..SimHarnessConfig::three_hosts(5)
            },
            CampaignError::Hosts(String::new()),
        ),
        (
            "negative restart probability",
            SimHarnessConfig {
                restart: restart(-0.5),
                ..SimHarnessConfig::three_hosts(5)
            },
            CampaignError::Restart(String::new()),
        ),
        (
            "restart probability above one",
            SimHarnessConfig {
                restart: restart(1.5),
                ..SimHarnessConfig::three_hosts(5)
            },
            CampaignError::Restart(String::new()),
        ),
        (
            "NaN restart probability",
            SimHarnessConfig {
                restart: restart(f64::NAN),
                ..SimHarnessConfig::three_hosts(5)
            },
            CampaignError::Restart(String::new()),
        ),
    ];
    for (what, cfg, expected) in rows {
        let err = run_experiment(&study, factory.clone(), &cfg, 0).expect_err(what);
        assert_eq!(
            discriminant(&err),
            discriminant(&expected),
            "{what}: {err:?}"
        );
    }
}
