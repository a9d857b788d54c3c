//! Failure injection on the injector itself: daemon crashes, dropped
//! notifications, dynamic entry.

use loki_core::campaign::{ExperimentEnd, Warning};
use loki_core::fault::{FaultExpr, Trigger};
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_runtime::harness::{run_experiment, SimHarnessConfig};
use loki_runtime::AppFactory;
use loki_runtime::{App, NodeCtx, Payload};
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
