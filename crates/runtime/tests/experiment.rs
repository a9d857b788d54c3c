//! End-to-end runtime tests: full experiments on the simulator.

use loki_core::campaign::ExperimentEnd;
use loki_core::fault::{FaultExpr, Trigger};
use loki_core::ids::StateId;
use loki_core::recorder::RecordKind;
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_runtime::daemons::{RestartPlacement, RestartPolicy};
use loki_runtime::harness::{run_experiment, SimHarnessConfig};
use loki_runtime::messages::NotifyRouting;
use loki_runtime::AppFactory;
use loki_runtime::{App, NodeCtx, Payload};
use std::sync::Arc;

/// A two-machine study: `a` does INIT → WORK → EXIT; `b` watches `a`.
fn two_machine_study(fault_owner: &str, crash_fault: bool) -> Arc<Study> {
    let def = StudyDef::new("s")
        .machine(
            StateMachineSpec::builder("a")
                .states(&["INIT", "WORK"])
                .events(&["GO", "DONE", "ERROR"])
                .state("INIT", &["b"], &[("GO", "WORK")])
                .state("WORK", &["b"], &[("DONE", "EXIT")])
                .state("RESTART_SM", &["b"], &[("DONE", "EXIT")])
                .state("CRASH", &["b"], &[])
                .build(),
        )
        .machine(
            StateMachineSpec::builder("b")
                .states(&["INIT", "WORK", "RESTART_SM"])
                .events(&["DONE"])
                .state("INIT", &[], &[("DONE", "EXIT")])
                .build(),
        )
        .fault(
            fault_owner,
            "f1",
            FaultExpr::atom("a", "WORK"),
            Trigger::Always,
        )
        .place("a", "host1")
        .place("b", "host2");
    let _ = crash_fault;
    Study::compile_arc(&def).unwrap()
}

/// Application for machine `a`: INIT, then WORK after 5 ms, then exit after
/// 20 ms more. On fault: crash if `crash_on_fault`, else ignore.
struct WorkerA {
    crash_on_fault: bool,
}

impl App for WorkerA {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>, restarted: bool) {
        if restarted {
            ctx.notify_event("RESTART_SM").unwrap();
            ctx.set_timer(10_000_000, 2); // exit soon after restart
        } else {
            ctx.notify_event("INIT").unwrap();
            // A long INIT phase so every node has registered before the
            // first cross-node notification (the thesis's INIT state covers
            // "the setting up of communication between the processes").
            ctx.set_timer(50_000_000, 1);
        }
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
            1 => {
                ctx.notify_event("GO").unwrap();
                ctx.set_timer(20_000_000, 2);
            }
            2 => {
                let _ = ctx.notify_event("DONE");
                ctx.exit();
            }
            _ => {}
        }
    }
    fn on_fault(&mut self, ctx: &mut NodeCtx<'_>, _fault: &str) {
        if self.crash_on_fault {
            ctx.crash();
        }
    }
}

/// Application for machine `b`: INIT, exits after 100 ms. Ignores faults.
struct WatcherB;

impl App for WatcherB {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _restarted: bool) {
        ctx.notify_event("INIT").unwrap();
        ctx.set_timer(200_000_000, 1);
    }
    fn on_app_message(
        &mut self,
        _ctx: &mut NodeCtx<'_>,
        _from: loki_core::ids::SmId,
        _payload: Payload,
    ) {
    }
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        if tag == 1 {
            let _ = ctx.notify_event("DONE");
            ctx.exit();
        }
    }
    fn on_fault(&mut self, _ctx: &mut NodeCtx<'_>, _fault: &str) {}
}

fn factory(crash_on_fault: bool) -> AppFactory {
    Arc::new(move |study: &Study, sm| -> Box<dyn App> {
        if study.sms.name(sm) == "a" {
            Box::new(WorkerA { crash_on_fault })
        } else {
            Box::new(WatcherB)
        }
    })
}

fn two_host_config(seed: u64) -> SimHarnessConfig {
    use loki_clock::params::ClockParams;
    use loki_sim::config::HostConfig;
    SimHarnessConfig {
        hosts: vec![
            HostConfig::new("host1").clock(ClockParams::with_drift_ppm(0.0, 90.0)),
            HostConfig::new("host2").clock(ClockParams::with_drift_ppm(1e6, -50.0)),
        ],
        seed,
        ..Default::default()
    }
}

#[test]
fn experiment_completes_and_injects_on_remote_state() {
    let study = two_machine_study("b", false);
    let data =
        run_experiment(&study, factory(false), &two_host_config(1), 0).expect("valid config");

    assert_eq!(data.end, ExperimentEnd::Completed);
    assert_eq!(data.timelines.len(), 2);
    assert_eq!(data.host_name(data.reference_host), "host1"); // fastest clock

    // b's fault parser saw (a:WORK) via a notification and injected f1.
    let b = data.timeline_for(study.sm_id("b").unwrap()).unwrap();
    assert_eq!(b.injection_count(), 1);

    // a recorded INIT, WORK, EXIT state changes.
    let a = data.timeline_for(study.sm_id("a").unwrap()).unwrap();
    let states: Vec<&str> = a
        .records
        .iter()
        .filter_map(|r| match &r.kind {
            RecordKind::StateChange { new_state, .. } => Some(study.states.name(*new_state)),
            _ => None,
        })
        .collect();
    assert_eq!(states, vec!["INIT", "WORK", "EXIT"]);

    // Sync samples exist for the non-reference host, both phases.
    assert_eq!(data.pre_sync.len(), 1);
    assert_eq!(data.post_sync.len(), 1);
    assert_eq!(data.host_name(data.pre_sync[0].host), "host2");
    assert!(data.pre_sync[0].samples.len() >= 20);

    // Record times are monotone per stint (single host clock).
    for t in &data.timelines {
        for w in t.records.windows(2) {
            assert!(
                w[0].time <= w[1].time,
                "non-monotone records in {}",
                study.sms.name(t.sm)
            );
        }
    }
}

#[test]
fn experiments_are_deterministic_per_seed() {
    let study = two_machine_study("b", false);
    let d1 = run_experiment(&study, factory(false), &two_host_config(7), 0).expect("valid config");
    let d2 = run_experiment(&study, factory(false), &two_host_config(7), 0).expect("valid config");
    assert_eq!(d1, d2);
    let d3 = run_experiment(&study, factory(false), &two_host_config(8), 0).expect("valid config");
    assert_ne!(d1, d3);
}

#[test]
fn crash_is_recorded_by_daemon_and_node_restarts_on_other_host() {
    let study = two_machine_study("a", true); // a crashes itself on f1
    let mut cfg = two_host_config(3);
    cfg.restart = Some(RestartPolicy {
        probability: 1.0,
        delay_ns: 10_000_000,
        max_restarts: 1,
        placement: RestartPlacement::NextHost,
    });
    let data = run_experiment(&study, factory(true), &cfg, 0).expect("valid config");
    assert_eq!(data.end, ExperimentEnd::Completed);

    let a = data.timeline_for(study.sm_id("a").unwrap()).unwrap();
    // The injection is recorded, then the daemon-written CRASH state change.
    assert_eq!(a.injection_count(), 1);
    assert!(a.records.iter().any(|r| matches!(
        r.kind,
        RecordKind::StateChange { new_state, .. } if new_state == StateId::CRASH
    )));
    // Restart happened on the other host.
    let host2 = data.symbols.lookup("host2").unwrap();
    assert!(a
        .records
        .iter()
        .any(|r| matches!(&r.kind, RecordKind::Restart { host } if *host == host2)));
    assert_eq!(a.stints.len(), 2);
    assert_eq!(data.host_name(a.stints[0].host), "host1");
    assert_eq!(a.stints[1].host, host2);
    // After restart it reached RESTART_SM and exited cleanly.
    let restart_sm = study.states.lookup("RESTART_SM").unwrap();
    assert!(a.records.iter().any(|r| matches!(
        r.kind,
        RecordKind::StateChange { new_state, .. } if new_state == restart_sm
    )));
}

#[test]
fn hung_experiment_times_out() {
    // b never exits within the timeout.
    let study = two_machine_study("b", false);
    let mut cfg = two_host_config(4);
    cfg.timeout_ns = 100_000_000; // 100 ms < b's 200 ms lifetime
    let data = run_experiment(&study, factory(false), &cfg, 0).expect("valid config");
    assert_eq!(data.end, ExperimentEnd::TimedOut);
}

#[test]
fn routing_modes_all_deliver_notifications() {
    for routing in [
        NotifyRouting::ThroughDaemons,
        NotifyRouting::Direct,
        NotifyRouting::Centralized,
    ] {
        let study = two_machine_study("b", false);
        let mut cfg = two_host_config(5);
        cfg.routing = routing;
        let data = run_experiment(&study, factory(false), &cfg, 0).expect("valid config");
        assert_eq!(data.end, ExperimentEnd::Completed, "{routing:?}");
        let b = data.timeline_for(study.sm_id("b").unwrap()).unwrap();
        assert_eq!(b.injection_count(), 1, "{routing:?}");
    }
}

#[test]
fn once_fault_fires_once_across_reentries() {
    // a re-enters WORK twice; a `once` fault must inject only once.
    let def = StudyDef::new("s")
        .machine(
            StateMachineSpec::builder("a")
                .states(&["INIT", "WORK", "REST"])
                .events(&["GO", "PAUSE", "DONE"])
                .state("INIT", &["b"], &[("GO", "WORK")])
                .state("WORK", &["b"], &[("PAUSE", "REST"), ("DONE", "EXIT")])
                .state("REST", &["b"], &[("GO", "WORK")])
                .build(),
        )
        .machine(
            StateMachineSpec::builder("b")
                .states(&["INIT"])
                .events(&["DONE"])
                .state("INIT", &[], &[("DONE", "EXIT")])
                .build(),
        )
        .fault("b", "once_f", FaultExpr::atom("a", "WORK"), Trigger::Once)
        .fault(
            "b",
            "always_f",
            FaultExpr::atom("a", "WORK"),
            Trigger::Always,
        )
        .place("a", "host1")
        .place("b", "host2");
    let study = Study::compile_arc(&def).unwrap();

    struct Cycler;
    impl App for Cycler {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _restarted: bool) {
            ctx.notify_event("INIT").unwrap();
            ctx.set_timer(50_000_000, 1); // GO after everyone registered
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
                1 => {
                    ctx.notify_event("GO").unwrap();
                    ctx.set_timer(20_000_000, 2);
                }
                2 => {
                    ctx.notify_event("PAUSE").unwrap();
                    ctx.set_timer(20_000_000, 3);
                }
                3 => {
                    ctx.notify_event("GO").unwrap();
                    ctx.set_timer(20_000_000, 4);
                }
                4 => {
                    ctx.notify_event("DONE").unwrap();
                    ctx.exit();
                }
                _ => {}
            }
        }
        fn on_fault(&mut self, _ctx: &mut NodeCtx<'_>, _fault: &str) {}
    }

    let f: AppFactory = Arc::new(|study: &Study, sm| -> Box<dyn App> {
        if study.sms.name(sm) == "a" {
            Box::new(Cycler)
        } else {
            Box::new(WatcherB)
        }
    });
    let data = run_experiment(&study, f, &two_host_config(6), 0).expect("valid config");
    assert_eq!(data.end, ExperimentEnd::Completed);

    let b = data.timeline_for(study.sm_id("b").unwrap()).unwrap();
    let once_f = study.fault_names.lookup("once_f").unwrap();
    let always_f = study.fault_names.lookup("always_f").unwrap();
    let count = |fid| {
        b.records
            .iter()
            .filter(|r| matches!(r.kind, RecordKind::FaultInjection { fault } if fault == fid))
            .count()
    };
    assert_eq!(count(once_f), 1);
    assert_eq!(count(always_f), 2);
}

#[test]
fn once_fault_fires_once_per_incarnation() {
    // a owns a `once` fault on its own WORK state. It crashes on the
    // injection, restarts, and enters WORK again: the new incarnation's
    // parser is fresh, so the fault fires a second time.
    let def = StudyDef::new("s")
        .machine(
            StateMachineSpec::builder("a")
                .states(&["INIT", "WORK"])
                .events(&["GO", "DONE"])
                .state("INIT", &[], &[("GO", "WORK")])
                .state("WORK", &[], &[("DONE", "EXIT")])
                .build(),
        )
        .fault("a", "f", FaultExpr::atom("a", "WORK"), Trigger::Once)
        .place("a", "host1");
    let study = Study::compile_arc(&def).unwrap();

    struct CrashOnce {
        restarted: bool,
    }
    impl App for CrashOnce {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>, restarted: bool) {
            self.restarted = restarted;
            ctx.notify_event("INIT").unwrap();
            ctx.set_timer(50_000_000, 1);
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
                1 => {
                    ctx.notify_event("GO").unwrap();
                    ctx.set_timer(20_000_000, 2);
                }
                2 => {
                    ctx.notify_event("DONE").unwrap();
                    ctx.exit();
                }
                _ => {}
            }
        }
        fn on_fault(&mut self, ctx: &mut NodeCtx<'_>, _fault: &str) {
            if !self.restarted {
                ctx.crash();
            }
        }
    }

    let f: AppFactory =
        Arc::new(|_: &Study, _| -> Box<dyn App> { Box::new(CrashOnce { restarted: false }) });
    let mut cfg = two_host_config(6);
    cfg.restart = Some(RestartPolicy {
        probability: 1.0,
        delay_ns: 10_000_000,
        max_restarts: 1,
        placement: RestartPlacement::SameHost,
    });
    let data = run_experiment(&study, f, &cfg, 0).expect("valid config");
    assert_eq!(data.end, ExperimentEnd::Completed);

    let a = data.timeline_for(study.sm_id("a").unwrap()).unwrap();
    assert_eq!(a.stints.len(), 2, "a crashed and restarted once");
    assert_eq!(a.injection_count(), 2, "one injection per incarnation");
}

#[test]
fn cancelled_sim_timer_never_fires() {
    // The unified `AppTimer` handle must map back onto the simulation's
    // timer ids: a cancelled timer would otherwise crash the node.
    struct Canceller;
    impl App for Canceller {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _: bool) {
            ctx.notify_event("WATCH").unwrap();
            let doomed = ctx.set_timer(10_000_000, 1); // would crash
            ctx.cancel_timer(doomed);
            ctx.set_timer(40_000_000, 2); // exits
        }
        fn on_app_message(&mut self, _: &mut NodeCtx<'_>, _: loki_core::ids::SmId, _: Payload) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
            match tag {
                1 => ctx.crash(),
                2 => ctx.exit(),
                _ => {}
            }
        }
        fn on_fault(&mut self, _: &mut NodeCtx<'_>, _: &str) {}
    }
    let def = StudyDef::new("s")
        .machine(StateMachineSpec::builder("a").states(&["WATCH"]).build())
        .place("a", "host1");
    let study = Study::compile_arc(&def).unwrap();
    let mut cfg = SimHarnessConfig::three_hosts(21);
    cfg.hosts.truncate(1);
    let f: AppFactory = Arc::new(|_, _| Box::new(Canceller));
    let data = run_experiment(&study, f, &cfg, 0).expect("valid config");
    assert_eq!(data.end, ExperimentEnd::Completed);
    let t = data.timeline_for(study.sm_id("a").unwrap()).unwrap();
    assert!(
        !t.records.iter().any(
            |r| matches!(r.kind, RecordKind::StateChange { new_state, .. }
                if new_state == StateId::CRASH)
        ),
        "cancelled timer fired: {t:?}"
    );
}

#[test]
fn the_last_termination_request_decides_how_a_node_goes_down() {
    #[derive(Copy, Clone, Debug)]
    enum Call {
        Exit,
        Crash,
    }
    /// Watches, then makes both termination calls in one callback.
    struct Terminator([Call; 2]);
    impl App for Terminator {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _: bool) {
            ctx.notify_event("WATCH").unwrap();
            ctx.set_timer(10_000_000, 0);
        }
        fn on_app_message(&mut self, _: &mut NodeCtx<'_>, _: loki_core::ids::SmId, _: Payload) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: u64) {
            for call in self.0 {
                match call {
                    Call::Exit => ctx.exit(),
                    Call::Crash => ctx.crash(),
                }
            }
        }
        fn on_fault(&mut self, _: &mut NodeCtx<'_>, _: &str) {}
    }
    let def = StudyDef::new("s")
        .machine(StateMachineSpec::builder("a").states(&["WATCH"]).build())
        .place("a", "host1");
    let study = Study::compile_arc(&def).unwrap();
    let mut cfg = SimHarnessConfig::three_hosts(21);
    cfg.hosts.truncate(1);
    for (calls, last) in [
        ([Call::Exit, Call::Crash], "CRASH"),
        ([Call::Crash, Call::Exit], "EXIT"),
    ] {
        let f: AppFactory = Arc::new(move |_, _| Box::new(Terminator(calls)));
        let data = run_experiment(&study, f, &cfg, 0).expect("valid config");
        assert_eq!(data.end, ExperimentEnd::Completed, "{calls:?}");
        let a = data.timeline_for(study.sm_id("a").unwrap()).unwrap();
        let states: Vec<&str> = a
            .records
            .iter()
            .filter_map(|r| match &r.kind {
                RecordKind::StateChange { new_state, .. } => Some(study.states.name(*new_state)),
                _ => None,
            })
            .collect();
        assert_eq!(states, ["WATCH", last], "{calls:?}");
    }
}
