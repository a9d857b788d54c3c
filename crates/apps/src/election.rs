//! The thesis's test application: leader election (Chapter 5).
//!
//! *n* processes elect a leader: each picks a random number and sends it to
//! the others; the process with the highest number leads (ties repeat the
//! round). The leader emits heartbeats; when it crashes, the remaining
//! processes detect the silence, raise `LEADER_CRASH`, and re-elect.
//! Crashed processes can restart and rejoin as followers (§5.2).
//!
//! The state machine abstraction is exactly Figure 5.1:
//!
//! ```text
//! BEGIN → INIT → ELECT → {LEAD | FOLLOW}
//! FOLLOW --LEADER_CRASH--> ELECT
//! BEGIN → RESTART_SM --RESTART_DONE--> FOLLOW
//! any --ERROR--> EXIT ;  any --CRASH--> CRASH
//! ```

use loki_core::ids::SmId;
use loki_core::probe::{ActionProbe, FaultAction};
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_runtime::{App, AppFactory, NodeCtx, Payload};
use rand::Rng;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Tunables of the election application.
#[derive(Clone, Debug)]
pub struct ElectionConfig {
    /// INIT phase length (lets every node register before messaging).
    pub init_delay_ns: u64,
    /// How long an elector waits for peers' numbers before deciding.
    pub collect_timeout_ns: u64,
    /// Leader heartbeat period.
    pub heartbeat_interval_ns: u64,
    /// Follower patience before declaring `LEADER_CRASH`.
    pub heartbeat_timeout_ns: u64,
    /// Application lifetime; nodes exit cleanly afterwards.
    pub lifetime_ns: u64,
    /// Delay between a restarted node's start and `RESTART_DONE`.
    pub restart_done_delay_ns: u64,
    /// Random-number range for the election (small ranges exercise the
    /// tie-repeat path).
    pub number_range: u64,
    /// Default probability that an injected fault becomes an error
    /// (crashes the process) when no explicit probe action is configured.
    pub fault_activation: f64,
    /// Default fault dormancy (injection → error), nanoseconds.
    pub fault_dormancy_ns: u64,
    /// Explicit probe actions per fault name (overrides the defaults).
    pub probe: ActionProbe,
}

impl Default for ElectionConfig {
    fn default() -> Self {
        ElectionConfig {
            init_delay_ns: 80_000_000,         // 80 ms
            collect_timeout_ns: 120_000_000,   // 120 ms
            heartbeat_interval_ns: 40_000_000, // 40 ms
            heartbeat_timeout_ns: 160_000_000, // 160 ms
            lifetime_ns: 2_000_000_000,        // 2 s
            restart_done_delay_ns: 30_000_000, // 30 ms
            number_range: u64::MAX,
            fault_activation: 1.0,
            fault_dormancy_ns: 0,
            probe: ActionProbe::new(),
        }
    }
}

/// Application messages.
#[derive(Clone, Debug)]
enum Msg {
    /// An elector's random number for a round.
    Number {
        /// The sender's election round.
        round: u32,
        /// The drawn number.
        value: u64,
    },
    /// Leader heartbeat.
    Heartbeat,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Role {
    Init,
    Restarting,
    Electing,
    Leader,
    Follower,
}

const TAG_INIT_DONE: u64 = 1;
const TAG_HB_SEND: u64 = 3;
const TAG_HB_CHECK: u64 = 4;
const TAG_LIFETIME: u64 = 5;
const TAG_DORMANT_CRASH: u64 = 6;
const TAG_RESTART_DONE: u64 = 7;
const TAG_COLLECT_BASE: u64 = 100;

/// The election process (one per node).
pub struct Election {
    cfg: Arc<ElectionConfig>,
    role: Role,
    round: u32,
    numbers: HashMap<u32, HashMap<SmId, u64>>,
    leader: Option<SmId>,
    last_heartbeat_ns: u64,
    probe: ActionProbe,
    drop_remaining: u32,
}

impl Election {
    /// Creates a process with the given configuration.
    pub fn new(cfg: Arc<ElectionConfig>) -> Self {
        let probe = cfg.probe.clone();
        Election {
            cfg,
            role: Role::Init,
            round: 0,
            numbers: HashMap::new(),
            leader: None,
            last_heartbeat_ns: 0,
            probe,
            drop_remaining: 0,
        }
    }

    fn begin_round(&mut self, ctx: &mut NodeCtx<'_>) {
        self.round += 1;
        let value = ctx.rng().gen_range(0..=self.cfg.number_range.max(1));
        self.numbers
            .entry(self.round)
            .or_default()
            .insert(ctx.my_sm(), value);
        let msg = Msg::Number {
            round: self.round,
            value,
        };
        self.send_broadcast(ctx, msg);
        ctx.set_timer(
            self.cfg.collect_timeout_ns,
            TAG_COLLECT_BASE + self.round as u64,
        );
    }

    fn send_broadcast(&mut self, ctx: &mut NodeCtx<'_>, msg: Msg) {
        if self.drop_remaining > 0 {
            self.drop_remaining -= 1;
            return;
        }
        ctx.broadcast(Rc::new(msg));
    }

    fn decide(&mut self, ctx: &mut NodeCtx<'_>, round: u32) {
        if self.role != Role::Electing || round != self.round {
            return; // stale deadline or already decided via heartbeat
        }
        let votes = self.numbers.entry(round).or_default().clone();
        let me = ctx.my_sm();
        let best = votes.values().copied().max().expect("own vote present");
        let winners: Vec<SmId> = votes
            .iter()
            .filter(|(_, &v)| v == best)
            .map(|(&sm, _)| sm)
            .collect();
        if winners.len() > 1 {
            // A tie: "this arbitration is repeated until it is resolved"
            // (§5.2).
            self.begin_round(ctx);
            return;
        }
        let winner = winners[0];
        if winner == me {
            self.role = Role::Leader;
            self.leader = Some(me);
            let _ = ctx.notify_event("LEADER");
            self.send_broadcast(ctx, Msg::Heartbeat);
            ctx.set_timer(self.cfg.heartbeat_interval_ns, TAG_HB_SEND);
        } else {
            self.become_follower(ctx, winner);
        }
    }

    fn become_follower(&mut self, ctx: &mut NodeCtx<'_>, leader: SmId) {
        self.role = Role::Follower;
        self.leader = Some(leader);
        self.last_heartbeat_ns = ctx.local_time().as_nanos();
        let _ = ctx.notify_event("FOLLOWER");
        ctx.set_timer(self.cfg.heartbeat_timeout_ns / 2, TAG_HB_CHECK);
    }

    fn leader_silent(&self, ctx: &NodeCtx<'_>) -> bool {
        ctx.local_time()
            .as_nanos()
            .saturating_sub(self.last_heartbeat_ns)
            > self.cfg.heartbeat_timeout_ns
    }
}

impl App for Election {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>, restarted: bool) {
        ctx.set_timer(self.cfg.lifetime_ns, TAG_LIFETIME);
        if restarted {
            self.role = Role::Restarting;
            ctx.notify_event("RESTART_SM").expect("restart state");
            ctx.set_timer(self.cfg.restart_done_delay_ns, TAG_RESTART_DONE);
        } else {
            self.role = Role::Init;
            ctx.notify_event("INIT").expect("initial state");
            ctx.set_timer(self.cfg.init_delay_ns, TAG_INIT_DONE);
        }
    }

    fn on_app_message(&mut self, ctx: &mut NodeCtx<'_>, from: SmId, payload: Payload) {
        let Some(msg) = payload.downcast_ref::<Msg>() else {
            return;
        };
        match msg {
            Msg::Number { round, value } => {
                self.numbers.entry(*round).or_default().insert(from, *value);
                // A newer round from a peer drags a lagging elector along.
                if self.role == Role::Electing && *round > self.round {
                    self.round = *round - 1;
                    self.begin_round(ctx);
                }
            }
            Msg::Heartbeat => {
                self.last_heartbeat_ns = ctx.local_time().as_nanos();
                match self.role {
                    Role::Electing => {
                        // Someone already leads: join as follower.
                        self.become_follower(ctx, from);
                    }
                    Role::Follower => {
                        self.leader = Some(from);
                    }
                    _ => {}
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        match tag {
            TAG_INIT_DONE => {
                if self.role == Role::Init {
                    self.role = Role::Electing;
                    ctx.notify_event("INIT_DONE").expect("INIT -> ELECT");
                    self.begin_round(ctx);
                }
            }
            TAG_RESTART_DONE => {
                if self.role == Role::Restarting {
                    ctx.notify_event("RESTART_DONE")
                        .expect("RESTART_SM -> FOLLOW");
                    self.role = Role::Follower;
                    self.last_heartbeat_ns = ctx.local_time().as_nanos();
                    ctx.set_timer(self.cfg.heartbeat_timeout_ns / 2, TAG_HB_CHECK);
                }
            }
            TAG_HB_SEND => {
                if self.role == Role::Leader {
                    self.send_broadcast(ctx, Msg::Heartbeat);
                    ctx.set_timer(self.cfg.heartbeat_interval_ns, TAG_HB_SEND);
                }
            }
            TAG_HB_CHECK => {
                if self.role == Role::Follower {
                    if self.leader_silent(ctx) {
                        // The current leader failed: raise LEADER_CRASH and
                        // re-elect (§5.3).
                        self.role = Role::Electing;
                        let _ = ctx.notify_event("LEADER_CRASH");
                        self.begin_round(ctx);
                    } else {
                        ctx.set_timer(self.cfg.heartbeat_timeout_ns / 2, TAG_HB_CHECK);
                    }
                }
            }
            TAG_LIFETIME => {
                // Clean shutdown: ERROR leads every live state to EXIT.
                let _ = ctx.notify_event("ERROR");
                ctx.exit();
            }
            TAG_DORMANT_CRASH => {
                ctx.crash();
            }
            t if t >= TAG_COLLECT_BASE => {
                self.decide(ctx, (t - TAG_COLLECT_BASE) as u32);
            }
            _ => {}
        }
    }

    fn on_fault(&mut self, ctx: &mut NodeCtx<'_>, fault: &str) {
        let action = match ctx.probe_action(&self.probe, fault) {
            Some(action) => action.clone(),
            None => FaultAction::CrashWithProbability {
                activation: self.cfg.fault_activation,
                dormancy_ns: self.cfg.fault_dormancy_ns,
            },
        };
        match action {
            FaultAction::CrashNode => ctx.crash(),
            FaultAction::CrashWithProbability {
                activation,
                dormancy_ns,
            } => {
                if crate::activates(ctx.rng(), activation) {
                    if dormancy_ns == 0 {
                        ctx.crash();
                    } else {
                        ctx.set_timer(dormancy_ns, TAG_DORMANT_CRASH);
                    }
                }
            }
            FaultAction::DropMessages { count } => {
                self.drop_remaining += count;
            }
            FaultAction::HangNode { duration_ns } => {
                // Modelled as a late dormant crash-free stall: the node
                // simply misses its own heartbeats by suppressing the next
                // sends for the duration (observable as a false crash).
                self.drop_remaining +=
                    (duration_ns / self.cfg.heartbeat_interval_ns.max(1)).max(1) as u32;
            }
            _ => {
                // CorruptState / Custom (and future actions) are left to
                // campaign-specific applications; record visibility.
                ctx.record_user_message(format!("fault {fault} injected (no-op action)"));
            }
        }
    }
}

/// Builds the thesis's per-machine state machine specification (§5.3) for a
/// process named `name` among `all` processes: `INIT`, `RESTART_SM`, and
/// `CRASH` notify every other machine; `ELECT`/`LEAD`/`FOLLOW`/`EXIT`
/// notify nobody.
pub fn election_sm_spec(name: &str, all: &[&str]) -> StateMachineSpec {
    let others: Vec<&str> = all.iter().copied().filter(|n| *n != name).collect();
    StateMachineSpec::builder(name)
        .states(&[
            "BEGIN",
            "INIT",
            "RESTART_SM",
            "ELECT",
            "FOLLOW",
            "LEAD",
            "CRASH",
            "EXIT",
        ])
        .events(&[
            "START",
            "INIT_DONE",
            "RESTART",
            "RESTART_DONE",
            "LEADER",
            "FOLLOWER",
            "LEADER_CRASH",
            "CRASH",
            "ERROR",
        ])
        .state(
            "INIT",
            &others,
            &[("INIT_DONE", "ELECT"), ("ERROR", "EXIT")],
        )
        .state(
            "RESTART_SM",
            &others,
            &[("RESTART_DONE", "FOLLOW"), ("ERROR", "EXIT")],
        )
        .state(
            "ELECT",
            &[],
            &[
                ("FOLLOWER", "FOLLOW"),
                ("LEADER", "LEAD"),
                ("CRASH", "CRASH"),
                ("ERROR", "EXIT"),
            ],
        )
        .state("LEAD", &others, &[("CRASH", "CRASH"), ("ERROR", "EXIT")])
        .state(
            "FOLLOW",
            &[],
            &[
                ("LEADER_CRASH", "ELECT"),
                ("CRASH", "CRASH"),
                ("ERROR", "EXIT"),
            ],
        )
        .state("CRASH", &others, &[])
        .state("EXIT", &[], &[])
        .build()
}

/// Builds a study over the classic `black`/`yellow`/`green` trio (§5.3)
/// placed on `host1`/`host2`/`host3`, with no faults; campaigns add their
/// fault specifications on top.
///
/// Note: the thesis's `LEAD` state has an empty notify list because its
/// example faults on `LEAD` are injected by the leading machine itself.
/// Campaigns whose faults observe a *remote* machine's `LEAD`/`FOLLOW`
/// state must extend the notify lists accordingly (§5.3 derives notify
/// lists from the fault specifications).
pub fn election_study(name: &str) -> StudyDef {
    let names = ["black", "yellow", "green"];
    let mut def = StudyDef::new(name);
    for n in names {
        def = def.machine(election_sm_spec(n, &names));
    }
    def.place("black", "host1")
        .place("yellow", "host2")
        .place("green", "host3")
}

/// An [`AppFactory`] producing election processes with a shared config.
pub fn election_factory(cfg: ElectionConfig) -> AppFactory {
    let cfg = Arc::new(cfg);
    Arc::new(move |_study: &Study, _sm| Box::new(Election::new(cfg.clone())) as Box<dyn App>)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_core::campaign::ExperimentEnd;
    use loki_core::recorder::RecordKind;
    use loki_core::study::Study;
    use loki_runtime::harness::{run_experiment, SimHarnessConfig};

    fn cfg(seed: u64) -> SimHarnessConfig {
        SimHarnessConfig::three_hosts(seed)
    }

    fn state_names<'a>(
        study: &'a Study,
        data: &loki_core::campaign::ExperimentData,
        sm: &str,
    ) -> Vec<&'a str> {
        data.timeline_for(study.sm_id(sm).unwrap())
            .unwrap()
            .records
            .iter()
            .filter_map(|r| match r.kind {
                RecordKind::StateChange { new_state, .. } => Some(study.states.name(new_state)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn election_elects_exactly_one_leader() {
        let study = Study::compile_arc(&election_study("s")).unwrap();
        let data = run_experiment(
            &study,
            election_factory(ElectionConfig::default()),
            &cfg(42),
            0,
        )
        .expect("valid config");
        assert_eq!(data.end, ExperimentEnd::Completed);
        let mut leads = 0;
        for sm in ["black", "yellow", "green"] {
            let states = state_names(&study, &data, sm);
            assert_eq!(states.first(), Some(&"INIT"), "{sm}: {states:?}");
            assert_eq!(states.last(), Some(&"EXIT"), "{sm}: {states:?}");
            if states.contains(&"LEAD") {
                leads += 1;
            }
        }
        assert_eq!(leads, 1, "exactly one leader");
    }

    #[test]
    fn ties_repeat_the_round() {
        // A tiny number range forces ties with high probability; the
        // protocol must still converge to one leader.
        let study = Study::compile_arc(&election_study("s")).unwrap();
        let app_cfg = ElectionConfig {
            number_range: 1, // values in {0, 1}: collisions guaranteed-ish
            ..Default::default()
        };
        let data =
            run_experiment(&study, election_factory(app_cfg), &cfg(7), 0).expect("valid config");
        assert_eq!(data.end, ExperimentEnd::Completed);
        let leads: usize = ["black", "yellow", "green"]
            .iter()
            .filter(|sm| state_names(&study, &data, sm).contains(&"LEAD"))
            .count();
        assert_eq!(leads, 1);
    }

    #[test]
    fn leader_crash_triggers_reelection() {
        use loki_core::fault::{FaultExpr, Trigger};
        use loki_runtime::daemons::{RestartPlacement, RestartPolicy};
        // bfault1 (black:LEAD) always — but any machine can win, so put the
        // fault on all three (one of bfault1/yfault1/gfault1 will fire).
        let mut def = election_study("s");
        for (fault, sm) in [
            ("bfault1", "black"),
            ("yfault1", "yellow"),
            ("gfault1", "green"),
        ] {
            def = def.fault(sm, fault, FaultExpr::atom(sm, "LEAD"), Trigger::Once);
        }
        let study = Study::compile_arc(&def).unwrap();
        let mut harness = cfg(3);
        harness.restart = Some(RestartPolicy {
            probability: 1.0,
            delay_ns: 50_000_000,
            max_restarts: 1,
            placement: RestartPlacement::NextHost,
        });
        let data = run_experiment(
            &study,
            election_factory(ElectionConfig::default()),
            &harness,
            0,
        )
        .expect("valid config");
        assert_eq!(data.end, ExperimentEnd::Completed);
        // Someone led, crashed (injection -> error -> crash), and a
        // LEADER_CRASH-driven re-election produced a second leader.
        let lead_count: usize = ["black", "yellow", "green"]
            .iter()
            .map(|sm| {
                state_names(&study, &data, sm)
                    .iter()
                    .filter(|s| **s == "LEAD")
                    .count()
            })
            .sum();
        assert!(lead_count >= 2, "re-election happened: {lead_count}");
        // Every leader trips its own LEAD fault, so the system cycles
        // through leader crashes until restarts are exhausted: at least one
        // crash, and exactly one injection per crash. (A restarted process
        // has a fresh fault parser — `once` is per process incarnation, as
        // in the real runtime where parser state dies with the process.)
        let crash_count: usize = ["black", "yellow", "green"]
            .iter()
            .map(|sm| {
                state_names(&study, &data, sm)
                    .iter()
                    .filter(|s| **s == "CRASH")
                    .count()
            })
            .sum();
        assert!(crash_count >= 1);
        assert_eq!(data.total_injections(), crash_count);
        // At least one crashed machine restarted and rejoined as follower.
        let restarted: usize = ["black", "yellow", "green"]
            .iter()
            .filter(|sm| state_names(&study, &data, sm).contains(&"RESTART_SM"))
            .count();
        assert!(restarted >= 1);
    }
}
