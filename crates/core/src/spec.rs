//! Declarative specification model: state machines, faults, node placement.
//!
//! These types mirror the thesis's specification files one-to-one:
//!
//! * [`StateMachineSpec`] — the *state machine specification* (§3.5.3): the
//!   study-wide `global_state_list`, this machine's `event_list`, and one
//!   `state` block per occupiable state with its `notify` list and
//!   event → next-state transitions.
//! * [`FaultSpec`] — one line of the *fault specification* (§3.5.5):
//!   `<FaultName> <BooleanFaultExpression> <once|always>`.
//! * [`NodePlacement`] — one line of the *node file* (§3.5.1):
//!   `<SM NickName> [<HostName>]`.
//! * [`StudyDef`] — everything a study needs; compiled into a
//!   [`Study`](crate::study::Study) for execution.
//!
//! The textual parsers/writers for these formats live in the `loki-spec`
//! crate; this module is the in-memory model.

use crate::fault::{FaultExpr, Trigger};
use serde::{Deserialize, Serialize};

/// State names reserved by Loki (§3.5.7). They are always present in a
/// compiled study's state table, whether or not the user declares them.
pub const RESERVED_STATES: [&str; 4] = ["BEGIN", "EXIT", "CRASH", "RESTART"];

/// Event names reserved by Loki (§3.5.7). `CRASH` and `RESTART` are
/// synthesized by the runtime; `default` marks a wildcard transition.
pub const RESERVED_EVENTS: [&str; 3] = ["CRASH", "RESTART", "default"];

/// The wildcard event name: a transition on `default` fires for any event
/// that has no explicit transition out of the current state.
pub const DEFAULT_EVENT: &str = "default";

/// A single `event → next state` transition inside a state block.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transition {
    /// Triggering local event (may be `default`).
    pub event: String,
    /// State entered when the event occurs.
    pub next_state: String,
}

/// One `state <name> [notify ...]` block of a state machine specification.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateDef {
    /// The state this block describes.
    pub state: String,
    /// State machines to notify when this machine *enters* the state.
    pub notify: Vec<String>,
    /// Outgoing transitions.
    pub transitions: Vec<Transition>,
}

/// A complete state machine specification for one node.
///
/// # Examples
///
/// ```
/// use loki_core::spec::{StateMachineSpec, StateDef, Transition};
///
/// let spec = StateMachineSpec::builder("black")
///     .states(&["INIT", "ELECT", "LEAD", "FOLLOW"])
///     .events(&["INIT_DONE", "LEADER", "FOLLOWER"])
///     .state("INIT", &["green", "yellow"], &[("INIT_DONE", "ELECT")])
///     .state("ELECT", &[], &[("LEADER", "LEAD"), ("FOLLOWER", "FOLLOW")])
///     .build();
/// assert_eq!(spec.name, "black");
/// assert_eq!(spec.states.len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateMachineSpec {
    /// Unique nickname of the state machine (e.g. `black`).
    pub name: String,
    /// The study-wide `global_state_list` as declared in this file.
    pub global_states: Vec<String>,
    /// This machine's local events (`event_list`).
    pub events: Vec<String>,
    /// One block per occupiable state.
    pub states: Vec<StateDef>,
}

impl StateMachineSpec {
    /// Starts a builder for a specification named `name`.
    pub fn builder(name: &str) -> StateMachineSpecBuilder {
        StateMachineSpecBuilder {
            spec: StateMachineSpec {
                name: name.to_owned(),
                ..Default::default()
            },
        }
    }

    /// Finds the block for `state`, if declared.
    pub fn state_def(&self, state: &str) -> Option<&StateDef> {
        self.states.iter().find(|d| d.state == state)
    }
}

/// Builder for [`StateMachineSpec`] (C-BUILDER).
#[derive(Clone, Debug)]
pub struct StateMachineSpecBuilder {
    spec: StateMachineSpec,
}

impl StateMachineSpecBuilder {
    /// Appends names to the `global_state_list`.
    pub fn states(mut self, states: &[&str]) -> Self {
        self.spec
            .global_states
            .extend(states.iter().map(|s| (*s).to_owned()));
        self
    }

    /// Appends names to the `event_list`.
    pub fn events(mut self, events: &[&str]) -> Self {
        self.spec
            .events
            .extend(events.iter().map(|e| (*e).to_owned()));
        self
    }

    /// Adds a `state` block with its notify list and transitions.
    pub fn state(mut self, state: &str, notify: &[&str], transitions: &[(&str, &str)]) -> Self {
        self.spec.states.push(StateDef {
            state: state.to_owned(),
            notify: notify.iter().map(|n| (*n).to_owned()).collect(),
            transitions: transitions
                .iter()
                .map(|(e, s)| Transition {
                    event: (*e).to_owned(),
                    next_state: (*s).to_owned(),
                })
                .collect(),
        });
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> StateMachineSpec {
        self.spec
    }
}

/// One fault declaration: name, triggering Boolean expression over global
/// state, and the `once|always` trigger mode.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// The state machine whose probe performs this injection.
    pub owner: String,
    /// Fault name (unique within the study).
    pub name: String,
    /// Boolean expression over `(StateMachine:State)` atoms.
    pub expr: FaultExpr,
    /// Whether the fault fires on the first false→true edge only (`once`)
    /// or on every edge (`always`).
    pub trigger: Trigger,
}

/// One node-file entry: which state machine to start at experiment begin,
/// and on which host (when `host` is `None` the machine is *not* started at
/// the beginning — it may enter dynamically later, §3.5.1).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodePlacement {
    /// State machine nickname.
    pub sm: String,
    /// Host to start it on, or `None` for dynamic entry.
    pub host: Option<String>,
}

/// The full definition of a study: machines, faults, and initial placement.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StudyDef {
    /// Study name.
    pub name: String,
    /// One specification per state machine in the system.
    pub machines: Vec<StateMachineSpec>,
    /// Fault specifications across all machines.
    pub faults: Vec<FaultSpec>,
    /// The node file.
    pub placements: Vec<NodePlacement>,
}

impl StudyDef {
    /// Creates an empty study named `name`.
    pub fn new(name: &str) -> Self {
        StudyDef {
            name: name.to_owned(),
            ..Default::default()
        }
    }

    /// Adds a state machine specification.
    pub fn machine(mut self, spec: StateMachineSpec) -> Self {
        self.machines.push(spec);
        self
    }

    /// Adds a fault specification owned by `owner`.
    pub fn fault(mut self, owner: &str, name: &str, expr: FaultExpr, trigger: Trigger) -> Self {
        self.faults.push(FaultSpec {
            owner: owner.to_owned(),
            name: name.to_owned(),
            expr,
            trigger,
        });
        self
    }

    /// Adds a node-file entry placing `sm` on `host` at experiment start.
    pub fn place(mut self, sm: &str, host: &str) -> Self {
        self.placements.push(NodePlacement {
            sm: sm.to_owned(),
            host: Some(host.to_owned()),
        });
        self
    }

    /// Declares `sm` as a dynamic-entry machine (not started at begin).
    pub fn dynamic(mut self, sm: &str) -> Self {
        self.placements.push(NodePlacement {
            sm: sm.to_owned(),
            host: None,
        });
        self
    }

    /// Derives the notify lists the fault specifications require.
    ///
    /// The thesis obtains notify lists "by observing the fault
    /// specifications of all the components" and notes that "this process
    /// ... could possibly be automated in future versions of Loki" (§5.3).
    /// This method is that automation, with deliberately *conservative*
    /// semantics: for every fault atom `(sm:state)` whose fault is owned by
    /// a different machine, the owner is appended to the notify list of
    /// **every** declared state block of `sm` (plus blocks created for the
    /// observed state and for `CRASH`, and `global_state_list` entries as
    /// needed).
    ///
    /// Notifying from every state — not just the observed one — is
    /// required for correctness: the observer's partial view must also
    /// learn when the machine *leaves* the observed state, i.e. when any
    /// successor state is entered (including the daemon-reported `CRASH`
    /// and the post-restart entry states). The thesis's own example does
    /// the same: `black` notifies its observers from `INIT`, `RESTART_SM`,
    /// and `CRASH` even though only `CRASH` appears in their fault
    /// expressions (§5.3). Machines are expected to declare a block for
    /// every state they can occupy.
    ///
    /// Existing notify entries are preserved; the derivation is idempotent.
    pub fn derive_notify_lists(mut self) -> Self {
        // Collect (observed machine -> observers) and the explicitly
        // observed states (which need blocks even if undeclared).
        let mut observers: Vec<(String, String)> = Vec::new(); // (sm, observer)
        let mut observed_states: Vec<(String, String)> = Vec::new(); // (sm, state)
        for fault in &self.faults {
            fault.expr.for_each_atom(&mut |sm, state| {
                if sm != fault.owner {
                    let pair = (sm.to_owned(), fault.owner.clone());
                    if !observers.contains(&pair) {
                        observers.push(pair);
                    }
                    let os = (sm.to_owned(), state.to_owned());
                    if !observed_states.contains(&os) {
                        observed_states.push(os);
                    }
                }
            });
        }
        // Ensure blocks exist for observed states and CRASH.
        for (sm, _) in &observers {
            let os = (sm.clone(), "CRASH".to_owned());
            if !observed_states.contains(&os) {
                observed_states.push(os);
            }
        }
        for (sm, state) in observed_states {
            let Some(machine) = self.machines.iter_mut().find(|m| m.name == sm) else {
                continue; // unknown machine: left for compile() to report
            };
            if !machine.global_states.contains(&state) {
                machine.global_states.push(state.clone());
            }
            if machine.state_def(&state).is_none() {
                machine.states.push(StateDef {
                    state,
                    ..Default::default()
                });
            }
        }
        // Append each observer to every block of the observed machine.
        for (sm, observer) in observers {
            let Some(machine) = self.machines.iter_mut().find(|m| m.name == sm) else {
                continue;
            };
            for block in &mut machine.states {
                if !block.notify.contains(&observer) {
                    block.notify.push(observer.clone());
                }
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultExpr;

    #[test]
    fn builder_assembles_spec() {
        let spec = StateMachineSpec::builder("black")
            .states(&["BEGIN", "INIT", "ELECT"])
            .events(&["START", "INIT_DONE"])
            .state("INIT", &["green"], &[("INIT_DONE", "ELECT")])
            .build();
        assert_eq!(spec.global_states, vec!["BEGIN", "INIT", "ELECT"]);
        assert_eq!(spec.events, vec!["START", "INIT_DONE"]);
        let def = spec.state_def("INIT").unwrap();
        assert_eq!(def.notify, vec!["green"]);
        assert_eq!(def.transitions[0].event, "INIT_DONE");
        assert_eq!(def.transitions[0].next_state, "ELECT");
        assert!(spec.state_def("missing").is_none());
    }

    #[test]
    fn study_def_builders() {
        let study = StudyDef::new("study1")
            .machine(StateMachineSpec::builder("a").build())
            .fault("a", "f1", FaultExpr::atom("a", "X"), Trigger::Always)
            .place("a", "host1")
            .dynamic("b");
        assert_eq!(study.machines.len(), 1);
        assert_eq!(study.faults[0].name, "f1");
        assert_eq!(study.placements[0].host.as_deref(), Some("host1"));
        assert_eq!(study.placements[1].host, None);
    }

    #[test]
    fn derive_notify_lists_adds_observers() {
        // gfault2 ((black:CRASH) & ((green:FOLLOW) | (green:ELECT))) owned
        // by green: black's CRASH must notify green; green's own atoms need
        // no notification.
        let study = StudyDef::new("s")
            .machine(
                StateMachineSpec::builder("black")
                    .states(&["CRASH", "LEAD"])
                    .build(),
            )
            .machine(
                StateMachineSpec::builder("green")
                    .states(&["FOLLOW", "ELECT"])
                    .build(),
            )
            .fault(
                "green",
                "gfault2",
                FaultExpr::atom("black", "CRASH")
                    .and(FaultExpr::atom("green", "FOLLOW").or(FaultExpr::atom("green", "ELECT"))),
                Trigger::Once,
            )
            .derive_notify_lists();
        let black = &study.machines[0];
        assert_eq!(black.state_def("CRASH").unwrap().notify, vec!["green"]);
        let green = &study.machines[1];
        assert!(green.state_def("FOLLOW").is_none()); // own atoms: no block needed
    }

    #[test]
    fn derive_notify_lists_is_idempotent_and_preserves_existing() {
        let study = StudyDef::new("s")
            .machine(
                StateMachineSpec::builder("a")
                    .states(&["X"])
                    .state("X", &["c"], &[])
                    .build(),
            )
            .machine(StateMachineSpec::builder("b").states(&["X"]).build())
            .machine(StateMachineSpec::builder("c").states(&["X"]).build())
            .fault("b", "f", FaultExpr::atom("a", "X"), Trigger::Once);
        let once = study.clone().derive_notify_lists();
        let twice = once.clone().derive_notify_lists();
        assert_eq!(once, twice);
        assert_eq!(
            once.machines[0].state_def("X").unwrap().notify,
            vec!["c", "b"] // existing entry kept, observer appended
        );
    }

    #[test]
    fn derive_notify_lists_adds_missing_state_to_global_list() {
        let study = StudyDef::new("s")
            .machine(StateMachineSpec::builder("a").states(&["Y"]).build())
            .machine(StateMachineSpec::builder("b").states(&["Y"]).build())
            // `a` never declared CRASH; the derivation must add it so the
            // compiled spec can notify from the daemon-written CRASH state.
            .fault("b", "f", FaultExpr::atom("a", "CRASH"), Trigger::Once)
            .derive_notify_lists();
        assert!(study.machines[0].global_states.iter().any(|s| s == "CRASH"));
        assert_eq!(
            study.machines[0].state_def("CRASH").unwrap().notify,
            vec!["b"]
        );
    }

    #[test]
    fn reserved_lists_match_thesis() {
        assert_eq!(RESERVED_STATES, ["BEGIN", "EXIT", "CRASH", "RESTART"]);
        assert_eq!(RESERVED_EVENTS, ["CRASH", "RESTART", "default"]);
    }
}
