//! Compiled studies: validated, name-resolved specifications ready for the
//! runtime.
//!
//! [`Study::compile`] interns every name into study-wide tables, validates
//! cross-references (transitions, notify lists, fault atoms), installs the
//! reserved states/events, and synthesizes the implicit `CRASH` transitions.

use crate::error::CoreError;
use crate::fault::{compile_expr, CompiledFault};
use crate::ids::{EventId, EventTag, FaultId, FaultTag, NameTable, SmId, SmTag, StateId, StateTag};
use crate::small::SmSet;
use crate::spec::{StudyDef, DEFAULT_EVENT, RESERVED_EVENTS, RESERVED_STATES};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A single state machine with all names resolved.
///
/// Transition data is stored in dense tables indexed by the study-wide
/// [`StateId`]/[`EventId`] spaces (both fully interned before machines are
/// compiled), so the per-event hot path is array indexing rather than
/// hashing.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CompiledSm {
    /// Row stride of `transitions`: the study-wide event count.
    num_events: u32,
    /// Explicit `(state, event) → next state` transitions, row-major by
    /// `state.index() * num_events + event.index()`.
    transitions: Vec<Option<StateId>>,
    /// Per-state wildcard transitions (`default` event), by state index.
    defaults: Vec<Option<StateId>>,
    /// Per-state notify lists, by state index.
    notify: Vec<SmSet>,
}

impl CompiledSm {
    #[inline]
    fn slot(&self, state: StateId, event: EventId) -> usize {
        state.index() * self.num_events as usize + event.index()
    }

    /// Looks up the state entered when `event` occurs in `state`.
    ///
    /// Resolution order matches the runtime semantics: explicit transition,
    /// then the state's `default` transition, then the implicit
    /// `CRASH`-event rule (handled at compile time). Returns `None` when the
    /// machine has no transition for the pair.
    #[inline]
    pub fn next_state(&self, state: StateId, event: EventId) -> Option<StateId> {
        self.transitions[self.slot(state, event)].or(self.defaults[state.index()])
    }

    /// The machines to notify when this machine enters `state` (never
    /// the machine itself), as a set: notifications fan out in ascending
    /// machine id.
    #[inline]
    pub fn notify_list(&self, state: StateId) -> SmSet {
        self.notify[state.index()]
    }
}

/// A compiled study: interned tables, machines, faults, and placement.
///
/// Studies are immutable once compiled and are shared across node runtimes
/// behind an [`Arc`].
///
/// # Examples
///
/// ```
/// use loki_core::spec::{StateMachineSpec, StudyDef};
/// use loki_core::fault::{FaultExpr, Trigger};
/// use loki_core::study::Study;
///
/// let def = StudyDef::new("s")
///     .machine(
///         StateMachineSpec::builder("a")
///             .states(&["IDLE", "BUSY"])
///             .events(&["GO", "DONE"])
///             .state("IDLE", &["b"], &[("GO", "BUSY")])
///             .state("BUSY", &[], &[("DONE", "IDLE")])
///             .build(),
///     )
///     .machine(
///         StateMachineSpec::builder("b")
///             .states(&["IDLE", "BUSY"])
///             .events(&["GO", "DONE"])
///             .state("IDLE", &[], &[("GO", "BUSY")])
///             .build(),
///     )
///     .fault("b", "f1", FaultExpr::atom("a", "BUSY"), Trigger::Always)
///     .place("a", "host1")
///     .place("b", "host2");
/// let study = Study::compile(&def)?;
/// assert_eq!(study.num_machines(), 2);
/// # Ok::<(), loki_core::error::CoreError>(())
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Study {
    /// Study name.
    pub name: String,
    /// State machine names.
    pub sms: NameTable<SmTag>,
    /// The study-wide global state list.
    pub states: NameTable<StateTag>,
    /// The study-wide event list (union of per-machine lists plus reserved
    /// events and init aliases).
    pub events: NameTable<EventTag>,
    /// Fault names.
    pub fault_names: NameTable<FaultTag>,
    /// Compiled machines, indexed by [`SmId`].
    pub machines: Vec<CompiledSm>,
    /// Compiled faults, indexed by [`FaultId`].
    pub faults: Vec<CompiledFault>,
    /// Initial placement: `(machine, Some(host))` entries are started at
    /// experiment begin; `None` hosts enter dynamically.
    pub placements: Vec<(SmId, Option<String>)>,
    /// Alias event for initializing to a state by name: maps each state
    /// (densely, by index) to the synthesized event with the same name (the
    /// thesis treats the first probe notification as a state, §3.5.7).
    init_alias: Vec<EventId>,
}

impl Study {
    /// Compiles and validates a study definition.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] when names collide, transitions reference
    /// undeclared states/events, notify lists or fault expressions reference
    /// unknown machines, or placements name unknown machines, and
    /// [`CoreError::TooManyMachines`] for a study of more machines than an
    /// [`SmSet`] holds.
    pub fn compile(def: &StudyDef) -> Result<Study, CoreError> {
        if def.machines.len() > SmSet::CAPACITY {
            return Err(CoreError::TooManyMachines {
                count: def.machines.len(),
            });
        }
        let mut sms = NameTable::new();
        let mut fault_names = NameTable::new();

        // Reserved names first: their ids are the `StateId`/`EventId`
        // constants in every study.
        let mut states: NameTable<StateTag> = NameTable::from_iter(RESERVED_STATES);
        let mut events: NameTable<EventTag> = NameTable::from_iter(RESERVED_EVENTS);

        // Machine names.
        for m in &def.machines {
            if sms.lookup(&m.name).is_some() {
                return Err(CoreError::DuplicateName {
                    kind: "state machine",
                    name: m.name.clone(),
                });
            }
            sms.intern(&m.name);
        }

        // Global state list: union across machines, order of first mention.
        for m in &def.machines {
            for s in &m.global_states {
                states.intern(s);
            }
        }

        // Events: union, then per-machine declared lists.
        for m in &def.machines {
            for e in &m.events {
                events.intern(e);
            }
        }

        // Init aliases: every state name is also usable as the first probe
        // notification, so give each state an event alias of the same name.
        // All states are interned by now, so the alias table is dense.
        let state_names: Vec<String> = states.iter().map(|(_, n)| n.to_owned()).collect();
        let init_alias: Vec<EventId> = state_names.iter().map(|n| events.intern(n)).collect();

        // Both id spaces are final from here on (machine and fault
        // compilation only look names up), so the per-machine transition
        // tables can be dense.
        let num_states = states.len();
        let num_events = events.len();

        // Compile each machine.
        let mut machines = Vec::with_capacity(def.machines.len());
        for (idx, m) in def.machines.iter().enumerate() {
            let id = SmId::from_raw(idx as u32);
            let mut transitions: Vec<Option<StateId>> = vec![None; num_states * num_events];
            let mut defaults: Vec<Option<StateId>> = vec![None; num_states];
            let mut notify = vec![SmSet::new(); num_states];
            // Implicit rule: in any declared state (and BEGIN), a CRASH
            // event without an explicit transition leads to the CRASH state.
            let mut crashable = vec![StateId::BEGIN];

            for block in &m.states {
                let state = states
                    .lookup(&block.state)
                    .ok_or_else(|| CoreError::UnknownState {
                        sm: m.name.clone(),
                        state: block.state.clone(),
                    })?;
                crashable.push(state);

                let mut set = SmSet::new();
                for target in &block.notify {
                    let target_id =
                        sms.lookup(target)
                            .ok_or_else(|| CoreError::UnknownStateMachine {
                                name: target.clone(),
                            })?;
                    if target_id != id {
                        set.insert(target_id);
                    }
                }
                notify[state.index()] = set;

                for t in &block.transitions {
                    let next =
                        states
                            .lookup(&t.next_state)
                            .ok_or_else(|| CoreError::UnknownState {
                                sm: m.name.clone(),
                                state: t.next_state.clone(),
                            })?;
                    if t.event == DEFAULT_EVENT {
                        defaults[state.index()] = Some(next);
                        continue;
                    }
                    let declared = m.events.iter().any(|e| e == &t.event)
                        || RESERVED_EVENTS.contains(&t.event.as_str());
                    let Some(event) = events.lookup(&t.event).filter(|_| declared) else {
                        return Err(CoreError::UnknownEvent {
                            sm: m.name.clone(),
                            event: t.event.clone(),
                        });
                    };
                    transitions[state.index() * num_events + event.index()] = Some(next);
                }
            }

            for s in crashable {
                let slot = s.index() * num_events + EventId::CRASH.index();
                if transitions[slot].is_none() {
                    transitions[slot] = Some(StateId::CRASH);
                }
            }

            machines.push(CompiledSm {
                num_events: num_events as u32,
                transitions,
                defaults,
                notify,
            });
        }

        // Compile faults.
        let mut faults = Vec::with_capacity(def.faults.len());
        for f in &def.faults {
            if fault_names.lookup(&f.name).is_some() {
                return Err(CoreError::DuplicateName {
                    kind: "fault",
                    name: f.name.clone(),
                });
            }
            let id: FaultId = fault_names.intern(&f.name);
            let owner = sms
                .lookup(&f.owner)
                .ok_or_else(|| CoreError::UnknownStateMachine {
                    name: f.owner.clone(),
                })?;
            let expr = compile_expr(&f.expr, &|n| sms.lookup(n), &|n| states.lookup(n))?;
            faults.push(CompiledFault {
                id,
                owner,
                expr,
                trigger: f.trigger,
            });
        }

        // Placement.
        let mut placements = Vec::with_capacity(def.placements.len());
        for p in &def.placements {
            let sm = sms
                .lookup(&p.sm)
                .ok_or_else(|| CoreError::UnknownStateMachine { name: p.sm.clone() })?;
            placements.push((sm, p.host.clone()));
        }

        Ok(Study {
            name: def.name.clone(),
            sms,
            states,
            events,
            fault_names,
            machines,
            faults,
            placements,
            init_alias,
        })
    }

    /// Convenience: compile and wrap in an [`Arc`].
    pub fn compile_arc(def: &StudyDef) -> Result<Arc<Study>, CoreError> {
        Study::compile(def).map(Arc::new)
    }

    /// Number of state machines in the study.
    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// Looks up a machine by nickname.
    pub fn sm_id(&self, name: &str) -> Option<SmId> {
        self.sms.lookup(name)
    }

    /// The compiled machine for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a machine of this study.
    pub fn machine(&self, id: SmId) -> &CompiledSm {
        &self.machines[id.index()]
    }

    /// The faults injected by machine `sm`'s probe.
    pub fn faults_owned_by(&self, sm: SmId) -> Vec<CompiledFault> {
        self.faults
            .iter()
            .filter(|f| f.owner == sm)
            .cloned()
            .collect()
    }

    /// The event alias used when a probe's first notification names a state.
    #[inline]
    pub fn init_alias(&self, state: StateId) -> EventId {
        self.init_alias[state.index()]
    }

    /// All machines that observe `sm` through some fault expression (used to
    /// derive notify lists automatically; the thesis leaves this manual but
    /// suggests automating it, §5.3).
    pub fn observers_of(&self, sm: SmId) -> Vec<SmId> {
        let mut observers = Vec::new();
        for f in &self.faults {
            if f.expr.observed_machines().contains(&sm)
                && f.owner != sm
                && !observers.contains(&f.owner)
            {
                observers.push(f.owner);
            }
        }
        observers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultExpr, Trigger};
    use crate::spec::StateMachineSpec;

    fn two_machine_def() -> StudyDef {
        StudyDef::new("s")
            .machine(
                StateMachineSpec::builder("a")
                    .states(&["IDLE", "BUSY"])
                    .events(&["GO", "DONE"])
                    .state("IDLE", &["b"], &[("GO", "BUSY")])
                    .state("BUSY", &["b"], &[("DONE", "IDLE")])
                    .build(),
            )
            .machine(
                StateMachineSpec::builder("b")
                    .states(&["IDLE", "BUSY"])
                    .events(&["GO"])
                    .state("IDLE", &[], &[("GO", "BUSY")])
                    .build(),
            )
            .fault("b", "f1", FaultExpr::atom("a", "BUSY"), Trigger::Always)
            .place("a", "h1")
            .place("b", "h2")
    }

    #[test]
    fn compile_two_machines() {
        let study = Study::compile(&two_machine_def()).unwrap();
        assert_eq!(study.num_machines(), 2);
        let a = study.sm_id("a").unwrap();
        let b = study.sm_id("b").unwrap();
        let idle = study.states.lookup("IDLE").unwrap();
        let busy = study.states.lookup("BUSY").unwrap();
        let go = study.events.lookup("GO").unwrap();
        assert_eq!(study.machine(a).next_state(idle, go), Some(busy));
        assert_eq!(study.machine(a).notify_list(idle), SmSet::one(b));
        assert!(study.machine(b).notify_list(idle).is_empty());
        assert_eq!(study.faults_owned_by(b).len(), 1);
        assert_eq!(study.faults_owned_by(a).len(), 0);
        assert_eq!(study.observers_of(a), vec![b]);
    }

    #[test]
    fn reserved_names_always_present() {
        let study = Study::compile(&StudyDef::new("empty")).unwrap();
        let states = [
            StateId::BEGIN,
            StateId::EXIT,
            StateId::CRASH,
            StateId::RESTART,
        ];
        for (name, id) in RESERVED_STATES.into_iter().zip(states) {
            assert_eq!(study.states.lookup(name), Some(id), "state {name}");
        }
        let events = [EventId::CRASH, EventId::RESTART, EventId::DEFAULT];
        for (name, id) in RESERVED_EVENTS.into_iter().zip(events) {
            assert_eq!(study.events.lookup(name), Some(id), "event {name}");
        }
    }

    #[test]
    fn implicit_crash_transition() {
        let study = Study::compile(&two_machine_def()).unwrap();
        let a = study.sm_id("a").unwrap();
        let busy = study.states.lookup("BUSY").unwrap();
        assert_eq!(
            study.machine(a).next_state(busy, EventId::CRASH),
            Some(StateId::CRASH)
        );
        // ... but an explicit transition on CRASH wins.
        let def = StudyDef::new("s").machine(
            StateMachineSpec::builder("a")
                .states(&["IDLE", "LIMBO"])
                .events(&[])
                .state("IDLE", &[], &[("CRASH", "LIMBO")])
                .build(),
        );
        let study = Study::compile(&def).unwrap();
        let a = study.sm_id("a").unwrap();
        let idle = study.states.lookup("IDLE").unwrap();
        let limbo = study.states.lookup("LIMBO").unwrap();
        assert_eq!(
            study.machine(a).next_state(idle, EventId::CRASH),
            Some(limbo)
        );
    }

    #[test]
    fn default_transition() {
        let def = StudyDef::new("s").machine(
            StateMachineSpec::builder("a")
                .states(&["IDLE", "SINK"])
                .events(&["X"])
                .state("IDLE", &[], &[("default", "SINK")])
                .build(),
        );
        let study = Study::compile(&def).unwrap();
        let a = study.sm_id("a").unwrap();
        let idle = study.states.lookup("IDLE").unwrap();
        let sink = study.states.lookup("SINK").unwrap();
        let x = study.events.lookup("X").unwrap();
        assert_eq!(study.machine(a).next_state(idle, x), Some(sink));
        let machine = study.machine(a);
        assert_eq!(
            machine.transitions[machine.slot(idle, x)],
            None,
            "no explicit IDLE/X"
        );
    }

    #[test]
    fn duplicate_machine_name_rejected() {
        let def = StudyDef::new("s")
            .machine(StateMachineSpec::builder("a").build())
            .machine(StateMachineSpec::builder("a").build());
        assert!(matches!(
            Study::compile(&def),
            Err(CoreError::DuplicateName {
                kind: "state machine",
                ..
            })
        ));
    }

    #[test]
    fn duplicate_fault_name_rejected() {
        let def = StudyDef::new("s")
            .machine(StateMachineSpec::builder("a").states(&["X"]).build())
            .fault("a", "f", FaultExpr::atom("a", "X"), Trigger::Once)
            .fault("a", "f", FaultExpr::atom("a", "X"), Trigger::Once);
        assert!(matches!(
            Study::compile(&def),
            Err(CoreError::DuplicateName { kind: "fault", .. })
        ));
    }

    #[test]
    fn unknown_references_rejected() {
        // Transition to undeclared state.
        let def = StudyDef::new("s").machine(
            StateMachineSpec::builder("a")
                .states(&["IDLE"])
                .events(&["GO"])
                .state("IDLE", &[], &[("GO", "NOWHERE")])
                .build(),
        );
        assert!(matches!(
            Study::compile(&def),
            Err(CoreError::UnknownState { .. })
        ));

        // Undeclared event in a transition.
        let def = StudyDef::new("s").machine(
            StateMachineSpec::builder("a")
                .states(&["IDLE"])
                .events(&[])
                .state("IDLE", &[], &[("GO", "IDLE")])
                .build(),
        );
        assert!(matches!(
            Study::compile(&def),
            Err(CoreError::UnknownEvent { .. })
        ));

        // Notify target that does not exist.
        let def = StudyDef::new("s").machine(
            StateMachineSpec::builder("a")
                .states(&["IDLE"])
                .state("IDLE", &["ghost"], &[])
                .build(),
        );
        assert!(matches!(
            Study::compile(&def),
            Err(CoreError::UnknownStateMachine { .. })
        ));

        // Fault expression over an unknown machine.
        let def = StudyDef::new("s")
            .machine(StateMachineSpec::builder("a").states(&["X"]).build())
            .fault("a", "f", FaultExpr::atom("ghost", "X"), Trigger::Once);
        assert!(matches!(
            Study::compile(&def),
            Err(CoreError::UnknownStateMachine { .. })
        ));

        // Placement of an unknown machine.
        let def = StudyDef::new("s").place("ghost", "h");
        assert!(matches!(
            Study::compile(&def),
            Err(CoreError::UnknownStateMachine { .. })
        ));
    }

    #[test]
    fn self_notify_is_dropped() {
        let def = StudyDef::new("s").machine(
            StateMachineSpec::builder("a")
                .states(&["IDLE"])
                .state("IDLE", &["a"], &[])
                .build(),
        );
        let study = Study::compile(&def).unwrap();
        let a = study.sm_id("a").unwrap();
        let idle = study.states.lookup("IDLE").unwrap();
        assert!(study.machine(a).notify_list(idle).is_empty());
    }

    /// A study of `n` machines, the first notifying every other one.
    fn wide_def(n: usize) -> StudyDef {
        let names: Vec<String> = (0..n).map(|i| format!("m{i}")).collect();
        let all: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut def = StudyDef::new("wide");
        for (i, name) in names.iter().enumerate() {
            let notify: &[&str] = if i == 0 { &all } else { &[] };
            def = def.machine(
                StateMachineSpec::builder(name)
                    .states(&["IDLE"])
                    .state("IDLE", notify, &[])
                    .build(),
            );
        }
        def
    }

    #[test]
    fn sixty_four_machines_compile_and_sixty_five_are_a_typed_error() {
        let study = Study::compile(&wide_def(64)).unwrap();
        let first = study.sm_id("m0").unwrap();
        let idle = study.states.lookup("IDLE").unwrap();
        let notify = study.machine(first).notify_list(idle);
        assert_eq!(notify.len(), 63, "every machine but itself");
        assert_eq!(notify.iter().last(), study.sm_id("m63"));
        assert_eq!(
            Study::compile(&wide_def(65)).unwrap_err(),
            CoreError::TooManyMachines { count: 65 }
        );
    }

    #[test]
    fn notify_lists_name_each_machine_once() {
        let def = StudyDef::new("s")
            .machine(
                StateMachineSpec::builder("a")
                    .states(&["IDLE"])
                    .state("IDLE", &["c", "b", "c", "a"], &[])
                    .build(),
            )
            .machine(StateMachineSpec::builder("b").build())
            .machine(StateMachineSpec::builder("c").build());
        let study = Study::compile(&def).unwrap();
        let idle = study.states.lookup("IDLE").unwrap();
        let notify = study.machine(study.sm_id("a").unwrap()).notify_list(idle);
        let names: Vec<&str> = notify.iter().map(|sm| study.sms.name(sm)).collect();
        assert_eq!(names, vec!["b", "c"], "ascending, deduplicated, no self");
    }

    #[test]
    fn init_alias_exists_for_every_state() {
        let study = Study::compile(&two_machine_def()).unwrap();
        for (sid, name) in study.states.iter() {
            let alias = study.init_alias(sid);
            assert_eq!(study.events.name(alias), name);
        }
    }
}
