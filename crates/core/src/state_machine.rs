//! The per-node state machine that tracks the partial view of global state.
//!
//! One `StateMachine` is attached to each node (§3.5.3). It tracks the
//! node's *local* state using the state machine specification and the
//! probe's local event notifications, and it tracks the states of *remote*
//! machines from the state notifications they send. Together these form the
//! node's partial view of global state, which the fault parser consumes.
//!
//! This type is pure logic: it performs no I/O and knows nothing about
//! transports, daemons, or clocks. The runtime crate wires its outputs
//! (notify lists, state changes) to the transport and the recorder.

use crate::error::CoreError;
use crate::ids::{EventId, SmId, StateId};
use crate::small::SmSet;
use crate::study::Study;
use crate::view::PartialView;
use std::sync::Arc;

/// The result of applying a local event: the transition taken and the
/// machines that must be notified of the new state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransitionOutcome {
    /// The event that caused the transition (after init-alias resolution).
    pub event: EventId,
    /// State before the transition.
    pub old_state: StateId,
    /// State after the transition.
    pub new_state: StateId,
    /// Machines to notify that we entered `new_state` (the `notify` list of
    /// the new state's block).
    pub notify: SmSet,
}

/// A node's state machine: local state plus the partial view of global
/// state.
///
/// # Examples
///
/// ```
/// use loki_core::spec::{StateMachineSpec, StudyDef};
/// use loki_core::state_machine::StateMachine;
/// use loki_core::study::Study;
///
/// let def = StudyDef::new("s").machine(
///     StateMachineSpec::builder("a")
///         .states(&["INIT", "RUN"])
///         .events(&["GO"])
///         .state("INIT", &[], &[("GO", "RUN")])
///         .build(),
/// );
/// let study = Study::compile_arc(&def)?;
/// let a = study.sm_id("a").unwrap();
/// let mut sm = StateMachine::new(study.clone(), a);
///
/// // The first notification names the initial state (§3.5.7).
/// sm.initialize("INIT")?;
/// let out = sm.apply_event_name("GO")?;
/// assert_eq!(study.states.name(out.new_state), "RUN");
/// # Ok::<(), loki_core::error::CoreError>(())
/// ```
#[derive(Clone, Debug)]
pub struct StateMachine {
    study: Arc<Study>,
    id: SmId,
    state: StateId,
    initialized: bool,
    view: PartialView,
}

impl StateMachine {
    /// Creates the state machine for node `id`, in the `BEGIN` state with an
    /// all-unknown view of the other machines.
    pub fn new(study: Arc<Study>, id: SmId) -> Self {
        let n = study.num_machines();
        let mut view = PartialView::new(n);
        view.set(id, StateId::BEGIN);
        StateMachine {
            study,
            id,
            state: StateId::BEGIN,
            initialized: false,
            view,
        }
    }

    /// This machine's id.
    pub fn id(&self) -> SmId {
        self.id
    }

    /// Current local state.
    pub fn state(&self) -> StateId {
        self.state
    }

    /// Whether the initial probe notification has been processed.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// The partial view of global state (own state included).
    pub fn view(&self) -> &PartialView {
        &self.view
    }

    /// Processes the probe's *first* notification, which initializes the
    /// machine (§3.5.7): if `name` is a state, the machine enters it
    /// directly; if `name` is an event with a transition out of `BEGIN`,
    /// that transition is taken.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadInitialNotification`] if `name` resolves to
    /// neither, or the machine is already initialized.
    pub fn initialize(&mut self, name: &str) -> Result<TransitionOutcome, CoreError> {
        if self.initialized {
            return Err(CoreError::BadInitialNotification {
                name: name.to_owned(),
            });
        }
        // Event path first: an explicit BEGIN transition wins, so that a
        // spec with `state BEGIN` blocks behaves exactly as written.
        if let Some(event) = self.study.events.lookup(name) {
            if let Some(next) = self
                .study
                .machine(self.id)
                .next_state(StateId::BEGIN, event)
            {
                self.initialized = true;
                return Ok(self.enter(event, next));
            }
        }
        if let Some(state) = self.study.states.lookup(name) {
            self.initialized = true;
            let alias = self.study.init_alias(state);
            return Ok(self.enter(alias, state));
        }
        Err(CoreError::BadInitialNotification {
            name: name.to_owned(),
        })
    }

    /// Applies a local event delivered by the probe, by name, transitioning
    /// the local state and updating the partial view.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownEvent`] for names absent from the study,
    /// [`CoreError::NotInitialized`] before the initial notification, and
    /// [`CoreError::NoTransition`] when the current state defines no
    /// transition for the event (explicit, `default`, or the implicit
    /// `CRASH` rule).
    pub fn apply_event_name(&mut self, name: &str) -> Result<TransitionOutcome, CoreError> {
        let event = self
            .study
            .events
            .lookup(name)
            .ok_or_else(|| CoreError::UnknownEvent {
                sm: self.study.sms.name(self.id).to_owned(),
                event: name.to_owned(),
            })?;
        if !self.initialized {
            return Err(CoreError::NotInitialized {
                sm: self.study.sms.name(self.id).to_owned(),
            });
        }
        let next = self
            .study
            .machine(self.id)
            .next_state(self.state, event)
            .ok_or_else(|| CoreError::NoTransition {
                sm: self.study.sms.name(self.id).to_owned(),
                state: self.study.states.name(self.state).to_owned(),
                event: self.study.events.name(event).to_owned(),
            })?;
        Ok(self.enter(event, next))
    }

    /// Incorporates a remote machine's state notification into the partial
    /// view. Returns `true` if the view changed (the fault parser only needs
    /// to re-evaluate on change).
    pub fn apply_remote(&mut self, from: SmId, state: StateId) -> bool {
        if from == self.id {
            return false;
        }
        self.view.set(from, state)
    }

    fn enter(&mut self, event: EventId, next: StateId) -> TransitionOutcome {
        let old = self.state;
        self.state = next;
        self.view.set(self.id, next);
        TransitionOutcome {
            event,
            old_state: old,
            new_state: next,
            notify: self.study.machine(self.id).notify_list(next),
        }
    }

    /// Re-targets this machine at a new incarnation of (possibly another)
    /// machine `id`, reusing the partial-view storage. Observationally
    /// identical to `StateMachine::new(study, id)` — contents are fully
    /// reset, only the view's capacity is retained.
    pub fn reinit(&mut self, id: SmId) {
        self.id = id;
        self.state = StateId::BEGIN;
        self.initialized = false;
        self.view.reset();
        self.view.set(id, StateId::BEGIN);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{StateMachineSpec, StudyDef};

    fn study() -> Arc<Study> {
        let def = StudyDef::new("s")
            .machine(
                StateMachineSpec::builder("a")
                    .states(&["INIT", "RUN", "DONE"])
                    .events(&["GO", "STOP"])
                    .state("INIT", &["b"], &[("GO", "RUN")])
                    .state("RUN", &["b"], &[("STOP", "DONE")])
                    .state("CRASH", &["b"], &[])
                    .build(),
            )
            .machine(
                StateMachineSpec::builder("b")
                    .states(&["INIT", "RUN", "DONE"])
                    .events(&["GO"])
                    .state("INIT", &[], &[("GO", "RUN")])
                    .build(),
            );
        Study::compile_arc(&def).unwrap()
    }

    #[test]
    fn starts_in_begin_uninitialized() {
        let s = study();
        let sm = StateMachine::new(s.clone(), s.sm_id("a").unwrap());
        assert_eq!(sm.state(), StateId::BEGIN);
        assert!(!sm.is_initialized());
        assert_eq!(sm.view().get(sm.id()), Some(StateId::BEGIN));
    }

    #[test]
    fn initialize_by_state_name() {
        let s = study();
        let mut sm = StateMachine::new(s.clone(), s.sm_id("a").unwrap());
        let out = sm.initialize("INIT").unwrap();
        assert_eq!(s.states.name(out.new_state), "INIT");
        assert_eq!(out.old_state, StateId::BEGIN);
        assert_eq!(out.notify, SmSet::one(s.sm_id("b").unwrap()));
        assert!(sm.is_initialized());
    }

    #[test]
    fn initialize_by_begin_transition_event() {
        // A spec with an explicit BEGIN block may initialize via an event,
        // as in the thesis's Figure 5.1 (BEGIN --START--> INIT).
        let def = StudyDef::new("s").machine(
            StateMachineSpec::builder("a")
                .states(&["INIT"])
                .events(&["START"])
                .state("BEGIN", &[], &[("START", "INIT")])
                .state("INIT", &[], &[])
                .build(),
        );
        let s = Study::compile_arc(&def).unwrap();
        let mut sm = StateMachine::new(s.clone(), s.sm_id("a").unwrap());
        let out = sm.initialize("START").unwrap();
        assert_eq!(s.states.name(out.new_state), "INIT");
        assert_eq!(s.events.name(out.event), "START");
    }

    #[test]
    fn double_initialize_rejected() {
        let s = study();
        let mut sm = StateMachine::new(s.clone(), s.sm_id("a").unwrap());
        sm.initialize("INIT").unwrap();
        assert!(sm.initialize("INIT").is_err());
    }

    #[test]
    fn bad_initial_notification() {
        let s = study();
        let mut sm = StateMachine::new(s.clone(), s.sm_id("a").unwrap());
        assert!(matches!(
            sm.initialize("NONSENSE"),
            Err(CoreError::BadInitialNotification { .. })
        ));
        // GO is an event but has no transition out of BEGIN.
        assert!(matches!(
            sm.initialize("GO"),
            Err(CoreError::BadInitialNotification { .. })
        ));
    }

    #[test]
    fn apply_event_transitions_and_notifies() {
        let s = study();
        let mut sm = StateMachine::new(s.clone(), s.sm_id("a").unwrap());
        sm.initialize("INIT").unwrap();
        let out = sm.apply_event_name("GO").unwrap();
        assert_eq!(s.states.name(out.new_state), "RUN");
        assert_eq!(out.notify, SmSet::one(s.sm_id("b").unwrap()));
        let out = sm.apply_event_name("STOP").unwrap();
        assert_eq!(s.states.name(out.new_state), "DONE");
        assert!(out.notify.is_empty()); // DONE has no block -> empty list
    }

    #[test]
    fn event_before_initialize_rejected() {
        let s = study();
        let mut sm = StateMachine::new(s.clone(), s.sm_id("a").unwrap());
        assert!(matches!(
            sm.apply_event_name("GO"),
            Err(CoreError::NotInitialized { .. })
        ));
    }

    #[test]
    fn no_transition_is_an_error() {
        let s = study();
        let mut sm = StateMachine::new(s.clone(), s.sm_id("a").unwrap());
        sm.initialize("INIT").unwrap();
        assert!(matches!(
            sm.apply_event_name("STOP"),
            Err(CoreError::NoTransition { .. })
        ));
    }

    #[test]
    fn implicit_crash_event_works_everywhere() {
        let s = study();
        let mut sm = StateMachine::new(s.clone(), s.sm_id("a").unwrap());
        sm.initialize("RUN").unwrap();
        let out = sm.apply_event_name("CRASH").unwrap();
        assert_eq!(out.new_state, StateId::CRASH);
        assert_eq!(out.notify, SmSet::one(s.sm_id("b").unwrap())); // CRASH block notify
    }

    #[test]
    fn remote_updates_view_only() {
        let s = study();
        let a = s.sm_id("a").unwrap();
        let b = s.sm_id("b").unwrap();
        let run = s.states.lookup("RUN").unwrap();
        let mut sm = StateMachine::new(s.clone(), a);
        assert!(sm.apply_remote(b, run));
        assert!(!sm.apply_remote(b, run)); // duplicate: no change
        assert_eq!(sm.view().get(b), Some(run));
        assert_eq!(sm.state(), StateId::BEGIN); // own state untouched
        assert!(!sm.apply_remote(a, run)); // self-notifications ignored
    }
}
