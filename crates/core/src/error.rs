//! Error types for the core crate.

use std::error::Error;
use std::fmt;

/// Errors produced while compiling or executing study specifications.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A specification referenced a state machine that was never declared.
    UnknownStateMachine {
        /// The missing name.
        name: String,
    },
    /// A specification referenced a state not present in the global state
    /// list.
    UnknownState {
        /// The owning state machine (if the reference was scoped).
        sm: String,
        /// The missing state name.
        state: String,
    },
    /// A transition referenced an event not present in the event list.
    UnknownEvent {
        /// The owning state machine.
        sm: String,
        /// The missing event name.
        event: String,
    },
    /// A fault specification referenced an unknown fault.
    UnknownFault {
        /// The missing fault name.
        name: String,
    },
    /// Two state machines (or faults) were declared with the same name;
    /// the thesis requires every state machine to have a unique name.
    DuplicateName {
        /// What kind of entity collided ("state machine", "fault", ...).
        kind: &'static str,
        /// The colliding name.
        name: String,
    },
    /// A local event arrived for which the current state defines no
    /// transition (and no `default` transition exists).
    NoTransition {
        /// The state machine.
        sm: String,
        /// Its current state.
        state: String,
        /// The undeliverable event.
        event: String,
    },
    /// The first probe notification must name an initial state (or an event
    /// with a transition out of `BEGIN`).
    BadInitialNotification {
        /// The offending notification name.
        name: String,
    },
    /// A state machine was asked to act before it was initialized.
    NotInitialized {
        /// The state machine.
        sm: String,
    },
    /// A study declared more state machines than a
    /// [`SmSet`](crate::small::SmSet) holds.
    TooManyMachines {
        /// The number of machines declared.
        count: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownStateMachine { name } => {
                write!(f, "unknown state machine `{name}`")
            }
            CoreError::UnknownState { sm, state } => {
                write!(f, "unknown state `{state}` (referenced for `{sm}`)")
            }
            CoreError::UnknownEvent { sm, event } => {
                write!(f, "unknown event `{event}` in state machine `{sm}`")
            }
            CoreError::UnknownFault { name } => write!(f, "unknown fault `{name}`"),
            CoreError::DuplicateName { kind, name } => {
                write!(f, "duplicate {kind} name `{name}`")
            }
            CoreError::NoTransition { sm, state, event } => write!(
                f,
                "state machine `{sm}` has no transition for event `{event}` in state `{state}`"
            ),
            CoreError::BadInitialNotification { name } => write!(
                f,
                "initial notification `{name}` names neither a state nor an event leaving BEGIN"
            ),
            CoreError::NotInitialized { sm } => {
                write!(f, "state machine `{sm}` has not been initialized")
            }
            CoreError::TooManyMachines { count } => write!(
                f,
                "a study holds at most {} state machines, this one declares {count}",
                crate::small::SmSet::CAPACITY
            ),
        }
    }
}

impl Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = CoreError::UnknownState {
            sm: "black".into(),
            state: "LEAD".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("LEAD") && msg.contains("black"));
        assert!(msg.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<CoreError>();
    }
}
