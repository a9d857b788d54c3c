//! The message protocol of the Loki runtime.
//!
//! Mirrors the communication paths of the enhanced architecture (§3.5):
//! nodes talk to their local daemon over IPC; daemons talk to each other
//! and to the central daemon over TCP; application messages travel on the
//! application's own connections. The design-ablation routing modes
//! (§3.4.1) reuse the same message set with different paths.

use crate::node::Payload;
use loki_core::ids::{HostId, SmId, StateId};
use loki_core::small::SmSet;

/// All messages exchanged by runtime actors.
///
/// A message is 24 bytes (checked at compile time next to the runtime's
/// actor type): the largest variants are an application payload (one
/// fat `Rc`) and a notification with its target set, one [`SmSet`] word.
/// Every queued event carries one, so the size is per-event cost.
#[derive(Clone)]
pub enum RtMsg {
    // ----- node ↔ local daemon ---------------------------------------------
    /// A starting (or restarting) node announces itself to its local daemon.
    Register {
        /// The node's state machine.
        sm: SmId,
        /// Whether this is a restart (the node found its old timeline).
        restarted: bool,
    },
    /// A node asks its daemon to route a state notification (§3.5.4).
    Notify {
        /// Originating state machine.
        from_sm: SmId,
        /// Its new state.
        state: StateId,
        /// Recipient state machines (the new state's notify list).
        targets: SmSet,
    },
    /// A state notification delivered to a node's state machine transport.
    DeliverNotify {
        /// Originating state machine.
        from_sm: SmId,
        /// Its new state.
        state: StateId,
    },
    /// A restarted node asks for state updates from all other machines
    /// (§3.6.3).
    StateUpdateRequest {
        /// The machine that needs updating.
        for_sm: SmId,
    },
    /// A current-state reply routed back to a restarted machine.
    StateUpdateReply {
        /// The replying machine.
        from_sm: SmId,
        /// Its current state.
        state: StateId,
    },

    // ----- daemon ↔ daemon --------------------------------------------------
    /// Forward a notification to another host's daemon (one per host even
    /// for multiple recipients there, §3.6.1).
    ForwardNotify {
        /// Originating state machine.
        from_sm: SmId,
        /// Its new state.
        state: StateId,
        /// Recipients on the destination host.
        targets: SmSet,
    },
    /// A machine entered the system (register seen by its daemon).
    NodeUp {
        /// The machine.
        sm: SmId,
        /// Whether it was a restart.
        restarted: bool,
        /// The host the machine runs on.
        host: HostId,
    },
    /// A machine left the system (crash or exit detected by its daemon).
    NodeDown {
        /// The machine.
        sm: SmId,
        /// `true` for a crash, `false` for a clean exit.
        crashed: bool,
        /// The host the machine was running on.
        host: HostId,
    },

    // ----- central daemon ↔ local daemons ------------------------------------
    /// Central daemon orders a local daemon to start a machine (§3.5.1).
    StartNode {
        /// The machine to start.
        sm: SmId,
        /// The host to start it on.
        host: HostId,
    },
    /// Central daemon orders all machines killed (abort/timeout).
    KillAllNodes,
    /// A local daemon reports that its local experiment-end check passed.
    ExperimentEndNotice,

    // ----- application ------------------------------------------------------
    /// An application-level message between nodes, delivered on the
    /// application's own connections.
    App {
        /// Sending state machine.
        from_sm: SmId,
        /// Payload (the application-defined [`Payload`]).
        payload: Payload,
    },
}

impl std::fmt::Debug for RtMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtMsg::Register { sm, restarted } => {
                write!(f, "Register({sm:?}, restarted={restarted})")
            }
            RtMsg::Notify {
                from_sm,
                state,
                targets,
            } => {
                write!(f, "Notify({from_sm:?} -> {state:?}, to {targets:?})")
            }
            RtMsg::DeliverNotify { from_sm, state } => {
                write!(f, "DeliverNotify({from_sm:?} in {state:?})")
            }
            RtMsg::StateUpdateRequest { for_sm } => write!(f, "StateUpdateRequest({for_sm:?})"),
            RtMsg::StateUpdateReply { from_sm, state } => {
                write!(f, "StateUpdateReply({from_sm:?} in {state:?})")
            }
            RtMsg::ForwardNotify {
                from_sm,
                state,
                targets,
            } => {
                write!(f, "ForwardNotify({from_sm:?} in {state:?}, to {targets:?})")
            }
            RtMsg::NodeUp {
                sm,
                restarted,
                host,
            } => {
                write!(f, "NodeUp({sm:?}, restarted={restarted}, host={host:?})")
            }
            RtMsg::NodeDown { sm, crashed, host } => {
                write!(f, "NodeDown({sm:?}, crashed={crashed}, host={host:?})")
            }
            RtMsg::StartNode { sm, host } => write!(f, "StartNode({sm:?} on host {host:?})"),
            RtMsg::KillAllNodes => write!(f, "KillAllNodes"),
            RtMsg::ExperimentEndNotice => write!(f, "ExperimentEndNotice"),
            RtMsg::App { from_sm, .. } => write!(f, "App(from {from_sm:?})"),
        }
    }
}

/// How state notifications are routed — the §3.4.1 design choices.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum NotifyRouting {
    /// Partially distributed design, communication through daemons: node →
    /// local daemon → remote daemon → node. The thesis's chosen design.
    #[default]
    ThroughDaemons,
    /// Direct design: nodes hold connections to every other node and send
    /// notifications directly (cheaper per message, expensive entry/exit).
    Direct,
    /// Centralized design: a single global daemon relays every
    /// notification.
    Centralized,
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_core::ids::Id;

    #[test]
    fn debug_formats_are_informative() {
        let m = RtMsg::Notify {
            from_sm: Id::from_raw(0),
            state: Id::from_raw(3),
            targets: SmSet::one(Id::from_raw(1)),
        };
        let s = format!("{m:?}");
        assert!(s.contains("Notify"));
        let m = RtMsg::App {
            from_sm: Id::from_raw(2),
            payload: std::rc::Rc::new(42u32),
        };
        assert!(format!("{m:?}").contains("App"));
    }

    #[test]
    fn payload_downcasts() {
        let p: Payload = std::rc::Rc::new("hello".to_owned());
        assert_eq!(p.downcast_ref::<String>().unwrap(), "hello");
        assert!(p.downcast_ref::<u32>().is_none());
    }
}
