//! The probe: the system-dependent part of the Loki runtime (§3.5.7).
//!
//! The probe has two duties: it *notifies* the state machine of local events
//! occurring in the application, and it *performs the actual fault
//! injection* when instructed by the fault parser. In this library both
//! directions live on the runtime's node: the application calls
//! `notify_event` (the thesis's `notifyEvent()`), and the runtime calls
//! the application's `on_fault` (the thesis's `injectFault()`).
//!
//! Because the *kind* of fault is completely up to the user (§5.4 — "the
//! type of fault injected is completely left to the user"), this module also
//! ships a small vocabulary of common fault effects ([`FaultAction`]) and a
//! table-driven probe ([`ActionProbe`]) mapping fault names to effects,
//! which covers the fault types the thesis's future-work section calls
//! "probe templates".

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A common fault effect, interpreted by the application harness.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Crash the node immediately (the classic crash fault of §5.4; the
    /// injected error "crashes the process").
    CrashNode,
    /// Crash the node after a dormancy delay, with the given probability of
    /// the fault actually manifesting as an error (coverage experiments
    /// need faults that sometimes stay dormant).
    CrashWithProbability {
        /// Probability in `[0,1]` that the fault becomes an error.
        activation: f64,
        /// Dormancy: nanoseconds between injection and manifestation.
        dormancy_ns: u64,
    },
    /// Pause the node for the given duration (a hang/performance fault).
    HangNode {
        /// Hang duration in nanoseconds.
        duration_ns: u64,
    },
    /// Drop the node's next `count` outgoing application messages
    /// (a communication fault).
    DropMessages {
        /// How many messages to drop.
        count: u32,
    },
    /// Flip application-defined state (a memory-corruption fault); the
    /// payload names which variable to corrupt.
    CorruptState {
        /// Application-defined target.
        target: String,
    },
    /// Partition the network into the named host groups: messages flow only
    /// within a group. Hosts listed in no group share one implicit extra
    /// group of their own. Applied to the simulator's `NetFaultPlane`.
    Partition {
        /// The host groups, by host name.
        groups: Vec<Vec<String>>,
    },
    /// Remove every active network fault (partitions, link faults, gray
    /// nodes).
    Heal,
    /// Degrade one *directed* link `from → to` (asymmetric faults need two
    /// entries). Probabilities are per message; every probabilistic decision
    /// draws from the deterministic simulation RNG.
    LinkFault {
        /// Sending host name.
        from: String,
        /// Receiving host name.
        to: String,
        /// Probability in `[0,1]` that a message is dropped.
        drop_prob: f64,
        /// Probability in `[0,1]` that a message is delivered twice.
        dup_prob: f64,
        /// Extra uniform-random delay bound (ns) applied *outside* the FIFO
        /// discipline, so delayed messages can overtake later ones.
        reorder_ns: u64,
        /// Probability in `[0,1]` that a message is corrupted in flight.
        /// The simulator models the receiver's checksum discarding the
        /// frame, so a corrupted message is counted and dropped.
        corrupt_prob: f64,
        /// Fixed extra latency (ns) added to every message on the link.
        extra_latency_ns: u64,
    },
    /// Make one host "gray": every message into or out of it is slowed by
    /// the given multiplier (≥ 1.0).
    GrayNode {
        /// The slow host's name.
        host: String,
        /// Delay multiplier applied to messages touching the host.
        slowdown: f64,
    },
    /// An application-defined effect identified by name.
    Custom(String),
}

impl FaultAction {
    /// Whether this action targets the network fault plane (the sim-only
    /// variants [`Partition`](Self::Partition), [`Heal`](Self::Heal),
    /// [`LinkFault`](Self::LinkFault), [`GrayNode`](Self::GrayNode)).
    pub fn is_net(&self) -> bool {
        matches!(
            self,
            FaultAction::Partition { .. }
                | FaultAction::Heal
                | FaultAction::LinkFault { .. }
                | FaultAction::GrayNode { .. }
        )
    }
}

/// A table-driven probe: maps fault names to [`FaultAction`]s.
///
/// # Examples
///
/// ```
/// use loki_core::probe::{ActionProbe, FaultAction};
///
/// let probe = ActionProbe::new()
///     .on("bfault1", FaultAction::CrashNode)
///     .on("slow", FaultAction::HangNode { duration_ns: 1_000_000 });
/// assert_eq!(probe.action_for("bfault1"), Some(&FaultAction::CrashNode));
/// // Unmapped faults are the application's to handle.
/// assert_eq!(probe.action_for("x"), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ActionProbe {
    actions: HashMap<String, FaultAction>,
}

impl ActionProbe {
    /// Creates an empty table.
    pub fn new() -> Self {
        ActionProbe::default()
    }

    /// Maps `fault` to `action`.
    pub fn on(mut self, fault: &str, action: FaultAction) -> Self {
        self.actions.insert(fault.to_owned(), action);
        self
    }

    /// The action configured for `fault`, if any.
    pub fn action_for(&self, fault: &str) -> Option<&FaultAction> {
        self.actions.get(fault)
    }

    /// Whether the table maps no fault names at all. Apps that rely on a
    /// default action (e.g. "unmapped means crash") check this to decide
    /// whether an unmapped name is policy or a likely misspelling worth a
    /// warning.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Iterates over the configured `(fault name, action)` pairs in
    /// unspecified order (writers sort before emitting).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FaultAction)> {
        self.actions.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_probe_lookup() {
        let p = ActionProbe::new()
            .on("crash", FaultAction::CrashNode)
            .on("drop", FaultAction::DropMessages { count: 3 });
        assert_eq!(p.action_for("crash"), Some(&FaultAction::CrashNode));
        assert_eq!(
            p.action_for("drop"),
            Some(&FaultAction::DropMessages { count: 3 })
        );
        assert_eq!(p.action_for("missing"), None);
    }

    #[test]
    fn net_variants_classify_as_net() {
        assert!(FaultAction::Heal.is_net());
        assert!(FaultAction::Partition { groups: vec![] }.is_net());
        assert!(FaultAction::GrayNode {
            host: "h".into(),
            slowdown: 2.0
        }
        .is_net());
        assert!(FaultAction::LinkFault {
            from: "a".into(),
            to: "b".into(),
            drop_prob: 0.1,
            dup_prob: 0.0,
            reorder_ns: 0,
            corrupt_prob: 0.0,
            extra_latency_ns: 0,
        }
        .is_net());
        assert!(!FaultAction::CrashNode.is_net());
        assert!(!FaultAction::Custom("x".into()).is_net());
    }

    #[test]
    fn probe_emptiness_and_iteration() {
        let empty = ActionProbe::new();
        assert!(empty.is_empty());
        assert_eq!(empty.iter().count(), 0);
        let p = ActionProbe::new()
            .on("a", FaultAction::CrashNode)
            .on("b", FaultAction::Heal);
        assert!(!p.is_empty());
        let mut names: Vec<&str> = p.iter().map(|(n, _)| n).collect();
        names.sort_unstable();
        assert_eq!(names, ["a", "b"]);
    }
}
