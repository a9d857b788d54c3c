//! Trace: the optional record of spawns, deaths and deliveries that
//! debugging and the engine's tests read ([`Simulation::trace`]).

use super::{ActorId, Dispatch, DownReason, Simulation};
use loki_core::ids::HostId;

/// One entry of the simulation trace (for debugging and tests).
#[derive(Clone, Debug)]
pub enum TraceEntry {
    /// An actor was spawned on a host.
    Spawn {
        /// Simulation time (physical ns).
        time: u64,
        /// The new actor.
        actor: ActorId,
        /// Its host.
        host: HostId,
    },
    /// An actor died.
    Down {
        /// Simulation time (physical ns).
        time: u64,
        /// The dead actor.
        actor: ActorId,
        /// Crash or clean exit.
        reason: DownReason,
    },
    /// A message was delivered.
    Deliver {
        /// Simulation time (physical ns).
        time: u64,
        /// Sender.
        from: ActorId,
        /// Receiver.
        to: ActorId,
    },
}

impl<M: 'static, A: Dispatch<M>> Simulation<M, A> {
    /// Enables trace collection ([`Simulation::trace`]), off by default
    /// and after every [`Simulation::reset`].
    pub fn enable_trace(&mut self) {
        self.trace_enabled = true;
    }

    /// Disables trace collection and drops what was collected.
    pub fn disable_trace(&mut self) {
        self.trace_enabled = false;
        self.trace.clear();
    }

    /// The collected trace: empty unless [`Simulation::enable_trace`] was
    /// called.
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }
}
