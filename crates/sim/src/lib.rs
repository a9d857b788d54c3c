//! # loki-sim
//!
//! Deterministic discrete-event simulation substrate for the Loki fault
//! injector. The thesis evaluated Loki on a cluster of Linux hosts; this
//! crate models exactly the aspects of that environment the evaluation
//! depends on:
//!
//! * **hosts** with independent, drifting virtual clocks
//!   ([`loki_clock::VirtualClock`]) read at a configurable granularity;
//! * an **OS scheduler** per host whose timeslice adds a dispatch delay to
//!   every message endpoint — the dominant cause of missed state-targeted
//!   injections (thesis §3.2.2, Figures 3.2/3.3);
//! * a **network** with IPC-like (~20 µs) same-host and TCP-like (~150 µs)
//!   cross-host latency (the figures of the §3.4.2 design comparison);
//! * **processes** (actors) that can crash, exit, watch one another, set
//!   timers, and spawn new processes — everything the Loki daemons and
//!   nodes need.
//!
//! Runs are exactly reproducible for a given seed.
//!
//! The event core underneath is hash-free and allocation-lean: see
//! [`queue`] for the index heap and the generation-stamped timer slab, and
//! the [`engine`] module docs for how the engine uses them.
//!
//! Campaigns that run many independent experiments share one immutable
//! [`engine::WorldConfig`] across all their simulations and reuse each
//! world — slabs and all — from one experiment to the next with
//! [`Simulation::reset`], which replays exactly like a fresh world.
//!
//! Clock-synchronization mini-phases — closed intervals of strictly
//! sequential ping/echo chains on a drained world — are fast-forwarded
//! rather than simulated actor by actor: see [`exchange`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod exchange;
pub mod netfault;
pub mod queue;

pub use config::{HostConfig, LatencyModel, NetworkConfig};
pub use engine::{
    Actor, ActorId, BudgetExceeded, Ctx, Dispatch, DownReason, DuplicateHost, Simulation, TimerId,
    TraceEntry, WorldConfig,
};
pub use exchange::ExchangeRound;
pub use netfault::{LinkFaultParams, NetFaultError, NetFaultPlane};
