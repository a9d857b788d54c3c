//! # loki-runtime
//!
//! The enhanced Loki runtime (thesis Chapter 3) on the deterministic
//! simulator:
//!
//! * [`node`] — the application-facing heart: the [`node::App`] trait
//!   applications implement (the probe interface), the [`node::Payload`]
//!   type, the [`node::NodeCtx`] handed to every callback, and the node
//!   actor that runs an application beside its Loki runtime (state
//!   machine + partial view + positive-edge fault parser + recorder +
//!   injection drain loop).
//! * [`daemons`] — local daemons (routing, watchdog, crash records,
//!   experiment-completion checks), the central daemon (startup, timeout,
//!   abort), and the restart supervisor (the system under study's recovery
//!   mechanism, supporting restart on a *different* host).
//! * [`harness`] — simulated campaigns on a parallel worker pool; returns
//!   [`loki_core::campaign::ExperimentData`] ready for the analysis phase —
//!   or, via the streaming [`harness::CampaignPipeline`], fuses execution
//!   with per-experiment analysis so raw data never outlives its worker.
//! * [`messages`] — the runtime's protocol and the §3.4.1 design-choice
//!   routing modes (through-daemons / direct / centralized) used by the
//!   design ablation.
//!
//! The synchronization mini-phases before and after each experiment have
//! no module of their own: the harness plays them in closed form inside
//! the engine ([`loki_sim::engine::Simulation::run_exchanges`]) and files
//! each round's timestamps into [`store::SyncCollector`].
//!
//! The runtime communicates exclusively through simulated messages with
//! realistic scheduling and link delays; the shared stores in [`store`]
//! model the thesis's NFS-mounted timeline files, not a covert channel.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod contain;
pub mod daemons;
pub mod harness;
pub mod messages;
pub mod node;
pub mod store;
pub mod wiring;

pub use daemons::{RestartPlacement, RestartPolicy};
pub use harness::{
    run_experiment, run_study, CampaignError, CampaignPipeline, PipelineSummary, SimHarnessConfig,
};
pub use messages::{NotifyRouting, RtMsg};
pub use node::{App, AppFactory, AppTimer, NodeCtx, Payload};
