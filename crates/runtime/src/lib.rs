//! # loki-runtime
//!
//! The enhanced Loki runtime (thesis Chapter 3), built around a portable
//! node core so one application definition runs on every execution
//! backend:
//!
//! * [`app`] — the backend-agnostic heart: the [`app::App`] trait
//!   applications implement (the probe interface), the unified
//!   [`app::Payload`] type, the [`app::NodeCtx`] handed to every callback,
//!   and the shared node core (state machine + partial view + positive-edge
//!   fault parser + recorder + injection drain loop).
//! * [`node`] — the simulation-backend adapter: embeds the node core into
//!   a deterministic simulated actor.
//! * [`thread_backend`] — the real-concurrency adapter: embeds the same
//!   core into one OS thread per node with virtual per-host clocks.
//! * [`daemons`] — local daemons (routing, watchdog, crash records,
//!   experiment-completion checks), the central daemon (startup, timeout,
//!   abort), and the restart supervisor (the system under study's recovery
//!   mechanism, supporting restart on a *different* host).
//! * [`harness`] — simulated campaigns on a parallel worker pool; returns
//!   [`loki_core::campaign::ExperimentData`] ready for the analysis phase —
//!   or, via the streaming [`harness::CampaignPipeline`], fuses execution
//!   with per-experiment analysis so raw data never outlives its worker.
//!   The thread backend runs one experiment per
//!   [`thread_backend::run_thread_experiment`] call, configured from the
//!   same [`harness::SimHarnessConfig`].
//! * [`messages`] — the simulation-backend protocol and the §3.4.1
//!   design-choice routing modes (through-daemons / direct / centralized)
//!   used by the design ablation.
//!
//! The synchronization mini-phases before and after each experiment have
//! no module of their own: on the simulation backend the harness plays
//! them in closed form inside the engine
//! ([`loki_sim::engine::Simulation::run_exchanges`]) and files each
//! round's timestamps into [`store::SyncCollector`]; the thread backend
//! runs them as a plain loop.
//!
//! The simulation backend communicates exclusively through simulated
//! messages with realistic scheduling and link delays; the shared stores in
//! [`store`] model the thesis's NFS-mounted timeline files, not a covert
//! channel. The thread backend exchanges real channel messages between OS
//! threads. Both produce the same `ExperimentData`, and both share the
//! injection semantics of the node core by construction.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod app;
pub mod contain;
pub mod daemons;
pub mod harness;
pub mod messages;
pub mod node;
pub mod store;
pub mod thread_backend;
pub mod wiring;

pub use app::{App, AppFactory, AppTimer, NodeCtx, Payload};
pub use daemons::{RestartPlacement, RestartPolicy};
pub use harness::{
    run_experiment, run_study, CampaignError, CampaignPipeline, PipelineSummary, SimHarnessConfig,
};
pub use messages::{NotifyRouting, RtMsg};
pub use thread_backend::{run_thread_experiment, ThreadHarnessConfig};
