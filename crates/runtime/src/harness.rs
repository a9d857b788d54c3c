//! The experiment harness: runs studies on the deterministic simulation.
//!
//! One experiment (§2.3) = pre-sync mini-phase → runtime phase (daemons +
//! nodes until completion or timeout) → post-sync mini-phase. The harness
//! assembles the resulting [`ExperimentData`] — local timelines plus sync
//! samples — which feeds the analysis phase.
//!
//! A campaign runs one way: the streaming [`CampaignPipeline`], on a
//! caller-runs, work-stealing worker pool that contains per-experiment
//! failures and commits results in experiment order. It analyzes each
//! experiment on the worker that ran it and drops the raw
//! [`ExperimentData`] on the spot, so campaign memory stays O(workers)
//! instead of O(experiments); a caller that needs raw data takes what it
//! needs through [`CampaignPipeline::run_tapped_with_workers`]'s tap.
//! [`run_experiment`] runs a single experiment on a fresh world — the
//! replay primitive.
//!
//! This file holds [`run_experiment`] and the types every part shares.
//! The rest is one concern per file: `config` (the harness configuration
//! and its checks), `script` (how one experiment is scripted on a world:
//! the sync mini-phases, the runtime phase and the assembly of its data),
//! `driver` (one worker's claim-and-run loop) and `pipeline` (the
//! campaign pipeline: the pool, the hand-off and the in-order sink).

use crate::daemons::{ExpCtx, RtActor};
use crate::messages::RtMsg;
use crate::node::AppFactory;
use crate::wiring::Wiring;
use loki_core::campaign::{ExperimentData, HostSync};
use loki_core::ids::HostId;
use loki_core::study::Study;
use loki_sim::engine::{Simulation, WorldConfig};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod config;
mod driver;
mod pipeline;
mod script;
#[cfg(test)]
mod tests;

pub use config::{CampaignError, SimHarnessConfig};
pub use pipeline::{CampaignPipeline, PipelineSummary};

/// Runs one experiment of `study` on a *fresh* simulated world and returns
/// its raw data: the replay primitive (experiment `k` of a campaign is
/// `run_experiment(.., k)`, byte for byte), and the reference the test
/// suites hold the campaign driver's reset-reused worlds against. A
/// misconfiguration comes back as a typed [`CampaignError`], like from the
/// campaign entry points.
pub fn run_experiment(
    study: &Arc<Study>,
    factory: AppFactory,
    cfg: &SimHarnessConfig,
    experiment: u32,
) -> Result<ExperimentData, CampaignError> {
    let sim_study = SimStudy::new(study, &factory, cfg)?;
    let mut sim = Simulation::closed(sim_study.world.clone(), 0);
    Ok(sim_study.run_one(&mut sim, experiment, &mut None))
}

/// A world of the runtime: the engine over the runtime's closed actor set.
type World = Simulation<RtMsg, RtActor>;

/// One study compiled for the simulation: the shared immutable
/// [`WorldConfig`] (`Arc`-shared by every world of the study, across
/// workers) plus everything needed to script an experiment on any world.
/// The world's host table is the study run's: every [`HostId`] an
/// experiment records is the id of the simulated host it ran on.
///
/// An experiment has one *driven* phase: [`SimStudy::begin_with`] resets a
/// world to the experiment's seed, plays the pre-sync mini-phase in closed form
/// ([`Simulation::run_exchanges`]) and spawns the runtime daemons and nodes;
/// once the world's event queue has drained, [`SimStudy::on_drained`] plays the
/// post-sync mini-phase and assembles the [`ExperimentData`].
/// [`SimStudy::run_one`] is that sequence, and the only way an experiment runs:
/// [`run_experiment`] calls it on a fresh world,
/// [`drive_chunked`](driver::drive_chunked) (behind every campaign) on a
/// worker's reset-reused one — byte-identical, because a reset world replays
/// exactly like a fresh one.
struct SimStudy<'a> {
    study: &'a Arc<Study>,
    factory: &'a AppFactory,
    cfg: &'a SimHarnessConfig,
    world: Arc<WorldConfig>,
    reference: HostId,
    /// The calibrated hosts — every host but the reference — in
    /// configuration order: the initiators of both sync mini-phases.
    initiators: Vec<HostId>,
    /// Who the long-lived runtime actors are and where the node file's
    /// machines start: the same for every experiment of the study.
    wiring: Arc<Wiring>,
}

/// The per-experiment state riding alongside a world: the samples of both
/// sync mini-phases, which only the harness touches, plus the single
/// shared [`ExpCtx`] the runtime actors write into.
///
/// Everything drains (in deterministic order) into [`ExperimentData`] at
/// assembly, so a script's context is empty again when its experiment finishes
/// — [`drive_chunked`](driver::drive_chunked) recycles the whole script for the
/// next experiment, keeping the context's `Rc` block, its stores' capacities,
/// and its pooled actors instead of reallocating them; the finished data's
/// timeline shells and sync runs come back to it after analysis. Drain orders
/// are index-determined and lookups are key-addressed, so recycling is
/// unobservable in results.
struct ExpScript {
    experiment: u32,
    /// Both mini-phases' runs, as [`SimStudy::sync_phase`] leaves them;
    /// between experiments, the last experiment's runs awaiting reuse.
    pre_sync: Vec<HostSync>,
    post_sync: Vec<HostSync>,
    ctx: Rc<ExpCtx>,
}

impl Drop for ExpScript {
    fn drop(&mut self) {
        // Pooled actors hold `Rc<ExpCtx>` while the pool lives *inside*
        // the context — clear the pool here or the cycle leaks the context.
        self.ctx.pool.clear();
    }
}

/// Cross-worker accumulator for the counters reported in [`PipelineSummary`].
/// Workers absorb each experiment context's cheap `Cell` counters once, when
/// the context retires, and add their events once, when
/// [`drive_chunked`](driver::drive_chunked) ends — not per experiment.
#[derive(Default)]
struct PoolStats {
    actor_reuses: AtomicU64,
    timeline_reuses: AtomicU64,
    events: AtomicU64,
    /// Worlds rebuilt fresh after a failed experiment (bumped at
    /// quarantine time, when the poisoned context retires early).
    quarantined: AtomicU64,
}

impl PoolStats {
    fn absorb(&self, ctx: &ExpCtx) {
        self.actor_reuses
            .fetch_add(ctx.pool.reuses(), Ordering::Relaxed);
        self.timeline_reuses
            .fetch_add(ctx.store.shell_reuses(), Ordering::Relaxed);
    }
}
