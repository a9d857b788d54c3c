//! How one experiment is scripted on a world: [`SimStudy`]'s reset, the
//! pre- and post-sync mini-phases, the runtime phase's spawns and the
//! assembly of the experiment's data.

use super::{CampaignError, ExpScript, SimHarnessConfig, SimStudy, World};
use crate::daemons::{ExpCtx, RtActor, Saboteur};
use crate::messages::NotifyRouting;
use crate::node::AppFactory;
use crate::wiring::Wiring;
use loki_core::campaign::{ExperimentData, ExperimentEnd, ExperimentFailure, HostSync, Warning};
use loki_core::ids::HostId;
use loki_core::study::Study;
use loki_sim::engine::{BudgetExceeded, DuplicateHost, WorldConfig};
use std::rc::Rc;
use std::sync::Arc;

impl<'a> SimStudy<'a> {
    /// Compiles `cfg` into the shared world description and wiring. This is the
    /// config check both entry points —
    /// [`run_experiment`](super::run_experiment) and the campaign driver — run
    /// before any experiment (and any worker) starts: an empty list, a
    /// duplicate name, a machine of `study` placed on a host the list lacks, or
    /// a `kill_daemon` host index past the list is a [`CampaignError::Hosts`],
    /// and an invalid restart policy a [`CampaignError::Restart`].
    pub(super) fn new(
        study: &'a Arc<Study>,
        factory: &'a AppFactory,
        cfg: &'a SimHarnessConfig,
    ) -> Result<Self, CampaignError> {
        let invalid =
            |what: String| CampaignError::Hosts(format!("loki: invalid harness config: {what}"));
        let mut world = WorldConfig::new();
        world.set_network(cfg.network);
        for host in &cfg.hosts {
            if let Err(DuplicateHost { name }) = world.add_host(host.clone()) {
                return Err(invalid(format!("duplicate host name {name:?}")));
            }
        }
        let reference = cfg
            .reference_host()
            .and_then(|name| world.find_host(name))
            .ok_or_else(|| {
                CampaignError::Hosts("loki: harness config needs at least one host".to_owned())
            })?;
        let mut placements = Vec::new();
        for (sm, host) in &study.placements {
            if let Some(host) = host.as_deref() {
                let idx = world
                    .find_host(host)
                    .ok_or_else(|| invalid(format!("placement on unknown host `{host}`")))?;
                placements.push((*sm, idx));
            }
        }
        if let Some((host, _)) = cfg.kill_daemon {
            if host as usize >= cfg.hosts.len() {
                return Err(invalid(format!(
                    "kill_daemon names host index {host}, but there are {} hosts",
                    cfg.hosts.len()
                )));
            }
        }
        if let Some(policy) = &cfg.restart {
            policy.validate()?;
        }
        let initiators = world
            .symbols()
            .ids()
            .filter(|&host| host != reference)
            .collect();
        Ok(SimStudy {
            study,
            factory,
            cfg,
            world: Arc::new(world),
            reference,
            initiators,
            wiring: Arc::new(Wiring::new(
                cfg.hosts.len(),
                cfg.routing,
                cfg.restart.is_some(),
                placements.into_boxed_slice(),
            )),
        })
    }

    /// Rewinds `sim` to experiment `experiment`'s seed, plays the pre-sync
    /// mini-phase and — unless that already tripped a budget — spawns the
    /// runtime phase. The caller drives the world until it drains, then
    /// calls [`SimStudy::on_drained`].
    ///
    /// Recycles a finished experiment's script when one is available: the
    /// context's `Rc` block, store capacities, and pooled actors
    /// survive, the *contents* are reset (an aborted experiment can leave
    /// directory entries behind).
    fn begin_with(
        &self,
        sim: &mut World,
        experiment: u32,
        recycled: Option<ExpScript>,
    ) -> ExpScript {
        sim.reset(self.cfg.seed.wrapping_add(experiment as u64));
        // Arm the deterministic experiment budgets (`reset` disarmed the
        // recycled world's). The trip point depends only on the event
        // stream, which depends only on `(seed, experiment)`.
        sim.set_budget(self.cfg.max_virtual_time, self.cfg.max_events);
        let mut script = match recycled {
            Some(mut script) => {
                script.experiment = experiment;
                script.ctx.directory.clear();
                script
            }
            None => ExpScript {
                experiment,
                pre_sync: Vec::new(),
                post_sync: Vec::new(),
                ctx: Rc::new(ExpCtx::new(
                    self.study.clone(),
                    self.world.symbols().clone(),
                    self.factory.clone(),
                    self.cfg.routing,
                    self.wiring.clone(),
                )),
            },
        };
        self.sync_phase(sim, &mut script.pre_sync);
        if sim.budget_exceeded().is_none() {
            self.spawn_runtime(sim, &script);
        }
        script
    }

    /// Finishes the experiment of a drained world: files its actors into
    /// the pool, plays the post-sync mini-phase and assembles the data. A
    /// tripped budget reports the world as drained with events still
    /// pending — the experiment then ends right where it tripped, as a
    /// typed failure. The campaign driver quarantines such a world
    /// afterwards, together with its script and pool, so neither the
    /// undelivered events nor the actors still alive in it can leak into
    /// another experiment.
    fn on_drained(&self, sim: &mut World, script: &mut ExpScript) -> ExperimentData {
        // A drained world's actors are all dead by now: the central daemon
        // kills the supervisor and the daemons, then exits, and every node
        // has exited or been killed.
        for actor in sim.take_actors() {
            script.ctx.pool.recycle(actor);
        }
        if sim.budget_exceeded().is_none() {
            // The post-sync mini-phase runs on the injector's own
            // (healthy) network: drop whatever faults the experiment left
            // armed. Belt to the central daemon's braces — it already
            // heals on every teardown path.
            sim.clear_net_faults();
            self.sync_phase(sim, &mut script.post_sync);
        } else {
            // No post-sync phase: drop the recycled runs' stale samples.
            script.post_sync.clear();
        }
        if let Some(exceeded) = sim.budget_exceeded() {
            let failure = match exceeded {
                BudgetExceeded::VirtualTime => ExperimentFailure::BudgetVirtualTime,
                BudgetExceeded::Events => ExperimentFailure::BudgetEvents,
            };
            let ctx = &script.ctx;
            ctx.control.mark(ExperimentEnd::Failed(failure));
            ctx.warn(Warning::BudgetTrip {
                failure,
                events: sim.events_processed(),
                at_ns: sim.now(),
            });
        }
        self.assemble(script)
    }

    /// Runs one experiment to completion on `sim`, recycling the script
    /// in `slot` (if any) and leaving the experiment's own there — also
    /// when the engine unwinds under it, so the caller can still retire it.
    pub(super) fn run_one(
        &self,
        sim: &mut World,
        experiment: u32,
        slot: &mut Option<ExpScript>,
    ) -> ExperimentData {
        let recycled = slot.take();
        let script = slot.insert(self.begin_with(sim, experiment, recycled));
        sim.run();
        self.on_drained(sim, script)
    }

    /// Plays one sync mini-phase (§2.5/§5.7) on the drained world into
    /// `runs`: every calibrated host exchanges `sync_rounds` ping/echo
    /// rounds with the reference host, each round's three timestamps going
    /// to that host's run as two samples. The phase runs on an otherwise
    /// idle system (messages are exchanged before and after the
    /// experiment), so endpoints are dispatched without scheduling delay.
    ///
    /// `runs` comes in holding a finished experiment's runs (or nothing)
    /// and leaves holding one run per initiator that got a round, in
    /// host-id order.
    pub(super) fn sync_phase(&self, sim: &mut World, runs: &mut Vec<HostSync>) {
        // The hosts are assigned right below; the placeholder never shows.
        runs.resize_with(self.initiators.len(), || HostSync {
            host: self.reference,
            samples: Vec::new(),
        });
        for (run, &host) in runs.iter_mut().zip(&self.initiators) {
            run.host = host;
            run.samples.clear();
        }
        sim.set_sched_enabled(false);
        sim.run_exchanges(
            self.reference,
            &self.initiators,
            self.cfg.sync_rounds,
            self.cfg.sync_interval_ns,
            |round| {
                runs[round.initiator].push_round(round.ping_sent, round.echoed, round.echo_received)
            },
        );
        sim.set_sched_enabled(true);
        runs.retain(|run| !run.samples.is_empty());
    }

    /// Spawns the runtime phase: local daemons per the routing design,
    /// optional supervisor, the central daemon, and the optional saboteur,
    /// each at the id the study's [`Wiring`] gave it.
    fn spawn_runtime(&self, sim: &mut World, script: &ExpScript) {
        let ref_host = self.reference;
        let ctx = &script.ctx;
        match self.cfg.routing {
            NotifyRouting::Centralized => {
                // One global daemon, placed on the reference host.
                let d = sim.spawn(ref_host, ctx.pooled_daemon(ref_host));
                assert_eq!(d, self.wiring.daemon_for(ref_host));
            }
            _ => {
                for host in self.world.symbols().ids() {
                    let d = sim.spawn(host, ctx.pooled_daemon(host));
                    assert_eq!(d, self.wiring.daemon_for(host));
                }
            }
        }

        if let Some(policy) = self.cfg.restart {
            let supervisor = sim.spawn(ref_host, ctx.pooled_supervisor(policy));
            assert_eq!(Some(supervisor), self.wiring.supervisor());
        }

        let central = sim.spawn(
            ref_host,
            ctx.pooled_central(self.cfg.timeout_ns, 100_000_000), // 100 ms shutdown grace
        );
        assert_eq!(central, self.wiring.central());

        if let Some((host, after_ns)) = self.cfg.kill_daemon {
            let victim = self.wiring.daemon_for(HostId::from_raw(host));
            let saboteur = Box::new(Saboteur { victim, after_ns });
            sim.spawn(ref_host, RtActor::Saboteur(saboteur));
        }
    }

    /// Packs a finished experiment's stores and sync runs into
    /// [`ExperimentData`]. Its end is the one the control block took: a
    /// recorded containment failure trumps every other end — a run that
    /// panicked *and* "completed" during teardown is still a failed run.
    fn assemble(&self, script: &mut ExpScript) -> ExperimentData {
        let ctx = &script.ctx;
        ExperimentData {
            experiment: script.experiment,
            timelines: ctx.store.drain(),
            hosts: self.world.symbols().ids().collect(),
            reference_host: self.reference,
            symbols: self.world.symbols().clone(),
            pre_sync: std::mem::take(&mut script.pre_sync),
            post_sync: std::mem::take(&mut script.post_sync),
            end: ctx.control.take(),
            warnings: std::mem::take(&mut *ctx.warnings.borrow_mut()),
        }
    }

    /// A stand-in result for an experiment whose scaffolding died before
    /// (or instead of) assembling real data: an unwind escaped the
    /// engine or the harness itself. There are no timelines to report —
    /// only the typed end and the panic note.
    pub(super) fn failed_data(&self, experiment: u32, note: String) -> ExperimentData {
        ExperimentData {
            experiment,
            timelines: Vec::new(),
            hosts: self.world.symbols().ids().collect(),
            reference_host: self.reference,
            symbols: self.world.symbols().clone(),
            pre_sync: Vec::new(),
            post_sync: Vec::new(),
            end: ExperimentEnd::Failed(ExperimentFailure::Harness),
            warnings: vec![Warning::HarnessPanic { note }],
        }
    }
}
