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

use crate::daemons::{
    reuse_or_box, ActorHull, CentralDaemon, ExpCtx, LocalDaemon, RestartPolicy, Supervisor,
};
use crate::messages::{NotifyRouting, RtMsg};
use crate::node::AppFactory;
use loki_analysis::{analyze_one, AnalysisOptions, AnalyzedExperiment};
use loki_clock::params::fastest_reference;
use loki_core::campaign::{ExperimentData, ExperimentEnd, ExperimentFailure, HostSync, Warning};
use loki_core::ids::{HostId, SymbolTable};
use loki_core::study::Study;
use loki_sim::config::{HostConfig, NetworkConfig};
use loki_sim::engine::{BudgetExceeded, HostId as SimHostId, Simulation, WorldConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// A campaign misconfiguration, detected before any experiment runs.
///
/// The entry points ([`run_experiment`], [`CampaignPipeline::run`] and
/// [`CampaignPipeline::run_tapped_with_workers`]) return these instead of
/// panicking, so a campaign driver — a CLI loading a hand-written campaign
/// file, say — can report the problem and keep going.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CampaignError {
    /// The host list is empty or invalid (duplicate names), or the study
    /// places a machine on a host the configuration does not have.
    Hosts(String),
    /// The worker-count configuration is invalid
    /// ([`SimHarnessConfig::workers`] / `LOKI_WORKERS`).
    Workers(String),
    /// The batch-size configuration is invalid
    /// ([`SimHarnessConfig::batch`] / `LOKI_BATCH`).
    Batch(String),
    /// The pipeline's analysis options are invalid: a degenerate analysis
    /// window ([`loki_analysis::GlobalOptions::validate`]) or an unusable
    /// sync β box or slack ([`loki_clock::sync::SyncOptions::validate`]).
    Analysis(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Hosts(m)
            | CampaignError::Workers(m)
            | CampaignError::Batch(m)
            | CampaignError::Analysis(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Configuration of the experiment harness.
#[derive(Clone, Debug)]
pub struct SimHarnessConfig {
    /// The simulated hosts. Their order defines host indices; placements in
    /// the study refer to these names.
    pub hosts: Vec<HostConfig>,
    /// Network latency models.
    pub network: NetworkConfig,
    /// Experiment timeout (central daemon aborts after this, §3.5.1).
    pub timeout_ns: u64,
    /// Rounds per sync mini-phase (each round yields two samples).
    pub sync_rounds: u32,
    /// Spacing between sync rounds.
    pub sync_interval_ns: u64,
    /// Notification routing design (§3.4.1).
    pub routing: NotifyRouting,
    /// Restart policy of the system under study, if any.
    pub restart: Option<RestartPolicy>,
    /// Fault injection on the *injector itself*: crash the local daemon of
    /// host index `.0` at simulation offset `.1` (ns) into the runtime
    /// phase. The central daemon must detect the abnormality and abort the
    /// experiment (§3.5.1).
    pub kill_daemon: Option<(u32, u64)>,
    /// Base RNG seed; experiment `k` of a study uses `seed + k`.
    pub seed: u64,
    /// Worker threads for [`CampaignPipeline::run`]
    /// ([`CampaignPipeline::run_tapped_with_workers`] takes its count as an
    /// argument instead): `Some(n)` forces `n` workers, the calling thread
    /// included (`Some(1)` runs sequentially on it); `None` uses the
    /// `LOKI_WORKERS` environment variable if set, otherwise the machine's
    /// available parallelism. `Some(0)` and unparseable `LOKI_WORKERS`
    /// values are rejected as [`CampaignError::Workers`] — a silent
    /// fallback would hide a misconfigured campaign. Simulation results
    /// are identical for every worker count — each experiment is fully
    /// determined by `(seed, experiment_index)`.
    pub workers: Option<usize>,
    /// Consecutive experiment indices a [`CampaignPipeline`] worker claims
    /// at a time; it runs them one after another on its one reset-reused
    /// world. `Some(k)` forces chunks of `k` (a chunk larger than the
    /// campaign is the campaign); `None` uses the `LOKI_BATCH`
    /// environment variable if set, otherwise 1. `Some(0)` and
    /// unparseable `LOKI_BATCH` values are rejected as
    /// [`CampaignError::Batch`], exactly like `workers`. Study results are
    /// byte-identical for every chunk size — it only changes which worker
    /// runs which index, and no workload measures a gain from it: the
    /// knob is slated for removal.
    pub batch: Option<usize>,
    /// Deterministic virtual-time budget: an experiment whose next event
    /// would be scheduled after this many simulated nanoseconds ends as
    /// [`ExperimentFailure::BudgetVirtualTime`] instead of running on. The
    /// trip point depends only on `(seed, experiment)` — never on worker
    /// count or batch size — so budgeted campaigns stay byte-identical
    /// across pool shapes. `None` (the default) disarms the budget
    /// entirely; a disarmed world pays one predictable branch per event.
    pub max_virtual_time: Option<u64>,
    /// Deterministic event-count budget: an experiment that has processed
    /// this many simulation events ends as
    /// [`ExperimentFailure::BudgetEvents`]. Counts every event of the
    /// experiment (sync mini-phases included); same determinism contract
    /// and default as [`SimHarnessConfig::max_virtual_time`].
    pub max_events: Option<u64>,
}

impl Default for SimHarnessConfig {
    fn default() -> Self {
        SimHarnessConfig {
            hosts: Vec::new(),
            network: NetworkConfig::default(),
            timeout_ns: 60_000_000_000, // 60 s
            sync_rounds: 20,
            sync_interval_ns: 2_000_000, // 2 ms
            routing: NotifyRouting::default(),
            restart: None,
            kill_daemon: None,
            seed: 0,
            workers: None,
            batch: None,
            max_virtual_time: None,
            max_events: None,
        }
    }
}

impl SimHarnessConfig {
    /// A convenient three-host cluster with distinct clock drifts, the
    /// usual setup of the thesis's example campaign (§5.3).
    pub fn three_hosts(seed: u64) -> Self {
        use loki_clock::params::ClockParams;
        SimHarnessConfig {
            hosts: vec![
                HostConfig::new("host1").clock(ClockParams::with_drift_ppm(0.0, 120.0)),
                HostConfig::new("host2").clock(ClockParams::with_drift_ppm(2e6, -35.0)),
                HostConfig::new("host3").clock(ClockParams::with_drift_ppm(5e5, 60.0)),
            ],
            seed,
            ..Default::default()
        }
    }

    /// The reference host for off-line synchronization: the fastest clock
    /// (§5.7); `None` when the host list is empty.
    pub fn reference_host(&self) -> Option<&str> {
        fastest_reference(self.hosts.iter().map(|h| (h.name.as_str(), &h.clock)))
    }

    /// Builds the study-run [`SymbolTable`]: every host interned in
    /// configuration order, so [`HostId`]s are dense, deterministic, and
    /// double as simulation host indices. The campaign pipeline builds
    /// this once per study and `Arc`-shares it into every worker;
    /// per-experiment data then carries ids, not strings.
    pub fn symbols(&self) -> Arc<SymbolTable> {
        Arc::new(SymbolTable::for_hosts(self.hosts.iter().map(|h| &h.name)))
    }
}

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
    validate_hosts(study, cfg)?;
    let symbols = cfg.symbols();
    let sim_study = SimStudy::new(study, &factory, cfg, &symbols);
    let mut sim = Simulation::with_config(sim_study.world.clone(), 0);
    Ok(sim_study.run_one(&mut sim, experiment, &mut None))
}

/// The host-list check both entry points — [`run_experiment`] and the
/// campaign driver — run before any experiment (and any worker) starts:
/// an empty list, a duplicate name, or a machine of `study` placed on a
/// host the list lacks.
fn validate_hosts(study: &Study, cfg: &SimHarnessConfig) -> Result<(), CampaignError> {
    let names: Vec<&str> = cfg.hosts.iter().map(|h| h.name.as_str()).collect();
    if names.is_empty() {
        return Err(CampaignError::Hosts(
            "loki: harness config needs at least one host".to_owned(),
        ));
    }
    for (idx, name) in names.iter().enumerate() {
        if names[..idx].contains(name) {
            return Err(CampaignError::Hosts(format!(
                "loki: invalid harness config: duplicate host name {name:?}"
            )));
        }
    }
    for (_, host) in &study.placements {
        if let Some(host) = host.as_deref().filter(|h| !names.contains(h)) {
            return Err(CampaignError::Hosts(format!(
                "loki: invalid harness config: placement on unknown host `{host}`"
            )));
        }
    }
    Ok(())
}

/// One study compiled for the simulation: the shared immutable
/// [`WorldConfig`] (`Arc`-shared by every world of the study, across
/// workers) plus everything needed to script an experiment on any world.
///
/// An experiment has one *driven* phase: [`SimStudy::begin_with`] resets a
/// world to the experiment's seed, plays the pre-sync mini-phase in closed
/// form ([`Simulation::run_exchanges`]) and spawns the runtime daemons and
/// nodes; once the world's event queue has drained,
/// [`SimStudy::on_drained`] plays the post-sync mini-phase and assembles
/// the [`ExperimentData`]. [`SimStudy::run_one`] is that sequence, and the
/// only way an experiment runs: [`run_experiment`] calls it on a fresh
/// world, [`drive_chunked`] (behind every campaign) on a worker's
/// reset-reused one — byte-identical, because a reset world replays
/// exactly like a fresh one.
struct SimStudy<'a> {
    study: &'a Arc<Study>,
    factory: &'a AppFactory,
    cfg: &'a SimHarnessConfig,
    symbols: &'a Arc<SymbolTable>,
    world: Arc<WorldConfig>,
    ref_idx: usize,
    /// The calibrated hosts — every host but the reference — in
    /// configuration order: the initiators of both sync mini-phases.
    initiators: Vec<SimHostId>,
}

/// The per-experiment state riding alongside a world: the pre-sync
/// samples, held until assembly, plus the single shared [`ExpCtx`] the
/// runtime actors write into.
///
/// Every store drains (in deterministic order) into [`ExperimentData`] at
/// assembly, so a script's context is empty again when its experiment
/// finishes — [`drive_chunked`] recycles the whole script for the next
/// experiment, keeping the context's `Rc` block, its stores' capacities,
/// and its pooled actor hulls instead of reallocating them. Drain orders
/// are index-determined and lookups are key-addressed, so recycling is
/// unobservable in results.
struct ExpScript {
    experiment: u32,
    pre_sync: Vec<HostSync>,
    ctx: Rc<ExpCtx>,
}

impl Drop for ExpScript {
    fn drop(&mut self) {
        // Pooled hulls hold `Rc<ExpCtx>` while the pool lives *inside* the
        // context — clear the pool here or the cycle leaks the context.
        self.ctx.pool.clear();
    }
}

impl<'a> SimStudy<'a> {
    /// Compiles `cfg` — which has passed [`validate_hosts`] — into the shared
    /// world description.
    fn new(
        study: &'a Arc<Study>,
        factory: &'a AppFactory,
        cfg: &'a SimHarnessConfig,
        symbols: &'a Arc<SymbolTable>,
    ) -> Self {
        let mut world = WorldConfig::new();
        world.set_network(cfg.network);
        for host in &cfg.hosts {
            world
                .add_host(host.clone())
                .expect("host names validated unique");
        }
        let reference = cfg.reference_host().expect("host list validated non-empty");
        let ref_idx = cfg
            .hosts
            .iter()
            .position(|h| h.name == reference)
            .expect("reference host exists");
        let initiators = (0..cfg.hosts.len())
            .filter(|&idx| idx != ref_idx)
            .map(|idx| SimHostId(idx as u32))
            .collect();
        SimStudy {
            study,
            factory,
            cfg,
            symbols,
            world: Arc::new(world),
            ref_idx,
            initiators,
        }
    }

    /// Rewinds `sim` to experiment `experiment`'s seed, plays the pre-sync
    /// mini-phase and — unless that already tripped a budget — spawns the
    /// runtime phase. The caller drives the world until it drains, then
    /// calls [`SimStudy::on_drained`].
    ///
    /// Recycles a finished experiment's script when one is available: the
    /// context's `Rc` block, store capacities, and pooled actor hulls
    /// survive, the *contents* are reset (an aborted experiment can leave
    /// directory entries and control flags behind).
    fn begin_with(
        &self,
        sim: &mut Simulation<RtMsg>,
        experiment: u32,
        recycled: Option<ExpScript>,
    ) -> ExpScript {
        sim.reset(self.cfg.seed.wrapping_add(experiment as u64));
        // Arm the deterministic experiment budgets (`reset` disarmed the
        // recycled world's). The trip point depends only on the event
        // stream, which depends only on `(seed, experiment)`.
        sim.set_budget(self.cfg.max_virtual_time, self.cfg.max_events);
        // Park killed actors' boxes for hull recycling instead of
        // dropping them (drained into the pool when the world drains).
        sim.set_reclaim_dead(true);
        let mut script = match recycled {
            Some(mut script) => {
                script.experiment = experiment;
                script.ctx.control.reset();
                script.ctx.directory.clear();
                script.ctx.wiring.reset();
                script
            }
            None => ExpScript {
                experiment,
                pre_sync: Vec::new(),
                ctx: Rc::new(ExpCtx::new(
                    self.study.clone(),
                    self.symbols.clone(),
                    self.factory.clone(),
                    self.cfg.routing,
                )),
            },
        };
        self.sync_phase(sim, &script.ctx);
        script.pre_sync = script.ctx.collector.drain();
        if sim.budget_exceeded().is_none() {
            self.spawn_runtime(sim, &script);
        }
        script
    }

    /// Finishes the experiment of a drained world: plays the post-sync
    /// mini-phase and assembles the data. A tripped budget reports the
    /// world as drained with events still pending — the experiment then
    /// ends right where it tripped, as a typed failure. The campaign
    /// driver quarantines such a world afterwards, so the undelivered
    /// events can never leak into another experiment.
    fn on_drained(&self, sim: &mut Simulation<RtMsg>, script: &mut ExpScript) -> ExperimentData {
        // Every actor killed during the runtime phase sits in the engine's
        // graveyard: file the corpses into the typed hull pool so the next
        // experiment respawns without boxing.
        for corpse in sim.drain_dead() {
            script.ctx.pool.recycle(corpse);
        }
        if sim.budget_exceeded().is_none() {
            // The post-sync mini-phase runs on the injector's own
            // (healthy) network: drop whatever faults the experiment left
            // armed. Belt to the central daemon's braces — it already
            // heals on every teardown path.
            sim.clear_net_faults();
            self.sync_phase(sim, &script.ctx);
        }
        let ctx = &script.ctx;
        let (events, now) = (sim.events_processed(), sim.now());
        if let Some(exceeded) = sim.budget_exceeded() {
            let failure = match exceeded {
                BudgetExceeded::VirtualTime => ExperimentFailure::BudgetVirtualTime,
                BudgetExceeded::Events => ExperimentFailure::BudgetEvents,
            };
            ctx.control.mark_failed(failure);
            ctx.warn(Warning::BudgetTrip {
                failure,
                events,
                at_ns: now,
            });
        }
        ctx.events.set(ctx.events.get() + events);
        self.assemble(script)
    }

    /// Runs one experiment to completion on `sim`, recycling the script
    /// in `slot` (if any) and leaving the experiment's own there — also
    /// when the engine unwinds under it, so the caller can still retire it.
    fn run_one(
        &self,
        sim: &mut Simulation<RtMsg>,
        experiment: u32,
        slot: &mut Option<ExpScript>,
    ) -> ExperimentData {
        let recycled = slot.take();
        let script = slot.insert(self.begin_with(sim, experiment, recycled));
        sim.run();
        self.on_drained(sim, script)
    }

    /// Plays one sync mini-phase (§2.5/§5.7) on the drained world: every
    /// calibrated host exchanges `sync_rounds` ping/echo rounds with the
    /// reference host, each round's three timestamps going to the
    /// collector as two samples. The phase runs on an otherwise idle
    /// system (messages are exchanged before and after the experiment),
    /// so endpoints are dispatched without scheduling delay.
    fn sync_phase(&self, sim: &mut Simulation<RtMsg>, ctx: &ExpCtx) {
        sim.set_sched_enabled(false);
        sim.run_exchanges(
            SimHostId(self.ref_idx as u32),
            &self.initiators,
            self.cfg.sync_rounds,
            self.cfg.sync_interval_ns,
            |round| {
                // Sim host indices double as study-run host ids.
                let host = HostId::from_raw(self.initiators[round.initiator].0);
                ctx.collector
                    .push_round(host, round.ping_sent, round.echoed, round.echo_received);
            },
        );
        sim.set_sched_enabled(true);
    }

    /// Spawns the runtime phase: local daemons per the routing design,
    /// optional supervisor, the central daemon, and the optional saboteur.
    fn spawn_runtime(&self, sim: &mut Simulation<RtMsg>, script: &ExpScript) {
        let ref_host = SimHostId(self.ref_idx as u32);
        let ctx = &script.ctx;

        match self.cfg.routing {
            NotifyRouting::Centralized => {
                // One global daemon, placed on the reference host.
                let d = sim.spawn(ref_host, pooled_daemon(ctx, self.ref_idx as u32));
                ctx.wiring
                    .fill_daemons((0..self.cfg.hosts.len()).map(|_| d));
            }
            _ => {
                ctx.wiring.fill_daemons(
                    (0..self.cfg.hosts.len()).map(|idx| {
                        sim.spawn(SimHostId(idx as u32), pooled_daemon(ctx, idx as u32))
                    }),
                );
            }
        }

        if let Some(policy) = self.cfg.restart {
            let supervisor = sim.spawn(ref_host, pooled_supervisor(ctx, policy));
            ctx.wiring.set_supervisor(supervisor);
        }

        let central = sim.spawn(
            ref_host,
            pooled_central(ctx, self.cfg.timeout_ns, 100_000_000), // 100 ms shutdown grace
        );
        ctx.wiring.set_central(central);

        if let Some((host, after_ns)) = self.cfg.kill_daemon {
            let victim = ctx.wiring.daemon_for(host as usize);
            sim.spawn(
                ref_host,
                Box::new(crate::daemons::Saboteur { victim, after_ns }),
            );
        }
    }

    /// Packs a finished experiment's stores into [`ExperimentData`]. A
    /// recorded containment failure trumps every other end — a run that
    /// panicked *and* "completed" during teardown is still a failed run.
    fn assemble(&self, script: &mut ExpScript) -> ExperimentData {
        let ctx = &script.ctx;
        let post_sync = ctx.collector.drain();
        let end = if let Some(failure) = ctx.control.failure() {
            ExperimentEnd::Failed(failure)
        } else if ctx.control.completed() {
            ExperimentEnd::Completed
        } else if ctx.control.timed_out() {
            ExperimentEnd::TimedOut
        } else {
            ExperimentEnd::Aborted
        };
        ExperimentData {
            study: self.study.name.clone(),
            experiment: script.experiment,
            timelines: ctx.store.drain(),
            hosts: self.symbols.host_ids().collect(),
            reference_host: HostId::from_raw(self.ref_idx as u32),
            symbols: self.symbols.clone(),
            pre_sync: std::mem::take(&mut script.pre_sync),
            post_sync,
            end,
            warnings: std::mem::take(&mut *ctx.warnings.borrow_mut()),
        }
    }

    /// A stand-in result for an experiment whose scaffolding died before
    /// (or instead of) assembling real data: an unwind escaped the
    /// engine or the harness itself. There are no timelines to report —
    /// only the typed end and the panic note.
    fn failed_data(&self, experiment: u32, note: String) -> ExperimentData {
        ExperimentData {
            study: self.study.name.clone(),
            experiment,
            timelines: Vec::new(),
            hosts: self.symbols.host_ids().collect(),
            reference_host: HostId::from_raw(self.ref_idx as u32),
            symbols: self.symbols.clone(),
            pre_sync: Vec::new(),
            post_sync: Vec::new(),
            end: ExperimentEnd::Failed(ExperimentFailure::Harness),
            warnings: vec![Warning::HarnessPanic { note }],
        }
    }
}

/// A (possibly pooled) local-daemon hull for `my_host`.
fn pooled_daemon(ctx: &Rc<ExpCtx>, my_host: u32) -> ActorHull {
    reuse_or_box(
        ctx.pool.take_daemon(),
        my_host,
        LocalDaemon::reinit,
        |my_host| LocalDaemon::new(ctx.clone(), my_host),
    )
}

/// A (possibly pooled) central-daemon hull.
fn pooled_central(ctx: &Rc<ExpCtx>, timeout_ns: u64, grace_ns: u64) -> ActorHull {
    reuse_or_box(
        ctx.pool.take_central(),
        (timeout_ns, grace_ns),
        |c: &mut CentralDaemon, (timeout_ns, grace_ns)| c.reinit(timeout_ns, grace_ns),
        |(timeout_ns, grace_ns)| CentralDaemon::new(ctx.clone(), timeout_ns, grace_ns),
    )
}

/// A (possibly pooled) supervisor hull.
fn pooled_supervisor(ctx: &Rc<ExpCtx>, policy: RestartPolicy) -> ActorHull {
    reuse_or_box(
        ctx.pool.take_supervisor(),
        policy,
        Supervisor::reinit,
        |policy| Supervisor::new(ctx.clone(), policy),
    )
}

/// Resolves the worker count for a study: explicit config, then the
/// `LOKI_WORKERS` environment variable, then the machine's available
/// parallelism. Never more workers than experiments.
///
/// `Some(0)` and an unparseable `LOKI_WORKERS` resolve to
/// [`CampaignError::Workers`] — a silent fallback would run a
/// misconfigured campaign with a surprise worker count.
fn resolve_workers(cfg: &SimHarnessConfig, experiments: u32) -> Result<usize, CampaignError> {
    let env = std::env::var("LOKI_WORKERS").ok();
    worker_count(cfg.workers, env.as_deref(), experiments).map_err(CampaignError::Workers)
}

/// The pure worker-count resolution; see [`resolve_workers`].
fn worker_count(
    explicit: Option<usize>,
    env: Option<&str>,
    experiments: u32,
) -> Result<usize, String> {
    let requested = pool_knob("worker count", "workers", "LOKI_WORKERS", explicit, env)?
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    Ok(requested.clamp(1, experiments.max(1) as usize))
}

/// Resolves the per-worker batch size of a simulated campaign: explicit
/// config, then the `LOKI_BATCH` environment variable, then 1.
///
/// `Some(0)` and an unparseable `LOKI_BATCH` resolve to
/// [`CampaignError::Batch`] — the same loud-failure policy as
/// [`resolve_workers`].
fn resolve_batch(cfg: &SimHarnessConfig) -> Result<usize, CampaignError> {
    let env = std::env::var("LOKI_BATCH").ok();
    batch_size(cfg.batch, env.as_deref()).map_err(CampaignError::Batch)
}

/// The pure batch-size resolution; see [`resolve_batch`].
fn batch_size(explicit: Option<usize>, env: Option<&str>) -> Result<usize, String> {
    Ok(pool_knob("batch size", "batch", "LOKI_BATCH", explicit, env)?.unwrap_or(1))
}

/// What both pool-shape knobs have in common: the explicit config value
/// wins, then the environment variable `var`; `None` leaves the default to
/// the caller. A zero or an unparseable variable is an error.
fn pool_knob(
    what: &str,
    field: &str,
    var: &str,
    explicit: Option<usize>,
    env: Option<&str>,
) -> Result<Option<usize>, String> {
    match (explicit, env) {
        (Some(0), _) => Err(format!(
            "loki: {what} must be at least 1 (config has `{field}: Some(0)`); \
             use `None` for the default"
        )),
        (Some(n), _) => Ok(Some(n)),
        (None, Some(raw)) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!(
                "loki: {var} must be a positive integer, got {raw:?}"
            )),
        },
        (None, None) => Ok(None),
    }
}

/// Aggregate counters of one [`CampaignPipeline`] run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineSummary {
    /// Experiments executed.
    pub experiments: u32,
    /// Experiments that completed normally ([`ExperimentEnd::Completed`]).
    pub completed: usize,
    /// Experiments that ended as [`ExperimentEnd::Failed`] — contained
    /// application panics, harness errors, and budget trips. Failed
    /// experiments still reach the sink (typed, in index order); they are
    /// never counted accepted.
    pub failed: usize,
    /// Worlds rebuilt from scratch after a failed experiment: the world
    /// slot *and* its pooled scaffolding (actor hulls, timeline shells,
    /// the experiment context) are discarded rather than recycled, so
    /// whatever state a panic or budget trip left behind cannot reach a
    /// later experiment.
    pub quarantined_worlds: usize,
    /// Experiments whose injections were provably correct (usable for
    /// measures).
    pub accepted: usize,
    /// Total fault injections recorded across all experiments.
    pub injections: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Consecutive indices a worker claims at a time, as configured
    /// ([`SimHarnessConfig::batch`]).
    pub batch: usize,
    /// Peak number of in-flight experiments (raw [`ExperimentData`] plus
    /// live world state) inside the pipeline — at most `workers`, by
    /// construction: a worker holds one experiment from claim to the end
    /// of its analysis. This is the bounded retention the streaming
    /// design exists for; tests assert on it.
    pub peak_raw_retained: usize,
    /// High-water mark of the reorder buffer: compact results that had
    /// finished but were still waiting for a lower index to commit.
    pub peak_reorder_depth: usize,
    /// Actor spawns served from the recycled-hull pool instead of a fresh
    /// box.
    pub actor_reuses: u64,
    /// Timeline shells begun on a recycled capacity-retaining buffer
    /// instead of a fresh allocation.
    pub timeline_reuses: u64,
    /// Simulation events processed across all experiments; the all-in
    /// ns/event bench divides by this.
    pub events: u64,
    /// Vestigial: always 0. Results are plain owned data and nothing
    /// recycles them; the name stays only because the campaign benchmark
    /// reads it, and goes with [`SimHarnessConfig::batch`].
    pub result_shell_reuses: u64,
    /// Vestigial name (kept for the campaign benchmark, like
    /// [`PipelineSummary::result_shell_reuses`]): global timelines built,
    /// i.e. results that reached the sink with `global.is_some()` — one
    /// per completed, analyzable experiment, whatever the sink does with
    /// them.
    pub result_shell_allocs: u64,
}

/// The campaign driver's reorder buffer: holds finished experiments whose
/// predecessors are still running, releasing them in strictly increasing
/// index order. A sorted `Vec` (descending, so the next index to commit
/// sits at the tail) instead of a `BTreeMap`: the buffer holds only what
/// sibling workers finish while a lower index is in flight, and the `Vec`
/// reuses its capacity across the whole campaign where a map allocates a
/// node per experiment — visible overhead when experiments are tiny.
struct Reorder<V> {
    pending: Vec<(u32, V)>,
    /// Most entries ever buffered at once
    /// ([`PipelineSummary::peak_reorder_depth`]).
    peak: usize,
}

impl<V> Reorder<V> {
    fn new() -> Self {
        Reorder {
            pending: Vec::new(),
            peak: 0,
        }
    }

    /// Buffers the result of experiment `k`.
    fn insert(&mut self, k: u32, value: V) {
        let at = self.pending.partition_point(|&(index, _)| index > k);
        self.pending.insert(at, (k, value));
        self.peak = self.peak.max(self.pending.len());
    }

    /// Removes and returns experiment `next`'s result, if buffered.
    fn pop(&mut self, next: u32) -> Option<V> {
        match self.pending.last() {
            Some(&(index, _)) if index == next => self.pending.pop().map(|(_, v)| v),
            _ => None,
        }
    }
}

/// The campaign driver's retention gauge: counts in-flight experiments and
/// remembers the high-water mark that
/// [`PipelineSummary::peak_raw_retained`] reports. Plain statistics —
/// they publish no other data, and read-modify-writes on one atomic are
/// totally ordered under any ordering — so `Relaxed` throughout; the
/// scope join orders the final `peak` read after every worker.
struct RetentionGauge {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl RetentionGauge {
    fn new() -> Self {
        RetentionGauge {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn inc(&self) {
        let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn dec(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }

    fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Cross-worker accumulator for the recycling counters reported in
/// [`PipelineSummary`]. Workers absorb each experiment context's cheap
/// `Cell` counters once, when the context retires at the end of
/// [`drive_chunked`] — not per experiment.
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
        self.events.fetch_add(ctx.events.get(), Ordering::Relaxed);
    }
}

/// One worker's experiment loop: claim a chunk
/// of `chunk` consecutive experiment indices from the shared counter, run
/// each through [`SimStudy::run_one`] on the worker's one reset-reused
/// world, hand it to `process`, repeat until the claim counter passes
/// `experiments`.
///
/// The world's slabs and the experiment script persist across
/// experiments — after the first one a worker's steady state allocates
/// almost nothing per experiment. `process` returns `false` to stop the
/// worker early (the caller hung up); the rest of the chunk is abandoned
/// without claiming more.
///
/// # Failure containment
///
/// An experiment that ends as [`ExperimentEnd::Failed`] — a contained
/// application panic, a budget trip — or whose scaffolding unwinds out of
/// the engine entirely (a harness error, reported to `process` as
/// [`ExperimentFailure::Harness`] with no context) poisons the world and
/// its pooled scaffolding. Both are **quarantined**: the script (context,
/// hull pool, store shells) is dropped instead of recycled, and the world
/// is rebuilt fresh from the shared [`WorldConfig`]. The claim counter
/// hands out each index exactly once and a fresh world runs like a reset
/// one, so the surviving experiments' results are byte-identical to a
/// failure-free campaign's.
fn drive_chunked(
    sim_study: &SimStudy<'_>,
    experiments: u32,
    chunk: u32,
    next_claim: &AtomicU32,
    gauge: &RetentionGauge,
    stats: &PoolStats,
    mut process: impl FnMut(u32, ExperimentData, Option<&ExpCtx>) -> bool,
) {
    let fresh_world = || Simulation::with_config(sim_study.world.clone(), 0);
    let mut sim = fresh_world();
    // The last experiment's (drained-empty) script, recycled by the next
    // one: in steady state a worker reallocates none of the per-experiment
    // scaffolding.
    let mut script: Option<ExpScript> = None;
    'run: loop {
        // Relaxed suffices: the claim is the only shared state, and the
        // result hand-off orders everything else.
        let base = next_claim.fetch_add(chunk, Ordering::Relaxed);
        if base >= experiments {
            break 'run;
        }
        for k in base..experiments.min(base.saturating_add(chunk)) {
            gauge.inc();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                sim_study.run_one(&mut sim, k, &mut script)
            }));
            // An unwind leaves the experiment without data — hand on a
            // typed stand-in — and without a context to reclaim into.
            let ctx = script.as_ref().filter(|_| outcome.is_ok()).map(|s| &*s.ctx);
            let data = outcome.unwrap_or_else(|payload| {
                sim_study.failed_data(k, crate::contain::panic_note(payload.as_ref()))
            });
            let failed = matches!(data.end, ExperimentEnd::Failed(_));
            let keep_going = process(k, data, ctx);
            if failed {
                // An unwind out of `begin_with` leaves no script behind,
                // only the half-loaded world.
                if let Some(poisoned) = script.take() {
                    stats.absorb(&poisoned.ctx);
                }
                sim = fresh_world();
                stats.quarantined.fetch_add(1, Ordering::Relaxed);
            }
            if !keep_going {
                break 'run;
            }
        }
    }
    // Fold the retiring context's recycling counters into the shared
    // stats (quarantined contexts were absorbed when they retired).
    if let Some(script) = &script {
        stats.absorb(&script.ctx);
    }
}

/// The streaming campaign pipeline: execution, global-timeline
/// construction, and verdict checking fused into a single per-experiment
/// flow on the campaign driver's worker pool — the one way a campaign
/// runs.
///
/// Each worker owns **one world** and runs its
/// experiments on it one after another, reusing the world — and its
/// event/timer slab allocations — across experiments via
/// [`loki_sim::engine::Simulation::reset`]. The moment an experiment
/// finishes, the worker analyzes it in place (`loki_analysis::analyze_one`:
/// clock calibration → `make_global` → `check_experiment`) and **drops
/// the raw [`ExperimentData`]**. Only the compact [`AnalyzedExperiment`]
/// crosses the (bounded) channel to the caller, so campaign memory is
/// O(workers) in raw experiments and analysis overlaps execution
/// instead of trailing it as a batch phase.
///
/// # Scheduling and determinism contract
///
/// Workers claim experiments dynamically from a shared atomic index
/// counter (work stealing, in chunks of [`SimHarnessConfig::batch`]
/// consecutive indices): whichever worker finishes first takes the next
/// unstarted experiments, so a heavy-tailed study — one slow experiment
/// among cheap ones — does not idle the rest of the pool. Results are still merged **by experiment index**: the
/// sink closure is invoked exactly once per experiment, in strictly
/// increasing index order `0, 1, …, experiments − 1`, whatever the worker
/// count or completion order (out-of-order compact results wait in a
/// reorder buffer; raw data never crosses a channel). Experiment `k` is
/// fully determined by `(cfg.seed, k)` — a reset world replays exactly like a fresh one — so
/// everything the sink observes — timelines, verdicts, measure folds — is
/// byte-identical across worker counts *and chunk sizes* and identical to
/// analyzing [`run_experiment`]'s fresh-world data one experiment at a
/// time.
///
/// # Caller-runs pool
///
/// `workers − 1` threads are spawned; the calling thread is the last
/// worker *and* the only thread that touches the sink. It puts its own
/// finished results straight into the reorder buffer, drains the channel
/// after each of them, and blocks on the channel only once every index is
/// claimed — W workers are W threads, and no result hand-off wakes a
/// parked coordinator. The channel holds `2 × workers × chunk` results,
/// so a spawned worker parks only behind a slow sink. The trade-off: the
/// caller drains at its own experiment boundaries only, so a very long
/// experiment *on the caller* can fill the channel and park the other
/// workers until it ends — memory stays bounded in that case, where a
/// full-time coordinator's reorder buffer would grow without bound.
///
/// # Examples
///
/// ```no_run
/// use loki_runtime::harness::{CampaignPipeline, SimHarnessConfig};
/// # fn demo(study: std::sync::Arc<loki_core::study::Study>,
/// #         factory: loki_runtime::AppFactory) {
/// let pipeline = CampaignPipeline::new(study, factory, SimHarnessConfig::three_hosts(7));
/// let mut accepted = 0;
/// let summary = pipeline
///     .run(1_000, |analyzed| {
///         // Called in experiment order; raw data is already gone.
///         if analyzed.accepted() {
///             accepted += 1;
///         }
///     })
///     .expect("valid campaign config");
/// assert!(summary.peak_raw_retained <= summary.workers);
/// # }
/// ```
pub struct CampaignPipeline {
    study: Arc<Study>,
    factory: AppFactory,
    cfg: SimHarnessConfig,
    analysis: AnalysisOptions,
}

impl CampaignPipeline {
    /// Creates a pipeline over `study` with default [`AnalysisOptions`].
    pub fn new(study: Arc<Study>, factory: AppFactory, cfg: SimHarnessConfig) -> Self {
        CampaignPipeline {
            study,
            factory,
            cfg,
            analysis: AnalysisOptions::default(),
        }
    }

    /// Sets the analysis options (builder-style).
    pub fn analysis(mut self, analysis: AnalysisOptions) -> Self {
        self.analysis = analysis;
        self
    }

    /// The harness configuration the pipeline runs with.
    pub fn config(&self) -> &SimHarnessConfig {
        &self.cfg
    }

    /// Runs `experiments` experiments through the fused pipeline, feeding
    /// each compact result to `sink` in experiment-index order, on the
    /// worker count [`SimHarnessConfig::workers`] resolves to.
    ///
    /// Campaign misconfigurations — an invalid worker or batch
    /// configuration (see [`SimHarnessConfig::workers`] /
    /// [`SimHarnessConfig::batch`]), an invalid host list, or invalid
    /// analysis options (a degenerate analysis window, an unusable sync
    /// β box or slack) — come back as a typed [`CampaignError`] before any
    /// experiment runs.
    pub fn run(
        &self,
        experiments: u32,
        mut sink: impl FnMut(AnalyzedExperiment),
    ) -> Result<PipelineSummary, CampaignError> {
        let workers = resolve_workers(&self.cfg, experiments)?;
        self.run_tapped_with_workers(experiments, workers, |_| (), |analyzed, ()| sink(analyzed))
    }

    /// The fully general pipeline entry point: [`CampaignPipeline::run`]
    /// with an explicit worker count, the calling thread included
    /// (`workers == 1` spawns nothing; `workers == 0` is
    /// [`CampaignError::Workers`]), and a raw-data *tap*. `tap` runs
    /// inside the worker on the raw [`ExperimentData`] (right before it is
    /// dropped) and its output rides along to the sink. This keeps
    /// campaigns that need a raw extract — e.g. notification latencies
    /// from record timestamps — on the bounded-memory path; a tap of
    /// `ExperimentData::clone` hands the sink every experiment's raw data.
    ///
    /// Returns a typed [`CampaignError`] on any campaign
    /// misconfiguration; still panics if the *sink* panics (it runs on the
    /// calling thread; the spawned workers then fail their next send and
    /// exit). Panics in the experiment itself and in its analysis are
    /// contained per experiment ([`ExperimentEnd::Failed`]); `tap` is user
    /// code run on the worker outside that containment (no `T` could be
    /// made up for its result), so a panicking `tap` propagates like a
    /// panicking sink — out of the calling thread directly, or through
    /// the worker scope when it ran on a spawned worker.
    pub fn run_tapped_with_workers<T: Send>(
        &self,
        experiments: u32,
        workers: usize,
        tap: impl Fn(&ExperimentData) -> T + Sync,
        mut sink: impl FnMut(AnalyzedExperiment, T),
    ) -> Result<PipelineSummary, CampaignError> {
        let invalid = |e: &dyn std::fmt::Display| {
            CampaignError::Analysis(format!("loki: invalid analysis options: {e}"))
        };
        let global = &self.analysis.global;
        global.validate().map_err(|e| invalid(&e))?;
        global.sync.validate().map_err(|e| invalid(&e))?;
        if workers == 0 {
            return Err(CampaignError::Workers(
                "loki: worker count must be at least 1".to_owned(),
            ));
        }
        validate_hosts(&self.study, &self.cfg)?;
        let workers = workers.clamp(1, experiments.max(1) as usize);
        let batch = resolve_batch(&self.cfg)?;
        let symbols = self.cfg.symbols();
        let sim_study = SimStudy::new(&self.study, &self.factory, &self.cfg, &symbols);
        // A chunk larger than the campaign is the campaign: clamped like the
        // worker count, so the claim step fits the `u32` index space and the
        // channel bound below cannot outgrow `2 × workers × experiments`.
        let chunk = batch.clamp(1, experiments.max(1) as usize) as u32;
        let gauge = RetentionGauge::new();
        let stats = PoolStats::default();
        let next_claim = AtomicU32::new(0);

        // The back half of the fused flow, on the worker that ran the
        // experiment: analyze → tap → reclaim the raw data's buffers into
        // the worker's context (if the engine did not unwind) → drop; the
        // retention gauge brackets it from claim to here. Analysis runs
        // contained: a panicking analysis (conceivable on a failed
        // experiment's partial timelines) downgrades that one result to a
        // harness failure instead of killing the campaign.
        let finish = |mut data: ExperimentData, ctx: Option<&ExpCtx>| -> (AnalyzedExperiment, T) {
            let analyzed = catch_unwind(AssertUnwindSafe(|| {
                analyze_one(&self.study, &data, &self.analysis)
            }))
            .unwrap_or_else(|_| AnalyzedExperiment {
                experiment: data.experiment,
                end: ExperimentEnd::Failed(ExperimentFailure::Harness),
                injections: data.total_injections(),
                global: None,
                verdict: None,
                error: None,
            });
            let tapped = tap(&data);
            if let Some(ctx) = ctx {
                ctx.store.reclaim(std::mem::take(&mut data.timelines));
                ctx.collector.reclaim(std::mem::take(&mut data.pre_sync));
                ctx.collector.reclaim(std::mem::take(&mut data.post_sync));
            }
            gauge.dec();
            (analyzed, tapped)
        };
        // One worker's body. `emit` returns `false` once nobody will commit
        // the result (the caller unwound): stop claiming and bail out.
        let work = |emit: &mut dyn FnMut(u32, (AnalyzedExperiment, T)) -> bool| {
            drive_chunked(
                &sim_study,
                experiments,
                chunk,
                &next_claim,
                &gauge,
                &stats,
                |k, data, ctx| emit(k, finish(data, ctx)),
            )
        };

        let mut summary = PipelineSummary {
            experiments,
            workers,
            batch,
            ..Default::default()
        };
        // `delivered` doubles as the next index to commit.
        let mut delivered = 0u32;
        let mut reorder: Reorder<(AnalyzedExperiment, T)> = Reorder::new();
        std::thread::scope(|scope| {
            // Two chunks per worker: what the others finish while the caller
            // runs a chunk of its own fits.
            let (tx, rx) = mpsc::sync_channel(2 * workers * chunk as usize);
            for _ in 1..workers {
                let (tx, work) = (tx.clone(), &work);
                scope.spawn(move || work(&mut |k, result| tx.send((k, result)).is_ok()));
            }
            // All senders are worker-owned; the final `recv` loop must
            // observe disconnect once they finish or die.
            drop(tx);
            // Buffers one result, hands whatever became committable to the
            // sink, and returns the next index to commit.
            let mut commit = |k: u32, result| {
                reorder.insert(k, result);
                while let Some((analyzed, tapped)) = reorder.pop(delivered) {
                    summary.completed += usize::from(analyzed.end == ExperimentEnd::Completed);
                    summary.accepted += usize::from(analyzed.accepted());
                    summary.failed += usize::from(analyzed.end.failure().is_some());
                    summary.injections += analyzed.injections;
                    summary.result_shell_allocs += u64::from(analyzed.global.is_some());
                    sink(analyzed, tapped);
                    delivered += 1;
                }
                delivered
            };
            // Claims are `chunk`-aligned, so `k / chunk` names the chunk
            // the caller is driving. While the next index to commit is an
            // unfinished experiment of that very chunk nothing in the
            // channel can commit: leave it there, as back-pressure, rather
            // than pile it into the reorder buffer.
            work(&mut |k, result| {
                let mut next = commit(k, result);
                while next / chunk != k / chunk {
                    match rx.try_recv() {
                        Ok((k, result)) => next = commit(k, result),
                        Err(_) => break,
                    }
                }
                true
            });
            // Every index is claimed; what is still missing is in flight
            // on a spawned worker. The channel disconnects when the last
            // of them finishes — or dies, and the scope propagates its
            // panic.
            while let Ok((k, result)) = rx.recv() {
                commit(k, result);
            }
        });
        // After the scope: a worker panic has already propagated, so an
        // undelivered experiment here is a genuine driver bug.
        assert_eq!(delivered, experiments, "campaign driver lost experiments");
        Ok(PipelineSummary {
            peak_raw_retained: gauge.peak(),
            peak_reorder_depth: reorder.peak,
            actor_reuses: stats.actor_reuses.load(Ordering::Relaxed),
            timeline_reuses: stats.timeline_reuses.load(Ordering::Relaxed),
            events: stats.events.load(Ordering::Relaxed),
            quarantined_worlds: stats.quarantined.load(Ordering::Relaxed) as usize,
            ..summary
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_prefers_explicit_config() {
        assert_eq!(worker_count(Some(3), Some("7"), 100), Ok(3));
        // Clamped to the experiment count.
        assert_eq!(worker_count(Some(64), None, 4), Ok(4));
        assert_eq!(worker_count(Some(2), None, 0), Ok(1));
    }

    #[test]
    fn worker_count_rejects_zero_config() {
        let err = worker_count(Some(0), None, 8).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn worker_count_parses_env() {
        assert_eq!(worker_count(None, Some("5"), 100), Ok(5));
        assert_eq!(worker_count(None, Some(" 2 "), 100), Ok(2));
    }

    #[test]
    fn worker_count_rejects_bad_env() {
        for bad in ["0", "-1", "many", "", "3.5"] {
            let err = worker_count(None, Some(bad), 8).unwrap_err();
            assert!(err.contains("LOKI_WORKERS"), "{bad:?}: {err}");
            assert!(err.contains(bad), "{bad:?}: {err}");
        }
    }

    #[test]
    fn worker_count_defaults_to_available_parallelism() {
        let n = worker_count(None, None, 1_000_000).unwrap();
        assert!(n >= 1);
    }

    #[test]
    fn batch_size_prefers_explicit_config() {
        assert_eq!(batch_size(Some(4), Some("7")), Ok(4));
        assert_eq!(batch_size(Some(1), None), Ok(1));
    }

    #[test]
    fn batch_size_rejects_zero_config() {
        let err = batch_size(Some(0), None).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        assert!(err.contains("batch"), "{err}");
    }

    #[test]
    fn batch_size_parses_env_and_defaults_to_one() {
        assert_eq!(batch_size(None, Some("8")), Ok(8));
        assert_eq!(batch_size(None, Some(" 2 ")), Ok(2));
        assert_eq!(batch_size(None, None), Ok(1));
    }

    #[test]
    fn batch_size_rejects_bad_env() {
        for bad in ["0", "-1", "many", "", "3.5"] {
            let err = batch_size(None, Some(bad)).unwrap_err();
            assert!(err.contains("LOKI_BATCH"), "{bad:?}: {err}");
            assert!(err.contains(bad), "{bad:?}: {err}");
        }
    }

    #[test]
    fn a_config_without_hosts_has_no_reference_host() {
        assert_eq!(SimHarnessConfig::default().reference_host(), None);
        assert_eq!(
            SimHarnessConfig::three_hosts(0).reference_host(),
            Some("host1")
        );
    }
}
