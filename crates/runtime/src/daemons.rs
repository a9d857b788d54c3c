//! The Loki daemons: local daemons, the central daemon, and the restart
//! supervisor — plus the per-experiment context they all share.
//!
//! * A **local daemon** (§3.5.2) runs on every host: it registers local
//!   state machines, routes their notification messages (one message per
//!   destination host even for multiple recipients there), acts as watchdog
//!   — writing a crash record into a dead node's timeline and notifying the
//!   other daemons — and performs the local experiment-completion check.
//! * The **central daemon** (§3.5.1) starts the initial machines from the
//!   node file, aborts hung experiments after a timeout, detects daemon
//!   crashes, and declares the experiment complete when every local daemon
//!   reports completion.
//! * The **supervisor** stands in for the *reliable distributed system's*
//!   own recovery mechanism: the thesis's test application assumes crashed
//!   processes "can restart and join the system again" (§5.2); the
//!   supervisor implements that restart with a configurable policy,
//!   possibly on a different host (§3.6.3).
//!
//! Every runtime actor holds one [`Rc<ExpCtx>`]: the experiment's stores,
//! wiring, routing config, and actor pool behind a single refcount, so
//! handing the context to a freshly spawned node is one bump instead of
//! six. Daemon bookkeeping is dense — state machine ids are dense per
//! study, so membership and location tables are flat vectors indexed by
//! raw id, not hash maps.

use crate::harness::CampaignError;
use crate::messages::{NotifyRouting, RtMsg, SmTargets};
use crate::node::{AppFactory, NodeActor};
use crate::store::{ExperimentControl, NodeDirectory, TimelineStore};
use crate::wiring::Wiring;
use loki_core::campaign::{ExperimentEnd, Receiver, Warning};
use loki_core::ids::{EventId, HostId, SmId, StateId, SymbolTable};
use loki_core::recorder::{RecordKind, TimelineRecord};
use loki_core::study::Study;
use loki_sim::engine::{ActorId, Ctx, Dispatch, DownReason, TimerId};
use rand::Rng;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

/// The single shared per-experiment context (§3.5's shared runtime
/// configuration and storage, fused): every daemon and node of one
/// experiment holds one `Rc<ExpCtx>`, so cloning the context into a
/// spawned actor is a single refcount bump and every store access is one
/// pointer chase.
pub(crate) struct ExpCtx {
    /// The compiled study.
    pub study: Arc<Study>,
    /// The study run's host table: the world's, so every [`HostId`] here
    /// is a simulated host.
    pub symbols: Arc<SymbolTable>,
    /// Creates application halves for (re)started nodes.
    pub factory: AppFactory,
    /// Notification routing design (§3.4.1).
    pub routing: NotifyRouting,
    /// The "NFS-mounted" timeline storage.
    pub store: TimelineStore,
    /// Runtime warnings of the running experiment (see [`ExpCtx::warn`]).
    pub warnings: RefCell<Vec<Warning>>,
    /// How the experiment ended, as the central daemon, the nodes and
    /// the harness mark it.
    pub control: ExperimentControl,
    /// The application's name service.
    pub directory: NodeDirectory,
    /// Daemon/central/supervisor wiring and initial placements, shared by
    /// every experiment of the study.
    pub wiring: Arc<Wiring>,
    /// Finished experiments' actors, kept for reuse (see [`ActorPool`]).
    pub pool: ActorPool,
}

impl ExpCtx {
    /// Creates a fresh context for one experiment slot.
    pub fn new(
        study: Arc<Study>,
        symbols: Arc<SymbolTable>,
        factory: AppFactory,
        routing: NotifyRouting,
        wiring: Arc<Wiring>,
    ) -> Self {
        ExpCtx {
            study,
            symbols,
            factory,
            routing,
            store: TimelineStore::default(),
            warnings: RefCell::default(),
            control: ExperimentControl::default(),
            directory: NodeDirectory::default(),
            wiring,
            pool: ActorPool::default(),
        }
    }

    /// Records `warning` unless an equal one is already recorded in this
    /// experiment: once a machine is gone, every later notification aimed
    /// at it repeats the same warning.
    pub fn warn(&self, warning: Warning) {
        let mut warnings = self.warnings.borrow_mut();
        if !warnings.contains(&warning) {
            warnings.push(warning);
        }
    }
}

/// The runtime's closed set of actor kinds, as its world stores them.
/// Every variant is one box, so a slab slot is two words (checked below)
/// and a dispatch's take-and-restore moves a pointer, not an actor.
pub(crate) enum RtActor {
    Node(Box<NodeActor>),
    Daemon(Box<LocalDaemon>),
    Central(Box<CentralDaemon>),
    Supervisor(Box<Supervisor>),
    Saboteur(Box<Saboteur>),
}

const _: () = assert!(std::mem::size_of::<Option<RtActor>>() == 2 * std::mem::size_of::<usize>());

/// The context a runtime actor's callbacks receive.
pub(crate) type RtCtx<'a> = Ctx<'a, RtMsg, RtActor>;

impl Dispatch<RtMsg> for RtActor {
    fn on_start(&mut self, ctx: &mut RtCtx<'_>) {
        match self {
            RtActor::Node(node) => node.on_start(ctx),
            RtActor::Central(central) => central.on_start(ctx),
            RtActor::Saboteur(saboteur) => saboteur.on_start(ctx),
            RtActor::Daemon(_) | RtActor::Supervisor(_) => {}
        }
    }

    fn on_message(&mut self, ctx: &mut RtCtx<'_>, from: ActorId, msg: RtMsg) {
        match self {
            RtActor::Node(node) => node.on_message(ctx, msg),
            RtActor::Daemon(daemon) => daemon.on_message(ctx, from, msg),
            RtActor::Central(central) => central.on_message(ctx, from, msg),
            RtActor::Supervisor(supervisor) => supervisor.on_message(ctx, msg),
            RtActor::Saboteur(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut RtCtx<'_>, tag: u64) {
        match self {
            RtActor::Node(node) => node.on_timer(ctx, tag),
            RtActor::Central(central) => central.on_timer(ctx, tag),
            RtActor::Supervisor(supervisor) => supervisor.on_timer(ctx, tag),
            RtActor::Saboteur(saboteur) => saboteur.on_timer(ctx),
            RtActor::Daemon(_) => {}
        }
    }

    fn on_peer_down(&mut self, ctx: &mut RtCtx<'_>, peer: ActorId, reason: DownReason) {
        match self {
            RtActor::Daemon(daemon) => daemon.on_node_down(ctx, peer, reason),
            RtActor::Central(central) => central.on_daemon_down(ctx),
            RtActor::Node(_) | RtActor::Supervisor(_) | RtActor::Saboteur(_) => {}
        }
    }
}

/// Free-lists of finished experiments' actors, one per pooled kind: the
/// harness files a drained world's actors in here
/// ([`loki_sim::engine::Simulation::take_actors`]), and the spawn paths
/// re-initialize a pooled actor in place instead of boxing a new one. The
/// lists hold boxes because the box is what a spawn reuses.
#[allow(clippy::vec_box)]
#[derive(Default)]
pub(crate) struct ActorPool {
    nodes: RefCell<Vec<Box<NodeActor>>>,
    daemons: RefCell<Vec<Box<LocalDaemon>>>,
    centrals: RefCell<Vec<Box<CentralDaemon>>>,
    supervisors: RefCell<Vec<Box<Supervisor>>>,
    reuses: Cell<u64>,
}

impl ActorPool {
    /// Files an actor into its kind's free-list. The one-shot
    /// [`Saboteur`] is dropped — its box is not worth pooling.
    pub fn recycle(&self, actor: RtActor) {
        match actor {
            RtActor::Node(node) => self.nodes.borrow_mut().push(node),
            RtActor::Daemon(daemon) => self.daemons.borrow_mut().push(daemon),
            RtActor::Central(central) => self.centrals.borrow_mut().push(central),
            RtActor::Supervisor(supervisor) => self.supervisors.borrow_mut().push(supervisor),
            RtActor::Saboteur(_) => {}
        }
    }

    /// A pooled [`NodeActor`], if there is one — preferring the one that
    /// last embodied `prefer`, so its compiled fault set survives the
    /// re-initialization. Which one is handed out is unobservable
    /// (re-initialization fully resets per-incarnation state); the
    /// preference only decides how much of its storage is reusable.
    fn take_node(&self, prefer: SmId) -> Option<Box<NodeActor>> {
        let mut nodes = self.nodes.borrow_mut();
        let pick = nodes
            .iter()
            .rposition(|node| node.embodies() == prefer)
            .or_else(|| nodes.len().checked_sub(1))?;
        self.reuses.set(self.reuses.get() + 1);
        Some(nodes.swap_remove(pick))
    }

    /// The last actor pooled in `list`, re-initialized by `reinit`, or a
    /// new one from `new` when the list is empty.
    fn reuse<T>(
        &self,
        list: &RefCell<Vec<Box<T>>>,
        reinit: impl FnOnce(&mut T),
        new: impl FnOnce() -> T,
    ) -> Box<T> {
        let pooled = list.borrow_mut().pop();
        match pooled {
            Some(mut actor) => {
                self.reuses.set(self.reuses.get() + 1);
                reinit(&mut actor);
                actor
            }
            None => Box::new(new()),
        }
    }

    /// Number of spawns served from the pool (diagnostics).
    pub fn reuses(&self) -> u64 {
        self.reuses.get()
    }

    /// Drops every pooled actor. Pooled actors hold `Rc<ExpCtx>` and the
    /// pool lives *inside* the `ExpCtx`; the owner of the context must
    /// clear the pool when retiring it, or the cycle keeps the whole
    /// context alive.
    pub fn clear(&self) {
        self.nodes.borrow_mut().clear();
        self.daemons.borrow_mut().clear();
        self.centrals.borrow_mut().clear();
        self.supervisors.borrow_mut().clear();
    }
}

impl ExpCtx {
    /// A local daemon for `my_host`, pooled or new.
    pub fn pooled_daemon(self: &Rc<Self>, my_host: HostId) -> RtActor {
        RtActor::Daemon(self.pool.reuse(
            &self.pool.daemons,
            |daemon| daemon.reinit(my_host),
            || LocalDaemon::new(self.clone(), my_host),
        ))
    }

    /// The central daemon, pooled or new.
    pub fn pooled_central(self: &Rc<Self>, timeout_ns: u64, grace_ns: u64) -> RtActor {
        RtActor::Central(self.pool.reuse(
            &self.pool.centrals,
            |central| central.reinit(timeout_ns, grace_ns),
            || CentralDaemon::new(self.clone(), timeout_ns, grace_ns),
        ))
    }

    /// The restart supervisor, pooled or new.
    pub fn pooled_supervisor(self: &Rc<Self>, policy: RestartPolicy) -> RtActor {
        RtActor::Supervisor(self.pool.reuse(
            &self.pool.supervisors,
            |supervisor| supervisor.reinit(policy),
            || Supervisor::new(self.clone(), policy),
        ))
    }
}

/// The local daemon actor (one per host; one total in the centralized
/// design).
pub(crate) struct LocalDaemon {
    ctx: Rc<ExpCtx>,
    my_host: HostId,
    /// Nodes attached to this daemon, indexed by machine id.
    local_nodes: Vec<Option<ActorId>>,
    /// Reverse map for crash detection, indexed by actor id (grown
    /// lazily — actor ids are dense per experiment).
    node_of_actor: Vec<Option<SmId>>,
    /// Known location (`None` when unknown) of every machine, indexed by
    /// machine id.
    locations: Vec<Option<HostId>>,
    /// Machines believed to be executing anywhere in the system, indexed
    /// by machine id, with a live count so the completion check is O(1).
    alive: Vec<bool>,
    alive_count: usize,
    /// Scratch for the per-host notification fan-out, kept sorted by host
    /// (empty between messages; retained for its capacity).
    route_buf: Vec<(HostId, SmTargets)>,
    /// Scratch for the kill-all sweep (empty between messages; retained
    /// for its capacity).
    kill_buf: Vec<ActorId>,
    /// Whether any machine ever started (guards the end check).
    any_started: bool,
    /// Whether the end notice has been sent to the central daemon.
    end_sent: bool,
}

impl LocalDaemon {
    pub(crate) fn new(ctx: Rc<ExpCtx>, my_host: HostId) -> Self {
        let num_sms = ctx.study.sms.len();
        let mut daemon = LocalDaemon {
            ctx,
            my_host,
            local_nodes: vec![None; num_sms],
            node_of_actor: Vec::new(),
            locations: vec![None; num_sms],
            alive: vec![false; num_sms],
            alive_count: 0,
            route_buf: Vec::new(),
            kill_buf: Vec::new(),
            any_started: false,
            end_sent: false,
        };
        daemon.prime_locations();
        daemon
    }

    /// Resets a pooled daemon for the next experiment, keeping every
    /// vector's capacity (the tables' sizes are study-determined, so a
    /// recycled daemon allocates nothing).
    pub(crate) fn reinit(&mut self, my_host: HostId) {
        self.my_host = my_host;
        self.local_nodes.fill(None);
        self.node_of_actor.clear();
        self.locations.fill(None);
        self.alive.fill(false);
        self.alive_count = 0;
        self.route_buf.clear();
        self.kill_buf.clear();
        self.any_started = false;
        self.end_sent = false;
        self.prime_locations();
    }

    /// Initial placements are known to every daemon from the node file
    /// (§3.5.1), avoiding startup routing races.
    fn prime_locations(&mut self) {
        for &(sm, host) in self.ctx.wiring.placements() {
            self.locations[sm.raw() as usize] = Some(host);
        }
    }

    fn node_for(&self, actor: ActorId) -> Option<SmId> {
        self.node_of_actor.get(actor.0 as usize).copied().flatten()
    }

    fn set_node_for(&mut self, actor: ActorId, sm: SmId) {
        let idx = actor.0 as usize;
        if idx >= self.node_of_actor.len() {
            self.node_of_actor.resize(idx + 1, None);
        }
        self.node_of_actor[idx] = Some(sm);
    }

    fn mark_alive(&mut self, sm: SmId) {
        let slot = &mut self.alive[sm.raw() as usize];
        if !*slot {
            *slot = true;
            self.alive_count += 1;
        }
    }

    fn mark_dead(&mut self, sm: SmId) {
        let slot = &mut self.alive[sm.raw() as usize];
        if *slot {
            *slot = false;
            self.alive_count -= 1;
        }
    }

    fn broadcast_to_peers(&self, ctx: &mut RtCtx<'_>, msg: RtMsg) {
        let me = ctx.me();
        for &peer in self.ctx.wiring.unique() {
            if peer != me {
                ctx.send(peer, msg.clone());
            }
        }
    }

    /// Spawns a node for `sm` on host `host` (instructed by the central
    /// daemon or the supervisor), reusing a pooled one when available.
    fn start_node(&mut self, ctx: &mut RtCtx<'_>, sm: SmId, host: HostId) {
        let app = (self.ctx.factory)(&self.ctx.study, sm);
        let me = ctx.me();
        let node = match self.ctx.pool.take_node(sm) {
            Some(mut node) => {
                node.reinit(sm, me, app);
                node
            }
            None => Box::new(NodeActor::new(self.ctx.clone(), sm, me, app)),
        };
        let actor = ctx.spawn(host, RtActor::Node(node));
        ctx.watch(actor);
        self.local_nodes[sm.raw() as usize] = Some(actor);
        self.set_node_for(actor, sm);
        self.locations[sm.raw() as usize] = Some(host);
        self.mark_alive(sm);
        self.any_started = true;
    }

    /// Routes a notification to its target machines: local targets get a
    /// direct delivery; remote hosts get one `ForwardNotify` each (§3.6.1).
    ///
    /// The per-host fan-out fills a host-sorted scratch vector so the
    /// forwarding order — and with it the simulation's event sequence and
    /// RNG consumption — is deterministic (ascending host id, exactly
    /// the order the `BTreeMap` this replaced iterated in). A `HashMap`
    /// here made identically-seeded experiments diverge across processes
    /// and threads (`RandomState` differs per instance), which the
    /// parallel study executor turns from a latent into a permanent
    /// failure.
    fn route(
        &mut self,
        ctx: &mut RtCtx<'_>,
        from_sm: SmId,
        state: loki_core::ids::StateId,
        targets: SmTargets,
    ) {
        let mut per_host = std::mem::take(&mut self.route_buf);
        for target in targets {
            if let Some(actor) = self.local_nodes[target.raw() as usize] {
                ctx.send(actor, RtMsg::DeliverNotify { from_sm, state });
            } else {
                match self.locations[target.raw() as usize] {
                    Some(host) if host != self.my_host => {
                        match per_host.binary_search_by_key(&host, |&(h, _)| h) {
                            Ok(at) => per_host[at].1.push(target),
                            Err(at) => {
                                let mut targets = SmTargets::new();
                                targets.push(target);
                                per_host.insert(at, (host, targets));
                            }
                        }
                    }
                    // Unknown, or known-local but no live actor: the
                    // machine is gone.
                    _ => {
                        self.ctx.warn(Warning::DroppedNotification {
                            from: from_sm,
                            to: target,
                        });
                    }
                }
            }
        }
        for (host, targets) in per_host.drain(..) {
            let daemon = self.ctx.wiring.daemon_for(host);
            ctx.send(
                daemon,
                RtMsg::ForwardNotify {
                    from_sm,
                    state,
                    targets,
                },
            );
        }
        self.route_buf = per_host;
    }

    /// The local experiment-completion check (§3.5.2): complete when no
    /// machine is executing anywhere.
    fn check_experiment_end(&mut self, ctx: &mut RtCtx<'_>) {
        if self.any_started && self.alive_count == 0 && !self.end_sent {
            self.end_sent = true;
            ctx.send(self.ctx.wiring.central(), RtMsg::ExperimentEndNotice);
        }
    }

    /// Handles the death of one of this daemon's nodes.
    fn on_node_down(&mut self, ctx: &mut RtCtx<'_>, actor: ActorId, reason: DownReason) {
        let Some(sm) = self.node_for(actor) else {
            return;
        };
        self.node_of_actor[actor.0 as usize] = None;
        if self.local_nodes[sm.raw() as usize] == Some(actor) {
            self.local_nodes[sm.raw() as usize] = None;
        }
        self.ctx.directory.remove_if(sm, actor);
        self.mark_dead(sm);
        let crashed = reason == DownReason::Crash;
        if crashed {
            // Write the crash event and crash state into the node's local
            // timeline, timestamped with this daemon's (same-host) clock at
            // detection time (§3.6.2).
            let now = ctx.local_clock();
            let study = &self.ctx.study;
            self.ctx.store.with_mut(sm, |t| {
                t.records.push(TimelineRecord {
                    time: now,
                    kind: RecordKind::StateChange {
                        event: EventId::CRASH,
                        new_state: StateId::CRASH,
                    },
                });
            });
            // Deliver the CRASH state's notifications on the machine's
            // behalf (e.g. `state CRASH notify green yellow`, §5.3).
            let targets: SmTargets = study
                .machine(sm)
                .notify_list(StateId::CRASH)
                .iter()
                .copied()
                .collect();
            if !targets.is_empty() {
                self.route(ctx, sm, StateId::CRASH, targets);
            }
        }
        let host = self.my_host;
        self.broadcast_to_peers(ctx, RtMsg::NodeDown { sm, crashed, host });
        if let Some(supervisor) = self.ctx.wiring.supervisor() {
            ctx.send(supervisor, RtMsg::NodeDown { sm, crashed, host });
        }
        self.check_experiment_end(ctx);
    }

    fn on_message(&mut self, ctx: &mut RtCtx<'_>, from: ActorId, msg: RtMsg) {
        match msg {
            RtMsg::StartNode { sm, host } => {
                self.start_node(ctx, sm, host);
            }
            RtMsg::Register { sm, restarted } => {
                // A register from an actor that already died must be
                // ignored: its crash/exit has been (or will be) handled and
                // bookkeeping must not be resurrected. In the real runtime
                // the equivalent is the daemon finding the node's shared
                // memory segment already torn down.
                if !ctx.is_alive(from) {
                    return;
                }
                // Nodes this daemon spawned are pre-registered; dynamic
                // entries are recorded here.
                self.local_nodes[sm.raw() as usize] = Some(from);
                self.set_node_for(from, sm);
                self.locations[sm.raw() as usize] = Some(self.my_host);
                self.mark_alive(sm);
                self.any_started = true;
                let host = self.my_host;
                self.broadcast_to_peers(
                    ctx,
                    RtMsg::NodeUp {
                        sm,
                        restarted,
                        host,
                    },
                );
            }
            RtMsg::Notify {
                from_sm,
                state,
                targets,
            } => {
                self.route(ctx, from_sm, state, targets);
            }
            RtMsg::ForwardNotify {
                from_sm,
                state,
                targets,
            } => {
                for target in targets {
                    if let Some(actor) = self.local_nodes[target.raw() as usize] {
                        ctx.send(actor, RtMsg::DeliverNotify { from_sm, state });
                    } else {
                        self.ctx.warn(Warning::DroppedNotification {
                            from: from_sm,
                            to: target,
                        });
                    }
                }
            }
            RtMsg::StateUpdateRequest { for_sm } => {
                // Fan out to local nodes (ascending machine id, the dense
                // table's natural order — the same order the sorted
                // collection this replaced produced); if the request came
                // from one of our own nodes, also forward to the other
                // daemons.
                let from_local_node = self.node_for(from).is_some();
                for (idx, slot) in self.local_nodes.iter().enumerate() {
                    if let Some(actor) = *slot {
                        let sm = SmId::from_raw(idx as u32);
                        if sm != for_sm {
                            ctx.send(actor, RtMsg::StateUpdateRequest { for_sm });
                        }
                    }
                }
                if from_local_node {
                    self.broadcast_to_peers(ctx, RtMsg::StateUpdateRequest { for_sm });
                }
            }
            RtMsg::NodeUp { sm, host, .. } => {
                self.locations[sm.raw() as usize] = Some(host);
                self.mark_alive(sm);
                self.any_started = true;
            }
            RtMsg::NodeDown { sm, host, .. } => {
                if self.locations[sm.raw() as usize] == Some(host) {
                    self.locations[sm.raw() as usize] = None;
                }
                self.mark_dead(sm);
                // A machine that went down had started, even when it ended
                // before its `Register` (and so its `NodeUp`) went out. A
                // daemon the node file starts machines through waits for
                // its own first start instead, since this `NodeDown` may
                // overtake its `StartNode`.
                if !self.any_started && !self.ctx.wiring.starts_through(ctx.me()) {
                    self.any_started = true;
                }
                self.check_experiment_end(ctx);
            }
            RtMsg::KillAllNodes => {
                // Sorted by actor id: the kill order schedules watcher
                // notifications and historically followed the sorted actor
                // list, which differs from machine order once restarts have
                // re-spawned actors.
                let mut actors = std::mem::take(&mut self.kill_buf);
                actors.extend(self.local_nodes.iter().flatten().copied());
                actors.sort_unstable();
                for &actor in &actors {
                    ctx.kill(actor, DownReason::Crash);
                }
                actors.clear();
                self.kill_buf = actors;
            }
            other => self.ctx.warn(Warning::UnexpectedMessage {
                receiver: Receiver::LocalDaemon,
                message: format!("{other:?}"),
            }),
        }
    }
}

const TAG_TIMEOUT: u64 = 1;
const TAG_SHUTDOWN: u64 = 2;

/// The central daemon actor.
pub(crate) struct CentralDaemon {
    ctx: Rc<ExpCtx>,
    timeout_ns: u64,
    grace_ns: u64,
    /// Daemons that reported completion (a flat vector: there are at most
    /// a handful of daemons, and insertion checks linearly).
    ends: Vec<ActorId>,
    done: bool,
    /// The experiment watchdog, cancelled on clean shutdown so a completed
    /// experiment leaves no far-future event behind (a virtual-time budget
    /// would otherwise have to wade past it).
    watchdog: Option<TimerId>,
}

impl CentralDaemon {
    pub(crate) fn new(ctx: Rc<ExpCtx>, timeout_ns: u64, grace_ns: u64) -> Self {
        CentralDaemon {
            ctx,
            timeout_ns,
            grace_ns,
            ends: Vec::new(),
            done: false,
            watchdog: None,
        }
    }

    /// Resets a pooled central daemon for the next experiment.
    pub(crate) fn reinit(&mut self, timeout_ns: u64, grace_ns: u64) {
        self.timeout_ns = timeout_ns;
        self.grace_ns = grace_ns;
        self.ends.clear();
        self.done = false;
        self.watchdog = None;
    }

    fn shutdown(&mut self, ctx: &mut RtCtx<'_>) {
        if let Some(watchdog) = self.watchdog.take() {
            ctx.cancel_timer(watchdog);
        }
        // Teardown is the injector's out-of-band kill path: it must work
        // whatever the experiment did to the network, so heal the fault
        // plane first (a never-healed partition otherwise outlives its
        // experiment).
        ctx.clear_net_faults();
        if let Some(supervisor) = self.ctx.wiring.supervisor() {
            ctx.kill(supervisor, DownReason::Exit);
        }
        for &daemon in self.ctx.wiring.unique() {
            ctx.kill(daemon, DownReason::Exit);
        }
        ctx.exit_self();
    }

    fn on_start(&mut self, ctx: &mut RtCtx<'_>) {
        let wiring = &self.ctx.wiring;
        for &daemon in wiring.unique() {
            ctx.watch(daemon);
        }
        self.watchdog = Some(ctx.set_timer(self.timeout_ns, TAG_TIMEOUT));
        // Start the machines listed with a host in the node file (§3.5.1).
        for &(sm, host) in wiring.placements() {
            let daemon = wiring.daemon_for(host);
            ctx.send(daemon, RtMsg::StartNode { sm, host });
        }
    }

    fn on_message(&mut self, ctx: &mut RtCtx<'_>, from: ActorId, msg: RtMsg) {
        match msg {
            RtMsg::ExperimentEndNotice => {
                if !self.ends.contains(&from) {
                    self.ends.push(from);
                }
                if !self.done && self.ends.len() == self.ctx.wiring.unique().len() {
                    self.done = true;
                    self.ctx.control.mark(ExperimentEnd::Completed);
                    self.shutdown(ctx);
                }
            }
            other => self.ctx.warn(Warning::UnexpectedMessage {
                receiver: Receiver::CentralDaemon,
                message: format!("{other:?}"),
            }),
        }
    }

    fn on_timer(&mut self, ctx: &mut RtCtx<'_>, tag: u64) {
        match tag {
            TAG_TIMEOUT if !self.done => {
                self.watchdog = None; // it just fired
                                      // Hung experiment: kill everything and abort (§3.5.1).
                                      // Heal the network first — the kill instructions below are
                                      // ordinary messages and must not die in a partition the
                                      // experiment armed and never removed.
                ctx.clear_net_faults();
                self.done = true;
                self.ctx.control.mark(ExperimentEnd::TimedOut);
                for &daemon in self.ctx.wiring.unique() {
                    ctx.send(daemon, RtMsg::KillAllNodes);
                }
                ctx.set_timer(self.grace_ns, TAG_SHUTDOWN);
            }
            TAG_SHUTDOWN => {
                self.shutdown(ctx);
            }
            _ => {}
        }
    }

    /// A watched local daemon went down.
    fn on_daemon_down(&mut self, ctx: &mut RtCtx<'_>) {
        // A local daemon crashed: abnormality — abort the experiment.
        if !self.done {
            // Same out-of-band teardown as the timeout path: heal before
            // sending kill instructions through the network.
            ctx.clear_net_faults();
            self.done = true;
            self.ctx.control.mark(ExperimentEnd::Aborted);
            for &daemon in self.ctx.wiring.unique() {
                if ctx.is_alive(daemon) {
                    ctx.send(daemon, RtMsg::KillAllNodes);
                }
            }
            ctx.set_timer(self.grace_ns, TAG_SHUTDOWN);
        }
    }
}

/// Where a crashed machine restarts.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum RestartPlacement {
    /// Restart on the host it crashed on.
    #[default]
    SameHost,
    /// Restart on the next host (round-robin) — exercises restart on a
    /// *different* host (§3.6.3).
    NextHost,
    /// Restart on a uniformly random host.
    RandomHost,
}

/// The recovery policy of the system under study.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RestartPolicy {
    /// Probability that a crashed machine is restarted (coverage studies
    /// need both outcomes).
    pub probability: f64,
    /// Delay between crash detection and restart, in nanoseconds.
    pub delay_ns: u64,
    /// Maximum restarts per machine per experiment.
    pub max_restarts: u32,
    /// Host selection.
    pub placement: RestartPlacement,
}

impl RestartPolicy {
    /// Checks the policy for values the supervisor cannot draw against.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Restart`] when `probability` is NaN,
    /// infinite or outside `[0, 1]`. Caught at the first crash instead,
    /// such a value would fail every crashing experiment as a harness
    /// error.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if (0.0..=1.0).contains(&self.probability) {
            Ok(())
        } else {
            Err(CampaignError::Restart(format!(
                "loki: invalid restart policy: probability {} is outside [0, 1]",
                self.probability
            )))
        }
    }
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            probability: 1.0,
            delay_ns: 30_000_000, // 30 ms
            max_restarts: 1,
            placement: RestartPlacement::NextHost,
        }
    }
}

/// The restart supervisor: the application's recovery mechanism.
pub(crate) struct Supervisor {
    ctx: Rc<ExpCtx>,
    policy: RestartPolicy,
    /// Restart counts, indexed by machine id.
    restarts: Vec<u32>,
}

impl Supervisor {
    pub(crate) fn new(ctx: Rc<ExpCtx>, policy: RestartPolicy) -> Self {
        let num_sms = ctx.study.sms.len();
        Supervisor {
            ctx,
            policy,
            restarts: vec![0; num_sms],
        }
    }

    /// Resets a pooled supervisor for the next experiment.
    pub(crate) fn reinit(&mut self, policy: RestartPolicy) {
        self.policy = policy;
        self.restarts.fill(0);
    }

    fn on_message(&mut self, ctx: &mut RtCtx<'_>, msg: RtMsg) {
        if let RtMsg::NodeDown {
            sm,
            crashed: true,
            host,
        } = msg
        {
            let count = &mut self.restarts[sm.raw() as usize];
            if *count >= self.policy.max_restarts {
                return;
            }
            if self.policy.probability < 1.0 && !ctx.rng().gen_bool(self.policy.probability) {
                return;
            }
            *count += 1;
            let n = self.ctx.symbols.len() as u32;
            let target = match self.policy.placement {
                RestartPlacement::SameHost => host,
                RestartPlacement::NextHost => HostId::from_raw((host.raw() + 1) % n),
                RestartPlacement::RandomHost => HostId::from_raw(ctx.rng().gen_range(0..n)),
            };
            // Encode machine and host into the timer tag.
            let tag = ((sm.raw() as u64) << 32) | target.raw() as u64;
            ctx.set_timer(self.policy.delay_ns, tag);
        }
    }

    fn on_timer(&mut self, ctx: &mut RtCtx<'_>, tag: u64) {
        let sm = SmId::from_raw((tag >> 32) as u32);
        let host = HostId::from_raw((tag & 0xffff_ffff) as u32);
        let daemon = self.ctx.wiring.daemon_for(host);
        if ctx.is_alive(daemon) {
            ctx.send(daemon, RtMsg::StartNode { sm, host });
        }
    }
}

/// Failure injection on the injector itself: crashes a daemon after a
/// delay, so tests can exercise the central daemon's abnormality handling
/// (§3.5.1: "if an abnormality occurs, the central daemon instructs the
/// local daemons to kill all the state machines, and aborts the
/// experiment").
pub(crate) struct Saboteur {
    /// The daemon to crash.
    pub victim: ActorId,
    /// Delay before the crash (ns).
    pub after_ns: u64,
}

impl Saboteur {
    fn on_start(&mut self, ctx: &mut RtCtx<'_>) {
        ctx.set_timer(self.after_ns, 0);
    }

    fn on_timer(&mut self, ctx: &mut RtCtx<'_>) {
        ctx.kill(self.victim, DownReason::Crash);
        ctx.exit_self();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{App, NodeCtx, Payload};
    use loki_core::spec::{StateMachineSpec, StudyDef};

    struct Idle;
    impl App for Idle {
        fn on_start(&mut self, _: &mut NodeCtx<'_>, _: bool) {}
        fn on_app_message(&mut self, _: &mut NodeCtx<'_>, _: SmId, _: Payload) {}
        fn on_fault(&mut self, _: &mut NodeCtx<'_>, _: &str) {}
    }

    #[test]
    fn take_node_prefers_the_node_that_last_embodied_the_machine() {
        let machine = |sm| StateMachineSpec::builder(sm).states(&["UP"]).build();
        let def = StudyDef::new("pool")
            .machine(machine("a"))
            .machine(machine("b"))
            .machine(machine("c"));
        let study = Study::compile_arc(&def).unwrap();
        let symbols = Arc::new(SymbolTable::from_iter(["h"]));
        let factory: AppFactory = Arc::new(|_, _| Box::new(Idle));
        let wiring = Arc::new(Wiring::new(1, NotifyRouting::Direct, false, Box::new([])));
        let ctx = Rc::new(ExpCtx::new(
            study,
            symbols,
            factory,
            NotifyRouting::Direct,
            wiring,
        ));
        let [a, b, c] = ["a", "b", "c"].map(|name| ctx.study.sm_id(name).unwrap());
        for sm in [a, b, c] {
            let node = NodeActor::new(ctx.clone(), sm, ActorId(0), Box::new(Idle));
            ctx.pool.recycle(RtActor::Node(Box::new(node)));
        }
        // Whatever the free-list order, each machine gets its own node back.
        for sm in [b, a, c, b] {
            let node = ctx.pool.take_node(sm).unwrap();
            assert_eq!(node.embodies(), sm);
            ctx.pool.recycle(RtActor::Node(node));
        }
        // With no node of its own pooled, a machine takes another one.
        assert_eq!(ctx.pool.take_node(b).unwrap().embodies(), b);
        assert_ne!(ctx.pool.take_node(b).unwrap().embodies(), b);
        assert_eq!(ctx.pool.reuses(), 6, "three new nodes, then six reuses");
        ctx.pool.clear();
    }
}
