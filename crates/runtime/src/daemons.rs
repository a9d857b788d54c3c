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

use crate::messages::{NotifyRouting, RtMsg, SmTargets};
use crate::node::{AppFactory, NodeActor};
use crate::store::{ExperimentControl, NodeDirectory, SyncCollector, TimelineStore};
use crate::wiring::Wiring;
use loki_core::campaign::{Receiver, Warning};
use loki_core::ids::{SmId, SymbolTable};
use loki_core::recorder::{RecordKind, TimelineRecord};
use loki_core::study::Study;
use loki_sim::engine::{Actor, ActorId, Ctx, DownReason, HostId, TimerId};
use rand::Rng;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

/// A machine location that is not currently known.
const NO_HOST: u32 = u32::MAX;

/// The single shared per-experiment context (§3.5's shared runtime
/// configuration and storage, fused): every daemon and node of one
/// experiment holds one `Rc<ExpCtx>`, so cloning the context into a
/// spawned actor is a single refcount bump and every store access is one
/// pointer chase.
pub(crate) struct ExpCtx {
    /// The compiled study.
    pub study: Arc<Study>,
    /// The study-run symbol table: hosts interned in configuration order,
    /// so a host's id doubles as its simulation host index.
    pub symbols: Arc<SymbolTable>,
    /// Creates application halves for (re)started nodes.
    pub factory: AppFactory,
    /// Notification routing design (§3.4.1).
    pub routing: NotifyRouting,
    /// The "NFS-mounted" timeline storage.
    pub store: TimelineStore,
    /// Sync mini-phase sample collector.
    pub collector: SyncCollector,
    /// Runtime warnings of the running experiment (see [`ExpCtx::warn`]).
    pub warnings: RefCell<Vec<Warning>>,
    /// Control block between the central daemon and the harness.
    pub control: ExperimentControl,
    /// The application's name service.
    pub directory: NodeDirectory,
    /// Daemon/central/supervisor wiring.
    pub wiring: Wiring,
    /// Recycled actor hulls (see [`ActorPool`]).
    pub pool: ActorPool,
    /// Simulation events processed by finished experiments on this
    /// context (accumulated at assembly; feeds the all-in ns/event
    /// diagnostics).
    pub events: Cell<u64>,
}

impl ExpCtx {
    /// Creates a fresh context for one experiment slot.
    pub fn new(
        study: Arc<Study>,
        symbols: Arc<SymbolTable>,
        factory: AppFactory,
        routing: NotifyRouting,
    ) -> Self {
        ExpCtx {
            study,
            symbols,
            factory,
            routing,
            store: TimelineStore::new(),
            collector: SyncCollector::new(),
            warnings: RefCell::default(),
            control: ExperimentControl::new(),
            directory: NodeDirectory::new(),
            wiring: Wiring::new(),
            pool: ActorPool::default(),
            events: Cell::new(0),
        }
    }

    /// The simulation host index of `name`, if it is a configured host.
    pub fn host_idx(&self, name: &str) -> Option<u32> {
        self.symbols.lookup_host(name).map(|h| h.raw())
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

/// A boxed runtime actor, as the engine stores it.
pub(crate) type ActorHull = Box<dyn Actor<RtMsg>>;

/// Typed free-lists of dead actors' boxes, recycled across a worker's
/// experiments: the engine parks killed actors in its graveyard (see
/// [`loki_sim::engine::Simulation::set_reclaim_dead`]), the harness sorts
/// them in here by concrete type, and the spawn paths re-initialize a
/// pooled hull in place instead of boxing a new actor. A recycled
/// [`LocalDaemon`] keeps its tables' capacity warm.
#[derive(Default)]
pub(crate) struct ActorPool {
    nodes: RefCell<Vec<ActorHull>>,
    daemons: RefCell<Vec<ActorHull>>,
    centrals: RefCell<Vec<ActorHull>>,
    supervisors: RefCell<Vec<ActorHull>>,
    reuses: Cell<u64>,
}

impl ActorPool {
    /// Files a corpse into the free-list of its concrete type. Types
    /// without a downcast hook (the one-shot `Saboteur`) are dropped —
    /// their boxes are not worth pooling.
    pub fn recycle(&self, mut corpse: ActorHull) {
        let list = match corpse.as_any_mut() {
            Some(any) if any.is::<NodeActor>() => &self.nodes,
            Some(any) if any.is::<LocalDaemon>() => &self.daemons,
            Some(any) if any.is::<CentralDaemon>() => &self.centrals,
            Some(any) if any.is::<Supervisor>() => &self.supervisors,
            _ => return,
        };
        list.borrow_mut().push(corpse);
    }

    fn take(&self, list: &RefCell<Vec<ActorHull>>) -> Option<ActorHull> {
        let hull = list.borrow_mut().pop();
        if hull.is_some() {
            self.reuses.set(self.reuses.get() + 1);
        }
        hull
    }

    /// A recycled [`NodeActor`] hull, if one is pooled — preferring one
    /// that last embodied `prefer`, so its compiled fault set survives the
    /// re-initialization. Which hull is handed out is unobservable
    /// (re-initialization fully resets per-incarnation state); the
    /// preference only decides how much of the hull's storage is reusable.
    pub fn take_node(&self, prefer: SmId) -> Option<ActorHull> {
        let mut list = self.nodes.borrow_mut();
        let pick = list
            .iter_mut()
            .rposition(|hull| {
                hull.as_any_mut()
                    .and_then(|any| any.downcast_mut::<NodeActor>())
                    .is_some_and(|node| node.embodies() == prefer)
            })
            .or_else(|| list.len().checked_sub(1))?;
        let hull = list.swap_remove(pick);
        self.reuses.set(self.reuses.get() + 1);
        Some(hull)
    }

    /// A recycled [`LocalDaemon`] hull, if one is pooled.
    pub fn take_daemon(&self) -> Option<ActorHull> {
        self.take(&self.daemons)
    }

    /// A recycled [`CentralDaemon`] hull, if one is pooled.
    pub fn take_central(&self) -> Option<ActorHull> {
        self.take(&self.centrals)
    }

    /// A recycled [`Supervisor`] hull, if one is pooled.
    pub fn take_supervisor(&self) -> Option<ActorHull> {
        self.take(&self.supervisors)
    }

    /// Number of spawns served from the pool (diagnostics).
    pub fn reuses(&self) -> u64 {
        self.reuses.get()
    }

    /// Drops every pooled hull. Hulls hold `Rc<ExpCtx>` and the pool
    /// lives *inside* the `ExpCtx`; the owner of the context must clear
    /// the pool when retiring it, or the cycle keeps the whole context
    /// alive.
    pub fn clear(&self) {
        self.nodes.borrow_mut().clear();
        self.daemons.borrow_mut().clear();
        self.centrals.borrow_mut().clear();
        self.supervisors.borrow_mut().clear();
    }
}

/// Re-initializes a pooled hull of concrete type `T` via `reinit`, or
/// builds a fresh boxed actor with `fresh` when the pool had none. `arg`
/// goes to whichever of the two runs, so it is built exactly once.
pub(crate) fn reuse_or_box<T: Actor<RtMsg> + 'static, A>(
    hull: Option<ActorHull>,
    arg: A,
    reinit: impl FnOnce(&mut T, A),
    fresh: impl FnOnce(A) -> T,
) -> ActorHull {
    match hull {
        Some(mut hull) => {
            let actor = hull
                .as_any_mut()
                .and_then(|any| any.downcast_mut::<T>())
                .expect("pool free-lists are typed");
            reinit(actor, arg);
            hull
        }
        None => Box::new(fresh(arg)),
    }
}

/// The local daemon actor (one per host; one total in the centralized
/// design).
pub struct LocalDaemon {
    ctx: Rc<ExpCtx>,
    my_host: u32,
    /// Nodes attached to this daemon, indexed by machine id.
    local_nodes: Vec<Option<ActorId>>,
    /// Reverse map for crash detection, indexed by actor id (grown
    /// lazily — actor ids are dense per experiment).
    node_of_actor: Vec<Option<SmId>>,
    /// Known location (host index, [`NO_HOST`] when unknown) of every
    /// machine, indexed by machine id.
    locations: Vec<u32>,
    /// Machines believed to be executing anywhere in the system, indexed
    /// by machine id, with a live count so the completion check is O(1).
    alive: Vec<bool>,
    alive_count: usize,
    /// Scratch for the per-host notification fan-out, kept sorted by host
    /// index (empty between messages; retained for its capacity).
    route_buf: Vec<(u32, SmTargets)>,
    /// Scratch for the kill-all sweep (empty between messages; retained
    /// for its capacity).
    kill_buf: Vec<ActorId>,
    /// Whether any machine ever started (guards the end check).
    any_started: bool,
    /// Whether the end notice has been sent to the central daemon.
    end_sent: bool,
}

impl LocalDaemon {
    pub(crate) fn new(ctx: Rc<ExpCtx>, my_host: u32) -> Self {
        let num_sms = ctx.study.sms.len();
        let mut daemon = LocalDaemon {
            ctx,
            my_host,
            local_nodes: vec![None; num_sms],
            node_of_actor: Vec::new(),
            locations: vec![NO_HOST; num_sms],
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

    /// Resets a pooled hull for the next experiment, keeping every
    /// vector's capacity (the tables' sizes are study-determined, so a
    /// recycled daemon allocates nothing).
    pub(crate) fn reinit(&mut self, my_host: u32) {
        self.my_host = my_host;
        self.local_nodes.fill(None);
        self.node_of_actor.clear();
        self.locations.fill(NO_HOST);
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
        for (sm, host) in &self.ctx.study.placements {
            if let Some(host) = host {
                if let Some(idx) = self.ctx.host_idx(host) {
                    self.locations[sm.raw() as usize] = idx;
                }
            }
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

    fn broadcast_to_peers(&self, ctx: &mut Ctx<'_, RtMsg>, msg: RtMsg) {
        let me = ctx.me();
        self.ctx.wiring.with_unique(|unique| {
            for &peer in unique {
                if peer != me {
                    ctx.send(peer, msg.clone());
                }
            }
        });
    }

    /// Spawns a node for `sm` on host `host` (instructed by the central
    /// daemon or the supervisor), reusing a pooled hull when available.
    fn start_node(&mut self, ctx: &mut Ctx<'_, RtMsg>, sm: SmId, host: u32) {
        let app = (self.ctx.factory)(&self.ctx.study, sm);
        let me = ctx.me();
        let hull = reuse_or_box(
            self.ctx.pool.take_node(sm),
            app,
            |node: &mut NodeActor, app| node.reinit(sm, me, app),
            |app| NodeActor::new(self.ctx.clone(), sm, me, app),
        );
        let actor = ctx.spawn(HostId(host), hull);
        ctx.watch(actor);
        self.local_nodes[sm.raw() as usize] = Some(actor);
        self.set_node_for(actor, sm);
        self.locations[sm.raw() as usize] = host;
        self.mark_alive(sm);
        self.any_started = true;
    }

    /// Routes a notification to its target machines: local targets get a
    /// direct delivery; remote hosts get one `ForwardNotify` each (§3.6.1).
    ///
    /// The per-host fan-out fills a host-sorted scratch vector so the
    /// forwarding order — and with it the simulation's event sequence and
    /// RNG consumption — is deterministic (ascending host index, exactly
    /// the order the `BTreeMap` this replaced iterated in). A `HashMap`
    /// here made identically-seeded experiments diverge across processes
    /// and threads (`RandomState` differs per instance), which the
    /// parallel study executor turns from a latent into a permanent
    /// failure.
    fn route(
        &mut self,
        ctx: &mut Ctx<'_, RtMsg>,
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
                    // Unknown, or known-local but no live actor: the
                    // machine is gone.
                    host if host == NO_HOST || host == self.my_host => {
                        self.ctx.warn(Warning::DroppedNotification {
                            from: from_sm,
                            to: target,
                        });
                    }
                    host => match per_host.binary_search_by_key(&host, |&(h, _)| h) {
                        Ok(at) => per_host[at].1.push(target),
                        Err(at) => {
                            let mut targets = SmTargets::new();
                            targets.push(target);
                            per_host.insert(at, (host, targets));
                        }
                    },
                }
            }
        }
        for (host, targets) in per_host.drain(..) {
            let daemon = self.ctx.wiring.daemon_for(host as usize);
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
    fn check_experiment_end(&mut self, ctx: &mut Ctx<'_, RtMsg>) {
        if self.any_started && self.alive_count == 0 && !self.end_sent {
            self.end_sent = true;
            let central = self.ctx.wiring.central();
            ctx.send(central, RtMsg::ExperimentEndNotice);
        }
    }

    /// Handles the death of one of this daemon's nodes.
    fn handle_node_down(&mut self, ctx: &mut Ctx<'_, RtMsg>, actor: ActorId, reason: DownReason) {
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
            let crash_event = study.reserved.crash_event;
            let crash_state = study.reserved.crash;
            self.ctx.store.with_mut(sm, |t| {
                t.records.push(TimelineRecord {
                    time: now,
                    kind: RecordKind::StateChange {
                        event: crash_event,
                        new_state: crash_state,
                    },
                });
            });
            // Deliver the CRASH state's notifications on the machine's
            // behalf (e.g. `state CRASH notify green yellow`, §5.3).
            let targets: SmTargets = study
                .machine(sm)
                .notify_list(crash_state)
                .iter()
                .copied()
                .collect();
            if !targets.is_empty() {
                self.route(ctx, sm, crash_state, targets);
            }
        }
        let host = self.my_host;
        self.broadcast_to_peers(ctx, RtMsg::NodeDown { sm, crashed, host });
        if let Some(supervisor) = self.ctx.wiring.supervisor() {
            ctx.send(supervisor, RtMsg::NodeDown { sm, crashed, host });
        }
        self.check_experiment_end(ctx);
    }
}

impl Actor<RtMsg> for LocalDaemon {
    fn on_message(&mut self, ctx: &mut Ctx<'_, RtMsg>, from: ActorId, msg: RtMsg) {
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
                self.locations[sm.raw() as usize] = self.my_host;
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
                self.locations[sm.raw() as usize] = host;
                self.mark_alive(sm);
                self.any_started = true;
            }
            RtMsg::NodeDown { sm, host, .. } => {
                if self.locations[sm.raw() as usize] == host {
                    self.locations[sm.raw() as usize] = NO_HOST;
                }
                self.mark_dead(sm);
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

    fn on_peer_down(&mut self, ctx: &mut Ctx<'_, RtMsg>, peer: ActorId, reason: DownReason) {
        self.handle_node_down(ctx, peer, reason);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

const TAG_TIMEOUT: u64 = 1;
const TAG_SHUTDOWN: u64 = 2;

/// The central daemon actor.
pub struct CentralDaemon {
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

    /// Resets a pooled hull for the next experiment.
    pub(crate) fn reinit(&mut self, timeout_ns: u64, grace_ns: u64) {
        self.timeout_ns = timeout_ns;
        self.grace_ns = grace_ns;
        self.ends.clear();
        self.done = false;
        self.watchdog = None;
    }

    fn shutdown(&mut self, ctx: &mut Ctx<'_, RtMsg>) {
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
        self.ctx.wiring.with_unique(|unique| {
            for &daemon in unique {
                ctx.kill(daemon, DownReason::Exit);
            }
        });
        ctx.exit_self();
    }
}

impl Actor<RtMsg> for CentralDaemon {
    fn on_start(&mut self, ctx: &mut Ctx<'_, RtMsg>) {
        self.ctx.wiring.with_unique(|unique| {
            for &daemon in unique {
                ctx.watch(daemon);
            }
        });
        self.watchdog = Some(ctx.set_timer(self.timeout_ns, TAG_TIMEOUT));
        // Start the machines listed with a host in the node file (§3.5.1);
        // every entry point has checked that those hosts exist.
        for (sm, host) in &self.ctx.study.placements {
            if let Some(idx) = host.as_deref().and_then(|h| self.ctx.host_idx(h)) {
                let daemon = self.ctx.wiring.daemon_for(idx as usize);
                ctx.send(daemon, RtMsg::StartNode { sm: *sm, host: idx });
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, RtMsg>, from: ActorId, msg: RtMsg) {
        match msg {
            RtMsg::ExperimentEndNotice => {
                if !self.ends.contains(&from) {
                    self.ends.push(from);
                }
                if !self.done && self.ends.len() == self.ctx.wiring.num_unique() {
                    self.done = true;
                    self.ctx.control.mark_completed();
                    self.shutdown(ctx);
                }
            }
            other => self.ctx.warn(Warning::UnexpectedMessage {
                receiver: Receiver::CentralDaemon,
                message: format!("{other:?}"),
            }),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, RtMsg>, tag: u64) {
        match tag {
            TAG_TIMEOUT if !self.done => {
                self.watchdog = None; // it just fired
                                      // Hung experiment: kill everything and abort (§3.5.1).
                                      // Heal the network first — the kill instructions below are
                                      // ordinary messages and must not die in a partition the
                                      // experiment armed and never removed.
                ctx.clear_net_faults();
                self.done = true;
                self.ctx.control.mark_timed_out();
                self.ctx.wiring.with_unique(|unique| {
                    for &daemon in unique {
                        ctx.send(daemon, RtMsg::KillAllNodes);
                    }
                });
                ctx.set_timer(self.grace_ns, TAG_SHUTDOWN);
            }
            TAG_SHUTDOWN => {
                self.shutdown(ctx);
            }
            _ => {}
        }
    }

    fn on_peer_down(&mut self, ctx: &mut Ctx<'_, RtMsg>, _peer: ActorId, _reason: DownReason) {
        // A local daemon crashed: abnormality — abort the experiment.
        if !self.done {
            // Same out-of-band teardown as the timeout path: heal before
            // sending kill instructions through the network.
            ctx.clear_net_faults();
            self.done = true;
            self.ctx.control.mark_aborted();
            self.ctx.wiring.with_unique(|unique| {
                for &daemon in unique {
                    if ctx.is_alive(daemon) {
                        ctx.send(daemon, RtMsg::KillAllNodes);
                    }
                }
            });
            ctx.set_timer(self.grace_ns, TAG_SHUTDOWN);
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
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
pub struct Supervisor {
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

    /// Resets a pooled hull for the next experiment.
    pub(crate) fn reinit(&mut self, policy: RestartPolicy) {
        self.policy = policy;
        self.restarts.fill(0);
    }
}

impl Actor<RtMsg> for Supervisor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, RtMsg>, _from: ActorId, msg: RtMsg) {
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
            let n = self.ctx.symbols.num_hosts() as u32;
            let target = match self.policy.placement {
                RestartPlacement::SameHost => host,
                RestartPlacement::NextHost => (host + 1) % n,
                RestartPlacement::RandomHost => ctx.rng().gen_range(0..n),
            };
            // Encode machine and host into the timer tag.
            let tag = ((sm.raw() as u64) << 32) | target as u64;
            ctx.set_timer(self.policy.delay_ns, tag);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, RtMsg>, tag: u64) {
        let sm = SmId::from_raw((tag >> 32) as u32);
        let host = (tag & 0xffff_ffff) as u32;
        let daemon = self.ctx.wiring.daemon_for(host as usize);
        if ctx.is_alive(daemon) {
            ctx.send(daemon, RtMsg::StartNode { sm, host });
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

/// Failure injection on the injector itself: crashes a daemon after a
/// delay, so tests can exercise the central daemon's abnormality handling
/// (§3.5.1: "if an abnormality occurs, the central daemon instructs the
/// local daemons to kill all the state machines, and aborts the
/// experiment").
pub struct Saboteur {
    /// The daemon to crash.
    pub victim: ActorId,
    /// Delay before the crash (ns).
    pub after_ns: u64,
}

impl Actor<RtMsg> for Saboteur {
    fn on_start(&mut self, ctx: &mut Ctx<'_, RtMsg>) {
        ctx.set_timer(self.after_ns, 0);
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_, RtMsg>, _from: ActorId, _msg: RtMsg) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, RtMsg>, _tag: u64) {
        ctx.kill(self.victim, DownReason::Crash);
        ctx.exit_self();
    }
}
