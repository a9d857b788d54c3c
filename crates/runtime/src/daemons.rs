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
//!
//! This file holds what they share: the `ExpCtx`, the closed actor set
//! `RtActor` and the `ActorPool`. Each daemon has a file of its own:
//! `local` (§3.5.2), `central` (§3.5.1) and `supervisor`, which also holds
//! the saboteur that crashes a daemon on purpose.

use crate::messages::{NotifyRouting, RtMsg};
use crate::node::{AppFactory, NodeActor};
use crate::store::{ExperimentControl, NodeDirectory, TimelineStore};
use crate::wiring::Wiring;
use loki_core::campaign::Warning;
use loki_core::ids::{HostId, SmId, SymbolTable};
use loki_core::recorder::{RecordKind, TimelineRecord};
use loki_core::study::Study;
use loki_sim::engine::{ActorId, Ctx, Dispatch, DownReason};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

mod central;
mod local;
mod supervisor;

use central::CentralDaemon;
use local::LocalDaemon;
pub(crate) use supervisor::Saboteur;
use supervisor::Supervisor;
pub use supervisor::{RestartPlacement, RestartPolicy};

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
// Every queued event carries an `RtMsg` and every recorded one a
// `TimelineRecord`: neither may grow unnoticed, and a record stays `Copy`
// (it owns no heap, so clearing a timeline walks nothing).
const _: () = assert!(std::mem::size_of::<RtMsg>() == 24);
const _: () = assert!(std::mem::size_of::<TimelineRecord>() == 24);
const _: () = {
    const fn copy<T: Copy>() {}
    copy::<RecordKind>()
};

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
