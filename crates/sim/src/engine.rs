//! The deterministic discrete-event engine: actors, messages, timers,
//! crashes.
//!
//! Components (daemons, nodes) are [`Actor`]s placed on simulated hosts.
//! They exchange typed messages with realistic delays (link latency plus
//! per-endpoint OS scheduling delay), set timers, watch each other for
//! crashes, and read their host's drifting virtual clock. Execution is
//! fully deterministic for a given seed: the event queue is ordered by
//! `(time, sequence number)` and all randomness flows from one seeded RNG.
//!
//! # Event-core internals
//!
//! The steady-state event loop does no hashing and no per-event
//! allocation:
//!
//! * the pending-event queue is an **index heap**
//!   ([`crate::queue::EventQueue`]): binary heaps order packed
//!   `(time, seq, slot)` keys while event bodies park in a recycled slab,
//!   so sifts never move message payloads; timers wait in a heap of their
//!   own ([`Ctx::set_timer`] pushes there), so a message's push and pop
//!   sift only past other messages, and both heaps share one `seq`;
//! * timers are **generation-stamped slots**
//!   ([`crate::queue::TimerSlab`]): cancel is one array write and the
//!   pop-side liveness check one integer compare — no tombstone set that
//!   grows with cancel traffic;
//! * per-actor state is **dense**: watcher lists are a vector of inline
//!   small-vectors ([`loki_core::small::InlineVec`]) indexed by the
//!   watched actor, and FIFO horizons are per-sender sorted vectors
//!   binary-searched by receiver (senders talk to few peers, so the probe
//!   touches one or two cache lines; an open-addressed `(from, to)` map
//!   benched no better and costs the memory of its empty slots).
//!
//! Pop order remains total on `(time, seq)` with `seq` assigned at push —
//! byte-identical to the previous full-payload heap, as pinned by the
//! model-equivalence proptest in `tests/prop_sim.rs` and the repo-level
//! determinism suites.

use crate::config::{HostConfig, NetworkConfig};
use crate::netfault::{NetFaultError, NetFaultPlane};
use crate::queue::{EventQueue, TimerKey, TimerSlab};
use loki_clock::params::VirtualClock;
use loki_core::ids::{HostId, SymbolTable};
use loki_core::probe::FaultAction;
use loki_core::small::InlineVec;
use loki_core::time::LocalNanos;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// Identifies an actor (a simulated process).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u32);

/// Identifies a timer set by an actor: an opaque handle encoding the
/// timer's slab slot and the generation it was armed under (see
/// [`crate::queue::TimerSlab`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

/// Why a watched peer went down.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DownReason {
    /// The peer crashed (killed or crashed itself).
    Crash,
    /// The peer exited cleanly.
    Exit,
}

/// A simulated process. `M` is the application-defined message type.
///
/// All callbacks receive a [`Ctx`] granting access to the clock, messaging,
/// timers, spawning, and the RNG. Callbacks run to completion at one
/// simulation instant (computation time can be modelled explicitly with
/// timers if needed).
///
/// A plain [`Simulation`] stores its actors as `Box<dyn Actor<M>>`; a
/// harness with a closed set of actor kinds uses [`Dispatch`] instead.
pub trait Actor<M> {
    /// Called once when the actor starts (at its spawn instant).
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// Called for each delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ActorId, msg: M);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Called when a peer watched via [`Ctx::watch`] dies.
    fn on_peer_down(&mut self, ctx: &mut Ctx<'_, M>, peer: ActorId, reason: DownReason) {
        let _ = (ctx, peer, reason);
    }
}

/// An actor as a [`Simulation`] stores it: [`Actor`]'s callbacks, with a
/// context over the same actor type. The default is `Box<dyn Actor<M>>`;
/// a harness with a closed set of actor kinds implements this for an enum
/// of them, so dispatch is a `match` and [`Simulation::take_actors`]
/// hands its actors back by kind.
pub trait Dispatch<M>: Sized {
    /// See [`Actor::on_start`].
    fn on_start(&mut self, ctx: &mut Ctx<'_, M, Self>);
    /// See [`Actor::on_message`].
    fn on_message(&mut self, ctx: &mut Ctx<'_, M, Self>, from: ActorId, msg: M);
    /// See [`Actor::on_timer`].
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M, Self>, tag: u64);
    /// See [`Actor::on_peer_down`].
    fn on_peer_down(&mut self, ctx: &mut Ctx<'_, M, Self>, peer: ActorId, reason: DownReason);
}

impl<M: 'static> Dispatch<M> for Box<dyn Actor<M>> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        Actor::on_start(&mut **self, ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ActorId, msg: M) {
        Actor::on_message(&mut **self, ctx, from, msg);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, tag: u64) {
        Actor::on_timer(&mut **self, ctx, tag);
    }
    fn on_peer_down(&mut self, ctx: &mut Ctx<'_, M>, peer: ActorId, reason: DownReason) {
        Actor::on_peer_down(&mut **self, ctx, peer, reason);
    }
}

enum Event<M> {
    Start {
        actor: ActorId,
    },
    Deliver {
        to: ActorId,
        from: ActorId,
        msg: M,
    },
    Timer {
        actor: ActorId,
        id: TimerId,
        tag: u64,
    },
    PeerDown {
        observer: ActorId,
        dead: ActorId,
        reason: DownReason,
    },
}

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

/// Inline capacity of a watcher list: almost every watched actor (a node)
/// has exactly one watcher, its local daemon.
const WATCHERS_INLINE: usize = 4;

/// The runaway guard: a world that processes more events than this in one
/// run panics. The only bound on an experiment with no budget armed
/// ([`Simulation::set_budget`]).
const MAX_EVENTS: u64 = 50_000_000;

/// A host name was registered twice.
///
/// Placements and [`Ctx::find_host`] resolve hosts by name, so a
/// duplicate would silently shadow the second host; registration rejects
/// it instead. Returned by [`WorldConfig::add_host`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DuplicateHost {
    /// The name that was registered twice.
    pub name: String,
}

impl fmt::Display for DuplicateHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "duplicate host name {:?}: every simulated host needs a unique name \
             (placements resolve hosts by name)",
            self.name
        )
    }
}

impl std::error::Error for DuplicateHost {}

/// The immutable world description: host configurations, their virtual
/// clocks, the host table, and the network latency models.
///
/// Everything here is fixed for the lifetime of an experiment and — by
/// the engine's determinism contract — identical for every experiment of
/// a study, so a campaign builds one `WorldConfig` and `Arc`-shares it
/// across all its simulations ([`Simulation::with_config`]). The
/// per-world mutable state (event slab, timer slab, watcher/FIFO state,
/// RNG) stays in [`Simulation`], one per campaign worker, rewound between
/// experiments by [`Simulation::reset`].
///
/// [`VirtualClock`]s live here rather than in the per-world state because
/// they are pure functions of their [`loki_clock::params::ClockParams`]
/// and the current simulation time — reading one mutates nothing.
#[derive(Clone, Debug, Default)]
pub struct WorldConfig {
    hosts: Vec<HostConfig>,
    /// The hosts' names, interned in registration order: a host's
    /// [`HostId`] here is its id in every study run on this world.
    symbols: Arc<SymbolTable>,
    clocks: Vec<VirtualClock>,
    network: NetworkConfig,
}

impl WorldConfig {
    /// Creates an empty world description with the default network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a host; returns its id. Host ids are dense and assigned in
    /// registration order.
    pub fn add_host(&mut self, config: HostConfig) -> Result<HostId, DuplicateHost> {
        if self.symbols.lookup(&config.name).is_some() {
            return Err(DuplicateHost { name: config.name });
        }
        let id = Arc::make_mut(&mut self.symbols).intern(&config.name);
        self.clocks.push(VirtualClock::new(config.clock));
        self.hosts.push(config);
        Ok(id)
    }

    /// Replaces the network latency configuration.
    pub fn set_network(&mut self, network: NetworkConfig) {
        self.network = network;
    }

    /// The network latency configuration.
    pub fn network(&self) -> &NetworkConfig {
        &self.network
    }

    /// Host configuration lookup.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not part of this world.
    pub fn host(&self, host: HostId) -> &HostConfig {
        &self.hosts[host.index()]
    }

    /// The hosts in registration (= id) order.
    pub fn hosts(&self) -> &[HostConfig] {
        &self.hosts
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Looks up a host id by name (O(1)).
    pub fn find_host(&self, name: &str) -> Option<HostId> {
        self.symbols.lookup(name)
    }

    /// The host table: every host's name, interned in registration
    /// order. A harness shares this one table with the data its
    /// experiments produce.
    pub fn symbols(&self) -> &Arc<SymbolTable> {
        &self.symbols
    }
}

/// Which per-experiment containment budget a world exhausted (see
/// [`Simulation::set_budget`]). A tripped world refuses further events
/// and reads as drained to its driver; the harness maps this into a
/// typed experiment failure.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// The virtual-time ceiling was passed: the next pending event was
    /// scheduled after the allowed horizon.
    VirtualTime,
    /// The event-count ceiling was reached.
    Events,
}

/// The discrete-event simulation.
///
/// # Examples
///
/// ```
/// use loki_sim::config::HostConfig;
/// use loki_sim::engine::{Actor, ActorId, Ctx, Simulation};
///
/// struct Echo;
/// impl Actor<String> for Echo {
///     fn on_message(&mut self, ctx: &mut Ctx<'_, String>, from: ActorId, msg: String) {
///         if msg == "ping" {
///             ctx.send(from, "pong".to_owned());
///         }
///     }
/// }
///
/// struct Probe { echoed: bool }
/// impl Actor<String> for Probe {
///     fn on_start(&mut self, ctx: &mut Ctx<'_, String>) {
///         ctx.send(ActorId(0), "ping".to_owned());
///     }
///     fn on_message(&mut self, _ctx: &mut Ctx<'_, String>, _from: ActorId, msg: String) {
///         assert_eq!(msg, "pong");
///         self.echoed = true;
///     }
/// }
///
/// let mut sim = Simulation::new(42);
/// let h = sim.add_host(HostConfig::new("h1"));
/// sim.spawn(h, Box::new(Echo));
/// sim.spawn(h, Box::new(Probe { echoed: false }));
/// sim.run();
/// assert!(sim.now() > 0); // messages took simulated time
/// ```
pub struct Simulation<M, A = Box<dyn Actor<M>>> {
    /// The shared immutable world description (hosts, clocks, network).
    /// `Arc`-shared across a campaign's worlds; the legacy mutating builders
    /// ([`Simulation::add_host`], [`Simulation::set_network`]) copy on
    /// write when the description is actually shared.
    config: Arc<WorldConfig>,
    time: u64,
    queue: EventQueue<Event<M>>,
    /// The actor slab, indexed by [`ActorId`]; dead actors stay (`alive`
    /// gates dispatch). A slot is empty while its actor's callback runs.
    actors: Vec<Option<A>>,
    actor_hosts: Vec<HostId>,
    alive: Vec<bool>,
    /// Watcher lists, indexed by the *watched* actor. Dense and inline:
    /// registering and draining never hashes, and the common
    /// single-watcher case never allocates.
    watchers: Vec<InlineVec<ActorId, WATCHERS_INLINE>>,
    /// Per-sender FIFO horizons: `(receiver, last delivery time)` sorted
    /// by receiver, binary-searched per send. Kept at its high-water
    /// length across [`Simulation::reset`] so re-spawned actors reuse the
    /// inner allocations.
    fifo_out: Vec<Vec<(u32, u64)>>,
    timers: TimerSlab,
    sched_enabled: bool,
    rng: StdRng,
    trace: Vec<TraceEntry>,
    trace_enabled: bool,
    events_processed: u64,
    /// Per-experiment containment budgets (see [`Simulation::set_budget`]).
    /// `budget_armed` is the single branch the disarmed hot path pays;
    /// the ceilings and trip record are touched only when armed.
    budget_armed: bool,
    budget_virtual_ns: u64,
    budget_events: u64,
    budget_tripped: Option<BudgetExceeded>,
    /// The dynamic network fault plane, layered over the immutable
    /// `config` network. Inactive (one branch, zero extra RNG draws on
    /// the send path) until a net [`FaultAction`] arms it.
    net_faults: NetFaultPlane,
}

impl<M: 'static> Simulation<M> {
    /// Creates an empty simulation seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self::with_config(Arc::new(WorldConfig::new()), seed)
    }

    /// Creates a simulation over an existing — typically shared — world
    /// description. The simulation holds only its compact mutable state;
    /// a campaign `Arc`-shares one [`WorldConfig`] across all its worlds.
    pub fn with_config(config: Arc<WorldConfig>, seed: u64) -> Self {
        Self::closed(config, seed)
    }
}

impl<M: 'static, A: Dispatch<M>> Simulation<M, A> {
    /// [`Simulation::with_config`] for actors of a closed type `A` (see
    /// [`Dispatch`]). The default-typed constructors fix `A`, so that
    /// `spawn(h, Box::new(x))` coerces to `Box<dyn Actor<M>>`.
    pub fn closed(config: Arc<WorldConfig>, seed: u64) -> Self {
        Simulation {
            config,
            time: 0,
            queue: EventQueue::new(),
            actors: Vec::new(),
            actor_hosts: Vec::new(),
            alive: Vec::new(),
            watchers: Vec::new(),
            fifo_out: Vec::new(),
            timers: TimerSlab::new(),
            sched_enabled: true,
            rng: StdRng::seed_from_u64(seed),
            trace: Vec::new(),
            trace_enabled: false,
            events_processed: 0,
            budget_armed: false,
            budget_virtual_ns: u64::MAX,
            budget_events: u64::MAX,
            budget_tripped: None,
            net_faults: NetFaultPlane::new(),
        }
    }

    /// Rewinds the world to its pristine state under a new seed while
    /// keeping every allocation: the event slab, timer slab, watcher
    /// lists, FIFO horizons, and trace buffer all retain their high-water
    /// capacity, so a world reused across experiments stops allocating
    /// once the first experiment has sized it. Actors
    /// [`Simulation::take_actors`] did not hand back are dropped.
    ///
    /// After a reset the world is observationally identical to
    /// `Simulation::with_config(config, seed)` — same hosts (they live in
    /// the shared config), same RNG stream, trace collection off,
    /// scheduling delays re-enabled. Containment budgets ([`Simulation::set_budget`]) are *disarmed*:
    /// they are per-experiment, so a harness reusing the world re-arms
    /// them after every reset.
    pub fn reset(&mut self, seed: u64) {
        self.time = 0;
        self.queue.reset();
        self.timers.reset();
        self.actors.clear();
        self.actor_hosts.clear();
        self.alive.clear();
        for watchers in &mut self.watchers {
            watchers.clear();
        }
        for horizons in &mut self.fifo_out {
            horizons.clear();
        }
        self.sched_enabled = true;
        self.rng = StdRng::seed_from_u64(seed);
        self.trace.clear();
        self.trace_enabled = false;
        self.events_processed = 0;
        self.budget_armed = false;
        self.budget_virtual_ns = u64::MAX;
        self.budget_events = u64::MAX;
        self.budget_tripped = None;
        self.net_faults.reset();
    }

    /// Replaces the network latency configuration.
    ///
    /// Copy-on-write when the world description is shared: other
    /// simulations holding the same [`WorldConfig`] are unaffected.
    pub fn set_network(&mut self, network: NetworkConfig) {
        Arc::make_mut(&mut self.config).set_network(network);
    }

    /// Enables or disables OS scheduling delays on message endpoints.
    ///
    /// On an idle host a runnable process is dispatched immediately; the
    /// Loki harness disables scheduling delays during the synchronization
    /// mini-phases (which run before/after the experiment, when nothing
    /// else is runnable) and enables them during the busy runtime phase.
    pub fn set_sched_enabled(&mut self, enabled: bool) {
        self.sched_enabled = enabled;
    }

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

    /// Arms per-experiment containment budgets: a virtual-time ceiling
    /// (events scheduled after `max_virtual_ns` never run) and an
    /// event-count ceiling. `None` leaves a ceiling unbounded; both
    /// `None` disarms the check entirely, restoring the zero-cost hot
    /// path (unlike the 50 M-event runaway guard, which always applies
    /// and panics).
    ///
    /// Armed, [`Simulation::step`] refuses the first event past either
    /// ceiling and [`Simulation::budget_exceeded`] reports which ceiling
    /// tripped. The trip point depends only on the world's own event
    /// sequence — never on how the world is driven — so it is identical
    /// across `step`/`run`/`run_until`.
    pub fn set_budget(&mut self, max_virtual_ns: Option<u64>, max_events: Option<u64>) {
        self.budget_virtual_ns = max_virtual_ns.unwrap_or(u64::MAX);
        self.budget_events = max_events.unwrap_or(u64::MAX);
        self.budget_armed = max_virtual_ns.is_some() || max_events.is_some();
        if !self.budget_armed {
            self.budget_tripped = None;
        }
    }

    /// Which containment budget tripped, if any (see
    /// [`Simulation::set_budget`]). Cleared by [`Simulation::reset`].
    pub fn budget_exceeded(&self) -> Option<BudgetExceeded> {
        self.budget_tripped
    }

    /// Armed-path admission check: trips a budget when the next event
    /// would pass a ceiling, and refuses it. Deterministic for any
    /// driver because it reads only `events_processed`, the next event's
    /// scheduled time, and that event's target-liveness — all invariant
    /// under burst shape. Under both ceilings it reads only the head's
    /// time; the body (and so its slab slot) is read once a ceiling is
    /// passed.
    ///
    /// Garbage head events — a cancelled timer, or any event addressed
    /// to a dead actor — are discarded rather than tripped on: processing
    /// one is a no-op in every drive pattern, and an experiment that has
    /// in fact finished routinely leaves such events behind (an exited
    /// daemon's far-future watchdog timer, exit-race deliveries). Tripping
    /// on those would fail healthy experiments. The discard happens only
    /// when a ceiling is already passed, so the disarmed and under-budget
    /// hot paths are untouched.
    #[inline]
    fn budget_admit(&mut self) -> bool {
        if self.budget_tripped.is_some() {
            return false;
        }
        loop {
            let Some(time) = self.queue.peek_time() else {
                // Empty queue: admit; `step` observes the drain itself.
                return true;
            };
            let Some(exceeded) = self.over_budget(time) else {
                return true;
            };
            let Some((_, event)) = self.queue.peek() else {
                return true;
            };
            let target = match event {
                Event::Start { actor } => *actor,
                Event::Deliver { to, .. } => *to,
                Event::Timer { actor, .. } => *actor,
                Event::PeerDown { observer, .. } => *observer,
            };
            let cancelled = match event {
                Event::Timer { id, .. } => !self.timers.pending(TimerKey::unpack(id.0)),
                _ => false,
            };
            if self.is_alive(target) && !cancelled {
                self.budget_tripped = Some(exceeded);
                return false;
            }
            if let Some((_, Event::Timer { id, .. })) = self.queue.pop() {
                // Release the slot of a live timer on a dead actor (a
                // cancelled one was already retired by `cancel`).
                self.timers.fire(TimerKey::unpack(id.0));
            }
        }
    }

    /// The ceiling an event scheduled at `time` would pass, if any: the
    /// event count is checked before the virtual-time horizon.
    #[inline]
    fn over_budget(&self, time: u64) -> Option<BudgetExceeded> {
        if self.events_processed >= self.budget_events {
            Some(BudgetExceeded::Events)
        } else if time > self.budget_virtual_ns {
            Some(BudgetExceeded::VirtualTime)
        } else {
            None
        }
    }

    /// [`Simulation::step`]'s admission for an event that never sat in
    /// the queue (see [`Simulation::run_exchanges`]) and whose target is
    /// alive: passing a ceiling trips the budget, there is no garbage to
    /// discard.
    #[inline]
    pub(crate) fn admit_live(&mut self, time: u64) -> bool {
        if !self.budget_armed {
            return true;
        }
        if self.budget_tripped.is_none() {
            self.budget_tripped = self.over_budget(time);
        }
        self.budget_tripped.is_none()
    }

    /// The accounting every admitted event pays, queued or not: the event
    /// count, the runaway guard, and the clock.
    #[inline]
    pub(crate) fn begin_event(&mut self, time: u64) {
        self.events_processed += 1;
        assert!(
            self.events_processed <= MAX_EVENTS,
            "simulation exceeded {MAX_EVENTS} events — runaway?"
        );
        debug_assert!(time >= self.time, "time went backwards");
        self.time = time;
    }

    /// Samples the delay of one [`Ctx::send`] from `from_host` to
    /// `to_host`: both endpoint scheduling delays from one RNG word (see
    /// `config::sched_delay_pair`; none while scheduling delays are
    /// disabled), then the link latency (no draw for a zero-jitter link).
    /// The single place a healthy-network send consumes randomness.
    #[inline]
    pub(crate) fn send_delay(&mut self, from_host: HostId, to_host: HostId) -> u64 {
        let link = if from_host == to_host {
            self.config.network.ipc
        } else {
            self.config.network.tcp
        };
        let (d_send, d_recv) = if self.sched_enabled {
            crate::config::sched_delay_pair(
                &self.config.hosts[from_host.index()],
                &self.config.hosts[to_host.index()],
                &mut self.rng,
            )
        } else {
            (0, 0)
        };
        d_send + link.sample(&mut self.rng) + d_recv
    }

    /// Adds a host; returns its id.
    ///
    /// # Panics
    ///
    /// Panics when the host's name is already registered — a duplicate
    /// would silently shadow the second host in every name-based lookup.
    /// [`WorldConfig::add_host`] returns the error instead.
    ///
    /// Copy-on-write when the world description is shared (campaigns
    /// should finish building the [`WorldConfig`] before sharing it).
    pub fn add_host(&mut self, config: HostConfig) -> HostId {
        match Arc::make_mut(&mut self.config).add_host(config) {
            Ok(id) => id,
            Err(e) => panic!("loki-sim: {e}"),
        }
    }

    /// Host configuration lookup.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not part of this simulation.
    pub fn host(&self, host: HostId) -> &HostConfig {
        self.config.host(host)
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.config.num_hosts()
    }

    /// Spawns an actor on `host`; its `on_start` runs at the current time.
    pub fn spawn(&mut self, host: HostId, actor: A) -> ActorId {
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(Some(actor));
        self.actor_hosts.push(host);
        self.alive.push(true);
        if let Some(horizons) = self.fifo_out.get_mut(id.0 as usize) {
            // A slot left over from before a reset: reuse its allocation.
            horizons.clear();
        } else {
            self.fifo_out.push(Vec::new());
        }
        if self.watchers.len() < self.actors.len() {
            // May already extend past `id` when a watcher registered
            // interest before this actor was spawned.
            self.watchers.resize_with(self.actors.len(), InlineVec::new);
        }
        if self.trace_enabled {
            self.trace.push(TraceEntry::Spawn {
                time: self.time,
                actor: id,
                host,
            });
        }
        self.push(self.time, Event::Start { actor: id });
        id
    }

    /// Current simulation (physical) time in nanoseconds.
    #[inline]
    pub fn now(&self) -> u64 {
        self.time
    }

    /// Reads `host`'s local clock at the current instant.
    #[inline]
    pub fn local_clock(&self, host: HostId) -> LocalNanos {
        self.config.clocks[host.index()].read(self.time)
    }

    /// Whether `actor` is still alive.
    #[inline]
    pub fn is_alive(&self, actor: ActorId) -> bool {
        self.alive.get(actor.0 as usize).copied().unwrap_or(false)
    }

    /// The host an actor runs on.
    ///
    /// # Panics
    ///
    /// Panics if `actor` was never spawned.
    #[inline]
    fn host_of(&self, actor: ActorId) -> HostId {
        self.actor_hosts[actor.0 as usize]
    }

    /// The collected trace: empty unless [`Simulation::enable_trace`] was
    /// called.
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// High-water mark of concurrently armed timers (a diagnostic: the
    /// timer slab recycles slots, so this stays bounded however much
    /// arm/cancel traffic a workload generates).
    pub fn timer_slots(&self) -> usize {
        self.timers.slots()
    }

    /// Number of events currently pending in the queue.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Number of events processed since construction or the last
    /// [`Simulation::reset`].
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The deterministic simulation RNG, as [`Ctx::rng`] hands it to
    /// actors (for harness-level draws and RNG-state oracles).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// The network fault plane (read-only; inactive in a healthy world).
    pub fn net_faults(&self) -> &NetFaultPlane {
        &self.net_faults
    }

    /// Applies a network [`FaultAction`] to the fault plane, resolving
    /// host names through the world description. Returns `Ok(false)` when
    /// the action is not a network action (the caller handles it),
    /// `Ok(true)` when the plane was updated.
    ///
    /// # Errors
    ///
    /// [`NetFaultError`] when a host name is unknown or a parameter is
    /// out of range; the plane is left unchanged.
    pub fn apply_net_fault(&mut self, action: &FaultAction) -> Result<bool, NetFaultError> {
        let config = &self.config;
        self.net_faults
            .apply_action(action, config.num_hosts(), |name| config.find_host(name))
    }

    /// Heals the plane: removes every active network fault. The harness
    /// calls this at experiment teardown (the injector's kill path is
    /// out-of-band), so an experiment that never heals still drains.
    pub fn clear_net_faults(&mut self) {
        self.net_faults.heal();
    }

    /// Hands back every actor spawned since the last [`Simulation::reset`],
    /// dead or alive, once each in spawn order (a live one then receives
    /// no further callbacks): how a harness recycles finished actors.
    pub fn take_actors(&mut self) -> impl Iterator<Item = A> + '_ {
        self.actors.iter_mut().filter_map(Option::take)
    }

    /// Runs until the event queue drains.
    ///
    /// # Panics
    ///
    /// Panics if the event cap is exceeded (runaway protection).
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the queue drains or the simulation clock passes
    /// `deadline_ns`, then advances the clock to `deadline_ns` if it is
    /// still behind (time never moves backwards: a deadline earlier than
    /// the current clock leaves it untouched). Returns `true` if the
    /// deadline was hit with events still pending.
    pub fn run_until(&mut self, deadline_ns: u64) -> bool {
        loop {
            match self.queue.peek_time() {
                None => {
                    self.time = self.time.max(deadline_ns);
                    return false;
                }
                Some(t) if t > deadline_ns => {
                    self.time = self.time.max(deadline_ns);
                    return true;
                }
                Some(_) => {
                    if !self.step() {
                        // A tripped containment budget refuses further
                        // events: stop with events still pending, without
                        // advancing the clock to the deadline.
                        return true;
                    }
                }
            }
        }
    }

    /// Processes one event. Returns `false` when the queue is empty or a
    /// containment budget has tripped (see [`Simulation::set_budget`]).
    #[inline]
    pub fn step(&mut self) -> bool {
        if self.budget_armed && !self.budget_admit() {
            return false;
        }
        let Some((time, event)) = self.queue.pop() else {
            return false;
        };
        self.begin_event(time);
        match event {
            Event::Start { actor } => {
                self.dispatch(actor, |a, ctx| a.on_start(ctx));
            }
            Event::Deliver { to, from, msg } => {
                if self.trace_enabled && self.is_alive(to) {
                    self.trace.push(TraceEntry::Deliver {
                        time: self.time,
                        from,
                        to,
                    });
                }
                self.dispatch(to, move |a, ctx| a.on_message(ctx, from, msg));
            }
            Event::Timer { actor, id, tag } => {
                if !self.timers.fire(TimerKey::unpack(id.0)) {
                    return true; // cancelled while queued
                }
                self.dispatch(actor, move |a, ctx| a.on_timer(ctx, tag));
            }
            Event::PeerDown {
                observer,
                dead,
                reason,
            } => {
                self.dispatch(observer, move |a, ctx| a.on_peer_down(ctx, dead, reason));
            }
        }
        true
    }

    #[inline]
    fn dispatch(&mut self, actor: ActorId, f: impl FnOnce(&mut A, &mut Ctx<'_, M, A>)) {
        if !self.is_alive(actor) {
            return;
        }
        let Some(mut a) = self.actors[actor.0 as usize].take() else {
            return;
        };
        let mut self_down = None;
        f(
            &mut a,
            &mut Ctx {
                sim: self,
                me: actor,
                self_down: &mut self_down,
            },
        );
        self.actors[actor.0 as usize] = Some(a);
        if let Some(reason) = self_down {
            self.kill_internal(actor, reason);
        }
    }

    fn kill_internal(&mut self, actor: ActorId, reason: DownReason) {
        if !self.is_alive(actor) {
            return;
        }
        self.alive[actor.0 as usize] = false;
        if self.trace_enabled {
            self.trace.push(TraceEntry::Down {
                time: self.time,
                actor,
                reason,
            });
        }
        let detect = self.config.hosts[self.actor_hosts[actor.0 as usize].index()].crash_detect_ns;
        let watchers = std::mem::take(&mut self.watchers[actor.0 as usize]);
        for observer in watchers {
            self.push(
                self.time + detect,
                Event::PeerDown {
                    observer,
                    dead: actor,
                    reason,
                },
            );
        }
    }

    #[inline]
    fn push(&mut self, time: u64, event: Event<M>) {
        self.queue.push(time, event);
    }
}

impl<M, A> fmt::Debug for Simulation<M, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("time", &self.time)
            .field("hosts", &self.config.num_hosts())
            .field("actors", &self.actors.len())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

/// The per-direction FIFO rule: a message may not arrive at or before the
/// `horizon` — the previous arrival on the same `(sender, receiver)` pair,
/// `None` for the pair's first message — so it slips to one tick after.
#[inline]
pub(crate) fn fifo_arrival(horizon: Option<u64>, at: u64) -> u64 {
    match horizon {
        Some(last) if at <= last => last + 1,
        _ => at,
    }
}

/// The context handed to actor callbacks: clock, messaging, timers,
/// spawning, RNG.
///
/// The actor's own termination request lives with the dispatch that
/// created the context, so a context borrows everything it touches and
/// [`Ctx::reborrow`] can hand out a shorter-lived copy.
pub struct Ctx<'a, M, A = Box<dyn Actor<M>>> {
    sim: &'a mut Simulation<M, A>,
    me: ActorId,
    self_down: &'a mut Option<DownReason>,
}

impl<M: 'static, A: Dispatch<M>> Ctx<'_, M, A> {
    /// A context for the same actor and callback, borrowed from this one
    /// for a shorter lifetime (for wrappers that own a `Ctx` by value).
    pub fn reborrow(&mut self) -> Ctx<'_, M, A> {
        Ctx {
            sim: &mut *self.sim,
            me: self.me,
            self_down: &mut *self.self_down,
        }
    }

    /// The current actor's id.
    #[inline]
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// The current actor's host.
    #[inline]
    pub fn my_host(&self) -> HostId {
        self.sim.host_of(self.me)
    }

    /// Reads the *local clock* of this actor's host — the only notion of
    /// time a Loki runtime component may use.
    #[inline]
    pub fn local_clock(&self) -> LocalNanos {
        self.sim.local_clock(self.my_host())
    }

    /// Physical simulation time. Reserved for harness-level ground truth
    /// (e.g. computing a true injection-correctness oracle); runtime
    /// components must not consult it.
    #[inline]
    pub fn physical_now(&self) -> u64 {
        self.sim.now()
    }

    /// Sends `msg` to `to` with realistic delay: sender scheduling delay +
    /// link latency (IPC within a host, TCP across hosts) + receiver
    /// scheduling delay. Deliveries between the same `(sender, receiver)`
    /// pair are FIFO, as over a TCP connection or a shared-memory queue.
    /// Messages to dead actors are silently dropped at delivery time.
    ///
    /// When the [`NetFaultPlane`] is armed the message is additionally
    /// subject to partition cuts, link drop/duplicate/corrupt/reorder
    /// faults, and gray-node slowdown; while the plane is inactive this
    /// path is byte-identical (including RNG consumption) to a plane-less
    /// engine. `M: Clone` supports duplicate delivery.
    #[inline]
    pub fn send(&mut self, to: ActorId, msg: M)
    where
        M: Clone,
    {
        let from_host = self.sim.host_of(self.me);
        let to_host = self.sim.host_of(to);
        let delay = self.sim.send_delay(from_host, to_host);
        if self.sim.net_faults.is_active() {
            self.send_via_plane(to, from_host, to_host, delay, msg);
        } else {
            let at = self.sim.time + delay;
            self.deliver_fifo(to, at, msg);
        }
    }

    /// The armed-plane send path (cold: only reached while a net fault is
    /// active). Decision order is fixed — partition (structural, no
    /// draw), then per-link corrupt / drop / reorder / duplicate draws,
    /// then gray slowdown — so replays stay byte-identical. Kept out of
    /// line so the fault-free `send` hot path stays small.
    #[cold]
    #[inline(never)]
    fn send_via_plane(
        &mut self,
        to: ActorId,
        from_host: HostId,
        to_host: HostId,
        delay: u64,
        msg: M,
    ) where
        M: Clone,
    {
        if self.sim.net_faults.partitioned(from_host, to_host) {
            return;
        }
        // Copy the Copy params out so the RNG draws below don't fight the
        // plane borrow.
        let link = self.sim.net_faults.link(from_host, to_host);
        let slow = self.sim.net_faults.slowdown(from_host, to_host);
        let mut delay = delay;
        let mut reorder = 0u64;
        let mut dup = false;
        if let Some(lf) = link {
            delay += lf.extra_latency_ns;
            // Corrupt before drop: the corrupted frame reaches the
            // receiver and dies at its checksum, but both knobs must stay
            // independently tunable, so each gets its own draw.
            if lf.corrupt_prob > 0.0 && self.sim.rng.gen_bool(lf.corrupt_prob) {
                return;
            }
            if lf.drop_prob > 0.0 && self.sim.rng.gen_bool(lf.drop_prob) {
                return;
            }
            if lf.reorder_ns > 0 {
                reorder = self.sim.rng.gen_range(0..=lf.reorder_ns);
            }
            dup = lf.dup_prob > 0.0 && self.sim.rng.gen_bool(lf.dup_prob);
        }
        if slow > 1.0 {
            delay = (delay as f64 * slow) as u64;
        }
        let at = self.sim.time + delay;
        if dup {
            // The duplicate models a retransmitted frame: it bypasses the
            // FIFO discipline (it can overtake), arriving at the base time.
            self.sim.push(
                at,
                Event::Deliver {
                    to,
                    from: self.me,
                    msg: msg.clone(),
                },
            );
        }
        if reorder > 0 {
            // A reordered delivery skips the FIFO horizon entirely —
            // overtaking is the point of a reorder fault.
            self.sim.push(
                at + reorder,
                Event::Deliver {
                    to,
                    from: self.me,
                    msg,
                },
            );
        } else {
            self.deliver_fifo(to, at, msg);
        }
    }

    /// Applies a network [`FaultAction`] to the world's fault plane (see
    /// [`Simulation::apply_net_fault`]).
    ///
    /// # Errors
    ///
    /// [`NetFaultError`] when a host name is unknown or a parameter is
    /// out of range; the plane is left unchanged.
    pub fn apply_net_fault(&mut self, action: &FaultAction) -> Result<bool, NetFaultError> {
        self.sim.apply_net_fault(action)
    }

    /// Heals the plane: removes every active network fault.
    pub fn clear_net_faults(&mut self) {
        self.sim.clear_net_faults();
    }

    #[inline]
    fn deliver_fifo(&mut self, to: ActorId, at: u64, msg: M) {
        // Per-sender horizons, sorted by receiver: the probe is a binary
        // search over this sender's few peers instead of a hash of the
        // `(from, to)` pair.
        let horizons = &mut self.sim.fifo_out[self.me.0 as usize];
        let at = match horizons.binary_search_by_key(&to.0, |&(receiver, _)| receiver) {
            Ok(i) => {
                let at = fifo_arrival(Some(horizons[i].1), at);
                horizons[i].1 = at;
                at
            }
            Err(i) => {
                // First message to this receiver (cold path: allocates or
                // shifts only when the peer set grows).
                horizons.insert(i, (to.0, at));
                at
            }
        };
        self.sim.push(
            at,
            Event::Deliver {
                to,
                from: self.me,
                msg,
            },
        );
    }

    /// Sets a timer firing after `delay_ns`; `tag` is returned to
    /// [`Actor::on_timer`].
    #[inline]
    pub fn set_timer(&mut self, delay_ns: u64, tag: u64) -> TimerId {
        let id = TimerId(self.sim.timers.alloc().pack());
        let at = self.sim.time + delay_ns;
        self.sim.queue.push_timer(
            at,
            Event::Timer {
                actor: self.me,
                id,
                tag,
            },
        );
        id
    }

    /// Cancels a pending timer (firing already-queued timers is prevented).
    #[inline]
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.sim.timers.cancel(TimerKey::unpack(id.0));
    }

    /// Registers interest in `peer`'s death; [`Actor::on_peer_down`] will be
    /// called (after the host's crash-detection latency). The peer need not
    /// be spawned yet.
    pub fn watch(&mut self, peer: ActorId) {
        let idx = peer.0 as usize;
        if self.sim.watchers.len() <= idx {
            self.sim.watchers.resize_with(idx + 1, InlineVec::new);
        }
        self.sim.watchers[idx].push(self.me);
    }

    /// Spawns a new actor on `host` (it starts at the current instant).
    pub fn spawn(&mut self, host: HostId, actor: A) -> ActorId {
        self.sim.spawn(host, actor)
    }

    /// Kills another actor immediately (e.g. a daemon killing a node).
    pub fn kill(&mut self, actor: ActorId, reason: DownReason) {
        if actor == self.me {
            *self.self_down = Some(reason);
        } else {
            self.sim.kill_internal(actor, reason);
        }
    }

    /// Terminates the current actor with a crash.
    pub fn crash_self(&mut self) {
        *self.self_down = Some(DownReason::Crash);
    }

    /// Terminates the current actor cleanly.
    pub fn exit_self(&mut self) {
        *self.self_down = Some(DownReason::Exit);
    }

    /// How the current actor has asked to go down during this callback
    /// (via [`Ctx::crash_self`], [`Ctx::exit_self`] or [`Ctx::kill`] on
    /// itself), if it has. The last request wins: it is the reason the
    /// engine applies when the callback returns.
    pub fn down_request(&self) -> Option<DownReason> {
        *self.self_down
    }

    /// Whether `actor` is alive.
    #[inline]
    pub fn is_alive(&self, actor: ActorId) -> bool {
        self.sim.is_alive(actor)
    }

    /// Name of a host.
    pub fn host_name(&self, host: HostId) -> &str {
        self.sim.config.symbols.name(host)
    }

    /// Looks up a host id by name (O(1); names are unique — duplicates
    /// are rejected at registration).
    pub fn find_host(&self, name: &str) -> Option<HostId> {
        self.sim.config.find_host(name)
    }

    /// The deterministic simulation RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.sim.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatencyModel;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Debug, PartialEq, Clone)]
    enum Msg {
        Ping,
        Pong,
    }

    struct Ponger;
    impl Actor<Msg> for Ponger {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
            if msg == Msg::Ping {
                ctx.send(from, Msg::Pong);
            }
        }
    }

    struct Pinger {
        target: ActorId,
        log: Rc<RefCell<Vec<(u64, Msg)>>>,
    }
    impl Actor<Msg> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.send(self.target, Msg::Ping);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: ActorId, msg: Msg) {
            self.log.borrow_mut().push((ctx.physical_now(), msg));
        }
    }

    fn two_host_sim(seed: u64) -> (Simulation<Msg>, HostId, HostId) {
        let mut sim = Simulation::new(seed);
        let h1 = sim.add_host(HostConfig::new("h1").timeslice_ns(0));
        let h2 = sim.add_host(HostConfig::new("h2").timeslice_ns(0));
        sim.set_network(NetworkConfig {
            ipc: LatencyModel::constant(20_000),
            tcp: LatencyModel::constant(150_000),
        });
        (sim, h1, h2)
    }

    #[test]
    fn ping_pong_across_hosts_takes_two_tcp_hops() {
        let (mut sim, h1, h2) = two_host_sim(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let ponger = sim.spawn(h2, Box::new(Ponger));
        sim.spawn(
            h1,
            Box::new(Pinger {
                target: ponger,
                log: log.clone(),
            }),
        );
        sim.run();
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0], (300_000, Msg::Pong)); // 2 × 150 µs
    }

    #[test]
    fn same_host_uses_ipc_latency() {
        let (mut sim, h1, _) = two_host_sim(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let ponger = sim.spawn(h1, Box::new(Ponger));
        sim.spawn(
            h1,
            Box::new(Pinger {
                target: ponger,
                log: log.clone(),
            }),
        );
        sim.run();
        assert_eq!(log.borrow()[0].0, 40_000); // 2 × 20 µs
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut sim = Simulation::new(seed);
            sim.enable_trace();
            let h1 = sim.add_host(HostConfig::new("h1").timeslice_ns(1_000_000));
            let h2 = sim.add_host(HostConfig::new("h2").timeslice_ns(1_000_000));
            let log = Rc::new(RefCell::new(Vec::new()));
            let ponger = sim.spawn(h2, Box::new(Ponger));
            sim.spawn(
                h1,
                Box::new(Pinger {
                    target: ponger,
                    log: log.clone(),
                }),
            );
            sim.run();
            let v = log.borrow().clone();
            (v, format!("{:?}", sim.trace()))
        };
        assert_eq!(run(7), run(7));
        // Different seeds give different scheduling delays (almost surely).
        assert_ne!(run(7), run(8));
    }

    struct CrashOnStart;
    impl Actor<Msg> for CrashOnStart {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.crash_self();
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: ActorId, _: Msg) {}
    }

    struct Watcher {
        target: ActorId,
        seen: Rc<RefCell<Option<(ActorId, DownReason)>>>,
    }
    impl Actor<Msg> for Watcher {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.watch(self.target);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: ActorId, _: Msg) {}
        fn on_peer_down(&mut self, _ctx: &mut Ctx<'_, Msg>, peer: ActorId, reason: DownReason) {
            *self.seen.borrow_mut() = Some((peer, reason));
        }
    }

    #[test]
    fn watcher_notified_of_crash_after_detect_delay() {
        let (mut sim, h1, _) = two_host_sim(3);
        let seen = Rc::new(RefCell::new(None));
        // Spawn watcher first so it registers before the crash. The watch
        // targets an actor id that does not exist yet.
        let crasher_id = ActorId(1);
        sim.spawn(
            h1,
            Box::new(Watcher {
                target: crasher_id,
                seen: seen.clone(),
            }),
        );
        let spawned = sim.spawn(h1, Box::new(CrashOnStart));
        assert_eq!(spawned, crasher_id);
        sim.run();
        assert_eq!(*seen.borrow(), Some((crasher_id, DownReason::Crash)));
        assert!(!sim.is_alive(crasher_id));
        // Crash detection took the configured latency.
        assert_eq!(sim.now(), 50_000);
    }

    #[test]
    fn take_actors_hands_back_dead_and_live_actors_once() {
        let (mut sim, h1, _) = two_host_sim(11);
        sim.spawn(h1, Box::new(CrashOnStart));
        let live = sim.spawn(h1, Box::new(Ponger));
        sim.spawn(h1, Box::new(CrashOnStart));
        sim.run();
        assert!(sim.is_alive(live));
        assert_eq!(sim.take_actors().count(), 3, "two killed, one live");
        assert_eq!(sim.take_actors().count(), 0, "each handed back once");
        // A reset drops whatever was not handed back.
        sim.spawn(h1, Box::new(CrashOnStart));
        sim.run();
        sim.reset(11);
        assert_eq!(sim.take_actors().count(), 0, "nothing survives a reset");
    }

    #[test]
    fn messages_to_dead_actors_are_dropped() {
        let (mut sim, h1, _) = two_host_sim(4);
        let log = Rc::new(RefCell::new(Vec::new()));
        let dead = sim.spawn(h1, Box::new(CrashOnStart));
        sim.spawn(
            h1,
            Box::new(Pinger {
                target: dead,
                log: log.clone(),
            }),
        );
        sim.run();
        assert!(log.borrow().is_empty());
    }

    struct TimerActor {
        fired: Rc<RefCell<Vec<u64>>>,
        cancel_second: bool,
    }
    impl Actor<Msg> for TimerActor {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.set_timer(1_000, 1);
            let second = ctx.set_timer(2_000, 2);
            if self.cancel_second {
                ctx.cancel_timer(second);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: ActorId, _: Msg) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, tag: u64) {
            self.fired.borrow_mut().push(tag);
        }
    }

    #[test]
    fn timers_fire_and_cancel() {
        let (mut sim, h1, _) = two_host_sim(5);
        let fired = Rc::new(RefCell::new(Vec::new()));
        sim.spawn(
            h1,
            Box::new(TimerActor {
                fired: fired.clone(),
                cancel_second: true,
            }),
        );
        sim.run();
        assert_eq!(*fired.borrow(), vec![1]);

        let fired2 = Rc::new(RefCell::new(Vec::new()));
        let (mut sim, h1, _) = two_host_sim(5);
        sim.spawn(
            h1,
            Box::new(TimerActor {
                fired: fired2.clone(),
                cancel_second: false,
            }),
        );
        sim.run();
        assert_eq!(*fired2.borrow(), vec![1, 2]);
    }

    /// A watchdog that re-arms (set + cancel) a timer on every round: the
    /// cancel-heavy pattern that grew the old tombstone set without bound.
    struct Watchdog {
        rounds: u32,
        pending: Option<TimerId>,
    }
    impl Actor<Msg> for Watchdog {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.set_timer(1_000, 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: ActorId, _: Msg) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
            if let Some(old) = self.pending.take() {
                ctx.cancel_timer(old);
            }
            if self.rounds == 0 {
                return;
            }
            self.rounds -= 1;
            // The watchdog: armed, then cancelled on the next round before
            // it can fire.
            self.pending = Some(ctx.set_timer(1_000_000, 99));
            // The heartbeat driving the loop.
            ctx.set_timer(1_000, 0);
        }
    }

    #[test]
    fn cancel_heavy_watchdog_reuses_timer_slots() {
        let (mut sim, h1, _) = two_host_sim(6);
        sim.spawn(
            h1,
            Box::new(Watchdog {
                rounds: 1_000,
                pending: None,
            }),
        );
        sim.run();
        // 1000 set+cancel rounds with at most 2 timers armed at once (the
        // heartbeat and one watchdog): the slab must stay at the high-water
        // mark instead of accumulating a tombstone per cancel.
        assert!(
            sim.timer_slots() <= 3,
            "timer slab grew to {} slots under cancel churn",
            sim.timer_slots()
        );
    }

    #[test]
    fn local_clocks_drift_apart() {
        use loki_clock::params::ClockParams;
        let mut sim: Simulation<Msg> = Simulation::new(6);
        let h1 = sim.add_host(HostConfig::new("h1").clock(ClockParams::with_drift_ppm(0.0, 0.0)));
        let h2 =
            sim.add_host(HostConfig::new("h2").clock(ClockParams::with_drift_ppm(5000.0, 100.0)));
        // No events: drive time forward with run_until.
        sim.run_until(1_000_000_000);
        let c1 = sim.local_clock(h1).as_nanos();
        let c2 = sim.local_clock(h2).as_nanos();
        assert_eq!(c1, 1_000_000_000);
        assert_eq!(c2, 1_000_105_000); // 5 µs offset + 100 ppm drift
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut sim, h1, _) = two_host_sim(7);
        let fired = Rc::new(RefCell::new(Vec::new()));
        sim.spawn(
            h1,
            Box::new(TimerActor {
                fired: fired.clone(),
                cancel_second: false,
            }),
        );
        let pending = sim.run_until(1_500);
        assert!(pending);
        assert_eq!(*fired.borrow(), vec![1]);
        assert_eq!(sim.now(), 1_500);
    }

    #[test]
    fn run_until_never_moves_time_backwards() {
        // Regression: with events pending beyond the deadline, a second
        // call with an *earlier* deadline used to rewind the clock.
        let (mut sim, h1, _) = two_host_sim(9);
        let fired = Rc::new(RefCell::new(Vec::new()));
        sim.spawn(
            h1,
            Box::new(TimerActor {
                fired,
                cancel_second: false,
            }),
        );
        assert!(sim.run_until(1_500)); // timer 2 still pending at 2_000
        assert_eq!(sim.now(), 1_500);
        assert!(sim.run_until(500)); // earlier deadline: time must not rewind
        assert_eq!(sim.now(), 1_500);

        // Same property once the queue has drained.
        sim.run_until(10_000);
        assert_eq!(sim.now(), 10_000);
        assert!(!sim.run_until(3_000));
        assert_eq!(sim.now(), 10_000);
    }

    #[test]
    fn find_host_resolves_names_in_constant_time_path() {
        let (mut sim, h1, h2) = two_host_sim(1);
        // find_host/host_name are Ctx methods; probe through an actor.
        struct Probe {
            h1: HostId,
            h2: HostId,
            ran: Rc<RefCell<bool>>,
        }
        impl Actor<Msg> for Probe {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                assert_eq!(ctx.find_host("h1"), Some(self.h1));
                assert_eq!(ctx.find_host("h2"), Some(self.h2));
                assert_eq!(ctx.find_host("nope"), None);
                assert_eq!(ctx.host_name(ctx.my_host()), "h1");
                *self.ran.borrow_mut() = true;
            }
            fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: ActorId, _: Msg) {}
        }
        let ran = Rc::new(RefCell::new(false));
        sim.spawn(
            h1,
            Box::new(Probe {
                h1,
                h2,
                ran: ran.clone(),
            }),
        );
        sim.run();
        assert!(*ran.borrow());
    }

    #[test]
    fn duplicate_host_names_are_a_hard_error() {
        let mut sim: Simulation<Msg> = Simulation::new(1);
        let first = sim.add_host(HostConfig::new("dup"));
        // The rejected host leaves no trace in the world.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.add_host(HostConfig::new("dup"));
        }));
        assert!(panicked.is_err(), "add_host must panic on a duplicate");
        assert_eq!(sim.num_hosts(), 1);
        assert_eq!(first, HostId::from_raw(0));

        // WorldConfig rejects duplicates with a typed error.
        let mut config = WorldConfig::new();
        config.add_host(HostConfig::new("dup")).unwrap();
        let err = config.add_host(HostConfig::new("dup")).unwrap_err();
        assert_eq!(err.name, "dup");
        assert!(err.to_string().contains("dup"), "{err}");
        assert_eq!(config.num_hosts(), 1);
    }

    #[test]
    fn worlds_share_one_config_and_copy_on_write() {
        let mut config = WorldConfig::new();
        let h1 = config.add_host(HostConfig::new("h1")).unwrap();
        let config = Arc::new(config);
        let mut a: Simulation<Msg> = Simulation::with_config(config.clone(), 1);
        let b: Simulation<Msg> = Simulation::with_config(config.clone(), 2);
        assert!(Arc::ptr_eq(&a.config, &b.config));
        assert_eq!(a.host(h1).name, "h1");

        // Mutating one world's description copies on write instead of
        // changing it under the worlds it is shared with.
        a.add_host(HostConfig::new("h2"));
        assert_eq!(a.num_hosts(), 2);
        assert_eq!(b.num_hosts(), 1);
        assert!(!Arc::ptr_eq(&a.config, &b.config));
    }

    #[test]
    fn reset_replays_identically_and_reuses_slabs() {
        let (mut sim, h1, h2) = two_host_sim(6);
        let drive = |sim: &mut Simulation<Msg>| {
            sim.enable_trace();
            let fired = Rc::new(RefCell::new(Vec::new()));
            let log = Rc::new(RefCell::new(Vec::new()));
            sim.spawn(
                h1,
                Box::new(Watchdog {
                    rounds: 200,
                    pending: None,
                }),
            );
            sim.spawn(
                h1,
                Box::new(TimerActor {
                    fired: fired.clone(),
                    cancel_second: false,
                }),
            );
            let ponger = sim.spawn(h2, Box::new(Ponger));
            sim.spawn(
                h1,
                Box::new(Pinger {
                    target: ponger,
                    log: log.clone(),
                }),
            );
            sim.run();
            let fired = fired.borrow().clone();
            let log = log.borrow().clone();
            (sim.now(), fired, log, sim.trace().len())
        };

        let first = drive(&mut sim);
        let marks = (sim.queue.slab_slots(), sim.timer_slots());

        sim.reset(6);
        assert_eq!(sim.now(), 0);
        assert_eq!(sim.pending_events(), 0);
        assert!(!sim.is_alive(ActorId(0)));

        let second = drive(&mut sim);
        assert_eq!(first, second, "a reset world must replay byte-identically");
        assert_eq!(
            (sim.queue.slab_slots(), sim.timer_slots()),
            marks,
            "replaying after reset must reuse the slabs, not regrow them"
        );
    }

    /// Applies a partition at start, sends through it, heals on a timer
    /// and resends.
    struct NetFaulter {
        target: ActorId,
        log: Rc<RefCell<Vec<(u64, Msg)>>>,
    }
    impl Actor<Msg> for NetFaulter {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            let part = FaultAction::Partition {
                groups: vec![vec!["h1".into()], vec!["h2".into()]],
            };
            assert_eq!(ctx.apply_net_fault(&part), Ok(true));
            assert!(ctx.sim.net_faults.is_active());
            ctx.send(self.target, Msg::Ping); // cut by the partition
            ctx.set_timer(1_000_000, 1);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: ActorId, msg: Msg) {
            self.log.borrow_mut().push((ctx.physical_now(), msg));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _tag: u64) {
            ctx.clear_net_faults();
            ctx.send(self.target, Msg::Ping); // flows after the heal
        }
    }

    #[test]
    fn partition_cuts_cross_host_traffic_until_healed() {
        let (mut sim, h1, h2) = two_host_sim(12);
        let log = Rc::new(RefCell::new(Vec::new()));
        let ponger = sim.spawn(h2, Box::new(Ponger));
        sim.spawn(
            h1,
            Box::new(NetFaulter {
                target: ponger,
                log: log.clone(),
            }),
        );
        sim.run();
        let log = log.borrow();
        // Only the post-heal ping round-trips: heal at 1 ms + 2 × 150 µs.
        assert_eq!(*log, vec![(1_300_000, Msg::Pong)]);
        assert!(!sim.net_faults().is_active(), "heal cleared the plane");
    }

    #[test]
    fn link_fault_is_directed() {
        let (mut sim, h1, h2) = two_host_sim(13);
        // Total loss h2 → h1 only: pings arrive, pongs die.
        assert_eq!(
            sim.apply_net_fault(&FaultAction::LinkFault {
                from: "h2".into(),
                to: "h1".into(),
                drop_prob: 1.0,
                dup_prob: 0.0,
                reorder_ns: 0,
                corrupt_prob: 0.0,
                extra_latency_ns: 0,
            }),
            Ok(true)
        );
        let log = Rc::new(RefCell::new(Vec::new()));
        let ponger = sim.spawn(h2, Box::new(Ponger));
        sim.spawn(
            h1,
            Box::new(Pinger {
                target: ponger,
                log: log.clone(),
            }),
        );
        sim.run();
        assert!(log.borrow().is_empty(), "the pong was dropped");
        // The ping itself arrived: the last event is its delivery.
        assert_eq!(sim.now(), 150_000);
    }

    #[test]
    fn dup_link_delivers_twice() {
        let (mut sim, h1, h2) = two_host_sim(14);
        assert_eq!(
            sim.apply_net_fault(&FaultAction::LinkFault {
                from: "h1".into(),
                to: "h2".into(),
                drop_prob: 0.0,
                dup_prob: 1.0,
                reorder_ns: 0,
                corrupt_prob: 0.0,
                extra_latency_ns: 0,
            }),
            Ok(true)
        );
        let log = Rc::new(RefCell::new(Vec::new()));
        let ponger = sim.spawn(h2, Box::new(Ponger));
        sim.spawn(
            h1,
            Box::new(Pinger {
                target: ponger,
                log: log.clone(),
            }),
        );
        sim.run();
        // The duplicated ping produced two pongs.
        assert_eq!(log.borrow().len(), 2);
    }

    #[test]
    fn gray_node_slows_both_directions() {
        let (mut sim, h1, h2) = two_host_sim(15);
        assert_eq!(
            sim.apply_net_fault(&FaultAction::GrayNode {
                host: "h2".into(),
                slowdown: 2.0,
            }),
            Ok(true)
        );
        let log = Rc::new(RefCell::new(Vec::new()));
        let ponger = sim.spawn(h2, Box::new(Ponger));
        sim.spawn(
            h1,
            Box::new(Pinger {
                target: ponger,
                log: log.clone(),
            }),
        );
        sim.run();
        // Both legs touch the gray host: 2 × (150 µs × 2).
        assert_eq!(*log.borrow(), vec![(600_000, Msg::Pong)]);
    }

    #[test]
    fn reset_heals_the_plane() {
        let (mut sim, _h1, _h2) = two_host_sim(16);
        sim.apply_net_fault(&FaultAction::Partition {
            groups: vec![vec!["h1".into()], vec!["h2".into()]],
        })
        .unwrap();
        assert!(sim.net_faults().is_active());
        sim.reset(16);
        assert!(
            !sim.net_faults().is_active(),
            "a recycled world must start healthy"
        );
    }

    #[test]
    fn trace_records_lifecycle() {
        let (mut sim, h1, _) = two_host_sim(8);
        sim.enable_trace();
        sim.spawn(h1, Box::new(CrashOnStart));
        sim.run();
        let kinds: Vec<&'static str> = sim
            .trace()
            .iter()
            .map(|t| match t {
                TraceEntry::Spawn { .. } => "spawn",
                TraceEntry::Down { .. } => "down",
                TraceEntry::Deliver { .. } => "deliver",
            })
            .collect();
        assert_eq!(kinds, vec!["spawn", "down"]);
    }
}
