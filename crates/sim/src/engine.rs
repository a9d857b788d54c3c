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
//! * per-actor state is **dense**: watcher lists are a vector of `Vec`s
//!   indexed by the watched actor (every watched actor has one watcher,
//!   and a kill hands its list's buffer back, so the steady state does not
//!   allocate), and FIFO horizons are per-sender sorted vectors
//!   binary-searched by receiver (senders talk to few peers, so the probe
//!   touches one or two cache lines; an open-addressed `(from, to)` map
//!   benched no better and costs the memory of its empty slots).
//!
//! Pop order remains total on `(time, seq)` with `seq` assigned at push —
//! byte-identical to the previous full-payload heap, as pinned by the
//! model-equivalence proptest in `tests/prop_sim.rs` and the repo-level
//! determinism suites.
//!
//! # Layout
//!
//! This file holds the event loop: [`Simulation`], the actor traits, the
//! events, and `step`/`dispatch`/kill. Each other concern has a file of
//! its own: `world` (the host table, clocks, network and scheduling
//! model), `ctx` (what a callback can do, and the send path), `budget`
//! (containment budgets and per-event admission) and `trace`.

use crate::config::{HostConfig, NetworkConfig};
use crate::netfault::NetFaultPlane;
use crate::queue::{EventQueue, TimerKey, TimerSlab};
use loki_clock::params::VirtualClock;
use loki_core::ids::{HostId, SymbolTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::Arc;

mod budget;
mod ctx;
#[cfg(test)]
mod tests;
mod trace;
mod world;

pub use budget::BudgetExceeded;
pub(crate) use ctx::fifo_arrival;
pub use trace::TraceEntry;
pub use world::DuplicateHost;

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

/// The immutable world description: host configurations, their virtual
/// clocks, the host table, and the network latency models.
///
/// Everything here is fixed for the lifetime of an experiment and — by
/// the engine's determinism contract — identical for every experiment of
/// a study, so a campaign builds one `WorldConfig` and `Arc`-shares it
/// across all its simulations ([`Simulation::closed`]). The
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
    /// Watcher lists, indexed by the *watched* actor: registering and
    /// draining never hashes, and a kill hands the drained list back, so
    /// a world reused across experiments keeps every list's buffer.
    watchers: Vec<Vec<ActorId>>,
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
    /// The dynamic network fault plane, layered over the immutable `config`
    /// network. Inactive (one branch, zero extra RNG draws on the send path)
    /// until a net [`FaultAction`](loki_core::probe::FaultAction) arms it.
    net_faults: NetFaultPlane,
}

impl<M: 'static> Simulation<M> {
    /// Creates an empty simulation seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self::closed(Arc::new(WorldConfig::new()), seed)
    }
}

impl<M: 'static, A: Dispatch<M>> Simulation<M, A> {
    /// Creates a simulation over an existing — typically shared — world
    /// description, for actors of type `A` (see [`Dispatch`]). The
    /// simulation holds only its compact mutable state; a campaign
    /// `Arc`-shares one [`WorldConfig`] across all its worlds.
    /// [`Simulation::new`] fixes `A` to `Box<dyn Actor<M>>`, so that
    /// `spawn(h, Box::new(x))` coerces.
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
    /// `Simulation::closed(config, seed)` — same hosts (they live in
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
            self.watchers.resize_with(self.actors.len(), Vec::new);
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
        // Drained, then handed back: the slot keeps its buffer.
        let mut watchers = std::mem::take(&mut self.watchers[actor.0 as usize]);
        for observer in watchers.drain(..) {
            self.push(
                self.time + detect,
                Event::PeerDown {
                    observer,
                    dead: actor,
                    reason,
                },
            );
        }
        self.watchers[actor.0 as usize] = watchers;
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
