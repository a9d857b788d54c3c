//! Many-worlds batching: K independent simulations interleaved on one
//! thread.
//!
//! A Loki campaign needs thousands of experiments for statistical
//! confidence, and each experiment is an *independent* deterministic
//! simulation. Running them strictly one-after-another leaves an easy win
//! on the table: construction and teardown dominate small experiments,
//! and the event loop's working set falls out of cache between them. The
//! FoundationDB-style answer (also used by neon's `desim`) is to keep
//! **many worlds in one process**: a [`WorldSet`] holds K simulations
//! that `Arc`-share one immutable [`WorldConfig`](crate::engine::WorldConfig)
//! and interleaves their
//! event loops on a single thread, always stepping the world whose next
//! event is earliest.
//!
//! ```text
//!             Arc<WorldConfig>  (hosts, clocks, topology — immutable)
//!                 ╱    │    ╲
//!          ┌─────┘     │     └─────┐
//!     Simulation  Simulation  Simulation     per-world mutable state:
//!      (world 0)   (world 1)   (world 2)     event slab, timer slab,
//!          │           │           │         watchers, FIFO, RNG
//!          └─────┬─────┴─────┬─────┘
//!           next_times: [t₀, t₁, t₂]         ← struct-of-arrays keys
//!                        │
//!               step_earliest(): argmin over next_times,
//!               then one Simulation::step() on that world
//! ```
//!
//! Because the worlds are independent (separate RNGs, separate event
//! queues), the interleaving order cannot change any world's behaviour:
//! each world sees exactly the event sequence it would see running alone.
//! [`WorldSet::step_earliest`] is therefore a pure throughput device — it
//! keeps the scheduling keys dense (one `u64` per world, `u64::MAX` for a
//! drained world) so the argmin scan stays in one or two cache lines,
//! while worlds that finished early cost nothing. The equivalence is
//! pinned by a proptest in `crates/sim/tests/prop_sim.rs`.
//!
//! Worlds are meant to be *reused*: drive one to completion, then
//! [`WorldSet::with_world_mut`] + [`Simulation::reset`] rewinds it for
//! the next experiment while keeping its slab allocations — the
//! steady-state of a campaign allocates almost nothing per experiment.

use crate::engine::Simulation;

/// The scheduling key of a world with no pending events.
const DRAINED: u64 = u64::MAX;

/// Lookahead slack for [`WorldSet::run_earliest`]: the chosen world runs
/// events up to `second_earliest + SLACK_NS` before the set re-evaluates
/// which world is earliest. Worlds of one batch tend to run in near
/// lockstep (same configuration, seeds apart), so a zero-slack policy
/// would bounce between worlds every event or two and churn the cache.
/// Any fixed value yields identical results — worlds never interact — so
/// this is purely a throughput knob. A sweep on a micro-experiment
/// campaign showed every setting from 0 to unbounded within measurement
/// noise (experiments are small enough that either way each burst covers
/// most of a phase), so the slack saturates: the chosen world runs its
/// whole phase, paying the argmin scan only at phase boundaries.
const SLACK_NS: u64 = u64::MAX;

/// A batch of independent simulations stepped in earliest-next-event
/// order on one thread.
///
/// # Examples
///
/// ```
/// use loki_sim::batch::WorldSet;
/// use loki_sim::config::HostConfig;
/// use loki_sim::engine::{Actor, ActorId, Ctx, Simulation, WorldConfig};
/// use std::sync::Arc;
///
/// struct Tick;
/// impl Actor<()> for Tick {
///     fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
///         ctx.set_timer(1_000, 0);
///     }
///     fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: ActorId, _: ()) {}
/// }
///
/// // One shared world description, four independent worlds.
/// let mut config = WorldConfig::new();
/// let host = config.add_host(HostConfig::new("h1")).unwrap();
/// let config = Arc::new(config);
///
/// let mut set = WorldSet::new();
/// for seed in 0..4 {
///     let idx = set.push(Simulation::with_config(config.clone(), seed));
///     set.with_world_mut(idx, |sim| {
///         sim.spawn(host, Box::new(Tick));
///     });
/// }
/// set.run();
/// assert!((0..4).all(|i| set.drained(i)));
/// assert_eq!(set.world(3).now(), 1_000);
/// ```
pub struct WorldSet<M> {
    worlds: Vec<Simulation<M>>,
    /// Cached next-event time per world ([`DRAINED`] when its queue is
    /// empty), kept as a separate dense array so the argmin scan of
    /// [`WorldSet::step_earliest`] reads K `u64`s instead of touching K
    /// simulations.
    next_times: Vec<u64>,
}

impl<M: 'static> WorldSet<M> {
    /// Creates an empty set.
    pub fn new() -> Self {
        WorldSet {
            worlds: Vec::new(),
            next_times: Vec::new(),
        }
    }

    /// Creates an empty set with room for `k` worlds.
    pub fn with_capacity(k: usize) -> Self {
        WorldSet {
            worlds: Vec::with_capacity(k),
            next_times: Vec::with_capacity(k),
        }
    }

    /// Adds a world to the set; returns its index.
    pub fn push(&mut self, world: Simulation<M>) -> usize {
        let idx = self.worlds.len();
        self.next_times
            .push(world.next_event_time().unwrap_or(DRAINED));
        self.worlds.push(world);
        idx
    }

    /// Number of worlds in the set.
    pub fn len(&self) -> usize {
        self.worlds.len()
    }

    /// Whether the set holds no worlds.
    pub fn is_empty(&self) -> bool {
        self.worlds.is_empty()
    }

    /// Read access to a world.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of bounds.
    pub fn world(&self, idx: usize) -> &Simulation<M> {
        &self.worlds[idx]
    }

    /// Whether world `idx`'s event queue has drained.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of bounds.
    pub fn drained(&self, idx: usize) -> bool {
        self.next_times[idx] == DRAINED
    }

    /// Replaces world `idx` with `world`, refreshing its scheduling key.
    /// The previous world is dropped. This is the quarantine primitive: a
    /// harness that caught a panic out of a world — or saw it trip a
    /// containment budget — swaps in a slot rebuilt fresh from the shared
    /// [`WorldConfig`](crate::engine::WorldConfig) instead of trusting
    /// [`Simulation::reset`] on state a panic may have left half-mutated.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of bounds.
    pub fn replace(&mut self, idx: usize, world: Simulation<M>) {
        self.next_times[idx] = world.next_event_time().unwrap_or(DRAINED);
        self.worlds[idx] = world;
    }

    /// Mutates a world through `f` and refreshes its cached scheduling
    /// key afterwards. All mutation (spawning actors, [`Simulation::reset`]
    /// between experiments) must go through here — mutating a world
    /// behind the set's back would leave the key stale.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of bounds.
    pub fn with_world_mut<R>(&mut self, idx: usize, f: impl FnOnce(&mut Simulation<M>) -> R) -> R {
        let result = f(&mut self.worlds[idx]);
        self.next_times[idx] = self.worlds[idx].next_event_time().unwrap_or(DRAINED);
        result
    }

    /// Processes one event on the world whose next event is earliest
    /// (ties resolve to the lowest index, keeping the interleaving
    /// deterministic) and returns that world's index; `None` when every
    /// world has drained.
    ///
    /// The caller typically checks [`WorldSet::drained`] on the returned
    /// index to detect a world hitting a phase boundary.
    pub fn step_earliest(&mut self) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for (idx, &t) in self.next_times.iter().enumerate() {
            if t == DRAINED {
                continue;
            }
            match best {
                Some((best_t, _)) if best_t <= t => {}
                _ => best = Some((t, idx)),
            }
        }
        let (_, idx) = best?;
        self.worlds[idx].step();
        self.next_times[idx] = self.worlds[idx].next_event_time().unwrap_or(DRAINED);
        Some(idx)
    }

    /// Runs the earliest world in a *burst*: processes every event of the
    /// world with the earliest next event up to (and including) the
    /// second-earliest world's horizon plus a small fixed lookahead
    /// slack, then returns that world's index; `None` when every world
    /// has drained. Ties resolve to the lowest index, like
    /// [`WorldSet::step_earliest`].
    ///
    /// Because worlds are independent, bursting is behaviour-identical to
    /// stepping one event at a time — it just pays the argmin scan once
    /// per burst instead of once per event and keeps one world's slabs
    /// cache-hot for the whole burst (with one live world left, a single
    /// burst runs it to completion). The caller checks
    /// [`WorldSet::drained`] on the returned index, exactly as with
    /// `step_earliest`.
    pub fn run_earliest(&mut self) -> Option<usize> {
        let (best, horizon) = self.earliest()?;
        self.run_world(best, horizon);
        Some(best)
    }

    /// The scheduling decision [`WorldSet::run_earliest`] would make,
    /// without running anything: the index of the world whose next event
    /// is earliest plus the burst horizon it would run to; `None` when
    /// every world has drained. Split out so a harness can bracket the
    /// actual burst ([`WorldSet::run_world`]) with its own containment —
    /// catching a panic out of the burst, it knows exactly which world is
    /// poisoned and can [`WorldSet::replace`] it.
    pub fn earliest(&self) -> Option<(usize, u64)> {
        let mut best_t = DRAINED;
        let mut best = usize::MAX;
        let mut second = DRAINED;
        for (idx, &t) in self.next_times.iter().enumerate() {
            // Drained worlds (t == DRAINED) fail both tests and drop out.
            if t < best_t {
                second = best_t;
                best_t = t;
                best = idx;
            } else if t < second {
                second = t;
            }
        }
        if best == usize::MAX {
            return None;
        }
        Some((best, second.saturating_add(SLACK_NS)))
    }

    /// Bursts world `idx` up to `horizon` and refreshes its scheduling
    /// key ([`WorldSet::run_earliest`] is [`WorldSet::earliest`] followed
    /// by this).
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of bounds.
    pub fn run_world(&mut self, idx: usize, horizon: u64) {
        self.worlds[idx].run_ready(horizon);
        self.next_times[idx] = self.worlds[idx].next_event_time().unwrap_or(DRAINED);
    }

    /// Runs every world to completion, interleaved in earliest-event
    /// order.
    pub fn run(&mut self) {
        while self.run_earliest().is_some() {}
    }
}

impl<M: 'static> Default for WorldSet<M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HostConfig;
    use crate::engine::{Actor, ActorId, Ctx, WorldConfig};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    /// Ping-pongs with itself via timers and logs every firing.
    struct Clockwork {
        period: u64,
        remaining: u32,
        log: Rc<RefCell<Vec<u64>>>,
    }
    impl Actor<()> for Clockwork {
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.set_timer(self.period, 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: ActorId, _: ()) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _tag: u64) {
            self.log.borrow_mut().push(ctx.physical_now());
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.set_timer(self.period, 0);
            }
        }
    }

    fn world_with(
        config: &Arc<WorldConfig>,
        seed: u64,
        period: u64,
    ) -> (Simulation<()>, Rc<RefCell<Vec<u64>>>) {
        let mut sim = Simulation::with_config(config.clone(), seed);
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.spawn(
            crate::engine::HostId(0),
            Box::new(Clockwork {
                period,
                remaining: 5,
                log: log.clone(),
            }),
        );
        (sim, log)
    }

    fn one_host_config() -> Arc<WorldConfig> {
        let mut config = WorldConfig::new();
        config.add_host(HostConfig::new("h1")).unwrap();
        Arc::new(config)
    }

    #[test]
    fn interleaved_worlds_match_isolated_runs() {
        let config = one_host_config();
        // Staggered periods force constant lead changes in the argmin.
        let isolated: Vec<_> = (0..4u64)
            .map(|i| {
                let (mut sim, log) = world_with(&config, i, 700 + i * 130);
                sim.run();
                let fired = log.borrow().clone();
                (sim.now(), fired)
            })
            .collect();

        let mut set = WorldSet::new();
        let logs: Vec<_> = (0..4u64)
            .map(|i| {
                let (sim, log) = world_with(&config, i, 700 + i * 130);
                set.push(sim);
                log
            })
            .collect();
        set.run();
        for (i, log) in logs.iter().enumerate() {
            assert!(set.drained(i));
            assert_eq!(
                (set.world(i).now(), log.borrow().clone()),
                isolated[i],
                "world {i} diverged under interleaving"
            );
        }
    }

    #[test]
    fn step_earliest_breaks_ties_on_lowest_index() {
        let config = one_host_config();
        let mut set = WorldSet::new();
        for seed in 0..3u64 {
            let (sim, _log) = world_with(&config, seed, 1_000); // identical schedules
            set.push(sim);
        }
        // Every world has its Start event queued at time 0: three steps
        // must visit worlds 0, 1, 2 in order.
        let order: Vec<_> = (0..3).map(|_| set.step_earliest().unwrap()).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn reused_worlds_replay_after_reset() {
        let config = one_host_config();
        let (sim, first_log) = world_with(&config, 9, 500);
        let mut set = WorldSet::new();
        let idx = set.push(sim);
        set.run();
        let first = (set.world(idx).now(), first_log.borrow().clone());

        // Rewind the same world in place and rerun the same schedule.
        let second_log = set.with_world_mut(idx, |sim| {
            sim.reset(9);
            let log = Rc::new(RefCell::new(Vec::new()));
            sim.spawn(
                crate::engine::HostId(0),
                Box::new(Clockwork {
                    period: 500,
                    remaining: 5,
                    log: log.clone(),
                }),
            );
            log
        });
        assert!(!set.drained(idx), "reset + spawn must refresh the key");
        set.run();
        assert_eq!((set.world(idx).now(), second_log.borrow().clone()), first);
    }
}
