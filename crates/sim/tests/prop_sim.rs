//! Property tests for the discrete-event engine and its event core.

use loki_clock::params::ClockParams;
use loki_core::time::LocalNanos;
use loki_sim::config::{HostConfig, LatencyModel, NetworkConfig};
use loki_sim::engine::{Actor, ActorId, BudgetExceeded, Ctx, HostId, Simulation, WorldConfig};
use loki_sim::exchange::ExchangeRound;
use loki_sim::queue::{EventQueue, TimerKey, TimerSlab};
use proptest::prelude::*;
use rand::RngCore;
use std::cell::RefCell;
use std::collections::{BinaryHeap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

/// Sends a burst of numbered messages to a sink.
struct Burst {
    target: ActorId,
    count: u32,
}
impl Actor<u32> for Burst {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        for i in 0..self.count {
            ctx.send(self.target, i);
        }
    }
    fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: ActorId, _: u32) {}
}

struct Sink {
    log: Rc<RefCell<Vec<(u64, u32)>>>,
}
impl Actor<u32> for Sink {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _: ActorId, msg: u32) {
        self.log.borrow_mut().push((ctx.physical_now(), msg));
    }
}

/// The protocol of the reference exchange actors below.
#[derive(Clone)]
enum SyncMsg {
    Ping {
        seq: u32,
    },
    Echo {
        seq: u32,
        /// Responder's local clock when the ping arrived (the echo leaves
        /// in the same instant).
        echoed: LocalNanos,
    },
    Done,
}

/// Reference echo endpoint on the responder host: the actor
/// `Simulation::run_exchanges` replaced, kept as its oracle.
struct RefEcho;

impl Actor<SyncMsg> for RefEcho {
    fn on_message(&mut self, ctx: &mut Ctx<'_, SyncMsg>, from: ActorId, msg: SyncMsg) {
        match msg {
            SyncMsg::Ping { seq } => {
                let echoed = ctx.local_clock();
                ctx.send(from, SyncMsg::Echo { seq, echoed });
            }
            SyncMsg::Done => ctx.exit_self(),
            SyncMsg::Echo { .. } => {}
        }
    }
}

/// Reference originator on an initiating host: `rounds` strictly
/// sequential ping/echo rounds with `interval_ns` between them — the next
/// ping is only scheduled once the previous echo has arrived.
struct RefOriginator {
    echo: ActorId,
    initiator: usize,
    rounds: u32,
    interval_ns: u64,
    sent: Option<(u32, LocalNanos)>,
    log: Rc<RefCell<Vec<ExchangeRound>>>,
}

impl RefOriginator {
    fn ping(&mut self, ctx: &mut Ctx<'_, SyncMsg>, seq: u32) {
        self.sent = Some((seq, ctx.local_clock()));
        ctx.send(self.echo, SyncMsg::Ping { seq });
    }
}

impl Actor<SyncMsg> for RefOriginator {
    fn on_start(&mut self, ctx: &mut Ctx<'_, SyncMsg>) {
        if self.rounds == 0 {
            ctx.send(self.echo, SyncMsg::Done);
            ctx.exit_self();
            return;
        }
        self.ping(ctx, 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, SyncMsg>, _from: ActorId, msg: SyncMsg) {
        if let SyncMsg::Echo { seq, echoed } = msg {
            let echo_received = ctx.local_clock();
            if let Some((_, ping_sent)) = self.sent.take_if(|&mut (s, _)| s == seq) {
                self.log.borrow_mut().push(ExchangeRound {
                    initiator: self.initiator,
                    ping_sent,
                    echoed,
                    echo_received,
                });
            }
            let next = seq + 1;
            if next < self.rounds {
                ctx.set_timer(self.interval_ns, u64::from(next));
            } else {
                ctx.send(self.echo, SyncMsg::Done);
                ctx.exit_self();
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, SyncMsg>, tag: u64) {
        self.ping(ctx, tag as u32);
    }
}

/// Everything an exchange session leaves observable.
#[derive(Debug, PartialEq)]
struct SessionOutcome {
    rounds: Vec<ExchangeRound>,
    now: u64,
    events: u64,
    tripped: Option<BudgetExceeded>,
    next_rng_word: u64,
}

/// The parameters of one generated exchange session.
struct Session {
    config: Arc<WorldConfig>,
    seed: u64,
    start_ns: u64,
    sched_enabled: bool,
    initiators: Vec<HostId>,
    rounds: u32,
    interval_ns: u64,
}

impl Session {
    /// A world at the session's start instant, budgets armed as given.
    fn world(&self, budget: (Option<u64>, Option<u64>)) -> Simulation<SyncMsg> {
        let mut sim = Simulation::with_config(self.config.clone(), self.seed);
        sim.run_until(self.start_ns);
        sim.set_sched_enabled(self.sched_enabled);
        sim.set_budget(budget.0, budget.1);
        sim
    }

    fn outcome(mut sim: Simulation<SyncMsg>, rounds: Vec<ExchangeRound>) -> SessionOutcome {
        SessionOutcome {
            rounds,
            now: sim.now(),
            events: sim.events_processed(),
            tripped: sim.budget_exceeded(),
            next_rng_word: sim.rng().next_u64(),
        }
    }

    /// The session as the actor pairs play it, one queued event at a time.
    fn by_actors(&self, budget: (Option<u64>, Option<u64>)) -> SessionOutcome {
        let mut sim = self.world(budget);
        let log = Rc::new(RefCell::new(Vec::new()));
        for (initiator, &host) in self.initiators.iter().enumerate() {
            let echo = sim.spawn(HostId(0), Box::new(RefEcho));
            sim.spawn(
                host,
                Box::new(RefOriginator {
                    echo,
                    initiator,
                    rounds: self.rounds,
                    interval_ns: self.interval_ns,
                    sent: None,
                    log: log.clone(),
                }),
            );
        }
        sim.run();
        let rounds = log.borrow().clone();
        Self::outcome(sim, rounds)
    }

    /// The session as the engine's closed-form merge plays it.
    fn by_merge(&self, budget: (Option<u64>, Option<u64>)) -> SessionOutcome {
        let mut sim = self.world(budget);
        let mut rounds = Vec::new();
        sim.run_exchanges(
            HostId(0),
            &self.initiators,
            self.rounds,
            self.interval_ns,
            |round| rounds.push(round),
        );
        Self::outcome(sim, rounds)
    }
}

/// A link model for the exchange sessions: zero-latency links (where only
/// the FIFO horizons keep deliveries apart) and zero-jitter links (which
/// must draw nothing) are as likely as realistic ones.
fn latency_strategy() -> impl Strategy<Value = LatencyModel> {
    (
        prop_oneof![Just(0u64), 0u64..400_000],
        prop_oneof![Just(0u64), 0u64..200_000],
    )
        .prop_map(|(base_ns, jitter_ns)| LatencyModel { base_ns, jitter_ns })
}

/// One operation against both the index-heap queue and the reference
/// model (the engine's previous structures: a full-payload `BinaryHeap`
/// plus a cancelled-timer tombstone set).
#[derive(Clone, Debug)]
enum QOp {
    /// Schedule a message `dt % 4` ns ahead (small range forces time ties).
    Push(u8),
    /// Arm a timer `dt % 4` ns ahead.
    Timer(u8),
    /// Cancel the n-th currently live timer (mod the live count).
    Cancel(u8),
    /// Pop the next live entry.
    Pop,
    /// Reset the queue and the timer slab (dropping whatever is pending)
    /// and check the rest of the run against a fresh queue as well.
    Reset,
}

/// 60 % of the ops schedule and 35 % pop, so a long run climbs to the
/// depths a cascading workload keeps queued (a hundred and more, peaking
/// near 300); about one op in a thousand resets.
fn qop_strategy() -> impl Strategy<Value = QOp> {
    (0u32..1001, any::<u8>()).prop_map(|(pick, arg)| match pick {
        0..=499 => QOp::Push(arg),
        500..=599 => QOp::Timer(arg),
        600..=649 => QOp::Cancel(arg),
        650..=999 => QOp::Pop,
        _ => QOp::Reset,
    })
}

/// A queued entry on the new side: either a plain message or a timer
/// carrying its slab key (the engine stores `TimerId`s the same way).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Item {
    Msg(u32),
    Timer(u32, TimerKey),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The index-heap queue plus the generation-stamped timer slab pop in
    /// exactly the order of the engine's previous core — a full-payload
    /// `BinaryHeap` ordered by `(time, seq)` with a `HashSet` of cancelled
    /// timer ids — under arbitrary interleavings of push, timer arm,
    /// cancel, pop and reset, including time ties, cancels of queued timers
    /// and queue depths past a hundred.
    #[test]
    fn event_core_matches_reference_heap_model(
        ops in prop::collection::vec(qop_strategy(), 1..1500),
    ) {
        // New core.
        let mut queue: EventQueue<Item> = EventQueue::new();
        let mut timers = TimerSlab::new();
        // After a reset: a new queue fed the same pushes, which must pop
        // entry for entry what the reset queue pops, and the slab size the
        // reset queue kept.
        let mut fresh: Option<EventQueue<Item>> = None;
        let mut reset_mark = 0;
        // Reference model (the pre-index-heap structures).
        let mut ref_heap: BinaryHeap<std::cmp::Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut ref_seq = 0u64;
        let mut ref_cancelled: HashSet<u32> = HashSet::new();

        // Shared bookkeeping so both sides cancel the *same* timer.
        let mut live: Vec<(u32, TimerKey)> = Vec::new();
        let mut label = 0u32;
        let mut now = 0u64;
        let mut popped_new: Vec<Option<(u64, u32)>> = Vec::new();
        let mut popped_ref: Vec<Option<(u64, u32)>> = Vec::new();

        let push_new = |queue: &mut EventQueue<Item>,
                        fresh: &mut Option<EventQueue<Item>>,
                        t: u64,
                        item: Item| {
            queue.push(t, item);
            if let Some(fresh) = fresh {
                fresh.push(t, item);
            }
        };
        let pop_new = |queue: &mut EventQueue<Item>,
                           fresh: &mut Option<EventQueue<Item>>,
                           timers: &mut TimerSlab,
                           live: &mut Vec<(u32, TimerKey)>|
         -> Option<(u64, u32)> {
            loop {
                let popped = queue.pop();
                if let Some(fresh) = fresh {
                    assert_eq!(popped, fresh.pop(), "a reset queue pops like a new one");
                }
                match popped {
                    None => return None,
                    Some((t, Item::Msg(l))) => return Some((t, l)),
                    Some((t, Item::Timer(l, key))) => {
                        if timers.fire(key) {
                            live.retain(|&(ll, _)| ll != l);
                            return Some((t, l));
                        }
                        // Cancelled while queued: skip, like the engine.
                    }
                }
            }
        };
        let pop_ref = |ref_heap: &mut BinaryHeap<std::cmp::Reverse<(u64, u64, u32)>>,
                           ref_cancelled: &mut HashSet<u32>|
         -> Option<(u64, u32)> {
            loop {
                match ref_heap.pop() {
                    None => return None,
                    Some(std::cmp::Reverse((t, _, l))) => {
                        if ref_cancelled.remove(&l) {
                            continue;
                        }
                        return Some((t, l));
                    }
                }
            }
        };

        for op in ops {
            now += 1;
            match op {
                QOp::Push(dt) => {
                    let t = now + u64::from(dt % 4);
                    push_new(&mut queue, &mut fresh, t, Item::Msg(label));
                    ref_heap.push(std::cmp::Reverse((t, ref_seq, label)));
                    ref_seq += 1;
                    label += 1;
                }
                QOp::Timer(dt) => {
                    let t = now + u64::from(dt % 4);
                    let key = timers.alloc();
                    push_new(&mut queue, &mut fresh, t, Item::Timer(label, key));
                    ref_heap.push(std::cmp::Reverse((t, ref_seq, label)));
                    ref_seq += 1;
                    live.push((label, key));
                    label += 1;
                }
                QOp::Cancel(i) => {
                    if !live.is_empty() {
                        let (l, key) = live.remove(i as usize % live.len());
                        prop_assert!(timers.cancel(key));
                        ref_cancelled.insert(l);
                    }
                }
                QOp::Pop => {
                    popped_new.push(pop_new(&mut queue, &mut fresh, &mut timers, &mut live));
                    popped_ref.push(pop_ref(&mut ref_heap, &mut ref_cancelled));
                }
                QOp::Reset => {
                    reset_mark = queue.slab_slots();
                    queue.reset();
                    prop_assert!(queue.is_empty() && queue.peek_time().is_none());
                    timers.reset();
                    fresh = Some(EventQueue::new());
                    ref_heap.clear();
                    ref_cancelled.clear();
                    live.clear();
                }
            }
        }
        // Drain both completely: the full pop sequence must match.
        loop {
            let a = pop_new(&mut queue, &mut fresh, &mut timers, &mut live);
            let b = pop_ref(&mut ref_heap, &mut ref_cancelled);
            let done = a.is_none() && b.is_none();
            popped_new.push(a);
            popped_ref.push(b);
            if done {
                break;
            }
        }
        prop_assert_eq!(popped_new, popped_ref);
        // Slot recycling: the slab never exceeds the number of timers that
        // were ever live at once (bounded by total arms, unaffected by
        // cancel volume).
        prop_assert!(timers.slots() <= label as usize);
        // A reset queue keeps its slab and refills it slot for slot like a
        // new queue, so it grows only past the size it had reached.
        if let Some(fresh) = &fresh {
            prop_assert_eq!(queue.slab_slots(), reset_mark.max(fresh.slab_slots()));
        }
    }

    /// FIFO per sender-receiver pair: messages sent in order arrive in
    /// order, whatever the sampled delays.
    #[test]
    fn per_pair_delivery_is_fifo(
        seed in any::<u64>(),
        count in 1u32..40,
        timeslice in 0u64..20_000_000,
        jitter in 0u64..1_000_000,
    ) {
        let mut sim: Simulation<u32> = Simulation::new(seed);
        sim.set_network(NetworkConfig {
            ipc: LatencyModel { base_ns: 10_000, jitter_ns: jitter },
            tcp: LatencyModel { base_ns: 100_000, jitter_ns: jitter },
        });
        let h1 = sim.add_host(HostConfig::new("h1").timeslice_ns(timeslice));
        let h2 = sim.add_host(HostConfig::new("h2").timeslice_ns(timeslice));
        let log = Rc::new(RefCell::new(Vec::new()));
        let sink = sim.spawn(h2, Box::new(Sink { log: log.clone() }));
        sim.spawn(h1, Box::new(Burst { target: sink, count }));
        sim.run();
        let log = log.borrow();
        prop_assert_eq!(log.len(), count as usize);
        for (i, (_, msg)) in log.iter().enumerate() {
            prop_assert_eq!(*msg, i as u32, "out-of-order delivery");
        }
        // Delivery times strictly increase (FIFO tie-breaking).
        for w in log.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
    }

    /// Identical seeds give identical traces; the engine is deterministic.
    #[test]
    fn runs_are_deterministic(seed in any::<u64>(), count in 1u32..20) {
        let run = |seed: u64| {
            let mut sim: Simulation<u32> = Simulation::new(seed);
            let h1 = sim.add_host(HostConfig::new("h1").timeslice_ns(5_000_000));
            let h2 = sim.add_host(HostConfig::new("h2").timeslice_ns(5_000_000));
            let log = Rc::new(RefCell::new(Vec::new()));
            let sink = sim.spawn(h2, Box::new(Sink { log: log.clone() }));
            sim.spawn(h1, Box::new(Burst { target: sink, count }));
            sim.run();
            let v = log.borrow().clone();
            (v, sim.now())
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// What the campaign driver's one-world-per-worker loop rests on: a
    /// world driven through any sequence of schedules, with `reset(seed)`
    /// and a respawn between them, ends each schedule in exactly the state
    /// a fresh world reaches running that schedule alone.
    #[test]
    fn reset_world_replays_any_sequence_of_schedules_like_fresh_worlds(
        schedules in prop::collection::vec(
            (any::<u64>(), 1u32..30, 0u64..20_000_000, 0u64..1_000_000),
            1..8,
        ),
    ) {
        let mut config = WorldConfig::new();
        config.set_network(NetworkConfig {
            ipc: LatencyModel { base_ns: 10_000, jitter_ns: 500_000 },
            tcp: LatencyModel { base_ns: 100_000, jitter_ns: 500_000 },
        });
        // Give every schedule the max timeslice drawn so the shared config
        // is fixed while seeds/counts still vary per schedule.
        let slice = schedules.iter().map(|s| s.2).max().unwrap_or(0);
        let h1 = config.add_host(HostConfig::new("h1").timeslice_ns(slice)).unwrap();
        let h2 = config.add_host(HostConfig::new("h2").timeslice_ns(slice)).unwrap();
        let config = Arc::new(config);

        // Spawns the schedule on a pristine world, runs it dry, and reads
        // everything a later experiment could observe.
        let drive = |sim: &mut Simulation<u32>, count: u32| {
            let log = Rc::new(RefCell::new(Vec::new()));
            let sink = sim.spawn(h2, Box::new(Sink { log: log.clone() }));
            sim.spawn(h1, Box::new(Burst { target: sink, count }));
            sim.run();
            let delivered = log.borrow().clone();
            (sim.now(), sim.events_processed(), delivered, sim.rng().next_u64())
        };

        let mut reused: Simulation<u32> = Simulation::with_config(config.clone(), 0);
        for (i, &(seed, count, _, _)) in schedules.iter().enumerate() {
            reused.reset(seed);
            let mut fresh = Simulation::with_config(config.clone(), seed);
            prop_assert_eq!(
                drive(&mut reused, count),
                drive(&mut fresh, count),
                "schedule {} diverged on the reset-reused world", i
            );
        }
    }

    /// Virtual clocks are monotone along simulation time.
    #[test]
    fn clocks_are_monotone(
        offset in 0.0f64..1e9,
        ppm in -500.0f64..500.0,
        instants in prop::collection::vec(0u64..10_000_000_000, 2..20),
    ) {
        use loki_clock::params::{ClockParams, VirtualClock};
        let clock = VirtualClock::new(ClockParams::with_drift_ppm(offset, ppm));
        let mut sorted = instants.clone();
        sorted.sort_unstable();
        let mut last = None;
        for t in sorted {
            let reading = clock.read(t);
            if let Some(prev) = last {
                prop_assert!(reading >= prev);
            }
            last = Some(reading);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `run_exchanges` is event-for-event the echo/originator actor pairs
    /// it replaced: the same rounds in the same callback order, the same
    /// final clock, event count and RNG state — and, with a containment
    /// budget armed anywhere inside the session, the same trip point.
    #[test]
    fn exchange_merge_matches_the_actor_pairs(
        (seed, start_ns, sched_enabled) in (any::<u64>(), 0u64..5_000_000_000, any::<bool>()),
        hosts in prop::collection::vec(
            (
                0.0f64..1e9,
                -500.0f64..500.0,
                prop_oneof![Just(1u64), Just(1_000u64), Just(1_000_000u64)],
                prop_oneof![Just(0u64), 0u64..2_000_000],
            ),
            1..=6,
        ),
        (ipc, tcp) in (latency_strategy(), latency_strategy()),
        placements in prop::collection::vec(0usize..6, 1..=5),
        (rounds, interval_ns) in (0u32..=25, prop_oneof![Just(0u64), 0u64..3_000_000]),
        (budget_kind, budget_frac) in (0u8..3, 0.0f64..1.1),
    ) {
        let mut config = WorldConfig::new();
        config.set_network(NetworkConfig { ipc, tcp });
        for (i, &(offset, ppm, granularity_ns, timeslice_ns)) in hosts.iter().enumerate() {
            let clock = ClockParams::with_drift_ppm(offset, ppm).granularity(granularity_ns);
            let host = HostConfig::new(&format!("h{i}")).clock(clock).timeslice_ns(timeslice_ns);
            config.add_host(host).unwrap();
        }
        // Initiators may share a host with each other or with the
        // responder (host 0): the IPC link and repeated hosts are in.
        let session = Session {
            config: Arc::new(config),
            seed,
            start_ns,
            sched_enabled,
            initiators: placements.iter().map(|&p| HostId((p % hosts.len()) as u32)).collect(),
            rounds,
            interval_ns,
        };

        let unbounded = session.by_actors((None, None));
        // Two starts, three events a round bar the last pause, the notice.
        let per_chain = if rounds == 0 { 3 } else { 3 * u64::from(rounds) + 2 };
        prop_assert_eq!(unbounded.events, session.initiators.len() as u64 * per_chain);
        prop_assert_eq!(&session.by_merge((None, None)), &unbounded);

        // A budget armed at a random event count, or at a random virtual
        // time, inside (or just past) the session.
        let budget = match budget_kind {
            0 => (None, Some((unbounded.events as f64 * budget_frac) as u64)),
            1 => {
                let span = (unbounded.now - start_ns) as f64 * budget_frac;
                (Some(start_ns + span as u64), None)
            }
            _ => (None, None),
        };
        let bounded = session.by_actors(budget);
        prop_assert_eq!(&session.by_merge(budget), &bounded);
    }
}
