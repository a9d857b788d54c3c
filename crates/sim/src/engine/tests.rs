use super::*;
use crate::config::LatencyModel;
use loki_core::probe::FaultAction;
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

/// A kill drains the dead actor's watcher list and hands the buffer back,
/// and a reset clears it in place: a reused world keeps every list's
/// allocation.
#[test]
fn watcher_lists_keep_their_buffers_across_kill_and_reset() {
    let (mut sim, h1, _) = two_host_sim(3);
    let seen = Rc::new(RefCell::new(None));
    let crasher = ActorId(1);
    for _ in 0..2 {
        sim.spawn(
            h1,
            Box::new(Watcher {
                target: crasher,
                seen: seen.clone(),
            }),
        );
        sim.spawn(h1, Box::new(CrashOnStart));
        assert!(sim.step(), "the watcher's start registers the watch");
        let buffer = sim.watchers[crasher.0 as usize].as_ptr();
        sim.run();
        assert_eq!(*seen.borrow(), Some((crasher, DownReason::Crash)));
        let list = &sim.watchers[crasher.0 as usize];
        assert!(list.is_empty());
        assert_eq!(list.as_ptr(), buffer, "the kill dropped the buffer");
        sim.reset(4);
        assert_eq!(sim.watchers[crasher.0 as usize].as_ptr(), buffer);
        seen.take();
    }
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
    let h2 = sim.add_host(HostConfig::new("h2").clock(ClockParams::with_drift_ppm(5000.0, 100.0)));
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
    let mut a: Simulation<Msg> = Simulation::closed(config.clone(), 1);
    let b: Simulation<Msg> = Simulation::closed(config.clone(), 2);
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
