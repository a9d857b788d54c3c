//! `NodeCtx::broadcast` reaches exactly the live peers, sends in ascending
//! id order, and allocates nothing once warm. The library crates forbid
//! `unsafe`, so the counting allocator lives in this test crate.

use loki_core::campaign::{ExperimentData, ExperimentEnd};
use loki_core::ids::SmId;
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_runtime::harness::{run_experiment, SimHarnessConfig};
use loki_runtime::{App, AppFactory, NodeCtx, Payload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and reallocations per thread.
struct Counting;

fn count_one() {
    // `try_with`: a thread's locals may be gone while it still allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments to `System` unchanged; the
// counter is a `const`-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MS: u64 = 1_000_000;
const ROUNDS: usize = 32;
/// Rounds that may allocate while the event queue grows to its high-water
/// mark.
const WARM_UP: usize = 8;

/// `n1` sends a pre-built payload every 3 ms from 20 ms on, by
/// `ctx.broadcast` or (with `to`) by `send_to` in the listed order, and
/// logs the allocations of each round's sends.
struct Sender {
    to: Option<Vec<SmId>>,
    payload: Payload,
    log: Arc<Mutex<Vec<u64>>>,
}

/// `n2` crashes at 5 ms, before the first round; the others record whom
/// they hear from and exit at 200 ms.
struct Peer {
    crashes: bool,
}

impl App for Sender {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _: bool) {
        ctx.notify_event("RUN").unwrap();
        ctx.set_timer(20 * MS, 0);
    }

    fn on_app_message(&mut self, _: &mut NodeCtx<'_>, _: SmId, _: Payload) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: u64) {
        let before = ALLOCATIONS.with(Cell::get);
        match &self.to {
            None => ctx.broadcast(self.payload.clone()),
            Some(to) => to
                .iter()
                .for_each(|&sm| ctx.send_to(sm, self.payload.clone())),
        }
        let made = ALLOCATIONS.with(Cell::get) - before;
        let mut log = self.log.lock().unwrap();
        log.push(made);
        if log.len() < ROUNDS {
            ctx.set_timer(3 * MS, 0);
        } else {
            ctx.exit();
        }
    }

    fn on_fault(&mut self, _: &mut NodeCtx<'_>, _: &str) {}
}

impl App for Peer {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _: bool) {
        ctx.notify_event("RUN").unwrap();
        ctx.set_timer(if self.crashes { 5 * MS } else { 200 * MS }, 0);
    }

    fn on_app_message(&mut self, ctx: &mut NodeCtx<'_>, from: SmId, _: Payload) {
        let from = ctx.sm_name(from).to_owned();
        ctx.record_user_message(from);
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _: u64) {
        if self.crashes {
            ctx.crash();
        } else {
            ctx.exit();
        }
    }

    fn on_fault(&mut self, _: &mut NodeCtx<'_>, _: &str) {}
}

/// One experiment of the four-machine study with `n1` sending as `to`
/// says; returns its data and the allocations of each round.
fn run(study: &Arc<Study>, to: Option<Vec<SmId>>) -> (ExperimentData, Vec<u64>) {
    let log = Arc::new(Mutex::new(Vec::with_capacity(ROUNDS)));
    let sender_log = log.clone();
    let factory: AppFactory = Arc::new(move |study: &Study, sm| -> Box<dyn App> {
        match study.sms.name(sm) {
            "n1" => Box::new(Sender {
                to: to.clone(),
                payload: Rc::new(7u32),
                log: sender_log.clone(),
            }),
            name => Box::new(Peer {
                crashes: name == "n2",
            }),
        }
    });
    let data = run_experiment(study, factory, &SimHarnessConfig::three_hosts(31), 0).unwrap();
    assert_eq!(data.end, ExperimentEnd::Completed);
    let rounds = log.lock().unwrap().clone();
    (data, rounds)
}

#[test]
fn broadcast_reaches_live_peers_in_ascending_order_without_allocating() {
    let mut def = StudyDef::new("broadcast");
    for (name, host) in [
        ("n0", "host1"),
        ("n1", "host2"),
        ("n2", "host3"),
        ("n3", "host1"),
    ] {
        def = def
            .machine(StateMachineSpec::builder(name).states(&["RUN"]).build())
            .place(name, host);
    }
    let study = Study::compile_arc(&def).unwrap();
    let sm = |name: &str| study.sm_id(name).unwrap();

    let (data, rounds) = run(&study, None);
    assert_eq!(rounds.len(), ROUNDS);
    assert!(
        rounds[WARM_UP..].iter().all(|&n| n == 0),
        "a warm broadcast allocated: {rounds:?}"
    );

    // Every round reaches the live peers, not the sender itself nor the
    // machine that crashed before the first round.
    let heard = |name: &str| {
        let timeline = data.timeline_for(sm(name)).unwrap();
        timeline
            .records
            .iter()
            .filter(|r| timeline.user_message(r.kind) == Some("n1"))
            .count()
    };
    assert_eq!(
        [heard("n0"), heard("n1"), heard("n2"), heard("n3")],
        [ROUNDS, 0, 0, ROUNDS]
    );

    // Each send draws its link delay from the experiment's RNG, so the data
    // equals that of explicit sends only in the same order: ascending.
    assert_eq!(data, run(&study, Some(vec![sm("n0"), sm("n3")])).0);
    assert_ne!(data, run(&study, Some(vec![sm("n3"), sm("n0")])).0);
}
