//! A real-concurrency backend: nodes as OS threads.
//!
//! The simulation backend is deterministic and models delays explicitly;
//! this backend runs every node as an actual thread exchanging messages
//! over channels, with *virtual per-host clocks* (synthetic offset/drift
//! over one monotonic epoch) so the off-line clock synchronization and the
//! conservative correctness check operate on genuinely concurrent,
//! nondeterministic executions. The output is the same
//! [`ExperimentData`] the analysis phase consumes.
//!
//! Applications are ordinary [`App`] implementations — the same ones that
//! run on the simulation backend. This module is a transport adapter over
//! the shared node core ([`crate::app`]): it contributes channels, real
//! timers, virtual clocks, and the coordinator (completion, timeout,
//! restart on a different virtual host); the state machines, partial
//! views, edge-triggered injection, recording, and sync mini-phases come
//! from the core and are therefore identical to the simulation backend by
//! construction. Notifications route directly (the original runtime's
//! design); the daemon topologies exist in the simulation backend where
//! their latencies can be controlled.
//!
//! Wall-clock experiments gain nothing from the campaign driver's
//! recycling, so this backend runs one experiment per call of
//! [`run_thread_experiment`]; a campaign on threads is a loop over
//! experiment indices, each result analyzed with
//! `loki_analysis::analyze_one`.

use crate::app::{App, AppFactory, NodeCore, Payload, Port};
use crate::harness::{validate_hosts, CampaignError, SimHarnessConfig};
use crate::messages::SmTargets;
use loki_clock::params::{fastest_reference, ClockParams, VirtualClock};
use loki_core::campaign::{
    ExperimentData, ExperimentEnd, ExperimentFailure, HostSync, SyncSample, Warning,
};
use loki_core::ids::{HostId, SmId, StateId, SymbolTable};
use loki_core::recorder::{LocalTimeline, RecordKind, Recorder};
use loki_core::study::Study;
use loki_core::time::LocalNanos;
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::mpsc::{RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Messages delivered to a node thread.
enum TMsg {
    /// A remote state notification.
    Notify { from: SmId, state: StateId },
    /// A restarted machine asks for our current state.
    StateUpdateRequest { for_sm: SmId },
    /// An application message.
    App { from: SmId, payload: Payload },
    /// Coordinator orders the node killed (timeout/abort).
    Kill,
}

/// Routing table shared by all node threads (the application's name
/// service plus Loki's transport).
#[derive(Clone, Default)]
struct Router {
    inner: Arc<RwLock<HashMap<SmId, Sender<TMsg>>>>,
}

impl Router {
    fn insert(&self, sm: SmId, tx: Sender<TMsg>) {
        self.inner.write().insert(sm, tx);
    }
    fn remove(&self, sm: SmId) {
        self.inner.write().remove(&sm);
    }
    fn send(&self, to: SmId, msg: TMsg) {
        if let Some(tx) = self.inner.read().get(&to) {
            let _ = tx.send(msg);
        }
    }
    fn machines(&self) -> Vec<SmId> {
        let mut v: Vec<SmId> = self.inner.read().keys().copied().collect();
        v.sort();
        v
    }
    fn contains(&self, sm: SmId) -> bool {
        self.inner.read().contains_key(&sm)
    }
}

/// What a finished node reports to the coordinator.
enum NodeReport {
    Exited {
        timeline: LocalTimeline,
    },
    Crashed {
        sm: SmId,
        timeline: LocalTimeline,
    },
    /// The node thread's body panicked. There is no timeline — the
    /// recorder was consumed by the unwind — only the panic note; the
    /// coordinator fails the experiment as
    /// [`ExperimentFailure::AppPanic`].
    Panicked {
        sm: SmId,
        note: String,
    },
}

#[derive(Copy, Clone, PartialEq, Eq)]
enum LifeCycle {
    Running,
    Crashing,
    Exiting,
}

/// One-shot timers of a node thread, ordered by monotonic deadline.
#[derive(Default)]
struct ThreadTimers {
    /// `Reverse((deadline_ns, id, tag))` — min-heap over deadlines.
    heap: BinaryHeap<std::cmp::Reverse<(u64, u64, u64)>>,
    next_id: u64,
    cancelled: HashSet<u64>,
}

impl ThreadTimers {
    fn arm(&mut self, deadline_ns: u64, tag: u64) -> u64 {
        self.next_id += 1;
        self.heap
            .push(std::cmp::Reverse((deadline_ns, self.next_id, tag)));
        self.next_id
    }

    fn cancel(&mut self, id: u64) {
        // Tombstone only ids still in the heap: cancelling an
        // already-fired (or already-cancelled) timer must not grow
        // `cancelled` forever.
        if self
            .heap
            .iter()
            .any(|&std::cmp::Reverse((_, i, _))| i == id)
        {
            self.cancelled.insert(id);
        }
    }

    /// Pops the next live timer if its deadline has passed; `Err(deadline)`
    /// when the earliest live timer is still pending, `Err(None)`-like
    /// `Ok(None)` when empty.
    fn due(&mut self, now_ns: u64) -> Result<Option<u64>, u64> {
        while let Some(std::cmp::Reverse((deadline, id, tag))) = self.heap.peek().copied() {
            if self.cancelled.remove(&id) {
                self.heap.pop();
                continue;
            }
            if deadline <= now_ns {
                self.heap.pop();
                return Ok(Some(tag));
            }
            return Err(deadline);
        }
        Ok(None)
    }
}

/// The per-callback `Port` implementation over channels, virtual clocks,
/// and real timers.
struct ThreadPort<'a> {
    router: &'a Router,
    clock: &'a VirtualClock,
    epoch: Instant,
    host: HostId,
    recorder: &'a mut Recorder,
    timers: &'a mut ThreadTimers,
    rng: &'a mut StdRng,
    life: &'a mut LifeCycle,
}

impl Port for ThreadPort<'_> {
    fn now(&self) -> LocalNanos {
        self.clock.read(self.epoch.elapsed().as_nanos() as u64)
    }

    fn record(&mut self, time: LocalNanos, kind: RecordKind) {
        self.recorder.record(time, kind);
    }

    fn notify(&mut self, from: SmId, state: StateId, targets: SmTargets) {
        for target in targets {
            self.router.send(target, TMsg::Notify { from, state });
        }
    }

    fn send_app(&mut self, from: SmId, to: SmId, payload: Payload) {
        self.router.send(to, TMsg::App { from, payload });
    }

    fn set_timer(&mut self, delay_ns: u64, tag: u64) -> u64 {
        let deadline = self.epoch.elapsed().as_nanos() as u64 + delay_ns;
        self.timers.arm(deadline, tag)
    }

    fn cancel_timer(&mut self, raw: u64) {
        self.timers.cancel(raw);
    }

    fn crash(&mut self) {
        *self.life = LifeCycle::Crashing;
    }

    fn exit(&mut self) {
        *self.life = LifeCycle::Exiting;
    }

    fn terminating(&self) -> bool {
        *self.life != LifeCycle::Running
    }

    fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    fn is_live(&self, sm: SmId) -> bool {
        self.router.contains(sm)
    }

    fn host_id(&self) -> HostId {
        self.host
    }
}

/// Configuration of the thread backend.
#[derive(Clone, Debug)]
pub struct ThreadHarnessConfig {
    /// Virtual hosts: `(name, clock model)`. Placements in the study refer
    /// to these names.
    pub hosts: Vec<(String, ClockParams)>,
    /// Sync-exchange rounds per mini-phase.
    pub sync_rounds: u32,
    /// Wall-clock experiment timeout.
    pub timeout: Duration,
    /// Restart policy: `Some(probability)` restarts crashed nodes once, on
    /// the next virtual host.
    pub restart_probability: Option<f64>,
    /// RNG seed for application/restart decisions (thread interleaving
    /// remains nondeterministic).
    pub seed: u64,
}

impl Default for ThreadHarnessConfig {
    fn default() -> Self {
        ThreadHarnessConfig {
            hosts: vec![
                ("host1".to_owned(), ClockParams::with_drift_ppm(0.0, 90.0)),
                ("host2".to_owned(), ClockParams::with_drift_ppm(2e6, -40.0)),
                ("host3".to_owned(), ClockParams::with_drift_ppm(5e5, 30.0)),
            ],
            sync_rounds: 25,
            timeout: Duration::from_secs(20),
            restart_probability: None,
            seed: 0,
        }
    }
}

impl From<&SimHarnessConfig> for ThreadHarnessConfig {
    /// Derives the thread runner's configuration from a simulation one:
    /// same hosts (names + clock models), sync rounds, timeout, seed, and
    /// — as the closest thread equivalent of the supervisor — the restart
    /// probability.
    fn from(cfg: &SimHarnessConfig) -> Self {
        ThreadHarnessConfig {
            hosts: cfg
                .hosts
                .iter()
                .map(|h| (h.name.clone(), h.clock))
                .collect(),
            sync_rounds: cfg.sync_rounds,
            timeout: Duration::from_nanos(cfg.timeout_ns),
            restart_probability: cfg.restart.map(|p| p.probability),
            seed: cfg.seed,
        }
    }
}

/// Runs experiment `experiment` of `study` with every node as an OS
/// thread and returns its raw data, which the analysis consumes like a
/// simulated experiment's.
///
/// The host list is checked before anything runs, exactly as the
/// simulation checks it: an empty list, a duplicate name, or a machine
/// placed on a host the list lacks is a [`CampaignError::Hosts`].
pub fn run_thread_experiment(
    study: &Arc<Study>,
    factory: AppFactory,
    cfg: &ThreadHarnessConfig,
    experiment: u32,
) -> Result<ExperimentData, CampaignError> {
    validate_hosts(study, cfg.hosts.iter().map(|(n, _)| n.as_str()))?;
    let symbols = Arc::new(SymbolTable::for_hosts(cfg.hosts.iter().map(|(n, _)| n)));
    let epoch = Instant::now();
    let clocks: Vec<VirtualClock> = cfg
        .hosts
        .iter()
        .map(|(_, params)| VirtualClock::new(*params))
        .collect();
    let reference = fastest_reference(cfg.hosts.iter().map(|(n, c)| (n.as_str(), c)))
        .expect("host list checked non-empty");
    let ref_idx = cfg
        .hosts
        .iter()
        .position(|(n, _)| n == reference)
        .expect("reference host exists");
    let reference = HostId::from_raw(ref_idx as u32);

    // --- pre-sync mini-phase -------------------------------------------------
    let pre_sync = sync_phase(&clocks, ref_idx, epoch, cfg.sync_rounds);

    // --- runtime phase ---------------------------------------------------------
    let router = Router::default();
    let (report_tx, report_rx) = std::sync::mpsc::channel::<NodeReport>();

    let mut host_of: HashMap<SmId, HostId> = HashMap::new();
    let mut handles = Vec::new();
    let mut running = 0usize;
    let mut warnings: Vec<Warning> = Vec::new();
    for (sm, host) in &study.placements {
        let Some(host) = host else { continue };
        let host = symbols.lookup_host(host).expect("placements checked");
        let clock = clocks[host.index()];
        host_of.insert(*sm, host);
        handles.push(spawn_node(
            study.clone(),
            symbols.clone(),
            factory.clone(),
            *sm,
            host,
            clock,
            epoch,
            router.clone(),
            report_tx.clone(),
            None,
            cfg.seed ^ (sm.raw() as u64) << 17 ^ experiment as u64,
        ));
        running += 1;
    }

    // --- coordinator: completion, timeout, restarts ----------------------------
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(experiment as u64));
    let mut timelines: Vec<LocalTimeline> = Vec::new();
    let mut restarts: HashMap<SmId, u32> = HashMap::new();
    let deadline = Instant::now() + cfg.timeout;
    let mut end = ExperimentEnd::Completed;
    // Broadcasts Kill and drains the remaining reports (threads exit on
    // Kill; a hung thread is dealt with by the bounded join below).
    let kill_and_drain =
        |running: &mut usize, timelines: &mut Vec<LocalTimeline>, warnings: &mut Vec<Warning>| {
            for sm in router.machines() {
                router.send(sm, TMsg::Kill);
            }
            while *running > 0 {
                if let Ok(report) = report_rx.recv_timeout(Duration::from_secs(5)) {
                    match report {
                        NodeReport::Exited { timeline } | NodeReport::Crashed { timeline, .. } => {
                            timelines.push(timeline)
                        }
                        NodeReport::Panicked { sm, note } => {
                            warnings.push(Warning::AppPanic { sm, note })
                        }
                    }
                    *running -= 1;
                } else {
                    break;
                }
            }
        };
    while running > 0 {
        let now = Instant::now();
        if now >= deadline {
            end = ExperimentEnd::TimedOut;
            kill_and_drain(&mut running, &mut timelines, &mut warnings);
            break;
        }
        match report_rx.recv_timeout(deadline - now) {
            Ok(NodeReport::Exited { timeline }) => {
                timelines.push(timeline);
                running -= 1;
            }
            Ok(NodeReport::Panicked { sm, note }) => {
                running -= 1;
                // A panicking application fails the experiment (typed, not
                // propagated); the survivors are torn down so the harness
                // gets its threads back promptly.
                end = ExperimentEnd::Failed(ExperimentFailure::AppPanic);
                warnings.push(Warning::AppPanic { sm, note });
                kill_and_drain(&mut running, &mut timelines, &mut warnings);
                break;
            }
            Ok(NodeReport::Crashed { sm, timeline }) => {
                running -= 1;
                let attempts = restarts.entry(sm).or_insert(0);
                let restart = match cfg.restart_probability {
                    Some(p) if *attempts < 1 => {
                        use rand::Rng;
                        p >= 1.0 || rng.gen_bool(p.clamp(0.0, 1.0))
                    }
                    _ => false,
                };
                if restart {
                    *attempts += 1;
                    // Restart on the *next* virtual host.
                    let idx = host_of.get(&sm).map(|h| h.index()).unwrap_or(0);
                    let new_idx = (idx + 1) % cfg.hosts.len();
                    let new_host = HostId::from_raw(new_idx as u32);
                    host_of.insert(sm, new_host);
                    handles.push(spawn_node(
                        study.clone(),
                        symbols.clone(),
                        factory.clone(),
                        sm,
                        new_host,
                        VirtualClock::new(cfg.hosts[new_idx].1),
                        epoch,
                        router.clone(),
                        report_tx.clone(),
                        Some(timeline),
                        cfg.seed ^ 0xdead ^ (sm.raw() as u64) << 9,
                    ));
                    running += 1;
                } else {
                    timelines.push(timeline);
                }
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Bounded-grace join: a livelocked node (an application spinning in a
    // callback, deaf to `Kill`) must not hang the whole campaign on a
    // blocking `join`. Threads still running when the grace window closes
    // are detached — their router entries are unreachable and their report
    // channel is about to drop, so they cannot touch this or any later
    // experiment's data — and the experiment is failed by the wall-clock
    // watchdog.
    let grace = Instant::now() + Duration::from_secs(2);
    let mut hung = 0usize;
    for handle in handles {
        loop {
            if handle.is_finished() {
                let _ = handle.join();
                break;
            }
            if Instant::now() >= grace {
                hung += 1;
                break; // drop the handle: detach the thread
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    if hung > 0 {
        end = ExperimentEnd::Failed(ExperimentFailure::BudgetWallClock);
        warnings.push(Warning::HungThreads { count: hung });
    }
    timelines.sort_by_key(|t| t.sm);

    // --- post-sync mini-phase ----------------------------------------------------
    let post_sync = sync_phase(&clocks, ref_idx, epoch, cfg.sync_rounds);

    Ok(ExperimentData {
        study: study.name.clone(),
        experiment,
        timelines,
        hosts: symbols.host_ids().collect(),
        reference_host: reference,
        symbols,
        pre_sync,
        post_sync,
        end,
        warnings,
    })
}

/// Exchanges timestamps between the reference clock and every other host's
/// clock. Both reads happen on this machine's monotonic clock with real
/// elapsed time in between, so every constraint the estimator derives is
/// physically valid.
fn sync_phase(
    clocks: &[VirtualClock],
    ref_idx: usize,
    epoch: Instant,
    rounds: u32,
) -> Vec<HostSync> {
    let ref_clock = &clocks[ref_idx];
    let mut out = Vec::new();
    for (idx, clock) in clocks.iter().enumerate() {
        if idx == ref_idx {
            continue;
        }
        let mut samples = Vec::new();
        for _ in 0..rounds {
            // reference → machine
            let send = ref_clock.read(epoch.elapsed().as_nanos() as u64);
            busy_wait_ns(2_000);
            let recv = clock.read(epoch.elapsed().as_nanos() as u64);
            samples.push(SyncSample {
                from_reference: true,
                send,
                recv,
            });
            // machine → reference
            let send = clock.read(epoch.elapsed().as_nanos() as u64);
            busy_wait_ns(2_000);
            let recv = ref_clock.read(epoch.elapsed().as_nanos() as u64);
            samples.push(SyncSample {
                from_reference: false,
                send,
                recv,
            });
        }
        out.push(HostSync {
            host: HostId::from_raw(idx as u32),
            samples,
        });
    }
    out
}

fn busy_wait_ns(ns: u64) {
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_node(
    study: Arc<Study>,
    symbols: Arc<SymbolTable>,
    factory: AppFactory,
    sm_id: SmId,
    host: HostId,
    clock: VirtualClock,
    epoch: Instant,
    router: Router,
    report: Sender<NodeReport>,
    prior: Option<LocalTimeline>,
    seed: u64,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        // The whole node body runs under `catch_unwind`: a panicking
        // application callback becomes a typed `Panicked` report instead
        // of a thread that died silently (and a `join` Err the harness
        // would have to guess about).
        let panic_router = router.clone();
        let panic_report = report.clone();
        let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            run_node_body(
                study, symbols, factory, sm_id, host, clock, epoch, router, report, prior, seed,
            );
        }));
        if let Err(payload) = body {
            panic_router.remove(sm_id);
            let _ = panic_report.send(NodeReport::Panicked {
                sm: sm_id,
                note: crate::contain::panic_note(payload.as_ref()),
            });
        }
    })
}

#[allow(clippy::too_many_arguments)]
fn run_node_body(
    study: Arc<Study>,
    symbols: Arc<SymbolTable>,
    factory: AppFactory,
    sm_id: SmId,
    host: HostId,
    clock: VirtualClock,
    epoch: Instant,
    router: Router,
    report: Sender<NodeReport>,
    prior: Option<LocalTimeline>,
    seed: u64,
) {
    {
        let (tx, rx) = std::sync::mpsc::channel::<TMsg>();
        let restarted = prior.is_some();
        let mut recorder = match prior {
            // Resume the earlier timeline: new host stint + restart record
            // (§3.6.3).
            Some(t) => {
                let now = clock.read(epoch.elapsed().as_nanos() as u64);
                Recorder::resume(t, now, host)
            }
            None => Recorder::new(sm_id, host),
        };

        let mut core = NodeCore::new(study.clone(), symbols, sm_id);
        core.restarted = restarted;
        let mut timers = ThreadTimers::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut app = factory(&study, sm_id);
        let mut life = LifeCycle::Running;

        router.insert(sm_id, tx);
        if restarted {
            // Ask everyone for state updates (§3.6.3).
            for peer in router.machines() {
                if peer != sm_id {
                    router.send(peer, TMsg::StateUpdateRequest { for_sm: sm_id });
                }
            }
        }

        // Helper: run one app callback through the shared core (which
        // records, routes notifications, and drains pending injections).
        macro_rules! with_app {
            ($f:expr) => {{
                let mut port = ThreadPort {
                    router: &router,
                    clock: &clock,
                    epoch,
                    host,
                    recorder: &mut recorder,
                    timers: &mut timers,
                    rng: &mut rng,
                    life: &mut life,
                };
                core.run_callback(&mut port, app.as_mut(), $f);
            }};
        }

        with_app!(|app, ctx| app.on_start(ctx, restarted));

        while life == LifeCycle::Running {
            // Earliest timer deadline bounds the wait.
            let now_ns = epoch.elapsed().as_nanos() as u64;
            let wait = match timers.due(now_ns) {
                Ok(Some(tag)) => {
                    with_app!(move |app, ctx| app.on_timer(ctx, tag));
                    continue;
                }
                Err(deadline) => Duration::from_nanos(deadline - now_ns),
                Ok(None) => Duration::from_millis(50),
            };
            match rx.recv_timeout(wait) {
                Ok(TMsg::Notify { from, state }) => {
                    if core.apply_remote(from, state) {
                        // Injections may be pending; drain via a no-op
                        // callback.
                        with_app!(|_, _| {});
                    }
                }
                Ok(TMsg::StateUpdateRequest { for_sm }) => {
                    let mut port = ThreadPort {
                        router: &router,
                        clock: &clock,
                        epoch,
                        host,
                        recorder: &mut recorder,
                        timers: &mut timers,
                        rng: &mut rng,
                        life: &mut life,
                    };
                    core.state_update_reply(&mut port, for_sm);
                }
                Ok(TMsg::App { from, payload }) => {
                    with_app!(
                        move |app: &mut dyn App, ctx: &mut crate::app::NodeCtx<'_>| {
                            app.on_app_message(ctx, from, payload)
                        }
                    );
                }
                Ok(TMsg::Kill) => {
                    life = LifeCycle::Crashing;
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }

        router.remove(sm_id);
        match life {
            // Exit notifications were already sent by the core when the
            // application called `exit()` (§3.6.2).
            LifeCycle::Exiting => {
                let _ = report.send(NodeReport::Exited {
                    timeline: recorder.finish(),
                });
            }
            _ => {
                // Crash: the dying node records it and notifies the CRASH
                // state's list on its own behalf (the overridden-signal-
                // handler path, §3.6.2).
                let mut port = ThreadPort {
                    router: &router,
                    clock: &clock,
                    epoch,
                    host,
                    recorder: &mut recorder,
                    timers: &mut timers,
                    rng: &mut rng,
                    life: &mut life,
                };
                core.record_self_crash(&mut port);
                let _ = report.send(NodeReport::Crashed {
                    sm: sm_id,
                    timeline: recorder.finish(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::NodeCtx;
    use loki_analysis::{analyze, AnalysisOptions};
    use loki_core::fault::{FaultExpr, Trigger};
    use loki_core::spec::{StateMachineSpec, StudyDef};

    fn wo_study() -> Arc<Study> {
        let def = StudyDef::new("wo")
            .machine(
                StateMachineSpec::builder("worker")
                    .states(&["INIT", "BUSY", "DONE"])
                    .events(&["GO", "FINISH"])
                    .state("INIT", &["observer"], &[("GO", "BUSY")])
                    .state("BUSY", &["observer"], &[("FINISH", "DONE")])
                    .state("DONE", &["observer"], &[])
                    .build(),
            )
            .machine(
                StateMachineSpec::builder("observer")
                    .states(&["WATCH"])
                    .events(&["STOP"])
                    .state("WATCH", &[], &[("STOP", "EXIT")])
                    .build(),
            )
            .fault(
                "observer",
                "f",
                FaultExpr::atom("worker", "BUSY"),
                Trigger::Once,
            )
            .place("worker", "host1")
            .place("observer", "host2");
        Study::compile_arc(&def).unwrap()
    }

    struct Worker;
    impl App for Worker {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _restarted: bool) {
            ctx.notify_event("INIT").unwrap();
            ctx.set_timer(30_000_000, 1);
        }
        fn on_app_message(&mut self, _: &mut NodeCtx<'_>, _: SmId, _: Payload) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
            match tag {
                1 => {
                    ctx.notify_event("GO").unwrap();
                    ctx.set_timer(80_000_000, 2); // 80 ms of BUSY
                }
                2 => {
                    ctx.notify_event("FINISH").unwrap();
                    ctx.exit();
                }
                _ => {}
            }
        }
        fn on_fault(&mut self, _: &mut NodeCtx<'_>, _: &str) {}
    }

    struct Observer;
    impl App for Observer {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _restarted: bool) {
            ctx.notify_event("WATCH").unwrap();
            ctx.set_timer(250_000_000, 1);
        }
        fn on_app_message(&mut self, _: &mut NodeCtx<'_>, _: SmId, _: Payload) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
            if tag == 1 {
                ctx.notify_event("STOP").unwrap();
                ctx.exit();
            }
        }
        fn on_fault(&mut self, _: &mut NodeCtx<'_>, _: &str) {}
    }

    fn factory() -> AppFactory {
        Arc::new(|study: &Study, sm| -> Box<dyn App> {
            if study.sms.name(sm) == "worker" {
                Box::new(Worker)
            } else {
                Box::new(Observer)
            }
        })
    }

    #[test]
    fn thread_experiment_runs_injects_and_passes_analysis() {
        let study = wo_study();
        let mut cfg = ThreadHarnessConfig::default();
        cfg.hosts.truncate(2);
        let data = run_thread_experiment(&study, factory(), &cfg, 0).unwrap();
        assert_eq!(data.end, ExperimentEnd::Completed);
        assert_eq!(data.timelines.len(), 2);
        assert_eq!(data.total_injections(), 1);
        assert!(!data.pre_sync.is_empty() && !data.post_sync.is_empty());

        // The same off-line pipeline consumes thread-backend output. With
        // an 80 ms BUSY window and channel latencies in the microseconds,
        // the injection is provably correct.
        let analyzed = analyze(&study, vec![data], &AnalysisOptions::default());
        assert!(analyzed[0].accepted(), "{:?}", analyzed[0].verdict());
    }

    /// Runs the worker/observer study on `hosts` and returns the error.
    fn host_error(hosts: Vec<(String, ClockParams)>) -> String {
        let cfg = ThreadHarnessConfig {
            hosts,
            ..Default::default()
        };
        match run_thread_experiment(&wo_study(), factory(), &cfg, 0) {
            Err(CampaignError::Hosts(message)) => message,
            other => panic!("expected a host-list error, got {other:?}"),
        }
    }

    #[test]
    fn placement_on_an_unknown_host_is_a_typed_error() {
        let mut hosts = ThreadHarnessConfig::default().hosts;
        hosts.truncate(1); // the observer's host2 is gone
        let message = host_error(hosts);
        assert!(message.contains("unknown host `host2`"), "{message}");
    }

    #[test]
    fn an_empty_host_list_is_a_typed_error() {
        let message = host_error(Vec::new());
        assert!(message.contains("at least one host"), "{message}");
    }

    #[test]
    fn a_duplicate_host_name_is_a_typed_error() {
        // Interned naively, the second `host1` would get an id of its own,
        // and the observer on `host2` would run on that host's clock.
        let hosts = ThreadHarnessConfig::default().hosts;
        let message = host_error(vec![hosts[0].clone(), hosts[0].clone(), hosts[1].clone()]);
        assert!(
            message.contains("duplicate host name \"host1\""),
            "{message}"
        );
    }

    #[test]
    fn thread_config_derives_from_sim_config() {
        let mut cfg = SimHarnessConfig::three_hosts(99);
        cfg.timeout_ns = 5_000_000_000;
        cfg.restart = Some(crate::daemons::RestartPolicy {
            probability: 0.5,
            ..Default::default()
        });
        let t = ThreadHarnessConfig::from(&cfg);
        assert_eq!(t.hosts.len(), 3);
        assert_eq!(t.hosts[0].0, "host1");
        assert_eq!(t.timeout, Duration::from_secs(5));
        assert_eq!(t.restart_probability, Some(0.5));
        assert_eq!(t.seed, 99);
    }

    #[test]
    fn thread_timeout_kills_everything() {
        struct Immortal;
        impl App for Immortal {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _: bool) {
                ctx.notify_event("WATCH").unwrap();
            }
            fn on_app_message(&mut self, _: &mut NodeCtx<'_>, _: SmId, _: Payload) {}
            fn on_fault(&mut self, _: &mut NodeCtx<'_>, _: &str) {}
        }
        let def = StudyDef::new("s")
            .machine(StateMachineSpec::builder("a").states(&["WATCH"]).build())
            .place("a", "host1");
        let study = Study::compile_arc(&def).unwrap();
        let cfg = ThreadHarnessConfig {
            hosts: vec![("host1".to_owned(), ClockParams::ideal())],
            timeout: Duration::from_millis(200),
            ..Default::default()
        };
        let f: AppFactory = Arc::new(|_, _| Box::new(Immortal));
        let data = run_thread_experiment(&study, f, &cfg, 0).unwrap();
        assert_eq!(data.end, ExperimentEnd::TimedOut);
    }

    #[test]
    fn thread_crash_and_restart_on_other_host() {
        struct Crasher;
        impl App for Crasher {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>, restarted: bool) {
                if restarted {
                    ctx.notify_event("DONE").unwrap(); // init alias to DONE
                    ctx.set_timer(20_000_000, 9);
                } else {
                    ctx.notify_event("INIT").unwrap();
                    ctx.set_timer(30_000_000, 1);
                }
            }
            fn on_app_message(&mut self, _: &mut NodeCtx<'_>, _: SmId, _: Payload) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
                match tag {
                    1 => {
                        ctx.notify_event("GO").unwrap(); // -> BUSY triggers fault
                    }
                    9 => ctx.exit(),
                    _ => {}
                }
            }
            fn on_fault(&mut self, ctx: &mut NodeCtx<'_>, _: &str) {
                ctx.crash();
            }
        }
        let def = StudyDef::new("s")
            .machine(
                StateMachineSpec::builder("a")
                    .states(&["INIT", "BUSY", "DONE"])
                    .events(&["GO"])
                    .state("INIT", &[], &[("GO", "BUSY")])
                    .state("BUSY", &[], &[])
                    .state("DONE", &[], &[])
                    .build(),
            )
            .fault("a", "kill", FaultExpr::atom("a", "BUSY"), Trigger::Once)
            .place("a", "host1");
        let study = Study::compile_arc(&def).unwrap();
        let cfg = ThreadHarnessConfig {
            hosts: vec![
                ("host1".to_owned(), ClockParams::ideal()),
                ("host2".to_owned(), ClockParams::with_drift_ppm(1e6, 50.0)),
            ],
            restart_probability: Some(1.0),
            timeout: Duration::from_secs(10),
            ..Default::default()
        };
        let f: AppFactory = Arc::new(|_, _| Box::new(Crasher));
        let data = run_thread_experiment(&study, f, &cfg, 0).unwrap();
        assert_eq!(data.end, ExperimentEnd::Completed);
        let t = data.timeline_for(study.sm_id("a").unwrap()).unwrap();
        let host2 = data.symbols.lookup_host("host2").unwrap();
        assert_eq!(t.stints.len(), 2);
        assert_eq!(data.host_name(t.stints[0].host), "host1");
        assert_eq!(t.stints[1].host, host2);
        assert!(t
            .records
            .iter()
            .any(|r| matches!(&r.kind, RecordKind::Restart { host } if *host == host2)));
        assert_eq!(t.injection_count(), 1);
    }

    #[test]
    fn cancelled_thread_timer_never_fires() {
        struct Canceller;
        impl App for Canceller {
            fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _: bool) {
                ctx.notify_event("WATCH").unwrap();
                let doomed = ctx.set_timer(10_000_000, 1); // would crash
                ctx.cancel_timer(doomed);
                ctx.set_timer(40_000_000, 2); // exits
            }
            fn on_app_message(&mut self, _: &mut NodeCtx<'_>, _: SmId, _: Payload) {}
            fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
                match tag {
                    1 => ctx.crash(),
                    2 => ctx.exit(),
                    _ => {}
                }
            }
            fn on_fault(&mut self, _: &mut NodeCtx<'_>, _: &str) {}
        }
        let def = StudyDef::new("s")
            .machine(StateMachineSpec::builder("a").states(&["WATCH"]).build())
            .place("a", "host1");
        let study = Study::compile_arc(&def).unwrap();
        let cfg = ThreadHarnessConfig {
            hosts: vec![("host1".to_owned(), ClockParams::ideal())],
            timeout: Duration::from_secs(5),
            ..Default::default()
        };
        let f: AppFactory = Arc::new(|_, _| Box::new(Canceller));
        let data = run_thread_experiment(&study, f, &cfg, 0).unwrap();
        assert_eq!(data.end, ExperimentEnd::Completed);
    }
}
