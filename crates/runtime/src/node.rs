//! The node: one component of the system under study together with its
//! Loki runtime (§2.2.2), embodied as one simulated actor.
//!
//! The application half is supplied by the user as an implementation of
//! the [`App`] trait. The runtime half — state machine, partial view of
//! global state, positive-edge fault parser, recorder, injection drain loop
//! — is this module's private `Runtime`. Every callback receives a
//! [`NodeCtx`], which pairs the simulator's actor context with that
//! runtime: state notifications route through the configured §3.4.1
//! design (local daemon, direct, or centralized), timelines live in the
//! shared [`TimelineStore`](crate::store::TimelineStore) (the thesis's
//! NFS-mounted files, so the local daemon can append crash records after
//! the node dies), and timers, clocks and the RNG come from the
//! deterministic simulation.
//!
//! The probe interface mirrors the thesis exactly: the application calls
//! [`NodeCtx::notify_event`] where the thesis's probe calls
//! `notifyEvent()`, and the runtime calls [`App::on_fault`] where the
//! thesis's fault parser calls the probe's `injectFault()`.

use crate::daemons::ExpCtx;
use crate::messages::{NotifyRouting, RtMsg, SmTargets};
use loki_core::campaign::{ExperimentFailure, Receiver, Warning};
use loki_core::error::CoreError;
use loki_core::fault::FaultParser;
use loki_core::ids::{FaultId, HostId, SmId, StateId};
use loki_core::probe::{ActionProbe, FaultAction};
use loki_core::recorder::{RecordKind, TimelineRecord};
use loki_core::state_machine::StateMachine;
use loki_core::study::Study;
use loki_core::time::LocalNanos;
use loki_sim::engine::{ActorId, Ctx, DownReason, TimerId};
use rand::rngs::StdRng;
use std::any::Any;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// Application-defined payload carried by application messages.
///
/// `Rc` lets an application broadcast a payload to many peers without
/// cloning the underlying data. A world lives and dies on one worker
/// thread, so a payload never crosses threads.
pub type Payload = Rc<dyn Any>;

/// The application half of a node: the system under study plus its probe.
///
/// All callbacks receive a [`NodeCtx`] that exposes the probe interface
/// (`notify_event`), application messaging, timers, clocks, and crash/exit
/// controls. An instance lives and dies on the worker whose world created
/// it, so implementations need not be `Send`.
pub trait App {
    /// Called when the node starts. `restarted` is true when the node found
    /// its earlier timeline (it crashed and was restarted, §3.6.3); the
    /// first `notify_event` call must then name the restart entry state.
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>, restarted: bool);

    /// Called for each application message from another node.
    fn on_app_message(&mut self, ctx: &mut NodeCtx<'_>, from: SmId, payload: Payload);

    /// Called when an application timer fires.
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// The probe's `injectFault()`: perform the actual fault injection.
    /// The injection time is recorded by the runtime immediately before
    /// this call.
    fn on_fault(&mut self, ctx: &mut NodeCtx<'_>, fault: &str);
}

/// Creates the application half of a node. Called once per (re)start of a
/// machine, so stateful applications get a fresh instance each incarnation.
///
/// The factory is `Send + Sync` (and `Arc`-shared) so one factory can be
/// handed to every worker of the parallel experiment executor
/// ([`crate::harness::run_study`]); the [`App`] instances it produces stay
/// where they were created.
pub type AppFactory = Arc<dyn Fn(&Study, SmId) -> Box<dyn App> + Send + Sync>;

/// Handle to an application timer set via [`NodeCtx::set_timer`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AppTimer(TimerId);

/// The runtime half of one node incarnation: its wiring (experiment
/// context, machine, daemon), the state machine owning the partial view,
/// the positive-edge fault parser, and the injections queued for the
/// drain loop.
struct Runtime {
    ctx: Rc<ExpCtx>,
    me: SmId,
    daemon: ActorId,
    sm: StateMachine,
    parser: FaultParser,
    restarted: bool,
    pending_faults: VecDeque<FaultId>,
}

impl Runtime {
    /// Re-targets a recycled runtime at a new incarnation of machine `me`
    /// (same study): the state machine's view storage is reused in place,
    /// and when the runtime last embodied the *same* machine its compiled
    /// fault set is reused too. Observationally identical to a fresh one.
    fn reinit(&mut self, me: SmId, daemon: ActorId) {
        self.sm.reinit(me);
        if self.me == me {
            self.parser.reset_all();
        } else {
            self.parser = FaultParser::new(self.ctx.study.faults_owned_by(me));
            self.me = me;
        }
        self.daemon = daemon;
        self.restarted = false;
        self.pending_faults.clear();
    }

    /// Re-evaluates the fault expressions mentioning `changed`; queues
    /// injections for the drain loop.
    fn reparse(&mut self, changed: SmId) {
        for fault in self.parser.on_machine_change(self.sm.view(), changed) {
            self.pending_faults.push_back(fault);
        }
    }
}

/// The actor embodying one node (application + runtime).
pub struct NodeActor {
    app: Box<dyn App>,
    rt: Runtime,
}

impl NodeActor {
    /// Creates the node for `me`, attached to `daemon`.
    pub(crate) fn new(ctx: Rc<ExpCtx>, me: SmId, daemon: ActorId, app: Box<dyn App>) -> Self {
        let sm = StateMachine::new(ctx.study.clone(), me);
        let parser = FaultParser::new(ctx.study.faults_owned_by(me));
        NodeActor {
            app,
            rt: Runtime {
                ctx,
                me,
                daemon,
                sm,
                parser,
                restarted: false,
                pending_faults: VecDeque::new(),
            },
        }
    }

    /// Re-targets a pooled hull at a new machine incarnation. The context
    /// is unchanged (hulls are pooled per experiment slot); the runtime's
    /// per-incarnation state — state machine interpreter and fault parser —
    /// is reset in place, reusing its storage.
    pub(crate) fn reinit(&mut self, me: SmId, daemon: ActorId, app: Box<dyn App>) {
        self.rt.reinit(me, daemon);
        self.app = app;
    }

    /// The machine this hull (last) embodied — lets the pool hand a hull
    /// back to the same machine, whose compiled fault set it can then
    /// reuse as-is.
    pub(crate) fn embodies(&self) -> SmId {
        self.rt.me
    }

    /// Runs an application callback, then drains pending fault injections.
    ///
    /// The callback runs under [`std::panic::catch_unwind`]: a panicking
    /// application fails *its* experiment — marked
    /// [`ExperimentFailure::AppPanic`] with the panic note kept as a
    /// [`Warning::AppPanic`] — and the node crashes through the ordinary
    /// simulated-crash path so daemon teardown stays deterministic. The
    /// world itself is quarantined by the pipeline afterwards, so any
    /// state the unwind left half-updated never leaks into another
    /// experiment.
    fn with_app(
        &mut self,
        ctx: &mut Ctx<'_, RtMsg>,
        f: impl FnOnce(&mut dyn App, &mut NodeCtx<'_>),
    ) {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let app = self.app.as_mut();
            let mut node = NodeCtx {
                sim: ctx.reborrow(),
                rt: &mut self.rt,
            };
            f(app, &mut node);
            node.drain(app);
        }));
        if let Err(payload) = outcome {
            let note = crate::contain::panic_note(payload.as_ref());
            self.rt.ctx.control.mark_failed(ExperimentFailure::AppPanic);
            self.rt.ctx.warn(Warning::AppPanic {
                sm: self.rt.me,
                note,
            });
            ctx.crash_self();
        }
    }
}

impl loki_sim::engine::Actor<RtMsg> for NodeActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, RtMsg>) {
        let me = self.rt.me;
        let host = HostId::from_raw(ctx.my_host().0);
        let now = ctx.local_clock();

        // Restart detection: the timeline file already exists (§3.6.3).
        // `begin_life` applies the `Recorder` stint/restart bookkeeping in
        // place, without round-tripping the timeline out of the store.
        let restarted = self.rt.ctx.store.begin_life(me, now, host);
        self.rt.restarted = restarted;

        // Contact the local daemon (the thesis's shared-memory connect).
        ctx.send(self.rt.daemon, RtMsg::Register { sm: me, restarted });
        // Join the application's name service.
        self.rt.ctx.directory.insert(me, ctx.me());

        // A restarted machine asks all others for state updates (§3.6.3).
        if restarted {
            ctx.send(self.rt.daemon, RtMsg::StateUpdateRequest { for_sm: me });
        }

        self.with_app(ctx, |app, node| app.on_start(node, restarted));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, RtMsg>, _from: ActorId, msg: RtMsg) {
        match msg {
            RtMsg::DeliverNotify { from_sm, state } => {
                if self.rt.sm.apply_remote(from_sm, state) {
                    self.rt.reparse(from_sm);
                }
                // Injections may have been queued; drain via a no-op
                // application callback.
                self.with_app(ctx, |_, _| {});
            }
            RtMsg::StateUpdateRequest { for_sm } => {
                // Another (restarted) machine asks for our state (§3.6.3).
                if for_sm != self.rt.me && self.rt.sm.is_initialized() {
                    let state = self.rt.sm.state();
                    NodeCtx {
                        sim: ctx.reborrow(),
                        rt: &mut self.rt,
                    }
                    .notify(state, SmTargets::one(for_sm));
                }
            }
            RtMsg::App { from_sm, payload } => {
                self.with_app(ctx, |app, node| app.on_app_message(node, from_sm, payload));
            }
            other => self.rt.ctx.warn(Warning::UnexpectedMessage {
                receiver: Receiver::Node,
                message: format!("{other:?}"),
            }),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, RtMsg>, tag: u64) {
        self.with_app(ctx, |app, node| app.on_timer(node, tag));
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}

/// The context handed to [`App`] callbacks: the simulator's actor context
/// plus the node's runtime.
pub struct NodeCtx<'a> {
    sim: Ctx<'a, RtMsg>,
    rt: &'a mut Runtime,
}

impl NodeCtx<'_> {
    /// Appends to this node's local timeline, stamped with its host clock.
    fn record(&mut self, kind: RecordKind) {
        let time = self.sim.local_clock();
        self.rt.ctx.store.with_mut(self.rt.me, |t| {
            t.records.push(TimelineRecord { time, kind });
        });
    }

    /// Routes a notification of this node's `state` to `targets` through
    /// the experiment's §3.4.1 design. The target list is inline
    /// ([`SmTargets`]) so the steady-state path allocates nothing.
    fn notify(&mut self, state: StateId, targets: SmTargets) {
        let from_sm = self.rt.me;
        match self.rt.ctx.routing {
            NotifyRouting::ThroughDaemons | NotifyRouting::Centralized => {
                self.sim.send(
                    self.rt.daemon,
                    RtMsg::Notify {
                        from_sm,
                        state,
                        targets,
                    },
                );
            }
            NotifyRouting::Direct => {
                for target in targets {
                    match self.rt.ctx.directory.lookup(target) {
                        Some(actor) => self
                            .sim
                            .send(actor, RtMsg::DeliverNotify { from_sm, state }),
                        None => self.rt.ctx.warn(Warning::DroppedNotification {
                            from: from_sm,
                            to: target,
                        }),
                    }
                }
            }
        }
    }

    /// Drains pending fault injections after an application callback (each
    /// injection may itself notify events and queue more injections,
    /// FIFO). Stops as soon as the node has asked to go down; when the
    /// request that stands is a clean exit, the exit notifications are
    /// sent (§3.6.2).
    fn drain(&mut self, app: &mut dyn App) {
        while self.sim.down_request().is_none() {
            let Some(fault) = self.rt.pending_faults.pop_front() else {
                break;
            };
            self.record(RecordKind::FaultInjection { fault });
            // Borrow the name through a local `Rc` bump instead of copying
            // the string out of the study.
            let ctx = Rc::clone(&self.rt.ctx);
            app.on_fault(self, ctx.study.fault_names.name(fault));
        }
        if self.sim.down_request() == Some(DownReason::Exit) {
            self.send_exit_notifications();
        }
    }

    /// On clean exit: enter the `EXIT` state (if the application has not
    /// already transitioned there) and notify all other machines (§3.6.2).
    fn send_exit_notifications(&mut self) {
        let ctx = Rc::clone(&self.rt.ctx);
        let study = &ctx.study;
        let exit_state = study.reserved.exit;
        if self.rt.sm.state() != exit_state {
            self.record(RecordKind::StateChange {
                event: study.init_alias(exit_state),
                new_state: exit_state,
            });
        }
        let me = self.rt.me;
        let targets: SmTargets = study.sms.ids().filter(|&sm| sm != me).collect();
        self.notify(exit_state, targets);
    }

    /// The probe's event notification (`notifyEvent()`): informs the state
    /// machine of a local event. The first call initializes the machine
    /// (§3.5.7). State changes are recorded, remote machines on the new
    /// state's notify list are notified, and fault expressions re-evaluated.
    ///
    /// # Errors
    ///
    /// Returns the state machine's error when the event has no transition
    /// or the initial notification is invalid.
    pub fn notify_event(&mut self, name: &str) -> Result<(), CoreError> {
        let outcome = if self.rt.sm.is_initialized() {
            self.rt.sm.apply_event_name(name)?
        } else {
            self.rt.sm.initialize(name)?
        };
        self.record(RecordKind::StateChange {
            event: outcome.event,
            new_state: outcome.new_state,
        });
        if !outcome.notify.is_empty() {
            self.notify(outcome.new_state, outcome.notify);
        }
        self.rt.reparse(self.rt.me);
        Ok(())
    }

    /// Sends an application message to another machine (on the application's
    /// own connections, not through Loki). Silently dropped if the target is
    /// not currently executing.
    pub fn send_to(&mut self, to: SmId, payload: Payload) {
        if let Some(actor) = self.rt.ctx.directory.lookup(to) {
            self.sim.send(
                actor,
                RtMsg::App {
                    from_sm: self.rt.me,
                    payload,
                },
            );
        }
    }

    /// Broadcasts an application message to every other executing machine,
    /// in ascending id order. Allocates nothing: it probes each machine of
    /// the study for liveness.
    pub fn broadcast(&mut self, payload: Payload) {
        for sm in self.rt.ctx.study.sms.ids() {
            if sm != self.rt.me {
                self.send_to(sm, payload.clone());
            }
        }
    }

    /// Sets an application timer.
    pub fn set_timer(&mut self, delay_ns: u64, tag: u64) -> AppTimer {
        AppTimer(self.sim.set_timer(delay_ns, tag))
    }

    /// Cancels an application timer.
    pub fn cancel_timer(&mut self, timer: AppTimer) {
        self.sim.cancel_timer(timer.0);
    }

    /// Reads this node's host clock (local time).
    pub fn local_time(&self) -> LocalNanos {
        self.sim.local_clock()
    }

    /// Crashes this node: the process dies without cleanup; the local
    /// daemon detects and records the crash (§3.6.2).
    pub fn crash(&mut self) {
        self.sim.crash_self();
    }

    /// Exits this node cleanly: an exit notification is sent to all other
    /// machines and the runtime is informed (the thesis's `notifyOnExit()`).
    /// Of `exit` and [`NodeCtx::crash`] in one callback, the later call
    /// decides how the node goes down.
    pub fn exit(&mut self) {
        self.sim.exit_self();
    }

    /// The node's RNG (the world's deterministic one).
    pub fn rng(&mut self) -> &mut StdRng {
        self.sim.rng()
    }

    /// This node's state machine id.
    pub fn my_sm(&self) -> SmId {
        self.rt.me
    }

    /// This node's nickname.
    pub fn my_name(&self) -> &str {
        self.rt.ctx.study.sms.name(self.rt.me)
    }

    /// Nickname of any machine.
    pub fn sm_name(&self, sm: SmId) -> &str {
        self.rt.ctx.study.sms.name(sm)
    }

    /// Whether `sm` is currently executing (the application's name
    /// service). Enumerate the study's machines, alive or not, in
    /// ascending id order with `study().sms.ids()`.
    pub fn is_live(&self, sm: SmId) -> bool {
        self.rt.ctx.directory.lookup(sm).is_some()
    }

    /// The compiled study.
    pub fn study(&self) -> &Arc<Study> {
        &self.rt.ctx.study
    }

    /// The host this node currently runs on.
    pub fn host_id(&self) -> HostId {
        // Simulation host indices follow the harness configuration order,
        // which is exactly the symbol table's interning order.
        HostId::from_raw(self.sim.my_host().0)
    }

    /// The name of the host this node currently runs on.
    pub fn host_name(&self) -> &str {
        self.rt.ctx.symbols.host_name(self.host_id())
    }

    /// Whether this incarnation is a restart.
    pub fn is_restarted(&self) -> bool {
        self.rt.restarted
    }

    /// Appends a free-form message to the local timeline. Accepts anything
    /// convertible into a `String`, so callers holding an owned `String`
    /// move it instead of re-allocating.
    pub fn record_user_message(&mut self, message: impl Into<String>) {
        self.record(RecordKind::UserMessage(message.into()));
    }

    /// Applies a network fault action ([`FaultAction::Partition`],
    /// [`FaultAction::Heal`], [`FaultAction::LinkFault`],
    /// [`FaultAction::GrayNode`]) to the simulated message fabric, the
    /// usual body of an [`App::on_fault`] arm. Returns whether it took
    /// effect: `false` for an action that is not a network action, and
    /// when the action's parameters are rejected, which is recorded as a
    /// [`Warning::NetFaultRejected`].
    pub fn apply_net_fault(&mut self, action: &FaultAction) -> bool {
        self.sim.apply_net_fault(action).unwrap_or_else(|e| {
            self.rt.ctx.warn(Warning::NetFaultRejected {
                reason: e.to_string(),
            });
            false
        })
    }

    /// Looks up `fault` in `probe`, recording a miss on a study fault as a
    /// [`Warning::UnmappedFault`] when the table is non-empty (a
    /// configured-but-unmapped name is a likely misspelling in the study's
    /// fault specs; an empty table means the application handles every
    /// name itself, which is policy, not a typo). Applications with a
    /// default action for unmapped names should still call this for the
    /// warning and handle `None` with their default.
    pub fn probe_action<'p>(
        &mut self,
        probe: &'p ActionProbe,
        fault: &str,
    ) -> Option<&'p FaultAction> {
        let action = probe.action_for(fault);
        if action.is_none() && !probe.is_empty() {
            if let Some(fault) = self.rt.ctx.study.fault_names.lookup(fault) {
                self.rt.ctx.warn(Warning::UnmappedFault { fault });
            }
        }
        action
    }
}
