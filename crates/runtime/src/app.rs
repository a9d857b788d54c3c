//! The portable node core: the application interface.
//!
//! A *node* is one component of the system under study together with its
//! Loki runtime (§2.2.2). The runtime half — state machine, partial view of
//! global state, positive-edge fault parser, recorder, injection drain loop
//! — is system-independent; it lives in the crate-private `NodeCore`. The
//! application half is supplied by the user as an implementation of the
//! [`App`] trait and runs on the deterministic simulator ([`crate::node`],
//! [`crate::harness`]): virtual time, modelled scheduling and link delays,
//! byte-identical replays.
//!
//! The node adapter contributes only a thin transport layer (the
//! crate-private `Port` trait): how to deliver a notification, read a
//! clock, set a timer, record a timeline entry. Everything else — what to
//! record, when to re-evaluate fault expressions, how injections drain,
//! how exits and crashes propagate — lives in the core.
//!
//! The probe interface mirrors the thesis exactly: the application calls
//! [`NodeCtx::notify_event`] where the thesis's probe calls
//! `notifyEvent()`, and the runtime calls [`App::on_fault`] where the
//! thesis's fault parser calls the probe's `injectFault()`.

use crate::messages::SmTargets;
use loki_core::campaign::Warning;
use loki_core::error::CoreError;
use loki_core::fault::FaultParser;
use loki_core::ids::{FaultId, HostId, SmId, StateId, SymbolTable};
use loki_core::probe::{ActionProbe, FaultAction};
use loki_core::recorder::RecordKind;
use loki_core::state_machine::StateMachine;
use loki_core::study::Study;
use loki_core::time::LocalNanos;
use rand::rngs::StdRng;
use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

/// Application-defined payload carried by application messages.
///
/// `Arc` lets an application broadcast a payload to many peers without
/// cloning the underlying data. A world runs on one worker thread, so a
/// payload never crosses threads in practice.
pub type Payload = Arc<dyn Any + Send + Sync>;

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
pub struct AppTimer(pub(crate) u64);

/// The transport adapter: everything the node core needs from the world.
///
/// Implemented by the node adapter over the simulated actor context. As a
/// trait object it erases the context's second lifetime, which keeps the
/// public [`NodeCtx<'_>`] single-lifetime.
pub(crate) trait Port {
    /// This node's host clock (local time).
    fn now(&self) -> LocalNanos;
    /// Appends to this node's local timeline.
    fn record(&mut self, time: LocalNanos, kind: RecordKind);
    /// Routes a state notification from `from` to `targets` (the
    /// backend's notification design: through daemons, direct, …). The
    /// target list is inline ([`crate::messages::SmTargets`]) so the
    /// steady-state notification path allocates nothing.
    fn notify(&mut self, from: SmId, state: StateId, targets: SmTargets);
    /// Delivers an application message on the application's own
    /// connections. Silently dropped if the target is not executing.
    fn send_app(&mut self, from: SmId, to: SmId, payload: Payload);
    /// Arms a one-shot timer; returns a backend-specific raw handle.
    fn set_timer(&mut self, delay_ns: u64, tag: u64) -> u64;
    /// Cancels a timer by raw handle.
    fn cancel_timer(&mut self, raw: u64);
    /// Crashes this node (no cleanup).
    fn crash(&mut self);
    /// Exits this node cleanly.
    fn exit(&mut self);
    /// Whether the node is going down (crash or exit was requested).
    fn terminating(&self) -> bool;
    /// The world's deterministic RNG.
    fn rng(&mut self) -> &mut StdRng;
    /// Whether `sm` is currently executing (the application's name
    /// service).
    fn is_live(&self, sm: SmId) -> bool;
    /// The host this node currently runs on (an id into the study-run
    /// symbol table).
    fn host_id(&self) -> HostId;
    /// Applies a network fault action to the simulated message fabric.
    /// Returns whether it took effect.
    fn net_fault(&mut self, action: &FaultAction) -> bool;
    /// Records a runtime warning in the experiment's data.
    fn warn(&mut self, warning: Warning);
}

/// The node runtime: state machine (owning the partial view),
/// positive-edge fault parser, recording discipline, and the injection
/// drain loop. The node adapter embeds exactly one `NodeCore` per node
/// incarnation and drives it through its `Port`.
pub(crate) struct NodeCore {
    pub study: Arc<Study>,
    pub symbols: Arc<SymbolTable>,
    pub sm: StateMachine,
    pub parser: FaultParser,
    pub me: SmId,
    pub restarted: bool,
    pub exiting: bool,
    pub pending_faults: VecDeque<FaultId>,
}

impl NodeCore {
    /// Creates the runtime core for machine `me`.
    pub fn new(study: Arc<Study>, symbols: Arc<SymbolTable>, me: SmId) -> Self {
        let sm = StateMachine::new(study.clone(), me);
        let parser = FaultParser::new(study.faults_owned_by(me));
        NodeCore {
            study,
            symbols,
            sm,
            parser,
            me,
            restarted: false,
            exiting: false,
            pending_faults: VecDeque::new(),
        }
    }

    /// Re-targets a recycled core at a new incarnation of machine `me`
    /// (same study): the state machine's view storage is reused in place,
    /// and when the core last embodied the *same* machine its compiled
    /// fault set is reused too. Observationally identical to
    /// `NodeCore::new(study, symbols, me)`.
    pub fn reinit(&mut self, me: SmId) {
        self.sm.reinit(me);
        if self.me == me {
            self.parser.reset_all();
        } else {
            self.parser = FaultParser::new(self.study.faults_owned_by(me));
            self.me = me;
        }
        self.restarted = false;
        self.exiting = false;
        self.pending_faults.clear();
    }

    /// Applies a local event (or the initial notification): records the
    /// state change, routes the new state's notify list, and re-evaluates
    /// fault expressions over the changed view entry.
    fn apply_local(&mut self, port: &mut dyn Port, name: &str) -> Result<(), CoreError> {
        let outcome = if self.sm.is_initialized() {
            self.sm.apply_event_name(name)?
        } else {
            self.sm.initialize(name)?
        };
        let now = port.now();
        port.record(
            now,
            RecordKind::StateChange {
                event: outcome.event,
                new_state: outcome.new_state,
            },
        );
        if !outcome.notify.is_empty() {
            port.notify(self.me, outcome.new_state, outcome.notify);
        }
        self.reparse(self.me);
        Ok(())
    }

    /// Incorporates a remote state notification; returns whether the view
    /// changed (and injections may be pending).
    pub fn apply_remote(&mut self, from: SmId, state: StateId) -> bool {
        if self.sm.apply_remote(from, state) {
            self.reparse(from);
            true
        } else {
            false
        }
    }

    /// Re-evaluates the fault expressions mentioning `changed`; queues
    /// injections for the drain loop.
    fn reparse(&mut self, changed: SmId) {
        for fault in self.parser.on_machine_change(self.sm.view(), changed) {
            self.pending_faults.push_back(fault);
        }
    }

    /// Replies to a restarted machine's state-update request (§3.6.3).
    pub fn state_update_reply(&mut self, port: &mut dyn Port, for_sm: SmId) {
        if for_sm != self.me && self.sm.is_initialized() {
            port.notify(self.me, self.sm.state(), SmTargets::one(for_sm));
        }
    }

    /// Runs one application callback, then drains pending fault injections
    /// (each injection may itself notify events and queue more injections,
    /// FIFO). Stops immediately if the application crashed/exited the
    /// node; on a clean exit the exit notifications are sent (§3.6.2).
    pub fn run_callback(
        &mut self,
        port: &mut dyn Port,
        app: &mut dyn App,
        f: impl FnOnce(&mut dyn App, &mut NodeCtx<'_>),
    ) {
        f(app, &mut NodeCtx { core: self, port });
        while !port.terminating() {
            let Some(fault) = self.pending_faults.pop_front() else {
                break;
            };
            let now = port.now();
            port.record(now, RecordKind::FaultInjection { fault });
            // Borrow the name through a local `Arc` bump instead of copying
            // the string out of the study.
            let study = Arc::clone(&self.study);
            let name = study.fault_names.name(fault);
            app.on_fault(&mut NodeCtx { core: self, port }, name);
        }
        if port.terminating() && self.exiting {
            self.send_exit_notifications(port);
        }
    }

    /// On clean exit: enter the `EXIT` state (if the application has not
    /// already transitioned there) and notify all other machines (§3.6.2).
    fn send_exit_notifications(&mut self, port: &mut dyn Port) {
        let exit_state = self.study.reserved.exit;
        if self.sm.state() != exit_state {
            let now = port.now();
            let alias = self.study.init_alias(exit_state);
            port.record(
                now,
                RecordKind::StateChange {
                    event: alias,
                    new_state: exit_state,
                },
            );
        }
        let me = self.me;
        let targets: SmTargets = self.study.sms.ids().filter(|&sm| sm != me).collect();
        port.notify(me, exit_state, targets);
        self.exiting = false;
    }
}

/// The context handed to [`App`] callbacks.
pub struct NodeCtx<'a> {
    pub(crate) core: &'a mut NodeCore,
    pub(crate) port: &'a mut (dyn Port + 'a),
}

impl NodeCtx<'_> {
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
        self.core.apply_local(self.port, name)
    }

    /// Sends an application message to another machine (on the application's
    /// own connections, not through Loki). Silently dropped if the target is
    /// not currently executing.
    pub fn send_to(&mut self, to: SmId, payload: Payload) {
        self.port.send_app(self.core.me, to, payload);
    }

    /// Broadcasts an application message to every other executing machine,
    /// in ascending id order. Allocates nothing: it probes each machine of
    /// the study for liveness.
    pub fn broadcast(&mut self, payload: Payload) {
        let me = self.core.me;
        for sm in self.core.study.sms.ids() {
            if sm != me && self.port.is_live(sm) {
                self.port.send_app(me, sm, payload.clone());
            }
        }
    }

    /// Sets an application timer.
    pub fn set_timer(&mut self, delay_ns: u64, tag: u64) -> AppTimer {
        AppTimer(self.port.set_timer(delay_ns, tag))
    }

    /// Cancels an application timer.
    pub fn cancel_timer(&mut self, timer: AppTimer) {
        self.port.cancel_timer(timer.0);
    }

    /// Reads this node's host clock (local time).
    pub fn local_time(&self) -> LocalNanos {
        self.port.now()
    }

    /// Crashes this node: the process dies without cleanup; the local
    /// daemon detects and records the crash (§3.6.2).
    pub fn crash(&mut self) {
        self.port.crash();
    }

    /// Exits this node cleanly: an exit notification is sent to all other
    /// machines and the runtime is informed (the thesis's `notifyOnExit()`).
    pub fn exit(&mut self) {
        self.core.exiting = true;
        self.port.exit();
    }

    /// The node's RNG (the world's deterministic one).
    pub fn rng(&mut self) -> &mut StdRng {
        self.port.rng()
    }

    /// This node's state machine id.
    pub fn my_sm(&self) -> SmId {
        self.core.me
    }

    /// This node's nickname.
    pub fn my_name(&self) -> &str {
        self.core.study.sms.name(self.core.me)
    }

    /// Nickname of any machine.
    pub fn sm_name(&self, sm: SmId) -> &str {
        self.core.study.sms.name(sm)
    }

    /// All machines of the study (alive or not).
    pub fn machines(&self) -> Vec<SmId> {
        self.core.study.sms.ids().collect()
    }

    /// Machines currently executing (from the application's name service),
    /// in ascending id order.
    pub fn live_machines(&self) -> Vec<SmId> {
        self.core
            .study
            .sms
            .ids()
            .filter(|&sm| self.port.is_live(sm))
            .collect()
    }

    /// Whether `sm` is currently executing — an allocation-free membership
    /// test, for hot paths that would otherwise collect
    /// [`NodeCtx::live_machines`] just to probe it.
    pub fn is_live(&self, sm: SmId) -> bool {
        self.port.is_live(sm)
    }

    /// The compiled study.
    pub fn study(&self) -> &Arc<Study> {
        &self.core.study
    }

    /// The host this node currently runs on.
    pub fn host_id(&self) -> HostId {
        self.port.host_id()
    }

    /// The name of the host this node currently runs on.
    pub fn host_name(&self) -> &str {
        self.core.symbols.host_name(self.port.host_id())
    }

    /// Whether this incarnation is a restart.
    pub fn is_restarted(&self) -> bool {
        self.core.restarted
    }

    /// Appends a free-form message to the local timeline. Accepts anything
    /// convertible into a `String`, so callers holding an owned `String`
    /// move it instead of re-allocating.
    pub fn record_user_message(&mut self, message: impl Into<String>) {
        let now = self.port.now();
        self.port
            .record(now, RecordKind::UserMessage(message.into()));
    }

    /// Applies a network fault action ([`FaultAction::Partition`],
    /// [`FaultAction::Heal`], [`FaultAction::LinkFault`],
    /// [`FaultAction::GrayNode`]) to the simulated message fabric, the
    /// usual body of an [`App::on_fault`] arm. Returns whether it took
    /// effect: `false` for an action that is not a network action, and
    /// when the action's parameters are rejected, which is recorded as a
    /// [`Warning::NetFaultRejected`].
    pub fn apply_net_fault(&mut self, action: &FaultAction) -> bool {
        self.port.net_fault(action)
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
            if let Some(fault) = self.core.study.fault_names.lookup(fault) {
                self.port.warn(Warning::UnmappedFault { fault });
            }
        }
        action
    }
}
