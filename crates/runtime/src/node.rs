//! The node adapter.
//!
//! Embeds the portable [`NodeCore`](crate::app) into a simulated
//! actor: the adapter translates the core's transport needs (the
//! crate-private `Port` trait) onto the simulated message fabric — state
//! notifications route through the configured §3.4.1 design (local daemon,
//! direct, or centralized), timelines live in the shared
//! [`TimelineStore`](crate::store::TimelineStore) (the thesis's NFS-mounted
//! files, so the local daemon can append crash records after the node
//! dies), and timers/clocks/RNG come from the deterministic simulation
//! context.
//!
//! Applications implement [`crate::app::App`]; this module contains no
//! application-facing API of its own.

use crate::app::{App, NodeCore, Payload, Port};
use crate::daemons::ExpCtx;
use crate::messages::{NotifyRouting, RtMsg, SmTargets};
use loki_core::campaign::{ExperimentFailure, Receiver, Warning};
use loki_core::ids::{HostId, SmId, StateId};
use loki_core::recorder::{RecordKind, TimelineRecord};
use loki_core::time::LocalNanos;
use loki_sim::engine::{ActorId, Ctx, TimerId};
use rand::rngs::StdRng;
use std::any::Any;
use std::rc::Rc;

/// The wiring shared by all of one node's callbacks: the
/// experiment context plus this node's identity and daemon.
struct SimShared {
    ctx: Rc<ExpCtx>,
    me: SmId,
    daemon: ActorId,
}

/// The per-callback `Port` implementation over the simulated actor
/// context.
struct SimPort<'a, 'b> {
    sim: &'a mut Ctx<'b, RtMsg>,
    shared: &'a SimShared,
}

impl Port for SimPort<'_, '_> {
    fn now(&self) -> LocalNanos {
        self.sim.local_clock()
    }

    fn record(&mut self, time: LocalNanos, kind: RecordKind) {
        self.shared.ctx.store.with_mut(self.shared.me, |t| {
            t.records.push(TimelineRecord { time, kind });
        });
    }

    fn notify(&mut self, from: SmId, state: StateId, targets: SmTargets) {
        match self.shared.ctx.routing {
            NotifyRouting::ThroughDaemons | NotifyRouting::Centralized => {
                self.sim.send(
                    self.shared.daemon,
                    RtMsg::Notify {
                        from_sm: from,
                        state,
                        targets,
                    },
                );
            }
            NotifyRouting::Direct => {
                for target in targets {
                    match self.shared.ctx.directory.lookup(target) {
                        Some(actor) => self.sim.send(
                            actor,
                            RtMsg::DeliverNotify {
                                from_sm: from,
                                state,
                            },
                        ),
                        None => self
                            .shared
                            .ctx
                            .warn(Warning::DroppedNotification { from, to: target }),
                    }
                }
            }
        }
    }

    fn send_app(&mut self, from: SmId, to: SmId, payload: Payload) {
        if let Some(actor) = self.shared.ctx.directory.lookup(to) {
            self.sim.send(
                actor,
                RtMsg::App {
                    from_sm: from,
                    payload,
                },
            );
        }
    }

    fn set_timer(&mut self, delay_ns: u64, tag: u64) -> u64 {
        self.sim.set_timer(delay_ns, tag).raw()
    }

    fn cancel_timer(&mut self, raw: u64) {
        self.sim.cancel_timer(TimerId::from_raw(raw));
    }

    fn crash(&mut self) {
        self.sim.crash_self();
    }

    fn exit(&mut self) {
        self.sim.exit_self();
    }

    fn terminating(&self) -> bool {
        self.sim.terminating()
    }

    fn rng(&mut self) -> &mut StdRng {
        self.sim.rng()
    }

    fn is_live(&self, sm: SmId) -> bool {
        self.shared.ctx.directory.lookup(sm).is_some()
    }

    fn host_id(&self) -> HostId {
        // Simulation host indices follow the harness configuration order,
        // which is exactly the symbol table's interning order.
        HostId::from_raw(self.sim.my_host().0)
    }

    fn net_fault(&mut self, action: &loki_core::probe::FaultAction) -> bool {
        match self.sim.apply_net_fault(action) {
            Ok(applied) => applied,
            Err(e) => {
                self.shared.ctx.warn(Warning::NetFaultRejected {
                    reason: e.to_string(),
                });
                false
            }
        }
    }

    fn warn(&mut self, warning: Warning) {
        self.shared.ctx.warn(warning);
    }
}

/// The actor embodying one node (application + runtime core).
pub struct NodeActor {
    app: Box<dyn App>,
    core: NodeCore,
    shared: SimShared,
}

impl NodeActor {
    /// Creates the node for `sm`, attached to `daemon`.
    pub(crate) fn new(ctx: Rc<ExpCtx>, sm_id: SmId, daemon: ActorId, app: Box<dyn App>) -> Self {
        NodeActor {
            app,
            core: NodeCore::new(ctx.study.clone(), ctx.symbols.clone(), sm_id),
            shared: SimShared {
                ctx,
                me: sm_id,
                daemon,
            },
        }
    }

    /// Re-targets a pooled hull at a new machine incarnation. The context
    /// is unchanged (hulls are pooled per experiment slot); the core's
    /// per-incarnation state — state machine interpreter and fault parser —
    /// is reset in place, reusing its storage.
    pub(crate) fn reinit(&mut self, sm_id: SmId, daemon: ActorId, app: Box<dyn App>) {
        self.core.reinit(sm_id);
        self.shared.me = sm_id;
        self.shared.daemon = daemon;
        self.app = app;
    }

    /// The machine this hull (last) embodied — lets the pool hand a hull
    /// back to the same machine, whose compiled fault set it can then
    /// reuse as-is.
    pub(crate) fn embodies(&self) -> SmId {
        self.shared.me
    }

    /// Runs an application callback through the core (which then drains
    /// pending fault injections).
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
        f: impl FnOnce(&mut dyn App, &mut crate::app::NodeCtx<'_>),
    ) {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut port = SimPort {
                sim: ctx,
                shared: &self.shared,
            };
            self.core.run_callback(&mut port, self.app.as_mut(), f);
        }));
        if let Err(payload) = outcome {
            let note = crate::contain::panic_note(payload.as_ref());
            self.shared
                .ctx
                .control
                .mark_failed(ExperimentFailure::AppPanic);
            self.shared.ctx.warn(Warning::AppPanic {
                sm: self.shared.me,
                note,
            });
            ctx.crash_self();
        }
    }
}

impl loki_sim::engine::Actor<RtMsg> for NodeActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, RtMsg>) {
        let me = self.shared.me;
        let host = HostId::from_raw(ctx.my_host().0);
        let now = ctx.local_clock();

        // Restart detection: the timeline file already exists (§3.6.3).
        // `begin_life` applies the `Recorder` stint/restart bookkeeping in
        // place, without round-tripping the timeline out of the store.
        let restarted = self.shared.ctx.store.begin_life(me, now, host);
        self.core.restarted = restarted;

        // Contact the local daemon (the thesis's shared-memory connect).
        ctx.send(self.shared.daemon, RtMsg::Register { sm: me, restarted });
        // Join the application's name service.
        self.shared.ctx.directory.insert(me, ctx.me());

        // A restarted machine asks all others for state updates (§3.6.3).
        if restarted {
            ctx.send(self.shared.daemon, RtMsg::StateUpdateRequest { for_sm: me });
        }

        self.with_app(ctx, |app, node_ctx| app.on_start(node_ctx, restarted));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, RtMsg>, _from: ActorId, msg: RtMsg) {
        match msg {
            RtMsg::DeliverNotify { from_sm, state } => {
                self.core.apply_remote(from_sm, state);
                // Injections may have been queued; drain via a no-op
                // application callback.
                self.with_app(ctx, |_, _| {});
            }
            RtMsg::StateUpdateRequest { for_sm } => {
                // Another (restarted) machine asks for our state.
                let mut port = SimPort {
                    sim: ctx,
                    shared: &self.shared,
                };
                self.core.state_update_reply(&mut port, for_sm);
            }
            RtMsg::App { from_sm, payload } => {
                self.with_app(ctx, |app, node_ctx| {
                    app.on_app_message(node_ctx, from_sm, payload)
                });
            }
            other => self.shared.ctx.warn(Warning::UnexpectedMessage {
                receiver: Receiver::Node,
                message: format!("{other:?}"),
            }),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, RtMsg>, tag: u64) {
        self.with_app(ctx, |app, node_ctx| app.on_timer(node_ctx, tag));
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        Some(self)
    }
}
