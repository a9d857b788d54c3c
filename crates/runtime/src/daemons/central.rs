//! The central daemon (§3.5.1): starts the node file's machines, aborts a
//! hung experiment or one whose daemon died, and declares completion once
//! every local daemon has reported it.

use super::{ExpCtx, RtCtx};
use crate::messages::RtMsg;
use loki_core::campaign::{ExperimentEnd, Receiver, Warning};
use loki_sim::engine::{ActorId, DownReason, TimerId};
use std::rc::Rc;

const TAG_TIMEOUT: u64 = 1;
const TAG_SHUTDOWN: u64 = 2;

/// The central daemon actor.
pub(crate) struct CentralDaemon {
    ctx: Rc<ExpCtx>,
    timeout_ns: u64,
    grace_ns: u64,
    /// Daemons that reported completion (a flat vector: there are at most
    /// a handful of daemons, and insertion checks linearly).
    ends: Vec<ActorId>,
    done: bool,
    /// The experiment watchdog, cancelled on clean shutdown so a completed
    /// experiment leaves no far-future event behind (a virtual-time budget
    /// would otherwise have to wade past it).
    watchdog: Option<TimerId>,
}

impl CentralDaemon {
    pub(crate) fn new(ctx: Rc<ExpCtx>, timeout_ns: u64, grace_ns: u64) -> Self {
        CentralDaemon {
            ctx,
            timeout_ns,
            grace_ns,
            ends: Vec::new(),
            done: false,
            watchdog: None,
        }
    }

    /// Resets a pooled central daemon for the next experiment.
    pub(crate) fn reinit(&mut self, timeout_ns: u64, grace_ns: u64) {
        self.timeout_ns = timeout_ns;
        self.grace_ns = grace_ns;
        self.ends.clear();
        self.done = false;
        self.watchdog = None;
    }

    fn shutdown(&mut self, ctx: &mut RtCtx<'_>) {
        if let Some(watchdog) = self.watchdog.take() {
            ctx.cancel_timer(watchdog);
        }
        // Teardown is the injector's out-of-band kill path: it must work
        // whatever the experiment did to the network, so heal the fault
        // plane first (a never-healed partition otherwise outlives its
        // experiment).
        ctx.clear_net_faults();
        if let Some(supervisor) = self.ctx.wiring.supervisor() {
            ctx.kill(supervisor, DownReason::Exit);
        }
        for &daemon in self.ctx.wiring.unique() {
            ctx.kill(daemon, DownReason::Exit);
        }
        ctx.exit_self();
    }

    pub(super) fn on_start(&mut self, ctx: &mut RtCtx<'_>) {
        let wiring = &self.ctx.wiring;
        for &daemon in wiring.unique() {
            ctx.watch(daemon);
        }
        self.watchdog = Some(ctx.set_timer(self.timeout_ns, TAG_TIMEOUT));
        // Start the machines listed with a host in the node file (§3.5.1).
        for &(sm, host) in wiring.placements() {
            let daemon = wiring.daemon_for(host);
            ctx.send(daemon, RtMsg::StartNode { sm, host });
        }
    }

    pub(super) fn on_message(&mut self, ctx: &mut RtCtx<'_>, from: ActorId, msg: RtMsg) {
        match msg {
            RtMsg::ExperimentEndNotice => {
                if !self.ends.contains(&from) {
                    self.ends.push(from);
                }
                if !self.done && self.ends.len() == self.ctx.wiring.unique().len() {
                    self.done = true;
                    self.ctx.control.mark(ExperimentEnd::Completed);
                    self.shutdown(ctx);
                }
            }
            other => self.ctx.warn(Warning::UnexpectedMessage {
                receiver: Receiver::CentralDaemon,
                message: format!("{other:?}"),
            }),
        }
    }

    pub(super) fn on_timer(&mut self, ctx: &mut RtCtx<'_>, tag: u64) {
        match tag {
            TAG_TIMEOUT if !self.done => {
                self.watchdog = None; // it just fired
                                      // Hung experiment: kill everything and abort (§3.5.1).
                                      // Heal the network first — the kill instructions below are
                                      // ordinary messages and must not die in a partition the
                                      // experiment armed and never removed.
                ctx.clear_net_faults();
                self.done = true;
                self.ctx.control.mark(ExperimentEnd::TimedOut);
                for &daemon in self.ctx.wiring.unique() {
                    ctx.send(daemon, RtMsg::KillAllNodes);
                }
                ctx.set_timer(self.grace_ns, TAG_SHUTDOWN);
            }
            TAG_SHUTDOWN => {
                self.shutdown(ctx);
            }
            _ => {}
        }
    }

    /// A watched local daemon went down.
    pub(super) fn on_daemon_down(&mut self, ctx: &mut RtCtx<'_>) {
        // A local daemon crashed: abnormality — abort the experiment.
        if !self.done {
            // Same out-of-band teardown as the timeout path: heal before
            // sending kill instructions through the network.
            ctx.clear_net_faults();
            self.done = true;
            self.ctx.control.mark(ExperimentEnd::Aborted);
            for &daemon in self.ctx.wiring.unique() {
                if ctx.is_alive(daemon) {
                    ctx.send(daemon, RtMsg::KillAllNodes);
                }
            }
            ctx.set_timer(self.grace_ns, TAG_SHUTDOWN);
        }
    }
}
