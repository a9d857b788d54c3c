//! The local daemon (§3.5.2): starts and watches the nodes of its host,
//! routes their notifications, writes a dead node's crash record, and
//! checks for the local end of the experiment.

use super::{ExpCtx, RtActor, RtCtx};
use crate::messages::RtMsg;
use crate::node::NodeActor;
use loki_core::campaign::{Receiver, Warning};
use loki_core::ids::{EventId, HostId, SmId, StateId};
use loki_core::recorder::{RecordKind, TimelineRecord};
use loki_core::small::SmSet;
use loki_sim::engine::{ActorId, DownReason};
use std::rc::Rc;

/// The local daemon actor (one per host; one total in the centralized
/// design).
pub(crate) struct LocalDaemon {
    ctx: Rc<ExpCtx>,
    my_host: HostId,
    /// Nodes attached to this daemon, indexed by machine id.
    local_nodes: Vec<Option<ActorId>>,
    /// Reverse map for crash detection, indexed by actor id (grown
    /// lazily — actor ids are dense per experiment).
    node_of_actor: Vec<Option<SmId>>,
    /// Known location (`None` when unknown) of every machine, indexed by
    /// machine id.
    locations: Vec<Option<HostId>>,
    /// Machines believed to be executing anywhere in the system, indexed
    /// by machine id, with a live count so the completion check is O(1).
    alive: Vec<bool>,
    alive_count: usize,
    /// Scratch for the per-host notification fan-out, kept sorted by host
    /// (empty between messages; retained for its capacity).
    route_buf: Vec<(HostId, SmSet)>,
    /// Scratch for the kill-all sweep (empty between messages; retained
    /// for its capacity).
    kill_buf: Vec<ActorId>,
    /// Whether any machine ever started (guards the end check).
    any_started: bool,
    /// Whether the end notice has been sent to the central daemon.
    end_sent: bool,
}

impl LocalDaemon {
    pub(crate) fn new(ctx: Rc<ExpCtx>, my_host: HostId) -> Self {
        let num_sms = ctx.study.sms.len();
        let mut daemon = LocalDaemon {
            ctx,
            my_host,
            local_nodes: vec![None; num_sms],
            node_of_actor: Vec::new(),
            locations: vec![None; num_sms],
            alive: vec![false; num_sms],
            alive_count: 0,
            route_buf: Vec::new(),
            kill_buf: Vec::new(),
            any_started: false,
            end_sent: false,
        };
        daemon.prime_locations();
        daemon
    }

    /// Resets a pooled daemon for the next experiment, keeping every
    /// vector's capacity (the tables' sizes are study-determined, so a
    /// recycled daemon allocates nothing).
    pub(crate) fn reinit(&mut self, my_host: HostId) {
        self.my_host = my_host;
        self.local_nodes.fill(None);
        self.node_of_actor.clear();
        self.locations.fill(None);
        self.alive.fill(false);
        self.alive_count = 0;
        self.route_buf.clear();
        self.kill_buf.clear();
        self.any_started = false;
        self.end_sent = false;
        self.prime_locations();
    }

    /// Initial placements are known to every daemon from the node file
    /// (§3.5.1), avoiding startup routing races.
    fn prime_locations(&mut self) {
        for &(sm, host) in self.ctx.wiring.placements() {
            self.locations[sm.raw() as usize] = Some(host);
        }
    }

    fn node_for(&self, actor: ActorId) -> Option<SmId> {
        self.node_of_actor.get(actor.0 as usize).copied().flatten()
    }

    fn set_node_for(&mut self, actor: ActorId, sm: SmId) {
        let idx = actor.0 as usize;
        if idx >= self.node_of_actor.len() {
            self.node_of_actor.resize(idx + 1, None);
        }
        self.node_of_actor[idx] = Some(sm);
    }

    fn mark_alive(&mut self, sm: SmId) {
        let slot = &mut self.alive[sm.raw() as usize];
        if !*slot {
            *slot = true;
            self.alive_count += 1;
        }
    }

    fn mark_dead(&mut self, sm: SmId) {
        let slot = &mut self.alive[sm.raw() as usize];
        if *slot {
            *slot = false;
            self.alive_count -= 1;
        }
    }

    fn broadcast_to_peers(&self, ctx: &mut RtCtx<'_>, msg: RtMsg) {
        let me = ctx.me();
        for &peer in self.ctx.wiring.unique() {
            if peer != me {
                ctx.send(peer, msg.clone());
            }
        }
    }

    /// Spawns a node for `sm` on host `host` (instructed by the central
    /// daemon or the supervisor), reusing a pooled one when available.
    fn start_node(&mut self, ctx: &mut RtCtx<'_>, sm: SmId, host: HostId) {
        let app = (self.ctx.factory)(&self.ctx.study, sm);
        let me = ctx.me();
        let node = match self.ctx.pool.take_node(sm) {
            Some(mut node) => {
                node.reinit(sm, me, app);
                node
            }
            None => Box::new(NodeActor::new(self.ctx.clone(), sm, me, app)),
        };
        let actor = ctx.spawn(host, RtActor::Node(node));
        ctx.watch(actor);
        self.local_nodes[sm.raw() as usize] = Some(actor);
        self.set_node_for(actor, sm);
        self.locations[sm.raw() as usize] = Some(host);
        self.mark_alive(sm);
        self.any_started = true;
    }

    /// Routes a notification to its target machines: local targets get a
    /// direct delivery, in ascending machine id; remote hosts get one
    /// `ForwardNotify` each (§3.6.1), whose target set ORs in the bits of
    /// that host's machines.
    ///
    /// The per-host fan-out fills a host-sorted scratch vector so the
    /// forwarding order — and with it the simulation's event sequence and
    /// RNG consumption — is deterministic (ascending host id, exactly
    /// the order the `BTreeMap` this replaced iterated in). A `HashMap`
    /// here made identically-seeded experiments diverge across processes
    /// and threads (`RandomState` differs per instance), which the
    /// parallel study executor turns from a latent into a permanent
    /// failure.
    fn route(
        &mut self,
        ctx: &mut RtCtx<'_>,
        from_sm: SmId,
        state: loki_core::ids::StateId,
        targets: SmSet,
    ) {
        let mut per_host = std::mem::take(&mut self.route_buf);
        for target in targets {
            if let Some(actor) = self.local_nodes[target.raw() as usize] {
                ctx.send(actor, RtMsg::DeliverNotify { from_sm, state });
            } else {
                match self.locations[target.raw() as usize] {
                    Some(host) if host != self.my_host => {
                        match per_host.binary_search_by_key(&host, |&(h, _)| h) {
                            Ok(at) => {
                                per_host[at].1.insert(target);
                            }
                            Err(at) => per_host.insert(at, (host, SmSet::one(target))),
                        }
                    }
                    // Unknown, or known-local but no live actor: the
                    // machine is gone.
                    _ => {
                        self.ctx.warn(Warning::DroppedNotification {
                            from: from_sm,
                            to: target,
                        });
                    }
                }
            }
        }
        for (host, targets) in per_host.drain(..) {
            let daemon = self.ctx.wiring.daemon_for(host);
            ctx.send(
                daemon,
                RtMsg::ForwardNotify {
                    from_sm,
                    state,
                    targets,
                },
            );
        }
        self.route_buf = per_host;
    }

    /// The local experiment-completion check (§3.5.2): complete when no
    /// machine is executing anywhere.
    fn check_experiment_end(&mut self, ctx: &mut RtCtx<'_>) {
        if self.any_started && self.alive_count == 0 && !self.end_sent {
            self.end_sent = true;
            ctx.send(self.ctx.wiring.central(), RtMsg::ExperimentEndNotice);
        }
    }

    /// Handles the death of one of this daemon's nodes.
    pub(super) fn on_node_down(&mut self, ctx: &mut RtCtx<'_>, actor: ActorId, reason: DownReason) {
        let Some(sm) = self.node_for(actor) else {
            return;
        };
        self.node_of_actor[actor.0 as usize] = None;
        if self.local_nodes[sm.raw() as usize] == Some(actor) {
            self.local_nodes[sm.raw() as usize] = None;
        }
        self.ctx.directory.remove_if(sm, actor);
        self.mark_dead(sm);
        let crashed = reason == DownReason::Crash;
        if crashed {
            // Write the crash event and crash state into the node's local
            // timeline, timestamped with this daemon's (same-host) clock at
            // detection time (§3.6.2).
            let now = ctx.local_clock();
            let study = &self.ctx.study;
            self.ctx.store.with_mut(sm, |t| {
                t.records.push(TimelineRecord {
                    time: now,
                    kind: RecordKind::StateChange {
                        event: EventId::CRASH,
                        new_state: StateId::CRASH,
                    },
                });
            });
            // Deliver the CRASH state's notifications on the machine's
            // behalf (e.g. `state CRASH notify green yellow`, §5.3).
            let targets = study.machine(sm).notify_list(StateId::CRASH);
            if !targets.is_empty() {
                self.route(ctx, sm, StateId::CRASH, targets);
            }
        }
        let host = self.my_host;
        self.broadcast_to_peers(ctx, RtMsg::NodeDown { sm, crashed, host });
        if let Some(supervisor) = self.ctx.wiring.supervisor() {
            ctx.send(supervisor, RtMsg::NodeDown { sm, crashed, host });
        }
        self.check_experiment_end(ctx);
    }

    pub(super) fn on_message(&mut self, ctx: &mut RtCtx<'_>, from: ActorId, msg: RtMsg) {
        match msg {
            RtMsg::StartNode { sm, host } => {
                self.start_node(ctx, sm, host);
            }
            RtMsg::Register { sm, restarted } => {
                // A register from an actor that already died must be
                // ignored: its crash/exit has been (or will be) handled and
                // bookkeeping must not be resurrected. In the real runtime
                // the equivalent is the daemon finding the node's shared
                // memory segment already torn down.
                if !ctx.is_alive(from) {
                    return;
                }
                // Nodes this daemon spawned are pre-registered; dynamic
                // entries are recorded here.
                self.local_nodes[sm.raw() as usize] = Some(from);
                self.set_node_for(from, sm);
                self.locations[sm.raw() as usize] = Some(self.my_host);
                self.mark_alive(sm);
                self.any_started = true;
                let host = self.my_host;
                self.broadcast_to_peers(
                    ctx,
                    RtMsg::NodeUp {
                        sm,
                        restarted,
                        host,
                    },
                );
            }
            RtMsg::Notify {
                from_sm,
                state,
                targets,
            } => {
                self.route(ctx, from_sm, state, targets);
            }
            RtMsg::ForwardNotify {
                from_sm,
                state,
                targets,
            } => {
                for target in targets {
                    if let Some(actor) = self.local_nodes[target.raw() as usize] {
                        ctx.send(actor, RtMsg::DeliverNotify { from_sm, state });
                    } else {
                        self.ctx.warn(Warning::DroppedNotification {
                            from: from_sm,
                            to: target,
                        });
                    }
                }
            }
            RtMsg::StateUpdateRequest { for_sm } => {
                // Fan out to local nodes (ascending machine id, the dense
                // table's natural order — the same order the sorted
                // collection this replaced produced); if the request came
                // from one of our own nodes, also forward to the other
                // daemons.
                let from_local_node = self.node_for(from).is_some();
                for (idx, slot) in self.local_nodes.iter().enumerate() {
                    if let Some(actor) = *slot {
                        let sm = SmId::from_raw(idx as u32);
                        if sm != for_sm {
                            ctx.send(actor, RtMsg::StateUpdateRequest { for_sm });
                        }
                    }
                }
                if from_local_node {
                    self.broadcast_to_peers(ctx, RtMsg::StateUpdateRequest { for_sm });
                }
            }
            RtMsg::NodeUp { sm, host, .. } => {
                self.locations[sm.raw() as usize] = Some(host);
                self.mark_alive(sm);
                self.any_started = true;
            }
            RtMsg::NodeDown { sm, host, .. } => {
                if self.locations[sm.raw() as usize] == Some(host) {
                    self.locations[sm.raw() as usize] = None;
                }
                self.mark_dead(sm);
                // A machine that went down had started, even when it ended
                // before its `Register` (and so its `NodeUp`) went out. A
                // daemon the node file starts machines through waits for
                // its own first start instead, since this `NodeDown` may
                // overtake its `StartNode`.
                if !self.any_started && !self.ctx.wiring.starts_through(ctx.me()) {
                    self.any_started = true;
                }
                self.check_experiment_end(ctx);
            }
            RtMsg::KillAllNodes => {
                // Sorted by actor id: the kill order schedules watcher
                // notifications and historically followed the sorted actor
                // list, which differs from machine order once restarts have
                // re-spawned actors.
                let mut actors = std::mem::take(&mut self.kill_buf);
                actors.extend(self.local_nodes.iter().flatten().copied());
                actors.sort_unstable();
                for &actor in &actors {
                    ctx.kill(actor, DownReason::Crash);
                }
                actors.clear();
                self.kill_buf = actors;
            }
            other => self.ctx.warn(Warning::UnexpectedMessage {
                receiver: Receiver::LocalDaemon,
                message: format!("{other:?}"),
            }),
        }
    }
}
