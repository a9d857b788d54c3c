//! What an actor's callback can do through its [`Ctx`], and the send path
//! behind [`Ctx::send`]: the delay draw, the network fault plane and the
//! per-direction FIFO horizons.

use super::{ActorId, Ctx, Dispatch, DownReason, Event, Simulation, TimerId};
use crate::netfault::{NetFaultError, NetFaultPlane};
use crate::queue::TimerKey;
use loki_core::ids::HostId;
use loki_core::probe::FaultAction;
use loki_core::time::LocalNanos;
use rand::rngs::StdRng;
use rand::Rng;

impl<M: 'static, A: Dispatch<M>> Simulation<M, A> {
    /// Samples the delay of one [`Ctx::send`] from `from_host` to
    /// `to_host`: both endpoint scheduling delays from one RNG word (see
    /// `config::sched_delay_pair`; none while scheduling delays are
    /// disabled), then the link latency (no draw for a zero-jitter link).
    /// The single place a healthy-network send consumes randomness.
    #[inline]
    pub(crate) fn send_delay(&mut self, from_host: HostId, to_host: HostId) -> u64 {
        let link = if from_host == to_host {
            self.config.network.ipc
        } else {
            self.config.network.tcp
        };
        let (d_send, d_recv) = if self.sched_enabled {
            crate::config::sched_delay_pair(
                &self.config.hosts[from_host.index()],
                &self.config.hosts[to_host.index()],
                &mut self.rng,
            )
        } else {
            (0, 0)
        };
        d_send + link.sample(&mut self.rng) + d_recv
    }

    /// The network fault plane (read-only; inactive in a healthy world).
    pub fn net_faults(&self) -> &NetFaultPlane {
        &self.net_faults
    }

    /// Applies a network [`FaultAction`] to the fault plane, resolving
    /// host names through the world description. Returns `Ok(false)` when
    /// the action is not a network action (the caller handles it),
    /// `Ok(true)` when the plane was updated.
    ///
    /// # Errors
    ///
    /// [`NetFaultError`] when a host name is unknown or a parameter is
    /// out of range; the plane is left unchanged.
    pub fn apply_net_fault(&mut self, action: &FaultAction) -> Result<bool, NetFaultError> {
        let config = &self.config;
        self.net_faults
            .apply_action(action, config.num_hosts(), |name| config.find_host(name))
    }

    /// Heals the plane: removes every active network fault. The harness
    /// calls this at experiment teardown (the injector's kill path is
    /// out-of-band), so an experiment that never heals still drains.
    pub fn clear_net_faults(&mut self) {
        self.net_faults.heal();
    }
}

/// The per-direction FIFO rule: a message may not arrive at or before the
/// `horizon` — the previous arrival on the same `(sender, receiver)` pair,
/// `None` for the pair's first message — so it slips to one tick after.
#[inline]
pub(crate) fn fifo_arrival(horizon: Option<u64>, at: u64) -> u64 {
    match horizon {
        Some(last) if at <= last => last + 1,
        _ => at,
    }
}

impl<M: 'static, A: Dispatch<M>> Ctx<'_, M, A> {
    /// A context for the same actor and callback, borrowed from this one
    /// for a shorter lifetime (for wrappers that own a `Ctx` by value).
    pub fn reborrow(&mut self) -> Ctx<'_, M, A> {
        Ctx {
            sim: &mut *self.sim,
            me: self.me,
            self_down: &mut *self.self_down,
        }
    }

    /// The current actor's id.
    #[inline]
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// The current actor's host.
    #[inline]
    pub fn my_host(&self) -> HostId {
        self.sim.host_of(self.me)
    }

    /// Reads the *local clock* of this actor's host — the only notion of
    /// time a Loki runtime component may use.
    #[inline]
    pub fn local_clock(&self) -> LocalNanos {
        self.sim.local_clock(self.my_host())
    }

    /// Physical simulation time. Reserved for harness-level ground truth
    /// (e.g. computing a true injection-correctness oracle); runtime
    /// components must not consult it.
    #[inline]
    pub fn physical_now(&self) -> u64 {
        self.sim.now()
    }

    /// Sends `msg` to `to` with realistic delay: sender scheduling delay +
    /// link latency (IPC within a host, TCP across hosts) + receiver
    /// scheduling delay. Deliveries between the same `(sender, receiver)`
    /// pair are FIFO, as over a TCP connection or a shared-memory queue.
    /// Messages to dead actors are silently dropped at delivery time.
    ///
    /// When the [`NetFaultPlane`] is armed the message is additionally
    /// subject to partition cuts, link drop/duplicate/corrupt/reorder
    /// faults, and gray-node slowdown; while the plane is inactive this
    /// path is byte-identical (including RNG consumption) to a plane-less
    /// engine. `M: Clone` supports duplicate delivery.
    #[inline]
    pub fn send(&mut self, to: ActorId, msg: M)
    where
        M: Clone,
    {
        let from_host = self.sim.host_of(self.me);
        let to_host = self.sim.host_of(to);
        let delay = self.sim.send_delay(from_host, to_host);
        if self.sim.net_faults.is_active() {
            self.send_via_plane(to, from_host, to_host, delay, msg);
        } else {
            let at = self.sim.time + delay;
            self.deliver_fifo(to, at, msg);
        }
    }

    /// The armed-plane send path (cold: only reached while a net fault is
    /// active). Decision order is fixed — partition (structural, no
    /// draw), then per-link corrupt / drop / reorder / duplicate draws,
    /// then gray slowdown — so replays stay byte-identical. Kept out of
    /// line so the fault-free `send` hot path stays small.
    #[cold]
    #[inline(never)]
    fn send_via_plane(
        &mut self,
        to: ActorId,
        from_host: HostId,
        to_host: HostId,
        delay: u64,
        msg: M,
    ) where
        M: Clone,
    {
        if self.sim.net_faults.partitioned(from_host, to_host) {
            return;
        }
        // Copy the Copy params out so the RNG draws below don't fight the
        // plane borrow.
        let link = self.sim.net_faults.link(from_host, to_host);
        let slow = self.sim.net_faults.slowdown(from_host, to_host);
        let mut delay = delay;
        let mut reorder = 0u64;
        let mut dup = false;
        if let Some(lf) = link {
            delay += lf.extra_latency_ns;
            // Corrupt before drop: the corrupted frame reaches the
            // receiver and dies at its checksum, but both knobs must stay
            // independently tunable, so each gets its own draw.
            if lf.corrupt_prob > 0.0 && self.sim.rng.gen_bool(lf.corrupt_prob) {
                return;
            }
            if lf.drop_prob > 0.0 && self.sim.rng.gen_bool(lf.drop_prob) {
                return;
            }
            if lf.reorder_ns > 0 {
                reorder = self.sim.rng.gen_range(0..=lf.reorder_ns);
            }
            dup = lf.dup_prob > 0.0 && self.sim.rng.gen_bool(lf.dup_prob);
        }
        if slow > 1.0 {
            delay = (delay as f64 * slow) as u64;
        }
        let at = self.sim.time + delay;
        if dup {
            // The duplicate models a retransmitted frame: it bypasses the
            // FIFO discipline (it can overtake), arriving at the base time.
            self.sim.push(
                at,
                Event::Deliver {
                    to,
                    from: self.me,
                    msg: msg.clone(),
                },
            );
        }
        if reorder > 0 {
            // A reordered delivery skips the FIFO horizon entirely —
            // overtaking is the point of a reorder fault.
            self.sim.push(
                at + reorder,
                Event::Deliver {
                    to,
                    from: self.me,
                    msg,
                },
            );
        } else {
            self.deliver_fifo(to, at, msg);
        }
    }

    /// Applies a network [`FaultAction`] to the world's fault plane (see
    /// [`Simulation::apply_net_fault`]).
    ///
    /// # Errors
    ///
    /// [`NetFaultError`] when a host name is unknown or a parameter is
    /// out of range; the plane is left unchanged.
    pub fn apply_net_fault(&mut self, action: &FaultAction) -> Result<bool, NetFaultError> {
        self.sim.apply_net_fault(action)
    }

    /// Heals the plane: removes every active network fault.
    pub fn clear_net_faults(&mut self) {
        self.sim.clear_net_faults();
    }

    #[inline]
    fn deliver_fifo(&mut self, to: ActorId, at: u64, msg: M) {
        // Per-sender horizons, sorted by receiver: the probe is a binary
        // search over this sender's few peers instead of a hash of the
        // `(from, to)` pair.
        let horizons = &mut self.sim.fifo_out[self.me.0 as usize];
        let at = match horizons.binary_search_by_key(&to.0, |&(receiver, _)| receiver) {
            Ok(i) => {
                let at = fifo_arrival(Some(horizons[i].1), at);
                horizons[i].1 = at;
                at
            }
            Err(i) => {
                // First message to this receiver (cold path: allocates or
                // shifts only when the peer set grows).
                horizons.insert(i, (to.0, at));
                at
            }
        };
        self.sim.push(
            at,
            Event::Deliver {
                to,
                from: self.me,
                msg,
            },
        );
    }

    /// Sets a timer firing after `delay_ns`; `tag` is returned to
    /// [`Actor::on_timer`](super::Actor::on_timer).
    #[inline]
    pub fn set_timer(&mut self, delay_ns: u64, tag: u64) -> TimerId {
        let id = TimerId(self.sim.timers.alloc().pack());
        let at = self.sim.time + delay_ns;
        self.sim.queue.push_timer(
            at,
            Event::Timer {
                actor: self.me,
                id,
                tag,
            },
        );
        id
    }

    /// Cancels a pending timer (firing already-queued timers is prevented).
    #[inline]
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.sim.timers.cancel(TimerKey::unpack(id.0));
    }

    /// Registers interest in `peer`'s death;
    /// [`Actor::on_peer_down`](super::Actor::on_peer_down) will be called
    /// (after the host's crash-detection latency). The peer need not be
    /// spawned yet.
    pub fn watch(&mut self, peer: ActorId) {
        let idx = peer.0 as usize;
        if self.sim.watchers.len() <= idx {
            self.sim.watchers.resize_with(idx + 1, Vec::new);
        }
        self.sim.watchers[idx].push(self.me);
    }

    /// Spawns a new actor on `host` (it starts at the current instant).
    pub fn spawn(&mut self, host: HostId, actor: A) -> ActorId {
        self.sim.spawn(host, actor)
    }

    /// Kills another actor immediately (e.g. a daemon killing a node).
    pub fn kill(&mut self, actor: ActorId, reason: DownReason) {
        if actor == self.me {
            *self.self_down = Some(reason);
        } else {
            self.sim.kill_internal(actor, reason);
        }
    }

    /// Terminates the current actor with a crash.
    pub fn crash_self(&mut self) {
        *self.self_down = Some(DownReason::Crash);
    }

    /// Terminates the current actor cleanly.
    pub fn exit_self(&mut self) {
        *self.self_down = Some(DownReason::Exit);
    }

    /// How the current actor has asked to go down during this callback
    /// (via [`Ctx::crash_self`], [`Ctx::exit_self`] or [`Ctx::kill`] on
    /// itself), if it has. The last request wins: it is the reason the
    /// engine applies when the callback returns.
    pub fn down_request(&self) -> Option<DownReason> {
        *self.self_down
    }

    /// Whether `actor` is alive.
    #[inline]
    pub fn is_alive(&self, actor: ActorId) -> bool {
        self.sim.is_alive(actor)
    }

    /// Name of a host.
    pub fn host_name(&self, host: HostId) -> &str {
        self.sim.config.symbols.name(host)
    }

    /// Looks up a host id by name (O(1); names are unique — duplicates
    /// are rejected at registration).
    pub fn find_host(&self, name: &str) -> Option<HostId> {
        self.sim.config.find_host(name)
    }

    /// The deterministic simulation RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.sim.rng
    }
}
