//! Closed-form ping/echo exchanges: a whole mini-phase of strictly
//! sequential request → echo → pause chains played inside the engine,
//! without actors or queued events.
//!
//! Loki brackets every experiment with clock-synchronization mini-phases
//! (§2.3, §2.5): each calibrated host exchanges `rounds` timestamped
//! messages with the reference host, one round at a time. As actors that is
//! an echo endpoint and an originator per calibrated host and three queued
//! events per round. But a mini-phase is a *closed* interval — the world is
//! drained, the fault plane healed, and the `k` chains never interact
//! except through the order in which they draw from the world's RNG — so
//! the engine can fast-forward it: [`Simulation::run_exchanges`] merges the
//! `k` chains on `(time, seq)` over `k` cursors and pays, per event, only
//! what makes the event observable (budget admission, the event count, the
//! clock, the RNG draws of a send).
//!
//! The contract is **event-for-event equivalence** with the actor pair
//! (kept as the reference in `tests/prop_sim.rs`): the same clock readings
//! in the same order, the same RNG state, final clock, event count and
//! budget trip point.

use crate::engine::{fifo_arrival, Dispatch, Simulation};
use loki_core::ids::HostId;
use loki_core::time::LocalNanos;

/// One completed round of [`Simulation::run_exchanges`]: the three clock
/// readings of a ping/echo exchange (the responder reads its clock once,
/// on arrival, and echoes in the same instant).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ExchangeRound {
    /// Index of the initiating host in the `initiators` slice.
    pub initiator: usize,
    /// The initiator's local clock when it sent the ping.
    pub ping_sent: LocalNanos,
    /// The responder's local clock when the ping arrived and the echo left.
    pub echoed: LocalNanos,
    /// The initiator's local clock when the echo arrived.
    pub echo_received: LocalNanos,
}

/// The one pending event of a chain.
#[derive(Copy, Clone)]
enum Pending {
    /// The ping arrives at the responder.
    Ping,
    /// The echo arrives at the initiator.
    Echo,
    /// The inter-round pause ends; the next ping leaves.
    Pause,
    /// The end-of-session notice arrives at the responder.
    Done,
}

/// One initiator's chain: where its single pending event sits in
/// `(time, seq)` order, and what the round in flight has read so far.
struct Chain {
    initiator: usize,
    host: HostId,
    at: u64,
    seq: u64,
    pending: Pending,
    round: u32,
    ping_sent: LocalNanos,
    echoed: LocalNanos,
    /// FIFO horizons of the chain's two directions (each chain is a
    /// connection pair of its own, as each actor pair was).
    to_responder: Option<u64>,
    to_initiator: Option<u64>,
}

impl<M: 'static, A: Dispatch<M>> Simulation<M, A> {
    /// Plays one exchange session per host of `initiators` against
    /// `responder`, all starting now: `rounds` strictly sequential
    /// ping → echo rounds, `interval_ns` apart, closed by an
    /// end-of-session notice. `on_round` sees every completed round in the
    /// order the echoes arrive.
    ///
    /// Event for event this is what an echo actor on `responder` plus an
    /// originator actor per initiator (spawned pairwise, in slice order)
    /// would do — `3 · rounds + 2` events per chain (3 with no rounds),
    /// each passing the same budget admission, event count, runaway guard
    /// and clock update as [`Simulation::step`], each send drawing the same
    /// delays in the same order as [`Ctx::send`](crate::engine::Ctx::send)
    /// under the current [`Simulation::set_sched_enabled`] setting — but
    /// nothing is boxed, queued or dispatched, and no trace entries are
    /// recorded (there are no actors to name). When a containment budget trips mid-session the
    /// call returns at the trip point, exactly where `step` would start
    /// refusing; on a world that has already tripped it does nothing.
    ///
    /// The session runs over the healthy network: the caller heals the
    /// fault plane first ([`Simulation::clear_net_faults`]).
    ///
    /// # Panics
    ///
    /// Panics if events are pending: the merge is closed-form only on a
    /// drained world.
    pub fn run_exchanges(
        &mut self,
        responder: HostId,
        initiators: &[HostId],
        rounds: u32,
        interval_ns: u64,
        mut on_round: impl FnMut(ExchangeRound),
    ) {
        if self.budget_exceeded().is_some() {
            return;
        }
        assert_eq!(
            self.pending_events(),
            0,
            "run_exchanges needs a drained world"
        );
        debug_assert!(
            !self.net_faults().is_active(),
            "exchange sessions run over the healthy network"
        );

        // The spawn instant: two start events per chain — the responder
        // endpoint's, which does nothing, then the initiator's, which
        // sends the first message — all scheduled now and ahead of
        // whatever they send, so they run in slice order.
        let mut chains: Vec<Chain> = Vec::with_capacity(initiators.len());
        let mut next_seq = 0u64;
        for (initiator, &host) in initiators.iter().enumerate() {
            for _start in 0..2 {
                if !self.admit_live(self.now()) {
                    return;
                }
                self.begin_event(self.now());
            }
            // With no rounds to play, the first message is the notice.
            let mut chain = Chain {
                initiator,
                host,
                at: 0,
                seq: next_seq,
                pending: Pending::Done,
                round: 0,
                ping_sent: LocalNanos::ZERO,
                echoed: LocalNanos::ZERO,
                to_responder: None,
                to_initiator: None,
            };
            next_seq += 1;
            if rounds > 0 {
                self.send_ping(responder, &mut chain);
            } else {
                chain.at = self.exchange_send(host, responder, &mut chain.to_responder);
            }
            chains.push(chain);
        }

        // The merge: every chain has exactly one pending event, and
        // processing it schedules at most one successor.
        while let Some(i) = (0..chains.len()).min_by_key(|&i| (chains[i].at, chains[i].seq)) {
            let chain = &mut chains[i];
            if !self.admit_live(chain.at) {
                return;
            }
            self.begin_event(chain.at);
            match chain.pending {
                Pending::Ping => {
                    chain.echoed = self.local_clock(responder);
                    chain.at = self.exchange_send(responder, chain.host, &mut chain.to_initiator);
                    chain.pending = Pending::Echo;
                }
                Pending::Echo => {
                    on_round(ExchangeRound {
                        initiator: chain.initiator,
                        ping_sent: chain.ping_sent,
                        echoed: chain.echoed,
                        echo_received: self.local_clock(chain.host),
                    });
                    chain.round += 1;
                    if chain.round < rounds {
                        chain.at = self.now() + interval_ns;
                        chain.pending = Pending::Pause;
                    } else {
                        chain.at =
                            self.exchange_send(chain.host, responder, &mut chain.to_responder);
                        chain.pending = Pending::Done;
                    }
                }
                Pending::Pause => self.send_ping(responder, chain),
                Pending::Done => {
                    chains.swap_remove(i);
                    continue;
                }
            }
            chain.seq = next_seq;
            next_seq += 1;
        }
    }

    /// The initiator reads its clock and the ping leaves.
    fn send_ping(&mut self, responder: HostId, chain: &mut Chain) {
        chain.ping_sent = self.local_clock(chain.host);
        chain.at = self.exchange_send(chain.host, responder, &mut chain.to_responder);
        chain.pending = Pending::Ping;
    }

    /// One message of a chain, as `Ctx::send` schedules it: the sampled
    /// delay from now, held behind its direction's FIFO horizon.
    fn exchange_send(&mut self, from: HostId, to: HostId, horizon: &mut Option<u64>) -> u64 {
        let at = fifo_arrival(*horizon, self.now() + self.send_delay(from, to));
        *horizon = Some(at);
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HostConfig, LatencyModel, NetworkConfig};
    use crate::engine::{Actor, ActorId, BudgetExceeded, Ctx};

    fn two_hosts() -> (Simulation<()>, HostId, HostId) {
        let mut sim = Simulation::new(1);
        let h1 = sim.add_host(HostConfig::new("h1"));
        let h2 = sim.add_host(HostConfig::new("h2"));
        sim.set_network(NetworkConfig {
            ipc: LatencyModel::constant(20_000),
            tcp: LatencyModel::constant(150_000),
        });
        sim.set_sched_enabled(false);
        (sim, h1, h2)
    }

    #[test]
    fn rounds_are_sequential_and_paced() {
        let (mut sim, h1, h2) = two_hosts();
        let mut rounds = Vec::new();
        sim.run_exchanges(h1, &[h2], 3, 1_000_000, |r| rounds.push(r));
        // Ideal clocks: readings are virtual time. Each round is two TCP
        // hops; the next ping leaves one interval after the echo arrived.
        let expect = |start: u64| ExchangeRound {
            initiator: 0,
            ping_sent: LocalNanos(start),
            echoed: LocalNanos(start + 150_000),
            echo_received: LocalNanos(start + 300_000),
        };
        assert_eq!(rounds, [expect(0), expect(1_300_000), expect(2_600_000)]);
        assert_eq!(sim.events_processed(), 3 * 3 + 2);
        // The last event is the end-of-session notice arriving.
        assert_eq!(sim.now(), 2_900_000 + 150_000);
    }

    #[test]
    fn zero_round_exchange_is_the_session_notice_alone() {
        let (mut sim, h1, h2) = two_hosts();
        sim.run_exchanges(h1, &[h2, h1], 0, 1, |r| panic!("no rounds, got {r:?}"));
        // Two starts and the notice per chain; the loopback chain's notice
        // is an IPC hop, the other's a TCP hop.
        assert_eq!(sim.events_processed(), 6);
        assert_eq!(sim.now(), 150_000);
    }

    #[test]
    fn a_tripped_world_plays_nothing() {
        let (mut sim, h1, h2) = two_hosts();
        sim.set_budget(None, Some(4));
        sim.run_exchanges(h1, &[h2], 5, 1_000, |_| {});
        assert_eq!(sim.budget_exceeded(), Some(BudgetExceeded::Events));
        assert_eq!(sim.events_processed(), 4);
        let at = sim.now();
        sim.run_exchanges(h1, &[h2], 5, 1_000, |r| panic!("tripped, got {r:?}"));
        assert_eq!((sim.events_processed(), sim.now()), (4, at));
    }

    struct Idle;
    impl Actor<()> for Idle {
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: ActorId, _: ()) {}
    }

    #[test]
    #[should_panic(expected = "drained world")]
    fn pending_events_are_rejected() {
        let (mut sim, h1, h2) = two_hosts();
        sim.spawn(h1, Box::new(Idle)); // its start event is still queued
        sim.run_exchanges(h1, &[h2], 1, 1, |_| {});
    }
}
