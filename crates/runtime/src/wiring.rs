//! Actor wiring: who the daemons, central daemon, and supervisor are, and
//! where the machines of the node file start.
//!
//! Plays the role of the thesis's *daemon startup file* and *daemon contact
//! file* (§3.5.2): configuration every component reads at startup to find
//! its peers. The harness builds it once per study, before any experiment:
//! the long-lived actors' ids depend only on the configuration, because
//! every experiment spawns them first, in one fixed order, on a world whose
//! actor ids start at 0 (the sync mini-phase spawns nothing). The daemons
//! come first (one per host, or one in the centralized design), then the
//! supervisor if there is one, then the central daemon.

use crate::messages::NotifyRouting;
use loki_core::ids::{HostId, SmId};
use loki_sim::engine::ActorId;

/// The wiring table of one study.
#[derive(Debug)]
pub(crate) struct Wiring {
    /// The daemon serving each host, indexed by [`HostId`]. In the
    /// centralized design every entry is the same actor.
    daemons: Box<[ActorId]>,
    /// The distinct daemons, in host order.
    unique: Box<[ActorId]>,
    supervisor: Option<ActorId>,
    central: ActorId,
    /// The machines the node file places, with their host, in node file
    /// order.
    placements: Box<[(SmId, HostId)]>,
}

impl Wiring {
    /// The wiring of `hosts` hosts under `routing`, with a supervisor when
    /// `supervised`, starting `placements`.
    pub fn new(
        hosts: usize,
        routing: NotifyRouting,
        supervised: bool,
        placements: Box<[(SmId, HostId)]>,
    ) -> Self {
        let centralized = routing == NotifyRouting::Centralized;
        let num_daemons = if centralized { 1 } else { hosts };
        let unique: Box<[ActorId]> = (0..num_daemons as u32).map(ActorId).collect();
        let daemons = (0..hosts)
            .map(|idx| unique[if centralized { 0 } else { idx }])
            .collect();
        let supervisor = supervised.then_some(ActorId(num_daemons as u32));
        let central = ActorId(num_daemons as u32 + u32::from(supervised));
        Wiring {
            daemons,
            unique,
            supervisor,
            central,
            placements,
        }
    }

    /// The daemon serving `host`.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not a configured host.
    pub fn daemon_for(&self, host: HostId) -> ActorId {
        self.daemons[host.index()]
    }

    /// All distinct daemon actors, in host order.
    pub fn unique(&self) -> &[ActorId] {
        &self.unique
    }

    /// The central daemon.
    pub fn central(&self) -> ActorId {
        self.central
    }

    /// The restart supervisor, if configured.
    pub fn supervisor(&self) -> Option<ActorId> {
        self.supervisor
    }

    /// The machines the node file places, with their host.
    pub fn placements(&self) -> &[(SmId, HostId)] {
        &self.placements
    }

    /// Whether the node file starts a machine through `daemon`.
    pub fn starts_through(&self, daemon: ActorId) -> bool {
        self.placements
            .iter()
            .any(|&(_, host)| self.daemon_for(host) == daemon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_unique_dedups_centralized_wiring() {
        let w = Wiring::new(3, NotifyRouting::Centralized, false, Box::new([]));
        let d = ActorId(0);
        assert_eq!(w.unique(), [d]);
        assert_eq!(w.daemon_for(HostId::from_raw(2)), d);
        assert_eq!(w.central(), ActorId(1));
    }

    #[test]
    fn central_and_supervisor() {
        let w = Wiring::new(3, NotifyRouting::ThroughDaemons, false, Box::new([]));
        assert_eq!(w.unique(), [ActorId(0), ActorId(1), ActorId(2)]);
        assert_eq!(w.supervisor(), None);
        assert_eq!(w.central(), ActorId(3));
        let w = Wiring::new(3, NotifyRouting::Direct, true, Box::new([]));
        assert_eq!(w.daemon_for(HostId::from_raw(1)), ActorId(1));
        assert_eq!(w.supervisor(), Some(ActorId(3)));
        assert_eq!(w.central(), ActorId(4));
    }
}
