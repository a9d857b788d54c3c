//! Actor wiring: who the daemons, central daemon, and supervisor are.
//!
//! Plays the role of the thesis's *daemon startup file* and *daemon contact
//! file* (§3.5.2): configuration every component reads at startup to find
//! its peers. The harness fills it after spawning all long-lived actors and
//! before the simulation runs its first event.
//!
//! The distinct-daemon list is computed once at fill time and cached: the
//! hot consumers (peer broadcast, the completion check, central-daemon
//! shutdown) borrow the cached slice instead of rebuilding a deduplicated
//! vector per call.

use loki_sim::engine::ActorId;
use std::cell::{Cell, RefCell};

/// Shared wiring table.
#[derive(Debug, Default)]
pub struct Wiring {
    daemons: RefCell<Vec<ActorId>>,
    /// Distinct daemons in host order, recomputed whenever the daemon
    /// list changes.
    unique: RefCell<Vec<ActorId>>,
    central: Cell<Option<ActorId>>,
    supervisor: Cell<Option<ActorId>>,
}

impl Wiring {
    /// Creates an empty table.
    pub fn new() -> Self {
        Wiring::default()
    }

    /// Fills the per-host daemon list (index = host index) from an
    /// iterator, reusing the list's existing allocation (the campaign
    /// driver recycles wiring tables across experiments). In the
    /// centralized design every entry is the same actor.
    pub fn fill_daemons(&self, daemons: impl IntoIterator<Item = ActorId>) {
        {
            let mut list = self.daemons.borrow_mut();
            list.clear();
            list.extend(daemons);
        }
        self.recompute_unique();
    }

    fn recompute_unique(&self) {
        let mut unique = self.unique.borrow_mut();
        unique.clear();
        for &d in self.daemons.borrow().iter() {
            if !unique.contains(&d) {
                unique.push(d);
            }
        }
    }

    /// Clears the whole table (keeping the lists' capacity) so it can be
    /// refilled for the next experiment.
    pub fn reset(&self) {
        self.daemons.borrow_mut().clear();
        self.unique.borrow_mut().clear();
        self.central.set(None);
        self.supervisor.set(None);
    }

    /// The daemon serving `host_idx`.
    ///
    /// # Panics
    ///
    /// Panics if the wiring has not been filled for that host.
    pub fn daemon_for(&self, host_idx: usize) -> ActorId {
        self.daemons.borrow()[host_idx]
    }

    /// Applies `f` to the cached distinct-daemon slice (all *distinct*
    /// daemon actors, in host order) without cloning it.
    /// The slice is borrowed for the duration of `f`; `f` must not refill
    /// the wiring (spawning/sending through an actor context is fine — the
    /// engine never touches the wiring).
    pub fn with_unique<R>(&self, f: impl FnOnce(&[ActorId]) -> R) -> R {
        f(&self.unique.borrow())
    }

    /// Number of distinct daemon actors.
    pub fn num_unique(&self) -> usize {
        self.unique.borrow().len()
    }

    /// Sets the central daemon.
    pub fn set_central(&self, central: ActorId) {
        self.central.set(Some(central));
    }

    /// The central daemon.
    ///
    /// # Panics
    ///
    /// Panics if unset.
    pub fn central(&self) -> ActorId {
        self.central.get().expect("central daemon wired")
    }

    /// Sets the restart supervisor (optional).
    pub fn set_supervisor(&self, supervisor: ActorId) {
        self.supervisor.set(Some(supervisor));
    }

    /// The restart supervisor, if configured.
    pub fn supervisor(&self) -> Option<ActorId> {
        self.supervisor.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_unique_dedups_centralized_wiring() {
        let w = Wiring::new();
        let d = ActorId(7);
        w.fill_daemons([d, d, d]);
        assert_eq!(w.num_unique(), 1);
        assert_eq!(w.daemon_for(2), d);
        w.with_unique(|unique| assert_eq!(unique, [d]));
    }

    #[test]
    fn unique_cache_tracks_refills() {
        let w = Wiring::new();
        w.fill_daemons([ActorId(1), ActorId(2), ActorId(1)]);
        w.with_unique(|unique| assert_eq!(unique, [ActorId(1), ActorId(2)]));
        w.reset();
        assert_eq!(w.num_unique(), 0);
        w.fill_daemons([ActorId(9)]);
        w.with_unique(|unique| assert_eq!(unique, [ActorId(9)]));
    }

    #[test]
    fn central_and_supervisor() {
        let w = Wiring::new();
        assert_eq!(w.supervisor(), None);
        w.set_central(ActorId(1));
        w.set_supervisor(ActorId(2));
        assert_eq!(w.central(), ActorId(1));
        assert_eq!(w.supervisor(), Some(ActorId(2)));
    }
}
