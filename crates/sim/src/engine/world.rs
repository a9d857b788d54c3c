//! The world description: the host table, each host's virtual clock, the
//! network latency models and the OS scheduling model — what a
//! [`WorldConfig`] fixes for every experiment of a study, and the
//! [`Simulation`] methods that build and read it.

use super::{Dispatch, Simulation, WorldConfig};
use crate::config::{HostConfig, NetworkConfig};
use loki_clock::params::VirtualClock;
use loki_core::ids::{HostId, SymbolTable};
use loki_core::time::LocalNanos;
use std::fmt;
use std::sync::Arc;

/// A host name was registered twice.
///
/// Placements and [`Ctx::find_host`](super::Ctx::find_host) resolve hosts
/// by name, so a duplicate would silently shadow the second host;
/// registration rejects it instead. Returned by [`WorldConfig::add_host`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DuplicateHost {
    /// The name that was registered twice.
    pub name: String,
}

impl fmt::Display for DuplicateHost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "duplicate host name {:?}: every simulated host needs a unique name \
             (placements resolve hosts by name)",
            self.name
        )
    }
}

impl std::error::Error for DuplicateHost {}

impl WorldConfig {
    /// Creates an empty world description with the default network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a host; returns its id. Host ids are dense and assigned in
    /// registration order.
    pub fn add_host(&mut self, config: HostConfig) -> Result<HostId, DuplicateHost> {
        if self.symbols.lookup(&config.name).is_some() {
            return Err(DuplicateHost { name: config.name });
        }
        let id = Arc::make_mut(&mut self.symbols).intern(&config.name);
        self.clocks.push(VirtualClock::new(config.clock));
        self.hosts.push(config);
        Ok(id)
    }

    /// Replaces the network latency configuration.
    pub fn set_network(&mut self, network: NetworkConfig) {
        self.network = network;
    }

    /// The network latency configuration.
    pub fn network(&self) -> &NetworkConfig {
        &self.network
    }

    /// Host configuration lookup.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not part of this world.
    pub fn host(&self, host: HostId) -> &HostConfig {
        &self.hosts[host.index()]
    }

    /// The hosts in registration (= id) order.
    pub fn hosts(&self) -> &[HostConfig] {
        &self.hosts
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Looks up a host id by name (O(1)).
    pub fn find_host(&self, name: &str) -> Option<HostId> {
        self.symbols.lookup(name)
    }

    /// The host table: every host's name, interned in registration
    /// order. A harness shares this one table with the data its
    /// experiments produce.
    pub fn symbols(&self) -> &Arc<SymbolTable> {
        &self.symbols
    }
}

impl<M: 'static, A: Dispatch<M>> Simulation<M, A> {
    /// Replaces the network latency configuration.
    ///
    /// Copy-on-write when the world description is shared: other
    /// simulations holding the same [`WorldConfig`] are unaffected.
    pub fn set_network(&mut self, network: NetworkConfig) {
        Arc::make_mut(&mut self.config).set_network(network);
    }

    /// Enables or disables OS scheduling delays on message endpoints.
    ///
    /// On an idle host a runnable process is dispatched immediately; the
    /// Loki harness disables scheduling delays during the synchronization
    /// mini-phases (which run before/after the experiment, when nothing
    /// else is runnable) and enables them during the busy runtime phase.
    pub fn set_sched_enabled(&mut self, enabled: bool) {
        self.sched_enabled = enabled;
    }

    /// Adds a host; returns its id.
    ///
    /// # Panics
    ///
    /// Panics when the host's name is already registered — a duplicate
    /// would silently shadow the second host in every name-based lookup.
    /// [`WorldConfig::add_host`] returns the error instead.
    ///
    /// Copy-on-write when the world description is shared (campaigns
    /// should finish building the [`WorldConfig`] before sharing it).
    pub fn add_host(&mut self, config: HostConfig) -> HostId {
        match Arc::make_mut(&mut self.config).add_host(config) {
            Ok(id) => id,
            Err(e) => panic!("loki-sim: {e}"),
        }
    }

    /// Host configuration lookup.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not part of this simulation.
    pub fn host(&self, host: HostId) -> &HostConfig {
        self.config.host(host)
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.config.num_hosts()
    }

    /// Reads `host`'s local clock at the current instant.
    #[inline]
    pub fn local_clock(&self, host: HostId) -> LocalNanos {
        self.config.clocks[host.index()].read(self.time)
    }
}
