//! The dynamic network fault plane: partitions, lossy/gray links, message
//! mutation — layered *over* the immutable [`WorldConfig`](crate::engine::WorldConfig) network.
//!
//! [`WorldConfig`](crate::engine::WorldConfig) describes the healthy
//! network and is `Arc`-shared, immutable, across every world of a study.
//! Mid-experiment network faults therefore live here, in a small mutable
//! [`NetFaultPlane`] owned by each [`Simulation`](crate::engine::Simulation):
//!
//! * a **partition** assigns every host to a group; cross-group messages
//!   are dropped (no RNG draw — the decision is structural);
//! * **directed link faults** degrade one `from → to` direction with
//!   per-message drop/duplicate/corrupt probabilities, a uniform reorder
//!   delay, and a fixed extra latency (asymmetric faults are two entries);
//! * a **gray node** multiplies the delay of every message into or out of
//!   one host.
//!
//! Determinism contract (the invariant everything else in this workspace
//! leans on):
//!
//! * While the plane is **inactive** — the steady state of every fault-free
//!   experiment — the send path consumes *zero* additional RNG draws and
//!   costs one boolean branch, so results and the `event_overhead` bench
//!   stay aligned with the pre-plane engine.
//! * While **active**, every probabilistic decision draws from the
//!   simulation's own seeded RNG in a fixed order (corrupt, drop, reorder,
//!   duplicate), so a given `(seed, experiment)` replays byte-identically
//!   regardless of the campaign's pool shape.
//! * [`Simulation::reset`](crate::engine::Simulation::reset) calls
//!   [`NetFaultPlane::reset`], so a reset-reused world never leaks one
//!   experiment's partition into the next.
//!
//! Semantics worth spelling out:
//!
//! * **Corrupted** messages model the receiver's checksum discarding the
//!   frame: they are dropped (the engine cannot mutate an opaque payload),
//!   but the corrupt decision draws before the drop decision so the two
//!   knobs stay independently tunable.
//! * **Reordered and duplicated** deliveries bypass the per-`(sender,
//!   receiver)` FIFO discipline — overtaking is the entire point of a
//!   reorder fault.
//! * Partitions apply to *every* message, including Loki's own daemon
//!   traffic (the daemons share the system's network, §3.5.2). The central
//!   daemon heals the plane when it begins experiment teardown — the
//!   injector's kill path is out-of-band — so a never-healed partition
//!   still terminates as a typed timeout, never a stall.

use crate::engine::HostId;
use loki_core::probe::FaultAction;
use std::fmt;

/// Parameters of one directed link fault (see
/// [`FaultAction::LinkFault`] for field semantics).
#[derive(Copy, Clone, Debug, PartialEq, Default)]
pub struct LinkFaultParams {
    /// Per-message drop probability in `[0,1]`.
    pub drop_prob: f64,
    /// Per-message duplication probability in `[0,1]`.
    pub dup_prob: f64,
    /// Uniform extra-delay bound (ns) applied outside the FIFO discipline.
    pub reorder_ns: u64,
    /// Per-message corruption probability in `[0,1]` (corrupted frames are
    /// discarded by the receiver's checksum).
    pub corrupt_prob: f64,
    /// Fixed extra latency (ns) on every message.
    pub extra_latency_ns: u64,
}

/// Why a [`FaultAction`] could not be applied to the plane.
#[derive(Clone, Debug, PartialEq)]
pub enum NetFaultError {
    /// The action names a host absent from the world.
    UnknownHost(String),
    /// A probability field is outside `[0,1]` (or not finite).
    BadProbability {
        /// Which field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A gray-node slowdown below 1.0 (or not finite) — gray nodes are
    /// slow, never fast.
    BadSlowdown(f64),
}

impl fmt::Display for NetFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetFaultError::UnknownHost(host) => write!(f, "unknown host `{host}`"),
            NetFaultError::BadProbability { field, value } => {
                write!(f, "{field} = {value} is not a probability in [0,1]")
            }
            NetFaultError::BadSlowdown(v) => {
                write!(f, "gray-node slowdown {v} must be finite and >= 1.0")
            }
        }
    }
}

impl std::error::Error for NetFaultError {}

fn check_prob(field: &'static str, value: f64) -> Result<(), NetFaultError> {
    if value.is_finite() && (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(NetFaultError::BadProbability { field, value })
    }
}

/// The mutable per-world network fault state (see the module docs for the
/// layering and determinism contract).
///
/// All mutators keep the internal `active` flag exact, so the engine's
/// send path pays a single predictable branch while no fault is armed.
/// Buffers retain capacity across [`reset`](Self::reset), matching the
/// allocation discipline of the rest of the per-world state.
#[derive(Debug, Default)]
pub struct NetFaultPlane {
    /// Partition group per host index; empty when no partition is armed.
    group_of: Vec<u32>,
    /// Directed link faults, sorted by `(from, to)` for binary search.
    links: Vec<(u32, u32, LinkFaultParams)>,
    /// Per-host delay multiplier; empty when no gray node is armed.
    gray: Vec<f64>,
    /// Exact summary of the three stores: false ⇔ all empty/identity.
    active: bool,
}

impl NetFaultPlane {
    /// Creates a healthy (inactive) plane.
    pub fn new() -> Self {
        NetFaultPlane::default()
    }

    /// Whether any fault is armed. While false, the engine's send path is
    /// byte-identical (including RNG consumption) to a plane-less engine.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Removes every fault, keeping buffer capacity (called by
    /// `Simulation::reset` so recycled worlds start healthy).
    pub fn reset(&mut self) {
        self.group_of.clear();
        self.links.clear();
        self.gray.clear();
        self.active = false;
    }

    /// [`reset`](Self::reset) under its fault-vocabulary name: the effect
    /// of [`FaultAction::Heal`].
    pub fn heal(&mut self) {
        self.reset();
    }

    /// Arms a partition: host `h` joins group `assignment[h]`. Hosts not
    /// covered by `assignment` (it may be shorter than the host count)
    /// join the implicit group `u32::MAX`.
    pub fn set_partition(&mut self, assignment: &[u32]) {
        self.group_of.clear();
        self.group_of.extend_from_slice(assignment);
        self.active = true;
    }

    /// Arms (or replaces) the directed link fault `from → to`.
    pub fn set_link_fault(&mut self, from: HostId, to: HostId, params: LinkFaultParams) {
        let key = (from.0, to.0);
        match self.links.binary_search_by_key(&key, |&(f, t, _)| (f, t)) {
            Ok(i) => self.links[i].2 = params,
            Err(i) => self.links.insert(i, (key.0, key.1, params)),
        }
        self.active = true;
    }

    /// Marks `host` gray with the given delay multiplier (≥ 1.0).
    pub fn set_gray(&mut self, host: HostId, slowdown: f64) {
        let idx = host.0 as usize;
        if self.gray.len() <= idx {
            self.gray.resize(idx + 1, 1.0);
        }
        self.gray[idx] = slowdown;
        self.active = true;
    }

    /// Whether a message `from → to` is cut by the armed partition.
    #[inline]
    pub fn partitioned(&self, from: HostId, to: HostId) -> bool {
        if self.group_of.is_empty() || from == to {
            return false;
        }
        let group = |h: HostId| self.group_of.get(h.0 as usize).copied().unwrap_or(u32::MAX);
        group(from) != group(to)
    }

    /// The armed link fault on `from → to`, if any.
    #[inline]
    pub fn link(&self, from: HostId, to: HostId) -> Option<LinkFaultParams> {
        let key = (from.0, to.0);
        self.links
            .binary_search_by_key(&key, |&(f, t, _)| (f, t))
            .ok()
            .map(|i| self.links[i].2)
    }

    /// The gray-node delay multiplier for a message `from → to`: the worst
    /// (largest) multiplier of the two endpoints, `1.0` when neither is
    /// gray.
    #[inline]
    pub fn slowdown(&self, from: HostId, to: HostId) -> f64 {
        let of = |h: HostId| self.gray.get(h.0 as usize).copied().unwrap_or(1.0);
        of(from).max(of(to))
    }

    /// Applies a network [`FaultAction`], resolving host names through
    /// `find_host` (the world's name → [`HostId`] map).
    ///
    /// Returns `Ok(false)` when the action is not a network action (the
    /// caller handles crash/hang/custom effects itself), `Ok(true)` when
    /// it was applied.
    ///
    /// # Errors
    ///
    /// [`NetFaultError`] when a host name is unknown or a parameter is out
    /// of range; the plane is left unchanged.
    pub fn apply_action(
        &mut self,
        action: &FaultAction,
        num_hosts: usize,
        mut find_host: impl FnMut(&str) -> Option<HostId>,
    ) -> Result<bool, NetFaultError> {
        let mut resolve = |name: &str| -> Result<HostId, NetFaultError> {
            find_host(name).ok_or_else(|| NetFaultError::UnknownHost(name.to_owned()))
        };
        match action {
            FaultAction::Partition { groups } => {
                // Validate every name before touching the plane.
                let mut assignment = vec![u32::MAX; num_hosts];
                for (g, members) in groups.iter().enumerate() {
                    for name in members {
                        let host = resolve(name)?;
                        if let Some(slot) = assignment.get_mut(host.0 as usize) {
                            *slot = g as u32;
                        }
                    }
                }
                self.set_partition(&assignment);
                Ok(true)
            }
            FaultAction::Heal => {
                self.heal();
                Ok(true)
            }
            FaultAction::LinkFault {
                from,
                to,
                drop_prob,
                dup_prob,
                reorder_ns,
                corrupt_prob,
                extra_latency_ns,
            } => {
                check_prob("drop_prob", *drop_prob)?;
                check_prob("dup_prob", *dup_prob)?;
                check_prob("corrupt_prob", *corrupt_prob)?;
                let from = resolve(from)?;
                let to = resolve(to)?;
                self.set_link_fault(
                    from,
                    to,
                    LinkFaultParams {
                        drop_prob: *drop_prob,
                        dup_prob: *dup_prob,
                        reorder_ns: *reorder_ns,
                        corrupt_prob: *corrupt_prob,
                        extra_latency_ns: *extra_latency_ns,
                    },
                );
                Ok(true)
            }
            FaultAction::GrayNode { host, slowdown } => {
                if !slowdown.is_finite() || *slowdown < 1.0 {
                    return Err(NetFaultError::BadSlowdown(*slowdown));
                }
                let host = resolve(host)?;
                self.set_gray(host, *slowdown);
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: u32) -> HostId {
        HostId(i)
    }

    #[test]
    fn fresh_plane_is_inactive_and_transparent() {
        let p = NetFaultPlane::new();
        assert!(!p.is_active());
        assert!(!p.partitioned(h(0), h(1)));
        assert_eq!(p.link(h(0), h(1)), None);
        assert_eq!(p.slowdown(h(0), h(1)), 1.0);
    }

    #[test]
    fn partition_cuts_cross_group_only() {
        let mut p = NetFaultPlane::new();
        p.set_partition(&[0, 1, 1]);
        assert!(p.is_active());
        assert!(p.partitioned(h(0), h(1)));
        assert!(p.partitioned(h(2), h(0)));
        assert!(!p.partitioned(h(1), h(2)));
        assert!(!p.partitioned(h(0), h(0)), "same host is never partitioned");
        // Hosts beyond the assignment share the implicit group.
        assert!(!p.partitioned(h(5), h(9)));
        assert!(p.partitioned(h(0), h(5)));
        p.heal();
        assert!(!p.is_active());
        assert!(!p.partitioned(h(0), h(1)));
    }

    #[test]
    fn link_faults_are_directed_and_replaceable() {
        let mut p = NetFaultPlane::new();
        let params = LinkFaultParams {
            drop_prob: 0.5,
            ..Default::default()
        };
        p.set_link_fault(h(0), h(1), params);
        assert_eq!(p.link(h(0), h(1)), Some(params));
        assert_eq!(p.link(h(1), h(0)), None, "faults are one direction only");
        let harsher = LinkFaultParams {
            drop_prob: 1.0,
            ..Default::default()
        };
        p.set_link_fault(h(0), h(1), harsher);
        assert_eq!(p.link(h(0), h(1)), Some(harsher));
    }

    #[test]
    fn gray_slowdown_takes_the_worst_endpoint() {
        let mut p = NetFaultPlane::new();
        p.set_gray(h(2), 4.0);
        assert_eq!(p.slowdown(h(0), h(2)), 4.0);
        assert_eq!(p.slowdown(h(2), h(0)), 4.0);
        assert_eq!(p.slowdown(h(0), h(1)), 1.0);
        p.set_gray(h(0), 8.0);
        assert_eq!(p.slowdown(h(0), h(2)), 8.0);
    }

    #[test]
    fn apply_action_validates_before_mutating() {
        let hosts = ["host1", "host2"];
        let find = |name: &str| {
            hosts
                .iter()
                .position(|&n| n == name)
                .map(|i| HostId(i as u32))
        };
        let mut p = NetFaultPlane::new();
        let bad = FaultAction::LinkFault {
            from: "host1".into(),
            to: "host2".into(),
            drop_prob: 1.5,
            dup_prob: 0.0,
            reorder_ns: 0,
            corrupt_prob: 0.0,
            extra_latency_ns: 0,
        };
        assert!(matches!(
            p.apply_action(&bad, hosts.len(), find),
            Err(NetFaultError::BadProbability {
                field: "drop_prob",
                ..
            })
        ));
        assert!(!p.is_active(), "rejected action must not arm the plane");
        let unknown = FaultAction::GrayNode {
            host: "nope".into(),
            slowdown: 2.0,
        };
        assert!(matches!(
            p.apply_action(&unknown, hosts.len(), find),
            Err(NetFaultError::UnknownHost(_))
        ));
        let slow = FaultAction::GrayNode {
            host: "host2".into(),
            slowdown: 0.5,
        };
        assert!(matches!(
            p.apply_action(&slow, hosts.len(), find),
            Err(NetFaultError::BadSlowdown(_))
        ));
        // Non-net actions pass through untouched.
        assert_eq!(
            p.apply_action(&FaultAction::CrashNode, hosts.len(), find),
            Ok(false)
        );
        // A valid partition applies.
        let part = FaultAction::Partition {
            groups: vec![vec!["host1".into()], vec!["host2".into()]],
        };
        assert_eq!(p.apply_action(&part, hosts.len(), find), Ok(true));
        assert!(p.partitioned(h(0), h(1)));
    }
}
