//! # loki-apps
//!
//! Instrumented example distributed applications for the Loki fault
//! injector — each implements the [`loki_runtime::App`] trait (the probe
//! interface) once: pass its factory to [`loki_runtime::run_study`] for a
//! deterministic simulated campaign (`tests/apps.rs` at the workspace
//! root runs the election, KV-store and token-ring apps that way). Each
//! module also ships a study builder with the state-machine specifications
//! and notify lists its faults need:
//!
//! * [`election`] — the thesis's Chapter-5 test application: leader
//!   election among `black`/`yellow`/`green` with crash/restart support.
//! * [`kvstore`] — a primary-backup replicated key-value store with
//!   deterministic failover (unavailability measures).
//! * [`token_ring`] — token-ring mutual exclusion with loss detection and
//!   regeneration (global-invariant measures).
//! * [`chaos`] — a deliberately misbehaving workload (panics, endless
//!   loops) for survivability campaigns against the harness itself.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The apps dispatch on timer/message tags and guard on role state inside
// each arm; collapsing the guards into match arms would change fall-through
// behavior around the `t >= TAG_COLLECT_BASE` arms.
#![allow(clippy::collapsible_match)]

pub mod chaos;
pub mod election;
pub mod kvstore;
pub mod token_ring;

pub use chaos::{chaos_factory, chaos_sm_spec, chaos_study, ChaosConfig, ChaosNode};
pub use election::{election_factory, election_sm_spec, election_study, Election, ElectionConfig};
pub use kvstore::{kv_factory, kv_sm_spec, kv_study, KvConfig, KvReplica};
pub use token_ring::{ring_factory, ring_sm_spec, ring_study, RingConfig, RingMember};
