//! # loki-apps
//!
//! Instrumented example distributed applications for the Loki fault
//! injector — each implements the [`loki_runtime::App`] trait (the probe
//! interface) once: pass its factory to a
//! [`loki_runtime::CampaignPipeline`] for a deterministic simulated
//! campaign (`tests/apps.rs` at the workspace
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

/// Whether an injected fault with probability `activation` of becoming an
/// error does so: always at 1 or above, with no draw; otherwise one draw,
/// which a negative or NaN activation never wins.
pub(crate) fn activates(rng: &mut impl rand::Rng, activation: f64) -> bool {
    activation >= 1.0 || rng.gen_bool(activation.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// An activation in [0, 1) draws exactly as `gen_bool` did; at 1 or
    /// above there is no draw; below 0 and NaN draw once and never win.
    #[test]
    fn activation_draws_as_a_clamped_probability() {
        let cases = [(0.3, 0.3), (0.999, 0.999), (-0.5, 0.0), (f64::NAN, 0.0)];
        for (activation, p) in cases {
            let (mut rng, mut twin) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
            let same = (0..64).all(|_| activates(&mut rng, activation) == twin.gen_bool(p));
            assert!(same, "{activation}");
        }
        let mut rng = StdRng::seed_from_u64(5);
        assert!(activates(&mut rng, 1.0) && activates(&mut rng, 7.0));
        let untouched = StdRng::seed_from_u64(5).gen::<u64>();
        assert_eq!(rng.gen::<u64>(), untouched, "a draw at 1 or above");
    }
}
