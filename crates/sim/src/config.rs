//! Simulation configuration: hosts, links, and the OS scheduling model.
//!
//! The thesis's performance analysis (§3.2.2) found that Loki's injection
//! accuracy is dominated by the *OS context-switching overhead incurred
//! during the sending and receiving of a notification message* — roughly a
//! couple of OS timeslices — while raw network and injection overheads are
//! minimal. The simulator therefore models, for every message:
//!
//! ```text
//! delay = sched(sender host) + link latency + sched(receiver host)
//! ```
//!
//! where `sched(h)` samples a dispatch delay uniform in `[0, timeslice]` of
//! host `h` (zero when the host's timeslice is zero), and the link latency
//! is IPC-like within a host (~20 µs) and TCP-like across hosts (~150 µs),
//! the figures used in the design comparison of §3.4.2.

use loki_clock::params::ClockParams;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A one-way link latency model: `base + U(0, jitter)` nanoseconds.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Fixed component in nanoseconds.
    pub base_ns: u64,
    /// Uniform jitter bound in nanoseconds.
    pub jitter_ns: u64,
}

impl LatencyModel {
    /// A constant-latency model.
    pub fn constant(base_ns: u64) -> Self {
        LatencyModel {
            base_ns,
            jitter_ns: 0,
        }
    }

    /// Samples one latency.
    #[inline]
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        if self.jitter_ns == 0 {
            self.base_ns
        } else {
            self.base_ns + rng.gen_range(0..=self.jitter_ns)
        }
    }
}

/// Network-wide latency configuration.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Same-host (shared-memory/IPC) latency; the thesis quotes ~20 µs.
    pub ipc: LatencyModel,
    /// Cross-host (TCP/IP on a LAN) latency; the thesis quotes ~150 µs.
    pub tcp: LatencyModel,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            ipc: LatencyModel {
                base_ns: 20_000,
                jitter_ns: 5_000,
            },
            tcp: LatencyModel {
                base_ns: 150_000,
                jitter_ns: 50_000,
            },
        }
    }
}

/// Configuration of one simulated host.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HostConfig {
    /// Host name (used in timelines and sync records).
    pub name: String,
    /// The host's clock model.
    pub clock: ClockParams,
    /// OS scheduler timeslice in nanoseconds; message endpoints incur a
    /// dispatch delay uniform in `[0, timeslice]`. Zero disables scheduling
    /// delay.
    pub timeslice_ns: u64,
    /// Crash-detection latency: how long after a process dies its local
    /// observers (daemons holding an IPC connection) are notified.
    pub crash_detect_ns: u64,
}

impl HostConfig {
    /// A host with an ideal clock and a 10 ms timeslice (the thesis's
    /// default Linux kernel).
    pub fn new(name: &str) -> Self {
        HostConfig {
            name: name.to_owned(),
            clock: ClockParams::ideal(),
            timeslice_ns: 10_000_000,
            crash_detect_ns: 50_000,
        }
    }

    /// Sets the clock model.
    pub fn clock(mut self, clock: ClockParams) -> Self {
        self.clock = clock;
        self
    }

    /// Sets the scheduler timeslice (ns).
    pub fn timeslice_ns(mut self, timeslice_ns: u64) -> Self {
        self.timeslice_ns = timeslice_ns;
        self
    }

    /// Sets the crash-detection latency (ns).
    pub fn crash_detect_ns(mut self, crash_detect_ns: u64) -> Self {
        self.crash_detect_ns = crash_detect_ns;
        self
    }

    /// Samples a dispatch (scheduling) delay for this host.
    #[inline]
    fn sched_delay(&self, rng: &mut impl Rng) -> u64 {
        if self.timeslice_ns == 0 {
            0
        } else {
            rng.gen_range(0..=self.timeslice_ns)
        }
    }
}

/// Samples the sender- and receiver-side dispatch delays of one message
/// from a **single** RNG word: each 32-bit half maps onto `[0, timeslice]`
/// by multiply-shift. Every message send pays this on the hot path, so
/// halving the generator calls is a measurable per-event cut.
///
/// The multiply-shift map carries a uniformity bias of at most
/// `(timeslice+1)/2^32` per value — under 0.25% at the default 10 ms
/// timeslice, far below the realism of the scheduling model itself.
/// Timeslices that don't fit the lane trick (≥ `u32::MAX` ns ≈ 4.3 s) fall
/// back to two exact full-width draws.
#[inline]
pub fn sched_delay_pair(from: &HostConfig, to: &HostConfig, rng: &mut impl Rng) -> (u64, u64) {
    let (a, b) = (from.timeslice_ns, to.timeslice_ns);
    if a == 0 && b == 0 {
        return (0, 0);
    }
    if a >= u32::MAX as u64 || b >= u32::MAX as u64 {
        return (from.sched_delay(rng), to.sched_delay(rng));
    }
    let word = rng.next_u64();
    (
        lane_delay(word as u32, a),
        lane_delay((word >> 32) as u32, b),
    )
}

/// Maps one 32-bit lane onto `[0, timeslice_ns]` (multiply-shift).
#[inline]
fn lane_delay(lane: u32, timeslice_ns: u64) -> u64 {
    if timeslice_ns == 0 {
        0
    } else {
        (lane as u64 * (timeslice_ns + 1)) >> 32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn latency_sampling_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel {
            base_ns: 100,
            jitter_ns: 50,
        };
        for _ in 0..100 {
            let v = m.sample(&mut rng);
            assert!((100..=150).contains(&v));
        }
        assert_eq!(LatencyModel::constant(7).sample(&mut rng), 7);
    }

    #[test]
    fn zero_jitter_sampling_draws_nothing_from_the_rng() {
        // The constant-latency fast path must not consume RNG state:
        // identically-seeded generators stay in lockstep whether or not a
        // zero-jitter model was sampled in between. Campaign determinism
        // (byte-identical replays across worker/batch splits) leans on
        // this — an extra draw would shift every later decision.
        use rand::RngCore;
        let mut sampled = StdRng::seed_from_u64(42);
        let mut untouched = StdRng::seed_from_u64(42);
        let m = LatencyModel::constant(150_000);
        for _ in 0..8 {
            assert_eq!(m.sample(&mut sampled), 150_000);
        }
        for _ in 0..4 {
            assert_eq!(sampled.next_u64(), untouched.next_u64());
        }
    }

    #[test]
    fn sched_delay_bounded_by_timeslice() {
        let mut rng = StdRng::seed_from_u64(2);
        let h = HostConfig::new("h").timeslice_ns(1_000_000);
        for _ in 0..100 {
            assert!(h.sched_delay(&mut rng) <= 1_000_000);
        }
        let h0 = HostConfig::new("h").timeslice_ns(0);
        assert_eq!(h0.sched_delay(&mut rng), 0);
    }

    #[test]
    fn sched_delay_pair_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = HostConfig::new("a").timeslice_ns(1_000_000);
        let b = HostConfig::new("b").timeslice_ns(2_000_000);
        for _ in 0..200 {
            let (da, db) = sched_delay_pair(&a, &b, &mut rng);
            assert!(da <= 1_000_000);
            assert!(db <= 2_000_000);
        }
        // Zero timeslices stay exactly zero, alone and mixed.
        let z = HostConfig::new("z").timeslice_ns(0);
        assert_eq!(sched_delay_pair(&z, &z, &mut rng), (0, 0));
        let (dz, db) = sched_delay_pair(&z, &b, &mut rng);
        assert_eq!(dz, 0);
        assert!(db <= 2_000_000);
        // Oversized timeslices take the exact fallback and stay bounded.
        let wide = HostConfig::new("w").timeslice_ns(u64::from(u32::MAX) + 7);
        let (dw, db) = sched_delay_pair(&wide, &b, &mut rng);
        assert!(dw <= wide.timeslice_ns);
        assert!(db <= 2_000_000);
    }

    #[test]
    fn defaults_match_thesis_figures() {
        let n = NetworkConfig::default();
        assert_eq!(n.ipc.base_ns, 20_000); // ~20 µs IPC
        assert_eq!(n.tcp.base_ns, 150_000); // ~150 µs TCP
        let h = HostConfig::new("h");
        assert_eq!(h.timeslice_ns, 10_000_000); // 10 ms Linux timeslice
    }
}
