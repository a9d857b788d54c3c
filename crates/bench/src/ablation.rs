//! The §3.4 design-choice ablation: notification latency and node
//! entry/exit cost across the three runtime architectures.
//!
//! The thesis compares centralized, partially distributed, and fully
//! distributed daemon designs, with notifications either routed through
//! daemons or sent directly (§3.4.1–3.4.2, Figure 3.4). This module
//! measures the *notification latency* (targeted-state entry on one host →
//! injection on another host) per design on identical workloads, and
//! derives the connection-setup costs of node entry/exit analytically from
//! the design's topology (as §3.4.2 argues them).
//!
//! Beside it sits the §2.5 sync ablation's cell ([`sync_bound_quality`]):
//! how tight the off-line clock bounds come out for a given number of
//! synchronization rounds and a given network jitter.

use crate::accuracy::{accuracy_study, AccuracyConfig};
use loki_clock::params::ClockParams;
use loki_clock::sync::{estimate_alpha_beta, AlphaBetaBounds, SyncOptions};
use loki_core::campaign::ExperimentData;
use loki_core::ids::Id;
use loki_core::recorder::RecordKind;
use loki_core::study::Study;
use loki_runtime::harness::{run_study, SimHarnessConfig};
use loki_runtime::messages::NotifyRouting;
use loki_runtime::store::SyncCollector;
use loki_sim::config::{HostConfig, LatencyModel, NetworkConfig};
use loki_sim::engine::Simulation;
use std::sync::Arc;

/// Latency samples for one routing design.
#[derive(Clone, Debug)]
pub struct LatencySample {
    /// The design measured.
    pub routing: NotifyRouting,
    /// Per-experiment notification latencies in nanoseconds (state entry
    /// on the target host → injection on the injector host, on ideal
    /// clocks).
    pub latencies_ns: Vec<f64>,
}

impl LatencySample {
    /// Mean latency (ns).
    pub fn mean(&self) -> f64 {
        if self.latencies_ns.is_empty() {
            return f64::NAN;
        }
        self.latencies_ns.iter().sum::<f64>() / self.latencies_ns.len() as f64
    }

    /// The `q`-quantile latency (ns), e.g. `0.95`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.latencies_ns.is_empty() {
            return f64::NAN;
        }
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_by(f64::total_cmp);
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    }
}

/// Measures notification latency for `routing` with the given timeslice.
///
/// Hosts use *ideal* clocks so that local timestamps on different hosts are
/// directly comparable; latency = injector's injection record time −
/// target's state-entry record time.
pub fn notification_latency(
    routing: NotifyRouting,
    timeslice_ns: u64,
    experiments: u32,
    seed: u64,
) -> LatencySample {
    let study = Arc::new(Study::compile(&accuracy_study()).expect("valid study"));

    // Long residence so the injection always lands while ARMED holds.
    let cfg = AccuracyConfig {
        timeslice_ns,
        time_in_state_ns: 40 * timeslice_ns.max(1_000_000),
        experiments,
        seed,
        routing,
    };
    let settle_ns = 150_000_000;
    let lifetime_ns = settle_ns + cfg.time_in_state_ns + 250_000_000;
    let time_in_state_ns = cfg.time_in_state_ns;
    let factory: loki_runtime::AppFactory = {
        use crate::accuracy::{InjectorApp, TargetApp};
        Arc::new(move |study: &Study, sm| -> Box<dyn loki_runtime::App> {
            if study.sms.name(sm) == "target" {
                Box::new(TargetApp::new(settle_ns, time_in_state_ns))
            } else {
                Box::new(InjectorApp::new(lifetime_ns))
            }
        })
    };

    let harness = SimHarnessConfig {
        hosts: vec![
            HostConfig::new("host1").timeslice_ns(timeslice_ns),
            HostConfig::new("host2").timeslice_ns(timeslice_ns),
        ],
        routing,
        seed,
        ..Default::default()
    };

    let armed = study.states.lookup("ARMED").expect("state exists");
    let target_sm = study.sm_id("target").expect("machine exists");
    let injector_sm = study.sm_id("injector").expect("machine exists");
    // The latency extraction needs *raw* record timestamps — and nothing
    // of the analysis — so this campaign takes the raw-data entry point.
    let extract = move |data: &ExperimentData| -> Option<f64> {
        let target = data.timeline_for(target_sm)?;
        let injector = data.timeline_for(injector_sm)?;
        let entry = target.records.iter().find_map(|r| match r.kind {
            RecordKind::StateChange { new_state, .. } if new_state == armed => {
                Some(r.time.as_nanos())
            }
            _ => None,
        })?;
        let injection = injector.records.iter().find_map(|r| match r.kind {
            RecordKind::FaultInjection { .. } => Some(r.time.as_nanos()),
            _ => None,
        })?;
        (injection >= entry).then(|| (injection - entry) as f64)
    };
    let latencies = run_study(&study, factory, &harness, experiments)
        .expect("valid campaign config")
        .iter()
        .filter_map(extract)
        .collect();
    LatencySample {
        routing,
        latencies_ns: latencies,
    }
}

/// Connection-setup counts on node entry, per design (§3.4.2): how many
/// connections a dynamically entering node must establish.
///
/// Returns `(ipc_connections, tcp_connections)` for a system of `n` nodes.
pub fn entry_connections(routing: NotifyRouting, n: usize) -> (usize, usize) {
    match routing {
        // Partially distributed through daemons: connect to the local
        // daemon over IPC only.
        NotifyRouting::ThroughDaemons => (1, 0),
        // Direct: TCP connections to every other state machine.
        NotifyRouting::Direct => (0, n.saturating_sub(1)),
        // Centralized: one TCP connection to the global daemon.
        NotifyRouting::Centralized => (0, 1),
    }
}

/// One cell of the §2.5 sync ablation: the clock bounds a calibrated host
/// earns from `rounds` ping/echo rounds per mini-phase over a link with
/// `jitter_ns` of one-way jitter, and the true `(α, β)` they must contain.
///
/// Two hosts — an ideal reference and a machine 3 ms ahead drifting at
/// 120 ppm — on a 50 µs link, scheduling delays off (the mini-phases run
/// on an idle system). The pre-phase plays at t = 0 and the post-phase
/// 10 s later, both through [`Simulation::run_exchanges`], the mini-phase
/// every simulated experiment is bracketed with, each round going to the
/// runtime's [`SyncCollector`] as the harness's rounds do.
pub fn sync_bound_quality(rounds: u32, jitter_ns: u64) -> (AlphaBetaBounds, (f64, f64)) {
    const ROUND_INTERVAL_NS: u64 = 1_000_000;
    const POST_PHASE_AT_NS: u64 = 10_000_000_000;
    let reference_clock = ClockParams::ideal();
    let machine_clock = ClockParams::with_drift_ppm(3e6, 120.0);

    let mut sim: Simulation<()> = Simulation::new(0x0205);
    sim.set_network(NetworkConfig {
        tcp: LatencyModel {
            base_ns: 50_000,
            jitter_ns,
        },
        ..NetworkConfig::default()
    });
    sim.set_sched_enabled(false);
    let reference = sim.add_host(HostConfig::new("reference").clock(reference_clock));
    let machine = sim.add_host(HostConfig::new("machine").clock(machine_clock));

    // Sim host indices double as study-run host ids, as in the harness.
    let collector = SyncCollector::new();
    let calibrated = Id::from_raw(machine.0);
    for phase_at_ns in [0, POST_PHASE_AT_NS] {
        sim.run_until(phase_at_ns);
        sim.run_exchanges(reference, &[machine], rounds, ROUND_INTERVAL_NS, |round| {
            collector.push_round(
                calibrated,
                round.ping_sent,
                round.echoed,
                round.echo_received,
            )
        });
    }
    let samples = collector.drain().pop().expect("at least one round").samples;
    let bounds = estimate_alpha_beta(&samples, &SyncOptions::default())
        .expect("both directions sampled in both phases");
    (bounds, machine_clock.relative_to(&reference_clock))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_is_fastest_daemons_slowest_per_hop_count() {
        // With zero timeslice the latencies are pure link sums:
        // Direct = 1 TCP hop; Centralized = 2; ThroughDaemons = IPC+TCP+IPC.
        let direct = notification_latency(NotifyRouting::Direct, 0, 8, 1);
        let central = notification_latency(NotifyRouting::Centralized, 0, 8, 1);
        let daemons = notification_latency(NotifyRouting::ThroughDaemons, 0, 8, 1);
        assert!(!direct.latencies_ns.is_empty());
        assert!(
            direct.mean() < central.mean(),
            "{} vs {}",
            direct.mean(),
            central.mean()
        );
        assert!(direct.mean() < daemons.mean());
        // All are far below a millisecond (the §3.4.2 argument that the
        // daemon detour costs little next to OS scheduling).
        assert!(daemons.mean() < 1_000_000.0);
    }

    #[test]
    fn entry_cost_table() {
        assert_eq!(entry_connections(NotifyRouting::ThroughDaemons, 10), (1, 0));
        assert_eq!(entry_connections(NotifyRouting::Direct, 10), (0, 9));
        assert_eq!(entry_connections(NotifyRouting::Centralized, 10), (0, 1));
    }

    /// §2.5: the bounds are guarantees at every cell of the sweep the
    /// `sync_ablation` binary prints, more rounds never loosen them, and
    /// jitter is what sets their width.
    #[test]
    fn sync_bounds_are_sound_and_tighten_with_rounds_and_low_jitter() {
        const ROUNDS: [u32; 5] = [2, 5, 10, 20, 50];
        const JITTER_US: [u64; 4] = [10, 50, 200, 1000];
        let width = |rounds: u32, jitter_us: u64| {
            let (bounds, (alpha, beta)) = sync_bound_quality(rounds, jitter_us * 1_000);
            assert!(
                bounds.contains(alpha, beta),
                "rounds {rounds}, jitter {jitter_us} us: {bounds:?} misses ({alpha}, {beta})"
            );
            bounds.alpha_width()
        };
        let widths: Vec<Vec<f64>> = JITTER_US
            .iter()
            .map(|&jitter_us| ROUNDS.iter().map(|&r| width(r, jitter_us)).collect())
            .collect();
        for (row, jitter_us) in widths.iter().zip(JITTER_US) {
            assert!(
                row[ROUNDS.len() - 1] <= row[0],
                "jitter {jitter_us} us: 50 rounds wider than 2: {row:?}"
            );
        }
        for (i, rounds) in ROUNDS.iter().enumerate() {
            let (low, high) = (widths[0][i], widths[JITTER_US.len() - 1][i]);
            assert!(
                low < high,
                "{rounds} rounds: 10 us jitter {low} not tighter than 1000 us {high}"
            );
        }
    }
}
