//! The harness configuration and its checks: [`SimHarnessConfig`], the
//! typed [`CampaignError`] a misconfiguration is, and how the pool's
//! worker count and claim chunk resolve from the config.

use crate::daemons::RestartPolicy;
use crate::messages::NotifyRouting;
use loki_clock::params::fastest_reference;
use loki_sim::config::{HostConfig, NetworkConfig};

/// A campaign misconfiguration, detected before any experiment runs.
///
/// The entry points ([`run_experiment`](super::run_experiment),
/// [`CampaignPipeline::run`](super::CampaignPipeline::run) and
/// [`CampaignPipeline::run_tapped_with_workers`](super::CampaignPipeline::run_tapped_with_workers))
/// return these instead of panicking, so a campaign driver — a CLI loading
/// a hand-written campaign file, say — can report the problem and keep
/// going.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CampaignError {
    /// The host list is empty or invalid (duplicate names), the study
    /// places a machine on a host the configuration does not have, or
    /// [`SimHarnessConfig::kill_daemon`] names a host index past the list.
    Hosts(String),
    /// The worker count is zero: [`SimHarnessConfig::workers`] is
    /// `Some(0)`, or
    /// [`CampaignPipeline::run_tapped_with_workers`](super::CampaignPipeline::run_tapped_with_workers)
    /// was asked for no workers.
    Workers(String),
    /// The claim chunk is zero: [`SimHarnessConfig::batch`] is `Some(0)`.
    Batch(String),
    /// The pipeline's analysis options are invalid: an unusable sync β box
    /// or slack ([`loki_clock::sync::SyncOptions::validate`]).
    Analysis(String),
    /// The restart policy is invalid ([`RestartPolicy::validate`]).
    Restart(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Hosts(m)
            | CampaignError::Workers(m)
            | CampaignError::Batch(m)
            | CampaignError::Analysis(m)
            | CampaignError::Restart(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Configuration of the experiment harness.
#[derive(Clone, Debug)]
pub struct SimHarnessConfig {
    /// The simulated hosts. Their order defines host indices; placements in
    /// the study refer to these names.
    pub hosts: Vec<HostConfig>,
    /// Network latency models.
    pub network: NetworkConfig,
    /// Experiment timeout (central daemon aborts after this, §3.5.1).
    pub timeout_ns: u64,
    /// Rounds per sync mini-phase (each round yields two samples).
    pub sync_rounds: u32,
    /// Spacing between sync rounds.
    pub sync_interval_ns: u64,
    /// Notification routing design (§3.4.1).
    pub routing: NotifyRouting,
    /// Restart policy of the system under study, if any; one that fails
    /// [`RestartPolicy::validate`] is a [`CampaignError::Restart`].
    pub restart: Option<RestartPolicy>,
    /// Fault injection on the *injector itself*: crash the local daemon of
    /// host index `.0` at simulation offset `.1` (ns) into the runtime
    /// phase. The central daemon must detect the abnormality and abort the
    /// experiment (§3.5.1). A host index past [`SimHarnessConfig::hosts`]
    /// is a [`CampaignError::Hosts`].
    pub kill_daemon: Option<(u32, u64)>,
    /// Base RNG seed; experiment `k` of a study uses `seed + k`.
    pub seed: u64,
    /// Worker threads for [`CampaignPipeline::run`](super::CampaignPipeline::run)
    /// ([`CampaignPipeline::run_tapped_with_workers`](super::CampaignPipeline::run_tapped_with_workers)
    /// takes its count as an argument instead): `Some(n)` forces `n` workers, the calling thread
    /// included (`Some(1)` runs sequentially on it); `None` uses the
    /// machine's available parallelism. Never more workers than
    /// experiments. `Some(0)` is rejected as [`CampaignError::Workers`] — a
    /// silent fallback would hide a misconfigured campaign. Simulation
    /// results are identical for every worker count — each experiment is
    /// fully determined by `(seed, experiment_index)`.
    pub workers: Option<usize>,
    /// Consecutive experiment indices a
    /// [`CampaignPipeline`](super::CampaignPipeline) worker claims at a
    /// time; it runs them one after another on its one reset-reused
    /// world. `Some(k)` forces chunks of `k` (a chunk larger than the
    /// campaign is the campaign); `None` means 1. `Some(0)` is rejected as
    /// [`CampaignError::Batch`], exactly like `workers`. Study results are
    /// byte-identical for every chunk size — it only changes which worker
    /// runs which index, and no workload measures a gain from it: the
    /// knob is slated for removal.
    pub batch: Option<usize>,
    /// Deterministic virtual-time budget: an experiment whose next event
    /// would be scheduled after this many simulated nanoseconds ends as
    /// [`ExperimentFailure::BudgetVirtualTime`](loki_core::campaign::ExperimentFailure::BudgetVirtualTime)
    /// instead of running on. The trip point depends only on `(seed, experiment)` — never on worker
    /// count or batch size — so budgeted campaigns stay byte-identical
    /// across pool shapes. `None` (the default) disarms the budget
    /// entirely; a disarmed world pays one predictable branch per event.
    pub max_virtual_time: Option<u64>,
    /// Deterministic event-count budget: an experiment that has processed
    /// this many simulation events ends as
    /// [`ExperimentFailure::BudgetEvents`](loki_core::campaign::ExperimentFailure::BudgetEvents).
    /// Counts every event of the
    /// experiment (sync mini-phases included); same determinism contract
    /// and default as [`SimHarnessConfig::max_virtual_time`].
    pub max_events: Option<u64>,
}

impl Default for SimHarnessConfig {
    fn default() -> Self {
        SimHarnessConfig {
            hosts: Vec::new(),
            network: NetworkConfig::default(),
            timeout_ns: 60_000_000_000, // 60 s
            sync_rounds: 20,
            sync_interval_ns: 2_000_000, // 2 ms
            routing: NotifyRouting::default(),
            restart: None,
            kill_daemon: None,
            seed: 0,
            workers: None,
            batch: None,
            max_virtual_time: None,
            max_events: None,
        }
    }
}

impl SimHarnessConfig {
    /// A convenient three-host cluster with distinct clock drifts, the
    /// usual setup of the thesis's example campaign (§5.3).
    pub fn three_hosts(seed: u64) -> Self {
        use loki_clock::params::ClockParams;
        SimHarnessConfig {
            hosts: vec![
                HostConfig::new("host1").clock(ClockParams::with_drift_ppm(0.0, 120.0)),
                HostConfig::new("host2").clock(ClockParams::with_drift_ppm(2e6, -35.0)),
                HostConfig::new("host3").clock(ClockParams::with_drift_ppm(5e5, 60.0)),
            ],
            seed,
            ..Default::default()
        }
    }

    /// The reference host for off-line synchronization: the fastest clock
    /// (§5.7); `None` when the host list is empty.
    pub fn reference_host(&self) -> Option<&str> {
        fastest_reference(self.hosts.iter().map(|h| (h.name.as_str(), &h.clock)))
    }
}

/// Resolves the worker count for a study: the config's, otherwise the
/// machine's available parallelism; never more workers than experiments.
/// `Some(0)` is a [`CampaignError::Workers`].
pub(super) fn resolve_workers(
    cfg: &SimHarnessConfig,
    experiments: u32,
) -> Result<usize, CampaignError> {
    let workers = match cfg.workers {
        Some(0) => return Err(CampaignError::Workers(zero_knob("worker count", "workers"))),
        Some(n) => n,
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    Ok(workers.clamp(1, experiments.max(1) as usize))
}

/// Resolves the claim chunk of a campaign: the config's, otherwise 1.
/// `Some(0)` is a [`CampaignError::Batch`].
pub(super) fn resolve_batch(cfg: &SimHarnessConfig) -> Result<usize, CampaignError> {
    match cfg.batch {
        Some(0) => Err(CampaignError::Batch(zero_knob("batch size", "batch"))),
        batch => Ok(batch.unwrap_or(1)),
    }
}

/// The message for a pool-shape `field` configured as `Some(0)`.
fn zero_knob(what: &str, field: &str) -> String {
    format!(
        "loki: {what} must be at least 1 (config has `{field}: Some(0)`); \
         use `None` for the default"
    )
}
