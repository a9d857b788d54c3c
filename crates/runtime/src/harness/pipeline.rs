//! The campaign pipeline: the caller-runs worker pool, the bounded hand-off
//! of analyzed results, and the reorder buffer that feeds the sink in
//! experiment order.

use super::config::{resolve_batch, resolve_workers};
use super::driver::{drive_chunked, RetentionGauge};
use super::{CampaignError, ExpScript, PoolStats, SimHarnessConfig, SimStudy};
use crate::node::AppFactory;
use loki_analysis::{analyze_one, AnalysisOptions, AnalyzedExperiment};
use loki_core::campaign::{ExperimentData, ExperimentEnd, ExperimentFailure};
use loki_core::study::Study;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc};

/// Aggregate counters of one [`CampaignPipeline`] run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineSummary {
    /// Experiments executed.
    pub experiments: u32,
    /// Experiments that completed normally ([`ExperimentEnd::Completed`]).
    pub completed: usize,
    /// Experiments that ended as [`ExperimentEnd::Failed`] — contained
    /// application panics, harness errors, and budget trips. Failed
    /// experiments still reach the sink (typed, in index order); they are
    /// never counted accepted.
    pub failed: usize,
    /// Worlds rebuilt from scratch after a failed experiment: the world
    /// slot *and* its pooled scaffolding (pooled actors, timeline shells,
    /// the experiment context) are discarded rather than recycled, so
    /// whatever state a panic or budget trip left behind cannot reach a
    /// later experiment.
    pub quarantined_worlds: usize,
    /// Experiments whose injections were provably correct (usable for
    /// measures).
    pub accepted: usize,
    /// Total fault injections recorded across all experiments.
    pub injections: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Consecutive indices a worker claims at a time, as configured
    /// ([`SimHarnessConfig::batch`]).
    pub batch: usize,
    /// Peak number of in-flight experiments (raw [`ExperimentData`] plus
    /// live world state) inside the pipeline — at most `workers`, by
    /// construction: a worker holds one experiment from claim to the end
    /// of its analysis. This is the bounded retention the streaming
    /// design exists for; tests assert on it.
    pub peak_raw_retained: usize,
    /// High-water mark of the reorder buffer: compact results that had
    /// finished but were still waiting for a lower index to commit.
    pub peak_reorder_depth: usize,
    /// Actor spawns served from the pool of finished experiments' actors
    /// instead of a fresh box.
    pub actor_reuses: u64,
    /// Timeline shells begun on a recycled capacity-retaining buffer
    /// instead of a fresh allocation.
    pub timeline_reuses: u64,
    /// Simulation events processed across all experiments; the all-in
    /// ns/event bench divides by this.
    pub events: u64,
    /// Vestigial: always 0. Results are plain owned data and nothing
    /// recycles them; the name stays only because the campaign benchmark
    /// reads it, and goes with [`SimHarnessConfig::batch`].
    pub result_shell_reuses: u64,
    /// Vestigial name (kept for the campaign benchmark, like
    /// [`PipelineSummary::result_shell_reuses`]): global timelines built,
    /// i.e. results that reached the sink with `global.is_some()` — one
    /// per completed, analyzable experiment, whatever the sink does with
    /// them.
    pub result_shell_allocs: u64,
}

/// The campaign driver's reorder buffer: holds finished experiments whose
/// predecessors are still running, releasing them in strictly increasing
/// index order. A sorted `Vec` (descending, so the next index to commit
/// sits at the tail) instead of a `BTreeMap`: the buffer holds only what
/// sibling workers finish while a lower index is in flight, and the `Vec`
/// reuses its capacity across the whole campaign where a map allocates a
/// node per experiment — visible overhead when experiments are tiny.
struct Reorder<V> {
    pending: Vec<(u32, V)>,
    /// Most entries ever buffered at once
    /// ([`PipelineSummary::peak_reorder_depth`]).
    peak: usize,
}

impl<V> Reorder<V> {
    fn new() -> Self {
        Reorder {
            pending: Vec::new(),
            peak: 0,
        }
    }

    /// Buffers the result of experiment `k`.
    fn insert(&mut self, k: u32, value: V) {
        let at = self.pending.partition_point(|&(index, _)| index > k);
        self.pending.insert(at, (k, value));
        self.peak = self.peak.max(self.pending.len());
    }

    /// Removes and returns experiment `next`'s result, if buffered.
    fn pop(&mut self, next: u32) -> Option<V> {
        match self.pending.last() {
            Some(&(index, _)) if index == next => self.pending.pop().map(|(_, v)| v),
            _ => None,
        }
    }
}

/// The streaming campaign pipeline: execution, global-timeline
/// construction, and verdict checking fused into a single per-experiment
/// flow on the campaign driver's worker pool — the one way a campaign
/// runs.
///
/// Each worker owns **one world** and runs its
/// experiments on it one after another, reusing the world — and its
/// event/timer slab allocations — across experiments via
/// [`loki_sim::engine::Simulation::reset`]. The moment an experiment
/// finishes, the worker analyzes it in place (`loki_analysis::analyze_one`:
/// clock calibration → `make_global` → `check_experiment`) and **drops
/// the raw [`ExperimentData`]**. Only the compact [`AnalyzedExperiment`]
/// crosses the (bounded) channel to the caller, so campaign memory is
/// O(workers) in raw experiments and analysis overlaps execution
/// instead of trailing it as a batch phase.
///
/// # Scheduling and determinism contract
///
/// Workers claim experiments dynamically from a shared atomic index
/// counter (work stealing, in chunks of [`SimHarnessConfig::batch`]
/// consecutive indices): whichever worker finishes first takes the next
/// unstarted experiments, so a heavy-tailed study — one slow experiment
/// among cheap ones — does not idle the rest of the pool. Results are still merged **by experiment index**: the
/// sink closure is invoked exactly once per experiment, in strictly
/// increasing index order `0, 1, …, experiments − 1`, whatever the worker
/// count or completion order (out-of-order compact results wait in a
/// reorder buffer; raw data never crosses a channel). Experiment `k` is
/// fully determined by `(cfg.seed, k)` — a reset world replays exactly like a fresh one — so
/// everything the sink observes — timelines, verdicts, measure folds — is
/// byte-identical across worker counts *and chunk sizes* and identical to
/// analyzing [`run_experiment`](super::run_experiment)'s fresh-world data
/// one experiment at a time.
///
/// # Caller-runs pool
///
/// `workers − 1` threads are spawned; the calling thread is the last
/// worker *and* the only thread that touches the sink. It puts its own
/// finished results straight into the reorder buffer, drains the channel
/// after each of them, and blocks on the channel only once every index is
/// claimed — W workers are W threads, and no result hand-off wakes a
/// parked coordinator. The channel holds `2 × workers × chunk` results,
/// so a spawned worker parks only behind a slow sink. The trade-off: the
/// caller drains at its own experiment boundaries only, so a very long
/// experiment *on the caller* can fill the channel and park the other
/// workers until it ends — memory stays bounded in that case, where a
/// full-time coordinator's reorder buffer would grow without bound.
///
/// # Examples
///
/// ```no_run
/// use loki_runtime::harness::{CampaignPipeline, SimHarnessConfig};
/// # fn demo(study: std::sync::Arc<loki_core::study::Study>,
/// #         factory: loki_runtime::AppFactory) {
/// let pipeline = CampaignPipeline::new(study, factory, SimHarnessConfig::three_hosts(7));
/// let mut accepted = 0;
/// let summary = pipeline
///     .run(1_000, |analyzed| {
///         // Called in experiment order; raw data is already gone.
///         if analyzed.accepted() {
///             accepted += 1;
///         }
///     })
///     .expect("valid campaign config");
/// assert!(summary.peak_raw_retained <= summary.workers);
/// # }
/// ```
pub struct CampaignPipeline {
    study: Arc<Study>,
    factory: AppFactory,
    cfg: SimHarnessConfig,
    analysis: AnalysisOptions,
}

impl CampaignPipeline {
    /// Creates a pipeline over `study` with default [`AnalysisOptions`].
    pub fn new(study: Arc<Study>, factory: AppFactory, cfg: SimHarnessConfig) -> Self {
        CampaignPipeline {
            study,
            factory,
            cfg,
            analysis: AnalysisOptions::default(),
        }
    }

    /// Sets the analysis options (builder-style).
    pub fn analysis(mut self, analysis: AnalysisOptions) -> Self {
        self.analysis = analysis;
        self
    }

    /// The harness configuration the pipeline runs with.
    pub fn config(&self) -> &SimHarnessConfig {
        &self.cfg
    }

    /// Runs `experiments` experiments through the fused pipeline, feeding
    /// each compact result to `sink` in experiment-index order, on the
    /// worker count [`SimHarnessConfig::workers`] resolves to.
    ///
    /// Campaign misconfigurations — an invalid worker or batch
    /// configuration (see [`SimHarnessConfig::workers`] /
    /// [`SimHarnessConfig::batch`]), an invalid host list, a `kill_daemon`
    /// host index past it, an invalid restart policy, or invalid analysis
    /// options (an unusable sync β box or slack) — come back as a typed
    /// [`CampaignError`] before any experiment runs.
    pub fn run(
        &self,
        experiments: u32,
        mut sink: impl FnMut(AnalyzedExperiment),
    ) -> Result<PipelineSummary, CampaignError> {
        let workers = resolve_workers(&self.cfg, experiments)?;
        self.run_tapped_with_workers(experiments, workers, |_| (), |analyzed, ()| sink(analyzed))
    }

    /// The fully general pipeline entry point: [`CampaignPipeline::run`]
    /// with an explicit worker count, the calling thread included
    /// (`workers == 1` spawns nothing; `workers == 0` is
    /// [`CampaignError::Workers`]), and a raw-data *tap*. `tap` runs
    /// inside the worker on the raw [`ExperimentData`] (right before it is
    /// dropped) and its output rides along to the sink. This keeps
    /// campaigns that need a raw extract — e.g. notification latencies
    /// from record timestamps — on the bounded-memory path; a tap of
    /// `ExperimentData::clone` hands the sink every experiment's raw data.
    ///
    /// Returns a typed [`CampaignError`] on any campaign
    /// misconfiguration; still panics if the *sink* panics (it runs on the
    /// calling thread; the spawned workers then fail their next send and
    /// exit). Panics in the experiment itself and in its analysis are
    /// contained per experiment ([`ExperimentEnd::Failed`]); `tap` is user
    /// code run on the worker outside that containment (no `T` could be
    /// made up for its result), so a panicking `tap` propagates like a
    /// panicking sink — out of the calling thread directly, or through
    /// the worker scope when it ran on a spawned worker.
    pub fn run_tapped_with_workers<T: Send>(
        &self,
        experiments: u32,
        workers: usize,
        tap: impl Fn(&ExperimentData) -> T + Sync,
        mut sink: impl FnMut(AnalyzedExperiment, T),
    ) -> Result<PipelineSummary, CampaignError> {
        self.analysis
            .global
            .sync
            .validate()
            .map_err(|e| CampaignError::Analysis(format!("loki: invalid analysis options: {e}")))?;
        if workers == 0 {
            return Err(CampaignError::Workers(
                "loki: worker count must be at least 1".to_owned(),
            ));
        }
        let sim_study = SimStudy::new(&self.study, &self.factory, &self.cfg)?;
        let workers = workers.clamp(1, experiments.max(1) as usize);
        let batch = resolve_batch(&self.cfg)?;
        // A chunk larger than the campaign is the campaign: clamped like the
        // worker count, so the claim step fits the `u32` index space and the
        // channel bound below cannot outgrow `2 × workers × experiments`.
        let chunk = batch.clamp(1, experiments.max(1) as usize) as u32;
        let gauge = RetentionGauge::new();
        let stats = PoolStats::default();
        let next_claim = AtomicU32::new(0);

        // The back half of the fused flow, on the worker that ran the
        // experiment: analyze → tap → reclaim the raw data's buffers into
        // the worker's script (if the engine did not unwind) → drop; the
        // retention gauge brackets it from claim to here. Analysis runs
        // contained: a panicking analysis (conceivable on a failed
        // experiment's partial timelines) downgrades that one result to a
        // harness failure instead of killing the campaign.
        let finish = |mut data: ExperimentData, script: Option<&mut ExpScript>| {
            let analyzed = catch_unwind(AssertUnwindSafe(|| {
                analyze_one(&self.study, &data, &self.analysis)
            }))
            .unwrap_or_else(|_| AnalyzedExperiment {
                experiment: data.experiment,
                end: ExperimentEnd::Failed(ExperimentFailure::Harness),
                injections: data.total_injections(),
                global: None,
                verdict: None,
                error: None,
            });
            let tapped = tap(&data);
            if let Some(script) = script {
                let timelines = std::mem::take(&mut data.timelines);
                script.ctx.store.reclaim(timelines);
                script.pre_sync = std::mem::take(&mut data.pre_sync);
                script.post_sync = std::mem::take(&mut data.post_sync);
            }
            gauge.dec();
            (analyzed, tapped)
        };
        // One worker's body. `emit` returns `false` once nobody will commit
        // the result (the caller unwound): stop claiming and bail out.
        let work = |emit: &mut dyn FnMut(u32, (AnalyzedExperiment, T)) -> bool| {
            drive_chunked(
                &sim_study,
                experiments,
                chunk,
                &next_claim,
                &gauge,
                &stats,
                |k, data, script| emit(k, finish(data, script)),
            )
        };

        let mut summary = PipelineSummary {
            experiments,
            workers,
            batch,
            ..Default::default()
        };
        // `delivered` doubles as the next index to commit.
        let mut delivered = 0u32;
        let mut reorder: Reorder<(AnalyzedExperiment, T)> = Reorder::new();
        std::thread::scope(|scope| {
            // Two chunks per worker: what the others finish while the caller
            // runs a chunk of its own fits.
            let (tx, rx) = mpsc::sync_channel(2 * workers * chunk as usize);
            for _ in 1..workers {
                let (tx, work) = (tx.clone(), &work);
                scope.spawn(move || work(&mut |k, result| tx.send((k, result)).is_ok()));
            }
            // All senders are worker-owned; the final `recv` loop must
            // observe disconnect once they finish or die.
            drop(tx);
            // Buffers one result, hands whatever became committable to the
            // sink, and returns the next index to commit.
            let mut commit = |k: u32, result| {
                reorder.insert(k, result);
                while let Some((analyzed, tapped)) = reorder.pop(delivered) {
                    summary.completed += usize::from(analyzed.end == ExperimentEnd::Completed);
                    summary.accepted += usize::from(analyzed.accepted());
                    summary.failed += usize::from(analyzed.end.failure().is_some());
                    summary.injections += analyzed.injections;
                    summary.result_shell_allocs += u64::from(analyzed.global.is_some());
                    sink(analyzed, tapped);
                    delivered += 1;
                }
                delivered
            };
            // Claims are `chunk`-aligned, so `k / chunk` names the chunk
            // the caller is driving. While the next index to commit is an
            // unfinished experiment of that very chunk nothing in the
            // channel can commit: leave it there, as back-pressure, rather
            // than pile it into the reorder buffer.
            work(&mut |k, result| {
                let mut next = commit(k, result);
                while next / chunk != k / chunk {
                    match rx.try_recv() {
                        Ok((k, result)) => next = commit(k, result),
                        Err(_) => break,
                    }
                }
                true
            });
            // Every index is claimed; what is still missing is in flight
            // on a spawned worker. The channel disconnects when the last
            // of them finishes — or dies, and the scope propagates its
            // panic.
            while let Ok((k, result)) = rx.recv() {
                commit(k, result);
            }
        });
        // After the scope: a worker panic has already propagated, so an
        // undelivered experiment here is a genuine driver bug.
        assert_eq!(delivered, experiments, "campaign driver lost experiments");
        Ok(PipelineSummary {
            peak_raw_retained: gauge.peak(),
            peak_reorder_depth: reorder.peak,
            actor_reuses: stats.actor_reuses.load(Ordering::Relaxed),
            timeline_reuses: stats.timeline_reuses.load(Ordering::Relaxed),
            events: stats.events.load(Ordering::Relaxed),
            quarantined_worlds: stats.quarantined.load(Ordering::Relaxed) as usize,
            ..summary
        })
    }
}
