//! One worker's loop: claim a chunk of experiment indices, run each on the
//! worker's one reset-reused world, contain and quarantine failures, and
//! gauge how many experiments are in flight.

use super::{ExpScript, PoolStats, SimStudy};
use loki_core::campaign::{ExperimentData, ExperimentEnd};
use loki_sim::engine::Simulation;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// The campaign driver's retention gauge: counts in-flight experiments and
/// remembers the high-water mark that
/// [`PipelineSummary::peak_raw_retained`](super::PipelineSummary::peak_raw_retained)
/// reports. Plain statistics — they publish no other data, and
/// read-modify-writes on one atomic are totally ordered under any ordering — so
/// `Relaxed` throughout; the scope join orders the final `peak` read after
/// every worker.
pub(super) struct RetentionGauge {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl RetentionGauge {
    pub(super) fn new() -> Self {
        RetentionGauge {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn inc(&self) {
        let live = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    pub(super) fn dec(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }

    pub(super) fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

/// One worker's experiment loop: claim a chunk
/// of `chunk` consecutive experiment indices from the shared counter, run
/// each through [`SimStudy::run_one`] on the worker's one reset-reused
/// world, hand it to `process` together with the script to reclaim its
/// buffers into, repeat until the claim counter passes `experiments`.
///
/// The world's slabs and the experiment script persist across
/// experiments — after the first one a worker's steady state allocates
/// almost nothing per experiment. `process` returns `false` to stop the
/// worker early (the caller hung up); the rest of the chunk is abandoned
/// without claiming more.
///
/// # Failure containment
///
/// An experiment that ends as [`ExperimentEnd::Failed`] — a contained
/// application panic, a budget trip — or whose scaffolding unwinds out of the
/// engine entirely (a harness error, reported to `process` as
/// [`ExperimentFailure::Harness`](loki_core::campaign::ExperimentFailure::Harness)
/// with no context) poisons the world and its pooled scaffolding. Both are
/// **quarantined**: the script (context, actor pool, store shells) is dropped
/// instead of recycled, and the world is rebuilt fresh from the shared
/// [`WorldConfig`](loki_sim::engine::WorldConfig). The claim counter hands out
/// each index exactly once and a fresh world runs like a reset one, so the
/// surviving experiments' results are byte-identical to a failure-free
/// campaign's.
pub(super) fn drive_chunked(
    sim_study: &SimStudy<'_>,
    experiments: u32,
    chunk: u32,
    next_claim: &AtomicU32,
    gauge: &RetentionGauge,
    stats: &PoolStats,
    mut process: impl FnMut(u32, ExperimentData, Option<&mut ExpScript>) -> bool,
) {
    let fresh_world = || Simulation::closed(sim_study.world.clone(), 0);
    let mut sim = fresh_world();
    // The last experiment's (drained-empty) script, recycled by the next
    // one: in steady state a worker reallocates none of the per-experiment
    // scaffolding.
    let mut script: Option<ExpScript> = None;
    let mut events = 0;
    'run: loop {
        // Relaxed suffices: the claim is the only shared state, and the
        // result hand-off orders everything else.
        let base = next_claim.fetch_add(chunk, Ordering::Relaxed);
        if base >= experiments {
            break 'run;
        }
        for k in base..experiments.min(base.saturating_add(chunk)) {
            gauge.inc();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                sim_study.run_one(&mut sim, k, &mut script)
            }));
            if outcome.is_ok() {
                events += sim.events_processed();
            }
            // An unwind leaves the experiment without data — hand on a
            // typed stand-in — and without a script to reclaim into.
            let reclaim = script.as_mut().filter(|_| outcome.is_ok());
            let data = outcome.unwrap_or_else(|payload| {
                sim_study.failed_data(k, crate::contain::panic_note(payload.as_ref()))
            });
            let failed = matches!(data.end, ExperimentEnd::Failed(_));
            let keep_going = process(k, data, reclaim);
            if failed {
                // An unwind out of `begin_with` leaves no script behind,
                // only the half-loaded world.
                if let Some(poisoned) = script.take() {
                    stats.absorb(&poisoned.ctx);
                }
                sim = fresh_world();
                stats.quarantined.fetch_add(1, Ordering::Relaxed);
            }
            if !keep_going {
                break 'run;
            }
        }
    }
    // Fold the retiring context's recycling counters into the shared
    // stats (quarantined contexts were absorbed when they retired).
    if let Some(script) = &script {
        stats.absorb(&script.ctx);
    }
    stats.events.fetch_add(events, Ordering::Relaxed);
}
