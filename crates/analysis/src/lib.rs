//! # loki-analysis
//!
//! The off-line analysis phase of the Loki fault injector (thesis §2.5,
//! §5.7):
//!
//! 1. **`alphabeta`** — calibrate each host's clock against the reference
//!    host from the sync mini-phase samples, obtaining guaranteed bounds on
//!    offset α and drift β (via `loki-clock`).
//! 2. **`makeglobal`** ([`global::make_global`]) — project every local
//!    timeline onto the single global timeline; every occurrence time
//!    becomes an interval that provably contains the true time.
//! 3. **Correctness check** ([`checker::check_experiment`]) — verify, for
//!    every recorded injection, that it provably landed while its fault
//!    expression held; experiments with unprovable or missing injections
//!    are discarded, and only the survivors feed the measure phase.
//!
//! [`analyze_one`], the phase's one entry point, runs the whole phase for a
//! single experiment and emits a compact [`AnalyzedExperiment`] that does
//! **not** retain the raw [`ExperimentData`] — the form the streaming
//! campaign pipeline (`loki_runtime::harness::CampaignPipeline`) folds per
//! experiment so campaign memory stays bounded by the worker count.
//!
//! ## Interned hosts and the display-boundary rule
//!
//! The per-experiment hot path is allocation-free with respect to
//! identities: hosts arrive as dense
//! [`HostId`](loki_core::ids::HostId)s from the study run's host table (a
//! [`NameTable`](loki_core::ids::NameTable), like the study's own four
//! name tables), the reserved states are fixed ids (`StateId::BEGIN`, …),
//! `make_global` resolves a record's clock calibration by indexing a dense
//! `Vec<AlphaBetaBounds>` (no per-record string hashing), and
//! [`GlobalEvent`]/[`GlobalTimeline`] carry ids throughout. Names are
//! resolved back to `&str` only at display/report boundaries —
//! [`GlobalTimeline::host_name`], `study.sms.name(..)` — or inside error
//! constructors, never per record.
//!
//! ## Results are plain data
//!
//! The phase is a pure function of one experiment's raw data, and what it
//! returns — [`GlobalTimeline`], [`AnalyzedExperiment`] — is plain owned
//! data: derived `Clone`/`PartialEq`, no destructor, and no state is kept
//! between calls.
//!
//! A campaign that keeps its results keeps one of these per experiment, so
//! each time bound is stored once, on its [`GlobalEvent`] (40 bytes): a
//! [`StateInterval`] (16 bytes) holds the positions of the events that
//! entered and left its state, read back through
//! [`GlobalTimeline::enter_of`]/[`GlobalTimeline::exit_of`]. A user
//! message's event names a span of its timeline's one text buffer
//! ([`GlobalTimeline::user_message`]), so no event carries a `String`.
//! The check keeps one [`Verdict`] byte per injection, read against its
//! event. Every sequence is a boxed slice built at its final length, and
//! the rare [`AnalysisError`] sits behind a `Box`, which keeps an
//! [`AnalyzedExperiment`] at 160 bytes plus exactly the heap it uses
//! ([`AnalyzedExperiment::approx_size_bytes`]). A unit test holds these
//! sizes, and `tests/result_bytes.rs` holds the byte count to the
//! allocator's.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cascade;
pub mod checker;
pub mod error;
pub mod global;
pub mod intervals;

pub use cascade::{detect_cascade, CascadeConfig, CascadeVerdict};
pub use checker::{check_experiment, ExperimentVerdict, MissingPolicy, Verdict};
pub use error::AnalysisError;
pub use global::{
    make_global, GlobalEvent, GlobalEventKind, GlobalOptions, GlobalTimeline, StateInterval,
};
pub use intervals::IntervalSet;

use loki_core::campaign::{ExperimentData, ExperimentEnd};
use loki_core::study::Study;

/// One experiment after analysis, **without** its raw data: the global
/// timeline, the correctness verdict, and the few raw facts campaigns
/// aggregate (how the run ended, how many injections it recorded).
///
/// This is the unit the streaming campaign pipeline emits: the raw
/// [`ExperimentData`] is dropped the moment [`analyze_one`] returns, so a
/// campaign holds at most one raw experiment per worker at any time.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalyzedExperiment {
    /// Experiment index within the study.
    pub experiment: u32,
    /// How the experiment ended.
    pub end: ExperimentEnd,
    /// Total fault injections recorded across all local timelines.
    pub injections: usize,
    /// The constructed global timeline (`None` when construction failed or
    /// the experiment did not complete).
    pub global: Option<GlobalTimeline>,
    /// The correctness verdict (`accepted == false` when the experiment
    /// aborted, timed out, failed analysis, or failed the check).
    pub verdict: Option<ExperimentVerdict>,
    /// Analysis error, if any — boxed, since nearly every result has none
    /// and an inline error would widen every retained result.
    pub error: Option<Box<AnalysisError>>,
}

impl AnalyzedExperiment {
    /// Whether this experiment's results may be used for measures.
    pub fn accepted(&self) -> bool {
        self.end == ExperimentEnd::Completed
            && self.verdict.as_ref().map(|v| v.accepted).unwrap_or(false)
    }

    /// Size in bytes of this result: its inline size plus every heap block
    /// it owns, each counted at the size requested from the allocator
    /// (capacity, not length). The study-run symbol table behind
    /// [`GlobalTimeline::symbols`] is shared, not owned, and not counted.
    /// This is what a campaign pays per result it keeps; the campaign
    /// benchmark reports it.
    pub fn approx_size_bytes(&self) -> usize {
        size_of::<Self>()
            + self.global.as_ref().map_or(0, GlobalTimeline::heap_bytes)
            + self
                .verdict
                .as_ref()
                .map_or(0, ExperimentVerdict::heap_bytes)
            + self
                .error
                .as_ref()
                .map_or(0, |e| size_of::<AnalysisError>() + e.heap_bytes())
    }
}

/// Analysis options.
#[derive(Clone, Debug, Default)]
pub struct AnalysisOptions {
    /// Global-timeline construction options.
    pub global: GlobalOptions,
    /// Missing-injection policy.
    pub missing: MissingPolicy,
}

/// Runs the complete analysis phase over one experiment, returning the
/// compact result (the caller keeps — or, in the streaming pipeline,
/// immediately drops — the raw data).
///
/// Aborted and timed-out experiments are analyzed to a non-accepted
/// result, not an error.
pub fn analyze_one(
    study: &Study,
    data: &ExperimentData,
    opts: &AnalysisOptions,
) -> AnalyzedExperiment {
    let mut analyzed = AnalyzedExperiment {
        experiment: data.experiment,
        end: data.end,
        injections: data.total_injections(),
        global: None,
        verdict: None,
        error: None,
    };
    if data.end != ExperimentEnd::Completed {
        return analyzed;
    }
    match make_global(study, data, &opts.global) {
        Ok(gt) => {
            analyzed.verdict = Some(check_experiment(study, &gt, opts.missing));
            analyzed.global = Some(gt);
        }
        Err(e) => analyzed.error = Some(Box::new(e)),
    }
    analyzed
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    /// A retained result is mostly these; a field that regrows one grows
    /// every campaign that keeps its results.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn retained_results_stay_compact() {
        assert!(
            size_of::<StateInterval>() <= 16,
            "{}",
            size_of::<StateInterval>()
        );
        assert!(
            size_of::<GlobalEventKind>() <= 16,
            "{}",
            size_of::<GlobalEventKind>()
        );
        assert!(
            size_of::<GlobalEvent>() <= 40,
            "{}",
            size_of::<GlobalEvent>()
        );
        assert_eq!(size_of::<Verdict>(), 1);
        assert!(
            size_of::<AnalyzedExperiment>() <= 160,
            "{}",
            size_of::<AnalyzedExperiment>()
        );
    }
}
