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
//! [`analyze_one`] runs the whole phase for a single experiment and emits a
//! compact [`AnalyzedExperiment`] that does **not** retain the raw
//! [`ExperimentData`] — the form the streaming campaign pipeline
//! (`loki_runtime::harness::CampaignPipeline`) folds per experiment so
//! campaign memory stays bounded by the worker count. [`analyze`] is the
//! batch wrapper for callers that genuinely need the raw timelines next to
//! their verdicts: it keeps each experiment's data in an [`AnalyzedRun`].
//!
//! ## Interned hosts and the display-boundary rule
//!
//! The per-experiment hot path is allocation-free with respect to
//! identities: hosts arrive as dense
//! [`HostId`](loki_core::ids::HostId)s from the study-run
//! [`SymbolTable`](loki_core::ids::SymbolTable), `make_global` resolves a
//! record's clock calibration by indexing a dense
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
//! data: derived `Clone`/`PartialEq`, no destructor. The only state kept
//! between calls is `make_global`'s thread-local merge scratch.
//!
//! A campaign that keeps its results keeps one of these per experiment, so
//! each time bound is stored once, on its [`GlobalEvent`] (48 bytes): a
//! [`StateInterval`] (16 bytes) holds the positions of the events that
//! entered and left its state, read back through
//! [`GlobalTimeline::enter_of`]/[`GlobalTimeline::exit_of`], and the rare
//! [`AnalysisError`] sits behind a `Box`, which keeps an
//! [`AnalyzedExperiment`] at 184 bytes. A unit test holds these sizes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cascade;
pub mod checker;
pub mod error;
pub mod global;
pub mod intervals;
pub mod merge;

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

    /// Approximate size in bytes of this compact result — what the
    /// streaming pipeline ships across its channel per experiment. Host
    /// interning keeps this free of per-record host strings; the
    /// campaign-pipeline benchmark reports it to track payload growth.
    pub fn approx_size_bytes(&self) -> usize {
        use std::mem::size_of;
        let verdict = self
            .verdict
            .as_ref()
            .map(|v| {
                size_of::<ExperimentVerdict>()
                    + v.checks.len() * size_of::<checker::InjectionCheck>()
                    + v.missing.len() * size_of::<loki_core::ids::FaultId>()
                    + v.checks
                        .iter()
                        .map(|c| match &c.verdict {
                            Verdict::Incorrect { reason } => reason.len(),
                            Verdict::Correct => 0,
                        })
                        .sum::<usize>()
            })
            .unwrap_or(0);
        size_of::<Self>()
            + self
                .global
                .as_ref()
                .map(|g| g.approx_size_bytes())
                .unwrap_or(0)
            + verdict
    }
}

/// One experiment after batch analysis: the compact analysis result plus
/// the raw data it was derived from.
///
/// Only the batch path ([`analyze`]) produces these; campaigns that can
/// live without raw timelines should stream [`AnalyzedExperiment`]s through
/// the campaign pipeline instead and keep memory bounded.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalyzedRun {
    /// The raw experiment output.
    pub data: ExperimentData,
    /// The compact analysis of that output.
    pub analysis: AnalyzedExperiment,
}

impl AnalyzedRun {
    /// Whether this experiment's results may be used for measures.
    pub fn accepted(&self) -> bool {
        self.analysis.accepted()
    }

    /// The constructed global timeline, if any.
    pub fn global(&self) -> Option<&GlobalTimeline> {
        self.analysis.global.as_ref()
    }

    /// The correctness verdict, if the analysis got that far.
    pub fn verdict(&self) -> Option<&ExperimentVerdict> {
        self.analysis.verdict.as_ref()
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

/// Runs the complete analysis phase over a batch of experiments, retaining
/// the raw data of every experiment (thin wrapper over [`analyze_one`]).
///
/// Aborted and timed-out experiments are retained (for bookkeeping) but
/// never accepted.
pub fn analyze(
    study: &Study,
    experiments: Vec<ExperimentData>,
    opts: &AnalysisOptions,
) -> Vec<AnalyzedRun> {
    experiments
        .into_iter()
        .map(|data| AnalyzedRun {
            analysis: analyze_one(study, &data, opts),
            data,
        })
        .collect()
}

/// Convenience: the accepted experiments' global timelines.
pub fn accepted_timelines(analyzed: &[AnalyzedRun]) -> Vec<&GlobalTimeline> {
    analyzed
        .iter()
        .filter(|a| a.accepted())
        .filter_map(|a| a.global())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    /// A retained result is mostly these three; a field that regrows one
    /// grows every campaign that keeps its results.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn retained_results_stay_compact() {
        assert!(
            size_of::<StateInterval>() <= 16,
            "{}",
            size_of::<StateInterval>()
        );
        assert!(
            size_of::<GlobalEvent>() <= 48,
            "{}",
            size_of::<GlobalEvent>()
        );
        assert!(
            size_of::<AnalyzedExperiment>() <= 184,
            "{}",
            size_of::<AnalyzedExperiment>()
        );
    }
}
