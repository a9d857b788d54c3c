//! Incremental study-measure accumulation for streaming campaigns.
//!
//! The batch path collects every accepted experiment's global timeline
//! (`accepted_timelines`) and folds a [`StudyMeasure`] over the whole
//! vector at the end — O(experiments) memory. The streaming campaign
//! pipeline instead feeds each compact [`AnalyzedExperiment`] to a
//! [`StudyAccumulator`] the moment it is available: the measure is applied
//! immediately, the global timeline is dropped, and only the per-experiment
//! final observation values (plain `f64`s) are retained.
//!
//! # Determinism contract
//!
//! Results are **merged by experiment index**. Experiments may be pushed in
//! any order (pipeline workers finish out of order); the accumulator
//! commits final observation values in strictly increasing experiment-index
//! order, holding out-of-order values in a small reorder buffer. The
//! committed [`values`](StudyAccumulator::values) sequence is therefore
//! byte-identical to the batch `accepted_timelines` + `apply_all` fold,
//! whatever the worker count — given the same per-experiment analyses.

use crate::error::MeasureError;
use crate::stats::MomentStats;
use crate::study_measure::StudyMeasure;
use loki_analysis::AnalyzedExperiment;
use loki_core::study::Study;
use std::collections::BTreeMap;

/// Online fold of one [`StudyMeasure`] over a stream of analyzed
/// experiments (see the [module docs](self) for the determinism contract).
///
/// # Examples
///
/// ```
/// use loki_measure::prelude::*;
/// use loki_measure::accumulator::StudyAccumulator;
///
/// let measure = StudyMeasure::new("busy").step(MeasureStep {
///     subset: SubsetSel::All,
///     predicate: Predicate::state("SM1", "State1"),
///     observation: ObservationFn::total_true(),
/// });
/// let acc = StudyAccumulator::new(measure);
/// assert_eq!(acc.seen(), 0);
/// // pipeline.run(n, |a| acc.push(&study, &a).unwrap());
/// ```
#[derive(Clone, Debug)]
pub struct StudyAccumulator {
    measure: StudyMeasure,
    /// Next experiment index to commit.
    next: u32,
    /// Out-of-order final values (`None` when the experiment was rejected
    /// or filtered out by a subset selection), keyed by experiment index.
    buffered: BTreeMap<u32, Option<f64>>,
    /// Committed final observation values, in experiment-index order.
    values: Vec<f64>,
    seen: usize,
    accepted: usize,
    failed: usize,
}

impl StudyAccumulator {
    /// Creates an accumulator folding `measure`.
    pub fn new(measure: StudyMeasure) -> Self {
        StudyAccumulator {
            measure,
            next: 0,
            buffered: BTreeMap::new(),
            values: Vec::new(),
            seen: 0,
            accepted: 0,
            failed: 0,
        }
    }

    /// The measure being folded.
    pub fn measure(&self) -> &StudyMeasure {
        &self.measure
    }

    /// Folds one analyzed experiment in. Rejected experiments count toward
    /// [`seen`](Self::seen) but produce no value; accepted ones are
    /// measured immediately (their timeline is not retained) and the final
    /// observation value — if every subset selection passed — is committed
    /// once all lower-indexed experiments have arrived.
    ///
    /// # Errors
    ///
    /// Propagates measure-evaluation errors (unknown names, empty measure).
    ///
    /// # Panics
    ///
    /// Panics when the same experiment index is pushed twice — that is a
    /// campaign-driver bug that would silently skew the statistics.
    pub fn push(
        &mut self,
        study: &Study,
        analyzed: &AnalyzedExperiment,
    ) -> Result<(), MeasureError> {
        let index = analyzed.experiment;
        assert!(
            index >= self.next && !self.buffered.contains_key(&index),
            "experiment {index} accumulated twice in measure `{}`",
            self.measure.name()
        );
        // Evaluate before touching any state: an Err must leave the
        // accumulator exactly as it was, so a caller that handles the
        // error sees consistent counters and no permanent index gap.
        let (accepted, value) = match (analyzed.accepted(), &analyzed.global) {
            (true, Some(gt)) => (true, self.measure.apply(study, gt)?),
            (true, None) => (true, None),
            (false, _) => (false, None),
        };
        if accepted {
            self.accepted += 1;
        }
        if analyzed.end.failure().is_some() {
            self.failed += 1;
        }
        self.seen += 1;
        self.buffered.insert(index, value);
        while let Some(value) = self.buffered.remove(&self.next) {
            if let Some(value) = value {
                self.values.push(value);
            }
            self.next += 1;
        }
        Ok(())
    }

    /// Experiments folded in so far (accepted or not).
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Experiments accepted by the analysis so far.
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// Experiments that ended in a typed failure (application panic,
    /// budget exhaustion, harness error) so far. Failed experiments count
    /// toward [`seen`](Self::seen), are never accepted, and produce no
    /// measure value — this counter keeps them visible in the statistics
    /// report instead of silently folding them into the rejected pile.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// Whether every pushed experiment has been committed (no index gaps).
    pub fn is_drained(&self) -> bool {
        self.buffered.is_empty()
    }

    /// The committed final observation values, in experiment-index order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Moment statistics over the committed values (`None` when no
    /// experiment passed all subset selections).
    pub fn stats(&self) -> Option<MomentStats> {
        MomentStats::from_sample(&self.values)
    }

    /// Consumes the accumulator, returning the final observation values in
    /// experiment-index order.
    ///
    /// # Panics
    ///
    /// Panics when an experiment index never arrived (values after the gap
    /// would be silently dropped otherwise).
    pub fn into_values(self) -> Vec<f64> {
        assert!(
            self.buffered.is_empty(),
            "accumulator for `{}` finished with a gap before experiment {}",
            self.measure.name(),
            self.next
        );
        self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig42::fig_4_2;
    use crate::obsfn::ObservationFn;
    use crate::predicate::Predicate;
    use crate::study_measure::{MeasureStep, SubsetSel};
    use loki_core::campaign::ExperimentEnd;

    fn measure() -> StudyMeasure {
        StudyMeasure::new("m").step(MeasureStep {
            subset: SubsetSel::All,
            predicate: Predicate::state("SM1", "State1"),
            observation: ObservationFn::total_true(),
        })
    }

    fn analyzed(index: u32, accepted: bool) -> AnalyzedExperiment {
        let (study, gt) = fig_4_2();
        let verdict =
            loki_analysis::check_experiment(&study, &gt, loki_analysis::MissingPolicy::Ignore);
        assert!(verdict.accepted);
        AnalyzedExperiment {
            experiment: index,
            end: if accepted {
                ExperimentEnd::Completed
            } else {
                ExperimentEnd::Aborted
            },
            injections: 0,
            global: Some(gt),
            verdict: Some(verdict),
            error: None,
        }
    }

    #[test]
    fn out_of_order_pushes_commit_in_index_order() {
        let (study, _) = fig_4_2();
        let mut acc = StudyAccumulator::new(measure());
        for index in [2u32, 0, 3, 1] {
            acc.push(&study, &analyzed(index, true)).unwrap();
        }
        assert!(acc.is_drained());
        assert_eq!(acc.seen(), 4);
        assert_eq!(acc.accepted(), 4);
        let values = acc.into_values();
        assert_eq!(values.len(), 4);
        for v in &values {
            assert!((v - 6.5).abs() < 1e-9); // State1 held 6.5 ms (§4.2)
        }
    }

    #[test]
    fn rejected_experiments_are_counted_but_not_measured() {
        let (study, _) = fig_4_2();
        let mut acc = StudyAccumulator::new(measure());
        acc.push(&study, &analyzed(0, false)).unwrap();
        acc.push(&study, &analyzed(1, true)).unwrap();
        assert_eq!(acc.seen(), 2);
        assert_eq!(acc.accepted(), 1);
        assert_eq!(acc.values().len(), 1);
        assert!(acc.stats().is_some());
    }

    #[test]
    fn failed_experiments_are_counted_separately() {
        use loki_core::campaign::ExperimentFailure;
        let (study, _) = fig_4_2();
        let mut acc = StudyAccumulator::new(measure());
        acc.push(&study, &analyzed(0, true)).unwrap();
        let mut crashed = analyzed(1, false);
        crashed.end = ExperimentEnd::Failed(ExperimentFailure::AppPanic);
        crashed.global = None;
        crashed.verdict = None;
        acc.push(&study, &crashed).unwrap();
        assert_eq!(acc.seen(), 2);
        assert_eq!(acc.accepted(), 1);
        assert_eq!(acc.failed(), 1);
        assert_eq!(acc.values().len(), 1);
    }

    #[test]
    fn failed_measure_leaves_accumulator_unchanged() {
        let (study, _) = fig_4_2();
        let bad = StudyMeasure::new("bad").step(MeasureStep {
            subset: SubsetSel::All,
            predicate: Predicate::state("NO_SUCH_MACHINE", "State1"),
            observation: ObservationFn::total_true(),
        });
        let mut acc = StudyAccumulator::new(bad);
        assert!(acc.push(&study, &analyzed(0, true)).is_err());
        // The failed push must not count, buffer, or gap anything.
        assert_eq!(acc.seen(), 0);
        assert_eq!(acc.accepted(), 0);
        assert!(acc.is_drained());
        assert!(acc.into_values().is_empty());
    }

    #[test]
    #[should_panic(expected = "accumulated twice")]
    fn duplicate_index_panics() {
        let (study, _) = fig_4_2();
        let mut acc = StudyAccumulator::new(measure());
        acc.push(&study, &analyzed(0, true)).unwrap();
        acc.push(&study, &analyzed(0, true)).unwrap();
    }

    #[test]
    #[should_panic(expected = "finished with a gap")]
    fn gap_in_indices_panics_on_finish() {
        let (study, _) = fig_4_2();
        let mut acc = StudyAccumulator::new(measure());
        acc.push(&study, &analyzed(1, true)).unwrap();
        assert!(!acc.is_drained());
        let _ = acc.into_values();
    }
}
