//! Study-measure accumulation over a campaign's analyzed experiments.
//!
//! A campaign's sink (`loki_runtime::harness::CampaignPipeline`'s)
//! receives each compact [`AnalyzedExperiment`] once, in experiment-index
//! order. A [`StudyAccumulator`] folds a [`StudyMeasure`] over that
//! stream: the measure is applied the moment an experiment arrives, its
//! global timeline is not retained, and only the per-experiment final
//! observation values (plain `f64`s) are kept.
//!
//! # Determinism contract
//!
//! Experiments are pushed in strictly increasing index order
//! `0, 1, 2, …` — the order the pipeline's sink already runs in. Any other
//! index is a [`MeasureError::OutOfOrder`] that leaves the accumulator
//! unchanged, so the [`values`](StudyAccumulator::values) are always
//! those of experiments `0..seen`, in order: byte-identical whatever the
//! worker count, and identical to applying the measure to each replayed
//! experiment's analysis in turn.

use crate::error::MeasureError;
use crate::stats::MomentStats;
use crate::study_measure::StudyMeasure;
use loki_analysis::AnalyzedExperiment;
use loki_core::study::Study;

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
    /// Final observation values, in experiment-index order.
    values: Vec<f64>,
    /// Experiments folded in so far, and so the next index expected.
    seen: usize,
    accepted: usize,
    failed: usize,
}

impl StudyAccumulator {
    /// Creates an accumulator folding `measure`.
    pub fn new(measure: StudyMeasure) -> Self {
        StudyAccumulator {
            measure,
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

    /// Folds experiment [`seen`](Self::seen) in. Rejected experiments
    /// count toward `seen` but produce no value; accepted ones are
    /// measured immediately (their timeline is not retained) and the final
    /// observation value is kept if every subset selection passed.
    ///
    /// # Errors
    ///
    /// Returns [`MeasureError::OutOfOrder`] when `analyzed` is not the
    /// next experiment (a duplicate, a gap, or a reordering would silently
    /// skew the statistics), and propagates measure-evaluation errors
    /// (unknown names, empty measure). Either way the accumulator is left
    /// exactly as it was.
    pub fn push(
        &mut self,
        study: &Study,
        analyzed: &AnalyzedExperiment,
    ) -> Result<(), MeasureError> {
        if analyzed.experiment as usize != self.seen {
            return Err(MeasureError::OutOfOrder {
                measure: self.measure.name().to_owned(),
                expected: self.seen,
                got: analyzed.experiment,
            });
        }
        // Evaluate before touching any state: an Err must leave the
        // accumulator exactly as it was.
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
        self.values.extend(value);
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

    /// The final observation values so far, in experiment-index order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Moment statistics over the values (`None` when no
    /// experiment passed all subset selections).
    pub fn stats(&self) -> Option<MomentStats> {
        MomentStats::from_sample(&self.values)
    }

    /// Consumes the accumulator, returning the final observation values in
    /// experiment-index order.
    pub fn into_values(self) -> Vec<f64> {
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

    /// Everything a push may change.
    fn state(acc: &StudyAccumulator) -> (usize, usize, usize, Vec<f64>) {
        (
            acc.seen(),
            acc.accepted(),
            acc.failed(),
            acc.values().to_vec(),
        )
    }

    /// Pushes each `(index, rejection)` in turn. `rejection` is
    /// `Some(expected)` when the push must fail as out of order and leave
    /// the accumulator unchanged; the committed experiments are then all
    /// measured.
    fn assert_pushes(pushes: &[(u32, Option<usize>)]) {
        let (study, _) = fig_4_2();
        let mut acc = StudyAccumulator::new(measure());
        for &(index, expected) in pushes {
            let before = state(&acc);
            let pushed = acc.push(&study, &analyzed(index, true));
            match expected {
                None => assert_eq!(pushed, Ok(()), "push {index}"),
                Some(expected) => {
                    assert_eq!(
                        pushed,
                        Err(MeasureError::OutOfOrder {
                            measure: "m".to_owned(),
                            expected,
                            got: index,
                        }),
                        "push {index}"
                    );
                    assert_eq!(state(&acc), before, "push {index}");
                }
            }
        }
        let committed = pushes.iter().filter(|(_, r)| r.is_none()).count();
        assert_eq!(acc.seen(), committed);
        assert_eq!(acc.accepted(), committed);
        let values = acc.into_values();
        assert_eq!(values.len(), committed);
        for v in &values {
            assert!((v - 6.5).abs() < 1e-9); // State1 held 6.5 ms (§4.2)
        }
    }

    #[test]
    fn a_duplicate_push_is_rejected_and_changes_nothing() {
        assert_pushes(&[(0, None), (0, Some(1)), (1, None)]);
    }

    #[test]
    fn a_gapped_push_is_rejected_and_changes_nothing() {
        assert_pushes(&[(0, None), (2, Some(1)), (1, None), (2, None)]);
    }

    #[test]
    fn out_of_order_pushes_are_rejected_and_change_nothing() {
        assert_pushes(&[(2, Some(0)), (0, None), (3, Some(1)), (1, None)]);
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
        // The failed push must not count anything, so experiment 0 is
        // still the one expected next.
        assert_eq!(acc.seen(), 0);
        assert_eq!(acc.accepted(), 0);
        assert!(acc.into_values().is_empty());
    }
}
