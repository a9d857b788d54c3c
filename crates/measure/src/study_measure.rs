//! Study-level measures (§4.3.4).
//!
//! A study-level measure is an *ordered sequence* of (subset selection,
//! predicate, observation function) triples. Applied to one experiment's
//! global timeline:
//!
//! 1. the first triple's subset selection selects all experiments;
//! 2. each later triple's subset selection filters on the previous
//!    triple's observation value (`OBS_VALUE`);
//! 3. the output is the last observation value — the experiment's *final
//!    observation function value* — or nothing if any subset selection
//!    rejected the experiment.

use crate::error::MeasureError;
use crate::obsfn::ObservationFn;
use crate::predicate::Predicate;
use loki_analysis::global::GlobalTimeline;
use loki_core::study::Study;
use std::fmt;
use std::rc::Rc;

/// A subset selection: a Boolean function of the previous observation
/// value.
#[derive(Clone)]
pub enum SubsetSel {
    /// Selects every experiment (the mandatory first-triple selection,
    /// the thesis's `default`).
    All,
    /// `OBS_VALUE > x`.
    Gt(f64),
    /// `OBS_VALUE >= x`.
    Ge(f64),
    /// `OBS_VALUE < x`.
    Lt(f64),
    /// `OBS_VALUE <= x`.
    Le(f64),
    /// `lo <= OBS_VALUE <= hi`.
    Between(f64, f64),
    /// A user-defined selection.
    User(Rc<dyn Fn(f64) -> bool>),
}

impl SubsetSel {
    /// Applies the selection to the previous observation value.
    pub fn accepts(&self, obs_value: f64) -> bool {
        match self {
            SubsetSel::All => true,
            SubsetSel::Gt(x) => obs_value > *x,
            SubsetSel::Ge(x) => obs_value >= *x,
            SubsetSel::Lt(x) => obs_value < *x,
            SubsetSel::Le(x) => obs_value <= *x,
            SubsetSel::Between(lo, hi) => *lo <= obs_value && obs_value <= *hi,
            SubsetSel::User(f) => f(obs_value),
        }
    }
}

impl fmt::Debug for SubsetSel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubsetSel::All => write!(f, "default"),
            SubsetSel::Gt(x) => write!(f, "OBS_VALUE > {x}"),
            SubsetSel::Ge(x) => write!(f, "OBS_VALUE >= {x}"),
            SubsetSel::Lt(x) => write!(f, "OBS_VALUE < {x}"),
            SubsetSel::Le(x) => write!(f, "OBS_VALUE <= {x}"),
            SubsetSel::Between(lo, hi) => write!(f, "{lo} <= OBS_VALUE <= {hi}"),
            SubsetSel::User(_) => write!(f, "user_subset"),
        }
    }
}

/// One (subset selection, predicate, observation function) triple.
#[derive(Clone, Debug)]
pub struct MeasureStep {
    /// Filter on the previous triple's observation value (ignored for the
    /// first triple).
    pub subset: SubsetSel,
    /// The predicate to evaluate over the global timeline.
    pub predicate: Predicate,
    /// The observation function applied to the predicate value timeline.
    pub observation: ObservationFn,
}

/// A study-level measure: an ordered sequence of triples.
///
/// # Examples
///
/// The coverage measure of §5.8 — "time spent in CRASH > 0, then check the
/// machine reached RESTART_SM":
///
/// ```
/// use loki_measure::study_measure::{MeasureStep, StudyMeasure, SubsetSel};
/// use loki_measure::predicate::Predicate;
/// use loki_measure::obsfn::ObservationFn;
///
/// let measure = StudyMeasure::new("coverage")
///     .step(MeasureStep {
///         subset: SubsetSel::All,
///         predicate: Predicate::state("black", "CRASH"),
///         observation: ObservationFn::total_true(),
///     })
///     .step(MeasureStep {
///         subset: SubsetSel::Gt(0.0),
///         predicate: Predicate::state("black", "RESTART_SM"),
///         observation: ObservationFn::total_true(),
///     });
/// assert_eq!(measure.steps().len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct StudyMeasure {
    name: String,
    steps: Vec<MeasureStep>,
}

impl StudyMeasure {
    /// Creates an empty measure named `name`.
    pub fn new(name: &str) -> Self {
        StudyMeasure {
            name: name.to_owned(),
            steps: Vec::new(),
        }
    }

    /// Appends a triple.
    pub fn step(mut self, step: MeasureStep) -> Self {
        self.steps.push(step);
        self
    }

    /// The measure's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The triples.
    pub fn steps(&self) -> &[MeasureStep] {
        &self.steps
    }

    /// Applies the measure to one experiment's global timeline.
    ///
    /// Returns `Ok(Some(final value))`, or `Ok(None)` when a subset
    /// selection filtered the experiment out.
    ///
    /// # Errors
    ///
    /// Returns [`MeasureError`] when a predicate references unknown names
    /// or the measure has no steps.
    pub fn apply(&self, study: &Study, gt: &GlobalTimeline) -> Result<Option<f64>, MeasureError> {
        if self.steps.is_empty() {
            return Err(MeasureError::EmptyMeasure {
                name: self.name.clone(),
            });
        }
        let window = (gt.start.as_f64(), gt.end.as_f64());
        // The previous step's value; the first step has none to select on.
        let mut prev: Option<f64> = None;
        for step in &self.steps {
            if let Some(value) = prev {
                if !step.subset.accepts(value) {
                    return Ok(None);
                }
            }
            let timeline = step.predicate.compile(study)?.eval(gt, window);
            prev = Some(step.observation.eval(&timeline, window));
        }
        Ok(prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig42::fig_4_2;
    use crate::obsfn::{ImpulseStep, UpDown};

    #[test]
    fn single_step_measure() {
        let (study, gt) = fig_4_2();
        let m = StudyMeasure::new("m").step(MeasureStep {
            subset: SubsetSel::All,
            predicate: Predicate::state("SM1", "State1"),
            observation: ObservationFn::total_true(),
        });
        let v = m.apply(&study, &gt).unwrap().unwrap();
        assert!((v - 6.5).abs() < 1e-9); // State1 held [12.4, 18.9] ms
    }

    #[test]
    fn chained_subset_filters() {
        let (study, gt) = fig_4_2();
        // Step 1: time SM1 spends in State1 (6.5ms). Step 2 requires > 10ms
        // -> filtered out.
        let m = StudyMeasure::new("m")
            .step(MeasureStep {
                subset: SubsetSel::All,
                predicate: Predicate::state("SM1", "State1"),
                observation: ObservationFn::total_true(),
            })
            .step(MeasureStep {
                subset: SubsetSel::Gt(10.0),
                predicate: Predicate::state("SM2", "State2"),
                observation: ObservationFn::total_true(),
            });
        assert_eq!(m.apply(&study, &gt).unwrap(), None);

        // With > 5ms, the chain proceeds to the second observation.
        let m = StudyMeasure::new("m")
            .step(MeasureStep {
                subset: SubsetSel::All,
                predicate: Predicate::state("SM1", "State1"),
                observation: ObservationFn::total_true(),
            })
            .step(MeasureStep {
                subset: SubsetSel::Gt(5.0),
                predicate: Predicate::state("SM2", "State2"),
                observation: ObservationFn::total_true(),
            });
        let v = m.apply(&study, &gt).unwrap().unwrap();
        assert!((v - 4.7).abs() < 1e-9); // 1.4 + 3.3 ms in State2
    }

    #[test]
    fn empty_measure_is_error() {
        let (study, gt) = fig_4_2();
        let m = StudyMeasure::new("empty");
        assert!(matches!(
            m.apply(&study, &gt),
            Err(MeasureError::EmptyMeasure { .. })
        ));
    }

    #[test]
    fn count_observation_counts_each_entry() {
        let (study, gt) = fig_4_2();
        let m = StudyMeasure::new("m").step(MeasureStep {
            subset: SubsetSel::All,
            predicate: Predicate::state("SM1", "State1"),
            observation: ObservationFn::count(UpDown::Up, ImpulseStep::Both, 0.0, 50.0),
        });
        assert_eq!(m.apply(&study, &gt).unwrap(), Some(1.0));
    }

    #[test]
    fn subset_selectors() {
        assert!(SubsetSel::All.accepts(f64::NAN));
        assert!(SubsetSel::Gt(1.0).accepts(2.0));
        assert!(!SubsetSel::Gt(1.0).accepts(1.0));
        assert!(SubsetSel::Ge(1.0).accepts(1.0));
        assert!(SubsetSel::Lt(1.0).accepts(0.5));
        assert!(SubsetSel::Le(1.0).accepts(1.0));
        assert!(SubsetSel::Between(1.0, 2.0).accepts(1.5));
        assert!(!SubsetSel::Between(1.0, 2.0).accepts(2.5));
        assert!(SubsetSel::User(Rc::new(|v| v == 42.0)).accepts(42.0));
    }
}
