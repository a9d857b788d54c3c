//! # loki-measure
//!
//! The measure estimation phase of the Loki fault injector (thesis
//! Chapter 4): a flexible language for specifying dependability and
//! performance measures over the global timelines of accepted experiments,
//! and the statistics to estimate them accurately.
//!
//! * [`predicate`] — predicates over the global timeline: the four tuple
//!   forms (state/event, with/without time windows) combined with
//!   AND/OR/NOT.
//! * [`timeline`] — predicate value timelines (steps + impulses).
//! * [`obsfn`] — the predefined observation functions `count`, `outcome`,
//!   `duration`, `instant`, `total_duration`, plus user-defined ones.
//! * [`study_measure`] — study-level measures: ordered sequences of
//!   (subset selection, predicate, observation function) triples, applied
//!   to one experiment's global timeline.
//! * [`accumulator`] — a study measure folded over a campaign: online, in
//!   experiment-index order, as the campaign's sink hands each analyzed
//!   experiment over.
//! * [`campaign_measure`] — simple-sampling, stratified-weighted, and
//!   stratified-user campaign measures.
//! * [`stats`] — four-moment statistics, skewness/kurtosis, and
//!   Cornish–Fisher percentile approximation.
//! * [`fig42`] — the thesis's Figure 4.2 worked example, reproduced
//!   exactly (with two documented discrepancies in the thesis's printed
//!   values).
//!
//! ## Example: a study-level measure
//!
//! ```
//! use loki_measure::prelude::*;
//! use loki_measure::fig42::fig_4_2;
//!
//! // (default, (SM1:State1), total_duration(T, START_EXP, END_EXP))
//! let measure = StudyMeasure::new("time-in-State1").step(MeasureStep {
//!     subset: SubsetSel::All,
//!     predicate: Predicate::state("SM1", "State1"),
//!     observation: ObservationFn::total_true(),
//! });
//! let (study, gt) = fig_4_2();
//! let value = measure.apply(&study, &gt)?.unwrap();
//! assert!((value - 6.5).abs() < 1e-9); // ms
//! # Ok::<(), loki_measure::error::MeasureError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accumulator;
pub mod campaign_measure;
pub mod error;
pub mod fig42;
pub mod obsfn;
pub mod predicate;
pub mod stats;
pub mod study_measure;
pub mod timeline;
pub mod timeref;

pub use accumulator::StudyAccumulator;
pub use campaign_measure::{simple_sampling, stratified_user, stratified_weighted};
pub use error::MeasureError;
pub use obsfn::{ImpulseStep, ObservationFn, TrueFalse, UpDown};
pub use predicate::{CompiledPredicate, Predicate};
pub use stats::MomentStats;
pub use study_measure::{MeasureStep, StudyMeasure, SubsetSel};
pub use timeline::{PredicateTimeline, TransKind, TransSource, Transition, Transitions};
pub use timeref::{TimeRef, Window};

/// Convenient glob import for building measures.
pub mod prelude {
    pub use crate::accumulator::StudyAccumulator;
    pub use crate::campaign_measure::{simple_sampling, stratified_user, stratified_weighted};
    pub use crate::obsfn::{ImpulseStep, ObservationFn, TrueFalse, UpDown};
    pub use crate::predicate::Predicate;
    pub use crate::stats::MomentStats;
    pub use crate::study_measure::{MeasureStep, StudyMeasure, SubsetSel};
    pub use crate::timeref::{TimeRef, Window};
}
