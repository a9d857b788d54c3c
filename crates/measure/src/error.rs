//! Measure-phase errors.

use std::error::Error;
use std::fmt;

/// Errors from measure specification or estimation.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum MeasureError {
    /// A predicate referenced an unknown machine/state/event.
    UnknownName {
        /// What kind of name ("state machine", "state", "event").
        kind: &'static str,
        /// The name.
        name: String,
    },
    /// A study measure with no triples.
    EmptyMeasure {
        /// The measure's name.
        name: String,
    },
    /// No observation values to estimate from.
    NoData,
    /// Invalid stratification weights.
    BadWeights {
        /// Why.
        reason: String,
    },
    /// A [`StudyAccumulator`](crate::StudyAccumulator) was handed an
    /// experiment other than the next one in index order.
    OutOfOrder {
        /// The accumulated measure's name.
        measure: String,
        /// The experiment index the accumulator expected next: the number
        /// of experiments it has folded in.
        expected: usize,
        /// The experiment index it was handed.
        got: u32,
    },
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::UnknownName { kind, name } => {
                write!(f, "unknown {kind} `{name}` in predicate")
            }
            MeasureError::EmptyMeasure { name } => {
                write!(f, "study measure `{name}` has no triples")
            }
            MeasureError::NoData => write!(f, "no observation values to estimate from"),
            MeasureError::BadWeights { reason } => write!(f, "invalid weights: {reason}"),
            MeasureError::OutOfOrder {
                measure,
                expected,
                got,
            } => write!(
                f,
                "measure `{measure}` expected experiment {expected} next, got {got}"
            ),
        }
    }
}

impl Error for MeasureError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = MeasureError::UnknownName {
            kind: "state",
            name: "LEAD".into(),
        };
        assert!(e.to_string().contains("LEAD"));
        assert!(MeasureError::NoData.to_string().contains("no observation"));
    }
}
