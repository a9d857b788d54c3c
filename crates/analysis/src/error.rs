//! Analysis-phase errors.

use loki_clock::sync::SyncError;
use std::error::Error;
use std::fmt;

/// Errors from global-timeline construction.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// A host's clock could not be calibrated against the reference.
    Sync {
        /// The host.
        host: String,
        /// The underlying estimation error.
        source: SyncError,
    },
    /// A timeline record was stamped on a host with no calibration data.
    UnknownHost {
        /// The unknown host.
        host: String,
        /// The state machine whose timeline referenced it.
        sm: String,
    },
    /// The analysis window of [`crate::global::GlobalOptions`] is unusable:
    /// bounds must be finite with `lo <= hi`.
    InvalidWindow {
        /// The offending lower bound (ns).
        lo: f64,
        /// The offending upper bound (ns).
        hi: f64,
    },
    /// The experiment has more records than the global timeline can
    /// address: events are named by `u32` positions, one value of which
    /// means "no event".
    TooManyRecords {
        /// Records across all local timelines.
        records: usize,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Sync { host, source } => {
                write!(f, "clock calibration failed for host `{host}`: {source}")
            }
            AnalysisError::UnknownHost { host, sm } => write!(
                f,
                "timeline of `{sm}` references host `{host}` with no sync data"
            ),
            AnalysisError::InvalidWindow { lo, hi } => write!(
                f,
                "invalid analysis window [{lo}, {hi}] ns: bounds must be finite with lo <= hi"
            ),
            AnalysisError::TooManyRecords { records } => write!(
                f,
                "{records} records exceed the {} a global timeline can address",
                u32::MAX
            ),
        }
    }
}

impl Error for AnalysisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AnalysisError::Sync { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = AnalysisError::Sync {
            host: "h2".into(),
            source: SyncError::Infeasible,
        };
        assert!(e.to_string().contains("h2"));
        assert!(e.source().is_some());
        let e = AnalysisError::UnknownHost {
            host: "hx".into(),
            sm: "black".into(),
        };
        assert!(e.to_string().contains("black"));
        assert!(e.source().is_none());
        let e = AnalysisError::InvalidWindow { lo: 2.0, hi: 1.0 };
        assert!(e.to_string().contains("analysis window"));
        assert!(e.source().is_none());
        let e = AnalysisError::TooManyRecords {
            records: usize::MAX,
        };
        assert!(e.to_string().contains("exceed the 4294967295"));
        assert!(e.source().is_none());
    }
}
