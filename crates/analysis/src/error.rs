//! Analysis-phase errors.

use loki_clock::sync::SyncError;
use std::error::Error;
use std::fmt;

/// Errors from global-timeline construction.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// A host's clock could not be calibrated against the reference, or a
    /// record stamped on it could not be projected through the calibration
    /// ([`SyncError::OutOfRange`], [`SyncError::ProjectionOutOfRange`]).
    Sync {
        /// The host.
        host: String,
        /// The underlying estimation or projection error.
        source: SyncError,
    },
    /// A timeline record was stamped on a host with no calibration data.
    UnknownHost {
        /// The unknown host.
        host: String,
        /// The state machine whose timeline referenced it.
        sm: String,
    },
    /// The experiment has more records than the global timeline can
    /// address: events are named by `u32` positions, one value of which
    /// means "no event".
    TooManyRecords {
        /// Records across all local timelines.
        records: usize,
    },
    /// The experiment's user messages hold more text than the global
    /// timeline can address: a message is named by a `u32` byte span.
    MessagesTooLong {
        /// Bytes of user-message text across all local timelines.
        bytes: usize,
    },
    /// A user-message record names a span outside its timeline's text
    /// (only a hand-built timeline can).
    MessageSpan {
        /// The state machine whose timeline holds the record.
        sm: String,
        /// The record's index in that timeline.
        record: usize,
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
            AnalysisError::TooManyRecords { records } => write!(
                f,
                "{records} records exceed the {} a global timeline can address",
                u32::MAX
            ),
            AnalysisError::MessagesTooLong { bytes } => write!(
                f,
                "{bytes} bytes of user messages exceed the {} a global timeline can address",
                u32::MAX
            ),
            AnalysisError::MessageSpan { sm, record } => write!(
                f,
                "user message {record} of `{sm}` names text outside its timeline"
            ),
        }
    }
}

impl AnalysisError {
    /// Bytes of the heap blocks this error owns, each at the size requested
    /// from the allocator.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            AnalysisError::Sync { host, .. } => host.capacity(),
            AnalysisError::UnknownHost { host, sm } => host.capacity() + sm.capacity(),
            AnalysisError::MessageSpan { sm, .. } => sm.capacity(),
            AnalysisError::TooManyRecords { .. } | AnalysisError::MessagesTooLong { .. } => 0,
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
        let e = AnalysisError::TooManyRecords {
            records: usize::MAX,
        };
        assert!(e.to_string().contains("exceed the 4294967295"));
        assert!(e.source().is_none());
        let e = AnalysisError::MessagesTooLong { bytes: usize::MAX };
        assert!(e
            .to_string()
            .contains("user messages exceed the 4294967295"));
        assert!(e.source().is_none());
    }
}
