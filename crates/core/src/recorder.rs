//! The recorder and local timelines (§3.5.6).
//!
//! During an experiment each node's recorder appends state changes and fault
//! injections, with their local-clock occurrence times, to a *local
//! timeline*. The analysis phase later projects every local timeline onto
//! the single global timeline. Because a node may crash and restart on a
//! *different* host (§3.6.3), a timeline is segmented into [`HostStint`]s:
//! runs of records whose timestamps were produced by one particular host's
//! clock.
//!
//! Hosts appear as interned [`HostId`]s from the study's
//! [`SymbolTable`](crate::ids::SymbolTable) — the timeline carries no owned
//! strings except user messages, so cloning a record is a few machine words
//! and the analysis hot path resolves hosts by array index, not by hashing
//! names. Names reappear only at display/report boundaries.

use crate::ids::{EventId, FaultId, HostId, SmId, StateId};
use crate::time::LocalNanos;
use serde::{Deserialize, Serialize};

/// The payload of one timeline record.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecordKind {
    /// A state transition: `event` occurred and the machine entered
    /// `new_state`. Crashes appear as the reserved `CRASH` event entering
    /// the `CRASH` state; clean exits as transitions into `EXIT`.
    StateChange {
        /// The triggering event.
        event: EventId,
        /// The state entered.
        new_state: StateId,
    },
    /// The probe injected `fault` at the recorded time.
    FaultInjection {
        /// The injected fault.
        fault: FaultId,
    },
    /// The node restarted on `host`; the host is recorded because
    /// subsequent timestamps come from that host's clock (§3.6.3).
    Restart {
        /// Host the node restarted on.
        host: HostId,
    },
    /// A free-form user message (§3.5.6 allows arbitrary messages).
    UserMessage(String),
}

/// One record of a local timeline: a payload and its local occurrence time.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelineRecord {
    /// Local-clock reading when the record was made.
    pub time: LocalNanos,
    /// The payload.
    pub kind: RecordKind,
}

/// A run of records timestamped by one host's clock.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostStint {
    /// The host whose clock stamped these records.
    pub host: HostId,
    /// Index of the first record of the stint.
    pub first_record: usize,
}

/// The local timeline of one state machine across one experiment.
///
/// The machine's nickname is not stored — `sm` resolves through the study's
/// name table when a report needs it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalTimeline {
    /// The state machine this timeline belongs to.
    pub sm: SmId,
    /// All records in append order.
    pub records: Vec<TimelineRecord>,
    /// Host stints covering `records`; always non-empty, and
    /// `stints[0].first_record == 0`.
    pub stints: Vec<HostStint>,
}

impl LocalTimeline {
    /// The host whose clock stamped record `index` (point lookup).
    ///
    /// For a full scan use [`records_with_hosts`](Self::records_with_hosts),
    /// which advances a stint cursor once instead of rescanning the stints
    /// per record.
    ///
    /// # Panics
    ///
    /// Panics if the timeline has no stints (it always has at least one).
    pub fn host_of_record(&self, index: usize) -> HostId {
        let mut host = self.stints[0].host;
        for stint in &self.stints {
            if stint.first_record <= index {
                host = stint.host;
            } else {
                break;
            }
        }
        host
    }

    /// Iterates over `(record index, host, record)` in a single pass.
    ///
    /// The stint cursor advances monotonically with the record index, so
    /// the whole scan is O(records + stints) — not O(records × stints) as a
    /// per-record [`host_of_record`](Self::host_of_record) would be. This
    /// is the shape `make_global` consumes per experiment.
    pub fn records_with_hosts(&self) -> impl Iterator<Item = (usize, HostId, &TimelineRecord)> {
        let mut cursor = 0usize;
        self.records.iter().enumerate().map(move |(i, r)| {
            while cursor + 1 < self.stints.len() && self.stints[cursor + 1].first_record <= i {
                cursor += 1;
            }
            (i, self.stints[cursor].host, r)
        })
    }

    /// Number of fault injections recorded.
    pub fn injection_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.kind, RecordKind::FaultInjection { .. }))
            .count()
    }

    /// Opens a new stint on `host` and appends the `Restart` record — the
    /// restart bookkeeping of §3.6.3, shared by [`Recorder::resume`] and
    /// the runtime's in-place timeline stores so the two cannot diverge.
    pub fn resume_on(&mut self, time: LocalNanos, host: HostId) {
        self.stints.push(HostStint {
            host,
            first_record: self.records.len(),
        });
        self.records.push(TimelineRecord {
            time,
            kind: RecordKind::Restart { host },
        });
    }

    /// Re-initializes this timeline for a fresh first life of `sm` on
    /// `host`, clearing records and stints but keeping their capacity (the
    /// runtime recycles timeline shells across experiments; a recycled
    /// shell is observationally identical to [`Recorder::new`]'s output).
    pub fn reset_for(&mut self, sm: SmId, host: HostId) {
        self.sm = sm;
        self.records.clear();
        self.stints.clear();
        self.stints.push(HostStint {
            host,
            first_record: 0,
        });
    }

    /// An empty shell with no stints — only useful as recyclable storage
    /// to pass to [`LocalTimeline::reset_for`] later.
    pub fn empty_shell() -> Self {
        LocalTimeline {
            sm: SmId::from_raw(0),
            records: Vec::new(),
            stints: Vec::new(),
        }
    }
}

/// Appends records to a [`LocalTimeline`] on behalf of one node.
///
/// # Examples
///
/// ```
/// use loki_core::ids::Id;
/// use loki_core::recorder::{Recorder, RecordKind};
/// use loki_core::time::LocalNanos;
///
/// let host = Id::from_raw(0);
/// let mut rec = Recorder::new(Id::from_raw(0), host);
/// rec.record_state_change(LocalNanos::from_millis(1), Id::from_raw(0), Id::from_raw(1));
/// rec.record_injection(LocalNanos::from_millis(2), Id::from_raw(0));
/// let timeline = rec.finish();
/// assert_eq!(timeline.records.len(), 2);
/// assert_eq!(timeline.host_of_record(1), host);
/// ```
#[derive(Clone, Debug)]
pub struct Recorder {
    timeline: LocalTimeline,
}

impl Recorder {
    /// Creates a recorder for machine `sm` whose first stint runs on
    /// `host`.
    pub fn new(sm: SmId, host: HostId) -> Self {
        Recorder {
            timeline: LocalTimeline {
                sm,
                records: Vec::new(),
                stints: vec![HostStint {
                    host,
                    first_record: 0,
                }],
            },
        }
    }

    /// Resumes recording into an existing timeline (node restart): appends a
    /// `Restart` record and opens a new stint on `host`.
    pub fn resume(mut timeline: LocalTimeline, time: LocalNanos, host: HostId) -> Self {
        timeline.resume_on(time, host);
        Recorder { timeline }
    }

    /// Records a state change.
    pub fn record_state_change(&mut self, time: LocalNanos, event: EventId, new_state: StateId) {
        self.push(time, RecordKind::StateChange { event, new_state });
    }

    /// Records a fault injection.
    pub fn record_injection(&mut self, time: LocalNanos, fault: FaultId) {
        self.push(time, RecordKind::FaultInjection { fault });
    }

    /// Records a free-form user message. Accepts anything convertible into
    /// a `String`, so callers holding an owned `String` move it instead of
    /// re-allocating.
    pub fn record_user_message(&mut self, time: LocalNanos, message: impl Into<String>) {
        self.push(time, RecordKind::UserMessage(message.into()));
    }

    /// Records an already-assembled [`RecordKind`].
    pub fn record(&mut self, time: LocalNanos, kind: RecordKind) {
        self.push(time, kind);
    }

    /// The timeline accumulated so far.
    pub fn timeline(&self) -> &LocalTimeline {
        &self.timeline
    }

    /// Consumes the recorder, yielding the finished timeline.
    pub fn finish(self) -> LocalTimeline {
        self.timeline
    }

    fn push(&mut self, time: LocalNanos, kind: RecordKind) {
        self.timeline.records.push(TimelineRecord { time, kind });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Id;

    fn ev(i: u32) -> EventId {
        Id::from_raw(i)
    }
    fn st(i: u32) -> StateId {
        Id::from_raw(i)
    }
    fn f(i: u32) -> FaultId {
        Id::from_raw(i)
    }
    fn h(i: u32) -> HostId {
        Id::from_raw(i)
    }

    #[test]
    fn records_append_in_order() {
        let mut r = Recorder::new(Id::from_raw(0), h(0));
        r.record_state_change(LocalNanos(10), ev(0), st(1));
        r.record_injection(LocalNanos(20), f(0));
        r.record_user_message(LocalNanos(30), "note");
        let t = r.finish();
        assert_eq!(t.records.len(), 3);
        assert_eq!(t.records[0].time, LocalNanos(10));
        assert!(matches!(t.records[2].kind, RecordKind::UserMessage(ref m) if m == "note"));
        assert_eq!(t.injection_count(), 1);
    }

    #[test]
    fn host_stints_track_restarts() {
        let mut r = Recorder::new(Id::from_raw(0), h(1));
        r.record_state_change(LocalNanos(10), ev(0), st(1));
        r.record_state_change(LocalNanos(20), ev(1), st(2)); // crash on h1
        let timeline = r.finish();

        // Restart on a different host.
        let mut r = Recorder::resume(timeline, LocalNanos(5), h(2));
        r.record_state_change(LocalNanos(6), ev(0), st(3));
        let t = r.finish();

        assert_eq!(t.stints.len(), 2);
        assert_eq!(t.host_of_record(0), h(1));
        assert_eq!(t.host_of_record(1), h(1));
        assert_eq!(t.host_of_record(2), h(2)); // the Restart record itself
        assert_eq!(t.host_of_record(3), h(2));
        assert!(matches!(t.records[2].kind, RecordKind::Restart { host } if host == h(2)));
    }

    #[test]
    fn records_with_hosts_pairs_correctly() {
        let mut r = Recorder::new(Id::from_raw(0), h(1));
        r.record_state_change(LocalNanos(1), ev(0), st(0));
        let mut r = Recorder::resume(r.finish(), LocalNanos(2), h(2));
        r.record_state_change(LocalNanos(3), ev(0), st(1));
        let t = r.finish();
        let hosts: Vec<HostId> = t.records_with_hosts().map(|(_, host, _)| host).collect();
        assert_eq!(hosts, vec![h(1), h(2), h(2)]);
    }

    #[test]
    fn cursor_scan_matches_point_lookups_across_many_stints() {
        // Several restarts, including back-to-back ones, so stint
        // boundaries of every shape exist; the single-pass iterator must
        // agree with `host_of_record` at every index.
        let mut r = Recorder::new(Id::from_raw(0), h(0));
        for i in 0..5u64 {
            r.record_state_change(LocalNanos(i), ev(0), st(0));
        }
        let mut t = r.finish();
        for host in [1u32, 2, 3] {
            let mut r = Recorder::resume(t, LocalNanos(100 + host as u64), h(host));
            for i in 0..host as u64 {
                r.record_state_change(LocalNanos(200 + i), ev(0), st(0));
            }
            t = r.finish();
        }
        assert_eq!(t.stints.len(), 4);
        for (i, host, _) in t.records_with_hosts() {
            assert_eq!(host, t.host_of_record(i), "record {i}");
        }
    }
}
