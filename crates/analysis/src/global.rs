//! Global timeline construction (the thesis's `alphabeta` + `makeglobal`,
//! §5.7).
//!
//! For each experiment: estimate `(α, β)` bounds per host from the sync
//! mini-phases, project every local timeline record onto the reference
//! timeline as a [`TimeBounds`](loki_core::time::TimeBounds) interval, and
//! derive per-machine state intervals (entry/exit per occupied state). The
//! resulting [`GlobalTimeline`] is the input to both the fault-injection
//! correctness check and the measure phase.
//!
//! The [`GlobalTimeline`] itself, its events and its intervals live in
//! `timeline.rs`; this file builds it.

use crate::error::AnalysisError;
use loki_clock::sync::{estimate_alpha_beta, AlphaBetaBounds, Projector, SyncOptions};
use loki_core::campaign::ExperimentData;
use loki_core::ids::{HostId, StateId};
use loki_core::recorder::RecordKind;
use loki_core::study::Study;

pub use crate::timeline::{GlobalEvent, GlobalEventKind, GlobalTimeline, StateInterval};

#[cfg(test)]
mod tests;

/// Options for global timeline construction.
#[derive(Clone, Debug, Default)]
pub struct GlobalOptions {
    /// Options for the `(α, β)` bound estimation.
    pub sync: SyncOptions,
}

/// Builds the global timeline of one experiment.
///
/// The result is plain owned data, and no state is kept between calls.
/// Every bound is a whole nanosecond, rounded outward once from the exact
/// projection ([`AlphaBetaBounds::project`]). Events are ordered by the
/// midpoint of their bounds, compared exactly, with a stable sort, so events
/// with equal midpoints keep timeline-then-record order.
///
/// # Errors
///
/// Returns [`AnalysisError::Sync`] when a host's clock cannot be calibrated
/// or a record on it cannot be projected (a reading or a bound out of
/// range: [`AlphaBetaBounds::project`]),
/// [`AnalysisError::UnknownHost`] when a timeline references a host with
/// no sync data, and [`AnalysisError::TooManyRecords`] when
/// the experiment has more records than a `u32` event position can name.
pub fn make_global(
    study: &Study,
    data: &ExperimentData,
    opts: &GlobalOptions,
) -> Result<GlobalTimeline, AnalysisError> {
    // Event positions and record indexes are `u32`, and `StateInterval::OPEN`
    // is no position: at most `OPEN` records keeps every position below it.
    let total_records: usize = data.timelines.iter().map(|t| t.records.len()).sum();
    check_record_count(total_records)?;
    // Every result is sized exactly: one interval per state-setting record
    // (each opens one, which a later one or the timeline's end closes), and
    // one buffer for the user-message text, whose spans are `u32`s.
    let (mut state_setting, mut message_bytes) = (0usize, 0usize);
    for record in data.timelines.iter().flat_map(|t| &t.records) {
        match record.kind {
            RecordKind::StateChange { .. } | RecordKind::Restart { .. } => state_setting += 1,
            RecordKind::UserMessage { len, .. } => message_bytes += len as usize,
            RecordKind::FaultInjection { .. } => {}
        }
    }
    check_message_bytes(message_bytes)?;
    // --- alphabeta: per-host clock calibration -----------------------------
    // Dense, indexed by `HostId`: the projection loop below resolves a
    // record's bounds with one array index instead of hashing a host-name
    // string per record. Touching a host outside `data.hosts` (plus the
    // reference) from a timeline is the `UnknownHost` error. Ids outside
    // the symbol table (malformed or foreign-table data) resolve to a
    // placeholder label in error paths rather than panicking.
    let host_label = |host: HostId| -> String {
        data.symbols
            .try_name(host)
            .map(str::to_owned)
            .unwrap_or_else(|| format!("<host #{}>", host.raw()))
    };
    let num_hosts = data
        .symbols
        .len()
        .max(data.reference_host.index() + 1)
        .max(data.hosts.iter().map(|h| h.index() + 1).max().unwrap_or(0));
    let mut alpha_beta = vec![AlphaBetaBounds::identity(); num_hosts];
    let mut samples = Vec::new();
    for &host in &data.hosts {
        if host == data.reference_host {
            continue;
        }
        data.sync_samples_into(host, &mut samples);
        let bounds =
            estimate_alpha_beta(&samples, &opts.sync).map_err(|source| AnalysisError::Sync {
                host: host_label(host),
                source,
            })?;
        alpha_beta[host.index()] = bounds;
    }
    // Estimation failure above is fatal, so from here every host in
    // `data.hosts` (plus the reference) is calibrated; anything else a
    // timeline references is the `UnknownHost` error. Membership is checked
    // once per host change (hosts are constant within a stint), not per
    // record.
    let is_calibrated = |host: HostId| host == data.reference_host || data.hosts.contains(&host);

    // --- makeglobal: project every record -----------------------------------
    // Exact capacity up front — the loop below never reallocates, and
    // `intervals` and `messages` become their boxed slices in place.
    let mut events = Vec::with_capacity(total_records);
    let mut intervals = Vec::with_capacity(state_setting);
    let mut messages = String::with_capacity(message_bytes);
    for timeline in &data.timelines {
        let mut current_state = StateId::BEGIN;
        // The open interval's state and entering event, by its position
        // before ordering (remapped below).
        let mut open: Option<(StateId, u32)> = None;
        // The host of the current stint and its box, validated and
        // decomposed once per stint rather than once per record.
        let mut stint: Option<(HostId, Projector)> = None;

        for (idx, host, record) in timeline.records_with_hosts() {
            let projector = match &mut stint {
                Some((checked, projector)) if *checked == host => &*projector,
                stint => {
                    if host.index() >= alpha_beta.len() || !is_calibrated(host) {
                        return Err(AnalysisError::UnknownHost {
                            host: host_label(host),
                            sm: study.sms.name(timeline.sm).to_owned(),
                        });
                    }
                    &stint.insert((host, alpha_beta[host.index()].projector())).1
                }
            };
            let bounds = projector
                .project(record.time)
                .map_err(|source| AnalysisError::Sync {
                    host: host_label(host),
                    source,
                })?;
            // Below `OPEN`: `check_record_count` bounds both.
            let position = events.len() as u32;
            let kind = match record.kind {
                RecordKind::StateChange { event, new_state } => {
                    let from_state = current_state;
                    // Close the open interval and open the next one.
                    if let Some((state, enter)) = open.take() {
                        intervals.push(StateInterval {
                            sm: timeline.sm,
                            state,
                            enter,
                            exit: position,
                        });
                    }
                    open = Some((new_state, position));
                    current_state = new_state;
                    GlobalEventKind::StateChange {
                        event,
                        from_state,
                        new_state,
                    }
                }
                RecordKind::FaultInjection { fault } => GlobalEventKind::Injection { fault },
                RecordKind::Restart { host } => {
                    // The machine is back in BEGIN until its first
                    // notification; close whatever was open (normally the
                    // CRASH interval written by the daemon).
                    if let Some((state, enter)) = open.take() {
                        intervals.push(StateInterval {
                            sm: timeline.sm,
                            state,
                            enter,
                            exit: position,
                        });
                    }
                    open = Some((StateId::BEGIN, position));
                    current_state = StateId::BEGIN;
                    GlobalEventKind::Restart { host }
                }
                RecordKind::UserMessage { len, .. } => {
                    let text = timeline.user_message(record.kind).ok_or_else(|| {
                        AnalysisError::MessageSpan {
                            sm: study.sms.name(timeline.sm).to_owned(),
                            record: idx,
                        }
                    })?;
                    // Below `u32::MAX`: `check_message_bytes` bounds it.
                    let start = messages.len() as u32;
                    messages.push_str(text);
                    GlobalEventKind::UserMessage { start, len }
                }
            };
            events.push(GlobalEvent {
                sm: timeline.sm,
                kind,
                bounds,
                record_index: idx as u32,
            });
        }
        if let Some((state, enter)) = open.take() {
            intervals.push(StateInterval {
                sm: timeline.sm,
                state,
                enter,
                exit: StateInterval::OPEN,
            });
        }
    }

    // Order by midpoint, exactly: by `lo + hi`, which fits `i64` because
    // projected bounds lie inside ±2⁶² ns. The sort is stable, so equal
    // midpoints keep insertion order: (timeline, record position). Sorting
    // (key, position) pairs rather than the events yields the order, whose
    // inverse `moved_to[before] == after` moves the intervals' event
    // positions; the events are then gathered in order.
    let mut order: Vec<(i64, u32)> = events
        .iter()
        .zip(0..)
        .map(|(e, position)| (e.bounds.lo.0 + e.bounds.hi.0, position))
        .collect();
    order.sort_by_key(|&(key, _)| key);
    let mut moved_to = vec![0u32; order.len()];
    for (after, &(_, before)) in (0..).zip(&order) {
        moved_to[before as usize] = after;
    }
    let moved = |position: u32| match position {
        StateInterval::OPEN => StateInterval::OPEN,
        _ => moved_to[position as usize],
    };
    for iv in &mut intervals {
        iv.enter = moved(iv.enter);
        iv.exit = moved(iv.exit);
    }
    let events: Box<[GlobalEvent]> = order
        .iter()
        .map(|&(_, before)| events[before as usize].clone())
        .collect();
    let start = events.iter().map(|e| e.bounds.lo).min().unwrap_or_default();
    let end = events.iter().map(|e| e.bounds.hi).max().unwrap_or_default();

    // Uncalibrated hosts were never referenced (the loop above would have
    // errored); their identity fillers keep `alpha_beta` dense.
    Ok(GlobalTimeline {
        events,
        messages: messages.into_boxed_str(),
        intervals: intervals.into_boxed_slice(),
        start,
        end,
        alpha_beta: alpha_beta.into_boxed_slice(),
        reference_host: data.reference_host,
        symbols: data.symbols.clone(),
    })
}

/// Rejects an experiment with more records than `u32` event positions can
/// name next to [`StateInterval::OPEN`].
fn check_record_count(records: usize) -> Result<(), AnalysisError> {
    if records > StateInterval::OPEN as usize {
        return Err(AnalysisError::TooManyRecords { records });
    }
    Ok(())
}

/// Rejects an experiment with more user-message text than `u32` spans can
/// address.
fn check_message_bytes(bytes: usize) -> Result<(), AnalysisError> {
    if bytes > u32::MAX as usize {
        return Err(AnalysisError::MessagesTooLong { bytes });
    }
    Ok(())
}
