//! Global timeline construction (the thesis's `alphabeta` + `makeglobal`,
//! §5.7).
//!
//! For each experiment: estimate `(α, β)` bounds per host from the sync
//! mini-phases, project every local timeline record onto the reference
//! timeline as a [`TimeBounds`] interval, and derive per-machine state
//! intervals (entry/exit per occupied state). The resulting
//! [`GlobalTimeline`] is the input to both the fault-injection correctness
//! check and the measure phase.
//!
//! Each time bound is stored once, on its event: a [`StateInterval`] names
//! the events that opened and closed it, and
//! [`GlobalTimeline::enter_of`]/[`GlobalTimeline::exit_of`] read the bounds
//! off them. A retained timeline is mostly events and intervals, so this
//! layout is what a campaign that keeps its results pays per experiment.

use crate::error::AnalysisError;
use loki_clock::sync::{estimate_alpha_beta, AlphaBetaBounds, Projector, SyncOptions};
use loki_core::campaign::ExperimentData;
use loki_core::ids::{EventId, FaultId, HostId, SmId, StateId, SymbolTable};
use loki_core::recorder::RecordKind;
use loki_core::study::Study;
use loki_core::time::{GlobalNanos, TimeBounds};
use std::fmt;
use std::sync::Arc;

/// The payload of a global-timeline event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GlobalEventKind {
    /// `event` occurred while the machine was in `from_state`, entering
    /// `new_state`. (Figure 4.2's "Begin State" column is `from_state`.)
    StateChange {
        /// The triggering event.
        event: EventId,
        /// State the machine was in when the event occurred.
        from_state: StateId,
        /// State entered.
        new_state: StateId,
    },
    /// A fault injection performed by this machine's probe.
    Injection {
        /// The injected fault.
        fault: FaultId,
    },
    /// The machine restarted on `host`.
    Restart {
        /// Host of the new incarnation (resolve through
        /// [`GlobalTimeline::host_name`]).
        host: HostId,
    },
    /// A user message. Its text is the `len` bytes from `start` in the
    /// timeline's [`GlobalTimeline::messages`]; read it with
    /// [`GlobalTimeline::user_message`].
    UserMessage {
        /// Byte offset of the text in [`GlobalTimeline::messages`].
        start: u32,
        /// Byte length of the text.
        len: u32,
    },
}

/// One event projected onto the global timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct GlobalEvent {
    /// The machine whose timeline produced the event.
    pub sm: SmId,
    /// The payload.
    pub kind: GlobalEventKind,
    /// Guaranteed-enclosing bounds on the occurrence time.
    pub bounds: TimeBounds,
    /// Index of the source record in the machine's local timeline.
    pub record_index: u32,
}

/// A maximal interval during which one machine occupied one state.
///
/// The interval stores no bounds of its own: `enter` and `exit` are
/// positions in [`GlobalTimeline::events`] of the state-setting events
/// (`StateChange` or `Restart`) that opened and closed it, so read its
/// bounds through [`GlobalTimeline::enter_of`] and
/// [`GlobalTimeline::exit_of`]. [`StateInterval::OPEN`] names no event: as
/// `exit`, the state was held until the end of the experiment; as `enter`,
/// the state was entered before the first event, which only a hand-built
/// timeline has (`make_global` opens every interval at an event).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateInterval {
    /// The machine.
    pub sm: SmId,
    /// The state occupied.
    pub state: StateId,
    /// Position in [`GlobalTimeline::events`] of the event that entered
    /// the state, or [`StateInterval::OPEN`].
    pub enter: u32,
    /// Position in [`GlobalTimeline::events`] of the event that left the
    /// state, or [`StateInterval::OPEN`].
    pub exit: u32,
}

impl StateInterval {
    /// The position that names no event (see [`StateInterval`]).
    pub const OPEN: u32 = u32::MAX;
}

/// The single global timeline of one experiment (§2.5).
///
/// Hosts appear as [`HostId`]s throughout; `alpha_beta` is a dense slice
/// indexed by `HostId` (hosts the experiment never calibrated hold the
/// identity projection — no record referenced them, or `make_global` would
/// have failed). The study-run [`SymbolTable`] rides along behind an `Arc`
/// so reports can resolve names without the (dropped) raw data.
///
/// A finished timeline does not change, so its sequences are boxed slices
/// of exactly their length. The text of every user message sits in the one
/// `messages` buffer, which its [`GlobalEventKind::UserMessage`] event
/// names by span. A hand-built timeline collects each sequence into a
/// `Vec` and converts it with `.into()`.
///
/// `Debug` prints every interval with its bounds resolved, exactly as when
/// intervals stored them, and every user message with its text, exactly as
/// when events held it.
#[derive(Clone, PartialEq)]
pub struct GlobalTimeline {
    /// All events, sorted by the midpoint of their bounds.
    pub events: Box<[GlobalEvent]>,
    /// The text of the user messages, timeline by timeline in record
    /// order; each [`GlobalEventKind::UserMessage`] names its span.
    pub messages: Box<str>,
    /// State-occupancy intervals, grouped by machine in record order. Each
    /// points at its entering and leaving events in `events`; resolve its
    /// bounds with [`GlobalTimeline::enter_of`] and
    /// [`GlobalTimeline::exit_of`].
    pub intervals: Box<[StateInterval]>,
    /// Experiment window start (minimum lower bound over events).
    pub start: GlobalNanos,
    /// Experiment window end (maximum upper bound over events).
    pub end: GlobalNanos,
    /// Per-host `(α, β)` bounds used for the projection, indexed by
    /// [`HostId`].
    pub alpha_beta: Box<[AlphaBetaBounds]>,
    /// The reference host.
    pub reference_host: HostId,
    /// The study-run symbol table resolving every [`HostId`] above.
    pub symbols: Arc<SymbolTable>,
}

impl GlobalTimeline {
    /// Intervals of one machine, in chronological (record) order. Their
    /// bounds are read through [`GlobalTimeline::enter_of`] and
    /// [`GlobalTimeline::exit_of`].
    pub fn intervals_of(&self, sm: SmId) -> impl Iterator<Item = &StateInterval> {
        self.intervals.iter().filter(move |iv| iv.sm == sm)
    }

    /// Bounds on the instant `iv` was entered: its entering event's, or the
    /// experiment start as a point when it was entered before the first
    /// event ([`StateInterval::OPEN`]).
    pub fn enter_of(&self, iv: &StateInterval) -> TimeBounds {
        self.bounds_at(iv.enter)
            .unwrap_or(TimeBounds::point(self.start))
    }

    /// Bounds on the instant `iv` was left: its leaving event's, or `None`
    /// when the state was held until the end ([`StateInterval::OPEN`]).
    pub fn exit_of(&self, iv: &StateInterval) -> Option<TimeBounds> {
        self.bounds_at(iv.exit)
    }

    /// The bounds of the event at `position`; `None` for
    /// [`StateInterval::OPEN`] and for any other position past the end of
    /// `events`, which a hand-built timeline could hold.
    fn bounds_at(&self, position: u32) -> Option<TimeBounds> {
        self.events.get(position as usize).map(|e| e.bounds)
    }

    /// All fault injections on the global timeline.
    pub fn injections(&self) -> impl Iterator<Item = (&GlobalEvent, FaultId)> {
        self.events.iter().filter_map(|e| match e.kind {
            GlobalEventKind::Injection { fault } => Some((e, fault)),
            _ => None,
        })
    }

    /// The text of `event` when it is a user message whose span lies in
    /// [`GlobalTimeline::messages`]; `None` for any other event, and for a
    /// span a hand-built timeline got wrong.
    pub fn user_message(&self, event: &GlobalEvent) -> Option<&str> {
        match event.kind {
            GlobalEventKind::UserMessage { start, len } => {
                let start = start as usize;
                self.messages.get(start..start.checked_add(len as usize)?)
            }
            _ => None,
        }
    }

    /// The name of `host` (display/report boundary).
    pub fn host_name(&self, host: HostId) -> &str {
        self.symbols.name(host)
    }

    /// `e` as a derived `Debug` printed it when the event held its message
    /// text.
    fn fmt_event(&self, e: &GlobalEvent, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = fmt::from_fn(|f| match self.user_message(e) {
            Some(text) => f.debug_tuple("UserMessage").field(&text).finish(),
            None => fmt::Debug::fmt(&e.kind, f),
        });
        f.debug_struct("GlobalEvent")
            .field("sm", &e.sm)
            .field("kind", &kind)
            .field("bounds", &e.bounds)
            .field("record_index", &e.record_index)
            .finish()
    }

    /// Bytes of the heap blocks this timeline owns, each at the size
    /// requested from the allocator; `symbols` is shared per study run and
    /// not counted.
    pub(crate) fn heap_bytes(&self) -> usize {
        size_of_val::<[GlobalEvent]>(&self.events)
            + self.messages.len()
            + size_of_val::<[StateInterval]>(&self.intervals)
            + size_of_val::<[AlphaBetaBounds]>(&self.alpha_beta)
    }
}

impl fmt::Debug for GlobalTimeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Events print their message text and intervals their resolved
        // bounds, in the shape a derived `Debug` gives events and intervals
        // that hold them, and the host table prints inside the
        // `SymbolTable { hosts }` wrapper it once had: result digests hash
        // this.
        let events = fmt::from_fn(|f| {
            f.debug_list()
                .entries(
                    self.events
                        .iter()
                        .map(|e| fmt::from_fn(move |f| self.fmt_event(e, f))),
                )
                .finish()
        });
        let resolved = |iv: &StateInterval| {
            let (sm, state, enter, exit) = (iv.sm, iv.state, self.enter_of(iv), self.exit_of(iv));
            fmt::from_fn(move |f| {
                f.debug_struct("StateInterval")
                    .field("sm", &sm)
                    .field("state", &state)
                    .field("enter", &enter)
                    .field("exit", &exit)
                    .finish()
            })
        };
        let intervals = fmt::from_fn(|f| {
            f.debug_list()
                .entries(self.intervals.iter().map(resolved))
                .finish()
        });
        let symbols = fmt::from_fn(|f| {
            f.debug_struct("SymbolTable")
                .field("hosts", &self.symbols)
                .finish()
        });
        f.debug_struct("GlobalTimeline")
            .field("events", &events)
            .field("intervals", &intervals)
            .field("start", &self.start)
            .field("end", &self.end)
            .field("alpha_beta", &self.alpha_beta)
            .field("reference_host", &self.reference_host)
            .field("symbols", &symbols)
            .finish()
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use loki_core::campaign::{HostSync, SyncSample};
    use loki_core::recorder::{LocalTimeline, Recorder};
    use loki_core::spec::{StateMachineSpec, StudyDef};
    use loki_core::time::LocalNanos;

    fn study() -> Study {
        study_of(&["a"])
    }

    /// One INIT → WORK → EXIT machine per name.
    fn study_of(machines: &[&str]) -> Study {
        let def = machines.iter().fold(StudyDef::new("s"), |def, name| {
            def.machine(
                StateMachineSpec::builder(name)
                    .states(&["INIT", "WORK"])
                    .events(&["GO", "DONE"])
                    .state("INIT", &[], &[("GO", "WORK")])
                    .state("WORK", &[], &[("DONE", "EXIT")])
                    .build(),
            )
        });
        Study::compile(&def).unwrap()
    }

    /// Sync samples for an ideal (identical) clock pair: tight bounds.
    fn ideal_sync(host: loki_core::ids::HostId) -> HostSync {
        let mut samples = Vec::new();
        for k in 0..10u64 {
            let t = k * 1_000_000;
            samples.push(SyncSample {
                from_reference: true,
                send: LocalNanos(t),
                recv: LocalNanos(t + 50_000),
            });
            samples.push(SyncSample {
                from_reference: false,
                send: LocalNanos(t + 500_000),
                recv: LocalNanos(t + 550_000),
            });
        }
        HostSync { host, samples }
    }

    fn experiment(study: &Study) -> ExperimentData {
        experiment_on(study, &["h1", "h2"], &[("a", "h2")])
    }

    /// An experiment over `hosts` (the first is the reference, the others
    /// have ideal sync data) in which each `(machine, host)` of `placement`
    /// walks INIT → WORK → EXIT at 10, 20 and 30 ms, the i-th machine 1 ms
    /// after the one before it.
    fn experiment_on(study: &Study, hosts: &[&str], placement: &[(&str, &str)]) -> ExperimentData {
        let symbols = Arc::new(SymbolTable::from_iter(hosts.iter().copied()));
        let hosts: Vec<HostId> = hosts
            .iter()
            .map(|name| symbols.lookup(name).unwrap())
            .collect();
        let go = study.events.lookup("GO").unwrap();
        let done = study.events.lookup("DONE").unwrap();
        let init = study.states.lookup("INIT").unwrap();
        let work = study.states.lookup("WORK").unwrap();
        let exit = StateId::EXIT;
        let timelines = placement
            .iter()
            .zip(0u64..)
            .map(|(&(machine, host), i)| {
                let sm = study.sm_id(machine).unwrap();
                let mut rec = Recorder::new(sm, symbols.lookup(host).unwrap());
                rec.record_state_change(LocalNanos::from_millis(10 + i), go, init);
                rec.record_state_change(LocalNanos::from_millis(20 + i), go, work);
                rec.record_state_change(LocalNanos::from_millis(30 + i), done, exit);
                rec.finish()
            })
            .collect();
        let sync: Vec<HostSync> = hosts[1..].iter().map(|&h| ideal_sync(h)).collect();
        ExperimentData {
            experiment: 0,
            timelines,
            reference_host: hosts[0],
            hosts,
            symbols,
            pre_sync: sync.clone(),
            post_sync: sync,
            end: Default::default(),
            warnings: vec![],
        }
    }

    #[test]
    fn builds_events_and_intervals() {
        let study = study();
        let data = experiment(&study);
        let gt = make_global(&study, &data, &GlobalOptions::default()).unwrap();
        assert_eq!(gt.events.len(), 3);
        // Intervals: INIT [10,20], WORK [20,30], EXIT [30, ..).
        let a = study.sm_id("a").unwrap();
        let ivs: Vec<&StateInterval> = gt.intervals_of(a).collect();
        assert_eq!(ivs.len(), 3);
        assert_eq!(ivs[0].state, study.states.lookup("INIT").unwrap());
        assert!(gt.exit_of(ivs[0]).is_some());
        assert_eq!(ivs[2].state, StateId::EXIT);
        assert_eq!(ivs[2].exit, StateInterval::OPEN);
        assert!(gt.exit_of(ivs[2]).is_none());
        // An interval is left by the event that enters the next one.
        assert_eq!(ivs[0].exit, ivs[1].enter);
        assert_eq!(gt.exit_of(ivs[0]), Some(gt.enter_of(ivs[1])));
        // Projection bounds contain the local times (clocks ideal & equal).
        let enter = gt.enter_of(ivs[0]);
        assert!(enter.lo <= GlobalNanos(10_000_000));
        assert!(enter.hi >= GlobalNanos(10_000_000 - 60_000));
        assert!(gt.start < gt.end);
    }

    #[test]
    fn record_counts_past_the_position_space_are_an_error() {
        let limit = StateInterval::OPEN as usize;
        assert!(check_record_count(limit).is_ok());
        assert!(matches!(
            check_record_count(limit + 1),
            Err(AnalysisError::TooManyRecords { records }) if records == limit + 1
        ));
        let limit = u32::MAX as usize;
        assert!(check_message_bytes(limit).is_ok());
        assert!(matches!(
            check_message_bytes(limit + 1),
            Err(AnalysisError::MessagesTooLong { bytes }) if bytes == limit + 1
        ));
    }

    #[test]
    fn user_messages_share_one_buffer() {
        let study = study_of(&["a", "b"]);
        let mut data = experiment_on(&study, &["h1", "h2"], &[("a", "h2"), ("b", "h1")]);
        let set_message = |timeline: &mut LocalTimeline, record: usize, text: &str| {
            let start = timeline.text.len() as u32;
            timeline.text.push_str(text);
            timeline.records[record].kind = RecordKind::UserMessage {
                start,
                len: text.len() as u32,
            };
        };
        set_message(&mut data.timelines[0], 1, "é \"a\"");
        set_message(&mut data.timelines[1], 0, "");
        set_message(&mut data.timelines[1], 2, "b\\");
        let gt = make_global(&study, &data, &GlobalOptions::default()).unwrap();
        assert_eq!(&*gt.messages, "é \"a\"b\\");
        let texts: Vec<(u32, &str)> = gt
            .events
            .iter()
            .filter_map(|e| Some((e.sm.raw(), gt.user_message(e)?)))
            .collect();
        assert_eq!(texts, [(1, ""), (0, "é \"a\""), (1, "b\\")]);
        // Each machine keeps one interval per state-setting record.
        assert_eq!(gt.intervals.len(), 3);
        // A span outside the buffer, or not on a character boundary, reads
        // as no message.
        let mut bad = gt.clone();
        let mut events = bad.events.into_vec();
        events[0].kind = GlobalEventKind::UserMessage { start: 1, len: 1 };
        events[1].kind = GlobalEventKind::UserMessage {
            start: u32::MAX,
            len: u32::MAX,
        };
        bad.events = events.into();
        assert_eq!(bad.user_message(&bad.events[0]), None);
        assert_eq!(bad.user_message(&bad.events[1]), None);
        assert_eq!(bad.user_message(&bad.events[2]), Some("é \"a\""));
        // A record whose span misses its timeline's text is a typed error.
        data.timelines[1].records[2].kind = RecordKind::UserMessage { start: 9, len: 1 };
        assert_eq!(
            make_global(&study, &data, &GlobalOptions::default()).unwrap_err(),
            AnalysisError::MessageSpan {
                sm: "b".into(),
                record: 2
            }
        );
    }

    /// `GlobalTimeline`'s `Debug` prints what `#[derive(Debug)]` printed
    /// when every interval stored its bounds — the benchmark's result digest
    /// hashes this text.
    #[test]
    fn debug_prints_intervals_with_their_bounds() {
        mod stored {
            // Read only by the derived `Debug`.
            #![allow(dead_code)]
            use super::super::*;
            #[derive(Debug)]
            pub struct StateInterval {
                pub sm: SmId,
                pub state: StateId,
                pub enter: TimeBounds,
                pub exit: Option<TimeBounds>,
            }
            #[derive(Debug)]
            pub struct GlobalTimeline<'a> {
                pub events: &'a [GlobalEvent],
                pub intervals: Vec<StateInterval>,
                pub start: GlobalNanos,
                pub end: GlobalNanos,
                pub alpha_beta: &'a [AlphaBetaBounds],
                pub reference_host: HostId,
                pub symbols: SymbolTable<'a>,
            }
            #[derive(Debug)]
            pub struct SymbolTable<'a> {
                pub hosts: &'a super::super::SymbolTable,
            }
        }
        let (study, shapes) = shapes();
        for data in &shapes {
            let gt = make_global(&study, data, &GlobalOptions::default()).unwrap();
            let derived = stored::GlobalTimeline {
                events: &gt.events,
                intervals: gt
                    .intervals
                    .iter()
                    .map(|iv| stored::StateInterval {
                        sm: iv.sm,
                        state: iv.state,
                        enter: gt.enter_of(iv),
                        exit: gt.exit_of(iv),
                    })
                    .collect(),
                start: gt.start,
                end: gt.end,
                alpha_beta: &gt.alpha_beta,
                reference_host: gt.reference_host,
                symbols: stored::SymbolTable { hosts: &gt.symbols },
            };
            assert_eq!(format!("{gt:?}"), format!("{derived:?}"));
            assert_eq!(format!("{gt:#?}"), format!("{derived:#?}"));
        }
    }

    /// A hand-built timeline holding every event kind, a user message with a
    /// quote and a backslash, an interval entered before the first event
    /// and one held to the end.
    fn golden_timeline() -> GlobalTimeline {
        let at = |ns: i64| TimeBounds {
            lo: GlobalNanos(ns - 1),
            hi: GlobalNanos(ns + 2),
        };
        let event = |sm: u32, kind: GlobalEventKind, ns: i64, record_index: u32| GlobalEvent {
            sm: SmId::from_raw(sm),
            kind,
            bounds: at(ns),
            record_index,
        };
        let events = vec![
            event(
                0,
                GlobalEventKind::StateChange {
                    event: EventId::from_raw(1),
                    from_state: StateId::from_raw(0),
                    new_state: StateId::from_raw(2),
                },
                10,
                0,
            ),
            event(
                1,
                GlobalEventKind::Injection {
                    fault: FaultId::from_raw(3),
                },
                20,
                0,
            ),
            event(0, GlobalEventKind::UserMessage { start: 2, len: 14 }, 30, 1),
            event(
                1,
                GlobalEventKind::Restart {
                    host: HostId::from_raw(1),
                },
                40,
                1,
            ),
        ];
        GlobalTimeline {
            events: events.into(),
            messages: r#"..say "hi" \ bye.."#.into(),
            intervals: vec![
                StateInterval {
                    sm: SmId::from_raw(1),
                    state: StateId::from_raw(4),
                    enter: StateInterval::OPEN,
                    exit: 3,
                },
                StateInterval {
                    sm: SmId::from_raw(0),
                    state: StateId::from_raw(2),
                    enter: 0,
                    exit: StateInterval::OPEN,
                },
            ]
            .into(),
            start: GlobalNanos(9),
            end: GlobalNanos(42),
            alpha_beta: vec![
                AlphaBetaBounds::identity(),
                AlphaBetaBounds {
                    alpha_lo: -1.5,
                    alpha_hi: 2.0,
                    beta_lo: 0.999,
                    beta_hi: 1.001,
                },
            ]
            .into(),
            reference_host: HostId::from_raw(0),
            symbols: Arc::new(SymbolTable::from_iter(["h1", "h2"])),
        }
    }

    /// The exact `Debug` text of [`golden_timeline`]: result digests hash
    /// this rendering, so any drift in it must be deliberate.
    #[test]
    fn debug_text_is_golden() {
        let golden = concat!(
            r#"GlobalTimeline { events: [GlobalEvent { sm: #0, kind: StateChange { event: #1, from_state: #0, new_state: #2 }, bounds: TimeBounds { lo: GlobalNanos(9), hi: GlobalNanos(12) }, record_index: 0 }"#,
            r#", GlobalEvent { sm: #1, kind: Injection { fault: #3 }, bounds: TimeBounds { lo: GlobalNanos(19), hi: GlobalNanos(22) }, record_index: 0 }"#,
            r#", GlobalEvent { sm: #0, kind: UserMessage("say \"hi\" \\ bye"), bounds: TimeBounds { lo: GlobalNanos(29), hi: GlobalNanos(32) }, record_index: 1 }"#,
            r#", GlobalEvent { sm: #1, kind: Restart { host: #1 }, bounds: TimeBounds { lo: GlobalNanos(39), hi: GlobalNanos(42) }, record_index: 1 }"#,
            r#"], intervals: [StateInterval { sm: #1, state: #4, enter: TimeBounds { lo: GlobalNanos(9), hi: GlobalNanos(9) }, exit: Some(TimeBounds { lo: GlobalNanos(39), hi: GlobalNanos(42) }) }"#,
            r#", StateInterval { sm: #0, state: #2, enter: TimeBounds { lo: GlobalNanos(9), hi: GlobalNanos(12) }, exit: None }"#,
            r#"], start: GlobalNanos(9), end: GlobalNanos(42), alpha_beta: [AlphaBetaBounds { alpha_lo: 0.0, alpha_hi: 0.0, beta_lo: 1.0, beta_hi: 1.0 }, AlphaBetaBounds { alpha_lo: -1.5, alpha_hi: 2.0, beta_lo: 0.999, beta_hi: 1.001 }], reference_host: #0"#,
            r#", symbols: SymbolTable { hosts: NameTable { names: ["h1", "h2"], index: {"h2": 1, "h1": 0}, _tag: PhantomData<fn() -> loki_core::ids::HostTag> } } }"#,
        );
        assert_eq!(format!("{:?}", golden_timeline()), golden);
    }

    #[test]
    fn from_state_tracks_previous_state() {
        let study = study();
        let data = experiment(&study);
        let gt = make_global(&study, &data, &GlobalOptions::default()).unwrap();
        let kinds: Vec<(&str, &str)> = gt
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                GlobalEventKind::StateChange {
                    from_state,
                    new_state,
                    ..
                } => Some((
                    study.states.name(*from_state),
                    study.states.name(*new_state),
                )),
                _ => None,
            })
            .collect();
        assert_eq!(
            kinds,
            vec![("BEGIN", "INIT"), ("INIT", "WORK"), ("WORK", "EXIT")]
        );
    }

    #[test]
    fn missing_sync_data_is_an_error() {
        let study = study();
        let mut data = experiment(&study);
        data.pre_sync.clear();
        data.post_sync.clear();
        let err = make_global(&study, &data, &GlobalOptions::default());
        assert!(matches!(err, Err(AnalysisError::Sync { .. })));
    }

    #[test]
    fn out_of_table_host_is_a_clean_unknown_host_error() {
        // A timeline whose stint carries a HostId the symbol table never
        // interned (e.g. loaded against a different table) must surface as
        // `UnknownHost`, not an index panic.
        let study = study();
        let mut data = experiment(&study);
        data.timelines[0].stints[0].host = loki_core::ids::HostId::from_raw(99);
        let err = make_global(&study, &data, &GlobalOptions::default());
        match err {
            Err(AnalysisError::UnknownHost { host, .. }) => {
                assert_eq!(host, "<host #99>");
            }
            other => panic!("expected UnknownHost, got {other:?}"),
        }
        // An in-table host with no sync data errs with its real name.
        let mut data = experiment(&study);
        let h2 = data.symbols.lookup("h2").unwrap();
        data.hosts.retain(|&h| h != h2); // never calibrated
        let err = make_global(&study, &data, &GlobalOptions::default());
        assert!(
            matches!(err, Err(AnalysisError::UnknownHost { ref host, .. }) if host == "h2"),
            "{err:?}"
        );
    }

    #[test]
    fn reference_host_projects_exactly() {
        let study = study();
        let mut data = experiment(&study);
        // Move the machine onto the reference host: exact projection.
        data.timelines[0].stints[0].host = data.reference_host;
        let gt = make_global(&study, &data, &GlobalOptions::default()).unwrap();
        let e = &gt.events[0];
        assert_eq!(e.bounds, TimeBounds::point(GlobalNanos(10_000_000)));
    }

    /// A record at or past `MAX_READING_NS` is a typed error naming its
    /// host, on the reference's identity projection as on any other.
    #[test]
    fn record_reading_past_the_range_is_a_typed_error() {
        use loki_clock::sync::{SyncError, MAX_READING_NS};
        let (study, opts) = (study(), GlobalOptions::default());
        let mut data = experiment(&study);
        data.timelines[0].records[2].time = LocalNanos(MAX_READING_NS);
        let source = SyncError::OutOfRange {
            reading_ns: MAX_READING_NS,
        };
        for host in ["h2", "h1"] {
            data.timelines[0].stints[0].host = data.symbols.lookup(host).unwrap();
            let (host, source) = (host.into(), source.clone());
            let err = Err(AnalysisError::Sync { host, source });
            assert_eq!(make_global(&study, &data, &opts), err);
        }
        data.timelines[0].records[2].time = LocalNanos(MAX_READING_NS - 1);
        assert!(make_global(&study, &data, &opts).is_ok());
    }

    /// Three shapes of experiment: one machine, four interleaving
    /// machines, and the four with a clock stepping backwards across a host
    /// change (a restart that sorts ahead of its own timeline's past).
    fn shapes() -> (Study, Vec<ExperimentData>) {
        let study = study_of(&["a", "b", "c", "d"]);
        let hosts = ["h1", "h2", "h3", "h4"];
        let spread = [("a", "h2"), ("b", "h3"), ("c", "h4"), ("d", "h1")];
        let single = experiment_on(&study, &["h1", "h2"], &[("a", "h2")]);
        let interleaved = experiment_on(&study, &hosts, &spread);
        let mut backwards = experiment_on(&study, &hosts, &spread);
        let h4 = backwards.symbols.lookup("h4").unwrap();
        backwards.timelines[1].resume_on(LocalNanos::from_millis(1), h4);
        (study, vec![single, interleaved, backwards])
    }
}
