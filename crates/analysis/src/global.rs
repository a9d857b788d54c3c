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
use crate::merge::{merge_sorted_runs, sort_permutation, MergeScratch};
use loki_clock::sync::{estimate_alpha_beta, AlphaBetaBounds, SyncOptions};
use loki_core::campaign::ExperimentData;
use loki_core::ids::{EventId, FaultId, HostId, SmId, StateId, SymbolTable};
use loki_core::recorder::RecordKind;
use loki_core::study::Study;
use loki_core::time::{GlobalNanos, TimeBounds};
use std::cell::RefCell;
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
    /// A user message.
    UserMessage(String),
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
/// Hosts appear as [`HostId`]s throughout; `alpha_beta` is a dense vector
/// indexed by `HostId` (hosts the experiment never calibrated hold the
/// identity projection — no record referenced them, or `make_global` would
/// have failed). The study-run [`SymbolTable`] rides along behind an `Arc`
/// so reports can resolve names without the (dropped) raw data.
///
/// `Debug` prints every interval with its bounds resolved, exactly as when
/// intervals stored them.
#[derive(Clone, PartialEq)]
pub struct GlobalTimeline {
    /// All events, sorted by the midpoint of their bounds.
    pub events: Vec<GlobalEvent>,
    /// State-occupancy intervals, grouped by machine in record order. Each
    /// points at its entering and leaving events in `events`; resolve its
    /// bounds with [`GlobalTimeline::enter_of`] and
    /// [`GlobalTimeline::exit_of`].
    pub intervals: Vec<StateInterval>,
    /// Experiment window start (minimum lower bound over events).
    pub start: GlobalNanos,
    /// Experiment window end (maximum upper bound over events).
    pub end: GlobalNanos,
    /// Per-host `(α, β)` bounds used for the projection, indexed by
    /// [`HostId`].
    pub alpha_beta: Vec<AlphaBetaBounds>,
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

    /// The name of `host` (display/report boundary).
    pub fn host_name(&self, host: HostId) -> &str {
        self.symbols.host_name(host)
    }

    /// Approximate heap + inline size of this timeline in bytes — the bulk
    /// of a compact `AnalyzedExperiment`'s cross-channel payload. Used by
    /// the campaign-pipeline benchmark to track how much each experiment
    /// ships to the sink.
    pub fn approx_size_bytes(&self) -> usize {
        use std::mem::size_of;
        let strings: usize = self
            .events
            .iter()
            .map(|e| match &e.kind {
                GlobalEventKind::UserMessage(m) => m.len(),
                _ => 0,
            })
            .sum();
        size_of::<Self>()
            + self.events.len() * size_of::<GlobalEvent>()
            + self.intervals.len() * size_of::<StateInterval>()
            + self.alpha_beta.len() * size_of::<AlphaBetaBounds>()
            + strings
        // `symbols` is shared per study run, not per experiment — the Arc
        // pointer is already counted in `size_of::<Self>()`.
    }
}

impl fmt::Debug for GlobalTimeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Intervals print their resolved bounds, in the shape a derived
        // `Debug` gives intervals that hold them: result digests hash this.
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
        f.debug_struct("GlobalTimeline")
            .field("events", &self.events)
            .field("intervals", &intervals)
            .field("start", &self.start)
            .field("end", &self.end)
            .field("alpha_beta", &self.alpha_beta)
            .field("reference_host", &self.reference_host)
            .field("symbols", &self.symbols)
            .finish()
    }
}

/// Options for global timeline construction.
#[derive(Clone, Debug, Default)]
pub struct GlobalOptions {
    /// Options for the `(α, β)` bound estimation.
    pub sync: SyncOptions,
    /// Optional restriction of the analysis window, `(lo, hi)` in global
    /// nanoseconds. When set, the resulting [`GlobalTimeline`]'s
    /// `start`/`end` are clamped to this window (events and intervals are
    /// kept — only the measure-evaluation window narrows). Bounds must be
    /// finite with `lo <= hi`; anything else is rejected by
    /// [`GlobalOptions::validate`] with [`AnalysisError::InvalidWindow`].
    pub window: Option<(f64, f64)>,
}

impl GlobalOptions {
    /// Checks the options for degenerate values.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidWindow`] when the analysis window
    /// has non-finite bounds or `lo > hi`. A silently-accepted inverted or
    /// NaN window would make every measure evaluate over an empty (or
    /// nonsensical) range and report zeros that look like real results.
    pub fn validate(&self) -> Result<(), AnalysisError> {
        if let Some((lo, hi)) = self.window {
            if !lo.is_finite() || !hi.is_finite() || lo > hi {
                return Err(AnalysisError::InvalidWindow { lo, hi });
            }
        }
        Ok(())
    }
}

thread_local! {
    /// The calling thread's scratch for [`make_global`]: the sync-sample
    /// gather buffer and the k-way merge's run table, permutation and heap.
    /// A thread analyzes one experiment at a time, so the borrow lasts one
    /// call; every call clears it before use, so what a previous call
    /// (finished, failed or unwound) left behind is never read.
    static SCRATCH: RefCell<MergeScratch> = RefCell::default();
}

/// Builds the global timeline of one experiment.
///
/// The result is plain owned data. The only state kept between calls is a
/// thread-local [`MergeScratch`] whose capacity is reused; it never shows
/// in the output.
///
/// # Errors
///
/// Returns [`AnalysisError::Sync`] when a host's clock cannot be calibrated,
/// [`AnalysisError::UnknownHost`] when a timeline references a host with
/// no sync data, [`AnalysisError::InvalidWindow`] when the options carry
/// a degenerate analysis window, and [`AnalysisError::TooManyRecords`] when
/// the experiment has more records than a `u32` event position can name.
pub fn make_global(
    study: &Study,
    data: &ExperimentData,
    opts: &GlobalOptions,
) -> Result<GlobalTimeline, AnalysisError> {
    opts.validate()?;
    SCRATCH.with(|scratch| build_global(study, data, opts, &mut scratch.borrow_mut()))
}

/// Calibrates, projects and orders one experiment, working in `scratch`
/// (cleared first). Assumes the options are already validated.
fn build_global(
    study: &Study,
    data: &ExperimentData,
    opts: &GlobalOptions,
    scratch: &mut MergeScratch,
) -> Result<GlobalTimeline, AnalysisError> {
    scratch.clear();
    // Event positions and record indexes are `u32`, and `StateInterval::OPEN`
    // is no position: at most `OPEN` records keeps every position below it
    // and every run bound of the merge's table in range.
    let total_records: usize = data.timelines.iter().map(|t| t.records.len()).sum();
    check_record_count(total_records)?;
    // --- alphabeta: per-host clock calibration -----------------------------
    // Dense, indexed by `HostId`: the projection loop below resolves a
    // record's bounds with one array index instead of hashing a host-name
    // string per record. Touching a host outside `data.hosts` (plus the
    // reference) from a timeline is the `UnknownHost` error. Ids outside
    // the symbol table (malformed or foreign-table data) resolve to a
    // placeholder label in error paths rather than panicking.
    let host_label = |host: HostId| -> String {
        data.symbols
            .try_host_name(host)
            .map(str::to_owned)
            .unwrap_or_else(|| format!("<host #{}>", host.raw()))
    };
    let num_hosts = data
        .symbols
        .num_hosts()
        .max(data.reference_host.index() + 1)
        .max(data.hosts.iter().map(|h| h.index() + 1).max().unwrap_or(0));
    let mut alpha_beta = vec![AlphaBetaBounds::identity(); num_hosts];
    let samples = &mut scratch.samples;
    for &host in &data.hosts {
        if host == data.reference_host {
            continue;
        }
        data.sync_samples_into(host, samples);
        let bounds =
            estimate_alpha_beta(samples, &opts.sync).map_err(|source| AnalysisError::Sync {
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
    // Exact capacity up front: one event per record, at most one interval
    // per record — the loop below never reallocates.
    let mut events = Vec::with_capacity(total_records);
    let mut intervals = Vec::with_capacity(total_records + data.timelines.len());
    // Each timeline appends one contiguous run of events. While every run
    // stays mid-monotonic (the affine projection is monotonic in local
    // time, so only a clock stepping backwards across a host change breaks
    // this) the global ordering below is a k-way merge instead of a sort.
    let mut runs_sorted = true;

    for timeline in &data.timelines {
        let mut current_state = study.reserved.begin;
        // The open interval's state and entering event, by its position
        // before ordering (remapped below).
        let mut open: Option<(StateId, u32)> = None;
        let mut checked_host: Option<HostId> = None;
        let run_start = events.len();
        let mut prev_mid = f64::NEG_INFINITY;

        for (idx, host, record) in timeline.records_with_hosts() {
            if checked_host != Some(host) {
                if host.index() >= alpha_beta.len() || !is_calibrated(host) {
                    return Err(AnalysisError::UnknownHost {
                        host: host_label(host),
                        sm: study.sms.name(timeline.sm).to_owned(),
                    });
                }
                checked_host = Some(host);
            }
            let bounds = alpha_beta[host.index()].project(record.time);
            if runs_sorted {
                let mid = bounds.mid().as_f64();
                if prev_mid.total_cmp(&mid) == std::cmp::Ordering::Greater {
                    runs_sorted = false;
                }
                prev_mid = mid;
            }
            // Below `OPEN`: `check_record_count` bounds both.
            let position = events.len() as u32;
            let kind = match &record.kind {
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
                    open = Some((*new_state, position));
                    current_state = *new_state;
                    GlobalEventKind::StateChange {
                        event: *event,
                        from_state,
                        new_state: *new_state,
                    }
                }
                RecordKind::FaultInjection { fault } => {
                    GlobalEventKind::Injection { fault: *fault }
                }
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
                    open = Some((study.reserved.begin, position));
                    current_state = study.reserved.begin;
                    GlobalEventKind::Restart { host: *host }
                }
                RecordKind::UserMessage(m) => GlobalEventKind::UserMessage(m.clone()),
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
        if runs_sorted && events.len() > run_start {
            scratch.runs.push((run_start as u32, events.len() as u32));
        }
    }

    // Order by midpoint. The merge reproduces the stable sort's exact tie
    // order — equal mids resolve by (timeline, record position), which is
    // insertion order — so both arms are byte-identical; the merge is just
    // O(n log k). Either arm yields one destination permutation, which
    // first carries the intervals' event positions and then moves the
    // events; both are allocation-free once the scratch has warmed up.
    let mid = |e: &GlobalEvent| e.bounds.mid().as_f64();
    if runs_sorted {
        merge_sorted_runs(&events, scratch, mid);
    } else {
        sort_permutation(&events, scratch, mid);
    }
    let perm = scratch.permutation();
    if !perm.is_empty() {
        let moved = |position: u32| match position {
            StateInterval::OPEN => StateInterval::OPEN,
            _ => perm[position as usize],
        };
        for iv in &mut intervals {
            iv.enter = moved(iv.enter);
            iv.exit = moved(iv.exit);
        }
    }
    scratch.permute(&mut events);
    let start = events
        .iter()
        .map(|e| e.bounds.lo)
        .fold(GlobalNanos(f64::INFINITY), GlobalNanos::min);
    let end = events
        .iter()
        .map(|e| e.bounds.hi)
        .fold(GlobalNanos(f64::NEG_INFINITY), GlobalNanos::max);
    let (start, end) = if events.is_empty() {
        (GlobalNanos::ZERO, GlobalNanos::ZERO)
    } else {
        (start, end)
    };
    let (start, end) = match opts.window {
        Some((lo, hi)) => {
            let start = GlobalNanos(start.as_f64().max(lo));
            let end = GlobalNanos(end.as_f64().min(hi));
            // A window disjoint from the experiment collapses to an empty
            // window at its nearer edge.
            if start.as_f64() > end.as_f64() {
                (start, start)
            } else {
                (start, end)
            }
        }
        None => (start, end),
    };

    // Uncalibrated hosts were never referenced (the loop above would have
    // errored); their identity fillers keep `alpha_beta` dense.
    Ok(GlobalTimeline {
        events,
        intervals,
        start,
        end,
        alpha_beta,
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

#[cfg(test)]
mod tests {
    use super::*;
    use loki_core::campaign::{HostSync, SyncSample};
    use loki_core::recorder::Recorder;
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
        let symbols = Arc::new(SymbolTable::for_hosts(hosts.iter().copied()));
        let hosts: Vec<HostId> = hosts
            .iter()
            .map(|name| symbols.lookup_host(name).unwrap())
            .collect();
        let go = study.events.lookup("GO").unwrap();
        let done = study.events.lookup("DONE").unwrap();
        let init = study.states.lookup("INIT").unwrap();
        let work = study.states.lookup("WORK").unwrap();
        let exit = study.reserved.exit;
        let timelines = placement
            .iter()
            .zip(0u64..)
            .map(|(&(machine, host), i)| {
                let sm = study.sm_id(machine).unwrap();
                let mut rec = Recorder::new(sm, symbols.lookup_host(host).unwrap());
                rec.record_state_change(LocalNanos::from_millis(10 + i), go, init);
                rec.record_state_change(LocalNanos::from_millis(20 + i), go, work);
                rec.record_state_change(LocalNanos::from_millis(30 + i), done, exit);
                rec.finish()
            })
            .collect();
        let sync: Vec<HostSync> = hosts[1..].iter().map(|&h| ideal_sync(h)).collect();
        ExperimentData {
            study: "s".into(),
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
        assert_eq!(ivs[2].state, study.reserved.exit);
        assert_eq!(ivs[2].exit, StateInterval::OPEN);
        assert!(gt.exit_of(ivs[2]).is_none());
        // An interval is left by the event that enters the next one.
        assert_eq!(ivs[0].exit, ivs[1].enter);
        assert_eq!(gt.exit_of(ivs[0]), Some(gt.enter_of(ivs[1])));
        // Projection bounds contain the local times (clocks ideal & equal).
        let enter = gt.enter_of(ivs[0]);
        assert!(enter.lo.as_f64() <= 10_000_000.0);
        assert!(enter.hi.as_f64() >= 10_000_000.0 - 60_000.0);
        assert!(gt.start.as_f64() < gt.end.as_f64());
    }

    #[test]
    fn record_counts_past_the_position_space_are_an_error() {
        let limit = StateInterval::OPEN as usize;
        assert!(check_record_count(limit).is_ok());
        assert!(matches!(
            check_record_count(limit + 1),
            Err(AnalysisError::TooManyRecords { records }) if records == limit + 1
        ));
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
                pub symbols: &'a Arc<SymbolTable>,
            }
        }
        let (study, shapes) = scratch_shapes();
        for data in &shapes[..3] {
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
                symbols: &gt.symbols,
            };
            assert_eq!(format!("{gt:?}"), format!("{derived:?}"));
            assert_eq!(format!("{gt:#?}"), format!("{derived:#?}"));
        }
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
    fn degenerate_analysis_windows_are_rejected() {
        let study = study();
        let data = experiment(&study);
        for window in [
            (2.0, 1.0),                     // inverted
            (f64::NAN, 1.0),                // NaN edge
            (0.0, f64::NAN),                // NaN edge
            (f64::NEG_INFINITY, 0.0),       // non-finite edge
            (0.0, f64::INFINITY),           // non-finite edge
            (f64::INFINITY, f64::INFINITY), // both non-finite
        ] {
            let opts = GlobalOptions {
                window: Some(window),
                ..Default::default()
            };
            assert!(
                matches!(opts.validate(), Err(AnalysisError::InvalidWindow { .. })),
                "window {window:?} must be rejected"
            );
            assert!(
                matches!(
                    make_global(&study, &data, &opts),
                    Err(AnalysisError::InvalidWindow { .. })
                ),
                "make_global must reject window {window:?}"
            );
        }
        // An empty-but-valid window (lo == hi) is accepted.
        let opts = GlobalOptions {
            window: Some((5.0, 5.0)),
            ..Default::default()
        };
        assert!(opts.validate().is_ok());
    }

    #[test]
    fn analysis_window_clamps_the_experiment_window() {
        let study = study();
        let data = experiment(&study);
        let unrestricted = make_global(&study, &data, &GlobalOptions::default()).unwrap();
        // Restrict to a window strictly inside the experiment.
        let (lo, hi) = (
            unrestricted.start.as_f64() + 1_000_000.0,
            unrestricted.end.as_f64() - 1_000_000.0,
        );
        let opts = GlobalOptions {
            window: Some((lo, hi)),
            ..Default::default()
        };
        let gt = make_global(&study, &data, &opts).unwrap();
        assert_eq!(gt.start.as_f64(), lo);
        assert_eq!(gt.end.as_f64(), hi);
        // Events and intervals are untouched.
        assert_eq!(gt.events, unrestricted.events);
        assert_eq!(gt.intervals, unrestricted.intervals);
        // A disjoint window collapses to empty at its nearer edge.
        let far = unrestricted.end.as_f64() + 1e9;
        let opts = GlobalOptions {
            window: Some((far, far + 1.0)),
            ..Default::default()
        };
        let gt = make_global(&study, &data, &opts).unwrap();
        assert_eq!(gt.start, gt.end);
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
        let h2 = data.symbols.lookup_host("h2").unwrap();
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
        assert_eq!(e.bounds.lo.as_f64(), 10_000_000.0);
        assert_eq!(e.bounds.hi.as_f64(), 10_000_000.0);
    }

    /// Four shapes that leave the thread-local scratch in different states:
    /// a single run (the merge returns at once), four interleaving runs,
    /// a clock stepping backwards across a host change (sort fallback, run
    /// table abandoned half-built), and an `UnknownHost` on the third of
    /// four timelines (two runs already tabled).
    fn scratch_shapes() -> (Study, Vec<ExperimentData>) {
        let study = study_of(&["a", "b", "c", "d"]);
        let hosts = ["h1", "h2", "h3", "h4"];
        let spread = [("a", "h2"), ("b", "h3"), ("c", "h4"), ("d", "h1")];
        let single = experiment_on(&study, &["h1", "h2"], &[("a", "h2")]);
        let merged = experiment_on(&study, &hosts, &spread);
        let mut backwards = experiment_on(&study, &hosts, &spread);
        let h4 = backwards.symbols.lookup_host("h4").unwrap();
        backwards.timelines[1].resume_on(LocalNanos::from_millis(1), h4);
        let mut unknown = experiment_on(&study, &hosts, &spread);
        unknown.hosts.retain(|&h| h != h4);
        (study, vec![single, merged, backwards, unknown])
    }

    /// Every interval with its bounds resolved, and checked to point at
    /// state-setting events of its own machine.
    fn resolved_intervals(
        study: &Study,
        gt: &GlobalTimeline,
    ) -> Vec<(SmId, StateId, TimeBounds, Option<TimeBounds>)> {
        let sets = |position: u32, sm: SmId| match &gt.events[position as usize] {
            e if e.sm != sm => None,
            GlobalEvent {
                kind: GlobalEventKind::StateChange { new_state, .. },
                ..
            } => Some(*new_state),
            GlobalEvent {
                kind: GlobalEventKind::Restart { .. },
                ..
            } => Some(study.reserved.begin),
            _ => None,
        };
        gt.intervals
            .iter()
            .map(|iv| {
                assert_eq!(sets(iv.enter, iv.sm), Some(iv.state), "{iv:?}");
                if iv.exit != StateInterval::OPEN {
                    assert!(sets(iv.exit, iv.sm).is_some(), "{iv:?}");
                }
                (iv.sm, iv.state, gt.enter_of(iv), gt.exit_of(iv))
            })
            .collect()
    }

    #[test]
    fn thread_local_scratch_is_unobservable() {
        let (study, shapes) = scratch_shapes();
        let opts = GlobalOptions::default();
        let on_fresh_thread = |data: &ExperimentData| {
            std::thread::scope(|scope| {
                scope
                    .spawn(|| make_global(&study, data, &opts))
                    .join()
                    .unwrap()
            })
        };
        let fresh: Vec<_> = shapes.iter().map(on_fresh_thread).collect();
        assert_eq!(fresh[0].as_ref().unwrap().events.len(), 3);
        assert_eq!(fresh[1].as_ref().unwrap().events.len(), 12);
        let sorted = fresh[2].as_ref().unwrap();
        assert!(sorted
            .events
            .windows(2)
            .all(|w| w[0].bounds.mid() <= w[1].bounds.mid()));
        assert_eq!(
            sorted.events[0].record_index, 3,
            "the restart stamped 1 ms sorts ahead of its own timeline's past"
        );
        assert!(matches!(fresh[3], Err(AnalysisError::UnknownHost { .. })));

        let resolved = |gt: &Result<GlobalTimeline, AnalysisError>| {
            gt.as_ref().map(|gt| resolved_intervals(&study, gt)).ok()
        };
        let fresh_intervals: Vec<_> = fresh.iter().map(resolved).collect();
        // The restart, last of its timeline's records, sorts first: the
        // BEGIN interval it opens must follow it to position 0.
        let reopened = sorted
            .intervals
            .iter()
            .find(|iv| iv.state == study.reserved.begin);
        assert_eq!(
            reopened.map(|iv| (iv.enter, iv.exit)),
            Some((0, StateInterval::OPEN))
        );

        // On this one thread: every shape after every other, itself included.
        for first in 0..shapes.len() {
            for second in 0..shapes.len() {
                let again = make_global(&study, &shapes[first], &opts);
                assert_eq!(again, fresh[first], "shape {first}");
                assert_eq!(resolved(&again), fresh_intervals[first], "shape {first}");
                let again = make_global(&study, &shapes[second], &opts);
                assert_eq!(again, fresh[second], "shape {second} after shape {first}");
                assert_eq!(
                    resolved(&again),
                    fresh_intervals[second],
                    "shape {second} after shape {first}"
                );
            }
        }
    }

    #[test]
    fn a_panic_while_the_scratch_is_borrowed_leaves_the_thread_usable() {
        // The pipeline contains a panicking analysis and carries on with
        // the same worker thread: the unwind must release the borrow, and
        // what it left in the scratch must not reach the next result.
        let (study, shapes) = scratch_shapes();
        let opts = GlobalOptions::default();
        let before = make_global(&study, &shapes[1], &opts);
        let unwound = std::panic::catch_unwind(|| {
            SCRATCH.with(|scratch| {
                let mut scratch = scratch.borrow_mut();
                scratch.runs.extend([(0, 7), (7, 9)]);
                scratch
                    .samples
                    .extend(ideal_sync(HostId::from_raw(1)).samples);
                panic!("analysis panicked mid-fill");
            })
        });
        assert!(unwound.is_err());
        assert_eq!(make_global(&study, &shapes[1], &opts), before);
    }
}
