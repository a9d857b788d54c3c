//! The global timeline an experiment's analysis produces: its events and
//! state intervals, how they are read, and how they print.
//!
//! Each time bound is stored once, on its event: a [`StateInterval`] names
//! the events that opened and closed it, and
//! [`GlobalTimeline::enter_of`]/[`GlobalTimeline::exit_of`] read the bounds
//! off them. A retained timeline is mostly events and intervals, so this
//! layout is what a campaign that keeps its results pays per experiment.

use loki_clock::sync::AlphaBetaBounds;
use loki_core::ids::{EventId, FaultId, HostId, SmId, StateId, SymbolTable};
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
