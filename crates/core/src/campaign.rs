//! Experiment-level data containers and clock-sync sample records.
//!
//! Each *experiment* is one run of the distributed application plus the
//! fault injections of its study (§2.2.3). The runtime produces one
//! [`ExperimentData`] per experiment: the local timelines of every state
//! machine plus the synchronization samples gathered in the mini-phases
//! before and after the run (§2.3). The analysis phase consumes these.

use crate::ids::{FaultId, HostId, SmId, SymbolTable};
use crate::recorder::LocalTimeline;
use crate::study::Study;
use crate::time::LocalNanos;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One synchronization message exchanged between a host and the reference
/// host during a sync mini-phase.
///
/// Both timestamps are *local clock readings*: `send` on the sending
/// machine's clock and `recv` on the receiving machine's clock. The
/// off-line synchronization (in `loki-clock`) turns a set of these into
/// bounds on the clock offset α and drift β.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncSample {
    /// `true` when the reference host sent and the calibrated host
    /// received; `false` for the opposite direction.
    pub from_reference: bool,
    /// Sender's local clock at transmission.
    pub send: LocalNanos,
    /// Receiver's local clock at reception.
    pub recv: LocalNanos,
}

/// All sync samples between one host and the reference host.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostSync {
    /// The calibrated (non-reference) host.
    pub host: HostId,
    /// The samples, in exchange order.
    pub samples: Vec<SyncSample>,
}

/// Why an experiment *failed* — a containment outcome of the injector
/// itself, distinct from the study outcomes ([`ExperimentEnd::Completed`]
/// / [`ExperimentEnd::TimedOut`] / [`ExperimentEnd::Aborted`]) that the
/// analysis phase reasons about.
///
/// A failed experiment never produces a usable global timeline; the
/// campaign pipeline records the failure, quarantines any pooled state the
/// experiment touched, and moves on. The variants are deliberately
/// *shapes*, not messages: the detail (a panic note, where a budget
/// tripped) rides as a typed [`Warning`] in [`ExperimentData::warnings`],
/// so two experiments failing the same way compare equal.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ExperimentFailure {
    /// The application panicked inside a callback. The node was crashed in
    /// place and the experiment torn down through the normal daemon
    /// machinery.
    AppPanic,
    /// The harness itself misbehaved (a panic while driving the world, or
    /// an internal invariant violation). The world is unconditionally
    /// quarantined.
    Harness,
    /// The per-experiment virtual-time budget
    /// (`SimHarnessConfig::max_virtual_time`) was exhausted.
    BudgetVirtualTime,
    /// The per-experiment event-count budget
    /// (`SimHarnessConfig::max_events`) was exhausted.
    BudgetEvents,
}

impl std::fmt::Display for ExperimentFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExperimentFailure::AppPanic => "application panic",
            ExperimentFailure::Harness => "harness error",
            ExperimentFailure::BudgetVirtualTime => "virtual-time budget exceeded",
            ExperimentFailure::BudgetEvents => "event-count budget exceeded",
        })
    }
}

/// Why an experiment ended.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExperimentEnd {
    /// Every node exited or crashed: normal completion (§3.6.1).
    #[default]
    Completed,
    /// The central daemon's timeout elapsed; the experiment was aborted and
    /// all state machines were killed (§3.5.1).
    TimedOut,
    /// A runtime abnormality (e.g. a local daemon crash) forced an abort.
    Aborted,
    /// The injector contained a per-experiment failure (panic, budget
    /// blow-up, harness error) instead of letting it take down the
    /// campaign. Carries the failure shape; the detail rides as a typed
    /// [`Warning`] in [`ExperimentData::warnings`].
    Failed(ExperimentFailure),
}

impl ExperimentEnd {
    /// The contained failure, when this end is [`ExperimentEnd::Failed`].
    pub fn failure(&self) -> Option<ExperimentFailure> {
        match self {
            ExperimentEnd::Failed(f) => Some(*f),
            _ => None,
        }
    }
}

/// Something the runtime discarded, rejected or contained during one
/// experiment — a notification to a machine that is not executing
/// (§3.6.1), say. Warnings are data: they carry study ids where the
/// runtime has them and text only where it arrives as text (a panic
/// payload, a rejection reason), and [`Warning::display`] resolves the ids
/// through the study at the display boundary, as hosts resolve through the
/// [`SymbolTable`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Warning {
    /// A state notification from `from` to `to` was discarded because `to`
    /// was not executing (§3.6.1).
    DroppedNotification {
        /// The notifying machine.
        from: SmId,
        /// The machine that was not executing.
        to: SmId,
    },
    /// The application's probe table does not map `fault`: a likely
    /// misspelling in the study's fault specs.
    UnmappedFault {
        /// The study fault the table lacks.
        fault: FaultId,
    },
    /// The backend rejected a network fault action's parameters.
    NetFaultRejected {
        /// Why, as the fault plane put it.
        reason: String,
    },
    /// Machine `sm`'s application panicked in a callback
    /// ([`ExperimentFailure::AppPanic`]).
    AppPanic {
        /// The panicking machine.
        sm: SmId,
        /// The panic payload.
        note: String,
    },
    /// A containment budget ended the experiment.
    BudgetTrip {
        /// Which budget.
        failure: ExperimentFailure,
        /// Simulation events processed when it tripped.
        events: u64,
        /// Virtual time when it tripped, in ns.
        at_ns: u64,
    },
    /// The harness itself unwound ([`ExperimentFailure::Harness`]).
    HarnessPanic {
        /// The panic payload.
        note: String,
    },
    /// A runtime actor received a message its protocol never sends it.
    UnexpectedMessage {
        /// Who received it.
        receiver: Receiver,
        /// The message's `Debug` rendering.
        message: String,
    },
}

/// The runtime actor a [`Warning::UnexpectedMessage`] arrived at.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Receiver {
    /// A local daemon.
    LocalDaemon,
    /// The central daemon.
    CentralDaemon,
    /// A node.
    Node,
}

impl Warning {
    /// Renders the warning, resolving machine and fault ids through
    /// `study`.
    ///
    /// # Panics
    ///
    /// Panics (when formatted) if an id was not produced by `study`.
    pub fn display<'a>(&'a self, study: &'a Study) -> impl fmt::Display + 'a {
        fmt::from_fn(move |f| match self {
            Warning::DroppedNotification { from, to } => write!(
                f,
                "notification from {} to non-executing machine {} discarded",
                study.sms.name(*from),
                study.sms.name(*to)
            ),
            Warning::UnmappedFault { fault } => write!(
                f,
                "fault `{}` is not mapped by the application's probe table",
                study.fault_names.name(*fault)
            ),
            Warning::NetFaultRejected { reason } => {
                write!(f, "network fault action rejected: {reason}")
            }
            Warning::AppPanic { sm, note } => write!(
                f,
                "application panic in machine {}: {note}",
                study.sms.name(*sm)
            ),
            Warning::BudgetTrip {
                failure,
                events,
                at_ns,
            } => write!(
                f,
                "{failure} after {events} events at virtual time {at_ns} ns"
            ),
            Warning::HarnessPanic { note } => write!(f, "harness error: {note}"),
            Warning::UnexpectedMessage { receiver, message } => match receiver {
                Receiver::LocalDaemon => write!(f, "local daemon received unexpected {message}"),
                Receiver::CentralDaemon => {
                    write!(f, "central daemon received unexpected {message}")
                }
                Receiver::Node => write!(f, "node received unexpected message {message}"),
            },
        })
    }
}

/// The raw output of one experiment run.
///
/// Hosts are interned [`HostId`]s; the study-wide [`SymbolTable`] that
/// resolves them rides along behind an `Arc` (one shared table per study
/// run, not one per experiment), so cloning an `ExperimentData` clones no
/// host strings and the analysis phase indexes hosts instead of hashing
/// names.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentData {
    /// Experiment index within the study.
    pub experiment: u32,
    /// One local timeline per state machine that ever ran.
    pub timelines: Vec<LocalTimeline>,
    /// All hosts that participated.
    pub hosts: Vec<HostId>,
    /// The reference host for the global timeline (the fastest machine,
    /// §5.7).
    pub reference_host: HostId,
    /// The study-run symbol table resolving every [`HostId`] above.
    pub symbols: Arc<SymbolTable>,
    /// Sync samples from the mini-phase before the run.
    pub pre_sync: Vec<HostSync>,
    /// Sync samples from the mini-phase after the run.
    pub post_sync: Vec<HostSync>,
    /// How the experiment ended.
    pub end: ExperimentEnd,
    /// Runtime warnings (e.g. notifications dropped for dead machines), in
    /// the order first recorded; the simulation records each distinct
    /// warning once per experiment.
    pub warnings: Vec<Warning>,
}

impl ExperimentData {
    /// Appends `host`'s sync samples (pre- then post-phase, in order) into
    /// `out` after clearing it. Callers iterating many hosts reuse one
    /// buffer instead of allocating per host.
    pub fn sync_samples_into(&self, host: HostId, out: &mut Vec<SyncSample>) {
        out.clear();
        for phase in [&self.pre_sync, &self.post_sync] {
            for hs in phase.iter().filter(|hs| hs.host == host) {
                out.extend_from_slice(&hs.samples);
            }
        }
    }

    /// The timeline of machine `sm`, if present.
    pub fn timeline_for(&self, sm: SmId) -> Option<&LocalTimeline> {
        self.timelines.iter().find(|t| t.sm == sm)
    }

    /// The name of `host`, resolved through the study-run symbol table.
    pub fn host_name(&self, host: HostId) -> &str {
        self.symbols.name(host)
    }

    /// Total number of fault injections across all timelines.
    pub fn total_injections(&self) -> usize {
        self.timelines.iter().map(|t| t.injection_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Id;
    use crate::recorder::Recorder;

    fn data() -> ExperimentData {
        let symbols = Arc::new(SymbolTable::from_iter(["h1", "h2", "h3"]));
        let h1 = symbols.lookup("h1").unwrap();
        let h2 = symbols.lookup("h2").unwrap();
        let mut rec = Recorder::new(Id::from_raw(0), h1);
        rec.record_injection(LocalNanos(5), Id::from_raw(0));
        ExperimentData {
            experiment: 0,
            timelines: vec![rec.finish()],
            hosts: vec![h1, h2],
            reference_host: h1,
            symbols,
            pre_sync: vec![HostSync {
                host: h2,
                samples: vec![SyncSample {
                    from_reference: true,
                    send: LocalNanos(1),
                    recv: LocalNanos(2),
                }],
            }],
            post_sync: vec![HostSync {
                host: h2,
                samples: vec![SyncSample {
                    from_reference: false,
                    send: LocalNanos(9),
                    recv: LocalNanos(10),
                }],
            }],
            end: ExperimentEnd::Completed,
            warnings: vec![],
        }
    }

    #[test]
    fn sync_samples_concatenate_phases() {
        let d = data();
        let h2 = d.symbols.lookup("h2").unwrap();
        let h3 = d.symbols.lookup("h3").unwrap();
        let mut samples = Vec::new();
        d.sync_samples_into(h2, &mut samples);
        assert_eq!(samples.len(), 2);
        assert!(samples[0].from_reference);
        assert!(!samples[1].from_reference);
        // The buffer is cleared before it is filled.
        d.sync_samples_into(h3, &mut samples);
        assert!(samples.is_empty());
    }

    #[test]
    fn lookup_and_counting() {
        let d = data();
        assert!(d.timeline_for(Id::from_raw(0)).is_some());
        assert!(d.timeline_for(Id::from_raw(9)).is_none());
        assert_eq!(d.host_name(d.reference_host), "h1");
        assert_eq!(d.total_injections(), 1);
        assert_eq!(d.end, ExperimentEnd::Completed);
    }
}
