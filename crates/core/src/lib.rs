//! # loki-core
//!
//! Core abstractions of **Loki**, the state-driven fault injector for
//! distributed systems (Chandra, Lefever, Cukier, Sanders — DSN 2000; UIUC
//! CRHC-00-09). This crate contains the paper's primary concepts, free of
//! any I/O or scheduling concerns:
//!
//! * [`ids`] — typed interned identifiers: one table type,
//!   [`ids::NameTable`], for all five name spaces — machines, states,
//!   events and faults, interned when a study compiles, and hosts
//!   ([`ids::HostId`]), interned by the simulated world into the study
//!   run's [`ids::SymbolTable`]. The reserved states and events have fixed
//!   ids (`StateId::BEGIN`, `EventId::CRASH`, …). Hot paths manipulate
//!   only the dense `u32` ids; names are resolved at display/report
//!   boundaries.
//! * [`spec`] / [`study`] — state machine and fault specifications, and
//!   their compiled, validated form.
//! * [`state_machine`] — the per-node tracker of the *partial view of
//!   global state*.
//! * [`fault`] — Boolean fault expressions and the positive-edge-triggered
//!   fault parser.
//! * [`recorder`] — local timelines of state changes and injections.
//! * [`probe`] — fault actions and the table mapping fault names to them.
//! * [`campaign`] — experiment data containers and sync-sample records.
//! * [`small`] — allocation-free storage for the runtime's hot-path
//!   fan-out lists: the one-word machine set [`small::SmSet`] and the
//!   small-vector [`small::InlineVec`].
//! * [`time`] — local clock readings and global-time interval bounds.
//!
//! The runtime (daemons, transports, node lifecycle) lives in
//! `loki-runtime`; off-line clock synchronization in `loki-clock`; the
//! analysis phase in `loki-analysis`; measures in `loki-measure`.
//!
//! ## Example: compile a study and drive one state machine
//!
//! ```
//! use loki_core::fault::{FaultExpr, FaultParser, Trigger};
//! use loki_core::spec::{StateMachineSpec, StudyDef};
//! use loki_core::state_machine::StateMachine;
//! use loki_core::study::Study;
//!
//! let def = StudyDef::new("demo")
//!     .machine(
//!         StateMachineSpec::builder("black")
//!             .states(&["INIT", "ELECT", "LEAD"])
//!             .events(&["INIT_DONE", "LEADER"])
//!             .state("INIT", &[], &[("INIT_DONE", "ELECT")])
//!             .state("ELECT", &[], &[("LEADER", "LEAD")])
//!             .build(),
//!     )
//!     .fault("black", "bfault1", FaultExpr::atom("black", "LEAD"), Trigger::Always);
//! let study = Study::compile_arc(&def)?;
//!
//! let black = study.sm_id("black").unwrap();
//! let mut sm = StateMachine::new(study.clone(), black);
//! let mut parser = FaultParser::new(study.faults_owned_by(black));
//!
//! sm.initialize("INIT")?;
//! sm.apply_event_name("INIT_DONE")?;
//! assert!(parser.on_view_change(sm.view()).is_empty());
//! sm.apply_event_name("LEADER")?;
//! let inject = parser.on_view_change(sm.view());
//! assert_eq!(inject.len(), 1); // bfault1 fires on entering LEAD
//! # Ok::<(), loki_core::error::CoreError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod error;
pub mod fault;
pub mod hashing;
pub mod ids;
pub mod probe;
pub mod recorder;
pub mod small;
pub mod spec;
pub mod state_machine;
pub mod study;
pub mod time;
pub mod view;

pub use campaign::{ExperimentData, ExperimentEnd, ExperimentFailure, HostSync, SyncSample};
pub use error::CoreError;
pub use fault::{CompiledExpr, CompiledFault, FaultExpr, FaultParser, Trigger};
pub use ids::{EventId, FaultId, NameTable, SmId, StateId};
pub use probe::{ActionProbe, FaultAction};
pub use recorder::{LocalTimeline, RecordKind, Recorder, TimelineRecord};
pub use small::{InlineVec, SmSet};
pub use spec::{FaultSpec, NodePlacement, StateMachineSpec, StudyDef};
pub use state_machine::{StateMachine, TransitionOutcome};
pub use study::{CompiledSm, Study};
pub use time::{GlobalNanos, LocalNanos, TimeBounds};
pub use view::PartialView;
