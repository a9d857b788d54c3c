//! # loki-spec
//!
//! Parsers and writers for every textual format of the Loki fault injector
//! (thesis §3.5, §5.6):
//!
//! * [`sm_spec`] — state machine specification files
//!   (`global_state_list` / `event_list` / `state` blocks).
//! * [`expr`] — Boolean fault expressions, e.g.
//!   `((black:CRASH) & ((green:FOLLOW) | (green:ELECT)))`.
//! * [`files`] — fault specifications, node files, machines files, action
//!   files, budget files.
//! * [`timeline_file`] — the index-compressed local timeline format with
//!   Hi/Lo 32-bit timestamps.
//! * [`timestamps_file`] — synchronization timestamp dumps for the off-line
//!   clock synchronization.
//! * [`campaign_loader`] — assembling whole studies from their
//!   specification files (the §5.6 workflow).
//!
//! Every writer round-trips through its parser; property tests in
//! `tests/prop_roundtrip.rs` verify this for generated inputs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign_loader;
pub mod error;
pub mod expr;
pub mod files;
pub mod sm_spec;
pub mod timeline_file;
pub mod timestamps_file;

pub use campaign_loader::{
    load_budget_dir, load_study, load_study_dir, load_study_dir_with_actions, write_budget_dir,
    write_study_dir, write_study_dir_with_actions, MachineSources,
};
pub use error::ParseError;
pub use expr::parse_expr;
pub use files::{
    parse_action_file, parse_budget_file, parse_fault_spec, parse_machines_file, parse_node_file,
    write_action_file, write_budget_file, write_fault_spec, write_machines_file, write_node_file,
    BudgetSpec,
};
