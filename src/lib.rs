//! # Loki — state-driven fault injection for distributed systems
//!
//! A Rust reproduction of **Loki** (Chandra, Lefever, Cukier, Sanders —
//! DSN 2000 / UIUC CRHC-00-09): a fault injector that injects faults into a
//! distributed system *based on its global state*, verifies after the fact —
//! via off-line clock synchronization — that every injection landed in the
//! intended global state, and estimates dependability and performance
//! measures from the experiments that pass that check.
//!
//! This facade crate re-exports the workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `loki-core` | state machines, fault parser, recorder, probes, campaigns |
//! | [`clock`] | `loki-clock` | virtual clocks, convex-hull offline synchronization |
//! | [`spec`] | `loki-spec` | parsers/writers for the thesis's file formats |
//! | [`sim`] | `loki-sim` | deterministic discrete-event simulation substrate |
//! | [`runtime`] | `loki-runtime` | daemons, transports, node lifecycle, experiment runner |
//! | [`analysis`] | `loki-analysis` | global timeline + injection correctness checking |
//! | [`measure`] | `loki-measure` | predicates, observation functions, campaign statistics |
//! | [`apps`] | `loki-apps` | instrumented example applications |
//!
//! See `examples/quickstart.rs` for an end-to-end tour: specify → run →
//! analyze → measure.
//!
//! ## Running a campaign
//!
//! The two snippets below are the README's, compiled here so they cannot
//! drift from the API. A campaign runs on the deterministic simulator, and
//! any one of its experiments replays alone, byte for byte:
//!
//! ```rust,no_run
//! use loki::runtime::harness::{run_experiment, run_study, CampaignError, SimHarnessConfig};
//! # fn demo(study: std::sync::Arc<loki::core::study::Study>,
//! #         factory: loki::runtime::AppFactory) -> Result<(), CampaignError> {
//!
//! let cfg = SimHarnessConfig::three_hosts(42);
//! let data = run_study(&study, factory.clone(), &cfg, 200)?;
//!
//! let replay = run_experiment(&study, factory, &cfg, 7)?; // a fresh world
//! assert_eq!(replay, data[7]);
//! # Ok(())
//! # }
//! ```
//!
//! Experiments fan out across a caller-runs worker pool; simulated results
//! are byte-identical for every pool shape:
//!
//! ```rust,no_run
//! use loki::runtime::harness::{run_study, CampaignError, SimHarnessConfig};
//! # fn demo(study: std::sync::Arc<loki::core::study::Study>,
//! #         factory: loki::runtime::AppFactory) -> Result<(), CampaignError> {
//!
//! let mut cfg = SimHarnessConfig::three_hosts(42); // cfg.workers = None: auto
//! let data = run_study(&study, factory.clone(), &cfg, 200)?; // parallel
//! cfg.workers = Some(1); // forced sequential, on the calling thread
//! let same = run_study(&study, factory, &cfg, 200)?;
//! assert_eq!(data, same);
//! # Ok(())
//! # }
//! ```

pub use loki_analysis as analysis;
pub use loki_apps as apps;
pub use loki_clock as clock;
pub use loki_core as core;
pub use loki_measure as measure;
pub use loki_runtime as runtime;
pub use loki_sim as sim;
pub use loki_spec as spec;
