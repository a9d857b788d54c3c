//! Cascading-failure (retry-storm) detection over the global timeline.
//!
//! A *cascading* failure is one the injected fault no longer explains: the
//! network fault has been healed, yet the application's own recovery
//! machinery — retries, amplification, failover — keeps the system busy,
//! in a self-sustaining causal loop. The signature this checker looks for
//! is **sustained message-rate growth after the heal injection**: the
//! application emits one user-message marker per retry attempt (see
//! `loki_apps::kvstore`'s retry mode), and a system that has genuinely
//! recovered goes quiet after the heal, while a storm keeps accelerating
//! as more unacknowledged operations join the retry schedule.
//!
//! [`detect_cascade`] locates the heal injection on the
//! [`GlobalTimeline`], counts marker events from the heal to the end of
//! the experiment, and splits them at the window midpoint: a verdict of
//! [`CascadeVerdict::Storm`] requires both *enough* post-heal markers
//! ([`CascadeConfig::min_storm_events`]) and *growth* — the late half must
//! outweigh the early half by [`CascadeConfig::growth_factor`]. Decaying
//! or bounded retry tails (exponential backoff doing its job) therefore
//! stay [`CascadeVerdict::Quiet`].

use crate::global::{GlobalEventKind, GlobalTimeline};
use loki_core::study::Study;

/// Tunables for [`detect_cascade`].
#[derive(Clone, Debug, PartialEq)]
pub struct CascadeConfig {
    /// Name of the heal fault whose injection opens the detection window.
    pub heal_fault: String,
    /// Prefix of the user-message markers to count (one per retry
    /// attempt).
    pub marker_prefix: String,
    /// Minimum post-heal marker count for a storm verdict.
    pub min_storm_events: usize,
    /// The late half of the window must hold at least `growth_factor ×`
    /// the early half's markers.
    pub growth_factor: f64,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig {
            heal_fault: "heal_net".to_string(),
            marker_prefix: "retry ".to_string(),
            min_storm_events: 50,
            growth_factor: 1.3,
        }
    }
}

/// The outcome of [`detect_cascade`].
#[derive(Clone, Debug, PartialEq)]
pub enum CascadeVerdict {
    /// The causal loop is present: the post-heal marker rate is high and
    /// still growing.
    Storm {
        /// Markers in the post-heal window.
        total: usize,
        /// Markers in the first half of the window.
        early: usize,
        /// Markers in the second half of the window.
        late: usize,
    },
    /// The system settled after the heal (or never stormed at all).
    Quiet {
        /// Markers in the post-heal window.
        total: usize,
        /// Markers in the first half of the window.
        early: usize,
        /// Markers in the second half of the window.
        late: usize,
    },
    /// The heal fault was never injected (or is not part of the study):
    /// there is no post-heal window to judge.
    NoHealInjection,
}

impl CascadeVerdict {
    /// Whether the verdict flags the causal loop.
    pub fn is_storm(&self) -> bool {
        matches!(self, CascadeVerdict::Storm { .. })
    }
}

/// Runs cascade detection over one experiment's global timeline.
///
/// The detection window opens at the midpoint of the (last) injection of
/// `cfg.heal_fault` and closes at the experiment end. Marker events are
/// placed by the midpoint of their time bounds — the same convention the
/// timeline itself is sorted by.
pub fn detect_cascade(study: &Study, gt: &GlobalTimeline, cfg: &CascadeConfig) -> CascadeVerdict {
    let Some(heal_id) = study.fault_names.lookup(&cfg.heal_fault) else {
        return CascadeVerdict::NoHealInjection;
    };
    let heal = gt
        .injections()
        .filter(|(_, fault)| *fault == heal_id)
        .map(|(e, _)| e.bounds.mid().as_f64())
        .fold(f64::NEG_INFINITY, f64::max);
    if heal == f64::NEG_INFINITY {
        return CascadeVerdict::NoHealInjection;
    }
    let end = gt.end.as_f64().max(heal);
    let mid = heal + (end - heal) / 2.0;

    let (mut early, mut late) = (0usize, 0usize);
    for e in &gt.events {
        let GlobalEventKind::UserMessage(m) = &e.kind else {
            continue;
        };
        if !m.starts_with(&cfg.marker_prefix) {
            continue;
        }
        let t = e.bounds.mid().as_f64();
        if t < heal {
            continue;
        }
        if t < mid {
            early += 1;
        } else {
            late += 1;
        }
    }
    let total = early + late;
    if total >= cfg.min_storm_events && late as f64 >= early as f64 * cfg.growth_factor {
        CascadeVerdict::Storm { total, early, late }
    } else {
        CascadeVerdict::Quiet { total, early, late }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::GlobalEvent;
    use loki_core::fault::{FaultExpr, Trigger};
    use loki_core::ids::{FaultId, HostId, SmId, SymbolTable};
    use loki_core::spec::{StateMachineSpec, StudyDef};
    use loki_core::time::{GlobalNanos, TimeBounds};
    use std::sync::Arc;

    /// One machine `a` with a heal fault owned by itself.
    fn study() -> Study {
        let def = StudyDef::new("s")
            .machine(
                StateMachineSpec::builder("a")
                    .states(&["INIT", "WORK"])
                    .events(&["GO"])
                    .state("INIT", &[], &[("GO", "WORK")])
                    .build(),
            )
            .fault("a", "heal_net", FaultExpr::atom("a", "WORK"), Trigger::Once);
        Study::compile(&def).unwrap()
    }

    fn event(kind: GlobalEventKind, at_ms: f64, idx: u32) -> GlobalEvent {
        GlobalEvent {
            sm: SmId::from_raw(0),
            kind,
            bounds: TimeBounds::point(GlobalNanos::from_millis(at_ms)),
            record_index: idx,
        }
    }

    /// A synthetic timeline: a heal injection at `heal_ms`, then `retry `
    /// markers at the given times, ending at `end_ms`.
    fn timeline(heal_ms: f64, marker_ms: &[f64], end_ms: f64) -> GlobalTimeline {
        let mut events = vec![event(
            GlobalEventKind::Injection {
                fault: FaultId::from_raw(0),
            },
            heal_ms,
            0,
        )];
        for (i, ms) in marker_ms.iter().enumerate() {
            events.push(event(
                GlobalEventKind::UserMessage(format!("retry seq={i} attempt=1")),
                *ms,
                i as u32 + 1,
            ));
        }
        GlobalTimeline {
            events,
            intervals: Vec::new(),
            start: GlobalNanos::from_millis(0.0),
            end: GlobalNanos::from_millis(end_ms),
            alpha_beta: Vec::new(),
            reference_host: HostId::from_raw(0),
            symbols: Arc::new(SymbolTable::new()),
        }
    }

    fn cfg(min: usize) -> CascadeConfig {
        CascadeConfig {
            min_storm_events: min,
            ..CascadeConfig::default()
        }
    }

    #[test]
    fn growing_post_heal_marker_rate_is_a_storm() {
        // Window [100, 500]: 2 early markers, 6 late ones.
        let markers = [150.0, 250.0, 320.0, 350.0, 390.0, 430.0, 460.0, 490.0];
        let gt = timeline(100.0, &markers, 500.0);
        let v = detect_cascade(&study(), &gt, &cfg(4));
        assert_eq!(
            v,
            CascadeVerdict::Storm {
                total: 8,
                early: 2,
                late: 6
            }
        );
        assert!(v.is_storm());
    }

    #[test]
    fn decaying_retry_tail_is_quiet() {
        // Exponential backoff doing its job: the burst dies out early.
        let markers = [120.0, 140.0, 180.0, 260.0, 290.0, 310.0];
        let gt = timeline(100.0, &markers, 500.0);
        let v = detect_cascade(&study(), &gt, &cfg(4));
        assert!(!v.is_storm(), "{v:?}");
    }

    #[test]
    fn sparse_markers_stay_below_the_storm_floor() {
        let gt = timeline(100.0, &[400.0, 450.0], 500.0);
        assert!(!detect_cascade(&study(), &gt, &cfg(4)).is_storm());
    }

    #[test]
    fn pre_heal_markers_are_ignored() {
        // All traffic predates the heal: the loop did not survive it.
        let markers = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0];
        let gt = timeline(100.0, &markers, 500.0);
        assert_eq!(
            detect_cascade(&study(), &gt, &cfg(4)),
            CascadeVerdict::Quiet {
                total: 0,
                early: 0,
                late: 0
            }
        );
    }

    #[test]
    fn missing_heal_injection_is_its_own_verdict() {
        let gt = timeline(100.0, &[], 500.0);
        let mut no_such = cfg(4);
        no_such.heal_fault = "no_such_fault".to_string();
        assert_eq!(
            detect_cascade(&study(), &gt, &no_such),
            CascadeVerdict::NoHealInjection
        );
        // The fault exists but was never injected.
        let mut empty = timeline(0.0, &[], 0.0);
        empty.events.clear();
        assert_eq!(
            detect_cascade(&study(), &empty, &cfg(4)),
            CascadeVerdict::NoHealInjection
        );
    }
}
