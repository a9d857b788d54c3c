//! Predicates over the global timeline (§4.3.1).
//!
//! A predicate is an expression of tuples combined with AND, OR, and NOT.
//! The four tuple forms of the thesis are covered by two constructors with
//! optional windows:
//!
//! | thesis tuple | here |
//! |---|---|
//! | `(state machine, state)` | [`Predicate::state`] |
//! | `(state machine, state, time)` | [`Predicate::state_in`] |
//! | `(state machine, state, event)` | [`Predicate::event`] |
//! | `(state machine, state, event, time)` | [`Predicate::event_in`] |
//!
//! A state tuple is true *while* the machine occupies the state (a step);
//! an event tuple is true *at the instant* the event occurs while the
//! machine is in the state (an impulse). Following the thesis's Figure 4.2,
//! evaluation uses the mean of each occurrence's global-time bounds.

use crate::error::MeasureError;
use crate::timeline::PredicateTimeline;
use crate::timeref::Window;
use loki_analysis::global::{GlobalEventKind, GlobalTimeline};
use loki_analysis::intervals::IntervalSet;
use loki_core::ids::{EventId, SmId, StateId};
use loki_core::study::Study;
use serde::{Deserialize, Serialize};

/// A predicate over the global timeline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// True while `sm` occupies `state`, optionally restricted to a window.
    State {
        /// Machine nickname.
        sm: String,
        /// State name.
        state: String,
        /// Optional time restriction.
        window: Option<Window>,
    },
    /// True at the instants `event` occurs in `sm` while it is in `state`,
    /// optionally restricted to a window (the thesis requires a window for
    /// event tuples; omitting it means the whole experiment).
    Event {
        /// Machine nickname.
        sm: String,
        /// State the machine is in when the event occurs.
        state: String,
        /// Event name.
        event: String,
        /// Optional time restriction.
        window: Option<Window>,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `(sm, state)` tuple.
    pub fn state(sm: &str, state: &str) -> Predicate {
        Predicate::State {
            sm: sm.to_owned(),
            state: state.to_owned(),
            window: None,
        }
    }

    /// `(sm, state, time)` tuple.
    pub fn state_in(sm: &str, state: &str, window: Window) -> Predicate {
        Predicate::State {
            sm: sm.to_owned(),
            state: state.to_owned(),
            window: Some(window),
        }
    }

    /// `(sm, state, event)` tuple.
    pub fn event(sm: &str, state: &str, event: &str) -> Predicate {
        Predicate::Event {
            sm: sm.to_owned(),
            state: state.to_owned(),
            event: event.to_owned(),
            window: None,
        }
    }

    /// `(sm, state, event, time)` tuple.
    pub fn event_in(sm: &str, state: &str, event: &str, window: Window) -> Predicate {
        Predicate::Event {
            sm: sm.to_owned(),
            state: state.to_owned(),
            event: event.to_owned(),
            window: Some(window),
        }
    }

    /// Conjunction.
    pub fn and(self, rhs: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(rhs))
    }

    /// Disjunction.
    pub fn or(self, rhs: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(rhs))
    }

    /// Negation.
    // Part of the predicate-builder DSL next to `and`/`or`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Resolves names against a study.
    ///
    /// # Errors
    ///
    /// Returns [`MeasureError::UnknownName`] for unresolvable names.
    pub fn compile(&self, study: &Study) -> Result<CompiledPredicate, MeasureError> {
        match self {
            Predicate::State { sm, state, window } => Ok(CompiledPredicate::State {
                sm: lookup_sm(study, sm)?,
                state: lookup_state(study, state)?,
                window: *window,
            }),
            Predicate::Event {
                sm,
                state,
                event,
                window,
            } => Ok(CompiledPredicate::Event {
                sm: lookup_sm(study, sm)?,
                state: lookup_state(study, state)?,
                event: study
                    .events
                    .lookup(event)
                    .ok_or_else(|| MeasureError::UnknownName {
                        kind: "event",
                        name: event.clone(),
                    })?,
                window: *window,
            }),
            Predicate::And(a, b) => Ok(CompiledPredicate::And(
                Box::new(a.compile(study)?),
                Box::new(b.compile(study)?),
            )),
            Predicate::Or(a, b) => Ok(CompiledPredicate::Or(
                Box::new(a.compile(study)?),
                Box::new(b.compile(study)?),
            )),
            Predicate::Not(a) => Ok(CompiledPredicate::Not(Box::new(a.compile(study)?))),
        }
    }
}

fn lookup_sm(study: &Study, name: &str) -> Result<SmId, MeasureError> {
    study
        .sms
        .lookup(name)
        .ok_or_else(|| MeasureError::UnknownName {
            kind: "state machine",
            name: name.to_owned(),
        })
}

fn lookup_state(study: &Study, name: &str) -> Result<StateId, MeasureError> {
    study
        .states
        .lookup(name)
        .ok_or_else(|| MeasureError::UnknownName {
            kind: "state",
            name: name.to_owned(),
        })
}

/// A predicate with names resolved.
#[derive(Clone, Debug, PartialEq)]
pub enum CompiledPredicate {
    /// State tuple.
    State {
        /// Machine.
        sm: SmId,
        /// State.
        state: StateId,
        /// Optional window.
        window: Option<Window>,
    },
    /// Event tuple.
    Event {
        /// Machine.
        sm: SmId,
        /// State the machine is in when the event occurs.
        state: StateId,
        /// Event.
        event: EventId,
        /// Optional window.
        window: Option<Window>,
    },
    /// Conjunction.
    And(Box<CompiledPredicate>, Box<CompiledPredicate>),
    /// Disjunction.
    Or(Box<CompiledPredicate>, Box<CompiledPredicate>),
    /// Negation.
    Not(Box<CompiledPredicate>),
}

impl CompiledPredicate {
    /// Evaluates the predicate over an experiment's global timeline,
    /// producing its predicate value timeline. `exp_window` is the
    /// experiment window in nanoseconds (usually `(gt.start, gt.end)`).
    pub fn eval(&self, gt: &GlobalTimeline, exp_window: (f64, f64)) -> PredicateTimeline {
        match self {
            CompiledPredicate::State { sm, state, window } => {
                let restrict = window.map(|w| w.resolve(exp_window));
                let mut spans = Vec::new();
                for iv in gt.intervals_of(*sm) {
                    if iv.state != *state {
                        continue;
                    }
                    let lo = gt.enter_of(iv).mid().as_f64();
                    let hi = gt
                        .exit_of(iv)
                        .map(|b| b.mid().as_f64())
                        .unwrap_or(exp_window.1);
                    let (lo, hi) = match restrict {
                        Some((rlo, rhi)) => (lo.max(rlo), hi.min(rhi)),
                        None => (lo, hi),
                    };
                    if lo <= hi {
                        spans.push((lo, hi));
                    }
                }
                PredicateTimeline::new(exp_window, IntervalSet::from_spans(spans), Vec::new())
            }
            CompiledPredicate::Event {
                sm,
                state,
                event,
                window,
            } => {
                let restrict = window.map(|w| w.resolve(exp_window));
                let mut impulses = Vec::new();
                for e in &gt.events {
                    if e.sm != *sm {
                        continue;
                    }
                    if let GlobalEventKind::StateChange {
                        event: ev,
                        from_state,
                        ..
                    } = &e.kind
                    {
                        if ev == event && from_state == state {
                            let t = e.bounds.mid().as_f64();
                            if restrict.map(|(lo, hi)| lo <= t && t <= hi).unwrap_or(true) {
                                impulses.push(t);
                            }
                        }
                    }
                }
                PredicateTimeline::new(exp_window, IntervalSet::empty(), impulses)
            }
            CompiledPredicate::And(a, b) => a.eval(gt, exp_window).and(&b.eval(gt, exp_window)),
            CompiledPredicate::Or(a, b) => a.eval(gt, exp_window).or(&b.eval(gt, exp_window)),
            CompiledPredicate::Not(a) => a.eval(gt, exp_window).negate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig42::{fig_4_2, predicate_1, predicate_2, predicate_3};
    use crate::timeref::Window;

    #[test]
    fn compile_rejects_unknown_names() {
        let (study, _) = fig_4_2();
        assert!(Predicate::state("ghost", "State1").compile(&study).is_err());
        assert!(Predicate::state("SM1", "GhostState")
            .compile(&study)
            .is_err());
        assert!(Predicate::event("SM1", "State1", "GhostEvent")
            .compile(&study)
            .is_err());
    }

    #[test]
    fn thesis_predicate_1_steps() {
        // ((SM1, State1, 10<t<20) | (SM2, State2, 30<t<40))
        let (study, gt) = fig_4_2();
        let tl = predicate_1()
            .compile(&study)
            .unwrap()
            .eval(&gt, (0.0, 50.0e6));
        // True [12.4,18.9] ∪ [30.9,32.3] ∪ [35.6,38.9] (ms).
        let spans_ms: Vec<(f64, f64)> = tl
            .steps()
            .spans()
            .iter()
            .map(|&(lo, hi)| (lo / 1e6, hi / 1e6))
            .collect();
        assert_eq!(spans_ms.len(), 3);
        assert!((spans_ms[0].0 - 12.4).abs() < 1e-9 && (spans_ms[0].1 - 18.9).abs() < 1e-9);
        assert!((spans_ms[1].0 - 30.9).abs() < 1e-9 && (spans_ms[1].1 - 32.3).abs() < 1e-9);
        assert!((spans_ms[2].0 - 35.6).abs() < 1e-9 && (spans_ms[2].1 - 38.9).abs() < 1e-9);
        assert!(tl.impulses().is_empty());
    }

    #[test]
    fn thesis_predicate_2_impulses() {
        // ((SM3, State3, Event3, 10<t<30) | (SM3, State4, Event4, 20<t<40))
        let (study, gt) = fig_4_2();
        let tl = predicate_2()
            .compile(&study)
            .unwrap()
            .eval(&gt, (0.0, 50.0e6));
        let impulses_ms: Vec<f64> = tl.impulses().iter().map(|t| t / 1e6).collect();
        assert_eq!(impulses_ms.len(), 2);
        assert!((impulses_ms[0] - 22.3).abs() < 1e-9);
        assert!((impulses_ms[1] - 26.3).abs() < 1e-9);
        assert!(tl.steps().is_empty());
    }

    #[test]
    fn thesis_predicate_3_mixed() {
        // ((SM5, State5, Event5) | (SM6, State6, 10<t<40))
        let (study, gt) = fig_4_2();
        let tl = predicate_3()
            .compile(&study)
            .unwrap()
            .eval(&gt, (0.0, 50.0e6));
        let spans_ms: Vec<(f64, f64)> = tl
            .steps()
            .spans()
            .iter()
            .map(|&(lo, hi)| (lo / 1e6, hi / 1e6))
            .collect();
        assert_eq!(spans_ms.len(), 2);
        assert!((spans_ms[0].0 - 13.1).abs() < 1e-9 && (spans_ms[0].1 - 20.0).abs() < 1e-9);
        assert!((spans_ms[1].0 - 32.3).abs() < 1e-9 && (spans_ms[1].1 - 37.9).abs() < 1e-9);
        let impulses_ms: Vec<f64> = tl.impulses().iter().map(|t| t / 1e6).collect();
        assert_eq!(impulses_ms, vec![11.2, 21.4, 31.2, 40.6]);
    }

    #[test]
    fn window_restricts_state_tuple() {
        let (study, gt) = fig_4_2();
        let p = Predicate::state_in("SM2", "State2", Window::millis(31.0, 36.0));
        let tl = p.compile(&study).unwrap().eval(&gt, (0.0, 50.0e6));
        let spans_ms: Vec<(f64, f64)> = tl
            .steps()
            .spans()
            .iter()
            .map(|&(lo, hi)| (lo / 1e6, hi / 1e6))
            .collect();
        // [30.9,32.3] clipped to [31,32.3]; [35.6,38.9] clipped to [35.6,36].
        assert_eq!(spans_ms.len(), 2);
        assert!((spans_ms[0].0 - 31.0).abs() < 1e-9 && (spans_ms[0].1 - 32.3).abs() < 1e-9);
        assert!((spans_ms[1].0 - 35.6).abs() < 1e-9 && (spans_ms[1].1 - 36.0).abs() < 1e-9);
    }

    #[test]
    fn negation_of_state_tuple() {
        let (study, gt) = fig_4_2();
        let p = Predicate::state("SM1", "State1").not();
        let tl = p.compile(&study).unwrap().eval(&gt, (0.0, 50.0e6));
        assert!(tl.value_at(5.0e6));
        assert!(!tl.value_at(15.0e6)); // SM1 in State1 during [12.4, 18.9]
        assert!(tl.value_at(25.0e6));
    }
}
