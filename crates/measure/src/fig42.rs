//! The worked example of thesis Figure 4.2 (§4.3.1–4.3.2).
//!
//! The thesis prints a 16-event global timeline and evaluates three
//! predicates and three observation functions against it. This module
//! reconstructs that exact timeline so tests and the `fig4_2` benchmark
//! binary can reproduce the numbers. Two values in the thesis disagree with
//! the timeline as printed:
//!
//! * `duration(T, 2, 10, 40)` on predicate 3 is printed as **7.0 ms**; the
//!   timeline gives 20.0 − 13.1 = **6.9 ms**.
//! * `instant(U, I, 2, 0, 50)` on predicate 3 is printed as **21.2 ms**;
//!   the second impulse in the timeline is at **21.4 ms** (SM5's second
//!   `Event5`).

use crate::predicate::Predicate;
use crate::timeref::Window;
use loki_analysis::global::{GlobalEvent, GlobalEventKind, GlobalTimeline, StateInterval};
use loki_core::ids::SymbolTable;
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_core::time::{GlobalNanos, TimeBounds};
use std::sync::Arc;

/// Milliseconds (to the 0.1 ms the figure prints) → point bounds in whole
/// nanoseconds (the figure evaluates at the mean of the two — very close —
/// bounds; exact points reproduce that).
fn at(ms: f64) -> TimeBounds {
    TimeBounds::point(GlobalNanos((ms * 1e6).round() as i64))
}

/// Builds the study (machines SM1–SM6, states State0–State6, events
/// Event1–Event13) and the Figure 4.2 global timeline.
pub fn fig_4_2() -> (Study, GlobalTimeline) {
    let states = [
        "State0", "State1", "State2", "State3", "State4", "State5", "State6",
    ];
    let events = [
        "Event1", "Event2", "Event3", "Event4", "Event5", "Event6", "Event7", "Event8", "Event9",
        "Event10", "Event11", "Event12", "Event13",
    ];
    let mut def = StudyDef::new("fig4.2");
    for name in ["SM1", "SM2", "SM3", "SM5", "SM6"] {
        def = def.machine(
            StateMachineSpec::builder(name)
                .states(&states)
                .events(&events)
                .build(),
        );
    }
    let study = Study::compile(&def).unwrap();

    let sm = |n: &str| study.sm_id(n).unwrap();
    let st = |n: &str| study.states.lookup(n).unwrap();
    let ev = |n: &str| study.events.lookup(n).unwrap();

    // The printed global timeline: (machine, begin state, event, time ms).
    let rows: [(&str, &str, &str, f64, &str); 16] = [
        ("SM5", "State5", "Event5", 11.2, "State5"),
        ("SM1", "State0", "Event1", 12.4, "State1"),
        ("SM6", "State5", "Event6", 13.1, "State6"),
        ("SM1", "State1", "Event2", 18.9, "State0"),
        ("SM6", "State6", "Event7", 20.0, "State4"),
        ("SM5", "State5", "Event5", 21.4, "State5"),
        ("SM3", "State3", "Event3", 22.3, "State4"),
        ("SM3", "State4", "Event4", 26.3, "State0"),
        ("SM2", "State0", "Event8", 30.9, "State2"),
        ("SM5", "State5", "Event5", 31.2, "State5"),
        ("SM2", "State2", "Event9", 32.3, "State1"),
        ("SM6", "State4", "Event10", 32.3, "State6"),
        ("SM2", "State1", "Event12", 35.6, "State2"),
        ("SM6", "State6", "Event11", 37.9, "State0"),
        ("SM2", "State2", "Event13", 38.9, "State0"),
        ("SM5", "State5", "Event5", 40.6, "State5"),
    ];
    let events_vec: Vec<GlobalEvent> = rows
        .iter()
        .enumerate()
        .map(|(i, (m, from, e, t, to))| GlobalEvent {
            sm: sm(m),
            kind: GlobalEventKind::StateChange {
                event: ev(e),
                from_state: st(from),
                new_state: st(to),
            },
            bounds: at(*t),
            record_index: i as u32,
        })
        .collect();

    // State-occupancy intervals implied by the rows, each bounded by the
    // machine's rows at the times given; `None` is open — held from the
    // start (the figure's timeline begins mid-run) or to the end.
    let row = |m: &str, ms: Option<f64>| {
        ms.map_or(StateInterval::OPEN, |ms| {
            let at = rows.iter().position(|r| r.0 == m && r.3 == ms);
            at.expect("a row of the figure") as u32
        })
    };
    let iv = |m: &str, s: &str, lo: Option<f64>, hi: Option<f64>| StateInterval {
        sm: sm(m),
        state: st(s),
        enter: row(m, lo),
        exit: row(m, hi),
    };
    let intervals = vec![
        // SM1: State0 → State1 [12.4, 18.9] → State0.
        iv("SM1", "State0", None, Some(12.4)),
        iv("SM1", "State1", Some(12.4), Some(18.9)),
        iv("SM1", "State0", Some(18.9), None),
        // SM2: State0 → State2 [30.9,32.3] → State1 → State2 [35.6,38.9] → State0.
        iv("SM2", "State0", None, Some(30.9)),
        iv("SM2", "State2", Some(30.9), Some(32.3)),
        iv("SM2", "State1", Some(32.3), Some(35.6)),
        iv("SM2", "State2", Some(35.6), Some(38.9)),
        iv("SM2", "State0", Some(38.9), None),
        // SM3: State3 → State4 [22.3, 26.3] → State0.
        iv("SM3", "State3", None, Some(22.3)),
        iv("SM3", "State4", Some(22.3), Some(26.3)),
        iv("SM3", "State0", Some(26.3), None),
        // SM5: State5 throughout.
        iv("SM5", "State5", None, None),
        // SM6: State5 → State6 [13.1,20] → State4 → State6 [32.3,37.9] → State0.
        iv("SM6", "State5", None, Some(13.1)),
        iv("SM6", "State6", Some(13.1), Some(20.0)),
        iv("SM6", "State4", Some(20.0), Some(32.3)),
        iv("SM6", "State6", Some(32.3), Some(37.9)),
        iv("SM6", "State0", Some(37.9), None),
    ];

    let symbols = Arc::new(SymbolTable::from_iter(["ref"]));
    let reference_host = symbols.lookup("ref").unwrap();
    let gt = GlobalTimeline {
        events: events_vec.into(),
        messages: "".into(),
        intervals: intervals.into(),
        start: GlobalNanos::ZERO,
        end: GlobalNanos(50_000_000),
        alpha_beta: vec![loki_clock::sync::AlphaBetaBounds::identity()].into(),
        reference_host,
        symbols,
    };
    (study, gt)
}

/// Thesis predicate 1:
/// `((StateMachine1, State1, 10 < t < 20) | (StateMachine2, State2, 30 < t < 40))`.
pub fn predicate_1() -> Predicate {
    Predicate::state_in("SM1", "State1", Window::millis(10.0, 20.0)).or(Predicate::state_in(
        "SM2",
        "State2",
        Window::millis(30.0, 40.0),
    ))
}

/// Thesis predicate 2:
/// `((StateMachine3, State3, Event3, 10 < t < 30) | (StateMachine3, State4, Event4, 20 < t < 40))`.
pub fn predicate_2() -> Predicate {
    Predicate::event_in("SM3", "State3", "Event3", Window::millis(10.0, 30.0)).or(
        Predicate::event_in("SM3", "State4", "Event4", Window::millis(20.0, 40.0)),
    )
}

/// Thesis predicate 3:
/// `((StateMachine5, State5, Event5) | (StateMachine6, State6, 10 < t < 40))`.
pub fn predicate_3() -> Predicate {
    Predicate::event("SM5", "State5", "Event5").or(Predicate::state_in(
        "SM6",
        "State6",
        Window::millis(10.0, 40.0),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_has_sixteen_events_sorted() {
        let (_, gt) = fig_4_2();
        assert_eq!(gt.events.len(), 16);
        for w in gt.events.windows(2) {
            assert!(w[0].bounds.mid() <= w[1].bounds.mid());
        }
        assert_eq!(gt.intervals.len(), 17);
        // Intervals held from the start open at the window start.
        let first = &gt.intervals[0];
        assert_eq!(first.enter, StateInterval::OPEN);
        assert_eq!(gt.enter_of(first), at(0.0));
        assert_eq!(gt.exit_of(first), Some(at(12.4)));
    }
}
