//! Property tests for the analysis phase.

use loki_analysis::checker::expr_truth;
use loki_analysis::global::{GlobalEvent, GlobalEventKind, GlobalTimeline, StateInterval};
use loki_analysis::intervals::IntervalSet;
use loki_core::fault::CompiledExpr;
use loki_core::ids::{Id, SmId, StateId, SymbolTable};
use loki_core::time::{GlobalNanos, TimeBounds};
use proptest::prelude::*;
use std::sync::Arc;

/// A timeline over `[0, end]` with no events or intervals yet.
fn empty_timeline(end: f64) -> GlobalTimeline {
    GlobalTimeline {
        events: Vec::new(),
        intervals: Vec::new(),
        start: GlobalNanos(0.0),
        end: GlobalNanos(end),
        alpha_beta: Vec::new(),
        reference_host: Id::from_raw(0),
        symbols: Arc::new(SymbolTable::for_hosts(["ref"])),
    }
}

/// Appends an occupancy interval of `sm` in `state` with the given entry
/// and exit bounds, each held by an event of its own. Intervals read only
/// their events' bounds, so the events are left in insertion order.
fn push_interval(
    gt: &mut GlobalTimeline,
    sm: SmId,
    state: StateId,
    enter: TimeBounds,
    exit: Option<TimeBounds>,
) {
    let mut event = |bounds| {
        gt.events.push(GlobalEvent {
            sm,
            kind: GlobalEventKind::StateChange {
                event: Id::from_raw(0),
                from_state: state,
                new_state: state,
            },
            bounds,
            record_index: gt.events.len() as u32,
        });
        gt.events.len() as u32 - 1
    };
    let enter = event(enter);
    let exit = exit.map_or(StateInterval::OPEN, event);
    gt.intervals.push(StateInterval {
        sm,
        state,
        enter,
        exit,
    });
}

/// Builds a synthetic global timeline: for each machine, a sequence of
/// state intervals with bounded-uncertainty transition times.
fn timeline_strategy() -> impl Strategy<Value = GlobalTimeline> {
    let machine_intervals = prop::collection::vec((0u32..4, 1.0f64..50.0, 0.0f64..2.0), 1..8);
    prop::collection::vec(machine_intervals, 1..3).prop_map(|machines| {
        let mut gt = empty_timeline(200.0);
        for (m, segs) in machines.iter().enumerate() {
            let mut t = 0.0;
            for (i, (state, len, width)) in segs.iter().enumerate() {
                let enter = TimeBounds::new(GlobalNanos(t), GlobalNanos(t + width));
                let t_end = t + width + len;
                let exit = TimeBounds::new(GlobalNanos(t_end), GlobalNanos(t_end + width));
                let exit = if i + 1 == segs.len() {
                    None
                } else {
                    Some(exit)
                };
                push_interval(
                    &mut gt,
                    Id::from_raw(m as u32),
                    Id::from_raw(*state),
                    enter,
                    exit,
                );
                t = t_end;
            }
        }
        gt
    })
}

fn expr_strategy(depth: u32) -> BoxedStrategy<CompiledExpr> {
    let atom =
        (0u32..3, 0u32..4).prop_map(|(m, s)| CompiledExpr::Atom(Id::from_raw(m), Id::from_raw(s)));
    if depth == 0 {
        atom.boxed()
    } else {
        let sub = expr_strategy(depth - 1);
        prop_oneof![
            atom,
            (expr_strategy(depth - 1), sub.clone())
                .prop_map(|(a, b)| CompiledExpr::And(Box::new(a), Box::new(b))),
            (expr_strategy(depth - 1), sub.clone())
                .prop_map(|(a, b)| CompiledExpr::Or(Box::new(a), Box::new(b))),
            sub.prop_map(|a| CompiledExpr::Not(Box::new(a))),
        ]
        .boxed()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The fundamental three-valued invariant: wherever an expression is
    /// *definitely* true it must also be *possibly* true — for arbitrary
    /// expressions over arbitrary uncertain timelines.
    #[test]
    fn definite_is_subset_of_possible(
        gt in timeline_strategy(),
        expr in expr_strategy(3),
        probes in prop::collection::vec(0.0f64..200.0, 1..20),
    ) {
        let window = (-1.0, 201.0);
        let truth = expr_truth(&gt, &expr, window);
        for t in probes {
            if truth.definite.contains(t) {
                prop_assert!(
                    truth.possible.contains(t),
                    "definite at {t} but not possible"
                );
            }
        }
    }

    /// Negation duality: definite(~e) is disjoint from possible(e), and
    /// possible(~e) is disjoint from definite(e).
    #[test]
    fn negation_duality(
        gt in timeline_strategy(),
        expr in expr_strategy(2),
        probes in prop::collection::vec(0.0f64..200.0, 1..20),
    ) {
        let window = (-1.0, 201.0);
        let e = expr_truth(&gt, &expr, window);
        let not_e = expr_truth(
            &gt,
            &CompiledExpr::Not(Box::new(expr.clone())),
            window,
        );
        for t in probes {
            prop_assert!(!(not_e.definite.contains(t) && e.possible.contains(t)));
            prop_assert!(!(not_e.possible.contains(t) && e.definite.contains(t)));
        }
    }

    /// With zero-width bounds (exact clocks), definite and possible
    /// coincide except at the transition instants themselves.
    #[test]
    fn exact_bounds_collapse_the_gap(
        expr in expr_strategy(2),
        probes in prop::collection::vec(0.0f64..200.0, 1..20),
    ) {
        // One machine cycling through states 0,1,2 with exact bounds.
        let mut gt = empty_timeline(100.0);
        let mut t = 0.0;
        for i in 0..10u32 {
            let enter = TimeBounds::point(GlobalNanos(t));
            let exit = TimeBounds::point(GlobalNanos(t + 10.0));
            push_interval(&mut gt, Id::from_raw(0), Id::from_raw(i % 3), enter, Some(exit));
            t += 10.0;
        }
        let window = (-1.0, 101.0);
        let truth = expr_truth(&gt, &expr, window);
        for t in probes {
            // Avoid the measure-zero transition instants.
            if (t / 10.0).fract() < 1e-9 {
                continue;
            }
            prop_assert_eq!(
                truth.definite.contains(t),
                truth.possible.contains(t),
                "gap at {} with exact bounds",
                t
            );
        }
    }
}

/// Span sets built every way the checker builds them — merged raw spans
/// (inverted ones dropped, so the empty set comes up), unions,
/// intersections, and complements, which leave spans touching end to end
/// around a point span. Endpoints are whole numbers or ±∞, so that probes
/// land on them exactly.
fn span_set_strategy() -> impl Strategy<Value = IntervalSet> {
    let raw = || {
        let span = (-5i32..40, -2i32..10, 0u32..24).prop_map(|(lo, len, edge)| {
            let (lo, hi) = (f64::from(lo), f64::from(lo + len));
            match edge {
                0 => (f64::NEG_INFINITY, hi),
                1 => (lo, f64::INFINITY),
                _ => (lo, hi),
            }
        });
        prop::collection::vec(span, 0..8).prop_map(IntervalSet::from_spans)
    };
    (raw(), raw(), 0u32..5).prop_map(|(a, b, op)| match op {
        0 => a,
        1 => a.union(&b),
        2 => a.intersect(&b),
        3 => a.complement(0.0, 30.0),
        _ => a.complement(f64::NEG_INFINITY, f64::INFINITY),
    })
}

/// Probe coordinates: on the whole numbers the endpoints use, between
/// them, and at ±∞.
fn coordinate_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-7i32..50).prop_map(f64::from),
        (-7i32..50).prop_map(f64::from),
        (-7i32..50).prop_map(|n| f64::from(n) + 0.5),
        Just(f64::NEG_INFINITY),
        Just(f64::INFINITY),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The binary-search queries answer exactly what the linear scans they
    /// replaced answered — for probes on an endpoint, across a gap, inverted
    /// (`lo > hi`), infinite, and against the empty set alike.
    #[test]
    fn interval_queries_match_their_linear_definitions(
        set in span_set_strategy(),
        probes in prop::collection::vec((coordinate_strategy(), coordinate_strategy()), 1..40),
    ) {
        let spans = set.spans();
        for (lo, hi) in probes {
            prop_assert_eq!(
                set.contains(lo),
                spans.iter().any(|&(a, b)| a <= lo && lo <= b),
                "contains({}) on {:?}", lo, spans
            );
            prop_assert_eq!(
                set.contains_interval(lo, hi),
                spans.iter().any(|&(a, b)| a <= lo && hi <= b),
                "contains_interval({}, {}) on {:?}", lo, hi, spans
            );
            prop_assert_eq!(
                set.overlaps(lo, hi),
                lo <= hi && spans.iter().any(|&(a, b)| a <= hi && lo <= b),
                "overlaps({}, {}) on {:?}", lo, hi, spans
            );
        }
    }
}
