//! Predicate value timelines (§4.3.1).
//!
//! The outcome of a predicate applied to the global timeline is a Boolean
//! function of time containing "a combination of impulses and steps": state
//! tuples contribute *step* regions (true while a machine occupies a
//! state), event tuples contribute *impulses* (true at the instant an event
//! occurs). Following the thesis's Figure 4.2 footnote, predicates are
//! evaluated at the *mean* of each event's two global-time bounds, so the
//! timeline is built over exact instants.
//!
//! Representation: a step function (union of disjoint true spans) plus a
//! set of impulse instants at which the value is true although the
//! surrounding step is false. Negation inverts the step function and drops
//! impulse instants (a measure-zero approximation documented on
//! [`PredicateTimeline::negate`]).

use loki_analysis::intervals::IntervalSet;

/// Direction of a value transition.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TransKind {
    /// false → true.
    Up,
    /// true → false.
    Down,
}

/// Whether a transition belongs to an impulse or a step.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TransSource {
    /// Part of an instantaneous impulse (an up and a down at one instant).
    Impulse,
    /// An edge of a step region.
    Step,
}

/// One transition of a predicate value timeline.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Transition {
    /// Global time of the transition, in nanoseconds.
    pub at: f64,
    /// Direction.
    pub kind: TransKind,
    /// Impulse or step.
    pub source: TransSource,
}

/// A predicate's value over global time.
#[derive(Clone, Debug, PartialEq)]
pub struct PredicateTimeline {
    /// Evaluation window `(start, end)` in nanoseconds (the experiment
    /// window unless restricted).
    pub window: (f64, f64),
    steps: IntervalSet,
    impulses: Vec<f64>,
}

impl PredicateTimeline {
    /// A timeline that is false everywhere in `window`.
    pub fn never(window: (f64, f64)) -> Self {
        PredicateTimeline {
            window,
            steps: IntervalSet::empty(),
            impulses: Vec::new(),
        }
    }

    /// Builds a timeline from step spans and impulse instants. Impulses
    /// falling inside a true span are absorbed by it.
    pub fn new(window: (f64, f64), steps: IntervalSet, mut impulses: Vec<f64>) -> Self {
        impulses.retain(|&t| !steps.contains(t));
        impulses.sort_by(f64::total_cmp);
        impulses.dedup();
        PredicateTimeline {
            window,
            steps,
            impulses,
        }
    }

    /// The step spans.
    pub fn steps(&self) -> &IntervalSet {
        &self.steps
    }

    /// The impulse instants.
    pub fn impulses(&self) -> &[f64] {
        &self.impulses
    }

    /// The predicate value at instant `t`.
    pub fn value_at(&self, t: f64) -> bool {
        self.steps.contains(t) || self.impulses.binary_search_by(|x| x.total_cmp(&t)).is_ok()
    }

    /// Conjunction of two timelines.
    pub fn and(&self, other: &PredicateTimeline) -> PredicateTimeline {
        let steps = self.steps.intersect(&other.steps);
        let mut impulses = Vec::new();
        for &t in &self.impulses {
            if other.value_at(t) {
                impulses.push(t);
            }
        }
        for &t in &other.impulses {
            if self.value_at(t) {
                impulses.push(t);
            }
        }
        PredicateTimeline::new(self.window, steps, impulses)
    }

    /// Disjunction of two timelines.
    pub fn or(&self, other: &PredicateTimeline) -> PredicateTimeline {
        let steps = self.steps.union(&other.steps);
        let mut impulses = self.impulses.clone();
        impulses.extend_from_slice(&other.impulses);
        PredicateTimeline::new(self.window, steps, impulses)
    }

    /// Negation: inverts the step function within the window.
    ///
    /// Impulse instants (isolated true instants) are dropped from the
    /// negation rather than becoming isolated *false* instants inside true
    /// regions; the difference has measure zero and does not affect
    /// durations, but transition counts over the negated timeline ignore
    /// them.
    pub fn negate(&self) -> PredicateTimeline {
        let steps = self.steps.complement(self.window.0, self.window.1);
        PredicateTimeline::new(self.window, steps, Vec::new())
    }

    /// All transitions in time order, as a lazy iterator (no allocation —
    /// observation functions walk this on every evaluation). A step region
    /// contributes an up edge at its start and a down edge at its end; an
    /// impulse contributes an up and a down at its instant. A span touching
    /// the window boundary still yields its edge (the value before the
    /// experiment is false). Ups sort before downs at equal instants.
    pub fn transitions(&self) -> Transitions<'_> {
        Transitions {
            spans: self.steps.spans(),
            span_idx: 0,
            pending_downs: std::collections::VecDeque::new(),
            impulses: &self.impulses,
            imp_idx: 0,
            imp_down: None,
        }
    }

    /// Duration (ns) for which the value stays true starting at `t` (zero
    /// if false at `t`; zero for an impulse).
    pub fn true_run_after(&self, t: f64) -> f64 {
        self.steps
            .spans()
            .iter()
            .find(|&&(lo, hi)| lo <= t && t <= hi)
            .map(|&(_, hi)| hi - t)
            .unwrap_or(0.0)
    }

    /// Duration (ns) for which the value stays false starting at `t`.
    ///
    /// The instant `t` itself may be the closing edge of a true span (a
    /// down transition): the run is measured from `t` to the next
    /// false→true transition (step start or impulse).
    pub fn false_run_after(&self, t: f64) -> f64 {
        if self.steps.spans().iter().any(|&(lo, hi)| lo <= t && t < hi) {
            return 0.0;
        }
        // The false run ends at the next step span start (impulses are
        // instantaneous and do not end a false run's measure, but the
        // thesis's duration(F, ...) measures time until the next
        // false→true transition, which an impulse is).
        let next_step = self
            .steps
            .spans()
            .iter()
            .map(|&(lo, _)| lo)
            .find(|&lo| lo > t);
        let next_impulse = self.impulses.iter().copied().find(|&i| i > t);
        let end = match (next_step, next_impulse) {
            (Some(s), Some(i)) => s.min(i),
            (Some(s), None) => s,
            (None, Some(i)) => i,
            (None, None) => self.window.1,
        };
        (end - t).max(0.0)
    }

    /// Total time (ns) the value is true within `[lo, hi]` (impulses have
    /// measure zero).
    pub fn total_true(&self, lo: f64, hi: f64) -> f64 {
        self.steps
            .intersect(&IntervalSet::from_spans(vec![(lo, hi)]))
            .total_length()
    }
}

/// Lazy, allocation-free iterator over a timeline's transitions in time
/// order (see [`PredicateTimeline::transitions`]).
///
/// Merges two already-sorted edge streams: step-span edges (spans are
/// sorted and non-overlapping, so their `up, down, up, down, …` edge
/// sequence is non-decreasing — with the one wrinkle that a span *touching*
/// its successor yields the successor's up edge before its own down edge,
/// matching the ups-before-downs ordering) and impulse edges (an up and a
/// down per instant). Impulses absorbed by steps were dropped at
/// construction, so the two streams never tie; a defensive tie-break still
/// orders step edges first.
#[derive(Clone, Debug)]
pub struct Transitions<'a> {
    spans: &'a [(f64, f64)],
    span_idx: usize,
    /// Down edges of spans whose up edge is out but whose down edge is
    /// deferred behind a touching successor's up edge. Non-decreasing.
    pending_downs: std::collections::VecDeque<f64>,
    impulses: &'a [f64],
    imp_idx: usize,
    /// The down half of the impulse whose up half was just emitted.
    imp_down: Option<f64>,
}

impl Transitions<'_> {
    /// The next step edge, honouring ups-before-downs at equal instants: a
    /// touching successor's up edge goes before a pending down edge at the
    /// same instant.
    fn peek_step(&self) -> Option<(f64, TransKind)> {
        match (self.pending_downs.front(), self.spans.get(self.span_idx)) {
            (Some(&down), Some(&(lo, _))) if lo <= down => Some((lo, TransKind::Up)),
            (Some(&down), _) => Some((down, TransKind::Down)),
            (None, Some(&(lo, _))) => Some((lo, TransKind::Up)),
            (None, None) => None,
        }
    }

    /// Consumes the step edge of `kind` that [`Transitions::peek_step`]
    /// returned.
    fn advance_step(&mut self, kind: TransKind) {
        match kind {
            TransKind::Down => {
                self.pending_downs.pop_front();
            }
            TransKind::Up => {
                if let Some(&(_, hi)) = self.spans.get(self.span_idx) {
                    self.span_idx += 1;
                    self.pending_downs.push_back(hi);
                }
            }
        }
    }

    fn peek_impulse(&self) -> Option<(f64, TransKind)> {
        match self.imp_down {
            Some(t) => Some((t, TransKind::Down)),
            None => self.impulses.get(self.imp_idx).map(|&t| (t, TransKind::Up)),
        }
    }

    /// Consumes the impulse edge that [`Transitions::peek_impulse`]
    /// returned.
    fn advance_impulse(&mut self, (at, kind): (f64, TransKind)) {
        match kind {
            TransKind::Down => self.imp_down = None,
            TransKind::Up => {
                self.imp_idx += 1;
                self.imp_down = Some(at);
            }
        }
    }
}

impl Iterator for Transitions<'_> {
    type Item = Transition;

    fn next(&mut self) -> Option<Transition> {
        /// Up edges order before down edges at equal instants.
        fn rank(kind: TransKind) -> u8 {
            match kind {
                TransKind::Up => 0,
                TransKind::Down => 1,
            }
        }
        let (edge, source) = match (self.peek_step(), self.peek_impulse()) {
            (None, None) => return None,
            (Some(step), None) => (step, TransSource::Step),
            (None, Some(impulse)) => (impulse, TransSource::Impulse),
            (Some(step), Some(impulse)) => {
                if (step.0, rank(step.1)) <= (impulse.0, rank(impulse.1)) {
                    (step, TransSource::Step)
                } else {
                    (impulse, TransSource::Impulse)
                }
            }
        };
        match source {
            TransSource::Step => self.advance_step(edge.1),
            TransSource::Impulse => self.advance_impulse(edge),
        }
        let (at, kind) = edge;
        Some(Transition { at, kind, source })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl(steps: &[(f64, f64)], impulses: &[f64]) -> PredicateTimeline {
        PredicateTimeline::new(
            (0.0, 100.0),
            IntervalSet::from_spans(steps.to_vec()),
            impulses.to_vec(),
        )
    }

    #[test]
    fn value_at_checks_steps_and_impulses() {
        let t = tl(&[(10.0, 20.0)], &[5.0, 30.0]);
        assert!(t.value_at(15.0));
        assert!(t.value_at(5.0));
        assert!(t.value_at(30.0));
        assert!(!t.value_at(25.0));
    }

    #[test]
    fn impulses_inside_steps_are_absorbed() {
        let t = tl(&[(10.0, 20.0)], &[15.0, 25.0]);
        assert_eq!(t.impulses(), &[25.0]);
    }

    #[test]
    fn and_or_combine() {
        let a = tl(&[(10.0, 30.0)], &[50.0]);
        let b = tl(&[(20.0, 40.0)], &[50.0, 25.0]);
        let and = a.and(&b);
        assert_eq!(and.steps().spans(), &[(20.0, 30.0)]);
        // 50 is an impulse on both sides; b's impulse at 25 was absorbed by
        // b's own step, so 25 lies in the continuous intersection region.
        assert_eq!(and.impulses(), &[50.0]);
        let or = a.or(&b);
        assert_eq!(or.steps().spans(), &[(10.0, 40.0)]);
        assert_eq!(or.impulses(), &[50.0]);
    }

    #[test]
    fn negate_inverts_steps() {
        let a = tl(&[(10.0, 30.0)], &[50.0]);
        let n = a.negate();
        assert_eq!(n.steps().spans(), &[(0.0, 10.0), (30.0, 100.0)]);
        assert!(n.impulses().is_empty());
        assert!(n.value_at(5.0));
        assert!(!n.value_at(20.0));
    }

    #[test]
    fn transitions_ordered_with_sources() {
        let t = tl(&[(10.0, 20.0)], &[5.0]);
        let trans: Vec<Transition> = t.transitions().collect();
        assert_eq!(trans.len(), 4);
        assert_eq!(trans[0].at, 5.0);
        assert_eq!(trans[0].kind, TransKind::Up);
        assert_eq!(trans[0].source, TransSource::Impulse);
        assert_eq!(trans[1].at, 5.0);
        assert_eq!(trans[1].kind, TransKind::Down);
        assert_eq!(trans[2].at, 10.0);
        assert_eq!(trans[2].source, TransSource::Step);
    }

    #[test]
    fn runs_and_totals() {
        let t = tl(&[(10.0, 20.0), (40.0, 60.0)], &[30.0]);
        assert_eq!(t.true_run_after(10.0), 10.0);
        assert_eq!(t.true_run_after(15.0), 5.0);
        assert_eq!(t.true_run_after(30.0), 0.0); // impulse
        assert_eq!(t.false_run_after(20.0), 10.0); // until impulse at 30
        assert_eq!(t.false_run_after(30.0), 10.0); // until next span at 40
        assert_eq!(t.total_true(0.0, 100.0), 30.0);
        assert_eq!(t.total_true(15.0, 45.0), 10.0);
    }

    #[test]
    fn never_is_false_everywhere() {
        let t = PredicateTimeline::never((0.0, 10.0));
        assert!(!t.value_at(5.0));
        assert_eq!(t.transitions().count(), 0);
        assert_eq!(t.false_run_after(3.0), 7.0);
    }

    /// The lazy iterator must match the eager collect-and-sort it
    /// replaced: sorted by instant, ups before downs at equal instants —
    /// including the touching-span edges an `and` of adjacent regions can
    /// produce (where a span's down edge coincides with its successor's up
    /// edge).
    #[test]
    fn transitions_iterator_matches_sorted_order() {
        let cases: Vec<PredicateTimeline> = vec![
            tl(&[(10.0, 20.0), (40.0, 60.0)], &[5.0, 30.0, 70.0]),
            tl(&[], &[1.0, 2.0, 3.0]),
            tl(&[(0.0, 100.0)], &[]),
            // Touching spans, built without from_spans' merging.
            PredicateTimeline::new(
                (0.0, 100.0),
                IntervalSet::from_spans(vec![(0.0, 50.0)])
                    .intersect(&IntervalSet::from_spans(vec![(10.0, 20.0), (20.0, 30.0)])),
                vec![60.0],
            ),
        ];
        for t in &cases {
            let got: Vec<Transition> = t.transitions().collect();
            // The reference order: eager collection + stable sort.
            let mut expect = Vec::new();
            for &(lo, hi) in t.steps().spans() {
                expect.push(Transition {
                    at: lo,
                    kind: TransKind::Up,
                    source: TransSource::Step,
                });
                expect.push(Transition {
                    at: hi,
                    kind: TransKind::Down,
                    source: TransSource::Step,
                });
            }
            for &at in t.impulses() {
                expect.push(Transition {
                    at,
                    kind: TransKind::Up,
                    source: TransSource::Impulse,
                });
                expect.push(Transition {
                    at,
                    kind: TransKind::Down,
                    source: TransSource::Impulse,
                });
            }
            expect.sort_by(|a, b| {
                a.at.total_cmp(&b.at).then_with(|| match (a.kind, b.kind) {
                    (TransKind::Up, TransKind::Down) => std::cmp::Ordering::Less,
                    (TransKind::Down, TransKind::Up) => std::cmp::Ordering::Greater,
                    _ => std::cmp::Ordering::Equal,
                })
            });
            assert_eq!(got, expect, "steps {:?}", t.steps().spans());
        }
    }
}
