//! Soundness oracle for the injection check (ROADMAP, Soundness (a)).
//!
//! `check_experiment` answers every injection from a per-experiment index
//! (see the "Cost" section of `loki_analysis::checker`). The reference in
//! this file is the algorithm that index replaced, kept naive on purpose:
//! for **each** injection it walks every event for the machine's own state,
//! rebuilds each atom's truth regions from every interval, and scans the
//! spans linearly — no index, no memo, no binary search.
//!
//! One line of it is not the replaced code's: that code took a machine's
//! own state from the last of its state-setting events in *global-timeline*
//! order, which is record order only while the machine's clock never steps
//! backwards. The checker's contract is record order ("its own,
//! totally-ordered timeline"); the reference states that contract the slow
//! way, and the unit test `own_state_follows_record_order_not_global_order`
//! pins the case where the two differ.

use loki_analysis::checker::{
    check_experiment, ExperimentVerdict, InjectionCheck, MissingPolicy, Verdict,
};
use loki_analysis::global::{GlobalEvent, GlobalEventKind, GlobalTimeline, StateInterval};
use loki_analysis::intervals::IntervalSet;
use loki_core::fault::{CompiledExpr, FaultExpr, Trigger};
use loki_core::ids::{FaultId, HostId, SmId, StateId, SymbolTable};
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_core::time::{GlobalNanos, TimeBounds};
use proptest::prelude::*;
use std::sync::Arc;

// --- the reference ---------------------------------------------------------

/// `(definite, possible)` regions of one atom, from every interval, each
/// bound read straight off the event the interval names.
fn ref_atom(gt: &GlobalTimeline, sm: SmId, state: StateId, end: f64) -> (IntervalSet, IntervalSet) {
    let of_atom = || {
        gt.intervals
            .iter()
            .filter(move |iv| iv.sm == sm && iv.state == state)
    };
    let enter = |iv: &StateInterval| gt.events[iv.enter as usize].bounds;
    let exit = |iv: &StateInterval| match iv.exit {
        StateInterval::OPEN => (end, end),
        at => {
            let x = gt.events[at as usize].bounds;
            (x.lo.as_f64(), x.hi.as_f64())
        }
    };
    (
        IntervalSet::from_spans(
            of_atom()
                .map(|iv| (enter(iv).hi.as_f64(), exit(iv).0))
                .collect(),
        ),
        IntervalSet::from_spans(
            of_atom()
                .map(|iv| (enter(iv).lo.as_f64(), exit(iv).1))
                .collect(),
        ),
    )
}

/// `(definite, possible)` regions of an expression, every atom afresh.
fn ref_expr(gt: &GlobalTimeline, expr: &CompiledExpr, w: (f64, f64)) -> (IntervalSet, IntervalSet) {
    match expr {
        CompiledExpr::Atom(sm, state) => ref_atom(gt, *sm, *state, w.1),
        CompiledExpr::And(a, b) => {
            let ((da, pa), (db, pb)) = (ref_expr(gt, a, w), ref_expr(gt, b, w));
            (da.intersect(&db), pa.intersect(&pb))
        }
        CompiledExpr::Or(a, b) => {
            let ((da, pa), (db, pb)) = (ref_expr(gt, a, w), ref_expr(gt, b, w));
            (da.union(&db), pa.union(&pb))
        }
        CompiledExpr::Not(a) => {
            let (d, p) = ref_expr(gt, a, w);
            (p.complement(w.0, w.1), d.complement(w.0, w.1))
        }
    }
}

/// The state `sm` was in just before its record `record_index`: a walk over
/// every event of every machine, keeping the state-setting record of `sm`
/// with the greatest record index below `record_index`.
fn ref_own_state(study: &Study, gt: &GlobalTimeline, sm: SmId, record_index: u32) -> StateId {
    let mut latest: Option<(u32, StateId)> = None;
    for e in gt
        .events
        .iter()
        .filter(|e| e.sm == sm && e.record_index < record_index)
    {
        let state = match e.kind {
            GlobalEventKind::StateChange { new_state, .. } => new_state,
            GlobalEventKind::Restart { .. } => study.reserved.begin,
            _ => continue,
        };
        if latest.is_none_or(|(r, _)| r <= e.record_index) {
            latest = Some((e.record_index, state));
        }
    }
    latest.map_or(study.reserved.begin, |(_, state)| state)
}

/// Three-valued "did `expr` hold at `inj`": `None` is unknown.
fn ref_holds(
    study: &Study,
    gt: &GlobalTimeline,
    inj: &GlobalEvent,
    expr: &CompiledExpr,
    w: (f64, f64),
) -> Option<bool> {
    match expr {
        CompiledExpr::Atom(sm, state) if *sm == inj.sm => {
            Some(ref_own_state(study, gt, *sm, inj.record_index) == *state)
        }
        CompiledExpr::Atom(sm, state) => {
            let (definite, possible) = ref_atom(gt, *sm, *state, w.1);
            let (lo, hi) = (inj.bounds.lo.as_f64(), inj.bounds.hi.as_f64());
            if definite.spans().iter().any(|&(a, b)| a <= lo && hi <= b) {
                Some(true)
            } else if !possible.spans().iter().any(|&(a, b)| a <= hi && lo <= b) {
                Some(false)
            } else {
                None
            }
        }
        CompiledExpr::And(a, b) => {
            match (
                ref_holds(study, gt, inj, a, w),
                ref_holds(study, gt, inj, b, w),
            ) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            }
        }
        CompiledExpr::Or(a, b) => {
            match (
                ref_holds(study, gt, inj, a, w),
                ref_holds(study, gt, inj, b, w),
            ) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            }
        }
        CompiledExpr::Not(a) => ref_holds(study, gt, inj, a, w).map(|held| !held),
    }
}

/// The whole check, one injection at a time.
fn ref_check(study: &Study, gt: &GlobalTimeline, policy: MissingPolicy) -> ExperimentVerdict {
    let w = (gt.start.as_f64() - 1.0, gt.end.as_f64() + 1.0);
    let mut injected = vec![0usize; study.faults.len()];
    let mut checks = Vec::new();
    for (event, fault_id) in gt.injections() {
        let fault = &study.faults[fault_id.index()];
        injected[fault_id.index()] += 1;
        let verdict = match ref_holds(study, gt, event, &fault.expr, w) {
            Some(true) => Verdict::Correct,
            _ => Verdict::Incorrect {
                reason: format!(
                    "injection bounds {} not provably within a true region of `{}`",
                    event.bounds, fault.name
                ),
            },
        };
        checks.push(InjectionCheck {
            fault: fault_id,
            sm: event.sm,
            bounds: event.bounds,
            verdict,
        });
    }
    let mut missing = Vec::new();
    let judged: &[_] = match policy {
        MissingPolicy::Fail => &study.faults,
        MissingPolicy::Ignore => &[],
    };
    for fault in judged {
        let (definite, possible) = ref_expr(gt, &fault.expr, w);
        let definitely_false = possible.complement(w.0, w.1);
        let (mut edges, mut prev_hi) = (0usize, w.0);
        for &(lo, hi) in definite.spans() {
            let probe = (prev_hi, lo);
            let refuted = |&(a, b): &(f64, f64)| a <= probe.1 && probe.0 <= b;
            if probe.0 <= probe.1 && definitely_false.spans().iter().any(refuted) {
                edges += 1;
            }
            prev_hi = hi;
        }
        let expected = match fault.trigger {
            Trigger::Once => edges.min(1),
            Trigger::Always => edges,
        };
        if injected[fault.id.index()] < expected {
            missing.push(fault.id);
        }
    }
    let accepted = checks.iter().all(|c| c.verdict == Verdict::Correct) && missing.is_empty();
    ExperimentVerdict {
        checks,
        missing,
        accepted,
    }
}

// --- generated experiments -------------------------------------------------

const MACHINES: usize = 5;
const STATES: [&str; 4] = ["S0", "S1", "S2", "S3"];
const MAX_INJECTIONS: usize = 200;

/// One fault: owner, expression, `always`?
type FaultShape = (usize, FaultExpr, bool);
/// One record: kind selector (9 restart; below the case's injection
/// density, and while the case has fewer than [`MAX_INJECTIONS`], an
/// injection; otherwise a state change), state entered, fault injected
/// (modulo the fault count), local-time step (negative: the clock stepped
/// backwards) and clock-bound width as a fraction of the case's widest.
type RecordShape = (u32, usize, usize, f64, f64);

/// Everything one case is built from.
#[derive(Debug)]
struct Case {
    study: Study,
    gt: GlobalTimeline,
    policy: MissingPolicy,
}

fn expr_strategy(depth: u32) -> BoxedStrategy<FaultExpr> {
    // BEGIN is where `Restart` puts a machine back.
    let atom = (0..MACHINES, 0..STATES.len() + 1).prop_map(|(m, s)| {
        FaultExpr::atom(&format!("m{m}"), STATES.get(s).copied().unwrap_or("BEGIN"))
    });
    if depth == 0 {
        return atom.boxed();
    }
    let sub = expr_strategy(depth - 1);
    prop_oneof![
        atom,
        (sub.clone(), sub.clone()).prop_map(|(a, b)| a.and(b)),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| a.or(b)),
        sub.prop_map(FaultExpr::not),
    ]
    .boxed()
}

fn case_strategy() -> impl Strategy<Value = Case> {
    let fault = (0..MACHINES, expr_strategy(3), any::<bool>());
    // Mostly forward steps of up to 30: a state visit lasts a few of them.
    let step = prop_oneof![0.0..30.0, 0.0..30.0, 0.0..30.0, -25.0..0.0];
    let record = (0u32..10, 0..STATES.len(), 0usize..8, step, 0.0..=1.0);
    let timelines = prop::collection::vec(prop::collection::vec(record, 0..=100), 1..=MACHINES);
    // Per case: how many of the nine non-restart selectors inject, the
    // widest clock bound — exact, narrow, or wider than a state visit — and
    // whether clocks may step backwards at all.
    let regime = (
        0u32..=6,
        prop_oneof![Just(0.0), Just(2.0), Just(80.0)],
        any::<bool>(),
    );
    (
        prop::collection::vec(fault, 1..=4),
        timelines,
        regime,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(faults, timelines, regime, scatter_intervals, fail_on_missing)| {
                let study = study_of(&faults);
                let gt = timeline_of(&study, &timelines, regime, scatter_intervals);
                let policy = if fail_on_missing {
                    MissingPolicy::Fail
                } else {
                    MissingPolicy::Ignore
                };
                Case { study, gt, policy }
            },
        )
}

/// Five machines `m0..m4` over the same four states (a case gives only
/// some of them a timeline), and the generated faults `f0..`.
fn study_of(faults: &[FaultShape]) -> Study {
    let mut def = StudyDef::new("oracle");
    for m in 0..MACHINES {
        let mut spec = StateMachineSpec::builder(&format!("m{m}"))
            .states(&STATES)
            .events(&["GO"]);
        for state in STATES {
            spec = spec.state(state, &[], &[("GO", state)]);
        }
        def = def.machine(spec.build());
    }
    for (k, (owner, expr, always)) in faults.iter().enumerate() {
        let trigger = if *always {
            Trigger::Always
        } else {
            Trigger::Once
        };
        def = def.fault(
            &format!("m{owner}"),
            &format!("f{k}"),
            expr.clone(),
            trigger,
        );
    }
    Study::compile(&def).expect("generated study compiles")
}

/// Projects the record shapes the way `make_global` would: one event per
/// record, one interval per state-setting record pointing at the events
/// that opened and closed it, events ordered by midpoint with a stable
/// sort (its fallback when a clock steps backwards) and the intervals'
/// positions moved with them.
fn timeline_of(
    study: &Study,
    timelines: &[Vec<RecordShape>],
    (density, widest, backwards): (u32, f64, bool),
    scatter: bool,
) -> GlobalTimeline {
    let go = study.events.lookup("GO").expect("declared");
    let states: Vec<StateId> = STATES
        .iter()
        .map(|s| study.states.lookup(s).expect("declared"))
        .collect();
    let mut events = Vec::new();
    let mut intervals = Vec::new();
    let mut injections = 0;
    for (m, records) in timelines.iter().enumerate() {
        let sm = study.sm_id(&format!("m{m}")).expect("declared");
        let mut t = 10.0 * m as f64;
        let mut current = study.reserved.begin;
        let mut open: Option<(StateId, u32)> = None;
        for (record_index, &(kind, state, fault, step, width)) in (0..).zip(records) {
            // Whole numbers, so that bounds often meet end to end exactly.
            t += if backwards { step } else { step.abs() }.round();
            let hi = t + (width * widest).round();
            let bounds = TimeBounds::new(GlobalNanos(t), GlobalNanos(hi));
            let injects = kind < density && injections < MAX_INJECTIONS;
            injections += usize::from(injects);
            let entered = match kind {
                9 => Some(study.reserved.begin),
                _ if injects => None,
                _ => Some(states[state]),
            };
            let position = events.len() as u32;
            if let Some(entered) = entered {
                if let Some((state, enter)) = open.replace((entered, position)) {
                    intervals.push(StateInterval {
                        sm,
                        state,
                        enter,
                        exit: position,
                    });
                }
            }
            let kind = match kind {
                9 => {
                    current = study.reserved.begin;
                    GlobalEventKind::Restart {
                        host: HostId::from_raw(0),
                    }
                }
                _ if injects => GlobalEventKind::Injection {
                    fault: FaultId::from_raw((fault % study.faults.len()) as u32),
                },
                _ => GlobalEventKind::StateChange {
                    event: go,
                    from_state: std::mem::replace(&mut current, states[state]),
                    new_state: states[state],
                },
            };
            events.push(GlobalEvent {
                sm,
                kind,
                bounds,
                record_index,
            });
        }
        if let Some((state, enter)) = open {
            intervals.push(StateInterval {
                sm,
                state,
                enter,
                exit: StateInterval::OPEN,
            });
        }
    }
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by(|&a, &b| events[a].bounds.mid().total_cmp(&events[b].bounds.mid()));
    let mut moved_to = vec![0u32; events.len()];
    for (dst, &src) in (0..).zip(&order) {
        moved_to[src] = dst;
    }
    for iv in &mut intervals {
        iv.enter = moved_to[iv.enter as usize];
        if iv.exit != StateInterval::OPEN {
            iv.exit = moved_to[iv.exit as usize];
        }
    }
    let events: Vec<GlobalEvent> = order.iter().map(|&src| events[src].clone()).collect();
    if scatter {
        // One machine's intervals no longer sit next to each other.
        let mid = |iv: &StateInterval| events[iv.enter as usize].bounds.mid();
        intervals.sort_by(|a, b| mid(a).total_cmp(&mid(b)));
    }
    let lo = events
        .iter()
        .map(|e| e.bounds.lo.as_f64())
        .fold(f64::INFINITY, f64::min);
    let hi = events
        .iter()
        .map(|e| e.bounds.hi.as_f64())
        .fold(f64::NEG_INFINITY, f64::max);
    let (lo, hi) = if events.is_empty() {
        (0.0, 0.0)
    } else {
        (lo, hi)
    };
    GlobalTimeline {
        events,
        intervals,
        start: GlobalNanos(lo),
        end: GlobalNanos(hi),
        alpha_beta: Vec::new(),
        reference_host: HostId::from_raw(0),
        symbols: Arc::new(SymbolTable::for_hosts(["ref"])),
    }
}

/// Whether some machine's events are out of record order on the timeline.
fn out_of_record_order(gt: &GlobalTimeline) -> bool {
    (0..MACHINES as u32).any(|m| {
        let of_machine = gt.events.iter().filter(|e| e.sm == SmId::from_raw(m));
        !of_machine.is_sorted_by_key(|e| e.record_index)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The indexed check returns the reference's whole verdict — every
    /// check with its reason, `missing`, `accepted` — on every generated
    /// experiment. The consequence that matters is one-sided: Loki never
    /// accepts an experiment the per-injection reference rejects, and never
    /// calls an injection correct that the reference cannot prove.
    #[test]
    fn indexed_check_equals_the_per_injection_reference(case in case_strategy()) {
        let Case { study, gt, policy } = case;
        let verdict = check_experiment(&study, &gt, policy);
        let reference = ref_check(&study, &gt, policy);
        prop_assert!(!verdict.accepted || reference.accepted, "accepted what the reference rejects");
        prop_assert_eq!(verdict, reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// The property above is only as strong as its inputs: a batch of
    /// generated cases must reach every shape the oracle is meant to cover.
    #[test]
    fn generated_cases_reach_every_shape(cases in prop::collection::vec(case_strategy(), 300)) {
        let verdicts: Vec<ExperimentVerdict> = cases
            .iter()
            .map(|c| check_experiment(&c.study, &c.gt, c.policy))
            .collect();
        let injections = |v: &ExperimentVerdict| v.checks.len();
        let count = |hit: &dyn Fn(&Case, &ExperimentVerdict) -> bool| {
            cases.iter().zip(&verdicts).filter(|(c, v)| hit(c, v)).count()
        };
        prop_assert!(count(&|_, v| injections(v) == 0) > 0, "no case without injections");
        prop_assert!(count(&|_, v| injections(v) >= 150) > 0, "no case with 150+ injections");
        prop_assert!(verdicts.iter().all(|v| injections(v) <= 200));
        prop_assert!(count(&|_, v| v.accepted && injections(v) > 0) > 0, "nothing accepted");
        prop_assert!(count(&|_, v| !v.accepted) > 0, "nothing rejected");
        prop_assert!(count(&|_, v| !v.missing.is_empty()) > 0, "nothing missing");
        prop_assert!(
            count(&|_, v| v.correct_count() > 0 && v.correct_count() < injections(v)) > 0,
            "no mixed verdicts"
        );
        prop_assert!(count(&|c, _| out_of_record_order(&c.gt)) > 0, "always in record order");
        prop_assert!(count(&|c, _| !out_of_record_order(&c.gt)) > 0, "never in record order");
        let has_restart = |c: &Case| {
            c.gt.events.iter().any(|e| matches!(e.kind, GlobalEventKind::Restart { .. }))
        };
        prop_assert!(count(&|c, _| has_restart(c)) > 0, "no restart");
    }
}
