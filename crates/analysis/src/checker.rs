//! The conservative fault-injection correctness check (§2.5).
//!
//! For every recorded injection, the checker verifies — using only the
//! guaranteed time bounds of the global timeline — that the injection
//! provably occurred while its fault expression held:
//!
//! * "the upper bound of the state start time and lower bound of the fault
//!   injection time are used to determine whether the fault was injected
//!   after the state was entered. Likewise, the lower bound of the state
//!   end time and upper bound of the fault injection time are used to
//!   determine whether the fault was injected before the state was exited."
//!
//! Generalized to arbitrary Boolean expressions: an atom `(sm:state)` is
//! *definitely true* during `[enter.hi, exit.lo]` of an occupancy interval
//! and *possibly true* during `[enter.lo, exit.hi]`; conjunction intersects,
//! disjunction unions, and negation complements the *possible* set. An
//! injection is correct iff its whole `[lo, hi]` interval lies within a
//! definitely-true region. The check is deliberately conservative: an
//! injection it cannot prove correct is treated as incorrect and the whole
//! experiment is discarded (§2.5).
//!
//! # Cost
//!
//! With `always` faults (§3.5.5) an experiment carries hundreds of
//! injections, so nothing that depends on the timeline alone is computed
//! per injection. [`check_experiment`] keeps one index per call, local to
//! it, each part built at its first query: a machine's state-setting
//! records (`StateChange`, `Restart`) as a `(record_index, state)` list in
//! record order — one pass over the events, at the machine's first
//! own-state question — and a distinct atom's [`Truth`] — one pass over the
//! intervals, at the atom's first use, then shared by every injection and
//! by the missing-injection pass. After that an injection pays one binary
//! search per atom of its expression: `partition_point` over its machine's
//! records for an atom about itself, over the atom's disjoint spans
//! ([`IntervalSet::contains_interval`], [`IntervalSet::overlaps`]) for an
//! atom about another machine. With `E` events, `N` intervals, `M`
//! injecting machines, `A` distinct atoms and `I` injections that is
//! `O(M·E + A·N + I·log)` where per-injection recomputation was
//! `O(I·(E + N))`. An experiment without injections builds nothing, and one
//! whose injections only ask about other machines never reads the events.
//! `tests/prop_checker.rs` holds the per-injection algorithm as the
//! reference the indexed one is compared against.

use crate::global::{GlobalEvent, GlobalEventKind, GlobalTimeline};
use crate::intervals::IntervalSet;
use loki_core::fault::{CompiledExpr, Trigger};
use loki_core::ids::{FaultId, SmId, StateId};
use loki_core::study::Study;
use loki_core::time::TimeBounds;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Truth regions of an expression: definite and possible interval sets.
#[derive(Clone, Debug)]
pub struct Truth {
    /// Where the expression provably holds.
    pub definite: IntervalSet,
    /// Where the expression may hold.
    pub possible: IntervalSet,
}

/// Computes the truth regions of an atom `(sm:state)` from the global
/// timeline's occupancy intervals.
fn atom_truth(gt: &GlobalTimeline, sm: SmId, state: StateId, window: (f64, f64)) -> Truth {
    let mut definite = Vec::new();
    let mut possible = Vec::new();
    for iv in gt.intervals_of(sm) {
        if iv.state != state {
            continue;
        }
        let (exit_lo, exit_hi) = match gt.exit_of(iv) {
            Some(exit) => (exit.lo.as_f64(), exit.hi.as_f64()),
            None => (window.1, window.1),
        };
        let enter = gt.enter_of(iv);
        definite.push((enter.hi.as_f64(), exit_lo));
        possible.push((enter.lo.as_f64(), exit_hi));
    }
    Truth {
        definite: IntervalSet::from_spans(definite),
        possible: IntervalSet::from_spans(possible),
    }
}

/// What the check derives from one timeline alone, each part built on its
/// first query (see the module's "Cost" section).
struct TimelineIndex<'a> {
    gt: &'a GlobalTimeline,
    window: (f64, f64),
    /// Per machine queried so far: its state-setting records as
    /// `(record_index, state entered)`, ascending by record index.
    own: BTreeMap<SmId, Vec<(u32, StateId)>>,
    /// The truth regions of every atom queried so far.
    atoms: BTreeMap<(SmId, StateId), Rc<Truth>>,
}

impl<'a> TimelineIndex<'a> {
    fn new(gt: &'a GlobalTimeline, window: (f64, f64)) -> Self {
        TimelineIndex {
            gt,
            window,
            own: BTreeMap::new(),
            atoms: BTreeMap::new(),
        }
    }

    /// The truth regions of the atom `(sm:state)`, computed once.
    fn atom(&mut self, sm: SmId, state: StateId) -> &Rc<Truth> {
        let (gt, window) = (self.gt, self.window);
        self.atoms
            .entry((sm, state))
            .or_insert_with(|| Rc::new(atom_truth(gt, sm, state, window)))
    }

    /// The truth regions of a compiled fault expression.
    fn expr_truth(&mut self, expr: &CompiledExpr) -> Rc<Truth> {
        let window = self.window;
        match expr {
            CompiledExpr::Atom(sm, state) => Rc::clone(self.atom(*sm, *state)),
            CompiledExpr::And(a, b) => {
                let ta = self.expr_truth(a);
                let tb = self.expr_truth(b);
                Rc::new(Truth {
                    definite: ta.definite.intersect(&tb.definite),
                    possible: ta.possible.intersect(&tb.possible),
                })
            }
            CompiledExpr::Or(a, b) => {
                let ta = self.expr_truth(a);
                let tb = self.expr_truth(b);
                Rc::new(Truth {
                    definite: ta.definite.union(&tb.definite),
                    possible: ta.possible.union(&tb.possible),
                })
            }
            CompiledExpr::Not(a) => {
                let ta = self.expr_truth(a);
                Rc::new(Truth {
                    definite: ta.possible.complement(window.0, window.1),
                    possible: ta.definite.complement(window.0, window.1),
                })
            }
        }
    }

    /// The state machine `sm` occupied immediately before its record
    /// `record_index`, from its own, totally-ordered timeline: the state
    /// set by its last state-setting record below `record_index`, `BEGIN`
    /// when there is none (so also for a machine the study does not
    /// define). Record order decides, whatever order the machine's events
    /// have on the global timeline.
    fn own_state_at_record(&mut self, study: &Study, sm: SmId, record_index: u32) -> StateId {
        let gt = self.gt;
        let records = self.own.entry(sm).or_insert_with(|| {
            let mut records: Vec<(u32, StateId)> = gt
                .events
                .iter()
                .filter(|e| e.sm == sm)
                .filter_map(|e| match e.kind {
                    GlobalEventKind::StateChange { new_state, .. } => {
                        Some((e.record_index, new_state))
                    }
                    GlobalEventKind::Restart { .. } => Some((e.record_index, study.reserved.begin)),
                    _ => None,
                })
                .collect();
            // The merge in `make_global` keeps a machine's events in record
            // order; only its sort fallback (a clock stepping backwards) or
            // a hand-built timeline needs the sort.
            if !records.is_sorted_by_key(|&(r, _)| r) {
                records.sort_by_key(|&(r, _)| r);
            }
            records
        });
        let before = records.partition_point(|&(r, _)| r < record_index);
        records[..before]
            .last()
            .map_or(study.reserved.begin, |&(_, state)| state)
    }

    /// Whether `expr` provably held at the instant of `injection`.
    ///
    /// Atoms about the *injecting machine itself* are decided exactly from
    /// record order: the machine's own timeline orders its state changes
    /// and its injections on one clock, so "was I in state S when I
    /// injected?" has a definite answer regardless of clock-bound widths.
    /// Atoms about *other* machines fall back to the interval comparison of
    /// §2.5: definitely true iff the injection's whole bound interval lies
    /// within `[state-entry upper bound, state-exit lower bound]`,
    /// definitely false iff it misses every possible occupancy interval,
    /// unknown otherwise — and unknown is conservatively not-correct.
    fn holds_at(&mut self, study: &Study, injection: &GlobalEvent, expr: &CompiledExpr) -> Tri {
        match expr {
            CompiledExpr::Atom(sm, state) => {
                if *sm == injection.sm {
                    // Same process: decide by record order on one clock.
                    let current = self.own_state_at_record(study, *sm, injection.record_index);
                    if current == *state {
                        Tri::True
                    } else {
                        Tri::False
                    }
                } else {
                    let truth = self.atom(*sm, *state);
                    let (lo, hi) = (injection.bounds.lo.as_f64(), injection.bounds.hi.as_f64());
                    if truth.definite.contains_interval(lo, hi) {
                        Tri::True
                    } else if !truth.possible.overlaps(lo, hi) {
                        Tri::False
                    } else {
                        Tri::Unknown
                    }
                }
            }
            CompiledExpr::And(a, b) => self
                .holds_at(study, injection, a)
                .and(self.holds_at(study, injection, b)),
            CompiledExpr::Or(a, b) => self
                .holds_at(study, injection, a)
                .or(self.holds_at(study, injection, b)),
            CompiledExpr::Not(a) => self.holds_at(study, injection, a).not(),
        }
    }
}

/// Computes the truth regions of a compiled fault expression.
pub fn expr_truth(gt: &GlobalTimeline, expr: &CompiledExpr, window: (f64, f64)) -> Truth {
    let mut index = TimelineIndex::new(gt, window);
    let truth = index.expr_truth(expr);
    // A bare atom is still shared with the memo; let go of it first.
    drop(index);
    Rc::unwrap_or_clone(truth)
}

/// The verdict for one recorded injection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Provably injected while the expression held.
    Correct,
    /// Cannot be proven correct — treated as incorrect (conservative).
    Incorrect {
        /// Human-readable reason.
        reason: String,
    },
}

/// The check result for one injection occurrence.
#[derive(Clone, Debug, PartialEq)]
pub struct InjectionCheck {
    /// The fault injected.
    pub fault: FaultId,
    /// The machine whose probe injected it.
    pub sm: SmId,
    /// Global-time bounds of the injection.
    pub bounds: TimeBounds,
    /// The verdict.
    pub verdict: Verdict,
}

/// What to do about faults whose expression provably became true but which
/// were never injected ("each injection that *should* have been made",
/// §2.5).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum MissingPolicy {
    /// Missing injections invalidate the experiment (thesis behaviour).
    #[default]
    Fail,
    /// Only check the injections that actually happened.
    Ignore,
}

/// The verdict for a whole experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentVerdict {
    /// Per-injection checks, one per injection event in timeline order.
    pub checks: Box<[InjectionCheck]>,
    /// Faults with provably-missed injections (see [`MissingPolicy`]).
    pub missing: Box<[FaultId]>,
    /// Whether the experiment's results may be used for measures.
    pub accepted: bool,
}

impl ExperimentVerdict {
    /// Number of provably-correct injections.
    pub fn correct_count(&self) -> usize {
        self.checks
            .iter()
            .filter(|c| c.verdict == Verdict::Correct)
            .count()
    }

    /// Bytes of the heap blocks this verdict owns, each at the size
    /// requested from the allocator.
    pub(crate) fn heap_bytes(&self) -> usize {
        let reasons: usize = self
            .checks
            .iter()
            .map(|c| match &c.verdict {
                Verdict::Incorrect { reason } => reason.capacity(),
                Verdict::Correct => 0,
            })
            .sum();
        size_of_val::<[InjectionCheck]>(&self.checks)
            + size_of_val::<[FaultId]>(&self.missing)
            + reasons
    }
}

/// Checks every injection of an experiment against its fault specification.
///
/// The experiment is accepted iff **all** recorded injections are provably
/// correct and (under [`MissingPolicy::Fail`]) no injection provably went
/// missing. An injection of a fault the study does not define cannot be
/// proven correct either: it is reported as [`Verdict::Incorrect`] and the
/// experiment is not accepted.
pub fn check_experiment(
    study: &Study,
    gt: &GlobalTimeline,
    policy: MissingPolicy,
) -> ExperimentVerdict {
    // Pad the window so complements extend beyond the last event: a state
    // held at the end remains definitely-true at the final instants.
    let window = (gt.start.as_f64() - 1.0, gt.end.as_f64() + 1.0);
    let mut index = TimelineIndex::new(gt, window);

    // Exactly one check per injection.
    let mut checks = Vec::with_capacity(gt.injections().count());
    // Indexed by `FaultId`, like `study.faults`.
    let mut injected_counts: Vec<u32> = vec![0; study.faults.len()];
    for (event, fault_id) in gt.injections() {
        let known = study
            .faults
            .get(fault_id.index())
            .zip(injected_counts.get_mut(fault_id.index()));
        let verdict = match known {
            Some((fault, injected)) => {
                *injected += 1;
                if index.holds_at(study, event, &fault.expr) == Tri::True {
                    Verdict::Correct
                } else {
                    Verdict::Incorrect {
                        reason: format!(
                            "injection bounds {} not provably within a true region of `{}`",
                            event.bounds, fault.name
                        ),
                    }
                }
            }
            None => Verdict::Incorrect {
                reason: format!(
                    "injection bounds {} carry fault #{}, which the study does not define",
                    event.bounds,
                    fault_id.raw()
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

    // Provably-missed injections: count definite-true intervals that are
    // separated by definite-false regions — each such interval began with a
    // provable false→true edge the runtime should have acted on.
    let mut missing = Vec::new();
    if policy == MissingPolicy::Fail {
        for (fault, &injected) in study.faults.iter().zip(&injected_counts) {
            let truth = index.expr_truth(&fault.expr);
            let definitely_false = truth.possible.complement(window.0, window.1);
            // A false→true edge provably occurred before a definite-true
            // span iff the expression was provably false at some point
            // since the previous definite-true span (clock-uncertainty
            // bands in between do not refute the edge).
            let mut provable_edges = 0usize;
            let mut prev_hi = window.0;
            for &(lo, hi) in truth.definite.spans() {
                if definitely_false.overlaps(prev_hi, lo) {
                    provable_edges += 1;
                }
                prev_hi = hi;
            }
            let expected = match fault.trigger {
                Trigger::Once => provable_edges.min(1),
                Trigger::Always => provable_edges,
            };
            if (injected as usize) < expected {
                missing.push(fault.id);
            }
        }
    }

    let accepted = checks.iter().all(|c| c.verdict == Verdict::Correct) && missing.is_empty();
    ExperimentVerdict {
        checks: checks.into_boxed_slice(),
        missing: missing.into_boxed_slice(),
        accepted,
    }
}

/// Three-valued truth for the pointwise check.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Tri {
    True,
    False,
    Unknown,
}

impl Tri {
    fn not(self) -> Tri {
        match self {
            Tri::True => Tri::False,
            Tri::False => Tri::True,
            Tri::Unknown => Tri::Unknown,
        }
    }
    fn and(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::False, _) | (_, Tri::False) => Tri::False,
            (Tri::True, Tri::True) => Tri::True,
            _ => Tri::Unknown,
        }
    }
    fn or(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::True, _) | (_, Tri::True) => Tri::True,
            (Tri::False, Tri::False) => Tri::False,
            _ => Tri::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{make_global, GlobalOptions};
    use loki_core::campaign::{ExperimentData, HostSync, SyncSample};
    use loki_core::fault::FaultExpr;
    use loki_core::ids::{HostId, SymbolTable};
    use loki_core::recorder::Recorder;
    use loki_core::spec::{StateMachineSpec, StudyDef};
    use loki_core::time::{GlobalNanos, LocalNanos};
    use std::sync::Arc;

    /// The non-reference host every test machine runs on (`h1`, id 0, is
    /// the reference).
    fn h2() -> HostId {
        HostId::from_raw(1)
    }

    /// Machines `a` (worker, INIT→WORK→EXIT) and `b` (injector); fault `f`
    /// on `(a:WORK)` owned by `b` — the cross-machine case whose
    /// correctness the clock bounds must prove.
    fn study(trigger: Trigger) -> Study {
        let def = StudyDef::new("s")
            .machine(
                StateMachineSpec::builder("a")
                    .states(&["INIT", "WORK", "WATCH"])
                    .events(&["GO", "DONE"])
                    .state("INIT", &["b"], &[("GO", "WORK")])
                    .state("WORK", &["b"], &[("DONE", "EXIT")])
                    .build(),
            )
            .machine(
                StateMachineSpec::builder("b")
                    .states(&["INIT", "WORK", "WATCH"])
                    .events(&["GO", "DONE"])
                    .state("WATCH", &[], &[("DONE", "EXIT")])
                    .build(),
            )
            .fault("b", "f", FaultExpr::atom("a", "WORK"), trigger);
        Study::compile(&def).unwrap()
    }

    fn ideal_sync(host: HostId) -> HostSync {
        let mut samples = Vec::new();
        for k in 0..10u64 {
            let t = k * 1_000_000;
            samples.push(SyncSample {
                from_reference: true,
                send: LocalNanos(t),
                recv: LocalNanos(t + 30_000),
            });
            samples.push(SyncSample {
                from_reference: false,
                send: LocalNanos(t + 500_000),
                recv: LocalNanos(t + 530_000),
            });
        }
        HostSync { host, samples }
    }

    /// Builds an experiment where `a` enters WORK at `work_ms` and leaves at
    /// `exit_ms`, while `b` injects the fault at `inject_ms`. Both machines
    /// run on the non-reference host `h2`, so every projected time carries
    /// clock-bound uncertainty.
    fn experiment(study: &Study, work_ms: u64, inject_ms: u64, exit_ms: u64) -> ExperimentData {
        let a = study.sm_id("a").unwrap();
        let b = study.sm_id("b").unwrap();
        let go = study.events.lookup("GO").unwrap();
        let done = study.events.lookup("DONE").unwrap();
        let init = study.states.lookup("INIT").unwrap();
        let work = study.states.lookup("WORK").unwrap();
        let watch = study.states.lookup("WATCH").unwrap();
        let f = study.fault_names.lookup("f").unwrap();
        let mut rec_a = Recorder::new(a, h2());
        rec_a.record_state_change(LocalNanos::from_millis(1), go, init);
        rec_a.record_state_change(LocalNanos::from_millis(work_ms), go, work);
        rec_a.record_state_change(LocalNanos::from_millis(exit_ms), done, study.reserved.exit);
        let mut rec_b = Recorder::new(b, h2());
        rec_b.record_state_change(LocalNanos::from_millis(1), go, watch);
        rec_b.record_injection(LocalNanos::from_millis(inject_ms), f);
        rec_b.record_state_change(LocalNanos::from_millis(exit_ms), done, study.reserved.exit);
        ExperimentData {
            study: "s".into(),
            experiment: 0,
            timelines: vec![rec_a.finish(), rec_b.finish()],
            hosts: vec![HostId::from_raw(0), h2()],
            reference_host: HostId::from_raw(0),
            symbols: Arc::new(SymbolTable::for_hosts(["h1", "h2"])),
            pre_sync: vec![ideal_sync(h2())],
            post_sync: vec![ideal_sync(h2())],
            end: Default::default(),
            warnings: vec![],
        }
    }

    fn check(study: &Study, data: &ExperimentData) -> ExperimentVerdict {
        let gt = make_global(study, data, &GlobalOptions::default()).unwrap();
        check_experiment(study, &gt, MissingPolicy::Fail)
    }

    #[test]
    fn injection_well_inside_state_is_correct() {
        let study = study(Trigger::Once);
        let data = experiment(&study, 10, 20, 30);
        let verdict = check(&study, &data);
        assert_eq!(verdict.correct_count(), 1);
        assert!(verdict.missing.is_empty());
        assert!(verdict.accepted);
    }

    #[test]
    fn injection_before_state_entry_is_rejected() {
        let study = study(Trigger::Once);
        let data = experiment(&study, 10, 5, 30); // injected while still in INIT
        let verdict = check(&study, &data);
        assert_eq!(verdict.correct_count(), 0);
        assert!(!verdict.accepted);
        assert!(matches!(
            verdict.checks[0].verdict,
            Verdict::Incorrect { .. }
        ));
    }

    #[test]
    fn injection_after_state_exit_is_rejected() {
        let study = study(Trigger::Once);
        let data = experiment(&study, 10, 40, 30); // injected after leaving WORK
        let verdict = check(&study, &data);
        assert!(!verdict.accepted);
    }

    #[test]
    fn injection_at_uncertain_boundary_is_conservatively_rejected() {
        // Injection within the clock-uncertainty band around entry: the
        // bounds straddle the state's definite region -> rejected even
        // though it may actually have been correct (§2.5).
        let study = study(Trigger::Once);
        let data = experiment(&study, 10, 10, 30);
        let verdict = check(&study, &data);
        assert!(!verdict.accepted);
    }

    #[test]
    fn missing_injection_fails_experiment() {
        let study = study(Trigger::Once);
        let a = study.sm_id("a").unwrap();
        let go = study.events.lookup("GO").unwrap();
        let done = study.events.lookup("DONE").unwrap();
        let init = study.states.lookup("INIT").unwrap();
        let work = study.states.lookup("WORK").unwrap();
        // WORK entered but no injection recorded.
        let mut rec = Recorder::new(a, h2());
        rec.record_state_change(LocalNanos::from_millis(1), go, init);
        rec.record_state_change(LocalNanos::from_millis(10), go, work);
        rec.record_state_change(LocalNanos::from_millis(30), done, study.reserved.exit);
        let data = ExperimentData {
            study: "s".into(),
            experiment: 0,
            timelines: vec![rec.finish()],
            hosts: vec![HostId::from_raw(0), h2()],
            reference_host: HostId::from_raw(0),
            symbols: Arc::new(SymbolTable::for_hosts(["h1", "h2"])),
            pre_sync: vec![ideal_sync(h2())],
            post_sync: vec![ideal_sync(h2())],
            end: Default::default(),
            warnings: vec![],
        };
        let gt = make_global(&study, &data, &GlobalOptions::default()).unwrap();
        let verdict = check_experiment(&study, &gt, MissingPolicy::Fail);
        assert_eq!(verdict.missing.len(), 1);
        assert!(!verdict.accepted);
        // With Ignore, the experiment passes (no recorded injections).
        let verdict = check_experiment(&study, &gt, MissingPolicy::Ignore);
        assert!(verdict.accepted);
    }

    #[test]
    fn always_fault_requires_one_injection_per_provable_entry() {
        let study = study(Trigger::Always);
        let a = study.sm_id("a").unwrap();
        let go = study.events.lookup("GO").unwrap();
        let done = study.events.lookup("DONE").unwrap();
        let init = study.states.lookup("INIT").unwrap();
        let work = study.states.lookup("WORK").unwrap();
        let f = study.fault_names.lookup("f").unwrap();
        // Two WORK visits, only one injection: missing.
        let mut rec = Recorder::new(a, h2());
        rec.record_state_change(LocalNanos::from_millis(1), go, init);
        rec.record_state_change(LocalNanos::from_millis(10), go, work);
        rec.record_injection(LocalNanos::from_millis(15), f);
        rec.record_state_change(LocalNanos::from_millis(20), go, init);
        rec.record_state_change(LocalNanos::from_millis(30), go, work);
        rec.record_state_change(LocalNanos::from_millis(40), done, study.reserved.exit);
        let data = ExperimentData {
            study: "s".into(),
            experiment: 0,
            timelines: vec![rec.finish()],
            hosts: vec![HostId::from_raw(0), h2()],
            reference_host: HostId::from_raw(0),
            symbols: Arc::new(SymbolTable::for_hosts(["h1", "h2"])),
            pre_sync: vec![ideal_sync(h2())],
            post_sync: vec![ideal_sync(h2())],
            end: Default::default(),
            warnings: vec![],
        };
        let gt = make_global(&study, &data, &GlobalOptions::default()).unwrap();
        let verdict = check_experiment(&study, &gt, MissingPolicy::Fail);
        assert_eq!(verdict.missing.len(), 1);
        assert!(!verdict.accepted);
    }

    #[test]
    fn conjunction_requires_simultaneity() {
        // f2 on ((a:WORK) & (b:WORK)): injection while only a is in WORK is
        // rejected.
        let def = StudyDef::new("s")
            .machine(
                StateMachineSpec::builder("a")
                    .states(&["INIT", "WORK"])
                    .events(&["GO", "DONE"])
                    .state("INIT", &[], &[("GO", "WORK")])
                    .state("WORK", &[], &[("DONE", "EXIT")])
                    .build(),
            )
            .machine(
                StateMachineSpec::builder("b")
                    .states(&["INIT", "WORK"])
                    .events(&["GO", "DONE"])
                    .state("INIT", &[], &[("GO", "WORK")])
                    .state("WORK", &[], &[("DONE", "EXIT")])
                    .build(),
            )
            .fault(
                "a",
                "f2",
                FaultExpr::atom("a", "WORK").and(FaultExpr::atom("b", "WORK")),
                Trigger::Once,
            );
        let study = Study::compile(&def).unwrap();
        let a = study.sm_id("a").unwrap();
        let b = study.sm_id("b").unwrap();
        let go = study.events.lookup("GO").unwrap();
        let done = study.events.lookup("DONE").unwrap();
        let init = study.states.lookup("INIT").unwrap();
        let work = study.states.lookup("WORK").unwrap();
        let f2 = study.fault_names.lookup("f2").unwrap();

        let make = |inject_ms: u64, b_work: (u64, u64)| {
            let mut rec_a = Recorder::new(a, h2());
            rec_a.record_state_change(LocalNanos::from_millis(1), go, init);
            rec_a.record_state_change(LocalNanos::from_millis(10), go, work);
            rec_a.record_injection(LocalNanos::from_millis(inject_ms), f2);
            rec_a.record_state_change(LocalNanos::from_millis(50), done, study.reserved.exit);
            let mut rec_b = Recorder::new(b, h2());
            rec_b.record_state_change(LocalNanos::from_millis(1), go, init);
            rec_b.record_state_change(LocalNanos::from_millis(b_work.0), go, work);
            rec_b.record_state_change(LocalNanos::from_millis(b_work.1), done, study.reserved.exit);
            ExperimentData {
                study: "s".into(),
                experiment: 0,
                timelines: vec![rec_a.finish(), rec_b.finish()],
                hosts: vec![HostId::from_raw(0), h2()],
                reference_host: HostId::from_raw(0),
                symbols: Arc::new(SymbolTable::for_hosts(["h1", "h2"])),
                pre_sync: vec![ideal_sync(h2())],
                post_sync: vec![ideal_sync(h2())],
                end: Default::default(),
                warnings: vec![],
            }
        };

        // b in WORK [20,40]; injection at 30: both in WORK -> correct.
        let data = make(30, (20, 40));
        let gt = make_global(&study, &data, &GlobalOptions::default()).unwrap();
        assert!(check_experiment(&study, &gt, MissingPolicy::Ignore).accepted);

        // b enters WORK only at 35; injection at 30 -> incorrect.
        let data = make(30, (35, 40));
        let gt = make_global(&study, &data, &GlobalOptions::default()).unwrap();
        assert!(!check_experiment(&study, &gt, MissingPolicy::Ignore).accepted);
    }

    #[test]
    fn same_machine_injection_at_entry_instant_is_exact() {
        // A fault owned by the machine itself injects at the *same local
        // timestamp* as the state entry. Interval bounds alone could never
        // prove "after entry", but same-clock record order can.
        let def = StudyDef::new("s")
            .machine(
                StateMachineSpec::builder("a")
                    .states(&["INIT", "WORK"])
                    .events(&["GO", "DONE"])
                    .state("INIT", &[], &[("GO", "WORK")])
                    .state("WORK", &[], &[("DONE", "EXIT")])
                    .build(),
            )
            .fault("a", "own", FaultExpr::atom("a", "WORK"), Trigger::Once);
        let study = Study::compile(&def).unwrap();
        let a = study.sm_id("a").unwrap();
        let go = study.events.lookup("GO").unwrap();
        let done = study.events.lookup("DONE").unwrap();
        let init = study.states.lookup("INIT").unwrap();
        let work = study.states.lookup("WORK").unwrap();
        let f = study.fault_names.lookup("own").unwrap();
        let mut rec = Recorder::new(a, h2());
        rec.record_state_change(LocalNanos::from_millis(1), go, init);
        rec.record_state_change(LocalNanos::from_millis(10), go, work);
        rec.record_injection(LocalNanos::from_millis(10), f); // same instant
        rec.record_state_change(LocalNanos::from_millis(30), done, study.reserved.exit);
        let data = ExperimentData {
            study: "s".into(),
            experiment: 0,
            timelines: vec![rec.finish()],
            hosts: vec![HostId::from_raw(0), h2()],
            reference_host: HostId::from_raw(0),
            symbols: Arc::new(SymbolTable::for_hosts(["h1", "h2"])),
            pre_sync: vec![ideal_sync(h2())],
            post_sync: vec![ideal_sync(h2())],
            end: Default::default(),
            warnings: vec![],
        };
        let gt = make_global(&study, &data, &GlobalOptions::default()).unwrap();
        let verdict = check_experiment(&study, &gt, MissingPolicy::Fail);
        assert!(verdict.accepted, "{:?}", verdict.checks);

        // But the same injection recorded *before* the WORK record is
        // definitely wrong (record order proves it).
        let mut rec = Recorder::new(a, h2());
        rec.record_state_change(LocalNanos::from_millis(1), go, init);
        rec.record_injection(LocalNanos::from_millis(9), f);
        rec.record_state_change(LocalNanos::from_millis(10), go, work);
        rec.record_state_change(LocalNanos::from_millis(30), done, study.reserved.exit);
        let data = ExperimentData {
            study: "s".into(),
            experiment: 0,
            timelines: vec![rec.finish()],
            hosts: vec![HostId::from_raw(0), h2()],
            reference_host: HostId::from_raw(0),
            symbols: Arc::new(SymbolTable::for_hosts(["h1", "h2"])),
            pre_sync: vec![ideal_sync(h2())],
            post_sync: vec![ideal_sync(h2())],
            end: Default::default(),
            warnings: vec![],
        };
        let gt = make_global(&study, &data, &GlobalOptions::default()).unwrap();
        let verdict = check_experiment(&study, &gt, MissingPolicy::Ignore);
        assert!(!verdict.accepted);
    }

    #[test]
    fn negation_uses_possible_complement() {
        // f3 on ~(a:WORK): injection while a is provably in WORK is
        // incorrect; injection while a is in INIT is correct.
        let def = StudyDef::new("s")
            .machine(
                StateMachineSpec::builder("a")
                    .states(&["INIT", "WORK"])
                    .events(&["GO", "DONE"])
                    .state("INIT", &[], &[("GO", "WORK")])
                    .state("WORK", &[], &[("DONE", "EXIT")])
                    .build(),
            )
            .fault("a", "f3", FaultExpr::atom("a", "WORK").not(), Trigger::Once);
        let study = Study::compile(&def).unwrap();
        let a = study.sm_id("a").unwrap();
        let go = study.events.lookup("GO").unwrap();
        let done = study.events.lookup("DONE").unwrap();
        let init = study.states.lookup("INIT").unwrap();
        let work = study.states.lookup("WORK").unwrap();
        let f3 = study.fault_names.lookup("f3").unwrap();

        let make = |inject_ms: u64| {
            let mut rec = Recorder::new(a, h2());
            rec.record_state_change(LocalNanos::from_millis(1), go, init);
            rec.record_injection(LocalNanos::from_millis(inject_ms), f3);
            rec.record_state_change(LocalNanos::from_millis(10), go, work);
            rec.record_state_change(LocalNanos::from_millis(30), done, study.reserved.exit);
            ExperimentData {
                study: "s".into(),
                experiment: 0,
                timelines: vec![rec.finish()],
                hosts: vec![HostId::from_raw(0), h2()],
                reference_host: HostId::from_raw(0),
                symbols: Arc::new(SymbolTable::for_hosts(["h1", "h2"])),
                pre_sync: vec![ideal_sync(h2())],
                post_sync: vec![ideal_sync(h2())],
                end: Default::default(),
                warnings: vec![],
            }
        };

        let data = make(5); // in INIT: ~(a:WORK) definitely true
        let gt = make_global(&study, &data, &GlobalOptions::default()).unwrap();
        assert!(check_experiment(&study, &gt, MissingPolicy::Ignore).accepted);
    }

    /// `GlobalTimeline`'s fields are public, so a timeline can name a fault
    /// the study never defined. That injection cannot be proven correct:
    /// it is reported, by raw id, and the experiment is rejected.
    #[test]
    fn injection_of_an_undefined_fault_is_incorrect() {
        let study = study(Trigger::Once);
        let data = experiment(&study, 10, 20, 30);
        let mut gt = make_global(&study, &data, &GlobalOptions::default()).unwrap();
        assert!(check_experiment(&study, &gt, MissingPolicy::Ignore).accepted);
        for e in &mut gt.events {
            if let GlobalEventKind::Injection { fault } = &mut e.kind {
                *fault = FaultId::from_raw(7);
            }
        }
        let verdict = check_experiment(&study, &gt, MissingPolicy::Ignore);
        assert_eq!(verdict.checks.len(), 1);
        assert_eq!(verdict.checks[0].fault, FaultId::from_raw(7));
        match &verdict.checks[0].verdict {
            Verdict::Incorrect { reason } => assert!(reason.contains("#7"), "{reason}"),
            Verdict::Correct => panic!("an undefined fault was accepted"),
        }
        assert!(!verdict.accepted);
        // The defined fault lost its only injection, so it is missing too.
        let verdict = check_experiment(&study, &gt, MissingPolicy::Fail);
        assert_eq!(
            verdict.missing[..],
            [study.fault_names.lookup("f").unwrap()]
        );
    }

    /// A machine id beyond `study.sms` has no records of its own: asked
    /// about itself it is in `BEGIN`, asked about others it is checked by
    /// its bounds like anyone else.
    #[test]
    fn injection_by_an_undefined_machine_is_checked_not_a_panic() {
        let mut study = study(Trigger::Once);
        let stranger = SmId::from_raw(9);
        let data = experiment(&study, 10, 20, 30);
        let mut gt = make_global(&study, &data, &GlobalOptions::default()).unwrap();
        for e in &mut gt.events {
            if matches!(e.kind, GlobalEventKind::Injection { .. }) {
                e.sm = stranger;
            }
        }
        let verdict = check_experiment(&study, &gt, MissingPolicy::Fail);
        assert_eq!(verdict.checks[0].sm, stranger);
        assert!(verdict.accepted, "{:?}", verdict.checks);

        let work = study.states.lookup("WORK").unwrap();
        study.faults[0].expr = CompiledExpr::Atom(stranger, study.reserved.begin);
        assert!(check_experiment(&study, &gt, MissingPolicy::Ignore).accepted);
        study.faults[0].expr = CompiledExpr::Atom(stranger, work);
        assert!(!check_experiment(&study, &gt, MissingPolicy::Ignore).accepted);
    }

    /// A machine's own state is read off its record order even when its
    /// events sit out of that order on the global timeline (a clock that
    /// stepped backwards sends `make_global` down its sort fallback).
    #[test]
    fn own_state_follows_record_order_not_global_order() {
        let def = StudyDef::new("s")
            .machine(
                StateMachineSpec::builder("a")
                    .states(&["INIT", "WORK"])
                    .events(&["GO"])
                    .state("INIT", &[], &[("GO", "WORK")])
                    .state("WORK", &[], &[("GO", "INIT")])
                    .build(),
            )
            .fault("a", "own", FaultExpr::atom("a", "INIT"), Trigger::Always);
        let study = Study::compile(&def).unwrap();
        let a = study.sm_id("a").unwrap();
        let go = study.events.lookup("GO").unwrap();
        let init = study.states.lookup("INIT").unwrap();
        let work = study.states.lookup("WORK").unwrap();
        let own = study.fault_names.lookup("own").unwrap();
        let at = |t: f64| TimeBounds::point(GlobalNanos(t));
        let change = |record_index: u32, t: f64, from_state, new_state| GlobalEvent {
            sm: a,
            kind: GlobalEventKind::StateChange {
                event: go,
                from_state,
                new_state,
            },
            bounds: at(t),
            record_index,
        };
        // Records 0..=3 in order: →INIT, →WORK, →INIT (stamped *before*
        // record 1), injection. By midpoint record 2 sorts ahead of record 1.
        let gt = GlobalTimeline {
            events: vec![
                change(0, 1.0, study.reserved.begin, init),
                change(2, 10.0, work, init),
                change(1, 20.0, init, work),
                GlobalEvent {
                    sm: a,
                    kind: GlobalEventKind::Injection { fault: own },
                    bounds: at(30.0),
                    record_index: 3,
                },
            ]
            .into(),
            messages: "".into(),
            intervals: Vec::new().into(),
            start: GlobalNanos(1.0),
            end: GlobalNanos(30.0),
            alpha_beta: Vec::new().into(),
            reference_host: HostId::from_raw(0),
            symbols: Arc::new(SymbolTable::for_hosts(["h1"])),
        };
        let verdict = check_experiment(&study, &gt, MissingPolicy::Ignore);
        assert!(verdict.accepted, "{:?}", verdict.checks);
    }
}
