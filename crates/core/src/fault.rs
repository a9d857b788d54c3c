//! Fault expressions and the positive-edge-triggered fault parser.
//!
//! A fault specification entry has the form (§3.5.5):
//!
//! ```text
//! <FaultName> <BooleanFaultExpression> <once|always>
//! ```
//!
//! where the expression combines `(StateMachine:State)` atoms with `&`
//! (AND), `|` (OR) and `~` (NOT). The fault parser re-evaluates every
//! expression on each change of the partial view of global state and
//! instructs the probe to inject exactly when an expression *transitions
//! from false to true* — the parser is positive-edge-triggered (§5.4), so a
//! fault is never re-injected merely because the system stays in the
//! matching global state.

use crate::error::CoreError;
use crate::ids::{FaultId, SmId, StateId};
use crate::view::PartialView;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Trigger mode of a fault: inject on the first false→true edge only, or on
/// every false→true edge.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Trigger {
    /// Inject only the first time the expression becomes true in each
    /// incarnation of the owning node: a node that crashes and restarts
    /// starts with a fresh parser, so a `once` fault can fire again in
    /// the new incarnation.
    Once,
    /// Inject every time the expression becomes true from a different
    /// global state.
    Always,
}

impl fmt::Display for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Trigger::Once => "once",
            Trigger::Always => "always",
        })
    }
}

/// A Boolean expression over `(StateMachine:State)` atoms.
///
/// # Examples
///
/// ```
/// use loki_core::fault::FaultExpr;
///
/// // ((black:CRASH) & ((green:FOLLOW) | (green:ELECT)))
/// let expr = FaultExpr::atom("black", "CRASH")
///     .and(FaultExpr::atom("green", "FOLLOW").or(FaultExpr::atom("green", "ELECT")));
/// assert_eq!(
///     expr.to_string(),
///     "((black:CRASH) & ((green:FOLLOW) | (green:ELECT)))"
/// );
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultExpr {
    /// True while state machine `sm` is in state `state`.
    Atom {
        /// State machine nickname.
        sm: String,
        /// State name.
        state: String,
    },
    /// Conjunction.
    And(Box<FaultExpr>, Box<FaultExpr>),
    /// Disjunction.
    Or(Box<FaultExpr>, Box<FaultExpr>),
    /// Negation.
    Not(Box<FaultExpr>),
}

impl FaultExpr {
    /// Creates the atom `(sm:state)`.
    pub fn atom(sm: &str, state: &str) -> FaultExpr {
        FaultExpr::Atom {
            sm: sm.to_owned(),
            state: state.to_owned(),
        }
    }

    /// Conjunction `self & rhs`.
    pub fn and(self, rhs: FaultExpr) -> FaultExpr {
        FaultExpr::And(Box::new(self), Box::new(rhs))
    }

    /// Disjunction `self | rhs`.
    pub fn or(self, rhs: FaultExpr) -> FaultExpr {
        FaultExpr::Or(Box::new(self), Box::new(rhs))
    }

    /// Negation `~self`.
    // Part of the expression-builder DSL next to `and`/`or`; an `ops::Not`
    // impl would force `!expr` syntax on every caller instead.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> FaultExpr {
        FaultExpr::Not(Box::new(self))
    }

    /// Visits every atom in the expression.
    pub fn for_each_atom<'a>(&'a self, f: &mut impl FnMut(&'a str, &'a str)) {
        match self {
            FaultExpr::Atom { sm, state } => f(sm, state),
            FaultExpr::And(a, b) | FaultExpr::Or(a, b) => {
                a.for_each_atom(f);
                b.for_each_atom(f);
            }
            FaultExpr::Not(a) => a.for_each_atom(f),
        }
    }
}

impl fmt::Display for FaultExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultExpr::Atom { sm, state } => write!(f, "({sm}:{state})"),
            FaultExpr::And(a, b) => write!(f, "({a} & {b})"),
            FaultExpr::Or(a, b) => write!(f, "({a} | {b})"),
            FaultExpr::Not(a) => write!(f, "~{a}"),
        }
    }
}

/// A fault expression with names resolved to study-wide ids.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompiledExpr {
    /// `(sm:state)` with interned ids.
    Atom(SmId, StateId),
    /// Conjunction.
    And(Box<CompiledExpr>, Box<CompiledExpr>),
    /// Disjunction.
    Or(Box<CompiledExpr>, Box<CompiledExpr>),
    /// Negation.
    Not(Box<CompiledExpr>),
}

impl CompiledExpr {
    /// Evaluates the expression against a partial view of global state.
    ///
    /// An atom whose state machine's state is *unknown* in the view (no
    /// notification received yet) evaluates to `false`; consequently
    /// `~(sm:state)` over an unknown machine evaluates to `true`. This
    /// matches the runtime's behaviour of acting only on information it has.
    pub fn eval(&self, view: &PartialView) -> bool {
        match self {
            CompiledExpr::Atom(sm, state) => view.get(*sm) == Some(*state),
            CompiledExpr::And(a, b) => a.eval(view) && b.eval(view),
            CompiledExpr::Or(a, b) => a.eval(view) || b.eval(view),
            CompiledExpr::Not(a) => !a.eval(view),
        }
    }

    /// Visits every `(SmId, StateId)` atom.
    pub fn for_each_atom(&self, f: &mut impl FnMut(SmId, StateId)) {
        match self {
            CompiledExpr::Atom(sm, state) => f(*sm, *state),
            CompiledExpr::And(a, b) | CompiledExpr::Or(a, b) => {
                a.for_each_atom(f);
                b.for_each_atom(f);
            }
            CompiledExpr::Not(a) => a.for_each_atom(f),
        }
    }

    /// The set of state machines this expression observes.
    pub fn observed_machines(&self) -> Vec<SmId> {
        let mut sms = Vec::new();
        self.for_each_atom(&mut |sm, _| {
            if !sms.contains(&sm) {
                sms.push(sm);
            }
        });
        sms
    }
}

/// A compiled fault: resolved expression plus trigger mode and owner.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompiledFault {
    /// Fault id within the study; the study's `fault_names` holds its name.
    pub id: FaultId,
    /// The state machine whose probe injects this fault.
    pub owner: SmId,
    /// Resolved Boolean expression.
    pub expr: CompiledExpr,
    /// Trigger mode.
    pub trigger: Trigger,
}

/// The positive-edge-triggered fault parser attached to one node.
///
/// On every change of the node's partial view of global state the parser
/// re-evaluates the Boolean expression of every fault owned by the node and
/// returns the faults whose expressions transitioned false→true (honouring
/// [`Trigger::Once`]).
///
/// Expressions are indexed by the state machines they mention, so the
/// common path — [`FaultParser::on_machine_change`], called when exactly
/// one machine's entry in the view changed — re-evaluates only the
/// expressions that can possibly have changed value. An expression that
/// mentions none of the changed machines evaluates to the same truth value
/// as before (its atoms read unchanged view entries), so skipping it
/// produces the identical injection sequence as a full re-evaluation.
///
/// # Examples
///
/// ```
/// use loki_core::fault::{CompiledExpr, CompiledFault, FaultParser, Trigger};
/// use loki_core::ids::Id;
/// use loki_core::view::PartialView;
///
/// let sm0 = Id::from_raw(0);
/// let lead = Id::from_raw(5);
/// let fault = CompiledFault {
///     id: Id::from_raw(0),
///     owner: sm0,
///     expr: CompiledExpr::Atom(sm0, lead),
///     trigger: Trigger::Always,
/// };
/// let mut parser = FaultParser::new(vec![fault]);
/// let mut view = PartialView::new(1);
/// view.set(sm0, lead);
/// assert_eq!(parser.on_view_change(&view).len(), 1); // edge: false -> true
/// assert_eq!(parser.on_view_change(&view).len(), 0); // still true: no edge
/// ```
#[derive(Clone, Debug)]
pub struct FaultParser {
    faults: Vec<CompiledFault>,
    prev: Vec<bool>,
    fired: Vec<bool>,
    /// Fault indices (ascending) per mentioned state machine, dense by raw
    /// machine id (machine ids are dense per study); machines beyond the
    /// highest mentioned one are simply absent.
    by_machine: Vec<Vec<usize>>,
    /// Whether a first full evaluation has happened. Before it, even an
    /// incremental call scans everything: an expression that is true in
    /// the very first view (e.g. `~(other:X)` over an unknown machine)
    /// must fire its initial edge no matter which machine changed.
    primed: bool,
}

impl FaultParser {
    /// Creates a parser over the given faults (typically the faults owned by
    /// one node). All expressions start in the `false` state, so an
    /// expression that is true in the very first view produces an edge.
    pub fn new(faults: Vec<CompiledFault>) -> Self {
        let n = faults.len();
        let mut by_machine: Vec<Vec<usize>> = Vec::new();
        for (i, fault) in faults.iter().enumerate() {
            for sm in fault.expr.observed_machines() {
                let idx = sm.index();
                if idx >= by_machine.len() {
                    by_machine.resize_with(idx + 1, Vec::new);
                }
                by_machine[idx].push(i);
            }
        }
        FaultParser {
            faults,
            prev: vec![false; n],
            fired: vec![false; n],
            by_machine,
            primed: false,
        }
    }

    /// Re-evaluates all expressions against `view`; returns the ids of
    /// faults that must be injected now.
    pub fn on_view_change(&mut self, view: &PartialView) -> Vec<FaultId> {
        self.primed = true;
        let mut inject = Vec::new();
        for (i, fault) in self.faults.iter().enumerate() {
            if let Some(id) = eval_edge(fault, view, &mut self.prev[i], &mut self.fired[i]) {
                inject.push(id);
            }
        }
        inject
    }

    /// Like [`FaultParser::on_view_change`], but told that only `changed`'s
    /// entry in the view differs from the previous evaluation: only the
    /// expressions mentioning `changed` are re-evaluated. The first call
    /// ever falls back to a full scan (see the type-level docs).
    pub fn on_machine_change(&mut self, view: &PartialView, changed: SmId) -> Vec<FaultId> {
        if !self.primed {
            return self.on_view_change(view);
        }
        let Some(indices) = self.by_machine.get(changed.index()) else {
            return Vec::new();
        };
        // Indices are ascending: injection order is stable. The edge-state
        // updates borrow disjoint fields, so no copy of the index list is
        // needed.
        let mut inject = Vec::new();
        for &i in indices {
            let fault = &self.faults[i];
            if let Some(id) = eval_edge(fault, view, &mut self.prev[i], &mut self.fired[i]) {
                inject.push(id);
            }
        }
        inject
    }

    /// The faults this parser manages.
    pub fn faults(&self) -> &[CompiledFault] {
        &self.faults
    }

    /// Resets the parser to its freshly-constructed state, including the
    /// `once` bookkeeping — for reusing a parser for a new incarnation of
    /// its node. Observationally identical to rebuilding the parser over
    /// the same faults.
    pub fn reset_all(&mut self) {
        self.prev.iter_mut().for_each(|p| *p = false);
        self.fired.iter_mut().for_each(|f| *f = false);
        self.primed = false;
    }
}

/// Evaluates `fault` against `view`, updating its edge state (`prev`, its
/// value at the last evaluation, and `fired`, whether a `once` fault has
/// fired); returns its id when it must be injected now.
fn eval_edge(
    fault: &CompiledFault,
    view: &PartialView,
    prev: &mut bool,
    fired: &mut bool,
) -> Option<FaultId> {
    let now = fault.expr.eval(view);
    let edge = now && !*prev;
    *prev = now;
    if !edge {
        return None;
    }
    match fault.trigger {
        Trigger::Always => Some(fault.id),
        Trigger::Once => {
            if *fired {
                None
            } else {
                *fired = true;
                Some(fault.id)
            }
        }
    }
}

/// Resolves a [`FaultExpr`] into a [`CompiledExpr`] using lookup closures.
///
/// # Errors
///
/// Returns [`CoreError::UnknownStateMachine`] or [`CoreError::UnknownState`]
/// when a name cannot be resolved.
pub fn compile_expr(
    expr: &FaultExpr,
    lookup_sm: &impl Fn(&str) -> Option<SmId>,
    lookup_state: &impl Fn(&str) -> Option<StateId>,
) -> Result<CompiledExpr, CoreError> {
    match expr {
        FaultExpr::Atom { sm, state } => {
            let sm_id =
                lookup_sm(sm).ok_or_else(|| CoreError::UnknownStateMachine { name: sm.clone() })?;
            let state_id = lookup_state(state).ok_or_else(|| CoreError::UnknownState {
                sm: sm.clone(),
                state: state.clone(),
            })?;
            Ok(CompiledExpr::Atom(sm_id, state_id))
        }
        FaultExpr::And(a, b) => Ok(CompiledExpr::And(
            Box::new(compile_expr(a, lookup_sm, lookup_state)?),
            Box::new(compile_expr(b, lookup_sm, lookup_state)?),
        )),
        FaultExpr::Or(a, b) => Ok(CompiledExpr::Or(
            Box::new(compile_expr(a, lookup_sm, lookup_state)?),
            Box::new(compile_expr(b, lookup_sm, lookup_state)?),
        )),
        FaultExpr::Not(a) => Ok(CompiledExpr::Not(Box::new(compile_expr(
            a,
            lookup_sm,
            lookup_state,
        )?))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Id;

    fn sm(i: u32) -> SmId {
        Id::from_raw(i)
    }
    fn st(i: u32) -> StateId {
        Id::from_raw(i)
    }

    fn fault(id: u32, expr: CompiledExpr, trigger: Trigger) -> CompiledFault {
        CompiledFault {
            id: Id::from_raw(id),
            owner: sm(0),
            expr,
            trigger,
        }
    }

    #[test]
    fn expr_display_matches_thesis_syntax() {
        let e = FaultExpr::atom("SM1", "ELECT").and(FaultExpr::atom("SM2", "FOLLOW"));
        assert_eq!(e.to_string(), "((SM1:ELECT) & (SM2:FOLLOW))");
        let e = FaultExpr::atom("a", "X").or(FaultExpr::atom("b", "Y").not());
        assert_eq!(e.to_string(), "((a:X) | ~(b:Y))");
    }

    #[test]
    fn eval_atoms_and_connectives() {
        let mut view = PartialView::new(2);
        let a = CompiledExpr::Atom(sm(0), st(1));
        let b = CompiledExpr::Atom(sm(1), st(2));
        assert!(!a.eval(&view)); // unknown -> false
        assert!(CompiledExpr::Not(Box::new(a.clone())).eval(&view));
        view.set(sm(0), st(1));
        view.set(sm(1), st(2));
        assert!(CompiledExpr::And(Box::new(a.clone()), Box::new(b.clone())).eval(&view));
        view.set(sm(1), st(0));
        assert!(!CompiledExpr::And(Box::new(a.clone()), Box::new(b.clone())).eval(&view));
        assert!(CompiledExpr::Or(Box::new(a), Box::new(b)).eval(&view));
    }

    #[test]
    fn edge_triggering_always() {
        let f = fault(0, CompiledExpr::Atom(sm(0), st(1)), Trigger::Always);
        let mut p = FaultParser::new(vec![f]);
        let mut view = PartialView::new(1);
        assert!(p.on_view_change(&view).is_empty());
        view.set(sm(0), st(1));
        assert_eq!(p.on_view_change(&view).len(), 1);
        assert!(p.on_view_change(&view).is_empty()); // level does not retrigger
        view.set(sm(0), st(0));
        assert!(p.on_view_change(&view).is_empty()); // falling edge
        view.set(sm(0), st(1));
        assert_eq!(p.on_view_change(&view).len(), 1); // re-entry retriggers
    }

    #[test]
    fn edge_triggering_once() {
        let f = fault(0, CompiledExpr::Atom(sm(0), st(1)), Trigger::Once);
        let mut p = FaultParser::new(vec![f]);
        let mut view = PartialView::new(1);
        view.set(sm(0), st(1));
        assert_eq!(p.on_view_change(&view).len(), 1);
        view.set(sm(0), st(0));
        p.on_view_change(&view);
        view.set(sm(0), st(1));
        assert!(p.on_view_change(&view).is_empty()); // once means once
    }

    #[test]
    fn gfault2_scenario_fires_once_despite_two_view_changes() {
        // gfault2 ((black:CRASH) & ((green:FOLLOW) | (green:ELECT))) once:
        // when black crashes as leader, green transitions FOLLOW -> ELECT;
        // the expression stays true through both view changes, so the
        // positive-edge parser injects exactly once (§5.4).
        let black = sm(0);
        let green = sm(1);
        let (crash, follow, elect) = (st(0), st(1), st(2));
        let expr = CompiledExpr::And(
            Box::new(CompiledExpr::Atom(black, crash)),
            Box::new(CompiledExpr::Or(
                Box::new(CompiledExpr::Atom(green, follow)),
                Box::new(CompiledExpr::Atom(green, elect)),
            )),
        );
        let mut p = FaultParser::new(vec![fault(0, expr, Trigger::Once)]);
        let mut view = PartialView::new(2);
        view.set(green, follow);
        assert!(p.on_view_change(&view).is_empty());
        view.set(black, crash);
        assert_eq!(p.on_view_change(&view).len(), 1);
        view.set(green, elect); // still true -> no new edge
        assert!(p.on_view_change(&view).is_empty());
    }

    #[test]
    fn compile_expr_resolves_names() {
        let expr = FaultExpr::atom("black", "LEAD").or(FaultExpr::atom("green", "LEAD"));
        let compiled = compile_expr(
            &expr,
            &|name| match name {
                "black" => Some(sm(0)),
                "green" => Some(sm(1)),
                _ => None,
            },
            &|name| (name == "LEAD").then(|| st(7)),
        )
        .unwrap();
        assert_eq!(compiled.observed_machines(), vec![sm(0), sm(1)]);
        let err = compile_expr(&FaultExpr::atom("red", "LEAD"), &|_| None, &|_| None);
        assert!(matches!(err, Err(CoreError::UnknownStateMachine { .. })));
    }

    #[test]
    fn incremental_matches_full_reevaluation() {
        // Four faults over three machines; drive both a full-scan parser
        // and an incremental parser through the same single-machine view
        // changes and require identical injection sequences.
        let faults: Vec<CompiledFault> = vec![
            fault(0, CompiledExpr::Atom(sm(0), st(1)), Trigger::Always),
            fault(
                1,
                CompiledExpr::And(
                    Box::new(CompiledExpr::Atom(sm(0), st(1))),
                    Box::new(CompiledExpr::Atom(sm(1), st(2))),
                ),
                Trigger::Once,
            ),
            fault(
                2,
                CompiledExpr::Not(Box::new(CompiledExpr::Atom(sm(2), st(0)))),
                Trigger::Always,
            ),
            fault(
                3,
                CompiledExpr::Or(
                    Box::new(CompiledExpr::Atom(sm(1), st(2))),
                    Box::new(CompiledExpr::Atom(sm(2), st(1))),
                ),
                Trigger::Always,
            ),
        ];
        let mut full = FaultParser::new(faults.clone());
        let mut incr = FaultParser::new(faults);
        let mut view = PartialView::new(3);
        let steps = [
            (sm(0), st(1)),
            (sm(1), st(2)),
            (sm(2), st(0)),
            (sm(2), st(1)),
            (sm(0), st(0)),
            (sm(0), st(1)),
            (sm(1), st(2)), // no change in value: no edges anywhere
        ];
        for (machine, state) in steps {
            view.set(machine, state);
            let a = full.on_view_change(&view);
            let b = incr.on_machine_change(&view, machine);
            assert_eq!(a, b, "diverged after setting {machine:?}={state:?}");
        }
    }

    #[test]
    fn incremental_first_call_fires_initially_true_expressions() {
        // `~(m1:X)` is true from the start (unknown machine). The first
        // incremental call — for an *unrelated* machine — must still fire
        // its initial edge, exactly as a full evaluation would.
        let f = fault(
            0,
            CompiledExpr::Not(Box::new(CompiledExpr::Atom(sm(1), st(0)))),
            Trigger::Once,
        );
        let mut p = FaultParser::new(vec![f]);
        let mut view = PartialView::new(2);
        view.set(sm(0), st(1));
        assert_eq!(p.on_machine_change(&view, sm(0)).len(), 1);
        // Primed now: further changes to the unrelated machine do nothing.
        view.set(sm(0), st(0));
        assert!(p.on_machine_change(&view, sm(0)).is_empty());
    }

    #[test]
    fn incremental_skips_unrelated_machines_after_priming() {
        let f = fault(0, CompiledExpr::Atom(sm(0), st(1)), Trigger::Once);
        let mut p = FaultParser::new(vec![f]);
        let mut view = PartialView::new(2);
        view.set(sm(0), st(1));
        assert_eq!(p.on_machine_change(&view, sm(0)).len(), 1);
        // A change of machine 1 cannot affect the expression.
        view.set(sm(1), st(1));
        assert!(p.on_machine_change(&view, sm(1)).is_empty());
        // Reset unprimes: the next incremental call scans everything
        // again, so the expression fires although machine 1 changed.
        p.reset_all();
        assert_eq!(p.on_machine_change(&view, sm(1)).len(), 1);
    }

    #[test]
    fn for_each_atom_visits_all() {
        let e = FaultExpr::atom("a", "X")
            .and(FaultExpr::atom("b", "Y").not())
            .or(FaultExpr::atom("c", "Z"));
        let mut atoms = Vec::new();
        e.for_each_atom(&mut |sm, st| atoms.push((sm.to_owned(), st.to_owned())));
        assert_eq!(atoms.len(), 3);
    }
}
