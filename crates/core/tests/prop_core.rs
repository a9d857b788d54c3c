//! Property tests for the core abstractions.

use loki_core::fault::{CompiledExpr, CompiledFault, FaultExpr, FaultParser, Trigger};
use loki_core::ids::{EventId, Id, StateId, SymbolTable};
use loki_core::spec::{StateMachineSpec, StudyDef, RESERVED_EVENTS, RESERVED_STATES};
use loki_core::study::Study;
use loki_core::view::PartialView;
use proptest::prelude::*;

/// Reference evaluator for edge-triggered injection: recompute from
/// scratch what a correct parser must emit for a sequence of views.
fn reference_firings(
    faults: &[CompiledFault],
    views: &[PartialView],
) -> Vec<Vec<loki_core::ids::FaultId>> {
    let mut prev = vec![false; faults.len()];
    let mut fired_once = vec![false; faults.len()];
    let mut out = Vec::new();
    for view in views {
        let mut now_fired = Vec::new();
        for (i, f) in faults.iter().enumerate() {
            let now = f.expr.eval(view);
            if now && !prev[i] {
                match f.trigger {
                    Trigger::Always => now_fired.push(f.id),
                    Trigger::Once if !fired_once[i] => {
                        fired_once[i] = true;
                        now_fired.push(f.id);
                    }
                    _ => {}
                }
            }
            prev[i] = now;
        }
        out.push(now_fired);
    }
    out
}

/// Random expression over `sms` machines × `states` states.
fn expr_strategy(sms: u32, states: u32, depth: u32) -> BoxedStrategy<CompiledExpr> {
    let atom =
        (0..sms, 0..states).prop_map(|(m, s)| CompiledExpr::Atom(Id::from_raw(m), Id::from_raw(s)));
    if depth == 0 {
        atom.boxed()
    } else {
        let sub = expr_strategy(sms, states, depth - 1);
        prop_oneof![
            atom,
            (expr_strategy(sms, states, depth - 1), sub.clone())
                .prop_map(|(a, b)| CompiledExpr::And(Box::new(a), Box::new(b))),
            (expr_strategy(sms, states, depth - 1), sub.clone())
                .prop_map(|(a, b)| CompiledExpr::Or(Box::new(a), Box::new(b))),
            sub.prop_map(|a| CompiledExpr::Not(Box::new(a))),
        ]
        .boxed()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The fault parser's edge detection agrees with a from-scratch
    /// reference over arbitrary view sequences, both when it re-evaluates
    /// every expression (`on_view_change`) and when it is told which
    /// machine changed (`on_machine_change`, the runtime's path).
    #[test]
    fn fault_parser_matches_reference(
        exprs in prop::collection::vec((expr_strategy(3, 4, 2), any::<bool>()), 1..8),
        updates in prop::collection::vec((0u32..3, 0u32..4), 1..60),
    ) {
        let faults: Vec<CompiledFault> = exprs
            .into_iter()
            .enumerate()
            .map(|(i, (expr, once))| CompiledFault {
                id: Id::from_raw(i as u32),
                owner: Id::from_raw(0),
                expr,
                trigger: if once { Trigger::Once } else { Trigger::Always },
            })
            .collect();

        // Build the view sequence incrementally.
        let mut views = Vec::new();
        let mut view = PartialView::new(3);
        for &(sm, state) in &updates {
            view.set(Id::from_raw(sm), Id::from_raw(state));
            views.push(view.clone());
        }

        let expected = reference_firings(&faults, &views);
        let mut full = FaultParser::new(faults.clone());
        let mut incremental = FaultParser::new(faults);
        for ((view, expect), &(changed, _)) in views.iter().zip(expected).zip(&updates) {
            prop_assert_eq!(&full.on_view_change(view), &expect);
            let got = incremental.on_machine_change(view, Id::from_raw(changed));
            prop_assert_eq!(got, expect);
        }
    }

    /// Once-faults fire at most once regardless of the view sequence.
    #[test]
    fn once_faults_fire_at_most_once(
        expr in expr_strategy(2, 3, 2),
        updates in prop::collection::vec((0u32..2, 0u32..3), 1..80),
    ) {
        let fault = CompiledFault {
            id: Id::from_raw(0),
            owner: Id::from_raw(0),
            expr,
            trigger: Trigger::Once,
        };
        let mut parser = FaultParser::new(vec![fault]);
        let mut view = PartialView::new(2);
        let mut fired = 0;
        for (sm, state) in updates {
            view.set(Id::from_raw(sm), Id::from_raw(state));
            fired += parser.on_view_change(&view).len();
        }
        prop_assert!(fired <= 1);
    }

    /// Well-formed generated studies always compile, compilation is a
    /// pure function of the definition, and every reserved name has its
    /// fixed id, whether or not the machines mention it.
    #[test]
    fn valid_study_defs_compile_deterministically(
        n_machines in 1usize..5,
        n_states in 1usize..5,
        n_events in 1usize..4,
        edges in prop::collection::vec((0usize..5, 0usize..4, 0usize..5), 0..20),
        mention_reserved in any::<bool>(),
    ) {
        let mut state_names: Vec<String> = (0..n_states).map(|i| format!("S{i}")).collect();
        let mut event_names: Vec<String> = (0..n_events).map(|i| format!("E{i}")).collect();
        if mention_reserved {
            state_names.splice(0..0, ["CRASH".to_owned(), "EXIT".to_owned()]);
            event_names.insert(0, "CRASH".to_owned());
        }
        let (n_states, n_events) = (state_names.len(), event_names.len());
        let mut def = StudyDef::new("gen");
        for m in 0..n_machines {
            let state_refs: Vec<&str> = state_names.iter().map(String::as_str).collect();
            let event_refs: Vec<&str> = event_names.iter().map(String::as_str).collect();
            let mut builder = StateMachineSpec::builder(&format!("m{m}"))
                .states(&state_refs)
                .events(&event_refs);
            for s in 0..n_states {
                let transitions: Vec<(&str, &str)> = edges
                    .iter()
                    .filter(|(from, _, _)| from % n_states == s)
                    .map(|(_, ev, to)| {
                        (
                            event_names[ev % n_events].as_str(),
                            state_names[to % n_states].as_str(),
                        )
                    })
                    .collect();
                builder = builder.state(&state_names[s], &[], &transitions);
            }
            def = def.machine(builder.build());
        }
        let a = Study::compile(&def);
        prop_assert!(a.is_ok(), "{a:?}");
        let a = a.unwrap();
        let b = Study::compile(&def).unwrap();
        prop_assert_eq!(a.num_machines(), b.num_machines());
        prop_assert_eq!(a.states.len(), b.states.len());
        prop_assert_eq!(a.events.len(), b.events.len());
        let states = [StateId::BEGIN, StateId::EXIT, StateId::CRASH, StateId::RESTART];
        for (name, id) in RESERVED_STATES.into_iter().zip(states) {
            prop_assert_eq!(a.states.lookup(name), Some(id));
        }
        let events = [EventId::CRASH, EventId::RESTART, EventId::DEFAULT];
        for (name, id) in RESERVED_EVENTS.into_iter().zip(events) {
            prop_assert_eq!(a.events.lookup(name), Some(id));
        }
    }

    /// Driving a state machine with arbitrary declared events either
    /// transitions to a declared state or reports NoTransition — never
    /// panics, never reaches an undeclared state.
    #[test]
    fn state_machine_walks_stay_in_declared_states(
        walk in prop::collection::vec(0usize..3, 1..50),
    ) {
        let def = StudyDef::new("walk").machine(
            StateMachineSpec::builder("m")
                .states(&["A", "B", "C"])
                .events(&["x", "y", "z"])
                .state("A", &[], &[("x", "B"), ("y", "C")])
                .state("B", &[], &[("y", "A"), ("default", "C")])
                .state("C", &[], &[("z", "A")])
                .build(),
        );
        let study = Study::compile_arc(&def).unwrap();
        let m = study.sm_id("m").unwrap();
        let mut sm = loki_core::state_machine::StateMachine::new(study.clone(), m);
        sm.initialize("A").unwrap();
        let events = ["x", "y", "z"];
        for step in walk {
            let _ = sm.apply_event_name(events[step]); // NoTransition is fine
            let name = study.states.name(sm.state());
            prop_assert!(["A", "B", "C"].contains(&name), "escaped to {name}");
        }
    }

    /// `derive_notify_lists` guarantees that every cross-machine fault atom
    /// is covered by a notify entry.
    #[test]
    fn derived_notify_lists_cover_all_cross_atoms(
        atoms in prop::collection::vec((0u32..3, 0u32..3, 0u32..3), 1..10),
    ) {
        let mut def = StudyDef::new("d");
        for m in 0..3 {
            def = def.machine(
                StateMachineSpec::builder(&format!("m{m}"))
                    .states(&["S0", "S1", "S2"])
                    .build(),
            );
        }
        for (i, (owner, sm, state)) in atoms.iter().enumerate() {
            def = def.fault(
                &format!("m{owner}"),
                &format!("f{i}"),
                FaultExpr::atom(&format!("m{sm}"), &format!("S{state}")),
                Trigger::Once,
            );
        }
        let derived = def.derive_notify_lists();
        for f in &derived.faults {
            f.expr.for_each_atom(&mut |sm, state| {
                if sm != f.owner {
                    let machine = derived.machines.iter().find(|m| m.name == sm).unwrap();
                    let block = machine.state_def(state).unwrap();
                    assert!(
                        block.notify.contains(&f.owner),
                        "{sm}:{state} must notify {}",
                        f.owner
                    );
                }
            });
        }
        let compiled = Study::compile(&derived);
        prop_assert!(compiled.is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Symbol-table interning round-trips: `intern` → `resolve` is the
    /// identity, ids are dense (`0..n` in first-mention order), interning
    /// is idempotent, and two tables fed the same study host sequence
    /// assign identical ids — the determinism the harness relies on for
    /// byte-identical results across worker counts.
    #[test]
    fn interning_roundtrips_and_is_dense_deterministic(
        names in prop::collection::vec("[a-z][a-z0-9]{0,7}", 1..24),
    ) {
        let mut table = SymbolTable::new();
        let ids: Vec<_> = names.iter().map(|n| table.intern(n)).collect();

        // Round-trip: every id resolves back to the name it was made from.
        for (name, id) in names.iter().zip(&ids) {
            prop_assert_eq!(table.name(*id), name.as_str());
            prop_assert_eq!(table.lookup(name), Some(*id));
        }

        // Dense in first-mention order: distinct names get 0, 1, 2, …
        let mut first_mention: Vec<&str> = Vec::new();
        for name in &names {
            if !first_mention.contains(&name.as_str()) {
                first_mention.push(name);
            }
        }
        prop_assert_eq!(table.len(), first_mention.len());
        for (expected_raw, name) in first_mention.iter().enumerate() {
            prop_assert_eq!(
                table.lookup(name).map(|h| h.raw()),
                Some(expected_raw as u32)
            );
        }

        // Idempotent: re-interning the whole sequence changes nothing.
        let again: Vec<_> = names.iter().map(|n| table.intern(n)).collect();
        prop_assert_eq!(&again, &ids);
        prop_assert_eq!(table.len(), first_mention.len());

        // Deterministic: an independent table on the same input agrees.
        let mut other = SymbolTable::new();
        let other_ids: Vec<_> = names.iter().map(|n| other.intern(n)).collect();
        prop_assert_eq!(other_ids, ids);
        prop_assert_eq!(&other, &table);

        // Collecting the names is the same construction.
        prop_assert_eq!(&SymbolTable::from_iter(&names), &table);
    }
}
