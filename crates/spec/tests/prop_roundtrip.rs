//! Property tests: every writer round-trips through its parser, and every
//! reader is total — arbitrary text comes back as `Ok` or `Err`, never as
//! a panic.

use loki_core::fault::{FaultExpr, Trigger};
use loki_core::ids::SymbolTable;
use loki_core::probe::{ActionProbe, FaultAction};
use loki_core::recorder::Recorder;
use loki_core::spec::{NodePlacement, StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_core::time::LocalNanos;
use loki_spec::files::BudgetSpec;
use loki_spec::{expr, files, sm_spec, timeline_file, timestamps_file};
use proptest::prelude::*;

/// Identifier-ish names that survive whitespace-based parsing.
fn name() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9_]{0,11}".prop_map(|s| s)
}

fn fault_expr(depth: u32) -> BoxedStrategy<FaultExpr> {
    let atom = (name(), name()).prop_map(|(sm, st)| FaultExpr::atom(&sm, &st));
    if depth == 0 {
        atom.boxed()
    } else {
        let inner = fault_expr(depth - 1);
        prop_oneof![
            atom,
            (fault_expr(depth - 1), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (fault_expr(depth - 1), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
        .boxed()
    }
}

/// The number of [`FaultAction`] variants [`action`] generates.
const ACTION_VARIANTS: usize = 10;

/// The index of `action`'s variant. The match has no wildcard arm, so a
/// new variant fails to compile here until [`action`] generates it too.
fn variant(action: &FaultAction) -> usize {
    match action {
        FaultAction::CrashNode => 0,
        FaultAction::CrashWithProbability { .. } => 1,
        FaultAction::HangNode { .. } => 2,
        FaultAction::DropMessages { .. } => 3,
        FaultAction::CorruptState { .. } => 4,
        FaultAction::Partition { .. } => 5,
        FaultAction::Heal => 6,
        FaultAction::LinkFault { .. } => 7,
        FaultAction::GrayNode { .. } => 8,
        FaultAction::Custom(_) => 9,
    }
}

/// A variant index and an action of that variant, with token-safe names,
/// probabilities in [0, 1], finite slowdowns and non-empty partition
/// groups.
fn action() -> impl Strategy<Value = (usize, FaultAction)> {
    let probabilities = (0.0..=1.0f64, 0.0..=1.0f64, 0.0..=1.0f64);
    let numbers = (any::<u64>(), any::<u64>(), any::<u32>(), 1.0..1e6f64);
    let groups = prop::collection::vec(prop::collection::vec(name(), 1..4), 1..4);
    (
        0..ACTION_VARIANTS,
        (name(), name()),
        probabilities,
        numbers,
        groups,
    )
        .prop_map(
            |(kind, (a, b), (p, q, r), (m, n, count, slowdown), groups)| {
                let action = match kind {
                    0 => FaultAction::CrashNode,
                    1 => FaultAction::CrashWithProbability {
                        activation: p,
                        dormancy_ns: m,
                    },
                    2 => FaultAction::HangNode { duration_ns: m },
                    3 => FaultAction::DropMessages { count },
                    4 => FaultAction::CorruptState { target: a },
                    5 => FaultAction::Partition { groups },
                    6 => FaultAction::Heal,
                    7 => FaultAction::LinkFault {
                        from: a,
                        to: b,
                        drop_prob: p,
                        dup_prob: q,
                        reorder_ns: m,
                        corrupt_prob: r,
                        extra_latency_ns: n,
                    },
                    8 => FaultAction::GrayNode { host: a, slowdown },
                    _ => FaultAction::Custom(a),
                };
                (kind, action)
            },
        )
}

/// `probe`'s entries in name order.
fn entries(probe: &ActionProbe) -> Vec<(&str, &FaultAction)> {
    let mut entries: Vec<_> = probe.iter().collect();
    entries.sort_by_key(|&(name, _)| name);
    entries
}

/// The pieces arbitrary text is built from: separators (ASCII and Unicode
/// whitespace, line breaks, `#` comments, `|`), the keywords and numbers
/// the readers look for, and tokens no reader expects.
const FRAGMENTS: &[&str] = &[
    " ",
    "  ",
    "\t",
    "\n",
    "\r\n",
    "\u{a0}",
    "\u{85}",
    "\u{b}",
    "\u{c}",
    "\u{2003}",
    "\u{2028}",
    "\u{3000}",
    "#",
    "# note",
    "|",
    "=",
    "0",
    "1",
    "2",
    "3",
    "-1",
    "4294967296",
    "99999999999999999999",
    "0.5",
    "NaN",
    "once",
    "always",
    "crash",
    "crash_p",
    "hang",
    "drop",
    "corrupt_state",
    "custom",
    "heal",
    "partition",
    "link",
    "gray",
    "slowdown=2",
    "drop_p=0.5",
    "delay_ns=",
    "max_events",
    "max_virtual_time_ns",
    "host",
    "state",
    "notify",
    "default",
    "state_machine_list",
    "end_state_machine_list",
    "global_state_list",
    "end_global_state_list",
    "event_list",
    "end_event_list",
    "fault_list",
    "end_fault_list",
    "local_timeline",
    "end_local_timeline",
    "(m:B)",
    "~(m:A)",
    "(",
    ")",
    "&",
    "~",
    ":",
    "m",
    "A",
    "B",
    "GO",
    "f",
    "host1",
    "é",
    "\u{1F600}",
];

fn fragments() -> impl Strategy<Value = String> {
    prop::collection::vec(0..FRAGMENTS.len(), 0..40)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
}

/// Characters a user message is drawn from: spaces (twice, so runs of
/// them are common) and a tab, quotes, the backslash and the letters of
/// its escapes, line breaks and a non-ASCII letter.
const MESSAGE_CHARS: &[char] = &[
    'a', 'Z', '3', ' ', ' ', '\t', '"', '\'', '\\', 'n', 'r', '\n', '\r', 'é',
];

/// A user message of up to a dozen characters, the empty one included.
fn message() -> impl Strategy<Value = String> {
    prop::collection::vec(0..MESSAGE_CHARS.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| MESSAGE_CHARS[i]).collect())
}

/// The study the timeline reader resolves names against.
fn timeline_study() -> Study {
    let def = StudyDef::new("s")
        .machine(
            StateMachineSpec::builder("m")
                .states(&["A", "B"])
                .events(&["GO"])
                .state("A", &[], &[("GO", "B")])
                .state("B", &[], &[("GO", "A")])
                .build(),
        )
        .fault("m", "f", FaultExpr::atom("m", "B"), Trigger::Always);
    Study::compile(&def).unwrap()
}

/// One valid input per reader, for the truncation and mutation cases.
fn valid_files(study: &Study) -> Vec<String> {
    let m = study.sm_id("m").unwrap();
    let symbols = SymbolTable::from_iter(["host1"]);
    let mut rec = Recorder::new(m, symbols.lookup("host1").unwrap());
    rec.record_state_change(
        LocalNanos(5),
        study.events.lookup("GO").unwrap(),
        study.states.lookup("B").unwrap(),
    );
    rec.record_injection(LocalNanos(1 << 40), study.fault_names.lookup("f").unwrap());
    rec.record_user_message(LocalNanos(6), "say \"hi\" \\ bye\n");
    vec![
        "gfault2 ((black:CRASH) & ((green:FOLLOW) | (green:ELECT))) once\nf (m:B) always\n".into(),
        "((black:CRASH) & ~((green:FOLLOW) | (green:ELECT)))".into(),
        "global_state_list\nA\nB\nend_global_state_list\nevent_list\nGO\nend_event_list\n\
         state A notify m,n\nGO B\nstate B\ndefault A # back\n"
            .into(),
        "green host1\nblack\n# comment\n".into(),
        "host1\nhost2\n".into(),
        "netsplit partition host1 | host2 host3\nheal_net heal\nslow gray host1 slowdown=2\n"
            .into(),
        "max_virtual_time_ns 2000000000\nmax_events 500000\n".into(),
        timeline_file::write(study, &symbols, &rec.finish()),
    ]
}

/// Runs every reader over `text`; returning at all is the property.
fn read_everything(study: &Study, text: &str) {
    let _ = expr::parse_expr(text);
    let _ = sm_spec::parse("m", text);
    let _ = files::parse_fault_spec("m", text);
    let _ = files::parse_node_file(text);
    let _ = files::parse_machines_file(text);
    let _ = files::parse_action_file(text);
    let _ = files::parse_budget_file(text);
    let mut symbols = SymbolTable::from_iter(["host1"]);
    let _ = timeline_file::parse(study, &mut symbols, text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn readers_are_total_on_arbitrary_text(text in fragments()) {
        read_everything(&timeline_study(), &text);
    }

    #[test]
    fn readers_are_total_on_truncated_and_mutated_files(
        file in 0usize..64,
        cut in 0usize..512,
        token in 0usize..64,
        fragment in 0..FRAGMENTS.len(),
    ) {
        let study = timeline_study();
        let valid_files = valid_files(&study);
        let valid = &valid_files[file % valid_files.len()];
        // Truncated at a character boundary.
        let cut = valid
            .char_indices()
            .map(|(at, _)| at)
            .nth(cut % valid.chars().count())
            .unwrap_or(0);
        read_everything(&study, &valid[..cut]);
        // One space-separated token replaced.
        let mut tokens: Vec<&str> = valid.split(' ').collect();
        let at = token % tokens.len();
        tokens[at] = FRAGMENTS[fragment];
        read_everything(&study, &tokens.join(" "));
    }

    #[test]
    fn fault_expr_roundtrip(e in fault_expr(3)) {
        let text = e.to_string();
        let parsed = expr::parse_expr(&text).unwrap();
        prop_assert_eq!(parsed, e);
    }

    #[test]
    fn sm_spec_roundtrip(
        states in prop::collection::vec(name(), 1..6),
        events in prop::collection::vec(name(), 0..6),
    ) {
        // Build a spec whose blocks reference only declared names.
        let state_refs: Vec<&str> = states.iter().map(String::as_str).collect();
        let event_refs: Vec<&str> = events.iter().map(String::as_str).collect();
        let mut builder = StateMachineSpec::builder("m")
            .states(&state_refs)
            .events(&event_refs);
        for (i, s) in state_refs.iter().enumerate() {
            let transitions: Vec<(&str, &str)> = event_refs
                .iter()
                .map(|e| (*e, state_refs[i % state_refs.len()]))
                .collect();
            builder = builder.state(s, &[], &transitions);
        }
        let spec = builder.build();
        let text = sm_spec::write(&spec);
        let parsed = sm_spec::parse("m", &text).unwrap();
        prop_assert_eq!(parsed, spec);
    }

    #[test]
    fn node_file_roundtrip(
        entries in prop::collection::vec((name(), prop::option::of(name())), 0..8)
    ) {
        let placements: Vec<NodePlacement> = entries
            .into_iter()
            .map(|(sm, host)| NodePlacement { sm, host })
            .collect();
        let text = files::write_node_file(&placements);
        prop_assert_eq!(files::parse_node_file(&text).unwrap(), placements);
    }

    /// Every record kind, user messages of any text among them, and a
    /// restart stint at any position read back exactly.
    #[test]
    fn timeline_roundtrip(
        times in prop::collection::vec(0u64..u64::MAX / 2, 1..20),
        kinds in prop::collection::vec(0u8..3, 1..20),
        messages in prop::collection::vec(message(), 1..8),
        restart_at in 0usize..20,
    ) {
        let def = StudyDef::new("s")
            .machine(
                StateMachineSpec::builder("m")
                    .states(&["A", "B"])
                    .events(&["GO"])
                    .state("A", &[], &[("GO", "B")])
                    .state("B", &[], &[("GO", "A")])
                    .build(),
            )
            .fault("m", "f", FaultExpr::atom("m", "B"), Trigger::Always);
        let study = Study::compile(&def).unwrap();
        let m = study.sm_id("m").unwrap();
        let go = study.events.lookup("GO").unwrap();
        let b = study.states.lookup("B").unwrap();
        let f = study.fault_names.lookup("f").unwrap();

        let mut symbols = SymbolTable::from_iter(["host1", "host2"]);
        let mut rec = Recorder::new(m, symbols.lookup("host1").unwrap());
        for (i, t) in times.iter().enumerate() {
            if i == restart_at {
                let host2 = symbols.lookup("host2").unwrap();
                rec = Recorder::resume(rec.finish(), LocalNanos(*t), host2);
            }
            match kinds[i % kinds.len()] {
                0 => rec.record_state_change(LocalNanos(*t), go, b),
                1 => rec.record_injection(LocalNanos(*t), f),
                _ => rec.record_user_message(LocalNanos(*t), &messages[i % messages.len()]),
            }
        }
        let timeline = rec.finish();
        let text = timeline_file::write(&study, &symbols, &timeline);
        let parsed = timeline_file::parse(&study, &mut symbols, &text).unwrap();
        prop_assert_eq!(parsed, timeline);
    }

    #[test]
    fn timestamps_roundtrip(
        sends in prop::collection::vec((any::<bool>(), 0u64..1u64<<62, 0u64..1u64<<62), 1..30)
    ) {
        use loki_core::campaign::{HostSync, SyncSample};
        let mut symbols = SymbolTable::from_iter(["h1", "h2"]);
        let h1 = symbols.lookup("h1").unwrap();
        let syncs = vec![HostSync {
            host: symbols.lookup("h2").unwrap(),
            samples: sends
                .into_iter()
                .map(|(d, s, r)| SyncSample {
                    from_reference: d,
                    send: LocalNanos(s),
                    recv: LocalNanos(r),
                })
                .collect(),
        }];
        let text = timestamps_file::write(&symbols, h1, &syncs);
        let (reference, parsed) = timestamps_file::parse(&mut symbols, &text).unwrap();
        prop_assert_eq!(reference, h1);
        prop_assert_eq!(parsed, syncs);
    }

    #[test]
    fn action_file_roundtrip(actions in prop::collection::vec((name(), action()), 0..16)) {
        let mut probe = ActionProbe::new();
        for (name, (kind, action)) in actions {
            prop_assert_eq!(variant(&action), kind);
            probe = probe.on(&name, action);
        }
        let parsed = files::parse_action_file(&files::write_action_file(&probe)).unwrap();
        prop_assert_eq!(entries(&parsed), entries(&probe));
    }

    #[test]
    fn budget_file_roundtrip(
        max_virtual_time_ns in prop::option::of(any::<u64>()),
        max_events in prop::option::of(any::<u64>()),
    ) {
        let budget = BudgetSpec { max_virtual_time_ns, max_events };
        let parsed = files::parse_budget_file(&files::write_budget_file(&budget)).unwrap();
        prop_assert_eq!(parsed, budget);
    }

    #[test]
    fn machines_file_roundtrip(hosts in prop::collection::vec(name(), 0..8)) {
        let text = files::write_machines_file(&hosts);
        prop_assert_eq!(files::parse_machines_file(&text), hosts);
    }
}
