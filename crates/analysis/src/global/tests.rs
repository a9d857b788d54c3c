use super::*;
use loki_core::campaign::{HostSync, SyncSample};
use loki_core::ids::{EventId, FaultId, SmId, SymbolTable};
use loki_core::recorder::{LocalTimeline, Recorder};
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::time::{GlobalNanos, LocalNanos, TimeBounds};
use std::sync::Arc;

fn study() -> Study {
    study_of(&["a"])
}

/// One INIT → WORK → EXIT machine per name.
fn study_of(machines: &[&str]) -> Study {
    let def = machines.iter().fold(StudyDef::new("s"), |def, name| {
        def.machine(
            StateMachineSpec::builder(name)
                .states(&["INIT", "WORK"])
                .events(&["GO", "DONE"])
                .state("INIT", &[], &[("GO", "WORK")])
                .state("WORK", &[], &[("DONE", "EXIT")])
                .build(),
        )
    });
    Study::compile(&def).unwrap()
}

/// Sync samples for an ideal (identical) clock pair: tight bounds.
fn ideal_sync(host: loki_core::ids::HostId) -> HostSync {
    let mut samples = Vec::new();
    for k in 0..10u64 {
        let t = k * 1_000_000;
        samples.push(SyncSample {
            from_reference: true,
            send: LocalNanos(t),
            recv: LocalNanos(t + 50_000),
        });
        samples.push(SyncSample {
            from_reference: false,
            send: LocalNanos(t + 500_000),
            recv: LocalNanos(t + 550_000),
        });
    }
    HostSync { host, samples }
}

fn experiment(study: &Study) -> ExperimentData {
    experiment_on(study, &["h1", "h2"], &[("a", "h2")])
}

/// An experiment over `hosts` (the first is the reference, the others
/// have ideal sync data) in which each `(machine, host)` of `placement`
/// walks INIT → WORK → EXIT at 10, 20 and 30 ms, the i-th machine 1 ms
/// after the one before it.
fn experiment_on(study: &Study, hosts: &[&str], placement: &[(&str, &str)]) -> ExperimentData {
    let symbols = Arc::new(SymbolTable::from_iter(hosts.iter().copied()));
    let hosts: Vec<HostId> = hosts
        .iter()
        .map(|name| symbols.lookup(name).unwrap())
        .collect();
    let go = study.events.lookup("GO").unwrap();
    let done = study.events.lookup("DONE").unwrap();
    let init = study.states.lookup("INIT").unwrap();
    let work = study.states.lookup("WORK").unwrap();
    let exit = StateId::EXIT;
    let timelines = placement
        .iter()
        .zip(0u64..)
        .map(|(&(machine, host), i)| {
            let sm = study.sm_id(machine).unwrap();
            let mut rec = Recorder::new(sm, symbols.lookup(host).unwrap());
            rec.record_state_change(LocalNanos::from_millis(10 + i), go, init);
            rec.record_state_change(LocalNanos::from_millis(20 + i), go, work);
            rec.record_state_change(LocalNanos::from_millis(30 + i), done, exit);
            rec.finish()
        })
        .collect();
    let sync: Vec<HostSync> = hosts[1..].iter().map(|&h| ideal_sync(h)).collect();
    ExperimentData {
        experiment: 0,
        timelines,
        reference_host: hosts[0],
        hosts,
        symbols,
        pre_sync: sync.clone(),
        post_sync: sync,
        end: Default::default(),
        warnings: vec![],
    }
}

#[test]
fn builds_events_and_intervals() {
    let study = study();
    let data = experiment(&study);
    let gt = make_global(&study, &data, &GlobalOptions::default()).unwrap();
    assert_eq!(gt.events.len(), 3);
    // Intervals: INIT [10,20], WORK [20,30], EXIT [30, ..).
    let a = study.sm_id("a").unwrap();
    let ivs: Vec<&StateInterval> = gt.intervals_of(a).collect();
    assert_eq!(ivs.len(), 3);
    assert_eq!(ivs[0].state, study.states.lookup("INIT").unwrap());
    assert!(gt.exit_of(ivs[0]).is_some());
    assert_eq!(ivs[2].state, StateId::EXIT);
    assert_eq!(ivs[2].exit, StateInterval::OPEN);
    assert!(gt.exit_of(ivs[2]).is_none());
    // An interval is left by the event that enters the next one.
    assert_eq!(ivs[0].exit, ivs[1].enter);
    assert_eq!(gt.exit_of(ivs[0]), Some(gt.enter_of(ivs[1])));
    // Projection bounds contain the local times (clocks ideal & equal).
    let enter = gt.enter_of(ivs[0]);
    assert!(enter.lo <= GlobalNanos(10_000_000));
    assert!(enter.hi >= GlobalNanos(10_000_000 - 60_000));
    assert!(gt.start < gt.end);
}

#[test]
fn record_counts_past_the_position_space_are_an_error() {
    let limit = StateInterval::OPEN as usize;
    assert!(check_record_count(limit).is_ok());
    assert!(matches!(
        check_record_count(limit + 1),
        Err(AnalysisError::TooManyRecords { records }) if records == limit + 1
    ));
    let limit = u32::MAX as usize;
    assert!(check_message_bytes(limit).is_ok());
    assert!(matches!(
        check_message_bytes(limit + 1),
        Err(AnalysisError::MessagesTooLong { bytes }) if bytes == limit + 1
    ));
}

#[test]
fn user_messages_share_one_buffer() {
    let study = study_of(&["a", "b"]);
    let mut data = experiment_on(&study, &["h1", "h2"], &[("a", "h2"), ("b", "h1")]);
    let set_message = |timeline: &mut LocalTimeline, record: usize, text: &str| {
        let start = timeline.text.len() as u32;
        timeline.text.push_str(text);
        timeline.records[record].kind = RecordKind::UserMessage {
            start,
            len: text.len() as u32,
        };
    };
    set_message(&mut data.timelines[0], 1, "é \"a\"");
    set_message(&mut data.timelines[1], 0, "");
    set_message(&mut data.timelines[1], 2, "b\\");
    let gt = make_global(&study, &data, &GlobalOptions::default()).unwrap();
    assert_eq!(&*gt.messages, "é \"a\"b\\");
    let texts: Vec<(u32, &str)> = gt
        .events
        .iter()
        .filter_map(|e| Some((e.sm.raw(), gt.user_message(e)?)))
        .collect();
    assert_eq!(texts, [(1, ""), (0, "é \"a\""), (1, "b\\")]);
    // Each machine keeps one interval per state-setting record.
    assert_eq!(gt.intervals.len(), 3);
    // A span outside the buffer, or not on a character boundary, reads
    // as no message.
    let mut bad = gt.clone();
    let mut events = bad.events.into_vec();
    events[0].kind = GlobalEventKind::UserMessage { start: 1, len: 1 };
    events[1].kind = GlobalEventKind::UserMessage {
        start: u32::MAX,
        len: u32::MAX,
    };
    bad.events = events.into();
    assert_eq!(bad.user_message(&bad.events[0]), None);
    assert_eq!(bad.user_message(&bad.events[1]), None);
    assert_eq!(bad.user_message(&bad.events[2]), Some("é \"a\""));
    // A record whose span misses its timeline's text is a typed error.
    data.timelines[1].records[2].kind = RecordKind::UserMessage { start: 9, len: 1 };
    assert_eq!(
        make_global(&study, &data, &GlobalOptions::default()).unwrap_err(),
        AnalysisError::MessageSpan {
            sm: "b".into(),
            record: 2
        }
    );
}

/// `GlobalTimeline`'s `Debug` prints what `#[derive(Debug)]` printed
/// when every interval stored its bounds — the benchmark's result digest
/// hashes this text.
#[test]
fn debug_prints_intervals_with_their_bounds() {
    mod stored {
        // Read only by the derived `Debug`.
        #![allow(dead_code)]
        use super::*;
        #[derive(Debug)]
        pub struct StateInterval {
            pub sm: SmId,
            pub state: StateId,
            pub enter: TimeBounds,
            pub exit: Option<TimeBounds>,
        }
        #[derive(Debug)]
        pub struct GlobalTimeline<'a> {
            pub events: &'a [GlobalEvent],
            pub intervals: Vec<StateInterval>,
            pub start: GlobalNanos,
            pub end: GlobalNanos,
            pub alpha_beta: &'a [AlphaBetaBounds],
            pub reference_host: HostId,
            pub symbols: SymbolTable<'a>,
        }
        #[derive(Debug)]
        pub struct SymbolTable<'a> {
            pub hosts: &'a super::SymbolTable,
        }
    }
    let (study, shapes) = shapes();
    for data in &shapes {
        let gt = make_global(&study, data, &GlobalOptions::default()).unwrap();
        let derived = stored::GlobalTimeline {
            events: &gt.events,
            intervals: gt
                .intervals
                .iter()
                .map(|iv| stored::StateInterval {
                    sm: iv.sm,
                    state: iv.state,
                    enter: gt.enter_of(iv),
                    exit: gt.exit_of(iv),
                })
                .collect(),
            start: gt.start,
            end: gt.end,
            alpha_beta: &gt.alpha_beta,
            reference_host: gt.reference_host,
            symbols: stored::SymbolTable { hosts: &gt.symbols },
        };
        assert_eq!(format!("{gt:?}"), format!("{derived:?}"));
        assert_eq!(format!("{gt:#?}"), format!("{derived:#?}"));
    }
}

/// A hand-built timeline holding every event kind, a user message with a
/// quote and a backslash, an interval entered before the first event
/// and one held to the end.
fn golden_timeline() -> GlobalTimeline {
    let at = |ns: i64| TimeBounds {
        lo: GlobalNanos(ns - 1),
        hi: GlobalNanos(ns + 2),
    };
    let event = |sm: u32, kind: GlobalEventKind, ns: i64, record_index: u32| GlobalEvent {
        sm: SmId::from_raw(sm),
        kind,
        bounds: at(ns),
        record_index,
    };
    let events = vec![
        event(
            0,
            GlobalEventKind::StateChange {
                event: EventId::from_raw(1),
                from_state: StateId::from_raw(0),
                new_state: StateId::from_raw(2),
            },
            10,
            0,
        ),
        event(
            1,
            GlobalEventKind::Injection {
                fault: FaultId::from_raw(3),
            },
            20,
            0,
        ),
        event(0, GlobalEventKind::UserMessage { start: 2, len: 14 }, 30, 1),
        event(
            1,
            GlobalEventKind::Restart {
                host: HostId::from_raw(1),
            },
            40,
            1,
        ),
    ];
    GlobalTimeline {
        events: events.into(),
        messages: r#"..say "hi" \ bye.."#.into(),
        intervals: vec![
            StateInterval {
                sm: SmId::from_raw(1),
                state: StateId::from_raw(4),
                enter: StateInterval::OPEN,
                exit: 3,
            },
            StateInterval {
                sm: SmId::from_raw(0),
                state: StateId::from_raw(2),
                enter: 0,
                exit: StateInterval::OPEN,
            },
        ]
        .into(),
        start: GlobalNanos(9),
        end: GlobalNanos(42),
        alpha_beta: vec![
            AlphaBetaBounds::identity(),
            AlphaBetaBounds {
                alpha_lo: -1.5,
                alpha_hi: 2.0,
                beta_lo: 0.999,
                beta_hi: 1.001,
            },
        ]
        .into(),
        reference_host: HostId::from_raw(0),
        symbols: Arc::new(SymbolTable::from_iter(["h1", "h2"])),
    }
}

/// The exact `Debug` text of [`golden_timeline`]: result digests hash
/// this rendering, so any drift in it must be deliberate.
#[test]
fn debug_text_is_golden() {
    let golden = concat!(
        r#"GlobalTimeline { events: [GlobalEvent { sm: #0, kind: StateChange { event: #1, from_state: #0, new_state: #2 }, bounds: TimeBounds { lo: GlobalNanos(9), hi: GlobalNanos(12) }, record_index: 0 }"#,
        r#", GlobalEvent { sm: #1, kind: Injection { fault: #3 }, bounds: TimeBounds { lo: GlobalNanos(19), hi: GlobalNanos(22) }, record_index: 0 }"#,
        r#", GlobalEvent { sm: #0, kind: UserMessage("say \"hi\" \\ bye"), bounds: TimeBounds { lo: GlobalNanos(29), hi: GlobalNanos(32) }, record_index: 1 }"#,
        r#", GlobalEvent { sm: #1, kind: Restart { host: #1 }, bounds: TimeBounds { lo: GlobalNanos(39), hi: GlobalNanos(42) }, record_index: 1 }"#,
        r#"], intervals: [StateInterval { sm: #1, state: #4, enter: TimeBounds { lo: GlobalNanos(9), hi: GlobalNanos(9) }, exit: Some(TimeBounds { lo: GlobalNanos(39), hi: GlobalNanos(42) }) }"#,
        r#", StateInterval { sm: #0, state: #2, enter: TimeBounds { lo: GlobalNanos(9), hi: GlobalNanos(12) }, exit: None }"#,
        r#"], start: GlobalNanos(9), end: GlobalNanos(42), alpha_beta: [AlphaBetaBounds { alpha_lo: 0.0, alpha_hi: 0.0, beta_lo: 1.0, beta_hi: 1.0 }, AlphaBetaBounds { alpha_lo: -1.5, alpha_hi: 2.0, beta_lo: 0.999, beta_hi: 1.001 }], reference_host: #0"#,
        r#", symbols: SymbolTable { hosts: NameTable { names: ["h1", "h2"], index: {"h2": 1, "h1": 0}, _tag: PhantomData<fn() -> loki_core::ids::HostTag> } } }"#,
    );
    assert_eq!(format!("{:?}", golden_timeline()), golden);
}

#[test]
fn from_state_tracks_previous_state() {
    let study = study();
    let data = experiment(&study);
    let gt = make_global(&study, &data, &GlobalOptions::default()).unwrap();
    let kinds: Vec<(&str, &str)> = gt
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            GlobalEventKind::StateChange {
                from_state,
                new_state,
                ..
            } => Some((
                study.states.name(*from_state),
                study.states.name(*new_state),
            )),
            _ => None,
        })
        .collect();
    assert_eq!(
        kinds,
        vec![("BEGIN", "INIT"), ("INIT", "WORK"), ("WORK", "EXIT")]
    );
}

#[test]
fn missing_sync_data_is_an_error() {
    let study = study();
    let mut data = experiment(&study);
    data.pre_sync.clear();
    data.post_sync.clear();
    let err = make_global(&study, &data, &GlobalOptions::default());
    assert!(matches!(err, Err(AnalysisError::Sync { .. })));
}

#[test]
fn out_of_table_host_is_a_clean_unknown_host_error() {
    // A timeline whose stint carries a HostId the symbol table never
    // interned (e.g. loaded against a different table) must surface as
    // `UnknownHost`, not an index panic.
    let study = study();
    let mut data = experiment(&study);
    data.timelines[0].stints[0].host = loki_core::ids::HostId::from_raw(99);
    let err = make_global(&study, &data, &GlobalOptions::default());
    match err {
        Err(AnalysisError::UnknownHost { host, .. }) => {
            assert_eq!(host, "<host #99>");
        }
        other => panic!("expected UnknownHost, got {other:?}"),
    }
    // An in-table host with no sync data errs with its real name.
    let mut data = experiment(&study);
    let h2 = data.symbols.lookup("h2").unwrap();
    data.hosts.retain(|&h| h != h2); // never calibrated
    let err = make_global(&study, &data, &GlobalOptions::default());
    assert!(
        matches!(err, Err(AnalysisError::UnknownHost { ref host, .. }) if host == "h2"),
        "{err:?}"
    );
}

#[test]
fn reference_host_projects_exactly() {
    let study = study();
    let mut data = experiment(&study);
    // Move the machine onto the reference host: exact projection.
    data.timelines[0].stints[0].host = data.reference_host;
    let gt = make_global(&study, &data, &GlobalOptions::default()).unwrap();
    let e = &gt.events[0];
    assert_eq!(e.bounds, TimeBounds::point(GlobalNanos(10_000_000)));
}

/// A record at or past `MAX_READING_NS` is a typed error naming its
/// host, on the reference's identity projection as on any other.
#[test]
fn record_reading_past_the_range_is_a_typed_error() {
    use loki_clock::sync::{SyncError, MAX_READING_NS};
    let (study, opts) = (study(), GlobalOptions::default());
    let mut data = experiment(&study);
    data.timelines[0].records[2].time = LocalNanos(MAX_READING_NS);
    let source = SyncError::OutOfRange {
        reading_ns: MAX_READING_NS,
    };
    for host in ["h2", "h1"] {
        data.timelines[0].stints[0].host = data.symbols.lookup(host).unwrap();
        let (host, source) = (host.into(), source.clone());
        let err = Err(AnalysisError::Sync { host, source });
        assert_eq!(make_global(&study, &data, &opts), err);
    }
    data.timelines[0].records[2].time = LocalNanos(MAX_READING_NS - 1);
    assert!(make_global(&study, &data, &opts).is_ok());
}

/// Three shapes of experiment: one machine, four interleaving
/// machines, and the four with a clock stepping backwards across a host
/// change (a restart that sorts ahead of its own timeline's past).
fn shapes() -> (Study, Vec<ExperimentData>) {
    let study = study_of(&["a", "b", "c", "d"]);
    let hosts = ["h1", "h2", "h3", "h4"];
    let spread = [("a", "h2"), ("b", "h3"), ("c", "h4"), ("d", "h1")];
    let single = experiment_on(&study, &["h1", "h2"], &[("a", "h2")]);
    let interleaved = experiment_on(&study, &hosts, &spread);
    let mut backwards = experiment_on(&study, &hosts, &spread);
    let h4 = backwards.symbols.lookup("h4").unwrap();
    backwards.timelines[1].resume_on(LocalNanos::from_millis(1), h4);
    (study, vec![single, interleaved, backwards])
}
