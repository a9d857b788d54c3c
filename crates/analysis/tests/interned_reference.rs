//! Reference test for the host-interning refactor: the interned
//! `make_global` must produce — record for record, bound for bound —
//! exactly what the PR 3 string-based implementation produced on the same
//! recorded fixture.
//!
//! The reference below *is* that implementation, ported verbatim to operate
//! on resolved host-name strings: a `HashMap<String, AlphaBetaBounds>`
//! keyed by host name for the `alphabeta` phase, and a per-record
//! stint-scan (`host_of_record`) for the projection. Running both over a
//! multi-host fixture with restarts pins the refactor to the old
//! semantics.
//!
//! The reference still builds every occupancy interval with its bounds
//! copied from the raw records, so it is also the value oracle for the
//! compact intervals, which only point at their events: each must point at
//! its own machine's entering and leaving records, and what
//! `enter_of`/`exit_of` resolve must equal the reference's bounds. The
//! fixtures below pin interleaved timelines and a clock stepping back; a
//! generated property adds ties across machines on one host, the case
//! where only a stable order gives the reference's bytes.

use loki_analysis::global::{
    make_global, GlobalEventKind, GlobalOptions, GlobalTimeline, StateInterval,
};
use loki_analysis::AnalysisError;
use loki_clock::sync::{estimate_alpha_beta, AlphaBetaBounds};
use loki_core::campaign::{ExperimentData, HostSync, SyncSample};
use loki_core::ids::{EventId, HostId, StateId, SymbolTable};
use loki_core::recorder::{LocalTimeline, RecordKind, Recorder};
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_core::time::{LocalNanos, TimeBounds};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Machines `a`–`d`, INIT → WORK → EXIT each; fault `f` on `(a:WORK)`,
/// owned by `b`.
fn study() -> Study {
    let def = ["a", "b", "c", "d"]
        .iter()
        .fold(StudyDef::new("ref"), |def, name| {
            def.machine(
                StateMachineSpec::builder(name)
                    .states(&["INIT", "WORK"])
                    .events(&["GO", "DONE"])
                    .state("INIT", &[], &[("GO", "WORK")])
                    .state("WORK", &[], &[("DONE", "EXIT")])
                    .build(),
            )
        })
        .fault(
            "b",
            "f",
            loki_core::fault::FaultExpr::atom("a", "WORK"),
            loki_core::fault::Trigger::Once,
        );
    Study::compile(&def).unwrap()
}

/// Twelve exchanges from `from_ns` on between the reference and `host`,
/// whose clock reads `offset_ns` plus `drift_ppm` parts per million ahead
/// of the reference, over 40 µs one-way delays.
fn sync_for(host: HostId, offset_ns: u64, drift_ppm: u64, from_ns: u64) -> HostSync {
    let reads = |t: u64| offset_ns + t + t * drift_ppm / 1_000_000;
    let samples = (0..12u64)
        .flat_map(|k| {
            let t = from_ns + k * 1_000_000;
            [
                SyncSample {
                    from_reference: true,
                    send: LocalNanos(t),
                    recv: LocalNanos(reads(t + 40_000)),
                },
                SyncSample {
                    from_reference: false,
                    send: LocalNanos(reads(t + 400_000)),
                    recv: LocalNanos(t + 440_000),
                },
            ]
        })
        .collect();
    HostSync { host, samples }
}

/// A fixture exercising every record kind: two machines over three hosts,
/// a mid-experiment restart onto a different host, an injection, and a
/// user message.
fn fixture(study: &Study) -> ExperimentData {
    let symbols = Arc::new(SymbolTable::from_iter(["h1", "h2", "h3"]));
    let h2 = symbols.lookup("h2").unwrap();
    let h3 = symbols.lookup("h3").unwrap();
    let a = study.sm_id("a").unwrap();
    let b = study.sm_id("b").unwrap();
    let go = study.events.lookup("GO").unwrap();
    let done = study.events.lookup("DONE").unwrap();
    let init = study.states.lookup("INIT").unwrap();
    let work = study.states.lookup("WORK").unwrap();
    let f = study.fault_names.lookup("f").unwrap();

    // `a` starts on h2, crashes, restarts on h3.
    let mut rec_a = Recorder::new(a, h2);
    rec_a.record_state_change(LocalNanos::from_millis(5), go, init);
    rec_a.record_state_change(LocalNanos::from_millis(12), go, work);
    rec_a.record_state_change(LocalNanos::from_millis(20), EventId::CRASH, StateId::CRASH);
    let mut rec_a = Recorder::resume(rec_a.finish(), LocalNanos::from_millis(22), h3);
    rec_a.record_state_change(LocalNanos::from_millis(25), go, init);
    rec_a.record_user_message(LocalNanos::from_millis(26), "back up");
    rec_a.record_state_change(LocalNanos::from_millis(30), done, StateId::EXIT);

    // `b` watches from h2 and injects.
    let mut rec_b = Recorder::new(b, h2);
    rec_b.record_state_change(LocalNanos::from_millis(5), go, init);
    rec_b.record_injection(LocalNanos::from_millis(15), f);
    rec_b.record_state_change(LocalNanos::from_millis(30), done, StateId::EXIT);

    experiment(symbols, vec![rec_a.finish(), rec_b.finish()])
}

/// Three hosts (`h1` the reference) with the sync data every fixture uses.
fn experiment(symbols: Arc<SymbolTable>, timelines: Vec<LocalTimeline>) -> ExperimentData {
    let [h1, h2, h3] = ["h1", "h2", "h3"].map(|name| symbols.lookup(name).unwrap());
    ExperimentData {
        experiment: 0,
        timelines,
        hosts: vec![h1, h2, h3],
        reference_host: h1,
        symbols,
        pre_sync: vec![sync_for(h2, 0, 0, 0), sync_for(h3, 0, 0, 137)],
        post_sync: vec![
            sync_for(h2, 0, 0, 50_000_000),
            sync_for(h3, 0, 0, 50_000_137),
        ],
        end: Default::default(),
        warnings: vec![],
    }
}

/// Four machines spread over all three hosts, their records interleaved in
/// time and tied across hosts.
fn four_run_fixture(study: &Study) -> ExperimentData {
    let symbols = Arc::new(SymbolTable::from_iter(["h1", "h2", "h3"]));
    let go = study.events.lookup("GO").unwrap();
    let done = study.events.lookup("DONE").unwrap();
    let init = study.states.lookup("INIT").unwrap();
    let work = study.states.lookup("WORK").unwrap();
    let f = study.fault_names.lookup("f").unwrap();
    let placement = [("a", "h2"), ("b", "h3"), ("c", "h1"), ("d", "h2")];
    let timelines = (0u64..)
        .zip(placement)
        .map(|(i, (machine, host))| {
            let sm = study.sm_id(machine).unwrap();
            let mut rec = Recorder::new(sm, symbols.lookup(host).unwrap());
            rec.record_state_change(LocalNanos::from_millis(4 + i), go, init);
            rec.record_state_change(LocalNanos::from_millis(10 + i), go, work);
            if machine == "b" {
                rec.record_injection(LocalNanos::from_millis(13), f);
            }
            rec.record_user_message(LocalNanos::from_millis(16 + i), "tick");
            rec.record_state_change(LocalNanos::from_millis(30), done, StateId::EXIT);
            rec.finish()
        })
        .collect();
    experiment(symbols, timelines)
}

/// `a` crashes on `h2` at 20 ms and restarts on `h3`, whose clock reads
/// 2 ms: its records after the restart project before those ahead of it.
fn backwards_fixture(study: &Study) -> ExperimentData {
    let symbols = Arc::new(SymbolTable::from_iter(["h1", "h2", "h3"]));
    let [h2, h3] = ["h2", "h3"].map(|name| symbols.lookup(name).unwrap());
    let a = study.sm_id("a").unwrap();
    let b = study.sm_id("b").unwrap();
    let go = study.events.lookup("GO").unwrap();
    let done = study.events.lookup("DONE").unwrap();
    let init = study.states.lookup("INIT").unwrap();
    let work = study.states.lookup("WORK").unwrap();
    let mut rec_a = Recorder::new(a, h2);
    rec_a.record_state_change(LocalNanos::from_millis(5), go, init);
    rec_a.record_state_change(LocalNanos::from_millis(12), go, work);
    rec_a.record_state_change(LocalNanos::from_millis(20), EventId::CRASH, StateId::CRASH);
    let mut rec_a = Recorder::resume(rec_a.finish(), LocalNanos::from_millis(2), h3);
    rec_a.record_state_change(LocalNanos::from_millis(3), go, init);
    rec_a.record_state_change(LocalNanos::from_millis(8), done, StateId::EXIT);
    let mut rec_b = Recorder::new(b, h2);
    rec_b.record_state_change(LocalNanos::from_millis(6), go, init);
    rec_b.record_state_change(LocalNanos::from_millis(9), go, work);
    experiment(symbols, vec![rec_a.finish(), rec_b.finish()])
}

/// One event of the string-based reference output.
#[derive(Debug, PartialEq)]
enum RefKind {
    StateChange {
        event: String,
        from_state: String,
        new_state: String,
    },
    Injection {
        fault: String,
    },
    Restart {
        host: String,
    },
    UserMessage(String),
}

#[derive(Debug, PartialEq)]
struct RefEvent {
    sm: String,
    kind: RefKind,
    bounds: TimeBounds,
    record_index: u32,
}

/// The bounds and record index of the event at one end of an interval.
type RefEnd = (TimeBounds, u32);

/// `(machine, state, enter, exit)` of one reference occupancy interval.
type RefInterval = (String, String, RefEnd, Option<RefEnd>);

/// The complete string-based reference output.
type RefOutput = (
    Vec<RefEvent>,
    Vec<RefInterval>,
    HashMap<String, AlphaBetaBounds>,
);

/// The PR 3 `make_global`, string-based: host names resolved up front,
/// `alpha_beta` a name-keyed `HashMap`, hosts looked up by hashing the
/// name once per record.
fn make_global_strings(study: &Study, data: &ExperimentData) -> Result<RefOutput, AnalysisError> {
    let opts = GlobalOptions::default();
    let mut alpha_beta: HashMap<String, AlphaBetaBounds> = HashMap::new();
    alpha_beta.insert(
        data.host_name(data.reference_host).to_owned(),
        AlphaBetaBounds::identity(),
    );
    let mut samples = Vec::new();
    for &host in &data.hosts {
        if host == data.reference_host {
            continue;
        }
        data.sync_samples_into(host, &mut samples);
        let bounds = estimate_alpha_beta(&samples, &opts.sync).unwrap();
        alpha_beta.insert(data.host_name(host).to_owned(), bounds);
    }

    let mut events = Vec::new();
    let mut intervals = Vec::new();
    for timeline in &data.timelines {
        let sm_name = study.sms.name(timeline.sm).to_owned();
        let mut current_state = StateId::BEGIN;
        let mut open: Option<(StateId, RefEnd)> = None;
        for (idx, record) in timeline.records.iter().enumerate() {
            // The PR 3 shape: a stint scan per record, then a string-keyed
            // map lookup.
            let host = data.host_name(timeline.host_of_record(idx));
            let ab = &alpha_beta[host];
            let bounds = ab.project(record.time).unwrap();
            let here = (bounds, idx as u32);
            let kind = match &record.kind {
                RecordKind::StateChange { event, new_state } => {
                    let from_state = current_state;
                    if let Some((state, enter)) = open.take() {
                        intervals.push((
                            sm_name.clone(),
                            study.states.name(state).to_owned(),
                            enter,
                            Some(here),
                        ));
                    }
                    open = Some((*new_state, here));
                    current_state = *new_state;
                    RefKind::StateChange {
                        event: study.events.name(*event).to_owned(),
                        from_state: study.states.name(from_state).to_owned(),
                        new_state: study.states.name(*new_state).to_owned(),
                    }
                }
                RecordKind::FaultInjection { fault } => RefKind::Injection {
                    fault: study.fault_names.name(*fault).to_owned(),
                },
                RecordKind::Restart { host } => {
                    if let Some((state, enter)) = open.take() {
                        intervals.push((
                            sm_name.clone(),
                            study.states.name(state).to_owned(),
                            enter,
                            Some(here),
                        ));
                    }
                    open = Some((StateId::BEGIN, here));
                    current_state = StateId::BEGIN;
                    RefKind::Restart {
                        host: data.host_name(*host).to_owned(),
                    }
                }
                RecordKind::UserMessage { start, len } => {
                    let start = *start as usize;
                    RefKind::UserMessage(timeline.text[start..start + *len as usize].to_owned())
                }
            };
            events.push(RefEvent {
                sm: sm_name.clone(),
                kind,
                bounds,
                record_index: idx as u32,
            });
        }
        if let Some((state, enter)) = open.take() {
            intervals.push((
                sm_name.clone(),
                study.states.name(state).to_owned(),
                enter,
                None,
            ));
        }
    }
    events.sort_by(|a, b| a.bounds.mid().total_cmp(&b.bounds.mid()));
    Ok((events, intervals, alpha_beta))
}

/// Asserts `make_global` equals the reference on `data` — every event,
/// every interval's resolved bounds, every calibration — and returns it.
fn assert_matches_reference(study: &Study, data: &ExperimentData) -> GlobalTimeline {
    let gt = make_global(study, data, &GlobalOptions::default()).unwrap();
    let (ref_events, ref_intervals, ref_alpha_beta) = make_global_strings(study, data).unwrap();

    // Events: same order, same bounds, same resolved identities.
    assert_eq!(gt.events.len(), ref_events.len());
    for (got, want) in gt.events.iter().zip(&ref_events) {
        assert_eq!(study.sms.name(got.sm), want.sm);
        assert_eq!(got.bounds, want.bounds);
        assert_eq!(got.record_index, want.record_index);
        let got_kind = match &got.kind {
            GlobalEventKind::StateChange {
                event,
                from_state,
                new_state,
            } => RefKind::StateChange {
                event: study.events.name(*event).to_owned(),
                from_state: study.states.name(*from_state).to_owned(),
                new_state: study.states.name(*new_state).to_owned(),
            },
            GlobalEventKind::Injection { fault } => RefKind::Injection {
                fault: study.fault_names.name(*fault).to_owned(),
            },
            GlobalEventKind::Restart { host } => RefKind::Restart {
                host: gt.host_name(*host).to_owned(),
            },
            GlobalEventKind::UserMessage { .. } => RefKind::UserMessage(
                gt.user_message(got)
                    .expect("make_global spans its own buffer")
                    .to_owned(),
            ),
        };
        assert_eq!(got_kind, want.kind);
    }

    // Intervals: same occupancy history per machine, each pointing at its
    // own machine's entering and leaving records, whose events carry
    // exactly the bounds the reference copied.
    assert_eq!(gt.intervals.len(), ref_intervals.len());
    let record_at = |position: u32| {
        let e = &gt.events[position as usize];
        (e.sm, e.record_index)
    };
    for (got, (sm, state, enter, exit)) in gt.intervals.iter().zip(&ref_intervals) {
        assert_eq!(study.sms.name(got.sm), sm);
        assert_eq!(study.states.name(got.state), state);
        assert_eq!(record_at(got.enter), (got.sm, enter.1), "{got:?}");
        assert_eq!(gt.enter_of(got), enter.0, "{got:?}");
        match exit {
            Some((bounds, record)) => {
                assert_eq!(record_at(got.exit), (got.sm, *record), "{got:?}");
                assert_eq!(gt.exit_of(got), Some(*bounds), "{got:?}");
            }
            None => assert_eq!(got.exit, StateInterval::OPEN, "{got:?}"),
        }
    }

    // Calibration: the dense vector holds exactly the map's bounds.
    assert_eq!(ref_alpha_beta.len(), data.hosts.len());
    for (name, want) in &ref_alpha_beta {
        let host = data.symbols.lookup(name).unwrap();
        assert_eq!(&gt.alpha_beta[host.index()], want, "host {name}");
    }
    assert_eq!(gt.host_name(gt.reference_host), "h1");
    gt
}

/// Whether some machine's events sit out of record order on the timeline,
/// which only a clock stepping back leaves them in.
fn out_of_record_order(gt: &GlobalTimeline) -> bool {
    let mut last = std::collections::BTreeMap::new();
    !gt.events.iter().all(|e| {
        last.insert(e.sm, e.record_index)
            .is_none_or(|r| r < e.record_index)
    })
}

#[test]
fn interned_make_global_matches_the_string_based_reference() {
    let study = study();
    let data = fixture(&study);
    let gt = assert_matches_reference(&study, &data);

    // The fixture exercised what it claims: a restart stint and an
    // injection both made it onto the global timeline.
    assert!(gt
        .events
        .iter()
        .any(|e| matches!(e.kind, GlobalEventKind::Restart { .. })));
    assert_eq!(gt.injections().count(), 1);
}

#[test]
fn a_merge_of_four_runs_matches_the_reference() {
    let study = study();
    let data = four_run_fixture(&study);
    assert_eq!(data.timelines.len(), 4);
    let gt = assert_matches_reference(&study, &data);
    assert!(!out_of_record_order(&gt));
    // The runs interleave rather than follow one another.
    assert!(gt.events.windows(2).filter(|w| w[0].sm != w[1].sm).count() > 4);
    assert_eq!(gt.injections().count(), 1);
}

#[test]
fn a_clock_stepping_back_across_a_restart_matches_the_reference() {
    let study = study();
    let data = backwards_fixture(&study);
    let gt = assert_matches_reference(&study, &data);
    assert!(
        out_of_record_order(&gt),
        "no record sorted ahead of its own timeline's past"
    );
    // The restart, `a`'s fourth record, sorts first, and the BEGIN
    // interval it opens follows it to position 0.
    assert!(matches!(
        (&gt.events[0].kind, gt.events[0].record_index),
        (GlobalEventKind::Restart { .. }, 3)
    ));
    let reopened = gt.intervals.iter().find(|iv| iv.state == StateId::BEGIN);
    assert_eq!(reopened.map(|iv| iv.enter), Some(0));
}

/// Machines recorded at identical local times on one host project to
/// identical midpoints, and the tied events surface in timeline-then-record
/// order: the insertion order a stable sort keeps.
#[test]
fn make_global_resolves_tied_mids_in_timeline_order() {
    let study = study();
    let symbols = Arc::new(SymbolTable::from_iter(["h1", "h2", "h3"]));
    let h2 = symbols.lookup("h2").unwrap();
    let go = study.events.lookup("GO").unwrap();
    let done = study.events.lookup("DONE").unwrap();
    let init = study.states.lookup("INIT").unwrap();
    let work = study.states.lookup("WORK").unwrap();
    // Every machine records the same three local instants on host `h2`.
    let timelines = ["a", "b", "c"]
        .map(|name| {
            let mut rec = Recorder::new(study.sm_id(name).unwrap(), h2);
            rec.record_state_change(LocalNanos::from_millis(5), go, init);
            rec.record_state_change(LocalNanos::from_millis(12), go, work);
            rec.record_state_change(LocalNanos::from_millis(30), done, StateId::EXIT);
            rec.finish()
        })
        .to_vec();
    let gt = make_global(
        &study,
        &experiment(symbols, timelines),
        &GlobalOptions::default(),
    )
    .unwrap();
    // Three tie groups (one per recorded instant), each in machine order.
    let order: Vec<(&str, u32)> = gt
        .events
        .iter()
        .map(|e| (study.sms.name(e.sm), e.record_index))
        .collect();
    let expected = [0, 1, 2].map(|r| [("a", r), ("b", r), ("c", r)]).concat();
    assert_eq!(order, expected);
    for group in gt.events.chunks(3) {
        assert!(group.windows(2).all(|w| w[0].bounds == w[1].bounds));
    }
}

/// One incarnation's records, in local time: `(kind, ms)`, where kind
/// 0–2 enters INIT, WORK or EXIT, 3 injects `f` and 4 logs a message. The
/// instants come from a pool of 8 ms, so records tie within a timeline and
/// across machines on one host.
fn stint() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..5, 0u64..8), 11..16).prop_map(|mut records| {
        records.sort_by_key(|&(_, ms)| ms);
        records
    })
}

/// One machine: its first host, its first incarnation, and maybe a
/// restart `(host, ms, records)` whose local clock starts over near where
/// the first began, so the restart and what follows mostly step back
/// behind the first stint's later records.
type MachinePlan = (usize, Vec<(u8, u64)>, Option<(usize, u64, Vec<(u8, u64)>)>);

fn machine_plan() -> impl Strategy<Value = MachinePlan> {
    (
        0usize..3,
        stint(),
        prop::option::of((0usize..3, 0u64..3, stint())),
    )
}

/// The experiment `plans` describe, over `clocks.len()` hosts (`h1`, the
/// reference, ignores its clock).
fn generated(study: &Study, clocks: &[(u64, u64)], plans: &[MachinePlan]) -> ExperimentData {
    let names = ["h1", "h2", "h3"];
    let symbols = Arc::new(SymbolTable::from_iter(
        names[..clocks.len()].iter().copied(),
    ));
    let hosts: Vec<HostId> = names[..clocks.len()]
        .iter()
        .map(|name| symbols.lookup(name).unwrap())
        .collect();
    let host = |pick: usize| hosts[pick % hosts.len()];
    let states = [
        study.states.lookup("INIT").unwrap(),
        study.states.lookup("WORK").unwrap(),
        StateId::EXIT,
    ];
    let go = study.events.lookup("GO").unwrap();
    let f = study.fault_names.lookup("f").unwrap();
    // Each incarnation's records follow its first instant, `from_ms`.
    let record = |rec: &mut Recorder, from_ms: u64, &(kind, ms): &(u8, u64)| {
        let at = LocalNanos::from_millis(from_ms + ms);
        match kind {
            3 => rec.record_injection(at, f),
            4 => rec.record_user_message(at, format!("at {ms}")),
            k => rec.record_state_change(at, go, states[k as usize]),
        }
    };
    let timelines = ["a", "b", "c", "d"]
        .iter()
        .zip(plans)
        .map(|(name, (first, records, restart))| {
            let mut rec = Recorder::new(study.sm_id(name).unwrap(), host(*first));
            records.iter().for_each(|r| record(&mut rec, 10, r));
            if let Some((to, ms, records)) = restart {
                let from_ms = 10 + ms;
                rec = Recorder::resume(rec.finish(), LocalNanos::from_millis(from_ms), host(*to));
                records.iter().for_each(|r| record(&mut rec, from_ms, r));
            }
            rec.finish()
        })
        .collect();
    let sync = |from_ns: u64| -> Vec<HostSync> {
        hosts[1..]
            .iter()
            .zip(&clocks[1..])
            .map(|(&h, &(offset, drift))| sync_for(h, offset, drift, from_ns))
            .collect()
    };
    ExperimentData {
        experiment: 0,
        timelines,
        reference_host: hosts[0],
        hosts: hosts.clone(),
        symbols,
        pre_sync: sync(0),
        post_sync: sync(50_000_000),
        end: Default::default(),
        warnings: vec![],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// 2–4 machines on 2–3 hosts with their own offsets and drifts: every
    /// event in the reference's order, ties across machines on one host
    /// and clocks stepping back across restarts included, and every
    /// interval pointing at the reference's records.
    #[test]
    fn make_global_matches_the_reference_on_generated_experiments(
        hosts in 2usize..4,
        clocks in prop::collection::vec((0u64..3_000_000, 0u64..200), 3),
        plans in prop::collection::vec(machine_plan(), 2..5),
    ) {
        let study = study();
        let data = generated(&study, &clocks[..hosts], &plans);
        let gt = assert_matches_reference(&study, &data);
        prop_assert!(gt.events.len() > 20);
    }
}
