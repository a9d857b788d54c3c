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
//! compact intervals, which only point at their events: what
//! `enter_of`/`exit_of` resolve must equal the reference's bounds, on a
//! merge of many runs and on a run split where a clock steps back alike.

use loki_analysis::global::{make_global, GlobalEventKind, GlobalOptions, GlobalTimeline};
use loki_analysis::AnalysisError;
use loki_clock::sync::{estimate_alpha_beta, AlphaBetaBounds};
use loki_core::campaign::{ExperimentData, HostSync, SyncSample};
use loki_core::ids::{EventId, StateId, SymbolTable};
use loki_core::recorder::{LocalTimeline, RecordKind, Recorder};
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_core::time::{LocalNanos, TimeBounds};
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

fn sync_for(host: loki_core::ids::HostId, skew_ns: u64) -> HostSync {
    let mut samples = Vec::new();
    for k in 0..12u64 {
        let t = k * 1_000_000 + skew_ns;
        samples.push(SyncSample {
            from_reference: true,
            send: LocalNanos(t),
            recv: LocalNanos(t + 40_000),
        });
        samples.push(SyncSample {
            from_reference: false,
            send: LocalNanos(t + 400_000),
            recv: LocalNanos(t + 440_000),
        });
    }
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
        pre_sync: vec![sync_for(h2, 0), sync_for(h3, 137)],
        post_sync: vec![sync_for(h2, 50_000_000), sync_for(h3, 50_000_137)],
        end: Default::default(),
        warnings: vec![],
    }
}

/// Four machines spread over all three hosts, their records interleaved in
/// time and tied across hosts: a merge of four runs.
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
/// 2 ms: its records after the restart project before those ahead of it,
/// so its run is not sorted and `make_global` takes the sort.
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

/// `(machine, state, enter, exit)` of one reference occupancy interval.
type RefInterval = (String, String, TimeBounds, Option<TimeBounds>);

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
        let mut open: Option<(StateId, TimeBounds)> = None;
        for (idx, record) in timeline.records.iter().enumerate() {
            // The PR 3 shape: a stint scan per record, then a string-keyed
            // map lookup.
            let host = data.host_name(timeline.host_of_record(idx));
            let ab = &alpha_beta[host];
            let bounds = ab.project(record.time);
            let kind = match &record.kind {
                RecordKind::StateChange { event, new_state } => {
                    let from_state = current_state;
                    if let Some((state, enter)) = open.take() {
                        intervals.push((
                            sm_name.clone(),
                            study.states.name(state).to_owned(),
                            enter,
                            Some(bounds),
                        ));
                    }
                    open = Some((*new_state, bounds));
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
                            Some(bounds),
                        ));
                    }
                    open = Some((StateId::BEGIN, bounds));
                    current_state = StateId::BEGIN;
                    RefKind::Restart {
                        host: data.host_name(*host).to_owned(),
                    }
                }
                RecordKind::UserMessage(m) => RefKind::UserMessage(m.clone()),
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

    // Intervals: same occupancy history per machine, and the events each
    // one points at carry exactly the bounds the reference copied.
    assert_eq!(gt.intervals.len(), ref_intervals.len());
    for (got, (sm, state, enter, exit)) in gt.intervals.iter().zip(&ref_intervals) {
        assert_eq!(study.sms.name(got.sm), sm);
        assert_eq!(study.states.name(got.state), state);
        assert_eq!(&gt.enter_of(got), enter, "{got:?}");
        assert_eq!(&gt.exit_of(got), exit, "{got:?}");
    }

    // Calibration: the dense vector holds exactly the map's bounds.
    assert_eq!(ref_alpha_beta.len(), 3);
    for (name, want) in &ref_alpha_beta {
        let host = data.symbols.lookup(name).unwrap();
        assert_eq!(&gt.alpha_beta[host.index()], want, "host {name}");
    }
    assert_eq!(gt.host_name(gt.reference_host), "h1");
    gt
}

/// Whether some machine's events sit out of record order on the timeline —
/// only a run split where a clock steps back leaves them so; otherwise a
/// machine's timeline merges as one whole run.
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
        "no run was split where the clock stepped back"
    );
    assert!(gt
        .events
        .iter()
        .any(|e| matches!(e.kind, GlobalEventKind::Restart { .. })));
}
