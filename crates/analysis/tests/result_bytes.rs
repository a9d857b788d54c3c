//! `AnalyzedExperiment::approx_size_bytes` is exact: the heap bytes an
//! `analyze_one` result keeps live equal what it reports beyond its own
//! inline size. The library forbids `unsafe`, so the counting allocator
//! lives in this test crate.

use loki_analysis::{analyze_one, AnalysisOptions, AnalyzedExperiment, Verdict};
use loki_core::campaign::{ExperimentData, ExperimentEnd, HostSync, SyncSample};
use loki_core::fault::{FaultExpr, Trigger};
use loki_core::ids::{HostId, SymbolTable};
use loki_core::recorder::Recorder;
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_core::time::LocalNanos;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, keeping a per-thread count of the bytes
/// requested and not yet freed.
struct Counting;

fn add(bytes: isize) {
    // `try_with`: a thread's locals may be gone while it still allocates.
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

// SAFETY: every method forwards its arguments to `System` unchanged; the
// counter is a `const`-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// Machine `a` walks INIT → WORK → EXIT; `b` watches. Faults `early` and
/// `never`, both owned by `b`, fire on `(a:WORK)`.
fn study() -> Study {
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
        .fault("b", "early", FaultExpr::atom("a", "WORK"), Trigger::Once)
        .fault("b", "never", FaultExpr::atom("a", "WORK"), Trigger::Once);
    Study::compile(&def).unwrap()
}

fn ideal_sync(host: HostId) -> HostSync {
    let samples = (0..10u64)
        .flat_map(|k| {
            let t = k * 1_000_000;
            [
                SyncSample {
                    from_reference: true,
                    send: LocalNanos(t),
                    recv: LocalNanos(t + 30_000),
                },
                SyncSample {
                    from_reference: false,
                    send: LocalNanos(t + 500_000),
                    recv: LocalNanos(t + 530_000),
                },
            ]
        })
        .collect();
    HostSync { host, samples }
}

/// Both machines on the non-reference host `h2`: `a` enters WORK at 10 ms
/// and logs two user messages, `b` injects `early` at 5 ms — while `a` is
/// still in INIT, so the check rejects it — and never injects `never`,
/// which the check reports missing.
fn experiment(study: &Study) -> ExperimentData {
    let (h1, h2) = (HostId::from_raw(0), HostId::from_raw(1));
    let a = study.sm_id("a").unwrap();
    let b = study.sm_id("b").unwrap();
    let go = study.events.lookup("GO").unwrap();
    let done = study.events.lookup("DONE").unwrap();
    let init = study.states.lookup("INIT").unwrap();
    let work = study.states.lookup("WORK").unwrap();
    let watch = study.states.lookup("WATCH").unwrap();
    let ms = LocalNanos::from_millis;
    let mut rec_a = Recorder::new(a, h2);
    rec_a.record_state_change(ms(1), go, init);
    rec_a.record_user_message(ms(2), "retry seq=0 attempt=1");
    rec_a.record_state_change(ms(10), go, work);
    rec_a.record_user_message(ms(12), "say \"hi\"");
    rec_a.record_state_change(ms(30), done, study.reserved.exit);
    let mut rec_b = Recorder::new(b, h2);
    rec_b.record_state_change(ms(1), go, watch);
    rec_b.record_injection(ms(5), study.fault_names.lookup("early").unwrap());
    rec_b.record_state_change(ms(30), done, study.reserved.exit);
    ExperimentData {
        study: "s".into(),
        experiment: 0,
        timelines: vec![rec_a.finish(), rec_b.finish()],
        hosts: vec![h1, h2],
        reference_host: h1,
        symbols: Arc::new(SymbolTable::for_hosts(["h1", "h2"])),
        pre_sync: vec![ideal_sync(h2)],
        post_sync: vec![ideal_sync(h2)],
        end: ExperimentEnd::Completed,
        warnings: vec![],
    }
}

/// Analyzes `data` once to warm the thread's merge scratch, then returns
/// a second result with the heap bytes it keeps live.
fn analyzed_with_live_bytes(study: &Study, data: &ExperimentData) -> (AnalyzedExperiment, usize) {
    let opts = AnalysisOptions::default();
    drop(analyze_one(study, data, &opts));
    let before = live();
    let analyzed = analyze_one(study, data, &opts);
    let kept = live() - before;
    (
        analyzed,
        usize::try_from(kept).expect("a result frees nothing"),
    )
}

fn assert_exact(study: &Study, data: &ExperimentData) -> AnalyzedExperiment {
    let (analyzed, kept) = analyzed_with_live_bytes(study, data);
    assert_eq!(
        analyzed.approx_size_bytes() - std::mem::size_of::<AnalyzedExperiment>(),
        kept,
        "{analyzed:?}"
    );
    analyzed
}

#[test]
fn a_checked_result_reports_the_bytes_it_keeps() {
    let study = study();
    let analyzed = assert_exact(&study, &experiment(&study));
    let verdict = analyzed.verdict.as_ref().expect("checked");
    assert!(matches!(
        verdict.checks[..],
        [loki_analysis::checker::InjectionCheck {
            verdict: Verdict::Incorrect { .. },
            ..
        }]
    ));
    assert_eq!(verdict.missing.len(), 1);
    let global = analyzed.global.as_ref().expect("built");
    let messages: Vec<&str> = global
        .events
        .iter()
        .filter_map(|e| global.user_message(e))
        .collect();
    assert_eq!(messages, ["retry seq=0 attempt=1", "say \"hi\""]);
}

#[test]
fn failed_and_unfinished_results_report_the_bytes_they_keep() {
    let study = study();
    let mut unsynced = experiment(&study);
    unsynced.pre_sync.clear();
    unsynced.post_sync.clear();
    let mut uncalibrated = experiment(&study);
    uncalibrated.hosts.truncate(1);
    let mut aborted = experiment(&study);
    aborted.end = ExperimentEnd::Aborted;
    for data in [&unsynced, &uncalibrated, &aborted] {
        let analyzed = assert_exact(&study, data);
        assert!(analyzed.global.is_none() && !analyzed.accepted());
    }
}
