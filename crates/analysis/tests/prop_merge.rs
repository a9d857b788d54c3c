//! Byte-identity pins for the k-way merge that replaced `make_global`'s
//! stable sort.
//!
//! The contract (see `loki_analysis::merge`): provided every run is
//! non-decreasing under `total_cmp(key)`, [`merge_sorted_runs`] leaves the
//! slice exactly as `sort_by(|a, b| key(a).total_cmp(&key(b)))` would —
//! including the order *within* groups of equal keys, which a stable sort
//! resolves to input order. Any input becomes such runs when it is split
//! wherever its key steps back, as `make_global` splits a timeline whose
//! clock stepped backwards, so the merge owes the same on any input once
//! split. Duplicate keys spanning many runs are the case that breaks naive
//! merges (a heap keyed on the key alone pops ties in heap-shape order), so
//! the randomized sweep below draws keys from a deliberately tiny pool to
//! force large cross-run tie groups.

use loki_analysis::global::{make_global, GlobalOptions};
use loki_analysis::merge::{merge_sorted_runs, MergeScratch};
use loki_core::campaign::{ExperimentData, HostSync, SyncSample};
use loki_core::ids::{StateId, SymbolTable};
use loki_core::recorder::Recorder;
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_core::time::LocalNanos;
use proptest::prelude::*;
use std::sync::Arc;

/// Flattens `runs` into one slice (tagging every element with its unique
/// flat position), records the run table, merges, and returns the merged
/// slice next to the stable-sort baseline of the same input.
type Tagged = Vec<(f64, u32)>;

fn merge_vs_sort(runs: &[Vec<f64>]) -> (Tagged, Tagged) {
    let mut items: Vec<(f64, u32)> = Vec::new();
    let mut scratch = MergeScratch::default();
    for run in runs {
        let start = items.len() as u32;
        for &key in run {
            let serial = items.len() as u32;
            items.push((key, serial));
        }
        if !run.is_empty() {
            scratch.runs.push((start, items.len() as u32));
        }
    }
    let mut sorted = items.clone();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    merge_sorted_runs(&items, &mut scratch, |&(key, _)| key);
    scratch.permute(&mut items);
    (items, sorted)
}

/// One run: keys drawn from a tiny pool (so ties across runs are the norm,
/// not the exception), plus signed zeros — `total_cmp` orders `-0.0` before
/// `0.0`, and the merge must too. Sorted with the same comparator the
/// baseline uses, as `make_global`'s monotonic runs are.
fn run_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..6).prop_map(f64::from),
            Just(-0.0f64),
            Just(0.0f64),
            -1e12f64..1e12f64,
        ],
        0..25,
    )
    .prop_map(|mut run| {
        run.sort_by(|a, b| a.total_cmp(b));
        run
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The merge is byte-identical to the stable sort on arbitrary sorted
    /// runs — same keys in the same slots *and* the same origin elements
    /// (the serial tags pin the permutation, not just the key sequence).
    #[test]
    fn merge_matches_stable_sort_on_randomized_tied_runs(
        runs in prop::collection::vec(run_strategy(), 0..12)
    ) {
        let (merged, sorted) = merge_vs_sort(&runs);
        prop_assert_eq!(merged, sorted);
    }

    /// Input that is not sorted: split into runs wherever the key steps
    /// back, the merge is byte-identical to the stable sort of the whole
    /// input, ties included.
    #[test]
    fn merge_of_runs_split_at_descents_matches_stable_sort_on_unsorted_input(
        runs in prop::collection::vec(run_strategy(), 0..12),
        reversed in any::<bool>(),
    ) {
        let mut items: Vec<(f64, u32)> = runs.concat().into_iter().zip(0..).collect();
        if reversed {
            items.reverse();
        }
        let mut sorted = items.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut scratch = MergeScratch::default();
        let mut start = 0;
        for i in 1..items.len() {
            if items[i - 1].0.total_cmp(&items[i].0).is_gt() {
                scratch.runs.push((start, i as u32));
                start = i as u32;
            }
        }
        if !items.is_empty() {
            scratch.runs.push((start, items.len() as u32));
        }
        merge_sorted_runs(&items, &mut scratch, |&(key, _)| key);
        scratch.permute(&mut items);
        prop_assert_eq!(items, sorted);
    }
}

/// Deterministic reference: three runs whose tie groups interleave, with
/// the expected output pinned by hand. Within each equal-key group the
/// elements appear in flat input order — run 0's members first, then run
/// 1's, then run 2's — exactly the stable sort's guarantee.
#[test]
fn merge_reference_duplicate_mid_tie_groups() {
    let runs = vec![
        vec![1.0, 2.0, 2.0, 3.0], // serials 0, 1, 2, 3
        vec![2.0, 2.0, 3.0],      // serials 4, 5, 6
        vec![1.0, 2.0, 4.0],      // serials 7, 8, 9
    ];
    let (merged, sorted) = merge_vs_sort(&runs);
    let expected = vec![
        (1.0, 0),
        (1.0, 7),
        (2.0, 1),
        (2.0, 2),
        (2.0, 4),
        (2.0, 5),
        (2.0, 8),
        (3.0, 3),
        (3.0, 6),
        (4.0, 9),
    ];
    assert_eq!(merged, expected);
    assert_eq!(sorted, expected);
}

/// The same guarantee observed end to end through `make_global`: machines
/// recorded at identical local times on one host project to identical
/// midpoints, and the tied events surface in timeline-then-record order —
/// the insertion order the replaced stable sort preserved.
#[test]
fn make_global_resolves_tied_mids_in_timeline_order() {
    let mut def = StudyDef::new("ties");
    for name in ["a", "b", "c"] {
        def = def.machine(
            StateMachineSpec::builder(name)
                .states(&["INIT", "WORK"])
                .events(&["GO", "DONE"])
                .state("INIT", &[], &[("GO", "WORK")])
                .state("WORK", &[], &[("DONE", "EXIT")])
                .build(),
        );
    }
    let study = Study::compile(&def).unwrap();
    let symbols = Arc::new(SymbolTable::from_iter(["ref", "h"]));
    let href = symbols.lookup("ref").unwrap();
    let h = symbols.lookup("h").unwrap();
    let go = study.events.lookup("GO").unwrap();
    let done = study.events.lookup("DONE").unwrap();
    let init = study.states.lookup("INIT").unwrap();

    // Every machine records the same three local instants on host `h`.
    let timelines = ["a", "b", "c"]
        .map(|name| {
            let sm = study.sm_id(name).unwrap();
            let mut rec = Recorder::new(sm, h);
            rec.record_state_change(LocalNanos::from_millis(5), go, init);
            rec.record_state_change(
                LocalNanos::from_millis(12),
                go,
                study.states.lookup("WORK").unwrap(),
            );
            rec.record_state_change(LocalNanos::from_millis(30), done, StateId::EXIT);
            rec.finish()
        })
        .to_vec();

    let mut samples = Vec::new();
    for k in 0..12u64 {
        let t = k * 1_000_000;
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
    let data = ExperimentData {
        experiment: 0,
        timelines,
        hosts: vec![href, h],
        reference_host: href,
        symbols,
        pre_sync: vec![HostSync {
            host: h,
            samples: samples.clone(),
        }],
        post_sync: vec![HostSync { host: h, samples }],
        end: Default::default(),
        warnings: vec![],
    };

    let gt = make_global(&study, &data, &GlobalOptions::default()).unwrap();
    assert_eq!(gt.events.len(), 9);
    // Three tie groups (one per recorded instant), each in machine order.
    let order: Vec<(&str, u32)> = gt
        .events
        .iter()
        .map(|e| (study.sms.name(e.sm), e.record_index))
        .collect();
    let expected = vec![
        ("a", 0),
        ("b", 0),
        ("c", 0),
        ("a", 1),
        ("b", 1),
        ("c", 1),
        ("a", 2),
        ("b", 2),
        ("c", 2),
    ];
    assert_eq!(order, expected);
    for group in gt.events.chunks(3) {
        assert!(group.windows(2).all(|w| w[0].bounds == w[1].bounds));
    }
}
