//! Criterion micro-benchmarks for the three costs no line of the campaign
//! benchmark's ledger (`benchmark/`) isolates yet.
//!
//! The thesis's performance analysis (§3.2.2) argues that Loki's own
//! overheads — fault-expression parsing, recording, notification handling —
//! are minimal next to OS context-switch costs; these benchmarks quantify
//! our implementation's fault-parser and recorder equivalents, plus
//! `make_global` on a 32-machine view segmented by restart churn.
//! Everything end to end is measured, and gated, by `benchmark/`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use loki_analysis::global::{make_global, GlobalOptions};
use loki_core::campaign::{ExperimentData, HostSync, SyncSample};
use loki_core::fault::{FaultExpr, FaultParser, Trigger};
use loki_core::ids::{Id, SymbolTable};
use loki_core::recorder::Recorder;
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_core::time::LocalNanos;
use loki_core::view::PartialView;
use std::sync::Arc;

/// Fault parser re-evaluation on a view change (the §3.5.5 hot path).
fn bench_fault_parser(c: &mut Criterion) {
    // Twenty faults over a five-machine view, mixed expressions.
    let def = (0..5).fold(StudyDef::new("s"), |def, i| {
        def.machine(
            StateMachineSpec::builder(&format!("m{i}"))
                .states(&["A", "B", "C"])
                .events(&["go"])
                .state("A", &[], &[("go", "B")])
                .build(),
        )
    });
    let def = (0..20).fold(def, |def, i| {
        let expr = FaultExpr::atom(&format!("m{}", i % 5), "B")
            .and(FaultExpr::atom(&format!("m{}", (i + 1) % 5), "A").not())
            .or(FaultExpr::atom(&format!("m{}", (i + 2) % 5), "C"));
        def.fault("m0", &format!("f{i}"), expr, Trigger::Always)
    });
    let study = Study::compile(&def).unwrap();
    let faults = study.faults_owned_by(study.sm_id("m0").unwrap());
    let b = study.states.lookup("B").unwrap();
    let a = study.states.lookup("A").unwrap();

    c.bench_function("fault_parser/20_faults_view_change", |bencher| {
        bencher.iter_batched(
            || {
                let mut view = PartialView::new(5);
                for i in 0..5u32 {
                    view.set(Id::from_raw(i), a);
                }
                (FaultParser::new(faults.clone()), view)
            },
            |(mut parser, mut view)| {
                for i in 0..5u32 {
                    view.set(Id::from_raw(i), b);
                    criterion::black_box(parser.on_view_change(&view));
                }
            },
            BatchSize::SmallInput,
        )
    });
}

/// Incremental vs. full fault-parser re-evaluation on a large study: 32
/// machines, 64 faults. A node's view changes one machine at a time, so
/// the parser indexes expressions by the machines they mention and
/// re-evaluates only those ([`FaultParser::on_machine_change`]); this
/// benchmark quantifies the win over the full `on_view_change` scan.
fn bench_fault_parser_incremental(c: &mut Criterion) {
    const MACHINES: u32 = 32;
    const FAULTS: u32 = 64;
    let def = (0..MACHINES).fold(StudyDef::new("big"), |def, i| {
        def.machine(
            StateMachineSpec::builder(&format!("m{i}"))
                .states(&["A", "B", "C"])
                .events(&["go"])
                .state("A", &[], &[("go", "B")])
                .build(),
        )
    });
    // Each fault observes three machines; collectively they cover all 32.
    let def = (0..FAULTS).fold(def, |def, i| {
        let expr = FaultExpr::atom(&format!("m{}", i % MACHINES), "B")
            .and(FaultExpr::atom(&format!("m{}", (i + 7) % MACHINES), "A").not())
            .or(FaultExpr::atom(&format!("m{}", (i + 13) % MACHINES), "C"));
        def.fault("m0", &format!("f{i}"), expr, Trigger::Always)
    });
    let study = Study::compile(&def).unwrap();
    let faults = study.faults_owned_by(study.sm_id("m0").unwrap());
    let a = study.states.lookup("A").unwrap();
    let b = study.states.lookup("B").unwrap();

    // A primed parser; each iteration flips machine 5 between B and A —
    // two genuine single-machine view changes (with real false→true
    // edges), no parser construction or teardown inside the timed region.
    let setup = || {
        let mut view = PartialView::new(MACHINES as usize);
        for i in 0..MACHINES {
            view.set(Id::from_raw(i), a);
        }
        let mut parser = FaultParser::new(faults.clone());
        parser.on_view_change(&view); // prime
        (parser, view)
    };
    let m5 = Id::from_raw(5);

    let mut group = c.benchmark_group("fault_parser_32m_64f");
    group.bench_function("full_scan_on_one_change", |bencher| {
        let (mut parser, mut view) = setup();
        bencher.iter(|| {
            view.set(m5, b);
            criterion::black_box(parser.on_view_change(&view));
            view.set(m5, a);
            criterion::black_box(parser.on_view_change(&view));
        })
    });
    group.bench_function("indexed_scan_on_one_change", |bencher| {
        let (mut parser, mut view) = setup();
        bencher.iter(|| {
            view.set(m5, b);
            criterion::black_box(parser.on_machine_change(&view, m5));
            view.set(m5, a);
            criterion::black_box(parser.on_machine_change(&view, m5));
        })
    });
    group.finish();
}

/// Recorder append (the intrusion §3.5.6 minimizes with index tables).
fn bench_recorder(c: &mut Criterion) {
    c.bench_function("recorder/append_state_change", |bencher| {
        bencher.iter_batched(
            || Recorder::new(Id::from_raw(0), Id::from_raw(0)),
            |mut rec| {
                for i in 0..100u64 {
                    rec.record_state_change(LocalNanos(i), Id::from_raw(0), Id::from_raw(1));
                }
                rec
            },
            BatchSize::SmallInput,
        )
    });
}

/// A large multi-host analyze-phase fixture: 32 machines over 8 hosts
/// with fleet-style FQDN names, each timeline segmented by restart churn
/// into 64 host stints, ~250 records per machine (state changes plus one
/// injection per stint).
fn make_global_fixture() -> (Study, ExperimentData) {
    const MACHINES: u32 = 32;
    const HOSTS: u32 = 8;
    const STINTS: u64 = 64;
    const CHANGES_PER_STINT: u64 = 2;

    let def = (0..MACHINES).fold(StudyDef::new("mg32"), |def, i| {
        def.machine(
            StateMachineSpec::builder(&format!("m{i}"))
                .states(&["A", "B"])
                .events(&["GO"])
                .state("A", &[], &[("GO", "B")])
                .state("B", &[], &[("GO", "A")])
                .build(),
        )
    });
    let def = (0..MACHINES).fold(def, |def, i| {
        def.fault(
            &format!("m{i}"),
            &format!("f{i}"),
            FaultExpr::atom(&format!("m{i}"), "B"),
            Trigger::Always,
        )
    });
    let study = Study::compile(&def).expect("valid study");

    // Realistic fleet-style host names: interning exists so that none of
    // these is hashed or cloned per record.
    let symbols =
        Arc::new(SymbolTable::for_hosts((0..HOSTS).map(|h| {
            format!("worker-{h:02}.rack{}.dc1.cluster.example.com", h % 4)
        })));
    let go = study.events.lookup("GO").unwrap();
    let a_state = study.states.lookup("A").unwrap();
    let b_state = study.states.lookup("B").unwrap();

    let timelines = (0..MACHINES)
        .map(|m| {
            let sm = study.sm_id(&format!("m{m}")).unwrap();
            let fault = study.fault_names.lookup(&format!("f{m}")).unwrap();
            let first_host = Id::from_raw(m % HOSTS);
            let mut rec = Recorder::new(sm, first_host);
            let mut t = 1_000_000u64;
            for stint in 0..STINTS {
                if stint > 0 {
                    let host = Id::from_raw((m + stint as u32) % HOSTS);
                    rec = Recorder::resume(rec.finish(), LocalNanos(t), host);
                    t += 500_000;
                }
                for k in 0..CHANGES_PER_STINT {
                    let state = if k % 2 == 0 { b_state } else { a_state };
                    rec.record_state_change(LocalNanos(t), go, state);
                    t += 700_000;
                    if k == 0 {
                        rec.record_injection(LocalNanos(t), fault);
                        t += 100_000;
                    }
                }
            }
            rec.record_state_change(LocalNanos(t), go, study.reserved.exit);
            rec.finish()
        })
        .collect();

    let sync_for = |host: u32| {
        let mut samples = Vec::new();
        for k in 0..8u64 {
            let t = k * 1_000_000 + host as u64 * 37;
            samples.push(SyncSample {
                from_reference: true,
                send: LocalNanos(t),
                recv: LocalNanos(t + 45_000),
            });
            samples.push(SyncSample {
                from_reference: false,
                send: LocalNanos(t + 450_000),
                recv: LocalNanos(t + 495_000),
            });
        }
        HostSync {
            host: Id::from_raw(host),
            samples,
        }
    };
    let data = ExperimentData {
        study: "mg32".into(),
        experiment: 0,
        timelines,
        hosts: symbols.host_ids().collect(),
        reference_host: Id::from_raw(0),
        symbols,
        pre_sync: (1..HOSTS).map(sync_for).collect(),
        post_sync: (1..HOSTS).map(sync_for).collect(),
        end: Default::default(),
        warnings: vec![],
    };
    (study, data)
}

/// `make_global` on the 32-machine / 8-host / 64-stint view: the interned,
/// cursor-scanned hot path.
fn bench_make_global(c: &mut Criterion) {
    let (study, data) = make_global_fixture();
    let opts = GlobalOptions::default();
    let mut group = c.benchmark_group("make_global_32m");
    group.sample_size(20);
    group.bench_function("interned", |bencher| {
        bencher.iter(|| criterion::black_box(make_global(&study, &data, &opts).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fault_parser,
    bench_fault_parser_incremental,
    bench_recorder,
    bench_make_global
);
criterion_main!(benches);
