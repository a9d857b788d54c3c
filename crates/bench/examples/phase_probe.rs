//! Dev probe: where does a batched campaign microsecond go?
//!
//! Times the analysis sub-phases (`make_global`, full `analyze_one`) in
//! isolation on a micro-experiment ring and on the fixture the
//! `event_overhead` benchmark uses, so per-event-cut work can target the
//! actual hot phase. Not part of CI; run with
//! `cargo run --release -p loki-bench --example phase_probe`.

use loki_analysis::global::{make_global, GlobalOptions};
use loki_analysis::{analyze_one, AnalysisOptions};
use loki_apps::token_ring::{ring_factory, ring_study, RingConfig};
use loki_clock::params::ClockParams;
use loki_core::fault::{FaultExpr, Trigger};
use loki_core::study::Study;
use loki_runtime::harness::{run_study, CampaignPipeline, SimHarnessConfig};
use loki_sim::config::HostConfig;
use std::time::Instant;

fn probe(name: &str, study: &Study, data: &[loki_core::campaign::ExperimentData]) {
    let gopts = GlobalOptions::default();
    let aopts = AnalysisOptions::default();
    let iters = 200usize;

    // make_global only
    for d in data {
        let _ = make_global(study, d, &gopts).unwrap();
    }
    let start = Instant::now();
    for _ in 0..iters {
        for d in data {
            std::hint::black_box(make_global(study, d, &gopts).unwrap());
        }
    }
    let mg_ns = start.elapsed().as_nanos() as f64 / (iters * data.len()) as f64;

    // full analyze_one
    for d in data {
        let _ = analyze_one(study, d, &aopts);
    }
    let start = Instant::now();
    for _ in 0..iters {
        for d in data {
            std::hint::black_box(analyze_one(study, d, &aopts));
        }
    }
    let an_ns = start.elapsed().as_nanos() as f64 / (iters * data.len()) as f64;

    println!(
        "{name}: make_global {mg_ns:.0} ns/exp, analyze_one {an_ns:.0} ns/exp \
         (checker+accept {:.0} ns/exp)",
        an_ns - mg_ns
    );
}

/// Raw engine floor: two chatty actors, messages shaped like [`RtMsg`]
/// (~40 bytes), scheduling delays on — no runtime layer at all.
fn engine_floor() {
    use loki_sim::engine::{Actor, ActorId, Ctx, Simulation};

    #[derive(Clone)]
    enum Msg {
        Ball { _pad: [u64; 4] },
    }
    struct Player {
        peer: ActorId,
        left: u32,
        serve: bool,
    }
    impl Actor<Msg> for Player {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            if self.serve {
                ctx.send(self.peer, Msg::Ball { _pad: [0; 4] });
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, _msg: Msg) {
            if self.left > 0 {
                self.left -= 1;
                ctx.send(from, Msg::Ball { _pad: [0; 4] });
            }
        }
    }

    let run = || {
        let mut sim: Simulation<Msg> = Simulation::new(0x0F00);
        sim.disable_trace();
        let h1 = sim.add_host(loki_sim::config::HostConfig::new("h1"));
        let h2 = sim.add_host(loki_sim::config::HostConfig::new("h2"));
        let a = sim.spawn(
            h1,
            Box::new(Player {
                peer: ActorId(1),
                left: 50_000,
                serve: true,
            }),
        );
        let _ = a;
        sim.spawn(
            h2,
            Box::new(Player {
                peer: ActorId(0),
                left: 50_000,
                serve: false,
            }),
        );
        sim.run();
        sim.events_processed()
    };
    let events = run();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        std::hint::black_box(run());
        best = best.min(start.elapsed().as_secs_f64());
    }
    println!(
        "engine floor: {events} events, {:.1} ns/event (ping-pong, sched on)",
        best * 1e9 / events as f64
    );
}

fn main() {
    engine_floor();
    // --- micro-experiment fixture ---
    let ring = RingConfig {
        init_delay_ns: 1_000_000,
        hold_ns: 1_000_000,
        loss_timeout_ns: 50_000_000,
        regen_delay_ns: 10_000_000,
        lifetime_ns: 2_000_000,
        ..Default::default()
    };
    let def = ring_study("bench-ring-micro", 2);
    let study = Study::compile_arc(&def).expect("valid study");
    let factory = ring_factory(ring);
    let mut cfg = SimHarnessConfig::three_hosts(0xBA7C);
    cfg.hosts = (1..=2)
        .map(|i| {
            HostConfig::new(&format!("host{i}")).clock(ClockParams::with_drift_ppm(
                (i as f64) * 1e5,
                ((i % 7) as f64) * 40.0 - 120.0,
            ))
        })
        .collect();
    cfg.sync_rounds = 1;
    cfg.workers = Some(1);

    // Execute-only rate (no analysis): the raw-data study runner.
    let start = Instant::now();
    let data = run_study(&study, factory.clone(), &cfg, 256).expect("valid config");
    let exec_ns = start.elapsed().as_nanos() as f64 / 256.0;
    println!("micro: execute-only (run_study) {exec_ns:.0} ns/exp");
    probe("micro", &study, &data[..64]);

    // Batched pipeline all-in, with event count.
    let mut bcfg = cfg.clone();
    bcfg.batch = Some(8);
    let run = || {
        let pipeline = CampaignPipeline::new(study.clone(), factory.clone(), bcfg.clone());
        pipeline
            .run_with_workers(1200, 1, |analyzed| {
                std::hint::black_box(analyzed);
            })
            .expect("valid config")
    };
    let mut summary = run();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        summary = run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    println!(
        "micro: batched K=8 all-in {:.0} ns/exp, {:.1} events/exp ({:.0} ns/event)",
        best * 1e9 / 1200.0,
        summary.events as f64 / 1200.0,
        best * 1e9 / summary.events as f64
    );

    // --- event_overhead fixture ---
    let def = ring_study("bench-ring-events", 3).fault(
        "tr2",
        "kill_holder",
        FaultExpr::atom("tr2", "HAS_TOKEN"),
        Trigger::Once,
    );
    let study = Study::compile_arc(&def).expect("valid study");
    let factory = ring_factory(RingConfig::default());
    let mut cfg = SimHarnessConfig::three_hosts(0xE7E7);
    cfg.workers = Some(1);

    let start = Instant::now();
    let data = run_study(&study, factory.clone(), &cfg, 64).expect("valid config");
    let exec_ns = start.elapsed().as_nanos() as f64 / 64.0;
    println!("events: execute-only (run_study) {exec_ns:.0} ns/exp");
    probe("events", &study, &data[..16]);
}
