//! Campaign throughput scaling: the streaming [`CampaignPipeline`] — the
//! path every campaign runs — swept over worker counts.
//!
//! Runs a token-ring fault-injection campaign once per worker count (1, 2,
//! 4, …, up to the machine's available parallelism), prints experiments
//! per second, speed-up over one worker and the CPU-seconds each run cost
//! (a speed-up bought with more than its share of CPU is a pool burning a
//! core on hand-off), and verifies that every configuration produces
//! identical compact results — the worker pool must be unobservable in the
//! results — while never holding more raw experiments than it has workers.
//!
//! ```text
//! cargo run --release --bin campaign_scaling [experiments]
//! ```

use loki_apps::token_ring::{ring_factory, ring_study, RingConfig};
use loki_core::fault::{FaultExpr, Trigger};
use loki_core::study::Study;
use loki_runtime::harness::{CampaignPipeline, SimHarnessConfig};
use std::time::Instant;

/// User + system CPU-seconds of this process so far, all threads
/// (`/proc/self/stat`, 10 ms ticks); `None` where there is no procfs.
fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12 and 13 after the name.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let ticks = fields.next()?.parse::<f64>().ok()? + fields.next()?.parse::<f64>().ok()?;
    Some(ticks / 100.0)
}

fn main() {
    let experiments: u32 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000);
    let seed = 0x10C1;

    let def = ring_study("scaling", 3).fault(
        "tr2",
        "kill_holder",
        FaultExpr::atom("tr2", "HAS_TOKEN"),
        Trigger::Once,
    );
    let study = Study::compile_arc(&def).expect("valid study");
    // Workers claim eight consecutive indices at a time: a driver that
    // retained its whole chunk would break the memory bound asserted below.
    let cfg = SimHarnessConfig {
        batch: Some(8),
        ..SimHarnessConfig::three_hosts(seed)
    };
    let pipeline = CampaignPipeline::new(study, ring_factory(RingConfig::default()), cfg);

    let max_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut worker_counts = vec![1usize];
    let mut w = 2;
    while w <= max_workers {
        worker_counts.push(w);
        w *= 2;
    }
    if worker_counts.last() != Some(&max_workers) {
        worker_counts.push(max_workers);
    }

    println!(
        "token-ring campaign: {experiments} experiments, seed {seed:#x}, \
         available parallelism {max_workers}"
    );
    println!(
        "{:>8}  {:>10}  {:>8}  {:>8}  {:>10}  {:>9}  {:>17}  {:>18}",
        "workers",
        "exp/s",
        "speedup",
        "cpu-s",
        "completed",
        "accepted",
        "peak_raw_retained",
        "peak_reorder_depth"
    );

    let mut baseline_rate = None;
    let mut baseline = None;
    for &workers in &worker_counts {
        let mut results = Vec::with_capacity(experiments as usize);
        let cpu_before = cpu_seconds();
        let start = Instant::now();
        // The tap rides a raw-side witness (records per experiment) along
        // with each compact result, so the comparison below covers what
        // the workers saw before they dropped it.
        let summary = pipeline
            .run_tapped_with_workers(
                experiments,
                workers,
                |data| {
                    data.timelines
                        .iter()
                        .map(|t| t.records.len())
                        .sum::<usize>()
                },
                |analyzed, records| results.push((analyzed, records)),
            )
            .expect("valid campaign config");
        let elapsed = start.elapsed().as_secs_f64();
        let cpu = match (cpu_before, cpu_seconds()) {
            (Some(before), Some(after)) => format!("{:.2}", after - before),
            _ => "n/a".to_owned(),
        };

        let rate = f64::from(experiments) / elapsed;
        let speedup = rate / *baseline_rate.get_or_insert(rate);
        println!(
            "{workers:>8}  {rate:>10.0}  {speedup:>7.2}x  {cpu:>8}  {:>10}  {:>9}  {:>17}  {:>18}",
            summary.completed,
            summary.accepted,
            summary.peak_raw_retained,
            summary.peak_reorder_depth
        );
        // The memory bound of the streaming design: one raw experiment
        // per worker, whatever the claim chunk.
        assert_eq!(summary.batch, 8, "claim chunk not applied");
        assert!(
            summary.peak_raw_retained <= workers,
            "{workers} workers held {} raw experiments at once",
            summary.peak_raw_retained
        );

        match &baseline {
            None => baseline = Some(results),
            Some(base) => assert!(
                *base == results,
                "worker count {workers} changed the campaign's results"
            ),
        }
    }
    println!("all worker counts produced identical results");
}
