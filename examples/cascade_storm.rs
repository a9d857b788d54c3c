//! The cascading-failure study: a state-triggered partition deposes the
//! primary *without killing it*, the network heals once the successor has
//! promoted itself — and the deposed primary's retry protocol then storms
//! a cluster that no longer acknowledges it. The storm is a causal loop
//! between the (already removed) network fault and the application's own
//! recovery machinery; `loki::analysis::cascade` detects it from the
//! global timeline as sustained post-heal message-rate growth.
//!
//! Three runs of the *same* study demonstrate the loop and both ways of
//! breaking it:
//!
//! 1. retries + partition  → storm (the causal loop closes);
//! 2. no retries           → quiet (the application half is missing);
//! 3. no partition         → no heal injection (the network half is
//!    missing; nothing ever deposes the primary).
//!
//! ```text
//! cargo run --example cascade_storm [experiments]
//! ```

use loki::analysis::cascade::{detect_cascade, CascadeConfig, CascadeVerdict};
use loki::apps::kvstore::{cascade_config, cascade_study, kv_factory, storm_retry, RetryConfig};
use loki::core::study::Study;
use loki::runtime::harness::{CampaignPipeline, SimHarnessConfig};
use std::sync::Arc;

/// Runs `experiments` experiments of the cascade study with the given
/// retry/partition knobs and returns each experiment's cascade verdict.
fn run_scenario(
    label: &str,
    retry: Option<RetryConfig>,
    partition: bool,
    experiments: u32,
) -> Vec<CascadeVerdict> {
    let study = Arc::new(Study::compile(&cascade_study("cascade")).expect("valid study"));
    let pipeline = CampaignPipeline::new(
        study.clone(),
        kv_factory(cascade_config(retry, partition)),
        SimHarnessConfig::three_hosts(4242),
    );
    let cfg = CascadeConfig::default();
    let mut verdicts = Vec::with_capacity(experiments as usize);
    pipeline
        .run(experiments, |analyzed| {
            let gt = analyzed.global.expect("global timeline construction");
            verdicts.push(detect_cascade(&study, &gt, &cfg));
        })
        .expect("valid campaign config");
    for (i, v) in verdicts.iter().enumerate() {
        match v {
            CascadeVerdict::Storm { total, early, late } => println!(
                "  [{label}] experiment {i}: STORM  — {total} retries post-heal \
                 (first half {early}, second half {late}: still growing)"
            ),
            CascadeVerdict::Quiet { total, .. } => {
                println!("  [{label}] experiment {i}: quiet — {total} retries post-heal")
            }
            CascadeVerdict::NoHealInjection => {
                println!("  [{label}] experiment {i}: no heal injection (loop never armed)")
            }
        }
    }
    verdicts
}

fn main() {
    let experiments: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    println!("1. retry protocol + state-triggered partition:");
    let storm = run_scenario("storm", Some(storm_retry()), true, experiments);

    println!("2. same study, retries disabled:");
    let no_retry = run_scenario("no-retry", None, true, experiments);

    println!("3. same study, partition disabled:");
    let no_partition = run_scenario("no-split", Some(storm_retry()), false, experiments);

    let mut ok = true;
    if !storm.iter().all(CascadeVerdict::is_storm) {
        println!("FAIL: the storm scenario did not storm in every experiment");
        ok = false;
    }
    if no_retry.iter().any(CascadeVerdict::is_storm) {
        println!("FAIL: disabling retries should break the loop");
        ok = false;
    }
    if no_partition.iter().any(CascadeVerdict::is_storm) {
        println!("FAIL: disabling the partition should break the loop");
        ok = false;
    }
    if ok {
        println!(
            "the loop needs both halves: retries x partition storms, \
             removing either side stays quiet"
        );
    } else {
        std::process::exit(1);
    }
}
