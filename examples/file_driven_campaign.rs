//! The thesis's file-driven workflow (§5.6): write the specification files
//! (state machine specs, fault specs, node file) to disk in the original
//! formats, load them back into a study, derive the notify lists
//! automatically from the fault specifications, and run the campaign —
//! through the streaming pipeline, which analyzes and discards each
//! experiment as it completes.
//!
//! ```text
//! cargo run --example file_driven_campaign
//! ```

use loki::core::study::Study;
use loki::runtime::harness::{CampaignPipeline, SimHarnessConfig};
use loki::runtime::AppFactory;
use loki::runtime::{App, NodeCtx, Payload};
use loki::spec::campaign_loader::{
    load_budget_dir, load_study_dir, write_budget_dir, write_study_dir,
};
use loki::spec::{load_study, BudgetSpec, MachineSources};
use std::collections::BTreeMap;
use std::sync::Arc;

const PING_SPEC: &str = "\
# ping.sm — state machine specification (thesis §3.5.3 format)
global_state_list
IDLE
ACTIVE
end_global_state_list
event_list
WAKE
SLEEP
end_event_list

state IDLE
WAKE ACTIVE

state ACTIVE
SLEEP IDLE
default EXIT
";

const PONG_SPEC: &str = "\
global_state_list
IDLE
ACTIVE
end_global_state_list
event_list
WAKE
SLEEP
end_event_list

state IDLE
WAKE ACTIVE

state ACTIVE
SLEEP IDLE
default EXIT
";

const PONG_FAULTS: &str = "\
# pong.flt — fault specification (thesis §3.5.5 format)
poke ((ping:ACTIVE) & (pong:IDLE)) always
";

const NODE_FILE: &str = "\
ping host1
pong host2
";

struct Pulser {
    period_ns: u64,
    pulses: u32,
}

impl App for Pulser {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _restarted: bool) {
        ctx.notify_event("IDLE").unwrap();
        ctx.set_timer(100_000_000, 1);
    }
    fn on_app_message(&mut self, _: &mut NodeCtx<'_>, _: loki::core::ids::SmId, _: Payload) {}
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        match tag {
            1 => {
                ctx.notify_event("WAKE").unwrap();
                ctx.set_timer(self.period_ns, 2);
            }
            2 => {
                ctx.notify_event("SLEEP").unwrap();
                self.pulses -= 1;
                if self.pulses == 0 {
                    ctx.exit();
                } else {
                    ctx.set_timer(self.period_ns, 1);
                }
            }
            _ => {}
        }
    }
    fn on_fault(&mut self, ctx: &mut NodeCtx<'_>, fault: &str) {
        ctx.record_user_message(format!("probe injected {fault}"));
    }
}

fn main() {
    // --- assemble the study from the original file formats -------------------
    let mut machines = BTreeMap::new();
    machines.insert(
        "ping".to_owned(),
        MachineSources {
            sm_spec: PING_SPEC.to_owned(),
            fault_spec: String::new(),
        },
    );
    machines.insert(
        "pong".to_owned(),
        MachineSources {
            sm_spec: PONG_SPEC.to_owned(),
            fault_spec: PONG_FAULTS.to_owned(),
        },
    );
    let def = load_study("file-driven", NODE_FILE, &machines)
        .expect("specification files parse")
        // §5.3: notify lists derive from the fault specifications — pong's
        // fault observes (ping:ACTIVE), so ping's ACTIVE must notify pong.
        .derive_notify_lists();
    println!(
        "ping's ACTIVE notify list (derived): {:?}",
        def.machines[0].state_def("ACTIVE").unwrap().notify
    );

    // Round-trip through an on-disk campaign directory, as the real tool
    // would store it.
    let dir = std::env::temp_dir().join(format!("loki-campaign-{}", std::process::id()));
    write_study_dir(&def, &dir).expect("campaign directory written");
    // Per-experiment budgets ride in the same directory: a runaway
    // experiment (infinite timer loop, event storm) is cut off
    // deterministically instead of wedging the campaign.
    let budget = BudgetSpec {
        max_virtual_time_ns: Some(30_000_000_000),
        max_events: Some(1_000_000),
    };
    write_budget_dir(&budget, &dir).expect("budget file written");
    let reloaded = load_study_dir("file-driven", &dir).expect("campaign directory loads");
    let reloaded_budget = load_budget_dir(&dir).expect("budget file loads");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(reloaded.machines, def.machines);
    assert_eq!(reloaded_budget, budget);
    println!("campaign directory round-trip (incl. budget file): ok");

    // --- compile and run -------------------------------------------------------
    let study = Study::compile_arc(&def).expect("study compiles");
    let factory: AppFactory = Arc::new(|study: &Study, sm| -> Box<dyn App> {
        // Periods comfortably above the notification latency (a few OS
        // timeslices through the daemons), so injections are provable.
        let period_ns = if study.sms.name(sm) == "ping" {
            150_000_000
        } else {
            215_000_000
        };
        Box::new(Pulser {
            period_ns,
            pulses: 3,
        })
    });
    let mut harness = SimHarnessConfig::three_hosts(55);
    harness.hosts.truncate(2);
    // Arm the budgets the campaign directory specified.
    harness.max_virtual_time = budget.max_virtual_time_ns;
    harness.max_events = budget.max_events;
    let debug = std::env::var("LOKI_DEBUG").is_ok();
    let pipeline = CampaignPipeline::new(study, factory, harness);
    let summary = pipeline
        .run(8, |a| {
            if !debug {
                return;
            }
            if let Some(v) = &a.verdict {
                eprintln!(
                    "exp {}: accepted={} missing={:?}",
                    a.experiment, v.accepted, v.missing
                );
                for c in &v.checks {
                    eprintln!(
                        "   check fault {:?} at {}: {:?}",
                        c.fault, c.bounds, c.verdict
                    );
                }
            } else {
                eprintln!("exp {}: end={:?} err={:?}", a.experiment, a.end, a.error);
            }
        })
        .expect("valid campaign config");
    println!(
        "{} injections of `poke ((ping:ACTIVE) & (pong:IDLE)) always` across 8 runs; \
         {}/8 experiments provably correct",
        summary.injections, summary.accepted
    );
}
