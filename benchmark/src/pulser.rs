//! `pulse_always`: four machines in a ring that alternate IDLE and ACTIVE on
//! one common period, each owning one `always` fault on the global state
//! "my successor is ACTIVE while I am IDLE". Each machine wakes three
//! quarters of a period after its predecessor, so once per period the
//! expression turns true at the owner *by a remote notification* and stays
//! true for about a quarter period. An experiment carries some 160
//! injections and the off-line checker, one proof per injection, does most
//! of the work. The application is the benchmark's own; the study is raw
//! specification text in the thesis's §3.5.3/§3.5.5 formats.
//!
//! A notification crosses three messages (node, local daemon, remote daemon,
//! node), each delayed by up to one 10 ms scheduler timeslice at either end:
//! up to 60 ms, 30 ms on average. The quarter period (49 ms) sits inside
//! that tail, so now and then a notification arrives too late to prove its
//! injection and the checker rejects the experiment: about half of the
//! experiments are accepted, at every seed.

use loki::core::ids::SmId;
use loki::core::study::Study;
use loki::runtime::{App, AppFactory, NodeCtx, Payload};
use std::path::Path;
use std::sync::Arc;

pub const MACHINES: usize = 4;
/// The benchmark-owned file of the campaign directory holding the plan.
pub const PLAN_FILE: &str = "pulser";

/// Periods within the common lifetime.
const PULSES: u64 = 40;
/// The half period is `HALF_PERIOD_MIN_NS` plus a seed-chosen share of
/// `HALF_PERIOD_SPAN_NS`; each phase lag is three half periods over two,
/// give or take a seed-chosen `LAG_JITTER_NS`. The spans are small on
/// purpose: the share of accepted experiments falls from nine tenths to one
/// tenth between half periods of 104 ms and 92 ms, and the workload must
/// cost the same at every seed.
const HALF_PERIOD_MIN_NS: u64 = 98_000_000;
const HALF_PERIOD_SPAN_NS: u64 = 2_000_000;
const LAG_JITTER_NS: u64 = 500_000;
/// Local-clock reading at which the first machine first wakes: later than
/// any node's start, so that phases do not inherit start-up scheduling.
const EPOCH_NS: u64 = 400_000_000;

fn machine(i: usize) -> String {
    format!("p{}", i + 1)
}

/// SplitMix64: the seed's only use is to spread the periods and lags.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What the `Pulser` application of each machine does. Times are readings
/// of the machine's own clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PulserPlan {
    /// ACTIVE for one half period, IDLE for one.
    pub half_period_ns: u64,
    /// Every machine exits at this reading.
    pub lifetime_ns: u64,
    /// `(machine, reading at its first WAKE)`.
    pub first_wake_ns: Vec<(String, u64)>,
}

impl PulserPlan {
    pub fn from_seed(seed: u64) -> PulserPlan {
        let half = HALF_PERIOD_MIN_NS + splitmix64(seed) % HALF_PERIOD_SPAN_NS;
        let mut wake = EPOCH_NS;
        let first_wake_ns = (0..MACHINES)
            .map(|i| {
                let at = wake;
                let jitter = splitmix64(seed ^ ((i as u64 + 1) << 56)) % (2 * LAG_JITTER_NS);
                wake += half * 3 / 2 + jitter - LAG_JITTER_NS;
                (machine(i), at)
            })
            .collect();
        PulserPlan {
            half_period_ns: half,
            lifetime_ns: EPOCH_NS + PULSES * 2 * half,
            first_wake_ns,
        }
    }

    fn to_text(&self) -> String {
        let mut text = format!(
            "# pulser - plan of the benchmark's Pulser application (ns of local clock)\n\
             # half_period_ns <ns> | lifetime_ns <ns> | <machine> <first wake>\n\
             half_period_ns {}\nlifetime_ns {}\n",
            self.half_period_ns, self.lifetime_ns
        );
        for (machine, ns) in &self.first_wake_ns {
            text.push_str(&format!("{machine} {ns}\n"));
        }
        text
    }

    fn parse(text: &str) -> Result<PulserPlan, String> {
        let mut plan = PulserPlan {
            half_period_ns: 0,
            lifetime_ns: 0,
            first_wake_ns: Vec::new(),
        };
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut words = line.split_ascii_whitespace();
            let (Some(key), Some(value), None) = (words.next(), words.next(), words.next()) else {
                return Err(format!("{PLAN_FILE}: expected `<key> <ns>`, got `{line}`"));
            };
            let ns: u64 = value
                .parse()
                .map_err(|_| format!("{PLAN_FILE}: `{value}` is not a number of nanoseconds"))?;
            if ns == 0 {
                return Err(format!("{PLAN_FILE}: `{key}` must be positive"));
            }
            match key {
                "half_period_ns" => plan.half_period_ns = ns,
                "lifetime_ns" => plan.lifetime_ns = ns,
                machine => plan.first_wake_ns.push((machine.to_owned(), ns)),
            }
        }
        if plan.half_period_ns == 0 || plan.lifetime_ns == 0 {
            return Err(format!(
                "{PLAN_FILE}: half_period_ns and lifetime_ns are required"
            ));
        }
        Ok(plan)
    }
}

pub fn load_plan(dir: &Path) -> Result<PulserPlan, String> {
    let text = std::fs::read_to_string(dir.join(PLAN_FILE))
        .map_err(|e| format!("cannot read {PLAN_FILE}: {e}"))?;
    PulserPlan::parse(&text)
}

/// The campaign directory's files as `(name, text)`: the node file, one
/// state machine specification and one fault specification per machine,
/// and the plan.
pub fn campaign_files(seed: u64) -> Vec<(String, String)> {
    const SM_SPEC: &str = "\
# state machine specification (thesis section 3.5.3)
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
default EXIT

state ACTIVE
SLEEP IDLE
default EXIT
";
    let mut files = Vec::new();
    let mut nodes = String::from("# node file (thesis section 3.5.1)\n");
    for i in 0..MACHINES {
        let (me, next) = (machine(i), machine((i + 1) % MACHINES));
        nodes.push_str(&format!("{me} host{}\n", i + 1));
        files.push((format!("{me}.sm"), SM_SPEC.to_owned()));
        files.push((
            format!("{me}.flt"),
            format!(
                "# fault specification (thesis section 3.5.5)\n\
                 poke_{me} (({next}:ACTIVE) & ({me}:IDLE)) always\n"
            ),
        ));
    }
    files.push(("nodes".to_owned(), nodes));
    files.push((PLAN_FILE.to_owned(), PulserPlan::from_seed(seed).to_text()));
    files
}

const TAG_WAKE: u64 = 1;
const TAG_SLEEP: u64 = 2;
const TAG_LIFETIME: u64 = 3;

struct Pulser {
    half_period_ns: u64,
    first_wake_ns: u64,
    lifetime_ns: u64,
}

impl App for Pulser {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _restarted: bool) {
        ctx.notify_event("IDLE").expect("IDLE is a declared state");
        let now = ctx.local_time().as_nanos();
        ctx.set_timer(self.first_wake_ns.saturating_sub(now), TAG_WAKE);
        ctx.set_timer(self.lifetime_ns.saturating_sub(now), TAG_LIFETIME);
    }

    fn on_app_message(&mut self, _: &mut NodeCtx<'_>, _: SmId, _: Payload) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        match tag {
            TAG_WAKE => {
                ctx.notify_event("WAKE").expect("WAKE is a declared event");
                ctx.set_timer(self.half_period_ns, TAG_SLEEP);
            }
            TAG_SLEEP => {
                ctx.notify_event("SLEEP")
                    .expect("SLEEP is a declared event");
                ctx.set_timer(self.half_period_ns, TAG_WAKE);
            }
            TAG_LIFETIME => ctx.exit(),
            _ => {}
        }
    }

    fn on_fault(&mut self, ctx: &mut NodeCtx<'_>, _fault: &str) {
        ctx.record_user_message("poked");
    }
}

pub fn factory(plan: PulserPlan) -> AppFactory {
    let plan = Arc::new(plan);
    Arc::new(move |study: &Study, sm| -> Box<dyn App> {
        let name = study.sms.name(sm);
        let first_wake_ns = plan
            .first_wake_ns
            .iter()
            .find(|(machine, _)| machine == name)
            .map(|(_, ns)| *ns)
            .unwrap_or_else(|| panic!("the {PLAN_FILE} file has no line for machine {name}"));
        Box::new(Pulser {
            half_period_ns: plan.half_period_ns,
            first_wake_ns,
            lifetime_ns: plan.lifetime_ns,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_round_trips_and_follows_the_seed() {
        let plan = PulserPlan::from_seed(3);
        assert_eq!(PulserPlan::parse(&plan.to_text()), Ok(plan.clone()));
        assert_eq!(plan, PulserPlan::from_seed(3));
        assert_ne!(plan.half_period_ns, PulserPlan::from_seed(4).half_period_ns);
        assert_eq!(plan.first_wake_ns.len(), MACHINES);
        assert!(
            (HALF_PERIOD_MIN_NS..HALF_PERIOD_MIN_NS + HALF_PERIOD_SPAN_NS)
                .contains(&plan.half_period_ns)
        );
    }

    #[test]
    fn every_lag_leaves_the_owner_idle_when_its_successor_wakes() {
        // Lag of machine i+1 behind machine i, modulo the period, must fall
        // in the second half period (the owner's IDLE half), the wrap-around
        // pair p4 -> p1 included.
        for seed in 0..200 {
            let plan = PulserPlan::from_seed(seed);
            let (half, period) = (plan.half_period_ns, 2 * plan.half_period_ns);
            for i in 0..MACHINES {
                let me = plan.first_wake_ns[i].1;
                let next = plan.first_wake_ns[(i + 1) % MACHINES].1;
                let lag = (next + 4 * period - me) % period;
                assert!(
                    lag > half + half / 4 && lag < period - half / 4,
                    "seed {seed}: lag {lag} of p{} outside the idle half",
                    (i + 1) % MACHINES + 1
                );
            }
        }
    }

    #[test]
    fn plan_parser_rejects_bad_files() {
        assert!(PulserPlan::parse("p1 100\n").is_err(), "no lifetime");
        assert!(PulserPlan::parse("half_period_ns 5\nlifetime_ns 5\np1 ten\n").is_err());
        assert!(PulserPlan::parse("half_period_ns 5\nlifetime_ns 5\np1 0\n").is_err());
        assert!(PulserPlan::parse("lifetime_ns 5 6\n").is_err());
    }
}
