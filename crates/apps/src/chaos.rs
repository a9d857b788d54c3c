//! A deliberately misbehaving application for survivability campaigns.
//!
//! Fault-injection campaigns must survive applications that panic inside
//! callbacks or never terminate — the injector's whole premise is that the
//! system under study misbehaves. This module provides the workload the
//! survivability tests (and the `LOKI_CHAOS_SELFTEST` CI job) throw at the
//! harness: each node ticks a timer, and on every tick draws one `f64`
//! from the deterministic per-experiment RNG to decide between
//!
//! * **hanging** — entering an endless self-rearming timer loop, so the
//!   experiment only ends when a budget
//!   (`SimHarnessConfig::{max_virtual_time, max_events}`) or the central
//!   daemon's timeout cuts it off;
//! * **panicking** — `panic!` inside the callback, which the harness must
//!   contain as `ExperimentFailure::AppPanic` without poisoning any other
//!   experiment; or
//! * **a healthy tick** — a WAKE/SLEEP state excursion, exiting cleanly
//!   after a fixed number of ticks.
//!
//! The RNG draw happens on *every* tick regardless of configuration, and
//! hang decisions ignore [`ChaosConfig::armed`]: a disarmed app consumes
//! exactly the same RNG stream and hangs at exactly the same points as an
//! armed one — it just never panics. A disarmed run is therefore the
//! byte-identical baseline for every experiment the armed run completes,
//! which is precisely the containment contract the survivability tests
//! pin.

use loki_core::ids::SmId;
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_runtime::{App, AppFactory, NodeCtx, Payload};
use rand::Rng;
use std::sync::Arc;

/// The healthy tick timer.
const TAG_TICK: u64 = 1;
/// The hang loop: rearms itself forever.
const TAG_HANG: u64 = 2;

/// The panic message injected chaos panics carry; tests install a panic
/// hook that recognizes it to keep expected unwinds out of the output.
pub const CHAOS_PANIC: &str = "chaos: injected panic";

/// Tunables of the chaos workload.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Per-tick probability that the node panics (only when [`armed`](Self::armed)).
    pub panic_p: f64,
    /// Per-tick probability that the node enters the endless hang loop
    /// (always honored, so armed and disarmed runs hang identically).
    pub hang_p: f64,
    /// Whether panic rolls actually panic. A disarmed app draws the same
    /// RNG stream and simply treats a panic roll as a healthy tick.
    pub armed: bool,
    /// Tick period (and hang-loop rearm period).
    pub period_ns: u64,
    /// Healthy lifetime in ticks; the node exits cleanly afterwards.
    pub ticks: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            panic_p: 0.0,
            hang_p: 0.0,
            armed: true,
            period_ns: 50_000_000, // 50 ms
            ticks: 6,
        }
    }
}

/// One chaos node: see the [module docs](self) for the per-tick decision.
pub struct ChaosNode {
    cfg: Arc<ChaosConfig>,
    remaining: u32,
    awake: bool,
}

impl App for ChaosNode {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _restarted: bool) {
        ctx.notify_event("IDLE").unwrap();
        ctx.set_timer(self.cfg.period_ns, TAG_TICK);
    }

    fn on_app_message(&mut self, _ctx: &mut NodeCtx<'_>, _from: SmId, _payload: Payload) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        match tag {
            TAG_TICK => {
                // One draw per tick, unconditionally — the RNG stream must
                // not depend on `armed` (see the module docs).
                let roll: f64 = ctx.rng().gen();
                if roll < self.cfg.hang_p {
                    ctx.record_user_message("chaos: entering hang loop");
                    ctx.set_timer(self.cfg.period_ns, TAG_HANG);
                    return;
                }
                if self.cfg.armed && roll < self.cfg.hang_p + self.cfg.panic_p {
                    panic!("{CHAOS_PANIC}");
                }
                // Healthy tick: a WAKE/SLEEP excursion.
                if self.awake {
                    ctx.notify_event("SLEEP").unwrap();
                } else {
                    ctx.notify_event("WAKE").unwrap();
                }
                self.awake = !self.awake;
                self.remaining -= 1;
                if self.remaining == 0 {
                    ctx.exit();
                } else {
                    ctx.set_timer(self.cfg.period_ns, TAG_TICK);
                }
            }
            TAG_HANG => {
                // Endless event generation: only a budget or the central
                // daemon's timeout ends this experiment.
                ctx.set_timer(self.cfg.period_ns, TAG_HANG);
            }
            _ => {}
        }
    }

    fn on_fault(&mut self, ctx: &mut NodeCtx<'_>, fault: &str) {
        ctx.record_user_message(format_args!("chaos probe injected {fault}"));
    }
}

/// The chaos node's state machine specification: IDLE/ACTIVE with
/// WAKE/SLEEP excursions (no notify lists — chaos campaigns study the
/// harness, not cross-machine fault triggers).
pub fn chaos_sm_spec(name: &str) -> StateMachineSpec {
    StateMachineSpec::builder(name)
        .states(&["IDLE", "ACTIVE"])
        .events(&["WAKE", "SLEEP"])
        .state("IDLE", &[], &[("WAKE", "ACTIVE")])
        .state("ACTIVE", &[], &[("SLEEP", "IDLE")])
        .build()
}

/// A chaos study: `members` nodes named `c1..cN`, placed round-robin on
/// `host1..host3`.
pub fn chaos_study(name: &str, members: usize) -> StudyDef {
    let names: Vec<String> = (1..=members).map(|i| format!("c{i}")).collect();
    let mut def = StudyDef::new(name);
    for n in &names {
        def = def.machine(chaos_sm_spec(n));
    }
    for (i, n) in names.iter().enumerate() {
        def = def.place(n, &format!("host{}", (i % 3) + 1));
    }
    def
}

/// An [`AppFactory`] for chaos nodes.
pub fn chaos_factory(cfg: ChaosConfig) -> AppFactory {
    let cfg = Arc::new(cfg);
    Arc::new(move |_study: &Study, _sm| {
        Box::new(ChaosNode {
            cfg: cfg.clone(),
            remaining: cfg.ticks.max(1),
            awake: false,
        }) as Box<dyn App>
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_core::campaign::ExperimentEnd;
    use loki_runtime::harness::{run_experiment, SimHarnessConfig};

    #[test]
    fn healthy_chaos_campaign_completes() {
        let study = Study::compile_arc(&chaos_study("chaos-healthy", 3)).unwrap();
        let data = run_experiment(
            &study,
            chaos_factory(ChaosConfig::default()),
            &SimHarnessConfig::three_hosts(7),
            0,
        )
        .expect("valid config");
        assert_eq!(data.end, ExperimentEnd::Completed);
        assert_eq!(data.timelines.len(), 3);
    }
}
