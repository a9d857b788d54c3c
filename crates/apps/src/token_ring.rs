//! A token-ring mutual-exclusion protocol with token regeneration.
//!
//! Machines form a logical ring; a single token circulates and only its
//! holder may enter the critical section (`HAS_TOKEN`). If the token is
//! lost — its holder crashed, or a pass was dropped — nodes detect the
//! drought, raise `TOKEN_LOST`, and the lowest-id live machine regenerates
//! a token with a higher generation number (stale tokens are discarded).
//!
//! This app showcases Loki's *global-state* predicates: the mutual
//! exclusion invariant is a statement about two machines' simultaneous
//! states — `(tr1:HAS_TOKEN) & (tr2:HAS_TOKEN)` must never hold — which is
//! precisely the kind of condition single-node injectors cannot target or
//! measure (§1.2).

use loki_core::ids::SmId;
use loki_core::probe::{ActionProbe, FaultAction};
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_runtime::{App, AppFactory, NodeCtx, Payload};
use rand::Rng;
use std::rc::Rc;
use std::sync::Arc;

/// Tunables of the ring.
#[derive(Clone, Debug)]
pub struct RingConfig {
    /// INIT phase length.
    pub init_delay_ns: u64,
    /// How long a node holds the token (critical section length).
    pub hold_ns: u64,
    /// Token drought before a node declares the token lost.
    pub loss_timeout_ns: u64,
    /// Delay before the regenerator issues a fresh token.
    pub regen_delay_ns: u64,
    /// Application lifetime.
    pub lifetime_ns: u64,
    /// Probe actions per fault name (default: crash).
    pub probe: ActionProbe,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            init_delay_ns: 80_000_000,
            hold_ns: 20_000_000,
            loss_timeout_ns: 400_000_000,
            regen_delay_ns: 50_000_000,
            lifetime_ns: 2_000_000_000,
            probe: ActionProbe::new(),
        }
    }
}

#[derive(Clone, Debug)]
struct Token {
    generation: u32,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Phase {
    Init,
    Idle,
    Holding,
    Recovering,
}

const TAG_INIT_DONE: u64 = 1;
const TAG_RELEASE: u64 = 2;
const TAG_LOSS_CHECK: u64 = 3;
const TAG_REGEN: u64 = 4;
const TAG_LIFETIME: u64 = 5;

/// One ring member.
pub struct RingMember {
    cfg: Arc<RingConfig>,
    phase: Phase,
    generation: u32,
    last_token_ns: u64,
    probe: ActionProbe,
    drop_next_pass: u32,
}

impl RingMember {
    /// Creates a member.
    pub fn new(cfg: Arc<RingConfig>) -> Self {
        let probe = cfg.probe.clone();
        RingMember {
            cfg,
            phase: Phase::Init,
            generation: 0,
            last_token_ns: 0,
            probe,
            drop_next_pass: 0,
        }
    }

    fn take_token(&mut self, ctx: &mut NodeCtx<'_>, generation: u32) {
        self.generation = generation;
        self.last_token_ns = ctx.local_time().as_nanos();
        self.phase = Phase::Holding;
        let _ = ctx.notify_event("TOKEN_ARRIVED");
        ctx.set_timer(self.cfg.hold_ns, TAG_RELEASE);
    }

    fn pass_token(&mut self, ctx: &mut NodeCtx<'_>) {
        let _ = ctx.notify_event("TOKEN_PASSED");
        self.phase = Phase::Idle;
        if self.drop_next_pass > 0 {
            // A communication fault: the pass vanishes (token loss).
            self.drop_next_pass -= 1;
        } else if let Some(next) = self.next_in_ring(ctx) {
            ctx.send_to(
                next,
                Rc::new(Token {
                    generation: self.generation,
                }),
            );
        }
        ctx.set_timer(self.cfg.loss_timeout_ns, TAG_LOSS_CHECK);
    }

    /// The next *live* machine after us in study order (ring order).
    /// Machine ids are dense in study order, so the ring walk is pure id
    /// arithmetic plus allocation-free liveness probes.
    fn next_in_ring(&self, ctx: &NodeCtx<'_>) -> Option<SmId> {
        let n = ctx.study().num_machines() as u32;
        let me = ctx.my_sm();
        (1..n)
            .map(|k| SmId::from_raw((me.raw() + k) % n))
            .find(|&candidate| ctx.is_live(candidate))
    }

    /// The regenerator is the lowest-id live machine; we are it exactly
    /// when no machine below us is live.
    fn i_am_regenerator(&self, ctx: &NodeCtx<'_>) -> bool {
        (0..ctx.my_sm().raw()).all(|below| !ctx.is_live(SmId::from_raw(below)))
    }
}

impl App for RingMember {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>, _restarted: bool) {
        ctx.set_timer(self.cfg.lifetime_ns, TAG_LIFETIME);
        ctx.notify_event("INIT").expect("initial state");
        ctx.set_timer(self.cfg.init_delay_ns, TAG_INIT_DONE);
    }

    fn on_app_message(&mut self, ctx: &mut NodeCtx<'_>, _from: SmId, payload: Payload) {
        let Some(token) = payload.downcast_ref::<Token>() else {
            return;
        };
        if token.generation < self.generation {
            return; // stale token from before a regeneration: discard
        }
        match self.phase {
            Phase::Idle => self.take_token(ctx, token.generation),
            Phase::Recovering => {
                // A token exists after all (or the regenerated one arrived):
                // leave recovery and accept it.
                let _ = ctx.notify_event("BACK_TO_IDLE");
                self.phase = Phase::Idle;
                self.take_token(ctx, token.generation);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        match tag {
            TAG_INIT_DONE => {
                if self.phase == Phase::Init {
                    self.phase = Phase::Idle;
                    ctx.notify_event("INIT_DONE").expect("INIT -> IDLE");
                    self.last_token_ns = ctx.local_time().as_nanos();
                    // The first machine mints generation 1.
                    if ctx.study().sms.ids().next() == Some(ctx.my_sm()) {
                        self.take_token(ctx, 1);
                    } else {
                        ctx.set_timer(self.cfg.loss_timeout_ns, TAG_LOSS_CHECK);
                    }
                }
            }
            TAG_RELEASE => {
                if self.phase == Phase::Holding {
                    self.pass_token(ctx);
                }
            }
            TAG_LOSS_CHECK => {
                if self.phase == Phase::Idle {
                    let drought = ctx
                        .local_time()
                        .as_nanos()
                        .saturating_sub(self.last_token_ns)
                        > self.cfg.loss_timeout_ns;
                    if drought {
                        self.phase = Phase::Recovering;
                        let _ = ctx.notify_event("TOKEN_LOST");
                        if self.i_am_regenerator(ctx) {
                            ctx.set_timer(self.cfg.regen_delay_ns, TAG_REGEN);
                        } else {
                            ctx.set_timer(self.cfg.loss_timeout_ns, TAG_LOSS_CHECK);
                        }
                    } else {
                        ctx.set_timer(self.cfg.loss_timeout_ns / 2, TAG_LOSS_CHECK);
                    }
                } else if self.phase == Phase::Recovering {
                    // Still recovering: if the regenerator died, take over.
                    if self.i_am_regenerator(ctx) {
                        ctx.set_timer(self.cfg.regen_delay_ns, TAG_REGEN);
                    } else {
                        ctx.set_timer(self.cfg.loss_timeout_ns, TAG_LOSS_CHECK);
                    }
                }
            }
            TAG_REGEN => {
                if self.phase == Phase::Recovering && self.i_am_regenerator(ctx) {
                    self.generation += 1;
                    self.phase = Phase::Holding;
                    let _ = ctx.notify_event("TOKEN_REGENERATED");
                    self.last_token_ns = ctx.local_time().as_nanos();
                    ctx.set_timer(self.cfg.hold_ns, TAG_RELEASE);
                }
            }
            TAG_LIFETIME => {
                let _ = ctx.notify_event("ERROR");
                ctx.exit();
            }
            _ => {}
        }
    }

    fn on_fault(&mut self, ctx: &mut NodeCtx<'_>, fault: &str) {
        match self.probe.action_for(fault).cloned() {
            Some(FaultAction::CrashNode) | None => ctx.crash(),
            Some(FaultAction::DropMessages { count }) => self.drop_next_pass += count,
            Some(FaultAction::CrashWithProbability { activation, .. }) => {
                if activation >= 1.0 || ctx.rng().gen_bool(activation.clamp(0.0, 1.0)) {
                    ctx.crash();
                }
            }
            Some(_) => {
                ctx.record_user_message(format!("fault {fault} injected (no-op action)"));
            }
        }
    }
}

/// Builds the per-machine specification: `HAS_TOKEN` notifies everybody
/// (the mutual-exclusion measure and holder-targeted faults need it);
/// `CRASH` notifies everybody.
pub fn ring_sm_spec(name: &str, all: &[&str]) -> StateMachineSpec {
    let others: Vec<&str> = all.iter().copied().filter(|n| *n != name).collect();
    StateMachineSpec::builder(name)
        .states(&[
            "BEGIN",
            "INIT",
            "IDLE",
            "HAS_TOKEN",
            "RECOVER",
            "CRASH",
            "EXIT",
        ])
        .events(&[
            "INIT_DONE",
            "TOKEN_ARRIVED",
            "TOKEN_PASSED",
            "TOKEN_LOST",
            "TOKEN_REGENERATED",
            "BACK_TO_IDLE",
            "CRASH",
            "ERROR",
        ])
        .state("INIT", &others, &[("INIT_DONE", "IDLE"), ("ERROR", "EXIT")])
        .state(
            "IDLE",
            &[],
            &[
                ("TOKEN_ARRIVED", "HAS_TOKEN"),
                ("TOKEN_LOST", "RECOVER"),
                ("CRASH", "CRASH"),
                ("ERROR", "EXIT"),
            ],
        )
        .state(
            "HAS_TOKEN",
            &others,
            &[
                ("TOKEN_PASSED", "IDLE"),
                ("CRASH", "CRASH"),
                ("ERROR", "EXIT"),
            ],
        )
        .state(
            "RECOVER",
            &[],
            &[
                ("TOKEN_REGENERATED", "HAS_TOKEN"),
                ("BACK_TO_IDLE", "IDLE"),
                ("CRASH", "CRASH"),
                ("ERROR", "EXIT"),
            ],
        )
        .state("CRASH", &others, &[])
        .state("EXIT", &[], &[])
        .build()
}

/// A study with members `tr1..trN` on hosts `host1..hostN`.
pub fn ring_study(name: &str, members: usize) -> StudyDef {
    let names: Vec<String> = (1..=members).map(|i| format!("tr{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut def = StudyDef::new(name);
    for n in &name_refs {
        def = def.machine(ring_sm_spec(n, &name_refs));
    }
    for (i, n) in name_refs.iter().enumerate() {
        def = def.place(n, &format!("host{}", i + 1));
    }
    def
}

/// An [`AppFactory`] for ring members.
pub fn ring_factory(cfg: RingConfig) -> AppFactory {
    let cfg = Arc::new(cfg);
    Arc::new(move |_study: &Study, _sm| Box::new(RingMember::new(cfg.clone())) as Box<dyn App>)
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_core::campaign::ExperimentEnd;
    use loki_core::fault::{FaultExpr, Trigger};
    use loki_core::recorder::RecordKind;
    use loki_runtime::harness::{run_experiment, SimHarnessConfig};

    fn count_state(
        study: &Study,
        data: &loki_core::campaign::ExperimentData,
        sm: &str,
        state: &str,
    ) -> usize {
        let sid = study.states.lookup(state).unwrap();
        data.timeline_for(study.sm_id(sm).unwrap())
            .unwrap()
            .records
            .iter()
            .filter(
                |r| matches!(r.kind, RecordKind::StateChange { new_state, .. } if new_state == sid),
            )
            .count()
    }

    #[test]
    fn token_circulates_fault_free() {
        let study = Study::compile_arc(&ring_study("s", 3)).unwrap();
        let data = run_experiment(
            &study,
            ring_factory(RingConfig::default()),
            &SimHarnessConfig::three_hosts(5),
            0,
        )
        .expect("valid config");
        assert_eq!(data.end, ExperimentEnd::Completed);
        // Every member held the token several times over the lifetime.
        for sm in ["tr1", "tr2", "tr3"] {
            assert!(
                count_state(&study, &data, sm, "HAS_TOKEN") >= 3,
                "{sm} held the token too rarely"
            );
            assert_eq!(count_state(&study, &data, sm, "RECOVER"), 0);
        }
    }

    #[test]
    fn crashed_holder_leads_to_regeneration() {
        let def = ring_study("s", 3).fault(
            "tr2",
            "kill_holder",
            FaultExpr::atom("tr2", "HAS_TOKEN"),
            Trigger::Once,
        );
        let study = Study::compile_arc(&def).unwrap();
        let data = run_experiment(
            &study,
            ring_factory(RingConfig::default()),
            &SimHarnessConfig::three_hosts(8),
            0,
        )
        .expect("valid config");
        assert_eq!(data.end, ExperimentEnd::Completed);
        assert!(count_state(&study, &data, "tr2", "CRASH") == 1);
        // The survivors detected the loss and regenerated: tr1 (lowest id)
        // re-entered HAS_TOKEN via TOKEN_REGENERATED.
        let lost: usize = ["tr1", "tr3"]
            .iter()
            .map(|sm| count_state(&study, &data, sm, "RECOVER"))
            .sum();
        assert!(lost >= 1, "someone declared token loss");
        // Circulation resumed among the two survivors.
        assert!(count_state(&study, &data, "tr1", "HAS_TOKEN") >= 2);
        assert!(count_state(&study, &data, "tr3", "HAS_TOKEN") >= 2);
    }

    #[test]
    fn dropped_pass_is_recovered() {
        let mut probe = ActionProbe::new();
        probe = probe.on("drop_pass", FaultAction::DropMessages { count: 1 });
        let def = ring_study("s", 3).fault(
            "tr1",
            "drop_pass",
            FaultExpr::atom("tr1", "HAS_TOKEN"),
            Trigger::Once,
        );
        let study = Study::compile_arc(&def).unwrap();
        let cfg = RingConfig {
            probe,
            ..Default::default()
        };
        let data = run_experiment(
            &study,
            ring_factory(cfg),
            &SimHarnessConfig::three_hosts(9),
            0,
        )
        .expect("valid config");
        assert_eq!(data.end, ExperimentEnd::Completed);
        // Nobody crashed, but the token was lost once and regenerated.
        for sm in ["tr1", "tr2", "tr3"] {
            assert_eq!(count_state(&study, &data, sm, "CRASH"), 0);
        }
        let regen: usize = ["tr1", "tr2", "tr3"]
            .iter()
            .map(|sm| count_state(&study, &data, sm, "RECOVER"))
            .sum();
        assert!(regen >= 1, "token loss detected after dropped pass");
    }
}
