//! A primary-backup replicated key-value store.
//!
//! One machine starts as primary; it generates client operations and
//! replicates them to the backups (the replication stream doubles as a
//! heartbeat). When the primary crashes, backups detect the silence, raise
//! `PRIMARY_FAILED`, and the deterministic successor (the lowest-id backup)
//! promotes itself; the others step back to `BACKUP` under the new primary.
//!
//! This is the kind of reliable distributed system the thesis motivates:
//! failures propagate across components, so meaningful faults (and
//! measures) are phrased over the *global* state — e.g. "inject while some
//! machine is `PRIMARY`" or "how long was no machine `PRIMARY`?"
//! (unavailability).
//!
//! ## Retry mode and the cascading-failure study
//!
//! With [`KvConfig::retry`] set, replication becomes acknowledged: backups
//! ack operations from the primary they currently believe in, and the
//! primary re-broadcasts every unacknowledged operation on a (bounded,
//! optionally exponential) backoff schedule, `amplification` copies per
//! attempt. Each retry attempt leaves a `retry seq=… attempt=…` user
//! message on the primary's timeline — the signal
//! `loki_analysis::cascade` watches for.
//!
//! [`cascade_study`] wires this into a network-fault scenario: a
//! state-triggered partition deposes the primary without killing it, the
//! network heals once the successor has promoted itself, and the deposed
//! primary — which never observed the succession — keeps retrying into a
//! cluster that no longer acknowledges it. The result is a self-sustaining
//! retry storm *after* the network fault is gone: a causal loop between
//! the fault plane and the application's own recovery machinery.

use loki_core::fault::{FaultExpr, Trigger};
use loki_core::ids::SmId;
use loki_core::probe::{ActionProbe, FaultAction};
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;
use loki_runtime::{App, AppFactory, NodeCtx, Payload};
use rand::Rng;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Retry/backoff settings for acknowledged replication
/// ([`KvConfig::retry`]).
///
/// The defaults are well-behaved (exponential backoff, no amplification);
/// [`storm_retry`] is the aggressive configuration that turns a transient
/// partition into a sustained storm.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RetryConfig {
    /// Retry attempts per operation before the primary gives up on it.
    pub max_retries: u32,
    /// Delay before the first retry of an operation.
    pub base_backoff_ns: u64,
    /// Per-attempt backoff multiplier (`2.0` = exponential backoff,
    /// `1.0` = fixed-interval retries — the storm-prone setting).
    pub backoff_multiplier: f64,
    /// Copies of the operation re-broadcast per retry attempt (retry
    /// amplification; `1` = plain resend).
    pub amplification: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_retries: 6,
            base_backoff_ns: 40_000_000,
            backoff_multiplier: 2.0,
            amplification: 1,
        }
    }
}

/// The retry configuration used by the cascading-failure study: bounded
/// but generous retries, **no** exponential backoff, and 2× amplification
/// — each unacknowledged operation keeps re-broadcasting at a fixed
/// interval for the rest of the run.
pub fn storm_retry() -> RetryConfig {
    RetryConfig {
        max_retries: 40,
        base_backoff_ns: 50_000_000,
        backoff_multiplier: 1.0,
        amplification: 2,
    }
}

/// Tunables of the store.
#[derive(Clone, Debug)]
pub struct KvConfig {
    /// INIT phase length.
    pub init_delay_ns: u64,
    /// Interval between replicated operations (also the heartbeat period).
    pub op_interval_ns: u64,
    /// Backup patience before declaring the primary failed.
    pub fail_timeout_ns: u64,
    /// Delay between `PRIMARY_FAILED` and the successor's promotion.
    pub promote_delay_ns: u64,
    /// Application lifetime.
    pub lifetime_ns: u64,
    /// Acknowledged replication with retries (`None` = fire-and-forget
    /// replication, the classic behaviour).
    pub retry: Option<RetryConfig>,
    /// Probe actions per fault name (default: crash).
    pub probe: ActionProbe,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            init_delay_ns: 80_000_000,
            op_interval_ns: 30_000_000,
            fail_timeout_ns: 120_000_000,
            promote_delay_ns: 40_000_000,
            lifetime_ns: 2_000_000_000,
            retry: None,
            probe: ActionProbe::new(),
        }
    }
}

#[derive(Clone, Debug)]
enum Msg {
    /// Primary → backups: apply an operation (doubles as heartbeat).
    Replicate {
        /// Monotone sequence number.
        seq: u64,
        /// Key.
        key: u64,
        /// Value.
        value: u64,
    },
    /// The successor announces itself.
    NewPrimary,
    /// Backup → primary: operation `seq` applied (retry mode only).
    Ack {
        /// Acknowledged sequence number.
        seq: u64,
    },
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Role {
    Init,
    Primary,
    Backup,
    Failover,
}

const TAG_INIT_DONE: u64 = 1;
const TAG_OP: u64 = 2;
const TAG_WATCH: u64 = 3;
const TAG_PROMOTE: u64 = 4;
const TAG_LIFETIME: u64 = 5;
/// Retry timers encode the sequence number in the low 32 bits.
const TAG_RETRY_BASE: u64 = 1 << 32;

/// An operation awaiting acknowledgement (retry mode).
struct PendingOp {
    attempts: u32,
    key: u64,
    value: u64,
}

/// One store replica.
pub struct KvReplica {
    cfg: Arc<KvConfig>,
    role: Role,
    is_initial_primary: bool,
    store: HashMap<u64, u64>,
    seq: u64,
    last_seen_ns: u64,
    /// The machine this replica currently believes is primary. Backups
    /// only acknowledge (and count as heartbeats) operations from this
    /// machine; a deposed primary's retries are ignored.
    believed_primary: Option<SmId>,
    /// Unacknowledged operations, by sequence number (retry mode only).
    pending: HashMap<u64, PendingOp>,
    probe: ActionProbe,
}

impl KvReplica {
    /// Creates a replica; `is_initial_primary` marks the machine that
    /// starts as primary.
    pub fn new(cfg: Arc<KvConfig>, is_initial_primary: bool) -> Self {
        let probe = cfg.probe.clone();
        KvReplica {
            cfg,
            role: Role::Init,
            is_initial_primary,
            store: HashMap::new(),
            seq: 0,
            last_seen_ns: 0,
            believed_primary: None,
            pending: HashMap::new(),
            probe,
        }
    }

    /// Seeds the replica's initial belief about who the primary is (the
    /// factory passes the configured initial primary). Without a hint the
    /// belief forms from the first replicated operation observed.
    pub fn with_primary_hint(mut self, primary: Option<SmId>) -> Self {
        self.believed_primary = primary;
        self
    }

    /// The deterministic successor: the lowest-id live machine other than
    /// the believed-failed primary. (The failed primary may still be
    /// *executing* — partitioned away rather than dead — so it cannot be
    /// excluded by liveness alone.)
    fn i_am_successor(&self, ctx: &NodeCtx<'_>) -> bool {
        ctx.study()
            .sms
            .ids()
            .find(|&sm| ctx.is_live(sm) && Some(sm) != self.believed_primary)
            == Some(ctx.my_sm())
    }
}

impl App for KvReplica {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>, restarted: bool) {
        ctx.set_timer(self.cfg.lifetime_ns, TAG_LIFETIME);
        // Restarted replicas rejoin as backups (not modelled further).
        let _ = restarted;
        ctx.notify_event("INIT").expect("initial state");
        ctx.set_timer(self.cfg.init_delay_ns, TAG_INIT_DONE);
    }

    fn on_app_message(&mut self, ctx: &mut NodeCtx<'_>, from: SmId, payload: Payload) {
        let Some(msg) = payload.downcast_ref::<Msg>() else {
            return;
        };
        match msg {
            Msg::Replicate { seq, key, value } => {
                // With the retry protocol on, backups honour only their
                // believed primary: a deposed primary retrying after a
                // partition heals neither refreshes the watchdog nor gets
                // acknowledged — the causal loop behind `cascade_study`.
                if self.cfg.retry.is_some()
                    && self.role == Role::Backup
                    && self.believed_primary.is_some_and(|p| p != from)
                {
                    return;
                }
                self.last_seen_ns = ctx.local_time().as_nanos();
                if self.role == Role::Backup {
                    if self.believed_primary.is_none() {
                        self.believed_primary = Some(from);
                    }
                    if *seq > self.seq {
                        self.seq = *seq;
                        self.store.insert(*key, *value);
                    }
                    if self.cfg.retry.is_some() {
                        ctx.send_to(from, Rc::new(Msg::Ack { seq: *seq }));
                    }
                } else if self.role == Role::Failover {
                    // A primary is alive after all: step back.
                    let _ = ctx.notify_event("STEPPED_BACK");
                    self.role = Role::Backup;
                    self.believed_primary = Some(from);
                }
            }
            Msg::NewPrimary => {
                self.last_seen_ns = ctx.local_time().as_nanos();
                if self.role != Role::Primary {
                    self.believed_primary = Some(from);
                }
                if self.role == Role::Failover {
                    let _ = ctx.notify_event("STEPPED_BACK");
                    self.role = Role::Backup;
                }
            }
            Msg::Ack { seq } => {
                if self.role == Role::Primary {
                    self.pending.remove(seq);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, tag: u64) {
        match tag {
            TAG_INIT_DONE => {
                if self.role != Role::Init {
                    return;
                }
                if self.is_initial_primary {
                    self.role = Role::Primary;
                    ctx.notify_event("INIT_DONE_P").expect("INIT -> PRIMARY");
                    ctx.set_timer(self.cfg.op_interval_ns, TAG_OP);
                } else {
                    self.role = Role::Backup;
                    ctx.notify_event("INIT_DONE_B").expect("INIT -> BACKUP");
                    self.last_seen_ns = ctx.local_time().as_nanos();
                    ctx.set_timer(self.cfg.fail_timeout_ns / 2, TAG_WATCH);
                }
            }
            TAG_OP => {
                if self.role == Role::Primary {
                    self.seq += 1;
                    let key = ctx.rng().gen_range(0..64);
                    let value = ctx.rng().gen();
                    self.store.insert(key, value);
                    ctx.broadcast(Rc::new(Msg::Replicate {
                        seq: self.seq,
                        key,
                        value,
                    }));
                    if let Some(retry) = self.cfg.retry {
                        self.pending.insert(
                            self.seq,
                            PendingOp {
                                attempts: 0,
                                key,
                                value,
                            },
                        );
                        ctx.set_timer(retry.base_backoff_ns, TAG_RETRY_BASE | self.seq);
                    }
                    ctx.set_timer(self.cfg.op_interval_ns, TAG_OP);
                }
            }
            TAG_WATCH => {
                if self.role == Role::Backup {
                    let silent = ctx
                        .local_time()
                        .as_nanos()
                        .saturating_sub(self.last_seen_ns)
                        > self.cfg.fail_timeout_ns;
                    if silent {
                        self.role = Role::Failover;
                        let _ = ctx.notify_event("PRIMARY_FAILED");
                        if self.i_am_successor(ctx) {
                            ctx.set_timer(self.cfg.promote_delay_ns, TAG_PROMOTE);
                        } else {
                            // Wait for the successor; keep watching in case
                            // it also died.
                            ctx.set_timer(self.cfg.fail_timeout_ns, TAG_WATCH);
                        }
                    } else {
                        ctx.set_timer(self.cfg.fail_timeout_ns / 2, TAG_WATCH);
                    }
                } else if self.role == Role::Failover {
                    // Successor never showed up: try to promote ourselves.
                    if self.i_am_successor(ctx) {
                        ctx.set_timer(self.cfg.promote_delay_ns, TAG_PROMOTE);
                    } else {
                        ctx.set_timer(self.cfg.fail_timeout_ns, TAG_WATCH);
                    }
                }
            }
            TAG_PROMOTE => {
                if self.role == Role::Failover {
                    self.role = Role::Primary;
                    self.believed_primary = Some(ctx.my_sm());
                    ctx.notify_event("PROMOTED").expect("FAILOVER -> PRIMARY");
                    ctx.broadcast(Rc::new(Msg::NewPrimary));
                    ctx.set_timer(self.cfg.op_interval_ns, TAG_OP);
                }
            }
            TAG_LIFETIME => {
                let _ = ctx.notify_event("ERROR");
                ctx.exit();
            }
            tag if tag & TAG_RETRY_BASE != 0 => {
                let seq = tag & !TAG_RETRY_BASE;
                let Some(retry) = self.cfg.retry else {
                    return;
                };
                if self.role != Role::Primary {
                    self.pending.remove(&seq);
                    return;
                }
                let Some(op) = self.pending.get_mut(&seq) else {
                    return; // acknowledged in the meantime
                };
                op.attempts += 1;
                let (attempts, key, value) = (op.attempts, op.key, op.value);
                if attempts > retry.max_retries {
                    self.pending.remove(&seq);
                    return;
                }
                for _ in 0..retry.amplification.max(1) {
                    ctx.broadcast(Rc::new(Msg::Replicate { seq, key, value }));
                }
                ctx.record_user_message(format!("retry seq={seq} attempt={attempts}"));
                let backoff = (retry.base_backoff_ns as f64
                    * retry.backoff_multiplier.powi(attempts as i32))
                    as u64;
                ctx.set_timer(backoff.max(1), TAG_RETRY_BASE | seq);
            }
            _ => {}
        }
    }

    fn on_fault(&mut self, ctx: &mut NodeCtx<'_>, fault: &str) {
        match ctx.probe_action(&self.probe, fault).cloned() {
            Some(FaultAction::CrashNode) | None => ctx.crash(),
            Some(FaultAction::CrashWithProbability { activation, .. }) => {
                if activation >= 1.0 || ctx.rng().gen_bool(activation.clamp(0.0, 1.0)) {
                    ctx.crash();
                }
            }
            Some(action) if action.is_net() => {
                let applied = ctx.apply_net_fault(&action);
                ctx.record_user_message(format!("fault {fault}: net action applied={applied}"));
            }
            Some(_) => {
                ctx.record_user_message(format!("fault {fault} injected (no-op action)"));
            }
        }
    }
}

/// Builds the per-machine specification: `PRIMARY` and `CRASH` notify every
/// other machine (faults and measures observe them remotely).
pub fn kv_sm_spec(name: &str, all: &[&str]) -> StateMachineSpec {
    let others: Vec<&str> = all.iter().copied().filter(|n| *n != name).collect();
    StateMachineSpec::builder(name)
        .states(&[
            "BEGIN", "INIT", "PRIMARY", "BACKUP", "FAILOVER", "CRASH", "EXIT",
        ])
        .events(&[
            "INIT_DONE_P",
            "INIT_DONE_B",
            "PRIMARY_FAILED",
            "PROMOTED",
            "STEPPED_BACK",
            "CRASH",
            "ERROR",
        ])
        .state(
            "INIT",
            &others,
            &[
                ("INIT_DONE_P", "PRIMARY"),
                ("INIT_DONE_B", "BACKUP"),
                ("ERROR", "EXIT"),
            ],
        )
        .state("PRIMARY", &others, &[("CRASH", "CRASH"), ("ERROR", "EXIT")])
        .state(
            "BACKUP",
            &[],
            &[
                ("PRIMARY_FAILED", "FAILOVER"),
                ("CRASH", "CRASH"),
                ("ERROR", "EXIT"),
            ],
        )
        .state(
            "FAILOVER",
            &others,
            &[
                ("PROMOTED", "PRIMARY"),
                ("STEPPED_BACK", "BACKUP"),
                ("CRASH", "CRASH"),
                ("ERROR", "EXIT"),
            ],
        )
        .state("CRASH", &others, &[])
        .state("EXIT", &[], &[])
        .build()
}

/// A study with replicas `kv1..kvN` on hosts `host1..hostN`; `kv1` is the
/// initial primary.
pub fn kv_study(name: &str, replicas: usize) -> StudyDef {
    let names: Vec<String> = (1..=replicas).map(|i| format!("kv{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut def = StudyDef::new(name);
    for n in &name_refs {
        def = def.machine(kv_sm_spec(n, &name_refs));
    }
    for (i, n) in name_refs.iter().enumerate() {
        def = def.place(n, &format!("host{}", i + 1));
    }
    def
}

/// An [`AppFactory`] for the store; the machine named `kv1` starts as
/// primary (and is every replica's initial primary belief).
pub fn kv_factory(cfg: KvConfig) -> AppFactory {
    let cfg = Arc::new(cfg);
    Arc::new(move |study: &Study, sm| {
        let is_primary = study.sms.name(sm) == "kv1";
        let hint = study.sm_id("kv1");
        Box::new(KvReplica::new(cfg.clone(), is_primary).with_primary_hint(hint)) as Box<dyn App>
    })
}

/// Fault name of the state-triggered partition in [`cascade_study`].
pub const CASCADE_NETSPLIT: &str = "netsplit";
/// Fault name of the state-triggered heal in [`cascade_study`].
pub const CASCADE_HEAL: &str = "heal_net";

/// The 3-replica cascading-failure study. `kv3` owns two state-triggered
/// network faults:
///
/// * [`CASCADE_NETSPLIT`] fires the moment `kv1` becomes `PRIMARY` and
///   partitions `host1` (the primary) away from `host2`/`host3`;
/// * [`CASCADE_HEAL`] fires once the successor `kv2` has promoted itself
///   and removes every network fault.
///
/// Run with [`cascade_config`] (retries on, partition on) the *healed*
/// network then carries a self-sustaining retry storm: the deposed `kv1`
/// never observed the succession, the backups only acknowledge `kv2`, and
/// every unacknowledged `kv1` operation keeps re-broadcasting, amplified.
/// Disabling either the retries or the partition breaks the loop.
pub fn cascade_study(name: &str) -> StudyDef {
    kv_study(name, 3)
        .fault(
            "kv3",
            CASCADE_NETSPLIT,
            FaultExpr::atom("kv1", "PRIMARY"),
            Trigger::Once,
        )
        .fault(
            "kv3",
            CASCADE_HEAL,
            FaultExpr::atom("kv2", "PRIMARY"),
            Trigger::Once,
        )
}

/// The probe table for [`cascade_study`]: `netsplit` isolates `host1`
/// (or is a recorded no-op when `partition` is false — the control that
/// breaks the loop at the fault plane), `heal_net` clears the plane.
pub fn cascade_probe(partition: bool) -> ActionProbe {
    let netsplit = if partition {
        FaultAction::Partition {
            groups: vec![
                vec!["host1".to_string()],
                vec!["host2".to_string(), "host3".to_string()],
            ],
        }
    } else {
        FaultAction::Custom("netsplit-disabled".to_string())
    };
    ActionProbe::new()
        .on(CASCADE_NETSPLIT, netsplit)
        .on(CASCADE_HEAL, FaultAction::Heal)
}

/// A [`KvConfig`] for [`cascade_study`]: `retry` controls the application
/// half of the loop ([`storm_retry`] reproduces the storm, `None` is the
/// well-behaved control), `partition` the network half.
pub fn cascade_config(retry: Option<RetryConfig>, partition: bool) -> KvConfig {
    KvConfig {
        retry,
        probe: cascade_probe(partition),
        ..KvConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loki_core::campaign::ExperimentEnd;
    use loki_core::fault::{FaultExpr, Trigger};
    use loki_core::recorder::RecordKind;
    use loki_runtime::harness::{run_experiment, SimHarnessConfig};

    fn states<'a>(
        study: &'a Study,
        data: &loki_core::campaign::ExperimentData,
        sm: &str,
    ) -> Vec<&'a str> {
        data.timeline_for(study.sm_id(sm).unwrap())
            .unwrap()
            .records
            .iter()
            .filter_map(|r| match r.kind {
                RecordKind::StateChange { new_state, .. } => Some(study.states.name(new_state)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn fault_free_run_keeps_primary() {
        let study = Study::compile_arc(&kv_study("s", 3)).unwrap();
        let data = run_experiment(
            &study,
            kv_factory(KvConfig::default()),
            &SimHarnessConfig::three_hosts(11),
            0,
        )
        .expect("valid config");
        assert_eq!(data.end, ExperimentEnd::Completed);
        assert_eq!(
            states(&study, &data, "kv1")
                .iter()
                .filter(|s| **s == "PRIMARY")
                .count(),
            1
        );
        for sm in ["kv2", "kv3"] {
            let st = states(&study, &data, sm);
            assert!(st.contains(&"BACKUP"), "{sm}: {st:?}");
            assert!(!st.contains(&"FAILOVER"), "{sm}: {st:?}");
        }
    }

    #[test]
    fn primary_crash_triggers_failover_to_lowest_backup() {
        let def = kv_study("s", 3).fault(
            "kv1",
            "kill_primary",
            FaultExpr::atom("kv1", "PRIMARY"),
            Trigger::Once,
        );
        let study = Study::compile_arc(&def).unwrap();
        let data = run_experiment(
            &study,
            kv_factory(KvConfig::default()),
            &SimHarnessConfig::three_hosts(13),
            0,
        )
        .expect("valid config");
        assert_eq!(data.end, ExperimentEnd::Completed);
        let kv1 = states(&study, &data, "kv1");
        assert!(kv1.contains(&"CRASH"), "{kv1:?}");
        // kv2 (lowest surviving id) promoted; kv3 stepped back to BACKUP.
        let kv2 = states(&study, &data, "kv2");
        assert!(
            kv2.contains(&"FAILOVER") && kv2.contains(&"PRIMARY"),
            "{kv2:?}"
        );
        let kv3 = states(&study, &data, "kv3");
        assert!(kv3.contains(&"FAILOVER"), "{kv3:?}");
        assert!(!kv3.contains(&"PRIMARY"), "{kv3:?}");
        assert_eq!(data.total_injections(), 1);
    }

    fn retry_markers(study: &Study, data: &loki_core::campaign::ExperimentData, sm: &str) -> usize {
        data.timeline_for(study.sm_id(sm).unwrap())
            .unwrap()
            .records
            .iter()
            .filter(|r| matches!(&r.kind, RecordKind::UserMessage(m) if m.starts_with("retry ")))
            .count()
    }

    #[test]
    fn acked_replication_stays_quiet_without_faults() {
        let study = Study::compile_arc(&kv_study("s", 3)).unwrap();
        let cfg = KvConfig {
            retry: Some(RetryConfig::default()),
            ..KvConfig::default()
        };
        let data = run_experiment(
            &study,
            kv_factory(cfg),
            &SimHarnessConfig::three_hosts(17),
            0,
        )
        .expect("valid config");
        assert_eq!(data.end, ExperimentEnd::Completed);
        // Acknowledgements beat the first backoff: no retries anywhere.
        for sm in ["kv1", "kv2", "kv3"] {
            assert_eq!(retry_markers(&study, &data, sm), 0, "{sm}");
        }
        assert_eq!(
            states(&study, &data, "kv1")
                .iter()
                .filter(|s| **s == "PRIMARY")
                .count(),
            1
        );
    }

    #[test]
    fn partition_deposes_live_primary_into_split_brain() {
        let study = Study::compile_arc(&cascade_study("s")).unwrap();
        let data = run_experiment(
            &study,
            kv_factory(cascade_config(Some(storm_retry()), true)),
            &SimHarnessConfig::three_hosts(19),
            0,
        )
        .expect("valid config");
        assert_eq!(data.end, ExperimentEnd::Completed);
        assert_eq!(data.total_injections(), 2);
        // kv1 was deposed by the partition but never crashed; kv2 promoted:
        // two machines ended the run believing they are PRIMARY.
        let kv1 = states(&study, &data, "kv1");
        assert!(
            kv1.contains(&"PRIMARY") && !kv1.contains(&"CRASH"),
            "{kv1:?}"
        );
        let kv2 = states(&study, &data, "kv2");
        assert!(
            kv2.contains(&"FAILOVER") && kv2.contains(&"PRIMARY"),
            "{kv2:?}"
        );
        // The deposed primary retried into the void for the rest of the run.
        let retries = retry_markers(&study, &data, "kv1");
        assert!(retries > 50, "only {retries} retry markers");
        // The new primary's operations are acknowledged: no storm there.
        assert_eq!(retry_markers(&study, &data, "kv2"), 0);
    }
}
