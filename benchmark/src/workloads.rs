//! The five workloads: what each one's campaign directory holds, how the
//! directory becomes a runnable campaign, and what its sink does.
//!
//! A workload is generated from the seed into a campaign directory on disk
//! and then *loaded from that directory*: the library under test receives
//! only the generated files and a `SimHarnessConfig`, exactly what a user
//! of the file-driven workflow hands it.

use crate::pulser::{self, PulserPlan};
use crate::spans::Tracer;
use loki::apps::election::{election_factory, election_study, ElectionConfig};
use loki::apps::kvstore::{cascade_config, cascade_study, kv_factory, storm_retry, KvConfig};
use loki::apps::token_ring::{ring_factory, ring_study, RingConfig};
use loki::clock::params::ClockParams;
use loki::core::fault::{FaultExpr, Trigger};
use loki::core::probe::ActionProbe;
use loki::core::study::Study;
use loki::measure::study_measure::{MeasureStep, SubsetSel};
use loki::measure::{ObservationFn, Predicate, PredicateTimeline, StudyMeasure};
use loki::runtime::daemons::{RestartPlacement, RestartPolicy};
use loki::runtime::harness::{CampaignPipeline, SimHarnessConfig};
use loki::runtime::AppFactory;
use loki::sim::config::HostConfig;
use loki::spec::campaign_loader::{
    load_budget_dir, load_study_dir_with_actions, write_budget_dir, write_study_dir_with_actions,
};
use loki::spec::BudgetSpec;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;

/// Experiments interleaved per worker in every timed repetition.
pub const BATCH: usize = 8;

/// The restart probability `election_fold_w2` configures: the one measure
/// in the benchmark with a known true value.
pub const ELECTION_COVERAGE: f64 = 0.7;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    RingSteady,
    MicroChurn,
    PulseAlways,
    ElectionFoldW2,
    KvCascade,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::RingSteady,
        Workload::MicroChurn,
        Workload::PulseAlways,
        Workload::ElectionFoldW2,
        Workload::KvCascade,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RingSteady => "ring_steady",
            Workload::MicroChurn => "micro_churn",
            Workload::PulseAlways => "pulse_always",
            Workload::ElectionFoldW2 => "election_fold_w2",
            Workload::KvCascade => "kv_cascade",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Experiments in one repetition: a constant per workload, sized for
    /// about half a second on the 2-core box the benchmark was written on,
    /// so that two commits run the same work and a run of `--seconds 10`
    /// takes the median of about twenty repetitions.
    pub fn experiments_per_rep(self) -> u32 {
        match self {
            Workload::RingSteady => 5_000,
            Workload::MicroChurn => 80_000,
            Workload::PulseAlways => 1_000,
            Workload::ElectionFoldW2 => 8_000,
            Workload::KvCascade => 400,
        }
    }

    /// Worker threads the pipeline gets. Only `election_fold_w2` takes the
    /// coordinator path; with one processor it falls back to one worker
    /// and the result records that.
    pub fn workers(self) -> usize {
        match self {
            Workload::ElectionFoldW2 => nproc().min(2),
            _ => 1,
        }
    }

    /// Whether every experiment of the study is expected to inject.
    pub fn has_faults(self) -> bool {
        self != Workload::MicroChurn
    }

    /// The study measure the sink folds online, if the workload has one.
    pub fn measure(self) -> Option<StudyMeasure> {
        (self == Workload::ElectionFoldW2).then(|| coverage_measure("black"))
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The thesis's §5.8 coverage measure for machine `x`: among experiments in
/// which `x` crashed, 1 if it was restarted and 0 if not.
fn coverage_measure(x: &str) -> StudyMeasure {
    let ever_true = ObservationFn::User(Rc::new(|tl: &PredicateTimeline| {
        let (lo, hi) = tl.window;
        if tl.total_true(lo, hi) > 0.0 || !tl.impulses().is_empty() {
            1.0
        } else {
            0.0
        }
    }));
    StudyMeasure::new(&format!("coverage-{x}"))
        .step(MeasureStep {
            subset: SubsetSel::All,
            predicate: Predicate::state(x, "CRASH"),
            observation: ObservationFn::total_true(),
        })
        .step(MeasureStep {
            subset: SubsetSel::Gt(0.0),
            predicate: Predicate::state(x, "RESTART_SM"),
            observation: ever_true,
        })
}

fn err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

/// Writes `workload`'s campaign directory. The bytes are a pure function
/// of `(workload, seed)`; only `pulse_always` depends on the seed at all
/// (its pulse periods), the other directories are the same for every seed
/// and the seed reaches the program as `SimHarnessConfig::seed`.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let budget_armed = BudgetSpec {
        max_virtual_time_ns: Some(30_000_000_000),
        max_events: Some(100_000_000),
        ..BudgetSpec::default()
    };
    let (def, probe, budget) = match workload {
        Workload::RingSteady => (
            ring_study(workload.name(), 3).fault(
                "tr2",
                "kill_holder",
                FaultExpr::atom("tr2", "HAS_TOKEN"),
                Trigger::Once,
            ),
            ActionProbe::new(),
            budget_armed,
        ),
        Workload::MicroChurn => (
            ring_study(workload.name(), 2),
            ActionProbe::new(),
            BudgetSpec::default(),
        ),
        Workload::ElectionFoldW2 => (
            election_study(workload.name()).fault(
                "black",
                "bfault1",
                FaultExpr::atom("black", "LEAD"),
                Trigger::Once,
            ),
            ActionProbe::new(),
            BudgetSpec::default(),
        ),
        Workload::KvCascade => (
            cascade_study(workload.name()),
            cascade_config(Some(storm_retry()), true).probe,
            budget_armed,
        ),
        Workload::PulseAlways => {
            // Raw specification text, not a `StudyDef` written back out:
            // this is the workload that exercises the parsers on files a
            // person would write.
            std::fs::create_dir_all(dir).map_err(|e| err("create campaign directory", e))?;
            for (file, text) in pulser::campaign_files(seed) {
                std::fs::write(dir.join(&file), text).map_err(|e| err(&file, e))?;
            }
            return write_budget_dir(&budget_armed, dir).map_err(|e| err("budget file", e));
        }
    };
    write_study_dir_with_actions(&def, &probe, dir).map_err(|e| err("campaign directory", e))?;
    write_budget_dir(&budget, dir).map_err(|e| err("budget file", e))
}

/// A loaded campaign: everything `CampaignPipeline::new` takes.
pub struct Campaign {
    pub study: Arc<Study>,
    pub factory: AppFactory,
    pub cfg: SimHarnessConfig,
}

impl Campaign {
    pub fn pipeline(&self, batch: usize) -> CampaignPipeline {
        let mut cfg = self.cfg.clone();
        cfg.batch = Some(batch);
        CampaignPipeline::new(self.study.clone(), self.factory.clone(), cfg)
    }
}

/// Set-up: campaign directory on disk → a pipeline ready to run. This is
/// what `setup_s` times, and each step is one span for the traced pass.
pub fn set_up(
    workload: Workload,
    dir: &Path,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Campaign, String> {
    let whole = tracer.begin("setup", None);

    let span = tracer.begin("spec.load", None);
    let (def, probe) =
        load_study_dir_with_actions(workload.name(), dir).map_err(|e| err("load study", e))?;
    let budget = load_budget_dir(dir).map_err(|e| err("load budget", e))?;
    let plan = match workload {
        Workload::PulseAlways => Some(pulser::load_plan(dir)?),
        _ => None,
    };
    tracer.end(span);

    let span = tracer.begin("core.derive_notify", None);
    let def = def.derive_notify_lists();
    tracer.end(span);

    let span = tracer.begin("core.compile", None);
    let study = Study::compile_arc(&def).map_err(|e| err("compile study", e))?;
    tracer.end(span);

    let span = tracer.begin("runtime.pipeline_new", None);
    let campaign = Campaign {
        study,
        factory: factory(workload, probe, plan),
        cfg: harness(workload, seed, &budget),
    };
    drop(campaign.pipeline(BATCH));
    tracer.end(span);

    tracer.end(whole);
    Ok(campaign)
}

fn factory(workload: Workload, probe: ActionProbe, plan: Option<PulserPlan>) -> AppFactory {
    match workload {
        Workload::RingSteady => ring_factory(RingConfig {
            probe,
            ..RingConfig::default()
        }),
        // Millisecond phases: an experiment is a few dozen events, so the
        // fixed cost of an experiment is most of its cost.
        Workload::MicroChurn => ring_factory(RingConfig {
            init_delay_ns: 1_000_000,
            hold_ns: 1_000_000,
            loss_timeout_ns: 50_000_000,
            regen_delay_ns: 10_000_000,
            lifetime_ns: 2_000_000,
            probe,
        }),
        Workload::PulseAlways => {
            pulser::factory(plan.expect("pulse_always loads its plan with the study"))
        }
        Workload::ElectionFoldW2 => election_factory(ElectionConfig {
            probe,
            ..ElectionConfig::default()
        }),
        Workload::KvCascade => kv_factory(KvConfig {
            probe,
            ..cascade_config(Some(storm_retry()), true)
        }),
    }
}

/// `n` hosts with distinct offsets and drifts, none of them ideal.
fn drifting_hosts(n: usize) -> Vec<HostConfig> {
    (1..=n)
        .map(|i| {
            HostConfig::new(&format!("host{i}")).clock(ClockParams::with_drift_ppm(
                (i as f64) * 1e5,
                ((i % 7) as f64) * 40.0 - 120.0,
            ))
        })
        .collect()
}

fn harness(workload: Workload, seed: u64, budget: &BudgetSpec) -> SimHarnessConfig {
    let mut cfg = SimHarnessConfig::three_hosts(seed);
    match workload {
        Workload::RingSteady | Workload::KvCascade => {}
        Workload::MicroChurn => {
            cfg.hosts = drifting_hosts(2);
            cfg.sync_rounds = 1;
        }
        Workload::PulseAlways => cfg.hosts = drifting_hosts(pulser::MACHINES),
        Workload::ElectionFoldW2 => {
            cfg.restart = Some(RestartPolicy {
                probability: ELECTION_COVERAGE,
                delay_ns: 60_000_000,
                max_restarts: 1,
                placement: RestartPlacement::NextHost,
            });
        }
    }
    cfg.max_virtual_time = budget.max_virtual_time_ns;
    cfg.max_events = budget.max_events;
    cfg
}

/// Every file of a campaign directory as `(name, bytes)`, sorted by name,
/// and their total size.
pub fn dir_contents(dir: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| err("read campaign directory", e))? {
        let entry = entry.map_err(|e| err("read campaign directory", e))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let bytes = std::fs::read(entry.path()).map_err(|e| err(&name, e))?;
        files.push((name, bytes));
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_dir;

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("threads"), None);
    }

    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            let gen = |seed: u64, tag: &str| {
                let dir = scratch_dir(&format!("test-gen-{}-{tag}", w.name()));
                generate(w, seed, &dir).unwrap();
                let files = dir_contents(&dir).unwrap();
                std::fs::remove_dir_all(&dir).unwrap();
                files
            };
            let a = gen(7, "a");
            assert!(!a.is_empty());
            assert_eq!(a, gen(7, "b"), "{}: same seed, different bytes", w.name());
            let other = gen(8, "c");
            if w == Workload::PulseAlways {
                let plan = |files: &[(String, Vec<u8>)]| {
                    files.iter().find(|(n, _)| n == pulser::PLAN_FILE).cloned()
                };
                assert_ne!(plan(&a), plan(&other), "seed must move the pulse periods");
            } else {
                assert_eq!(
                    a,
                    other,
                    "{}: directory must not depend on the seed",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn every_directory_loads_into_a_campaign() {
        for w in Workload::ALL {
            let dir = scratch_dir(&format!("test-load-{}", w.name()));
            generate(w, 11, &dir).unwrap();
            let campaign = set_up(w, &dir, 11, &mut Tracer::off()).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            assert_eq!(campaign.cfg.seed, 11);
            assert!(campaign.study.num_machines() >= 2);
            assert_eq!(w.measure().is_some(), w == Workload::ElectionFoldW2);
        }
    }
}
