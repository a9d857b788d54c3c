use super::config::{resolve_batch, resolve_workers};
use super::*;
use loki_clock::sync::{estimate_alpha_beta, SyncOptions};
use loki_core::spec::{StateMachineSpec, StudyDef};

fn workers(workers: Option<usize>, experiments: u32) -> Result<usize, CampaignError> {
    resolve_workers(
        &SimHarnessConfig {
            workers,
            ..Default::default()
        },
        experiments,
    )
}

fn batch(batch: Option<usize>) -> Result<usize, CampaignError> {
    resolve_batch(&SimHarnessConfig {
        batch,
        ..Default::default()
    })
}

#[test]
fn worker_count_prefers_explicit_config() {
    assert_eq!(workers(Some(3), 100), Ok(3));
    // Clamped to the experiment count.
    assert_eq!(workers(Some(64), 4), Ok(4));
    assert_eq!(workers(Some(2), 0), Ok(1));
}

#[test]
fn worker_count_rejects_zero_config() {
    let err = workers(Some(0), 8).unwrap_err();
    assert!(matches!(err, CampaignError::Workers(_)), "{err:?}");
    assert!(err.to_string().contains("at least 1"), "{err}");
}

#[test]
fn worker_count_defaults_to_available_parallelism() {
    assert!(workers(None, 1_000_000).unwrap() >= 1);
}

#[test]
fn batch_size_prefers_explicit_config() {
    assert_eq!(batch(Some(4)), Ok(4));
    assert_eq!(batch(Some(1)), Ok(1));
    assert_eq!(batch(None), Ok(1));
}

#[test]
fn batch_size_rejects_zero_config() {
    let err = batch(Some(0)).unwrap_err();
    assert!(matches!(err, CampaignError::Batch(_)), "{err:?}");
    assert!(
        err.to_string().contains("batch size must be at least 1"),
        "{err}"
    );
}

#[test]
fn a_config_without_hosts_has_no_reference_host() {
    assert_eq!(SimHarnessConfig::default().reference_host(), None);
    assert_eq!(
        SimHarnessConfig::three_hosts(0).reference_host(),
        Some("host1")
    );
}

/// Plays one sync mini-phase of `cfg`'s hosts into `runs`, on a fresh
/// world of a study whose one machine never starts.
fn play_sync(cfg: &SimHarnessConfig, runs: &mut Vec<HostSync>) {
    let def = StudyDef::new("sync").machine(StateMachineSpec::builder("m").states(&["UP"]).build());
    let study = Study::compile_arc(&def).unwrap();
    let factory: AppFactory =
        Arc::new(|_: &Study, _| -> Box<dyn crate::node::App> { unreachable!("no node starts") });
    let sim_study = SimStudy::new(&study, &factory, cfg).unwrap();
    let mut sim = Simulation::closed(sim_study.world.clone(), cfg.seed);
    sim_study.sync_phase(&mut sim, runs);
}

/// A mini-phase files two samples a round, host → reference first, per
/// calibrated host in host-id order, and the bounds they give contain
/// the true clock relation.
#[test]
fn exchange_rounds_yield_sound_bounds() {
    let cfg = SimHarnessConfig {
        sync_rounds: 15,
        ..SimHarnessConfig::three_hosts(11)
    };
    let mut runs = Vec::new();
    play_sync(&cfg, &mut runs);
    let hosts: Vec<u32> = runs.iter().map(|run| run.host.raw()).collect();
    assert_eq!(hosts, [1, 2], "host1 is the reference");
    for run in &runs {
        assert_eq!(run.samples.len(), 30); // two per round
        let legs = run.samples.iter().map(|sample| sample.from_reference);
        assert!(legs.eq([false, true].into_iter().cycle().take(30)));
        let bounds = estimate_alpha_beta(&run.samples, &SyncOptions::default()).unwrap();
        let clock = &cfg.hosts[run.host.raw() as usize].clock;
        let (alpha, beta) = clock.relative_to(&cfg.hosts[0].clock);
        assert!(
            bounds.contains(alpha, beta),
            "{bounds:?} vs ({alpha},{beta})"
        );
    }
}

/// A phase on the runs a finished experiment handed back refills the
/// same buffers, and a phase in which no host gets a round files no
/// run at all, whatever it was handed.
#[test]
fn sync_runs_are_recycled_and_empty_hosts_skipped() {
    let mut cfg = SimHarnessConfig::three_hosts(3);
    let mut runs = Vec::new();
    play_sync(&cfg, &mut runs);
    let buffers: Vec<_> = runs.iter().map(|run| run.samples.as_ptr()).collect();
    play_sync(&cfg, &mut runs);
    let refilled = runs.iter().map(|run| run.samples.as_ptr());
    assert!(refilled.eq(buffers), "runs not reused");
    assert!(runs.iter().all(|run| run.samples.len() == 40));

    cfg.sync_rounds = 0;
    play_sync(&cfg, &mut runs);
    assert!(runs.is_empty(), "{runs:?}");
}
