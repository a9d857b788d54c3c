//! Network-fault robustness property: *any* sequence of fault-plane
//! actions — partitions (including degenerate and invalid groupings),
//! heals, probabilistic link faults, gray nodes, unknown hosts — must
//! yield a typed [`ExperimentEnd`], never a stall or a panic. A
//! partition that is never healed is the hard case: nodes cut off from
//! the central daemon can't report, so termination leans on the
//! central daemon's timeout tearing the fault plane down. Every run is
//! also replayed to pin that arbitrary actions stay deterministic.

use loki::apps::kvstore::{kv_factory, KvConfig, CASCADE_HEAL, CASCADE_NETSPLIT};
use loki::core::campaign::ExperimentEnd;
use loki::core::probe::{ActionProbe, FaultAction};
use loki::core::study::Study;
use loki::runtime::harness::{run_experiment, SimHarnessConfig};
use proptest::prelude::*;

/// Maps a small index onto the three real hosts plus one deliberately
/// unknown name, so strategies routinely exercise the plane's rejection
/// path (unknown hosts fail the application, they must not wedge it).
fn host_name(idx: u8) -> String {
    match idx % 4 {
        0 => "host1",
        1 => "host2",
        2 => "host3",
        _ => "host9",
    }
    .to_owned()
}

/// A fixed menu of partition groupings: each single-host isolation, full
/// three-way split, the degenerate everyone-together grouping, and one
/// grouping naming an unknown host (rejected by the plane).
fn partition_groups(idx: u8) -> Vec<Vec<String>> {
    let g = |names: &[&str]| names.iter().map(|n| (*n).to_owned()).collect::<Vec<_>>();
    match idx % 6 {
        0 => vec![g(&["host1"]), g(&["host2", "host3"])],
        1 => vec![g(&["host2"]), g(&["host1", "host3"])],
        2 => vec![g(&["host3"]), g(&["host1", "host2"])],
        3 => vec![g(&["host1"]), g(&["host2"]), g(&["host3"])],
        4 => vec![g(&["host1", "host2", "host3"])],
        _ => vec![g(&["host1"]), g(&["host9"])],
    }
}

/// Generates one arbitrary fault-plane action, valid or not.
fn action_strategy() -> impl Strategy<Value = FaultAction> {
    prop_oneof![
        (any::<u8>()).prop_map(|g| FaultAction::Partition {
            groups: partition_groups(g),
        }),
        Just(FaultAction::Heal),
        (
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            any::<u8>()
        )
            .prop_map(|(drop, dup, corrupt, from, to)| FaultAction::LinkFault {
                from: host_name(from),
                to: host_name(to),
                drop_prob: f64::from(drop) / 255.0,
                dup_prob: f64::from(dup) / 255.0,
                reorder_ns: u64::from(drop) * 10_000,
                corrupt_prob: f64::from(corrupt) / 255.0,
                extra_latency_ns: u64::from(corrupt) * 5_000,
            }),
        (any::<u8>(), any::<u8>()).prop_map(|(host, slow)| FaultAction::GrayNode {
            host: host_name(host),
            slowdown: 1.0 + f64::from(slow) / 16.0,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn random_net_fault_sequences_never_stall(
        netsplit_action in action_strategy(),
        heal_action in action_strategy(),
        seed in any::<u64>(),
    ) {
        use loki::apps::kvstore::cascade_study;

        // The cascade study's two state-triggered fault slots, rebound to
        // arbitrary actions: `netsplit` fires as soon as kv1 is PRIMARY,
        // `heal_net` only if a successor ever promotes — so the second
        // action may never fire at all, which is part of the property.
        let def = cascade_study("netfault-prop");
        let study = Study::compile_arc(&def).expect("valid study");
        let probe = ActionProbe::new()
            .on(CASCADE_NETSPLIT, netsplit_action)
            .on(CASCADE_HEAL, heal_action);
        let app_cfg = KvConfig {
            probe,
            ..KvConfig::default()
        };
        let factory = kv_factory(app_cfg);
        let cfg = SimHarnessConfig::three_hosts(seed);

        let data = run_experiment(&study, factory.clone(), &cfg, 0).expect("valid config");
        prop_assert!(matches!(
            data.end,
            ExperimentEnd::Completed | ExperimentEnd::TimedOut | ExperimentEnd::Aborted
        ));
        prop_assert!(
            !matches!(data.end, ExperimentEnd::Failed(_)),
            "fault-plane runs must never trip containment"
        );

        // Arbitrary fault-plane states must replay byte-identically.
        let replay = run_experiment(&study, factory, &cfg, 0).expect("valid config");
        prop_assert_eq!(data, replay);
    }
}
