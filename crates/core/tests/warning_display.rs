//! Golden rendering of every runtime warning: `Warning::display` resolves
//! ids through the study and must print exactly the lines the runtime
//! reports.

use loki_core::campaign::{ExperimentFailure, Receiver, Warning};
use loki_core::fault::{FaultExpr, Trigger};
use loki_core::spec::{StateMachineSpec, StudyDef};
use loki_core::study::Study;

fn ring() -> Study {
    let machine = |name: &str| {
        StateMachineSpec::builder(name)
            .states(&["IDLE", "HAS_TOKEN"])
            .events(&["PASS"])
            .state("IDLE", &[], &[("PASS", "HAS_TOKEN")])
            .build()
    };
    let def = StudyDef::new("golden")
        .machine(machine("tr1"))
        .machine(machine("tr2"))
        .fault(
            "tr2",
            "kill_holder",
            FaultExpr::atom("tr2", "HAS_TOKEN"),
            Trigger::Once,
        );
    Study::compile(&def).unwrap()
}

#[test]
fn every_warning_renders_its_runtime_line() {
    let study = ring();
    let tr1 = study.sm_id("tr1").unwrap();
    let tr2 = study.sm_id("tr2").unwrap();
    let message = "StartNode { sm: #1, host: 0 }".to_owned();
    let golden = [
        (
            Warning::DroppedNotification { from: tr1, to: tr2 },
            "notification from tr1 to non-executing machine tr2 discarded",
        ),
        (
            Warning::UnmappedFault {
                fault: study.fault_names.lookup("kill_holder").unwrap(),
            },
            "fault `kill_holder` is not mapped by the application's probe table",
        ),
        (
            Warning::NetFaultRejected {
                reason: "unknown host `host9`".to_owned(),
            },
            "network fault action rejected: unknown host `host9`",
        ),
        (
            Warning::AppPanic {
                sm: tr2,
                note: "boom".to_owned(),
            },
            "application panic in machine tr2: boom",
        ),
        (
            Warning::BudgetTrip {
                failure: ExperimentFailure::BudgetEvents,
                events: 2_000,
                at_ns: 123_456,
            },
            "event-count budget exceeded after 2000 events at virtual time 123456 ns",
        ),
        (
            Warning::HarnessPanic {
                note: "boom".to_owned(),
            },
            "harness error: boom",
        ),
        (
            Warning::UnexpectedMessage {
                receiver: Receiver::LocalDaemon,
                message: message.clone(),
            },
            "local daemon received unexpected StartNode { sm: #1, host: 0 }",
        ),
        (
            Warning::UnexpectedMessage {
                receiver: Receiver::CentralDaemon,
                message: message.clone(),
            },
            "central daemon received unexpected StartNode { sm: #1, host: 0 }",
        ),
        (
            Warning::UnexpectedMessage {
                receiver: Receiver::Node,
                message,
            },
            "node received unexpected message StartNode { sm: #1, host: 0 }",
        ),
    ];
    for (warning, line) in golden {
        assert_eq!(warning.display(&study).to_string(), line, "{warning:?}");
    }
}
