//! The benchmark's checks have teeth: a run against a perturbed
//! reference must report failed operations, and the same run against the
//! true reference must report none.

use loombench::{run, Params, WORKLOADS};

fn failed(workload: &str, perturb: bool) -> (u64, u64, bool) {
    let params = Params {
        perturb,
        ..Params::tiny(7)
    };
    let mut report = run(workload, &params).expect("known workload");
    let line = report.result_line(false);
    for msg in &report.tally.messages {
        eprintln!("{workload}: {msg}");
    }
    let correct = line.starts_with("{\"correct\": true");
    (report.tally.attempted, report.tally.failed, correct)
}

#[test]
fn every_workload_passes_against_the_true_reference() {
    for workload in WORKLOADS {
        let (attempted, failed, correct) = failed(workload, false);
        assert!(attempted > 0, "{workload} attempted nothing");
        assert_eq!(failed, 0, "{workload} failed against the true reference");
        assert!(correct, "{workload} reported incorrect");
    }
}

#[test]
fn a_perturbed_reference_is_reported_as_failed() {
    for workload in WORKLOADS {
        let (_, failed, correct) = failed(workload, true);
        assert!(
            failed > 0,
            "{workload} did not notice a perturbed reference"
        );
        assert!(
            !correct,
            "{workload} reported correct against a perturbed reference"
        );
    }
}
