//! End-to-end serializability oracle: run every algorithm under heavy
//! contention and replay the witness stream through the full oracle — one
//! serialization graph under each algorithm's version order, plus every
//! protocol invariant checker. A
//! single misplaced lock release, lost wakeup, or stale-event bug anywhere
//! in the simulator shows up here.

use ddbm_config::{Algorithm, Config};
use ddbm_core::{run_oracle, TestHooks, WitnessEvent, WitnessReply, WitnessStream};
use ddbm_oracle::{check_recording, VersionOrder, VsrCollector};

/// Every algorithm with a correctness guarantee (NO_DC has none).
const CHECKED: [Algorithm; 6] = [
    Algorithm::TwoPhaseLocking,
    Algorithm::TwoPhaseLockingTimeout,
    Algorithm::BasicTimestampOrdering,
    Algorithm::WoundWait,
    Algorithm::WaitDie,
    Algorithm::Optimistic,
];

fn contended(algorithm: Algorithm) -> Config {
    let mut c = Config::paper(algorithm, 8, 8, 0.0);
    c.workload.num_terminals = 32;
    c.workload.mean_pages_per_file = 2;
    c.workload.min_pages_per_file = 1;
    c.workload.max_pages_per_file = 3;
    c.database.pages_per_file = 25; // very hot pages
    c.control.warmup_commits = 0; // check the history from the first commit
    c.control.measure_commits = 400;
    c
}

/// Granted reads and installs: the operations the serialization graph
/// orders.
fn operations(stream: &WitnessStream) -> usize {
    stream
        .iter()
        .filter(|(_, ev)| {
            matches!(
                ev,
                WitnessEvent::Access {
                    write: false,
                    reply: WitnessReply::Granted,
                    ..
                } | WitnessEvent::Grant { write: false, .. }
                    | WitnessEvent::Install { .. }
            )
        })
        .count()
}

/// Run `config`, assert the oracle finds nothing, and return how many
/// operations it checked. The stream is recorded, not checked online, so
/// the operations can be counted from it.
fn assert_clean(config: Config) -> usize {
    let algorithm = config.algorithm;
    let recording = run_oracle(config.clone(), None, TestHooks::default()).expect("valid");
    let report = check_recording(&config, &recording);
    assert_eq!(recording.report.commits, 400, "{algorithm}");
    assert_eq!(report.witness_overflow, 0, "{algorithm}");
    assert!(
        report.clean(),
        "{algorithm}: oracle violations:\n{}",
        report.render()
    );
    operations(&recording.witness)
}

#[test]
fn contended_histories_pass_the_oracle() {
    for algorithm in CHECKED {
        let ops = assert_clean(contended(algorithm));
        assert!(
            ops > 1_000,
            "{algorithm}: too few operations witnessed ({ops})"
        );
    }
}

#[test]
fn one_way_partitioning_passes_the_oracle_too() {
    // Sequential single-cohort transactions stress the local lock paths.
    for algorithm in CHECKED {
        let mut c = contended(algorithm);
        c.database.declustering_degree = 1;
        assert_clean(c);
    }
}

#[test]
fn sequential_execution_passes_the_oracle() {
    let mut c = contended(Algorithm::WoundWait);
    c.workload.exec_pattern = ddbm_config::ExecPattern::Sequential;
    assert_clean(c);
}

#[test]
fn nodc_baseline_is_knowingly_unserializable_under_conflict() {
    // Sanity check that the serialization graph has teeth: NO_DC ignores
    // all conflicts, so a contended run must produce a cycle.
    let recording = run_oracle(
        contended(Algorithm::NoDataContention),
        None,
        TestHooks::default(),
    )
    .expect("valid");
    assert_eq!(recording.report.commits, 400);
    let mut checker = VsrCollector::new(VersionOrder::StreamOrder);
    for (_, ev) in &recording.witness {
        checker.observe(ev);
    }
    let verdict = checker.finalize(0);
    assert!(
        !verdict.acceptable(),
        "NO_DC under heavy conflict should not be serializable: {verdict:?}"
    );
}
