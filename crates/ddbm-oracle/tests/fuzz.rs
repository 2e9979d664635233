//! Oracle fuzz driver: random algorithm × seed sweeps through the full
//! simulator with the invariant checkers attached.
//!
//! The quick property runs on every `cargo test`; the exhaustive
//! algorithm × seed × fault-plan sweep is `#[ignore]`d and runs in nightly
//! CI (`cargo test -p ddbm-oracle --release -- --ignored`).

use ddbm_config::{Algorithm, Config};
use ddbm_core::TestHooks;
use ddbm_oracle::run_and_check;
use denet::SimDuration;
use proptest::prelude::*;

/// A small contended machine, cheap enough to simulate hundreds of times.
fn fuzz_config(algorithm: Algorithm, seed: u64, commits: u64) -> Config {
    let mut c = Config::paper(algorithm, 4, 4, 0.0);
    c.workload.num_terminals = 16;
    c.workload.mean_pages_per_file = 2;
    c.workload.min_pages_per_file = 1;
    c.workload.max_pages_per_file = 3;
    c.database.pages_per_file = 40;
    c.control.warmup_commits = 0;
    c.control.measure_commits = commits;
    c.control.seed = seed;
    c.control.max_sim_time = SimDuration::from_secs_f64(2_000.0);
    c
}

/// The three fault plans of the sweep: message chaos only, crashes only,
/// and everything at once (the chaos suite's full plan).
fn apply_fault_plan(c: &mut Config, plan: usize) {
    match plan {
        0 => {
            c.faults.msg_drop_prob = 0.01;
            c.faults.msg_delay_prob = 0.02;
            c.faults.msg_delay_max = SimDuration::from_millis(20);
            c.faults.msg_retry = SimDuration::from_millis(50);
            c.faults.cohort_timeout = SimDuration::from_secs_f64(3.0);
        }
        1 => {
            c.faults.crash_rate = 0.05;
            c.faults.recovery = SimDuration::from_secs_f64(1.0);
            c.faults.cohort_timeout = SimDuration::from_secs_f64(3.0);
        }
        _ => {
            c.faults.crash_rate = 0.05;
            c.faults.recovery = SimDuration::from_secs_f64(1.0);
            c.faults.msg_drop_prob = 0.01;
            c.faults.msg_delay_prob = 0.02;
            c.faults.msg_delay_max = SimDuration::from_millis(20);
            c.faults.msg_retry = SimDuration::from_millis(50);
            c.faults.disk_stall_rate = 0.01;
            c.faults.disk_stall = SimDuration::from_millis(200);
            c.faults.cohort_timeout = SimDuration::from_secs_f64(3.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any algorithm, any seed: a fault-free contended run must pass every
    /// invariant checker.
    #[test]
    fn random_contended_runs_pass_the_oracle(
        alg_idx in 0usize..Algorithm::EXTENDED.len(),
        seed in 1u64..100_000,
    ) {
        let algorithm = Algorithm::EXTENDED[alg_idx];
        let config = fuzz_config(algorithm, seed, 60);
        let (_, report) =
            run_and_check(config, None, TestHooks::default()).expect("valid config");
        prop_assert!(
            report.clean(),
            "{} seed {}: {}", algorithm, seed, report.render()
        );
    }
}

/// The exhaustive sweep: every algorithm × four seeds × three fault plans.
/// Fault injection exercises the crash/retransmit tolerances of the
/// checkers; any violation here is either a simulator protocol bug or an
/// oracle false positive — both are report-worthy.
#[test]
#[ignore = "heavy: full algorithm × seed × fault-plan sweep (nightly CI)"]
fn oracle_fault_sweep() {
    for algorithm in Algorithm::EXTENDED {
        for seed in [3, 17, 1009, 65_537] {
            for plan in 0..3 {
                let mut config = fuzz_config(algorithm, seed, 120);
                apply_fault_plan(&mut config, plan);
                let (_, report) =
                    run_and_check(config, None, TestHooks::default()).expect("valid config");
                assert!(
                    report.clean(),
                    "{algorithm} seed {seed} plan {plan}: {}",
                    report.render()
                );
            }
        }
    }
}

/// The replica-write defect detector stays sharp under every algorithm and
/// both replica controls: a dropped replica write (the last copy of every
/// write set left stale) must surface as an under-replicated-write
/// violation whether the control is ROWA or majority quorums.
#[test]
#[ignore = "heavy: injected replica-defect sweep (nightly CI)"]
fn skipped_replica_write_is_caught_under_every_algorithm() {
    use ddbm_oracle::ViolationKind;
    for algorithm in Algorithm::ALL {
        for quorum in [false, true] {
            let mut config = fuzz_config(algorithm, 7, 60);
            config.replication = if quorum {
                ddbm_config::ReplicationParams::quorum(3, 2, 2)
            } else {
                ddbm_config::ReplicationParams::rowa(3)
            };
            let hooks = TestHooks {
                skip_replica_write: true,
                ..TestHooks::default()
            };
            let label = if quorum { "quorum" } else { "rowa" };
            let (_, report) = run_and_check(config, None, hooks).expect("valid config");
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| v.kind == ViolationKind::UnderReplicatedWrite),
                "{algorithm} {label}: the stale replica went unnoticed: {}",
                report.render()
            );
        }
    }
}

/// The injected-defect detector stays sharp under every locking algorithm:
/// early lock release must be caught no matter the variant.
#[test]
#[ignore = "heavy: injected-defect sweep (nightly CI)"]
fn early_release_is_caught_under_every_locking_variant() {
    for algorithm in [
        Algorithm::TwoPhaseLocking,
        Algorithm::TwoPhaseLockingTimeout,
        Algorithm::WoundWait,
        Algorithm::WaitDie,
    ] {
        let config = fuzz_config(algorithm, 7, 60);
        let hooks = TestHooks {
            early_lock_release: true,
            ..TestHooks::default()
        };
        let (_, report) = run_and_check(config, None, hooks).expect("valid config");
        assert!(
            !report.clean(),
            "{algorithm}: early lock release went unnoticed"
        );
    }
}

/// The gate's algorithms that order conflicts (the four paper algorithms
/// and wait-die; NO_DC's histories are not serializable to begin with).
const ORDERING_GRID: [Algorithm; 5] = [
    Algorithm::TwoPhaseLocking,
    Algorithm::BasicTimestampOrdering,
    Algorithm::WoundWait,
    Algorithm::WaitDie,
    Algorithm::Optimistic,
];

/// The `repro verify` gate cell: 4 nodes, 16 terminals, a hot
/// 30-page-per-file database, zero think time, 150 commits.
fn gate_cell(algorithm: Algorithm, seed: u64) -> Config {
    let mut c = Config::paper(algorithm, 4, 4, 0.0);
    c.workload.num_terminals = 16;
    c.workload.mean_pages_per_file = 2;
    c.workload.min_pages_per_file = 1;
    c.workload.max_pages_per_file = 3;
    c.database.pages_per_file = 30;
    c.control.warmup_commits = 0;
    c.control.measure_commits = 150;
    c.control.seed = seed;
    c.control.max_sim_time = SimDuration::from_secs_f64(500.0);
    c
}

/// Under message faults the replica checker is off, so the serialization
/// graph alone must catch a skipped replica write: the stale copy's reads
/// close a cycle under every algorithm that orders conflicts, with ROWA and
/// with majority quorums. Delayed messages hold runs unfinished for longer,
/// so the graph's retirement runs with a wide window here.
#[test]
fn serialization_graph_catches_skipped_replica_writes_under_message_faults() {
    use ddbm_oracle::ViolationKind;
    let hooks = TestHooks {
        skip_replica_write: true,
        ..TestHooks::default()
    };
    for algorithm in ORDERING_GRID {
        for quorum in [false, true] {
            for seed in [7, 99] {
                let mut config = gate_cell(algorithm, seed);
                apply_fault_plan(&mut config, 0);
                config.replication = if quorum {
                    ddbm_config::ReplicationParams::quorum(3, 2, 2)
                } else {
                    ddbm_config::ReplicationParams::rowa(3)
                };
                let label = if quorum { "quorum" } else { "rowa" };
                let (_, report) = run_and_check(config, None, hooks).expect("valid config");
                assert!(
                    report
                        .violations
                        .iter()
                        .any(|v| v.kind == ViolationKind::NotSerializable),
                    "{algorithm} {label} seed {seed}: the stale replica went unnoticed: {}",
                    report.render()
                );
            }
        }
    }
}
