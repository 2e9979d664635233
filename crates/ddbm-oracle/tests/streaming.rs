//! The online oracle agrees with the recorded one.
//!
//! `run_and_check` feeds an `Oracle` each witness event as the simulator
//! emits it and never stores the stream; `check_recording(run_oracle(..))`
//! records the stream first and replays it. Both must reach the same
//! verdict event for event: the same violations (rendered string for
//! string), the same total, the same view-serializability outcome and the
//! same event count — and the simulation itself must not notice which sink
//! it feeds.
//!
//! The quick case covers the 18 cells of the `repro verify` gate at one
//! seed plus both injected defects; the `#[ignore]`d sweep repeats it at
//! 1000 commits over three seeds (nightly CI), and its OPT rows under the
//! defects also run on their own, in the debug profile.

use ddbm_config::{Algorithm, Config, ReplicationParams};
use ddbm_core::{run_oracle, TestHooks};
use ddbm_oracle::{check_recording, run_and_check, OracleReport};
use denet::SimDuration;

/// The gate's algorithms (the four paper algorithms, wait-die and NO_DC).
const GRID: [Algorithm; 6] = [
    Algorithm::TwoPhaseLocking,
    Algorithm::BasicTimestampOrdering,
    Algorithm::WoundWait,
    Algorithm::WaitDie,
    Algorithm::Optimistic,
    Algorithm::NoDataContention,
];

/// The gate's replica controls: single copy, three-way ROWA, and a
/// three-replica majority quorum.
fn replications() -> [ReplicationParams; 3] {
    [
        ReplicationParams::default(),
        ReplicationParams::rowa(3),
        ReplicationParams::quorum(3, 2, 2),
    ]
}

/// A gate cell: 4 nodes, 16 terminals, a hot 30-page-per-file database,
/// zero think time.
fn gate_cell(
    algorithm: Algorithm,
    replication: ReplicationParams,
    seed: u64,
    commits: u64,
) -> Config {
    let mut c = Config::paper(algorithm, 4, 4, 0.0);
    c.workload.num_terminals = 16;
    c.workload.mean_pages_per_file = 2;
    c.workload.min_pages_per_file = 1;
    c.workload.max_pages_per_file = 3;
    c.database.pages_per_file = 30;
    c.control.warmup_commits = 0;
    c.control.measure_commits = commits;
    c.control.seed = seed;
    c.control.max_sim_time = SimDuration::from_secs_f64(500.0);
    c.replication = replication;
    c
}

/// Check `config` + `hooks` both ways and assert the reports agree.
fn assert_agree(config: Config, hooks: TestHooks) -> usize {
    let label = format!(
        "{} {:?} seed {} hooks {hooks:?}",
        config.algorithm, config.replication, config.control.seed
    );
    let recorded = run_oracle(config.clone(), None, hooks).expect("valid config");
    assert_eq!(
        recorded.witness_overflow, 0,
        "{label}: recorded stream overflowed"
    );
    let want = check_recording(&config, &recorded);
    let (online, got) = run_and_check(config, None, hooks).expect("valid config");

    assert!(
        online.witness.is_empty(),
        "{label}: run_and_check stored the stream"
    );
    assert_eq!(online.witness_overflow, 0, "{label}");
    assert_eq!(
        online.report, recorded.report,
        "{label}: the sink perturbed the run"
    );
    let rendered =
        |r: &OracleReport| -> Vec<String> { r.violations.iter().map(|v| v.to_string()).collect() };
    assert_eq!(rendered(&got), rendered(&want), "{label}: violations");
    assert_eq!(got.total_violations, want.total_violations, "{label}");
    assert_eq!(got.vsr, want.vsr, "{label}: view-serializability verdict");
    assert_eq!(got.events, want.events, "{label}: events");
    assert_eq!(got.events, recorded.witness.len(), "{label}");
    got.total_violations
}

#[test]
fn online_oracle_matches_the_recorded_stream() {
    for replication in replications() {
        for algorithm in GRID {
            let violations = assert_agree(
                gate_cell(algorithm, replication, 7, 150),
                TestHooks::default(),
            );
            assert_eq!(
                violations, 0,
                "{algorithm} {replication:?}: gate cell unclean"
            );
        }
    }
    // The two injected defects: the verdicts must agree on unclean runs too.
    let early = TestHooks {
        early_lock_release: true,
        ..TestHooks::default()
    };
    let cell = gate_cell(
        Algorithm::TwoPhaseLocking,
        ReplicationParams::default(),
        7,
        150,
    );
    assert!(
        assert_agree(cell, early) > 0,
        "early lock release went unnoticed"
    );
    let skip = TestHooks {
        skip_replica_write: true,
        ..TestHooks::default()
    };
    let cell = gate_cell(
        Algorithm::TwoPhaseLocking,
        ReplicationParams::rowa(3),
        7,
        150,
    );
    assert!(
        assert_agree(cell, skip) > 0,
        "the stale replica went unnoticed"
    );
}

#[test]
#[ignore = "heavy: 18 gate cells x 3 seeds x 3 hook settings at 1000 commits (nightly CI)"]
fn online_oracle_matches_the_recorded_stream_at_1000_commits() {
    let early = TestHooks {
        early_lock_release: true,
        ..TestHooks::default()
    };
    let skip = TestHooks {
        skip_replica_write: true,
        ..TestHooks::default()
    };
    for seed in [7, 99, 1009] {
        for replication in replications() {
            for algorithm in GRID {
                for hooks in [TestHooks::default(), early, skip] {
                    assert_agree(gate_cell(algorithm, replication, seed, 1_000), hooks);
                }
            }
        }
    }
}

/// The OPT rows of the hook set (OPT × three replica controls × three
/// seeds × both defects, 1000 commits), quick enough for the debug profile,
/// where CI runs it too: OPT's managers and the checkers keep their debug
/// assertions there, which an early release that committed an uncertified
/// OPT cohort used to trip.
#[test]
fn opt_rows_of_the_hook_set_run_with_debug_assertions() {
    let early = TestHooks {
        early_lock_release: true,
        ..TestHooks::default()
    };
    let skip = TestHooks {
        skip_replica_write: true,
        ..TestHooks::default()
    };
    for seed in [7, 99, 1009] {
        for replication in replications() {
            for hooks in [early, skip] {
                assert_agree(
                    gate_cell(Algorithm::Optimistic, replication, seed, 1_000),
                    hooks,
                );
            }
        }
    }
}
