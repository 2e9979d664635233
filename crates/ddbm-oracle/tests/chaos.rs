//! Chaos suite: run the machine under deterministic fault injection (node
//! crashes, message drops/delays, disk stalls) and assert the three
//! properties that must survive every fault schedule:
//!
//! 1. **Correctness** — the witness stream passes the full oracle: every
//!    protocol invariant checker, conflict serializability for the
//!    strict-locking family, view serializability for the rest, no matter
//!    which nodes die when.
//! 2. **Liveness** — no transaction is stuck forever: with admissions shut
//!    off after the commit target, the system drains completely.
//! 3. **Determinism** — a fixed (seed, fault plan) pair reproduces the run
//!    bit-for-bit, including every fault counter.
//!
//! The quick cases below run in tier 1; the exhaustive sweeps (every paper
//! algorithm × 32 fault schedules) are `#[ignore]`d and run on a schedule.

use ddbm_config::{Algorithm, Config};
use ddbm_core::{run_witnessed, RunReport, TestHooks};
use ddbm_oracle::{check_options_for, Oracle, OracleReport};
use denet::SimDuration;
use proptest::prelude::*;

/// A small machine with every fault class enabled. `crash_rate` is per node
/// per simulated second; a 200-commit run lasts ~20 simulated seconds, so
/// rates of 0.1 and up put several crashes inside every run, and the 2000 s
/// horizon leaves plenty of room to drain.
fn chaotic(algorithm: Algorithm, seed: u64, crash_rate: f64) -> Config {
    let mut c = Config::paper(algorithm, 4, 4, 0.5);
    c.workload.num_terminals = 16;
    c.workload.mean_pages_per_file = 2;
    c.workload.min_pages_per_file = 1;
    c.workload.max_pages_per_file = 3;
    c.database.pages_per_file = 50;
    c.control.warmup_commits = 10;
    c.control.measure_commits = 200;
    c.control.seed = seed;
    c.control.max_sim_time = SimDuration::from_secs_f64(2_000.0);
    c.faults.crash_rate = crash_rate;
    c.faults.recovery = SimDuration::from_secs_f64(1.0);
    c.faults.msg_drop_prob = 0.01;
    c.faults.msg_delay_prob = 0.02;
    c.faults.msg_delay_max = SimDuration::from_millis(20);
    c.faults.msg_retry = SimDuration::from_millis(50);
    c.faults.disk_stall_rate = 0.01;
    c.faults.disk_stall = SimDuration::from_millis(200);
    c.faults.cohort_timeout = SimDuration::from_secs_f64(3.0);
    c
}

/// Run `config` to its commit target, then drain it (admissions off until
/// every in-flight transaction commits), with the oracle checking the
/// witness stream online.
fn run_chaos(config: &Config) -> (RunReport, OracleReport) {
    let oracle = Oracle::new(&check_options_for(config));
    let (recording, oracle) =
        run_witnessed(config.clone(), None, TestHooks::default(), true, oracle)
            .expect("valid config");
    (recording.report, oracle.finish())
}

/// Run one chaotic configuration and assert every schedule-independent
/// invariant. Returns the report for test-specific follow-up assertions.
fn assert_invariants(config: Config) -> RunReport {
    let algorithm = config.algorithm;
    let (report, oracle) = run_chaos(&config);
    assert!(
        !report.truncated,
        "{algorithm}: hit the simulated-time wall (livelock?)"
    );
    assert!(
        report.drained,
        "{algorithm}: transactions stuck forever after admissions stopped"
    );
    assert_eq!(
        report.aborts_by_cause.total(),
        report.aborts,
        "{algorithm}: abort causes must partition the abort count"
    );
    assert!(
        oracle.clean(),
        "{algorithm}: oracle violations under faults:\n{}",
        oracle.render()
    );
    report
}

// ----------------------------------------------------------------------
// Quick (tier 1) cases
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random (algorithm, seed, crash rate) triples all preserve the
    /// oracle/liveness/accounting invariants.
    #[test]
    fn chaos_invariants_hold(
        algorithm in prop::sample::select(vec![
            Algorithm::TwoPhaseLocking,
            Algorithm::TwoPhaseLockingTimeout,
            Algorithm::BasicTimestampOrdering,
            Algorithm::WoundWait,
            Algorithm::WaitDie,
            Algorithm::Optimistic,
        ]),
        seed in any::<u64>(),
        crash_rate in prop::sample::select(vec![0.02f64, 0.1, 0.3]),
    ) {
        assert_invariants(chaotic(algorithm, seed, crash_rate));
    }
}

/// Fixed seed + fault plan → bit-identical reports, fault counters included.
#[test]
fn chaos_runs_are_bit_deterministic() {
    let config = chaotic(Algorithm::TwoPhaseLocking, 0xc4a05, 0.1);
    let (a, _) = run_chaos(&config);
    let (b, _) = run_chaos(&config);
    assert_eq!(a, b, "same seed and fault plan must replay bit-identically");
    assert!(
        a.fault_stats.crashes > 0,
        "the schedule must contain crashes"
    );
}

/// A crash landing while cohorts are inside the commit protocol (vote or
/// decision phase) is detected, survives, and shows up in the fault and
/// abort-cause counters.
#[test]
fn crash_mid_commit_is_detected_and_survived() {
    // High crash rate + short think time = maximum in-flight commit
    // traffic, so crash windows land on mid-commit transactions reliably.
    let mut config = chaotic(Algorithm::TwoPhaseLocking, 7, 0.1);
    config.workload.think_time_secs = 0.2;
    config.control.measure_commits = 300;
    let report = assert_invariants(config);
    assert!(
        report.fault_stats.mid_commit_crashes > 0,
        "no crash landed mid-commit: {:?}",
        report.fault_stats
    );
    assert!(
        report.fault_stats.recoveries > 0,
        "crashed nodes must come back: {:?}",
        report.fault_stats
    );
    assert!(
        report.aborts_by_cause.node_crash > 0,
        "crashes must abort in-flight transactions: {:?}",
        report.aborts_by_cause
    );
}

/// A `FaultParams` with every rate at zero must take the exact fault-free
/// code path: bit-identical to the default configuration, no fault draws,
/// all fault counters zero.
#[test]
fn zero_fault_plan_is_identical_to_fault_free() {
    let mut with_zeros = chaotic(Algorithm::WoundWait, 11, 0.0);
    with_zeros.faults.msg_drop_prob = 0.0;
    with_zeros.faults.msg_delay_prob = 0.0;
    with_zeros.faults.disk_stall_rate = 0.0;
    let mut default_faults = with_zeros.clone();
    default_faults.faults = ddbm_config::FaultParams::default();
    let (a, _) = run_chaos(&with_zeros);
    let (b, _) = run_chaos(&default_faults);
    assert_eq!(a, b, "zeroed fault rates must not perturb the simulation");
    assert_eq!(a.fault_stats, ddbm_core::FaultStats::default());
    assert_eq!(a.aborts_by_cause.fault_induced(), 0);
}

// ----------------------------------------------------------------------
// Heavy (scheduled) sweeps — `cargo test -- --ignored`
// ----------------------------------------------------------------------

/// Every paper algorithm × 32 seeded fault schedules. Each schedule is
/// different (the plan derives from the seed) and several inevitably kill
/// nodes mid-commit; the invariants must hold for all of them.
#[test]
#[ignore = "heavy: 5 algorithms x 32 fault schedules; run via the scheduled chaos job"]
fn all_algorithms_survive_32_fault_schedules() {
    let mut mid_commit_kills = 0u64;
    for algorithm in Algorithm::ALL {
        for seed in 0..32u64 {
            let report = assert_invariants(chaotic(algorithm, seed, 0.05));
            mid_commit_kills += report.fault_stats.mid_commit_crashes;
        }
    }
    assert!(
        mid_commit_kills > 0,
        "across 160 schedules at least one crash must land mid-commit"
    );
}

/// The locking family under a crash storm — every node crashing roughly
/// every seven simulated seconds — still passes the oracle and drains. (Much beyond this rate the machine spends most of its time with
/// some partition offline and throughput collapses: runs stop terminating
/// inside the horizon not because of livelock but because commits stop.)
#[test]
#[ignore = "heavy: crash-storm sweep; run via the scheduled chaos job"]
fn locking_family_survives_crash_storms() {
    for algorithm in [
        Algorithm::TwoPhaseLocking,
        Algorithm::TwoPhaseLockingTimeout,
        Algorithm::WoundWait,
        Algorithm::WaitDie,
    ] {
        for seed in 100..116u64 {
            let mut config = chaotic(algorithm, seed, 0.15);
            config.faults.recovery = SimDuration::from_secs_f64(2.0);
            assert_invariants(config);
        }
    }
}
