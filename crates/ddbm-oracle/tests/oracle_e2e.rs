//! End-to-end oracle tests against the real simulator: every algorithm's
//! witness stream must pass its invariant checkers on contended runs, a
//! deliberately broken lock release must be caught, shrunk to a handful of
//! operations, and frozen as a deterministically replayable repro file.

use ddbm_config::{Algorithm, Config};
use ddbm_core::{run_oracle, TestHooks};
use ddbm_oracle::{check_recording, shrink_workload, ReproFile, ViolationKind, VsrOutcome};
use denet::SimDuration;

/// The oracle verification grid: the four paper algorithms, the wait-die
/// extension, and the NO_DC baseline.
const GRID: [Algorithm; 6] = [
    Algorithm::TwoPhaseLocking,
    Algorithm::BasicTimestampOrdering,
    Algorithm::WoundWait,
    Algorithm::WaitDie,
    Algorithm::Optimistic,
    Algorithm::NoDataContention,
];

/// A small, heavily contended machine: plenty of blocks, wounds, deaths,
/// and certification failures for the checkers to chew on.
fn contended(algorithm: Algorithm, seed: u64) -> Config {
    let mut c = Config::paper(algorithm, 4, 4, 0.0);
    c.workload.num_terminals = 16;
    c.workload.mean_pages_per_file = 2;
    c.workload.min_pages_per_file = 1;
    c.workload.max_pages_per_file = 3;
    c.database.pages_per_file = 30; // hot pages
    c.control.warmup_commits = 0;
    c.control.measure_commits = 150;
    c.control.seed = seed;
    c.control.max_sim_time = SimDuration::from_secs_f64(500.0);
    c
}

#[test]
fn all_algorithms_pass_the_oracle_on_contended_runs() {
    for algorithm in GRID {
        for seed in [7, 1009] {
            let config = contended(algorithm, seed);
            let rec = run_oracle(config.clone(), None, TestHooks::default()).expect("valid");
            let report = check_recording(&config, &rec);
            assert_eq!(rec.witness_overflow, 0, "{algorithm} seed {seed}");
            assert!(
                report.events > 1_000,
                "{algorithm} seed {seed}: thin stream"
            );
            assert!(
                report.clean(),
                "{algorithm} seed {seed}: {}",
                report.render()
            );
            if algorithm != Algorithm::NoDataContention {
                assert!(
                    report.vsr.acceptable(),
                    "{algorithm} seed {seed}: {:?}",
                    report.vsr
                );
            }
        }
    }
}

#[test]
fn timeout_variant_passes_the_oracle_too() {
    let config = contended(Algorithm::TwoPhaseLockingTimeout, 13);
    let rec = run_oracle(config.clone(), None, TestHooks::default()).expect("valid");
    let report = check_recording(&config, &rec);
    assert!(report.clean(), "2PL-T: {}", report.render());
}

#[test]
fn nodc_vsr_verdict_is_informational_only() {
    // The baseline ignores every conflict: its history is (almost always)
    // not serializable under contention, but that is the point of the
    // baseline, so the report must stay clean while saying so.
    let config = contended(Algorithm::NoDataContention, 42);
    let rec = run_oracle(config.clone(), None, TestHooks::default()).expect("valid");
    let report = check_recording(&config, &rec);
    assert!(report.clean(), "{}", report.render());
    assert!(
        matches!(report.vsr, VsrOutcome::NotSerializable { .. }),
        "NO_DC under heavy conflict should not look serializable: {:?}",
        report.vsr
    );
}

#[test]
fn early_lock_release_is_caught_shrunk_and_replayable() {
    // The acceptance scenario: a deliberately broken lock release (the
    // test-only early_lock_release hook) must be (1) caught by the 2PL
    // strictness checker, (2) shrunk to a repro of at most 8 operations,
    // and (3) written to a repro file that deterministically reproduces.
    let hooks = TestHooks {
        early_lock_release: true,
        ..TestHooks::default()
    };
    let mut config = contended(Algorithm::TwoPhaseLocking, 99);
    config.control.measure_commits = 40;

    // (1) Catch it.
    let rec = run_oracle(config.clone(), None, hooks).expect("valid");
    let report = check_recording(&config, &rec);
    assert!(!report.clean(), "the broken release went unnoticed");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::ReleaseOutsidePhase),
        "wrong violation kind: {}",
        report.render()
    );

    // (2) Shrink it.
    let shrunk = shrink_workload(&config, hooks, rec.templates, 400);
    assert!(!shrunk.report.clean(), "shrinking lost the failure");
    assert!(
        shrunk.operations <= 8,
        "shrunk workload still has {} operations ({} txns, {} trials)",
        shrunk.operations,
        shrunk.templates.len(),
        shrunk.trials
    );

    // (3) Freeze and replay it — twice, to prove determinism. The file
    //     goes through disk so `repro verify --replay` sees the same bytes.
    let repro = ReproFile::new(config, hooks, shrunk.templates, &shrunk.report);
    let json = repro.to_json();
    assert_eq!(
        ReproFile::from_json(&json).expect("round-trips").to_json(),
        json
    );
    let path = std::env::temp_dir().join("ddbm-oracle-e2e.repro.json");
    repro.save(&path).expect("saves");
    let loaded = ReproFile::load(&path).expect("loads");
    assert!(loaded.verify().expect("replays"), "first replay diverged");
    assert!(loaded.verify().expect("replays"), "second replay diverged");
    assert!(!loaded.violations.is_empty());
}

/// The contended grid config with three-way replication.
fn replicated(algorithm: Algorithm, seed: u64, quorum: bool) -> Config {
    let mut c = contended(algorithm, seed);
    c.replication = if quorum {
        ddbm_config::ReplicationParams::quorum(3, 2, 2)
    } else {
        ddbm_config::ReplicationParams::rowa(3)
    };
    c
}

#[test]
fn replicated_runs_pass_the_oracle() {
    // One-copy serializability: with reads and writes fanned out over three
    // replicas, the per-replica CC checkers and the one-copy serialization
    // graph must both stay clean, and every committed write must reach its full
    // write set.
    for (algorithm, quorum) in [
        (Algorithm::TwoPhaseLocking, false),
        (Algorithm::TwoPhaseLocking, true),
        (Algorithm::BasicTimestampOrdering, false),
        (Algorithm::WoundWait, true),
        (Algorithm::Optimistic, false),
    ] {
        let config = replicated(algorithm, 7, quorum);
        let rec = run_oracle(config.clone(), None, TestHooks::default()).expect("valid");
        let report = check_recording(&config, &rec);
        let label = if quorum { "quorum" } else { "rowa" };
        assert_eq!(rec.witness_overflow, 0, "{algorithm} {label}");
        assert!(report.events > 1_000, "{algorithm} {label}: thin stream");
        assert!(report.clean(), "{algorithm} {label}: {}", report.render());
        assert!(
            report.vsr.acceptable(),
            "{algorithm} {label}: {:?}",
            report.vsr
        );
    }
}

#[test]
fn skipped_replica_write_is_caught_shrunk_and_replayable() {
    // The replication acceptance scenario: a deliberately dropped replica
    // write (the skip_replica_write hook leaves the last replica of every
    // write set stale) must be (1) caught by the one-copy write-set
    // checker, (2) shrunk to at most 8 operations, and (3) frozen as a
    // repro file that deterministically replays.
    let hooks = TestHooks {
        skip_replica_write: true,
        ..TestHooks::default()
    };
    let mut config = replicated(Algorithm::TwoPhaseLocking, 99, false);
    config.control.measure_commits = 40;

    // (1) Catch it.
    let rec = run_oracle(config.clone(), None, hooks).expect("valid");
    let report = check_recording(&config, &rec);
    assert!(!report.clean(), "the stale replica went unnoticed");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::UnderReplicatedWrite),
        "wrong violation kind: {}",
        report.render()
    );

    // (2) Shrink it.
    let shrunk = shrink_workload(&config, hooks, rec.templates, 400);
    assert!(!shrunk.report.clean(), "shrinking lost the failure");
    assert!(
        shrunk.operations <= 8,
        "shrunk workload still has {} operations ({} txns, {} trials)",
        shrunk.operations,
        shrunk.templates.len(),
        shrunk.trials
    );

    // (3) Freeze and replay it — twice, to prove determinism.
    let repro = ReproFile::new(config, hooks, shrunk.templates, &shrunk.report);
    let json = repro.to_json();
    assert_eq!(
        ReproFile::from_json(&json).expect("round-trips").to_json(),
        json
    );
    let path = std::env::temp_dir().join("ddbm-oracle-replica.repro.json");
    repro.save(&path).expect("saves");
    let loaded = ReproFile::load(&path).expect("loads");
    assert!(loaded.verify().expect("replays"), "first replay diverged");
    assert!(loaded.verify().expect("replays"), "second replay diverged");
    assert!(!loaded.violations.is_empty());
}

#[test]
fn recorded_workload_replays_clean_when_unbroken() {
    // Scripted replay of a recorded workload through the same config stays
    // clean: the recorder and the scripted-admission path agree.
    let config = contended(Algorithm::WoundWait, 5);
    let rec = run_oracle(config.clone(), None, TestHooks::default()).expect("valid");
    assert!(check_recording(&config, &rec).clean());
    let replay = run_oracle(config.clone(), Some(rec.templates), TestHooks::default())
        .expect("valid replay");
    let report = check_recording(&config, &replay);
    assert!(report.clean(), "{}", report.render());
    assert!(report.events > 0);
}
