//! Determinism regression tests: a fixed seed must produce a bit-identical
//! `RunReport` however the simulation is invoked — repeated in-process runs,
//! any `Runner` thread count, and across refactors of the simulator's
//! internal data structures (transaction store, calendar layout, scratch
//! buffers). The golden snapshot at the bottom pins one small configuration
//! to exact bit patterns so an accidental behavior change fails loudly
//! instead of shifting results quietly.

use ddbm::config::{Algorithm, Config, ExecPattern, ReplicationParams};
use ddbm::core::{run_config, RunReport};
use ddbm::experiments::Runner;
use ddbm::sim::SimDuration;

/// A small, fast configuration exercising 2PL (locks, blocking, the Snoop
/// deadlock detector) on a 4-node machine.
fn small_config() -> Config {
    let mut c = Config::paper(Algorithm::TwoPhaseLocking, 4, 4, 1.0);
    c.workload.num_terminals = 16;
    c.workload.mean_pages_per_file = 2;
    c.workload.min_pages_per_file = 1;
    c.workload.max_pages_per_file = 3;
    c.database.pages_per_file = 100;
    c.control.warmup_commits = 10;
    c.control.measure_commits = 40;
    c
}

/// Field-by-field bit equality. Floats are compared on their bit patterns:
/// "close" is not good enough for a determinism guarantee.
fn assert_identical(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.commits, b.commits, "{what}: commits");
    assert_eq!(a.aborts, b.aborts, "{what}: aborts");
    assert_eq!(a.truncated, b.truncated, "{what}: truncated");
    for (x, y, name) in [
        (a.throughput, b.throughput, "throughput"),
        (
            a.mean_response_time,
            b.mean_response_time,
            "mean_response_time",
        ),
        (
            a.response_time_std,
            b.response_time_std,
            "response_time_std",
        ),
        (
            a.response_time_ci95,
            b.response_time_ci95,
            "response_time_ci95",
        ),
        (a.abort_ratio, b.abort_ratio, "abort_ratio"),
        (
            a.mean_blocking_time,
            b.mean_blocking_time,
            "mean_blocking_time",
        ),
        (
            a.host_cpu_utilization,
            b.host_cpu_utilization,
            "host_cpu_utilization",
        ),
        (
            a.proc_cpu_utilization,
            b.proc_cpu_utilization,
            "proc_cpu_utilization",
        ),
        (a.disk_utilization, b.disk_utilization, "disk_utilization"),
        (a.measured_seconds, b.measured_seconds, "measured_seconds"),
        (a.buffer_hit_ratio, b.buffer_hit_ratio, "buffer_hit_ratio"),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: {name} differs bitwise ({x:?} vs {y:?})"
        );
    }
}

/// Same seed, same process, run twice → bit-identical reports.
#[test]
fn repeated_runs_are_bit_identical() {
    let a = run_config(small_config()).expect("valid");
    let b = run_config(small_config()).expect("valid");
    assert_identical(&a, &b, "repeated run");
}

/// A different seed must actually change the outcome (guards against the
/// comparison accidentally passing because the seed is ignored).
#[test]
fn different_seed_changes_the_outcome() {
    let a = run_config(small_config()).expect("valid");
    let mut other = small_config();
    other.control.seed ^= 0x5eed;
    let b = run_config(other).expect("valid");
    assert!(
        a.mean_response_time.to_bits() != b.mean_response_time.to_bits()
            || a.commits != b.commits
            || a.throughput.to_bits() != b.throughput.to_bits(),
        "changing the seed must perturb the run"
    );
}

/// The `Runner`'s thread count is an execution detail: every thread count
/// must produce bit-identical reports for the same configs.
#[test]
fn runner_thread_count_does_not_change_results() {
    let mut configs = vec![small_config()];
    for (i, think) in [(1u64, 0.0f64), (2, 2.0), (3, 1.0)] {
        let mut c = small_config();
        c.control.seed ^= i;
        c.workload.think_time_secs = think;
        configs.push(c);
    }
    let serial = Runner::new(1).run_all(&configs);
    let four = Runner::new(4).run_all(&configs);
    let eight = Runner::new(8).run_all(&configs);
    for (k, s) in serial.iter().enumerate() {
        assert_identical(s, &four[k], "1 vs 4 threads");
        assert_identical(s, &eight[k], "1 vs 8 threads");
    }
}

/// Golden snapshot: the exact outcome of `small_config()` for its fixed
/// seed. This pins the whole deterministic pipeline — workload generation,
/// the xoshiro256++ streams, calendar FIFO tie-breaking, and the simulator's
/// event handling. If an intentional model change shifts these numbers,
/// regenerate them with
///
/// ```text
/// cargo test --test determinism golden -- --nocapture
/// ```
///
/// (the failure message prints the new values) and say so in the commit.
#[test]
fn golden_snapshot_small_2pl_config() {
    let r = run_config(small_config()).expect("valid");
    eprintln!(
        "golden: commits={} aborts={} throughput={:#018x} mean_rt={:#018x}",
        r.commits,
        r.aborts,
        r.throughput.to_bits(),
        r.mean_response_time.to_bits()
    );
    assert_eq!(r.commits, GOLDEN_COMMITS, "commits drifted");
    assert_eq!(r.aborts, GOLDEN_ABORTS, "aborts drifted");
    assert_eq!(
        r.throughput.to_bits(),
        GOLDEN_THROUGHPUT_BITS,
        "throughput drifted: {:.6} (bits {:#018x})",
        r.throughput,
        r.throughput.to_bits()
    );
    assert_eq!(
        r.mean_response_time.to_bits(),
        GOLDEN_MEAN_RT_BITS,
        "mean response time drifted: {:.6} (bits {:#018x})",
        r.mean_response_time,
        r.mean_response_time.to_bits()
    );
}

// ~13.66 txn/s
const GOLDEN_COMMITS: u64 = 40;
const GOLDEN_ABORTS: u64 = 0;
const GOLDEN_THROUGHPUT_BITS: u64 = 0x402b_544e_40bb_df5c;
// ~0.259 s (last regenerated for the exact virtual-time CPU and its
// reciprocal-rate service-time conversion: completion instants no longer
// accumulate ceil-rounding slivers, and `instr * ns_per_instr` rounds a few
// predictions one ulp differently than `instr / rate * 1e9` did, which moved
// throughput and mean response time in the ~10th decimal place; commits and
// aborts held).
const GOLDEN_MEAN_RT_BITS: u64 = 0x3fd0_927c_4393_14d5;

/// A contended 4-node machine for the golden table (see [`shrunk`]).
fn table_config(algorithm: Algorithm, think: f64) -> Config {
    shrunk(Config::paper(algorithm, 4, 4, think))
}

/// `c` with the golden table's 16 terminals on a hot 10-page-per-file
/// database, 10 warmup and 50 measured commits.
fn shrunk(mut c: Config) -> Config {
    c.workload.num_terminals = 16;
    c.workload.mean_pages_per_file = 2;
    c.workload.min_pages_per_file = 1;
    c.workload.max_pages_per_file = 3;
    c.database.pages_per_file = 10;
    c.control.warmup_commits = 10;
    c.control.measure_commits = 50;
    c.control.max_sim_time = SimDuration::from_secs_f64(2_000.0);
    c
}

/// Every fault class on: node crashes, message drops and delays, disk
/// stalls.
fn with_faults(mut c: Config) -> Config {
    c.faults.crash_rate = 0.05;
    c.faults.recovery = SimDuration::from_secs_f64(1.0);
    c.faults.msg_drop_prob = 0.05;
    c.faults.msg_delay_prob = 0.05;
    c.faults.msg_delay_max = SimDuration::from_millis(20);
    c.faults.msg_retry = SimDuration::from_millis(50);
    c.faults.disk_stall_rate = 0.05;
    c.faults.disk_stall = SimDuration::from_millis(200);
    c.faults.cohort_timeout = SimDuration::from_secs_f64(3.0);
    c
}

/// One line holding everything a golden-table row pins: commits, aborts,
/// every abort cause, every fault counter, and the bit patterns of
/// throughput and mean response time.
fn digest(r: &RunReport) -> String {
    let a = &r.aborts_by_cause;
    let f = &r.fault_stats;
    format!(
        "commits={} aborts={} causes=[{} {} {} {} {} {} {} {}] \
         faults=[{} {} {} {} {} {} {}] thr={:#018x} rt={:#018x}",
        r.commits,
        r.aborts,
        a.deadlock,
        a.wound,
        a.timestamp,
        a.validation,
        a.lock_timeout,
        a.node_crash,
        a.cohort_timeout,
        a.replica_unavailable,
        f.crashes,
        f.recoveries,
        f.mid_commit_crashes,
        f.msgs_dropped,
        f.msgs_delayed,
        f.msgs_to_down_node,
        f.disk_stalls,
        r.throughput.to_bits(),
        r.mean_response_time.to_bits(),
    )
}

/// One golden-table row: a configuration, the counter of the path the row
/// exists to cover (which must be non-zero), and the pinned digest.
struct GoldenRow {
    name: &'static str,
    config: fn() -> Config,
    covers: fn(&RunReport) -> u64,
    digest: &'static str,
}

const GOLDEN_TABLE: &[GoldenRow] = &[
    GoldenRow {
        name: "2pl_8way_think0",
        config: || {
            shrunk(Config::paper(Algorithm::TwoPhaseLocking, 8, 8, 0.0))
        },
        covers: |r| r.aborts_by_cause.deadlock,
        digest: "commits=50 aborts=7 causes=[5 0 2 0 0 0 0 0] faults=[0 0 0 0 0 0 0] thr=0x403fb25c24562ead rt=0x3fe0fca2ff54a494",
    },
    GoldenRow {
        name: "2pl_t",
        config: || {
            let mut c = table_config(Algorithm::TwoPhaseLockingTimeout, 0.0);
            c.system.lock_timeout = SimDuration::from_millis(100);
            c
        },
        covers: |r| r.aborts_by_cause.lock_timeout,
        digest: "commits=50 aborts=29 causes=[0 0 0 0 29 0 0 0] faults=[0 0 0 0 0 0 0] thr=0x4030d578d88081c1 rt=0x3fe5e9d397430778",
    },
    GoldenRow {
        name: "ww",
        config: || table_config(Algorithm::WoundWait, 0.0),
        covers: |r| r.aborts_by_cause.wound,
        digest: "commits=50 aborts=16 causes=[0 16 0 0 0 0 0 0] faults=[0 0 0 0 0 0 0] thr=0x403322c3cca163e7 rt=0x3fe8cba85a52b803",
    },
    GoldenRow {
        name: "wd",
        config: || table_config(Algorithm::WaitDie, 0.0),
        covers: |r| r.aborts_by_cause.timestamp,
        digest: "commits=50 aborts=16 causes=[0 0 16 0 0 0 0 0] faults=[0 0 0 0 0 0 0] thr=0x403317a23b67444b rt=0x3fe9c289615646e0",
    },
    GoldenRow {
        name: "bto",
        config: || table_config(Algorithm::BasicTimestampOrdering, 0.0),
        covers: |r| r.aborts_by_cause.timestamp,
        digest: "commits=50 aborts=4 causes=[0 0 4 0 0 0 0 0] faults=[0 0 0 0 0 0 0] thr=0x40337d8da9ebf654 rt=0x3fe97d1364da1cdd",
    },
    GoldenRow {
        name: "opt",
        config: || table_config(Algorithm::Optimistic, 0.0),
        covers: |r| r.aborts_by_cause.validation,
        digest: "commits=50 aborts=14 causes=[0 0 0 14 0 0 0 0] faults=[0 0 0 0 0 0 0] thr=0x402fe8bdd185639a rt=0x3feceaa0c6dcb846",
    },
    GoldenRow {
        name: "no_dc",
        config: || table_config(Algorithm::NoDataContention, 0.0),
        covers: |r| r.commits,
        digest: "commits=50 aborts=0 causes=[0 0 0 0 0 0 0 0] faults=[0 0 0 0 0 0 0] thr=0x40364249e4686058 rt=0x3fe810c31d681a18",
    },
    GoldenRow {
        name: "rowa3_faults",
        config: || {
            let mut c = with_faults(table_config(Algorithm::TwoPhaseLocking, 0.0));
            c.replication = ReplicationParams::rowa(3);
            c.control.seed = 15;
            c
        },
        covers: |r| {
            let f = &r.fault_stats;
            f.crashes
                .min(f.mid_commit_crashes)
                .min(f.msgs_dropped)
                .min(f.msgs_delayed)
                .min(f.msgs_to_down_node)
                .min(f.disk_stalls)
        },
        digest: "commits=50 aborts=65 causes=[4 2 0 0 0 59 0 0] faults=[4 4 2 106 122 20 4] thr=0x4012c32b412efae1 rt=0x3ffb6548a6fd4d52",
    },
    GoldenRow {
        name: "quorum3",
        config: || {
            let mut c = table_config(Algorithm::WoundWait, 0.0);
            c.replication = ReplicationParams::quorum(3, 2, 2);
            c
        },
        covers: |r| r.aborts_by_cause.wound,
        digest: "commits=50 aborts=11 causes=[0 11 0 0 0 0 0 0] faults=[0 0 0 0 0 0 0] thr=0x40237160ea02d008 rt=0x3ff991c0dcaa9690",
    },
    GoldenRow {
        name: "factor1_faults",
        config: || {
            let mut c = with_faults(table_config(Algorithm::Optimistic, 0.0));
            c.replication = ReplicationParams::rowa(1);
            c
        },
        covers: |r| r.aborts_by_cause.replica_unavailable,
        digest: "commits=50 aborts=37 causes=[0 0 0 8 0 13 0 16] faults=[1 1 0 87 79 0 2] thr=0x4026f068c492068c rt=0x3ff4be0a5f30656e",
    },
    GoldenRow {
        name: "sequential",
        config: || {
            let mut c = table_config(Algorithm::WoundWait, 0.0);
            c.workload.exec_pattern = ExecPattern::Sequential;
            c
        },
        covers: |r| r.aborts,
        digest: "commits=50 aborts=4 causes=[0 4 0 0 0 0 0 0] faults=[0 0 0 0 0 0 0] thr=0x40300daa2d4bcff9 rt=0x3ff1050a6e8f9df4",
    },
    GoldenRow {
        name: "buffer_pages",
        config: || {
            let mut c = table_config(Algorithm::BasicTimestampOrdering, 1.0);
            c.system.buffer_pages = 64;
            c
        },
        covers: |r| (r.buffer_hit_ratio > 0.0) as u64,
        digest: "commits=50 aborts=0 causes=[0 0 0 0 0 0 0 0] faults=[0 0 0 0 0 0 0] thr=0x402e5f5ef77f39c5 rt=0x3fc96ef30d815a76",
    },
];

/// Golden table: small configurations that each drive one protocol path
/// the single-config golden above never takes — deadlock victims, lock
/// timeouts, wounds, timestamp rejections, validation aborts, crashes and
/// message faults, replica routing, sequential execution, the buffer pool.
/// Regenerate as for the golden snapshot; the failure message prints the
/// new digest.
#[test]
fn golden_table_pins_every_abort_and_fault_path() {
    for row in GOLDEN_TABLE {
        let r = run_config((row.config)()).expect("valid");
        eprintln!("{}: {}", row.name, digest(&r));
        assert!(
            (row.covers)(&r) > 0,
            "{}: the covered path never ran",
            row.name
        );
        assert_eq!(digest(&r), row.digest, "{} drifted", row.name);
    }
}
