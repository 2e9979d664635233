//! Integration tests for the full simulator: determinism, conservation,
//! algorithm orderings, and lifecycle edge cases.

use ddbm_config::{Algorithm, Config, ExecPattern};
use ddbm_core::{run_config, RunReport};

/// A scaled-down workload that keeps debug-build test times reasonable:
/// 32 terminals, ~16 accesses per transaction, 100-page files.
fn tiny(algorithm: Algorithm, degree: usize, think: f64) -> Config {
    let mut c = Config::paper(algorithm, 8, degree, think);
    c.workload.num_terminals = 32;
    c.workload.mean_pages_per_file = 2;
    c.workload.min_pages_per_file = 1;
    c.workload.max_pages_per_file = 3;
    c.database.pages_per_file = 100;
    c.control.warmup_commits = 30;
    c.control.measure_commits = 150;
    c
}

fn run(c: Config) -> RunReport {
    run_config(c).expect("valid config")
}

#[test]
fn deterministic_for_fixed_seed() {
    let a = run(tiny(Algorithm::TwoPhaseLocking, 8, 1.0));
    let b = run(tiny(Algorithm::TwoPhaseLocking, 8, 1.0));
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.aborts, b.aborts);
    assert_eq!(a.mean_response_time, b.mean_response_time);
    assert_eq!(a.throughput, b.throughput);
    assert_eq!(a.disk_utilization, b.disk_utilization);
}

#[test]
fn different_seeds_differ_but_agree_statistically() {
    let base = tiny(Algorithm::TwoPhaseLocking, 8, 1.0);
    let mut other = base.clone();
    other.control.seed = 0xfeed;
    let a = run(base);
    let b = run(other);
    assert_ne!(a.mean_response_time, b.mean_response_time);
    let ratio = a.throughput / b.throughput;
    assert!(
        (0.7..1.4).contains(&ratio),
        "seeds gave wildly different throughput: {ratio}"
    );
}

#[test]
fn every_algorithm_completes_the_run() {
    for algo in Algorithm::ALL {
        let r = run(tiny(algo, 8, 1.0));
        assert_eq!(r.commits, 150, "{algo}");
        assert!(!r.truncated, "{algo}");
        assert!(r.throughput > 0.0, "{algo}");
        assert!(r.mean_response_time > 0.0, "{algo}");
    }
}

#[test]
fn no_dc_is_an_upper_bound_under_contention() {
    // Small database + zero think time = heavy contention; NO_DC must beat
    // every real algorithm on throughput.
    let mut best_real: f64 = 0.0;
    for algo in Algorithm::REAL {
        let mut c = tiny(algo, 8, 0.0);
        c.database.pages_per_file = 40; // crank contention up
        best_real = best_real.max(run(c).throughput);
    }
    let mut c = tiny(Algorithm::NoDataContention, 8, 0.0);
    c.database.pages_per_file = 40;
    let nodc = run(c).throughput;
    assert!(
        nodc >= best_real * 0.98,
        "NO_DC ({nodc}) must not lose to the best real algorithm ({best_real})"
    );
}

#[test]
fn no_dc_never_aborts_or_blocks() {
    let r = run(tiny(Algorithm::NoDataContention, 8, 0.0));
    assert_eq!(r.aborts, 0);
    assert_eq!(r.abort_ratio, 0.0);
    assert_eq!(r.mean_blocking_time, 0.0);
}

#[test]
fn optimistic_never_blocks_but_does_abort() {
    let mut c = tiny(Algorithm::Optimistic, 8, 0.0);
    c.database.pages_per_file = 40;
    let r = run(c);
    assert_eq!(r.mean_blocking_time, 0.0, "OPT has no blocking");
    assert!(r.aborts > 0, "OPT under heavy contention must abort");
}

#[test]
fn locking_blocks_under_contention() {
    let mut c = tiny(Algorithm::TwoPhaseLocking, 8, 0.0);
    c.database.pages_per_file = 40;
    let r = run(c);
    assert!(
        r.mean_blocking_time > 0.0,
        "2PL under heavy contention must block"
    );
}

#[test]
fn utilizations_are_valid_fractions() {
    for algo in [Algorithm::TwoPhaseLocking, Algorithm::Optimistic] {
        let r = run(tiny(algo, 8, 1.0));
        for (name, u) in [
            ("host cpu", r.host_cpu_utilization),
            ("proc cpu", r.proc_cpu_utilization),
            ("disk", r.disk_utilization),
        ] {
            assert!((0.0..=1.0 + 1e-9).contains(&u), "{algo} {name} = {u}");
        }
    }
}

#[test]
fn higher_think_time_lowers_utilization() {
    let busy = run(tiny(Algorithm::NoDataContention, 8, 0.0));
    let idle = run(tiny(Algorithm::NoDataContention, 8, 30.0));
    assert!(busy.disk_utilization > idle.disk_utilization);
    assert!(busy.throughput > idle.throughput);
    assert!(idle.mean_response_time < busy.mean_response_time);
}

#[test]
fn single_node_machine_runs() {
    for algo in Algorithm::ALL {
        let mut c = Config::scaling(algo, 1, 2.0);
        c.workload.num_terminals = 16;
        c.workload.mean_pages_per_file = 2;
        c.workload.min_pages_per_file = 1;
        c.workload.max_pages_per_file = 3;
        c.database.pages_per_file = 100;
        c.control.warmup_commits = 20;
        c.control.measure_commits = 60;
        let r = run(c);
        assert_eq!(r.commits, 60, "{algo}");
    }
}

#[test]
fn sequential_execution_completes_and_is_slower_when_idle() {
    let mut par = tiny(Algorithm::NoDataContention, 8, 30.0);
    par.workload.exec_pattern = ExecPattern::Parallel;
    let mut seq = par.clone();
    seq.workload.exec_pattern = ExecPattern::Sequential;
    let rp = run(par);
    let rs = run(seq);
    assert_eq!(rs.commits, 150);
    // At light load, running the eight cohorts one after another must be
    // substantially slower than running them in parallel.
    assert!(
        rs.mean_response_time > rp.mean_response_time * 1.5,
        "sequential {} vs parallel {}",
        rs.mean_response_time,
        rp.mean_response_time
    );
}

#[test]
fn truncation_flag_set_when_time_expires() {
    let mut c = tiny(Algorithm::TwoPhaseLocking, 8, 0.0);
    c.control.max_sim_time = denet::SimDuration::from_secs_f64(0.5);
    c.control.measure_commits = 1_000_000;
    let r = run(c);
    assert!(r.truncated);
}

#[test]
fn zero_overheads_run_fine() {
    // InstPerMsg = InstPerStartup = 0 exercises the inline zero-cost paths.
    let mut c = tiny(Algorithm::TwoPhaseLocking, 8, 0.5);
    c.system.inst_per_msg = 0;
    c.system.inst_per_startup = 0;
    let r = run(c);
    assert_eq!(r.commits, 150);
    // With no message cost the host CPU has almost nothing to do.
    assert!(r.host_cpu_utilization < 0.05);
}

#[test]
fn cc_request_cost_is_charged_when_nonzero() {
    let mut cheap = tiny(Algorithm::NoDataContention, 8, 8.0);
    cheap.control.measure_commits = 80;
    let mut costly = cheap.clone();
    costly.system.inst_per_cc_req = 50_000; // deliberately huge: 50ms/access
    let rc = run(cheap);
    let rx = run(costly);
    assert!(
        rx.mean_response_time > rc.mean_response_time * 1.5,
        "CC request cost must slow accesses: {} vs {}",
        rx.mean_response_time,
        rc.mean_response_time
    );
}

#[test]
fn response_times_include_restart_penalties() {
    // Heavy contention with an abort-happy algorithm: mean response time
    // must exceed the no-contention response time.
    let mut c = tiny(Algorithm::Optimistic, 8, 0.0);
    c.database.pages_per_file = 40;
    let contended = run(c);
    let free = run(tiny(Algorithm::NoDataContention, 8, 0.0));
    assert!(contended.mean_response_time > free.mean_response_time);
}

#[test]
fn message_cost_loads_the_host_cpu() {
    let mut c = tiny(Algorithm::NoDataContention, 8, 0.0);
    c.system.inst_per_msg = 4_000;
    let heavy = run(c);
    let light = run(tiny(Algorithm::NoDataContention, 8, 0.0));
    assert!(
        heavy.host_cpu_utilization > light.host_cpu_utilization,
        "4K-instruction messages must load the host more: {} vs {}",
        heavy.host_cpu_utilization,
        light.host_cpu_utilization
    );
}

#[test]
fn abort_causes_are_surfaced_and_split_by_algorithm() {
    // Under fault-free heavy contention each algorithm aborts for exactly
    // one reason, and the per-cause breakdown must show it: deadlock-victim
    // picks for 2PL, wounds for WW, timestamp rejections for WD and BTO,
    // validation failures for OPT, lock timeouts for 2PL-T.
    let contended = |algo| {
        let mut c = tiny(algo, 8, 0.0);
        c.database.pages_per_file = 40;
        c
    };
    let cases = [
        (Algorithm::TwoPhaseLocking, "deadlock"),
        (Algorithm::WoundWait, "wound"),
        (Algorithm::WaitDie, "timestamp"),
        (Algorithm::BasicTimestampOrdering, "timestamp"),
        (Algorithm::Optimistic, "validation"),
        (Algorithm::TwoPhaseLockingTimeout, "lock_timeout"),
    ];
    for (algo, expected) in cases {
        let mut c = contended(algo);
        if algo == Algorithm::TwoPhaseLockingTimeout {
            c.system.lock_timeout = denet::SimDuration::from_secs_f64(2.0);
        }
        let r = run(c);
        assert!(r.aborts > 0, "{algo}: contention must cause aborts");
        let b = &r.aborts_by_cause;
        assert_eq!(
            b.total(),
            r.aborts,
            "{algo}: causes must partition the abort count, got {b:?}"
        );
        assert_eq!(
            b.fault_induced(),
            0,
            "{algo}: fault-free run must have no fault-induced aborts: {b:?}"
        );
        let by_name = [
            ("deadlock", b.deadlock),
            ("wound", b.wound),
            ("timestamp", b.timestamp),
            ("validation", b.validation),
            ("lock_timeout", b.lock_timeout),
        ];
        for (name, count) in by_name {
            if name == expected {
                assert_eq!(count, r.aborts, "{algo}: all aborts must be {name}: {b:?}");
            } else {
                assert_eq!(count, 0, "{algo}: unexpected {name} aborts: {b:?}");
            }
        }
    }
}

// ----------------------------------------------------------------------
// Extension features: wait-die, timeout-based 2PL, buffer pool.
// ----------------------------------------------------------------------

#[test]
fn wait_die_completes_under_heavy_contention() {
    let mut c = tiny(Algorithm::WaitDie, 8, 0.0);
    c.database.pages_per_file = 40;
    let r = run(c);
    assert_eq!(r.commits, 150);
    assert!(!r.truncated);
    assert!(r.aborts > 0, "wait-die under contention must see deaths");
}

#[test]
fn timeout_2pl_resolves_deadlocks_without_detection() {
    let mut c = tiny(Algorithm::TwoPhaseLockingTimeout, 8, 0.0);
    c.database.pages_per_file = 40; // heavy contention → real deadlocks
    c.system.lock_timeout = denet::SimDuration::from_secs_f64(2.0);
    let r = run(c);
    assert_eq!(r.commits, 150, "timeouts must break every deadlock");
    assert!(!r.truncated);
    assert!(r.aborts > 0, "some waits must have timed out");
}

#[test]
fn absurdly_short_timeout_causes_more_aborts() {
    let mut short = tiny(Algorithm::TwoPhaseLockingTimeout, 8, 0.0);
    short.database.pages_per_file = 40;
    short.system.lock_timeout = denet::SimDuration::from_millis(30);
    let mut long = short.clone();
    long.system.lock_timeout = denet::SimDuration::from_secs_f64(10.0);
    let rs = run(short);
    let rl = run(long);
    assert!(
        rs.abort_ratio > rl.abort_ratio,
        "a 30 ms timeout ({}) must abort more than a 10 s one ({})",
        rs.abort_ratio,
        rl.abort_ratio
    );
}

#[test]
fn buffer_pool_cuts_disk_traffic_and_helps_throughput() {
    let mut unbuffered = tiny(Algorithm::NoDataContention, 8, 0.0);
    unbuffered.database.pages_per_file = 60;
    // Make the system clearly disk-bound (the tiny test workload is
    // otherwise CPU-bound and buffering could not raise throughput).
    unbuffered.workload.inst_per_page = 2_000;
    // A long warmup so the (initially cold) pool is populated before the
    // measurement window starts.
    unbuffered.control.warmup_commits = 800;
    unbuffered.control.measure_commits = 500;
    let mut buffered = unbuffered.clone();
    // Each node stores 8 files x 60 pages = 480 pages; cache them all.
    buffered.system.buffer_pages = 480;
    let ru = run(unbuffered);
    let rb = run(buffered);
    assert_eq!(ru.buffer_hit_ratio, 0.0, "paper model never hits");
    assert!(
        rb.buffer_hit_ratio > 0.8,
        "a warmed all-data buffer must mostly hit, got {}",
        rb.buffer_hit_ratio
    );
    assert!(
        rb.disk_utilization < ru.disk_utilization,
        "buffering must relieve the disks: {} vs {}",
        rb.disk_utilization,
        ru.disk_utilization
    );
    assert!(
        rb.throughput > ru.throughput,
        "an I/O-bound system must speed up when reads hit memory: {} vs {}",
        rb.throughput,
        ru.throughput
    );
}

#[test]
fn tiny_buffer_barely_hits_under_uniform_access() {
    let mut c = tiny(Algorithm::NoDataContention, 8, 0.0);
    c.database.pages_per_file = 60;
    c.system.buffer_pages = 24; // 5% of a node's 480 pages
    let r = run(c);
    assert!(
        r.buffer_hit_ratio < 0.2,
        "uniform access through a 5% buffer should mostly miss, got {}",
        r.buffer_hit_ratio
    );
}

#[test]
fn replication_factor_one_is_a_bitwise_no_op() {
    // The replication subsystem must be invisible when disabled, and a
    // single-copy "replicated" run (ROWA or quorum at factor 1) routes
    // every access to the same nodes in the same order as the
    // pre-replication simulator — so all three reports must be equal down
    // to the last float bit (`RunReport` equality is exact).
    for algo in [Algorithm::TwoPhaseLocking, Algorithm::Optimistic] {
        let disabled = run(tiny(algo, 8, 1.0));
        let mut rowa1 = tiny(algo, 8, 1.0);
        rowa1.replication = ddbm_config::ReplicationParams::rowa(1);
        let mut quorum1 = tiny(algo, 8, 1.0);
        quorum1.replication = ddbm_config::ReplicationParams::quorum(1, 1, 1);
        assert_eq!(run(rowa1), disabled, "{algo}: rowa(1) diverged");
        assert_eq!(run(quorum1), disabled, "{algo}: quorum(1,1,1) diverged");
    }
}

#[test]
fn replicated_runs_complete_and_fan_out_writes() {
    // Fault-free replicated runs finish their commit quota, and the extra
    // write work is visible: 3-way ROWA burns more disk per commit than
    // single-copy at the same operating point.
    let single = run(tiny(Algorithm::TwoPhaseLocking, 8, 4.0));
    let mut c = tiny(Algorithm::TwoPhaseLocking, 8, 4.0);
    c.replication = ddbm_config::ReplicationParams::rowa(3);
    let replicated = run(c);
    assert_eq!(replicated.commits, 150);
    assert!(!replicated.truncated);
    assert!(
        replicated.mean_response_time > single.mean_response_time,
        "3-way writes should cost response time: {} vs {}",
        replicated.mean_response_time,
        single.mean_response_time
    );
}

#[test]
fn unbounded_lock_timeout_never_fires() {
    // `lock_timeout = SimDuration(u64::MAX)` passes validation; scheduling
    // the timer must saturate at the end of time rather than overflow (a
    // debug-build panic) or wrap into the past (a release-build timeout
    // that fires one nanosecond before it was set).
    let mut c = Config::partitioning(Algorithm::TwoPhaseLockingTimeout, 8, false, 0.0);
    c.system.lock_timeout = denet::SimDuration(u64::MAX);
    c.control.warmup_commits = 5;
    c.control.measure_commits = 20;
    // With no timer and no detector, the first deadlock stalls its
    // transactions for good; the run ends at the simulated-time wall.
    let r = run(c);
    assert_eq!(r.aborts_by_cause.lock_timeout, 0);
}
