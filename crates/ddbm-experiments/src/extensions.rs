//! Extension experiments beyond the paper's figures: ablations of design
//! choices the paper fixes (execution pattern, deadlock-resolution policy)
//! and the buffering future work its footnote 6 defers.

use crate::figures::{grid, plot, THINK};
use crate::profile::Profile;
use crate::runner::Runner;
use crate::table::FigureResult;
use ddbm_config::{Algorithm, Config, ExecPattern, ReplicationParams};
use ddbm_core::RunReport;
use denet::SimDuration;

/// The think time of the extension experiments that hold it fixed.
const THINK_S: f64 = 1.0;

/// E20: sequential (RPC-style, Non-Stop SQL) vs parallel (Gamma-style)
/// cohort execution — response time vs think time for 2PL and NO_DC.
pub fn e20_exec_pattern(runner: &Runner, profile: &Profile) -> Vec<FigureResult> {
    let series: Vec<(Algorithm, ExecPattern, &str)> =
        [Algorithm::TwoPhaseLocking, Algorithm::NoDataContention]
            .into_iter()
            .flat_map(|a| {
                [
                    (a, ExecPattern::Parallel, "parallel"),
                    (a, ExecPattern::Sequential, "sequential"),
                ]
            })
            .collect();
    let reports = grid(
        runner,
        profile,
        &series,
        &profile.think_times,
        |(a, pattern, _), t| {
            let mut c = Config::paper(a, 8, 8, t);
            c.workload.exec_pattern = pattern;
            c
        },
    );
    vec![plot(
        "e20",
        "Sequential (RPC) vs parallel cohort execution, 8 nodes, 8-way",
        (THINK, "response time (s)"),
        &profile.think_times,
        series
            .iter()
            .map(|(a, _, pattern)| format!("{a} {pattern}")),
        &reports,
        |r| r.mean_response_time,
    )]
}

/// The lock-timeout grid used by E21 (seconds).
pub const E21_TIMEOUTS: [f64; 6] = [0.5, 1.0, 2.0, 5.0, 10.0, 30.0];

/// E21: sensitivity of timeout-resolved 2PL to the timeout value (paper
/// footnote 2 cites Jenq et al.'s observation that the interval is critical).
/// Returns the response-time and the abort-ratio figure; each includes the
/// detection-based 2PL as a flat reference line. The reference row ignores
/// the timeout, so the batch runs it once.
pub fn e21_timeout_sensitivity(runner: &Runner, profile: &Profile) -> Vec<FigureResult> {
    let algos = [
        Algorithm::TwoPhaseLockingTimeout,
        Algorithm::TwoPhaseLocking,
    ];
    let reports = grid(runner, profile, &algos, &E21_TIMEOUTS, |a, to| {
        let mut c = Config::paper(a, 8, 8, THINK_S);
        if a == Algorithm::TwoPhaseLockingTimeout {
            c.system.lock_timeout = SimDuration::from_secs_f64(to);
        }
        c
    });
    let names = ["2PL-T", "2PL (detection)"];
    let x_label = "lock timeout (s)";
    vec![
        plot(
            "e21-rt",
            &format!("2PL-T response time vs lock timeout (think {THINK_S}s)"),
            (x_label, "response time (s)"),
            &E21_TIMEOUTS,
            names,
            &reports,
            |r| r.mean_response_time,
        ),
        plot(
            "e21-aborts",
            &format!("2PL-T abort ratio vs lock timeout (think {THINK_S}s)"),
            (x_label, "aborts per commit"),
            &E21_TIMEOUTS,
            names,
            &reports,
            |r| r.abort_ratio,
        ),
    ]
}

/// The buffer capacities swept by E22, as fractions of a node's data.
pub const E22_FRACTIONS: [f64; 4] = [0.0, 0.125, 0.5, 1.0];

/// E22 (paper footnote 6's future work): does per-node buffering change the
/// algorithm ordering? Throughput vs buffer capacity for all five paper
/// algorithms at a contended operating point.
pub fn e22_buffering(runner: &Runner, profile: &Profile) -> Vec<FigureResult> {
    // A node stores num_files/num_proc_nodes files of pages_per_file pages.
    let probe = {
        let mut c = Config::paper(Algorithm::TwoPhaseLocking, 8, 8, THINK_S);
        profile.apply(&mut c);
        c
    };
    let pages_per_node = probe.database.total_pages() / probe.system.num_proc_nodes as u64;
    let capacities = E22_FRACTIONS.map(|f| (f * pages_per_node as f64) as u64);
    let reports = grid(runner, profile, &Algorithm::ALL, &capacities, |a, cap| {
        let mut c = Config::paper(a, 8, 8, THINK_S);
        c.system.buffer_pages = cap;
        c
    });
    vec![plot(
        "e22",
        &format!(
            "Throughput vs per-node buffer capacity (think {THINK_S}s; node data = {pages_per_node} pages)"
        ),
        ("buffer capacity (pages)", "throughput (txn/s)"),
        &capacities.map(|c| c as f64),
        Algorithm::ALL.map(Algorithm::label),
        &reports,
        |r| r.throughput,
    )]
}

/// E23: wound-wait vs wait-die vs detection-based 2PL — throughput and abort
/// ratio across the think-time grid.
pub fn e23_wait_die(runner: &Runner, profile: &Profile) -> Vec<FigureResult> {
    let algos = [
        Algorithm::TwoPhaseLocking,
        Algorithm::WoundWait,
        Algorithm::WaitDie,
    ];
    let reports = grid(runner, profile, &algos, &profile.think_times, |a, t| {
        Config::paper(a, 8, 8, t)
    });
    let names = algos.map(Algorithm::label);
    let title = "Deadlock policies: detection vs wound-wait vs wait-die";
    tput_and_aborts("e23", title, &profile.think_times, &names, &reports)
}

/// The throughput and abort-ratio figures `{id}-tput` and `{id}-aborts` of
/// a think-time sweep.
fn tput_and_aborts(
    id: &str,
    title: &str,
    xs: &[f64],
    names: &[&str],
    reports: &[Vec<RunReport>],
) -> Vec<FigureResult> {
    vec![
        plot(
            &format!("{id}-tput"),
            &format!("{title} (throughput)"),
            (THINK, "throughput (txn/s)"),
            xs,
            names.iter().copied(),
            reports,
            |r| r.throughput,
        ),
        plot(
            &format!("{id}-aborts"),
            &format!("{title} (abort ratio)"),
            (THINK, "aborts per commit"),
            xs,
            names.iter().copied(),
            reports,
            |r| r.abort_ratio,
        ),
    ]
}

/// The per-node crash rates (crashes per simulated second) swept by E25.
/// The top rate crashes *some* node of the 8-node machine every ~2.5
/// simulated seconds, so with 8-way declustering nearly every transaction
/// races a failure.
pub const E25_CRASH_RATES: [f64; 4] = [0.0, 0.005, 0.02, 0.05];

/// The default crash-recovery delay used by E25, in milliseconds.
pub const E25_RECOVERY_MS: u64 = 2_000;

/// E25: the fault study the paper never ran — how does each concurrency
/// control algorithm degrade when the machine's nodes actually crash?
/// Deterministic fault injection (seeded crash/restart schedules plus mild
/// message drop/delay noise) at a contended operating point; throughput and
/// fault-induced aborts per commit as the crash rate rises. A crash aborts
/// every transaction with in-flight state on the dead node (detected by the
/// coordinator's presumed-abort timeout), so with 8-way declustering the
/// blocking algorithms pay for every lock queue a crash wipes out, while
/// OPT's late validation makes each kill cheaper but more frequent.
pub fn e25_fault_study(
    runner: &Runner,
    profile: &Profile,
    crash_rates: &[f64],
    recovery: SimDuration,
) -> (FigureResult, FigureResult) {
    let algos = [
        Algorithm::TwoPhaseLocking,
        Algorithm::BasicTimestampOrdering,
        Algorithm::WoundWait,
        Algorithm::Optimistic,
    ];
    let reports = grid(runner, profile, &algos, crash_rates, |a, rate| {
        e25_config(a, THINK_S, rate, recovery)
    });
    let recovery_s = recovery.as_secs_f64();
    let names = algos.map(Algorithm::label);
    (
        plot(
            "e25-tput",
            &format!(
                "Fault study: throughput vs per-node crash rate (recovery {recovery_s}s, think {THINK_S}s)"
            ),
            (CRASH_RATE, "throughput (txn/s)"),
            crash_rates,
            names,
            &reports,
            |r| r.throughput,
        ),
        plot(
            "e25-aborts",
            &format!(
                "Fault study: fault-induced aborts vs crash rate (recovery {recovery_s}s, think {THINK_S}s)"
            ),
            (CRASH_RATE, FAULT_ABORTS),
            crash_rates,
            names,
            &reports,
            fault_aborts_per_commit,
        ),
    )
}

/// The x-axis label of the crash-rate sweeps (E25, E26, E28).
const CRASH_RATE: &str = "crash rate (per node per s)";

/// The y-axis label of [`fault_aborts_per_commit`].
const FAULT_ABORTS: &str = "fault-induced aborts per commit";

/// The E25/E28 abort metric: aborts a fault caused, per commit.
fn fault_aborts_per_commit(r: &RunReport) -> f64 {
    r.aborts_by_cause.fault_induced() as f64 / r.commits.max(1) as f64
}

/// The E25 operating point: the paper's 8-node/8-way machine at `think` s
/// think time with deterministic fault injection (seeded crashes plus mild
/// message drop/delay noise). Shared by E25 and the E26 phase breakdown so
/// both studies observe the same workload.
pub fn e25_config(algo: Algorithm, think: f64, crash_rate: f64, recovery: SimDuration) -> Config {
    let mut c = Config::paper(algo, 8, 8, think);
    c.faults.crash_rate = crash_rate;
    c.faults.recovery = recovery;
    c.faults.msg_drop_prob = 0.005;
    c.faults.msg_delay_prob = 0.01;
    c.faults.msg_delay_max = SimDuration::from_millis(20);
    c.faults.msg_retry = SimDuration::from_millis(50);
    c.faults.cohort_timeout = SimDuration::from_secs_f64(3.0);
    c
}

/// E26: where does E25's time go? Re-runs the fault-study operating points
/// for 2PL (gradual degradation) and OPT (collapse) with phase statistics
/// enabled, and plots the mean seconds a committed transaction spends in
/// each lifecycle phase as the crash rate rises. The collapse mechanism
/// shows up directly: OPT's execute/restart-wait time balloons with the
/// crash rate (every fault-killed run re-executes in full before the next
/// certification attempt), while 2PL's growth concentrates in lock waits
/// behind queues that crashes repeatedly wipe and rebuild.
pub fn e26_phase_breakdown(runner: &Runner, profile: &Profile) -> Vec<FigureResult> {
    let algos = [Algorithm::TwoPhaseLocking, Algorithm::Optimistic];
    let recovery = SimDuration::from_millis(E25_RECOVERY_MS);
    let reports = grid(runner, profile, &algos, &E25_CRASH_RATES, |a, rate| {
        let mut c = e25_config(a, THINK_S, rate, recovery);
        c.trace.phase_stats = true;
        c
    });
    let phases = |r: &RunReport| {
        r.phase_breakdown
            .as_ref()
            .expect("phase stats were enabled for this run")
            .phases()
            .map(|(label, stats)| (label, stats.mean_s))
    };
    // One series per (algorithm, phase).
    let mut names = Vec::new();
    let mut rows = Vec::new();
    for (algo, row) in algos.iter().zip(&reports) {
        for (pi, (label, _)) in phases(&row[0]).into_iter().enumerate() {
            names.push(format!("{algo} {label}"));
            rows.push(row.iter().map(|r| phases(r)[pi].1).collect::<Vec<f64>>());
        }
    }
    let recovery_s = recovery.as_secs_f64();
    vec![plot(
        "e26-phases",
        &format!(
            "Phase breakdown under faults: mean time per committed txn by phase (recovery {recovery_s}s, think {THINK_S}s)"
        ),
        (CRASH_RATE, "mean seconds in phase per commit"),
        &E25_CRASH_RATES,
        names,
        &rows,
        |y| *y,
    )]
}

/// The single run exported by `repro e26 --trace <path>`: OPT at the top
/// E25 crash rate — the collapse the phase breakdown explains — with full
/// event tracing for Chrome-trace / JSONL export.
pub fn e26_trace_config(profile: &Profile) -> Config {
    let mut c = e25_config(
        Algorithm::Optimistic,
        THINK_S,
        *E25_CRASH_RATES.last().expect("non-empty"),
        SimDuration::from_millis(E25_RECOVERY_MS),
    );
    profile.apply(&mut c);
    c
}

/// The replication factors swept by E27 (copies of every file on the
/// 8-node machine; 1 = the single-copy paper baseline).
pub const E27_FACTORS: [usize; 3] = [1, 2, 3];

/// The replica control used for one E27/E28 operating point. Factor 1 is
/// the genuine single-copy baseline (replication disabled, bit-identical to
/// the pre-replication simulator); larger factors use ROWA or a majority
/// read/write quorum (factor 2: r=1/w=2, factor 3: r=2/w=2).
pub fn replication_point(factor: usize, quorum: bool) -> ReplicationParams {
    match (factor, quorum) {
        (0 | 1, _) => ReplicationParams::default(),
        (f, false) => ReplicationParams::rowa(f),
        (f, true) => {
            let w = f / 2 + 1;
            ReplicationParams::quorum(f, f + 1 - w, w)
        }
    }
}

/// E27: what does replication cost when nothing fails? Throughput and
/// response time vs replication factor for all five paper algorithms under
/// both replica controls. ROWA pays the full write fan-out (every write
/// touches `factor` nodes, certification and 2PC span all of them) but
/// reads stay single-replica; the quorum control trades some of the write
/// fan-out for multi-replica reads. Each copy also multiplies the data
/// stored per node, so lock/timestamp conflicts rise with the factor.
pub fn e27_replication_overhead(runner: &Runner, profile: &Profile) -> Vec<FigureResult> {
    let series: Vec<(Algorithm, &str, bool)> = Algorithm::ALL
        .into_iter()
        .flat_map(|a| [(a, "rowa", false), (a, "quorum", true)])
        .collect();
    let reports = grid(
        runner,
        profile,
        &series,
        &E27_FACTORS,
        |(a, _, quorum), f| {
            let mut c = Config::paper(a, 8, 8, THINK_S);
            c.replication = replication_point(f, quorum);
            c
        },
    );
    let names = || {
        series
            .iter()
            .map(|(a, control, _)| format!("{a} {control}"))
    };
    let xs = E27_FACTORS.map(|f| f as f64);
    let what = format!("vs replication factor (8 nodes, think {THINK_S}s)");
    vec![
        plot(
            "e27-tput",
            &format!("Replication overhead: throughput {what}"),
            ("replication factor", "throughput (txn/s)"),
            &xs,
            names(),
            &reports,
            |r| r.throughput,
        ),
        plot(
            "e27-resp",
            &format!("Replication overhead: response time {what}"),
            ("replication factor", "response time (s)"),
            &xs,
            names(),
            &reports,
            |r| r.mean_response_time,
        ),
    ]
}

/// The per-node crash rates swept by E28 (same grid as E25).
pub const E28_CRASH_RATES: [f64; 4] = E25_CRASH_RATES;

/// The crash-recovery delay used by E28, in milliseconds. Longer than
/// E25's so a single-copy machine visibly stalls on every dead node while
/// the replicated one routes around it.
pub const E28_RECOVERY_MS: u64 = 5_000;

/// E28: what does replication buy when nodes fail? Goodput and
/// fault-induced aborts (crash, cohort-timeout, and replica-unavailable)
/// vs crash rate for single-copy vs three-way ROWA. The single-copy
/// machine has exactly one home for each file: every transaction touching
/// a dead node stalls until the presumed-abort timeout kills it. The
/// replicated machine re-routes reads to live replicas and shrinks write
/// sets to the live members, aborting only when *all* copies of a file are
/// down — so it keeps committing through crash schedules that starve the
/// single-copy baseline.
pub fn e28_availability(runner: &Runner, profile: &Profile) -> Vec<FigureResult> {
    let recovery = SimDuration::from_millis(E28_RECOVERY_MS);
    let series: Vec<(Algorithm, usize)> = [Algorithm::TwoPhaseLocking, Algorithm::Optimistic]
        .into_iter()
        .flat_map(|a| [(a, 1), (a, 3)])
        .collect();
    let reports = grid(
        runner,
        profile,
        &series,
        &E28_CRASH_RATES,
        |(a, f), rate| e28_config(a, f, THINK_S, rate, recovery),
    );
    let names = || series.iter().map(|(a, f)| format!("{a} factor {f}"));
    let what = format!(
        "vs crash rate, single-copy vs 3-way ROWA (recovery {}s, think {THINK_S}s)",
        recovery.as_secs_f64()
    );
    vec![
        plot(
            "e28-tput",
            &format!("Availability: goodput {what}"),
            (CRASH_RATE, "throughput (txn/s)"),
            &E28_CRASH_RATES,
            names(),
            &reports,
            |r| r.throughput,
        ),
        plot(
            "e28-aborts",
            &format!("Availability: fault-induced aborts {what}"),
            (CRASH_RATE, FAULT_ABORTS),
            &E28_CRASH_RATES,
            names(),
            &reports,
            fault_aborts_per_commit,
        ),
    ]
}

/// The E28 operating point: the E25 fault machine (seeded crashes, mild
/// message noise) with `factor`-way ROWA replication. Factor 1 is the
/// genuine single-copy simulator.
pub fn e28_config(
    algo: Algorithm,
    factor: usize,
    think: f64,
    crash_rate: f64,
    recovery: SimDuration,
) -> Config {
    let mut c = e25_config(algo, think, crash_rate, recovery);
    c.replication = replication_point(factor, false);
    c
}

/// E24: strict-FIFO vs barging lock grants for 2PL — the one lock-manager
/// policy the paper leaves unspecified, and the lever behind 2PL's 8-way
/// deadlock-abort rate at heavy load.
pub fn e24_barging(runner: &Runner, profile: &Profile) -> Vec<FigureResult> {
    let series = [("2PL FIFO", false), ("2PL barging", true)];
    let reports = grid(
        runner,
        profile,
        &series,
        &profile.think_times,
        |(_, barging), t| {
            let mut c = Config::paper(Algorithm::TwoPhaseLocking, 8, 8, t);
            c.system.lock_barging = barging;
            c
        },
    );
    let names = series.map(|(name, _)| name);
    let title = "2PL lock-grant policy: strict FIFO vs barging";
    tput_and_aborts("e24", title, &profile.think_times, &names, &reports)
}
