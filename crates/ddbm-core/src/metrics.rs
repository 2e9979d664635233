//! Output metrics (paper §4.1): response time, throughput, speedups (derived
//! by the experiment harness), abort ratio, blocking time, and utilizations.

use crate::protocol::AbortCause;
use crate::txn::{PhaseBucket, TxnPhase};
use ddbm_config::TxnId;
use denet::{BatchMeans, FxHashMap, LogHistogram, SimDuration, SimTime, Tally};
use serde::{Deserialize, Serialize};

/// Aborted runs in the measurement window, split by cause. The sum of the
/// fields always equals the aggregate abort counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AbortBreakdown {
    /// 2PL deadlock victims: chosen by a node's local detection when a
    /// request blocks (the requester or another cycle member), or by the
    /// Snoop's global detection.
    #[serde(default)]
    pub deadlock: u64,
    /// Wound-wait wounds.
    #[serde(default)]
    pub wound: u64,
    /// BTO too-late rejections and wait-die "dies".
    #[serde(default)]
    pub timestamp: u64,
    /// OPT certification failures.
    #[serde(default)]
    pub validation: u64,
    /// 2PL-T lock-wait timeouts.
    #[serde(default)]
    pub lock_timeout: u64,
    /// Fault injection: a node crash killed an in-flight cohort.
    #[serde(default)]
    pub node_crash: u64,
    /// Fault injection: presumed abort on a commit-protocol response timeout.
    #[serde(default)]
    pub cohort_timeout: u64,
    /// Replication: no read/write set of live replicas was available.
    #[serde(default)]
    pub replica_unavailable: u64,
}

impl AbortBreakdown {
    /// Count one abort of the given cause.
    pub fn record(&mut self, cause: AbortCause) {
        match cause {
            AbortCause::Deadlock => self.deadlock += 1,
            AbortCause::Wound => self.wound += 1,
            AbortCause::Timestamp => self.timestamp += 1,
            AbortCause::Validation => self.validation += 1,
            AbortCause::LockTimeout => self.lock_timeout += 1,
            AbortCause::NodeCrash => self.node_crash += 1,
            AbortCause::CohortTimeout => self.cohort_timeout += 1,
            AbortCause::ReplicaUnavailable => self.replica_unavailable += 1,
        }
    }

    /// Sum over all causes.
    pub fn total(&self) -> u64 {
        self.deadlock
            + self.wound
            + self.timestamp
            + self.validation
            + self.lock_timeout
            + self.node_crash
            + self.cohort_timeout
            + self.replica_unavailable
    }

    /// Aborts attributable to injected faults rather than data contention.
    pub fn fault_induced(&self) -> u64 {
        self.node_crash + self.cohort_timeout + self.replica_unavailable
    }
}

/// Fault-injection event counters. Counted over the whole run (not reset at
/// warmup): the fault plan spans the run, and the chaos tests assert over
/// everything that happened, warmup included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Node crashes that took effect.
    #[serde(default)]
    pub crashes: u64,
    /// Node recoveries.
    #[serde(default)]
    pub recoveries: u64,
    /// Transactions that were mid-commit (vote or decision phase) when a
    /// node hosting one of their cohorts crashed.
    #[serde(default)]
    pub mid_commit_crashes: u64,
    /// Messages dropped in transit (each was retransmitted).
    #[serde(default)]
    pub msgs_dropped: u64,
    /// Messages given extra wire latency.
    #[serde(default)]
    pub msgs_delayed: u64,
    /// Messages that found their destination down and were retried.
    #[serde(default)]
    pub msgs_to_down_node: u64,
    /// Disk-stall intervals that took effect.
    #[serde(default)]
    pub disk_stalls: u64,
}

/// Distribution summary of one phase bucket (or of the end-to-end response
/// time): count, exact total/mean, and histogram-derived percentiles. All
/// times in seconds. The percentiles come from a log-bucketed histogram
/// with 32 sub-buckets per octave, so they carry ≤ ~1.6% relative error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Transactions contributing to this bucket (committed transactions for
    /// phase buckets; every bucket sees all of them, possibly with zero time).
    #[serde(default)]
    pub count: u64,
    /// Exact total time in this bucket across all contributors, seconds.
    #[serde(default)]
    pub total_s: f64,
    /// Exact mean time per contributor, seconds (0 when empty).
    #[serde(default)]
    pub mean_s: f64,
    /// Median, seconds (histogram-approximate).
    #[serde(default)]
    pub p50_s: f64,
    /// 95th percentile, seconds (histogram-approximate).
    #[serde(default)]
    pub p95_s: f64,
    /// 99th percentile, seconds (histogram-approximate).
    #[serde(default)]
    pub p99_s: f64,
}

/// Latency of aborted runs for one abort cause: how long a run lived
/// (run start → abort completion) before dying of this cause.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CauseLatency {
    /// The abort cause label (see `AbortCause::label`).
    #[serde(default)]
    pub cause: String,
    /// Aborted runs with this cause in the measurement window.
    #[serde(default)]
    pub count: u64,
    /// Mean run lifetime before the abort, seconds.
    #[serde(default)]
    pub mean_s: f64,
    /// Longest run lifetime before the abort, seconds.
    #[serde(default)]
    pub max_s: f64,
}

/// Where committed transactions spent their lifetimes, split into the six
/// disjoint [`PhaseBucket`]s (whose totals sum exactly to the end-to-end
/// response total), plus the response-time distribution itself and a
/// per-cause abort latency split.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Useful execution (no cohort lock-blocked).
    #[serde(default)]
    pub execute: PhaseStats,
    /// At least one cohort blocked on a lock.
    #[serde(default)]
    pub lock_wait: PhaseStats,
    /// Commit phase 1 (prepare/vote).
    #[serde(default)]
    pub prepare: PhaseStats,
    /// Commit phase 2 (decision/ack).
    #[serde(default)]
    pub commit: PhaseStats,
    /// Abort processing of runs that later restarted.
    #[serde(default)]
    pub abort: PhaseStats,
    /// Post-abort restart delays.
    #[serde(default)]
    pub restart_wait: PhaseStats,
    /// End-to-end response time (origin → commit); its total equals the sum
    /// of the six phase totals.
    #[serde(default)]
    pub response: PhaseStats,
    /// Aborted-run latency by cause (causes with no aborts are omitted).
    #[serde(default)]
    pub abort_latency: Vec<CauseLatency>,
}

impl PhaseBreakdown {
    /// The six phase entries paired with their bucket labels, in
    /// [`PhaseBucket::ALL`] order.
    pub fn phases(&self) -> [(&'static str, &PhaseStats); 6] {
        [
            ("execute", &self.execute),
            ("lock_wait", &self.lock_wait),
            ("prepare", &self.prepare),
            ("commit", &self.commit),
            ("abort", &self.abort),
            ("restart_wait", &self.restart_wait),
        ]
    }
}

/// Live phase-distribution collectors, fed by the simulator's observer only
/// when `trace.phase_stats` is enabled (the histograms are a few tens of
/// KiB and must not bloat every simulation).
///
/// The collector keeps its own clock per live transaction, driven by the
/// same phase and lock-wait probes the event trace records: each probe
/// charges the time since the previous one to the bucket the transaction
/// was in, so the six bucket totals partition its lifetime exactly.
#[derive(Debug, Clone)]
pub struct PhaseCollector {
    /// Per-bucket latency histograms over committed transactions (ns).
    hists: [LogHistogram; 6],
    /// Per-bucket exact total time over committed transactions (ns).
    totals: [u64; 6],
    /// End-to-end response-time histogram (ns).
    response: LogHistogram,
    /// Exact end-to-end response total (ns).
    response_total: u64,
    /// Aborted-run lifetime (run start → abort completion) per cause, seconds.
    abort_latency: [Tally; 8],
    /// Per-transaction clocks of the transactions still in the system.
    live: FxHashMap<TxnId, PhaseClock>,
}

/// One live transaction's clock: the bucket it is in, and the integer-ns
/// time charged so far to each bucket over its whole lifetime (all runs).
#[derive(Debug, Clone)]
struct PhaseClock {
    phase: TxnPhase,
    /// Cohorts of the current run blocked on a CC request (distinguishes
    /// `LockWait` from `Execute` inside `Executing`).
    blocked: u32,
    /// When `ns` was last brought up to date.
    since: SimTime,
    ns: [u64; 6],
}

impl PhaseClock {
    /// Charge the time since `since` to the current bucket.
    fn roll(&mut self, now: SimTime) {
        let bucket = PhaseBucket::of(self.phase, self.blocked);
        self.ns[bucket.index()] += now.since(self.since).0;
        self.since = now;
    }
}

/// Histogram resolution: 32 sub-buckets per octave (≤ ~1.6% error).
const PHASE_HIST_SUB_BITS: u32 = 5;

impl PhaseCollector {
    /// Create a new instance.
    pub fn new() -> PhaseCollector {
        PhaseCollector {
            hists: std::array::from_fn(|_| LogHistogram::new(PHASE_HIST_SUB_BITS)),
            totals: [0; 6],
            response: LogHistogram::new(PHASE_HIST_SUB_BITS),
            response_total: 0,
            abort_latency: std::array::from_fn(|_| Tally::new()),
            live: FxHashMap::default(),
        }
    }

    /// `txn` entered `phase` at `at`; its first phase starts its clock. A
    /// fresh run (`Executing`) starts with no cohort blocked.
    pub(crate) fn phase(&mut self, at: SimTime, txn: TxnId, phase: TxnPhase) {
        let clock = self.live.entry(txn).or_insert(PhaseClock {
            phase,
            blocked: 0,
            since: at,
            ns: [0; 6],
        });
        clock.roll(at);
        clock.phase = phase;
        if phase == TxnPhase::Executing {
            clock.blocked = 0;
        }
    }

    /// A cohort of `txn` began (`begin`) or ended a lock wait at `at`.
    pub(crate) fn lock_wait(&mut self, at: SimTime, txn: TxnId, begin: bool) {
        if let Some(clock) = self.live.get_mut(&txn) {
            clock.roll(at);
            if begin {
                clock.blocked += 1;
            } else {
                clock.blocked = clock.blocked.saturating_sub(1);
            }
        }
    }

    /// `txn` committed at `at` after `response` end to end: record its
    /// lifetime split and response time, and drop its clock.
    pub(crate) fn committed(&mut self, at: SimTime, txn: TxnId, response: SimDuration) {
        let Some(mut clock) = self.live.remove(&txn) else {
            return;
        };
        clock.roll(at);
        for (i, &ns) in clock.ns.iter().enumerate() {
            self.hists[i].record(ns);
            self.totals[i] += ns;
        }
        self.response.record(response.0);
        self.response_total += response.0;
    }

    /// Record an aborted run's lifetime (run start → abort completion).
    pub fn record_abort(&mut self, cause: AbortCause, lifetime: SimDuration) {
        self.abort_latency[cause.index()].record_duration(lifetime);
    }

    /// End of warmup: discard everything measured so far. The live clocks
    /// survive: a transaction straddling the warmup boundary is still
    /// accounted over its whole lifetime when it commits.
    pub fn reset(&mut self) {
        for h in &mut self.hists {
            h.reset();
        }
        self.totals = [0; 6];
        self.response.reset();
        self.response_total = 0;
        for t in &mut self.abort_latency {
            t.reset();
        }
    }

    /// Summarize into the report's [`PhaseBreakdown`].
    pub fn breakdown(&self) -> PhaseBreakdown {
        let ns = 1e-9;
        let stats = |h: &LogHistogram, total: u64| {
            let count = h.count();
            PhaseStats {
                count,
                total_s: total as f64 * ns,
                mean_s: if count == 0 {
                    0.0
                } else {
                    total as f64 * ns / count as f64
                },
                p50_s: h.p50().unwrap_or(0) as f64 * ns,
                p95_s: h.p95().unwrap_or(0) as f64 * ns,
                p99_s: h.p99().unwrap_or(0) as f64 * ns,
            }
        };
        let phase = |b: PhaseBucket| stats(&self.hists[b.index()], self.totals[b.index()]);
        PhaseBreakdown {
            execute: phase(PhaseBucket::Execute),
            lock_wait: phase(PhaseBucket::LockWait),
            prepare: phase(PhaseBucket::Prepare),
            commit: phase(PhaseBucket::Commit),
            abort: phase(PhaseBucket::Abort),
            restart_wait: phase(PhaseBucket::RestartWait),
            response: stats(&self.response, self.response_total),
            abort_latency: AbortCause::ALL
                .iter()
                .filter_map(|&cause| {
                    let t = &self.abort_latency[cause.index()];
                    (t.count() > 0).then(|| CauseLatency {
                        cause: cause.label().to_string(),
                        count: t.count(),
                        mean_s: t.mean(),
                        max_s: t.max().unwrap_or(0.0),
                    })
                })
                .collect(),
        }
    }
}

impl Default for PhaseCollector {
    fn default() -> Self {
        Self::new()
    }
}

/// Live collectors, reset at the end of warmup.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    /// Response time.
    pub response_time: Tally,
    /// All-time response tally (never reset): drives the restart delay,
    /// which the paper bases on the observed average response time.
    pub response_time_alltime: Tally,
    /// Committed transactions in the window.
    pub commits: u64,
    /// Aborted runs in the window.
    pub aborts: u64,
    /// Aborted runs in the window, by cause.
    pub aborts_by_cause: AbortBreakdown,
    /// Fault-injection counters (whole run; never reset).
    pub faults: FaultStats,
    /// Time cohorts spent blocked on a CC request (per blocking episode).
    pub blocking_time: Tally,
    /// Measure start.
    pub measure_start: SimTime,
    /// Commits since simulation start (never reset; warmup accounting).
    pub total_commits: u64,
    /// Batch-means estimator over response times (batches of 100 commits),
    /// for the confidence interval reported in `RunReport`.
    pub response_batches: BatchMeans,
}

impl MetricsCollector {
    /// Create a new instance.
    pub fn new() -> MetricsCollector {
        MetricsCollector {
            response_time: Tally::new(),
            response_time_alltime: Tally::new(),
            commits: 0,
            aborts: 0,
            aborts_by_cause: AbortBreakdown::default(),
            faults: FaultStats::default(),
            blocking_time: Tally::new(),
            measure_start: SimTime::ZERO,
            total_commits: 0,
            response_batches: BatchMeans::new(100),
        }
    }

    /// `record_commit`.
    pub fn record_commit(&mut self, response: SimDuration) {
        self.commits += 1;
        self.total_commits += 1;
        self.response_time.record_duration(response);
        self.response_time_alltime.record_duration(response);
        self.response_batches.record(response.as_secs_f64());
    }

    /// `record_abort`.
    pub fn record_abort(&mut self, cause: AbortCause) {
        self.aborts += 1;
        self.aborts_by_cause.record(cause);
    }

    /// `record_blocking`.
    pub fn record_blocking(&mut self, blocked_for: SimDuration) {
        self.blocking_time.record_duration(blocked_for);
    }

    /// The restart delay: one observed average response time (as in the
    /// paper, following Agrawal et al.). Before the first commit, fall back
    /// to the caller-provided estimate.
    pub fn restart_delay(&self, fallback: SimDuration) -> SimDuration {
        if self.response_time_alltime.count() == 0 {
            fallback
        } else {
            SimDuration::from_secs_f64(self.response_time_alltime.mean())
        }
    }

    /// End of warmup: discard everything measured so far.
    pub fn reset(&mut self, now: SimTime) {
        self.response_time.reset();
        self.commits = 0;
        self.aborts = 0;
        self.aborts_by_cause = AbortBreakdown::default();
        self.blocking_time.reset();
        self.response_batches.reset();
        self.measure_start = now;
    }
}

impl Default for MetricsCollector {
    fn default() -> Self {
        Self::new()
    }
}

/// The final report of one simulation run. `PartialEq` compares the float
/// fields exactly (no epsilon): two reports are equal only when the runs
/// were bit-for-bit identical, which is what the determinism tests assert.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Committed transactions in the measurement window.
    pub commits: u64,
    /// Aborted runs in the measurement window.
    pub aborts: u64,
    /// Transactions per second.
    pub throughput: f64,
    /// Mean end-to-end response time (first submission → successful commit),
    /// seconds.
    pub mean_response_time: f64,
    /// Standard deviation of the response time, seconds.
    pub response_time_std: f64,
    /// Half-width of the ~95% batch-means confidence interval on the mean
    /// response time, seconds (0 when fewer than two 100-commit batches
    /// completed).
    #[serde(default)]
    pub response_time_ci95: f64,
    /// Aborts per commit (the paper's abort ratio).
    pub abort_ratio: f64,
    /// Mean duration of one blocking episode, seconds (locking algorithms).
    pub mean_blocking_time: f64,
    /// Host CPU utilization.
    pub host_cpu_utilization: f64,
    /// Mean CPU utilization across processing nodes.
    pub proc_cpu_utilization: f64,
    /// Mean disk utilization across processing-node disks.
    pub disk_utilization: f64,
    /// Simulated seconds in the measurement window.
    pub measured_seconds: f64,
    /// True when the run hit `max_sim_time` before reaching its commit
    /// target (thrashing configurations).
    pub truncated: bool,
    /// Extension: fraction of read accesses served from the buffer pool
    /// (always 0 with the paper's settings, which disable buffering).
    #[serde(default)]
    pub buffer_hit_ratio: f64,
    /// Extension: aborts in the measurement window split by cause (all
    /// zeros unless contention or faults caused aborts).
    #[serde(default)]
    pub aborts_by_cause: AbortBreakdown,
    /// Extension: fault-injection counters over the whole run (all zeros
    /// for fault-free configurations).
    #[serde(default)]
    pub fault_stats: FaultStats,
    /// Extension: true when the run was asked to drain (stop admissions
    /// after the commit target and wait for every live transaction to
    /// finish) and every transaction did terminate. Always false for
    /// ordinary runs, which stop at the commit target.
    #[serde(default)]
    pub drained: bool,
    /// Extension: per-phase latency breakdown over committed transactions,
    /// present only when the run was configured with `trace.phase_stats`.
    #[serde(default)]
    pub phase_breakdown: Option<PhaseBreakdown>,
}

impl RunReport {
    /// Throughput speedup of `self` relative to a baseline run.
    pub fn throughput_speedup_over(&self, base: &RunReport) -> f64 {
        if base.throughput <= 0.0 {
            f64::NAN
        } else {
            self.throughput / base.throughput
        }
    }

    /// Response-time speedup (baseline response ÷ ours; >1 is better).
    pub fn response_speedup_over(&self, base: &RunReport) -> f64 {
        if self.mean_response_time <= 0.0 {
            f64::NAN
        } else {
            base.mean_response_time / self.mean_response_time
        }
    }

    /// Percentage response-time degradation relative to a (faster) baseline:
    /// `100 · (ours − base) / base`, the quantity in paper Figures 10–11.
    pub fn degradation_vs(&self, base: &RunReport) -> f64 {
        if base.mean_response_time <= 0.0 {
            f64::NAN
        } else {
            100.0 * (self.mean_response_time - base.mean_response_time) / base.mean_response_time
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(tps: f64, rt: f64) -> RunReport {
        RunReport {
            commits: 100,
            aborts: 10,
            throughput: tps,
            mean_response_time: rt,
            response_time_std: 0.0,
            response_time_ci95: 0.0,
            abort_ratio: 0.1,
            mean_blocking_time: 0.0,
            host_cpu_utilization: 0.5,
            proc_cpu_utilization: 0.5,
            disk_utilization: 0.5,
            measured_seconds: 100.0,
            truncated: false,
            buffer_hit_ratio: 0.0,
            aborts_by_cause: AbortBreakdown::default(),
            fault_stats: FaultStats::default(),
            drained: false,
            phase_breakdown: None,
        }
    }

    #[test]
    fn collector_reset_clears_window_but_not_alltime() {
        let mut m = MetricsCollector::new();
        m.record_commit(SimDuration::from_millis(500));
        m.record_abort(AbortCause::Deadlock);
        m.faults.crashes += 1;
        m.reset(SimTime(1_000));
        assert_eq!(m.commits, 0);
        assert_eq!(m.aborts, 0);
        assert_eq!(m.aborts_by_cause, AbortBreakdown::default());
        assert_eq!(m.faults.crashes, 1, "fault counters span the whole run");
        assert_eq!(m.total_commits, 1);
        assert_eq!(m.response_time.count(), 0);
        assert_eq!(m.response_time_alltime.count(), 1);
        assert_eq!(m.measure_start, SimTime(1_000));
    }

    #[test]
    fn phase_clock_partitions_lifetime_exactly() {
        let mut p = PhaseCollector::new();
        let t = TxnId(1);
        p.phase(SimTime(100), t, TxnPhase::Executing);
        p.lock_wait(SimTime(150), t, true); // 50 ns Execute
        p.lock_wait(SimTime(170), t, false); // 20 ns LockWait
        p.phase(SimTime(180), t, TxnPhase::Preparing); // 10 ns Execute
        p.phase(SimTime(200), t, TxnPhase::Committing); // 20 ns Prepare
        p.committed(SimTime(230), t, SimDuration(130)); // 30 ns Commit
        assert_eq!(p.totals, [60, 20, 20, 30, 0, 0]);
        assert_eq!(p.totals.iter().sum::<u64>(), p.response_total);
        assert!(p.live.is_empty(), "a commit drops the clock");

        // A restart preserves the lifetime accounting and starts the fresh
        // run unblocked, and the warmup reset spares the live clock.
        let t = TxnId(2);
        p.reset();
        p.phase(SimTime(0), t, TxnPhase::Executing);
        p.lock_wait(SimTime(10), t, true); // 10 ns Execute
        p.phase(SimTime(30), t, TxnPhase::Aborting); // 20 ns LockWait
        p.phase(SimTime(40), t, TxnPhase::WaitingRestart); // 10 ns Abort
        p.reset();
        p.phase(SimTime(60), t, TxnPhase::Executing); // 20 ns RestartWait
        p.phase(SimTime(70), t, TxnPhase::Preparing); // 10 ns Execute
        p.phase(SimTime(75), t, TxnPhase::Committing); // 5 ns Prepare
        p.committed(SimTime(80), t, SimDuration(80)); // 5 ns Commit
        assert_eq!(p.totals, [20, 20, 5, 5, 10, 20]);
        assert_eq!(p.totals[PhaseBucket::RestartWait.index()], 20);
        assert_eq!(p.totals.iter().sum::<u64>(), 80);
        assert_eq!(p.breakdown().response.count, 1);
    }

    #[test]
    fn abort_breakdown_tracks_every_cause_and_sums() {
        let mut m = MetricsCollector::new();
        let causes = [
            AbortCause::Deadlock,
            AbortCause::Wound,
            AbortCause::Timestamp,
            AbortCause::Validation,
            AbortCause::LockTimeout,
            AbortCause::NodeCrash,
            AbortCause::CohortTimeout,
            AbortCause::ReplicaUnavailable,
        ];
        for (i, c) in causes.iter().enumerate() {
            for _ in 0..=i {
                m.record_abort(*c);
            }
        }
        let b = m.aborts_by_cause;
        assert_eq!(
            [
                b.deadlock,
                b.wound,
                b.timestamp,
                b.validation,
                b.lock_timeout,
                b.node_crash,
                b.cohort_timeout,
                b.replica_unavailable
            ],
            [1, 2, 3, 4, 5, 6, 7, 8]
        );
        assert_eq!(b.total(), m.aborts, "split must sum to the aggregate");
        assert_eq!(b.fault_induced(), 6 + 7 + 8);
    }

    #[test]
    fn restart_delay_uses_observed_mean() {
        let mut m = MetricsCollector::new();
        let fallback = SimDuration::from_millis(77);
        assert_eq!(m.restart_delay(fallback), fallback);
        m.record_commit(SimDuration::from_millis(200));
        m.record_commit(SimDuration::from_millis(400));
        assert_eq!(m.restart_delay(fallback), SimDuration::from_millis(300));
    }

    #[test]
    fn speedup_and_degradation_math() {
        let base = report(10.0, 2.0);
        let fast = report(40.0, 0.5);
        assert!((fast.throughput_speedup_over(&base) - 4.0).abs() < 1e-12);
        assert!((fast.response_speedup_over(&base) - 4.0).abs() < 1e-12);
        assert!((base.degradation_vs(&fast) - 300.0).abs() < 1e-12);
        assert!((fast.degradation_vs(&fast)).abs() < 1e-12);
    }

    #[test]
    fn degenerate_baselines_yield_nan() {
        let zero = report(0.0, 0.0);
        let ok = report(10.0, 1.0);
        assert!(ok.throughput_speedup_over(&zero).is_nan());
        assert!(zero.response_speedup_over(&ok).is_nan());
        assert!(ok.degradation_vs(&zero).is_nan());
    }
}
