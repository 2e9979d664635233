//! Observability-layer integration tests: the trace must be a lossless
//! account of where simulated time went, and turning it on must not perturb
//! the simulation.
//!
//! * trace-on runs are bit-identical to trace-off runs (branch-only gating);
//! * each committed transaction's phase spans partition its lifetime
//!   exactly (integer nanoseconds, no gaps, no overlaps);
//! * `PhaseBreakdown` counts/means/percentiles match a reference
//!   computation over the per-transaction latencies reconstructed from the
//!   event trace (fault-free, under node crashes, and under replication);
//! * the Chrome-trace and JSONL exports are structurally valid.

use ddbm::config::{Algorithm, Config, ReplicationParams};
use ddbm::core::{run_config, run_traced, PhaseBucket, RunReport, TraceLog};

/// The determinism suite's small 2PL configuration: locks, blocking, and
/// the Snoop deadlock detector on a 4-node machine.
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

fn traced_small() -> (RunReport, TraceLog) {
    run_traced(small_config()).expect("valid config")
}

/// Tracing must be observation only: phase stats and the event recorder
/// draw no randomness and schedule no events, so the report is bit-equal
/// to an untraced run of the same seed.
#[test]
fn tracing_does_not_perturb_results() {
    let plain = run_config(small_config()).expect("valid config");
    let (traced, _) = traced_small();
    assert_eq!(plain.commits, traced.commits);
    assert_eq!(plain.aborts, traced.aborts);
    assert_eq!(
        plain.throughput.to_bits(),
        traced.throughput.to_bits(),
        "throughput must be bit-identical with tracing on"
    );
    assert_eq!(
        plain.mean_response_time.to_bits(),
        traced.mean_response_time.to_bits(),
        "mean response time must be bit-identical with tracing on"
    );
    assert!(plain.phase_breakdown.is_none());
    assert!(traced.phase_breakdown.is_some());
}

/// Every committed transaction's spans must tile `[submitted, committed]`
/// exactly: consecutive, non-overlapping, summing to the end-to-end
/// latency in integer nanoseconds.
#[test]
fn spans_partition_each_transaction_lifetime() {
    let (report, trace) = traced_small();
    assert_eq!(trace.dropped, 0, "ring must not wrap on this small run");
    let txns = trace.txn_traces();
    let committed: Vec<_> = txns.iter().filter(|t| t.committed.is_some()).collect();
    assert!(
        committed.len() as u64 >= report.commits,
        "trace must cover at least the measured commits"
    );
    for t in &committed {
        let end = t.committed.expect("filtered on committed");
        let mut cursor = t.submitted;
        for span in &t.spans {
            assert_eq!(
                span.start, cursor,
                "txn {:?}: spans must be consecutive",
                t.txn
            );
            assert!(span.end >= span.start);
            cursor = span.end;
        }
        assert_eq!(
            cursor, end,
            "txn {:?}: spans must end at the commit instant",
            t.txn
        );
        let total: u64 = t.spans.iter().map(|s| s.end.0 - s.start.0).sum();
        assert_eq!(
            total,
            end.0 - t.submitted.0,
            "txn {:?}: span durations must sum to the end-to-end latency",
            t.txn
        );
    }
}

/// Ceiling-rank percentile over exact values — the reference the
/// histogram-derived numbers are checked against.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The log-bucketed histograms use 5 sub-bucket bits, so a representative
/// value is within 1/64 of the exact order statistic.
fn assert_close(got_s: f64, exact_ns: u64, what: &str) {
    let exact_s = exact_ns as f64 * 1e-9;
    let tol = exact_s / 64.0 + 1e-12;
    assert!(
        (got_s - exact_s).abs() <= tol,
        "{what}: histogram {got_s} vs exact {exact_s} (tol {tol})"
    );
}

/// `PhaseBreakdown` must agree with a reference computation over the
/// per-transaction values reconstructed independently from the event
/// trace: exact counts and means, percentiles within the histogram's
/// guaranteed error bound. Besides the small 2PL run, two inputs stress
/// the bucket accounting: node crashes (the crash sweep aborts cohorts
/// that are still blocked on locks, so their waits end in the abort, not
/// in a grant) and 3-way ROWA (a transaction blocks at several replicas).
#[test]
fn phase_breakdown_matches_trace_reference() {
    check_breakdown_against_trace("2pl", small_config());

    let mut crashes = small_config();
    crashes.faults.crash_rate = 0.05;
    // Long enough that a transaction whose lock wait a crash cut short
    // commits inside the measured window after its restart.
    crashes.control.measure_commits = 150;
    let report = check_breakdown_against_trace("2pl crash", crashes);
    assert!(report.fault_stats.crashes > 0, "the crash input must crash");
    assert!(report.aborts_by_cause.node_crash > 0);

    let mut rowa = small_config();
    rowa.replication = ReplicationParams::rowa(3);
    check_breakdown_against_trace("2pl rowa3", rowa);
}

fn check_breakdown_against_trace(what: &str, config: Config) -> RunReport {
    let warmup = config.control.warmup_commits as usize;
    let (report, trace) = run_traced(config).expect("valid config");
    assert_eq!(trace.dropped, 0, "{what}: ring must not wrap");
    let breakdown = report.phase_breakdown.as_ref().expect("tracing enabled");

    // Measured transactions are the post-warmup commits, in commit order.
    let mut committed: Vec<_> = trace
        .txn_traces()
        .into_iter()
        .filter(|t| t.committed.is_some())
        .collect();
    committed.sort_by_key(|t| t.committed.expect("filtered"));
    let measured: Vec<_> = committed
        .into_iter()
        .skip(warmup)
        .take(report.commits as usize)
        .collect();
    assert_eq!(measured.len() as u64, report.commits);
    assert_eq!(breakdown.response.count, report.commits);

    // End-to-end latency: exact count, exact mean, bounded percentiles.
    let mut latencies: Vec<u64> = measured
        .iter()
        .map(|t| t.committed.expect("filtered").0 - t.submitted.0)
        .collect();
    latencies.sort_unstable();
    let mean_s = latencies.iter().sum::<u64>() as f64 * 1e-9 / latencies.len() as f64;
    assert!(
        (breakdown.response.mean_s - mean_s).abs() <= mean_s * 1e-12,
        "{what}: mean is tracked exactly, not through the histogram"
    );
    assert_close(
        breakdown.response.p50_s,
        exact_quantile(&latencies, 0.50),
        &format!("{what} response p50"),
    );
    assert_close(
        breakdown.response.p95_s,
        exact_quantile(&latencies, 0.95),
        &format!("{what} response p95"),
    );
    assert_close(
        breakdown.response.p99_s,
        exact_quantile(&latencies, 0.99),
        &format!("{what} response p99"),
    );

    // Per-phase times, reconstructed per transaction from the spans, must
    // reproduce each phase's stats.
    for (bucket, (label, stats)) in PhaseBucket::ALL.iter().zip(breakdown.phases()) {
        let mut per_txn: Vec<u64> = measured
            .iter()
            .map(|t| {
                t.spans
                    .iter()
                    .filter(|s| s.bucket == *bucket)
                    .map(|s| s.end.0 - s.start.0)
                    .sum()
            })
            .collect();
        per_txn.sort_unstable();
        assert_eq!(
            stats.count, report.commits,
            "{what} {label}: one sample per commit"
        );
        let total_s = per_txn.iter().sum::<u64>() as f64 * 1e-9;
        assert!(
            (stats.total_s - total_s).abs() <= total_s * 1e-12 + 1e-15,
            "{what} {label}: total from spans {total_s} vs breakdown {}",
            stats.total_s
        );
        let label = format!("{what} {label}");
        assert_close(stats.p50_s, exact_quantile(&per_txn, 0.50), &label);
        assert_close(stats.p95_s, exact_quantile(&per_txn, 0.95), &label);
    }

    // The phase means must sum to the response mean: the six buckets
    // partition each lifetime.
    let phase_mean_sum: f64 = breakdown.phases().iter().map(|(_, s)| s.mean_s).sum();
    assert!(
        (phase_mean_sum - breakdown.response.mean_s).abs() <= breakdown.response.mean_s * 1e-9,
        "{what}: phase means {phase_mean_sum} must sum to response mean {}",
        breakdown.response.mean_s
    );
    report
}

/// The exporters must emit structurally valid output: balanced JSON for the
/// Chrome trace, one object per line for the JSONL stream.
#[test]
fn exports_are_structurally_valid() {
    let (_, trace) = traced_small();
    let mut chrome = Vec::new();
    trace
        .write_chrome_trace(&mut chrome)
        .expect("in-memory write");
    let chrome = String::from_utf8(chrome).expect("utf8");
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.trim_end().ends_with('}'));
    let balance = |s: &str, open: char, close: char| {
        s.chars().filter(|c| *c == open).count() as i64
            - s.chars().filter(|c| *c == close).count() as i64
    };
    assert_eq!(balance(&chrome, '{', '}'), 0, "chrome JSON braces balance");
    assert_eq!(
        balance(&chrome, '[', ']'),
        0,
        "chrome JSON brackets balance"
    );

    let mut jsonl = Vec::new();
    trace.write_jsonl(&mut jsonl).expect("in-memory write");
    let jsonl = String::from_utf8(jsonl).expect("utf8");
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), trace.events.len());
    for line in lines {
        assert!(line.starts_with("{\"t\":"), "each line is one event object");
        assert!(line.ends_with('}'));
        assert_eq!(balance(line, '{', '}'), 0);
    }
}
