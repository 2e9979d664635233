//! Serde round-trips for the report types: every struct the harness writes
//! to JSON must deserialize back to an equal value, including the awkward
//! corners — empty `Tally` sentinels (±inf min/max), absent optional
//! fields, and reports populated by a real faulty run.

use ddbm_config::{Algorithm, Config};
use ddbm_core::{run_config, AbortBreakdown, FaultStats, RunReport};
use denet::{SimDuration, Tally};

fn roundtrip<T>(v: &T) -> T
where
    T: serde::Serialize + serde::Deserialize,
{
    let json = serde_json::to_string_pretty(v).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn abort_breakdown_roundtrips() {
    let b = AbortBreakdown {
        deadlock: 1,
        wound: 2,
        timestamp: 3,
        validation: 4,
        lock_timeout: 5,
        node_crash: 6,
        cohort_timeout: 7,
        replica_unavailable: 8,
    };
    assert_eq!(roundtrip(&b), b);
    assert_eq!(
        roundtrip(&AbortBreakdown::default()),
        AbortBreakdown::default()
    );
}

#[test]
fn fault_stats_roundtrip() {
    let f = FaultStats {
        crashes: 1,
        recoveries: 2,
        mid_commit_crashes: 3,
        msgs_dropped: 4,
        msgs_delayed: 5,
        msgs_to_down_node: 6,
        disk_stalls: 7,
    };
    assert_eq!(roundtrip(&f), f);
    assert_eq!(roundtrip(&FaultStats::default()), FaultStats::default());
}

#[test]
fn empty_tally_survives_the_trip() {
    // An empty tally holds min = +inf / max = -inf sentinels, which JSON
    // cannot represent; the manual serde impl must rebuild them.
    let t: Tally = roundtrip(&Tally::new());
    assert_eq!(t.count(), 0);
    assert_eq!(t.min(), None);
    assert_eq!(t.max(), None);
    // Recording into a round-tripped empty tally behaves like a fresh one.
    let mut fresh = Tally::new();
    let mut tripped = t;
    fresh.record(3.5);
    tripped.record(3.5);
    assert_eq!(fresh.min(), tripped.min());
    assert_eq!(fresh.max(), tripped.max());
    assert_eq!(fresh.mean(), tripped.mean());
}

#[test]
fn populated_tally_roundtrips_exactly() {
    let mut t = Tally::new();
    for x in [0.25, -1.5, 7.0, 3.125] {
        t.record(x);
    }
    let r: Tally = roundtrip(&t);
    assert_eq!(r.count(), t.count());
    assert_eq!(r.mean(), t.mean());
    assert_eq!(r.variance(), t.variance());
    assert_eq!(r.min(), t.min());
    assert_eq!(r.max(), t.max());
}

/// A real report from a small faulty run with phase stats on: the abort
/// breakdown, fault counters, and optional phase breakdown all populated.
#[test]
fn real_run_report_roundtrips() {
    let mut c = Config::paper(Algorithm::TwoPhaseLocking, 4, 4, 0.0);
    c.workload.num_terminals = 16;
    c.database.pages_per_file = 50;
    c.control.warmup_commits = 0;
    c.control.measure_commits = 100;
    c.control.seed = 11;
    c.control.max_sim_time = SimDuration::from_secs_f64(500.0);
    c.trace.phase_stats = true;
    c.faults.crash_rate = 0.05;
    c.faults.recovery = SimDuration::from_secs_f64(1.0);
    c.faults.cohort_timeout = SimDuration::from_secs_f64(3.0);
    let report = run_config(c).expect("valid config");
    assert!(report.commits > 0);
    assert!(report.phase_breakdown.is_some(), "phase stats were enabled");
    // `RunReport` equality is exact (bit-for-bit floats) — the same
    // comparison the determinism tests use.
    assert_eq!(roundtrip(&report), report);
}

/// A fault-free, phase-stats-free report: the optional extension fields
/// are absent or zero, and must still round-trip to an equal value.
#[test]
fn plain_run_report_roundtrips() {
    let mut c = Config::paper(Algorithm::Optimistic, 2, 2, 1.0);
    c.control.warmup_commits = 0;
    c.control.measure_commits = 50;
    c.control.seed = 3;
    let report = run_config(c).expect("valid config");
    assert!(report.phase_breakdown.is_none());
    assert_eq!(report.fault_stats, FaultStats::default());
    assert_eq!(roundtrip(&report), report);
}

/// Absent optional fields deserialize to their defaults: a pre-extension
/// JSON document (no aborts_by_cause / fault_stats / phase_breakdown)
/// still loads.
#[test]
fn missing_extension_fields_default() {
    let json = r#"{
        "commits": 10, "aborts": 1, "throughput": 2.5,
        "mean_response_time": 0.5, "response_time_std": 0.1,
        "abort_ratio": 0.1, "mean_blocking_time": 0.0,
        "host_cpu_utilization": 0.5, "proc_cpu_utilization": 0.5,
        "disk_utilization": 0.5, "measured_seconds": 4.0,
        "truncated": false
    }"#;
    let r: RunReport = serde_json::from_str(json).expect("old document loads");
    assert_eq!(r.commits, 10);
    assert_eq!(r.aborts_by_cause, AbortBreakdown::default());
    assert_eq!(r.fault_stats, FaultStats::default());
    assert!(r.phase_breakdown.is_none());
    assert_eq!(r.buffer_hit_ratio, 0.0);
    assert_eq!(r.response_time_ci95, 0.0);
}

/// A config document written before the trace capacity knobs were retired
/// (every older `.repro.json` carries `event_capacity` and
/// `witness_capacity`) still loads, to the same `Config`: unknown keys are
/// ignored.
#[test]
fn retired_trace_capacity_keys_are_ignored() {
    let mut c = Config::paper(Algorithm::WoundWait, 4, 4, 1.0);
    c.trace.witness = true;
    let json = serde_json::to_string(&c).expect("serializes");
    let with_retired = json.replacen(
        "\"trace\":{",
        "\"trace\":{\"event_capacity\":4096,\"witness_capacity\":0,",
        1,
    );
    assert_ne!(with_retired, json, "the trace object is present");
    let loaded: Config = serde_json::from_str(&with_retired).expect("old document loads");
    assert_eq!(loaded, c);
}
