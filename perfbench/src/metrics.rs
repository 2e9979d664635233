//! The metrics the benchmark reports, and the files generated from them:
//! `BENCHMARK.json` (the run contract) and `perfbench/rationale.json`
//! (which end-to-end metric each layer metric should move, the worker count
//! and the host).

use crate::workloads::Workload;
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
    /// What the metric is, in one line.
    pub what: &'static str,
    /// Per-layer only: the end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        what,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        what,
        moves,
    }
}

use Better::{Higher, Lower};

/// Metrics of the untraced pass (`--trace 0`).
pub const END_TO_END: [Metric; 6] = [
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "median per round of config building plus every Simulator::new, summed over the round",
    ),
    e2e(
        "wall_s",
        "s",
        Lower,
        0.25,
        "median over rounds of the wall time of one round (every simulation of the workload once)",
    ),
    e2e(
        "commits_per_s",
        "1/s",
        Higher,
        0.25,
        "median per round of simulated commits (warmup included) per wall second",
    ),
    e2e(
        "run_ms_p50",
        "ms",
        Lower,
        0.25,
        "median per-simulation wall time (run, or run_and_check on verify)",
    ),
    e2e(
        "run_ms_p90",
        "ms",
        Lower,
        0.25,
        "90th percentile of per-simulation wall time, over every simulation of every round",
    ),
    e2e(
        "peak_heap_mb",
        "MB",
        Lower,
        0.15,
        "median per round of the peak live heap while the round ran",
    ),
];

/// Metrics of the traced pass (`--trace 1`).
pub const PER_LAYER: [Metric; 32] = [
    layer(
        "ddbm-experiments.parallel_efficiency",
        "1",
        Higher,
        "summed per-simulation wall / (workers x pass wall)",
        "wall_s on all workloads",
    ),
    layer(
        "ddbm-experiments.executed",
        "count",
        Higher,
        "simulations Runner::run_all executed for the reference outcomes",
        "wall_s on all workloads",
    ),
    layer(
        "ddbm-core.new_ms",
        "ms",
        Lower,
        "mean Simulator::new wall",
        "setup_s on all workloads, most on verify",
    ),
    layer(
        "ddbm-core.template_ns",
        "ns",
        Lower,
        "mean wall of one generate_template_into call",
        "commits_per_s on uncontended",
    ),
    layer(
        "ddbm-core.accesses_per_txn",
        "count",
        Lower,
        "page accesses per generated (logical) transaction plan",
        "commits_per_s on uncontended",
    ),
    layer(
        "ddbm-cc.replay_s",
        "s",
        Lower,
        "wall of replaying every witnessed CC call into fresh managers",
        "commits_per_s on contended; none on uncontended",
    ),
    layer(
        "ddbm-cc.share",
        "1",
        Lower,
        "ddbm-cc.replay_s / summed untraced run wall",
        "commits_per_s on contended; none on uncontended",
    ),
    layer(
        "ddbm-cc.ns_per_request",
        "ns",
        Lower,
        "replay wall per replayed CC call (access, certify or release)",
        "commits_per_s on contended; none on uncontended",
    ),
    layer(
        "ddbm-cc.requests_per_commit",
        "count",
        Lower,
        "access requests per commit (warmup included)",
        "commits_per_s on contended; none on uncontended",
    ),
    layer(
        "ddbm-cc.blocked_per_request",
        "1",
        Lower,
        "share of access requests answered Blocked",
        "commits_per_s on contended; none on uncontended",
    ),
    layer(
        "ddbm-cc.rejected_per_request",
        "1",
        Lower,
        "share of access requests answered Rejected",
        "commits_per_s on contended; none on uncontended",
    ),
    layer(
        "ddbm-cc.releases_per_commit",
        "count",
        Lower,
        "commit and abort releases per commit",
        "commits_per_s on contended; none on uncontended",
    ),
    layer(
        "ddbm-cc.replay_mismatches",
        "count",
        Lower,
        "replayed replies that differ from the witnessed ones (any is a failure)",
        "none: a fidelity check",
    ),
    layer(
        "engine.self_s",
        "s",
        Lower,
        "summed untraced run wall minus CC replay minus template generation",
        "commits_per_s on uncontended",
    ),
    layer(
        "ddbm-resource.cpu_transitions_per_commit",
        "count",
        Lower,
        "node CPU busy/idle transitions per commit",
        "commits_per_s on uncontended",
    ),
    layer(
        "ddbm-resource.disk_transitions_per_commit",
        "count",
        Lower,
        "node disk busy/idle transitions per commit",
        "commits_per_s on uncontended",
    ),
    layer(
        "ddbm-core.protocol.msgs_per_commit",
        "count",
        Lower,
        "protocol messages sent per commit",
        "none: describes the simulated machine",
    ),
    layer(
        "ddbm-core.protocol.lock_waits_per_commit",
        "count",
        Lower,
        "cohort lock waits per commit",
        "none: describes the simulated machine",
    ),
    layer(
        "ddbm-core.protocol.phase_changes_per_commit",
        "count",
        Lower,
        "coordinator phase transitions per commit",
        "none: describes the simulated machine",
    ),
    layer(
        "ddbm-core.protocol.commit_ratio",
        "1",
        Higher,
        "commits / (commits + aborts) in the measured window",
        "none: describes the simulated machine",
    ),
    layer(
        "ddbm-core.observe.trace_overhead",
        "1",
        Lower,
        "summed run_traced wall / summed run wall",
        "wall_s and peak_heap_mb on verify",
    ),
    layer(
        "ddbm-core.observe.witness_overhead",
        "1",
        Lower,
        "summed run_oracle wall / summed run wall",
        "wall_s and peak_heap_mb on verify",
    ),
    layer(
        "ddbm-core.observe.witness_events_per_commit",
        "count",
        Lower,
        "witness events recorded per commit",
        "wall_s and peak_heap_mb on verify",
    ),
    layer(
        "ddbm-oracle.check_s",
        "s",
        Lower,
        "summed wall of every checker pass",
        "wall_s on verify; none elsewhere",
    ),
    layer(
        "ddbm-oracle.share",
        "1",
        Lower,
        "check_s / (run_oracle wall + check_s): the checkers' part of a gate cell",
        "wall_s on verify; none elsewhere",
    ),
    layer(
        "ddbm-oracle.ns_per_event",
        "ns",
        Lower,
        "check_s per checked witness event",
        "wall_s on verify; none elsewhere",
    ),
    layer(
        "ddbm-oracle.phase_s",
        "s",
        Lower,
        "PhaseTracker pass wall",
        "wall_s on verify; none elsewhere",
    ),
    layer(
        "ddbm-oracle.lock_s",
        "s",
        Lower,
        "LockChecker pass wall (locking family)",
        "wall_s on verify; none elsewhere",
    ),
    layer(
        "ddbm-oracle.bto_s",
        "s",
        Lower,
        "BtoChecker pass wall (BTO)",
        "wall_s on verify; none elsewhere",
    ),
    layer(
        "ddbm-oracle.vsr_s",
        "s",
        Lower,
        "VsrCollector observe plus finalize wall",
        "wall_s on verify; none elsewhere",
    ),
    layer(
        "ddbm-oracle.replica_s",
        "s",
        Lower,
        "ReplicaChecker pass wall (replicated cells)",
        "wall_s on verify; none elsewhere",
    ),
    layer(
        "ddbm-oracle.violations",
        "count",
        Lower,
        "violations the checkers reported (any is a failure)",
        "none: a correctness check",
    ),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// Quote `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                json_str(m.name),
                json_str(m.unit),
                m.better.as_str()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// The text of `perfbench/rationale.json`: each workload's reason, each
/// metric's meaning, which end-to-end metric each layer metric should move,
/// and the worker count and host the benchmark was defined on.
pub fn rationale_json(workers: usize, host: &str) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"workers\": {},\n",
        json_str(&format!(
            "one per core (std::thread::available_parallelism): {workers} on the defining host"
        ))
    ));
    s.push_str(&format!("  \"host\": {},\n", json_str(host)));
    s.push_str(&format!(
        "  \"time_scale\": {},\n",
        json_str(&format!(
            "every time is a wall time scaled by {} s over the calibration kernel's time \
             before its round (perfbench/src/calibrate.rs)",
            crate::calibrate::REFERENCE_S
        ))
    ));
    s.push_str("  \"workloads\": {\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("    {}: {}", json_str(w.name()), json_str(w.why())))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  },\n  \"end_to_end\": {\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| format!("    {}: {}", json_str(m.name), json_str(m.what)))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  },\n  \"per_layer\": {\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {}: {{\"what\": {}, \"moves\": {}}}",
                json_str(m.name),
                json_str(m.what),
                json_str(m.moves)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  }\n}\n");
    s
}

/// The result line: `correct`, `attempted`, `failed`, and every metric of
/// `defs` with its unit. Panics if `values` lacks one of them.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Metric],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|m| {
            let v = values
                .get(m.name)
                .unwrap_or_else(|| panic!("pass did not measure {}", m.name));
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
