//! Self-tests of the benchmark: its inputs are valid configurations, the
//! committed manifest matches the metric definitions, and a one-cell traced
//! run of each workload reports every per-layer metric with zero CC replay
//! mismatches and zero oracle violations.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::metrics::{manifest_json, PER_LAYER};
use perfbench::passes::per_layer;
use perfbench::spans::{self_times, Spans};
use perfbench::workloads::Workload;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

#[test]
fn every_generated_config_validates() {
    for w in Workload::ALL {
        for seed in [0, 1, 2, 0xdead_beef, u64::MAX] {
            let cells = w.cells(seed);
            assert!(!cells.is_empty(), "{}: empty round", w.name());
            for cell in &cells {
                if let Err(e) = cell.config.validate() {
                    panic!("{} seed {seed} {}: {e}", w.name(), cell.label);
                }
            }
        }
    }
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    for w in Workload::ALL {
        let seeds = |s| {
            w.cells(s)
                .iter()
                .map(|c| c.config.control.seed)
                .collect::<Vec<_>>()
        };
        assert_eq!(seeds(7), seeds(7));
        assert_ne!(seeds(7), seeds(8));
    }
}

#[test]
fn committed_manifest_matches_the_definitions() {
    assert_eq!(
        MANIFEST,
        manifest_json(),
        "BENCHMARK.json is stale: regenerate it with --write-manifest"
    );
}

/// The `"name"` values of the manifest's `per_layer` list.
fn manifest_per_layer_names() -> Vec<String> {
    let section = MANIFEST
        .split("\"per_layer\"")
        .nth(1)
        .expect("manifest has a per_layer list");
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_string())
        .collect()
}

#[test]
fn one_cell_traced_run_of_each_workload_reports_every_layer_metric() {
    let names = manifest_per_layer_names();
    assert_eq!(names.len(), PER_LAYER.len());
    for w in Workload::ALL {
        let spans = Spans::new();
        let m = per_layer(
            || w.cells(3)[..1].to_vec(),
            w.checks_oracle(),
            0.0,
            1,
            &spans,
        );
        assert_eq!(
            (m.attempted, m.failed),
            (1, 0),
            "{}: {:?}",
            w.name(),
            m.failures
        );
        for name in &names {
            let v = m
                .metrics
                .get(name.as_str())
                .unwrap_or_else(|| panic!("{}: no metric {name}", w.name()));
            assert!(v.is_finite(), "{}: {name} = {v}", w.name());
        }
        assert_eq!(m.metrics["ddbm-cc.replay_mismatches"], 0.0);
        assert_eq!(m.metrics["ddbm-oracle.violations"], 0.0);
        assert!(m.metrics["ddbm-cc.requests_per_commit"] > 0.0);
        // The oracle layer is measured only where the workload checks.
        assert_eq!(
            m.metrics["ddbm-oracle.check_s"] > 0.0,
            w.checks_oracle(),
            "{}",
            w.name()
        );
        let table = self_times(&spans.finish());
        for span in [
            "ddbm-core.run",
            "ddbm-cc.replay",
            "ddbm-core.template",
            "sim",
        ] {
            assert_eq!(table[span].calls, 1, "{}: {span}", w.name());
        }
    }
}
