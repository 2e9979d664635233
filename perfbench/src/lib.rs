//! `perfbench` — the ddbm simulator's benchmark, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload contended --seed 1 --seconds 20 --trace 0
//! ```
//!
//! runs one workload ([`workloads`]) on one worker thread per core and
//! prints every metric with its unit, then one JSON result line. With
//! `--trace 0` the simulations run untraced and the metrics are the
//! end-to-end ones ([`metrics::END_TO_END`]); with `--trace 1` every
//! simulation also goes through each layer's public entry points inside
//! spans ([`spans`]) and the metrics are the per-layer ones
//! ([`metrics::PER_LAYER`]). The traced pass writes its spans as
//! Chrome-trace JSON to `perfbench/out/<workload>.trace.json` and prints a
//! per-layer self-time table.
//!
//! Times are wall times scaled to a reference host speed measured before
//! every round ([`calibrate`]), because the shared host's speed wanders.
//!
//! `--write-manifest` regenerates `BENCHMARK.json` and
//! `perfbench/rationale.json` from the definitions in [`metrics`].

pub mod calibrate;
pub mod heap;
pub mod layers;
pub mod metrics;
pub mod passes;
pub mod spans;
pub mod workloads;
