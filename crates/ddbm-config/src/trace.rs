//! Observability knobs.
//!
//! Tracing is strictly an extension over the paper's model. Of its outputs
//! only the phase statistics reach the `RunReport`, so they are the one
//! collection a config turns on. The event trace and the protocol witness
//! stream are installed by the `ddbm-core` entry points that return them
//! (`run_traced`, `run_oracle`, `run_witnessed`). With the default
//! [`TraceConfig`] the simulator builds no observer, so the event sequence
//! (and therefore the determinism golden) stays bit-identical to a build
//! without the subsystem. Observing draws nothing from any RNG stream: an
//! observed run commits and aborts the exact same transactions at the exact
//! same times as an unobserved run of the same configuration.

use serde::{Deserialize, Serialize};

/// Observability configuration. All collection defaults to off.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Collect per-phase latency histograms and the per-cause abort latency
    /// split, surfaced as `RunReport::phase_breakdown`.
    #[serde(default)]
    pub phase_stats: bool,
    /// Ignored: the witness stream is recorded only by the entry points
    /// that return it. The field stays for benchmark code that still sets
    /// it, and goes with that code's next revision.
    #[serde(default)]
    pub witness: bool,
}
