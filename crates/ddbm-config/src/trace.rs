//! Observability knobs: phase statistics, the event trace, and the witness
//! stream.
//!
//! Tracing is strictly an extension over the paper's model. With the default
//! [`TraceConfig`] (everything off) the simulator builds no observer and
//! takes no trace branch, so the event sequence — and therefore the
//! determinism golden — stays bit-identical to a build without the
//! subsystem. Enabling tracing draws nothing from any RNG stream: the
//! recorded events are a pure function of the simulation's own
//! deterministic schedule, so a traced run still commits and aborts the
//! exact same transactions at the exact same times as an untraced run of
//! the same configuration.

use serde::{Deserialize, Serialize};

/// Observability configuration. All collection defaults to off.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Collect per-phase latency histograms and the per-cause abort latency
    /// split, surfaced as `RunReport::phase_breakdown`.
    #[serde(default)]
    pub phase_stats: bool,
    /// Record the event trace (phase transitions, lock waits, messages,
    /// resource busy/idle) into a preallocated ring of 2^20 events, for
    /// export as Chrome-trace JSON / JSONL via `run_traced`. When the ring
    /// fills, the oldest events are overwritten (the trace records how many
    /// were lost).
    #[serde(default)]
    pub events: bool,
    /// Record the protocol witness stream (CC grants/blocks/rejections,
    /// wounds, certifications, releases, installs, phase transitions) for
    /// the `ddbm-oracle` invariant checkers. Unlike `events`, the witness
    /// log is lossless up to its cap of 2^22 events: overflowing events are
    /// dropped from the *end* and counted, never overwritten, so checkers
    /// always see a contiguous prefix of the execution.
    #[serde(default)]
    pub witness: bool,
}

impl TraceConfig {
    /// True when any collection is enabled: the simulator builds its
    /// observer exactly when this holds (or when a run driver installs a
    /// witness sink), so the disabled path is one `None` check per probe.
    pub fn any(&self) -> bool {
        self.phase_stats || self.events || self.witness
    }
}

#[allow(clippy::derivable_impls)] // explicit: all-off is the determinism gate
impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            phase_stats: false,
            events: false,
            witness: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_disabled() {
        assert!(!TraceConfig::default().any());
    }

    #[test]
    fn any_tracks_each_knob() {
        let mut t = TraceConfig {
            phase_stats: true,
            ..TraceConfig::default()
        };
        assert!(t.any());
        t.phase_stats = false;
        t.events = true;
        assert!(t.any());
        t.events = false;
        t.witness = true;
        assert!(t.any());
    }
}
