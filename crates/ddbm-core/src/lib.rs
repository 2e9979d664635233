#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! `ddbm-core` — the distributed database machine simulator of Carey &
//! Livny's SIGMOD 1989 study, assembled from the `denet` event engine, the
//! `ddbm-resource` CPU/disk models, and the `ddbm-cc` concurrency control
//! managers.
//!
//! # Quick start
//!
//! ```
//! use ddbm_config::{Algorithm, Config};
//! use ddbm_core::run_config;
//!
//! // An 8-node machine, 8-way declustering, 2PL, 8 s think time — but with
//! // a short run so this doc test stays fast.
//! let mut config = Config::paper(Algorithm::TwoPhaseLocking, 8, 8, 8.0);
//! config.control.warmup_commits = 20;
//! config.control.measure_commits = 50;
//! let report = run_config(config).unwrap();
//! assert!(report.commits >= 50);
//! assert!(report.throughput > 0.0);
//! ```
//!
//! The model (paper §3): terminals attached to the host node submit
//! transactions after exponential think times; each transaction's
//! coordinator starts one cohort per processing node holding data it needs;
//! cohorts make page accesses (CC request → disk read for reads → CPU
//! processing), execute sequentially or in parallel, and complete under a
//! centralized two-phase commit. Aborted transactions restart after one
//! average response time with the same access set.

pub mod metrics;
mod observe;
pub mod protocol;
pub mod simulator;
pub mod store;
pub mod trace;
pub mod txn;
pub mod witness;
pub mod workload;

pub use metrics::{
    AbortBreakdown, CauseLatency, FaultStats, MetricsCollector, PhaseBreakdown, PhaseCollector,
    PhaseStats, RunReport,
};
pub use protocol::AbortCause;
pub use simulator::{
    run_config, run_oracle, run_traced, run_witnessed, OracleRecording, Simulator, TestHooks,
};
pub use trace::{PhaseSpan, TraceEvent, TraceLog, TxnTrace};
pub use txn::{PhaseBucket, TxnPhase};
pub use witness::{WitnessEvent, WitnessReply, WitnessSink, WitnessStream};
pub use workload::{generate_template, Access, CohortSpec, TxnTemplate};
