#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! `ddbm-config` — typed model parameters for the distributed database
//! machine simulator.
//!
//! This crate encodes the paper's parameter tables:
//!
//! * Table 1 (database model) → [`DatabaseParams`] + [`Placement`]
//! * Table 2 (workload model) → [`WorkloadParams`]
//! * Table 3 (resource manager) → [`SystemParams`]
//! * Table 4 (simulation settings) → the `paper_defaults` constructors and
//!   the experiment presets on [`Config`]
//!
//! plus the shared identifier types used by every other crate.

pub mod config;
pub mod fault;
pub mod ids;
pub mod pages;
pub mod params;
pub mod placement;
pub mod replication;
pub mod trace;

pub use config::{Config, ConfigError};
pub use fault::{CrashWindow, FaultParams, FaultPlan, StallWindow};
pub use ids::{FileId, NodeId, PageId, TerminalId, TxnId};
pub use pages::PageTable;
pub use params::{
    Algorithm, DatabaseParams, ExecPattern, SimControl, SystemParams, WorkloadParams,
};
pub use placement::{Placement, PlacementError};
pub use replication::{ReplicaControl, ReplicationParams};
pub use trace::TraceConfig;
