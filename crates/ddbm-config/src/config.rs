//! The complete configuration of one simulation run, with presets for every
//! experiment in the paper.

use crate::fault::FaultParams;
use crate::ids::NodeId;
use crate::params::{Algorithm, DatabaseParams, SimControl, SystemParams, WorkloadParams};
use crate::placement::{Placement, PlacementError};
use crate::replication::ReplicationParams;
use crate::trace::TraceConfig;
use serde::{Deserialize, Serialize};

/// Everything needed to run one simulation: machine, database, workload,
/// algorithm, and run-length control.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// System.
    pub system: SystemParams,
    /// Database.
    pub database: DatabaseParams,
    /// Workload.
    pub workload: WorkloadParams,
    /// Algorithm.
    pub algorithm: Algorithm,
    /// Control.
    pub control: SimControl,
    /// Fault injection (extension; defaults to fault-free).
    #[serde(default)]
    pub faults: FaultParams,
    /// Data replication (extension; defaults to single-copy, disabled).
    #[serde(default)]
    pub replication: ReplicationParams,
    /// Observability (extension; defaults to fully off).
    #[serde(default)]
    pub trace: TraceConfig,
}

/// A configuration error found by [`Config::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// The paper's base configuration (Table 4): `num_proc_nodes` processing
    /// nodes with the database declustered `degree` ways, the small (300
    /// pages/file) database, and the given think time.
    pub fn paper(
        algorithm: Algorithm,
        num_proc_nodes: usize,
        degree: usize,
        think_time_secs: f64,
    ) -> Config {
        Config {
            system: SystemParams::paper_defaults(num_proc_nodes),
            database: DatabaseParams::small(degree),
            workload: WorkloadParams::paper_defaults(think_time_secs),
            algorithm,
            control: SimControl::default(),
            faults: FaultParams::default(),
            replication: ReplicationParams::default(),
            trace: TraceConfig::default(),
        }
    }

    /// §4.2 machine-size experiment: an `n`-node machine with the data
    /// declustered across all `n` nodes (n ∈ {1, 2, 4, 8} in the paper).
    pub fn scaling(algorithm: Algorithm, n: usize, think_time_secs: f64) -> Config {
        Config::paper(algorithm, n, n, think_time_secs)
    }

    /// §4.3 partitioning experiment: the 8-node machine with 1- or 8-way
    /// declustering, small or large database.
    pub fn partitioning(
        algorithm: Algorithm,
        degree: usize,
        large_db: bool,
        think_time_secs: f64,
    ) -> Config {
        let mut c = Config::paper(algorithm, 8, degree, think_time_secs);
        if large_db {
            c.database = DatabaseParams::large(degree);
        }
        c
    }

    /// §4.4 overhead experiment: the 8-node machine, small database, with
    /// explicit startup and message costs.
    pub fn overheads(
        algorithm: Algorithm,
        degree: usize,
        inst_per_startup: u64,
        inst_per_msg: u64,
        think_time_secs: f64,
    ) -> Config {
        let mut c = Config::paper(algorithm, 8, degree, think_time_secs);
        c.system.inst_per_startup = inst_per_startup;
        c.system.inst_per_msg = inst_per_msg;
        c
    }

    /// The placement of files onto nodes implied by this configuration,
    /// including replica sets when replication is on.
    pub fn placement(&self) -> Result<Placement, PlacementError> {
        Placement::replicated_layout(
            &self.database,
            self.system.num_proc_nodes,
            self.replication.factor,
        )
    }

    /// An upper bound on the page accesses one transaction makes in all:
    /// every partition of one relation, at most `max_pages_per_file` pages
    /// each, times the replication factor (each write adds one access per
    /// extra replica). This is also a bound for any single node, but a
    /// loose one under declustering: the simulator sizes each node's
    /// per-transaction buffers by the tighter per-node bound, the copies of
    /// one relation stored there
    /// ([`Placement::relation_copies_per_node`]) times `max_pages_per_file`
    /// (see `CcManager::preallocate`).
    pub fn max_txn_accesses(&self) -> usize {
        self.database.partitions_per_relation
            * self.workload.max_pages_per_file as usize
            * self.replication.factor
    }

    /// The relation a terminal's transactions access: terminals are divided
    /// into equal groups, one group per relation (paper §4.1: 128 terminals
    /// in groups of 16).
    pub fn relation_of_terminal(&self, terminal: usize) -> usize {
        let per_group = self.workload.num_terminals / self.database.num_relations;
        (terminal / per_group).min(self.database.num_relations - 1)
    }

    /// Check internal consistency; call before building a simulator.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |m: String| Err(ConfigError(m));
        if self.system.num_proc_nodes == 0 {
            return err("at least one processing node is required".into());
        }
        if self.system.num_disks == 0 {
            return err("each node needs at least one disk".into());
        }
        if self.system.min_disk_time > self.system.max_disk_time {
            return err("min_disk_time exceeds max_disk_time".into());
        }
        if self.system.host_cpu_mips <= 0.0 || self.system.proc_cpu_mips <= 0.0 {
            return err("CPU rates must be positive".into());
        }
        let d = self.database.declustering_degree;
        if d == 0 || d > self.system.num_proc_nodes {
            return err(format!(
                "declustering degree {d} must be in 1..={}",
                self.system.num_proc_nodes
            ));
        }
        if !self.database.partitions_per_relation.is_multiple_of(d) {
            return err(format!(
                "degree {d} must divide partitions_per_relation {}",
                self.database.partitions_per_relation
            ));
        }
        if !self.system.num_proc_nodes.is_multiple_of(d) {
            return err(format!(
                "degree {d} must divide the machine size {}",
                self.system.num_proc_nodes
            ));
        }
        if self.database.pages_per_file == 0 {
            return err("files must have at least one page".into());
        }
        let w = &self.workload;
        if w.num_terminals == 0 {
            return err("at least one terminal is required".into());
        }
        if !w.num_terminals.is_multiple_of(self.database.num_relations) {
            return err(format!(
                "terminals {} must divide evenly into {} relation groups",
                w.num_terminals, self.database.num_relations
            ));
        }
        if w.think_time_secs < 0.0 || !w.think_time_secs.is_finite() {
            return err("think time must be a finite non-negative number".into());
        }
        if !(0.0..=1.0).contains(&w.write_prob) {
            return err("write probability must be in [0, 1]".into());
        }
        if w.min_pages_per_file == 0
            || w.min_pages_per_file > w.mean_pages_per_file
            || w.mean_pages_per_file > w.max_pages_per_file
        {
            return err(format!(
                "page counts must satisfy 1 <= min ({}) <= mean ({}) <= max ({})",
                w.min_pages_per_file, w.mean_pages_per_file, w.max_pages_per_file
            ));
        }
        if w.max_pages_per_file > self.database.pages_per_file {
            return err(format!(
                "a cohort may access up to {} pages of a {}-page file",
                w.max_pages_per_file, self.database.pages_per_file
            ));
        }
        if self.control.measure_commits == 0 {
            return err("measure_commits must be positive".into());
        }
        if self.algorithm == crate::params::Algorithm::TwoPhaseLockingTimeout
            && self.system.lock_timeout.is_zero()
        {
            return err("2PL-T requires a positive lock_timeout".into());
        }
        if let Err(m) = self.faults.validate() {
            return err(m);
        }
        if let Err(m) = self.replication.validate(self.system.num_proc_nodes) {
            return err(m);
        }
        Ok(())
    }

    /// All node ids in this machine (host first).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.system.num_nodes()).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_validate() {
        for n in [1usize, 2, 4, 8] {
            Config::scaling(Algorithm::TwoPhaseLocking, n, 0.0)
                .validate()
                .unwrap();
        }
        for degree in [1usize, 2, 4, 8] {
            Config::partitioning(Algorithm::Optimistic, degree, true, 8.0)
                .validate()
                .unwrap();
            Config::overheads(Algorithm::WoundWait, degree, 0, 4_000, 0.0)
                .validate()
                .unwrap();
        }
    }

    #[test]
    fn terminal_groups_cover_all_relations() {
        let c = Config::paper(Algorithm::TwoPhaseLocking, 8, 8, 4.0);
        let mut counts = vec![0usize; 8];
        for t in 0..c.workload.num_terminals {
            counts[c.relation_of_terminal(t)] += 1;
        }
        assert_eq!(counts, vec![16; 8]);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let base = Config::paper(Algorithm::TwoPhaseLocking, 8, 8, 4.0);

        let mut c = base.clone();
        c.database.declustering_degree = 3;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.database.declustering_degree = 16;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.workload.write_prob = 1.5;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.workload.think_time_secs = -1.0;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.system.min_disk_time = denet::SimDuration::from_millis(40);
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.workload.max_pages_per_file = 10_000;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.control.measure_commits = 0;
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.faults.crash_rate = f64::NAN;
        assert!(c.validate().is_err());

        // Replication: factor over machine size, non-intersecting quorums,
        // and factor > 1 with control off are all rejected.
        let mut c = base.clone();
        c.replication = ReplicationParams::rowa(16);
        assert!(c.validate().is_err());

        let mut c = base.clone();
        c.replication = ReplicationParams::quorum(3, 1, 2);
        assert!(c.validate().is_err());

        let mut c = base;
        c.replication.factor = 2;
        assert!(c.validate().is_err());
    }

    #[test]
    fn replicated_configs_validate_and_place() {
        let mut c = Config::paper(Algorithm::TwoPhaseLocking, 8, 8, 1.0);
        c.replication = ReplicationParams::rowa(3);
        c.validate().unwrap();
        let p = c.placement().unwrap();
        assert_eq!(p.factor(), 3);
        assert_eq!(p.files_per_node(8), vec![24; 8]);

        c.replication = ReplicationParams::quorum(3, 2, 2);
        c.validate().unwrap();
    }

    #[test]
    fn serde_round_trip() {
        let c = Config::paper(Algorithm::BasicTimestampOrdering, 8, 4, 12.0);
        let json = serde_json::to_string(&c).unwrap();
        let back: Config = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn overhead_preset_sets_costs() {
        let c = Config::overheads(Algorithm::Optimistic, 8, 20_000, 0, 8.0);
        assert_eq!(c.system.inst_per_startup, 20_000);
        assert_eq!(c.system.inst_per_msg, 0);
    }

    #[test]
    fn scaling_preset_declusters_fully() {
        let c = Config::scaling(Algorithm::Optimistic, 4, 1.0);
        assert_eq!(c.system.num_proc_nodes, 4);
        assert_eq!(c.database.declustering_degree, 4);
        assert_eq!(c.placement().unwrap().files_per_node(4), vec![16; 4]);
    }
}
