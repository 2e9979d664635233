//! The model parameters of the paper (Tables 1–4) as typed configuration.
//!
//! Instruction costs are given in *instructions*; nodes convert them to time
//! through their MIPS ratings. All paper defaults come from Table 4.

use crate::ids::NodeId;
use denet::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The concurrency control algorithm run by every node's CC manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Distributed two-phase locking with local detection on block and a
    /// rotating-"Snoop" global deadlock detector (paper §2.2).
    TwoPhaseLocking,
    /// Wound-wait locking: deadlock prevention via timestamps (paper §2.3).
    WoundWait,
    /// Basic timestamp ordering with the Thomas write rule and pending-write
    /// queues (paper §2.4).
    BasicTimestampOrdering,
    /// Distributed optimistic certification at commit time (paper §2.5,
    /// Sinha et al.'s first algorithm).
    Optimistic,
    /// The NO_DC baseline: "2PL with an infinitely large database" — every
    /// request is granted and no conflicts ever arise (paper §4.2).
    NoDataContention,
    /// Extension (not in the paper): wait-die locking, the companion
    /// deadlock-prevention scheme to wound-wait — younger requesters abort
    /// themselves instead of wounding.
    WaitDie,
    /// Extension (paper footnote 2 discusses the alternative): two-phase
    /// locking with deadlock resolution by *lock-wait timeout* instead of
    /// detection; the timeout is `SystemParams::lock_timeout`.
    TwoPhaseLockingTimeout,
}

impl Algorithm {
    /// All four real algorithms plus the NO_DC baseline, in the order the
    /// paper's figures list them.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::TwoPhaseLocking,
        Algorithm::BasicTimestampOrdering,
        Algorithm::WoundWait,
        Algorithm::Optimistic,
        Algorithm::NoDataContention,
    ];

    /// The four real concurrency control algorithms (no baseline).
    pub const REAL: [Algorithm; 4] = [
        Algorithm::TwoPhaseLocking,
        Algorithm::BasicTimestampOrdering,
        Algorithm::WoundWait,
        Algorithm::Optimistic,
    ];

    /// The paper's five algorithms plus this reproduction's extensions.
    pub const EXTENDED: [Algorithm; 7] = [
        Algorithm::TwoPhaseLocking,
        Algorithm::TwoPhaseLockingTimeout,
        Algorithm::BasicTimestampOrdering,
        Algorithm::WoundWait,
        Algorithm::WaitDie,
        Algorithm::Optimistic,
        Algorithm::NoDataContention,
    ];

    /// The abbreviation the paper uses in its figures (extensions follow
    /// the same style).
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::TwoPhaseLocking => "2PL",
            Algorithm::WoundWait => "WW",
            Algorithm::BasicTimestampOrdering => "BTO",
            Algorithm::Optimistic => "OPT",
            Algorithm::NoDataContention => "NO_DC",
            Algorithm::WaitDie => "WD",
            Algorithm::TwoPhaseLockingTimeout => "2PL-T",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether a multi-cohort transaction runs its cohorts one after another
/// (remote-procedure-call style, as in Non-Stop SQL) or all at once (as in
/// Gamma/Bubba/Teradata). Paper §2.1/§3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecPattern {
    /// The `Sequential` variant.
    Sequential,
    /// The `Parallel` variant.
    Parallel,
}

/// Resource manager parameters (paper Table 3) plus CC manager parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemParams {
    /// Number of processing nodes (the host is always present and separate).
    pub num_proc_nodes: usize,
    /// Host CPU rate in MIPS (paper: 10).
    pub host_cpu_mips: f64,
    /// Processing node CPU rate in MIPS (paper: 1).
    pub proc_cpu_mips: f64,
    /// Disks per node (paper: 2).
    pub num_disks: usize,
    /// Minimum disk access time (paper: 10 ms).
    pub min_disk_time: SimDuration,
    /// Maximum disk access time (paper: 30 ms).
    pub max_disk_time: SimDuration,
    /// CPU instructions to initiate an asynchronous disk write (paper: 2K).
    pub inst_per_update: u64,
    /// CPU instructions to start a process, e.g. a cohort (paper: 0/2K/20K).
    pub inst_per_startup: u64,
    /// CPU instructions to send *or* receive one message (paper: 0/1K/4K).
    pub inst_per_msg: u64,
    /// CPU instructions per concurrency-control request (paper: 0).
    pub inst_per_cc_req: u64,
    /// How long a node holds the "Snoop" role before running global deadlock
    /// detection and passing the role on (paper: 1 s). 2PL only.
    pub detection_interval: SimDuration,
    /// Extension: lock-wait timeout for [`Algorithm::TwoPhaseLockingTimeout`]
    /// — a cohort blocked this long is presumed deadlocked and aborted
    /// (default 5 s; ignored by all other algorithms).
    pub lock_timeout: SimDuration,
    /// Extension (paper footnote 6's future work): per-node LRU buffer pool
    /// capacity in pages. Zero disables buffering, which is the paper's
    /// model: every read access costs a disk I/O.
    pub buffer_pages: u64,
    /// Ablation: let 2PL-family lock requests that are compatible with the
    /// current holders barge past queued incompatible requests. The paper
    /// does not specify its lock manager's grant order; strict FIFO
    /// (`false`, the default) is the textbook choice.
    #[serde(default)]
    pub lock_barging: bool,
}

impl SystemParams {
    /// Table 4 defaults with the given machine size.
    pub fn paper_defaults(num_proc_nodes: usize) -> SystemParams {
        SystemParams {
            num_proc_nodes,
            host_cpu_mips: 10.0,
            proc_cpu_mips: 1.0,
            num_disks: 2,
            min_disk_time: SimDuration::from_millis(10),
            max_disk_time: SimDuration::from_millis(30),
            inst_per_update: 2_000,
            inst_per_startup: 2_000,
            inst_per_msg: 1_000,
            inst_per_cc_req: 0,
            detection_interval: SimDuration::from_secs_f64(1.0),
            lock_timeout: SimDuration::from_secs_f64(5.0),
            buffer_pages: 0,
            lock_barging: false,
        }
    }

    /// Total number of nodes including the host.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_proc_nodes + 1
    }

    /// The CPU rate of `node` in instructions per second.
    pub fn cpu_rate(&self, node: NodeId) -> f64 {
        let mips = if node.is_host() {
            self.host_cpu_mips
        } else {
            self.proc_cpu_mips
        };
        mips * 1e6
    }
}

/// Database model parameters (paper Table 1). Placement is derived from the
/// declustering degree; see [`crate::placement`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatabaseParams {
    /// Number of relations (paper: 8).
    pub num_relations: usize,
    /// Horizontal partitions (files) per relation (paper: 8).
    pub partitions_per_relation: usize,
    /// Pages per file (paper: 300 for the small database, 1200 for the large).
    pub pages_per_file: u64,
    /// Over how many processing nodes each relation's partitions are spread
    /// (1-, 2-, 4-, or 8-way in the paper). Must divide
    /// `partitions_per_relation` and be at most `num_proc_nodes`.
    pub declustering_degree: usize,
}

impl DatabaseParams {
    /// The small (300 pages/file) database with the given declustering degree.
    pub fn small(declustering_degree: usize) -> DatabaseParams {
        DatabaseParams {
            num_relations: 8,
            partitions_per_relation: 8,
            pages_per_file: 300,
            declustering_degree,
        }
    }

    /// The large (1200 pages/file) database with the given degree.
    pub fn large(declustering_degree: usize) -> DatabaseParams {
        DatabaseParams {
            pages_per_file: 1200,
            ..DatabaseParams::small(declustering_degree)
        }
    }

    #[inline]
    /// `num_files`.
    pub fn num_files(&self) -> usize {
        self.num_relations * self.partitions_per_relation
    }

    /// Total number of data pages in the database.
    #[inline]
    pub fn total_pages(&self) -> u64 {
        self.num_files() as u64 * self.pages_per_file
    }
}

/// Workload parameters for the host node (paper Table 2 / Table 4). The
/// paper's single transaction class reads every partition of one relation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadParams {
    /// Terminals attached to the host (paper: 128, in groups of 16 per
    /// relation).
    pub num_terminals: usize,
    /// Mean exponential think time between transactions, seconds
    /// (paper: swept over 0–120 s).
    pub think_time_secs: f64,
    /// Mean pages read per accessed file (paper: 8).
    pub mean_pages_per_file: u64,
    /// Minimum pages per accessed file. Paper §3.2 says "half ... the
    /// average"; footnote 12 confirms 4 for a mean of 8.
    pub min_pages_per_file: u64,
    /// Maximum pages per accessed file. Paper §3.2's prose says "twice the
    /// average" (16) but footnote 12 states cohorts access between 4 and 12
    /// pages and derives the 64/12 speedup bound from that, so the paper's
    /// actual runs used 12; we follow the footnote.
    pub max_pages_per_file: u64,
    /// Probability that a read page is also updated (paper: 1/4).
    pub write_prob: f64,
    /// Mean CPU instructions to process one page, exponentially distributed
    /// (paper: 8K).
    pub inst_per_page: u64,
    /// Cohort execution pattern (paper: parallel everywhere except the
    /// single-node machine, where it is vacuous).
    pub exec_pattern: ExecPattern,
}

impl WorkloadParams {
    /// Table 4 defaults at the given think time.
    pub fn paper_defaults(think_time_secs: f64) -> WorkloadParams {
        WorkloadParams {
            num_terminals: 128,
            think_time_secs,
            mean_pages_per_file: 8,
            min_pages_per_file: 4,
            max_pages_per_file: 12,
            write_prob: 0.25,
            inst_per_page: 8_000,
            exec_pattern: ExecPattern::Parallel,
        }
    }
}

/// Run-length control for one simulation run. Not a paper parameter; chosen
/// so that measured means are stable (see EXPERIMENTS.md).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimControl {
    /// Master seed; every internal stream derives from it.
    pub seed: u64,
    /// Commits to discard as warmup before statistics reset.
    pub warmup_commits: u64,
    /// Commits to measure after warmup before stopping.
    pub measure_commits: u64,
    /// Hard wall on simulated time (guards against thrashing configurations
    /// that commit extremely slowly).
    pub max_sim_time: SimDuration,
}

impl Default for SimControl {
    fn default() -> SimControl {
        SimControl {
            seed: 0x5ee1_1989,
            warmup_commits: 400,
            measure_commits: 4_000,
            max_sim_time: SimDuration::from_secs_f64(40_000.0),
        }
    }
}

impl SimControl {
    /// A faster profile for smoke tests and CI.
    pub fn quick() -> SimControl {
        SimControl {
            warmup_commits: 100,
            measure_commits: 600,
            max_sim_time: SimDuration::from_secs_f64(8_000.0),
            ..SimControl::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table4() {
        let s = SystemParams::paper_defaults(8);
        assert_eq!(s.num_proc_nodes, 8);
        assert_eq!(s.num_nodes(), 9);
        assert_eq!(s.cpu_rate(NodeId::HOST), 10e6);
        assert_eq!(s.cpu_rate(NodeId(1)), 1e6);
        assert_eq!(s.num_disks, 2);
        assert_eq!(s.min_disk_time, SimDuration::from_millis(10));
        assert_eq!(s.max_disk_time, SimDuration::from_millis(30));
        assert_eq!(s.inst_per_update, 2_000);
        assert_eq!(s.inst_per_startup, 2_000);
        assert_eq!(s.inst_per_msg, 1_000);
        assert_eq!(s.inst_per_cc_req, 0);
        assert_eq!(s.detection_interval, SimDuration::from_secs_f64(1.0));
    }

    #[test]
    fn database_sizes_match_paper() {
        let small = DatabaseParams::small(8);
        assert_eq!(small.num_files(), 64);
        assert_eq!(small.total_pages(), 19_200);
        let large = DatabaseParams::large(1);
        assert_eq!(large.total_pages(), 76_800);
    }

    #[test]
    fn workload_defaults_match_table4() {
        let w = WorkloadParams::paper_defaults(12.0);
        assert_eq!(w.num_terminals, 128);
        assert_eq!(w.mean_pages_per_file, 8);
        assert_eq!((w.min_pages_per_file, w.max_pages_per_file), (4, 12));
        assert!((w.write_prob - 0.25).abs() < 1e-12);
        assert_eq!(w.inst_per_page, 8_000);
    }

    #[test]
    fn algorithm_labels() {
        assert_eq!(Algorithm::TwoPhaseLocking.label(), "2PL");
        assert_eq!(Algorithm::NoDataContention.to_string(), "NO_DC");
        assert_eq!(Algorithm::ALL.len(), 5);
        assert_eq!(Algorithm::REAL.len(), 4);
        assert!(!Algorithm::REAL.contains(&Algorithm::NoDataContention));
    }
}
