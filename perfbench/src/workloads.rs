//! The three workloads: which simulations one round runs, derived from the
//! benchmark seed.
//!
//! Every workload is a closed loop: each simulated terminal waits for its
//! previous transaction before thinking and submitting the next. A round is
//! a fixed list of independent simulations ([`Cell`]s); the same seed always
//! yields the same list.

use ddbm_config::{Algorithm, Config};
use ddbm_experiments::oracle::{grid_replications, oracle_config, ORACLE_GRID};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// NO_DC on the paper machine: CC grants everything.
    Uncontended,
    /// The four paper algorithms plus wait-die, thrashing at think time 0.
    Contended,
    /// The oracle gate's algorithm × replica-control grid, checked.
    Verify,
}

/// One simulation of a round.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Human-readable name (algorithm, machine, replica control, repeat).
    pub label: String,
    /// The configuration simulated.
    pub config: Config,
}

/// Repeats of the uncontended grid (3 machine sizes × 2 think times) per
/// round: 48 simulations.
const UNCONTENDED_REPEATS: usize = 8;
/// Repeats of the contended grid (5 algorithms × 2 declusterings) per
/// round: 40 simulations.
const CONTENDED_REPEATS: usize = 4;
/// Repeats of the verify grid (6 algorithms × 3 replica controls) per
/// round: 54 simulations.
const VERIFY_REPEATS: usize = 3;
/// Commits per verify cell: long enough that the checkers do about half of
/// the cell's work (the gate's own cells stop at 150).
const VERIFY_COMMITS: u64 = 1_000;

impl Workload {
    /// Every workload, in manifest order.
    pub const ALL: [Workload; 3] = [Workload::Uncontended, Workload::Contended, Workload::Verify];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Uncontended => "uncontended",
            Workload::Contended => "contended",
            Workload::Verify => "verify",
        }
    }

    /// The workload named `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Uncontended => {
                "NO_DC at 1/4/8 nodes, think 0 and 8 s: CC grants everything, so time goes to \
                 the calendar, CPU/disk and 2PC; a CC change must not move it"
            }
            Workload::Contended => {
                "2PL/WW/WD/BTO/OPT on 8 nodes, 8- and 1-way, think 0: blocking, restarts and \
                 deadlock detection make it the ddbm-cc workload"
            }
            Workload::Verify => {
                "the oracle gate grid, 6 algorithms x single/rowa3/quorum3, 1000-commit cells \
                 through run_and_check: checkers, witness and replica 2PC"
            }
        }
    }

    /// True when the workload runs the `ddbm-oracle` checkers.
    pub fn checks_oracle(self) -> bool {
        self == Workload::Verify
    }

    /// The simulations of one round for benchmark seed `seed`.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        let mut cells = Vec::new();
        let mut push = |label: String, mut config: Config| {
            config.control.seed = cell_seed(seed, self, cells.len());
            cells.push(Cell { label, config });
        };
        match self {
            Workload::Uncontended => {
                for rep in 0..UNCONTENDED_REPEATS {
                    for n in [1, 4, 8] {
                        for think in [0.0, 8.0] {
                            let mut c = Config::scaling(Algorithm::NoDataContention, n, think);
                            c.control.warmup_commits = 100;
                            c.control.measure_commits = 1_000;
                            push(format!("NO_DC n={n} think={think} #{rep}"), c);
                        }
                    }
                }
            }
            Workload::Contended => {
                for rep in 0..CONTENDED_REPEATS {
                    for degree in [8, 1] {
                        for algorithm in CONTENDED_ALGORITHMS {
                            let mut c = Config::partitioning(algorithm, degree, false, 0.0);
                            c.control.warmup_commits = 100;
                            c.control.measure_commits = 500;
                            push(format!("{algorithm} n=8 degree={degree} #{rep}"), c);
                        }
                    }
                }
            }
            Workload::Verify => {
                for rep in 0..VERIFY_REPEATS {
                    for (label, replication) in grid_replications() {
                        for algorithm in ORACLE_GRID {
                            let mut c = oracle_config(algorithm, 0);
                            c.replication = replication;
                            c.control.measure_commits = VERIFY_COMMITS;
                            push(format!("{algorithm} {label} #{rep}"), c);
                        }
                    }
                }
            }
        }
        cells
    }
}

/// The contended workload's algorithms: the paper's four plus wait-die.
const CONTENDED_ALGORITHMS: [Algorithm; 5] = [
    Algorithm::TwoPhaseLocking,
    Algorithm::WoundWait,
    Algorithm::WaitDie,
    Algorithm::BasicTimestampOrdering,
    Algorithm::Optimistic,
];

/// The simulator seed of cell `index`: a SplitMix64 mix of the benchmark
/// seed, the workload and the index, so neighbouring seeds share nothing.
fn cell_seed(seed: u64, workload: Workload, index: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(((workload as u64) << 32) | index as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
