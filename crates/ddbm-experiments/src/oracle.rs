//! The oracle verification grid: contended runs of every algorithm replayed
//! through the `ddbm-oracle` invariant checkers.
//!
//! This module is the shared engine behind the `repro verify` CLI gate and
//! the CI quick check: a small, heavily contended machine (plenty of
//! blocks, wounds, deaths, and certification failures) simulated once per
//! algorithm × seed cell, with every witness event checked against the
//! protocol reference models as it is emitted.

use ddbm_config::{Algorithm, Config, ReplicationParams};
use ddbm_core::TestHooks;
use ddbm_oracle::run_and_check;
use denet::SimDuration;

/// The verification grid: the four paper algorithms, the wait-die
/// extension, and the NO_DC baseline. (The 2PL timeout variant is covered
/// by the oracle crate's own suite.)
pub const ORACLE_GRID: [Algorithm; 6] = [
    Algorithm::TwoPhaseLocking,
    Algorithm::BasicTimestampOrdering,
    Algorithm::WoundWait,
    Algorithm::WaitDie,
    Algorithm::Optimistic,
    Algorithm::NoDataContention,
];

/// Default seeds for the gate: four well-separated streams.
pub const ORACLE_SEEDS: [u64; 4] = [7, 99, 1009, 65_537];

/// The replica controls the grid covers besides single-copy: three-way
/// ROWA and a 3-replica majority quorum (r = 2, w = 2). Each control runs
/// the full algorithm × seed grid and must be one-copy clean: the
/// per-replica checkers, the write-quorum invariant, and the one-copy
/// serialization graph.
pub fn grid_replications() -> [(&'static str, ReplicationParams); 3] {
    [
        ("single", ReplicationParams::default()),
        ("rowa3", ReplicationParams::rowa(3)),
        ("quorum3", ReplicationParams::quorum(3, 2, 2)),
    ]
}

/// A small, heavily contended configuration: 4 nodes, 16 terminals, a hot
/// 30-page-per-file database, zero think time.
pub fn oracle_config(algorithm: Algorithm, seed: u64) -> Config {
    let mut c = Config::paper(algorithm, 4, 4, 0.0);
    c.workload.num_terminals = 16;
    c.workload.mean_pages_per_file = 2;
    c.workload.min_pages_per_file = 1;
    c.workload.max_pages_per_file = 3;
    c.database.pages_per_file = 30;
    c.control.warmup_commits = 0;
    c.control.measure_commits = 150;
    c.control.seed = seed;
    c.control.max_sim_time = SimDuration::from_secs_f64(500.0);
    c
}

/// The outcome of one grid cell.
#[derive(Debug)]
pub struct OracleCell {
    /// Algorithm checked.
    pub algorithm: Algorithm,
    /// Seed of the run.
    pub seed: u64,
    /// Replica-control label of the run (`single`, `rowa3`, `quorum3`).
    pub replication: &'static str,
    /// Witness events examined.
    pub events: usize,
    /// Invariant violations found.
    pub violations: usize,
    /// Rendered violations (empty when the cell passes).
    pub detail: String,
}

impl OracleCell {
    /// True when the cell is clean.
    pub fn pass(&self) -> bool {
        self.violations == 0
    }
}

/// Run the full grid over `seeds`, fanning the independent cells out
/// across all cores. Every cell is its own deterministic simulation, so
/// parallelism changes nothing about the verdicts, and results come back
/// in the fixed replication × algorithm × seed grid order regardless of
/// which worker finished first.
pub fn verify_grid(seeds: &[u64]) -> Vec<OracleCell> {
    let mut grid = Vec::with_capacity(ORACLE_GRID.len() * seeds.len() * grid_replications().len());
    for &(label, replication) in &grid_replications() {
        for &algorithm in &ORACLE_GRID {
            for &seed in seeds {
                grid.push((label, replication, algorithm, seed));
            }
        }
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    crate::runner::map_parallel(threads, &grid, |&(label, replication, algorithm, seed)| {
        let mut config = oracle_config(algorithm, seed);
        config.replication = replication;
        let (_, report) =
            run_and_check(config, None, TestHooks::default()).expect("grid config is valid");
        OracleCell {
            algorithm,
            seed,
            replication: label,
            events: report.events,
            violations: report.total_violations,
            detail: if report.clean() {
                String::new()
            } else {
                report.render()
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_grid_cell_passes() {
        let cells = verify_grid(&[7]);
        assert_eq!(cells.len(), ORACLE_GRID.len() * grid_replications().len());
        for cell in &cells {
            assert!(
                cell.pass(),
                "{} {} seed {}: {}",
                cell.algorithm,
                cell.replication,
                cell.seed,
                cell.detail
            );
            assert!(
                cell.events > 1_000,
                "{} {}: thin stream",
                cell.algorithm,
                cell.replication
            );
        }
    }
}
