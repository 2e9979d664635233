//! Delta-debugging workload shrinker.
//!
//! When a checked run produces violations, the recorded workload (every
//! template the terminals submitted) is minimized by re-running the
//! simulator on candidate subsets: first whole transactions are removed
//! (chunked greedy ddmin), then individual page accesses inside the
//! survivors. A candidate is kept when the oracle still reports a
//! violation. Because the simulator is deterministic, the shrunk workload
//! reproduces the failure exactly — ready to be written as a `.repro.json`
//! via [`crate::repro::ReproFile`].

use crate::{run_and_check, OracleReport};
use ddbm_config::Config;
use ddbm_core::{TestHooks, TxnTemplate};

/// The result of a shrink: the minimized workload and how it was reached.
#[derive(Debug)]
pub struct ShrinkOutcome {
    /// The smallest still-failing workload found.
    pub templates: Vec<TxnTemplate>,
    /// The oracle report of the final (shrunk) run.
    pub report: OracleReport,
    /// Simulator runs spent.
    pub trials: usize,
    /// Total page accesses remaining.
    pub operations: usize,
}

/// Drop empty cohorts and transactions left with no work — the simulator's
/// all-cohorts-report protocol requires every cohort to do something.
fn normalize(templates: &mut Vec<TxnTemplate>) {
    for t in templates.iter_mut() {
        t.cohorts.retain(|c| !c.accesses.is_empty());
    }
    templates.retain(|t| !t.cohorts.is_empty());
}

/// One scripted trial: does this workload still trip the oracle?
fn fails(config: &Config, hooks: TestHooks, templates: &[TxnTemplate]) -> bool {
    let mut ts = templates.to_vec();
    normalize(&mut ts);
    if ts.is_empty() {
        return false;
    }
    run_and_check(config.clone(), Some(ts), hooks).is_ok_and(|(_, report)| !report.clean())
}

/// Greedy chunked minimization of `items` under `keep_failing`, in place.
fn ddmin<T: Clone>(
    items: &mut Vec<T>,
    trials: &mut usize,
    max_trials: usize,
    mut keep_failing: impl FnMut(&[T]) -> bool,
) {
    let mut chunk = (items.len() / 2).max(1);
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < items.len() && items.len() > 1 {
            if *trials >= max_trials {
                return;
            }
            let end = (i + chunk).min(items.len());
            let mut candidate = Vec::with_capacity(items.len() - (end - i));
            candidate.extend_from_slice(&items[..i]);
            candidate.extend_from_slice(&items[end..]);
            *trials += 1;
            if !candidate.is_empty() && keep_failing(&candidate) {
                *items = candidate;
                reduced = true;
                // Re-scan from the same index: the next chunk slid here.
            } else {
                i = end;
            }
        }
        if !reduced {
            if chunk == 1 {
                return;
            }
            chunk = (chunk / 2).max(1);
        } else {
            chunk = chunk.min(items.len().max(1));
        }
    }
}

/// Minimize `templates` so the oracle still fails on `config` + `hooks`.
///
/// `max_trials` bounds the number of simulator runs (each run is cheap:
/// scripted workloads end at `max_sim_time`). The input workload must
/// already fail; if it does not, it is returned unshrunk.
pub fn shrink_workload(
    config: &Config,
    hooks: TestHooks,
    mut templates: Vec<TxnTemplate>,
    max_trials: usize,
) -> ShrinkOutcome {
    normalize(&mut templates);
    let mut trials = 0usize;

    // Pass 1: whole transactions.
    ddmin(&mut templates, &mut trials, max_trials, |cand| {
        fails(config, hooks, cand)
    });

    // Pass 2: individual accesses within each surviving cohort.
    let txn_count = templates.len();
    for ti in 0..txn_count {
        let cohort_count = templates[ti].cohorts.len();
        for ci in 0..cohort_count {
            if trials >= max_trials {
                break;
            }
            let mut accesses = templates[ti].cohorts[ci].accesses.clone();
            let base = templates.clone();
            ddmin(&mut accesses, &mut trials, max_trials, |cand| {
                let mut probe = base.clone();
                probe[ti].cohorts[ci].accesses = cand.to_vec();
                fails(config, hooks, &probe)
            });
            templates[ti].cohorts[ci].accesses = accesses;
        }
    }
    normalize(&mut templates);

    // Final authoritative run on the shrunk workload.
    let report = match run_and_check(config.clone(), Some(templates.clone()), hooks) {
        Ok((_, report)) => report,
        Err(_) => OracleReport::empty(config.algorithm),
    };
    let operations = templates.iter().map(TxnTemplate::total_accesses).sum();
    ShrinkOutcome {
        templates,
        report,
        trials,
        operations,
    }
}
