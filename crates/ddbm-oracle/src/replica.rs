//! Replica-control invariant: every committed write must be installed at
//! enough distinct replicas.
//!
//! Under ROWA a committed write is installed at *every* replica of the page's
//! file (`factor` nodes); under a read/write quorum it is installed at at
//! least `write_quorum()` nodes. A committed run that installed a page at
//! fewer nodes than that left a stale copy behind — the exact defect the
//! `skip_replica_write` test hook plants — and a later read routed to the
//! stale replica observes old data without any single-node CC rule firing.
//! This checker makes that failure deterministic to catch: it does not need
//! the stale read to actually happen, only the short write set.
//!
//! The checker is only instantiated for replicated, fault-free streams.
//! Under faults a write set may legitimately shrink (ROWA writes all *live*
//! replicas), which this stream-level witness cannot distinguish from the
//! defect.

use crate::violation::{Violation, ViolationKind};
use crate::WitnessEvent;
use ddbm_config::{NodeId, PageId, ReplicaControl, ReplicationParams, TxnId};
use ddbm_core::protocol::RunId;
use denet::{FxHashMap, List, Lists, SimTime};

type Run = (TxnId, RunId);

/// Counts distinct install nodes per (run, page) and flags committed runs
/// whose write sets fall short of the replica control's requirement.
///
/// Each run in flight keeps one list of the `(page, node)` copies it
/// installed, in an arena shared by all runs; at the run's `Committed`
/// event the list is sorted and deduplicated in a reused buffer and its
/// links go back to the arena, so the checker's buffers follow the runs
/// committing at once and, once grown, no event allocates.
#[derive(Debug)]
pub struct ReplicaChecker {
    /// The copies each run in flight installed (a copy may repeat).
    installs: FxHashMap<Run, List>,
    copies: Lists<(PageId, NodeId)>,
    /// Scratch: one committed run's copies, sorted.
    sorted: Vec<(PageId, NodeId)>,
    /// Replicas every committed write must reach.
    required: usize,
}

impl ReplicaChecker {
    /// A checker for the given replica control. `required` is `factor` for
    /// ROWA (write-all) and `write_quorum()` for quorum control.
    pub fn new(replication: &ReplicationParams) -> Self {
        let required = match replication.control {
            ReplicaControl::ReadOneWriteAll => replication.factor,
            _ => replication.write_quorum(),
        };
        ReplicaChecker {
            installs: FxHashMap::default(),
            copies: Lists::default(),
            sorted: Vec::new(),
            required,
        }
    }

    /// Feed one witness event; emits violations at commit points.
    pub fn observe(&mut self, at: SimTime, ev: &WitnessEvent, out: &mut Vec<Violation>) {
        match *ev {
            WitnessEvent::Install {
                txn,
                run,
                node,
                page,
                ..
            } => {
                let list = self.installs.entry((txn, run)).or_default();
                self.copies.push(list, (page, node));
            }
            WitnessEvent::Committed { txn, run, .. } => {
                // Installs are only counted up to the run's commit, so its
                // entry can go: the map holds only runs still in flight.
                let Some(mut list) = self.installs.remove(&(txn, run)) else {
                    return; // read-only transaction
                };
                self.sorted.clear();
                self.sorted.extend(self.copies.iter(list));
                self.copies.clear(&mut list);
                self.sorted.sort_unstable();
                self.sorted.dedup();
                // One run of equal pages per written page, in page order.
                for copies in self.sorted.chunk_by(|a, b| a.0 == b.0) {
                    let got = copies.len();
                    if got < self.required {
                        out.push(Violation {
                            kind: ViolationKind::UnderReplicatedWrite,
                            at,
                            txn: Some(txn),
                            node: None,
                            page: Some(copies[0].0),
                            detail: format!(
                                "committed write installed at {got} replica(s), \
                                 replica control requires {}",
                                self.required
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddbm_cc::Ts;
    use ddbm_config::FileId;

    fn page(p: u64) -> PageId {
        PageId {
            file: FileId(0),
            page: p,
        }
    }

    fn install(txn: u64, node: usize, p: u64) -> WitnessEvent {
        WitnessEvent::Install {
            txn: TxnId(txn),
            run: 0,
            node: NodeId(node),
            page: page(p),
            run_ts: Ts::default(),
            commit_ts: Ts::default(),
        }
    }

    fn committed(txn: u64) -> WitnessEvent {
        WitnessEvent::Committed {
            txn: TxnId(txn),
            run: 0,
            run_ts: Ts::default(),
            commit_ts: Ts::default(),
        }
    }

    #[test]
    fn full_rowa_write_set_is_clean() {
        let mut c = ReplicaChecker::new(&ReplicationParams::rowa(3));
        let mut out = Vec::new();
        for node in 1..=3 {
            c.observe(SimTime(1), &install(7, node, 4), &mut out);
        }
        c.observe(SimTime(2), &committed(7), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn short_write_set_is_flagged_at_commit() {
        let mut c = ReplicaChecker::new(&ReplicationParams::rowa(3));
        let mut out = Vec::new();
        c.observe(SimTime(1), &install(7, 1, 4), &mut out);
        c.observe(SimTime(1), &install(7, 2, 4), &mut out);
        assert!(out.is_empty(), "nothing flagged before commit");
        c.observe(SimTime(2), &committed(7), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, ViolationKind::UnderReplicatedWrite);
        assert_eq!(out[0].page, Some(page(4)));
        assert!(out[0].detail.contains("2 replica(s)"));
    }

    #[test]
    fn repeated_installs_count_once_and_short_pages_report_in_page_order() {
        let mut c = ReplicaChecker::new(&ReplicationParams::rowa(3));
        let mut out = Vec::new();
        for (node, p) in [
            (2, 9),
            (1, 4),
            (1, 4),
            (2, 4),
            (3, 1),
            (2, 1),
            (1, 1),
            (2, 9),
        ] {
            c.observe(SimTime(1), &install(7, node, p), &mut out);
        }
        c.observe(SimTime(2), &committed(7), &mut out);
        let short: Vec<_> = out.iter().map(|v| (v.page, v.detail.clone())).collect();
        assert_eq!(short.len(), 2, "{out:?}");
        assert_eq!(short[0].0, Some(page(4)));
        assert!(short[0].1.contains("2 replica(s)"));
        assert_eq!(short[1].0, Some(page(9)));
        assert!(short[1].1.contains("1 replica(s)"));
        // The run's list went back: a second run starts from nothing.
        out.clear();
        c.observe(SimTime(3), &install(8, 1, 4), &mut out);
        c.observe(SimTime(4), &committed(8), &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].detail.contains("1 replica(s)"));
    }

    #[test]
    fn quorum_requires_only_the_write_quorum() {
        let mut c = ReplicaChecker::new(&ReplicationParams::quorum(3, 2, 2));
        let mut out = Vec::new();
        c.observe(SimTime(1), &install(9, 1, 0), &mut out);
        c.observe(SimTime(1), &install(9, 3, 0), &mut out);
        c.observe(SimTime(2), &committed(9), &mut out);
        assert!(out.is_empty(), "w=2 of 3 suffices: {out:?}");
    }

    #[test]
    fn aborted_runs_are_never_flagged() {
        let mut c = ReplicaChecker::new(&ReplicationParams::rowa(2));
        let mut out = Vec::new();
        c.observe(SimTime(1), &install(3, 1, 0), &mut out);
        // No Committed event for txn 3: nothing to report.
        c.observe(SimTime(2), &committed(4), &mut out);
        assert!(out.is_empty());
    }
}
