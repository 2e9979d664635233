//! Differential checker for basic timestamp ordering.
//!
//! Replays the witness stream through an exact reference model of the BTO
//! manager (`ddbm-cc::bto`): per-page read/write high-water marks, a
//! timestamp-sorted pending-write set, and FIFO blocked reads. Every
//! witnessed reply, wake-up grant, wake-up rejection, and install is
//! compared against what the reference model says timestamp order demands;
//! any divergence is a [`ViolationKind::TimestampOrder`].
//!
//! Each node model also indexes, per transaction, the pages at which it has
//! a pending write or a blocked read, so a release visits only those pages.
//! Every event therefore costs O(pages the transaction touched), however
//! long the run.

use crate::violation::{Violation, ViolationKind};
use ddbm_cc::Ts;
use ddbm_config::{NodeId, PageId, PageMap, TxnId};
use ddbm_core::{WitnessEvent, WitnessReply};
use denet::{FxHashMap, SimTime};

#[derive(Debug, Default)]
struct PageModel {
    rts: Ts,
    wts: Ts,
    /// Granted-but-uncommitted writes, sorted by timestamp.
    pending: Vec<(Ts, TxnId)>,
    /// Blocked reads in arrival order.
    blocked: Vec<(Ts, TxnId)>,
}

impl PageModel {
    fn min_pending_below(&self, ts: Ts) -> bool {
        self.pending.first().is_some_and(|&(w, _)| w < ts)
    }
}

#[derive(Debug, Default)]
struct NodeModel {
    pages: PageMap<PageModel>,
    /// Pages at which each transaction has a pending write or a blocked
    /// read (a page may repeat), so a release visits only those.
    touched: FxHashMap<TxnId, Vec<PageId>>,
}

/// See module docs.
#[derive(Debug, Default)]
pub struct BtoChecker {
    nodes: FxHashMap<NodeId, NodeModel>,
}

impl BtoChecker {
    /// A fresh checker.
    pub fn new() -> BtoChecker {
        BtoChecker::default()
    }

    fn violation(at: SimTime, txn: TxnId, node: NodeId, page: PageId, detail: String) -> Violation {
        Violation {
            kind: ViolationKind::TimestampOrder,
            at,
            txn: Some(txn),
            node: Some(node),
            page: Some(page),
            detail,
        }
    }

    fn page_model(&mut self, node: NodeId, page: PageId) -> &mut PageModel {
        self.nodes
            .entry(node)
            .or_default()
            .pages
            .get_or_default(page)
    }

    /// Feed one witnessed event through the reference model.
    pub fn observe(&mut self, at: SimTime, ev: &WitnessEvent, out: &mut Vec<Violation>) {
        match *ev {
            WitnessEvent::Access {
                txn,
                node,
                page,
                write,
                reply,
                run_ts,
                ..
            } => {
                let nm = self.nodes.entry(node).or_default();
                let pm = nm.pages.get_or_default(page);
                let ts = run_ts;
                let expected = if write {
                    if ts < pm.rts {
                        WitnessReply::Rejected
                    } else {
                        // Granted either way: pending when it will install,
                        // Thomas-skipped when older than the current version.
                        WitnessReply::Granted
                    }
                } else if ts < pm.wts {
                    WitnessReply::Rejected
                } else if pm.min_pending_below(ts) {
                    WitnessReply::Blocked
                } else {
                    WitnessReply::Granted
                };
                if reply != expected {
                    out.push(Self::violation(
                        at,
                        txn,
                        node,
                        page,
                        format!(
                            "{} at ts {:?} answered {:?}, timestamp order demands {:?} \
                             (rts {:?}, wts {:?})",
                            if write { "write" } else { "read" },
                            ts,
                            reply,
                            expected,
                            pm.rts,
                            pm.wts,
                        ),
                    ));
                }
                // Track the witnessed outcome so one divergence does not
                // cascade into noise.
                match reply {
                    WitnessReply::Granted if write => {
                        if ts >= pm.wts {
                            let pos = pm.pending.partition_point(|&(w, _)| w < ts);
                            pm.pending.insert(pos, (ts, txn));
                            nm.touched.entry(txn).or_default().push(page);
                        }
                    }
                    WitnessReply::Granted => {
                        pm.rts = pm.rts.max(ts);
                    }
                    WitnessReply::Blocked => {
                        pm.blocked.push((ts, txn));
                        nm.touched.entry(txn).or_default().push(page);
                    }
                    WitnessReply::Rejected => {}
                }
            }
            WitnessEvent::Grant {
                txn,
                node,
                page,
                write,
                ..
            } => {
                let pm = self.page_model(node, page);
                if write {
                    out.push(Self::violation(
                        at,
                        txn,
                        node,
                        page,
                        "write woken from a queue, but BTO writes never block".into(),
                    ));
                    return;
                }
                match pm.blocked.iter().position(|&(_, t)| t == txn) {
                    None => out.push(Self::violation(
                        at,
                        txn,
                        node,
                        page,
                        "read woken without a blocked request".into(),
                    )),
                    Some(pos) => {
                        let (r_ts, _) = pm.blocked.remove(pos);
                        if r_ts < pm.wts {
                            out.push(Self::violation(
                                at,
                                txn,
                                node,
                                page,
                                format!(
                                    "read at ts {:?} granted though a newer version \
                                     (wts {:?}) committed — it must be rejected",
                                    r_ts, pm.wts,
                                ),
                            ));
                        } else if pm.min_pending_below(r_ts) {
                            out.push(Self::violation(
                                at,
                                txn,
                                node,
                                page,
                                format!("read at ts {:?} woken past a smaller pending write", r_ts),
                            ));
                        }
                        pm.rts = pm.rts.max(r_ts);
                    }
                }
            }
            WitnessEvent::Reject {
                txn, node, page, ..
            } => {
                let pm = self.page_model(node, page);
                match pm.blocked.iter().position(|&(_, t)| t == txn) {
                    None => out.push(Self::violation(
                        at,
                        txn,
                        node,
                        page,
                        "waiter rejected without a blocked read".into(),
                    )),
                    Some(pos) => {
                        let (r_ts, _) = pm.blocked.remove(pos);
                        if r_ts >= pm.wts {
                            out.push(Self::violation(
                                at,
                                txn,
                                node,
                                page,
                                format!(
                                    "blocked read at ts {:?} rejected though still \
                                     readable (wts {:?})",
                                    r_ts, pm.wts,
                                ),
                            ));
                        }
                    }
                }
            }
            WitnessEvent::Install {
                txn,
                node,
                page,
                run_ts,
                ..
            } => {
                let pm = self.page_model(node, page);
                pm.pending.retain(|&(_, t)| t != txn);
                // Thomas rule at install time: only a newer write becomes
                // the version; `max` keeps wts monotone like the manager.
                pm.wts = pm.wts.max(run_ts);
            }
            WitnessEvent::Release { txn, node, .. } => {
                if let Some(nm) = self.nodes.get_mut(&node) {
                    for page in nm.touched.remove(&txn).unwrap_or_default() {
                        if let Some(pm) = nm.pages.get_mut(page) {
                            pm.pending.retain(|&(_, t)| t != txn);
                            pm.blocked.retain(|&(_, t)| t != txn);
                        }
                    }
                }
            }
            WitnessEvent::NodeCrash { node } => {
                // The manager is rebuilt from scratch: high-water marks are
                // node-local soft state and do not survive, and neither does
                // the node's release index.
                self.nodes.remove(&node);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddbm_config::FileId;

    fn page(p: u64) -> PageId {
        PageId {
            file: FileId(0),
            page: p,
        }
    }

    fn access(txn: u64, node: usize, p: u64, write: bool, reply: WitnessReply) -> WitnessEvent {
        WitnessEvent::Access {
            txn: TxnId(txn),
            run: 0,
            node: NodeId(node),
            page: page(p),
            write,
            reply,
            initial_ts: Ts::new(txn, TxnId(txn)),
            run_ts: Ts::new(txn, TxnId(txn)),
        }
    }

    fn release(txn: u64, node: usize) -> WitnessEvent {
        WitnessEvent::Release {
            txn: TxnId(txn),
            run: 0,
            node: NodeId(node),
            commit: false,
        }
    }

    fn feed(c: &mut BtoChecker, evs: &[WitnessEvent]) -> Vec<Violation> {
        let mut out = Vec::new();
        for ev in evs {
            c.observe(SimTime(0), ev, &mut out);
        }
        out
    }

    #[test]
    fn release_clears_pending_writes_and_blocked_reads() {
        use WitnessReply::{Blocked, Granted};
        let mut c = BtoChecker::new();
        let out = feed(
            &mut c,
            &[
                access(5, 1, 2, true, Granted),
                access(10, 1, 0, true, Granted),
                access(10, 1, 1, true, Granted),
                access(10, 1, 2, false, Blocked),
                access(20, 1, 0, false, Blocked),
                release(10, 1),
            ],
        );
        assert!(out.is_empty(), "{out:?}");
        let nm = &c.nodes[&NodeId(1)];
        assert!(!nm.touched.contains_key(&TxnId(10)));
        let pm = |p| nm.pages.get(page(p)).unwrap();
        assert!(pm(0).pending.is_empty() && pm(1).pending.is_empty());
        assert!(pm(2).blocked.is_empty());
        assert_eq!(pm(2).pending.len(), 1, "another txn's pending write stays");
        assert_eq!(pm(0).blocked.len(), 1, "another txn's blocked read stays");
        // Every formerly pending page now answers a later read at once.
        let out = feed(
            &mut c,
            &[
                access(30, 1, 0, false, Granted),
                access(30, 1, 1, false, Granted),
            ],
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn release_at_one_node_keeps_other_nodes_pending_writes() {
        use WitnessReply::{Blocked, Granted};
        let mut c = BtoChecker::new();
        let out = feed(
            &mut c,
            &[
                access(10, 1, 0, true, Granted),
                access(10, 2, 0, true, Granted),
                release(10, 1),
                access(20, 1, 0, false, Granted),
                access(20, 2, 0, false, Blocked),
            ],
        );
        assert!(out.is_empty(), "{out:?}");
        let pm = c.nodes[&NodeId(2)].pages.get(page(0)).unwrap();
        assert_eq!(pm.pending.len(), 1);
    }

    #[test]
    fn release_after_node_crash_leaves_nothing() {
        let mut c = BtoChecker::new();
        let out = feed(
            &mut c,
            &[
                access(10, 1, 0, true, WitnessReply::Granted),
                WitnessEvent::NodeCrash { node: NodeId(1) },
                release(10, 1),
            ],
        );
        assert!(out.is_empty(), "{out:?}");
        assert!(c.nodes.is_empty());
    }
}
