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
//!
//! A page keeps its `rts`/`wts` inline, like the manager's, in a table with
//! a row per file the node serves. Its pending writes and blocked reads,
//! like the pages of each transaction, are lists in arenas the node's pages
//! share, so the model's size follows the pages touched plus the accesses
//! waiting, not the pages ever written, and once the arenas have grown to
//! the busiest moment no event allocates.

use crate::violation::{Violation, ViolationKind};
use ddbm_cc::Ts;
use ddbm_config::{NodeId, PageId, PageTable, TxnId};
use ddbm_core::{WitnessEvent, WitnessReply};
use denet::{FxHashMap, List, Lists, SimTime};

/// A waiting access: its timestamp and transaction.
type Wait = (Ts, TxnId);

#[derive(Debug, Default, Clone, Copy)]
struct PageModel {
    rts: Ts,
    wts: Ts,
    /// Granted-but-uncommitted writes, sorted by timestamp.
    pending: List,
    /// Blocked reads in arrival order.
    blocked: List,
}

#[derive(Debug, Default)]
struct NodeModel {
    pages: PageTable<PageModel>,
    /// Every page's pending writes and blocked reads.
    waits: Lists<Wait>,
    /// Pages at which each transaction has a pending write or a blocked
    /// read (a page may repeat), so a release visits only those.
    txns: FxHashMap<TxnId, List>,
    /// Every transaction's pages.
    touched: Lists<PageId>,
}

impl NodeModel {
    /// Record that `txn` has a pending write or a blocked read at `page`.
    fn touch(&mut self, txn: TxnId, page: PageId) {
        self.touched.push(self.txns.entry(txn).or_default(), page);
    }
}

/// True when `pm` has a pending write older than `ts`.
fn min_pending_below(waits: &Lists<Wait>, pm: &PageModel, ts: Ts) -> bool {
    waits.iter(pm.pending).next().is_some_and(|(w, _)| w < ts)
}

/// Remove `txn`'s blocked read at `pm`, returning its timestamp.
fn unblock(waits: &mut Lists<Wait>, pm: &mut PageModel, txn: TxnId) -> Option<Ts> {
    let (ts, _) = waits.remove(&mut pm.blocked, |&(_, t)| t == txn)?;
    Some(ts)
}

/// See module docs.
#[derive(Debug, Default)]
pub struct BtoChecker {
    /// Indexed by node id.
    nodes: Vec<NodeModel>,
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

    fn node_model(&mut self, node: NodeId) -> &mut NodeModel {
        if node.0 >= self.nodes.len() {
            self.nodes.resize_with(node.0 + 1, NodeModel::default);
        }
        &mut self.nodes[node.0]
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
                let nm = self.node_model(node);
                let pm = nm.pages.entry(page);
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
                } else if min_pending_below(&nm.waits, pm, ts) {
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
                            nm.waits
                                .insert(&mut pm.pending, (ts, txn), |&(w, _)| w >= ts);
                            nm.touch(txn, page);
                        }
                    }
                    WitnessReply::Granted => {
                        pm.rts = pm.rts.max(ts);
                    }
                    WitnessReply::Blocked => {
                        nm.waits.push(&mut pm.blocked, (ts, txn));
                        nm.touch(txn, page);
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
                let nm = self.node_model(node);
                let pm = nm.pages.entry(page);
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
                match unblock(&mut nm.waits, pm, txn) {
                    None => out.push(Self::violation(
                        at,
                        txn,
                        node,
                        page,
                        "read woken without a blocked request".into(),
                    )),
                    Some(r_ts) => {
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
                        } else if min_pending_below(&nm.waits, pm, r_ts) {
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
                let nm = self.node_model(node);
                let pm = nm.pages.entry(page);
                match unblock(&mut nm.waits, pm, txn) {
                    None => out.push(Self::violation(
                        at,
                        txn,
                        node,
                        page,
                        "waiter rejected without a blocked read".into(),
                    )),
                    Some(r_ts) => {
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
                let nm = self.node_model(node);
                let pm = nm.pages.entry(page);
                nm.waits.retain(&mut pm.pending, |&(_, t)| t != txn);
                // Thomas rule at install time: only a newer write becomes
                // the version; `max` keeps wts monotone like the manager.
                pm.wts = pm.wts.max(run_ts);
            }
            WitnessEvent::Release { txn, node, .. } => {
                let Some(nm) = self.nodes.get_mut(node.0) else {
                    return;
                };
                if let Some(mut pages) = nm.txns.remove(&txn) {
                    for page in nm.touched.iter(pages) {
                        if let Some(pm) = nm.pages.get_mut(page) {
                            nm.waits.retain(&mut pm.pending, |&(_, t)| t != txn);
                            nm.waits.retain(&mut pm.blocked, |&(_, t)| t != txn);
                        }
                    }
                    nm.touched.clear(&mut pages);
                }
            }
            WitnessEvent::NodeCrash { node } => {
                // The manager is rebuilt from scratch: high-water marks are
                // node-local soft state and do not survive, and neither does
                // the node's release index.
                if let Some(nm) = self.nodes.get_mut(node.0) {
                    *nm = NodeModel::default();
                }
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

    /// (pending writes, blocked reads) at a page of node 1 or 2.
    fn lens(c: &BtoChecker, node: usize, p: u64) -> (usize, usize) {
        let nm = &c.nodes[node];
        let pm = nm.pages.get(page(p)).unwrap();
        (
            nm.waits.iter(pm.pending).count(),
            nm.waits.iter(pm.blocked).count(),
        )
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
        assert!(!c.nodes[1].txns.contains_key(&TxnId(10)));
        let pm = |p| lens(&c, 1, p);
        assert_eq!(pm(0), (0, 1), "another txn's blocked read stays");
        assert_eq!(pm(1), (0, 0));
        assert_eq!(pm(2), (1, 0), "another txn's pending write stays");
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
        assert_eq!(lens(&c, 2, 0), (1, 1));
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
        assert!(c.nodes[1].pages.get(page(0)).is_none());
        assert!(c.nodes[1].txns.is_empty());
    }

    #[test]
    fn waits_reuse_freed_links_and_keep_timestamp_order() {
        use WitnessReply::{Blocked, Granted};
        let install = |txn: u64, p: u64| WitnessEvent::Install {
            txn: TxnId(txn),
            run: 0,
            node: NodeId(1),
            page: page(p),
            run_ts: Ts::new(txn, TxnId(txn)),
            commit_ts: Ts::new(txn, TxnId(txn)),
        };
        let grant = WitnessEvent::Grant {
            txn: TxnId(20),
            run: 0,
            node: NodeId(1),
            page: page(0),
            write: false,
            initial_ts: Ts::new(20, TxnId(20)),
            run_ts: Ts::new(20, TxnId(20)),
        };
        let mut c = BtoChecker::new();
        let out = feed(
            &mut c,
            &[
                access(12, 1, 0, true, Granted),
                access(10, 1, 0, true, Granted),
                access(20, 1, 0, false, Blocked),
                access(30, 1, 5, false, Granted),
            ],
        );
        assert!(out.is_empty(), "{out:?}");
        let nm = &c.nodes[1];
        let pm = nm.pages.get(page(0)).unwrap();
        let pending: Vec<u64> = nm.waits.iter(pm.pending).map(|(_, t)| t.0).collect();
        assert_eq!(pending, [10, 12], "pending writes in timestamp order");
        assert_eq!(lens(&c, 1, 5), (0, 0), "read-only page");
        // The installs leave the blocked read, so the page stays busy until
        // the read is woken.
        let out = feed(
            &mut c,
            &[
                install(10, 0),
                release(10, 1),
                install(12, 0),
                release(12, 1),
            ],
        );
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(lens(&c, 1, 0), (0, 1));
        let out = feed(&mut c, &[grant]);
        assert!(out.is_empty(), "{out:?}");
        let nm = &c.nodes[1];
        let pm = nm.pages.get(page(0)).unwrap();
        assert_eq!(lens(&c, 1, 0), (0, 0));
        assert_eq!(
            (pm.rts, pm.wts),
            (Ts::new(20, TxnId(20)), Ts::new(12, TxnId(12)))
        );
        // Three waits were listed at once at most; later ones reuse the
        // freed links.
        let out = feed(
            &mut c,
            &[
                access(40, 1, 7, true, Granted),
                access(41, 1, 8, true, Granted),
                access(42, 1, 9, true, Granted),
            ],
        );
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(c.nodes[1].waits.capacity(), 3);
    }
}
