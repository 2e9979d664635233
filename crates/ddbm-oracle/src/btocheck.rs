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
//! A page keeps its `rts`/`wts` inline, like the manager's, and borrows its
//! two lists from the node's [`Spares`] stock only while one of them is
//! non-empty, so the model's size follows the pages touched plus the pages
//! busy, not the pages ever written.

use crate::violation::{Violation, ViolationKind};
use ddbm_cc::Ts;
use ddbm_config::{NodeId, PageBuffers, PageId, PageMap, Spares, TxnId};
use ddbm_core::{WitnessEvent, WitnessReply};
use denet::{FxHashMap, SimTime};

#[derive(Debug, Default)]
struct PageModel {
    rts: Ts,
    wts: Ts,
    /// The page's waiting accesses, boxed: `None` while both lists are
    /// empty.
    lists: Option<Box<Lists>>,
}

#[derive(Debug)]
struct Lists {
    /// Granted-but-uncommitted writes, sorted by timestamp.
    pending: Vec<(Ts, TxnId)>,
    /// Blocked reads in arrival order.
    blocked: Vec<(Ts, TxnId)>,
}

impl PageBuffers for Lists {
    /// Room for the first pending writes, as in the manager.
    fn stocked() -> Self {
        Lists {
            pending: Vec::with_capacity(4),
            blocked: Vec::new(),
        }
    }

    fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.blocked.is_empty()
    }
}

impl PageModel {
    fn min_pending_below(&self, ts: Ts) -> bool {
        self.lists
            .as_ref()
            .and_then(|l| l.pending.first())
            .is_some_and(|&(w, _)| w < ts)
    }

    /// Remove `txn`'s blocked read, returning its timestamp.
    fn unblock(&mut self, txn: TxnId) -> Option<Ts> {
        let blocked = &mut self.lists.as_mut()?.blocked;
        let pos = blocked.iter().position(|&(_, t)| t == txn)?;
        Some(blocked.remove(pos).0)
    }

    /// Drop every pending write and blocked read of `txn`.
    fn forget(&mut self, txn: TxnId) {
        if let Some(lists) = &mut self.lists {
            lists.pending.retain(|&(_, t)| t != txn);
            lists.blocked.retain(|&(_, t)| t != txn);
        }
    }
}

#[derive(Debug, Default)]
struct NodeModel {
    pages: PageMap<PageModel>,
    /// Lists of pages that went idle, kept for the next busy page.
    spare: Spares<Lists>,
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

    fn node_model(&mut self, node: NodeId) -> &mut NodeModel {
        self.nodes.entry(node).or_default()
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
                            let pending = &mut nm.spare.fill(&mut pm.lists).pending;
                            let pos = pending.partition_point(|&(w, _)| w < ts);
                            pending.insert(pos, (ts, txn));
                            nm.touched.entry(txn).or_default().push(page);
                        }
                    }
                    WitnessReply::Granted => {
                        pm.rts = pm.rts.max(ts);
                    }
                    WitnessReply::Blocked => {
                        nm.spare.fill(&mut pm.lists).blocked.push((ts, txn));
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
                let nm = self.node_model(node);
                let pm = nm.pages.get_or_default(page);
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
                match pm.unblock(txn) {
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
                        nm.spare.settle(&mut pm.lists);
                    }
                }
            }
            WitnessEvent::Reject {
                txn, node, page, ..
            } => {
                let nm = self.node_model(node);
                let pm = nm.pages.get_or_default(page);
                match pm.unblock(txn) {
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
                        nm.spare.settle(&mut pm.lists);
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
                let pm = nm.pages.get_or_default(page);
                if let Some(lists) = &mut pm.lists {
                    lists.pending.retain(|&(_, t)| t != txn);
                }
                // Thomas rule at install time: only a newer write becomes
                // the version; `max` keeps wts monotone like the manager.
                pm.wts = pm.wts.max(run_ts);
                nm.spare.settle(&mut pm.lists);
            }
            WitnessEvent::Release { txn, node, .. } => {
                if let Some(nm) = self.nodes.get_mut(&node) {
                    for page in nm.touched.remove(&txn).unwrap_or_default() {
                        if let Some(pm) = nm.pages.get_mut(page) {
                            pm.forget(txn);
                            nm.spare.settle(&mut pm.lists);
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

    /// (pending writes, blocked reads) at a page.
    fn lens(pm: &PageModel) -> (usize, usize) {
        pm.lists
            .as_ref()
            .map_or((0, 0), |l| (l.pending.len(), l.blocked.len()))
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
        let pm = |p| lens(nm.pages.get(page(p)).unwrap());
        assert_eq!(pm(0), (0, 1), "another txn's blocked read stays");
        assert_eq!(pm(1), (0, 0));
        assert_eq!(pm(2), (1, 0), "another txn's pending write stays");
        // The idle page's lists went back to stock.
        assert!(nm.pages.get(page(1)).unwrap().lists.is_none());
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
        assert_eq!(lens(pm), (1, 1));
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

    #[test]
    fn idle_pages_hand_their_lists_to_the_next_busy_page() {
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
                access(10, 1, 0, true, Granted),
                access(20, 1, 0, false, Blocked),
                access(30, 1, 5, false, Granted),
            ],
        );
        assert!(out.is_empty(), "{out:?}");
        let nm = &c.nodes[&NodeId(1)];
        assert!(
            nm.pages.get(page(5)).unwrap().lists.is_none(),
            "read-only page"
        );
        let lists: *const Lists = &**nm.pages.get(page(0)).unwrap().lists.as_ref().unwrap();
        // The install leaves the blocked read, so the page stays busy until
        // the read is woken.
        let out = feed(&mut c, &[install(10, 0), release(10, 1)]);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(
            lens(c.nodes[&NodeId(1)].pages.get(page(0)).unwrap()),
            (0, 1)
        );
        let out = feed(&mut c, &[grant]);
        assert!(out.is_empty(), "{out:?}");
        let nm = &c.nodes[&NodeId(1)];
        let pm = nm.pages.get(page(0)).unwrap();
        assert!(pm.lists.is_none());
        assert_eq!(
            (pm.rts, pm.wts),
            (Ts::new(20, TxnId(20)), Ts::new(10, TxnId(10)))
        );
        assert_eq!(nm.spare.stock(), 1);
        // The next page to go busy gets the same lists back.
        let out = feed(&mut c, &[access(40, 1, 7, true, Granted)]);
        assert!(out.is_empty(), "{out:?}");
        let nm = &c.nodes[&NodeId(1)];
        let reused: *const Lists = &**nm.pages.get(page(7)).unwrap().lists.as_ref().unwrap();
        assert!(std::ptr::eq(lists, reused));
        assert_eq!(nm.spare.stock(), 0);
    }
}
