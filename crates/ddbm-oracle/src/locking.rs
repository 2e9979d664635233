//! Differential checker for the locking family (2PL, 2PL-T, wound-wait,
//! wait-die).
//!
//! The checker maintains an independent per-node lock model — holders and a
//! FIFO queue per page, rebuilt purely from witnessed events — and validates
//! every grant against lock compatibility and grant order, every wound
//! against the algorithm's priority rule (wound-wait) or the deadlock
//! detector's cycle claim (2PL), and every rejection against the wait-die
//! "older waits, younger dies" rule. Phase-level rules (strictness, the
//! two-phase rule) are the [`crate::phase::PhaseTracker`]'s job.
//!
//! Each node model also indexes, per transaction, the pages at which it
//! holds or awaits a lock, so a release visits only those pages. Every event
//! therefore costs O(pages the transaction touched), however long the run;
//! only deadlock-victim and re-wound checks walk the node's live lock state.
//!
//! # Layout
//!
//! Node models sit in a `Vec` indexed by node. A node keeps an entry per
//! busy page and per transaction with locks there, both dropped when they
//! go idle; the holders and waiters of every page share one
//! `Lists` arena, and the pages of every transaction another, so the
//! model's buffers follow the locks in use and, once they have grown to
//! the busiest moment, no event allocates. A transaction's entry also
//! carries its initial-startup timestamp, so a priority check reads it
//! with the lookup that finds the transaction's locks.

use crate::violation::{Violation, ViolationKind};
use ddbm_cc::Ts;
use ddbm_config::{Algorithm, NodeId, PageId, TxnId};
use ddbm_core::{WitnessEvent, WitnessReply};
use denet::{FxHashMap, List, Lists, SimTime};

/// Which locking algorithm's rules to enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockVariant {
    /// 2PL with deadlock detection (rejections and wounds must correspond
    /// to waits-for cycles).
    TwoPl,
    /// 2PL with timeouts instead of detection (never rejects or wounds at
    /// the CC level; timeout aborts travel outside the witness stream).
    TwoPlTimeout,
    /// Wound-wait: wounds must target strictly younger conflicting
    /// transactions; never rejects.
    WoundWait,
    /// Wait-die: rejections must be backed by an older conflicting
    /// transaction; never wounds.
    WaitDie,
}

impl LockVariant {
    /// The variant for a locking-family algorithm, `None` otherwise.
    pub fn of(algorithm: Algorithm) -> Option<LockVariant> {
        match algorithm {
            Algorithm::TwoPhaseLocking => Some(LockVariant::TwoPl),
            Algorithm::TwoPhaseLockingTimeout => Some(LockVariant::TwoPlTimeout),
            Algorithm::WoundWait => Some(LockVariant::WoundWait),
            Algorithm::WaitDie => Some(LockVariant::WaitDie),
            _ => None,
        }
    }
}

/// A lock holder or waiter: the transaction and its mode (`true` = write).
type Lock = (TxnId, bool);

/// One busy page's locks, as lists in the node's lock arena.
#[derive(Debug, Clone, Copy, Default)]
struct PageLocks {
    /// Current holders.
    holders: List,
    /// Waiters in arrival order.
    queue: List,
}

/// One transaction's locks at a node.
#[derive(Debug, Clone, Copy)]
struct TxnLocks {
    /// Initial-startup timestamp (constant across runs), learned from its
    /// accesses: the WW/WD priority currency.
    ts: Ts,
    /// Pages at which it holds or awaits a lock (a page may repeat), so a
    /// release visits only those.
    pages: List,
}

#[derive(Debug, Clone, Copy)]
struct LastAccess {
    txn: TxnId,
    page: PageId,
    write: bool,
    reply: WitnessReply,
}

#[derive(Debug, Default)]
struct NodeModel {
    /// Busy pages: those with a holder or a waiter.
    pages: FxHashMap<PageId, PageLocks>,
    /// Every page's holders and waiters.
    locks: Lists<Lock>,
    /// Transactions holding or awaiting a lock here.
    txns: FxHashMap<TxnId, TxnLocks>,
    /// Every transaction's pages.
    touched: Lists<PageId>,
    /// The most recent access request at this node, for wound context: the
    /// simulator emits wounds directly after the access that caused them.
    last_access: Option<LastAccess>,
}

impl NodeModel {
    /// The initial timestamp of `txn`, which holds or awaits a lock here.
    fn ts(&self, txn: TxnId) -> Option<Ts> {
        self.txns.get(&txn).map(|t| t.ts)
    }

    /// The first lock in `locks` that is not `txn`'s, conflicts with
    /// `mode` and belongs to a transaction older than `than`.
    fn older_conflict(
        &self,
        mut locks: impl Iterator<Item = Lock>,
        txn: TxnId,
        mode: bool,
        than: Ts,
    ) -> Option<Lock> {
        locks.find(|&(t, m)| {
            t != txn && conflicts(mode, m) && self.ts(t).is_some_and(|o| o.older_than(than))
        })
    }

    /// Record that `txn` (initial timestamp `ts`) holds or awaits a lock
    /// on `page`.
    fn touch(&mut self, txn: TxnId, ts: Ts, page: PageId) {
        let entry = self.txns.entry(txn).or_insert(TxnLocks {
            ts,
            pages: List::EMPTY,
        });
        entry.ts = ts;
        self.touched.push(&mut entry.pages, page);
    }

    /// Drop every lock `txn` holds or awaits here.
    fn release(&mut self, txn: TxnId) {
        let Some(mut entry) = self.txns.remove(&txn) else {
            return;
        };
        for page in self.touched.iter(entry.pages) {
            if let Some(pm) = self.pages.get_mut(&page) {
                self.locks.retain(&mut pm.holders, |&(t, _)| t != txn);
                self.locks.retain(&mut pm.queue, |&(t, _)| t != txn);
                if pm.holders.is_empty() && pm.queue.is_empty() {
                    self.pages.remove(&page);
                }
            }
        }
        self.touched.clear(&mut entry.pages);
    }

    /// Waits-for edges of the model into `out`, mirroring the lock table's
    /// definition: each waiter waits for every conflicting holder and every
    /// conflicting waiter queued ahead of it. `extra` injects a
    /// hypothetical waiter at a page's queue tail (a rejected requester
    /// that was never enqueued, reconstructed for cycle checks).
    fn edges(&self, extra: Option<(PageId, TxnId, bool)>, out: &mut Vec<(TxnId, TxnId)>) {
        out.clear();
        for (page, pm) in &self.pages {
            let tail = extra.filter(|&(p, ..)| p == *page).map(|(_, t, w)| (t, w));
            let holders = self.locks.iter(pm.holders);
            let queue = self.locks.iter(pm.queue).chain(tail);
            for (i, (w, wmode)) in queue.clone().enumerate() {
                for (h, hmode) in holders.clone() {
                    if h != w && conflicts(wmode, hmode) {
                        out.push((w, h));
                    }
                }
                for (q, qmode) in queue.clone().take(i) {
                    if q != w && conflicts(wmode, qmode) {
                        out.push((w, q));
                    }
                }
            }
        }
    }
}

fn conflicts(w1: bool, w2: bool) -> bool {
    w1 || w2
}

/// Reused buffers of the waits-for cycle check.
#[derive(Debug, Default)]
struct CycleScratch {
    edges: Vec<(TxnId, TxnId)>,
    stack: Vec<TxnId>,
    seen: Vec<TxnId>,
}

impl CycleScratch {
    /// True when `who` lies on a cycle of the node's waits-for graph, with
    /// `extra` injected as in [`NodeModel::edges`].
    fn on_cycle(
        &mut self,
        nm: &NodeModel,
        extra: Option<(PageId, TxnId, bool)>,
        who: TxnId,
    ) -> bool {
        nm.edges(extra, &mut self.edges);
        // Sorted, the edges out of a transaction are one run.
        self.edges.sort_unstable();
        self.stack.clear();
        self.seen.clear();
        self.stack.push(who);
        while let Some(n) = self.stack.pop() {
            let from = self.edges.partition_point(|&(a, _)| a < n);
            for &(a, m) in &self.edges[from..] {
                if a != n {
                    break;
                }
                if m == who {
                    return true;
                }
                if !self.seen.contains(&m) {
                    self.seen.push(m);
                    self.stack.push(m);
                }
            }
        }
        false
    }
}

/// See module docs.
#[derive(Debug)]
pub struct LockChecker {
    variant: LockVariant,
    /// Strict FIFO grant order (no `lock_barging`). Barging only exists for
    /// the 2PL family; WW/WD lock tables are always strict.
    fifo_strict: bool,
    /// Indexed by node id.
    nodes: Vec<NodeModel>,
    scratch: CycleScratch,
}

impl LockChecker {
    /// A checker for `variant`; `barging` mirrors `system.lock_barging`.
    pub fn new(variant: LockVariant, barging: bool) -> LockChecker {
        let barging_applies =
            matches!(variant, LockVariant::TwoPl | LockVariant::TwoPlTimeout) && barging;
        LockChecker {
            variant,
            fifo_strict: !barging_applies,
            nodes: Vec::new(),
            scratch: CycleScratch::default(),
        }
    }

    fn node(&mut self, node: NodeId) -> &mut NodeModel {
        if node.0 >= self.nodes.len() {
            self.nodes.resize_with(node.0 + 1, NodeModel::default);
        }
        &mut self.nodes[node.0]
    }

    fn violation(
        kind: ViolationKind,
        at: SimTime,
        txn: TxnId,
        node: NodeId,
        page: Option<PageId>,
        detail: String,
    ) -> Violation {
        Violation {
            kind,
            at,
            txn: Some(txn),
            node: Some(node),
            page,
            detail,
        }
    }

    // The parameter list mirrors the witness event's fields one-to-one.
    #[allow(clippy::too_many_arguments)]
    fn observe_access(
        &mut self,
        at: SimTime,
        txn: TxnId,
        node: NodeId,
        page: PageId,
        write: bool,
        reply: WitnessReply,
        my_ts: Ts,
        out: &mut Vec<Violation>,
    ) {
        let variant = self.variant;
        let fifo_strict = self.fifo_strict;
        let nm = &mut self.nodes[node.0];
        match reply {
            WitnessReply::Granted => {
                let pm = nm.pages.entry(page).or_default();
                let held = nm
                    .locks
                    .iter(pm.holders)
                    .find(|&(t, _)| t == txn)
                    .map(|(_, w)| w);
                match held {
                    Some(prev) if prev || !write => {
                        // Re-grant of an already sufficient hold: no change.
                    }
                    Some(_) => {
                        // Read-to-write upgrade. Simulated workloads never
                        // re-access a page, but mirror the table: the
                        // upgrade conflicts with every *other* holder.
                        if nm.locks.iter(pm.holders).any(|(t, _)| t != txn) {
                            out.push(Self::violation(
                                ViolationKind::ConflictingGrant,
                                at,
                                txn,
                                node,
                                Some(page),
                                "write upgrade granted beside another holder".into(),
                            ));
                        }
                        nm.locks.for_each_mut(pm.holders, |h| {
                            if h.0 == txn {
                                h.1 = true;
                            }
                        });
                    }
                    None => {
                        if let Some((other, omode)) = nm
                            .locks
                            .iter(pm.holders)
                            .find(|&(t, m)| t != txn && conflicts(write, m))
                        {
                            out.push(Self::violation(
                                ViolationKind::ConflictingGrant,
                                at,
                                txn,
                                node,
                                Some(page),
                                format!(
                                    "{} granted while txn {} holds {}",
                                    if write { "write" } else { "read" },
                                    other.0,
                                    if omode { "write" } else { "read" },
                                ),
                            ));
                        }
                        if fifo_strict && !pm.queue.is_empty() {
                            out.push(Self::violation(
                                ViolationKind::NonFifoGrant,
                                at,
                                txn,
                                node,
                                Some(page),
                                format!(
                                    "fresh request granted past {} queued waiter(s)",
                                    nm.locks.iter(pm.queue).count()
                                ),
                            ));
                        }
                        nm.locks.push(&mut pm.holders, (txn, write));
                        nm.touch(txn, my_ts, page);
                    }
                }
            }
            WitnessReply::Blocked => {
                // Older waits: a blocked requester must have *no*
                // conflicting older transaction ahead of it, else the
                // manager should have killed it.
                let wait_die = variant == LockVariant::WaitDie;
                if let Some(pm) = nm.pages.get(&page).filter(|_| wait_die) {
                    let ahead = nm.locks.iter(pm.holders).chain(nm.locks.iter(pm.queue));
                    if let Some((other, _)) = nm.older_conflict(ahead, txn, write, my_ts) {
                        out.push(Self::violation(
                            ViolationKind::WaitDiePriority,
                            at,
                            txn,
                            node,
                            Some(page),
                            format!(
                                "blocked behind older conflicting txn {} (should have died)",
                                other.0
                            ),
                        ));
                    }
                }
                let pm = nm.pages.entry(page).or_default();
                nm.locks.push(&mut pm.queue, (txn, write));
                nm.touch(txn, my_ts, page);
            }
            WitnessReply::Rejected => {
                match variant {
                    LockVariant::TwoPl => {
                        // Local detection names the requester as its own
                        // victim only when queueing it would close a cycle.
                        if !self.scratch.on_cycle(nm, Some((page, txn, write)), txn) {
                            out.push(Self::violation(
                                ViolationKind::VictimNotOnCycle,
                                at,
                                txn,
                                node,
                                Some(page),
                                "requester rejected but its wait closes no cycle".into(),
                            ));
                        }
                    }
                    LockVariant::TwoPlTimeout => {
                        out.push(Self::violation(
                            ViolationKind::UnsanctionedReject,
                            at,
                            txn,
                            node,
                            Some(page),
                            "2PL-T disables detection yet rejected a requester".into(),
                        ));
                    }
                    LockVariant::WoundWait => {
                        out.push(Self::violation(
                            ViolationKind::UnsanctionedReject,
                            at,
                            txn,
                            node,
                            Some(page),
                            "wound-wait never rejects a requester".into(),
                        ));
                    }
                    LockVariant::WaitDie => {
                        // Younger dies: there must be a conflicting older
                        // transaction already at the page.
                        let sanctioned = nm.pages.get(&page).is_some_and(|pm| {
                            let present = nm.locks.iter(pm.holders).chain(nm.locks.iter(pm.queue));
                            nm.older_conflict(present, txn, write, my_ts).is_some()
                        });
                        if !sanctioned {
                            out.push(Self::violation(
                                ViolationKind::WaitDiePriority,
                                at,
                                txn,
                                node,
                                Some(page),
                                "died with no older conflicting transaction present".into(),
                            ));
                        }
                    }
                }
                // Rejected requesters are never enqueued.
            }
        }
        nm.last_access = Some(LastAccess {
            txn,
            page,
            write,
            reply,
        });
    }

    // The parameter list mirrors the witness event's fields one-to-one.
    #[allow(clippy::too_many_arguments)]
    fn observe_wound(
        &mut self,
        at: SimTime,
        victim: TxnId,
        victim_ts: Ts,
        requester: Option<TxnId>,
        requester_ts: Option<Ts>,
        node: NodeId,
        out: &mut Vec<Violation>,
    ) {
        let variant = self.variant;
        let nm = &self.nodes[node.0];
        match variant {
            LockVariant::TwoPl => {
                // Detection-time bystander victim: must lie on a waits-for
                // cycle. If the triggering requester was rejected (never
                // enqueued), re-inject its hypothetical wait — carving only
                // removes edges, so every victim of one detection pass lies
                // on a cycle of the original graph.
                let extra = nm.last_access.and_then(|la| {
                    (la.reply == WitnessReply::Rejected).then_some((la.page, la.txn, la.write))
                });
                if !self.scratch.on_cycle(nm, extra, victim) {
                    out.push(Self::violation(
                        ViolationKind::VictimNotOnCycle,
                        at,
                        victim,
                        node,
                        None,
                        "deadlock victim lies on no waits-for cycle".into(),
                    ));
                }
            }
            LockVariant::TwoPlTimeout => {
                out.push(Self::violation(
                    ViolationKind::WoundPriority,
                    at,
                    victim,
                    node,
                    None,
                    "2PL-T never wounds".into(),
                ));
            }
            LockVariant::WaitDie => {
                out.push(Self::violation(
                    ViolationKind::WoundPriority,
                    at,
                    victim,
                    node,
                    None,
                    "wait-die never wounds".into(),
                ));
            }
            LockVariant::WoundWait => {
                match (requester, requester_ts) {
                    (Some(req), Some(req_ts)) => {
                        // Access-time wound: requester must be strictly
                        // older, and the victim must actually conflict at
                        // the requested page.
                        if !req_ts.older_than(victim_ts) {
                            out.push(Self::violation(
                                ViolationKind::WoundPriority,
                                at,
                                victim,
                                node,
                                None,
                                format!("requester {} is not older than its victim", req.0),
                            ));
                        }
                        if let Some(la) = nm.last_access.filter(|la| la.txn == req) {
                            let conflicting = nm.pages.get(&la.page).is_some_and(|pm| {
                                nm.locks
                                    .iter(pm.holders)
                                    .chain(nm.locks.iter(pm.queue))
                                    .any(|(t, m)| t == victim && conflicts(la.write, m))
                            });
                            if !conflicting {
                                out.push(Self::violation(
                                    ViolationKind::WoundPriority,
                                    at,
                                    victim,
                                    node,
                                    Some(la.page),
                                    "victim holds/awaits no conflicting lock at the requested page"
                                        .into(),
                                ));
                            }
                        }
                    }
                    _ => {
                        // Release-time re-wound: some older waiter must
                        // conflict with the victim ahead of it.
                        let sanctioned = nm.pages.values().any(|pm| {
                            let queue = nm.locks.iter(pm.queue);
                            queue.clone().enumerate().any(|(i, (w, wmode))| {
                                let w_older = nm.ts(w).is_some_and(|wts| wts.older_than(victim_ts));
                                if w == victim || !w_older {
                                    return false;
                                }
                                let victim_holds = nm
                                    .locks
                                    .iter(pm.holders)
                                    .any(|(t, m)| t == victim && conflicts(wmode, m));
                                let victim_ahead = queue
                                    .clone()
                                    .take(i)
                                    .any(|(t, m)| t == victim && conflicts(wmode, m));
                                victim_holds || victim_ahead
                            })
                        });
                        if !sanctioned {
                            out.push(Self::violation(
                                ViolationKind::WoundPriority,
                                at,
                                victim,
                                node,
                                None,
                                "re-wound victim blocks no older waiter".into(),
                            ));
                        }
                    }
                }
            }
        }
    }

    /// Feed one witnessed event through the lock model.
    pub fn observe(&mut self, at: SimTime, ev: &WitnessEvent, out: &mut Vec<Violation>) {
        match *ev {
            WitnessEvent::Access {
                txn,
                node,
                page,
                write,
                reply,
                initial_ts,
                ..
            } => {
                self.node(node);
                self.observe_access(at, txn, node, page, write, reply, initial_ts, out);
            }
            WitnessEvent::Grant {
                txn,
                node,
                page,
                write,
                initial_ts,
                ..
            } => {
                let fifo_strict = self.fifo_strict;
                let nm = self.node(node);
                let pm = nm.pages.entry(page).or_default();
                let queued = nm.locks.iter(pm.queue).position(|(t, _)| t == txn);
                match queued {
                    None => {
                        out.push(Self::violation(
                            ViolationKind::NonFifoGrant,
                            at,
                            txn,
                            node,
                            Some(page),
                            "granted from the queue without a queued request".into(),
                        ));
                    }
                    Some(pos) => {
                        if fifo_strict && pos != 0 {
                            out.push(Self::violation(
                                ViolationKind::NonFifoGrant,
                                at,
                                txn,
                                node,
                                Some(page),
                                format!("granted from queue position {pos} (FIFO head expected)"),
                            ));
                        }
                        nm.locks.remove(&mut pm.queue, |&(t, _)| t == txn);
                    }
                }
                if let Some((other, omode)) = nm
                    .locks
                    .iter(pm.holders)
                    .find(|&(t, m)| t != txn && conflicts(write, m))
                {
                    out.push(Self::violation(
                        ViolationKind::ConflictingGrant,
                        at,
                        txn,
                        node,
                        Some(page),
                        format!(
                            "woken {} conflicts with txn {} holding {}",
                            if write { "write" } else { "read" },
                            other.0,
                            if omode { "write" } else { "read" },
                        ),
                    ));
                }
                if !nm.locks.iter(pm.holders).any(|(t, _)| t == txn) {
                    nm.locks.push(&mut pm.holders, (txn, write));
                    nm.touch(txn, initial_ts, page);
                }
            }
            WitnessEvent::Reject {
                txn, node, page, ..
            } => {
                let variant = self.variant;
                let nm = self.node(node);
                let pm = nm.pages.get(&page).copied().unwrap_or_default();
                let mine = nm
                    .locks
                    .iter(pm.queue)
                    .enumerate()
                    .find(|&(_, (t, _))| t == txn);
                match variant {
                    LockVariant::WaitDie => {
                        // Release-time re-evaluation kills a waiter only if
                        // a conflicting older transaction is still ahead.
                        let sanctioned = match (mine, nm.ts(txn)) {
                            (Some((pos, (_, my_mode))), Some(my_ts)) => {
                                let ahead = nm
                                    .locks
                                    .iter(pm.holders)
                                    .chain(nm.locks.iter(pm.queue).take(pos));
                                nm.older_conflict(ahead, txn, my_mode, my_ts).is_some()
                            }
                            _ => false,
                        };
                        if !sanctioned {
                            out.push(Self::violation(
                                ViolationKind::WaitDiePriority,
                                at,
                                txn,
                                node,
                                Some(page),
                                "waiter killed with no older conflicting txn ahead".into(),
                            ));
                        }
                    }
                    _ => {
                        out.push(Self::violation(
                            ViolationKind::UnsanctionedReject,
                            at,
                            txn,
                            node,
                            Some(page),
                            "this algorithm never rejects a waiting transaction".into(),
                        ));
                    }
                }
                if mine.is_some() {
                    let pm = nm.pages.get_mut(&page).expect("the waiter's page is busy");
                    nm.locks.remove(&mut pm.queue, |&(t, _)| t == txn);
                }
            }
            WitnessEvent::Wound {
                victim,
                victim_initial_ts,
                requester,
                requester_initial_ts,
                node,
            } => {
                self.node(node);
                self.observe_wound(
                    at,
                    victim,
                    victim_initial_ts,
                    requester,
                    requester_initial_ts,
                    node,
                    out,
                );
            }
            WitnessEvent::Release { txn, node, .. } => {
                if let Some(nm) = self.nodes.get_mut(node.0) {
                    nm.release(txn);
                }
            }
            WitnessEvent::NodeCrash { node } => {
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

    const N: NodeId = NodeId(1);

    fn page(p: u64) -> PageId {
        PageId {
            file: FileId(0),
            page: p,
        }
    }

    fn access(txn: u64, p: u64, write: bool, reply: WitnessReply) -> WitnessEvent {
        WitnessEvent::Access {
            txn: TxnId(txn),
            run: 0,
            node: N,
            page: page(p),
            write,
            reply,
            initial_ts: Ts::new(txn, TxnId(txn)),
            run_ts: Ts::new(txn, TxnId(txn)),
        }
    }

    fn grant(txn: u64, p: u64, write: bool) -> WitnessEvent {
        WitnessEvent::Grant {
            txn: TxnId(txn),
            run: 0,
            node: N,
            page: page(p),
            write,
            initial_ts: Ts::new(txn, TxnId(txn)),
            run_ts: Ts::new(txn, TxnId(txn)),
        }
    }

    fn release(txn: u64, node: NodeId) -> WitnessEvent {
        WitnessEvent::Release {
            txn: TxnId(txn),
            run: 0,
            node,
            commit: false,
        }
    }

    fn feed(c: &mut LockChecker, evs: &[WitnessEvent]) -> Vec<Violation> {
        let mut out = Vec::new();
        for ev in evs {
            c.observe(SimTime(0), ev, &mut out);
        }
        out
    }

    /// A page as `(page, holders, queue)`, transactions by id.
    type Row = (u64, Vec<(u64, bool)>, Vec<(u64, bool)>);

    /// The node model's pages, sorted.
    fn state(c: &LockChecker) -> Vec<Row> {
        let nm = &c.nodes[N.0];
        let ids = |list| nm.locks.iter(list).map(|(t, w): Lock| (t.0, w)).collect();
        let mut rows: Vec<_> = nm
            .pages
            .iter()
            .map(|(p, pm)| (p.page, ids(pm.holders), ids(pm.queue)))
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn release_clears_every_page_and_keeps_other_holds() {
        let mut c = LockChecker::new(LockVariant::TwoPl, false);
        let out = feed(
            &mut c,
            &[
                access(1, 0, true, WitnessReply::Granted),
                access(1, 1, true, WitnessReply::Granted),
                access(2, 2, false, WitnessReply::Granted),
                access(1, 2, true, WitnessReply::Blocked),
                access(2, 0, false, WitnessReply::Blocked),
                release(1, N),
            ],
        );
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(
            state(&c),
            vec![(0, vec![], vec![(2, false)]), (2, vec![(2, false)], vec![])]
        );
        assert!(!c.nodes[N.0].txns.contains_key(&TxnId(1)));
        feed(&mut c, &[release(2, N)]);
        assert!(state(&c).is_empty());
        assert!(c.nodes[N.0].txns.is_empty());
    }

    #[test]
    fn released_locks_reuse_their_links() {
        let mut c = LockChecker::new(LockVariant::TwoPl, false);
        for txn in 1..=100 {
            let out = feed(
                &mut c,
                &[
                    access(txn, txn % 7, true, WitnessReply::Granted),
                    access(txn, (txn + 1) % 7, false, WitnessReply::Granted),
                    release(txn, N),
                ],
            );
            assert!(out.is_empty(), "{out:?}");
        }
        let nm = &c.nodes[N.0];
        assert!(nm.pages.is_empty() && nm.txns.is_empty());
        // Two locks were held at once at most.
        assert_eq!((nm.locks.capacity(), nm.touched.capacity()), (2, 2));
    }

    #[test]
    fn holder_added_by_an_unqueued_grant_is_released() {
        let mut c = LockChecker::new(LockVariant::TwoPl, false);
        let out = feed(&mut c, &[grant(1, 3, true)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, ViolationKind::NonFifoGrant);
        assert_eq!(state(&c), vec![(3, vec![(1, true)], vec![])]);
        feed(&mut c, &[release(1, N)]);
        assert!(state(&c).is_empty());
        assert!(c.nodes[N.0].txns.is_empty());
    }

    #[test]
    fn rejected_waiter_then_release() {
        let mut c = LockChecker::new(LockVariant::TwoPl, false);
        feed(
            &mut c,
            &[
                access(1, 0, true, WitnessReply::Granted),
                access(2, 0, true, WitnessReply::Blocked),
                WitnessEvent::Reject {
                    txn: TxnId(2),
                    run: 0,
                    node: N,
                    page: page(0),
                },
            ],
        );
        assert_eq!(state(&c), vec![(0, vec![(1, true)], vec![])]);
        feed(&mut c, &[release(2, N)]);
        assert_eq!(state(&c), vec![(0, vec![(1, true)], vec![])]);
        feed(&mut c, &[release(1, N)]);
        assert!(state(&c).is_empty());
        assert!(c.nodes[N.0].txns.is_empty());
    }

    #[test]
    fn release_after_node_crash_leaves_nothing() {
        let mut c = LockChecker::new(LockVariant::TwoPl, false);
        let out = feed(
            &mut c,
            &[
                access(1, 0, true, WitnessReply::Granted),
                access(2, 0, true, WitnessReply::Blocked),
                WitnessEvent::NodeCrash { node: N },
                release(1, N),
                release(2, N),
                release(1, NodeId(2)),
            ],
        );
        assert!(out.is_empty(), "{out:?}");
        assert!(state(&c).is_empty());
        assert!(c.nodes.iter().all(|nm| nm.txns.is_empty()));
    }
}
