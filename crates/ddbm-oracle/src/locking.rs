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

use crate::violation::{Violation, ViolationKind};
use ddbm_cc::Ts;
use ddbm_config::{Algorithm, NodeId, PageId, TxnId};
use ddbm_core::{WitnessEvent, WitnessReply};
use denet::{FxHashMap, SimTime};

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

#[derive(Debug, Default)]
struct PageModel {
    /// Current holders with their mode (`true` = write).
    holders: Vec<(TxnId, bool)>,
    /// Waiters in arrival order.
    queue: Vec<(TxnId, bool)>,
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
    pages: FxHashMap<PageId, PageModel>,
    /// Pages at which each transaction holds or awaits a lock (a page may
    /// repeat), so a release visits only those.
    touched: FxHashMap<TxnId, Vec<PageId>>,
    /// The most recent access request at this node, for wound context: the
    /// simulator emits wounds directly after the access that caused them.
    last_access: Option<LastAccess>,
}

fn conflicts(w1: bool, w2: bool) -> bool {
    w1 || w2
}

/// See module docs.
#[derive(Debug)]
pub struct LockChecker {
    variant: LockVariant,
    /// Strict FIFO grant order (no `lock_barging`). Barging only exists for
    /// the 2PL family; WW/WD lock tables are always strict.
    fifo_strict: bool,
    nodes: FxHashMap<NodeId, NodeModel>,
    /// Initial-startup timestamp per transaction (constant across runs),
    /// learned from access events; the WW/WD priority currency.
    ts: FxHashMap<TxnId, Ts>,
}

impl LockChecker {
    /// A checker for `variant`; `barging` mirrors `system.lock_barging`.
    pub fn new(variant: LockVariant, barging: bool) -> LockChecker {
        let barging_applies =
            matches!(variant, LockVariant::TwoPl | LockVariant::TwoPlTimeout) && barging;
        LockChecker {
            variant,
            fifo_strict: !barging_applies,
            nodes: FxHashMap::default(),
            ts: FxHashMap::default(),
        }
    }

    /// Waits-for edges of one node's model, mirroring the lock table's
    /// definition: each waiter waits for every conflicting holder and every
    /// conflicting waiter queued ahead of it. `extra` injects a hypothetical
    /// waiter at a page's queue tail (a rejected requester that was never
    /// enqueued, reconstructed for cycle checks).
    fn edges(nm: &NodeModel, extra: Option<(PageId, TxnId, bool)>) -> Vec<(TxnId, TxnId)> {
        let mut out = Vec::new();
        for (page, pm) in &nm.pages {
            let tail = match extra {
                Some((p, t, w)) if p == *page => Some((t, w)),
                _ => None,
            };
            let queue_len = pm.queue.len() + usize::from(tail.is_some());
            for i in 0..queue_len {
                let (w, wmode) = if i < pm.queue.len() {
                    pm.queue[i]
                } else {
                    tail.unwrap()
                };
                for &(h, hmode) in &pm.holders {
                    if h != w && conflicts(wmode, hmode) {
                        out.push((w, h));
                    }
                }
                for &(q, qmode) in pm.queue.iter().take(i) {
                    if q != w && conflicts(wmode, qmode) {
                        out.push((w, q));
                    }
                }
            }
        }
        out
    }

    /// True when `who` lies on a waits-for cycle (reachable from itself).
    fn on_cycle(edges: &[(TxnId, TxnId)], who: TxnId) -> bool {
        let mut adj: FxHashMap<TxnId, Vec<TxnId>> = FxHashMap::default();
        for &(a, b) in edges {
            adj.entry(a).or_default().push(b);
        }
        let mut stack = vec![who];
        let mut seen: Vec<TxnId> = Vec::new();
        while let Some(n) = stack.pop() {
            for &m in adj.get(&n).map(Vec::as_slice).unwrap_or(&[]) {
                if m == who {
                    return true;
                }
                if !seen.contains(&m) {
                    seen.push(m);
                    stack.push(m);
                }
            }
        }
        false
    }

    fn release(nm: &mut NodeModel, txn: TxnId) {
        for page in nm.touched.remove(&txn).unwrap_or_default() {
            if let Some(pm) = nm.pages.get_mut(&page) {
                pm.holders.retain(|&(t, _)| t != txn);
                pm.queue.retain(|&(t, _)| t != txn);
                if pm.holders.is_empty() && pm.queue.is_empty() {
                    nm.pages.remove(&page);
                }
            }
        }
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
        out: &mut Vec<Violation>,
    ) {
        let variant = self.variant;
        let fifo_strict = self.fifo_strict;
        let ts = &self.ts;
        let nm = self.nodes.entry(node).or_default();
        match reply {
            WitnessReply::Granted => {
                let pm = nm.pages.entry(page).or_default();
                let held = pm.holders.iter().find(|&&(t, _)| t == txn).map(|&(_, w)| w);
                match held {
                    Some(prev) if prev || !write => {
                        // Re-grant of an already sufficient hold: no change.
                    }
                    Some(_) => {
                        // Read-to-write upgrade. Simulated workloads never
                        // re-access a page, but mirror the table: the
                        // upgrade conflicts with every *other* holder.
                        if pm.holders.iter().any(|&(t, _)| t != txn) {
                            out.push(Self::violation(
                                ViolationKind::ConflictingGrant,
                                at,
                                txn,
                                node,
                                Some(page),
                                "write upgrade granted beside another holder".into(),
                            ));
                        }
                        for h in pm.holders.iter_mut() {
                            if h.0 == txn {
                                h.1 = true;
                            }
                        }
                    }
                    None => {
                        if let Some(&(other, omode)) = pm
                            .holders
                            .iter()
                            .find(|&&(t, m)| t != txn && conflicts(write, m))
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
                                    pm.queue.len()
                                ),
                            ));
                        }
                        pm.holders.push((txn, write));
                        nm.touched.entry(txn).or_default().push(page);
                    }
                }
            }
            WitnessReply::Blocked => {
                if variant == LockVariant::WaitDie {
                    // Older waits: a blocked requester must have *no*
                    // conflicting older transaction ahead of it, else the
                    // manager should have killed it.
                    if let Some(my_ts) = ts.get(&txn).copied() {
                        let pm = nm.pages.entry(page).or_default();
                        let older = pm.holders.iter().chain(pm.queue.iter()).find(|&&(t, m)| {
                            t != txn
                                && conflicts(write, m)
                                && ts.get(&t).is_some_and(|o| o.older_than(my_ts))
                        });
                        if let Some(&(other, _)) = older {
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
                }
                nm.pages.entry(page).or_default().queue.push((txn, write));
                nm.touched.entry(txn).or_default().push(page);
            }
            WitnessReply::Rejected => {
                match variant {
                    LockVariant::TwoPl => {
                        // Local detection names the requester as its own
                        // victim only when queueing it would close a cycle.
                        let edges = Self::edges(nm, Some((page, txn, write)));
                        if !Self::on_cycle(&edges, txn) {
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
                        let my_ts = ts.get(&txn).copied();
                        let sanctioned = my_ts.is_some_and(|mine| {
                            nm.pages.get(&page).is_some_and(|pm| {
                                pm.holders.iter().chain(pm.queue.iter()).any(|&(t, m)| {
                                    t != txn
                                        && conflicts(write, m)
                                        && ts.get(&t).is_some_and(|o| o.older_than(mine))
                                })
                            })
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
        let ts = &self.ts;
        let nm = self.nodes.entry(node).or_default();
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
                let edges = Self::edges(nm, extra);
                if !Self::on_cycle(&edges, victim) {
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
                                pm.holders
                                    .iter()
                                    .chain(pm.queue.iter())
                                    .any(|&(t, m)| t == victim && conflicts(la.write, m))
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
                            pm.queue.iter().enumerate().any(|(i, &(w, wmode))| {
                                let w_older =
                                    ts.get(&w).is_some_and(|wts| wts.older_than(victim_ts));
                                if w == victim || !w_older {
                                    return false;
                                }
                                let victim_holds = pm
                                    .holders
                                    .iter()
                                    .any(|&(t, m)| t == victim && conflicts(wmode, m));
                                let victim_ahead = pm
                                    .queue
                                    .iter()
                                    .take(i)
                                    .any(|&(t, m)| t == victim && conflicts(wmode, m));
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
                self.ts.insert(txn, initial_ts);
                self.observe_access(at, txn, node, page, write, reply, out);
            }
            WitnessEvent::Grant {
                txn,
                node,
                page,
                write,
                ..
            } => {
                let fifo_strict = self.fifo_strict;
                let nm = self.nodes.entry(node).or_default();
                let pm = nm.pages.entry(page).or_default();
                match pm.queue.iter().position(|&(t, _)| t == txn) {
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
                        pm.queue.remove(pos);
                    }
                }
                if let Some(&(other, omode)) = pm
                    .holders
                    .iter()
                    .find(|&&(t, m)| t != txn && conflicts(write, m))
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
                if !pm.holders.iter().any(|&(t, _)| t == txn) {
                    pm.holders.push((txn, write));
                    nm.touched.entry(txn).or_default().push(page);
                }
            }
            WitnessEvent::Reject {
                txn, node, page, ..
            } => {
                let variant = self.variant;
                let ts = &self.ts;
                let nm = self.nodes.entry(node).or_default();
                let pm = nm.pages.entry(page).or_default();
                let my_pos = pm.queue.iter().position(|&(t, _)| t == txn);
                match variant {
                    LockVariant::WaitDie => {
                        // Release-time re-evaluation kills a waiter only if
                        // a conflicting older transaction is still ahead.
                        let sanctioned = match (my_pos, ts.get(&txn).copied()) {
                            (Some(pos), Some(mine)) => {
                                let my_mode = pm.queue[pos].1;
                                pm.holders
                                    .iter()
                                    .chain(pm.queue.iter().take(pos))
                                    .any(|&(t, m)| {
                                        t != txn
                                            && conflicts(my_mode, m)
                                            && ts.get(&t).is_some_and(|o| o.older_than(mine))
                                    })
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
                if let Some(pos) = my_pos {
                    pm.queue.remove(pos);
                }
            }
            WitnessEvent::Wound {
                victim,
                victim_initial_ts,
                requester,
                requester_initial_ts,
                node,
            } => {
                self.ts.insert(victim, victim_initial_ts);
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
                if let Some(nm) = self.nodes.get_mut(&node) {
                    Self::release(nm, txn);
                }
            }
            WitnessEvent::NodeCrash { node } => {
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
        let ids = |v: &[(TxnId, bool)]| v.iter().map(|&(t, w)| (t.0, w)).collect();
        let mut rows: Vec<_> = c.nodes[&N]
            .pages
            .iter()
            .map(|(p, pm)| (p.page, ids(&pm.holders), ids(&pm.queue)))
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
        assert!(!c.nodes[&N].touched.contains_key(&TxnId(1)));
        feed(&mut c, &[release(2, N)]);
        assert!(state(&c).is_empty());
        assert!(c.nodes[&N].touched.is_empty());
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
        assert!(c.nodes[&N].touched.is_empty());
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
        assert!(c.nodes[&N].touched.is_empty());
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
        assert!(c.nodes.is_empty());
    }
}
