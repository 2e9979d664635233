//! The locking family: distributed two-phase locking (paper §2.2), its
//! timeout-resolved variant, wound-wait (paper §2.3, after Rosenkrantz et
//! al.) and wait-die (the companion prevention scheme, an extension for
//! ablation studies).
//!
//! All four lock pages dynamically as cohorts execute and hold every lock
//! until the transaction commits or aborts. Read locks share; write locks
//! exclude; an access that will update a page takes a write lock directly
//! (the read and its conversion happen at the same access instant in this
//! workload model). They differ only in how they deal with deadlock — the
//! private `Rule` — and every rule reads the same conflict relation,
//! [`LockTable::wait_pairs`]: a queued request waits behind each
//! conflicting holder and each conflicting request queued ahead of it.
//!
//! - **2PL** *detects*: local detection runs every time a cohort blocks, and
//!   global deadlocks are found by the rotating Snoop, which unions
//!   [`CcManager::waits_for_edges_into`] from every node. The victim is the
//!   cycle member with the most recent initial startup time.
//! - **2PL-T** does nothing: the transaction manager aborts cohorts that stay
//!   blocked past `SystemParams::lock_timeout`.
//! - **Wound-wait** *prevents* deadlock with initial-startup timestamps: an
//!   older waiter wounds every younger transaction it waits behind —
//!   reported in `must_abort` for the coordinator to kill, unless the target
//!   is already in the second phase of its commit protocol (that immunity
//!   check is the coordinator's, because only it knows the commit phase).
//!   Younger transactions simply wait for older ones. Wounds are
//!   re-evaluated whenever the holder set or queue of a page changes, which
//!   guarantees the oldest transaction progresses even though the FIFO
//!   queue can put an older waiter behind a younger one.
//! - **Wait-die** reverses the asymmetry: an older requester may wait for a
//!   younger transaction, while a younger one "dies" (aborts itself) rather
//!   than wait for an older one, so every wait edge points old → young.
//!   Because a transaction keeps its initial timestamp across restarts, it
//!   eventually becomes the oldest and cannot die forever.
//!
//! Both prevention rules apply to queued-ahead requests as well as holders:
//! wounding or dying on holders alone would leave a deadlock, since an old
//! reader queued behind a young writer that waits on a young holder can
//! close a cycle through queue-order edges alone.

use crate::common::{AccessResponse, LockMode, ReleaseResponse, Ts, TxnMeta};
use crate::locktable::{LockOutcome, LockTable};
use crate::manager::{CcManager, LockStats};
use crate::waitsfor::resolve_deadlocks;
use ddbm_config::{Algorithm, PageId, TxnId};
use denet::FxHashMap;

/// How a locking algorithm deals with deadlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// 2PL: local detection on every block, global detection by the Snoop.
    Detect,
    /// 2PL-T: none here; the caller's lock-wait timeout breaks deadlocks.
    Timeout,
    /// Wound-wait: older waiters wound the younger transactions they wait
    /// behind.
    Wound,
    /// Wait-die: a waiter behind an older transaction dies.
    Die,
}

/// See module docs.
#[derive(Debug)]
pub struct Locking {
    table: LockTable,
    /// Initial startup timestamps of transactions seen at this node: victim
    /// choice for 2PL, ages for the prevention rules. Entries are dropped on
    /// commit/abort.
    initial_ts: FxHashMap<TxnId, Ts>,
    rule: Rule,
    /// Recycled edge buffer for 2PL's local detection, which runs on every
    /// block.
    edges_scratch: Vec<(TxnId, TxnId)>,
}

impl Locking {
    /// The manager for a locking `algorithm` (2PL, 2PL-T, wound-wait or
    /// wait-die). `barging` switches 2PL and 2PL-T to barging grants
    /// (ablation: compatible requests pass queued incompatible ones; see
    /// [`LockTable::with_barging`]); wound-wait and wait-die keep strict
    /// FIFO, because their prevention rules are formulated against queue
    /// order.
    ///
    /// # Panics
    /// If `algorithm` is not a locking algorithm.
    pub fn new(algorithm: Algorithm, barging: bool) -> Locking {
        let rule = match algorithm {
            Algorithm::TwoPhaseLocking => Rule::Detect,
            Algorithm::TwoPhaseLockingTimeout => Rule::Timeout,
            Algorithm::WoundWait => Rule::Wound,
            Algorithm::WaitDie => Rule::Die,
            other => panic!("{other} is not a locking algorithm"),
        };
        let table = if barging && matches!(rule, Rule::Detect | Rule::Timeout) {
            LockTable::with_barging()
        } else {
            LockTable::new()
        };
        Locking {
            table,
            initial_ts: FxHashMap::default(),
            rule,
            edges_scratch: Vec::new(),
        }
    }

    fn ts(&self, txn: TxnId) -> Ts {
        *self.initial_ts.get(&txn).unwrap_or(&Ts::ZERO)
    }

    /// Wound-wait: every transaction that some older waiter on `pages` waits
    /// behind, sorted and deduplicated.
    fn wounds(&self, pages: impl IntoIterator<Item = PageId>) -> Vec<TxnId> {
        let mut wounds = Vec::new();
        for page in pages {
            self.table.wait_pairs(page).for_each(|(waiter, blocker)| {
                if self.ts(waiter).older_than(self.ts(blocker)) {
                    wounds.push(blocker);
                }
            });
        }
        wounds.sort();
        wounds.dedup();
        wounds
    }

    /// Wait-die: push `(waiter, page)` for every waiter on `page` that waits
    /// behind an older transaction, once per waiter, in queue order.
    fn deaths(&self, page: PageId, out: &mut Vec<(TxnId, PageId)>) {
        let mut last = None;
        self.table.wait_pairs(page).for_each(|(waiter, blocker)| {
            if last != Some(waiter) && self.ts(blocker).older_than(self.ts(waiter)) {
                out.push((waiter, page));
                last = Some(waiter);
            }
        });
    }

    /// 2PL's local detection after `txn` blocked on `page`: abort the
    /// victims of every local cycle, withdrawing the requester's fresh wait
    /// when it is one of them.
    fn detect(&mut self, txn: TxnId, page: PageId, resp: &mut AccessResponse) {
        let mut edges = std::mem::take(&mut self.edges_scratch);
        edges.clear();
        self.table.waits_for_edges_into(&mut edges);
        let mut victims = resolve_deadlocks(&edges, |t| self.ts(t));
        self.edges_scratch = edges;
        if victims.contains(&txn) {
            // The requester itself dies: withdraw its fresh wait so the
            // table holds no dangling request while the abort protocol
            // runs. Its other locks are freed by `abort`.
            *resp = AccessResponse::rejected();
            resp.side_effects.granted = self.table.cancel_wait(txn, page);
            victims.retain(|v| *v != txn);
        }
        resp.side_effects.must_abort = victims;
    }

    fn finish(&mut self, txn: TxnId) -> ReleaseResponse {
        self.initial_ts.remove(&txn);
        let mut resp = ReleaseResponse {
            granted: self.table.release_all(txn),
            ..ReleaseResponse::default()
        };
        // Holder sets changed on the granted pages: re-apply the prevention
        // rule to the waiters still queued there (page repeats included).
        match self.rule {
            Rule::Detect | Rule::Timeout => {}
            Rule::Wound => resp.must_abort = self.wounds(resp.granted.iter().map(|(_, p)| *p)),
            Rule::Die => {
                for &(_, page) in &resp.granted {
                    self.deaths(page, &mut resp.rejected);
                }
            }
        }
        resp
    }
}

impl CcManager for Locking {
    fn request_access(&mut self, txn: &TxnMeta, page: PageId, write: bool) -> AccessResponse {
        self.initial_ts.insert(txn.id, txn.initial_ts);
        let mode = if write {
            LockMode::Write
        } else {
            LockMode::Read
        };
        let queued = self.table.request(txn.id, page, mode) == LockOutcome::Queued;
        let mut resp = if queued {
            AccessResponse::blocked()
        } else {
            AccessResponse::granted()
        };
        match self.rule {
            Rule::Detect if queued => self.detect(txn.id, page, &mut resp),
            Rule::Detect | Rule::Timeout => {}
            // Re-evaluate every waiter on the page, the requester included:
            // queueing (an upgrade can reorder the queue) and granting an
            // upgrade (it strengthens a holder's mode) both change what the
            // page's waiters wait behind.
            Rule::Wound => resp.side_effects.must_abort = self.wounds([page]),
            // Only the requester is judged (re-judging the other waiters
            // would re-report ones already dying); its rejected wait is
            // withdrawn and it aborts itself.
            Rule::Die if queued => {
                let dies = self.table.wait_pairs(page).any(|(waiter, blocker)| {
                    waiter == txn.id && self.ts(blocker).older_than(self.ts(waiter))
                });
                if dies {
                    resp = AccessResponse::rejected();
                    resp.side_effects.granted = self.table.cancel_wait(txn.id, page);
                }
            }
            // A granted upgrade can put younger waiters behind an older
            // writer.
            Rule::Die => self.deaths(page, &mut resp.side_effects.rejected),
        }
        resp
    }

    fn certify(&mut self, _txn: &TxnMeta, _commit_ts: Ts) -> bool {
        true
    }

    fn commit(&mut self, txn: TxnId) -> ReleaseResponse {
        self.finish(txn)
    }

    fn abort(&mut self, txn: TxnId) -> ReleaseResponse {
        self.finish(txn)
    }

    fn waits_for_edges_into(&self, out: &mut Vec<(TxnId, TxnId)>) {
        self.table.waits_for_edges_into(out);
    }

    fn preallocate(&mut self, _num_pages: usize, max_txn_accesses: usize) {
        self.table.preallocate(max_txn_accesses);
    }

    fn lock_stats(&self) -> Option<LockStats> {
        Some(LockStats {
            held: self.table.holding_txns(),
            waiting: self.table.waiting_txns(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::AccessReply;
    use ddbm_config::FileId;

    fn page(n: u64) -> PageId {
        PageId {
            file: FileId(0),
            page: n,
        }
    }

    /// Transaction `id` with startup order equal to its id (smaller = older).
    fn meta(id: u64) -> TxnMeta {
        TxnMeta {
            id: TxnId(id),
            initial_ts: Ts::new(id, TxnId(id)),
            run_ts: Ts::new(id, TxnId(id)),
        }
    }

    fn two_pl() -> Locking {
        Locking::new(Algorithm::TwoPhaseLocking, false)
    }

    fn wound_wait() -> Locking {
        Locking::new(Algorithm::WoundWait, false)
    }

    fn wait_die() -> Locking {
        Locking::new(Algorithm::WaitDie, false)
    }

    fn edges(m: &Locking) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        m.waits_for_edges_into(&mut edges);
        edges
    }

    #[test]
    fn rule_follows_the_algorithm_and_barging_only_2pl() {
        for algo in [
            Algorithm::TwoPhaseLocking,
            Algorithm::TwoPhaseLockingTimeout,
            Algorithm::WoundWait,
            Algorithm::WaitDie,
        ] {
            for barging in [false, true] {
                let mut m = Locking::new(algo, barging);
                // A reader behind a queued writer barges only under 2PL/2PL-T.
                m.request_access(&meta(5), page(1), false);
                m.request_access(&meta(3), page(1), true);
                let barged =
                    m.request_access(&meta(4), page(1), false).reply == AccessReply::Granted;
                let two_pl_family = matches!(
                    algo,
                    Algorithm::TwoPhaseLocking | Algorithm::TwoPhaseLockingTimeout
                );
                assert_eq!(barged, barging && two_pl_family, "{algo} barging={barging}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a locking algorithm")]
    fn non_locking_algorithm_is_refused() {
        Locking::new(Algorithm::Optimistic, false);
    }

    // 2PL: local detection.

    #[test]
    fn readers_share_writers_block() {
        let mut m = two_pl();
        assert_eq!(
            m.request_access(&meta(1), page(1), false).reply,
            AccessReply::Granted
        );
        assert_eq!(
            m.request_access(&meta(2), page(1), false).reply,
            AccessReply::Granted
        );
        let r = m.request_access(&meta(3), page(1), true);
        assert_eq!(r.reply, AccessReply::Blocked);
        assert!(r.must_abort().is_empty());
    }

    #[test]
    fn commit_releases_and_grants_waiters() {
        let mut m = two_pl();
        m.request_access(&meta(1), page(1), true);
        assert_eq!(
            m.request_access(&meta(2), page(1), false).reply,
            AccessReply::Blocked
        );
        let rel = m.commit(TxnId(1));
        assert_eq!(rel.granted, vec![(TxnId(2), page(1))]);
        assert!(rel.must_abort.is_empty());
    }

    #[test]
    fn abort_releases_waits_too() {
        let mut m = two_pl();
        m.request_access(&meta(1), page(1), true);
        assert_eq!(
            m.request_access(&meta(2), page(1), true).reply,
            AccessReply::Blocked
        );
        assert_eq!(
            m.request_access(&meta(3), page(1), true).reply,
            AccessReply::Blocked
        );
        // T2 (the queued waiter) aborts; T1 still holds, so nothing granted.
        assert!(m.abort(TxnId(2)).granted.is_empty());
        // T1 commits: T3 gets the lock (T2 is gone).
        let rel = m.commit(TxnId(1));
        assert_eq!(rel.granted, vec![(TxnId(3), page(1))]);
    }

    #[test]
    fn local_deadlock_aborts_youngest() {
        let mut m = two_pl();
        // T1 (older) holds A, T2 (younger) holds B.
        m.request_access(&meta(1), page(1), true);
        m.request_access(&meta(2), page(2), true);
        // T1 waits for B.
        assert_eq!(
            m.request_access(&meta(1), page(2), true).reply,
            AccessReply::Blocked
        );
        // T2 requests A → cycle. T2 is youngest → T2 itself is rejected.
        let r = m.request_access(&meta(2), page(1), true);
        assert_eq!(r.reply, AccessReply::Rejected);
        assert!(r.must_abort().is_empty());
        // After T2's abort protocol finishes, T1 is granted B.
        let rel = m.abort(TxnId(2));
        assert_eq!(rel.granted, vec![(TxnId(1), page(2))]);
    }

    #[test]
    fn local_deadlock_can_pick_the_other_transaction() {
        let mut m = two_pl();
        // T2 (younger) holds A, T1 (older) holds B.
        m.request_access(&meta(2), page(1), true);
        m.request_access(&meta(1), page(2), true);
        // T2 waits for B (no cycle yet).
        assert_eq!(
            m.request_access(&meta(2), page(2), true).reply,
            AccessReply::Blocked
        );
        // T1 requests A → cycle {T1, T2}; victim is T2 (younger), not the
        // requester, so T1 blocks and T2 is reported for abort.
        let r = m.request_access(&meta(1), page(1), true);
        assert_eq!(r.reply, AccessReply::Blocked);
        assert_eq!(r.must_abort(), vec![TxnId(2)]);
        // T2's abort unblocks T1 on page 1.
        let rel = m.abort(TxnId(2));
        assert_eq!(rel.granted, vec![(TxnId(1), page(1))]);
    }

    #[test]
    fn no_false_deadlocks_on_plain_blocking() {
        let mut m = two_pl();
        m.request_access(&meta(1), page(1), true);
        for i in 2..10 {
            let r = m.request_access(&meta(i), page(1), true);
            assert_eq!(r.reply, AccessReply::Blocked);
            assert!(r.must_abort().is_empty(), "waiter chain is not a deadlock");
        }
    }

    #[test]
    fn three_way_deadlock_resolved_with_one_victim() {
        let mut m = two_pl();
        m.request_access(&meta(1), page(1), true);
        m.request_access(&meta(2), page(2), true);
        m.request_access(&meta(3), page(3), true);
        assert_eq!(
            m.request_access(&meta(1), page(2), true).reply,
            AccessReply::Blocked
        );
        assert_eq!(
            m.request_access(&meta(2), page(3), true).reply,
            AccessReply::Blocked
        );
        // T3 → page(1) closes the cycle; T3 is the youngest → rejected itself.
        let r = m.request_access(&meta(3), page(1), true);
        assert_eq!(r.reply, AccessReply::Rejected);
    }

    #[test]
    fn waits_for_edges_are_exported_for_the_snoop() {
        let mut m = two_pl();
        m.request_access(&meta(1), page(1), true);
        m.request_access(&meta(2), page(1), true);
        assert_eq!(edges(&m), vec![(TxnId(2), TxnId(1))]);
    }

    #[test]
    fn rejected_requester_leaves_no_dangling_wait() {
        let mut m = two_pl();
        m.request_access(&meta(1), page(1), true);
        m.request_access(&meta(2), page(2), true);
        m.request_access(&meta(1), page(2), true); // T1 blocked on B
        let r = m.request_access(&meta(2), page(1), true); // T2 rejected
        assert_eq!(r.reply, AccessReply::Rejected);
        // T2's rejected request must not appear as a wait edge.
        let edges = edges(&m);
        assert!(
            !edges.contains(&(TxnId(2), TxnId(1))),
            "rejected wait still present: {edges:?}"
        );
    }

    // Wound-wait.

    #[test]
    fn younger_waits_for_older() {
        let mut m = wound_wait();
        m.request_access(&meta(1), page(1), true); // older holds
        let r = m.request_access(&meta(2), page(1), true); // younger requests
        assert_eq!(r.reply, AccessReply::Blocked);
        assert!(r.must_abort().is_empty(), "younger must simply wait");
    }

    #[test]
    fn older_wounds_younger_holder() {
        let mut m = wound_wait();
        m.request_access(&meta(5), page(1), true); // younger holds
        let r = m.request_access(&meta(1), page(1), true); // older requests
        assert_eq!(r.reply, AccessReply::Blocked);
        assert_eq!(r.must_abort(), vec![TxnId(5)]);
        // The wound kills T5; its abort frees the lock for T1.
        let rel = m.abort(TxnId(5));
        assert_eq!(rel.granted, vec![(TxnId(1), page(1))]);
    }

    #[test]
    fn older_reader_wounds_younger_writer_only() {
        let mut m = wound_wait();
        m.request_access(&meta(5), page(1), false); // younger read holder
        m.request_access(&meta(6), page(1), false); // another younger reader
                                                    // An older *reader* is compatible; no wound, no wait.
        let r = m.request_access(&meta(1), page(1), false);
        assert_eq!(r.reply, AccessReply::Granted);
    }

    #[test]
    fn older_writer_wounds_all_younger_readers() {
        let mut m = wound_wait();
        m.request_access(&meta(5), page(1), false);
        m.request_access(&meta(6), page(1), false);
        let r = m.request_access(&meta(1), page(1), true);
        assert_eq!(r.reply, AccessReply::Blocked);
        assert_eq!(r.must_abort(), vec![TxnId(5), TxnId(6)]);
    }

    #[test]
    fn mixed_ages_wound_only_the_younger() {
        let mut m = wound_wait();
        m.request_access(&meta(1), page(1), false); // older than requester
        m.request_access(&meta(9), page(1), false); // younger than requester
        let r = m.request_access(&meta(4), page(1), true);
        assert_eq!(r.reply, AccessReply::Blocked);
        assert_eq!(r.must_abort(), vec![TxnId(9)]);
    }

    #[test]
    fn grant_time_rewound_protects_waiting_elder() {
        let mut m = wound_wait();
        // T3 holds; queue: first T5 (young), then T2 (older than T5).
        m.request_access(&meta(3), page(1), true);
        assert_eq!(
            m.request_access(&meta(5), page(1), true).reply,
            AccessReply::Blocked
        );
        let r = m.request_access(&meta(2), page(1), true);
        assert_eq!(r.reply, AccessReply::Blocked);
        // T2 is older than both the holder T3 and the queued T5; it wounds
        // everything younger it would wait behind.
        assert_eq!(r.must_abort(), vec![TxnId(3), TxnId(5)]);
        // T3 dies; FIFO grants T5 — but waiting T2 is older than the new
        // holder T5, so the release must wound T5.
        let rel = m.abort(TxnId(3));
        assert_eq!(rel.granted, vec![(TxnId(5), page(1))]);
        assert_eq!(rel.must_abort, vec![TxnId(5)]);
        // T5 dies in turn; T2 finally gets the lock.
        let rel = m.abort(TxnId(5));
        assert_eq!(rel.granted, vec![(TxnId(2), page(1))]);
        assert!(rel.must_abort.is_empty());
    }

    #[test]
    fn commit_releases_without_wounding_younger_waiters() {
        let mut m = wound_wait();
        m.request_access(&meta(1), page(1), true);
        m.request_access(&meta(2), page(1), true); // younger waits
        let rel = m.commit(TxnId(1));
        assert_eq!(rel.granted, vec![(TxnId(2), page(1))]);
        assert!(rel.must_abort.is_empty());
    }

    #[test]
    fn no_wound_when_requester_is_youngest() {
        let mut m = wound_wait();
        m.request_access(&meta(1), page(1), true);
        m.request_access(&meta(2), page(1), true);
        let r = m.request_access(&meta(3), page(1), true);
        assert_eq!(r.reply, AccessReply::Blocked);
        assert!(r.must_abort().is_empty());
    }

    #[test]
    fn wound_repeated_on_new_conflict_is_idempotent_per_call() {
        let mut m = wound_wait();
        m.request_access(&meta(9), page(1), false);
        m.request_access(&meta(9), page(2), false);
        // Older T1 conflicts on both pages; each request wounds T9 once.
        let r1 = m.request_access(&meta(1), page(1), true);
        let r2 = m.request_access(&meta(1), page(2), true);
        assert_eq!(r1.must_abort(), vec![TxnId(9)]);
        assert_eq!(r2.must_abort(), vec![TxnId(9)]);
        // Double-kill is the coordinator's problem (it ignores wounds for
        // transactions already aborting); the abort itself happens once.
        let rel = m.abort(TxnId(9));
        let mut granted = rel.granted.clone();
        granted.sort();
        assert_eq!(granted, vec![(TxnId(1), page(1)), (TxnId(1), page(2))]);
    }

    // Wait-die.

    #[test]
    fn older_waits_for_younger() {
        let mut m = wait_die();
        m.request_access(&meta(5), page(1), true); // younger holds
        let r = m.request_access(&meta(1), page(1), true); // older requests
        assert_eq!(r.reply, AccessReply::Blocked);
        assert!(r.must_abort().is_empty());
        // The younger holder's commit hands the lock over.
        let rel = m.commit(TxnId(5));
        assert_eq!(rel.granted, vec![(TxnId(1), page(1))]);
    }

    #[test]
    fn younger_dies_immediately() {
        let mut m = wait_die();
        m.request_access(&meta(1), page(1), true); // older holds
        let r = m.request_access(&meta(5), page(1), true); // younger requests
        assert_eq!(r.reply, AccessReply::Rejected);
        // The rejected request leaves no residue.
        assert!(edges(&m).is_empty());
        m.abort(TxnId(5));
    }

    #[test]
    fn compatible_reads_share_regardless_of_age() {
        let mut m = wait_die();
        m.request_access(&meta(1), page(1), false);
        assert_eq!(
            m.request_access(&meta(9), page(1), false).reply,
            AccessReply::Granted
        );
        assert_eq!(
            m.request_access(&meta(5), page(1), false).reply,
            AccessReply::Granted
        );
    }

    #[test]
    fn young_reader_dies_behind_old_queued_writer() {
        let mut m = wait_die();
        m.request_access(&meta(5), page(1), false); // reader holds
        m.request_access(&meta(1), page(1), true); // old writer queues
                                                   // A younger reader would wait behind the old writer → dies.
        let r = m.request_access(&meta(7), page(1), false);
        assert_eq!(r.reply, AccessReply::Rejected);
    }

    #[test]
    fn old_reader_waits_behind_young_queued_writer() {
        let mut m = wait_die();
        m.request_access(&meta(8), page(1), false); // young reader holds
                                                    // An older writer waits behind the younger holder (old may wait).
        assert_eq!(
            m.request_access(&meta(6), page(1), true).reply,
            AccessReply::Blocked
        );
        // An even older reader waits behind the (younger) queued writer.
        let r = m.request_access(&meta(2), page(1), false);
        assert_eq!(r.reply, AccessReply::Blocked);
    }

    #[test]
    fn grant_time_reorder_kills_young_waiter() {
        let mut m = wait_die();
        // T2 holds. Queue: T1 (older than T2 → allowed to wait)…
        m.request_access(&meta(2), page(1), true);
        assert_eq!(
            m.request_access(&meta(1), page(1), true).reply,
            AccessReply::Blocked
        );
        // …then T0, the oldest, also waits.
        assert_eq!(
            m.request_access(&meta(0), page(1), true).reply,
            AccessReply::Blocked
        );
        // T2 commits: FIFO grants T1; T0 now waits behind the *younger*
        // holder T1 — fine for wait-die (old waits). Nothing dies.
        let rel = m.commit(TxnId(2));
        assert_eq!(rel.granted, vec![(TxnId(1), page(1))]);
        assert!(rel.rejected.is_empty());
        // And T1's commit grants T0.
        let rel = m.commit(TxnId(1));
        assert_eq!(rel.granted, vec![(TxnId(0), page(1))]);
    }

    #[test]
    fn no_wounds_ever() {
        let mut m = wait_die();
        m.request_access(&meta(9), page(1), true);
        let r = m.request_access(&meta(1), page(1), true);
        assert!(r.must_abort().is_empty(), "wait-die never aborts others");
        let rel = m.abort(TxnId(9));
        assert!(rel.must_abort.is_empty());
    }

    #[test]
    fn restart_with_same_timestamp_eventually_wins() {
        let mut m = wait_die();
        m.request_access(&meta(1), page(1), true);
        // T5 dies, restarts (same initial ts), dies again while T1 holds…
        for _ in 0..3 {
            let r = m.request_access(&meta(5), page(1), true);
            assert_eq!(r.reply, AccessReply::Rejected);
            m.abort(TxnId(5));
        }
        // …but once T1 is gone, T5 gets through.
        m.commit(TxnId(1));
        assert_eq!(
            m.request_access(&meta(5), page(1), true).reply,
            AccessReply::Granted
        );
    }
}
