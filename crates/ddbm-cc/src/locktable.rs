//! A per-node lock table: the state shared by the locking family (2PL,
//! 2PL-T, wound-wait and wait-die; see [`crate::locking`]).
//!
//! Read locks share; write locks exclude. Requests that cannot be granted
//! join a FIFO queue, except lock *upgrades* (read → write by the holder),
//! which queue ahead of ordinary waiters. On every release the longest
//! grantable prefix of the queue is granted.

use crate::common::{LockMode, TxnLists};
use ddbm_config::{PageBuffers, PageId, PageMap, Spares, TxnId};
use std::collections::{BTreeSet, VecDeque};

/// Outcome of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock is held; proceed.
    Granted,
    /// The request joined the wait queue.
    Queued,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WaitReq {
    txn: TxnId,
    mode: LockMode,
    /// True when the transaction already holds a read lock on the page and
    /// is converting it to a write lock.
    is_upgrade: bool,
}

#[derive(Debug)]
struct PageLock {
    holders: Vec<(TxnId, LockMode)>,
    queue: VecDeque<WaitReq>,
}

impl PageBuffers for PageLock {
    /// Room for the first holders; the queue grows only under contention.
    fn stocked() -> Self {
        PageLock {
            holders: Vec::with_capacity(4),
            queue: VecDeque::new(),
        }
    }

    fn is_idle(&self) -> bool {
        self.holders.is_empty() && self.queue.is_empty()
    }
}

impl PageLock {
    fn can_grant(&self, req: &WaitReq) -> bool {
        if req.is_upgrade {
            // An upgrade is grantable only when the upgrader is the sole holder.
            self.holders.len() == 1 && self.holders[0].0 == req.txn
        } else {
            self.holders
                .iter()
                .all(|(_, held)| held.compatible(req.mode))
        }
    }

    fn grant(&mut self, req: WaitReq) {
        if req.is_upgrade {
            debug_assert_eq!(self.holders.len(), 1);
            debug_assert_eq!(self.holders[0].0, req.txn);
            self.holders[0].1 = LockMode::Write;
        } else {
            self.holders.push((req.txn, req.mode));
        }
    }
}

/// The lock table for the pages stored at one node.
#[derive(Debug, Default)]
pub struct LockTable {
    /// Lock state of every page with a holder or a waiter, one word per
    /// page slot. A page that goes idle gives its lock back to `spare`.
    pages: PageMap<Box<PageLock>>,
    /// Locks of pages that went idle, buffers kept, for the next page to
    /// be locked.
    spare: Spares<PageLock>,
    /// Pages each transaction holds locks on (for O(1) release).
    held: TxnLists<PageId>,
    /// Pages each transaction is queued on.
    waiting: TxnLists<PageId>,
    /// Pages whose queue is non-empty, kept sorted. [`waits_for_edges_into`]
    /// (called on *every* blocked request under 2PL local detection) walks
    /// only these instead of collecting and sorting every held page —
    /// profiling showed that collect+sort dominating the whole request path.
    ///
    /// [`waits_for_edges_into`]: LockTable::waits_for_edges_into
    queued: BTreeSet<PageId>,
    /// Grant policy: `false` (default) is strict FIFO — a request compatible
    /// with the holders still waits behind any queued request; `true` lets
    /// compatible requests barge past the queue (readers never wait for
    /// queued writers). Barging trades writer latency for fewer waits —
    /// and, in distributed 2PL, far fewer queue-edge deadlocks.
    barging: bool,
    /// Scratch for the pages touched by [`release_all`], which runs on every
    /// commit and abort — without it each release allocates a fresh list.
    ///
    /// [`release_all`]: LockTable::release_all
    touched_scratch: Vec<PageId>,
}

impl LockTable {
    /// A strict-FIFO (no-barging) lock table.
    pub fn new() -> LockTable {
        LockTable::default()
    }

    /// A lock table with barging grants.
    pub fn with_barging() -> LockTable {
        LockTable {
            barging: true,
            ..LockTable::default()
        }
    }

    /// Pre-size the per-transaction state for transactions locking at most
    /// `max_txn_accesses` pages here (see
    /// [`CcManager::preallocate`](crate::manager::CcManager::preallocate)).
    /// Page locks need no pre-sizing: they are taken from the spares when a
    /// page is first locked and returned when it goes idle.
    pub fn preallocate(&mut self, max_txn_accesses: usize) {
        self.held.set_capacity(max_txn_accesses);
        self.waiting.set_capacity(max_txn_accesses);
        self.touched_scratch.reserve(2 * max_txn_accesses);
        self.spare.set_batch(max_txn_accesses);
    }

    /// Request a `mode` lock on `page` for `txn`.
    ///
    /// Re-requesting a page the transaction already holds is answered
    /// `Granted` (upgrading read → write when needed, possibly by queueing an
    /// upgrade request, in which case `Queued` is returned).
    pub fn request(&mut self, txn: TxnId, page: PageId, mode: LockMode) -> LockOutcome {
        let lock = self.pages.get_or_insert_with(page, || self.spare.take());
        // Re-requesting while already queued is idempotent (strengthening a
        // queued read to a write upgrades the queued request in place).
        if let Some(queued) = lock.queue.iter_mut().find(|w| w.txn == txn) {
            if mode == LockMode::Write {
                queued.mode = LockMode::Write;
            }
            return LockOutcome::Queued;
        }
        let held_mode = lock
            .holders
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|(_, m)| *m);
        let req = match held_mode {
            Some(LockMode::Write) => return LockOutcome::Granted,
            Some(LockMode::Read) if mode == LockMode::Read => return LockOutcome::Granted,
            Some(LockMode::Read) => WaitReq {
                txn,
                mode: LockMode::Write,
                is_upgrade: true,
            },
            None => WaitReq {
                txn,
                mode,
                is_upgrade: false,
            },
        };
        // Ordinary requests respect the queue unless barging is enabled;
        // upgrades always bypass it but queue ahead of ordinary waiters.
        let grantable =
            lock.can_grant(&req) && (req.is_upgrade || lock.queue.is_empty() || self.barging);
        if grantable {
            lock.grant(req);
            if !req.is_upgrade {
                self.held.push(txn, page);
            }
            LockOutcome::Granted
        } else {
            if req.is_upgrade {
                // Ahead of ordinary waiters, behind earlier upgrades.
                let pos = lock.queue.iter().take_while(|w| w.is_upgrade).count();
                lock.queue.insert(pos, req);
            } else {
                lock.queue.push_back(req);
            }
            self.queued.insert(page);
            self.waiting.push(txn, page);
            LockOutcome::Queued
        }
    }

    /// Release everything `txn` holds or waits for. Returns the requests
    /// granted as a consequence, in grant order.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<(TxnId, PageId)> {
        let mut touched = std::mem::take(&mut self.touched_scratch);
        touched.clear();
        for &page in self.held.get(txn) {
            if let Some(lock) = self.pages.get_mut(page) {
                lock.holders.retain(|(t, _)| *t != txn);
                touched.push(page);
            }
        }
        self.held.remove(txn);
        for &page in self.waiting.get(txn) {
            if let Some(lock) = self.pages.get_mut(page) {
                lock.queue.retain(|w| w.txn != txn);
                touched.push(page);
            }
        }
        self.waiting.remove(txn);
        touched.sort_unstable();
        touched.dedup();
        let mut granted = Vec::new();
        for &page in &touched {
            granted.extend(self.grant_from_queue(page));
        }
        self.touched_scratch = touched;
        granted
    }

    /// Withdraw a single queued request (e.g. the requester was chosen as a
    /// deadlock victim and will abort; its *held* locks stay put until the
    /// abort protocol completes). Returns requests granted because the
    /// withdrawal unclogged the queue.
    pub fn cancel_wait(&mut self, txn: TxnId, page: PageId) -> Vec<(TxnId, PageId)> {
        if let Some(lock) = self.pages.get_mut(page) {
            lock.queue.retain(|w| w.txn != txn);
        }
        self.waiting.remove_item(txn, &page);
        self.grant_from_queue(page)
    }

    /// Grant from `page`'s queue: the longest grantable prefix under strict
    /// FIFO, or every grantable request under barging.
    fn grant_from_queue(&mut self, page: PageId) -> Vec<(TxnId, PageId)> {
        let mut granted = Vec::new();
        let Some(lock) = self.pages.get_mut(page) else {
            return granted;
        };
        let mut scan = 0usize;
        while let Some(&head) = lock.queue.get(scan) {
            if !lock.can_grant(&head) {
                if self.barging {
                    scan += 1;
                    continue;
                }
                break;
            }
            lock.queue.remove(scan);
            lock.grant(head);
            if !head.is_upgrade {
                self.held.push(head.txn, page);
            }
            self.waiting.remove_item(head.txn, &page);
            granted.push((head.txn, page));
        }
        if lock.queue.is_empty() {
            self.queued.remove(&page);
            if lock.holders.is_empty() {
                let lock = self.pages.remove(page).expect("the page is locked");
                self.spare.put(lock);
            }
        }
        granted
    }

    /// Current holders of `page`.
    pub fn holders(&self, page: PageId) -> Vec<(TxnId, LockMode)> {
        self.pages
            .get(page)
            .map(|l| l.holders.clone())
            .unwrap_or_default()
    }

    /// The conflict relation on `page`: a `(waiter, blocker)` pair for every
    /// queued request and each transaction it waits behind — every
    /// conflicting holder, then every conflicting request queued ahead of it
    /// (FIFO queues make those real waits too) — waiters in queue order.
    ///
    /// This is the one place the relation is written down: the waits-for
    /// graph is these pairs over all queued pages, and the wound-wait and
    /// wait-die rules judge the pairs by age. An upgrade waits behind every
    /// other holder because it always queues in write mode, which no held
    /// mode is compatible with.
    ///
    /// Consume the walk with internal iteration (`for_each`, `any`): that
    /// compiles to plain nested loops, while stepping it with `next` (as a
    /// `for` loop or `Vec::extend` does) is several times slower.
    pub fn wait_pairs(&self, page: PageId) -> impl Iterator<Item = (TxnId, TxnId)> + '_ {
        self.pages.get(page).into_iter().flat_map(|lock| {
            lock.queue.iter().enumerate().flat_map(move |(i, w)| {
                let holders = lock
                    .holders
                    .iter()
                    .filter(move |(t, held)| *t != w.txn && !held.compatible(w.mode))
                    .map(|(t, _)| *t);
                let ahead = lock
                    .queue
                    .range(..i)
                    .filter(move |a| !a.mode.compatible(w.mode))
                    .map(|a| a.txn);
                holders.chain(ahead).map(move |blocker| (w.txn, blocker))
            })
        })
    }

    /// The waits-for edges implied by the table, appended to `edges`: the
    /// [`wait_pairs`](LockTable::wait_pairs) of every queued page, pages in
    /// ascending order. Callers recycle the buffer (2PL detects on every
    /// block).
    pub fn waits_for_edges_into(&self, edges: &mut Vec<(TxnId, TxnId)>) {
        for &page in &self.queued {
            self.wait_pairs(page).for_each(|edge| edges.push(edge));
        }
    }

    /// The queued-page index: pages whose wait queue is currently
    /// non-empty, in ascending order. This is the incrementally maintained
    /// index that [`waits_for_edges_into`](LockTable::waits_for_edges_into) walks;
    /// [`scan_queued_pages`](LockTable::scan_queued_pages) recomputes the
    /// same set naively so tests can check the index never drifts.
    pub fn queued_pages(&self) -> Vec<PageId> {
        self.queued.iter().copied().collect()
    }

    /// Recompute the queued-page set by scanning every page entry — the
    /// O(pages) reference implementation of
    /// [`queued_pages`](LockTable::queued_pages), for consistency tests.
    pub fn scan_queued_pages(&self) -> Vec<PageId> {
        self.pages
            .iter()
            .filter(|(_, lock)| !lock.queue.is_empty())
            .map(|(page, _)| page)
            .collect()
    }

    /// The pages on which `txn` is currently queued.
    pub fn wait_pages(&self, txn: TxnId) -> Vec<PageId> {
        self.waiting.get(txn).to_vec()
    }

    /// True if `txn` holds or awaits any lock.
    pub fn involves(&self, txn: TxnId) -> bool {
        self.held.contains(txn) || self.waiting.contains(txn)
    }

    /// Number of pages with a holder or a waiter (tests/diagnostics). Idle
    /// pages keep no entry, so this counts the entries.
    pub fn active_pages(&self) -> usize {
        self.pages
            .iter()
            .inspect(|(_, lock)| debug_assert!(!lock.is_idle()))
            .count()
    }

    /// Number of transactions currently holding at least one lock here.
    pub fn holding_txns(&self) -> usize {
        self.held.len()
    }

    /// Number of transactions currently waiting for at least one lock here.
    pub fn waiting_txns(&self) -> usize {
        self.waiting.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddbm_config::FileId;

    fn page(n: u64) -> PageId {
        PageId {
            file: FileId(0),
            page: n,
        }
    }

    fn edges_of(lt: &LockTable) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        lt.waits_for_edges_into(&mut edges);
        edges
    }

    #[test]
    fn shared_reads_exclusive_writes() {
        let mut lt = LockTable::new();
        assert_eq!(
            lt.request(TxnId(1), page(1), LockMode::Read),
            LockOutcome::Granted
        );
        assert_eq!(
            lt.request(TxnId(2), page(1), LockMode::Read),
            LockOutcome::Granted
        );
        assert_eq!(
            lt.request(TxnId(3), page(1), LockMode::Write),
            LockOutcome::Queued
        );
        assert_eq!(
            lt.request(TxnId(4), page(2), LockMode::Write),
            LockOutcome::Granted
        );
        assert_eq!(
            lt.request(TxnId(5), page(2), LockMode::Read),
            LockOutcome::Queued
        );
    }

    #[test]
    fn fifo_no_barging_past_queued_writer() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Read);
        lt.request(TxnId(2), page(1), LockMode::Write); // queued
                                                        // A new read is compatible with holders but must not barge ahead of
                                                        // the queued writer.
        assert_eq!(
            lt.request(TxnId(3), page(1), LockMode::Read),
            LockOutcome::Queued
        );
        let granted = lt.release_all(TxnId(1));
        assert_eq!(granted, vec![(TxnId(2), page(1))]);
        let granted = lt.release_all(TxnId(2));
        assert_eq!(granted, vec![(TxnId(3), page(1))]);
    }

    #[test]
    fn batch_grant_of_compatible_prefix() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Write);
        lt.request(TxnId(2), page(1), LockMode::Read);
        lt.request(TxnId(3), page(1), LockMode::Read);
        lt.request(TxnId(4), page(1), LockMode::Write);
        let granted = lt.release_all(TxnId(1));
        // Both reads granted together; the writer stays queued.
        assert_eq!(granted, vec![(TxnId(2), page(1)), (TxnId(3), page(1))]);
        assert_eq!(lt.holders(page(1)).len(), 2);
    }

    #[test]
    fn reentrant_requests_are_granted() {
        let mut lt = LockTable::new();
        assert_eq!(
            lt.request(TxnId(1), page(1), LockMode::Write),
            LockOutcome::Granted
        );
        assert_eq!(
            lt.request(TxnId(1), page(1), LockMode::Read),
            LockOutcome::Granted
        );
        assert_eq!(
            lt.request(TxnId(1), page(1), LockMode::Write),
            LockOutcome::Granted
        );
    }

    #[test]
    fn upgrade_of_sole_holder_is_immediate() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Read);
        assert_eq!(
            lt.request(TxnId(1), page(1), LockMode::Write),
            LockOutcome::Granted
        );
        assert_eq!(lt.holders(page(1)), vec![(TxnId(1), LockMode::Write)]);
    }

    #[test]
    fn upgrade_waits_for_other_readers_and_jumps_queue() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Read);
        lt.request(TxnId(2), page(1), LockMode::Read);
        lt.request(TxnId(3), page(1), LockMode::Write); // ordinary waiter
                                                        // T1 upgrades: must wait for T2 but goes ahead of T3.
        assert_eq!(
            lt.request(TxnId(1), page(1), LockMode::Write),
            LockOutcome::Queued
        );
        let granted = lt.release_all(TxnId(2));
        assert_eq!(granted, vec![(TxnId(1), page(1))]);
        assert_eq!(lt.holders(page(1)), vec![(TxnId(1), LockMode::Write)]);
        let granted = lt.release_all(TxnId(1));
        assert_eq!(granted, vec![(TxnId(3), page(1))]);
    }

    #[test]
    fn release_of_waiter_unclogs_queue() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Read);
        lt.request(TxnId(2), page(1), LockMode::Write); // queued
        lt.request(TxnId(3), page(1), LockMode::Read); // queued behind writer
                                                       // The queued writer aborts: the read behind it becomes grantable.
        let granted = lt.release_all(TxnId(2));
        assert_eq!(granted, vec![(TxnId(3), page(1))]);
    }

    #[test]
    fn waits_for_edges_cover_holders_and_queue() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Read);
        lt.request(TxnId(2), page(1), LockMode::Write);
        lt.request(TxnId(3), page(1), LockMode::Write);
        let mut edges = edges_of(&lt);
        edges.sort();
        assert_eq!(
            edges,
            vec![
                (TxnId(2), TxnId(1)), // waiter → holder
                (TxnId(3), TxnId(1)), // waiter → holder
                (TxnId(3), TxnId(2)), // waiter → conflicting waiter ahead
            ]
        );
    }

    #[test]
    fn upgrade_edge_against_compatible_read_holder() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Read);
        lt.request(TxnId(2), page(1), LockMode::Read);
        lt.request(TxnId(1), page(1), LockMode::Write); // upgrade, waits on T2
        let edges = edges_of(&lt);
        assert_eq!(edges, vec![(TxnId(1), TxnId(2))]);
    }

    #[test]
    fn upgrade_deadlock_shows_in_edges() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Read);
        lt.request(TxnId(2), page(1), LockMode::Read);
        lt.request(TxnId(1), page(1), LockMode::Write);
        lt.request(TxnId(2), page(1), LockMode::Write);
        let mut edges = edges_of(&lt);
        edges.sort();
        assert!(edges.contains(&(TxnId(1), TxnId(2))));
        assert!(edges.contains(&(TxnId(2), TxnId(1))));
    }

    #[test]
    fn wait_pairs_skip_self_and_compatible_holders() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Read);
        lt.request(TxnId(2), page(1), LockMode::Read);
        lt.request(TxnId(3), page(1), LockMode::Write);
        lt.request(TxnId(4), page(1), LockMode::Read); // behind the writer
        lt.request(TxnId(1), page(1), LockMode::Write); // upgrade, queue head
        let pairs: Vec<(u64, u64)> = lt.wait_pairs(page(1)).map(|(w, b)| (w.0, b.0)).collect();
        assert_eq!(
            pairs,
            vec![
                (1, 2), // the upgrader skips its own read lock
                (3, 1),
                (3, 2),
                (3, 1), // the upgrade queued ahead
                (4, 1), // a reader waits on no read holder, only on writes ahead
                (4, 3),
            ]
        );
        assert!(lt.wait_pairs(page(2)).next().is_none());
    }

    #[test]
    fn released_pages_hold_no_locks() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Write);
        lt.request(TxnId(1), page(2), LockMode::Read);
        assert_eq!(lt.active_pages(), 2);
        assert!(lt.involves(TxnId(1)));
        assert!(lt.release_all(TxnId(1)).is_empty());
        assert_eq!(lt.active_pages(), 0);
        assert!(!lt.involves(TxnId(1)));
    }

    #[test]
    fn idle_pages_keep_no_lock_and_reuse_a_spare() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Write);
        lt.request(TxnId(2), page(1), LockMode::Read); // queued
        lt.request(TxnId(1), page(2), LockMode::Read);
        let lock: *const PageLock = &**lt.pages.get(page(1)).unwrap();
        let holders = lt.pages.get(page(1)).unwrap().holders.as_ptr();
        // T1's release grants T2: page 1 stays locked, page 2 goes idle.
        lt.release_all(TxnId(1));
        assert!(lt.pages.get(page(1)).is_some());
        assert!(lt.pages.get(page(2)).is_none());
        assert_eq!(lt.spare.stock(), 1);
        lt.release_all(TxnId(2));
        assert_eq!(lt.pages.iter().count(), 0);
        assert_eq!(lt.spare.stock(), 2);
        // The next page locked takes the last lock returned, buffers and
        // all: page 1's, with its holder and queue capacity.
        lt.request(TxnId(3), page(7), LockMode::Write);
        lt.request(TxnId(4), page(7), LockMode::Write);
        let reused = lt.pages.get(page(7)).unwrap();
        assert!(std::ptr::eq(&**reused, lock));
        assert_eq!(reused.holders.as_ptr(), holders);
        assert_eq!(lt.spare.stock(), 1);
        assert_eq!(lt.release_all(TxnId(3)), vec![(TxnId(4), page(7))]);
        lt.release_all(TxnId(4));
        assert_eq!(lt.spare.stock(), 2);
        assert_eq!(lt.active_pages(), 0);
    }

    #[test]
    fn wait_pages_tracking() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Write);
        lt.request(TxnId(2), page(1), LockMode::Write);
        assert_eq!(lt.wait_pages(TxnId(2)), vec![page(1)]);
        lt.release_all(TxnId(1));
        assert!(lt.wait_pages(TxnId(2)).is_empty());
    }
}
