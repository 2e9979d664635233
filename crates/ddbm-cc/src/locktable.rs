//! A per-node lock table: the state shared by the locking family (2PL,
//! 2PL-T, wound-wait and wait-die; see [`crate::locking`]).
//!
//! Read locks share; write locks exclude. Requests that cannot be granted
//! join a FIFO queue, except lock *upgrades* (read → write by the holder),
//! which queue ahead of ordinary waiters. On every release the longest
//! grantable prefix of the queue is granted.
//!
//! Each page keeps one list of lock requests, holders ahead of waiters,
//! every entry tagged held, waiting or upgrading; a page's slot in the
//! table is just that list's head and tail, one word. The lists of every
//! page share one `Lists` arena, and the pages each transaction holds or
//! awaits share another, so the table's buffers follow the locks in use
//! and, once grown to the busiest moment, no request allocates.

use crate::common::{push_item, remove_item, LockMode};
use ddbm_config::{PageId, PageTable, TxnId};
use denet::{FxHashMap, List, Lists};
use std::collections::BTreeSet;

/// Outcome of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock is held; proceed.
    Granted,
    /// The request joined the wait queue.
    Queued,
}

/// Where a lock request stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Granted.
    Held,
    /// Queued.
    Waiting,
    /// Queued by a read holder converting its lock to a write lock (its
    /// read lock is a separate, held entry).
    Upgrading,
}

/// One entry of a page's list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lock {
    txn: TxnId,
    mode: LockMode,
    state: State,
}

impl Lock {
    fn waits(&self) -> bool {
        self.state != State::Held
    }
}

/// The holders of a page, in grant order.
fn holders(locks: &Lists<Lock>, page: List) -> impl Iterator<Item = Lock> + Clone + '_ {
    locks.iter(page).take_while(|l| !l.waits())
}

/// The queue of a page: upgrades, then ordinary waiters in arrival order.
fn queue(locks: &Lists<Lock>, page: List) -> impl Iterator<Item = Lock> + Clone + '_ {
    locks.iter(page).skip_while(|l| !l.waits())
}

/// True when a request waits on the page (waiters come last).
fn has_queue(locks: &Lists<Lock>, page: List) -> bool {
    locks.last(page).is_some_and(|l| l.waits())
}

fn can_grant(locks: &Lists<Lock>, page: List, req: Lock) -> bool {
    if req.state == State::Upgrading {
        // An upgrade is grantable only when the upgrader is the sole holder.
        let mut held = holders(locks, page);
        held.next().is_some_and(|h| h.txn == req.txn) && held.next().is_none()
    } else {
        holders(locks, page).all(|h| h.mode.compatible(req.mode))
    }
}

/// Grant `req` (taken out of the queue, or never queued): an upgrade
/// strengthens its holder's lock, any other request becomes the last
/// holder.
fn grant(locks: &mut Lists<Lock>, page: &mut List, req: Lock) {
    if req.state == State::Upgrading {
        let held = locks.find_mut(*page, |l| l.txn == req.txn && !l.waits());
        held.expect("the upgrader holds a read lock").mode = LockMode::Write;
    } else {
        let held = Lock {
            state: State::Held,
            ..req
        };
        locks.insert(page, held, Lock::waits);
    }
}

/// The lock table for the pages stored at one node.
#[derive(Debug, Default)]
pub struct LockTable {
    /// Each page's lock list, holders first; empty when the page is idle.
    pages: PageTable<List>,
    /// Every page's lock entries.
    locks: Lists<Lock>,
    /// Pages each transaction holds locks on (for O(1) release).
    held: FxHashMap<TxnId, List>,
    /// Pages each transaction is queued on.
    waiting: FxHashMap<TxnId, List>,
    /// The pages of `held` and `waiting`.
    txn_pages: Lists<PageId>,
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
    /// The most pages one transaction locks here (see
    /// [`preallocate`](LockTable::preallocate)).
    max_txn_accesses: usize,
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

    /// Size the table for transactions locking at most `max_txn_accesses`
    /// pages here (see
    /// [`CcManager::preallocate`](crate::manager::CcManager::preallocate)):
    /// every release keeps room in the arenas for that many locks per
    /// transaction listed, so they grow at a new high-water of
    /// transactions, not at every new high-water of locks.
    pub fn preallocate(&mut self, max_txn_accesses: usize) {
        self.max_txn_accesses = max_txn_accesses;
        self.touched_scratch.reserve(2 * max_txn_accesses);
    }

    /// Request a `mode` lock on `page` for `txn`.
    ///
    /// Re-requesting a page the transaction already holds is answered
    /// `Granted` (upgrading read → write when needed, possibly by queueing an
    /// upgrade request, in which case `Queued` is returned).
    pub fn request(&mut self, txn: TxnId, page: PageId, mode: LockMode) -> LockOutcome {
        let list = self.pages.entry(page);
        // Re-requesting while already queued is idempotent (strengthening a
        // queued read to a write upgrades the queued request in place).
        if let Some(queued) = self.locks.find_mut(*list, |l| l.txn == txn && l.waits()) {
            if mode == LockMode::Write {
                queued.mode = LockMode::Write;
            }
            return LockOutcome::Queued;
        }
        let held_mode = holders(&self.locks, *list)
            .find(|l| l.txn == txn)
            .map(|l| l.mode);
        // What is left is a first request, or a held read asking to write.
        let state = match held_mode {
            Some(LockMode::Write) => return LockOutcome::Granted,
            Some(LockMode::Read) if mode == LockMode::Read => return LockOutcome::Granted,
            Some(LockMode::Read) => State::Upgrading,
            None => State::Waiting,
        };
        let upgrade = state == State::Upgrading;
        let req = Lock { txn, mode, state };
        // Ordinary requests respect the queue unless barging is enabled;
        // upgrades always bypass it but queue ahead of ordinary waiters.
        let grantable = can_grant(&self.locks, *list, req)
            && (upgrade || self.barging || !has_queue(&self.locks, *list));
        if grantable {
            grant(&mut self.locks, list, req);
            if !upgrade {
                push_item(&mut self.held, &mut self.txn_pages, txn, page);
            }
            LockOutcome::Granted
        } else {
            if upgrade {
                // Ahead of ordinary waiters, behind earlier upgrades.
                self.locks.insert(list, req, |l| l.state == State::Waiting);
            } else {
                self.locks.push(list, req);
            }
            self.queued.insert(page);
            push_item(&mut self.waiting, &mut self.txn_pages, txn, page);
            LockOutcome::Queued
        }
    }

    /// Release everything `txn` holds or waits for. Returns the requests
    /// granted as a consequence, in grant order.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<(TxnId, PageId)> {
        // Room for every holder listed to lock its bound of pages.
        let room = self.held.len() * self.max_txn_accesses;
        self.locks.reserve_links(room);
        self.txn_pages.reserve_links(room);
        let mut touched = std::mem::take(&mut self.touched_scratch);
        touched.clear();
        // A transaction has at most one held and one queued entry a page.
        for (lists, waits) in [(&mut self.held, false), (&mut self.waiting, true)] {
            if let Some(mut pages) = lists.remove(&txn) {
                for page in self.txn_pages.iter(pages) {
                    if let Some(list) = self.pages.get_mut(page) {
                        self.locks
                            .remove(list, |l| l.txn == txn && l.waits() == waits);
                        touched.push(page);
                    }
                }
                self.txn_pages.clear(&mut pages);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        let mut granted = Vec::new();
        for &page in &touched {
            self.grant_from_queue(page, &mut granted);
        }
        self.touched_scratch = touched;
        granted
    }

    /// Withdraw a single queued request (e.g. the requester was chosen as a
    /// deadlock victim and will abort; its *held* locks stay put until the
    /// abort protocol completes). Returns requests granted because the
    /// withdrawal unclogged the queue.
    pub fn cancel_wait(&mut self, txn: TxnId, page: PageId) -> Vec<(TxnId, PageId)> {
        if let Some(list) = self.pages.get_mut(page) {
            self.locks.remove(list, |l| l.txn == txn && l.waits());
        }
        remove_item(&mut self.waiting, &mut self.txn_pages, txn, page);
        let mut granted = Vec::new();
        self.grant_from_queue(page, &mut granted);
        granted
    }

    /// Grant from `page`'s queue, appending to `granted`: the longest
    /// grantable prefix under strict FIFO, or every grantable request under
    /// barging.
    fn grant_from_queue(&mut self, page: PageId, granted: &mut Vec<(TxnId, PageId)>) {
        let Some(list) = self.pages.get_mut(page) else {
            return;
        };
        let mut scan = 0usize;
        loop {
            let Some(head) = queue(&self.locks, *list).nth(scan) else {
                break;
            };
            if !can_grant(&self.locks, *list, head) {
                if self.barging {
                    scan += 1;
                    continue;
                }
                break;
            }
            self.locks.remove(list, |l| l.txn == head.txn && l.waits());
            grant(&mut self.locks, list, head);
            if head.state != State::Upgrading {
                push_item(&mut self.held, &mut self.txn_pages, head.txn, page);
            }
            remove_item(&mut self.waiting, &mut self.txn_pages, head.txn, page);
            granted.push((head.txn, page));
        }
        if !has_queue(&self.locks, *list) {
            self.queued.remove(&page);
        }
    }

    /// Current holders of `page`.
    pub fn holders(&self, page: PageId) -> Vec<(TxnId, LockMode)> {
        let list = self.pages.get(page).copied().unwrap_or_default();
        holders(&self.locks, list)
            .map(|l| (l.txn, l.mode))
            .collect()
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
        let list = self.pages.get(page).copied().unwrap_or_default();
        let (held, queue) = (holders(&self.locks, list), queue(&self.locks, list));
        queue.clone().enumerate().flat_map(move |(i, w)| {
            let held = held
                .clone()
                .filter(move |h| h.txn != w.txn && !h.mode.compatible(w.mode))
                .map(|h| h.txn);
            let ahead = queue
                .clone()
                .take(i)
                .filter(move |a| !a.mode.compatible(w.mode))
                .map(|a| a.txn);
            held.chain(ahead).map(move |blocker| (w.txn, blocker))
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

    /// Recompute the queued-page set by scanning every page slot — the
    /// O(pages) reference implementation of
    /// [`queued_pages`](LockTable::queued_pages), for consistency tests.
    pub fn scan_queued_pages(&self) -> Vec<PageId> {
        self.pages
            .iter()
            .filter(|&(_, &list)| has_queue(&self.locks, list))
            .map(|(page, _)| page)
            .collect()
    }

    /// The pages on which `txn` is currently queued.
    pub fn wait_pages(&self, txn: TxnId) -> Vec<PageId> {
        self.waiting
            .get(&txn)
            .map_or_else(Vec::new, |&l| self.txn_pages.iter(l).collect())
    }

    /// True if `txn` holds or awaits any lock.
    pub fn involves(&self, txn: TxnId) -> bool {
        self.held.contains_key(&txn) || self.waiting.contains_key(&txn)
    }

    /// Number of pages with a holder or a waiter (tests/diagnostics).
    pub fn active_pages(&self) -> usize {
        self.pages.iter().filter(|(_, l)| !l.is_empty()).count()
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
    fn idle_pages_free_every_link() {
        let mut lt = LockTable::new();
        lt.request(TxnId(1), page(1), LockMode::Write);
        lt.request(TxnId(2), page(1), LockMode::Read); // queued
        lt.request(TxnId(1), page(2), LockMode::Read);
        lt.request(TxnId(2), page(2), LockMode::Read);
        lt.request(TxnId(2), page(2), LockMode::Write); // upgrade, queued
                                                        // T1's release grants T2 both: page 1's read and page 2's upgrade.
        assert_eq!(
            lt.release_all(TxnId(1)),
            vec![(TxnId(2), page(1)), (TxnId(2), page(2))]
        );
        assert_eq!(lt.holders(page(2)), vec![(TxnId(2), LockMode::Write)]);
        assert_eq!((lt.locks.listed(), lt.txn_pages.listed()), (2, 2));
        lt.release_all(TxnId(2));
        // No busy page is left, and every link is free for the next.
        assert_eq!(lt.active_pages(), 0);
        assert_eq!((lt.locks.listed(), lt.txn_pages.listed()), (0, 0));
        assert!(lt.held.is_empty() && lt.waiting.is_empty());
        let links = (lt.locks.capacity(), lt.txn_pages.capacity());
        lt.request(TxnId(3), page(7), LockMode::Write);
        lt.request(TxnId(4), page(7), LockMode::Write);
        assert_eq!(lt.release_all(TxnId(3)), vec![(TxnId(4), page(7))]);
        lt.release_all(TxnId(4));
        assert_eq!(lt.active_pages(), 0);
        assert_eq!((lt.locks.capacity(), lt.txn_pages.capacity()), links);
    }

    #[test]
    fn barging_grant_joins_the_holders_ahead_of_the_queue() {
        let mut lt = LockTable::with_barging();
        lt.request(TxnId(1), page(1), LockMode::Read);
        lt.request(TxnId(2), page(1), LockMode::Write); // queued
        assert_eq!(
            lt.request(TxnId(3), page(1), LockMode::Read),
            LockOutcome::Granted
        );
        lt.request(TxnId(4), page(1), LockMode::Write); // queued
        lt.request(TxnId(5), page(1), LockMode::Read); // barges
        assert_eq!(
            lt.holders(page(1)),
            vec![
                (TxnId(1), LockMode::Read),
                (TxnId(3), LockMode::Read),
                (TxnId(5), LockMode::Read)
            ]
        );
        let pairs: Vec<(u64, u64)> = lt.wait_pairs(page(1)).map(|(w, b)| (w.0, b.0)).collect();
        assert_eq!(
            pairs,
            [(2, 1), (2, 3), (2, 5), (4, 1), (4, 3), (4, 5), (4, 2)]
        );
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
