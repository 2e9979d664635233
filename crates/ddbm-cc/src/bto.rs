//! Basic timestamp ordering (paper §2.4, after Bernstein & Goodman).
//!
//! Every recently accessed page carries a read timestamp (`rts`, the largest
//! timestamp of any granted read) and a write timestamp (`wts`, the timestamp
//! of the current committed version). Conflicting accesses must occur in
//! timestamp order; out-of-order accesses abort the requester, except
//! write-write conflicts, where the Thomas write rule lets the stale write be
//! skipped.
//!
//! Writers keep updates in a private workspace until commit: a granted write
//! is queued *pending* in timestamp order without blocking the writer, and is
//! installed when the writer commits. A read request whose timestamp is
//! larger than a pending (uncommitted) write's timestamp must block until
//! that write commits or aborts — "a write request locks out subsequent
//! reads with later timestamps until the write actually becomes visible".
//!
//! Restarted transactions run with a *fresh* timestamp (the `run_ts` of
//! [`TxnMeta`]); with its original timestamp a restarted transaction would
//! find the same accesses out of order and abort forever.

use crate::common::{push_item, remove_item, AccessResponse, ReleaseResponse, Ts, TxnMeta};
use crate::manager::CcManager;
use ddbm_config::{PageId, PageTable, TxnId};
use denet::{FxHashMap, List, Lists};

/// A waiting access: its timestamp and transaction.
type Wait = (Ts, TxnId);

#[derive(Debug, Default, Clone, Copy)]
struct PageState {
    rts: Ts,
    wts: Ts,
    /// Granted-but-uncommitted writes, sorted by timestamp.
    pending: List,
    /// Reads blocked behind smaller-timestamped pending writes, FIFO.
    blocked: List,
}

/// See module docs.
#[derive(Debug, Default)]
pub struct BasicTimestampOrdering {
    /// Per-page state. `rts`/`wts` are high-water marks and stay once a
    /// page is touched; its lists are empty while no access waits there.
    pages: PageTable<PageState>,
    /// Every page's pending writes and blocked reads.
    waits: Lists<Wait>,
    /// Pages each transaction has pending writes on.
    txn_writes: FxHashMap<TxnId, List>,
    /// Pages each transaction has a blocked read on.
    txn_blocked: FxHashMap<TxnId, List>,
    /// The pages of `txn_writes` and `txn_blocked`.
    txn_pages: Lists<PageId>,
    /// Scratch for the pages a finishing transaction touched.
    touched_scratch: Vec<PageId>,
    /// The most accesses one transaction makes here (see `preallocate`).
    max_txn_accesses: usize,
}

/// True when `pending` holds a write older than `ts` (it is sorted, so the
/// smallest is the front).
fn min_pending_below(waits: &Lists<Wait>, pending: List, ts: Ts) -> bool {
    waits.iter(pending).next().is_some_and(|(w, _)| w < ts)
}

impl BasicTimestampOrdering {
    /// Create a new instance.
    pub fn new() -> BasicTimestampOrdering {
        BasicTimestampOrdering::default()
    }

    /// Wake blocked reads on `page` after its pending-write set shrank.
    /// Earlier-arrived reads are considered first.
    fn wake_reads(&mut self, page: PageId, out: &mut ReleaseResponse) {
        let Some(state) = self.pages.get_mut(page) else {
            return;
        };
        let (wts, rts) = (state.wts, &mut state.rts);
        // The pending writes stay put while the reads wake.
        let min_pending = self.waits.iter(state.pending).next().map(|(w, _)| w);
        let (txn_blocked, txn_pages) = (&mut self.txn_blocked, &mut self.txn_pages);
        self.waits.retain(&mut state.blocked, |&(r_ts, r_txn)| {
            let outcome = if r_ts < wts {
                // A larger-timestamped write committed while the read was
                // blocked: the read is now out of order and must abort.
                &mut out.rejected
            } else if min_pending.is_none_or(|w| w >= r_ts) {
                *rts = (*rts).max(r_ts);
                &mut out.granted
            } else {
                return true;
            };
            outcome.push((r_txn, page));
            remove_item(txn_blocked, txn_pages, r_txn, page);
            false
        });
    }

    fn finish(&mut self, txn: TxnId, install: bool) -> ReleaseResponse {
        // Room for every writer listed to have its bound of pending writes.
        let room = self.txn_writes.len() * self.max_txn_accesses;
        self.waits.reserve_links(room);
        self.txn_pages.reserve_links(room);
        let mut out = ReleaseResponse::default();
        let mut touched = std::mem::take(&mut self.touched_scratch);
        touched.clear();
        if let Some(mut writes) = self.txn_writes.remove(&txn) {
            for page in self.txn_pages.iter(writes) {
                if let Some(state) = self.pages.get_mut(page) {
                    // One pending write per listed page.
                    let write = self.waits.remove(&mut state.pending, |&(_, t)| t == txn);
                    // Thomas write rule at install time: only a newer
                    // write becomes the current version.
                    if let Some((w_ts, _)) = write.filter(|&(w, _)| install && w > state.wts) {
                        state.wts = w_ts;
                    }
                    touched.push(page);
                }
            }
            self.txn_pages.clear(&mut writes);
        }
        if let Some(mut blocked) = self.txn_blocked.remove(&txn) {
            for page in self.txn_pages.iter(blocked) {
                if let Some(state) = self.pages.get_mut(page) {
                    self.waits.remove(&mut state.blocked, |&(_, t)| t == txn);
                }
            }
            self.txn_pages.clear(&mut blocked);
        }
        for page in touched.drain(..) {
            self.wake_reads(page, &mut out);
        }
        self.touched_scratch = touched;
        out
    }
}

impl CcManager for BasicTimestampOrdering {
    fn request_access(&mut self, txn: &TxnMeta, page: PageId, write: bool) -> AccessResponse {
        let ts = txn.run_ts;
        // Page entries are kept even when quiescent: rts/wts are high-water
        // marks that must survive.
        let state = self.pages.entry(page);
        if write {
            if ts < state.rts {
                // A later read already saw the previous version.
                return AccessResponse::rejected();
            }
            if ts < state.wts {
                // Thomas write rule: the write is stale but harmless; it is
                // granted and simply never installed (we do not queue it, so
                // it cannot block any reader).
                return AccessResponse::granted();
            }
            self.waits
                .insert(&mut state.pending, (ts, txn.id), |&(w, _)| w >= ts);
            push_item(&mut self.txn_writes, &mut self.txn_pages, txn.id, page);
            AccessResponse::granted()
        } else {
            if ts < state.wts {
                // The version this read should see has been overwritten.
                return AccessResponse::rejected();
            }
            if min_pending_below(&self.waits, state.pending, ts) {
                self.waits.push(&mut state.blocked, (ts, txn.id));
                push_item(&mut self.txn_blocked, &mut self.txn_pages, txn.id, page);
                return AccessResponse::blocked();
            }
            state.rts = state.rts.max(ts);
            AccessResponse::granted()
        }
    }

    fn preallocate(&mut self, _num_pages: usize, max_txn_accesses: usize) {
        self.max_txn_accesses = max_txn_accesses;
        self.touched_scratch.reserve(max_txn_accesses);
    }

    fn certify(&mut self, _txn: &TxnMeta, _commit_ts: Ts) -> bool {
        true
    }

    fn commit(&mut self, txn: TxnId) -> ReleaseResponse {
        self.finish(txn, true)
    }

    fn abort(&mut self, txn: TxnId) -> ReleaseResponse {
        self.finish(txn, false)
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

    /// Transaction `id` whose run timestamp equals `ts_order`.
    fn meta_ts(id: u64, ts_order: u64) -> TxnMeta {
        TxnMeta {
            id: TxnId(id),
            initial_ts: Ts::new(ts_order, TxnId(id)),
            run_ts: Ts::new(ts_order, TxnId(id)),
        }
    }

    #[test]
    fn in_order_reads_and_writes_granted() {
        let mut m = BasicTimestampOrdering::new();
        assert_eq!(
            m.request_access(&meta_ts(1, 10), page(1), false).reply,
            AccessReply::Granted
        );
        assert_eq!(
            m.request_access(&meta_ts(2, 20), page(1), true).reply,
            AccessReply::Granted
        );
        assert_eq!(
            m.request_access(&meta_ts(3, 30), page(2), false).reply,
            AccessReply::Granted
        );
    }

    #[test]
    fn write_behind_committed_read_rejected() {
        let mut m = BasicTimestampOrdering::new();
        m.request_access(&meta_ts(2, 20), page(1), false); // read at 20
        let r = m.request_access(&meta_ts(1, 10), page(1), true); // write at 10
        assert_eq!(r.reply, AccessReply::Rejected);
    }

    #[test]
    fn read_behind_committed_write_rejected() {
        let mut m = BasicTimestampOrdering::new();
        m.request_access(&meta_ts(2, 20), page(1), true);
        m.commit(TxnId(2)); // wts = 20
        let r = m.request_access(&meta_ts(1, 10), page(1), false);
        assert_eq!(r.reply, AccessReply::Rejected);
    }

    #[test]
    fn thomas_write_rule_skips_stale_write() {
        let mut m = BasicTimestampOrdering::new();
        m.request_access(&meta_ts(3, 30), page(1), true);
        m.commit(TxnId(3)); // wts = 30
                            // An older write (no read in between) is granted but never installed.
        let r = m.request_access(&meta_ts(1, 10), page(1), true);
        assert_eq!(r.reply, AccessReply::Granted);
        m.commit(TxnId(1));
        // The version is still 30: a read at 20 must be rejected.
        let r = m.request_access(&meta_ts(2, 20), page(1), false);
        assert_eq!(r.reply, AccessReply::Rejected);
    }

    #[test]
    fn read_blocks_behind_earlier_pending_write() {
        let mut m = BasicTimestampOrdering::new();
        m.request_access(&meta_ts(1, 10), page(1), true); // pending write @10
        let r = m.request_access(&meta_ts(2, 20), page(1), false); // read @20
        assert_eq!(r.reply, AccessReply::Blocked);
        // Writer commits → read wakes, granted.
        let rel = m.commit(TxnId(1));
        assert_eq!(rel.granted, vec![(TxnId(2), page(1))]);
        assert!(rel.rejected.is_empty());
    }

    #[test]
    fn read_does_not_block_behind_later_pending_write() {
        let mut m = BasicTimestampOrdering::new();
        m.request_access(&meta_ts(2, 20), page(1), true); // pending write @20
        let r = m.request_access(&meta_ts(1, 10), page(1), false); // read @10
        assert_eq!(r.reply, AccessReply::Granted);
    }

    #[test]
    fn abort_of_pending_write_unblocks_reader() {
        let mut m = BasicTimestampOrdering::new();
        m.request_access(&meta_ts(1, 10), page(1), true);
        assert_eq!(
            m.request_access(&meta_ts(2, 20), page(1), false).reply,
            AccessReply::Blocked
        );
        let rel = m.abort(TxnId(1));
        // Write discarded, wts unchanged → read granted.
        assert_eq!(rel.granted, vec![(TxnId(2), page(1))]);
    }

    #[test]
    fn blocked_read_rejected_when_later_write_installs_first() {
        let mut m = BasicTimestampOrdering::new();
        m.request_access(&meta_ts(1, 10), page(1), true); // pending @10
        m.request_access(&meta_ts(3, 30), page(1), true); // pending @30
                                                          // Read @20 blocks on the @10 write only.
        assert_eq!(
            m.request_access(&meta_ts(2, 20), page(1), false).reply,
            AccessReply::Blocked
        );
        // @30 commits first: wts=30 > 20 — the blocked read can never
        // succeed, so it is rejected immediately.
        let rel = m.commit(TxnId(3));
        assert!(rel.granted.is_empty());
        assert_eq!(rel.rejected, vec![(TxnId(2), page(1))]);
        // @10's later commit finds nothing left to wake.
        let rel = m.commit(TxnId(1));
        assert!(rel.granted.is_empty());
        assert!(rel.rejected.is_empty());
    }

    #[test]
    fn multiple_blocked_readers_wake_in_arrival_order() {
        let mut m = BasicTimestampOrdering::new();
        m.request_access(&meta_ts(1, 10), page(1), true);
        m.request_access(&meta_ts(2, 20), page(1), false);
        m.request_access(&meta_ts(3, 30), page(1), false);
        let rel = m.commit(TxnId(1));
        assert_eq!(rel.granted, vec![(TxnId(2), page(1)), (TxnId(3), page(1))]);
    }

    #[test]
    fn pending_writes_keep_timestamp_order() {
        let mut m = BasicTimestampOrdering::new();
        m.request_access(&meta_ts(3, 30), page(1), true);
        m.request_access(&meta_ts(1, 10), page(1), true);
        m.request_access(&meta_ts(2, 20), page(1), true);
        // A read @25 must block on the pending writes @10 and @20 but not @30.
        assert_eq!(
            m.request_access(&meta_ts(4, 25), page(1), false).reply,
            AccessReply::Blocked
        );
        m.commit(TxnId(1));
        // @20 still pending.
        m.request_access(&meta_ts(5, 26), page(1), false);
        let rel = m.commit(TxnId(2));
        // Both reads wake: rts becomes 26.
        assert_eq!(rel.granted.len(), 2);
        // A write @24 now loses to rts=26.
        let r = m.request_access(&meta_ts(6, 24), page(1), true);
        assert_eq!(r.reply, AccessReply::Rejected);
    }

    #[test]
    fn restarted_txn_with_new_ts_succeeds() {
        let mut m = BasicTimestampOrdering::new();
        m.request_access(&meta_ts(2, 20), page(1), false); // rts = 20
                                                           // T1 (run ts 10) writes → rejected; it aborts and restarts @ ts 40.
        assert_eq!(
            m.request_access(&meta_ts(1, 10), page(1), true).reply,
            AccessReply::Rejected
        );
        m.abort(TxnId(1));
        assert_eq!(
            m.request_access(&meta_ts(1, 40), page(1), true).reply,
            AccessReply::Granted
        );
    }

    /// (pending writes, blocked reads) at `p`.
    fn lens(m: &BasicTimestampOrdering, p: u64) -> (usize, usize) {
        let state = m.pages.get(page(p)).unwrap();
        (
            m.waits.iter(state.pending).count(),
            m.waits.iter(state.blocked).count(),
        )
    }

    #[test]
    fn idle_pages_free_every_link() {
        let mut m = BasicTimestampOrdering::new();
        m.request_access(&meta_ts(1, 10), page(1), true); // pending @10
        m.request_access(&meta_ts(2, 20), page(1), false); // blocked
        m.request_access(&meta_ts(3, 30), page(2), false); // granted
        assert_eq!((lens(&m, 1), lens(&m, 2)), ((1, 1), (0, 0)));
        // The commit installs wts = 10 and wakes the read: page 1 goes idle
        // and keeps only its timestamps.
        assert_eq!(m.commit(TxnId(1)).granted, vec![(TxnId(2), page(1))]);
        let state = m.pages.get(page(1)).unwrap();
        assert_eq!(lens(&m, 1), (0, 0));
        assert_eq!(
            (state.wts, state.rts),
            (Ts::new(10, TxnId(1)), Ts::new(20, TxnId(2)))
        );
        assert_eq!(m.waits.listed(), 0);
        assert!(m.txn_writes.is_empty() && m.txn_blocked.is_empty());
        // A reader's abort withdraws its blocked read; the page stays
        // busy until the write it waited on aborts too.
        m.request_access(&meta_ts(4, 40), page(3), true);
        m.request_access(&meta_ts(5, 50), page(3), false); // blocked
        assert!(m.abort(TxnId(5)).is_empty());
        assert_eq!(lens(&m, 3), (1, 0));
        assert!(m.abort(TxnId(4)).is_empty());
        // No busy page is left, and every link is free for the next.
        assert!(m
            .pages
            .iter()
            .all(|(_, s)| s.pending.is_empty() && s.blocked.is_empty()));
        assert_eq!((m.waits.listed(), m.txn_pages.listed()), (0, 0));
        assert!(m.txn_writes.is_empty() && m.txn_blocked.is_empty());
        assert_eq!(m.waits.capacity(), 2, "the waits reused freed links");
    }

    #[test]
    fn reads_of_distinct_pages_do_not_interact() {
        let mut m = BasicTimestampOrdering::new();
        m.request_access(&meta_ts(1, 10), page(1), true);
        assert_eq!(
            m.request_access(&meta_ts(2, 20), page(2), false).reply,
            AccessReply::Granted
        );
    }
}
