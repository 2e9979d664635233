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

use crate::common::{AccessResponse, ReleaseResponse, Ts, TxnLists, TxnMeta};
use crate::manager::CcManager;
use ddbm_config::{Algorithm, PageBuffers, PageId, PageMap, Spares, TxnId};

#[derive(Debug, Default)]
struct PageState {
    rts: Ts,
    wts: Ts,
    /// The page's waiting accesses, boxed: `None` while both lists are
    /// empty, which is most pages most of the time.
    lists: Option<Box<Lists>>,
}

#[derive(Debug)]
struct Lists {
    /// Granted-but-uncommitted writes, kept sorted by timestamp.
    pending_writes: Vec<(Ts, TxnId)>,
    /// Reads blocked behind smaller-timestamped pending writes, FIFO.
    blocked_reads: Vec<(Ts, TxnId)>,
}

impl Lists {
    fn min_pending_below(&self, ts: Ts) -> bool {
        // `pending_writes` is kept sorted by timestamp, so the smallest is
        // the front.
        self.pending_writes.first().is_some_and(|(w, _)| *w < ts)
    }
}

impl PageBuffers for Lists {
    /// Room for the first pending writes; reads block only under
    /// contention.
    fn stocked() -> Self {
        Lists {
            pending_writes: Vec::with_capacity(4),
            blocked_reads: Vec::new(),
        }
    }

    fn is_idle(&self) -> bool {
        self.pending_writes.is_empty() && self.blocked_reads.is_empty()
    }
}

/// See module docs.
#[derive(Debug, Default)]
pub struct BasicTimestampOrdering {
    /// Per-page state. `rts`/`wts` are high-water marks and stay once a
    /// page is touched; its lists go back to `spare` when both empty.
    pages: PageMap<PageState>,
    /// Lists of pages that went idle, buffers kept, for the next page that
    /// needs one.
    spare: Spares<Lists>,
    /// Pages each transaction has pending writes on, with the write ts.
    txn_writes: TxnLists<(PageId, Ts)>,
    /// Pages each transaction has a blocked read on.
    txn_blocked: TxnLists<PageId>,
    /// Scratch for the pages a finishing transaction touched.
    touched_scratch: Vec<PageId>,
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
        let Some(lists) = &mut state.lists else {
            return;
        };
        let mut i = 0;
        while i < lists.blocked_reads.len() {
            let (r_ts, r_txn) = lists.blocked_reads[i];
            if r_ts < state.wts {
                // A larger-timestamped write committed while the read was
                // blocked: the read is now out of order and must abort.
                lists.blocked_reads.remove(i);
                self.txn_blocked.remove_item(r_txn, &page);
                out.rejected.push((r_txn, page));
            } else if !lists.min_pending_below(r_ts) {
                lists.blocked_reads.remove(i);
                self.txn_blocked.remove_item(r_txn, &page);
                state.rts = state.rts.max(r_ts);
                out.granted.push((r_txn, page));
            } else {
                i += 1;
            }
        }
        self.spare.settle(&mut state.lists);
    }

    fn finish(&mut self, txn: TxnId, install: bool) -> ReleaseResponse {
        let mut out = ReleaseResponse::default();
        let mut touched = std::mem::take(&mut self.touched_scratch);
        touched.clear();
        for &(page, w_ts) in self.txn_writes.get(txn) {
            if let Some(state) = self.pages.get_mut(page) {
                if let Some(lists) = &mut state.lists {
                    lists.pending_writes.retain(|(_, t)| *t != txn);
                }
                if install && w_ts > state.wts {
                    // Thomas write rule at install time: only a newer
                    // write becomes the current version.
                    state.wts = w_ts;
                }
                touched.push(page);
            }
        }
        self.txn_writes.remove(txn);
        for &page in self.txn_blocked.get(txn) {
            if let Some(state) = self.pages.get_mut(page) {
                if let Some(lists) = &mut state.lists {
                    lists.blocked_reads.retain(|(_, t)| *t != txn);
                }
                self.spare.settle(&mut state.lists);
            }
        }
        self.txn_blocked.remove(txn);
        // Waking also settles every page this transaction wrote.
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
        let state = self.pages.get_or_default(page);
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
            let pending = &mut self.spare.fill(&mut state.lists).pending_writes;
            let pos = pending.partition_point(|(w, _)| *w < ts);
            pending.insert(pos, (ts, txn.id));
            self.txn_writes.push(txn.id, (page, ts));
            AccessResponse::granted()
        } else {
            if ts < state.wts {
                // The version this read should see has been overwritten.
                return AccessResponse::rejected();
            }
            if state
                .lists
                .as_ref()
                .is_some_and(|l| l.min_pending_below(ts))
            {
                self.spare
                    .fill(&mut state.lists)
                    .blocked_reads
                    .push((ts, txn.id));
                self.txn_blocked.push(txn.id, page);
                return AccessResponse::blocked();
            }
            state.rts = state.rts.max(ts);
            AccessResponse::granted()
        }
    }

    fn preallocate(&mut self, _num_pages: usize, max_txn_accesses: usize) {
        self.txn_writes.set_capacity(max_txn_accesses);
        self.txn_blocked.set_capacity(max_txn_accesses);
        self.touched_scratch.reserve(max_txn_accesses);
        self.spare.set_batch(max_txn_accesses);
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

    fn algorithm(&self) -> Algorithm {
        Algorithm::BasicTimestampOrdering
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

    #[test]
    fn idle_pages_keep_no_lists_and_reuse_a_spare() {
        let mut m = BasicTimestampOrdering::new();
        m.request_access(&meta_ts(1, 10), page(1), true); // pending @10
        m.request_access(&meta_ts(2, 20), page(1), false); // blocked
        m.request_access(&meta_ts(3, 30), page(2), false); // granted
        assert!(m.pages.get(page(2)).unwrap().lists.is_none());
        let lists = m.pages.get(page(1)).unwrap().lists.as_deref().unwrap();
        let (lists, pending): (*const Lists, _) = (lists, lists.pending_writes.as_ptr());
        // The commit installs wts = 10 and wakes the read: page 1 goes idle
        // and keeps only its timestamps.
        assert_eq!(m.commit(TxnId(1)).granted, vec![(TxnId(2), page(1))]);
        let state = m.pages.get(page(1)).unwrap();
        assert!(state.lists.is_none());
        assert_eq!(
            (state.wts, state.rts),
            (Ts::new(10, TxnId(1)), Ts::new(20, TxnId(2)))
        );
        assert_eq!(m.spare.stock(), 1);
        // The next page to need lists takes that spare, buffers and all.
        m.request_access(&meta_ts(4, 40), page(3), true);
        let reused = m.pages.get(page(3)).unwrap().lists.as_deref().unwrap();
        assert!(std::ptr::eq(reused, lists));
        assert_eq!(reused.pending_writes.as_ptr(), pending);
        assert_eq!(m.spare.stock(), 0);
        // A reader's abort withdraws its blocked read; the page stays
        // active until the write it waited on aborts too.
        m.request_access(&meta_ts(5, 50), page(3), false); // blocked
        assert!(m.abort(TxnId(5)).is_empty());
        assert!(m.pages.get(page(3)).unwrap().lists.is_some());
        assert!(m.abort(TxnId(4)).is_empty());
        assert!(m.pages.get(page(3)).unwrap().lists.is_none());
        assert_eq!(m.spare.stock(), 1);
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
