//! Distributed optimistic certification (paper §2.5, the first — simpler —
//! algorithm of Sinha et al.).
//!
//! Cohorts read and write freely, keeping updates in a private workspace;
//! the manager just records what was accessed and, for reads, the version
//! (write timestamp) that was current. When all cohorts finish, the
//! coordinator assigns the transaction a globally unique commit timestamp and
//! sends it with "prepare to commit"; each cohort then certifies its reads
//! and writes locally, in a critical section:
//!
//! * a **read** certifies iff the version it read is still current and no
//!   (newer-versioned) write on the item is already locally certified but
//!   uncommitted;
//! * a **write** certifies iff no read with a later timestamp has been
//!   certified-and-committed (`rts ≤ commit_ts`) and no later-timestamped
//!   read is locally certified but uncommitted.
//!
//! Any failure makes the cohort vote "no" and aborts the whole transaction.
//! Successfully certified accesses stay registered until phase 2 commits
//! (installing `rts`/`wts`, the latter under the Thomas write rule) or
//! aborts (discarding them).

use crate::common::{AccessResponse, ReleaseResponse, Ts, TxnLists, TxnMeta};
use crate::manager::CcManager;
use ddbm_config::{Algorithm, PageBuffers, PageId, PageMap, Spares, TxnId};
use denet::FxHashMap;

#[derive(Debug, Default)]
struct PageState {
    /// Largest commit timestamp of any committed read.
    rts: Ts,
    /// Commit timestamp of the current committed version.
    wts: Ts,
    /// The page's certified, uncommitted accesses, boxed: `None` while
    /// there are none, which is most pages most of the time.
    certified: Option<Box<Certified>>,
}

#[derive(Debug)]
struct Certified {
    /// Locally certified, uncommitted reads: (txn, commit ts).
    reads: Vec<(TxnId, Ts)>,
    /// Locally certified, uncommitted writes: (txn, commit ts).
    writes: Vec<(TxnId, Ts)>,
}

impl PageBuffers for Certified {
    fn stocked() -> Self {
        Certified {
            reads: Vec::with_capacity(4),
            writes: Vec::with_capacity(4),
        }
    }

    fn is_idle(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }
}

/// See module docs.
#[derive(Debug, Default)]
pub struct OptimisticCertification {
    /// Per-page state. `rts`/`wts` stay once a page is touched; its
    /// certified lists go back to `spare` when both empty.
    pages: PageMap<PageState>,
    /// Certified lists of pages that went idle, buffers kept, for the next
    /// page that certifies an access.
    spare: Spares<Certified>,
    /// Uncertified recorded reads: page → version that was read.
    reads: TxnLists<(PageId, Ts)>,
    /// Uncertified recorded writes.
    writes: TxnLists<PageId>,
    /// Commit timestamps of locally certified transactions.
    certified: FxHashMap<TxnId, Ts>,
}

impl OptimisticCertification {
    /// Create a new instance.
    pub fn new() -> OptimisticCertification {
        OptimisticCertification::default()
    }

    /// Withdraw `txn`'s registrations; with a `commit_ts`, install its
    /// reads (`rts`) and writes (`wts`, under the Thomas write rule) first.
    fn finish(&mut self, txn: TxnId, commit_ts: Option<Ts>) {
        for &(page, _) in self.reads.get(txn) {
            if let Some(state) = self.pages.get_mut(page) {
                if let Some(c) = &mut state.certified {
                    c.reads.retain(|(t, _)| *t != txn);
                }
                if let Some(ts) = commit_ts {
                    state.rts = state.rts.max(ts);
                }
                self.spare.settle(&mut state.certified);
            }
        }
        for &page in self.writes.get(txn) {
            if let Some(state) = self.pages.get_mut(page) {
                if let Some(c) = &mut state.certified {
                    c.writes.retain(|(t, _)| *t != txn);
                }
                if let Some(ts) = commit_ts {
                    state.wts = state.wts.max(ts);
                }
                self.spare.settle(&mut state.certified);
            }
        }
        self.reads.remove(txn);
        self.writes.remove(txn);
    }
}

impl CcManager for OptimisticCertification {
    fn request_access(&mut self, txn: &TxnMeta, page: PageId, write: bool) -> AccessResponse {
        // "A concurrency control request ... is always granted in the case
        // of the OPT algorithm" (paper §3.3).
        let state = self.pages.get_or_default(page);
        if write {
            self.writes.push(txn.id, page);
        } else {
            self.reads.push(txn.id, (page, state.wts));
        }
        AccessResponse::granted()
    }

    fn preallocate(&mut self, _num_pages: usize, max_txn_accesses: usize) {
        self.reads.set_capacity(max_txn_accesses);
        self.writes.set_capacity(max_txn_accesses);
        self.spare.set_batch(max_txn_accesses);
    }

    fn certify(&mut self, txn: &TxnMeta, commit_ts: Ts) -> bool {
        // `reads`/`writes` and `pages` are disjoint fields, so the lists stay
        // borrowed while `pages` is updated.
        let reads = self.reads.get(txn.id);
        let writes = self.writes.get(txn.id);
        let mut ok = true;
        for &(page, version) in reads {
            let state = self.pages.get_or_default(page);
            if state.wts != version {
                ok = false; // the version read is no longer current
                break;
            }
            let certified = state.certified.as_deref();
            if certified.is_some_and(|c| c.writes.iter().any(|(t, _)| *t != txn.id)) {
                ok = false; // a certified (necessarily newer) write is pending
                break;
            }
        }
        if ok {
            for &page in writes {
                let state = self.pages.get_or_default(page);
                if state.rts > commit_ts {
                    ok = false; // a later read already committed
                    break;
                }
                let certified = state.certified.as_deref();
                if certified.is_some_and(|c| {
                    c.reads
                        .iter()
                        .any(|(t, ts)| *t != txn.id && *ts > commit_ts)
                }) {
                    ok = false; // a later read is locally certified
                    break;
                }
            }
        }
        if !ok {
            return false;
        }
        // Register the certified accesses; they hold until phase 2.
        for &(page, _) in reads {
            let state = self.pages.get_or_default(page);
            let certified = self.spare.fill(&mut state.certified);
            certified.reads.push((txn.id, commit_ts));
        }
        for &page in writes {
            let state = self.pages.get_or_default(page);
            let certified = self.spare.fill(&mut state.certified);
            certified.writes.push((txn.id, commit_ts));
        }
        self.certified.insert(txn.id, commit_ts);
        true
    }

    fn commit(&mut self, txn: TxnId) -> ReleaseResponse {
        let Some(commit_ts) = self.certified.remove(&txn) else {
            // Commit without local certification is a protocol error in the
            // simulator; tolerate it in release builds.
            debug_assert!(false, "OPT commit for uncertified {txn}");
            return ReleaseResponse::default();
        };
        self.finish(txn, Some(commit_ts));
        ReleaseResponse::default()
    }

    fn abort(&mut self, txn: TxnId) -> ReleaseResponse {
        self.certified.remove(&txn);
        self.finish(txn, None);
        ReleaseResponse::default()
    }

    fn algorithm(&self) -> Algorithm {
        Algorithm::Optimistic
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

    fn meta(id: u64) -> TxnMeta {
        TxnMeta {
            id: TxnId(id),
            initial_ts: Ts::new(id, TxnId(id)),
            run_ts: Ts::new(id, TxnId(id)),
        }
    }

    fn cts(t: u64) -> Ts {
        Ts::new(t, TxnId(0))
    }

    #[test]
    fn all_accesses_granted_immediately() {
        let mut m = OptimisticCertification::new();
        for i in 0..20 {
            let r = m.request_access(&meta(i), page(i % 3), i % 2 == 0);
            assert_eq!(r.reply, AccessReply::Granted);
        }
    }

    #[test]
    fn lone_transaction_certifies_and_commits() {
        let mut m = OptimisticCertification::new();
        m.request_access(&meta(1), page(1), false);
        m.request_access(&meta(1), page(2), true);
        assert!(m.certify(&meta(1), cts(100)));
        m.commit(TxnId(1));
        // Version of page 2 is now 100: a read sees it.
        m.request_access(&meta(2), page(2), false);
        assert!(m.certify(&meta(2), cts(200)));
        m.commit(TxnId(2));
    }

    #[test]
    fn stale_read_fails_certification() {
        let mut m = OptimisticCertification::new();
        // T1 reads page 1 (version 0).
        m.request_access(&meta(1), page(1), false);
        // T2 writes page 1 and commits first.
        m.request_access(&meta(2), page(1), true);
        assert!(m.certify(&meta(2), cts(50)));
        m.commit(TxnId(2));
        // T1's read of version 0 is no longer current.
        assert!(!m.certify(&meta(1), cts(60)));
        m.abort(TxnId(1));
    }

    #[test]
    fn read_fails_when_conflicting_write_certified_but_uncommitted() {
        let mut m = OptimisticCertification::new();
        m.request_access(&meta(1), page(1), false); // T1 reads v0
        m.request_access(&meta(2), page(1), true); // T2 writes
        assert!(m.certify(&meta(2), cts(50))); // T2 certified, not committed
                                               // T1 must fail: a certified write is pending on its read.
        assert!(!m.certify(&meta(1), cts(60)));
    }

    #[test]
    fn write_fails_against_later_committed_read() {
        let mut m = OptimisticCertification::new();
        m.request_access(&meta(1), page(1), false);
        assert!(m.certify(&meta(1), cts(100)));
        m.commit(TxnId(1)); // rts = 100
        m.request_access(&meta(2), page(1), true);
        // T2's commit ts 90 < rts 100 → fail.
        assert!(!m.certify(&meta(2), cts(90)));
        // With a later timestamp it succeeds.
        m.abort(TxnId(2));
        m.request_access(&meta(3), page(1), true);
        assert!(m.certify(&meta(3), cts(110)));
    }

    #[test]
    fn write_fails_against_later_certified_uncommitted_read() {
        let mut m = OptimisticCertification::new();
        m.request_access(&meta(1), page(1), false);
        assert!(m.certify(&meta(1), cts(100))); // certified read @100
        m.request_access(&meta(2), page(1), true);
        assert!(!m.certify(&meta(2), cts(90)));
        // A write with a timestamp after the certified read is fine.
        m.abort(TxnId(2));
        m.request_access(&meta(3), page(1), true);
        assert!(m.certify(&meta(3), cts(150)));
    }

    #[test]
    fn aborted_certification_releases_registrations() {
        let mut m = OptimisticCertification::new();
        m.request_access(&meta(1), page(1), true);
        assert!(m.certify(&meta(1), cts(50)));
        m.abort(TxnId(1)); // releases the certified write
                           // A reader of version 0 can now certify (no pending certified write,
                           // version unchanged).
        m.request_access(&meta(2), page(1), false);
        assert!(m.certify(&meta(2), cts(60)));
    }

    #[test]
    fn thomas_rule_on_install() {
        let mut m = OptimisticCertification::new();
        m.request_access(&meta(1), page(1), true);
        m.request_access(&meta(2), page(1), true);
        assert!(m.certify(&meta(2), cts(200)));
        m.commit(TxnId(2)); // wts = 200
        assert!(m.certify(&meta(1), cts(100)));
        m.commit(TxnId(1)); // older write must not regress the version
                            // A read now sees version 200: record and certify.
        m.request_access(&meta(3), page(1), false);
        assert!(m.certify(&meta(3), cts(300)));
    }

    #[test]
    fn blind_writes_do_not_conflict_with_each_other() {
        let mut m = OptimisticCertification::new();
        m.request_access(&meta(1), page(1), true);
        m.request_access(&meta(2), page(1), true);
        assert!(m.certify(&meta(1), cts(10)));
        assert!(m.certify(&meta(2), cts(20)));
        m.commit(TxnId(1));
        m.commit(TxnId(2));
    }

    #[test]
    fn idle_pages_keep_no_lists_and_reuse_a_spare() {
        let mut m = OptimisticCertification::new();
        m.request_access(&meta(1), page(1), false);
        m.request_access(&meta(1), page(1), true);
        m.request_access(&meta(2), page(2), true);
        // Recorded but uncertified accesses hold no page lists.
        assert!(m.pages.iter().all(|(_, s)| s.certified.is_none()));
        assert!(m.certify(&meta(1), cts(10)));
        assert!(m.certify(&meta(2), cts(20)));
        let lists = m.pages.get(page(1)).unwrap().certified.as_deref().unwrap();
        let (lists, reads): (*const Certified, _) = (lists, lists.reads.as_ptr());
        m.commit(TxnId(1));
        let state = m.pages.get(page(1)).unwrap();
        assert!(state.certified.is_none());
        assert_eq!((state.rts, state.wts), (cts(10), cts(10)));
        assert_eq!(m.spare.stock(), 1);
        // Page 3's first certified access takes page 1's lists.
        m.request_access(&meta(3), page(3), false);
        assert!(m.certify(&meta(3), cts(30)));
        let reused = m.pages.get(page(3)).unwrap().certified.as_deref().unwrap();
        assert!(std::ptr::eq(reused, lists));
        assert_eq!(reused.reads.as_ptr(), reads);
        assert_eq!(m.spare.stock(), 0);
        m.abort(TxnId(2));
        m.abort(TxnId(3));
        assert!(m.pages.iter().all(|(_, s)| s.certified.is_none()));
        assert_eq!(m.spare.stock(), 2);
    }

    #[test]
    fn own_accesses_do_not_self_conflict() {
        let mut m = OptimisticCertification::new();
        // T1 reads and writes different pages; its own certified entries
        // must not fail its own certification.
        m.request_access(&meta(1), page(1), false);
        m.request_access(&meta(1), page(1), true);
        assert!(m.certify(&meta(1), cts(10)));
        m.commit(TxnId(1));
    }
}
