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

use crate::common::{push_item, AccessResponse, ReleaseResponse, Ts, TxnMeta};
use crate::manager::CcManager;
use ddbm_config::{PageId, PageTable, TxnId};
use denet::{FxHashMap, List, Lists};

#[derive(Debug, Default, Clone, Copy)]
struct PageState {
    /// Largest commit timestamp of any committed read.
    rts: Ts,
    /// Commit timestamp of the current committed version.
    wts: Ts,
    /// Locally certified, uncommitted reads: (txn, commit ts).
    reads: List,
    /// Locally certified, uncommitted writes: (txn, commit ts).
    writes: List,
}

/// A recorded access: the page, the version read (for a read), and
/// whether it writes.
#[derive(Debug, Clone, Copy)]
struct Access {
    page: PageId,
    version: Ts,
    write: bool,
}

/// See module docs.
#[derive(Debug, Default)]
pub struct OptimisticCertification {
    /// Per-page state. `rts`/`wts` stay once a page is touched; its
    /// certified lists are empty while no certified access is pending.
    pages: PageTable<PageState>,
    /// Every page's certified accesses.
    certs: Lists<(TxnId, Ts)>,
    /// The recorded accesses of each transaction, in request order.
    txn_accesses: FxHashMap<TxnId, List>,
    /// The items of `txn_accesses`.
    accesses: Lists<Access>,
    /// Commit timestamps of locally certified transactions.
    certified: FxHashMap<TxnId, Ts>,
    /// The most accesses one transaction makes here (see `preallocate`).
    max_txn_accesses: usize,
}

impl OptimisticCertification {
    /// Create a new instance.
    pub fn new() -> OptimisticCertification {
        OptimisticCertification::default()
    }

    /// Withdraw `txn`'s registrations; with a `commit_ts`, install its
    /// reads (`rts`) and writes (`wts`, under the Thomas write rule) first.
    fn finish(&mut self, txn: TxnId, commit_ts: Option<Ts>) {
        // Room for every transaction listed to record its bound of
        // accesses, and for every certified one to register them.
        let m = self.max_txn_accesses;
        self.accesses.reserve_links(self.txn_accesses.len() * m);
        self.certs.reserve_links(self.certified.len() * m);
        let Some(mut list) = self.txn_accesses.remove(&txn) else {
            return;
        };
        for access in self.accesses.iter(list) {
            let Some(state) = self.pages.get_mut(access.page) else {
                continue;
            };
            let (certs, mark) = if access.write {
                (&mut state.writes, &mut state.wts)
            } else {
                (&mut state.reads, &mut state.rts)
            };
            self.certs.retain(certs, |&(t, _)| t != txn);
            if let Some(ts) = commit_ts {
                *mark = (*mark).max(ts);
            }
        }
        self.accesses.clear(&mut list);
    }
}

impl CcManager for OptimisticCertification {
    fn request_access(&mut self, txn: &TxnMeta, page: PageId, write: bool) -> AccessResponse {
        // "A concurrency control request ... is always granted in the case
        // of the OPT algorithm" (paper §3.3).
        let version = self.pages.entry(page).wts;
        let access = Access {
            page,
            version,
            write,
        };
        push_item(&mut self.txn_accesses, &mut self.accesses, txn.id, access);
        AccessResponse::granted()
    }

    fn preallocate(&mut self, _num_pages: usize, max_txn_accesses: usize) {
        self.max_txn_accesses = max_txn_accesses;
    }

    fn certify(&mut self, txn: &TxnMeta, commit_ts: Ts) -> bool {
        let list = self.txn_accesses.get(&txn.id).copied().unwrap_or_default();
        let others = |&(t, _): &(TxnId, Ts)| t != txn.id;
        let ok = self.accesses.iter(list).all(|a| {
            let state = self.pages.get(a.page).copied().unwrap_or_default();
            if a.write {
                // No later read may have committed or be locally
                // certified.
                state.rts <= commit_ts
                    && !self
                        .certs
                        .iter(state.reads)
                        .any(|c| others(&c) && c.1 > commit_ts)
            } else {
                // The version read must still be current, with no
                // certified (necessarily newer) write pending on it.
                state.wts == a.version && !self.certs.iter(state.writes).any(|c| others(&c))
            }
        });
        if !ok {
            return false;
        }
        // Register the certified accesses; they hold until phase 2.
        for a in self.accesses.iter(list) {
            let state = self.pages.entry(a.page);
            let certs = if a.write {
                &mut state.writes
            } else {
                &mut state.reads
            };
            self.certs.push(certs, (txn.id, commit_ts));
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

    /// True when no page has a certified access pending.
    fn idle(m: &OptimisticCertification) -> bool {
        m.pages
            .iter()
            .all(|(_, s)| s.reads.is_empty() && s.writes.is_empty())
    }

    #[test]
    fn idle_pages_free_every_link() {
        let mut m = OptimisticCertification::new();
        m.request_access(&meta(1), page(1), false);
        m.request_access(&meta(1), page(1), true);
        m.request_access(&meta(2), page(2), true);
        // Recorded but uncertified accesses hold no page lists.
        assert!(idle(&m));
        assert!(m.certify(&meta(1), cts(10)));
        assert!(m.certify(&meta(2), cts(20)));
        assert_eq!(m.certs.listed(), 3);
        m.commit(TxnId(1));
        let state = m.pages.get(page(1)).unwrap();
        assert!(state.reads.is_empty() && state.writes.is_empty());
        assert_eq!((state.rts, state.wts), (cts(10), cts(10)));
        // Page 3's first certified access reuses a freed link.
        m.request_access(&meta(3), page(3), false);
        assert!(m.certify(&meta(3), cts(30)));
        assert_eq!((m.certs.listed(), m.certs.capacity()), (2, 3));
        m.abort(TxnId(2));
        m.abort(TxnId(3));
        // No busy page is left, and every link is free for the next.
        assert!(idle(&m));
        assert_eq!((m.certs.listed(), m.accesses.listed()), (0, 0));
        assert!(m.txn_accesses.is_empty() && m.certified.is_empty());
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
