//! The concurrency control manager interface (paper §3.6).
//!
//! One manager instance runs per node and sequences access to the pages
//! stored there. The manager is purely a decision procedure: it never
//! consumes simulated time itself (the `InstPerCCReq` CPU cost and all
//! messaging are charged by the transaction manager), which lets the same
//! implementations be unit-tested without a simulator.

use crate::bto::BasicTimestampOrdering;
use crate::common::{AccessResponse, ReleaseResponse, Ts, TxnMeta};
use crate::locking::Locking;
use crate::nodc::NoDataContention;
use crate::opt::OptimisticCertification;
use ddbm_config::{Algorithm, PageId, TxnId};

/// A snapshot of one node's lock-table occupancy, for the trace's
/// lock-wait events. Counts transactions, not pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockStats {
    /// Transactions holding at least one lock on this node.
    pub held: usize,
    /// Transactions waiting for at least one lock on this node.
    pub waiting: usize,
}

/// A node-local concurrency control manager.
pub trait CcManager: Send {
    /// The cohort of `txn` wants to access `page`; `write` means the page
    /// will be updated (the lock managers treat this as a write-mode
    /// request, since in the workload model the update is applied while the
    /// page is processed).
    fn request_access(&mut self, txn: &TxnMeta, page: PageId, write: bool) -> AccessResponse;

    /// Pre-size per-transaction state for a node where no transaction
    /// makes more than `max_txn_accesses` accesses. The simulator passes
    /// the node's own bound: the copies of one relation stored at the node,
    /// replicas included, times `max_pages_per_file` (12 in 8-way
    /// declustering), not the whole-transaction
    /// `Config::max_txn_accesses`. Called once at node construction (and
    /// again on crash recovery, which rebuilds the manager). The managers
    /// keep room in their list arenas for that many items per transaction
    /// listed, so steady-state accesses stay off the allocator (see
    /// `tests/alloc_steady_state.rs`). Per-page state needs no pre-sizing:
    /// it grows on first touch, and a page's list links go back to the
    /// arena when the page goes idle.
    ///
    /// `num_pages` is unused. It stays only because the frozen benchmark
    /// harness (`perfbench`) calls this method with it.
    fn preallocate(&mut self, _num_pages: usize, _max_txn_accesses: usize) {}

    /// Commit-time certification for this node's cohort, called during
    /// phase 1 of the commit protocol with the transaction's globally
    /// unique commit timestamp. Only OPT can fail; the lock-based and
    /// timestamp-based managers always succeed.
    fn certify(&mut self, txn: &TxnMeta, commit_ts: Ts) -> bool;

    /// The transaction committed: install its updates, release its locks,
    /// and report any consequent grants/rejections/wounds.
    fn commit(&mut self, txn: TxnId) -> ReleaseResponse;

    /// The transaction aborted: discard its state and report consequences.
    fn abort(&mut self, txn: TxnId) -> ReleaseResponse;

    /// Append this node's waits-for edges to `out`, for the Snoop's global
    /// deadlock detection; a caller-owned buffer lets periodic detection
    /// rounds reuse one allocation. The locking managers walk their lock
    /// table; the default (non-locking) case appends nothing.
    fn waits_for_edges_into(&self, _out: &mut Vec<(TxnId, TxnId)>) {}

    /// A lock-occupancy snapshot for observability, or `None` for
    /// algorithms with no lock table. Read-only and O(1): called only when
    /// event tracing is enabled, and never affects scheduling decisions.
    fn lock_stats(&self) -> Option<LockStats> {
        None
    }
}

/// Construct the CC manager for `algorithm` (strict-FIFO lock grants).
pub fn make_manager(algorithm: Algorithm) -> Box<dyn CcManager> {
    make_manager_with(algorithm, false)
}

/// Construct the CC manager for `algorithm`; `lock_barging` switches the
/// 2PL and 2PL-T lock tables to barging grants (ablation; see
/// [`Locking::new`]). The other algorithms ignore it.
pub fn make_manager_with(algorithm: Algorithm, lock_barging: bool) -> Box<dyn CcManager> {
    match algorithm {
        Algorithm::TwoPhaseLocking
        | Algorithm::TwoPhaseLockingTimeout
        | Algorithm::WoundWait
        | Algorithm::WaitDie => Box::new(Locking::new(algorithm, lock_barging)),
        Algorithm::BasicTimestampOrdering => Box::new(BasicTimestampOrdering::new()),
        Algorithm::Optimistic => Box::new(OptimisticCertification::new()),
        Algorithm::NoDataContention => Box::new(NoDataContention::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::AccessReply::{self, Blocked, Granted, Rejected};
    use ddbm_config::FileId;

    fn page(n: u64) -> PageId {
        PageId {
            file: FileId(0),
            page: n,
        }
    }

    /// Transaction `id`, started at instant `id` (smaller = older).
    fn meta(id: u64) -> TxnMeta {
        let ts = Ts::new(id, TxnId(id));
        TxnMeta {
            id: TxnId(id),
            initial_ts: ts,
            run_ts: ts,
        }
    }

    /// The replies of four request sequences, each on a fresh manager:
    /// 1. a young reader holds a page an old writer then asks for (the
    ///    writer's reply, and whether it wounds anyone);
    /// 2. an old writer holds a page a young writer then asks for;
    /// 3. two writers close a deadlock (the second request's reply);
    /// 4. a reader commits at a later timestamp than a writer of the same
    ///    page then certifies at (the writer's certification).
    fn replies(algo: Algorithm) -> (AccessReply, bool, AccessReply, AccessReply, bool) {
        let (old, young) = (meta(3), meta(5));
        let mut m = make_manager(algo);
        m.request_access(&young, page(1), false);
        let wounding = m.request_access(&old, page(1), true);

        let mut m = make_manager(algo);
        m.request_access(&old, page(1), true);
        let dying = m.request_access(&young, page(1), true).reply;

        let mut m = make_manager(algo);
        m.request_access(&old, page(1), true);
        m.request_access(&young, page(2), true);
        m.request_access(&old, page(2), true);
        let closing = m.request_access(&young, page(1), true).reply;

        let mut m = make_manager(algo);
        m.request_access(&old, page(1), false);
        assert!(m.certify(&old, Ts::new(10, TxnId(0))));
        m.commit(old.id);
        m.request_access(&young, page(1), true);
        let certified = m.certify(&young, Ts::new(7, TxnId(0)));

        (
            wounding.reply,
            !wounding.must_abort().is_empty(),
            dying,
            closing,
            certified,
        )
    }

    #[test]
    fn factory_builds_matching_manager() {
        use Algorithm::*;
        let expected = [
            (TwoPhaseLocking, (Blocked, false, Blocked, Rejected, true)),
            (
                TwoPhaseLockingTimeout,
                (Blocked, false, Blocked, Blocked, true),
            ),
            (WoundWait, (Blocked, true, Blocked, Blocked, true)),
            (WaitDie, (Blocked, false, Rejected, Rejected, true)),
            (
                BasicTimestampOrdering,
                (Rejected, false, Granted, Granted, true),
            ),
            (Optimistic, (Granted, false, Granted, Granted, false)),
            (NoDataContention, (Granted, false, Granted, Granted, true)),
        ];
        assert_eq!(expected.len(), Algorithm::EXTENDED.len());
        for (algo, want) in expected {
            assert_eq!(replies(algo), want, "{algo}");
        }
        // The seven reply patterns differ, so no two algorithms can share
        // a manager.
        for (i, (_, a)) in expected.iter().enumerate() {
            assert!(expected[i + 1..].iter().all(|(_, b)| a != b));
        }
    }
}
