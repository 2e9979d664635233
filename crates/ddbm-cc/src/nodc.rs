//! The NO_DC baseline (paper §4.2): concurrency control with an "infinitely
//! large database". Every request is granted immediately and no conflict is
//! ever detected, so the curves it produces show performance in the absence
//! of data contention. All resource costs (CPU, disks, messages, commit
//! protocol) are still paid in full.

use crate::common::{AccessResponse, ReleaseResponse, Ts, TxnMeta};
use crate::manager::CcManager;
use ddbm_config::{Algorithm, PageId, TxnId};

/// See module docs.
#[derive(Debug, Default)]
pub struct NoDataContention;

impl NoDataContention {
    /// Create a new instance.
    pub fn new() -> NoDataContention {
        NoDataContention
    }
}

impl CcManager for NoDataContention {
    fn request_access(&mut self, _txn: &TxnMeta, _page: PageId, _write: bool) -> AccessResponse {
        AccessResponse::granted()
    }

    fn certify(&mut self, _txn: &TxnMeta, _commit_ts: Ts) -> bool {
        true
    }

    fn commit(&mut self, _txn: TxnId) -> ReleaseResponse {
        ReleaseResponse::default()
    }

    fn abort(&mut self, _txn: TxnId) -> ReleaseResponse {
        ReleaseResponse::default()
    }

    fn algorithm(&self) -> Algorithm {
        Algorithm::NoDataContention
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::AccessReply;
    use ddbm_config::FileId;

    fn meta(id: u64) -> TxnMeta {
        TxnMeta {
            id: TxnId(id),
            initial_ts: Ts::new(id, TxnId(id)),
            run_ts: Ts::new(id, TxnId(id)),
        }
    }

    #[test]
    fn everything_is_granted() {
        let mut m = NoDataContention::new();
        let p = PageId {
            file: FileId(1),
            page: 7,
        };
        for i in 0..10 {
            let r = m.request_access(&meta(i), p, i % 2 == 0);
            assert_eq!(r.reply, AccessReply::Granted);
            assert!(r.must_abort().is_empty());
        }
        assert!(m.certify(&meta(0), Ts::new(100, TxnId(0))));
        assert!(m.commit(TxnId(0)).is_empty());
        assert!(m.abort(TxnId(1)).is_empty());
        let mut edges = Vec::new();
        m.waits_for_edges_into(&mut edges);
        assert!(edges.is_empty());
    }
}
