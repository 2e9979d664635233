//! Types shared by all concurrency control managers.

use ddbm_config::{PageId, TxnId};
use denet::{FxHashMap, List, Lists};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A transaction timestamp: an instant (nanoseconds of simulated time) with
/// the transaction id as a tie-breaker, giving a total order. "Older" means
/// smaller.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Ts {
    /// Time.
    pub time: u64,
    /// Txn.
    pub txn: u64,
}

impl Ts {
    /// The zero value.
    pub const ZERO: Ts = Ts { time: 0, txn: 0 };

    /// Create a new instance.
    pub fn new(time: u64, txn: TxnId) -> Ts {
        Ts { time, txn: txn.0 }
    }

    /// True if `self` is older (started earlier) than `other`.
    #[inline]
    pub fn older_than(self, other: Ts) -> bool {
        self < other
    }
}

impl fmt::Display for Ts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns/T{}", self.time, self.txn)
    }
}

/// Per-transaction facts every CC manager may need when handling a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnMeta {
    /// Id.
    pub id: TxnId,
    /// Timestamp of the transaction's *first* startup; stable across
    /// restarts. Used by WW wounds and 2PL victim selection (paper §2.2–2.3).
    pub initial_ts: Ts,
    /// Timestamp of the current run; refreshed on restart. Used by BTO,
    /// which would otherwise re-abort a restarted transaction forever.
    pub run_ts: Ts,
}

/// How the CC manager answered an access request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessReply {
    /// Access granted; the cohort may proceed with I/O and processing.
    #[default]
    Granted,
    /// The cohort must wait; a later `granted`/`rejected` entry in a
    /// [`ReleaseResponse`] resolves it.
    Blocked,
    /// The requesting transaction must abort (e.g. a BTO out-of-order
    /// access, or the requester chosen as a local deadlock victim).
    Rejected,
}

/// Full response to an access request: the reply to the requester plus any
/// side effects on *other* transactions (wounds, deadlock victims, and —
/// when a rejected request is withdrawn from a queue — fresh grants).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessResponse {
    /// Reply.
    pub reply: AccessReply,
    /// Side effects.
    pub side_effects: ReleaseResponse,
}

impl AccessResponse {
    /// `granted`.
    pub fn granted() -> AccessResponse {
        AccessResponse {
            reply: AccessReply::Granted,
            side_effects: ReleaseResponse::default(),
        }
    }

    /// `blocked`.
    pub fn blocked() -> AccessResponse {
        AccessResponse {
            reply: AccessReply::Blocked,
            side_effects: ReleaseResponse::default(),
        }
    }

    /// `rejected`.
    pub fn rejected() -> AccessResponse {
        AccessResponse {
            reply: AccessReply::Rejected,
            side_effects: ReleaseResponse::default(),
        }
    }

    /// Transactions that must abort as a consequence of this request:
    /// wound-wait wounds (subject to the coordinator's phase-2 immunity
    /// check) or deadlock victims (unconditional).
    pub fn must_abort(&self) -> &[TxnId] {
        &self.side_effects.must_abort
    }
}

/// State changes caused by a commit, abort, or other lock release: requests
/// that are now granted, blocked requests that must now abort, and fresh
/// wounds produced by re-evaluating waiters against new holders.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReleaseResponse {
    /// Granted.
    pub granted: Vec<(TxnId, PageId)>,
    /// Rejected.
    pub rejected: Vec<(TxnId, PageId)>,
    /// Must abort.
    pub must_abort: Vec<TxnId>,
}

impl ReleaseResponse {
    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.granted.is_empty() && self.rejected.is_empty() && self.must_abort.is_empty()
    }

    /// `merge`.
    pub fn merge(&mut self, other: ReleaseResponse) {
        self.granted.extend(other.granted);
        self.rejected.extend(other.rejected);
        self.must_abort.extend(other.must_abort);
    }
}

/// A lock mode. Reads share; writes exclude.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LockMode {
    /// The `Read` variant.
    Read,
    /// The `Write` variant.
    Write,
}

impl LockMode {
    /// Can a lock in `self` mode coexist with one in `other` mode
    /// (held by a different transaction)?
    #[inline]
    pub fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Read, LockMode::Read))
    }
}

/// Append `item` to `txn`'s list in `lists`, whose items live in `items`:
/// the per-transaction lists of a manager (pages locked, pending writes,
/// recorded accesses) are one map of lists over one arena.
pub(crate) fn push_item<T: Copy>(
    lists: &mut FxHashMap<TxnId, List>,
    items: &mut Lists<T>,
    txn: TxnId,
    item: T,
) {
    items.push(lists.entry(txn).or_default(), item);
}

/// Delete every `item` from `txn`'s list in `lists`, dropping the list
/// once empty.
pub(crate) fn remove_item<T: Copy + PartialEq>(
    lists: &mut FxHashMap<TxnId, List>,
    items: &mut Lists<T>,
    txn: TxnId,
    item: T,
) {
    if let Some(list) = lists.get_mut(&txn) {
        items.retain(list, |&x| x != item);
        if list.is_empty() {
            lists.remove(&txn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ts_total_order_with_tiebreak() {
        let a = Ts::new(5, TxnId(1));
        let b = Ts::new(5, TxnId(2));
        let c = Ts::new(6, TxnId(0));
        assert!(a.older_than(b));
        assert!(b.older_than(c));
        assert!(a.older_than(c));
        assert!(!a.older_than(a));
    }

    #[test]
    fn lock_compatibility_matrix() {
        use LockMode::*;
        assert!(Read.compatible(Read));
        assert!(!Read.compatible(Write));
        assert!(!Write.compatible(Read));
        assert!(!Write.compatible(Write));
    }

    #[test]
    fn release_response_merge() {
        let mut a = ReleaseResponse::default();
        assert!(a.is_empty());
        let p = PageId {
            file: ddbm_config::FileId(0),
            page: 1,
        };
        a.merge(ReleaseResponse {
            granted: vec![(TxnId(1), p)],
            rejected: vec![],
            must_abort: vec![TxnId(2)],
        });
        assert_eq!(a.granted.len(), 1);
        assert_eq!(a.must_abort, vec![TxnId(2)]);
        assert!(!a.is_empty());
    }
}
