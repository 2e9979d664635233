//! Types shared by all concurrency control managers.

use ddbm_config::{PageId, TxnId};
use denet::FxHashMap;
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

/// Per-transaction lists (pages locked, pending writes, recorded reads, ...)
/// with recycled buffers. Every commit and abort drops its transaction's
/// lists, so reusing their buffers keeps the request path off the
/// allocator.
#[derive(Debug)]
pub(crate) struct TxnLists<T> {
    lists: FxHashMap<TxnId, Vec<T>>,
    /// Emptied buffers, capacity retained.
    spare: Vec<Vec<T>>,
    /// Capacity floor: the most items one transaction lists here (set from
    /// [`CcManager::preallocate`](crate::manager::CcManager::preallocate)).
    /// Growing each new list to it, instead of letting recycled buffers
    /// creep up by doubling, makes the steady state allocation-free.
    capacity: usize,
}

impl<T> Default for TxnLists<T> {
    fn default() -> Self {
        TxnLists {
            lists: FxHashMap::default(),
            spare: Vec::new(),
            capacity: 0,
        }
    }
}

impl<T> TxnLists<T> {
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
    }

    /// Append `item` to `txn`'s list, starting one from a spare buffer.
    pub(crate) fn push(&mut self, txn: TxnId, item: T) {
        let (spare, capacity) = (&mut self.spare, self.capacity);
        let out = self.lists.len() + 1;
        self.lists
            .entry(txn)
            .or_insert_with(|| {
                let mut list = spare.pop().unwrap_or_else(|| {
                    // A new buffer: make room for every buffer out to come
                    // back without regrowing the stock.
                    spare.reserve(out);
                    Vec::new()
                });
                list.reserve(capacity);
                list
            })
            .push(item);
    }

    /// `txn`'s list in insertion order (empty if it has none).
    pub(crate) fn get(&self, txn: TxnId) -> &[T] {
        self.lists.get(&txn).map_or(&[], Vec::as_slice)
    }

    pub(crate) fn contains(&self, txn: TxnId) -> bool {
        self.lists.contains_key(&txn)
    }

    /// Transactions with a non-empty list.
    pub(crate) fn len(&self) -> usize {
        self.lists.len()
    }

    /// Drop `txn`'s list, keeping its buffer.
    pub(crate) fn remove(&mut self, txn: TxnId) {
        if let Some(mut list) = self.lists.remove(&txn) {
            list.clear();
            self.spare.push(list);
        }
    }

    /// Delete every `item` from `txn`'s list, dropping the list once empty.
    pub(crate) fn remove_item(&mut self, txn: TxnId, item: &T)
    where
        T: PartialEq,
    {
        if let Some(list) = self.lists.get_mut(&txn) {
            list.retain(|x| x != item);
            if list.is_empty() {
                self.remove(txn);
            }
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

    #[test]
    fn txn_lists_keep_insertion_order() {
        let mut l: TxnLists<u32> = TxnLists::default();
        for x in [5, 1, 9, 1] {
            l.push(TxnId(1), x);
        }
        l.push(TxnId(2), 0);
        assert_eq!(l.get(TxnId(1)), &[5, 1, 9, 1]);
        assert_eq!(l.get(TxnId(3)), &[] as &[u32]);
        l.remove_item(TxnId(1), &1);
        assert_eq!(l.get(TxnId(1)), &[5, 9]);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn txn_lists_recycle_the_buffer_of_an_emptied_list() {
        let mut l: TxnLists<u32> = TxnLists::default();
        l.set_capacity(8);
        l.push(TxnId(1), 4);
        let buffer = l.get(TxnId(1)).as_ptr();
        l.remove_item(TxnId(1), &4);
        assert!(!l.contains(TxnId(1)));
        assert_eq!(l.spare.len(), 1);
        assert!(l.spare[0].is_empty() && l.spare[0].capacity() >= 8);
        // The next new list reuses it.
        l.push(TxnId(2), 6);
        assert!(l.spare.is_empty());
        assert_eq!(l.get(TxnId(2)).as_ptr(), buffer);
    }
}
