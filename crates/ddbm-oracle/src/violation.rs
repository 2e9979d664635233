//! Violation reporting: what the checkers found and where.

use ddbm_config::{NodeId, PageId, TxnId};
use denet::SimTime;
use std::fmt;

/// The class of protocol invariant a witnessed event broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// An illegal coordinator phase transition (e.g. Committed without
    /// Committing, commit after a failed certification).
    PhaseOrder,
    /// A CC-level event (access or grant) for a transaction in a phase that
    /// cannot produce one (a grant after the commit point, an access after
    /// all cohorts reported done).
    GrantOutsidePhase,
    /// A commit-release while the coordinator had not committed, or an
    /// abort-release while the run was not aborting. This is the strictness
    /// / two-phase-rule check: early lock release shows up here.
    ReleaseOutsidePhase,
    /// A lock was granted while a conflicting lock was held by another
    /// transaction.
    ConflictingGrant,
    /// Lock activity for a transaction after its locks on that node were
    /// already released for the same run.
    GrantAfterRelease,
    /// A queued request was granted out of FIFO order under a strict-FIFO
    /// (non-barging) lock table, or granted without ever being queued.
    NonFifoGrant,
    /// A wound that the algorithm's priority rule does not sanction
    /// (wound-wait requester not older than its victim, or a wound under an
    /// algorithm that never wounds).
    WoundPriority,
    /// A 2PL deadlock victim (requester or bystander) that does not lie on
    /// any waits-for cycle — the detector shot a transaction that was not
    /// deadlocked.
    VictimNotOnCycle,
    /// A rejection the algorithm's rules do not sanction (wait-die death
    /// with no older conflicting transaction, a rejection under wound-wait,
    /// a blocked wait-die requester that should have died).
    WaitDiePriority,
    /// A rejection under an algorithm that never rejects in that position.
    UnsanctionedReject,
    /// Any divergence between a witnessed BTO decision and the reference
    /// timestamp-order model (wrong reply, write blocked, read granted past
    /// a pending older write, wake-up mismatch).
    TimestampOrder,
    /// A blocked or rejected access under an algorithm that must grant
    /// every request at access time (OPT, NO_DC).
    UnsanctionedContention,
    /// The committed history's serialization graph, under the algorithm's
    /// version order, has a cycle.
    NotSerializable,
    /// Replication: a committed write was installed at fewer replicas than
    /// the replica control requires (ROWA: every replica; quorum: `w`),
    /// leaving a stale copy that later reads may observe.
    UnderReplicatedWrite,
    /// A run read one copy of a page twice, or installed one copy twice.
    /// The serialization graph sees one read and one install per run and
    /// page, so it cannot check a repeat; a quorum read's fan-out touches
    /// distinct copies and is not one.
    RepeatedCopyAccess,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::PhaseOrder => "phase-order",
            ViolationKind::GrantOutsidePhase => "grant-outside-phase",
            ViolationKind::ReleaseOutsidePhase => "release-outside-phase",
            ViolationKind::ConflictingGrant => "conflicting-grant",
            ViolationKind::GrantAfterRelease => "grant-after-release",
            ViolationKind::NonFifoGrant => "non-fifo-grant",
            ViolationKind::WoundPriority => "wound-priority",
            ViolationKind::VictimNotOnCycle => "victim-not-on-cycle",
            ViolationKind::WaitDiePriority => "wait-die-priority",
            ViolationKind::UnsanctionedReject => "unsanctioned-reject",
            ViolationKind::TimestampOrder => "timestamp-order",
            ViolationKind::UnsanctionedContention => "unsanctioned-contention",
            ViolationKind::NotSerializable => "not-serializable",
            ViolationKind::UnderReplicatedWrite => "under-replicated-write",
            ViolationKind::RepeatedCopyAccess => "repeated-copy-access",
        };
        f.write_str(s)
    }
}

/// One invariant violation: the kind, where in the stream it was observed,
/// and a human-readable account of what the checker expected.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// What rule was broken.
    pub kind: ViolationKind,
    /// Simulated instant of the offending event (ZERO for end-of-stream
    /// checks such as serializability).
    pub at: SimTime,
    /// The transaction at fault, when one is identifiable.
    pub txn: Option<TxnId>,
    /// The node whose manager produced the event, when node-local.
    pub node: Option<NodeId>,
    /// The page involved, when page-local.
    pub page: Option<PageId>,
    /// What happened vs. what the reference model expected.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] t={}ns", self.kind, self.at.0)?;
        if let Some(t) = self.txn {
            write!(f, " txn={}", t.0)?;
        }
        if let Some(n) = self.node {
            write!(f, " node={}", n.0)?;
        }
        if let Some(p) = self.page {
            write!(f, " page={}/{}", p.file.0, p.page)?;
        }
        write!(f, ": {}", self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact_and_complete() {
        let v = Violation {
            kind: ViolationKind::ConflictingGrant,
            at: SimTime(42),
            txn: Some(TxnId(7)),
            node: Some(NodeId(3)),
            page: None,
            detail: "write granted over a write holder".into(),
        };
        let s = v.to_string();
        assert!(s.contains("conflicting-grant"));
        assert!(s.contains("txn=7"));
        assert!(s.contains("node=3"));
        assert!(s.contains("write holder"));
    }
}
