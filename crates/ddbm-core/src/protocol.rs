//! Messages, resource-job tags, and calendar events of the simulator.
//!
//! Every message costs `InstPerMsg` CPU instructions at the sender *and* the
//! receiver (served at priority, FIFO — paper §3.4/§3.5); wire time is zero.
//! Because each node's message work is a FIFO queue, messages between any
//! pair of nodes are delivered in send order, which the commit and abort
//! protocols rely on.

use crate::workload::TxnTemplate;
use ddbm_cc::Ts;
use ddbm_config::{NodeId, PageId, TxnId};
use std::rc::Rc;

/// Identifies one run (execution attempt) of a transaction; bumped on every
/// restart so that in-flight events of a dead run can be recognized as stale.
pub type RunId = u32;

/// Index of a cohort within its transaction's template.
pub type CohortIdx = usize;

/// Why a run was aborted. Carried on [`MsgKind::AbortRequest`] and recorded
/// per cause by the metrics collector, so experiment reports can separate
/// data-contention aborts (deadlock, wound, timestamp, validation,
/// lock-timeout) from fault-induced ones (node crash, commit-protocol
/// timeout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// 2PL: a deadlock victim, chosen by a node's local detection or by the
    /// Snoop global deadlock detector.
    Deadlock,
    /// Wound-wait: wounded by an older transaction.
    Wound,
    /// BTO too-late access, or a wait-die "die".
    Timestamp,
    /// OPT: failed commit-time certification.
    Validation,
    /// 2PL-T: lock wait exceeded `lock_timeout`.
    LockTimeout,
    /// Fault injection: a node crash took down an in-flight cohort.
    NodeCrash,
    /// Fault injection: the coordinator's presumed-abort response timeout
    /// expired during the vote phase.
    CohortTimeout,
    /// Replication: too few live replicas to form the required read/write
    /// set (ROWA with every replica down, or a broken quorum).
    ReplicaUnavailable,
}

impl AbortCause {
    /// Every cause, in a fixed order (for per-cause breakdown tables).
    pub const ALL: [AbortCause; 8] = [
        AbortCause::Deadlock,
        AbortCause::Wound,
        AbortCause::Timestamp,
        AbortCause::Validation,
        AbortCause::LockTimeout,
        AbortCause::NodeCrash,
        AbortCause::CohortTimeout,
        AbortCause::ReplicaUnavailable,
    ];

    /// A short static label for reports and traces.
    pub fn label(self) -> &'static str {
        match self {
            AbortCause::Deadlock => "deadlock",
            AbortCause::Wound => "wound",
            AbortCause::Timestamp => "timestamp",
            AbortCause::Validation => "validation",
            AbortCause::LockTimeout => "lock_timeout",
            AbortCause::NodeCrash => "node_crash",
            AbortCause::CohortTimeout => "cohort_timeout",
            AbortCause::ReplicaUnavailable => "replica_unavailable",
        }
    }

    /// The position of this cause in [`AbortCause::ALL`].
    pub fn index(self) -> usize {
        match self {
            AbortCause::Deadlock => 0,
            AbortCause::Wound => 1,
            AbortCause::Timestamp => 2,
            AbortCause::Validation => 3,
            AbortCause::LockTimeout => 4,
            AbortCause::NodeCrash => 5,
            AbortCause::CohortTimeout => 6,
            AbortCause::ReplicaUnavailable => 7,
        }
    }
}

/// A message travelling between nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The payload.
    pub kind: MsgKind,
}

/// The protocol messages of the model.
#[derive(Debug, Clone, PartialEq, Eq)]
// Field names in this protocol are uniform (`txn`, `run`, `cohort`, …)
// and documented once on the multi-line variants above; the single-line
// variants reuse them.
#[allow(missing_docs)]
pub enum MsgKind {
    /// Coordinator → node: initiate a cohort (costs `InstPerStartup` CPU at
    /// the node before the cohort begins work).
    LoadCohort {
        /// The transaction.
        txn: TxnId,
        /// The run (execution attempt) this belongs to.
        run: RunId,
        /// Index of the cohort within the transaction.
        cohort: CohortIdx,
    },
    /// Cohort → coordinator: all accesses complete.
    CohortDone {
        /// The transaction.
        txn: TxnId,
        /// The run (execution attempt) this belongs to.
        run: RunId,
        /// Index of the cohort within the transaction.
        cohort: CohortIdx,
    },
    /// Coordinator → cohort: phase 1 of commit. Carries the commit
    /// timestamp used by OPT certification.
    Prepare {
        /// The transaction.
        txn: TxnId,
        /// The run (execution attempt) this belongs to.
        run: RunId,
        /// Index of the cohort within the transaction.
        cohort: CohortIdx,
        /// The globally unique commit timestamp (used by OPT).
        commit_ts: Ts,
    },
    /// Cohort → coordinator: phase-1 vote.
    Vote {
        /// The transaction.
        txn: TxnId,
        /// The run (execution attempt) this belongs to.
        run: RunId,
        /// Index of the cohort within the transaction.
        cohort: CohortIdx,
        /// True for a "ready to commit" vote.
        yes: bool,
    },
    /// Coordinator → cohort: phase-2 decision.
    Decision {
        /// The transaction.
        txn: TxnId,
        /// The run (execution attempt) this belongs to.
        run: RunId,
        /// Index of the cohort within the transaction.
        cohort: CohortIdx,
        /// True to commit, false to abort.
        commit: bool,
    },
    /// Cohort → coordinator: phase-2 acknowledgement.
    Ack {
        /// The transaction.
        txn: TxnId,
        /// The run (execution attempt) this belongs to.
        run: RunId,
        /// Index of the cohort within the transaction.
        cohort: CohortIdx,
    },
    /// A node → coordinator: this transaction must abort (a wound, a
    /// deadlock victim, or a cohort whose access was rejected). The
    /// coordinator applies the fatality rules (wound-wait phase-2 immunity,
    /// already-aborting dedup).
    AbortRequest {
        /// The transaction.
        txn: TxnId,
        /// The run (execution attempt) this belongs to.
        run: RunId,
        /// Why the abort was requested (recorded if it takes effect).
        cause: AbortCause,
    },
    /// Coordinator → node: kill this run's cohort and release its CC state.
    AbortCohort {
        /// The transaction.
        txn: TxnId,
        /// The run (execution attempt) this belongs to.
        run: RunId,
        /// Index of the cohort within the transaction.
        cohort: CohortIdx,
    },
    /// Cohort → coordinator: cohort dismantled.
    AbortAck {
        /// The transaction.
        txn: TxnId,
        /// The run (execution attempt) this belongs to.
        run: RunId,
        /// Index of the cohort within the transaction.
        cohort: CohortIdx,
    },
    /// Snoop → node: send me your waits-for edges.
    SnoopRequest { round: u64 },
    /// Node → snoop: local waits-for edges.
    SnoopReply {
        /// The Snoop round this belongs to.
        round: u64,
        /// Local waits-for edges at the replying node.
        edges: Vec<(TxnId, TxnId)>,
    },
    /// Snoop → next node: the Snoop role is yours now.
    SnoopPass,
}

impl MsgKind {
    /// A short static label for trace output.
    pub fn tag(&self) -> &'static str {
        match self {
            MsgKind::LoadCohort { .. } => "LoadCohort",
            MsgKind::CohortDone { .. } => "CohortDone",
            MsgKind::Prepare { .. } => "Prepare",
            MsgKind::Vote { .. } => "Vote",
            MsgKind::Decision { .. } => "Decision",
            MsgKind::Ack { .. } => "Ack",
            MsgKind::AbortRequest { .. } => "AbortRequest",
            MsgKind::AbortCohort { .. } => "AbortCohort",
            MsgKind::AbortAck { .. } => "AbortAck",
            MsgKind::SnoopRequest { .. } => "SnoopRequest",
            MsgKind::SnoopReply { .. } => "SnoopReply",
            MsgKind::SnoopPass => "SnoopPass",
        }
    }
}

/// Tags for CPU jobs. Message-class jobs are `MsgSend`/`MsgRecv`; everything
/// else runs in the processor-sharing class.
#[derive(Debug, Clone, PartialEq, Eq)]
// Field names in this protocol are uniform (`txn`, `run`, `cohort`, …)
// and documented once on the multi-line variants above; the single-line
// variants reuse them.
#[allow(missing_docs)]
pub enum CpuJob {
    /// Coordinator process initiation at the host.
    CoordStartup { txn: TxnId, run: RunId },
    /// Cohort process initiation at a processing node.
    CohortStartup {
        /// The transaction.
        txn: TxnId,
        /// The run (execution attempt) this belongs to.
        run: RunId,
        /// Index of the cohort within the transaction.
        cohort: CohortIdx,
    },
    /// Concurrency-control request processing (`InstPerCCReq`).
    CcRequest {
        /// The transaction.
        txn: TxnId,
        /// The run (execution attempt) this belongs to.
        run: RunId,
        /// Index of the cohort within the transaction.
        cohort: CohortIdx,
        /// Index of the access within the cohort script.
        access: usize,
    },
    /// Page processing after a granted access (mean `InstPerPage`, exp.).
    PageProcess {
        /// The transaction.
        txn: TxnId,
        /// The run (execution attempt) this belongs to.
        run: RunId,
        /// Index of the cohort within the transaction.
        cohort: CohortIdx,
        /// Index of the access within the cohort script.
        access: usize,
    },
    /// Initiation of one asynchronous post-commit page write
    /// (`InstPerUpdate`): access `next` of the plan's cohort `cohort`, a
    /// write, is written and the cohort's later writes chain behind it, one
    /// initiation at a time. The chain walks the committed plan itself, so
    /// it copies no page list; it holds the plan until its last initiation.
    UpdateInit {
        txn: TxnId,
        /// The committed plan (the one its cohorts ran).
        plan: Rc<TxnTemplate>,
        /// Whether `plan` is a replica-routed plan (see
        /// `TxnRuntime::routed`), so the chain's end pools it right.
        routed: bool,
        cohort: CohortIdx,
        next: usize,
    },
    /// Protocol processing to send a message; on completion the message is
    /// handed to the network.
    MsgSend(Message),
    /// Protocol processing on receipt; on completion the message is acted on.
    MsgRecv(Message),
}

/// Tags for disk requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// Field names in this protocol are uniform (`txn`, `run`, `cohort`, …)
// and documented once on the multi-line variants above; the single-line
// variants reuse them.
#[allow(missing_docs)]
pub enum DiskJob {
    /// Synchronous page read by a cohort access.
    Read {
        /// The transaction.
        txn: TxnId,
        /// The run (execution attempt) this belongs to.
        run: RunId,
        /// Index of the cohort within the transaction.
        cohort: CohortIdx,
        /// Index of the access within the cohort script.
        access: usize,
        /// The page concerned.
        page: PageId,
    },
    /// Asynchronous post-commit page write-back (fire and forget).
    WriteBack { txn: TxnId },
}

/// Calendar events of the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
// Field names in this protocol are uniform (`txn`, `run`, `cohort`, …)
// and documented once on the multi-line variants above; the single-line
// variants reuse them.
#[allow(missing_docs)]
pub enum Event {
    /// A terminal finished thinking and submits a new transaction.
    TerminalSubmit { terminal: usize },
    /// The restart delay of an aborted transaction expired.
    Restart { txn: TxnId },
    /// The current Snoop node's detection interval expired.
    SnoopWake { node: NodeId, round: u64 },
    /// Extension: a 2PL-T lock wait hit `SystemParams::lock_timeout`.
    LockTimeout {
        /// The transaction.
        txn: TxnId,
        /// The run (execution attempt) this belongs to.
        run: RunId,
        /// Index of the cohort within the transaction.
        cohort: CohortIdx,
        /// Index of the access within the cohort script.
        access: usize,
    },
    /// Fault injection: a planned node crash begins (the node loses its CPU
    /// and disk queues, CC state, and buffer pool; the coordinator sweeps
    /// its in-flight cohorts).
    NodeDown { node: NodeId },
    /// Fault injection: a crashed node finishes its recovery delay and its
    /// partitions are re-admitted.
    NodeUp { node: NodeId },
    /// Fault injection: a planned disk-stall interval begins on `node`
    /// (completions are withheld until `until`).
    DiskStall { node: NodeId, until: denet::SimTime },
    /// Fault injection: the coordinator's commit-protocol response timeout
    /// for this run expired — presume abort in the vote phase, retransmit
    /// the decision in the decision phases.
    CohortTimeout { txn: TxnId, run: RunId },
    /// Fault injection: a delayed, dropped-and-retransmitted, or
    /// addressed-to-a-down-node message (re)arrives at the network layer.
    MsgArrive { msg: Message },
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The calendar's heap stores events inline and moves them on every
    /// sift, so every word here is copied on each push and pop. A parked
    /// message rides `MsgArrive` by value, which sets the size: the variant
    /// is a `Message`, and `Event`'s tag fits in bit patterns a `Message`
    /// never takes. The size costs little because the heap carries little:
    /// a commit takes 1.09 to 2.03 heap pops against 108 to 298 resource
    /// slot pops in the perfbench workloads (see `denet::calendar`), and
    /// resource completions carry no event at all. If this assertion
    /// fires, a variant grew past a `Message`: shrink it, or accept the
    /// cost and update the expected size.
    #[test]
    fn event_is_one_message_wide() {
        assert_eq!(std::mem::size_of::<Message>(), 56);
        assert_eq!(std::mem::size_of::<Event>(), 56);
    }
}
