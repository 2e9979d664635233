//! The protocol witness stream: the raw material for the `ddbm-oracle`
//! invariant checkers.
//!
//! In a `run_oracle` or `run_witnessed` run the simulator's observer feeds
//! every externally observable concurrency-control decision — grants,
//! blocks, rejections, wounds, certifications, lock releases, write
//! installs, coordinator phase transitions, and node crashes — into the
//! [`WitnessSink`] that entry point installed: an [`EventLog`] that keeps
//! the first 2^22 events, or an online checker that consumes each event as
//! it is emitted. Phase transitions and commits reach the sink through the
//! same observer calls that feed the event trace and the phase statistics,
//! so each is emitted once. A checker runs the stream through an
//! independent model of the algorithm's rules (strictness and the
//! two-phase rule for the locking family, wound/wait priority for WW/WD,
//! timestamp order for BTO, backward validation for OPT) and reports any
//! event the protocol should not have produced.
//!
//! Like the rest of the observability subsystem, witness recording is
//! branch-only when off: the unobserved simulator takes no witness branch,
//! draws nothing extra from any RNG stream, and stays bit-identical to the
//! pre-witness simulator (the determinism golden enforces this).

use crate::protocol::RunId;
use crate::txn::TxnPhase;
use ddbm_cc::Ts;
use ddbm_config::{NodeId, PageId, TxnId};
use denet::{EventLog, SimTime};
use std::any::Any;

/// The CC manager's reply to an access request, as witnessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WitnessReply {
    /// Access granted immediately.
    Granted,
    /// Requester queued.
    Blocked,
    /// Requester must abort itself.
    Rejected,
}

/// One witnessed protocol event. Every variant carries enough context
/// (timestamps, node, page, phase) for a checker to replay the algorithm's
/// rules without access to simulator internals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessEvent {
    /// A fresh access request and the manager's immediate reply.
    Access {
        /// Requester.
        txn: TxnId,
        /// Requester's run.
        run: RunId,
        /// Node whose CC manager replied.
        node: NodeId,
        /// Page requested.
        page: PageId,
        /// Write access.
        write: bool,
        /// The reply.
        reply: WitnessReply,
        /// Requester's initial-startup timestamp (WW/WD priority).
        initial_ts: Ts,
        /// Requester's current-run timestamp (BTO order).
        run_ts: Ts,
    },
    /// A previously blocked request was granted (a release or install made
    /// it compatible).
    Grant {
        /// Grantee.
        txn: TxnId,
        /// Grantee's run.
        run: RunId,
        /// Node.
        node: NodeId,
        /// Page granted.
        page: PageId,
        /// Write access.
        write: bool,
        /// Grantee's initial-startup timestamp.
        initial_ts: Ts,
        /// Grantee's current-run timestamp.
        run_ts: Ts,
    },
    /// A previously blocked request was rejected while waiting (wait-die
    /// re-evaluation, BTO wake behind a newer install).
    Reject {
        /// Rejected waiter.
        txn: TxnId,
        /// Its run.
        run: RunId,
        /// Node.
        node: NodeId,
        /// Page it waited on.
        page: PageId,
    },
    /// A wound: the CC manager demanded an abort of `victim`.
    Wound {
        /// Wounded transaction.
        victim: TxnId,
        /// Victim's initial-startup timestamp at wound time.
        victim_initial_ts: Ts,
        /// The conflicting requester, when the wound arose directly from an
        /// access request; `None` for wounds re-evaluated at release time.
        requester: Option<TxnId>,
        /// Requester's initial-startup timestamp, when known.
        requester_initial_ts: Option<Ts>,
        /// Node.
        node: NodeId,
    },
    /// A commit-time certification (phase 1 of the commit protocol).
    Certify {
        /// Transaction being certified.
        txn: TxnId,
        /// Its run.
        run: RunId,
        /// Node.
        node: NodeId,
        /// The coordinator-assigned commit timestamp.
        commit_ts: Ts,
        /// The run timestamp (BTO order).
        run_ts: Ts,
        /// Whether certification succeeded.
        ok: bool,
    },
    /// A committed write install at a node (phase 2, before the release).
    Install {
        /// Writer.
        txn: TxnId,
        /// Writer's run.
        run: RunId,
        /// Node.
        node: NodeId,
        /// Page installed.
        page: PageId,
        /// Writer's run timestamp (BTO install order).
        run_ts: Ts,
        /// Writer's commit timestamp (OPT install order).
        commit_ts: Ts,
    },
    /// The node-local CC state of a transaction was released (locks freed,
    /// certified sets dropped) with the given outcome.
    Release {
        /// Transaction released.
        txn: TxnId,
        /// Its run.
        run: RunId,
        /// Node.
        node: NodeId,
        /// True for a commit release, false for an abort release.
        commit: bool,
    },
    /// The coordinator moved the run into a new phase.
    Phase {
        /// Transaction.
        txn: TxnId,
        /// Run.
        run: RunId,
        /// New phase.
        phase: TxnPhase,
    },
    /// The run committed durably (coordinator received every ack).
    Committed {
        /// Transaction.
        txn: TxnId,
        /// The committed run.
        run: RunId,
        /// Run timestamp of the committed run.
        run_ts: Ts,
        /// Commit timestamp.
        commit_ts: Ts,
    },
    /// A node crashed: its CC manager (and the checker's model of it) is
    /// rebuilt from scratch.
    NodeCrash {
        /// Crashed node.
        node: NodeId,
    },
}

/// A recorded witness stream: events in emission order with their instants.
pub type WitnessStream = Vec<(SimTime, WitnessEvent)>;

/// A consumer of the witness stream, fed each event as the simulator emits
/// it. An [`EventLog`] records the stream for later replay; an online
/// checker (the `ddbm-oracle` `Oracle`) consumes it without storing it.
///
/// `Any` lets a run driver hand the concrete sink back after the run.
pub trait WitnessSink: Any {
    /// Consume one event emitted at simulation time `at`.
    fn push(&mut self, at: SimTime, event: WitnessEvent);
}

impl WitnessSink for EventLog<WitnessEvent> {
    #[inline]
    fn push(&mut self, at: SimTime, event: WitnessEvent) {
        EventLog::push(self, at, event);
    }
}
