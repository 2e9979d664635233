//! The simulator's single observation point.
//!
//! The simulator reports each semantic event — a phase transition, a
//! commit, a lock wait, a message, a resource busy/idle sample, a CC
//! decision — exactly once, through one [`Observer`] method, and the
//! observer fans it out to whichever consumers the run installed:
//!
//! * the [`PhaseCollector`] (`trace.phase_stats`, the one consumer a config
//!   turns on, because its output reaches the report), which keeps its own
//!   per-transaction bucket clocks, so the simulator never applies the
//!   phase-bucket partition itself;
//! * the [`Tracer`], installed by `run_traced`, for Chrome-trace / JSONL
//!   export;
//! * a [`WitnessSink`], installed by `run_oracle` or `run_witnessed`, for
//!   the `ddbm-oracle` checkers.
//!
//! The simulator holds the observer as an `Option<Box<Observer>>` that is
//! `None` unless something is being collected, so the disabled path costs
//! one `None` check per probe site and draws nothing from any RNG stream.

use crate::metrics::{PhaseBreakdown, PhaseCollector};
use crate::protocol::{AbortCause, RunId};
use crate::trace::{TraceEvent, TraceLog, Tracer};
use crate::txn::TxnPhase;
use crate::witness::{WitnessEvent, WitnessSink};
use ddbm_cc::{LockStats, Ts};
use ddbm_config::{NodeId, TxnId};
use denet::{SimDuration, SimTime};

/// The recorders a run entry point installs, handed back after the run:
/// the sealed event trace and the witness consumer.
pub(crate) type Recorders = (Option<TraceLog>, Option<Box<dyn WitnessSink>>);

/// The consumers of one run's probe events (see the module docs).
#[derive(Default)]
pub(crate) struct Observer {
    pub(crate) phases: Option<PhaseCollector>,
    pub(crate) tracer: Option<Tracer>,
    pub(crate) witness: Option<Box<dyn WitnessSink>>,
}

impl Observer {
    /// Run `run` of `txn` entered `phase`.
    #[inline]
    pub(crate) fn phase(&mut self, at: SimTime, txn: TxnId, run: RunId, phase: TxnPhase) {
        if let Some(p) = &mut self.phases {
            p.phase(at, txn, phase);
        }
        if let Some(t) = &mut self.tracer {
            t.push(at, TraceEvent::Phase { txn, run, phase });
        }
        if let Some(w) = &mut self.witness {
            w.push(at, WitnessEvent::Phase { txn, run, phase });
        }
    }

    /// Run `run` of `txn` finished aborting after living `run_lifetime`;
    /// it now waits out its restart delay.
    #[inline]
    pub(crate) fn aborted(
        &mut self,
        at: SimTime,
        txn: TxnId,
        run: RunId,
        cause: AbortCause,
        run_lifetime: SimDuration,
    ) {
        if let Some(p) = &mut self.phases {
            p.record_abort(cause, run_lifetime);
        }
        self.phase(at, txn, run, TxnPhase::WaitingRestart);
    }

    /// Run `run` of `txn` committed durably, `response` after submission.
    #[inline]
    pub(crate) fn committed(
        &mut self,
        at: SimTime,
        txn: TxnId,
        run: RunId,
        run_ts: Ts,
        commit_ts: Ts,
        response: SimDuration,
    ) {
        if let Some(p) = &mut self.phases {
            p.committed(at, txn, response);
        }
        if let Some(t) = &mut self.tracer {
            t.push(at, TraceEvent::Committed { txn });
        }
        if let Some(w) = &mut self.witness {
            w.push(
                at,
                WitnessEvent::Committed {
                    txn,
                    run,
                    run_ts,
                    commit_ts,
                },
            );
        }
    }

    /// A cohort of `txn` blocked on a CC request at `node`; `stats` reads
    /// the node's lock-table occupancy (only when tracing).
    #[inline]
    pub(crate) fn lock_wait_begin(
        &mut self,
        at: SimTime,
        txn: TxnId,
        node: NodeId,
        stats: impl FnOnce() -> LockStats,
    ) {
        if let Some(p) = &mut self.phases {
            p.lock_wait(at, txn, true);
        }
        if let Some(t) = &mut self.tracer {
            let stats = stats();
            t.push(
                at,
                TraceEvent::LockWaitBegin {
                    txn,
                    node,
                    held: stats.held as u32,
                    waiting: stats.waiting as u32,
                },
            );
        }
    }

    /// The blocked cohort of `txn` at `node` was granted or rejected.
    #[inline]
    pub(crate) fn lock_wait_end(&mut self, at: SimTime, txn: TxnId, node: NodeId) {
        if let Some(p) = &mut self.phases {
            p.lock_wait(at, txn, false);
        }
        if let Some(t) = &mut self.tracer {
            t.push(at, TraceEvent::LockWaitEnd { txn, node });
        }
    }

    /// A message of kind `kind` was handed to the network.
    #[inline]
    pub(crate) fn msg_send(&mut self, at: SimTime, from: NodeId, to: NodeId, kind: &'static str) {
        if let Some(t) = &mut self.tracer {
            t.push(at, TraceEvent::MsgSend { from, to, kind });
        }
    }

    /// A message of kind `kind` reached its destination.
    #[inline]
    pub(crate) fn msg_arrive(&mut self, at: SimTime, from: NodeId, to: NodeId, kind: &'static str) {
        if let Some(t) = &mut self.tracer {
            t.push(at, TraceEvent::MsgArrive { from, to, kind });
        }
    }

    /// A sample of `node`'s CPU busy state.
    #[inline]
    pub(crate) fn cpu(&mut self, at: SimTime, node: NodeId, busy: bool) {
        if let Some(t) = &mut self.tracer {
            t.note_cpu(at, node, busy);
        }
    }

    /// A sample of `node`'s disk-array busy state.
    #[inline]
    pub(crate) fn disk(&mut self, at: SimTime, node: NodeId, busy: bool) {
        if let Some(t) = &mut self.tracer {
            t.note_disk(at, node, busy);
        }
    }

    /// A CC-only protocol event, built only when a witness sink listens.
    #[inline]
    pub(crate) fn witness(&mut self, at: SimTime, event: impl FnOnce() -> WitnessEvent) {
        if let Some(w) = &mut self.witness {
            w.push(at, event());
        }
    }

    /// End of warmup: discard the phase aggregates measured so far (the
    /// per-transaction clocks keep running).
    pub(crate) fn end_warmup(&mut self) {
        if let Some(p) = &mut self.phases {
            p.reset();
        }
    }

    /// The phase breakdown, when phase statistics are collected.
    pub(crate) fn phase_breakdown(&self) -> Option<PhaseBreakdown> {
        self.phases.as_ref().map(PhaseCollector::breakdown)
    }

    /// The installed recorders, the event trace sealed at `end`.
    pub(crate) fn into_recorders(self, end: SimTime) -> Recorders {
        (self.tracer.map(|t| t.finish(end)), self.witness)
    }
}
