//! Per-transaction runtime state kept by the (host-resident) coordinator.

use crate::protocol::{AbortCause, RunId};
use crate::workload::TxnTemplate;
use ddbm_cc::{Ts, TxnMeta};
use ddbm_config::{NodeId, TxnId};
use denet::SimTime;
use std::rc::Rc;

/// Where a transaction is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnPhase {
    /// Cohorts are being loaded / executing accesses.
    Executing,
    /// Phase 1 of commit: `Prepare` sent, collecting votes.
    Preparing,
    /// Phase 2, commit decided: `Decision(commit)` sent, collecting acks.
    /// Wound-wait wounds are ignored from here on.
    Committing,
    /// Phase 2, abort decided (a "no" vote): `Decision(abort)` sent,
    /// collecting acks.
    AbortingVote,
    /// The out-of-band abort protocol is dismantling this run's cohorts.
    Aborting,
    /// Abort complete; a `Restart` event is scheduled.
    WaitingRestart,
}

/// The six wall-clock buckets the observability layer partitions a
/// transaction's lifetime into. Unlike [`TxnPhase`], the `Executing` phase
/// is split into useful work ([`PhaseBucket::Execute`]) and lock waiting
/// ([`PhaseBucket::LockWait`], any cohort blocked on a CC request), and the
/// post-abort restart delay gets its own bucket. The buckets are exhaustive
/// and disjoint, so their durations sum exactly to the transaction's
/// end-to-end (origin → commit) latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseBucket {
    /// Executing with no cohort blocked: startup, CC requests, page
    /// processing, messaging.
    Execute,
    /// Executing with at least one cohort blocked on a lock.
    LockWait,
    /// Phase 1 of commit (prepare/vote round).
    Prepare,
    /// Phase 2, commit decided (decision/ack round).
    Commit,
    /// Abort processing (a "no"-vote round or the out-of-band protocol).
    Abort,
    /// Waiting out the restart delay after an abort completed.
    RestartWait,
}

impl PhaseBucket {
    /// Every bucket, in accumulation-array order.
    pub const ALL: [PhaseBucket; 6] = [
        PhaseBucket::Execute,
        PhaseBucket::LockWait,
        PhaseBucket::Prepare,
        PhaseBucket::Commit,
        PhaseBucket::Abort,
        PhaseBucket::RestartWait,
    ];

    /// The bucket for a transaction in `phase` with `blocked` cohorts
    /// currently waiting on locks.
    pub fn of(phase: TxnPhase, blocked: u32) -> PhaseBucket {
        match phase {
            TxnPhase::Executing if blocked > 0 => PhaseBucket::LockWait,
            TxnPhase::Executing => PhaseBucket::Execute,
            TxnPhase::Preparing => PhaseBucket::Prepare,
            TxnPhase::Committing => PhaseBucket::Commit,
            TxnPhase::AbortingVote | TxnPhase::Aborting => PhaseBucket::Abort,
            TxnPhase::WaitingRestart => PhaseBucket::RestartWait,
        }
    }

    /// Position in [`PhaseBucket::ALL`] (and in per-bucket arrays).
    pub fn index(self) -> usize {
        match self {
            PhaseBucket::Execute => 0,
            PhaseBucket::LockWait => 1,
            PhaseBucket::Prepare => 2,
            PhaseBucket::Commit => 3,
            PhaseBucket::Abort => 4,
            PhaseBucket::RestartWait => 5,
        }
    }

    /// A short static label for reports and traces.
    pub fn label(self) -> &'static str {
        match self {
            PhaseBucket::Execute => "execute",
            PhaseBucket::LockWait => "lock_wait",
            PhaseBucket::Prepare => "prepare",
            PhaseBucket::Commit => "commit",
            PhaseBucket::Abort => "abort",
            PhaseBucket::RestartWait => "restart_wait",
        }
    }
}

/// Coordinator-side view of one cohort in the current run.
#[derive(Debug, Clone, Default)]
pub struct CohortRun {
    /// `LoadCohort` sent this run.
    pub loaded: bool,
    /// Startup cost paid; the cohort is executing accesses.
    pub started: bool,
    /// Index of the next access to perform.
    pub next_access: usize,
    /// Reported `CohortDone`.
    pub done: bool,
    /// If blocked on a CC request, when the block began (for the blocking
    /// time metric).
    pub blocked_since: Option<SimTime>,
    /// Fault injection: the node's crash epoch when the cohort was loaded.
    /// A node that crashes bumps its epoch, so a mismatch means every trace
    /// of this cohort (locks, read/write sets, queued work) is gone.
    pub load_epoch: u64,
    /// Fault injection: the cohort's node crashed while the cohort was in
    /// flight this run; its state no longer exists anywhere.
    pub lost: bool,
    /// The cohort's node has applied this run's commit/abort decision
    /// (dedups retransmitted `Decision`/`AbortCohort` messages).
    pub settled: bool,
    /// Phase-2 / abort-protocol acknowledgement received (or synthesized
    /// for a lost cohort); dedups retransmitted acks.
    pub acked: bool,
}

/// All runtime state of one transaction.
#[derive(Debug)]
pub struct TxnRuntime {
    /// The transaction's identity.
    pub id: TxnId,
    /// The terminal that submitted it (and thinks again after it commits).
    pub terminal: usize,
    /// The immutable access plan, replayed identically on every run. Shared
    /// (`Rc`) so the simulator's fan-out loops can hold the plan while
    /// mutating other transactions — cloning the handle is two machine words,
    /// not a deep copy of the access lists.
    pub template: Rc<TxnTemplate>,
    /// Replication: the logical (single-copy) access plan this run's
    /// `template` was materialized from. Kept so a restart can re-route the
    /// same logical accesses onto the replicas that are live *then* (the
    /// crash-epoch-aware part of replica selection). `None` when replication
    /// is off or the template came from a fixed replay script.
    pub logical: Option<Rc<TxnTemplate>>,
    /// First submission time; response time is measured from here across
    /// all restarts, and it doubles as the (stable) initial timestamp.
    pub origin: SimTime,
    /// Current run number (1 on first execution, +1 per restart).
    pub run: RunId,
    /// Start of the current run: the BTO run timestamp.
    pub run_start: SimTime,
    /// Lifecycle phase.
    pub phase: TxnPhase,
    /// Per-cohort progress, indexed like `template.cohorts`.
    pub cohorts: Vec<CohortRun>,
    /// Votes received this round (phase 1).
    pub votes_received: usize,
    /// No cohort has voted "no" so far this round.
    pub all_yes: bool,
    /// Outstanding phase-2 / abort-protocol acknowledgements.
    pub acks_outstanding: usize,
    /// The commit timestamp, assigned when phase 1 starts.
    pub commit_ts: Option<Ts>,
    /// Why the current run is aborting; set when the abort takes effect and
    /// consumed by the metrics collector when the abort completes.
    pub abort_cause: Option<AbortCause>,
}

impl TxnRuntime {
    /// A freshly submitted transaction beginning run 1 at `now`.
    pub fn new(id: TxnId, terminal: usize, template: Rc<TxnTemplate>, now: SimTime) -> TxnRuntime {
        let cohorts = vec![CohortRun::default(); template.cohorts.len()];
        TxnRuntime::with_cohorts(id, terminal, template, cohorts, now)
    }

    /// Like [`new`](Self::new), but reusing a caller-supplied (pooled)
    /// per-cohort progress vector. The vector must already hold exactly one
    /// default `CohortRun` per template cohort.
    pub fn with_cohorts(
        id: TxnId,
        terminal: usize,
        template: Rc<TxnTemplate>,
        cohorts: Vec<CohortRun>,
        now: SimTime,
    ) -> TxnRuntime {
        debug_assert_eq!(cohorts.len(), template.cohorts.len());
        TxnRuntime {
            id,
            terminal,
            template,
            logical: None,
            origin: now,
            run: 1,
            run_start: now,
            phase: TxnPhase::Executing,
            cohorts,
            votes_received: 0,
            all_yes: true,
            acks_outstanding: 0,
            commit_ts: None,
            abort_cause: None,
        }
    }

    /// The CC-facing identity of this transaction for the current run.
    pub fn meta(&self) -> TxnMeta {
        TxnMeta {
            id: self.id,
            initial_ts: Ts::new(self.origin.0, self.id),
            run_ts: Ts::new(self.run_start.0, self.id),
        }
    }

    /// Reset per-run state for a fresh run starting `now`.
    pub fn begin_run(&mut self, now: SimTime) {
        self.run += 1;
        self.run_start = now;
        self.phase = TxnPhase::Executing;
        for c in &mut self.cohorts {
            *c = CohortRun::default();
        }
        self.votes_received = 0;
        self.all_yes = true;
        self.acks_outstanding = 0;
        self.commit_ts = None;
        self.abort_cause = None;
    }

    /// Replication: install a freshly materialized physical plan for the
    /// current run (replica routing can differ run to run as nodes crash
    /// and recover), rebuilding the per-cohort progress to match. Returns
    /// the superseded plan so the caller can recycle it.
    pub fn replace_template(&mut self, template: Rc<TxnTemplate>) -> Rc<TxnTemplate> {
        let n = template.cohorts.len();
        let old = std::mem::replace(&mut self.template, template);
        self.cohorts.clear();
        self.cohorts.resize_with(n, CohortRun::default);
        old
    }

    /// True when `template` is a replica-routed plan of `logical` (factor
    /// above 1) rather than the logical plan itself: the two freelists it
    /// can return to are kept apart.
    pub(crate) fn routed(&self) -> bool {
        self.logical
            .as_ref()
            .is_some_and(|l| !Rc::ptr_eq(l, &self.template))
    }

    /// The cohort index running at `node`, if any.
    pub fn cohort_at(&self, node: NodeId) -> Option<usize> {
        self.template.cohorts.iter().position(|c| c.node == node)
    }

    /// All cohorts have reported done.
    pub fn all_done(&self) -> bool {
        self.cohorts.iter().all(|c| c.done)
    }

    /// True when a wound must be ignored (paper §2.3: the transaction is in
    /// the second phase of its commit protocol).
    pub fn wound_immune(&self) -> bool {
        matches!(self.phase, TxnPhase::Committing)
    }

    /// True when an abort request is redundant (already aborting or dead).
    pub fn abort_in_progress(&self) -> bool {
        matches!(
            self.phase,
            TxnPhase::Aborting | TxnPhase::AbortingVote | TxnPhase::WaitingRestart
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Access, CohortSpec};
    use ddbm_config::{FileId, PageId};

    fn template() -> TxnTemplate {
        TxnTemplate {
            relation: 0,
            cohorts: vec![
                CohortSpec {
                    node: NodeId(1),
                    accesses: vec![Access {
                        page: PageId {
                            file: FileId(0),
                            page: 0,
                        },
                        write: false,
                    }],
                },
                CohortSpec {
                    node: NodeId(2),
                    accesses: vec![Access {
                        page: PageId {
                            file: FileId(1),
                            page: 3,
                        },
                        write: true,
                    }],
                },
            ],
        }
    }

    #[test]
    fn new_txn_starts_executing() {
        let t = TxnRuntime::new(TxnId(1), 5, Rc::new(template()), SimTime(100));
        assert_eq!(t.phase, TxnPhase::Executing);
        assert_eq!(t.run, 1);
        assert_eq!(t.cohorts.len(), 2);
        assert!(!t.all_done());
    }

    #[test]
    fn meta_uses_origin_and_run_start() {
        let mut t = TxnRuntime::new(TxnId(1), 5, Rc::new(template()), SimTime(100));
        let m1 = t.meta();
        assert_eq!(m1.initial_ts, Ts::new(100, TxnId(1)));
        assert_eq!(m1.run_ts, Ts::new(100, TxnId(1)));
        t.begin_run(SimTime(500));
        let m2 = t.meta();
        assert_eq!(
            m2.initial_ts,
            Ts::new(100, TxnId(1)),
            "initial ts is stable"
        );
        assert_eq!(m2.run_ts, Ts::new(500, TxnId(1)), "run ts is fresh");
        assert_eq!(t.run, 2);
    }

    #[test]
    fn begin_run_resets_cohorts() {
        let mut t = TxnRuntime::new(TxnId(1), 5, Rc::new(template()), SimTime(100));
        t.cohorts[0].loaded = true;
        t.cohorts[0].done = true;
        t.phase = TxnPhase::Aborting;
        t.begin_run(SimTime(500));
        assert_eq!(t.phase, TxnPhase::Executing);
        assert!(!t.cohorts[0].loaded && !t.cohorts[0].done);
    }

    #[test]
    fn cohort_lookup_by_node() {
        let t = TxnRuntime::new(TxnId(1), 5, Rc::new(template()), SimTime(100));
        assert_eq!(t.cohort_at(NodeId(1)), Some(0));
        assert_eq!(t.cohort_at(NodeId(2)), Some(1));
        assert_eq!(t.cohort_at(NodeId(3)), None);
    }

    #[test]
    fn phase_buckets_cover_all_phases() {
        for phase in [
            TxnPhase::Executing,
            TxnPhase::Preparing,
            TxnPhase::Committing,
            TxnPhase::AbortingVote,
            TxnPhase::Aborting,
            TxnPhase::WaitingRestart,
        ] {
            for blocked in [0, 2] {
                let b = PhaseBucket::of(phase, blocked);
                assert_eq!(PhaseBucket::ALL[b.index()], b);
                assert!(!b.label().is_empty());
            }
        }
        assert_eq!(
            PhaseBucket::of(TxnPhase::Executing, 1),
            PhaseBucket::LockWait
        );
        assert_eq!(
            PhaseBucket::of(TxnPhase::Executing, 0),
            PhaseBucket::Execute
        );
    }

    #[test]
    fn wound_immunity_only_in_commit_phase_two() {
        let mut t = TxnRuntime::new(TxnId(1), 5, Rc::new(template()), SimTime(100));
        for (phase, immune) in [
            (TxnPhase::Executing, false),
            (TxnPhase::Preparing, false),
            (TxnPhase::Committing, true),
            (TxnPhase::AbortingVote, false),
            (TxnPhase::Aborting, false),
            (TxnPhase::WaitingRestart, false),
        ] {
            t.phase = phase;
            assert_eq!(t.wound_immune(), immune, "{phase:?}");
        }
    }
}
