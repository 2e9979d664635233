//! The coordinator phase tracker: an independent replay of the transaction
//! lifecycle state machine, shared context for every algorithm checker.
//!
//! The simulator emits a `Phase` witness event at each coordinator
//! transition. The tracker re-validates the machine (submit → Executing →
//! Preparing → Committing/AbortingVote → ..., wounds only before the commit
//! point) and, because the witness stream is totally ordered, lets node-side
//! events be checked against the coordinator phase *as of their emission*:
//! a commit-release witnessed while the coordinator is still Executing is
//! exactly the broken early lock release the strictness check must catch.
//!
//! # State
//!
//! One record per live run holds its phase, the nodes that released it,
//! its failed certifications and the page copies it read and installed;
//! the only other state is a crash count per node. A run reads and
//! installs each page copy at most once. The serialization graph relies on
//! that: it keeps one read and one install per run and page (a quorum
//! read's copies collapse to one), so a repeat is reported here instead. A
//! record is dropped as soon as no later event can read it:
//! * a committed run's at its `Committed` event, which the coordinator
//!   emits after the last cohort ack, once the transaction has left the
//!   simulator, so no later witness event names the run;
//! * an aborted run's when the transaction's next run enters `Executing`,
//!   whose transition check is the record's last reader.
//!
//! Dropped records' buffers are kept for reuse, so the tracker's size
//! follows the number of runs in flight, not the length of the stream.

use crate::violation::{Violation, ViolationKind};
use ddbm_config::{NodeId, PageId, TxnId};
use ddbm_core::protocol::RunId;
use ddbm_core::{TxnPhase, WitnessEvent, WitnessReply};
use denet::{FxHashMap, FxHasher, List, Lists, SimTime};
use std::hash::Hasher;

/// What the tracker knows about one live run.
#[derive(Debug, Default)]
struct RunState {
    /// `None` until the run's first `Phase` event.
    phase: Option<TxnPhase>,
    /// Nodes whose CC state for the run was already released.
    released: Vec<NodeId>,
    /// Failed certifications still awaiting the commit check:
    /// `(node, node crash count at certify time)`.
    failed_certify: Vec<(NodeId, u64)>,
    /// The page copies the run read (granted reads), by [`copy_key`], in
    /// [`PhaseTracker::copies`].
    read: List,
    /// The page copies the run installed, likewise.
    installed: List,
    /// A 256-bit filter: for every copy in `read` and `installed`, the bit
    /// [`filter_slot`] picks is set, so a clear bit proves a copy unused
    /// without a walk.
    filter: [u64; 4],
}

/// Note that the run `txn` of `state` read, or with `installed` installed,
/// the copy of `page` at `node`; a second use of one copy is a
/// [`ViolationKind::RepeatedCopyAccess`].
fn use_copy(
    copies: &mut Lists<u128>,
    state: &mut RunState,
    (at, txn): (SimTime, TxnId),
    (node, page): (NodeId, PageId),
    installed: bool,
    out: &mut Vec<Violation>,
) {
    let key = copy_key(node, page);
    let slot = filter_slot(key);
    let (word, bit) = (slot / 64, 1 << (slot % 64));
    let (list, what) = if installed {
        (&mut state.installed, "installed")
    } else {
        (&mut state.read, "read")
    };
    if state.filter[word] & bit != 0 && copies.iter(*list).any(|k| k == key) {
        out.push(Violation {
            kind: ViolationKind::RepeatedCopyAccess,
            at,
            txn: Some(txn),
            node: Some(node),
            page: Some(page),
            detail: format!("the run {what} this copy of the page twice"),
        });
    } else {
        state.filter[word] |= bit;
        copies.push(list, key);
    }
}

/// One copy of a page as one integer: the node, the file and the page
/// number side by side, so one compare tells two copies apart.
fn copy_key(node: NodeId, page: PageId) -> u128 {
    let node = u32::try_from(node.0).expect("node ids fit in 32 bits");
    let file = u32::try_from(page.file.0).expect("file ids fit in 32 bits");
    (u128::from(node) << 96) | (u128::from(file) << 64) | u128::from(page.page)
}

/// One of 256 filter bits, picked by hashing `key`.
fn filter_slot(key: u128) -> usize {
    let mut h = FxHasher::default();
    h.write_u128(key);
    // The hash ends in a multiply, whose top bits mix every input bit.
    (h.finish() >> 56) as usize
}

/// See module docs.
#[derive(Debug, Default)]
pub struct PhaseTracker {
    runs: FxHashMap<(TxnId, RunId), RunState>,
    /// Dropped records, kept for their buffers.
    spare: Vec<RunState>,
    /// The page copies of every live run.
    copies: Lists<u128>,
    /// Crashes seen per node, to excuse certify state lost in a rebuild.
    crash_counts: FxHashMap<NodeId, u64>,
}

impl PhaseTracker {
    /// A fresh tracker.
    pub fn new() -> PhaseTracker {
        PhaseTracker::default()
    }

    /// Current coordinator phase of `(txn, run)`, if the run has started
    /// and its record is still held.
    pub fn phase(&self, txn: TxnId, run: RunId) -> Option<TxnPhase> {
        self.runs.get(&(txn, run)).and_then(|s| s.phase)
    }

    /// True when this node's CC state for the run was already released.
    pub fn is_released(&self, txn: TxnId, run: RunId, node: NodeId) -> bool {
        self.runs
            .get(&(txn, run))
            .is_some_and(|s| s.released.contains(&node))
    }

    /// The record of `(txn, run)`, created empty on first sight.
    fn state(&mut self, txn: TxnId, run: RunId) -> &mut RunState {
        let spare = &mut self.spare;
        self.runs
            .entry((txn, run))
            .or_insert_with(|| spare.pop().unwrap_or_default())
    }

    /// Keep a dropped record's buffers for reuse.
    fn recycle(&mut self, mut s: RunState) {
        s.phase = None;
        s.released.clear();
        s.failed_certify.clear();
        self.copies.clear(&mut s.read);
        self.copies.clear(&mut s.installed);
        s.filter = [0; 4];
        self.spare.push(s);
    }

    fn check_transition(
        &mut self,
        at: SimTime,
        txn: TxnId,
        run: RunId,
        phase: TxnPhase,
        out: &mut Vec<Violation>,
    ) {
        // A restart's `Executing` is the last reader of the aborted run's
        // record, so it takes the record out.
        let prior = (phase == TxnPhase::Executing && run > 1)
            .then(|| self.runs.remove(&(txn, run - 1)))
            .flatten();
        let prior_phase = prior.as_ref().and_then(|s| s.phase);
        if let Some(s) = prior {
            self.recycle(s);
        }
        let state = self.state(txn, run);
        let prev = state.phase;
        state.phase = Some(phase);
        let ok = match phase {
            TxnPhase::Executing => {
                prev.is_none() && (run == 1 || prior_phase == Some(TxnPhase::WaitingRestart))
            }
            TxnPhase::Preparing => prev == Some(TxnPhase::Executing),
            TxnPhase::Committing | TxnPhase::AbortingVote => prev == Some(TxnPhase::Preparing),
            TxnPhase::Aborting => {
                matches!(prev, Some(TxnPhase::Executing) | Some(TxnPhase::Preparing))
            }
            TxnPhase::WaitingRestart => {
                matches!(
                    prev,
                    Some(TxnPhase::Aborting) | Some(TxnPhase::AbortingVote)
                )
            }
        };
        if !ok {
            out.push(Violation {
                kind: ViolationKind::PhaseOrder,
                at,
                txn: Some(txn),
                node: None,
                page: None,
                detail: format!("run {run} entered {phase:?} from {prev:?}"),
            });
        }
    }

    /// Feed one witnessed event through the tracker, reporting phase-level
    /// violations. Call this for *every* event, before the algorithm
    /// checker sees it. `faults` relaxes the certify→commit check, whose
    /// bookkeeping a crash legitimately destroys.
    ///
    /// Each event fetches its run's record once.
    pub fn observe(
        &mut self,
        at: SimTime,
        ev: &WitnessEvent,
        faults: bool,
        out: &mut Vec<Violation>,
    ) {
        match *ev {
            WitnessEvent::Phase { txn, run, phase } => {
                self.check_transition(at, txn, run, phase, out);
            }
            WitnessEvent::Access {
                txn,
                run,
                node,
                page,
                write,
                reply,
                ..
            } => {
                // Cohorts issue requests only while executing; an abort
                // decided at the coordinator may still be in flight toward
                // the node, so Aborting is legitimate too.
                let state = self.runs.get_mut(&(txn, run));
                let phase = state.as_ref().and_then(|s| s.phase);
                if !matches!(phase, Some(TxnPhase::Executing) | Some(TxnPhase::Aborting)) {
                    out.push(Violation {
                        kind: ViolationKind::GrantOutsidePhase,
                        at,
                        txn: Some(txn),
                        node: Some(node),
                        page: Some(page),
                        detail: format!("access request ({reply:?}) while in {phase:?}"),
                    });
                }
                let Some(state) = state else { return };
                if state.released.contains(&node) {
                    out.push(Violation {
                        kind: ViolationKind::GrantAfterRelease,
                        at,
                        txn: Some(txn),
                        node: Some(node),
                        page: Some(page),
                        detail: "access request after this node released the run".into(),
                    });
                }
                if !write && reply == WitnessReply::Granted {
                    use_copy(&mut self.copies, state, (at, txn), (node, page), false, out);
                }
            }
            WitnessEvent::Grant {
                txn,
                run,
                node,
                page,
                write,
                ..
            } => {
                // A release can wake a waiter whose coordinator has already
                // decided to abort it (the wake is dropped downstream), so
                // Aborting grants are benign; anything at or past the
                // commit point is not.
                let state = self.runs.get_mut(&(txn, run));
                let phase = state.as_ref().and_then(|s| s.phase);
                if !matches!(phase, Some(TxnPhase::Executing) | Some(TxnPhase::Aborting)) {
                    out.push(Violation {
                        kind: ViolationKind::GrantOutsidePhase,
                        at,
                        txn: Some(txn),
                        node: Some(node),
                        page: Some(page),
                        detail: format!("lock granted while in {phase:?}"),
                    });
                }
                let Some(state) = state else { return };
                if state.released.contains(&node) {
                    out.push(Violation {
                        kind: ViolationKind::GrantAfterRelease,
                        at,
                        txn: Some(txn),
                        node: Some(node),
                        page: Some(page),
                        detail: "lock granted after this node released the run".into(),
                    });
                }
                if !write {
                    use_copy(&mut self.copies, state, (at, txn), (node, page), false, out);
                }
            }
            WitnessEvent::Certify {
                txn, run, node, ok, ..
            } => {
                if !ok {
                    let crashes = self.crash_counts.get(&node).copied().unwrap_or(0);
                    self.state(txn, run).failed_certify.push((node, crashes));
                }
            }
            WitnessEvent::Release {
                txn,
                run,
                node,
                commit,
            } => {
                let state = self.state(txn, run);
                if state.released.contains(&node) {
                    return; // duplicate release: first one was checked
                }
                state.released.push(node);
                let phase = state.phase;
                let ok = if commit {
                    // The two-phase/strictness rule: a commit release is
                    // legal only after the coordinator's commit point.
                    phase == Some(TxnPhase::Committing)
                } else {
                    matches!(
                        phase,
                        Some(TxnPhase::Aborting) | Some(TxnPhase::AbortingVote)
                    )
                };
                if !ok {
                    out.push(Violation {
                        kind: ViolationKind::ReleaseOutsidePhase,
                        at,
                        txn: Some(txn),
                        node: Some(node),
                        page: None,
                        detail: format!(
                            "{}-release while in {phase:?}",
                            if commit { "commit" } else { "abort" }
                        ),
                    });
                }
            }
            WitnessEvent::Committed { txn, run, .. } => {
                // The run's last event: its record goes.
                let state = self.runs.remove(&(txn, run));
                let phase = state.as_ref().and_then(|s| s.phase);
                if phase != Some(TxnPhase::Committing) {
                    out.push(Violation {
                        kind: ViolationKind::PhaseOrder,
                        at,
                        txn: Some(txn),
                        node: None,
                        page: None,
                        detail: format!("committed from {phase:?} (never reached Committing)"),
                    });
                }
                if let Some(s) = state {
                    for &(node, crashes_then) in &s.failed_certify {
                        let crashes_now = self.crash_counts.get(&node).copied().unwrap_or(0);
                        // A crash rebuilds the manager and the cohort is
                        // re-voted; only an unexcused failure is a bug.
                        if !faults || crashes_now == crashes_then {
                            out.push(Violation {
                                kind: ViolationKind::PhaseOrder,
                                at,
                                txn: Some(txn),
                                node: Some(node),
                                page: None,
                                detail: "committed despite a failed certification".into(),
                            });
                        }
                    }
                    self.recycle(s);
                }
            }
            WitnessEvent::NodeCrash { node } => {
                *self.crash_counts.entry(node).or_insert(0) += 1;
            }
            WitnessEvent::Install {
                txn,
                run,
                node,
                page,
                ..
            } => {
                if let Some(state) = self.runs.get_mut(&(txn, run)) {
                    use_copy(&mut self.copies, state, (at, txn), (node, page), true, out);
                }
            }
            WitnessEvent::Reject { .. } | WitnessEvent::Wound { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TxnPhase::{Aborting, Committing, Executing, Preparing, WaitingRestart};

    #[test]
    fn records_are_dropped_when_runs_end() {
        let txn = TxnId(1);
        let node = NodeId(1);
        let mut t = PhaseTracker::new();
        let mut out = Vec::new();
        let mut feed = |t: &mut PhaseTracker, ev: WitnessEvent| {
            t.observe(SimTime(0), &ev, false, &mut out);
        };
        for phase in [Executing, Aborting, WaitingRestart] {
            feed(&mut t, WitnessEvent::Phase { txn, run: 1, phase });
        }
        // The aborted run is held until its successor's transition check.
        assert_eq!(t.phase(txn, 1), Some(WaitingRestart));
        feed(
            &mut t,
            WitnessEvent::Phase {
                txn,
                run: 2,
                phase: Executing,
            },
        );
        assert_eq!(t.phase(txn, 1), None);
        for phase in [Preparing, Committing] {
            feed(&mut t, WitnessEvent::Phase { txn, run: 2, phase });
        }
        let release = WitnessEvent::Release {
            txn,
            run: 2,
            node,
            commit: true,
        };
        feed(&mut t, release);
        assert!(t.is_released(txn, 2, node));
        feed(
            &mut t,
            WitnessEvent::Committed {
                txn,
                run: 2,
                run_ts: Default::default(),
                commit_ts: Default::default(),
            },
        );
        assert_eq!(t.phase(txn, 2), None);
        assert!(!t.is_released(txn, 2, node));
        assert!(t.runs.is_empty());
        assert!(out.is_empty(), "{out:?}");
    }

    const PAGE: PageId = PageId {
        file: ddbm_config::FileId(0),
        page: 7,
    };

    fn read(node: usize) -> WitnessEvent {
        WitnessEvent::Access {
            txn: TxnId(1),
            run: 1,
            node: NodeId(node),
            page: PAGE,
            write: false,
            reply: WitnessReply::Granted,
            initial_ts: Default::default(),
            run_ts: Default::default(),
        }
    }

    fn install(node: usize) -> WitnessEvent {
        WitnessEvent::Install {
            txn: TxnId(1),
            run: 1,
            node: NodeId(node),
            page: PAGE,
            run_ts: Default::default(),
            commit_ts: Default::default(),
        }
    }

    /// Run 1 of T1 executes, feeds `reads`, commits and feeds `installs`;
    /// the kinds of the violations reported.
    fn check(reads: &[WitnessEvent], installs: &[WitnessEvent]) -> Vec<ViolationKind> {
        let txn = TxnId(1);
        let mut t = PhaseTracker::new();
        let mut out = Vec::new();
        let phases = |phases: &[TxnPhase]| {
            phases
                .iter()
                .map(|&phase| WitnessEvent::Phase { txn, run: 1, phase })
                .collect::<Vec<_>>()
        };
        let stream = [
            phases(&[Executing]),
            reads.to_vec(),
            phases(&[Preparing, Committing]),
            installs.to_vec(),
        ];
        for ev in stream.iter().flatten() {
            t.observe(SimTime(0), ev, false, &mut out);
        }
        out.iter().map(|v| v.kind).collect()
    }

    #[test]
    fn a_quorum_reads_each_copy_once() {
        assert_eq!(check(&[read(1), read(2), read(3)], &[install(1)]), []);
    }

    #[test]
    fn a_repeated_read_of_one_copy_is_reported() {
        let grant = WitnessEvent::Grant {
            txn: TxnId(1),
            run: 1,
            node: NodeId(2),
            page: PAGE,
            write: false,
            initial_ts: Default::default(),
            run_ts: Default::default(),
        };
        assert_eq!(
            check(&[read(1), read(2), grant], &[]),
            [ViolationKind::RepeatedCopyAccess]
        );
    }

    #[test]
    fn a_repeated_install_of_one_copy_is_reported() {
        assert_eq!(
            check(&[read(1)], &[install(1), install(2), install(1)]),
            [ViolationKind::RepeatedCopyAccess]
        );
    }
}
