#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! `ddbm-oracle` — the differential verification oracle for the simulator.
//!
//! The simulator, run through [`ddbm_core::run_witnessed`] or
//! [`ddbm_core::run_oracle`], emits a totally ordered stream of every
//! externally observable concurrency-control decision into the
//! [`WitnessSink`] that entry point installs. This crate's [`Oracle`] is such a sink: it runs each
//! event through independent reference models of the protocol rules as the
//! simulator emits it, and reports every event the algorithm should not
//! have produced. [`run_and_check`] checks a run this way without storing
//! its stream, so no event is ever dropped; [`check_stream`] and
//! [`check_recording`] feed the same `Oracle` a stream recorded by
//! [`ddbm_core::run_oracle`]. The models:
//!
//! * **Phase / strictness** ([`PhaseTracker`]) — the coordinator lifecycle
//!   machine, the two-phase rule (no commit-release before the commit
//!   point, no abort-release outside an abort), no lock traffic after
//!   release, no commit after a failed certification.
//! * **Locking family** ([`LockChecker`]) — lock compatibility, FIFO grant
//!   order (barging-aware), 2PL deadlock victims must lie on waits-for
//!   cycles, wound-wait wound priority, wait-die "older waits, younger
//!   dies" in both directions.
//! * **Timestamp ordering** ([`BtoChecker`]) — an exact differential mirror
//!   of the BTO manager: every reply, wake-up, and install checked against
//!   timestamp order with the Thomas write rule.
//! * **Serializability** ([`VsrCollector`]) — the committed history's
//!   multiversion serialization graph under the algorithm's version order
//!   (install order for the locking family, run timestamp for BTO, commit
//!   timestamp for OPT), with replicated reads collapsed to one copy, must
//!   be acyclic. For the strict locking family that is conflict
//!   serializability; for BTO's Thomas write rule and OPT's certification
//!   it is view serializability under their own version order
//!   (informational for the NO_DC baseline, which is serializable only
//!   without data contention).
//! * **Replication** ([`ReplicaChecker`]) — every committed write reaches
//!   the replicas the replica control requires.
//!
//! When a check fails, [`shrink_workload`] delta-debugs the recorded
//! workload to a smallest still-failing script and [`ReproFile`] freezes
//! it — config, seed, fault plan, injected defect — as a `.repro.json`
//! that deterministically replays the violation.

pub mod btocheck;
mod dense;
pub mod locking;
pub mod phase;
pub mod replica;
pub mod repro;
pub mod shrink;
pub mod violation;
pub mod vsr;

pub use btocheck::BtoChecker;
pub use ddbm_core::{WitnessEvent, WitnessReply, WitnessStream};
pub use locking::{LockChecker, LockVariant};
pub use phase::PhaseTracker;
pub use replica::ReplicaChecker;
pub use repro::{ReproFile, REPRO_VERSION};
pub use shrink::{shrink_workload, ShrinkOutcome};
pub use violation::{Violation, ViolationKind};
pub use vsr::{VersionOrder, VsrCollector, VsrOutcome};

use ddbm_config::{Algorithm, Config, ConfigError, ReplicationParams};
use ddbm_core::{run_witnessed, OracleRecording, TestHooks, TxnTemplate, WitnessSink};
use denet::SimTime;

/// How to check a witness stream.
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// The algorithm whose rules to enforce.
    pub algorithm: Algorithm,
    /// Mirror of `system.lock_barging` (relaxes FIFO grant order for the
    /// 2PL family).
    pub lock_barging: bool,
    /// The run injected faults: relaxes checks whose bookkeeping a node
    /// crash legitimately destroys.
    pub faults: bool,
    /// Unused: the serializability check is one graph search, with nothing
    /// to budget. Kept only because the benchmark harness passes it to
    /// [`VsrCollector::finalize`].
    pub vsr_budget: u64,
    /// Keep at most this many violations in the report (the total is still
    /// counted).
    pub max_violations: usize,
    /// The replication parameters of the run: when enabled (and fault-free),
    /// committed writes are checked against the replica-control write
    /// requirement (one-copy-serializability support).
    pub replication: ReplicationParams,
}

impl CheckOptions {
    /// Defaults for `algorithm`: no barging, no faults, generous budgets.
    pub fn new(algorithm: Algorithm) -> CheckOptions {
        CheckOptions {
            algorithm,
            lock_barging: false,
            faults: false,
            vsr_budget: 20_000,
            max_violations: 256,
            replication: ReplicationParams::default(),
        }
    }
}

/// The [`CheckOptions`] implied by a simulator config.
pub fn check_options_for(config: &Config) -> CheckOptions {
    CheckOptions {
        algorithm: config.algorithm,
        lock_barging: config.system.lock_barging,
        faults: config.faults.any(),
        replication: config.replication,
        ..CheckOptions::new(config.algorithm)
    }
}

/// What the oracle concluded about one witness stream.
#[derive(Debug)]
pub struct OracleReport {
    /// Algorithm checked.
    pub algorithm: Algorithm,
    /// Events examined.
    pub events: usize,
    /// The violations found (capped at `max_violations`).
    pub violations: Vec<Violation>,
    /// Total violations found, including any beyond the cap.
    pub total_violations: usize,
    /// The serializability verdict. Not-serializable counts as a
    /// violation for every algorithm except the NO_DC baseline, where it
    /// is expected (and reported here informationally).
    pub vsr: VsrOutcome,
    /// Witness events dropped by the recorder (`0` = complete stream). A
    /// nonzero value means violations may have been missed, not invented.
    pub witness_overflow: u64,
}

impl OracleReport {
    /// An empty (vacuously clean) report.
    pub fn empty(algorithm: Algorithm) -> OracleReport {
        OracleReport {
            algorithm,
            events: 0,
            violations: Vec::new(),
            total_violations: 0,
            vsr: VsrOutcome::Trivial,
            witness_overflow: 0,
        }
    }

    /// True when no invariant was violated.
    pub fn clean(&self) -> bool {
        self.total_violations == 0
    }

    /// Render every kept violation, one per line.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for v in &self.violations {
            let _ = writeln!(s, "{v}");
        }
        if self.total_violations > self.violations.len() {
            let _ = writeln!(
                s,
                "... and {} more",
                self.total_violations - self.violations.len()
            );
        }
        s
    }
}

enum AlgoChecker {
    Lock(LockChecker),
    Bto(BtoChecker),
    /// OPT and NO_DC: every request must be granted at access time; any
    /// witnessed contention event is a violation by itself.
    Structural,
}

fn structural_observe(at: SimTime, ev: &WitnessEvent, out: &mut Vec<Violation>) {
    match *ev {
        WitnessEvent::Access {
            txn,
            node,
            page,
            reply,
            ..
        } if reply != WitnessReply::Granted => {
            out.push(Violation {
                kind: ViolationKind::UnsanctionedContention,
                at,
                txn: Some(txn),
                node: Some(node),
                page: Some(page),
                detail: format!("access answered {reply:?}, but every request must be granted"),
            });
        }
        WitnessEvent::Grant {
            txn, node, page, ..
        } => {
            out.push(Violation {
                kind: ViolationKind::UnsanctionedContention,
                at,
                txn: Some(txn),
                node: Some(node),
                page: Some(page),
                detail: "queue wake-up under an algorithm that never blocks".into(),
            });
        }
        WitnessEvent::Reject {
            txn, node, page, ..
        } => {
            out.push(Violation {
                kind: ViolationKind::UnsanctionedContention,
                at,
                txn: Some(txn),
                node: Some(node),
                page: Some(page),
                detail: "waiter rejected under an algorithm that never blocks".into(),
            });
        }
        WitnessEvent::Wound { victim, node, .. } => {
            out.push(Violation {
                kind: ViolationKind::WoundPriority,
                at,
                txn: Some(victim),
                node: Some(node),
                page: None,
                detail: "wound under an algorithm that never wounds".into(),
            });
        }
        _ => {}
    }
}

/// The invariant checkers for one run, fed one witness event at a time.
///
/// An `Oracle` is a [`WitnessSink`]: installed in the simulator through
/// [`ddbm_core::run_witnessed`], it checks each event as it is emitted, so
/// a run is checked without its stream ever being stored (and without the
/// witness log's cap). [`check_stream`] feeds it a recorded stream instead.
pub struct Oracle {
    opts: CheckOptions,
    tracker: PhaseTracker,
    checker: AlgoChecker,
    vsr: VsrCollector,
    replica: Option<ReplicaChecker>,
    violations: Vec<Violation>,
    events: usize,
}

impl Oracle {
    /// An oracle enforcing the rules of `opts.algorithm`, before any event.
    pub fn new(opts: &CheckOptions) -> Oracle {
        let checker = match LockVariant::of(opts.algorithm) {
            Some(variant) => AlgoChecker::Lock(LockChecker::new(variant, opts.lock_barging)),
            None if opts.algorithm == Algorithm::BasicTimestampOrdering => {
                AlgoChecker::Bto(BtoChecker::new())
            }
            None => AlgoChecker::Structural,
        };
        Oracle {
            opts: *opts,
            tracker: PhaseTracker::new(),
            checker,
            vsr: VsrCollector::new(VersionOrder::for_algorithm(opts.algorithm)),
            // The write-quorum check only makes sense on fault-free streams:
            // under faults ROWA legitimately writes fewer than `factor`
            // replicas.
            replica: (opts.replication.enabled() && !opts.faults)
                .then(|| ReplicaChecker::new(&opts.replication)),
            violations: Vec::new(),
            events: 0,
        }
    }

    /// Check one event, emitted at `at`, against every model.
    pub fn observe(&mut self, at: SimTime, ev: &WitnessEvent) {
        let violations = &mut self.violations;
        self.events += 1;
        self.tracker.observe(at, ev, self.opts.faults, violations);
        if let WitnessEvent::Certify {
            txn,
            node,
            ok: false,
            ..
        } = *ev
        {
            // Only OPT validates at commit; every other manager certifies
            // unconditionally.
            if self.opts.algorithm != Algorithm::Optimistic {
                violations.push(Violation {
                    kind: ViolationKind::UnsanctionedReject,
                    at,
                    txn: Some(txn),
                    node: Some(node),
                    page: None,
                    detail: format!(
                        "certification failed under {}, whose certification is trivial",
                        self.opts.algorithm
                    ),
                });
            }
        }
        match &mut self.checker {
            AlgoChecker::Lock(c) => c.observe(at, ev, violations),
            AlgoChecker::Bto(c) => c.observe(at, ev, violations),
            AlgoChecker::Structural => structural_observe(at, ev, violations),
        }
        if let Some(rc) = &mut self.replica {
            rc.observe(at, ev, violations);
        }
        self.vsr.observe(ev);
    }

    /// Run the end-of-stream serializability check and report.
    pub fn finish(self) -> OracleReport {
        let Oracle {
            opts,
            vsr,
            mut violations,
            events,
            ..
        } = self;
        let vsr_outcome = vsr.finalize(opts.vsr_budget);
        if let VsrOutcome::NotSerializable { detail } = &vsr_outcome {
            if opts.algorithm != Algorithm::NoDataContention {
                violations.push(Violation {
                    kind: ViolationKind::NotSerializable,
                    at: SimTime(0),
                    txn: None,
                    node: None,
                    page: None,
                    detail: detail.clone(),
                });
            }
        }

        let total_violations = violations.len();
        violations.truncate(opts.max_violations);
        OracleReport {
            algorithm: opts.algorithm,
            events,
            violations,
            total_violations,
            vsr: vsr_outcome,
            witness_overflow: 0,
        }
    }
}

impl WitnessSink for Oracle {
    fn push(&mut self, at: SimTime, event: WitnessEvent) {
        self.observe(at, &event);
    }
}

/// Replay a recorded `stream` through the invariant checkers for
/// `opts.algorithm`.
pub fn check_stream(opts: &CheckOptions, stream: &WitnessStream) -> OracleReport {
    let mut oracle = Oracle::new(opts);
    for (at, ev) in stream {
        oracle.observe(*at, ev);
    }
    oracle.finish()
}

/// Check a full [`OracleRecording`] against the config that produced it.
pub fn check_recording(config: &Config, recording: &OracleRecording) -> OracleReport {
    let mut report = check_stream(&check_options_for(config), &recording.witness);
    report.witness_overflow = recording.witness_overflow;
    report
}

/// Run the simulator with an [`Oracle`] fed online and report in one step:
/// the primary entry point for the fuzz driver, the shrinker and the CLI
/// gate. The recording carries the report; its `witness` and `templates`
/// are empty and `witness_overflow` is `0`, because neither the stream nor
/// the workload is stored. Use [`ddbm_core::run_oracle`] for a run to
/// shrink or replay.
pub fn run_and_check(
    config: Config,
    script: Option<Vec<TxnTemplate>>,
    hooks: TestHooks,
) -> Result<(OracleRecording, OracleReport), ConfigError> {
    let oracle = Oracle::new(&check_options_for(&config));
    let (recording, oracle) = run_witnessed(config, script, hooks, false, oracle)?;
    Ok((recording, oracle.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddbm_cc::Ts;
    use ddbm_config::{FileId, NodeId, PageId, TxnId};
    use ddbm_core::TxnPhase;

    fn page(n: u64) -> PageId {
        PageId {
            file: FileId(0),
            page: n,
        }
    }

    fn ts(t: u64, id: u64) -> Ts {
        Ts::new(t, TxnId(id))
    }

    fn access(
        txn: u64,
        node: usize,
        pg: u64,
        write: bool,
        reply: WitnessReply,
        order: u64,
    ) -> WitnessEvent {
        WitnessEvent::Access {
            txn: TxnId(txn),
            run: 1,
            node: NodeId(node),
            page: page(pg),
            write,
            reply,
            initial_ts: ts(order, txn),
            run_ts: ts(order, txn),
        }
    }

    fn phase(txn: u64, p: TxnPhase) -> WitnessEvent {
        WitnessEvent::Phase {
            txn: TxnId(txn),
            run: 1,
            phase: p,
        }
    }

    fn stamped(evs: Vec<WitnessEvent>) -> WitnessStream {
        evs.into_iter()
            .enumerate()
            .map(|(i, e)| (SimTime(i as u64), e))
            .collect()
    }

    #[test]
    fn empty_stream_is_clean() {
        let r = check_stream(
            &CheckOptions::new(Algorithm::TwoPhaseLocking),
            &WitnessStream::new(),
        );
        assert!(r.clean());
        assert_eq!(r.vsr, VsrOutcome::Trivial);
    }

    #[test]
    fn early_commit_release_is_flagged() {
        let stream = stamped(vec![
            phase(1, TxnPhase::Executing),
            access(1, 1, 0, true, WitnessReply::Granted, 10),
            WitnessEvent::Release {
                txn: TxnId(1),
                run: 1,
                node: NodeId(1),
                commit: true,
            },
        ]);
        let r = check_stream(&CheckOptions::new(Algorithm::TwoPhaseLocking), &stream);
        assert!(!r.clean());
        assert!(r
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::ReleaseOutsidePhase));
    }

    #[test]
    fn conflicting_write_grant_is_flagged() {
        let stream = stamped(vec![
            phase(1, TxnPhase::Executing),
            phase(2, TxnPhase::Executing),
            access(1, 1, 0, true, WitnessReply::Granted, 10),
            access(2, 1, 0, true, WitnessReply::Granted, 20),
        ]);
        let r = check_stream(&CheckOptions::new(Algorithm::TwoPhaseLocking), &stream);
        assert!(r
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::ConflictingGrant));
    }

    #[test]
    fn lost_update_is_not_serializable() {
        // r1(p) r2(p) w1(p) w2(p) under 2PL, both committed.
        let install = |txn: u64| WitnessEvent::Install {
            txn: TxnId(txn),
            run: 1,
            node: NodeId(1),
            page: page(0),
            run_ts: ts(txn, txn),
            commit_ts: ts(txn, txn),
        };
        let committed = |txn: u64| WitnessEvent::Committed {
            txn: TxnId(txn),
            run: 1,
            run_ts: ts(txn, txn),
            commit_ts: ts(txn, txn),
        };
        let stream = stamped(vec![
            phase(1, TxnPhase::Executing),
            phase(2, TxnPhase::Executing),
            access(1, 1, 0, false, WitnessReply::Granted, 1),
            access(2, 1, 0, false, WitnessReply::Granted, 2),
            install(1),
            install(2),
            committed(1),
            committed(2),
        ]);
        let r = check_stream(&CheckOptions::new(Algorithm::TwoPhaseLocking), &stream);
        assert!(
            r.violations
                .iter()
                .any(|v| v.kind == ViolationKind::NotSerializable),
            "{}",
            r.render()
        );
    }

    #[test]
    fn nodc_contention_is_flagged() {
        let stream = stamped(vec![
            phase(1, TxnPhase::Executing),
            access(1, 1, 0, false, WitnessReply::Blocked, 10),
        ]);
        let r = check_stream(&CheckOptions::new(Algorithm::NoDataContention), &stream);
        assert!(r
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::UnsanctionedContention));
    }

    #[test]
    fn bto_out_of_order_grant_is_flagged() {
        // A read at ts 20 raises rts; a later write at ts 10 must be
        // rejected — witnessing it granted is a timestamp-order violation.
        let stream = stamped(vec![
            phase(2, TxnPhase::Executing),
            phase(1, TxnPhase::Executing),
            access(2, 1, 0, false, WitnessReply::Granted, 20),
            access(1, 1, 0, true, WitnessReply::Granted, 10),
        ]);
        let r = check_stream(
            &CheckOptions::new(Algorithm::BasicTimestampOrdering),
            &stream,
        );
        assert!(r
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::TimestampOrder));
    }

    #[test]
    fn wound_wait_priority_inversion_is_flagged() {
        // The requester (ts 20) is *younger* than its victim (ts 10):
        // wound-wait must let it wait, not wound.
        let stream = stamped(vec![
            phase(1, TxnPhase::Executing),
            phase(2, TxnPhase::Executing),
            access(1, 1, 0, true, WitnessReply::Granted, 10),
            access(2, 1, 0, true, WitnessReply::Blocked, 20),
            WitnessEvent::Wound {
                victim: TxnId(1),
                victim_initial_ts: ts(10, 1),
                requester: Some(TxnId(2)),
                requester_initial_ts: Some(ts(20, 2)),
                node: NodeId(1),
            },
        ]);
        let r = check_stream(&CheckOptions::new(Algorithm::WoundWait), &stream);
        assert!(r
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::WoundPriority));
    }

    #[test]
    fn sanctioned_wound_is_clean_at_the_wound() {
        // Requester ts 10 older than victim ts 20: a legal wound.
        let stream = stamped(vec![
            phase(2, TxnPhase::Executing),
            phase(1, TxnPhase::Executing),
            access(2, 1, 0, true, WitnessReply::Granted, 20),
            access(1, 1, 0, true, WitnessReply::Blocked, 10),
            WitnessEvent::Wound {
                victim: TxnId(2),
                victim_initial_ts: ts(20, 2),
                requester: Some(TxnId(1)),
                requester_initial_ts: Some(ts(10, 1)),
                node: NodeId(1),
            },
        ]);
        let r = check_stream(&CheckOptions::new(Algorithm::WoundWait), &stream);
        assert!(r.clean(), "unexpected: {}", r.render());
    }
}
