//! Measuring single layers from outside, through their public functions.
//!
//! * [`replay_cc`] feeds a run's witnessed CC calls into fresh
//!   `ddbm-cc` managers and checks every reply against the witnessed one.
//! * [`replay_templates`] regenerates a run's transaction plans with
//!   `generate_template_into` on the run's own workload stream.
//! * [`count_protocol`] counts what the simulated machine did, from a
//!   [`TraceLog`].
//! * [`time_checkers`] runs each `ddbm-oracle` checker over a witness
//!   stream on its own, inside its own span.

use crate::spans::Spans;
use ddbm_cc::{make_manager_with, AccessReply, CcManager, Ts, TxnMeta};
use ddbm_config::{Algorithm, Config, TxnId};
use ddbm_core::workload::generate_template_into;
use ddbm_core::{TraceEvent, TraceLog, TxnTemplate, WitnessEvent, WitnessReply, WitnessStream};
use ddbm_oracle::{
    check_options_for, BtoChecker, LockChecker, LockVariant, PhaseTracker, ReplicaChecker,
    VersionOrder, VsrCollector,
};
use denet::{FxHashMap, SimRng};
use std::time::Instant;

/// What replaying one run's CC calls did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CcReplay {
    /// Access requests replayed.
    pub requests: u64,
    /// Requests the manager answered `Blocked`.
    pub blocked: u64,
    /// Requests the manager answered `Rejected`.
    pub rejected: u64,
    /// Commit-time certifications replayed.
    pub certifies: u64,
    /// Commit and abort releases replayed.
    pub releases: u64,
    /// Replies (access or certification) that differ from the witness.
    pub mismatches: u64,
    /// Wall time of the replay loop.
    pub seconds: f64,
}

impl CcReplay {
    /// Every CC call replayed.
    pub fn calls(&self) -> u64 {
        self.requests + self.certifies + self.releases
    }
}

/// Replay the `Access`, `Certify`, `Release` and `NodeCrash` events of
/// `stream` into fresh managers built and pre-sized as the simulator builds
/// them. A `Certify` event carries no initial timestamp, so it is taken
/// from the transaction's earlier `Access` events.
pub fn replay_cc(config: &Config, stream: &WitnessStream) -> CcReplay {
    let placement = config
        .placement()
        .expect("benchmark configs have valid placements");
    let files = placement.files_per_node(config.system.num_proc_nodes);
    let fresh = |node: usize| -> Box<dyn CcManager> {
        let mut m = make_manager_with(config.algorithm, config.system.lock_barging);
        if node > 0 {
            m.preallocate(
                files[node - 1] * config.database.pages_per_file as usize,
                config.max_txn_accesses(),
            );
        }
        m
    };
    let mut managers: Vec<Box<dyn CcManager>> = (0..config.system.num_nodes()).map(fresh).collect();
    let mut initial_ts: FxHashMap<TxnId, Ts> = FxHashMap::default();
    let mut r = CcReplay::default();
    let start = Instant::now();
    for (_, ev) in stream {
        match *ev {
            WitnessEvent::Access {
                txn,
                node,
                page,
                write,
                reply,
                initial_ts: its,
                run_ts,
                ..
            } => {
                initial_ts.insert(txn, its);
                let meta = TxnMeta {
                    id: txn,
                    initial_ts: its,
                    run_ts,
                };
                let got = match managers[node.0].request_access(&meta, page, write).reply {
                    AccessReply::Granted => WitnessReply::Granted,
                    AccessReply::Blocked => {
                        r.blocked += 1;
                        WitnessReply::Blocked
                    }
                    AccessReply::Rejected => {
                        r.rejected += 1;
                        WitnessReply::Rejected
                    }
                };
                r.requests += 1;
                r.mismatches += u64::from(got != reply);
            }
            WitnessEvent::Certify {
                txn,
                node,
                commit_ts,
                run_ts,
                ok,
                ..
            } => {
                let meta = TxnMeta {
                    id: txn,
                    initial_ts: initial_ts.get(&txn).copied().unwrap_or(run_ts),
                    run_ts,
                };
                r.certifies += 1;
                r.mismatches += u64::from(managers[node.0].certify(&meta, commit_ts) != ok);
            }
            WitnessEvent::Release {
                txn, node, commit, ..
            } => {
                r.releases += 1;
                let m = &mut managers[node.0];
                if commit {
                    m.commit(txn);
                } else {
                    m.abort(txn);
                }
            }
            WitnessEvent::NodeCrash { node } => managers[node.0] = fresh(node.0),
            _ => {}
        }
    }
    r.seconds = start.elapsed().as_secs_f64();
    r
}

/// What regenerating one run's transaction plans did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TemplateReplay {
    /// `generate_template_into` calls.
    pub calls: u64,
    /// Page accesses in the generated (logical) plans.
    pub accesses: u64,
    /// Generated plans that differ from the recorded ones. Checked only for
    /// single-copy runs, whose recorded plans are the generated ones.
    pub mismatches: u64,
    /// Summed wall time of the calls.
    pub seconds: f64,
}

/// Regenerate `recorded.len()` plans in submission order from the run's
/// `"workload"` stream, each for the relation its recorded plan used.
pub fn replay_templates(config: &Config, recorded: &[TxnTemplate]) -> TemplateReplay {
    let placement = config
        .placement()
        .expect("benchmark configs have valid placements");
    let groups: Vec<_> = (0..config.database.num_relations)
        .map(|rel| placement.cohort_groups(rel))
        .collect();
    let compare = !config.replication.enabled();
    let mut rng = SimRng::derive(config.control.seed, "workload");
    let mut scratch = Vec::new();
    let mut out = TxnTemplate {
        relation: 0,
        cohorts: Vec::new(),
    };
    let mut r = TemplateReplay::default();
    for t in recorded {
        let start = Instant::now();
        generate_template_into(
            config,
            &groups[t.relation],
            t.relation,
            &mut rng,
            &mut scratch,
            &mut out,
        );
        r.seconds += start.elapsed().as_secs_f64();
        r.calls += 1;
        r.accesses += out.total_accesses() as u64;
        r.mismatches += u64::from(compare && out != *t);
    }
    r
}

/// Counts of what the simulated machine did, from its event trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolCounts {
    /// Messages handed to the network.
    pub msgs: u64,
    /// Cohorts that blocked on a CC request.
    pub lock_waits: u64,
    /// Coordinator phase transitions (submissions and restarts included).
    pub phase_changes: u64,
    /// Node CPU busy/idle transitions.
    pub cpu_transitions: u64,
    /// Node disk-array busy/idle transitions.
    pub disk_transitions: u64,
}

/// Count the events of a sealed trace by kind.
pub fn count_protocol(log: &TraceLog) -> ProtocolCounts {
    let mut c = ProtocolCounts::default();
    for (_, ev) in &log.events {
        match ev {
            TraceEvent::MsgSend { .. } => c.msgs += 1,
            TraceEvent::LockWaitBegin { .. } => c.lock_waits += 1,
            TraceEvent::Phase { .. } => c.phase_changes += 1,
            TraceEvent::CpuBusy { .. } => c.cpu_transitions += 1,
            TraceEvent::DiskBusy { .. } => c.disk_transitions += 1,
            TraceEvent::Committed { .. }
            | TraceEvent::LockWaitEnd { .. }
            | TraceEvent::MsgArrive { .. } => {}
        }
    }
    c
}

/// Wall time of each `ddbm-oracle` checker over one stream, and what they
/// found.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CheckTimes {
    /// `PhaseTracker::observe` over the stream.
    pub phase_s: f64,
    /// `LockChecker::observe` (locking family only).
    pub lock_s: f64,
    /// `BtoChecker::observe` (BTO only).
    pub bto_s: f64,
    /// `VsrCollector::observe` plus `finalize`.
    pub vsr_s: f64,
    /// `ReplicaChecker::observe` (replicated runs only).
    pub replica_s: f64,
    /// Violations the checkers reported, a non-serializable verdict
    /// included except under NO_DC (where it is expected).
    pub violations: u64,
}

impl CheckTimes {
    /// Summed checker time.
    pub fn total_s(&self) -> f64 {
        self.phase_s + self.lock_s + self.bto_s + self.vsr_s + self.replica_s
    }
}

/// Run each public checker `check_stream` would run for `config` over
/// `stream`, one pass per checker, each inside a span under `parent`. (The
/// crate-private structural and certification-rule checks are not timed.)
pub fn time_checkers(
    config: &Config,
    stream: &WitnessStream,
    spans: &Spans,
    parent: u32,
    sim: u32,
) -> CheckTimes {
    let opts = check_options_for(config);
    let mut out = Vec::new();
    let mut t = CheckTimes::default();
    let under = Some(parent);
    let sim = Some(sim);
    t.phase_s = spans
        .record("ddbm-oracle.phase", under, sim, |_| {
            let mut c = PhaseTracker::new();
            for (at, ev) in stream {
                c.observe(*at, ev, opts.faults, &mut out);
            }
        })
        .1;
    if let Some(variant) = LockVariant::of(opts.algorithm) {
        t.lock_s = spans
            .record("ddbm-oracle.lock", under, sim, |_| {
                let mut c = LockChecker::new(variant, opts.lock_barging);
                for (at, ev) in stream {
                    c.observe(*at, ev, &mut out);
                }
            })
            .1;
    } else if opts.algorithm == Algorithm::BasicTimestampOrdering {
        t.bto_s = spans
            .record("ddbm-oracle.bto", under, sim, |_| {
                let mut c = BtoChecker::new();
                for (at, ev) in stream {
                    c.observe(*at, ev, &mut out);
                }
            })
            .1;
    }
    if opts.replication.enabled() && !opts.faults {
        t.replica_s = spans
            .record("ddbm-oracle.replica", under, sim, |_| {
                let mut c = ReplicaChecker::new(&opts.replication);
                for (at, ev) in stream {
                    c.observe(*at, ev, &mut out);
                }
            })
            .1;
    }
    let (verdict, vsr_s) = spans.record("ddbm-oracle.vsr", under, sim, |_| {
        let mut c = VsrCollector::new(VersionOrder::for_algorithm(opts.algorithm));
        for (_, ev) in stream {
            c.observe(ev);
        }
        c.finalize(opts.vsr_budget)
    });
    t.vsr_s = vsr_s;
    let vsr_violation = !verdict.acceptable() && opts.algorithm != Algorithm::NoDataContention;
    t.violations = out.len() as u64 + u64::from(vsr_violation);
    t
}
