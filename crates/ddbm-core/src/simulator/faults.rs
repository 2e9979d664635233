//! Fault injection (extension): node crashes and recoveries, disk stalls,
//! and the coordinator's commit-protocol response timeout. Message drops
//! and delays are drawn by the network manager in `resources`.

use super::{fresh_cc_and_buffer, Simulator};
use crate::protocol::{AbortCause, CohortIdx, Event, MsgKind, RunId};
use crate::txn::TxnPhase;
use crate::witness::WitnessEvent;
use ddbm_config::{NodeId, TxnId};
use denet::SimTime;
use std::rc::Rc;

impl Simulator {
    /// A planned crash begins. The node instantly loses everything volatile:
    /// CPU queues, disk queues (including in-service transfers), CC manager
    /// state, and the buffer pool. The coordinator (which in this model
    /// observes crashes via its own timeout machinery, here collapsed into
    /// one deterministic sweep at the crash instant) marks every in-flight
    /// cohort at the node as lost, aborts runs that can still abort, and
    /// synthesizes the acknowledgements that dead cohorts can never send.
    pub(super) fn on_node_down(&mut self, now: SimTime, node: NodeId) {
        if !self.nodes[node.0].up {
            return; // overlapping windows are filtered at plan time; be safe
        }
        let st = &mut self.nodes[node.0];
        st.up = false;
        st.epoch += 1;
        st.cpu.clear(now);
        st.disks.clear_all(now);
        (st.cc, st.buffer) = fresh_cc_and_buffer(&self.config, st.max_accesses);
        if let Some(o) = &mut self.obs {
            o.witness(now, || WitnessEvent::NodeCrash { node });
        }
        self.metrics.faults.crashes += 1;
        self.resched_cpu(node);
        self.resched_disks(node);
        // Sweep the coordinator's table for cohorts that lived at this node.
        // Two passes (collect, then act) because acting sends messages, which
        // needs `&mut self`. Slab iteration order is deterministic.
        let mut aborts: Vec<(TxnId, RunId)> = Vec::new();
        let mut synths: Vec<TxnId> = Vec::new();
        let mut mid_commit = 0u64;
        for t in self.txns.values_mut() {
            let Some(ci) = t.cohort_at(node) else {
                continue;
            };
            if !t.cohorts[ci].loaded || t.phase == TxnPhase::WaitingRestart {
                continue; // nothing of this run ever reached the node
            }
            t.cohorts[ci].lost = true;
            match t.phase {
                TxnPhase::Executing => aborts.push((t.id, t.run)),
                TxnPhase::Preparing => {
                    mid_commit += 1;
                    aborts.push((t.id, t.run));
                }
                // Phase 2 (either direction) and the abort protocol run to
                // completion on the surviving cohorts; the dead cohort's
                // acknowledgement is synthesized (presumed commit/abort).
                TxnPhase::Committing | TxnPhase::AbortingVote | TxnPhase::Aborting => {
                    if t.phase != TxnPhase::Aborting {
                        mid_commit += 1;
                    }
                    if !t.cohorts[ci].acked {
                        t.cohorts[ci].acked = true;
                        synths.push(t.id);
                    }
                }
                TxnPhase::WaitingRestart => unreachable!("filtered above"),
            }
        }
        self.metrics.faults.mid_commit_crashes += mid_commit;
        for (id, run) in aborts {
            self.on_abort_request(now, id, run, AbortCause::NodeCrash);
        }
        for id in synths {
            self.count_ack(now, id);
        }
        self.restart_snoop();
    }

    /// A crashed node finishes recovery: its partitions are re-admitted (new
    /// cohorts can load there again; messages parked by the retry loop start
    /// landing).
    pub(super) fn on_node_up(&mut self, node: NodeId) {
        if self.nodes[node.0].up {
            return;
        }
        self.nodes[node.0].up = true;
        self.metrics.faults.recoveries += 1;
        self.restart_snoop();
    }

    /// A planned disk-stall interval begins: every disk at the node defers
    /// completions (including the transfers currently in service) to `until`.
    pub(super) fn on_disk_stall(&mut self, node: NodeId, until: SimTime) {
        if !self.nodes[node.0].up {
            return; // the crash already destroyed the queued work
        }
        self.metrics.faults.disk_stalls += 1;
        self.nodes[node.0].disks.stall_all(until);
        self.resched_disks(node);
    }

    /// With fault injection on, start the coordinator's response timer for
    /// run `run` of `id`.
    pub(super) fn arm_cohort_timeout(&mut self, id: TxnId, run: RunId) {
        if self.faults_enabled {
            self.calendar.schedule_after(
                self.config.faults.cohort_timeout,
                Event::CohortTimeout { txn: id, run },
            );
        }
    }

    /// The commit-protocol response timeout expired for this run. In the
    /// vote phase the coordinator presumes abort (a cohort or its node is
    /// gone); in the decision/abort phases the decision is retransmitted to
    /// every cohort that has not acknowledged — the path that lets dropped
    /// decisions and crashed-then-recovered nodes converge.
    pub(super) fn on_cohort_timeout(&mut self, now: SimTime, id: TxnId, run: RunId) {
        let Some(txn) = self.txns.get(id) else {
            return;
        };
        if txn.run != run {
            return;
        }
        match txn.phase {
            TxnPhase::Executing | TxnPhase::WaitingRestart => {}
            TxnPhase::Preparing => {
                self.on_abort_request(now, id, run, AbortCause::CohortTimeout);
            }
            TxnPhase::Committing | TxnPhase::AbortingVote | TxnPhase::Aborting => {
                // The decision to retransmit; `None` while aborting.
                let decision = match txn.phase {
                    TxnPhase::Aborting => None,
                    phase => Some(phase == TxnPhase::Committing),
                };
                let template = Rc::clone(&txn.template);
                let mut synths: Vec<CohortIdx> = Vec::new();
                let mut resend: Vec<(CohortIdx, NodeId)> = Vec::new();
                for (cohort, spec) in template.cohorts.iter().enumerate() {
                    let c = &txn.cohorts[cohort];
                    if c.acked || !c.loaded {
                        continue;
                    }
                    if c.lost {
                        synths.push(cohort); // crash sweep acks these; be safe
                    } else {
                        resend.push((cohort, spec.node));
                    }
                }
                for cohort in synths {
                    if let Some(t) = self.txns.get_mut(id) {
                        t.cohorts[cohort].acked = true;
                    }
                    self.count_ack(now, id);
                }
                for (cohort, node) in resend {
                    let kind = match decision {
                        Some(commit) => MsgKind::Decision {
                            txn: id,
                            run,
                            cohort,
                            commit,
                        },
                        None => MsgKind::AbortCohort {
                            txn: id,
                            run,
                            cohort,
                        },
                    };
                    self.send(now, NodeId::HOST, node, kind);
                }
                self.rearm_cohort_timeout(id, run);
            }
        }
    }

    /// Keep the response timer running while acknowledgements are pending.
    fn rearm_cohort_timeout(&mut self, id: TxnId, run: RunId) {
        let pending = self.txns.get(id).is_some_and(|t| {
            t.run == run
                && t.acks_outstanding > 0
                && matches!(
                    t.phase,
                    TxnPhase::Committing | TxnPhase::AbortingVote | TxnPhase::Aborting
                )
        });
        if pending {
            self.arm_cohort_timeout(id, run);
        }
    }
}
