//! The transaction manager's coordinator side (paper §3.3): admission at
//! the host, restarts, and the coordinator half of the centralized
//! two-phase commit and abort protocols.

use super::Simulator;
use crate::protocol::{AbortCause, CohortIdx, CpuJob, Event, MsgKind, RunId};
use crate::txn::{CohortRun, TxnPhase, TxnRuntime};
use crate::workload::generate_template_into;
use ddbm_cc::Ts;
use ddbm_config::{ExecPattern, NodeId, TxnId};
use denet::SimTime;
use std::rc::Rc;

impl Simulator {
    pub(super) fn submit_transaction(&mut self, now: SimTime, terminal: usize) {
        if self.draining {
            return; // chaos epilogue: no new admissions, just finish the rest
        }
        // Under replication the logical plan stays with the transaction, for
        // re-routing at restart; `unavailable` marks a plan with no live
        // read/write replica set for some file.
        let (template, logical, unavailable) = if let Some(script) = &mut self.script {
            // Oracle replay: fixed templates in submission order; once the
            // script runs dry the terminal simply stops submitting. Scripted
            // templates are already physical (replica routing baked in at
            // recording time), so they are never re-materialized.
            let Some(t) = script.next() else {
                return;
            };
            (self.pooled_template(t), None, false)
        } else {
            let relation = self.config.relation_of_terminal(terminal);
            let mut tpl = self.tpl_pool.take();
            {
                let out = Rc::get_mut(&mut tpl).expect("pooled template is uniquely owned");
                let mut scratch = std::mem::take(&mut self.sample_scratch);
                generate_template_into(
                    &self.config,
                    &self.cohort_groups[relation],
                    relation,
                    &mut self.rng_work,
                    &mut scratch,
                    out,
                );
                self.sample_scratch = scratch;
            }
            if self.replication_on {
                match self.route(&tpl) {
                    Ok(t) => (t, Some(tpl), false),
                    Err(_file) => (Rc::clone(&tpl), Some(tpl), true),
                }
            } else {
                (tpl, None, false)
            }
        };
        if !unavailable {
            if let Some(log) = &mut self.template_log {
                log.push((*template).clone());
            }
        }
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        let mut cohorts = self.cohort_pool.take();
        cohorts.resize_with(template.cohorts.len(), CohortRun::default);
        let mut txn = TxnRuntime::with_cohorts(id, terminal, template, cohorts, now);
        txn.logical = logical;
        self.txns.insert(txn);
        if let Some(o) = &mut self.obs {
            o.phase(now, id, 1, TxnPhase::Executing);
        }
        if unavailable {
            self.abort_unavailable(now, id);
            return;
        }
        // Run 1 pays the coordinator process-startup cost at the host.
        let startup = self.config.system.inst_per_startup as f64;
        self.cpu_shared(
            now,
            NodeId::HOST,
            CpuJob::CoordStartup { txn: id, run: 1 },
            startup,
        );
    }

    /// Replication: no live read/write replica set exists for some file, so
    /// the run aborts before doing any work and retries after the usual
    /// restart delay.
    fn abort_unavailable(&mut self, now: SimTime, id: TxnId) {
        if let Some(txn) = self.txns.get_mut(id) {
            txn.abort_cause = Some(AbortCause::ReplicaUnavailable);
        }
        self.complete_abort(now, id);
    }

    /// Return a finished transaction's heap parts to the freelists. The
    /// logical handle is dropped (or pooled) before the physical one, so a
    /// factor-1 run sharing one plan `Rc` between the two sees the survivor
    /// become uniquely owned and reusable. A committed plan that a
    /// write-back chain still walks is pooled by the chain's end instead
    /// (see `CpuJob::UpdateInit`).
    fn recycle_txn(&mut self, txn: TxnRuntime) {
        let routed = txn.routed();
        let TxnRuntime {
            template,
            logical,
            cohorts,
            ..
        } = txn;
        if let Some(l) = logical.filter(|_| routed) {
            self.put_template(l, false);
        }
        self.put_template(template, routed);
        self.cohort_pool.put(cohorts);
    }

    pub(super) fn restart_txn(&mut self, now: SimTime, id: TxnId) {
        let Some(txn) = self.txns.get_mut(id) else {
            return;
        };
        debug_assert_eq!(txn.phase, TxnPhase::WaitingRestart);
        txn.begin_run(now);
        let run = txn.run;
        if let Some(o) = &mut self.obs {
            o.phase(now, id, run, TxnPhase::Executing);
        }
        // The coordinator process survives restarts; only the cohorts are
        // re-initiated, so no CoordStartup cost here.
        //
        // Replication under faults: the live-replica set may have changed
        // since the last run, so the logical plan is re-routed before the
        // cohorts load (at factor 1 this only re-checks availability).
        // Fault-free replicated runs keep their original routing
        // (re-materializing would advance the read cursor and pick the same
        // live set anyway), which also keeps recorded oracle workloads
        // aligned with their replays.
        if self.replication_on && self.faults_enabled {
            let logical = self.txns.get(id).and_then(|t| t.logical.clone());
            if let Some(logical) = logical {
                match self.route(&logical) {
                    Ok(t) => {
                        let old = self.txns.get_mut(id).map(|txn| txn.replace_template(t));
                        if let Some(old) = old {
                            let routed = !Rc::ptr_eq(&old, &logical);
                            self.put_template(old, routed);
                        }
                    }
                    Err(_file) => {
                        self.abort_unavailable(now, id);
                        return;
                    }
                }
            }
        }
        self.load_cohorts(now, id, run);
    }

    /// Send `LoadCohort` to the cohorts that should start now: all of them
    /// for parallel execution, just the first for sequential.
    pub(super) fn load_cohorts(&mut self, now: SimTime, id: TxnId, run: RunId) {
        let Some(txn) = self.txns.get(id) else {
            return;
        };
        let count = match self.config.workload.exec_pattern {
            ExecPattern::Parallel => txn.template.cohorts.len(),
            ExecPattern::Sequential => 1,
        };
        // Hold the (immutable, Rc-shared) plan across the sends instead of
        // collecting a target list per fan-out.
        let template = Rc::clone(&txn.template);
        for (cohort, spec) in template.cohorts.iter().take(count).enumerate() {
            self.load_one_cohort(now, id, run, cohort, spec.node);
        }
    }

    fn load_one_cohort(
        &mut self,
        now: SimTime,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
        node: NodeId,
    ) {
        if let Some(txn) = self.txns.get_mut(id) {
            txn.cohorts[cohort].loaded = true;
        }
        self.send(
            now,
            NodeId::HOST,
            node,
            MsgKind::LoadCohort {
                txn: id,
                run,
                cohort,
            },
        );
    }

    pub(super) fn on_cohort_done(
        &mut self,
        now: SimTime,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
    ) {
        let Some(txn) = self.txns.get_mut(id) else {
            return;
        };
        if txn.run != run || txn.phase != TxnPhase::Executing {
            return;
        }
        txn.cohorts[cohort].done = true;
        if !txn.all_done() {
            // Sequential execution: fire up the next cohort.
            if self.config.workload.exec_pattern == ExecPattern::Sequential {
                if let Some(next) = txn.cohorts.iter().position(|c| !c.loaded) {
                    let node = txn.template.cohorts[next].node;
                    self.load_one_cohort(now, id, run, next, node);
                }
            }
            return;
        }
        // All cohorts done: begin phase 1 of commit with a globally unique
        // commit timestamp (used by OPT certification).
        txn.phase = TxnPhase::Preparing;
        txn.votes_received = 0;
        txn.all_yes = true;
        let commit_ts = Ts::new(now.0, id);
        txn.commit_ts = Some(commit_ts);
        let template = Rc::clone(&txn.template);
        if let Some(o) = &mut self.obs {
            o.phase(now, id, run, TxnPhase::Preparing);
        }
        for (cohort, spec) in template.cohorts.iter().enumerate() {
            self.send(
                now,
                NodeId::HOST,
                spec.node,
                MsgKind::Prepare {
                    txn: id,
                    run,
                    cohort,
                    commit_ts,
                },
            );
        }
        // One response timer covers the whole commit protocol: it presumes
        // abort if votes stall and re-arms itself through phase 2 until the
        // final acknowledgement arrives.
        self.arm_cohort_timeout(id, run);
    }

    pub(super) fn on_vote(&mut self, now: SimTime, id: TxnId, run: RunId, yes: bool) {
        let Some(txn) = self.txns.get_mut(id) else {
            return;
        };
        if txn.run != run || txn.phase != TxnPhase::Preparing {
            return;
        }
        txn.votes_received += 1;
        txn.all_yes &= yes;
        if !yes {
            // Keep a more specific cause (a crash detected at Prepare time)
            // if one was already recorded; otherwise this is certification.
            txn.abort_cause.get_or_insert(AbortCause::Validation);
        }
        if txn.votes_received < txn.template.cohorts.len() {
            return;
        }
        let commit = txn.all_yes;
        txn.phase = if commit {
            TxnPhase::Committing
        } else {
            TxnPhase::AbortingVote
        };
        txn.acks_outstanding = txn.template.cohorts.len();
        let new_phase = txn.phase;
        let template = Rc::clone(&txn.template);
        if let Some(o) = &mut self.obs {
            o.phase(now, id, run, new_phase);
        }
        for (cohort, spec) in template.cohorts.iter().enumerate() {
            self.send(
                now,
                NodeId::HOST,
                spec.node,
                MsgKind::Decision {
                    txn: id,
                    run,
                    cohort,
                    commit,
                },
            );
        }
    }

    /// A cohort acknowledged the decision (`Ack`) or, with `dismantled`,
    /// its dismantling (`AbortAck`). Retransmission makes duplicate acks
    /// possible, and a crash sweep may have synthesized this cohort's ack
    /// already: count each cohort once.
    pub(super) fn on_ack(
        &mut self,
        now: SimTime,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
        dismantled: bool,
    ) {
        let Some(txn) = self.txns.get_mut(id) else {
            return;
        };
        let expected = if dismantled {
            txn.phase == TxnPhase::Aborting
        } else {
            matches!(txn.phase, TxnPhase::Committing | TxnPhase::AbortingVote)
        };
        if txn.run != run || !expected || txn.cohorts[cohort].acked {
            return;
        }
        txn.cohorts[cohort].acked = true;
        self.count_ack(now, id);
    }

    /// Count one acknowledgement — received, or synthesized for a cohort
    /// that crashed after the decision point — against the coordinator's
    /// outstanding total. The last one completes the commit or the abort.
    pub(super) fn count_ack(&mut self, now: SimTime, id: TxnId) {
        let Some(txn) = self.txns.get_mut(id) else {
            return;
        };
        debug_assert!(txn.acks_outstanding > 0, "an ack with nothing pending");
        txn.acks_outstanding -= 1;
        if txn.acks_outstanding > 0 {
            return;
        }
        match txn.phase {
            TxnPhase::Committing => self.complete_commit(now, id),
            TxnPhase::AbortingVote | TxnPhase::Aborting => self.complete_abort(now, id),
            _ => {}
        }
    }

    /// The transaction is durably committed: record metrics, free state, and
    /// put the terminal back to thinking.
    fn complete_commit(&mut self, now: SimTime, id: TxnId) {
        let txn = self.txns.remove(id).expect("committing txn exists");
        let response = now.since(txn.origin);
        self.metrics.record_commit(response);
        if let Some(o) = &mut self.obs {
            let run_ts = txn.meta().run_ts;
            let commit_ts = txn.commit_ts.unwrap_or(Ts::ZERO);
            o.committed(now, id, txn.run, run_ts, commit_ts, response);
        }
        let delay = self.think_delay();
        self.calendar.schedule_after(
            delay,
            Event::TerminalSubmit {
                terminal: txn.terminal,
            },
        );
        self.recycle_txn(txn);
        self.check_progress(now);
    }

    /// An aborted run is fully dismantled: count it and schedule the rerun
    /// after one observed average response time (paper §3.3).
    fn complete_abort(&mut self, now: SimTime, id: TxnId) {
        let Some(txn) = self.txns.get_mut(id) else {
            return;
        };
        txn.phase = TxnPhase::WaitingRestart;
        let fallback = now.since(txn.origin);
        let cause = txn.abort_cause.take().unwrap_or(AbortCause::Validation);
        self.metrics.record_abort(cause);
        if let Some(o) = &mut self.obs {
            o.aborted(now, id, txn.run, cause, now.since(txn.run_start));
        }
        let delay = self.metrics.restart_delay(fallback);
        self.calendar
            .schedule_after(delay, Event::Restart { txn: id });
    }

    pub(super) fn on_abort_request(
        &mut self,
        now: SimTime,
        id: TxnId,
        run: RunId,
        cause: AbortCause,
    ) {
        let Some(txn) = self.txns.get_mut(id) else {
            return; // already committed
        };
        if txn.run != run || txn.abort_in_progress() || txn.wound_immune() {
            return;
        }
        // Kill this run: dismantle every cohort loaded so far. Cohorts lost
        // to a crash have nothing left to dismantle — their acknowledgement
        // is implicit, so only the surviving cohorts are counted and told.
        txn.phase = TxnPhase::Aborting;
        txn.abort_cause = Some(cause);
        if let Some(o) = &mut self.obs {
            o.phase(now, id, run, TxnPhase::Aborting);
        }
        let mut live = 0usize;
        for c in &mut txn.cohorts {
            if !c.loaded {
                continue;
            }
            if c.lost {
                c.acked = true;
            } else {
                live += 1;
            }
        }
        txn.acks_outstanding = live;
        if live == 0 {
            // No surviving cohort ever started (abort raced cohort loading,
            // or the crash took every loaded cohort): the run dies instantly.
            self.complete_abort(now, id);
            return;
        }
        // The loaded flags cannot change underneath the sends (they are only
        // set while the transaction is Executing, and it is now Aborting),
        // so re-reading them per cohort is equivalent to snapshotting.
        let template = Rc::clone(&txn.template);
        for (cohort, spec) in template.cohorts.iter().enumerate() {
            let is_live = self
                .txns
                .get(id)
                .is_some_and(|t| t.cohorts[cohort].loaded && !t.cohorts[cohort].lost);
            if !is_live {
                continue;
            }
            self.send(
                now,
                NodeId::HOST,
                spec.node,
                MsgKind::AbortCohort {
                    txn: id,
                    run,
                    cohort,
                },
            );
        }
        self.arm_cohort_timeout(id, run);
    }
}
