//! The cohorts at the processing nodes (paper §3.3): page accesses, CC
//! requests and the consequences of every CC state change, and the cohort
//! half of the commit and abort protocols.

use super::Simulator;
use crate::protocol::{AbortCause, CohortIdx, CpuJob, DiskJob, Event, MsgKind, RunId};
use crate::txn::TxnPhase;
use crate::witness::{WitnessEvent, WitnessReply};
use ddbm_cc::{AccessReply, ReleaseResponse, Ts};
use ddbm_config::{Algorithm, NodeId, TxnId};
use denet::SimTime;
use std::rc::Rc;

impl Simulator {
    /// A `LoadCohort` message reached the cohort's node.
    pub(super) fn on_load_cohort(
        &mut self,
        now: SimTime,
        node: NodeId,
        txn: TxnId,
        run: RunId,
        cohort: CohortIdx,
    ) {
        // Drop if the run died while the message was in flight.
        if !self
            .txns
            .get(txn)
            .is_some_and(|t| t.run == run && t.phase == TxnPhase::Executing)
        {
            return;
        }
        // Stamp the node's crash epoch the moment the node learns of the
        // cohort: protocol messages carrying an older stamp refer to state a
        // crash has since destroyed.
        let epoch = self.nodes[node.0].epoch;
        if let Some(t) = self.txns.get_mut(txn) {
            t.cohorts[cohort].load_epoch = epoch;
        }
        let startup = self.config.system.inst_per_startup as f64;
        self.cpu_shared(
            now,
            node,
            CpuJob::CohortStartup { txn, run, cohort },
            startup,
        );
    }

    /// True if (txn, run, cohort) identifies a cohort that is still
    /// executing — the guard that drops stale completions.
    #[inline]
    pub(super) fn live_cohort(&self, id: TxnId, run: RunId, cohort: CohortIdx) -> bool {
        self.txns.get(id).is_some_and(|t| {
            t.run == run
                && t.phase == TxnPhase::Executing
                && t.cohorts.get(cohort).is_some_and(|c| !c.done)
        })
    }

    /// Start the next access of a cohort, or report it done.
    pub(super) fn cohort_continue(
        &mut self,
        now: SimTime,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
    ) {
        if !self.live_cohort(id, run, cohort) {
            return;
        }
        let txn = self.txns.get(id).expect("live cohort checked");
        let next = txn.cohorts[cohort].next_access;
        let spec = &txn.template.cohorts[cohort];
        let node = spec.node;
        if next >= spec.accesses.len() {
            // All accesses complete: report to the coordinator. Locks and
            // workspace updates are held through the commit protocol.
            if let Some(t) = self.txns.get_mut(id) {
                t.cohorts[cohort].done = true;
            }
            if self.hooks.early_lock_release {
                // Test-only defect: a broken lock manager that frees the
                // cohort's locks at work-completion instead of holding them
                // through commit. The witness records the release honestly,
                // so the strictness checker sees a release while the
                // coordinator is still Executing. OPT certifies at prepare,
                // so a commit-style release now would commit an uncertified
                // transaction; it releases abort-style instead, dropping
                // the cohort's access sets before certification.
                let commit = self.config.algorithm != Algorithm::Optimistic;
                self.release(now, node, id, run, commit);
            }
            self.send(
                now,
                node,
                NodeId::HOST,
                MsgKind::CohortDone {
                    txn: id,
                    run,
                    cohort,
                },
            );
            return;
        }
        // Concurrency-control request processing first (InstPerCCReq).
        let cc_instr = self.config.system.inst_per_cc_req as f64;
        self.cpu_shared(
            now,
            node,
            CpuJob::CcRequest {
                txn: id,
                run,
                cohort,
                access: next,
            },
            cc_instr,
        );
    }

    /// The CC request's CPU cost has been paid: ask the CC manager.
    pub(super) fn do_cc_request(
        &mut self,
        now: SimTime,
        node: NodeId,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
        access: usize,
    ) {
        if !self.live_cohort(id, run, cohort) {
            return;
        }
        let txn = self.txns.get(id).expect("live cohort checked");
        let meta = txn.meta();
        let acc = txn.template.cohorts[cohort].accesses[access];
        let resp = self.nodes[node.0]
            .cc
            .request_access(&meta, acc.page, acc.write);
        // Move the side effects out instead of cloning the grant/reject lists.
        let side = resp.side_effects;
        if let Some(o) = &mut self.obs {
            o.witness(now, || WitnessEvent::Access {
                txn: id,
                run,
                node,
                page: acc.page,
                write: acc.write,
                reply: match resp.reply {
                    AccessReply::Granted => WitnessReply::Granted,
                    AccessReply::Blocked => WitnessReply::Blocked,
                    AccessReply::Rejected => WitnessReply::Rejected,
                },
                initial_ts: meta.initial_ts,
                run_ts: meta.run_ts,
            });
        }
        match resp.reply {
            AccessReply::Granted => self.access_granted(now, node, id, run, cohort, access),
            AccessReply::Blocked => {
                if let Some(t) = self.txns.get_mut(id) {
                    t.cohorts[cohort].blocked_since = Some(now);
                }
                if let Some(o) = &mut self.obs {
                    let cc = &self.nodes[node.0].cc;
                    o.lock_wait_begin(now, id, node, || cc.lock_stats().unwrap_or_default());
                }
                if self.config.algorithm == Algorithm::TwoPhaseLockingTimeout {
                    self.calendar.schedule_after(
                        self.config.system.lock_timeout,
                        Event::LockTimeout {
                            txn: id,
                            run,
                            cohort,
                            access,
                        },
                    );
                }
            }
            // The requester must abort: tell the coordinator.
            AccessReply::Rejected => {
                let cause = self.cc_abort_cause(false);
                self.request_abort(now, node, id, run, cause);
            }
        }
        self.apply_release(now, node, side, Some((id, meta.initial_ts)));
    }

    /// 2PL-T: a cohort has been blocked for the full lock timeout — presume
    /// deadlock and abort the transaction (the blocked node notifies the
    /// coordinator, paying the usual message costs).
    pub(super) fn on_lock_timeout(
        &mut self,
        now: SimTime,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
        access: usize,
    ) {
        let Some(txn) = self.txns.get(id) else {
            return;
        };
        if txn.run != run
            || txn.phase != TxnPhase::Executing
            || txn.cohorts[cohort].blocked_since.is_none()
            || txn.cohorts[cohort].next_access != access
        {
            return; // the wait resolved before the timer fired
        }
        let node = txn.template.cohorts[cohort].node;
        self.request_abort(now, node, id, run, AbortCause::LockTimeout);
    }

    /// The cause of an abort the CC manager demanded: of a rejected
    /// transaction, or (`victim`) of another one. 2PL's, found by waits-for
    /// cycle detection, are deadlock victims either way; otherwise a victim
    /// is wounded, and a rejection keeps timestamp order (wait-die deaths,
    /// BTO too-late accesses).
    fn cc_abort_cause(&self, victim: bool) -> AbortCause {
        if self.config.algorithm == Algorithm::TwoPhaseLocking {
            AbortCause::Deadlock
        } else if victim {
            AbortCause::Wound
        } else {
            AbortCause::Timestamp
        }
    }

    /// Tell the coordinator, from `node`, that run `run` of `id` must abort.
    pub(super) fn request_abort(
        &mut self,
        now: SimTime,
        node: NodeId,
        id: TxnId,
        run: RunId,
        cause: AbortCause,
    ) {
        let kind = MsgKind::AbortRequest {
            txn: id,
            run,
            cause,
        };
        self.send(now, node, NodeId::HOST, kind);
    }

    /// A granted access proceeds: reads do a synchronous disk I/O, writes go
    /// straight to page processing (their disk write is deferred to after
    /// commit — paper §3.3).
    fn access_granted(
        &mut self,
        now: SimTime,
        node: NodeId,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
        access: usize,
    ) {
        if !self.live_cohort(id, run, cohort) {
            return;
        }
        let acc = self
            .txns
            .get(id)
            .expect("live cohort checked")
            .template
            .cohorts[cohort]
            .accesses[access];
        // A read that hits the buffer pool (extension; never with the
        // paper's settings) finds the page in memory and skips the disk.
        if acc.write || self.nodes[node.0].buffer.probe(&acc.page) {
            self.start_page_processing(now, node, id, run, cohort, access);
        } else {
            let job = DiskJob::Read {
                txn: id,
                run,
                cohort,
                access,
                page: acc.page,
            };
            self.submit_disk(now, node, job, false);
        }
    }

    pub(super) fn start_page_processing(
        &mut self,
        now: SimTime,
        node: NodeId,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
        access: usize,
    ) {
        let instr = self
            .rng_proc
            .exponential(self.config.workload.inst_per_page as f64);
        self.cpu_shared(
            now,
            node,
            CpuJob::PageProcess {
                txn: id,
                run,
                cohort,
                access,
            },
            instr,
        );
    }

    pub(super) fn access_finished(
        &mut self,
        now: SimTime,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
    ) {
        if !self.live_cohort(id, run, cohort) {
            return;
        }
        if let Some(t) = self.txns.get_mut(id) {
            t.cohorts[cohort].next_access += 1;
        }
        self.cohort_continue(now, id, run, cohort);
    }

    /// Release `id`'s CC state at `node` on commit or abort — witnessed
    /// first — and apply the consequences.
    fn release(&mut self, now: SimTime, node: NodeId, id: TxnId, run: RunId, commit: bool) {
        if let Some(o) = &mut self.obs {
            o.witness(now, || WitnessEvent::Release {
                txn: id,
                run,
                node,
                commit,
            });
        }
        let cc = &mut self.nodes[node.0].cc;
        let rel = if commit { cc.commit(id) } else { cc.abort(id) };
        self.apply_release(now, node, rel, None);
    }

    /// Apply the consequences of a CC state change at `node`: resume granted
    /// waiters, abort rejected waiters, and forward wounds/victims to the
    /// coordinator. `wound_ctx` names the access requester whose conflict
    /// provoked the change, when there is one — it gives the witness stream
    /// the aggressor side of each wound so the oracle can check WW priority.
    fn apply_release(
        &mut self,
        now: SimTime,
        node: NodeId,
        rel: ReleaseResponse,
        wound_ctx: Option<(TxnId, Ts)>,
    ) {
        for (id, _page) in rel.granted {
            let Some((cohort, run)) = self.end_wait(now, node, id) else {
                continue;
            };
            let txn = self.txns.get(id).expect("end_wait found it");
            let access = txn.cohorts[cohort].next_access;
            if let Some(o) = &mut self.obs {
                if let Some(acc) = txn.template.cohorts[cohort].accesses.get(access) {
                    o.witness(now, || {
                        let meta = txn.meta();
                        WitnessEvent::Grant {
                            txn: id,
                            run,
                            node,
                            page: acc.page,
                            write: acc.write,
                            initial_ts: meta.initial_ts,
                            run_ts: meta.run_ts,
                        }
                    });
                }
            }
            self.access_granted(now, node, id, run, cohort, access);
        }
        for (id, page) in rel.rejected {
            let Some((_, run)) = self.end_wait(now, node, id) else {
                continue;
            };
            if let Some(o) = &mut self.obs {
                o.witness(now, || WitnessEvent::Reject {
                    txn: id,
                    run,
                    node,
                    page,
                });
            }
            let cause = self.cc_abort_cause(false);
            self.request_abort(now, node, id, run, cause);
        }
        for id in rel.must_abort {
            let Some(txn) = self.txns.get(id) else {
                continue;
            };
            let run = txn.run;
            if let Some(o) = &mut self.obs {
                o.witness(now, || WitnessEvent::Wound {
                    victim: id,
                    victim_initial_ts: txn.meta().initial_ts,
                    requester: wound_ctx.map(|(r, _)| r),
                    requester_initial_ts: wound_ctx.map(|(_, ts)| ts),
                    node,
                });
            }
            let cause = self.cc_abort_cause(true);
            self.request_abort(now, node, id, run, cause);
        }
    }

    /// End `id`'s lock wait at `node`, if it was blocked there, and name its
    /// cohort at the node and its current run.
    fn end_wait(&mut self, now: SimTime, node: NodeId, id: TxnId) -> Option<(CohortIdx, RunId)> {
        let txn = self.txns.get_mut(id)?;
        let cohort = txn.cohort_at(node)?;
        if let Some(since) = txn.cohorts[cohort].blocked_since.take() {
            if txn.phase == TxnPhase::Executing {
                self.metrics.record_blocking(now.since(since));
            }
            if let Some(o) = &mut self.obs {
                o.lock_wait_end(now, id, node);
            }
        }
        Some((cohort, txn.run))
    }

    /// Phase 1 at a cohort: certify (only OPT can refuse) and vote.
    pub(super) fn on_prepare(
        &mut self,
        now: SimTime,
        node: NodeId,
        txn: TxnId,
        run: RunId,
        cohort: CohortIdx,
        commit_ts: Ts,
    ) {
        let Some(t) = self.txns.get(txn) else { return };
        if t.run != run {
            return;
        }
        // A cohort whose state died in a crash cannot vote yes: the
        // rebuilt CC manager has no read/write sets to certify.
        let stale =
            t.cohorts[cohort].lost || t.cohorts[cohort].load_epoch != self.nodes[node.0].epoch;
        let yes = if stale {
            if let Some(tm) = self.txns.get_mut(txn) {
                tm.abort_cause = Some(AbortCause::NodeCrash);
            }
            false
        } else {
            let meta = t.meta();
            let ok = self.nodes[node.0].cc.certify(&meta, commit_ts);
            if let Some(o) = &mut self.obs {
                o.witness(now, || WitnessEvent::Certify {
                    txn,
                    run,
                    node,
                    commit_ts,
                    run_ts: meta.run_ts,
                    ok,
                });
            }
            ok
        };
        self.send(
            now,
            node,
            NodeId::HOST,
            MsgKind::Vote {
                txn,
                run,
                cohort,
                yes,
            },
        );
    }

    /// Phase 2 at a cohort: install (on commit) and release, then
    /// acknowledge.
    pub(super) fn on_decision(
        &mut self,
        now: SimTime,
        node: NodeId,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
        commit: bool,
    ) {
        let Some(txn) = self.txns.get(id) else {
            return;
        };
        if txn.run != run {
            return;
        }
        // Fault injection: a retransmitted decision, or one that outlived the
        // cohort's state (crash between load and decision), must not install
        // pages or touch the rebuilt CC manager — acknowledge and stop. The
        // `settled` flag makes decision processing exactly-once per run.
        let c = &txn.cohorts[cohort];
        let fresh = !c.settled && !c.lost && c.load_epoch == self.nodes[node.0].epoch;
        if fresh {
            if let Some(t) = self.txns.get_mut(id) {
                t.cohorts[cohort].settled = true;
            }
            if commit {
                self.commit_cohort(now, node, id, run, cohort);
            } else {
                self.release(now, node, id, run, false);
            }
        }
        self.send(
            now,
            node,
            NodeId::HOST,
            MsgKind::Ack {
                txn: id,
                run,
                cohort,
            },
        );
    }

    /// Commit a cohort: witness its installs, release its CC state, and
    /// start the write-back of its updated pages.
    fn commit_cohort(
        &mut self,
        now: SimTime,
        node: NodeId,
        id: TxnId,
        run: RunId,
        cohort: CohortIdx,
    ) {
        let txn = self.txns.get(id).expect("decided txn exists");
        let plan = Rc::clone(&txn.template);
        let routed = txn.routed();
        let accesses = &plan.cohorts[cohort].accesses;
        // Witness installs *before* releasing locks: a release can grant a
        // waiter at this same instant, and its read must sequence after
        // these writes.
        if let Some(o) = &mut self.obs {
            let run_ts = txn.meta().run_ts;
            let commit_ts = txn.commit_ts.unwrap_or(Ts::ZERO);
            for a in accesses.iter().filter(|a| a.write) {
                o.witness(now, || WitnessEvent::Install {
                    txn: id,
                    run,
                    node,
                    page: a.page,
                    run_ts,
                    commit_ts,
                });
            }
        }
        let first = accesses.iter().position(|a| a.write);
        self.release(now, node, id, run, true);
        // Kick off the asynchronous write-back chain for this cohort's
        // updated pages: InstPerUpdate CPU per page, then the disk write.
        // The chain walks the plan; the transaction still holds it too, so
        // a cohort that wrote nothing just drops its handle.
        if let Some(next) = first {
            let instr = self.config.system.inst_per_update as f64;
            let job = CpuJob::UpdateInit {
                txn: id,
                plan,
                routed,
                cohort,
                next,
            };
            self.cpu_shared(now, node, job, instr);
        }
    }

    /// Dismantle a cohort: discard its CC state, cancel its pending CPU work
    /// and queued disk reads, and acknowledge. In-service disk requests
    /// complete harmlessly (their completions are stale-dropped). Fault
    /// injection can retransmit this message, so a stale copy (newer run,
    /// already-settled cohort, or a cohort whose state a crash destroyed)
    /// must not dismantle fresh state — it is acknowledged without touching
    /// the CC manager.
    pub(super) fn on_abort_cohort(
        &mut self,
        now: SimTime,
        node: NodeId,
        txn: TxnId,
        run: RunId,
        cohort: CohortIdx,
    ) {
        let fresh = self.txns.get(txn).is_some_and(|t| {
            let c = &t.cohorts[cohort];
            t.run == run && !c.settled && !c.lost && c.load_epoch == self.nodes[node.0].epoch
        });
        if fresh {
            if let Some(t) = self.txns.get_mut(txn) {
                t.cohorts[cohort].settled = true;
            }
            self.release(now, node, txn, run, false);
            self.touch_cpu(now, node);
            self.nodes[node.0].cpu.cancel_shared_where(|job| match job {
                CpuJob::CohortStartup { txn: t, run: r, .. }
                | CpuJob::CcRequest { txn: t, run: r, .. }
                | CpuJob::PageProcess { txn: t, run: r, .. } => *t == txn && *r == run,
                _ => false,
            });
            self.resched_cpu(node);
            self.nodes[node.0].disks.cancel_queued_where(
                |job| matches!(job, DiskJob::Read { txn: t, run: r, .. } if *t == txn && *r == run),
            );
        }
        self.send(
            now,
            node,
            NodeId::HOST,
            MsgKind::AbortAck { txn, run, cohort },
        );
    }
}
