//! Resource and network glue: the per-node CPU and disk array of the
//! resource manager (paper §3.4) — job submission, completion handling and
//! the calendar's completion predictions — and the network manager's
//! message send and delivery (§3.5).

use super::Simulator;
use crate::protocol::{CpuJob, DiskJob, Event, Message, MsgKind};
use ddbm_config::NodeId;
use denet::{SimDuration, SimTime, SlotId};

impl Simulator {
    /// Advance a node's CPU and handle every completed job, taking them
    /// one at a time from the CPU's completion queue. A handler that
    /// touches the same CPU again (a message completion sending another
    /// message, say) finds its clock already at `now` and returns at once,
    /// so the completions are handled in order, outermost loop first.
    #[inline]
    pub(super) fn touch_cpu(&mut self, now: SimTime, node: NodeId) {
        if self.nodes[node.0].cpu.is_current(now) {
            return; // clock already at `now`: nothing can have completed
        }
        self.nodes[node.0].cpu.advance(now);
        while let Some(job) = self.nodes[node.0].cpu.pop_done() {
            self.handle_cpu_done(now, node, job);
        }
    }

    /// Note that the node's CPU prediction may have changed. The calendar is
    /// reconciled lazily by [`flush_rescheds`](Self::flush_rescheds) once the
    /// current event's handler cascade has run to completion — a single
    /// event often re-predicts the same resource several times (message
    /// completions submitting replies, grants waking cohorts, ...), and
    /// deferring collapses all of them into at most one slot update.
    pub(super) fn resched_cpu(&mut self, node: NodeId) {
        let state = &mut self.nodes[node.0];
        if !state.cpu_dirty {
            state.cpu_dirty = true;
            self.dirty_cpu.push(node);
        }
    }

    /// Advance a node's disk array and handle every completed request,
    /// one at a time from the array's completion queue.
    pub(super) fn touch_disks(&mut self, now: SimTime, node: NodeId) {
        if self.nodes[node.0].disks.is_current(now) {
            return; // nothing in service can have completed by `now`
        }
        self.nodes[node.0].disks.advance(now);
        while let Some(job) = self.nodes[node.0].disks.pop_done() {
            self.handle_disk_done(now, node, job);
        }
    }

    /// Deferred twin of [`resched_cpu`](Self::resched_cpu) for the disk
    /// array.
    pub(super) fn resched_disks(&mut self, node: NodeId) {
        let state = &mut self.nodes[node.0];
        if !state.disk_dirty {
            state.disk_dirty = true;
            self.dirty_disk.push(node);
        }
    }

    /// Reconcile every deferred resource prediction with the calendar. Must
    /// run after each event dispatch, before the next calendar pop: the
    /// calendar only stays an accurate picture of future completions between
    /// events, not within a handler cascade.
    pub(super) fn flush_rescheds(&mut self) {
        let now = self.calendar.now();
        while let Some(node) = self.dirty_cpu.pop() {
            let st = &mut self.nodes[node.0];
            st.cpu_dirty = false;
            if let Some(o) = &mut self.obs {
                o.cpu(now, node, !st.cpu.is_idle());
            }
            let (slot, at) = (st.cpu_slot, st.cpu.next_completion());
            self.predict(slot, at);
        }
        while let Some(node) = self.dirty_disk.pop() {
            let st = &mut self.nodes[node.0];
            st.disk_dirty = false;
            if let Some(o) = &mut self.obs {
                o.disk(now, node, st.disks.any_busy());
            }
            let (slot, at) = (st.disk_slot, st.disks.next_completion());
            self.predict(slot, at);
        }
    }

    /// Make `slot` agree with a resource's next completion `at`: an
    /// unchanged prediction keeps its slot entry, a moved one overwrites it
    /// in place, a vanished one clears the slot. Only a *changed* prediction
    /// consumes a calendar sequence number, which is what kept run reports
    /// bit-identical when predictions moved from the heap to slots (see
    /// `denet::calendar` module docs).
    fn predict(&mut self, slot: SlotId, at: Option<SimTime>) {
        match at {
            Some(at) => {
                if self.calendar.slot_time(slot) != Some(at) {
                    self.calendar.set_slot(slot, at);
                }
            }
            None => self.calendar.clear_slot(slot),
        }
    }

    /// Submit ordinary (processor-shared) CPU work; zero-cost work completes
    /// inline.
    #[inline]
    pub(super) fn cpu_shared(&mut self, now: SimTime, node: NodeId, job: CpuJob, instr: f64) {
        self.touch_cpu(now, node);
        if let Some(done) = self.nodes[node.0].cpu.submit_shared(now, job, instr) {
            self.handle_cpu_done(now, node, done);
        }
        self.resched_cpu(node);
    }

    /// Queue `job` at a uniformly chosen disk of `node`, with a service time
    /// drawn uniformly from the configured range.
    pub(super) fn submit_disk(&mut self, now: SimTime, node: NodeId, job: DiskJob, write: bool) {
        let lo = self.config.system.min_disk_time.as_secs_f64();
        let hi = self.config.system.max_disk_time.as_secs_f64();
        let service = SimDuration::from_secs_f64(self.rng_disk.uniform_f64(lo, hi));
        let disk = self.rng_disk.index(self.config.system.num_disks);
        self.nodes[node.0]
            .disks
            .submit(now, disk, job, write, service);
        self.resched_disks(node);
    }

    /// Queue the send-side protocol processing for a message.
    #[inline]
    pub(super) fn send(&mut self, now: SimTime, from: NodeId, to: NodeId, kind: MsgKind) {
        if let Some(o) = &mut self.obs {
            o.msg_send(now, from, to, kind.tag());
        }
        self.message_cpu(now, from, CpuJob::MsgSend(Message { from, to, kind }));
    }

    /// Charge `InstPerMsg` at `node` for one end of a message (`MsgSend` or
    /// `MsgRecv`) in the CPU's message class; zero-cost work completes
    /// inline.
    fn message_cpu(&mut self, now: SimTime, node: NodeId, job: CpuJob) {
        let instr = self.config.system.inst_per_msg as f64;
        self.touch_cpu(now, node);
        if let Some(done) = self.nodes[node.0].cpu.submit_message(now, job, instr) {
            self.handle_cpu_done(now, node, done);
        }
        self.resched_cpu(node);
    }

    /// The network manager: zero wire time — hand the message to the
    /// receive-side CPU immediately. With fault injection on, the link may
    /// first drop the message (it reappears after the retransmission delay —
    /// the model of a reliable transport over a lossy wire) or delay it.
    /// Each message is drawn against at most once; redeliveries skip the
    /// fault draws and go straight to [`deliver_now`](Self::deliver_now).
    fn deliver(&mut self, now: SimTime, msg: Message) {
        if self.faults_enabled {
            let f = &self.config.faults;
            if f.msg_drop_prob > 0.0 && self.rng_fault.bernoulli(f.msg_drop_prob) {
                self.metrics.faults.msgs_dropped += 1;
                self.redeliver_after(f.msg_retry, msg);
                return;
            }
            if f.msg_delay_prob > 0.0 && self.rng_fault.bernoulli(f.msg_delay_prob) {
                self.metrics.faults.msgs_delayed += 1;
                let extra = SimDuration(self.rng_fault.uniform_u64(1, f.msg_delay_max.0.max(1)));
                self.redeliver_after(extra, msg);
                return;
            }
        }
        self.deliver_now(now, msg);
    }

    /// Post `msg` back to the calendar, to arrive after `delay`.
    fn redeliver_after(&mut self, delay: SimDuration, msg: Message) {
        self.calendar
            .schedule_after(delay, Event::MsgArrive { msg });
    }

    /// Deliver unconditionally — unless the receiver is crashed, in which
    /// case the message parks in the retry loop until the node comes back
    /// (senders in this model retransmit indefinitely; the coordinator's
    /// own timeouts decide when to give up on a cohort).
    pub(super) fn deliver_now(&mut self, now: SimTime, msg: Message) {
        let to = msg.to;
        if !self.nodes[to.0].up {
            self.metrics.faults.msgs_to_down_node += 1;
            self.redeliver_after(self.config.faults.msg_retry, msg);
            return;
        }
        self.message_cpu(now, to, CpuJob::MsgRecv(msg));
    }

    fn handle_message(&mut self, now: SimTime, msg: Message) {
        if let Some(o) = &mut self.obs {
            o.msg_arrive(now, msg.from, msg.to, msg.kind.tag());
        }
        let node = msg.to;
        match msg.kind {
            MsgKind::LoadCohort { txn, run, cohort } => {
                self.on_load_cohort(now, node, txn, run, cohort)
            }
            MsgKind::CohortDone { txn, run, cohort } => self.on_cohort_done(now, txn, run, cohort),
            MsgKind::Prepare {
                txn,
                run,
                cohort,
                commit_ts,
            } => self.on_prepare(now, node, txn, run, cohort, commit_ts),
            MsgKind::Vote { txn, run, yes, .. } => self.on_vote(now, txn, run, yes),
            MsgKind::Decision {
                txn,
                run,
                cohort,
                commit,
            } => self.on_decision(now, node, txn, run, cohort, commit),
            MsgKind::Ack { txn, run, cohort } => self.on_ack(now, txn, run, cohort, false),
            MsgKind::AbortRequest { txn, run, cause } => {
                self.on_abort_request(now, txn, run, cause)
            }
            MsgKind::AbortCohort { txn, run, cohort } => {
                self.on_abort_cohort(now, node, txn, run, cohort)
            }
            MsgKind::AbortAck { txn, run, cohort } => self.on_ack(now, txn, run, cohort, true),
            MsgKind::SnoopRequest { round } => self.on_snoop_request(now, node, msg.from, round),
            MsgKind::SnoopReply { round, edges } => self.on_snoop_reply(now, node, round, edges),
            MsgKind::SnoopPass => self.on_snoop_pass(node),
        }
    }

    fn handle_cpu_done(&mut self, now: SimTime, node: NodeId, job: CpuJob) {
        match job {
            CpuJob::CoordStartup { txn, run } => self.load_cohorts(now, txn, run),
            CpuJob::CohortStartup { txn, run, cohort } => {
                if self.live_cohort(txn, run, cohort) {
                    if let Some(t) = self.txns.get_mut(txn) {
                        t.cohorts[cohort].started = true;
                    }
                    self.cohort_continue(now, txn, run, cohort);
                }
            }
            CpuJob::CcRequest {
                txn,
                run,
                cohort,
                access,
            } => self.do_cc_request(now, node, txn, run, cohort, access),
            CpuJob::PageProcess {
                txn, run, cohort, ..
            } => self.access_finished(now, txn, run, cohort),
            CpuJob::UpdateInit {
                txn,
                plan,
                routed,
                cohort,
                next,
            } => {
                // Issue the disk write for the current page, then chain the
                // cohort's next write. The fresh page version is in memory,
                // so it enters the buffer pool (extension; no-op at
                // capacity 0).
                let accesses = &plan.cohorts[cohort].accesses;
                self.nodes[node.0].buffer.insert(accesses[next].page);
                let later = accesses[next + 1..].iter().position(|a| a.write);
                self.submit_disk(now, node, DiskJob::WriteBack { txn }, true);
                match later {
                    Some(skip) => {
                        let instr = self.config.system.inst_per_update as f64;
                        let job = CpuJob::UpdateInit {
                            txn,
                            plan,
                            routed,
                            cohort,
                            next: next + 1 + skip,
                        };
                        self.cpu_shared(now, node, job, instr);
                    }
                    // The chain's last initiation: pool the plan if the
                    // transaction has already finished with it.
                    None => self.put_template(plan, routed),
                }
            }
            CpuJob::MsgSend(msg) => self.deliver(now, msg),
            CpuJob::MsgRecv(msg) => self.handle_message(now, msg),
        }
    }

    fn handle_disk_done(&mut self, now: SimTime, node: NodeId, job: DiskJob) {
        match job {
            DiskJob::Read {
                txn,
                run,
                cohort,
                access,
                page,
            } => {
                self.nodes[node.0].buffer.insert(page);
                if self.live_cohort(txn, run, cohort) {
                    self.start_page_processing(now, node, txn, run, cohort, access);
                }
            }
            DiskJob::WriteBack { .. } => {
                // Fire-and-forget: the transaction committed long ago.
            }
        }
    }
}
