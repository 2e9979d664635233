//! The distributed database machine simulator (paper §3).
//!
//! One [`Simulator`] instance runs one configuration to completion and
//! produces a [`RunReport`]. The machine consists of the host node (node 0,
//! terminals + coordinators) and `NumProcNodes` processing nodes (data +
//! cohorts + CC managers). The network manager is the trivial switch of
//! §3.5: zero wire time, with `InstPerMsg` CPU charged at both endpoints;
//! since each node's message work is a priority FIFO queue, messages between
//! any ordered pair of nodes arrive in send order, which the commit and
//! abort protocols rely on.

use crate::metrics::{MetricsCollector, RunReport};
use crate::observe::{Observer, WITNESS_CAPACITY};
use crate::protocol::{AbortCause, CohortIdx, CpuJob, DiskJob, Event, Message, MsgKind, RunId};
use crate::store::TxnStore;
use crate::trace::TraceLog;
use crate::txn::{CohortRun, TxnPhase, TxnRuntime};
use crate::witness::{WitnessEvent, WitnessReply, WitnessSink, WitnessStream};
use crate::workload::{
    generate_template_into, materialize_replicated, route_identity_factor_one, TxnTemplate,
};
use ddbm_cc::{make_manager_with, resolve_deadlocks, AccessReply, CcManager, ReleaseResponse, Ts};
use ddbm_config::{Algorithm, Config, ConfigError, FaultPlan, NodeId, Placement, TxnId};
use ddbm_resource::{Cpu, DiskArray, LruPool};
use denet::{EventCalendar, SimDuration, SimRng, SimTime, SlotId, WitnessLog};
use std::any::Any;
use std::rc::Rc;

struct NodeState {
    cpu: Cpu<CpuJob>,
    disks: DiskArray<DiskJob>,
    cc: Box<dyn CcManager>,
    /// Extension: per-node LRU buffer pool (capacity 0 = the paper's model,
    /// every read access does a disk I/O).
    buffer: LruPool<ddbm_config::PageId>,
    /// The pending CPU completion event lives in a calendar *prediction
    /// slot*. Every CPU state change re-predicts; if the instant moved, the
    /// slot is overwritten in place (an O(1) store — no heap traffic and no
    /// tombstone), so every `CpuPoll` that fires is the unique live
    /// prediction for this node — no stale polls reach the handler, and the
    /// CPU is only ever advanced to instants where something actually
    /// completes. Slot seq consumption mirrors the earlier
    /// cancel-and-replace keyed scheduling exactly, so run reports stayed
    /// bit-identical across the switch (see `denet::calendar` module docs).
    cpu_slot: SlotId,
    /// Same prediction-slot scheduling for the disk array.
    disk_slot: SlotId,
    /// True while this node's CPU prediction awaits reconciliation with the
    /// calendar (it is listed in `Simulator::dirty_cpu`). A handler cascade
    /// can re-predict the same resource many times within one event; the
    /// flag coalesces those into a single cancel/schedule at event end.
    cpu_dirty: bool,
    /// Same deferral flag for the disk array prediction.
    disk_dirty: bool,
    /// Fault injection: false while the node is crashed. The host is always
    /// up (the paper's machine has no host failures; neither does ours).
    up: bool,
    /// Fault injection: bumped on every crash. Cohort state tagged with an
    /// older epoch no longer exists on this node, so retransmitted protocol
    /// messages that refer to it must not touch the (rebuilt) CC manager.
    epoch: u64,
}

/// Deliberate, test-only protocol defects, injectable through
/// [`run_oracle`] so the `ddbm-oracle` invariant checkers can be validated
/// against a simulator that is known to be broken. All hooks default to
/// off; no production entry point sets them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TestHooks {
    /// Release a cohort's locks the moment its last access completes,
    /// instead of holding them through the commit protocol — the classic
    /// non-strict early release. The 2PL strictness checker must catch it.
    #[serde(default)]
    pub early_lock_release: bool,
    /// Replication: silently drop the last replica from every multi-replica
    /// write set at materialization time, so a committed write is never
    /// installed there — the classic stale-replica defect. The oracle's
    /// under-replication / one-copy-serializability checkers must catch it.
    #[serde(default)]
    pub skip_replica_write: bool,
}

impl TestHooks {
    /// True when any hook is enabled.
    pub fn any(&self) -> bool {
        self.early_lock_release || self.skip_replica_write
    }
}

/// A fixed transaction script for oracle replay (see [`run_oracle`]).
struct ScriptedWorkload {
    templates: Vec<TxnTemplate>,
    next: usize,
}

/// State of the rotating global deadlock detector (2PL only).
struct SnoopState {
    /// The node currently holding the Snoop role.
    current: NodeId,
    /// Monotone round counter; stale wake-ups and replies are discarded.
    round: u64,
    /// Replies still expected in the current gather.
    awaiting: usize,
    /// Edges gathered so far this round.
    edges: Vec<(TxnId, TxnId)>,
}

/// See module docs.
pub struct Simulator {
    config: Config,
    placement: Placement,
    calendar: EventCalendar<Event>,
    nodes: Vec<NodeState>,
    txns: TxnStore,
    next_txn: u64,
    /// Scratch buffers reused by [`touch_cpu`](Self::touch_cpu) /
    /// [`touch_disks`](Self::touch_disks). A pool rather than a single
    /// buffer because handling one completion can recursively advance the
    /// same resource (e.g. a message completion sends another message).
    cpu_bufs: Vec<Vec<CpuJob>>,
    disk_bufs: Vec<Vec<DiskJob>>,
    /// Nodes whose CPU prediction changed during the current event and whose
    /// calendar entry has not been reconciled yet (see
    /// [`flush_rescheds`](Self::flush_rescheds)).
    dirty_cpu: Vec<NodeId>,
    /// Same deferral list for disk predictions.
    dirty_disk: Vec<NodeId>,
    /// Recycled `Event::MsgArrive` envelopes. Only fault paths (drops,
    /// delays, down receivers) box a message — fault-free traffic rides the
    /// CPU message class unboxed — so with the pool even faulty steady-state
    /// message traffic allocates nothing. The pool stores the `Box` itself
    /// (not the `Message`): the recycled heap cell is the point, since
    /// `Event::MsgArrive` needs a `Box<Message>` and re-boxing would
    /// allocate.
    #[allow(clippy::vec_box)]
    msg_pool: Vec<Box<Message>>,
    /// Per-relation cohort groups, precomputed at construction:
    /// `Placement::cohort_groups` is placement-static but allocates per
    /// call, and template generation needs it once per transaction.
    cohort_groups: Vec<Vec<(NodeId, Vec<ddbm_config::FileId>)>>,
    /// Freelist of uniquely-owned transaction plans. A committed
    /// transaction's template (and, under replication, its logical plan)
    /// returns here, and the next submission writes its fresh plan into the
    /// recycled cohort/access vectors through `Rc::get_mut` — steady-state
    /// admission allocates nothing.
    tpl_pool: Vec<Rc<TxnTemplate>>,
    /// Freelist of per-cohort progress vectors (`TxnRuntime::cohorts`).
    cohort_pool: Vec<Vec<CohortRun>>,
    /// Freelist of commit write-back page lists (`CpuJob::UpdateInit`),
    /// recycled when the initiation chain issues its last disk write.
    page_pool: Vec<Vec<ddbm_config::PageId>>,
    /// Freelist of Snoop gather buffers (`MsgKind::SnoopReply` edge lists).
    edge_pool: Vec<Vec<(TxnId, TxnId)>>,
    /// Page-sampling scratch reused across template generations.
    sample_scratch: Vec<usize>,
    /// Node-liveness scratch reused across `materialize` calls.
    route_up: Vec<bool>,
    rng_think: SimRng,
    rng_work: SimRng,
    rng_proc: SimRng,
    rng_disk: SimRng,
    /// Online fault draws (message drops/delays). Its own named stream so a
    /// fault-free run consumes exactly the same values from every other
    /// stream as before the fault subsystem existed.
    rng_fault: SimRng,
    /// `config.faults.any()`, hoisted: every fault branch on the hot path is
    /// gated on this so the fault-free simulation is bit-identical to the
    /// pre-fault-injection simulator.
    faults_enabled: bool,
    /// `config.replication.enabled()`, hoisted: gates every replica-routing
    /// branch so a disabled (or `factor = 1` single-copy) run is
    /// bit-identical to the pre-replication simulator.
    replication_on: bool,
    /// Replication: round-robin cursor rotating the starting replica of
    /// each file's read set. A plain counter (no RNG draws), so replicated
    /// runs leave every named random stream untouched relative to
    /// single-copy runs.
    read_rr: u64,
    /// The observer every probe event goes through (see [`Observer`]),
    /// present only when `config.trace.any()` holds or a run driver has
    /// installed a witness sink. Every probe site is one branch on it, so
    /// the unobserved simulation stays bit-identical and branch-only.
    obs: Option<Box<Observer>>,
    /// Test-only failure hooks (see [`TestHooks`]); all-off in normal runs.
    hooks: TestHooks,
    /// Oracle replay: when set, terminals submit these templates in order
    /// instead of drawing fresh ones from the workload stream, and stop
    /// admitting once the script is exhausted.
    script: Option<ScriptedWorkload>,
    /// Oracle capture: when set, every generated template is recorded in
    /// submission order so a failing workload can be replayed and shrunk.
    template_log: Option<Vec<TxnTemplate>>,
    /// Chaos mode: after the measurement target is reached, keep the event
    /// loop running but stop admitting new transactions, so every live
    /// transaction can run to commit (the liveness check).
    draining: bool,
    metrics: MetricsCollector,
    warmup_done: bool,
    snoop: Option<SnoopState>,
    finished: bool,
    truncated: bool,
}

impl Simulator {
    /// Build a simulator for `config` (validated first).
    pub fn new(config: Config) -> Result<Simulator, ConfigError> {
        config.validate()?;
        let placement = config.placement().map_err(|e| ConfigError(e.to_string()))?;
        let seed = config.control.seed;
        let mut calendar = EventCalendar::new();
        let mut nodes: Vec<NodeState> = config
            .node_ids()
            .map(|id| NodeState {
                cpu: Cpu::new(config.system.cpu_rate(id)),
                disks: DiskArray::new(config.system.num_disks),
                cc: make_manager_with(config.algorithm, config.system.lock_barging),
                buffer: LruPool::new(config.system.buffer_pages as usize),
                cpu_slot: calendar.register_slot(),
                disk_slot: calendar.register_slot(),
                cpu_dirty: false,
                disk_dirty: false,
                up: true,
                epoch: 0,
            })
            .collect();
        let files_per_node = placement.files_per_node(config.system.num_proc_nodes);
        for (files, node) in files_per_node.iter().zip(&mut nodes[1..]) {
            node.cc.preallocate(
                files * config.database.pages_per_file as usize,
                config.max_txn_accesses(),
            );
        }
        let faults_enabled = config.faults.any();
        let replication_on = config.replication.enabled();
        let obs = config
            .trace
            .any()
            .then(|| Box::new(Observer::new(&config.trace, config.system.num_nodes())));
        let snoop = (config.algorithm == Algorithm::TwoPhaseLocking).then(|| SnoopState {
            current: NodeId(1),
            round: 0,
            awaiting: 0,
            edges: Vec::new(),
        });
        let cohort_groups = (0..config.database.num_relations)
            .map(|rel| placement.cohort_groups(rel))
            .collect();
        Ok(Simulator {
            placement,
            calendar,
            nodes,
            txns: TxnStore::new(),
            next_txn: 1,
            cpu_bufs: Vec::new(),
            disk_bufs: Vec::new(),
            dirty_cpu: Vec::new(),
            dirty_disk: Vec::new(),
            msg_pool: Vec::new(),
            cohort_groups,
            tpl_pool: Vec::new(),
            cohort_pool: Vec::new(),
            // Stocked up front at full capacity: the pool drains LIFO, so a
            // rarely-reached depth would otherwise hand out a fresh buffer
            // (and one allocation) long after warmup.
            page_pool: (0..Self::POOL_CAP)
                .map(|_| Vec::with_capacity(config.max_txn_accesses()))
                .collect(),
            edge_pool: Vec::new(),
            sample_scratch: Vec::new(),
            route_up: Vec::new(),
            rng_think: SimRng::derive(seed, "think"),
            rng_work: SimRng::derive(seed, "workload"),
            rng_proc: SimRng::derive(seed, "page-processing"),
            rng_disk: SimRng::derive(seed, "disk"),
            rng_fault: SimRng::derive(seed, "fault"),
            faults_enabled,
            replication_on,
            read_rr: 0,
            obs,
            hooks: TestHooks::default(),
            script: None,
            template_log: None,
            draining: false,
            metrics: MetricsCollector::new(),
            warmup_done: false,
            snoop: None.or(snoop),
            finished: false,
            truncated: false,
            config,
        })
    }

    /// Run to completion and report.
    pub fn run(mut self) -> RunReport {
        self.run_observed(None, false).0
    }

    /// The driver behind every run entry point: install `sink` as the
    /// observer's witness consumer (building the observer if the config
    /// enabled none), seed, drive to the end (then, with `drain`, keep going
    /// until every live transaction has finished), report, and hand back the
    /// observer.
    fn run_observed(
        &mut self,
        sink: Option<Box<dyn WitnessSink>>,
        drain: bool,
    ) -> (RunReport, Option<Box<Observer>>) {
        if let Some(sink) = sink {
            let num_nodes = self.nodes.len();
            self.obs
                .get_or_insert_with(|| Box::new(Observer::new(&self.config.trace, num_nodes)))
                .install_witness(sink);
        }
        self.seed();
        self.drive();
        if drain {
            self.drain();
        }
        (self.report(self.calendar.now()), self.obs.take())
    }

    /// Schedule the initial events: every terminal starts thinking, and the
    /// Snoop role (2PL only) starts at node `S1`. With fault injection on,
    /// the whole crash/stall schedule is materialized up front from the
    /// dedicated `"fault-plan"` stream and posted to the calendar.
    fn seed(&mut self) {
        for terminal in 0..self.config.workload.num_terminals {
            let delay = self.think_delay();
            self.calendar
                .schedule_after(delay, Event::TerminalSubmit { terminal });
        }
        if self.snoop.is_some() {
            self.calendar.schedule_after(
                self.config.system.detection_interval,
                Event::SnoopWake {
                    node: NodeId(1),
                    round: 0,
                },
            );
        }
        if self.faults_enabled {
            let plan = FaultPlan::generate(
                &self.config.faults,
                self.nodes.len() - 1,
                self.config.control.max_sim_time,
                self.config.control.seed,
            );
            for w in &plan.crashes {
                self.calendar
                    .schedule(w.at, Event::NodeDown { node: w.node });
                self.calendar
                    .schedule(w.up_at, Event::NodeUp { node: w.node });
            }
            for s in &plan.stalls {
                self.calendar.schedule(
                    s.at,
                    Event::DiskStall {
                        node: s.node,
                        until: s.until,
                    },
                );
            }
        }
    }

    /// The event loop: pop and dispatch until the commit target or the
    /// simulated-time wall is reached.
    fn drive(&mut self) {
        while let Some((now, ev)) = self.calendar.pop() {
            if now > SimTime::ZERO + self.config.control.max_sim_time {
                self.truncated = true;
                break;
            }
            self.on_event(now, ev);
            // Reconcile deferred CPU/disk predictions with the calendar now
            // that the cascade is done, before the next pop relies on it.
            self.flush_rescheds();
            if self.finished {
                break;
            }
        }
    }

    /// Chaos-mode epilogue: keep the event loop running, with new admissions
    /// shut off, until every live transaction commits or the simulated-time
    /// wall is hit (`RunReport::drained` tells which).
    fn drain(&mut self) {
        self.draining = true;
        while let Some((now, ev)) = self.calendar.pop() {
            if now > SimTime::ZERO + self.config.control.max_sim_time {
                self.truncated = true;
                break;
            }
            self.on_event(now, ev);
            self.flush_rescheds();
            if self.txns.is_empty() {
                break;
            }
        }
    }

    fn report(&self, end: SimTime) -> RunReport {
        let m = &self.metrics;
        let elapsed = end.since(m.measure_start).as_secs_f64();
        let procs = &self.nodes[1..];
        let proc_cpu =
            procs.iter().map(|n| n.cpu.utilization(end)).sum::<f64>() / procs.len() as f64;
        let disk = procs
            .iter()
            .map(|n| n.disks.mean_utilization(end))
            .sum::<f64>()
            / procs.len() as f64;
        RunReport {
            commits: m.commits,
            aborts: m.aborts,
            throughput: if elapsed > 0.0 {
                m.commits as f64 / elapsed
            } else {
                0.0
            },
            mean_response_time: m.response_time.mean(),
            response_time_std: m.response_time.std_dev(),
            response_time_ci95: {
                let hw = m.response_batches.ci95_half_width();
                if hw.is_finite() {
                    hw
                } else {
                    0.0
                }
            },
            abort_ratio: if m.commits > 0 {
                m.aborts as f64 / m.commits as f64
            } else {
                m.aborts as f64
            },
            mean_blocking_time: m.blocking_time.mean(),
            host_cpu_utilization: self.nodes[0].cpu.utilization(end),
            proc_cpu_utilization: proc_cpu,
            disk_utilization: disk,
            measured_seconds: elapsed,
            truncated: self.truncated,
            aborts_by_cause: m.aborts_by_cause,
            fault_stats: m.faults,
            drained: self.draining && self.txns.is_empty(),
            phase_breakdown: self.obs.as_ref().and_then(|o| o.phase_breakdown()),
            buffer_hit_ratio: {
                let (hits, misses) = self.nodes[1..].iter().fold((0u64, 0u64), |(h, m), n| {
                    (h + n.buffer.hits(), m + n.buffer.misses())
                });
                if hits + misses == 0 {
                    0.0
                } else {
                    hits as f64 / (hits + misses) as f64
                }
            },
        }
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn on_event(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::TerminalSubmit { terminal } => self.submit_transaction(now, terminal),
            Event::CpuPoll { node } => {
                // Superseded predictions are overwritten in their slot, so a
                // poll that fires is always the live prediction, and popping
                // it vacated the slot — the handlers below can freely
                // re-predict without clobbering the event firing right now.
                debug_assert_eq!(
                    self.calendar.slot_time(self.nodes[node.0].cpu_slot),
                    None,
                    "a stale CpuPoll fired"
                );
                self.touch_cpu(now, node);
                self.resched_cpu(now, node);
            }
            Event::DiskPoll { node } => {
                debug_assert_eq!(
                    self.calendar.slot_time(self.nodes[node.0].disk_slot),
                    None,
                    "a stale DiskPoll fired"
                );
                self.touch_disks(now, node);
                self.resched_disks(now, node);
            }
            Event::Restart { txn } => self.restart_txn(now, txn),
            Event::SnoopWake { node, round } => self.snoop_wake(now, node, round),
            Event::LockTimeout {
                txn,
                run,
                cohort,
                access,
            } => self.on_lock_timeout(now, txn, run, cohort, access),
            Event::NodeDown { node } => self.on_node_down(now, node),
            Event::NodeUp { node } => self.on_node_up(now, node),
            Event::DiskStall { node, until } => self.on_disk_stall(now, node, until),
            Event::CohortTimeout { txn, run } => self.on_cohort_timeout(now, txn, run),
            Event::MsgArrive { mut msg } => {
                // Take the contents and recycle the envelope (capped so a
                // fault burst cannot grow the pool without bound).
                let m = std::mem::replace(
                    &mut *msg,
                    Message {
                        from: NodeId(0),
                        to: NodeId(0),
                        kind: MsgKind::SnoopPass,
                    },
                );
                if self.msg_pool.len() < 64 {
                    self.msg_pool.push(msg);
                }
                self.deliver_now(now, m);
            }
        }
    }

    /// 2PL-T: a cohort has been blocked for the full lock timeout — presume
    /// deadlock and abort the transaction (the blocked node notifies the
    /// coordinator, paying the usual message costs).
    fn on_lock_timeout(
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
        self.send(
            now,
            node,
            NodeId::HOST,
            MsgKind::AbortRequest {
                txn: id,
                run,
                cause: AbortCause::LockTimeout,
            },
        );
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// A planned crash begins. The node instantly loses everything volatile:
    /// CPU queues, disk queues (including in-service transfers), CC manager
    /// state, and the buffer pool. The coordinator (which in this model
    /// observes crashes via its own timeout machinery, here collapsed into
    /// one deterministic sweep at the crash instant) marks every in-flight
    /// cohort at the node as lost, aborts runs that can still abort, and
    /// synthesizes the acknowledgements that dead cohorts can never send.
    fn on_node_down(&mut self, now: SimTime, node: NodeId) {
        if !self.nodes[node.0].up {
            return; // overlapping windows are filtered at plan time; be safe
        }
        let st = &mut self.nodes[node.0];
        st.up = false;
        st.epoch += 1;
        st.cpu.clear(now);
        st.disks.clear_all(now);
        st.cc = make_manager_with(self.config.algorithm, self.config.system.lock_barging);
        let files = self
            .placement
            .files_per_node(self.config.system.num_proc_nodes)[node.0 - 1];
        st.cc.preallocate(
            files * self.config.database.pages_per_file as usize,
            self.config.max_txn_accesses(),
        );
        st.buffer = LruPool::new(self.config.system.buffer_pages as usize);
        if let Some(o) = &mut self.obs {
            o.witness(now, || WitnessEvent::NodeCrash { node });
        }
        self.metrics.faults.crashes += 1;
        self.resched_cpu(now, node);
        self.resched_disks(now, node);
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
                TxnPhase::Committing | TxnPhase::AbortingVote => {
                    mid_commit += 1;
                    if !t.cohorts[ci].acked {
                        t.cohorts[ci].acked = true;
                        synths.push(t.id);
                    }
                }
                TxnPhase::Aborting => {
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
            self.synth_ack(now, id);
        }
        self.restart_snoop(now);
    }

    /// A crashed node finishes recovery: its partitions are re-admitted (new
    /// cohorts can load there again; messages parked by the retry loop start
    /// landing).
    fn on_node_up(&mut self, now: SimTime, node: NodeId) {
        if self.nodes[node.0].up {
            return;
        }
        self.nodes[node.0].up = true;
        self.metrics.faults.recoveries += 1;
        self.restart_snoop(now);
    }

    /// A planned disk-stall interval begins: every disk at the node defers
    /// completions (including the transfers currently in service) to `until`.
    fn on_disk_stall(&mut self, now: SimTime, node: NodeId, until: SimTime) {
        if !self.nodes[node.0].up {
            return; // the crash already destroyed the queued work
        }
        self.metrics.faults.disk_stalls += 1;
        self.nodes[node.0].disks.stall_all(until);
        self.resched_disks(now, node);
    }

    /// Account one synthesized acknowledgement (for a cohort that crashed
    /// after the decision point) against the coordinator's outstanding count.
    fn synth_ack(&mut self, now: SimTime, id: TxnId) {
        let Some(txn) = self.txns.get_mut(id) else {
            return;
        };
        debug_assert!(txn.acks_outstanding > 0, "synth_ack with nothing pending");
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

    /// The commit-protocol response timeout expired for this run. In the
    /// vote phase the coordinator presumes abort (a cohort or its node is
    /// gone); in the decision/abort phases the decision is retransmitted to
    /// every cohort that has not acknowledged — the path that lets dropped
    /// decisions and crashed-then-recovered nodes converge.
    fn on_cohort_timeout(&mut self, now: SimTime, id: TxnId, run: RunId) {
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
            TxnPhase::Committing | TxnPhase::AbortingVote => {
                let commit = txn.phase == TxnPhase::Committing;
                let template = Rc::clone(&txn.template);
                let mut synths: Vec<CohortIdx> = Vec::new();
                let mut resend: Vec<(CohortIdx, NodeId)> = Vec::new();
                for (cohort, spec) in template.cohorts.iter().enumerate() {
                    let c = &txn.cohorts[cohort];
                    if c.acked {
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
                    self.synth_ack(now, id);
                }
                for (cohort, node) in resend {
                    self.send(
                        now,
                        NodeId::HOST,
                        node,
                        MsgKind::Decision {
                            txn: id,
                            run,
                            cohort,
                            commit,
                        },
                    );
                }
                self.rearm_cohort_timeout(id, run);
            }
            TxnPhase::Aborting => {
                let template = Rc::clone(&txn.template);
                let mut resend: Vec<(CohortIdx, NodeId)> = Vec::new();
                for (cohort, spec) in template.cohorts.iter().enumerate() {
                    let c = &txn.cohorts[cohort];
                    if c.loaded && !c.acked && !c.lost {
                        resend.push((cohort, spec.node));
                    }
                }
                for (cohort, node) in resend {
                    self.send(
                        now,
                        NodeId::HOST,
                        node,
                        MsgKind::AbortCohort {
                            txn: id,
                            run,
                            cohort,
                        },
                    );
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
            self.calendar.schedule_after(
                self.config.faults.cohort_timeout,
                Event::CohortTimeout { txn: id, run },
            );
        }
    }

    /// Crashes invalidate the deadlock detector's state: a gather in flight
    /// may be waiting on a reply that will never come, and the Snoop role
    /// itself may sit on a dead node. Restart the round from a live node.
    fn restart_snoop(&mut self, now: SimTime) {
        let Some(snoop) = &self.snoop else { return };
        let cur = snoop.current;
        let cur_down = !self.nodes[cur.0].up;
        if !cur_down && snoop.awaiting == 0 {
            return; // detector idle on a live node: nothing to repair
        }
        let next = if cur_down {
            (1..self.nodes.len())
                .map(NodeId)
                .find(|n| self.nodes[n.0].up)
        } else {
            Some(cur)
        };
        let Some(next) = next else {
            return; // every processing node is down; on_node_up retries
        };
        let snoop = self.snoop.as_mut().expect("checked above");
        snoop.round += 1; // invalidates stale wake-ups and replies
        snoop.current = next;
        snoop.awaiting = 0;
        snoop.edges.clear();
        let round = snoop.round;
        let _ = now;
        self.calendar.schedule_after(
            self.config.system.detection_interval,
            Event::SnoopWake { node: next, round },
        );
    }

    // ------------------------------------------------------------------
    // Transaction lifecycle
    // ------------------------------------------------------------------

    fn submit_transaction(&mut self, now: SimTime, terminal: usize) {
        if self.draining {
            return; // chaos epilogue: no new admissions, just finish the rest
        }
        let mut logical: Option<Rc<TxnTemplate>> = None;
        let mut unavailable = false;
        let template: Rc<TxnTemplate> = if self.script.is_some() {
            // Oracle replay: fixed templates in submission order; once the
            // script runs dry the terminal simply stops submitting. Scripted
            // templates are already physical (replica routing baked in at
            // recording time), so they are never re-materialized.
            let script = self.script.as_mut().expect("checked above");
            let Some(t) = script.templates.get(script.next) else {
                return;
            };
            script.next += 1;
            let t = t.clone();
            self.pooled_template(t)
        } else {
            let relation = self.config.relation_of_terminal(terminal);
            let mut tpl = self.take_template();
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
                if self.placement.factor() == 1 {
                    // Interned replica routes: factor-1 routing is the
                    // identity (see `route_identity_factor_one`), so the
                    // logical plan *is* the physical plan — share one `Rc`
                    // instead of re-materializing an identical copy per
                    // submission.
                    match route_identity_factor_one(&tpl, |n| self.nodes[n.0].up, &mut self.read_rr)
                    {
                        Ok(()) => {
                            logical = Some(Rc::clone(&tpl));
                            tpl
                        }
                        Err(_file) => {
                            logical = Some(Rc::clone(&tpl));
                            unavailable = true;
                            tpl
                        }
                    }
                } else {
                    match self.materialize(&tpl) {
                        Ok(t) => {
                            logical = Some(tpl);
                            self.pooled_template(t)
                        }
                        Err(_file) => {
                            // No live read/write replica set for some file:
                            // the transaction aborts before doing any work
                            // and retries after the usual restart delay.
                            logical = Some(Rc::clone(&tpl));
                            unavailable = true;
                            tpl
                        }
                    }
                }
            } else {
                tpl
            }
        };
        if !unavailable {
            if let Some(log) = &mut self.template_log {
                log.push((*template).clone());
            }
        }
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        let cohorts = self.take_cohorts(template.cohorts.len());
        let mut txn = TxnRuntime::with_cohorts(id, terminal, template, cohorts, now);
        txn.logical = logical;
        self.txns.insert(txn);
        if let Some(o) = &mut self.obs {
            o.phase(now, id, 1, TxnPhase::Executing);
        }
        if unavailable {
            if let Some(t) = self.txns.get_mut(id) {
                t.abort_cause = Some(AbortCause::ReplicaUnavailable);
            }
            self.complete_abort(now, id);
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

    /// Replication: route a logical template onto the currently live
    /// replicas (see [`materialize_replicated`]). Only reached at
    /// replication factor > 1; factor-1 routing goes through the interned
    /// identity fast path instead.
    fn materialize(&mut self, logical: &TxnTemplate) -> Result<TxnTemplate, ddbm_config::FileId> {
        let mut up = std::mem::take(&mut self.route_up);
        up.clear();
        up.extend(self.nodes.iter().map(|n| n.up));
        let routed = materialize_replicated(
            &self.config,
            &self.placement,
            logical,
            &up,
            &mut self.read_rr,
            self.hooks.skip_replica_write,
        );
        self.route_up = up;
        routed
    }

    // ------------------------------------------------------------------
    // Freelists: transaction plans, cohort-progress vectors, write-back
    // page lists, and Snoop edge buffers all cycle through pools so the
    // steady-state transaction lifecycle performs no heap allocation
    // (pinned by `tests/alloc_steady_state.rs`).
    // ------------------------------------------------------------------

    /// Upper bound on each freelist; anything beyond the cap is genuinely
    /// excess (pool high-water marks track live-transaction counts, which
    /// the terminal population bounds).
    const POOL_CAP: usize = 256;

    /// A uniquely-owned plan from the freelist (or a fresh one); the caller
    /// writes the new plan through `Rc::get_mut`, reusing the recycled
    /// cohort/access vectors.
    fn take_template(&mut self) -> Rc<TxnTemplate> {
        self.tpl_pool.pop().unwrap_or_else(|| {
            Rc::new(TxnTemplate {
                relation: 0,
                cohorts: Vec::new(),
            })
        })
    }

    /// Move `t` into a pooled `Rc`.
    fn pooled_template(&mut self, t: TxnTemplate) -> Rc<TxnTemplate> {
        let mut tpl = self.take_template();
        *Rc::get_mut(&mut tpl).expect("pooled template is uniquely owned") = t;
        tpl
    }

    /// Return a plan handle to the freelist if this was the last one.
    fn put_template(&mut self, tpl: Rc<TxnTemplate>) {
        if Rc::strong_count(&tpl) == 1 && self.tpl_pool.len() < Self::POOL_CAP {
            self.tpl_pool.push(tpl);
        }
    }

    /// A cleared cohort-progress vector of length `n` from the freelist.
    fn take_cohorts(&mut self, n: usize) -> Vec<CohortRun> {
        let mut v = self.cohort_pool.pop().unwrap_or_default();
        v.clear();
        v.resize_with(n, CohortRun::default);
        v
    }

    fn put_cohorts(&mut self, mut v: Vec<CohortRun>) {
        if self.cohort_pool.len() < Self::POOL_CAP {
            v.clear();
            self.cohort_pool.push(v);
        }
    }

    fn put_edges(&mut self, mut v: Vec<(TxnId, TxnId)>) {
        if self.edge_pool.len() < Self::POOL_CAP {
            v.clear();
            self.edge_pool.push(v);
        }
    }

    /// Return a finished transaction's heap parts to the freelists. The
    /// logical handle is dropped (or pooled) before the physical one, so a
    /// factor-1 run sharing one plan `Rc` between the two sees the survivor
    /// become uniquely owned and reusable.
    fn recycle_txn(&mut self, txn: TxnRuntime) {
        let TxnRuntime {
            template,
            logical,
            cohorts,
            ..
        } = txn;
        if let Some(l) = logical {
            if !Rc::ptr_eq(&l, &template) {
                self.put_template(l);
            }
        }
        self.put_template(template);
        self.put_cohorts(cohorts);
    }

    fn restart_txn(&mut self, now: SimTime, id: TxnId) {
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
        // cohorts load. Fault-free replicated runs keep their original
        // routing (re-materializing would advance the read cursor and pick
        // the same live set anyway), which also keeps recorded oracle
        // workloads aligned with their replays.
        if self.replication_on && self.faults_enabled {
            let logical = self
                .txns
                .get(id)
                .and_then(|t| t.logical.as_ref().map(Rc::clone));
            if let Some(logical) = logical {
                if self.placement.factor() == 1 {
                    // Interned route: the plan is already the identity
                    // routing, so a restart only needs to re-check replica
                    // availability (`begin_run` reset the cohorts above) —
                    // no re-materialization, no template churn.
                    if let Err(_file) = route_identity_factor_one(
                        &logical,
                        |n| self.nodes[n.0].up,
                        &mut self.read_rr,
                    ) {
                        if let Some(txn) = self.txns.get_mut(id) {
                            txn.abort_cause = Some(AbortCause::ReplicaUnavailable);
                        }
                        self.complete_abort(now, id);
                        return;
                    }
                } else {
                    match self.materialize(&logical) {
                        Ok(t) => {
                            let t = self.pooled_template(t);
                            let old = self.txns.get_mut(id).map(|txn| txn.replace_template(t));
                            if let Some(old) = old {
                                self.put_template(old);
                            }
                        }
                        Err(_file) => {
                            if let Some(txn) = self.txns.get_mut(id) {
                                txn.abort_cause = Some(AbortCause::ReplicaUnavailable);
                            }
                            self.complete_abort(now, id);
                            return;
                        }
                    }
                }
            }
        }
        self.load_cohorts(now, id, run);
    }

    /// Send `LoadCohort` to the cohorts that should start now: all of them
    /// for parallel execution, just the first for sequential.
    fn load_cohorts(&mut self, now: SimTime, id: TxnId, run: RunId) {
        let Some(txn) = self.txns.get(id) else {
            return;
        };
        let parallel = matches!(
            self.config.workload.exec_pattern,
            ddbm_config::ExecPattern::Parallel
        );
        let count = if parallel {
            txn.template.cohorts.len()
        } else {
            1
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

    /// True if (txn, run, cohort) identifies a cohort that is still
    /// executing — the guard that drops stale completions.
    fn live_cohort(&self, id: TxnId, run: RunId, cohort: CohortIdx) -> bool {
        self.txns.get(id).is_some_and(|t| {
            t.run == run
                && t.phase == TxnPhase::Executing
                && t.cohorts.get(cohort).is_some_and(|c| !c.done)
        })
    }

    /// Start the next access of a cohort, or report it done.
    fn cohort_continue(&mut self, now: SimTime, id: TxnId, run: RunId, cohort: CohortIdx) {
        if !self.live_cohort(id, run, cohort) {
            return;
        }
        let txn = self.txns.get(id).expect("live cohort checked");
        let next = txn.cohorts[cohort].next_access;
        let spec = &txn.template.cohorts[cohort];
        if next >= spec.accesses.len() {
            // All accesses complete: report to the coordinator. Locks and
            // workspace updates are held through the commit protocol.
            let node = spec.node;
            if let Some(t) = self.txns.get_mut(id) {
                t.cohorts[cohort].done = true;
            }
            if self.hooks.early_lock_release {
                // Test-only defect: a broken lock manager that frees the
                // cohort's locks at work-completion instead of holding them
                // through commit. The witness records the release honestly,
                // so the strictness checker sees a commit-release while the
                // coordinator is still Executing.
                if let Some(o) = &mut self.obs {
                    o.witness(now, || WitnessEvent::Release {
                        txn: id,
                        run,
                        node,
                        commit: true,
                    });
                }
                let rel = self.nodes[node.0].cc.commit(id);
                self.apply_release(now, node, rel, None);
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
        let node = spec.node;
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
    fn do_cc_request(
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
            AccessReply::Rejected => {
                // The requester must abort: tell the coordinator.
                self.send(
                    now,
                    node,
                    NodeId::HOST,
                    MsgKind::AbortRequest {
                        txn: id,
                        run,
                        cause: AbortCause::Timestamp,
                    },
                );
            }
        }
        self.apply_release(now, node, side, Some((id, meta.initial_ts)));
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
        if acc.write {
            self.start_page_processing(now, node, id, run, cohort, access);
        } else if self.nodes[node.0].buffer.probe(&acc.page) {
            // Buffer hit (extension; never taken with the paper's settings):
            // the page is already in memory, skip the disk read.
            self.start_page_processing(now, node, id, run, cohort, access);
        } else {
            let service = self.disk_service_time();
            let disk = self.rng_disk.index(self.config.system.num_disks);
            self.nodes[node.0].disks.submit(
                now,
                disk,
                DiskJob::Read {
                    txn: id,
                    run,
                    cohort,
                    access,
                    page: acc.page,
                },
                false,
                service,
            );
            self.resched_disks(now, node);
        }
    }

    fn start_page_processing(
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

    fn access_finished(&mut self, now: SimTime, id: TxnId, run: RunId, cohort: CohortIdx) {
        if !self.live_cohort(id, run, cohort) {
            return;
        }
        if let Some(t) = self.txns.get_mut(id) {
            t.cohorts[cohort].next_access += 1;
        }
        self.cohort_continue(now, id, run, cohort);
    }

    // ------------------------------------------------------------------
    // CC side effects
    // ------------------------------------------------------------------

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
            let Some(txn) = self.txns.get_mut(id) else {
                continue;
            };
            let Some(cohort) = txn.cohort_at(node) else {
                continue;
            };
            let run = txn.run;
            if let Some(since) = txn.cohorts[cohort].blocked_since.take() {
                if txn.phase == TxnPhase::Executing {
                    self.metrics.record_blocking(now.since(since));
                }
                if let Some(o) = &mut self.obs {
                    o.lock_wait_end(now, id, node);
                }
            }
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
            let Some(txn) = self.txns.get_mut(id) else {
                continue;
            };
            let Some(cohort) = txn.cohort_at(node) else {
                continue;
            };
            let run = txn.run;
            if let Some(since) = txn.cohorts[cohort].blocked_since.take() {
                if txn.phase == TxnPhase::Executing {
                    self.metrics.record_blocking(now.since(since));
                }
                if let Some(o) = &mut self.obs {
                    o.lock_wait_end(now, id, node);
                }
            }
            if let Some(o) = &mut self.obs {
                o.witness(now, || WitnessEvent::Reject {
                    txn: id,
                    run,
                    node,
                    page,
                });
            }
            self.send(
                now,
                node,
                NodeId::HOST,
                MsgKind::AbortRequest {
                    txn: id,
                    run,
                    cause: AbortCause::Timestamp,
                },
            );
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
            self.send(
                now,
                node,
                NodeId::HOST,
                MsgKind::AbortRequest {
                    txn: id,
                    run,
                    cause: AbortCause::Wound,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    fn handle_message(&mut self, now: SimTime, msg: Message) {
        if let Some(o) = &mut self.obs {
            o.msg_arrive(now, msg.from, msg.to, msg.kind.tag());
        }
        let node = msg.to;
        match msg.kind {
            MsgKind::LoadCohort { txn, run, cohort } => {
                // Drop if the run died while the message was in flight.
                if !self
                    .txns
                    .get(txn)
                    .is_some_and(|t| t.run == run && t.phase == TxnPhase::Executing)
                {
                    return;
                }
                // Stamp the node's crash epoch the moment the node learns of
                // the cohort: protocol messages carrying an older stamp refer
                // to state a crash has since destroyed.
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
            MsgKind::CohortDone { txn, run, cohort } => self.on_cohort_done(now, txn, run, cohort),
            MsgKind::Prepare {
                txn,
                run,
                cohort,
                commit_ts,
            } => {
                let Some(t) = self.txns.get(txn) else { return };
                if t.run != run {
                    return;
                }
                // A cohort whose state died in a crash cannot vote yes: the
                // rebuilt CC manager has no read/write sets to certify.
                let stale = t.cohorts[cohort].lost
                    || t.cohorts[cohort].load_epoch != self.nodes[node.0].epoch;
                let yes = if stale {
                    if let Some(tm) = self.txns.get_mut(txn) {
                        tm.abort_cause = Some(AbortCause::NodeCrash);
                    }
                    false
                } else {
                    let meta = self.txns.get(txn).expect("checked above").meta();
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
            MsgKind::Vote { txn, run, yes, .. } => self.on_vote(now, txn, run, yes),
            MsgKind::Decision {
                txn,
                run,
                cohort,
                commit,
            } => self.on_decision(now, node, txn, run, cohort, commit),
            MsgKind::Ack { txn, run, cohort } => self.on_ack(now, txn, run, cohort),
            MsgKind::AbortRequest { txn, run, cause } => {
                self.on_abort_request(now, txn, run, cause)
            }
            MsgKind::AbortCohort { txn, run, cohort } => {
                // Dismantle the cohort: discard CC state, cancel its pending
                // CPU work and queued disk reads. In-service disk requests
                // complete harmlessly (their completions are stale-dropped).
                // Fault injection can retransmit this message, so a stale
                // copy (newer run, already-settled cohort, or a cohort whose
                // state a crash destroyed) must not dismantle fresh state —
                // it is acknowledged without touching the CC manager.
                let fresh = self.txns.get(txn).is_some_and(|t| {
                    let c = &t.cohorts[cohort];
                    t.run == run
                        && !c.settled
                        && !c.lost
                        && c.load_epoch == self.nodes[node.0].epoch
                });
                if fresh {
                    if let Some(t) = self.txns.get_mut(txn) {
                        t.cohorts[cohort].settled = true;
                    }
                    if let Some(o) = &mut self.obs {
                        o.witness(now, || WitnessEvent::Release {
                            txn,
                            run,
                            node,
                            commit: false,
                        });
                    }
                    let rel = self.nodes[node.0].cc.abort(txn);
                    self.apply_release(now, node, rel, None);
                    self.touch_cpu(now, node);
                    self.nodes[node.0].cpu.cancel_shared_where(|job| match job {
                        CpuJob::CohortStartup { txn: t, run: r, .. }
                        | CpuJob::CcRequest { txn: t, run: r, .. }
                        | CpuJob::PageProcess { txn: t, run: r, .. } => *t == txn && *r == run,
                        _ => false,
                    });
                    self.resched_cpu(now, node);
                    self.nodes[node.0].disks.cancel_queued_where(|job| {
                        matches!(job, DiskJob::Read { txn: t, run: r, .. } if *t == txn && *r == run)
                    });
                }
                self.send(
                    now,
                    node,
                    NodeId::HOST,
                    MsgKind::AbortAck { txn, run, cohort },
                );
            }
            MsgKind::AbortAck { txn, run, cohort } => self.on_abort_ack(now, txn, run, cohort),
            MsgKind::SnoopRequest { round } => {
                let mut edges = self.edge_pool.pop().unwrap_or_default();
                self.nodes[node.0].cc.waits_for_edges_into(&mut edges);
                self.send(now, node, msg.from, MsgKind::SnoopReply { round, edges });
            }
            MsgKind::SnoopReply { round, edges } => self.on_snoop_reply(now, node, round, edges),
            MsgKind::SnoopPass => {
                let Some(snoop) = &self.snoop else { return };
                let round = snoop.round;
                self.calendar.schedule_after(
                    self.config.system.detection_interval,
                    Event::SnoopWake { node, round },
                );
            }
        }
    }

    fn on_cohort_done(&mut self, now: SimTime, id: TxnId, run: RunId, cohort: CohortIdx) {
        let Some(txn) = self.txns.get_mut(id) else {
            return;
        };
        if txn.run != run || txn.phase != TxnPhase::Executing {
            return;
        }
        txn.cohorts[cohort].done = true;
        if !txn.all_done() {
            // Sequential execution: fire up the next cohort.
            if matches!(
                self.config.workload.exec_pattern,
                ddbm_config::ExecPattern::Sequential
            ) {
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
        if self.faults_enabled {
            self.calendar.schedule_after(
                self.config.faults.cohort_timeout,
                Event::CohortTimeout { txn: id, run },
            );
        }
    }

    fn on_vote(&mut self, now: SimTime, id: TxnId, run: RunId, yes: bool) {
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

    fn on_decision(
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
        {
            let c = &txn.cohorts[cohort];
            if c.settled || c.lost || c.load_epoch != self.nodes[node.0].epoch {
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
                return;
            }
        }
        if let Some(t) = self.txns.get_mut(id) {
            t.cohorts[cohort].settled = true;
        }
        let txn = self.txns.get(id).expect("checked above");
        if commit {
            // Only the commit path needs the write set; read-only cohorts
            // and aborts build nothing. The list comes from the page-list
            // freelist (recycled when the write-back chain issues its last
            // disk write), so steady-state commits allocate nothing.
            let mut pages = self.page_pool.pop().unwrap_or_default();
            // Grow straight to the workload bound: letting each recycled
            // buffer creep up by amortized doubling would reallocate long
            // after warmup.
            pages.reserve(self.config.max_txn_accesses());
            pages.extend(
                txn.template.cohorts[cohort]
                    .accesses
                    .iter()
                    .filter(|a| a.write)
                    .map(|a| a.page),
            );
            // Witness installs *before* releasing locks: a release can grant
            // a waiter at this same instant, and its read must sequence
            // after these writes.
            if let Some(o) = &mut self.obs {
                let run_ts = txn.meta().run_ts;
                let commit_ts = txn.commit_ts.unwrap_or(Ts::ZERO);
                for &page in &pages {
                    o.witness(now, || WitnessEvent::Install {
                        txn: id,
                        run,
                        node,
                        page,
                        run_ts,
                        commit_ts,
                    });
                }
                o.witness(now, || WitnessEvent::Release {
                    txn: id,
                    run,
                    node,
                    commit: true,
                });
            }
            let rel = self.nodes[node.0].cc.commit(id);
            self.apply_release(now, node, rel, None);
            // Kick off the asynchronous write-back chain for this cohort's
            // updated pages: InstPerUpdate CPU per page, then the disk write.
            if !pages.is_empty() {
                let instr = self.config.system.inst_per_update as f64;
                self.cpu_shared(
                    now,
                    node,
                    CpuJob::UpdateInit {
                        txn: id,
                        pages,
                        next: 0,
                    },
                    instr,
                );
            } else if self.page_pool.len() < Self::POOL_CAP {
                self.page_pool.push(pages);
            }
        } else {
            if let Some(o) = &mut self.obs {
                o.witness(now, || WitnessEvent::Release {
                    txn: id,
                    run,
                    node,
                    commit: false,
                });
            }
            let rel = self.nodes[node.0].cc.abort(id);
            self.apply_release(now, node, rel, None);
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

    fn on_ack(&mut self, now: SimTime, id: TxnId, run: RunId, cohort: CohortIdx) {
        let Some(txn) = self.txns.get_mut(id) else {
            return;
        };
        if txn.run != run {
            return;
        }
        // Retransmission makes duplicate acks possible, and a crash sweep may
        // have synthesized this cohort's ack already: count each cohort once.
        if !matches!(txn.phase, TxnPhase::Committing | TxnPhase::AbortingVote)
            || txn.cohorts[cohort].acked
        {
            return;
        }
        txn.cohorts[cohort].acked = true;
        txn.acks_outstanding -= 1;
        if txn.acks_outstanding > 0 {
            return;
        }
        match txn.phase {
            TxnPhase::Committing => self.complete_commit(now, id),
            TxnPhase::AbortingVote => self.complete_abort(now, id),
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

    fn on_abort_request(&mut self, now: SimTime, id: TxnId, run: RunId, cause: AbortCause) {
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
        if self.faults_enabled {
            self.calendar.schedule_after(
                self.config.faults.cohort_timeout,
                Event::CohortTimeout { txn: id, run },
            );
        }
    }

    fn on_abort_ack(&mut self, now: SimTime, id: TxnId, run: RunId, cohort: CohortIdx) {
        let Some(txn) = self.txns.get_mut(id) else {
            return;
        };
        if txn.run != run || txn.phase != TxnPhase::Aborting || txn.cohorts[cohort].acked {
            return;
        }
        txn.cohorts[cohort].acked = true;
        txn.acks_outstanding -= 1;
        if txn.acks_outstanding == 0 {
            self.complete_abort(now, id);
        }
    }

    // ------------------------------------------------------------------
    // Global deadlock detection (the Snoop, 2PL only)
    // ------------------------------------------------------------------

    fn snoop_wake(&mut self, now: SimTime, node: NodeId, round: u64) {
        let Some(snoop) = &mut self.snoop else {
            return;
        };
        if snoop.round != round || snoop.current != node {
            return; // stale wake-up
        }
        if !self.nodes[node.0].up {
            return; // the crash handler already moved the role elsewhere
        }
        snoop.edges.clear();
        self.nodes[node.0].cc.waits_for_edges_into(&mut snoop.edges);
        // Every *live* processing node except the Snoop itself; crashed nodes
        // have no lock tables to report (and could not answer anyway).
        let others = (1..self.nodes.len())
            .map(NodeId)
            .filter(|n| *n != node && self.nodes[n.0].up)
            .count();
        if others == 0 {
            self.finish_detection(now, node);
            return;
        }
        self.snoop.as_mut().expect("snoop exists").awaiting = others;
        for i in 1..self.nodes.len() {
            let other = NodeId(i);
            if other != node && self.nodes[i].up {
                self.send(now, node, other, MsgKind::SnoopRequest { round });
            }
        }
    }

    fn on_snoop_reply(
        &mut self,
        now: SimTime,
        node: NodeId,
        round: u64,
        mut edges: Vec<(TxnId, TxnId)>,
    ) {
        let mut finish = false;
        if let Some(snoop) = &mut self.snoop {
            if snoop.round == round && snoop.current == node && snoop.awaiting > 0 {
                snoop.edges.append(&mut edges);
                snoop.awaiting -= 1;
                finish = snoop.awaiting == 0;
            }
        }
        self.put_edges(edges);
        if finish {
            self.finish_detection(now, node);
        }
    }

    /// Union the gathered edges, abort the youngest member of every cycle,
    /// and pass the Snoop role to the next node.
    fn finish_detection(&mut self, now: SimTime, node: NodeId) {
        let snoop = self.snoop.as_mut().expect("2PL only");
        let mut edges = std::mem::take(&mut snoop.edges);
        // Edges naming transactions that finished while the gather was in
        // flight are stale; drop them.
        edges.retain(|(a, b)| self.txns.contains(*a) && self.txns.contains(*b));
        let txns = &self.txns;
        let victims = resolve_deadlocks(&edges, |t| {
            txns.get(t)
                .map(|rt| rt.meta().initial_ts)
                .unwrap_or(Ts::ZERO)
        });
        let requests: Vec<(TxnId, RunId)> = victims
            .into_iter()
            .filter_map(|v| self.txns.get(v).map(|t| (v, t.run)))
            .collect();
        for (victim, run) in requests {
            self.send(
                now,
                node,
                NodeId::HOST,
                MsgKind::AbortRequest {
                    txn: victim,
                    run,
                    cause: AbortCause::Deadlock,
                },
            );
        }
        // Pass the role round-robin over the processing nodes, skipping ones
        // that are currently crashed (the cycle lands back on this node — a
        // live one, or finish_detection could not be running — at worst).
        let mut next = NodeId(node.0 % (self.nodes.len() - 1) + 1);
        while !self.nodes[next.0].up {
            next = NodeId(next.0 % (self.nodes.len() - 1) + 1);
        }
        let snoop = self.snoop.as_mut().expect("2PL only");
        snoop.round += 1;
        snoop.current = next;
        // Hand the gather buffer (with its capacity) back for the next
        // round; `std::mem::take` above left an empty placeholder.
        edges.clear();
        snoop.edges = edges;
        if next == node {
            // Single processing node: keep the role, schedule the next wake.
            let round = snoop.round;
            self.calendar.schedule_after(
                self.config.system.detection_interval,
                Event::SnoopWake { node, round },
            );
        } else {
            self.send(now, node, next, MsgKind::SnoopPass);
        }
    }

    // ------------------------------------------------------------------
    // Resource plumbing
    // ------------------------------------------------------------------

    /// Advance a node's CPU and handle every completed job. Completions land
    /// in a pooled scratch buffer, so steady-state advances do not allocate.
    fn touch_cpu(&mut self, now: SimTime, node: NodeId) {
        if self.nodes[node.0].cpu.is_current(now) {
            return; // clock already at `now`: nothing can have completed
        }
        let mut buf = self.cpu_bufs.pop().unwrap_or_default();
        self.nodes[node.0].cpu.advance_into(now, &mut buf);
        for job in buf.drain(..) {
            self.handle_cpu_done(now, node, job);
        }
        self.cpu_bufs.push(buf);
    }

    /// Note that the node's CPU prediction may have changed. The calendar is
    /// reconciled lazily by [`flush_rescheds`](Self::flush_rescheds) once the
    /// current event's handler cascade has run to completion — a single
    /// event often re-predicts the same resource several times (message
    /// completions submitting replies, grants waking cohorts, ...), and
    /// deferring collapses all of them into at most one cancel/schedule.
    fn resched_cpu(&mut self, now: SimTime, node: NodeId) {
        let _ = now;
        let state = &mut self.nodes[node.0];
        if !state.cpu_dirty {
            state.cpu_dirty = true;
            self.dirty_cpu.push(node);
        }
    }

    /// Re-predict the node's next CPU completion and make the calendar agree:
    /// unchanged predictions keep their slot entry, moved ones overwrite it
    /// in place, vanished ones clear the slot. Only a *changed* prediction
    /// consumes a calendar sequence number — the same consumption pattern as
    /// the cancel-and-replace keyed scheduling this replaced, which is what
    /// keeps run reports bit-identical (see `denet::calendar` module docs).
    fn flush_resched_cpu(&mut self, node: NodeId) {
        if let Some(o) = &mut self.obs {
            o.cpu(self.calendar.now(), node, !self.nodes[node.0].cpu.is_idle());
        }
        let slot = self.nodes[node.0].cpu_slot;
        match self.nodes[node.0].cpu.next_completion() {
            Some(at) => {
                if self.calendar.slot_time(slot) != Some(at) {
                    self.calendar.set_slot(slot, at, Event::CpuPoll { node });
                }
            }
            None => self.calendar.clear_slot(slot),
        }
    }

    /// Reconcile every deferred resource prediction with the calendar. Must
    /// run after each event dispatch, before the next calendar pop: the
    /// calendar only stays an accurate picture of future completions between
    /// events, not within a handler cascade.
    fn flush_rescheds(&mut self) {
        while let Some(node) = self.dirty_cpu.pop() {
            self.nodes[node.0].cpu_dirty = false;
            self.flush_resched_cpu(node);
        }
        while let Some(node) = self.dirty_disk.pop() {
            self.nodes[node.0].disk_dirty = false;
            self.flush_resched_disks(node);
        }
    }

    fn touch_disks(&mut self, now: SimTime, node: NodeId) {
        if self.nodes[node.0].disks.is_current(now) {
            return; // nothing in service can have completed by `now`
        }
        let mut buf = self.disk_bufs.pop().unwrap_or_default();
        self.nodes[node.0].disks.advance_into(now, &mut buf);
        for job in buf.drain(..) {
            self.handle_disk_done(now, node, job);
        }
        self.disk_bufs.push(buf);
    }

    /// Deferred twin of [`resched_cpu`](Self::resched_cpu) for the disk
    /// array.
    fn resched_disks(&mut self, now: SimTime, node: NodeId) {
        let _ = now;
        let state = &mut self.nodes[node.0];
        if !state.disk_dirty {
            state.disk_dirty = true;
            self.dirty_disk.push(node);
        }
    }

    fn flush_resched_disks(&mut self, node: NodeId) {
        if let Some(o) = &mut self.obs {
            let busy = self.nodes[node.0].disks.any_busy();
            o.disk(self.calendar.now(), node, busy);
        }
        let slot = self.nodes[node.0].disk_slot;
        match self.nodes[node.0].disks.next_completion() {
            Some(at) => {
                if self.calendar.slot_time(slot) != Some(at) {
                    self.calendar.set_slot(slot, at, Event::DiskPoll { node });
                }
            }
            None => self.calendar.clear_slot(slot),
        }
    }

    /// Submit ordinary (processor-shared) CPU work; zero-cost work completes
    /// inline.
    fn cpu_shared(&mut self, now: SimTime, node: NodeId, job: CpuJob, instr: f64) {
        self.touch_cpu(now, node);
        if let Some(done) = self.nodes[node.0].cpu.submit_shared(now, job, instr) {
            self.handle_cpu_done(now, node, done);
        }
        self.resched_cpu(now, node);
    }

    /// Queue the send-side protocol processing for a message.
    fn send(&mut self, now: SimTime, from: NodeId, to: NodeId, kind: MsgKind) {
        if let Some(o) = &mut self.obs {
            o.msg_send(now, from, to, kind.tag());
        }
        let msg = Message { from, to, kind };
        let instr = self.config.system.inst_per_msg as f64;
        self.touch_cpu(now, from);
        if let Some(CpuJob::MsgSend(m)) =
            self.nodes[from.0]
                .cpu
                .submit_message(now, CpuJob::MsgSend(msg), instr)
        {
            self.deliver(now, m);
        }
        self.resched_cpu(now, from);
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
                let retry = f.msg_retry;
                let msg = self.boxed_msg(msg);
                self.calendar
                    .schedule_after(retry, Event::MsgArrive { msg });
                return;
            }
            if f.msg_delay_prob > 0.0 && self.rng_fault.bernoulli(f.msg_delay_prob) {
                self.metrics.faults.msgs_delayed += 1;
                let extra = SimDuration(self.rng_fault.uniform_u64(1, f.msg_delay_max.0.max(1)));
                let msg = self.boxed_msg(msg);
                self.calendar
                    .schedule_after(extra, Event::MsgArrive { msg });
                return;
            }
        }
        self.deliver_now(now, msg);
    }

    /// Box a message for an `Event::MsgArrive` envelope, reusing a recycled
    /// envelope when one is pooled.
    fn boxed_msg(&mut self, msg: Message) -> Box<Message> {
        match self.msg_pool.pop() {
            Some(mut b) => {
                *b = msg;
                b
            }
            None => Box::new(msg),
        }
    }

    /// Deliver unconditionally — unless the receiver is crashed, in which
    /// case the message parks in the retry loop until the node comes back
    /// (senders in this model retransmit indefinitely; the coordinator's
    /// own timeouts decide when to give up on a cohort).
    fn deliver_now(&mut self, now: SimTime, msg: Message) {
        let to = msg.to;
        if !self.nodes[to.0].up {
            self.metrics.faults.msgs_to_down_node += 1;
            let retry = self.config.faults.msg_retry;
            let msg = self.boxed_msg(msg);
            self.calendar
                .schedule_after(retry, Event::MsgArrive { msg });
            return;
        }
        let instr = self.config.system.inst_per_msg as f64;
        self.touch_cpu(now, to);
        if let Some(CpuJob::MsgRecv(m)) =
            self.nodes[to.0]
                .cpu
                .submit_message(now, CpuJob::MsgRecv(msg), instr)
        {
            self.handle_message(now, m);
        }
        self.resched_cpu(now, to);
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
            CpuJob::UpdateInit { txn, pages, next } => {
                // Issue the disk write for the current page, then chain the
                // next initiation, advancing the cursor through the shared
                // page list (no front-shifting). The fresh page version is in
                // memory, so it enters the buffer pool (extension; no-op at
                // capacity 0).
                let page = pages[next];
                self.nodes[node.0].buffer.insert(page);
                let service = self.disk_service_time();
                let disk = self.rng_disk.index(self.config.system.num_disks);
                self.nodes[node.0].disks.submit(
                    now,
                    disk,
                    DiskJob::WriteBack { txn },
                    true,
                    service,
                );
                self.resched_disks(now, node);
                if next + 1 < pages.len() {
                    let instr = self.config.system.inst_per_update as f64;
                    self.cpu_shared(
                        now,
                        node,
                        CpuJob::UpdateInit {
                            txn,
                            pages,
                            next: next + 1,
                        },
                        instr,
                    );
                } else if self.page_pool.len() < Self::POOL_CAP {
                    // Last initiation of the chain: recycle the page list.
                    let mut pages = pages;
                    pages.clear();
                    self.page_pool.push(pages);
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

    // ------------------------------------------------------------------
    // Distributions and run control
    // ------------------------------------------------------------------

    fn think_delay(&mut self) -> SimDuration {
        let secs = self
            .rng_think
            .exponential(self.config.workload.think_time_secs);
        SimDuration::from_secs_f64(secs)
    }

    fn disk_service_time(&mut self) -> SimDuration {
        let lo = self.config.system.min_disk_time.as_secs_f64();
        let hi = self.config.system.max_disk_time.as_secs_f64();
        SimDuration::from_secs_f64(self.rng_disk.uniform_f64(lo, hi))
    }

    /// After every commit: end warmup or end the run.
    fn check_progress(&mut self, now: SimTime) {
        if !self.warmup_done {
            if self.metrics.total_commits >= self.config.control.warmup_commits {
                self.warmup_done = true;
                self.metrics.reset(now);
                if let Some(o) = &mut self.obs {
                    o.end_warmup();
                }
                for n in &mut self.nodes {
                    n.cpu.reset_utilization(now);
                    n.disks.reset_utilization(now);
                    n.buffer.reset_stats();
                }
            }
            return;
        }
        if self.metrics.commits >= self.config.control.measure_commits {
            self.finished = true;
        }
    }
}

/// Convenience: build, run, and report in one call.
pub fn run_config(config: Config) -> Result<RunReport, ConfigError> {
    Ok(Simulator::new(config)?.run())
}

/// Run with event tracing and phase statistics forced on; returns the
/// report together with the sealed [`TraceLog`], ready for export as
/// Chrome-trace JSON or JSONL.
pub fn run_traced(mut config: Config) -> Result<(RunReport, TraceLog), ConfigError> {
    config.trace.events = true;
    config.trace.phase_stats = true;
    let mut sim = Simulator::new(config)?;
    let (report, obs) = sim.run_observed(None, false);
    let trace = obs.and_then(|o| o.into_trace(sim.calendar.now()));
    Ok((report, trace.expect("tracing was enabled")))
}

/// Everything the `ddbm-oracle` invariant checkers need from one
/// instrumented run: the report, the protocol witness stream, and the
/// workload that was actually executed (in submission order, ready for
/// delta-debugging when a check fails).
pub struct OracleRecording {
    /// The run report.
    pub report: RunReport,
    /// The witnessed protocol events in emission order. Empty when the run
    /// fed its events to a sink of the caller's through [`run_witnessed`].
    pub witness: WitnessStream,
    /// Events dropped after the witness log filled; `0` means the stream is
    /// a complete record of the run (always `0` for [`run_witnessed`]).
    pub witness_overflow: u64,
    /// Every template submitted, in submission order. For a scripted run
    /// this is the consumed prefix of the script; otherwise it is the
    /// generated workload.
    pub templates: Vec<TxnTemplate>,
    /// True when the run hit `max_sim_time` instead of reaching its
    /// measurement target — the normal ending for scripted replays, whose
    /// finite workload can never satisfy `measure_commits`.
    pub truncated: bool,
}

/// Oracle entry point: [`run_witnessed`] into a [`WitnessLog`] of 2^22
/// events, returned as the recording's stream.
pub fn run_oracle(
    config: Config,
    script: Option<Vec<TxnTemplate>>,
    hooks: TestHooks,
) -> Result<OracleRecording, ConfigError> {
    let log = WitnessLog::new(WITNESS_CAPACITY);
    let (mut recording, log) = run_witnessed(config, script, hooks, false, log)?;
    (recording.witness, recording.witness_overflow) = log.into_parts();
    Ok(recording)
}

/// Run with witness emission forced on, feeding every event to `sink` as
/// it happens, and hand the sink back with the recording (whose `witness`
/// stays empty). Optionally replays a fixed transaction `script`
/// (terminals consume its templates in order and stop admitting when it
/// runs dry) and injects a deliberate [`TestHooks`] protocol defect.
///
/// With `drain`, the run does not stop at its commit target: admissions
/// shut off and the event loop keeps going until every in-flight
/// transaction commits. `report.drained` records whether the system
/// actually emptied — the liveness property the chaos suite asserts — and
/// the sink sees everything that committed, including during the drain.
pub fn run_witnessed<S: WitnessSink>(
    config: Config,
    script: Option<Vec<TxnTemplate>>,
    hooks: TestHooks,
    drain: bool,
    sink: S,
) -> Result<(OracleRecording, S), ConfigError> {
    let mut sim = Simulator::new(config)?;
    sim.hooks = hooks;
    sim.template_log = Some(Vec::new());
    if let Some(templates) = script {
        sim.script = Some(ScriptedWorkload { templates, next: 0 });
    }
    let (report, obs) = sim.run_observed(Some(Box::new(sink)), drain);
    let sink: Box<dyn Any> = obs
        .and_then(|o| o.into_witness())
        .expect("the sink was installed");
    let sink = *sink.downcast::<S>().expect("the sink keeps its type");
    let recording = OracleRecording {
        report,
        witness: WitnessStream::new(),
        witness_overflow: 0,
        templates: sim.template_log.take().unwrap_or_default(),
        truncated: sim.truncated,
    };
    Ok((recording, sink))
}
