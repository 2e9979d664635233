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
//!
//! This module holds the machine's state, the event loop and the run entry
//! points. The managers of the paper each live in a child module:
//!
//! * `coordinator` — the transaction manager's coordinator at the host:
//!   admission, restarts and the two-phase commit and abort protocols
//!   (§3.3);
//! * `cohort` — the cohorts at the processing nodes: page accesses, CC
//!   requests and their side effects, votes and decisions (§3.3);
//! * `resources` — the resource manager's CPU and disk glue (§3.4) and the
//!   network manager's message send and delivery (§3.5);
//! * `snoop` — the rotating global deadlock detector (§2.2);
//! * `faults` — crash, recovery, disk-stall and commit-timeout handling
//!   (extension);
//! * `routing` — replica routing of transaction plans (extension);
//! * `pool` — the freelists that keep the steady state allocation-free.

mod cohort;
mod coordinator;
mod faults;
mod pool;
mod resources;
mod routing;
mod snoop;

use crate::metrics::{MetricsCollector, RunReport};
use crate::observe::{Observer, WITNESS_CAPACITY};
use crate::protocol::{CpuJob, DiskJob, Event, Message};
use crate::store::TxnStore;
use crate::trace::TraceLog;
use crate::txn::CohortRun;
use crate::witness::{WitnessSink, WitnessStream};
use crate::workload::{RouteScratch, TxnTemplate};
use ddbm_cc::{make_manager_with, CcManager};
use ddbm_config::{Config, ConfigError, FaultPlan, NodeId, PageId, Placement, TxnId};
use ddbm_resource::{Cpu, DiskArray, LruPool};
use denet::{EventCalendar, Fired, SimDuration, SimRng, SimTime, SlotId, WitnessLog};
use pool::Pool;
use snoop::SnoopState;
use std::any::Any;
use std::rc::Rc;

struct NodeState {
    cpu: Cpu<CpuJob>,
    disks: DiskArray<DiskJob>,
    cc: Box<dyn CcManager>,
    /// The most page accesses one transaction can make at this node (0 at
    /// the host): the CC manager's per-transaction lists are sized by it,
    /// at startup and on every crash rebuild.
    max_accesses: usize,
    /// Extension: per-node LRU buffer pool (capacity 0 = the paper's model,
    /// every read access does a disk I/O).
    buffer: LruPool<PageId>,
    /// The CPU's next completion instant lives in a calendar *prediction
    /// slot*, calendar slot `2n` for node `n`. Every CPU state change
    /// re-predicts; if the instant moved, the slot is overwritten in place
    /// (an O(1) store — no heap traffic and no tombstone), so every firing
    /// of this slot is the unique live prediction for this node — no stale
    /// polls reach the handler, and the CPU is only ever advanced to
    /// instants where something actually completes. Slot seq consumption
    /// equals that of pushing each changed prediction onto the heap, so run
    /// reports stayed bit-identical across the switch to slots (see
    /// `denet::calendar` module docs).
    cpu_slot: SlotId,
    /// Same prediction-slot scheduling for the disk array, in slot `2n + 1`.
    disk_slot: SlotId,
    /// True while this node's CPU prediction awaits reconciliation with the
    /// calendar (it is listed in `Simulator::dirty_cpu`). A handler cascade
    /// can re-predict the same resource many times within one event; the
    /// flag coalesces those into a single slot update at event end.
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

/// A node's volatile CC and buffer state, fresh: built at startup and again
/// after every crash. The CC manager's page state grows on first touch, so
/// only its per-transaction buffers are pre-sized, to `max_accesses` (the
/// node's bound; see [`max_accesses_per_node`]).
fn fresh_cc_and_buffer(
    config: &Config,
    max_accesses: usize,
) -> (Box<dyn CcManager>, LruPool<PageId>) {
    let mut cc = make_manager_with(config.algorithm, config.system.lock_barging);
    cc.preallocate(0, max_accesses);
    (cc, LruPool::new(config.system.buffer_pages as usize))
}

/// The most page accesses one transaction can make at each node, indexed
/// by node id: the copies (replicas included) of one relation stored there
/// times `max_pages_per_file`, and 0 at the host, which stores no data.
/// In 8-way declustering this is 12, an eighth of
/// [`Config::max_txn_accesses`].
fn max_accesses_per_node(config: &Config, placement: &Placement) -> Vec<usize> {
    let pages = config.workload.max_pages_per_file as usize;
    std::iter::once(0)
        .chain(
            placement
                .relation_copies_per_node(config.system.num_proc_nodes)
                .into_iter()
                .map(|copies| copies * pages),
        )
        .collect()
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
    /// Under OPT, which certifies at prepare, the cohort is released
    /// abort-style, so its access sets are gone before certification.
    #[serde(default)]
    pub early_lock_release: bool,
    /// Replication: silently drop the last replica from every multi-replica
    /// write set at materialization time, so a committed write is never
    /// installed there — the classic stale-replica defect. The oracle's
    /// under-replication / one-copy-serializability checkers must catch it.
    #[serde(default)]
    pub skip_replica_write: bool,
}

/// A fixed transaction script for oracle replay (see [`run_oracle`]).
struct ScriptedWorkload {
    templates: Vec<TxnTemplate>,
    next: usize,
}

/// See module docs.
pub struct Simulator {
    config: Config,
    placement: Placement,
    calendar: EventCalendar<Event>,
    nodes: Vec<NodeState>,
    txns: TxnStore,
    next_txn: u64,
    /// Nodes whose CPU prediction changed during the current event and whose
    /// calendar entry has not been reconciled yet (see
    /// [`flush_rescheds`](Self::flush_rescheds)).
    dirty_cpu: Vec<NodeId>,
    /// Same deferral list for disk predictions.
    dirty_disk: Vec<NodeId>,
    /// Recycled `Event::MsgArrive` envelopes. Only fault paths (drops,
    /// delays, down receivers) box a message; fault-free traffic rides the
    /// CPU message class unboxed. With the pool, even faulty steady-state
    /// message traffic allocates nothing. The pool stores the `Box` itself
    /// (not the `Message`): the recycled heap cell is the point, since
    /// `Event::MsgArrive` needs a `Box<Message>` and re-boxing would
    /// allocate.
    msg_pool: Pool<Box<Message>>,
    /// Per-relation cohort groups, precomputed at construction:
    /// `Placement::cohort_groups` is placement-static but allocates per
    /// call, and template generation needs it once per transaction.
    cohort_groups: Vec<Vec<(NodeId, Vec<ddbm_config::FileId>)>>,
    /// Freelist of uniquely-owned logical transaction plans. A committed
    /// transaction's plan returns here, and the next submission writes its
    /// fresh plan into the recycled cohort/access vectors through
    /// `Rc::get_mut` — steady-state admission allocates nothing.
    tpl_pool: Pool<Rc<TxnTemplate>>,
    /// The same for replica-routed plans, kept apart: a routed plan has
    /// other cohorts, and longer access lists, than a logical one.
    routed_pool: Pool<Rc<TxnTemplate>>,
    /// Freelist of per-cohort progress vectors (`TxnRuntime::cohorts`).
    cohort_pool: Pool<Vec<CohortRun>>,
    /// Freelist of commit write-back page lists (`CpuJob::UpdateInit`),
    /// recycled when the initiation chain issues its last disk write.
    page_pool: Pool<Vec<PageId>>,
    /// The largest of the nodes' `max_accesses`: the capacity of every
    /// write-back page list.
    most_accesses: usize,
    /// Freelist of Snoop gather buffers (`MsgKind::SnoopReply` edge lists).
    edge_pool: Pool<Vec<(TxnId, TxnId)>>,
    /// Page-sampling scratch reused across template generations.
    sample_scratch: Vec<usize>,
    /// Node-liveness scratch reused across `route` calls.
    route_up: Vec<bool>,
    /// Replica-target scratch reused across `route` calls.
    route_scratch: RouteScratch,
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
        let msg_faults = config.faults.msg_drop_prob > 0.0 || config.faults.msg_delay_prob > 0.0;
        if msg_faults {
            // Dropped and delayed messages wait in the calendar: room for
            // one to or from each cohort of every terminal's transaction,
            // plus the transaction's own pending event.
            calendar.reserve(config.workload.num_terminals * (config.system.num_proc_nodes + 1));
        }
        let max_accesses = max_accesses_per_node(&config, &placement);
        let most_accesses = max_accesses.iter().copied().max().unwrap_or(0);
        let nodes: Vec<NodeState> = config
            .node_ids()
            .map(|id| {
                let (cc, buffer) = fresh_cc_and_buffer(&config, max_accesses[id.0]);
                let mut disks = DiskArray::new(config.system.num_disks);
                // A write queue's first allocation holds one transaction's
                // write-back at the node. (Reads need none: a cohort waits
                // for each before issuing the next.)
                disks.set_write_burst(max_accesses[id.0]);
                // Slots count up in registration order: 2n, then 2n + 1.
                let (cpu_slot, disk_slot) = (calendar.register_slot(), calendar.register_slot());
                debug_assert_eq!(cpu_slot.index(), 2 * id.0);
                NodeState {
                    cpu: Cpu::new(config.system.cpu_rate(id)),
                    disks,
                    cc,
                    max_accesses: max_accesses[id.0],
                    buffer,
                    cpu_slot,
                    disk_slot,
                    cpu_dirty: false,
                    disk_dirty: false,
                    up: true,
                    epoch: 0,
                }
            })
            .collect();
        let obs = config
            .trace
            .any()
            .then(|| Box::new(Observer::new(&config.trace, config.system.num_nodes())));
        let snoop = SnoopState::for_algorithm(config.algorithm);
        let cohort_groups = (0..config.database.num_relations)
            .map(|rel| placement.cohort_groups(rel))
            .collect();
        Ok(Simulator {
            placement,
            calendar,
            nodes,
            txns: TxnStore::new(),
            next_txn: 1,
            dirty_cpu: Vec::new(),
            dirty_disk: Vec::new(),
            // Only message faults box messages; stocked then, so a new
            // high-water of messages in flight takes no allocation.
            msg_pool: if msg_faults {
                Pool::stocked(Box::default)
            } else {
                Pool::default()
            },
            cohort_groups,
            tpl_pool: Pool::default(),
            routed_pool: Pool::default(),
            cohort_pool: Pool::default(),
            // Stocked up front at full capacity: the pool drains LIFO, so a
            // rarely-reached depth would otherwise hand out a fresh buffer
            // (and one allocation) long after warmup. A cohort writes at
            // most its node's access bound; lists move between nodes, so
            // each gets the largest.
            page_pool: Pool::stocked(|| Vec::with_capacity(most_accesses)),
            most_accesses,
            edge_pool: Pool::default(),
            sample_scratch: Vec::new(),
            route_up: Vec::new(),
            route_scratch: RouteScratch::with_cohort_capacity(most_accesses),
            rng_think: SimRng::derive(seed, "think"),
            rng_work: SimRng::derive(seed, "workload"),
            rng_proc: SimRng::derive(seed, "page-processing"),
            rng_disk: SimRng::derive(seed, "disk"),
            rng_fault: SimRng::derive(seed, "fault"),
            faults_enabled: config.faults.any(),
            replication_on: config.replication.enabled(),
            read_rr: 0,
            obs,
            hooks: TestHooks::default(),
            script: None,
            template_log: None,
            draining: false,
            metrics: MetricsCollector::new(),
            warmup_done: false,
            snoop,
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
        self.drive(|sim| sim.finished);
        if drain {
            // Chaos-mode epilogue: keep the event loop running, with new
            // admissions shut off, until every live transaction commits or
            // the simulated-time wall is hit (`RunReport::drained` tells
            // which).
            self.draining = true;
            self.drive(|sim| sim.txns.is_empty());
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
            self.schedule_snoop_wake(NodeId(1), 0);
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

    /// The event loop: pop and dispatch until `done` holds or the
    /// simulated-time wall is reached.
    fn drive(&mut self, done: impl Fn(&Simulator) -> bool) {
        while let Some((now, fired)) = self.calendar.pop() {
            if now > SimTime::ZERO + self.config.control.max_sim_time {
                self.truncated = true;
                break;
            }
            match fired {
                Fired::Slot(slot) => self.on_prediction(now, slot.index()),
                Fired::Event(ev) => self.on_event(now, ev),
            }
            // Reconcile deferred CPU/disk predictions with the calendar now
            // that the cascade is done, before the next pop relies on it.
            self.flush_rescheds();
            if done(self) {
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

    /// A resource's predicted completion came due: calendar slot `2n` is
    /// node `n`'s CPU, slot `2n + 1` its disk array. Superseded predictions
    /// are overwritten in their slot, so a slot that fires is always the
    /// live prediction, and popping it vacated the slot — the handlers
    /// below can freely re-predict without clobbering the one firing now.
    fn on_prediction(&mut self, now: SimTime, slot: usize) {
        let node = NodeId(slot / 2);
        if slot.is_multiple_of(2) {
            debug_assert_eq!(self.calendar.slot_time(self.nodes[node.0].cpu_slot), None);
            self.touch_cpu(now, node);
            self.resched_cpu(node);
        } else {
            debug_assert_eq!(self.calendar.slot_time(self.nodes[node.0].disk_slot), None);
            self.touch_disks(now, node);
            self.resched_disks(node);
        }
    }

    fn on_event(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::TerminalSubmit { terminal } => self.submit_transaction(now, terminal),
            Event::Restart { txn } => self.restart_txn(now, txn),
            Event::SnoopWake { node, round } => self.snoop_wake(now, node, round),
            Event::LockTimeout {
                txn,
                run,
                cohort,
                access,
            } => self.on_lock_timeout(now, txn, run, cohort, access),
            Event::NodeDown { node } => self.on_node_down(now, node),
            Event::NodeUp { node } => self.on_node_up(node),
            Event::DiskStall { node, until } => self.on_disk_stall(node, until),
            Event::CohortTimeout { txn, run } => self.on_cohort_timeout(now, txn, run),
            Event::MsgArrive { mut msg } => {
                // Take the contents and recycle the envelope.
                let m = std::mem::take(&mut *msg);
                self.msg_pool.put(msg);
                self.deliver_now(now, m);
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
    /// Every template submitted, in submission order: for a scripted run
    /// the consumed prefix of the script, otherwise the generated workload.
    /// Only [`run_oracle`] fills it, for the callers that shrink and
    /// replay a recorded run; it is empty for [`run_witnessed`], whose
    /// sink checks the run as it goes.
    pub templates: Vec<TxnTemplate>,
    /// True when the run hit `max_sim_time` instead of reaching its
    /// measurement target — the normal ending for scripted replays, whose
    /// finite workload can never satisfy `measure_commits`.
    pub truncated: bool,
}

/// Oracle entry point: [`run_witnessed`] into a [`WitnessLog`] of 2^22
/// events, returned as the recording's stream, with every submitted
/// template recorded alongside it.
pub fn run_oracle(
    config: Config,
    script: Option<Vec<TxnTemplate>>,
    hooks: TestHooks,
) -> Result<OracleRecording, ConfigError> {
    let log = WitnessLog::new(WITNESS_CAPACITY);
    let (mut recording, log) = run_with_sink(config, script, hooks, false, log, true)?;
    (recording.witness, recording.witness_overflow) = log.into_parts();
    Ok(recording)
}

/// Run with witness emission forced on, feeding every event to `sink` as
/// it happens, and hand the sink back with the recording (whose `witness`
/// and `templates` stay empty). Optionally replays a fixed transaction `script`
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
    run_with_sink(config, script, hooks, drain, sink, false)
}

/// [`run_witnessed`], recording the submitted templates when
/// `record_templates` holds.
fn run_with_sink<S: WitnessSink>(
    config: Config,
    script: Option<Vec<TxnTemplate>>,
    hooks: TestHooks,
    drain: bool,
    sink: S,
    record_templates: bool,
) -> Result<(OracleRecording, S), ConfigError> {
    let mut sim = Simulator::new(config)?;
    sim.hooks = hooks;
    sim.template_log = record_templates.then(Vec::new);
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
