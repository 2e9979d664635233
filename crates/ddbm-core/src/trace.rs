//! The simulator's event trace: recording, reconstruction, and export.
//!
//! In a `run_traced` run the simulator's observer records [`TraceEvent`]s
//! into an [`EventLog`] that keeps the newest 2^20 events, at every phase
//! boundary, lock-wait edge, message send/arrival, and resource busy/idle
//! transition. [`TraceLog`] post-processes the raw stream:
//! [`TraceLog::txn_traces`] replays it into per-transaction [`PhaseSpan`]
//! timelines (using the `(phase, blocked-cohorts) → bucket` partition, so
//! span durations sum exactly to each transaction's end-to-end latency),
//! and the two writers export Chrome-trace JSON (open in `chrome://tracing`
//! or Perfetto) and a line-per-event JSONL stream. The replay shares no
//! code with the live `PhaseCollector`, which is fed the same probes: the
//! observability tests use it as the collector's independent reference.
//!
//! Recording draws nothing from any RNG stream and never touches the
//! calendar, so a traced run commits and aborts the exact same transactions
//! at the exact same times as an untraced run of the same configuration.

use crate::txn::{PhaseBucket, TxnPhase};
use ddbm_config::{NodeId, TxnId};
use denet::{EventLog, FxHashMap, Keep, SimTime};
use std::io::{self, Write};

use crate::protocol::RunId;

/// One recorded simulation event. Payloads are `Copy` (labels are
/// `&'static str`), so recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A transaction entered `phase` (on submit, on every transition, and on
    /// each restart, where `run` increments).
    Phase {
        /// The transaction.
        txn: TxnId,
        /// The execution attempt.
        run: RunId,
        /// The phase entered.
        phase: TxnPhase,
    },
    /// The transaction committed and left the system.
    Committed {
        /// The transaction.
        txn: TxnId,
    },
    /// A cohort of `txn` blocked on a CC request at `node`. `held`/`waiting`
    /// snapshot the node's lock-table occupancy (transactions holding /
    /// waiting) at that instant.
    LockWaitBegin {
        /// The transaction.
        txn: TxnId,
        /// The node where the cohort blocked.
        node: NodeId,
        /// Transactions holding locks at the node.
        held: u32,
        /// Transactions waiting for locks at the node.
        waiting: u32,
    },
    /// The blocked cohort of `txn` at `node` was granted or rejected. A
    /// wait that an abort cuts short emits no end event: the transaction's
    /// `Aborting` phase event ends it.
    LockWaitEnd {
        /// The transaction.
        txn: TxnId,
        /// The node where the cohort had blocked.
        node: NodeId,
    },
    /// A protocol message was handed to the network.
    MsgSend {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// The message kind's static tag.
        kind: &'static str,
    },
    /// A protocol message reached its destination node.
    MsgArrive {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// The message kind's static tag.
        kind: &'static str,
    },
    /// A node's CPU went busy/idle (deduplicated: only transitions).
    CpuBusy {
        /// The node.
        node: NodeId,
        /// New state.
        busy: bool,
    },
    /// A node's disk array went busy/idle (deduplicated: only transitions).
    DiskBusy {
        /// The node.
        node: NodeId,
        /// New state.
        busy: bool,
    },
}

/// Most events a trace retains; past it the oldest are overwritten.
const EVENT_CAPACITY: usize = 1 << 20;

/// The live recorder `run_traced` installs in the simulator's observer.
#[derive(Debug)]
pub(crate) struct Tracer {
    log: EventLog<TraceEvent>,
    /// Last recorded CPU busy state per node, for transition dedup.
    cpu_busy: Vec<bool>,
    /// Last recorded disk busy state per node, for transition dedup.
    disk_busy: Vec<bool>,
}

impl Tracer {
    /// A tracer for a `num_nodes`-node machine.
    pub(crate) fn new(num_nodes: usize) -> Tracer {
        Tracer {
            log: EventLog::new(EVENT_CAPACITY, Keep::Newest),
            cpu_busy: vec![false; num_nodes],
            disk_busy: vec![false; num_nodes],
        }
    }

    /// Record one event.
    #[inline]
    pub(crate) fn push(&mut self, at: SimTime, event: TraceEvent) {
        self.log.push(at, event);
    }

    /// Record a CPU busy-state sample; only transitions are retained.
    #[inline]
    pub(crate) fn note_cpu(&mut self, at: SimTime, node: NodeId, busy: bool) {
        if self.cpu_busy[node.0] != busy {
            self.cpu_busy[node.0] = busy;
            self.log.push(at, TraceEvent::CpuBusy { node, busy });
        }
    }

    /// Record a disk busy-state sample; only transitions are retained.
    #[inline]
    pub(crate) fn note_disk(&mut self, at: SimTime, node: NodeId, busy: bool) {
        if self.disk_busy[node.0] != busy {
            self.disk_busy[node.0] = busy;
            self.log.push(at, TraceEvent::DiskBusy { node, busy });
        }
    }

    /// Seal the recording at simulation end time `end`.
    pub(crate) fn finish(self, end: SimTime) -> TraceLog {
        let (events, dropped) = self.log.into_parts();
        TraceLog {
            events,
            dropped,
            end,
        }
    }
}

/// One contiguous interval a transaction spent in one [`PhaseBucket`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// The bucket.
    pub bucket: PhaseBucket,
    /// Interval start.
    pub start: SimTime,
    /// Interval end (start of the next span, commit, or trace end).
    pub end: SimTime,
}

/// A transaction's reconstructed timeline.
#[derive(Debug, Clone)]
pub struct TxnTrace {
    /// The transaction.
    pub txn: TxnId,
    /// First observed event (submission, when the log did not wrap).
    pub submitted: SimTime,
    /// Commit instant, or `None` if the transaction was still live at trace
    /// end (its last span is closed at the trace end instead).
    pub committed: Option<SimTime>,
    /// Contiguous, chronologically ordered bucket intervals covering
    /// `[submitted, committed-or-end]` exactly.
    pub spans: Vec<PhaseSpan>,
}

/// A sealed trace: chronologically ordered events plus bookkeeping.
#[derive(Debug, Clone)]
pub struct TraceLog {
    /// Retained events, oldest first.
    pub events: Vec<(SimTime, TraceEvent)>,
    /// Events overwritten because the log filled (0 means the trace is
    /// complete; nonzero means early timelines are partial).
    pub dropped: u64,
    /// Simulation time when the trace was sealed.
    pub end: SimTime,
}

/// Replay state for one live transaction during reconstruction.
struct Live {
    submitted: SimTime,
    since: SimTime,
    phase: TxnPhase,
    blocked: u32,
    spans: Vec<PhaseSpan>,
}

impl Live {
    /// Close the current interval at `now` under the current bucket.
    fn roll(&mut self, now: SimTime) {
        let bucket = PhaseBucket::of(self.phase, self.blocked);
        if now > self.since {
            // Coalesce with the previous span when the bucket is unchanged
            // (e.g. a second cohort blocking while already in LockWait).
            if let Some(last) = self.spans.last_mut() {
                if last.bucket == bucket && last.end == self.since {
                    last.end = now;
                    self.since = now;
                    return;
                }
            }
            self.spans.push(PhaseSpan {
                bucket,
                start: self.since,
                end: now,
            });
        }
        self.since = now;
    }
}

impl TraceLog {
    /// Replay the event stream into per-transaction timelines, ordered by
    /// first appearance. Transactions still live at trace end get their last
    /// span closed at [`TraceLog::end`] and `committed: None`.
    pub fn txn_traces(&self) -> Vec<TxnTrace> {
        let mut live: FxHashMap<TxnId, Live> = FxHashMap::default();
        let mut order: Vec<TxnId> = Vec::new();
        let mut done: Vec<TxnTrace> = Vec::new();
        for &(at, ref ev) in &self.events {
            match *ev {
                TraceEvent::Phase { txn, phase, .. } => {
                    if let Some(l) = live.get_mut(&txn) {
                        l.roll(at);
                        l.phase = phase;
                        if phase == TxnPhase::Executing {
                            // A fresh run: the simulator resets its
                            // blocked-cohort count in `begin_run`.
                            l.blocked = 0;
                        }
                    } else {
                        order.push(txn);
                        live.insert(
                            txn,
                            Live {
                                submitted: at,
                                since: at,
                                phase,
                                blocked: 0,
                                spans: Vec::new(),
                            },
                        );
                    }
                }
                TraceEvent::LockWaitBegin { txn, .. } => {
                    if let Some(l) = live.get_mut(&txn) {
                        l.roll(at);
                        l.blocked += 1;
                    }
                }
                TraceEvent::LockWaitEnd { txn, .. } => {
                    if let Some(l) = live.get_mut(&txn) {
                        l.roll(at);
                        l.blocked = l.blocked.saturating_sub(1);
                    }
                }
                TraceEvent::Committed { txn } => {
                    if let Some(mut l) = live.remove(&txn) {
                        l.roll(at);
                        done.push(TxnTrace {
                            txn,
                            submitted: l.submitted,
                            committed: Some(at),
                            spans: l.spans,
                        });
                    }
                }
                _ => {}
            }
        }
        for (txn, mut l) in live {
            l.roll(self.end);
            done.push(TxnTrace {
                txn,
                submitted: l.submitted,
                committed: None,
                spans: l.spans,
            });
        }
        // Deterministic order: by first appearance in the stream (the live
        // map's iteration order is arbitrary).
        let first_seen: FxHashMap<TxnId, usize> =
            order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        done.sort_by_key(|t| first_seen.get(&t.txn).copied().unwrap_or(usize::MAX));
        done
    }

    /// Write the trace as Chrome-trace JSON (the `chrome://tracing` /
    /// Perfetto "JSON Array Format"). Timestamps are microseconds.
    ///
    /// * transaction phase spans: `ph:"X"` duration events, `pid` 1, one
    ///   `tid` per transaction, named after the phase bucket;
    /// * messages: `ph:"i"` instant events, `pid` 2, `tid` = sending node;
    /// * CPU/disk busy state: `ph:"C"` counter events, `pid` 3.
    pub fn write_chrome_trace<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let us = |t: SimTime| t.0 as f64 / 1_000.0;
        writeln!(w, "{{\"traceEvents\":[")?;
        let mut first = true;
        let sep = |w: &mut W, first: &mut bool| -> io::Result<()> {
            if *first {
                *first = false;
            } else {
                writeln!(w, ",")?;
            }
            Ok(())
        };
        for t in self.txn_traces() {
            for s in &t.spans {
                sep(w, &mut first)?;
                write!(
                    w,
                    "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
                    s.bucket.label(),
                    us(s.start),
                    (s.end.0 - s.start.0) as f64 / 1_000.0,
                    t.txn.0
                )?;
            }
        }
        for &(at, ref ev) in &self.events {
            match *ev {
                TraceEvent::MsgSend { from, to, kind } => {
                    sep(w, &mut first)?;
                    write!(
                        w,
                        "{{\"name\":\"{kind}\",\"cat\":\"msg\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":2,\"tid\":{},\"args\":{{\"to\":{}}}}}",
                        us(at),
                        from.0,
                        to.0
                    )?;
                }
                TraceEvent::CpuBusy { node, busy } => {
                    sep(w, &mut first)?;
                    write!(
                        w,
                        "{{\"name\":\"cpu-node{}\",\"ph\":\"C\",\"ts\":{},\"pid\":3,\"args\":{{\"busy\":{}}}}}",
                        node.0,
                        us(at),
                        busy as u8
                    )?;
                }
                TraceEvent::DiskBusy { node, busy } => {
                    sep(w, &mut first)?;
                    write!(
                        w,
                        "{{\"name\":\"disk-node{}\",\"ph\":\"C\",\"ts\":{},\"pid\":3,\"args\":{{\"busy\":{}}}}}",
                        node.0,
                        us(at),
                        busy as u8
                    )?;
                }
                _ => {}
            }
        }
        writeln!(w)?;
        writeln!(w, "],\"displayTimeUnit\":\"ms\"}}")
    }

    /// Write the raw event stream as JSONL: one JSON object per line, in
    /// chronological order, timestamps in integer nanoseconds.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for &(at, ref ev) in &self.events {
            let t = at.0;
            match *ev {
                TraceEvent::Phase { txn, run, phase } => writeln!(
                    w,
                    "{{\"t\":{t},\"ev\":\"phase\",\"txn\":{},\"run\":{},\"phase\":\"{:?}\"}}",
                    txn.0, run, phase
                )?,
                TraceEvent::Committed { txn } => {
                    writeln!(w, "{{\"t\":{t},\"ev\":\"committed\",\"txn\":{}}}", txn.0)?
                }
                TraceEvent::LockWaitBegin {
                    txn,
                    node,
                    held,
                    waiting,
                } => writeln!(
                    w,
                    "{{\"t\":{t},\"ev\":\"lock_wait_begin\",\"txn\":{},\"node\":{},\"held\":{held},\"waiting\":{waiting}}}",
                    txn.0, node.0
                )?,
                TraceEvent::LockWaitEnd { txn, node } => writeln!(
                    w,
                    "{{\"t\":{t},\"ev\":\"lock_wait_end\",\"txn\":{},\"node\":{}}}",
                    txn.0, node.0
                )?,
                TraceEvent::MsgSend { from, to, kind } => writeln!(
                    w,
                    "{{\"t\":{t},\"ev\":\"msg_send\",\"from\":{},\"to\":{},\"kind\":\"{kind}\"}}",
                    from.0, to.0
                )?,
                TraceEvent::MsgArrive { from, to, kind } => writeln!(
                    w,
                    "{{\"t\":{t},\"ev\":\"msg_arrive\",\"from\":{},\"to\":{},\"kind\":\"{kind}\"}}",
                    from.0, to.0
                )?,
                TraceEvent::CpuBusy { node, busy } => writeln!(
                    w,
                    "{{\"t\":{t},\"ev\":\"cpu_busy\",\"node\":{},\"busy\":{busy}}}",
                    node.0
                )?,
                TraceEvent::DiskBusy { node, busy } => writeln!(
                    w,
                    "{{\"t\":{t},\"ev\":\"disk_busy\",\"node\":{},\"busy\":{busy}}}",
                    node.0
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(txn: u64, run: RunId, phase: TxnPhase) -> TraceEvent {
        TraceEvent::Phase {
            txn: TxnId(txn),
            run,
            phase,
        }
    }

    /// A hand-built stream: submit → block → unblock → prepare → commit.
    fn sample_log() -> TraceLog {
        let n = NodeId(1);
        TraceLog {
            events: vec![
                (SimTime(100), phase(1, 1, TxnPhase::Executing)),
                (
                    SimTime(150),
                    TraceEvent::LockWaitBegin {
                        txn: TxnId(1),
                        node: n,
                        held: 1,
                        waiting: 1,
                    },
                ),
                (
                    SimTime(200),
                    TraceEvent::LockWaitEnd {
                        txn: TxnId(1),
                        node: n,
                    },
                ),
                (SimTime(260), phase(1, 1, TxnPhase::Preparing)),
                (SimTime(300), phase(1, 1, TxnPhase::Committing)),
                (SimTime(330), TraceEvent::Committed { txn: TxnId(1) }),
                (SimTime(320), phase(2, 1, TxnPhase::Executing)),
            ],
            dropped: 0,
            end: SimTime(400),
        }
    }

    #[test]
    fn spans_partition_the_lifetime() {
        let traces = sample_log().txn_traces();
        assert_eq!(traces.len(), 2);
        let t1 = &traces[0];
        assert_eq!(t1.txn, TxnId(1));
        assert_eq!(t1.submitted, SimTime(100));
        assert_eq!(t1.committed, Some(SimTime(330)));
        let buckets: Vec<PhaseBucket> = t1.spans.iter().map(|s| s.bucket).collect();
        assert_eq!(
            buckets,
            vec![
                PhaseBucket::Execute,
                PhaseBucket::LockWait,
                PhaseBucket::Execute,
                PhaseBucket::Prepare,
                PhaseBucket::Commit,
            ]
        );
        // Contiguous and exactly covering [submitted, committed].
        assert_eq!(t1.spans.first().unwrap().start, SimTime(100));
        assert_eq!(t1.spans.last().unwrap().end, SimTime(330));
        assert!(
            t1.spans.windows(2).all(|w| w[0].end == w[1].start),
            "gaps in {:?}",
            t1.spans
        );
        let total: u64 = t1.spans.iter().map(|s| s.end.0 - s.start.0).sum();
        assert_eq!(total, 330 - 100);
        // The live transaction is closed at trace end.
        let t2 = &traces[1];
        assert_eq!(t2.committed, None);
        assert_eq!(t2.spans.last().unwrap().end, SimTime(400));
    }

    #[test]
    fn adjacent_same_bucket_spans_coalesce() {
        let n = NodeId(1);
        let log = TraceLog {
            events: vec![
                (SimTime(0), phase(1, 1, TxnPhase::Executing)),
                (
                    SimTime(10),
                    TraceEvent::LockWaitBegin {
                        txn: TxnId(1),
                        node: n,
                        held: 0,
                        waiting: 0,
                    },
                ),
                // A second cohort blocks: still LockWait, must coalesce.
                (
                    SimTime(20),
                    TraceEvent::LockWaitBegin {
                        txn: TxnId(1),
                        node: n,
                        held: 0,
                        waiting: 0,
                    },
                ),
                (
                    SimTime(30),
                    TraceEvent::LockWaitEnd {
                        txn: TxnId(1),
                        node: n,
                    },
                ),
                (
                    SimTime(50),
                    TraceEvent::LockWaitEnd {
                        txn: TxnId(1),
                        node: n,
                    },
                ),
                (SimTime(60), TraceEvent::Committed { txn: TxnId(1) }),
            ],
            dropped: 0,
            end: SimTime(60),
        };
        let traces = log.txn_traces();
        let spans = &traces[0].spans;
        let buckets: Vec<PhaseBucket> = spans.iter().map(|s| s.bucket).collect();
        assert_eq!(
            buckets,
            vec![
                PhaseBucket::Execute,
                PhaseBucket::LockWait,
                PhaseBucket::Execute
            ]
        );
        assert_eq!(spans[1].start, SimTime(10));
        assert_eq!(spans[1].end, SimTime(50));
    }

    #[test]
    fn tracer_dedups_resource_transitions() {
        let mut tr = Tracer::new(2);
        tr.note_cpu(SimTime(1), NodeId(0), true);
        tr.note_cpu(SimTime(2), NodeId(0), true); // duplicate: dropped
        tr.note_cpu(SimTime(3), NodeId(0), false);
        tr.note_disk(SimTime(4), NodeId(1), false); // initial false: dropped
        tr.note_disk(SimTime(5), NodeId(1), true);
        let log = tr.finish(SimTime(10));
        assert_eq!(log.events.len(), 3);
    }

    #[test]
    fn writers_emit_valid_structures() {
        let log = sample_log();
        let mut chrome = Vec::new();
        log.write_chrome_trace(&mut chrome).unwrap();
        let chrome = String::from_utf8(chrome).unwrap();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.trim_end().ends_with('}'));
        // Balanced braces (cheap well-formedness check; no string field in
        // this format can contain a brace).
        let open = chrome.matches('{').count();
        let close = chrome.matches('}').count();
        assert_eq!(open, close);
        let mut jsonl = Vec::new();
        log.write_jsonl(&mut jsonl).unwrap();
        let jsonl = String::from_utf8(jsonl).unwrap();
        assert_eq!(jsonl.lines().count(), log.events.len());
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }
}
