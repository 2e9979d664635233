//! The serialization-graph check over the committed history, for every
//! algorithm.
//!
//! The collector records, from the witness stream alone, which version
//! every granted read observed (reads-from), which pages each committed run
//! installed, and the order in which runs decided to commit. At end of
//! stream it builds the multiversion serialization graph (Bernstein and
//! Goodman) under the algorithm's version order and looks for a cycle:
//!
//! * each logical page's versions are ordered by the algorithm's key: run
//!   timestamp for BTO (the Thomas write rule keeps the largest), commit
//!   timestamp for OPT, and the stream position of the version's first
//!   install for the locking family and NO_DC;
//! * a version's writer precedes each of its readers (wr), a reader
//!   precedes the writer of the next version of what it read (rw), and each
//!   version's writer precedes the next version's (ww);
//! * under stream order, each page copy's own install order is an edge
//!   too, so two replicas that install one page's versions in opposite
//!   orders close a cycle. Only the pairs that run against the version
//!   order are kept: the others follow from the ww chain.
//!
//! A run joins the history once its commit is decided: the coordinator's
//! move to `Committing`, an `Install` or a `Committed`, whichever the
//! stream shows first, so runs cut off mid-commit by truncation count.
//! Reads collapse to one copy: a quorum read observes several replicas and
//! reads the newest version among them. An acyclic graph under one fixed
//! version order implies view serializability, and one-copy
//! serializability under replication; for the strict locking family it is
//! exactly conflict serializability, so a lock held wrongly for even one
//! event slot shows up as a cycle.
//!
//! When every edge runs forward in the algorithm's serial order (decision
//! order under stream order, run-timestamp order for BTO, commit-timestamp
//! order for OPT), that order is the certificate. Otherwise
//! [`ddbm_cc::find_cycle`] searches the graph.
//!
//! # Layout
//!
//! Each `(txn, run)` gets a dense `u32` id the first time the stream names
//! it, and each logical page a dense `u32` too. Per run the collector keeps
//! its fate (live, aborted, or decided with its rank among the decisions);
//! per decided run, its id and timestamps in decision order. The visible
//! version of each page replica names its writer by id and keeps the order
//! key and first-install position that the replace and collapse
//! comparisons read.
//!
//! A run's reads and installs live in two places over its life:
//! * **while the run is live**, its reads (with the full version read, for
//!   the quorum-read collapse) and its deduplicated installed pages sit in
//!   two lists of a pending entry, whose links every live run shares in two
//!   `denet::Lists` arenas (the list arena of the CC managers and the other
//!   checkers);
//! * **at its `Committed` event** they move into two flat logs, reads as
//!   `(reader, page, writer)` and installs as `(page, writer, first
//!   install)`, 12 and 16 bytes an entry, and the lists' links go back to
//!   the arenas.
//!
//! When the coordinator aborts a live run (`Aborting` or `AbortingVote`),
//! its pending entry is dropped and later reads by it are ignored. Decided
//! runs still live at the end of the stream were cut off mid-commit;
//! `finalize` flushes their pending data then.
//!
//! `finalize` works on the logs in place: one dense `Vec` maps run ids to
//! positions in the serial order, and sorting the install log into version
//! order gives each version's successor.

use crate::dense::{copy_key, DensePages, PageIx};
use ddbm_cc::{find_cycle, Ts};
use ddbm_config::{Algorithm, NodeId, PageId, TxnId};
use ddbm_core::protocol::RunId;
use ddbm_core::{TxnPhase, WitnessEvent};
use denet::{FxHashMap, List, Lists};

/// A dense run id, or a position in the serial order.
type RunIx = u32;

/// No run: the initial version of a page, or a run outside the order.
const NONE: RunIx = RunIx::MAX;

/// Which key orders the versions of a page — the algorithm's version
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionOrder {
    /// Install order in the witness stream (locking family, NO_DC: write
    /// locks serialize installs).
    StreamOrder,
    /// Largest run timestamp wins (BTO: the Thomas write rule makes wts
    /// the max of installed run timestamps).
    ByRunTs,
    /// Largest commit timestamp wins (OPT).
    ByCommitTs,
}

impl VersionOrder {
    /// The version order `algorithm` maintains.
    pub fn for_algorithm(algorithm: Algorithm) -> VersionOrder {
        match algorithm {
            Algorithm::BasicTimestampOrdering => VersionOrder::ByRunTs,
            Algorithm::Optimistic => VersionOrder::ByCommitTs,
            _ => VersionOrder::StreamOrder,
        }
    }
}

/// The verdict of the end-of-stream check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VsrOutcome {
    /// Nothing committed — trivially serializable.
    Trivial,
    /// The serialization graph is acyclic (`certificate` names how that
    /// was shown).
    Serializable {
        /// Committed runs covered.
        txns: usize,
        /// `"candidate-order"` (every edge runs forward in the algorithm's
        /// serial order) or `"acyclic-graph"` (the cycle search found
        /// none).
        certificate: &'static str,
    },
    /// The serialization graph has a cycle.
    NotSerializable {
        /// The transactions on the cycle.
        detail: String,
    },
}

impl VsrOutcome {
    /// True unless the history was proven non-serializable.
    pub fn acceptable(&self) -> bool {
        !matches!(self, VsrOutcome::NotSerializable { .. })
    }
}

#[derive(Debug, Clone, Copy)]
struct Version {
    writer: RunIx,
    key: Ts,
    /// Stream position of the writer's first install of the page: the
    /// version order under `StreamOrder`, where the key is constant, and
    /// the tiebreak otherwise.
    first: u64,
}

impl Version {
    /// `true` when `self` is the later of two versions of one page in the
    /// version order (the one-copy collapse rule).
    fn newer_than(&self, other: &Version) -> bool {
        (self.key, self.first) > (other.key, other.first)
    }
}

/// How a run has ended so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Live,
    Aborted,
    /// Decided to commit, with its rank among the decisions.
    Decided(u32),
}

/// A live run's read: the page and the version read (`None` = initial).
type Read = (PageIx, Option<Version>);

/// What a live run has done so far.
#[derive(Debug, Default, Clone, Copy)]
struct Pending {
    /// Its reads, in [`VsrCollector::reads`]. A replicated (quorum) read
    /// observes several replicas and returns the newest version among
    /// them, so repeat observations of one page keep only the newest.
    reads: List,
    /// Bit `page % 64` is set for every page in `reads`: a clear bit
    /// proves a page unread without walking the list.
    read_pages: u64,
    /// Installed pages with the stream position of each one's first
    /// install, deduplicated, in [`VsrCollector::installs`]: replicated
    /// installs repeat the page once per written replica.
    installs: List,
}

/// See module docs.
#[derive(Debug)]
pub struct VsrCollector {
    order: VersionOrder,
    ids: FxHashMap<(TxnId, RunId), RunIx>,
    /// Indexed by run id.
    fates: Vec<Fate>,
    /// Dense logical page ids, assigned on first sight.
    pages: DensePages,
    /// Decided runs in decision order, with the (run_ts, commit_ts) of
    /// their latest `Install` or `Committed`.
    decided: Vec<(RunIx, Ts, Ts)>,
    /// Currently visible version per *replica* of a page, keyed by
    /// [`copy_key`] (absent = initial database state). Single-copy runs have
    /// exactly one entry per page; replicated reads collapse to one-copy
    /// semantics at read-record time.
    current: FxHashMap<u64, Version>,
    /// Reads and installs of runs not yet committed.
    live: FxHashMap<RunIx, Pending>,
    /// The live runs' reads.
    reads: Lists<Read>,
    /// The live runs' installed pages and first-install positions.
    installs: Lists<(PageIx, u64)>,
    /// Reads-from of decided runs: (reader, page, writer or `NONE`).
    read_log: Vec<(RunIx, PageIx, RunIx)>,
    /// Pages installed by decided runs: (page, writer, first install).
    install_log: Vec<(PageIx, RunIx, u64)>,
    /// Under stream order, consecutive installs of one copy that run
    /// against the version order: (earlier writer, later writer).
    copy_order: Vec<(RunIx, RunIx)>,
    seq: u64,
}

impl VsrCollector {
    /// A collector using `order` as the version order.
    pub fn new(order: VersionOrder) -> VsrCollector {
        VsrCollector {
            order,
            ids: FxHashMap::default(),
            fates: Vec::new(),
            pages: DensePages::default(),
            decided: Vec::new(),
            current: FxHashMap::default(),
            live: FxHashMap::default(),
            reads: Lists::default(),
            installs: Lists::default(),
            read_log: Vec::new(),
            install_log: Vec::new(),
            copy_order: Vec::new(),
            seq: 0,
        }
    }

    /// The dense id of `(txn, run)`, assigned on first sight.
    fn run_ix(&mut self, txn: TxnId, run: RunId) -> RunIx {
        let next = RunIx::try_from(self.fates.len())
            .ok()
            .filter(|&ix| ix != NONE)
            .expect("fewer than 2^32 - 1 runs");
        let id = *self.ids.entry((txn, run)).or_insert(next);
        if id == next {
            self.fates.push(Fate::Live);
        }
        id
    }

    /// The dense id of `(txn, run)`, which decides to commit now if it had
    /// not yet. `stamps` are its (run_ts, commit_ts), when the event names
    /// them.
    fn decide(&mut self, txn: TxnId, run: RunId, stamps: Option<(Ts, Ts)>) -> RunIx {
        let id = self.run_ix(txn, run);
        let rank = match self.fates[id as usize] {
            Fate::Decided(rank) => rank as usize,
            _ => {
                // At most one decision per run, and run ids fit in a `u32`.
                self.fates[id as usize] = Fate::Decided(self.decided.len() as u32);
                self.decided.push((id, Ts::default(), Ts::default()));
                self.decided.len() - 1
            }
        };
        if let Some((run_ts, commit_ts)) = stamps {
            self.decided[rank] = (id, run_ts, commit_ts);
        }
        id
    }

    /// Hand a dropped entry's links back to the arenas.
    fn recycle(&mut self, mut p: Pending) {
        self.reads.clear(&mut p.reads);
        self.installs.clear(&mut p.installs);
    }

    /// Move the run's pending reads and installs into the flat logs.
    fn flush(&mut self, id: RunIx) {
        if let Some(p) = self.live.remove(&id) {
            self.read_log.extend(
                self.reads
                    .iter(p.reads)
                    .map(|(page, obs)| (id, page, obs.map_or(NONE, |v| v.writer))),
            );
            self.install_log.extend(
                self.installs
                    .iter(p.installs)
                    .map(|(page, first)| (page, id, first)),
            );
            self.recycle(p);
        }
    }

    fn record_read(&mut self, txn: TxnId, run: RunId, node: NodeId, page: PageId) {
        let id = self.run_ix(txn, run);
        if self.fates[id as usize] == Fate::Aborted {
            return;
        }
        let page = self.pages.ix(page);
        let obs = self.current.get(&copy_key(node, page)).copied();
        let pending = self.live.entry(id).or_default();
        let bit = 1u64 << (page % 64);
        let seen = pending.read_pages & bit != 0;
        pending.read_pages |= bit;
        let list = &mut pending.reads;
        // One-copy collapse: a quorum read touches several replicas and
        // returns the newest version it saw, so a repeat observation of the
        // same page by the same run only replaces a strictly older one.
        // Single-copy runs never observe a page twice per run.
        let found = if seen {
            self.reads.find_mut(*list, |(p, _)| *p == page)
        } else {
            None
        };
        match found {
            Some((_, existing)) => {
                let better = match (&existing, &obs) {
                    (None, Some(_)) => true,
                    (Some(e), Some(o)) => o.newer_than(e),
                    _ => false,
                };
                if better {
                    *existing = obs;
                }
            }
            None => self.reads.push(list, (page, obs)),
        }
    }

    /// Feed one witnessed event.
    pub fn observe(&mut self, ev: &WitnessEvent) {
        match *ev {
            WitnessEvent::Access {
                txn,
                run,
                node,
                page,
                write,
                reply,
                ..
            } if !write && reply == crate::WitnessReply::Granted => {
                self.record_read(txn, run, node, page);
            }
            WitnessEvent::Grant {
                txn,
                run,
                node,
                page,
                write,
                ..
            } if !write => {
                self.record_read(txn, run, node, page);
            }
            WitnessEvent::Install {
                txn,
                run,
                node,
                page,
                run_ts,
                commit_ts,
            } => {
                self.seq += 1;
                let id = self.decide(txn, run, Some((run_ts, commit_ts)));
                let page = self.pages.ix(page);
                let p = self.live.entry(id).or_default();
                let seen = self.installs.iter(p.installs).find(|&(pg, _)| pg == page);
                let first = match seen {
                    Some((_, first)) => first,
                    None => {
                        self.installs.push(&mut p.installs, (page, self.seq));
                        self.seq
                    }
                };
                let key = match self.order {
                    VersionOrder::StreamOrder => Ts::default(),
                    VersionOrder::ByRunTs => run_ts,
                    VersionOrder::ByCommitTs => commit_ts,
                };
                let slot = copy_key(node, page);
                let replace = match self.current.get(&slot) {
                    None => true,
                    Some(cur) if self.order == VersionOrder::StreamOrder => {
                        if cur.writer != id && cur.first > first {
                            self.copy_order.push((cur.writer, id));
                        }
                        true
                    }
                    Some(cur) => key > cur.key,
                };
                if replace {
                    self.current.insert(
                        slot,
                        Version {
                            writer: id,
                            key,
                            first,
                        },
                    );
                }
            }
            WitnessEvent::Committed {
                txn,
                run,
                run_ts,
                commit_ts,
            } => {
                let id = self.decide(txn, run, Some((run_ts, commit_ts)));
                self.flush(id);
            }
            WitnessEvent::Phase {
                txn,
                run,
                phase: TxnPhase::Committing,
            } => {
                self.decide(txn, run, None);
            }
            WitnessEvent::Phase {
                txn,
                run,
                phase: TxnPhase::Aborting | TxnPhase::AbortingVote,
            } => {
                let id = self.run_ix(txn, run);
                if self.fates[id as usize] == Fate::Live {
                    self.fates[id as usize] = Fate::Aborted;
                    if let Some(p) = self.live.remove(&id) {
                        self.recycle(p);
                    }
                }
            }
            _ => {}
        }
    }

    /// Check the collected history; consumes the collector. The argument
    /// is unused: the check is one graph search, with nothing to budget.
    pub fn finalize(mut self, _budget: u64) -> VsrOutcome {
        if self.decided.is_empty() {
            return VsrOutcome::Trivial;
        }
        // Flush what decided runs still hold: runs cut off mid-commit, and
        // data a run produced after its Committed event (none in a
        // well-formed stream). Every other live run never committed.
        let held: Vec<RunIx> = self
            .live
            .keys()
            .copied()
            .filter(|&id| matches!(self.fates[id as usize], Fate::Decided(_)))
            .collect();
        for id in held {
            self.flush(id);
        }
        let VsrCollector {
            order,
            ids,
            fates,
            mut decided,
            read_log: reads,
            install_log: mut versions,
            copy_order,
            ..
        } = self;

        // The algorithm's serial order; ties keep decision order.
        match order {
            VersionOrder::StreamOrder => {}
            VersionOrder::ByRunTs => decided.sort_by_key(|&(_, run_ts, _)| run_ts),
            VersionOrder::ByCommitTs => decided.sort_by_key(|&(_, _, commit_ts)| commit_ts),
        }
        let mut pos = vec![NONE; fates.len()];
        for (i, &(r, ..)) in decided.iter().enumerate() {
            pos[r as usize] = i as RunIx;
        }
        let at = |r: RunIx| pos[r as usize];

        // Each page's versions in the version order: a run that installed a
        // page again after its Committed event keeps its first install. Under
        // the timestamp orders the serial order sorts by the version key.
        versions.sort_unstable();
        versions.dedup_by_key(|&mut (page, writer, _)| (page, writer));
        match order {
            VersionOrder::StreamOrder => versions.sort_unstable_by_key(|&(p, _, first)| (p, first)),
            _ => versions.sort_unstable_by_key(|&(p, writer, _)| (p, at(writer))),
        }
        // (page, writer, writer of the next version), with `NONE` for the
        // initial version, sorted to look up what follows a version.
        let mut next: Vec<(PageIx, RunIx, RunIx)> = Vec::with_capacity(versions.len());
        for page in versions.chunk_by(|a, b| a.0 == b.0) {
            let mut prev = NONE;
            for &(p, writer, _) in page {
                next.push((p, prev, writer));
                prev = writer;
            }
        }
        drop(versions);
        next.sort_unstable();
        let after = |page: PageIx, writer: RunIx| {
            next.binary_search_by_key(&(page, writer), |&(p, w, _)| (p, w))
                .ok()
                .map(|i| next[i].2)
        };
        let edges = || {
            let ww = next.iter().filter(|e| e.1 != NONE).map(|&(_, w, n)| (w, n));
            let wr = reads
                .iter()
                .filter(|e| e.2 != NONE)
                .map(|&(r, _, w)| (w, r));
            let rw = reads
                .iter()
                .filter_map(|&(r, page, w)| Some((r, after(page, w)?)));
            ww.chain(wr)
                .chain(rw)
                .chain(copy_order.iter().copied())
                .filter(|(a, b)| a != b)
                .map(|(a, b)| (at(a), at(b)))
        };

        let txns = decided.len();
        if edges().all(|(a, b)| a < b) {
            return VsrOutcome::Serializable {
                txns,
                certificate: "candidate-order",
            };
        }
        // A cycle runs backward in the serial order somewhere, and its
        // backward edges cover its stretch of the order without a gap, so it
        // lies inside one merged span of backward edges. Only the edges
        // within one span go to the search.
        let mut spans: Vec<(RunIx, RunIx)> = edges()
            .filter(|(a, b)| a > b)
            .map(|(a, b)| (b, a))
            .collect();
        spans.sort_unstable();
        spans.dedup_by(|next, span| {
            let overlaps = next.0 <= span.1;
            if overlaps {
                span.1 = span.1.max(next.1);
            }
            overlaps
        });
        let span_of = |p: RunIx| {
            let i = spans.partition_point(|s| s.1 < p);
            spans.get(i).filter(|s| s.0 <= p).map(|_| i)
        };
        // Name each run by its position, so two runs of one transaction
        // stay two nodes.
        let graph: Vec<(TxnId, TxnId)> = edges()
            .filter(|&(a, b)| span_of(a).is_some() && span_of(a) == span_of(b))
            .map(|(a, b)| (TxnId(u64::from(a)), TxnId(u64::from(b))))
            .collect();
        let Some(cycle) = find_cycle(&graph) else {
            return VsrOutcome::Serializable {
                txns,
                certificate: "acyclic-graph",
            };
        };
        let mut txn_of = vec![TxnId(0); fates.len()];
        for (&(txn, _), &id) in &ids {
            txn_of[id as usize] = txn;
        }
        let named: Vec<u64> = cycle
            .iter()
            .map(|p| txn_of[decided[p.0 as usize].0 as usize].0)
            .collect();
        VsrOutcome::NotSerializable {
            detail: format!("the committed history's serialization graph has the cycle {named:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WitnessReply;
    use ddbm_config::FileId;

    fn page(n: u64) -> PageId {
        PageId {
            file: FileId(0),
            page: n,
        }
    }

    fn ts(t: u64, id: u64) -> Ts {
        Ts::new(t, TxnId(id))
    }

    /// A granted read by run `run` of `txn` at node 1; timestamps grow
    /// with the transaction id.
    fn read(txn: u64, run: RunId, pg: u64) -> WitnessEvent {
        WitnessEvent::Access {
            txn: TxnId(txn),
            run,
            node: NodeId(1),
            page: page(pg),
            write: false,
            reply: WitnessReply::Granted,
            initial_ts: ts(txn * 10, txn),
            run_ts: ts(txn * 10, txn),
        }
    }

    /// An install by run `run` of `txn` at `node`.
    fn install_on(txn: u64, run: RunId, node: usize, pg: u64) -> WitnessEvent {
        WitnessEvent::Install {
            txn: TxnId(txn),
            run,
            node: NodeId(node),
            page: page(pg),
            run_ts: ts(txn * 10, txn),
            commit_ts: ts(txn * 100, txn),
        }
    }

    fn install(txn: u64, run: RunId, pg: u64) -> WitnessEvent {
        install_on(txn, run, 1, pg)
    }

    fn install_at(txn: u64, node: usize, pg: u64) -> WitnessEvent {
        install_on(txn, 1, node, pg)
    }

    fn committed(txn: u64, run: RunId) -> WitnessEvent {
        WitnessEvent::Committed {
            txn: TxnId(txn),
            run,
            run_ts: ts(txn * 10, txn),
            commit_ts: ts(txn * 100, txn),
        }
    }

    fn phase(txn: u64, run: RunId, phase: TxnPhase) -> WitnessEvent {
        WitnessEvent::Phase {
            txn: TxnId(txn),
            run,
            phase,
        }
    }

    fn collect(order: VersionOrder, events: &[WitnessEvent]) -> VsrCollector {
        let mut c = VsrCollector::new(order);
        for ev in events {
            c.observe(ev);
        }
        c
    }

    fn check_in(order: VersionOrder, events: &[WitnessEvent]) -> VsrOutcome {
        collect(order, events).finalize(0)
    }

    fn check(events: &[WitnessEvent]) -> VsrOutcome {
        check_in(VersionOrder::StreamOrder, events)
    }

    /// The transactions on the reported cycle.
    fn cycle(out: &VsrOutcome) -> Vec<u64> {
        let VsrOutcome::NotSerializable { detail } = out else {
            panic!("expected a cycle, got {out:?}");
        };
        let list = &detail[detail.find('[').expect("a cycle list") + 1..detail.len() - 1];
        list.split(", ")
            .map(|t| t.parse().expect("txn id"))
            .collect()
    }

    const CANDIDATE: &str = "candidate-order";

    #[test]
    fn serial_history_is_serializable() {
        let out = check(&[
            read(1, 1, 0),
            install(1, 1, 1),
            committed(1, 1),
            read(2, 1, 1),
            install(2, 1, 0),
            committed(2, 1),
        ]);
        assert_eq!(
            out,
            VsrOutcome::Serializable {
                txns: 2,
                certificate: CANDIDATE
            }
        );
    }

    #[test]
    fn lost_update_is_a_cycle() {
        // r1(p) r2(p) w1(p) w2(p): T2 read the version before T1's, and
        // T1's precedes T2's.
        let out = check(&[
            read(1, 1, 1),
            read(2, 1, 1),
            install(1, 1, 1),
            install(2, 1, 1),
            committed(1, 1),
            committed(2, 1),
        ]);
        assert_eq!(cycle(&out).len(), 2, "{out:?}");
    }

    #[test]
    fn cross_page_reads_from_close_a_cycle() {
        // w1(a) … r2(a) ⇒ T1→T2;  w2(b) … r1(b) ⇒ T2→T1.
        let out = check(&[
            install(1, 1, 1),
            read(2, 1, 1),
            install(2, 1, 2),
            read(1, 1, 2),
            committed(1, 1),
            committed(2, 1),
        ]);
        assert!(!out.acceptable(), "{out:?}");
    }

    #[test]
    fn queued_read_grants_are_reads() {
        // The lost update again, with T2's read granted from the lock queue
        // instead of at access time.
        let queued = WitnessEvent::Grant {
            txn: TxnId(2),
            run: 1,
            node: NodeId(1),
            page: page(1),
            write: false,
            initial_ts: ts(20, 2),
            run_ts: ts(20, 2),
        };
        let out = check(&[
            read(1, 1, 1),
            queued,
            install(1, 1, 1),
            install(2, 1, 1),
            committed(1, 1),
            committed(2, 1),
        ]);
        assert!(!out.acceptable(), "{out:?}");
    }

    #[test]
    fn blocked_and_rejected_reads_are_not_reads() {
        let mut blocked = read(2, 1, 1);
        let mut rejected = read(2, 1, 2);
        for (ev, reply) in [
            (&mut blocked, WitnessReply::Blocked),
            (&mut rejected, WitnessReply::Rejected),
        ] {
            if let WitnessEvent::Access { reply: r, .. } = ev {
                *r = reply;
            }
        }
        // Were they reads, T2 would precede T1 on both pages and follow it
        // on page 3.
        let out = check(&[
            blocked,
            rejected,
            install(1, 1, 1),
            install(1, 1, 2),
            install(1, 1, 3),
            read(2, 1, 3),
            committed(1, 1),
            committed(2, 1),
        ]);
        assert!(out.acceptable(), "{out:?}");
    }

    #[test]
    fn aborted_runs_leave_nothing_behind() {
        let abort = phase(1, 1, TxnPhase::Aborting);
        let c = collect(
            VersionOrder::StreamOrder,
            &[read(1, 1, 0), read(1, 1, 1), abort, read(1, 1, 2)],
        );
        assert!(c.live.is_empty() && c.read_log.is_empty());
        assert_eq!(c.finalize(0), VsrOutcome::Trivial);
    }

    #[test]
    fn runs_that_never_decide_do_not_pollute_the_history() {
        // Run 1 of T1 would have formed a cycle; it never decides. Run 2
        // of T1 happens entirely after T2.
        let out = check(&[
            read(1, 1, 1),
            read(2, 1, 1),
            install(2, 1, 1),
            committed(2, 1),
            read(1, 2, 1),
            install(1, 2, 1),
            committed(1, 2),
        ]);
        assert!(out.acceptable(), "{out:?}");
    }

    #[test]
    fn reads_never_conflict_with_reads() {
        let mut events: Vec<WitnessEvent> = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)]
            .into_iter()
            .map(|(t, pg)| read(t, 1, pg))
            .collect();
        events.extend((1..=3).map(|t| committed(t, 1)));
        assert!(check(&events).acceptable());
    }

    #[test]
    fn same_instant_operations_order_by_stream_position() {
        // w1 then w2 at one instant: one ww edge, no cycle.
        let out = check(&[
            install(1, 1, 1),
            install(2, 1, 1),
            committed(1, 1),
            committed(2, 1),
        ]);
        assert!(out.acceptable(), "{out:?}");
        // Every operation in one event slot, r1(a) r2(b) w2(a) w1(b) in
        // stream order: T1 → T2 on a and T2 → T1 on b.
        let out = check(&[
            read(1, 1, 1),
            read(2, 1, 2),
            install(2, 1, 1),
            install(1, 1, 2),
            committed(1, 1),
            committed(2, 1),
        ]);
        assert_eq!(cycle(&out).len(), 2, "{out:?}");
    }

    #[test]
    fn three_txn_cycle_detected() {
        // T1 →(a)→ T2 →(b)→ T3 →(c)→ T1: no pair conflicts both ways, so a
        // pairwise check would pass; only the graph search finds it.
        let out = check(&[
            install(1, 1, 1),
            read(2, 1, 1),
            install(2, 1, 2),
            read(3, 1, 2),
            install(3, 1, 3),
            read(1, 1, 3),
            committed(1, 1),
            committed(2, 1),
            committed(3, 1),
        ]);
        let mut members = cycle(&out);
        members.sort_unstable();
        assert_eq!(members, [1, 2, 3]);
    }

    #[test]
    fn abort_discards_only_that_run() {
        // T1's run 1 reads page 1 before T2 overwrites it; its run 2 reads
        // page 2 after T2 wrote it. Only run 2 commits, so T2 → T1 alone.
        let out = check(&[
            read(1, 1, 1),
            install(2, 1, 1),
            install(2, 1, 2),
            committed(2, 1),
            read(1, 2, 2),
            committed(1, 2),
        ]);
        assert!(out.acceptable(), "{out:?}");
        // Run 2's own reads do count: had it also read page 3 before T2
        // wrote it, T1 → T2 → T1.
        let out = check(&[
            read(1, 1, 1),
            read(1, 2, 3),
            install(2, 1, 1),
            install(2, 1, 2),
            install(2, 1, 3),
            committed(2, 1),
            read(1, 2, 2),
            committed(1, 2),
        ]);
        assert!(!out.acceptable(), "{out:?}");
    }

    #[test]
    fn runs_cut_off_mid_commit_count_as_committed() {
        // T2 installed but the stream ended before its Committed event.
        let c = collect(
            VersionOrder::StreamOrder,
            &[
                read(1, 1, 0),
                install(1, 1, 1),
                committed(1, 1),
                read(2, 1, 1),
                install(2, 1, 0),
            ],
        );
        assert_eq!(c.read_log.len(), 1);
        assert_eq!(
            c.finalize(0),
            VsrOutcome::Serializable {
                txns: 2,
                certificate: CANDIDATE
            }
        );
        // T2 installs between T1 and T3 with no Committed: T1 → T2 → T3
        // still holds, and T3 → T1 on page 2 closes a cycle through it.
        let out = check(&[
            install(1, 1, 1),
            install(2, 1, 1),
            read(3, 1, 1),
            install(3, 1, 2),
            read(1, 1, 2),
            committed(1, 1),
            committed(3, 1),
        ]);
        assert_eq!(cycle(&out).len(), 3, "{out:?}");
        // A decision alone joins the history: T2 read page 1 and decided,
        // and nothing else of it reached the stream.
        let out = check(&[
            read(2, 1, 1),
            phase(2, 1, TxnPhase::Committing),
            install(1, 1, 1),
            read(1, 1, 2),
            committed(1, 1),
        ]);
        assert_eq!(
            out,
            VsrOutcome::Serializable {
                txns: 2,
                certificate: CANDIDATE
            }
        );
    }

    #[test]
    fn decision_order_is_only_a_shortcut() {
        // T2 decides before T1, but T1 read page 1 before T2 installed it:
        // the edge T1 → T2 runs backward in decision order, yet there is no
        // cycle.
        let out = check(&[
            phase(2, 1, TxnPhase::Committing),
            read(1, 1, 1),
            install(2, 1, 1),
            committed(2, 1),
            committed(1, 1),
        ]);
        assert_eq!(
            out,
            VsrOutcome::Serializable {
                txns: 2,
                certificate: "acyclic-graph"
            }
        );
    }

    #[test]
    fn cycle_search_spans_backward_edges_that_share_a_run() {
        // Decisions order T1, T2, T3; T1 → T3 runs forward, T3 → T2 and
        // T2 → T1 backward, over stretches of the order that meet at T2.
        let mut events: Vec<WitnessEvent> =
            (1..=3).map(|t| phase(t, 1, TxnPhase::Committing)).collect();
        events.extend([
            install(1, 1, 1),
            read(3, 1, 1),
            install(3, 1, 2),
            read(2, 1, 2),
            install(2, 1, 3),
            read(1, 1, 3),
        ]);
        events.extend((1..=3).map(|t| committed(t, 1)));
        let mut members = cycle(&check(&events));
        members.sort_unstable();
        assert_eq!(members, [1, 2, 3]);
    }

    #[test]
    fn commit_with_no_operations_is_serializable() {
        assert!(matches!(
            check(&[committed(9, 3)]),
            VsrOutcome::Serializable { txns: 1, .. }
        ));
    }

    #[test]
    fn thomas_skip_is_serializable_only_in_run_ts_order() {
        // T1 (ts 10) reads page 1 before T3 (ts 30) writes it, then
        // installs page 0 after T3 did: the Thomas write rule skips the
        // stale write, so under timestamp order T1's version of page 0
        // precedes T3's. In stream order it follows T3's, while T1's read
        // of page 1 precedes T3.
        let events = [
            read(1, 1, 1),
            install(3, 1, 1),
            install(3, 1, 0),
            committed(3, 1),
            install(1, 1, 0),
            committed(1, 1),
        ];
        assert_eq!(
            check_in(VersionOrder::ByRunTs, &events),
            VsrOutcome::Serializable {
                txns: 2,
                certificate: CANDIDATE
            }
        );
        let mut members = cycle(&check_in(VersionOrder::StreamOrder, &events));
        members.sort_unstable();
        assert_eq!(members, [1, 3]);
        // A later reader sees T3's version under timestamp order.
        let mut with_reader = events.to_vec();
        with_reader.extend([read(4, 1, 0), committed(4, 1)]);
        assert!(check_in(VersionOrder::ByRunTs, &with_reader).acceptable());
    }

    #[test]
    fn opt_write_skew_is_a_cycle_in_commit_ts_order() {
        // T1 reads A and writes B; T2 reads B and writes A, both from the
        // initial versions: each must precede the other.
        let out = check_in(
            VersionOrder::ByCommitTs,
            &[
                read(1, 1, 0),
                read(2, 1, 1),
                install(1, 1, 1),
                install(2, 1, 0),
                committed(1, 1),
                committed(2, 1),
            ],
        );
        assert_eq!(cycle(&out).len(), 2, "{out:?}");
    }

    #[test]
    fn replicas_installing_in_opposite_orders_close_a_cycle() {
        // Node 1 installs T1's version of page 0 before T2's, node 2 the
        // other way round: no one-copy order explains both copies.
        let out = check(&[
            install_at(1, 1, 0),
            install_at(2, 2, 0),
            install_at(2, 1, 0),
            install_at(1, 2, 0),
            committed(1, 1),
            committed(2, 1),
        ]);
        assert_eq!(cycle(&out).len(), 2, "{out:?}");
        // In the same order on both, the copies agree.
        let out = check(&[
            install_at(1, 1, 0),
            install_at(1, 2, 0),
            install_at(2, 2, 0),
            install_at(2, 1, 0),
            committed(1, 1),
            committed(2, 1),
        ]);
        assert!(out.acceptable(), "{out:?}");
    }

    #[test]
    fn empty_history_is_trivial() {
        assert_eq!(check(&[]), VsrOutcome::Trivial);
    }
}
