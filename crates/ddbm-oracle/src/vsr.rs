//! Polygraph-based view-serializability check over the committed history.
//!
//! The collector records, from the witness stream alone, which committed
//! version every granted read observed (reads-from), which versions each
//! committed run installed, and the commit order. At end of stream it first
//! tries the algorithm's natural serial order (commit order for locking,
//! run-timestamp order for BTO, commit-timestamp order for OPT) as a
//! certificate; if that fails it falls back to the classical polygraph
//! construction — fixed writes-before-reads edges plus (w′ before w) ∨
//! (r before w′) choices — and searches for an acyclic extension under a
//! bounded budget. This covers what the [`crate::csr`] conflict check
//! cannot: Thomas-rule skips and certification-time validation produce
//! histories that are view- but not conflict-serializable.
//!
//! # Layout
//!
//! Each `(txn, run)` gets a dense `u32` id the first time the stream names
//! it, and each logical page a dense `u32` too. Per run the collector keeps
//! one byte (live, committed or aborted); per committed run, its id and
//! timestamps in commit order. The visible version of each page replica
//! names its writer by id and keeps the order key and stream position that
//! the replace and collapse comparisons read.
//!
//! A run's reads and installs live in two places over its life:
//! * **while the run is live**, its reads (with the full version read, for
//!   the quorum-read collapse) and its deduplicated installed pages sit in
//!   two lists of a pending entry, whose links every live run shares in two
//!   `denet::Lists` arenas (the list arena of the CC managers and the other
//!   checkers);
//! * **at its `Committed` event** they move into two flat logs, reads as
//!   `(reader, page, writer)` and installs as `(page, writer)`, 12 and 8
//!   bytes an entry, and the lists' links go back to the arenas.
//!
//! When the coordinator aborts a run (`Aborting` or `AbortingVote`), its
//! pending entry is dropped and later reads by it are ignored: an aborted
//! run never commits, and installs happen only on the commit path, so the
//! end-of-stream check would discard them anyway. Runs still live at the
//! end of the stream that installed something were cut off mid-commit by
//! truncation; `finalize` counts them as committed and flushes their
//! pending data then.
//!
//! `finalize` works on the logs in place: one dense `Vec` maps run ids to
//! positions in the candidate order, and sorting the install log by (page,
//! position) groups each page's writers.

use crate::dense::{copy_key, copy_page, DensePages, PageIx};
use ddbm_cc::Ts;
use ddbm_config::{Algorithm, NodeId, PageId, TxnId};
use ddbm_core::protocol::RunId;
use ddbm_core::{TxnPhase, WitnessEvent};
use denet::{FxHashMap, List, Lists};

/// A dense run id, or a position in the candidate serial order.
type RunIx = u32;

/// No run: the initial version of a page, or a run outside the order.
const NONE: RunIx = RunIx::MAX;

/// Which key decides the currently visible version of a page among
/// concurrent installs — the algorithm's version order.
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
    /// A valid serial order exists (`certificate` names how it was found).
    Serializable {
        /// Committed runs covered.
        txns: usize,
        /// `"candidate-order"` or `"polygraph-search"`.
        certificate: &'static str,
    },
    /// No serial order can explain the committed reads.
    NotSerializable {
        /// Why (which read constraint is unsatisfiable).
        detail: String,
    },
    /// The polygraph search exceeded its budget.
    Inconclusive {
        /// What ran out.
        reason: String,
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
    /// Stream position of the install, the total-order tiebreak: under
    /// `StreamOrder` the key is constant, so the newest version of a page
    /// across replicas is the one with the largest `seq`.
    seq: u64,
}

impl Version {
    /// `true` when `self` is the newer of two versions of one page under
    /// the collector's version order (the one-copy collapse rule).
    fn newer_than(&self, other: &Version) -> bool {
        (self.key, self.seq) > (other.key, other.seq)
    }
}

/// How a run has ended so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Live,
    Committed,
    Aborted,
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
    /// Installed pages, deduplicated, in [`VsrCollector::installs`]:
    /// replicated installs repeat the page once per written replica.
    installs: List,
    /// Stream position of the first install (`0` = none), and the
    /// timestamps of the latest: the order of a run truncated mid-commit.
    first_install: u64,
    run_ts: Ts,
    commit_ts: Ts,
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
    /// Committed runs in `Committed` event order, with (run_ts, commit_ts).
    committed: Vec<(RunIx, Ts, Ts)>,
    /// Currently visible version per *replica* of a page, keyed by
    /// [`copy_key`] (absent = initial database state). Single-copy runs have
    /// exactly one entry per page; replicated runs collapse to one-copy
    /// semantics at read-record and finalize time.
    current: FxHashMap<u64, Version>,
    /// Reads and installs of runs not yet committed.
    live: FxHashMap<RunIx, Pending>,
    /// The live runs' reads.
    reads: Lists<Read>,
    /// The live runs' installed pages.
    installs: Lists<PageIx>,
    /// Reads-from of committed runs: (reader, page, writer or `NONE`).
    read_log: Vec<(RunIx, PageIx, RunIx)>,
    /// Pages installed by committed runs: (page, writer).
    install_log: Vec<(PageIx, RunIx)>,
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
            committed: Vec::new(),
            current: FxHashMap::default(),
            live: FxHashMap::default(),
            reads: Lists::default(),
            installs: Lists::default(),
            read_log: Vec::new(),
            install_log: Vec::new(),
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

    /// Drop the run's pending entry.
    fn discard(&mut self, id: RunIx) {
        if let Some(p) = self.live.remove(&id) {
            self.recycle(p);
        }
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
            self.install_log
                .extend(self.installs.iter(p.installs).map(|page| (page, id)));
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
                let key = match self.order {
                    VersionOrder::StreamOrder => Ts::default(),
                    VersionOrder::ByRunTs => run_ts,
                    VersionOrder::ByCommitTs => commit_ts,
                };
                let id = self.run_ix(txn, run);
                let page = self.pages.ix(page);
                let candidate = Version {
                    writer: id,
                    key,
                    seq: self.seq,
                };
                let slot = copy_key(node, page);
                let replace = match (self.order, self.current.get(&slot)) {
                    (_, None) | (VersionOrder::StreamOrder, _) => true,
                    (_, Some(cur)) => key > cur.key,
                };
                if replace {
                    self.current.insert(slot, candidate);
                }
                let seq = self.seq;
                let p = self.live.entry(id).or_default();
                if p.first_install == 0 {
                    p.first_install = seq;
                }
                p.run_ts = run_ts;
                p.commit_ts = commit_ts;
                if !self.installs.iter(p.installs).any(|p| p == page) {
                    self.installs.push(&mut p.installs, page);
                }
            }
            WitnessEvent::Committed {
                txn,
                run,
                run_ts,
                commit_ts,
            } => {
                let id = self.run_ix(txn, run);
                if self.fates[id as usize] != Fate::Committed {
                    self.fates[id as usize] = Fate::Committed;
                    self.committed.push((id, run_ts, commit_ts));
                    self.flush(id);
                }
            }
            WitnessEvent::Phase {
                txn,
                run,
                phase: TxnPhase::Aborting | TxnPhase::AbortingVote,
            } => {
                let id = self.run_ix(txn, run);
                self.fates[id as usize] = Fate::Aborted;
                self.discard(id);
            }
            _ => {}
        }
    }

    /// Check the collected history; consumes the collector.
    pub fn finalize(mut self, budget: u64) -> VsrOutcome {
        // A run counts as committed if its Committed event was witnessed or
        // it installed versions before the stream was truncated mid-commit
        // (installs happen only on the commit path).
        let mut order = std::mem::take(&mut self.committed);
        let mut truncated: Vec<(u64, (RunIx, Ts, Ts))> = self
            .live
            .iter()
            .filter(|&(&id, p)| self.fates[id as usize] != Fate::Committed && p.first_install != 0)
            .map(|(&id, p)| (p.first_install, (id, p.run_ts, p.commit_ts)))
            .collect();
        truncated.sort_unstable_by_key(|&(first, _)| first);
        order.extend(truncated.into_iter().map(|(_, run)| run));
        if order.is_empty() {
            return VsrOutcome::Trivial;
        }

        // Order runs by the algorithm's natural serial order.
        match self.order {
            VersionOrder::StreamOrder => {}
            VersionOrder::ByRunTs => order.sort_by_key(|&(_, run_ts, _)| run_ts),
            VersionOrder::ByCommitTs => order.sort_by_key(|&(_, _, commit_ts)| commit_ts),
        }
        let n = order.len();
        let mut pos = vec![NONE; self.fates.len()];
        for (i, &(r, _, _)) in order.iter().enumerate() {
            pos[r as usize] = i as RunIx;
        }
        drop(order);
        // Flush what the ordered runs still hold: truncated runs, and data
        // a committed run produced after its Committed event (none in a
        // well-formed stream). Every other live run never committed.
        let live: Vec<RunIx> = self.live.keys().copied().collect();
        for id in live {
            if pos[id as usize] != NONE {
                self.flush(id);
            }
        }
        let VsrCollector {
            current,
            read_log: mut reads,
            install_log: mut writers,
            ..
        } = self;
        let at = |r: RunIx| if r == NONE { NONE } else { pos[r as usize] };

        // From here on every run is named by its position. Every writer
        // installed, so every writer has one.
        for e in &mut reads {
            *e = (at(e.0), e.1, at(e.2));
        }
        // Committed writers per page: runs of one page in the sorted log.
        for e in &mut writers {
            e.1 = at(e.1);
        }
        writers.sort_unstable();
        writers.dedup();
        // One-copy collapse of the final state: per logical page, the newest
        // committed version across every replica.
        let mut newest: Vec<(PageIx, Version)> = current
            .into_iter()
            .map(|(slot, v)| (copy_page(slot), v))
            .collect();
        newest
            .sort_unstable_by(|(p, v), (q, w)| p.cmp(q).then((w.key, w.seq).cmp(&(v.key, v.seq))));
        newest.dedup_by_key(|&mut (p, _)| p);
        let finals = newest.into_iter().map(|(p, v)| (p, at(v.writer))).collect();
        let history = History {
            reads,
            writers,
            finals,
        };

        // Fast path: verify the candidate order directly.
        if history.order_explains() {
            return VsrOutcome::Serializable {
                txns: n,
                certificate: "candidate-order",
            };
        }
        history.polygraph_search(n, budget)
    }
}

/// The committed history with every run named by its position in the
/// candidate order.
struct History {
    /// Reads-from: (reader, page, writer or `NONE` = initial version).
    reads: Vec<(RunIx, PageIx, RunIx)>,
    /// (page, writer), sorted and deduplicated.
    writers: Vec<(PageIx, RunIx)>,
    /// The writer of each page's final version.
    finals: Vec<(PageIx, RunIx)>,
}

impl History {
    /// The committed writers of `page`.
    fn writers_of(&self, page: PageIx) -> impl Iterator<Item = RunIx> + '_ {
        let lo = self.writers.partition_point(|&(p, _)| p < page);
        let hi = self.writers.partition_point(|&(p, _)| p <= page);
        self.writers[lo..hi].iter().map(|&(_, w)| w)
    }

    /// Does the candidate order satisfy every view constraint?
    fn order_explains(&self) -> bool {
        for &(r, page, w) in &self.reads {
            let mut ws = self.writers_of(page);
            if w == NONE {
                // Initial version: every writer must come after r.
                if ws.any(|x| x != r && x < r) {
                    return false;
                }
            } else if w >= r || ws.any(|x| x != w && x != r && x > w && x < r) {
                return false;
            }
        }
        self.finals
            .iter()
            .all(|&(page, wf)| !self.writers_of(page).any(|x| x != wf && x > wf))
    }

    /// Backtracking search for an acyclic polygraph extension.
    fn polygraph_search(&self, n: usize, budget: u64) -> VsrOutcome {
        if n > 2000 {
            return VsrOutcome::Inconclusive {
                reason: format!("{n} committed runs exceed the polygraph size bound"),
            };
        }
        let mut fixed: Vec<(RunIx, RunIx)> = Vec::new();
        for &(r, page, w) in &self.reads {
            if w == NONE {
                fixed.extend(self.writers_of(page).filter(|&x| x != r).map(|x| (r, x)));
            } else {
                fixed.push((w, r));
            }
        }
        for &(page, wf) in &self.finals {
            fixed.extend(self.writers_of(page).filter(|&x| x != wf).map(|x| (x, wf)));
        }
        fixed.sort_unstable();
        fixed.dedup();

        let mut kahn = Kahn::default();
        if !kahn.acyclic(n, &fixed) {
            return VsrOutcome::NotSerializable {
                detail: format!(
                    "fixed reads-from constraints already cyclic \
                     ({} runs, {} fixed edges)",
                    n,
                    fixed.len()
                ),
            };
        }
        // w' before w, or r before w'; drop choices one branch of which is
        // already fixed.
        let mut open: Vec<(RunIx, RunIx, RunIx, RunIx)> = Vec::new();
        for &(r, page, w) in &self.reads {
            if w != NONE {
                open.extend(
                    self.writers_of(page)
                        .filter(|&x| x != w && x != r)
                        .map(|x| (x, w, r, x)),
                );
            }
        }
        let is_fixed = |e: (RunIx, RunIx)| fixed.binary_search(&e).is_ok();
        open.retain(|&(a1, b1, a2, b2)| !is_fixed((a1, b1)) && !is_fixed((a2, b2)));
        open.sort_unstable();
        open.dedup();

        let base = fixed.len();
        let mut checks: u64 = 0;
        let mut edges = fixed;
        if kahn.search(n, &mut edges, &open, 0, &mut checks, budget) {
            VsrOutcome::Serializable {
                txns: n,
                certificate: "polygraph-search",
            }
        } else if checks >= budget {
            VsrOutcome::Inconclusive {
                reason: format!("polygraph search budget exhausted ({budget} acyclicity checks)"),
            }
        } else {
            VsrOutcome::NotSerializable {
                detail: format!(
                    "no acyclic polygraph extension over {} runs \
                     ({} fixed edges, {} binary choices)",
                    n,
                    base,
                    open.len()
                ),
            }
        }
    }
}

/// Kahn's algorithm over an edge list, with its buffers kept across the
/// backtracking search's many calls.
#[derive(Default)]
struct Kahn {
    indeg: Vec<u32>,
    /// First edge out of each node, then the next edge out of the same
    /// node, per edge (`NONE` ends a list).
    head: Vec<u32>,
    next: Vec<u32>,
    stack: Vec<u32>,
}

impl Kahn {
    fn search(
        &mut self,
        n: usize,
        edges: &mut Vec<(RunIx, RunIx)>,
        open: &[(RunIx, RunIx, RunIx, RunIx)],
        idx: usize,
        checks: &mut u64,
        budget: u64,
    ) -> bool {
        if *checks >= budget {
            return false;
        }
        *checks += 1;
        if !self.acyclic(n, edges) {
            return false;
        }
        let Some(&(a1, b1, a2, b2)) = open.get(idx) else {
            return true;
        };
        for (a, b) in [(a1, b1), (a2, b2)] {
            edges.push((a, b));
            if self.search(n, edges, open, idx + 1, checks, budget) {
                return true;
            }
            edges.pop();
            if *checks >= budget {
                return false;
            }
        }
        false
    }

    fn acyclic(&mut self, n: usize, edges: &[(RunIx, RunIx)]) -> bool {
        self.indeg.clear();
        self.indeg.resize(n, 0);
        self.head.clear();
        self.head.resize(n, NONE);
        self.next.clear();
        for (i, &(a, b)) in edges.iter().enumerate() {
            if a == b {
                return false;
            }
            self.next.push(self.head[a as usize]);
            self.head[a as usize] = i as u32;
            self.indeg[b as usize] += 1;
        }
        self.stack.clear();
        self.stack
            .extend((0..n as u32).filter(|&v| self.indeg[v as usize] == 0));
        let mut seen = 0;
        while let Some(v) = self.stack.pop() {
            seen += 1;
            let mut e = self.head[v as usize];
            while e != NONE {
                let w = edges[e as usize].1 as usize;
                self.indeg[w] -= 1;
                if self.indeg[w] == 0 {
                    self.stack.push(w as u32);
                }
                e = self.next[e as usize];
            }
        }
        seen == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn read(txn: u64, pg: u64) -> WitnessEvent {
        WitnessEvent::Access {
            txn: TxnId(txn),
            run: 1,
            node: ddbm_config::NodeId(1),
            page: page(pg),
            write: false,
            reply: crate::WitnessReply::Granted,
            initial_ts: ts(txn * 10, txn),
            run_ts: ts(txn * 10, txn),
        }
    }

    fn install(txn: u64, pg: u64) -> WitnessEvent {
        WitnessEvent::Install {
            txn: TxnId(txn),
            run: 1,
            node: ddbm_config::NodeId(1),
            page: page(pg),
            run_ts: ts(txn * 10, txn),
            commit_ts: ts(txn * 100, txn),
        }
    }

    fn committed(txn: u64) -> WitnessEvent {
        WitnessEvent::Committed {
            txn: TxnId(txn),
            run: 1,
            run_ts: ts(txn * 10, txn),
            commit_ts: ts(txn * 100, txn),
        }
    }

    #[test]
    fn serial_history_is_serializable() {
        let mut c = VsrCollector::new(VersionOrder::StreamOrder);
        for ev in [
            read(1, 0),
            install(1, 1),
            committed(1),
            read(2, 1),
            install(2, 0),
            committed(2),
        ] {
            c.observe(&ev);
        }
        let out = c.finalize(10_000);
        assert!(
            matches!(out, VsrOutcome::Serializable { txns: 2, .. }),
            "{out:?}"
        );
    }

    #[test]
    fn write_skew_style_cycle_is_not_serializable() {
        // T1 reads A (initial) and writes B; T2 reads B (initial) and
        // writes A. Each must precede the other: not view-serializable.
        let mut c = VsrCollector::new(VersionOrder::StreamOrder);
        for ev in [
            read(1, 0),
            read(2, 1),
            install(1, 1),
            install(2, 0),
            committed(1),
            committed(2),
        ] {
            c.observe(&ev);
        }
        let out = c.finalize(10_000);
        assert!(matches!(out, VsrOutcome::NotSerializable { .. }), "{out:?}");
    }

    #[test]
    fn thomas_skip_history_needs_the_version_order() {
        // Under BTO the Thomas rule can install versions out of stream
        // order; the run-ts version order must still explain the reads.
        let mut c = VsrCollector::new(VersionOrder::ByRunTs);
        for ev in [
            install(3, 0),
            committed(3),
            // An older write installs later (simulator replays faithfully;
            // wts stays at 30) and a read at ts 40 sees version 3.
            install(1, 0),
            committed(1),
            read(4, 0),
            committed(4),
        ] {
            c.observe(&ev);
        }
        let out = c.finalize(10_000);
        assert!(matches!(out, VsrOutcome::Serializable { .. }), "{out:?}");
    }

    #[test]
    fn aborted_runs_leave_nothing_behind() {
        let mut c = VsrCollector::new(VersionOrder::StreamOrder);
        let abort = WitnessEvent::Phase {
            txn: TxnId(1),
            run: 1,
            phase: TxnPhase::Aborting,
        };
        for ev in [read(1, 0), read(1, 1), abort, read(1, 2)] {
            c.observe(&ev);
        }
        assert!(c.live.is_empty() && c.read_log.is_empty());
        assert_eq!(c.finalize(10_000), VsrOutcome::Trivial);
    }

    #[test]
    fn runs_cut_off_mid_commit_count_as_committed() {
        // T2 installed but the stream ended before its Committed event.
        let mut c = VsrCollector::new(VersionOrder::StreamOrder);
        for ev in [
            read(1, 0),
            install(1, 1),
            committed(1),
            read(2, 1),
            install(2, 0),
        ] {
            c.observe(&ev);
        }
        assert_eq!(c.read_log.len(), 1);
        assert_eq!(
            c.finalize(10_000),
            VsrOutcome::Serializable {
                txns: 2,
                certificate: "candidate-order"
            }
        );
    }

    #[test]
    fn empty_history_is_trivial() {
        let c = VsrCollector::new(VersionOrder::StreamOrder);
        assert_eq!(c.finalize(1), VsrOutcome::Trivial);
    }
}
