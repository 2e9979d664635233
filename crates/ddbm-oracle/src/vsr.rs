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

use ddbm_cc::Ts;
use ddbm_config::{Algorithm, NodeId, PageId, TxnId};
use ddbm_core::protocol::RunId;
use ddbm_core::WitnessEvent;
use denet::{FxHashMap, FxHashSet};

/// One committed execution of a transaction.
type Run = (TxnId, RunId);

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
    writer: Run,
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

/// See module docs.
#[derive(Debug)]
pub struct VsrCollector {
    order: VersionOrder,
    /// Currently visible version per *replica* of a page (None = initial
    /// database state). Single-copy runs have exactly one entry per page;
    /// replicated runs collapse to one-copy semantics at read-record and
    /// finalize time.
    current: FxHashMap<(NodeId, PageId), Version>,
    /// Reads-from per run: (page, installed version read; None = initial).
    /// A replicated (quorum) read observes several replicas and returns the
    /// newest version among them, so multiple observations of one page by
    /// one run keep only the newest candidate.
    reads: FxHashMap<Run, Vec<(PageId, Option<Version>)>>,
    /// Pages installed per run, with the order key used.
    installs: FxHashMap<Run, Vec<PageId>>,
    /// First-install stream position per run (tiebreak for truncated runs).
    install_seq: FxHashMap<Run, u64>,
    /// Committed runs in stream order with (run_ts, commit_ts).
    committed: Vec<(Run, Ts, Ts)>,
    committed_set: FxHashSet<Run>,
    /// Run/commit timestamps learned from installs (for truncated runs).
    install_ts: FxHashMap<Run, (Ts, Ts)>,
    seq: u64,
}

impl VsrCollector {
    /// A collector using `order` as the version order.
    pub fn new(order: VersionOrder) -> VsrCollector {
        VsrCollector {
            order,
            current: FxHashMap::default(),
            reads: FxHashMap::default(),
            installs: FxHashMap::default(),
            install_seq: FxHashMap::default(),
            committed: Vec::new(),
            committed_set: FxHashSet::default(),
            install_ts: FxHashMap::default(),
            seq: 0,
        }
    }

    fn record_read(&mut self, txn: TxnId, run: RunId, node: NodeId, page: PageId) {
        let obs = self.current.get(&(node, page)).copied();
        let list = self.reads.entry((txn, run)).or_default();
        // One-copy collapse: a quorum read touches several replicas and
        // returns the newest version it saw, so a repeat observation of the
        // same page by the same run only replaces a strictly older one.
        // Single-copy runs never observe a page twice per run.
        match list.iter_mut().find(|(p, _)| *p == page) {
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
            None => list.push((page, obs)),
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
                let candidate = Version {
                    writer: (txn, run),
                    key,
                    seq: self.seq,
                };
                let replace = match (self.order, self.current.get(&(node, page))) {
                    (_, None) | (VersionOrder::StreamOrder, _) => true,
                    (_, Some(cur)) => key > cur.key,
                };
                if replace {
                    self.current.insert((node, page), candidate);
                }
                let run_key = (txn, run);
                // Replicated installs repeat the page once per written
                // replica; the logical write set is deduplicated.
                let pages = self.installs.entry(run_key).or_default();
                if !pages.contains(&page) {
                    pages.push(page);
                }
                self.install_seq.entry(run_key).or_insert(self.seq);
                self.install_ts.insert(run_key, (run_ts, commit_ts));
            }
            WitnessEvent::Committed {
                txn,
                run,
                run_ts,
                commit_ts,
            } if self.committed_set.insert((txn, run)) => {
                self.committed.push(((txn, run), run_ts, commit_ts));
            }
            _ => {}
        }
    }

    /// Check the collected history; consumes the collector.
    pub fn finalize(mut self, budget: u64) -> VsrOutcome {
        // A run counts as committed if its Committed event was witnessed or
        // it installed versions before the stream was truncated mid-commit
        // (installs happen only on the commit path).
        let mut runs: Vec<(Run, Ts, Ts)> = std::mem::take(&mut self.committed);
        let mut extra: Vec<Run> = self
            .installs
            .keys()
            .filter(|r| !self.committed_set.contains(*r))
            .copied()
            .collect();
        extra.sort_by_key(|r| self.install_seq.get(r).copied().unwrap_or(u64::MAX));
        for r in extra {
            let (run_ts, commit_ts) = self.install_ts.get(&r).copied().unwrap_or_default();
            self.committed_set.insert(r);
            runs.push((r, run_ts, commit_ts));
        }
        if runs.is_empty() {
            return VsrOutcome::Trivial;
        }

        // Order runs by the algorithm's natural serial order.
        match self.order {
            VersionOrder::StreamOrder => {}
            VersionOrder::ByRunTs => runs.sort_by_key(|&(_, run_ts, _)| run_ts),
            VersionOrder::ByCommitTs => runs.sort_by_key(|&(_, _, commit_ts)| commit_ts),
        }
        let pos: FxHashMap<Run, usize> = runs
            .iter()
            .enumerate()
            .map(|(i, &(r, _, _))| (r, i))
            .collect();

        // Committed writers per page and the final version per page.
        let mut writers: FxHashMap<PageId, Vec<Run>> = FxHashMap::default();
        for (&r, pages) in &self.installs {
            if self.committed_set.contains(&r) {
                for &p in pages {
                    writers.entry(p).or_default().push(r);
                }
            }
        }
        for w in writers.values_mut() {
            w.sort_by_key(|r| pos[r]);
        }
        // One-copy collapse of the final state: per logical page, the newest
        // committed version across every replica.
        let mut best: FxHashMap<PageId, Version> = FxHashMap::default();
        for (&(_, p), v) in &self.current {
            if !self.committed_set.contains(&v.writer) {
                continue;
            }
            match best.get(&p) {
                Some(b) if !v.newer_than(b) => {}
                _ => {
                    best.insert(p, *v);
                }
            }
        }
        let finals: Vec<(PageId, Run)> = best.into_iter().map(|(p, v)| (p, v.writer)).collect();

        // Fast path: verify the candidate order directly.
        if self.order_explains(&pos, &writers, &finals) {
            return VsrOutcome::Serializable {
                txns: runs.len(),
                certificate: "candidate-order",
            };
        }

        self.polygraph_search(&runs, &pos, &writers, &finals, budget)
    }

    /// The reads-from edges of committed runs, walked in place: (reader,
    /// page, writer of the version read; `None` = initial). Reads-from of
    /// uncommitted writers (impossible: installs imply commitment) are
    /// dropped defensively.
    fn read_edges(&self) -> impl Iterator<Item = (Run, PageId, Option<Run>)> + '_ {
        self.reads
            .iter()
            .filter(|(r, _)| self.committed_set.contains(*r))
            .flat_map(move |(&r, list)| {
                list.iter().filter_map(move |&(page, obs)| {
                    let from = obs.map(|v| v.writer);
                    from.is_none_or(|w| self.committed_set.contains(&w))
                        .then_some((r, page, from))
                })
            })
    }

    /// Does the candidate order satisfy every view constraint?
    fn order_explains(
        &self,
        pos: &FxHashMap<Run, usize>,
        writers: &FxHashMap<PageId, Vec<Run>>,
        finals: &[(PageId, Run)],
    ) -> bool {
        let empty: Vec<Run> = Vec::new();
        for (r, page, from) in self.read_edges() {
            let ws = writers.get(&page).unwrap_or(&empty);
            let rp = pos[&r];
            match from {
                None => {
                    // Initial version: every writer must come after r.
                    if ws.iter().any(|w| *w != r && pos[w] < rp) {
                        return false;
                    }
                }
                Some(w) => {
                    let wp = pos[&w];
                    if wp >= rp {
                        return false;
                    }
                    if ws
                        .iter()
                        .any(|x| *x != w && *x != r && pos[x] > wp && pos[x] < rp)
                    {
                        return false;
                    }
                }
            }
        }
        for &(page, wf) in finals {
            let ws = writers.get(&page).unwrap_or(&empty);
            let fp = pos[&wf];
            if ws.iter().any(|x| *x != wf && pos[x] > fp) {
                return false;
            }
        }
        true
    }

    /// Backtracking search for an acyclic polygraph extension.
    fn polygraph_search(
        &self,
        runs: &[(Run, Ts, Ts)],
        pos: &FxHashMap<Run, usize>,
        writers: &FxHashMap<PageId, Vec<Run>>,
        finals: &[(PageId, Run)],
        budget: u64,
    ) -> VsrOutcome {
        let n = runs.len();
        if n > 2000 {
            return VsrOutcome::Inconclusive {
                reason: format!("{n} committed runs exceed the polygraph size bound"),
            };
        }
        let empty: Vec<Run> = Vec::new();
        let mut fixed: FxHashSet<(usize, usize)> = FxHashSet::default();
        let mut choices: FxHashSet<(usize, usize, usize, usize)> = FxHashSet::default();
        for (r, page, from) in self.read_edges() {
            let rp = pos[&r];
            let ws = writers.get(&page).unwrap_or(&empty);
            match from {
                None => {
                    for x in ws {
                        if *x != r {
                            fixed.insert((rp, pos[x]));
                        }
                    }
                }
                Some(w) => {
                    let wp = pos[&w];
                    fixed.insert((wp, rp));
                    for x in ws {
                        let xp = pos[x];
                        if *x != w && *x != r {
                            // w' before w, or r before w'.
                            choices.insert((xp, wp, rp, xp));
                        }
                    }
                }
            }
        }
        for &(page, wf) in finals {
            let fp = pos[&wf];
            for x in writers.get(&page).unwrap_or(&empty) {
                if *x != wf {
                    fixed.insert((pos[x], fp));
                }
            }
        }
        // Drop choices one branch of which is already fixed.
        let mut open: Vec<(usize, usize, usize, usize)> = Vec::new();
        for &(a1, b1, a2, b2) in &choices {
            if fixed.contains(&(a1, b1)) || fixed.contains(&(a2, b2)) {
                continue;
            }
            open.push((a1, b1, a2, b2));
        }
        open.sort_unstable();
        open.dedup();

        let base: Vec<(usize, usize)> = fixed.iter().copied().collect();
        let mut checks: u64 = 0;
        let mut edges = base.clone();
        if !Self::acyclic(n, &edges) {
            return VsrOutcome::NotSerializable {
                detail: format!(
                    "fixed reads-from constraints already cyclic \
                     ({} runs, {} fixed edges)",
                    n,
                    base.len()
                ),
            };
        }
        if Self::search(n, &mut edges, &open, 0, &mut checks, budget) {
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
                    base.len(),
                    open.len()
                ),
            }
        }
    }

    fn search(
        n: usize,
        edges: &mut Vec<(usize, usize)>,
        open: &[(usize, usize, usize, usize)],
        idx: usize,
        checks: &mut u64,
        budget: u64,
    ) -> bool {
        if *checks >= budget {
            return false;
        }
        *checks += 1;
        if !Self::acyclic(n, edges) {
            return false;
        }
        let Some(&(a1, b1, a2, b2)) = open.get(idx) else {
            return true;
        };
        for (a, b) in [(a1, b1), (a2, b2)] {
            edges.push((a, b));
            if Self::search(n, edges, open, idx + 1, checks, budget) {
                return true;
            }
            edges.pop();
            if *checks >= budget {
                return false;
            }
        }
        false
    }

    /// Kahn's algorithm over an edge list.
    fn acyclic(n: usize, edges: &[(usize, usize)]) -> bool {
        let mut indeg = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a == b {
                return false;
            }
            adj[a].push(b);
            indeg[b] += 1;
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(v) = stack.pop() {
            seen += 1;
            for &w in &adj[v] {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    stack.push(w);
                }
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
    fn empty_history_is_trivial() {
        let c = VsrCollector::new(VersionOrder::StreamOrder);
        assert_eq!(c.finalize(1), VsrOutcome::Trivial);
    }
}
