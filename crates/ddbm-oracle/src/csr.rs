//! Conflict-serializability check over the committed history.
//!
//! The operations of a run are its granted reads (an `Access` or `Grant`
//! for a read) and its writes, which take effect when a cohort installs
//! them during phase 2 of the commit protocol (deferred-update semantics,
//! paper §3.3). Two operations on the same page copy conflict when at least
//! one is a write; the earlier one's run precedes the later one's in the
//! conflict (precedence) graph. Operations are ordered by stream position,
//! so two operations witnessed at the same instant still have an order.
//!
//! The checker keeps, per `(node, page)` copy, only the last installer and
//! the readers since that install, and collects edges in one pass over the
//! stream: transitively, that is every conflict. A run pair that conflicts
//! on several copies (replicas of one page, say) yields one edge per copy;
//! the repeats are dropped in place whenever the edge list fills. At end
//! of stream it keeps the edges between runs whose commit was decided —
//! the coordinator's move to `Committing`, an `Install` or a `Committed`,
//! whichever the stream shows first, so runs cut off mid-commit count —
//! and looks for a cycle.
//! Aborted runs never decide to commit, so their reads drop out.
//!
//! Runs get dense `u32` ids, and each copy is keyed by one word, its node
//! and dense page id packed as the view checker packs them, so a copy's
//! entry is its installer's id and its readers list. The readers lists of
//! every copy share one `denet::Lists` arena; an install walks its copy's
//! list, oldest reader first, and hands the links back for reuse.
//!
//! Under strict locking a run decides while it holds all its locks, and a
//! conflicting run acquires its lock only after the release that follows,
//! so the order of decisions is a topological order of the graph. When
//! every kept edge runs forward in it, the history is acyclic and the
//! graph search is skipped.
//!
//! For the strict locking family (2PL, 2PL-T, WW, WD) an acyclic graph is
//! exactly conflict serializability: a lock held wrongly for even one event
//! slot shows up as a cycle. BTO with the Thomas write rule and OPT admit
//! histories that are view- but not conflict-serializable; the polygraph
//! check in [`crate::vsr`] covers them.

use crate::dense::{copy_key, DensePages};
use ddbm_cc::find_cycle;
use ddbm_config::TxnId;
use ddbm_core::protocol::RunId;
use ddbm_core::{TxnPhase, WitnessEvent, WitnessReply};
use denet::{FxHashMap, List, Lists};

/// One execution of a transaction.
type Run = (TxnId, RunId);

/// The decision rank of a run that has not decided to commit.
const UNDECIDED: u32 = u32::MAX;

/// No run.
const NONE: u32 = u32::MAX;

/// What later operations on one page copy conflict with. Runs are dense
/// indices into [`ConflictChecker::runs`].
#[derive(Debug, Clone, Copy)]
struct CopyState {
    /// The run whose write the copy holds, or `NONE`.
    installer: u32,
    /// The runs that read the copy since that install, oldest first, in
    /// [`ConflictChecker::readers`].
    readers: List,
}

impl CopyState {
    const UNTOUCHED: CopyState = CopyState {
        installer: NONE,
        readers: List::EMPTY,
    };
}

/// See module docs.
#[derive(Debug, Default)]
pub struct ConflictChecker {
    /// Dense index of every run seen.
    index: FxHashMap<Run, u32>,
    /// Per dense index: the transaction, and the rank of its commit
    /// decision among all decisions.
    runs: Vec<(TxnId, u32)>,
    /// Commit decisions seen so far.
    decisions: u32,
    pages: DensePages,
    /// Keyed by [`copy_key`].
    copies: FxHashMap<u64, CopyState>,
    /// Every copy's readers.
    readers: Lists<u32>,
    /// Precedence edges between runs, committed or not. A run pair can
    /// repeat (one edge per page copy they conflict on); [`push_edge`]
    /// drops the repeats whenever the list fills.
    edges: Vec<(u32, u32)>,
}

/// Lists shorter than this grow without deduplication: too few edges for
/// repeats to matter.
const DEDUP_FROM: usize = 4096;

/// Append `edge`. A full list of at least [`DEDUP_FROM`] edges is first
/// sorted and stripped of repeated pairs in place, and grows only if that
/// freed less than an eighth of it. The edges' order carries no meaning:
/// [`ConflictChecker::finalize`] reads them as a set.
fn push_edge(edges: &mut Vec<(u32, u32)>, edge: (u32, u32)) {
    if edges.len() == edges.capacity() && edges.len() >= DEDUP_FROM {
        edges.sort_unstable();
        edges.dedup();
        if edges.len() > edges.capacity() / 8 * 7 {
            edges.reserve(edges.len());
        }
    }
    edges.push(edge);
}

impl ConflictChecker {
    /// An empty checker.
    pub fn new() -> ConflictChecker {
        ConflictChecker::default()
    }

    fn run(&mut self, txn: TxnId, run: RunId) -> u32 {
        let runs = &mut self.runs;
        *self.index.entry((txn, run)).or_insert_with(|| {
            runs.push((txn, UNDECIDED));
            runs.len() as u32 - 1
        })
    }

    fn decide(&mut self, txn: TxnId, run: RunId) -> u32 {
        let r = self.run(txn, run);
        let rank = &mut self.runs[r as usize].1;
        if *rank == UNDECIDED {
            *rank = self.decisions;
            self.decisions += 1;
        }
        r
    }

    /// Feed one witnessed event.
    pub fn observe(&mut self, ev: &WitnessEvent) {
        match *ev {
            WitnessEvent::Access {
                txn,
                run,
                node,
                page,
                write: false,
                reply: WitnessReply::Granted,
                ..
            }
            | WitnessEvent::Grant {
                txn,
                run,
                node,
                page,
                write: false,
                ..
            } => {
                let reader = self.run(txn, run);
                let key = copy_key(node, self.pages.ix(page));
                let copy = self.copies.entry(key).or_insert(CopyState::UNTOUCHED);
                if copy.installer != NONE && self.runs[copy.installer as usize].0 != txn {
                    push_edge(&mut self.edges, (copy.installer, reader));
                }
                if self.readers.last(copy.readers) != Some(reader) {
                    self.readers.push(&mut copy.readers, reader);
                }
            }
            WitnessEvent::Install {
                txn,
                run,
                node,
                page,
                ..
            } => {
                let writer = self.decide(txn, run);
                let key = copy_key(node, self.pages.ix(page));
                let copy = self.copies.entry(key).or_insert(CopyState::UNTOUCHED);
                let earlier = std::mem::replace(&mut copy.installer, writer);
                let runs = &self.runs;
                for r in Some(earlier)
                    .filter(|&w| w != NONE)
                    .into_iter()
                    .chain(self.readers.iter(copy.readers))
                    .filter(|&r| runs[r as usize].0 != txn)
                {
                    push_edge(&mut self.edges, (r, writer));
                }
                self.readers.clear(&mut copy.readers);
            }
            WitnessEvent::Phase {
                txn,
                run,
                phase: TxnPhase::Committing,
            }
            | WitnessEvent::Committed { txn, run, .. } => {
                self.decide(txn, run);
            }
            _ => {}
        }
    }

    /// One cycle of the committed history's conflict graph, or `None` when
    /// the history is conflict-serializable. Consumes the checker.
    pub fn finalize(self) -> Option<Vec<TxnId>> {
        let runs = &self.runs;
        let kept = self
            .edges
            .iter()
            .map(|&(a, b)| (runs[a as usize], runs[b as usize]))
            .filter(|(a, b)| a.1 != UNDECIDED && b.1 != UNDECIDED);
        if kept.clone().all(|(a, b)| a.1 < b.1) {
            return None;
        }
        let edges: Vec<(TxnId, TxnId)> = kept.map(|(a, b)| (a.0, b.0)).collect();
        find_cycle(&edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddbm_cc::Ts;
    use ddbm_config::{FileId, NodeId, PageId};

    fn page(n: u64) -> PageId {
        PageId {
            file: FileId(0),
            page: n,
        }
    }

    fn read(txn: u64, run: RunId, pg: u64) -> WitnessEvent {
        WitnessEvent::Access {
            txn: TxnId(txn),
            run,
            node: NodeId(1),
            page: page(pg),
            write: false,
            reply: WitnessReply::Granted,
            initial_ts: Ts::ZERO,
            run_ts: Ts::ZERO,
        }
    }

    fn install(txn: u64, run: RunId, pg: u64) -> WitnessEvent {
        WitnessEvent::Install {
            txn: TxnId(txn),
            run,
            node: NodeId(1),
            page: page(pg),
            run_ts: Ts::ZERO,
            commit_ts: Ts::ZERO,
        }
    }

    fn commit(txn: u64, run: RunId) -> WitnessEvent {
        WitnessEvent::Committed {
            txn: TxnId(txn),
            run,
            run_ts: Ts::ZERO,
            commit_ts: Ts::ZERO,
        }
    }

    fn check(events: &[WitnessEvent]) -> Option<Vec<TxnId>> {
        let mut c = ConflictChecker::new();
        for ev in events {
            c.observe(ev);
        }
        c.finalize()
    }

    #[test]
    fn serial_history_is_serializable() {
        assert_eq!(
            check(&[
                read(1, 1, 1),
                install(1, 1, 1),
                commit(1, 1),
                read(2, 1, 1),
                install(2, 1, 1),
                commit(2, 1),
            ]),
            None
        );
    }

    #[test]
    fn classic_lost_update_cycle_detected() {
        // r1(p) r2(p) w1(p) w2(p): a cycle T1⇄T2.
        let cycle = check(&[
            read(1, 1, 1),
            read(2, 1, 1),
            install(1, 1, 1),
            install(2, 1, 1),
            commit(1, 1),
            commit(2, 1),
        ])
        .expect("lost update is not serializable");
        assert!(cycle.contains(&TxnId(1)) && cycle.contains(&TxnId(2)));
    }

    #[test]
    fn cross_page_cycle_detected() {
        // w1(a) … r2(a) ⇒ T1→T2;  w2(b) … r1(b) ⇒ T2→T1.
        assert!(check(&[
            install(1, 1, 1),
            read(2, 1, 1),
            install(2, 1, 2),
            read(1, 1, 2),
            commit(1, 1),
            commit(2, 1),
        ])
        .is_some());
    }

    #[test]
    fn queued_read_grants_are_operations() {
        // The lost update again, with T2's read granted from the lock queue
        // instead of at access time.
        let queued = WitnessEvent::Grant {
            txn: TxnId(2),
            run: 1,
            node: NodeId(1),
            page: page(1),
            write: false,
            initial_ts: Ts::ZERO,
            run_ts: Ts::ZERO,
        };
        assert!(check(&[
            read(1, 1, 1),
            queued,
            install(1, 1, 1),
            install(2, 1, 1),
            commit(1, 1),
            commit(2, 1),
        ])
        .is_some());
    }

    #[test]
    fn blocked_and_rejected_reads_are_not_operations() {
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
        assert_eq!(
            check(&[
                blocked,
                rejected,
                install(1, 1, 1),
                install(1, 1, 2),
                install(1, 1, 3),
                read(2, 1, 3),
                commit(1, 1),
                commit(2, 1),
            ]),
            None
        );
    }

    #[test]
    fn aborted_runs_do_not_pollute_the_history() {
        // Run 1 of T1 would have formed a cycle; it never commits.
        // Run 2 of T1 happens entirely after T2.
        assert_eq!(
            check(&[
                read(1, 1, 1),
                read(2, 1, 1),
                install(2, 1, 1),
                commit(2, 1),
                read(1, 2, 1),
                install(1, 2, 1),
                commit(1, 2),
            ]),
            None
        );
    }

    #[test]
    fn reads_never_conflict_with_reads() {
        let mut events: Vec<WitnessEvent> = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)]
            .into_iter()
            .map(|(t, pg)| read(t, 1, pg))
            .collect();
        events.extend((1..=3).map(|t| commit(t, 1)));
        assert_eq!(check(&events), None);
    }

    #[test]
    fn same_instant_writes_order_by_stream_position() {
        // w1 then w2 at one instant: one edge, no cycle.
        assert_eq!(
            check(&[
                install(1, 1, 1),
                install(2, 1, 1),
                commit(1, 1),
                commit(2, 1)
            ]),
            None
        );
    }

    #[test]
    fn same_instant_cycle_only_visible_through_stream_order() {
        // Every operation lands in one event slot — discrete-event
        // simulation makes this common. In stream order r1(a) r2(b) w2(a)
        // w1(b), i.e. T1 →(a)→ T2 and T2 →(b)→ T1.
        let cycle = check(&[
            read(1, 1, 1),
            read(2, 1, 2),
            install(2, 1, 1),
            install(1, 1, 2),
            commit(1, 1),
            commit(2, 1),
        ])
        .expect("same-instant cycle");
        assert!(cycle.contains(&TxnId(1)) && cycle.contains(&TxnId(2)));
    }

    #[test]
    fn three_txn_cycle_detected() {
        // T1 →(a)→ T2 →(b)→ T3 →(c)→ T1: no pair conflicts both ways, so a
        // pairwise check would pass; only the full graph search finds it.
        let cycle = check(&[
            install(1, 1, 1),
            read(2, 1, 1),
            install(2, 1, 2),
            read(3, 1, 2),
            install(3, 1, 3),
            read(1, 1, 3),
            commit(1, 1),
            commit(2, 1),
            commit(3, 1),
        ])
        .expect("3-cycle");
        assert_eq!(cycle.len(), 3, "expected the 3-cycle, got {cycle:?}");
    }

    #[test]
    fn abort_discards_only_that_run() {
        // T1's run 1 reads page 1 before T2 overwrites it; its run 2 reads
        // page 2 after T2 wrote it. Only run 2 commits, so T2 → T1 alone.
        assert_eq!(
            check(&[
                read(1, 1, 1),
                install(2, 1, 1),
                install(2, 1, 2),
                commit(2, 1),
                read(1, 2, 2),
                commit(1, 2),
            ]),
            None
        );
        // Run 2's own operations do count: had it also read page 3 before
        // T2 wrote it, T1 → T2 → T1.
        assert!(check(&[
            read(1, 1, 1),
            read(1, 2, 3),
            install(2, 1, 1),
            install(2, 1, 2),
            install(2, 1, 3),
            commit(2, 1),
            read(1, 2, 2),
            commit(1, 2),
        ])
        .is_some());
    }

    #[test]
    fn runs_cut_off_mid_commit_keep_their_installs() {
        // T2 installs between T1 and T3 but the stream ends before its
        // Committed: the T1 → T2 → T3 order still holds, and T3 → T1 on
        // page 2 closes a cycle through it.
        assert!(check(&[
            install(1, 1, 1),
            install(2, 1, 1),
            read(3, 1, 1),
            install(3, 1, 2),
            read(1, 1, 2),
            commit(1, 1),
            commit(3, 1),
        ])
        .is_some());
    }

    #[test]
    fn decision_order_is_only_a_shortcut() {
        // T2 decides before T1 but T1 read page 1 before T2 installed it:
        // the edge T1 → T2 runs backward in decision order, yet there is no
        // cycle.
        let decided = WitnessEvent::Phase {
            txn: TxnId(2),
            run: 1,
            phase: TxnPhase::Committing,
        };
        assert_eq!(
            check(&[
                decided,
                read(1, 1, 1),
                install(2, 1, 1),
                commit(2, 1),
                commit(1, 1),
            ]),
            None
        );
    }

    #[test]
    fn commit_with_no_ops_is_serializable() {
        assert_eq!(check(&[commit(9, 3)]), None);
    }

    #[test]
    fn install_draws_edges_from_readers_oldest_first_and_frees_their_links() {
        let mut c = ConflictChecker::new();
        // Readers T1, T2, T1 (not consecutive, so listed twice) and T3 on
        // page 1; T2 twice in a row on page 2 is listed once.
        for ev in [
            read(1, 1, 1),
            read(2, 1, 1),
            read(2, 1, 1),
            read(1, 1, 1),
            read(3, 1, 1),
            read(2, 1, 2),
            read(2, 1, 2),
        ] {
            c.observe(&ev);
        }
        assert_eq!(c.readers.capacity(), 5);
        c.observe(&install(3, 1, 1));
        let edges = |c: &ConflictChecker, from: usize| -> Vec<(u64, u64)> {
            let t = |r: u32| c.runs[r as usize].0 .0;
            c.edges[from..].iter().map(|&(a, b)| (t(a), t(b))).collect()
        };
        assert_eq!(
            edges(&c, 0),
            [(1, 3), (2, 3), (1, 3)],
            "the writer's own read draws none"
        );
        // Page 1's four links are free again; new readers reuse them.
        for txn in 4..8 {
            c.observe(&read(txn, 1, 1));
        }
        assert_eq!(c.readers.capacity(), 5, "the arena did not grow");
        c.observe(&install(8, 1, 2));
        assert_eq!(edges(&c, 3), [(3, 4), (3, 5), (3, 6), (3, 7), (2, 8)]);
    }

    #[test]
    fn repeated_edges_are_dropped_when_the_list_fills() {
        let mut c = ConflictChecker::new();
        // T1 reads and T2 then installs 3 × DEDUP_FROM pages: the same
        // T1 → T2 edge once per page.
        let pages = 3 * DEDUP_FROM as u64;
        for pg in 0..pages {
            c.observe(&read(1, 1, pg));
        }
        for pg in 0..pages {
            c.observe(&install(2, 1, pg));
        }
        assert!(
            c.edges.len() <= DEDUP_FROM,
            "{} edges kept for one run pair",
            c.edges.len()
        );
        assert_eq!(c.edges.capacity(), DEDUP_FROM, "the list never grew");
        c.observe(&commit(2, 1));
        c.observe(&commit(1, 1));
        // T1 → T2 plus a back edge T2 → T1: still a cycle after the purge.
        c.observe(&install(2, 1, pages));
        c.observe(&read(1, 1, pages));
        let cycle = c.finalize().expect("T1 and T2 conflict both ways");
        assert_eq!(cycle.len(), 2);
    }
}
