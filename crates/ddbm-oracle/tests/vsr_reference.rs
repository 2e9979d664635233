//! Differential test of the serialization-graph check against a reference
//! that keeps the whole history.
//!
//! `VsrCollector` retires committed runs below its low-water mark and
//! searches each span of backward edges as soon as the span can no longer
//! grow. The reference below is the collector as it was before retirement:
//! it keeps every committed run's reads and installs and searches the whole
//! graph once, at the end. Random synthetic histories go to both under each
//! of the three version orders, and the two verdicts must be equal, cycle
//! text included.
//!
//! The histories follow the simulator's lifecycle: a run's first event is
//! its `Executing` phase, its run timestamp is the clock then and its
//! commit timestamp the clock at `Preparing`; no event names a run after
//! its `Committed`, or after its transaction's next run starts. Within that
//! they are random: no concurrency control orders the reads and installs of
//! the runs in flight, reads go to one copy (ROWA) or to two (quorum
//! reads, collapsed to the newer version), replicas install in whatever
//! order the interleaving gives (opposite orders included), a run with an
//! older run timestamp can install after a newer one (the Thomas write
//! rule's skipped writes), runs abort and restart, an aborted run sometimes
//! installs before its transaction restarts, and the history is cut off at
//! a random point, leaving runs mid-commit: between a run's `Committing` and
//! its first `Install` too, where no event has named the run's stamps and
//! both collectors place it by the run timestamp its reads carried and the
//! commit timestamp its `Certify` carried.

/// The serialization-graph check as it was before retirement: every
/// committed run's reads and installs are kept to the end, and one search
/// runs over the whole history.
mod reference {
    use ddbm_cc::{find_cycle, Ts};
    use ddbm_config::{NodeId, PageId, TxnId};
    use ddbm_core::protocol::RunId;
    use ddbm_core::{TxnPhase, WitnessEvent};
    use ddbm_oracle::{VersionOrder, VsrOutcome};
    use denet::{FxHashMap, List, Lists};

    /// A dense logical page id.
    type PageIx = u32;

    /// The hash key of one copy of a page.
    fn copy_key(node: NodeId, page: PageIx) -> u64 {
        let node = u32::try_from(node.0).expect("node ids fit in 32 bits");
        (u64::from(node) << 32) | u64::from(page)
    }

    /// Dense page ids, `0, 1, 2, …` in order of first sight.
    #[derive(Debug, Default)]
    struct DensePages(FxHashMap<PageId, PageIx>);

    impl DensePages {
        fn ix(&mut self, page: PageId) -> PageIx {
            let next = PageIx::try_from(self.0.len()).expect("fewer than 2^32 pages");
            *self.0.entry(page).or_insert(next)
        }
    }

    /// A dense run id, or a position in the serial order.
    type RunIx = u32;

    /// No run: the initial version of a page, or a run outside the order.
    const NONE: RunIx = RunIx::MAX;

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
        /// Its reads, in [`Reference::reads`]. A replicated (quorum) read
        /// observes several replicas and returns the newest version among
        /// them, so repeat observations of one page keep only the newest.
        reads: List,
        /// Bit `page % 64` is set for every page in `reads`: a clear bit
        /// proves a page unread without walking the list.
        read_pages: u64,
        /// Installed pages with the stream position of each one's first
        /// install, deduplicated, in [`Reference::installs`]: replicated
        /// installs repeat the page once per written replica.
        installs: List,
    }

    /// The keep-everything collector.
    #[derive(Debug)]
    pub struct Reference {
        order: VersionOrder,
        ids: FxHashMap<(TxnId, RunId), RunIx>,
        /// Indexed by run id.
        fates: Vec<Fate>,
        /// Indexed by run id: the (run_ts, commit_ts) its reads (run_ts)
        /// and its `Certify` (both) carried.
        carried: Vec<(Ts, Ts)>,
        /// Dense logical page ids, assigned on first sight.
        pages: DensePages,
        /// Decided runs in decision order, with the (run_ts, commit_ts) of
        /// their latest `Install` or `Committed`, if any named them.
        decided: Vec<(RunIx, Option<(Ts, Ts)>)>,
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

    impl Reference {
        /// A collector using `order` as the version order.
        pub fn new(order: VersionOrder) -> Reference {
            Reference {
                order,
                ids: FxHashMap::default(),
                fates: Vec::new(),
                carried: Vec::new(),
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
                self.carried.push((Ts::default(), Ts::default()));
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
                    self.decided.push((id, None));
                    self.decided.len() - 1
                }
            };
            if stamps.is_some() {
                self.decided[rank].1 = stamps;
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

        fn record_read(&mut self, txn: TxnId, run: RunId, node: NodeId, page: PageId, run_ts: Ts) {
            let id = self.run_ix(txn, run);
            if self.fates[id as usize] == Fate::Aborted {
                return;
            }
            self.carried[id as usize].0 = run_ts;
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
                    run_ts,
                    ..
                } if !write && reply == ddbm_core::WitnessReply::Granted => {
                    self.record_read(txn, run, node, page, run_ts);
                }
                WitnessEvent::Grant {
                    txn,
                    run,
                    node,
                    page,
                    write,
                    run_ts,
                    ..
                } if !write => {
                    self.record_read(txn, run, node, page, run_ts);
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
                WitnessEvent::Certify {
                    txn,
                    run,
                    run_ts,
                    commit_ts,
                    ..
                } => {
                    let id = self.run_ix(txn, run);
                    self.carried[id as usize] = (run_ts, commit_ts);
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
            let Reference {
                order,
                ids,
                fates,
                carried,
                decided,
                read_log: reads,
                install_log: mut versions,
                copy_order,
                ..
            } = self;

            // The algorithm's serial order; ties keep decision order. A run
            // cut off before any event named its stamps takes what its reads
            // and certification carried.
            let mut decided: Vec<(RunIx, Ts, Ts)> = decided
                .into_iter()
                .map(|(id, stamps)| {
                    let (run_ts, commit_ts) = stamps.unwrap_or(carried[id as usize]);
                    (id, run_ts, commit_ts)
                })
                .collect();
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
                VersionOrder::StreamOrder => {
                    versions.sort_unstable_by_key(|&(p, _, first)| (p, first))
                }
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
                detail: format!(
                    "the committed history's serialization graph has the cycle {named:?}"
                ),
            }
        }
    }
}

use ddbm_cc::Ts;
use ddbm_config::{FileId, NodeId, PageId, TxnId};
use ddbm_core::protocol::RunId;
use ddbm_core::{TxnPhase, WitnessEvent, WitnessReply};
use ddbm_oracle::{VersionOrder, VsrCollector, VsrOutcome};
use proptest::prelude::*;

/// SplitMix64: the histories' own random numbers.
struct Rng(u64);

impl Rng {
    /// Uniform on `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// How the copies of a page are kept.
#[derive(Debug, Clone, Copy)]
enum Copies {
    /// One copy, at node 1.
    Single,
    /// Three copies: a read uses one, a commit installs all three.
    Rowa,
    /// Three copies: a read observes two, a commit installs two.
    Quorum,
}

/// A run in flight.
#[derive(Debug)]
struct Flight {
    txn: u64,
    run: RunId,
    run_ts: Ts,
    commit_ts: Ts,
    /// Pages still to read, then pages to write.
    reads: Vec<u64>,
    writes: Vec<u64>,
    /// Installs still to emit once the run commits: (node, page).
    installs: Vec<(usize, u64)>,
    stage: Stage,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Reading,
    Committing,
    /// Aborted: restarts (as the next run) when next picked.
    Aborted,
}

/// A random history of `steps` scheduling steps.
fn history(seed: u64, copies: Copies, steps: usize) -> Vec<WitnessEvent> {
    let mut rng = Rng(seed);
    let pages = 2 + rng.below(10);
    let concurrency = 1 + rng.below(4) as usize;
    let abort_pct = rng.below(15);
    let mut now = 1u64;
    let mut next_txn = 1u64;
    let mut flights: Vec<Flight> = Vec::new();
    let mut out = Vec::new();
    let page = |n: u64| PageId {
        file: FileId(0),
        page: n,
    };
    let replicas = |rng: &mut Rng, k: usize| -> Vec<usize> {
        match copies {
            Copies::Single => vec![1],
            _ => {
                let mut nodes = vec![1, 2, 3];
                for i in (1..3).rev() {
                    nodes.swap(i, rng.below(i as u64 + 1) as usize);
                }
                nodes.truncate(k);
                nodes
            }
        }
    };
    for _ in 0..steps {
        now += rng.below(3);
        if flights.len() < concurrency && rng.below(3) == 0 {
            let txn = next_txn;
            next_txn += 1;
            let n = 1 + rng.below(4);
            let mut reads: Vec<u64> = (0..n).map(|_| rng.below(pages)).collect();
            reads.sort_unstable();
            reads.dedup();
            let writes = reads
                .iter()
                .copied()
                .filter(|_| rng.below(2) == 0)
                .collect();
            out.push(WitnessEvent::Phase {
                txn: TxnId(txn),
                run: 1,
                phase: TxnPhase::Executing,
            });
            flights.push(Flight {
                txn,
                run: 1,
                run_ts: Ts::new(now, TxnId(txn)),
                commit_ts: Ts::ZERO,
                reads,
                writes,
                installs: Vec::new(),
                stage: Stage::Reading,
            });
            continue;
        }
        if flights.is_empty() {
            continue;
        }
        let i = rng.below(flights.len() as u64) as usize;
        let f = &mut flights[i];
        let (txn, run) = (TxnId(f.txn), f.run);
        match f.stage {
            Stage::Aborted => {
                // An aborted run sometimes installs before the restart.
                if rng.below(8) == 0 {
                    if let Some(&p) = f.writes.first() {
                        out.push(WitnessEvent::Install {
                            txn,
                            run,
                            node: NodeId(replicas(&mut rng, 1)[0]),
                            page: page(p),
                            run_ts: f.run_ts,
                            commit_ts: Ts::new(now, txn),
                        });
                    }
                }
                f.run += 1;
                f.run_ts = Ts::new(now, txn);
                f.stage = Stage::Reading;
                f.reads = f.writes.clone();
                out.push(WitnessEvent::Phase {
                    txn,
                    run: f.run,
                    phase: TxnPhase::Executing,
                });
            }
            Stage::Reading if rng.below(100) < abort_pct => {
                let phase = if rng.below(2) == 0 {
                    TxnPhase::Aborting
                } else {
                    TxnPhase::AbortingVote
                };
                out.push(WitnessEvent::Phase { txn, run, phase });
                f.stage = Stage::Aborted;
            }
            Stage::Reading => match f.reads.pop() {
                Some(p) => {
                    let k = if matches!(copies, Copies::Quorum) {
                        2
                    } else {
                        1
                    };
                    for node in replicas(&mut rng, k) {
                        let (node, page) = (NodeId(node), page(p));
                        out.push(if rng.below(4) == 0 {
                            WitnessEvent::Grant {
                                txn,
                                run,
                                node,
                                page,
                                write: false,
                                initial_ts: f.run_ts,
                                run_ts: f.run_ts,
                            }
                        } else {
                            WitnessEvent::Access {
                                txn,
                                run,
                                node,
                                page,
                                write: false,
                                reply: WitnessReply::Granted,
                                initial_ts: f.run_ts,
                                run_ts: f.run_ts,
                            }
                        });
                    }
                }
                None => {
                    f.commit_ts = Ts::new(now, txn);
                    out.push(WitnessEvent::Phase {
                        txn,
                        run,
                        phase: TxnPhase::Preparing,
                    });
                    out.push(WitnessEvent::Certify {
                        txn,
                        run,
                        node: NodeId(1),
                        commit_ts: f.commit_ts,
                        run_ts: f.run_ts,
                        ok: true,
                    });
                    out.push(WitnessEvent::Phase {
                        txn,
                        run,
                        phase: TxnPhase::Committing,
                    });
                    let k = if matches!(copies, Copies::Quorum) {
                        2
                    } else {
                        3
                    };
                    let writes = f.writes.clone();
                    for p in writes {
                        for node in replicas(&mut rng, k) {
                            f.installs.push((node, p));
                        }
                    }
                    f.stage = Stage::Committing;
                }
            },
            Stage::Committing => {
                if !step_commit(f, &mut out) {
                    flights.swap_remove(i);
                }
            }
        }
    }
    out
}

/// Emit the committing run's next install, or its `Committed` once none is
/// left; `false` when the run is done.
fn step_commit(f: &mut Flight, out: &mut Vec<WitnessEvent>) -> bool {
    let (txn, run) = (TxnId(f.txn), f.run);
    match f.installs.pop() {
        Some((node, p)) => {
            out.push(WitnessEvent::Install {
                txn,
                run,
                node: NodeId(node),
                page: PageId {
                    file: FileId(0),
                    page: p,
                },
                run_ts: f.run_ts,
                commit_ts: f.commit_ts,
            });
            true
        }
        None => {
            out.push(WitnessEvent::Committed {
                txn,
                run,
                run_ts: f.run_ts,
                commit_ts: f.commit_ts,
            });
            false
        }
    }
}

const ORDERS: [VersionOrder; 3] = [
    VersionOrder::StreamOrder,
    VersionOrder::ByRunTs,
    VersionOrder::ByCommitTs,
];

fn verdicts(order: VersionOrder, events: &[WitnessEvent]) -> (VsrOutcome, VsrOutcome) {
    let mut got = VsrCollector::new(order);
    let mut want = reference::Reference::new(order);
    for ev in events {
        got.observe(ev);
        want.observe(ev);
    }
    (got.finalize(0), want.finalize(0))
}

/// A quorum history whose cut falls between a run's `Committing` and its
/// first `Install`: the run once took the zero key under `ByRunTs`, closing
/// backward edges to runs the retiring collector had let go of, and the
/// two named different cycles.
#[test]
fn run_cut_off_before_its_first_install_keeps_its_place() {
    let events = history(12_575_868_791_248_204_587, Copies::Quorum, 1_967);
    for order in ORDERS {
        let (got, want) = verdicts(order, &events);
        assert_eq!(got, want, "{order:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Retirement changes no verdict, under every version order and replica
    /// control, on short histories (nothing retires) and long ones.
    #[test]
    fn retirement_matches_the_keep_everything_reference(
        seed in any::<u64>(),
        copies in 0usize..3,
        steps in 20usize..4_000,
    ) {
        let copies = [Copies::Single, Copies::Rowa, Copies::Quorum][copies];
        let events = history(seed, copies, steps);
        for order in ORDERS {
            let (got, want) = verdicts(order, &events);
            prop_assert_eq!(got, want, "{:?} {:?} seed {} steps {}", order, copies, seed, steps);
        }
    }
}
