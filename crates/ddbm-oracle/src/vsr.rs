//! The serialization-graph check over the committed history, for every
//! algorithm.
//!
//! The collector records, from the witness stream alone, which version
//! every granted read observed (reads-from), which pages each committed run
//! installed, and the order in which runs decided to commit. It builds the
//! multiversion serialization graph (Bernstein and Goodman) under the
//! algorithm's version order and looks for a cycle, settling the part of
//! the graph no later event can change as the stream goes (see
//! Retirement):
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
//! Each `(txn, run)` gets a `u32` id the first time the stream names it
//! (ids are handed out in order and never reused), and each logical page a
//! dense `u32`. The held runs sit in a window indexed by id; per run the
//! collector keeps its fate (live, aborted, or decided with its rank among
//! the decisions), its stamps and its floor (below).
//!
//! The visible version of each page replica is one entry of a flat copy
//! table, a single `Vec` that grows by doubling: the writer's id, the
//! `u32` stream position of its first install of the page, the node, and
//! the link to the page's next copy, 16 bytes; under a timestamp order the
//! entry also keeps the order key, 32 bytes. Under stream order the key is
//! constant, so it is not stored. The head of each page's chain sits in the
//! per-page vector the collector keeps anyway (beside the page's last
//! retired writer), so a lookup walks at most one entry per replica and the
//! table adds no allocation beyond its own doublings: no hash buckets, no
//! per-node index.
//!
//! A run's reads (with the full version read, for the quorum-read collapse)
//! and its deduplicated installed pages sit in two lists of its pending
//! entry, whose links every held run shares in two `denet::Lists` arenas,
//! until its `Committed` event moves them into two flat logs: reads as
//! `(reader, page, writer)` and installs as `(page, writer, first
//! install)`, 12 and 16 bytes an entry. When the coordinator aborts a live
//! run its pending entry is dropped, and later reads by it are ignored; the
//! run is forgotten when its transaction's next run starts.
//!
//! # Retirement
//!
//! A committed run leaves the collector, with its log entries and its id,
//! once no later event can add an edge that touches it. The rule is a
//! low-water mark over the serial position: decision rank under stream
//! order, `(run_ts, rank)` for BTO, `(commit_ts, rank)` for OPT.
//!
//! * When a run is first seen, its *floor* is the least position any run
//!   not yet finished then can still take: a decided run's own position, or
//!   the next rank (stream order) or the largest timestamp time seen so far
//!   (timestamp orders) for one not yet decided. A run first seen later
//!   takes a position at or above every floor recorded before it.
//! * The low-water mark is the least floor among the runs not yet finished
//!   (not committed, or aborted and not yet restarted).
//! * Every edge the protocol can create points at or above its source's
//!   floor: the later writer of a version a run read, or the next writer
//!   after a run's own version, was itself unfinished when the run read or
//!   installed. So no edge the rest of the stream adds points at a
//!   committed run below the mark, and positions below it are final.
//!
//! Every time the held decided runs double (at least 64 more), a *settle*
//! builds the graph of the held runs exactly as one search over the whole
//! history would: same version chains, same edges, same merged spans of
//! backward edges. A span wholly below the mark can no longer grow, so it
//! is searched with [`ddbm_cc::find_cycle`] at once; spans close in
//! ascending order and `find_cycle` starts its depth-first search from the
//! lowest node, so the first cycle found is the one a single search over
//! the whole history reports, and once it is found the collector keeps
//! nothing more. Then every committed run below the mark that no open span
//! covers retires. A page's retired versions precede its held ones, so a
//! page keeps only its last retired writer, for a later read of that
//! version. `finalize` is the last settle, with every run counted as
//! finished.
//!
//! A settle first checks that each held edge points at or above its
//! source's floor. If one does not (a stale replica read, say, under an
//! injected defect), retirement stops for the rest of the stream and the
//! collector keeps everything, as before retirement. A run the stream cuts
//! off after its `Committing` but before its first `Install` never named
//! its stamps; at the end it takes the run timestamp its reads carried and
//! the commit timestamp its `Certify` carried, so it sorts where its
//! installs would have put it, above every retired run.

use crate::dense::{DensePages, PageIx};
use ddbm_cc::{find_cycle, Ts};
use ddbm_config::{Algorithm, NodeId, PageId, TxnId};
use ddbm_core::protocol::RunId;
use ddbm_core::{TxnPhase, WitnessEvent};
use denet::{FxHashMap, List, Lists};
use std::collections::VecDeque;

/// A dense run id, or a position in the serial order.
type RunIx = u32;

/// No run: the initial version of a page, or a run outside the order.
const NONE: RunIx = RunIx::MAX;

/// A place in the serial order: the algorithm's key, then the decision
/// rank.
type Pos = (Ts, u32);

/// No copy: the end of a page's chain in the copy table.
const END: u32 = u32::MAX;

/// Retained decided runs that start the first settle, and the least
/// growth that starts each later one.
const SETTLE_AFTER: usize = 64;

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
    /// Stream position of the writer's first install of the page: the
    /// version order under `StreamOrder`, where the key is constant, and
    /// the tiebreak otherwise.
    first: u32,
    key: Ts,
}

impl Version {
    /// `true` when `self` is the later of two versions of one page in the
    /// version order (the one-copy collapse rule).
    fn newer_than(&self, other: &Version) -> bool {
        (self.key, self.first) > (other.key, other.first)
    }
}

/// What a copy entry keeps of its version's key: nothing under stream
/// order, where the key is constant, or the key itself.
trait Key: Copy {
    fn of(key: Ts) -> Self;
    fn ts(self) -> Ts;
}

impl Key for () {
    fn of(_: Ts) {}

    fn ts(self) -> Ts {
        Ts::default()
    }
}

impl Key for Ts {
    fn of(key: Ts) -> Ts {
        key
    }

    fn ts(self) -> Ts {
        self
    }
}

/// The visible version of one page copy, linked to its page's next copy.
#[derive(Debug, Clone, Copy)]
struct Entry<K> {
    node: u32,
    /// The page's next copy, or `END`.
    next: u32,
    writer: RunIx,
    first: u32,
    key: K,
}

// The sizes the module docs state.
const _: () = assert!(
    std::mem::size_of::<Version>() == 24
        && std::mem::size_of::<Entry<()>>() == 16
        && std::mem::size_of::<Entry<Ts>>() == 32
);

/// The entry of `node`'s copy on the chain from `at`, and its version.
fn lookup<K: Key>(table: &[Entry<K>], mut at: u32, node: u32) -> Option<(u32, Version)> {
    while at != END {
        let e = &table[at as usize];
        if e.node == node {
            let (writer, first, key) = (e.writer, e.first, e.key.ts());
            return Some((at, Version { writer, first, key }));
        }
        at = e.next;
    }
    None
}

/// Make `v` the visible version of entry `at`, or of a new entry for
/// `node` that becomes the head of its page's chain.
fn store<K: Key>(
    table: &mut Vec<Entry<K>>,
    head: &mut u32,
    at: Option<u32>,
    node: u32,
    v: Version,
) {
    let entry = |next| Entry {
        node,
        next,
        writer: v.writer,
        first: v.first,
        key: K::of(v.key),
    };
    match at {
        Some(at) => {
            let e = &mut table[at as usize];
            *e = entry(e.next);
        }
        None => {
            let at = u32::try_from(table.len())
                .ok()
                .filter(|&at| at != END)
                .expect("fewer than 2^32 - 1 page copies");
            table.push(entry(*head));
            *head = at;
        }
    }
}

/// The visible version of every page copy an install reached (absent: the
/// initial database state), one flat table for all pages.
#[derive(Debug)]
enum Copies {
    /// Under stream order: 16-byte entries.
    Stream(Vec<Entry<()>>),
    /// Under a timestamp order: 32-byte entries.
    Stamped(Vec<Entry<Ts>>),
}

impl Copies {
    fn new(order: VersionOrder) -> Copies {
        match order {
            VersionOrder::StreamOrder => Copies::Stream(Vec::new()),
            _ => Copies::Stamped(Vec::new()),
        }
    }

    /// See [`lookup`].
    fn lookup(&self, head: u32, node: u32) -> Option<(u32, Version)> {
        match self {
            Copies::Stream(t) => lookup(t, head, node),
            Copies::Stamped(t) => lookup(t, head, node),
        }
    }

    /// See [`store`].
    fn store(&mut self, head: &mut u32, at: Option<u32>, node: u32, v: Version) {
        match self {
            Copies::Stream(t) => store(t, head, at, node, v),
            Copies::Stamped(t) => store(t, head, at, node, v),
        }
    }
}

/// A node id as a copy entry holds it.
fn node_ix(node: NodeId) -> u32 {
    u32::try_from(node.0).expect("node ids fit in 32 bits")
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

/// What a run has done and not yet moved to the logs.
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

/// One run the collector still holds.
#[derive(Debug)]
struct Run {
    txn: TxnId,
    run: RunId,
    fate: Fate,
    /// Its `Committed` event was seen: no later event names the run.
    committed: bool,
    /// An `Install` or `Committed` named its stamps.
    stamped: bool,
    /// (run_ts, commit_ts) of its latest `Install` or `Committed`; until
    /// one names them, what its reads (run_ts) and its `Certify` (both)
    /// carried.
    stamps: (Ts, Ts),
    /// The least serial position any run unfinished at this run's first
    /// sight can take (see module docs).
    floor: Pos,
    /// The least key this run can take under a timestamp order: the
    /// largest timestamp time seen before it.
    seen: Ts,
    pending: Pending,
}

/// Scratch reused by every settle.
#[derive(Debug, Default)]
struct Scratch {
    /// Decided runs by serial position: (position, slot).
    order: Vec<(Pos, u32)>,
    /// Dense serial index per slot; `NONE` for undecided runs.
    ix: Vec<RunIx>,
    /// (page, writer, first install), in version order per page.
    versions: Vec<(PageIx, RunIx, u32)>,
    /// (page, writer, writer of the next version), sorted.
    next: Vec<(PageIx, RunIx, RunIx)>,
    /// (reader, page, writer or `NONE`).
    reads: Vec<(RunIx, PageIx, RunIx)>,
    /// Edges between run ids.
    edges: Vec<(RunIx, RunIx)>,
    /// Merged spans of backward edges, in serial indices.
    spans: Vec<(RunIx, RunIx)>,
    graph: Vec<(TxnId, TxnId)>,
}

/// See module docs.
#[derive(Debug)]
pub struct VsrCollector {
    order: VersionOrder,
    ids: FxHashMap<(TxnId, RunId), RunIx>,
    /// Held runs by id: `slots[i]` is run `base + i`; `None` once retired
    /// or dropped.
    slots: VecDeque<Option<Run>>,
    base: RunIx,
    /// Ids of the held runs that are not finished.
    unfinished: Vec<RunIx>,
    /// Decisions so far: the next rank.
    ranks: u32,
    /// Held decided runs.
    held: usize,
    /// Settle again once `held` reaches this.
    settle_at: usize,
    /// Largest timestamp time seen, as a key.
    clock: Ts,
    /// Dense logical page ids, assigned on first sight.
    pages: DensePages,
    /// Per page: the last retired version's writer (`NONE`: none retired),
    /// and the head of its chain in `copies` (`END`: no copy installed).
    frontier: Vec<(RunIx, u32)>,
    /// Currently visible version per *replica* of a page. Replicated reads
    /// collapse to one-copy semantics at read-record time.
    copies: Copies,
    /// The held runs' pending reads.
    reads: Lists<Read>,
    /// The held runs' pending installed pages and first-install positions.
    installs: Lists<(PageIx, u32)>,
    /// Reads-from of committed runs: (reader, page, writer or `NONE`).
    read_log: Vec<(RunIx, PageIx, RunIx)>,
    /// Pages installed by committed runs: (page, writer, first install).
    install_log: Vec<(PageIx, RunIx, u32)>,
    /// Under stream order, consecutive installs of one copy that run
    /// against the version order: (earlier writer, later writer).
    copy_order: Vec<(RunIx, RunIx)>,
    /// `Install` events so far: the stream position of the latest.
    seq: u32,
    /// Retirement stays on while every edge seen so far points at or above
    /// its source's floor.
    retiring: bool,
    /// Some backward edge was seen.
    backward: bool,
    /// The first cycle found; nothing more is collected once it is.
    cycle: Option<String>,
    scratch: Scratch,
}

impl VsrCollector {
    /// A collector using `order` as the version order.
    pub fn new(order: VersionOrder) -> VsrCollector {
        VsrCollector {
            order,
            ids: FxHashMap::default(),
            slots: VecDeque::new(),
            base: 0,
            unfinished: Vec::new(),
            ranks: 0,
            held: 0,
            settle_at: SETTLE_AFTER,
            clock: Ts::default(),
            pages: DensePages::default(),
            frontier: Vec::new(),
            copies: Copies::new(order),
            reads: Lists::default(),
            installs: Lists::default(),
            read_log: Vec::new(),
            install_log: Vec::new(),
            copy_order: Vec::new(),
            seq: 0,
            retiring: true,
            backward: false,
            cycle: None,
            scratch: Scratch::default(),
        }
    }

    fn slot(&self, id: RunIx) -> Option<&Run> {
        let i = id.checked_sub(self.base)?;
        self.slots.get(i as usize)?.as_ref()
    }

    fn run_mut(&mut self, id: RunIx) -> &mut Run {
        self.slots[(id - self.base) as usize]
            .as_mut()
            .expect("a held run")
    }

    /// True when `id` names a run that has left the collector.
    fn gone(&self, id: RunIx) -> bool {
        id != NONE && self.slot(id).is_none()
    }

    /// The key a run with `stamps` takes in the serial order.
    fn key(&self, stamps: (Ts, Ts)) -> Ts {
        match self.order {
            VersionOrder::StreamOrder => Ts::default(),
            VersionOrder::ByRunTs => stamps.0,
            VersionOrder::ByCommitTs => stamps.1,
        }
    }

    /// The least serial position a run first seen now can take.
    fn fresh_bound(&self) -> Pos {
        match self.order {
            VersionOrder::StreamOrder => (Ts::default(), self.ranks),
            _ => (self.clock, 0),
        }
    }

    /// The least serial position the unfinished run `r` can end at.
    fn bound(&self, r: &Run) -> Pos {
        match (r.fate, self.order) {
            (Fate::Decided(rank), VersionOrder::StreamOrder) => (Ts::default(), rank),
            (_, VersionOrder::StreamOrder) => (Ts::default(), self.ranks),
            (Fate::Decided(rank), _) if r.stamped => (self.key(r.stamps), rank),
            (Fate::Decided(rank), _) => (r.seen, rank),
            _ => (r.seen, 0),
        }
    }

    /// The dense id of `(txn, run)`, assigned on first sight. A run first
    /// seen ends the transaction's previous run unless that one decided.
    fn run_ix(&mut self, txn: TxnId, run: RunId) -> RunIx {
        if let Some(&id) = self.ids.get(&(txn, run)) {
            return id;
        }
        if let Some(&prev) = run.checked_sub(1).and_then(|r| self.ids.get(&(txn, r))) {
            if !matches!(self.run_mut(prev).fate, Fate::Decided(_)) {
                self.drop_run(prev);
            }
        }
        let id = self.base + self.slots.len() as RunIx;
        assert!(id != NONE, "fewer than 2^32 - 1 runs");
        let fresh = self.fresh_bound();
        let floor = self
            .unfinished
            .iter()
            .filter_map(|&u| self.slot(u))
            .map(|r| self.bound(r))
            .fold(fresh, Pos::min);
        self.ids.insert((txn, run), id);
        self.unfinished.push(id);
        self.slots.push_back(Some(Run {
            txn,
            run,
            fate: Fate::Live,
            committed: false,
            stamped: false,
            stamps: (Ts::default(), Ts::default()),
            floor,
            seen: self.clock,
            pending: Pending::default(),
        }));
        id
    }

    /// Forget a run that never decided.
    fn drop_run(&mut self, id: RunIx) {
        let i = (id - self.base) as usize;
        let r = self.slots[i].take().expect("a held run");
        self.ids.remove(&(r.txn, r.run));
        self.finish(id);
        self.recycle(r.pending);
    }

    /// `id` can no longer hold the low-water mark down.
    fn finish(&mut self, id: RunIx) {
        if let Some(k) = self.unfinished.iter().position(|&u| u == id) {
            self.unfinished.swap_remove(k);
        }
    }

    /// The dense id of `(txn, run)`, which decides to commit now if it had
    /// not yet. `stamps` are its (run_ts, commit_ts), when the event names
    /// them.
    fn decide(&mut self, txn: TxnId, run: RunId, stamps: Option<(Ts, Ts)>) -> RunIx {
        let id = self.run_ix(txn, run);
        let rank = self.ranks;
        let r = self.run_mut(id);
        let decided = !matches!(r.fate, Fate::Decided(_));
        if decided {
            r.fate = Fate::Decided(rank);
        }
        if let Some(stamps) = stamps {
            r.stamps = stamps;
            r.stamped = true;
        }
        if decided {
            // At most one decision per run, and run ids fit in a `u32`.
            self.ranks += 1;
            self.held += 1;
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
        let p = std::mem::take(&mut self.run_mut(id).pending);
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

    fn tick(&mut self, ts: Ts) {
        if ts.time > self.clock.time {
            self.clock = Ts {
                time: ts.time,
                txn: 0,
            };
        }
    }

    /// The dense id of `page`, assigned on first sight with its `frontier`
    /// entry.
    fn page_ix(&mut self, page: PageId) -> PageIx {
        let ix = self.pages.ix(page);
        if ix as usize == self.frontier.len() {
            self.frontier.push((NONE, END));
        }
        ix
    }

    fn record_read(&mut self, txn: TxnId, run: RunId, node: NodeId, page: PageId, run_ts: Ts) {
        let id = self.run_ix(txn, run);
        let r = self.run_mut(id);
        if r.fate == Fate::Aborted {
            return;
        }
        if !r.stamped {
            r.stamps.0 = run_ts;
        }
        let page = self.page_ix(page);
        let head = self.frontier[page as usize].1;
        let obs = self.copies.lookup(head, node_ix(node)).map(|(_, v)| v);
        let i = (id - self.base) as usize;
        let pending = &mut self.slots[i].as_mut().expect("a held run").pending;
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
        if self.cycle.is_some() {
            return;
        }
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
            } => {
                self.tick(run_ts);
                if !write && reply == crate::WitnessReply::Granted {
                    self.record_read(txn, run, node, page, run_ts);
                }
            }
            WitnessEvent::Grant {
                txn,
                run,
                node,
                page,
                write,
                run_ts,
                ..
            } => {
                self.tick(run_ts);
                if !write {
                    self.record_read(txn, run, node, page, run_ts);
                }
            }
            WitnessEvent::Install {
                txn,
                run,
                node,
                page,
                run_ts,
                commit_ts,
            } => {
                self.tick(run_ts);
                self.tick(commit_ts);
                self.seq = self.seq.checked_add(1).expect("fewer than 2^32 installs");
                let id = self.decide(txn, run, Some((run_ts, commit_ts)));
                let page = self.page_ix(page);
                let seq = self.seq;
                let i = (id - self.base) as usize;
                let p = &mut self.slots[i].as_mut().expect("a held run").pending;
                let seen = self.installs.iter(p.installs).find(|&(pg, _)| pg == page);
                let first = match seen {
                    Some((_, first)) => first,
                    None => {
                        self.installs.push(&mut p.installs, (page, seq));
                        seq
                    }
                };
                let key = self.key((run_ts, commit_ts));
                let node = node_ix(node);
                let cur = self.copies.lookup(self.frontier[page as usize].1, node);
                let replace = match cur {
                    None => true,
                    Some((_, cur)) if self.order == VersionOrder::StreamOrder => {
                        if cur.writer != id && cur.first > first {
                            self.copy_order.push((cur.writer, id));
                        }
                        true
                    }
                    Some((_, cur)) => key > cur.key,
                };
                if replace {
                    let head = &mut self.frontier[page as usize].1;
                    let version = Version {
                        writer: id,
                        first,
                        key,
                    };
                    self.copies
                        .store(head, cur.map(|(at, _)| at), node, version);
                }
            }
            WitnessEvent::Committed {
                txn,
                run,
                run_ts,
                commit_ts,
            } => {
                self.tick(run_ts);
                self.tick(commit_ts);
                let id = self.decide(txn, run, Some((run_ts, commit_ts)));
                self.flush(id);
                self.run_mut(id).committed = true;
                self.finish(id);
                if self.retiring && self.held >= self.settle_at {
                    self.settle(false);
                }
            }
            WitnessEvent::Certify {
                txn,
                run,
                run_ts,
                commit_ts,
                ..
            } => {
                let id = self.run_ix(txn, run);
                let r = self.run_mut(id);
                if !r.stamped {
                    r.stamps = (run_ts, commit_ts);
                }
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
                let r = self.run_mut(id);
                if r.fate == Fate::Live {
                    r.fate = Fate::Aborted;
                    let p = std::mem::take(&mut r.pending);
                    self.recycle(p);
                }
            }
            WitnessEvent::Phase { txn, run, .. } => {
                self.run_ix(txn, run);
            }
            _ => {}
        }
    }

    /// Build the graph of the held runs, search the spans of backward edges
    /// that lie wholly below the low-water mark, and (unless `end`) retire
    /// the finished runs below it that no other span covers. At `end` every
    /// run counts as finished, so every span is searched.
    fn settle(&mut self, end: bool) {
        let mut s = std::mem::take(&mut self.scratch);
        let rank_of = |r: &Run| match r.fate {
            Fate::Decided(rank) => Some(rank),
            _ => None,
        };

        // The serial order of the held decided runs; ties keep decision
        // order. At the end a run that never named its stamps takes what its
        // reads and certification carried; before it, its least possible
        // key.
        s.order.clear();
        s.order.reserve(self.held);
        for (slot, r) in self.slots.iter().enumerate() {
            let Some(r) = r else { continue };
            let Some(rank) = rank_of(r) else { continue };
            let key = if r.stamped || end {
                self.key(r.stamps)
            } else {
                self.bound(r).0
            };
            s.order.push(((key, rank), slot as u32));
        }
        s.order.sort_unstable();
        s.ix.clear();
        s.ix.resize(self.slots.len(), NONE);
        for (i, &(_, slot)) in s.order.iter().enumerate() {
            s.ix[slot as usize] = i as RunIx;
        }
        // Runs at serial indices below `lwm` lie below the low-water mark:
        // the floor of the oldest unfinished run.
        let mut lwm = s.order.len();
        if !end {
            for r in self.unfinished.iter().filter_map(|&u| self.slot(u)) {
                let below = s.order.partition_point(|&(pos, _)| pos < r.floor);
                lwm = lwm.min(below);
            }
            // Only committed runs lie below it, whatever the stamps say.
            for (slot, r) in self.slots.iter().enumerate() {
                if r.as_ref()
                    .is_some_and(|r| !r.committed && rank_of(r).is_some())
                {
                    lwm = lwm.min(s.ix[slot] as usize);
                }
            }
        }
        let base = self.base;
        let at = |ix: &[RunIx], id: RunIx| -> RunIx {
            if id == NONE || id < base {
                return NONE;
            }
            ix.get((id - base) as usize).copied().unwrap_or(NONE)
        };

        // Each page's held versions in the version order, after the page's
        // retired ones.
        // Each buffer is sized once per settle, so a settle allocates only
        // when the held history outgrew every earlier one.
        let (mut installs, mut reads) = (self.install_log.len(), self.read_log.len());
        for r in self.slots.iter().flatten() {
            installs += self.installs.iter(r.pending.installs).count();
            reads += self.reads.iter(r.pending.reads).count();
        }
        s.versions.clear();
        s.versions.reserve(installs);
        s.versions.extend_from_slice(&self.install_log);
        s.reads.clear();
        s.reads.reserve(reads);
        s.reads.extend_from_slice(&self.read_log);
        for (slot, r) in self.slots.iter().enumerate() {
            let Some(r) = r.as_ref().filter(|r| rank_of(r).is_some()) else {
                continue;
            };
            let id = base + slot as RunIx;
            s.versions.extend(
                self.installs
                    .iter(r.pending.installs)
                    .map(|(page, first)| (page, id, first)),
            );
            s.reads.extend(
                self.reads
                    .iter(r.pending.reads)
                    .map(|(page, obs)| (id, page, obs.map_or(NONE, |v| v.writer))),
            );
        }
        s.versions.sort_unstable();
        s.versions
            .dedup_by_key(|&mut (page, writer, _)| (page, writer));
        match self.order {
            VersionOrder::StreamOrder => {
                s.versions.sort_unstable_by_key(|&(p, _, first)| (p, first))
            }
            _ => {
                let ix = &s.ix;
                s.versions
                    .sort_unstable_by_key(|&(p, writer, _)| (p, at(ix, writer)))
            }
        }
        s.next.clear();
        s.next.reserve(s.versions.len());
        for page in s.versions.chunk_by(|a, b| a.0 == b.0) {
            let mut prev = self.frontier[page[0].0 as usize].0;
            for &(p, writer, _) in page {
                s.next.push((p, prev, writer));
                prev = writer;
            }
        }
        s.next.sort_unstable();

        // The edges between held runs, as in one search over the whole
        // history: ww, wr, rw and the copies' install orders.
        s.edges.clear();
        s.edges
            .reserve(s.next.len() + 2 * s.reads.len() + self.copy_order.len());
        let next = &s.next;
        let after = |page: PageIx, writer: RunIx| {
            next.binary_search_by_key(&(page, writer), |&(p, w, _)| (p, w))
                .ok()
                .map(|i| next[i].2)
        };
        s.edges.extend(
            next.iter()
                .filter(|e| !self.gone(e.1) && e.1 != NONE)
                .map(|&(_, w, n)| (w, n)),
        );
        for &(r, page, w) in &s.reads {
            if w != NONE && !self.gone(w) {
                s.edges.push((w, r));
            }
            if let Some(n) = after(page, w) {
                s.edges.push((r, n));
            }
        }
        s.edges.extend(
            self.copy_order
                .iter()
                .copied()
                .filter(|&(a, b)| !self.gone(a) && !self.gone(b)),
        );
        s.edges.retain(|(a, b)| a != b);

        // Retirement is sound while every edge points at or above its
        // source's floor; once one does not, keep everything.
        if !end && self.retiring {
            let ok = s.edges.iter().all(|&(a, b)| {
                let (Some(src), Some(_)) =
                    (self.slot(a).filter(|r| rank_of(r).is_some()), self.slot(b))
                else {
                    return true;
                };
                match at(&s.ix, b) {
                    NONE => true,
                    i => s.order[i as usize].0 >= src.floor,
                }
            });
            self.retiring = ok;
        }
        if !end && !self.retiring {
            self.scratch = s;
            return;
        }

        // A cycle runs backward in the serial order somewhere, and its
        // backward edges cover its stretch of the order without a gap, so it
        // lies inside one merged span of backward edges. A run not yet
        // decided sorts after every decided one.
        s.spans.clear();
        let ix = &s.ix;
        s.spans.extend(
            s.edges
                .iter()
                .map(|&(a, b)| (at(ix, a), at(ix, b)))
                .filter(|(a, b)| a > b)
                .map(|(a, b)| (b, a)),
        );
        s.spans.sort_unstable();
        s.spans.dedup_by(|next, span| {
            let overlaps = next.0 <= span.1;
            if overlaps {
                span.1 = span.1.max(next.1);
            }
            overlaps
        });
        // Spans wholly below the mark are final: no later edge reaches them.
        let closed = s.spans.partition_point(|sp| (sp.1 as usize) < lwm);
        self.backward |= closed > 0;
        let spans = &s.spans[..closed];
        let span_of = |p: RunIx| {
            let i = spans.partition_point(|sp| sp.1 < p);
            spans.get(i).filter(|sp| sp.0 <= p).map(|_| i)
        };
        // Name each run by its position, so two runs of one transaction
        // stay two nodes.
        s.graph.clear();
        s.graph.extend(
            s.edges
                .iter()
                .map(|&(a, b)| (at(ix, a), at(ix, b)))
                .filter(|&(a, b)| span_of(a).is_some() && span_of(a) == span_of(b))
                .map(|(a, b)| (TxnId(u64::from(a)), TxnId(u64::from(b)))),
        );
        if let Some(cycle) = find_cycle(&s.graph) {
            let named: Vec<u64> = cycle
                .iter()
                .map(|p| {
                    let slot = s.order[p.0 as usize].1 as usize;
                    self.slots[slot].as_ref().expect("a held run").txn.0
                })
                .collect();
            self.cycle = Some(format!(
                "the committed history's serialization graph has the cycle {named:?}"
            ));
        }
        if let Some(cycle) = self.cycle.take() {
            // Nothing later changes the verdict: keep only what it reads.
            *self = VsrCollector {
                ranks: self.ranks,
                cycle: Some(cycle),
                ..VsrCollector::new(self.order)
            };
            return;
        }
        if end {
            self.scratch = s;
            return;
        }

        // Retire the finished runs below the mark that no open span covers.
        let open = &s.spans[closed..];
        let covered = |p: RunIx| {
            let i = open.partition_point(|sp| sp.1 < p);
            open.get(i).is_some_and(|sp| sp.0 <= p)
        };
        for &(_, slot) in &s.order[..lwm] {
            let slot = slot as usize;
            let p = s.ix[slot];
            if covered(p) || !self.slots[slot].as_ref().is_some_and(|r| r.committed) {
                continue;
            }
            let r = self.slots[slot].take().expect("a held run");
            self.ids.remove(&(r.txn, r.run));
            self.held -= 1;
            let mut pending = r.pending;
            self.reads.clear(&mut pending.reads);
            self.installs.clear(&mut pending.installs);
        }
        // Each page's retired versions precede its held ones, so the last
        // retired one is all a later read of an old version needs.
        for page in s.versions.chunk_by(|a, b| a.0 == b.0) {
            if let Some(&(p, w, _)) = page.iter().rev().find(|v| self.gone(v.1)) {
                self.frontier[p as usize].0 = w;
            }
        }
        let gone =
            |id: RunIx| id != NONE && (id < base || self.slots[(id - base) as usize].is_none());
        self.read_log.retain(|&(r, ..)| !gone(r));
        self.install_log.retain(|&(_, w, _)| !gone(w));
        self.copy_order.retain(|&(a, b)| !gone(a) && !gone(b));
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        self.settle_at = (2 * self.held).max(self.held + SETTLE_AFTER);
        self.scratch = s;
    }

    /// Check the collected history; consumes the collector. The argument
    /// is unused: the check is one graph search, with nothing to budget.
    pub fn finalize(mut self, _budget: u64) -> VsrOutcome {
        if self.cycle.is_none() && self.ranks > 0 {
            self.settle(true);
        }
        if let Some(detail) = self.cycle {
            return VsrOutcome::NotSerializable { detail };
        }
        if self.ranks == 0 {
            return VsrOutcome::Trivial;
        }
        VsrOutcome::Serializable {
            txns: self.ranks as usize,
            certificate: if self.backward {
                "acyclic-graph"
            } else {
                "candidate-order"
            },
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
        assert!(c.reads.listed() == 0 && c.read_log.is_empty());
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
