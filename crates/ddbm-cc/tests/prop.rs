//! Property-based tests for the concurrency control managers.
//!
//! Each test drives a manager with a random operation sequence while a
//! simple reference model tracks what must be true, then checks invariants:
//! lock compatibility, progress (no lost wakeups), deadlock-detector
//! soundness, wound-wait/wait-die edge orientation, and BTO/OPT
//! timestamp-order invariants.

use ddbm_cc::{
    find_cycle, make_manager, resolve_deadlocks, AccessReply, LockMode, LockTable, ReleaseResponse,
    Ts, TxnMeta,
};
use ddbm_config::{Algorithm, FileId, PageId, TxnId};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn page(n: u64) -> PageId {
    PageId {
        file: FileId((n % 4) as usize),
        page: n / 4,
    }
}

fn meta(id: u64) -> TxnMeta {
    TxnMeta {
        id: TxnId(id),
        initial_ts: Ts::new(id, TxnId(id)),
        run_ts: Ts::new(id, TxnId(id)),
    }
}

/// One random lock-table operation.
#[derive(Debug, Clone)]
enum LtOp {
    Request { txn: u64, page: u64, write: bool },
    Release { txn: u64 },
    Cancel { txn: u64, page: u64 },
}

fn lt_op() -> impl Strategy<Value = LtOp> {
    prop_oneof![
        3 => (0u64..12, 0u64..8, any::<bool>()).prop_map(|(txn, page, write)| LtOp::Request {
            txn,
            page,
            write
        }),
        1 => (0u64..12).prop_map(|txn| LtOp::Release { txn }),
        1 => (0u64..12, 0u64..8).prop_map(|(txn, page)| LtOp::Cancel { txn, page }),
    ]
}

/// Apply one [`LtOp`] to a table.
fn lt_apply(lt: &mut LockTable, op: &LtOp) {
    match *op {
        LtOp::Request {
            txn,
            page: p,
            write,
        } => {
            let mode = if write {
                LockMode::Write
            } else {
                LockMode::Read
            };
            lt.request(TxnId(txn), page(p), mode);
        }
        LtOp::Release { txn } => {
            lt.release_all(TxnId(txn));
        }
        LtOp::Cancel { txn, page: p } => {
            lt.cancel_wait(TxnId(txn), page(p));
        }
    }
}

/// One step of a transaction schedule against a lock manager.
#[derive(Debug, Clone)]
enum TxnOp {
    Request { txn: u64, page: u64, write: bool },
    Commit { txn: u64 },
    Abort { txn: u64 },
}

/// Eight transactions on six pages. Holders re-request their pages, so read
/// locks get upgraded.
fn txn_op() -> impl Strategy<Value = TxnOp> {
    prop_oneof![
        6 => (0u64..8, 0u64..6, any::<bool>()).prop_map(|(txn, page, write)| TxnOp::Request {
            txn,
            page,
            write
        }),
        1 => (0u64..8).prop_map(|txn| TxnOp::Commit { txn }),
        1 => (0u64..8).prop_map(|txn| TxnOp::Abort { txn }),
    ]
}

/// Fold a release's consequences into the model: grants unblock their
/// transactions; rejections and wounds name transactions that must abort.
fn note_release(rel: &ReleaseResponse, blocked: &mut HashSet<u64>, kills: &mut Vec<u64>) {
    for (t, _) in &rel.granted {
        blocked.remove(&t.0);
    }
    kills.extend(rel.rejected.iter().map(|(t, _)| t.0));
    kills.extend(rel.must_abort.iter().map(|t| t.0));
}

/// Reference cycle detector: a directed graph has a cycle iff some node can
/// reach itself through at least one edge. Plain per-node DFS, no sharing.
fn brute_force_has_cycle(edges: &[(TxnId, TxnId)]) -> bool {
    let mut adj: HashMap<TxnId, Vec<TxnId>> = HashMap::new();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
    }
    let nodes: HashSet<TxnId> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
    nodes.iter().any(|&start| {
        let mut stack = vec![start];
        let mut seen: HashSet<TxnId> = HashSet::new();
        while let Some(u) = stack.pop() {
            for &v in adj.get(&u).into_iter().flatten() {
                if v == start {
                    return true;
                }
                if seen.insert(v) {
                    stack.push(v);
                }
            }
        }
        false
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lock-table safety: at every step, the holders of each page are
    /// mutually compatible (any number of readers XOR one writer).
    #[test]
    fn lock_table_holders_always_compatible(ops in prop::collection::vec(lt_op(), 1..200)) {
        let mut lt = LockTable::new();
        let mut live_pages: HashSet<u64> = HashSet::new();
        for op in ops {
            if let LtOp::Request { page: p, .. } = op {
                live_pages.insert(p);
            }
            lt_apply(&mut lt, &op);
            for &p in &live_pages {
                let holders = lt.holders(page(p));
                let writers = holders.iter().filter(|(_, m)| *m == LockMode::Write).count();
                if writers > 0 {
                    prop_assert_eq!(holders.len(), 1, "writer must be exclusive on {:?}", p);
                }
                // No transaction appears twice among the holders.
                let mut ids: Vec<TxnId> = holders.iter().map(|(t, _)| *t).collect();
                ids.sort();
                ids.dedup();
                prop_assert_eq!(ids.len(), holders.len());
            }
        }
    }

    /// Lock-table liveness: if everyone releases, everything empties and
    /// every queued request was granted or discarded exactly once.
    #[test]
    fn lock_table_drains_clean(ops in prop::collection::vec(lt_op(), 1..200)) {
        let mut lt = LockTable::new();
        for op in ops {
            lt_apply(&mut lt, &op);
        }
        for txn in 0..12 {
            lt.release_all(TxnId(txn));
        }
        prop_assert_eq!(lt.active_pages(), 0, "table must be empty after all releases");
        let mut edges = Vec::new();
        lt.waits_for_edges_into(&mut edges);
        prop_assert!(edges.is_empty());
    }

    /// Queued-page index equivalence: after every acquire/release/cancel,
    /// the incrementally maintained index equals the naive full scan —
    /// with and without barging.
    #[test]
    fn queued_page_index_matches_naive_scan(ops in prop::collection::vec(lt_op(), 1..250)) {
        for barging in [false, true] {
            let mut lt = if barging {
                LockTable::with_barging()
            } else {
                LockTable::new()
            };
            for op in &ops {
                lt_apply(&mut lt, op);
                prop_assert_eq!(
                    lt.queued_pages(),
                    lt.scan_queued_pages(),
                    "index drifted (barging={}) after {:?}",
                    barging,
                    op
                );
            }
            // Draining everyone must empty the index too.
            for txn in 0..12 {
                lt.release_all(TxnId(txn));
                prop_assert_eq!(lt.queued_pages(), lt.scan_queued_pages());
            }
            prop_assert!(lt.queued_pages().is_empty());
        }
    }

    /// Cycle-detector differential: the CSR/Kahn `find_cycle` agrees with a
    /// brute-force per-node reachability reference on random digraphs
    /// (self-loops and parallel edges included), any cycle it reports is a
    /// real cycle of the graph, and detection is deterministic.
    #[test]
    fn find_cycle_matches_brute_force(
        raw in prop::collection::vec((0u64..12, 0u64..12), 0..50),
    ) {
        let edges: Vec<(TxnId, TxnId)> =
            raw.into_iter().map(|(a, b)| (TxnId(a), TxnId(b))).collect();
        let found = find_cycle(&edges);
        prop_assert_eq!(
            found.is_some(),
            brute_force_has_cycle(&edges),
            "detector disagrees with reference on {:?}",
            edges
        );
        if let Some(cycle) = &found {
            prop_assert!(!cycle.is_empty());
            let edge_set: HashSet<(TxnId, TxnId)> = edges.iter().copied().collect();
            for i in 0..cycle.len() {
                let from = cycle[i];
                let to = cycle[(i + 1) % cycle.len()];
                prop_assert!(
                    edge_set.contains(&(from, to)),
                    "reported cycle edge {}->{} is not in the graph",
                    from,
                    to
                );
            }
            prop_assert_eq!(&find_cycle(&edges).unwrap(), cycle, "detection must be deterministic");
        }
    }

    /// Deadlock detector soundness and completeness on random graphs:
    /// victims only come from the graph, and removing them leaves it
    /// acyclic.
    #[test]
    fn deadlock_resolution_leaves_acyclic_graph(
        edges in prop::collection::vec((0u64..15, 0u64..15), 0..60),
    ) {
        let edges: Vec<(TxnId, TxnId)> =
            edges.into_iter().map(|(a, b)| (TxnId(a), TxnId(b))).collect();
        let ts_of = |t: TxnId| Ts::new(t.0, t);
        let victims = resolve_deadlocks(&edges, ts_of);
        let nodes: HashSet<TxnId> = edges.iter().flat_map(|(a, b)| [*a, *b]).collect();
        for v in &victims {
            prop_assert!(nodes.contains(v), "victim {v} not in graph");
        }
        let victim_set: HashSet<TxnId> = victims.into_iter().collect();
        let remaining: Vec<(TxnId, TxnId)> = edges
            .iter()
            .filter(|(a, b)| !victim_set.contains(a) && !victim_set.contains(b))
            .copied()
            .collect();
        prop_assert_eq!(find_cycle(&remaining), None, "victims must break every cycle");
    }

    /// Wound-wait progress: with random conflicting requests, processing
    /// every wound by aborting the target always lets every transaction
    /// eventually finish — no deadlock, no infinite wounding.
    #[test]
    fn wound_wait_always_makes_progress(
        reqs in prop::collection::vec((0u64..10, 0u64..6, any::<bool>()), 1..80),
    ) {
        let mut m = make_manager(Algorithm::WoundWait);
        let mut blocked: HashSet<u64> = HashSet::new();
        let mut finished: HashSet<u64> = HashSet::new();
        let mut kill_list: Vec<u64> = Vec::new();
        for (txn, p, write) in &reqs {
            if finished.contains(txn) || blocked.contains(txn) {
                continue;
            }
            let resp = m.request_access(&meta(*txn), page(*p), *write);
            match resp.reply {
                AccessReply::Granted => {}
                AccessReply::Blocked => {
                    blocked.insert(*txn);
                }
                AccessReply::Rejected => unreachable!("WW never rejects the requester"),
            }
            kill_list.extend(resp.side_effects.must_abort.iter().map(|t| t.0));
            for (t, _) in resp.side_effects.granted {
                blocked.remove(&t.0);
            }
        }
        // Drain: abort wounded transactions, then commit unblocked ones,
        // until nothing is left. Progress must occur each round.
        let all: HashSet<u64> = reqs.iter().map(|(t, _, _)| *t).collect();
        let mut rounds = 0;
        let mut live: HashSet<u64> = all.clone();
        while !live.is_empty() {
            rounds += 1;
            prop_assert!(rounds < 1_000, "no progress: live={live:?} blocked={blocked:?}");
            // Kill one wounded transaction if any are pending.
            let target = kill_list.iter().copied().find(|t| live.contains(t));
            let rel = if let Some(t) = target {
                live.remove(&t);
                blocked.remove(&t);
                m.abort(TxnId(t))
            } else if let Some(&t) = live.iter().min() {
                if blocked.contains(&t) {
                    // Oldest blocked with nothing to kill: some other live
                    // transaction must be committable; commit the smallest
                    // unblocked one.
                    let runnable = live.iter().copied().find(|x| !blocked.contains(x));
                    match runnable {
                        Some(r) => {
                            live.remove(&r);
                            finished.insert(r);
                            m.commit(TxnId(r))
                        }
                        None => {
                            // Everyone blocked and nobody wounded — that
                            // would be a WW deadlock.
                            prop_assert!(false, "all live transactions blocked: {live:?}");
                            unreachable!()
                        }
                    }
                } else {
                    live.remove(&t);
                    finished.insert(t);
                    m.commit(TxnId(t))
                }
            } else {
                break;
            };
            kill_list.extend(rel.must_abort.iter().map(|t| t.0));
            for (t, _) in rel.granted {
                blocked.remove(&t.0);
            }
        }
    }

    /// Deadlock prevention: under wound-wait and wait-die, once every
    /// reported wound and rejection has been applied by aborting its target,
    /// every waits-for edge points younger → older (WW) or older → younger
    /// (WD), so no cycle can form. As in the simulator, a blocked
    /// transaction issues no request until it is granted or aborted.
    #[test]
    fn prevention_rules_orient_every_wait_edge(ops in prop::collection::vec(txn_op(), 1..120)) {
        for algo in [Algorithm::WoundWait, Algorithm::WaitDie] {
            let mut m = make_manager(algo);
            let mut blocked: HashSet<u64> = HashSet::new();
            let mut kills: Vec<u64> = Vec::new();
            let mut edges = Vec::new();
            for op in &ops {
                match *op {
                    TxnOp::Request { txn, page: p, write } => {
                        if blocked.contains(&txn) {
                            continue;
                        }
                        let resp = m.request_access(&meta(txn), page(p), write);
                        match resp.reply {
                            AccessReply::Granted => {}
                            AccessReply::Blocked => {
                                blocked.insert(txn);
                            }
                            AccessReply::Rejected => kills.push(txn),
                        }
                        note_release(&resp.side_effects, &mut blocked, &mut kills);
                    }
                    TxnOp::Commit { txn } => {
                        if blocked.contains(&txn) {
                            continue;
                        }
                        let rel = m.commit(TxnId(txn));
                        note_release(&rel, &mut blocked, &mut kills);
                    }
                    TxnOp::Abort { txn } => {
                        blocked.remove(&txn);
                        let rel = m.abort(TxnId(txn));
                        note_release(&rel, &mut blocked, &mut kills);
                    }
                }
                while let Some(t) = kills.pop() {
                    blocked.remove(&t);
                    let rel = m.abort(TxnId(t));
                    note_release(&rel, &mut blocked, &mut kills);
                }
                edges.clear();
                m.waits_for_edges_into(&mut edges);
                for &(waiter, blocker) in &edges {
                    let ok = match algo {
                        Algorithm::WoundWait => waiter.0 > blocker.0,
                        _ => waiter.0 < blocker.0,
                    };
                    prop_assert!(ok, "{}: edge {}->{} after {:?}", algo, waiter, blocker, op);
                }
            }
        }
    }

    /// BTO invariant: a read is never granted between a smaller-timestamped
    /// *pending* write's grant and its commit, and granted accesses always
    /// respect timestamp order against installed state.
    #[test]
    fn bto_grants_respect_timestamp_order(
        reqs in prop::collection::vec((1u64..40, 0u64..4, any::<bool>()), 1..100),
    ) {
        let mut m = make_manager(Algorithm::BasicTimestampOrdering);
        // Installed (committed) write ts and granted-read high-water mark,
        // maintained as a reference model. Every txn commits immediately
        // after its single access, so pending queues stay shallow.
        let mut wts: HashMap<u64, u64> = HashMap::new();
        let mut rts: HashMap<u64, u64> = HashMap::new();
        let mut used: HashSet<u64> = HashSet::new();
        for (ts, p, write) in reqs {
            if !used.insert(ts) {
                continue; // timestamps must be unique
            }
            let mt = TxnMeta {
                id: TxnId(ts),
                initial_ts: Ts::new(ts, TxnId(ts)),
                run_ts: Ts::new(ts, TxnId(ts)),
            };
            let resp = m.request_access(&mt, page(p), write);
            let w = wts.get(&p).copied().unwrap_or(0);
            let r = rts.get(&p).copied().unwrap_or(0);
            match resp.reply {
                AccessReply::Granted => {
                    m.commit(TxnId(ts));
                    if write {
                        prop_assert!(ts >= r, "granted write {ts} behind read ts {r}");
                        if ts > w {
                            wts.insert(p, ts);
                        }
                    } else {
                        prop_assert!(ts >= w, "granted read {ts} behind write ts {w}");
                        rts.insert(p, r.max(ts));
                    }
                }
                AccessReply::Rejected => {
                    prop_assert!(
                        (write && ts < r) || (!write && ts < w),
                        "rejection of {ts} (write={write}) unjustified: wts={w} rts={r}"
                    );
                    m.abort(TxnId(ts));
                }
                AccessReply::Blocked => {
                    // With immediate commits there are never pending writes.
                    prop_assert!(false, "no blocking possible when every txn commits instantly");
                }
            }
        }
    }

    /// OPT serializability guard: two transactions that read the same page
    /// version and both write it can never both certify.
    #[test]
    fn opt_never_certifies_conflicting_writers(seed in 1u64..500) {
        let mut m = make_manager(Algorithm::Optimistic);
        let p = page(seed % 4);
        let a = meta(seed * 2);
        let b = meta(seed * 2 + 1);
        m.request_access(&a, p, false);
        m.request_access(&b, p, false);
        m.request_access(&a, p, true);
        m.request_access(&b, p, true);
        let a_ok = m.certify(&a, Ts::new(1_000, a.id));
        if a_ok {
            m.commit(a.id);
        }
        let b_ok = m.certify(&b, Ts::new(1_001, b.id));
        prop_assert!(a_ok, "first certification has no competition");
        prop_assert!(!b_ok, "B read a version A replaced; certification must fail");
    }
}
