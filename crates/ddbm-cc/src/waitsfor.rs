//! Waits-for graph analysis: cycle detection and victim selection.
//!
//! Used for 2PL's local detection (run whenever a cohort blocks, over the
//! node's own edges) and for global detection (run by the current "Snoop"
//! node over the union of all nodes' edges). Deadlocks are resolved by
//! aborting the transaction with the most recent initial startup time among
//! those in the cycle (paper §2.2).

use crate::common::Ts;
use ddbm_config::TxnId;
use std::cell::RefCell;

/// Reusable working storage for [`find_cycle`]. Local detection runs on
/// every cohort block, so the analysis must not allocate in steady state;
/// all intermediate structures live here and are recycled through a
/// thread-local. Contents never survive a call (everything is rebuilt from
/// the edge list each time), so recycling cannot affect results and the
/// simulation stays deterministic regardless of which thread runs it.
#[derive(Default)]
struct Scratch {
    /// Sorted, deduplicated node ids; position = compressed index.
    nodes: Vec<TxnId>,
    /// Index-compressed edges, sorted by (from, to) and deduplicated.
    packed: Vec<(u32, u32)>,
    /// CSR row offsets: node i's successors are `heads[row_start[i]..row_start[i + 1]]`.
    row_start: Vec<u32>,
    /// CSR successor array, ascending within each row.
    heads: Vec<u32>,
    /// In-degrees for Kahn peeling.
    indegree: Vec<u32>,
    /// Kahn work stack of in-degree-zero nodes.
    ready: Vec<u32>,
    /// DFS colors (white/grey/black).
    color: Vec<u8>,
    /// DFS stack of (node, next successor offset).
    stack: Vec<(u32, u32)>,
    /// Grey path for cycle extraction.
    path: Vec<u32>,
}

/// Edges whose scratch a thread keeps between calls. Waits-for graphs and
/// the oracle's serialization-graph spans have a few hundred edges at most
/// (445 over the benchmark's contended and verify cells); a call with far
/// more gives its scratch back when it returns, so one large graph does not
/// pin its buffers for the rest of the thread's life.
const KEEP_EDGES: usize = 1 << 10;

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

impl Scratch {
    /// Shrink every buffer to what a graph of [`KEEP_EDGES`] edges needs.
    fn give_back(&mut self) {
        let nodes = 2 * KEEP_EDGES;
        self.nodes.clear();
        self.nodes.shrink_to(nodes);
        self.packed.clear();
        self.packed.shrink_to(KEEP_EDGES);
        self.row_start.clear();
        self.row_start.shrink_to(nodes + 1);
        self.heads.clear();
        self.heads.shrink_to(KEEP_EDGES);
        for v in [&mut self.indegree, &mut self.ready, &mut self.path] {
            v.clear();
            v.shrink_to(nodes);
        }
        self.color.clear();
        self.color.shrink_to(nodes);
        self.stack.clear();
        self.stack.shrink_to(nodes);
    }
}

/// Find one cycle in the directed graph given by `edges`, if any, returning
/// its member transactions. Detection is deterministic: nodes are explored
/// in sorted order.
///
/// The graph is acyclic in the overwhelming majority of calls, so the
/// no-cycle answer has to be cheap: transaction ids are index-compressed,
/// the graph is stored in CSR form (flat vectors, no hashing), and
/// acyclicity is decided by Kahn peeling, which touches each edge once.
/// Only when a cycle provably exists does the deterministic DFS run to
/// extract its members — and the DFS visits nodes in sorted-id order with
/// sorted, deduplicated successor lists, exactly like the original hash-map
/// implementation, so the cycle (and thus the victim) reported for any
/// given graph is unchanged.
pub fn find_cycle(edges: &[(TxnId, TxnId)]) -> Option<Vec<TxnId>> {
    if edges.is_empty() {
        return None;
    }
    SCRATCH.with(|cell| {
        let mut s = cell.borrow_mut();
        let cycle = find_cycle_in(&mut s, edges);
        if edges.len() > KEEP_EDGES {
            s.give_back();
        }
        cycle
    })
}

fn find_cycle_in(s: &mut Scratch, edges: &[(TxnId, TxnId)]) -> Option<Vec<TxnId>> {
    // Index-compress: `nodes` is sorted, so index order == sorted-id order.
    s.nodes.clear();
    for (from, to) in edges {
        s.nodes.push(*from);
        s.nodes.push(*to);
    }
    s.nodes.sort_unstable();
    s.nodes.dedup();
    let nodes = &s.nodes;
    let n = nodes.len();
    let index_of = |t: TxnId| nodes.binary_search(&t).expect("node was inserted") as u32;

    // CSR adjacency: sorting the compressed edge list by (from, to) groups
    // each node's successors contiguously and in ascending order; dedup
    // collapses parallel edges.
    s.packed.clear();
    s.packed.extend(
        edges
            .iter()
            .map(|(from, to)| (index_of(*from), index_of(*to))),
    );
    s.packed.sort_unstable();
    s.packed.dedup();
    s.row_start.clear();
    s.row_start.resize(n + 1, 0);
    for &(from, _) in &s.packed {
        s.row_start[from as usize + 1] += 1;
    }
    for i in 0..n {
        s.row_start[i + 1] += s.row_start[i];
    }
    s.heads.clear();
    s.heads.extend(s.packed.iter().map(|&(_, to)| to));
    let row_start = &s.row_start;
    let heads = &s.heads;
    let succs = |u: u32| &heads[row_start[u as usize] as usize..row_start[u as usize + 1] as usize];

    // Fast path: Kahn peeling. If every node can be removed once its
    // in-degree drains to zero, the graph is acyclic and there is nothing
    // to extract.
    s.indegree.clear();
    s.indegree.resize(n, 0);
    for &to in heads {
        s.indegree[to as usize] += 1;
    }
    s.ready.clear();
    s.ready
        .extend((0..n as u32).filter(|&u| s.indegree[u as usize] == 0));
    let mut removed = 0usize;
    while let Some(u) = s.ready.pop() {
        removed += 1;
        for &v in succs(u) {
            s.indegree[v as usize] -= 1;
            if s.indegree[v as usize] == 0 {
                s.ready.push(v);
            }
        }
    }
    if removed == n {
        return None;
    }

    // Iterative DFS keeping the grey path so the cycle can be extracted.
    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    s.color.clear();
    s.color.resize(n, WHITE);
    for start in 0..n as u32 {
        if s.color[start as usize] != WHITE {
            continue;
        }
        s.stack.clear();
        s.stack.push((start, 0));
        s.path.clear();
        s.path.push(start);
        s.color[start as usize] = GREY;
        while let Some((node, idx)) = s.stack.last_mut() {
            let node = *node;
            let row = succs(node);
            if (*idx as usize) < row.len() {
                let next = row[*idx as usize];
                *idx += 1;
                match s.color[next as usize] {
                    GREY => {
                        // Found a cycle: the path suffix from `next` onward.
                        let pos = s
                            .path
                            .iter()
                            .position(|u| *u == next)
                            .expect("grey on path");
                        return Some(s.path[pos..].iter().map(|&u| nodes[u as usize]).collect());
                    }
                    WHITE => {
                        s.color[next as usize] = GREY;
                        s.stack.push((next, 0));
                        s.path.push(next);
                    }
                    _ => {}
                }
            } else {
                s.color[node as usize] = BLACK;
                s.stack.pop();
                s.path.pop();
            }
        }
    }
    unreachable!("Kahn peeling found a cycle the DFS failed to extract")
}

/// Repeatedly find cycles and select victims until the graph is acyclic.
/// The victim of each cycle is the youngest member (largest `initial_ts`).
/// Returns the victims in selection order.
pub fn resolve_deadlocks(edges: &[(TxnId, TxnId)], ts_of: impl Fn(TxnId) -> Ts) -> Vec<TxnId> {
    // The first detection runs on the borrowed slice so the common acyclic
    // case copies nothing; the working copy is only made once a victim has
    // to be carved out.
    let Some(first) = find_cycle(edges) else {
        return Vec::new();
    };
    let mut remaining: Vec<(TxnId, TxnId)> = edges.to_vec();
    let mut victims = Vec::new();
    let mut cycle = Some(first);
    while let Some(members) = cycle {
        let victim = *members
            .iter()
            .max_by_key(|t| (ts_of(**t), **t))
            .expect("cycle is non-empty");
        victims.push(victim);
        remaining.retain(|(a, b)| *a != victim && *b != victim);
        cycle = find_cycle(&remaining);
    }
    victims
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(order: u64) -> Ts {
        Ts {
            time: order,
            txn: 0,
        }
    }

    #[test]
    fn no_cycle_in_dag() {
        let edges = vec![
            (TxnId(1), TxnId(2)),
            (TxnId(2), TxnId(3)),
            (TxnId(1), TxnId(3)),
        ];
        assert_eq!(find_cycle(&edges), None);
        assert!(resolve_deadlocks(&edges, |_| ts(0)).is_empty());
    }

    #[test]
    fn simple_two_cycle() {
        let edges = vec![(TxnId(1), TxnId(2)), (TxnId(2), TxnId(1))];
        let cycle = find_cycle(&edges).unwrap();
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&TxnId(1)) && cycle.contains(&TxnId(2)));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        // Should never arise from the lock table, but the detector must not
        // loop forever if it does.
        let edges = vec![(TxnId(1), TxnId(1))];
        assert_eq!(find_cycle(&edges), Some(vec![TxnId(1)]));
    }

    #[test]
    fn victim_is_youngest_in_cycle() {
        let edges = vec![
            (TxnId(1), TxnId(2)),
            (TxnId(2), TxnId(3)),
            (TxnId(3), TxnId(1)),
        ];
        // T2 started most recently.
        let ts_of = |t: TxnId| match t {
            TxnId(1) => ts(10),
            TxnId(2) => ts(30),
            _ => ts(20),
        };
        assert_eq!(resolve_deadlocks(&edges, ts_of), vec![TxnId(2)]);
    }

    #[test]
    fn multiple_disjoint_cycles_all_resolved() {
        let edges = vec![
            (TxnId(1), TxnId(2)),
            (TxnId(2), TxnId(1)),
            (TxnId(3), TxnId(4)),
            (TxnId(4), TxnId(3)),
        ];
        let victims = resolve_deadlocks(&edges, |t| ts(t.0));
        assert_eq!(victims.len(), 2);
        assert!(victims.contains(&TxnId(2)));
        assert!(victims.contains(&TxnId(4)));
    }

    #[test]
    fn overlapping_cycles_may_share_a_victim() {
        // 1→2→1 and 2→3→2 share T2 (youngest everywhere): one abort clears both.
        let edges = vec![
            (TxnId(1), TxnId(2)),
            (TxnId(2), TxnId(1)),
            (TxnId(2), TxnId(3)),
            (TxnId(3), TxnId(2)),
        ];
        let ts_of = |t: TxnId| if t == TxnId(2) { ts(99) } else { ts(t.0) };
        assert_eq!(resolve_deadlocks(&edges, ts_of), vec![TxnId(2)]);
    }

    #[test]
    fn long_cycle_detected() {
        let n = 50u64;
        let mut edges: Vec<(TxnId, TxnId)> =
            (0..n).map(|i| (TxnId(i), TxnId((i + 1) % n))).collect();
        // Plus some acyclic noise.
        edges.push((TxnId(100), TxnId(3)));
        edges.push((TxnId(101), TxnId(100)));
        let cycle = find_cycle(&edges).unwrap();
        assert_eq!(cycle.len(), n as usize);
        let victims = resolve_deadlocks(&edges, |t| ts(t.0));
        assert_eq!(victims, vec![TxnId(n - 1)]);
    }

    /// Bytes the thread's scratch holds.
    fn scratch_bytes() -> usize {
        SCRATCH.with(|cell| {
            let s = cell.borrow();
            s.nodes.capacity() * 8
                + s.packed.capacity() * 8
                + (s.row_start.capacity() + s.heads.capacity()) * 4
                + (s.indegree.capacity() + s.ready.capacity() + s.path.capacity()) * 4
                + s.color.capacity()
                + s.stack.capacity() * 8
        })
    }

    #[test]
    fn a_large_graph_gives_its_scratch_back() {
        // A long cycle of 100,000 edges, then a small graph.
        let n = 100_000u64;
        let big: Vec<(TxnId, TxnId)> = (0..n).map(|i| (TxnId(i), TxnId((i + 1) % n))).collect();
        assert_eq!(find_cycle(&big).map(|c| c.len()), Some(n as usize));
        let small = [(TxnId(1), TxnId(2)), (TxnId(2), TxnId(1))];
        assert_eq!(find_cycle(&small).map(|c| c.len()), Some(2));
        // What a graph of `KEEP_EDGES` edges needs, not what the large one did.
        let kept = scratch_bytes();
        assert!(kept <= 100 * KEEP_EDGES, "{kept} B kept");
        // A graph of the usual size keeps its buffers between calls.
        let usual: Vec<(TxnId, TxnId)> = (0..KEEP_EDGES as u64)
            .map(|i| (TxnId(i), TxnId(i + 1)))
            .collect();
        assert_eq!(find_cycle(&usual), None);
        let before = scratch_bytes();
        assert_eq!(find_cycle(&usual), None);
        assert_eq!(scratch_bytes(), before);
    }

    #[test]
    fn deterministic_across_edge_order() {
        let mut edges = vec![
            (TxnId(3), TxnId(1)),
            (TxnId(1), TxnId(2)),
            (TxnId(2), TxnId(3)),
        ];
        let v1 = resolve_deadlocks(&edges, |t| ts(t.0));
        edges.reverse();
        let v2 = resolve_deadlocks(&edges, |t| ts(t.0));
        assert_eq!(v1, v2);
    }
}
