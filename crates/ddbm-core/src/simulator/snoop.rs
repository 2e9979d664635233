//! Global deadlock detection for 2PL: the Snoop (paper §2.2). The Snoop
//! role rotates round-robin over the processing nodes; each round, the
//! current Snoop gathers every node's waits-for edges, aborts the youngest
//! member of every cycle in their union, and passes the role on.

use super::Simulator;
use crate::protocol::{AbortCause, Event, MsgKind, RunId};
use ddbm_cc::{resolve_deadlocks, Ts};
use ddbm_config::{Algorithm, NodeId, TxnId};
use denet::SimTime;

/// State of the rotating global deadlock detector (2PL only).
pub(super) struct SnoopState {
    /// The node currently holding the Snoop role.
    current: NodeId,
    /// Monotone round counter; stale wake-ups and replies are discarded.
    round: u64,
    /// Replies still expected in the current gather.
    awaiting: usize,
    /// Edges gathered so far this round.
    edges: Vec<(TxnId, TxnId)>,
}

impl SnoopState {
    /// The detector for `algorithm`: 2PL only, with the role at node `S1`.
    pub(super) fn for_algorithm(algorithm: Algorithm) -> Option<SnoopState> {
        (algorithm == Algorithm::TwoPhaseLocking).then(|| SnoopState {
            current: NodeId(1),
            round: 0,
            awaiting: 0,
            edges: Vec::new(),
        })
    }
}

impl Simulator {
    /// Wake the Snoop at `node` for `round` one detection interval from now.
    pub(super) fn schedule_snoop_wake(&mut self, node: NodeId, round: u64) {
        self.calendar.schedule_after(
            self.config.system.detection_interval,
            Event::SnoopWake { node, round },
        );
    }

    /// Crashes invalidate the deadlock detector's state: a gather in flight
    /// may be waiting on a reply that will never come, and the Snoop role
    /// itself may sit on a dead node. Restart the round from a live node.
    pub(super) fn restart_snoop(&mut self) {
        let Some(snoop) = &self.snoop else { return };
        let cur = snoop.current;
        let cur_down = !self.nodes[cur.0].up;
        if !cur_down && snoop.awaiting == 0 {
            return; // detector idle on a live node: nothing to repair
        }
        let next = if cur_down {
            (1..self.nodes.len())
                .map(NodeId)
                .find(|n| self.nodes[n.0].up)
        } else {
            Some(cur)
        };
        let Some(next) = next else {
            return; // every processing node is down; on_node_up retries
        };
        let snoop = self.snoop.as_mut().expect("checked above");
        snoop.round += 1; // invalidates stale wake-ups and replies
        snoop.current = next;
        snoop.awaiting = 0;
        snoop.edges.clear();
        let round = snoop.round;
        self.schedule_snoop_wake(next, round);
    }

    pub(super) fn snoop_wake(&mut self, now: SimTime, node: NodeId, round: u64) {
        let Some(snoop) = &mut self.snoop else {
            return;
        };
        if snoop.round != round || snoop.current != node {
            return; // stale wake-up
        }
        if !self.nodes[node.0].up {
            return; // the crash handler already moved the role elsewhere
        }
        snoop.edges.clear();
        self.nodes[node.0].cc.waits_for_edges_into(&mut snoop.edges);
        // Every *live* processing node except the Snoop itself; crashed nodes
        // have no lock tables to report (and could not answer anyway).
        let others = (1..self.nodes.len())
            .map(NodeId)
            .filter(|n| *n != node && self.nodes[n.0].up)
            .count();
        if others == 0 {
            self.finish_detection(now, node);
            return;
        }
        self.snoop.as_mut().expect("snoop exists").awaiting = others;
        for i in 1..self.nodes.len() {
            let other = NodeId(i);
            if other != node && self.nodes[i].up {
                self.send(now, node, other, MsgKind::SnoopRequest { round });
            }
        }
    }

    /// A node answers the Snoop at `from` with its local waits-for edges.
    pub(super) fn on_snoop_request(
        &mut self,
        now: SimTime,
        node: NodeId,
        from: NodeId,
        round: u64,
    ) {
        let mut edges = self.edge_pool.take();
        self.nodes[node.0].cc.waits_for_edges_into(&mut edges);
        self.send(now, node, from, MsgKind::SnoopReply { round, edges });
    }

    pub(super) fn on_snoop_reply(
        &mut self,
        now: SimTime,
        node: NodeId,
        round: u64,
        mut edges: Vec<(TxnId, TxnId)>,
    ) {
        let mut finish = false;
        if let Some(snoop) = &mut self.snoop {
            if snoop.round == round && snoop.current == node && snoop.awaiting > 0 {
                snoop.edges.append(&mut edges);
                snoop.awaiting -= 1;
                finish = snoop.awaiting == 0;
            }
        }
        self.edge_pool.put(edges);
        if finish {
            self.finish_detection(now, node);
        }
    }

    /// The Snoop role arrives at `node`: wake it after one interval.
    pub(super) fn on_snoop_pass(&mut self, node: NodeId) {
        let Some(snoop) = &self.snoop else { return };
        let round = snoop.round;
        self.schedule_snoop_wake(node, round);
    }

    /// Union the gathered edges, abort the youngest member of every cycle,
    /// and pass the Snoop role to the next node.
    fn finish_detection(&mut self, now: SimTime, node: NodeId) {
        let snoop = self.snoop.as_mut().expect("2PL only");
        let mut edges = std::mem::take(&mut snoop.edges);
        // Edges naming transactions that finished while the gather was in
        // flight are stale; drop them.
        edges.retain(|(a, b)| self.txns.contains(*a) && self.txns.contains(*b));
        let txns = &self.txns;
        let victims = resolve_deadlocks(&edges, |t| {
            txns.get(t)
                .map(|rt| rt.meta().initial_ts)
                .unwrap_or(Ts::ZERO)
        });
        let requests: Vec<(TxnId, RunId)> = victims
            .into_iter()
            .filter_map(|v| self.txns.get(v).map(|t| (v, t.run)))
            .collect();
        for (victim, run) in requests {
            self.request_abort(now, node, victim, run, AbortCause::Deadlock);
        }
        // Pass the role round-robin over the processing nodes, skipping ones
        // that are currently crashed (the cycle lands back on this node — a
        // live one, or finish_detection could not be running — at worst).
        let mut next = NodeId(node.0 % (self.nodes.len() - 1) + 1);
        while !self.nodes[next.0].up {
            next = NodeId(next.0 % (self.nodes.len() - 1) + 1);
        }
        let snoop = self.snoop.as_mut().expect("2PL only");
        snoop.round += 1;
        snoop.current = next;
        // Hand the gather buffer (with its capacity) back for the next
        // round; `std::mem::take` above left an empty placeholder.
        edges.clear();
        snoop.edges = edges;
        if next == node {
            // Single processing node: keep the role, schedule the next wake.
            let round = snoop.round;
            self.schedule_snoop_wake(node, round);
        } else {
            self.send(now, node, next, MsgKind::SnoopPass);
        }
    }
}
