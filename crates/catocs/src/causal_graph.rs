//! The "active causal graph" of the paper's §5, measured live.
//!
//! > "The causal order of messages in a system can be represented as a
//! > directed acyclic graph with nodes as messages and an arc between two
//! > nodes represents messages that are potentially causally related. The
//! > active causal graph is the subgraph that results from deleting nodes
//! > corresponding to 'stable' messages and their incidental arcs."
//!
//! Experiment T5 feeds this structure from a live cbcast run: every send
//! adds a node plus arcs from the sender's current causal frontier (the
//! latest message from each member visible in the new message's
//! timestamp); stability advances prune nodes. The paper predicts the
//! node count grows ~linearly in N (for fixed per-process rate and a
//! diameter growing with N) and the arc count quadratically.

use crate::group::MsgId;
use clocks::vector::VectorClock;
use std::collections::{BTreeMap, BTreeSet};

/// A live model of the active causal graph for one group.
#[derive(Debug, Default)]
pub struct CausalGraph {
    /// Unstable messages currently in the graph, with their direct
    /// predecessor arcs.
    nodes: BTreeMap<MsgId, BTreeSet<MsgId>>,
    /// Cumulative counters.
    total_nodes_added: u64,
    total_arcs_added: u64,
    /// High-water marks.
    peak_nodes: usize,
    peak_arcs: usize,
    /// Current arc count (sum of predecessor sets).
    current_arcs: usize,
}

impl CausalGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a multicast: message `id` stamped with `vt` from a group
    /// of `n`. Arcs are drawn from the latest message of every member
    /// visible in the timestamp — the direct potential-causality
    /// predecessors.
    pub(crate) fn on_send(&mut self, id: MsgId, vt: &VectorClock, n: usize) {
        let mut preds = BTreeSet::new();
        for k in 0..n {
            let seq = if k == id.sender {
                id.seq.saturating_sub(1)
            } else {
                vt.get(k)
            };
            if seq > 0 {
                preds.insert(MsgId { sender: k, seq });
            }
        }
        self.total_nodes_added += 1;
        self.total_arcs_added += preds.len() as u64;
        self.current_arcs += preds.len();
        self.nodes.insert(id, preds);
        self.peak_nodes = self.peak_nodes.max(self.nodes.len());
        self.peak_arcs = self.peak_arcs.max(self.current_arcs);
    }

    /// Prunes every message at or below the stability `frontier`
    /// (component `s` = highest stable seq from sender `s`).
    pub(crate) fn prune_stable(&mut self, frontier: &VectorClock) {
        let removed: Vec<MsgId> = self
            .nodes
            .keys()
            .filter(|id| id.seq <= frontier.get(id.sender))
            .copied()
            .collect();
        for id in removed {
            if let Some(preds) = self.nodes.remove(&id) {
                self.current_arcs -= preds.len();
            }
        }
    }

    /// Peak node count over the run.
    pub fn peak_nodes(&self) -> usize {
        self.peak_nodes
    }

    /// Peak arc count over the run.
    pub fn peak_arcs(&self) -> usize {
        self.peak_arcs
    }

    /// Mean arcs per message over the run — the paper argues this is
    /// Θ(N) under all-to-all traffic.
    pub fn mean_arcs_per_node(&self) -> f64 {
        if self.total_nodes_added == 0 {
            0.0
        } else {
            self.total_arcs_added as f64 / self.total_nodes_added as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(sender: usize, seq: u64) -> MsgId {
        MsgId { sender, seq }
    }

    #[test]
    fn first_message_has_no_arcs() {
        let mut g = CausalGraph::new();
        let mut vt = VectorClock::new(3);
        vt.tick(0);
        g.on_send(id(0, 1), &vt, 3);
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.current_arcs, 0);
    }

    #[test]
    fn arcs_from_causal_frontier() {
        let mut g = CausalGraph::new();
        // P0 sends m0.1; P1 (having delivered m0.1) sends m1.1.
        let mut vt0 = VectorClock::new(3);
        vt0.tick(0);
        g.on_send(id(0, 1), &vt0, 3);
        let mut vt1 = VectorClock::new(3);
        vt1.set(0, 1);
        vt1.tick(1);
        g.on_send(id(1, 1), &vt1, 3);
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.current_arcs, 1); // m1.1 → m0.1
        assert_eq!(g.total_arcs_added, 1);
    }

    #[test]
    fn multicast_after_receiving_many_adds_many_arcs() {
        // The §5 observation: "a process that multicasts a new message to
        // the group after receiving a message introduces N new arcs".
        let n = 8;
        let mut g = CausalGraph::new();
        let mut vt = VectorClock::new(n);
        for k in 0..n {
            vt.set(k, 1); // delivered one message from everyone
            g.on_send(id(k, 1), &VectorClock::new(n), n);
        }
        vt.tick(0); // but P0 already has seq 1... use a fresh sender slot
        let mut sender_vt = vt.clone();
        sender_vt.set(0, 2);
        g.on_send(id(0, 2), &sender_vt, n);
        // Arcs to the latest message from all 8 members (own previous
        // included).
        assert_eq!(g.current_arcs, 8);
    }

    #[test]
    fn prune_stable_removes_nodes_and_arcs() {
        let mut g = CausalGraph::new();
        let mut vt0 = VectorClock::new(2);
        vt0.tick(0);
        g.on_send(id(0, 1), &vt0, 2);
        let mut vt1 = VectorClock::new(2);
        vt1.set(0, 1);
        vt1.tick(1);
        g.on_send(id(1, 1), &vt1, 2);
        assert_eq!(g.nodes.len(), 2);
        // m0.1 becomes stable.
        let frontier = VectorClock::from_entries(vec![1, 0]);
        g.prune_stable(&frontier);
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.current_arcs, 1, "arc from the surviving node remains");
        assert_eq!(g.peak_nodes(), 2);
    }

    #[test]
    fn mean_arcs_tracks_totals() {
        let mut g = CausalGraph::new();
        assert_eq!(g.mean_arcs_per_node(), 0.0);
        let mut vt = VectorClock::new(2);
        vt.tick(0);
        g.on_send(id(0, 1), &vt, 2);
        let mut vt2 = vt.clone();
        vt2.set(0, 2);
        g.on_send(id(0, 2), &vt2, 2);
        // Second message has one arc (to m0.1).
        assert_eq!(g.total_nodes_added, 2);
        assert_eq!(g.mean_arcs_per_node(), 0.5);
    }
}
