//! Distributed deadlock detection without CATOCS (§4.2, appendix 9.2).
//!
//! "To construct the global 'wait-for' graph it is sufficient to have
//! each node multicast its local wait-for graph to all nodes running the
//! detection algorithm. No stronger ordering properties are required. ...
//! only actual deadlocks are detected — no 'false' deadlocks."
//!
//! [`DeadlockMonitor`] is the receiving side: it merges per-node edge
//! reports (each carrying a plain per-node sequence number so FIFO
//! delivery per reporter suffices) and finds cycles exactly. Victim
//! selection is youngest-transaction-first.

use crate::lock::TxId;
use serde::{Deserialize, Serialize};
use statelevel::predicate::WaitForGraph;
use std::collections::BTreeMap;

/// One node's periodic wait-for report.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaitForReport {
    /// Reporting node.
    pub from: usize,
    /// Per-node report sequence number (conventional FIFO ordering —
    /// "a conventional sequence number or timestamp ensuring that
    /// multicasts sent by the each process are received in the order
    /// sent").
    pub seq: u64,
    /// The node's complete current local wait-for edges.
    pub edges: Vec<(TxId, TxId)>,
}

/// The monitor process's state.
#[derive(Debug, Default)]
pub struct DeadlockMonitor {
    /// Latest report sequence seen per node.
    latest_seq: BTreeMap<usize, u64>,
    /// Latest edge set per node (reports are complete, so replace).
    per_node: BTreeMap<usize, Vec<(TxId, TxId)>>,
}

impl DeadlockMonitor {
    /// An empty monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests a report; stale (out-of-date) reports are ignored, which
    /// is safe because each report is a complete snapshot of the node's
    /// local edges.
    pub fn ingest(&mut self, report: WaitForReport) {
        let latest = self.latest_seq.entry(report.from).or_insert(0);
        if report.seq <= *latest && *latest != 0 {
            return;
        }
        *latest = report.seq;
        self.per_node.insert(report.from, report.edges);
    }

    /// Builds the global graph and looks for a deadlock; returns the
    /// cycle and the chosen victim (youngest = highest TxId), if any.
    pub fn detect(&self) -> Option<(Vec<TxId>, TxId)> {
        let mut g: WaitForGraph<TxId> = WaitForGraph::new();
        for edges in self.per_node.values() {
            g.merge_edges(edges.iter().copied());
        }
        let cycle = g.find_cycle()?;
        let victim = *cycle.iter().max().expect("cycle non-empty");
        Some((cycle, victim))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(from: usize, seq: u64, edges: &[(u64, u64)]) -> WaitForReport {
        WaitForReport {
            from,
            seq,
            edges: edges.iter().map(|&(a, b)| (TxId(a), TxId(b))).collect(),
        }
    }

    #[test]
    fn cross_node_cycle_detected() {
        // Node 0 sees T1→T2; node 1 sees T2→T1.
        let mut m = DeadlockMonitor::new();
        m.ingest(report(0, 1, &[(1, 2)]));
        assert!(m.detect().is_none());
        m.ingest(report(1, 1, &[(2, 1)]));
        let (cycle, victim) = m.detect().expect("deadlock");
        assert_eq!(cycle.len(), 2);
        assert_eq!(victim, TxId(2), "youngest transaction is the victim");
    }

    #[test]
    fn report_order_is_irrelevant() {
        // The paper's point: edges may arrive in any order across nodes.
        let mut a = DeadlockMonitor::new();
        a.ingest(report(0, 1, &[(1, 2)]));
        a.ingest(report(1, 1, &[(2, 3)]));
        a.ingest(report(2, 1, &[(3, 1)]));
        let mut b = DeadlockMonitor::new();
        b.ingest(report(2, 1, &[(3, 1)]));
        b.ingest(report(0, 1, &[(1, 2)]));
        b.ingest(report(1, 1, &[(2, 3)]));
        let ca = a.detect().unwrap();
        let cb = b.detect().unwrap();
        assert_eq!(ca.1, cb.1, "same victim regardless of arrival order");
    }

    #[test]
    fn resolved_waits_clear_on_fresh_report() {
        let mut m = DeadlockMonitor::new();
        m.ingest(report(0, 1, &[(1, 2)]));
        m.ingest(report(1, 1, &[(2, 1)]));
        assert!(m.detect().is_some());
        // Node 1's next report shows T2 no longer waiting.
        m.ingest(report(1, 2, &[]));
        assert!(m.detect().is_none(), "deadlock cleared by fresh snapshot");
    }

    #[test]
    fn stale_reports_ignored() {
        let mut m = DeadlockMonitor::new();
        m.ingest(report(0, 5, &[]));
        m.ingest(report(0, 3, &[(1, 2)])); // stale: must not resurrect edges
        assert!(m.per_node.values().all(Vec::is_empty));
    }

    #[test]
    fn no_false_deadlocks_from_unrelated_edges() {
        let mut m = DeadlockMonitor::new();
        m.ingest(report(0, 1, &[(1, 2), (3, 4)]));
        m.ingest(report(1, 1, &[(2, 5), (4, 6)]));
        assert!(m.detect().is_none());
    }
}
