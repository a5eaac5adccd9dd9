//! T5 — §5: buffering and active-causal-graph growth with group size.
//!
//! All-to-all cbcast chatter at a fixed per-process rate, on a disk
//! topology whose diameter grows with sqrt(N) (the paper's model). For
//! each N we measure, per node: peak unstable-buffer occupancy (messages
//! and bytes), the active causal graph's peak node and arc counts, the
//! mean arcs per message, and the `N×N` delivery-knowledge state.
//!
//! The paper predicts: arcs per message ~ Θ(N) (so total arcs quadratic),
//! per-node buffering growing with system scale, and the system-wide
//! buffer product growing ~quadratically.

use crate::table::Table;
use catocs::causal_graph::CausalGraph;
use catocs::endpoint::Discipline;
use catocs::group::GroupConfig;
use catocs::harness::{spawn_group, Chatter, GroupNode};
use catocs::wire::Wire;
use clocks::matrix::MatrixClock;
use simnet::net::{LatencyModel, NetConfig};
use simnet::sim::SimBuilder;
use simnet::time::{SimDuration, SimTime};
use simnet::topology::Topology;
use std::cell::RefCell;
use std::rc::Rc;

/// Messages each member multicasts.
const MSGS_PER_PROC: u32 = 30;

/// One measured row.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Group size.
    pub n: usize,
    /// Mean per-node peak buffered messages.
    pub buf_peak_mean: f64,
    /// Max per-node peak buffered messages.
    pub buf_peak_max: u64,
    /// Mean per-node peak buffered bytes.
    pub buf_bytes_mean: f64,
    /// Peak active-graph nodes.
    pub graph_nodes_peak: usize,
    /// Peak active-graph arcs.
    pub graph_arcs_peak: usize,
    /// Mean arcs per message.
    pub arcs_per_msg: f64,
    /// Per-node delivery-knowledge state, bytes (the N×N matrix).
    pub knowledge_bytes: usize,
}

/// Measures one group size.
pub fn measure(seed: u64, n: usize) -> ScalePoint {
    let net = NetConfig {
        latency: LatencyModel::Spatial {
            per_unit: SimDuration::from_millis(1),
            jitter: SimDuration::from_micros(400),
        },
        topology: Topology::UniformDisk { n },
        drop_probability: 0.02,
        ..NetConfig::default()
    };
    let mut sim = SimBuilder::new(seed).net(net).build::<Wire<u32>>();
    let graph = Rc::new(RefCell::new(CausalGraph::new()));
    let members = spawn_group(
        &mut sim,
        n,
        Discipline::Causal,
        GroupConfig::default(),
        Some(SimDuration::from_millis(10)),
        |_| Chatter {
            remaining: MSGS_PER_PROC,
            burst: 1,
        },
    );
    for &m in &members {
        let node = sim.process_mut::<GroupNode<u32, Chatter>>(m).expect("node");
        node.keep_log = false;
        node.graph = Some(graph.clone());
    }
    sim.run_until(SimTime::from_secs(20));

    let mut peaks = Vec::new();
    let mut byte_peaks = Vec::new();
    for &m in &members {
        let node = sim.process::<GroupNode<u32, Chatter>>(m).expect("node");
        peaks.push(node.transport_stats().buffered_peak);
        byte_peaks.push(node.transport_stats().buffered_bytes_peak);
    }
    let g = graph.borrow();
    ScalePoint {
        n,
        buf_peak_mean: peaks.iter().sum::<u64>() as f64 / n as f64,
        buf_peak_max: peaks.iter().copied().max().unwrap_or(0),
        buf_bytes_mean: byte_peaks.iter().sum::<u64>() as f64 / n as f64,
        graph_nodes_peak: g.peak_nodes(),
        graph_arcs_peak: g.peak_arcs(),
        arcs_per_msg: g.mean_arcs_per_node(),
        knowledge_bytes: MatrixClock::new(n).encoded_len(),
    }
}

/// Runs the sweep over the given group sizes.
pub fn run(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        format!(
            "T5 — §5 scalability: buffering & active causal graph \
             ({MSGS_PER_PROC} msgs/proc, disk topology, 2% loss)"
        ),
        &[
            "N",
            "buf peak (mean msgs/node)",
            "buf peak (max)",
            "buf bytes (mean/node)",
            "graph nodes peak",
            "graph arcs peak",
            "arcs/msg",
            "knowledge bytes/node",
        ],
    );
    for &n in sizes {
        let p = measure(42, n);
        t.row(vec![
            p.n.into(),
            p.buf_peak_mean.into(),
            p.buf_peak_max.into(),
            p.buf_bytes_mean.into(),
            p.graph_nodes_peak.into(),
            p.graph_arcs_peak.into(),
            p.arcs_per_msg.into(),
            p.knowledge_bytes.into(),
        ]);
    }
    t.note("paper: arcs/msg ~ Θ(N); per-node buffering grows with scale;");
    t.note("system-wide buffering (N × per-node) therefore grows ~quadratically.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arcs_per_message_grow_with_n() {
        let small = measure(1, 4);
        let large = measure(1, 16);
        assert!(
            large.arcs_per_msg > 2.0 * small.arcs_per_msg,
            "arcs/msg {} -> {}",
            small.arcs_per_msg,
            large.arcs_per_msg
        );
    }

    #[test]
    fn per_node_buffering_grows_with_n() {
        let small = measure(1, 4);
        let large = measure(1, 24);
        assert!(
            large.buf_peak_mean > small.buf_peak_mean,
            "buffering {} -> {}",
            small.buf_peak_mean,
            large.buf_peak_mean
        );
    }

    #[test]
    fn knowledge_state_quadratic() {
        let a = measure(1, 4).knowledge_bytes;
        let b = measure(1, 8).knowledge_bytes;
        assert!(b > 3 * a);
    }

    #[test]
    fn table_has_all_rows() {
        let t = run(&[4, 8]);
        assert_eq!(t.rows.len(), 2);
    }
}
