//! Process groups, views, message identities and protocol configuration.

use serde::{Deserialize, Serialize};
use simnet::process::ProcessId;
use simnet::time::SimDuration;
use std::fmt;

/// Identifies one multicast within a group: the `seq`-th message sent by
/// group member `sender` (member index, not `ProcessId`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MsgId {
    /// Member index of the sender within the group.
    pub sender: usize,
    /// 1-based per-sender sequence number (equals the sender's vector
    /// clock component at send time for cbcast).
    pub seq: u64,
}

impl fmt::Debug for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}.{}", self.sender, self.seq)
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}.{}", self.sender, self.seq)
    }
}

/// Identifies an installed membership view.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default, Debug,
)]
pub struct ViewId(pub u64);

/// A membership view: the agreed set of group members.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct View {
    /// Monotonically increasing view identifier.
    pub id: ViewId,
    /// Simulator process ids of the members, indexed by member index.
    pub members: Vec<ProcessId>,
}

impl View {
    /// The initial view over the given processes.
    pub(crate) fn initial(members: Vec<ProcessId>) -> Self {
        View {
            id: ViewId(1),
            members,
        }
    }

    /// Whether the view has no members.
    pub(crate) fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The successor view with `removed` excluded.
    pub(crate) fn without(&self, removed: &[ProcessId]) -> View {
        View {
            id: ViewId(self.id.0 + 1),
            members: self
                .members
                .iter()
                .copied()
                .filter(|m| !removed.contains(m))
                .collect(),
        }
    }
}

/// Which causal-delivery algorithm a causal group runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CausalDiscipline {
    /// ISIS-style cbcast: every data message carries an N-wide vector
    /// timestamp and receivers hold back until the deliverability test
    /// passes (§3.4's linear-in-N metadata).
    #[default]
    Cbcast,
    /// PC-broadcast-style constant-metadata causal broadcast: data
    /// messages carry only a constant-size `(epoch, link, seq)` tag and
    /// ride reliable FIFO links, with per-link reorder buffers (hybrid
    /// buffering) in place of vector-clock wait counts. See
    /// `catocs::pccast`.
    Pccast,
}

/// Protocol tuning knobs shared by the multicast endpoints.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GroupConfig {
    /// When true, delivered-clock acknowledgements ride on data messages;
    /// when false they are sent as separate gossip on each tick. This is
    /// the piggyback ablation of §5 ("there are fewer application messages
    /// on which to piggyback acknowledgment information").
    pub piggyback_acks: bool,
    /// Interval between ack-gossip/retransmit-scan ticks.
    pub tick_interval: SimDuration,
    /// How long a missing message may be outstanding before (re-)NACKing.
    pub nack_timeout: SimDuration,
    /// Cap on MsgIds listed in a single NACK.
    pub max_nack_batch: usize,
    /// Piggyback unstable causal predecessors onto each data message
    /// instead of relying on holdback + NACK recovery (§3.4 footnote 4).
    /// Trades bandwidth for delivery delay.
    pub append_predecessors: bool,
    /// Use the indexed (HashMap + wait-count/ready-queue) holdback queue
    /// instead of the linear-scan baseline. Delivery behaviour is
    /// identical; only the per-event work differs (measured by T7+).
    pub indexed_holdback: bool,
    /// Stamp outbound data messages with a delta-encoded vector timestamp
    /// (against the sender's previous message) instead of the full
    /// vector. Retransmissions always fall back to full encoding.
    pub delta_timestamps: bool,
    /// Which causal-delivery algorithm `Discipline::Causal` groups run:
    /// vector-timestamp cbcast (default) or constant-metadata pccast.
    /// The other disciplines (fifo/total) ignore this knob.
    pub discipline: CausalDiscipline,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            piggyback_acks: true,
            tick_interval: SimDuration::from_millis(10),
            nack_timeout: SimDuration::from_millis(20),
            max_nack_batch: 64,
            append_predecessors: false,
            indexed_holdback: true,
            delta_timestamps: false,
            discipline: CausalDiscipline::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_id_formats() {
        let id = MsgId { sender: 2, seq: 7 };
        assert_eq!(id.to_string(), "m2.7");
        assert_eq!(format!("{id:?}"), "m2.7");
    }

    #[test]
    fn msg_id_orders_by_sender_then_seq() {
        let a = MsgId { sender: 0, seq: 9 };
        let b = MsgId { sender: 1, seq: 1 };
        assert!(a < b);
    }

    #[test]
    fn view_membership() {
        let v = View::initial(vec![ProcessId(3), ProcessId(5), ProcessId(9)]);
        assert_eq!(v.members.len(), 3);
        assert!(!v.is_empty());
    }

    #[test]
    fn view_without_removes_and_bumps_id() {
        let v = View::initial(vec![ProcessId(0), ProcessId(1), ProcessId(2)]);
        let v2 = v.without(&[ProcessId(1)]);
        assert_eq!(v2.id, ViewId(2));
        assert_eq!(v2.members, vec![ProcessId(0), ProcessId(2)]);
    }

    #[test]
    fn default_config_sane() {
        let c = GroupConfig::default();
        assert!(c.piggyback_acks);
        assert!(c.max_nack_batch > 0);
        assert!(c.tick_interval < c.nack_timeout + c.tick_interval);
    }
}
