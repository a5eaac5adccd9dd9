//! The unified wire protocol shared by all multicast disciplines, plus the
//! delivery record handed to applications and the per-endpoint statistics
//! the experiments read.

use crate::group::{MsgId, View, ViewId};
use clocks::vector::VectorClock;
use serde::{Deserialize, Serialize};
use simnet::time::{SimDuration, SimTime};
use std::sync::Arc;

/// How a data message's ordering stamp travels on the wire: what its
/// discipline orders by, beyond the [`MsgId`] every message carries.
///
/// The paper's §3.4 overhead critique is about exactly these bytes: a
/// full vector clock rides on every causal multicast and grows linearly
/// with group size. [`VtWire::Delta`] is the standard mitigation — encode
/// only the components that changed since the sender's previous data
/// message — threaded through the endpoint so the T7+ experiment measures
/// the real trade-off rather than an analytical table. FIFO and the
/// token ring order by a counter, and pay only for it ([`VtWire::Id`],
/// [`VtWire::Gseq`]).
///
/// A stamp's bytes are built once and shared: cloning a wire, once per
/// recipient, takes a handle on them.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum VtWire {
    /// Full encoding ([`VectorClock::encode`]); always used for a causal
    /// discipline's retransmissions and appended predecessors so a
    /// receiver with no decode context can always recover.
    Full(Arc<[u8]>),
    /// Delta encoding ([`VectorClock::encode_delta`]) against the vector
    /// time of the sender's *previous* data message. Decodable only in
    /// per-sender seq order; receivers park messages that arrive ahead of
    /// their base and fall back to NACK-driven full retransmission.
    Delta(Arc<[u8]>),
    /// Constant-size pccast tag: no vector at all, just the forwarding
    /// link's `(epoch, from, link_seq)` position. Causal order is implied
    /// by per-link FIFO dissemination, so the tag's size is independent of
    /// group size — the whole point of the constant-metadata discipline.
    Pc {
        /// View id (epoch) the copy was forwarded in.
        epoch: u64,
        /// Member index of the *forwarding* peer (not the origin).
        from: usize,
        /// 1-based FIFO sequence on the `from → receiver` link.
        link_seq: u64,
    },
    /// No stamp beyond the id (fbcast): a FIFO receiver orders each
    /// sender's stream by the `MsgId`'s own sequence number.
    Id,
    /// The token ring's global sequence number, stamped by the holder.
    Gseq(u64),
}

impl VtWire {
    /// Encoded timestamp size in bytes.
    pub(crate) fn len(&self) -> usize {
        match self {
            VtWire::Full(b) | VtWire::Delta(b) => b.len(),
            // u64 epoch + u32 from + u64 link_seq.
            VtWire::Pc { .. } => 20,
            VtWire::Id => 0,
            VtWire::Gseq(_) => 8,
        }
    }
}

/// A data multicast as it appears on the wire.
#[derive(Clone, Serialize, Deserialize)]
pub struct DataMsg<P> {
    /// Identity: (sender member index, per-sender sequence).
    pub id: MsgId,
    /// The sender's vector time at send (cbcast/pccast/abcast). Causal
    /// receivers reconstruct this from [`DataMsg::vt_wire`]; carrying the
    /// decoded form too keeps the simulation endpoints cheap to inspect.
    /// fbcast and the token ring order by a counter, not a vector: theirs
    /// is the empty clock, which allocates nothing.
    pub vt: VectorClock,
    /// The timestamp's actual wire encoding — what the byte accounting
    /// in [`Wire::overhead_bytes`] measures.
    pub vt_wire: VtWire,
    /// Application payload.
    pub payload: P,
    /// True when this copy is a retransmission.
    pub retransmit: bool,
    /// Causal predecessors piggybacked onto this message — the paper's
    /// §3.4 footnote 4 alternative to holdback delay: "causal protocols
    /// can append earlier 'causal' messages to later dependent messages,
    /// but this technique can significantly increase network traffic."
    /// Empty unless `GroupConfig::append_predecessors` is on.
    pub appended: Vec<DataMsg<P>>,
}

impl<P> DataMsg<P> {
    /// A fresh (non-retransmit) data message with a full-encoded
    /// timestamp and nothing appended.
    pub fn new(id: MsgId, vt: VectorClock, payload: P) -> Self {
        DataMsg {
            id,
            vt_wire: VtWire::Full(vt.encode()),
            vt,
            payload,
            retransmit: false,
            appended: Vec::new(),
        }
    }

    /// A fresh data message stamped `vt_wire` alone, for a discipline
    /// that orders by a counter rather than a vector clock.
    pub(crate) fn counted(id: MsgId, vt_wire: VtWire, payload: P) -> Self {
        DataMsg {
            id,
            vt: VectorClock::new(0),
            vt_wire,
            payload,
            retransmit: false,
            appended: Vec::new(),
        }
    }

    /// Rewrites the timestamp to the full encoding — every retransmitted
    /// or appended copy travels full so any receiver can decode it
    /// without per-sender delta context or link position (the gap/NACK
    /// fallback, for delta-stamped cbcast and pc-tagged pccast alike).
    /// A [`VtWire::Id`] or [`VtWire::Gseq`] stamp needs no decode
    /// context and stays as it is.
    pub fn make_full(&mut self) {
        if matches!(self.vt_wire, VtWire::Delta(_) | VtWire::Pc { .. }) {
            self.vt_wire = VtWire::Full(self.vt.encode());
        }
    }
}

impl<P: std::fmt::Debug> std::fmt::Debug for DataMsg<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Compact: event diagrams want the payload front and centre.
        write!(
            f,
            "{}{}{} {:?}",
            self.id,
            if self.retransmit { "*" } else { "" },
            if self.appended.is_empty() {
                String::new()
            } else {
                format!("+{}", self.appended.len())
            },
            self.payload
        )
    }
}

/// Every message any CATOCS protocol in this crate puts on the network.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Wire<P> {
    /// Application data (all disciplines).
    Data(DataMsg<P>),
    /// Delivered-clock gossip for stability tracking and gap detection.
    AckGossip { from: usize, delivered: VectorClock },
    /// Request retransmission of specific messages.
    Nack { from: usize, want: Vec<MsgId> },
    /// Sequencer's total-order assignment: global sequence `gseq` is `id`.
    Order { gseq: u64, id: MsgId },
    /// Request retransmission of order assignments (abcast).
    OrderNack {
        from: usize,
        from_gseq: u64,
        to_gseq: u64,
    },
    /// The rotating token of the token-ring abcast variant.
    Token { next_gseq: u64, hops: u64 },
    /// Acknowledges receipt of the token (token passing must be
    /// reliable: a lost token halts the total order).
    TokenAck { hops: u64 },
    /// Membership: coordinator proposes a new view; members must flush.
    Flush { proposed: View, from: usize },
    /// Membership: member has flushed its unstable messages for `view_id`.
    FlushOk {
        view_id: ViewId,
        from: usize,
        delivered: VectorClock,
    },
    /// Membership: coordinator installs the new view. `cut` is the flush
    /// cut — the component-wise max of every member's `FlushOk` delivered
    /// clock. Messages from removed senders at or below the cut are still
    /// part of the old view's agreed history and remain deliverable;
    /// anything beyond it is discarded.
    Install { view: View, cut: VectorClock },
    /// pccast: cumulative per-link FIFO acknowledgement — "I have
    /// consumed every copy you forwarded me up to `acked`". Drives both
    /// the sender's out-log GC (ARQ window) and tail-loss retransmission.
    PcAck { from: usize, epoch: u64, acked: u64 },
    /// pccast: fills a NACKed link position whose payload was already
    /// garbage-collected as stable on the forwarder. Receivers consume it
    /// like a duplicate if `id` was delivered, else register `id` missing
    /// and keep the link stalled until holdback repair heals it.
    PcSkip {
        from: usize,
        epoch: u64,
        link_seq: u64,
        id: MsgId,
    },
    /// Liveness probe for the failure detector. Carries the sender's
    /// installed view id as cheap anti-entropy: a receiver with a newer
    /// view replies with its `Install`, repairing stragglers that missed
    /// one (a lost Install otherwise leaves a member frozen in the old
    /// view with no retry path pointed at it).
    Heartbeat { from: usize, view_id: ViewId },
}

impl<P> Wire<P> {
    /// Simulated size in bytes of this message's *protocol overhead*
    /// (headers, clocks, control payloads) — the per-message cost the
    /// paper's §3.4 points at. Application payload bytes are accounted
    /// separately, as a nominal 256 per buffered message.
    pub fn overhead_bytes(&self) -> usize {
        const MSG_ID: usize = 12; // u32 sender + u64 seq
        match self {
            Wire::Data(d) => {
                let own = MSG_ID + d.vt_wire.len() + 1;
                let appended: usize = d
                    .appended
                    .iter()
                    .map(|a| MSG_ID + a.vt_wire.len() + 1)
                    .sum();
                own + appended
            }
            Wire::AckGossip { delivered, .. } => 4 + delivered.encoded_len(),
            Wire::Nack { want, .. } => 4 + MSG_ID * want.len(),
            Wire::Order { .. } => 8 + MSG_ID,
            Wire::OrderNack { .. } => 4 + 16,
            Wire::Token { .. } => 16,
            Wire::TokenAck { .. } => 8,
            Wire::Flush { proposed, .. } => 12 + 8 * proposed.members.len(),
            Wire::FlushOk { delivered, .. } => 12 + delivered.encoded_len(),
            Wire::Install { view, cut } => 8 + 8 * view.members.len() + cut.encoded_len(),
            Wire::PcAck { .. } => 4 + 8 + 8,
            Wire::PcSkip { .. } => 4 + 8 + 8 + MSG_ID,
            Wire::Heartbeat { .. } => 4 + 8,
        }
    }
}

/// Where an outbound wire message should go (member indices).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dest {
    /// Every group member except the sender.
    All,
    /// One specific member.
    One(usize),
}

/// An outbound message from an endpoint: destination plus wire payload.
pub type Out<P> = (Dest, Wire<P>);

/// A message delivered to the application, with the timing metadata the
/// false-causality experiment (T6) needs.
#[derive(Clone, Debug)]
pub struct Delivery<P> {
    /// Which multicast this is.
    pub id: MsgId,
    /// The payload.
    pub payload: P,
    /// When the message physically arrived at this endpoint.
    pub arrived_at: SimTime,
    /// When the ordering protocol released it to the application.
    pub delivered_at: SimTime,
    /// Global sequence number (total-order disciplines only).
    pub gseq: Option<u64>,
    /// Messages this delivery was held waiting for (empty if delivered on
    /// arrival). These are *potential-causality* waits; whether they were
    /// semantically necessary is an application-level question — the crux
    /// of the paper's "false causality" critique.
    pub waited_for: Vec<MsgId>,
}

impl<P> Delivery<P> {
    /// How long the ordering protocol held this message after arrival.
    pub fn hold_time(&self) -> SimDuration {
        self.delivered_at.saturating_since(self.arrived_at)
    }

    /// Whether the message was held at all.
    pub fn was_held(&self) -> bool {
        self.delivered_at > self.arrived_at
    }
}

/// Running statistics for one endpoint. All counters are cumulative for
/// the life of the endpoint.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct EndpointStats {
    /// Multicasts submitted locally.
    pub sent: u64,
    /// Data messages received (including duplicates/retransmits).
    pub data_received: u64,
    /// Messages delivered to the application.
    pub delivered: u64,
    /// Deliveries that were held in the holdback queue.
    pub delivered_after_hold: u64,
    /// Total time messages spent held (sum over held deliveries).
    pub hold_time_total: SimDuration,
    /// Duplicates discarded.
    pub duplicates: u64,
    /// NACKs sent.
    pub nacks_sent: u64,
    /// Retransmissions served from the buffer.
    pub retransmits_served: u64,
    /// Ack-gossip messages sent.
    pub acks_sent: u64,
    /// Control bytes sent (everything but payloads).
    pub control_bytes: u64,
    /// Data overhead bytes sent (headers + clocks on data).
    pub data_overhead_bytes: u64,
    /// Current number of buffered (unstable) messages.
    pub buffered_now: u64,
    /// Current buffered bytes (payload + overhead).
    pub buffered_bytes_now: u64,
    /// High-water mark of buffered messages.
    pub buffered_peak: u64,
    /// High-water mark of buffered bytes.
    pub buffered_bytes_peak: u64,
    /// Current holdback-queue length.
    pub holdback_now: u64,
    /// High-water mark of the holdback queue.
    pub holdback_peak: u64,
    /// Messages garbage-collected as stable.
    pub stabilized: u64,
    /// Cumulative holdback structural work (entries examined by the scan
    /// implementation; registrations/promotions in the indexed one).
    pub holdback_work: u64,
    /// Wire events that touched the holdback queue (denominator for
    /// per-event work).
    pub holdback_events: u64,
    /// Data messages sent with a delta-encoded timestamp.
    pub ts_delta_sent: u64,
    /// Data messages sent with a full-encoded timestamp.
    pub ts_full_sent: u64,
    /// Received delta-encoded messages parked awaiting their decode base.
    pub ts_delta_parked: u64,
    /// Received messages whose timestamp failed to decode (malformed or
    /// wrong width) and were dropped for NACK-driven recovery.
    pub ts_decode_errors: u64,
    /// Data messages from a removed member beyond the flush cut, rejected
    /// to preserve virtual synchrony.
    pub rejected_removed: u64,
}

impl EndpointStats {
    /// Mean hold time over held deliveries.
    pub fn mean_hold(&self) -> SimDuration {
        match self
            .hold_time_total
            .as_micros()
            .checked_div(self.delivered_after_hold)
        {
            None => SimDuration::ZERO,
            Some(mean) => SimDuration::from_micros(mean),
        }
    }

    /// Fraction of deliveries that were held, in `[0,1]`.
    pub fn held_fraction(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.delivered_after_hold as f64 / self.delivered as f64
        }
    }

    pub(crate) fn note_buffer(&mut self, msgs: u64, bytes: u64) {
        self.buffered_now = msgs;
        self.buffered_bytes_now = bytes;
        self.buffered_peak = self.buffered_peak.max(msgs);
        self.buffered_bytes_peak = self.buffered_bytes_peak.max(bytes);
    }

    pub(crate) fn note_holdback(&mut self, len: u64) {
        self.holdback_now = len;
        self.holdback_peak = self.holdback_peak.max(len);
    }

    /// Mean holdback structural work per wire event that touched the
    /// queue — the T7+ scaling metric. For the scan implementation this
    /// grows with holdback size; for the indexed one it stays flat.
    pub fn holdback_work_per_event(&self) -> f64 {
        if self.holdback_events == 0 {
            0.0
        } else {
            self.holdback_work as f64 / self.holdback_events as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_scales_with_group_size() {
        let small = Wire::Data(DataMsg::new(
            MsgId { sender: 0, seq: 1 },
            VectorClock::new(4),
            (),
        ))
        .overhead_bytes();
        let large = Wire::Data(DataMsg::new(
            MsgId { sender: 0, seq: 1 },
            VectorClock::new(64),
            (),
        ))
        .overhead_bytes();
        assert!(large > small);
        assert_eq!(large - small, 8 * 60); // 60 extra u64 components
    }

    #[test]
    fn overhead_follows_the_wire_encoding() {
        // A delta-stamped message is charged for the delta bytes, not the
        // full vector it would otherwise carry.
        let mut base = VectorClock::new(64);
        base.set(0, 4);
        let mut next = base.clone();
        next.tick(0);
        let mut msg = DataMsg::new(MsgId { sender: 0, seq: 5 }, next.clone(), ());
        let full = Wire::Data(msg.clone()).overhead_bytes();
        msg.vt_wire = VtWire::Delta(next.encode_delta(&base));
        let delta = Wire::Data(msg.clone()).overhead_bytes();
        assert!(delta < full, "delta {delta} must undercut full {full}");
        // make_full restores the fallback encoding.
        msg.make_full();
        assert!(matches!(msg.vt_wire, VtWire::Full(_)));
        assert_eq!(Wire::Data(msg).overhead_bytes(), full);
    }

    #[test]
    fn clock_carrying_control_is_charged_the_full_encoding() {
        let clock = VectorClock::new(64);
        let encoded = clock.encode().len();
        let view = View::initial(vec![simnet::process::ProcessId(0); 3]);
        let ack: Wire<()> = Wire::AckGossip {
            from: 0,
            delivered: clock.clone(),
        };
        assert_eq!(ack.overhead_bytes(), 4 + encoded);
        let flush_ok: Wire<()> = Wire::FlushOk {
            view_id: view.id,
            from: 0,
            delivered: clock.clone(),
        };
        assert_eq!(flush_ok.overhead_bytes(), 12 + encoded);
        let install: Wire<()> = Wire::Install { view, cut: clock };
        assert_eq!(install.overhead_bytes(), 8 + 8 * 3 + encoded);
    }

    /// What the simulator does once per arrival: the clone of a wire
    /// carries a handle on the original's clock, not 32 KB of components.
    #[test]
    fn cloning_a_wire_shares_its_clock() {
        let mut vt = VectorClock::new(4096);
        vt.set(7, 1);
        let data = Wire::Data(DataMsg::new(MsgId { sender: 7, seq: 1 }, vt.clone(), ()));
        let ack: Wire<()> = Wire::AckGossip {
            from: 7,
            delivered: vt.clone(),
        };
        match (data.clone(), ack.clone()) {
            (Wire::Data(d), Wire::AckGossip { delivered, .. }) => {
                assert!(d.vt.shares_storage_with(&vt));
                assert!(delivered.shares_storage_with(&vt));
            }
            _ => unreachable!("clones keep their variants"),
        }
    }

    #[test]
    fn delivery_hold_time() {
        let d = Delivery {
            id: MsgId { sender: 1, seq: 1 },
            payload: (),
            arrived_at: SimTime::from_millis(5),
            delivered_at: SimTime::from_millis(9),
            gseq: None,
            waited_for: vec![MsgId { sender: 0, seq: 3 }],
        };
        assert_eq!(d.hold_time(), SimDuration::from_millis(4));
        assert!(d.was_held());
    }

    #[test]
    fn stats_aggregation() {
        let mut s = EndpointStats::default();
        assert_eq!(s.mean_hold(), SimDuration::ZERO);
        assert_eq!(s.held_fraction(), 0.0);
        s.delivered = 10;
        s.delivered_after_hold = 5;
        s.hold_time_total = SimDuration::from_millis(50);
        assert_eq!(s.mean_hold(), SimDuration::from_millis(10));
        assert_eq!(s.held_fraction(), 0.5);
        s.note_buffer(7, 700);
        s.note_buffer(3, 300);
        assert_eq!(s.buffered_now, 3);
        assert_eq!(s.buffered_peak, 7);
        s.note_holdback(9);
        s.note_holdback(2);
        assert_eq!(s.holdback_peak, 9);
    }
}
