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

    /// A retransmittable copy of this buffered message, stamped
    /// [`Self::make_full`] so the requester can decode it without
    /// per-sender delta context or link position. The buffered message
    /// itself is made full the first time, so it is encoded once and
    /// every later copy shares its bytes.
    pub(crate) fn repair_copy(&mut self) -> DataMsg<P>
    where
        P: Clone,
    {
        self.make_full();
        DataMsg {
            retransmit: true,
            ..self.clone()
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

/// Why a wire was refused: no honest member could have sent it. Each
/// kind counts once, in `EndpointStats::refuse` or `MembershipStats::refuse`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// A member index at or past the group size.
    NoSuchMember,
    /// A clock not as wide as the group.
    ClockWidth,
    /// A view with nobody in it.
    EmptyView,
    /// An order-slot range that ends before it starts.
    InvertedRange,
    /// More than `MAX_CHASE_AHEAD` past this member's state.
    OutOfReach,
    /// A stamp that does not decode to what the discipline orders by.
    Undecodable,
    /// A view, or an ack toward one, outside the installed view.
    OutsideView,
}

/// The front door every wire passes before any state is touched: what
/// needs no state but the group size `n`. No stamp is decoded, no clock
/// walked; a discipline adds its reach checks (`Protocol::out_of_reach`),
/// and rules about honest traffic (duplicates, stale epochs, the flush
/// cut) stay in its body.
pub(crate) fn admit<P>(wire: &Wire<P>, n: usize) -> Result<(), Refusal> {
    let require = |ok: bool, why| if ok { Ok(()) } else { Err(why) };
    let member = |k: usize| require(k < n, Refusal::NoSuchMember);
    let clock = |c: &VectorClock| require(c.len() == n, Refusal::ClockWidth);
    let view = |v: &View| {
        require(!v.is_empty(), Refusal::EmptyView)?;
        v.members.iter().try_for_each(|p| member(p.0))
    };
    match wire {
        Wire::Data(d) => std::iter::once(d).chain(&d.appended).try_for_each(|c| {
            member(c.id.sender)?;
            match c.vt_wire {
                VtWire::Pc { from, .. } => member(from),
                _ => Ok(()),
            }
        }),
        Wire::AckGossip { from, delivered } => member(*from).and(clock(delivered)),
        Wire::Nack { from, want } => want
            .iter()
            .try_for_each(|id| member(id.sender))
            .and(member(*from)),
        Wire::Order { id, .. } => member(id.sender),
        Wire::OrderNack {
            from,
            from_gseq,
            to_gseq,
        } => member(*from).and(require(from_gseq <= to_gseq, Refusal::InvertedRange)),
        Wire::Token { .. } | Wire::TokenAck { .. } => Ok(()),
        Wire::Flush { proposed, from } => member(*from).and(view(proposed)),
        Wire::FlushOk {
            from, delivered, ..
        } => member(*from).and(clock(delivered)),
        Wire::Install { view: v, cut } => view(v).and(clock(cut)),
        Wire::PcAck { from, .. } | Wire::Heartbeat { from, .. } => member(*from),
        Wire::PcSkip { from, id, .. } => member(*from).and(member(id.sender)),
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
    /// Protocol overhead ([`Wire::overhead_bytes`]) of every returned
    /// wire that is not [`ByteKind::OwnData`]: relays, repair copies,
    /// gossip, NACKs, link acks, order and token wires.
    pub control_bytes: u64,
    /// Protocol overhead of this member's own multicasts as they first
    /// leave: a [`Wire::Data`] carrying one of its own messages, not a
    /// retransmission, and not a second copy of the id just booked.
    pub data_overhead_bytes: u64,
    /// The same bytes by what they paid for, indexed by [`ByteKind`]:
    /// the `OwnData` entry is `data_overhead_bytes`, the rest sum to
    /// `control_bytes`. All three are booked by `book` alone.
    pub bytes_by_kind: [u64; ByteKind::NAMES.len()],
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
    /// Wires refused (`EndpointStats::refuse`): a member index outside the
    /// group, a clock of another width, an undecodable stamp, a message far
    /// out of reach. A real data copy refused comes back by NACK.
    pub ts_decode_errors: u64,
    /// Data messages from a removed member beyond the flush cut, rejected
    /// to preserve virtual synchrony.
    pub rejected_removed: u64,
}

/// What a wire an endpoint returns pays for, as `EndpointStats::book` splits it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ByteKind {
    /// The first copy of one of this member's own multicasts.
    OwnData,
    /// Any other fresh data copy: someone else's message passed on, or a
    /// further copy of our own (pccast's second overlay neighbour).
    Relay,
    /// A retransmitted data copy (NACK serve, flush repair, link resend)
    /// and pccast's `PcSkip`, which fills a link position instead.
    Repair,
    /// Delivered-clock gossip.
    Gossip,
    /// A retransmission request, of data or of order slots.
    Nack,
    /// pccast's per-link cumulative ack.
    LinkAck,
    /// The sequencer's order assignment.
    Order,
    /// The ring's token and its acknowledgement.
    Token,
}

impl ByteKind {
    /// Each kind's name in metric rows, in index order.
    pub const NAMES: [&'static str; 8] = [
        "own_data", "relay", "repair", "gossip", "nack", "link_ack", "order", "token",
    ];
}

impl EndpointStats {
    /// Books `out`, what an entry point of member `me` returns, into
    /// `data_overhead_bytes`, `control_bytes` and `bytes_by_kind`: the
    /// one place any endpoint charges a byte to the wire. Every entry
    /// point that returns wires ends here, so what is booked is what is
    /// sent. The copies of one multicast leave side by side; only the
    /// first is its own data.
    pub(crate) fn book<P>(&mut self, me: usize, out: &[Out<P>]) {
        let mut booked_own = None;
        for (_, wire) in out {
            let kind = match wire {
                Wire::Data(d) if d.retransmit => ByteKind::Repair,
                Wire::Data(d) if d.id.sender == me && booked_own != Some(d.id) => {
                    booked_own = Some(d.id);
                    ByteKind::OwnData
                }
                Wire::Data(_) => ByteKind::Relay,
                Wire::PcSkip { .. } => ByteKind::Repair,
                // Membership traffic leaves through `vsync::Member`, never
                // an endpoint; were it booked, it would be chatter too.
                Wire::AckGossip { .. }
                | Wire::Heartbeat { .. }
                | Wire::Flush { .. }
                | Wire::FlushOk { .. }
                | Wire::Install { .. } => ByteKind::Gossip,
                Wire::Nack { .. } | Wire::OrderNack { .. } => ByteKind::Nack,
                Wire::PcAck { .. } => ByteKind::LinkAck,
                Wire::Order { .. } => ByteKind::Order,
                Wire::Token { .. } | Wire::TokenAck { .. } => ByteKind::Token,
            };
            let bytes = wire.overhead_bytes() as u64;
            self.bytes_by_kind[kind as usize] += bytes;
            if kind == ByteKind::OwnData {
                self.data_overhead_bytes += bytes;
            } else {
                self.control_bytes += bytes;
            }
        }
    }

    /// Counts a wire refused, for any reason: the one place it is counted.
    pub(crate) fn refuse(&mut self, _why: Refusal) {
        self.ts_decode_errors += 1;
    }

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

    /// Counts a delivery at `now` of a message that arrived at `arrived`,
    /// and its hold if it waited; returns whether it did.
    pub(crate) fn note_delivery(&mut self, arrived: SimTime, now: SimTime) -> bool {
        let held = arrived < now;
        self.delivered += 1;
        if held {
            self.delivered_after_hold += 1;
            self.hold_time_total += now.saturating_since(arrived);
        }
        held
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

    /// Every rule of the door, by the kind it refuses for, in a group of
    /// 3: a member index at 3 or `usize::MAX` in each field that carries
    /// one, a clock one too narrow or too wide, a view with nobody or
    /// with an outsider in it, and an inverted order range. The honest
    /// form of each wire passes.
    #[test]
    fn the_door_refuses_what_no_member_can_send() {
        use crate::group::ViewId;
        use simnet::process::ProcessId;
        use Refusal::*;
        const N: usize = 3;
        let id = |sender| MsgId { sender, seq: 1 };
        let view = |members: &[usize]| View {
            id: ViewId(2),
            members: members.iter().copied().map(ProcessId).collect(),
        };
        let data = |sender, stamp_from, appended: Option<usize>| {
            let mut d = DataMsg::new(id(sender), VectorClock::new(N), ());
            if let Some(from) = stamp_from {
                d.vt_wire = VtWire::Pc {
                    epoch: 1,
                    from,
                    link_seq: 1,
                };
            }
            d.appended = appended
                .map(|s| DataMsg::new(id(s), VectorClock::new(N), ()))
                .into_iter()
                .collect();
            Wire::Data(d)
        };
        let ok = VectorClock::new(N);
        let mut cases = Vec::new();
        for k in [N - 1, N, usize::MAX] {
            let want = if k < N { Ok(()) } else { Err(NoSuchMember) };
            let wires: Vec<Wire<()>> = vec![
                data(k, None, None),
                data(0, Some(k), None),
                data(0, None, Some(k)),
                Wire::AckGossip {
                    from: k,
                    delivered: ok.clone(),
                },
                Wire::Nack {
                    from: k,
                    want: vec![id(0)],
                },
                Wire::Nack {
                    from: 0,
                    want: vec![id(0), id(k)],
                },
                Wire::Order { gseq: 1, id: id(k) },
                Wire::OrderNack {
                    from: k,
                    from_gseq: 1,
                    to_gseq: 1,
                },
                Wire::Flush {
                    proposed: view(&[0, 1]),
                    from: k,
                },
                Wire::Flush {
                    proposed: view(&[0, k]),
                    from: 0,
                },
                Wire::FlushOk {
                    view_id: ViewId(2),
                    from: k,
                    delivered: ok.clone(),
                },
                Wire::Install {
                    view: view(&[0, k]),
                    cut: ok.clone(),
                },
                Wire::PcAck {
                    from: k,
                    epoch: 1,
                    acked: 1,
                },
                Wire::PcSkip {
                    from: k,
                    epoch: 1,
                    link_seq: 1,
                    id: id(0),
                },
                Wire::PcSkip {
                    from: 0,
                    epoch: 1,
                    link_seq: 1,
                    id: id(k),
                },
                Wire::Heartbeat {
                    from: k,
                    view_id: ViewId(1),
                },
            ];
            cases.extend(wires.into_iter().map(|w| (w, want)));
        }
        for width in [N - 1, N, N + 1] {
            let want = if width == N { Ok(()) } else { Err(ClockWidth) };
            let clock = VectorClock::new(width);
            let wires: Vec<Wire<()>> = vec![
                Wire::AckGossip {
                    from: 0,
                    delivered: clock.clone(),
                },
                Wire::FlushOk {
                    view_id: ViewId(2),
                    from: 0,
                    delivered: clock.clone(),
                },
                Wire::Install {
                    view: view(&[0, 1]),
                    cut: clock,
                },
            ];
            cases.extend(wires.into_iter().map(|w| (w, want)));
        }
        let nobody = [
            Wire::Flush {
                proposed: view(&[]),
                from: 0,
            },
            Wire::Install {
                view: view(&[]),
                cut: ok.clone(),
            },
        ];
        cases.extend(nobody.into_iter().map(|w| (w, Err(EmptyView))));
        for (from_gseq, to_gseq, want) in [
            (2, 1, Err(InvertedRange)),
            (1, 1, Ok(())),
            (1, u64::MAX, Ok(())),
        ] {
            let w = Wire::OrderNack {
                from: 0,
                from_gseq,
                to_gseq,
            };
            cases.push((w, want));
        }
        let counters = [
            Wire::Token {
                next_gseq: u64::MAX,
                hops: u64::MAX,
            },
            Wire::TokenAck { hops: u64::MAX },
        ];
        cases.extend(counters.into_iter().map(|w| (w, Ok(()))));
        for (wire, want) in cases {
            assert_eq!(admit(&wire, N), want, "{wire:?}");
        }
    }

    /// A refused wire touches nothing in any discipline: nothing is
    /// returned, nothing but the refusal count moves (a refused copy is
    /// not a receipt), and the endpoint then delivers as if it never came.
    #[test]
    fn every_discipline_refuses_a_member_outside_the_group_whole() {
        use crate::endpoint::{Discipline, Endpoint};
        use crate::group::{CausalDiscipline, GroupConfig};
        const N: usize = 3;
        let masked = |s: &EndpointStats| {
            let s = EndpointStats {
                ts_decode_errors: 0,
                ..s.clone()
            };
            format!("{s:?}")
        };
        for (d, discipline) in [
            (Discipline::Fifo, CausalDiscipline::Cbcast),
            (Discipline::Causal, CausalDiscipline::Cbcast),
            (Discipline::Causal, CausalDiscipline::Pccast),
            (Discipline::Total { sequencer: 0 }, CausalDiscipline::Cbcast),
            (Discipline::TotalToken, CausalDiscipline::Cbcast),
        ] {
            let cfg = GroupConfig {
                discipline,
                ..GroupConfig::default()
            };
            let mut a: Endpoint<u32> = Endpoint::new(d, 0, N, cfg.clone());
            let mut b: Endpoint<u32> = Endpoint::new(d, 1, N, cfg);
            let before = (masked(b.stats()), masked(b.transport_stats()));
            let mut hostile = 0;
            for who in [N, usize::MAX] {
                let id = MsgId {
                    sender: who,
                    seq: 1,
                };
                for wire in [
                    Wire::AckGossip {
                        from: who,
                        delivered: VectorClock::new(N),
                    },
                    Wire::Data(DataMsg::new(id, VectorClock::new(N), 9)),
                    Wire::Nack {
                        from: who,
                        want: vec![id],
                    },
                    Wire::Order { gseq: 1, id },
                ] {
                    let (dels, out) = b.on_wire(SimTime::ZERO, wire);
                    assert!(dels.is_empty() && out.is_empty(), "{d:?}/{discipline:?}");
                    hostile += 1;
                }
            }
            let after = (masked(b.stats()), masked(b.transport_stats()));
            assert_eq!(before, after, "{d:?}/{discipline:?}");
            assert_eq!(b.stats().ts_decode_errors, hostile, "{d:?}/{discipline:?}");
            let (_, out) = a.multicast(SimTime::from_millis(1), 7);
            let mut delivered = Vec::new();
            for (_, w) in out {
                delivered.extend(b.on_wire(SimTime::from_millis(2), w).0);
            }
            assert_eq!(delivered.len(), 1, "{d:?}/{discipline:?}");
            assert_eq!(delivered[0].payload, 7);
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

#[cfg(test)]
/// The door, fuzzed: seeded hostile wires of every variant, and raw stamp
/// bytes of every kind, fed between the honest wires of a lossless group
/// of each discipline, and between those of a view change. Each field is
/// drawn around the group size, around what the victim has delivered and
/// around `MAX_CHASE_AHEAD`, and each wire carries at least one value no
/// honest member sends. No shrinking: a failure names its case and seed.
mod fuzz {
    use super::*;
    use crate::causal_core::MAX_CHASE_AHEAD;
    use crate::endpoint::{Discipline, Endpoint};
    use crate::group::{CausalDiscipline, GroupConfig};
    use crate::membership::{FlushAction, MembershipEngine};
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use simnet::process::ProcessId;
    use std::collections::VecDeque;

    /// Cases a discipline, and view changes: CI runs the release count.
    const CASES: u64 = if cfg!(debug_assertions) { 12 } else { 2_000 };

    /// What no honest payload is.
    const FORGED: u64 = u64::MAX;

    const DISCIPLINES: [(Discipline, CausalDiscipline); 5] = [
        (Discipline::Fifo, CausalDiscipline::Cbcast),
        (Discipline::Causal, CausalDiscipline::Cbcast),
        (Discipline::Causal, CausalDiscipline::Pccast),
        (Discipline::Total { sequencer: 0 }, CausalDiscipline::Cbcast),
        (Discipline::TotalToken, CausalDiscipline::Cbcast),
    ];

    fn pick<T: Copy>(rng: &mut SmallRng, of: &[T]) -> T {
        *of.choose(rng).expect("something to pick")
    }

    /// What hostile wires are drawn around.
    struct Ctx {
        d: Discipline,
        n: usize,
        victim: usize,
        /// What the victim delivered of each sender.
        delivered: Vec<u64>,
        /// Above every counter of an honest run: seqs, slots, link
        /// positions, token hops.
        honest: u64,
    }

    impl Ctx {
        fn member(&self, rng: &mut SmallRng) -> usize {
            pick(rng, &[0, self.n - 1])
        }

        fn outsider(&self, rng: &mut SmallRng) -> usize {
            pick(rng, &[self.n, self.n + 1, usize::MAX])
        }

        /// A count around `c`, around `MAX_CHASE_AHEAD`, or at the top.
        fn count(&self, rng: &mut SmallRng, c: u64) -> u64 {
            let r = MAX_CHASE_AHEAD;
            pick(
                rng,
                &[0, c.saturating_sub(1), c, c + 1, r - 1, r, r + 1, u64::MAX],
            )
        }

        /// A count past anything in reach of an honest one.
        fn far(&self, rng: &mut SmallRng) -> u64 {
            let r = MAX_CHASE_AHEAD + self.honest;
            pick(rng, &[r + 1, r + 2, u64::MAX])
        }

        fn released(&self) -> u64 {
            self.delivered.iter().sum()
        }

        fn id(&self, rng: &mut SmallRng) -> MsgId {
            let sender = self.member(rng);
            let seq = self.count(rng, self.delivered[sender]);
            MsgId { sender, seq }
        }

        fn clock(&self, rng: &mut SmallRng) -> VectorClock {
            let c = (0..self.n).map(|k| self.count(rng, self.delivered[k]));
            VectorClock::from_entries(c.collect())
        }

        fn view(&self, rng: &mut SmallRng) -> View {
            let mut members: Vec<_> = (0..self.n).map(ProcessId).collect();
            members.truncate(rng.gen_range(1..=self.n));
            View {
                id: ViewId(self.count(rng, 2)),
                members,
            }
        }

        /// A data copy whose id, appended copy, link tag or slot is out.
        fn data(&self, rng: &mut SmallRng) -> Wire<u64> {
            let mut d = DataMsg::new(self.id(rng), VectorClock::new(self.n), FORGED);
            d.vt_wire = match rng.gen_range(0..4) {
                0 => VtWire::Full(self.clock(rng).encode()),
                1 => VtWire::Id,
                2 => VtWire::Gseq(self.count(rng, self.released())),
                _ => VtWire::Pc {
                    epoch: pick(rng, &[0, 1, 2]),
                    from: self.member(rng),
                    link_seq: self.count(rng, 0),
                },
            };
            match rng.gen_range(0..4) {
                0 => d.id.sender = self.outsider(rng),
                1 => {
                    let id = MsgId {
                        sender: self.outsider(rng),
                        seq: 1,
                    };
                    d.appended
                        .push(DataMsg::new(id, VectorClock::new(self.n), FORGED));
                }
                2 => {
                    d.vt_wire = VtWire::Pc {
                        epoch: 1,
                        from: self.outsider(rng),
                        link_seq: 1,
                    }
                }
                // The token ring orders by the slot, the rest by the seq.
                _ if self.d == Discipline::TotalToken => d.vt_wire = VtWire::Gseq(self.far(rng)),
                _ => d.id.seq = self.far(rng),
            }
            Wire::Data(d)
        }

        /// A copy of the next or a delivered message of a sender other
        /// than the victim, stamped with bytes no decoder may believe:
        /// refused on decode, or dropped as a duplicate first. fbcast
        /// reads no stamp, so its copies are out by id instead.
        fn stamped(&self, rng: &mut SmallRng) -> Wire<u64> {
            if self.d == Discipline::Fifo {
                return self.data(rng);
            }
            let sender = (self.victim + rng.gen_range(1..self.n)) % self.n;
            let seq = self.delivered[sender] + pick(rng, &[0, 1]);
            let id = MsgId { sender, seq };
            let vt_wire = match rng.gen_range(0..5) {
                0 => VtWire::Full(self.raw(rng, false)),
                1 => VtWire::Delta(self.raw(rng, true)),
                2 => VtWire::Id,
                3 if self.d == Discipline::TotalToken => VtWire::Gseq(self.far(rng)),
                3 => VtWire::Gseq(self.count(rng, seq)),
                // A link tag from another epoch.
                _ => VtWire::Pc {
                    epoch: pick(rng, &[0, 2, u64::MAX]),
                    from: self.member(rng),
                    link_seq: self.count(rng, 1),
                },
            };
            let mut d = DataMsg::new(id, VectorClock::new(self.n), FORGED);
            d.vt_wire = vt_wire;
            Wire::Data(d)
        }

        /// Stamp bytes, full or delta, that do not decode to an `n`-wide
        /// clock in reach: garbage, a cut-off encoding, another width, or
        /// a component far ahead.
        fn raw(&self, rng: &mut SmallRng, delta: bool) -> Arc<[u8]> {
            let n = self.n;
            let encode = |c: &VectorClock| {
                let bytes = if delta {
                    c.encode_delta(&VectorClock::new(0))
                } else {
                    c.encode()
                };
                bytes.to_vec()
            };
            let reach = MAX_CHASE_AHEAD + self.honest;
            loop {
                let mut c = self.clock(rng);
                let bytes = match rng.gen_range(0..4) {
                    0 => (0..rng.gen_range(0..48))
                        .map(|_| rng.gen::<u32>() as u8)
                        .collect(),
                    1 => {
                        let mut bytes = encode(&c);
                        bytes.truncate(rng.gen_range(0..bytes.len()));
                        bytes
                    }
                    2 => encode(&VectorClock::new(pick(rng, &[0, n - 1, n + 1, 65]))),
                    _ => {
                        c.set(rng.gen_range(0..n), self.far(rng));
                        encode(&c)
                    }
                };
                let decoded = if delta {
                    VectorClock::decode_delta(&bytes, &VectorClock::new(n))
                } else {
                    VectorClock::decode(&bytes)
                };
                if !decoded.is_some_and(|c| c.len() == n && !c.any_above(reach)) {
                    return bytes.into();
                }
            }
        }

        /// Any wire but data, each with a field out: its sender, or
        /// another when the sender is a `member`.
        fn control(&self, rng: &mut SmallRng) -> Wire<u64> {
            let (n, member) = (self.n, rng.gen_bool(0.5));
            let from = if member {
                self.member(rng)
            } else {
                self.outsider(rng)
            };
            match rng.gen_range(0..10) {
                0 => {
                    let mut delivered = self.clock(rng);
                    if member && rng.gen_bool(0.5) {
                        delivered = VectorClock::new(pick(rng, &[0, n - 1, n + 1]));
                    } else if member {
                        delivered.set(rng.gen_range(0..n), self.far(rng));
                    }
                    Wire::AckGossip { from, delivered }
                }
                1 => {
                    let mut want: Vec<_> = (0..rng.gen_range(0..3)).map(|_| self.id(rng)).collect();
                    if member {
                        let sender = self.outsider(rng);
                        want.push(MsgId { sender, seq: 1 });
                    }
                    Wire::Nack { from, want }
                }
                2 => {
                    let mut id = self.id(rng);
                    let mut gseq = self.count(rng, self.released());
                    if rng.gen_bool(0.5) {
                        id.sender = self.outsider(rng);
                    } else {
                        gseq = self.far(rng);
                    }
                    Wire::Order { gseq, id }
                }
                // Any range is served harmlessly but an inverted one.
                3 => {
                    let (a, b) = (self.count(rng, 1), self.count(rng, self.released()));
                    let (from_gseq, to_gseq) = if rng.gen_bool(0.5) {
                        (a.min(b), a.max(b))
                    } else {
                        (a.max(b).saturating_add(1), a.min(b).min(u64::MAX - 1))
                    };
                    Wire::OrderNack {
                        from: if from_gseq <= to_gseq {
                            self.member(rng)
                        } else {
                            from
                        },
                        from_gseq,
                        to_gseq,
                    }
                }
                4 => {
                    let (mut next_gseq, mut hops) = (self.count(rng, 0), self.count(rng, 1));
                    if rng.gen_bool(0.5) {
                        next_gseq = self.far(rng);
                    } else {
                        hops = self.far(rng);
                    }
                    Wire::Token { next_gseq, hops }
                }
                // Acks no pass: a pass's hops are honest.
                5 => Wire::TokenAck {
                    hops: self.far(rng),
                },
                6 => {
                    let epoch = pick(rng, &[0, 1, 2]);
                    let acked = if member && epoch == 1 {
                        let far = self.far(rng);
                        pick(rng, &[self.honest + 1, far])
                    } else {
                        self.count(rng, 1)
                    };
                    Wire::PcAck { from, epoch, acked }
                }
                7 => {
                    let (mut id, mut link_seq) = (self.id(rng), self.count(rng, 1));
                    let epoch = pick(rng, &[0, 1, 2]);
                    match rng.gen_range(0..3) {
                        _ if !member => {}
                        0 => id.sender = self.outsider(rng),
                        1 => id.seq = self.far(rng),
                        _ if epoch == 1 => link_seq = self.far(rng),
                        _ => {}
                    }
                    Wire::PcSkip {
                        from,
                        epoch,
                        link_seq,
                        id,
                    }
                }
                // Membership traffic: no endpoint's business.
                _ => self.membership(rng),
            }
        }

        /// A `Flush`, `FlushOk`, `Install` or `Heartbeat` with a sender,
        /// a member or a clock width out, or a view with nobody in it.
        fn membership(&self, rng: &mut SmallRng) -> Wire<u64> {
            let n = self.n;
            let (mut view, mut clock, mut from) =
                (self.view(rng), self.clock(rng), self.member(rng));
            let spoil_view = |rng: &mut SmallRng, view: &mut View| {
                if rng.gen_bool(0.5) {
                    view.members.clear();
                } else {
                    view.members.push(ProcessId(self.outsider(rng)));
                }
            };
            match rng.gen_range(0..4) {
                0 => {
                    match rng.gen_range(0..2) {
                        0 => from = self.outsider(rng),
                        _ => spoil_view(rng, &mut view),
                    }
                    Wire::Flush {
                        proposed: view,
                        from,
                    }
                }
                1 => {
                    match rng.gen_range(0..2) {
                        0 => from = self.outsider(rng),
                        _ => clock = VectorClock::new(pick(rng, &[0, n - 1, n + 1])),
                    }
                    Wire::FlushOk {
                        view_id: view.id,
                        from,
                        delivered: clock,
                    }
                }
                2 => {
                    match rng.gen_range(0..2) {
                        0 => spoil_view(rng, &mut view),
                        _ => clock = VectorClock::new(pick(rng, &[0, n - 1, n + 1])),
                    }
                    Wire::Install { view, cut: clock }
                }
                _ => Wire::Heartbeat {
                    from: self.outsider(rng),
                    view_id: view.id,
                },
            }
        }

        fn hostile(&self, rng: &mut SmallRng) -> Wire<u64> {
            match rng.gen_range(0..4) {
                0 => self.data(rng),
                1 => self.stamped(rng),
                _ => self.control(rng),
            }
        }
    }

    /// What a case does, apart from the hostile wires: who multicasts
    /// between ticks.
    #[derive(Clone, Copy)]
    enum Step {
        Multicast(usize),
        Tick,
    }

    type Log = Vec<(MsgId, u64, Option<u64>)>;

    /// Runs `plan` over a FIFO network that loses nothing, then ticks
    /// until all is delivered. Before each wire the victim receives,
    /// `inject` hands it hostile ones; after each, the victim's maps and
    /// buffers must hold no more than the run's honest multicasts.
    fn run(
        (d, discipline): (Discipline, CausalDiscipline),
        cfg: &GroupConfig,
        n: usize,
        plan: &[Step],
        victim: usize,
        mut inject: impl FnMut(&Ctx) -> Option<Wire<u64>>,
    ) -> (Vec<Log>, u64) {
        let cfg = GroupConfig {
            discipline,
            ..cfg.clone()
        };
        let mut eps: Vec<Endpoint<u64>> = (0..n)
            .map(|i| Endpoint::new(d, i, n, cfg.clone()))
            .collect();
        let mut logs: Vec<Log> = vec![Vec::new(); n];
        let mut queue = VecDeque::new();
        let sent = plan
            .iter()
            .filter(|s| matches!(s, Step::Multicast(_)))
            .count();
        let bound = sent as f64;
        let honest = (sent + plan.len() * n + n) as u64;
        let route = |queue: &mut VecDeque<_>, from: usize, out: Vec<Out<u64>>| {
            for (dest, w) in out {
                match dest {
                    Dest::All => {
                        queue.extend((0..n).filter(|&k| k != from).map(|k| (k, w.clone())))
                    }
                    Dest::One(k) => {
                        assert!(k < n, "a reply to member {k} of {n}");
                        queue.push_back((k, w));
                    }
                }
            }
        };
        let log = |logs: &mut Vec<Log>, who: usize, dels: Vec<Delivery<u64>>| {
            for del in dels {
                assert_ne!(
                    del.payload, FORGED,
                    "member {who} delivered a forged {}",
                    del.id
                );
                logs[who].push((del.id, del.payload, del.gseq));
            }
        };
        let mut now = SimTime::ZERO;
        let mut mine = vec![0u64; n];
        let tail = [Step::Tick; 60];
        for &step in plan.iter().chain(&tail) {
            match step {
                Step::Multicast(who) => {
                    mine[who] += 1;
                    let (dels, out) = eps[who].multicast(now, ((who as u64) << 32) | mine[who]);
                    log(&mut logs, who, dels);
                    route(&mut queue, who, out);
                }
                Step::Tick => {
                    now += cfg.tick_interval;
                    for (who, ep) in eps.iter_mut().enumerate() {
                        route(&mut queue, who, ep.on_tick(now));
                    }
                }
            }
            while let Some((to, w)) = queue.pop_front() {
                if to == victim {
                    let ctx = Ctx {
                        d,
                        n,
                        victim,
                        delivered: (0..n)
                            .map(|s| {
                                logs[victim]
                                    .iter()
                                    .filter(|(id, ..)| id.sender == s)
                                    .count() as u64
                            })
                            .collect(),
                        honest,
                    };
                    if let Some(h) = inject(&ctx) {
                        let (dels, out) = eps[victim].on_wire(now, h);
                        log(&mut logs, victim, dels);
                        route(&mut queue, victim, out);
                        let ep = &eps[victim];
                        ep.protocol().sample(&mut |name, value| {
                            if !name.ends_with("_bytes") {
                                assert!(value <= bound, "{name} = {value} > {bound}");
                            }
                        });
                        let slots = ep.causal_core().map_or(0, |c| c.windows.open_slots());
                        let s = ep.stats();
                        for (what, len) in [
                            ("open slots", slots as u64),
                            ("holdback", s.holdback_now),
                            ("buffered", s.buffered_now),
                        ] {
                            assert!(len as f64 <= bound, "{what} = {len} > {bound}");
                        }
                    }
                }
                let (dels, out) = eps[to].on_wire(now, w);
                log(&mut logs, to, dels);
                route(&mut queue, to, out);
            }
        }
        let refused = eps[victim].stats().ts_decode_errors;
        (logs, refused)
    }

    /// Hostile wires between the honest ones of every discipline: no
    /// panic, every map and buffer bounded by the honest multicasts, and
    /// every member's delivery log, forged or not, the log of the run
    /// without them.
    #[test]
    fn hostile_wires_change_no_delivery() {
        let mut refused = 0;
        for case in 0..CASES {
            for (i, &discipline) in DISCIPLINES.iter().enumerate() {
                let seed = case << 8 | i as u64;
                eprintln!("case {case}, seed {seed}: {discipline:?}");
                let mut rng = SmallRng::seed_from_u64(seed);
                let n = rng.gen_range(2..=4);
                let cfg = GroupConfig {
                    delta_timestamps: rng.gen_bool(0.5),
                    append_predecessors: rng.gen_bool(0.25),
                    ..GroupConfig::default()
                };
                let mut plan = Vec::new();
                for _ in 0..rng.gen_range(1..=4) {
                    plan.extend((0..n).filter(|_| rng.gen_bool(0.6)).map(Step::Multicast));
                    plan.push(Step::Tick);
                }
                let victim = rng.gen_range(0..n);
                let sent = plan
                    .iter()
                    .filter(|s| matches!(s, Step::Multicast(_)))
                    .count();
                let (clean, _) = run(discipline, &cfg, n, &plan, victim, |_| None);
                for (who, log) in clean.iter().enumerate() {
                    assert_eq!(
                        log.len(),
                        sent,
                        "case {case}: member {who} of the clean run"
                    );
                }
                let mut hostile = SmallRng::seed_from_u64(!seed);
                let (logs, count) = run(discipline, &cfg, n, &plan, victim, |ctx| {
                    hostile.gen_bool(0.5).then(|| ctx.hostile(&mut hostile))
                });
                assert_eq!(logs, clean, "case {case}, seed {seed}: {discipline:?}");
                refused += count;
            }
        }
        assert!(
            refused > CASES,
            "{refused} refusals: the fuzz reaches the door"
        );
    }

    /// A view change with hostile membership wires fed to its members:
    /// each is refused whole — no action, nothing sent, nothing but the
    /// refusal count moved — and every member ends where it would have.
    #[test]
    fn hostile_membership_wires_are_refused_whole() {
        for case in 0..CASES {
            eprintln!("case {case}, seed {case}: membership");
            let mut rng = SmallRng::seed_from_u64(case);
            let n = rng.gen_range(3..=5);
            let clocks: Vec<VectorClock> = (0..n)
                .map(|_| VectorClock::from_entries((0..n).map(|_| rng.gen_range(0..4)).collect()))
                .collect();
            let masked = |m: &MembershipEngine| {
                let refused = format!("rejected_foreign: {}", m.stats().rejected_foreign);
                format!("{m:?}").replace(&refused, "")
            };
            let mut hostile = SmallRng::seed_from_u64(!case);
            let mut run = |inject: bool| {
                let mut engines: Vec<_> = (0..n).map(|i| MembershipEngine::new(i, n)).collect();
                let dead = n - 1;
                let (_, out) = engines[0].suspect::<u64>(SimTime::ZERO, &[dead], &clocks[0]);
                let mut queue: VecDeque<_> = out.into_iter().map(|o| (0, o)).collect();
                while let Some((from, (dest, w))) = queue.pop_front() {
                    let to: Vec<usize> = match dest {
                        Dest::All => (0..n).filter(|&k| k != from).collect(),
                        Dest::One(k) => vec![k],
                    };
                    for k in to.into_iter().filter(|&k| k != dead) {
                        let now = SimTime::from_millis(1);
                        while inject && hostile.gen_bool(0.5) {
                            let ctx = Ctx {
                                d: Discipline::Causal,
                                n,
                                victim: k,
                                delivered: (0..n).map(|s| clocks[k].get(s)).collect(),
                                honest: 8,
                            };
                            let h = ctx.membership(&mut hostile);
                            let (before, count) =
                                (masked(&engines[k]), engines[k].stats().rejected_foreign);
                            let (action, out) = engines[k].on_wire(now, &h, &clocks[k]);
                            let whole = action == FlushAction::None && out.is_empty();
                            assert!(whole, "case {case}: {h:?} answered {action:?}, {out:?}");
                            assert_eq!(masked(&engines[k]), before, "case {case}: {h:?}");
                            assert_eq!(
                                engines[k].stats().rejected_foreign,
                                count + 1,
                                "case {case}: {h:?}"
                            );
                        }
                        let (_, out) = engines[k].on_wire(now, &w, &clocks[k]);
                        queue.extend(out.into_iter().map(|o| (k, o)));
                    }
                }
                engines.iter().map(masked).collect::<Vec<_>>()
            };
            let clean = run(false);
            assert_eq!(run(true), clean, "case {case}");
        }
    }
}
