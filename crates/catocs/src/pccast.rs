//! Constant-metadata causal broadcast (`pccast`).
//!
//! This is the PC-broadcast design \[Nédelec, Molli, Mostéfaoui:
//! "Breaking the Scalability Barrier of Causal Broadcast"\] with
//! Almeida-style hybrid buffering \["Space-Optimal, Computation-Optimal
//! … Causal Delivery through Hybrid Buffering"\]: instead of stamping
//! every multicast with an N-wide vector clock (the §3.4 overhead the
//! paper criticizes, and what `cbcast` pays), each copy carries only a
//! constant-size `(epoch, forwarder, link_seq)` tag and rides a reliable
//! FIFO *link* of a sparse dissemination overlay.
//!
//! Causal safety comes from the dissemination discipline, not from
//! metadata:
//!
//! - every process forwards **every** message it delivers — its own and
//!   everyone else's, including repair-path deliveries — on each of its
//!   outgoing overlay links, in delivery order;
//! - links are FIFO (per-link sequence numbers, a per-link reorder
//!   buffer on the receive side) and reliable (cumulative per-link
//!   acknowledgements drive sender-side retransmission);
//! - therefore, by induction, when a copy of `m` surfaces at the head of
//!   an in-order link, every causal predecessor of `m` was either carried
//!   earlier on that same link (and consumed — delivered or recognized as
//!   a duplicate) or is already delivered here via another link. The
//!   head is deliverable on sight if it is the origin's next message.
//!
//! The overlay is a ring over the live member indices (degree ≤ 2), so
//! per-multicast traffic is `O(N)` copies of constant size — the same
//! copy count as cbcast's broadcast, with `O(1)` instead of `O(N)` bytes
//! of ordering metadata per copy. The receive path does `O(log L)` work
//! per event (a reorder-buffer probe) instead of vector comparisons —
//! the hybrid-buffering trade: buffer *messages* briefly per link instead
//! of carrying *control state* on every message.
//!
//! Loss on a link is the link's own business: the receiver acks its
//! cursor on every tick and the forwarder re-serves the unacked tail (or a
//! skip marker for what went stable). Three situations fall outside the
//! fast path and reuse the `cbcast` machinery as a repair bridge:
//!
//! - **Gossip-revealed gaps**: data carries no stamp, so tick gossip
//!   (`AckGossip`, the delivered clock) is the only cross-link gap
//!   detector. It reaches every member in one hop, while the flooding
//!   takes up to N/2 ring hops, so the far side of the ring usually learns
//!   of a message from gossip first. Such an id is NACKed at once, to the
//!   gossiper alone — it delivered the id, so it still holds it — and the
//!   full-stamped reply delivers through the ordinary holdback queue; the
//!   link copy, when it comes, is consumed as a duplicate. If that NACK or
//!   its reply is lost, the id is asked of everyone at the first tick at
//!   least one `tick_interval` later, then every `NACK_TIMEOUT`; ids past
//!   one NACK's cap are asked of everyone at the next tick. (Waiting a
//!   `NACK_TIMEOUT` for that first retry put the ~6 % of unicast repairs
//!   that lose a copy 20 ms behind, and raised `dense_pccast`'s p99.) The
//!   rule is `causal_core`'s, shared with `cbcast`.
//! - **Holes**: a link head that is *not* the origin's next message
//!   (possible only around view changes and garbage-collected skips)
//!   stalls its link — the cursor never advances past an unconsumable
//!   head — and the gap is chased by the next tick's NACK to everyone.
//!   The repair copy delivers through the holdback queue, after which the
//!   stalled head resolves as a duplicate or becomes deliverable.
//! - **View changes**: links are epoch-tagged with the view id and reset
//!   at install. A fresh link cannot vouch for deliveries that predate
//!   it, so delivery from new-epoch links is barred until this member
//!   has delivered everything up to the flush cut (all of which is
//!   recoverable from the survivors — the virtual-synchrony contract).
//!
//! Stability, garbage collection, flush/freeze and the chase/NACK
//! machinery are shared with `cbcast` (`causal_core`; pccast never
//! piggybacks clocks on data). A repair copy travels with a **full**
//! vector timestamp, 8N + 4 bytes: repair is where pccast pays §3.4's
//! per-message cost. The buffered-bytes gauge charges each retained
//! message its constant wire tag, not a vector: the full timestamp kept
//! alongside for NACK repair is cold-path bookkeeping, not hot-path wire
//! state.

use crate::causal_core::{span_of, CausalCore, Slot, MAX_CHASE_AHEAD};
use crate::endpoint::{CausalProtocol, Protocol};
use crate::group::{GroupConfig, MsgId, NACK_TIMEOUT};
use crate::holdback::Pending;
use crate::waitgraph::{WaitNode, WaitReason, WaitRecord};
use crate::wire::{DataMsg, Delivery, Dest, EndpointStats, Out, Refusal, VtWire, Wire};
use clocks::vector::VectorClock;
use simnet::obs::{LatencyPhase, ObsEvent, PhaseEdge, PhaseKind, ProbeHandle, Stage};
use simnet::time::SimTime;
use std::collections::BTreeMap;

/// One position of an incoming link's reorder buffer.
#[derive(Debug)]
enum LinkCopy<P> {
    /// A data copy, with its physical arrival time.
    Data(SimTime, DataMsg<P>),
    /// The forwarder garbage-collected this position's payload as stable;
    /// the id consumes like a duplicate once delivered here.
    Skip(MsgId),
}

/// Send side of one overlay link.
#[derive(Debug, Default)]
struct OutLink {
    /// Highest link sequence number used (1-based; 0 = nothing sent).
    next_seq: u64,
    /// ARQ window: unacknowledged `link_seq → MsgId`.
    log: BTreeMap<u64, MsgId>,
    /// Last time unacked entries were re-served (throttles resends).
    last_resend: SimTime,
}

/// Receive side of one overlay link.
#[derive(Debug)]
struct InLink<P> {
    /// Highest consecutively consumed link sequence number.
    cursor: u64,
    /// Out-of-order (or stalled) copies, by link sequence.
    buf: BTreeMap<u64, LinkCopy<P>>,
}

impl<P> InLink<P> {
    fn new() -> Self {
        InLink {
            cursor: 0,
            buf: BTreeMap::new(),
        }
    }
}

/// The constant-metadata causal multicast endpoint for one group member.
///
/// Same shape as [`crate::cbcast::CbcastEndpoint`]: a pure state machine
/// fed the current time and wire messages, returning deliveries and
/// outbound messages, so the same harnesses, chaos campaigns and probes
/// drive either discipline.
#[derive(Debug)]
pub struct PccastEndpoint<P> {
    /// Clock, unstable buffer, stability, NACK repair, view membership
    /// and the flush freeze — shared with cbcast. Its holdback queue is
    /// pccast's repair path: full-timestamped retransmissions wait there
    /// under the ordinary cbcast deliverability rule. The delivered clock
    /// is local bookkeeping only; it never rides on data (that is the
    /// whole point).
    core: CausalCore<P>,
    /// Current view id; copies from other epochs are discarded (their
    /// links restart from sequence 1 after an install).
    epoch: u64,
    /// Send side of each outgoing overlay link, by peer member index.
    links_out: BTreeMap<usize, OutLink>,
    /// Receive side of each incoming overlay link, by peer member index.
    links_in: BTreeMap<usize, InLink<P>>,
    /// This member's overlay neighbours (`ring`), recomputed only when
    /// membership changes, at a view install.
    neighbors: Vec<usize>,
    /// Post-install delivery barrier: fast-path delivery from the fresh
    /// links is barred until `vt` dominates the flush cut, because a
    /// fresh link cannot vouch for causal predecessors delivered before
    /// it existed.
    barrier_met: bool,
}

impl<P: Clone> PccastEndpoint<P> {
    /// Creates the endpoint for member `me` of a group of `n`.
    pub fn new(me: usize, n: usize, cfg: GroupConfig) -> Self {
        // Buffered-bytes gauge — constant per-message wire state: id +
        // Pc tag + retransmit flag. (The full clock retained for NACK
        // repair is deliberately not charged — see the module docs.)
        let core = CausalCore::new(me, n, cfg, 12 + 20 + 1);
        PccastEndpoint {
            neighbors: ring(me, &core.alive),
            core,
            epoch: 1,
            links_out: BTreeMap::new(),
            links_in: BTreeMap::new(),
            barrier_met: true,
        }
    }

    /// The shared reliability shell: clock, stats, stability, buffer and
    /// holdback gauges, the flush freeze.
    pub fn core(&self) -> &CausalCore<P> {
        &self.core
    }

    /// Mutable access to the shell, for `set_probe` and `freeze`.
    pub fn core_mut(&mut self) -> &mut CausalCore<P> {
        &mut self.core
    }

    /// Copies sitting in the per-link reorder buffers (the hybrid-buffer
    /// depth).
    pub fn link_buffered_len(&self) -> usize {
        self.links_in.values().map(|l| l.buf.len()).sum()
    }

    /// Resolves a link-slot position against this sender's ARQ window:
    /// which message occupies sequence `seq` on the outgoing link to
    /// `to`. `None` once acked away (or never sent) — the wait-graph
    /// collector keeps the raw slot node in that case.
    pub(crate) fn link_log_lookup(&self, to: usize, seq: u64) -> Option<MsgId> {
        self.links_out.get(&to)?.log.get(&seq).copied()
    }

    /// Forwards a delivered message on every outgoing overlay link with a
    /// fresh per-link sequence tag. This is the flooding rule the whole
    /// discipline rests on: *every* delivery goes out on *every* link, in
    /// delivery order.
    fn forward(&mut self, msg: &DataMsg<P>, out: &mut Vec<Out<P>>) {
        for &nb in &self.neighbors {
            let link = self.links_out.entry(nb).or_default();
            link.next_seq += 1;
            let seq = link.next_seq;
            link.log.insert(seq, msg.id);
            let mut copy = msg.clone();
            copy.vt_wire = VtWire::Pc {
                epoch: self.epoch,
                from: self.core.me,
                link_seq: seq,
            };
            copy.retransmit = false;
            copy.appended.clear();
            out.push((Dest::One(nb), Wire::Data(copy)));
        }
    }

    /// Whether `vt` dominates the flush cut, which only an install moves.
    fn check_barrier(&self) -> bool {
        self.core.vt.lagging(&self.core.cut).next().is_none()
    }

    /// Multicasts `payload` to the group. The self-delivery is immediate;
    /// the outbound copies are the per-link forwards.
    pub fn multicast(&mut self, now: SimTime, payload: P) -> (Delivery<P>, Vec<Out<P>>) {
        let id = self.core.begin_send(now);
        // The buffered master copy keeps the full clock for NACK repair;
        // its wire tag is a placeholder (every outbound copy is re-tagged
        // per link, and retransmissions go out `make_full`).
        let msg = DataMsg {
            id,
            vt: self.core.vt.clone(),
            vt_wire: VtWire::Pc {
                epoch: self.epoch,
                from: self.core.me,
                link_seq: 0,
            },
            payload: payload.clone(),
            retransmit: false,
            appended: Vec::new(),
        };
        let mut out = Vec::new();
        self.forward(&msg, &mut out);
        self.core.stats.book(self.core.me, &out);
        (self.core.finish_send(now, msg, payload), out)
    }

    /// Handles an incoming wire message. Returns app deliveries (in
    /// causal order) and outbound messages (forwarded copies, acks,
    /// NACKs, retransmits).
    pub fn on_wire(&mut self, now: SimTime, wire: Wire<P>) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        Protocol::on_wire(self, now, wire)
    }

    /// A neighbour reports its consumption cursor for our link: drop the
    /// acknowledged ARQ window and re-serve anything still outstanding
    /// (throttled), falling back to [`Wire::PcSkip`] for positions whose
    /// payload was garbage-collected as stable.
    fn on_pc_ack(
        &mut self,
        now: SimTime,
        from: usize,
        epoch: u64,
        acked: u64,
        out: &mut Vec<Out<P>>,
    ) {
        if epoch != self.epoch {
            return;
        }
        let Some(link) = self.links_out.get_mut(&from) else {
            return;
        };
        link.log = link.log.split_off(&(acked + 1));
        let outstanding = link.log.len();
        self.core.probe.emit_phase(|| ObsEvent::Phase {
            at: now,
            who: self.core.me,
            kind: PhaseKind::LinkAck,
            edge: PhaseEdge::Point,
            note: format!("p{from} acked {acked}, {outstanding} outstanding"),
        });
        if link.log.is_empty() {
            return;
        }
        if now.saturating_since(link.last_resend) < NACK_TIMEOUT
            && link.last_resend != SimTime::ZERO
        {
            return;
        }
        link.last_resend = now;
        let resend: Vec<(u64, MsgId)> = link
            .log
            .iter()
            .take(self.core.cfg.max_nack_batch)
            .map(|(&s, &id)| (s, id))
            .collect();
        for (link_seq, id) in resend {
            let w = if let Some(m) = self.core.windows.get_mut(id) {
                let mut copy = m.clone();
                copy.vt_wire = VtWire::Pc {
                    epoch: self.epoch,
                    from: self.core.me,
                    link_seq,
                };
                copy.retransmit = true;
                copy.appended.clear();
                self.core.stats.retransmits_served += 1;
                Wire::Data(copy)
            } else {
                // Stable and reclaimed: the receiver necessarily
                // delivered it (stability is known-delivered-everywhere),
                // so a skip marker keeps its link cursor moving.
                Wire::PcSkip {
                    from: self.core.me,
                    epoch: self.epoch,
                    link_seq,
                    id,
                }
            };
            out.push((Dest::One(from), w));
        }
    }

    /// First stage of receiving a data copy: dispatch on the wire tag.
    /// Pc-tagged copies join their link's reorder buffer; full-stamped
    /// copies (flush/NACK retransmissions) go through the holdback repair
    /// path. Delta encodings, and the counter stamps of fbcast and the
    /// token ring, never occur in pccast: they are refused as undecodable.
    fn accept_data(
        &mut self,
        now: SimTime,
        mut msg: DataMsg<P>,
        out: &mut Vec<Out<P>>,
        delivered: &mut Vec<Delivery<P>>,
    ) {
        if !self.core.arrive(now, &msg) {
            return;
        }
        match msg.vt_wire {
            VtWire::Pc {
                epoch,
                from,
                link_seq,
            } => {
                if epoch != self.epoch {
                    // A straggler from a previous view's links; whatever
                    // it carried is recovered via flush/NACK if needed.
                    self.core.note_gone(now, msg.id, Stage::Dropped, || {
                        format!("stale epoch {epoch} (at {})", self.epoch)
                    });
                    return;
                }
                let span = span_of(msg.id);
                let link = self.links_in.entry(from).or_insert_with(InLink::new);
                if link_seq > link.cursor {
                    let cursor = link.cursor;
                    let fresh = !link.buf.contains_key(&link_seq);
                    link.buf.entry(link_seq).or_insert(LinkCopy::Data(now, msg));
                    if fresh {
                        self.core.probe.emit(|| ObsEvent::Span {
                            at: now,
                            who: self.core.me,
                            span,
                            stage: Stage::ReorderEnter,
                            note: format!("link p{from} pos {link_seq}, cursor {cursor}"),
                        });
                    }
                } else {
                    self.core.stats.duplicates += 1;
                }
                self.drain(now, delivered, out);
            }
            VtWire::Full(ref bytes) => {
                // A duplicate is dropped before its N-wide stamp is read.
                self.core.stats.holdback_events += 1;
                if self.core.reject_duplicate(now, msg.id) {
                    return;
                }
                let decoded = VectorClock::decode(bytes);
                if let Some(vt) = self.core.checked_vt(now, &msg, decoded, "timestamp") {
                    msg.vt = vt;
                    self.on_repair_data(now, msg, out, delivered);
                }
            }
            VtWire::Delta(_) | VtWire::Id | VtWire::Gseq(_) => {
                self.core.stats.refuse(Refusal::Undecodable)
            }
        }
    }

    /// A full-timestamped repair copy, not a duplicate, its stamp decoded:
    /// the rest of the cbcast receive path (missing registration from the
    /// carried clock — only repair copies carry timestamps to scan — then
    /// holdback).
    fn on_repair_data(
        &mut self,
        now: SimTime,
        msg: DataMsg<P>,
        out: &mut Vec<Out<P>>,
        delivered: &mut Vec<Delivery<P>>,
    ) {
        let core = &mut self.core;
        core.probe.emit(|| ObsEvent::Span {
            at: now,
            who: core.me,
            span: span_of(msg.id),
            stage: Stage::HoldbackEnter,
            note: "repair copy".to_string(),
        });
        core.hold(now, msg, out);
        core.note_holdback();
        self.drain(now, delivered, out);
        self.core.collect_garbage(now);
    }

    /// Drives both delivery paths to a fixed point: consume in-order link
    /// heads (fast path) and drain the holdback queue (repair path),
    /// alternating until neither makes progress — a repair delivery can
    /// unstall a link head and vice versa.
    fn drain(&mut self, now: SimTime, delivered: &mut Vec<Delivery<P>>, out: &mut Vec<Out<P>>) {
        if self.core.is_frozen() {
            self.core.note_holdback();
            return;
        }
        loop {
            let links = self.drain_links(now, delivered, out);
            let repair = self.drain_holdback(now, delivered, out);
            if !links && !repair {
                break;
            }
        }
        self.core.note_holdback();
        self.core.note_buffer();
    }

    /// Consumes in-order link heads. Check-before-consume: the cursor
    /// never advances past a head that cannot be consumed (delivered,
    /// recognized as duplicate, or provably never-deliverable), so the
    /// link's causal vouching is preserved. Returns whether anything was
    /// consumed.
    fn drain_links(
        &mut self,
        now: SimTime,
        delivered: &mut Vec<Delivery<P>>,
        out: &mut Vec<Out<P>>,
    ) -> bool {
        let mut any = false;
        let peers: Vec<usize> = self.links_in.keys().copied().collect();
        for peer in peers {
            loop {
                let core = &self.core;
                let link = self.links_in.get_mut(&peer).expect("link exists");
                let next = link.cursor + 1;
                let head_action = match link.buf.get(&next) {
                    None => HeadAction::Stop,
                    Some(LinkCopy::Skip(id)) => {
                        if id.seq <= core.vt.get(id.sender) || core.beyond_cut(*id) {
                            HeadAction::Consume
                        } else {
                            HeadAction::Chase(*id)
                        }
                    }
                    Some(LinkCopy::Data(_, msg)) => {
                        let o = msg.id.sender;
                        let s = msg.id.seq;
                        if s <= core.vt.get(o) {
                            HeadAction::ConsumeDup
                        } else if core.beyond_cut(msg.id) {
                            HeadAction::Consume
                        } else if s == core.vt.get(o) + 1
                            && self.barrier_met
                            && !matches!(core.windows.slot(msg.id), Some(Slot::Held { .. }))
                        {
                            // The holdback check keeps the two delivery
                            // paths from double-claiming one message: if a
                            // repair copy of this very id is already held,
                            // the repair path owns the delivery and this
                            // head resolves as a duplicate afterwards.
                            HeadAction::Deliver
                        } else {
                            HeadAction::Chase(MsgId {
                                sender: o,
                                seq: core.vt.get(o) + 1,
                            })
                        }
                    }
                };
                match head_action {
                    HeadAction::Stop => break,
                    HeadAction::Consume => {
                        let removed = link.buf.remove(&next);
                        link.cursor = next;
                        if let Some(LinkCopy::Skip(id)) = removed {
                            core.probe.emit(|| ObsEvent::Span {
                                at: now,
                                who: core.me,
                                span: span_of(id),
                                stage: Stage::SkipConsume,
                                note: format!("link p{peer} pos {next}"),
                            });
                        }
                        any = true;
                    }
                    HeadAction::ConsumeDup => {
                        link.buf.remove(&next);
                        link.cursor = next;
                        self.core.stats.duplicates += 1;
                        any = true;
                    }
                    HeadAction::Deliver => {
                        let Some(LinkCopy::Data(arrived_at, msg)) = link.buf.remove(&next) else {
                            unreachable!("head was just matched as data");
                        };
                        link.cursor = next;
                        self.deliver(now, arrived_at, msg, LatencyPhase::Reorder, delivered, out);
                        any = true;
                    }
                    HeadAction::Chase(id) => {
                        // Stall until the repair path moves the clock: the
                        // tick NACK loop chases the gap, unless it is held.
                        self.core.windows.chase(id, peer);
                        break;
                    }
                }
            }
        }
        any
    }

    /// Drains the repair path (ordinary cbcast deliverability on full
    /// timestamps). Returns whether anything was delivered.
    fn drain_holdback(
        &mut self,
        now: SimTime,
        delivered: &mut Vec<Delivery<P>>,
        out: &mut Vec<Out<P>>,
    ) -> bool {
        let mut any = false;
        while let Some(Pending { msg, arrived_at }) = self.core.holdback.pop_ready(&self.core.vt) {
            self.deliver(now, arrived_at, msg, LatencyPhase::Repair, delivered, out);
            any = true;
        }
        any
    }

    /// The single delivery point for both paths: advance the clock,
    /// record stability, retain for retransmission, and — crucially —
    /// forward the message on every outgoing link. Ledger attribution: a
    /// link-path delivery waited on its per-link reorder cursor, a
    /// repair-path one on a NACK retransmission.
    fn deliver(
        &mut self,
        now: SimTime,
        arrived_at: SimTime,
        msg: DataMsg<P>,
        phase: LatencyPhase,
        delivered: &mut Vec<Delivery<P>>,
        out: &mut Vec<Out<P>>,
    ) {
        let id = msg.id;
        debug_assert_eq!(id.seq, self.core.vt.get(id.sender) + 1, "FIFO delivery");
        let was_held = self.core.begin_delivery(now, arrived_at, id);
        if !self.barrier_met {
            self.barrier_met = self.check_barrier();
        }
        if was_held {
            self.core.emit_hold_waits(now, arrived_at, id, phase, None);
        }
        self.forward(&msg, out);
        self.core
            .finish_delivery(now, arrived_at, msg, Vec::new(), delivered);
    }
}

/// The overlay neighbours of member `me` given who is `alive`: its
/// predecessor and successor in the ring over live member indices.
/// Degenerates gracefully: one neighbour in a pair, none when alone or
/// evicted.
fn ring(me: usize, alive: &[bool]) -> Vec<usize> {
    let live: Vec<usize> = (0..alive.len()).filter(|&s| alive[s]).collect();
    let Some(k) = live.iter().position(|&s| s == me) else {
        return Vec::new();
    };
    let m = live.len();
    if m <= 1 {
        return Vec::new();
    }
    let prev = live[(k + m - 1) % m];
    let next = live[(k + 1) % m];
    if prev == next {
        vec![next]
    } else {
        vec![prev, next]
    }
}

/// What to do with the head of an in-order link.
enum HeadAction {
    /// Nothing at the cursor — wait for the gap to fill (ARQ).
    Stop,
    /// Consume silently (satisfied skip, never-deliverable data).
    Consume,
    /// Consume as an already-delivered duplicate.
    ConsumeDup,
    /// Deliver the head.
    Deliver,
    /// Stall the link and chase the blocking id via NACK.
    Chase(MsgId),
}

impl<P: Clone> Protocol<P> for PccastEndpoint<P> {
    fn set_probe(&mut self, probe: ProbeHandle) {
        self.core.set_probe(probe)
    }

    fn multicast(&mut self, now: SimTime, payload: P) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        let (own, out) = PccastEndpoint::multicast(self, now, payload);
        (vec![own], out)
    }

    fn n(&self) -> usize {
        self.core.n
    }

    /// An id far past its sender's delivered count, and in this epoch a
    /// link position far past its cursor or an ack for more than was sent.
    fn out_of_reach(&self, wire: &Wire<P>) -> bool {
        let far = |epoch, from, link_seq: u64| {
            let cursor = self.links_in.get(&from).map_or(0, |l| l.cursor);
            epoch == self.epoch && link_seq.saturating_sub(cursor) > MAX_CHASE_AHEAD
        };
        match *wire {
            Wire::Data(ref msg) => match msg.vt_wire {
                VtWire::Pc {
                    epoch,
                    from,
                    link_seq,
                } if far(epoch, from, link_seq) => true,
                _ => self.core.out_of_reach(msg.id),
            },
            Wire::PcSkip {
                from,
                epoch,
                link_seq,
                id,
            } => far(epoch, from, link_seq) || self.core.out_of_reach(id),
            Wire::PcAck { from, epoch, acked } => {
                epoch == self.epoch && acked > self.links_out.get(&from).map_or(0, |l| l.next_seq)
            }
            _ => false,
        }
    }

    fn receive(&mut self, now: SimTime, wire: Wire<P>) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        let mut out = Vec::new();
        let mut delivered = Vec::new();
        match wire {
            Wire::Data(msg) => {
                self.core.stats.data_received += 1;
                self.accept_data(now, msg, &mut out, &mut delivered);
            }
            Wire::PcAck { from, epoch, acked } => {
                self.on_pc_ack(now, from, epoch, acked, &mut out);
            }
            Wire::PcSkip {
                from,
                epoch,
                link_seq,
                id,
            } if epoch == self.epoch => {
                let link = self.links_in.entry(from).or_insert_with(InLink::new);
                if link_seq > link.cursor {
                    link.buf.entry(link_seq).or_insert(LinkCopy::Skip(id));
                }
                self.drain(now, &mut delivered, &mut out);
            }
            // Gossip is pccast's only cross-link gap detector (data
            // carries no clocks).
            Wire::AckGossip { from, delivered: d } => {
                self.core.on_ack_gossip(now, from, &d, &mut out)
            }
            Wire::Nack { from, want } => self.core.serve_nack(from, want, &mut out),
            // Membership traffic is the composing endpoint's business.
            _ => {}
        }
        self.core.stats.holdback_work = self.core.holdback.work();
        self.core.stats.book(self.core.me, &out);
        (delivered, out)
    }

    /// Periodic maintenance: ack gossip (stability + gap detection),
    /// per-link cumulative acks (loss recovery), NACK retries. The order
    /// of `out` is the order the network draws loss in.
    fn on_tick(&mut self, now: SimTime) -> Vec<Out<P>> {
        let mut out = Vec::new();
        self.core.gossip(now, &mut out);
        // Cumulative per-link acks to the overlay neighbours: tell each
        // forwarder how far its link has been consumed, so it can GC its
        // ARQ window and re-serve the tail.
        for &nb in &self.neighbors {
            let acked = self.links_in.get(&nb).map_or(0, |l| l.cursor);
            let w: Wire<P> = Wire::PcAck {
                from: self.core.me,
                epoch: self.epoch,
                acked,
            };
            out.push((Dest::One(nb), w));
        }
        self.core.renack_overdue(now, &mut out);
        self.core.stats.book(self.core.me, &out);
        out
    }

    fn stats(&self) -> &EndpointStats {
        self.core.stats()
    }

    fn stats_mut(&mut self) -> &mut EndpointStats {
        &mut self.core.stats
    }

    /// Telemetry hook: instantaneous queue depths and buffering gauges.
    fn sample(&self, emit: &mut dyn FnMut(&str, f64)) {
        emit("pccast.holdback", self.core.holdback_len() as f64);
        emit("pccast.linkbuf", self.link_buffered_len() as f64);
        emit("pccast.buffered", self.core.buffered_len() as f64);
        emit(
            "pccast.buffered_bytes",
            self.core.stats.buffered_bytes_now as f64,
        );
        emit("pccast.stability_lag", self.core.stability_lag() as f64);
    }

    /// What every blocked message here waits on (contract in
    /// [`crate::waitgraph`]): the repair path's holdback entries, exactly
    /// as in cbcast, then every undelivered data copy in a link reorder
    /// buffer (an already-delivered one is a duplicate awaiting
    /// consumption, not a blocked message). A copy behind its link's
    /// cursor waits on the position the cursor is stuck at — a
    /// [`WaitNode::LinkSlot`], which only the sender's ARQ log can put a
    /// message id to (`Self::link_log_lookup`). A link *head* waits on
    /// the origin-FIFO predecessors the link could not vouch for and on
    /// whatever gates the fast path; the sampler (`!every_gap`) is told
    /// the gate alone when there is one.
    fn wait_records(&self, every_gap: bool, emit: &mut dyn FnMut(&WaitRecord)) {
        self.core.wait_records(every_gap, emit);
        let me = self.core.me;
        let depth = if every_gap { usize::MAX } else { 1 };
        let mut waits = Vec::new();
        for (&peer, link) in &self.links_in {
            let head = link.cursor + 1;
            for (&pos, copy) in &link.buf {
                let LinkCopy::Data(at, msg) = copy else {
                    continue;
                };
                let origin = msg.id.sender;
                let have = self.core.vt.get(origin);
                if msg.id.seq <= have {
                    continue;
                }
                if pos > head {
                    let why = if !self.core.alive[peer] {
                        WaitReason::Severed
                    } else if let Some(LinkCopy::Skip(_)) = link.buf.get(&head) {
                        WaitReason::SkipPending
                    } else {
                        WaitReason::LinkGap
                    };
                    let slot = WaitNode::LinkSlot {
                        to: me,
                        from: peer,
                        seq: head,
                    };
                    waits.push((slot, why));
                } else {
                    let gate = if self.core.is_frozen() {
                        Some(WaitReason::Frozen)
                    } else if !self.barrier_met {
                        Some(WaitReason::FastPathBarred)
                    } else {
                        None
                    };
                    if every_gap || gate.is_none() {
                        let gaps = ((have + 1)..msg.id.seq).take(depth);
                        waits.extend(gaps.map(|seq| self.core.wait_on(origin, seq)));
                    }
                    waits.extend(gate.map(|why| (WaitNode::Proc(me), why)));
                }
                waits = self.core.emit_held(msg.id, *at, waits, emit);
            }
        }
    }

    fn buffered_len(&self) -> usize {
        self.core.buffered_len()
    }
}

impl<P: Clone> CausalProtocol<P> for PccastEndpoint<P> {
    fn core(&self) -> &CausalCore<P> {
        &self.core
    }

    fn core_mut(&mut self) -> &mut CausalCore<P> {
        &mut self.core
    }

    /// Applies an installed view. Same contract as cbcast's, plus the
    /// pccast specifics: the epoch becomes the installed view id, every
    /// link resets, and the fast path is barred behind the flush cut
    /// (fresh links cannot vouch for pre-install deliveries).
    fn on_view_install(
        &mut self,
        now: SimTime,
        view_id: u64,
        members: &[usize],
        cut: &VectorClock,
    ) {
        self.core.install_view(now, members, cut);
        self.neighbors = ring(self.core.me, &self.core.alive);
        // Epoch turnover: the overlay is rebuilt over the survivors and
        // every link restarts from sequence 1. In-flight old-epoch copies
        // die on arrival; anything undelivered from the old view comes
        // back through the flush retransmissions and the NACK machinery.
        self.epoch = view_id;
        self.links_out.clear();
        let links = std::mem::take(&mut self.links_in).into_values();
        for copy in links.flat_map(|link| link.buf.into_values()) {
            if let LinkCopy::Data(_, msg) = copy {
                let note = || format!("link reset at view {view_id}");
                self.core.note_gone(now, msg.id, Stage::Dropped, note);
            }
        }
        self.barrier_met = self.check_barrier();
    }

    /// Ends the delivery blackout: thawed deliveries, forwarded copies.
    fn thaw(&mut self, now: SimTime) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        self.core.thaw(now);
        let mut delivered = Vec::new();
        let mut out = Vec::new();
        self.drain(now, &mut delivered, &mut out);
        self.core.end_thaw_drain();
        self.core.stats.book(self.core.me, &out);
        (delivered, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn trio() -> (
        PccastEndpoint<&'static str>,
        PccastEndpoint<&'static str>,
        PccastEndpoint<&'static str>,
    ) {
        let cfg = GroupConfig::default();
        (
            PccastEndpoint::new(0, 3, cfg.clone()),
            PccastEndpoint::new(1, 3, cfg.clone()),
            PccastEndpoint::new(2, 3, cfg),
        )
    }

    /// Delivers every copy addressed to `who` from `out`, returning its
    /// deliveries and any follow-on output.
    fn feed<P: Clone>(
        ep: &mut PccastEndpoint<P>,
        now: SimTime,
        out: &[Out<P>],
    ) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        let mut dels = Vec::new();
        let mut next = Vec::new();
        for (d, w) in out {
            if *d == Dest::One(ep.core().me) {
                let (ds, os) = ep.on_wire(now, w.clone());
                dels.extend(ds);
                next.extend(os);
            }
        }
        (dels, next)
    }

    /// A full-stamped copy is checked for a duplicate before its stamp is
    /// decoded: a malformed copy of a message delivered already is a
    /// duplicate, and only a malformed copy of a new one is a decode
    /// error.
    #[test]
    fn a_malformed_duplicate_counts_as_a_duplicate() {
        let (_, mut b, _) = trio();
        let id = |seq| MsgId { sender: 0, seq };
        let mut vt = VectorClock::new(3);
        vt.set(0, 1);
        let mut first = DataMsg::new(id(1), vt.clone(), "m1");
        first.retransmit = true;
        let (dels, _) = b.on_wire(t(1), Wire::Data(first.clone()));
        assert_eq!(dels.len(), 1);
        let malformed = |mut m: DataMsg<&'static str>| {
            m.vt_wire = VtWire::Full(std::sync::Arc::from(&[9u8, 0, 0, 0][..]));
            Wire::Data(m)
        };
        let stats = |b: &PccastEndpoint<&str>| {
            let s = b.core().stats();
            (s.duplicates, s.ts_decode_errors, s.holdback_events)
        };
        let before = stats(&b);
        b.on_wire(t(2), malformed(first.clone()));
        assert_eq!(stats(&b), (before.0 + 1, before.1, before.2 + 1));
        vt.set(0, 2);
        let second = DataMsg::new(id(2), vt, "m2");
        let (dels, _) = b.on_wire(t(3), malformed(second));
        assert!(dels.is_empty());
        assert_eq!(stats(&b), (before.0 + 1, before.1 + 1, before.2 + 2));
    }

    #[test]
    fn self_delivery_is_immediate_and_tag_is_constant() {
        let (mut a, _, _) = trio();
        let (d, out) = a.multicast(t(0), "hello");
        assert_eq!(d.id, MsgId { sender: 0, seq: 1 });
        assert!(!d.was_held());
        // Ring of 3: both neighbours get a copy, each 33 bytes of
        // overhead (12 id + 20 tag + 1 flag).
        assert_eq!(out.len(), 2);
        for (_, w) in &out {
            assert_eq!(w.overhead_bytes(), 33);
        }
        // bytes/msg accounting mirrors cbcast: one charge per multicast.
        // The second neighbour's copy is dissemination, not ordering
        // metadata, so it is charged to control bytes.
        assert_eq!(a.core().stats().data_overhead_bytes, 33);
        assert_eq!(a.core().stats().control_bytes, 33);
    }

    /// A singleton view has no overlay neighbour: its multicast leaves
    /// on no wire and books no byte.
    #[test]
    fn tag_size_is_independent_of_group_size() {
        for n in [1usize, 2, 64, 1024] {
            let mut e: PccastEndpoint<u64> = PccastEndpoint::new(0, n, GroupConfig::default());
            let (_, out) = e.multicast(t(0), 7);
            assert_eq!(out.len(), (n - 1).min(2), "n={n}");
            for (_, w) in &out {
                assert_eq!(w.overhead_bytes(), 33, "n={n}");
            }
            let booked = 33 * out.len() as u64;
            let stats = e.core().stats();
            assert_eq!(stats.data_overhead_bytes + stats.control_bytes, booked);
            assert_eq!(stats.data_overhead_bytes, booked.min(33), "n={n}");
        }
    }

    #[test]
    fn neighbor_copy_delivers_immediately() {
        let (mut a, mut b, _) = trio();
        let (_, out) = a.multicast(t(0), "m1");
        let (dels, fwd) = feed(&mut b, t(1), &out);
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].payload, "m1");
        assert!(!dels[0].was_held());
        // b forwards its delivery on its own links (the flooding rule).
        assert!(fwd
            .iter()
            .any(|(d, w)| matches!(w, Wire::Data(_)) && *d != Dest::One(0) || *d == Dest::One(0)));
        assert_eq!(b.core().clock().get(0), 1);
        // Relay copies of another member's message are all control
        // bytes: b has sent no data of its own.
        let relayed = fwd
            .iter()
            .filter(|(_, w)| matches!(w, Wire::Data(_)))
            .count();
        assert_eq!(relayed, 2);
        assert_eq!(b.core().stats().data_overhead_bytes, 0);
        assert_eq!(b.core().stats().control_bytes, 33 * relayed as u64);
    }

    #[test]
    fn causal_order_rides_link_order() {
        // a sends m1; b delivers it then sends m2 (m1 → m2). c hears
        // everything only through b's link — and b's link carries m1
        // before m2, so c can never invert them.
        let (mut a, mut b, mut c) = trio();
        let (_, out_a) = a.multicast(t(0), "m1");
        let (dels_b, fwd_b) = feed(&mut b, t(1), &out_a);
        assert_eq!(dels_b.len(), 1);
        let (_, out_b) = b.multicast(t(2), "m2");
        // c receives b's forwarded m1 copy and b's own m2, in link order.
        let (d1, _) = feed(&mut c, t(3), &fwd_b);
        let (d2, _) = feed(&mut c, t(3), &out_b);
        let seen: Vec<&str> = d1.iter().chain(d2.iter()).map(|d| d.payload).collect();
        assert_eq!(seen, vec!["m1", "m2"]);
    }

    #[test]
    fn link_reorder_is_buffered_not_lost() {
        // Deliver b's link copies to c in reverse order: the reorder
        // buffer holds the later ones until the head arrives.
        let (mut a, mut b, mut c) = trio();
        let mut to_c: Vec<Out<&str>> = Vec::new();
        for (i, payload) in ["x", "y", "z"].iter().enumerate() {
            let (_, out) = a.multicast(t(i as u64), payload);
            let (_, fwd) = feed(&mut b, t(i as u64), &out);
            to_c.extend(fwd.into_iter().filter(|(d, _)| *d == Dest::One(2)));
        }
        assert_eq!(to_c.len(), 3);
        let mut dels = Vec::new();
        for (i, o) in to_c.iter().rev().enumerate() {
            let (ds, _) = c.on_wire(t(5 + i as u64), o.1.clone());
            dels.extend(ds);
        }
        let seen: Vec<&str> = dels.iter().map(|d| d.payload).collect();
        assert_eq!(seen, vec!["x", "y", "z"]);
        // z and y arrived before x unblocked the link head.
        assert_eq!(c.core().stats().delivered_after_hold, 2);
        assert_eq!(c.link_buffered_len(), 0);
    }

    #[test]
    fn duplicate_copies_from_both_ring_directions_are_consumed() {
        // In a ring of 3, every member is everyone's neighbour: each
        // message arrives once per direction. The second copy must be
        // consumed as a duplicate without redelivery.
        let (mut a, mut b, mut c) = trio();
        let (_, out) = a.multicast(t(0), "m");
        let (dels_b, fwd_b) = feed(&mut b, t(1), &out);
        let (dels_c, fwd_c) = feed(&mut c, t(1), &out);
        assert_eq!(dels_b.len(), 1);
        assert_eq!(dels_c.len(), 1);
        // b's forward reaches c, and vice versa: both are duplicates.
        let (redeliver_c, _) = feed(&mut c, t(2), &fwd_b);
        let (redeliver_b, _) = feed(&mut b, t(2), &fwd_c);
        assert!(redeliver_c.is_empty());
        assert!(redeliver_b.is_empty());
        assert!(b.core().stats().duplicates >= 1);
        assert_eq!(b.core().stats().delivered, 1);
    }

    #[test]
    fn lost_link_copy_is_recovered_via_cumulative_ack() {
        let (mut a, mut b, _) = trio();
        let (_, _out1) = a.multicast(t(0), "m1");
        let (_, out2) = a.multicast(t(1), "m2");
        // b's copy of m1 is lost; m2 arrives and waits in the link buffer.
        let (dels, _) = feed(&mut b, t(2), &out2);
        assert!(dels.is_empty());
        assert_eq!(b.link_buffered_len(), 1);
        // b's tick acks cursor 0 to a; a re-serves link position 1.
        let ticks = b.on_tick(t(30));
        let ack = ticks
            .iter()
            .find(|(d, w)| *d == Dest::One(0) && matches!(w, Wire::PcAck { .. }))
            .expect("per-link ack to the upstream neighbour");
        let (_, resent) = a.on_wire(t(31), ack.1.clone());
        assert!(!resent.is_empty(), "ARQ must re-serve the unacked tail");
        let (dels, _) = feed(&mut b, t(32), &resent);
        let seen: Vec<&str> = dels.iter().map(|d| d.payload).collect();
        assert_eq!(seen, vec!["m1", "m2"]);
    }

    #[test]
    fn repair_retransmission_goes_through_holdback() {
        // A full-timestamped NACK retransmission must deliver through
        // the holdback path; the late link copy of the same message then
        // consumes as a duplicate and unstalls the link.
        let (mut a, mut b, mut c) = trio();
        let (_, out1) = a.multicast(t(0), "m1");
        let (_, fwd_b) = feed(&mut b, t(1), &out1);
        let (_, out2) = b.multicast(t(2), "m2");
        // c misses m1 entirely at first: b's link to c carries m1 at
        // position 1 (delayed) and m2 at position 2 (arrives).
        let m1_copy: Vec<Out<&str>> = fwd_b
            .iter()
            .filter(|(d, _)| *d == Dest::One(2))
            .cloned()
            .collect();
        let to_c: Vec<Out<&str>> = out2
            .iter()
            .filter(|(d, _)| *d == Dest::One(2))
            .cloned()
            .collect();
        let (dels, _) = feed(&mut c, t(3), &to_c);
        assert!(dels.is_empty(), "m2 must wait for its link predecessor");
        // Serve m1 as a full-timestamped repair copy (as a NACK would).
        let mut repair = match &out1[0].1 {
            Wire::Data(d) => d.clone(),
            _ => panic!("data"),
        };
        repair.retransmit = true;
        repair.make_full();
        let (dels, _) = c.on_wire(t(4), Wire::Data(repair));
        let seen: Vec<&str> = dels.iter().map(|d| d.payload).collect();
        assert_eq!(seen, vec!["m1"], "repair path delivers the hole");
        assert_eq!(c.core().stats().delivered_after_hold, 0);
        // The delayed position-1 link copy arrives: consumed as a
        // duplicate, and the stalled head (m2) follows in causal order.
        let (dels, _) = feed(&mut c, t(5), &m1_copy);
        let seen: Vec<&str> = dels.iter().map(|d| d.payload).collect();
        assert_eq!(seen, vec!["m2"]);
        assert_eq!(c.core().stats().delivered, 2);
        assert!(c.core().stats().duplicates >= 1);
        assert_eq!(c.link_buffered_len(), 0);
    }

    #[test]
    fn quiescent_group_reaches_stability_via_tick_gossip() {
        let (mut a, mut b, mut c) = trio();
        let (_, out) = a.multicast(t(0), "last words");
        feed(&mut b, t(1), &out);
        feed(&mut c, t(1), &out);
        assert!(a.core().stability_lag() > 0);
        assert_eq!(a.core().stats().buffered_now, 1);
        for round in 0..2u64 {
            let now = t(10 + round);
            let ga = a.on_tick(now);
            let gb = b.on_tick(now);
            let gc_out = c.on_tick(now);
            for (src, outs) in [(0usize, &ga), (1, &gb), (2, &gc_out)] {
                for (_, w) in outs {
                    if matches!(w, Wire::AckGossip { .. }) {
                        if src != 0 {
                            a.on_wire(now, w.clone());
                        }
                        if src != 1 {
                            b.on_wire(now, w.clone());
                        }
                        if src != 2 {
                            c.on_wire(now, w.clone());
                        }
                    }
                }
            }
        }
        for (who, ep) in [(0, &a), (1, &b), (2, &c)] {
            assert_eq!(ep.core().stability_lag(), 0, "P{who} horizon stuck");
        }
        assert_eq!(a.core().stats().buffered_now, 0);
        assert_eq!(a.core().stats().stabilized, 1);
    }

    #[test]
    fn view_install_resets_epoch_and_links() {
        let (mut a, mut b, _) = trio();
        let (_, out) = a.multicast(t(0), "old view");
        feed(&mut b, t(1), &out);
        // Member 2 is evicted; view 2 installs with the agreed cut.
        let cut = VectorClock::from_entries(vec![1, 0, 0]);
        a.core_mut().freeze(t(2));
        b.core_mut().freeze(t(2));
        for ep in [&mut a, &mut b] {
            ep.on_view_install(t(3), 2, &[0, 1], &cut);
            ep.thaw(t(3));
        }
        // New multicasts ride epoch-2 links starting from sequence 1.
        let (_, out2) = a.multicast(t(4), "new view");
        assert_eq!(out2.len(), 1, "pair ring has one neighbour");
        match &out2[0].1 {
            Wire::Data(d) => match d.vt_wire {
                VtWire::Pc {
                    epoch, link_seq, ..
                } => {
                    assert_eq!(epoch, 2);
                    assert_eq!(link_seq, 1);
                }
                _ => panic!("pc tag expected"),
            },
            _ => panic!("data expected"),
        }
        let (dels, _) = feed(&mut b, t(5), &out2);
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].payload, "new view");
    }

    #[test]
    fn stale_epoch_copies_are_dropped() {
        let (mut a, mut b, _) = trio();
        let (_, out) = a.multicast(t(0), "from view 1");
        // b installs view 2 before the copy arrives.
        b.core_mut().freeze(t(1));
        let cut = VectorClock::new(3);
        b.on_view_install(t(2), 2, &[0, 1], &cut);
        b.thaw(t(2));
        let (dels, _) = feed(&mut b, t(3), &out);
        assert!(dels.is_empty(), "old-epoch link copies must not deliver");
        assert_eq!(b.link_buffered_len(), 0);
    }

    #[test]
    fn post_install_barrier_orders_old_before_new() {
        // b must not fast-path-deliver a's new-epoch message while a
        // pre-install message under the cut is still missing here: the
        // fresh link cannot vouch for it.
        let (mut a, mut b, _) = trio();
        // a delivered m2.1 in view 1 (b never got it), then view 2
        // installs with cut [0,0,1] and evicts member 2.
        let m21 = {
            let mut vt = VectorClock::new(3);
            vt.set(2, 1);
            DataMsg {
                id: MsgId { sender: 2, seq: 1 },
                vt_wire: VtWire::Full(vt.encode()),
                vt,
                payload: "pre-install",
                retransmit: false,
                appended: Vec::new(),
            }
        };
        a.on_wire(t(0), Wire::Data(m21.clone()));
        assert_eq!(a.core().clock().get(2), 1);
        let cut = VectorClock::from_entries(vec![0, 0, 1]);
        for ep in [&mut a, &mut b] {
            ep.core_mut().freeze(t(1));
            ep.on_view_install(t(2), 2, &[0, 1], &cut);
            ep.thaw(t(2));
        }
        // a multicasts in the new view — causally after m2.1.
        let (_, out) = a.multicast(t(3), "post-install");
        let (dels, _) = feed(&mut b, t(4), &out);
        assert!(
            dels.is_empty(),
            "barrier must hold the new-epoch message until the cut is met"
        );
        // The flush retransmission of m2.1 arrives (full timestamp) —
        // both deliver, in causal order.
        let mut repair = m21;
        repair.retransmit = true;
        let (dels, _) = b.on_wire(t(5), Wire::Data(repair));
        let seen: Vec<&str> = dels.iter().map(|d| d.payload).collect();
        assert_eq!(seen, vec!["pre-install", "post-install"]);
    }

    #[test]
    fn frozen_endpoint_buffers_but_does_not_deliver() {
        let (mut a, mut b, _) = trio();
        let (_, out) = a.multicast(t(0), "during flush");
        b.core_mut().freeze(t(1));
        let (dels, _) = feed(&mut b, t(2), &out);
        assert!(dels.is_empty());
        assert!(b.core().is_frozen());
        // Install the same membership and thaw: the copy delivers.
        b.on_view_install(t(3), 1, &[0, 1, 2], &VectorClock::new(3));
        let (dels, _) = b.thaw(t(3));
        // Same view id — links were reset, so the buffered copy died with
        // its epoch... unless the epoch matches. Epoch 1 == view 1: the
        // links were cleared, so recovery rides ARQ instead.
        assert!(dels.is_empty());
        let ticks = b.on_tick(t(30));
        let ack = ticks
            .iter()
            .find(|(d, w)| *d == Dest::One(0) && matches!(w, Wire::PcAck { .. }))
            .expect("ack to upstream");
        let (_, resent) = a.on_wire(t(31), ack.1.clone());
        let (dels, _) = feed(&mut b, t(32), &resent);
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].payload, "during flush");
    }

    #[test]
    fn skip_marker_consumes_for_delivered_id_and_chases_otherwise() {
        let (mut a, mut b, _) = trio();
        let (_, out) = a.multicast(t(0), "m1");
        let (dels, _) = feed(&mut b, t(1), &out);
        assert_eq!(dels.len(), 1);
        // A skip for position 2 naming an undelivered id stalls; after
        // the id is delivered via repair it consumes.
        let skip: Wire<&str> = Wire::PcSkip {
            from: 0,
            epoch: 1,
            link_seq: 2,
            id: MsgId { sender: 0, seq: 2 },
        };
        b.on_wire(t(2), skip);
        assert_eq!(b.link_buffered_len(), 1);
        let mut vt = VectorClock::new(3);
        vt.set(0, 2);
        let repair = DataMsg {
            id: MsgId { sender: 0, seq: 2 },
            vt_wire: VtWire::Full(vt.encode()),
            vt,
            payload: "m2",
            retransmit: true,
            appended: Vec::new(),
        };
        let (dels, _) = b.on_wire(t(3), Wire::Data(repair));
        assert_eq!(dels.len(), 1);
        assert_eq!(b.link_buffered_len(), 0, "satisfied skip must consume");
    }

    /// A skip naming no member once reached its link's head and indexed
    /// the removed-sender table with it: "the len is 3 but the index is
    /// 9". So did a position far past the link's cursor, kept for good,
    /// and an ack for more than was sent, which overflowed finding the
    /// ARQ window's end. Each is refused at the door, counted, and leaves
    /// nothing behind; the link then delivers as if none came.
    #[test]
    fn a_skip_naming_no_member_is_refused() {
        let (mut a, mut b, _) = trio();
        b.multicast(t(0), "x");
        let hostile = [
            Wire::PcSkip {
                from: 0,
                epoch: 1,
                link_seq: 1,
                id: MsgId { sender: 9, seq: 1 },
            },
            Wire::PcSkip {
                from: 0,
                epoch: 1,
                link_seq: MAX_CHASE_AHEAD + 1,
                id: MsgId { sender: 0, seq: 1 },
            },
            Wire::PcAck {
                from: 0,
                epoch: 1,
                acked: u64::MAX,
            },
        ];
        for (i, wire) in hostile.into_iter().enumerate() {
            let (dels, out) = b.on_wire(t(1), wire);
            assert!(dels.is_empty() && out.is_empty(), "wire {i}");
            assert_eq!(b.core().stats().ts_decode_errors, i as u64 + 1);
            assert_eq!(b.link_buffered_len(), 0, "wire {i}");
        }
        assert_eq!(b.links_out[&0].log.len(), 1, "the unacked copy is kept");
        let (_, out) = a.multicast(t(2), "m1");
        let (dels, _) = feed(&mut b, t(3), &out);
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].payload, "m1");
    }

    #[test]
    fn repair_and_link_copies_never_double_claim_a_delivery() {
        // Regression (found by the chaos campaigns): a NACK-served full
        // copy can sit in the holdback while the original link copy of
        // the same id reaches a deliverable head. The fast path must
        // defer to the holdback — delivering the link copy would strand
        // the holdback entry with zero waits but no longer deliverable
        // (the indexed queue asserts on exactly that).
        let (_, mut b, _) = trio();
        let mk = |sender: usize, entries: Vec<u64>, payload: &'static str| {
            let vt = VectorClock::from_entries(entries);
            DataMsg {
                id: MsgId {
                    sender,
                    seq: vt.get(sender),
                },
                vt_wire: VtWire::Full(vt.encode()),
                vt,
                payload,
                retransmit: true,
                appended: Vec::new(),
            }
        };
        // Repair copy of m0.1, causally after m2.1 (not yet delivered):
        // parks in the holdback.
        let (dels, _) = b.on_wire(t(0), Wire::Data(mk(0, vec![1, 0, 1], "m0.1")));
        assert!(dels.is_empty());
        assert_eq!(b.core().holdback_len(), 1);
        // The link copy of the same id arrives at a deliverable head
        // (seq == vt[0]+1, barrier met). It must stall, not deliver.
        let mut link_copy = mk(0, vec![1, 0, 1], "m0.1");
        link_copy.retransmit = false;
        link_copy.vt_wire = VtWire::Pc {
            epoch: 1,
            from: 0,
            link_seq: 1,
        };
        let (dels, _) = b.on_wire(t(1), Wire::Data(link_copy));
        assert!(dels.is_empty(), "fast path must defer to the holdback");
        assert_eq!(b.link_buffered_len(), 1);
        // The missing predecessor arrives: holdback delivers both in
        // causal order and the stalled head resolves as a duplicate.
        let (dels, _) = b.on_wire(t(2), Wire::Data(mk(2, vec![0, 0, 1], "m2.1")));
        let seen: Vec<&str> = dels.iter().map(|d| d.payload).collect();
        assert_eq!(seen, vec!["m2.1", "m0.1"]);
        assert_eq!(b.link_buffered_len(), 0);
        assert_eq!(b.core().holdback_len(), 0);
        assert!(b.core().stats().duplicates >= 1);
    }

    /// The NACKs in `out`: where each went and what it asked for.
    fn nacks<P>(out: &[Out<P>]) -> Vec<(Dest, Vec<MsgId>)> {
        let nack = |(d, w): &Out<P>| match w {
            Wire::Nack { want, .. } => Some((*d, want.clone())),
            _ => None,
        };
        out.iter().filter_map(nack).collect()
    }

    /// Where `gossip_reveals_a_lost_message` leaves the trio.
    struct Revealed {
        /// b, whose gossip revealed the message.
        gossiper: PccastEndpoint<&'static str>,
        /// c, which had not heard of it.
        member: PccastEndpoint<&'static str>,
        /// a's link copy to c, delayed.
        link_copy: Out<&'static str>,
        /// What c sent on receiving the gossip.
        reply: Vec<Out<&'static str>>,
    }

    /// b delivers a's first message; a's link copy to c is held back and
    /// b's forward to c lost. b's tick gossip then reaches c at 10 ms.
    fn gossip_reveals_a_lost_message() -> Revealed {
        let (mut a, mut b, mut c) = trio();
        let (_, out) = a.multicast(t(0), "m1");
        let to_c = out.iter().find(|(d, _)| *d == Dest::One(2)).cloned();
        let (dels, _) = feed(&mut b, t(1), &out);
        assert_eq!(dels.len(), 1);
        let gossip = b
            .on_tick(t(10))
            .into_iter()
            .find(|(_, w)| matches!(w, Wire::AckGossip { .. }))
            .expect("tick gossip");
        let (dels, reply) = c.on_wire(t(10), gossip.1);
        assert!(dels.is_empty());
        Revealed {
            gossiper: b,
            member: c,
            link_copy: to_c.expect("a's link copy to c"),
            reply,
        }
    }

    /// The gossiper delivered what its clock reveals, so it still holds
    /// it: the member that learns of a message from gossip alone asks the
    /// gossiper for it in the same step, not at its next tick.
    #[test]
    fn a_gossip_revealing_an_unknown_id_nacks_the_gossiper_at_once() {
        let reply = gossip_reveals_a_lost_message().reply;
        let m1 = MsgId { sender: 0, seq: 1 };
        assert_eq!(nacks(&reply), [(Dest::One(1), vec![m1])]);
        assert_eq!(reply.len(), 1, "nothing but the NACK");
    }

    /// When the gossiper's NACK or its answer is lost, the id is asked of
    /// everyone at the first tick at least one tick interval after the
    /// gossip — not a NACK timeout later — and then every NACK timeout.
    #[test]
    fn a_gossip_chase_is_asked_of_everyone_a_tick_interval_later() {
        let mut c = gossip_reveals_a_lost_message().member;
        let m1 = MsgId { sender: 0, seq: 1 };
        let cfg = GroupConfig::default();
        let first = t(10) + cfg.tick_interval;
        let just_before = first - SimDuration::from_micros(1);
        assert_eq!(nacks(&c.on_tick(just_before)), []);
        assert_eq!(nacks(&c.on_tick(first)), [(Dest::All, vec![m1])]);
        let retry = first + NACK_TIMEOUT;
        assert_eq!(nacks(&c.on_tick(retry - SimDuration::from_micros(1))), []);
        assert_eq!(nacks(&c.on_tick(retry)), [(Dest::All, vec![m1])]);
    }

    /// The gossiper's answer delivers through the repair path; the link
    /// copy that arrives after it is consumed as a duplicate, once.
    #[test]
    fn a_link_copy_after_the_gossip_repair_is_a_duplicate() {
        let Revealed {
            gossiper: mut b,
            member: mut c,
            link_copy,
            reply,
        } = gossip_reveals_a_lost_message();
        let nack = reply
            .into_iter()
            .find(|(d, w)| *d == Dest::One(1) && matches!(w, Wire::Nack { .. }))
            .expect("a NACK to the gossiper");
        let (_, served) = b.on_wire(t(11), nack.1);
        assert_eq!(served.len(), 1);
        let (dels, _) = feed(&mut c, t(12), &served);
        assert_eq!(dels.len(), 1);
        assert_eq!((dels[0].id.seq, dels[0].payload), (1, "m1"));
        let before = c.core().stats().duplicates;
        let (dels, _) = feed(&mut c, t(13), &[link_copy]);
        assert!(dels.is_empty(), "delivered twice");
        let stats = c.core().stats();
        assert_eq!((stats.delivered, stats.duplicates), (1, before + 1));
        assert_eq!(c.link_buffered_len(), 0);
    }

    #[test]
    fn sample_emits_pccast_prefixed_gauges() {
        let (a, _, _) = trio();
        let mut names = Vec::new();
        a.sample(&mut |name, value| {
            assert!(value.is_finite());
            names.push(name.to_string());
        });
        assert!(names.iter().all(|n| n.starts_with("pccast.")));
        assert!(names.iter().any(|n| n == "pccast.linkbuf"));
    }

    #[test]
    fn hold_time_is_recorded_for_stalled_heads() {
        let (mut a, mut b, _) = trio();
        let (_, o1) = a.multicast(t(0), "m1");
        let (_, o2) = a.multicast(t(1), "m2");
        let (none, _) = feed(&mut b, t(2), &o2);
        assert!(none.is_empty());
        let (dels, _) = feed(&mut b, t(7), &o1);
        assert_eq!(dels.len(), 2);
        assert!(dels[1].was_held());
        assert_eq!(dels[1].hold_time(), SimDuration::from_millis(5));
    }
}
