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
//! Two situations fall outside the fast path and reuse the `cbcast`
//! machinery as a repair bridge:
//!
//! - **Holes**: a link head that is *not* the origin's next message
//!   (possible only around view changes and garbage-collected skips)
//!   stalls its link — the cursor never advances past an unconsumable
//!   head — and the gap is chased via NACK. Retransmissions are served
//!   with **full** vector timestamps and delivered through the ordinary
//!   holdback queue, after which the stalled head resolves as a
//!   duplicate or becomes deliverable.
//! - **View changes**: links are epoch-tagged with the view id and reset
//!   at install. A fresh link cannot vouch for deliveries that predate
//!   it, so delivery from new-epoch links is barred until this member
//!   has delivered everything up to the flush cut (all of which is
//!   recoverable from the survivors — the virtual-synchrony contract).
//!
//! Stability, garbage collection, flush/freeze and the missing/NACK
//! machinery are shared with `cbcast` (tick-driven `AckGossip`; pccast
//! never piggybacks clocks on data). The buffered-bytes gauge charges
//! each retained message its constant wire tag, not a vector: the full
//! timestamp kept alongside for NACK repair is cold-path bookkeeping,
//! not hot-path wire state.

use crate::cbcast::{BlockedReport, LinkWait, LinkWaitStatus, WaitCause, WaitStatus};
use crate::group::{GroupConfig, MsgId};
use crate::holdback::{HoldbackQueue, Pending};
use crate::stability::StabilityTracker;
use crate::wire::{DataMsg, Delivery, Dest, EndpointStats, Out, VtWire, Wire};
use clocks::vector::VectorClock;
use simnet::obs::{ObsEvent, PhaseEdge, PhaseKind, ProbeHandle, SpanId, Stage, WaitKind};
use simnet::time::SimTime;
use std::collections::BTreeMap;

fn span_of(id: MsgId) -> SpanId {
    SpanId {
        origin: id.sender,
        seq: id.seq,
    }
}

/// Tracking for a message we know exists but have not received.
#[derive(Debug, Clone, Copy)]
struct Missing {
    referenced_by: usize,
    last_nack: SimTime,
}

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
#[derive(Debug, Default)]
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
    me: usize,
    n: usize,
    cfg: GroupConfig,
    /// Delivered clock — local bookkeeping only; never on the wire with
    /// data (that is the whole point).
    vt: VectorClock,
    /// Current view id; copies from other epochs are discarded (their
    /// links restart from sequence 1 after an install).
    epoch: u64,
    /// Send side of each outgoing overlay link, by peer member index.
    links_out: BTreeMap<usize, OutLink>,
    /// Receive side of each incoming overlay link, by peer member index.
    links_in: BTreeMap<usize, InLink<P>>,
    /// Repair path: full-timestamped retransmissions wait here under the
    /// ordinary cbcast deliverability rule.
    holdback: HoldbackQueue<P>,
    /// Unstable messages retained for retransmission, by id.
    buffer: BTreeMap<MsgId, DataMsg<P>>,
    stability: StabilityTracker,
    missing: BTreeMap<MsgId, Missing>,
    alive: Vec<bool>,
    cut: VectorClock,
    /// Post-install delivery barrier: fast-path delivery from the fresh
    /// links is barred until `vt` dominates this (the flush cut at the
    /// last install), because a fresh link cannot vouch for causal
    /// predecessors delivered before it existed.
    barrier: VectorClock,
    barrier_met: bool,
    frozen: bool,
    /// When the current freeze began (None when not frozen) — the
    /// latency ledger splits install-time waits at this instant.
    frozen_since: Option<SimTime>,
    /// Set for the duration of the install-time drain: the freeze
    /// instant the just-ended flush began at.
    install_thaw: Option<SimTime>,
    probe: ProbeHandle,
    stats: EndpointStats,
}

impl<P: Clone> PccastEndpoint<P> {
    /// Creates the endpoint for member `me` of a group of `n`.
    pub fn new(me: usize, n: usize, cfg: GroupConfig) -> Self {
        assert!(me < n, "member index out of range");
        let holdback = HoldbackQueue::new(cfg.indexed_holdback, n);
        PccastEndpoint {
            me,
            n,
            cfg,
            vt: VectorClock::new(n),
            epoch: 1,
            links_out: BTreeMap::new(),
            links_in: BTreeMap::new(),
            holdback,
            buffer: BTreeMap::new(),
            stability: StabilityTracker::new(n),
            missing: BTreeMap::new(),
            alive: vec![true; n],
            cut: VectorClock::new(n),
            barrier: VectorClock::new(n),
            barrier_met: true,
            frozen: false,
            frozen_since: None,
            install_thaw: None,
            probe: ProbeHandle::none(),
            stats: EndpointStats::default(),
        }
    }

    /// Installs an observability probe (read-only; a probed run is
    /// byte-identical to an unprobed one).
    pub fn set_probe(&mut self, probe: ProbeHandle) {
        self.probe = probe;
    }

    /// Suspends all delivery until the next [`PccastEndpoint::on_view_install`]
    /// (flush blackout, same contract as cbcast). Link buffers and the
    /// holdback queue keep accumulating.
    pub fn freeze(&mut self, now: SimTime) {
        if !self.frozen {
            self.frozen_since = Some(now);
            self.probe.emit(|| ObsEvent::Phase {
                at: now,
                who: self.me,
                kind: PhaseKind::Flush,
                edge: PhaseEdge::Begin,
                note: format!("{} unstable buffered", self.buffer.len()),
            });
        }
        self.frozen = true;
    }

    /// Whether delivery is currently frozen by a flush in progress.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// This member's index.
    pub fn me(&self) -> usize {
        self.me
    }

    /// Group size.
    pub fn group_size(&self) -> usize {
        self.n
    }

    /// The delivered vector clock.
    pub fn clock(&self) -> &VectorClock {
        &self.vt
    }

    /// Endpoint statistics.
    pub fn stats(&self) -> &EndpointStats {
        &self.stats
    }

    /// The stability tracker.
    pub fn stability(&self) -> &StabilityTracker {
        &self.stability
    }

    /// Number of unstable messages currently buffered.
    pub fn buffered_len(&self) -> usize {
        self.buffer.len()
    }

    /// Current holdback-queue (repair path) length.
    pub fn holdback_len(&self) -> usize {
        self.holdback.len()
    }

    /// pccast has no delta decode chains, so nothing ever parks; the
    /// analogous gauge is [`PccastEndpoint::link_buffered_len`].
    pub fn parked_len(&self) -> usize {
        0
    }

    /// Copies sitting in the per-link reorder buffers (the hybrid-buffer
    /// depth).
    pub fn link_buffered_len(&self) -> usize {
        self.links_in.values().map(|l| l.buf.len()).sum()
    }

    /// Retransmits every unstable buffered message to the whole group
    /// with full timestamps — the flush step of a view change.
    pub fn flush_unstable(&mut self) -> Vec<Out<P>> {
        let mut out = Vec::new();
        for m in self.buffer.values() {
            let mut copy = m.clone();
            copy.retransmit = true;
            copy.make_full();
            let w = Wire::Data(copy);
            self.stats.control_bytes += w.overhead_bytes() as u64;
            out.push((Dest::All, w));
        }
        out
    }

    /// The current group-wide stable frontier.
    pub fn stable_frontier(&self) -> VectorClock {
        self.stability.stable_frontier()
    }

    /// Componentwise stability-horizon lag (same definition as cbcast).
    pub fn stability_lag(&self) -> u64 {
        let frontier = self.stability.stable_frontier();
        (0..self.n)
            .map(|s| self.vt.get(s).saturating_sub(frontier.get(s)))
            .sum()
    }

    /// Telemetry hook: instantaneous queue depths and buffering gauges.
    pub fn sample(&self, emit: &mut dyn FnMut(&str, f64)) {
        emit("pccast.holdback", self.holdback.len() as f64);
        emit("pccast.linkbuf", self.link_buffered_len() as f64);
        emit("pccast.buffered", self.buffer.len() as f64);
        emit(
            "pccast.buffered_bytes",
            self.stats.buffered_bytes_now as f64,
        );
        emit("pccast.stability_lag", self.stability_lag() as f64);
    }

    /// Blocked-on explanation, mirroring
    /// [`crate::cbcast::CbcastEndpoint::blocked_report`] for the repair
    /// path, plus the pccast fast path: data copies parked in a per-link
    /// reorder buffer report the link position they wait behind (gap
    /// awaiting retransmit, skip marker pending, or severed link), and a
    /// stalled link *head* reports the origin-FIFO predecessors the link
    /// could not vouch for.
    pub fn blocked_report(&self) -> Vec<BlockedReport> {
        let mut by_msg: BTreeMap<MsgId, BlockedReport> = BTreeMap::new();
        for p in self.holdback.pending() {
            let mut waits = Vec::new();
            for k in 0..self.n {
                let need = if k == p.msg.id.sender {
                    p.msg.id.seq.saturating_sub(1)
                } else {
                    p.msg.vt.get(k)
                };
                for seq in (self.vt.get(k) + 1)..=need {
                    let id = MsgId { sender: k, seq };
                    waits.push(WaitCause {
                        id,
                        status: self.classify_wait(id),
                    });
                }
            }
            by_msg.insert(
                p.msg.id,
                BlockedReport {
                    msg: p.msg.id,
                    arrived_at: p.arrived_at,
                    waits,
                    link_waits: Vec::new(),
                },
            );
        }
        for (&peer, link) in &self.links_in {
            let head = link.cursor + 1;
            for (&pos, copy) in &link.buf {
                let LinkCopy::Data(at, msg) = copy else {
                    continue;
                };
                if msg.id.seq <= self.vt.get(msg.id.sender) {
                    // A duplicate awaiting consumption, not a blocked one.
                    continue;
                }
                let entry = by_msg.entry(msg.id).or_insert_with(|| BlockedReport {
                    msg: msg.id,
                    arrived_at: *at,
                    waits: Vec::new(),
                    link_waits: Vec::new(),
                });
                if pos > head {
                    let status = if !self.alive[peer] {
                        LinkWaitStatus::Severed
                    } else if matches!(link.buf.get(&head), Some(LinkCopy::Skip(_))) {
                        LinkWaitStatus::SkipPending
                    } else {
                        LinkWaitStatus::Gap
                    };
                    entry.link_waits.push(LinkWait {
                        from: peer,
                        pos: head,
                        status,
                    });
                } else if entry.waits.is_empty() {
                    let o = msg.id.sender;
                    for seq in (self.vt.get(o) + 1)..msg.id.seq {
                        let id = MsgId { sender: o, seq };
                        entry.waits.push(WaitCause {
                            id,
                            status: self.classify_wait(id),
                        });
                    }
                }
            }
        }
        by_msg.into_values().collect()
    }

    fn classify_wait(&self, id: MsgId) -> WaitStatus {
        if self.holdback.peek(id) {
            WaitStatus::HeldHere
        } else if !self.alive[id.sender] && id.seq > self.cut.get(id.sender) {
            WaitStatus::NeverDeliverable {
                cut: self.cut.get(id.sender),
            }
        } else if let Some(m) = self.missing.get(&id) {
            WaitStatus::Chased {
                referenced_by: m.referenced_by,
            }
        } else {
            WaitStatus::Unknown
        }
    }

    /// Contributes this endpoint's live blocking edges to a wait-graph
    /// snapshot (read-only; see [`crate::waitgraph`]). Repair-path
    /// entries block on their causal predecessors exactly as in
    /// [`crate::cbcast::CbcastEndpoint::wait_edges`]; fast-path copies
    /// parked behind a link-reorder gap block on a
    /// [`crate::waitgraph::WaitNode::LinkSlot`] that the collector
    /// resolves against the sender side's ARQ log
    /// ([`Self::link_log_lookup`]).
    pub fn wait_edges(&self, out: &mut Vec<crate::waitgraph::WaitEdge>) {
        use crate::waitgraph::{WaitEdge, WaitNode};
        // Sorted for determinism; one edge per lagging sender (the first
        // gap), mirroring the cbcast rationale.
        let mut pending: Vec<_> = self.holdback.pending().collect();
        pending.sort_unstable_by_key(|p| p.msg.id);
        for p in pending {
            let from = WaitNode::Msg(p.msg.id);
            for k in 0..self.n {
                let need = if k == p.msg.id.sender {
                    p.msg.id.seq.saturating_sub(1)
                } else {
                    p.msg.vt.get(k)
                };
                if need > self.vt.get(k) {
                    let gap = MsgId {
                        sender: k,
                        seq: self.vt.get(k) + 1,
                    };
                    out.push(WaitEdge {
                        from,
                        to: WaitNode::Msg(gap),
                        who: self.me,
                        since: p.arrived_at,
                        reason: crate::cbcast::wait_reason(self.classify_wait(gap)),
                    });
                }
            }
            if self.frozen {
                out.push(WaitEdge {
                    from,
                    to: WaitNode::Proc(self.me),
                    who: self.me,
                    since: p.arrived_at,
                    reason: "delivery frozen by flush",
                });
            }
        }
        for (&peer, link) in &self.links_in {
            let head = link.cursor + 1;
            for (&pos, copy) in &link.buf {
                let LinkCopy::Data(at, msg) = copy else {
                    continue;
                };
                if msg.id.seq <= self.vt.get(msg.id.sender) {
                    continue;
                }
                let from = WaitNode::Msg(msg.id);
                if pos > head {
                    out.push(WaitEdge {
                        from,
                        to: WaitNode::LinkSlot {
                            to: self.me,
                            from: peer,
                            seq: head,
                        },
                        who: self.me,
                        since: *at,
                        reason: "link reorder gap",
                    });
                } else if self.frozen {
                    out.push(WaitEdge {
                        from,
                        to: WaitNode::Proc(self.me),
                        who: self.me,
                        since: *at,
                        reason: "delivery frozen by flush",
                    });
                } else if !self.barrier_met {
                    out.push(WaitEdge {
                        from,
                        to: WaitNode::Proc(self.me),
                        who: self.me,
                        since: *at,
                        reason: "fast path barred until flush cut reached",
                    });
                } else {
                    let o = msg.id.sender;
                    let id = MsgId {
                        sender: o,
                        seq: self.vt.get(o) + 1,
                    };
                    if id != msg.id {
                        out.push(WaitEdge {
                            from,
                            to: WaitNode::Msg(id),
                            who: self.me,
                            since: *at,
                            reason: crate::cbcast::wait_reason(self.classify_wait(id)),
                        });
                    }
                }
            }
        }
    }

    /// Resolves a link-slot position against this sender's ARQ window:
    /// which message occupies sequence `seq` on the outgoing link to
    /// `to`. `None` once acked away (or never sent) — the wait-graph
    /// collector keeps the raw slot node in that case.
    pub fn link_log_lookup(&self, to: usize, seq: u64) -> Option<MsgId> {
        self.links_out.get(&to)?.log.get(&seq).copied()
    }

    /// The overlay neighbours of this member: predecessor and successor
    /// in the ring over live member indices. Degenerates gracefully: one
    /// neighbour in a pair, none when alone or evicted.
    fn neighbors(&self) -> Vec<usize> {
        let live: Vec<usize> = (0..self.n).filter(|&s| self.alive[s]).collect();
        let Some(k) = live.iter().position(|&s| s == self.me) else {
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

    /// Forwards a delivered message on every outgoing overlay link with a
    /// fresh per-link sequence tag. This is the flooding rule the whole
    /// discipline rests on: *every* delivery goes out on *every* link, in
    /// delivery order. `origin` marks the sender's own multicast, whose
    /// first copy is charged to `data_overhead_bytes` (the analogue of
    /// cbcast charging its single broadcast wire once); all other copies
    /// are dissemination cost and charged to `control_bytes`.
    fn forward(&mut self, msg: &DataMsg<P>, out: &mut Vec<Out<P>>, origin: bool) {
        let mut first = origin;
        for nb in self.neighbors() {
            let link = self.links_out.entry(nb).or_default();
            link.next_seq += 1;
            let seq = link.next_seq;
            link.log.insert(seq, msg.id);
            let mut copy = msg.clone();
            copy.vt_wire = VtWire::Pc {
                epoch: self.epoch,
                from: self.me,
                link_seq: seq,
            };
            copy.retransmit = false;
            copy.appended.clear();
            let w = Wire::Data(copy);
            let bytes = w.overhead_bytes() as u64;
            if first {
                self.stats.data_overhead_bytes += bytes;
                first = false;
            } else {
                self.stats.control_bytes += bytes;
            }
            out.push((Dest::One(nb), w));
        }
        if first {
            // No live neighbours (singleton view): still charge the send
            // its constant tag so bytes/msg stays meaningful.
            self.stats.data_overhead_bytes += (12 + 20 + 1) as u64;
        }
    }

    /// Applies an installed view. Same contract as cbcast's, plus the
    /// pccast specifics: the epoch becomes the installed view id, every
    /// link resets, and the fast path is barred behind the flush cut
    /// (fresh links cannot vouch for pre-install deliveries). Returns the
    /// thawed deliveries and their forwarded copies.
    pub fn on_view_install(
        &mut self,
        now: SimTime,
        view_id: u64,
        members: &[usize],
        cut: &VectorClock,
    ) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        if self.frozen {
            self.probe.emit(|| ObsEvent::Phase {
                at: now,
                who: self.me,
                kind: PhaseKind::Flush,
                edge: PhaseEdge::End,
                note: String::new(),
            });
        }
        self.probe.emit(|| ObsEvent::Phase {
            at: now,
            who: self.me,
            kind: PhaseKind::Install,
            edge: PhaseEdge::Point,
            note: format!("members {members:?} cut {cut:?}"),
        });
        self.cut.merge(cut);
        for s in 0..self.n {
            if !members.contains(&s) && self.alive[s] {
                self.alive[s] = false;
                self.holdback.purge_sender(s, self.cut.get(s));
                for seq in (self.vt.get(s) + 1)..=self.cut.get(s) {
                    let id = MsgId { sender: s, seq };
                    if !self.holdback.contains(id) {
                        self.missing.entry(id).or_insert(Missing {
                            referenced_by: s,
                            last_nack: SimTime::MAX,
                        });
                    }
                }
            }
        }
        let cut_snapshot = self.cut.clone();
        let alive = &self.alive;
        self.missing
            .retain(|id, _| alive[id.sender] || id.seq <= cut_snapshot.get(id.sender));
        // Epoch turnover: the overlay is rebuilt over the survivors and
        // every link restarts from sequence 1. In-flight old-epoch copies
        // die on arrival; anything undelivered from the old view comes
        // back through the flush retransmissions and the NACK machinery.
        self.epoch = view_id;
        self.links_out.clear();
        self.links_in.clear();
        self.barrier = self.cut.clone();
        self.barrier_met = self.check_barrier();
        self.stability.set_members(members);
        self.stats.note_holdback(self.holdback.len() as u64);
        self.collect_garbage(now);
        self.frozen = false;
        self.install_thaw = self.frozen_since.take();
        let mut delivered = Vec::new();
        let mut out = Vec::new();
        self.drain(now, &mut delivered, &mut out);
        self.install_thaw = None;
        (delivered, out)
    }

    fn check_barrier(&self) -> bool {
        (0..self.n).all(|s| self.vt.get(s) >= self.barrier.get(s))
    }

    /// Multicasts `payload` to the group. The self-delivery is immediate;
    /// the outbound copies are the per-link forwards.
    pub fn multicast(&mut self, now: SimTime, payload: P) -> (Delivery<P>, Vec<Out<P>>) {
        let seq = self.vt.tick(self.me);
        self.probe.emit(|| ObsEvent::Span {
            at: now,
            who: self.me,
            span: SpanId {
                origin: self.me,
                seq,
            },
            stage: Stage::Send,
            note: String::new(),
        });
        self.holdback.note_delivered(self.me, seq);
        let id = MsgId {
            sender: self.me,
            seq,
        };
        // The buffered master copy keeps the full clock for NACK repair;
        // its wire tag is a placeholder (every outbound copy is re-tagged
        // per link, and retransmissions go out `make_full`).
        let msg = DataMsg {
            id,
            vt: self.vt.clone(),
            vt_wire: VtWire::Pc {
                epoch: self.epoch,
                from: self.me,
                link_seq: 0,
            },
            payload: payload.clone(),
            retransmit: false,
            appended: Vec::new(),
        };
        self.stats.sent += 1;
        self.stats.delivered += 1;
        self.stability.record_local_delivery(self.me, self.me, seq);
        let mut out = Vec::new();
        self.forward(&msg, &mut out, true);
        self.buffer.insert(id, msg);
        self.note_buffer();
        let delivery = Delivery {
            id,
            payload,
            arrived_at: now,
            delivered_at: now,
            gseq: None,
            waited_for: Vec::new(),
        };
        (delivery, out)
    }

    /// Handles an incoming wire message. Returns app deliveries (in
    /// causal order) and outbound messages (forwarded copies, acks,
    /// NACKs, retransmits).
    pub fn on_wire(&mut self, now: SimTime, wire: Wire<P>) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        let mut out = Vec::new();
        let mut delivered = Vec::new();
        match wire {
            Wire::Data(msg) => {
                self.stats.data_received += 1;
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
            } if epoch == self.epoch && from < self.n => {
                let link = self.links_in.entry(from).or_insert_with(InLink::new);
                if link_seq > link.cursor {
                    link.buf.entry(link_seq).or_insert(LinkCopy::Skip(id));
                }
                self.drain(now, &mut delivered, &mut out);
            }
            Wire::AckGossip { from, delivered: d } => {
                self.stability.update_row(from, &d);
                // Gossip reveals messages we never received — pccast's
                // only cross-link gap detector (data carries no clocks).
                for k in 0..self.n {
                    let hi = if self.alive[k] {
                        d.get(k)
                    } else {
                        d.get(k).min(self.cut.get(k))
                    };
                    for seq in (self.vt.get(k) + 1)..=hi {
                        let id = MsgId { sender: k, seq };
                        if !self.holdback.contains(id) {
                            self.missing.entry(id).or_insert(Missing {
                                referenced_by: from,
                                last_nack: SimTime::MAX,
                            });
                        }
                    }
                }
                self.collect_garbage(now);
            }
            Wire::Nack { from, want } => {
                for id in want {
                    if let Some(m) = self.buffer.get(&id) {
                        let mut copy = m.clone();
                        copy.retransmit = true;
                        copy.make_full();
                        self.stats.retransmits_served += 1;
                        let w = Wire::Data(copy);
                        self.stats.control_bytes += w.overhead_bytes() as u64;
                        out.push((Dest::One(from), w));
                    }
                }
            }
            // Membership traffic is the composing endpoint's business.
            _ => {}
        }
        self.stats.holdback_work = self.holdback.work();
        (delivered, out)
    }

    /// Periodic maintenance: ack gossip (stability + gap detection),
    /// per-link cumulative acks (loss recovery), NACK retries.
    pub fn on_tick(&mut self, now: SimTime) -> Vec<Out<P>> {
        let mut out = Vec::new();
        let gossip = Wire::AckGossip {
            from: self.me,
            delivered: self.vt.clone(),
        };
        self.stats.acks_sent += 1;
        self.stats.control_bytes += gossip.overhead_bytes() as u64;
        out.push((Dest::All, gossip));
        // Cumulative per-link acks to the overlay neighbours: tell each
        // forwarder how far its link has been consumed, so it can GC its
        // ARQ window and re-serve the tail.
        for nb in self.neighbors() {
            let acked = self.links_in.get(&nb).map_or(0, |l| l.cursor);
            let w: Wire<P> = Wire::PcAck {
                from: self.me,
                epoch: self.epoch,
                acked,
            };
            self.stats.control_bytes += w.overhead_bytes() as u64;
            out.push((Dest::One(nb), w));
        }
        // Re-NACK overdue missing messages (repair path).
        let mut batch: Vec<MsgId> = Vec::new();
        for (&id, info) in self.missing.iter_mut() {
            let overdue = info.last_nack == SimTime::MAX
                || now.saturating_since(info.last_nack) >= self.cfg.nack_timeout;
            if overdue && batch.len() < self.cfg.max_nack_batch {
                batch.push(id);
                info.last_nack = now;
            }
        }
        if !batch.is_empty() {
            let w = Wire::Nack {
                from: self.me,
                want: batch,
            };
            self.stats.nacks_sent += 1;
            self.stats.control_bytes += w.overhead_bytes() as u64;
            out.push((Dest::All, w));
        }
        self.note_buffer();
        out
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
        if epoch != self.epoch || from >= self.n {
            return;
        }
        let Some(link) = self.links_out.get_mut(&from) else {
            return;
        };
        link.log = link.log.split_off(&(acked + 1));
        let outstanding = link.log.len();
        self.probe.emit(|| ObsEvent::Phase {
            at: now,
            who: self.me,
            kind: PhaseKind::LinkAck,
            edge: PhaseEdge::Point,
            note: format!("p{from} acked {acked}, {outstanding} outstanding"),
        });
        let link = self.links_out.get_mut(&from).expect("link exists");
        if link.log.is_empty() {
            return;
        }
        if now.saturating_since(link.last_resend) < self.cfg.nack_timeout
            && link.last_resend != SimTime::ZERO
        {
            return;
        }
        link.last_resend = now;
        let resend: Vec<(u64, MsgId)> = link
            .log
            .iter()
            .take(self.cfg.max_nack_batch)
            .map(|(&s, &id)| (s, id))
            .collect();
        for (link_seq, id) in resend {
            let w = if let Some(m) = self.buffer.get(&id) {
                let mut copy = m.clone();
                copy.vt_wire = VtWire::Pc {
                    epoch: self.epoch,
                    from: self.me,
                    link_seq,
                };
                copy.retransmit = true;
                copy.appended.clear();
                self.stats.retransmits_served += 1;
                Wire::Data(copy)
            } else {
                // Stable and reclaimed: the receiver necessarily
                // delivered it (stability is known-delivered-everywhere),
                // so a skip marker keeps its link cursor moving.
                Wire::PcSkip {
                    from: self.me,
                    epoch: self.epoch,
                    link_seq,
                    id,
                }
            };
            self.stats.control_bytes += w.overhead_bytes() as u64;
            out.push((Dest::One(from), w));
        }
    }

    /// First stage of receiving a data copy: dispatch on the wire tag.
    /// Pc-tagged copies join their link's reorder buffer; full-stamped
    /// copies (flush/NACK retransmissions) go through the holdback repair
    /// path. Delta encodings never occur in pccast.
    fn accept_data(
        &mut self,
        now: SimTime,
        mut msg: DataMsg<P>,
        out: &mut Vec<Out<P>>,
        delivered: &mut Vec<Delivery<P>>,
    ) {
        let sender = msg.id.sender;
        if sender >= self.n {
            self.stats.ts_decode_errors += 1;
            return;
        }
        self.probe.emit(|| ObsEvent::Span {
            at: now,
            who: self.me,
            span: span_of(msg.id),
            stage: Stage::Wire,
            note: if msg.retransmit {
                "retransmit".to_string()
            } else {
                String::new()
            },
        });
        if !self.alive[sender] && msg.id.seq > self.cut.get(sender) {
            self.stats.rejected_removed += 1;
            self.probe.emit(|| ObsEvent::Span {
                at: now,
                who: self.me,
                span: span_of(msg.id),
                stage: Stage::Dropped,
                note: format!("removed sender beyond cut {}", self.cut.get(sender)),
            });
            return;
        }
        match msg.vt_wire.clone() {
            VtWire::Pc {
                epoch,
                from,
                link_seq,
            } => {
                if epoch != self.epoch || from >= self.n {
                    // A straggler from a previous view's links; whatever
                    // it carried is recovered via flush/NACK if needed.
                    self.probe.emit(|| ObsEvent::Span {
                        at: now,
                        who: self.me,
                        span: span_of(msg.id),
                        stage: Stage::Dropped,
                        note: format!("stale epoch {epoch} (at {})", self.epoch),
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
                        self.probe.emit(|| ObsEvent::Span {
                            at: now,
                            who: self.me,
                            span,
                            stage: Stage::ReorderEnter,
                            note: format!("link p{from} pos {link_seq}, cursor {cursor}"),
                        });
                    }
                } else {
                    self.stats.duplicates += 1;
                }
                self.drain(now, delivered, out);
            }
            VtWire::Full(bytes) => match VectorClock::decode(&bytes) {
                Some(vt) if vt.len() == self.n => {
                    debug_assert_eq!(vt, msg.vt, "wire timestamp must match in-memory vt");
                    msg.vt = vt;
                    self.on_repair_data(now, msg, out, delivered);
                }
                _ => {
                    self.stats.ts_decode_errors += 1;
                    self.probe.emit(|| ObsEvent::Span {
                        at: now,
                        who: self.me,
                        span: span_of(msg.id),
                        stage: Stage::Dropped,
                        note: "timestamp decode error".to_string(),
                    });
                }
            },
            VtWire::Delta(_) => {
                self.stats.ts_decode_errors += 1;
            }
        }
    }

    /// A full-timestamped repair copy: the cbcast receive path (dup
    /// check, missing registration from the carried clock, holdback).
    fn on_repair_data(
        &mut self,
        now: SimTime,
        msg: DataMsg<P>,
        out: &mut Vec<Out<P>>,
        delivered: &mut Vec<Delivery<P>>,
    ) {
        self.stats.holdback_events += 1;
        if msg.id.seq <= self.vt.get(msg.id.sender) || self.holdback.contains(msg.id) {
            self.stats.duplicates += 1;
            self.probe.emit(|| ObsEvent::Span {
                at: now,
                who: self.me,
                span: span_of(msg.id),
                stage: Stage::Dropped,
                note: "duplicate".to_string(),
            });
            self.collect_garbage(now);
            return;
        }
        self.missing.remove(&msg.id);
        self.register_missing(now, &msg, out);
        self.probe.emit(|| ObsEvent::Span {
            at: now,
            who: self.me,
            span: span_of(msg.id),
            stage: Stage::HoldbackEnter,
            note: "repair copy".to_string(),
        });
        self.holdback.insert(
            Pending {
                msg,
                arrived_at: now,
            },
            &self.vt,
        );
        self.stats.note_holdback(self.holdback.len() as u64);
        self.drain(now, delivered, out);
        self.collect_garbage(now);
    }

    /// Scans a repair copy's timestamp for messages neither delivered nor
    /// held, recording them as missing with an immediate NACK (only
    /// repair copies carry timestamps to scan).
    fn register_missing(&mut self, now: SimTime, msg: &DataMsg<P>, out: &mut Vec<Out<P>>) {
        let mut want = Vec::new();
        for k in 0..self.n {
            let known = self.vt.get(k);
            let referenced = if k == msg.id.sender {
                msg.id.seq.saturating_sub(1)
            } else {
                msg.vt.get(k)
            };
            let referenced = if self.alive[k] {
                referenced
            } else {
                referenced.min(self.cut.get(k))
            };
            for seq in (known + 1)..=referenced {
                let id = MsgId { sender: k, seq };
                if !self.missing.contains_key(&id) && !self.holdback.contains(id) {
                    self.missing.insert(
                        id,
                        Missing {
                            referenced_by: msg.id.sender,
                            last_nack: now,
                        },
                    );
                    if want.len() < self.cfg.max_nack_batch {
                        want.push(id);
                    }
                }
            }
        }
        if !want.is_empty() {
            let w = Wire::Nack {
                from: self.me,
                want,
            };
            self.stats.nacks_sent += 1;
            self.stats.control_bytes += w.overhead_bytes() as u64;
            out.push((Dest::One(msg.id.sender), w));
        }
    }

    /// Drives both delivery paths to a fixed point: consume in-order link
    /// heads (fast path) and drain the holdback queue (repair path),
    /// alternating until neither makes progress — a repair delivery can
    /// unstall a link head and vice versa.
    fn drain(&mut self, now: SimTime, delivered: &mut Vec<Delivery<P>>, out: &mut Vec<Out<P>>) {
        if self.frozen {
            self.stats.note_holdback(self.holdback.len() as u64);
            return;
        }
        loop {
            let links = self.drain_links(now, delivered, out);
            let repair = self.drain_holdback(now, delivered, out);
            if !links && !repair {
                break;
            }
        }
        self.stats.note_holdback(self.holdback.len() as u64);
        self.note_buffer();
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
                let link = self.links_in.get_mut(&peer).expect("link exists");
                let next = link.cursor + 1;
                let head_action = match link.buf.get(&next) {
                    None => HeadAction::Stop,
                    Some(LinkCopy::Skip(id)) => {
                        if id.seq <= self.vt.get(id.sender)
                            || (!self.alive[id.sender] && id.seq > self.cut.get(id.sender))
                        {
                            HeadAction::Consume
                        } else {
                            HeadAction::Chase(*id)
                        }
                    }
                    Some(LinkCopy::Data(_, msg)) => {
                        let o = msg.id.sender;
                        let s = msg.id.seq;
                        if s <= self.vt.get(o) {
                            HeadAction::ConsumeDup
                        } else if !self.alive[o] && s > self.cut.get(o) {
                            HeadAction::Consume
                        } else if s == self.vt.get(o) + 1
                            && self.barrier_met
                            && !self.holdback.peek(msg.id)
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
                                seq: self.vt.get(o) + 1,
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
                            self.probe.emit(|| ObsEvent::Span {
                                at: now,
                                who: self.me,
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
                        self.stats.duplicates += 1;
                        any = true;
                    }
                    HeadAction::Deliver => {
                        let Some(LinkCopy::Data(arrived_at, msg)) = link.buf.remove(&next) else {
                            unreachable!("head was just matched as data");
                        };
                        link.cursor = next;
                        self.deliver(now, arrived_at, msg, WaitKind::LinkReorder, delivered, out);
                        any = true;
                    }
                    HeadAction::Chase(id) => {
                        // Stall: the head waits for the repair path to
                        // advance the clock under it. Record the blocking
                        // gap so the tick NACK loop chases it — unless the
                        // holdback already holds the id (it is not missing;
                        // it is queued behind its own predecessors).
                        if !self.holdback.peek(id) {
                            self.missing.entry(id).or_insert(Missing {
                                referenced_by: peer,
                                last_nack: SimTime::MAX,
                            });
                        }
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
        while let Some(pending) = self.holdback.pop_ready(&self.vt) {
            let arrived_at = pending.arrived_at;
            self.deliver(
                now,
                arrived_at,
                pending.msg,
                WaitKind::NackRepair,
                delivered,
                out,
            );
            any = true;
        }
        any
    }

    /// The single delivery point for both paths: advance the clock,
    /// record stability, retain for retransmission, and — crucially —
    /// forward the message on every outgoing link.
    fn deliver(
        &mut self,
        now: SimTime,
        arrived_at: SimTime,
        msg: DataMsg<P>,
        wait_kind: WaitKind,
        delivered: &mut Vec<Delivery<P>>,
        out: &mut Vec<Out<P>>,
    ) {
        let sender = msg.id.sender;
        let seq = msg.id.seq;
        debug_assert_eq!(seq, self.vt.get(sender) + 1, "delivery must be FIFO");
        self.vt.set(sender, seq);
        self.holdback.note_delivered(sender, seq);
        self.stability.record_local_delivery(self.me, sender, seq);
        self.missing.remove(&msg.id);
        if !self.barrier_met {
            self.barrier_met = self.check_barrier();
        }
        let was_held = arrived_at < now;
        self.stats.delivered += 1;
        if was_held {
            self.stats.delivered_after_hold += 1;
            self.stats.hold_time_total += now.saturating_since(arrived_at);
            // Ledger attribution: a link-path delivery waited on its
            // per-link reorder cursor, a repair-path one on a NACK
            // retransmission. The install-time drain splits the interval
            // at the freeze instant; the frozen tail is a flush wait.
            let split = self.install_thaw.filter(|fs| *fs < now && *fs > arrived_at);
            if let Some(fs) = split {
                self.probe.emit(|| ObsEvent::Wait {
                    at: fs,
                    who: self.me,
                    span: span_of(msg.id),
                    kind: wait_kind,
                    since: arrived_at,
                    blocker: None,
                    note: String::new(),
                });
            }
            let frozen_tail = self.install_thaw.is_some();
            self.probe.emit(|| ObsEvent::Wait {
                at: now,
                who: self.me,
                span: span_of(msg.id),
                kind: if frozen_tail {
                    WaitKind::FlushBarrier
                } else {
                    wait_kind
                },
                since: split.unwrap_or(arrived_at),
                blocker: None,
                note: if frozen_tail {
                    "delivery frozen until the view installed".to_string()
                } else {
                    String::new()
                },
            });
        }
        self.probe.emit(|| ObsEvent::Span {
            at: now,
            who: self.me,
            span: span_of(msg.id),
            stage: Stage::Delivered,
            note: String::new(),
        });
        self.forward(&msg, out, false);
        delivered.push(Delivery {
            id: msg.id,
            payload: msg.payload.clone(),
            arrived_at,
            delivered_at: now,
            gseq: None,
            waited_for: Vec::new(),
        });
        self.buffer.insert(msg.id, msg);
    }

    fn collect_garbage(&mut self, now: SimTime) {
        if !self.stability.take_frontier_moved() {
            return;
        }
        let frontier = self.stability.stable_frontier();
        let before = self.buffer.len();
        self.buffer.retain(|id, _| id.seq > frontier.get(id.sender));
        let reclaimed = before - self.buffer.len();
        self.probe.emit(|| ObsEvent::Phase {
            at: now,
            who: self.me,
            kind: PhaseKind::StabilityRound,
            edge: PhaseEdge::Point,
            note: format!("stable frontier {frontier:?}, {reclaimed} reclaimed"),
        });
        self.stats.stabilized += reclaimed as u64;
        self.note_buffer();
    }

    fn note_buffer(&mut self) {
        let msgs = self.buffer.len() as u64;
        // Constant per-message wire state: id + Pc tag + retransmit flag.
        // (The full clock retained for NACK repair is deliberately not
        // charged — see the module docs.)
        let per_msg = (self.cfg.payload_bytes + 12 + 20 + 1) as u64;
        self.stats.note_buffer(msgs, msgs * per_msg);
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
            if *d == Dest::One(ep.me()) {
                let (ds, os) = ep.on_wire(now, w.clone());
                dels.extend(ds);
                next.extend(os);
            }
        }
        (dels, next)
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
        assert_eq!(a.stats().data_overhead_bytes, 33);
    }

    #[test]
    fn tag_size_is_independent_of_group_size() {
        for n in [2usize, 64, 1024] {
            let mut e: PccastEndpoint<u64> = PccastEndpoint::new(0, n, GroupConfig::default());
            let (_, out) = e.multicast(t(0), 7);
            for (_, w) in &out {
                assert_eq!(w.overhead_bytes(), 33, "n={n}");
            }
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
        assert_eq!(b.clock().get(0), 1);
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
        assert_eq!(c.stats().delivered_after_hold, 2);
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
        assert!(b.stats().duplicates >= 1);
        assert_eq!(b.stats().delivered, 1);
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
        assert_eq!(c.stats().delivered_after_hold, 0);
        // The delayed position-1 link copy arrives: consumed as a
        // duplicate, and the stalled head (m2) follows in causal order.
        let (dels, _) = feed(&mut c, t(5), &m1_copy);
        let seen: Vec<&str> = dels.iter().map(|d| d.payload).collect();
        assert_eq!(seen, vec!["m2"]);
        assert_eq!(c.stats().delivered, 2);
        assert!(c.stats().duplicates >= 1);
        assert_eq!(c.link_buffered_len(), 0);
    }

    #[test]
    fn quiescent_group_reaches_stability_via_tick_gossip() {
        let (mut a, mut b, mut c) = trio();
        let (_, out) = a.multicast(t(0), "last words");
        feed(&mut b, t(1), &out);
        feed(&mut c, t(1), &out);
        assert!(a.stability_lag() > 0);
        assert_eq!(a.stats().buffered_now, 1);
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
            assert_eq!(ep.stability_lag(), 0, "P{who} horizon stuck");
        }
        assert_eq!(a.stats().buffered_now, 0);
        assert_eq!(a.stats().stabilized, 1);
    }

    #[test]
    fn view_install_resets_epoch_and_links() {
        let (mut a, mut b, _) = trio();
        let (_, out) = a.multicast(t(0), "old view");
        feed(&mut b, t(1), &out);
        // Member 2 is evicted; view 2 installs with the agreed cut.
        let cut = VectorClock::from_entries(vec![1, 0, 0]);
        a.freeze(t(2));
        b.freeze(t(2));
        let (_, _) = a.on_view_install(t(3), 2, &[0, 1], &cut);
        let (_, _) = b.on_view_install(t(3), 2, &[0, 1], &cut);
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
        b.freeze(t(1));
        let cut = VectorClock::new(3);
        b.on_view_install(t(2), 2, &[0, 1], &cut);
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
        assert_eq!(a.clock().get(2), 1);
        let cut = VectorClock::from_entries(vec![0, 0, 1]);
        a.freeze(t(1));
        b.freeze(t(1));
        a.on_view_install(t(2), 2, &[0, 1], &cut);
        b.on_view_install(t(2), 2, &[0, 1], &cut);
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
        b.freeze(t(1));
        let (dels, _) = feed(&mut b, t(2), &out);
        assert!(dels.is_empty());
        assert!(b.is_frozen());
        // Thaw via install of the same membership: the copy delivers.
        let (dels, _) = b.on_view_install(t(3), 1, &[0, 1, 2], &VectorClock::new(3));
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
        // Repair copy of m0.1, causally after m1.1 (not yet delivered):
        // parks in the holdback.
        let (dels, _) = b.on_wire(t(0), Wire::Data(mk(0, vec![1, 1, 0], "m0.1")));
        assert!(dels.is_empty());
        assert_eq!(b.holdback_len(), 1);
        // The link copy of the same id arrives at a deliverable head
        // (seq == vt[0]+1, barrier met). It must stall, not deliver.
        let mut link_copy = mk(0, vec![1, 1, 0], "m0.1");
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
        let (dels, _) = b.on_wire(t(2), Wire::Data(mk(1, vec![0, 1, 0], "m1.1")));
        let seen: Vec<&str> = dels.iter().map(|d| d.payload).collect();
        assert_eq!(seen, vec!["m1.1", "m0.1"]);
        assert_eq!(b.link_buffered_len(), 0);
        assert_eq!(b.holdback_len(), 0);
        assert!(b.stats().duplicates >= 1);
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
