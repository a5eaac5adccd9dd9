//! Token-ring totally ordered multicast — the ablation partner of the
//! fixed-sequencer [`crate::abcast`] design.
//!
//! A single token circulates around the members in index order. A member
//! may only multicast while holding the token; it stamps each message with
//! the token's global sequence counter directly, so the total order is
//! established at the sender with no separate Order message. Submissions
//! made without the token queue locally until the token arrives.
//!
//! Trade-offs versus the sequencer (measured by the `ablate` experiment):
//! sending latency depends on the token rotation time (bad at low load,
//! scales with N), but ordering adds no extra hop and the sequencer
//! hotspot disappears.

use crate::causal_core::{arrival, span_of, MAX_CHASE_AHEAD, PAYLOAD_BYTES};
use crate::endpoint::Protocol;
use crate::group::{GroupConfig, MsgId};
use crate::waitgraph::{WaitNode, WaitReason, WaitRecord};
use crate::wire::{DataMsg, Delivery, Dest, EndpointStats, Out, Refusal, VtWire, Wire};
use simnet::obs::{LatencyPhase, ObsEvent, PhaseEdge, PhaseKind, ProbeHandle, Stage};
use simnet::time::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// The token-ring total-order endpoint for one member.
#[derive(Debug)]
pub struct TokenAbcastEndpoint<P> {
    me: usize,
    n: usize,
    cfg: GroupConfig,
    /// Whether we currently hold the token.
    holding: bool,
    /// The token's global sequence counter while held.
    token_gseq: u64,
    token_hops: u64,
    /// Payloads submitted while not holding the token.
    pending_submit: VecDeque<(P, SimTime)>,
    /// Received (or self-sent) data by global sequence.
    by_gseq: BTreeMap<u64, (DataMsg<P>, SimTime)>,
    /// Next global sequence to deliver.
    next_deliver: u64,
    /// Per-sender send counter (message identity).
    next_seq: u64,
    /// Last NACK time for a delivery gap.
    last_nack: Option<SimTime>,
    /// Highest token hop count seen (dedupes retransmitted tokens).
    last_token_hops: u64,
    /// A token pass awaiting acknowledgement: (receiver, gseq, hops,
    /// last send time). Retransmitted until `TokenAck` arrives — a lost
    /// token halts the entire total order.
    unacked_pass: Option<(usize, u64, u64, SimTime)>,
    /// When the token was last passed on (when an unacknowledged pass
    /// began to wait — resends do not restart it).
    passed_at: SimTime,
    /// Observability sink (token rotations). Disabled by default.
    probe: ProbeHandle,
    stats: EndpointStats,
    /// Buffer of own sent messages for retransmission, keyed by gseq.
    sent: BTreeMap<u64, DataMsg<P>>,
}

impl<P: Clone> TokenAbcastEndpoint<P> {
    /// Creates the endpoint; member 0 starts holding the token with the
    /// counter at 0.
    pub(crate) fn new(me: usize, n: usize, cfg: GroupConfig) -> Self {
        assert!(me < n, "member index out of range");
        TokenAbcastEndpoint {
            me,
            n,
            cfg,
            holding: me == 0,
            token_gseq: 0,
            token_hops: 0,
            pending_submit: VecDeque::new(),
            by_gseq: BTreeMap::new(),
            next_deliver: 0,
            next_seq: 0,
            last_nack: None,
            last_token_hops: 0,
            unacked_pass: None,
            passed_at: SimTime::ZERO,
            probe: ProbeHandle::none(),
            stats: EndpointStats::default(),
            sent: BTreeMap::new(),
        }
    }

    /// Whether this member currently holds the token.
    pub fn holding_token(&self) -> bool {
        self.holding
    }

    /// Passes the token to the next member in ring order, after the
    /// submissions are drained (from the tick handler). The pass is
    /// retransmitted from `on_tick` until acknowledged.
    fn pass_token(&mut self, now: SimTime) -> Option<Out<P>> {
        if !self.holding {
            return None;
        }
        self.holding = false;
        self.passed_at = now;
        let next = (self.me + 1) % self.n;
        let hops = self.token_hops + 1;
        let w = Wire::Token {
            next_gseq: self.token_gseq,
            hops,
        };
        self.unacked_pass = Some((next, self.token_gseq, hops, SimTime::ZERO));
        Some((Dest::One(next), w))
    }

    /// Acknowledges token pass `hops` to the passer.
    fn token_ack(&self, hops: u64) -> Out<P> {
        (
            Dest::One((self.me + self.n - 1) % self.n),
            Wire::TokenAck { hops },
        )
    }

    fn drain_submissions(&mut self, now: SimTime) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        let mut out = Vec::new();
        while let Some((payload, submitted)) = self.pending_submit.pop_front() {
            self.token_gseq += 1;
            self.next_seq += 1;
            let gseq = self.token_gseq;
            // The message carries its slot in the total order, and nothing
            // else beyond its id.
            let msg = DataMsg::counted(
                MsgId {
                    sender: self.me,
                    seq: self.next_seq,
                },
                VtWire::Gseq(gseq),
                payload,
            );
            self.sent.insert(gseq, msg.clone());
            // Own messages are timed from submission, so the release hold
            // time includes the wait for the token rotation.
            self.by_gseq.insert(gseq, (msg.clone(), submitted));
            let span = span_of(msg.id);
            self.probe.emit(|| ObsEvent::Span {
                at: submitted,
                who: self.me,
                span,
                stage: Stage::Send,
                note: format!("gseq {gseq}"),
            });
            if submitted < now {
                // The submission sat in the local queue until the token
                // arrived: charge that window to the token hold phase.
                self.probe.emit(|| ObsEvent::Wait {
                    at: now,
                    who: self.me,
                    span,
                    phase: LatencyPhase::Token,
                    pre_send: true,
                    since: submitted,
                    blocker: None,
                    note: "queued awaiting the token".to_string(),
                });
            }
            self.stats.sent += 1;
            out.push((Dest::All, Wire::Data(msg)));
        }
        self.note_buffer();
        let dels = self.release(now);
        (dels, out)
    }

    /// Samples the buffer gauges: every own message stays in `sent` for
    /// NACK serves, its payload, id and slot.
    fn note_buffer(&mut self) {
        let msgs = self.sent.len() as u64;
        let per_msg = (PAYLOAD_BYTES + 12 + 8) as u64;
        self.stats.note_buffer(msgs, msgs * per_msg);
    }

    fn release(&mut self, now: SimTime) -> Vec<Delivery<P>> {
        let mut dels = Vec::new();
        while let Some((msg, arrived)) = self.by_gseq.remove(&(self.next_deliver + 1)) {
            self.next_deliver += 1;
            let held = self.stats.note_delivery(arrived, now);
            let span = span_of(msg.id);
            let gseq = self.next_deliver;
            self.probe.emit(|| ObsEvent::Span {
                at: now,
                who: self.me,
                span,
                stage: Stage::Delivered,
                note: format!("gseq {gseq}"),
            });
            if held {
                self.probe.emit(|| ObsEvent::Wait {
                    at: now,
                    who: self.me,
                    span,
                    phase: LatencyPhase::Token,
                    pre_send: false,
                    since: arrived,
                    blocker: None,
                    note: String::new(),
                });
            }
            dels.push(Delivery {
                id: msg.id,
                payload: msg.payload,
                arrived_at: arrived,
                delivered_at: now,
                gseq: Some(self.next_deliver),
                waited_for: Vec::new(),
            });
        }
        self.stats.note_holdback(self.by_gseq.len() as u64);
        dels
    }
}

impl<P: Clone> Protocol<P> for TokenAbcastEndpoint<P> {
    /// Installs an observability probe; token arrivals are recorded as
    /// token-rotation phase events.
    fn set_probe(&mut self, probe: ProbeHandle) {
        self.probe = probe;
    }

    /// Submits `payload` for totally ordered multicast. If the token is
    /// held, the message goes out (and may deliver) immediately;
    /// otherwise it queues until the token arrives.
    fn multicast(&mut self, now: SimTime, payload: P) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        self.pending_submit.push_back((payload, now));
        if !self.holding {
            return (Vec::new(), Vec::new());
        }
        let (dels, out) = self.drain_submissions(now);
        self.stats.book(self.me, &out);
        (dels, out)
    }

    fn n(&self) -> usize {
        self.n
    }

    /// A slot, or a token's next slot, far past the next to deliver (it
    /// would wait in `by_gseq` for good; the token would wrap the
    /// counter), or a token's hop count far past the last one seen.
    fn out_of_reach(&self, wire: &Wire<P>) -> bool {
        let far = |ahead: u64, of: u64| ahead.saturating_sub(of) > MAX_CHASE_AHEAD;
        match *wire {
            Wire::Data(ref msg) => {
                matches!(msg.vt_wire, VtWire::Gseq(g) if far(g, self.next_deliver))
            }
            Wire::Token { next_gseq, hops } => {
                far(next_gseq, self.next_deliver) || far(hops, self.last_token_hops)
            }
            _ => false,
        }
    }

    fn receive(&mut self, now: SimTime, wire: Wire<P>) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        let (dels, out) = match wire {
            Wire::Token { hops, .. } if hops <= self.last_token_hops => {
                // A duplicate of a token we already consumed: acknowledged
                // again, for the passer retransmits until then.
                self.stats.duplicates += 1;
                (Vec::new(), vec![self.token_ack(hops)])
            }
            Wire::Token { next_gseq, hops } => {
                self.last_token_hops = hops;
                self.holding = true;
                self.token_gseq = next_gseq;
                self.token_hops = hops;
                self.probe.emit_phase(|| ObsEvent::Phase {
                    at: now,
                    who: self.me,
                    kind: PhaseKind::TokenRotation,
                    edge: PhaseEdge::Point,
                    note: format!(
                        "token arrived (hop {hops}, gseq {next_gseq}, {} queued)",
                        self.pending_submit.len()
                    ),
                });
                let (dels, mut out) = self.drain_submissions(now);
                out.push(self.token_ack(hops));
                (dels, out)
            }
            Wire::TokenAck { hops } => {
                if let Some((_, _, h, _)) = self.unacked_pass {
                    if hops == h {
                        self.unacked_pass = None;
                    }
                }
                (Vec::new(), Vec::new())
            }
            Wire::Data(msg) => {
                let VtWire::Gseq(gseq) = msg.vt_wire else {
                    // No holder stamped it with a slot in the order.
                    self.stats.refuse(Refusal::Undecodable);
                    return (Vec::new(), Vec::new());
                };
                self.stats.data_received += 1;
                self.probe.emit(|| arrival(now, self.me, &msg));
                if gseq <= self.next_deliver || self.by_gseq.contains_key(&gseq) {
                    self.stats.duplicates += 1;
                    return (Vec::new(), Vec::new());
                }
                self.by_gseq.insert(gseq, (msg, now));
                let dels = self.release(now);
                (dels, Vec::new())
            }
            Wire::Nack { from, want } => {
                let mut out = Vec::new();
                for id in want {
                    // `seq` in the NACK names the global sequence here.
                    if let Some(m) = self.sent.get_mut(&id.seq) {
                        self.stats.retransmits_served += 1;
                        out.push((Dest::One(from), Wire::Data(m.repair_copy())));
                    }
                }
                (Vec::new(), out)
            }
            _ => (Vec::new(), Vec::new()),
        };
        self.stats.book(self.me, &out);
        (dels, out)
    }

    /// Periodic maintenance: resend an unacknowledged pass, NACK delivery
    /// gaps (to everyone — any member may have the missing message
    /// buffered), and pass a held token on: it is held for one tick.
    fn on_tick(&mut self, now: SimTime) -> Vec<Out<P>> {
        let mut out = Vec::new();
        // Retransmit an unacknowledged token pass.
        if let Some((next, gseq, hops, last_sent)) = self.unacked_pass {
            if now.saturating_since(last_sent) >= self.cfg.nack_timeout {
                let w = Wire::Token {
                    next_gseq: gseq,
                    hops,
                };
                self.stats.retransmits_served += 1;
                self.unacked_pass = Some((next, gseq, hops, now));
                out.push((Dest::One(next), w));
            }
        }
        if let Some((&max_known, _)) = self.by_gseq.iter().next_back() {
            let overdue = match self.last_nack {
                None => true,
                Some(t) => now.saturating_since(t) >= self.cfg.nack_timeout,
            };
            let want: Vec<MsgId> = ((self.next_deliver + 1)..max_known)
                .filter(|g| !self.by_gseq.contains_key(g))
                .take(self.cfg.max_nack_batch)
                .map(|g| MsgId { sender: 0, seq: g })
                .collect();
            if overdue && !want.is_empty() {
                self.last_nack = Some(now);
                let w = Wire::Nack {
                    from: self.me,
                    want,
                };
                self.stats.nacks_sent += 1;
                out.push((Dest::All, w));
            }
        }
        out.extend(self.pass_token(now));
        self.stats.book(self.me, &out);
        out
    }

    fn stats(&self) -> &EndpointStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut EndpointStats {
        &mut self.stats
    }

    fn sample(&self, emit: &mut dyn FnMut(&str, f64)) {
        emit("token.queued", self.pending_submit.len() as f64);
        emit(
            "token.undelivered",
            self.by_gseq.range(self.next_deliver..).count() as f64,
        );
        emit("token.sent_buffer", self.sent.len() as f64);
    }

    /// What is blocked here and on what (contract in
    /// [`crate::waitgraph`]): buffered data beyond a delivery gap waits on
    /// the rotation (or NACK repair) that fills the next slot — every
    /// stamped message knows its own; submissions queued without the
    /// token block the process on its rotation phase since the oldest
    /// was made; and an unacknowledged pass blocks that phase on the
    /// receiver (a lost token halts the whole order).
    fn wait_records(&self, _every_gap: bool, emit: &mut dyn FnMut(&WaitRecord)) {
        let rotation = WaitNode::Phase {
            kind: PhaseKind::TokenRotation,
            at: self.me,
        };
        let mut emit = |blocked, since, slot, on, why| {
            emit(&WaitRecord {
                blocked,
                who: self.me,
                since,
                slot,
                waits: vec![(on, why)],
            })
        };
        let stuck = self.next_deliver + 1;
        for (&slot, (msg, arrived)) in self.by_gseq.range(stuck + 1..) {
            let gap = WaitReason::OrderGap { slot: stuck };
            emit(WaitNode::Msg(msg.id), *arrived, Some(slot), rotation, gap);
        }
        let me = WaitNode::Proc(self.me);
        if let Some((_, since)) = self.pending_submit.front().filter(|_| !self.holding) {
            emit(me, *since, None, rotation, WaitReason::TokenQueued);
        }
        if let Some((next, ..)) = self.unacked_pass {
            let next = WaitNode::Proc(next);
            emit(
                rotation,
                self.passed_at,
                None,
                next,
                WaitReason::PassUnacked,
            );
        }
    }
    fn buffered_len(&self) -> usize {
        self.stats.buffered_now as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocks::vector::VectorClock;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn the_retransmission_buffer_is_booked() {
        let mut a = TokenAbcastEndpoint::new(0, 3, GroupConfig::default());
        for p in ["x", "y"] {
            a.multicast(t(0), p);
        }
        assert_eq!(a.sent.len(), 2);
        assert_eq!(a.buffered_len(), 2);
        let s = a.stats();
        assert_eq!((s.buffered_now, s.buffered_peak), (2, 2));
        assert_eq!(s.buffered_bytes_now, 2 * (PAYLOAD_BYTES + 12 + 8) as u64);
    }

    /// A slot far beyond the order is refused at the front door and
    /// leaves nothing to NACK: before the bound it sat in `by_gseq` for
    /// good, and every tick NACKed everyone for the gap below it.
    #[test]
    fn a_slot_out_of_reach_is_refused() {
        let mut b = TokenAbcastEndpoint::new(1, 3, GroupConfig::default());
        let copy = |gseq| {
            let id = MsgId { sender: 0, seq: 1 };
            Wire::Data(DataMsg::counted(id, VtWire::Gseq(gseq), "x"))
        };
        for gseq in [u64::MAX, MAX_CHASE_AHEAD + 1] {
            let (dels, out) = b.on_wire(t(1), copy(gseq));
            assert!(dels.is_empty() && out.is_empty(), "gseq {gseq}");
        }
        assert_eq!(
            (b.stats().ts_decode_errors, b.stats().data_received),
            (2, 0)
        );
        assert!(b.by_gseq.is_empty());
        let nack_timeout = GroupConfig::default().nack_timeout;
        let out = b.on_tick(t(1) + nack_timeout);
        assert!(!out.iter().any(|(_, w)| matches!(w, Wire::Nack { .. })));
        // The furthest slot still in reach is taken, and its gap chased.
        b.on_wire(t(2), copy(MAX_CHASE_AHEAD));
        assert_eq!(b.by_gseq.len(), 1);
    }

    /// A token whose counter or hop count is far past this member's once
    /// made its holder stamp past `u64::MAX` (a panic with overflow
    /// checks on; every peer dropped the wrapped slot as a duplicate
    /// without). Each is refused at the door: the queued submission waits
    /// for the real token, which still delivers it at slot 1.
    #[test]
    fn a_token_out_of_reach_is_refused() {
        let mut b = TokenAbcastEndpoint::new(1, 3, GroupConfig::default());
        b.multicast(t(0), "queued");
        let far = MAX_CHASE_AHEAD + 1;
        for (next_gseq, hops) in [(u64::MAX, u64::MAX), (far, 1), (0, far)] {
            let (dels, out) = b.on_wire(t(1), Wire::Token { next_gseq, hops });
            assert!(dels.is_empty() && out.is_empty(), "{next_gseq}/{hops}");
            assert!(!b.holding_token());
        }
        assert_eq!(b.stats().ts_decode_errors, 3);
        let (dels, _) = b.on_wire(
            t(2),
            Wire::Token {
                next_gseq: 0,
                hops: 1,
            },
        );
        assert_eq!(dels.len(), 1);
        assert_eq!((dels[0].payload, dels[0].gseq), ("queued", Some(1)));
    }

    /// A second copy of a slot held but not yet delivered is a duplicate
    /// like one of a delivered slot: counted, and the first copy kept.
    #[test]
    fn a_second_copy_of_a_held_slot_is_a_duplicate() {
        let mut b = TokenAbcastEndpoint::new(1, 3, GroupConfig::default());
        let copy = |payload| {
            let id = MsgId { sender: 0, seq: 2 };
            Wire::Data(DataMsg::counted(id, VtWire::Gseq(2), payload))
        };
        b.on_wire(t(1), copy("first"));
        let (dels, _) = b.on_wire(t(2), copy("second"));
        assert!(dels.is_empty());
        assert_eq!(b.stats().duplicates, 1);
        let first = DataMsg::counted(MsgId { sender: 0, seq: 1 }, VtWire::Gseq(1), "x");
        let (dels, _) = b.on_wire(t(3), Wire::Data(first));
        let payloads: Vec<_> = dels.iter().map(|d| d.payload).collect();
        assert_eq!(payloads, ["x", "first"]);
    }

    #[test]
    fn holder_sends_and_delivers_immediately() {
        let mut a = TokenAbcastEndpoint::new(0, 3, GroupConfig::default());
        assert!(a.holding_token());
        let (dels, out) = a.multicast(t(0), "x");
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].gseq, Some(1));
        assert_eq!(out.len(), 1);
    }

    /// A token multicast books its id and its slot in the order, nothing
    /// that grows with the group: 21 bytes at every width, and as much
    /// again for a copy served from the sent buffer. Its stamp needs no
    /// decode context, so `make_full` leaves it alone.
    #[test]
    fn a_multicast_books_its_gseq_alone_at_every_width() {
        for n in [4, 64, 1024] {
            let mut a = TokenAbcastEndpoint::new(0, n, GroupConfig::default());
            let (_, out) = a.multicast(t(0), "m");
            let [(Dest::All, Wire::Data(sent))] = &out[..] else {
                panic!("one data wire to the group, not {out:?}");
            };
            let mut full = sent.clone();
            full.make_full();
            assert!(matches!(full.vt_wire, VtWire::Gseq(1)), "n = {n}");
            assert_eq!(a.stats().data_overhead_bytes, 21, "n = {n}");
            // `seq` in a token NACK names the global sequence.
            let want = vec![MsgId { sender: 0, seq: 1 }];
            let (_, served) = a.on_wire(t(1), Wire::Nack { from: 1, want });
            assert_eq!(served.len(), 1, "n = {n}");
            assert_eq!(a.stats().control_bytes, 21, "n = {n}");
        }
    }

    /// Only a holder's stamp gives a data copy its slot. A copy with no
    /// gseq — even a full clock whose component 0 reads 1 — or from
    /// outside the group is counted and leaves nothing behind; the ring
    /// then delivers slot 1 as if it never came.
    #[test]
    fn a_data_wire_without_a_gseq_is_refused() {
        let mut a = TokenAbcastEndpoint::new(0, 3, GroupConfig::default());
        let mut b = TokenAbcastEndpoint::new(1, 3, GroupConfig::default());
        let id = MsgId { sender: 0, seq: 1 };
        let outsider = MsgId { sender: 3, seq: 1 };
        let hostile = [
            DataMsg::new(id, VectorClock::from_entries(vec![1, 0, 0]), "x"),
            DataMsg::counted(id, VtWire::Id, "x"),
            DataMsg::counted(outsider, VtWire::Gseq(1), "x"),
        ];
        for (i, msg) in hostile.into_iter().enumerate() {
            let (dels, out) = b.on_wire(t(1), Wire::Data(msg));
            assert!(dels.is_empty() && out.is_empty(), "wire {i}");
            assert!(b.by_gseq.is_empty(), "wire {i}");
            assert_eq!(b.stats().ts_decode_errors, i as u64 + 1);
        }
        assert_eq!((b.stats().data_received, b.next_deliver), (0, 0));
        let (_, out) = a.multicast(t(2), "y");
        let (dels, _) = b.on_wire(t(3), out.into_iter().next().expect("the data").1);
        assert_eq!(dels.len(), 1);
        assert_eq!((dels[0].payload, dels[0].gseq), ("y", Some(1)));
    }

    #[test]
    fn non_holder_queues_until_token() {
        let mut b = TokenAbcastEndpoint::new(1, 3, GroupConfig::default());
        let (dels, out) = b.multicast(t(0), "y");
        assert!(dels.is_empty() && out.is_empty());
        assert_eq!(b.pending_submit.len(), 1);
        let (dels, out) = b.on_wire(
            t(5),
            Wire::Token {
                next_gseq: 0,
                hops: 1,
            },
        );
        assert_eq!(dels.len(), 1);
        assert!(!out.is_empty());
        assert_eq!(b.pending_submit.len(), 0);
    }

    /// The three waits of the ring, from bare endpoints: a queue behind
    /// the token, a pass nobody has acknowledged, and data past a gap.
    #[test]
    fn wait_records_name_the_queue_the_pass_and_the_gap() {
        let cfg = GroupConfig::default();
        let rotation = |at| WaitNode::Phase {
            kind: PhaseKind::TokenRotation,
            at,
        };
        let record = |blocked, who, since, on, why| WaitRecord {
            blocked,
            who,
            since,
            slot: None,
            waits: vec![(on, why)],
        };
        let records = |ep: &TokenAbcastEndpoint<&'static str>| {
            let mut out = Vec::new();
            ep.wait_records(false, &mut |r| out.push(r.clone()));
            out
        };

        // Submissions without the token: since the oldest one.
        let mut b = TokenAbcastEndpoint::new(1, 3, cfg.clone());
        b.multicast(t(4), "y1");
        b.multicast(t(6), "y2");
        let queued = WaitReason::TokenQueued;
        let want = record(WaitNode::Proc(1), 1, t(4), rotation(1), queued);
        assert_eq!(records(&b), [want]);

        // The holder has nothing to wait for until it passes the token
        // on; the pass then waits on the receiver from the moment it was
        // made, however often it is resent.
        let mut a = TokenAbcastEndpoint::new(0, 3, cfg.clone());
        let sent: Vec<_> = (0..3).map(|i| a.multicast(t(i), "a").1).collect();
        assert_eq!(records(&a), []);
        a.pass_token(t(7));
        a.on_tick(t(7) + cfg.nack_timeout);
        let unacked = WaitReason::PassUnacked;
        let want = record(rotation(0), 0, t(7), WaitNode::Proc(1), unacked);
        assert_eq!(records(&a), std::slice::from_ref(&want));
        // A submission made now queues behind the token it gave away.
        a.multicast(t(9), "late");
        let queue = record(WaitNode::Proc(0), 0, t(9), rotation(0), queued);
        assert_eq!(records(&a), [queue, want]);
        a.on_wire(t(10), Wire::TokenAck { hops: 1 });
        assert_eq!(records(&a).len(), 1);

        // Slot 3 arrives at c with slot 2 missing: one record, for the
        // copy past the gap — nothing for delivered slot 1.
        let mut c = TokenAbcastEndpoint::new(2, 3, cfg);
        let data = |i: usize| sent[i][0].1.clone();
        assert_eq!(c.on_wire(t(11), data(0)).0.len(), 1);
        c.on_wire(t(12), data(2));
        let id = MsgId { sender: 0, seq: 3 };
        let gap = WaitReason::OrderGap { slot: 2 };
        let mut want = record(WaitNode::Msg(id), 2, t(12), rotation(2), gap);
        want.slot = Some(3);
        assert_eq!(records(&c), [want]);
        assert_eq!(c.on_wire(t(13), data(1)).0.len(), 2);
        assert_eq!(records(&c), []);
    }

    #[test]
    fn global_order_consistent_across_members() {
        let cfg = GroupConfig::default();
        let mut a = TokenAbcastEndpoint::new(0, 2, cfg.clone());
        let mut b = TokenAbcastEndpoint::new(1, 2, cfg);
        let (_, oa) = a.multicast(t(0), "a1");
        let tok = a.pass_token(t(0)).unwrap();
        let (_, ob_pre) = b.multicast(t(1), "b1");
        assert!(ob_pre.is_empty());
        let (_, ob) = b.on_wire(t(2), tok.1);
        // Deliver cross traffic.
        fn deliver<'p>(
            ep: &mut TokenAbcastEndpoint<&'p str>,
            outs: &[Out<&'p str>],
            at: SimTime,
        ) -> Vec<Delivery<&'p str>> {
            let mut got = Vec::new();
            for (_, w) in outs {
                if matches!(w, Wire::Data(_)) {
                    let (d, _) = ep.on_wire(at, w.clone());
                    got.extend(d);
                }
            }
            got
        }
        let db = deliver(&mut b, &oa, t(3));
        let da = deliver(&mut a, &ob, t(3));
        assert_eq!(db[0].gseq, Some(1));
        assert_eq!(da[0].gseq, Some(2));
        assert_eq!(db[0].payload, "a1");
        assert_eq!(da[0].payload, "b1");
    }

    #[test]
    fn gap_nack_and_retransmit() {
        let cfg = GroupConfig::default();
        let mut a = TokenAbcastEndpoint::new(0, 2, cfg.clone());
        let mut b = TokenAbcastEndpoint::new(1, 2, cfg.clone());
        let (_, o1) = a.multicast(t(0), "m1");
        let (_, o2) = a.multicast(t(1), "m2");
        // b misses m1.
        let (dels, _) = b.on_wire(t(2), o2[0].1.clone());
        assert!(dels.is_empty());
        let nacks = b.on_tick(t(2) + cfg.nack_timeout);
        let nack = nacks
            .into_iter()
            .find(|(_, w)| matches!(w, Wire::Nack { .. }))
            .expect("gap nack");
        let (_, served) = a.on_wire(t(3), nack.1);
        assert_eq!(served.len(), 1);
        let (dels, _) = b.on_wire(t(4), served[0].1.clone());
        assert_eq!(
            dels.iter().map(|d| d.payload).collect::<Vec<_>>(),
            vec!["m1", "m2"]
        );
        let _ = o1;
    }

    #[test]
    fn lost_token_is_retransmitted() {
        let cfg = GroupConfig::default();
        let mut a = TokenAbcastEndpoint::<u32>::new(0, 2, cfg.clone());
        let pass = a.pass_token(SimTime::ZERO).expect("pass");
        // The pass is lost; a tick after the timeout retransmits it.
        let out = a.on_tick(SimTime::ZERO + cfg.nack_timeout);
        assert!(
            out.iter().any(|(_, w)| matches!(w, Wire::Token { .. })),
            "token retransmitted"
        );
        // The receiver finally gets it and acks; the ack clears the
        // retransmission state.
        let mut b = TokenAbcastEndpoint::<u32>::new(1, 2, cfg.clone());
        let (_, outs) = b.on_wire(SimTime::from_millis(50), pass.1);
        let ack = outs
            .into_iter()
            .find(|(_, w)| matches!(w, Wire::TokenAck { .. }))
            .expect("ack sent");
        a.on_wire(SimTime::from_millis(51), ack.1);
        let out = a.on_tick(SimTime::from_millis(51) + cfg.nack_timeout);
        assert!(
            !out.iter().any(|(_, w)| matches!(w, Wire::Token { .. })),
            "no retransmission after ack"
        );
    }

    #[test]
    fn duplicate_token_is_ignored_but_acked() {
        let cfg = GroupConfig::default();
        let mut b = TokenAbcastEndpoint::<u32>::new(1, 2, cfg);
        let tok = Wire::Token {
            next_gseq: 0,
            hops: 1,
        };
        let (_, o1) = b.on_wire(SimTime::from_millis(1), tok.clone());
        assert!(o1.iter().any(|(_, w)| matches!(w, Wire::TokenAck { .. })));
        assert!(b.holding_token());
        // Retransmitted duplicate: acked again, not re-consumed.
        let _ = b.pass_token(SimTime::from_millis(1));
        let (_, o2) = b.on_wire(SimTime::from_millis(2), tok);
        assert!(o2.iter().any(|(_, w)| matches!(w, Wire::TokenAck { .. })));
        assert!(!b.holding_token(), "duplicate must not re-grant the token");
    }

    #[test]
    fn token_hops_count() {
        let mut a = TokenAbcastEndpoint::<u32>::new(0, 2, GroupConfig::default());
        let tok = a.pass_token(SimTime::ZERO).unwrap();
        match tok.1 {
            Wire::Token { hops, .. } => assert_eq!(hops, 1),
            _ => panic!("expected token"),
        }
        assert!(a.pass_token(SimTime::ZERO).is_none(), "cannot pass twice");
    }
}
