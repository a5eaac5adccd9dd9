//! FIFO multicast (`fbcast`): per-sender ordering only.
//!
//! This is the "conventional transport" baseline the paper repeatedly
//! appeals to (§4.3: "the delivery of commit phase messages is easily
//! ordered by conventional transport mechanisms without CATOCS"). Each
//! sender's messages are delivered in the order sent; messages from
//! different senders are delivered in arrival order with *no* holdback —
//! so there is no false-causality delay and the only per-message overhead
//! is a sequence number.

use crate::causal_core::MAX_CHASE_AHEAD;
use crate::group::{GroupConfig, MsgId};
use crate::waitgraph::{WaitNode, WaitReason, WaitRecord};
use crate::wire::{DataMsg, Delivery, Dest, EndpointStats, Out, Wire};
use clocks::vector::VectorClock;
use simnet::obs::{ObsEvent, ProbeHandle, SpanId, Stage, WaitKind};
use simnet::time::SimTime;
use std::collections::BTreeMap;

fn span_of(id: MsgId) -> SpanId {
    SpanId {
        origin: id.sender,
        seq: id.seq,
    }
}

/// One sender's incoming stream state.
#[derive(Debug)]
struct SenderStream<P> {
    /// Highest seq delivered from this sender.
    delivered: u64,
    /// Out-of-order arrivals waiting for the gap to fill.
    pending: BTreeMap<u64, (DataMsg<P>, SimTime)>,
    /// Last NACK time for the current gap.
    last_nack: Option<SimTime>,
}

impl<P> Default for SenderStream<P> {
    fn default() -> Self {
        SenderStream {
            delivered: 0,
            pending: BTreeMap::new(),
            last_nack: None,
        }
    }
}

/// The FIFO multicast endpoint for one group member.
#[derive(Debug)]
pub struct FbcastEndpoint<P> {
    me: usize,
    n: usize,
    cfg: GroupConfig,
    next_seq: u64,
    streams: Vec<SenderStream<P>>,
    /// Own sent messages retained for retransmission until acked by all.
    sent_buffer: BTreeMap<u64, DataMsg<P>>,
    /// Peers' ack state for our own messages.
    acked_by: Vec<u64>,
    /// Highest sequence known to exist from each sender (via gossip).
    known_max: Vec<u64>,
    /// What the ack in hand would raise in `known_max`, held back until
    /// the whole clock is believed. Kept between acks for its capacity:
    /// a member hears two acks a delivery in a busy group.
    news: Vec<(usize, u64)>,
    /// Observability sink (span + wait events). Disabled by default.
    probe: ProbeHandle,
    stats: EndpointStats,
}

impl<P: Clone> FbcastEndpoint<P> {
    /// Creates the endpoint for member `me` of a group of `n`.
    pub fn new(me: usize, n: usize, cfg: GroupConfig) -> Self {
        assert!(me < n, "member index out of range");
        FbcastEndpoint {
            me,
            n,
            cfg,
            next_seq: 0,
            streams: (0..n).map(|_| SenderStream::default()).collect(),
            sent_buffer: BTreeMap::new(),
            acked_by: vec![0; n],
            known_max: vec![0; n],
            news: Vec::new(),
            probe: ProbeHandle::none(),
            stats: EndpointStats::default(),
        }
    }

    /// Installs an observability probe; message lifecycle (send, wire
    /// arrival, delivery) and FIFO-gap waits are recorded through it.
    pub fn set_probe(&mut self, probe: ProbeHandle) {
        self.probe = probe;
    }

    /// This member's index.
    pub fn me(&self) -> usize {
        self.me
    }

    /// Endpoint statistics.
    pub fn stats(&self) -> &EndpointStats {
        &self.stats
    }

    /// Messages buffered for retransmission.
    pub fn buffered_len(&self) -> usize {
        self.sent_buffer.len()
    }

    /// Telemetry hook: instantaneous gauges for the time-series sampler.
    pub fn sample(&self, emit: &mut dyn FnMut(&str, f64)) {
        emit("fbcast.buffered", self.sent_buffer.len() as f64);
        emit(
            "fbcast.pending",
            self.streams.iter().map(|s| s.pending.len()).sum::<usize>() as f64,
        );
    }

    /// What every out-of-order arrival waits on (contract in
    /// [`crate::waitgraph`]): the sender's next undelivered sequence, an
    /// ARQ gap chased via NACK. FIFO has no cross-sender holdback, so
    /// these are the only waits it has.
    pub fn wait_records(&self, emit: &mut dyn FnMut(&WaitRecord)) {
        for (sender, s) in self.streams.iter().enumerate() {
            let seq = s.delivered + 1;
            let gap = WaitNode::Msg(MsgId { sender, seq });
            for (msg, arrived) in s.pending.range(seq + 1..).map(|(_, held)| held) {
                emit(&WaitRecord {
                    blocked: WaitNode::Msg(msg.id),
                    who: self.me,
                    since: *arrived,
                    slot: None,
                    waits: vec![(gap, WaitReason::FifoGap)],
                });
            }
        }
    }

    /// The per-sender delivered watermark, as a vector clock for
    /// compatibility with the stability machinery.
    pub fn delivered_clock(&self) -> VectorClock {
        VectorClock::from_entries(self.streams.iter().map(|s| s.delivered).collect())
    }

    /// Multicasts `payload`; returns the immediate self-delivery and the
    /// outbound data message.
    pub fn multicast(&mut self, now: SimTime, payload: P) -> (Delivery<P>, Vec<Out<P>>) {
        self.next_seq += 1;
        let id = MsgId {
            sender: self.me,
            seq: self.next_seq,
        };
        // fbcast carries only the sender's own counter; we reuse the
        // vector-clock slot for uniform wire format but zero the rest.
        let mut vt = VectorClock::new(self.n);
        vt.set(self.me, self.next_seq);
        let msg = DataMsg::new(id, vt, payload.clone());
        self.probe.emit(|| ObsEvent::Span {
            at: now,
            who: self.me,
            span: span_of(id),
            stage: Stage::Send,
            note: String::new(),
        });
        self.streams[self.me].delivered = self.next_seq;
        self.acked_by[self.me] = self.next_seq;
        self.sent_buffer.insert(self.next_seq, msg.clone());
        self.stats.sent += 1;
        self.stats.delivered += 1;
        let wire = Wire::Data(msg);
        self.stats.data_overhead_bytes += wire.overhead_bytes() as u64;
        self.note_buffer();
        (
            Delivery {
                id,
                payload,
                arrived_at: now,
                delivered_at: now,
                gseq: None,
                waited_for: Vec::new(),
            },
            vec![(Dest::All, wire)],
        )
    }

    /// Handles an incoming wire message.
    pub fn on_wire(&mut self, now: SimTime, wire: Wire<P>) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        let mut out = Vec::new();
        let mut delivered = Vec::new();
        match wire {
            // A member id off the wire indexes per-member state: one from
            // outside the group is refused here, counted, and nothing
            // else is touched.
            Wire::Data(DataMsg {
                id: MsgId { sender: who, .. },
                ..
            })
            | Wire::AckGossip { from: who, .. }
                if who >= self.n =>
            {
                self.stats.ts_decode_errors += 1;
            }
            // A sequence number implausibly far ahead would sit in
            // `pending` for the rest of the run: refused likewise.
            Wire::Data(DataMsg { id, .. }) if self.out_of_reach(id.sender, id.seq) => {
                self.stats.ts_decode_errors += 1;
            }
            Wire::Data(msg) => {
                self.stats.data_received += 1;
                self.on_data(now, msg, &mut out, &mut delivered);
            }
            Wire::AckGossip { from, delivered: d } => {
                if !self.news_in(&d) {
                    self.stats.ts_decode_errors += 1;
                    return (delivered, out);
                }
                for &(k, theirs) in &self.news {
                    self.known_max[k] = theirs;
                }
                // Peers report the highest seq they have from us. Only an
                // ack that raises one can move the minimum the buffer is
                // collected up to.
                if self.acked_by[from] < d.get(self.me) {
                    self.acked_by[from] = d.get(self.me);
                    self.gc_sent();
                }
            }
            Wire::Nack { from, want } => {
                for id in want {
                    if id.sender == self.me {
                        if let Some(m) = self.sent_buffer.get(&id.seq) {
                            let mut copy = m.clone();
                            copy.retransmit = true;
                            self.stats.retransmits_served += 1;
                            let w = Wire::Data(copy);
                            self.stats.control_bytes += w.overhead_bytes() as u64;
                            out.push((Dest::One(from), w));
                        }
                    }
                }
            }
            _ => {}
        }
        (delivered, out)
    }

    /// Whether message `seq` of `sender` is further past what was
    /// delivered here than any honest peer's can be (the causal
    /// disciplines' bound, and their reasoning).
    fn out_of_reach(&self, sender: usize, seq: u64) -> bool {
        seq.saturating_sub(self.streams[sender].delivered) > MAX_CHASE_AHEAD
    }

    /// Fills `news` with what a gossiped clock reveals of messages never
    /// seen here — the highest sequence of each sender it raises — in the
    /// one scan that judges it. False, and nothing is to be taken from
    /// the clock, when it claims what nobody can have: more of our
    /// messages than we sent, or a component so far ahead that `on_tick`
    /// would NACK for ids that will never exist, every `nack_timeout`,
    /// for the rest of the run.
    fn news_in(&mut self, d: &VectorClock) -> bool {
        self.news.clear();
        if d.get(self.me) > self.next_seq {
            return false;
        }
        for k in 0..self.n {
            let theirs = d.get(k);
            if self.known_max[k] < theirs {
                if self.out_of_reach(k, theirs) {
                    return false;
                }
                self.news.push((k, theirs));
            }
        }
        true
    }

    /// Periodic maintenance: ack gossip and gap re-NACKs.
    pub fn on_tick(&mut self, now: SimTime) -> Vec<Out<P>> {
        let mut out = Vec::new();
        let gossip = Wire::AckGossip {
            from: self.me,
            delivered: self.delivered_clock(),
        };
        self.stats.acks_sent += 1;
        self.stats.control_bytes += gossip.overhead_bytes() as u64;
        out.push((Dest::All, gossip));
        for k in 0..self.n {
            if k == self.me {
                continue;
            }
            let (gap_want, overdue) = {
                let s = &self.streams[k];
                // A gap exists if something is pending beyond it or gossip
                // says the sender has sent further than we have seen.
                let horizon = s
                    .pending
                    .keys()
                    .next()
                    .map(|&lowest| lowest - 1)
                    .unwrap_or(0)
                    .max(self.known_max[k]);
                if horizon <= s.delivered {
                    continue;
                }
                let overdue = match s.last_nack {
                    None => true,
                    Some(t) => now.saturating_since(t) >= self.cfg.nack_timeout,
                };
                let want: Vec<MsgId> = ((s.delivered + 1)..=horizon)
                    .filter(|seq| !s.pending.contains_key(seq))
                    .take(self.cfg.max_nack_batch)
                    .map(|seq| MsgId { sender: k, seq })
                    .collect();
                (want, overdue)
            };
            if overdue && !gap_want.is_empty() {
                self.streams[k].last_nack = Some(now);
                let w = Wire::Nack {
                    from: self.me,
                    want: gap_want,
                };
                self.stats.nacks_sent += 1;
                self.stats.control_bytes += w.overhead_bytes() as u64;
                out.push((Dest::One(k), w));
            }
        }
        out
    }

    fn on_data(
        &mut self,
        now: SimTime,
        msg: DataMsg<P>,
        out: &mut Vec<Out<P>>,
        delivered: &mut Vec<Delivery<P>>,
    ) {
        let k = msg.id.sender;
        let seq = msg.id.seq;
        let wire_id = msg.id;
        let retransmit = msg.retransmit;
        self.probe.emit(|| ObsEvent::Span {
            at: now,
            who: self.me,
            span: span_of(wire_id),
            stage: Stage::Wire,
            note: if retransmit {
                "retransmit".to_string()
            } else {
                String::new()
            },
        });
        let stream = &mut self.streams[k];
        if seq <= stream.delivered || stream.pending.contains_key(&seq) {
            self.stats.duplicates += 1;
            return;
        }
        if seq > stream.delivered + 1 {
            let gap = stream.delivered + 1;
            self.probe.emit(|| ObsEvent::Span {
                at: now,
                who: self.me,
                span: span_of(wire_id),
                stage: Stage::HoldbackEnter,
                note: format!("FIFO gap: awaiting m{k}.{gap}"),
            });
        }
        let stream = &mut self.streams[k];
        stream.pending.insert(seq, (msg, now));
        // Immediate NACK for a fresh gap.
        if seq > stream.delivered + 1 && stream.last_nack.is_none() {
            stream.last_nack = Some(now);
            let want: Vec<MsgId> = ((stream.delivered + 1)..seq)
                .take(self.cfg.max_nack_batch)
                .map(|s| MsgId { sender: k, seq: s })
                .collect();
            let w = Wire::Nack {
                from: self.me,
                want,
            };
            self.stats.nacks_sent += 1;
            self.stats.control_bytes += w.overhead_bytes() as u64;
            out.push((Dest::One(k), w));
        }
        // Deliver the contiguous prefix.
        let stream = &mut self.streams[k];
        while let Some((m, arrived)) = stream.pending.remove(&(stream.delivered + 1)) {
            stream.delivered += 1;
            stream.last_nack = None;
            let was_held = arrived < now;
            self.stats.delivered += 1;
            if was_held {
                self.stats.delivered_after_hold += 1;
                self.stats.hold_time_total += now.saturating_since(arrived);
            }
            let span = span_of(m.id);
            self.probe.emit(|| ObsEvent::Span {
                at: now,
                who: self.me,
                span,
                stage: Stage::Delivered,
                note: String::new(),
            });
            if was_held {
                let prev = MsgId {
                    sender: k,
                    seq: m.id.seq - 1,
                };
                self.probe.emit(|| ObsEvent::Wait {
                    at: now,
                    who: self.me,
                    span,
                    kind: WaitKind::FifoGap,
                    since: arrived,
                    blocker: Some(span_of(prev)),
                    note: String::new(),
                });
            }
            delivered.push(Delivery {
                id: m.id,
                payload: m.payload,
                arrived_at: arrived,
                delivered_at: now,
                gseq: None,
                waited_for: if was_held {
                    vec![MsgId {
                        sender: k,
                        seq: m.id.seq - 1,
                    }]
                } else {
                    Vec::new()
                },
            });
        }
        let pending_total: usize = self.streams.iter().map(|s| s.pending.len()).sum();
        self.stats.note_holdback(pending_total as u64);
    }

    fn gc_sent(&mut self) {
        let min_acked = self.acked_by.iter().copied().min().unwrap_or(0);
        let before = self.sent_buffer.len();
        self.sent_buffer.retain(|&seq, _| seq > min_acked);
        self.stats.stabilized += (before - self.sent_buffer.len()) as u64;
        self.note_buffer();
    }

    fn note_buffer(&mut self) {
        let msgs = self.sent_buffer.len() as u64;
        let per_msg = (self.cfg.payload_bytes + 12 + 8) as u64;
        self.stats.note_buffer(msgs, msgs * per_msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn data_of(out: &[Out<&'static str>]) -> Wire<&'static str> {
        out.iter()
            .find_map(|(d, w)| match (d, w) {
                (Dest::All, Wire::Data(_)) => Some(w.clone()),
                _ => None,
            })
            .expect("broadcast data")
    }

    #[test]
    fn wait_records_name_the_fifo_gap() {
        let cfg = GroupConfig::default();
        let mut a = FbcastEndpoint::new(0, 2, cfg.clone());
        let mut b = FbcastEndpoint::new(1, 2, cfg);
        let outs: Vec<_> = (0..3).map(|i| a.multicast(t(i), "m").1).collect();
        b.on_wire(t(3), data_of(&outs[0]));
        b.on_wire(t(4), data_of(&outs[2]));
        let mut records = Vec::new();
        b.wait_records(&mut |r| records.push(r.clone()));
        let msg = |seq| WaitNode::Msg(MsgId { sender: 0, seq });
        let want = WaitRecord {
            blocked: msg(3),
            who: 1,
            since: t(4),
            slot: None,
            waits: vec![(msg(2), WaitReason::FifoGap)],
        };
        assert_eq!(records, [want]);
        b.on_wire(t(5), data_of(&outs[1]));
        b.wait_records(&mut |r| panic!("nothing waits now: {r:?}"));
    }

    /// The last member of ROADMAP 1(e): before the bound, the gossiped
    /// clocks below entered `known_max`/`acked_by` whole and `on_tick`
    /// NACKed ids that will never exist every `nack_timeout` for the rest
    /// of the run, and the data message sat in `pending` for as long.
    /// Each must be refused whole — its honest components too — and
    /// counted; the endpoint then serves a legitimate sender.
    #[test]
    fn hostile_clocks_and_sequence_numbers_are_refused_whole() {
        use crate::endpoint::{Discipline, Endpoint};
        const FAR: u64 = MAX_CHASE_AHEAD + 1;
        let clock = |e: [u64; 3]| VectorClock::from_entries(e.to_vec());
        let mut a: Endpoint<u32> = Endpoint::new(Discipline::Fifo, 0, 3, GroupConfig::default());
        let mut b: Endpoint<u32> = Endpoint::new(Discipline::Fifo, 1, 3, GroupConfig::default());
        let (_, first) = a.multicast(t(0), 7);
        // b has sent one message, so a peer may ack one and no more.
        b.multicast(t(0), 0);
        let far_ahead = MsgId {
            sender: 2,
            seq: FAR,
        };
        let hostile = [
            // A component nobody can have reached, beside an honest one.
            Wire::AckGossip {
                from: 2,
                delivered: clock([1, 1, FAR]),
            },
            // More of b's messages than b has sent.
            Wire::AckGossip {
                from: 2,
                delivered: clock([1, 2, 0]),
            },
            Wire::Data(DataMsg::new(far_ahead, clock([0, 0, FAR]), 9)),
        ];
        let state = |b: &Endpoint<u32>| {
            let Endpoint::Fifo(b) = b else {
                unreachable!("built as fifo")
            };
            let pending: usize = b.streams.iter().map(|s| s.pending.len()).sum();
            (b.known_max.clone(), b.acked_by.clone(), pending)
        };
        let before = state(&b);
        for (i, wire) in hostile.into_iter().enumerate() {
            let (dels, outs) = b.on_wire(t(1), wire);
            assert!(dels.is_empty() && outs.is_empty(), "wire {i}");
            // A NACK timeout (20 ms) on from the last tick, every time.
            let nacks = b.on_tick(t(30 * (i as u64 + 1)));
            let nack = nacks.iter().find(|(_, w)| matches!(w, Wire::Nack { .. }));
            assert!(nack.is_none(), "wire {i}: {nack:?}");
            assert_eq!(state(&b), before, "wire {i}");
            assert_eq!(b.transport_stats().ts_decode_errors, i as u64 + 1);
        }
        // The bound is inclusive, and honest news still lands.
        let near = clock([1, 1, MAX_CHASE_AHEAD]);
        b.on_wire(
            t(90),
            Wire::AckGossip {
                from: 2,
                delivered: near,
            },
        );
        assert_eq!(state(&b), (vec![1, 1, MAX_CHASE_AHEAD], vec![0, 1, 1], 0));
        assert_eq!(b.transport_stats().ts_decode_errors, 3);
        let dels: Vec<_> = first
            .into_iter()
            .flat_map(|(_, w)| b.on_wire(t(91), w).0)
            .collect();
        assert_eq!(dels.len(), 1);
        assert_eq!((dels[0].id.sender, dels[0].payload), (0, 7));
    }

    #[test]
    fn per_sender_fifo_restored() {
        let cfg = GroupConfig::default();
        let mut a = FbcastEndpoint::new(0, 2, cfg.clone());
        let mut b = FbcastEndpoint::new(1, 2, cfg);
        let (_, o1) = a.multicast(t(0), "m1");
        let (_, o2) = a.multicast(t(1), "m2");
        let (d, nacks) = b.on_wire(t(2), data_of(&o2));
        assert!(d.is_empty());
        assert!(nacks.iter().any(|(_, w)| matches!(w, Wire::Nack { .. })));
        let (d, _) = b.on_wire(t(3), data_of(&o1));
        assert_eq!(
            d.iter().map(|x| x.payload).collect::<Vec<_>>(),
            vec!["m1", "m2"]
        );
        assert!(d[1].was_held());
    }

    #[test]
    fn no_cross_sender_holdback() {
        // The key contrast with cbcast: even if b's message was "caused"
        // by a's, fbcast delivers them in arrival order.
        let cfg = GroupConfig::default();
        let mut a = FbcastEndpoint::new(0, 3, cfg.clone());
        let mut b = FbcastEndpoint::new(1, 3, cfg.clone());
        let mut c = FbcastEndpoint::new(2, 3, cfg);
        let (_, oa) = a.multicast(t(0), "cause");
        b.on_wire(t(1), data_of(&oa));
        let (_, ob) = b.multicast(t(2), "effect");
        // Effect arrives first at c — delivered immediately (the anomaly
        // CATOCS exists to prevent).
        let (d, _) = c.on_wire(t(3), data_of(&ob));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].payload, "effect");
        let (d, _) = c.on_wire(t(4), data_of(&oa));
        assert_eq!(d[0].payload, "cause");
    }

    #[test]
    fn duplicate_discarded() {
        let cfg = GroupConfig::default();
        let mut a = FbcastEndpoint::new(0, 2, cfg.clone());
        let mut b = FbcastEndpoint::new(1, 2, cfg);
        let (_, o) = a.multicast(t(0), "m");
        let m = data_of(&o);
        b.on_wire(t(1), m.clone());
        let (d, _) = b.on_wire(t(2), m);
        assert!(d.is_empty());
        assert_eq!(b.stats().duplicates, 1);
    }

    #[test]
    fn nack_recovery() {
        let cfg = GroupConfig::default();
        let mut a = FbcastEndpoint::new(0, 2, cfg.clone());
        let mut b = FbcastEndpoint::new(1, 2, cfg);
        let (_, o1) = a.multicast(t(0), "m1");
        let (_, o2) = a.multicast(t(1), "m2");
        let (_, nacks) = b.on_wire(t(2), data_of(&o2));
        let nack = nacks
            .into_iter()
            .find(|(_, w)| matches!(w, Wire::Nack { .. }))
            .unwrap();
        let (_, served) = a.on_wire(t(3), nack.1);
        let retrans = served
            .into_iter()
            .find(|(_, w)| matches!(w, Wire::Data(d) if d.retransmit))
            .unwrap();
        let (d, _) = b.on_wire(t(4), retrans.1);
        assert_eq!(
            d.iter().map(|x| x.payload).collect::<Vec<_>>(),
            vec!["m1", "m2"]
        );
        let _ = o1;
    }

    #[test]
    fn ack_gossip_gcs_sent_buffer() {
        let cfg = GroupConfig::default();
        let mut a = FbcastEndpoint::new(0, 2, cfg.clone());
        let mut b = FbcastEndpoint::new(1, 2, cfg);
        let (_, o) = a.multicast(t(0), "m");
        b.on_wire(t(1), data_of(&o));
        assert_eq!(a.buffered_len(), 1);
        let gossip = Wire::AckGossip {
            from: 1,
            delivered: b.delivered_clock(),
        };
        a.on_wire(t(2), gossip);
        assert_eq!(a.buffered_len(), 0);
    }

    #[test]
    fn tick_renacks_gap() {
        let cfg = GroupConfig::default();
        let mut a = FbcastEndpoint::new(0, 2, cfg.clone());
        let mut b = FbcastEndpoint::new(1, 2, cfg.clone());
        let (_, _o1) = a.multicast(t(0), "m1");
        let (_, o2) = a.multicast(t(1), "m2");
        b.on_wire(t(2), data_of(&o2));
        let out = b.on_tick(t(2) + cfg.nack_timeout);
        assert!(out
            .iter()
            .any(|(d, w)| matches!(w, Wire::Nack { .. }) && *d == Dest::One(0)));
    }
}
