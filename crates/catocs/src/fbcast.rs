//! FIFO multicast (`fbcast`): per-sender ordering only.
//!
//! This is the "conventional transport" baseline the paper repeatedly
//! appeals to (§4.3: "the delivery of commit phase messages is easily
//! ordered by conventional transport mechanisms without CATOCS"). Each
//! sender's messages are delivered in the order sent; messages from
//! different senders are delivered in arrival order with *no* holdback —
//! so there is no false-causality delay and the only per-message overhead
//! is a sequence number.
//!
//! An arrival pays only for being out of order. The next message of its
//! sender (99.9 % of arrivals in a dense group at 2 % loss) is delivered
//! from the wire value and never enters that sender's `pending` map.
//! Put in and taken out again, its 112 bytes would pass through the
//! stream's 1.3 KB map leaf — 63 leaves a member, 64 members, 5.4 MB
//! cycled through once per round of multicasts — and every data message
//! would cost cache misses, not tree work. The map serves the arrivals
//! behind a gap. It is not a window indexed by `seq - delivered`: one
//! hostile `seq` inside `MAX_CHASE_AHEAD` would size it. What every
//! arrival or ack would otherwise recompute over all N members — the
//! number held, the slowest peer's ack — is kept (`pending_total`,
//! `min_acked`).

use crate::causal_core::{arrival, span_of, Gossip, MAX_CHASE_AHEAD, PAYLOAD_BYTES};
use crate::endpoint::Protocol;
use crate::group::{GroupConfig, MsgId, NACK_TIMEOUT};
use crate::waitgraph::{WaitNode, WaitReason, WaitRecord};
use crate::wire::{DataMsg, Delivery, Dest, EndpointStats, Out, Refusal, VtWire, Wire};
use clocks::vector::VectorClock;
use simnet::obs::{LatencyPhase, ObsEvent, ProbeHandle, Stage};
use simnet::time::SimTime;
use std::collections::BTreeMap;

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
    /// `min(acked_by)` as of the last ack that raised it: what
    /// `sent_buffer` has been collected up to. Only an ack from a member
    /// that stood at the minimum can move it (our own entry, which
    /// `multicast` raises, is never below a peer's).
    min_acked: u64,
    /// Messages held over all streams, `Σ pending.len()`.
    pending_total: usize,
    /// Highest sequence known to exist from each sender (via gossip).
    known_max: Vec<u64>,
    /// What the ack in hand would raise in `known_max`, held back until
    /// the whole clock is believed. Kept between acks for its capacity:
    /// a member hears two acks a delivery in a busy group.
    news: Vec<(usize, u64)>,
    /// When the tick gossips the delivered clock.
    gossip: Gossip,
    /// Observability sink (span + wait events). Disabled by default.
    probe: ProbeHandle,
    stats: EndpointStats,
}

impl<P: Clone> FbcastEndpoint<P> {
    /// Creates the endpoint for member `me` of a group of `n`.
    pub(crate) fn new(me: usize, n: usize, cfg: GroupConfig) -> Self {
        assert!(me < n, "member index out of range");
        FbcastEndpoint {
            me,
            n,
            cfg,
            next_seq: 0,
            streams: (0..n).map(|_| SenderStream::default()).collect(),
            sent_buffer: BTreeMap::new(),
            acked_by: vec![0; n],
            min_acked: 0,
            pending_total: 0,
            known_max: vec![0; n],
            news: Vec::new(),
            gossip: Gossip::default(),
            probe: ProbeHandle::none(),
            stats: EndpointStats::default(),
        }
    }

    /// The per-sender delivered watermark, as a vector clock for
    /// compatibility with the stability machinery.
    pub(crate) fn delivered_clock(&self) -> VectorClock {
        VectorClock::from_entries(self.streams.iter().map(|s| s.delivered).collect())
    }

    /// Whether message `seq` of `sender` is further past what was
    /// delivered here than any honest peer's can be (the causal
    /// disciplines' bound, and their reasoning).
    fn too_far(&self, sender: usize, seq: u64) -> bool {
        seq.saturating_sub(self.streams[sender].delivered) > MAX_CHASE_AHEAD
    }

    /// Fills `news` with what a gossiped clock reveals of messages never
    /// seen here — the highest sequence of each sender it raises — in the
    /// one scan that judges it. False, and nothing is to be taken from
    /// the clock, when it claims what nobody can have: more of our
    /// messages than we sent, or a component so far ahead that `on_tick`
    /// would NACK for ids that will never exist, every `NACK_TIMEOUT`,
    /// for the rest of the run.
    ///
    /// A plain zipped scan, on purpose: about half the components rise
    /// in every ack of a busy group, so `known_max.lagging(d)` and a
    /// `merge` — the chunked kernel that skips equal runs — find no run
    /// to skip and measured slower (`dense_fifo` 1.54× fell to 1.35×).
    /// Zipped a block of the clock at a time: two slices zip into an
    /// indexed loop, where a component-at-a-time walk across the blocks
    /// measured three times slower.
    fn news_in(&mut self, d: &VectorClock) -> bool {
        self.news.clear();
        if d.get(self.me) > self.next_seq {
            return false;
        }
        let mut base = 0;
        for block in d.blocks() {
            let known_max = &self.known_max[base..];
            for (i, (&theirs, &known)) in block.iter().zip(known_max).enumerate() {
                if known < theirs {
                    if self.too_far(base + i, theirs) {
                        return false;
                    }
                    self.news.push((base + i, theirs));
                }
            }
            base += block.len();
        }
        true
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
        self.probe.emit(|| arrival(now, self.me, &msg));
        let stream = &mut self.streams[k];
        if seq <= stream.delivered || stream.pending.contains_key(&seq) {
            self.stats.duplicates += 1;
            return;
        }
        let gap = stream.delivered + 1;
        // The sender's next message is delivered as it came; one behind a
        // gap waits in `pending`.
        let mut next = if seq == gap {
            Some((msg, now))
        } else {
            self.probe.emit(|| ObsEvent::Span {
                at: now,
                who: self.me,
                span: span_of(wire_id),
                stage: Stage::HoldbackEnter,
                note: format!("FIFO gap: awaiting m{k}.{gap}"),
            });
            stream.pending.insert(seq, (msg, now));
            self.pending_total += 1;
            // Immediate NACK for a fresh gap.
            if stream.last_nack.is_none() {
                stream.last_nack = Some(now);
                let want: Vec<MsgId> = (gap..seq)
                    .take(self.cfg.max_nack_batch)
                    .map(|s| MsgId { sender: k, seq: s })
                    .collect();
                let w = Wire::Nack {
                    from: self.me,
                    want,
                };
                self.stats.nacks_sent += 1;
                out.push((Dest::One(k), w));
            }
            None
        };
        // Deliver the contiguous prefix: the arrival itself, if it was
        // next, then whatever it released.
        while let Some((m, arrived)) = next {
            stream.delivered += 1;
            stream.last_nack = None;
            let was_held = self.stats.note_delivery(arrived, now);
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
                    phase: LatencyPhase::Fifo,
                    pre_send: false,
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
            next = stream.pending.remove(&(stream.delivered + 1));
            self.pending_total -= usize::from(next.is_some());
        }
        debug_assert_eq!(
            self.pending_total,
            self.streams.iter().map(|s| s.pending.len()).sum::<usize>()
        );
        self.stats.note_holdback(self.pending_total as u64);
    }

    /// Frees what every member has now acked. Called when the member
    /// whose ack stood at the minimum has acked further; the minimum
    /// stays where it was if another member stands there too.
    fn gc_sent(&mut self) {
        let min_acked = self.acked_by.iter().copied().min().unwrap_or(0);
        if min_acked == self.min_acked {
            return;
        }
        self.min_acked = min_acked;
        let before = self.sent_buffer.len();
        self.sent_buffer.retain(|&seq, _| seq > min_acked);
        self.stats.stabilized += (before - self.sent_buffer.len()) as u64;
        self.note_buffer();
    }

    fn note_buffer(&mut self) {
        let msgs = self.sent_buffer.len() as u64;
        let per_msg = (PAYLOAD_BYTES + 12 + 8) as u64;
        self.stats.note_buffer(msgs, msgs * per_msg);
    }
}

impl<P: Clone> Protocol<P> for FbcastEndpoint<P> {
    /// Installs an observability probe; message lifecycle (send, wire
    /// arrival, delivery) and FIFO-gap waits are recorded through it.
    fn set_probe(&mut self, probe: ProbeHandle) {
        self.probe = probe;
    }

    /// Multicasts `payload`; returns the immediate self-delivery and the
    /// outbound data message.
    fn multicast(&mut self, now: SimTime, payload: P) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        self.next_seq += 1;
        let id = MsgId {
            sender: self.me,
            seq: self.next_seq,
        };
        // FIFO orders by the id's own sequence number: no stamp beyond it.
        let msg = DataMsg::counted(id, VtWire::Id, payload.clone());
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
        self.note_buffer();
        let out = vec![(Dest::All, Wire::Data(msg))];
        self.stats.book(self.me, &out);
        let own = Delivery {
            id,
            payload,
            arrived_at: now,
            delivered_at: now,
            gseq: None,
            waited_for: Vec::new(),
        };
        (vec![own], out)
    }

    fn n(&self) -> usize {
        self.n
    }

    /// A sequence number far ahead: it would sit in `pending` for good.
    fn out_of_reach(&self, wire: &Wire<P>) -> bool {
        matches!(wire, Wire::Data(msg) if self.too_far(msg.id.sender, msg.id.seq))
    }

    fn receive(&mut self, now: SimTime, wire: Wire<P>) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        let mut out = Vec::new();
        let mut delivered = Vec::new();
        match wire {
            Wire::Data(msg) => {
                self.stats.data_received += 1;
                self.on_data(now, msg, &mut out, &mut delivered);
            }
            Wire::AckGossip { from, delivered: d } => {
                if !self.news_in(&d) {
                    self.stats.refuse(Refusal::OutOfReach);
                    return (delivered, out);
                }
                for &(k, theirs) in &self.news {
                    self.known_max[k] = theirs;
                }
                // Peers report the highest seq they have from us. Only an
                // ack that raises the lowest can move the minimum the
                // buffer is collected up to.
                let acked = d.get(self.me);
                if self.acked_by[from] < acked {
                    let was_lowest = self.acked_by[from] == self.min_acked;
                    self.acked_by[from] = acked;
                    if was_lowest {
                        self.gc_sent();
                    }
                }
            }
            Wire::Nack { from, want } => {
                for id in want {
                    if id.sender == self.me {
                        if let Some(m) = self.sent_buffer.get_mut(&id.seq) {
                            self.stats.retransmits_served += 1;
                            out.push((Dest::One(from), Wire::Data(m.repair_copy())));
                        }
                    }
                }
            }
            _ => {}
        }
        self.stats.book(self.me, &out);
        (delivered, out)
    }

    /// Periodic maintenance: ack gossip ([`Gossip`]) and gap re-NACKs.
    fn on_tick(&mut self, now: SimTime) -> Vec<Out<P>> {
        let mut out = Vec::new();
        let vt = self.delivered_clock();
        self.gossip
            .tick(now, self.me, vt, &mut self.stats, &mut out);
        for k in 0..self.n {
            if k == self.me {
                continue;
            }
            let s = &mut self.streams[k];
            // A gap exists if something is pending beyond it or gossip
            // says the sender has sent further than we have seen.
            let horizon = s
                .pending
                .keys()
                .next()
                .map(|&lowest| lowest - 1)
                .unwrap_or(0)
                .max(self.known_max[k]);
            let overdue = match s.last_nack {
                None => true,
                Some(t) => now.saturating_since(t) >= NACK_TIMEOUT,
            };
            if horizon <= s.delivered || !overdue {
                continue;
            }
            let want: Vec<MsgId> = ((s.delivered + 1)..=horizon)
                .filter(|seq| !s.pending.contains_key(seq))
                .take(self.cfg.max_nack_batch)
                .map(|seq| MsgId { sender: k, seq })
                .collect();
            if !want.is_empty() {
                s.last_nack = Some(now);
                let w = Wire::Nack {
                    from: self.me,
                    want,
                };
                self.stats.nacks_sent += 1;
                out.push((Dest::One(k), w));
            }
        }
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
        emit("fbcast.buffered", self.sent_buffer.len() as f64);
        emit("fbcast.pending", self.pending_total as f64);
    }

    /// What every out-of-order arrival waits on (contract in
    /// [`crate::waitgraph`]): the sender's next undelivered sequence, an
    /// ARQ gap chased via NACK. FIFO has no cross-sender holdback, so
    /// these are the only waits it has.
    fn wait_records(&self, _every_gap: bool, emit: &mut dyn FnMut(&WaitRecord)) {
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

    fn buffered_len(&self) -> usize {
        self.sent_buffer.len()
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
        b.wait_records(false, &mut |r| records.push(r.clone()));
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
        b.wait_records(false, &mut |r| panic!("nothing waits now: {r:?}"));
    }

    /// A FIFO multicast books its id and nothing that grows with the
    /// group: 13 bytes at every width, and as much again for a copy
    /// served from the retransmission buffer. Its stamp needs no decode
    /// context, so `make_full` leaves it alone.
    #[test]
    fn a_multicast_books_its_id_alone_at_every_width() {
        for n in [4, 64, 1024] {
            let mut a = FbcastEndpoint::new(0, n, GroupConfig::default());
            let (_, out) = a.multicast(t(0), "m");
            let [(Dest::All, Wire::Data(sent))] = &out[..] else {
                panic!("one data wire to the group, not {out:?}");
            };
            let mut full = sent.clone();
            full.make_full();
            assert!(matches!(full.vt_wire, VtWire::Id), "n = {n}");
            assert_eq!(a.stats().data_overhead_bytes, 13, "n = {n}");
            let want = vec![MsgId { sender: 0, seq: 1 }];
            let (_, served) = a.on_wire(t(1), Wire::Nack { from: 1, want });
            assert_eq!(served.len(), 1, "n = {n}");
            assert_eq!(a.stats().control_bytes, 13, "n = {n}");
        }
    }

    /// The last member of ROADMAP 1(e): before the bound, the gossiped
    /// clocks below entered `known_max`/`acked_by` whole and `on_tick`
    /// NACKed ids that will never exist every `NACK_TIMEOUT` for the rest
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
        let out = b.on_tick(t(2) + NACK_TIMEOUT);
        assert!(out
            .iter()
            .any(|(d, w)| matches!(w, Wire::Nack { .. }) && *d == Dest::One(0)));
    }

    /// What an arrival that was next in its stream gets on the in-order
    /// path, its twin that waited behind a gap gets out of `pending`:
    /// the same `Delivery`, but for when it arrived and what it waited on.
    #[test]
    fn both_paths_hand_over_the_same_delivery() {
        let cfg = GroupConfig::default();
        let mut a = FbcastEndpoint::new(0, 2, cfg.clone());
        let (_, o1) = a.multicast(t(0), "m1");
        let (_, o2) = a.multicast(t(1), "m2");
        let mut in_order = FbcastEndpoint::new(1, 2, cfg.clone());
        in_order.on_wire(t(2), data_of(&o1));
        let (direct, _) = in_order.on_wire(t(5), data_of(&o2));
        let mut reordered = FbcastEndpoint::new(1, 2, cfg);
        reordered.on_wire(t(2), data_of(&o2));
        let (held, _) = reordered.on_wire(t(5), data_of(&o1));
        let (direct, held) = (&direct[0], &held[1]);
        assert_eq!(
            (direct.id, direct.payload, direct.delivered_at, direct.gseq),
            (held.id, held.payload, held.delivered_at, held.gseq)
        );
        assert_eq!((direct.arrived_at, &direct.waited_for), (t(5), &vec![]));
        let m1 = MsgId { sender: 0, seq: 1 };
        assert_eq!((held.arrived_at, &held.waited_for), (t(2), &vec![m1]));
        let totals = |e: &FbcastEndpoint<&str>| (e.stats().delivered, e.stats().holdback_now);
        assert_eq!(totals(&in_order), totals(&reordered));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;
        use simnet::time::SimDuration;
        use std::collections::BTreeSet;

        /// Messages each peer has multicast before the history starts.
        const K: u64 = 6;

        /// The receiver written straight-line: every arrival goes into
        /// its stream's map and comes out again, and every step recomputes
        /// `min(acked_by)` and `Σ pending.len()` from scratch.
        struct Model {
            me: usize,
            cfg: GroupConfig,
            next_seq: u64,
            delivered: Vec<u64>,
            pending: Vec<BTreeMap<u64, SimTime>>,
            last_nack: Vec<Option<SimTime>>,
            acked_by: Vec<u64>,
            known_max: Vec<u64>,
            sent_buffer: BTreeSet<u64>,
            stats: EndpointStats,
        }

        impl Model {
            fn new(me: usize, n: usize, cfg: GroupConfig) -> Self {
                Model {
                    me,
                    cfg,
                    next_seq: 0,
                    delivered: vec![0; n],
                    pending: vec![BTreeMap::new(); n],
                    last_nack: vec![None; n],
                    acked_by: vec![0; n],
                    known_max: vec![0; n],
                    sent_buffer: BTreeSet::new(),
                    stats: EndpointStats::default(),
                }
            }

            fn multicast(&mut self) {
                self.next_seq += 1;
                self.delivered[self.me] = self.next_seq;
                self.acked_by[self.me] = self.next_seq;
                self.sent_buffer.insert(self.next_seq);
            }

            /// The deliveries: `(seq, arrived_at)` of sender `k`.
            fn on_data(&mut self, now: SimTime, k: usize, seq: u64) -> Vec<(u64, SimTime)> {
                if seq <= self.delivered[k] || self.pending[k].contains_key(&seq) {
                    self.stats.duplicates += 1;
                    return Vec::new();
                }
                self.pending[k].insert(seq, now);
                if seq > self.delivered[k] + 1 && self.last_nack[k].is_none() {
                    self.last_nack[k] = Some(now);
                    self.stats.nacks_sent += 1;
                }
                let mut out = Vec::new();
                while let Some(arrived) = self.pending[k].remove(&(self.delivered[k] + 1)) {
                    self.delivered[k] += 1;
                    self.last_nack[k] = None;
                    if arrived < now {
                        self.stats.delivered_after_hold += 1;
                        self.stats.hold_time_total += now.saturating_since(arrived);
                    }
                    out.push((self.delivered[k], arrived));
                }
                let held: usize = self.pending.iter().map(BTreeMap::len).sum();
                self.stats.holdback_peak = self.stats.holdback_peak.max(held as u64);
                out
            }

            fn on_ack(&mut self, from: usize, d: &[u64]) {
                if d[self.me] > self.next_seq {
                    self.stats.ts_decode_errors += 1;
                    return;
                }
                for (known, &theirs) in self.known_max.iter_mut().zip(d) {
                    *known = theirs.max(*known);
                }
                if self.acked_by[from] < d[self.me] {
                    self.acked_by[from] = d[self.me];
                    let min_acked = self.acked_by.iter().copied().min().unwrap_or(0);
                    let before = self.sent_buffer.len();
                    self.sent_buffer.retain(|&seq| seq > min_acked);
                    self.stats.stabilized += (before - self.sent_buffer.len()) as u64;
                }
            }

            fn on_tick(&mut self, now: SimTime) {
                for k in (0..self.delivered.len()).filter(|&k| k != self.me) {
                    let first_held = self.pending[k].keys().next();
                    let horizon = first_held.map_or(0, |&s| s - 1).max(self.known_max[k]);
                    let want = (self.delivered[k] + 1..=horizon)
                        .filter(|seq| !self.pending[k].contains_key(seq))
                        .take(self.cfg.max_nack_batch)
                        .count();
                    let overdue =
                        self.last_nack[k].is_none_or(|t| now.saturating_since(t) >= NACK_TIMEOUT);
                    if overdue && want > 0 {
                        self.last_nack[k] = Some(now);
                        self.stats.nacks_sent += 1;
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// What the receiver keeps instead of recomputing (`min_acked`,
            /// `pending_total`) and what it skips (the map, for an arrival
            /// that is next) against [`Model`], over the peers' streams
            /// reordered, duplicated, dropped and retransmitted, acks in
            /// any order and from itself, its own multicasts and ticks in
            /// between — in a group of four and in a group of one.
            #[test]
            fn incremental_state_matches_the_from_scratch_answer(
                alone in bool::ANY,
                steps in collection::vec(
                    (0u8..10, 0usize..4, 1u64..=K, 0u64..30, collection::vec(0u64..=K + 1, 4)),
                    0..80,
                ),
            ) {
                let n = if alone { 1 } else { 4 };
                let me = n - 1;
                let cfg = GroupConfig::default();
                // Every peer's whole stream, as its own endpoint stamps it.
                let streams: Vec<Vec<DataMsg<u64>>> = (0..me)
                    .map(|k| {
                        let mut peer = FbcastEndpoint::new(k, n, cfg.clone());
                        (1..=K)
                            .map(|seq| match peer.multicast(t(0), 100 * k as u64 + seq).1.pop() {
                                Some((Dest::All, Wire::Data(m))) => m,
                                other => panic!("a multicast sends its data: {other:?}"),
                            })
                            .collect()
                    })
                    .collect();
                let mut real = FbcastEndpoint::new(me, n, cfg.clone());
                let mut model = Model::new(me, n, cfg);
                let mut log: Vec<Vec<u64>> = vec![Vec::new(); me];
                let mut now = t(1);
                // The history, then every message once more, in order and
                // marked as the retransmission it is.
                let repair =
                    (0..me).flat_map(|k| (1..=K).map(move |seq| (0, k, seq, 25, Vec::new())));
                let history = steps.into_iter().chain(repair);
                for (i, (kind, who, seq, dt, clock)) in history.enumerate() {
                    now += SimDuration::from_millis(dt);
                    match kind {
                        0..=4 if who < me => {
                            let mut msg = streams[who][seq as usize - 1].clone();
                            msg.retransmit = clock.is_empty();
                            let (got, _) = real.on_wire(now, Wire::Data(msg));
                            let want = model.on_data(now, who, seq);
                            prop_assert_eq!(got.len(), want.len(), "step {}", i);
                            for (d, (seq, arrived)) in got.iter().zip(want) {
                                let id = MsgId { sender: who, seq };
                                let prev = MsgId { sender: who, seq: seq - 1 };
                                let waited_for = if arrived < now { vec![prev] } else { vec![] };
                                prop_assert_eq!(
                                    (d.id, d.payload, d.arrived_at, d.delivered_at, d.gseq),
                                    (id, 100 * who as u64 + seq, arrived, now, None),
                                    "step {}", i
                                );
                                prop_assert_eq!(&d.waited_for, &waited_for, "step {}", i);
                                log[who].push(seq);
                            }
                        }
                        // An ack from a peer or, when `who` names no
                        // peer, from the receiver itself; one that claims
                        // more of our messages than we sent is refused.
                        5 | 6 if !clock.is_empty() => {
                            let from = who.min(me);
                            let mut d = clock[..n].to_vec();
                            d[me] = d[me].min(model.next_seq + 1);
                            model.on_ack(from, &d);
                            let delivered = VectorClock::from_entries(d);
                            real.on_wire(now, Wire::AckGossip { from, delivered });
                        }
                        7 => {
                            model.multicast();
                            real.multicast(now, 0);
                        }
                        8 => {
                            model.on_tick(now);
                            real.on_tick(now);
                        }
                        _ => {}
                    }
                    let (r, m) = (real.stats(), &model.stats);
                    prop_assert_eq!(
                        (r.duplicates, r.delivered_after_hold, r.hold_time_total, r.holdback_peak),
                        (m.duplicates, m.delivered_after_hold, m.hold_time_total, m.holdback_peak),
                        "step {}", i
                    );
                    prop_assert_eq!(
                        (r.nacks_sent, r.stabilized, r.ts_decode_errors, real.buffered_len()),
                        (m.nacks_sent, m.stabilized, m.ts_decode_errors, model.sent_buffer.len()),
                        "step {}", i
                    );
                }
                for delivered in log {
                    prop_assert_eq!(delivered, (1..=K).collect::<Vec<_>>());
                }
            }
        }
    }
}
