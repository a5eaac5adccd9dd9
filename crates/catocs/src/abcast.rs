//! Totally ordered multicast (`abcast`) via a fixed sequencer.
//!
//! Built on top of [`CbcastEndpoint`]: data disseminates causally (so the
//! total order extends causal order, the assumption the paper makes in
//! §2), and one member — the *sequencer* — assigns a global sequence
//! number to each message as it is causally delivered there. All members
//! release messages to the application strictly in global-sequence order.
//!
//! Consequences the paper highlights, reproduced faithfully:
//!
//! - even the *sender* of a message cannot deliver it before the
//!   sequencer's order assignment arrives (unless it is the sequencer) —
//!   total order costs an extra network hop over causal;
//! - concurrent messages are ordered identically everywhere, but the
//!   order is *incidental* (sequencer arrival), not semantic — Figure 4's
//!   false crossing survives abcast, which experiment F4 demonstrates.

use crate::causal_core::{span_of, MAX_CHASE_AHEAD};
use crate::cbcast::CbcastEndpoint;
use crate::endpoint::Protocol;
use crate::group::{GroupConfig, MsgId, NACK_TIMEOUT};
use crate::waitgraph::{WaitNode, WaitReason, WaitRecord};
use crate::wire::{Delivery, Dest, EndpointStats, Out, Wire};
use simnet::obs::{LatencyPhase, ObsEvent, PhaseEdge, PhaseKind, ProbeHandle, Stage};
use simnet::time::SimTime;
use std::collections::{BTreeMap, HashMap};

/// The member that assigns the order: member 0, the lowest member.
const SEQUENCER: usize = 0;

/// The total-order endpoint for one group member.
#[derive(Debug)]
pub struct AbcastEndpoint<P> {
    cb: CbcastEndpoint<P>,
    /// Sequencer only: next global sequence number to hand out.
    next_assign: u64,
    /// Known order assignments gseq → msg.
    order: BTreeMap<u64, MsgId>,
    /// Highest gseq G such that every assignment 1..=G is in `order`.
    /// Entries are never removed, so this only advances; it makes the
    /// per-tick order-gap check O(1) amortized instead of O(gap).
    order_contiguous: u64,
    /// Reverse map for diagnostics.
    ordered: HashMap<MsgId, u64>,
    /// Causally delivered but not yet released in total order.
    unreleased: HashMap<MsgId, Delivery<P>>,
    /// Highest gseq released to the application.
    released: u64,
    /// Last order-gap NACK time.
    last_order_nack: Option<SimTime>,
    /// Observability sink (order assignments). Disabled by default.
    probe: ProbeHandle,
    stats: EndpointStats,
}

impl<P: Clone> AbcastEndpoint<P> {
    /// Creates the endpoint for member `me` of a group of `n`.
    pub(crate) fn new(me: usize, n: usize, cfg: GroupConfig) -> Self {
        AbcastEndpoint {
            cb: CbcastEndpoint::new(me, n, cfg),
            next_assign: 0,
            order: BTreeMap::new(),
            order_contiguous: 0,
            ordered: HashMap::new(),
            unreleased: HashMap::new(),
            released: 0,
            last_order_nack: None,
            probe: ProbeHandle::none(),
            stats: EndpointStats::default(),
        }
    }

    /// Whether this member is the sequencer.
    pub(crate) fn is_sequencer(&self) -> bool {
        self.cb.me() == SEQUENCER
    }

    /// The underlying causal layer's statistics (buffering, NACKs...).
    pub(crate) fn causal_stats(&self) -> &EndpointStats {
        self.cb.stats()
    }

    fn assign_order(&mut self, now: SimTime, id: MsgId, out: &mut Vec<Out<P>>) {
        if self.ordered.contains_key(&id) {
            return;
        }
        self.next_assign += 1;
        let gseq = self.next_assign;
        self.probe.emit_phase(|| ObsEvent::Phase {
            at: now,
            who: self.cb.me(),
            kind: PhaseKind::OrderAssign,
            edge: PhaseEdge::Point,
            note: format!("gseq {gseq} -> m{}.{}", id.sender, id.seq),
        });
        self.order.insert(gseq, id);
        self.ordered.insert(id, gseq);
        self.advance_order_watermark();
        out.push((Dest::All, Wire::Order { gseq, id }));
    }

    fn advance_order_watermark(&mut self) {
        while self.order.contains_key(&(self.order_contiguous + 1)) {
            self.order_contiguous += 1;
        }
    }

    /// Releases every message whose global slot is next and whose data
    /// has causally arrived.
    fn release(&mut self, now: SimTime) -> Vec<Delivery<P>> {
        let mut released = Vec::new();
        while let Some(&id) = self.order.get(&(self.released + 1)) {
            let Some(mut d) = self.unreleased.remove(&id) else {
                break; // data not here yet
            };
            self.released += 1;
            d.gseq = Some(self.released);
            let causal_at = d.delivered_at;
            d.delivered_at = now;
            self.stats.note_delivery(d.arrived_at, now);
            let gseq = self.released;
            self.probe.emit(|| ObsEvent::Span {
                at: now,
                who: self.cb.me(),
                span: span_of(id),
                stage: Stage::Delivered,
                note: format!("released gseq {gseq}"),
            });
            if now > causal_at {
                self.probe.emit(|| ObsEvent::Wait {
                    at: now,
                    who: self.cb.me(),
                    span: span_of(id),
                    phase: LatencyPhase::Order,
                    pre_send: false,
                    since: causal_at,
                    blocker: None,
                    note: String::new(),
                });
            }
            released.push(d);
        }
        self.stats.note_holdback(self.unreleased.len() as u64);
        released
    }
}

impl<P: Clone> Protocol<P> for AbcastEndpoint<P> {
    /// Installs an observability probe on this endpoint and its causal
    /// substrate: span events flow from the cbcast layer, order-assign
    /// phase events from the sequencer logic here.
    fn set_probe(&mut self, probe: ProbeHandle) {
        self.cb.set_probe(probe.clone());
        self.probe = probe;
    }

    /// Multicasts `payload`. Unlike cbcast there is no immediate
    /// self-delivery: the message is released when its global order slot
    /// comes up (immediately only at the sequencer).
    fn multicast(&mut self, now: SimTime, payload: P) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        let (self_delivery, mut out) = self.cb.multicast(now, payload);
        let ours = out.len();
        self.stats.sent += 1;
        self.unreleased
            .insert(self_delivery.id, self_delivery.clone());
        if self.is_sequencer() {
            self.assign_order(now, self_delivery.id, &mut out);
        }
        self.stats.book(self.cb.me(), &out[ours..]);
        let released = self.release(now);
        (released, out)
    }

    fn n(&self) -> usize {
        self.cb.n()
    }

    /// An order slot far past the last released one (its gap would be
    /// NACKed for good), or what is out of the causal substrate's reach.
    fn out_of_reach(&self, wire: &Wire<P>) -> bool {
        match wire {
            Wire::Order { gseq, .. } => gseq.saturating_sub(self.released) > MAX_CHASE_AHEAD,
            other => self.cb.out_of_reach(other),
        }
    }

    fn receive(&mut self, now: SimTime, wire: Wire<P>) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        let mut out = Vec::new();
        // Where the order wires this layer adds begin: the causal
        // substrate books its own.
        let mut ours = 0;
        match wire {
            Wire::Order { gseq, id } => {
                self.order.entry(gseq).or_insert(id);
                self.ordered.entry(id).or_insert(gseq);
                self.advance_order_watermark();
            }
            Wire::OrderNack {
                from,
                from_gseq,
                to_gseq,
            } => {
                if self.is_sequencer() {
                    // What is assigned of the range, however wide it is.
                    for (&gseq, &id) in self.order.range(from_gseq..=to_gseq) {
                        self.stats.retransmits_served += 1;
                        out.push((Dest::One(from), Wire::Order { gseq, id }));
                    }
                }
            }
            other => {
                let (dels, cb_out) = self.cb.receive(now, other);
                out = cb_out;
                ours = out.len();
                for d in dels {
                    if self.is_sequencer() {
                        self.assign_order(now, d.id, &mut out);
                    }
                    self.unreleased.insert(d.id, d);
                }
            }
        }
        self.stats.book(self.cb.me(), &out[ours..]);
        let released = self.release(now);
        (released, out)
    }

    /// Periodic maintenance: causal-layer tick plus order-gap recovery.
    fn on_tick(&mut self, now: SimTime) -> Vec<Out<P>> {
        let mut out = self.cb.on_tick(now);
        let ours = out.len();
        // The sequencer re-announces its latest assignment so that a lost
        // final Order message (with no successor to expose the gap) is
        // still recovered.
        if self.is_sequencer() && self.next_assign > 0 {
            if let Some(&id) = self.order.get(&self.next_assign) {
                let w: Wire<P> = Wire::Order {
                    gseq: self.next_assign,
                    id,
                };
                out.push((Dest::All, w));
            }
        }
        // If we hold order assignments beyond a gap, ask the sequencer to
        // refill the gap.
        if let Some((&max_known, _)) = self.order.iter().next_back() {
            if max_known > self.released {
                let gap_start = self.released + 1;
                let missing = max_known > self.order_contiguous;
                let overdue = match self.last_order_nack {
                    None => true,
                    Some(t) => now.saturating_since(t) >= NACK_TIMEOUT,
                };
                if missing && overdue && !self.is_sequencer() {
                    self.last_order_nack = Some(now);
                    let w = Wire::OrderNack {
                        from: self.cb.me(),
                        from_gseq: gap_start,
                        to_gseq: max_known,
                    };
                    self.stats.nacks_sent += 1;
                    out.push((Dest::One(SEQUENCER), w));
                }
            }
        }
        self.stats.book(self.cb.me(), &out[ours..]);
        out
    }

    /// Total-order delivery statistics.
    fn stats(&self) -> &EndpointStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut EndpointStats {
        &mut self.stats
    }

    /// Telemetry hook: the causal substrate's gauges plus the order-release
    /// backlog specific to the sequencer design.
    fn sample(&self, emit: &mut dyn FnMut(&str, f64)) {
        self.cb.sample(emit);
        emit("abcast.unreleased", self.unreleased.len() as f64);
    }

    /// What every undelivered message here waits on (contract in
    /// [`crate::waitgraph`]): the causal substrate's holdback, then each
    /// causally delivered message awaiting release, in slot order
    /// (unassigned last). Release is stuck on the smallest unreleased
    /// slot: on that slot's message when its assignment (but not its
    /// data) has arrived, else on the sequencer — for a gap before the
    /// message's own slot, or for its own assignment.
    fn wait_records(&self, every_gap: bool, emit: &mut dyn FnMut(&WaitRecord)) {
        self.cb.wait_records(every_gap, emit);
        let stuck = self.released + 1;
        let sequencer = WaitNode::Phase {
            kind: PhaseKind::OrderAssign,
            at: SEQUENCER,
        };
        let held = self.unreleased.iter();
        let mut held: Vec<_> = held
            .map(|(id, d)| (self.ordered.get(id).copied(), *id, d.arrived_at))
            .collect();
        held.sort_by_key(|&(slot, id, _)| (slot.unwrap_or(u64::MAX), id));
        for (slot, id, since) in held {
            let wait = match (self.order.get(&stuck), slot) {
                (Some(&m), _) => (
                    WaitNode::Msg(m),
                    WaitReason::SlotDataMissing { slot: stuck },
                ),
                (None, Some(_)) => (sequencer, WaitReason::OrderGap { slot: stuck }),
                (None, None) => (sequencer, WaitReason::OrderUnassigned),
            };
            emit(&WaitRecord {
                blocked: WaitNode::Msg(id),
                who: self.cb.me(),
                since,
                slot,
                waits: vec![wait],
            });
        }
    }

    fn buffered_len(&self) -> usize {
        self.cb.stats().buffered_now as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn group(n: usize) -> Vec<AbcastEndpoint<&'static str>> {
        (0..n)
            .map(|i| AbcastEndpoint::new(i, n, GroupConfig::default()))
            .collect()
    }

    /// Fans `out` messages to the right endpoints, collecting deliveries,
    /// until quiescence. A miniature synchronous network.
    fn settle(
        eps: &mut [AbcastEndpoint<&'static str>],
        from: usize,
        out: Vec<Out<&'static str>>,
        now: SimTime,
        sink: &mut Vec<(usize, Delivery<&'static str>)>,
    ) {
        let mut queue: Vec<(usize, usize, Wire<&'static str>)> = Vec::new();
        let n = eps.len();
        for (dest, w) in out {
            match dest {
                Dest::All => {
                    for k in 0..n {
                        if k != from {
                            queue.push((from, k, w.clone()));
                        }
                    }
                }
                Dest::One(k) => queue.push((from, k, w)),
            }
        }
        while let Some((_src, dst, w)) = queue.pop() {
            let (dels, more) = eps[dst].on_wire(now, w);
            for d in dels {
                sink.push((dst, d));
            }
            for (dest, w) in more {
                match dest {
                    Dest::All => {
                        for k in 0..n {
                            if k != dst {
                                queue.push((dst, k, w.clone()));
                            }
                        }
                    }
                    Dest::One(k) => queue.push((dst, k, w)),
                }
            }
        }
    }

    /// The three things an abcast member can be found waiting on, each
    /// from bare endpoints: its own order assignment, the data of the
    /// slot release is stuck on, and — below the order — a causal
    /// predecessor the substrate still holds the message back for.
    #[test]
    fn wait_records_name_the_assignment_the_slot_and_the_substrate() {
        let msg = |sender, seq| WaitNode::Msg(MsgId { sender, seq });
        let sequencer = WaitNode::Phase {
            kind: PhaseKind::OrderAssign,
            at: 0,
        };
        // A multicast's data message, and whatever else went out with it.
        let split = |out: Vec<Out<&'static str>>| {
            let (data, rest): (Vec<_>, Vec<_>) = out
                .into_iter()
                .partition(|(_, w)| matches!(w, Wire::Data(_)));
            (data[0].1.clone(), rest)
        };
        let records = |ep: &AbcastEndpoint<&'static str>| {
            let mut out = Vec::new();
            ep.wait_records(true, &mut |r| out.push(r.clone()));
            out
        };
        let record = |blocked, since, slot, on, why| WaitRecord {
            blocked,
            who: 2,
            since,
            slot,
            waits: vec![(on, why)],
        };

        // (i) Causally delivered, no Order yet.
        let mut eps = group(3);
        let (x, _) = split(eps[1].multicast(t(0), "x").1);
        eps[2].on_wire(t(1), x);
        let want = record(
            msg(1, 1),
            t(1),
            None,
            sequencer,
            WaitReason::OrderUnassigned,
        );
        assert_eq!(records(&eps[2]), [want]);

        // (ii) Assigned slot 2, and of slot 1 only the assignment is here.
        let mut eps = group(3);
        let (_, order1) = split(eps[0].multicast(t(0), "s1").1);
        let (x, _) = split(eps[1].multicast(t(0), "x").1);
        let (_, order2) = eps[0].on_wire(t(1), x.clone());
        eps[2].on_wire(t(2), x);
        for (_, w) in order1.into_iter().chain(order2) {
            eps[2].on_wire(t(3), w);
        }
        let stuck = WaitReason::SlotDataMissing { slot: 1 };
        let want = record(msg(1, 1), t(2), Some(2), msg(0, 1), stuck);
        assert_eq!(records(&eps[2]), [want]);

        // (iii) Held in the causal substrate: s2 arrives without s1.
        let mut eps = group(3);
        eps[0].multicast(t(0), "s1");
        let (s2, _) = split(eps[0].multicast(t(1), "s2").1);
        eps[2].on_wire(t(2), s2);
        let chased = WaitReason::Chased { referenced_by: 0 };
        let want = record(msg(0, 2), t(2), None, msg(0, 1), chased);
        assert_eq!(records(&eps[2]), [want]);
    }

    #[test]
    fn sequencer_delivers_own_message_immediately() {
        let mut eps = group(3);
        let (dels, _) = eps[0].multicast(t(0), "s");
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].gseq, Some(1));
    }

    #[test]
    fn non_sequencer_waits_for_order() {
        let mut eps = group(3);
        let (dels, out) = eps[1].multicast(t(0), "x");
        assert!(dels.is_empty(), "sender must wait for the sequencer");
        let mut sink = Vec::new();
        settle(&mut eps, 1, out, t(1), &mut sink);
        // The sequencer assigned order; everyone (incl. the sender, once
        // it gets the Order message) can now release.
        let seq_del: Vec<_> = sink.iter().filter(|(who, _)| *who == 0).collect();
        assert_eq!(seq_del.len(), 1);
        assert_eq!(seq_del[0].1.gseq, Some(1));
    }

    #[test]
    fn all_members_release_same_order() {
        let mut eps = group(4);
        let mut sink: Vec<(usize, Delivery<&'static str>)> = Vec::new();
        // Three concurrent multicasts from different members.
        let (d0, o0) = eps[1].multicast(t(0), "a");
        let (d1, o1) = eps[2].multicast(t(0), "b");
        let (d2, o2) = eps[3].multicast(t(0), "c");
        for d in d0.into_iter().chain(d1).chain(d2) {
            sink.push((usize::MAX, d));
        }
        settle(&mut eps, 1, o0, t(1), &mut sink);
        settle(&mut eps, 2, o1, t(2), &mut sink);
        settle(&mut eps, 3, o2, t(3), &mut sink);
        // Collect per-member release sequences.
        let mut orders: Vec<Vec<(u64, &str)>> = vec![Vec::new(); 4];
        for (who, d) in &sink {
            if *who != usize::MAX {
                orders[*who].push((d.gseq.unwrap(), d.payload));
            }
        }
        // Senders' own releases come back through Order messages too; at
        // minimum every member that released anything released a prefix
        // of the same global sequence.
        let reference: Vec<(u64, &str)> = orders.iter().max_by_key(|v| v.len()).cloned().unwrap();
        for o in &orders {
            assert_eq!(&reference[..o.len()], &o[..], "same total order everywhere");
        }
        assert_eq!(reference.len(), 3);
    }

    #[test]
    fn order_nack_refetches_assignments() {
        let mut eps = group(2);
        let (_, out) = eps[0].multicast(t(0), "m1");
        // Drop the Order broadcast: feed member 1 only the Data part.
        let data = out
            .iter()
            .find(|(_, w)| matches!(w, Wire::Data(_)))
            .cloned()
            .unwrap();
        let order = out
            .iter()
            .find(|(_, w)| matches!(w, Wire::Order { .. }))
            .cloned()
            .unwrap();
        let (dels, _) = eps[1].on_wire(t(1), data.1);
        assert!(dels.is_empty(), "no order assignment yet");
        // Second multicast whose Order does arrive reveals the gap.
        let (_, out2) = eps[0].multicast(t(2), "m2");
        for (_, w) in out2 {
            eps[1].on_wire(t(3), w);
        }
        // Tick triggers an OrderNack for the gap.
        let tick_out = eps[1].on_tick(t(3) + NACK_TIMEOUT);
        let nack = tick_out
            .into_iter()
            .find(|(_, w)| matches!(w, Wire::OrderNack { .. }));
        assert!(nack.is_some(), "order gap NACKed");
        let (_, resent) = eps[0].on_wire(t(4), nack.unwrap().1);
        assert!(resent
            .iter()
            .any(|(_, w)| matches!(w, Wire::Order { gseq: 1, .. })));
        // Delivering the original order releases both in order.
        let (dels, _) = eps[1].on_wire(t(5), order.1);
        assert_eq!(
            dels.iter()
                .map(|d| (d.gseq.unwrap(), d.payload))
                .collect::<Vec<_>>(),
            vec![(1, "m1"), (2, "m2")]
        );
    }

    /// An order slot far past the last released one once took its place
    /// in `order`, and every tick after NACKed the sequencer for the gap
    /// below it, `OrderNack 1..=18446744073709551615`. It is refused at the
    /// door and NACKs nothing; the furthest slot in reach is taken.
    #[test]
    fn an_order_out_of_reach_is_refused() {
        let mut eps = group(3);
        let id = MsgId { sender: 0, seq: 1 };
        for gseq in [u64::MAX, MAX_CHASE_AHEAD + 1] {
            let (dels, out) = eps[1].on_wire(t(1), Wire::Order { gseq, id });
            assert!(dels.is_empty() && out.is_empty(), "gseq {gseq}");
        }
        assert_eq!(eps[1].stats().ts_decode_errors, 2);
        assert!(eps[1].order.is_empty());
        let tick = eps[1].on_tick(t(1) + NACK_TIMEOUT);
        assert!(!tick
            .iter()
            .any(|(_, w)| matches!(w, Wire::OrderNack { .. })));
        eps[1].on_wire(
            t(2),
            Wire::Order {
                gseq: MAX_CHASE_AHEAD,
                id,
            },
        );
        assert_eq!(eps[1].order.len(), 1);
    }

    /// The sequencer serves an order NACK from what it has assigned, not
    /// by asking for every slot of the range: one spanning every gseq is
    /// answered at once.
    #[test]
    fn a_wide_order_nack_is_served_from_the_assignments() {
        let mut eps = group(2);
        for p in ["m1", "m2"] {
            eps[0].multicast(t(0), p);
        }
        let nack = Wire::OrderNack {
            from: 1,
            from_gseq: 1,
            to_gseq: u64::MAX,
        };
        let (_, out) = eps[0].on_wire(t(1), nack);
        let served: Vec<u64> = out
            .iter()
            .filter_map(|(d, w)| match w {
                Wire::Order { gseq, .. } if *d == Dest::One(1) => Some(*gseq),
                _ => None,
            })
            .collect();
        assert_eq!(served, [1, 2]);
        assert_eq!(eps[0].stats().retransmits_served, 2);
    }
}
