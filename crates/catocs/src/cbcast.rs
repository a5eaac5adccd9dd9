//! Causal multicast (`cbcast`) — the centerpiece of CATOCS.
//!
//! This is the ISIS "lightweight causal multicast" design \[Birman,
//! Schiper, Stephenson '91\]:
//!
//! - every multicast carries the sender's vector time;
//! - a receiver delivers a message from member `s` with timestamp `vt`
//!   only when `vt[s] == local[s] + 1` and `vt[k] <= local[k]` for all
//!   `k != s`; otherwise the message waits in a *holdback queue*;
//! - every process buffers every message (its own and others') until the
//!   message is *stable* — known delivered everywhere — so that missing
//!   causal predecessors can be refetched from whoever references them
//!   (NACK-based recovery). This buffering is exactly the memory cost the
//!   paper's §5 predicts grows quadratically system-wide;
//! - stability information travels on the vector timestamps of data
//!   messages (piggyback mode) and on ack gossip, which a tick sends
//!   when the delivered clock moved since the last one, or as a 100 ms
//!   keep-alive.
//!
//! The endpoint is a pure state machine: the caller supplies the current
//! time and delivers wire messages; the endpoint returns deliveries and
//! outbound messages. This makes the protocol directly unit-testable and
//! lets the same code run under `simnet` or a real transport.

use crate::causal_core::{lagging_refs, span_of, CausalCore, Slot};
use crate::endpoint::{CausalProtocol, Protocol};
use crate::group::{GroupConfig, MsgId};
use crate::holdback::Pending;
use crate::waitgraph::WaitRecord;
use crate::wire::{DataMsg, Delivery, Dest, EndpointStats, Out, Refusal, VtWire, Wire};
use clocks::vector::VectorClock;
use simnet::obs::{LatencyPhase, ObsEvent, ProbeHandle, Stage};
use simnet::time::SimTime;

/// Cap on the unstable predecessors appended to one message when
/// `GroupConfig::append_predecessors` is on.
const MAX_APPEND: usize = 16;

/// The causal multicast endpoint for one group member.
///
/// # Examples
///
/// ```
/// use catocs::cbcast::CbcastEndpoint;
/// use catocs::group::GroupConfig;
/// use catocs::wire::{Dest, Wire};
/// use simnet::time::SimTime;
///
/// let cfg = GroupConfig::default();
/// let mut alice: CbcastEndpoint<&str> = CbcastEndpoint::new(0, 2, cfg.clone());
/// let mut bob: CbcastEndpoint<&str> = CbcastEndpoint::new(1, 2, cfg);
///
/// // Alice multicasts; the self-delivery is immediate.
/// let (self_delivery, out) = alice.multicast(SimTime::ZERO, "hello");
/// assert_eq!(self_delivery.payload, "hello");
///
/// // Bob receives the broadcast copy and delivers it causally.
/// let data = out
///     .into_iter()
///     .find_map(|(d, w)| (d == Dest::All).then_some(w))
///     .unwrap();
/// let (delivered, _out) = bob.on_wire(SimTime::from_millis(1), data);
/// assert_eq!(delivered[0].payload, "hello");
/// ```
#[derive(Debug)]
pub struct CbcastEndpoint<P> {
    /// Clock, holdback, unstable buffer, stability, NACK repair, view
    /// membership and the flush freeze — shared with pccast.
    core: CausalCore<P>,
    /// Our previous data message's timestamp — the delta-encoding base.
    last_sent_vt: VectorClock,
    /// Per sender: seq of the latest message whose timestamp we decoded,
    /// and that timestamp — the base the next delta from that sender
    /// chains onto. The base is `None` right after a view install: every
    /// chain is invalidated then (the S3 fix — stale cross-view bases
    /// silently decoded wrong), and re-seeded by the full-encoded
    /// messages every member sends first in a new view.
    /// A delta that arrives ahead of its base parks in its sender's window
    /// until the chain reaches it (or a full copy jumps the chain past it).
    decode_chain: Vec<(u64, Option<VectorClock>)>,
    /// Send the next multicast with a full-encoded timestamp regardless
    /// of config — set at view install so receivers can re-seed their
    /// invalidated decode chains.
    force_full_next: bool,
    /// Campaign regression knob: when set, `on_view_install` skips the
    /// delta-chain reset (the S3 fix), reintroducing the stale-chain bug
    /// so fault campaigns can demonstrate the failing seed.
    skip_view_reset: bool,
}

impl<P: Clone> CbcastEndpoint<P> {
    /// Creates the endpoint for member `me` of a group of `n`.
    pub fn new(me: usize, n: usize, cfg: GroupConfig) -> Self {
        CbcastEndpoint {
            // Buffered-bytes gauge: id + a full n-wide timestamp.
            core: CausalCore::new(me, n, cfg, 12 + 4 + 8 * n),
            last_sent_vt: VectorClock::new(n),
            // Zero-width initial bases: `decode_delta` resizes its base
            // clone to the delta's declared width (missing components
            // read as 0), so these decode identically to eager all-zero
            // width-`n` bases while keeping a fresh endpoint O(n) rather
            // than O(n²) — material for the N=4096 scaling runs.
            decode_chain: vec![(0, Some(VectorClock::new(0))); n],
            force_full_next: false,
            skip_view_reset: false,
        }
    }

    /// The shared reliability shell: clock, stats, stability, buffer and
    /// holdback gauges, the flush freeze.
    pub fn core(&self) -> &CausalCore<P> {
        &self.core
    }

    /// Installs an observability probe (see [`CausalCore::set_probe`]).
    pub fn set_probe(&mut self, probe: ProbeHandle) {
        self.core.set_probe(probe);
    }

    /// This member's index.
    pub(crate) fn me(&self) -> usize {
        self.core.me
    }

    /// Endpoint statistics.
    pub fn stats(&self) -> &EndpointStats {
        &self.core.stats
    }

    /// Delta-stamped messages parked awaiting their decode base.
    pub fn parked_len(&self) -> usize {
        self.core.windows.parked_len()
    }

    /// Multicasts `payload` to the group. Returns the local (immediate)
    /// self-delivery and the outbound wire messages.
    pub fn multicast(&mut self, now: SimTime, payload: P) -> (Delivery<P>, Vec<Out<P>>) {
        let id = self.core.begin_send(now);
        let core = &mut self.core;
        let vt_wire = if core.cfg.delta_timestamps && !self.force_full_next {
            // Delta against our previous data message; fall back to full
            // when so many components changed that the delta is no
            // cheaper (dense all-to-all traffic — the paper's caveat).
            let delta = core.vt.encode_delta(&self.last_sent_vt);
            if delta.len() < core.vt.encoded_len() {
                core.stats.ts_delta_sent += 1;
                VtWire::Delta(delta)
            } else {
                core.stats.ts_full_sent += 1;
                VtWire::Full(core.vt.encode())
            }
        } else {
            core.stats.ts_full_sent += 1;
            VtWire::Full(core.vt.encode())
        };
        self.force_full_next = false;
        self.last_sent_vt = core.vt.clone();
        let mut msg = DataMsg {
            id,
            vt: core.vt.clone(),
            vt_wire,
            payload: payload.clone(),
            retransmit: false,
            appended: Vec::new(),
        };
        if core.cfg.append_predecessors {
            // §3.4 footnote 4: carry unstable causal predecessors along
            // so receivers need not hold this message waiting for them.
            // Most-recent-first, capped.
            msg.appended = core
                .windows
                .values_mut()
                .rev()
                .filter(|m| m.id != id)
                .take(MAX_APPEND)
                .map(|m| DataMsg {
                    appended: Vec::new(),
                    ..m.repair_copy()
                })
                .collect();
        }
        let out = vec![(Dest::All, Wire::Data(msg.clone()))];
        core.stats.book(core.me, &out);
        (core.finish_send(now, msg, payload), out)
    }

    /// Handles an incoming wire message. Returns app deliveries (in causal
    /// order) and any outbound messages (NACKs, retransmits, acks).
    pub fn on_wire(&mut self, now: SimTime, wire: Wire<P>) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        Protocol::on_wire(self, now, wire)
    }

    /// Periodic maintenance: ack gossip, NACK retries, buffer sampling.
    pub fn on_tick(&mut self, now: SimTime) -> Vec<Out<P>> {
        let mut out = Vec::new();
        self.core.gossip(now, &mut out);
        self.core.renack_overdue(now, &mut out);
        self.core.stats.book(self.core.me, &out);
        out
    }

    /// First stage of receiving a data message: reconstruct its vector
    /// timestamp from the wire encoding. Full encodings decode
    /// immediately; delta encodings chain onto the previous decoded
    /// timestamp from the same sender, so a message arriving ahead of its
    /// base is parked and the FIFO gap NACKed (the fallback-to-full
    /// path). Undecodable input is dropped and recovered via NACK.
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
        let sender = msg.id.sender;
        let (chain_seq, chain_base) = &self.decode_chain[sender];
        let chain_seq = *chain_seq;
        let (decoded, what) = match &msg.vt_wire {
            VtWire::Full(bytes) => (VectorClock::decode(bytes), "timestamp"),
            VtWire::Delta(bytes) => match chain_base {
                Some(base) if msg.id.seq == chain_seq + 1 => {
                    (VectorClock::decode_delta(bytes, base), "delta timestamp")
                }
                _ if msg.id.seq <= chain_seq.max(self.core.vt.get(sender)) => {
                    // Decoded before (or stamped here, if ours): a duplicate.
                    self.core.stats.duplicates += 1;
                    self.core.note_gone(now, msg.id, Stage::Dropped, || {
                        "duplicate (behind decode chain)".to_string()
                    });
                    return;
                }
                _ => {
                    // Ahead of the decode chain — or the chain base was
                    // invalidated by a view install: park until a full
                    // encoding re-seeds the chain, and NACK the sender so
                    // the missing bases (or a full copy of this very
                    // message) arrive as full-encoded retransmissions.
                    self.core.stats.ts_delta_parked += 1;
                    let need = msg.id.seq - u64::from(chain_base.is_some());
                    let have = chain_seq.max(self.core.vt.get(sender));
                    self.core.nack_gap(now, sender, (have + 1)..=need, out);
                    self.core.probe.emit(|| ObsEvent::Span {
                        at: now,
                        who: self.core.me,
                        span: span_of(msg.id),
                        stage: Stage::Parked,
                        note: format!("delta ahead of decode chain (chain at seq {chain_seq})"),
                    });
                    self.core.windows.park(msg);
                    return;
                }
            },
            VtWire::Pc { .. } | VtWire::Id | VtWire::Gseq(_) => {
                // Another discipline's copy reached a cbcast endpoint
                // (mixed disciplines in one group is a configuration
                // error): there is no vector to decode, so drop for
                // NACK-driven full retransmission like any undecodable
                // timestamp.
                self.core.stats.refuse(Refusal::Undecodable);
                return;
            }
        };
        if let Some(vt) = self.core.checked_vt(now, &msg, decoded, what) {
            msg.vt = vt;
            self.advance_chain(now, sender, msg.id.seq, msg.vt.clone());
            self.on_data(now, msg, out, delivered);
            self.drain_undecoded(now, sender, out, delivered);
        }
    }

    /// Advances the per-sender decode chain to (`seq`, `vt`) if that is
    /// newer. Parked deltas below the new point lost their exact base (a
    /// full retransmission jumped past them) and are dropped, to come back
    /// by NACK; a parked copy of `seq` itself is the message now decoded.
    fn advance_chain(&mut self, now: SimTime, sender: usize, seq: u64, vt: VectorClock) {
        let chain = &mut self.decode_chain[sender];
        if seq > chain.0 || (seq == chain.0 && chain.1.is_none()) {
            let passed = (chain.0 + 1)..=seq;
            *chain = (seq, Some(vt));
            for copy in self.core.windows.unpark(sender, passed) {
                if copy.id.seq < seq {
                    self.core
                        .note_gone(now, copy.id, Stage::Unparked, String::new);
                }
            }
        }
    }

    /// Decodes and processes any parked messages from `sender` that the
    /// advanced chain has now reached, in seq order.
    fn drain_undecoded(
        &mut self,
        now: SimTime,
        sender: usize,
        out: &mut Vec<Out<P>>,
        delivered: &mut Vec<Delivery<P>>,
    ) {
        // An invalidated chain (view install) stops immediately: parked
        // deltas cannot decode until a full encoding re-seeds it.
        while let (seq, Some(base)) = &self.decode_chain[sender] {
            let next = seq + 1;
            let base = base.clone();
            let Some(mut msg) = self.core.windows.unpark(sender, next..=next).pop() else {
                break;
            };
            // Only delta stamps park.
            let decoded = match &msg.vt_wire {
                VtWire::Delta(bytes) => VectorClock::decode_delta(bytes, &base),
                _ => None,
            };
            // The same front door as a timestamp decoded on arrival.
            if let Some(vt) = self.core.checked_vt(now, &msg, decoded, "parked timestamp") {
                msg.vt = vt;
                self.advance_chain(now, sender, next, msg.vt.clone());
                self.on_data(now, msg, out, delivered);
            } else {
                self.core
                    .note_gone(now, msg.id, Stage::Unparked, String::new);
            }
        }
    }

    fn on_data(
        &mut self,
        now: SimTime,
        msg: DataMsg<P>,
        out: &mut Vec<Out<P>>,
        delivered: &mut Vec<Delivery<P>>,
    ) {
        let core = &mut self.core;
        core.stats.holdback_events += 1;
        // The data's timestamp doubles as the sender's delivered clock —
        // piggybacked stability information.
        if core.cfg.piggyback_acks {
            core.stability.update_row(msg.id.sender, &msg.vt);
        }
        if core.reject_duplicate(now, msg.id) {
            return;
        }
        core.probe.emit(|| {
            let waits: Vec<String> = lagging_refs(&msg, &core.vt, core.n)
                .map(|(k, _, need)| format!("m{k}.{need}"))
                .collect();
            ObsEvent::Span {
                at: now,
                who: core.me,
                span: span_of(msg.id),
                stage: Stage::HoldbackEnter,
                note: if waits.is_empty() {
                    "deliverable on arrival".to_string()
                } else {
                    format!("waiting on {}", waits.join(", "))
                },
            }
        });
        core.hold(now, msg, out);
        self.drain_holdback(now, delivered);
        self.core.note_holdback();
        self.core.collect_garbage(now);
    }

    /// Delivers every holdback message that has become deliverable, in
    /// causal order, until a fixed point. A no-op while frozen (flush in
    /// progress): messages keep queueing and drain at view install.
    fn drain_holdback(&mut self, now: SimTime, delivered: &mut Vec<Delivery<P>>) {
        let core = &mut self.core;
        if core.is_frozen() {
            core.note_holdback();
            return;
        }
        // The delivery that released each subsequent pop in this drain,
        // and whether it was chased: the previous pop advanced the clock
        // past the last obstacle, so it is the held message's blocking
        // predecessor.
        let mut last_popped: Option<(MsgId, bool)> = None;
        while let Some(Pending { msg, arrived_at }) = core.holdback.pop_ready(&core.vt) {
            let id = msg.id;
            let chased = matches!(core.windows.slot(id), Some(Slot::Held { chased: true }));
            let mut waited_for = Vec::new();
            if core.begin_delivery(now, arrived_at, id) {
                waited_for = Self::immediate_predecessors(&msg);
                core.probe.emit(|| ObsEvent::Span {
                    at: now,
                    who: core.me,
                    span: span_of(id),
                    stage: Stage::Deliverable,
                    note: format!(
                        "all predecessors in after {}us",
                        now.saturating_since(arrived_at).as_micros()
                    ),
                });
                // Ledger attribution: why was it held, and on whom?
                let phase = match last_popped {
                    Some((_, true)) => LatencyPhase::Repair,
                    Some((b, _)) if b.sender == id.sender => LatencyPhase::Fifo,
                    _ => LatencyPhase::Causal,
                };
                let blocker = last_popped.map(|(b, _)| span_of(b));
                core.emit_hold_waits(now, arrived_at, id, phase, blocker);
            }
            core.finish_delivery(now, arrived_at, msg, waited_for, delivered);
            last_popped = Some((id, chased));
        }
        core.note_holdback();
        core.note_buffer();
    }

    /// What a held message is reported to have waited on: the latest
    /// message from each member visible in its timestamp (other than
    /// itself). The clock at arrival is unknowable by delivery time, so
    /// this is the direct predecessor gap from each sender.
    fn immediate_predecessors(msg: &DataMsg<P>) -> Vec<MsgId> {
        // Everything the timestamp references: its lag on the zero clock.
        lagging_refs(msg, &VectorClock::new(0), msg.vt.len())
            .map(|(sender, _, seq)| MsgId { sender, seq })
            .collect()
    }
}

impl<P: Clone> Protocol<P> for CbcastEndpoint<P> {
    fn set_probe(&mut self, probe: ProbeHandle) {
        CbcastEndpoint::set_probe(self, probe)
    }

    fn multicast(&mut self, now: SimTime, payload: P) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        let (own, out) = CbcastEndpoint::multicast(self, now, payload);
        (vec![own], out)
    }

    fn n(&self) -> usize {
        self.core.n
    }

    /// A data copy, or one appended to it, far past its sender's
    /// delivered count.
    fn out_of_reach(&self, wire: &Wire<P>) -> bool {
        let Wire::Data(msg) = wire else { return false };
        let mut copies = std::iter::once(msg).chain(&msg.appended);
        copies.any(|copy| self.core.out_of_reach(copy.id))
    }

    fn receive(&mut self, now: SimTime, wire: Wire<P>) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        let mut out = Vec::new();
        let mut delivered = Vec::new();
        match wire {
            Wire::Data(mut msg) => {
                self.core.stats.data_received += 1;
                // Appended predecessors are processed first, so the
                // carrying message rarely needs holdback.
                for pre in std::mem::take(&mut msg.appended) {
                    self.core.stats.data_received += 1;
                    self.accept_data(now, pre, &mut out, &mut delivered);
                }
                self.accept_data(now, msg, &mut out, &mut delivered);
            }
            Wire::AckGossip { from, delivered: d } => {
                self.core.on_ack_gossip(now, from, &d, &mut out)
            }
            Wire::Nack { from, want } => self.core.serve_nack(from, want, &mut out),
            // Order/Token/membership traffic is not cbcast's business;
            // the composing endpoint handles it.
            _ => {}
        }
        self.core.stats.holdback_work = self.core.holdback.work();
        self.core.stats.book(self.core.me, &out);
        (delivered, out)
    }

    fn on_tick(&mut self, now: SimTime) -> Vec<Out<P>> {
        CbcastEndpoint::on_tick(self, now)
    }

    fn stats(&self) -> &EndpointStats {
        CbcastEndpoint::stats(self)
    }

    fn stats_mut(&mut self) -> &mut EndpointStats {
        &mut self.core.stats
    }

    /// Telemetry hook: instantaneous queue depths and buffering gauges,
    /// for `simnet::process::Process::sample`.
    fn sample(&self, emit: &mut dyn FnMut(&str, f64)) {
        emit("cbcast.holdback", self.core.holdback_len() as f64);
        emit("cbcast.parked", self.parked_len() as f64);
        emit("cbcast.buffered", self.core.buffered_len() as f64);
        emit(
            "cbcast.buffered_bytes",
            self.core.stats.buffered_bytes_now as f64,
        );
        emit("cbcast.stability_lag", self.core.stability_lag() as f64);
    }

    /// What every held message waits on (the shared shell's walk;
    /// contract in [`crate::waitgraph`]).
    fn wait_records(&self, every_gap: bool, emit: &mut dyn FnMut(&WaitRecord)) {
        self.core.wait_records(every_gap, emit);
    }

    fn buffered_len(&self) -> usize {
        self.core.buffered_len()
    }
}

impl<P: Clone> CausalProtocol<P> for CbcastEndpoint<P> {
    fn core(&self) -> &CausalCore<P> {
        CbcastEndpoint::core(self)
    }

    fn core_mut(&mut self) -> &mut CausalCore<P> {
        &mut self.core
    }

    /// Applies an installed view: `members` are the surviving member
    /// indices and `cut` is the flush cut agreed for the view. On top of
    /// the membership bookkeeping of the shared shell:
    ///
    /// - Removed senders' parked deltas are dropped.
    /// - Every per-sender delta decode chain is invalidated (the S3 fix):
    ///   a delta crossing the view boundary must not decode against a
    ///   stale base. Senders re-seed receivers by sending their first
    ///   post-install message full-encoded (`force_full_next`).
    ///
    /// Delivery stays frozen until [`Self::thaw`].
    fn on_view_install(&mut self, now: SimTime, _: u64, members: &[usize], cut: &VectorClock) {
        if !self.skip_view_reset {
            for s in 0..self.core.n {
                if !members.contains(&s) && self.core.alive[s] {
                    // The shell chases everything up to the cut again.
                    for copy in self.core.windows.unpark(s, 1..=u64::MAX) {
                        self.core
                            .note_gone(now, copy.id, Stage::Unparked, String::new);
                    }
                }
                self.decode_chain[s].1 = None;
            }
            self.force_full_next = true;
        }
        self.core.install_view(now, members, cut);
    }

    /// Ends the delivery blackout ([`CausalCore::freeze`]): drains the
    /// holdback queue and returns what became deliverable during the
    /// flush, in causal order.
    fn thaw(&mut self, now: SimTime) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        self.core.thaw(now);
        let mut delivered = Vec::new();
        self.drain_holdback(now, &mut delivered);
        self.core.end_thaw_drain();
        (delivered, Vec::new())
    }

    /// Regression knob for the fault campaigns: reintroduces the S3 bug
    /// (stale delta decode chains surviving a view install). Never set
    /// outside tests and chaos experiments.
    fn debug_skip_view_reset(&mut self, on: bool) {
        self.skip_view_reset = on;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::NACK_TIMEOUT;
    use crate::waitgraph::{WaitNode, WaitReason};
    use simnet::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn trio() -> (
        CbcastEndpoint<&'static str>,
        CbcastEndpoint<&'static str>,
        CbcastEndpoint<&'static str>,
    ) {
        let cfg = GroupConfig::default();
        (
            CbcastEndpoint::new(0, 3, cfg.clone()),
            CbcastEndpoint::new(1, 3, cfg.clone()),
            CbcastEndpoint::new(2, 3, cfg),
        )
    }

    fn data_of<P: Clone>(out: &[Out<P>]) -> Wire<P> {
        out.iter()
            .find_map(|(d, w)| match (d, w) {
                (Dest::All, Wire::Data(_)) => Some(w.clone()),
                _ => None,
            })
            .expect("a broadcast data message")
    }

    /// A gap that gossip alone reveals is asked of the gossiper at once —
    /// it delivered the id, so it still holds it — and of everyone at the
    /// first tick at least one tick interval later.
    #[test]
    fn a_gossiped_gap_asks_the_gossiper_at_once() {
        let (mut a, mut b, mut c) = trio();
        let (_, out) = a.multicast(t(0), "m1");
        b.on_wire(t(1), data_of(&out));
        let gossip = b
            .on_tick(t(10))
            .into_iter()
            .find(|(_, w)| matches!(w, Wire::AckGossip { .. }))
            .expect("tick gossip");
        let nacks = |outs: Vec<Out<&'static str>>| -> Vec<(Dest, Vec<MsgId>)> {
            let nack = |(d, w)| match w {
                Wire::Nack { want, .. } => Some((d, want)),
                _ => None,
            };
            outs.into_iter().filter_map(nack).collect()
        };
        let m1 = vec![MsgId { sender: 0, seq: 1 }];
        let (dels, reply) = c.on_wire(t(10), gossip.1);
        assert!(dels.is_empty());
        assert_eq!(nacks(reply), [(Dest::One(1), m1.clone())]);
        let first = t(10) + GroupConfig::default().tick_interval;
        assert_eq!(nacks(c.on_tick(first - SimDuration::from_micros(1))), []);
        assert_eq!(nacks(c.on_tick(first)), [(Dest::All, m1)]);
    }

    #[test]
    fn self_delivery_is_immediate() {
        let (mut a, _, _) = trio();
        let (d, out) = a.multicast(t(0), "hello");
        assert_eq!(d.id, MsgId { sender: 0, seq: 1 });
        assert!(!d.was_held());
        assert_eq!(out.len(), 1);
        assert_eq!(a.stats().sent, 1);
        assert_eq!(a.core().clock().get(0), 1);
    }

    /// Quiescent-sender stability: after the last data message, the
    /// tick-driven AckGossip path alone must advance the stability
    /// horizon to the delivered clock everywhere and let GC reclaim the
    /// buffered copies — a sender going quiet must not freeze the
    /// horizon (or buffer growth) for the rest of the group.
    #[test]
    fn quiescent_group_reaches_stability_via_tick_gossip() {
        let (mut a, mut b, mut c) = trio();
        let (_, out) = a.multicast(t(0), "last words");
        let data = data_of(&out);
        b.on_wire(t(1), data.clone());
        c.on_wire(t(1), data);
        // No further data traffic. Before any gossip nobody can know the
        // others delivered, so the message is unstable everywhere.
        assert!(a.core().stability_lag() > 0);
        assert_eq!(a.stats().buffered_now, 1);
        // Quiescent tick rounds: every endpoint gossips its delivered
        // clock; that alone must carry the horizon to the clocks.
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
            assert_eq!(
                ep.core().stability_lag(),
                0,
                "P{who}: horizon stuck at {:?} with clock {:?}",
                ep.core().stable_frontier(),
                ep.core().clock()
            );
        }
        // The buffered copy was reclaimed by stability GC.
        assert_eq!(a.stats().buffered_now, 0);
        assert_eq!(a.stats().stabilized, 1);
    }

    /// Regression: the stability-horizon lag must not under-report when
    /// the survivors' frontier runs ahead of an evicted-live node's clock
    /// in some component. Compared total-vs-total (with a saturating
    /// difference), the survivor's surplus cancelled the evicted node's
    /// real lag and the sampler reported zero while an unstable message
    /// still sat in its buffer.
    #[test]
    fn stability_lag_is_componentwise_after_eviction() {
        let cfg = GroupConfig::default();
        let mut b: CbcastEndpoint<&str> = CbcastEndpoint::new(1, 2, cfg);
        // b delivers three messages from a, then multicasts one of its
        // own: clock [3, 1].
        for seq in 1..=3u64 {
            let mut vt = VectorClock::new(2);
            vt.set(0, seq);
            let msg = DataMsg {
                id: MsgId { sender: 0, seq },
                vt_wire: VtWire::Full(vt.encode()),
                vt,
                payload: "m",
                retransmit: false,
                appended: Vec::new(),
            };
            b.on_wire(t(seq), Wire::Data(msg));
        }
        let _ = b.multicast(t(4), "mine");
        // a raced ahead to five own deliveries nobody else has seen...
        b.on_wire(
            t(5),
            Wire::AckGossip {
                from: 0,
                delivered: VectorClock::from_entries(vec![5, 0]),
            },
        );
        // ...and a view change evicts b while it is still running: the
        // frontier over the survivor's row is [5, 0] against b's [3, 1].
        let cut = VectorClock::from_entries(vec![5, 1]);
        b.on_view_install(t(6), 2, &[0], &cut);
        // b's own message is unstable and still buffered; the lag metric
        // must say so instead of letting a's surplus cancel it to zero.
        assert_eq!(b.stats().buffered_now, 1);
        assert_eq!(b.core().stability_lag(), 1);
    }

    #[test]
    fn in_order_arrival_delivers_immediately() {
        let (mut a, mut b, _) = trio();
        let (_, out) = a.multicast(t(0), "m1");
        let (dels, _) = b.on_wire(t(1), data_of(&out));
        assert_eq!(dels.len(), 1);
        assert_eq!(dels[0].payload, "m1");
        assert!(!dels[0].was_held());
    }

    #[test]
    fn causal_order_enforced_across_senders() {
        // a sends m1; b receives it then sends m2 (so m1 → m2);
        // c receives m2 FIRST — must hold it until m1 arrives.
        let (mut a, mut b, mut c) = trio();
        let (_, out1) = a.multicast(t(0), "m1");
        let m1 = data_of(&out1);
        b.on_wire(t(1), m1.clone());
        let (_, out2) = b.multicast(t(2), "m2");
        let m2 = data_of(&out2);

        let (dels, nacks) = c.on_wire(t(3), m2);
        assert!(dels.is_empty(), "m2 must be held until m1 delivered");
        assert_eq!(c.core().holdback_len(), 1);
        // c noticed m1 is missing and NACKed the referencing sender (b).
        assert!(nacks
            .iter()
            .any(|(d, w)| matches!(w, Wire::Nack { .. }) && *d == Dest::One(1)));

        let (dels, _) = c.on_wire(t(4), m1);
        let order: Vec<&str> = dels.iter().map(|d| d.payload).collect();
        assert_eq!(order, vec!["m1", "m2"], "causal order restored");
        assert!(dels[1].was_held());
        assert_eq!(dels[1].hold_time(), SimDuration::from_millis(1));
        assert_eq!(c.core().holdback_len(), 0);
    }

    #[test]
    fn concurrent_messages_deliver_in_arrival_order() {
        // a and b multicast concurrently; c may deliver in either arrival
        // order — neither is held.
        let (mut a, mut b, mut c) = trio();
        let (_, oa) = a.multicast(t(0), "ma");
        let (_, ob) = b.multicast(t(0), "mb");
        let (d1, _) = c.on_wire(t(1), data_of(&ob));
        let (d2, _) = c.on_wire(t(2), data_of(&oa));
        assert_eq!(d1.len(), 1);
        assert_eq!(d2.len(), 1);
        assert!(!d1[0].was_held() && !d2[0].was_held());
    }

    #[test]
    fn fifo_gap_from_same_sender_is_held() {
        let (mut a, mut b, _) = trio();
        let (_, o1) = a.multicast(t(0), "m1");
        let (_, o2) = a.multicast(t(1), "m2");
        // m2 overtakes m1.
        let (dels, _) = b.on_wire(t(2), data_of(&o2));
        assert!(dels.is_empty());
        let (dels, _) = b.on_wire(t(3), data_of(&o1));
        let order: Vec<&str> = dels.iter().map(|d| d.payload).collect();
        assert_eq!(order, vec!["m1", "m2"]);
    }

    #[test]
    fn duplicates_are_discarded() {
        let (mut a, mut b, _) = trio();
        let (_, out) = a.multicast(t(0), "m1");
        let m = data_of(&out);
        b.on_wire(t(1), m.clone());
        let (dels, _) = b.on_wire(t(2), m);
        assert!(dels.is_empty());
        assert_eq!(b.stats().duplicates, 1);
    }

    #[test]
    fn nack_recovery_roundtrip() {
        let (mut a, mut b, mut c) = trio();
        let (_, o1) = a.multicast(t(0), "m1");
        let m1 = data_of(&o1);
        b.on_wire(t(1), m1);
        let (_, o2) = b.multicast(t(2), "m2");
        // c gets m2 only; its immediate NACK goes to b.
        let (_, nacks) = c.on_wire(t(3), data_of(&o2));
        let nack = nacks
            .into_iter()
            .find(|(_, w)| matches!(w, Wire::Nack { .. }))
            .expect("nack emitted");
        // b serves the retransmission from its buffer (atomic delivery:
        // b buffered a's message).
        let (_, served) = b.on_wire(t(4), nack.1);
        let retrans = served
            .into_iter()
            .find(|(_, w)| matches!(w, Wire::Data(d) if d.retransmit))
            .expect("retransmit served");
        assert_eq!(b.stats().retransmits_served, 1);
        let (dels, _) = c.on_wire(t(5), retrans.1);
        assert_eq!(
            dels.iter().map(|d| d.payload).collect::<Vec<_>>(),
            vec!["m1", "m2"]
        );
    }

    /// Only a held message remembers that it was chased. A NACK-repaired
    /// stream leaves nothing chased once delivered, its dependent's wait
    /// still charged to the repair; a chased message that a view install
    /// purges leaves with the purge.
    #[test]
    fn chased_ids_leave_when_delivered_or_purged() {
        let (mut a, mut b, mut c) = trio();
        let (probe, rec) = simnet::obs::ProbeHandle::recorder(64);
        c.set_probe(probe);
        let (_, o1) = a.multicast(t(0), "m1");
        b.on_wire(t(1), data_of(&o1));
        let (_, o2) = b.multicast(t(2), "m2");
        let (_, nacks) = c.on_wire(t(3), data_of(&o2));
        let nack = nacks
            .into_iter()
            .find(|(_, w)| matches!(w, Wire::Nack { .. }))
            .expect("nack emitted");
        let (_, served) = b.on_wire(t(4), nack.1);
        let retrans = served
            .into_iter()
            .find(|(_, w)| matches!(w, Wire::Data(d) if d.retransmit))
            .expect("retransmit served");
        let (dels, _) = c.on_wire(t(5), retrans.1);
        assert_eq!(dels.len(), 2);
        assert!(c.core().windows.chases().is_empty());
        for id in [MsgId { sender: 0, seq: 1 }, MsgId { sender: 1, seq: 1 }] {
            assert!(c.core().windows.slot(id).is_none(), "{id}");
        }
        let m2 = span_of(MsgId { sender: 1, seq: 1 });
        let phases: Vec<LatencyPhase> = rec
            .borrow()
            .events(2)
            .iter()
            .filter_map(|e| match e {
                ObsEvent::Wait { span, phase, .. } if *span == m2 => Some(*phase),
                _ => None,
            })
            .collect();
        assert_eq!(phases, [LatencyPhase::Repair]);

        // c hears a's third message first and chases the two before it;
        // the second arrives and waits on the first, then a is removed
        // with nothing of it in the cut.
        let (mut a, _, mut c) = trio();
        let sent: Vec<_> = ["a1", "a2", "a3"]
            .into_iter()
            .map(|p| data_of(&a.multicast(t(0), p).1))
            .collect();
        c.on_wire(t(1), sent[2].clone());
        c.on_wire(t(2), sent[1].clone());
        let a2 = MsgId { sender: 0, seq: 2 };
        assert!(c.core().windows.arrived_chased(a2));
        c.on_view_install(t(3), 2, &[1, 2], &VectorClock::new(3));
        assert_eq!(c.core().holdback_len(), 0);
        assert!(c.core().windows.slot(a2).is_none());
        assert!(c.core().windows.chases().is_empty());
    }

    /// A parked delta that decodes to a timestamp the front door refuses
    /// is dropped, and so leaves the registered ids: the next mention of
    /// its gap chases it. Here the second message parks, the third's FIFO
    /// gap is registered past it, and the second decodes — to a clock far
    /// ahead — only once the first arrives.
    #[test]
    fn a_parked_timestamp_refused_on_decode_is_chased_again() {
        const FAR: u64 = 1 << 40;
        let clock = |e: &[u64]| VectorClock::from_entries(e.to_vec());
        let delta = |seq: u64, vt: &[u64], base: &[u64]| {
            let mut m = DataMsg::new(MsgId { sender: 0, seq }, clock(vt), "m");
            m.vt_wire = VtWire::Delta(m.vt.encode_delta(&clock(base)));
            Wire::Data(m)
        };
        let mut c: CbcastEndpoint<&str> = CbcastEndpoint::new(2, 3, GroupConfig::default());
        c.on_wire(t(1), delta(2, &[2, FAR, 0], &[1, 0, 0]));
        c.on_wire(t(2), delta(3, &[3, 0, 0], &[2, FAR, 0]));
        assert_eq!(c.parked_len(), 2);
        let first = DataMsg::new(MsgId { sender: 0, seq: 1 }, clock(&[1, 0, 0]), "m1");
        let (dels, _) = c.on_wire(t(3), Wire::Data(first));
        assert_eq!(dels.len(), 1);
        assert_eq!((c.parked_len(), c.stats().ts_decode_errors), (1, 1));
        let gossip = Wire::AckGossip {
            from: 0,
            delivered: clock(&[3, 0, 0]),
        };
        c.on_wire(t(4), gossip);
        let chased: Vec<_> = c
            .core()
            .windows
            .chases()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(chased, [MsgId { sender: 0, seq: 2 }]);
    }

    #[test]
    fn tick_renacks_overdue_missing() {
        let (mut a, mut b, mut c) = trio();
        let (_, o1) = a.multicast(t(0), "m1");
        b.on_wire(t(1), data_of(&o1));
        let (_, o2) = b.multicast(t(2), "m2");
        c.on_wire(t(3), data_of(&o2));
        // Before the timeout no re-NACK; after, one goes to everyone.
        let out = c.on_tick(t(3) + SimDuration::from_micros(1));
        assert!(
            !out.iter().any(|(_, w)| matches!(w, Wire::Nack { .. })),
            "too early to re-NACK"
        );
        let out = c.on_tick(t(3) + NACK_TIMEOUT);
        let renack = out
            .iter()
            .find(|(_, w)| matches!(w, Wire::Nack { .. }))
            .expect("re-NACK after timeout");
        assert_eq!(renack.0, Dest::All);
    }

    #[test]
    fn stability_garbage_collects_buffers() {
        let (mut a, mut b, mut c) = trio();
        let (_, out) = a.multicast(t(0), "m1");
        let m = data_of(&out);
        b.on_wire(t(1), m.clone());
        c.on_wire(t(1), m);
        assert_eq!(a.buffered_len(), 1);
        // Everyone gossips; a learns the message is stable and drops it.
        let gb = Wire::AckGossip {
            from: 1,
            delivered: b.core().clock().clone(),
        };
        let gc = Wire::AckGossip {
            from: 2,
            delivered: c.core().clock().clone(),
        };
        a.on_wire(t(2), gb);
        assert_eq!(a.buffered_len(), 1, "not yet known stable");
        a.on_wire(t(3), gc);
        assert_eq!(a.buffered_len(), 0, "stable message GC'd");
        assert_eq!(a.stats().stabilized, 1);
    }

    #[test]
    fn receivers_buffer_messages_for_peers() {
        // Atomic delivery: b buffers a's message and can serve c.
        let (mut a, mut b, _) = trio();
        let (_, out) = a.multicast(t(0), "m1");
        b.on_wire(t(1), data_of(&out));
        assert_eq!(b.buffered_len(), 1);
        let _ = a;
    }

    #[test]
    fn transitive_causality_three_hops() {
        // m1 at a → m2 at b → m3 at c; a fresh observer receiving only m3
        // must wait for both predecessors.
        let cfg = GroupConfig::default();
        let mut a = CbcastEndpoint::new(0, 4, cfg.clone());
        let mut b = CbcastEndpoint::new(1, 4, cfg.clone());
        let mut c = CbcastEndpoint::new(2, 4, cfg.clone());
        let mut d = CbcastEndpoint::new(3, 4, cfg);

        let (_, o1) = a.multicast(t(0), "m1");
        b.on_wire(t(1), data_of(&o1));
        let (_, o2) = b.multicast(t(2), "m2");
        c.on_wire(t(3), data_of(&o1));
        c.on_wire(t(3), data_of(&o2));
        let (_, o3) = c.multicast(t(4), "m3");

        let (dels, _) = d.on_wire(t(5), data_of(&o3));
        assert!(dels.is_empty());
        let (dels, _) = d.on_wire(t(6), data_of(&o2));
        assert!(dels.is_empty());
        let (dels, _) = d.on_wire(t(7), data_of(&o1));
        assert_eq!(
            dels.iter().map(|x| x.payload).collect::<Vec<_>>(),
            vec!["m1", "m2", "m3"]
        );
        // The waited_for metadata names the direct predecessors.
        assert!(dels[2].waited_for.contains(&MsgId { sender: 1, seq: 1 }));
    }

    #[test]
    fn appended_predecessors_avoid_holdback() {
        // §3.4 footnote 4: with predecessors appended, a receiver that
        // missed m1 can still deliver m2 immediately.
        let cfg = GroupConfig {
            append_predecessors: true,
            ..GroupConfig::default()
        };
        let mut a = CbcastEndpoint::new(0, 3, cfg.clone());
        let mut b = CbcastEndpoint::new(1, 3, cfg.clone());
        let mut c = CbcastEndpoint::new(2, 3, cfg);
        let (_, o1) = a.multicast(t(0), "m1");
        b.on_wire(t(1), data_of(&o1));
        let (_, o2) = b.multicast(t(2), "m2");
        // c never saw m1; m2 carries it along.
        let (dels, _) = c.on_wire(t(3), data_of(&o2));
        assert_eq!(
            dels.iter().map(|d| d.payload).collect::<Vec<_>>(),
            vec!["m1", "m2"],
            "both deliver at once — no holdback, no NACK round trip"
        );
        assert!(!dels[1].was_held());
        // The cost: the wire message was bigger.
        let plain = Wire::Data(DataMsg::new(
            MsgId { sender: 1, seq: 1 },
            VectorClock::new(3),
            "x",
        ));
        assert!(data_of(&o2).overhead_bytes() > plain.overhead_bytes());
    }

    #[test]
    #[should_panic(expected = "member index out of range")]
    fn rejects_bad_member_index() {
        let _ = CbcastEndpoint::<()>::new(3, 3, GroupConfig::default());
    }

    #[test]
    fn nacked_predecessor_dependent_delivers_exactly_once() {
        // m1 → m2; the observer gets m2 first, recovers m1 via NACK
        // retransmission, and then the ORIGINAL m1 arrives late. m1 must
        // be deduplicated and m2 must not be re-delivered.
        let (mut a, mut b, mut c) = trio();
        let (_, o1) = a.multicast(t(0), "m1");
        let m1 = data_of(&o1);
        b.on_wire(t(1), m1.clone());
        let (_, o2) = b.multicast(t(2), "m2");

        let (dels, nacks) = c.on_wire(t(3), data_of(&o2));
        assert!(dels.is_empty());
        let nack = nacks
            .into_iter()
            .find(|(_, w)| matches!(w, Wire::Nack { .. }))
            .expect("nack emitted");
        let (_, served) = b.on_wire(t(4), nack.1);
        let retrans = served
            .into_iter()
            .find(|(_, w)| matches!(w, Wire::Data(d) if d.retransmit))
            .expect("retransmit served");
        let (dels, _) = c.on_wire(t(5), retrans.1);
        assert_eq!(
            dels.iter().map(|d| d.payload).collect::<Vec<_>>(),
            vec!["m1", "m2"]
        );
        // The slow original finally shows up: a pure duplicate.
        let (dels, _) = c.on_wire(t(6), m1);
        assert!(dels.is_empty(), "late original must not re-deliver");
        assert_eq!(c.stats().duplicates, 1);
        assert_eq!(c.stats().delivered, 2);
        assert_eq!(c.core().holdback_len(), 0);
    }

    #[test]
    fn parked_delta_dependent_delivers_exactly_once() {
        // Same exactly-once property through the delta-timestamp path: a
        // delta-stamped message arriving ahead of its decode base parks,
        // the FIFO-gap NACK brings a full-encoded retransmission, and the
        // late original is recognized as a duplicate.
        let cfg = GroupConfig {
            delta_timestamps: true,
            ..GroupConfig::default()
        };
        let mut a = CbcastEndpoint::new(0, 3, cfg.clone());
        let mut c = CbcastEndpoint::new(2, 3, cfg);
        let (_, o1) = a.multicast(t(0), "m1");
        let (_, o2) = a.multicast(t(1), "m2");
        let m1 = data_of(&o1);
        let m2 = data_of(&o2);
        assert!(
            matches!(&m2, Wire::Data(d) if matches!(d.vt_wire, VtWire::Delta(_))),
            "second message should ride a delta timestamp"
        );

        // m2 overtakes m1: undecodable, parked, FIFO gap NACKed.
        let (dels, nacks) = c.on_wire(t(2), m2);
        assert!(dels.is_empty());
        assert_eq!(c.parked_len(), 1);
        let nack = nacks
            .into_iter()
            .find(|(_, w)| matches!(w, Wire::Nack { .. }))
            .expect("fifo gap nacked");
        let (_, served) = a.on_wire(t(3), nack.1);
        let retrans = served
            .into_iter()
            .find(|(_, w)| matches!(w, Wire::Data(d) if d.retransmit))
            .expect("retransmit served");
        assert!(
            matches!(&retrans.1, Wire::Data(d) if matches!(d.vt_wire, VtWire::Full(_))),
            "retransmissions fall back to full encoding"
        );

        // The retransmitted base advances the decode chain and the parked
        // delta drains behind it.
        let (dels, _) = c.on_wire(t(4), retrans.1);
        assert_eq!(
            dels.iter().map(|d| d.payload).collect::<Vec<_>>(),
            vec!["m1", "m2"]
        );
        assert_eq!(c.parked_len(), 0);

        // Late original m1: its seq is behind the decode chain.
        let (dels, _) = c.on_wire(t(5), m1);
        assert!(dels.is_empty(), "late original must not re-deliver");
        assert_eq!(c.stats().duplicates, 1);
        assert_eq!(c.stats().delivered, 2);
    }

    #[test]
    fn view_install_reseeds_delta_chains() {
        // S3 regression: the decode chain was seeded once at creation and
        // never reset at view installs. Installing a view must invalidate
        // every chain; the first post-install send travels full-encoded to
        // re-seed receivers, after which deltas chain on correctly.
        let cfg = GroupConfig {
            delta_timestamps: true,
            ..GroupConfig::default()
        };
        let mut a = CbcastEndpoint::new(0, 3, cfg.clone());
        let mut c = CbcastEndpoint::new(2, 3, cfg);
        let (_, o1) = a.multicast(t(0), "m1");
        c.on_wire(t(1), data_of(&o1));
        let cut = c.core().clock().clone();
        a.on_view_install(t(1), 2, &[0, 2], &cut);
        c.on_view_install(t(1), 2, &[0, 2], &cut);
        // First post-install send re-seeds: full encoding even though
        // delta timestamps are on.
        let (_, o2) = a.multicast(t(2), "m2");
        assert!(
            matches!(&data_of(&o2), Wire::Data(d) if matches!(d.vt_wire, VtWire::Full(_))),
            "first post-install message must be full-encoded"
        );
        let (dels, _) = c.on_wire(t(3), data_of(&o2));
        assert_eq!(dels.iter().map(|d| d.payload).collect::<Vec<_>>(), ["m2"]);
        // Back to deltas, decoding against the re-seeded base.
        let (_, o3) = a.multicast(t(4), "m3");
        assert!(matches!(&data_of(&o3), Wire::Data(d) if matches!(d.vt_wire, VtWire::Delta(_))));
        let (dels, _) = c.on_wire(t(5), data_of(&o3));
        assert_eq!(dels.iter().map(|d| d.payload).collect::<Vec<_>>(), ["m3"]);
        assert_eq!(c.stats().ts_decode_errors, 0);
    }

    #[test]
    fn post_view_delta_against_stale_base_is_parked_and_recovered() {
        // S3 regression, receiver side: a delta that crosses the view
        // boundary (its sender has not re-seeded yet) must not decode
        // against the stale base — it parks and comes back full via NACK.
        let cfg = GroupConfig {
            delta_timestamps: true,
            ..GroupConfig::default()
        };
        let mut a = CbcastEndpoint::new(0, 3, cfg.clone());
        let mut c = CbcastEndpoint::new(2, 3, cfg);
        let (_, o1) = a.multicast(t(0), "m1");
        c.on_wire(t(1), data_of(&o1));
        let cut = c.core().clock().clone();
        c.on_view_install(t(1), 2, &[0, 2], &cut); // only the receiver installed
        let (_, o2) = a.multicast(t(2), "m2"); // delta against m1's vt
        assert!(matches!(&data_of(&o2), Wire::Data(d) if matches!(d.vt_wire, VtWire::Delta(_))));
        let (dels, nacks) = c.on_wire(t(3), data_of(&o2));
        assert!(dels.is_empty(), "stale-base delta must not decode");
        assert_eq!(c.parked_len(), 1);
        assert_eq!(c.stats().ts_decode_errors, 0, "parked, not mis-decoded");
        let nack = nacks
            .into_iter()
            .find(|(_, w)| matches!(w, Wire::Nack { .. }))
            .expect("chain gap nacked");
        let (_, served) = a.on_wire(t(4), nack.1);
        let retrans = served
            .into_iter()
            .find(|(_, w)| matches!(w, Wire::Data(d) if d.retransmit))
            .expect("retransmit served");
        let (dels, _) = c.on_wire(t(5), retrans.1);
        assert_eq!(dels.iter().map(|d| d.payload).collect::<Vec<_>>(), ["m2"]);
        assert_eq!(c.parked_len(), 0);
    }

    #[test]
    fn freeze_defers_delivery_until_install() {
        let (mut a, mut b, _) = trio();
        let (_, o1) = a.multicast(t(0), "m1");
        b.core_mut().freeze(t(0));
        let (dels, _) = b.on_wire(t(1), data_of(&o1));
        assert!(dels.is_empty(), "nothing delivers during the blackout");
        assert!(b.core().is_frozen());
        assert_eq!(b.core().holdback_len(), 1);
        assert_eq!(
            b.core().clock().get(0),
            0,
            "flush clock unchanged while frozen"
        );
        // The install (same membership) leaves the freeze alone; the thaw
        // drains in causal order.
        let cut = a.core().clock().clone();
        b.on_view_install(t(2), 2, &[0, 1, 2], &cut);
        assert!(b.core().is_frozen());
        let (dels, _) = b.thaw(t(2));
        assert_eq!(dels.iter().map(|d| d.payload).collect::<Vec<_>>(), ["m1"]);
        assert!(!b.core().is_frozen());
        assert_eq!(b.core().clock().get(0), 1);
    }

    #[test]
    fn freeze_protects_the_cut_across_removal() {
        // Without the blackout, b would deliver m2 after promising the
        // coordinator a clock of 1 — running past the agreed cut, the
        // exact virtual-synchrony violation the campaigns check for.
        let (mut a, mut b, _) = trio();
        let (_, o1) = a.multicast(t(0), "m1");
        let (_, o2) = a.multicast(t(1), "m2");
        b.on_wire(t(2), data_of(&o1));
        b.core_mut().freeze(t(2)); // flush begins; b's FlushOk carries clock[0] = 1
        let (dels, _) = b.on_wire(t(3), data_of(&o2));
        assert!(dels.is_empty(), "m2 must not deliver during the blackout");
        let cut = b.core().clock().clone();
        b.on_view_install(t(4), 2, &[1, 2], &cut);
        let (dels, _) = b.thaw(t(4));
        assert!(dels.is_empty(), "beyond-cut m2 was purged, not delivered");
        assert_eq!(b.core().clock().get(0), 1);
        assert_eq!(b.core().holdback_len(), 0);
    }

    #[test]
    fn removed_sender_beyond_cut_is_rejected() {
        let (mut a, _, mut c) = trio();
        let (_, o1) = a.multicast(t(0), "m1");
        let (_, o2) = a.multicast(t(1), "m2");
        c.on_wire(t(2), data_of(&o1));
        // A view change removes member 0 with cut = c's clock: m1 is part
        // of the old view's history, m2 is not.
        let cut = c.core().clock().clone();
        c.on_view_install(t(2), 2, &[1, 2], &cut);
        let (dels, _) = c.on_wire(t(3), data_of(&o2));
        assert!(dels.is_empty(), "beyond-cut message from removed sender");
        assert_eq!(c.stats().rejected_removed, 1);
        assert_eq!(c.core().holdback_len(), 0);
    }

    #[test]
    fn removed_sender_below_cut_is_chased_and_delivered() {
        // The cut promises m1 was delivered somewhere; a survivor that
        // missed it must chase and deliver it even though its sender is
        // gone — that is what makes the cut an agreed history.
        let (mut a, mut b, mut c) = trio();
        let (_, o1) = a.multicast(t(0), "m1");
        b.on_wire(t(1), data_of(&o1));
        let cut = b.core().clock().clone();
        b.on_view_install(t(1), 2, &[1, 2], &cut);
        c.on_view_install(t(1), 2, &[1, 2], &cut);
        let out = c.on_tick(t(2));
        let nack = out
            .into_iter()
            .find(|(_, w)| matches!(w, Wire::Nack { .. }))
            .expect("install registered the below-cut gap as missing");
        let (_, served) = b.on_wire(t(3), nack.1);
        let retrans = served
            .into_iter()
            .find(|(_, w)| matches!(w, Wire::Data(d) if d.retransmit))
            .expect("survivor serves from its buffer");
        let (dels, _) = c.on_wire(t(4), retrans.1);
        assert_eq!(dels.iter().map(|d| d.payload).collect::<Vec<_>>(), ["m1"]);
    }

    #[test]
    fn probe_records_full_span_lifecycle() {
        use simnet::obs::Stage;
        // m1 → m2; c gets m2 first, so m2's span passes through every
        // stage: wire, holdback-enter, deliverable, delivered.
        let (mut a, mut b, mut c) = trio();
        let (probe, rec) = simnet::obs::ProbeHandle::recorder(64);
        c.set_probe(probe);
        let (_, o1) = a.multicast(t(0), "m1");
        b.on_wire(t(1), data_of(&o1));
        let (_, o2) = b.multicast(t(2), "m2");
        c.on_wire(t(3), data_of(&o2));
        c.on_wire(t(4), data_of(&o1));
        let rec = rec.borrow();
        let stages: Vec<(String, Stage)> = rec
            .events(2)
            .iter()
            .filter_map(|e| match e {
                simnet::obs::ObsEvent::Span { span, stage, .. } => Some((span.to_string(), *stage)),
                _ => None,
            })
            .collect();
        let m2 = MsgId { sender: 1, seq: 1 };
        let m2_stages: Vec<Stage> = stages
            .iter()
            .filter(|(s, _)| *s == span_of(m2).to_string())
            .map(|(_, st)| *st)
            .collect();
        assert_eq!(
            m2_stages,
            vec![
                Stage::Wire { retransmit: false },
                Stage::HoldbackEnter,
                Stage::Deliverable,
                Stage::Delivered
            ]
        );
        // The holdback-enter note names the exact missing predecessor.
        let enter_note = rec
            .events(2)
            .iter()
            .find_map(|e| match e {
                simnet::obs::ObsEvent::Span {
                    stage: Stage::HoldbackEnter,
                    note,
                    ..
                } => Some(note.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(enter_note, "waiting on m0.1");
    }

    #[test]
    fn wait_records_name_the_missing_predecessor() {
        for indexed in [false, true] {
            let cfg = GroupConfig {
                indexed_holdback: indexed,
                ..GroupConfig::default()
            };
            let mut a = CbcastEndpoint::new(0, 3, cfg.clone());
            let mut b = CbcastEndpoint::new(1, 3, cfg.clone());
            let mut c = CbcastEndpoint::new(2, 3, cfg);
            let (_, o1) = a.multicast(t(0), "m1");
            b.on_wire(t(1), data_of(&o1));
            let (_, o2) = b.multicast(t(2), "m2");
            c.on_wire(t(3), data_of(&o2));
            // m0.1 is being chased via NACK from b, who referenced it.
            let chased = WaitReason::Chased { referenced_by: 1 };
            let want = WaitRecord {
                blocked: WaitNode::Msg(MsgId { sender: 1, seq: 1 }),
                who: 2,
                since: t(3),
                slot: None,
                waits: vec![(WaitNode::Msg(MsgId { sender: 0, seq: 1 }), chased)],
            };
            for every_gap in [false, true] {
                let mut records = Vec::new();
                c.wait_records(every_gap, &mut |r| records.push(r.clone()));
                assert_eq!(records, std::slice::from_ref(&want), "indexed={indexed}");
            }
        }
    }

    #[test]
    fn probed_run_observes_identical_protocol_state() {
        // Determinism guarantee: attaching a recorder must not change
        // stats, clocks, or holdback work — only observe them.
        let run = |probed: bool| {
            let (mut a, mut b, mut c) = trio();
            if probed {
                let (probe, _rec) = simnet::obs::ProbeHandle::recorder(128);
                c.set_probe(probe);
            }
            let (_, o1) = a.multicast(t(0), "m1");
            b.on_wire(t(1), data_of(&o1));
            let (_, o2) = b.multicast(t(2), "m2");
            c.on_wire(t(3), data_of(&o2));
            c.wait_records(true, &mut |_| {});
            c.on_wire(t(4), data_of(&o1));
            (
                c.core().clock().clone(),
                c.stats().delivered,
                c.stats().holdback_work,
                c.stats().nacks_sent,
            )
        };
        assert_eq!(run(false), run(true));
    }

    /// Deterministic Fisher-Yates driven by a 64-bit LCG, so the proptest
    /// permutation reproduces from its generated seed.
    fn shuffle_with_seed<T>(v: &mut [T], mut s: u64) {
        for i in (1..v.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = ((s >> 33) as usize) % (i + 1);
            v.swap(i, j);
        }
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;
        use std::collections::{HashMap, VecDeque};

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            /// The indexed holdback is a pure data-structure swap: for any
            /// causal workload and any arrival permutation, scan and
            /// indexed observers deliver the same messages in the same
            /// order — and deliver all of them.
            #[test]
            fn scan_and_indexed_holdback_agree(
                script in collection::vec((0usize..3, bool::ANY), 1..32),
                seed in 0u64..u64::MAX,
                delta in bool::ANY,
            ) {
                let sender_cfg = GroupConfig {
                    delta_timestamps: delta,
                    ..GroupConfig::default()
                };
                let mut senders: Vec<CbcastEndpoint<usize>> = (0..3)
                    .map(|i| CbcastEndpoint::new(i, 4, sender_cfg.clone()))
                    .collect();
                // `relay == false` steps withhold the message from the
                // other senders, making later messages concurrent with it.
                let mut wires = Vec::new();
                for (step, &(s, relay)) in script.iter().enumerate() {
                    let (_, out) = senders[s].multicast(t(step as u64), step);
                    let w = data_of(&out);
                    if relay {
                        for (r, other) in senders.iter_mut().enumerate() {
                            if r != s {
                                other.on_wire(t(step as u64), w.clone());
                            }
                        }
                    }
                    wires.push(w);
                }
                // Retransmission store: delta mode leans on NACK recovery
                // (a full encoding that jumps the decode chain drops the
                // parked deltas behind it), so an observer is only
                // complete with a served NACK channel.
                let mut store = HashMap::new();
                for w in &wires {
                    if let Wire::Data(d) = w {
                        store.insert(d.id, d.clone());
                    }
                }
                shuffle_with_seed(&mut wires, seed);

                let run = |indexed: bool| {
                    let mut obs = CbcastEndpoint::<usize>::new(3, 4, GroupConfig {
                        indexed_holdback: indexed,
                        delta_timestamps: delta,
                        ..GroupConfig::default()
                    });
                    let mut delivered = Vec::new();
                    let mut inbox: VecDeque<Wire<usize>> = wires.iter().cloned().collect();
                    let mut at = 100u64;
                    while let Some(w) = inbox.pop_front() {
                        let (ds, outs) = obs.on_wire(t(at), w);
                        at += 1;
                        delivered.extend(ds.into_iter().map(|d| d.id));
                        for (_, ow) in outs {
                            if let Wire::Nack { want, .. } = ow {
                                for id in want {
                                    let mut copy = store[&id].clone();
                                    copy.retransmit = true;
                                    copy.make_full();
                                    inbox.push_back(Wire::Data(copy));
                                }
                            }
                        }
                    }
                    delivered
                };
                let by_scan = run(false);
                let by_indexed = run(true);
                prop_assert_eq!(&by_scan, &by_indexed, "identical delivery order");
                prop_assert_eq!(
                    by_scan.len(),
                    script.len(),
                    "observer received every message, so all must deliver"
                );
            }
        }
    }
}
