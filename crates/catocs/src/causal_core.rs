//! The reliability shell both causal disciplines share.
//!
//! The paper's §3.4/§5 charge CATOCS for one bundle of machinery: buffer
//! every message until it is *stable* (known delivered everywhere), chase
//! the missing ones via NACK, gossip delivered clocks to find the stable
//! frontier, and freeze delivery across a view-change flush. `cbcast` and
//! `pccast` differ only in how they decide a message is deliverable —
//! vector timestamps against a holdback queue, or arrival order on FIFO
//! overlay links — so everything around that decision lives here, once.
//!
//! Each endpoint embeds a [`CausalCore`] by value and drives it; the core
//! never asks which discipline it serves: what a member knows of a message
//! it has not delivered — chased, parked awaiting a decode base (cbcast),
//! held — is one slot of its sender's window (`window`).

use crate::group::{GroupConfig, MsgId, NACK_TIMEOUT};
use crate::holdback::{HoldbackQueue, Pending};
use crate::stability::StabilityTracker;
use crate::waitgraph::{WaitNode, WaitReason, WaitRecord};
use crate::wire::{DataMsg, Delivery, Dest, EndpointStats, Out, Refusal, Wire};
use clocks::vector::VectorClock;
use simnet::obs::{LatencyPhase, ObsEvent, PhaseEdge, PhaseKind, ProbeHandle, SpanId, Stage};
use simnet::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::ops::RangeInclusive;
pub(crate) use window::Slot;
use window::{Chase, SenderWindows};

mod window;

/// Furthest a timestamp, a sequence number or a gossiped clock may run
/// ahead of the local delivered clock and still be believed. Every
/// message a clock references beyond what was delivered here takes a
/// slot of its sender's window to be chased, one slot a message, so a
/// hostile (or corrupt) component like `1 << 40` passes every structural
/// check and then demands slots until memory runs out — the NACK batch
/// cap bounds the NACK, not the window. A member this far behind its group
/// is not going to catch up by NACK; no run this codebase makes leaves
/// one more than a few thousand messages behind. (The same argument for
/// a decoded clock's *width* is [`VectorClock::MAX_DELTA_WIDTH`].)
pub(crate) const MAX_CHASE_AHEAD: u64 = 1 << 20;

/// How many members a NACK round asks for one overdue id. Each one asked
/// that holds it answers with a full-stamped copy, 8N + 4 bytes of stamp
/// alone, so asking the whole group repairs one loss with up to N − 1
/// copies; one member alone is too few in a loss burst, where the one
/// NACK or the one answer is lost as often as not.
pub(crate) const RETRY_FANOUT: usize = 4;

/// Nominal application payload size, bytes: what every buffered message
/// is charged on top of its wire state in the buffered-bytes gauges.
pub(crate) const PAYLOAD_BYTES: usize = 256;

/// Longest a member stays silent about a delivered clock that has not
/// moved: 10 ticks at the default `tick_interval`, and vsync's
/// `SUSPECT_AFTER`. It repeats a lost final gossip, which nothing else
/// would: without it a peer that missed the last clock of a quiet member
/// never sees its buffer become stable.
pub(crate) const GOSSIP_KEEP_ALIVE: SimDuration = SimDuration::from_millis(100);

/// The one gossip rule of every discipline that gossips its delivered
/// clock (cbcast and pccast through [`CausalCore::gossip`], fbcast's
/// tick): a tick sends `AckGossip` when the clock differs from the last
/// one this member gossiped, or when [`GOSSIP_KEEP_ALIVE`] has passed
/// since then. Anything else repeats what the peers already hold.
#[derive(Debug, Default)]
pub(crate) struct Gossip {
    /// When this member last gossiped, and what.
    last: Option<(SimTime, VectorClock)>,
}

impl Gossip {
    /// A tick's gossip of `delivered` from member `me`, if it is due.
    pub(crate) fn tick<P>(
        &mut self,
        now: SimTime,
        me: usize,
        delivered: VectorClock,
        stats: &mut EndpointStats,
        out: &mut Vec<Out<P>>,
    ) {
        if let Some((at, last)) = &self.last {
            if *last == delivered && now.saturating_since(*at) < GOSSIP_KEEP_ALIVE {
                return;
            }
        }
        self.last = Some((now, delivered.clone()));
        stats.acks_sent += 1;
        out.push((
            Dest::All,
            Wire::AckGossip {
                from: me,
                delivered,
            },
        ));
    }

    /// Forgets the last gossip, so the next tick gossips: an install
    /// changes who the peers are and what they must hear.
    pub(crate) fn reset(&mut self) {
        self.last = None;
    }
}

/// Whether one lagging component `(k, have, claimed)` is past that bound.
fn out_of_reach(&(_, have, claimed): &(usize, u64, u64)) -> bool {
    claimed - have > MAX_CHASE_AHEAD
}

/// The observability span for a message: its id, viewed group-wide.
pub(crate) fn span_of(id: MsgId) -> SpanId {
    SpanId {
        origin: id.sender,
        seq: id.seq,
    }
}

/// The span event of `msg` coming off the wire at member `who`, in every
/// discipline.
pub(crate) fn arrival<P>(now: SimTime, who: usize, msg: &DataMsg<P>) -> ObsEvent {
    let retransmit = msg.retransmit;
    let note = if retransmit { "retransmit" } else { "" };
    ObsEvent::Span {
        at: now,
        who,
        span: span_of(msg.id),
        stage: Stage::Wire { retransmit },
        note: note.to_string(),
    }
}

/// What `msg`'s timestamp references beyond the clock `have`: ascending
/// `(k, have[k], need)` for each member `k < n` whose message `need` —
/// the highest the timestamp says precedes `msg` — is past `have[k]`.
/// For the sender's own slot `need` is the FIFO predecessor `id.seq - 1`
/// whatever the carried component says, and it takes its place in the
/// ascending order: that order decides which ids fit under the NACK
/// batch cap and in what order waiters register.
pub(crate) fn lagging_refs<'a, P>(
    msg: &'a DataMsg<P>,
    have: &'a VectorClock,
    n: usize,
) -> impl Iterator<Item = (usize, u64, u64)> + 'a {
    let sender = msg.id.sender;
    let mut own = Some((sender, have.get(sender), msg.id.seq.saturating_sub(1)))
        .filter(|&(k, have, need)| k < n && need > have);
    let mut others = have
        .lagging(&msg.vt)
        .filter(move |&(k, ..)| k != sender)
        .take_while(move |&(k, ..)| k < n)
        .peekable();
    std::iter::from_fn(move || {
        if own.is_some() && others.peek().is_none_or(|&(k, ..)| k > sender) {
            own.take()
        } else {
            others.next()
        }
    })
}

/// State and behaviour common to [`crate::cbcast::CbcastEndpoint`] and
/// [`crate::pccast::PccastEndpoint`]: the delivered clock, the holdback
/// queue, the per-sender windows (the unstable buffer and what is known of
/// every undelivered message), stability and GC, the NACK machinery, view
/// membership with the flush cut, and the delivery freeze.
#[derive(Debug)]
pub struct CausalCore<P> {
    pub(crate) me: usize,
    pub(crate) n: usize,
    pub(crate) cfg: GroupConfig,
    /// Delivered clock: `vt[k]` = number of messages from `k` delivered
    /// here (own sends count as delivered-at-send).
    pub(crate) vt: VectorClock,
    /// Messages received with a full timestamp but not yet causally
    /// deliverable (which ids it holds is asked of `windows`).
    pub(crate) holdback: HoldbackQueue<P>,
    /// One window a sender: the unstable messages delivered here, kept for
    /// retransmission, and a slot for each message known of but not.
    pub(crate) windows: SenderWindows<P>,
    /// Group-wide delivery knowledge (matrix clock) and GC frontier.
    pub(crate) stability: StabilityTracker,
    /// Which senders are members of the current view. Removed senders'
    /// messages are accepted only up to the flush cut.
    pub(crate) alive: Vec<bool>,
    /// Merged flush cut over all installed views: for a removed sender
    /// `s`, messages with `seq <= cut[s]` are part of the old view's
    /// agreed history and still deliverable; beyond it they are rejected.
    pub(crate) cut: VectorClock,
    /// Delivery blackout: while a flush is in progress (between sending
    /// our `FlushOk` clock and the install that ends the flush) nothing
    /// may be delivered, or this member could run past the clock it
    /// promised the coordinator and deliver a removed sender's message
    /// beyond the agreed cut. Incoming messages still accumulate; the
    /// endpoint's `thaw` drains them. Held waits that end at the thaw
    /// are split at the instant the freeze began, kept here: a
    /// classified wait before it, a flush-barrier wait after.
    frozen: Option<SimTime>,
    /// Set for the duration of the thaw-time drain: the freeze instant
    /// the just-ended flush began at.
    thaw_drain: Option<SimTime>,
    /// Observability sink. Disabled by default; emissions are read-only
    /// with respect to protocol state, so a probed run is byte-identical
    /// to an unprobed one.
    pub(crate) probe: ProbeHandle,
    pub(crate) stats: EndpointStats,
    /// What one buffered message is charged in the buffered-bytes gauge:
    /// payload plus the discipline's per-message wire state.
    buffered_msg_bytes: u64,
    /// When the tick gossips the delivered clock.
    gossip: Gossip,
}

impl<P: Clone> CausalCore<P> {
    /// The shell for member `me` of a group of `n`; `wire_state_bytes` is
    /// the per-message ordering state the discipline keeps on the wire.
    pub(crate) fn new(me: usize, n: usize, cfg: GroupConfig, wire_state_bytes: usize) -> Self {
        assert!(me < n, "member index out of range");
        CausalCore {
            me,
            n,
            vt: VectorClock::new(n),
            holdback: HoldbackQueue::new(cfg.indexed_holdback, n),
            windows: SenderWindows::new(n),
            stability: StabilityTracker::new(n),
            alive: vec![true; n],
            cut: VectorClock::new(n),
            frozen: None,
            thaw_drain: None,
            probe: ProbeHandle::none(),
            stats: EndpointStats::default(),
            buffered_msg_bytes: (PAYLOAD_BYTES + wire_state_bytes) as u64,
            gossip: Gossip::default(),
            cfg,
        }
    }

    /// Installs an observability probe. Span and phase events flow to it
    /// from every delivery-path method; with the default (disabled)
    /// handle nothing is even formatted.
    pub fn set_probe(&mut self, probe: ProbeHandle) {
        self.probe = probe;
    }

    /// Enters a flush. Returns every unstable buffered message for
    /// retransmission to the whole group with full timestamps (each
    /// survivor pushes what it has so the new view starts from a common
    /// message set), and suspends all delivery until `thaw`: this
    /// member's `FlushOk` clock must stay an upper bound on what it has
    /// delivered until the cut is agreed. Receiving, buffering and NACK
    /// recovery continue.
    pub(crate) fn freeze(&mut self, now: SimTime) -> Vec<Out<P>> {
        let mut out = Vec::new();
        for m in self.windows.values_mut() {
            out.push((Dest::All, Wire::Data(m.repair_copy())));
        }
        self.stats.book(self.me, &out);
        if self.frozen.is_none() {
            self.frozen = Some(now);
            self.probe.emit_phase(|| ObsEvent::Phase {
                at: now,
                who: self.me,
                kind: PhaseKind::Flush,
                edge: PhaseEdge::Begin,
                note: format!("{} unstable buffered", self.windows.len()),
            });
        }
        out
    }

    /// Whether delivery is currently frozen by a flush in progress.
    pub(crate) fn is_frozen(&self) -> bool {
        self.frozen.is_some()
    }

    /// The delivered vector clock.
    pub(crate) fn clock(&self) -> &VectorClock {
        &self.vt
    }

    /// Endpoint statistics.
    pub fn stats(&self) -> &EndpointStats {
        &self.stats
    }

    /// The stability tracker (for experiments that inspect frontiers).
    pub fn stability(&self) -> &StabilityTracker {
        &self.stability
    }

    /// Number of unstable messages currently buffered.
    pub(crate) fn buffered_len(&self) -> usize {
        self.windows.len()
    }

    /// Current holdback-queue length.
    pub fn holdback_len(&self) -> usize {
        self.holdback.len()
    }

    /// The current group-wide stable frontier (for instrumentation).
    pub(crate) fn stable_frontier(&self) -> VectorClock {
        self.stability.stable_frontier()
    }

    /// How far this endpoint's delivered clock runs ahead of the
    /// group-wide stable frontier, in messages — the §5 stability-horizon
    /// lag. Every unit of lag is a message that must stay buffered for
    /// possible retransmission.
    ///
    /// Summed componentwise, not total-vs-total: after an eviction the
    /// surviving members' frontier can run *ahead* of an evicted-live
    /// node's clock in some components, and a saturating difference of
    /// totals would let that surplus cancel real lag in others, reporting
    /// zero while unstable messages still sit in the buffer.
    pub(crate) fn stability_lag(&self) -> u64 {
        self.stability
            .stable_frontier()
            .lagging(&self.vt)
            .map(|(_, stable, delivered)| delivered - stable)
            .sum()
    }

    /// The one walk over the holdback queue (contract in
    /// [`crate::waitgraph`]): per held message, the undelivered causal
    /// predecessors it waits on and why each is absent — the first gap of
    /// every lagging sender, or with `every_gap` all of them — then the
    /// flush freeze, if delivery is frozen (the flush itself is linked
    /// onward by the membership layer). In id order: the indexed
    /// holdback iterates in hash order.
    pub(crate) fn wait_records(&self, every_gap: bool, emit: &mut dyn FnMut(&WaitRecord)) {
        let mut pending: Vec<_> = self.holdback.pending().collect();
        pending.sort_unstable_by_key(|p| p.msg.id);
        // The gaps of lagging sender `k` run up from `vt[k] + 1` whichever
        // held message references them: each is classified once a walk,
        // the first time a message reaches that far.
        let mut gaps: BTreeMap<usize, Vec<(WaitNode, WaitReason)>> = BTreeMap::new();
        let mut waits = Vec::new();
        for p in pending {
            for (k, have, need) in lagging_refs(&p.msg, &self.vt, self.n) {
                let depth = if every_gap { need - have } else { 1 };
                let known = gaps.entry(k).or_default();
                let unknown = (have + 1 + known.len() as u64)..=(have + depth);
                known.extend(unknown.map(|seq| self.wait_on(k, seq)));
                waits.extend_from_slice(&known[..depth as usize]);
            }
            if self.is_frozen() {
                waits.push((WaitNode::Proc(self.me), WaitReason::Frozen));
            }
            waits = self.emit_held(p.msg.id, p.arrived_at, waits, emit);
        }
    }

    /// Emits the record of message `id`, held here since `since`, and
    /// hands the emptied `waits` back for the next one to fill.
    pub(crate) fn emit_held(
        &self,
        id: MsgId,
        since: SimTime,
        waits: Vec<(WaitNode, WaitReason)>,
        emit: &mut dyn FnMut(&WaitRecord),
    ) -> Vec<(WaitNode, WaitReason)> {
        let mut record = WaitRecord {
            blocked: WaitNode::Msg(id),
            who: self.me,
            since,
            slot: None,
            waits,
        };
        emit(&record);
        record.waits.clear();
        record.waits
    }

    /// The wait on undelivered message `seq` of `sender`, and why it has
    /// not delivered here.
    pub(crate) fn wait_on(&self, sender: usize, seq: u64) -> (WaitNode, WaitReason) {
        let id = MsgId { sender, seq };
        let why = match self.windows.slot(id) {
            Some(Slot::Held { .. }) => WaitReason::HeldHere,
            Some(Slot::Parked(..)) => WaitReason::Parked,
            _ if self.beyond_cut(id) => WaitReason::NeverDeliverable {
                cut: self.cut.get(sender),
            },
            Some(Slot::Chased(c)) => WaitReason::Chased {
                referenced_by: c.referenced_by,
            },
            _ => WaitReason::Unknown,
        };
        (WaitNode::Msg(id), why)
    }

    /// The membership half of a view install: `members` are the surviving
    /// member indices and `cut` is the flush cut agreed for the view.
    ///
    /// - Removed senders are marked dead: what lies beyond the cut is
    ///   forgotten (a held copy is `Dropped`), and anything still missing
    ///   at or below it is chased via NACK (some survivor delivered it, so
    ///   some survivor buffers it).
    /// - Stability masks dead rows so the stable frontier (and GC) can
    ///   advance without the departed members' acks.
    ///
    /// The delivery freeze is left to [`Self::thaw`].
    pub(crate) fn install_view(&mut self, now: SimTime, members: &[usize], cut: &VectorClock) {
        self.probe.emit_phase(|| ObsEvent::Phase {
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
                let cut = self.cut.get(s);
                self.holdback.purge_sender(s, cut);
                for seq in self.windows.truncate(s, cut) {
                    self.note_gone(now, MsgId { sender: s, seq }, Stage::Dropped, || {
                        format!("removed sender beyond cut {cut}")
                    });
                }
                for seq in (self.vt.get(s) + 1)..=cut {
                    self.windows.chase(MsgId { sender: s, seq }, s);
                }
            }
        }
        self.stability.set_members(members);
        self.gossip.reset();
        self.note_holdback();
        self.collect_garbage(now);
    }

    /// Ends the delivery blackout ([`Self::freeze`]). The caller drains
    /// whatever became deliverable during the flush, then calls
    /// [`Self::end_thaw_drain`]; until then each held delivery's frozen
    /// tail is attributed to the flush barrier.
    pub(crate) fn thaw(&mut self, now: SimTime) {
        if self.is_frozen() {
            self.probe.emit_phase(|| ObsEvent::Phase {
                at: now,
                who: self.me,
                kind: PhaseKind::Flush,
                edge: PhaseEdge::End,
                note: String::new(),
            });
        }
        self.thaw_drain = self.frozen.take();
    }

    /// Ends the drain begun by [`Self::thaw`].
    pub(crate) fn end_thaw_drain(&mut self) {
        self.thaw_drain = None;
    }

    /// Whether `id`'s sender was removed by a view change and `id` lies
    /// beyond the flush cut — no survivor may ever deliver it.
    pub(crate) fn beyond_cut(&self, id: MsgId) -> bool {
        !self.alive[id.sender] && id.seq > self.cut.get(id.sender)
    }

    /// Emits a span of `stage` for `id` where the copy left this
    /// endpoint undelivered: `Dropped`, or `Unparked` for a parked one.
    pub(crate) fn note_gone(
        &self,
        now: SimTime,
        id: MsgId,
        stage: Stage,
        note: impl FnOnce() -> String,
    ) {
        self.probe.emit(|| ObsEvent::Span {
            at: now,
            who: self.me,
            span: span_of(id),
            stage,
            note: note(),
        });
    }

    /// Whether `clock` claims deliveries more than [`MAX_CHASE_AHEAD`]
    /// past ours in some component.
    fn too_far_ahead(&self, clock: &VectorClock) -> bool {
        // A component that far past ours is at least that large itself:
        // one pass over the one clock clears every honest timestamp.
        clock.any_above(MAX_CHASE_AHEAD) && self.vt.lagging(clock).any(|lag| out_of_reach(&lag))
    }

    /// Whether `id` lies more than [`MAX_CHASE_AHEAD`] past what was
    /// delivered here of its sender (a member of the group), or is one of
    /// this member's own messages not yet sent: own sends count as
    /// delivered at send, so no honest copy of one can arrive, and a copy
    /// held for it would deliver that id a second time once it is sent.
    pub(crate) fn out_of_reach(&self, id: MsgId) -> bool {
        let reach = if id.sender == self.me {
            0
        } else {
            MAX_CHASE_AHEAD
        };
        id.seq.saturating_sub(self.vt.get(id.sender)) > reach
    }

    /// A data copy the door admitted arrives: rejects — virtual synchrony
    /// — anything from a removed sender beyond the flush cut. Returns
    /// whether the copy may proceed to decoding.
    pub(crate) fn arrive(&mut self, now: SimTime, msg: &DataMsg<P>) -> bool {
        self.probe.emit(|| arrival(now, self.me, msg));
        if self.beyond_cut(msg.id) {
            self.stats.rejected_removed += 1;
            self.note_gone(now, msg.id, Stage::Dropped, || {
                format!("removed sender beyond cut {}", self.cut.get(msg.id.sender))
            });
            return false;
        }
        true
    }

    /// Validates a decoded wire timestamp against the group width and
    /// against [`MAX_CHASE_AHEAD`]. A failure is counted and the copy
    /// dropped for NACK-driven recovery. A stamp that passes is believed
    /// whatever the copy carries in memory: the caller keeps the decoded
    /// clock, so a forged but believable stamp is taken at its word.
    pub(crate) fn checked_vt(
        &mut self,
        now: SimTime,
        msg: &DataMsg<P>,
        decoded: Option<VectorClock>,
        what: &str,
    ) -> Option<VectorClock> {
        let why = match decoded {
            Some(vt) if vt.len() == self.n && !self.too_far_ahead(&vt) => return Some(vt),
            Some(vt) if vt.len() == self.n => Refusal::OutOfReach,
            Some(_) => Refusal::ClockWidth,
            None => Refusal::Undecodable,
        };
        self.stats.refuse(why);
        self.note_gone(now, msg.id, Stage::Dropped, || {
            format!("{what} decode error")
        });
        None
    }

    /// Whether a timestamped copy of `id` is a duplicate — already
    /// delivered, or already held. Counts and drops it if so.
    pub(crate) fn reject_duplicate(&mut self, now: SimTime, id: MsgId) -> bool {
        let held = matches!(self.windows.slot(id), Some(Slot::Held { .. }));
        let dup = id.seq <= self.vt.get(id.sender) || held;
        if dup {
            self.stats.duplicates += 1;
            self.note_gone(now, id, Stage::Dropped, || "duplicate".to_string());
            self.collect_garbage(now);
        }
        dup
    }

    /// A peer's delivered clock arrived: advance stability, and chase
    /// anything the peer has delivered that is unknown here — gossip is
    /// what reveals a sender's final message when it was dropped with no
    /// successor to reference it. The gossiper delivered those ids, so it
    /// still holds them: it is NACKed for them at once, and the first
    /// tick at least `tick_interval` later retries any still missing
    /// ([`Self::renack_overdue`]: the gossiper again, the origin and the
    /// next known holders). Removed senders' messages beyond the flush cut
    /// will never deliver and are not worth chasing. A clock implausibly
    /// far ahead of ours ([`MAX_CHASE_AHEAD`]) is refused whole.
    pub(crate) fn on_ack_gossip(
        &mut self,
        now: SimTime,
        from: usize,
        delivered: &VectorClock,
        out: &mut Vec<Out<P>>,
    ) {
        // One scan serves the bound and the chase; in a settled group it
        // finds nothing and allocates nothing.
        let ahead: Vec<_> = self.vt.lagging(delivered).collect();
        if ahead.iter().any(out_of_reach) {
            self.stats.refuse(Refusal::OutOfReach);
            return;
        }
        self.stability.update_row(from, delivered);
        let chase = Chase::new(from, now + self.cfg.tick_interval);
        let (cap, mut want) = (self.cfg.max_nack_batch, Vec::new());
        for (k, have, theirs) in ahead {
            let hi = self.reach(k, theirs);
            self.windows
                .chase_range(k, (have + 1)..=hi, chase, &mut want, cap);
        }
        self.send_nack(want, Dest::One(from), out);
        self.collect_garbage(now);
    }

    /// Serves a NACK from the unstable buffer.
    pub(crate) fn serve_nack(&mut self, from: usize, want: Vec<MsgId>, out: &mut Vec<Out<P>>) {
        for id in want {
            if let Some(m) = self.windows.get_mut(id) {
                self.stats.retransmits_served += 1;
                out.push((Dest::One(from), Wire::Data(m.repair_copy())));
            }
        }
    }

    /// Tick, first half: gossip our delivered clock, when it moved or the
    /// keep-alive is due ([`Gossip`]), so peers can advance stability and
    /// spot their gaps.
    pub(crate) fn gossip(&mut self, now: SimTime, out: &mut Vec<Out<P>>) {
        self.gossip
            .tick(now, self.me, self.vt.clone(), &mut self.stats, out);
    }

    /// Tick, second half: re-NACK overdue missing messages and sample the
    /// buffer gauges. Any member that delivered a message buffers it until
    /// stable (atomic delivery's whole point), so any of them can serve
    /// it, but every one asked answers with a full-stamped copy: a round
    /// asks [`RETRY_FANOUT`] of them an id ([`Self::retry_targets`]), and
    /// each target one NACK for all its ids. A view with no more than
    /// that many other members is asked whole, in one NACK to everyone.
    pub(crate) fn renack_overdue(&mut self, now: SimTime, out: &mut Vec<Out<P>>) {
        let batch = self.windows.due(now, self.cfg.max_nack_batch);
        let others = (0..self.n).filter(|&k| k != self.me && self.alive[k]);
        if others.count() <= RETRY_FANOUT {
            let want = batch.into_iter().map(|(id, _)| id).collect();
            self.send_nack(want, Dest::All, out);
        } else {
            let mut asks: BTreeMap<usize, Vec<MsgId>> = BTreeMap::new();
            let mut everyone = Vec::new();
            for (id, chase) in batch {
                let targets = self.retry_targets(id, chase);
                if targets.is_empty() {
                    everyone.push(id);
                }
                for k in targets {
                    asks.entry(k).or_default().push(id);
                }
            }
            for (k, want) in asks {
                self.send_nack(want, Dest::One(k), out);
            }
            self.send_nack(everyone, Dest::All, out);
        }
        self.note_buffer();
    }

    /// Whom a NACK round asks for `id`, chased as `chase` says: the next
    /// [`RETRY_FANOUT`] (or all, if fewer) of its candidates, from the
    /// chase's round cursor on, cyclically, so members that stay silent
    /// cannot starve it. The candidates are the live members other than
    /// this one that can serve it: the member that referenced it, its
    /// origin, then every member the stability matrix knows delivered it,
    /// in ring order after the referencer. None (all gone or unknown, as
    /// after a view change) leaves it to the whole group.
    fn retry_targets(&self, id: MsgId, chase: Chase) -> Vec<usize> {
        let (n, via) = (self.n, chase.referenced_by);
        let holders = (1..n)
            .map(|i| (via + i) % n)
            .filter(|&k| k != id.sender && self.stability.knows_delivered(k, id.sender, id.seq));
        let mut candidates: Vec<usize> = [via, id.sender]
            .into_iter()
            .chain(holders)
            .filter(|&k| k != self.me && self.alive[k])
            .collect();
        candidates.dedup();
        let len = candidates.len();
        if len <= RETRY_FANOUT {
            return candidates;
        }
        let from = chase.round as usize * RETRY_FANOUT % len;
        candidates.rotate_left(from);
        candidates.truncate(RETRY_FANOUT);
        candidates
    }

    /// Sends one NACK for `want` (if any) to `dest`.
    pub(crate) fn send_nack(&mut self, want: Vec<MsgId>, dest: Dest, out: &mut Vec<Out<P>>) {
        if want.is_empty() {
            return;
        }
        let w = Wire::Nack {
            from: self.me,
            want,
        };
        self.stats.nacks_sent += 1;
        out.push((dest, w));
    }

    /// `need`, or no further than the flush cut if sender `k` was removed:
    /// beyond it nothing will ever deliver, so nothing is worth chasing.
    fn reach(&self, k: usize, need: u64) -> u64 {
        if self.alive[k] {
            need
        } else {
            need.min(self.cut.get(k))
        }
    }

    /// Chases the seqs `gap` of `sender` unknown here — the FIFO gap below
    /// a delta parked ahead of its base — and NACKs the sender for them.
    pub(crate) fn nack_gap(
        &mut self,
        now: SimTime,
        sender: usize,
        gap: RangeInclusive<u64>,
        out: &mut Vec<Out<P>>,
    ) {
        let chase = Chase::new(sender, now + NACK_TIMEOUT);
        let (cap, mut want) = (self.cfg.max_nack_batch, Vec::new());
        self.windows.chase_range(sender, gap, chase, &mut want, cap);
        self.send_nack(want, Dest::One(sender), out);
    }

    /// Starts a local multicast: takes the next sequence number. Own
    /// sends count as delivered-at-send.
    pub(crate) fn begin_send(&mut self, now: SimTime) -> MsgId {
        let seq = self.vt.tick(self.me);
        let id = MsgId {
            sender: self.me,
            seq,
        };
        self.probe.emit(|| ObsEvent::Span {
            at: now,
            who: self.me,
            span: span_of(id),
            stage: Stage::Send,
            note: String::new(),
        });
        // Keep the ready-index consistent with the clock advance (no
        // held message can legitimately wait on our own future sends,
        // but the invariant costs nothing to maintain).
        self.holdback.note_delivered(self.me, seq);
        id
    }

    /// Completes a local multicast: retains `msg` until stable and
    /// returns the immediate self-delivery.
    pub(crate) fn finish_send(&mut self, now: SimTime, msg: DataMsg<P>, payload: P) -> Delivery<P> {
        let id = msg.id;
        self.stats.sent += 1;
        self.stats.delivered += 1;
        self.stability
            .record_local_delivery(self.me, self.me, id.seq);
        self.windows.push(msg);
        self.note_buffer();
        Delivery {
            id,
            payload,
            arrived_at: now,
            delivered_at: now,
            gseq: None,
            waited_for: Vec::new(),
        }
    }

    /// Delivery, step one: advance the clock, stability and hold-time
    /// accounting for `id`, which arrived at `arrived_at`. Returns
    /// whether it was held (delivered later than it arrived).
    pub(crate) fn begin_delivery(&mut self, now: SimTime, arrived_at: SimTime, id: MsgId) -> bool {
        self.vt.set(id.sender, id.seq);
        self.holdback.note_delivered(id.sender, id.seq);
        // Everything else in the timestamp is already delivered here,
        // so a full merge is a no-op; set() is the precise update.
        self.stability
            .record_local_delivery(self.me, id.sender, id.seq);
        self.stats.note_delivery(arrived_at, now)
    }

    /// Holds `msg`, which arrived at `now`, having chased what its stamp
    /// references that is unknown here (its sender NACKed at once, capped).
    pub(crate) fn hold(&mut self, now: SimTime, msg: DataMsg<P>, out: &mut Vec<Out<P>>) {
        let via = msg.id.sender;
        let chase = Chase::new(via, now + NACK_TIMEOUT);
        let (cap, mut want) = (self.cfg.max_nack_batch, Vec::new());
        for (k, have, need) in lagging_refs(&msg, &self.vt, self.n) {
            let hi = self.reach(k, need);
            self.windows
                .chase_range(k, (have + 1)..=hi, chase, &mut want, cap);
        }
        self.send_nack(want, Dest::One(via), out);
        self.windows.hold(msg.id);
        let arrived_at = now;
        let accepted = self.holdback.insert(Pending { msg, arrived_at }, &self.vt);
        debug_assert!(accepted, "a duplicate reached the holdback queue");
    }

    /// Delivery, step two (held deliveries only): ledger attribution of
    /// the hold to `phase` and `blocker`. The thaw-time drain splits the
    /// interval at the freeze instant — before it, the classified wait;
    /// after it, the flush barrier.
    pub(crate) fn emit_hold_waits(
        &self,
        now: SimTime,
        arrived_at: SimTime,
        id: MsgId,
        phase: LatencyPhase,
        blocker: Option<SpanId>,
    ) {
        let split = self.thaw_drain.filter(|fs| *fs < now && *fs > arrived_at);
        if let Some(fs) = split {
            self.probe.emit(|| ObsEvent::Wait {
                at: fs,
                who: self.me,
                span: span_of(id),
                phase,
                pre_send: false,
                since: arrived_at,
                blocker,
                note: String::new(),
            });
        }
        let frozen_tail = self.thaw_drain.is_some();
        self.probe.emit(|| ObsEvent::Wait {
            at: now,
            who: self.me,
            span: span_of(id),
            phase: if frozen_tail {
                LatencyPhase::Flush
            } else {
                phase
            },
            pre_send: false,
            since: split.unwrap_or(arrived_at),
            blocker: if frozen_tail { None } else { blocker },
            note: if frozen_tail {
                "delivery frozen until the view installed".to_string()
            } else {
                String::new()
            },
        });
    }

    /// Delivery, step three: hand `msg` to the application and retain it
    /// until stable.
    pub(crate) fn finish_delivery(
        &mut self,
        now: SimTime,
        arrived_at: SimTime,
        msg: DataMsg<P>,
        waited_for: Vec<MsgId>,
        delivered: &mut Vec<Delivery<P>>,
    ) {
        self.probe.emit(|| ObsEvent::Span {
            at: now,
            who: self.me,
            span: span_of(msg.id),
            stage: Stage::Delivered,
            note: waited_for
                .iter()
                .map(|w| format!("m{}.{}", w.sender, w.seq))
                .collect::<Vec<_>>()
                .join(", "),
        });
        delivered.push(Delivery {
            id: msg.id,
            payload: msg.payload.clone(),
            arrived_at,
            delivered_at: now,
            gseq: None,
            waited_for,
        });
        self.windows.push(msg);
    }

    /// Reclaims buffered messages the stable frontier has passed.
    pub(crate) fn collect_garbage(&mut self, now: SimTime) {
        // This runs on every wire event: O(1), and no buffer walk, until
        // the tracker reports that the frontier itself moved.
        if !self.stability.take_frontier_moved() {
            return;
        }
        let frontier = self.stability.stable_frontier();
        let reclaimed = self.windows.reclaim(&frontier);
        self.probe.emit_phase(|| ObsEvent::Phase {
            at: now,
            who: self.me,
            kind: PhaseKind::StabilityRound,
            edge: PhaseEdge::Point,
            note: format!("stable frontier {frontier:?}, {reclaimed} reclaimed"),
        });
        self.stats.stabilized += reclaimed as u64;
        self.note_buffer();
    }

    /// Samples the buffer gauges.
    pub(crate) fn note_buffer(&mut self) {
        let msgs = self.windows.len() as u64;
        self.stats.note_buffer(msgs, msgs * self.buffered_msg_bytes);
    }

    /// Samples the holdback gauge.
    pub(crate) fn note_holdback(&mut self) {
        self.stats.note_holdback(self.holdback.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cbcast::CbcastEndpoint;
    use crate::endpoint::{CausalEndpoint, CausalProtocol};
    use crate::group::CausalDiscipline;
    use crate::holdback::Pending;
    use crate::wire::VtWire;
    use proptest::prelude::*;
    use simnet::time::SimDuration;
    use std::collections::{HashMap, VecDeque};
    use std::sync::Arc;

    fn clock(e: &[u64]) -> VectorClock {
        VectorClock::from_entries(e.to_vec())
    }

    /// Member `me` of a group of `n`, running `cfg.discipline`, as the
    /// trait vsync drives it through.
    fn causal(me: usize, n: usize, cfg: GroupConfig) -> Box<dyn CausalProtocol<u32>> {
        match CausalEndpoint::new(me, n, cfg) {
            CausalEndpoint::Cbcast(e) => Box::new(e),
            CausalEndpoint::Pccast(e) => Box::new(e),
        }
    }

    /// Before the bound, each of these wires passed every structural
    /// check and then had an id chased one at a time for a gap of 2^40
    /// messages — a hang that ends when memory does. Each must now
    /// be refused at the door, counted, and leave nothing behind; the
    /// endpoint then serves a legitimate sender as if nothing happened.
    #[test]
    fn hostile_clocks_cannot_fill_the_missing_map() {
        const FAR: u64 = 1 << 40;
        let now = SimTime::from_millis(1);
        let first = MsgId { sender: 0, seq: 1 };
        let ahead = MsgId {
            sender: 0,
            seq: FAR,
        };
        let mut parks = DataMsg::new(ahead, clock(&[FAR, 0, 0]), 0);
        parks.vt_wire = VtWire::Delta(parks.vt.encode_delta(&VectorClock::new(3)));
        let hostile = [
            // A carried component far ahead: `register_missing`.
            Wire::Data(DataMsg::new(first, clock(&[1, 0, FAR]), 0)),
            // A sequence number far ahead, stamped full and stamped delta:
            // `register_missing`'s own slot and cbcast's FIFO-gap NACK.
            Wire::Data(DataMsg::new(ahead, VectorClock::new(3), 0)),
            Wire::Data(parks),
            // A gossiped clock far ahead: `on_ack_gossip`.
            Wire::AckGossip {
                from: 0,
                delivered: clock(&[0, FAR, 0]),
            },
        ];
        for discipline in [CausalDiscipline::Cbcast, CausalDiscipline::Pccast] {
            let cfg = GroupConfig {
                discipline,
                delta_timestamps: true,
                ..GroupConfig::default()
            };
            let mut ep = causal(1, 3, cfg.clone());
            for (i, wire) in hostile.iter().enumerate() {
                let (dels, outs) = ep.on_wire(now, wire.clone());
                assert!(
                    dels.is_empty() && outs.is_empty(),
                    "{discipline:?} wire {i}"
                );
                let core = ep.core();
                assert!(core.windows.chases().is_empty(), "{discipline:?} wire {i}");
                assert_eq!(core.stats.ts_decode_errors, i as u64 + 1);
                assert_eq!(
                    (
                        core.holdback_len(),
                        core.buffered_len(),
                        core.windows.parked_len()
                    ),
                    (0, 0, 0),
                    "{discipline:?} wire {i}"
                );
                assert!(!core.stability.knows_delivered(0, 1, 1), "gossip row taken");
            }
            let mut peer = causal(0, 3, cfg);
            if discipline == CausalDiscipline::Cbcast {
                // A hostile delta parked behind the sender's first message
                // decodes only once that arrives: same door, later.
                let second = MsgId { sender: 0, seq: 2 };
                let mut parked = DataMsg::new(second, clock(&[2, FAR, 0]), 0);
                parked.vt_wire = VtWire::Delta(parked.vt.encode_delta(&clock(&[1, 0, 0])));
                let (dels, _) = ep.on_wire(now, Wire::Data(parked));
                assert!(dels.is_empty());
                assert_eq!(ep.core().windows.parked_len(), 1);
            }
            let (_, outs) = peer.multicast(now, 7);
            let (_, copy) = outs
                .into_iter()
                .find(|(d, _)| matches!(d, Dest::All | Dest::One(1)))
                .expect("a copy for member 1");
            let (dels, _) = ep.on_wire(now, copy);
            assert_eq!(dels.len(), 1, "{discipline:?}: legitimate message");
            assert_eq!((dels[0].id, dels[0].payload), (first, 7));
            let core = ep.core();
            assert_eq!(core.windows.parked_len(), 0);
            let chased = core.windows.chases();
            assert!(chased.iter().all(|(id, _)| id.seq <= 2), "{discipline:?}");
            let parked = u64::from(discipline == CausalDiscipline::Cbcast);
            assert_eq!(core.stats.ts_decode_errors, hostile.len() as u64 + parked);
        }
    }

    /// fbcast's and the token ring's stamps carry no vector. A copy
    /// stamped with one that reaches a causal endpoint is refused as
    /// undecodable, as a pccast tag is at cbcast, and leaves nothing
    /// behind: the same id stamped full then delivers.
    #[test]
    fn a_counter_stamped_copy_is_refused_by_the_causal_disciplines() {
        let now = SimTime::from_millis(1);
        let first = MsgId { sender: 0, seq: 1 };
        for discipline in [CausalDiscipline::Cbcast, CausalDiscipline::Pccast] {
            let cfg = GroupConfig {
                discipline,
                ..GroupConfig::default()
            };
            let mut ep = causal(1, 3, cfg);
            for (i, stamp) in [VtWire::Id, VtWire::Gseq(1)].into_iter().enumerate() {
                let wire = Wire::Data(DataMsg::counted(first, stamp, 7));
                let (dels, outs) = ep.on_wire(now, wire);
                assert!(
                    dels.is_empty() && outs.is_empty(),
                    "{discipline:?} wire {i}"
                );
                let core = ep.core();
                assert_eq!(core.stats.ts_decode_errors, i as u64 + 1);
                assert!(core.windows.chases().is_empty(), "{discipline:?} wire {i}");
                let frontiers: Vec<u64> = (0..3).map(|k| core.windows.frontier(k)).collect();
                assert_eq!(frontiers, [0, 0, 0], "{discipline:?} wire {i}");
                assert_eq!(
                    (
                        core.holdback_len(),
                        core.buffered_len(),
                        core.windows.parked_len()
                    ),
                    (0, 0, 0),
                    "{discipline:?} wire {i}"
                );
            }
            let full = DataMsg::new(first, clock(&[1, 0, 0]), 7);
            let (dels, _) = ep.on_wire(now, Wire::Data(full));
            assert_eq!(dels.len(), 1, "{discipline:?}");
            assert_eq!((dels[0].id, dels[0].payload), (first, 7));
        }
    }

    impl<P: Clone> CausalCore<P> {
        /// The id-by-id definition the gap walk replaced: an id
        /// unknown here is chased, due a NACK timeout on if it was asked
        /// for and at the next round if the batch was full.
        fn note_missing(&mut self, now: SimTime, id: MsgId, via: usize, want: &mut Vec<MsgId>) {
            if self.windows.slot(id).is_none() {
                let asked = want.len() < self.cfg.max_nack_batch;
                let due = if asked {
                    now + NACK_TIMEOUT
                } else {
                    SimTime::ZERO
                };
                let chase = Chase::new(via, due);
                self.windows.chase_as(id, chase);
                if asked {
                    want.push(id);
                }
            }
        }
    }

    impl<P: Clone> CausalCore<P> {
        /// `on_ack_gossip` as it was: every id of every gap asked whether
        /// it is held or parked and chased if neither, chased already or
        /// not, from the delivered clock up; the ids unknown before, in
        /// that order and up to the cap, are what the gossiper is asked
        /// for, if anything is, and are due a tick interval on; the rest
        /// are due at the next round.
        fn on_ack_gossip_id_by_id(
            &mut self,
            now: SimTime,
            from: usize,
            delivered: &VectorClock,
        ) -> Vec<MsgId> {
            let ahead = self.vt.lagging(delivered).take_while(|&(k, ..)| k < self.n);
            let ahead: Vec<_> = ahead.collect();
            if from >= self.n || ahead.iter().any(out_of_reach) {
                self.stats.ts_decode_errors += 1;
                return Vec::new();
            }
            self.stability.update_row(from, delivered);
            let (cap, mut want) = (self.cfg.max_nack_batch, Vec::new());
            for (k, have, theirs) in ahead {
                let hi = if self.alive[k] {
                    theirs
                } else {
                    theirs.min(self.cut.get(k))
                };
                for seq in (have + 1)..=hi {
                    let id = MsgId { sender: k, seq };
                    let slot = self.windows.slot(id);
                    let asked = slot.is_none() && want.len() < cap;
                    if asked {
                        want.push(id);
                    }
                    if !matches!(slot, Some(Slot::Held { .. } | Slot::Parked(..))) {
                        let due = if asked {
                            now + self.cfg.tick_interval
                        } else {
                            SimTime::ZERO
                        };
                        let chase = Chase::new(from, due);
                        self.windows.chase_as(id, chase);
                    }
                }
            }
            self.collect_garbage(now);
            want
        }
    }

    /// Holds `msg` with nothing it references chased.
    fn hold_quietly<P: Clone>(core: &mut CausalCore<P>, now: SimTime, msg: DataMsg<P>) {
        core.windows.hold(msg.id);
        assert!(core.holdback.insert(
            Pending {
                msg,
                arrived_at: now
            },
            &core.vt
        ));
    }

    /// Every chased id, whom it was first learned of from and when it is
    /// next due for a NACK round, ascending.
    fn missing_entries<P>(core: &CausalCore<P>) -> Vec<(MsgId, usize, SimTime)> {
        let entry = |(id, c): (MsgId, Chase)| (id, c.referenced_by, c.due);
        core.windows.chases().into_iter().map(entry).collect()
    }

    /// One gossiped clock against the id-by-id loop, from identical
    /// states, in both disciplines. Sender 1's gap holds ids that are
    /// chased (by different members, NACKed and not), held, parked
    /// (cbcast) and new; sender 2's is chased throughout; senders 3, 4
    /// and 5 are dead with the cut below, inside and above their gaps.
    /// The walk leaves every frontier past its gap, so the same clock
    /// gossiped again walks nothing. Both ask the gossiper for exactly the
    /// new ids at once, in one NACK, and are due to ask everyone one tick
    /// interval later.
    #[test]
    fn a_gossiped_gap_is_chased_exactly_as_its_ids_would_be() {
        let now = SimTime::from_millis(9);
        let id = |sender, seq| MsgId { sender, seq };
        let chased = [
            (id(1, 2), 3, SimTime::from_millis(25)),
            (id(1, 4), 1, SimTime::ZERO),
            (id(2, 1), 4, SimTime::from_millis(25)),
            (id(2, 2), 2, SimTime::ZERO),
            (id(2, 3), 1, SimTime::from_millis(27)),
            (id(2, 4), 2, SimTime::ZERO),
            (id(2, 5), 3, SimTime::ZERO),
            (id(4, 1), 4, SimTime::ZERO),
            (id(5, 2), 5, SimTime::from_millis(27)),
        ];
        let held = [id(1, 3), id(1, 6), id(5, 3)];
        let theirs = clock(&[0, 8, 5, 5, 4, 6]);
        for discipline in [CausalDiscipline::Cbcast, CausalDiscipline::Pccast] {
            let cbcast = discipline == CausalDiscipline::Cbcast;
            let cfg = GroupConfig {
                discipline,
                delta_timestamps: true,
                ..GroupConfig::default()
            };
            let build = || {
                let mut ep = causal(0, 6, cfg.clone());
                let core = ep.core_mut();
                if cbcast {
                    let mut parks = DataMsg::new(id(1, 5), clock(&[0, 5, 0, 0, 0, 0]), 0);
                    let base = clock(&[0, 4, 0, 0, 0, 0]);
                    parks.vt_wire = VtWire::Delta(parks.vt.encode_delta(&base));
                    core.windows.park(parks);
                }
                for seq in 1..=2 {
                    core.vt.set(3, seq);
                    core.windows
                        .push(DataMsg::new(id(3, seq), core.vt.clone(), 0));
                }
                for (k, cut) in [(3, 1), (4, 2), (5, 9)] {
                    core.alive[k] = false;
                    core.cut.set(k, cut);
                }
                for (id, referenced_by, due) in chased {
                    let chase = Chase::new(referenced_by, due);
                    core.windows.chase_as(id, chase);
                }
                for id in held {
                    let mut vt = VectorClock::new(6);
                    vt.set(id.sender, id.seq);
                    hold_quietly(core, now, DataMsg::new(id, vt, 0));
                }
                ep
            };
            let (mut walked, mut probed) = (build(), build());
            let gossip = Wire::AckGossip {
                from: 2,
                delivered: theirs.clone(),
            };
            let (dels, outs) = walked.on_wire(now, gossip.clone());
            assert!(dels.is_empty());
            let oracle = probed.core_mut();
            let asked = oracle.on_ack_gossip_id_by_id(now, 2, &theirs);
            let frontiers: Vec<u64> = (0..6).map(|k| walked.core().windows.frontier(k)).collect();
            assert_eq!(frontiers, [0, 8, 5, 2, 2, 6], "{discipline:?}");
            let first = missing_entries(walked.core());
            let (_, again) = walked.on_wire(now, gossip);
            assert!(
                again.is_empty(),
                "{discipline:?}: nothing new the second time"
            );
            assert_eq!(missing_entries(walked.core()), first, "{discipline:?}");

            let (walked, probed) = (walked.core(), probed.core());
            let got = missing_entries(walked);
            assert_eq!(got, missing_entries(probed), "{discipline:?}");
            // What was chased is as it was; what is new is the gossiper's.
            let mut want = chased.to_vec();
            let new = [id(1, 1), id(1, 7), id(1, 8), id(4, 2)];
            let new = new.into_iter().chain([1, 4, 5, 6].map(|seq| id(5, seq)));
            let mut new: Vec<MsgId> = new.chain((!cbcast).then_some(id(1, 5))).collect();
            new.sort();
            let due = now + cfg.tick_interval;
            want.extend(new.iter().map(|&id| (id, 2, due)));
            want.sort();
            assert_eq!(got, want, "{discipline:?}");
            // The NACK the walk sent is the one the oracle asks for.
            let nacked: Vec<_> = outs
                .into_iter()
                .map(|(dest, w)| match w {
                    Wire::Nack { from: 0, want } => (dest, want),
                    other => panic!("{discipline:?}: sent {other:?}"),
                })
                .collect();
            assert_eq!(nacked, [(Dest::One(2), new.clone())], "{discipline:?}");
            assert_eq!(asked, new, "{discipline:?}");
            for core in [walked, probed] {
                assert!(core.stability.knows_delivered(2, 1, 8), "{discipline:?}");
                assert_eq!(core.stats.ts_decode_errors, 0);
            }
            assert_eq!(walked.stable_frontier(), probed.stable_frontier());
            // Neither asked the holdback queue which ids it holds.
            assert_eq!(
                walked.holdback.work(),
                probed.holdback.work(),
                "{discipline:?}"
            );
        }
    }

    /// A gossip that reveals one id more than a NACK carries asks the
    /// gossiper for the first batch; the id left over was asked of nobody,
    /// so the very next tick asks everyone for it, and only for it.
    #[test]
    fn a_gossiped_gap_past_the_batch_is_asked_of_everyone_at_the_next_tick() {
        let now = SimTime::from_millis(9);
        for discipline in [CausalDiscipline::Cbcast, CausalDiscipline::Pccast] {
            let cfg = GroupConfig {
                discipline,
                ..GroupConfig::default()
            };
            let cap = cfg.max_nack_batch as u64;
            let mut ep = causal(0, 3, cfg);
            let gossip = Wire::AckGossip {
                from: 2,
                delivered: clock(&[0, cap + 1, 0]),
            };
            let nacks = |outs: Vec<Out<u32>>| -> Vec<(Dest, Vec<MsgId>)> {
                let nack = |(dest, w)| match w {
                    Wire::Nack { want, .. } => Some((dest, want)),
                    _ => None,
                };
                outs.into_iter().filter_map(nack).collect()
            };
            let ids = |seqs: RangeInclusive<u64>| -> Vec<MsgId> {
                seqs.map(|seq| MsgId { sender: 1, seq }).collect()
            };
            let (_, outs) = ep.on_wire(now, gossip);
            assert_eq!(
                nacks(outs),
                [(Dest::One(2), ids(1..=cap))],
                "{discipline:?}"
            );
            let tick = now + SimDuration::from_millis(1);
            let asked = nacks(ep.on_tick(tick));
            assert_eq!(
                asked,
                [(Dest::All, ids(cap + 1..=cap + 1))],
                "{discipline:?}"
            );
        }
    }

    /// The retry rule, in groups of 8 and 64: member indices are placed
    /// as `k * n / 8`, so the ring order is the same in both.
    mod retry {
        use super::*;

        const SIZES: [usize; 2] = [8, 64];

        /// Every NACK among `outs`: its destination and ids.
        fn nacks(outs: Vec<Out<u32>>) -> Vec<(Dest, Vec<MsgId>)> {
            let nack = |(dest, w)| match w {
                Wire::Nack { want, .. } => Some((dest, want)),
                _ => None,
            };
            outs.into_iter().filter_map(nack).collect()
        }

        /// Member 0 of a group of `n` running `discipline`, chasing each
        /// `(id, via)` of `chased` from the next NACK round; the matrix
        /// knows every member of `holders` delivered every one of them, and
        /// nothing of anyone else.
        fn chasing(
            n: usize,
            discipline: CausalDiscipline,
            chased: &[(MsgId, usize)],
            holders: &[usize],
        ) -> Box<dyn CausalProtocol<u32>> {
            let cfg = GroupConfig {
                discipline,
                ..GroupConfig::default()
            };
            let mut ep = causal(0, n, cfg);
            let core = ep.core_mut();
            let mut theirs = VectorClock::new(n);
            for &(id, via) in chased {
                core.windows.chase_as(id, Chase::new(via, SimTime::ZERO));
                theirs.set(id.sender, theirs.get(id.sender).max(id.seq));
            }
            for &k in holders {
                core.stability.update_row(k, &theirs);
            }
            ep
        }

        fn one(dests: &[usize], id: MsgId) -> Vec<(Dest, Vec<MsgId>)> {
            dests.iter().map(|&k| (Dest::One(k), vec![id])).collect()
        }

        /// An overdue id is asked of the member that referenced it, its
        /// origin and the next two members the matrix knows delivered it,
        /// in ring order after the referencer: four NACKs, each of one
        /// member. Neither the holders past those nor the member the
        /// matrix knows nothing of is asked.
        #[test]
        fn an_overdue_id_is_asked_of_its_referencer_its_origin_and_the_next_holders() {
            for n in SIZES {
                let at = |k: usize| k * n / 8;
                let id = MsgId {
                    sender: at(3),
                    seq: 1,
                };
                let holders = [at(1), at(2), at(6), at(7)];
                for discipline in [CausalDiscipline::Cbcast, CausalDiscipline::Pccast] {
                    let mut ep = chasing(n, discipline, &[(id, at(5))], &holders);
                    let asked = nacks(ep.on_tick(SimTime::from_millis(10)));
                    let want = one(&[at(3), at(5), at(6), at(7)], id);
                    assert_eq!(asked, want, "n={n} {discipline:?}");
                    assert!(asked.len() <= RETRY_FANOUT);
                    for (dest, _) in asked {
                        let Dest::One(k) = dest else {
                            panic!("n={n} {discipline:?}: asked {dest:?}");
                        };
                        let holds = ep.core().stability.knows_delivered(k, id.sender, id.seq);
                        assert!(holds || k == at(3) || k == at(5), "n={n} asked {k}");
                    }
                }
            }
        }

        /// Two ids with targets in common: each target gets one NACK that
        /// carries every id it is asked for.
        #[test]
        fn two_ids_with_a_common_target_share_one_nack() {
            for n in SIZES {
                let at = |k: usize| k * n / 8;
                let a = MsgId {
                    sender: at(3),
                    seq: 1,
                };
                let b = MsgId {
                    sender: at(4),
                    seq: 1,
                };
                for discipline in [CausalDiscipline::Cbcast, CausalDiscipline::Pccast] {
                    let chased = [(a, at(5)), (b, at(5))];
                    let mut ep = chasing(n, discipline, &chased, &[at(6)]);
                    let asked = nacks(ep.on_tick(SimTime::from_millis(10)));
                    let want = [
                        (Dest::One(at(3)), vec![a]),
                        (Dest::One(at(4)), vec![b]),
                        (Dest::One(at(5)), vec![a, b]),
                        (Dest::One(at(6)), vec![a, b]),
                    ];
                    assert_eq!(asked, want, "n={n} {discipline:?}");
                }
            }
        }

        /// Six candidates, and the first four never answer: the next round
        /// asks the next four, cyclically — the last two holders, then the
        /// referencer and the origin again — and the first answer
        /// delivers the id.
        #[test]
        fn a_chase_whose_first_targets_stay_silent_asks_the_next_ones() {
            for n in SIZES {
                let at = |k: usize| k * n / 8;
                let id = MsgId {
                    sender: at(3),
                    seq: 1,
                };
                let holders = [at(1), at(2), at(6), at(7)];
                for discipline in [CausalDiscipline::Cbcast, CausalDiscipline::Pccast] {
                    let mut ep = chasing(n, discipline, &[(id, at(5))], &holders);
                    let first = SimTime::from_millis(10);
                    let asked = nacks(ep.on_tick(first));
                    assert_eq!(asked, one(&[at(3), at(5), at(6), at(7)], id));
                    let before = first + NACK_TIMEOUT - SimDuration::from_micros(1);
                    assert_eq!(nacks(ep.on_tick(before)), []);
                    let asked = nacks(ep.on_tick(first + NACK_TIMEOUT));
                    let want = one(&[at(1), at(2), at(3), at(5)], id);
                    assert_eq!(asked, want, "n={n} {discipline:?}");
                    let mut vt = VectorClock::new(n);
                    vt.set(id.sender, 1);
                    let mut copy = DataMsg::new(id, vt, 7);
                    copy.retransmit = true;
                    let (dels, _) = ep.on_wire(first + NACK_TIMEOUT, Wire::Data(copy));
                    let got: Vec<_> = dels.iter().map(|d| (d.id, d.payload)).collect();
                    assert_eq!(got, [(id, 7)], "n={n} {discipline:?}");
                    assert!(ep.core().windows.chases().is_empty());
                }
            }
        }

        /// A view of at most `RETRY_FANOUT` other members is asked whole,
        /// in one NACK to everyone, as is an id none of whose candidates
        /// is a live member.
        #[test]
        fn a_small_view_or_no_live_candidate_asks_everyone_in_one_nack() {
            let id = MsgId { sender: 3, seq: 1 };
            for discipline in [CausalDiscipline::Cbcast, CausalDiscipline::Pccast] {
                let mut ep = chasing(5, discipline, &[(id, 2)], &[1, 4]);
                let asked = nacks(ep.on_tick(SimTime::from_millis(10)));
                assert_eq!(asked, [(Dest::All, vec![id])], "n=5 {discipline:?}");
                // Six members, one of them gone: four others.
                let mut ep = chasing(6, discipline, &[(id, 2)], &[1, 4]);
                ep.core_mut().alive[5] = false;
                let asked = nacks(ep.on_tick(SimTime::from_millis(10)));
                assert_eq!(asked, [(Dest::All, vec![id])], "n=6 {discipline:?}");
                // Eight members; the referencer and the origin are gone,
                // and the matrix knows no one else has it.
                let mut ep = chasing(8, discipline, &[(id, 2)], &[]);
                let core = ep.core_mut();
                (core.alive[2], core.alive[3]) = (false, false);
                let asked = nacks(ep.on_tick(SimTime::from_millis(10)));
                assert_eq!(asked, [(Dest::All, vec![id])], "n=8 {discipline:?}");
            }
        }
    }

    proptest! {
        /// `lagging_refs` against the loop it replaced: every member in
        /// turn, the sender judged on its FIFO predecessor, clocks and
        /// sender inside, at and past the group width.
        #[test]
        fn lagging_refs_match_the_member_by_member_scan(
            vt in collection::vec(0u64..4, 0..40),
            have in collection::vec(0u64..4, 0..40),
            sender in 0usize..40,
            seq in 0u64..5,
            n in 0usize..40,
        ) {
            let id = MsgId { sender, seq };
            let msg = DataMsg::new(id, clock(&vt), ());
            let have = clock(&have);
            let want: Vec<_> = (0..n)
                .map(|k| {
                    let need = if k == sender { seq.saturating_sub(1) } else { msg.vt.get(k) };
                    (k, have.get(k), need)
                })
                .filter(|&(_, have, need)| need > have)
                .collect();
            prop_assert_eq!(lagging_refs(&msg, &have, n).collect::<Vec<_>>(), want);
        }

        /// A gap chased whole (`nack_gap`) against `note_missing` id by id, from
        /// identical states, for a range and then a second one that may
        /// overlap it, start inside, below or above it, or reach past
        /// it: same chased ids, same `want` each time, whether a range is
        /// chased in full, in part or not at all, held, parked or
        /// neither. Neither asks the holdback queue anything.
        #[test]
        fn a_range_is_noted_exactly_as_its_ids_would_be(
            chased in collection::vec(1u64..12, 0..12),
            held in collection::vec(2u64..12, 0..4),
            lo in 1u64..12,
            len in 0u64..12,
            lo2 in 1u64..16,
            len2 in 0u64..12,
            cap in 1usize..6,
        ) {
            let now = SimTime::from_millis(1);
            let cfg = GroupConfig { max_nack_batch: cap, ..GroupConfig::default() };
            let build = || {
                let mut core: CausalCore<()> = CausalCore::new(0, 2, cfg.clone(), 0);
                for &seq in &chased {
                    core.windows.chase(MsgId { sender: 1, seq }, 1);
                }
                for &seq in &held {
                    let id = MsgId { sender: 1, seq };
                    if !core.windows.is_held(id) {
                        hold_quietly(&mut core, now, DataMsg::new(id, clock(&[0, seq]), ()));
                    }
                }
                for seq in (5..=30).step_by(5) {
                    let id = MsgId { sender: 1, seq };
                    if !core.windows.is_held(id) {
                        core.windows.park(DataMsg::new(id, clock(&[0, seq]), ()));
                    }
                }
                core
            };
            let (mut by_range, mut by_id) = (build(), build());
            let work = by_range.holdback.work();
            for (lo, len) in [(lo, len), (lo2, len2)] {
                let seqs = lo..=(lo + len).saturating_sub(1);
                let mut out = Vec::new();
                by_range.nack_gap(now, 1, seqs.clone(), &mut out);
                let want_range = match out.pop() {
                    Some((_, Wire::Nack { want, .. })) => want,
                    _ => Vec::new(),
                };
                let mut want_id = Vec::new();
                for seq in seqs {
                    by_id.note_missing(now, MsgId { sender: 1, seq }, 1, &mut want_id);
                }
                prop_assert_eq!(want_range, want_id);
                prop_assert_eq!(missing_entries(&by_range), missing_entries(&by_id));
                prop_assert_eq!(by_range.holdback.work(), work);
            }
        }
    }

    /// The conservative frontier: nothing above the delivered clock is
    /// taken as known, so every walk starts where the range does.
    fn lower_frontier_to_clock<P>(core: &mut CausalCore<P>) {
        core.windows.lower_frontiers();
    }

    /// One observer call: what it delivered, every NACK it sent, and its
    /// chased ids afterwards.
    type Observed = (
        Vec<MsgId>,
        Vec<(Dest, Vec<MsgId>)>,
        Vec<(MsgId, usize, SimTime)>,
    );

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// The registration frontier against its conservative self. Three
        /// of 24 members multicast a delta-stamped causal chain; one
        /// observer gets it shuffled, with gossiped clocks from anyone
        /// (each sender's component anywhere up to what it sent), ticks,
        /// full copies of whatever it NACKs, and at most one view install
        /// (inside a freeze and thaw) that removes a sender at a cut no
        /// lower than what was delivered of it. Run once as shipped and
        /// once with the frontier lowered to the delivered clock before
        /// every call: the same deliveries, the same NACKs to the same
        /// members, the same chased ids after every call — and the same
        /// holdback work, which no walk adds to.
        #[test]
        fn the_frontier_changes_nothing_but_the_work(
            total in 6usize..30,
            keys in collection::vec(0u64..u64::MAX, 30),
            script in collection::vec((0u8..12, 0usize..24, 0u64..64), 0..48),
            indexed in bool::ANY,
            cap in 1usize..6,
        ) {
            const N: usize = 24;
            const SENDERS: [usize; 3] = [0, 7, 19];
            let cfg = GroupConfig {
                indexed_holdback: indexed,
                delta_timestamps: true,
                max_nack_batch: cap,
                ..GroupConfig::default()
            };
            let mut senders: Vec<CbcastEndpoint<usize>> = SENDERS
                .iter()
                .map(|&me| CbcastEndpoint::new(me, N, cfg.clone()))
                .collect();
            let mut wires = Vec::new();
            for step in 0..total {
                let s = step % SENDERS.len();
                let (_, out) = senders[s].multicast(SimTime::from_millis(step as u64), step);
                let (_, w) = out.into_iter().next().expect("a multicast sends its copy");
                for (r, other) in senders.iter_mut().enumerate() {
                    if r != s {
                        other.on_wire(SimTime::from_millis(step as u64), w.clone());
                    }
                }
                wires.push(w);
            }
            let store: HashMap<MsgId, DataMsg<usize>> = wires
                .iter()
                .map(|w| match w {
                    Wire::Data(d) => (d.id, d.clone()),
                    _ => unreachable!("only data is multicast"),
                })
                .collect();
            let sent = |i: usize| senders[i].stats().sent;
            let mut arrival: Vec<usize> = (0..total).collect();
            arrival.sort_by_key(|&i| keys[i]);

            let run = |conservative: bool| {
                let mut obs = CbcastEndpoint::<usize>::new(N - 1, N, cfg.clone());
                let mut inbox: VecDeque<Wire<usize>> =
                    arrival.iter().map(|&i| wires[i].clone()).collect();
                let (mut seen, mut work) = (Vec::<Observed>::new(), Vec::new());
                let (mut at, mut installed) = (SimTime::from_millis(100), false);
                let idle = (0u8, 0, 0);
                for step in 0..script.len() + 8 * total {
                    let (op, who, x) = script.get(step).copied().unwrap_or(idle);
                    let before_call = |obs: &mut CbcastEndpoint<usize>| {
                        if conservative {
                            lower_frontier_to_clock(obs.core_mut());
                        }
                    };
                    before_call(&mut obs);
                    at += SimDuration::from_millis(1);
                    let (dels, outs) = match op {
                        6..=8 => {
                            let mut delivered = VectorClock::new(N);
                            for (i, &k) in SENDERS.iter().enumerate() {
                                let spread = x.rotate_left(7 * i as u32) ^ who as u64;
                                delivered.set(k, spread % (sent(i) + 1));
                            }
                            obs.on_wire(at, Wire::AckGossip { from: who, delivered })
                        }
                        9 | 10 => {
                            at += SimDuration::from_millis(10);
                            (Vec::new(), obs.on_tick(at))
                        }
                        11 if !installed => {
                            installed = true;
                            let i = who % SENDERS.len();
                            let gone = SENDERS[i];
                            let mut cut = VectorClock::new(N);
                            cut.set(gone, (x % (sent(i) + 1)).max(obs.core().clock().get(gone)));
                            let members: Vec<usize> = (0..N).filter(|&m| m != gone).collect();
                            obs.core_mut().freeze(at);
                            before_call(&mut obs);
                            obs.on_view_install(at, 2, &members, &cut);
                            before_call(&mut obs);
                            obs.thaw(at)
                        }
                        _ => match inbox.pop_front() {
                            Some(w) => obs.on_wire(at, w),
                            None => {
                                at += SimDuration::from_millis(10);
                                (Vec::new(), obs.on_tick(at))
                            }
                        },
                    };
                    let mut nacks = Vec::new();
                    for (dest, w) in outs {
                        if let Wire::Nack { want, .. } = w {
                            for id in &want {
                                let mut copy = store[id].clone();
                                copy.retransmit = true;
                                copy.make_full();
                                inbox.push_back(Wire::Data(copy));
                            }
                            nacks.push((dest, want));
                        }
                    }
                    let ids = dels.iter().map(|d| d.id).collect();
                    seen.push((ids, nacks, missing_entries(obs.core())));
                    work.push(obs.core().holdback.work());
                }
                (seen, work)
            };
            let (shipped, shipped_work) = run(false);
            let (conservative, conservative_work) = run(true);
            prop_assert_eq!(&shipped, &conservative);
            prop_assert_eq!(shipped_work, conservative_work);
        }
    }

    /// A retained message is stamped full once, on its first repair: the
    /// next NACK served for it and a flush's retransmission of it carry
    /// the same bytes, whether it was retained delta-stamped (cbcast) or
    /// link-tagged (pccast).
    #[test]
    fn a_retained_message_is_stamped_full_once() {
        let now = SimTime::from_millis(1);
        let id = MsgId { sender: 0, seq: 1 };
        for discipline in [CausalDiscipline::Cbcast, CausalDiscipline::Pccast] {
            let cfg = GroupConfig {
                discipline,
                delta_timestamps: true,
                ..GroupConfig::default()
            };
            let mut ep = causal(0, 3, cfg);
            ep.multicast(now, 1);
            ep.multicast(now, 2);
            let retained = &ep.core().windows.get(id).expect("retained").vt_wire;
            assert!(!matches!(retained, VtWire::Full(_)), "{discipline:?}");
            let nack = Wire::Nack {
                from: 2,
                want: vec![id],
            };
            let mut outs = ep.on_wire(now, nack.clone()).1;
            outs.extend(ep.on_wire(now, nack).1);
            outs.extend(ep.core_mut().freeze(now));
            let stamps: Vec<_> = outs
                .iter()
                .filter_map(|(_, w)| match w {
                    Wire::Data(d) if d.id == id && d.retransmit => match &d.vt_wire {
                        VtWire::Full(bytes) => Some(bytes.clone()),
                        other => panic!("{discipline:?}: a repair copy is full, not {other:?}"),
                    },
                    _ => None,
                })
                .collect();
            assert_eq!(stamps.len(), 3, "{discipline:?}: two serves and a flush");
            for bytes in &stamps {
                assert!(Arc::ptr_eq(bytes, &stamps[0]), "{discipline:?}");
            }
            assert_eq!(ep.core().stats.retransmits_served, 2);
        }
    }

    /// A copy of a member's own next message, which it has not sent: no
    /// honest member can have one. It is refused at the door. Let in, it
    /// was delivered as a received message, or held and then delivered a
    /// second time after the real send.
    #[test]
    fn a_copy_of_an_own_message_not_yet_sent_is_refused() {
        let now = SimTime::from_millis(1);
        let own = MsgId { sender: 0, seq: 1 };
        for discipline in [CausalDiscipline::Cbcast, CausalDiscipline::Pccast] {
            let cfg = GroupConfig {
                discipline,
                ..GroupConfig::default()
            };
            let mut ep = causal(0, 3, cfg);
            let forged = DataMsg::new(own, clock(&[1, 0, 0]), 9);
            let (dels, outs) = ep.on_wire(now, Wire::Data(forged));
            assert!(dels.is_empty() && outs.is_empty(), "{discipline:?}");
            let core = ep.core();
            assert_eq!(core.stats.ts_decode_errors, 1, "{discipline:?}");
            assert_eq!(core.holdback_len(), 0, "{discipline:?}");
            let (dels, _) = ep.multicast(now, 7);
            let ids: Vec<_> = dels.iter().map(|d| (d.id, d.payload)).collect();
            assert_eq!(ids, [(own, 7)], "{discipline:?}");
        }
    }

    #[test]
    fn the_chase_bound_is_inclusive() {
        let ep = causal(0, 2, GroupConfig::default());
        assert!(!ep.core().too_far_ahead(&clock(&[0, MAX_CHASE_AHEAD])));
        assert!(ep.core().too_far_ahead(&clock(&[0, MAX_CHASE_AHEAD + 1])));
        assert!(!ep.core().too_far_ahead(&clock(&[])));
    }

    /// The gossip rule ([`Gossip`]) as each discipline that gossips runs
    /// it: the endpoints are driven by hand, every 10 ms tick of the
    /// default `tick_interval`.
    mod gossip {
        use super::*;
        use crate::endpoint::Protocol;
        use crate::fbcast::FbcastEndpoint;

        type Group = Vec<Box<dyn Protocol<u32>>>;

        fn ms(v: u64) -> SimTime {
            SimTime::from_millis(v)
        }

        /// A fresh group of three of each discipline that gossips its
        /// delivered clock: cbcast, pccast and fbcast.
        fn groups() -> Vec<(&'static str, Group)> {
            let causal_group = |discipline| {
                let cfg = GroupConfig {
                    discipline,
                    ..GroupConfig::default()
                };
                (0..3)
                    .map(|me| causal(me, 3, cfg.clone()) as Box<dyn Protocol<u32>>)
                    .collect()
            };
            let fifo = (0..3)
                .map(|me| Box::new(FbcastEndpoint::new(me, 3, GroupConfig::default())) as _)
                .collect();
            vec![
                ("cbcast", causal_group(CausalDiscipline::Cbcast)),
                ("pccast", causal_group(CausalDiscipline::Pccast)),
                ("fbcast", fifo),
            ]
        }

        fn gossips(outs: &[Out<u32>]) -> bool {
            outs.iter()
                .any(|(_, w)| matches!(w, Wire::AckGossip { .. }))
        }

        /// Hands `outs`, sent by `from`, to their destinations, and what
        /// those answer, until the group is quiet; `lost(from, to, wire)`
        /// drops a copy.
        fn pump(
            group: &mut Group,
            now: SimTime,
            from: usize,
            outs: Vec<Out<u32>>,
            lost: &mut dyn FnMut(usize, usize, &Wire<u32>) -> bool,
        ) {
            let mut queue: VecDeque<_> = outs.into_iter().map(|o| (from, o)).collect();
            while let Some((from, (dest, wire))) = queue.pop_front() {
                let to: Vec<usize> = match dest {
                    Dest::All => (0..group.len()).filter(|&k| k != from).collect(),
                    Dest::One(k) => vec![k],
                };
                for k in to {
                    if !lost(from, k, &wire) {
                        let (_, more) = group[k].on_wire(now, wire.clone());
                        queue.extend(more.into_iter().map(|o| (k, o)));
                    }
                }
            }
        }

        /// A quiet member gossips at its first tick, stays silent for the
        /// next nine, sends the keep-alive at the tenth, and gossips again
        /// at the first tick after a delivery.
        #[test]
        fn a_tick_gossips_news_or_a_keep_alive() {
            for (name, mut group) in groups() {
                let mut gossiped = Vec::new();
                for at in (10..=130).step_by(10) {
                    if at == 120 {
                        let (_, outs) = group[0].multicast(ms(115), 7);
                        pump(&mut group, ms(115), 0, outs, &mut |_, _, _| false);
                    }
                    if gossips(&group[1].on_tick(ms(at))) {
                        gossiped.push(at);
                    }
                }
                assert_eq!(gossiped, [10, 110, 120], "{name}");
            }
        }

        /// An install resets the rule: the first tick after it gossips a
        /// clock that has not moved.
        #[test]
        fn the_first_tick_after_an_install_gossips() {
            for discipline in [CausalDiscipline::Cbcast, CausalDiscipline::Pccast] {
                let cfg = GroupConfig {
                    discipline,
                    ..GroupConfig::default()
                };
                let mut ep = causal(1, 3, cfg);
                let mut gossiped = Vec::new();
                for at in [10, 20, 30, 40] {
                    if at == 30 {
                        ep.core_mut().freeze(ms(25));
                        ep.on_view_install(ms(25), 2, &[0, 1], &VectorClock::new(3));
                        ep.thaw(ms(25));
                    }
                    if gossips(&ep.on_tick(ms(at))) {
                        gossiped.push(at);
                    }
                }
                assert_eq!(gossiped, [10, 30], "{discipline:?}");
            }
        }

        /// Member 2's gossip to member 0 after the last multicast is
        /// lost. Nothing is news after it, so member 0 holds the message
        /// unstable until member 2's keep-alive, and no longer.
        #[test]
        fn a_lost_final_gossip_is_repeated_by_the_keep_alive() {
            for (name, mut group) in groups() {
                let (_, outs) = group[0].multicast(ms(0), 7);
                pump(&mut group, ms(0), 0, outs, &mut |_, _, _| false);
                let mut dropped = false;
                let mut lost = |from, to, wire: &Wire<u32>| {
                    let gossip = matches!(wire, Wire::AckGossip { .. });
                    let hit = !dropped && from == 2 && to == 0 && gossip;
                    dropped |= hit;
                    hit
                };
                let mut buffered = Vec::new();
                for at in (10..=110).step_by(10) {
                    for k in 0..3 {
                        let outs = group[k].on_tick(ms(at));
                        pump(&mut group, ms(at), k, outs, &mut lost);
                    }
                    buffered.push(group[0].buffered_len());
                }
                assert_eq!(buffered, [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0], "{name}");
            }
        }
    }
}
