//! One virtually synchronous member, without a host: [`Member`].

use super::BugKnobs;
use crate::endpoint::CausalEndpoint;
use crate::failure::FailureDetector;
use crate::group::GroupConfig;
use crate::membership::{FlushAction, MembershipEngine};
use crate::waitgraph::{WaitNode, WaitReason, WaitRecord};
use crate::wire::{Delivery, Dest, Out, Wire};
use clocks::vector::VectorClock;
use simnet::obs::{PhaseKind, ProbeHandle};
use simnet::time::{SimDuration, SimTime};

/// What one call into a [`Member`] produced.
#[derive(Debug, Default)]
pub struct Step {
    /// Messages to hand to the network, in this order: it is the order
    /// the simulated network draws each copy's loss and latency in.
    pub out: Vec<Out<u64>>,
    /// The view this call installed: id, member indices, flush cut. It
    /// precedes [`Self::delivered`] in the member's history: those are
    /// the deliveries the install thawed, if it ended the flush.
    pub installed: Option<(u64, Vec<usize>, VectorClock)>,
    /// Messages released to the application, in delivery order.
    pub delivered: Vec<Delivery<u64>>,
}

const HEARTBEAT_EVERY: SimDuration = SimDuration::from_millis(20);
const SUSPECT_AFTER: SimDuration = SimDuration::from_millis(100);

/// A causal endpoint, a failure detector and a membership engine as one
/// member of a group whose member `k` is addressed as `Dest::One(k)`,
/// and the one place that knows how they fit together: which wire goes
/// to which part, that entering a flush retransmits the unstable buffer
/// and then freezes delivery, that only an install which leaves the
/// engine outside any flush thaws it, that the engine hears the whole
/// suspect set on every tick. It takes the time as an argument and hands
/// back a [`Step`], so whatever hosts it — a `simnet::Process`, a test
/// with a queue of wires, an exhaustive explorer, a socket — only moves
/// messages and keeps time.
#[derive(Debug)]
pub struct Member {
    me: usize,
    endpoint: CausalEndpoint<u64>,
    detector: FailureDetector,
    engine: MembershipEngine,
    knobs: BugKnobs,
    flush_retransmits: u64,
}

impl Member {
    /// How often the host must call [`Self::on_tick`].
    pub const TICK_EVERY: SimDuration = SimDuration::from_millis(10);

    /// Creates member `me` of a group of `n`, at time zero.
    pub fn new(me: usize, n: usize, group: GroupConfig, knobs: BugKnobs) -> Self {
        let mut endpoint = CausalEndpoint::new(me, n, group);
        endpoint
            .protocol_mut()
            .debug_skip_view_reset(knobs.no_chain_reset);
        let mut engine = MembershipEngine::new(me, n);
        if knobs.no_flush_retry {
            // Effectively never: any lost flush message wedges the change.
            engine.set_retry_interval(SimDuration::from_secs(86_400));
        }
        Member {
            me,
            endpoint,
            detector: FailureDetector::new(me, n, HEARTBEAT_EVERY, SUSPECT_AFTER, SimTime::ZERO),
            engine,
            knobs,
            flush_retransmits: 0,
        }
    }

    /// The endpoint (read-only).
    pub(crate) fn endpoint(&self) -> &CausalEndpoint<u64> {
        &self.endpoint
    }

    /// The membership engine (read-only).
    pub fn engine(&self) -> &MembershipEngine {
        &self.engine
    }

    /// Unstable messages pushed to the group on entering a flush, over
    /// this member's life (T11's flush-retransmit cost).
    pub fn flush_retransmits(&self) -> u64 {
        self.flush_retransmits
    }

    /// Installs an observability probe on the endpoint (read-only).
    pub(crate) fn set_probe(&mut self, probe: ProbeHandle) {
        self.endpoint.protocol_mut().set_probe(probe);
    }

    /// Hands an arrived wire to the part it is for.
    pub fn on_wire(&mut self, now: SimTime, wire: Wire<u64>) -> Step {
        let mut step = Step::default();
        match &wire {
            Wire::Heartbeat { .. }
            | Wire::Flush { .. }
            | Wire::FlushOk { .. }
            | Wire::Install { .. } => {
                if let Wire::Heartbeat { from, .. } = wire {
                    self.detector.heard_from(from, now);
                }
                let (action, out) = self.engine.on_wire(now, &wire, self.endpoint.clock());
                step.out = out;
                self.apply(now, action, &mut step);
            }
            _ => (step.delivered, step.out) = self.endpoint.protocol_mut().on_wire(now, wire),
        }
        step
    }

    /// Periodic maintenance, due every [`Self::TICK_EVERY`]: endpoint
    /// repair, the heartbeat when one is due, suspicion, flush retries.
    pub fn on_tick(&mut self, now: SimTime) -> Step {
        let mut step = Step {
            out: self.endpoint.protocol_mut().on_tick(now),
            ..Step::default()
        };
        if self.detector.should_beat(now) {
            let hb = Wire::Heartbeat {
                from: self.me,
                view_id: self.engine.view().id,
            };
            step.out.push((Dest::All, hb));
        }
        // The full suspect set every tick, not just new suspicions: this
        // is what re-derives a completable proposal after a flush wedges
        // on a member that died before acking.
        let suspects = self.detector.check(now);
        if !suspects.is_empty() {
            let clock = self.endpoint.clock();
            let (action, out) = self.engine.suspect(now, &suspects, clock);
            step.out.extend(out);
            self.apply(now, action, &mut step);
        }
        let retries = self.engine.on_tick(now, self.endpoint.clock());
        step.out.extend(retries);
        step
    }

    /// Originates a multicast; the one delivery is the member's own.
    /// `None`, and nothing sent, while a flush suppresses sending or once
    /// the member has learned it is out of the view (the survivors would
    /// discard its traffic anyway).
    pub fn multicast(&mut self, now: SimTime, payload: u64) -> Option<Step> {
        let view = self.engine.view();
        if !self.engine.can_send() || !view.members.iter().any(|p| p.0 == self.me) {
            return None;
        }
        let (delivered, out) = self.endpoint.protocol_mut().multicast(now, payload);
        Some(Step {
            out,
            installed: None,
            delivered,
        })
    }

    /// The host came back from a crash with this state intact.
    pub(crate) fn on_recover(&mut self, now: SimTime) {
        if !self.knobs.no_detector_reset {
            // S1 fix: the heartbeat table is stale by the whole outage;
            // without a reset every peer looks dead on the next check.
            self.detector.reset(now);
        }
    }

    /// What is blocked at this member and on what (contract in
    /// [`crate::waitgraph`]): the endpoint's holdback and link-reorder
    /// waits, plus the membership layer's flush barrier — any member
    /// mid-flush blocks on the coordinator's flush phase, and at the
    /// coordinator the phase itself blocks on each member whose FlushOk
    /// is missing.
    pub(crate) fn wait_records(&self, every_gap: bool, emit: &mut dyn FnMut(&WaitRecord)) {
        self.endpoint.protocol().wait_records(every_gap, emit);
        if let Some(fw) = self.engine.flush_waits() {
            let phase = WaitNode::Phase {
                kind: PhaseKind::Flush,
                at: fw.coordinator,
            };
            let record = |blocked, waits| WaitRecord {
                blocked,
                who: self.me,
                since: fw.since,
                slot: None,
                waits,
            };
            let me = WaitNode::Proc(self.me);
            emit(&record(me, vec![(phase, WaitReason::MidFlush)]));
            // Only the coordinator tracks acks.
            if !fw.missing_acks.is_empty() {
                let acks = fw.missing_acks.iter();
                let acks = acks.map(|&q| (WaitNode::Proc(q), WaitReason::FlushOkMissing));
                emit(&record(phase, acks.collect()));
            }
        }
    }

    /// Does to the endpoint what the engine decided: delivery is frozen
    /// whenever the engine is flushing.
    fn apply(&mut self, now: SimTime, action: FlushAction, step: &mut Step) {
        let endpoint = self.endpoint.protocol_mut();
        match action {
            FlushAction::None => {}
            FlushAction::RetransmitUnstable => {
                // Our FlushOk clock must stay an upper bound on what we
                // have delivered until the flush ends.
                let flushed = endpoint.core_mut().freeze(now);
                self.flush_retransmits += flushed.len() as u64;
                step.out.extend(flushed);
            }
            FlushAction::ViewInstalled { view, cut } => {
                let members: Vec<usize> = view.members.iter().map(|p| p.0).collect();
                let id = view.id.0;
                endpoint.on_view_install(now, id, &members, &cut);
                step.installed = Some((id, members, cut));
                // The one thaw. An older view than the proposal we acked
                // leaves the engine flushing: what that proposal's cut has
                // yet to bound stays held.
                if self.engine.can_send() {
                    let (thawed, out) = endpoint.thaw(now);
                    step.out.extend(out);
                    step.delivered = thawed;
                }
            }
        }
        debug_assert!(self.engine.can_send() || self.endpoint.is_frozen());
    }
}

#[cfg(test)]
mod tests {
    use super::super::{check, NodeEvent, ProcessLog, Violation};
    use super::*;
    use crate::group::{CausalDiscipline, MsgId, View, ViewId};
    use simnet::process::ProcessId;
    use std::collections::VecDeque;

    /// A group stepped by hand: no scheduler, no network model. Wires
    /// wait in one FIFO and `deliver` hands each to its addressee.
    struct Pump {
        members: Vec<Member>,
        logs: Vec<Vec<NodeEvent>>,
        in_flight: VecDeque<(usize, Wire<u64>)>,
        /// Ticks no more and hears nothing.
        silent: Option<usize>,
        /// Whether the next `FlushOk` in flight is lost.
        lose_a_flush_ok: bool,
        /// Overhead bytes of the endpoint wires each member handed out:
        /// everything but membership traffic.
        returned: Vec<u64>,
    }

    impl Pump {
        fn new(n: usize, knobs: BugKnobs, discipline: CausalDiscipline) -> Self {
            let group = GroupConfig {
                discipline,
                ..GroupConfig::default()
            };
            Pump {
                members: (0..n)
                    .map(|me| Member::new(me, n, group.clone(), knobs))
                    .collect(),
                logs: vec![Vec::new(); n],
                in_flight: VecDeque::new(),
                silent: None,
                lose_a_flush_ok: false,
                returned: vec![0; n],
            }
        }

        fn absorb(&mut self, me: usize, step: Step) {
            for (dest, wire) in step.out {
                if !matches!(
                    wire,
                    Wire::Heartbeat { .. }
                        | Wire::Flush { .. }
                        | Wire::FlushOk { .. }
                        | Wire::Install { .. }
                ) {
                    self.returned[me] += wire.overhead_bytes() as u64;
                }
                match dest {
                    Dest::All => {
                        let peers = (0..self.members.len()).filter(|&k| k != me);
                        self.in_flight.extend(peers.map(|k| (k, wire.clone())));
                    }
                    Dest::One(k) => self.in_flight.push_back((k, wire)),
                }
            }
            if let Some((id, members, cut)) = step.installed {
                self.logs[me].push(NodeEvent::Install { id, members, cut });
            }
            let delivered = step.delivered.iter();
            self.logs[me].extend(delivered.map(|d| NodeEvent::Deliver { id: d.id }));
        }

        fn multicast(&mut self, me: usize, now: SimTime, payload: u64) -> MsgId {
            let step = self.members[me].multicast(now, payload).expect("may send");
            let id = step.delivered[0].id;
            let vt = self.members[me].endpoint().clock().clone();
            self.logs[me].push(NodeEvent::Send { id, vt });
            self.absorb(me, step);
            id
        }

        fn tick(&mut self, now: SimTime) {
            let silent = self.silent;
            for me in (0..self.members.len()).filter(|&k| Some(k) != silent) {
                let step = self.members[me].on_tick(now);
                self.absorb(me, step);
            }
        }

        fn deliver(&mut self, now: SimTime) {
            while let Some((to, wire)) = self.in_flight.pop_front() {
                if Some(to) == self.silent {
                    continue;
                }
                if self.lose_a_flush_ok && matches!(wire, Wire::FlushOk { .. }) {
                    self.lose_a_flush_ok = false;
                    continue;
                }
                let step = self.members[to].on_wire(now, wire);
                self.absorb(to, step);
            }
        }

        /// Hands `wire` to member `to` now, bypassing the FIFO.
        fn hand(&mut self, to: usize, now: SimTime, wire: Wire<u64>) {
            let step = self.members[to].on_wire(now, wire);
            self.absorb(to, step);
        }

        fn process_logs(&self) -> Vec<ProcessLog> {
            let logs = self.members.iter().zip(&self.logs).enumerate();
            logs.map(|(who, (m, events))| ProcessLog {
                who,
                alive_at_end: Some(who) != self.silent,
                events: events.clone(),
                final_clock: m.endpoint().clock().clone(),
                decode_errors: m.endpoint().stats().ts_decode_errors,
                parked: m.endpoint().parked_len() as u64,
                frozen: m.endpoint().is_frozen(),
            })
            .collect()
        }
    }

    /// Three members chat, member 2 falls silent after its heartbeat at
    /// 20 ms, and the survivors tick on to 600 ms. At the tick where the
    /// silence is noticed member 1 has a message in flight that reaches
    /// member 0 only after 0 froze: its id is returned.
    fn member_two_falls_silent(knobs: BugKnobs, lose_a_flush_ok: bool) -> (Pump, MsgId) {
        let ms = SimTime::from_millis;
        let mut g = Pump::new(3, knobs, CausalDiscipline::Cbcast);
        g.lose_a_flush_ok = lose_a_flush_ok;
        for me in 0..3 {
            g.multicast(me, ms(1), me as u64);
        }
        g.deliver(ms(2));
        let noticed = ms(20) + SUSPECT_AFTER;
        let mut late = None;
        for at in (10..=600).step_by(10).map(ms) {
            if at > ms(20) {
                g.silent = Some(2);
            }
            if at == noticed {
                late = Some(g.multicast(1, at, 99));
            }
            g.tick(at);
            if at == noticed {
                assert!(g.members[0].endpoint().is_frozen(), "coordinator flushes");
                assert!(
                    !g.members[1].endpoint().is_frozen(),
                    "Flush still in flight"
                );
            }
            g.deliver(at);
        }
        (g, late.expect("the silence was noticed"))
    }

    #[test]
    fn survivors_install_the_same_view_and_thaw_what_the_freeze_held() {
        let (g, late) = member_two_falls_silent(BugKnobs::default(), false);
        let installs = |who: usize| {
            let events = g.logs[who].iter();
            let installs = events.filter(|ev| matches!(ev, NodeEvent::Install { .. }));
            installs.cloned().collect::<Vec<_>>()
        };
        assert_eq!(installs(0).len(), 1);
        assert_eq!(installs(0), installs(1), "same id, members and cut");
        let NodeEvent::Install { id, members, cut } = &installs(0)[0] else {
            unreachable!("filtered on Install");
        };
        assert_eq!((*id, members.as_slice()), (2, &[0, 1][..]));
        assert_eq!(cut.get(1), 2, "the cut covers the message held at 0");
        // Member 0 got the late message frozen and delivered it only
        // once the view was in.
        let at = |ev: &NodeEvent| g.logs[0].iter().position(|e| e == ev);
        let (installed, thawed) = (at(&installs(0)[0]), at(&NodeEvent::Deliver { id: late }));
        assert!(installed.is_some() && installed < thawed, "{:?}", g.logs[0]);
        for m in &g.members[..2] {
            assert!(m.engine().can_send() && !m.endpoint().is_frozen());
        }
        assert_eq!(check(&g.process_logs()), Vec::new());
    }

    /// What `harness::tests::every_booked_byte_is_a_returned_wire` holds
    /// in a static group, across a crash and a view change. Member 2's
    /// message reaches member 0 alone before 2 falls silent; member 1
    /// enters the flush that removes 2 (retransmitting member 0's
    /// unstable message), has the lost one repaired while
    /// frozen, and delivers it at the install — pccast forwards it then,
    /// on the ring the install rebuilt. Every wire the endpoints hand
    /// out is booked, and nothing else is.
    #[test]
    fn every_booked_byte_is_a_returned_wire_across_a_view_change() {
        let ms = SimTime::from_millis;
        let take = |g: &mut Pump, to: usize| {
            let at = g
                .in_flight
                .iter()
                .position(|(k, w)| *k == to && matches!(w, Wire::Data(_)));
            let wire = g
                .in_flight
                .remove(at.expect("a data copy"))
                .expect("in flight")
                .1;
            g.in_flight.clear();
            wire
        };
        for discipline in [CausalDiscipline::Cbcast, CausalDiscipline::Pccast] {
            let mut g = Pump::new(3, BugKnobs::default(), discipline);
            g.multicast(0, ms(1), 1);
            g.deliver(ms(1));
            let lost = g.multicast(2, ms(1), 21);
            let copy = take(&mut g, 0);
            g.hand(0, ms(2), copy);
            g.in_flight.clear();
            g.silent = Some(2);
            let view = View {
                id: ViewId(2),
                members: vec![ProcessId(0), ProcessId(1)],
            };
            let proposed = view.clone();
            g.hand(1, ms(10), Wire::Flush { proposed, from: 0 });
            assert!(g.members[1].flush_retransmits() > 0, "{discipline:?}");
            g.hand(
                0,
                ms(11),
                Wire::Nack {
                    from: 1,
                    want: vec![lost],
                },
            );
            let repair = take(&mut g, 1);
            g.hand(1, ms(12), repair);
            assert!(g.members[1].endpoint().is_frozen(), "{discipline:?}");
            let cut = g.members[0].endpoint().clock().clone();
            g.hand(1, ms(13), Wire::Install { view, cut });
            let thawed = NodeEvent::Deliver { id: lost };
            assert_eq!(g.logs[1].last(), Some(&thawed), "{discipline:?}");
            let forwarded = g
                .in_flight
                .iter()
                .any(|(k, w)| *k == 0 && matches!(w, Wire::Data(_)));
            assert_eq!(forwarded, discipline == CausalDiscipline::Pccast);
            for (me, m) in g.members.iter().enumerate() {
                let s = m.endpoint().stats();
                let booked = s.data_overhead_bytes + s.control_bytes;
                assert_eq!(g.returned[me], booked, "{discipline:?} member {me}");
                assert_eq!(s.bytes_by_kind.iter().sum::<u64>(), booked);
            }
        }
    }

    #[test]
    fn one_lost_flush_ok_wedges_the_group_when_nothing_is_retried() {
        // Seed 2's wedge, without a fault plan: the coordinator never
        // resends its Flush, member 1 never resends its FlushOk.
        let knobs = BugKnobs {
            no_flush_retry: true,
            ..BugKnobs::default()
        };
        let (g, late) = member_two_falls_silent(knobs, true);
        for m in &g.members[..2] {
            assert!(!m.engine().can_send() && m.endpoint().is_frozen());
            assert_eq!(m.engine().view().id.0, 1);
        }
        assert!(!g.logs[0].contains(&NodeEvent::Deliver { id: late }));
        let violations = check(&g.process_logs());
        for who in 0..2 {
            assert!(
                violations.contains(&Violation::FrozenAtEnd { who }),
                "{violations:?}"
            );
        }
        // With retries on, the same loss is survived.
        let (g, _) = member_two_falls_silent(BugKnobs::default(), true);
        assert_eq!(check(&g.process_logs()), Vec::new());
    }

    /// Member 1 acks view 2 and then view 3, which removes member 3,
    /// before view 2's `Install` reaches it; m3.2 arrives in between. The
    /// late install must not thaw member 1: m3.2 is past the clock it
    /// promised for view 3, and view 3's cut leaves it out.
    #[test]
    fn a_late_install_of_an_older_view_does_not_end_a_newer_flush() {
        let ms = SimTime::from_millis;
        let view = |id, members: &[usize]| View {
            id: ViewId(id),
            members: members.iter().copied().map(ProcessId).collect(),
        };
        let mut g = Pump::new(5, BugKnobs::default(), CausalDiscipline::Cbcast);
        g.multicast(3, ms(1), 31);
        g.deliver(ms(2));
        let m3_2 = g.multicast(3, ms(3), 32);
        let copy = g.in_flight.drain(..).find(|(to, _)| *to == 1);
        let (_, copy) = copy.expect("m3.2 addressed to member 1");
        let (v2, v3) = (view(2, &[0, 1, 2, 3]), view(3, &[0, 1, 2]));
        let flush = |proposed: &View| Wire::Flush {
            proposed: proposed.clone(),
            from: 0,
        };
        g.hand(1, ms(10), flush(&v2));
        g.hand(1, ms(20), flush(&v3));
        let promised = g.in_flight.iter().find_map(|(_, w)| match w {
            Wire::FlushOk {
                view_id: ViewId(3),
                delivered,
                ..
            } => Some(delivered.clone()),
            _ => None,
        });
        let promised = promised.expect("member 1 acked view 3");
        assert_eq!(promised.get(3), 1);
        g.hand(1, ms(25), copy);
        let install = |view: View, cut: &VectorClock| Wire::Install {
            view,
            cut: cut.clone(),
        };
        g.hand(1, ms(30), install(v2, &promised));
        let delivered = |g: &Pump| g.logs[1].contains(&NodeEvent::Deliver { id: m3_2 });
        assert!(!delivered(&g), "{:?}", g.logs[1]);
        let m1 = &g.members[1];
        assert_eq!(m1.engine().view().id, ViewId(2));
        assert!(m1.endpoint().is_frozen() && !m1.engine().can_send());
        g.hand(1, ms(40), install(v3, &promised));
        let m1 = &g.members[1];
        assert_eq!(m1.engine().view().id, ViewId(3));
        assert!(!m1.endpoint().is_frozen() && m1.engine().can_send());
        assert!(!delivered(&g), "m3.2 is past view 3's cut: {:?}", g.logs[1]);
    }
}
