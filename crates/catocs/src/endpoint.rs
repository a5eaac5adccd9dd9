//! A unified facade over the five multicast disciplines.
//!
//! Experiments sweep over disciplines ("same workload, different ordering
//! guarantee"), so a single type that can be any of FIFO, causal (cbcast
//! or pccast, per [`GroupConfig::discipline`]), sequencer-total or
//! token-total keeps the harness code honest: the only thing that changes
//! between runs is the [`Discipline`].

use crate::abcast::AbcastEndpoint;
use crate::causal_core::CausalCore;
use crate::cbcast::CbcastEndpoint;
use crate::fbcast::FbcastEndpoint;
use crate::group::{CausalDiscipline, GroupConfig};
use crate::pccast::PccastEndpoint;
use crate::token::TokenAbcastEndpoint;
use crate::waitgraph::WaitRecord;
use crate::wire::{Delivery, EndpointStats, Out, Wire};
use clocks::vector::VectorClock;
use simnet::obs::ProbeHandle;
use simnet::time::SimTime;

/// Which ordering guarantee an endpoint provides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// Per-sender FIFO only (the conventional-transport baseline).
    Fifo,
    /// Causal (happens-before) delivery — cbcast.
    Causal,
    /// Total order via a fixed sequencer — abcast.
    Total { sequencer: usize },
    /// Total order via a rotating token.
    TotalToken,
}

/// A causal endpoint running either causal-delivery algorithm, selected
/// by [`GroupConfig::discipline`]: vector-timestamp cbcast or
/// constant-metadata pccast. Everything above this facade — harnesses,
/// chaos campaigns, probes, telemetry — is algorithm-agnostic, which is
/// what lets the equivalence proptests and the invariant checker run
/// unchanged against both.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum CausalEndpoint<P> {
    /// ISIS-style vector-timestamp cbcast.
    Cbcast(CbcastEndpoint<P>),
    /// PC-broadcast-style constant-metadata pccast.
    Pccast(PccastEndpoint<P>),
}

impl<P: Clone> CausalEndpoint<P> {
    /// Creates the endpoint for member `me` of a group of `n`, running
    /// the algorithm named by `cfg.discipline`.
    pub(crate) fn new(me: usize, n: usize, cfg: GroupConfig) -> Self {
        match cfg.discipline {
            CausalDiscipline::Cbcast => CausalEndpoint::Cbcast(CbcastEndpoint::new(me, n, cfg)),
            CausalDiscipline::Pccast => CausalEndpoint::Pccast(PccastEndpoint::new(me, n, cfg)),
        }
    }

    /// The reliability shell both algorithms embed: clock, stats,
    /// stability, buffer and holdback gauges, the flush freeze.
    pub(crate) fn core(&self) -> &CausalCore<P> {
        match self {
            CausalEndpoint::Cbcast(e) => e.core(),
            CausalEndpoint::Pccast(e) => e.core(),
        }
    }

    /// Mutable access to the shared shell.
    pub(crate) fn core_mut(&mut self) -> &mut CausalCore<P> {
        match self {
            CausalEndpoint::Cbcast(e) => e.core_mut(),
            CausalEndpoint::Pccast(e) => e.core_mut(),
        }
    }

    /// Installs an observability probe (read-only).
    pub(crate) fn set_probe(&mut self, probe: ProbeHandle) {
        self.core_mut().set_probe(probe);
    }

    /// Bug-injection knob: skip the delta decode-chain reset at view
    /// install. Meaningful only for cbcast; pccast has no decode chains,
    /// so this is a no-op there.
    pub(crate) fn debug_skip_view_reset(&mut self, on: bool) {
        if let CausalEndpoint::Cbcast(e) = self {
            e.debug_skip_view_reset(on);
        }
    }

    /// Enters a flush ([`CausalCore::freeze`]) until `Self::thaw`.
    pub(crate) fn freeze(&mut self, now: SimTime) -> Vec<Out<P>> {
        self.core_mut().freeze(now)
    }

    /// Whether delivery is frozen by a flush in progress.
    pub fn is_frozen(&self) -> bool {
        self.core().is_frozen()
    }

    /// The delivered vector clock.
    pub fn clock(&self) -> &VectorClock {
        self.core().clock()
    }

    /// Endpoint statistics.
    pub fn stats(&self) -> &EndpointStats {
        self.core().stats()
    }

    /// Messages parked awaiting a delta decode base (cbcast only; pccast
    /// buffers per link instead and never parks).
    pub fn parked_len(&self) -> usize {
        match self {
            CausalEndpoint::Cbcast(e) => e.parked_len(),
            CausalEndpoint::Pccast(_) => 0,
        }
    }

    /// Telemetry gauges, prefixed `cbcast.` or `pccast.` per algorithm.
    pub(crate) fn sample(&self, emit: &mut dyn FnMut(&str, f64)) {
        match self {
            CausalEndpoint::Cbcast(e) => e.sample(emit),
            CausalEndpoint::Pccast(e) => e.sample(emit),
        }
    }

    /// What every blocked message here waits on (contract in
    /// [`crate::waitgraph`]).
    pub(crate) fn wait_records(&self, every_gap: bool, emit: &mut dyn FnMut(&WaitRecord)) {
        match self {
            CausalEndpoint::Cbcast(e) => e.wait_records(every_gap, emit),
            CausalEndpoint::Pccast(e) => e.wait_records(every_gap, emit),
        }
    }

    /// Applies an installed view's membership and cut, and leaves the
    /// freeze alone. `view_id` is pccast's link epoch.
    pub(crate) fn on_view_install(
        &mut self,
        now: SimTime,
        view_id: u64,
        members: &[usize],
        cut: &VectorClock,
    ) {
        match self {
            CausalEndpoint::Cbcast(e) => e.on_view_install(now, members, cut),
            CausalEndpoint::Pccast(e) => e.on_view_install(now, view_id, members, cut),
        }
    }

    /// Ends the flush blackout: thawed deliveries, and pccast's forwards
    /// of them.
    pub(crate) fn thaw(&mut self, now: SimTime) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        match self {
            CausalEndpoint::Cbcast(e) => (e.thaw(now), Vec::new()),
            CausalEndpoint::Pccast(e) => e.thaw(now),
        }
    }

    /// Multicasts `payload`; the self-delivery is immediate.
    pub(crate) fn multicast(&mut self, now: SimTime, payload: P) -> (Delivery<P>, Vec<Out<P>>) {
        match self {
            CausalEndpoint::Cbcast(e) => e.multicast(now, payload),
            CausalEndpoint::Pccast(e) => e.multicast(now, payload),
        }
    }

    /// Handles an incoming wire message.
    pub(crate) fn on_wire(
        &mut self,
        now: SimTime,
        wire: Wire<P>,
    ) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        match self {
            CausalEndpoint::Cbcast(e) => e.on_wire(now, wire),
            CausalEndpoint::Pccast(e) => e.on_wire(now, wire),
        }
    }

    /// Periodic protocol maintenance.
    pub(crate) fn on_tick(&mut self, now: SimTime) -> Vec<Out<P>> {
        match self {
            CausalEndpoint::Cbcast(e) => e.on_tick(now),
            CausalEndpoint::Pccast(e) => e.on_tick(now),
        }
    }
}

/// One group member's multicast endpoint, any discipline.
// Each simulated node owns exactly one of these, so the size spread
// between variants never multiplies.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Endpoint<P> {
    /// FIFO.
    Fifo(FbcastEndpoint<P>),
    /// Causal — cbcast or pccast per [`GroupConfig::discipline`].
    Causal(CausalEndpoint<P>),
    /// Sequencer total order.
    Total(AbcastEndpoint<P>),
    /// Token total order.
    TotalToken(TokenAbcastEndpoint<P>),
}

impl<P: Clone> Endpoint<P> {
    /// Creates an endpoint for member `me` of a group of `n`.
    pub fn new(d: Discipline, me: usize, n: usize, cfg: GroupConfig) -> Self {
        match d {
            Discipline::Fifo => Endpoint::Fifo(FbcastEndpoint::new(me, n, cfg)),
            Discipline::Causal => Endpoint::Causal(CausalEndpoint::new(me, n, cfg)),
            Discipline::Total { sequencer } => {
                Endpoint::Total(AbcastEndpoint::new(me, n, sequencer, cfg))
            }
            Discipline::TotalToken => Endpoint::TotalToken(TokenAbcastEndpoint::new(me, n, cfg)),
        }
    }

    /// Installs an observability probe on whichever discipline runs
    /// underneath; the probe sees the same span/wait event stream no
    /// matter which ordering guarantee is active.
    pub(crate) fn set_probe(&mut self, probe: ProbeHandle) {
        match self {
            Endpoint::Fifo(e) => e.set_probe(probe),
            Endpoint::Causal(e) => e.set_probe(probe),
            Endpoint::Total(e) => e.set_probe(probe),
            Endpoint::TotalToken(e) => e.set_probe(probe),
        }
    }

    /// Multicasts `payload`. Deliveries returned are local deliveries that
    /// became possible immediately (for FIFO/causal that includes the
    /// self-delivery; total order may defer it).
    pub fn multicast(&mut self, now: SimTime, payload: P) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        match self {
            Endpoint::Fifo(e) => {
                let (d, o) = e.multicast(now, payload);
                (vec![d], o)
            }
            Endpoint::Causal(e) => {
                let (d, o) = e.multicast(now, payload);
                (vec![d], o)
            }
            Endpoint::Total(e) => e.multicast(now, payload),
            Endpoint::TotalToken(e) => e.submit(now, payload),
        }
    }

    /// Handles an incoming wire message.
    pub fn on_wire(&mut self, now: SimTime, wire: Wire<P>) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        match self {
            Endpoint::Fifo(e) => e.on_wire(now, wire),
            Endpoint::Causal(e) => e.on_wire(now, wire),
            Endpoint::Total(e) => e.on_wire(now, wire),
            Endpoint::TotalToken(e) => e.on_wire(now, wire),
        }
    }

    /// Periodic protocol maintenance. The token discipline also passes
    /// the token along the ring here (hold-for-one-tick policy).
    pub fn on_tick(&mut self, now: SimTime) -> Vec<Out<P>> {
        match self {
            Endpoint::Fifo(e) => e.on_tick(now),
            Endpoint::Causal(e) => e.on_tick(now),
            Endpoint::Total(e) => e.on_tick(now),
            Endpoint::TotalToken(e) => {
                let mut out = e.on_tick(now);
                if let Some(pass) = e.pass_token(now) {
                    out.push(pass);
                }
                out
            }
        }
    }

    /// Delivery/ordering statistics (the app-facing layer).
    pub fn stats(&self) -> &EndpointStats {
        match self {
            Endpoint::Fifo(e) => e.stats(),
            Endpoint::Causal(e) => e.stats(),
            Endpoint::Total(e) => e.stats(),
            Endpoint::TotalToken(e) => e.stats(),
        }
    }

    /// Transport-layer statistics, where distinct from [`Self::stats`]
    /// (the sequencer design separates causal dissemination from order
    /// release).
    pub(crate) fn transport_stats(&self) -> &EndpointStats {
        match self {
            Endpoint::Total(e) => e.causal_stats(),
            other => other.stats(),
        }
    }

    /// The causal layer's delivered vector clock, where one exists.
    pub(crate) fn clock(&self) -> Option<&clocks::vector::VectorClock> {
        match self {
            Endpoint::Causal(e) => Some(e.clock()),
            _ => None,
        }
    }

    /// The causal layer's stable frontier, where one exists.
    pub(crate) fn stable_frontier(&self) -> Option<clocks::vector::VectorClock> {
        match self {
            Endpoint::Causal(e) => Some(e.core().stable_frontier()),
            _ => None,
        }
    }

    /// Telemetry hook: forwards to the discipline-specific gauge emitter.
    /// Metric names are prefixed per discipline (`cbcast.*`, `fbcast.*`,
    /// `abcast.*`, `token.*`) so a mixed-discipline run keeps them apart.
    pub(crate) fn sample(&self, emit: &mut dyn FnMut(&str, f64)) {
        match self {
            Endpoint::Fifo(e) => e.sample(emit),
            Endpoint::Causal(e) => e.sample(emit),
            Endpoint::Total(e) => e.sample(emit),
            Endpoint::TotalToken(e) => e.sample(emit),
        }
    }

    /// What is blocked at this member and on what, whichever discipline
    /// runs underneath (contract in [`crate::waitgraph`]; `every_gap`
    /// matters only where a causal holdback is walked).
    pub fn wait_records(&self, every_gap: bool, emit: &mut dyn FnMut(&WaitRecord)) {
        match self {
            Endpoint::Fifo(e) => e.wait_records(emit),
            Endpoint::Causal(e) => e.wait_records(every_gap, emit),
            Endpoint::Total(e) => e.wait_records(every_gap, emit),
            Endpoint::TotalToken(e) => e.wait_records(emit),
        }
    }

    /// Messages currently buffered for retransmission (unstable).
    pub(crate) fn buffered_len(&self) -> usize {
        match self {
            Endpoint::Fifo(e) => e.buffered_len(),
            Endpoint::Causal(e) => e.core().buffered_len(),
            Endpoint::Total(e) => e.causal_stats().buffered_now as usize,
            Endpoint::TotalToken(e) => e.stats().buffered_now as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_matches_discipline() {
        let cfg = GroupConfig::default();
        for d in [
            Discipline::Fifo,
            Discipline::Causal,
            Discipline::Total { sequencer: 0 },
            Discipline::TotalToken,
        ] {
            let ep: Endpoint<u32> = Endpoint::new(d, 1, 3, cfg.clone());
            match (d, &ep) {
                (Discipline::Fifo, Endpoint::Fifo(_)) => {}
                (Discipline::Causal, Endpoint::Causal(_)) => {}
                (Discipline::Total { .. }, Endpoint::Total(_)) => {}
                (Discipline::TotalToken, Endpoint::TotalToken(_)) => {}
                _ => panic!("mismatched endpoint"),
            }
        }
    }

    #[test]
    fn fifo_and_causal_self_deliver_immediately() {
        let cfg = GroupConfig::default();
        let now = SimTime::ZERO;
        for d in [Discipline::Fifo, Discipline::Causal] {
            let mut ep: Endpoint<u32> = Endpoint::new(d, 0, 3, cfg.clone());
            let (dels, _) = ep.multicast(now, 7);
            assert_eq!(dels.len(), 1, "{:?}", d);
            assert_eq!(ep.stats().sent, 1);
        }
    }

    #[test]
    fn total_non_sequencer_defers_self_delivery() {
        let mut ep: Endpoint<u32> = Endpoint::new(
            Discipline::Total { sequencer: 0 },
            1,
            3,
            GroupConfig::default(),
        );
        let (dels, _) = ep.multicast(SimTime::ZERO, 7);
        assert!(dels.is_empty());
    }

    #[test]
    fn sample_emits_discipline_prefixed_gauges() {
        let cfg = GroupConfig::default();
        for (d, prefix) in [
            (Discipline::Fifo, "fbcast."),
            (Discipline::Causal, "cbcast."),
            (Discipline::Total { sequencer: 0 }, "cbcast."),
            (Discipline::TotalToken, "token."),
        ] {
            let ep: Endpoint<u32> = Endpoint::new(d, 1, 3, cfg.clone());
            let mut names = Vec::new();
            ep.sample(&mut |name, value| {
                assert!(value.is_finite());
                names.push(name.to_string());
            });
            assert!(
                names.iter().any(|n| n.starts_with(prefix)),
                "{:?} emitted {:?}",
                d,
                names
            );
        }
        // The sequencer design samples both layers.
        let ep: Endpoint<u32> = Endpoint::new(Discipline::Total { sequencer: 0 }, 1, 3, cfg);
        let mut names = Vec::new();
        ep.sample(&mut |name, _| names.push(name.to_string()));
        assert!(names.iter().any(|n| n == "abcast.unreleased"));
    }

    /// A member id off the wire indexes per-member state in every
    /// discipline (ROADMAP 1e): one from outside the group must be
    /// refused at the front door and counted, not panic three calls down.
    #[test]
    fn member_ids_outside_the_group_are_refused_at_the_front_door() {
        use crate::group::MsgId;
        use crate::wire::DataMsg;
        const N: usize = 3;
        let masked = |s: &EndpointStats| {
            // A refused copy is still a receipt where receipts are
            // counted before admission (cbcast, pccast).
            let s = EndpointStats {
                ts_decode_errors: 0,
                data_received: 0,
                ..s.clone()
            };
            format!("{s:?}")
        };
        for (d, discipline, refused) in [
            (Discipline::Fifo, CausalDiscipline::Cbcast, 4),
            (Discipline::Causal, CausalDiscipline::Cbcast, 4),
            (Discipline::Causal, CausalDiscipline::Pccast, 4),
            (
                Discipline::Total { sequencer: 0 },
                CausalDiscipline::Cbcast,
                4,
            ),
            // The token ring has no use for gossip: nothing to refuse.
            (Discipline::TotalToken, CausalDiscipline::Cbcast, 2),
        ] {
            let cfg = GroupConfig {
                discipline,
                ..GroupConfig::default()
            };
            let mut a: Endpoint<u32> = Endpoint::new(d, 0, N, cfg.clone());
            let mut b: Endpoint<u32> = Endpoint::new(d, 1, N, cfg);
            let before = (masked(b.stats()), masked(b.transport_stats()));
            for who in [N, usize::MAX] {
                let gossip = Wire::AckGossip {
                    from: who,
                    delivered: VectorClock::new(N),
                };
                let id = MsgId {
                    sender: who,
                    seq: 1,
                };
                let data = Wire::Data(DataMsg::new(id, VectorClock::new(N), 9));
                for hostile in [gossip, data] {
                    let (dels, out) = b.on_wire(SimTime::ZERO, hostile);
                    assert!(dels.is_empty() && out.is_empty(), "{d:?}/{discipline:?}");
                }
            }
            let after = (masked(b.stats()), masked(b.transport_stats()));
            assert_eq!(before, after, "{d:?}/{discipline:?}");
            let errors = b.transport_stats().ts_decode_errors;
            assert_eq!(errors, refused, "{d:?}/{discipline:?}");
            // The endpoint still works: a's first multicast delivers.
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
    fn token_holder_passes_on_tick() {
        let mut ep: Endpoint<u32> =
            Endpoint::new(Discipline::TotalToken, 0, 2, GroupConfig::default());
        let out = ep.on_tick(SimTime::ZERO);
        assert!(out.iter().any(|(_, w)| matches!(w, Wire::Token { .. })));
    }
}
