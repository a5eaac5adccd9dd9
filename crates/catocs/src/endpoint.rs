//! A unified facade over the five multicast disciplines.
//!
//! Experiments sweep over disciplines ("same workload, different ordering
//! guarantee"), so a single type that can be any of FIFO, causal (cbcast
//! or pccast, per [`GroupConfig::discipline`]), sequencer-total or
//! token-total keeps the harness code honest: the only thing that changes
//! between runs is the [`Discipline`].
//!
//! Every discipline's endpoint implements the crate-private `Protocol`
//! (cbcast and pccast `CausalProtocol` too, for vsync): the same entry
//! points, stats, probe, gauges and wait records. [`Endpoint`] and
//! [`CausalEndpoint`] reach it through one `match` each, so each common
//! method is written once. Every entry point that returns wires books
//! them as it returns (`EndpointStats::book`): bytes are charged where
//! they leave, by one rule, whoever holds the endpoint. Every wire comes
//! in through one door, the provided `Protocol::on_wire`: the stateless
//! checks of `wire::admit`, the discipline's `out_of_reach`, and only then
//! its body, `receive`.

use crate::abcast::AbcastEndpoint;
use crate::causal_core::CausalCore;
use crate::cbcast::CbcastEndpoint;
use crate::fbcast::FbcastEndpoint;
use crate::group::{CausalDiscipline, GroupConfig};
use crate::pccast::PccastEndpoint;
use crate::token::TokenAbcastEndpoint;
use crate::waitgraph::WaitRecord;
use crate::wire::{self, Delivery, EndpointStats, Out, Refusal, Wire};
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

/// What every discipline's endpoint is to the facades: a pure state
/// machine fed the time and wires, returning deliveries and wires. The
/// three entry points book every wire they return into `stats`.
pub(crate) trait Protocol<P> {
    /// Installs an observability probe (read-only).
    fn set_probe(&mut self, probe: ProbeHandle);

    /// Multicasts `payload`. Deliveries returned are local deliveries
    /// that became possible immediately (for FIFO and causal that is the
    /// self-delivery; total order may defer it).
    fn multicast(&mut self, now: SimTime, payload: P) -> (Vec<Delivery<P>>, Vec<Out<P>>);

    /// The group size wires are admitted against.
    fn n(&self) -> usize;

    /// Whether `wire`, past the door, lies more than `MAX_CHASE_AHEAD` past
    /// this member's state: checks that need state, but no stamp decoded
    /// and no clock scanned (those stay in the scan, in the body).
    fn out_of_reach(&self, wire: &Wire<P>) -> bool;

    /// Handles a wire the door admitted.
    fn receive(&mut self, now: SimTime, wire: Wire<P>) -> (Vec<Delivery<P>>, Vec<Out<P>>);

    /// Handles an incoming wire: the front door (`wire::admit`, then
    /// `out_of_reach`), then the body. A refused wire is counted, no more.
    fn on_wire(&mut self, now: SimTime, wire: Wire<P>) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        let admitted = wire::admit(&wire, self.n()).and_then(|()| {
            if self.out_of_reach(&wire) {
                Err(Refusal::OutOfReach)
            } else {
                Ok(())
            }
        });
        match admitted {
            Ok(()) => self.receive(now, wire),
            Err(why) => {
                self.stats_mut().refuse(why);
                (Vec::new(), Vec::new())
            }
        }
    }

    /// Periodic protocol maintenance (the token ring also passes the
    /// token on here: hold for one tick).
    fn on_tick(&mut self, now: SimTime) -> Vec<Out<P>>;

    /// Delivery statistics, and the bytes booked.
    fn stats(&self) -> &EndpointStats;

    /// The same, to count a refusal in.
    fn stats_mut(&mut self) -> &mut EndpointStats;

    /// Telemetry gauges, prefixed per discipline (`cbcast.*`, `pccast.*`,
    /// `fbcast.*`, `abcast.*`, `token.*`), for `Process::sample`.
    fn sample(&self, emit: &mut dyn FnMut(&str, f64));

    /// What is blocked at this member and on what (contract in
    /// [`crate::waitgraph`]; `every_gap` matters only where a causal
    /// holdback is walked).
    fn wait_records(&self, every_gap: bool, emit: &mut dyn FnMut(&WaitRecord));

    /// Messages currently buffered for retransmission (unstable).
    fn buffered_len(&self) -> usize;
}

/// What vsync needs of a causal algorithm beyond [`Protocol`]: the shared
/// shell and the flush choreography around a view change.
pub(crate) trait CausalProtocol<P>: Protocol<P> {
    /// The reliability shell: clock, stats, stability, buffer and
    /// holdback gauges, the flush freeze.
    fn core(&self) -> &CausalCore<P>;

    /// Mutable access to the shell.
    fn core_mut(&mut self) -> &mut CausalCore<P>;

    /// Applies an installed view's membership and cut, and leaves the
    /// freeze alone. `view_id` is pccast's link epoch.
    fn on_view_install(&mut self, now: SimTime, view_id: u64, members: &[usize], cut: &VectorClock);

    /// Ends the flush blackout: thawed deliveries, and pccast's forwards
    /// of them.
    fn thaw(&mut self, now: SimTime) -> (Vec<Delivery<P>>, Vec<Out<P>>);

    /// Bug-injection knob: skip the delta decode-chain reset at view
    /// install. pccast has no decode chains: a no-op there.
    fn debug_skip_view_reset(&mut self, _on: bool) {}
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

    /// The algorithm underneath.
    pub(crate) fn protocol(&self) -> &dyn CausalProtocol<P> {
        match self {
            CausalEndpoint::Cbcast(e) => e,
            CausalEndpoint::Pccast(e) => e,
        }
    }

    /// The algorithm underneath, mutably.
    pub(crate) fn protocol_mut(&mut self) -> &mut dyn CausalProtocol<P> {
        match self {
            CausalEndpoint::Cbcast(e) => e,
            CausalEndpoint::Pccast(e) => e,
        }
    }

    /// Whether delivery is frozen by a flush in progress.
    pub fn is_frozen(&self) -> bool {
        self.protocol().core().is_frozen()
    }

    /// The delivered vector clock.
    pub fn clock(&self) -> &VectorClock {
        self.protocol().core().clock()
    }

    /// Endpoint statistics.
    pub fn stats(&self) -> &EndpointStats {
        self.protocol().stats()
    }

    /// Messages parked awaiting a delta decode base (cbcast only).
    pub fn parked_len(&self) -> usize {
        self.protocol().core().windows.parked_len()
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

    /// The discipline underneath.
    pub(crate) fn protocol(&self) -> &dyn Protocol<P> {
        match self {
            Endpoint::Fifo(e) => e,
            Endpoint::Causal(e) => e.protocol(),
            Endpoint::Total(e) => e,
            Endpoint::TotalToken(e) => e,
        }
    }

    /// The discipline underneath, mutably.
    pub(crate) fn protocol_mut(&mut self) -> &mut dyn Protocol<P> {
        match self {
            Endpoint::Fifo(e) => e,
            Endpoint::Causal(e) => e.protocol_mut(),
            Endpoint::Total(e) => e,
            Endpoint::TotalToken(e) => e,
        }
    }

    /// Multicasts `payload` (see `Protocol::multicast`).
    pub fn multicast(&mut self, now: SimTime, payload: P) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        self.protocol_mut().multicast(now, payload)
    }

    /// Handles an incoming wire message.
    pub fn on_wire(&mut self, now: SimTime, wire: Wire<P>) -> (Vec<Delivery<P>>, Vec<Out<P>>) {
        self.protocol_mut().on_wire(now, wire)
    }

    /// Periodic protocol maintenance. The token discipline also passes
    /// the token along the ring here (hold-for-one-tick policy).
    pub fn on_tick(&mut self, now: SimTime) -> Vec<Out<P>> {
        self.protocol_mut().on_tick(now)
    }

    /// Delivery/ordering statistics (the app-facing layer).
    pub fn stats(&self) -> &EndpointStats {
        self.protocol().stats()
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

    /// The causal layer's shared shell, where one exists.
    pub(crate) fn causal_core(&self) -> Option<&CausalCore<P>> {
        match self {
            Endpoint::Causal(e) => Some(e.protocol().core()),
            _ => None,
        }
    }

    /// What is blocked at this member and on what, whichever discipline
    /// runs underneath (see `Protocol::wait_records`).
    pub fn wait_records(&self, every_gap: bool, emit: &mut dyn FnMut(&WaitRecord)) {
        self.protocol().wait_records(every_gap, emit)
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
            ep.protocol().sample(&mut |name, value| {
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
        ep.protocol()
            .sample(&mut |name, _| names.push(name.to_string()));
        assert!(names.iter().any(|n| n == "abcast.unreleased"));
    }

    #[test]
    fn token_holder_passes_on_tick() {
        let mut ep: Endpoint<u32> =
            Endpoint::new(Discipline::TotalToken, 0, 2, GroupConfig::default());
        let out = ep.on_tick(SimTime::ZERO);
        assert!(out.iter().any(|(_, w)| matches!(w, Wire::Token { .. })));
    }
}
