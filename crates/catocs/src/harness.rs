//! `simnet` glue: host a multicast endpoint and an application behaviour
//! inside a simulated process.
//!
//! [`GroupNode`] wires a [`Endpoint`] to the simulator: it translates the
//! endpoint's member-indexed [`Dest`]s into process sends, pumps the
//! protocol tick, and forwards deliveries to a [`GroupApp`]. Most of the
//! pure-group experiments (T5, T6, T7, T11) run on this harness; the
//! application scenarios in the `apps` crate hand-roll their own processes
//! because they mix group traffic with out-of-band channels (the whole
//! point of the paper's hidden-channel critique).

use crate::endpoint::{Discipline, Endpoint};
use crate::group::GroupConfig;
use crate::wire::{Delivery, Dest, EndpointStats, Out, Wire};
use rand::rngs::SmallRng;
use simnet::process::{Ctx, Process, ProcessId, TimerId};
use simnet::time::{SimDuration, SimTime};

/// Timer reserved for the protocol tick.
const PROTO_TICK: TimerId = TimerId(0);
/// Timer reserved for the application tick.
const APP_TICK: TimerId = TimerId(1);

/// What a [`GroupApp`] can do when called back.
pub struct GroupCtx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// This member's index.
    pub me: usize,
    /// Group size.
    pub n: usize,
    /// Deterministic randomness.
    pub rng: &'a mut SmallRng,
}

/// An application behaviour running on a group endpoint.
///
/// Methods return the payloads to multicast, which keeps the trait object
/// simple and the data flow explicit.
pub trait GroupApp<P>: 'static {
    /// Called once at start; returns initial multicasts.
    fn on_activate(&mut self, ctx: &mut GroupCtx<'_>) -> Vec<P> {
        let _ = ctx;
        Vec::new()
    }

    /// Called for every delivery; returns reactive multicasts.
    fn on_deliver(&mut self, ctx: &mut GroupCtx<'_>, delivery: &Delivery<P>) -> Vec<P> {
        let _ = (ctx, delivery);
        Vec::new()
    }

    /// Called on the application tick; returns periodic multicasts.
    fn on_tick(&mut self, ctx: &mut GroupCtx<'_>) -> Vec<P> {
        let _ = ctx;
        Vec::new()
    }
}

/// The stock workload: a member multicasts its own index `remaining`
/// times, `burst` to an application tick, and reacts to nothing. Bursts
/// land consecutive sequence numbers closer together than the NACK
/// timeout, so a dropped message holds its successors back instead of
/// being repaired before the next send.
pub struct Chatter {
    /// Multicasts still to send.
    pub remaining: u32,
    /// Multicasts per application tick.
    pub burst: u32,
}

impl<P: From<u32>> GroupApp<P> for Chatter {
    fn on_tick(&mut self, ctx: &mut GroupCtx<'_>) -> Vec<P> {
        let k = self.remaining.min(self.burst);
        self.remaining -= k;
        (0..k).map(|_| P::from(ctx.me as u32)).collect()
    }
}

/// A simulated process hosting one group member: endpoint + app.
pub struct GroupNode<P, A> {
    endpoint: Endpoint<P>,
    app: A,
    members: Vec<ProcessId>,
    me: usize,
    cfg: GroupConfig,
    app_tick: Option<SimDuration>,
    /// All deliveries seen, in order (experiments read this post-run).
    pub delivered_log: Vec<Delivery<P>>,
    /// Whether to retain the delivered log (off for big sweeps).
    pub keep_log: bool,
    /// Optional shared "active causal graph" instrumentation (§5): every
    /// send adds a node/arcs; member 0 prunes at the stable frontier.
    /// Shared via `Rc<RefCell<_>>` across the group's nodes — sound
    /// because the simulator is single-threaded.
    pub graph: Option<std::rc::Rc<std::cell::RefCell<crate::causal_graph::CausalGraph>>>,
}

impl<P: Clone + std::fmt::Debug + 'static, A: GroupApp<P>> GroupNode<P, A> {
    /// Creates a node for member `me` (of `members`) with the given
    /// discipline and app. `app_tick` is the period of the application
    /// tick, if any.
    pub fn new(
        discipline: Discipline,
        me: usize,
        members: Vec<ProcessId>,
        cfg: GroupConfig,
        app: A,
        app_tick: Option<SimDuration>,
    ) -> Self {
        let n = members.len();
        GroupNode {
            endpoint: Endpoint::new(discipline, me, n, cfg.clone()),
            app,
            members,
            me,
            cfg,
            app_tick,
            delivered_log: Vec::new(),
            keep_log: true,
            graph: None,
        }
    }

    /// The endpoint's delivery statistics.
    pub fn stats(&self) -> &EndpointStats {
        self.endpoint.stats()
    }

    /// The endpoint's transport statistics.
    pub fn transport_stats(&self) -> &EndpointStats {
        self.endpoint.transport_stats()
    }

    /// The endpoint itself (for discipline-specific inspection).
    pub fn endpoint(&self) -> &Endpoint<P> {
        &self.endpoint
    }

    /// Installs an observability probe on the endpoint — the latency
    /// ledger and the flight recorder both attach here, on the members
    /// [`spawn_group`] returns.
    pub fn set_probe(&mut self, probe: simnet::obs::ProbeHandle) {
        self.endpoint.protocol_mut().set_probe(probe);
    }

    /// The hosted application.
    pub fn app(&self) -> &A {
        &self.app
    }

    fn route(&self, ctx: &mut Ctx<'_, Wire<P>>, out: Vec<Out<P>>) {
        for (dest, wire) in out {
            match dest {
                Dest::All => {
                    // Member order: it is the order the network draws
                    // each copy's loss and latency in.
                    let peers = self.members.iter().enumerate();
                    let peers = peers.filter(|&(k, _)| k != self.me).map(|(_, &pid)| pid);
                    ctx.multicast(peers, wire);
                }
                Dest::One(k) => {
                    if let Some(&pid) = self.members.get(k) {
                        ctx.send(pid, wire);
                    }
                }
            }
        }
    }

    /// Calls back into the app with a fresh [`GroupCtx`] and returns the
    /// payloads it wants multicast.
    fn call_app(
        &mut self,
        ctx: &mut Ctx<'_, Wire<P>>,
        call: impl FnOnce(&mut A, &mut GroupCtx<'_>) -> Vec<P>,
    ) -> Vec<P> {
        let mut gctx = GroupCtx {
            now: ctx.now(),
            me: self.me,
            n: self.members.len(),
            rng: ctx.rng(),
        };
        call(&mut self.app, &mut gctx)
    }

    fn submit_all(&mut self, ctx: &mut Ctx<'_, Wire<P>>, payloads: Vec<P>) {
        for p in payloads {
            let (dels, out) = self.endpoint.multicast(ctx.now(), p);
            let core = self.endpoint.causal_core();
            if let (Some(graph), Some(vt)) = (&self.graph, core.map(|c| c.clock())) {
                // The clock right after a causal multicast IS the
                // message's timestamp.
                let id = crate::group::MsgId {
                    sender: self.me,
                    seq: vt.get(self.me),
                };
                graph.borrow_mut().on_send(id, vt, self.members.len());
            }
            self.route(ctx, out);
            self.handle_deliveries(ctx, dels);
        }
    }

    fn handle_deliveries(&mut self, ctx: &mut Ctx<'_, Wire<P>>, dels: Vec<Delivery<P>>) {
        for d in dels {
            ctx.metrics().incr("group.delivered", 1);
            if d.was_held() {
                ctx.metrics().incr("group.delivered_held", 1);
                ctx.metrics().observe("group.hold_time", d.hold_time());
            }
            let reactions = self.call_app(ctx, |app, gctx| app.on_deliver(gctx, &d));
            if self.keep_log {
                self.delivered_log.push(d);
            }
            self.submit_all(ctx, reactions);
        }
    }
}

impl<P: Clone + std::fmt::Debug + 'static, A: GroupApp<P>> Process<Wire<P>> for GroupNode<P, A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Wire<P>>) {
        ctx.set_timer(PROTO_TICK, self.cfg.tick_interval);
        if let Some(t) = self.app_tick {
            ctx.set_timer(APP_TICK, t);
        }
        let initial = self.call_app(ctx, |app, gctx| app.on_activate(gctx));
        self.submit_all(ctx, initial);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire<P>>, _from: ProcessId, msg: Wire<P>) {
        let (dels, out) = self.endpoint.on_wire(ctx.now(), msg);
        self.route(ctx, out);
        self.handle_deliveries(ctx, dels);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire<P>>, timer: TimerId) {
        match timer {
            PROTO_TICK => {
                let out = self.endpoint.on_tick(ctx.now());
                self.route(ctx, out);
                ctx.set_timer(PROTO_TICK, self.cfg.tick_interval);
                ctx.metrics().gauge_max(
                    "group.buffered_peak",
                    self.endpoint.protocol().buffered_len() as f64,
                );
                ctx.metrics().set_gauge(
                    "group.holdback_work",
                    self.endpoint.transport_stats().holdback_work as f64,
                );
                if self.me == 0 {
                    if let (Some(graph), Some(core)) = (&self.graph, self.endpoint.causal_core()) {
                        graph.borrow_mut().prune_stable(&core.stable_frontier());
                    }
                }
            }
            APP_TICK => {
                let payloads = self.call_app(ctx, |app, gctx| app.on_tick(gctx));
                self.submit_all(ctx, payloads);
                if let Some(t) = self.app_tick {
                    ctx.set_timer(APP_TICK, t);
                }
            }
            _ => {}
        }
    }

    fn sample(&self, emit: &mut dyn FnMut(&str, f64)) {
        self.endpoint.protocol().sample(emit);
    }
}

/// Hands an endpoint's outbound messages to the network, for a process
/// that drives an endpoint itself in a group whose member `k` is
/// `ProcessId(k)`. `Dest::All` goes to every member but `me` in member
/// order: the order the network draws each copy's loss and latency in.
pub fn route<P>(ctx: &mut Ctx<'_, Wire<P>>, me: usize, n: usize, out: Vec<Out<P>>) {
    for (dest, wire) in out {
        match dest {
            Dest::All => ctx.multicast((0..n).filter(|&k| k != me).map(ProcessId), wire),
            Dest::One(k) => ctx.send(ProcessId(k), wire),
        }
    }
}

/// Builds a full group of [`GroupNode`]s in a fresh set of processes and
/// returns their ids. All nodes share the discipline, config and an app
/// produced per member by `make_app`.
pub fn spawn_group<P, A, F>(
    sim: &mut simnet::sim::Sim<Wire<P>>,
    n: usize,
    discipline: Discipline,
    cfg: GroupConfig,
    app_tick: Option<SimDuration>,
    mut make_app: F,
) -> Vec<ProcessId>
where
    P: Clone + std::fmt::Debug + 'static,
    A: GroupApp<P>,
    F: FnMut(usize) -> A,
{
    let base = sim.n_processes();
    let members: Vec<ProcessId> = (0..n).map(|i| ProcessId(base + i)).collect();
    for me in 0..n {
        let node = GroupNode::new(
            discipline,
            me,
            members.clone(),
            cfg.clone(),
            make_app(me),
            app_tick,
        );
        sim.add_process(node);
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cbcast::CbcastEndpoint;
    use crate::group::{CausalDiscipline, MsgId};
    use crate::wire::{DataMsg, VtWire};
    use simnet::net::NetConfig;
    use simnet::sim::SimBuilder;
    use std::sync::Arc;

    /// Each member multicasts `count` messages on its app tick, then goes
    /// quiet. Used to smoke-test the harness end to end.
    struct Chatter {
        remaining: u32,
        seen: Vec<(usize, u64)>,
    }

    impl GroupApp<u32> for Chatter {
        fn on_tick(&mut self, ctx: &mut GroupCtx<'_>) -> Vec<u32> {
            if self.remaining > 0 {
                self.remaining -= 1;
                vec![ctx.me as u32]
            } else {
                Vec::new()
            }
        }
        fn on_deliver(&mut self, _ctx: &mut GroupCtx<'_>, d: &Delivery<u32>) -> Vec<u32> {
            self.seen.push((d.id.sender, d.id.seq));
            Vec::new()
        }
    }

    #[test]
    fn group_of_causal_nodes_delivers_everything() {
        let mut sim = SimBuilder::new(7)
            .net(NetConfig::lossy_lan(0.05))
            .build::<Wire<u32>>();
        let members = spawn_group(
            &mut sim,
            4,
            Discipline::Causal,
            GroupConfig::default(),
            Some(SimDuration::from_millis(20)),
            |_| Chatter {
                remaining: 5,
                seen: Vec::new(),
            },
        );
        sim.run_until(SimTime::from_secs(5));
        // 4 members × 5 messages; every member sees all 20.
        for &m in &members {
            let node = sim
                .process::<GroupNode<u32, Chatter>>(m)
                .expect("node present");
            assert_eq!(node.app().seen.len(), 20, "member {m} missed messages");
            assert_eq!(node.stats().delivered, 20);
        }
    }

    #[test]
    fn causal_order_holds_under_loss_and_reorder() {
        let mut sim = SimBuilder::new(3)
            .net(NetConfig::lossy_lan(0.1))
            .build::<Wire<u32>>();
        let members = spawn_group(
            &mut sim,
            3,
            Discipline::Causal,
            GroupConfig::default(),
            Some(SimDuration::from_millis(15)),
            |_| Chatter {
                remaining: 10,
                seen: Vec::new(),
            },
        );
        sim.run_until(SimTime::from_secs(5));
        // FIFO-per-sender is implied by causal: each member's view of each
        // sender must be 1,2,3...
        for &m in &members {
            let node = sim.process::<GroupNode<u32, Chatter>>(m).unwrap();
            let mut per_sender: std::collections::HashMap<usize, u64> = Default::default();
            for &(s, q) in &node.app().seen {
                let e = per_sender.entry(s).or_insert(0);
                assert_eq!(q, *e + 1, "sender {s} out of order at {m}");
                *e = q;
            }
        }
    }

    /// The wait graph over `Endpoint::wait_records` for the disciplines
    /// the chaos campaigns do not drive: sampled every 50 ms through a
    /// clean lossy run, the order and token waits come and go but never
    /// close into a cycle that persists, and a drained group waits on
    /// nothing.
    #[test]
    fn total_order_wait_graphs_have_no_persistent_cycle() {
        use crate::waitgraph::{analyze, StallTracker, WaitEdge};
        for discipline in [Discipline::Total, Discipline::TotalToken] {
            let mut sim = SimBuilder::new(11)
                .net(NetConfig::lossy_lan(0.1))
                .build::<Wire<u32>>();
            let members = spawn_group(
                &mut sim,
                5,
                discipline,
                GroupConfig::default(),
                Some(SimDuration::from_millis(20)),
                |_| Chatter {
                    remaining: 12,
                    seen: Vec::new(),
                },
            );
            let mut tracker = StallTracker::new();
            let (mut most, mut last) = (0, 0);
            for tick in 1..=100 {
                let now = SimTime::from_millis(50 * tick);
                sim.run_until(now);
                let mut edges: Vec<WaitEdge> = Vec::new();
                for &m in &members {
                    let node = sim.process::<GroupNode<u32, Chatter>>(m).unwrap();
                    let endpoint = node.endpoint();
                    endpoint.wait_records(false, &mut |record| edges.extend(record.edges()));
                }
                let snap = analyze(&edges, now, &mut tracker);
                assert_eq!(snap.persistent_cycles(), 0, "{discipline:?} at {now:?}");
                most = most.max(edges.len());
                last = edges.len();
            }
            assert!(most > 0, "{discipline:?}: the run never waited on anything");
            // What is left is the token ring's idle state: no member has
            // anything queued or held.
            let node = sim.process::<GroupNode<u32, Chatter>>(members[0]).unwrap();
            assert_eq!(node.app().seen.len(), 60, "{discipline:?}");
            assert!(
                last <= 1,
                "{discipline:?}: {last} waits after the group drained"
            );
        }
    }

    #[test]
    fn total_order_identical_across_members() {
        let mut sim = SimBuilder::new(11)
            .net(NetConfig::lossy_lan(0.05))
            .build::<Wire<u32>>();
        let members = spawn_group(
            &mut sim,
            4,
            Discipline::Total,
            GroupConfig::default(),
            Some(SimDuration::from_millis(25)),
            |_| Chatter {
                remaining: 4,
                seen: Vec::new(),
            },
        );
        sim.run_until(SimTime::from_secs(5));
        let mut sequences = Vec::new();
        for &m in &members {
            let node = sim.process::<GroupNode<u32, Chatter>>(m).unwrap();
            sequences.push(node.app().seen.clone());
        }
        for s in &sequences[1..] {
            assert_eq!(s, &sequences[0], "total order must be identical");
        }
        assert_eq!(sequences[0].len(), 16);
    }

    #[test]
    fn fifo_group_delivers_per_sender_order() {
        let mut sim = SimBuilder::new(5)
            .net(NetConfig::lossy_lan(0.1))
            .build::<Wire<u32>>();
        let members = spawn_group(
            &mut sim,
            3,
            Discipline::Fifo,
            GroupConfig::default(),
            Some(SimDuration::from_millis(10)),
            |_| Chatter {
                remaining: 8,
                seen: Vec::new(),
            },
        );
        sim.run_until(SimTime::from_secs(5));
        for &m in &members {
            let node = sim.process::<GroupNode<u32, Chatter>>(m).unwrap();
            assert_eq!(node.app().seen.len(), 24);
        }
    }

    #[test]
    fn token_group_delivers_identically() {
        let mut sim = SimBuilder::new(13)
            .net(NetConfig::ideal(SimDuration::from_millis(1)))
            .build::<Wire<u32>>();
        let members = spawn_group(
            &mut sim,
            3,
            Discipline::TotalToken,
            GroupConfig::default(),
            Some(SimDuration::from_millis(30)),
            |_| Chatter {
                remaining: 3,
                seen: Vec::new(),
            },
        );
        sim.run_until(SimTime::from_secs(5));
        let mut sequences = Vec::new();
        for &m in &members {
            let node = sim.process::<GroupNode<u32, Chatter>>(m).unwrap();
            sequences.push(node.app().seen.clone());
        }
        for s in &sequences[1..] {
            assert_eq!(s, &sequences[0]);
        }
        assert_eq!(sequences[0].len(), 9);
    }

    /// Member 0 multicasts once when the run starts; every member keeps
    /// what the network hands it.
    struct Stamped {
        endpoint: Option<CbcastEndpoint<u32>>,
        got: Vec<Wire<u32>>,
    }

    impl Process<Wire<u32>> for Stamped {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Wire<u32>>) {
            if let Some(endpoint) = &mut self.endpoint {
                let (_, out) = endpoint.multicast(ctx.now(), 7);
                route(ctx, 0, ctx.n_processes(), out);
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<'_, Wire<u32>>, _from: ProcessId, msg: Wire<u32>) {
            self.got.push(msg);
        }
    }

    /// The simulator clones a multicast's wire once per recipient as it
    /// pops the arrival: every copy, and the sender's retained one, holds
    /// the one stamp the sender encoded.
    #[test]
    fn the_copies_of_a_multicast_share_one_stamp() {
        const N: usize = 5;
        let mut sim = SimBuilder::new(1).build::<Wire<u32>>();
        for me in 0..N {
            let endpoint = (me == 0).then(|| CbcastEndpoint::new(0, N, GroupConfig::default()));
            sim.add_process(Stamped {
                endpoint,
                got: Vec::new(),
            });
        }
        sim.run_until(SimTime::from_secs(1));
        let stamp = |d: &DataMsg<u32>| match &d.vt_wire {
            VtWire::Full(bytes) => bytes.clone(),
            other => panic!("a fresh cbcast multicast is stamped full, not {other:?}"),
        };
        let sender = sim.process::<Stamped>(ProcessId(0)).expect("member 0");
        let id = MsgId { sender: 0, seq: 1 };
        let core = sender.endpoint.as_ref().expect("member 0 sends").core();
        let retained = stamp(core.windows.get(id).expect("retained until stable"));
        for r in 1..N {
            let got = &sim.process::<Stamped>(ProcessId(r)).expect("member").got;
            let [Wire::Data(copy)] = &got[..] else {
                panic!("member {r} got {got:?}, not the one data copy");
            };
            assert!(Arc::ptr_eq(&stamp(copy), &retained), "member {r}");
        }
    }

    /// Hosts an endpoint as [`GroupNode`] does — the protocol tick, and a
    /// multicast on each of the first `remaining` app ticks — and adds up
    /// `overhead_bytes()` over every wire the endpoint returns, once a
    /// wire whatever its destination.
    struct Tallied {
        endpoint: Endpoint<u32>,
        me: usize,
        n: usize,
        remaining: u32,
        returned_bytes: u64,
        /// Ticks that returned more than one NACK: in the causal
        /// disciplines, a retry round split over its targets.
        split_rounds: u32,
    }

    impl Tallied {
        fn send(&mut self, ctx: &mut Ctx<'_, Wire<u32>>, out: Vec<Out<u32>>) {
            let bytes: usize = out.iter().map(|(_, w)| w.overhead_bytes()).sum();
            self.returned_bytes += bytes as u64;
            route(ctx, self.me, self.n, out);
        }
    }

    const TALLY_APP_TICK: SimDuration = SimDuration::from_millis(20);

    impl Process<Wire<u32>> for Tallied {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Wire<u32>>) {
            ctx.set_timer(PROTO_TICK, GroupConfig::default().tick_interval);
            ctx.set_timer(APP_TICK, TALLY_APP_TICK);
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, Wire<u32>>, _from: ProcessId, msg: Wire<u32>) {
            let (_, out) = self.endpoint.on_wire(ctx.now(), msg);
            self.send(ctx, out);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire<u32>>, timer: TimerId) {
            let out = if timer == PROTO_TICK {
                ctx.set_timer(PROTO_TICK, GroupConfig::default().tick_interval);
                let out = self.endpoint.on_tick(ctx.now());
                let nacks = out.iter().filter(|(_, w)| matches!(w, Wire::Nack { .. }));
                self.split_rounds += u32::from(nacks.count() > 1);
                out
            } else if self.remaining > 0 {
                self.remaining -= 1;
                ctx.set_timer(APP_TICK, TALLY_APP_TICK);
                self.endpoint.multicast(ctx.now(), self.me as u32).1
            } else {
                return;
            };
            self.send(ctx, out);
        }
    }

    /// Every byte an endpoint books is a byte it sends. Over a lossy run
    /// (NACKs, retransmissions, token passes and their acks, order
    /// assignments, pccast's relays and link acks) the wires each member
    /// returns sum to its `data_overhead_bytes + control_bytes`, in every
    /// discipline. The sequencer books over two layers: order traffic in
    /// its own stats, dissemination in its causal substrate's. At N=5 a
    /// causal retry round is one NACK to everyone; at N=8 it is split over
    /// its targets, one NACK each, and each of those is booked once.
    #[test]
    fn every_booked_byte_is_a_returned_wire() {
        for (n, d, discipline) in [
            (5, Discipline::Fifo, CausalDiscipline::Cbcast),
            (5, Discipline::TotalToken, CausalDiscipline::Cbcast),
            (5, Discipline::Causal, CausalDiscipline::Cbcast),
            (5, Discipline::Causal, CausalDiscipline::Pccast),
            (5, Discipline::Total, CausalDiscipline::Cbcast),
            (8, Discipline::Causal, CausalDiscipline::Cbcast),
            (8, Discipline::Causal, CausalDiscipline::Pccast),
        ] {
            let cfg = GroupConfig {
                discipline,
                ..GroupConfig::default()
            };
            // Lossier at N=8, so that pccast, whose links repair most
            // losses, has retry rounds too.
            let loss = if n > 5 { 0.15 } else { 0.05 };
            let mut sim = SimBuilder::new(7)
                .net(NetConfig::lossy_lan(loss))
                .build::<Wire<u32>>();
            for me in 0..n {
                sim.add_process(Tallied {
                    endpoint: Endpoint::new(d, me, n, cfg.clone()),
                    me,
                    n,
                    remaining: 20,
                    returned_bytes: 0,
                    split_rounds: 0,
                });
            }
            sim.run_until(SimTime::from_secs(2));
            let booked = |s: &EndpointStats| s.data_overhead_bytes + s.control_bytes;
            let (mut served, mut split) = (0, 0);
            for me in 0..n {
                let node = sim.process::<Tallied>(ProcessId(me)).expect("member");
                let ep = &node.endpoint;
                let layers = match ep {
                    Endpoint::Total(_) => booked(ep.stats()) + booked(ep.transport_stats()),
                    _ => booked(ep.stats()),
                };
                assert_eq!(
                    node.returned_bytes, layers,
                    "{d:?}/{discipline:?} member {me}"
                );
                for s in [ep.stats(), ep.transport_stats()] {
                    assert_eq!(s.bytes_by_kind.iter().sum::<u64>(), booked(s));
                }
                assert!(ep.stats().sent > 0 && ep.stats().delivered > 0);
                served += ep.transport_stats().retransmits_served;
                split += node.split_rounds;
            }
            assert!(served > 0, "{d:?}/{discipline:?}: nothing was repaired");
            if d == Discipline::Causal {
                assert_eq!(split > 0, n > 5, "n={n} {discipline:?}");
            }
        }
    }
}
