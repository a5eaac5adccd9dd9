//! The shop-floor control example — Figure 2 and §3.1 ("unrecognized
//! causality").
//!
//! Two shop-floor-control (SFC) instances share a database. Client A
//! sends "start processing lot A" to instance 1, waits for the reply,
//! then sends "stop processing lot A" to instance 2. Each instance
//! updates the shared database and multicasts the result to the group.
//! The database serializes the two updates — but that ordering flows
//! through a *hidden channel* the multicast layer cannot see, so the two
//! multicasts are concurrent under happens-before and causal multicast
//! may deliver "stop" before "start" at an observer.
//!
//! The state-level fix (§3.1): the database stamps each update with a lot
//! version; observers apply updates through a [`VersionedStore`], which
//! makes delivery order irrelevant.

use catocs::cbcast::CbcastEndpoint;
use catocs::group::GroupConfig;
use catocs::wire::{Delivery, Dest, Out, Wire};
use clocks::versions::{ObjectId, Version, VersionedTag};
use simnet::net::NetConfig;
use simnet::process::{Ctx, Process, ProcessId, TimerId};
use simnet::sim::SimBuilder;
use simnet::time::{SimDuration, SimTime};
use statelevel::versioned::VersionedStore;

/// The lot being controlled.
pub(crate) const LOT: ObjectId = ObjectId(42);

/// A group multicast payload: lot state changed.
#[derive(Clone, Debug)]
pub(crate) struct LotUpdate {
    /// True = "stop processing", false = "start processing".
    pub stop: bool,
    /// The database-assigned version (the state-level clock).
    pub version: u64,
}

/// Every message in the scenario.
#[derive(Clone, Debug)]
pub(crate) enum ShopMsg {
    /// Client → SFC instance: start/stop request.
    Request { stop: bool },
    /// SFC → client: done.
    RequestReply,
    /// SFC → database: apply the update.
    DbWrite { stop: bool },
    /// Database → SFC: serialized, with the assigned version.
    DbReply { stop: bool, version: u64 },
    /// Group traffic (causal multicast layer).
    Group(Wire<LotUpdate>),
}

const TICK: TimerId = TimerId(0);
const TICK_EVERY: SimDuration = SimDuration::from_millis(5);

/// Group member indices → simulator processes: the SFC instances are
/// P0/P1 (colocated with the database P2 and client P3 on the factory
/// LAN); the observer (Client B) is P4, across the jittery link — the
/// paper's clients receive the multicasts over the wide communication
/// substrate while the SFC↔database traffic is local.
fn member_pid(idx: usize) -> ProcessId {
    match idx {
        0 => ProcessId(0),
        1 => ProcessId(1),
        _ => ProcessId(4),
    }
}

fn route(ctx: &mut Ctx<'_, ShopMsg>, me: usize, out: Vec<Out<LotUpdate>>) {
    for (dest, wire) in out {
        match dest {
            Dest::All => ctx.multicast(
                (0..3).filter(|&k| k != me).map(member_pid),
                ShopMsg::Group(wire),
            ),
            Dest::One(k) => ctx.send(member_pid(k), ShopMsg::Group(wire)),
        }
    }
}

/// An SFC instance: group member 0 or 1.
pub(crate) struct SfcInstance {
    me: usize,
    endpoint: CbcastEndpoint<LotUpdate>,
    client: Option<ProcessId>,
    db: ProcessId,
}

impl SfcInstance {
    /// Creates instance `me` (member index), talking to database `db`.
    pub(crate) fn new(me: usize, db: ProcessId) -> Self {
        SfcInstance {
            me,
            endpoint: CbcastEndpoint::new(me, 3, GroupConfig::default()),
            client: None,
            db,
        }
    }
}

impl Process<ShopMsg> for SfcInstance {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ShopMsg>) {
        ctx.set_timer(TICK, TICK_EVERY);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ShopMsg>, from: ProcessId, msg: ShopMsg) {
        match msg {
            ShopMsg::Request { stop } => {
                self.client = Some(from);
                // The shared database is the hidden channel: this
                // interaction is invisible to the multicast layer.
                ctx.send(self.db, ShopMsg::DbWrite { stop });
            }
            ShopMsg::DbReply { stop, version } => {
                let (_self_delivery, out) = self
                    .endpoint
                    .multicast(ctx.now(), LotUpdate { stop, version });
                route(ctx, self.me, out);
                if let Some(client) = self.client {
                    ctx.send(client, ShopMsg::RequestReply);
                }
            }
            ShopMsg::Group(w) => {
                let (_dels, out) = self.endpoint.on_wire(ctx.now(), w);
                route(ctx, self.me, out);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ShopMsg>, _t: TimerId) {
        let out = self.endpoint.on_tick(ctx.now());
        route(ctx, self.me, out);
        ctx.set_timer(TICK, TICK_EVERY);
    }
}

/// The observer (Client B): group member 2. Tracks both the naive
/// delivery-order state and the version-checked state.
pub(crate) struct Observer {
    endpoint: CbcastEndpoint<LotUpdate>,
    /// Delivery-order state: last delivered update wins.
    pub naive_stopped: Option<bool>,
    /// Version-checked state.
    pub store: VersionedStore<bool>,
    /// The sequence of (version, stop) as delivered.
    pub delivered: Vec<(u64, bool)>,
}

impl Observer {
    /// A fresh observer.
    pub(crate) fn new() -> Self {
        Observer {
            endpoint: CbcastEndpoint::new(2, 3, GroupConfig::default()),
            naive_stopped: None,
            store: VersionedStore::new(),
            delivered: Vec::new(),
        }
    }

    fn apply(&mut self, d: &Delivery<LotUpdate>) {
        self.naive_stopped = Some(d.payload.stop);
        self.store.apply_remote(
            VersionedTag::new(LOT, Version(d.payload.version)),
            d.payload.stop,
        );
        self.delivered.push((d.payload.version, d.payload.stop));
    }
}

impl Default for Observer {
    fn default() -> Self {
        Self::new()
    }
}

impl Process<ShopMsg> for Observer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ShopMsg>) {
        ctx.set_timer(TICK, TICK_EVERY);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ShopMsg>, _from: ProcessId, msg: ShopMsg) {
        if let ShopMsg::Group(w) = msg {
            let (dels, out) = self.endpoint.on_wire(ctx.now(), w);
            for d in &dels {
                self.apply(d);
            }
            route(ctx, 2, out);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ShopMsg>, _t: TimerId) {
        let out = self.endpoint.on_tick(ctx.now());
        route(ctx, 2, out);
        ctx.set_timer(TICK, TICK_EVERY);
    }
}

/// The shared database: serializes updates, assigns versions.
pub(crate) struct Database {
    version: u64,
}

impl Database {
    /// A fresh database.
    pub(crate) fn new() -> Self {
        Database { version: 0 }
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Process<ShopMsg> for Database {
    fn on_message(&mut self, ctx: &mut Ctx<'_, ShopMsg>, from: ProcessId, msg: ShopMsg) {
        if let ShopMsg::DbWrite { stop } = msg {
            self.version += 1;
            ctx.send(
                from,
                ShopMsg::DbReply {
                    stop,
                    version: self.version,
                },
            );
        }
    }
}

/// Client A: starts the lot at instance 1, then stops it at instance 2.
pub(crate) struct ClientA {
    sent_stop: bool,
}

impl ClientA {
    /// A fresh client.
    pub(crate) fn new() -> Self {
        ClientA { sent_stop: false }
    }
}

impl Default for ClientA {
    fn default() -> Self {
        Self::new()
    }
}

impl Process<ShopMsg> for ClientA {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ShopMsg>) {
        ctx.send(member_pid(0), ShopMsg::Request { stop: false });
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ShopMsg>, _from: ProcessId, msg: ShopMsg) {
        if matches!(msg, ShopMsg::RequestReply) && !self.sent_stop {
            self.sent_stop = true;
            ctx.send(member_pid(1), ShopMsg::Request { stop: true });
        }
    }
}

/// Results of one shop-floor run.
#[derive(Clone, Debug)]
pub struct ShopfloorResult {
    /// Did the observer deliver "stop" before "start"?
    pub misordered: bool,
    /// Naive (delivery-order) final state says the lot is stopped.
    pub naive_final_stopped: Option<bool>,
    /// Version-checked final state says the lot is stopped.
    pub versioned_final_stopped: Option<bool>,
    /// Stale updates the versioned store rejected.
    pub stale_rejected: u64,
}

/// Runs the Figure-2 scenario once.
pub fn run_shopfloor(seed: u64, net: NetConfig) -> ShopfloorResult {
    let mut sim = SimBuilder::new(seed).net(net).build::<ShopMsg>();
    let db = ProcessId(2);
    sim.add_process(SfcInstance::new(0, db)); // P0, member 0
    sim.add_process(SfcInstance::new(1, db)); // P1, member 1
    sim.add_process(Database::new()); // P2
    sim.add_process(ClientA::new()); // P3
    sim.add_process(Observer::new()); // P4, member 2
    sim.run_until(SimTime::from_secs(2));
    let obs: &Observer = sim.process(ProcessId(4)).expect("observer");
    let misordered = obs.delivered.first().map(|&(v, _)| v != 1).unwrap_or(false);
    ShopfloorResult {
        misordered,
        naive_final_stopped: obs.naive_stopped,
        versioned_final_stopped: obs.store.get(LOT).map(|r| r.value),
        stale_rejected: obs.store.stale_rejected(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::net::LatencyModel;

    /// The paper's Figure-2 geometry: client and database channels are
    /// local and fast (the dashed "outside the substrate" lines), while
    /// the communications substrate between the SFC sites and out to the
    /// observer is wide and jittery.
    fn jittery() -> NetConfig {
        const W: f64 = 30.0; // substrate distance
                             // P0=SFC1, P1=SFC2, P2=DB, P3=client, P4=observer.
        let dist = vec![
            vec![0.0, W, 1.0, 1.0, W],
            vec![W, 0.0, 1.0, 1.0, W],
            vec![1.0, 1.0, 0.0, 1.0, W],
            vec![1.0, 1.0, 1.0, 0.0, W],
            vec![W, W, W, W, 0.0],
        ];
        NetConfig {
            latency: LatencyModel::Spatial {
                per_unit: SimDuration::from_micros(400),
                jitter: SimDuration::from_micros(300),
            },
            topology: simnet::topology::Topology::explicit(dist),
            ..NetConfig::default()
        }
    }

    #[test]
    fn hidden_channel_defeats_causal_multicast() {
        // Across many seeds, at least one run misorders start/stop at the
        // observer — the Figure 2 anomaly.
        let mut anomalies = 0;
        let mut naive_wrong = 0;
        for seed in 0..40 {
            let r = run_shopfloor(seed, jittery());
            assert!(
                r.naive_final_stopped.is_some(),
                "observer saw updates (seed {seed})"
            );
            if r.misordered {
                anomalies += 1;
                if r.naive_final_stopped == Some(false) {
                    naive_wrong += 1;
                }
            }
        }
        assert!(anomalies > 0, "expected at least one misordered run");
        assert!(
            naive_wrong > 0,
            "misordering should corrupt the naive observer state"
        );
    }

    #[test]
    fn version_numbers_fix_the_final_state() {
        // The §3.1 fix: whatever the delivery order, the versioned state
        // ends correct ("stopped").
        for seed in 0..40 {
            let r = run_shopfloor(seed, jittery());
            assert_eq!(
                r.versioned_final_stopped,
                Some(true),
                "seed {seed}: versioned store must end stopped"
            );
            if r.misordered {
                assert!(r.stale_rejected > 0, "seed {seed}: stale update rejected");
            }
        }
    }

    #[test]
    fn without_jitter_no_anomaly() {
        // On an ideal FIFO network the two multicasts arrive in true
        // order; this isolates the jitter as the anomaly trigger.
        let r = run_shopfloor(7, NetConfig::ideal(SimDuration::from_millis(1)));
        assert!(!r.misordered);
        assert_eq!(r.naive_final_stopped, Some(true));
    }
}
