//! The fire-alarm example — Figure 3 ("an external channel, namely a
//! fire").
//!
//! A furnace-control process P detects a fire on two occasions and
//! multicasts "fire" warnings; a separate monitor R detects the first
//! fire going out and multicasts "fire out". The fire itself is an
//! external channel: the semantic dependency *fire-out(1) precedes
//! fire(2)* exists in the physical world, invisible to the multicast
//! layer. P's second "fire" and R's "fire out" are concurrent under
//! happens-before, so a third process Q can receive "fire out" last and
//! wrongly conclude the fire is out — under causal *and* total multicast.
//!
//! The state-level fix (§4.6): every event carries a synchronized
//! real-time timestamp; Q believes the event with the latest timestamp.
//! Event spacing (tens of ms) dwarfs clock error (<1 ms), so temporal
//! precedence is exact.

use catocs::endpoint::Discipline;
use catocs::group::GroupConfig;
use catocs::harness::{spawn_group, GroupApp, GroupCtx, GroupNode};
use catocs::wire::{Delivery, Wire};
use clocks::realtime::{RtStamp, SyncClock};
use simnet::net::NetConfig;
use simnet::sim::SimBuilder;
use simnet::time::{SimDuration, SimTime};

/// A fire-status event.
#[derive(Clone, Debug)]
pub(crate) struct FireMsg {
    /// True = fire burning; false = fire out.
    pub fire: bool,
    /// Synchronized real-time timestamp of the physical detection.
    pub stamp: RtStamp,
}

/// The environment schedule, in app-tick counts (one tick = 5 ms):
/// fire 1 at tick 2, fire-out at tick 3, fire 2 at tick 4. The events
/// are 5 ms apart — well above the clock error bound (<1 ms), well
/// below the network jitter (~18 ms), which is exactly the regime the
/// paper describes: timestamps order the events perfectly while the
/// network cannot.
const FIRE1_TICK: u32 = 2;
const OUT_TICK: u32 = 3;
const FIRE2_TICK: u32 = 4;

/// Member 0: the furnace controller P (detects both fires).
pub(crate) struct FurnaceP {
    ticks: u32,
    clock: SyncClock,
}

/// Member 1: the monitor R (detects the fire going out).
pub(crate) struct MonitorR {
    ticks: u32,
    clock: SyncClock,
}

/// Member 2: the observer Q.
pub(crate) struct ObserverQ {
    /// Naive belief: the last delivered message.
    pub naive_fire: Option<bool>,
    /// Timestamp-ordered belief.
    pub rt_fire: Option<(RtStamp, bool)>,
    /// Deliveries in order, as (fire, stamp).
    pub log: Vec<(bool, RtStamp)>,
}

impl GroupApp<FireMsg> for FurnaceP {
    fn on_tick(&mut self, ctx: &mut GroupCtx<'_>) -> Vec<FireMsg> {
        self.ticks += 1;
        if self.ticks == FIRE1_TICK || self.ticks == FIRE2_TICK {
            vec![FireMsg {
                fire: true,
                stamp: self.clock.stamp(ctx.now, 0),
            }]
        } else {
            Vec::new()
        }
    }
}

impl GroupApp<FireMsg> for MonitorR {
    fn on_tick(&mut self, ctx: &mut GroupCtx<'_>) -> Vec<FireMsg> {
        self.ticks += 1;
        if self.ticks == OUT_TICK {
            vec![FireMsg {
                fire: false,
                stamp: self.clock.stamp(ctx.now, 1),
            }]
        } else {
            Vec::new()
        }
    }
}

impl GroupApp<FireMsg> for ObserverQ {
    fn on_deliver(&mut self, _ctx: &mut GroupCtx<'_>, d: &Delivery<FireMsg>) -> Vec<FireMsg> {
        self.naive_fire = Some(d.payload.fire);
        let better = match self.rt_fire {
            None => true,
            Some((s, _)) => d.payload.stamp > s,
        };
        if better {
            self.rt_fire = Some((d.payload.stamp, d.payload.fire));
        }
        self.log.push((d.payload.fire, d.payload.stamp));
        Vec::new()
    }
}

/// The three roles, boxed for the shared harness.
pub(crate) enum FireRole {
    /// Furnace controller P.
    P(FurnaceP),
    /// Fire-out monitor R.
    R(MonitorR),
    /// Observer Q.
    Q(ObserverQ),
}

impl FireRole {
    /// Access the observer, if this role is Q.
    pub(crate) fn as_q(&self) -> Option<&ObserverQ> {
        match self {
            FireRole::Q(q) => Some(q),
            _ => None,
        }
    }
}

impl GroupApp<FireMsg> for FireRole {
    fn on_tick(&mut self, ctx: &mut GroupCtx<'_>) -> Vec<FireMsg> {
        match self {
            FireRole::P(p) => p.on_tick(ctx),
            FireRole::R(r) => r.on_tick(ctx),
            FireRole::Q(_) => Vec::new(),
        }
    }
    fn on_deliver(&mut self, ctx: &mut GroupCtx<'_>, d: &Delivery<FireMsg>) -> Vec<FireMsg> {
        match self {
            FireRole::Q(q) => q.on_deliver(ctx, d),
            _ => Vec::new(),
        }
    }
}

/// Results of one fire run.
#[derive(Clone, Debug)]
pub struct FireResult {
    /// Q's naive final belief (false = thinks the fire is out — wrong).
    pub naive_fire: Option<bool>,
    /// Q's timestamp-ordered final belief.
    pub rt_fire: Option<bool>,
    /// Whether Q received "fire out" last (the anomaly).
    pub out_delivered_last: bool,
}

/// Runs the Figure-3 scenario with clocks skewed by up to `skew_us`.
pub fn run_firemon(seed: u64, discipline: Discipline, net: NetConfig, skew_us: i64) -> FireResult {
    let mut sim = SimBuilder::new(seed).net(net).build::<Wire<FireMsg>>();
    let err = SimDuration::from_millis(1); // the paper's "< 1 ms accuracy"
    let members = spawn_group(
        &mut sim,
        3,
        discipline,
        GroupConfig::default(),
        Some(SimDuration::from_millis(5)),
        |me| match me {
            0 => FireRole::P(FurnaceP {
                ticks: 0,
                clock: SyncClock::new(skew_us, 0, err),
            }),
            1 => FireRole::R(MonitorR {
                ticks: 0,
                clock: SyncClock::new(-skew_us, 0, err),
            }),
            _ => FireRole::Q(ObserverQ {
                naive_fire: None,
                rt_fire: None,
                log: Vec::new(),
            }),
        },
    );
    sim.run_until(SimTime::from_secs(2));
    let node = sim
        .process::<GroupNode<FireMsg, FireRole>>(members[2])
        .expect("observer node");
    let q = node.app().as_q().expect("role Q");
    FireResult {
        naive_fire: q.naive_fire,
        rt_fire: q.rt_fire.map(|(_, f)| f),
        out_delivered_last: q.log.last().map(|&(f, _)| !f).unwrap_or(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::net::LatencyModel;

    fn jittery() -> NetConfig {
        NetConfig {
            latency: LatencyModel::Uniform {
                min: SimDuration::from_micros(100),
                max: SimDuration::from_millis(18),
            },
            ..NetConfig::default()
        }
    }

    #[test]
    fn external_channel_defeats_causal_multicast() {
        let mut anomalies = 0;
        for seed in 0..40 {
            let r = run_firemon(seed, Discipline::Causal, jittery(), 300);
            if r.out_delivered_last {
                anomalies += 1;
                assert_eq!(
                    r.naive_fire,
                    Some(false),
                    "seed {seed}: naive Q must believe the fire is out"
                );
            }
        }
        assert!(anomalies > 0, "expected the Figure 3 anomaly to occur");
    }

    #[test]
    fn same_anomaly_under_total_order() {
        // "Note that the same behavior could be exhibited using a
        // total-ordered multicast."
        let mut anomalies = 0;
        for seed in 0..40 {
            let r = run_firemon(seed, Discipline::Total { sequencer: 0 }, jittery(), 300);
            if r.out_delivered_last {
                anomalies += 1;
            }
        }
        assert!(anomalies > 0);
    }

    #[test]
    fn real_time_stamps_fix_the_belief() {
        // Even with ±300us clock skew, 20ms event spacing makes temporal
        // precedence exact: Q's rt belief is always "fire burning".
        for seed in 0..40 {
            let r = run_firemon(seed, Discipline::Causal, jittery(), 300);
            assert_eq!(r.rt_fire, Some(true), "seed {seed}");
        }
    }

    #[test]
    fn all_messages_delivered() {
        let r = run_firemon(3, Discipline::Causal, jittery(), 0);
        assert!(r.naive_fire.is_some());
        assert!(r.rt_fire.is_some());
    }
}
