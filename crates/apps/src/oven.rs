//! Real-time oven monitoring — §4.6.
//!
//! Sensors stream temperature samples; the controller's view is correct
//! to the extent its stored value tracks the physical oven ("sufficient
//! consistency"). The paper's claim: CATOCS *reduces* correctness here,
//! because holdback delays and retransmission of lost old samples keep
//! the monitor's value stale, whereas the right design delivers the most
//! recent reading immediately and simply drops older ones
//! (latest-wins by real-time timestamp).
//!
//! Experiment T13 measures mean/max staleness (age of the monitor's
//! stored sample) for the CATOCS path versus the state-level path under
//! identical loss and jitter.

use catocs::endpoint::Discipline;
use catocs::group::GroupConfig;
use catocs::harness::{spawn_group, GroupApp, GroupCtx, GroupNode};
use catocs::wire::{Delivery, Wire};
use clocks::versions::{ObjectId, Version};
use simnet::net::NetConfig;
use simnet::process::{Ctx, Process, ProcessId, TimerId};
use simnet::sim::SimBuilder;
use simnet::time::{SimDuration, SimTime};
use statelevel::prescriptive::{PrescriptiveInbox, PrescriptivePolicy};

/// A sensor sample.
#[derive(Clone, Debug)]
pub(crate) struct Sample {
    /// Which sensor.
    pub sensor: usize,
    /// Sample sequence number at that sensor.
    pub seq: u64,
    /// Sampled temperature (deci-degrees).
    pub temp: i64,
    /// Real-time timestamp of the physical sample.
    pub taken_at: SimTime,
}

/// Ground-truth oven temperature at `t` (a slow ramp plus oscillation).
pub(crate) fn oven_truth(t: SimTime) -> i64 {
    let secs = t.as_secs_f64();
    (2000.0 + 20.0 * secs + 150.0 * (secs * 3.0).sin()) as i64
}

/// Staleness statistics accumulated by a monitor.
#[derive(Clone, Debug, Default)]
pub(crate) struct Staleness {
    samples: u64,
    total_us: u64,
    max_us: u64,
}

impl Staleness {
    /// Records the age of the stored value at an observation instant.
    pub(crate) fn record(&mut self, age: SimDuration) {
        self.samples += 1;
        self.total_us += age.as_micros();
        self.max_us = self.max_us.max(age.as_micros());
    }

    /// Mean age.
    pub(crate) fn mean(&self) -> SimDuration {
        match self.total_us.checked_div(self.samples) {
            None => SimDuration::ZERO,
            Some(mean) => SimDuration::from_micros(mean),
        }
    }

    /// Maximum age.
    pub(crate) fn max(&self) -> SimDuration {
        SimDuration::from_micros(self.max_us)
    }

    /// Observation count.
    pub(crate) fn count(&self) -> u64 {
        self.samples
    }
}

// ---------------------------------------------------------------------
// CATOCS path: sensors + monitor in a causal group.
// ---------------------------------------------------------------------

/// Group member roles for the CATOCS path.
pub(crate) enum OvenRole {
    /// A sensor publishing on every app tick.
    Sensor {
        /// Sensor index.
        me: usize,
        /// Next sequence number.
        seq: u64,
        /// Samples still to publish.
        remaining: u32,
    },
    /// The monitoring controller.
    Monitor(OvenMonitor),
}

/// The monitor state shared by both paths.
#[derive(Default)]
pub(crate) struct OvenMonitor {
    /// Latest stored sample time.
    pub latest_taken_at: Option<SimTime>,
    /// Latest stored temperature.
    pub latest_temp: i64,
    /// Staleness sampled at every delivery.
    pub staleness: Staleness,
}

impl OvenMonitor {
    fn observe(&mut self, now: SimTime, taken_at: SimTime, temp: i64) {
        if self.latest_taken_at.map(|t| taken_at > t).unwrap_or(true) {
            self.latest_taken_at = Some(taken_at);
            self.latest_temp = temp;
        }
        // Age of the *stored* value right now.
        if let Some(t) = self.latest_taken_at {
            self.staleness.record(now.saturating_since(t));
        }
    }
}

impl OvenRole {
    /// Access the monitor, if this role is one.
    pub(crate) fn as_monitor(&self) -> Option<&OvenMonitor> {
        match self {
            OvenRole::Monitor(m) => Some(m),
            _ => None,
        }
    }
}

impl GroupApp<Sample> for OvenRole {
    fn on_tick(&mut self, ctx: &mut GroupCtx<'_>) -> Vec<Sample> {
        match self {
            OvenRole::Sensor { me, seq, remaining } => {
                if *remaining == 0 {
                    return Vec::new();
                }
                *remaining -= 1;
                *seq += 1;
                vec![Sample {
                    sensor: *me,
                    seq: *seq,
                    temp: oven_truth(ctx.now),
                    taken_at: ctx.now,
                }]
            }
            OvenRole::Monitor(_) => Vec::new(),
        }
    }

    fn on_deliver(&mut self, ctx: &mut GroupCtx<'_>, d: &Delivery<Sample>) -> Vec<Sample> {
        if let OvenRole::Monitor(m) = self {
            m.observe(ctx.now, d.payload.taken_at, d.payload.temp);
        }
        Vec::new()
    }
}

/// Results of one oven run.
#[derive(Clone, Debug)]
pub struct OvenResult {
    /// Mean age of the monitor's stored value at observation points.
    pub mean_staleness: SimDuration,
    /// Worst-case age.
    pub max_staleness: SimDuration,
    /// Updates the monitor processed.
    pub observations: u64,
    /// Messages on the wire.
    pub net_sent: u64,
}

/// Runs the CATOCS path: `sensors` sensors + 1 monitor in a causal group.
pub fn run_oven_catocs(
    seed: u64,
    sensors: usize,
    samples_per_sensor: u32,
    period: SimDuration,
    net: NetConfig,
) -> OvenResult {
    let mut sim = SimBuilder::new(seed).net(net).build::<Wire<Sample>>();
    let members = spawn_group(
        &mut sim,
        sensors + 1,
        Discipline::Causal,
        GroupConfig::default(),
        Some(period),
        |me| {
            if me < sensors {
                OvenRole::Sensor {
                    me,
                    seq: 0,
                    remaining: samples_per_sensor,
                }
            } else {
                OvenRole::Monitor(OvenMonitor::default())
            }
        },
    );
    sim.run_until(SimTime::ZERO + period.saturating_mul(samples_per_sensor as u64 + 20));
    let node = sim
        .process::<GroupNode<Sample, OvenRole>>(members[sensors])
        .expect("monitor");
    let m = node.app().as_monitor().expect("monitor role");
    OvenResult {
        mean_staleness: m.staleness.mean(),
        max_staleness: m.staleness.max(),
        observations: m.staleness.count(),
        net_sent: sim.metrics().counter("net.sent"),
    }
}

// ---------------------------------------------------------------------
// State-level path: raw datagrams + latest-wins inbox.
// ---------------------------------------------------------------------

/// A sensor in the state-level path: sends directly to the monitor.
pub(crate) struct RawSensor {
    me: usize,
    monitor: ProcessId,
    period: SimDuration,
    seq: u64,
    remaining: u32,
}

const SAMPLE_TICK: TimerId = TimerId(0);

impl Process<Sample> for RawSensor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Sample>) {
        ctx.set_timer(SAMPLE_TICK, self.period);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Sample>, _t: TimerId) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        self.seq += 1;
        ctx.send(
            self.monitor,
            Sample {
                sensor: self.me,
                seq: self.seq,
                temp: oven_truth(ctx.now()),
                taken_at: ctx.now(),
            },
        );
        ctx.set_timer(SAMPLE_TICK, self.period);
    }
}

/// The state-level monitor: latest-wins per sensor, no holdback ever.
pub(crate) struct RawMonitor {
    inbox: PrescriptiveInbox<(i64, SimTime)>,
    /// Shared monitor state.
    pub core: OvenMonitor,
}

impl Process<Sample> for RawMonitor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Sample>, _from: ProcessId, msg: Sample) {
        let released = self.inbox.offer(
            ObjectId(msg.sensor as u64),
            Version(msg.seq),
            (msg.temp, msg.taken_at),
            ctx.now(),
        );
        for r in released {
            self.core.observe(ctx.now(), r.body.1, r.body.0);
        }
    }
}

/// Runs the state-level path with identical workload and network.
pub fn run_oven_state(
    seed: u64,
    sensors: usize,
    samples_per_sensor: u32,
    period: SimDuration,
    net: NetConfig,
) -> OvenResult {
    let mut sim = SimBuilder::new(seed).net(net).build::<Sample>();
    let monitor_pid = ProcessId(sensors);
    for me in 0..sensors {
        sim.add_process(RawSensor {
            me,
            monitor: monitor_pid,
            period,
            seq: 0,
            remaining: samples_per_sensor,
        });
    }
    sim.add_process(RawMonitor {
        inbox: PrescriptiveInbox::new(PrescriptivePolicy::LatestWins),
        core: OvenMonitor::default(),
    });
    sim.run_until(SimTime::ZERO + period.saturating_mul(samples_per_sensor as u64 + 20));
    let m: &RawMonitor = sim.process(monitor_pid).expect("monitor");
    OvenResult {
        mean_staleness: m.core.staleness.mean(),
        max_staleness: m.core.staleness.max(),
        observations: m.core.staleness.count(),
        net_sent: sim.metrics().counter("net.sent"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::net::LatencyModel;

    fn lossy(p: f64) -> NetConfig {
        NetConfig {
            latency: LatencyModel::Uniform {
                min: SimDuration::from_micros(500),
                max: SimDuration::from_millis(6),
            },
            drop_probability: p,
            ..NetConfig::default()
        }
    }

    #[test]
    fn truth_is_smooth() {
        let a = oven_truth(SimTime::from_millis(0));
        let b = oven_truth(SimTime::from_millis(100));
        assert!((a - b).abs() < 500);
    }

    #[test]
    fn both_paths_track_the_oven() {
        let c = run_oven_catocs(1, 3, 60, SimDuration::from_millis(10), lossy(0.0));
        let s = run_oven_state(1, 3, 60, SimDuration::from_millis(10), lossy(0.0));
        assert!(c.observations > 100);
        assert!(s.observations > 100);
    }

    #[test]
    fn state_level_staleness_no_worse_under_loss() {
        // Under loss, CATOCS recovery (NACK + retransmit + holdback)
        // costs staleness; latest-wins just waits for the next sample.
        let mut c_total = 0u64;
        let mut s_total = 0u64;
        for seed in 0..3 {
            let c = run_oven_catocs(seed, 3, 80, SimDuration::from_millis(10), lossy(0.15));
            let s = run_oven_state(seed, 3, 80, SimDuration::from_millis(10), lossy(0.15));
            c_total += c.mean_staleness.as_micros();
            s_total += s.mean_staleness.as_micros();
        }
        assert!(
            s_total <= c_total,
            "state mean staleness {s_total} should not exceed catocs {c_total}"
        );
    }

    #[test]
    fn catocs_sends_more_messages() {
        let c = run_oven_catocs(2, 3, 60, SimDuration::from_millis(10), lossy(0.1));
        let s = run_oven_state(2, 3, 60, SimDuration::from_millis(10), lossy(0.1));
        assert!(c.net_sent > s.net_sent);
    }
}
