//! The trading-floor example — Figure 4 and §4.1.
//!
//! Three group members: an option-pricing server multicasting raw option
//! prices, a theoretical-pricing server that derives a theoretical price
//! from each option price (after a compute delay) and multicasts it, and
//! a monitor displaying both series.
//!
//! The paper's semantic ordering constraint: "a theoretical price is
//! ordered after the underlying option price from which it is derived and
//! before all subsequent changes to that underlying price." The new
//! option price and the old theoretical price are *concurrent* under
//! happens-before, so neither causal nor total multicast can enforce the
//! constraint — the monitor observes a **false crossing**. The
//! state-level fix carries a dependency field (base object id + version)
//! and the monitor checks freshness before display.

use catocs::endpoint::Discipline;
use catocs::group::GroupConfig;
use catocs::harness::{spawn_group, GroupApp, GroupCtx, GroupNode};
use catocs::wire::{Delivery, Wire};
use clocks::versions::{DependencyStamp, ObjectId, Version, VersionedTag};
use rand::Rng;
use simnet::net::NetConfig;
use simnet::sim::{Sim, SimBuilder};
use simnet::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// The base (option price) object id.
pub(crate) const OPTION_OBJ: ObjectId = ObjectId(1);
/// The derived (theoretical price) object id.
pub(crate) const THEO_OBJ: ObjectId = ObjectId(2);

/// Messages on the trading group.
#[derive(Clone, Debug)]
pub(crate) enum TickerMsg {
    /// A raw option price (version = per-object state clock).
    OptionPrice { version: u64, cents: i64 },
    /// A theoretical price derived from option-price `based_on`.
    TheoPrice {
        version: u64,
        cents: i64,
        based_on: u64,
    },
}

/// Member 0: the option pricing feed (random walk).
pub(crate) struct OptionServer {
    version: u64,
    cents: i64,
    remaining: u32,
}

impl OptionServer {
    /// Prices to publish in total.
    pub(crate) fn new(updates: u32) -> Self {
        OptionServer {
            version: 0,
            cents: 2550, // 25.50, as in Figure 4
            remaining: updates,
        }
    }
}

impl GroupApp<TickerMsg> for OptionServer {
    fn on_tick(&mut self, ctx: &mut GroupCtx<'_>) -> Vec<TickerMsg> {
        if self.remaining == 0 {
            return Vec::new();
        }
        self.remaining -= 1;
        self.version += 1;
        self.cents += ctx.rng.gen_range(-40i64..=60);
        vec![TickerMsg::OptionPrice {
            version: self.version,
            cents: self.cents,
        }]
    }
}

/// Member 1: derives theoretical prices after `compute_delay`.
pub(crate) struct TheoServer {
    compute_delay: SimDuration,
    queue: VecDeque<(SimTime, u64, i64)>,
    version: u64,
}

impl TheoServer {
    /// Creates the server with the given model-computation delay.
    pub(crate) fn new(compute_delay: SimDuration) -> Self {
        TheoServer {
            compute_delay,
            queue: VecDeque::new(),
            version: 0,
        }
    }
}

impl GroupApp<TickerMsg> for TheoServer {
    fn on_deliver(&mut self, ctx: &mut GroupCtx<'_>, d: &Delivery<TickerMsg>) -> Vec<TickerMsg> {
        if let TickerMsg::OptionPrice { version, cents } = d.payload {
            // The model output is worth a premium over the raw price.
            self.queue
                .push_back((ctx.now + self.compute_delay, version, cents + 125));
        }
        Vec::new()
    }

    fn on_tick(&mut self, ctx: &mut GroupCtx<'_>) -> Vec<TickerMsg> {
        let mut out = Vec::new();
        while let Some(&(ready, based_on, cents)) = self.queue.front() {
            if ready > ctx.now {
                break;
            }
            self.queue.pop_front();
            self.version += 1;
            out.push(TickerMsg::TheoPrice {
                version: self.version,
                cents,
                based_on,
            });
        }
        out
    }
}

/// Member 2: the monitor. In CATOCS mode it displays whatever arrives;
/// in state-level mode it checks the dependency field first.
pub(crate) struct Monitor {
    /// Use the dependency-tracking fix.
    state_level: bool,
    tracker: statelevel::deps::DependencyTracker,
    /// Highest option version displayed.
    latest_option_displayed: u64,
    /// False crossings observed: a theoretical price derived from an
    /// option version older than one already displayed.
    pub false_crossings: u64,
    /// Stale theoretical prices suppressed by the dependency check.
    pub suppressed_stale: u64,
    /// Total prices displayed.
    pub displayed: u64,
    /// The displayed tape: (is_theo, version-or-base, cents).
    pub tape: Vec<(bool, u64, i64)>,
}

impl Monitor {
    /// Creates a monitor; `state_level` enables the §4.1 fix.
    pub(crate) fn new(state_level: bool) -> Self {
        Monitor {
            state_level,
            tracker: statelevel::deps::DependencyTracker::new(),
            latest_option_displayed: 0,
            false_crossings: 0,
            suppressed_stale: 0,
            displayed: 0,
            tape: Vec::new(),
        }
    }
}

impl GroupApp<TickerMsg> for Monitor {
    fn on_deliver(&mut self, _ctx: &mut GroupCtx<'_>, d: &Delivery<TickerMsg>) -> Vec<TickerMsg> {
        match d.payload {
            TickerMsg::OptionPrice { version, cents } => {
                self.tracker
                    .observe_base(VersionedTag::new(OPTION_OBJ, Version(version)));
                self.latest_option_displayed = self.latest_option_displayed.max(version);
                self.displayed += 1;
                self.tape.push((false, version, cents));
            }
            TickerMsg::TheoPrice {
                version,
                cents,
                based_on,
            } => {
                let stamp = DependencyStamp::derived(
                    THEO_OBJ,
                    Version(version),
                    VersionedTag::new(OPTION_OBJ, Version(based_on)),
                );
                let fresh = self.tracker.classify(&stamp);
                let is_stale = based_on < self.latest_option_displayed;
                if self.state_level {
                    if matches!(fresh, statelevel::deps::Freshness::Stale { .. }) {
                        self.suppressed_stale += 1;
                        return Vec::new();
                    }
                    self.displayed += 1;
                    self.tape.push((true, based_on, cents));
                } else {
                    // CATOCS monitor: display blindly; count the anomaly.
                    if is_stale {
                        self.false_crossings += 1;
                    }
                    self.displayed += 1;
                    self.tape.push((true, based_on, cents));
                }
            }
        }
        Vec::new()
    }
}

/// Results of one trading run.
#[derive(Clone, Debug, Default)]
pub struct TradingResult {
    /// False crossings the monitor displayed.
    pub false_crossings: u64,
    /// Stale theoretical prices suppressed (state-level mode).
    pub suppressed_stale: u64,
    /// Prices displayed in total.
    pub displayed: u64,
    /// Deliveries held by the ordering protocol at the monitor.
    pub monitor_held: u64,
    /// Messages sent on the wire in total.
    pub net_sent: u64,
}

/// Runs the Figure-4 scenario.
///
/// * `discipline` — the ordering guarantee under test.
/// * `state_level` — whether the monitor applies the dependency fix.
/// * `updates` — number of option-price updates published.
pub fn run_trading(
    seed: u64,
    discipline: Discipline,
    state_level: bool,
    updates: u32,
    feed_period: SimDuration,
    compute_delay: SimDuration,
    net: NetConfig,
) -> TradingResult {
    let mut sim: Sim<Wire<TickerMsg>> = SimBuilder::new(seed).net(net).build();
    let cfg = GroupConfig {
        tick_interval: SimDuration::from_millis(2),
        ..GroupConfig::default()
    };
    let members = spawn_group(
        &mut sim,
        3,
        discipline,
        cfg,
        Some(feed_period),
        |me| -> Box<dyn TradingRole> {
            match me {
                0 => Box::new(OptionServer::new(updates)),
                1 => Box::new(TheoServer::new(compute_delay)),
                _ => Box::new(Monitor::new(state_level)),
            }
        },
    );
    let horizon =
        SimTime::ZERO + feed_period.saturating_mul(updates as u64 + 4) + SimDuration::from_secs(2);
    sim.run_until(horizon);
    let node = sim
        .process::<GroupNode<TickerMsg, Box<dyn TradingRole>>>(members[2])
        .expect("monitor node");
    let monitor = node.app().as_monitor().expect("member 2 is the monitor");
    TradingResult {
        false_crossings: monitor.false_crossings,
        suppressed_stale: monitor.suppressed_stale,
        displayed: monitor.displayed,
        monitor_held: node.stats().delivered_after_hold,
        net_sent: sim.metrics().counter("net.sent"),
    }
}

/// Object-safe union of the three trading roles.
pub(crate) trait TradingRole: GroupApp<TickerMsg> {
    /// Downcast to the monitor, if this role is one.
    fn as_monitor(&self) -> Option<&Monitor> {
        None
    }
}

impl TradingRole for OptionServer {}
impl TradingRole for TheoServer {}
impl TradingRole for Monitor {
    fn as_monitor(&self) -> Option<&Monitor> {
        Some(self)
    }
}

impl GroupApp<TickerMsg> for Box<dyn TradingRole> {
    fn on_activate(&mut self, ctx: &mut GroupCtx<'_>) -> Vec<TickerMsg> {
        (**self).on_activate(ctx)
    }
    fn on_deliver(&mut self, ctx: &mut GroupCtx<'_>, d: &Delivery<TickerMsg>) -> Vec<TickerMsg> {
        (**self).on_deliver(ctx, d)
    }
    fn on_tick(&mut self, ctx: &mut GroupCtx<'_>) -> Vec<TickerMsg> {
        (**self).on_tick(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jittery_net() -> NetConfig {
        NetConfig {
            latency: simnet::net::LatencyModel::Uniform {
                min: SimDuration::from_micros(200),
                max: SimDuration::from_millis(8),
            },
            ..NetConfig::default()
        }
    }

    fn run(seed: u64, d: Discipline, state_level: bool) -> TradingResult {
        run_trading(
            seed,
            d,
            state_level,
            120,
            SimDuration::from_millis(4),
            SimDuration::from_millis(3),
            jittery_net(),
        )
    }

    #[test]
    fn causal_multicast_cannot_prevent_false_crossings() {
        // The paper's central claim for Fig. 4: the anomaly survives
        // causal ordering. Aggregate across seeds to avoid flakiness.
        let total: u64 = (0..5)
            .map(|s| run(s, Discipline::Causal, false).false_crossings)
            .sum();
        assert!(
            total > 0,
            "expected at least one false crossing under cbcast"
        );
    }

    #[test]
    fn total_order_cannot_prevent_false_crossings_either() {
        let total: u64 = (0..5)
            .map(|s| run(s, Discipline::Total { sequencer: 0 }, false).false_crossings)
            .sum();
        assert!(total > 0, "abcast should not fix a semantic constraint");
    }

    #[test]
    fn dependency_fields_eliminate_false_crossings() {
        for seed in 0..5 {
            let r = run(seed, Discipline::Causal, true);
            assert_eq!(r.false_crossings, 0, "seed {seed}");
        }
    }

    #[test]
    fn state_level_fix_works_even_on_fifo_transport() {
        // The fix needs no ordered multicast at all.
        for seed in 0..3 {
            let r = run(seed, Discipline::Fifo, true);
            assert_eq!(r.false_crossings, 0, "seed {seed}");
            assert!(r.displayed > 0);
        }
    }

    #[test]
    fn monitor_sees_prices() {
        let r = run(1, Discipline::Causal, false);
        // 120 option updates + ~120 theo updates.
        assert!(r.displayed >= 200, "displayed {}", r.displayed);
        assert!(r.net_sent > 0);
    }

    #[test]
    fn suppression_only_in_state_level_mode() {
        let r = run(2, Discipline::Causal, false);
        assert_eq!(r.suppressed_stale, 0);
    }
}
