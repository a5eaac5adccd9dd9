//! T6 — §3.4: false causality.
//!
//! Each member periodically multicasts; 30% of messages are *semantic*
//! replies to the last message the sender delivered, the rest are
//! independent (timer-driven, per the paper's example: "It could have
//! been caused by an internal timer or external input"). cbcast cannot
//! tell the difference: it delays any message whose happens-before
//! predecessors are missing. A held delivery is *falsely* delayed when
//! none of the messages it waited for is its semantic parent.
//!
//! The paper: "False causality reduces performance by unnecessarily
//! delaying messages ... The amount of false causality appears to be
//! dependent on application behavior and the causal domain or group
//! size."

use crate::table::Table;
use catocs::endpoint::Discipline;
use catocs::group::{GroupConfig, MsgId};
use catocs::harness::{spawn_group, GroupApp, GroupCtx, GroupNode};
use catocs::wire::{Delivery, Wire};
use rand::Rng;
use simnet::net::NetConfig;
use simnet::sim::SimBuilder;
use simnet::time::{SimDuration, SimTime};

/// Message payload: optional semantic parent.
#[derive(Clone, Debug)]
pub(crate) struct Msg {
    /// The message this one is a true reply to, if any.
    pub semantic_parent: Option<MsgId>,
}

/// Fraction of messages that are semantic replies.
const REPLY_FRACTION: f64 = 0.3;
/// Messages per member.
const MSGS_PER_PROC: u32 = 40;

struct Node {
    remaining: u32,
    last_delivered: Option<MsgId>,
    // Accumulators.
    delivered: u64,
    held: u64,
    falsely_held: u64,
    hold_us: u64,
    false_hold_us: u64,
}

impl Node {
    fn new() -> Self {
        Node {
            remaining: MSGS_PER_PROC,
            last_delivered: None,
            delivered: 0,
            held: 0,
            falsely_held: 0,
            hold_us: 0,
            false_hold_us: 0,
        }
    }
}

impl GroupApp<Msg> for Node {
    fn on_tick(&mut self, ctx: &mut GroupCtx<'_>) -> Vec<Msg> {
        if self.remaining == 0 {
            return Vec::new();
        }
        self.remaining -= 1;
        let semantic_parent = if ctx.rng.gen_bool(REPLY_FRACTION) {
            self.last_delivered
        } else {
            None
        };
        vec![Msg { semantic_parent }]
    }

    fn on_deliver(&mut self, _ctx: &mut GroupCtx<'_>, d: &Delivery<Msg>) -> Vec<Msg> {
        self.last_delivered = Some(d.id);
        self.delivered += 1;
        if d.was_held() {
            self.held += 1;
            let us = d.hold_time().as_micros();
            self.hold_us += us;
            let justified = match d.payload.semantic_parent {
                Some(p) => d.waited_for.contains(&p),
                None => false,
            };
            if !justified {
                self.falsely_held += 1;
                self.false_hold_us += us;
            }
        }
        Vec::new()
    }
}

/// One sweep point.
#[derive(Clone, Debug)]
pub struct FalseCausalityPoint {
    /// Group size.
    pub n: usize,
    /// Total deliveries across members.
    pub delivered: u64,
    /// Held deliveries.
    pub held: u64,
    /// Held with no semantic justification.
    pub falsely_held: u64,
    /// Mean hold time, ms.
    pub mean_hold_ms: f64,
    /// Mean hold time of false holds, ms.
    pub mean_false_hold_ms: f64,
    /// Median hold time, ms (from the `group.hold_time` histogram).
    pub p50_hold_ms: f64,
    /// 99th-percentile hold time, ms.
    pub p99_hold_ms: f64,
}

/// Measures one group size.
pub fn measure(seed: u64, n: usize) -> FalseCausalityPoint {
    let mut sim = SimBuilder::new(seed)
        .net(NetConfig::lossy_lan(0.03))
        .build::<Wire<Msg>>();
    let members = spawn_group(
        &mut sim,
        n,
        Discipline::Causal,
        GroupConfig::default(),
        Some(SimDuration::from_millis(8)),
        |_| Node::new(),
    );
    sim.run_until(SimTime::from_secs(10));
    let mut p = FalseCausalityPoint {
        n,
        delivered: 0,
        held: 0,
        falsely_held: 0,
        mean_hold_ms: 0.0,
        mean_false_hold_ms: 0.0,
        p50_hold_ms: 0.0,
        p99_hold_ms: 0.0,
    };
    let mut hold_us = 0u64;
    let mut false_hold_us = 0u64;
    for &m in &members {
        let node = sim.process::<GroupNode<Msg, Node>>(m).expect("node");
        let a = node.app();
        p.delivered += a.delivered;
        p.held += a.held;
        p.falsely_held += a.falsely_held;
        hold_us += a.hold_us;
        false_hold_us += a.false_hold_us;
    }
    if p.held > 0 {
        p.mean_hold_ms = hold_us as f64 / p.held as f64 / 1000.0;
    }
    if p.falsely_held > 0 {
        p.mean_false_hold_ms = false_hold_us as f64 / p.falsely_held as f64 / 1000.0;
    }
    // The harness records every hold into the `group.hold_time`
    // histogram; surface its tail, not just the mean.
    if let Some((_, h)) = sim
        .metrics()
        .histograms()
        .find(|(name, _)| *name == "group.hold_time")
    {
        p.p50_hold_ms = h.quantile(0.50).as_millis_f64();
        p.p99_hold_ms = h.quantile(0.99).as_millis_f64();
    }
    p
}

/// Runs the sweep.
pub fn run(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        format!(
            "T6 — §3.4 false causality ({:.0}% true replies, {MSGS_PER_PROC} msgs/proc, 3% loss)",
            REPLY_FRACTION * 100.0
        ),
        &[
            "N",
            "delivered",
            "held",
            "held %",
            "falsely held",
            "false % of held",
            "mean hold ms",
            "p50 hold ms",
            "p99 hold ms",
        ],
    );
    for &n in sizes {
        let p = measure(7, n);
        t.row(vec![
            p.n.into(),
            p.delivered.into(),
            p.held.into(),
            (100.0 * p.held as f64 / p.delivered.max(1) as f64).into(),
            p.falsely_held.into(),
            (100.0 * p.falsely_held as f64 / p.held.max(1) as f64).into(),
            p.mean_hold_ms.into(),
            p.p50_hold_ms.into(),
            p.p99_hold_ms.into(),
        ]);
    }
    t.note("only ~30% of traffic is semantically dependent, yet cbcast holds");
    t.note("messages for *any* happens-before predecessor — the delay on the");
    t.note("rest is pure false causality.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn false_causality_dominates_holds() {
        let p = measure(3, 8);
        assert!(p.held > 0, "some holds should occur");
        assert!(
            p.falsely_held * 2 >= p.held,
            "most holds are unjustified: {}/{}",
            p.falsely_held,
            p.held
        );
    }

    #[test]
    fn holds_exist_at_scale() {
        let small = measure(3, 4);
        let large = measure(3, 16);
        assert!(large.delivered > small.delivered);
        assert!(large.held > 0);
    }

    #[test]
    fn table_shape() {
        let t = run(&[4, 8]);
        assert_eq!(t.rows.len(), 2);
        assert!(t.get_f64(0, 1) > 0.0);
    }

    #[test]
    fn hold_histogram_tail_is_populated() {
        let p = measure(3, 8);
        assert!(p.held > 0);
        assert!(p.p50_hold_ms > 0.0, "{p:?}");
        assert!(p.p99_hold_ms >= p.p50_hold_ms, "{p:?}");
    }
}
