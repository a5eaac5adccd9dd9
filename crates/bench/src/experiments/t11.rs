//! T11 — §5: view-change (membership) cost versus group size.
//!
//! A causal group chats; one member crashes; heartbeats time out; the
//! coordinator runs the flush protocol and installs the new view. We
//! measure the flush message count and the send-blackout duration — the
//! costs the paper flags: "Membership change protocols also suppress the
//! sending of new messages during a significant portion of the protocol."

use crate::table::Table;
use catocs::cbcast::CbcastEndpoint;
use catocs::failure::FailureDetector;
use catocs::group::GroupConfig;
use catocs::harness::route;
use catocs::membership::{FlushAction, MembershipEngine};
use catocs::wire::{Dest, Wire};
use simnet::net::NetConfig;
use simnet::process::{Ctx, Process, ProcessId, TimerId};
use simnet::sim::SimBuilder;
use simnet::time::{SimDuration, SimTime};

const TICK: TimerId = TimerId(0);
const APP: TimerId = TimerId(1);
const TICK_EVERY: SimDuration = SimDuration::from_millis(10);

/// A full virtual-synchrony member: endpoint + detector + membership.
pub struct MemberNode {
    me: usize,
    n: usize,
    endpoint: CbcastEndpoint<u64>,
    detector: FailureDetector,
    engine: MembershipEngine,
    msgs_left: u32,
    next: u64,
    /// Multicasts suppressed because a flush was in progress.
    pub suppressed_sends: u32,
}

impl MemberNode {
    /// Creates member `me` of `n`.
    pub fn new(me: usize, n: usize, msgs: u32) -> Self {
        MemberNode {
            me,
            n,
            endpoint: CbcastEndpoint::new(me, n, GroupConfig::default()),
            detector: FailureDetector::new(
                me,
                n,
                SimDuration::from_millis(20),
                SimDuration::from_millis(100),
                SimTime::ZERO,
            ),
            engine: MembershipEngine::new(me, n),
            msgs_left: msgs,
            next: 0,
            suppressed_sends: 0,
        }
    }

    /// The membership engine (read post-run).
    pub fn engine(&self) -> &MembershipEngine {
        &self.engine
    }

    fn handle_action(&mut self, ctx: &mut Ctx<'_, Wire<u64>>, action: FlushAction) {
        match action {
            FlushAction::RetransmitUnstable => {
                let flushed = self.endpoint.core_mut().flush_unstable();
                ctx.metrics()
                    .incr("t11.flush_retransmits", flushed.len() as u64);
                route(ctx, self.me, self.n, flushed);
                // Delivery blackout: our FlushOk clock must stay an upper
                // bound on what we have delivered until the view installs.
                self.endpoint.core_mut().freeze(ctx.now());
            }
            FlushAction::ViewInstalled { view, cut } => {
                let members: Vec<usize> = view.members.iter().map(|p| p.0).collect();
                let thawed = self.endpoint.on_view_install(ctx.now(), &members, &cut);
                ctx.metrics()
                    .incr("t11.thawed_deliveries", thawed.len() as u64);
            }
            FlushAction::None => {}
        }
    }
}

impl Process<Wire<u64>> for MemberNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Wire<u64>>) {
        ctx.set_timer(TICK, TICK_EVERY);
        ctx.set_timer(APP, SimDuration::from_millis(15));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire<u64>>, _f: ProcessId, msg: Wire<u64>) {
        match &msg {
            Wire::Heartbeat { from, view_id } => {
                self.detector.heard_from(*from, ctx.now());
                let out = self.engine.on_heartbeat(*from, *view_id);
                route(ctx, self.me, self.n, out);
            }
            Wire::Flush { .. } | Wire::FlushOk { .. } | Wire::Install { .. } => {
                let clock = self.endpoint.core().clock().clone();
                let (action, out) = self.engine.on_wire(ctx.now(), &msg, &clock);
                route(ctx, self.me, self.n, out);
                self.handle_action(ctx, action);
            }
            _ => {
                let (_dels, out) = self.endpoint.on_wire(ctx.now(), msg);
                route(ctx, self.me, self.n, out);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire<u64>>, t: TimerId) {
        match t {
            TICK => {
                let out = self.endpoint.on_tick(ctx.now());
                route(ctx, self.me, self.n, out);
                if self.detector.should_beat(ctx.now()) {
                    let hb = Wire::Heartbeat {
                        from: self.me,
                        view_id: self.engine.view().id,
                    };
                    route(ctx, self.me, self.n, vec![(Dest::All, hb)]);
                }
                // Feed the engine the *full* suspect set every tick, not
                // just new suspicions: if a flush wedges on a proposal
                // member that died before acking, this is what re-derives
                // a proposal the survivors can actually complete.
                self.detector.check(ctx.now());
                let suspects = self.detector.suspects();
                if !suspects.is_empty() {
                    let clock = self.endpoint.core().clock().clone();
                    let (action, out) = self.engine.suspect(ctx.now(), &suspects, &clock);
                    route(ctx, self.me, self.n, out);
                    self.handle_action(ctx, action);
                }
                let clock = self.endpoint.core().clock().clone();
                let retries = self.engine.on_tick(ctx.now(), &clock);
                route(ctx, self.me, self.n, retries);
                ctx.set_timer(TICK, TICK_EVERY);
            }
            APP => {
                if self.msgs_left > 0 {
                    if self.engine.can_send() {
                        self.msgs_left -= 1;
                        self.next += 1;
                        let (_d, out) = self.endpoint.multicast(ctx.now(), self.next);
                        route(ctx, self.me, self.n, out);
                    } else {
                        self.suppressed_sends += 1;
                    }
                }
                ctx.set_timer(APP, SimDuration::from_millis(15));
            }
            _ => {}
        }
    }
}

/// One measurement point.
#[derive(Clone, Debug)]
pub struct ViewChangePoint {
    /// Group size.
    pub n: usize,
    /// Views installed at the coordinator.
    pub views_installed: u64,
    /// Flush protocol messages, summed across members.
    pub flush_msgs: u64,
    /// Unstable retransmissions triggered by the flush.
    pub flush_retransmits: u64,
    /// Blackout (send suppression) at the coordinator, ms.
    pub blackout_ms: f64,
    /// Application sends suppressed during the blackout, all members.
    pub suppressed_sends: u32,
}

/// Crashes member `n-1` and measures the view change.
pub fn measure(seed: u64, n: usize) -> ViewChangePoint {
    let mut sim = SimBuilder::new(seed)
        .net(NetConfig::lossy_lan(0.01))
        .build::<Wire<u64>>();
    for me in 0..n {
        sim.add_process(MemberNode::new(me, n, 60));
    }
    sim.crash_at(ProcessId(n - 1), SimTime::from_millis(300));
    sim.run_until(SimTime::from_secs(4));

    let mut flush_msgs = 0;
    let mut suppressed = 0;
    for p in 0..(n - 1) {
        let node: &MemberNode = sim.process(ProcessId(p)).expect("member");
        flush_msgs += node.engine().stats().flush_msgs;
        suppressed += node.suppressed_sends;
    }
    let coord: &MemberNode = sim.process(ProcessId(0)).expect("coordinator");
    ViewChangePoint {
        n,
        views_installed: coord.engine().stats().view_changes,
        flush_msgs,
        flush_retransmits: sim.metrics().counter("t11.flush_retransmits"),
        blackout_ms: coord.engine().stats().last_blackout.as_micros() as f64 / 1000.0,
        suppressed_sends: suppressed,
    }
}

/// Runs the sweep.
pub fn run(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "T11 — §5: view change after one crash (heartbeat 20ms, suspect 100ms)",
        &[
            "N",
            "views installed",
            "flush msgs",
            "flush retransmits",
            "blackout ms",
            "suppressed sends",
        ],
    );
    for &n in sizes {
        let p = measure(5, n);
        t.row(vec![
            p.n.into(),
            p.views_installed.into(),
            p.flush_msgs.into(),
            p.flush_retransmits.into(),
            p.blackout_ms.into(),
            (p.suppressed_sends as u64).into(),
        ]);
    }
    t.note("flush traffic grows with group size and unstable-buffer depth;");
    t.note("all application sending is suppressed for the blackout window.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_change_completes() {
        let p = measure(5, 4);
        assert_eq!(p.views_installed, 1, "{p:?}");
        assert!(p.blackout_ms > 0.0);
    }

    #[test]
    fn flush_traffic_grows_with_n() {
        let small = measure(5, 4);
        let large = measure(5, 16);
        assert!(
            large.flush_msgs > small.flush_msgs,
            "{} -> {}",
            small.flush_msgs,
            large.flush_msgs
        );
    }
}
