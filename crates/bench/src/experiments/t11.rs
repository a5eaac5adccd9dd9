//! T11 — §5: view-change (membership) cost versus group size.
//!
//! A causal group chats; one member crashes; heartbeats time out; the
//! coordinator runs the flush protocol and installs the new view. We
//! measure the flush message count and the send-blackout duration — the
//! costs the paper flags: "Membership change protocols also suppress the
//! sending of new messages during a significant portion of the protocol."

use crate::table::Table;
use catocs::group::GroupConfig;
use catocs::harness::route;
use catocs::vsync::{BugKnobs, Member};
use catocs::wire::Wire;
use simnet::net::NetConfig;
use simnet::process::{Ctx, Process, ProcessId, TimerId};
use simnet::sim::SimBuilder;
use simnet::time::{SimDuration, SimTime};

const TICK: TimerId = TimerId(0);
const APP: TimerId = TimerId(1);
const APP_EVERY: SimDuration = SimDuration::from_millis(15);

/// A [`Member`] with `msgs` cbcast messages to send, one per app tick.
pub(crate) struct MemberNode {
    me: usize,
    n: usize,
    member: Member,
    msgs_left: u32,
    next: u64,
    /// Multicasts suppressed because a flush was in progress.
    pub suppressed_sends: u32,
}

impl MemberNode {
    /// Creates member `me` of `n`.
    pub(crate) fn new(me: usize, n: usize, msgs: u32) -> Self {
        MemberNode {
            me,
            n,
            member: Member::new(me, n, GroupConfig::default(), BugKnobs::default()),
            msgs_left: msgs,
            next: 0,
            suppressed_sends: 0,
        }
    }
}

impl Process<Wire<u64>> for MemberNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Wire<u64>>) {
        ctx.set_timer(TICK, Member::TICK_EVERY);
        ctx.set_timer(APP, APP_EVERY);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire<u64>>, _f: ProcessId, msg: Wire<u64>) {
        let step = self.member.on_wire(ctx.now(), msg);
        route(ctx, self.me, self.n, step.out);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire<u64>>, t: TimerId) {
        match t {
            TICK => {
                let step = self.member.on_tick(ctx.now());
                route(ctx, self.me, self.n, step.out);
                ctx.set_timer(TICK, Member::TICK_EVERY);
            }
            APP => {
                if self.msgs_left > 0 {
                    match self.member.multicast(ctx.now(), self.next + 1) {
                        Some(step) => {
                            self.msgs_left -= 1;
                            self.next += 1;
                            route(ctx, self.me, self.n, step.out);
                        }
                        None => self.suppressed_sends += 1,
                    }
                }
                ctx.set_timer(APP, APP_EVERY);
            }
            _ => {}
        }
    }
}

/// One measurement point.
#[derive(Clone, Debug)]
pub(crate) struct ViewChangePoint {
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
pub(crate) fn measure(seed: u64, n: usize) -> ViewChangePoint {
    let mut sim = SimBuilder::new(seed)
        .net(NetConfig::lossy_lan(0.01))
        .build::<Wire<u64>>();
    for me in 0..n {
        sim.add_process(MemberNode::new(me, n, 60));
    }
    sim.crash_at(ProcessId(n - 1), SimTime::from_millis(300));
    sim.run_until(SimTime::from_secs(4));

    let node = |p| -> &MemberNode { sim.process(ProcessId(p)).expect("member") };
    let engines = (0..n - 1).map(|p| node(p).member.engine().stats());
    let coord = node(0).member.engine().stats();
    ViewChangePoint {
        n,
        views_installed: coord.view_changes,
        flush_msgs: engines.map(|s| s.flush_msgs).sum(),
        flush_retransmits: (0..n).map(|p| node(p).member.flush_retransmits()).sum(),
        blackout_ms: coord.last_blackout.as_micros() as f64 / 1000.0,
        suppressed_sends: (0..n - 1).map(|p| node(p).suppressed_sends).sum(),
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
