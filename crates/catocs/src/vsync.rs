//! Virtual-synchrony chaos campaigns and the invariant checker behind
//! them.
//!
//! A campaign runs a full group — per process one [`Member`] (a
//! [`CausalEndpoint`], cbcast or pccast per the campaign's
//! [`GroupConfig::discipline`], a failure detector and a
//! [`MembershipEngine`], wired together once and sans-IO) on a
//! [`ChaosNode`], its simulated host —
//! under a seed-derived [`FaultPlan`] (partitions, heals, crashes,
//! recoveries, loss/duplication/delay episodes), then replays every
//! process's event log through [`check`], which asserts the
//! virtual-synchrony contract:
//!
//! - **View agreement**: any view id installed by two processes has the
//!   same membership and the same flush cut at both.
//! - **View monotonicity**: each process installs strictly increasing
//!   view ids, and every survivor installs the final view.
//! - **Exactly-once**: no process delivers the same message twice.
//! - **Causal order**: replaying each process's deliveries against the
//!   senders' vector timestamps never finds a FIFO gap or a delivery
//!   ahead of an undelivered causal predecessor — across view changes.
//! - **Cut discipline**: after a process installs a view that removes a
//!   sender, it delivers nothing of that sender beyond the agreed flush
//!   cut (at-or-below the cut is the old view's agreed history and stays
//!   deliverable).
//! - **Convergence**: survivors end with identical delivered clocks,
//!   unfrozen, with no parked delta timestamps and no decode errors —
//!   unless the run ended in a legitimate primary-partition block (the
//!   survivors are not a strict majority of the final view), in which
//!   case the group wedges *by design* and only the safety invariants
//!   above are enforced. See `is_blocked`.
//!
//! A run is requested as one value, [`Campaign`]: the seed, the
//! configuration, optionally a fault plan of the caller's own in place
//! of the generated one (how a violating plan is shrunk), a probe, and
//! whether the latency ledger rides along. [`Campaign::run`] is the one
//! body that runs it; [`run_campaign`] is the shorthand for the defaults.
//!
//! The checker is pure — it sees only [`ProcessLog`]s — so the regression
//! tests can also feed it hand-built histories. [`BugKnobs`] reintroduce
//! the three bugs these campaigns originally flushed out (cold-start
//! false suspicion on recovery, flush retries disabled, stale delta
//! decode chains across view installs) so each fix keeps a failing seed
//! pinned against it.

use crate::endpoint::CausalEndpoint;
use crate::group::{GroupConfig, MsgId};
use crate::harness::route;
use crate::ledger::{LatencySummary, TeeProbe};
use crate::membership::MembershipEngine;
use crate::waitgraph::{analyze, StallSnapshot, StallTracker, WaitEdge, WaitNode, WaitRecord};
use crate::wire::Wire;
use clocks::vector::VectorClock;
use simnet::fault::{FaultPlan, FaultPlanConfig};
use simnet::metrics::Histogram;
use simnet::net::NetConfig;
use simnet::obs::{Probe, ProbeHandle};
use simnet::process::{Ctx, Process, ProcessId, TimerId};
use simnet::sim::{Sim, SimBuilder};
use simnet::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

mod member;
pub use member::{Member, Step};

/// One entry in a process's chronological event log.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeEvent {
    /// This process multicast a message with the given vector timestamp.
    Send { id: MsgId, vt: VectorClock },
    /// This process delivered a message to the application.
    Deliver { id: MsgId },
    /// This process installed a view (id, member indices, flush cut).
    Install {
        id: u64,
        members: Vec<usize>,
        cut: VectorClock,
    },
}

/// Everything the checker knows about one process after a campaign run.
#[derive(Clone, Debug)]
pub struct ProcessLog {
    /// Member index.
    pub who: usize,
    /// Whether the process was up at the horizon.
    pub alive_at_end: bool,
    /// Chronological sends, deliveries and view installs.
    pub events: Vec<NodeEvent>,
    /// The endpoint's delivered clock at the horizon.
    pub final_clock: VectorClock,
    /// Delta-timestamp decode failures over the run.
    pub decode_errors: u64,
    /// Delta messages still parked (undecodable) at the horizon.
    pub parked: u64,
    /// Whether delivery was still frozen (flush never completed).
    pub frozen: bool,
}

/// One virtual-synchrony invariant violation found by [`check`].
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// Two processes installed the same view id with different
    /// membership or a different flush cut.
    ViewDisagreement { id: u64, a: usize, b: usize },
    /// A process installed a view id not greater than its previous one.
    ViewNotMonotone { who: usize, prev: u64, next: u64 },
    /// A live member of the final view never installed it.
    SurvivorMissedFinalView {
        who: usize,
        expected: u64,
        got: Option<u64>,
    },
    /// A process delivered the same message twice.
    DuplicateDelivery { who: usize, id: MsgId },
    /// A delivery skipped or repeated a sender sequence number.
    FifoGap {
        who: usize,
        id: MsgId,
        expected_seq: u64,
    },
    /// A delivery happened before one of its causal predecessors.
    CausalOrder {
        who: usize,
        id: MsgId,
        lagging: usize,
        have: u64,
        need: u64,
    },
    /// A delivery from a removed sender beyond that sender's flush cut,
    /// after the removing view was installed.
    BeyondCutDelivery { who: usize, id: MsgId, cut: u64 },
    /// A delivery of a message no process ever logged sending.
    UnknownMessage { who: usize, id: MsgId },
    /// Two survivors ended with different delivered clocks.
    ClockDivergence { a: usize, b: usize },
    /// A survivor's delivery was still frozen at the horizon.
    FrozenAtEnd { who: usize },
    /// A survivor hit delta-timestamp decode errors.
    DecodeErrors { who: usize, count: u64 },
    /// A survivor still had parked (undecodable) deltas at the horizon.
    ParkedAtEnd { who: usize, count: u64 },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ViewDisagreement { id, a, b } => {
                write!(f, "view {id} differs between p{a} and p{b}")
            }
            Violation::ViewNotMonotone { who, prev, next } => {
                write!(f, "p{who} installed view {next} after view {prev}")
            }
            Violation::SurvivorMissedFinalView { who, expected, got } => {
                write!(
                    f,
                    "survivor p{who} stopped at view {got:?}, final is {expected}"
                )
            }
            Violation::DuplicateDelivery { who, id } => {
                write!(f, "p{who} delivered {}:{} twice", id.sender, id.seq)
            }
            Violation::FifoGap {
                who,
                id,
                expected_seq,
            } => write!(
                f,
                "p{who} delivered {}:{} but expected seq {expected_seq}",
                id.sender, id.seq
            ),
            Violation::CausalOrder {
                who,
                id,
                lagging,
                have,
                need,
            } => write!(
                f,
                "p{who} delivered {}:{} needing {need} from p{lagging} but had {have}",
                id.sender, id.seq
            ),
            Violation::BeyondCutDelivery { who, id, cut } => write!(
                f,
                "p{who} delivered {}:{} beyond removed sender's cut {cut}",
                id.sender, id.seq
            ),
            Violation::UnknownMessage { who, id } => {
                write!(
                    f,
                    "p{who} delivered unsent message {}:{}",
                    id.sender, id.seq
                )
            }
            Violation::ClockDivergence { a, b } => {
                write!(f, "survivors p{a} and p{b} ended with different clocks")
            }
            Violation::FrozenAtEnd { who } => {
                write!(f, "survivor p{who} still frozen at horizon")
            }
            Violation::DecodeErrors { who, count } => {
                write!(f, "survivor p{who} hit {count} delta decode errors")
            }
            Violation::ParkedAtEnd { who, count } => {
                write!(f, "survivor p{who} still has {count} parked deltas")
            }
        }
    }
}

/// The highest view installed by any live process, with its membership.
fn final_installed_view(logs: &[ProcessLog]) -> Option<(u64, Vec<usize>)> {
    let mut best: Option<(u64, Vec<usize>)> = None;
    for log in logs.iter().filter(|l| l.alive_at_end) {
        for ev in &log.events {
            if let NodeEvent::Install { id, members, .. } = ev {
                if best.as_ref().is_none_or(|(b, _)| id > b) {
                    best = Some((*id, members.clone()));
                }
            }
        }
    }
    best
}

/// Whether the group ended in a legitimate primary-partition block: the
/// live members of the final installed view are not a strict majority of
/// it, so no further view can be installed and flushes in flight wedge
/// by design. (The fault generator bounds *concurrent* crashes to
/// `(n-1)/2` of the original group, but evictions compound: a partition
/// can shrink the view first, and crashes of half the shrunken view then
/// block it — seed 77 of the default campaign is the canonical case.)
pub(crate) fn is_blocked(logs: &[ProcessLog]) -> bool {
    match final_installed_view(logs) {
        Some((_, members)) => {
            let live = members
                .iter()
                .filter(|m| logs.iter().any(|l| l.who == **m && l.alive_at_end))
                .count();
            2 * live <= members.len()
        }
        None => {
            let live = logs.iter().filter(|l| l.alive_at_end).count();
            2 * live <= logs.len()
        }
    }
}

/// Replays a set of per-process logs and returns every virtual-synchrony
/// violation found. Empty means the run upheld the contract.
pub fn check(logs: &[ProcessLog]) -> Vec<Violation> {
    let mut violations = Vec::new();

    // Sender timestamps, from the send records. Senders keep their state
    // across crashes in the simulator, so every delivered message has a
    // surviving send record.
    let mut sends: BTreeMap<MsgId, VectorClock> = BTreeMap::new();
    for log in logs {
        for ev in &log.events {
            if let NodeEvent::Send { id, vt } = ev {
                sends.insert(*id, vt.clone());
            }
        }
    }

    // View agreement: same id => same members and cut everywhere.
    let mut views: BTreeMap<u64, (usize, Vec<usize>, VectorClock)> = BTreeMap::new();
    for log in logs {
        for ev in &log.events {
            if let NodeEvent::Install { id, members, cut } = ev {
                match views.get(id) {
                    None => {
                        views.insert(*id, (log.who, members.clone(), cut.clone()));
                    }
                    Some((first, m, c)) => {
                        if m != members || c != cut {
                            violations.push(Violation::ViewDisagreement {
                                id: *id,
                                a: *first,
                                b: log.who,
                            });
                        }
                    }
                }
            }
        }
    }

    // Per-process replay: monotone views, exactly-once, causal order,
    // and the flush-cut rule for removed senders.
    for log in logs {
        let mut vc: Option<VectorClock> = None;
        let mut last_view: Option<u64> = None;
        let mut members: Option<BTreeSet<usize>> = None;
        let mut removed: BTreeMap<usize, u64> = BTreeMap::new();
        let mut delivered: BTreeSet<MsgId> = BTreeSet::new();
        for ev in &log.events {
            match ev {
                NodeEvent::Send { .. } => {}
                NodeEvent::Install {
                    id,
                    members: m,
                    cut,
                } => {
                    if let Some(prev) = last_view {
                        if *id <= prev {
                            violations.push(Violation::ViewNotMonotone {
                                who: log.who,
                                prev,
                                next: *id,
                            });
                        }
                    }
                    last_view = Some(*id);
                    let next: BTreeSet<usize> = m.iter().copied().collect();
                    let prev_members = members.take().unwrap_or_else(|| (0..cut.len()).collect());
                    for s in prev_members.difference(&next) {
                        removed.entry(*s).or_insert_with(|| cut.get(*s));
                    }
                    members = Some(next);
                }
                NodeEvent::Deliver { id } => {
                    if !delivered.insert(*id) {
                        violations.push(Violation::DuplicateDelivery {
                            who: log.who,
                            id: *id,
                        });
                        continue;
                    }
                    if let Some(cut) = removed.get(&id.sender) {
                        if id.seq > *cut {
                            violations.push(Violation::BeyondCutDelivery {
                                who: log.who,
                                id: *id,
                                cut: *cut,
                            });
                        }
                    }
                    let Some(mvt) = sends.get(id) else {
                        violations.push(Violation::UnknownMessage {
                            who: log.who,
                            id: *id,
                        });
                        continue;
                    };
                    let clock = vc.get_or_insert_with(|| VectorClock::new(mvt.len()));
                    if mvt.get(id.sender) != clock.get(id.sender) + 1 {
                        violations.push(Violation::FifoGap {
                            who: log.who,
                            id: *id,
                            expected_seq: clock.get(id.sender) + 1,
                        });
                    }
                    for k in 0..mvt.len() {
                        if k != id.sender && mvt.get(k) > clock.get(k) {
                            violations.push(Violation::CausalOrder {
                                who: log.who,
                                id: *id,
                                lagging: k,
                                have: clock.get(k),
                                need: mvt.get(k),
                            });
                            break;
                        }
                    }
                    // Advance even past a violation so one fault does not
                    // cascade into a violation per subsequent delivery.
                    if id.seq > clock.get(id.sender) {
                        clock.set(id.sender, id.seq);
                    }
                }
            }
        }
    }

    // Survivors: live members of the final view installed by any live
    // process. They must all have installed it, agree on their delivered
    // clocks, and be healthy (thawed, nothing parked, no decode errors).
    //
    // Exception: when the survivors are not a strict majority of the
    // final view, the primary-partition rule *requires* the group to
    // block rather than risk split-brain — survivors legitimately wedge
    // mid-flush, frozen, with diverging clocks. The safety checks above
    // still apply in full; only the convergence checks are waived.
    if is_blocked(logs) {
        return violations;
    }
    let final_view = final_installed_view(logs);
    let survivors: Vec<&ProcessLog> = match &final_view {
        Some((id, members)) => {
            for log in logs.iter().filter(|l| l.alive_at_end) {
                if !members.contains(&log.who) {
                    continue;
                }
                let got = log.events.iter().rev().find_map(|ev| match ev {
                    NodeEvent::Install { id, .. } => Some(*id),
                    _ => None,
                });
                if got != Some(*id) {
                    violations.push(Violation::SurvivorMissedFinalView {
                        who: log.who,
                        expected: *id,
                        got,
                    });
                }
            }
            logs.iter()
                .filter(|l| l.alive_at_end && members.contains(&l.who))
                .collect()
        }
        None => logs.iter().filter(|l| l.alive_at_end).collect(),
    };
    if let Some(first) = survivors.first() {
        for other in &survivors[1..] {
            if other.final_clock != first.final_clock {
                violations.push(Violation::ClockDivergence {
                    a: first.who,
                    b: other.who,
                });
            }
        }
    }
    for s in &survivors {
        if s.frozen {
            violations.push(Violation::FrozenAtEnd { who: s.who });
        }
        if s.decode_errors > 0 {
            violations.push(Violation::DecodeErrors {
                who: s.who,
                count: s.decode_errors,
            });
        }
        if s.parked > 0 {
            violations.push(Violation::ParkedAtEnd {
                who: s.who,
                count: s.parked,
            });
        }
    }

    violations
}

/// Regression knobs: each reintroduces one bug the campaigns flushed
/// out, so a pinned seed can demonstrate the failure the fix removed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BugKnobs {
    /// Skip `FailureDetector::reset` on recovery: the recovered process
    /// reads its stale pre-crash heartbeat table and immediately
    /// suspects live members (the S1 cold-start bug).
    pub no_detector_reset: bool,
    /// Disable flush retransmission: one lost flush message wedges the
    /// view change and freezes delivery forever (the S2 stall bug).
    pub no_flush_retry: bool,
    /// Keep delta decode chains across view installs: parked deltas from
    /// an evicted sender survive the flush and can decode against a
    /// stale base later (the S3 stale-chain bug).
    pub no_chain_reset: bool,
}

/// Tunables for one campaign run.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Group size.
    pub n: usize,
    /// Fault schedule shape (horizon, settle tail).
    pub plan: FaultPlanConfig,
    /// Endpoint configuration (holdback index, delta timestamps, ...).
    pub group: GroupConfig,
    /// Application multicast period.
    pub app_every: SimDuration,
    /// Baseline network drop probability (faults add on top).
    pub drop_probability: f64,
    /// Reintroduced bugs, if any.
    pub knobs: BugKnobs,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            n: 5,
            plan: FaultPlanConfig::default(),
            group: GroupConfig::default(),
            app_every: SimDuration::from_millis(25),
            drop_probability: 0.02,
            knobs: BugKnobs::default(),
        }
    }
}

/// The outcome of one seeded campaign run.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// Seed the run (sim + fault plan) was derived from.
    pub seed: u64,
    /// The fault schedule that was injected.
    pub plan: FaultPlan,
    /// Per-process logs (checker input; useful for post-mortems).
    pub logs: Vec<ProcessLog>,
    /// Violations found by [`check`].
    pub violations: Vec<Violation>,
    /// Highest view id installed anywhere.
    pub views_installed: u64,
    /// Total deliveries across all processes.
    pub delivered_total: u64,
    /// Live processes excluded from the final view (false or healed-away
    /// suspicions, or recovered crashes).
    pub evicted_live: Vec<usize>,
    /// Members of the final view that were up at the horizon.
    pub survivors: Vec<usize>,
    /// The run ended in a legitimate primary-partition block (survivors
    /// short of a strict majority of the final view); convergence checks
    /// were waived, safety checks still ran.
    pub blocked: bool,
    /// Order-sensitive digest of every log (replay determinism check).
    /// Computed from the logs alone, so probed and unprobed runs of the
    /// same seed produce the same digest.
    pub digest: u64,
    /// What was still blocked at the horizon at every process that was
    /// up, and everything each waits on (every gap of every lagging
    /// sender). Feeds the `experiments explain` CLI.
    pub blocked_reports: Vec<WaitRecord>,
    /// Hold-time distribution merged across every node: how long each
    /// remotely-delivered message sat in holdback before release.
    /// Informational — not folded into [`Self::digest`], so it can grow
    /// without invalidating recorded replay digests.
    pub hold_hist: Histogram,
    /// Scheduler events processed by the run (deterministic work proxy).
    pub events_processed: u64,
    /// Final wait-graph analysis: the last look before the horizon, with
    /// its ranked stalls (see [`crate::waitgraph`]). Informational — not
    /// folded into [`Self::digest`].
    pub stalls: StallSnapshot,
    /// The wait-graph analysis of every look, 50 ms apart, for
    /// `experiments waitgraph --at`. Informational — digest-excluded.
    pub stall_timeline: Vec<(SimTime, StallSnapshot)>,
    /// Wait-age distribution: at every look, each blocked edge's age
    /// (µs) across the whole group. Informational — digest-excluded,
    /// like [`Self::hold_hist`].
    pub wait_hist: Histogram,
    /// Per-message latency-provenance ledger: every delivered message's
    /// send→deliver time decomposed into attributed phases, plus the
    /// ordering-tax histograms (see [`crate::ledger`]). Informational —
    /// digest-excluded, like [`Self::hold_hist`].
    pub latency: LatencySummary,
}

const TICK: TimerId = TimerId(0);
const APP: TimerId = TimerId(1);
/// How often a campaign looks at the group's wait graph.
const LOOK_EVERY: SimDuration = SimDuration::from_millis(50);

/// A [`Member`] on a simulated host under chaos: the two timers, the
/// cut-off for new traffic, and the log of everything the checker needs.
pub struct ChaosNode {
    me: usize,
    n: usize,
    member: Member,
    /// No multicasts after this point, so the settle tail can converge.
    send_until: SimTime,
    app_every: SimDuration,
    next: u64,
    /// Chronological log for the invariant checker.
    pub events: Vec<NodeEvent>,
    // Expected fire times. A crash drops the pending timer for a downed
    // process, so `on_recover` re-arms — but a timer armed just before
    // the crash can still fire after recovery, forking a second timer
    // chain. Fires that don't match the expected time are stale chains
    // and get ignored.
    armed_tick: SimTime,
    armed_app: SimTime,
    /// Hold times of held deliveries at this node (µs histogram).
    hold_hist: Histogram,
}

impl ChaosNode {
    /// Creates member `me` under the campaign's config.
    pub fn new(me: usize, cfg: &CampaignConfig) -> Self {
        ChaosNode {
            me,
            n: cfg.n,
            member: Member::new(me, cfg.n, cfg.group.clone(), cfg.knobs),
            send_until: cfg.plan.horizon - cfg.plan.settle,
            app_every: cfg.app_every,
            next: 0,
            events: Vec::new(),
            armed_tick: SimTime::ZERO,
            armed_app: SimTime::ZERO,
            hold_hist: Histogram::new(),
        }
    }

    /// The endpoint (read post-run).
    pub fn endpoint(&self) -> &CausalEndpoint<u64> {
        self.member.endpoint()
    }

    /// The membership engine (read post-run).
    pub fn engine(&self) -> &MembershipEngine {
        self.member.engine()
    }

    /// Hold-time distribution of this node's held deliveries (read
    /// post-run; campaigns merge these across the group).
    pub(crate) fn hold_histogram(&self) -> &Histogram {
        &self.hold_hist
    }

    /// What is blocked at this node and on what: [`Member::wait_records`].
    pub(crate) fn wait_records(&self, every_gap: bool, emit: &mut dyn FnMut(&WaitRecord)) {
        self.member.wait_records(every_gap, emit);
    }

    /// Sends what the step sends and logs what it installed and delivered.
    fn absorb(&mut self, ctx: &mut Ctx<'_, Wire<u64>>, step: Step) {
        route(ctx, self.me, self.n, step.out);
        if let Some((id, members, cut)) = step.installed {
            self.events.push(NodeEvent::Install { id, members, cut });
        }
        for d in step.delivered {
            if d.was_held() {
                self.hold_hist.record(d.hold_time());
            }
            self.events.push(NodeEvent::Deliver { id: d.id });
        }
    }

    fn arm_tick(&mut self, ctx: &mut Ctx<'_, Wire<u64>>) {
        let every = self.member.tick_interval();
        self.armed_tick = ctx.now() + every;
        ctx.set_timer(TICK, every);
    }

    fn arm_app(&mut self, ctx: &mut Ctx<'_, Wire<u64>>) {
        self.armed_app = ctx.now() + self.app_every;
        ctx.set_timer(APP, self.app_every);
    }
}

impl Process<Wire<u64>> for ChaosNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Wire<u64>>) {
        self.arm_tick(ctx);
        self.arm_app(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire<u64>>, _f: ProcessId, msg: Wire<u64>) {
        let step = self.member.on_wire(ctx.now(), msg);
        self.absorb(ctx, step);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire<u64>>, t: TimerId) {
        match t {
            TICK => {
                if ctx.now() != self.armed_tick {
                    return; // stale chain from before a crash
                }
                let step = self.member.on_tick(ctx.now());
                self.absorb(ctx, step);
                self.arm_tick(ctx);
            }
            APP => {
                if ctx.now() != self.armed_app {
                    return;
                }
                if ctx.now() < self.send_until {
                    if let Some(step) = self.member.multicast(ctx.now(), self.next + 1) {
                        self.next += 1;
                        let id = step.delivered[0].id;
                        let vt = self.member.endpoint().clock().clone();
                        self.events.push(NodeEvent::Send { id, vt });
                        self.absorb(ctx, step);
                    }
                }
                self.arm_app(ctx);
            }
            _ => {}
        }
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, Wire<u64>>) {
        self.member.on_recover(ctx.now());
        self.arm_tick(ctx);
        self.arm_app(ctx);
    }
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x100_0000_01b3);
    }
}

fn digest_logs(logs: &[ProcessLog]) -> u64 {
    let mut d: u64 = 0xcbf2_9ce4_8422_2325;
    for log in logs {
        fnv1a(&mut d, &(log.who as u64).to_le_bytes());
        fnv1a(&mut d, &[log.alive_at_end as u8, log.frozen as u8]);
        fnv1a(&mut d, &log.final_clock.encode());
        for ev in &log.events {
            match ev {
                NodeEvent::Send { id, vt } => {
                    fnv1a(&mut d, b"S");
                    fnv1a(&mut d, &(id.sender as u64).to_le_bytes());
                    fnv1a(&mut d, &id.seq.to_le_bytes());
                    fnv1a(&mut d, &vt.encode());
                }
                NodeEvent::Deliver { id } => {
                    fnv1a(&mut d, b"D");
                    fnv1a(&mut d, &(id.sender as u64).to_le_bytes());
                    fnv1a(&mut d, &id.seq.to_le_bytes());
                }
                NodeEvent::Install { id, members, cut } => {
                    fnv1a(&mut d, b"I");
                    fnv1a(&mut d, &id.to_le_bytes());
                    for m in members {
                        fnv1a(&mut d, &(*m as u64).to_le_bytes());
                    }
                    fnv1a(&mut d, &cut.encode());
                }
            }
        }
    }
    d
}

/// Collects the wait edges of the group's nodes at `at` — skipping
/// crashed processes, whose stale holdback is not "blocked" — resolves
/// pccast link-slot waits against the sender side's ARQ logs (only a
/// global view can name the message occupying a constant-metadata link
/// position), records every edge's age into `hist` and analyses the
/// merged graph. It reads `sim` through a shared reference: calling this
/// cannot perturb the run.
fn snapshot_stalls(
    at: SimTime,
    sim: &Sim<Wire<u64>>,
    tracker: &mut StallTracker,
    hist: &mut Histogram,
) -> StallSnapshot {
    let nodes: Vec<Option<&ChaosNode>> = (0..sim.n_processes())
        .map(ProcessId)
        .map(|p| sim.process::<ChaosNode>(p).filter(|_| sim.is_alive(p)))
        .collect();
    let mut edges: Vec<WaitEdge> = Vec::new();
    for node in nodes.iter().flatten() {
        // A look's depth: the first gap of each lagging sender.
        node.wait_records(false, &mut |record| edges.extend(record.edges()));
    }
    for e in &mut edges {
        let WaitNode::LinkSlot { to, from, seq } = e.to else {
            continue;
        };
        if let Some(Some(sender)) = nodes.get(from) {
            if let CausalEndpoint::Pccast(sender) = sender.endpoint() {
                e.to = sender.link_log_lookup(to, seq).map_or(e.to, WaitNode::Msg);
            }
        }
    }
    // Deterministic analysis input regardless of per-endpoint iteration
    // order. Ties in (from, to, since) fall to the short phrase, as they
    // did when the reason was that string: representative paths depend
    // on this order.
    edges.sort_by(|a, b| {
        let ends = (a.from, a.to, a.since).cmp(&(b.from, b.to, b.since));
        ends.then_with(|| a.reason.phrase().cmp(b.reason.phrase()))
    });
    for e in &edges {
        hist.record(at.saturating_since(e.since));
    }
    analyze(&edges, at, tracker)
}

/// The campaign's group under `plan`, every endpoint probed by `probe`,
/// not yet run.
fn chaos_group(
    seed: u64,
    cfg: &CampaignConfig,
    plan: &FaultPlan,
    probe: &ProbeHandle,
) -> Sim<Wire<u64>> {
    let mut sim = SimBuilder::new(seed)
        .net(NetConfig::lossy_lan(cfg.drop_probability))
        .build::<Wire<u64>>();
    for me in 0..cfg.n {
        let mut node = ChaosNode::new(me, cfg);
        node.member.set_probe(probe.clone());
        sim.add_process(node);
    }
    plan.apply(&mut sim);
    sim
}

/// One campaign request: everything that decides a run, as one value.
/// Probe emissions are read-only and the ledger is itself a probe, so
/// neither can perturb the run: the result, digest included, is the same
/// with or without them and only what they recorded differs.
pub struct Campaign {
    /// Seed of the simulator's randomness and of the generated plan.
    pub seed: u64,
    /// Group size, endpoint configuration, fault-plan shape, bug knobs.
    pub cfg: CampaignConfig,
    /// The fault schedule to inject. `None` generates it from the seed
    /// (`FaultPlan::generate(seed, cfg.n, &cfg.plan)`); a caller with a
    /// schedule of its own — the shrinker replaying part of a generated
    /// plan — gets the same network randomness under different faults.
    pub plan: Option<FaultPlan>,
    /// Probe installed on every node's endpoint.
    pub probe: ProbeHandle,
    /// Whether the latency-provenance ledger rides along; off, the
    /// caller's probe runs alone and [`CampaignResult::latency`] is empty.
    pub ledger: bool,
}

/// Runs one seeded campaign: generate the fault plan, run the group
/// under it, extract the logs, and check the invariants.
pub fn run_campaign(seed: u64, cfg: &CampaignConfig) -> CampaignResult {
    Campaign::new(seed, cfg.clone()).run()
}

/// [`run_campaign`] with a probe on every endpoint and the ledger
/// optional: [`Campaign`], spelled positionally.
pub fn run_campaign_with_opts(
    seed: u64,
    cfg: &CampaignConfig,
    probe: ProbeHandle,
    ledger: bool,
) -> CampaignResult {
    Campaign {
        probe,
        ledger,
        ..Campaign::new(seed, cfg.clone())
    }
    .run()
}

impl Campaign {
    /// The plain request: generated plan, no probe, ledger on.
    pub fn new(seed: u64, cfg: CampaignConfig) -> Self {
        Campaign {
            seed,
            cfg,
            plan: None,
            probe: ProbeHandle::none(),
            ledger: true,
        }
    }

    /// Runs the group under the fault plan, extracts the logs and checks
    /// the invariants.
    pub fn run(self) -> CampaignResult {
        let (seed, cfg, probe, ledger) = (self.seed, self.cfg, self.probe, self.ledger);
        let generate = || FaultPlan::generate(seed, cfg.n, &cfg.plan);
        let plan = self.plan.unwrap_or_else(generate);
        // The tee folds every event into the ledger while forwarding to the
        // caller's probe (flight recorder, usually). Every node's endpoint
        // holds a handle on it, so it is shared via `Rc`.
        let tee: Option<Rc<RefCell<TeeProbe>>> = if ledger {
            Some(Rc::new(RefCell::new(TeeProbe::new(probe.clone()))))
        } else {
            None
        };
        let node_probe = match &tee {
            Some(t) => ProbeHandle::new(Rc::clone(t) as Rc<RefCell<dyn Probe>>),
            None => probe,
        };
        let mut sim = chaos_group(seed, &cfg, &plan, &node_probe);
        // Live wait-graph analytics look at the group between slices of
        // the run, read-only, so the run's digest cannot change (the
        // determinism tests below pin this).
        let mut tracker = StallTracker::new();
        let mut wait_hist = Histogram::new();
        let mut stall_timeline: Vec<(SimTime, StallSnapshot)> = Vec::new();
        let events_processed = sim.run_until_each(cfg.plan.horizon, LOOK_EVERY, |at, sim| {
            let snap = snapshot_stalls(at, sim, &mut tracker, &mut wait_hist);
            stall_timeline.push((at, snap));
        });

        let crashed = plan.crashed_at_horizon();
        let mut logs = Vec::with_capacity(cfg.n);
        // What every node holds at the horizon: the ledger charges its
        // open entries by these, crashed nodes' too.
        let mut records = Vec::new();
        let mut hold_hist = Histogram::new();
        for p in 0..cfg.n {
            let node: &ChaosNode = sim.process(ProcessId(p)).expect("chaos node present");
            hold_hist.merge(node.hold_histogram());
            let keep = &mut |record: &WaitRecord| records.push(record.clone());
            node.endpoint().protocol().wait_records(true, keep);
            logs.push(ProcessLog {
                who: p,
                alive_at_end: !crashed.contains(&p),
                events: node.events.clone(),
                final_clock: node.endpoint().clock().clone(),
                decode_errors: node.endpoint().stats().ts_decode_errors,
                parked: node.endpoint().parked_len() as u64,
                frozen: node.endpoint().is_frozen(),
            });
        }

        let violations = check(&logs);
        let views_installed = logs
            .iter()
            .flat_map(|l| &l.events)
            .filter_map(|ev| match ev {
                NodeEvent::Install { id, .. } => Some(*id),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let delivered_total = logs
            .iter()
            .flat_map(|l| &l.events)
            .filter(|ev| matches!(ev, NodeEvent::Deliver { .. }))
            .count() as u64;
        let final_members = final_installed_view(&logs)
            .map_or_else(|| (0..cfg.n).collect(), |(_, members)| members);
        let survivors: Vec<usize> = final_members
            .iter()
            .copied()
            .filter(|p| !crashed.contains(p))
            .collect();
        let evicted_live: Vec<usize> = (0..cfg.n)
            .filter(|p| !crashed.contains(p) && !final_members.contains(p))
            .collect();
        let digest = digest_logs(&logs);
        let blocked = is_blocked(&logs);
        let stalls = stall_timeline
            .last()
            .map(|(_, s)| s.clone())
            .unwrap_or_default();
        let latency = tee
            .map(|t| t.borrow().ledger.finalize(cfg.plan.horizon, &records))
            .unwrap_or_default();
        // Wait-graphs are only meaningful for processes that were up at
        // the horizon: a crashed node's stale holdback is not "blocked".
        records.retain(|r| !crashed.contains(&r.who));

        CampaignResult {
            seed,
            plan,
            logs,
            violations,
            views_installed,
            delivered_total,
            evicted_live,
            survivors,
            blocked,
            digest,
            blocked_reports: records,
            hold_hist,
            events_processed,
            stalls,
            stall_timeline,
            wait_hist,
            latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causal_core::span_of;
    use simnet::obs::{LatencyPhase, ObsEvent, Stage};

    fn vt(entries: &[u64]) -> VectorClock {
        VectorClock::from_entries(entries.to_vec())
    }

    fn id(sender: usize, seq: u64) -> MsgId {
        MsgId { sender, seq }
    }

    fn quiet_log(who: usize) -> ProcessLog {
        ProcessLog {
            who,
            alive_at_end: true,
            events: Vec::new(),
            final_clock: VectorClock::new(3),
            decode_errors: 0,
            parked: 0,
            frozen: false,
        }
    }

    #[test]
    fn empty_history_is_clean() {
        let logs: Vec<ProcessLog> = (0..3).map(quiet_log).collect();
        assert!(check(&logs).is_empty());
    }

    #[test]
    fn checker_flags_duplicate_delivery() {
        let mut logs: Vec<ProcessLog> = (0..3).map(quiet_log).collect();
        logs[0].events = vec![
            NodeEvent::Send {
                id: id(0, 1),
                vt: vt(&[1, 0, 0]),
            },
            NodeEvent::Deliver { id: id(0, 1) },
            NodeEvent::Deliver { id: id(0, 1) },
        ];
        logs[0].final_clock = vt(&[1, 0, 0]);
        let v = check(&logs);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::DuplicateDelivery { who: 0, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn checker_flags_causal_inversion() {
        // p1 delivers p0's second message before the first.
        let mut logs: Vec<ProcessLog> = (0..3).map(quiet_log).collect();
        logs[0].events = vec![
            NodeEvent::Send {
                id: id(0, 1),
                vt: vt(&[1, 0, 0]),
            },
            NodeEvent::Deliver { id: id(0, 1) },
            NodeEvent::Send {
                id: id(0, 2),
                vt: vt(&[2, 0, 0]),
            },
            NodeEvent::Deliver { id: id(0, 2) },
        ];
        logs[0].final_clock = vt(&[2, 0, 0]);
        logs[1].events = vec![
            NodeEvent::Deliver { id: id(0, 2) },
            NodeEvent::Deliver { id: id(0, 1) },
        ];
        logs[1].final_clock = vt(&[2, 0, 0]);
        logs[2].final_clock = vt(&[2, 0, 0]);
        logs[2].events = vec![
            NodeEvent::Deliver { id: id(0, 1) },
            NodeEvent::Deliver { id: id(0, 2) },
        ];
        let v = check(&logs);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::FifoGap { who: 1, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn checker_flags_beyond_cut_delivery() {
        // View 1 removes p2 with cut[2] = 1; p0 then delivers 2:2.
        let mut logs: Vec<ProcessLog> = (0..3).map(quiet_log).collect();
        let sends = vec![
            NodeEvent::Send {
                id: id(2, 1),
                vt: vt(&[0, 0, 1]),
            },
            NodeEvent::Send {
                id: id(2, 2),
                vt: vt(&[0, 0, 2]),
            },
        ];
        logs[2].events = sends;
        logs[2].alive_at_end = false;
        logs[0].events = vec![
            NodeEvent::Deliver { id: id(2, 1) },
            NodeEvent::Install {
                id: 1,
                members: vec![0, 1],
                cut: vt(&[0, 0, 1]),
            },
            NodeEvent::Deliver { id: id(2, 2) },
        ];
        logs[0].final_clock = vt(&[0, 0, 2]);
        logs[1].events = vec![
            NodeEvent::Deliver { id: id(2, 1) },
            NodeEvent::Install {
                id: 1,
                members: vec![0, 1],
                cut: vt(&[0, 0, 1]),
            },
        ];
        logs[1].final_clock = vt(&[0, 0, 1]);
        let v = check(&logs);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::BeyondCutDelivery { who: 0, .. })),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::ClockDivergence { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn checker_flags_view_disagreement() {
        let mut logs: Vec<ProcessLog> = (0..3).map(quiet_log).collect();
        logs[0].events = vec![NodeEvent::Install {
            id: 1,
            members: vec![0, 1],
            cut: vt(&[0, 0, 0]),
        }];
        logs[1].events = vec![NodeEvent::Install {
            id: 1,
            members: vec![0, 2],
            cut: vt(&[0, 0, 0]),
        }];
        let v = check(&logs);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::ViewDisagreement { id: 1, .. })),
            "{v:?}"
        );
    }

    #[test]
    fn agreed_history_below_cut_is_not_flagged() {
        // Delivering a removed sender's message at-or-below the cut after
        // the install is the agreed-history repair path, not a violation.
        let mut logs: Vec<ProcessLog> = (0..3).map(quiet_log).collect();
        logs[2].events = vec![NodeEvent::Send {
            id: id(2, 1),
            vt: vt(&[0, 0, 1]),
        }];
        logs[2].alive_at_end = false;
        for log in logs.iter_mut().take(2) {
            log.events = vec![
                NodeEvent::Install {
                    id: 1,
                    members: vec![0, 1],
                    cut: vt(&[0, 0, 1]),
                },
                NodeEvent::Deliver { id: id(2, 1) },
            ];
            log.final_clock = vt(&[0, 0, 1]);
        }
        assert!(check(&logs).is_empty());
    }

    #[test]
    fn vanilla_campaign_upholds_invariants() {
        let cfg = CampaignConfig::default();
        for seed in [1, 7, 23] {
            let r = run_campaign(seed, &cfg);
            assert!(
                r.violations.is_empty(),
                "seed {seed}: {:?}\nplan: {}",
                r.violations,
                r.plan
            );
            assert!(r.delivered_total > 0, "seed {seed}: nothing delivered");
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let cfg = CampaignConfig::default();
        let a = run_campaign(11, &cfg);
        let b = run_campaign(11, &cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.violations, b.violations);
        assert_eq!(format!("{}", a.plan), format!("{}", b.plan));
        // The wait-graph analytics replay byte-identically too.
        let render = |r: &CampaignResult| {
            r.stall_timeline
                .iter()
                .flat_map(|(at, s)| {
                    s.stalls
                        .iter()
                        .map(move |st| format!("{at:?} {} {}", st.summary(), st.render_path()))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&a), render(&b));
        assert_eq!(a.wait_hist.count(), b.wait_hist.count());
    }

    #[test]
    fn probed_campaign_matches_unprobed_digest() {
        // The whole observability layer rides on this: recording every
        // span and phase must not perturb the run.
        let cfg = CampaignConfig::default();
        let plain = run_campaign(11, &cfg);
        let (probe, rec) = ProbeHandle::recorder(256);
        let probed = run_campaign_with_opts(11, &cfg, probe, true);
        assert_eq!(plain.digest, probed.digest);
        assert_eq!(plain.violations, probed.violations);
        assert_eq!(plain.delivered_total, probed.delivered_total);
        // And the recorder actually saw protocol activity.
        let rec = rec.borrow();
        assert!((0..cfg.n).any(|p| !rec.events(p).is_empty()));
    }

    /// A held copy that a view install purges — its sender removed, the
    /// copy beyond the flush cut — leaves the flight recorder a `Dropped`
    /// span. Seed 48's P4 held `m3.51` from 1.278 s and then heard no more
    /// of it: the recorder could not say where it went.
    #[test]
    fn a_copy_purged_at_an_install_is_dropped_in_the_recorder() {
        let cfg = CampaignConfig {
            n: 6,
            group: GroupConfig {
                indexed_holdback: true,
                delta_timestamps: true,
                ..GroupConfig::default()
            },
            ..CampaignConfig::default()
        };
        let (probe, rec) = ProbeHandle::recorder(1 << 16);
        run_campaign_with_opts(48, &cfg, probe, false);
        let m3_51 = span_of(id(3, 51));
        let rec = rec.borrow();
        let stages: Vec<(SimTime, Stage)> = rec
            .events(4)
            .iter()
            .filter_map(|e| match e {
                ObsEvent::Span {
                    at, span, stage, ..
                } if *span == m3_51 => Some((*at, *stage)),
                _ => None,
            })
            .collect();
        let held = stages.iter().position(|(_, s)| *s == Stage::HoldbackEnter);
        let held = held.expect("P4 holds m3.51");
        assert_eq!(stages[held].0.as_millis(), 1_278, "{stages:?}");
        assert_eq!(
            stages.last().map(|(_, s)| *s),
            Some(Stage::Dropped),
            "{stages:?}"
        );
    }

    #[test]
    fn ledger_rides_every_campaign_without_changing_the_digest() {
        // The latency ledger is on by default; a ledger-off run of the
        // same seed must produce a byte-identical digest, and the
        // ledger-on run must actually have attributed something.
        let cfg = CampaignConfig::default();
        let with = run_campaign(11, &cfg);
        let without = run_campaign_with_opts(11, &cfg, ProbeHandle::none(), false);
        assert_eq!(with.digest, without.digest);
        assert_eq!(with.violations, without.violations);
        assert_eq!(with.delivered_total, without.delivered_total);
        assert!(
            !with.latency.entries.is_empty(),
            "ledger-on run attributed nothing"
        );
        assert!(without.latency.entries.is_empty());
        assert!(with.latency.per_phase.contains_key(&LatencyPhase::Wire));
        // Every closed entry tiles exactly: segment durations sum to the
        // end-to-end latency, no gaps, no double-counting.
        for e in &with.latency.entries {
            let total = e
                .segments
                .iter()
                .fold(SimDuration::ZERO, |acc, s| acc + s.dur());
            assert_eq!(
                total,
                e.latency(),
                "entry {} at p{} does not tile: {:?}",
                e.span,
                e.receiver,
                e.segments
            );
        }
    }

    #[test]
    fn wedged_flush_ledger_charges_the_flush_barrier() {
        // Seed 8 with flush retries disabled wedges its first view change;
        // the ledger must attribute the stuck messages' time to the
        // flush-barrier phase and name it as their critical path.
        let cfg = CampaignConfig {
            n: 7,
            group: GroupConfig {
                indexed_holdback: true,
                delta_timestamps: true,
                ..GroupConfig::default()
            },
            knobs: BugKnobs {
                no_flush_retry: true,
                ..BugKnobs::default()
            },
            ..CampaignConfig::default()
        };
        let r = run_campaign(8, &cfg);
        assert!(!r.violations.is_empty());
        let flush_share = |e: &crate::ledger::LedgerEntry| {
            let flush = e
                .phase_totals()
                .get(&LatencyPhase::Flush)
                .copied()
                .unwrap_or(SimDuration::ZERO);
            flush.as_micros() as f64 / e.latency().as_micros().max(1) as f64
        };
        let wedged = r
            .latency
            .entries
            .iter()
            .filter(|e| e.open)
            .max_by(|a, b| flush_share(a).total_cmp(&flush_share(b)))
            .expect("wedged flush must leave open ledger entries");
        let totals = wedged.phase_totals();
        let flush = totals
            .get(&LatencyPhase::Flush)
            .copied()
            .unwrap_or(SimDuration::ZERO);
        let share = flush.as_micros() as f64 / wedged.latency().as_micros().max(1) as f64;
        assert!(
            share >= 0.9,
            "flush-barrier share {share:.2} below 90% for {} at p{}: {:?}",
            wedged.span,
            wedged.receiver,
            wedged.segments
        );
        assert_eq!(
            wedged.critical_path(),
            Some(LatencyPhase::Flush),
            "critical path must be the flush barrier"
        );
    }

    #[test]
    fn wedged_flush_produces_blocked_or_frozen_evidence() {
        // Seed 8 with flush retries disabled wedges its first view change;
        // the campaign result must carry post-mortem evidence (frozen
        // survivors and/or holdback wait-graphs) for the explainer.
        let cfg = CampaignConfig {
            n: 7,
            group: GroupConfig {
                indexed_holdback: true,
                delta_timestamps: true,
                ..GroupConfig::default()
            },
            knobs: BugKnobs {
                no_flush_retry: true,
                ..BugKnobs::default()
            },
            ..CampaignConfig::default()
        };
        let r = run_campaign(8, &cfg);
        assert!(
            !r.violations.is_empty(),
            "seed 8 + no_flush_retry must violate"
        );
        let has_evidence =
            !r.blocked_reports.is_empty() || r.logs.iter().any(|l| l.alive_at_end && l.frozen);
        assert!(has_evidence, "no explainable evidence in {r:?}");
        // The wait-graph must rank the wedged flush first: a persistent
        // stall whose representative path names the flush phase at the
        // suspected coordinator.
        let top = r
            .stalls
            .stalls
            .first()
            .expect("wedged flush must produce a ranked stall");
        assert!(
            top.is_persistent(),
            "wedge not persistent: {}",
            top.summary()
        );
        assert!(
            top.render_path().contains("flush@P"),
            "top stall does not name the flush coordinator: {} / {}",
            top.summary(),
            top.render_path()
        );
    }

    /// A host ticks its member at the group's `tick_interval`, whatever
    /// that is: at 5 ms the ticks come at 5, 10, 15, ... ms.
    #[test]
    fn a_chaos_node_ticks_at_the_group_tick_interval() {
        let cfg = CampaignConfig {
            group: GroupConfig {
                tick_interval: SimDuration::from_millis(5),
                ..GroupConfig::default()
            },
            ..CampaignConfig::default()
        };
        let mut sim = SimBuilder::new(1).build::<Wire<u64>>();
        sim.add_process(ChaosNode::new(0, &cfg));
        let mut armed = Vec::new();
        for ms in 0..=30 {
            sim.run_until(SimTime::from_millis(ms));
            let node: &ChaosNode = sim.process(ProcessId(0)).expect("member 0");
            if armed.last() != Some(&node.armed_tick) {
                armed.push(node.armed_tick);
            }
        }
        let want: Vec<SimTime> = (1..=7).map(|k| SimTime::from_millis(5 * k)).collect();
        assert_eq!(armed, want);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            /// On any seed-derived fault schedule, in every cell of
            /// {cbcast,pccast} × {scan,indexed} × {full,delta}, every
            /// ledger entry's phase segments tile the send→end interval
            /// exactly: contiguous, no gaps, no double-counting.
            #[test]
            fn ledger_phases_tile_exactly_on_random_fault_plans(
                seed in 0u64..10_000,
                n in 3usize..8,
                indexed in proptest::bool::ANY,
                delta in proptest::bool::ANY,
                pccast in proptest::bool::ANY,
            ) {
                let cfg = CampaignConfig {
                    n,
                    group: GroupConfig {
                        indexed_holdback: indexed,
                        delta_timestamps: delta,
                        discipline: if pccast {
                            crate::group::CausalDiscipline::Pccast
                        } else {
                            crate::group::CausalDiscipline::Cbcast
                        },
                        ..GroupConfig::default()
                    },
                    ..CampaignConfig::default()
                };
                let r = run_campaign(seed, &cfg);
                prop_assert!(!r.latency.entries.is_empty(), "seed {seed}: no ledger entries");
                for e in &r.latency.entries {
                    let mut cursor = e.send_at;
                    for s in &e.segments {
                        prop_assert_eq!(
                            s.from, cursor,
                            "seed {} {} at p{}: gap or overlap before {:?} (segments {:?})",
                            seed, e.span, e.receiver, s, e.segments
                        );
                        prop_assert!(s.to > s.from, "empty segment {s:?}");
                        cursor = s.to;
                    }
                    prop_assert_eq!(
                        cursor, e.end,
                        "seed {} {} at p{}: segments end short of the entry (segments {:?})",
                        seed, e.span, e.receiver, e.segments
                    );
                }
            }

            /// Any seed-derived fault schedule, group size and
            /// optimisation cell upholds the virtual-synchrony
            /// invariants, and every pair of survivors delivered
            /// identical per-sender prefixes: one's delivery sequence
            /// from each sender is a prefix of the other's.
            #[test]
            fn random_fault_plans_uphold_virtual_synchrony(
                seed in 0u64..10_000,
                n in 3usize..8,
                indexed in proptest::bool::ANY,
                delta in proptest::bool::ANY,
            ) {
                let cfg = CampaignConfig {
                    n,
                    group: GroupConfig {
                        indexed_holdback: indexed,
                        delta_timestamps: delta,
                        ..GroupConfig::default()
                    },
                    ..CampaignConfig::default()
                };
                let r = run_campaign(seed, &cfg);
                prop_assert!(
                    r.violations.is_empty(),
                    "seed {seed} n={n} indexed={indexed} delta={delta}: {:?}\n{}",
                    r.violations,
                    r.plan
                );
                // False-positive guard: a violation-free run must report
                // no persistent wait-graph cycle once the quiescent tail
                // is reached. (Blocked primary-partition runs wedge by
                // design, but into *chains* onto dead processes, never
                // persistent cycles.)
                prop_assert_eq!(
                    r.stalls.persistent_cycles(),
                    0,
                    "seed {} n={}: clean run ended with a persistent cycle: {:?}\n{}",
                    seed,
                    n,
                    r.stalls.stalls.iter().map(|s| s.summary()).collect::<Vec<_>>(),
                    r.plan
                );
                // Per-sender delivery sequences, derived independently of
                // the checker's replay.
                let mut per_proc: Vec<Vec<Vec<u64>>> = Vec::new();
                for log in r.logs.iter().filter(|l| r.survivors.contains(&l.who)) {
                    let mut seqs = vec![Vec::new(); n];
                    for ev in &log.events {
                        if let NodeEvent::Deliver { id } = ev {
                            seqs[id.sender].push(id.seq);
                        }
                    }
                    per_proc.push(seqs);
                }
                for a in 0..per_proc.len() {
                    for b in a + 1..per_proc.len() {
                        for (s, x) in per_proc[a].iter().enumerate() {
                            let y = &per_proc[b][s];
                            let k = x.len().min(y.len());
                            prop_assert_eq!(
                                &x[..k],
                                &y[..k],
                                "seed {} sender {}: survivors disagree on a prefix",
                                seed,
                                s
                            );
                        }
                    }
                }
            }
        }
    }

    /// The ledger and the wait graph answer "what holds this message" from
    /// two sources: the ledger from the events endpoints emit, the wait
    /// graph from their state. At every 50 ms look of a campaign the two
    /// must agree on what is held, and on where that time goes.
    mod agreement {
        use super::*;
        use crate::group::CausalDiscipline;
        use crate::ledger::LedgerProbe;
        use proptest::prelude::*;
        use simnet::obs::SpanId;
        use LatencyPhase::{Causal, Fifo, Repair};

        type Key = (usize, SpanId);

        /// Whether a look that saw a message held in phase `seen` and the
        /// ledger, once the message was delivered, charging that instant
        /// to `charged` may differ with neither at fault. The look names
        /// what held the message at that instant; a delivered wait is
        /// charged whole to one cause: cbcast's to the message released
        /// just before it (a chased predecessor a look saw may have come
        /// in an earlier drain, leaving another in the way), pccast's to
        /// the path that delivered it (a copy stuck behind its link
        /// cursor, or barred by a flush, that the repair path delivered
        /// is repair). The looks are right.
        fn may_differ(
            discipline: CausalDiscipline,
            seen: LatencyPhase,
            charged: LatencyPhase,
        ) -> bool {
            match discipline {
                CausalDiscipline::Cbcast => [seen, charged]
                    .iter()
                    .all(|p| [Repair, Causal, Fifo].contains(p)),
                CausalDiscipline::Pccast => charged == Repair,
            }
        }

        /// Runs campaign `seed` under `cfg`, finalizing the ledger at each
        /// look against that look's wait records, and returns what the
        /// two disagree on, or the (seen, charged) phase pairs that
        /// differed.
        fn agree(
            seed: u64,
            cfg: &CampaignConfig,
        ) -> Result<BTreeSet<(LatencyPhase, LatencyPhase)>, String> {
            let plan = FaultPlan::generate(seed, cfg.n, &cfg.plan);
            let ledger = Rc::new(RefCell::new(LedgerProbe::new()));
            let probe = ProbeHandle::new(Rc::clone(&ledger) as Rc<RefCell<dyn Probe>>);
            let mut sim = chaos_group(seed, cfg, &plan, &probe);
            // Every (look, entry) a look found held, and in what phase.
            let mut held: Vec<(SimTime, Key, LatencyPhase)> = Vec::new();
            let mut fault: Option<String> = None;
            let mut records = Vec::new();
            sim.run_until_each(cfg.plan.horizon, LOOK_EVERY, |at, sim| {
                // Every node's, as the campaign hands the ledger at the
                // horizon: a crashed node keeps what it held.
                records.clear();
                let parked: Vec<usize> = (0..cfg.n)
                    .map(|p| {
                        let node: &ChaosNode = sim.process(ProcessId(p)).expect("chaos node present");
                        node.wait_records(false, &mut |r| {
                            if matches!(r.blocked, WaitNode::Msg(_)) {
                                records.push(r.clone());
                            }
                        });
                        node.endpoint().parked_len()
                    })
                    .collect();
                let mut by_key: BTreeMap<Key, Vec<&WaitRecord>> = BTreeMap::new();
                for r in &records {
                    if let WaitNode::Msg(id) = r.blocked {
                        by_key.entry((r.who, crate::causal_core::span_of(id))).or_default().push(r);
                    }
                }
                let summary = ledger.borrow().finalize(at, &records);
                let mut unrecorded = vec![0; cfg.n];
                for e in summary.entries.iter().filter(|e| e.open) {
                    let Some(rs) = by_key.remove(&(e.receiver, e.span)) else {
                        // No record names a parked copy.
                        unrecorded[e.receiver] += 1;
                        continue;
                    };
                    // pccast holds a copy per incoming link.
                    if rs.len() > 1 && cfg.group.discipline == CausalDiscipline::Cbcast {
                        fault.get_or_insert(format!("{at}: {} records of {} at P{}", rs.len(), e.span, e.receiver));
                    }
                    let phase = rs.iter().filter_map(|r| r.phase()).max();
                    let tail = e.segments.last().map(|s| s.phase);
                    if tail != phase {
                        fault.get_or_insert(format!(
                            "{at}: {} at P{} ends in {tail:?}, its records say {phase:?}",
                            e.span, e.receiver
                        ));
                    }
                    held.extend(phase.map(|p| (at, (e.receiver, e.span), p)));
                }
                if let Some(((who, m), rs)) = by_key.into_iter().next() {
                    fault.get_or_insert(format!(
                        "{at}: P{who} holds {m} (waits {:?}), the ledger has it closed or not at all",
                        rs[0].waits
                    ));
                }
                if unrecorded != parked {
                    fault.get_or_insert(format!(
                        "{at}: open entries no record holds {unrecorded:?}, parked copies {parked:?}"
                    ));
                }
            });
            if let Some(f) = fault {
                return Err(f);
            }
            let last = ledger.borrow().finalize(cfg.plan.horizon, &[]);
            let mut differ = BTreeSet::new();
            for (at, (who, m), seen) in held {
                let Some(e) = last.entry(who, m).filter(|e| !e.open) else {
                    continue;
                };
                let then = e.segments.iter().find(|s| s.from < at && at <= s.to);
                let charged = then.expect("a delivered entry tiles every instant").phase;
                if charged != seen {
                    differ.insert((seen, charged));
                }
            }
            Ok(differ)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 4 } else { 96 }))]
            /// On random fault plans, cbcast and pccast, every cell: at
            /// each look, every open ledger entry is held by that look's
            /// records (or sits parked, which no record names: as many
            /// as each endpoint has parked), every blocked-message record
            /// is an open entry, and an entry's open tail is charged to
            /// its records' phase; once delivered, the instant of each
            /// look is charged to the phase that look saw, bar
            /// [`may_differ`].
            #[test]
            fn the_ledger_and_the_wait_graph_agree_at_every_look(
                seed in 0u64..10_000,
                n in 3usize..8,
                indexed in proptest::bool::ANY,
                delta in proptest::bool::ANY,
                pccast in proptest::bool::ANY,
            ) {
                let discipline = if pccast { CausalDiscipline::Pccast } else { CausalDiscipline::Cbcast };
                let cfg = CampaignConfig {
                    n,
                    group: GroupConfig {
                        indexed_holdback: indexed,
                        delta_timestamps: delta,
                        discipline,
                        ..GroupConfig::default()
                    },
                    ..CampaignConfig::default()
                };
                let differ = agree(seed, &cfg).unwrap_or_else(|f| panic!("seed {seed} n={n}: {f}"));
                for (seen, charged) in differ {
                    prop_assert!(
                        may_differ(discipline, seen, charged),
                        "seed {} n={} {:?}: a look saw {:?}, the ledger charged {:?}",
                        seed, n, discipline, seen, charged
                    );
                }
            }
        }
    }
}
