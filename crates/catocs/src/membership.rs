//! View-synchronous membership with a flush protocol.
//!
//! When a member is suspected, the surviving coordinator (lowest live
//! member index) proposes a new view. Every member then *flushes*: it
//! stops sending new application messages (the paper's §4.4/§5 complaint:
//! "Membership change protocols also suppress the sending of new messages
//! during a significant portion of the protocol"), retransmits its
//! unstable messages so every survivor has them, and acknowledges with a
//! `FlushOk` carrying its delivered clock. When the coordinator has heard
//! from every proposed member it installs the view, ending the blackout.
//!
//! The fault-injection campaigns (see `catocs::vsync`) drive this engine
//! through partitions, crashes and heavy loss, which is where the original
//! fire-and-forget protocol wedged. The engine therefore also provides:
//!
//! - **Retry with bounded backoff** (`MembershipEngine::on_tick`): both
//!   the coordinator's `Flush` and each member's `FlushOk` are
//!   retransmitted until the view installs, so a single dropped message
//!   no longer freezes the view change forever.
//! - **Coordinator takeover**: if the proposing coordinator itself dies
//!   mid-flush, the next-lowest survivor supersedes the proposal with a
//!   higher view id instead of leaving every member wedged in the flush
//!   blackout.
//! - **Primary-partition rule**: a proposal must retain a strict majority
//!   of the currently installed view. A minority side of a partition
//!   stalls (keeps its old view, stays silent about membership) rather
//!   than installing a divergent view — the classic split-brain guard.
//! - **Flush cut**: the installed view carries a *cut* vector — the
//!   previous view's cut merged with every `FlushOk` delivered clock.
//!   Messages from removed members at or below the cut are still
//!   deliverable after the install (the old view's agreed history);
//!   anything beyond it from a removed member must be discarded. This is
//!   the boundary the virtual-synchrony invariant checker enforces.
//! - **One flush barrier**: only an install that settles the proposal
//!   being flushed ends the flush, and with it the host's delivery freeze.
//!
//! Experiment T11 measures the two costs the paper predicts: flush
//! message count (grows with group size and unstable-buffer depth) and
//! blackout duration.
//!
//! Member identity note: inside this engine, `View.members` carries group
//! *member indices* wrapped as `ProcessId` — the engine is transport
//! agnostic, and the harness maps indices to simulator processes.

use crate::group::{View, ViewId};
use crate::wire::{self, Dest, Out, Refusal, Wire};
use clocks::vector::VectorClock;
use serde::{Deserialize, Serialize};
use simnet::process::ProcessId;
use simnet::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// What the caller must do after handing the engine an event.
#[derive(Debug, PartialEq, Eq)]
pub enum FlushAction {
    /// Nothing further.
    None,
    /// Retransmit all unstable buffered messages to the group; the
    /// engine has already queued this member's `FlushOk`.
    RetransmitUnstable,
    /// A new view was installed (delivered as an ordered event), together
    /// with the flush cut agreed for it.
    ViewInstalled { view: View, cut: VectorClock },
}

/// Cumulative membership statistics.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MembershipStats {
    /// Views installed (beyond the initial one).
    pub view_changes: u64,
    /// Flush-protocol messages sent by this member.
    pub flush_msgs: u64,
    /// Flush/FlushOk retransmissions triggered by the retry timer.
    pub flush_retries: u64,
    /// Proposals or installs rejected because their membership was not a
    /// subset of the installed view (a wedged evictee trying to rejoin —
    /// legitimate views only ever shrink), and messages no member of the
    /// group could have sent: a sender index outside it, a view with
    /// nobody in it, a clock of another width.
    pub rejected_foreign: u64,
    /// Total time spent with sending suppressed.
    pub blackout_total: SimDuration,
    /// Duration of the most recent blackout.
    pub last_blackout: SimDuration,
}

impl MembershipStats {
    /// Counts a wire refused, for any reason: the one place it is counted.
    pub(crate) fn refuse(&mut self, _why: Refusal) {
        self.rejected_foreign += 1;
    }
}

/// What an in-progress flush is waiting on, as seen at one member — the
/// membership layer's contribution to the wait graph
/// ([`crate::waitgraph`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FlushWaits {
    /// The coordinator of the proposal being flushed toward.
    pub coordinator: usize,
    /// When this member entered the flush.
    pub since: SimTime,
    /// Proposal members whose `FlushOk` the coordinator still lacks.
    /// Empty at non-coordinators (only the coordinator tracks acks).
    pub missing_acks: Vec<usize>,
}

#[derive(Debug)]
enum Phase {
    Normal,
    /// Flushing toward `proposed`; coordinator tracks acks (member index →
    /// that member's delivered clock, the inputs to the flush cut).
    Flushing {
        proposed: View,
        acks: BTreeMap<usize, VectorClock>,
        since: SimTime,
        last_send: SimTime,
        attempts: u32,
    },
}

/// The membership state machine for one member.
#[derive(Debug)]
pub struct MembershipEngine {
    me: usize,
    n: usize,
    view: View,
    phase: Phase,
    /// The cut agreed for the most recently installed view (all zeros for
    /// the initial view).
    last_cut: VectorClock,
    /// Base interval for flush retransmissions.
    retry_after: SimDuration,
    stats: MembershipStats,
}

impl MembershipEngine {
    /// Creates the engine for member `me` of an initial group of `n`.
    pub fn new(me: usize, n: usize) -> Self {
        MembershipEngine {
            me,
            n,
            view: View::initial((0..n).map(ProcessId).collect()),
            phase: Phase::Normal,
            last_cut: VectorClock::new(n),
            retry_after: SimDuration::from_millis(50),
            stats: MembershipStats::default(),
        }
    }

    /// Overrides the base flush-retry interval (backoff doubles from here,
    /// capped at 8×).
    pub(crate) fn set_retry_interval(&mut self, d: SimDuration) {
        self.retry_after = d;
    }

    /// The currently installed view.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Whether the member may send application multicasts right now: it
    /// is not flushing.
    pub(crate) fn can_send(&self) -> bool {
        matches!(self.phase, Phase::Normal)
    }

    /// Statistics.
    pub fn stats(&self) -> &MembershipStats {
        &self.stats
    }

    /// The coordinator of a view: its lowest member index.
    fn coordinator_of(view: &View) -> usize {
        view.members.iter().map(|p| p.0).min().unwrap_or(0)
    }

    /// Whether every member of `a` is a member of `b`.
    fn within(a: &View, b: &View) -> bool {
        a.members.iter().all(|m| b.members.contains(m))
    }

    /// Live view of an in-progress flush, for the wait-graph collector:
    /// who coordinates it, when it began at this member, and — at the
    /// coordinator only, since only it tracks acks — which proposal
    /// members have not sent their `FlushOk` yet. `None` when no flush
    /// is in progress. Read-only.
    pub(crate) fn flush_waits(&self) -> Option<FlushWaits> {
        match &self.phase {
            Phase::Normal => None,
            Phase::Flushing {
                proposed,
                acks,
                since,
                ..
            } => {
                let coordinator = Self::coordinator_of(proposed);
                let missing_acks = if coordinator == self.me {
                    proposed
                        .members
                        .iter()
                        .map(|p| p.0)
                        .filter(|m| !acks.contains_key(m))
                        .collect()
                } else {
                    Vec::new()
                };
                Some(FlushWaits {
                    coordinator,
                    since: *since,
                    missing_acks,
                })
            }
        }
    }

    /// Deterministic tie-break between two divergent proposals carrying
    /// the same view id (concurrent coordinators with split suspicion
    /// sets): the smaller membership wins, then the lower coordinator
    /// index. Every member applies the same rule, so all converge on one.
    fn proposal_beats(a: &View, b: &View) -> bool {
        (a.members.len(), Self::coordinator_of(a)) < (b.members.len(), Self::coordinator_of(b))
    }

    /// Reports the *full* current suspect set (already-excluded members
    /// are ignored). `delivered` is this member's delivered clock,
    /// seeding its own flush ack. If this member is the surviving
    /// coordinator of the resulting proposal, it initiates (or
    /// supersedes) the view change; otherwise nothing happens — it waits
    /// for the coordinator's `Flush`.
    ///
    /// Call this every tick while the suspect set is non-empty, not just
    /// on new suspicions: it is idempotent while nothing changes, and it
    /// is what un-wedges a flush whose proposal includes a member that
    /// died before acking. Proposals are always derived from the
    /// *installed view* minus the suspect set, never from the in-flight
    /// proposal: that could not re-admit a member whose suspicion proved
    /// transient (a healed partition), and a flush wedged on a dead
    /// proposal member would stall although a live majority exists.
    pub fn suspect<P>(
        &mut self,
        now: SimTime,
        dead: &[usize],
        delivered: &VectorClock,
    ) -> (FlushAction, Vec<Out<P>>) {
        let dead_pids: Vec<ProcessId> = dead.iter().map(|&d| ProcessId(d)).collect();
        let mut proposed = self.view.without(&dead_pids);
        if proposed.members.len() == self.view.members.len() {
            // Everyone suspected is already out of the view.
            return (FlushAction::None, Vec::new());
        }
        if let Phase::Flushing { proposed: cur, .. } = &self.phase {
            if cur.members == proposed.members {
                // Already flushing exactly this membership; `on_tick`
                // handles the retries.
                return (FlushAction::None, Vec::new());
            }
            if Self::coordinator_of(&proposed) != self.me
                && dead.contains(&Self::coordinator_of(cur))
            {
                // A proposal whose coordinator is suspected cannot
                // complete, so it must not outrank the live coordinator's
                // replacement under the same-id tie-break: abandon it.
                // That coordinator keeps retrying, so we re-enter its
                // flush once it reaches us. Delivery stays frozen: our
                // FlushOk may already be in a cut; an install says which.
                self.phase = Phase::Normal;
                return (FlushAction::None, Vec::new());
            }
            // A different membership must supersede the in-flight
            // proposal everywhere, so it takes a strictly higher id.
            // This is also how the death of a proposing coordinator is
            // survived: the next-lowest member's proposal outranks it.
            proposed.id = ViewId(cur.id.0 + 1);
        }
        if Self::coordinator_of(&proposed) != self.me {
            return (FlushAction::None, Vec::new());
        }
        if 2 * proposed.members.len() <= self.view.members.len() {
            // Primary-partition rule: refuse to install a minority view.
            return (FlushAction::None, Vec::new());
        }
        let mut acks = BTreeMap::new();
        acks.insert(self.me, delivered.clone());
        let flush = Wire::Flush {
            proposed: proposed.clone(),
            from: self.me,
        };
        self.stats.flush_msgs += 1;
        self.phase = Phase::Flushing {
            proposed,
            acks,
            since: now,
            last_send: now,
            attempts: 0,
        };
        (FlushAction::RetransmitUnstable, vec![(Dest::All, flush)])
    }

    /// Periodic maintenance: retransmits the in-flight `Flush` (as
    /// coordinator, to members that have not acked) or this member's
    /// `FlushOk`, with bounded exponential backoff. Without this, a single
    /// dropped flush message wedges the view change forever.
    pub(crate) fn on_tick<P>(&mut self, now: SimTime, delivered: &VectorClock) -> Vec<Out<P>> {
        let me = self.me;
        let retry = self.retry_after;
        let Phase::Flushing {
            proposed,
            acks,
            last_send,
            attempts,
            ..
        } = &mut self.phase
        else {
            return Vec::new();
        };
        let backoff = retry.saturating_mul(1u64 << (*attempts).min(3));
        if now.saturating_since(*last_send) < backoff {
            return Vec::new();
        }
        *last_send = now;
        *attempts += 1;
        self.stats.flush_retries += 1;
        let out: Vec<Out<P>> = if Self::coordinator_of(proposed) == me {
            acks.insert(me, delivered.clone());
            proposed
                .members
                .iter()
                .map(|m| m.0)
                .filter(|i| !acks.contains_key(i))
                .map(|i| {
                    (
                        Dest::One(i),
                        Wire::Flush {
                            proposed: proposed.clone(),
                            from: me,
                        },
                    )
                })
                .collect()
        } else {
            vec![(
                Dest::One(Self::coordinator_of(proposed)),
                Wire::FlushOk {
                    view_id: proposed.id,
                    from: me,
                    delivered: delivered.clone(),
                },
            )]
        };
        self.stats.flush_msgs += out.len() as u64;
        out
    }

    /// Handles a membership wire message — a `Flush`, `FlushOk`,
    /// `Install` or `Heartbeat`. `delivered` is this member's current
    /// delivered clock (sent in `FlushOk`).
    pub fn on_wire<P>(
        &mut self,
        now: SimTime,
        wire: &Wire<P>,
        delivered: &VectorClock,
    ) -> (FlushAction, Vec<Out<P>>) {
        // A sender index addresses the reply and keys the acks, a clock is
        // merged into the cut, and an empty member list passes every
        // subset guard below vacuously: the endpoints' front door refuses
        // what no member of this group, evicted or not, can send.
        if let Err(why) = wire::admit(wire, self.n) {
            self.stats.refuse(why);
            return (FlushAction::None, Vec::new());
        }
        match wire {
            Wire::Flush { proposed, from } => {
                if proposed.id.0 <= self.view.id.0 {
                    // Stale: the proposer derived this from a view older
                    // than ours, so it missed at least one Install. Serve
                    // our view so it can catch up (its guards drop the
                    // reply if it already has).
                    return (FlushAction::None, self.repair_install(*from));
                }
                // Monotone-shrink guard: views only ever lose members, so
                // a legitimate proposal lies within our view. One that
                // does not comes from a view we have since shrunk past, or
                // from an evictee that never learned it is out: it can
                // never complete here, and an evictee's beyond-cut history
                // must not enter the new cut. Serve our Install so the
                // straggler adopts the newer view instead of retrying.
                if !Self::within(proposed, &self.view) {
                    self.stats.refuse(Refusal::OutsideView);
                    return (FlushAction::None, self.repair_install(*from));
                }
                match &self.phase {
                    Phase::Flushing { proposed: cur, .. }
                        if cur.id == proposed.id && cur.members == proposed.members =>
                    {
                        // Retried copy of the proposal we are already
                        // flushing: fall through and re-ack (covers a
                        // lost FlushOk).
                    }
                    Phase::Flushing { proposed: cur, .. }
                        if cur.id.0 > proposed.id.0
                            || (cur.id == proposed.id && !Self::proposal_beats(proposed, cur)) =>
                    {
                        // Our in-flight proposal supersedes this one.
                        return (FlushAction::None, Vec::new());
                    }
                    _ => {
                        self.phase = Phase::Flushing {
                            proposed: proposed.clone(),
                            acks: BTreeMap::new(),
                            since: now,
                            last_send: now,
                            attempts: 0,
                        };
                    }
                }
                let ok = Wire::FlushOk {
                    view_id: proposed.id,
                    from: self.me,
                    delivered: delivered.clone(),
                };
                self.stats.flush_msgs += 1;
                (
                    FlushAction::RetransmitUnstable,
                    vec![(Dest::One(*from), ok)],
                )
            }
            Wire::FlushOk {
                view_id,
                from,
                delivered: peer_delivered,
            } => {
                // Repair path: a FlushOk reaching a Normal-phase process
                // means its sender missed an Install — of this very view,
                // or of one that superseded the proposal it acks. Serve
                // ours; the receiver's guards drop it if it is not newer.
                if matches!(self.phase, Phase::Normal) && *from != self.me {
                    return (FlushAction::None, self.repair_install(*from));
                }
                let install = match &mut self.phase {
                    Phase::Flushing { proposed, acks, .. }
                        if proposed.id == *view_id && Self::coordinator_of(proposed) == self.me =>
                    {
                        // Only proposal members feed the cut: a FlushOk
                        // from an outsider (an evictee that also received
                        // the broadcast Flush) would inflate the cut with
                        // deliveries no survivor is bound to.
                        if !proposed.members.iter().any(|m| m.0 == *from) {
                            self.stats.refuse(Refusal::OutsideView);
                            return (FlushAction::None, Vec::new());
                        }
                        acks.insert(*from, peer_delivered.clone());
                        acks.insert(self.me, delivered.clone());
                        let everyone = proposed.members.iter().all(|m| acks.contains_key(&m.0));
                        everyone.then(|| {
                            // A view's cut extends its predecessor's: acks
                            // still chasing what the old cut admitted must
                            // not pull the boundary back.
                            let mut cut = self.last_cut.clone();
                            for d in acks.values() {
                                cut.merge(d);
                            }
                            (proposed.clone(), cut)
                        })
                    }
                    _ => None,
                };
                if let Some((view, cut)) = install {
                    let msg = Wire::Install {
                        view: view.clone(),
                        cut: cut.clone(),
                    };
                    self.stats.flush_msgs += 1;
                    let action = self.install(now, view, cut);
                    (action, vec![(Dest::All, msg)])
                } else {
                    (FlushAction::None, Vec::new())
                }
            }
            Wire::Install { view, cut } => {
                if view.id.0 <= self.view.id.0 {
                    return (FlushAction::None, Vec::new());
                }
                // Same monotone-shrink guard as for proposals.
                if !Self::within(view, &self.view) {
                    self.stats.refuse(Refusal::OutsideView);
                    return (FlushAction::None, Vec::new());
                }
                let action = self.install(now, view.clone(), cut.clone());
                (action, Vec::new())
            }
            // Heartbeat-borne anti-entropy: a peer advertising an older
            // view id missed at least one `Install` — serve ours. Nothing
            // else reaches a straggler that is neither proposing nor
            // acking, such as one that abandoned a doomed flush and sits
            // in the old view.
            Wire::Heartbeat { from, view_id } if view_id.0 < self.view.id.0 => {
                (FlushAction::None, self.repair_install(*from))
            }
            _ => (FlushAction::None, Vec::new()),
        }
    }

    /// A one-shot `Install` of the current view, sent to a straggler that
    /// evidently missed it. Receiver guards (id monotonicity, subset
    /// check) make a misdirected repair a no-op.
    fn repair_install<P>(&mut self, to: usize) -> Vec<Out<P>> {
        self.stats.flush_msgs += 1;
        vec![(
            Dest::One(to),
            Wire::Install {
                view: self.view.clone(),
                cut: self.last_cut.clone(),
            },
        )]
    }

    /// Installs `view`. A flush ends here only if its proposal can no
    /// longer install: `view` is at least as new, or lacks a proposed
    /// member. Otherwise our FlushOk still bounds the cut the proposal
    /// will fix, so the flush and the delivery freeze go on.
    fn install(&mut self, now: SimTime, view: View, cut: VectorClock) -> FlushAction {
        if let Phase::Flushing {
            proposed, since, ..
        } = &self.phase
        {
            if proposed.id.0 <= view.id.0 || !Self::within(proposed, &view) {
                let blackout = now.saturating_since(*since);
                self.stats.blackout_total += blackout;
                self.stats.last_blackout = blackout;
                self.phase = Phase::Normal;
            }
        }
        self.view = view.clone();
        self.last_cut = cut.clone();
        self.stats.view_changes += 1;
        FlushAction::ViewInstalled { view, cut }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::ViewId;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn vc(n: usize) -> VectorClock {
        VectorClock::new(n)
    }

    /// The proposal `m` is flushing toward, if any.
    fn proposal(m: &MembershipEngine) -> Option<&View> {
        match &m.phase {
            Phase::Normal => None,
            Phase::Flushing { proposed, .. } => Some(proposed),
        }
    }

    /// Whether `m` coordinates the flush it is in.
    fn coordinates(m: &MembershipEngine) -> bool {
        m.flush_waits().is_some_and(|w| w.coordinator == m.me)
    }

    #[test]
    fn coordinator_initiates_on_suspicion() {
        let mut m0 = MembershipEngine::new(0, 3);
        assert!(m0.can_send());
        let (action, out) = m0.suspect::<()>(t(0), &[2], &vc(3));
        assert_eq!(action, FlushAction::RetransmitUnstable);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, Wire::Flush { .. }));
        assert!(!m0.can_send(), "blackout during flush");
        assert!(coordinates(&m0));
        assert!(proposal(&m0).is_some());
    }

    #[test]
    fn non_coordinator_waits() {
        let mut m1 = MembershipEngine::new(1, 3);
        let (action, out) = m1.suspect::<()>(t(0), &[2], &vc(3));
        assert_eq!(action, FlushAction::None);
        assert!(out.is_empty());
        assert!(m1.can_send());
    }

    #[test]
    fn full_view_change_roundtrip() {
        let mut m0 = MembershipEngine::new(0, 3);
        let mut m1 = MembershipEngine::new(1, 3);
        // Member 2 dies; coordinator 0 flushes.
        let (_, out) = m0.suspect::<()>(t(0), &[2], &vc(3));
        let flush = out[0].1.clone();
        // m1 receives Flush, retransmits unstable, FlushOks.
        let (a1, out1) = m1.on_wire(t(1), &flush, &vc(3));
        assert_eq!(a1, FlushAction::RetransmitUnstable);
        assert!(!m1.can_send());
        let flush_ok = out1[0].1.clone();
        assert_eq!(out1[0].0, Dest::One(0));
        // Coordinator collects; with m0 (implicit) + m1 that is everyone.
        let (a0, out0) = m0.on_wire(t(5), &flush_ok, &vc(3));
        match a0 {
            FlushAction::ViewInstalled { view, .. } => {
                assert_eq!(view.id, ViewId(2));
                assert_eq!(view.members.len(), 2);
            }
            other => panic!("expected install, got {other:?}"),
        }
        let install = out0[0].1.clone();
        // m1 installs too.
        let (a1, _) = m1.on_wire(t(6), &install, &vc(3));
        assert!(matches!(a1, FlushAction::ViewInstalled { .. }));
        assert!(m0.can_send() && m1.can_send());
        assert_eq!(m0.stats().view_changes, 1);
        assert_eq!(m1.stats().last_blackout, SimDuration::from_millis(5));
    }

    #[test]
    fn cut_is_max_of_flush_ok_clocks() {
        let mut m0 = MembershipEngine::new(0, 3);
        let my_clock = VectorClock::from_entries(vec![4, 0, 2]);
        let (_, _) = m0.suspect::<()>(t(0), &[2], &my_clock);
        let peer_clock = VectorClock::from_entries(vec![3, 5, 1]);
        let ok = Wire::<()>::FlushOk {
            view_id: ViewId(2),
            from: 1,
            delivered: peer_clock,
        };
        let (a, _) = m0.on_wire(t(1), &ok, &my_clock);
        match a {
            FlushAction::ViewInstalled { cut, .. } => {
                assert_eq!(cut, VectorClock::from_entries(vec![4, 5, 2]));
            }
            other => panic!("expected install, got {other:?}"),
        }
        assert_eq!(m0.last_cut, VectorClock::from_entries(vec![4, 5, 2]));
    }

    #[test]
    fn a_cut_never_falls_below_the_previous_views() {
        // View 2 fixed cut[3] = 68: some survivor may have delivered m3.68
        // already. The FlushOks for the view that removes 3 come from
        // clocks still chasing m3.66..68; the new cut keeps 68.
        let mut m0 = MembershipEngine::new(0, 5);
        let old_cut = VectorClock::from_entries(vec![9, 9, 9, 68, 0]);
        let install = Wire::<()>::Install {
            view: view(2, &[0, 1, 2, 3]),
            cut: old_cut,
        };
        m0.on_wire(t(0), &install, &vc(5));
        let chasing = VectorClock::from_entries(vec![12, 11, 10, 65, 0]);
        let (_, out) = m0.suspect::<()>(t(1), &[3], &chasing);
        assert!(matches!(out[0].1, Wire::Flush { .. }));
        for from in [1, 2] {
            let ok = Wire::<()>::FlushOk {
                view_id: ViewId(3),
                from,
                delivered: chasing.clone(),
            };
            m0.on_wire(t(2), &ok, &chasing);
        }
        assert_eq!(m0.view(), &view(3, &[0, 1, 2]));
        let want = VectorClock::from_entries(vec![12, 11, 10, 68, 0]);
        assert_eq!(m0.last_cut, want);
    }

    #[test]
    fn only_an_install_that_settles_the_proposal_ends_the_flush() {
        // Member 1 acks 0's {0,1,2}@3, then view 2's Install arrives late:
        // {0,1,2} can still install after it, so the flush goes on.
        let mut m1 = MembershipEngine::new(1, 5);
        let flush = Wire::<()>::Flush {
            proposed: view(3, &[0, 1, 2]),
            from: 0,
        };
        m1.on_wire(t(0), &flush, &vc(5));
        let late = Wire::<()>::Install {
            view: view(2, &[0, 1, 2, 3]),
            cut: vc(5),
        };
        let (a, _) = m1.on_wire(t(10), &late, &vc(5));
        assert!(matches!(a, FlushAction::ViewInstalled { .. }));
        assert_eq!(m1.view().id, ViewId(2));
        assert_eq!(proposal(&m1), Some(&view(3, &[0, 1, 2])));
        assert!(!m1.can_send());
        assert_eq!(m1.stats().last_blackout, SimDuration::ZERO);
        // The proposal's own install ends it, blackout measured from the
        // Flush.
        let own = Wire::<()>::Install {
            view: view(3, &[0, 1, 2]),
            cut: vc(5),
        };
        m1.on_wire(t(30), &own, &vc(5));
        assert!(m1.can_send() && proposal(&m1).is_none());
        assert_eq!(m1.stats().last_blackout, SimDuration::from_millis(30));
        // An older view that the proposal is not within ends it too: the
        // proposal can never install after it.
        let mut m2 = MembershipEngine::new(2, 5);
        let flush = Wire::<()>::Flush {
            proposed: view(3, &[0, 2, 3]),
            from: 0,
        };
        m2.on_wire(t(0), &flush, &vc(5));
        let without_3 = Wire::<()>::Install {
            view: view(2, &[0, 1, 2, 4]),
            cut: vc(5),
        };
        m2.on_wire(t(10), &without_3, &vc(5));
        assert!(m2.can_send() && proposal(&m2).is_none());
    }

    #[test]
    fn stale_flush_ignored() {
        let mut m = MembershipEngine::new(1, 3);
        let stale = Wire::<()>::Flush {
            proposed: View {
                id: ViewId(1), // not newer than current
                members: vec![ProcessId(0), ProcessId(1)],
            },
            from: 0,
        };
        let (a, out) = m.on_wire(t(0), &stale, &vc(3));
        assert_eq!(a, FlushAction::None);
        // A stale proposer has missed an Install: the reply serves the
        // current view so it can catch up.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Dest::One(0));
        assert!(matches!(out[0].1, Wire::Install { .. }));
    }

    #[test]
    fn duplicate_install_ignored() {
        let mut m = MembershipEngine::new(1, 3);
        let v2 = View {
            id: ViewId(2),
            members: vec![ProcessId(0), ProcessId(1)],
        };
        let install = Wire::<()>::Install {
            view: v2.clone(),
            cut: vc(3),
        };
        let (a, _) = m.on_wire(t(0), &install, &vc(3));
        assert!(matches!(a, FlushAction::ViewInstalled { .. }));
        let (a, _) = m.on_wire(t(1), &install, &vc(3));
        assert_eq!(a, FlushAction::None);
        assert_eq!(m.stats().view_changes, 1);
    }

    #[test]
    fn suspicion_of_unknown_member_is_noop() {
        let mut m0 = MembershipEngine::new(0, 3);
        let (a, out) = m0.suspect::<()>(t(0), &[9], &vc(3));
        assert_eq!(a, FlushAction::None);
        assert!(out.is_empty());
    }

    #[test]
    fn coordinator_death_promotes_next() {
        // Member 0 dies; member 1 becomes coordinator of the proposal.
        let mut m1 = MembershipEngine::new(1, 3);
        let (a, out) = m1.suspect::<()>(t(0), &[0], &vc(3));
        assert_eq!(a, FlushAction::RetransmitUnstable);
        assert!(!out.is_empty());
        assert!(coordinates(&m1));
    }

    #[test]
    fn coordinator_retries_flush_until_acked() {
        // S2 regression: a lost Flush used to wedge the change forever.
        let mut m0 = MembershipEngine::new(0, 4);
        m0.set_retry_interval(SimDuration::from_millis(20));
        let (_, first) = m0.suspect::<()>(t(0), &[3], &vc(4));
        assert_eq!(first.len(), 1);
        // Too early: nothing.
        assert!(m0.on_tick::<()>(t(10), &vc(4)).is_empty());
        // First retry after the base interval, to the members that have
        // not acked (1 and 2).
        let r1 = m0.on_tick::<()>(t(20), &vc(4));
        assert_eq!(r1.len(), 2);
        assert!(r1.iter().all(|(d, w)| matches!(w, Wire::Flush { .. })
            && matches!(d, Dest::One(k) if *k == 1 || *k == 2)));
        // Backoff doubles: next at +40ms, not +20ms.
        assert!(m0.on_tick::<()>(t(40), &vc(4)).is_empty());
        let r2 = m0.on_tick::<()>(t(60), &vc(4));
        assert_eq!(r2.len(), 2);
        assert_eq!(m0.stats().flush_retries, 2);
        // An ack narrows the retry fan-out.
        let ok = Wire::<()>::FlushOk {
            view_id: ViewId(2),
            from: 1,
            delivered: vc(4),
        };
        m0.on_wire(t(70), &ok, &vc(4));
        let r3 = m0.on_tick::<()>(t(1000), &vc(4));
        assert_eq!(r3.len(), 1);
        assert!(matches!(r3[0].0, Dest::One(2)));
    }

    #[test]
    fn member_retries_flush_ok() {
        let mut m1 = MembershipEngine::new(1, 3);
        m1.set_retry_interval(SimDuration::from_millis(20));
        let flush = Wire::<()>::Flush {
            proposed: View {
                id: ViewId(2),
                members: vec![ProcessId(0), ProcessId(1)],
            },
            from: 0,
        };
        m1.on_wire(t(0), &flush, &vc(3));
        let r = m1.on_tick::<()>(t(25), &vc(3));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, Dest::One(0));
        assert!(matches!(r[0].1, Wire::FlushOk { .. }));
    }

    #[test]
    fn duplicate_flush_reacks() {
        // A retried Flush (the coordinator never saw our FlushOk) must be
        // re-acked, not ignored.
        let mut m1 = MembershipEngine::new(1, 3);
        let flush = Wire::<()>::Flush {
            proposed: View {
                id: ViewId(2),
                members: vec![ProcessId(0), ProcessId(1)],
            },
            from: 0,
        };
        let (_, out1) = m1.on_wire(t(0), &flush, &vc(3));
        assert!(matches!(out1[0].1, Wire::FlushOk { .. }));
        let (_, out2) = m1.on_wire(t(5), &flush, &vc(3));
        assert!(matches!(out2[0].1, Wire::FlushOk { .. }));
    }

    #[test]
    fn flush_ok_after_install_reserves_install() {
        // The Install was lost; the member keeps retrying FlushOk; the
        // coordinator (already Normal in the new view) must re-serve the
        // Install rather than ignore the ack.
        let mut m0 = MembershipEngine::new(0, 3);
        let (_, _) = m0.suspect::<()>(t(0), &[2], &vc(3));
        let ok = Wire::<()>::FlushOk {
            view_id: ViewId(2),
            from: 1,
            delivered: vc(3),
        };
        let (a, _) = m0.on_wire(t(1), &ok, &vc(3));
        assert!(matches!(a, FlushAction::ViewInstalled { .. }));
        // The member retries its ack.
        let (a, out) = m0.on_wire(t(100), &ok, &vc(3));
        assert_eq!(a, FlushAction::None);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Dest::One(1));
        assert!(matches!(out[0].1, Wire::Install { .. }));
    }

    #[test]
    fn foreign_member_proposal_rejected() {
        // m1 installed {0,1} (2 evicted); a wedged 2 later proposes a
        // higher-id view containing itself. The monotone-shrink guard
        // must refuse it — accepting would resurrect the evictee with
        // inconsistent cut state at every survivor.
        let mut m1 = MembershipEngine::new(1, 3);
        let v2 = View {
            id: ViewId(2),
            members: vec![ProcessId(0), ProcessId(1)],
        };
        m1.on_wire::<()>(
            t(0),
            &Wire::Install {
                view: v2,
                cut: vc(3),
            },
            &vc(3),
        );
        let rejoin = Wire::<()>::Flush {
            proposed: View {
                id: ViewId(3),
                members: vec![ProcessId(1), ProcessId(2)],
            },
            from: 2,
        };
        let (a, out) = m1.on_wire(t(1), &rejoin, &vc(3));
        assert_eq!(a, FlushAction::None);
        // The rejection carries a repair Install so the wedged evictee
        // learns it is out instead of retrying forever.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Dest::One(2));
        assert!(matches!(out[0].1, Wire::Install { .. }));
        assert!(m1.can_send(), "guarded member never entered the flush");
        assert_eq!(m1.stats().rejected_foreign, 1);
        // Same guard for a direct Install.
        let install = Wire::<()>::Install {
            view: View {
                id: ViewId(3),
                members: vec![ProcessId(1), ProcessId(2)],
            },
            cut: vc(3),
        };
        let (a, _) = m1.on_wire(t(2), &install, &vc(3));
        assert_eq!(a, FlushAction::None);
        assert_eq!(m1.view().id, ViewId(2));
        assert_eq!(m1.stats().rejected_foreign, 2);
    }

    /// Feeds each wire to `m` and holds the engine to a whole refusal:
    /// no action, nothing sent, and a `Debug` text that differs only in
    /// `rejected_foreign`.
    fn assert_refused(m: &mut MembershipEngine, hostile: &[Wire<()>]) {
        for w in hostile {
            let refused = m.stats().rejected_foreign;
            let expected = format!("{m:?}").replace(
                &format!("rejected_foreign: {refused}"),
                &format!("rejected_foreign: {}", refused + 1),
            );
            let (a, out) = m.on_wire(t(1), w, &vc(4));
            assert_eq!(a, FlushAction::None, "{w:?}");
            assert!(out.is_empty(), "{w:?} was answered with {out:?}");
            assert_eq!(format!("{m:?}"), expected, "{w:?}");
        }
    }

    fn view(id: u64, members: &[usize]) -> View {
        View {
            id: ViewId(id),
            members: members.iter().copied().map(ProcessId).collect(),
        }
    }

    #[test]
    fn sender_outside_the_group_is_refused() {
        // A `from` indexes nothing in a group of 4 from 4 up; answering it
        // would address a reply to a process that does not exist.
        let mut m1 = MembershipEngine::new(1, 4);
        let mut hostile = Vec::new();
        for from in [4, usize::MAX] {
            hostile.push(Wire::Flush {
                proposed: view(2, &[0, 1, 2]),
                from,
            });
            hostile.push(Wire::FlushOk {
                view_id: ViewId(2),
                from,
                delivered: vc(4),
            });
        }
        // The heartbeat path serves an Install to whoever advertises an
        // older view: same door.
        hostile.push(Wire::Heartbeat {
            from: 4,
            view_id: ViewId(0),
        });
        assert_refused(&mut m1, &hostile);
        assert!(m1.can_send(), "never entered a flush");
        // An evicted member of the group is still answered (seeds 191
        // and 206): the refusal is about who can exist, not who is in.
        m1.on_wire::<()>(
            t(2),
            &Wire::Install {
                view: view(2, &[0, 1, 2]),
                cut: vc(4),
            },
            &vc(4),
        );
        let evictee = Wire::<()>::FlushOk {
            view_id: ViewId(2),
            from: 3,
            delivered: vc(4),
        };
        let (_, out) = m1.on_wire(t(3), &evictee, &vc(4));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Dest::One(3));
        assert!(matches!(out[0].1, Wire::Install { .. }));
    }

    #[test]
    fn view_with_nobody_in_it_is_refused() {
        // "Every proposed member is in the installed view" holds of no
        // members at all: one message would install an empty view, or
        // park the member in a flush toward a coordinator it made up.
        let mut m1 = MembershipEngine::new(1, 4);
        let hostile = [
            Wire::Flush {
                proposed: view(2, &[]),
                from: 0,
            },
            Wire::Install {
                view: view(2, &[]),
                cut: vc(4),
            },
        ];
        assert_refused(&mut m1, &hostile);
        assert!(m1.can_send());
        assert_eq!(m1.view(), &view(1, &[0, 1, 2, 3]));
    }

    #[test]
    fn clock_of_another_width_is_refused() {
        // Coordinator 0 of 4, mid-flush toward {0,1,2}: a 9-wide FlushOk
        // clock would be merged into the cut every survivor installs.
        let mut m0 = MembershipEngine::new(0, 4);
        let (_, _) = m0.suspect::<()>(t(0), &[3], &vc(4));
        let wide = Wire::FlushOk {
            view_id: ViewId(2),
            from: 1,
            delivered: vc(9),
        };
        assert_refused(&mut m0, &[wide]);
        assert_eq!(m0.flush_waits().expect("mid-flush").missing_acks, [1, 2]);
        for from in [1, 2] {
            let ok = Wire::<()>::FlushOk {
                view_id: ViewId(2),
                from,
                delivered: vc(4),
            };
            m0.on_wire(t(2), &ok, &vc(4));
        }
        assert_eq!(m0.view().id, ViewId(2));
        assert_eq!(m0.last_cut.len(), 4);
        // And a cut of another width is not installed.
        let mut m1 = MembershipEngine::new(1, 4);
        let install = Wire::Install {
            view: view(2, &[0, 1, 2]),
            cut: vc(9),
        };
        assert_refused(&mut m1, &[install]);
        assert_eq!(m1.view().id, ViewId(1));
    }

    #[test]
    fn flush_ok_from_non_member_does_not_pollute_cut() {
        // 0 proposes {0,1} (2 evicted). The evictee, having received the
        // broadcast Flush, acks with a clock far beyond anything the
        // survivors delivered. Its ack must not count toward completion
        // or the cut.
        let mut m0 = MembershipEngine::new(0, 3);
        let my_clock = VectorClock::from_entries(vec![1, 0, 0]);
        let (_, _) = m0.suspect::<()>(t(0), &[2], &my_clock);
        let evictee_ok = Wire::<()>::FlushOk {
            view_id: ViewId(2),
            from: 2,
            delivered: VectorClock::from_entries(vec![1, 0, 9]),
        };
        let (a, out) = m0.on_wire(t(1), &evictee_ok, &my_clock);
        assert_eq!(a, FlushAction::None, "outsider ack must not complete");
        assert!(out.is_empty());
        assert_eq!(m0.stats().rejected_foreign, 1);
        let ok = Wire::<()>::FlushOk {
            view_id: ViewId(2),
            from: 1,
            delivered: VectorClock::from_entries(vec![1, 2, 0]),
        };
        let (a, _) = m0.on_wire(t(2), &ok, &my_clock);
        match a {
            FlushAction::ViewInstalled { cut, .. } => {
                assert_eq!(
                    cut,
                    VectorClock::from_entries(vec![1, 2, 0]),
                    "cut reflects proposal members only"
                );
            }
            other => panic!("expected install, got {other:?}"),
        }
    }

    #[test]
    fn coordinator_death_mid_flush_is_superseded() {
        // In a group of 5, 0 proposes {0,1,2,3} (4 died); then 0 dies
        // too. 1 must supersede with a higher-id proposal instead of
        // leaving everyone wedged in the flush blackout.
        let mut m1 = MembershipEngine::new(1, 5);
        let flush = Wire::<()>::Flush {
            proposed: View {
                id: ViewId(2),
                members: vec![ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(3)],
            },
            from: 0,
        };
        m1.on_wire(t(0), &flush, &vc(5));
        assert!(!m1.can_send());
        // Full suspect set: 4 (the original death) plus 0 (the dead
        // coordinator). Proposals derive from the installed view minus
        // this set, so both must be reported.
        let (a, out) = m1.suspect::<()>(t(50), &[0, 4], &vc(5));
        assert_eq!(a, FlushAction::RetransmitUnstable);
        match &out[0].1 {
            Wire::Flush { proposed, from } => {
                assert_eq!(*from, 1);
                assert_eq!(proposed.id, ViewId(3));
                assert_eq!(
                    proposed.members,
                    vec![ProcessId(1), ProcessId(2), ProcessId(3)]
                );
            }
            other => panic!("expected superseding flush, got {other:?}"),
        }
        assert_eq!(proposal(&m1).map(|p| p.id), Some(ViewId(3)));
        assert!(coordinates(&m1) && !m1.can_send());
    }

    #[test]
    fn doomed_flush_abandoned_when_coordinator_suspected() {
        // m2 (group of 5) joins 0's flush toward {0,1,2,3}; then 0 dies
        // too. m2 cannot coordinate the replacement, so it must abandon
        // the doomed proposal — otherwise the same-id tie-break pins it
        // to the dead coordinator's proposal and it rejects the live
        // coordinator's superseding Flush forever (chaos seed 479).
        let mut m2 = MembershipEngine::new(2, 5);
        let flush = Wire::<()>::Flush {
            proposed: View {
                id: ViewId(2),
                members: vec![ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(3)],
            },
            from: 0,
        };
        m2.on_wire(t(0), &flush, &vc(5));
        assert!(!m2.can_send());
        let (a, out) = m2.suspect::<()>(t(50), &[0, 4], &vc(5));
        assert_eq!(a, FlushAction::None);
        assert!(out.is_empty(), "no Flush: 1 coordinates the replacement");
        assert!(proposal(&m2).is_none());
        assert!(m2.can_send());
        // The live coordinator's superseding proposal is now adoptable.
        let flush2 = Wire::<()>::Flush {
            proposed: View {
                id: ViewId(3),
                members: vec![ProcessId(1), ProcessId(2), ProcessId(3)],
            },
            from: 1,
        };
        let (a, out) = m2.on_wire(t(60), &flush2, &vc(5));
        assert_eq!(a, FlushAction::RetransmitUnstable);
        assert!(matches!(out[0].1, Wire::FlushOk { .. }));
    }

    #[test]
    fn heartbeat_from_stale_view_triggers_install_repair() {
        // A straggler that missed an Install and is neither proposing
        // nor acking has no retry path pointed at it; its heartbeats
        // advertise the stale view id and any newer peer repairs it.
        let mut m1 = MembershipEngine::new(1, 3);
        let v2 = View {
            id: ViewId(2),
            members: vec![ProcessId(0), ProcessId(1)],
        };
        m1.on_wire::<()>(
            t(0),
            &Wire::Install {
                view: v2,
                cut: vc(3),
            },
            &vc(3),
        );
        let heartbeat = |from, view_id| Wire::<()>::Heartbeat {
            from,
            view_id: ViewId(view_id),
        };
        let (_, out) = m1.on_wire(t(1), &heartbeat(2, 1), &vc(3));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, Dest::One(2));
        assert!(matches!(out[0].1, Wire::Install { .. }));
        // A peer at the same (or newer) view needs no repair.
        assert!(m1.on_wire(t(1), &heartbeat(0, 2), &vc(3)).1.is_empty());
    }

    #[test]
    fn minority_proposal_stalls() {
        // In a group of 4, a 2-member proposal is not a strict majority:
        // the minority side of an even split must not install.
        let mut m0 = MembershipEngine::new(0, 4);
        let (a, out) = m0.suspect::<()>(t(0), &[2, 3], &vc(4));
        assert_eq!(a, FlushAction::None);
        assert!(out.is_empty(), "no Flush goes out");
        assert!(m0.can_send(), "stalled, not flushing");
        assert!(proposal(&m0).is_none());
        // A 3-member proposal is a majority and proceeds.
        let (a, _) = m0.suspect::<()>(t(1), &[3], &vc(4));
        assert_eq!(a, FlushAction::RetransmitUnstable);
    }

    #[test]
    fn same_id_divergent_proposals_tie_break() {
        // Split suspicion: 1 proposes {1,2,3,4} (0 dead), 2 proposes
        // {2,3,4} (0 and 1 dead), both id 2. Smaller membership wins
        // everywhere, so member 3 must adopt 2's proposal even after
        // acking 1's.
        let mut m3 = MembershipEngine::new(3, 5);
        let big = Wire::<()>::Flush {
            proposed: View {
                id: ViewId(2),
                members: vec![ProcessId(1), ProcessId(2), ProcessId(3), ProcessId(4)],
            },
            from: 1,
        };
        let small = Wire::<()>::Flush {
            proposed: View {
                id: ViewId(2),
                members: vec![ProcessId(2), ProcessId(3), ProcessId(4)],
            },
            from: 2,
        };
        let (_, out_big) = m3.on_wire(t(0), &big, &vc(5));
        assert_eq!(out_big[0].0, Dest::One(1));
        let (_, out_small) = m3.on_wire(t(1), &small, &vc(5));
        assert_eq!(out_small[0].0, Dest::One(2), "adopted the smaller proposal");
        // The loser arriving after the winner is ignored.
        let (a, out) = m3.on_wire(t(2), &big, &vc(5));
        assert_eq!(a, FlushAction::None);
        assert!(out.is_empty());
    }
}
