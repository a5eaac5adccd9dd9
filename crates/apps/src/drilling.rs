//! The drilling example — appendix 9.1.
//!
//! A factory cell must drill a set of holes across several driller
//! controllers; no hole may be drilled twice; failures leave holes to be
//! checked.
//!
//! Two implementations, compared by message traffic:
//!
//! - **CATOCS / distributed** (Birman's design): the hole list is
//!   broadcast once; every driller schedules independently; every
//!   completion is causally multicast to all drillers so their schedules
//!   stay consistent. Traffic: one multicast of D−1 messages per hole —
//!   `H·(D−1)` data messages, quadratic when work scales with drillers.
//! - **Central / state-level** (the paper's alternative): a central cell
//!   controller assigns holes and receives completions — `2·H` messages
//!   (+`2·H` to mirror state to a backup), linear regardless of D.

use catocs::endpoint::Discipline;
use catocs::group::GroupConfig;
use catocs::harness::{spawn_group, GroupApp, GroupCtx, GroupNode};
use catocs::wire::{Delivery, Wire};
use simnet::net::NetConfig;
use simnet::process::{Ctx, Process, ProcessId, TimerId};
use simnet::sim::SimBuilder;
use simnet::time::{SimDuration, SimTime};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// Distributed (CATOCS) implementation.
// ---------------------------------------------------------------------

/// Group payload: a completed hole.
#[derive(Clone, Debug)]
pub(crate) struct HoleDone {
    /// The hole index.
    pub hole: u32,
}

/// One driller controller in the distributed design: drills the holes
/// assigned to it by the (deterministic) shared schedule, multicasting
/// each completion.
pub(crate) struct DistributedDriller {
    me: usize,
    n: usize,
    holes_total: u32,
    /// Next of my holes to drill.
    cursor: u32,
    /// All completions seen (mine and peers').
    pub completed: BTreeSet<u32>,
    /// Holes I drilled.
    pub drilled_by_me: Vec<u32>,
}

impl DistributedDriller {
    fn my_next_hole(&self) -> Option<u32> {
        let mut h = self.cursor;
        while h < self.holes_total {
            if h as usize % self.n == self.me && !self.completed.contains(&h) {
                return Some(h);
            }
            h += 1;
        }
        None
    }
}

impl GroupApp<HoleDone> for DistributedDriller {
    fn on_tick(&mut self, _ctx: &mut GroupCtx<'_>) -> Vec<HoleDone> {
        // One hole per tick (the drill time).
        if let Some(h) = self.my_next_hole() {
            self.cursor = h + 1;
            self.completed.insert(h);
            self.drilled_by_me.push(h);
            vec![HoleDone { hole: h }]
        } else {
            Vec::new()
        }
    }

    fn on_deliver(&mut self, _ctx: &mut GroupCtx<'_>, d: &Delivery<HoleDone>) -> Vec<HoleDone> {
        self.completed.insert(d.payload.hole);
        Vec::new()
    }
}

/// Results of a distributed drilling run.
#[derive(Clone, Debug)]
pub struct DrillingResult {
    /// Total messages on the wire (data + protocol).
    pub net_sent: u64,
    /// Application data messages only.
    pub data_msgs: u64,
    /// Every hole drilled exactly once?
    pub each_hole_once: bool,
    /// Holes drilled in total.
    pub holes_drilled: usize,
    /// Simulated completion time.
    pub makespan: SimTime,
}

/// Runs the distributed (CATOCS) drilling design.
pub fn run_drilling_distributed(
    seed: u64,
    drillers: usize,
    holes: u32,
    net: NetConfig,
) -> DrillingResult {
    let mut sim = SimBuilder::new(seed).net(net).build::<Wire<HoleDone>>();
    let members = spawn_group(
        &mut sim,
        drillers,
        Discipline::Causal,
        GroupConfig::default(),
        Some(SimDuration::from_millis(20)),
        |me| DistributedDriller {
            me,
            n: drillers,
            holes_total: holes,
            cursor: 0,
            completed: BTreeSet::new(),
            drilled_by_me: Vec::new(),
        },
    );
    sim.run_until(SimTime::from_secs(30));
    let mut all: Vec<u32> = Vec::new();
    let mut data_msgs = 0;
    for &m in &members {
        let node = sim
            .process::<GroupNode<HoleDone, DistributedDriller>>(m)
            .expect("driller");
        all.extend(&node.app().drilled_by_me);
        data_msgs += node.stats().sent * (drillers as u64 - 1);
    }
    all.sort_unstable();
    let each_hole_once =
        all.len() == holes as usize && all.iter().enumerate().all(|(i, &h)| h == i as u32);
    DrillingResult {
        net_sent: sim.metrics().counter("net.sent"),
        data_msgs,
        each_hole_once,
        holes_drilled: all.len(),
        makespan: sim.now(),
    }
}

// ---------------------------------------------------------------------
// Central-controller (state-level) implementation.
// ---------------------------------------------------------------------

/// Messages of the central design.
#[derive(Clone, Debug)]
pub(crate) enum CellMsg {
    /// Controller → driller: drill this hole.
    Assign { hole: u32 },
    /// Driller → controller: done.
    Done { hole: u32, driller: usize },
    /// Controller → backup: state mirror.
    Mirror { hole: u32, state: HoleState },
    /// Controller → driller: nothing left.
    Idle,
}

/// Hole lifecycle in the controller's state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum HoleState {
    /// Not yet assigned.
    Undrilled,
    /// Assigned to a driller.
    BeingDrilled(usize),
    /// Completed.
    Completed,
}

/// The central cell controller.
pub(crate) struct CellController {
    drillers: Vec<ProcessId>,
    backup: Option<ProcessId>,
    /// Per-hole state — the replicated object of the appendix.
    pub holes: Vec<HoleState>,
    assigned: usize,
}

impl CellController {
    /// Creates a controller over the given drillers and optional backup.
    pub(crate) fn new(drillers: Vec<ProcessId>, backup: Option<ProcessId>, holes: u32) -> Self {
        CellController {
            drillers,
            backup,
            holes: vec![HoleState::Undrilled; holes as usize],
            assigned: 0,
        }
    }

    fn next_hole(&mut self) -> Option<u32> {
        let h = self.holes.iter().position(|s| *s == HoleState::Undrilled)?;
        Some(h as u32)
    }

    fn assign_to(&mut self, ctx: &mut Ctx<'_, CellMsg>, driller_idx: usize) {
        if let Some(h) = self.next_hole() {
            self.holes[h as usize] = HoleState::BeingDrilled(driller_idx);
            self.assigned += 1;
            ctx.send(self.drillers[driller_idx], CellMsg::Assign { hole: h });
            if let Some(b) = self.backup {
                ctx.send(
                    b,
                    CellMsg::Mirror {
                        hole: h,
                        state: HoleState::BeingDrilled(driller_idx),
                    },
                );
            }
        } else {
            ctx.send(self.drillers[driller_idx], CellMsg::Idle);
        }
    }
}

impl Process<CellMsg> for CellController {
    fn on_start(&mut self, ctx: &mut Ctx<'_, CellMsg>) {
        for i in 0..self.drillers.len() {
            self.assign_to(ctx, i);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, CellMsg>, _from: ProcessId, msg: CellMsg) {
        if let CellMsg::Done { hole, driller } = msg {
            self.holes[hole as usize] = HoleState::Completed;
            if let Some(b) = self.backup {
                ctx.send(
                    b,
                    CellMsg::Mirror {
                        hole,
                        state: HoleState::Completed,
                    },
                );
            }
            self.assign_to(ctx, driller);
        }
    }
}

/// A driller in the central design.
pub(crate) struct CentralDriller {
    me_idx: usize,
    controller: ProcessId,
    drill_time: SimDuration,
    current: Option<u32>,
    /// Holes this driller completed.
    pub drilled: Vec<u32>,
}

const DRILL_DONE: TimerId = TimerId(7);

impl Process<CellMsg> for CentralDriller {
    fn on_message(&mut self, ctx: &mut Ctx<'_, CellMsg>, _from: ProcessId, msg: CellMsg) {
        if let CellMsg::Assign { hole } = msg {
            self.current = Some(hole);
            ctx.set_timer(DRILL_DONE, self.drill_time);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, CellMsg>, _t: TimerId) {
        if let Some(h) = self.current.take() {
            self.drilled.push(h);
            ctx.send(
                self.controller,
                CellMsg::Done {
                    hole: h,
                    driller: self.me_idx,
                },
            );
        }
    }
}

/// The backup controller: passively mirrors state.
#[derive(Default)]
pub(crate) struct BackupController {
    /// Mirrored hole states.
    pub mirrored: std::collections::BTreeMap<u32, HoleState>,
}

impl Process<CellMsg> for BackupController {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, CellMsg>, _from: ProcessId, msg: CellMsg) {
        if let CellMsg::Mirror { hole, state } = msg {
            self.mirrored.insert(hole, state);
        }
    }
}

/// Runs the central-controller drilling design (with a backup mirror).
pub fn run_drilling_central(
    seed: u64,
    drillers: usize,
    holes: u32,
    net: NetConfig,
) -> DrillingResult {
    let mut sim = SimBuilder::new(seed).net(net).build::<CellMsg>();
    let controller_pid = ProcessId(0);
    let backup_pid = ProcessId(1);
    let driller_pids: Vec<ProcessId> = (0..drillers).map(|i| ProcessId(2 + i)).collect();
    sim.add_process(CellController::new(
        driller_pids.clone(),
        Some(backup_pid),
        holes,
    ));
    sim.add_process(BackupController::default());
    for (i, _) in driller_pids.iter().enumerate() {
        sim.add_process(CentralDriller {
            me_idx: i,
            controller: controller_pid,
            drill_time: SimDuration::from_millis(20),
            current: None,
            drilled: Vec::new(),
        });
    }
    sim.run_until(SimTime::from_secs(30));
    let mut all: Vec<u32> = Vec::new();
    for &p in &driller_pids {
        let d: &CentralDriller = sim.process(p).expect("driller");
        all.extend(&d.drilled);
    }
    all.sort_unstable();
    let each_hole_once =
        all.len() == holes as usize && all.iter().enumerate().all(|(i, &h)| h == i as u32);
    DrillingResult {
        net_sent: sim.metrics().counter("net.sent"),
        data_msgs: sim.metrics().counter("net.sent"),
        each_hole_once,
        holes_drilled: all.len(),
        makespan: sim.now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetConfig {
        NetConfig::lossy_lan(0.0)
    }

    #[test]
    fn distributed_drills_each_hole_once() {
        let r = run_drilling_distributed(1, 4, 40, net());
        assert!(r.each_hole_once, "{r:?}");
        assert_eq!(r.holes_drilled, 40);
    }

    #[test]
    fn central_drills_each_hole_once() {
        let r = run_drilling_central(1, 4, 40, net());
        assert!(r.each_hole_once, "{r:?}");
    }

    #[test]
    fn central_traffic_is_linear_in_holes_not_drillers() {
        let small = run_drilling_central(1, 4, 40, net());
        let big = run_drilling_central(1, 16, 40, net());
        // Same holes, 4x drillers: message count barely moves (± the
        // initial assignment fan-out).
        let ratio = big.net_sent as f64 / small.net_sent as f64;
        assert!(ratio < 1.5, "central ratio {ratio}");
    }

    #[test]
    fn distributed_data_traffic_scales_with_drillers() {
        let small = run_drilling_distributed(1, 4, 40, net());
        let big = run_drilling_distributed(1, 16, 40, net());
        // Same holes, 4x drillers: each completion multicast now fans out
        // to 15 instead of 3 — data traffic grows ~5x.
        let ratio = big.data_msgs as f64 / small.data_msgs as f64;
        assert!(ratio > 3.0, "distributed ratio {ratio}");
    }

    #[test]
    fn backup_mirrors_state() {
        let mut sim = SimBuilder::new(3).net(net()).build::<CellMsg>();
        let driller_pids = vec![ProcessId(2)];
        sim.add_process(CellController::new(driller_pids, Some(ProcessId(1)), 5));
        sim.add_process(BackupController::default());
        sim.add_process(CentralDriller {
            me_idx: 0,
            controller: ProcessId(0),
            drill_time: SimDuration::from_millis(10),
            current: None,
            drilled: Vec::new(),
        });
        sim.run_until(SimTime::from_secs(5));
        let b: &BackupController = sim.process(ProcessId(1)).unwrap();
        assert_eq!(b.mirrored.len(), 5);
        assert!(b.mirrored.values().all(|s| *s == HoleState::Completed));
    }
}
