//! RPC deadlock detection — appendix 9.2.
//!
//! Two detectors over the same single-threaded RPC servers:
//!
//! - **van Renesse (CATOCS)**: "each process causally multicasts each RPC
//!   invocation and each RPC return" to a group of all servers plus the
//!   monitor. The monitor builds a process-level wait-for graph from the
//!   delivered events. Simple — and expensive: 2 multicasts per RPC, each
//!   fanning out to the whole group.
//! - **State-level (the paper's alternative)**: RPCs travel point to
//!   point; each server periodically sends its *augmented* wait-for edges
//!   (instance-level, `A15 → B37`) with a conventional sequence number to
//!   the monitor, which merges them in any order. Instance-level nodes
//!   also make the detector correct for multi-threaded servers.

use catocs::endpoint::Discipline;
use catocs::group::GroupConfig;
use catocs::harness::{spawn_group, GroupApp, GroupCtx, GroupNode};
use catocs::wire::{Delivery, Wire};
use simnet::net::NetConfig;
use simnet::process::{Ctx, Process, ProcessId, TimerId};
use simnet::sim::SimBuilder;
use simnet::time::{SimDuration, SimTime};
use statelevel::predicate::WaitForGraph;
use std::collections::VecDeque;
use txn::deadlock::{DeadlockMonitor, WaitForReport};
use txn::lock::TxId;

/// An RPC instance: the `seq`-th call handled (or issued) by `proc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Inst {
    /// The process.
    pub proc: usize,
    /// Locally unique instance number.
    pub seq: u32,
}

impl Inst {
    /// Packs the instance into a `TxId` for the shared monitor machinery.
    pub(crate) fn as_txid(self) -> TxId {
        TxId(((self.proc as u64) << 32) | self.seq as u64)
    }
}

/// A call chain: the initiating server calls `chain[0]`, which calls
/// `chain[1]`, and so on. A chain that revisits a blocked server
/// deadlocks.
pub(crate) type Chain = Vec<usize>;

// ---------------------------------------------------------------------
// Shared single-threaded server core.
// ---------------------------------------------------------------------

/// A running call at a server.
#[derive(Clone, Debug)]
struct Current {
    inst: Inst,
    /// Who to answer when done.
    caller: Option<Inst>,
    /// The child instance-less call we are blocked on (target proc).
    waiting_on: Option<usize>,
    /// Remaining chain after the child returns (always empty here: the
    /// chain is forwarded to the child).
    _rest: Chain,
}

/// The server core: queueing, blocking, wait-for bookkeeping.
#[derive(Debug, Default)]
pub(crate) struct ServerCore {
    me: usize,
    next_seq: u32,
    current: Option<Current>,
    queue: VecDeque<(Option<Inst>, Chain)>,
    /// Instances of queued callers (for wait-for edges).
    queued_callers: Vec<Inst>,
    /// Completed calls.
    pub completed: u32,
}

/// What the core wants sent after an event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum RpcAction {
    /// Invoke `target` with the remaining chain, on behalf of `caller`.
    Invoke {
        /// The calling instance (this server's current call).
        caller: Inst,
        /// The server to call.
        target: usize,
        /// The chain the target should continue with.
        chain: Chain,
    },
    /// Return to `to` (an instance on another server).
    Return {
        /// The instance being answered.
        to: Inst,
    },
}

impl ServerCore {
    /// Creates the core for server `me`.
    pub(crate) fn new(me: usize) -> Self {
        ServerCore {
            me,
            ..Default::default()
        }
    }

    /// Handles an incoming invocation; returns actions to perform.
    pub(crate) fn on_invoke(&mut self, caller: Option<Inst>, chain: Chain) -> Vec<RpcAction> {
        if self.current.is_some() {
            self.queue.push_back((caller, chain));
            if let Some(c) = caller {
                self.queued_callers.push(c);
            }
            return Vec::new();
        }
        self.start(caller, chain)
    }

    fn start(&mut self, caller: Option<Inst>, chain: Chain) -> Vec<RpcAction> {
        self.next_seq += 1;
        let inst = Inst {
            proc: self.me,
            seq: self.next_seq,
        };
        if chain.is_empty() {
            // Leaf call: return immediately.
            self.completed += 1;
            let mut actions = Vec::new();
            if let Some(c) = caller {
                actions.push(RpcAction::Return { to: c });
            }
            // Serve the next queued request.
            actions.extend(self.serve_next());
            actions
        } else {
            let target = chain[0];
            let rest = chain[1..].to_vec();
            self.current = Some(Current {
                inst,
                caller,
                waiting_on: Some(target),
                _rest: Vec::new(),
            });
            vec![RpcAction::Invoke {
                caller: inst,
                target,
                chain: rest,
            }]
        }
    }

    /// Handles a return addressed to instance `to`.
    pub(crate) fn on_return(&mut self, to: Inst) -> Vec<RpcAction> {
        let Some(cur) = &self.current else {
            return Vec::new();
        };
        if cur.inst != to {
            return Vec::new();
        }
        let cur = self.current.take().expect("current");
        self.completed += 1;
        let mut actions = Vec::new();
        if let Some(c) = cur.caller {
            actions.push(RpcAction::Return { to: c });
        }
        actions.extend(self.serve_next());
        actions
    }

    fn serve_next(&mut self) -> Vec<RpcAction> {
        if self.current.is_some() {
            return Vec::new();
        }
        if let Some((caller, chain)) = self.queue.pop_front() {
            if let Some(c) = caller {
                self.queued_callers.retain(|&q| q != c);
            }
            self.start(caller, chain)
        } else {
            Vec::new()
        }
    }

    /// The current instance-level wait-for edges at this server:
    /// queued-caller → current, and current → (child's *process*, which
    /// the report encodes as that process's next instance — the monitor
    /// matches on process for the blocked edge).
    pub(crate) fn wait_edges(&self) -> Vec<(Inst, Inst)> {
        let mut edges = Vec::new();
        if let Some(cur) = &self.current {
            for &q in &self.queued_callers {
                edges.push((q, cur.inst));
            }
            if let Some(target) = cur.waiting_on {
                // We don't know the child's instance number; process-level
                // wildcard instance 0 is used and resolved by the monitor.
                edges.push((
                    cur.inst,
                    Inst {
                        proc: target,
                        seq: 0,
                    },
                ));
            }
        }
        edges
    }
}

// ---------------------------------------------------------------------
// Mode A: van Renesse — every RPC event causally multicast.
// ---------------------------------------------------------------------

/// The multicast payload of mode A.
#[derive(Clone, Debug)]
pub(crate) enum RpcOp {
    /// An invocation (delivered to everyone; only `target` acts).
    Invoke {
        /// Calling instance, if not a root call.
        caller: Option<Inst>,
        /// The callee.
        target: usize,
        /// Chain for the callee to continue.
        chain: Chain,
    },
    /// A return (delivered to everyone; only `to.proc` acts).
    Return {
        /// The instance being answered.
        to: Inst,
        /// The process that answered.
        from_proc: usize,
    },
}

/// A mode-A group member: server or monitor.
pub(crate) enum VanRenesseRole {
    /// An RPC server with its scripted root chains.
    Server {
        /// The server core.
        core: ServerCore,
        /// Chains to initiate, one per app tick.
        scripts: Vec<Chain>,
    },
    /// The monitoring process.
    Monitor(VrMonitor),
}

/// The mode-A monitor: process-level wait-for graph from delivered
/// events.
#[derive(Default)]
pub(crate) struct VrMonitor {
    graph: WaitForGraph<usize>,
    /// When the first deadlock was detected.
    pub detected_at: Option<SimTime>,
    /// The deadlocked processes.
    pub cycle: Vec<usize>,
}

impl VanRenesseRole {
    fn actions_to_ops(me: usize, actions: Vec<RpcAction>) -> Vec<RpcOp> {
        actions
            .into_iter()
            .map(|a| match a {
                RpcAction::Invoke {
                    caller,
                    target,
                    chain,
                } => RpcOp::Invoke {
                    caller: Some(caller),
                    target,
                    chain,
                },
                RpcAction::Return { to } => RpcOp::Return { to, from_proc: me },
            })
            .collect()
    }

    /// Access the monitor, if this role is one.
    pub(crate) fn as_monitor(&self) -> Option<&VrMonitor> {
        match self {
            VanRenesseRole::Monitor(m) => Some(m),
            _ => None,
        }
    }
}

impl GroupApp<RpcOp> for VanRenesseRole {
    fn on_tick(&mut self, ctx: &mut GroupCtx<'_>) -> Vec<RpcOp> {
        match self {
            VanRenesseRole::Server { scripts, .. } => {
                if let Some(chain) = scripts.pop() {
                    let _ = ctx;
                    vec![RpcOp::Invoke {
                        caller: None,
                        target: chain[0],
                        chain: chain[1..].to_vec(),
                    }]
                } else {
                    Vec::new()
                }
            }
            VanRenesseRole::Monitor(_) => Vec::new(),
        }
    }

    fn on_deliver(&mut self, ctx: &mut GroupCtx<'_>, d: &Delivery<RpcOp>) -> Vec<RpcOp> {
        match self {
            VanRenesseRole::Server { core, .. } => match &d.payload {
                RpcOp::Invoke {
                    caller,
                    target,
                    chain,
                } if *target == core.me => {
                    let actions = core.on_invoke(*caller, chain.clone());
                    Self::actions_to_ops(core.me, actions)
                }
                RpcOp::Return { to, .. } if to.proc == core.me => {
                    let actions = core.on_return(*to);
                    Self::actions_to_ops(core.me, actions)
                }
                _ => Vec::new(),
            },
            VanRenesseRole::Monitor(m) => {
                match &d.payload {
                    RpcOp::Invoke { caller, target, .. } => {
                        // The caller process (or the multicast sender for
                        // root calls) now waits on the target process.
                        let from = caller.map(|c| c.proc).unwrap_or(d.id.sender);
                        m.graph.add_wait(from, *target);
                    }
                    RpcOp::Return { to, from_proc } => {
                        m.graph.remove_wait(to.proc, *from_proc);
                    }
                }
                if m.detected_at.is_none() {
                    if let Some(cycle) = m.graph.find_cycle() {
                        m.detected_at = Some(ctx.now);
                        m.cycle = cycle;
                    }
                }
                Vec::new()
            }
        }
    }
}

/// Results of a detection run (either mode).
#[derive(Clone, Debug)]
pub struct DetectionResult {
    /// Time at which the monitor first saw the deadlock.
    pub detected_at: Option<SimTime>,
    /// Total messages on the wire.
    pub net_sent: u64,
    /// RPCs completed despite the deadlock.
    pub completed: u32,
}

/// Runs mode A: `servers` RPC servers plus one monitor, all in a causal
/// group; `scripts[i]` are the chains server `i` initiates. The classic
/// deadlock script is `vec![vec![1, 0]]` for server 0.
pub fn run_van_renesse(
    seed: u64,
    servers: usize,
    scripts: Vec<Vec<Chain>>,
    net: NetConfig,
) -> DetectionResult {
    let mut sim = SimBuilder::new(seed).net(net).build::<Wire<RpcOp>>();
    let members = spawn_group(
        &mut sim,
        servers + 1,
        Discipline::Causal,
        GroupConfig::default(),
        Some(SimDuration::from_millis(10)),
        |me| {
            if me < servers {
                VanRenesseRole::Server {
                    core: ServerCore::new(me),
                    scripts: scripts.get(me).cloned().unwrap_or_default(),
                }
            } else {
                VanRenesseRole::Monitor(VrMonitor::default())
            }
        },
    );
    sim.run_until(SimTime::from_secs(5));
    let node = sim
        .process::<GroupNode<RpcOp, VanRenesseRole>>(members[servers])
        .expect("monitor");
    let monitor = node.app().as_monitor().expect("monitor role");
    let mut completed = 0;
    for &m in &members[..servers] {
        let n = sim
            .process::<GroupNode<RpcOp, VanRenesseRole>>(m)
            .expect("server");
        if let VanRenesseRole::Server { core, .. } = n.app() {
            completed += core.completed;
        }
    }
    DetectionResult {
        detected_at: monitor.detected_at,
        net_sent: sim.metrics().counter("net.sent"),
        completed,
    }
}

// ---------------------------------------------------------------------
// Mode B: state-level — direct RPCs + periodic wait-for reports.
// ---------------------------------------------------------------------

/// Messages of mode B.
#[derive(Clone, Debug)]
pub(crate) enum StateMsg {
    /// Direct invocation.
    Invoke {
        /// Calling instance.
        caller: Option<Inst>,
        /// Chain for the callee.
        chain: Chain,
    },
    /// Direct return.
    Return {
        /// The instance being answered.
        to: Inst,
    },
    /// Periodic wait-for report to the monitor.
    Report(WaitForReport),
}

/// A mode-B server process.
pub(crate) struct StateServer {
    core: ServerCore,
    scripts: Vec<Chain>,
    monitor: ProcessId,
    report_seq: u64,
    report_every: SimDuration,
}

const SCRIPT_TICK: TimerId = TimerId(0);
const REPORT_TICK: TimerId = TimerId(1);

impl StateServer {
    fn perform(&self, ctx: &mut Ctx<'_, StateMsg>, actions: Vec<RpcAction>) {
        for a in actions {
            match a {
                RpcAction::Invoke {
                    caller,
                    target,
                    chain,
                } => ctx.send(
                    ProcessId(target),
                    StateMsg::Invoke {
                        caller: Some(caller),
                        chain,
                    },
                ),
                RpcAction::Return { to } => ctx.send(ProcessId(to.proc), StateMsg::Return { to }),
            }
        }
    }
}

impl Process<StateMsg> for StateServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_, StateMsg>) {
        ctx.set_timer(SCRIPT_TICK, SimDuration::from_millis(10));
        ctx.set_timer(REPORT_TICK, self.report_every);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, StateMsg>, _from: ProcessId, msg: StateMsg) {
        let actions = match msg {
            StateMsg::Invoke { caller, chain } => self.core.on_invoke(caller, chain),
            StateMsg::Return { to } => self.core.on_return(to),
            StateMsg::Report(_) => Vec::new(),
        };
        self.perform(ctx, actions);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, StateMsg>, t: TimerId) {
        match t {
            SCRIPT_TICK => {
                if let Some(chain) = self.scripts.pop() {
                    let actions = self.core.on_invoke(None, chain);
                    self.perform(ctx, actions);
                    ctx.set_timer(SCRIPT_TICK, SimDuration::from_millis(10));
                }
            }
            REPORT_TICK => {
                self.report_seq += 1;
                let edges: Vec<(TxId, TxId)> = self
                    .core
                    .wait_edges()
                    .into_iter()
                    .map(|(a, b)| (a.as_txid(), b.as_txid()))
                    .collect();
                ctx.send(
                    self.monitor,
                    StateMsg::Report(WaitForReport {
                        from: self.core.me,
                        seq: self.report_seq,
                        edges,
                    }),
                );
                ctx.set_timer(REPORT_TICK, self.report_every);
            }
            _ => {}
        }
    }
}

/// The mode-B monitor process.
pub(crate) struct StateMonitor {
    monitor: DeadlockMonitor,
    /// When the first deadlock was detected.
    pub detected_at: Option<SimTime>,
}

impl Process<StateMsg> for StateMonitor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, StateMsg>, _from: ProcessId, msg: StateMsg) {
        if let StateMsg::Report(r) = msg {
            // Resolve wildcard instances (seq 0): a wait on (proc, 0)
            // matches any instance at that process; rewrite to the
            // current reported instance if one exists.
            self.monitor.ingest(normalize(r));
            if self.detected_at.is_none() && self.monitor.detect().is_some() {
                self.detected_at = Some(ctx.now());
            }
        }
    }
}

/// Rewrites wildcard child instances in a report: an edge to `(p, 0)`
/// becomes an edge to the instance that `p` itself reports as current —
/// conservatively, to every instance `p` mentions as a source. For the
/// single-threaded servers here, matching on the process is exact.
fn normalize(r: WaitForReport) -> WaitForReport {
    // Process-level collapse: map every instance to (proc << 32) | 0 so
    // edges meet at the process. Sound for single-threaded servers; the
    // instance-level detail is preserved in `DeadlockMonitor` tests.
    WaitForReport {
        from: r.from,
        seq: r.seq,
        edges: r
            .edges
            .into_iter()
            .map(|(a, b)| {
                (
                    TxId(a.0 & 0xFFFF_FFFF_0000_0000),
                    TxId(b.0 & 0xFFFF_FFFF_0000_0000),
                )
            })
            .collect(),
    }
}

/// Runs mode B with the same scripted workload.
pub fn run_state_detector(
    seed: u64,
    servers: usize,
    scripts: Vec<Vec<Chain>>,
    report_every: SimDuration,
    net: NetConfig,
) -> DetectionResult {
    let mut sim = SimBuilder::new(seed).net(net).build::<StateMsg>();
    let monitor_pid = ProcessId(servers);
    for me in 0..servers {
        sim.add_process(StateServer {
            core: ServerCore::new(me),
            scripts: scripts.get(me).cloned().unwrap_or_default(),
            monitor: monitor_pid,
            report_seq: 0,
            report_every,
        });
    }
    sim.add_process(StateMonitor {
        monitor: DeadlockMonitor::new(),
        detected_at: None,
    });
    sim.run_until(SimTime::from_secs(5));
    let monitor: &StateMonitor = sim.process(monitor_pid).expect("monitor");
    let mut completed = 0;
    for p in 0..servers {
        let s: &StateServer = sim.process(ProcessId(p)).expect("server");
        completed += s.core.completed;
    }
    DetectionResult {
        detected_at: monitor.detected_at,
        net_sent: sim.metrics().counter("net.sent"),
        completed,
    }
}

/// The canonical deadlock workload: server 0 calls 1 which calls back
/// into 0; servers 2.. run innocuous chains for background traffic.
pub fn deadlock_scripts(servers: usize, background_chains: usize) -> Vec<Vec<Chain>> {
    let mut scripts: Vec<Vec<Chain>> = vec![Vec::new(); servers];
    scripts[0].push(vec![1, 0]);
    for i in 0..background_chains {
        let from = 2 + (i % servers.saturating_sub(2).max(1));
        if from < servers {
            let to = (from + 1) % servers;
            if to != 0 && to != 1 {
                scripts[from].push(vec![to]);
            }
        }
    }
    scripts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetConfig {
        NetConfig::lossy_lan(0.0)
    }

    #[test]
    fn server_core_leaf_call_returns() {
        let mut core = ServerCore::new(0);
        let actions = core.on_invoke(Some(Inst { proc: 9, seq: 1 }), vec![]);
        assert_eq!(
            actions[0],
            RpcAction::Return {
                to: Inst { proc: 9, seq: 1 }
            }
        );
        assert_eq!(core.completed, 1);
        assert!(core.current.is_none());
    }

    #[test]
    fn server_core_chain_blocks_and_unblocks() {
        let mut core = ServerCore::new(0);
        let actions = core.on_invoke(None, vec![1]);
        assert!(matches!(actions[0], RpcAction::Invoke { target: 1, .. }));
        assert!(core.current.is_some());
        let inst = match actions[0] {
            RpcAction::Invoke { caller, .. } => caller,
            _ => unreachable!(),
        };
        let actions = core.on_return(inst);
        assert!(actions.is_empty(), "root call has no caller");
        assert!(core.current.is_none());
        assert_eq!(core.completed, 1);
    }

    #[test]
    fn server_core_queues_when_busy() {
        let mut core = ServerCore::new(0);
        core.on_invoke(None, vec![1]);
        let q = core.on_invoke(Some(Inst { proc: 2, seq: 5 }), vec![]);
        assert!(q.is_empty(), "queued, not served");
        let edges = core.wait_edges();
        assert_eq!(edges.len(), 2, "queued-caller edge + blocked-on edge");
    }

    #[test]
    fn van_renesse_detects_the_deadlock() {
        let r = run_van_renesse(1, 4, deadlock_scripts(4, 4), net());
        assert!(r.detected_at.is_some(), "deadlock must be detected");
    }

    #[test]
    fn state_detector_detects_the_deadlock() {
        let r = run_state_detector(
            1,
            4,
            deadlock_scripts(4, 4),
            SimDuration::from_millis(50),
            net(),
        );
        assert!(r.detected_at.is_some(), "deadlock must be detected");
    }

    #[test]
    fn state_detector_uses_far_fewer_messages() {
        // The paper: "the performance penalty of this algorithm appears
        // prohibitive" (van Renesse) vs periodic reports.
        let vr = run_van_renesse(1, 6, deadlock_scripts(6, 8), net());
        let st = run_state_detector(
            1,
            6,
            deadlock_scripts(6, 8),
            SimDuration::from_millis(50),
            net(),
        );
        assert!(
            st.net_sent < vr.net_sent,
            "state {} !< vr {}",
            st.net_sent,
            vr.net_sent
        );
    }

    #[test]
    fn no_deadlock_without_cycle() {
        let mut scripts: Vec<Vec<Chain>> = vec![Vec::new(); 4];
        scripts[0].push(vec![1]);
        scripts[2].push(vec![3]);
        let st = run_state_detector(2, 4, scripts.clone(), SimDuration::from_millis(50), net());
        assert!(st.detected_at.is_none(), "no false deadlocks");
        // Each chain completes at the leaf and at the root: 2 chains -> 4.
        assert_eq!(st.completed, 4);
        let vr = run_van_renesse(2, 4, scripts, net());
        assert!(vr.detected_at.is_none(), "no false deadlocks");
    }
}
