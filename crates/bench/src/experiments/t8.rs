//! T8 — §4.3/§4.4: replicated update, CATOCS versus optimized
//! transactions.
//!
//! Three write paths over 5 replicas on the same lossy LAN:
//!
//! - **cbcast + write-safety level k** (Deceit, §4.4): the primary
//!   multicasts each update and waits until `k` members are known to
//!   have delivered it. `k = 0` is asynchronous but loses data on a
//!   single failure; `k ≥ 2` waits on real acknowledgements.
//! - **2PC transactions**: prepare/vote/decide with durable logging.
//! - **read-any/write-all-available** (HARP-style): synchronous write to
//!   every available replica, availability list dropped on failure.
//!
//! The failure columns replay the paper's §2 durability point: the
//! primary is partitioned away right after issuing a write and then
//! crashes. Under `k = 0` the update was applied locally and is lost
//! (replica divergence); the transactional paths simply never commit it,
//! leaving the replicas consistent.

use crate::table::Table;
use catocs::cbcast::CbcastEndpoint;
use catocs::group::GroupConfig;
use catocs::harness::route;
use catocs::safety::SafetyTracker;
use catocs::wire::Wire;
use simnet::net::NetConfig;
use simnet::process::{Ctx, Process, ProcessId, TimerId};
use simnet::sim::SimBuilder;
use simnet::time::{SimDuration, SimTime};
use txn::replication::{ReplWire, ReplicatedStore, WriteCoordinator, WriteOutcome};
use txn::twopc::{Coordinator, Participant, TxnWire};

/// Replicas in every configuration.
const REPLICAS: usize = 5;
/// Writes issued per run.
const WRITES: u32 = 25;
/// Write issue period.
const PERIOD: SimDuration = SimDuration::from_millis(25);

fn net() -> NetConfig {
    NetConfig::lossy_lan(0.02)
}

// ---------------------------------------------------------------------
// Path 1: cbcast with write-safety level k.
// ---------------------------------------------------------------------

const TICK: TimerId = TimerId(0);
const WRITE_TICK: TimerId = TimerId(1);

struct CbPrimary {
    endpoint: CbcastEndpoint<u64>,
    tracker: SafetyTracker,
    writes_left: u32,
    next_val: u64,
    /// Locally applied values (self-deliveries).
    applied: Vec<u64>,
    /// (id, time-to-safety) recorded by the tracker.
    done: u32,
}

impl Process<Wire<u64>> for CbPrimary {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Wire<u64>>) {
        ctx.set_timer(TICK, SimDuration::from_millis(10));
        ctx.set_timer(WRITE_TICK, PERIOD);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire<u64>>, _f: ProcessId, m: Wire<u64>) {
        let (_d, out) = self.endpoint.on_wire(ctx.now(), m);
        route(ctx, 0, REPLICAS, out);
        let ready = self
            .tracker
            .advance(self.endpoint.core().stability(), ctx.now());
        self.done += ready.len() as u32;
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire<u64>>, t: TimerId) {
        match t {
            TICK => {
                let out = self.endpoint.on_tick(ctx.now());
                route(ctx, 0, REPLICAS, out);
                let ready = self
                    .tracker
                    .advance(self.endpoint.core().stability(), ctx.now());
                self.done += ready.len() as u32;
                ctx.set_timer(TICK, SimDuration::from_millis(10));
            }
            WRITE_TICK if self.writes_left > 0 => {
                self.writes_left -= 1;
                self.next_val += 1;
                let (d, out) = self.endpoint.multicast(ctx.now(), self.next_val);
                self.applied.push(self.next_val);
                self.tracker.register(d.id, ctx.now());
                route(ctx, 0, REPLICAS, out);
                ctx.set_timer(WRITE_TICK, PERIOD);
            }
            _ => {}
        }
    }
}

struct CbReplica {
    me: usize,
    endpoint: CbcastEndpoint<u64>,
    applied: Vec<u64>,
}

impl Process<Wire<u64>> for CbReplica {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Wire<u64>>) {
        ctx.set_timer(TICK, SimDuration::from_millis(10));
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire<u64>>, _f: ProcessId, m: Wire<u64>) {
        let (dels, out) = self.endpoint.on_wire(ctx.now(), m);
        for d in dels {
            self.applied.push(d.payload);
        }
        route(ctx, self.me, REPLICAS, out);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire<u64>>, _t: TimerId) {
        let out = self.endpoint.on_tick(ctx.now());
        route(ctx, self.me, REPLICAS, out);
        ctx.set_timer(TICK, SimDuration::from_millis(10));
    }
}

/// Result of one cbcast k-safety run.
#[derive(Clone, Debug)]
pub struct CbRun {
    /// Mean time from multicast to k-safety, ms.
    pub mean_safety_ms: f64,
    /// Writes that reached safety.
    pub safe: usize,
    /// Writes still pending safety at the end.
    pub stalled: usize,
    /// Updates applied at the primary but missing from some replica.
    pub lost: usize,
}

/// Runs the cbcast path with safety level `k`; optionally fail the
/// primary after `fail_after` writes.
pub fn run_cbcast_path(seed: u64, k: usize, fail_after: Option<u32>) -> CbRun {
    let mut sim = SimBuilder::new(seed).net(net()).build::<Wire<u64>>();
    let cfg = GroupConfig::default();
    sim.add_process(CbPrimary {
        endpoint: CbcastEndpoint::new(0, REPLICAS, cfg.clone()),
        tracker: SafetyTracker::new(k),
        writes_left: WRITES,
        next_val: 0,
        applied: Vec::new(),
        done: 0,
    });
    for me in 1..REPLICAS {
        sim.add_process(CbReplica {
            me,
            endpoint: CbcastEndpoint::new(me, REPLICAS, cfg.clone()),
            applied: Vec::new(),
        });
    }
    if let Some(after) = fail_after {
        // Partition the primary just as it issues write `after`+1, then
        // crash it: the update is applied locally, never transmitted.
        let t_fail = SimTime::ZERO + PERIOD.saturating_mul(after as u64 + 1);
        let others: Vec<ProcessId> = (1..REPLICAS).map(ProcessId).collect();
        sim.partition_at(&[ProcessId(0)], &others, t_fail);
        sim.crash_at(ProcessId(0), t_fail + PERIOD.saturating_mul(2));
    }
    sim.run_until(SimTime::from_secs(8));

    let primary: &CbPrimary = sim.process(ProcessId(0)).expect("primary");
    let completed = primary.tracker.completed();
    let mean_us = if completed.is_empty() {
        0.0
    } else {
        completed
            .iter()
            .map(|(_, d)| d.as_micros() as f64)
            .sum::<f64>()
            / completed.len() as f64
    };
    // Divergence: anything the primary applied that some live replica
    // never did.
    let mut lost = 0;
    for v in &primary.applied {
        for r in 1..REPLICAS {
            let rep: &CbReplica = sim.process(ProcessId(r)).expect("replica");
            if !rep.applied.contains(v) {
                lost += 1;
                break;
            }
        }
    }
    CbRun {
        mean_safety_ms: mean_us / 1000.0,
        safe: completed.len(),
        stalled: primary.tracker.pending_len(),
        lost,
    }
}

// ---------------------------------------------------------------------
// Path 2: 2PC transactions.
// ---------------------------------------------------------------------

/// Wire messages for the 2PC path.
#[derive(Clone, Debug)]
pub(crate) enum TpcNet {
    /// Protocol message.
    P(TxnWire),
}

struct TpcCoordinator {
    writes_left: u32,
    next_tx: u64,
    current: Option<Coordinator>,
    issued_at: SimTime,
    latencies_us: Vec<u64>,
    aborted: u32,
}

impl TpcCoordinator {
    fn issue(&mut self, ctx: &mut Ctx<'_, TpcNet>) {
        if self.writes_left == 0 || self.current.is_some() {
            return;
        }
        self.writes_left -= 1;
        self.next_tx += 1;
        let writes: Vec<(usize, Vec<(u64, i64)>)> = (0..REPLICAS)
            .map(|p| (p, vec![(self.next_tx, self.next_tx as i64)]))
            .collect();
        let (coord, msgs) = Coordinator::begin(txn::lock::TxId(self.next_tx), writes);
        self.current = Some(coord);
        self.issued_at = ctx.now();
        for (p, m) in msgs {
            ctx.send(ProcessId(1 + p), TpcNet::P(m));
        }
    }
}

impl Process<TpcNet> for TpcCoordinator {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TpcNet>) {
        ctx.set_timer(WRITE_TICK, PERIOD);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, TpcNet>, _f: ProcessId, m: TpcNet) {
        let TpcNet::P(w) = m;
        let Some(coord) = &mut self.current else {
            return;
        };
        match w {
            TxnWire::Vote { from, yes, .. } => {
                if let Some((decision, msgs)) = coord.on_vote(from, yes) {
                    self.latencies_us
                        .push(ctx.now().saturating_since(self.issued_at).as_micros());
                    if decision == txn::twopc::TxnDecision::Abort {
                        self.aborted += 1;
                    }
                    for (p, m) in msgs {
                        ctx.send(ProcessId(1 + p), TpcNet::P(m));
                    }
                    self.current = None;
                }
            }
            TxnWire::Ack { .. } => {}
            _ => {}
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, TpcNet>, _t: TimerId) {
        // A pending transaction that outlived a period: abort on timeout.
        if let Some(coord) = &mut self.current {
            if let Some((_, msgs)) = coord.on_timeout() {
                self.aborted += 1;
                for (p, m) in msgs {
                    ctx.send(ProcessId(1 + p), TpcNet::P(m));
                }
            }
            self.current = None;
        }
        self.issue(ctx);
        if self.writes_left > 0 {
            ctx.set_timer(WRITE_TICK, PERIOD);
        }
    }
}

struct TpcParticipant {
    inner: Participant,
}

impl Process<TpcNet> for TpcParticipant {
    fn on_message(&mut self, ctx: &mut Ctx<'_, TpcNet>, from: ProcessId, m: TpcNet) {
        let TpcNet::P(w) = m;
        if let Some(reply) = self.inner.on_wire(&w) {
            ctx.send(from, TpcNet::P(reply));
        }
    }
}

/// Result of one 2PC run.
#[derive(Clone, Debug)]
pub struct TpcRun {
    /// Mean decision latency, ms.
    pub mean_commit_ms: f64,
    /// Transactions decided.
    pub decided: usize,
    /// Aborts (vote-no or timeout).
    pub aborted: u32,
    /// Committed values present on some but not all replicas.
    pub lost: usize,
}

/// Runs the 2PC path; optionally partition+crash the coordinator after
/// `fail_after` writes.
pub fn run_twopc_path(seed: u64, fail_after: Option<u32>) -> TpcRun {
    let mut sim = SimBuilder::new(seed).net(net()).build::<TpcNet>();
    sim.add_process(TpcCoordinator {
        writes_left: WRITES,
        next_tx: 0,
        current: None,
        issued_at: SimTime::ZERO,
        latencies_us: Vec::new(),
        aborted: 0,
    });
    for p in 0..REPLICAS {
        sim.add_process(TpcParticipant {
            inner: Participant::new(p, 10_000),
        });
    }
    if let Some(after) = fail_after {
        let t_fail = SimTime::ZERO + PERIOD.saturating_mul(after as u64 + 1);
        let others: Vec<ProcessId> = (1..=REPLICAS).map(ProcessId).collect();
        sim.partition_at(&[ProcessId(0)], &others, t_fail);
        sim.crash_at(ProcessId(0), t_fail + PERIOD.saturating_mul(2));
    }
    sim.run_until(SimTime::from_secs(8));
    // Cooperative termination: an in-doubt participant asks its peers for
    // the outcome (any durable Commit/Abort record resolves it).
    let mut outcomes: std::collections::BTreeMap<txn::lock::TxId, bool> = Default::default();
    for p in 0..REPLICAS {
        let part: &TpcParticipant = sim.process(ProcessId(1 + p)).expect("participant");
        let rec = part.inner.wal().recover();
        for tx in rec.committed {
            outcomes.insert(tx, true);
        }
        for tx in rec.aborted {
            outcomes.entry(tx).or_insert(false);
        }
    }
    for p in 0..REPLICAS {
        let part: &mut TpcParticipant = sim.process_mut(ProcessId(1 + p)).expect("participant");
        for tx in part.inner.in_doubt_txs() {
            if let Some(&commit) = outcomes.get(&tx) {
                part.inner.resolve(tx, commit);
            }
        }
    }
    let coord: &TpcCoordinator = sim.process(ProcessId(0)).expect("coordinator");
    let mean_us = if coord.latencies_us.is_empty() {
        0.0
    } else {
        coord.latencies_us.iter().sum::<u64>() as f64 / coord.latencies_us.len() as f64
    };
    // Divergence check: a key committed at one replica but absent at
    // another (2PC's all-or-nothing should prevent persistent divergence
    // for decided transactions).
    let mut lost = 0;
    for key in 1..=(WRITES as u64) {
        let have: Vec<bool> = (0..REPLICAS)
            .map(|p| {
                let part: &TpcParticipant = sim.process(ProcessId(1 + p)).expect("participant");
                part.inner.get(key).is_some()
            })
            .collect();
        if have.iter().any(|&h| h) && !have.iter().all(|&h| h) {
            lost += 1;
        }
    }
    TpcRun {
        mean_commit_ms: mean_us / 1000.0,
        decided: coord.latencies_us.len(),
        aborted: coord.aborted,
        lost,
    }
}

// ---------------------------------------------------------------------
// Path 3: read-any / write-all-available.
// ---------------------------------------------------------------------

struct WaaCoordinator {
    inner: WriteCoordinator,
    writes_left: u32,
    next: u64,
    issued: std::collections::BTreeMap<u64, SimTime>,
    latencies_us: Vec<u64>,
    aborted: u32,
}

impl Process<ReplWire> for WaaCoordinator {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ReplWire>) {
        ctx.set_timer(WRITE_TICK, PERIOD);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, ReplWire>, _f: ProcessId, m: ReplWire) {
        if let ReplWire::WriteAck { wid, from } = m {
            if let Some(WriteOutcome::Committed { latency, .. }) =
                self.inner.on_ack(wid, from, ctx.now())
            {
                self.latencies_us.push(latency.as_micros());
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, ReplWire>, _t: TimerId) {
        if self.writes_left > 0 {
            self.writes_left -= 1;
            self.next += 1;
            let msgs =
                self.inner
                    .begin_write(self.next, self.next, self.next as i64, None, ctx.now());
            self.issued.insert(self.next, ctx.now());
            for (r, m) in msgs {
                ctx.send(ProcessId(1 + r), m);
            }
        }
        // Writes (or their acks) may have been lost: retransmit.
        for (r, m) in self.inner.retry_msgs() {
            ctx.send(ProcessId(1 + r), m);
        }
        if self.writes_left > 0 || self.inner.pending_len() > 0 {
            ctx.set_timer(WRITE_TICK, PERIOD);
        }
    }
}

struct WaaReplica {
    me: usize,
    inner: ReplicatedStore,
}

impl Process<ReplWire> for WaaReplica {
    fn on_message(&mut self, ctx: &mut Ctx<'_, ReplWire>, from: ProcessId, m: ReplWire) {
        if let Some(reply) = self.inner.on_wire(self.me, &m) {
            ctx.send(from, reply);
        }
    }
}

/// Result of one WAA run.
#[derive(Clone, Debug)]
pub struct WaaRun {
    /// Mean commit latency, ms.
    pub mean_commit_ms: f64,
    /// Writes committed.
    pub committed: usize,
    /// Writes aborted.
    pub aborted: u64,
}

/// Runs the write-all-available path; optionally fail replica 1 midway
/// (dropped from the availability list; later writes go to survivors).
pub fn run_waa_path(seed: u64, fail_replica: bool) -> WaaRun {
    let mut sim = SimBuilder::new(seed).net(net()).build::<ReplWire>();
    sim.add_process(WaaCoordinator {
        inner: WriteCoordinator::new(REPLICAS),
        writes_left: WRITES,
        next: 0,
        issued: Default::default(),
        latencies_us: Vec::new(),
        aborted: 0,
    });
    for me in 0..REPLICAS {
        sim.add_process(WaaReplica {
            me,
            inner: ReplicatedStore::new(),
        });
    }
    if fail_replica {
        let t_fail = SimTime::ZERO + PERIOD.saturating_mul(8);
        sim.crash_at(ProcessId(1 + 1), t_fail);
        // The coordinator notices and drops replica 1 a beat later.
        // (Modelled outside the sim loop: see below.)
    }
    // Drive the failure handling deterministically: run to the failure
    // point, drop the replica, continue.
    if fail_replica {
        sim.run_until(SimTime::ZERO + PERIOD.saturating_mul(10));
        let now = sim.now();
        let coord: &mut WaaCoordinator = sim.process_mut(ProcessId(0)).expect("coordinator");
        for o in coord.inner.on_failure(1, now) {
            match o {
                WriteOutcome::Committed { latency, .. } => {
                    coord.latencies_us.push(latency.as_micros())
                }
                WriteOutcome::Aborted { .. } => coord.aborted += 1,
            }
        }
    }
    sim.run_until(SimTime::from_secs(8));
    let coord: &WaaCoordinator = sim.process(ProcessId(0)).expect("coordinator");
    let (committed, aborted) = coord.inner.totals();
    let mean_us = if coord.latencies_us.is_empty() {
        0.0
    } else {
        coord.latencies_us.iter().sum::<u64>() as f64 / coord.latencies_us.len() as f64
    };
    WaaRun {
        mean_commit_ms: mean_us / 1000.0,
        committed: committed as usize,
        aborted: aborted + coord.aborted as u64,
    }
}

/// Runs the full comparison table.
pub fn run() -> Table {
    let mut t = Table::new(
        format!("T8 — §4.3/4.4 replicated update: {REPLICAS} replicas, {WRITES} writes, 2% loss"),
        &[
            "path",
            "mean write latency ms",
            "completed",
            "stalled/aborted",
            "lost updates",
        ],
    );
    for k in [0usize, 2, 3, REPLICAS] {
        let r = run_cbcast_path(1, k, None);
        t.row(vec![
            format!("cbcast k={k}").into(),
            r.mean_safety_ms.into(),
            r.safe.into(),
            r.stalled.into(),
            r.lost.into(),
        ]);
    }
    let r = run_twopc_path(1, None);
    t.row(vec![
        "2PC transaction".into(),
        r.mean_commit_ms.into(),
        r.decided.into(),
        (r.aborted as usize).into(),
        r.lost.into(),
    ]);
    let r = run_waa_path(1, false);
    t.row(vec![
        "write-all-available".into(),
        r.mean_commit_ms.into(),
        r.committed.into(),
        (r.aborted as usize).into(),
        0usize.into(),
    ]);
    // Failure rows.
    let r = run_cbcast_path(1, 0, Some(8));
    t.row(vec![
        "cbcast k=0 + primary crash".into(),
        r.mean_safety_ms.into(),
        r.safe.into(),
        r.stalled.into(),
        r.lost.into(),
    ]);
    let r = run_twopc_path(1, Some(8));
    t.row(vec![
        "2PC + coordinator crash".into(),
        r.mean_commit_ms.into(),
        r.decided.into(),
        (r.aborted as usize).into(),
        r.lost.into(),
    ]);
    let r = run_waa_path(1, true);
    t.row(vec![
        "WAA + replica crash".into(),
        r.mean_commit_ms.into(),
        r.committed.into(),
        (r.aborted as usize).into(),
        0usize.into(),
    ]);
    t.note("k=0 is 'asynchronous' but loses locally-applied updates on a crash");
    t.note("(non-durable atomicity, §2); k≥2 is synchronous — comparable to the");
    t.note("transactional paths, which add grouping, durable commit and aborts.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k0_is_fast_k_full_is_synchronous() {
        let k0 = run_cbcast_path(1, 0, None);
        let kf = run_cbcast_path(1, REPLICAS, None);
        assert_eq!(k0.mean_safety_ms, 0.0);
        assert!(kf.mean_safety_ms > 0.5, "full safety waits on the net");
        assert_eq!(k0.lost, 0);
    }

    #[test]
    fn primary_crash_loses_updates_only_at_k0() {
        let r = run_cbcast_path(1, 0, Some(8));
        assert!(r.lost > 0, "asynchronous write lost on crash");
    }

    #[test]
    fn twopc_never_diverges() {
        let healthy = run_twopc_path(1, None);
        assert_eq!(healthy.lost, 0);
        assert!(healthy.decided > 0);
        let crashed = run_twopc_path(1, Some(8));
        assert_eq!(crashed.lost, 0, "2PC leaves replicas consistent");
    }

    #[test]
    fn waa_commits_and_survives_replica_failure() {
        let healthy = run_waa_path(1, false);
        assert_eq!(healthy.committed, WRITES as usize);
        let failed = run_waa_path(1, true);
        assert!(
            failed.committed + failed.aborted as usize >= (WRITES - 1) as usize,
            "writes keep completing with the shrunk availability list"
        );
    }

    #[test]
    fn comparable_latency_for_synchronous_paths() {
        // The paper: k-safety writes end up as synchronous as transactions.
        let cb = run_cbcast_path(1, REPLICAS, None);
        let tp = run_twopc_path(1, None);
        assert!(cb.mean_safety_ms > 0.0 && tp.mean_commit_ms > 0.0);
        let ratio = cb.mean_safety_ms / tp.mean_commit_ms;
        assert!(
            (0.1..10.0).contains(&ratio),
            "same order of magnitude, got ratio {ratio}"
        );
    }
}
