//! A complete distributed transaction system under `simnet` — §4.3 end
//! to end.
//!
//! "A distributed transaction management protocol already orders the
//! transactions (i.e. ensures serializability). ... the ordering of
//! transactions is dictated by 2-phase locking on the data that is
//! accessed as part of the transaction. The relative message ordering
//! from concurrent, but separate, transactions is irrelevant with
//! regards to correctness."
//!
//! The scenario: several client nodes run short read-modify-write
//! transactions against sharded data nodes. Clients acquire exclusive
//! locks in *randomized* order (deliberately inviting deadlocks), stage
//! writes, and commit with 2PC; data nodes export wait-for edges to a
//! deadlock monitor (§4.2's protocol), which aborts the youngest victim;
//! victims retry. Everything travels over plain unordered datagrams —
//! no causal or total multicast anywhere — and the outcome is verified
//! serializable.

use crate::deadlock::{DeadlockMonitor, WaitForReport};
use crate::kv::MvccStore;
use crate::lock::{LockManager, LockMode, LockOutcome, TxId};
use clocks::lamport::{LamportClock, TotalStamp};
use rand::seq::SliceRandom;
use rand::Rng;
use simnet::net::NetConfig;
use simnet::process::{Ctx, Process, ProcessId, TimerId};
use simnet::sim::SimBuilder;
use simnet::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Messages of the transaction system (all point-to-point, unordered).
#[derive(Clone, Debug)]
pub(crate) enum TxnMsg {
    /// Client → shard: request an exclusive lock.
    LockReq { tx: TxId, key: u64 },
    /// Shard → client: the lock is held.
    LockGranted { tx: TxId, key: u64 },
    /// Client → shard: stage a write (lock already held).
    StageWrite { tx: TxId, key: u64, val: i64 },
    /// Client (coordinator) → shard: prepare.
    Prepare { tx: TxId },
    /// Shard → client: vote, carrying the shard's latest commit stamp so
    /// the client's Lamport clock stays ahead of committed history.
    Vote {
        tx: TxId,
        shard: usize,
        yes: bool,
        latest_stamp: u64,
    },
    /// Client → shard: decision, with the commit stamp.
    Decision {
        tx: TxId,
        commit: bool,
        stamp: TotalStamp,
    },
    /// Shard → monitor: periodic wait-for edges.
    Report(WaitForReport),
    /// Monitor → client: your transaction was chosen as deadlock victim.
    AbortVictim { tx: TxId },
}

/// Builds a TxId carrying the owning client's index (so the monitor can
/// route the victim notice).
fn make_txid(client: usize, seq: u64) -> TxId {
    TxId(((client as u64) << 32) | seq)
}

/// The client index embedded in a TxId.
pub(crate) fn client_of(tx: TxId) -> usize {
    (tx.0 >> 32) as usize
}

// ---------------------------------------------------------------------
// Data node (shard).
// ---------------------------------------------------------------------

/// A shard: lock manager + MVCC store + 2PC participant.
pub(crate) struct DataNode {
    shard: usize,
    lm: LockManager,
    store: MvccStore,
    /// Who runs each transaction (learned from LockReq).
    client_of_tx: BTreeMap<TxId, ProcessId>,
    monitor: ProcessId,
    report_seq: u64,
    latest_commit: u64,
    /// Writes staged per transaction (mirrors the store, for the log).
    pending_log: BTreeMap<TxId, Vec<(u64, i64)>>,
    /// Committed (tx, stamp, key, value) log for post-run verification.
    pub commit_log: Vec<(TxId, TotalStamp, u64, i64)>,
}

const REPORT: TimerId = TimerId(0);

impl DataNode {
    fn grant(&mut self, ctx: &mut Ctx<'_, TxnMsg>, granted: Vec<(TxId, u64)>) {
        for (tx, key) in granted {
            if let Some(&client) = self.client_of_tx.get(&tx) {
                ctx.send(client, TxnMsg::LockGranted { tx, key });
            }
        }
    }
}

impl Process<TxnMsg> for DataNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TxnMsg>) {
        ctx.set_timer(REPORT, SimDuration::from_millis(30));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, TxnMsg>, from: ProcessId, msg: TxnMsg) {
        match msg {
            TxnMsg::LockReq { tx, key } => {
                self.client_of_tx.insert(tx, from);
                match self.lm.acquire(tx, key, LockMode::Exclusive) {
                    LockOutcome::Granted => {
                        ctx.send(from, TxnMsg::LockGranted { tx, key });
                    }
                    LockOutcome::Waiting(_) => {} // edge exported via report
                }
            }
            TxnMsg::StageWrite { tx, key, val } => {
                self.store.stage(tx, key, val);
                self.pending_log.entry(tx).or_default().push((key, val));
            }
            TxnMsg::Prepare { tx } => {
                // Strict 2PL: the client only prepares once it holds all
                // locks, so yes unless we know nothing about the tx.
                let yes = self.client_of_tx.contains_key(&tx);
                ctx.send(
                    from,
                    TxnMsg::Vote {
                        tx,
                        shard: self.shard,
                        yes,
                        latest_stamp: self.latest_commit,
                    },
                );
            }
            TxnMsg::Decision { tx, commit, stamp } => {
                if commit {
                    self.store.commit(tx, stamp);
                    self.latest_commit = self.latest_commit.max(stamp.time);
                    for (k, v) in self.pending_log.remove(&tx).unwrap_or_default() {
                        self.commit_log.push((tx, stamp, k, v));
                    }
                } else {
                    self.store.abort(tx);
                    self.pending_log.remove(&tx);
                }
                let granted = self.lm.release_all(tx);
                self.client_of_tx.remove(&tx);
                self.grant(ctx, granted);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, TxnMsg>, _t: TimerId) {
        self.report_seq += 1;
        let edges = self.lm.wait_for_edges();
        ctx.send(
            self.monitor,
            TxnMsg::Report(WaitForReport {
                from: self.shard,
                seq: self.report_seq,
                edges,
            }),
        );
        ctx.set_timer(REPORT, SimDuration::from_millis(30));
    }
}

// ---------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxPhase {
    Idle,
    Locking,
    Preparing,
}

/// A client running randomized two-key transactions.
pub(crate) struct TxClient {
    me: usize,
    shards: Vec<ProcessId>,
    keys_per_shard: u64,
    clock: LamportClock,
    txs_left: u32,
    next_seq: u64,
    phase: TxPhase,
    current: Option<TxId>,
    /// (shard, key) targets of the current transaction, and lock state.
    targets: Vec<(usize, u64, bool)>,
    votes: BTreeSet<usize>,
    /// Committed transactions (tx, stamp).
    pub committed: Vec<(TxId, TotalStamp)>,
    /// Times this client's transaction was aborted as a deadlock victim.
    pub victim_aborts: u32,
}

const START_TX: TimerId = TimerId(1);

impl TxClient {
    fn shard_pid(&self, s: usize) -> ProcessId {
        self.shards[s]
    }

    fn begin(&mut self, ctx: &mut Ctx<'_, TxnMsg>) {
        if self.txs_left == 0 || self.phase != TxPhase::Idle {
            return;
        }
        self.next_seq += 1;
        let tx = make_txid(self.me, self.next_seq);
        self.current = Some(tx);
        self.phase = TxPhase::Locking;
        self.votes.clear();
        // Two distinct keys, possibly on different shards; lock order is
        // randomized — the deadlock invitation.
        let n_shards = self.shards.len();
        let total_keys = n_shards as u64 * self.keys_per_shard;
        let k1 = ctx.rng().gen_range(0..total_keys);
        let k2 = loop {
            let k = ctx.rng().gen_range(0..total_keys);
            if k != k1 {
                break k;
            }
        };
        let mut targets: Vec<(usize, u64, bool)> = [k1, k2]
            .iter()
            .map(|&k| (((k / self.keys_per_shard) as usize), k, false))
            .collect();
        targets.shuffle(ctx.rng());
        // Request the FIRST lock only (strict ordering of acquisitions
        // keeps the wait-for graph honest).
        let (s, k, _) = targets[0];
        ctx.send(self.shard_pid(s), TxnMsg::LockReq { tx, key: k });
        self.targets = targets;
    }

    fn abort_current(&mut self, ctx: &mut Ctx<'_, TxnMsg>) {
        let Some(tx) = self.current.take() else {
            return;
        };
        self.victim_aborts += 1;
        let stamp = TotalStamp {
            time: self.clock.tick(),
            node: self.me,
        };
        let shards: BTreeSet<usize> = self.targets.iter().map(|&(s, _, _)| s).collect();
        for s in shards {
            ctx.send(
                self.shard_pid(s),
                TxnMsg::Decision {
                    tx,
                    commit: false,
                    stamp,
                },
            );
        }
        self.phase = TxPhase::Idle;
        self.targets.clear();
        // Retry after a backoff.
        let backoff = ctx.rng().gen_range(20..60);
        ctx.set_timer(START_TX, SimDuration::from_millis(backoff));
    }
}

impl Process<TxnMsg> for TxClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, TxnMsg>) {
        ctx.set_timer(START_TX, SimDuration::from_millis(5 + self.me as u64 * 3));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, TxnMsg>, _t: TimerId) {
        self.begin(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, TxnMsg>, _from: ProcessId, msg: TxnMsg) {
        match msg {
            TxnMsg::LockGranted { tx, key } => {
                if self.current != Some(tx) || self.phase != TxPhase::Locking {
                    return;
                }
                // Mark and request the next lock, or move to staging.
                let mut all_locked = true;
                let mut next: Option<(usize, u64)> = None;
                for (s, k, locked) in self.targets.iter_mut() {
                    if *k == key {
                        *locked = true;
                    }
                    if !*locked && next.is_none() {
                        next = Some((*s, *k));
                        all_locked = false;
                    } else if !*locked {
                        all_locked = false;
                    }
                }
                if let Some((s, k)) = next {
                    ctx.send(self.shard_pid(s), TxnMsg::LockReq { tx, key: k });
                } else if all_locked {
                    // Stage writes and prepare everywhere.
                    self.phase = TxPhase::Preparing;
                    let shards: BTreeSet<usize> = self.targets.iter().map(|&(s, _, _)| s).collect();
                    for &(s, k, _) in &self.targets {
                        ctx.send(
                            self.shard_pid(s),
                            TxnMsg::StageWrite {
                                tx,
                                key: k,
                                val: tx.0 as i64,
                            },
                        );
                    }
                    for s in shards {
                        ctx.send(self.shard_pid(s), TxnMsg::Prepare { tx });
                    }
                }
            }
            TxnMsg::Vote {
                tx,
                shard,
                yes,
                latest_stamp,
            } => {
                if self.current != Some(tx) || self.phase != TxPhase::Preparing {
                    return;
                }
                self.clock.observe(latest_stamp);
                if !yes {
                    self.abort_current(ctx);
                    return;
                }
                self.votes.insert(shard);
                let needed: BTreeSet<usize> = self.targets.iter().map(|&(s, _, _)| s).collect();
                if self.votes.is_superset(&needed) {
                    let stamp = TotalStamp {
                        time: self.clock.tick(),
                        node: self.me,
                    };
                    for s in needed {
                        ctx.send(
                            self.shard_pid(s),
                            TxnMsg::Decision {
                                tx,
                                commit: true,
                                stamp,
                            },
                        );
                    }
                    self.committed.push((tx, stamp));
                    self.txs_left -= 1;
                    self.current = None;
                    self.targets.clear();
                    self.phase = TxPhase::Idle;
                    ctx.set_timer(START_TX, SimDuration::from_millis(10));
                }
            }
            TxnMsg::AbortVictim { tx } if self.current == Some(tx) => {
                self.abort_current(ctx);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Monitor.
// ---------------------------------------------------------------------

/// The deadlock monitor: merges shard reports, aborts victims.
pub(crate) struct TxnMonitor {
    inner: DeadlockMonitor,
    clients: Vec<ProcessId>,
    /// Deadlocks resolved.
    pub resolved: u32,
    /// Victims already notified (avoid duplicate aborts).
    notified: BTreeSet<TxId>,
}

impl Process<TxnMsg> for TxnMonitor {
    fn on_message(&mut self, ctx: &mut Ctx<'_, TxnMsg>, _from: ProcessId, msg: TxnMsg) {
        if let TxnMsg::Report(r) = msg {
            self.inner.ingest(r);
            if let Some((_cycle, victim)) = self.inner.detect() {
                if self.notified.insert(victim) {
                    self.resolved += 1;
                    let client = self.clients[client_of(victim)];
                    ctx.send(client, TxnMsg::AbortVictim { tx: victim });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------

/// Results of one transaction-system run.
#[derive(Clone, Debug)]
pub struct TxnScenarioResult {
    /// Transactions committed across clients.
    pub committed: usize,
    /// Deadlock victims aborted (and retried).
    pub deadlock_aborts: u32,
    /// Deadlocks the monitor resolved.
    pub deadlocks_resolved: u32,
    /// Messages on the wire.
    pub msgs: u64,
    /// Serializability check: every key's committed versions appear in
    /// strictly increasing stamp order, and every committed transaction's
    /// writes are present exactly once per key it wrote.
    pub serializable: bool,
    /// Every client finished its workload.
    pub all_done: bool,
}

/// Runs `clients` clients × `txs_per_client` transactions over `shards`
/// shards with `keys_per_shard` keys each.
pub fn run_txn_scenario(
    seed: u64,
    shards: usize,
    clients: usize,
    keys_per_shard: u64,
    txs_per_client: u32,
) -> TxnScenarioResult {
    let mut sim = SimBuilder::new(seed)
        .net(NetConfig::lossy_lan(0.0))
        .build::<TxnMsg>();
    let monitor_pid = ProcessId(shards + clients);
    let shard_pids: Vec<ProcessId> = (0..shards).map(ProcessId).collect();
    let client_pids: Vec<ProcessId> = (shards..shards + clients).map(ProcessId).collect();
    for s in 0..shards {
        sim.add_process(DataNode {
            shard: s,
            lm: LockManager::new(),
            store: MvccStore::new(),
            client_of_tx: BTreeMap::new(),
            monitor: monitor_pid,
            report_seq: 0,
            latest_commit: 0,
            commit_log: Vec::new(),
            pending_log: BTreeMap::new(),
        });
    }
    for c in 0..clients {
        sim.add_process(TxClient {
            me: c,
            shards: shard_pids.clone(),
            keys_per_shard,
            clock: LamportClock::new(),
            txs_left: txs_per_client,
            next_seq: 0,
            phase: TxPhase::Idle,
            current: None,
            targets: Vec::new(),
            votes: BTreeSet::new(),
            committed: Vec::new(),
            victim_aborts: 0,
        });
    }
    sim.add_process(TxnMonitor {
        inner: DeadlockMonitor::new(),
        clients: client_pids.clone(),
        resolved: 0,
        notified: BTreeSet::new(),
    });
    sim.run_until(SimTime::from_secs(60));

    let mut committed = 0;
    let mut aborts = 0;
    let mut all_done = true;
    for &c in &client_pids {
        let cl: &TxClient = sim.process(c).expect("client");
        committed += cl.committed.len();
        aborts += cl.victim_aborts;
        if cl.txs_left != 0 {
            all_done = false;
        }
    }
    // Serializability: per key, stamps strictly increase in the commit
    // log (MvccStore::commit also asserts this at commit time).
    let mut serializable = true;
    for &s in &shard_pids {
        let node: &DataNode = sim.process(s).expect("shard");
        let mut per_key: BTreeMap<u64, Vec<TotalStamp>> = BTreeMap::new();
        for &(_tx, stamp, key, _v) in &node.commit_log {
            per_key.entry(key).or_default().push(stamp);
        }
        for stamps in per_key.values() {
            if !stamps.windows(2).all(|w| w[0] < w[1]) {
                serializable = false;
            }
        }
    }
    let monitor: &TxnMonitor = sim.process(monitor_pid).expect("monitor");
    TxnScenarioResult {
        committed,
        deadlock_aborts: aborts,
        deadlocks_resolved: monitor.resolved,
        msgs: sim.metrics().counter("net.sent"),
        serializable,
        all_done,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transactions_serialize_without_catocs() {
        let r = run_txn_scenario(1, 3, 4, 4, 6);
        assert!(r.all_done, "{r:?}");
        assert_eq!(r.committed, 24);
        assert!(r.serializable);
    }

    #[test]
    fn deadlocks_occur_and_are_resolved() {
        // Few keys + random lock order + several clients → contention.
        let mut total_aborts = 0;
        for seed in 0..4 {
            let r = run_txn_scenario(seed, 2, 5, 2, 6);
            assert!(r.all_done, "seed {seed}: {r:?}");
            assert!(r.serializable, "seed {seed}");
            total_aborts += r.deadlock_aborts;
        }
        assert!(
            total_aborts > 0,
            "random lock order over few keys must deadlock sometimes"
        );
    }

    #[test]
    fn txid_encodes_client() {
        assert_eq!(client_of(make_txid(3, 77)), 3);
        assert_eq!(make_txid(3, 77).0 & 0xFFFF_FFFF, 77);
    }
}
