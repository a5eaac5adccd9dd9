//! Read-any / write-all-available replication with availability lists.
//!
//! The paper's §4.4 optimized-transaction design (HARP-style): writes go
//! synchronously to every *available* replica; reads are served by any
//! one replica. On a replica failure, "a transaction updating replicated
//! files can drop failed servers from the availability list at
//! transaction commit and then commit the transaction with the remaining
//! servers provided the transaction was not holding read locks on any of
//! the failed servers" — so simple replicated updates abort in exactly
//! the same failure cases as a CATOCS write, while additionally
//! supporting grouped updates and durable commit. Experiment T8 compares
//! this against the `catocs::safety` k-level write path.

use serde::{Deserialize, Serialize};
use simnet::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Replication protocol messages.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplWire {
    /// Apply a write (sent to every available replica).
    Write { wid: u64, key: u64, val: i64 },
    /// Replica acknowledges a write as applied and durable.
    WriteAck { wid: u64, from: usize },
    /// Read request to one replica.
    Read { rid: u64, key: u64 },
    /// Read reply.
    ReadReply { rid: u64, val: Option<i64> },
}

/// How a coordinated write finished.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    /// All available replicas applied it.
    Committed {
        /// The write.
        wid: u64,
        /// Time from begin to last ack.
        latency: SimDuration,
        /// Replicas that applied it.
        replicas: Vec<usize>,
    },
    /// Aborted (failed replica held our read dependency).
    Aborted {
        /// The write.
        wid: u64,
    },
}

#[derive(Debug)]
struct PendingWrite {
    key: u64,
    val: i64,
    targets: BTreeSet<usize>,
    acks: BTreeSet<usize>,
    started: SimTime,
    /// Replica this transaction read from (read-any); if that replica
    /// fails before commit, the transaction must abort.
    read_from: Option<usize>,
}

/// The write coordinator: owns the availability list.
#[derive(Debug)]
pub struct WriteCoordinator {
    available: BTreeSet<usize>,
    pending: BTreeMap<u64, PendingWrite>,
    committed: u64,
    aborted: u64,
}

impl WriteCoordinator {
    /// Creates a coordinator over replicas `0..n`, all initially
    /// available.
    pub fn new(n: usize) -> Self {
        WriteCoordinator {
            available: (0..n).collect(),
            pending: BTreeMap::new(),
            committed: 0,
            aborted: 0,
        }
    }

    /// Starts a write; returns the messages for the available replicas.
    /// `read_from` is the replica this transaction read from, if any.
    pub fn begin_write(
        &mut self,
        wid: u64,
        key: u64,
        val: i64,
        read_from: Option<usize>,
        now: SimTime,
    ) -> Vec<(usize, ReplWire)> {
        let targets = self.available.clone();
        self.pending.insert(
            wid,
            PendingWrite {
                key,
                val,
                targets: targets.clone(),
                acks: BTreeSet::new(),
                started: now,
                read_from,
            },
        );
        targets
            .into_iter()
            .map(|r| (r, ReplWire::Write { wid, key, val }))
            .collect()
    }

    /// Handles a write ack; returns the outcome when complete.
    pub fn on_ack(&mut self, wid: u64, from: usize, now: SimTime) -> Option<WriteOutcome> {
        let p = self.pending.get_mut(&wid)?;
        p.acks.insert(from);
        if p.targets.iter().all(|t| p.acks.contains(t)) {
            let p = self.pending.remove(&wid).expect("present");
            self.committed += 1;
            Some(WriteOutcome::Committed {
                wid,
                latency: now.saturating_since(p.started),
                replicas: p.targets.into_iter().collect(),
            })
        } else {
            None
        }
    }

    /// Handles a replica failure: drops it from the availability list and
    /// re-evaluates pending writes. Writes whose read dependency was on
    /// the failed replica abort; others simply stop waiting for it.
    pub fn on_failure(&mut self, replica: usize, now: SimTime) -> Vec<WriteOutcome> {
        if !self.available.remove(&replica) {
            return Vec::new();
        }
        let mut outcomes = Vec::new();
        let wids: Vec<u64> = self.pending.keys().copied().collect();
        for wid in wids {
            let p = self.pending.get_mut(&wid).expect("present");
            if p.read_from == Some(replica) {
                self.pending.remove(&wid);
                self.aborted += 1;
                outcomes.push(WriteOutcome::Aborted { wid });
                continue;
            }
            p.targets.remove(&replica);
            if !p.targets.is_empty() && p.targets.iter().all(|t| p.acks.contains(t)) {
                let p = self.pending.remove(&wid).expect("present");
                self.committed += 1;
                outcomes.push(WriteOutcome::Committed {
                    wid,
                    latency: now.saturating_since(p.started),
                    replicas: p.targets.into_iter().collect(),
                });
            }
        }
        outcomes
    }

    /// Retransmissions for every pending write's unacked targets (drive
    /// from a timer — write messages may be lost).
    pub fn retry_msgs(&self) -> Vec<(usize, ReplWire)> {
        let mut out = Vec::new();
        for (&wid, p) in &self.pending {
            for &t in &p.targets {
                if !p.acks.contains(&t) {
                    out.push((
                        t,
                        ReplWire::Write {
                            wid,
                            key: p.key,
                            val: p.val,
                        },
                    ));
                }
            }
        }
        out
    }

    /// Committed / aborted counters.
    pub fn totals(&self) -> (u64, u64) {
        (self.committed, self.aborted)
    }

    /// Writes still in flight.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

/// One replica's store.
#[derive(Debug, Default)]
pub struct ReplicatedStore {
    store: BTreeMap<u64, i64>,
    applied: BTreeSet<u64>,
}

impl ReplicatedStore {
    /// An empty replica.
    pub fn new() -> Self {
        Self::default()
    }

    /// Handles a protocol message; returns any reply.
    pub fn on_wire(&mut self, me: usize, msg: &ReplWire) -> Option<ReplWire> {
        match msg {
            ReplWire::Write { wid, key, val } => {
                if self.applied.insert(*wid) {
                    self.store.insert(*key, *val);
                }
                Some(ReplWire::WriteAck {
                    wid: *wid,
                    from: me,
                })
            }
            ReplWire::Read { rid, key } => Some(ReplWire::ReadReply {
                rid: *rid,
                val: self.store.get(key).copied(),
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn write_commits_after_all_available_ack() {
        let mut c = WriteCoordinator::new(3);
        let msgs = c.begin_write(1, 10, 100, None, t(0));
        assert_eq!(msgs.len(), 3);
        assert!(c.on_ack(1, 0, t(1)).is_none());
        assert!(c.on_ack(1, 1, t(2)).is_none());
        match c.on_ack(1, 2, t(3)).expect("committed") {
            WriteOutcome::Committed {
                latency, replicas, ..
            } => {
                assert_eq!(latency, SimDuration::from_millis(3));
                assert_eq!(replicas, vec![0, 1, 2]);
            }
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(c.totals(), (1, 0));
    }

    #[test]
    fn failure_shrinks_availability_and_unblocks_writes() {
        let mut c = WriteCoordinator::new(3);
        c.begin_write(1, 10, 100, None, t(0));
        c.on_ack(1, 0, t(1));
        c.on_ack(1, 1, t(2));
        // Replica 2 never acks — it failed. Dropping it commits the write
        // with the remaining servers (the paper's optimization).
        let outcomes = c.on_failure(2, t(50));
        assert_eq!(outcomes.len(), 1);
        assert!(matches!(outcomes[0], WriteOutcome::Committed { .. }));
        // Subsequent writes only target survivors.
        let msgs = c.begin_write(2, 11, 1, None, t(60));
        let targets: Vec<usize> = msgs.iter().map(|(r, _)| *r).collect();
        assert_eq!(targets, [0, 1]);
    }

    #[test]
    fn read_dependency_on_failed_replica_aborts() {
        // "provided the transaction was not holding read locks on any of
        // the failed servers" — here it was, so it aborts.
        let mut c = WriteCoordinator::new(3);
        c.begin_write(1, 10, 100, Some(2), t(0));
        let outcomes = c.on_failure(2, t(5));
        assert_eq!(outcomes, vec![WriteOutcome::Aborted { wid: 1 }]);
        assert_eq!(c.totals(), (0, 1));
        assert_eq!(c.pending_len(), 0);
    }

    #[test]
    fn replica_applies_once_and_acks() {
        let mut r = ReplicatedStore::new();
        let w = ReplWire::Write {
            wid: 1,
            key: 5,
            val: 50,
        };
        let ack = r.on_wire(0, &w).unwrap();
        assert_eq!(ack, ReplWire::WriteAck { wid: 1, from: 0 });
        // Duplicate write (retransmit) still acks but applies once.
        let w2 = ReplWire::Write {
            wid: 1,
            key: 5,
            val: 999,
        };
        r.on_wire(0, &w2);
        let reply = r.on_wire(0, &ReplWire::Read { rid: 2, key: 5 });
        assert_eq!(
            reply,
            Some(ReplWire::ReadReply {
                rid: 2,
                val: Some(50)
            })
        );
    }

    #[test]
    fn read_any_returns_value() {
        let mut r = ReplicatedStore::new();
        r.on_wire(
            0,
            &ReplWire::Write {
                wid: 1,
                key: 7,
                val: 70,
            },
        );
        let reply = r.on_wire(0, &ReplWire::Read { rid: 9, key: 7 }).unwrap();
        assert_eq!(
            reply,
            ReplWire::ReadReply {
                rid: 9,
                val: Some(70)
            }
        );
    }

    #[test]
    fn failure_of_unknown_replica_is_noop() {
        let mut c = WriteCoordinator::new(2);
        c.on_failure(1, t(0));
        let outcomes = c.on_failure(1, t(1));
        assert!(outcomes.is_empty());
        let msgs = c.begin_write(1, 1, 1, None, t(2));
        assert_eq!(msgs.len(), 1);
    }
}
