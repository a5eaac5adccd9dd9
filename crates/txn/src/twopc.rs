//! Two-phase commit: coordinator and participant state machines.
//!
//! The paper's §4.3: "The prepare-to-commit phase of the protocol
//! necessarily requires end-to-end acknowledgments because each
//! participating node must be allowed to abort the transaction. Thus, by
//! limitation 2, CATOCS cannot be used to execute this phase." The
//! participant here can refuse a prepare for a state-level reason (a
//! storage capacity limit), which is precisely the ability ("say
//! together", with the option to say *no*) that ordered delivery alone
//! cannot provide.

use crate::lock::TxId;
use crate::wal::{LogRecord, WriteAheadLog};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Messages of the commit protocol.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnWire {
    /// Phase 1: prepare with the write set for this participant.
    Prepare { tx: TxId, writes: Vec<(u64, i64)> },
    /// A participant's vote.
    Vote { tx: TxId, from: usize, yes: bool },
    /// Phase 2: the decision.
    Decision { tx: TxId, commit: bool },
    /// Participant acknowledges the decision (allows coordinator GC).
    Ack { tx: TxId, from: usize },
}

/// The outcome of a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnDecision {
    /// All participants voted yes.
    Commit,
    /// Some participant refused (or timed out).
    Abort,
}

/// The commit coordinator for a single transaction.
#[derive(Debug)]
pub struct Coordinator {
    tx: TxId,
    participants: Vec<usize>,
    votes: BTreeMap<usize, bool>,
    /// Whether the decision is made (and logged): later votes and
    /// timeouts change nothing.
    decided: bool,
    wal: WriteAheadLog,
}

impl Coordinator {
    /// Creates a coordinator for `tx` over the given participants and
    /// returns the Prepare messages to send, as `(participant, msg)`.
    pub fn begin(
        tx: TxId,
        writes_per_participant: Vec<(usize, Vec<(u64, i64)>)>,
    ) -> (Self, Vec<(usize, TxnWire)>) {
        let participants: Vec<usize> = writes_per_participant.iter().map(|(p, _)| *p).collect();
        let mut wal = WriteAheadLog::new();
        wal.append_sync(LogRecord::Begin(tx));
        let msgs = writes_per_participant
            .into_iter()
            .map(|(p, writes)| (p, TxnWire::Prepare { tx, writes }))
            .collect();
        (
            Coordinator {
                tx,
                participants,
                votes: BTreeMap::new(),
                decided: false,
                wal,
            },
            msgs,
        )
    }

    /// Handles a vote; when all votes are in (or any is "no"), returns the
    /// decision and the Decision messages to send.
    pub fn on_vote(
        &mut self,
        from: usize,
        yes: bool,
    ) -> Option<(TxnDecision, Vec<(usize, TxnWire)>)> {
        if self.decided || !self.participants.contains(&from) {
            return None;
        }
        self.votes.insert(from, yes);
        let any_no = self.votes.values().any(|&v| !v);
        let all_in = self.votes.len() == self.participants.len();
        if any_no || all_in {
            let decision = if any_no {
                TxnDecision::Abort
            } else {
                TxnDecision::Commit
            };
            // The decision is durable before it is announced.
            self.wal.append_sync(match decision {
                TxnDecision::Commit => LogRecord::Commit(self.tx),
                TxnDecision::Abort => LogRecord::Abort(self.tx),
            });
            self.decided = true;
            let msgs = self
                .participants
                .iter()
                .map(|&p| {
                    (
                        p,
                        TxnWire::Decision {
                            tx: self.tx,
                            commit: decision == TxnDecision::Commit,
                        },
                    )
                })
                .collect();
            Some((decision, msgs))
        } else {
            None
        }
    }

    /// A prepare timeout: abort unilaterally (no vote arrived from
    /// someone). Returns the Decision messages.
    pub fn on_timeout(&mut self) -> Option<(TxnDecision, Vec<(usize, TxnWire)>)> {
        if self.decided {
            return None;
        }
        self.wal.append_sync(LogRecord::Abort(self.tx));
        self.decided = true;
        let msgs = self
            .participants
            .iter()
            .map(|&p| {
                (
                    p,
                    TxnWire::Decision {
                        tx: self.tx,
                        commit: false,
                    },
                )
            })
            .collect();
        Some((TxnDecision::Abort, msgs))
    }
}

/// A participant node: holds a key-value store, votes on prepares, and
/// applies decisions. Refuses prepares that would exceed `capacity`
/// distinct keys — the paper's "reject an operation because of lack of
/// storage" case.
#[derive(Debug)]
pub struct Participant {
    me: usize,
    store: BTreeMap<u64, i64>,
    pending: BTreeMap<TxId, Vec<(u64, i64)>>,
    wal: WriteAheadLog,
    capacity: usize,
}

impl Participant {
    /// Creates participant `me` with the given key capacity.
    pub fn new(me: usize, capacity: usize) -> Self {
        Participant {
            me,
            store: BTreeMap::new(),
            pending: BTreeMap::new(),
            wal: WriteAheadLog::new(),
            capacity,
        }
    }

    /// Handles a protocol message; returns any reply.
    pub fn on_wire(&mut self, msg: &TxnWire) -> Option<TxnWire> {
        match msg {
            TxnWire::Prepare { tx, writes } => {
                let new_keys = writes
                    .iter()
                    .filter(|(k, _)| !self.store.contains_key(k))
                    .count();
                let yes = self.store.len() + new_keys <= self.capacity;
                if yes {
                    for &(key, new) in writes {
                        let old = self.store.get(&key).copied().unwrap_or(0);
                        self.wal.append(LogRecord::Write {
                            tx: *tx,
                            key,
                            old,
                            new,
                        });
                    }
                    self.wal.append_sync(LogRecord::Prepared(*tx));
                    self.pending.insert(*tx, writes.clone());
                }
                Some(TxnWire::Vote {
                    tx: *tx,
                    from: self.me,
                    yes,
                })
            }
            TxnWire::Decision { tx, commit } => {
                if let Some(writes) = self.pending.remove(tx) {
                    if *commit {
                        for (key, new) in writes {
                            self.store.insert(key, new);
                        }
                        self.wal.append_sync(LogRecord::Commit(*tx));
                    } else {
                        self.wal.append_sync(LogRecord::Abort(*tx));
                    }
                }
                Some(TxnWire::Ack {
                    tx: *tx,
                    from: self.me,
                })
            }
            _ => None,
        }
    }

    /// Reads a key.
    pub fn get(&self, key: u64) -> Option<i64> {
        self.store.get(&key).copied()
    }

    /// Resolves an in-doubt transaction from an outcome learned elsewhere
    /// (cooperative termination: ask any participant that knows).
    pub fn resolve(&mut self, tx: TxId, commit: bool) {
        if let Some(writes) = self.pending.remove(&tx) {
            if commit {
                for (key, new) in writes {
                    self.store.insert(key, new);
                }
                self.wal.append_sync(LogRecord::Commit(tx));
            } else {
                self.wal.append_sync(LogRecord::Abort(tx));
            }
        }
    }

    /// Transactions currently prepared here with no decision.
    pub fn in_doubt_txs(&self) -> Vec<TxId> {
        self.pending.keys().copied().collect()
    }

    /// The durable log (inspection).
    pub fn wal(&self) -> &WriteAheadLog {
        &self.wal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_commit(writes: Vec<(usize, Vec<(u64, i64)>)>, parts: &mut [Participant]) -> TxnDecision {
        let (mut coord, prepares) = Coordinator::begin(TxId(1), writes);
        let mut decision_msgs = Vec::new();
        let mut decision = None;
        for (p, msg) in prepares {
            let vote = parts[p].on_wire(&msg).expect("vote");
            if let TxnWire::Vote { from, yes, .. } = vote {
                if let Some((d, msgs)) = coord.on_vote(from, yes) {
                    decision = Some(d);
                    decision_msgs = msgs;
                }
            }
        }
        for (p, msg) in decision_msgs {
            let ack = parts[p].on_wire(&msg).expect("ack");
            assert!(matches!(ack, TxnWire::Ack { from, .. } if from == p));
        }
        decision.expect("decision reached")
    }

    #[test]
    fn unanimous_yes_commits_everywhere() {
        let mut parts = vec![Participant::new(0, 10), Participant::new(1, 10)];
        let d = run_commit(vec![(0, vec![(1, 100)]), (1, vec![(2, 200)])], &mut parts);
        assert_eq!(d, TxnDecision::Commit);
        assert_eq!(parts[0].get(1), Some(100));
        assert_eq!(parts[1].get(2), Some(200));
    }

    #[test]
    fn single_no_aborts_everywhere() {
        // Participant 1 has capacity 0 → votes no (the state-level
        // rejection CATOCS can't express).
        let mut parts = vec![Participant::new(0, 10), Participant::new(1, 0)];
        let d = run_commit(vec![(0, vec![(1, 100)]), (1, vec![(2, 200)])], &mut parts);
        assert_eq!(d, TxnDecision::Abort);
        assert_eq!(parts[0].get(1), None, "no partial application");
        assert_eq!(parts[1].get(2), None);
    }

    #[test]
    fn timeout_aborts() {
        let (mut coord, _msgs) = Coordinator::begin(TxId(2), vec![(0, vec![(1, 1)])]);
        let (d, msgs) = coord.on_timeout().expect("abort on timeout");
        assert_eq!(d, TxnDecision::Abort);
        assert_eq!(msgs.len(), 1);
        assert!(coord.on_timeout().is_none(), "idempotent");
        assert!(coord.on_vote(0, true).is_none(), "decided already");
    }

    #[test]
    fn prepared_participant_survives_crash_in_doubt() {
        let mut p = Participant::new(0, 10);
        p.on_wire(&TxnWire::Prepare {
            tx: TxId(3),
            writes: vec![(5, 50)],
        });
        assert_eq!(p.in_doubt_txs(), vec![TxId(3)]);
        let mut log = p.wal().clone();
        log.crash();
        assert_eq!(log.recover().in_doubt, vec![TxId(3)]);
        assert_eq!(p.get(5), None, "undecided write not applied");
    }

    #[test]
    fn committed_state_survives_crash() {
        let mut p = Participant::new(0, 10);
        p.on_wire(&TxnWire::Prepare {
            tx: TxId(4),
            writes: vec![(7, 70)],
        });
        p.on_wire(&TxnWire::Decision {
            tx: TxId(4),
            commit: true,
        });
        assert_eq!(p.get(7), Some(70));
        let mut log = p.wal().clone();
        log.crash();
        let rec = log.recover();
        assert!(rec.in_doubt.is_empty());
        assert_eq!(
            rec.committed,
            vec![TxId(4)],
            "durability: commit survives crash"
        );
    }

    #[test]
    fn votes_from_strangers_ignored() {
        let (mut coord, _) = Coordinator::begin(TxId(5), vec![(0, vec![])]);
        assert!(coord.on_vote(9, true).is_none());
        assert!(coord.on_timeout().is_some(), "still undecided");
    }
}
