//! A write-ahead log with simulated stable storage.
//!
//! The paper's durability contrast (§2): CATOCS delivery "is atomic, but
//! not durable. ... if the sender fails during CATOCS protocol execution
//! before the message is stable, there is no guarantee that the remaining
//! operational processes will ever receive and deliver the message." A
//! transactional participant, by contrast, forces a log record to stable
//! storage before acknowledging prepare — so its promises survive a
//! crash. The log here models exactly that: records are volatile until
//! `WriteAheadLog::sync`, and only synced ones are read back by
//! [`WriteAheadLog::recover`].

use crate::lock::TxId;
use serde::{Deserialize, Serialize};

/// One log record.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum LogRecord {
    /// Transaction started.
    Begin(TxId),
    /// A write: key, old value, new value (undo/redo).
    Write {
        tx: TxId,
        key: u64,
        old: i64,
        new: i64,
    },
    /// Participant promised to commit if told to.
    Prepared(TxId),
    /// Transaction committed.
    Commit(TxId),
    /// Transaction aborted.
    Abort(TxId),
}

/// The simulated write-ahead log.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct WriteAheadLog {
    /// Records forced to stable storage.
    stable: Vec<LogRecord>,
    /// Records appended but not yet synced.
    volatile: Vec<LogRecord>,
}

impl WriteAheadLog {
    /// An empty log.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends a record (volatile until synced).
    pub(crate) fn append(&mut self, r: LogRecord) {
        self.volatile.push(r);
    }

    /// Forces all appended records to stable storage.
    pub(crate) fn sync(&mut self) {
        self.stable.append(&mut self.volatile);
    }

    /// Appends and immediately forces (the prepare/commit path).
    pub(crate) fn append_sync(&mut self, r: LogRecord) {
        self.append(r);
        self.sync();
    }

    /// Recovery analysis: transactions that were prepared but have no
    /// commit/abort outcome (in-doubt), and transactions with a durable
    /// commit.
    pub fn recover(&self) -> RecoveryOutcome {
        let mut prepared = Vec::new();
        let mut committed = Vec::new();
        let mut aborted = Vec::new();
        for r in &self.stable {
            match r {
                LogRecord::Prepared(t) => prepared.push(*t),
                LogRecord::Commit(t) => committed.push(*t),
                LogRecord::Abort(t) => aborted.push(*t),
                _ => {}
            }
        }
        let in_doubt: Vec<TxId> = prepared
            .iter()
            .copied()
            .filter(|t| !committed.contains(t) && !aborted.contains(t))
            .collect();
        RecoveryOutcome {
            committed,
            aborted,
            in_doubt,
        }
    }
}

/// What recovery finds in the durable log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Durably committed transactions.
    pub committed: Vec<TxId>,
    /// Durably aborted transactions.
    pub aborted: Vec<TxId>,
    /// Prepared transactions with no recorded outcome — must ask the
    /// coordinator (the blocking case of 2PC).
    pub in_doubt: Vec<TxId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    impl WriteAheadLog {
        /// Simulates a crash: volatile records are lost.
        pub(crate) fn crash(&mut self) {
            self.volatile.clear();
        }
    }

    #[test]
    fn unsynced_records_lost_on_crash() {
        let mut w = WriteAheadLog::new();
        w.append(LogRecord::Begin(TxId(1)));
        w.crash();
        assert!(w.stable.is_empty());
    }

    #[test]
    fn synced_records_survive_crash() {
        let mut w = WriteAheadLog::new();
        w.append(LogRecord::Begin(TxId(1)));
        w.sync();
        w.append(LogRecord::Commit(TxId(1)));
        w.crash();
        assert_eq!(w.stable, [LogRecord::Begin(TxId(1))]);
    }

    #[test]
    fn recovery_classifies_outcomes() {
        let mut w = WriteAheadLog::new();
        w.append_sync(LogRecord::Prepared(TxId(1)));
        w.append_sync(LogRecord::Commit(TxId(1)));
        w.append_sync(LogRecord::Prepared(TxId(2)));
        w.append_sync(LogRecord::Prepared(TxId(3)));
        w.append_sync(LogRecord::Abort(TxId(3)));
        w.crash();
        let r = w.recover();
        assert_eq!(r.committed, vec![TxId(1)]);
        assert_eq!(r.aborted, vec![TxId(3)]);
        assert_eq!(r.in_doubt, vec![TxId(2)]);
    }
}
