//! # txn — the transactional substrate
//!
//! Sections 4.3–4.5 of the paper argue that transactional techniques
//! subsume CATOCS for replicated data: "a distributed transaction
//! management protocol already orders the transactions". This crate
//! implements that machinery:
//!
//! - [`lock`] — a strict two-phase-locking lock manager with shared /
//!   exclusive modes, FIFO wait queues, and live wait-for edge export
//!   (feeding deadlock detection).
//! - [`wal`] — a write-ahead log with simulated stable storage: the
//!   durability CATOCS lacks ("message delivery is atomic, but not
//!   durable", §2).
//! - [`twopc`] — two-phase commit coordinator and participant state
//!   machines, including the paper's point that participants may *vote
//!   no* for state-level reasons (storage, permissions) — the grouping /
//!   abort ability CATOCS cannot express ("can't say together").
//! - [`occ`] — optimistic concurrency control with commit-time
//!   ordering: "a simple ordering mechanism, such as local timestamp of
//!   the coordinator ... plus node id to break ties, provides a globally
//!   consistent ordering on transactions without using or needing
//!   CATOCS" (§4.3).
//! - [`deadlock`] — the paper's §4.2 distributed deadlock detection:
//!   nodes multicast local wait-for edges (plain FIFO, any order);
//!   monitors take a *cut* (not a consistent cut) and detect exactly the
//!   real deadlocks.
//! - [`kv`] — a multi-version key-value store with commit-stamp
//!   snapshot reads (the state under the transactions).
//! - [`scenario`] — the whole system assembled under `simnet`: sharded
//!   data nodes, randomized clients, deadlock monitor; verified
//!   serializable with zero ordered multicast.
//! - [`replication`] — a read-any/write-all-available replicated store
//!   with availability lists (the optimized-transaction design the paper
//!   says matches CATOCS failure behaviour, §4.4, HARP-style).

pub mod deadlock;
pub mod kv;
pub mod lock;
pub mod occ;
pub mod replication;
pub mod scenario;
pub mod twopc;
pub mod wal;

pub use deadlock::DeadlockMonitor;
pub use lock::{LockManager, LockMode, LockOutcome, TxId};
pub use occ::OccValidator;
pub use replication::ReplicatedStore;
pub use twopc::{Coordinator, Participant, TxnDecision, TxnWire};
