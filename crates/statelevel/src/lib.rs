//! # statelevel — the paper's alternatives to CATOCS
//!
//! "Solve state problems at the state level" (§6). This crate implements
//! every state-level technique the paper puts forward in place of ordered
//! multicast:
//!
//! - [`versioned`] — versioned object stores: per-object version numbers
//!   ("logical clocks on the database state", §3.1) with stale-update
//!   rejection.
//! - [`prescriptive`] — prescriptive ordering: recipients reorder or drop
//!   updates using version numbers carried *in the data*, instead of
//!   relying on communication-level delivery order.
//! - [`causal_memory`] — §3.3: causal memory implemented with
//!   state-level *write* clocks ("much cheaper protocols, which utilize
//!   state-level logical clocks").
//! - [`deps`] — dependency fields for computed data: "each computed data
//!   object records the id and version number of its base data object in
//!   a designated 'dependency' field" (§4.1, the trading-floor fix).
//! - [`cache`] — the order-preserving data cache that generalizes the
//!   Netnews and trading solutions (§4.1).
//! - [`snapshot`] — Chandy–Lamport consistent cuts over plain channels
//!   (no CATOCS), for global predicate evaluation (§4.2).
//! - [`predicate`] — locally-stable predicate detection: wait-for graphs
//!   with exact cycle detection ("no 'false' deadlocks are detected",
//!   §4.2), token-loss and termination detection.

pub mod cache;
pub mod causal_memory;
pub mod deps;
pub mod predicate;
pub mod prescriptive;
pub mod snapshot;
pub mod versioned;

pub use cache::OrderPreservingCache;
pub use deps::DependencyTracker;
pub use predicate::WaitForGraph;
pub use prescriptive::{PrescriptiveInbox, PrescriptivePolicy};
pub use versioned::VersionedStore;
