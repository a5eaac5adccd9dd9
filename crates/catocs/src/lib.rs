//! # catocs — the system under critique
//!
//! A faithful, full implementation of "causally and totally ordered
//! communication support" (CATOCS) in the style of the ISIS toolkit the
//! paper argues against:
//!
//! - [`fbcast`] — FIFO multicast (per-sender ordering), the baseline.
//! - [`cbcast`] — causal multicast: vector-clock timestamps, holdback
//!   queues, NACK-based recovery from the message buffer, piggybacked or
//!   explicit acknowledgement gossip (\[Birman, Schiper, Stephenson '91\]).
//! - [`pccast`] — causal multicast with constant-size metadata: causal
//!   order from dissemination order over a ring overlay of FIFO links.
//! - [`causal_core`] — the reliability shell `cbcast` and `pccast` share:
//!   buffer until stable, NACK repair, ack gossip, flush freeze, view
//!   membership.
//! - [`abcast`] — totally ordered multicast via a fixed sequencer, plus a
//!   token-ring variant in [`token`] for the ablation study.
//! - [`stability`] — message-stability tracking (matrix clock) and the
//!   buffer accounting that experiment T5 measures (§5's quadratic-growth
//!   argument).
//! - [`causal_graph`] — the "active causal graph" of §5: unstable
//!   messages as nodes, potential-causality arcs, measured live.
//! - [`domain`] — causal domains (§5): cross-group causality via the
//!   conservative everyone-sees-everything scheme, with the filtered
//!   overhead measurable.
//! - [`failure`] — heartbeat failure detection.
//! - [`membership`] — view-synchronous membership with a flush protocol;
//!   exposes the send-blackout window the paper calls out.
//! - [`safety`] — Deceit-style "write safety level k" tracking (§4.4):
//!   how many acks a cbcast must collect before it counts as safe.
//! - [`endpoint`] — a unified endpoint facade over the five multicast
//!   disciplines, plus a [`simnet`] glue node ([`harness`]) for pure
//!   group workloads.
//!
//! ## Semantics implemented (per the paper's §2)
//!
//! - *Causal delivery*: if `send(m1) → send(m2)` (happens-before on
//!   message events), every group member delivers `m1` before `m2`.
//! - *Total order*: all members deliver the same sequence (abcast).
//! - *Atomicity (non-durable)*: messages are buffered until stable so a
//!   receiver can fetch missing causal predecessors from any later
//!   sender; delivery is all-or-nothing at surviving members, but — as
//!   the paper stresses — *not durable* across sender failure.
//! - *Ordered failure notification*: view changes are delivered in order
//!   with respect to message traffic (virtual synchrony).

pub mod abcast;
pub mod causal_core;
pub mod causal_graph;
pub mod cbcast;
pub mod domain;
pub mod endpoint;
pub mod failure;
pub mod fbcast;
pub mod group;
pub mod harness;
pub mod holdback;
pub mod ledger;
pub mod membership;
pub mod pccast;
pub mod safety;
pub mod stability;
pub mod token;
pub mod vsync;
pub mod waitgraph;
pub mod wire;

pub use cbcast::CbcastEndpoint;
pub use endpoint::{Discipline, Endpoint};
pub use group::{GroupConfig, MsgId, View, ViewId};
pub use wire::{Delivery, EndpointStats, Wire};
