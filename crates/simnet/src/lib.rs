//! # simnet — deterministic discrete-event network simulator
//!
//! `simnet` is the substrate every other crate in this workspace runs on.
//! It provides:
//!
//! - a discrete-event scheduler with virtual [`time::SimTime`],
//! - a configurable network model ([`net`]): per-link latency
//!   distributions, reordering, loss, crashes and partitions,
//! - a [`process::Process`] trait for protocol state machines,
//! - an event [`trace`] that can render the paper's event diagrams
//!   (Figures 1–4) as ASCII charts and hash a run for determinism tests,
//! - lightweight [`metrics`] (counters and histograms) used by the
//!   experiment harness.
//!
//! Determinism is a hard requirement: the same seed and configuration must
//! produce the same trace, byte for byte, so that every anomaly in the
//! paper is reproducible. All randomness flows from a single seeded RNG and
//! ties in the event queue are broken by insertion sequence number.
//!
//! # Example
//!
//! ```
//! use simnet::{Ctx, Process, ProcessId, SimBuilder, SimTime};
//!
//! #[derive(Clone, Debug)]
//! enum Msg {
//!     Ping,
//!     Pong,
//! }
//!
//! struct Node;
//! impl Process<Msg> for Node {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
//!         if ctx.me().index() == 0 {
//!             ctx.send(ProcessId(1), Msg::Ping);
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ProcessId, msg: Msg) {
//!         if matches!(msg, Msg::Ping) {
//!             ctx.send(from, Msg::Pong);
//!         }
//!     }
//! }
//!
//! let mut sim = SimBuilder::new(42).build::<Msg>();
//! sim.add_process(Node);
//! sim.add_process(Node);
//! sim.run_until(SimTime::from_millis(10));
//! assert!(sim.metrics().counter("net.delivered") >= 2);
//! ```

pub mod event;
pub mod fault;
pub mod json;
pub mod metrics;
pub mod net;
pub mod obs;
pub mod process;
pub mod sim;
pub mod time;
pub mod topology;
pub mod trace;

pub use net::{LatencyModel, NetConfig};
pub use process::{Ctx, Process, ProcessId, TimerId};
pub use sim::{Sim, SimBuilder};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEvent};
