//! The `Process` trait and the context handed to process callbacks.
//!
//! A process is a deterministic state machine driven by three stimuli:
//! start, message arrival, and timer expiry. All interaction with the
//! world — sending, setting timers, reading the clock, sampling
//! randomness, recording trace marks and metrics — goes through [`Ctx`],
//! which the simulator constructs per callback. This keeps processes pure
//! with respect to the simulation, which is what makes runs replayable.

use crate::metrics::Metrics;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceEvent};
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a process within a simulation (dense, starting at 0).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// The dense index of the process.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifies a timer registration, scoped to the owning process.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TimerId(pub u64);

impl fmt::Debug for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// An outgoing message queued by a process during a callback. It goes
/// to the next `fanout` entries of [`Ctx::recipients`], counting on from
/// where the message queued before it stopped.
#[derive(Debug)]
pub(crate) struct Outgoing<M> {
    pub msg: M,
    pub fanout: usize,
}

/// A timer request queued by a process during a callback.
#[derive(Debug)]
pub(crate) struct TimerReq {
    pub id: TimerId,
    pub after: SimDuration,
}

/// The per-callback context: the process's window onto the simulation.
pub struct Ctx<'a, M> {
    pub(crate) me: ProcessId,
    pub(crate) now: SimTime,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) outgoing: Vec<Outgoing<M>>,
    pub(crate) recipients: Vec<ProcessId>,
    pub(crate) timers: Vec<TimerReq>,
    pub(crate) trace: &'a mut Trace,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) n_processes: usize,
    pub(crate) stop_requested: &'a mut bool,
}

impl<'a, M> Ctx<'a, M> {
    /// The identity of the process being called.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of processes in the simulation.
    pub fn n_processes(&self) -> usize {
        self.n_processes
    }

    /// The simulation's deterministic RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Sends `msg` to `to` over the simulated network.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.queue([to], msg);
    }

    /// Sends `msg` to every process in `to`, in that order: the network
    /// decides each copy's fate (loss, duplication, latency) exactly as
    /// it would for a [`Ctx::send`] per recipient, but `msg` is moved in
    /// once and copied only for the recipients it actually reaches.
    pub fn multicast(&mut self, to: impl IntoIterator<Item = ProcessId>, msg: M) {
        self.queue(to, msg);
    }

    fn queue(&mut self, to: impl IntoIterator<Item = ProcessId>, msg: M) {
        let before = self.recipients.len();
        self.recipients.extend(to);
        self.outgoing.push(Outgoing {
            msg,
            fanout: self.recipients.len() - before,
        });
    }

    /// Arms timer `id` to fire `after` from now. Timers are one-shot; a
    /// process re-arms in `on_timer` for periodic behaviour.
    pub fn set_timer(&mut self, id: TimerId, after: SimDuration) {
        self.timers.push(TimerReq { id, after });
    }

    /// Records an application-level mark in the trace (renders as an
    /// annotation row in the ASCII event diagram).
    pub fn mark(&mut self, label: impl Into<String>) {
        let ev = TraceEvent::Mark {
            at: self.now,
            proc: self.me,
            label: label.into(),
        };
        self.trace.record(ev);
    }

    /// The run's metrics sink.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// Asks the simulator to stop after this callback completes.
    pub fn stop(&mut self) {
        *self.stop_requested = true;
    }
}

/// A deterministic protocol/application state machine.
///
/// All methods have no-op defaults so simple processes implement only what
/// they need.
pub trait Process<M> {
    /// Called once when the simulation starts (or the process is added).
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message arrives from the network.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ProcessId, msg: M) {
        let _ = (ctx, from, msg);
    }

    /// Called when a previously-armed timer fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, timer: TimerId) {
        let _ = (ctx, timer);
    }

    /// Called when the process recovers from a crash.
    fn on_recover(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }

    /// Telemetry hook: report instantaneous gauges (queue depths,
    /// holdback sizes, buffered bytes, …) by name. The simulator never
    /// calls it; an observer does, between slices of a run (see
    /// [`Sim::run_until_each`](crate::sim::Sim::run_until_each)) — the
    /// `experiments bench` group runs keep each gauge's peak this way.
    /// Read-only: it takes `&self` and no [`Ctx`], so asking cannot
    /// perturb the run.
    fn sample(&self, emit: &mut dyn FnMut(&str, f64)) {
        let _ = emit;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_display() {
        assert_eq!(ProcessId(3).to_string(), "P3");
        assert_eq!(format!("{:?}", ProcessId(3)), "P3");
        assert_eq!(ProcessId(5).index(), 5);
    }

    #[test]
    fn timer_id_debug() {
        assert_eq!(format!("{:?}", TimerId(9)), "timer#9");
    }
}
