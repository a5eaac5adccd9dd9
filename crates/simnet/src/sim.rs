//! The simulator: event loop, fault injection, and run control.

use crate::event::{EventKind, EventQueue};
use crate::metrics::Metrics;
use crate::net::{NetConfig, NetState};
use crate::process::{Ctx, Outgoing, Process, ProcessId, TimerId, TimerReq};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceEvent};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::fmt::Debug;

/// Builds a [`Sim`] with a seed and network configuration.
///
/// # Example
///
/// ```
/// use simnet::prelude::*;
/// let sim = SimBuilder::new(1)
///     .net(NetConfig::ideal(SimDuration::from_millis(1)))
///     .trace()
///     .build::<()>();
/// assert_eq!(sim.now(), SimTime::ZERO);
/// ```
#[derive(Debug)]
pub struct SimBuilder {
    seed: u64,
    net: NetConfig,
    trace: bool,
    sample_every: Option<SimDuration>,
}

impl SimBuilder {
    /// Starts a builder with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        SimBuilder {
            seed,
            net: NetConfig::default(),
            trace: false,
            sample_every: None,
        }
    }

    /// Sets the network configuration.
    pub fn net(mut self, cfg: NetConfig) -> Self {
        self.net = cfg;
        self
    }

    /// Enables event-trace recording.
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Enables time-series sampling: every `cadence` of virtual time,
    /// every live process's [`Process::sample`] gauges are folded into
    /// `ts.<name>.sum` / `ts.<name>.max` series in the run's metrics
    /// (plus a built-in `ts.sim.queue` series for event-queue depth).
    /// Sampling touches no RNG and schedules no events, so a sampled run
    /// replays byte-identically to an unsampled one.
    pub fn sample_every(mut self, cadence: SimDuration) -> Self {
        assert!(cadence > SimDuration::ZERO, "sampling cadence must be > 0");
        self.sample_every = Some(cadence);
        self
    }

    /// Builds the simulator for message type `M`.
    pub fn build<M: Debug>(self) -> Sim<M> {
        let mut trace = Trace::new();
        if self.trace {
            trace.enable();
        }
        Sim {
            procs: Vec::new(),
            alive: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            cfg: self.net,
            net: NetState::new(),
            rng: SmallRng::seed_from_u64(self.seed),
            trace,
            metrics: Metrics::new(),
            stop: false,
            sample_every: self.sample_every,
            next_sample: self.sample_every.map(|c| SimTime::ZERO + c),
            group_sampler: None,
            outgoing: Vec::new(),
            timers: Vec::new(),
        }
    }
}

/// A single-threaded, deterministic discrete-event simulation.
pub struct Sim<M> {
    procs: Vec<Box<dyn AnyProcess<M>>>,
    alive: Vec<bool>,
    queue: EventQueue<M>,
    now: SimTime,
    cfg: NetConfig,
    net: NetState,
    rng: SmallRng,
    trace: Trace,
    metrics: Metrics,
    stop: bool,
    sample_every: Option<SimDuration>,
    next_sample: Option<SimTime>,
    group_sampler: Option<GroupSampler>,
    /// The send and timer buffers lent to each callback's [`Ctx`], kept
    /// between callbacks for their capacity (empty in between).
    outgoing: Vec<Outgoing<M>>,
    timers: Vec<TimerReq>,
}

/// A whole-group sampling hook, run after the per-process gauge pass on
/// every sampling tick: it sees every process (as `&dyn Any`, with its
/// liveness) at once, so it can compute cross-process aggregates — e.g.
/// the wait-graph stall analysis — that no single process can. Hooks
/// must be read-only with respect to process state (they only get shared
/// references) and must not touch RNG or the event queue, so installing
/// one cannot perturb a run.
pub type GroupSampler = Box<dyn FnMut(SimTime, &[(&dyn Any, bool)], &mut Metrics)>;

/// Object-safe union of `Process<M>` and `Any`, enabling typed access to a
/// process's final state after a run (see [`Sim::process`]).
pub trait AnyProcess<M>: Process<M> + Any {
    /// Upcast helper.
    fn as_any(&self) -> &dyn Any;
    /// Upcast helper (mutable).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<M, T: Process<M> + Any> AnyProcess<M> for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl<M: Debug + Clone + 'static> Sim<M> {
    /// Adds a process; it will receive `on_start` when the clock first
    /// advances (or immediately upon [`Sim::run_until`]).
    pub fn add_process<P: Process<M> + Any>(&mut self, p: P) -> ProcessId {
        let id = ProcessId(self.procs.len());
        self.procs.push(Box::new(p));
        self.alive.push(true);
        self.queue.push(self.now, EventKind::Start { proc: id });
        id
    }

    /// Number of processes added so far.
    pub fn n_processes(&self) -> usize {
        self.procs.len()
    }

    /// The IDs of all processes, in order of addition.
    pub fn all_processes(&self) -> Vec<ProcessId> {
        (0..self.procs.len()).map(ProcessId).collect()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run's metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The run's metrics (mutable, for harness-level annotations).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Typed view of a process's state (e.g. to read results post-run).
    pub fn process<T: 'static>(&self, id: ProcessId) -> Option<&T> {
        self.procs.get(id.0)?.as_any().downcast_ref::<T>()
    }

    /// Typed mutable view of a process's state.
    pub fn process_mut<T: 'static>(&mut self, id: ProcessId) -> Option<&mut T> {
        self.procs.get_mut(id.0)?.as_any_mut().downcast_mut::<T>()
    }

    /// Whether the process is currently up.
    pub fn is_alive(&self, id: ProcessId) -> bool {
        self.alive.get(id.0).copied().unwrap_or(false)
    }

    /// Schedules a crash of `p` at absolute time `at`.
    pub fn crash_at(&mut self, p: ProcessId, at: SimTime) {
        self.queue.push(at, EventKind::Crash { proc: p });
    }

    /// Schedules a recovery of `p` at absolute time `at`.
    pub fn recover_at(&mut self, p: ProcessId, at: SimTime) {
        self.queue.push(at, EventKind::Recover { proc: p });
    }

    /// Schedules a bidirectional partition between `a` and `b` at `at`.
    pub fn partition_at(&mut self, a: &[ProcessId], b: &[ProcessId], at: SimTime) {
        self.queue.push(
            at,
            EventKind::PartitionStart {
                a: a.to_vec(),
                b: b.to_vec(),
            },
        );
    }

    /// Schedules healing of all partitions at `at`.
    pub fn heal_at(&mut self, at: SimTime) {
        self.queue.push(at, EventKind::PartitionHeal);
    }

    /// Schedules a network-degradation episode (burst loss, duplication,
    /// delay inflation) starting at `at`.
    pub fn degrade_at(
        &mut self,
        at: SimTime,
        extra_drop: f64,
        dup_probability: f64,
        delay_factor: f64,
    ) {
        self.queue.push(
            at,
            EventKind::NetDegrade {
                extra_drop,
                dup_probability,
                delay_factor,
            },
        );
    }

    /// Schedules the end of any degradation episode at `at`.
    pub fn restore_at(&mut self, at: SimTime) {
        self.queue.push(at, EventKind::NetRestore);
    }

    /// Runs until the queue is empty or simulated time reaches `deadline`.
    ///
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut processed = 0;
        while let Some(t) = self.queue.peek_time() {
            if t > deadline || self.stop {
                break;
            }
            // Fire any sample points due strictly before the next event.
            self.sample_until(t.min(deadline));
            let Some(ev) = self.queue.pop() else {
                break;
            };
            self.now = ev.at;
            self.dispatch(ev.kind);
            processed += 1;
        }
        if !self.stop {
            self.sample_until(deadline);
        }
        if self.now < deadline && !self.stop {
            self.now = deadline;
        }
        processed
    }

    /// Takes every pending sample at or before `upto`, advancing the
    /// virtual clock to each sample point in turn.
    fn sample_until(&mut self, upto: SimTime) {
        let Some(cadence) = self.sample_every else {
            return;
        };
        while let Some(at) = self.next_sample {
            if at > upto {
                break;
            }
            self.now = self.now.max(at);
            self.take_samples(at);
            self.next_sample = Some(at + cadence);
        }
    }

    /// One sampling pass: fold every live process's gauges into
    /// per-name sum/max series, plus the built-in event-queue depth.
    fn take_samples(&mut self, at: SimTime) {
        use std::collections::BTreeMap;
        let mut agg: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        for (i, p) in self.procs.iter().enumerate() {
            if !self.alive[i] {
                continue;
            }
            p.sample(&mut |name: &str, v: f64| {
                let e = agg.entry(name.to_string()).or_insert((0.0, f64::MIN));
                e.0 += v;
                e.1 = e.1.max(v);
            });
        }
        for (name, (sum, max)) in agg {
            self.metrics.sample(&format!("ts.{name}.sum"), at, sum);
            self.metrics.sample(&format!("ts.{name}.max"), at, max);
        }
        self.metrics
            .sample("ts.sim.queue", at, self.queue.len() as f64);
        // Whole-group hook last, so it can see the same instant the
        // per-process series describe. Taken out and restored to keep
        // the borrows disjoint.
        if let Some(mut hook) = self.group_sampler.take() {
            let views: Vec<(&dyn Any, bool)> = self
                .procs
                .iter()
                .zip(self.alive.iter())
                .map(|(p, &alive)| (p.as_any(), alive))
                .collect();
            hook(at, &views, &mut self.metrics);
            self.group_sampler = Some(hook);
        }
    }

    /// Installs a whole-group sampling hook (see [`GroupSampler`]); it
    /// fires on the [`SimBuilder::sample_every`] cadence after the
    /// per-process gauge pass. Replaces any previous hook.
    pub fn set_group_sampler(&mut self, hook: GroupSampler) {
        self.group_sampler = Some(hook);
    }

    /// Runs until no events remain (or `max` is reached as a safety net).
    pub fn run_to_quiescence(&mut self, max: SimTime) -> u64 {
        self.run_until(max)
    }

    fn dispatch(&mut self, kind: EventKind<M>) {
        match kind {
            EventKind::Start { proc } => {
                if self.alive[proc.0] {
                    self.invoke(proc, Stimulus::Start);
                }
            }
            EventKind::Deliver {
                to,
                from,
                msg,
                sent_at,
            } => {
                if !self.alive.get(to.0).copied().unwrap_or(false) {
                    // Dead — or addressed to a process that does not
                    // exist (a protocol bug surfaced as a drop, not a
                    // panic, so fault campaigns keep running).
                    self.metrics.incr("net.dropped_dead", 1);
                    return;
                }
                self.metrics.incr("net.delivered", 1);
                self.metrics
                    .observe("net.latency", self.now.saturating_since(sent_at));
                let at = self.now;
                self.trace.record_with(|| TraceEvent::Deliver {
                    at,
                    from,
                    to,
                    label: truncate(format!("{msg:?}"), 60),
                });
                self.invoke(to, Stimulus::Message { from, msg });
            }
            EventKind::Timer { proc, timer } => {
                if self.alive[proc.0] {
                    self.invoke(proc, Stimulus::Timer(timer));
                }
            }
            EventKind::Crash { proc } => {
                // Fault boundary: a plan may target a process that was
                // never added — record and ignore rather than panic.
                if self.alive.get(proc.0).copied().unwrap_or(false) {
                    self.alive[proc.0] = false;
                    self.metrics.incr("faults.crash", 1);
                    self.trace.record(TraceEvent::Fault {
                        at: self.now,
                        proc,
                        crashed: true,
                    });
                }
            }
            EventKind::Recover { proc } => {
                if self.alive.get(proc.0) == Some(&false) {
                    self.alive[proc.0] = true;
                    self.metrics.incr("faults.recover", 1);
                    self.trace.record(TraceEvent::Fault {
                        at: self.now,
                        proc,
                        crashed: false,
                    });
                    self.invoke(proc, Stimulus::Recover);
                }
            }
            EventKind::PartitionStart { a, b } => {
                let at = self.now;
                self.trace.record_with(|| {
                    let a: Vec<usize> = a.iter().map(|p| p.0).collect();
                    let b: Vec<usize> = b.iter().map(|p| p.0).collect();
                    TraceEvent::NetFault {
                        at,
                        label: format!("partition {a:?} | {b:?}"),
                    }
                });
                self.net.partition(&a, &b);
                self.metrics.incr("faults.partition", 1);
            }
            EventKind::PartitionHeal => {
                self.net.heal();
                self.metrics.incr("faults.heal", 1);
                self.trace.record(TraceEvent::NetFault {
                    at: self.now,
                    label: "heal".into(),
                });
            }
            EventKind::NetDegrade {
                extra_drop,
                dup_probability,
                delay_factor,
            } => {
                self.net.degrade(extra_drop, dup_probability, delay_factor);
                self.metrics.incr("faults.degrade", 1);
                let at = self.now;
                self.trace.record_with(|| TraceEvent::NetFault {
                    at,
                    label: format!(
                        "degrade drop+{extra_drop:.2} dup={dup_probability:.2} delay x{delay_factor:.1}"
                    ),
                });
            }
            EventKind::NetRestore => {
                self.net.restore();
                self.metrics.incr("faults.restore", 1);
                self.trace.record(TraceEvent::NetFault {
                    at: self.now,
                    label: "restore".into(),
                });
            }
        }
    }

    fn invoke(&mut self, proc: ProcessId, stim: Stimulus<M>) {
        let Sim {
            procs,
            queue,
            now,
            cfg,
            net,
            rng,
            trace,
            metrics,
            stop,
            alive,
            outgoing,
            timers,
            ..
        } = self;
        let n_processes = procs.len();
        let mut ctx = Ctx {
            me: proc,
            now: *now,
            rng,
            outgoing: std::mem::take(outgoing),
            timers: std::mem::take(timers),
            trace,
            metrics,
            n_processes,
            stop_requested: stop,
        };
        let p = &mut procs[proc.0];
        match stim {
            Stimulus::Start => p.on_start(&mut ctx),
            Stimulus::Message { from, msg } => p.on_message(&mut ctx, from, msg),
            Stimulus::Timer(t) => p.on_timer(&mut ctx, t),
            Stimulus::Recover => p.on_recover(&mut ctx),
        }
        let mut sent = std::mem::take(&mut ctx.outgoing);
        let mut armed = std::mem::take(&mut ctx.timers);
        drop(ctx);
        let _ = alive;
        for t in armed.drain(..) {
            queue.push(*now + t.after, EventKind::Timer { proc, timer: t.id });
        }
        *timers = armed;
        for o in sent.drain(..) {
            metrics.incr("net.sent", 1);
            let label = if trace.is_enabled() {
                o.label
                    .clone()
                    .unwrap_or_else(|| truncate(format!("{:?}", o.msg), 60))
            } else {
                String::new()
            };
            let unreachable = !net.reachable(proc, o.to);
            // During a degradation episode, burst loss stacks on top of
            // the configured drop probability. The guard keeps the RNG
            // draw sequence identical to the undegraded simulator when no
            // episode is active, so existing seeds replay byte-for-byte.
            let drop_p = (cfg.drop_probability + net.extra_drop()).clamp(0.0, 1.0);
            let dropped = unreachable || (drop_p > 0.0 && rng.gen_bool(drop_p));
            if dropped {
                metrics.incr("net.dropped", 1);
                trace.record(TraceEvent::Drop {
                    at: *now,
                    from: proc,
                    to: o.to,
                    label,
                });
                continue;
            }
            trace.record(TraceEvent::Send {
                at: *now,
                from: proc,
                to: o.to,
                label,
            });
            // Duplication samples the RNG only while an episode sets
            // dup_probability > 0, again preserving replay of old seeds.
            let dup_p = net.dup_probability();
            let duplicated = dup_p > 0.0 && rng.gen_bool(dup_p);
            if duplicated {
                metrics.incr("net.duplicated", 1);
            }
            let factor = net.delay_factor();
            let scale = |d: crate::time::SimDuration| {
                if factor == 1.0 {
                    d
                } else {
                    crate::time::SimDuration::from_micros(
                        (d.as_micros() as f64 * factor).round() as u64
                    )
                }
            };
            let delay = scale(cfg.latency.sample(rng, &cfg.topology, proc, o.to));
            let at = net.arrival_time(cfg, proc, o.to, *now, delay);
            if duplicated {
                let delay2 = scale(cfg.latency.sample(rng, &cfg.topology, proc, o.to));
                let at2 = net.arrival_time(cfg, proc, o.to, *now, delay2);
                queue.push(
                    at2,
                    EventKind::Deliver {
                        to: o.to,
                        from: proc,
                        msg: o.msg.clone(),
                        sent_at: *now,
                    },
                );
            }
            queue.push(
                at,
                EventKind::Deliver {
                    to: o.to,
                    from: proc,
                    msg: o.msg,
                    sent_at: *now,
                },
            );
        }
        *outgoing = sent;
    }
}

enum Stimulus<M> {
    Start,
    Message { from: ProcessId, msg: M },
    Timer(TimerId),
    Recover,
}

fn truncate(mut s: String, max: usize) -> String {
    if s.len() > max {
        let mut cut = max;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        s.truncate(cut);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Clone, Debug)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    #[derive(Default)]
    struct Pinger {
        got: Vec<u32>,
    }

    impl Process<Msg> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            if ctx.me().0 == 0 {
                for i in 0..5 {
                    ctx.send(ProcessId(1), Msg::Ping(i));
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ProcessId, msg: Msg) {
            match msg {
                Msg::Ping(i) => ctx.send(from, Msg::Pong(i)),
                Msg::Pong(i) => self.got.push(i),
            }
        }
    }

    fn build(seed: u64) -> Sim<Msg> {
        let mut sim = SimBuilder::new(seed)
            .net(NetConfig::ideal(SimDuration::from_millis(1)))
            .build::<Msg>();
        sim.add_process(Pinger::default());
        sim.add_process(Pinger::default());
        sim
    }

    #[test]
    fn ping_pong_roundtrip() {
        let mut sim = build(1);
        sim.run_until(SimTime::from_secs(1));
        let p0: &Pinger = sim.process(ProcessId(0)).unwrap();
        assert_eq!(p0.got, vec![0, 1, 2, 3, 4]);
        assert_eq!(sim.metrics().counter("net.sent"), 10);
        assert_eq!(sim.metrics().counter("net.delivered"), 10);
    }

    #[test]
    fn deterministic_replay() {
        let digest = |seed| {
            let mut sim = SimBuilder::new(seed)
                .net(NetConfig::lossy_lan(0.1))
                .trace()
                .build::<Msg>();
            sim.add_process(Pinger::default());
            sim.add_process(Pinger::default());
            sim.run_until(SimTime::from_secs(1));
            sim.trace().digest()
        };
        assert_eq!(digest(42), digest(42));
        assert_ne!(digest(42), digest(43));
    }

    #[test]
    fn crash_stops_delivery() {
        let mut sim = build(1);
        sim.crash_at(ProcessId(1), SimTime::ZERO);
        sim.run_until(SimTime::from_secs(1));
        let p0: &Pinger = sim.process(ProcessId(0)).unwrap();
        assert!(p0.got.is_empty());
        assert_eq!(sim.metrics().counter("net.dropped_dead"), 5);
        assert!(!sim.is_alive(ProcessId(1)));
    }

    #[test]
    fn recover_after_crash() {
        let mut sim = build(1);
        sim.crash_at(ProcessId(1), SimTime::ZERO);
        sim.recover_at(ProcessId(1), SimTime::from_millis(500));
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.is_alive(ProcessId(1)));
        assert_eq!(sim.metrics().counter("faults.recover"), 1);
    }

    #[test]
    fn partition_blocks_messages() {
        let mut sim = SimBuilder::new(1)
            .net(NetConfig::ideal(SimDuration::from_millis(1)))
            .build::<Msg>();
        // Install the partition before the processes start sending.
        sim.partition_at(&[ProcessId(0)], &[ProcessId(1)], SimTime::ZERO);
        sim.add_process(Pinger::default());
        sim.add_process(Pinger::default());
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.metrics().counter("net.dropped"), 5);
        assert_eq!(sim.metrics().counter("net.delivered"), 0);
    }

    #[test]
    fn heal_restores_connectivity() {
        struct Late;
        impl Process<Msg> for Late {
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _t: TimerId) {
                ctx.send(ProcessId(1), Msg::Ping(9));
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.set_timer(TimerId(0), SimDuration::from_millis(200));
            }
        }
        let mut sim = SimBuilder::new(1)
            .net(NetConfig::ideal(SimDuration::from_millis(1)))
            .build::<Msg>();
        sim.add_process(Late);
        sim.add_process(Pinger::default());
        sim.partition_at(&[ProcessId(0)], &[ProcessId(1)], SimTime::ZERO);
        sim.heal_at(SimTime::from_millis(100));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.metrics().counter("net.delivered"), 2); // ping + pong
    }

    #[test]
    fn timers_fire_in_order() {
        struct Timers {
            fired: Vec<u64>,
        }
        impl Process<Msg> for Timers {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.set_timer(TimerId(2), SimDuration::from_millis(20));
                ctx.set_timer(TimerId(1), SimDuration::from_millis(10));
                ctx.set_timer(TimerId(3), SimDuration::from_millis(30));
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, t: TimerId) {
                self.fired.push(t.0);
            }
        }
        let mut sim = SimBuilder::new(1).build::<Msg>();
        let id = sim.add_process(Timers { fired: vec![] });
        sim.run_until(SimTime::from_secs(1));
        let t: &Timers = sim.process(id).unwrap();
        assert_eq!(t.fired, vec![1, 2, 3]);
    }

    #[test]
    fn stop_halts_the_run() {
        struct Stopper;
        impl Process<Msg> for Stopper {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.set_timer(TimerId(0), SimDuration::from_millis(1));
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _t: TimerId) {
                ctx.stop();
                ctx.set_timer(TimerId(0), SimDuration::from_millis(1));
            }
        }
        let mut sim = SimBuilder::new(1).build::<Msg>();
        sim.add_process(Stopper);
        let n = sim.run_until(SimTime::from_secs(10));
        // Start + one timer fire; the re-armed timer never runs.
        assert_eq!(n, 2);
        assert!(sim.now() < SimTime::from_secs(1));
    }

    #[test]
    fn run_until_advances_clock_to_deadline_when_idle() {
        let mut sim = SimBuilder::new(1).build::<Msg>();
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn sampler_records_series_at_cadence() {
        struct Depth {
            d: usize,
        }
        impl Process<Msg> for Depth {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.set_timer(TimerId(0), SimDuration::from_millis(100));
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_, Msg>, _t: TimerId) {
                self.d += 10;
            }
            fn sample(&self, emit: &mut dyn FnMut(&str, f64)) {
                emit("depth", self.d as f64);
            }
        }
        let mut sim = SimBuilder::new(1)
            .sample_every(SimDuration::from_millis(50))
            .build::<Msg>();
        sim.add_process(Depth { d: 1 });
        sim.add_process(Depth { d: 3 });
        sim.run_until(SimTime::from_millis(250));
        // Sample points: 50, 100, 150, 200, 250ms = 5 samples.
        let sum = sim
            .metrics()
            .series_get("ts.depth.sum")
            .expect("sum series");
        let max = sim
            .metrics()
            .series_get("ts.depth.max")
            .expect("max series");
        assert_eq!(sum.len(), 5);
        assert_eq!(max.len(), 5);
        // Before the 100ms timer: 1 + 3; after: 11 + 13.
        let vals: Vec<f64> = sum.iter().map(|(_, v)| v).collect();
        assert_eq!(vals, vec![4.0, 4.0, 24.0, 24.0, 24.0]);
        assert_eq!(max.last().unwrap().1, 13.0);
        assert!(sim.metrics().series_get("ts.sim.queue").is_some());
    }

    #[test]
    fn sampling_does_not_perturb_replay() {
        let digest = |sampled: bool| {
            let mut b = SimBuilder::new(42).net(NetConfig::lossy_lan(0.1)).trace();
            if sampled {
                b = b.sample_every(SimDuration::from_millis(10));
            }
            let mut sim = b.build::<Msg>();
            sim.add_process(Pinger::default());
            sim.add_process(Pinger::default());
            sim.run_until(SimTime::from_secs(1));
            sim.trace().digest()
        };
        assert_eq!(digest(false), digest(true));
    }

    #[test]
    fn multicast_excludes_self_when_asked() {
        struct Caster {
            got: u32,
        }
        impl Process<Msg> for Caster {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                if ctx.me().0 == 0 {
                    let everyone: Vec<ProcessId> = (0..ctx.n_processes()).map(ProcessId).collect();
                    ctx.multicast(&everyone, Msg::Ping(1), false);
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _f: ProcessId, _m: Msg) {
                self.got += 1;
            }
        }
        let mut sim = SimBuilder::new(1).build::<Msg>();
        let a = sim.add_process(Caster { got: 0 });
        let b = sim.add_process(Caster { got: 0 });
        let c = sim.add_process(Caster { got: 0 });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.process::<Caster>(a).unwrap().got, 0);
        assert_eq!(sim.process::<Caster>(b).unwrap().got, 1);
        assert_eq!(sim.process::<Caster>(c).unwrap().got, 1);
    }
}
