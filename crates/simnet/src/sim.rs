//! The simulator: event loop, fault injection, and run control.

use crate::event::{EventKind, EventQueue};
use crate::metrics::{Histogram, Metrics};
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
}

impl SimBuilder {
    /// Starts a builder with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        SimBuilder {
            seed,
            net: NetConfig::default(),
            trace: false,
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
            tally: NetTally::default(),
            stop: false,
            outgoing: Vec::new(),
            recipients: Vec::new(),
            timers: Vec::new(),
            arrivals: Vec::new(),
        }
    }
}

/// A single-threaded, deterministic discrete-event simulation.
pub struct Sim<M> {
    procs: Vec<Box<dyn AnyProcess<M>>>,
    alive: Vec<bool>,
    queue: EventQueue<EventKind<M>>,
    now: SimTime,
    cfg: NetConfig,
    net: NetState,
    rng: SmallRng,
    trace: Trace,
    metrics: Metrics,
    tally: NetTally,
    stop: bool,
    /// The send and timer buffers lent to each callback's [`Ctx`], kept
    /// between callbacks for their capacity (empty in between).
    outgoing: Vec<Outgoing<M>>,
    recipients: Vec<ProcessId>,
    timers: Vec<TimerReq>,
    /// Scratch for the arrivals of the message being put on the wire.
    arrivals: Vec<(SimTime, ProcessId)>,
}

/// Recipient of the events that happen to the network, not to a process.
const NETWORK: ProcessId = ProcessId(usize::MAX);

/// The simulator's own traffic figures. They move once or more per copy
/// sent, so they are plain fields here and reach [`Metrics`], under their
/// `net.*` names, only at the end of [`Sim::run_until`]: the point where
/// someone can look.
#[derive(Default)]
struct NetTally {
    sent: u64,
    dropped: u64,
    delivered: u64,
    dropped_dead: u64,
    duplicated: u64,
    latency: Histogram,
}

impl NetTally {
    /// Moves what has accumulated into `metrics`. A figure still at zero
    /// is left out: a run without traffic must not grow `net.*` rows.
    fn fold_into(&mut self, metrics: &mut Metrics) {
        for (name, n) in [
            ("net.sent", &mut self.sent),
            ("net.dropped", &mut self.dropped),
            ("net.delivered", &mut self.delivered),
            ("net.dropped_dead", &mut self.dropped_dead),
            ("net.duplicated", &mut self.duplicated),
        ] {
            if *n > 0 {
                metrics.incr(name, std::mem::take(n));
            }
        }
        if self.latency.count() > 0 {
            metrics.merge_histogram("net.latency", &std::mem::take(&mut self.latency));
        }
    }
}

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
        self.queue.push(self.now, id, EventKind::Start);
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

    /// Schedules a crash of `p` at absolute time `at`. Here and in the
    /// other `*_at` schedulers a time already past means now: the event
    /// fires after what is already due, at the clock's time.
    pub fn crash_at(&mut self, p: ProcessId, at: SimTime) {
        self.queue.push(at, p, EventKind::Crash);
    }

    /// Schedules a recovery of `p` at absolute time `at`.
    pub fn recover_at(&mut self, p: ProcessId, at: SimTime) {
        self.queue.push(at, p, EventKind::Recover);
    }

    /// Schedules a bidirectional partition between `a` and `b` at `at`.
    pub fn partition_at(&mut self, a: &[ProcessId], b: &[ProcessId], at: SimTime) {
        self.queue.push(
            at,
            NETWORK,
            EventKind::PartitionStart {
                a: a.to_vec(),
                b: b.to_vec(),
            },
        );
    }

    /// Schedules healing of all partitions at `at`.
    pub fn heal_at(&mut self, at: SimTime) {
        self.queue.push(at, NETWORK, EventKind::PartitionHeal);
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
            NETWORK,
            EventKind::NetDegrade {
                extra_drop,
                dup_probability,
                delay_factor,
            },
        );
    }

    /// Schedules the end of any degradation episode at `at`.
    pub fn restore_at(&mut self, at: SimTime) {
        self.queue.push(at, NETWORK, EventKind::NetRestore);
    }

    /// Runs until the queue is empty or simulated time reaches `deadline`.
    ///
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut processed = 0;
        while let Some((t, to, kind)) = self.queue.peek() {
            if t > deadline || self.stop {
                break;
            }
            // A copy for a dead process — or for one that does not exist
            // (a protocol bug surfaced as a drop, not a panic, so fault
            // campaigns keep running) — is retired without being made.
            let is_copy = matches!(kind, EventKind::Deliver { .. });
            let dead_letter = is_copy && !self.is_alive(to);
            // An event scheduled before a deadline already run to fires
            // now: the clock never steps back.
            self.now = self.now.max(t);
            if dead_letter {
                self.queue.skip();
                self.tally.dropped_dead += 1;
            } else if let Some(ev) = self.queue.pop() {
                self.dispatch(ev.to, ev.body);
            }
            processed += 1;
        }
        if self.now < deadline && !self.stop {
            self.now = deadline;
        }
        self.tally.fold_into(&mut self.metrics);
        processed
    }

    /// [`Sim::run_until`] `deadline`, handing `look` the run at each
    /// multiple of `every` after the clock's time, up to `deadline`. The
    /// look at `at` sees every event before `at` and none at or after it,
    /// however the run is sliced; it gets the simulator by shared
    /// reference, so looking cannot perturb the run. Once a process has
    /// stopped the run there is nothing more to look at.
    ///
    /// Returns the number of events processed.
    pub fn run_until_each(
        &mut self,
        deadline: SimTime,
        every: SimDuration,
        mut look: impl FnMut(SimTime, &Self),
    ) -> u64 {
        let step = every.as_micros();
        assert!(step > 0, "a look every 0 µs never ends");
        let mut at = SimTime::from_micros((self.now.as_micros() / step + 1) * step);
        let mut processed = 0;
        while at <= deadline {
            processed += self.run_until(at - SimDuration::from_micros(1));
            if self.stop {
                break;
            }
            look(at, self);
            at += every;
        }
        processed + self.run_until(deadline)
    }

    /// `kind` happens to `to`, now. A `Deliver` gets here only if `to`
    /// is up ([`Sim::run_until`] retires the others unopened).
    fn dispatch(&mut self, to: ProcessId, kind: EventKind<M>) {
        match kind {
            EventKind::Start => {
                if self.alive[to.0] {
                    self.invoke(to, Stimulus::Start);
                }
            }
            EventKind::Deliver { from, msg, sent_at } => {
                self.tally.delivered += 1;
                self.tally
                    .latency
                    .record(self.now.saturating_since(sent_at));
                let at = self.now;
                self.trace.record_with(|| TraceEvent::Deliver {
                    at,
                    from,
                    to,
                    label: truncate(format!("{msg:?}"), 60),
                });
                self.invoke(to, Stimulus::Message { from, msg });
            }
            EventKind::Timer(timer) => {
                if self.alive[to.0] {
                    self.invoke(to, Stimulus::Timer(timer));
                }
            }
            EventKind::Crash => {
                // Fault boundary: a plan may target a process that was
                // never added — record and ignore rather than panic.
                if self.is_alive(to) {
                    self.alive[to.0] = false;
                    self.metrics.incr("faults.crash", 1);
                    self.trace.record(TraceEvent::Fault {
                        at: self.now,
                        proc: to,
                        crashed: true,
                    });
                }
            }
            EventKind::Recover => {
                if self.alive.get(to.0) == Some(&false) {
                    self.alive[to.0] = true;
                    self.metrics.incr("faults.recover", 1);
                    self.trace.record(TraceEvent::Fault {
                        at: self.now,
                        proc: to,
                        crashed: false,
                    });
                    self.invoke(to, Stimulus::Recover);
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
            tally,
            stop,
            outgoing,
            recipients,
            timers,
            arrivals,
            ..
        } = self;
        let n_processes = procs.len();
        let mut ctx = Ctx {
            me: proc,
            now: *now,
            rng,
            outgoing: std::mem::take(outgoing),
            recipients: std::mem::take(recipients),
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
        let mut addressed = std::mem::take(&mut ctx.recipients);
        let mut armed = std::mem::take(&mut ctx.timers);
        drop(ctx);
        for t in armed.drain(..) {
            queue.push(*now + t.after, proc, EventKind::Timer(t.id));
        }
        *timers = armed;
        let factor = net.delay_factor();
        let scale = |d: SimDuration| {
            if factor == 1.0 {
                d
            } else {
                SimDuration::from_micros((d.as_micros() as f64 * factor).round() as u64)
            }
        };
        // During a degradation episode, burst loss stacks on top of the
        // configured drop probability. The `> 0.0` guard below keeps the
        // RNG draw sequence identical to the undegraded simulator when no
        // episode is active, so existing seeds replay byte-for-byte.
        let drop_p = (cfg.drop_probability + net.extra_drop()).clamp(0.0, 1.0);
        let mut rest = addressed.as_slice();
        for o in sent.drain(..) {
            let (group, tail) = rest.split_at(o.fanout);
            rest = tail;
            let label = if trace.is_enabled() {
                truncate(format!("{:?}", o.msg), 60)
            } else {
                String::new()
            };
            // Each recipient's copy meets the network on its own, in
            // recipient order; the RNG draws are those of as many
            // separate sends.
            for &to in group {
                tally.sent += 1;
                let unreachable = !net.reachable(proc, to);
                let dropped = unreachable || (drop_p > 0.0 && rng.gen_bool(drop_p));
                if dropped {
                    tally.dropped += 1;
                    trace.record_with(|| TraceEvent::Drop {
                        at: *now,
                        from: proc,
                        to,
                        label: label.clone(),
                    });
                    continue;
                }
                trace.record_with(|| TraceEvent::Send {
                    at: *now,
                    from: proc,
                    to,
                    label: label.clone(),
                });
                // Duplication samples the RNG only while an episode sets
                // dup_probability > 0, again preserving replay of old
                // seeds.
                let dup_p = net.dup_probability();
                let duplicated = dup_p > 0.0 && rng.gen_bool(dup_p);
                let delay = scale(cfg.latency.sample(rng, &cfg.topology, proc, to));
                let at = net.arrival_time(cfg, proc, to, *now, delay);
                if duplicated {
                    tally.duplicated += 1;
                    let delay2 = scale(cfg.latency.sample(rng, &cfg.topology, proc, to));
                    arrivals.push((net.arrival_time(cfg, proc, to, *now, delay2), to));
                }
                arrivals.push((at, to));
            }
            // One body however many copies survived; none if none did.
            let body = EventKind::Deliver {
                from: proc,
                msg: o.msg,
                sent_at: *now,
            };
            queue.push_shared(body, arrivals);
            arrivals.clear();
        }
        *outgoing = sent;
        addressed.clear();
        *recipients = addressed;
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

    /// Behind the last event run, or only behind a deadline already run
    /// to: either way the fault takes effect at the clock's time, after
    /// what was already due then, and the clock does not step back.
    #[test]
    fn a_fault_scheduled_in_the_past_fires_now_and_time_does_not_regress() {
        let ms = SimTime::from_millis;
        let fault_times = |sim: &Sim<Msg>| -> Vec<SimTime> {
            let faults = sim.trace().events().iter();
            faults
                .filter(|e| matches!(e, TraceEvent::Fault { .. } | TraceEvent::NetFault { .. }))
                .map(TraceEvent::at)
                .collect()
        };
        let mut sim = SimBuilder::new(1)
            .net(NetConfig::ideal(SimDuration::from_millis(1)))
            .trace()
            .build::<Msg>();
        sim.add_process(Pinger::default());
        sim.add_process(Pinger::default());
        // The pings land at 1 ms; their pongs are due at 2 ms.
        sim.run_until(ms(1));
        sim.crash_at(ProcessId(0), SimTime::from_micros(500));
        sim.partition_at(&[ProcessId(0)], &[ProcessId(1)], SimTime::ZERO);
        sim.run_until(ms(2));
        assert_eq!(fault_times(&sim), [ms(1), ms(1)]);
        assert_eq!(sim.metrics().counter("net.dropped_dead"), 5);
        // Nothing is left to run: the clock goes to the deadline, and a
        // recovery dated before it happens there.
        sim.run_until(ms(10));
        sim.recover_at(ProcessId(0), ms(5));
        sim.heal_at(ms(3));
        sim.run_until(ms(10));
        assert_eq!(fault_times(&sim), [ms(1), ms(1), ms(10), ms(10)]);
        assert_eq!(sim.now(), ms(10));
        assert!(sim.is_alive(ProcessId(0)));
    }

    /// The look at `at` sees the run just before `at`: the 100 ms timer
    /// has not fired in the look at 100 ms, nor the 200 ms one in the
    /// look at the deadline, though the run returned has run both. A
    /// second call looks from the clock's time on.
    #[test]
    fn a_look_sees_every_event_before_its_instant_and_none_at_it() {
        struct Depth {
            d: usize,
        }
        impl Process<Msg> for Depth {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.set_timer(TimerId(0), SimDuration::from_millis(100));
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, t: TimerId) {
                self.d += 10;
                ctx.set_timer(t, SimDuration::from_millis(100));
            }
        }
        let run = || {
            let mut sim = SimBuilder::new(1).build::<Msg>();
            sim.add_process(Depth { d: 1 });
            sim.add_process(Depth { d: 3 });
            sim
        };
        let depth = |sim: &Sim<Msg>| -> usize {
            let d = |p| sim.process::<Depth>(ProcessId(p)).unwrap().d;
            d(0) + d(1)
        };
        let mut sim = run();
        let mut seen = Vec::new();
        let every = SimDuration::from_millis(50);
        let events = sim.run_until_each(SimTime::from_millis(200), every, |at, sim| {
            seen.push((at.as_millis(), depth(sim)));
        });
        assert_eq!(seen, [(50, 4), (100, 4), (150, 24), (200, 24)]);
        assert_eq!(depth(&sim), 44);
        assert_eq!(sim.now(), SimTime::from_millis(200));
        let mut uncut = run();
        assert_eq!(events, uncut.run_until(SimTime::from_millis(200)));

        sim.run_until(SimTime::from_millis(220));
        seen.clear();
        sim.run_until_each(SimTime::from_millis(320), every, |at, sim| {
            seen.push((at.as_millis(), depth(sim)));
        });
        assert_eq!(seen, [(250, 44), (300, 44)]);
        assert_eq!(depth(&sim), 64);
    }

    /// Every process pings all the others each 5 ms, `rounds` times, and
    /// answers each ping; the fan-out goes through [`Ctx::multicast`] or
    /// through one [`Ctx::send`] of a clone per recipient.
    struct Fan {
        via_multicast: bool,
        rounds: u32,
    }

    impl Process<Msg> for Fan {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.set_timer(TimerId(0), SimDuration::from_millis(5));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, t: TimerId) {
            if self.rounds == 0 {
                return;
            }
            self.rounds -= 1;
            let me = ctx.me();
            let peers = (0..ctx.n_processes())
                .map(ProcessId)
                .filter(move |&p| p != me);
            let msg = Msg::Ping(self.rounds);
            if self.via_multicast {
                ctx.multicast(peers, msg);
            } else {
                for p in peers {
                    ctx.send(p, msg.clone());
                }
            }
            ctx.set_timer(t, SimDuration::from_millis(5));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ProcessId, msg: Msg) {
            if let Msg::Ping(i) = msg {
                ctx.send(from, Msg::Pong(i));
            }
        }
    }

    #[test]
    fn multicast_is_indistinguishable_from_a_send_per_recipient() {
        let run = |via_multicast: bool| {
            let mut sim = SimBuilder::new(9)
                .net(NetConfig::lossy_lan(0.1))
                .trace()
                .build::<Msg>();
            for _ in 0..5 {
                sim.add_process(Fan {
                    via_multicast,
                    rounds: 40,
                });
            }
            // Loss throughout; duplication and stretched delays for a
            // while; one recipient down for part of the run, so copies
            // already in flight reach a dead process.
            sim.degrade_at(SimTime::from_millis(40), 0.05, 0.4, 1.5);
            sim.restore_at(SimTime::from_millis(120));
            sim.crash_at(ProcessId(3), SimTime::from_micros(71_300));
            sim.recover_at(ProcessId(3), SimTime::from_millis(150));
            sim.run_until(SimTime::from_secs(1));
            let m = sim.metrics();
            let latency = m.histogram("net.latency").expect("something arrived");
            let figures = [
                m.counter("net.sent"),
                m.counter("net.dropped"),
                m.counter("net.delivered"),
                m.counter("net.dropped_dead"),
                m.counter("net.duplicated"),
                latency.count(),
                latency.sum_micros() as u64,
            ];
            (sim.trace().digest(), figures)
        };
        let (digest, figures) = run(true);
        assert_eq!((digest, figures), run(false));
        // The episode did what the test is about.
        assert!(figures.iter().all(|&f| f > 0), "{figures:?}");
    }

    /// A message that counts how often it has been cloned.
    #[derive(Debug)]
    struct Counted(std::rc::Rc<std::cell::Cell<u32>>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.0.set(self.0.get() + 1);
            Counted(std::rc::Rc::clone(&self.0))
        }
    }

    #[test]
    fn a_body_is_cloned_only_for_copies_that_are_delivered() {
        /// Multicasts one fresh `Counted` to each recipient list, at start.
        struct Sender {
            casts: Vec<Vec<usize>>,
            clones: Vec<std::rc::Rc<std::cell::Cell<u32>>>,
        }
        impl Process<Counted> for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Counted>) {
                for to in &self.casts {
                    let count = std::rc::Rc::new(std::cell::Cell::new(0));
                    self.clones.push(std::rc::Rc::clone(&count));
                    ctx.multicast(to.iter().map(|&p| ProcessId(p)), Counted(count));
                }
            }
        }
        #[derive(Default)]
        struct Sink {
            got: u32,
        }
        impl Process<Counted> for Sink {
            fn on_message(&mut self, _ctx: &mut Ctx<'_, Counted>, _f: ProcessId, _m: Counted) {
                self.got += 1;
            }
        }
        let mut sim = SimBuilder::new(1)
            .net(NetConfig::ideal(SimDuration::from_millis(1)))
            .build::<Counted>();
        // P4 is cut off from the sender before anything is sent and P3 is
        // dead before anything arrives; P1, P2 and P5 get their copies,
        // all at the same instant, in recipient order.
        sim.partition_at(&[ProcessId(0)], &[ProcessId(4)], SimTime::ZERO);
        let sender = sim.add_process(Sender {
            casts: vec![
                vec![1, 2, 5],
                vec![1, 3, 2],
                vec![3],
                vec![4],
                vec![3, 4],
                vec![],
                vec![1, 3],
            ],
            clones: Vec::new(),
        });
        for _ in 1..=5 {
            sim.add_process(Sink::default());
        }
        sim.crash_at(ProcessId(3), SimTime::ZERO);
        sim.run_until(SimTime::from_secs(1));
        let clones: Vec<u32> = sim
            .process::<Sender>(sender)
            .unwrap()
            .clones
            .iter()
            .map(|c| c.get())
            .collect();
        // Live arrivals less the one that takes the body; nothing at all
        // for a body no live process was handed. Only when the arrival
        // that would have taken the body turns out to be a dead letter
        // (the last cast) does every live arrival cost a clone.
        assert_eq!(clones, vec![2, 1, 0, 0, 0, 0, 1]);
        let got = |p| sim.process::<Sink>(ProcessId(p)).unwrap().got;
        assert_eq!([got(1), got(2), got(3), got(4), got(5)], [3, 2, 0, 0, 1]);
        assert_eq!(sim.metrics().counter("net.sent"), 12);
        assert_eq!(sim.metrics().counter("net.dropped"), 2);
        assert_eq!(sim.metrics().counter("net.dropped_dead"), 4);
        assert_eq!(sim.metrics().counter("net.delivered"), 6);
    }

    #[test]
    fn a_run_without_traffic_reports_no_net_figures() {
        struct Idle;
        impl Process<Msg> for Idle {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
                ctx.set_timer(TimerId(0), SimDuration::from_millis(10));
            }
        }
        let mut sim = SimBuilder::new(1).build::<Msg>();
        sim.add_process(Idle);
        let every = SimDuration::from_millis(5);
        sim.run_until_each(SimTime::from_millis(50), every, |_, _| {});
        // Report tables iterate these maps: a zero row is still a row,
        // and each slice of the run folds the figures once more.
        let net: Vec<&str> = sim
            .metrics()
            .counters()
            .map(|(name, _)| name)
            .filter(|name| name.starts_with("net."))
            .collect();
        assert!(net.is_empty(), "{net:?}");
        assert!(sim.metrics().histogram("net.latency").is_none());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// A second of lossy pinging, run to each cut in turn and then to
        /// the end: the trace digest, the event count and the `net.*`
        /// figures.
        fn run(seed: u64, cuts: &[u64]) -> (u64, u64, Vec<(String, u64)>) {
            let mut sim = SimBuilder::new(seed)
                .net(NetConfig::lossy_lan(0.1))
                .trace()
                .build::<Msg>();
            for _ in 0..3 {
                sim.add_process(Fan {
                    via_multicast: true,
                    rounds: 200,
                });
            }
            let mut events = 0;
            for &cut in cuts {
                events += sim.run_until(SimTime::from_micros(cut));
            }
            events += sim.run_until(SimTime::from_secs(1));
            let m = sim.metrics();
            let mut net: Vec<(String, u64)> = m
                .counters()
                .filter(|(name, _)| name.starts_with("net."))
                .map(|(name, n)| (name.to_string(), n))
                .collect();
            let latency = m.histogram("net.latency").expect("something arrived");
            net.push(("net.latency.count".into(), latency.count()));
            net.push(("net.latency.sum".into(), latency.sum_micros() as u64));
            (sim.trace().digest(), events, net)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            /// Where a run stops and resumes is invisible to it: the
            /// contract every look between slices rests on.
            #[test]
            fn a_run_cut_anywhere_is_the_run_uncut(
                seed in 0u64..1_000,
                mut cuts in collection::vec(0u64..1_000_000, 0..12),
            ) {
                cuts.sort_unstable();
                prop_assert_eq!(run(seed, &cuts), run(seed, &[]));
            }
        }
    }
}
