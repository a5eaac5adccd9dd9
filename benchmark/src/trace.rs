//! Benchmark-side spans.
//!
//! The traced run records one span (name, start, duration, parent) per
//! call the benchmark makes into a layer — here, not inside the program:
//! a [`Traced`] wrapper around every simulated node times its
//! `on_start`/`on_message`/`on_timer`, and the workloads wrap their own
//! calls (`run_until`, `check`, endpoint calls made directly). Spans stay
//! in memory; [`Tracer::aggregate`] folds them into per-name rows when
//! the run ends. A layer's self time is its spans' duration minus the
//! part their child spans cover.

use catocs::wire::Wire;
use simnet::process::{Ctx, Process, ProcessId, TimerId};
use simnet::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into the tracer's name table.
    pub name: u16,
    /// Index of the span that was open when this one began.
    pub parent: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// Per-name roll-up of the recorded spans.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Aggregate {
    /// Span name.
    pub name: &'static str,
    /// Name of the enclosing span, if any.
    pub parent: Option<&'static str>,
    /// Spans recorded under this name.
    pub calls: u64,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ duration not covered by child spans.
    pub self_ns: u64,
}

/// In-memory span recorder. Single-threaded, like the simulator.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, every page of it
    /// touched, so recording neither reallocates nor takes first-touch
    /// page faults inside a timed region.
    pub fn with_capacity(capacity: usize) -> Self {
        let blank = Span {
            name: 0,
            parent: NO_PARENT,
            start_ns: 0,
            dur_ns: 0,
        };
        let mut spans = vec![blank; capacity];
        spans.clear();
        Tracer {
            origin: Instant::now(),
            names: Vec::new(),
            spans,
            open: Vec::with_capacity(8),
        }
    }

    /// Interns `name`.
    pub fn name_id(&mut self, name: &'static str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as u16;
        }
        self.names.push(name);
        (self.names.len() - 1) as u16
    }

    /// Opens a span; the innermost open span becomes its parent.
    pub fn enter(&mut self, name: u16) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        self.spans.push(Span {
            name,
            parent,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: u32) {
        let now = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        let s = &mut self.spans[id as usize];
        s.dur_ns = now - s.start_ns;
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Folds the spans into one row per name, in first-seen order.
    pub fn aggregate(&self) -> Vec<Aggregate> {
        aggregate(&self.names, &self.spans)
    }
}

/// The roll-up behind [`Tracer::aggregate`], separate so tests can feed
/// it hand-built spans.
pub fn aggregate(names: &[&'static str], spans: &[Span]) -> Vec<Aggregate> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur_ns;
        }
    }
    let mut rows: Vec<Aggregate> = names
        .iter()
        .map(|&name| Aggregate {
            name,
            parent: None,
            calls: 0,
            total_ns: 0,
            self_ns: 0,
        })
        .collect();
    for (i, s) in spans.iter().enumerate() {
        let row = &mut rows[s.name as usize];
        row.calls += 1;
        row.total_ns += s.dur_ns;
        // A child can outlast its parent only by clock granularity.
        row.self_ns += s.dur_ns.saturating_sub(child_ns[i]);
        if s.parent != NO_PARENT {
            row.parent = Some(names[spans[s.parent as usize].name as usize]);
        }
    }
    rows.retain(|r| r.calls > 0);
    rows
}

/// Shared handle to one tracer.
#[derive(Clone, Debug)]
pub struct TraceHandle(Rc<RefCell<Tracer>>);

impl TraceHandle {
    /// Wraps a fresh tracer.
    pub fn new(capacity: usize) -> Self {
        TraceHandle(Rc::new(RefCell::new(Tracer::with_capacity(capacity))))
    }

    /// Interns `name`.
    pub fn name_id(&self, name: &'static str) -> u16 {
        self.0.borrow_mut().name_id(name)
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: u16, f: impl FnOnce() -> R) -> R {
        let id = self.0.borrow_mut().enter(name);
        let r = f();
        self.0.borrow_mut().exit(id);
        r
    }

    /// Per-name roll-up of everything recorded so far.
    pub fn aggregate(&self) -> Vec<Aggregate> {
        self.0.borrow().aggregate()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.0.borrow().spans.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Wall cost of one empty span, ns — what each recorded span adds to the
/// run it measures.
pub fn span_cost_ns() -> f64 {
    const N: usize = 200_000;
    let t = TraceHandle::new(N);
    let name = t.name_id("calibrate");
    let start = Instant::now();
    for _ in 0..N {
        t.span(name, || std::hint::black_box(()));
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

/// One handler input of a simulated node, as the replay needs it.
#[derive(Clone, Debug)]
pub enum Input {
    /// `on_message` with this wire message.
    Message(SimTime, Wire<u64>),
    /// `on_timer` with this timer.
    Timer(SimTime, TimerId),
}

/// Which `Wire` variant an `on_message` carried.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireKind {
    /// `Wire::Data`.
    Data = 0,
    /// `Wire::AckGossip` and pccast's `PcAck`.
    Ack = 1,
    /// `Wire::Nack`.
    Nack = 2,
    /// Everything else (flush traffic, heartbeats, skips, tokens).
    Other = 3,
}

impl WireKind {
    /// Classifies `w`.
    pub fn of<P>(w: &Wire<P>) -> WireKind {
        match w {
            Wire::Data(_) => WireKind::Data,
            Wire::AckGossip { .. } | Wire::PcAck { .. } => WireKind::Ack,
            Wire::Nack { .. } => WireKind::Nack,
            _ => WireKind::Other,
        }
    }

    /// Every kind, in index order.
    pub const ALL: [WireKind; 4] = [
        WireKind::Data,
        WireKind::Ack,
        WireKind::Nack,
        WireKind::Other,
    ];

    /// The per-layer metric timing `Endpoint::on_wire` on this kind.
    pub fn ns_metric(self) -> &'static str {
        match self {
            WireKind::Data => "endpoint.on_wire.data.ns_per_op",
            WireKind::Ack => "endpoint.on_wire.ack.ns_per_op",
            WireKind::Nack => "endpoint.on_wire.nack.ns_per_op",
            WireKind::Other => "endpoint.on_wire.other.ns_per_op",
        }
    }
}

/// A simulated node with a span around each handler call.
pub struct Traced<T> {
    /// The wrapped node (read after the run).
    pub inner: T,
    trace: TraceHandle,
    on_start: u16,
    on_message: u16,
    on_timer: u16,
    /// Handler inputs, recorded only on the sampled member.
    pub tape: Option<Vec<Input>>,
    /// `on_message` calls by wire kind.
    pub wire_kinds: [u64; 4],
}

impl<T> Traced<T> {
    /// Wraps `inner`; `record` keeps its handler inputs for the replay.
    pub fn new(inner: T, trace: &TraceHandle, record: bool) -> Self {
        Traced {
            inner,
            trace: trace.clone(),
            on_start: trace.name_id("harness.on_start"),
            on_message: trace.name_id("harness.on_message"),
            on_timer: trace.name_id("harness.on_timer"),
            tape: record.then(Vec::new),
            wire_kinds: [0; 4],
        }
    }
}

impl<T: Process<Wire<u64>>> Process<Wire<u64>> for Traced<T> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Wire<u64>>) {
        let inner = &mut self.inner;
        self.trace.span(self.on_start, || inner.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Wire<u64>>, from: ProcessId, msg: Wire<u64>) {
        self.wire_kinds[WireKind::of(&msg) as usize] += 1;
        if let Some(tape) = &mut self.tape {
            tape.push(Input::Message(ctx.now(), msg.clone()));
        }
        let inner = &mut self.inner;
        self.trace
            .span(self.on_message, || inner.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire<u64>>, timer: TimerId) {
        if let Some(tape) = &mut self.tape {
            tape.push(Input::Timer(ctx.now(), timer));
        }
        let inner = &mut self.inner;
        self.trace
            .span(self.on_timer, || inner.on_timer(ctx, timer));
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, Wire<u64>>) {
        self.inner.on_recover(ctx);
    }

    fn sample(&self, emit: &mut dyn FnMut(&str, f64)) {
        self.inner.sample(emit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: u16, parent: u32, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_is_total_minus_children() {
        // run [0,100) holds two handlers [10,30) and [40,70); the second
        // holds an endpoint call [45,60).
        let names = ["run", "handler", "endpoint"];
        let spans = [
            span(0, NO_PARENT, 0, 100),
            span(1, 0, 10, 20),
            span(1, 0, 40, 30),
            span(2, 2, 45, 15),
        ];
        let rows = aggregate(&names, &spans);
        let row = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(row("run").self_ns, 50);
        assert_eq!(row("handler").total_ns, 50);
        assert_eq!(row("handler").self_ns, 35);
        assert_eq!(row("handler").calls, 2);
        assert_eq!(row("handler").parent, Some("run"));
        assert_eq!(row("endpoint").parent, Some("handler"));
        assert_eq!(row("run").parent, None);
        // Self times tile the root: self + children = total, level by level.
        let self_sum: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(self_sum, row("run").total_ns);
    }

    #[test]
    fn recorded_children_never_exceed_their_parent() {
        let t = TraceHandle::new(64);
        let (outer, inner) = (t.name_id("outer"), t.name_id("inner"));
        t.span(outer, || {
            for _ in 0..5 {
                t.span(inner, || std::hint::black_box(3 + 4));
            }
        });
        let rows = t.aggregate();
        let (o, i) = (&rows[0], &rows[1]);
        assert_eq!((o.name, o.calls, i.name, i.calls), ("outer", 1, "inner", 5));
        assert!(i.total_ns <= o.total_ns);
        assert_eq!(o.self_ns + i.total_ns, o.total_ns);
        assert_eq!(i.self_ns, i.total_ns);
        let spans = t.0.borrow();
        for s in spans.spans().iter().filter(|s| s.parent != NO_PARENT) {
            let p = spans.spans()[s.parent as usize];
            assert!(s.start_ns >= p.start_ns);
            assert!(s.start_ns + s.dur_ns <= p.start_ns + p.dur_ns);
        }
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::with_capacity(4);
        let n = t.name_id("x");
        let a = t.enter(n);
        let _b = t.enter(n);
        t.exit(a);
    }
}
