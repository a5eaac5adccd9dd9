//! Observability: causal spans, probes, the flight recorder, and
//! Perfetto export.
//!
//! The paper's quantitative story (§5) is about *invisible* protocol
//! internals — how long messages sit in holdback, how far stability
//! lags, what a view change stalls on. This module gives every layer one
//! instrumentation surface for those internals:
//!
//! - a [`SpanId`] names one message's lifecycle across every process
//!   (send → wire → holdback-enter → deliverable → delivered/dropped);
//! - the [`Probe`] trait receives [`ObsEvent`]s from protocol code. The
//!   default implementation is a no-op and [`ProbeHandle::emit`] takes a
//!   closure, so disabled runs never format a label or allocate — the
//!   same zero-cost discipline `Trace::record_with` uses;
//! - the [`FlightRecorder`] is a bounded per-process ring of recent
//!   events. The chaos campaigns dump it automatically on the first
//!   invariant violation, so every pinned seed ships an incident report
//!   (ASCII event diagram + JSON lines);
//! - [`perfetto_json`] converts a [`Trace`] and/or recorder contents to
//!   Chrome trace-event JSON — one track per process, flow events for
//!   message arrows — viewable in `ui.perfetto.dev`.
//!
//! Determinism contract: probes observe, they never mutate protocol
//! state or touch the simulator RNG, so a probed run produces the same
//! digests as an unprobed one.

use crate::json::escape;
use crate::process::ProcessId;
use crate::time::SimTime;
use crate::trace::{Trace, TraceEvent};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::rc::Rc;

/// Identifies one message's lifecycle span: the member that originated
/// it and its sender sequence number. Printed `m<origin>.<seq>`, the
/// notation the holdback/vsync layers already use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId {
    /// Originating member index.
    pub origin: usize,
    /// Sender sequence number.
    pub seq: u64,
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}.{}", self.origin, self.seq)
    }
}

/// A stage in a message span's lifecycle at one process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// The message left the application at its origin.
    Send,
    /// The message arrived off the wire at a receiver.
    Wire,
    /// The message entered the holdback queue (possibly already
    /// deliverable — the note records what it still waits on).
    HoldbackEnter,
    /// Every causal predecessor is in; the message left the holdback
    /// queue for delivery.
    Deliverable,
    /// The message was handed to the application.
    Delivered,
    /// The message was discarded (duplicate, decode error, or beyond a
    /// removed sender's flush cut — the note says which).
    Dropped,
    /// A delta-stamped copy arrived ahead of its decode base and was
    /// parked undecoded.
    Parked,
    /// A constant-metadata copy arrived out of position and entered a
    /// per-link reorder buffer (pccast fast path).
    ReorderEnter,
    /// A skip marker was consumed for this message's position: the
    /// receiver will obtain the copy elsewhere (another link, or the
    /// holdback repair path).
    SkipConsume,
}

impl Stage {
    /// Stable lowercase name, used in dumps and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Send => "send",
            Stage::Wire => "wire",
            Stage::HoldbackEnter => "holdback-enter",
            Stage::Deliverable => "deliverable",
            Stage::Delivered => "delivered",
            Stage::Dropped => "dropped",
            Stage::Parked => "parked",
            Stage::ReorderEnter => "reorder-enter",
            Stage::SkipConsume => "skip-consume",
        }
    }
}

/// A protocol phase a process passes through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseKind {
    /// View-change flush: from delivery freeze to view install.
    Flush,
    /// A view install (point event carrying the members and cut).
    Install,
    /// Total-order token rotation (token-passing abcast).
    TokenRotation,
    /// Sequencer order assignment (fixed-sequencer abcast).
    OrderAssign,
    /// A stability round: ack gossip sent / stable frontier advanced.
    StabilityRound,
    /// A pccast link acknowledgement: the cumulative per-link cursor a
    /// receiver reported, letting the sender GC its link log.
    LinkAck,
}

impl PhaseKind {
    /// Stable lowercase name, used in dumps and JSON.
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::Flush => "flush",
            PhaseKind::Install => "install",
            PhaseKind::TokenRotation => "token-rotation",
            PhaseKind::OrderAssign => "order-assign",
            PhaseKind::StabilityRound => "stability-round",
            PhaseKind::LinkAck => "link-ack",
        }
    }
}

/// Whether a phase event opens, closes, or is a point occurrence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseEdge {
    /// The phase started.
    Begin,
    /// The phase ended.
    End,
    /// A point occurrence (no duration).
    Point,
}

/// Why a message waited before delivery — the latency-ledger cause
/// taxonomy. Each delivered message's send→deliver interval decomposes
/// into wire transit plus zero or more of these waits; the ledger
/// (`catocs::ledger`, downstream) tiles them into an exact latency
/// attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WaitKind {
    /// Held in the holdback queue for a causal predecessor from another
    /// sender.
    CausalDep,
    /// Held for an earlier message from the *same* sender (FIFO gap).
    FifoGap,
    /// Held while a NACK-requested retransmission was in flight (the
    /// missing predecessor had been chased).
    NackRepair,
    /// Held in a pccast per-link reorder buffer behind the link cursor.
    LinkReorder,
    /// Causally delivered but held for the abcast total-order watermark
    /// (its gseq slot, or an earlier one, was not yet released).
    OrderWatermark,
    /// Held at a receiver for the token-stamped global sequence to become
    /// contiguous (an earlier gseq's data had not arrived).
    TokenRotation,
    /// Held at the *origin* in the submit queue until the token arrived
    /// (pre-send wait; applies to every receiver of the message).
    TokenHold,
    /// Held by a view-change flush: delivery frozen between the freeze
    /// and the view install.
    FlushBarrier,
}

impl WaitKind {
    /// Stable lowercase name, used in dumps and JSON.
    pub fn name(self) -> &'static str {
        match self {
            WaitKind::CausalDep => "causal-dep",
            WaitKind::FifoGap => "fifo-gap",
            WaitKind::NackRepair => "nack-repair",
            WaitKind::LinkReorder => "link-reorder",
            WaitKind::OrderWatermark => "order-watermark",
            WaitKind::TokenRotation => "token-rotation",
            WaitKind::TokenHold => "token-hold",
            WaitKind::FlushBarrier => "flush-barrier",
        }
    }
}

/// One observability event.
#[derive(Clone, Debug, PartialEq)]
pub enum ObsEvent {
    /// A message-lifecycle stage at one process.
    Span {
        /// When.
        at: SimTime,
        /// Observing process (member index).
        who: usize,
        /// Which message.
        span: SpanId,
        /// Lifecycle stage.
        stage: Stage,
        /// Free-form detail (what it waits on, why it was dropped, ...).
        note: String,
    },
    /// A protocol-phase edge at one process.
    Phase {
        /// When.
        at: SimTime,
        /// Observing process (member index).
        who: usize,
        /// Which phase.
        kind: PhaseKind,
        /// Begin / end / point.
        edge: PhaseEdge,
        /// Free-form detail.
        note: String,
    },
    /// An attributed wait interval `[since, at)` a message spent blocked
    /// at one process, emitted when the wait *ends*. The latency ledger
    /// tiles these into per-message phase decompositions.
    Wait {
        /// When the wait ended.
        at: SimTime,
        /// Observing process (member index).
        who: usize,
        /// Which message waited.
        span: SpanId,
        /// Why it waited.
        kind: WaitKind,
        /// When the wait began.
        since: SimTime,
        /// The message whose delivery (or arrival) ended the wait, when
        /// one can be named.
        blocker: Option<SpanId>,
        /// Free-form detail.
        note: String,
    },
}

impl ObsEvent {
    /// The instant the event occurred.
    pub fn at(&self) -> SimTime {
        match self {
            ObsEvent::Span { at, .. } | ObsEvent::Phase { at, .. } | ObsEvent::Wait { at, .. } => {
                *at
            }
        }
    }

    /// The observing process.
    pub fn who(&self) -> usize {
        match self {
            ObsEvent::Span { who, .. }
            | ObsEvent::Phase { who, .. }
            | ObsEvent::Wait { who, .. } => *who,
        }
    }

    /// One line of JSON (hand-rolled; the offline serde stand-in has no
    /// serializer). Parses back with [`crate::json::JsonValue`].
    pub fn to_json(&self) -> String {
        match self {
            ObsEvent::Span {
                at,
                who,
                span,
                stage,
                note,
            } => format!(
                "{{\"kind\":\"span\",\"at\":{},\"who\":{},\"span\":\"{}\",\"origin\":{},\"seq\":{},\"stage\":\"{}\",\"note\":\"{}\"}}",
                at.as_micros(),
                who,
                span,
                span.origin,
                span.seq,
                stage.name(),
                escape(note)
            ),
            ObsEvent::Phase {
                at,
                who,
                kind,
                edge,
                note,
            } => format!(
                "{{\"kind\":\"phase\",\"at\":{},\"who\":{},\"phase\":\"{}\",\"edge\":\"{}\",\"note\":\"{}\"}}",
                at.as_micros(),
                who,
                kind.name(),
                match edge {
                    PhaseEdge::Begin => "begin",
                    PhaseEdge::End => "end",
                    PhaseEdge::Point => "point",
                },
                escape(note)
            ),
            ObsEvent::Wait {
                at,
                who,
                span,
                kind,
                since,
                blocker,
                note,
            } => format!(
                "{{\"kind\":\"wait\",\"at\":{},\"who\":{},\"span\":\"{}\",\"wait\":\"{}\",\"since\":{},\"blocker\":\"{}\",\"note\":\"{}\"}}",
                at.as_micros(),
                who,
                span,
                kind.name(),
                since.as_micros(),
                blocker.map(|b| b.to_string()).unwrap_or_default(),
                escape(note)
            ),
        }
    }

    /// Compact one-line rendering for ASCII dumps (no time/who — the
    /// diagram supplies those).
    pub fn label(&self) -> String {
        match self {
            ObsEvent::Span {
                span, stage, note, ..
            } => {
                if note.is_empty() {
                    format!("{span} {}", stage.name())
                } else {
                    format!("{span} {} ({note})", stage.name())
                }
            }
            ObsEvent::Phase {
                kind, edge, note, ..
            } => {
                let e = match edge {
                    PhaseEdge::Begin => "begin",
                    PhaseEdge::End => "end",
                    PhaseEdge::Point => "",
                };
                let mut s = format!("[{}", kind.name());
                if !e.is_empty() {
                    let _ = write!(s, " {e}");
                }
                s.push(']');
                if !note.is_empty() {
                    let _ = write!(s, " {note}");
                }
                s
            }
            ObsEvent::Wait {
                span,
                kind,
                since,
                at,
                blocker,
                note,
                ..
            } => {
                let mut s = format!(
                    "{span} waited {}us [{}]",
                    at.as_micros().saturating_sub(since.as_micros()),
                    kind.name()
                );
                if let Some(b) = blocker {
                    let _ = write!(s, " on {b}");
                }
                if !note.is_empty() {
                    let _ = write!(s, " ({note})");
                }
                s
            }
        }
    }
}

/// A sink for [`ObsEvent`]s. Every method defaults to a no-op, so a
/// probe-carrying component costs nothing until someone installs a real
/// implementation.
pub trait Probe {
    /// Whether events are being recorded. Emitters gate any expensive
    /// note construction on this (or use [`ProbeHandle::emit`], which
    /// does it for them).
    fn enabled(&self) -> bool {
        false
    }

    /// Records one event.
    fn record(&mut self, ev: ObsEvent) {
        let _ = ev;
    }
}

/// The do-nothing default probe.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {}

/// A cheap, clonable handle protocol components hold. The default
/// handle is empty: [`ProbeHandle::emit`] is then a branch on a `None`
/// and the event-building closure never runs.
#[derive(Clone, Default)]
pub struct ProbeHandle {
    inner: Option<Rc<RefCell<dyn Probe>>>,
}

impl ProbeHandle {
    /// The disabled handle (same as `default()`).
    pub fn none() -> Self {
        ProbeHandle { inner: None }
    }

    /// Wraps an installed probe.
    pub fn new(probe: Rc<RefCell<dyn Probe>>) -> Self {
        ProbeHandle { inner: Some(probe) }
    }

    /// Creates a [`FlightRecorder`] with per-process capacity `cap` and
    /// returns both the handle to install and a typed reference for
    /// reading the rings back after the run.
    pub fn recorder(cap: usize) -> (Self, Rc<RefCell<FlightRecorder>>) {
        let rec = Rc::new(RefCell::new(FlightRecorder::new(cap)));
        (ProbeHandle::new(rec.clone()), rec)
    }

    /// Whether an enabled probe is installed. Gate any preparatory work
    /// (wait-set reconstruction, label formatting) on this.
    pub fn is_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|p| p.borrow().enabled())
    }

    /// Records the event produced by `f`, invoking `f` only when an
    /// enabled probe is installed.
    pub fn emit(&self, f: impl FnOnce() -> ObsEvent) {
        if let Some(p) = &self.inner {
            let mut p = p.borrow_mut();
            if p.enabled() {
                let ev = f();
                p.record(ev);
            }
        }
    }
}

impl fmt::Debug for ProbeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ProbeHandle({})",
            if self.inner.is_some() { "on" } else { "off" }
        )
    }
}

/// A bounded ring buffer of recent [`ObsEvent`]s per process — the
/// flight recorder. When a ring is full the oldest event is evicted, so
/// after a long run each process retains the events leading up to the
/// end (or the violation) — exactly what an incident report needs.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    rings: Vec<VecDeque<ObsEvent>>,
    evicted: Vec<u64>,
}

impl FlightRecorder {
    /// Creates a recorder retaining up to `cap` events per process.
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            cap: cap.max(1),
            rings: Vec::new(),
            evicted: Vec::new(),
        }
    }

    /// Per-process ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of process rings seen so far.
    pub fn processes(&self) -> usize {
        self.rings.len()
    }

    /// The retained events for process `who`, oldest first.
    pub fn events(&self, who: usize) -> &VecDeque<ObsEvent> {
        static EMPTY: VecDeque<ObsEvent> = VecDeque::new();
        self.rings.get(who).unwrap_or(&EMPTY)
    }

    /// How many events process `who`'s ring has evicted.
    pub fn evicted(&self, who: usize) -> u64 {
        self.evicted.get(who).copied().unwrap_or(0)
    }

    /// All retained events merged across processes, ordered by time
    /// (ties broken by process index, then ring order).
    pub fn merged(&self) -> Vec<&ObsEvent> {
        let mut all: Vec<(SimTime, usize, usize, &ObsEvent)> = Vec::new();
        for (who, ring) in self.rings.iter().enumerate() {
            for (i, ev) in ring.iter().enumerate() {
                all.push((ev.at(), who, i, ev));
            }
        }
        all.sort_by_key(|(at, who, i, _)| (*at, *who, *i));
        all.into_iter().map(|(_, _, _, ev)| ev).collect()
    }

    /// JSON lines: every retained event, merged time order.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for ev in self.merged() {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// Renders the retained events as the repo's ASCII event diagram:
    /// one column per process, time advancing downward.
    pub fn render_ascii(&self, names: &[&str]) -> String {
        let n = self.rings.len().max(1);
        let mut t = Trace::new();
        t.enable();
        for ev in self.merged() {
            t.record(TraceEvent::Mark {
                at: ev.at(),
                proc: ProcessId(ev.who()),
                label: ev.label(),
            });
        }
        let mut out = t.render_event_diagram(n, names);
        let dropped: u64 = (0..n).map(|p| self.evicted(p)).sum();
        if dropped > 0 {
            let _ = writeln!(
                out,
                "({dropped} older events evicted from the ring; cap {} per process)",
                self.cap
            );
        }
        out
    }
}

impl Probe for FlightRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ev: ObsEvent) {
        let who = ev.who();
        if who >= self.rings.len() {
            self.rings.resize_with(who + 1, VecDeque::new);
            self.evicted.resize(who + 1, 0);
        }
        let ring = &mut self.rings[who];
        if ring.len() == self.cap {
            ring.pop_front();
            self.evicted[who] += 1;
        }
        ring.push_back(ev);
    }
}

/// Converts a [`Trace`] and/or [`FlightRecorder`] contents to Chrome
/// trace-event JSON (the format `ui.perfetto.dev` and `chrome://tracing`
/// load): one `pid` per process, `tid 0` for network activity from the
/// trace, `tid 1` for message spans, `tid 2` for protocol phases. Flow
/// events (`ph:"s"`/`ph:"f"`) draw the message arrows — trace sends are
/// matched to their deliveries, span sends to each receiver's wire
/// arrival.
pub fn perfetto_json(
    trace: Option<&Trace>,
    rec: Option<&FlightRecorder>,
    n_procs: usize,
    names: &[&str],
) -> String {
    let mut evs: Vec<String> = Vec::new();
    let mut flow_id = 0u64;
    let n = n_procs.max(rec.map_or(0, |r| r.processes())).max(1);
    for p in 0..n {
        let name = names.get(p).copied().unwrap_or("");
        let full = if name.is_empty() {
            format!("P{p}")
        } else {
            format!("P{p}:{name}")
        };
        evs.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{p},\"tid\":0,\"args\":{{\"name\":\"{}\"}}}}",
            escape(&full)
        ));
        for (tid, tname) in [(0, "net"), (1, "spans"), (2, "phases"), (3, "waits")] {
            evs.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{p},\"tid\":{tid},\"args\":{{\"name\":\"{tname}\"}}}}"
            ));
        }
    }

    // Trace events: sends/deliveries as 1us slices on tid 0, with flow
    // arrows matching each Send to the next Deliver of the same
    // (from, to, label).
    if let Some(trace) = trace {
        use std::collections::HashMap;
        let mut open: HashMap<(usize, usize, &str), VecDeque<u64>> = HashMap::new();
        for e in trace.events() {
            let ts = e.at().as_micros();
            match e {
                TraceEvent::Send {
                    from, to, label, ..
                } => {
                    let id = flow_id;
                    flow_id += 1;
                    open.entry((from.0, to.0, label.as_str()))
                        .or_default()
                        .push_back(id);
                    let l = escape(label);
                    evs.push(format!(
                        "{{\"name\":\"{l}\",\"cat\":\"net\",\"ph\":\"X\",\"ts\":{ts},\"dur\":1,\"pid\":{},\"tid\":0}}",
                        from.0
                    ));
                    evs.push(format!(
                        "{{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{id},\"ts\":{ts},\"pid\":{},\"tid\":0}}",
                        from.0
                    ));
                }
                TraceEvent::Deliver {
                    from, to, label, ..
                } => {
                    let l = escape(label);
                    evs.push(format!(
                        "{{\"name\":\"{l}\",\"cat\":\"net\",\"ph\":\"X\",\"ts\":{ts},\"dur\":1,\"pid\":{},\"tid\":0}}",
                        to.0
                    ));
                    if let Some(id) = open
                        .get_mut(&(from.0, to.0, label.as_str()))
                        .and_then(|q| q.pop_front())
                    {
                        evs.push(format!(
                            "{{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\"ts\":{ts},\"pid\":{},\"tid\":0}}",
                            to.0
                        ));
                    }
                }
                TraceEvent::Drop {
                    from, to, label, ..
                } => {
                    evs.push(format!(
                        "{{\"name\":\"drop: {} ->P{}\",\"cat\":\"net\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{},\"tid\":0}}",
                        escape(label),
                        to.0,
                        from.0
                    ));
                }
                TraceEvent::Mark { proc, label, .. } => {
                    evs.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"mark\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{},\"tid\":0}}",
                        escape(label),
                        proc.0
                    ));
                }
                TraceEvent::Fault { proc, crashed, .. } => {
                    evs.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{ts},\"pid\":{},\"tid\":0}}",
                        if *crashed { "CRASH" } else { "recover" },
                        proc.0
                    ));
                }
                TraceEvent::NetFault { label, .. } => {
                    evs.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{ts},\"pid\":0,\"tid\":0}}",
                        escape(label)
                    ));
                }
            }
        }
    }

    // Recorder events: spans on tid 1 (held intervals as slices, stages
    // as 1us anchors with flow arrows from each origin send to its wire
    // arrivals), phases on tid 2 (Begin/End pairs as B/E).
    if let Some(rec) = rec {
        use std::collections::HashMap;
        // Flow ids per span: started at the origin's Send event.
        let mut span_flow: HashMap<SpanId, u64> = HashMap::new();
        // Holdback intervals: (who, span) -> enter ts.
        let mut entered: HashMap<(usize, SpanId), u64> = HashMap::new();
        for ev in rec.merged() {
            let ts = ev.at().as_micros();
            match ev {
                ObsEvent::Span {
                    who,
                    span,
                    stage,
                    note,
                    ..
                } => {
                    let name = escape(&format!(
                        "{span} {}{}",
                        stage.name(),
                        if note.is_empty() {
                            String::new()
                        } else {
                            format!(": {note}")
                        }
                    ));
                    evs.push(format!(
                        "{{\"name\":\"{name}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{ts},\"dur\":1,\"pid\":{who},\"tid\":1}}"
                    ));
                    match stage {
                        Stage::Send => {
                            let id = flow_id;
                            flow_id += 1;
                            span_flow.insert(*span, id);
                            evs.push(format!(
                                "{{\"name\":\"{span}\",\"cat\":\"span-flow\",\"ph\":\"s\",\"id\":{id},\"ts\":{ts},\"pid\":{who},\"tid\":1}}"
                            ));
                        }
                        Stage::Wire => {
                            if let Some(id) = span_flow.get(span) {
                                evs.push(format!(
                                    "{{\"name\":\"{span}\",\"cat\":\"span-flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{id},\"ts\":{ts},\"pid\":{who},\"tid\":1}}"
                                ));
                            }
                        }
                        Stage::HoldbackEnter | Stage::ReorderEnter => {
                            entered.insert((*who, *span), ts);
                        }
                        Stage::Delivered => {
                            if let Some(t0) = entered.remove(&(*who, *span)) {
                                if ts > t0 {
                                    evs.push(format!(
                                        "{{\"name\":\"{span} held\",\"cat\":\"holdback\",\"ph\":\"X\",\"ts\":{t0},\"dur\":{},\"pid\":{who},\"tid\":1}}",
                                        ts - t0
                                    ));
                                }
                            }
                        }
                        _ => {}
                    }
                }
                ObsEvent::Phase {
                    who,
                    kind,
                    edge,
                    note,
                    ..
                } => {
                    let name = escape(&if note.is_empty() {
                        kind.name().to_string()
                    } else {
                        format!("{}: {note}", kind.name())
                    });
                    match edge {
                        PhaseEdge::Begin => evs.push(format!(
                            "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"B\",\"ts\":{ts},\"pid\":{who},\"tid\":2}}",
                            escape(kind.name())
                        )),
                        PhaseEdge::End => evs.push(format!(
                            "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"E\",\"ts\":{ts},\"pid\":{who},\"tid\":2}}",
                            escape(kind.name())
                        )),
                        PhaseEdge::Point => evs.push(format!(
                            "{{\"name\":\"{name}\",\"cat\":\"phase\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{who},\"tid\":2}}"
                        )),
                    }
                }
                ObsEvent::Wait {
                    who,
                    span,
                    kind,
                    since,
                    at,
                    ..
                } => {
                    // Phase-colored duration slice on the waits track:
                    // the `cat` is the wait kind, so Perfetto assigns a
                    // distinct color per attribution phase.
                    let t0 = since.as_micros();
                    let dur = at.as_micros().saturating_sub(t0).max(1);
                    evs.push(format!(
                        "{{\"name\":\"{span} {}\",\"cat\":\"wait-{}\",\"ph\":\"X\",\"ts\":{t0},\"dur\":{dur},\"pid\":{who},\"tid\":3}}",
                        kind.name(),
                        kind.name()
                    ));
                }
            }
        }
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in evs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(e);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn span_ev(at_us: u64, who: usize, seq: u64, stage: Stage) -> ObsEvent {
        ObsEvent::Span {
            at: SimTime::from_micros(at_us),
            who,
            span: SpanId { origin: 0, seq },
            stage,
            note: String::new(),
        }
    }

    #[test]
    fn noop_probe_is_disabled_and_handle_is_lazy() {
        let handle = ProbeHandle::none();
        assert!(!handle.is_enabled());
        let mut called = false;
        handle.emit(|| {
            called = true;
            span_ev(0, 0, 1, Stage::Send)
        });
        assert!(!called, "disabled handle must not build events");
        // An installed NoopProbe is still disabled.
        let noop = ProbeHandle::new(Rc::new(RefCell::new(NoopProbe)));
        assert!(!noop.is_enabled());
        noop.emit(|| {
            called = true;
            span_ev(0, 0, 1, Stage::Send)
        });
        assert!(!called);
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let (handle, rec) = ProbeHandle::recorder(3);
        assert!(handle.is_enabled());
        for seq in 1..=5 {
            handle.emit(|| span_ev(seq * 10, 0, seq, Stage::Send));
        }
        let rec = rec.borrow();
        let kept: Vec<u64> = rec
            .events(0)
            .iter()
            .map(|e| match e {
                ObsEvent::Span { span, .. } => span.seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![3, 4, 5], "oldest evicted first");
        assert_eq!(rec.evicted(0), 2);
        assert_eq!(rec.evicted(1), 0);
    }

    #[test]
    fn rings_are_per_process() {
        let (handle, rec) = ProbeHandle::recorder(2);
        handle.emit(|| span_ev(1, 0, 1, Stage::Send));
        handle.emit(|| span_ev(2, 2, 1, Stage::Wire));
        let rec = rec.borrow();
        assert_eq!(rec.processes(), 3);
        assert_eq!(rec.events(0).len(), 1);
        assert_eq!(rec.events(1).len(), 0);
        assert_eq!(rec.events(2).len(), 1);
    }

    #[test]
    fn merged_orders_by_time_then_process() {
        let (handle, rec) = ProbeHandle::recorder(8);
        handle.emit(|| span_ev(20, 1, 2, Stage::Wire));
        handle.emit(|| span_ev(10, 0, 1, Stage::Send));
        handle.emit(|| span_ev(20, 0, 2, Stage::Send));
        let rec = rec.borrow();
        let order: Vec<(u64, usize)> = rec
            .merged()
            .iter()
            .map(|e| (e.at().as_micros(), e.who()))
            .collect();
        assert_eq!(order, vec![(10, 0), (20, 0), (20, 1)]);
    }

    #[test]
    fn json_lines_parse_back() {
        let (handle, rec) = ProbeHandle::recorder(8);
        handle.emit(|| ObsEvent::Span {
            at: SimTime::from_micros(7),
            who: 1,
            span: SpanId { origin: 0, seq: 3 },
            stage: Stage::HoldbackEnter,
            note: "waiting on m2.1 \"quoted\"".into(),
        });
        handle.emit(|| ObsEvent::Phase {
            at: SimTime::from_micros(9),
            who: 1,
            kind: PhaseKind::Flush,
            edge: PhaseEdge::Begin,
            note: "3 unstable".into(),
        });
        let lines = rec.borrow().to_json_lines();
        for line in lines.lines() {
            let v = JsonValue::parse(line).expect("valid JSON line");
            assert!(v.get("kind").is_some());
            assert!(v.get("at").unwrap().as_u64().is_some());
        }
        let first = JsonValue::parse(lines.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("span").unwrap().as_str(), Some("m0.3"));
        assert_eq!(
            first.get("note").unwrap().as_str(),
            Some("waiting on m2.1 \"quoted\"")
        );
    }

    #[test]
    fn ascii_dump_renders_columns() {
        let (handle, rec) = ProbeHandle::recorder(8);
        handle.emit(|| span_ev(10, 0, 1, Stage::Send));
        handle.emit(|| span_ev(25, 1, 1, Stage::Delivered));
        let d = rec.borrow().render_ascii(&["a", "b"]);
        assert!(d.contains("P0:a"), "{d}");
        assert!(d.contains("m0.1 send"), "{d}");
        assert!(d.contains("m0.1 delivered"), "{d}");
    }

    #[test]
    fn wait_events_render_in_json_label_and_perfetto() {
        let (handle, rec) = ProbeHandle::recorder(8);
        handle.emit(|| ObsEvent::Wait {
            at: SimTime::from_micros(40),
            who: 1,
            span: SpanId { origin: 0, seq: 2 },
            kind: WaitKind::CausalDep,
            since: SimTime::from_micros(15),
            blocker: Some(SpanId { origin: 2, seq: 1 }),
            note: "released by drain".into(),
        });
        let lines = rec.borrow().to_json_lines();
        let v = JsonValue::parse(lines.lines().next().unwrap()).expect("valid JSON");
        assert_eq!(v.get("kind").unwrap().as_str(), Some("wait"));
        assert_eq!(v.get("wait").unwrap().as_str(), Some("causal-dep"));
        assert_eq!(v.get("since").unwrap().as_u64(), Some(15));
        assert_eq!(v.get("blocker").unwrap().as_str(), Some("m2.1"));
        let ev = &rec.borrow().events(1)[0].clone();
        let label = ev.label();
        assert!(
            label.contains("m0.2 waited 25us [causal-dep] on m2.1"),
            "{label}"
        );
        // Perfetto: a duration slice on the waits track, phase-colored by cat.
        let out = perfetto_json(None, Some(&rec.borrow()), 2, &[]);
        let doc = JsonValue::parse(&out).expect("perfetto output parses");
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let slice = evs
            .iter()
            .find(|e| {
                e.get("cat")
                    .is_some_and(|c| c.as_str() == Some("wait-causal-dep"))
            })
            .expect("wait slice present");
        assert_eq!(slice.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(slice.get("ts").unwrap().as_u64(), Some(15));
        assert_eq!(slice.get("dur").unwrap().as_u64(), Some(25));
        assert_eq!(slice.get("tid").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn perfetto_export_is_valid_and_balanced() {
        let mut trace = Trace::new();
        trace.enable();
        trace.record(TraceEvent::Send {
            at: SimTime::from_micros(10),
            from: ProcessId(0),
            to: ProcessId(1),
            label: "m0.1".into(),
        });
        trace.record(TraceEvent::Deliver {
            at: SimTime::from_micros(30),
            from: ProcessId(0),
            to: ProcessId(1),
            label: "m0.1".into(),
        });
        let (handle, rec) = ProbeHandle::recorder(16);
        handle.emit(|| span_ev(10, 0, 1, Stage::Send));
        handle.emit(|| span_ev(30, 1, 1, Stage::Wire));
        handle.emit(|| span_ev(30, 1, 1, Stage::HoldbackEnter));
        handle.emit(|| span_ev(45, 1, 1, Stage::Delivered));
        handle.emit(|| ObsEvent::Phase {
            at: SimTime::from_micros(50),
            who: 1,
            kind: PhaseKind::Flush,
            edge: PhaseEdge::Begin,
            note: String::new(),
        });
        handle.emit(|| ObsEvent::Phase {
            at: SimTime::from_micros(60),
            who: 1,
            kind: PhaseKind::Flush,
            edge: PhaseEdge::End,
            note: String::new(),
        });
        let out = perfetto_json(Some(&trace), Some(&rec.borrow()), 2, &["a", "b"]);
        let doc = JsonValue::parse(&out).expect("perfetto output parses");
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(evs.len() >= 10, "got {}", evs.len());
        let mut begins = 0i64;
        let mut flows = (0u64, 0u64);
        for e in evs {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            assert!(e.get("pid").unwrap().as_u64().is_some());
            if ph != "M" {
                assert!(e.get("ts").unwrap().as_u64().is_some());
            }
            match ph {
                "B" => begins += 1,
                "E" => begins -= 1,
                "s" => flows.0 += 1,
                "f" => flows.1 += 1,
                _ => {}
            }
        }
        assert_eq!(begins, 0, "B/E balanced");
        assert_eq!(flows.0, 2, "one trace flow + one span flow started");
        assert_eq!(flows.1, 2, "both flows finished");
        // The held interval shows up as a duration slice.
        assert!(out.contains("m0.1 held"), "{out}");
    }
}
