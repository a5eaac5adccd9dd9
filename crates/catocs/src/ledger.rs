//! Latency-provenance ledger: per-message ordering-tax attribution.
//!
//! The paper's §5 cost argument is about *where* a delivered message's
//! end-to-end latency went: transit, holdback behind an irrelevant
//! predecessor, a reorder cursor, the total-order watermark, a token
//! rotation, or a view-change flush. The repo's wait-graph layer can say
//! *who* blocks a message; this module says *how much each cause
//! consumed*, exactly.
//!
//! [`LedgerProbe`] is a [`Probe`] fed by the same zero-cost seam the
//! flight recorder uses. Protocol endpoints emit [`ObsEvent::Wait`]
//! intervals when a wait *ends* (so there is no per-wait bookkeeping on
//! the hot path); the ledger tiles them — together with the send, first
//! wire arrival, and delivery stamps — into one [`LedgerEntry`] per
//! (receiver, message) whose phase segments sum *exactly* to the
//! send→deliver virtual-time latency (a proptest pins this: no gaps, no
//! double-counting). Attribution is purely observational: a probed run
//! is byte-identical to an unprobed one.
//!
//! The headline metric is the **ordering tax**: delivered latency minus
//! the FIFO-only floor for the same arrival pattern — what the ordering
//! discipline itself cost, over and above transit and per-sender FIFO
//! sequencing that even `fbcast` pays.

use simnet::metrics::Histogram;
use simnet::obs::{ObsEvent, PhaseEdge, PhaseKind, Probe, ProbeHandle, SpanId, Stage, WaitKind};
use simnet::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// An attribution phase — where one slice of a message's latency went.
/// Coarser than [`WaitKind`]: the two token-side waits (pre-send hold at
/// the origin, rotation wait at a receiver) both land in [`PhaseId::Token`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PhaseId {
    /// Wire transit: send to first arrival at the receiver.
    Wire,
    /// NACK repair in flight (the delivered copy was a retransmission,
    /// or the arrival-to-queue gap of a chased message).
    Repair,
    /// Holdback wait on a causal predecessor from another sender.
    Causal,
    /// Holdback wait on an earlier message from the same sender.
    Fifo,
    /// pccast per-link reorder-cursor wait.
    Reorder,
    /// abcast order-watermark wait (causally delivered, not yet released).
    Order,
    /// Token wait: pre-send hold at the origin or rotation wait here.
    Token,
    /// View-change flush/install barrier.
    Flush,
}

impl PhaseId {
    /// Every phase, in display order.
    pub const ALL: [PhaseId; 8] = [
        PhaseId::Wire,
        PhaseId::Repair,
        PhaseId::Causal,
        PhaseId::Fifo,
        PhaseId::Reorder,
        PhaseId::Order,
        PhaseId::Token,
        PhaseId::Flush,
    ];

    /// Stable lowercase name, used in tables and BENCH metric names.
    pub fn name(self) -> &'static str {
        match self {
            PhaseId::Wire => "wire",
            PhaseId::Repair => "repair",
            PhaseId::Causal => "causal",
            PhaseId::Fifo => "fifo",
            PhaseId::Reorder => "reorder",
            PhaseId::Order => "order",
            PhaseId::Token => "token",
            PhaseId::Flush => "flush",
        }
    }

    /// The phase a [`WaitKind`] is attributed to.
    pub(crate) fn from_wait(kind: WaitKind) -> PhaseId {
        match kind {
            WaitKind::CausalDep => PhaseId::Causal,
            WaitKind::FifoGap => PhaseId::Fifo,
            WaitKind::NackRepair => PhaseId::Repair,
            WaitKind::LinkReorder => PhaseId::Reorder,
            WaitKind::OrderWatermark => PhaseId::Order,
            WaitKind::TokenRotation | WaitKind::TokenHold => PhaseId::Token,
            WaitKind::FlushBarrier => PhaseId::Flush,
        }
    }
}

impl fmt::Display for PhaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One attributed slice `[from, to)` of a message's latency at a receiver.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Where this slice went.
    pub phase: PhaseId,
    /// Slice start.
    pub from: SimTime,
    /// Slice end (exclusive).
    pub to: SimTime,
    /// The message whose delivery/arrival ended the wait, when known.
    pub blocker: Option<SpanId>,
    /// Free-form detail carried from the emitting endpoint.
    pub note: String,
}

impl Segment {
    /// Slice duration.
    pub fn dur(&self) -> SimDuration {
        self.to.saturating_since(self.from)
    }
}

/// The ledger line for one message at one receiver: an exact tiling of
/// `[send_at, end)` into attributed [`Segment`]s.
#[derive(Clone, Debug)]
pub struct LedgerEntry {
    /// The receiving member.
    pub receiver: usize,
    /// The message.
    pub span: SpanId,
    /// When the origin submitted it.
    pub send_at: SimTime,
    /// Delivery time — or the horizon, for entries still open then.
    pub end: SimTime,
    /// Whether the message was still undelivered at the horizon (open
    /// entries are shown in drill-downs but excluded from histograms and
    /// the ordering tax).
    pub open: bool,
    /// The phase tiling. Empty iff latency is zero.
    pub segments: Vec<Segment>,
    /// Ordering tax: latency minus the FIFO-only floor for the same
    /// arrivals (zero for open entries).
    pub tax: SimDuration,
}

impl LedgerEntry {
    /// End-to-end virtual-time latency (send to deliver, or to the
    /// horizon while open).
    pub fn latency(&self) -> SimDuration {
        self.end.saturating_since(self.send_at)
    }

    /// Total time per phase across this entry's segments.
    pub fn phase_totals(&self) -> BTreeMap<PhaseId, SimDuration> {
        let mut totals: BTreeMap<PhaseId, SimDuration> = BTreeMap::new();
        for s in &self.segments {
            let t = totals.entry(s.phase).or_insert(SimDuration(0));
            t.0 += s.dur().0;
        }
        totals
    }

    /// The single phase that consumed the most of this entry's latency —
    /// the critical path of its wait. `None` when latency is zero.
    pub fn critical_path(&self) -> Option<PhaseId> {
        self.phase_totals()
            .into_iter()
            .filter(|(_, d)| d.0 > 0)
            // max_by_key keeps the *last* max; iterate phases in display
            // order and prefer the earliest on ties deterministically.
            .fold(
                None,
                |best: Option<(PhaseId, SimDuration)>, (p, d)| match best {
                    Some((_, bd)) if bd.0 >= d.0 => best,
                    _ => Some((p, d)),
                },
            )
            .map(|(p, _)| p)
    }
}

#[derive(Debug, Default)]
struct RecvRec {
    first_wire: Option<SimTime>,
    /// The first wire copy seen here was a NACK retransmission — the
    /// pre-arrival interval is repair, not transit.
    wire_retransmit: bool,
    /// A delta copy was parked undecoded here (arrival-to-queue gaps are
    /// then FIFO waits on the decode base, not repair).
    parked: bool,
    /// The message demonstrably entered a queue here (holdback, reorder
    /// buffer, parked) — an undelivered rec without evidence is a
    /// dropped duplicate, not an open entry.
    held_evidence: bool,
    delivered_at: Option<SimTime>,
    waits: Vec<WaitSeg>,
}

#[derive(Debug)]
struct WaitSeg {
    kind: WaitKind,
    since: SimTime,
    at: SimTime,
    blocker: Option<SpanId>,
    note: String,
}

/// The always-on probe that accumulates ledger state. Install it (alone
/// or behind a `TeeProbe`) and call [`LedgerProbe::finalize`] at the
/// horizon.
#[derive(Debug, Default)]
pub struct LedgerProbe {
    send_at: BTreeMap<SpanId, SimTime>,
    /// Pre-send token holds at the origin, `[since, at)` — they apply to
    /// every receiver of the span.
    origin_holds: BTreeMap<SpanId, Vec<(SimTime, SimTime)>>,
    recs: BTreeMap<(usize, SpanId), RecvRec>,
    /// Processes currently frozen by a flush, and since when — open
    /// entries at the horizon charge `[frozen_since, horizon)` to the
    /// flush barrier.
    frozen_since: BTreeMap<usize, SimTime>,
}

impl LedgerProbe {
    /// Fresh, empty ledger.
    pub fn new() -> Self {
        LedgerProbe::default()
    }

    fn rec(&mut self, who: usize, span: SpanId) -> &mut RecvRec {
        self.recs.entry((who, span)).or_default()
    }

    /// Folds one event into the ledger. [`Probe::record`] delegates here;
    /// tee arrangements can call it directly.
    pub(crate) fn fold(&mut self, ev: &ObsEvent) {
        match ev {
            ObsEvent::Span {
                at,
                who,
                span,
                stage,
                note,
            } => match stage {
                Stage::Send => {
                    self.send_at.entry(*span).or_insert(*at);
                }
                Stage::Wire => {
                    let r = self.rec(*who, *span);
                    if r.first_wire.is_none() {
                        r.first_wire = Some(*at);
                        r.wire_retransmit = note.contains("retransmit");
                    }
                }
                Stage::Parked => {
                    let r = self.rec(*who, *span);
                    r.parked = true;
                    r.held_evidence = true;
                }
                Stage::HoldbackEnter | Stage::ReorderEnter => {
                    self.rec(*who, *span).held_evidence = true;
                }
                Stage::Delivered => {
                    // abcast re-stamps delivery at release: the later
                    // stamp supersedes the causal one.
                    self.rec(*who, *span).delivered_at = Some(*at);
                }
                Stage::Deliverable | Stage::Dropped | Stage::SkipConsume => {}
            },
            ObsEvent::Phase {
                at,
                who,
                kind: PhaseKind::Flush,
                edge,
                ..
            } => match edge {
                PhaseEdge::Begin => {
                    self.frozen_since.entry(*who).or_insert(*at);
                }
                PhaseEdge::End => {
                    self.frozen_since.remove(who);
                }
                PhaseEdge::Point => {}
            },
            ObsEvent::Phase { .. } => {}
            ObsEvent::Wait {
                at,
                who,
                span,
                kind,
                since,
                blocker,
                note,
            } => {
                if *kind == WaitKind::TokenHold {
                    // Origin-side pre-send hold: applies to all receivers.
                    self.origin_holds
                        .entry(*span)
                        .or_default()
                        .push((*since, *at));
                } else {
                    let r = self.rec(*who, *span);
                    r.waits.push(WaitSeg {
                        kind: *kind,
                        since: *since,
                        at: *at,
                        blocker: *blocker,
                        note: note.clone(),
                    });
                    r.held_evidence = true;
                }
            }
        }
    }

    /// Builds the final per-message attribution at `horizon`.
    pub fn finalize(&self, horizon: SimTime) -> LatencySummary {
        let mut entries: Vec<LedgerEntry> = Vec::new();
        for ((receiver, span), r) in &self.recs {
            let Some(&send) = self.send_at.get(span) else {
                continue;
            };
            let open = r.delivered_at.is_none();
            if open && !r.held_evidence {
                // A wire copy that was dropped (duplicate, beyond-cut)
                // without ever entering a queue — not a latency story.
                continue;
            }
            let end = r.delivered_at.unwrap_or(horizon);
            let mut segments: Vec<Segment> = Vec::new();
            let mut cursor = send;
            // Clip every incoming slice to `[cursor, end)`: overlapping
            // claims (e.g. a token holder's own-message release wait
            // re-claiming its submit-queue hold) collapse structurally,
            // which is what makes the tiling exact by construction.
            let push = |segments: &mut Vec<Segment>,
                        cursor: &mut SimTime,
                        phase: PhaseId,
                        from: SimTime,
                        to: SimTime,
                        blocker: Option<SpanId>,
                        note: &str| {
                let from = from.max(*cursor);
                let to = to.min(end);
                if to > from {
                    segments.push(Segment {
                        phase,
                        from,
                        to,
                        blocker,
                        note: note.to_string(),
                    });
                    *cursor = to;
                }
            };
            if let Some(holds) = self.origin_holds.get(span) {
                let mut holds = holds.clone();
                holds.sort_unstable();
                for (since, at) in holds {
                    push(
                        &mut segments,
                        &mut cursor,
                        PhaseId::Token,
                        since,
                        at,
                        None,
                        "queued at origin awaiting the token",
                    );
                }
            }
            if let Some(wire) = r.first_wire {
                let (phase, note) = if r.wire_retransmit {
                    (PhaseId::Repair, "first copy here was a retransmission")
                } else {
                    (PhaseId::Wire, "")
                };
                push(
                    &mut segments,
                    &mut cursor,
                    phase,
                    SimTime::ZERO,
                    wire,
                    None,
                    note,
                );
            }
            // Arrival-to-queue gaps (a parked delta waiting for its
            // decode base, or a chased message re-entering late) are
            // attributed by the evidence at this receiver.
            let gap_phase = if r.parked {
                PhaseId::Fifo
            } else {
                PhaseId::Repair
            };
            for w in &r.waits {
                if w.since > cursor {
                    push(
                        &mut segments,
                        &mut cursor,
                        gap_phase,
                        SimTime::ZERO,
                        w.since,
                        None,
                        if r.parked {
                            "parked awaiting its delta decode base"
                        } else {
                            "arrival-to-queue gap (repair in flight)"
                        },
                    );
                }
                push(
                    &mut segments,
                    &mut cursor,
                    PhaseId::from_wait(w.kind),
                    w.since,
                    w.at,
                    w.blocker,
                    &w.note,
                );
            }
            if end > cursor {
                if open {
                    // Still held at the horizon: charge the frozen tail
                    // (if this receiver is mid-flush) to the barrier and
                    // the rest to the queue evidence we have.
                    let fs = self.frozen_since.get(receiver).copied();
                    let open_phase = if r.parked {
                        PhaseId::Fifo
                    } else {
                        PhaseId::Causal
                    };
                    if let Some(fs) = fs {
                        if fs > cursor {
                            push(
                                &mut segments,
                                &mut cursor,
                                open_phase,
                                SimTime::ZERO,
                                fs,
                                None,
                                "still held at the horizon",
                            );
                        }
                        push(
                            &mut segments,
                            &mut cursor,
                            PhaseId::Flush,
                            SimTime::ZERO,
                            end,
                            None,
                            "delivery frozen by an unfinished flush",
                        );
                    } else {
                        push(
                            &mut segments,
                            &mut cursor,
                            open_phase,
                            SimTime::ZERO,
                            end,
                            None,
                            "still held at the horizon",
                        );
                    }
                } else {
                    push(
                        &mut segments,
                        &mut cursor,
                        gap_phase,
                        SimTime::ZERO,
                        end,
                        None,
                        "unattributed residual",
                    );
                }
            }
            entries.push(LedgerEntry {
                receiver: *receiver,
                span: *span,
                send_at: send,
                end,
                open,
                segments,
                tax: SimDuration(0),
            });
        }
        entries.sort_by_key(|e| (e.span, e.receiver));

        // Ordering tax: the FIFO-only floor for a delivery is the latest
        // first-arrival among the sender's messages up to and including
        // this one (per receiver) — the earliest a FIFO-only discipline
        // could have delivered it given the same arrivals. Delivery is
        // FIFO per sender in every discipline, so a per-(receiver,
        // sender) running max over seq order is exact and O(1) amortized.
        let mut floor: BTreeMap<(usize, usize), SimTime> = BTreeMap::new();
        let mut by_sender: Vec<&mut LedgerEntry> = entries.iter_mut().collect();
        by_sender.sort_by_key(|e| (e.receiver, e.span.origin, e.span.seq));
        for e in by_sender {
            if e.open {
                continue;
            }
            let arrival = e
                .segments
                .iter()
                .find(|s| matches!(s.phase, PhaseId::Wire | PhaseId::Repair))
                .map(|s| s.to)
                .unwrap_or(e.send_at);
            let f = floor.entry((e.receiver, e.span.origin)).or_insert(arrival);
            *f = (*f).max(arrival);
            e.tax = e.end.saturating_since(*f);
        }

        let mut summary = LatencySummary::default();
        for e in &entries {
            if e.open {
                summary.open += 1;
                continue;
            }
            summary.latency.record(e.latency());
            summary.tax.record(e.tax);
            for (phase, d) in e.phase_totals() {
                summary.per_phase.entry(phase).or_default().record(d);
            }
            if let Some(p) = e.critical_path() {
                *summary.critical.entry(p).or_insert(0) += 1;
            }
        }
        summary.entries = entries;
        summary
    }
}

impl Probe for LedgerProbe {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ev: ObsEvent) {
        self.fold(&ev);
    }
}

/// Duplicates every event to an (optional) downstream probe — the chaos
/// flight recorder — while folding it into an owned [`LedgerProbe`].
/// Always enabled, so the campaign runner can keep one installation path
/// whether or not a recorder is attached; determinism is untouched
/// because probes never feed back into protocol state.
pub(crate) struct TeeProbe {
    /// The ledger every event folds into.
    pub ledger: LedgerProbe,
    inner: ProbeHandle,
}

impl TeeProbe {
    /// Tees into `inner` (pass `ProbeHandle::none()` for ledger-only).
    pub(crate) fn new(inner: ProbeHandle) -> Self {
        TeeProbe {
            ledger: LedgerProbe::new(),
            inner,
        }
    }
}

impl Probe for TeeProbe {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ev: ObsEvent) {
        self.inner.emit(|| ev.clone());
        self.ledger.fold(&ev);
    }
}

/// The finalized campaign-wide attribution: every ledger entry, plus
/// per-phase, whole-latency and ordering-tax histograms over the closed
/// (delivered) entries. Digest-excluded everywhere it rides along.
#[derive(Clone, Debug, Default)]
pub struct LatencySummary {
    /// Every (receiver, message) entry, sorted by (span, receiver).
    pub entries: Vec<LedgerEntry>,
    /// Per-phase time histograms (one sample per entry that spent time
    /// in the phase).
    pub per_phase: BTreeMap<PhaseId, Histogram>,
    /// End-to-end delivered latency.
    pub latency: Histogram,
    /// Ordering tax per delivered entry.
    pub tax: Histogram,
    /// How often each phase was an entry's critical path.
    pub critical: BTreeMap<PhaseId, u64>,
    /// Entries still undelivered at the horizon.
    pub open: usize,
}

impl LatencySummary {
    /// The entry for `span` at `receiver`, if the ledger has one.
    pub fn entry(&self, receiver: usize, span: SpanId) -> Option<&LedgerEntry> {
        self.entries
            .iter()
            .find(|e| e.receiver == receiver && e.span == span)
    }

    /// All entries for one message, across receivers.
    pub fn for_span(&self, span: SpanId) -> impl Iterator<Item = &LedgerEntry> {
        self.entries.iter().filter(move |e| e.span == span)
    }

    /// Mean ordering tax over delivered entries, in microseconds.
    pub fn tax_mean_us(&self) -> f64 {
        if self.tax.count() == 0 {
            0.0
        } else {
            self.tax.sum_micros() as f64 / self.tax.count() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(origin: usize, seq: u64) -> SpanId {
        SpanId { origin, seq }
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn send(l: &mut LedgerProbe, at: u64, who: usize, s: SpanId) {
        l.fold(&ObsEvent::Span {
            at: t(at),
            who,
            span: s,
            stage: Stage::Send,
            note: String::new(),
        });
    }

    fn wire(l: &mut LedgerProbe, at: u64, who: usize, s: SpanId) {
        l.fold(&ObsEvent::Span {
            at: t(at),
            who,
            span: s,
            stage: Stage::Wire,
            note: String::new(),
        });
    }

    fn delivered(l: &mut LedgerProbe, at: u64, who: usize, s: SpanId) {
        l.fold(&ObsEvent::Span {
            at: t(at),
            who,
            span: s,
            stage: Stage::Delivered,
            note: String::new(),
        });
    }

    fn wait(l: &mut LedgerProbe, who: usize, s: SpanId, kind: WaitKind, since: u64, at: u64) {
        l.fold(&ObsEvent::Wait {
            at: t(at),
            who,
            span: s,
            kind,
            since: t(since),
            blocker: None,
            note: String::new(),
        });
    }

    #[test]
    fn wire_only_delivery_tiles_to_transit() {
        let mut l = LedgerProbe::new();
        let m = span(0, 1);
        send(&mut l, 10, 0, m);
        wire(&mut l, 25, 1, m);
        delivered(&mut l, 25, 1, m);
        let s = l.finalize(t(1000));
        assert_eq!(s.entries.len(), 1);
        let e = &s.entries[0];
        assert_eq!(e.latency(), SimDuration(15));
        assert_eq!(e.segments.len(), 1);
        assert_eq!(e.segments[0].phase, PhaseId::Wire);
        assert_eq!(e.tax, SimDuration(0), "FIFO floor equals own arrival");
        assert_eq!(e.critical_path(), Some(PhaseId::Wire));
    }

    #[test]
    fn causal_wait_and_tax_attribute_exactly() {
        let mut l = LedgerProbe::new();
        let m = span(0, 1);
        send(&mut l, 0, 0, m);
        wire(&mut l, 20, 1, m);
        wait(&mut l, 1, m, WaitKind::CausalDep, 20, 90);
        delivered(&mut l, 90, 1, m);
        let s = l.finalize(t(1000));
        let e = &s.entries[0];
        let sum: u64 = e.segments.iter().map(|s| s.dur().0).sum();
        assert_eq!(sum, e.latency().0, "exact tiling");
        assert_eq!(e.critical_path(), Some(PhaseId::Causal));
        // FIFO floor = own arrival at 20; tax = 90 - 20.
        assert_eq!(e.tax, SimDuration(70));
    }

    #[test]
    fn token_origin_hold_clips_against_release_wait() {
        // The holder's own message: submitted at 0, token arrives and
        // drains at 40, released at 40. The release wait re-claims
        // [0, 40) but the origin hold already owns it — clipping must
        // collapse the duplicate claim.
        let mut l = LedgerProbe::new();
        let m = span(2, 1);
        send(&mut l, 0, 2, m);
        l.fold(&ObsEvent::Wait {
            at: t(40),
            who: 2,
            span: m,
            kind: WaitKind::TokenHold,
            since: t(0),
            blocker: None,
            note: String::new(),
        });
        wait(&mut l, 2, m, WaitKind::TokenRotation, 0, 40);
        delivered(&mut l, 40, 2, m);
        let s = l.finalize(t(1000));
        let e = &s.entries[0];
        let sum: u64 = e.segments.iter().map(|s| s.dur().0).sum();
        assert_eq!(sum, 40, "no double-counting");
        assert_eq!(e.segments.len(), 1);
        assert_eq!(e.segments[0].phase, PhaseId::Token);
    }

    #[test]
    fn open_entry_at_frozen_receiver_charges_the_flush_barrier() {
        let mut l = LedgerProbe::new();
        let m = span(4, 33);
        send(&mut l, 100, 4, m);
        wire(&mut l, 120, 0, m);
        l.fold(&ObsEvent::Span {
            at: t(120),
            who: 0,
            span: m,
            stage: Stage::HoldbackEnter,
            note: String::new(),
        });
        l.fold(&ObsEvent::Phase {
            at: t(200),
            who: 0,
            kind: PhaseKind::Flush,
            edge: PhaseEdge::Begin,
            note: String::new(),
        });
        let s = l.finalize(t(5_000_000));
        assert_eq!(s.open, 1);
        let e = &s.entries[0];
        assert!(e.open);
        let totals = e.phase_totals();
        let flush = totals
            .get(&PhaseId::Flush)
            .copied()
            .unwrap_or(SimDuration(0));
        assert!(
            flush.0 as f64 >= 0.9 * e.latency().0 as f64,
            "flush dominates: {totals:?}"
        );
        assert_eq!(e.critical_path(), Some(PhaseId::Flush));
        let sum: u64 = e.segments.iter().map(|s| s.dur().0).sum();
        assert_eq!(sum, e.latency().0);
    }

    #[test]
    fn abcast_release_restamps_delivery() {
        let mut l = LedgerProbe::new();
        let m = span(1, 1);
        send(&mut l, 0, 1, m);
        wire(&mut l, 10, 0, m);
        delivered(&mut l, 10, 0, m); // causal delivery
        wait(&mut l, 0, m, WaitKind::OrderWatermark, 10, 55);
        delivered(&mut l, 55, 0, m); // release
        let s = l.finalize(t(1000));
        let e = &s.entries[0];
        assert_eq!(e.end, t(55));
        let totals = e.phase_totals();
        assert_eq!(totals[&PhaseId::Wire], SimDuration(10));
        assert_eq!(totals[&PhaseId::Order], SimDuration(45));
        assert_eq!(e.critical_path(), Some(PhaseId::Order));
        assert_eq!(s.entries.len(), 1, "restamp is not a second entry");
    }

    #[test]
    fn dropped_duplicate_without_queue_evidence_is_ignored() {
        let mut l = LedgerProbe::new();
        let m = span(0, 7);
        send(&mut l, 0, 0, m);
        wire(&mut l, 30, 2, m); // dup copy, dropped by the endpoint
        let s = l.finalize(t(1000));
        assert!(s.entries.is_empty());
        assert_eq!(s.open, 0);
    }

    #[test]
    fn parked_gap_is_attributed_to_the_decode_base() {
        let mut l = LedgerProbe::new();
        let m = span(3, 5);
        send(&mut l, 0, 3, m);
        wire(&mut l, 10, 1, m);
        l.fold(&ObsEvent::Span {
            at: t(10),
            who: 1,
            span: m,
            stage: Stage::Parked,
            note: String::new(),
        });
        // Decoded at 60, held until 80 on a causal dep.
        wait(&mut l, 1, m, WaitKind::CausalDep, 60, 80);
        delivered(&mut l, 80, 1, m);
        let s = l.finalize(t(1000));
        let e = &s.entries[0];
        let totals = e.phase_totals();
        assert_eq!(totals[&PhaseId::Wire], SimDuration(10));
        assert_eq!(totals[&PhaseId::Fifo], SimDuration(50), "parked gap");
        assert_eq!(totals[&PhaseId::Causal], SimDuration(20));
        let sum: u64 = e.segments.iter().map(|s| s.dur().0).sum();
        assert_eq!(sum, e.latency().0);
    }
}
