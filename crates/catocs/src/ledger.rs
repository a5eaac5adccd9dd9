//! Latency-provenance ledger: per-message ordering-tax attribution.
//!
//! The paper's §5 cost argument is about *where* a delivered message's
//! end-to-end latency went: transit, holdback behind an irrelevant
//! predecessor, a reorder cursor, the total-order watermark, a token
//! rotation, or a view-change flush. The wait graph says *who* blocks a
//! message; this module says *how much each cause consumed*, exactly,
//! in the same [`LatencyPhase`]s every wait-graph reason maps into.
//!
//! [`LedgerProbe`] is a [`Probe`] fed by the same zero-cost seam the
//! flight recorder uses. Protocol endpoints emit [`ObsEvent::Wait`]
//! intervals when a wait *ends* (so there is no per-wait bookkeeping on
//! the hot path); the ledger tiles them — together with the send, first
//! wire arrival, and delivery stamps — into one [`LedgerEntry`] per
//! (receiver, message) whose phase segments sum *exactly* to the
//! send→deliver virtual-time latency (a proptest pins this: no gaps, no
//! double-counting). A message still undelivered at the horizon has no
//! ended wait to read: [`LedgerProbe::finalize`] charges its tail to the
//! phase of the wait record that holds it there
//! ([`WaitRecord::phase`]). Attribution is purely observational: a
//! probed run is byte-identical to an unprobed one.
//!
//! The headline metric is the **ordering tax**: delivered latency minus
//! the FIFO-only floor for the same arrival pattern — what the ordering
//! discipline itself cost, over and above transit and per-sender FIFO
//! sequencing that even `fbcast` pays.

use crate::causal_core::span_of;
use crate::waitgraph::{WaitNode, WaitRecord};
use simnet::metrics::Histogram;
use simnet::obs::{LatencyPhase, ObsEvent, Probe, ProbeHandle, SpanId, Stage};
use simnet::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// One attributed slice `[from, to)` of a message's latency at a receiver.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Where this slice went.
    pub phase: LatencyPhase,
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
    /// Appends a `phase` slice over `[from, to)`, clipped to what the
    /// tiling has not claimed yet and to the entry's end: overlapping
    /// claims (e.g. a token holder's own-message release wait re-claiming
    /// its submit-queue hold) collapse structurally, which is what makes
    /// the tiling exact by construction.
    fn tile(
        &mut self,
        phase: LatencyPhase,
        from: SimTime,
        to: SimTime,
        blocker: Option<SpanId>,
        note: &str,
    ) {
        let from = from.max(self.segments.last().map_or(self.send_at, |s| s.to));
        let to = to.min(self.end);
        if to > from {
            let note = note.to_string();
            self.segments.push(Segment {
                phase,
                from,
                to,
                blocker,
                note,
            });
        }
    }

    /// End-to-end virtual-time latency (send to deliver, or to the
    /// horizon while open).
    pub fn latency(&self) -> SimDuration {
        self.end.saturating_since(self.send_at)
    }

    /// Total time per phase across this entry's segments.
    pub fn phase_totals(&self) -> BTreeMap<LatencyPhase, SimDuration> {
        let mut totals: BTreeMap<LatencyPhase, SimDuration> = BTreeMap::new();
        for s in &self.segments {
            let t = totals.entry(s.phase).or_insert(SimDuration(0));
            t.0 += s.dur().0;
        }
        totals
    }

    /// The single phase that consumed the most of this entry's latency —
    /// the critical path of its wait. `None` when latency is zero.
    pub fn critical_path(&self) -> Option<LatencyPhase> {
        // max_by_key keeps the *last* max: walking the phases backwards,
        // the earliest in display order wins a tie.
        let totals = self.phase_totals().into_iter().rev();
        let (phase, d) = totals.max_by_key(|&(_, d)| d)?;
        (d.0 > 0).then_some(phase)
    }
}

#[derive(Debug, Default)]
struct RecvRec {
    first_wire: Option<SimTime>,
    /// The first wire copy seen here was a NACK retransmission — the
    /// pre-arrival interval is repair, not transit.
    wire_retransmit: bool,
    parking: Parking,
    delivered_at: Option<SimTime>,
    waits: Vec<WaitSeg>,
}

/// Whether a delta copy sits, or sat, parked undecoded here.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
enum Parking {
    /// Never parked, or the parked copy was discarded: the message
    /// comes back, if at all, by repair.
    #[default]
    No,
    /// Parked now. No wait record names a parked copy, so this is what
    /// keeps an undelivered one open.
    Now,
    /// Parked until it decoded into the holdback. Its arrival-to-queue
    /// gap was a FIFO wait on the decode base, not repair.
    Decoded,
}

#[derive(Debug)]
struct WaitSeg {
    phase: LatencyPhase,
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
    origin_holds: BTreeMap<SpanId, (SimTime, SimTime)>,
    recs: BTreeMap<(usize, SpanId), RecvRec>,
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
    /// tee arrangements can call it directly. Phase events and notes
    /// decide nothing: a note is only copied into a segment.
    pub(crate) fn fold(&mut self, ev: &ObsEvent) {
        match ev {
            ObsEvent::Span {
                at,
                who,
                span,
                stage,
                ..
            } => match stage {
                Stage::Send => {
                    self.send_at.entry(*span).or_insert(*at);
                }
                Stage::Wire { retransmit } => {
                    let r = self.rec(*who, *span);
                    if r.first_wire.is_none() {
                        r.first_wire = Some(*at);
                        r.wire_retransmit = *retransmit;
                    }
                }
                Stage::Parked => self.rec(*who, *span).parking = Parking::Now,
                Stage::Unparked => self.rec(*who, *span).parking = Parking::No,
                Stage::HoldbackEnter => {
                    let r = self.rec(*who, *span);
                    if r.parking == Parking::Now {
                        r.parking = Parking::Decoded;
                    }
                }
                Stage::Delivered => {
                    // abcast re-stamps delivery at release: the later
                    // stamp supersedes the causal one.
                    self.rec(*who, *span).delivered_at = Some(*at);
                }
                _ => {}
            },
            ObsEvent::Phase { .. } => {}
            ObsEvent::Wait {
                at,
                who,
                span,
                phase,
                pre_send,
                since,
                blocker,
                note,
            } => {
                if *pre_send {
                    self.origin_holds.insert(*span, (*since, *at));
                } else {
                    self.rec(*who, *span).waits.push(WaitSeg {
                        phase: *phase,
                        since: *since,
                        at: *at,
                        blocker: *blocker,
                        note: note.clone(),
                    });
                }
            }
        }
    }

    /// Builds the final per-message attribution at `horizon`, given the
    /// wait records every process holds then. An undelivered message is
    /// open iff a record holds it (or it sits parked, which no record
    /// names), and its tail is charged to that record's phase. One that
    /// nothing holds is not a latency story: a duplicate copy, or a copy
    /// purged beyond a removed sender's cut.
    pub fn finalize(&self, horizon: SimTime, records: &[WaitRecord]) -> LatencySummary {
        let mut held: BTreeMap<(usize, SpanId), LatencyPhase> = BTreeMap::new();
        for rec in records {
            if let (WaitNode::Msg(id), Some(phase)) = (rec.blocked, rec.phase()) {
                let p = held.entry((rec.who, span_of(id))).or_insert(phase);
                *p = (*p).max(phase);
            }
        }
        let mut entries: Vec<LedgerEntry> = Vec::new();
        for ((receiver, span), r) in &self.recs {
            let Some(&send) = self.send_at.get(span) else {
                continue;
            };
            let open = r.delivered_at.is_none();
            let tail = held
                .get(&(*receiver, *span))
                .copied()
                .or((r.parking == Parking::Now).then_some(LatencyPhase::Fifo));
            if open && tail.is_none() {
                continue;
            }
            let mut e = LedgerEntry {
                receiver: *receiver,
                span: *span,
                send_at: send,
                end: r.delivered_at.unwrap_or(horizon),
                open,
                segments: Vec::new(),
                tax: SimDuration(0),
            };
            if let Some(&(since, at)) = self.origin_holds.get(span) {
                let note = "queued at origin awaiting the token";
                e.tile(LatencyPhase::Token, since, at, None, note);
            }
            if let Some(wire) = r.first_wire {
                if r.wire_retransmit {
                    let note = "first copy here was a retransmission";
                    e.tile(LatencyPhase::Repair, send, wire, None, note);
                } else {
                    e.tile(LatencyPhase::Wire, send, wire, None, "");
                }
            }
            // Arrival-to-queue gaps (a parked delta waiting for its
            // decode base, or a chased message re-entering late) are
            // attributed by the evidence at this receiver.
            let (gap_phase, gap_note) = if r.parking != Parking::No {
                (LatencyPhase::Fifo, "parked awaiting its delta decode base")
            } else {
                (
                    LatencyPhase::Repair,
                    "arrival-to-queue gap (repair in flight)",
                )
            };
            for w in &r.waits {
                e.tile(gap_phase, send, w.since, None, gap_note);
                e.tile(w.phase, w.since, w.at, w.blocker, &w.note);
            }
            let (phase, note) = match tail.filter(|_| open) {
                Some(LatencyPhase::Flush) => (
                    LatencyPhase::Flush,
                    "delivery frozen by an unfinished flush",
                ),
                Some(phase) => (phase, "still held at the horizon"),
                None => (gap_phase, "unattributed residual"),
            };
            e.tile(phase, send, e.end, None, note);
            entries.push(e);
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
                .find(|s| matches!(s.phase, LatencyPhase::Wire | LatencyPhase::Repair))
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

    fn records_phases(&self) -> bool {
        false
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

    /// The ledger reads no phase event: only the downstream probe can.
    fn records_phases(&self) -> bool {
        self.inner.records_phases()
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
    pub per_phase: BTreeMap<LatencyPhase, Histogram>,
    /// End-to-end delivered latency.
    pub latency: Histogram,
    /// Ordering tax per delivered entry.
    pub tax: Histogram,
    /// How often each phase was an entry's critical path.
    pub critical: BTreeMap<LatencyPhase, u64>,
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
    use crate::group::MsgId;
    use crate::waitgraph::WaitReason;

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
            stage: Stage::Wire { retransmit: false },
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

    fn wait(l: &mut LedgerProbe, who: usize, s: SpanId, phase: LatencyPhase, since: u64, at: u64) {
        l.fold(&ObsEvent::Wait {
            at: t(at),
            who,
            span: s,
            phase,
            pre_send: false,
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
        let s = l.finalize(t(1000), &[]);
        assert_eq!(s.entries.len(), 1);
        let e = &s.entries[0];
        assert_eq!(e.latency(), SimDuration(15));
        assert_eq!(e.segments.len(), 1);
        assert_eq!(e.segments[0].phase, LatencyPhase::Wire);
        assert_eq!(e.tax, SimDuration(0), "FIFO floor equals own arrival");
        assert_eq!(e.critical_path(), Some(LatencyPhase::Wire));
    }

    #[test]
    fn causal_wait_and_tax_attribute_exactly() {
        let mut l = LedgerProbe::new();
        let m = span(0, 1);
        send(&mut l, 0, 0, m);
        wire(&mut l, 20, 1, m);
        wait(&mut l, 1, m, LatencyPhase::Causal, 20, 90);
        delivered(&mut l, 90, 1, m);
        let s = l.finalize(t(1000), &[]);
        let e = &s.entries[0];
        let sum: u64 = e.segments.iter().map(|s| s.dur().0).sum();
        assert_eq!(sum, e.latency().0, "exact tiling");
        assert_eq!(e.critical_path(), Some(LatencyPhase::Causal));
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
            phase: LatencyPhase::Token,
            pre_send: true,
            since: t(0),
            blocker: None,
            note: String::new(),
        });
        wait(&mut l, 2, m, LatencyPhase::Token, 0, 40);
        delivered(&mut l, 40, 2, m);
        let s = l.finalize(t(1000), &[]);
        let e = &s.entries[0];
        let sum: u64 = e.segments.iter().map(|s| s.dur().0).sum();
        assert_eq!(sum, 40, "no double-counting");
        assert_eq!(e.segments.len(), 1);
        assert_eq!(e.segments[0].phase, LatencyPhase::Token);
    }

    /// The wait record of `m` held at `who` since `since`, on `waits`.
    fn held(who: usize, m: SpanId, since: u64, waits: Vec<(WaitNode, WaitReason)>) -> WaitRecord {
        WaitRecord {
            blocked: msg(m),
            who,
            since: t(since),
            slot: None,
            waits,
        }
    }

    fn msg(s: SpanId) -> WaitNode {
        WaitNode::Msg(MsgId {
            sender: s.origin,
            seq: s.seq,
        })
    }

    #[test]
    fn open_entry_charges_its_tail_to_the_wait_that_holds_it() {
        let (m, pred) = (span(4, 33), span(2, 7));
        let mut l = LedgerProbe::new();
        send(&mut l, 100, 4, m);
        wire(&mut l, 120, 0, m);
        wire(&mut l, 130, 1, m);
        let frozen = (WaitNode::Proc(0), WaitReason::Frozen);
        let records = [
            held(0, m, 120, vec![(msg(pred), WaitReason::HeldHere), frozen]),
            held(1, m, 130, vec![(msg(pred), WaitReason::HeldHere)]),
        ];
        let s = l.finalize(t(5_000_000), &records);
        assert_eq!(s.open, 2);
        for e in &s.entries {
            assert!(e.open);
            let sum: u64 = e.segments.iter().map(|s| s.dur().0).sum();
            assert_eq!(sum, e.latency().0);
        }
        // The freeze outranks the predecessor at P0; P1 waits on another
        // sender's message.
        let frozen_at_p0 = s.entry(0, m).unwrap();
        assert_eq!(frozen_at_p0.critical_path(), Some(LatencyPhase::Flush));
        let tail = frozen_at_p0.segments.last().unwrap();
        assert_eq!(tail.note, "delivery frozen by an unfinished flush");
        assert_eq!(
            s.entry(1, m).unwrap().critical_path(),
            Some(LatencyPhase::Causal)
        );
    }

    #[test]
    fn an_undelivered_copy_nothing_holds_is_no_entry() {
        // A copy that arrived, entered a queue and was then purged (or
        // consumed as a duplicate) is held by no wait record at the
        // horizon: not open, not an entry. A parked one is open: no
        // record names a parked copy.
        let (purged, parked) = (span(1, 4), span(3, 5));
        let mut l = LedgerProbe::new();
        for m in [purged, parked] {
            send(&mut l, 0, m.origin, m);
            wire(&mut l, 10, 2, m);
        }
        l.fold(&ObsEvent::Span {
            at: t(10),
            who: 2,
            span: parked,
            stage: Stage::Parked,
            note: String::new(),
        });
        let s = l.finalize(t(1000), &[]);
        assert_eq!(s.open, 1);
        assert!(s.entry(2, purged).is_none());
        let e = s.entry(2, parked).unwrap();
        assert_eq!(e.critical_path(), Some(LatencyPhase::Fifo));
    }

    #[test]
    fn a_retransmitted_first_copy_is_repair_whatever_its_note() {
        let m = span(0, 2);
        let mut l = LedgerProbe::new();
        send(&mut l, 0, 0, m);
        for (who, retransmit, note) in [(1, true, ""), (2, false, "retransmit")] {
            l.fold(&ObsEvent::Span {
                at: t(40),
                who,
                span: m,
                stage: Stage::Wire { retransmit },
                note: note.into(),
            });
            delivered(&mut l, 40, who, m);
        }
        let s = l.finalize(t(1000), &[]);
        assert_eq!(
            s.entry(1, m).unwrap().critical_path(),
            Some(LatencyPhase::Repair)
        );
        assert_eq!(
            s.entry(2, m).unwrap().critical_path(),
            Some(LatencyPhase::Wire)
        );
    }

    #[test]
    fn the_tee_reads_phases_only_for_its_downstream_probe() {
        assert!(!TeeProbe::new(ProbeHandle::none()).records_phases());
        let (recorder, _) = ProbeHandle::recorder(4);
        assert!(TeeProbe::new(recorder).records_phases());
    }

    #[test]
    fn abcast_release_restamps_delivery() {
        let mut l = LedgerProbe::new();
        let m = span(1, 1);
        send(&mut l, 0, 1, m);
        wire(&mut l, 10, 0, m);
        delivered(&mut l, 10, 0, m); // causal delivery
        wait(&mut l, 0, m, LatencyPhase::Order, 10, 55);
        delivered(&mut l, 55, 0, m); // release
        let s = l.finalize(t(1000), &[]);
        let e = &s.entries[0];
        assert_eq!(e.end, t(55));
        let totals = e.phase_totals();
        assert_eq!(totals[&LatencyPhase::Wire], SimDuration(10));
        assert_eq!(totals[&LatencyPhase::Order], SimDuration(45));
        assert_eq!(e.critical_path(), Some(LatencyPhase::Order));
        assert_eq!(s.entries.len(), 1, "restamp is not a second entry");
    }

    #[test]
    fn dropped_duplicate_without_queue_evidence_is_ignored() {
        let mut l = LedgerProbe::new();
        let m = span(0, 7);
        send(&mut l, 0, 0, m);
        wire(&mut l, 30, 2, m); // dup copy, dropped by the endpoint
        let s = l.finalize(t(1000), &[]);
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
        wait(&mut l, 1, m, LatencyPhase::Causal, 60, 80);
        delivered(&mut l, 80, 1, m);
        let s = l.finalize(t(1000), &[]);
        let e = &s.entries[0];
        let totals = e.phase_totals();
        assert_eq!(totals[&LatencyPhase::Wire], SimDuration(10));
        assert_eq!(totals[&LatencyPhase::Fifo], SimDuration(50), "parked gap");
        assert_eq!(totals[&LatencyPhase::Causal], SimDuration(20));
        let sum: u64 = e.segments.iter().map(|s| s.dur().0).sum();
        assert_eq!(sum, e.latency().0);
    }
}
