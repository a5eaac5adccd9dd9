//! T7+ — measured hot-path scaling: holdback indexing × timestamp wire
//! encoding.
//!
//! T7 computes the *analytic* size of the ordering header. This sweep
//! drives real `CbcastEndpoint`s and measures the two §3.4 overheads the
//! implementation can actually do something about:
//!
//! - **bytes/msg** — ordering bytes on each data message as sent, with
//!   full vs delta-encoded vector timestamps (delta falls back to full
//!   whenever it would not be smaller, and for every retransmission);
//! - **work/event** — holdback-queue structural work per wire event at a
//!   receiver under worst-case arrival order (the entire stream
//!   reversed), comparing the linear-scan queue against the indexed
//!   wait-count/ready-queue one.
//!
//! Only a few members are active senders (`ACTIVE_CAP`), the sparse
//! regime where delta encoding pays off; the observer is a silent member
//! whose NACKs are served from a message store, standing in for the
//! buffer-retransmission machinery of a full group.
//!
//! The sweep also measures the constant-metadata discipline
//! (`measure_pccast`): the same sparse workload over pccast's overlay
//! links, where every data copy carries a fixed 33-byte tag regardless
//! of N — the contrast row for the vector-timestamp scaling columns.

use crate::table::Table;
use catocs::cbcast::CbcastEndpoint;
use catocs::group::{CausalDiscipline, GroupConfig};
use catocs::pccast::PccastEndpoint;
use catocs::wire::{Dest, Wire};
use simnet::metrics::{Histogram, Metrics};
use simnet::obs::{perfetto_json, ProbeHandle};
use simnet::time::SimTime;
use std::collections::{HashMap, VecDeque};

/// Senders stay capped so per-message deltas remain sparse as N grows —
/// the regime the paper concedes delta compression targets.
const ACTIVE_CAP: usize = 4;

/// Message-count ceiling: above this, more traffic only repeats the
/// steady state while the N=4096 full-timestamp cells grow quadratically
/// expensive. Sizes up to 1024 are below the cap, so their measurements
/// are unchanged by it.
const TOTAL_CAP: usize = 1024;

/// One measured configuration.
#[derive(Clone, Debug)]
pub(crate) struct HotPathPoint {
    /// Group size.
    pub n: usize,
    /// Indexed holdback queue (vs linear scan).
    pub indexed: bool,
    /// Delta-encoded timestamps (vs always full).
    pub delta: bool,
    /// Ordering overhead bytes per original data message, sender side.
    pub bytes_per_msg: f64,
    /// Fraction of data messages that went out delta-encoded.
    pub delta_share: f64,
    /// Observer holdback structural work per wire event.
    pub work_per_event: f64,
    /// Observer holdback high-water mark.
    pub holdback_peak: u64,
    /// Observer peak of parked (undecodable-yet) delta messages.
    pub parked_peak: u64,
    /// Messages multicast.
    pub sent: u64,
    /// Messages the observer delivered (must equal `sent`).
    pub delivered: u64,
    /// Wire events the observer processed (stream + retransmissions).
    pub wire_events: u64,
    /// Virtual time elapsed over the whole run, µs.
    pub virtual_elapsed_us: u64,
    /// Median observer hold time, ms (reversed arrival holds everything).
    pub hold_p50_ms: f64,
    /// 99th-percentile observer hold time, ms.
    pub hold_p99_ms: f64,
}

/// Runs one configuration and returns its measurements. The observer
/// receives the entire stream in reverse arrival order, maximizing
/// holdback (and, under delta, parking) pressure.
pub(crate) fn measure(n: usize, indexed: bool, delta: bool) -> HotPathPoint {
    measure_with_probe(n, indexed, delta, ProbeHandle::none())
}

/// Like [`measure`], with an observability probe attached to every
/// endpoint. Probes are read-only: the measurements are identical to an
/// unprobed run.
pub(crate) fn measure_with_probe(
    n: usize,
    indexed: bool,
    delta: bool,
    probe: ProbeHandle,
) -> HotPathPoint {
    assert!(n >= 2, "need at least a sender and an observer");
    let active = ACTIVE_CAP.min(n - 1);
    let total = n.clamp(32, TOTAL_CAP);
    let cfg = GroupConfig {
        indexed_holdback: indexed,
        delta_timestamps: delta,
        ..GroupConfig::default()
    };
    let mut metrics = Metrics::new();

    // Active senders multicast round-robin; each message is relayed to
    // the other senders immediately, so every message causally references
    // the whole prefix (one global chain).
    let mut senders: Vec<CbcastEndpoint<u64>> = (0..active)
        .map(|i| {
            let mut e = CbcastEndpoint::new(i, n, cfg.clone());
            e.set_probe(probe.clone());
            e
        })
        .collect();
    let mut wires = Vec::new();
    for step in 0..total {
        let s = step % active;
        let at = SimTime::from_millis(step as u64);
        let (_, out) = senders[s].multicast(at, step as u64);
        let w = out
            .iter()
            .find_map(|(d, w)| match (d, w) {
                (Dest::All, Wire::Data(_)) => Some(w.clone()),
                _ => None,
            })
            .expect("broadcast data message");
        for (r, other) in senders.iter_mut().enumerate() {
            if r != s {
                other.on_wire(at, w.clone());
            }
        }
        metrics.incr("t7p.sent", 1);
        wires.push(w);
    }

    let mut store = HashMap::new();
    for w in &wires {
        if let Wire::Data(d) = w {
            store.insert(d.id, d.clone());
        }
    }

    // The observer sees the stream fully reversed. Its NACKs are served
    // from the store with full-encoded retransmit copies — required for
    // completeness under delta (a full encoding that jumps the decode
    // chain drops the parked deltas behind it).
    let mut observer = CbcastEndpoint::<u64>::new(n - 1, n, cfg);
    observer.set_probe(probe);
    let mut inbox: VecDeque<Wire<u64>> = wires.iter().rev().cloned().collect();
    let mut at = total as u64;
    let mut hold_hist = Histogram::new();
    let mut wire_events = 0u64;
    while let Some(w) = inbox.pop_front() {
        let (dels, outs) = observer.on_wire(SimTime::from_millis(at), w);
        at += 1;
        wire_events += 1;
        for d in &dels {
            if d.was_held() {
                hold_hist.record(d.hold_time());
            }
        }
        metrics.incr("t7p.delivered", dels.len() as u64);
        metrics.gauge_max("t7p.holdback_peak", observer.core().holdback_len() as f64);
        metrics.gauge_max("t7p.parked_peak", observer.parked_len() as f64);
        for (_, ow) in outs {
            if let Wire::Nack { want, .. } = ow {
                for id in want {
                    let mut copy = store[&id].clone();
                    copy.retransmit = true;
                    copy.make_full();
                    inbox.push_back(Wire::Data(copy));
                }
            }
        }
    }

    let mut overhead = 0u64;
    let mut sent = 0u64;
    let mut delta_sent = 0u64;
    for s in &senders {
        overhead += s.stats().data_overhead_bytes;
        sent += s.stats().sent;
        delta_sent += s.stats().ts_delta_sent;
    }
    metrics.incr("t7p.header_bytes", overhead);
    let ostats = observer.stats();
    metrics.incr("t7p.holdback_work", ostats.holdback_work);
    metrics.incr("t7p.holdback_events", ostats.holdback_events);

    HotPathPoint {
        n,
        indexed,
        delta,
        bytes_per_msg: metrics.counter("t7p.header_bytes") as f64
            / metrics.counter("t7p.sent") as f64,
        delta_share: delta_sent as f64 / sent as f64,
        work_per_event: ostats.holdback_work_per_event(),
        holdback_peak: ostats.holdback_peak,
        parked_peak: metrics.gauge("t7p.parked_peak") as u64,
        sent: metrics.counter("t7p.sent"),
        delivered: metrics.counter("t7p.delivered"),
        wire_events,
        virtual_elapsed_us: SimTime::from_millis(at).as_micros(),
        hold_p50_ms: hold_hist.quantile(0.50).as_millis_f64(),
        hold_p99_ms: hold_hist.quantile(0.99).as_millis_f64(),
    }
}

/// One measured pccast configuration. The discipline has no holdback
/// scan/index or full/delta axes — ordering metadata is a constant tag —
/// so a single point per N suffices.
#[derive(Clone, Debug)]
pub(crate) struct PcPoint {
    /// Group size.
    pub n: usize,
    /// Ordering overhead bytes per original data message, sender side.
    /// Constant by construction: 12 (id) + 20 (link tag) + 1 (flag).
    pub bytes_per_msg: f64,
    /// Observer peak of copies parked in per-link reorder buffers.
    pub linkbuf_peak: u64,
    /// Messages multicast.
    pub sent: u64,
    /// Messages the observer delivered (must equal `sent`).
    pub delivered: u64,
    /// Median observer hold time, ms (reversed links hold everything).
    pub hold_p50_ms: f64,
    /// 99th-percentile observer hold time, ms.
    pub hold_p99_ms: f64,
}

/// Runs the same sparse workload under the constant-metadata discipline.
///
/// Only the active senders and the observer are instantiated; the idle
/// members exist in the membership map but never touch a wire, so ring
/// links addressed to them evaporate. What remains of the overlay is the
/// chain `observer ↔ 0 ↔ 1 ↔ … ↔ active-1`: every delivery still floods
/// down every live link, and the observer receives the whole stream
/// through its link from member 0 (plus, at small N, the wrap-around
/// link). The observer's link streams are fed fully reversed —
/// the per-link analogue of the cbcast observer's reversed arrival —
/// so every copy sits in a reorder buffer before the cursor sweeps it.
pub(crate) fn measure_pccast(n: usize) -> PcPoint {
    measure_pccast_with_probe(n, ProbeHandle::none())
}

/// Like [`measure_pccast`], with an observability probe attached to
/// every endpoint. Probes are read-only: a probed run measures exactly
/// like an unprobed run.
pub(crate) fn measure_pccast_with_probe(n: usize, probe: ProbeHandle) -> PcPoint {
    assert!(n >= 2, "need at least a sender and an observer");
    let active = ACTIVE_CAP.min(n - 1);
    let total = n.clamp(32, TOTAL_CAP);
    let cfg = GroupConfig {
        discipline: CausalDiscipline::Pccast,
        ..GroupConfig::default()
    };
    let observer_id = n - 1;

    let mut senders: Vec<PccastEndpoint<u64>> = (0..active)
        .map(|i| PccastEndpoint::new(i, n, cfg.clone()))
        .collect();
    for s in &mut senders {
        s.core_mut().set_probe(probe.clone());
    }

    // Phase 1: round-robin multicasts, relayed to quiescence among the
    // senders before the next send (one global causal chain, as in the
    // cbcast harness). Copies addressed to the observer are stashed;
    // copies addressed to idle members are dropped on the floor.
    let mut obs_stream: Vec<Wire<u64>> = Vec::new();
    let mut queue: VecDeque<(usize, Wire<u64>)> = VecDeque::new();
    let route = |out: Vec<(Dest, Wire<u64>)>,
                 queue: &mut VecDeque<(usize, Wire<u64>)>,
                 obs_stream: &mut Vec<Wire<u64>>| {
        for (d, w) in out {
            match d {
                Dest::One(p) if p == observer_id => obs_stream.push(w),
                Dest::One(p) if p < active => queue.push_back((p, w)),
                // Idle member: the link copy evaporates unacknowledged.
                _ => {}
            }
        }
    };
    for step in 0..total {
        let s = step % active;
        let at = SimTime::from_millis(step as u64);
        let (_, out) = senders[s].multicast(at, step as u64);
        route(out, &mut queue, &mut obs_stream);
        while let Some((p, w)) = queue.pop_front() {
            let (_, out) = senders[p].on_wire(at, w);
            route(out, &mut queue, &mut obs_stream);
        }
    }

    // Phase 2: the observer consumes its link streams fully reversed.
    // The stream is complete (no loss), so no NACK service is needed:
    // every stalled link head resolves when the earlier positions land.
    let mut observer = PccastEndpoint::<u64>::new(observer_id, n, cfg);
    observer.core_mut().set_probe(probe);
    let mut hold_hist = Histogram::new();
    let mut linkbuf_peak = 0usize;
    let mut delivered = 0u64;
    for (at, w) in (total as u64..).zip(obs_stream.into_iter().rev()) {
        let (dels, _outs) = observer.on_wire(SimTime::from_millis(at), w);
        delivered += dels.len() as u64;
        for d in &dels {
            if d.was_held() {
                hold_hist.record(d.hold_time());
            }
        }
        linkbuf_peak = linkbuf_peak.max(observer.link_buffered_len());
    }

    let mut overhead = 0u64;
    let mut sent = 0u64;
    for s in &senders {
        overhead += s.core().stats().data_overhead_bytes;
        sent += s.core().stats().sent;
    }
    PcPoint {
        n,
        bytes_per_msg: overhead as f64 / sent as f64,
        linkbuf_peak: linkbuf_peak as u64,
        sent,
        delivered,
        hold_p50_ms: hold_hist.quantile(0.50).as_millis_f64(),
        hold_p99_ms: hold_hist.quantile(0.99).as_millis_f64(),
    }
}

/// Runs one configuration with the flight recorder attached and exports
/// the recorded spans and phases as Chrome trace-event JSON (load in
/// Perfetto / `chrome://tracing`): one track group per process, spans
/// on tid 1, protocol phases on tid 2, flow arrows from each send to
/// its wire arrival.
pub fn perfetto(n: usize, indexed: bool, delta: bool) -> String {
    recorded(n, |probe| {
        measure_with_probe(n, indexed, delta, probe);
    })
}

/// [`perfetto`] for the constant-metadata discipline: the same sparse
/// workload over pccast's overlay links, with reorder-buffer residence
/// as held slices, link ack/skip/repair phases, and send→wire flow
/// arrows — trace parity with the cbcast export.
pub fn perfetto_pccast(n: usize) -> String {
    recorded(n, |probe| {
        measure_pccast_with_probe(n, probe);
    })
}

/// The trace of one sparse run of `n` members under the flight recorder,
/// tracks named by role.
fn recorded(n: usize, run: impl FnOnce(ProbeHandle)) -> String {
    let (probe, rec) = ProbeHandle::recorder(8192);
    run(probe);
    let active = ACTIVE_CAP.min(n - 1);
    let names: Vec<String> = (0..n)
        .map(|p| {
            if p == n - 1 {
                "observer".to_string()
            } else if p < active {
                format!("sender{p}")
            } else {
                "idle".to_string()
            }
        })
        .collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let rec = rec.borrow();
    perfetto_json(None, Some(&rec), n, &refs)
}

/// Runs the full sweep: sizes × {scan, indexed} × {full, delta}.
pub fn run(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        format!(
            "T7+ — measured hot path: holdback impl × timestamp encoding \
             ({ACTIVE_CAP} active senders, reversed arrival at observer)"
        ),
        &[
            "N",
            "holdback",
            "timestamps",
            "bytes/msg",
            "delta share",
            "work/event",
            "holdback peak",
            "parked peak",
            "hold p50 ms",
            "hold p99 ms",
            "delivered/sent",
        ],
    );
    for &n in sizes {
        for (indexed, delta) in [(false, false), (false, true), (true, false), (true, true)] {
            // The scan queue's quadratic per-event work is established by
            // N≤256; at N≥1024 those cells only burn minutes re-proving
            // it, so the large sizes run the indexed configurations only.
            if n >= 1024 && !indexed {
                continue;
            }
            let p = measure(n, indexed, delta);
            t.row(vec![
                p.n.into(),
                if p.indexed { "indexed" } else { "scan" }.into(),
                if p.delta { "delta" } else { "full" }.into(),
                p.bytes_per_msg.into(),
                format!("{:.0}%", 100.0 * p.delta_share).into(),
                p.work_per_event.into(),
                p.holdback_peak.into(),
                p.parked_peak.into(),
                p.hold_p50_ms.into(),
                p.hold_p99_ms.into(),
                format!("{}/{}", p.delivered, p.sent).into(),
            ]);
        }
        let p = measure_pccast(n);
        t.row(vec![
            p.n.into(),
            "links".into(),
            "pc".into(),
            p.bytes_per_msg.into(),
            "—".into(),
            0.0.into(),
            p.linkbuf_peak.into(),
            0u64.into(),
            p.hold_p50_ms.into(),
            p.hold_p99_ms.into(),
            format!("{}/{}", p.delivered, p.sent).into(),
        ]);
    }
    t.note("bytes/msg: delta undercuts full once N dwarfs the active-sender");
    t.note("count; at small N it falls back to full (delta share 0%).");
    t.note("work/event: the scan queue's per-event work grows with the");
    t.note("holdback high-water mark; the indexed queue's stays flat.");
    t.note("hold p50/p99: observer hold times under reversed arrival —");
    t.note("identical across holdback impls (ordering is fixed by the");
    t.note("protocol), so they isolate structural work from wait time.");
    t.note("links/pc rows: the constant-metadata discipline (pccast); its");
    t.note("bytes/msg is the fixed 33-byte link tag at every N, and the");
    t.note("holdback-peak column reports its per-link reorder-buffer peak");
    t.note("under fully reversed link streams. Scan cells stop at N=256.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_configuration_delivers_everything() {
        for (indexed, delta) in [(false, false), (false, true), (true, false), (true, true)] {
            let p = measure(16, indexed, delta);
            assert_eq!(
                p.delivered, p.sent,
                "indexed={indexed} delta={delta}: observer must deliver all"
            );
        }
    }

    #[test]
    fn delta_reduces_bytes_per_msg_at_scale() {
        let full = measure(256, true, false);
        let delta = measure(256, true, true);
        assert!(
            delta.bytes_per_msg < full.bytes_per_msg / 4.0,
            "delta {} vs full {} bytes/msg",
            delta.bytes_per_msg,
            full.bytes_per_msg
        );
        assert!(delta.delta_share > 0.9, "share {}", delta.delta_share);
    }

    #[test]
    fn indexed_work_per_event_stays_flat() {
        let scan_small = measure(16, false, false);
        let scan_large = measure(256, false, false);
        let idx_small = measure(16, true, false);
        let idx_large = measure(256, true, false);
        let delta_small = measure(16, true, true);
        let delta_large = measure(256, true, true);
        // The scan queue's per-event work tracks the holdback size...
        assert!(
            scan_large.work_per_event > 4.0 * scan_small.work_per_event,
            "scan work/event {} -> {}",
            scan_small.work_per_event,
            scan_large.work_per_event
        );
        // ...the indexed queue's does not (registrations are bounded by
        // the active-sender count, not the queue length)...
        assert!(
            idx_large.work_per_event < 4.0 * idx_small.work_per_event.max(1.0),
            "indexed work/event {} -> {}",
            idx_small.work_per_event,
            idx_large.work_per_event
        );
        // ...nor under delta stamps, where each gap a parked copy opens
        // is registered once, not probed again by every later arrival.
        assert!(
            delta_large.work_per_event < 2.0 * delta_small.work_per_event,
            "indexed+delta work/event {} -> {}",
            delta_small.work_per_event,
            delta_large.work_per_event
        );
        assert!(
            idx_large.work_per_event < scan_large.work_per_event / 4.0,
            "indexed {} vs scan {} at N=256",
            idx_large.work_per_event,
            scan_large.work_per_event
        );
    }

    #[test]
    fn table_has_full_grid() {
        // Four cbcast cells plus one pccast row per size.
        let t = run(&[4, 16]);
        assert_eq!(t.rows.len(), 10);
    }

    #[test]
    fn pccast_tag_is_constant_across_group_sizes() {
        let small = measure_pccast(16);
        let large = measure_pccast(4096);
        // 12 (id) + 20 (link tag) + 1 (flag) at every N — the discipline's
        // whole point. Compare against cbcast's growth at the same sizes.
        assert_eq!(small.bytes_per_msg, 33.0);
        assert_eq!(large.bytes_per_msg, 33.0);
        assert_eq!(small.delivered, small.sent);
        assert_eq!(large.delivered, large.sent);
        // Message volume is capped: N=4096 still sends TOTAL_CAP messages.
        assert_eq!(large.sent, TOTAL_CAP as u64);
    }

    #[test]
    fn pccast_reversed_links_hold_and_then_deliver_everything() {
        let p = measure_pccast(64);
        assert_eq!(p.delivered, p.sent);
        assert!(p.linkbuf_peak > 0, "reversed links must buffer");
        assert!(p.hold_p50_ms > 0.0, "p50 {}", p.hold_p50_ms);
        assert!(p.hold_p99_ms >= p.hold_p50_ms);
    }

    #[test]
    fn message_volume_cap_leaves_smaller_sizes_unchanged() {
        // The cap binds only above N=1024, so the long-standing N≤1024
        // measurements are identical with or without it.
        let p = measure(1024, true, true);
        assert_eq!(p.sent, 1024);
        let q = measure_pccast(1024);
        assert_eq!(q.sent, 1024);
    }

    #[test]
    fn hold_quantiles_are_populated_and_ordered() {
        let p = measure(16, true, false);
        // Reversed arrival holds nearly everything, so both quantiles
        // must be positive and ordered.
        assert!(p.hold_p50_ms > 0.0, "p50 {}", p.hold_p50_ms);
        assert!(p.hold_p99_ms >= p.hold_p50_ms);
        assert!(p.wire_events >= p.sent);
        assert!(p.virtual_elapsed_us > 0);
    }

    #[test]
    fn probed_measurement_is_identical() {
        let plain = measure(16, true, true);
        let (probe, _rec) = ProbeHandle::recorder(256);
        let probed = measure_with_probe(16, true, true, probe);
        assert_eq!(format!("{plain:?}"), format!("{probed:?}"));
    }

    #[test]
    fn perfetto_export_is_structurally_valid() {
        use simnet::json::JsonValue;
        let out = perfetto(8, true, true);
        let doc = JsonValue::parse(&out).expect("perfetto output parses");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let mut pids = std::collections::BTreeSet::new();
        for ev in events {
            let ph = ev.get("ph").and_then(JsonValue::as_str).expect("ph");
            assert!(
                ["M", "X", "B", "E", "s", "f", "i"].contains(&ph),
                "unexpected phase {ph}"
            );
            pids.insert(ev.get("pid").and_then(JsonValue::as_u64).expect("pid"));
            if ph != "M" {
                assert!(ev.get("ts").and_then(JsonValue::as_u64).is_some());
            }
        }
        // The observer and at least one sender left events.
        assert!(pids.contains(&7), "observer track missing: {pids:?}");
        assert!(pids.contains(&0), "sender track missing: {pids:?}");
    }

    #[test]
    fn probed_pccast_measurement_is_identical() {
        let plain = measure_pccast(16);
        let (probe, _rec) = ProbeHandle::recorder(256);
        let probed = measure_pccast_with_probe(16, probe);
        assert_eq!(format!("{plain:?}"), format!("{probed:?}"));
    }

    /// Trace parity for the constant-metadata discipline: the export
    /// parses, carries reorder-buffer residence slices from the reversed
    /// observer links, and flow arrows from each send to its wire
    /// arrival.
    #[test]
    fn pccast_perfetto_export_is_structurally_valid() {
        use simnet::json::JsonValue;
        let out = perfetto_pccast(8);
        let doc = JsonValue::parse(&out).expect("pccast perfetto output parses");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        let mut reorder_slices = 0u64;
        let mut flow_starts = 0u64;
        let mut flow_ends = 0u64;
        for ev in events {
            let ph = ev.get("ph").and_then(JsonValue::as_str).expect("ph");
            assert!(
                ["M", "X", "B", "E", "s", "f", "i"].contains(&ph),
                "unexpected phase {ph}"
            );
            let name = ev.get("name").and_then(JsonValue::as_str).unwrap_or("");
            if name.contains("reorder") {
                reorder_slices += 1;
            }
            match ph {
                "s" => flow_starts += 1,
                "f" => flow_ends += 1,
                _ => {}
            }
        }
        assert!(reorder_slices > 0, "no reorder-buffer slices in the trace");
        assert!(flow_starts > 0, "no send→wire flow arrows started");
        assert!(flow_ends > 0, "no send→wire flow arrows finished");
    }
}
