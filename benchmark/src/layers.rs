//! The traced run: one set-up, a few untraced repetitions for reference,
//! one repetition under spans, the endpoint replay, the micro-probes —
//! and from them every per-layer row of the catalogue.

use crate::catalogue::PER_LAYER;
use crate::measure::{calibrate, oncpu_ns};
use crate::outcome::{median, quartiles, range, Outcome};
use crate::probes::{self, Shape, Stamp};
use crate::replay::{replay_dense, Replay, MULTICAST, ON_TICK};
use crate::sparse::Sparse;
use crate::trace::{span_cost_ns, Aggregate, TraceHandle, WireKind};
use crate::workload::{Scale, TraceExtras, Workload};
use catocs::group::CausalDiscipline;
use std::collections::BTreeMap;
use std::time::Instant;

/// Untraced repetitions the traced run times for reference: the fewest
/// whose quartiles are not simply their extremes.
pub const REFERENCE_REPS: usize = 5;
/// Campaigns each observer setting of the `obs.*` rows runs.
const OBSERVER_CAMPAIGNS: usize = 12;

/// Reads the traced binary's counting allocator: (allocations, bytes)
/// since process start.
pub type AllocReader = fn() -> (u64, u64);

/// What the traced run produced.
#[derive(Clone, Debug)]
pub struct TracedRun {
    /// Every per-layer metric of the catalogue, in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Checks made.
    pub attempted: u64,
    /// Checks failed: the workload's own, a reference repetition that
    /// differed, a traced digest that differed from the untraced one, a
    /// replay that delivered something else.
    pub failed: u64,
    /// Per-name span aggregates of the traced repetition.
    pub spans: Vec<Aggregate>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn row<'a>(spans: &'a [Aggregate], name: &str) -> Option<&'a Aggregate> {
    spans.iter().find(|a| a.name == name)
}

fn total_ns(spans: &[Aggregate], name: &str) -> f64 {
    row(spans, name).map_or(0.0, |a| a.total_ns as f64)
}

fn calls(spans: &[Aggregate], name: &str) -> f64 {
    row(spans, name).map_or(0.0, |a| a.calls as f64)
}

fn per_call(spans: &[Aggregate], name: &str) -> f64 {
    ratio(total_ns(spans, name), calls(spans, name))
}

/// The operand shape of `workload`'s run for the micro-probes.
fn shape_of(workload: &Workload, outcome: &Outcome) -> Shape {
    let holdback = outcome.endpoint.holdback_peak.max(1) as usize;
    match workload {
        Workload::Dense(d) => Shape {
            n: d.n,
            active: d.n,
            holdback,
            stamp: if d.is_causal() && d.causal == CausalDiscipline::Pccast {
                Stamp::Pc
            } else {
                Stamp::Full
            },
        },
        Workload::Sparse(s) => Shape {
            n: s.n,
            active: s.senders.len(),
            holdback,
            stamp: Stamp::Delta,
        },
        Workload::Chaos(c) => Shape {
            n: c.cfg.n,
            active: c.cfg.n,
            holdback,
            stamp: Stamp::Full,
        },
    }
}

/// Runs workload `name` traced. `alloc` reads the counting allocator
/// (the traced binary links one; tests pass `None`). `None` for an
/// unknown name.
pub fn traced_run(
    name: &str,
    seed: u64,
    scale: &Scale,
    process_start: Instant,
    alloc: Option<AllocReader>,
) -> Option<TracedRun> {
    let workload = Workload::generate(name, seed, scale)?;
    let warm = workload.execute();
    let setup_first_s = process_start.elapsed().as_secs_f64();
    let calib = calibrate();

    // Reference: the same work untraced, with allocations counted.
    let mut failed = warm.outcome.failed;
    let mut attempted = warm.outcome.attempted;
    let mut walls = Vec::with_capacity(REFERENCE_REPS);
    let read_alloc = || alloc.map_or((0, 0), |read| read());
    let (cpu0, span0, alloc0) = (oncpu_ns(), Instant::now(), read_alloc());
    let mut outcome = warm.outcome.clone();
    for _ in 0..REFERENCE_REPS {
        let rep = workload.execute();
        walls.push(rep.wall.as_secs_f64());
        attempted += 1;
        failed += u64::from(!warm.outcome.same_run(&rep.outcome));
        outcome = rep.outcome;
    }
    let alloc1 = read_alloc();
    let oncpu_share = ratio(
        (oncpu_ns() - cpu0) as f64,
        span0.elapsed().as_nanos() as f64,
    );
    let reference_s = median(&walls);
    let (wall_q1, wall_q3) = quartiles(&walls);

    // The traced repetition.
    let trace = TraceHandle::new(outcome.events as usize * 2 + 4096);
    let (traced, extras) = workload.execute_traced(&trace);
    let spans = trace.aggregate();
    let n_spans = trace.len() as f64;
    drop(trace);
    attempted += 1;
    failed += u64::from(traced.outcome.digest != outcome.digest);
    let (base_s, traced_s) = match (&extras.mirror, &workload) {
        (Some(m), Workload::Chaos(c)) => {
            c.apply_mirror(&mut outcome, m);
            (m.wall.as_secs_f64(), traced.wall.as_secs_f64())
        }
        _ => (reference_s, traced.wall.as_secs_f64()),
    };

    // The endpoint alone.
    let (replay, matched) = replay_of(&workload, &extras, &traced.outcome, &outcome);
    attempted += 1;
    failed += u64::from(!matched);

    let probe = probes::run(&shape_of(&workload, &outcome));
    let observer = match &workload {
        Workload::Chaos(c) => Some(c.observer_walls(OBSERVER_CAMPAIGNS.min(c.seeds.len()))),
        _ => None,
    };
    let span_cost = span_cost_ns();

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let o = &outcome;
    let e = &o.endpoint;
    let deliveries = o.deliveries as f64;
    let multicasts = o.multicasts as f64;
    let has_simnet = !matches!(workload, Workload::Sparse(_));
    let traced_ns = traced_s * 1e9;

    if has_simnet {
        let run_until = row(&spans, "simnet.run_until");
        let self_ns = run_until.map_or(0.0, |a| a.self_ns as f64);
        m.insert("simnet.events", o.events as f64);
        m.insert(
            "simnet.events_per_delivery",
            ratio(o.events as f64, deliveries),
        );
        m.insert(
            "simnet.dispatch.self_ns_per_event",
            ratio(self_ns, o.events as f64),
        );
        m.insert("simnet.dispatch.self_share", ratio(self_ns, traced_ns));
        m.insert("simnet.net.sent", o.net.sent as f64);
        m.insert("simnet.net.dropped", o.net.dropped as f64);
        m.insert("simnet.net.delivered", o.net.delivered as f64);
        m.insert(
            "harness.on_message.calls",
            calls(&spans, "harness.on_message"),
        );
        m.insert(
            "harness.on_message.ns_per_op",
            per_call(&spans, "harness.on_message"),
        );
        m.insert("harness.on_timer.calls", calls(&spans, "harness.on_timer"));
        m.insert(
            "harness.on_timer.ns_per_op",
            per_call(&spans, "harness.on_timer"),
        );
    }

    // Endpoint rows: from the replay where one ran, from direct spans on
    // reversed_sparse.
    m.insert("endpoint.multicast.calls", multicasts);
    m.insert("endpoint.on_wire.data.calls", e.data_received as f64);
    m.insert(
        "endpoint.replay.delivered_match",
        f64::from(u8::from(matched)),
    );
    let endpoint_ns = match (&replay, &workload) {
        (Some(r), Workload::Dense(d)) => {
            m.insert("endpoint.multicast.ns_per_op", r.ns_per_op(MULTICAST));
            for k in WireKind::ALL {
                m.insert(k.ns_metric(), r.ns_per_op(k as usize));
            }
            m.insert("endpoint.on_tick.ns_per_op", r.ns_per_op(ON_TICK));
            let on_wire: f64 = WireKind::ALL
                .iter()
                .map(|&k| r.ns_per_op(k as usize) * extras.wire_kinds[k as usize] as f64)
                .sum();
            on_wire
                + r.ns_per_op(MULTICAST) * multicasts
                + r.ns_per_op(ON_TICK) * (r.calls[ON_TICK] * d.n as u64) as f64
        }
        (_, Workload::Sparse(_)) => {
            m.insert(
                "endpoint.multicast.ns_per_op",
                per_call(&spans, "endpoint.multicast"),
            );
            m.insert(
                "endpoint.on_wire.data.ns_per_op",
                per_call(&spans, "endpoint.on_wire.data"),
            );
            total_ns(&spans, "endpoint.multicast") + total_ns(&spans, "endpoint.on_wire.data")
        }
        _ => 0.0,
    };
    if has_simnet && replay.is_some() {
        let handlers = ["harness.on_start", "harness.on_message", "harness.on_timer"];
        let handler_ns: f64 = handlers.iter().map(|h| total_ns(&spans, h)).sum();
        let handler_calls: f64 = handlers.iter().map(|h| calls(&spans, h)).sum();
        m.insert(
            "harness.glue.self_ns_per_event",
            ratio((handler_ns - endpoint_ns).max(0.0), handler_calls),
        );
    }
    m.insert("endpoint.self_share", ratio(endpoint_ns, base_s * 1e9));

    m.insert("holdback.insert.ns_per_op", probe.holdback_insert);
    m.insert("holdback.pop_ready.ns_per_op", probe.holdback_pop_ready);
    m.insert("holdback.work_per_event", e.holdback_work_per_event());
    m.insert("holdback.peak", e.holdback_peak as f64);
    m.insert("holdback.held_share", e.held_fraction());
    m.insert("clocks.vector.merge.ns_per_op", probe.vector_merge);
    m.insert("clocks.vector.compare.ns_per_op", probe.vector_compare);
    m.insert(
        "clocks.vector.deliverable.ns_per_op",
        probe.vector_deliverable,
    );
    m.insert("clocks.vector.clone.ns_per_op", probe.vector_clone);
    m.insert(
        "clocks.vector.encode_delta.ns_per_op",
        probe.vector_encode_delta,
    );
    m.insert(
        "clocks.vector.decode_delta.ns_per_op",
        probe.vector_decode_delta,
    );
    m.insert(
        "clocks.matrix.update_row.ns_per_op",
        probe.matrix_update_row,
    );
    m.insert(
        "clocks.matrix.stable_frontier.ns_per_op",
        probe.matrix_stable_frontier,
    );
    m.insert("wire.clone.data.ns_per_op", probe.wire_clone_data);
    m.insert("wire.clone.ack.ns_per_op", probe.wire_clone_ack);
    m.insert(
        "wire.data_overhead_bytes_per_msg",
        ratio(e.data_overhead_bytes as f64, multicasts),
    );
    m.insert(
        "wire.control_bytes_per_multicast",
        ratio(e.control_bytes as f64, multicasts),
    );
    m.insert(
        "wire.delta_share",
        ratio(
            e.ts_delta_sent as f64,
            (e.ts_delta_sent + e.ts_full_sent) as f64,
        ),
    );
    m.insert("stability.update_row.ns_per_op", probe.stability_update_row);
    m.insert(
        "stability.stable_frontier.ns_per_op",
        probe.stability_stable_frontier,
    );
    m.insert("stability.buffered_peak", e.buffered_peak as f64);
    m.insert("stability.stabilized", e.stabilized as f64);
    m.insert("repair.nacks_sent", e.nacks_sent as f64);
    m.insert("repair.retransmits_served", e.retransmits_served as f64);
    m.insert("repair.duplicates", e.duplicates as f64);
    m.insert(
        "repair.useful_share",
        1.0 - ratio(e.duplicates as f64, e.data_received as f64),
    );
    m.insert(
        "membership.flush_round.ns_per_op",
        probe.membership_flush_round,
    );

    if let (Workload::Chaos(_), Some(mirror), Some(walls)) = (&workload, &extras.mirror, observer) {
        let ms = &o.membership;
        m.insert("membership.view_changes", ms.view_changes as f64);
        m.insert("membership.flush_msgs", ms.flush_msgs as f64);
        m.insert("membership.flush_retries", ms.flush_retries as f64);
        m.insert("membership.evicted_live", ms.evicted_live as f64);
        if !ms.blackouts_vms.is_empty() {
            m.insert("membership.blackout_p50_vms", median(&ms.blackouts_vms));
            m.insert("membership.blackout_max_vms", range(&ms.blackouts_vms).1);
        }
        m.insert(
            "vsync.campaign.ns_per_event",
            ratio(reference_s * 1e9, o.events as f64),
        );
        m.insert(
            "vsync.check.ns_per_log_event",
            ratio(
                mirror.check_wall.as_nanos() as f64,
                mirror.log_events as f64,
            ),
        );
        m.insert(
            "vsync.check.share",
            ratio(mirror.check_wall.as_secs_f64(), mirror.wall.as_secs_f64()),
        );
        let [bare, ledger_on, probe_on] = walls.map(|w| w.as_secs_f64());
        m.insert("obs.ledger.overhead_ratio", ratio(ledger_on, bare));
        m.insert("obs.probe.overhead_ratio", ratio(probe_on, bare));
    }

    let reps = REFERENCE_REPS as f64;
    m.insert(
        "alloc.count_per_delivery",
        ratio((alloc1.0 - alloc0.0) as f64 / reps, deliveries),
    );
    m.insert(
        "alloc.bytes_per_delivery",
        ratio((alloc1.1 - alloc0.1) as f64 / reps, deliveries),
    );
    m.insert("run.reps", reps);
    m.insert("run.rep_iqr_share", ratio(wall_q3 - wall_q1, reference_s));
    m.insert("run.oncpu_share", oncpu_share);
    m.insert("run.calib_ns_per_iter", calib);
    m.insert("run.setup_first_s", setup_first_s);
    m.insert("trace.overhead_ratio", ratio(traced_s, base_s));
    m.insert(
        "trace.residual_share",
        ratio(
            (traced_ns - n_spans * span_cost - base_s * 1e9).abs(),
            base_s * 1e9,
        ),
    );

    // Every catalogue row, 0 where the layer does not run here.
    let metrics = PER_LAYER
        .iter()
        .map(|p| (p.name, m.remove(p.name).unwrap_or(0.0)))
        .collect();
    assert!(
        m.is_empty(),
        "rows missing from the catalogue: {:?}",
        m.keys()
    );
    Some(TracedRun {
        metrics,
        attempted,
        failed,
        spans,
    })
}

/// Replays what the traced repetition recorded and says whether the
/// replay delivered exactly what the run did.
fn replay_of(
    workload: &Workload,
    extras: &TraceExtras,
    traced: &Outcome,
    untraced: &Outcome,
) -> (Option<Replay>, bool) {
    match workload {
        Workload::Dense(d) => {
            let r = replay_dense(d, d.sampled_member(), &extras.tape);
            let matched = r.delivered == extras.sampled_delivered;
            (Some(r), matched)
        }
        Workload::Sparse(s) => {
            // The endpoints are already driven directly; replay the
            // first observer alone, without spans.
            let alone = Sparse {
                observers: s.observers[..1].to_vec(),
                ..s.clone()
            };
            let (_, logs) = alone.execute_logs(None);
            let delivered: Vec<(u32, u32)> = logs[0]
                .iter()
                .map(|&(p, at, _)| (p as u32, at as u32))
                .collect();
            (None, delivered == extras.sampled_delivered)
        }
        // The endpoint sits behind ChaosNode's membership and failure
        // state and cannot be replayed alone; the mirrored campaigns
        // reproducing run_campaign's logs is the equivalent check.
        Workload::Chaos(_) => (None, traced.digest == untraced.digest),
    }
}
