//! bench — the quantitative performance snapshot behind `experiments
//! bench` and the BENCH_*.json regression gate.
//!
//! Four deterministic workloads, one seed:
//!
//! - the T7+ hot path at N=64 across the full {scan,indexed} ×
//!   {full,delta} grid — bytes/msg, holdback work/event, hold-time
//!   quantiles, and virtual-time throughput per configuration;
//! - the T7+ N-scaling points (indexed+delta) — how work/event and
//!   bytes/msg move with group size;
//! - sampler-instrumented simulated groups (causal and token-ring) —
//!   deliveries and scheduler events per virtual second, hold-time
//!   quantiles, and time-series peaks (holdback depth, stability-horizon
//!   lag, token queue);
//! - a cut of the chaos campaign — deliveries, scheduler work and hold
//!   times under fault injection.
//!
//! Virtual-time metrics are exactly reproducible (`det: true`) and make
//! up the whole default snapshot, so rerunning the same seed produces a
//! byte-identical file. Wall-clock cost is the business of the separate
//! `benchmark/` package.

use crate::experiments::latency;
use crate::experiments::replay::{Algo, Replay};
use crate::table::Table;
use crate::telemetry::{BenchSnapshot, Direction};
use catocs::endpoint::Discipline;
use catocs::group::GroupConfig;
use catocs::harness::{spawn_group, Chatter};
use catocs::ledger::{LatencySummary, PhaseId};
use catocs::wire::Wire;
use simnet::metrics::Histogram;
use simnet::net::NetConfig;
use simnet::sim::SimBuilder;
use simnet::time::{SimDuration, SimTime};

use super::t7plus;

/// The seed every deterministic workload runs under.
pub const SNAPSHOT_SEED: u64 = 42;

/// Group size for the simulated-group workloads.
const GROUP_N: usize = 8;
/// Virtual horizon of each simulated-group run.
const GROUP_HORIZON: SimTime = SimTime::from_secs(5);
/// Sampling cadence for the time-series gauges.
const SAMPLE_EVERY: SimDuration = SimDuration::from_millis(50);
/// Messages each member multicasts (one per app tick).
const GROUP_MSGS: u32 = 40;
/// Group size of the T7+ grid cell the per-config metrics come from.
const GRID_N: usize = 64;
/// Chaos campaign seeds folded into the snapshot.
const CHAOS_SEEDS: u64 = 4;

/// What one simulated-group run measured.
struct GroupRun {
    delivered: u64,
    events: u64,
    hold: Histogram,
    /// (series name, max over the run) for every sampled series.
    series_max: Vec<(String, f64)>,
}

fn run_group(discipline: Discipline) -> GroupRun {
    let mut sim = SimBuilder::new(SNAPSHOT_SEED)
        .net(NetConfig::lossy_lan(0.02))
        .sample_every(SAMPLE_EVERY)
        .build::<Wire<u64>>();
    spawn_group(
        &mut sim,
        GROUP_N,
        discipline,
        GroupConfig::default(),
        Some(SimDuration::from_millis(20)),
        |_| Chatter {
            remaining: GROUP_MSGS,
            burst: 1,
        },
    );
    let events = sim.run_until(GROUP_HORIZON);
    let m = sim.metrics();
    GroupRun {
        delivered: m.counter("group.delivered"),
        events,
        hold: m.histogram("group.hold_time").cloned().unwrap_or_default(),
        series_max: m
            .series()
            .map(|(name, s)| (name.to_string(), s.max_value()))
            .collect(),
    }
}

fn push_group(snap: &mut BenchSnapshot, prefix: &str, r: &GroupRun) {
    let vsecs = GROUP_HORIZON.as_secs_f64();
    snap.push(
        format!("{prefix}.delivered"),
        r.delivered as f64,
        "msgs",
        Direction::HigherIsBetter,
        true,
    );
    snap.push(
        format!("{prefix}.deliveries_per_vsec"),
        r.delivered as f64 / vsecs,
        "msg/vsec",
        Direction::HigherIsBetter,
        true,
    );
    snap.push(
        format!("{prefix}.events_per_vsec"),
        r.events as f64 / vsecs,
        "ev/vsec",
        Direction::LowerIsBetter,
        true,
    );
    snap.push(
        format!("{prefix}.hold_p50_ms"),
        r.hold.quantile(0.50).as_millis_f64(),
        "ms",
        Direction::LowerIsBetter,
        true,
    );
    snap.push(
        format!("{prefix}.hold_p99_ms"),
        r.hold.quantile(0.99).as_millis_f64(),
        "ms",
        Direction::LowerIsBetter,
        true,
    );
    for (name, max) in &r.series_max {
        // Peaks of the sampled queue/buffer gauges; `ts.sim.queue.*` and
        // the `.sum` aggregates stay out to keep the snapshot focused.
        if let Some(short) = name
            .strip_prefix("ts.")
            .and_then(|n| n.strip_suffix(".max"))
        {
            if short.starts_with("sim.") {
                continue;
            }
            snap.push(
                format!("{prefix}.ts.{short}_peak"),
                *max,
                "msgs",
                Direction::LowerIsBetter,
                true,
            );
        }
    }
}

fn push_point(snap: &mut BenchSnapshot, prefix: &str, p: &t7plus::HotPathPoint) {
    let vsecs = p.virtual_elapsed_us as f64 / 1e6;
    snap.push(
        format!("{prefix}.bytes_per_msg"),
        p.bytes_per_msg,
        "B/msg",
        Direction::LowerIsBetter,
        true,
    );
    snap.push(
        format!("{prefix}.work_per_event"),
        p.work_per_event,
        "ops/ev",
        Direction::LowerIsBetter,
        true,
    );
    snap.push(
        format!("{prefix}.holdback_peak"),
        p.holdback_peak as f64,
        "msgs",
        Direction::LowerIsBetter,
        true,
    );
    snap.push(
        format!("{prefix}.hold_p99_ms"),
        p.hold_p99_ms,
        "ms",
        Direction::LowerIsBetter,
        true,
    );
    snap.push(
        format!("{prefix}.events_per_vsec"),
        p.wire_events as f64 / vsecs,
        "ev/vsec",
        Direction::HigherIsBetter,
        true,
    );
    snap.push(
        format!("{prefix}.deliveries_per_vsec"),
        p.delivered as f64 / vsecs,
        "msg/vsec",
        Direction::HigherIsBetter,
        true,
    );
}

/// Pushes the latency-provenance rows for one discipline: wire-transit
/// quantiles, the discipline's signature ordering phase, end-to-end
/// delivered latency, and the headline ordering tax. Quantiles come from
/// the merged histograms of every summary passed in (chaos disciplines
/// fold [`CHAOS_SEEDS`] campaigns; harness disciplines pass one run).
fn push_latency(snap: &mut BenchSnapshot, d: Algo, summaries: &[LatencySummary]) {
    let mut e2e = Histogram::new();
    let mut tax = Histogram::new();
    let mut wire = Histogram::new();
    let mut sig = Histogram::new();
    let sig_phase = d.signature_phase();
    for s in summaries {
        e2e.merge(&s.latency);
        tax.merge(&s.tax);
        if let Some(h) = s.per_phase.get(&PhaseId::Wire) {
            wire.merge(h);
        }
        if let Some(h) = s.per_phase.get(&sig_phase) {
            sig.merge(h);
        }
    }
    let name = d.name();
    for (metric, h) in [("wire", &wire), ("e2e", &e2e)] {
        snap.push(
            format!("latency.{name}.{metric}.p50_ms"),
            h.quantile(0.50).as_millis_f64(),
            "ms",
            Direction::LowerIsBetter,
            true,
        );
        snap.push(
            format!("latency.{name}.{metric}.p99_ms"),
            h.quantile(0.99).as_millis_f64(),
            "ms",
            Direction::LowerIsBetter,
            true,
        );
    }
    snap.push(
        format!("latency.{name}.{}.p99_ms", sig_phase.name()),
        sig.quantile(0.99).as_millis_f64(),
        "ms",
        Direction::LowerIsBetter,
        true,
    );
    snap.push(
        format!("latency.tax.{name}.mean_us"),
        tax.mean().as_micros() as f64,
        "us",
        Direction::LowerIsBetter,
        true,
    );
}

/// Collects the full snapshot. Every metric is virtual-time
/// deterministic, so the serialized snapshot is byte-identical across
/// reruns.
pub fn collect() -> BenchSnapshot {
    let mut snap = BenchSnapshot::new(SNAPSHOT_SEED);

    // T7+ hot-path grid at fixed N.
    for (indexed, delta) in [(false, false), (false, true), (true, false), (true, true)] {
        let p = t7plus::measure(GRID_N, indexed, delta);
        let prefix = format!(
            "t7plus.n{GRID_N}.{}.{}",
            if indexed { "indexed" } else { "scan" },
            if delta { "delta" } else { "full" },
        );
        push_point(&mut snap, &prefix, &p);
    }

    // T7+ N-scaling: best cbcast configuration (indexed+delta), the
    // uncompressed-timestamp baseline (indexed+full), and the
    // constant-metadata discipline side by side. Full grows linearly
    // with N; delta stays small only in this sparse-sender regime (T7
    // shows it degrading under all-to-all); pccast is the fixed 33-byte
    // link tag at every N.
    for n in [4usize, 16, 64, 256, 1024, 4096] {
        let p = t7plus::measure(n, true, true);
        let prefix = format!("t7plus.scaling.n{n}");
        snap.push(
            format!("{prefix}.work_per_event"),
            p.work_per_event,
            "ops/ev",
            Direction::LowerIsBetter,
            true,
        );
        snap.push(
            format!("{prefix}.bytes_per_msg"),
            p.bytes_per_msg,
            "B/msg",
            Direction::LowerIsBetter,
            true,
        );
        let full = t7plus::measure(n, true, false);
        snap.push(
            format!("t7plus.scaling.full.n{n}.bytes_per_msg"),
            full.bytes_per_msg,
            "B/msg",
            Direction::LowerIsBetter,
            true,
        );
        let pc = t7plus::measure_pccast(n);
        let prefix = format!("t7plus.scaling.pccast.n{n}");
        snap.push(
            format!("{prefix}.bytes_per_msg"),
            pc.bytes_per_msg,
            "B/msg",
            Direction::LowerIsBetter,
            true,
        );
        snap.push(
            format!("{prefix}.linkbuf_peak"),
            pc.linkbuf_peak as f64,
            "msgs",
            Direction::LowerIsBetter,
            true,
        );
    }

    // Sampler-instrumented simulated groups.
    let causal = run_group(Discipline::Causal);
    push_group(&mut snap, "group.causal", &causal);
    let token = run_group(Discipline::TotalToken);
    push_group(&mut snap, "group.token", &token);

    // Chaos campaign cut (indexed + delta, the shipping configuration).
    let mut delivered = 0u64;
    let mut events = 0u64;
    let mut violations = 0u64;
    let mut hold = Histogram::new();
    let mut stall_count = 0u64;
    let mut stall_max_age_ms = 0f64;
    let mut stall_worst_scc = 0u64;
    let mut cbcast_lat: Vec<LatencySummary> = Vec::new();
    for seed in 0..CHAOS_SEEDS {
        let r = Replay::of(seed).run();
        delivered += r.delivered_total;
        events += r.events_processed;
        violations += r.violations.len() as u64;
        hold.merge(&r.hold_hist);
        stall_count += r.stalls.stalls.len() as u64;
        stall_max_age_ms = stall_max_age_ms.max(r.stalls.max_age.as_millis_f64());
        stall_worst_scc = stall_worst_scc.max(r.stalls.worst_scc_size as u64);
        cbcast_lat.push(r.latency);
    }
    snap.push(
        "chaos.delivered",
        delivered as f64,
        "msgs",
        Direction::HigherIsBetter,
        true,
    );
    snap.push(
        "chaos.events_processed",
        events as f64,
        "ev",
        Direction::LowerIsBetter,
        true,
    );
    snap.push(
        "chaos.violations",
        violations as f64,
        "count",
        Direction::LowerIsBetter,
        true,
    );
    snap.push(
        "chaos.hold_p50_ms",
        hold.quantile(0.50).as_millis_f64(),
        "ms",
        Direction::LowerIsBetter,
        true,
    );
    snap.push(
        "chaos.hold_p99_ms",
        hold.quantile(0.99).as_millis_f64(),
        "ms",
        Direction::LowerIsBetter,
        true,
    );
    // Wait-graph stall analytics at the horizon of each campaign: stall
    // candidates (cycles + wedge heads), the oldest blocked-edge age, and
    // the largest genuine cycle (0 on healthy runs). All deterministic,
    // so a regression that wedges delivery moves these before it moves
    // throughput.
    snap.push(
        "chaos.stall.count",
        stall_count as f64,
        "count",
        Direction::LowerIsBetter,
        true,
    );
    snap.push(
        "chaos.stall.max_age_ms",
        stall_max_age_ms,
        "ms",
        Direction::LowerIsBetter,
        true,
    );
    snap.push(
        "chaos.stall.worst_scc_size",
        stall_worst_scc as f64,
        "nodes",
        Direction::LowerIsBetter,
        true,
    );

    // Latency-provenance rows per discipline (the ledger's phase
    // attribution): the chaos disciplines fold the same CHAOS_SEEDS
    // campaigns as above; abcast/token/fifo run the deterministic
    // harness-group workload. All virtual-time, all gated.
    push_latency(&mut snap, Algo::Cbcast, &cbcast_lat);
    let pccast_lat: Vec<LatencySummary> = (0..CHAOS_SEEDS)
        .map(|seed| {
            let replay = Replay {
                algo: Algo::Pccast,
                ..Replay::of(seed)
            };
            replay.run().latency
        })
        .collect();
    push_latency(&mut snap, Algo::Pccast, &pccast_lat);
    for algo in [Algo::Abcast, Algo::Token, Algo::Fifo] {
        let s = latency::run_group_ledger(SNAPSHOT_SEED, GROUP_N, algo);
        push_latency(&mut snap, algo, &[s]);
    }

    snap
}

/// Renders a snapshot as the human-facing table `experiments bench`
/// prints.
pub fn render(snap: &BenchSnapshot) -> Table {
    let mut t = Table::new(
        format!(
            "BENCH — performance telemetry snapshot (schema {}, seed {})",
            snap.schema, snap.seed
        ),
        &["metric", "value", "unit", "better", "deterministic"],
    );
    let mut ms: Vec<_> = snap.metrics.iter().collect();
    ms.sort_by(|a, b| a.name.cmp(&b.name));
    for m in ms {
        t.row(vec![
            m.name.clone().into(),
            m.value.into(),
            m.unit.clone().into(),
            match m.dir {
                Direction::LowerIsBetter => "lower",
                Direction::HigherIsBetter => "higher",
            }
            .into(),
            if m.det { "yes" } else { "no" }.into(),
        ]);
    }
    t.note("deterministic metrics are exact under the seed and gated by");
    t.note("`experiments benchdiff`.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry;

    #[test]
    fn snapshot_covers_every_workload() {
        let s = collect();
        for name in [
            "t7plus.n64.scan.full.work_per_event",
            "t7plus.n64.indexed.delta.bytes_per_msg",
            "t7plus.scaling.n256.work_per_event",
            "t7plus.scaling.n4096.bytes_per_msg",
            "t7plus.scaling.pccast.n256.bytes_per_msg",
            "t7plus.scaling.pccast.n4096.bytes_per_msg",
            "group.causal.deliveries_per_vsec",
            "group.causal.hold_p99_ms",
            "group.causal.ts.cbcast.holdback_peak",
            "group.causal.ts.cbcast.stability_lag_peak",
            "group.token.deliveries_per_vsec",
            "group.token.ts.token.queued_peak",
            "chaos.delivered",
            "chaos.hold_p99_ms",
            "chaos.stall.count",
            "chaos.stall.max_age_ms",
            "chaos.stall.worst_scc_size",
        ] {
            assert!(s.get(name).is_some(), "missing {name}");
        }
        // Clean campaigns never end in a genuine wait cycle.
        assert_eq!(s.get("chaos.stall.worst_scc_size").unwrap().value, 0.0);
        // Everything multicast was delivered in the causal group.
        let delivered = s.get("group.causal.delivered").unwrap().value;
        assert_eq!(
            delivered,
            (GROUP_N as u32 * GROUP_MSGS * GROUP_N as u32) as f64
        );
        // No chaos violations in the shipping configuration.
        assert_eq!(s.get("chaos.violations").unwrap().value, 0.0);
        // The scaling contrast the pccast rows exist to show: constant
        // ordering metadata from N=256 to N=4096 (within 10%), while
        // cbcast's delta-encoded timestamps keep growing with N.
        let pc256 = s
            .get("t7plus.scaling.pccast.n256.bytes_per_msg")
            .unwrap()
            .value;
        let pc4096 = s
            .get("t7plus.scaling.pccast.n4096.bytes_per_msg")
            .unwrap()
            .value;
        assert!(
            (pc4096 - pc256).abs() <= 0.10 * pc256,
            "pccast bytes/msg not flat: {pc256} -> {pc4096}"
        );
        let cb256 = s
            .get("t7plus.scaling.full.n256.bytes_per_msg")
            .unwrap()
            .value;
        let cb4096 = s
            .get("t7plus.scaling.full.n4096.bytes_per_msg")
            .unwrap()
            .value;
        assert!(
            cb4096 > 10.0 * cb256,
            "full-timestamp bytes/msg should grow with N: {cb256} -> {cb4096}"
        );
        // pccast undercuts even the delta-compressed sparse-regime rows.
        let delta4096 = s.get("t7plus.scaling.n4096.bytes_per_msg").unwrap().value;
        assert!(pc4096 < delta4096, "pccast must undercut cbcast at N=4096");
        // Latency-provenance rows: every discipline reports wire,
        // signature-phase, end-to-end and ordering-tax metrics.
        for (d, sig) in [
            ("cbcast", "causal"),
            ("pccast", "reorder"),
            ("abcast", "order"),
            ("token", "token"),
            ("fifo", "fifo"),
        ] {
            for name in [
                format!("latency.{d}.wire.p50_ms"),
                format!("latency.{d}.wire.p99_ms"),
                format!("latency.{d}.e2e.p50_ms"),
                format!("latency.{d}.e2e.p99_ms"),
                format!("latency.{d}.{sig}.p99_ms"),
                format!("latency.tax.{d}.mean_us"),
            ] {
                assert!(s.get(&name).is_some(), "missing {name}");
            }
        }
        // Total order costs latency over the FIFO floor: the tax rows
        // order as the paper says they must.
        let tax = |d: &str| s.get(&format!("latency.tax.{d}.mean_us")).unwrap().value;
        assert!(
            tax("abcast") > tax("fifo"),
            "abcast tax {} should exceed fifo tax {}",
            tax("abcast"),
            tax("fifo")
        );
        // The default snapshot is fully deterministic.
        assert!(s.metrics.iter().all(|m| m.det));
    }

    #[test]
    fn default_snapshot_is_byte_identical_across_reruns() {
        let a = collect().to_json();
        let b = collect().to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_round_trips_and_self_diffs_clean() {
        let s = collect();
        let json = s.to_json();
        let back = telemetry::BenchSnapshot::parse(&json).expect("parses");
        assert_eq!(back.to_json(), json);
        let report = telemetry::diff(&s, &back, telemetry::DEFAULT_GATE_PCT);
        assert!(report.regressions.is_empty(), "{:?}", report.regressions);
    }
}
