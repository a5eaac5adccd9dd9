//! bench — the virtual-time numbers behind the paper's cost argument,
//! printed by `experiments bench` and pinned byte for byte in
//! `crates/bench/tests/cli_pins/bench.out`.
//!
//! Four deterministic workloads, one seed:
//!
//! - the T7+ hot path at N=64 across the full {scan,indexed} ×
//!   {full,delta} grid — bytes/msg, holdback work/event, hold-time
//!   quantiles, and virtual-time throughput per configuration;
//! - the T7+ N-scaling points, N=4 to 4096 — work/event and bytes/msg
//!   for indexed+delta, bytes/msg for full stamps and for pccast;
//! - simulated groups (FIFO, causal and token-ring) — deliveries and
//!   scheduler events per virtual second, hold-time quantiles, what a
//!   multicast costs on the wire (ordering-data bytes, control bytes,
//!   the same bytes by wire kind, gossip and wire messages per
//!   multicast), and
//!   the peaks of the members' gauges over looks 50 ms apart (holdback
//!   depth, stability-horizon lag, token queue);
//! - a cut of the chaos campaign — deliveries, scheduler work and hold
//!   times under fault injection.
//!
//! Every row is exact under the seed, so the pin is an equality check: a
//! change meant to move a row re-pins the file and says why. Wall-clock
//! cost is the business of the separate `benchmark/` package.

use crate::experiments::latency;
use crate::experiments::replay::{Algo, Replay};
use crate::table::Table;
use catocs::endpoint::Discipline;
use catocs::group::GroupConfig;
use catocs::harness::{spawn_group, Chatter, GroupNode};
use catocs::ledger::LatencySummary;
use catocs::wire::{ByteKind, EndpointStats, Wire};
use simnet::metrics::Histogram;
use simnet::net::NetConfig;
use simnet::obs::LatencyPhase;
use simnet::process::Process;
use simnet::sim::SimBuilder;
use simnet::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

use super::t7plus;

/// The seed every deterministic workload runs under.
pub(crate) const SNAPSHOT_SEED: u64 = 42;

/// Group size for the simulated-group workloads.
const GROUP_N: usize = 8;
/// Virtual horizon of each simulated-group run.
const GROUP_HORIZON: SimTime = SimTime::from_secs(5);
/// How often a group run looks at its members' gauges.
const LOOK_EVERY: SimDuration = SimDuration::from_millis(50);
/// Messages each member multicasts (one per app tick).
const GROUP_MSGS: u32 = 40;
/// Group size of the T7+ grid cell the per-config metrics come from.
const GRID_N: usize = 64;
/// Chaos campaign seeds folded into the snapshot.
const CHAOS_SEEDS: u64 = 4;

/// The rows being collected: `(name, value, unit)`.
type Rows = Vec<(String, f64, &'static str)>;

/// What one simulated-group run measured.
struct GroupRun {
    delivered: u64,
    events: u64,
    /// Multicasts sent, over the members.
    multicasts: u64,
    /// `data_overhead_bytes` and `control_bytes`, summed over the members.
    data_overhead_bytes: u64,
    control_bytes: u64,
    /// The same bytes by what they paid for, indexed by [`ByteKind`].
    bytes_by_kind: [u64; ByteKind::NAMES.len()],
    /// Point-to-point wire messages handed to the network.
    wire_msgs: u64,
    /// `AckGossip` broadcasts, over the members (`acks_sent`).
    gossip_msgs: u64,
    hold: Histogram,
    /// Every gauge the members report, with its largest value over the
    /// members and the looks, 50 ms apart.
    peaks: BTreeMap<String, f64>,
}

fn run_group(discipline: Discipline) -> GroupRun {
    let mut sim = SimBuilder::new(SNAPSHOT_SEED)
        .net(NetConfig::lossy_lan(0.02))
        .build::<Wire<u64>>();
    let members = spawn_group(
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
    let mut peaks: BTreeMap<String, f64> = BTreeMap::new();
    let events = sim.run_until_each(GROUP_HORIZON, LOOK_EVERY, |_, sim| {
        for &p in &members {
            let node = sim
                .process::<GroupNode<u64, Chatter>>(p)
                .expect("a group member");
            node.sample(&mut |name, v| {
                let peak = peaks.entry(name.to_string()).or_insert(0.0);
                *peak = peak.max(v);
            });
        }
    });
    let stats: Vec<_> = members
        .iter()
        .map(|&p| {
            let node = sim
                .process::<GroupNode<u64, Chatter>>(p)
                .expect("a group member");
            node.stats().clone()
        })
        .collect();
    let sum = |field: fn(&EndpointStats) -> u64| stats.iter().map(field).sum();
    let m = sim.metrics();
    GroupRun {
        delivered: m.counter("group.delivered"),
        events,
        multicasts: sum(|s| s.sent),
        data_overhead_bytes: sum(|s| s.data_overhead_bytes),
        control_bytes: sum(|s| s.control_bytes),
        bytes_by_kind: std::array::from_fn(|k| stats.iter().map(|s| s.bytes_by_kind[k]).sum()),
        wire_msgs: m.counter("net.sent"),
        gossip_msgs: sum(|s| s.acks_sent),
        hold: m.histogram("group.hold_time").cloned().unwrap_or_default(),
        peaks,
    }
}

fn push_group(rows: &mut Rows, prefix: &str, r: &GroupRun) {
    let vsecs = GROUP_HORIZON.as_secs_f64();
    rows.push((format!("{prefix}.delivered"), r.delivered as f64, "msgs"));
    rows.push((
        format!("{prefix}.deliveries_per_vsec"),
        r.delivered as f64 / vsecs,
        "msg/vsec",
    ));
    rows.push((
        format!("{prefix}.events_per_vsec"),
        r.events as f64 / vsecs,
        "ev/vsec",
    ));
    let per_multicast = |v: u64| v as f64 / r.multicasts as f64;
    rows.push((
        format!("{prefix}.data_overhead_bytes_per_multicast"),
        per_multicast(r.data_overhead_bytes),
        "B/msg",
    ));
    rows.push((
        format!("{prefix}.control_bytes_per_multicast"),
        per_multicast(r.control_bytes),
        "B/msg",
    ));
    for (&bytes, name) in r.bytes_by_kind.iter().zip(ByteKind::NAMES) {
        rows.push((
            format!("{prefix}.bytes_per_multicast.{name}"),
            per_multicast(bytes),
            "B/msg",
        ));
    }
    // The gossip bytes above as broadcasts: what the gossip rule cuts.
    // Read it beside `ts.*.stability_lag_peak`, what a cut can cost.
    rows.push((
        format!("{prefix}.gossip_msgs_per_multicast"),
        per_multicast(r.gossip_msgs),
        "msgs/msg",
    ));
    rows.push((
        format!("{prefix}.wire_msgs_per_multicast"),
        per_multicast(r.wire_msgs),
        "msgs/msg",
    ));
    rows.push((
        format!("{prefix}.hold_p50_ms"),
        r.hold.quantile(0.50).as_millis_f64(),
        "ms",
    ));
    rows.push((
        format!("{prefix}.hold_p99_ms"),
        r.hold.quantile(0.99).as_millis_f64(),
        "ms",
    ));
    for (name, peak) in &r.peaks {
        let unit = if name.ends_with("_bytes") {
            "bytes"
        } else {
            "msgs"
        };
        rows.push((format!("{prefix}.ts.{name}_peak"), *peak, unit));
    }
}

fn push_point(rows: &mut Rows, prefix: &str, p: &t7plus::HotPathPoint) {
    let vsecs = p.virtual_elapsed_us as f64 / 1e6;
    rows.push((format!("{prefix}.bytes_per_msg"), p.bytes_per_msg, "B/msg"));
    rows.push((
        format!("{prefix}.work_per_event"),
        p.work_per_event,
        "ops/ev",
    ));
    rows.push((
        format!("{prefix}.holdback_peak"),
        p.holdback_peak as f64,
        "msgs",
    ));
    rows.push((format!("{prefix}.hold_p99_ms"), p.hold_p99_ms, "ms"));
    rows.push((
        format!("{prefix}.events_per_vsec"),
        p.wire_events as f64 / vsecs,
        "ev/vsec",
    ));
    rows.push((
        format!("{prefix}.deliveries_per_vsec"),
        p.delivered as f64 / vsecs,
        "msg/vsec",
    ));
}

/// Pushes the latency-provenance rows for one discipline: wire-transit
/// quantiles, the discipline's signature ordering phase, end-to-end
/// delivered latency, and the headline ordering tax. Quantiles come from
/// the merged histograms of every summary passed in (chaos disciplines
/// fold [`CHAOS_SEEDS`] campaigns; harness disciplines pass one run).
fn push_latency(rows: &mut Rows, d: Algo, summaries: &[LatencySummary]) {
    let mut e2e = Histogram::new();
    let mut tax = Histogram::new();
    let mut wire = Histogram::new();
    let mut sig = Histogram::new();
    let sig_phase = d.signature_phase();
    for s in summaries {
        e2e.merge(&s.latency);
        tax.merge(&s.tax);
        if let Some(h) = s.per_phase.get(&LatencyPhase::Wire) {
            wire.merge(h);
        }
        if let Some(h) = s.per_phase.get(&sig_phase) {
            sig.merge(h);
        }
    }
    let name = d.name();
    for (metric, h) in [("wire", &wire), ("e2e", &e2e)] {
        for (q, label) in [(0.50, "p50"), (0.99, "p99")] {
            rows.push((
                format!("latency.{name}.{metric}.{label}_ms"),
                h.quantile(q).as_millis_f64(),
                "ms",
            ));
        }
    }
    rows.push((
        format!("latency.{name}.{}.p99_ms", sig_phase.name()),
        sig.quantile(0.99).as_millis_f64(),
        "ms",
    ));
    rows.push((
        format!("latency.tax.{name}.mean_us"),
        tax.mean().as_micros() as f64,
        "us",
    ));
}

/// Collects every row, sorted by name.
///
/// # Panics
///
/// Panics if two rows share a name.
pub(crate) fn collect() -> Vec<(String, f64, &'static str)> {
    let mut rows = Rows::new();

    // T7+ hot-path grid at fixed N.
    for (indexed, delta) in [(false, false), (false, true), (true, false), (true, true)] {
        let p = t7plus::measure(GRID_N, indexed, delta);
        let prefix = format!(
            "t7plus.n{GRID_N}.{}.{}",
            if indexed { "indexed" } else { "scan" },
            if delta { "delta" } else { "full" },
        );
        push_point(&mut rows, &prefix, &p);
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
        rows.push((
            format!("{prefix}.work_per_event"),
            p.work_per_event,
            "ops/ev",
        ));
        rows.push((format!("{prefix}.bytes_per_msg"), p.bytes_per_msg, "B/msg"));
        let full = t7plus::measure(n, true, false);
        rows.push((
            format!("t7plus.scaling.full.n{n}.bytes_per_msg"),
            full.bytes_per_msg,
            "B/msg",
        ));
        let pc = t7plus::measure_pccast(n);
        let prefix = format!("t7plus.scaling.pccast.n{n}");
        rows.push((format!("{prefix}.bytes_per_msg"), pc.bytes_per_msg, "B/msg"));
        rows.push((
            format!("{prefix}.linkbuf_peak"),
            pc.linkbuf_peak as f64,
            "msgs",
        ));
    }

    // Simulated groups, their gauges looked at every 50 ms.
    push_group(&mut rows, "group.fifo", &run_group(Discipline::Fifo));
    push_group(&mut rows, "group.causal", &run_group(Discipline::Causal));
    push_group(&mut rows, "group.token", &run_group(Discipline::TotalToken));

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
    rows.push(("chaos.delivered".into(), delivered as f64, "msgs"));
    rows.push(("chaos.events_processed".into(), events as f64, "ev"));
    rows.push(("chaos.violations".into(), violations as f64, "count"));
    rows.push((
        "chaos.hold_p50_ms".into(),
        hold.quantile(0.50).as_millis_f64(),
        "ms",
    ));
    rows.push((
        "chaos.hold_p99_ms".into(),
        hold.quantile(0.99).as_millis_f64(),
        "ms",
    ));
    // Wait-graph stall analytics at the horizon of each campaign: stall
    // candidates (cycles + wedge heads), the oldest blocked-edge age, and
    // the largest genuine cycle (0 on healthy runs). A regression that
    // wedges delivery moves these before it moves throughput.
    rows.push(("chaos.stall.count".into(), stall_count as f64, "count"));
    rows.push(("chaos.stall.max_age_ms".into(), stall_max_age_ms, "ms"));
    rows.push((
        "chaos.stall.worst_scc_size".into(),
        stall_worst_scc as f64,
        "nodes",
    ));

    // Latency-provenance rows per discipline (the ledger's phase
    // attribution): the chaos disciplines fold the same CHAOS_SEEDS
    // campaigns as above; abcast/token/fifo run the deterministic
    // harness-group workload.
    push_latency(&mut rows, Algo::Cbcast, &cbcast_lat);
    let pccast_lat: Vec<LatencySummary> = (0..CHAOS_SEEDS)
        .map(|seed| {
            let replay = Replay {
                algo: Algo::Pccast,
                ..Replay::of(seed)
            };
            replay.run().latency
        })
        .collect();
    push_latency(&mut rows, Algo::Pccast, &pccast_lat);
    for algo in [Algo::Abcast, Algo::Token, Algo::Fifo] {
        let s = latency::run_group_ledger(SNAPSHOT_SEED, GROUP_N, algo);
        push_latency(&mut rows, algo, &[s]);
    }

    rows.sort_by(|a, b| a.0.cmp(&b.0));
    for w in rows.windows(2) {
        assert!(w[0].0 != w[1].0, "duplicate metric {}", w[0].0);
    }
    rows
}

/// The table `experiments bench` prints: every row of `collect`, each
/// value at full precision — integral values as integers, the rest in
/// `f64`'s shortest round-trip form.
pub fn run() -> Table {
    let mut t = Table::new(
        format!("BENCH — virtual-time metrics (seed {SNAPSHOT_SEED})"),
        &["metric", "value", "unit"],
    );
    for (name, value, unit) in collect() {
        let value = if value.fract() == 0.0 && value.abs() < 1e15 {
            format!("{}", value as i64)
        } else {
            format!("{value}")
        };
        t.row(vec![name.into(), value.into(), unit.into()]);
    }
    t.note("exact under the seed; pinned in crates/bench/tests/cli_pins/bench.out.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_covers_every_workload() {
        let rows = collect();
        let get = |name: &str| -> f64 {
            rows.iter()
                .find(|r| r.0 == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .1
        };
        for name in [
            "t7plus.n64.scan.full.work_per_event",
            "t7plus.n64.indexed.delta.bytes_per_msg",
            "t7plus.scaling.n256.work_per_event",
            "group.causal.deliveries_per_vsec",
            "group.causal.data_overhead_bytes_per_multicast",
            "group.causal.control_bytes_per_multicast",
            "group.causal.wire_msgs_per_multicast",
            "group.fifo.data_overhead_bytes_per_multicast",
            "group.fifo.control_bytes_per_multicast",
            "group.fifo.wire_msgs_per_multicast",
            "group.causal.gossip_msgs_per_multicast",
            "group.fifo.gossip_msgs_per_multicast",
            "group.causal.hold_p99_ms",
            "group.causal.ts.cbcast.holdback_peak",
            "group.causal.ts.cbcast.stability_lag_peak",
            "group.token.deliveries_per_vsec",
            "group.token.data_overhead_bytes_per_multicast",
            "group.token.control_bytes_per_multicast",
            "group.token.wire_msgs_per_multicast",
            "group.token.ts.token.queued_peak",
            "chaos.delivered",
            "chaos.hold_p99_ms",
            "chaos.stall.count",
            "chaos.stall.max_age_ms",
        ] {
            get(name);
        }
        // Clean campaigns never end in a genuine wait cycle.
        assert_eq!(get("chaos.stall.worst_scc_size"), 0.0);
        // Everything multicast was delivered in the causal group.
        assert_eq!(
            get("group.causal.delivered"),
            (GROUP_N as u32 * GROUP_MSGS * GROUP_N as u32) as f64
        );
        // No chaos violations in the shipping configuration.
        assert_eq!(get("chaos.violations"), 0.0);
        // The scaling contrast the pccast rows exist to show: constant
        // ordering metadata from N=256 to N=4096 (within 10%), while
        // full timestamps keep growing with N.
        let pc256 = get("t7plus.scaling.pccast.n256.bytes_per_msg");
        let pc4096 = get("t7plus.scaling.pccast.n4096.bytes_per_msg");
        assert!(
            (pc4096 - pc256).abs() <= 0.10 * pc256,
            "pccast bytes/msg not flat: {pc256} -> {pc4096}"
        );
        let cb256 = get("t7plus.scaling.full.n256.bytes_per_msg");
        let cb4096 = get("t7plus.scaling.full.n4096.bytes_per_msg");
        assert!(
            cb4096 > 10.0 * cb256,
            "full-timestamp bytes/msg should grow with N: {cb256} -> {cb4096}"
        );
        // pccast undercuts even the delta-compressed sparse-regime rows.
        let delta4096 = get("t7plus.scaling.n4096.bytes_per_msg");
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
                get(&name);
            }
        }
        // Total order costs latency over the FIFO floor: the tax rows
        // order as the paper says they must.
        let (abcast, fifo) = (
            get("latency.tax.abcast.mean_us"),
            get("latency.tax.fifo.mean_us"),
        );
        assert!(
            abcast > fifo,
            "abcast tax {abcast} should exceed fifo tax {fifo}"
        );
    }

    /// The per-kind rows split the byte rows, to the byte: own data is
    /// the ordering-data row, and every other kind is control.
    #[test]
    fn the_kind_rows_split_the_byte_rows_exactly() {
        for d in [Discipline::Fifo, Discipline::Causal, Discipline::TotalToken] {
            let r = run_group(d);
            let own = r.bytes_by_kind[ByteKind::OwnData as usize];
            assert_eq!(own, r.data_overhead_bytes, "{d:?}");
            let all: u64 = r.bytes_by_kind.iter().sum();
            assert_eq!(all, r.data_overhead_bytes + r.control_bytes, "{d:?}");
        }
    }
}
