//! Ablations of CATOCS design choices called out in DESIGN.md:
//!
//! - **sequencer vs token** total order: ordering latency at low and
//!   high offered load;
//! - **piggybacked vs gossip-only stability acks**: buffering versus
//!   control traffic (§5's piggybacking remark);
//! - **causal-domain partitioning**: one big group versus several small
//!   *independent* groups (§5: "Partitioning a large process group into
//!   smaller process groups does not necessarily reduce this problem
//!   unless the smaller groups are not causally related").

use crate::table::Table;
use catocs::domain::{Addressed, DomainEndpoint, GroupId};
use catocs::endpoint::Discipline;
use catocs::group::GroupConfig;
use catocs::harness::{route, spawn_group, Chatter, GroupNode};
use catocs::wire::Wire;
use simnet::net::NetConfig;
use simnet::process::{Ctx, Process, ProcessId, TimerId};
use simnet::sim::SimBuilder;
use simnet::time::{SimDuration, SimTime};

struct GroupStats {
    delivered: u64,
    held: u64,
    mean_hold_ms: f64,
    buffered_peak_mean: f64,
    control_bytes: u64,
    data_overhead_bytes: u64,
}

fn run_group(
    seed: u64,
    n: usize,
    d: Discipline,
    cfg: GroupConfig,
    msgs: u32,
    period: SimDuration,
) -> GroupStats {
    let mut sim = SimBuilder::new(seed)
        .net(NetConfig::lossy_lan(0.02))
        .build::<Wire<u32>>();
    let members = spawn_group(&mut sim, n, d, cfg, Some(period), |_| Chatter {
        remaining: msgs,
        burst: 1,
    });
    sim.run_until(SimTime::from_secs(15));
    let mut s = GroupStats {
        delivered: 0,
        held: 0,
        mean_hold_ms: 0.0,
        buffered_peak_mean: 0.0,
        control_bytes: 0,
        data_overhead_bytes: 0,
    };
    let mut hold_us = 0u64;
    for &m in &members {
        let node = sim.process::<GroupNode<u32, Chatter>>(m).expect("node");
        s.delivered += node.stats().delivered;
        s.held += node.stats().delivered_after_hold;
        hold_us += node.stats().hold_time_total.as_micros();
        s.buffered_peak_mean += node.transport_stats().buffered_peak as f64 / n as f64;
        s.control_bytes += node.transport_stats().control_bytes + node.stats().control_bytes;
        s.data_overhead_bytes += node.transport_stats().data_overhead_bytes;
    }
    if s.held > 0 {
        s.mean_hold_ms = hold_us as f64 / s.held as f64 / 1000.0;
    }
    s
}

/// Ablation 1: sequencer vs token total order under two loads.
pub(crate) fn sequencer_vs_token() -> Table {
    let mut t = Table::new(
        "A1 — ablation: total order via sequencer vs token ring (N=6)",
        &["variant", "load", "delivered", "held", "mean hold ms"],
    );
    for (load, period, msgs) in [
        ("light", SimDuration::from_millis(50), 10u32),
        ("heavy", SimDuration::from_millis(5), 60),
    ] {
        for (name, d) in [
            ("sequencer", Discipline::Total { sequencer: 0 }),
            ("token", Discipline::TotalToken),
        ] {
            let s = run_group(3, 6, d, GroupConfig::default(), msgs, period);
            t.row(vec![
                name.into(),
                load.into(),
                s.delivered.into(),
                s.held.into(),
                s.mean_hold_ms.into(),
            ]);
        }
    }
    t.note("the token sender waits for the ring rotation at light load;");
    t.note("the sequencer adds a fixed extra hop but no rotation wait.");
    t
}

/// Ablation 2: piggybacked acks vs gossip-only stability.
pub(crate) fn piggyback_acks() -> Table {
    let mut t = Table::new(
        "A2 — ablation: stability from piggybacked timestamps vs tick gossip only (N=8, causal)",
        &["acks", "delivered", "buffered peak (mean)", "control bytes"],
    );
    for (name, piggyback) in [("piggyback+gossip", true), ("gossip only", false)] {
        let cfg = GroupConfig {
            piggyback_acks: piggyback,
            ..GroupConfig::default()
        };
        let s = run_group(
            3,
            8,
            Discipline::Causal,
            cfg,
            40,
            SimDuration::from_millis(8),
        );
        t.row(vec![
            name.into(),
            s.delivered.into(),
            s.buffered_peak_mean.into(),
            s.control_bytes.into(),
        ]);
    }
    t.note("without piggybacking, stability only advances on gossip ticks, so");
    t.note("unstable buffers sit deeper between ticks (§5: fewer application");
    t.note("messages to piggyback acknowledgement information on).");
    t
}

/// Ablation 3: one large group vs independent small groups.
pub(crate) fn partitioning() -> Table {
    let mut t = Table::new(
        "A3 — ablation: causal-domain partitioning (same total traffic)",
        &[
            "configuration",
            "delivered",
            "held",
            "buffered peak (mean/node)",
        ],
    );
    // One group of 16.
    let s = run_group(
        5,
        16,
        Discipline::Causal,
        GroupConfig::default(),
        24,
        SimDuration::from_millis(8),
    );
    t.row(vec![
        "1 × 16 members".into(),
        s.delivered.into(),
        s.held.into(),
        s.buffered_peak_mean.into(),
    ]);
    // Four independent groups of 4 (run sequentially, summed).
    let mut delivered = 0;
    let mut held = 0;
    let mut buf = 0.0;
    for g in 0..4u64 {
        let s = run_group(
            100 + g,
            4,
            Discipline::Causal,
            GroupConfig::default(),
            24,
            SimDuration::from_millis(8),
        );
        delivered += s.delivered;
        held += s.held;
        buf += s.buffered_peak_mean / 4.0;
    }
    t.row(vec![
        "4 × 4 members (independent)".into(),
        delivered.into(),
        held.into(),
        buf.into(),
    ]);
    // Four groups of 4 bridged into one causal domain (conservative
    // scheme): every member orders and buffers the whole domain's
    // traffic.
    let s = run_domain(5, 16, 4, 24);
    t.row(vec![
        "4 × 4 bridged causal domain".into(),
        s.delivered.into(),
        s.held.into(),
        s.buffered_peak_mean.into(),
    ]);
    t.note("independent small groups do buffer less per node — but only");
    t.note("because they are causally unrelated; the bridged causal domain");
    t.note("keeps (and exceeds) the large-group buffering cost, per §5.");
    t
}

/// A domain member process: multicasts to its home group; every member
/// orders all domain traffic (conservative causal domain).
struct DomainNode {
    endpoint: DomainEndpoint<u32>,
    n: usize,
    home: GroupId,
    remaining: u32,
    delivered: u64,
    held: u64,
}

const DTICK: TimerId = TimerId(0);
const DAPP: TimerId = TimerId(1);

impl Process<Wire<Addressed<u32>>> for DomainNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Wire<Addressed<u32>>>) {
        ctx.set_timer(DTICK, SimDuration::from_millis(10));
        ctx.set_timer(DAPP, SimDuration::from_millis(8));
    }
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Wire<Addressed<u32>>>,
        _f: ProcessId,
        m: Wire<Addressed<u32>>,
    ) {
        let (dels, out) = self.endpoint.on_wire(ctx.now(), m);
        for d in &dels {
            self.delivered += 1;
            if d.was_held() {
                self.held += 1;
            }
        }
        route(ctx, self.endpoint.me(), self.n, out);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Wire<Addressed<u32>>>, t: TimerId) {
        match t {
            DTICK => {
                let out = self.endpoint.on_tick(ctx.now());
                route(ctx, self.endpoint.me(), self.n, out);
                ctx.metrics().gauge_max(
                    &format!("domain.buf.{}", self.endpoint.me()),
                    self.endpoint.buffered_len() as f64,
                );
                ctx.set_timer(DTICK, SimDuration::from_millis(10));
            }
            DAPP => {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    let (dels, out) = self.endpoint.multicast(ctx.now(), self.home, 1);
                    self.delivered += dels.len() as u64;
                    route(ctx, self.endpoint.me(), self.n, out);
                }
                ctx.set_timer(DAPP, SimDuration::from_millis(8));
            }
            _ => {}
        }
    }
}

fn run_domain(seed: u64, n_domain: usize, groups: usize, msgs: u32) -> GroupStats {
    let per_group = n_domain / groups;
    let mut sim = SimBuilder::new(seed)
        .net(NetConfig::lossy_lan(0.02))
        .build::<Wire<Addressed<u32>>>();
    for me in 0..n_domain {
        let home = GroupId((me / per_group) as u32);
        let mut joined = vec![home];
        // The first member of each group bridges into the next group —
        // the causal relation between groups.
        if me % per_group == 0 {
            joined.push(GroupId(((me / per_group + 1) % groups) as u32));
        }
        sim.add_process(DomainNode {
            endpoint: DomainEndpoint::new(me, n_domain, GroupConfig::default(), &joined),
            n: n_domain,
            home,
            remaining: msgs,
            delivered: 0,
            held: 0,
        });
    }
    sim.run_until(SimTime::from_secs(15));
    let mut s = GroupStats {
        delivered: 0,
        held: 0,
        mean_hold_ms: 0.0,
        buffered_peak_mean: 0.0,
        control_bytes: 0,
        data_overhead_bytes: 0,
    };
    for me in 0..n_domain {
        let node: &DomainNode = sim.process(ProcessId(me)).expect("node");
        s.delivered += node.delivered;
        s.held += node.held;
        s.buffered_peak_mean += sim.metrics().gauge(&format!("domain.buf.{me}")) / n_domain as f64;
    }
    s
}

/// Ablation 4: appending causal predecessors instead of holdback+NACK
/// (§3.4 footnote 4) — delay drops, bandwidth rises.
pub(crate) fn append_predecessors() -> Table {
    let mut t = Table::new(
        "A4 — ablation: append causal predecessors vs holdback+NACK (N=8, causal, 8% loss)",
        &[
            "recovery",
            "delivered",
            "held",
            "mean hold ms",
            "data overhead bytes",
        ],
    );
    for (name, append) in [("holdback + NACK", false), ("append predecessors", true)] {
        let cfg = GroupConfig {
            append_predecessors: append,
            ..GroupConfig::default()
        };
        let mut sim = SimBuilder::new(11)
            .net(NetConfig::lossy_lan(0.08))
            .build::<Wire<u32>>();
        let members = spawn_group(
            &mut sim,
            8,
            Discipline::Causal,
            cfg,
            Some(SimDuration::from_millis(8)),
            |_| Chatter {
                remaining: 40,
                burst: 1,
            },
        );
        sim.run_until(SimTime::from_secs(15));
        let mut delivered = 0;
        let mut held = 0;
        let mut hold_us = 0;
        let mut data_bytes = 0;
        for &m in &members {
            let node = sim.process::<GroupNode<u32, Chatter>>(m).expect("node");
            delivered += node.stats().delivered;
            held += node.stats().delivered_after_hold;
            hold_us += node.stats().hold_time_total.as_micros();
            data_bytes += node.stats().data_overhead_bytes;
        }
        let mean_hold = if held > 0 {
            hold_us as f64 / held as f64 / 1000.0
        } else {
            0.0
        };
        t.row(vec![
            name.into(),
            delivered.into(),
            held.into(),
            mean_hold.into(),
            data_bytes.into(),
        ]);
    }
    t.note("\"causal protocols can append earlier 'causal' messages to later");
    t.note("dependent messages, but this technique can significantly increase");
    t.note("network traffic\" (§3.4 footnote 4).");
    t
}

/// Runs all ablations.
pub fn run() -> Vec<Table> {
    vec![
        sequencer_vs_token(),
        piggyback_acks(),
        partitioning(),
        append_predecessors(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_waits_longer_at_light_load() {
        let t = sequencer_vs_token();
        // Rows: 0 seq/light, 1 token/light.
        let seq_hold = t.get_f64(0, 4);
        let tok_hold = t.get_f64(1, 4);
        assert!(
            tok_hold > seq_hold,
            "token {tok_hold} !> sequencer {seq_hold} at light load"
        );
    }

    #[test]
    fn gossip_only_buffers_deeper() {
        let t = piggyback_acks();
        let pb = t.get_f64(0, 2);
        let go = t.get_f64(1, 2);
        assert!(go >= pb, "gossip-only {go} !>= piggyback {pb}");
    }

    #[test]
    fn appending_predecessors_cuts_holds_but_costs_bytes() {
        let t = append_predecessors();
        let holdback_held = t.get_f64(0, 2);
        let append_held = t.get_f64(1, 2);
        assert!(
            append_held < holdback_held,
            "append {append_held} !< holdback {holdback_held}"
        );
        let holdback_bytes = t.get_f64(0, 4);
        let append_bytes = t.get_f64(1, 4);
        assert!(
            append_bytes > holdback_bytes,
            "append bytes {append_bytes} !> holdback {holdback_bytes}"
        );
    }

    #[test]
    fn independent_partitions_buffer_less() {
        let t = partitioning();
        let big = t.get_f64(0, 3);
        let small = t.get_f64(1, 3);
        assert!(small < big, "4x4 {small} !< 1x16 {big}");
        // The bridged domain keeps the big-group cost (within 2x of the
        // single group, far above the independent partitions).
        let domain = t.get_f64(2, 3);
        assert!(
            domain > 3.0 * small,
            "bridged domain {domain} should dwarf independent {small}"
        );
    }
}
