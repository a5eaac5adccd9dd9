//! Root-package smoke test: one short lossy run per delivery discipline,
//! pinned to a digest of everything virtual time decides — who delivered
//! what, when it arrived, when it was released, and how many sends the
//! network saw. A change that is meant to be wall-clock only (fewer
//! allocations, cheaper bookkeeping) must leave every constant alone; one
//! that moves a wire message, a timer, an RNG draw or a delivery order
//! fails here, under the Tier-1 `cargo test -q`.

use catocs::endpoint::Discipline;
use catocs::group::CausalDiscipline::{self, Cbcast, Pccast};
use catocs::group::GroupConfig;
use catocs::harness::{spawn_group, GroupApp, GroupCtx, GroupNode};
use catocs::vsync::{run_campaign, CampaignConfig};
use catocs::wire::Wire;
use simnet::net::NetConfig;
use simnet::process::ProcessId;
use simnet::sim::{Sim, SimBuilder};
use simnet::time::{SimDuration, SimTime};

/// Multicasts its member index on every tick until the quota is spent.
struct Chatter {
    remaining: u32,
}

impl GroupApp<u32> for Chatter {
    fn on_tick(&mut self, ctx: &mut GroupCtx<'_>) -> Vec<u32> {
        if self.remaining == 0 {
            return Vec::new();
        }
        self.remaining -= 1;
        vec![ctx.me as u32]
    }
}

/// FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Runs 8 members × 6 multicasts at 6 % loss.
fn run(discipline: Discipline, causal: CausalDiscipline) -> (Sim<Wire<u32>>, Vec<ProcessId>) {
    let mut sim = SimBuilder::new(15)
        .net(NetConfig::lossy_lan(0.06))
        .build::<Wire<u32>>();
    let cfg = GroupConfig {
        discipline: causal,
        ..GroupConfig::default()
    };
    let members = spawn_group(
        &mut sim,
        8,
        discipline,
        cfg,
        Some(SimDuration::from_millis(15)),
        |_| Chatter { remaining: 6 },
    );
    sim.run_until(SimTime::from_secs(4));
    (sim, members)
}

fn node(sim: &Sim<Wire<u32>>, m: ProcessId) -> &GroupNode<u32, Chatter> {
    sim.process(m).expect("every member was spawned")
}

/// Digests every member's delivery log (in member order) followed by
/// `net.sent`.
fn digest(discipline: Discipline, causal: CausalDiscipline) -> (u64, u64) {
    let (sim, members) = run(discipline, causal);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut deliveries = 0;
    for &m in &members {
        for d in &node(&sim, m).delivered_log {
            h.word(d.id.sender as u64);
            h.word(d.id.seq);
            h.word(u64::from(d.payload));
            h.word(d.arrived_at.as_micros());
            h.word(d.delivered_at.as_micros());
            h.word(d.gseq.map_or(u64::MAX, |g| g));
            deliveries += 1;
        }
    }
    h.word(sim.metrics().counter("net.sent"));
    (deliveries, h.0)
}

/// The constants were computed on the commit before the incremental
/// stability frontier (PR 15) and must survive any wall-clock-only change.
#[test]
fn every_discipline_replays_its_pinned_digest() {
    let abcast = Discipline::Total { sequencer: 0 };
    let token = Discipline::TotalToken;
    let cases = [
        ("fifo", Discipline::Fifo, Cbcast, 0xfe5c_9c0f_f589_84df_u64),
        ("cbcast", Discipline::Causal, Cbcast, 0x8461_dda7_02d2_2938),
        ("pccast", Discipline::Causal, Pccast, 0x5d93_336b_03dc_9781),
        ("abcast", abcast, Cbcast, 0xbf2d_04d1_f3bc_dfd5),
        ("token", token, Cbcast, 0xc1d4_4c49_da59_29a6),
    ];
    for (name, discipline, causal, pinned) in cases {
        let (deliveries, got) = digest(discipline, causal);
        // Everyone delivers all 8 × 6 multicasts, their own included.
        assert_eq!(deliveries, 8 * 8 * 6, "{name}: lost deliveries");
        assert_eq!(got, pinned, "{name}: digest {got:#018x} moved");
    }
}

/// fbcast's retransmission buffer is collected on ack gossip; when that
/// happens is wall-clock bookkeeping, what it reports is not. Per member:
/// `(stabilized, buffered_peak, buffered_bytes_peak)`, recorded while
/// every `AckGossip` still ran the collection.
#[test]
fn fifo_buffer_accounting_replays_its_pinned_stats() {
    let (sim, members) = run(Discipline::Fifo, Cbcast);
    let got: Vec<(u64, u64, u64)> = members
        .iter()
        .map(|&m| {
            let s = node(&sim, m).stats();
            (s.stabilized, s.buffered_peak, s.buffered_bytes_peak)
        })
        .collect();
    let pinned = [
        (6, 5, 1380),
        (6, 4, 1104),
        (6, 3, 828),
        (6, 3, 828),
        (6, 2, 552),
        (6, 4, 1104),
        (6, 2, 552),
        (6, 2, 552),
    ];
    assert_eq!(got, pinned, "fifo buffer accounting moved");
}

/// Static groups never freeze, flush or install a view; the fault
/// campaigns do. Each cell pins `(digest, delivered_total,
/// views_installed)` of one default-shape campaign, recorded before the
/// causal disciplines were moved onto a shared core.
#[test]
fn churn_campaigns_replay_their_pinned_digests() {
    let cells = [
        ("cbcast-full", Cbcast, false),
        ("cbcast-delta", Cbcast, true),
        ("pccast", Pccast, false),
    ];
    let pinned: [[(u64, u64, u64); 3]; 3] = [
        [
            (0xa333_3f1d_03ca_b3cb, 2058, 3),
            (0xa333_3f1d_03ca_b3cb, 2058, 3),
            (0x8358_b32e_0e60_4f49, 2029, 3),
        ],
        [
            (0x55fe_88bf_d8bb_989b, 1439, 3),
            (0xc469_4353_e2dd_de7b, 1441, 3),
            (0xd388_984f_79a1_7dc0, 1420, 4),
        ],
        [
            (0xda09_cdd9_ea7c_63b1, 1403, 4),
            (0x5ed1_c474_d756_0173, 1449, 4),
            (0xd230_224e_fcda_601b, 1461, 4),
        ],
    ];
    for (seed, row) in [2, 23, 137].into_iter().zip(pinned) {
        for ((name, discipline, delta_timestamps), want) in cells.into_iter().zip(row) {
            let cfg = CampaignConfig {
                group: GroupConfig {
                    discipline,
                    delta_timestamps,
                    ..GroupConfig::default()
                },
                ..CampaignConfig::default()
            };
            let r = run_campaign(seed, &cfg);
            assert!(r.views_installed >= 2, "{name} seed {seed}: no churn");
            let got = (r.digest, r.delivered_total, r.views_installed);
            assert_eq!(got, want, "{name} seed {seed}: {got:#x?} moved");
        }
    }
}
