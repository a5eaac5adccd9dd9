//! Root-package smoke test: one short lossy run per delivery discipline,
//! pinned to a digest of everything virtual time decides — who delivered
//! what, when it arrived, when it was released, and how many sends the
//! network saw. A change that is meant to be wall-clock only (fewer
//! allocations, cheaper bookkeeping) must leave every constant alone; one
//! that moves a wire message, a timer, an RNG draw or a delivery order
//! fails here, under the Tier-1 `cargo test -q`.

use bench::experiments::chaos;
use bench::experiments::replay::{Algo, Cell, Replay};
use catocs::cbcast::CbcastEndpoint;
use catocs::endpoint::Discipline;
use catocs::group::CausalDiscipline::{self, Cbcast, Pccast};
use catocs::group::{GroupConfig, MsgId};
use catocs::harness::{spawn_group, Chatter, GroupNode};
use catocs::vsync::{run_campaign, BugKnobs, Campaign, CampaignConfig, CampaignResult};
use catocs::waitgraph::RankedStall;
use catocs::wire::{Dest, Wire};
use simnet::net::NetConfig;
use simnet::process::ProcessId;
use simnet::sim::{Sim, SimBuilder};
use simnet::time::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};

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
        |_| Chatter {
            remaining: 6,
            burst: 1,
        },
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
    let abcast = Discipline::Total;
    let token = Discipline::TotalToken;
    let cases = [
        ("fifo", Discipline::Fifo, Cbcast, 0xda88_4e5f_572f_5fab_u64),
        ("cbcast", Discipline::Causal, Cbcast, 0xadad_7a71_43e7_1898),
        ("pccast", Discipline::Causal, Pccast, 0x4295_81cd_5f7b_7867),
        ("abcast", abcast, Cbcast, 0x706a_add6_2146_9730),
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
            (0xdde0_d63c_0377_914c, 2053, 3),
            (0xdde0_d63c_0377_914c, 2053, 3),
            (0x717d_5f50_a9f0_c872, 2065, 3),
        ],
        [
            (0xc860_ef02_7c89_a153, 1419, 4),
            (0xb2a5_9b93_0358_766b, 1419, 4),
            (0xfdd1_29de_30e1_7112, 1048, 3),
        ],
        [
            (0xe950_6049_1af7_5e81, 1444, 4),
            (0xdd33_d13c_bdff_a3db, 1446, 4),
            (0x0eb5_4118_9f0d_e818, 1440, 4),
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

/// Six campaigns at `CampaignConfig::default()` in which a survivor once
/// delivered past a removed sender's cut, pinned clean with their digests.
/// 3259 needs a late `Install` of an older view to leave a newer flush
/// frozen; the other five need a view's cut to extend its predecessor's.
#[test]
fn beyond_cut_campaigns_replay_clean() {
    let cases = [
        (Cbcast, 3259, 0x60bd_b021_6185_a24d_u64),
        (Cbcast, 14981, 0xc175_dde5_6a64_99b2),
        (Cbcast, 16016, 0x4e02_dda5_2608_ef69),
        (Pccast, 3945, 0x6ae6_5d7c_95a2_764f),
        (Pccast, 7687, 0x31c6_3326_9fa3_b0cf),
        (Pccast, 11986, 0xa390_7097_8720_91ad),
    ];
    for (discipline, seed, pinned) in cases {
        let cfg = CampaignConfig {
            group: GroupConfig {
                discipline,
                ..GroupConfig::default()
            },
            ..CampaignConfig::default()
        };
        let r = Campaign {
            ledger: false,
            ..Campaign::new(seed, cfg)
        }
        .run();
        let got = r.digest;
        assert_eq!(r.violations, [], "{discipline:?} seed {seed}");
        assert_eq!(got, pinned, "{discipline:?} seed {seed}: {got:#x} moved");
    }
}

/// The `reversed_sparse` shape of the wall-clock benchmark at a size
/// Tier-1 can afford: bare cbcast endpoints, no simulator. Four of 32
/// members multicast round-robin, each message relayed to the other three
/// at once, so the 64 messages are one causal chain, delta-stamped. Two
/// silent observers then receive the chain backwards and their NACKs are
/// served from a store as full-stamped retransmissions: everything parks
/// or is held before anything delivers. The second observer swaps every
/// fourth adjacent pair, is first handed full-stamped copies of two
/// messages from the middle of the chain — whose timestamps reference
/// every sender, their own among them — and caps a NACK at five ids, so
/// which ids it asks for depends on the order a timestamp's lagging
/// components are visited in; it ticks whenever its inbox drains. The
/// stats are decided by that order and by which ids the gap registration
/// probes. Per observer: the digest of its delivery log, the digest of
/// every NACK's destination and `want` list, then `(nacks_sent,
/// duplicates, ts_delta_parked, holdback_work, holdback_peak,
/// delivered_after_hold)`. Recorded on the commit before `VectorClock`
/// became copy-on-write; `holdback_work` since the sender windows say
/// which ids are held, so the holdback queue is asked only to insert and
/// release.
#[test]
fn reversed_delta_stream_replays_its_pinned_stats() {
    const N: usize = 32;
    const TOTAL: usize = 64;
    let cfg = GroupConfig {
        indexed_holdback: true,
        delta_timestamps: true,
        ..GroupConfig::default()
    };
    // Senders on both sides of the 16-component chunk boundary.
    let mut senders: Vec<CbcastEndpoint<u64>> = [3, 9, 17, 30]
        .into_iter()
        .map(|me| CbcastEndpoint::new(me, N, cfg.clone()))
        .collect();
    let mut wires: Vec<Wire<u64>> = Vec::new();
    for step in 0..TOTAL {
        let s = step % senders.len();
        let at = SimTime::from_millis(step as u64);
        let (_, out) = senders[s].multicast(at, step as u64);
        let w = out
            .into_iter()
            .find_map(|(d, w)| matches!((d, &w), (Dest::All, Wire::Data(_))).then_some(w))
            .expect("a multicast broadcasts its data message");
        for (r, other) in senders.iter_mut().enumerate() {
            if r != s {
                assert_eq!(other.on_wire(at, w.clone()).0.len(), 1);
            }
        }
        wires.push(w);
    }
    let delta_sent: u64 = senders.iter().map(|s| s.stats().ts_delta_sent).sum();
    assert_eq!(delta_sent, TOTAL as u64, "every message goes out delta");
    let position: HashMap<MsgId, usize> = wires
        .iter()
        .enumerate()
        .map(|(i, w)| match w {
            Wire::Data(d) => (d.id, i),
            _ => unreachable!("only data messages are stored"),
        })
        .collect();

    let reversed: Vec<usize> = (0..TOTAL).rev().collect();
    let mut swapped = reversed.clone();
    for pair in swapped.chunks_exact_mut(2).step_by(4) {
        pair.swap(0, 1);
    }
    let full_copy = |i: usize| {
        let Wire::Data(d) = &wires[i] else {
            unreachable!("only data messages are stored")
        };
        let mut copy = d.clone();
        copy.retransmit = true;
        copy.make_full();
        Wire::Data(copy)
    };
    let capped = GroupConfig {
        max_nack_batch: 5,
        ..cfg.clone()
    };
    let cases = [
        (
            0,
            cfg,
            Vec::new(),
            reversed,
            0x25e6_2161_5214_9a5e_u64,
            0x768d_622f_8bfa_c905_u64,
            (4u64, 60u64, 60u64, 500u64, 48u64, 48u64),
        ),
        (
            20,
            capped,
            vec![41, 22],
            swapped,
            0xfd15_50dc_8b06_7481,
            0x935b_82bf_8fa9_9481,
            (17, 85, 43, 578, 57, 57),
        ),
    ];
    for (me, cfg, full_first, arrival, log_pin, want_pin, stats_pin) in cases {
        let mut observer = CbcastEndpoint::<u64>::new(me, N, cfg);
        let mut inbox: VecDeque<Wire<u64>> = full_first
            .into_iter()
            .map(full_copy)
            .chain(arrival.iter().map(|&i| wires[i].clone()))
            .collect();
        let (mut log, mut wants) = (Fnv(0xcbf2_9ce4_8422_2325), Fnv(0xcbf2_9ce4_8422_2325));
        let (mut at_us, mut next, mut ticks) = (TOTAL as u64 * 1000, 0, 0);
        loop {
            let outs = if let Some(w) = inbox.pop_front() {
                at_us += 700;
                let (dels, outs) = observer.on_wire(SimTime::from_micros(at_us), w);
                for d in dels {
                    assert_eq!(d.payload, next, "P{me}: the chain delivers in send order");
                    next += 1;
                    log.word(d.id.sender as u64);
                    log.word(d.id.seq);
                    log.word(d.arrived_at.as_micros());
                    log.word(d.delivered_at.as_micros());
                    for w in d.waited_for {
                        log.word(w.sender as u64);
                        log.word(w.seq);
                    }
                }
                outs
            } else if next < TOTAL as u64 {
                ticks += 1;
                assert!(ticks < 100, "P{me}: stuck at {next} of {TOTAL}");
                at_us += 25_000;
                observer.on_tick(SimTime::from_micros(at_us))
            } else {
                break;
            };
            for (dest, out) in outs {
                let Wire::Nack { want, .. } = out else {
                    continue;
                };
                wants.word(match dest {
                    Dest::All => u64::MAX,
                    Dest::One(k) => k as u64,
                });
                for id in want {
                    wants.word(id.sender as u64);
                    wants.word(id.seq);
                    inbox.push_back(full_copy(position[&id]));
                }
            }
        }
        let s = observer.stats();
        let stats = (
            s.nacks_sent,
            s.duplicates,
            s.ts_delta_parked,
            s.holdback_work,
            s.holdback_peak,
            s.delivered_after_hold,
        );
        assert_eq!(
            (log.0, wants.0, stats),
            (log_pin, want_pin, stats_pin),
            "P{me}: ({:#018x}, {:#018x}, {stats:?}) moved",
            log.0,
            wants.0
        );
    }
}

/// FNV-1a of a rendered report.
fn text_digest(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in s.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Seed `seed` as `explain`, `waitgraph` and `latency` replay it by
/// default: the sweep's group size, indexed holdback, delta timestamps.
fn replay(seed: u64, knobs: BugKnobs, algo: Algo) -> Replay {
    Replay {
        knobs,
        algo,
        ..Replay::of(seed)
    }
}

/// The campaigns whose 50 ms wait-graph sampler output is pinned: the
/// wedged flush, two churned cbcast groups, two pccast groups with link
/// gaps.
fn sampler_campaigns() -> [CampaignResult; 5] {
    let clean = BugKnobs::default();
    let wedged = BugKnobs {
        no_flush_retry: true,
        ..clean
    };
    [
        (8, wedged, Algo::Cbcast),
        (23, clean, Algo::Cbcast),
        (137, clean, Algo::Cbcast),
        (1, clean, Algo::Pccast),
        (346, clean, Algo::Pccast),
    ]
    .map(|(seed, knobs, algo)| replay(seed, knobs, algo).run())
}

/// What the three introspection tools print, and what the 50 ms wait-graph
/// sampler saw, for the seeds that exercise every wait the stack can
/// report: the wedged flush (frozen survivors, `held here` chains),
/// chased and never-deliverable predecessors, pccast link gaps, order
/// slots and token queues. The text digests are of the whole rendered
/// string; the tuples are `(wait_hist count, wait_hist max µs, snapshots,
/// Σ stalls over all snapshots, digest of the final snapshot's summaries
/// and paths)` — the edge multiset and the analysis input order. Recorded
/// while `explain` and the sampler still walked the endpoints separately.
#[test]
fn introspection_outputs_replay_their_pinned_digests() {
    use bench::experiments::{explain, waitgraph};

    let clean = BugKnobs::default();
    let wedged = BugKnobs {
        no_flush_retry: true,
        ..clean
    };
    let m2_80 = MsgId { sender: 2, seq: 80 };
    let at60 = |seed, algo| Replay {
        at: Some(60),
        ..replay(seed, clean, algo)
    };
    let abcast = explain::run(&at60(4, Algo::Abcast));
    let token = explain::run(&at60(2, Algo::Token));
    // Neither is the report of a drained group.
    assert!(abcast.contains("its own order assignment"), "{abcast}");
    assert!(
        abcast.contains("order slot 31 = m1.7 — slot's data"),
        "{abcast}"
    );
    assert!(token.contains("order slot 29 —"), "{token}");
    assert!(token.contains("submissions queued"), "{token}");
    assert!(token.contains("token in flight"), "{token}");
    let link = explain::run(&replay(346, clean, Algo::Pccast));
    assert!(link.contains("link p1 pos 80 — nothing arrived"), "{link}");

    let dir = std::env::temp_dir().join("catocs-introspection-pin");
    let _ = std::fs::remove_dir_all(&dir);
    let scan_full = Cell {
        indexed: false,
        delta: false,
    };
    let scan_full = replay(8, wedged, Algo::Cbcast).in_cell(scan_full);
    let paths = chaos::dump_incident_to(&dir, &scan_full).expect("dump written");
    let incident = std::fs::read_to_string(&paths[0]).expect("txt dump");
    let _ = std::fs::remove_dir_all(&dir);

    let pin = |name: &str, text: String, pinned: u64| {
        let got = text_digest(&text);
        assert_eq!(got, pinned, "{name}: digest {got:#018x} moved");
    };
    let ex = |seed, msg, knobs, algo| {
        explain::run(&Replay {
            msg,
            ..replay(seed, knobs, algo)
        })
    };
    let wg = |seed, at, knobs, algo| {
        waitgraph::run(&Replay {
            at,
            ..replay(seed, knobs, algo)
        })
    };
    pin(
        "explain 8 wedged",
        ex(8, None, wedged, Algo::Cbcast),
        0x2a38_c165_c1ce_2929,
    );
    pin(
        "explain 8 m2.80",
        ex(8, Some(m2_80), wedged, Algo::Cbcast),
        0x6683_4bb4_b33c_4489,
    );
    pin(
        "explain 23",
        ex(23, None, clean, Algo::Cbcast),
        0x1987_0576_ee12_043f,
    );
    pin(
        "explain 137",
        ex(137, None, clean, Algo::Cbcast),
        0x7eae_95e3_d5b1_e937,
    );
    pin(
        "explain 1 pccast",
        ex(1, None, clean, Algo::Pccast),
        0xfbfb_c5ef_a77f_a32a,
    );
    pin("explain 346 pccast", link, 0x5285_5f60_79bd_7620);
    pin(
        "waitgraph 8 wedged",
        wg(8, None, wedged, Algo::Cbcast),
        0x4249_8e0c_ff15_b677,
    );
    pin(
        "waitgraph 8 at 0",
        wg(8, Some(0), wedged, Algo::Cbcast),
        0x056b_5535_7034_04ce,
    );
    pin(
        "waitgraph 1 pccast",
        wg(1, None, clean, Algo::Pccast),
        0x8f72_395b_9fe7_c96b,
    );
    pin(
        "waitgraph 346 pccast",
        wg(346, None, clean, Algo::Pccast),
        0x7f4e_f98b_8d51_d49b,
    );
    pin(
        "incident 8 wedged scan/full",
        incident,
        0xc75e_d84a_6b80_f687,
    );
    pin("explain 4 abcast at 60", abcast, 0x3183_7798_7887_39d1);
    pin("explain 2 token at 60", token, 0xf4e2_77fc_ffae_d42e);

    let got = sampler_campaigns().map(|r| {
        let paths: String = r
            .stalls
            .stalls
            .iter()
            .map(|s| format!("{}\n{}\n", s.summary(), s.render_path()))
            .collect();
        let stalls: usize = r.stall_timeline.iter().map(|(_, s)| s.stalls.len()).sum();
        let hist = (r.wait_hist.count(), r.wait_hist.max().as_micros());
        (hist, r.stall_timeline.len(), stalls, text_digest(&paths))
    });
    let pinned = [
        ((12163, 2_024_431), 80, 119, 0x32b7_6dcf_2530_2346_u64),
        ((24774, 1_923_977), 80, 210, 0x9548_70ae_232c_884a),
        ((53109, 1_948_705), 80, 238, 0xcbf2_9ce4_8422_2325),
        ((23472, 3_396_717), 80, 226, 0x2fbe_1477_90c7_1cc2),
        ((25871, 3_013_726), 80, 221, 0x76fa_7513_5e27_251e),
    ];
    assert_eq!(got, pinned, "what the sampler saw moved: {got:#x?}");
}

/// Everything the sampler computed in those campaigns, not only the last
/// snapshot: per snapshot its time, `max_age`, `worst_scc_size` and, per
/// ranked stall in rank order, the summary, the representative path, the
/// persistence and the severity — so component membership, tie-breaks in
/// the path walk, persistence tracking and the ranking are all in the
/// digest — then the wait-age histogram's `(count, sum µs, p50 µs, p99
/// µs)`. Recorded before the analysis stopped looking nodes up per edge
/// per candidate.
#[test]
fn stall_timelines_replay_their_pinned_digests() {
    let campaigns = sampler_campaigns();
    let got = campaigns.each_ref().map(|r| {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let text = |h: &mut Fnv, s: String| {
            h.word(s.len() as u64);
            h.word(text_digest(&s));
        };
        for (at, snap) in &r.stall_timeline {
            h.word(at.as_micros());
            h.word(snap.max_age.as_micros());
            h.word(snap.worst_scc_size as u64);
            h.word(snap.stalls.len() as u64);
            for s in &snap.stalls {
                text(&mut h, s.summary());
                text(&mut h, s.render_path());
                h.word(u64::from(s.persistence));
                h.word(s.severity as u64);
                h.word((s.severity >> 64) as u64);
            }
        }
        let w = &r.wait_hist;
        let quantile = |q| w.quantile(q).as_micros();
        let hist = (w.count(), w.sum_micros(), quantile(0.50), quantile(0.99));
        (h.0, hist)
    });
    let pinned = [
        (
            0xea1b_9b9f_6612_c4d5_u64,
            (12163u64, 7_172_348_268_u128, 417_162_u64, 2_024_431_u64),
        ),
        (
            0xffe5_b7af_4c7a_0d86,
            (24774, 18_005_986_431, 674_864, 1_923_977),
        ),
        (
            0x381a_4450_8268_bddd,
            (53109, 36_743_399_192, 634_344, 1_948_705),
        ),
        (
            0xe277_a4d5_debd_7674,
            (23472, 31_704_709_344, 1_303_632, 3_396_717),
        ),
        (
            0x8eac_9cc9_6a37_8dd9,
            (25871, 31_384_184_402, 1_157_372, 3_013_726),
        ),
    ];
    assert_eq!(got, pinned, "a stall timeline moved: {got:#x?}");

    // Not a pin of blanks: the wedged flush is a persistent cycle, and
    // some stall is a wedge reached along a chain of waits.
    fn stalls(r: &CampaignResult) -> impl Iterator<Item = &RankedStall> {
        r.stall_timeline.iter().flat_map(|(_, s)| &s.stalls)
    }
    assert!(stalls(&campaigns[0]).any(|s| s.is_cycle && s.is_persistent()));
    let mut all = campaigns.iter().flat_map(stalls);
    assert!(all.any(|s| !s.is_cycle && s.path.len() >= 3));
}
