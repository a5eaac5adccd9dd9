//! Cross-crate integration: the full stack (simnet → catocs →
//! application scenarios) behaves deterministically and delivers its
//! guarantees end to end.

use catocs::endpoint::Discipline;
use catocs::group::GroupConfig;
use catocs::harness::{spawn_group, Chatter, GroupNode};
use catocs::wire::Wire;
use simnet::net::NetConfig;
use simnet::sim::SimBuilder;
use simnet::time::{SimDuration, SimTime};

fn run_group(seed: u64, n: usize, d: Discipline, loss: f64) -> Vec<Vec<(usize, u64)>> {
    let mut sim = SimBuilder::new(seed)
        .net(NetConfig::lossy_lan(loss))
        .build::<Wire<u32>>();
    let members = spawn_group(
        &mut sim,
        n,
        d,
        GroupConfig::default(),
        Some(SimDuration::from_millis(12)),
        |_| Chatter {
            remaining: 8,
            burst: 1,
        },
    );
    sim.run_until(SimTime::from_secs(6));
    members
        .iter()
        .map(|&m| {
            let node = sim.process::<GroupNode<u32, Chatter>>(m).expect("node");
            let log = node.delivered_log.iter();
            log.map(|d| (d.id.sender, d.id.seq)).collect()
        })
        .collect()
}

#[test]
fn same_seed_same_history() {
    let a = run_group(99, 5, Discipline::Causal, 0.08);
    let b = run_group(99, 5, Discipline::Causal, 0.08);
    assert_eq!(a, b, "simulation must be fully deterministic");
}

#[test]
fn different_seed_different_history() {
    let a = run_group(99, 5, Discipline::Causal, 0.08);
    let b = run_group(100, 5, Discipline::Causal, 0.08);
    assert_ne!(a, b);
}

#[test]
fn everyone_delivers_everything_despite_loss() {
    for d in [
        Discipline::Fifo,
        Discipline::Causal,
        Discipline::Total { sequencer: 0 },
    ] {
        let histories = run_group(7, 5, d, 0.1);
        for (i, h) in histories.iter().enumerate() {
            assert_eq!(h.len(), 40, "member {i} under {d:?} missed messages");
        }
    }
}

#[test]
fn causal_implies_per_sender_fifo() {
    let histories = run_group(3, 6, Discipline::Causal, 0.1);
    for h in &histories {
        let mut last = std::collections::HashMap::new();
        for &(s, q) in h {
            let e = last.entry(s).or_insert(0u64);
            assert_eq!(q, *e + 1, "sender {s} out of order");
            *e = q;
        }
    }
}

#[test]
fn total_order_is_identical_everywhere() {
    for seed in [1u64, 5, 9] {
        let histories = run_group(seed, 5, Discipline::Total { sequencer: 0 }, 0.05);
        for h in &histories[1..] {
            assert_eq!(h, &histories[0], "seed {seed}");
        }
    }
}

#[test]
fn token_total_order_matches_too() {
    // 5% loss: reliable token passing (TokenAck + retransmit) keeps the
    // ring alive.
    let histories = run_group(4, 4, Discipline::TotalToken, 0.05);
    for h in &histories[1..] {
        assert_eq!(h, &histories[0]);
    }
    assert_eq!(histories[0].len(), 32);
}

#[test]
fn trace_digest_is_reproducible() {
    let digest = |seed: u64| {
        let mut sim = SimBuilder::new(seed)
            .net(NetConfig::lossy_lan(0.1))
            .trace()
            .build::<Wire<u32>>();
        spawn_group(
            &mut sim,
            3,
            Discipline::Causal,
            GroupConfig::default(),
            Some(SimDuration::from_millis(10)),
            |_| Chatter {
                remaining: 5,
                burst: 1,
            },
        );
        sim.run_until(SimTime::from_secs(3));
        sim.trace().digest()
    };
    assert_eq!(digest(42), digest(42));
    assert_ne!(digest(42), digest(43));
}

#[test]
fn umbrella_crate_reexports_work() {
    // The root library exposes every subsystem.
    use catocs_repro::{clocks, statelevel, txn};
    let mut vc = clocks::vector::VectorClock::new(3);
    vc.tick(0);
    assert_eq!(vc.get(0), 1);
    let mut store: statelevel::versioned::VersionedStore<u8> =
        statelevel::versioned::VersionedStore::new();
    store.update_local(clocks::versions::ObjectId(1), 7);
    let mut lm = txn::lock::LockManager::new();
    assert_eq!(
        lm.acquire(txn::lock::TxId(1), 1, txn::lock::LockMode::Shared),
        txn::lock::LockOutcome::Granted
    );
}
