//! Property-based integration tests: ordering invariants hold for random
//! workloads, group sizes, loss rates and seeds.

use catocs::endpoint::Discipline;
use catocs::group::{CausalDiscipline, GroupConfig};
use catocs::harness::{spawn_group, GroupApp, GroupCtx, GroupNode};
use catocs::wire::{Delivery, Wire};
use clocks::vector::VectorClock;
use proptest::prelude::*;
use simnet::net::NetConfig;
use simnet::sim::SimBuilder;
use simnet::time::{SimDuration, SimTime};

/// Payload carries the sender's causal history (its delivered clock at
/// send time) so receivers can verify happens-before directly.
#[derive(Clone, Debug)]
struct Stamped {
    vt_at_send: VectorClock,
}

struct Verifier {
    me: usize,
    n: usize,
    remaining: u32,
    delivered_clock: VectorClock,
    violations: u32,
    delivered: u32,
    /// Full delivery sequence, for cross-discipline comparison.
    order: Vec<(usize, u64)>,
}

impl GroupApp<Stamped> for Verifier {
    fn on_tick(&mut self, _ctx: &mut GroupCtx<'_>) -> Vec<Stamped> {
        if self.remaining == 0 {
            return Vec::new();
        }
        self.remaining -= 1;
        // Snapshot our delivered state; the send itself is accounted by
        // the endpoint's own clock.
        let mut vt = self.delivered_clock.clone();
        vt.tick(self.me);
        vec![Stamped { vt_at_send: vt }]
    }

    fn on_deliver(&mut self, _ctx: &mut GroupCtx<'_>, d: &Delivery<Stamped>) -> Vec<Stamped> {
        // Causal safety: everything the sender had delivered when it sent
        // this message must already be delivered here (for components
        // other than the sender's own entry, which counts the message
        // itself).
        for k in 0..self.n {
            let needed = if k == d.id.sender {
                d.payload.vt_at_send.get(k).saturating_sub(1)
            } else {
                d.payload.vt_at_send.get(k)
            };
            // Our app-level clock counts deliveries per sender.
            if self.delivered_clock.get(k) < needed {
                self.violations += 1;
            }
        }
        let seen = self.delivered_clock.get(d.id.sender);
        self.delivered_clock.set(d.id.sender, seen.max(d.id.seq));
        self.delivered += 1;
        self.order.push((d.id.sender, d.id.seq));
        Vec::new()
    }
}

/// Per-process delivery sequences, as `(sender, seq)` in delivery order.
type DeliveryOrders = Vec<Vec<(usize, u64)>>;

/// Runs the verified causal workload in the given causal discipline.
/// Returns `((violations, delivered, expected), per-process delivery
/// sequences)`.
fn run_verified(
    seed: u64,
    n: usize,
    msgs: u32,
    loss: f64,
    discipline: CausalDiscipline,
) -> ((u32, u32, u32), DeliveryOrders) {
    let mut sim = SimBuilder::new(seed)
        .net(NetConfig::lossy_lan(loss))
        .build::<Wire<Stamped>>();
    let members = spawn_group(
        &mut sim,
        n,
        Discipline::Causal,
        GroupConfig {
            discipline,
            ..GroupConfig::default()
        },
        Some(SimDuration::from_millis(9)),
        |me| Verifier {
            me,
            n,
            remaining: msgs,
            delivered_clock: VectorClock::new(n),
            violations: 0,
            delivered: 0,
            order: Vec::new(),
        },
    );
    sim.run_until(SimTime::from_secs(8));
    let mut violations = 0;
    let mut delivered = 0;
    let mut orders = Vec::new();
    for &m in &members {
        let node = sim
            .process::<GroupNode<Stamped, Verifier>>(m)
            .expect("node");
        violations += node.app().violations;
        delivered += node.app().delivered;
        orders.push(node.app().order.clone());
    }
    ((violations, delivered, n as u32 * msgs * n as u32), orders)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Causal delivery is never violated, for any seed / size / loss.
    #[test]
    fn causal_safety_under_chaos(
        seed in 0u64..10_000,
        n in 2usize..7,
        msgs in 1u32..8,
        loss in 0.0f64..0.2,
    ) {
        let ((violations, _, _), _) = run_verified(seed, n, msgs, loss, CausalDiscipline::Cbcast);
        prop_assert_eq!(violations, 0, "happens-before violated");
    }

    /// Liveness: with NACK recovery, everything sent is delivered
    /// everywhere (given enough simulated time).
    #[test]
    fn eventual_delivery_under_loss(
        seed in 0u64..10_000,
        n in 2usize..6,
        msgs in 1u32..6,
    ) {
        let ((_, delivered, expected), _) =
            run_verified(seed, n, msgs, 0.15, CausalDiscipline::Cbcast);
        prop_assert_eq!(delivered, expected, "messages lost forever");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The constant-metadata discipline (pccast) upholds the same causal
    /// safety contract as cbcast, for any seed / size / loss — checked by
    /// the same app-level happens-before verifier, which knows nothing
    /// about either algorithm.
    #[test]
    fn pccast_causal_safety_under_chaos(
        seed in 0u64..10_000,
        n in 2usize..7,
        msgs in 1u32..8,
        loss in 0.0f64..0.2,
    ) {
        let ((violations, _, _), _) =
            run_verified(seed, n, msgs, loss, CausalDiscipline::Pccast);
        prop_assert_eq!(violations, 0, "happens-before violated (pccast)");
    }

    /// Delivery-order equivalence: for the same seeded workload, cbcast
    /// and pccast deliver the same messages at every process with
    /// identical per-sender delivery sequences (the per-sender FIFO
    /// projections must agree exactly — the two algorithms may interleave
    /// concurrent senders differently, which causal order permits).
    #[test]
    fn pccast_delivery_prefixes_match_cbcast(
        seed in 0u64..10_000,
        n in 2usize..6,
        msgs in 1u32..6,
        loss in 0.0f64..0.15,
    ) {
        let ((cv, cd, expected), corders) =
            run_verified(seed, n, msgs, loss, CausalDiscipline::Cbcast);
        let ((pv, pd, _), porders) =
            run_verified(seed, n, msgs, loss, CausalDiscipline::Pccast);
        prop_assert_eq!(cv, 0);
        prop_assert_eq!(pv, 0);
        prop_assert_eq!(cd, expected, "cbcast lost messages");
        prop_assert_eq!(pd, expected, "pccast lost messages");
        for (who, (c, p)) in corders.iter().zip(porders.iter()).enumerate() {
            for sender in 0..n {
                let cs: Vec<u64> =
                    c.iter().filter(|(s, _)| *s == sender).map(|(_, q)| *q).collect();
                let ps: Vec<u64> =
                    p.iter().filter(|(s, _)| *s == sender).map(|(_, q)| *q).collect();
                prop_assert_eq!(
                    &cs, &ps,
                    "P{} diverges from cbcast on sender {}'s prefix", who, sender
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Total order agreement for random workloads.
    #[test]
    fn abcast_agreement(seed in 0u64..10_000, n in 2usize..6, msgs in 1u32..6) {
        struct Recorder {
            remaining: u32,
            order: Vec<(usize, u64)>,
        }
        impl GroupApp<u32> for Recorder {
            fn on_tick(&mut self, ctx: &mut GroupCtx<'_>) -> Vec<u32> {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    vec![ctx.me as u32]
                } else {
                    Vec::new()
                }
            }
            fn on_deliver(&mut self, _c: &mut GroupCtx<'_>, d: &Delivery<u32>) -> Vec<u32> {
                self.order.push((d.id.sender, d.id.seq));
                Vec::new()
            }
        }
        let mut sim = SimBuilder::new(seed)
            .net(NetConfig::lossy_lan(0.1))
            .build::<Wire<u32>>();
        let members = spawn_group(
            &mut sim,
            n,
            Discipline::Total { sequencer: 0 },
            GroupConfig::default(),
            Some(SimDuration::from_millis(10)),
            |_| Recorder { remaining: msgs, order: Vec::new() },
        );
        sim.run_until(SimTime::from_secs(8));
        let reference = sim
            .process::<GroupNode<u32, Recorder>>(members[0])
            .unwrap()
            .app()
            .order
            .clone();
        prop_assert_eq!(reference.len() as u32, n as u32 * msgs);
        for &m in &members[1..] {
            let order = &sim.process::<GroupNode<u32, Recorder>>(m).unwrap().app().order;
            prop_assert_eq!(order, &reference, "divergent total order");
        }
    }
}
