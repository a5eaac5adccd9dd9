//! Micro-probes of the layers beneath the endpoint: `clocks`, `holdback`,
//! `stability`, `wire` and `membership`, timed by direct calls to their
//! public functions with operands shaped like the run's — its group
//! width, how many members actually send, the holdback depth it
//! reached, the timestamp encoding it put on the wire.

use catocs::group::{MsgId, View, ViewId};
use catocs::holdback::{HoldbackQueue, Pending};
use catocs::membership::MembershipEngine;
use catocs::stability::StabilityTracker;
use catocs::wire::{DataMsg, Dest, Out, VtWire, Wire};
use clocks::matrix::MatrixClock;
use clocks::vector::VectorClock;
use simnet::process::ProcessId;
use simnet::time::SimTime;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How a run's data messages carried their timestamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stamp {
    /// Full vector.
    Full,
    /// Delta against the sender's previous message.
    Delta,
    /// pccast's constant-size link tag.
    Pc,
}

/// The operand shape a run hands the probes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Group size: vector and matrix width.
    pub n: usize,
    /// Members that send, i.e. non-zero clock components and matrix rows.
    pub active: usize,
    /// Holdback depth to probe at (the run's peak, at least 1).
    pub holdback: usize,
    /// Timestamp encoding on the wire.
    pub stamp: Stamp,
}

/// ns per operation of every probed function.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProbeTimes {
    /// `VectorClock::merge`.
    pub vector_merge: f64,
    /// `VectorClock::compare`.
    pub vector_compare: f64,
    /// `VectorClock::deliverable`.
    pub vector_deliverable: f64,
    /// `VectorClock::clone`.
    pub vector_clone: f64,
    /// `VectorClock::encode_delta`.
    pub vector_encode_delta: f64,
    /// `VectorClock::decode_delta`.
    pub vector_decode_delta: f64,
    /// `MatrixClock::update_row`.
    pub matrix_update_row: f64,
    /// `MatrixClock::stable_frontier`.
    pub matrix_stable_frontier: f64,
    /// `StabilityTracker::update_row`.
    pub stability_update_row: f64,
    /// `StabilityTracker::stable_frontier`.
    pub stability_stable_frontier: f64,
    /// `HoldbackQueue::insert`.
    pub holdback_insert: f64,
    /// `HoldbackQueue::pop_ready` + `note_delivered`.
    pub holdback_pop_ready: f64,
    /// `Wire::clone` of a data message.
    pub wire_clone_data: f64,
    /// `Wire::clone` of an ack gossip.
    pub wire_clone_ack: f64,
    /// One crash flushed out of a five-member group through
    /// `MembershipEngine`'s public calls.
    pub membership_flush_round: f64,
}

/// Time budget per probed function.
const BUDGET: Duration = Duration::from_millis(15);

/// Mean ns per call of `f`, calling it in batches until [`BUDGET`] is
/// spent.
fn ns_per_op(mut f: impl FnMut()) -> f64 {
    let mut calls = 0u64;
    let mut batch = 16u64;
    let start = Instant::now();
    loop {
        for _ in 0..batch {
            f();
        }
        calls += batch;
        let spent = start.elapsed();
        if spent >= BUDGET {
            return spent.as_nanos() as f64 / calls as f64;
        }
        batch = (batch * 2).min(1 << 16);
    }
}

/// A clock of width `n` whose first `active` components are non-zero.
fn clock(n: usize, active: usize, value: u64) -> VectorClock {
    let mut c = VectorClock::new(n);
    for i in 0..active.min(n) {
        c.set(i, value + i as u64 % 3);
    }
    c
}

/// A causal chain of `len` data messages round-robin over `active`
/// senders, each following the whole prefix.
fn chain(shape: &Shape, len: usize) -> Vec<DataMsg<u64>> {
    let mut vt = VectorClock::new(shape.n);
    (0..len)
        .map(|i| {
            let sender = i % shape.active.max(1);
            let seq = vt.tick(sender);
            DataMsg::new(MsgId { sender, seq }, vt.clone(), i as u64)
        })
        .collect()
}

/// Runs every probe at `shape`.
pub fn run(shape: &Shape) -> ProbeTimes {
    let Shape { n, active, .. } = *shape;
    let mut t = ProbeTimes::default();

    let a = clock(n, active, 7);
    let mut b = a.clone();
    b.tick(0);
    let mut acc = a.clone();
    t.vector_merge = ns_per_op(|| {
        acc.merge(black_box(&b));
    });
    t.vector_compare = ns_per_op(|| {
        black_box(black_box(&a).compare(black_box(&b)));
    });
    t.vector_deliverable = ns_per_op(|| {
        black_box(black_box(&a).deliverable(black_box(&b), 0));
    });
    t.vector_clone = ns_per_op(|| {
        black_box(black_box(&b).clone());
    });
    t.vector_encode_delta = ns_per_op(|| {
        black_box(black_box(&b).encode_delta(black_box(&a)));
    });
    let delta = b.encode_delta(&a);
    t.vector_decode_delta = ns_per_op(|| {
        black_box(VectorClock::decode_delta(black_box(&delta), black_box(&a)));
    });

    // Rows of the members that speak, advancing as gossip does.
    let mut matrix = MatrixClock::new(n);
    let mut stability = StabilityTracker::new(n);
    let mut row = a.clone();
    let mut who = 0;
    t.matrix_update_row = ns_per_op(|| {
        row.tick(who);
        black_box(matrix.update_row(who, &row));
        who = (who + 1) % active.max(1);
    });
    t.matrix_stable_frontier = ns_per_op(|| {
        black_box(black_box(&matrix).stable_frontier());
    });
    t.stability_update_row = ns_per_op(|| {
        row.tick(who);
        black_box(stability.update_row(who, &row));
        who = (who + 1) % active.max(1);
    });
    t.stability_stable_frontier = ns_per_op(|| {
        black_box(black_box(&stability).stable_frontier());
    });

    let (insert, pop) = holdback(shape);
    t.holdback_insert = insert;
    t.holdback_pop_ready = pop;

    let mut data = chain(shape, 1).pop().expect("one message");
    data.vt_wire = match shape.stamp {
        Stamp::Full => VtWire::Full(data.vt.encode()),
        Stamp::Delta => VtWire::Delta(data.vt.encode_delta(&VectorClock::new(n))),
        Stamp::Pc => VtWire::Pc {
            epoch: 1,
            from: 0,
            link_seq: 1,
        },
    };
    let data = Wire::Data(data);
    t.wire_clone_data = ns_per_op(|| {
        black_box(black_box(&data).clone());
    });
    let ack: Wire<u64> = Wire::AckGossip {
        from: 0,
        delivered: a.clone(),
    };
    t.wire_clone_ack = ns_per_op(|| {
        black_box(black_box(&ack).clone());
    });

    t.membership_flush_round = ns_per_op(|| {
        black_box(flush_round(5));
    });
    t
}

/// (ns per insert, ns per pop) of an indexed holdback queue filled with
/// a reversed causal chain of the run's peak depth and then drained.
fn holdback(shape: &Shape) -> (f64, f64) {
    let depth = shape.holdback.max(1);
    let msgs = chain(shape, depth);
    let (mut insert_ns, mut pop_ns, mut rounds) = (0u128, 0u128, 0u64);
    let start = Instant::now();
    while start.elapsed() < BUDGET * 2 {
        let mut q: HoldbackQueue<u64> = HoldbackQueue::new(true, shape.n);
        let mut local = VectorClock::new(shape.n);
        let batch: Vec<Pending<u64>> = msgs
            .iter()
            .rev()
            .enumerate()
            .map(|(i, m)| Pending {
                msg: m.clone(),
                arrived_at: SimTime::from_micros(i as u64),
            })
            .collect();
        let t0 = Instant::now();
        for p in batch {
            black_box(q.insert(p, &local));
        }
        insert_ns += t0.elapsed().as_nanos();
        let t1 = Instant::now();
        let mut popped = 0;
        while let Some(p) = q.pop_ready(&local) {
            local.set(p.msg.id.sender, p.msg.id.seq);
            q.note_delivered(p.msg.id.sender, p.msg.id.seq);
            popped += 1;
        }
        pop_ns += t1.elapsed().as_nanos();
        assert_eq!(popped, depth, "a causal chain drains completely");
        rounds += 1;
    }
    let ops = (rounds * depth as u64) as f64;
    (insert_ns as f64 / ops, pop_ns as f64 / ops)
}

/// Member `n-1` of an `n`-member group is suspected by the coordinator;
/// pumps the flush protocol among the survivors' engines until the new
/// view is installed everywhere. Returns the messages exchanged.
pub fn flush_round(n: usize) -> usize {
    let now = SimTime::from_millis(1);
    let clock = VectorClock::new(n);
    let dead = n - 1;
    let mut engines: Vec<MembershipEngine> =
        (0..n).map(|me| MembershipEngine::new(me, n)).collect();
    let mut queue: VecDeque<(usize, Wire<u64>)> = VecDeque::new();
    let route = |from: usize, out: Vec<Out<u64>>, queue: &mut VecDeque<(usize, Wire<u64>)>| {
        for (dest, w) in out {
            match dest {
                Dest::All => queue.extend((0..n).filter(|&k| k != from).map(|k| (k, w.clone()))),
                Dest::One(k) => queue.push_back((k, w)),
            }
        }
    };
    let (_, out) = engines[0].suspect::<u64>(now, &[dead], &clock);
    route(0, out, &mut queue);
    let mut exchanged = 0;
    while let Some((to, w)) = queue.pop_front() {
        exchanged += 1;
        if to == dead {
            continue;
        }
        let (_, out) = engines[to].on_wire(now, &w, &clock);
        route(to, out, &mut queue);
    }
    let expected = View {
        id: ViewId(2),
        members: (0..dead).map(ProcessId).collect(),
    };
    for e in &engines[..dead] {
        assert_eq!(e.view(), &expected, "every survivor installs the new view");
    }
    exchanged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_run_at_a_small_shape() {
        let t = run(&Shape {
            n: 16,
            active: 4,
            holdback: 8,
            stamp: Stamp::Delta,
        });
        for v in [
            t.vector_merge,
            t.vector_clone,
            t.vector_decode_delta,
            t.matrix_stable_frontier,
            t.holdback_insert,
            t.holdback_pop_ready,
            t.wire_clone_data,
            t.membership_flush_round,
        ] {
            assert!(v > 0.0 && v.is_finite());
        }
    }

    #[test]
    fn a_flush_round_installs_the_view() {
        // Flush out, FlushOk back, Install out, among four survivors.
        assert!(flush_round(5) >= 3 * 3);
    }
}
