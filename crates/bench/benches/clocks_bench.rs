//! Criterion benches for T7's CPU-cost claim: "ordering information is
//! added each transmission and checked on each reception. This overhead
//! will be an increasingly significant cost as networks go to ever higher
//! transfer rates and other aspects of protocol processing are further
//! optimized."
//!
//! Measures, per group size: vector-clock tick+clone (the send path),
//! encode/decode (the wire path), the cbcast deliverability check (the
//! receive path), merge, the matrix-clock stability frontier recomputed
//! from scratch, and the incremental frontier endpoints actually read.

use catocs::stability::StabilityTracker;
use clocks::matrix::MatrixClock;
use clocks::vector::VectorClock;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

const SIZES: &[usize] = &[4, 16, 64, 256];

fn make_clock(n: usize, salt: u64) -> VectorClock {
    let mut c = VectorClock::new(n);
    for i in 0..n {
        c.set(i, (i as u64 * 7 + salt) % 97);
    }
    c
}

fn bench_send_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("vt_send_path");
    for &n in SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut clock = make_clock(n, 1);
            b.iter(|| {
                clock.tick(0);
                black_box(clock.clone())
            });
        });
    }
    g.finish();
}

fn bench_encode_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("vt_encode_decode");
    for &n in SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let clock = make_clock(n, 2);
            b.iter(|| {
                let bytes = clock.encode();
                black_box(VectorClock::decode(&bytes).unwrap())
            });
        });
    }
    g.finish();
}

fn bench_delta_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("vt_delta_encode");
    for &n in SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let base = make_clock(n, 3);
            let mut next = base.clone();
            next.tick(n / 2);
            b.iter(|| black_box(next.encode_delta(&base)));
        });
    }
    g.finish();
}

fn bench_deliverability(c: &mut Criterion) {
    let mut g = c.benchmark_group("vt_deliverable_check");
    for &n in SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let state = make_clock(n, 4);
            let mut msg = state.clone();
            msg.tick(0);
            b.iter(|| black_box(state.deliverable(&msg, 0)));
        });
    }
    g.finish();
}

fn bench_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("vt_merge");
    for &n in SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let a = make_clock(n, 5);
            let bb = make_clock(n, 6);
            b.iter(|| {
                let mut m = a.clone();
                m.merge(&bb);
                black_box(m)
            });
        });
    }
    g.finish();
}

fn bench_stable_frontier(c: &mut Criterion) {
    let mut g = c.benchmark_group("matrix_stable_frontier");
    for &n in SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut m = MatrixClock::new(n);
            for i in 0..n {
                for s in 0..n {
                    m.record_delivery(i, s, ((i + s) % 13) as u64);
                }
            }
            b.iter(|| black_box(m.stable_frontier()));
        });
    }
    g.finish();
}

/// What an endpoint pays per ack: fold one advanced row into the
/// tracker, then read the frontier — the incremental counterpart of the
/// from-scratch walk above.
fn bench_stability_update_then_frontier(c: &mut Criterion) {
    let mut g = c.benchmark_group("stability_update_then_frontier");
    for &n in SIZES {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut tracker = StabilityTracker::new(n);
            let mut row = VectorClock::new(n);
            let mut who = 0;
            b.iter(|| {
                row.tick(who);
                tracker.update_row(who, &row);
                who = (who + 1) % n;
                black_box(tracker.stable_frontier())
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_send_path,
    bench_encode_decode,
    bench_delta_encode,
    bench_deliverability,
    bench_merge,
    bench_stable_frontier,
    bench_stability_update_then_frontier
);
criterion_main!(benches);
