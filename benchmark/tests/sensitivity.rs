//! Known-answer sensitivity test: a fixed cost injected into one layer
//! must show up in that layer's row by that amount, move the end-to-end
//! throughput by what the event count predicts, and move nothing else.
//! Alone in its test binary so no other test competes for the CPU.

use catocs_benchmark::dense::{Dense, Plain, Spans, Spin, Wrap};
use catocs_benchmark::outcome::{median, Rep};
use catocs_benchmark::trace::TraceHandle;

/// Injected per `on_message`, ns.
const X: u64 = 20_000;

fn on_message_ns<W: Wrap>(d: &Dense, inner: W) -> (f64, u64) {
    let trace = TraceHandle::new(1 << 18);
    let wrap = Spans {
        inner,
        trace: &trace,
        sampled: 0,
    };
    d.execute_with(&wrap, Some(&trace), |_, _| {});
    let rows = trace.aggregate();
    let row = rows
        .iter()
        .find(|a| a.name == "harness.on_message")
        .unwrap();
    (row.total_ns as f64 / row.calls as f64, row.calls)
}

fn median_wall<W: Wrap>(d: &Dense, wrap: &W) -> (f64, Rep) {
    let reps: Vec<Rep> = (0..3)
        .map(|_| d.execute_with(wrap, None, |_, _| {}))
        .collect();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall.as_secs_f64()).collect();
    (median(&walls), reps.into_iter().next_back().unwrap())
}

#[test]
fn a_known_cost_in_on_message_shows_where_and_by_how_much_it_should() {
    let d = Dense::named("dense_fifo", 12, 30, 1).unwrap();

    // The layer row rises by X.
    let (base_ns, calls) = on_message_ns(&d, Plain);
    let (spun_ns, spun_calls) = on_message_ns(&d, Spin(X));
    assert_eq!(
        calls, spun_calls,
        "the injected cost changed the event count"
    );
    let rise = spun_ns - base_ns;
    assert!(
        (0.8 * X as f64..1.2 * X as f64).contains(&rise),
        "harness.on_message.ns_per_op rose by {rise:.0} ns for {X} ns injected"
    );

    // Throughput falls by what the event count predicts.
    let (base_s, base) = median_wall(&d, &Plain);
    let (spun_s, spun) = median_wall(&d, &Spin(X));
    let predicted_s = calls as f64 * X as f64 * 1e-9;
    let added_s = spun_s - base_s;
    assert!(
        (0.8 * predicted_s..1.2 * predicted_s).contains(&added_s),
        "repetition grew by {added_s:.4} s, {calls} calls x {X} ns predict {predicted_s:.4} s"
    );
    let per_s = |o: &Rep, s: f64| o.outcome.deliveries as f64 / s;
    let predicted_rate = base.outcome.deliveries as f64 / (base_s + predicted_s);
    let rate = per_s(&spun, spun_s);
    assert!(
        (rate - predicted_rate).abs() <= 0.2 * predicted_rate,
        "deliveries_per_s {rate:.0}, predicted {predicted_rate:.0}"
    );

    // Nothing virtual moves: same digest, latencies, bytes, messages.
    assert!(base.outcome.same_run(&spun.outcome));
}
