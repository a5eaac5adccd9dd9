//! The Figure-4 trading floor, live.
//!
//! ```text
//! cargo run --example trading_floor
//! ```
//!
//! Runs the option/theoretical pricing scenario three ways — causal
//! multicast, totally ordered multicast, and the paper's state-level
//! dependency-field fix — and prints the false-crossing counts.

use apps::trading::run_trading;
use catocs::endpoint::Discipline;
use simnet::net::{LatencyModel, NetConfig};
use simnet::time::SimDuration;

fn net() -> NetConfig {
    NetConfig {
        latency: LatencyModel::Uniform {
            min: SimDuration::from_micros(200),
            max: SimDuration::from_millis(8),
        },
        ..NetConfig::default()
    }
}

fn main() {
    println!("Figure 4: a theoretical price must order after the option");
    println!("price it derives from and before the next option price.");
    println!("That constraint is invisible to happens-before.\n");

    let configs = [
        ("causal multicast, naive monitor", Discipline::Causal, false),
        ("total order,      naive monitor", Discipline::Total, false),
        ("plain FIFO,  dependency fields", Discipline::Fifo, true),
        ("causal,      dependency fields", Discipline::Causal, true),
    ];

    for (label, d, state_level) in configs {
        let mut crossings = 0;
        let mut suppressed = 0;
        let mut displayed = 0;
        for seed in 0..10 {
            let r = run_trading(
                seed,
                d,
                state_level,
                150,
                SimDuration::from_millis(4),
                SimDuration::from_millis(3),
                net(),
            );
            crossings += r.false_crossings;
            suppressed += r.suppressed_stale;
            displayed += r.displayed;
        }
        println!(
            "{label}:  false crossings = {crossings:3}   \
             stale suppressed = {suppressed:3}   displayed = {displayed}"
        );
    }

    println!("\nAs the paper argues (§4.1): no ordering discipline prevents");
    println!("the crossing — only the state-level dependency field does.");
}
