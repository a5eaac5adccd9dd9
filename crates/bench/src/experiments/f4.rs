//! F4 — Figure 4: the trading false crossing.
//!
//! For each ordering discipline, counts the false crossings the naive
//! monitor displays and shows the dependency-field monitor suppressing
//! them all. Also reports the ordering layer's own cost (held
//! deliveries) for context.

use crate::table::Table;
use apps::trading::{run_trading, TradingResult};
use catocs::endpoint::Discipline;
use simnet::net::{LatencyModel, NetConfig};
use simnet::time::SimDuration;

fn jittery() -> NetConfig {
    NetConfig {
        latency: LatencyModel::Uniform {
            min: SimDuration::from_micros(200),
            max: SimDuration::from_millis(8),
        },
        ..NetConfig::default()
    }
}

fn sweep(d: Discipline, state_level: bool, seeds: u64) -> TradingResult {
    let mut acc = TradingResult::default();
    for seed in 0..seeds {
        let r = run_trading(
            seed,
            d,
            state_level,
            120,
            SimDuration::from_millis(4),
            SimDuration::from_millis(3),
            jittery(),
        );
        acc.false_crossings += r.false_crossings;
        acc.suppressed_stale += r.suppressed_stale;
        acc.displayed += r.displayed;
        acc.monitor_held += r.monitor_held;
        acc.net_sent += r.net_sent;
    }
    acc
}

/// Runs the sweep, `seeds` runs of 120 price updates per configuration.
pub fn run(seeds: u64) -> Table {
    let mut t = Table::new(
        "F4 — Figure 4: trading false crossings (120 updates/run)",
        &[
            "monitor",
            "discipline",
            "false crossings",
            "suppressed stale",
            "displayed",
            "held deliveries",
        ],
    );
    for (name, d) in [
        ("fifo", Discipline::Fifo),
        ("causal", Discipline::Causal),
        ("total", Discipline::Total),
    ] {
        let r = sweep(d, false, seeds);
        t.row(vec![
            "naive".into(),
            name.into(),
            r.false_crossings.into(),
            r.suppressed_stale.into(),
            r.displayed.into(),
            r.monitor_held.into(),
        ]);
    }
    for (name, d) in [("fifo", Discipline::Fifo), ("causal", Discipline::Causal)] {
        let r = sweep(d, true, seeds);
        t.row(vec![
            "dependency-field".into(),
            name.into(),
            r.false_crossings.into(),
            r.suppressed_stale.into(),
            r.displayed.into(),
            r.monitor_held.into(),
        ]);
    }
    t.note("the new option price and old theoretical price are concurrent —");
    t.note("\"neither causal or total multicast can avoid this anomaly\" (§4.1);");
    t.note("the dependency field fixes it on any transport, even plain FIFO.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let t = run(3);
        // Naive monitors show crossings under every discipline.
        for row in 0..3 {
            assert!(t.get_f64(row, 2) > 0.0, "row {row} should show crossings");
        }
        // Dependency-field monitors show none and suppress some.
        for row in 3..5 {
            assert_eq!(t.get_f64(row, 2), 0.0);
            assert!(t.get_f64(row, 3) > 0.0);
        }
    }
}
