//! F3 — Figure 3: the fire as an external channel.
//!
//! Sweeps seeds under causal and total multicast: how often the observer's
//! last delivery is "fire out" (wrong belief), and that timestamp
//! ordering always ends with the correct belief.

use crate::table::Table;
use apps::firemon::run_firemon;
use catocs::endpoint::Discipline;
use simnet::net::{LatencyModel, NetConfig};
use simnet::time::SimDuration;

fn jittery() -> NetConfig {
    NetConfig {
        latency: LatencyModel::Uniform {
            min: SimDuration::from_micros(100),
            max: SimDuration::from_millis(18),
        },
        ..NetConfig::default()
    }
}

/// Runs the sweep over `seeds` seeds per discipline.
pub fn run(seeds: u64) -> Table {
    let mut t = Table::new(
        "F3 — Figure 3: external channel (fire); Q's final belief",
        &[
            "discipline",
            "runs",
            "\"fire out\" last",
            "naive wrong",
            "rt-stamp wrong",
        ],
    );
    for (name, d) in [("causal", Discipline::Causal), ("total", Discipline::Total)] {
        let mut out_last = 0u64;
        let mut naive_wrong = 0u64;
        let mut rt_wrong = 0u64;
        for seed in 0..seeds {
            let r = run_firemon(seed, d, jittery(), 300);
            if r.out_delivered_last {
                out_last += 1;
            }
            if r.naive_fire != Some(true) {
                naive_wrong += 1;
            }
            if r.rt_fire != Some(true) {
                rt_wrong += 1;
            }
        }
        t.row(vec![
            name.into(),
            seeds.into(),
            out_last.into(),
            naive_wrong.into(),
            rt_wrong.into(),
        ]);
    }
    t.note("clock skew ±300us, error bound 1ms, event spacing 5ms —");
    t.note("temporal precedence is exact while message order is not (§4.6).");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let t = run(40);
        for row in 0..2 {
            assert!(
                t.get_f64(row, 2) > 0.0,
                "anomaly must occur under both disciplines"
            );
            assert_eq!(t.get_f64(row, 4), 0.0, "rt belief never wrong");
        }
    }
}
