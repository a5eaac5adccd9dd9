//! Wide sweeps of the virtual-synchrony fault campaigns at
//! `CampaignConfig::default()` (N=5, indexed holdback, full timestamps),
//! on both causal disciplines. Too slow for the default test run, so both
//! are ignored; run them in release:
//!
//! ```text
//! cargo test --release --test vsync_sweeps -- --ignored
//! ```

use catocs::group::CausalDiscipline::{self, Cbcast, Pccast};
use catocs::group::GroupConfig;
use catocs::vsync::{Campaign, CampaignConfig};
use std::ops::Range;

/// The seeds below 20 000 that still violate virtual synchrony at the
/// default configuration: it acks two memberships under one view id
/// (EXPERIMENTS.md § Known-red seeds). A fix shrinks this list; a change
/// that moves when repairs land reshuffles its entries, since every
/// campaign then runs another schedule.
const KNOWN_RED: [(CausalDiscipline, u64); 3] = [(Cbcast, 16107), (Pccast, 5016), (Pccast, 19754)];

/// The seeds of `seeds` whose campaign on `discipline` reports a
/// violation.
fn red(discipline: CausalDiscipline, seeds: Range<u64>) -> Vec<(CausalDiscipline, u64)> {
    let cfg = CampaignConfig {
        group: GroupConfig {
            discipline,
            ..GroupConfig::default()
        },
        ..CampaignConfig::default()
    };
    seeds
        .filter(|&seed| {
            let campaign = Campaign {
                ledger: false,
                ..Campaign::new(seed, cfg.clone())
            };
            !campaign.run().violations.is_empty()
        })
        .map(|seed| (discipline, seed))
        .collect()
}

/// The pool the `chaos_vsync` benchmark workload draws its campaigns from
/// (about 30 s a discipline in release).
#[test]
#[ignore = "a minute in release; CI's chaos-smoke job runs it"]
fn the_first_two_thousand_seeds_are_clean() {
    for discipline in [Cbcast, Pccast] {
        assert_eq!(red(discipline, 0..2_000), [], "{discipline:?}");
    }
}

/// Ten times the pool (about 4 min a discipline in release): the
/// violating seeds are exactly the known-red list.
#[test]
#[ignore = "eight minutes in release"]
fn the_first_twenty_thousand_seeds_violate_only_where_known() {
    let got: Vec<_> = [Cbcast, Pccast]
        .into_iter()
        .flat_map(|discipline| red(discipline, 0..20_000))
        .collect();
    assert_eq!(got, KNOWN_RED);
}
