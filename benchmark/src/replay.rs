//! Endpoint time, separated from the harness around it.
//!
//! The traced run tapes one member's handler inputs. Replaying the tape
//! into an identically configured stand-alone [`Endpoint`] — the same
//! `multicast`/`on_wire`/`on_tick` calls `GroupNode` made, at the same
//! virtual times — times the endpoint alone, by call kind. The replay
//! must deliver exactly what the member delivered in the run; the
//! harness glue is then handler time minus endpoint time.

use crate::dense::Dense;
use crate::trace::{Input, WireKind};
use catocs::endpoint::Endpoint;
use simnet::process::TimerId;
use std::time::Instant;

/// Index of `multicast` in [`Replay`]'s tables (0..4 are the
/// [`WireKind`]s of `on_wire`).
pub const MULTICAST: usize = 4;
/// Index of `on_tick`.
pub const ON_TICK: usize = 5;

/// What a replay measured.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Replay {
    /// Calls by kind: `on_wire` data/ack/nack/other, `multicast`, `on_tick`.
    pub calls: [u64; 6],
    /// Wall time by kind, ns.
    pub ns: [u64; 6],
    /// (sender, seq) of every delivery, in order.
    pub delivered: Vec<(u32, u32)>,
}

impl Replay {
    /// Mean ns per call of kind `k`; 0 when it was never called.
    pub fn ns_per_op(&self, k: usize) -> f64 {
        if self.calls[k] == 0 {
            0.0
        } else {
            self.ns[k] as f64 / self.calls[k] as f64
        }
    }
}

/// Replays member `me`'s tape of dense workload `d`. Timer 0 is the
/// protocol tick and timer 1 the application tick, which multicasts its
/// virtual time while the member's quota lasts — `GroupNode` and the
/// benchmark's `Recorder`, minus everything that is not the endpoint.
pub fn replay_dense(d: &Dense, me: usize, tape: &[Input]) -> Replay {
    let mut ep: Endpoint<u64> = Endpoint::new(d.discipline, me, d.n, d.group_config());
    let mut r = Replay::default();
    let mut quota = d.per_member;
    let note = |r: &mut Replay, ds: &[catocs::wire::Delivery<u64>]| {
        r.delivered
            .extend(ds.iter().map(|x| (x.id.sender as u32, x.id.seq as u32)));
    };
    for input in tape {
        match input {
            Input::Message(at, msg) => {
                let k = WireKind::of(msg) as usize;
                let msg = msg.clone();
                let start = Instant::now();
                let (dels, out) = ep.on_wire(*at, msg);
                r.ns[k] += start.elapsed().as_nanos() as u64;
                r.calls[k] += 1;
                note(&mut r, &dels);
                std::hint::black_box(out);
            }
            Input::Timer(at, TimerId(0)) => {
                let start = Instant::now();
                let out = ep.on_tick(*at);
                r.ns[ON_TICK] += start.elapsed().as_nanos() as u64;
                r.calls[ON_TICK] += 1;
                std::hint::black_box(out);
            }
            Input::Timer(at, _) if quota > 0 => {
                quota -= 1;
                let start = Instant::now();
                let (dels, out) = ep.multicast(*at, at.as_micros());
                r.ns[MULTICAST] += start.elapsed().as_nanos() as u64;
                r.calls[MULTICAST] += 1;
                note(&mut r, &dels);
                std::hint::black_box(out);
            }
            Input::Timer(..) => {}
        }
    }
    r
}
