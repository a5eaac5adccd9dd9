//! `reversed_sparse`: cbcast endpoints driven directly, no simulator.
//!
//! A few active senders in a very wide group multicast round-robin,
//! each message relayed to the other senders at once, so the stream is
//! one causal chain. Silent observers then receive the whole stream
//! (nearly) reversed, one observer after another, with their NACKs
//! served from a message store — everything is held back before
//! anything delivers. Holdback insert/pop, delta decode/parking and
//! O(N) clock operations do all the work; `simnet` and `harness` do
//! none. The seed picks which members send and observe and perturbs the
//! reversed arrival order.
//!
//! Virtual time is the driver's own clock — wire events reach an
//! observer 0.5 to 1.5 ms apart, drawn from the seed — so the latency
//! reported here is residence at the observer: from a message's first
//! arrival (where it is parked or held) to its delivery, usually by way
//! of a NACKed full-timestamp copy.

use crate::outcome::{fold_stats, Digest, Outcome, Rep};
use crate::trace::TraceHandle;
use catocs::cbcast::CbcastEndpoint;
use catocs::group::{GroupConfig, MsgId};
use catocs::wire::{DataMsg, Delivery, Dest, EndpointStats, Wire};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use simnet::time::SimTime;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// The workload, fully specified.
#[derive(Clone, Debug)]
pub struct Sparse {
    /// Group size (vector-clock width).
    pub n: usize,
    /// Member indices of the active senders.
    pub senders: Vec<usize>,
    /// Member indices of the silent observers, fed one after another.
    pub observers: Vec<usize>,
    /// Messages multicast in total, round-robin over the senders.
    pub total: usize,
    /// Arrival order at every observer: positions into the stream.
    pub arrival: Vec<usize>,
    /// Seeds each observer's arrival spacing.
    pub seed: u64,
}

/// What one observer delivered: (payload = position in the stream,
/// virtual delivery µs, residence µs — from the message's first arrival
/// at the observer, parked or held, to its delivery).
pub type ObserverLog = Vec<(u64, u64, u32)>;

impl Sparse {
    /// Generates the inputs from `seed`.
    pub fn generate(n: usize, active: usize, observers: usize, total: usize, seed: u64) -> Self {
        assert!(active >= 2 && active + observers <= n, "group too small");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5bd1_e995_7f4a_7c15);
        let mut members: Vec<usize> = (0..n).collect();
        members.shuffle(&mut rng);
        let mut senders = members[..active].to_vec();
        senders.sort_unstable();
        let observers = members[active..active + observers].to_vec();
        // Reversed, then roughly one adjacent pair in four swapped, so
        // a little of the stream arrives in order.
        let mut arrival: Vec<usize> = (0..total).rev().collect();
        let mut i = 0;
        while i + 1 < total {
            if rng.gen_bool(0.25) {
                arrival.swap(i, i + 1);
                i += 2;
            } else {
                i += 1;
            }
        }
        Sparse {
            n,
            senders,
            observers,
            total,
            arrival,
            seed,
        }
    }

    /// The endpoint configuration: indexed holdback, delta timestamps.
    pub fn group_config() -> GroupConfig {
        GroupConfig {
            indexed_holdback: true,
            delta_timestamps: true,
            ..GroupConfig::default()
        }
    }

    /// One untraced repetition.
    pub fn execute(&self) -> Rep {
        self.execute_logs(None).0
    }

    /// One repetition, also handing back every observer's log; with
    /// `trace`, every endpoint call is a span.
    pub fn execute_logs(&self, trace: Option<&TraceHandle>) -> (Rep, Vec<ObserverLog>) {
        let names = trace.map(|t| {
            (
                t,
                t.name_id("rep"),
                t.name_id("endpoint.multicast"),
                t.name_id("endpoint.on_wire.data"),
            )
        });
        let span = |which: usize| names.map(|(t, _, m, d)| (t, [m, d][which]));
        let start = Instant::now();
        let mut run = match names {
            Some((t, rep, ..)) => t.span(rep, || self.run(span(0), span(1))),
            None => self.run(None, None),
        };
        let wall = start.elapsed();
        let outcome = self.collect(&run);
        let rep = Rep {
            wall,
            parts: std::mem::take(&mut run.parts),
            outcome,
        };
        (rep, run.logs)
    }

    fn run(&self, mc: Option<(&TraceHandle, u16)>, ow: Option<(&TraceHandle, u16)>) -> RawRun {
        let cfg = Self::group_config();
        let mut raw = RawRun::default();
        let mut lap = Instant::now();

        // Sender phase: round-robin multicasts, relayed immediately to
        // the other senders, so each message causally follows the whole
        // prefix.
        let mut senders: Vec<CbcastEndpoint<u64>> = self
            .senders
            .iter()
            .map(|&me| CbcastEndpoint::new(me, self.n, cfg.clone()))
            .collect();
        let mut wires: Vec<Wire<u64>> = Vec::with_capacity(self.total);
        for step in 0..self.total {
            let s = step % senders.len();
            let at = SimTime::from_millis(step as u64);
            let (_, out) = spanned(mc, || senders[s].multicast(at, step as u64));
            let w = out
                .into_iter()
                .find_map(|(d, w)| matches!((d, &w), (Dest::All, Wire::Data(_))).then_some(w))
                .expect("a multicast broadcasts its data message");
            for (r, other) in senders.iter_mut().enumerate() {
                if r != s {
                    let (dels, _) = spanned(ow, || other.on_wire(at, w.clone()));
                    raw.sender_deliveries += dels.len() as u64;
                    raw.wire_events += 1;
                }
            }
            raw.sender_deliveries += 1;
            wires.push(w);
        }
        for s in &senders {
            fold_stats(&mut raw.endpoint, s.stats());
        }
        drop(senders);

        let store: HashMap<MsgId, &DataMsg<u64>> = wires
            .iter()
            .map(|w| match w {
                Wire::Data(d) => (d.id, d),
                _ => unreachable!("only data messages are stored"),
            })
            .collect();
        raw.parts.push(lap.elapsed());

        // Observer phase: one at a time, so only one wide endpoint is
        // alive at once. NACKs are served from the store with
        // full-encoded retransmit copies.
        for &me in &self.observers {
            lap = Instant::now();
            let mut observer = CbcastEndpoint::<u64>::new(me, self.n, cfg.clone());
            let mut inbox: VecDeque<Wire<u64>> =
                self.arrival.iter().map(|&i| wires[i].clone()).collect();
            let mut spacing = SmallRng::seed_from_u64(self.seed ^ (me as u64) << 32);
            let mut at_us = self.total as u64 * 1000;
            let mut log: ObserverLog = Vec::with_capacity(self.total);
            let mut first_seen = vec![u64::MAX; self.total];
            while let Some(w) = inbox.pop_front() {
                if let Wire::Data(d) = &w {
                    let seen = &mut first_seen[d.payload as usize];
                    *seen = (*seen).min(at_us);
                }
                let now = SimTime::from_micros(at_us);
                let (dels, outs) = spanned(ow, || observer.on_wire(now, w));
                log.extend(dels.iter().map(|d: &Delivery<u64>| {
                    let waited_us = at_us - first_seen[d.payload as usize];
                    (d.payload, at_us, waited_us as u32)
                }));
                at_us += spacing.gen_range(500u64..1500);
                raw.wire_events += 1;
                for (_, ow) in outs {
                    raw.wire_events += 1;
                    if let Wire::Nack { want, .. } = ow {
                        for id in want {
                            let mut copy = store[&id].clone();
                            copy.retransmit = true;
                            copy.make_full();
                            let w = Wire::Data(copy);
                            raw.retransmit_bytes += w.overhead_bytes() as u64;
                            inbox.push_back(w);
                        }
                    }
                }
            }
            fold_stats(&mut raw.endpoint, observer.stats());
            raw.logs.push(log);
            raw.parts.push(lap.elapsed());
        }
        raw
    }

    fn collect(&self, raw: &RawRun) -> Outcome {
        let mut digest = Digest::default();
        let mut latencies_us = Vec::with_capacity(self.observers.len() * self.total);
        for log in &raw.logs {
            for &(payload, at, held_us) in log {
                digest.word(payload);
                digest.word(at);
                latencies_us.push(held_us);
            }
        }
        digest.word(raw.wire_events);
        latencies_us.sort_unstable();
        let (attempted, failed) = check_observers(self.total, self.observers.len(), &raw.logs);
        // The senders' side: every message delivered at every sender.
        let sender_expected = (self.senders.len() * self.total) as u64;
        let sender_failed = sender_expected.abs_diff(raw.sender_deliveries);
        Outcome {
            deliveries: raw.sender_deliveries
                + raw.logs.iter().map(|l| l.len() as u64).sum::<u64>(),
            multicasts: self.total as u64,
            wire_msgs: raw.wire_events,
            ordering_bytes: raw.endpoint.data_overhead_bytes
                + raw.endpoint.control_bytes
                + raw.retransmit_bytes,
            events: raw.wire_events,
            latencies_us,
            calm_latencies_us: Vec::new(),
            digest: digest.0,
            attempted: attempted + sender_expected,
            failed: failed + sender_failed,
            endpoint: raw.endpoint.clone(),
            net: Default::default(),
            membership: Default::default(),
        }
    }
}

#[derive(Default)]
struct RawRun {
    logs: Vec<ObserverLog>,
    endpoint: EndpointStats,
    sender_deliveries: u64,
    wire_events: u64,
    retransmit_bytes: u64,
    /// Wall time of the sender phase, then of each observer.
    parts: Vec<Duration>,
}

fn spanned<R>(span: Option<(&TraceHandle, u16)>, f: impl FnOnce() -> R) -> R {
    match span {
        Some((t, name)) => t.span(name, f),
        None => f(),
    }
}

/// Checks the observers' logs. The stream is one causal chain, so the
/// only correct delivery order is the send order: each observer must
/// deliver payloads `0..total`, each once, ascending.
/// Returns (deliveries expected, checks failed).
pub fn check_observers(total: usize, observers: usize, logs: &[ObserverLog]) -> (u64, u64) {
    let attempted = (total * observers) as u64;
    if logs.len() != observers {
        return (attempted, attempted);
    }
    let mut failed = 0u64;
    for log in logs {
        let mut next = 0u64;
        for &(payload, _, _) in log {
            if payload == next {
                next += 1;
            } else {
                failed += 1;
            }
        }
        failed += total as u64 - next.min(total as u64);
    }
    (attempted, failed)
}
