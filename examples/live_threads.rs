//! The same cbcast endpoints, on a real transport.
//!
//! ```text
//! cargo run --example live_threads
//! ```
//!
//! Every protocol in this repository is a pure state machine, so it runs
//! unchanged outside the simulator. Here four OS threads host
//! `CbcastEndpoint`s; `std::sync::mpsc` channels are the links; a chaos
//! router delays every message by a random amount on its own thread (so
//! the "network" reorders aggressively). Each payload carries the sender's
//! delivered clock at send time, and every receiver checks the causal
//! guarantee live.

use catocs::cbcast::CbcastEndpoint;
use catocs::group::GroupConfig;
use catocs::wire::{Dest, Out, Wire};
use clocks::vector::VectorClock;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use simnet::time::SimTime;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const N: usize = 4;
const MSGS_PER_MEMBER: u64 = 25;

#[derive(Clone, Debug)]
struct Payload {
    vt_at_send: VectorClock,
}

type Net = Vec<Sender<Wire<Payload>>>;

fn now_since(start: Instant) -> SimTime {
    SimTime::from_micros(start.elapsed().as_micros() as u64)
}

/// Sends `wire` to `to` after a random delay, on a throwaway thread —
/// maximal reordering.
fn chaos_send(net: &Net, to: usize, wire: Wire<Payload>, rng: &mut SmallRng) {
    let tx = net[to].clone();
    let delay = Duration::from_micros(rng.gen_range(50..5_000));
    std::thread::spawn(move || {
        std::thread::sleep(delay);
        let _ = tx.send(wire);
    });
}

fn route(net: &Net, me: usize, out: Vec<Out<Payload>>, rng: &mut SmallRng) {
    for (dest, wire) in out {
        match dest {
            Dest::All => {
                for k in 0..N {
                    if k != me {
                        chaos_send(net, k, wire.clone(), rng);
                    }
                }
            }
            Dest::One(k) => chaos_send(net, k, wire, rng),
        }
    }
}

fn member(
    me: usize,
    net: Net,
    rx: Receiver<Wire<Payload>>,
    start: Instant,
    violations: Arc<Mutex<u64>>,
) -> (u64, u64) {
    let mut rng = SmallRng::seed_from_u64(me as u64 + 1);
    let mut ep: CbcastEndpoint<Payload> = CbcastEndpoint::new(me, N, GroupConfig::default());
    let mut delivered_clock = VectorClock::new(N);
    let mut sent = 0u64;
    let mut delivered = 0u64;
    let mut held = 0u64;
    let deadline = Instant::now() + Duration::from_secs(4);
    let mut next_send = Instant::now();

    while Instant::now() < deadline {
        // Periodic sends.
        if sent < MSGS_PER_MEMBER && Instant::now() >= next_send {
            sent += 1;
            let mut vt = delivered_clock.clone();
            vt.tick(me);
            let (_self_delivery, out) = ep.multicast(now_since(start), Payload { vt_at_send: vt });
            delivered += 1; // cbcast self-delivery is immediate
            delivered_clock.tick(me);
            route(&net, me, out, &mut rng);
            next_send = Instant::now() + Duration::from_millis(20);
        }
        // Receive with a small timeout, then tick the protocol.
        match rx.recv_timeout(Duration::from_millis(5)) {
            Ok(wire) => {
                let (dels, out) = ep.on_wire(now_since(start), wire);
                route(&net, me, out, &mut rng);
                for d in dels {
                    // Live causal check: everything the sender had
                    // delivered must be delivered here already.
                    for k in 0..N {
                        let needed = if k == d.id.sender {
                            d.payload.vt_at_send.get(k).saturating_sub(1)
                        } else {
                            d.payload.vt_at_send.get(k)
                        };
                        if delivered_clock.get(k) < needed {
                            *violations.lock().unwrap() += 1;
                        }
                    }
                    let seen = delivered_clock.get(d.id.sender);
                    delivered_clock.set(d.id.sender, seen.max(d.id.seq));
                    delivered += 1;
                    if d.was_held() {
                        held += 1;
                    }
                }
            }
            Err(_) => {
                let out = ep.on_tick(now_since(start));
                route(&net, me, out, &mut rng);
            }
        }
    }
    (delivered, held)
}

fn main() {
    let start = Instant::now();
    let mut senders = Vec::new();
    let mut receivers = Vec::new();
    for _ in 0..N {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(rx);
    }
    let violations = Arc::new(Mutex::new(0u64));

    println!(
        "{N} OS threads, mpsc links, 50us–5ms random per-message delay, \
         {MSGS_PER_MEMBER} multicasts each...\n"
    );
    let handles: Vec<_> = receivers
        .into_iter()
        .enumerate()
        .map(|(me, rx)| {
            let net = senders.clone();
            let v = violations.clone();
            std::thread::spawn(move || member(me, net, rx, start, v))
        })
        .collect();

    let expected = (N as u64) * MSGS_PER_MEMBER;
    let mut all_ok = true;
    for (me, h) in handles.into_iter().enumerate() {
        let (delivered, held) = h.join().expect("member thread");
        // Each member delivers its own sends plus everyone else's.
        println!(
            "member {me}: delivered {delivered}/{expected} \
             ({held} held back for causality)"
        );
        if delivered != expected {
            all_ok = false;
        }
    }
    let v = *violations.lock().unwrap();
    println!("\ncausal violations observed: {v}");
    assert_eq!(v, 0, "happens-before must hold on the live transport too");
    if all_ok {
        println!("every member delivered every message, in causal order — same");
        println!("state machines, real threads, real reordering.");
    } else {
        println!("note: a slow machine may cut delivery short of the 4s window;");
        println!("causal SAFETY held regardless.");
    }
}
