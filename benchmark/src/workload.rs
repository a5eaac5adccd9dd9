//! The five workloads behind one interface, and the sizes they run at.

use crate::chaos::{Chaos, MirrorTotals};
use crate::dense::{Dense, Plain, Spans};
use crate::outcome::{Outcome, Rep};
use crate::sparse::Sparse;
use crate::trace::{Input, TraceHandle};

/// Workload names, in the order every listing uses. Permanent: results
/// are compared across commits by these names.
pub const NAMES: [&str; 5] = [
    "dense_fifo",
    "dense_cbcast",
    "dense_pccast",
    "reversed_sparse",
    "chaos_vsync",
];

/// How much work each workload does per repetition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Members of the dense groups.
    pub dense_n: usize,
    /// Multicasts per member in `dense_fifo`.
    pub fifo_each: u32,
    /// Multicasts per member in `dense_cbcast`.
    pub cbcast_each: u32,
    /// Multicasts per member in `dense_pccast`.
    pub pccast_each: u32,
    /// Group width of `reversed_sparse`.
    pub sparse_n: usize,
    /// Members of it that send.
    pub sparse_senders: usize,
    /// Observers fed one after another.
    pub sparse_observers: usize,
    /// Messages in the reversed stream.
    pub sparse_total: usize,
    /// Fault campaigns per repetition.
    pub chaos_campaigns: usize,
}

impl Scale {
    /// The sizes the benchmark reports at: each repetition takes about
    /// two seconds on the two-core build box — two and a half in its
    /// slow spells, when 114 runs must still fit the driver's 3420 s.
    pub const FULL: Scale = Scale {
        dense_n: 64,
        fifo_each: 160,
        cbcast_each: 21,
        pccast_each: 11,
        sparse_n: 4096,
        sparse_senders: 4,
        sparse_observers: 28,
        sparse_total: 1024,
        chaos_campaigns: 80,
    };

    /// Sizes for the package's own tests: the same code paths in well
    /// under a second each.
    pub const SMALL: Scale = Scale {
        dense_n: 8,
        fifo_each: 12,
        cbcast_each: 8,
        pccast_each: 6,
        sparse_n: 128,
        sparse_senders: 4,
        sparse_observers: 2,
        sparse_total: 64,
        chaos_campaigns: 2,
    };
}

/// One generated workload.
#[derive(Clone, Debug)]
pub enum Workload {
    /// `dense_fifo`, `dense_cbcast`, `dense_pccast`.
    Dense(Dense),
    /// `reversed_sparse`.
    Sparse(Sparse),
    /// `chaos_vsync`.
    Chaos(Chaos),
}

/// What the traced repetition hands back besides its [`Rep`].
#[derive(Debug, Default)]
pub struct TraceExtras {
    /// The sampled member's handler inputs (dense only).
    pub tape: Vec<Input>,
    /// What the sampled member (dense) or first observer (sparse)
    /// delivered, as (sender or position, seq or virtual ms) pairs.
    pub sampled_delivered: Vec<(u32, u32)>,
    /// `on_message` calls by wire kind, over every wrapped node.
    pub wire_kinds: [u64; 4],
    /// The mirror pass without spans (chaos only): the counts
    /// `run_campaign` does not report, and the wall time the traced
    /// pass is compared with — the traced repetition there is the
    /// mirror, not `run_campaign`.
    pub mirror: Option<MirrorTotals>,
    /// The mirror pass with spans (chaos only).
    pub traced_mirror: Option<MirrorTotals>,
}

impl Workload {
    /// Generates workload `name` from `seed`; `None` for an unknown name.
    pub fn generate(name: &str, seed: u64, scale: &Scale) -> Option<Workload> {
        let each = match name {
            "dense_fifo" => scale.fifo_each,
            "dense_cbcast" => scale.cbcast_each,
            "dense_pccast" => scale.pccast_each,
            "reversed_sparse" => {
                return Some(Workload::Sparse(Sparse::generate(
                    scale.sparse_n,
                    scale.sparse_senders,
                    scale.sparse_observers,
                    scale.sparse_total,
                    seed,
                )))
            }
            "chaos_vsync" => {
                return Some(Workload::Chaos(Chaos::generate(
                    scale.chaos_campaigns,
                    seed,
                )))
            }
            _ => return None,
        };
        Dense::named(name, scale.dense_n, each, seed).map(Workload::Dense)
    }

    /// One untraced repetition of the fixed work.
    pub fn execute(&self) -> Rep {
        match self {
            Workload::Dense(d) => d.execute(),
            Workload::Sparse(s) => s.execute(),
            Workload::Chaos(c) => c.execute(),
        }
    }

    /// Completes `outcome` with counts that need a pass of their own
    /// (chaos only; see [`Chaos::audit`]). Once per run, untimed.
    pub fn audit(&self, outcome: &mut Outcome) {
        if let Workload::Chaos(c) = self {
            c.audit(outcome);
        }
    }

    /// One repetition with spans around every call into a layer.
    pub fn execute_traced(&self, trace: &TraceHandle) -> (Rep, TraceExtras) {
        let mut x = TraceExtras::default();
        let rep = match self {
            Workload::Dense(d) => {
                let wrap = Spans {
                    inner: Plain,
                    trace,
                    sampled: d.sampled_member(),
                };
                let rep = d.execute_with(&wrap, Some(trace), |me, node| {
                    for (k, c) in node.wire_kinds.iter().enumerate() {
                        x.wire_kinds[k] += c;
                    }
                    if let Some(tape) = &node.tape {
                        x.tape = tape.clone();
                        x.sampled_delivered = node
                            .inner
                            .app()
                            .member_log()
                            .log
                            .iter()
                            .map(|r| (r.sender, r.seq))
                            .collect();
                        debug_assert_eq!(me, wrap.sampled);
                    }
                });
                rep
            }
            Workload::Sparse(s) => {
                let (rep, logs) = s.execute_logs(Some(trace));
                x.sampled_delivered = logs[0]
                    .iter()
                    .map(|&(p, at, _)| (p as u32, at as u32))
                    .collect();
                rep
            }
            Workload::Chaos(c) => {
                let untraced = c.mirror(None);
                let traced = c.mirror(Some(trace));
                let outcome = Outcome {
                    digest: traced.digest,
                    events: traced.events,
                    ..Outcome::default()
                };
                x.wire_kinds = traced.wire_kinds;
                let wall = traced.wall;
                x.mirror = Some(untraced);
                x.traced_mirror = Some(traced);
                Rep {
                    wall,
                    parts: vec![wall],
                    outcome,
                }
            }
        };
        (rep, x)
    }
}
