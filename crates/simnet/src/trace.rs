//! Event traces and ASCII event-diagram rendering.
//!
//! The paper argues with event diagrams (Figures 1–4). To reproduce them
//! faithfully, every run can record sends, deliveries, drops and
//! application marks; the trace then renders as an ASCII chart with one
//! column per process and time advancing downward, exactly the charting
//! device the paper uses. Traces also hash deterministically, which the
//! test suite uses to prove replayability.

use crate::process::ProcessId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

/// One observable occurrence in a run.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A message left `from` bound for `to`.
    Send {
        at: SimTime,
        from: ProcessId,
        to: ProcessId,
        label: String,
    },
    /// A message from `from` arrived at `to` (handed to the process).
    Deliver {
        at: SimTime,
        from: ProcessId,
        to: ProcessId,
        label: String,
    },
    /// The network dropped a message.
    Drop {
        at: SimTime,
        from: ProcessId,
        to: ProcessId,
        label: String,
    },
    /// An application-level annotation at one process.
    Mark {
        at: SimTime,
        proc: ProcessId,
        label: String,
    },
    /// A crash or recovery.
    Fault {
        at: SimTime,
        proc: ProcessId,
        crashed: bool,
    },
    /// A network-wide fault transition (partition, heal, degradation
    /// episode start/end) — not tied to any single process.
    NetFault { at: SimTime, label: String },
}

impl TraceEvent {
    /// The instant the event occurred.
    pub(crate) fn at(&self) -> SimTime {
        match self {
            TraceEvent::Send { at, .. }
            | TraceEvent::Deliver { at, .. }
            | TraceEvent::Drop { at, .. }
            | TraceEvent::Mark { at, .. }
            | TraceEvent::Fault { at, .. }
            | TraceEvent::NetFault { at, .. } => *at,
        }
    }
}

/// A recorded sequence of [`TraceEvent`]s.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
    enabled: bool,
}

impl Trace {
    /// Creates a trace; recording is off until `Trace::enable` is called,
    /// so large experiments pay nothing for tracing.
    pub(crate) fn new() -> Self {
        Trace {
            events: Vec::new(),
            enabled: false,
        }
    }

    /// Turns recording on.
    pub(crate) fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether recording is on.
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records `ev` if recording is enabled.
    pub(crate) fn record(&mut self, ev: TraceEvent) {
        if self.enabled {
            self.events.push(ev);
        }
    }

    /// Records the event produced by `f`, invoking `f` only when
    /// recording is enabled — hot paths pass a closure so label
    /// formatting costs nothing in untraced runs.
    pub(crate) fn record_with(&mut self, f: impl FnOnce() -> TraceEvent) {
        if self.enabled {
            self.events.push(f());
        }
    }

    /// The recorded events, in order.
    pub(crate) fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// A stable 64-bit digest of the trace, for determinism assertions.
    pub fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for e in &self.events {
            e.hash(&mut h);
        }
        h.finish()
    }

    /// Renders the trace as an ASCII event diagram: one column per process
    /// (up to `n_procs`), time advancing downward, in the style of the
    /// paper's Figures 1–4.
    ///
    /// Deliveries and marks are shown on the owning process's column;
    /// sends show as `label ->P2`, deliveries as `label <-P0`.
    pub fn render_event_diagram(&self, n_procs: usize, names: &[&str]) -> String {
        const COL: usize = 22;
        let mut out = String::new();
        // Header.
        let _ = write!(out, "{:>12} |", "time");
        for i in 0..n_procs {
            let name = names.get(i).copied().unwrap_or("");
            let head = if name.is_empty() {
                format!("P{i}")
            } else {
                format!("P{i}:{name}")
            };
            let _ = write!(out, " {head:^COL$} |");
        }
        out.push('\n');
        let _ = write!(out, "{:->12}-+", "");
        for _ in 0..n_procs {
            let _ = write!(out, "{:-^w$}+", "", w = COL + 2);
        }
        out.push('\n');
        for e in &self.events {
            let (col, cell) = match e {
                TraceEvent::Send {
                    from, to, label, ..
                } => (from.0, format!("{label} ->{to}")),
                TraceEvent::Deliver {
                    from, to, label, ..
                } => (to.0, format!("{label} <-{from}")),
                TraceEvent::Drop {
                    from, to, label, ..
                } => (to.0, format!("XX {label} <-{from}")),
                TraceEvent::Mark { proc, label, .. } => (proc.0, format!("* {label}")),
                TraceEvent::Fault { proc, crashed, .. } => (
                    proc.0,
                    if *crashed {
                        "!! CRASH".into()
                    } else {
                        "!! recover".to_string()
                    },
                ),
                TraceEvent::NetFault { label, .. } => {
                    // Network-wide: rendered as a full-width banner row.
                    let _ = writeln!(out, "{:>12} | == {label}", e.at().to_string());
                    continue;
                }
            };
            if col >= n_procs {
                continue;
            }
            let _ = write!(out, "{:>12} |", e.at().to_string());
            for i in 0..n_procs {
                if i == col {
                    let mut c = cell.clone();
                    if c.len() > COL {
                        // Truncate on a char boundary: a byte-offset
                        // truncate panics mid-way through a multi-byte
                        // label character.
                        let mut cut = COL;
                        while !c.is_char_boundary(cut) {
                            cut -= 1;
                        }
                        c.truncate(cut);
                    }
                    let _ = write!(out, " {c:^COL$} |");
                } else {
                    let _ = write!(out, " {:^COL$} |", "");
                }
            }
            out.push('\n');
        }
        out
    }

    /// A copy of the trace keeping only events whose rendered label
    /// matches `keep` (plus all marks and faults) — used to strip
    /// protocol chatter from event diagrams.
    pub fn filtered(&self, keep: impl Fn(&str) -> bool) -> Trace {
        let mut t = Trace::new();
        t.enable();
        for e in &self.events {
            let retain = match e {
                TraceEvent::Send { label, .. }
                | TraceEvent::Deliver { label, .. }
                | TraceEvent::Drop { label, .. } => keep(label),
                TraceEvent::Mark { .. }
                | TraceEvent::Fault { .. }
                | TraceEvent::NetFault { .. } => true,
            };
            if retain {
                t.record(e.clone());
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        t.enable();
        t.record(TraceEvent::Send {
            at: SimTime::from_micros(10),
            from: ProcessId(0),
            to: ProcessId(1),
            label: "m1".into(),
        });
        t.record(TraceEvent::Deliver {
            at: SimTime::from_micros(20),
            from: ProcessId(0),
            to: ProcessId(1),
            label: "m1".into(),
        });
        t.record(TraceEvent::Mark {
            at: SimTime::from_micros(25),
            proc: ProcessId(1),
            label: "acted".into(),
        });
        t
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new();
        t.record(TraceEvent::Mark {
            at: SimTime::ZERO,
            proc: ProcessId(0),
            label: "x".into(),
        });
        assert!(t.events().is_empty());
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let t1 = sample();
        let t2 = sample();
        assert_eq!(t1.digest(), t2.digest());

        let mut t3 = Trace::new();
        t3.enable();
        // Same events, different order.
        let evs: Vec<_> = sample().events().to_vec();
        for e in evs.into_iter().rev() {
            t3.record(e);
        }
        assert_ne!(t1.digest(), t3.digest());
    }

    #[test]
    fn diagram_renders_all_rows() {
        let d = sample().render_event_diagram(2, &["sender", "receiver"]);
        assert!(d.contains("P0:sender"));
        assert!(d.contains("m1 ->P1"));
        assert!(d.contains("m1 <-P0"));
        assert!(d.contains("* acted"));
    }

    #[test]
    fn long_multibyte_label_truncates_on_char_boundary() {
        // Regression: a label whose 22nd byte falls inside a multi-byte
        // character used to panic `String::truncate` mid-render.
        let mut t = Trace::new();
        t.enable();
        // Rendered cell is "* m1 жжж…": the odd ASCII prefix puts byte 22
        // in the middle of a two-byte 'ж'.
        t.record(TraceEvent::Mark {
            at: SimTime::from_micros(5),
            proc: ProcessId(0),
            label: "m1 жжжжжжжжжжжж".into(),
        });
        let d = t.render_event_diagram(1, &[]);
        assert!(d.contains("m1 ж"), "{d}");
    }

    #[test]
    fn record_with_is_lazy_when_disabled() {
        let mut t = Trace::new();
        let mut called = false;
        t.record_with(|| {
            called = true;
            TraceEvent::Mark {
                at: SimTime::ZERO,
                proc: ProcessId(0),
                label: "never".into(),
            }
        });
        assert!(!called, "label closure must not run while disabled");
        assert!(t.events().is_empty());
        t.enable();
        t.record_with(|| TraceEvent::Mark {
            at: SimTime::ZERO,
            proc: ProcessId(0),
            label: "now".into(),
        });
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn filtered_keeps_matching_and_marks() {
        let t = sample();
        let f = t.filtered(|l| l.contains("nothing"));
        // Send and Deliver dropped; the Mark survives.
        assert_eq!(f.events().len(), 1);
        let f2 = t.filtered(|l| l.contains("m1"));
        assert_eq!(f2.events().len(), 3);
    }

    #[test]
    fn net_fault_renders() {
        let ev = TraceEvent::NetFault {
            at: SimTime::from_micros(42),
            label: "partition [0] | [1, 2]".into(),
        };
        let mut t = Trace::new();
        t.enable();
        t.record(ev);
        let d = t.render_event_diagram(3, &[]);
        assert!(d.contains("== partition [0] | [1, 2]"));
        // filtered() keeps net faults alongside marks and process faults.
        assert_eq!(t.filtered(|_| false).events().len(), 1);
    }
}
