//! T7 — §3.4: per-message ordering overhead.
//!
//! "CATOCS imposes overhead on every message transmission and reception —
//! ordering information is added each transmission and checked on each
//! reception." The overhead is the vector timestamp: 8 bytes per group
//! member on every data message. This table reports the encoded size of
//! the ordering header as N grows, with the delta-compression ablation
//! (sparse updates ship only changed components), against what one
//! fbcast multicast books as its data overhead at the same N. The CPU
//! side (encode / decode / deliverability check) is measured by the
//! `clocks.vector.*` rows of `benchmark/run.sh --trace 1`.

use crate::table::Table;
use catocs::endpoint::{Discipline, Endpoint};
use catocs::group::GroupConfig;
use clocks::vector::VectorClock;
use simnet::time::SimTime;

/// The `data_overhead_bytes` one fbcast multicast books in a group of
/// `n`: the id and the retransmit flag, at every `n`.
pub(crate) fn fifo_header_bytes(n: usize) -> u64 {
    let mut fifo = Endpoint::new(Discipline::Fifo, 0, n, GroupConfig::default());
    fifo.multicast(SimTime::ZERO, ());
    fifo.stats().data_overhead_bytes
}

/// Header bytes for one data message at group size `n`, full encoding.
pub(crate) fn full_header_bytes(n: usize) -> usize {
    VectorClock::new(n).encode().len() + 12 // vt + MsgId
}

/// Header bytes for a delta encoding when `changed` components moved
/// since the previous message on the link.
pub(crate) fn delta_header_bytes(n: usize, changed: usize) -> usize {
    let mut base = VectorClock::new(n);
    let mut next = base.clone();
    for i in 0..changed.min(n) {
        base.set(i, 1);
        next.set(i, 2);
    }
    next.encode_delta(&base).len() + 12
}

/// Runs the size table for the given group sizes.
pub fn run(sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "T7 — §3.4 per-message ordering overhead (bytes on every data message)",
        &[
            "N",
            "fifo seqno",
            "vector clock (full)",
            "vt delta (1 changed)",
            "vt delta (N/4 changed)",
            "overhead vs 256B payload",
        ],
    );
    for &n in sizes {
        let full = full_header_bytes(n);
        t.row(vec![
            n.into(),
            fifo_header_bytes(n).into(),
            full.into(),
            delta_header_bytes(n, 1).into(),
            delta_header_bytes(n, n / 4).into(),
            format!("{:.0}%", 100.0 * full as f64 / 256.0).into(),
        ]);
    }
    t.note("the timestamp rides on EVERY multicast; at N=256 it exceeds a");
    t.note("typical payload. Delta compression helps only when traffic is");
    t.note("sparse — under all-to-all chatter ~N/4 components change and the");
    t.note("delta encoding loses its advantage.");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_header_linear_in_n() {
        assert_eq!(full_header_bytes(8) - full_header_bytes(4), 8 * 4);
        assert_eq!(full_header_bytes(64) - full_header_bytes(32), 8 * 32);
    }

    #[test]
    fn delta_beats_full_when_sparse() {
        assert!(delta_header_bytes(64, 1) < full_header_bytes(64));
    }

    #[test]
    fn delta_loses_when_dense() {
        // 12 bytes per changed component vs 8 for the full vector.
        assert!(delta_header_bytes(64, 60) > full_header_bytes(64));
    }

    #[test]
    fn table_shape() {
        let t = run(&[4, 256]);
        assert_eq!(t.rows.len(), 2);
        assert!(t.get_f64(1, 2) > t.get_f64(0, 2));
        // The FIFO column is the id alone, whatever the width.
        assert_eq!((t.get_f64(0, 1), t.get_f64(1, 1)), (13.0, 13.0));
    }
}
