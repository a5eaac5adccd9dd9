//! Causal domains: causality preserved *across* process groups (§5).
//!
//! > "Partitioning a large process group into smaller process groups does
//! > not necessarily reduce this problem unless the smaller groups are
//! > not causally related. For instance, the 'causal domain', proposed as
//! > a causally related set of groups, can have the same quadratic
//! > growth. The division into groups only reduces the
//! > application-generated message traffic to each receiver, not the
//! > message delivery delays."
//!
//! This module implements the *conservative* causal-domain scheme: every
//! message in the domain is disseminated causally to **every** domain
//! member (one shared vector clock over all members); addressing is a
//! per-message group tag, and the endpoint filters deliveries so the
//! application only sees traffic for groups it joined. Ordering state,
//! holdback delay and buffering are therefore those of one big group —
//! which is the measurable content of the paper's claim, reproduced by
//! ablation A3.

use crate::cbcast::CbcastEndpoint;
use crate::group::GroupConfig;
use crate::wire::{Delivery, Out, Wire};
use serde::{Deserialize, Serialize};
use simnet::time::SimTime;
use std::collections::BTreeSet;

/// Identifies a group within a domain.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct GroupId(pub u32);

/// A payload tagged with its destination group.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Addressed<P> {
    /// Destination group within the domain.
    pub group: GroupId,
    /// The application payload.
    pub payload: P,
}

/// One domain member's endpoint: a causal endpoint over the whole domain
/// plus a membership filter.
#[derive(Debug)]
pub struct DomainEndpoint<P> {
    inner: CbcastEndpoint<Addressed<P>>,
    /// Groups this member has joined.
    joined: BTreeSet<GroupId>,
}

impl<P: Clone> DomainEndpoint<P> {
    /// Creates the endpoint for domain member `me` of `n_domain` total
    /// members, joined to the given groups.
    pub fn new(me: usize, n_domain: usize, cfg: GroupConfig, joined: &[GroupId]) -> Self {
        DomainEndpoint {
            inner: CbcastEndpoint::new(me, n_domain, cfg),
            joined: joined.iter().copied().collect(),
        }
    }

    /// This member's domain index.
    pub fn me(&self) -> usize {
        self.inner.me()
    }

    /// Unstable messages buffered (includes other groups' traffic).
    pub fn buffered_len(&self) -> usize {
        self.inner.core().buffered_len()
    }

    /// Multicasts `payload` to `group`. The message still travels to the
    /// whole domain (conservative scheme); non-members discard after
    /// ordering.
    ///
    /// # Panics
    ///
    /// Panics if this member has not joined `group` (senders multicast
    /// only to their own groups).
    pub fn multicast(
        &mut self,
        now: SimTime,
        group: GroupId,
        payload: P,
    ) -> (Vec<Delivery<P>>, Vec<Out<Addressed<P>>>) {
        assert!(
            self.joined.contains(&group),
            "sender must be a member of the destination group"
        );
        let (d, out) = self.inner.multicast(now, Addressed { group, payload });
        (self.filter(vec![d]), out)
    }

    /// Handles incoming domain traffic.
    pub fn on_wire(
        &mut self,
        now: SimTime,
        wire: Wire<Addressed<P>>,
    ) -> (Vec<Delivery<P>>, Vec<Out<Addressed<P>>>) {
        let (dels, out) = self.inner.on_wire(now, wire);
        (self.filter(dels), out)
    }

    /// Periodic maintenance.
    pub fn on_tick(&mut self, now: SimTime) -> Vec<Out<Addressed<P>>> {
        self.inner.on_tick(now)
    }

    fn filter(&mut self, dels: Vec<Delivery<Addressed<P>>>) -> Vec<Delivery<P>> {
        let mut out = Vec::new();
        for d in dels {
            if self.joined.contains(&d.payload.group) {
                out.push(Delivery {
                    id: d.id,
                    payload: d.payload.payload,
                    arrived_at: d.arrived_at,
                    delivered_at: d.delivered_at,
                    gseq: d.gseq,
                    waited_for: d.waited_for,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Dest;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    const GA: GroupId = GroupId(0);
    const GB: GroupId = GroupId(1);

    /// Domain of 3: member 0 in A, member 2 in B, member 1 bridges both.
    fn domain() -> (
        DomainEndpoint<&'static str>,
        DomainEndpoint<&'static str>,
        DomainEndpoint<&'static str>,
    ) {
        let cfg = GroupConfig::default();
        (
            DomainEndpoint::new(0, 3, cfg.clone(), &[GA]),
            DomainEndpoint::new(1, 3, cfg.clone(), &[GA, GB]),
            DomainEndpoint::new(2, 3, cfg, &[GB]),
        )
    }

    fn data_of(out: &[Out<Addressed<&'static str>>]) -> Wire<Addressed<&'static str>> {
        out.iter()
            .find_map(|(d, w)| match (d, w) {
                (Dest::All, Wire::Data(_)) => Some(w.clone()),
                _ => None,
            })
            .expect("broadcast data")
    }

    #[test]
    fn delivery_filtered_by_membership() {
        let (mut a, mut b, mut c) = domain();
        let (_, out) = a.multicast(t(0), GA, "for A");
        let (db, _) = b.on_wire(t(1), data_of(&out));
        assert_eq!(db.len(), 1, "bridge is in A");
        let (dc, _) = c.on_wire(t(1), data_of(&out));
        assert!(dc.is_empty(), "c is not in A");
        // But c still buffered the foreign message (the domain cost).
        assert_eq!(c.buffered_len(), 1);
    }

    #[test]
    fn cross_group_causality_enforced() {
        // a multicasts in A; the bridge b receives it and multicasts in
        // B; c (B only) receives b's message first — it must wait for
        // a's message (which it will discard!) before delivering b's.
        let (mut a, mut b, mut c) = domain();
        let (_, o1) = a.multicast(t(0), GA, "cause in A");
        let m1 = data_of(&o1);
        b.on_wire(t(1), m1.clone());
        let (_, o2) = b.multicast(t(2), GB, "effect in B");
        let m2 = data_of(&o2);

        let (dels, _) = c.on_wire(t(3), m2);
        assert!(
            dels.is_empty(),
            "b's message is held until a's (foreign!) message arrives"
        );
        let (dels, _) = c.on_wire(t(4), m1);
        assert_eq!(dels.len(), 1, "only the B message reaches the app");
        assert_eq!(dels[0].payload, "effect in B");
        assert!(dels[0].was_held(), "delayed by a message c never sees");
    }

    #[test]
    #[should_panic(expected = "member of the destination group")]
    fn cannot_send_to_foreign_group() {
        let (mut a, _, _) = domain();
        let _ = a.multicast(t(0), GB, "not my group");
    }

    #[test]
    fn sender_self_delivery_filtered_correctly() {
        let (_, mut b, _) = domain();
        let (dels, _) = b.multicast(t(0), GB, "bridge to B");
        assert_eq!(dels.len(), 1, "sender is in the destination group");
    }
}
