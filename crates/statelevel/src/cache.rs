//! The order-preserving data cache (§4.1).
//!
//! "Both the Netnews and the trading solutions outlined above can be
//! generalized to the notion of an order-preserving data cache." Items
//! carry their identity and an optional dependency on another item (the
//! Netnews `References` field; the trading dependency field). The cache
//! presents an item only once its dependency chain is present.
//!
//! The cost model the paper claims is visible in the API: state is
//! proportional to the items *cached here* (the user's interest set), not
//! to global traffic, and only true semantic dependencies ever delay
//! presentation.

use clocks::versions::ObjectId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A cached item.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Item<T> {
    depends_on: Option<ObjectId>,
    body: T,
    presented: bool,
}

/// The order-preserving cache.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OrderPreservingCache<T> {
    items: BTreeMap<ObjectId, Item<T>>,
    /// Reverse edges: dependency → dependents waiting on it.
    waiters: BTreeMap<ObjectId, BTreeSet<ObjectId>>,
}

impl<T> Default for OrderPreservingCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OrderPreservingCache<T> {
    /// An empty cache.
    pub fn new() -> Self {
        OrderPreservingCache {
            items: BTreeMap::new(),
            waiters: BTreeMap::new(),
        }
    }

    /// Inserts an item; returns the ids that became presentable because
    /// of it (the item itself and any cascade of dependents), in
    /// presentation order.
    pub fn insert(&mut self, id: ObjectId, depends_on: Option<ObjectId>, body: T) -> Vec<ObjectId> {
        if self.items.contains_key(&id) {
            return Vec::new(); // duplicate
        }
        self.items.insert(
            id,
            Item {
                depends_on,
                body,
                presented: false,
            },
        );
        let mut newly = Vec::new();
        if self.is_presentable(id) {
            self.mark_presented(id, &mut newly);
        } else if let Some(dep) = depends_on {
            self.waiters.entry(dep).or_default().insert(id);
        }
        newly
    }

    /// Whether an item's dependency chain is satisfied and presented.
    fn is_presentable(&self, id: ObjectId) -> bool {
        match self.items.get(&id) {
            None => false,
            Some(item) => match item.depends_on {
                None => true,
                Some(dep) => self.items.get(&dep).map(|d| d.presented).unwrap_or(false),
            },
        }
    }

    fn mark_presented(&mut self, id: ObjectId, out: &mut Vec<ObjectId>) {
        if let Some(item) = self.items.get_mut(&id) {
            if item.presented {
                return;
            }
            item.presented = true;
            out.push(id);
        }
        // Cascade to waiters.
        if let Some(waiters) = self.waiters.remove(&id) {
            for w in waiters {
                if self.is_presentable(w) {
                    self.mark_presented(w, out);
                }
            }
        }
    }

    /// Reads an item's body.
    pub fn get(&self, id: ObjectId) -> Option<&T> {
        self.items.get(&id).map(|i| &i.body)
    }

    /// Whether an item has been presented.
    pub fn is_presented(&self, id: ObjectId) -> bool {
        self.items.get(&id).map(|i| i.presented).unwrap_or(false)
    }

    /// Items held back waiting on dependencies.
    pub fn pending(&self) -> Vec<ObjectId> {
        self.items
            .iter()
            .filter(|(_, i)| !i.presented)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Total items cached (the paper's state-proportionality claim is
    /// about this number).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u64) -> ObjectId {
        ObjectId(i)
    }

    #[test]
    fn independent_items_present_immediately() {
        let mut c = OrderPreservingCache::new();
        assert_eq!(c.insert(id(1), None, "inquiry"), vec![id(1)]);
        assert!(c.is_presented(id(1)));
    }

    #[test]
    fn response_waits_for_inquiry() {
        // The Netnews scenario: response arrives before its inquiry.
        let mut c = OrderPreservingCache::new();
        assert!(c.insert(id(2), Some(id(1)), "response").is_empty());
        assert!(!c.is_presented(id(2)));
        assert_eq!(c.pending(), vec![id(2)]);
        // Inquiry arrives; both present, inquiry first.
        let newly = c.insert(id(1), None, "inquiry");
        assert_eq!(newly, vec![id(1), id(2)]);
        assert!(c.pending().is_empty());
    }

    #[test]
    fn chains_cascade() {
        let mut c = OrderPreservingCache::new();
        assert!(c.insert(id(3), Some(id(2)), "re: re:").is_empty());
        assert!(c.insert(id(2), Some(id(1)), "re:").is_empty());
        let newly = c.insert(id(1), None, "root");
        assert_eq!(newly, vec![id(1), id(2), id(3)]);
    }

    #[test]
    fn duplicates_ignored() {
        let mut c = OrderPreservingCache::new();
        c.insert(id(1), None, "a");
        assert!(c.insert(id(1), None, "a-dup").is_empty());
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(id(1)), Some(&"a"));
    }

    #[test]
    fn pending_lists_unpresented() {
        let mut c = OrderPreservingCache::new();
        c.insert(id(5), Some(id(4)), "waiting");
        assert_eq!(c.pending(), vec![id(5)]);
        assert!(!c.is_empty());
    }
}
