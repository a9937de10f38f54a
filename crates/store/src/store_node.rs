//! One server's storage: hash table + LRU eviction + slab accounting.
//!
//! Items live in a slot slab (`Vec<Slot>`); the hash index maps each key
//! to its slot, and the slots carry the links of one intrusive recency
//! list, the O(1) doubly-linked LRU memcached keeps per slab class. A hit
//! is one hash probe plus a relink to the tail, an overwrite swaps the
//! payload in place, and eviction pops the head. Freed slots are chained
//! through the same links and reused before the slab grows.

use std::collections::HashMap;
use std::sync::Arc;

use eckv_simnet::SimTime;

use crate::payload::Payload;
use crate::slab::{SlabClasses, ITEM_OVERHEAD};

/// Result of a Set on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOutcome {
    /// Item stored without displacing anything.
    Stored,
    /// Item stored after evicting older items to make room. Carries the
    /// number of bytes evicted (counted as cache data loss).
    StoredWithEviction {
        /// Charged bytes of evicted items.
        evicted_bytes: u64,
    },
    /// Item larger than the node's whole capacity; rejected. Any older
    /// value of the key is dropped, as memcached does for a failed set.
    TooLarge,
}

impl SetOutcome {
    /// Whether the item was stored.
    pub fn is_stored(self) -> bool {
        self != SetOutcome::TooLarge
    }
}

/// Running statistics of one store node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Current number of items.
    pub items: u64,
    /// Charged (slab-rounded) bytes currently used.
    pub used_bytes: u64,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Get hits.
    pub hits: u64,
    /// Get misses.
    pub misses: u64,
    /// Total Sets processed.
    pub sets: u64,
    /// Items evicted by the LRU.
    pub evictions: u64,
    /// Charged bytes evicted (the paper's "data loss" under memory
    /// pressure, Figure 10).
    pub evicted_bytes: u64,
    /// Items dropped because their TTL elapsed (lazy expiry on access).
    pub expired: u64,
}

/// End of a slot list.
const NIL: u32 = u32::MAX;

/// One slot of the slab: a live item, or a free slot awaiting reuse.
#[derive(Debug)]
struct Slot {
    /// The key and its value; `None` while the slot is free.
    entry: Option<(Arc<str>, Payload)>,
    charged: u64,
    /// Absolute expiry instant; `None` = never (memcached `exptime 0`).
    expires_at: Option<SimTime>,
    /// Neighbours in the recency list. A free slot chains the free list
    /// through `next`.
    prev: u32,
    next: u32,
}

/// An LRU key-value store with slab-class memory accounting.
///
/// # Example
///
/// ```
/// use eckv_store::{Payload, SetOutcome, StoreNode};
///
/// let mut node = StoreNode::new(1 << 20);
/// let out = node.set("k1".into(), Payload::inline(vec![0u8; 100]));
/// assert_eq!(out, SetOutcome::Stored);
/// assert!(node.get("k1").is_some());
/// assert!(node.get("nope").is_none());
/// ```
#[derive(Debug)]
pub struct StoreNode {
    slots: Vec<Slot>,
    index: HashMap<Arc<str>, u32>,
    /// Least recently used live slot: the next victim.
    head: u32,
    /// Most recently used live slot.
    tail: u32,
    /// First free slot.
    free: u32,
    stats: StoreStats,
    classes: &'static SlabClasses,
}

impl StoreNode {
    /// Creates a node with `capacity_bytes` of cache memory.
    pub fn new(capacity_bytes: u64) -> Self {
        StoreNode {
            slots: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            stats: StoreStats {
                capacity_bytes,
                ..StoreStats::default()
            },
            classes: SlabClasses::default_geometry(),
        }
    }

    /// Stores `payload` under `key` with no expiry, evicting LRU items if
    /// needed.
    pub fn set(&mut self, key: Arc<str>, payload: Payload) -> SetOutcome {
        self.set_with_expiry(key, payload, None)
    }

    /// Stores `payload` under `key`, optionally expiring at `expires_at`
    /// (memcached `exptime` semantics; expiry is lazy, on access).
    pub fn set_with_expiry(
        &mut self,
        key: Arc<str>,
        payload: Payload,
        expires_at: Option<SimTime>,
    ) -> SetOutcome {
        self.set_spilling(key, payload, expires_at, &mut |_, _| {})
    }

    /// Like [`StoreNode::set_with_expiry`], but hands every LRU victim to
    /// `spill` (an SSD overflow tier, in the paper's "SSD-assisted"
    /// deployments) instead of silently dropping it.
    pub fn set_spilling(
        &mut self,
        key: Arc<str>,
        payload: Payload,
        expires_at: Option<SimTime>,
        spill: &mut dyn FnMut(Arc<str>, Payload),
    ) -> SetOutcome {
        self.stats.sets += 1;
        let need = self
            .classes
            .chunk_size(payload.len() + key.len() as u64 + ITEM_OVERHEAD);
        if need > self.stats.capacity_bytes {
            if let Some(i) = self.index.remove(&key) {
                self.release(i);
            }
            return SetOutcome::TooLarge;
        }
        // An overwritten item leaves the recency list and gives back its
        // charge first, so eviction below never picks it.
        let existing = self.index.get(&key).copied();
        if let Some(i) = existing {
            self.unlink(i);
            self.stats.used_bytes -= self.slots[i as usize].charged;
        }
        let mut evicted = 0u64;
        while self.stats.used_bytes + need > self.stats.capacity_bytes {
            debug_assert_ne!(self.head, NIL, "used_bytes > 0 implies a live item");
            let (charged, victim_key, victim) = self.release(self.head);
            self.index.remove(&victim_key);
            self.stats.evictions += 1;
            evicted += charged;
            spill(victim_key, victim);
        }
        let i = match existing {
            Some(i) => {
                let slot = &mut self.slots[i as usize];
                slot.entry.as_mut().expect("an indexed slot is live").1 = payload;
                slot.charged = need;
                slot.expires_at = expires_at;
                i
            }
            None => {
                let i = self.occupy(Slot {
                    entry: Some((key.clone(), payload)),
                    charged: need,
                    expires_at,
                    prev: NIL,
                    next: NIL,
                });
                self.index.insert(key, i);
                self.stats.items += 1;
                i
            }
        };
        self.push_tail(i);
        self.stats.used_bytes += need;
        if evicted > 0 {
            self.stats.evicted_bytes += evicted;
            SetOutcome::StoredWithEviction {
                evicted_bytes: evicted,
            }
        } else {
            SetOutcome::Stored
        }
    }

    /// Looks up `key` at instant `now`, refreshing its LRU position on hit
    /// and lazily dropping it if its TTL elapsed.
    pub fn get_at(&mut self, key: &str, now: SimTime) -> Option<Payload> {
        let Some(&i) = self.index.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        if self.slots[i as usize].expires_at.is_some_and(|t| now >= t) {
            self.index.remove(key);
            self.release(i);
            self.stats.expired += 1;
            self.stats.misses += 1;
            return None;
        }
        if i != self.tail {
            self.unlink(i);
            self.push_tail(i);
        }
        self.stats.hits += 1;
        Some(self.payload(i).clone())
    }

    /// Looks up `key` ignoring expiry (legacy callers and tests).
    pub fn get(&mut self, key: &str) -> Option<Payload> {
        self.get_at(key, SimTime::ZERO)
    }

    /// Removes `key`, returning whether it existed.
    pub fn delete(&mut self, key: &str) -> bool {
        match self.index.remove(key) {
            Some(i) => {
                self.release(i);
                true
            }
            None => false,
        }
    }

    /// Drops every item (the memcached `flush_all`).
    pub fn flush_all(&mut self) {
        self.slots.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
        self.free = NIL;
        self.stats.used_bytes = 0;
        self.stats.items = 0;
    }

    /// Whether `key` is present (no LRU refresh).
    pub fn contains(&self, key: &str) -> bool {
        self.index.contains_key(key)
    }

    /// Reads `key` without refreshing its LRU position or counting a
    /// hit/miss (inspection, not a cache access).
    pub fn peek(&self, key: &str) -> Option<Payload> {
        self.index.get(key).map(|&i| self.payload(i).clone())
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The value in live slot `i`.
    fn payload(&self, i: u32) -> &Payload {
        &self.slots[i as usize]
            .entry
            .as_ref()
            .expect("an indexed slot is live")
            .1
    }

    /// Places `slot` in a free slot, or a new one if none is free.
    fn occupy(&mut self, slot: Slot) -> u32 {
        if self.free == NIL {
            let i = u32::try_from(self.slots.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("fewer than 2^32 - 1 items per node");
            self.slots.push(slot);
            return i;
        }
        let i = self.free;
        self.free = self.slots[i as usize].next;
        self.slots[i as usize] = slot;
        i
    }

    /// Takes live slot `i` out of the recency list and its charge out of
    /// the accounting, frees the slot, and returns the charge, key and
    /// value. The caller has already removed (or is removing) the key
    /// from the index.
    fn release(&mut self, i: u32) -> (u64, Arc<str>, Payload) {
        self.unlink(i);
        let slot = &mut self.slots[i as usize];
        let (key, payload) = slot.entry.take().expect("a released slot is live");
        slot.next = self.free;
        self.free = i;
        self.stats.used_bytes -= slot.charged;
        self.stats.items -= 1;
        (slot.charged, key, payload)
    }

    /// Detaches slot `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let Slot { prev, next, .. } = self.slots[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Appends slot `i` as the most recently used.
    fn push_tail(&mut self, i: u32) {
        let slot = &mut self.slots[i as usize];
        slot.prev = self.tail;
        slot.next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => self.slots[t as usize].next = i,
        }
        self.tail = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(i: usize) -> (Arc<str>, Payload) {
        (
            format!("key-{i}").into(),
            Payload::synthetic(1000, i as u64),
        )
    }

    #[test]
    fn set_get_roundtrip() {
        let mut n = StoreNode::new(1 << 20);
        let (k, v) = kv(1);
        n.set(k.clone(), v.clone());
        assert_eq!(n.get(&k), Some(v));
        let s = n.stats();
        assert_eq!(s.items, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn replacement_releases_old_charge() {
        let mut n = StoreNode::new(1 << 20);
        n.set("k".into(), Payload::synthetic(1000, 1));
        let used_small = n.stats().used_bytes;
        n.set("k".into(), Payload::synthetic(100_000, 2));
        let used_large = n.stats().used_bytes;
        assert!(used_large > used_small);
        n.set("k".into(), Payload::synthetic(1000, 3));
        assert_eq!(n.stats().used_bytes, used_small);
        assert_eq!(n.stats().items, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Capacity for ~3 items of charged size.
        let charged = crate::slab::chunk_size_for(1000 + 5 + ITEM_OVERHEAD);
        let mut n = StoreNode::new(charged * 3);
        n.set("key-0".into(), Payload::synthetic(1000, 0));
        n.set("key-1".into(), Payload::synthetic(1000, 1));
        n.set("key-2".into(), Payload::synthetic(1000, 2));
        // Touch key-0 so key-1 becomes the LRU victim.
        assert!(n.get("key-0").is_some());
        let out = n.set("key-3".into(), Payload::synthetic(1000, 3));
        assert!(matches!(out, SetOutcome::StoredWithEviction { .. }));
        assert!(n.contains("key-0"));
        assert!(!n.contains("key-1"));
        assert!(n.contains("key-2"));
        assert!(n.contains("key-3"));
        assert_eq!(n.stats().evictions, 1);
        assert!(n.stats().evicted_bytes >= 1000);
    }

    #[test]
    fn used_never_exceeds_capacity() {
        let mut n = StoreNode::new(50_000);
        for i in 0..100 {
            let (k, v) = kv(i);
            n.set(k, v);
            assert!(n.stats().used_bytes <= n.stats().capacity_bytes);
        }
        assert!(n.stats().evictions > 0);
    }

    #[test]
    fn oversized_item_rejected() {
        let mut n = StoreNode::new(10_000);
        n.set("big".into(), Payload::synthetic(100, 0));
        let out = n.set("big".into(), Payload::synthetic(1 << 20, 0));
        assert_eq!(out, SetOutcome::TooLarge);
        assert!(!n.contains("big"), "a failed set drops the old value");
        assert_eq!(n.stats().items, 0);
        assert_eq!(n.stats().used_bytes, 0);
    }

    #[test]
    fn delete_and_flush() {
        let mut n = StoreNode::new(1 << 20);
        let (k, v) = kv(0);
        n.set(k.clone(), v);
        assert!(n.delete(&k));
        assert!(!n.delete(&k));
        assert_eq!(n.stats().used_bytes, 0);
        for i in 0..10 {
            let (k, v) = kv(i);
            n.set(k, v);
        }
        n.flush_all();
        assert_eq!(n.stats().items, 0);
        assert_eq!(n.stats().used_bytes, 0);
    }

    #[test]
    fn ttl_expires_lazily_on_access() {
        let mut n = StoreNode::new(1 << 20);
        let t = |us: u64| SimTime::from_nanos(us * 1000);
        n.set_with_expiry("ttl".into(), Payload::synthetic(100, 1), Some(t(50)));
        n.set("forever".into(), Payload::synthetic(100, 2));
        assert!(n.get_at("ttl", t(10)).is_some(), "before expiry");
        assert!(n.get_at("ttl", t(50)).is_none(), "at expiry");
        assert!(n.get_at("forever", t(1_000_000)).is_some());
        let st = n.stats();
        assert_eq!(st.expired, 1);
        assert_eq!(st.items, 1, "expired item is removed");
    }

    #[test]
    fn expired_item_frees_its_memory_charge() {
        let mut n = StoreNode::new(1 << 20);
        let t = |us: u64| SimTime::from_nanos(us * 1000);
        n.set_with_expiry("e".into(), Payload::synthetic(10_000, 1), Some(t(1)));
        let before = n.stats().used_bytes;
        assert!(before > 0);
        assert!(n.get_at("e", t(5)).is_none());
        assert_eq!(n.stats().used_bytes, 0);
    }

    #[test]
    fn overwrite_clears_expiry() {
        let mut n = StoreNode::new(1 << 20);
        let t = |us: u64| SimTime::from_nanos(us * 1000);
        n.set_with_expiry("k".into(), Payload::synthetic(10, 1), Some(t(5)));
        n.set("k".into(), Payload::synthetic(10, 2)); // no expiry
        assert!(n.get_at("k", t(100)).is_some());
    }

    #[test]
    fn miss_counts() {
        let mut n = StoreNode::new(1 << 20);
        assert!(n.get("ghost").is_none());
        assert_eq!(n.stats().misses, 1);
    }
}
