//! One server's storage: hash table + LRU eviction + slab accounting.
//!
//! Items live in a slot slab (`Vec<Slot>`); the hash index maps each
//! key's 64-bit hash to its slot, and the slots carry the links of one
//! intrusive recency list, the O(1) doubly-linked LRU memcached keeps per
//! slab class. A hit is one hash probe plus a relink to the tail, an
//! overwrite swaps the payload in place, and eviction pops the head. Freed
//! slots are chained through the same links and reused before the slab
//! grows.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use eckv_simnet::SimTime;

use crate::key::StoreKey;
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

/// Expiry instant of an item that never expires (memcached `exptime 0`).
const NEVER: SimTime = SimTime::from_nanos(u64::MAX);

/// One slot of the slab: a live item, or a free slot awaiting reuse. Its
/// charge is not stored: it is a function of the key and value.
#[derive(Debug)]
struct Slot {
    /// The key and its value; `None` while the slot is free.
    entry: Option<(StoreKey, Payload)>,
    /// Absolute expiry instant; [`NEVER`] for none.
    expires_at: SimTime,
    /// Neighbours in the recency list. A free slot chains the free list
    /// through `next`.
    prev: u32,
    next: u32,
}

/// What the index compares keys by: the user key and the chunk number.
type KeyParts<'a> = (&'a str, Option<u8>);

/// SipHash of the key and chunk number, under fixed keys.
fn key_hash((key, slot): KeyParts) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    if let Some(i) = slot {
        h.write_u8(i);
    }
    h.finish()
}

/// Hashes a `u64` that already is a hash to itself.
#[derive(Default)]
struct HashIsKey(u64);

impl Hasher for HashIsKey {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the index hashes only u64 keys");
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

/// An LRU key-value store with slab-class memory accounting.
///
/// # Example
///
/// ```
/// use eckv_store::{Payload, SetOutcome, StoreNode};
///
/// let mut node = StoreNode::new(1 << 20);
/// let out = node.set("k1", Payload::inline(vec![0u8; 100]));
/// assert_eq!(out, SetOutcome::Stored);
/// assert!(node.get("k1").is_some());
/// assert!(node.get("nope").is_none());
/// ```
#[derive(Debug)]
pub struct StoreNode {
    slots: Vec<Slot>,
    /// Each live key's hash and its slot, 16 bytes an entry. A key whose
    /// hash another live key already holds is kept in `clashes` instead.
    index: HashMap<u64, u32, BuildHasherDefault<HashIsKey>>,
    /// Slots whose key's hash was taken when they were indexed; with
    /// 64-bit hashes this stays empty in practice.
    clashes: Vec<u32>,
    /// Applied to every key hash: all ones, except in tests, which narrow
    /// it to make hashes clash.
    hash_mask: u64,
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
            index: HashMap::default(),
            clashes: Vec::new(),
            hash_mask: u64::MAX,
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
    pub fn set(&mut self, key: impl Into<StoreKey>, payload: Payload) -> SetOutcome {
        self.set_with_expiry(key.into(), payload, None)
    }

    /// Stores `payload` under `key`, optionally expiring at `expires_at`
    /// (memcached `exptime` semantics; expiry is lazy, on access).
    pub fn set_with_expiry(
        &mut self,
        key: StoreKey,
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
        key: StoreKey,
        payload: Payload,
        expires_at: Option<SimTime>,
        spill: &mut dyn FnMut(StoreKey, Payload),
    ) -> SetOutcome {
        self.stats.sets += 1;
        let need = self.charge(&key, &payload);
        let expires_at = expires_at.unwrap_or(NEVER);
        let h = self.hash(key.parts());
        let existing = self.find_at(h, key.parts());
        if need > self.stats.capacity_bytes {
            if let Some(i) = existing {
                self.release(i);
            }
            return SetOutcome::TooLarge;
        }
        // An overwritten item leaves the recency list and gives back its
        // charge first, so eviction below never picks it.
        if let Some(i) = existing {
            self.unlink(i);
            self.stats.used_bytes -= self.charged(i);
        }
        let mut evicted = 0u64;
        while self.stats.used_bytes + need > self.stats.capacity_bytes {
            debug_assert_ne!(self.head, NIL, "used_bytes > 0 implies a live item");
            let (charged, victim_key, victim) = self.release(self.head);
            self.stats.evictions += 1;
            evicted += charged;
            spill(victim_key, victim);
        }
        let i = match existing {
            Some(i) => {
                let slot = &mut self.slots[i as usize];
                slot.entry.as_mut().expect("an indexed slot is live").1 = payload;
                slot.expires_at = expires_at;
                i
            }
            None => {
                let i = self.occupy(Slot {
                    entry: Some((key, payload)),
                    expires_at,
                    prev: NIL,
                    next: NIL,
                });
                self.index(h, i);
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
    pub fn get_at(&mut self, key: &StoreKey, now: SimTime) -> Option<Payload> {
        self.lookup(key.parts(), now)
    }

    /// Looks up the plain key `key` ignoring expiry (legacy callers and
    /// tests).
    pub fn get(&mut self, key: &str) -> Option<Payload> {
        self.lookup((key, None), SimTime::ZERO)
    }

    /// [`StoreNode::get_at`] by key parts.
    fn lookup(&mut self, key: KeyParts, now: SimTime) -> Option<Payload> {
        let Some(i) = self.find(key) else {
            self.stats.misses += 1;
            return None;
        };
        let expires_at = self.slots[i as usize].expires_at;
        if expires_at != NEVER && now >= expires_at {
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

    /// Removes `key`, returning whether it existed.
    pub fn delete(&mut self, key: &StoreKey) -> bool {
        match self.find(key.parts()) {
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
        self.clashes.clear();
        self.head = NIL;
        self.tail = NIL;
        self.free = NIL;
        self.stats.used_bytes = 0;
        self.stats.items = 0;
    }

    /// Whether `key` is present (no LRU refresh).
    pub fn contains(&self, key: &StoreKey) -> bool {
        self.find(key.parts()).is_some()
    }

    /// Reads `key` without refreshing its LRU position or counting a
    /// hit/miss (inspection, not a cache access).
    pub fn peek(&self, key: &StoreKey) -> Option<Payload> {
        self.find(key.parts()).map(|i| self.payload(i).clone())
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The index hash of `key`.
    fn hash(&self, key: KeyParts) -> u64 {
        key_hash(key) & self.hash_mask
    }

    /// The live slot holding `key`.
    fn find(&self, key: KeyParts) -> Option<u32> {
        self.find_at(self.hash(key), key)
    }

    /// The live slot holding `key`, whose hash is `h`.
    fn find_at(&self, h: u64, key: KeyParts) -> Option<u32> {
        let holds = |i: u32| self.entry(i).0.parts() == key;
        match self.index.get(&h) {
            Some(&i) if holds(i) => Some(i),
            _ => self.clashes.iter().copied().find(|&i| holds(i)),
        }
    }

    /// Puts live slot `i`, whose key's hash is `h`, in the index.
    fn index(&mut self, h: u64, i: u32) {
        match self.index.entry(h) {
            Entry::Vacant(e) => {
                e.insert(i);
            }
            Entry::Occupied(_) => self.clashes.push(i),
        }
    }

    /// Takes live slot `i` out of the index.
    fn unindex(&mut self, i: u32) {
        let h = self.hash(self.entry(i).0.parts());
        if self.index.get(&h) == Some(&i) {
            self.index.remove(&h);
        } else {
            let at = self.clashes.iter().position(|&c| c == i);
            self.clashes
                .swap_remove(at.expect("a live slot is indexed"));
        }
    }

    /// The value in live slot `i`.
    fn payload(&self, i: u32) -> &Payload {
        &self.entry(i).1
    }

    /// The key and value in live slot `i`.
    fn entry(&self, i: u32) -> &(StoreKey, Payload) {
        self.slots[i as usize]
            .entry
            .as_ref()
            .expect("an indexed slot is live")
    }

    /// The slab chunk an item of `key` and `payload` is charged.
    fn charge(&self, key: &StoreKey, payload: &Payload) -> u64 {
        self.classes
            .chunk_size(payload.len() + key.wire_len() as u64 + ITEM_OVERHEAD)
    }

    /// The charge of live slot `i`.
    fn charged(&self, i: u32) -> u64 {
        let (key, payload) = self.entry(i);
        self.charge(key, payload)
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

    /// Takes live slot `i` out of the index, the recency list and the
    /// accounting, frees the slot, and returns the charge, key and value.
    fn release(&mut self, i: u32) -> (u64, StoreKey, Payload) {
        self.unindex(i);
        self.unlink(i);
        let charged = self.charged(i);
        let slot = &mut self.slots[i as usize];
        let (key, payload) = slot.entry.take().expect("a released slot is live");
        slot.next = self.free;
        self.free = i;
        self.stats.used_bytes -= charged;
        self.stats.items -= 1;
        (charged, key, payload)
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

    fn kv(i: usize) -> (StoreKey, Payload) {
        (
            format!("key-{i}").as_str().into(),
            Payload::synthetic(1000, i as u64),
        )
    }

    #[test]
    fn set_get_roundtrip() {
        let mut n = StoreNode::new(1 << 20);
        let (k, v) = kv(1);
        n.set(k, v.clone());
        assert_eq!(n.get("key-1"), Some(v));
        let s = n.stats();
        assert_eq!(s.items, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn replacement_releases_old_charge() {
        let mut n = StoreNode::new(1 << 20);
        n.set("k", Payload::synthetic(1000, 1));
        let used_small = n.stats().used_bytes;
        n.set("k", Payload::synthetic(100_000, 2));
        let used_large = n.stats().used_bytes;
        assert!(used_large > used_small);
        n.set("k", Payload::synthetic(1000, 3));
        assert_eq!(n.stats().used_bytes, used_small);
        assert_eq!(n.stats().items, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Capacity for ~3 items of charged size.
        let charged = crate::slab::chunk_size_for(1000 + 5 + ITEM_OVERHEAD);
        let mut n = StoreNode::new(charged * 3);
        n.set("key-0", Payload::synthetic(1000, 0));
        n.set("key-1", Payload::synthetic(1000, 1));
        n.set("key-2", Payload::synthetic(1000, 2));
        // Touch key-0 so key-1 becomes the LRU victim.
        assert!(n.get("key-0").is_some());
        let out = n.set("key-3", Payload::synthetic(1000, 3));
        assert!(matches!(out, SetOutcome::StoredWithEviction { .. }));
        assert!(n.contains(&"key-0".into()));
        assert!(!n.contains(&"key-1".into()));
        assert!(n.contains(&"key-2".into()));
        assert!(n.contains(&"key-3".into()));
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
        n.set("big", Payload::synthetic(100, 0));
        let out = n.set("big", Payload::synthetic(1 << 20, 0));
        assert_eq!(out, SetOutcome::TooLarge);
        assert!(
            !n.contains(&"big".into()),
            "a failed set drops the old value"
        );
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
        n.set("forever", Payload::synthetic(100, 2));
        assert!(n.get_at(&"ttl".into(), t(10)).is_some(), "before expiry");
        assert!(n.get_at(&"ttl".into(), t(50)).is_none(), "at expiry");
        assert!(n.get_at(&"forever".into(), t(1_000_000)).is_some());
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
        assert!(n.get_at(&"e".into(), t(5)).is_none());
        assert_eq!(n.stats().used_bytes, 0);
    }

    #[test]
    fn overwrite_clears_expiry() {
        let mut n = StoreNode::new(1 << 20);
        let t = |us: u64| SimTime::from_nanos(us * 1000);
        n.set_with_expiry("k".into(), Payload::synthetic(10, 1), Some(t(5)));
        n.set("k", Payload::synthetic(10, 2)); // no expiry
        assert!(n.get_at(&"k".into(), t(100)).is_some());
    }

    #[test]
    fn a_slot_fits_64_bytes() {
        // Key and value 48 B, expiry 8 B, recency links 8 B; the charge is
        // recomputed, not stored.
        assert!(std::mem::size_of::<Slot>() <= 64);
    }

    /// A node whose keys' hashes mostly clash behaves exactly like one
    /// whose hashes do not: same results, same victims, same statistics.
    #[test]
    fn clashing_hashes_change_nothing_observable() {
        use eckv_simnet::check::{check, vec_of};

        let t = |us: u64| SimTime::from_nanos(us * 1000);
        check(
            64,
            |rng| {
                vec_of(rng, 1..300, |rng| {
                    (rng.range_u64(0, 4), rng.range_u64(0, 24))
                })
            },
            |ops| {
                let mut nodes = [
                    StoreNode::new(12_000),
                    StoreNode {
                        hash_mask: 1,
                        ..StoreNode::new(12_000)
                    },
                ];
                let key = |k: u64| match k % 3 {
                    0 => StoreKey::from(format!("k{}", k / 3).as_str()),
                    i => StoreKey::chunk(format!("k{}", k / 3).into(), i as usize),
                };
                for (step, &(op, k)) in ops.iter().enumerate() {
                    let now = t(step as u64);
                    let [a, b] = nodes.each_mut().map(|n| {
                        let mut spilled = Vec::new();
                        let out = match op {
                            0 | 1 => {
                                let expiry = (op == 1).then(|| t(step as u64 + 3));
                                let value = Payload::synthetic(100 + 400 * (k % 5), k);
                                let set = n.set_spilling(key(k), value, expiry, &mut |k, _| {
                                    spilled.push(k)
                                });
                                format!("{set:?}")
                            }
                            2 => format!("{:?}", n.get_at(&key(k), now)),
                            _ => format!("{} {:?}", n.delete(&key(k)), n.peek(&key(k))),
                        };
                        (out, spilled, n.stats())
                    });
                    assert_eq!(a, b, "step {step}");
                }
            },
        );
    }

    #[test]
    fn miss_counts() {
        let mut n = StoreNode::new(1 << 20);
        assert!(n.get("ghost").is_none());
        assert_eq!(n.stats().misses, 1);
    }
}
