//! Model-based property tests: the slab/LRU store against a naive
//! reference model, and ring invariants.

use eckv_simnet::check::{check, check_seq, vec_of};
use eckv_simnet::{SimRng, SimTime};
use eckv_store::{
    chunk_size_for, HashRing, Payload, SetOutcome, StoreKey, StoreNode, ITEM_OVERHEAD,
};

/// Keys are drawn from a small space so overwrites (also of a full
/// store) are common.
const KEYS: usize = 24;

#[derive(Debug, Clone)]
enum StoreOp {
    /// Stores `len` bytes, expiring `ttl_us` after the current instant.
    Set {
        key: u8,
        len: u16,
        ttl_us: Option<u8>,
    },
    Get {
        key: u8,
    },
    Delete {
        key: u8,
    },
}

fn gen_op(rng: &mut SimRng) -> StoreOp {
    let key = rng.index(KEYS) as u8;
    match rng.index(3) {
        0 => StoreOp::Set {
            key,
            len: rng.range_u64(1, 5000) as u16,
            ttl_us: (rng.index(4) == 0).then(|| rng.range_u64(1, 40) as u8),
        },
        1 => StoreOp::Get { key },
        _ => StoreOp::Delete { key },
    }
}

fn name(key: u8) -> StoreKey {
    format!("key-{key}").as_str().into()
}

/// What a Set did, as the reference model sees it.
enum ModelSet {
    /// Stored; carries the victims, least recently used first.
    Stored(Vec<(u8, u16)>),
    TooLarge,
}

/// A naive reference: ordered list of (key, len, expiry), most recent
/// last, plus the counters the store keeps.
#[derive(Default)]
struct ModelLru {
    entries: Vec<(u8, u16, Option<u64>)>,
    capacity: u64,
    hits: u64,
    misses: u64,
    sets: u64,
    evictions: u64,
    evicted_bytes: u64,
    expired: u64,
}

impl ModelLru {
    fn charged(key: u8, len: u16) -> u64 {
        chunk_size_for(len as u64 + name(key).wire_len() as u64 + ITEM_OVERHEAD)
    }

    fn used(&self) -> u64 {
        self.entries
            .iter()
            .map(|&(k, l, _)| Self::charged(k, l))
            .sum()
    }

    /// A failed Set still drops the key's old value (memcached unlinks
    /// the stale item before it reports "object too large").
    fn set(&mut self, key: u8, len: u16, expires_at: Option<u64>) -> ModelSet {
        self.sets += 1;
        self.entries.retain(|&(k, _, _)| k != key);
        if Self::charged(key, len) > self.capacity {
            return ModelSet::TooLarge;
        }
        self.entries.push((key, len, expires_at));
        let mut victims = Vec::new();
        while self.used() > self.capacity {
            let (k, l, _) = self.entries.remove(0);
            self.evictions += 1;
            self.evicted_bytes += Self::charged(k, l);
            victims.push((k, l));
        }
        ModelSet::Stored(victims)
    }

    fn get(&mut self, key: u8, now: u64) -> Option<u16> {
        let Some(pos) = self.entries.iter().position(|&(k, _, _)| k == key) else {
            self.misses += 1;
            return None;
        };
        let e = self.entries.remove(pos);
        if e.2.is_some_and(|t| now >= t) {
            self.expired += 1;
            self.misses += 1;
            return None;
        }
        self.entries.push(e);
        self.hits += 1;
        Some(e.1)
    }

    fn delete(&mut self, key: u8) -> bool {
        let before = self.entries.len();
        self.entries.retain(|&(k, _, _)| k != key);
        self.entries.len() != before
    }
}

/// How often the suite reached the paths the model exists to pin.
#[derive(Debug, Default)]
struct Coverage {
    too_large: u64,
    too_large_dropped_old: u64,
    spills: u64,
    overwrite_while_full: u64,
    expired_reads: u64,
}

#[test]
fn store_matches_reference_lru_model() {
    let mut seen = Coverage::default();
    check_seq(
        64,
        // Capacities span 2-64 KiB, log-weighted so that many cases sit
        // below one charged 5,000-byte item and some Sets are too large
        // for the whole node.
        |rng| {
            let hi = 1024 << rng.range_u64(2, 7);
            (rng.range_u64(2 * 1024, hi), vec_of(rng, 1..200, gen_op))
        },
        |(capacity, ops)| {
            let capacity = *capacity;
            let mut store = StoreNode::new(capacity);
            let mut model = ModelLru {
                capacity,
                ..ModelLru::default()
            };
            for (step, op) in ops.iter().enumerate() {
                // One microsecond passes per op, so TTLs elapse mid-run.
                let now = step as u64;
                match *op {
                    StoreOp::Set { key, len, ttl_us } => {
                        let expires_at = ttl_us.map(|d| now + u64::from(d));
                        let full =
                            store.stats().used_bytes + ModelLru::charged(key, len) > capacity;
                        let existed = store.contains(&name(key));
                        let mut spilled = Vec::new();
                        let got = store.set_spilling(
                            name(key),
                            Payload::synthetic(len as u64, key as u64),
                            expires_at.map(|t| SimTime::from_nanos(t * 1000)),
                            &mut |k, p| spilled.push((k, p.len())),
                        );
                        let want = model.set(key, len, expires_at);
                        match &want {
                            ModelSet::TooLarge => {
                                assert_eq!(got, SetOutcome::TooLarge, "set({key}, {len})");
                                seen.too_large += 1;
                                seen.too_large_dropped_old += u64::from(existed);
                            }
                            ModelSet::Stored(victims) => {
                                let want_spilled: Vec<(StoreKey, u64)> = victims
                                    .iter()
                                    .map(|&(k, l)| (name(k), u64::from(l)))
                                    .collect();
                                assert_eq!(spilled, want_spilled, "set({key}, {len}) victims");
                                let evicted_bytes: u64 =
                                    victims.iter().map(|&(k, l)| ModelLru::charged(k, l)).sum();
                                let outcome = if victims.is_empty() {
                                    SetOutcome::Stored
                                } else {
                                    SetOutcome::StoredWithEviction { evicted_bytes }
                                };
                                assert_eq!(got, outcome, "set({key}, {len})");
                                seen.spills += victims.len() as u64;
                                seen.overwrite_while_full += u64::from(existed && full);
                            }
                        }
                    }
                    StoreOp::Get { key } => {
                        let expired = model.expired;
                        let got = store.get_at(&name(key), SimTime::from_nanos(now * 1000));
                        let want = model.get(key, now);
                        assert_eq!(
                            got.map(|p| p.len()),
                            want.map(u64::from),
                            "get({key}) diverged"
                        );
                        seen.expired_reads += model.expired - expired;
                    }
                    StoreOp::Delete { key } => {
                        let got = store.delete(&name(key));
                        let want = model.delete(key);
                        assert_eq!(got, want, "delete({key}) diverged");
                    }
                }
                // Accounting invariants hold after every op.
                let st = store.stats();
                assert!(st.used_bytes <= st.capacity_bytes);
                assert_eq!(st.used_bytes, model.used());
                assert_eq!(st.items, model.entries.len() as u64);
                assert_eq!(
                    (st.hits, st.misses, st.sets, st.expired),
                    (model.hits, model.misses, model.sets, model.expired),
                    "hit/miss/set/expiry counters"
                );
                assert_eq!(
                    (st.evictions, st.evicted_bytes),
                    (model.evictions, model.evicted_bytes),
                    "eviction counters"
                );
            }
        },
    );
    assert!(
        seen.too_large_dropped_old > 0
            && seen.spills > 0
            && seen.overwrite_while_full > 0
            && seen.expired_reads > 0,
        "the generator must reach every path it pins: {seen:?}"
    );
}

#[test]
fn ring_lookup_agrees_with_linear_scan() {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let key = |rng: &mut SimRng| -> String {
        vec_of(rng, 1..25, |r| ALPHABET[r.index(ALPHABET.len())] as char)
            .into_iter()
            .collect()
    };
    check_seq(
        64,
        |rng| (1 + rng.index(11), vec_of(rng, 1..50, key)),
        |(servers, keys)| {
            let servers = *servers;
            let ring = HashRing::new(servers, 64);
            for key in keys {
                let p = ring.primary_for(key.as_bytes());
                assert!(p < servers);
                // servers_for is the primary followed by consecutive indices.
                let n = servers.min(4);
                let s = ring.servers_for(key.as_bytes(), n).expect("n <= servers");
                for (i, &srv) in s.iter().enumerate() {
                    assert_eq!(srv, (p + i) % servers);
                }
            }
        },
    );
}

#[test]
fn payload_shards_are_injective_per_index() {
    check(
        64,
        |rng| {
            (
                rng.range_u64(1, 1_000_000),
                rng.next_u64(),
                rng.range_u64(1, 100_000),
            )
        },
        |&(len, seed, shard_len)| {
            let v = Payload::synthetic(len, seed);
            let digests: Vec<u64> = (0..8).map(|i| v.shard(i, shard_len).digest()).collect();
            let mut unique = digests.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), digests.len(), "shard digests must differ");
        },
    );
}
