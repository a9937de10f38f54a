//! Model-based property tests: the slab/LRU store against a naive
//! reference model, and ring invariants.

use std::sync::Arc;

use eckv_simnet::check::{check, check_seq, vec_of};
use eckv_simnet::{SimRng, SimTime};
use eckv_store::{chunk_size_for, HashRing, Payload, StoreNode, ITEM_OVERHEAD};

#[derive(Debug, Clone)]
enum StoreOp {
    Set { key: u8, len: u16 },
    Get { key: u8 },
    Delete { key: u8 },
}

fn gen_op(rng: &mut SimRng) -> StoreOp {
    let key = rng.next_u64() as u8;
    match rng.index(3) {
        0 => StoreOp::Set {
            key,
            len: rng.range_u64(1, 5000) as u16,
        },
        1 => StoreOp::Get { key },
        _ => StoreOp::Delete { key },
    }
}

/// A naive reference: ordered list of (key, len), most recent last.
#[derive(Default)]
struct ModelLru {
    entries: Vec<(u8, u16)>,
    capacity: u64,
}

impl ModelLru {
    fn charged(key: u8, len: u16) -> u64 {
        chunk_size_for(len as u64 + format!("key-{key}").len() as u64 + ITEM_OVERHEAD)
    }

    fn used(&self) -> u64 {
        self.entries.iter().map(|&(k, l)| Self::charged(k, l)).sum()
    }

    fn set(&mut self, key: u8, len: u16) {
        self.entries.retain(|&(k, _)| k != key);
        if Self::charged(key, len) > self.capacity {
            return; // too large
        }
        self.entries.push((key, len));
        while self.used() > self.capacity {
            self.entries.remove(0);
        }
    }

    fn get(&mut self, key: u8) -> Option<u16> {
        let pos = self.entries.iter().position(|&(k, _)| k == key)?;
        let e = self.entries.remove(pos);
        self.entries.push(e);
        Some(e.1)
    }

    fn delete(&mut self, key: u8) -> bool {
        let before = self.entries.len();
        self.entries.retain(|&(k, _)| k != key);
        self.entries.len() != before
    }
}

#[test]
fn store_matches_reference_lru_model() {
    check_seq(
        64,
        |rng| (rng.range_u64(8, 64), vec_of(rng, 1..200, gen_op)),
        |(capacity_kb, ops)| {
            let capacity = capacity_kb * 1024;
            let mut store = StoreNode::new(capacity);
            let mut model = ModelLru {
                capacity,
                ..ModelLru::default()
            };
            for op in ops {
                match *op {
                    StoreOp::Set { key, len } => {
                        let k: Arc<str> = format!("key-{key}").into();
                        store.set(k, Payload::synthetic(len as u64, key as u64));
                        model.set(key, len);
                    }
                    StoreOp::Get { key } => {
                        let got = store.get_at(&format!("key-{key}"), SimTime::ZERO);
                        let want = model.get(key);
                        assert_eq!(
                            got.map(|p| p.len()),
                            want.map(u64::from),
                            "get({key}) diverged"
                        );
                    }
                    StoreOp::Delete { key } => {
                        let got = store.delete(&format!("key-{key}"));
                        let want = model.delete(key);
                        assert_eq!(got, want, "delete({key}) diverged");
                    }
                }
                // Accounting invariants hold after every op.
                let st = store.stats();
                assert!(st.used_bytes <= st.capacity_bytes);
                assert_eq!(st.used_bytes, model.used());
                assert_eq!(st.items, model.entries.len() as u64);
            }
        },
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
