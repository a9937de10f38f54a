//! Calibrated probes: time lower-layer public functions on a workload's own
//! input sizes, so a layer's share of `core.run_s` can be estimated as
//! probe cost × call count.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eckv_erasure::{CodecKind, Striper};
use eckv_gf::kernels;
use eckv_simnet::{SimDuration, SimRng, Simulation};
use eckv_store::{fnv1a_64, Payload, StoreNode};

/// Per-call costs of the lower layers, medians of a few batches.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    /// DES cost per event over self-rescheduling chains, ns.
    pub ns_per_event: f64,
    /// `StoreNode::set` of one chunk, ns.
    pub store_set_ns: f64,
    /// `StoreNode::get` of one chunk, ns.
    pub store_get_ns: f64,
    /// `fnv1a_64` over one value, µs.
    pub digest_us: f64,
    /// RS(3,2) `Striper::encode_value` of one value, µs.
    pub encode_us: f64,
    /// RS(3,2) `Striper::decode_value` with one data shard erased, µs.
    pub decode_us: f64,
    /// `mul_slice_xor` throughput at the chunk size, GB/s.
    pub gf_gbps: f64,
    /// The GF kernel backend in use.
    pub backend: &'static str,
}

/// Batches each probe is timed over; the median is reported.
const BATCHES: usize = 5;

/// Median wall time per call of `f`, timed over [`BATCHES`] batches of at
/// least `min` each.
fn per_call(min: Duration, mut f: impl FnMut()) -> Duration {
    let mut calls = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        if t.elapsed() >= min {
            break;
        }
        calls *= 2;
    }
    let mut batches: Vec<Duration> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed() / calls
        })
        .collect();
    batches.sort();
    batches[BATCHES / 2]
}

/// One self-rescheduling event chain with `left` events still to run.
fn chain(sim: &mut Simulation, left: Rc<Cell<u64>>) {
    if left.get() == 0 {
        return;
    }
    left.set(left.get() - 1);
    let delay = SimDuration::from_nanos(1 + left.get() % 7);
    sim.schedule_in(delay, move |sim| chain(sim, left));
}

/// Runs every probe for values of `value_len` bytes, stored as real bytes
/// when `inline`; `min` is the least time a batch runs.
pub fn run(value_len: usize, inline: bool, min: Duration) -> Probes {
    let striper = Striper::from(CodecKind::RsVan.build(3, 2).expect("RS(3,2) is valid"));
    let shard_len = striper.shard_len_for(value_len);
    let mut rng = SimRng::seed_from_u64(1);
    let value: Vec<u8> = (0..value_len).map(|_| rng.next_u64() as u8).collect();

    let events = 1u64 << 14;
    let ns_per_event = per_call(min, || {
        let mut sim = Simulation::new();
        let left = Rc::new(Cell::new(events));
        for _ in 0..64 {
            chain(&mut sim, left.clone());
        }
        sim.run();
    })
    .as_nanos() as f64
        / events as f64;

    // One chunk per key, as a server stores it.
    let keys: Vec<Arc<str>> = (0..4096)
        .map(|i| format!("probe{i:011}.s0").into())
        .collect();
    let chunk = if inline {
        Payload::inline(value[..shard_len.min(value_len)].to_vec())
    } else {
        Payload::synthetic(shard_len as u64, 1)
    };
    let fill = |node: &mut StoreNode| {
        for k in &keys {
            black_box(node.set(k.clone(), chunk.clone()));
        }
    };
    let mut node = StoreNode::new(64 << 30);
    let store_set_ns = per_call(min, || fill(&mut node)).as_nanos() as f64 / keys.len() as f64;
    let store_get_ns = per_call(min, || {
        for k in &keys {
            black_box(node.get(k));
        }
    })
    .as_nanos() as f64
        / keys.len() as f64;

    let us = |d: Duration| d.as_nanos() as f64 / 1e3;
    let digest_us = us(per_call(min, || {
        black_box(fnv1a_64(black_box(&value)));
    }));
    let stripe = striper.encode_value(&value);
    let encode_us = us(per_call(min, || {
        black_box(striper.encode_value(black_box(&value)));
    }));
    let mut erased: Vec<Option<Vec<u8>>> = stripe.shards.iter().cloned().map(Some).collect();
    let decode_us = us(per_call(min, || {
        erased[0] = None;
        black_box(
            striper
                .decode_value(&mut erased, value_len)
                .expect("one erasure decodes"),
        );
    }));

    let backend = kernels::active_backend();
    let src = &stripe.shards[0];
    let mut dst = vec![0u8; shard_len];
    let xor = per_call(min, || {
        backend.mul_slice_xor(0x53, black_box(src), &mut dst)
    });
    Probes {
        ns_per_event,
        store_set_ns,
        store_get_ns,
        digest_us,
        encode_us,
        decode_us,
        gf_gbps: shard_len as f64 / xor.as_nanos().max(1) as f64,
        backend: backend.name(),
    }
}
