//! Get operation policy and decode glue, including degraded
//! (post-failure) reads.
//!
//! Every multi-holder read drives [`crate::fanout::FanOut`]; this module
//! keeps only what differs per scheme: candidate selection, quorum
//! policy, and completion accounting. Every erasure Get — Era-*-CD,
//! Era-*-SD and the hybrid's chunk path — runs one pipeline,
//! parameterised by the decode site the scheme names ([`Side`]). The site
//! fixes the *fan-out origin*, the node that gathers the chunks and
//! decodes: the client for [`Side::Client`]; for [`Side::Server`] the
//! first chunk holder the client believes alive, which aggregates on the
//! client's behalf (see [`crate::flow::Coordinator`]). Server selection
//! consults the client's failure view; transport errors update the view
//! and surface as retryable failures so the driver can re-dispatch the
//! read against the survivors (the paper's fail-over).

use std::rc::Rc;
use std::sync::Arc;

use eckv_simnet::{trace_codec, CodecOp, SimDuration, SimTime, Simulation};
use eckv_store::{rpc, Item, Payload, StoreKey, Xxh64};

use crate::fanout::{
    chunk_io, FanOut, FanOutSpec, Liveness, Origin, QuorumPolicy, SettleCb, Settled,
};
use crate::flow::{finish_op, Coordinator, DoneCb, OpOutcome};
use crate::ops::OpKind;
use crate::scheme::{Scheme, Side};
use crate::world::World;

/// Client CPU time to check a server's liveness before a Get (the
/// paper's `T_check`).
const LIVENESS_CHECK: SimDuration = SimDuration::from_nanos(500);

/// Entry point: dispatches on the scheme.
pub(crate) fn start_get(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    done: DoneCb,
) {
    let Ok(targets) = world.try_targets(&key) else {
        // The membership dropped below the scheme's group width (an
        // over-eager drain): no valid placement exists to read from, so
        // the operation fails cleanly instead of panicking.
        let op_start = sim.now();
        let outcome = OpOutcome::failed(OpKind::Get, op_start, SimDuration::ZERO, false);
        finish_op(world, sim, op_start, outcome, done);
        return;
    };
    match world.scheme {
        Scheme::NoRep | Scheme::AsyncRep { .. } | Scheme::SyncRep { .. } => {
            get_replicated(world, sim, client, key, targets, done)
        }
        Scheme::Erasure { decode_at, .. } => {
            let op_start = sim.now();
            get_erasure(
                world,
                sim,
                client,
                key,
                targets,
                decode_at,
                op_start,
                SimDuration::ZERO,
                done,
            )
        }
        Scheme::Hybrid { replicas, .. } => {
            get_hybrid(world, sim, client, key, targets, replicas, done)
        }
    }
}

/// Hybrid read: probe the plain (replicated) key at the first live replica
/// holder; a miss means the value was erasure-coded, so fall through to
/// the chunk path. The probe costs one extra round trip for large values —
/// the price of needing no metadata service.
fn get_hybrid(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    targets: Vec<usize>,
    replicas: usize,
    done: DoneCb,
) {
    let op_start = sim.now();
    let post = world.cluster.net_config().post_overhead;
    let client_node = world.cluster.client_node(client);

    let Some(&srv) = targets
        .iter()
        .take(replicas)
        .find(|&&s| world.view_alive(client, s))
    else {
        // No replica holder is reachable; the chunk path may still work.
        get_erasure(
            world,
            sim,
            client,
            key,
            targets,
            Side::Client,
            op_start,
            LIVENESS_CHECK,
            done,
        );
        return;
    };
    let issue_at = world.reserve_client_cpu(client, op_start, LIVENESS_CHECK + post);
    let world2 = world.clone();
    rpc::call(
        &world.cluster.net,
        &world.cluster.servers[srv],
        sim,
        issue_at,
        client_node,
        rpc::Request::Get {
            key: StoreKey::from(&key),
        },
        None,
        rpc::RpcPriority::Foreground,
        move |sim, reply| match reply {
            Ok(rpc::Reply {
                at,
                item: Some(item),
                ..
            }) => {
                let integrity = check_value(&world2, &key, &item.payload);
                let len = item.payload.len();
                finish_op(
                    &world2,
                    sim,
                    op_start,
                    OpOutcome {
                        kind: OpKind::Get,
                        at,
                        request: LIVENESS_CHECK + post,
                        compute: SimDuration::ZERO,
                        ok: true,
                        integrity_ok: integrity,
                        retryable: false,
                        degraded: false,
                        value_len: len,
                        note_written: None,
                    },
                    done,
                );
            }
            // A clean miss means the value was erasure-coded: fall through
            // to the chunk path, keeping the probe's cost in the request
            // phase. A round trip later, the placement is resolved anew.
            Ok(_) => {
                let request = LIVENESS_CHECK + post;
                let targets = world2.targets(&key);
                get_erasure(
                    &world2,
                    sim,
                    client,
                    key,
                    targets,
                    Side::Client,
                    op_start,
                    request,
                    done,
                )
            }
            // A dead replica holder is a view update, not evidence the
            // value was chunked: retry so the probe hits the next replica.
            // A shed probe retries the same holder after backoff.
            Err(err) => {
                let t = world2.note_rpc_error(
                    err,
                    Some(client),
                    client_node,
                    srv,
                    rpc::RpcPriority::Foreground,
                );
                let outcome = OpOutcome::failed(OpKind::Get, t, LIVENESS_CHECK + post, true);
                finish_op(&world2, sim, op_start, outcome, done);
            }
        },
    );
}

/// Validates a full value returned by a replicated Get.
fn check_value(world: &World, key: &str, value: &Payload) -> bool {
    if !world.cfg.validate {
        return true;
    }
    match world.expected.borrow().get(key) {
        Some(w) => w.len == value.len() && w.digest == value.digest(),
        None => true, // nothing recorded; cannot judge
    }
}

/// Replication / NoRep: read the whole value from the first live replica.
fn get_replicated(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    targets: Vec<usize>,
    done: DoneCb,
) {
    let op_start = sim.now();
    let post = world.cluster.net_config().post_overhead;

    if !targets.iter().any(|&s| world.view_alive(client, s)) {
        // All replicas believed down: the operation fails for good.
        let at = world.reserve_client_cpu(client, op_start, LIVENESS_CHECK);
        let outcome = OpOutcome::failed(OpKind::Get, at, LIVENESS_CHECK, false);
        finish_op(world, sim, op_start, outcome, done);
        return;
    }
    world.reserve_client_cpu(client, op_start, LIVENESS_CHECK);
    let spec = FanOutSpec {
        candidates: targets.into_iter().enumerate().collect(),
        pinned: 0,
        policy: QuorumPolicy::single(),
        liveness: Liveness::View(client),
        hedge_node: world.cluster.client_node(client),
    };
    let store_key = StoreKey::from(&key);
    let io = chunk_io(
        world,
        Origin::Client(client),
        Some(client),
        rpc::RpcPriority::Foreground,
        move |_| rpc::Request::Get {
            key: store_key.clone(),
        },
    );
    let world2 = world.clone();
    let launched = FanOut::launch(
        world,
        sim,
        spec,
        op_start,
        io,
        Box::new(move |sim, s: Settled| {
            let ok = !s.good.is_empty();
            let (integrity, len) = s.good.first().map_or((true, 0), |(_, v)| {
                (check_value(&world2, &key, &v.payload), v.payload.len())
            });
            finish_op(
                &world2,
                sim,
                op_start,
                OpOutcome {
                    kind: OpKind::Get,
                    at: s.last,
                    request: LIVENESS_CHECK + post,
                    compute: SimDuration::ZERO,
                    ok,
                    integrity_ok: integrity,
                    // Discovery fails over on the retry; a shed reply
                    // retries the same holder after backoff.
                    retryable: s.discovered || s.shed > 0,
                    degraded: false,
                    value_len: len,
                    note_written: None,
                },
                done,
            );
        }),
    );
    debug_assert!(launched, "a live replica existed at the pre-check");
}

/// Orders a key's chunk holders for a gather: the first `k` the client
/// believes alive (by shard index), then every other position in index
/// order, for top-up and hedging. Returns `(shard_index, server)` pairs,
/// or `None` if fewer than `k` survive in the view.
fn gather_order(
    world: &World,
    client: usize,
    targets: &[usize],
    k: usize,
) -> Option<Vec<(usize, usize)>> {
    let mut order = Vec::with_capacity(targets.len());
    for (i, &s) in targets.iter().enumerate() {
        if order.len() < k && world.view_alive(client, s) {
            order.push((i, s));
        }
    }
    if order.len() < k {
        return None;
    }
    for (i, &s) in targets.iter().enumerate() {
        let chosen = order[..k].iter().any(|&(c, _)| c == i);
        if !chosen {
            order.push((i, s));
        }
    }
    Some(order)
}

/// Verifies fetched chunks, and the value length their flags gave the
/// reader, against the write record. Inline chunks are really decoded to
/// that length: the `k` data chunks, surviving ones in place and lost
/// ones rebuilt from borrowed survivors, stream into an [`Xxh64`] that
/// must match the written value's digest, which covers its length.
fn check_chunks(world: &World, key: &str, value_len: u64, chunks: &[(usize, Item)]) -> bool {
    if !world.cfg.validate {
        return true;
    }
    let Some(w) = world.expected.borrow().get(key).copied() else {
        return true;
    };
    let all_inline = chunks.iter().all(|(_, c)| c.payload.as_bytes().is_some());
    if all_inline {
        let striper = world.striper.as_ref().expect("erasure scheme");
        let mut shards: Vec<Option<&[u8]>> = vec![None; striper.codec().total_shards()];
        for (idx, chunk) in chunks {
            shards[*idx] = chunk.payload.as_bytes().map(|b| &b[..]);
        }
        let mut digest = Xxh64::new();
        striper
            .decode_value_into(&shards, value_len as usize, |piece| digest.update(piece))
            .is_ok()
            && digest.digest() == w.digest
    } else {
        // Synthetic: each chunk's digest must match the derivation used at
        // write time.
        let parent = Payload::Synthetic {
            len: w.len,
            digest: w.digest,
        };
        let shard_len = world.shard_len(w.len);
        value_len == w.len
            && chunks
                .iter()
                .all(|(idx, c)| c.payload.digest() == parent.shard(*idx, shard_len).digest())
    }
}

/// The erasure GET pipeline, for either decode site. The *fan-out
/// origin* gathers `k` chunks (topping up on misses, hedged against
/// stragglers) and decodes only if a data chunk is missing: the client
/// itself for [`Side::Client`]; for [`Side::Server`] the first chunk
/// holder the client believes alive, which aggregates on the client's
/// behalf and returns the value whole in one hop. `request_base` carries
/// request-phase cost already paid by a caller (the hybrid probe).
#[allow(clippy::too_many_arguments)]
fn get_erasure(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    mut targets: Vec<usize>,
    site: Side,
    op_start: SimTime,
    request_base: SimDuration,
    done: DoneCb,
) {
    let (k, m, ..) = world.scheme.erasure_params().expect("erasure scheme");
    targets.truncate(k + m);
    let post = world.cluster.net_config().post_overhead;
    let now = sim.now();

    let Some(candidates) = gather_order(world, client, &targets, k) else {
        let at = world.reserve_client_cpu(client, now, LIVENESS_CHECK);
        let outcome = OpOutcome::failed(OpKind::Get, at, request_base + LIVENESS_CHECK, false);
        finish_op(world, sim, op_start, outcome, done);
        return;
    };
    let origin = match site {
        Side::Client => Origin::Client(client),
        Side::Server => Origin::Server(candidates[0].1),
    };
    let key2 = key.clone();
    let gather =
        move |world: &Rc<World>, sim: &mut Simulation, from: SimTime, on_settle: SettleCb| {
            // The admission-time choice is pinned: an aggregator's gather
            // launches a hop later, and the failure view may have moved
            // while the request crossed the wire.
            let spec = FanOutSpec {
                candidates,
                pinned: k,
                policy: QuorumPolicy::read(k),
                liveness: Liveness::View(client),
                hedge_node: origin.node(world),
            };
            let io = chunk_io(
                world,
                origin,
                Some(client),
                rpc::RpcPriority::Foreground,
                move |slot| rpc::Request::Get {
                    key: StoreKey::chunk(key2.clone(), slot),
                },
            );
            let launched = FanOut::launch(world, sim, spec, from, io, on_settle);
            debug_assert!(launched, "the pinned wave is never short of k");
        };
    match origin {
        Origin::Client(_) => {
            world.reserve_client_cpu(client, now, LIVENESS_CHECK);
            let world2 = world.clone();
            gather(
                world,
                sim,
                now,
                Box::new(move |sim, s: Settled| {
                    let request = request_base + LIVENESS_CHECK + post * s.posts;
                    let (outcome, _) = decode(&world2, origin, &key, k, s, sim.now(), request);
                    finish_op(&world2, sim, op_start, outcome, done);
                }),
            );
        }
        Origin::Server(srv) => {
            let coord = Coordinator {
                srv,
                client,
                kind: OpKind::Get,
                op_start,
                request: LIVENESS_CHECK + post,
            };
            let bytes = rpc::REQUEST_OVERHEAD + key.len();
            let world2 = world.clone();
            coord.request(world, sim, bytes, 0, done, move |sim, at, done| {
                let costs = world2.cluster.servers[srv].borrow().costs();
                let t1 = origin.reserve(&world2, at, costs.op_time(0));
                let world3 = world2.clone();
                gather(
                    &world2,
                    sim,
                    t1,
                    Box::new(move |sim, s: Settled| {
                        let last = s.last;
                        let (outcome, fetched) =
                            decode(&world3, origin, &key, k, s, last, coord.request);
                        let bytes = rpc::ACK_BYTES
                            + (fetched as usize).min(outcome.value_len as usize + rpc::ACK_BYTES);
                        // The aggregator's decode is part of the client's
                        // wait for the response.
                        let outcome = OpOutcome {
                            compute: SimDuration::ZERO,
                            ..outcome
                        };
                        coord.respond(&world3, sim, outcome.at, bytes, outcome, done);
                    }),
                );
            });
        }
    }
}

/// The one decode tail: judges the chunks a gather settled with at `at`,
/// decoding at `origin` when a data chunk had to be rebuilt from parity.
/// The value's length is the flags word of the chunks used (0 when none
/// came back). Returns the op's outcome (its `compute` is the decode
/// time) and the chunk bytes fetched.
fn decode(
    world: &World,
    origin: Origin,
    key: &Arc<str>,
    k: usize,
    s: Settled,
    at: SimTime,
    request: SimDuration,
) -> (OpOutcome, u64) {
    let ok = s.good.len() >= k;
    let retryable = s.discovered || s.shed > 0;
    let mut used = s.good;
    used.truncate(k);
    let fetched: u64 = used.iter().map(|(_, c)| c.payload.len()).sum();
    let value_len = used.first().map_or(0, |(_, c)| u64::from(c.flags));
    let erased_data = if ok {
        (0..k)
            .filter(|i| !used.iter().any(|&(idx, _)| idx == *i))
            .count()
    } else {
        0
    };
    let integrity_ok = !ok || check_chunks(world, key, value_len, &used);
    let (done, compute) = if erased_data > 0 {
        // This read had to decode — the key is in degraded mode. Promote
        // it to the front of any active repair queue. A straggling decoder
        // decodes proportionally slower.
        crate::repair::note_degraded_read(world, at, key);
        let node = origin.node(world);
        let t_dec = world.decode_time_at(node, value_len, erased_data);
        let dec_done = origin.reserve(world, at, t_dec);
        trace_codec(&world.trace, node, CodecOp::Decode, at, t_dec, value_len);
        (dec_done, t_dec)
    } else {
        (at, SimDuration::ZERO)
    };
    let outcome = OpOutcome {
        kind: OpKind::Get,
        at: done,
        request,
        compute,
        ok,
        integrity_ok,
        retryable,
        degraded: erased_data > 0,
        value_len,
        note_written: None,
    };
    (outcome, fetched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_path::build_shards;
    use crate::world::EngineConfig;
    use eckv_erasure::Striper;
    use eckv_simnet::ClusterProfile;
    use eckv_store::{xxh64, ClusterConfig};

    /// Every `k`-subset of `0..n`, in lexicographic order.
    fn k_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
        (0u32..1 << n)
            .filter(|mask| mask.count_ones() as usize == k)
            .map(|mask| (0..n).filter(|&i| mask >> i & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn inline_sets_store_views_and_every_k_chunks_pass_the_check() {
        let world = World::new(
            EngineConfig::new(
                ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
                Scheme::era_ce_cd(3, 2),
            )
            .validate(true),
        );
        let striper = world.striper.as_ref().expect("erasure scheme");
        let (k, n) = (3, 5);
        let align = striper.codec().shard_alignment();
        for len in [0, 1, 3 * align - 1, 3 * align, 64 << 10, (64 << 10) + 1] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
            let value = Payload::inline(bytes.clone());
            let view = value.as_bytes().expect("inline");
            let buf = view.as_ptr_range();
            let shard_len = world.shard_len(len as u64) as usize;
            let chunks = build_shards(&world, &value, shard_len as u64);
            assert_eq!(chunks.len(), n);
            let chunk = |i: usize| chunks[i].as_bytes().expect("inline chunk");

            // Whole data chunks are views into the value's buffer; a chunk
            // that needs padding is a zero-padded copy, and parity is fresh.
            for i in 0..k {
                let range = Striper::data_range(len, shard_len, i);
                let c = chunk(i);
                assert_eq!(c.len(), shard_len, "len {len} chunk {i}");
                assert_eq!(&c[..range.len()], &bytes[range.clone()]);
                if range.len() == shard_len {
                    assert_eq!(c.as_ptr(), view[range.start..].as_ptr());
                } else {
                    assert!(c[range.len()..].iter().all(|&b| b == 0));
                    assert!(!buf.contains(&c.as_ptr()), "len {len} chunk {i} is a copy");
                }
            }
            if len >= 3 * align - 1 {
                for i in 0..k - 1 {
                    assert!(buf.contains(&chunk(i).as_ptr()), "len {len} chunk {i}");
                }
            }
            for i in k..n {
                assert!(!buf.contains(&chunk(i).as_ptr()), "len {len} parity {i}");
            }

            world.note_written("v".into(), len as u64, xxh64(&bytes));
            let item = |c: &Payload| Item::from(c.clone());
            for used in k_subsets(n, k) {
                let got: Vec<(usize, Item)> = used.iter().map(|&i| (i, item(&chunks[i]))).collect();
                assert!(
                    check_chunks(&world, "v", len as u64, &got),
                    "len {len} {used:?}"
                );
                assert!(
                    !check_chunks(&world, "v", len as u64 + 1, &got),
                    "len {len} {used:?} read with a wrong length"
                );
                let survivors: Vec<Option<&[u8]>> = (0..n)
                    .map(|i| used.contains(&i).then(|| &chunk(i)[..]))
                    .collect();
                assert_eq!(
                    striper.decode_value(&survivors, len).expect("k survivors"),
                    bytes,
                    "len {len} {used:?}"
                );
            }

            // One flipped bit in any chunk fails the check, wherever the
            // chunk's bytes reach the value: a data chunk read directly, a
            // parity chunk through the data chunk it rebuilds. (Padding is
            // not part of the value, so a flip there is not an error.)
            for bad in 0..n {
                let (used, reach) = if bad < k {
                    (vec![0, 1, 2], bad)
                } else {
                    (vec![1, 2, bad], 0)
                };
                let carried = Striper::data_range(len, shard_len, reach).len();
                if carried == 0 {
                    continue;
                }
                let mut flipped = chunk(bad).to_vec();
                flipped[carried / 2] ^= 0x08;
                let got: Vec<(usize, Item)> = used
                    .iter()
                    .map(|&i| {
                        let c = if i == bad {
                            Payload::inline(flipped.clone())
                        } else {
                            chunks[i].clone()
                        };
                        (i, c.into())
                    })
                    .collect();
                assert!(
                    !check_chunks(&world, "v", len as u64, &got),
                    "len {len} bad {bad}"
                );
            }
        }
    }
}
