//! Set operation policy and encode glue.
//!
//! All paths route around servers the client *believes* are dead (its
//! failure view); a transport error updates the view and surfaces as a
//! retryable failure, which the driver transparently re-dispatches —
//! the fail-over behaviour the paper's clients implement. Writes degrade
//! gracefully: an erasure Set succeeds if at least `k` chunks land, a
//! replicated Set if at least one copy lands.
//!
//! Every erasure Set — Era-CE-*, Era-SE-* and the hybrid's large values —
//! runs one pipeline, parameterised by the encode site the scheme names
//! ([`Side`]). The site fixes the *fan-out origin*, the node that encodes
//! and posts the chunks: the client for [`Side::Client`]; for
//! [`Side::Server`] the first chunk holder the client believes alive,
//! which coordinates the write (see [`crate::flow::Coordinator`]). The
//! parallel fan-outs (replicated copies, erasure chunks) all drive
//! [`crate::fanout::FanOut`] in write mode; only Sync-Rep keeps its
//! deliberately sequential chain.

use std::rc::Rc;
use std::sync::Arc;

use eckv_erasure::Striper;
use eckv_simnet::{trace_codec, CodecOp, SimDuration, SimTime, Simulation};
use eckv_store::{rpc, Bytes, Payload};

use crate::fanout::{chunk_io, FanOut, FanOutSpec, Liveness, Origin, QuorumPolicy, Settled};
use crate::flow::{finish_op, Coordinator, DoneCb, OpOutcome};
use crate::ops::OpKind;
use crate::scheme::{Scheme, Side};
use crate::world::World;

/// Builds the `k + m` chunk payloads for a value: really encoded for inline
/// values, derived descriptors for synthetic ones.
///
/// An inline value's data chunks are views of the value's own buffer
/// wherever a chunk lies wholly inside the value; only a chunk that needs
/// zero padding (normally just the last) is copied. Parity is encoded into
/// fresh buffers that become chunks without a second copy.
pub(crate) fn build_shards(world: &World, payload: &Payload, shard_len: u64) -> Vec<Payload> {
    let striper = world.striper.as_ref().expect("erasure scheme");
    let n = striper.codec().total_shards();
    match payload {
        Payload::Inline(value) => {
            let shard_len = shard_len as usize;
            let mut chunks: Vec<Bytes> = (0..striper.codec().data_shards())
                .map(|i| {
                    let range = Striper::data_range(value.len(), shard_len, i);
                    if range.len() == shard_len {
                        value.slice(range)
                    } else {
                        Bytes::from(Striper::padded_data_shard(value, shard_len, i))
                    }
                })
                .collect();
            let data: Vec<&[u8]> = chunks.iter().map(|c| &c[..]).collect();
            let parity = striper.encode_parity(&data);
            chunks.extend(parity.into_iter().map(Bytes::from));
            chunks.into_iter().map(Payload::Inline).collect()
        }
        Payload::Synthetic { .. } => (0..n).map(|i| payload.shard(i, shard_len)).collect(),
    }
}

/// The terminal "no viable holder" failure: nothing was issued, nothing
/// new can be discovered, so a retry is pointless.
fn fail_unwritable(world: &Rc<World>, sim: &mut Simulation, value_len: u64, done: DoneCb) {
    let op_start = sim.now();
    let outcome = OpOutcome {
        value_len,
        ..OpOutcome::failed(OpKind::Set, op_start, SimDuration::ZERO, false)
    };
    finish_op(world, sim, op_start, outcome, done);
}

/// Entry point: dispatches on the scheme.
pub(crate) fn start_set(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    payload: Payload,
    done: DoneCb,
) {
    let Ok(mut targets) = world.try_targets(&key) else {
        // The membership dropped below the scheme's group width (an
        // over-eager drain): there is no valid placement to write to, so
        // the operation fails cleanly instead of panicking.
        let value_len = payload.len();
        fail_unwritable(world, sim, value_len, done);
        return;
    };
    match world.scheme {
        Scheme::NoRep | Scheme::AsyncRep { .. } => {
            set_parallel_replicated(world, sim, client, key, payload, targets, done)
        }
        Scheme::SyncRep { .. } => {
            set_sync_replicated(world, sim, client, key, payload, targets, done)
        }
        Scheme::Erasure { encode_at, .. } => {
            set_erasure(world, sim, client, key, payload, targets, encode_at, done)
        }
        Scheme::Hybrid {
            threshold,
            replicas,
            ..
        } => {
            // Small values replicate (chunking overheads dominate there);
            // large values take the Era-CE-CD path.
            if payload.len() <= threshold {
                targets.truncate(replicas);
                set_parallel_replicated(world, sim, client, key, payload, targets, done)
            } else {
                set_erasure(
                    world,
                    sim,
                    client,
                    key,
                    payload,
                    targets,
                    Side::Client,
                    done,
                )
            }
        }
    }
}

/// NoRep / Async-Rep (and the hybrid small-value path): post a copy to
/// every replica holder the client believes alive, wait for all.
fn set_parallel_replicated(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    payload: Payload,
    targets: Vec<usize>,
    done: DoneCb,
) {
    let op_start = sim.now();
    let post = world.cluster.net_config().post_overhead;
    let value_len = payload.len();
    let digest = payload.digest();

    if !targets.iter().any(|&s| world.view_alive(client, s)) {
        // Every believed-alive replica holder is gone; nothing new to
        // discover, so this is final.
        fail_unwritable(world, sim, value_len, done);
        return;
    }

    let spec = FanOutSpec {
        candidates: targets.into_iter().enumerate().collect(),
        pinned: 0,
        // Durable as long as one copy lands; zero copies with fresh
        // discoveries is worth one retry.
        policy: QuorumPolicy::write(1),
        liveness: Liveness::View(client),
        hedge_node: world.cluster.client_node(client),
    };
    let key2 = key.clone();
    let io = chunk_io(
        world,
        Origin::Client(client),
        Some(client),
        rpc::RpcPriority::Foreground,
        move |_| rpc::Request::Set {
            key: key2.clone(),
            payload: payload.clone(),
            stale: None,
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
            finish_op(
                &world2,
                sim,
                op_start,
                OpOutcome {
                    kind: OpKind::Set,
                    at: s.last,
                    request: post * s.posts,
                    compute: SimDuration::ZERO,
                    ok: s.succeeded >= 1,
                    integrity_ok: true,
                    retryable: true,
                    degraded: false,
                    value_len,
                    note_written: Some((key, digest)),
                },
                done,
            );
        }),
    );
    debug_assert!(launched, "a live replica existed at the pre-check");
}

/// Sync-Rep: each replica write completes before the next is issued. This
/// chain is deliberately sequential (the paper's blocking baseline), so it
/// stays off the parallel fan-out core.
fn set_sync_replicated(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    payload: Payload,
    targets: Vec<usize>,
    done: DoneCb,
) {
    let targets: Vec<usize> = targets
        .into_iter()
        .filter(|&s| world.view_alive(client, s))
        .collect();
    if targets.is_empty() {
        let value_len = payload.len();
        fail_unwritable(world, sim, value_len, done);
        return;
    }
    let op_start = sim.now();
    sync_step(world, sim, client, key, payload, targets, 0, op_start, done);
}

#[allow(clippy::too_many_arguments)]
fn sync_step(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    payload: Payload,
    targets: Vec<usize>,
    idx: usize,
    op_start: eckv_simnet::SimTime,
    done: DoneCb,
) {
    let post = world.cluster.net_config().post_overhead;
    let value_len = payload.len();
    if idx == targets.len() {
        let digest = payload.digest();
        let at = sim.now();
        finish_op(
            world,
            sim,
            op_start,
            OpOutcome {
                kind: OpKind::Set,
                at,
                request: post * targets.len() as u64,
                compute: SimDuration::ZERO,
                ok: true,
                integrity_ok: true,
                retryable: false,
                degraded: false,
                value_len,
                note_written: Some((key, digest)),
            },
            done,
        );
        return;
    }
    let srv = targets[idx];
    let issue_at = world.reserve_client_cpu(client, sim.now(), post);
    let client_node = world.cluster.client_node(client);
    let world2 = world.clone();
    let request = rpc::Request::Set {
        key: key.clone(),
        payload: payload.clone(),
        stale: None,
    };
    rpc::call(
        &world.cluster.net,
        &world.cluster.servers[srv],
        sim,
        issue_at,
        client_node,
        request,
        None,
        rpc::RpcPriority::Foreground,
        move |sim, reply| {
            // Blocking semantics: the op fails at the first broken link in
            // the chain. A dead replica updates the view (the retry skips
            // it); a shed replica stays in the view and a backed-off retry
            // walks the same chain again, as does one that could not hold
            // the value.
            let t = match reply {
                Ok(r) if r.hit => {
                    return sync_step(
                        &world2,
                        sim,
                        client,
                        key,
                        payload,
                        targets,
                        idx + 1,
                        op_start,
                        done,
                    );
                }
                Ok(r) => r.at,
                Err(err) => world2.note_rpc_error(
                    err,
                    Some(client),
                    client_node,
                    srv,
                    rpc::RpcPriority::Foreground,
                ),
            };
            let outcome = OpOutcome {
                value_len,
                ..OpOutcome::failed(OpKind::Set, t, post * (idx as u64 + 1), true)
            };
            finish_op(&world2, sim, op_start, outcome, done);
        },
    );
}

/// The erasure SET pipeline, for either encode site. The *fan-out
/// origin* posts the `k + m` chunks to the holders the client believes
/// alive: the client itself for [`Side::Client`]; for [`Side::Server`] the
/// first such holder, which receives the whole value in one hop, encodes
/// it, keeps its own chunk and acks once its peers have. A write degrades
/// gracefully as long as `k` chunks land. Under the hybrid scheme the
/// chunk posts to replica slots also retire the plain key, so a value
/// that outgrew replication leaves no stale copy for the read probe to
/// find.
#[allow(clippy::too_many_arguments)]
fn set_erasure(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    payload: Payload,
    mut targets: Vec<usize>,
    site: Side,
    done: DoneCb,
) {
    let op_start = sim.now();
    let value_len = payload.len();
    let digest = payload.digest();
    let (k, m, ..) = world.scheme.erasure_params().expect("erasure or hybrid");
    targets.truncate(k + m);
    let mut live: Vec<(usize, usize)> = targets
        .into_iter()
        .enumerate()
        .filter(|&(_, s)| world.view_alive(client, s))
        .collect();
    if live.len() < k {
        fail_unwritable(world, sim, value_len, done);
        return;
    }
    let origin = match site {
        Side::Client => Origin::Client(client),
        Side::Server => {
            // The encoder is the first live holder. It keeps the chunk of
            // its own position, posted last, behind its peers' chunks.
            live.rotate_left(1);
            Origin::Server(live[live.len() - 1].1)
        }
    };
    // A straggling encoder pays for its degraded codec throughput.
    let t_enc = world.encode_time_at(origin.node(world), value_len);
    // A lone encoder (k = 1, every peer dead) acks right after its local
    // store, and a chunk it could not store has nowhere else to go.
    let lone = live.len() == 1;
    let key_len = key.len();
    let post = world.cluster.net_config().post_overhead;
    let written = {
        let key = key.clone();
        move |ok: bool, at: SimTime, request: SimDuration, compute: SimDuration| OpOutcome {
            kind: OpKind::Set,
            at,
            request,
            compute,
            ok,
            integrity_ok: true,
            retryable: true,
            degraded: false,
            value_len,
            note_written: Some((key, digest)),
        }
    };
    let shards = build_shards(world, &payload, world.shard_len(value_len));
    let scheme = world.scheme;
    let post_chunks = move |world: &Rc<World>, sim: &mut Simulation, from: SimTime, on_settle| {
        let spec = FanOutSpec {
            candidates: live,
            pinned: 0,
            policy: QuorumPolicy::write(k),
            liveness: Liveness::PreFiltered,
            hedge_node: origin.node(world),
        };
        let io = chunk_io(
            world,
            origin,
            Some(client),
            rpc::RpcPriority::Foreground,
            move |slot| {
                let stale = scheme.is_replica_slot(slot).then(|| key.clone());
                rpc::Request::Set {
                    key: World::shard_key(&key, slot),
                    payload: shards[slot].clone(),
                    stale,
                }
            },
        );
        let launched = FanOut::launch(world, sim, spec, from, io, on_settle);
        debug_assert!(launched, "k live holders existed at the pre-check");
    };
    match origin {
        Origin::Client(_) => {
            encode(world, origin, op_start, t_enc, value_len);
            let world2 = world.clone();
            post_chunks(
                world,
                sim,
                op_start,
                Box::new(move |sim, s: Settled| {
                    let outcome = written(s.succeeded >= k, s.last, post * s.posts, t_enc);
                    finish_op(&world2, sim, op_start, outcome, done);
                }),
            );
        }
        Origin::Server(srv) => {
            let coord = Coordinator {
                srv,
                client,
                kind: OpKind::Set,
                op_start,
                request: post,
            };
            let bytes = rpc::REQUEST_OVERHEAD + key_len + value_len as usize;
            let world2 = world.clone();
            coord.request(world, sim, bytes, value_len, done, move |sim, at, done| {
                let costs = world2.cluster.servers[srv].borrow().costs();
                let ingest_done = origin.reserve(&world2, at, costs.op_time(value_len));
                let enc_done = encode(&world2, origin, ingest_done, t_enc, value_len);
                let world3 = world2.clone();
                post_chunks(
                    &world2,
                    sim,
                    enc_done,
                    Box::new(move |sim, s: Settled| {
                        let outcome = OpOutcome {
                            retryable: !lone,
                            ..written(s.succeeded >= k, s.last, post, SimDuration::ZERO)
                        };
                        coord.respond(&world3, sim, s.last, rpc::ACK_BYTES, outcome, done);
                    }),
                );
            });
        }
    }
}

/// The one encode: charges `t_enc` to `origin`'s CPU from `from` and
/// traces it; returns when the chunks are ready.
fn encode(world: &World, origin: Origin, from: SimTime, t_enc: SimDuration, len: u64) -> SimTime {
    let enc_done = origin.reserve(world, from, t_enc);
    trace_codec(
        &world.trace,
        origin.node(world),
        CodecOp::Encode,
        from,
        t_enc,
        len,
    );
    enc_done
}
