//! Server replacement and data re-protection (the paper's stated future
//! work: "detailed recovery overhead analysis"), as an **online** repair
//! engine that interleaves with live foreground traffic.
//!
//! After a failed server is replaced by an empty node, every key that kept
//! a chunk or replica there has lost redundancy. [`start_repair`] seeds a
//! background queue of those keys (sorted — the deterministic scan order)
//! and rebuilds them, client-driven, while the simulation keeps serving
//! foreground operations.
//!
//! The same engine drives **repair-driven migration**: a membership
//! change ([`join_server`], [`drain_server`]) reassigns O(1/N) of the
//! virtual shards, and every key in a moved vshard becomes a
//! `RepairTask::Migrate` on the same queue. Migration is repair with a
//! different destination, so both task kinds run one pipeline — fetch
//! from the survivors, decode if sharded, write to the destination:
//!
//! * **Full copies** (replication, small hybrid values) are fetched from
//!   any live holder, topped up from the next one when a holder is dead
//!   or has lost its copy — 1x read per lost copy, the repair-cost
//!   advantage replication keeps. A rebuild rotates the holders by key
//!   hash so a mass repair spreads its reads; a migration asks the
//!   vacated holder first.
//! * **Erasure chunks** are copied verbatim from the vacated holder when a
//!   migration has a live one. Otherwise — and always for a rebuild — the
//!   chunk is reconstructed: fetch `k` survivors (rotated by key hash,
//!   topped up from untried survivors the way the GET path late-binds),
//!   decode, re-encode the lost shard. That is the classic erasure
//!   *repair amplification*: `k` chunk reads per lost chunk.
//! * **Every write** goes through one tail with one `repair_shard` event,
//!   which the trace bus folds into a pair of read/write counters, so
//!   repair and migration traffic compare directly in traces.
//!
//! Three policies shape the interference with foreground traffic
//! ([`RepairConfig`]): a concurrency window, a token-bucket **bandwidth
//! throttle** that paces key issue in sim-time, and **degraded-read
//! priority promotion** — a GET that had to decode moves its key to the
//! front of the queue so hot keys exit degraded mode first while cold
//! keys wait for the background scan. Migration runs under the same three.
//!
//! The offline [`repair_server`] wrapper keeps the old stop-the-world
//! contract: unthrottled, no foreground load, runs to quiescence. The
//! returned [`RepairReport`] quantifies the repair-amplification
//! trade-off either way.

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

use eckv_simnet::{trace_codec, CodecOp, SimDuration, SimTime, Simulation, TraceEvent};
use eckv_store::{fnv1a_64, rpc, Payload, StoreKey};

use crate::fanout::{
    chunk_io, FanOut, FanOutSpec, Liveness, Origin, QuorumPolicy, Settled, ShardIo,
};
use crate::scheme::Scheme;
use crate::world::{RepairConfig, World};

/// Outcome of one server repair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Keys that had lost a chunk/replica on the failed server.
    pub keys_repaired: u64,
    /// Keys that could not be repaired (insufficient or undecodable
    /// survivors).
    pub keys_lost: u64,
    /// Bytes read from surviving servers to drive the repair.
    pub bytes_read: u64,
    /// Bytes written to the replacement server.
    pub bytes_written: u64,
    /// Virtual time the repair took.
    pub elapsed: SimDuration,
}

/// One unit of background data movement on the repair queue.
#[derive(Debug, Clone)]
enum RepairTask {
    /// Rebuild chunk/copy `slot` of `key` on the replaced server `to`.
    Rebuild {
        key: Arc<str>,
        slot: usize,
        to: usize,
    },
    /// Move chunk `slot` of `key` from its previous holder to the new
    /// one a membership change assigned (`from` usually still serves it,
    /// so this is a 1x copy; reconstruction is the fallback).
    Migrate {
        key: Arc<str>,
        slot: usize,
        from: usize,
        to: usize,
    },
}

impl RepairTask {
    fn key(&self) -> &Arc<str> {
        match self {
            RepairTask::Rebuild { key, .. } | RepairTask::Migrate { key, .. } => key,
        }
    }
}

/// How a key is stored on its placement group under the current scheme —
/// the one place a hybrid value's size class is looked up.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// One erasure chunk per slot; any `k` of them rebuild another.
    Sharded,
    /// Full copies on the group's first `n` slots.
    Copies(usize),
    /// One unreplicated copy (`NoRep`): it can move, but nothing
    /// redundant exists to rebuild it from.
    Unprotected,
}

impl Layout {
    fn of(world: &World, key: &str) -> Layout {
        match world.scheme {
            Scheme::Erasure { .. } => Layout::Sharded,
            Scheme::SyncRep { replicas } | Scheme::AsyncRep { replicas } => {
                Layout::Copies(replicas)
            }
            // The class was decided by the value's size at write time.
            Scheme::Hybrid {
                threshold,
                replicas,
                ..
            } => {
                let len = world.expected.borrow().get(key).map_or(0, |w| w.len);
                if len > threshold {
                    Layout::Sharded
                } else {
                    Layout::Copies(replicas)
                }
            }
            Scheme::NoRep => Layout::Unprotected,
        }
    }

    /// Whether slot `slot` of the group stores anything (a small hybrid
    /// value only occupies its first `replicas` slots).
    fn holds(self, slot: usize) -> bool {
        !matches!(self, Layout::Copies(n) if slot >= n)
    }
}

/// Live state of one in-progress online repair, owned by
/// [`World::repair`]. The queue drains front-first; promotion moves a
/// degraded key to the front.
#[derive(Debug)]
pub(crate) struct OnlineRepair {
    /// Whether this rebuilds a replaced server (`false` = the queue holds
    /// only migration work from a membership change).
    rebuild: bool,
    /// Tasks awaiting rebuild/migration, in background-scan order
    /// (sorted) except where promotion reordered them.
    queue: VecDeque<RepairTask>,
    /// Keys currently being rebuilt.
    in_flight: usize,
    /// Concurrency cap.
    window: usize,
    /// Token-bucket rate in bytes per simulated second (`None` =
    /// unthrottled).
    bandwidth: Option<u64>,
    /// Earliest instant the pacer will release the next key.
    next_free: SimTime,
    /// Accumulating outcome.
    report: RepairReport,
    /// When the repair started.
    started: SimTime,
}

impl OnlineRepair {
    fn new(rebuild: bool, queue: VecDeque<RepairTask>, cfg: RepairConfig, now: SimTime) -> Self {
        OnlineRepair {
            rebuild,
            queue,
            in_flight: 0,
            window: cfg.window,
            bandwidth: cfg.bandwidth,
            next_free: now,
            report: RepairReport::default(),
            started: now,
        }
    }
}

/// Replaces `failed` with an empty node and starts rebuilding every lost
/// chunk/replica in the background, paced by [`RepairConfig`] from the
/// world's [`EngineConfig`](crate::EngineConfig). Returns immediately;
/// the rebuild interleaves with whatever else the simulation runs (e.g. a
/// foreground workload admitted via
/// [`enqueue_workload`](crate::driver::enqueue_workload)). Query
/// [`World::repair_active`] / [`World::last_repair_report`] for progress
/// and the final report.
///
/// # Panics
///
/// Panics if `failed` is out of range or a repair is already in progress.
pub fn start_repair(world: &Rc<World>, sim: &mut Simulation, failed: usize) {
    start_repair_with(world, sim, failed, world.cfg.repair);
}

fn start_repair_with(world: &Rc<World>, sim: &mut Simulation, failed: usize, cfg: RepairConfig) {
    assert!(
        world.repair.borrow().is_none(),
        "a repair is already in progress"
    );
    // The operator swapped the dead node for an empty one and announced it
    // in the server list (every client's view sees it alive again).
    world.cluster.servers[failed]
        .borrow_mut()
        .store_mut()
        .flush_all();
    world
        .cluster
        .net
        .borrow_mut()
        .revive(world.cluster.server_node(failed));
    for c in 0..world.cfg.cluster.clients {
        world.mark_alive(c, failed);
    }

    // Every written key whose placement includes the replaced server has
    // lost redundancy in the slot it held. Sorted: HashMap iteration order
    // is per-instance random, and the queue order is observable (trace
    // determinism, and the promotion test measures against the scan
    // position).
    let mut lost: Vec<(Arc<str>, usize)> = world
        .expected
        .borrow()
        .keys()
        .filter_map(|k| {
            Some((
                k.clone(),
                world.targets(k).iter().position(|&s| s == failed)?,
            ))
        })
        .collect();
    lost.sort();

    {
        let mut m = world.metrics.borrow_mut();
        m.repair_queue_depth_hwm = m.repair_queue_depth_hwm.max(lost.len() as u64);
    }
    let queue = lost
        .into_iter()
        .map(|(key, slot)| RepairTask::Rebuild {
            key,
            slot,
            to: failed,
        })
        .collect();
    *world.repair.borrow_mut() = Some(OnlineRepair::new(true, queue, cfg, sim.now()));
    pump_repair(world, sim);
}

/// Offline repair: replaces `failed` and rebuilds with an infinite
/// throttle and no foreground load, running the simulation to quiescence.
/// A thin wrapper over the online engine.
///
/// # Panics
///
/// Panics if `failed` is out of range.
pub fn repair_server(world: &Rc<World>, sim: &mut Simulation, failed: usize) -> RepairReport {
    start_repair_with(
        world,
        sim,
        failed,
        RepairConfig {
            window: world.window(),
            bandwidth: None,
        },
    );
    sim.run();
    world
        .last_repair_report()
        .expect("repair ran to completion")
}

/// A degraded GET (one that had to decode) touched `key`: move it to the
/// front of the repair queue so it exits degraded mode before the
/// background scan would reach it. No-op when no repair is active, the
/// key is not queued (already rebuilt or in flight), or it is next
/// anyway.
pub(crate) fn note_degraded_read(world: &World, at: SimTime, key: &Arc<str>) {
    let depth = {
        let mut slot = world.repair.borrow_mut();
        let Some(s) = slot.as_mut() else { return };
        let Some(pos) = s.queue.iter().position(|t| t.key() == key) else {
            return;
        };
        if pos == 0 {
            return;
        }
        let k = s.queue.remove(pos).expect("position just found");
        s.queue.push_front(k);
        pos as u64
    };
    world.note(
        at,
        TraceEvent::RepairKeyPromoted {
            node: world.cluster.client_node(0),
            depth,
        },
    );
}

/// Estimated traffic of one task (source reads plus the destination
/// write) — the token-bucket debit, and the `bytes` payload of its
/// `repair_started` event. A chunk rebuild reads `k` survivors (the
/// repair amplification); a migration is priced as its 1x direct copy.
fn task_cost(world: &World, task: &RepairTask) -> u64 {
    let key = task.key();
    let len = world.expected.borrow().get(key).map_or(0, |w| w.len);
    let (slot, rebuild) = match *task {
        RepairTask::Rebuild { slot, .. } => (slot, true),
        RepairTask::Migrate { slot, .. } => (slot, false),
    };
    match Layout::of(world, key) {
        Layout::Sharded => {
            let (k, ..) = world.scheme.erasure_params().expect("erasure scheme");
            let reads = if rebuild { k as u64 } else { 1 };
            world.shard_len(len) * (reads + 1)
        }
        // The replaced server held no copy, or held the only one.
        Layout::Copies(n) if rebuild && slot >= n => 0,
        Layout::Unprotected if rebuild => 0,
        Layout::Copies(_) | Layout::Unprotected => len * 2,
    }
}

/// What the pump decided to do with the queue under the state lock.
enum PumpStep {
    /// Window full, queue empty with work in flight, or no repair active.
    Idle,
    /// The queue drained: the repair is complete.
    Finished {
        keys: u64,
        report: RepairReport,
        rebuild: bool,
    },
    /// Release one task, after `wait` if the pacer held it back.
    Issue {
        task: RepairTask,
        cost: u64,
        wait: SimDuration,
    },
}

/// Issues queued keys until the window is full, pacing each by the
/// bandwidth throttle; finalizes the repair when the queue drains.
pub(crate) fn pump_repair(world: &Rc<World>, sim: &mut Simulation) {
    loop {
        let step = {
            let mut slot = world.repair.borrow_mut();
            let Some(s) = slot.as_mut() else {
                return;
            };
            if s.queue.is_empty() {
                if s.in_flight > 0 {
                    PumpStep::Idle
                } else {
                    let mut s = slot.take().expect("checked some");
                    s.report.elapsed = sim.now().since(s.started);
                    PumpStep::Finished {
                        keys: s.report.keys_repaired + s.report.keys_lost,
                        report: s.report,
                        rebuild: s.rebuild,
                    }
                }
            } else if s.in_flight >= s.window {
                PumpStep::Idle
            } else {
                let task = s.queue.pop_front().expect("checked non-empty");
                // world.repair and world.expected are distinct cells, so
                // the cost estimate can read the catalogue here.
                let cost = task_cost(world, &task);
                let now = sim.now();
                let earliest = if s.next_free > now { s.next_free } else { now };
                if let Some(rate) = s.bandwidth {
                    // Debit the bucket: the next key is released only
                    // after this key's traffic has "drained" at `rate`.
                    let ns = (cost as u128) * 1_000_000_000 / (rate as u128);
                    s.next_free = earliest + SimDuration::from_nanos(ns as u64);
                }
                s.in_flight += 1;
                PumpStep::Issue {
                    task,
                    cost,
                    wait: earliest.since(now),
                }
            }
        };
        match step {
            PumpStep::Idle => return,
            PumpStep::Finished {
                keys,
                report,
                rebuild,
            } => {
                world.last_repair.set(Some(report));
                let node = world.cluster.client_node(0);
                let event = if rebuild {
                    TraceEvent::RepairDone {
                        node,
                        keys,
                        elapsed: report.elapsed,
                    }
                } else {
                    TraceEvent::MigrationDone {
                        node,
                        keys,
                        elapsed: report.elapsed,
                    }
                };
                world.note(sim.now(), event);
                return;
            }
            PumpStep::Issue { task, cost, wait } => {
                if wait > SimDuration::ZERO {
                    world.note(
                        sim.now(),
                        TraceEvent::RepairThrottled {
                            node: world.cluster.client_node(0),
                            waited: wait,
                        },
                    );
                    let world2 = world.clone();
                    sim.schedule_in(wait, move |sim| {
                        issue_repair_task(&world2, sim, task, cost);
                    });
                } else {
                    issue_repair_task(world, sim, task, cost);
                }
            }
        }
    }
}

/// How one key's rebuild attempt ended.
enum RepairOutcome {
    /// The lost chunk/replica is back on the replacement.
    Repaired,
    /// Insufficient survivors, an undecodable stripe, or nothing
    /// redundant existed: final.
    Lost,
    /// Admission control refused a survivor read or the replacement
    /// write. The servers are overloaded, not failed — the key goes back
    /// to the queue and the pacer retries it once pressure eases.
    Shed,
}

type RepairDone = Box<dyn FnOnce(&mut Simulation, RepairOutcome, u64, u64)>;

/// Starts one task with a completion that books the outcome and re-pumps
/// the queue.
fn issue_repair_task(world: &Rc<World>, sim: &mut Simulation, task: RepairTask, cost: u64) {
    world.note(
        sim.now(),
        TraceEvent::RepairStarted {
            node: world.cluster.client_node(0),
            bytes: cost,
        },
    );
    let span = world
        .trace
        .span_begin_op(eckv_simnet::SpanOpClass::Repair, sim.now());
    let world2 = world.clone();
    let task2 = task.clone();
    let migrating = matches!(task, RepairTask::Migrate { .. });
    let done: RepairDone = Box::new(
        move |sim: &mut Simulation, outcome: RepairOutcome, read: u64, written: u64| {
            if let Some(op) = span {
                world2
                    .trace
                    .span_end_op(op, sim.now(), matches!(outcome, RepairOutcome::Repaired));
            }
            {
                let mut slot = world2.repair.borrow_mut();
                let s = slot.as_mut().expect("repair active while keys in flight");
                match outcome {
                    RepairOutcome::Repaired => s.report.keys_repaired += 1,
                    RepairOutcome::Lost => s.report.keys_lost += 1,
                    RepairOutcome::Shed => s.queue.push_back(task2),
                }
                s.report.bytes_read += read;
                s.report.bytes_written += written;
                s.in_flight -= 1;
            }
            {
                let mut m = world2.metrics.borrow_mut();
                m.repair_bytes += read + written;
                if migrating {
                    m.migrated_bytes += written;
                }
            }
            pump_repair(&world2, sim);
        },
    );
    let prev = world.trace.set_span_scope(span);
    run_task(world, sim, task, done);
    world.trace.set_span_scope(prev);
}

/// Where a task's bytes land: `store_key` on server `to`, retiring the
/// plain copy `stale` there in the same request.
#[derive(Clone)]
struct Dest {
    to: usize,
    store_key: StoreKey,
    stale: Option<StoreKey>,
}

/// What a copy falls back to when no source served the value and none
/// shed.
type OnMiss = Box<dyn FnOnce(&mut Simulation, RepairDone)>;

/// The pipeline every task runs: fetch from the survivors, decode if
/// sharded, write to the destination. A rebuild and a migration differ
/// only in the source list they hand the fetch and in the destination.
fn run_task(world: &Rc<World>, sim: &mut Simulation, task: RepairTask, done: RepairDone) {
    let (key, slot, to, from) = match task {
        RepairTask::Rebuild { key, slot, to } => (key, slot, to, None),
        RepairTask::Migrate {
            key,
            slot,
            from,
            to,
        } => (key, slot, to, Some(from)),
    };
    let layout = Layout::of(world, &key);
    if !layout.holds(slot) {
        // The replaced server held no copy of this small hybrid value.
        done(sim, RepairOutcome::Repaired, 0, 0);
        return;
    }
    let alive = |s: &usize| world.cluster.is_server_alive(*s);
    let hedge_node = world.cluster.client_node(0);
    if let Layout::Sharded = layout {
        // A migration copies the chunk verbatim from its vacated holder:
        // one source, so nothing to hedge against. A rebuild, or a source
        // that is dead or empty, reconstructs from `k` survivors instead.
        let dest = Dest {
            to,
            store_key: StoreKey::chunk(key.clone(), slot),
            stale: (from.is_some() && world.scheme.is_replica_slot(slot))
                .then(|| StoreKey::from(&key)),
        };
        let spec = FanOutSpec {
            candidates: from.filter(alive).map(|f| (slot, f)).into_iter().collect(),
            pinned: 0,
            policy: QuorumPolicy::single(),
            liveness: Liveness::PreFiltered,
            hedge_node,
        };
        let io = shard_read_io(world, &key);
        let (world2, dest2) = (world.clone(), dest.clone());
        let on_miss: OnMiss =
            Box::new(move |sim, done| reconstruct_to(&world2, sim, key, slot, dest2, done));
        copy_to(world, sim, spec, io, dest, on_miss, done);
        return;
    }
    // A full copy: any live holder of one serves it — the vacated holder
    // first, then the key's other copy holders.
    let others: Vec<usize> = match layout {
        Layout::Copies(n) => world
            .try_targets(&key)
            .unwrap_or_default()
            .into_iter()
            .take(n)
            .filter(|&t| t != to && Some(t) != from)
            .collect(),
        _ => Vec::new(),
    };
    let spec = FanOutSpec {
        candidates: from
            .into_iter()
            .chain(others)
            .filter(alive)
            .enumerate()
            .collect(),
        pinned: 0,
        policy: QuorumPolicy::read(1),
        liveness: Liveness::PreFiltered,
        hedge_node,
    };
    // A rebuild spreads a mass repair's reads by key hash; a migration
    // keeps the vacated holder first so the common case stays its 1x copy.
    let spec = match from {
        None => spec.rotated_by(fnv1a_64(key.as_bytes())),
        Some(_) => spec,
    };
    let store_key = StoreKey::from(key);
    let key2 = store_key.clone();
    let io = chunk_io(
        world,
        Origin::Client(0),
        None,
        rpc::RpcPriority::Repair,
        move |_| rpc::Request::Get { key: key2.clone() },
    );
    let dest = Dest {
        to,
        store_key,
        stale: None,
    };
    let lost: OnMiss = Box::new(|sim, done| done(sim, RepairOutcome::Lost, 0, 0));
    copy_to(world, sim, spec, io, dest, lost, done);
}

/// Repair's chunk reads of `key`: issued from client 0's thread, at
/// repair priority, leaving every failure view alone.
fn shard_read_io(world: &Rc<World>, key: &Arc<str>) -> ShardIo {
    let key = key.clone();
    chunk_io(
        world,
        Origin::Client(0),
        None,
        rpc::RpcPriority::Repair,
        move |slot| rpc::Request::Get {
            key: StoreKey::chunk(key.clone(), slot),
        },
    )
}

/// Fetches one stored value — a full copy, or one chunk verbatim —
/// through the caller's fan-out and writes it to `dest`. With no live
/// candidate, or when every candidate came back dead or empty, `on_miss`
/// takes over.
fn copy_to(
    world: &Rc<World>,
    sim: &mut Simulation,
    spec: FanOutSpec,
    io: ShardIo,
    dest: Dest,
    on_miss: OnMiss,
    done: RepairDone,
) {
    if spec.candidates.is_empty() {
        on_miss(sim, done);
        return;
    }
    let world2 = world.clone();
    let now = sim.now();
    let launched = FanOut::launch(
        world,
        sim,
        spec,
        now,
        io,
        Box::new(move |sim, s: Settled| {
            let shed = s.shed;
            let Some((_, value)) = s.good.into_iter().next() else {
                if shed > 0 {
                    done(sim, RepairOutcome::Shed, 0, 0);
                } else {
                    on_miss(sim, done);
                }
                return;
            };
            let read = value.len();
            let at = sim.now();
            write_to_new_holder(&world2, sim, at, value, dest, read, done);
        }),
    );
    debug_assert!(launched, "a live source existed at the pre-check");
}

/// Rebuilds chunk `slot` of `key` and writes it to `dest`: fetch `k`
/// survivors of its group through the shared fan-out core (rotated per
/// key, topped up from untried survivors the way the GET path late-binds,
/// hedged against stragglers), decode on the client CPU, write.
fn reconstruct_to(
    world: &Rc<World>,
    sim: &mut Simulation,
    key: Arc<str>,
    slot: usize,
    dest: Dest,
    done: RepairDone,
) {
    let (k, ..) = world.scheme.erasure_params().expect("erasure scheme");
    let Ok(targets) = world.try_targets(&key) else {
        // The membership dropped below the scheme width: no valid
        // placement exists to rebuild into.
        done(sim, RepairOutcome::Lost, 0, 0);
        return;
    };
    // Survivors: every other chunk holder that is alive (judged by ground
    // truth at scan time — repair does not consult or update client
    // views).
    let survivors: Vec<(usize, usize)> = targets
        .into_iter()
        .enumerate()
        .filter(|&(i, s)| i != slot && world.cluster.is_server_alive(s))
        .collect();
    if survivors.len() < k {
        done(sim, RepairOutcome::Lost, 0, 0);
        return;
    }
    let client_node = world.cluster.client_node(0);
    // Rotate the survivor set by key hash: always reading the lowest
    // indices would hammer the same k holders across a mass repair.
    let spec = FanOutSpec {
        candidates: survivors,
        pinned: 0,
        policy: QuorumPolicy::read(k),
        liveness: Liveness::PreFiltered,
        hedge_node: client_node,
    }
    .rotated_by(fnv1a_64(key.as_bytes()));
    let io = shard_read_io(world, &key);
    let world2 = world.clone();
    let now = sim.now();
    let launched = FanOut::launch(
        world,
        sim,
        spec,
        now,
        io,
        Box::new(move |sim, s: Settled| {
            let read: u64 = s.good.iter().map(|(_, c)| c.len()).sum();
            if s.good.len() < k {
                let outcome = if s.shed > 0 {
                    RepairOutcome::Shed
                } else {
                    RepairOutcome::Lost
                };
                done(sim, outcome, read, 0);
                return;
            }
            let chunks: Vec<(usize, Payload)> = s.good.into_iter().take(k).collect();
            let expected = world2.expected.borrow().get(&key).copied();
            let Some(w) = expected else {
                done(sim, RepairOutcome::Lost, read, 0);
                return;
            };
            // Survivor chunks that disagree in shape (a corrupt or
            // truncated one) cannot be decoded: the key is lost.
            let Some(rebuilt) = rebuild_shard(&world2, &chunks, slot, w.len, w.digest) else {
                done(sim, RepairOutcome::Lost, read, 0);
                return;
            };
            let t_dec = world2
                .decode_time_at(client_node, w.len, 1)
                .max(world2.encode_time_at(client_node, w.len) / 2);
            let dec_done = world2.reserve_client_cpu(0, s.last, t_dec);
            trace_codec(
                &world2.trace,
                client_node,
                CodecOp::Decode,
                s.last,
                t_dec,
                w.len,
            );
            write_to_new_holder(&world2, sim, dec_done, rebuilt, dest, read, done);
        }),
    );
    debug_assert!(launched, "k live survivors existed at the pre-check");
}

/// Reconstructs the payload of shard `lost_shard` from the fetched
/// chunks, or `None` when they cannot be decoded.
fn rebuild_shard(
    world: &World,
    chunks: &[(usize, Payload)],
    lost_shard: usize,
    value_len: u64,
    value_digest: u64,
) -> Option<Payload> {
    let all_inline = chunks.iter().all(|(_, c)| matches!(c, Payload::Inline(_)));
    if !all_inline {
        let parent = Payload::Synthetic {
            len: value_len,
            digest: value_digest,
        };
        return Some(parent.shard(lost_shard, world.shard_len(value_len)));
    }
    let codec = world.striper.as_ref().expect("erasure scheme").codec();
    let mut shards: Vec<Option<&[u8]>> = vec![None; codec.total_shards()];
    for (idx, chunk) in chunks {
        shards[*idx] = chunk.as_bytes().map(|b| &b[..]);
    }
    let mut rebuilt = codec.reconstruct(&shards, &[lost_shard]).ok()?;
    rebuilt.pop().map(Payload::inline)
}

/// The one write tail: stores `value` at `dest` with the same
/// observability for every task (one `repair_shard` event carrying the
/// bytes read and written), so migration and repair traffic compare
/// directly in traces.
fn write_to_new_holder(
    world: &Rc<World>,
    sim: &mut Simulation,
    at: SimTime,
    value: Payload,
    dest: Dest,
    read: u64,
    done: RepairDone,
) {
    let client_node = world.cluster.client_node(0);
    let written = value.len();
    let to = dest.to;
    let world2 = world.clone();
    let request = rpc::Request::Set {
        key: dest.store_key,
        payload: value,
        stale: dest.stale,
    };
    rpc::call(
        &world.cluster.net,
        &world.cluster.servers[to],
        sim,
        at,
        client_node,
        request,
        None,
        rpc::RpcPriority::Repair,
        move |sim, reply| match reply {
            Ok(r) if r.hit => {
                let node = world2.cluster.server_node(to);
                world2.note(
                    sim.now(),
                    TraceEvent::RepairShard {
                        node,
                        bytes: written,
                        read,
                        reader: client_node,
                    },
                );
                done(sim, RepairOutcome::Repaired, read, written);
            }
            Err(err @ rpc::RpcError::Shed(_)) => {
                world2.note_rpc_error(err, None, client_node, to, rpc::RpcPriority::Repair);
                done(sim, RepairOutcome::Shed, read, 0);
            }
            // The destination cannot hold the value at all.
            Ok(_) | Err(rpc::RpcError::ServerDead(_)) => {
                done(sim, RepairOutcome::Lost, read, 0);
            }
        },
    );
}

/// Adds the next provisioned spare to the cluster: claims its ring
/// points, reassigns O(1/N) of the virtual shards to it, and enqueues
/// every affected key's moved chunk on the repair engine. Returns the new
/// server's index, or `None` when every provisioned slot is already a
/// member (raise the bound with
/// [`ClusterConfig::max_servers`](eckv_store::ClusterConfig::max_servers)).
///
/// # Panics
///
/// Panics if a rebuild ([`start_repair`]) is active: reconfiguring
/// placement mid-rebuild would reroute the rebuild's own scan.
pub fn join_server(world: &Rc<World>, sim: &mut Simulation) -> Option<usize> {
    let (id, moves) = world.cluster.add_server()?;
    // The joiner is a live node every client may now address.
    for c in 0..world.cfg.cluster.clients {
        world.mark_alive(c, id);
    }
    apply_membership_change(world, sim, moves);
    Some(id)
}

/// Administratively removes `server` from placement: every vshard slot it
/// held moves to another member, and the evacuating chunks are enqueued
/// on the repair engine. The drained server keeps serving as a migration
/// source until the queue drains.
///
/// # Panics
///
/// Panics if `server` is not an active member, or if a rebuild
/// ([`start_repair`]) is active.
pub fn drain_server(world: &Rc<World>, sim: &mut Simulation, server: usize) {
    let moves = world.cluster.drain_server(server);
    apply_membership_change(world, sim, moves);
}

/// Turns a batch of vshard reassignments into migration work: accounts
/// the moves, emits their trace events, scans the catalogue for keys in
/// moved vshards, and enqueues one [`RepairTask::Migrate`] per moved
/// chunk — merging into an active migration (a second membership change
/// extends the queue) or starting the engine fresh under the world's
/// [`RepairConfig`].
fn apply_membership_change(
    world: &Rc<World>,
    sim: &mut Simulation,
    moves: Vec<eckv_store::VShardMove>,
) {
    assert!(
        !matches!(&*world.repair.borrow(), Some(s) if s.rebuild),
        "cannot reconfigure membership during an active rebuild"
    );
    if moves.is_empty() {
        return;
    }
    for m in &moves {
        world.note(
            sim.now(),
            TraceEvent::VshardReassigned {
                node: world.cluster.server_node(m.to),
                from: world.cluster.server_node(m.from),
                vshard: m.vshard as u64,
            },
        );
    }

    // Only moves inside the scheme's group width carry chunks; the rest
    // reshuffle standby slots.
    let width = world.scheme.servers_per_key();
    let by_vshard: HashMap<usize, eckv_store::VShardMove> = moves
        .iter()
        .filter(|m| m.slot < width)
        .map(|m| (m.vshard, *m))
        .collect();
    // Sorted scan, same as a rebuild: queue order is observable.
    let mut keys: Vec<Arc<str>> = world.expected.borrow().keys().cloned().collect();
    keys.sort();
    let tasks: Vec<RepairTask> = keys
        .into_iter()
        .filter_map(|key| {
            let m = by_vshard.get(&world.cluster.vshard_of(key.as_bytes()))?;
            Layout::of(world, &key)
                .holds(m.slot)
                .then_some(RepairTask::Migrate {
                    key,
                    slot: m.slot,
                    from: m.from,
                    to: m.to,
                })
        })
        .collect();
    world.note(
        sim.now(),
        TraceEvent::MigrationStarted {
            node: world.cluster.client_node(0),
            keys: tasks.len() as u64,
        },
    );
    {
        let mut slot = world.repair.borrow_mut();
        let depth = match slot.as_mut() {
            Some(s) => {
                // A change landed while an earlier migration is still
                // draining: extend its queue.
                s.queue.extend(tasks);
                s.queue.len() + s.in_flight
            }
            None => {
                let depth = tasks.len();
                let queue = tasks.into();
                *slot = Some(OnlineRepair::new(false, queue, world.cfg.repair, sim.now()));
                depth
            }
        };
        let mut m = world.metrics.borrow_mut();
        m.repair_queue_depth_hwm = m.repair_queue_depth_hwm.max(depth as u64);
    }
    pump_repair(world, sim);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_workload;
    use crate::ops::Op;
    use crate::world::EngineConfig;
    use eckv_simnet::ClusterProfile;
    use eckv_store::ClusterConfig;

    fn loaded_world(scheme: Scheme) -> (Rc<World>, Simulation) {
        let world = World::new(EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
            scheme,
        ));
        let mut sim = Simulation::new();
        let value: Vec<u8> = (0..4000u32).map(|i| (i * 11 % 256) as u8).collect();
        let writes: Vec<Op> = (0..30)
            .map(|i| Op::set_inline(format!("r{i}"), value.clone()))
            .collect();
        run_workload(&world, &mut sim, vec![writes]);
        assert_eq!(world.metrics.borrow().errors, 0);
        (world, sim)
    }

    #[test]
    fn erasure_repair_restores_full_tolerance() {
        let (world, mut sim) = loaded_world(Scheme::era_ce_cd(3, 2));
        world.cluster.kill_server(2);
        let report = repair_server(&world, &mut sim, 2);
        assert!(report.keys_repaired > 0);
        assert_eq!(report.keys_lost, 0);
        // Repair amplification: erasure reads k chunks per rebuilt chunk.
        assert!(report.bytes_read > report.bytes_written * 2);

        // The cluster must again tolerate the FULL failure budget,
        // including losing the repaired node's peers.
        world.cluster.kill_server(0);
        world.cluster.kill_server(1);
        world.reset_metrics();
        let reads: Vec<Op> = (0..30).map(|i| Op::get(format!("r{i}"))).collect();
        run_workload(&world, &mut sim, vec![reads]);
        let m = world.metrics.borrow();
        assert_eq!(
            m.errors, 0,
            "repaired cluster must survive 2 fresh failures"
        );
        assert_eq!(m.integrity_errors, 0);
    }

    #[test]
    fn replication_repair_reads_less_than_erasure() {
        let (era_world, mut era_sim) = loaded_world(Scheme::era_ce_cd(3, 2));
        era_world.cluster.kill_server(1);
        let era = repair_server(&era_world, &mut era_sim, 1);

        let (rep_world, mut rep_sim) = loaded_world(Scheme::AsyncRep { replicas: 3 });
        rep_world.cluster.kill_server(1);
        let rep = repair_server(&rep_world, &mut rep_sim, 1);

        assert!(era.keys_repaired > 0 && rep.keys_repaired > 0);
        // Per repaired byte, erasure reads ~k times more than replication.
        let era_amp = era.bytes_read as f64 / era.bytes_written as f64;
        let rep_amp = rep.bytes_read as f64 / rep.bytes_written as f64;
        assert!(
            era_amp > rep_amp * 1.8,
            "era amplification {era_amp:.2} vs rep {rep_amp:.2}"
        );
    }

    #[test]
    fn norep_repair_reports_loss() {
        let (world, mut sim) = loaded_world(Scheme::NoRep);
        world.cluster.kill_server(3);
        let report = repair_server(&world, &mut sim, 3);
        assert_eq!(report.keys_repaired, 0);
        assert!(report.keys_lost > 0, "unreplicated data is unrecoverable");
    }

    #[test]
    fn repair_with_too_many_failures_reports_loss() {
        let (world, mut sim) = loaded_world(Scheme::era_ce_cd(3, 2));
        world.cluster.kill_server(0);
        world.cluster.kill_server(1);
        world.cluster.kill_server(2);
        // Replace only server 0: keys needing chunks from 1 and 2 cannot
        // gather k survivors.
        let report = repair_server(&world, &mut sim, 0);
        assert!(report.keys_lost > 0);
    }

    #[test]
    fn repair_tops_up_from_untried_survivors() {
        // Empty one *survivor's* store after load: the first fetch round
        // gets a None chunk from it, and only the top-up round (sat. of
        // the GET path's late binding) can still gather k chunks. With
        // RS(3, 2) and one wiped survivor, 3 of the 4 remaining holders
        // still have chunks, so every key must repair.
        let (world, mut sim) = loaded_world(Scheme::era_ce_cd(3, 2));
        world.cluster.kill_server(2);
        world.cluster.servers[4]
            .borrow_mut()
            .store_mut()
            .flush_all();
        let report = repair_server(&world, &mut sim, 2);
        assert!(report.keys_repaired > 0);
        assert_eq!(
            report.keys_lost, 0,
            "an empty survivor must be topped up, not doom the key"
        );
    }

    #[test]
    fn repair_reads_spread_across_survivors() {
        // The survivor rotation is keyed on the key hash: across the
        // repaired key population the first read must start at more than
        // one survivor position (no hotspot on the lowest-indexed k
        // holders), and the rotated repair must still succeed end to end.
        let (world, mut sim) = loaded_world(Scheme::era_ce_cd(3, 2));
        world.cluster.kill_server(2);
        let mut rotations = std::collections::BTreeSet::new();
        for i in 0..30 {
            let key: Arc<str> = format!("r{i}").into();
            let targets = world.targets(&key);
            if !targets.contains(&2) {
                continue;
            }
            let survivors = (targets.len() - 1) as u64;
            rotations.insert((fnv1a_64(key.as_bytes()) % survivors) as usize);
        }
        assert!(
            rotations.len() > 1,
            "rotation must vary across keys: {rotations:?}"
        );
        let report = repair_server(&world, &mut sim, 2);
        assert!(report.keys_repaired > 0);
        assert_eq!(report.keys_lost, 0);
    }
}
