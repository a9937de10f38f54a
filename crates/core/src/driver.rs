//! The ARPE driver: windowed, non-blocking execution of client workloads.
//!
//! Each client keeps up to [`World::window`] operations in flight
//! (`memcached_iset`/`iget` semantics); a completed operation immediately
//! admits the next one (`memcached_wait` on the completion window). With a
//! window of 1 this degenerates to the blocking API.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use eckv_simnet::{OpClass, SimTime, Simulation, SpanOpClass, SpanPhase, TraceEvent};

use crate::flow::OpResult;
use crate::ops::{Op, OpKind};
use crate::world::World;
use crate::{get_path, set_path};

fn op_class(kind: OpKind) -> OpClass {
    match kind {
        OpKind::Set => OpClass::Set,
        OpKind::Get => OpClass::Get,
    }
}

fn span_class(kind: OpKind) -> SpanOpClass {
    match kind {
        OpKind::Set => SpanOpClass::Set,
        OpKind::Get => SpanOpClass::Get,
    }
}

struct ClientState {
    queue: VecDeque<Op>,
    in_flight: usize,
}

/// Runs every client's operation stream to completion and returns when the
/// simulation is quiescent. Results accumulate in [`World::metrics`].
///
/// `per_client_ops[i]` is the stream client `i` executes; clients beyond
/// the cluster's configured client count are rejected.
///
/// # Panics
///
/// Panics if more streams are supplied than the cluster has clients.
pub fn run_workload(world: &Rc<World>, sim: &mut Simulation, per_client_ops: Vec<Vec<Op>>) {
    enqueue_workload(world, sim, per_client_ops);
    sim.run();
}

/// Admits every client's stream without running the simulation: the
/// caller co-schedules other activity against the same event loop (e.g.
/// an online repair started with [`crate::repair::start_repair`]) and
/// then drives `sim` itself — `sim.run()` to quiescence, or stepwise.
///
/// # Panics
///
/// Panics if more streams are supplied than the cluster has clients.
pub fn enqueue_workload(world: &Rc<World>, sim: &mut Simulation, per_client_ops: Vec<Vec<Op>>) {
    assert!(
        per_client_ops.len() <= world.cfg.cluster.clients,
        "{} op streams for {} clients",
        per_client_ops.len(),
        world.cfg.cluster.clients
    );
    for (client, ops) in per_client_ops.into_iter().enumerate() {
        enqueue_client(world, sim, client, ops);
    }
}

/// Schedules a scale-out event: at `at` (relative to now), the next
/// provisioned spare joins the cluster via
/// [`join_server`](crate::repair::join_server) while whatever foreground
/// load is enqueued keeps running. A no-op at fire time when every
/// provisioned slot is already a member.
pub fn schedule_join(world: &Rc<World>, sim: &mut Simulation, at: eckv_simnet::SimDuration) {
    let world = world.clone();
    sim.schedule_in(at, move |sim| {
        crate::repair::join_server(&world, sim);
    });
}

/// Schedules a scale-in event: at `at` (relative to now), `server` is
/// drained via [`drain_server`](crate::repair::drain_server) while
/// whatever foreground load is enqueued keeps running.
pub fn schedule_drain(
    world: &Rc<World>,
    sim: &mut Simulation,
    at: eckv_simnet::SimDuration,
    server: usize,
) {
    let world = world.clone();
    sim.schedule_in(at, move |sim| {
        crate::repair::drain_server(&world, sim, server);
    });
}

/// Admits a single client's stream, leaving every other client alone.
/// Scenarios that stagger client arrival (a flash-crowd ramp) schedule
/// one call per client at its arrival instant instead of admitting the
/// whole fleet at once through [`enqueue_workload`].
///
/// # Panics
///
/// Panics if `client` is outside the cluster's configured client count.
pub fn enqueue_client(world: &Rc<World>, sim: &mut Simulation, client: usize, ops: Vec<Op>) {
    assert!(
        client < world.cfg.cluster.clients,
        "client {client} of {}",
        world.cfg.cluster.clients
    );
    let state = Rc::new(RefCell::new(ClientState {
        queue: VecDeque::from(ops),
        in_flight: 0,
    }));
    pump(world, sim, client, &state);
}

/// Admits operations for `client` until the window is full or the stream
/// is exhausted.
fn pump(world: &Rc<World>, sim: &mut Simulation, client: usize, state: &Rc<RefCell<ClientState>>) {
    // On a dead-server discovery an operation is transparently retried
    // against the updated failure view, up to once per server.
    let retries_left = world.cfg.cluster.servers;
    loop {
        let op = {
            let mut s = state.borrow_mut();
            if s.in_flight >= world.window() || s.queue.is_empty() {
                return;
            }
            s.in_flight += 1;
            s.queue.pop_front().expect("checked non-empty")
        };
        world.note(
            sim.now(),
            TraceEvent::OpAdmitted {
                client: world.cluster.client_node(client),
                op: op_class(op.kind()),
            },
        );
        let think = world.client_think.get();
        if think > eckv_simnet::SimDuration::ZERO {
            // The application produces/consumes the payload before the KV
            // operation is issued; the op's own CPU work queues behind it.
            world.reserve_client_cpu(client, sim.now(), think);
        }
        // The window slot frees when the whole operation (including
        // transparent retries, and every sub-get of a bulk get) finishes.
        let world_slot = world.clone();
        let state_slot = state.clone();
        let free_slot: Rc<dyn Fn(&mut Simulation)> = Rc::new(move |sim: &mut Simulation| {
            state_slot.borrow_mut().in_flight -= 1;
            pump(&world_slot, sim, client, &state_slot);
        });
        let admitted_at = sim.now();
        match op {
            Op::MGet { keys } => {
                // One slot, many overlapped sub-gets (`memcached_mget`);
                // each sub-get is its own span tree.
                let remaining = Rc::new(RefCell::new(keys.len()));
                for key in keys {
                    let remaining = remaining.clone();
                    let free_slot = free_slot.clone();
                    let span = world.trace.span_begin_op(SpanOpClass::Get, admitted_at);
                    dispatch_with_retry(
                        world,
                        sim,
                        client,
                        Op::Get { key },
                        Attempt::first(admitted_at, retries_left, span),
                        Box::new(move |sim| {
                            *remaining.borrow_mut() -= 1;
                            if *remaining.borrow() == 0 {
                                free_slot(sim);
                            }
                        }),
                    );
                }
            }
            single => {
                let span = world
                    .trace
                    .span_begin_op(span_class(single.kind()), admitted_at);
                dispatch_with_retry(
                    world,
                    sim,
                    client,
                    single,
                    Attempt::first(admitted_at, retries_left, span),
                    Box::new(move |sim| free_slot(sim)),
                )
            }
        }
    }
}

/// Retry bookkeeping for one logical operation across its re-dispatches.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    /// When the logical operation was admitted (deadline anchor).
    admitted_at: SimTime,
    /// Zero-based attempt index (drives the exponential backoff).
    index: u32,
    /// Re-dispatches still allowed.
    retries_left: usize,
    /// Span-tree id of the logical operation (one tree covers every
    /// attempt), when span tracing is on.
    span: Option<u64>,
}

impl Attempt {
    fn first(admitted_at: SimTime, retries_left: usize, span: Option<u64>) -> Self {
        Attempt {
            admitted_at,
            index: 0,
            retries_left,
            span,
        }
    }
}

/// Base delay of the exponential backoff between transparent retries
/// (doubles per attempt).
const RETRY_BACKOFF: eckv_simnet::SimDuration = eckv_simnet::SimDuration::from_micros(2);

/// Doublings after which the exponential backoff stops growing.
const MAX_BACKOFF_DOUBLINGS: u32 = 10;

/// Exponential backoff base for the `index`-th retry: `base << index`,
/// clamped at `MAX_BACKOFF_DOUBLINGS` doublings and saturating instead of
/// overflowing (a pathological base near `u64::MAX` must cap, not panic
/// or wrap to a near-zero wait that re-fuels the retry storm).
fn retry_backoff_base(base: eckv_simnet::SimDuration, index: u32) -> eckv_simnet::SimDuration {
    let factor = 1u64
        .checked_shl(index.min(MAX_BACKOFF_DOUBLINGS))
        .unwrap_or(u64::MAX);
    base.saturating_mul(factor)
}

/// Runs one Set/Get, transparently retrying on dead-server discoveries
/// with exponential backoff, recording the final result, then invoking
/// `on_final`. When the engine has a per-op deadline, retrying stops once
/// the deadline has passed, and any completion past it (successful or
/// not) counts as a deadline miss.
fn dispatch_with_retry(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    op: Op,
    attempt: Attempt,
    on_final: Box<dyn FnOnce(&mut Simulation)>,
) {
    let world2 = world.clone();
    let retry_op = op.clone();
    let done = Box::new(move |sim: &mut Simulation, result: OpResult| {
        let deadline_at = world2.cfg.deadline.map(|d| attempt.admitted_at + d);
        let before_deadline = deadline_at.is_none_or(|d| result.at <= d);
        let client_node = world2.cluster.client_node(client);
        let class = op_class(result.kind);
        if result.retryable && attempt.retries_left > 0 && before_deadline {
            // The failure view was just updated; re-dispatch against the
            // survivors instead of recording a failure, after a bounded
            // exponential backoff (base doubles per attempt).
            world2.note(
                result.at,
                TraceEvent::Retry {
                    client: client_node,
                    op: class,
                },
            );
            let backoff =
                world2.jittered_backoff(client, retry_backoff_base(RETRY_BACKOFF, attempt.index));
            if let Some(op) = attempt.span {
                world2.trace.span_record_for(
                    op,
                    SpanPhase::RetryBackoff,
                    client_node,
                    result.at,
                    result.at + backoff,
                );
            }
            let next = Attempt {
                admitted_at: attempt.admitted_at,
                index: attempt.index + 1,
                retries_left: attempt.retries_left - 1,
                span: attempt.span,
            };
            let world3 = world2.clone();
            sim.schedule_in(backoff, move |sim| {
                dispatch_with_retry(&world3, sim, client, retry_op, next, on_final);
            });
        } else {
            if world2.repair_active() {
                world2.metrics.borrow_mut().fg_ops_during_repair += 1;
            }
            if !before_deadline {
                world2.note(
                    result.at,
                    TraceEvent::DeadlineExceeded {
                        client: client_node,
                        op: class,
                        latency: result.at.since(attempt.admitted_at),
                    },
                );
            }
            world2.note(
                result.at,
                TraceEvent::OpCompleted {
                    client: client_node,
                    op: class,
                    latency: result.latency,
                    ok: result.ok,
                    value_len: result.value_len,
                    degraded: result.degraded,
                    integrity_ok: result.integrity_ok,
                    breakdown: result.breakdown,
                },
            );
            if let Some(op) = attempt.span {
                world2.trace.span_end_op(op, result.at, result.ok);
            }
            on_final(sim);
        }
    });
    // The span scope is ambient only while the path's synchronous prefix
    // runs; the transport re-captures it at every send, so the chain
    // survives asynchrony without threading ids through the paths.
    let prev = world.trace.set_span_scope(attempt.span);
    match op {
        Op::Set { key, payload } => set_path::start_set(world, sim, client, key, payload, done),
        Op::Get { key } => get_path::start_get(world, sim, client, key, done),
        Op::MGet { .. } => unreachable!("bulk gets are expanded by the pump"),
    }
    world.trace.set_span_scope(prev);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;
    use crate::world::EngineConfig;
    use eckv_simnet::ClusterProfile;
    use eckv_store::ClusterConfig;

    fn small_world(scheme: Scheme, clients: usize) -> Rc<World> {
        World::new(EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 5, clients),
            scheme,
        ))
    }

    fn set_ops(client: usize, n: usize, len: u64) -> Vec<Op> {
        (0..n)
            .map(|i| Op::set_synthetic(format!("c{client}-k{i}"), len, (client * 1000 + i) as u64))
            .collect()
    }

    fn get_ops(client: usize, n: usize) -> Vec<Op> {
        (0..n).map(|i| Op::get(format!("c{client}-k{i}"))).collect()
    }

    #[test]
    fn every_scheme_completes_a_write_read_stream() {
        for scheme in [
            Scheme::NoRep,
            Scheme::SyncRep { replicas: 3 },
            Scheme::AsyncRep { replicas: 3 },
            Scheme::era_ce_cd(3, 2),
            Scheme::era_se_sd(3, 2),
            Scheme::era_se_cd(3, 2),
            Scheme::era_ce_sd(3, 2),
        ] {
            let world = small_world(scheme, 1);
            let mut sim = Simulation::new();
            // Write phase, then read phase — within one phase operations
            // overlap freely (non-blocking window), across phases the app
            // waits for completion, like YCSB's load/run split.
            run_workload(&world, &mut sim, vec![set_ops(0, 20, 4096)]);
            run_workload(&world, &mut sim, vec![get_ops(0, 20)]);
            let m = world.metrics.borrow();
            assert_eq!(m.set_count, 20, "{scheme}");
            assert_eq!(m.get_count, 20, "{scheme}");
            assert_eq!(m.errors, 0, "{scheme}");
            assert_eq!(m.integrity_errors, 0, "{scheme}");
        }
    }

    #[test]
    fn nonblocking_window_allows_read_to_race_write() {
        // A Get admitted in the same window as its Set can legitimately
        // overtake it — the application must use the wait API (a phase
        // boundary) for read-your-write. This documents that semantic.
        let world = small_world(Scheme::era_se_cd(3, 2), 1);
        let mut sim = Simulation::new();
        let ops = vec![Op::set_synthetic("racy", 65536, 1), Op::get("racy")];
        run_workload(&world, &mut sim, vec![ops]);
        let m = world.metrics.borrow();
        assert_eq!(m.ops(), 2);
        assert_eq!(m.errors, 1, "the racing get should miss");
    }

    #[test]
    fn inline_values_really_roundtrip_through_erasure() {
        for scheme in [
            Scheme::era_ce_cd(3, 2),
            Scheme::era_se_cd(3, 2),
            Scheme::era_se_sd(3, 2),
        ] {
            let world = small_world(scheme, 1);
            let mut sim = Simulation::new();
            let value: Vec<u8> = (0..5000u32).map(|i| (i * 31 % 251) as u8).collect();
            run_workload(&world, &mut sim, vec![vec![Op::set_inline("real", value)]]);
            run_workload(&world, &mut sim, vec![vec![Op::get("real")]]);
            let m = world.metrics.borrow();
            assert_eq!(m.errors, 0, "{scheme}");
            assert_eq!(m.integrity_errors, 0, "{scheme}");
        }
    }

    #[test]
    fn degraded_reads_survive_m_failures() {
        for scheme in [
            Scheme::era_ce_cd(3, 2),
            Scheme::era_se_cd(3, 2),
            Scheme::era_se_sd(3, 2),
            Scheme::AsyncRep { replicas: 3 },
        ] {
            let world = small_world(scheme, 1);
            let mut sim = Simulation::new();
            // Load with inline values so degraded reads really decode.
            let value: Vec<u8> = (0..3000u32).map(|i| (i * 7 % 256) as u8).collect();
            let mut load = Vec::new();
            for i in 0..10 {
                load.push(Op::set_inline(format!("k{i}"), value.clone()));
            }
            run_workload(&world, &mut sim, vec![load]);
            assert_eq!(world.metrics.borrow().errors, 0);

            // Kill two servers, then read everything back.
            world.cluster.kill_server(1);
            world.cluster.kill_server(3);
            world.reset_metrics();
            let reads: Vec<Op> = (0..10).map(|i| Op::get(format!("k{i}"))).collect();
            run_workload(&world, &mut sim, vec![reads]);
            let m = world.metrics.borrow();
            assert_eq!(m.get_count, 10, "{scheme}");
            assert_eq!(m.errors, 0, "{scheme}: degraded reads must succeed");
            assert_eq!(m.integrity_errors, 0, "{scheme}");
        }
    }

    #[test]
    fn erasure_cannot_survive_more_than_m_failures() {
        let world = small_world(Scheme::era_ce_cd(3, 2), 1);
        let mut sim = Simulation::new();
        let load: Vec<Op> = (0..5)
            .map(|i| Op::set_synthetic(format!("k{i}"), 1024, i))
            .collect();
        run_workload(&world, &mut sim, vec![load]);
        world.cluster.kill_server(0);
        world.cluster.kill_server(2);
        world.cluster.kill_server(4);
        world.reset_metrics();
        run_workload(
            &world,
            &mut sim,
            vec![(0..5).map(|i| Op::get(format!("k{i}"))).collect()],
        );
        let m = world.metrics.borrow();
        assert_eq!(m.errors, 5, "3 of 5 servers down defeats RS(3,2)");
    }

    #[test]
    fn window_pipelines_operations() {
        // With a wider window, 1K sets from a single client must finish
        // sooner thanks to request overlap.
        fn total_time(window: usize) -> u64 {
            let world = World::new(
                EngineConfig::new(
                    ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
                    Scheme::era_ce_cd(3, 2),
                )
                .window(window),
            );
            let mut sim = Simulation::new();
            let ops: Vec<Op> = (0..200)
                .map(|i| Op::set_synthetic(format!("k{i}"), 65536, i))
                .collect();
            run_workload(&world, &mut sim, vec![ops]);
            let elapsed = world.metrics.borrow().elapsed().as_nanos();
            elapsed
        }
        let narrow = total_time(1);
        let wide = total_time(16);
        assert!(
            wide * 5 < narrow * 4,
            "window=16 ({wide}ns) should beat window=1 ({narrow}ns) by >20%"
        );
    }

    #[test]
    fn multiple_clients_share_the_cluster() {
        let world = small_world(Scheme::AsyncRep { replicas: 3 }, 4);
        let mut sim = Simulation::new();
        let writes: Vec<Vec<Op>> = (0..4).map(|c| set_ops(c, 10, 8192)).collect();
        run_workload(&world, &mut sim, writes);
        let reads: Vec<Vec<Op>> = (0..4).map(|c| get_ops(c, 10)).collect();
        run_workload(&world, &mut sim, reads);
        let m = world.metrics.borrow();
        assert_eq!(m.ops(), 80);
        assert_eq!(m.errors, 0);
    }

    #[test]
    fn mget_reads_everything_and_overlaps() {
        // Both runs use a window of 1, so any overlap must come from the
        // bulk expansion itself (the paper's "bulk Set/Get request access
        // patterns can overlap the D/B factor").
        fn blocking_world() -> Rc<World> {
            World::new(
                EngineConfig::new(
                    ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
                    Scheme::AsyncRep { replicas: 3 },
                )
                .window(1),
            )
        }
        let bulk_world = blocking_world();
        let mut sim_bulk = Simulation::new();
        run_workload(&bulk_world, &mut sim_bulk, vec![set_ops(0, 30, 4 << 10)]);
        bulk_world.reset_metrics();
        let keys: Vec<String> = (0..30).map(|i| format!("c0-k{i}")).collect();
        run_workload(&bulk_world, &mut sim_bulk, vec![vec![Op::mget(keys)]]);
        let bulk = bulk_world.metrics.borrow();
        assert_eq!(bulk.get_count, 30, "every sub-get records");
        assert_eq!(bulk.errors, 0);
        let bulk_elapsed = bulk.elapsed();
        drop(bulk);

        let seq_world = blocking_world();
        let mut sim_seq = Simulation::new();
        run_workload(&seq_world, &mut sim_seq, vec![set_ops(0, 30, 4 << 10)]);
        seq_world.reset_metrics();
        run_workload(&seq_world, &mut sim_seq, vec![get_ops(0, 30)]);
        let seq_elapsed = seq_world.metrics.borrow().elapsed();
        assert!(
            bulk_elapsed * 2 < seq_elapsed,
            "bulk ({bulk_elapsed}) must overlap the D/B factor vs sequential ({seq_elapsed})"
        );
    }

    #[test]
    fn mget_retries_dead_servers_per_key() {
        let world = small_world(Scheme::era_ce_cd(3, 2), 1);
        let mut sim = Simulation::new();
        run_workload(&world, &mut sim, vec![set_ops(0, 10, 8 << 10)]);
        world.cluster.kill_server(2);
        world.reset_metrics();
        let keys: Vec<String> = (0..10).map(|i| format!("c0-k{i}")).collect();
        run_workload(&world, &mut sim, vec![vec![Op::mget(keys)]]);
        let m = world.metrics.borrow();
        assert_eq!(m.get_count, 10);
        // The CD read path tops up from parity holders within the same
        // operation, so no driver-level retry is needed — just success.
        assert_eq!(m.errors, 0, "bulk sub-gets must fail over too");
    }

    #[test]
    fn op_completed_events_capture_each_op() {
        use eckv_simnet::{Trace, TraceBus, TraceRecord};

        let done = Rc::new(RefCell::new(Vec::new()));
        let collect = done.clone();
        let mut bus = TraceBus::new();
        bus.add_sink(Rc::new(RefCell::new(move |r: &TraceRecord| {
            if let TraceEvent::OpCompleted { ok, .. } = r.event {
                collect.borrow_mut().push((r.at, ok));
            }
        })));
        let world = World::new_traced(
            EngineConfig::new(
                ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
                Scheme::era_ce_cd(3, 2),
            ),
            Trace::from_bus(bus),
        );
        let mut sim = Simulation::new();
        run_workload(&world, &mut sim, vec![set_ops(0, 7, 2048)]);
        let done = done.borrow();
        assert_eq!(done.len(), 7);
        assert!(done.windows(2).all(|w| w[0].0 <= w[1].0), "in time order");
        assert!(done.iter().all(|&(_, ok)| ok));
        assert_eq!(world.metrics.borrow().finished_at, done[6].0);
    }

    #[test]
    #[should_panic(expected = "op streams for")]
    fn too_many_streams_panics() {
        let world = small_world(Scheme::NoRep, 1);
        let mut sim = Simulation::new();
        run_workload(&world, &mut sim, vec![vec![], vec![]]);
    }

    #[test]
    fn hedges_fire_and_win_against_a_straggler() {
        use crate::world::HedgeConfig;
        use eckv_simnet::SimDuration;
        let world = World::new(
            EngineConfig::new(
                ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
                Scheme::era_ce_cd(3, 2),
            )
            // Depth 1 keeps client-side queueing out of the op latencies,
            // so the straggler's delay is what the hedge timer sees; the
            // fixed trigger needs no estimator warmup.
            .window(1)
            .hedge(HedgeConfig::after(SimDuration::from_micros(50))),
        );
        let mut sim = Simulation::new();
        run_workload(&world, &mut sim, vec![set_ops(0, 40, 65536)]);
        // One slow server: its chunk fetches straggle but never fail.
        world
            .cluster
            .slow_server(sim.now(), 0, 8.0, SimDuration::ZERO);
        world.reset_metrics();
        run_workload(&world, &mut sim, vec![get_ops(0, 40)]);
        let m = world.metrics.borrow();
        assert_eq!(m.get_count, 40);
        assert_eq!(m.errors, 0, "hedged reads must still all succeed");
        assert_eq!(m.integrity_errors, 0, "hedged reads must return good data");
        assert!(m.hedges_fired > 0, "the straggler should trigger hedges");
        assert!(
            m.hedges_won > 0 && m.hedges_won <= m.hedges_fired,
            "fired={} won={}",
            m.hedges_fired,
            m.hedges_won
        );
        drop(m);
        world.cluster.restore_server_speed(0);
        assert_eq!(world.cluster.server_slow_factor(0), 1.0);
    }

    #[test]
    fn hedging_disabled_fires_nothing() {
        let world = small_world(Scheme::era_ce_cd(3, 2), 1);
        let mut sim = Simulation::new();
        run_workload(&world, &mut sim, vec![set_ops(0, 10, 65536)]);
        run_workload(&world, &mut sim, vec![get_ops(0, 10)]);
        let m = world.metrics.borrow();
        assert_eq!(m.hedges_fired, 0);
        assert_eq!(m.hedges_won, 0);
        assert_eq!(m.deadline_misses, 0);
    }

    #[test]
    fn deadline_misses_are_counted_once_per_op() {
        use eckv_simnet::SimDuration;
        // A 1ns deadline: every op completes late and counts as a miss,
        // but still completes (deadlines bound retrying, not service).
        let world = World::new(
            EngineConfig::new(
                ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
                Scheme::era_ce_cd(3, 2),
            )
            .deadline(SimDuration::from_nanos(1)),
        );
        let mut sim = Simulation::new();
        run_workload(&world, &mut sim, vec![set_ops(0, 8, 4096)]);
        let m = world.metrics.borrow();
        assert_eq!(m.set_count, 8);
        assert_eq!(m.errors, 0);
        assert_eq!(m.deadline_misses, 8);
    }

    #[test]
    fn deadline_stops_retrying_against_dead_servers() {
        use eckv_simnet::SimDuration;
        let world = World::new(
            EngineConfig::new(
                ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
                Scheme::era_ce_cd(3, 2),
            )
            .deadline(SimDuration::from_nanos(1)),
        );
        let mut sim = Simulation::new();
        run_workload(&world, &mut sim, vec![set_ops(0, 5, 4096)]);
        world.cluster.kill_server(0);
        world.cluster.kill_server(1);
        world.cluster.kill_server(2);
        world.reset_metrics();
        run_workload(&world, &mut sim, vec![get_ops(0, 5)]);
        let m = world.metrics.borrow();
        // Past the (instant) deadline, a retryable failure records
        // immediately instead of re-dispatching.
        assert_eq!(m.retries, 0, "no retry budget past the deadline");
        assert_eq!(m.errors, 5);
    }

    #[test]
    fn backoff_retries_still_route_around_failures() {
        // Async replication reads one replica at a time, so a dead first
        // replica surfaces as a retryable error the driver must back off
        // and re-dispatch (erasure reads would instead top up in-op).
        let world = World::new(EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
            Scheme::AsyncRep { replicas: 3 },
        ));
        let mut sim = Simulation::new();
        run_workload(&world, &mut sim, vec![set_ops(0, 10, 8 << 10)]);
        world.cluster.kill_server(2);
        world.reset_metrics();
        run_workload(&world, &mut sim, vec![get_ops(0, 10)]);
        let m = world.metrics.borrow();
        assert_eq!(m.errors, 0, "backoff retries must still fail over");
        assert!(m.retries > 0, "killing a holder forces discovery retries");
    }

    #[test]
    fn backoff_base_saturates_instead_of_overflowing() {
        use eckv_simnet::SimDuration;
        // Doubling per attempt up to the clamp.
        let base = SimDuration::from_micros(50);
        assert_eq!(retry_backoff_base(base, 0), base);
        assert_eq!(retry_backoff_base(base, 3), SimDuration::from_micros(400));
        assert_eq!(
            retry_backoff_base(base, 10),
            SimDuration::from_micros(50 * 1024)
        );
        // Past the clamp the backoff stops growing (attempt 32 used to
        // compute `1u64 << 32` only thanks to the clamp; the clamp is now
        // backed by checked_shl either way).
        assert_eq!(retry_backoff_base(base, 32), retry_backoff_base(base, 10));
        // A pathological base near u64::MAX saturates instead of wrapping
        // to a tiny wait that would re-fuel the retry storm.
        let huge = SimDuration::from_nanos(u64::MAX - 1);
        assert_eq!(retry_backoff_base(huge, 0), huge);
        for idx in 1..64 {
            assert_eq!(
                retry_backoff_base(huge, idx),
                SimDuration::from_nanos(u64::MAX),
                "attempt {idx} must saturate"
            );
        }
    }

    #[test]
    fn retry_jitter_is_bounded_per_client_and_deterministic() {
        use eckv_simnet::SimDuration;
        let w1 = small_world(Scheme::NoRep, 2);
        let w2 = small_world(Scheme::NoRep, 2);
        let base = SimDuration::from_micros(100);
        for client in 0..2 {
            for _ in 0..50 {
                let a = w1.jittered_backoff(client, base);
                let b = w2.jittered_backoff(client, base);
                assert_eq!(a, b, "same seed, same draw sequence");
                assert!(
                    a >= SimDuration::from_micros(50) && a <= base,
                    "equal-jitter stays within [base/2, base]: {a}"
                );
            }
        }
        // Distinct clients draw distinct streams, so a herd of retries
        // decorrelates instead of re-converging on the same instant.
        let seq0: Vec<_> = (0..8).map(|_| w1.jittered_backoff(0, base)).collect();
        let seq1: Vec<_> = (0..8).map(|_| w1.jittered_backoff(1, base)).collect();
        assert_ne!(seq0, seq1);
        // A sub-2ns backoff cannot jitter (half rounds to zero): it is
        // returned unchanged rather than zeroed.
        assert_eq!(
            w1.jittered_backoff(0, SimDuration::from_nanos(1)),
            SimDuration::from_nanos(1)
        );
    }
}
