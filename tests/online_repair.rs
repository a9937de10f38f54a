//! Online-repair guarantees, end to end: foreground reads stay clean
//! while a killed server is rebuilt under load, degraded reads promote
//! their keys past the background scan, the bandwidth throttle's cap is
//! verifiable from the trace alone, a slowed survivor delays the rebuild
//! without changing its outcome, and the whole thing is byte-identical
//! across same-seed runs.

use std::cell::RefCell;
use std::rc::Rc;

use eckv::prelude::*;
use eckv::simnet::{JsonlSink, Trace, TraceBus};

/// The server that is killed and rebuilt in every test.
const FAILED: usize = 2;

fn engine(scheme: Scheme, clients: usize, repair: RepairConfig) -> EngineConfig {
    EngineConfig::new(
        ClusterConfig::new(ClusterProfile::RiQdr, 5, clients),
        scheme,
    )
    .window(2)
    .repair(repair)
}

/// Writes `n` synthetic keys (`k00`, `k01`, ... so sort order == scan
/// order) of `len(i)` bytes through client 0.
fn load_keys(world: &Rc<World>, sim: &mut Simulation, n: usize, len: impl Fn(usize) -> u64) {
    let writes: Vec<Op> = (0..n)
        .map(|i| Op::set_synthetic(format!("k{i:02}"), len(i), i as u64))
        .collect();
    run_workload(world, sim, vec![writes]);
    assert_eq!(world.metrics.borrow().errors, 0, "load must be clean");
}

/// Extracts `"name":<u64>` from one JSONL line.
fn field_u64(line: &str, name: &str) -> Option<u64> {
    let pat = format!("\"{name}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `(at_ns, bytes)` of every `repair_started` event in the trace.
fn started_events(trace: &str) -> Vec<(u64, u64)> {
    trace
        .lines()
        .filter(|l| l.contains("\"event\":\"repair_started\""))
        .map(|l| {
            (
                field_u64(l, "at_ns").expect("at_ns"),
                field_u64(l, "bytes").expect("bytes"),
            )
        })
        .collect()
}

#[test]
fn foreground_reads_stay_clean_during_online_repair() {
    // Era-SE-SD under a read load while one of five servers rebuilds:
    // every GET must succeed intact (degraded decode where needed), and
    // the rebuild must restore every key without loss.
    let n = 40;
    let world = World::new(
        EngineConfig::new(
            ClusterConfig::new(ClusterProfile::SdscComet, 5, 2),
            Scheme::era_se_sd(3, 2),
        )
        .window(2)
        .repair(RepairConfig::default().window(4).bandwidth(150_000_000)),
    );
    let mut sim = Simulation::new();
    load_keys(&world, &mut sim, n, |_| 16 << 10);

    world.reset_metrics();
    world.cluster.kill_server(FAILED);
    start_repair(&world, &mut sim, FAILED);
    // Both clients read every key while the rebuild runs.
    let reads: Vec<Op> = (0..n).map(|i| Op::get(format!("k{i:02}"))).collect();
    enqueue_workload(&world, &mut sim, vec![reads.clone(), reads]);
    sim.run();

    let m = world.metrics.borrow();
    assert_eq!(m.get_count, 2 * n as u64);
    assert_eq!(m.errors, 0, "no foreground read may fail during repair");
    assert_eq!(m.integrity_errors, 0, "no foreground read may corrupt");
    assert!(
        m.fg_ops_during_repair > 0,
        "the foreground must actually overlap the rebuild"
    );
    assert_eq!(m.repair_queue_depth_hwm, n as u64);
    assert!(m.repair_bytes > 0);
    drop(m);

    assert!(!world.repair_active());
    let report = world.last_repair_report().expect("rebuild completed");
    assert_eq!(
        report.keys_repaired, n as u64,
        "RS(3,2) spans all 5 servers"
    );
    assert_eq!(report.keys_lost, 0);
}

#[test]
fn degraded_read_promotes_its_key_past_the_background_scan() {
    // Distinct value lengths give every key a distinct repair cost, so
    // the `bytes` field of `repair_started` identifies which key each
    // event rebuilds — the queue order is observable from the trace.
    let n = 40;
    let len = |i: usize| 8192 + 768 * i as u64;

    let sink = Rc::new(RefCell::new(JsonlSink::new()));
    let mut bus = TraceBus::new();
    bus.add_sink(sink.clone());
    let world = World::new_traced(
        engine(
            Scheme::era_ce_cd(3, 2),
            1,
            // window 1 + a tight throttle: the background scan crawls,
            // so the promoted key visibly jumps the queue.
            RepairConfig::default().window(1).bandwidth(20_000_000),
        ),
        Trace::from_bus(bus),
    );
    let mut sim = Simulation::new();
    load_keys(&world, &mut sim, n, len);

    // Pick a key deep in scan order whose chunk on the failed server is a
    // *data* shard, so a GET of it must decode (and therefore promote).
    let (scan_pos, hot) = (20..n)
        .rev()
        .map(|i| (i, format!("k{i:02}")))
        .find(|(_, key)| world.targets(key).iter().position(|&s| s == FAILED) < Some(3))
        .expect("some late key keeps a data shard on the failed server");

    world.cluster.kill_server(FAILED);
    start_repair(&world, &mut sim, FAILED);
    enqueue_workload(&world, &mut sim, vec![vec![Op::get(hot)]]);
    sim.run();

    let report = world.last_repair_report().expect("rebuild completed");
    assert_eq!(report.keys_repaired, n as u64);
    assert_eq!(world.metrics.borrow().repair_promotions, 1);
    let trace = sink.borrow().contents().to_string();
    assert!(trace.contains("\"event\":\"repair_key_promoted\""));

    let started: Vec<u64> = started_events(&trace).iter().map(|&(_, b)| b).collect();
    assert_eq!(started.len(), n);
    // Cost is strictly increasing in the key index, so the promoted
    // key's event carries the `scan_pos`-th smallest byte count.
    let mut sorted = started.clone();
    sorted.sort_unstable();
    let hot_bytes = sorted[scan_pos];
    let issued_at = started
        .iter()
        .position(|&b| b == hot_bytes)
        .expect("the hot key was rebuilt");
    assert!(
        issued_at <= 2 && issued_at < scan_pos,
        "promotion must beat the scan: issued {issued_at}th, scan position {scan_pos}"
    );
    // Everything else still rebuilds in background-scan (sorted) order.
    let rest: Vec<u64> = started
        .iter()
        .copied()
        .filter(|&b| b != hot_bytes)
        .collect();
    assert!(
        rest.windows(2).all(|w| w[0] < w[1]),
        "unpromoted keys must drain in sorted scan order"
    );
}

#[test]
fn throttle_cap_holds_in_every_trace_window() {
    // The token bucket's contract, checked purely from the emitted
    // trace: over any window, the repair traffic admitted (sum of
    // `repair_started` byte debits) stays within rate * window, plus at
    // most one in-flight key's worth of burst.
    const RATE: u64 = 50_000_000;
    let n = 60;

    let sink = Rc::new(RefCell::new(JsonlSink::new()));
    let mut bus = TraceBus::new();
    bus.add_sink(sink.clone());
    let world = World::new_traced(
        engine(
            Scheme::era_ce_cd(3, 2),
            1,
            RepairConfig::default().bandwidth(RATE),
        ),
        Trace::from_bus(bus),
    );
    let mut sim = Simulation::new();
    load_keys(&world, &mut sim, n, |_| 16 << 10);

    world.cluster.kill_server(FAILED);
    start_repair(&world, &mut sim, FAILED);
    sim.run();
    assert_eq!(world.last_repair_report().expect("completed").keys_lost, 0);

    let trace = sink.borrow().contents().to_string();
    assert!(trace.contains("\"event\":\"repair_throttled\""));
    let events = started_events(&trace);
    assert_eq!(events.len(), n);
    let max_cost = events.iter().map(|&(_, b)| b).max().unwrap();
    const WINDOW_NS: u64 = 2_000_000;
    let cap = RATE * WINDOW_NS / 1_000_000_000 + max_cost;
    for &(t0, _) in &events {
        let admitted: u64 = events
            .iter()
            .filter(|&&(t, _)| t >= t0 && t < t0 + WINDOW_NS)
            .map(|&(_, b)| b)
            .sum();
        assert!(
            admitted <= cap,
            "window at {t0}ns admitted {admitted} bytes, cap {cap}"
        );
    }
}

#[test]
fn slowed_survivor_delays_the_rebuild_without_changing_it() {
    // A straggling survivor is slow, not dead: the rebuild must take
    // longer but still restore exactly the same keys.
    let run = |slow: bool| {
        let world = World::new(engine(Scheme::era_ce_cd(3, 2), 1, RepairConfig::default()));
        let mut sim = Simulation::new();
        load_keys(&world, &mut sim, 30, |_| 16 << 10);
        world.cluster.kill_server(FAILED);
        if slow {
            world
                .cluster
                .slow_server(sim.now(), 1, 8.0, SimDuration::from_micros(300));
        }
        repair_server(&world, &mut sim, FAILED)
    };
    let healthy = run(false);
    let degraded = run(true);
    assert!(healthy.keys_repaired > 0);
    assert_eq!(degraded.keys_repaired, healthy.keys_repaired);
    assert_eq!(healthy.keys_lost, 0);
    assert_eq!(degraded.keys_lost, 0);
    assert!(
        degraded.elapsed > healthy.elapsed,
        "a straggling survivor must slow the rebuild: {} vs {}",
        degraded.elapsed,
        healthy.elapsed
    );
}

#[test]
fn replica_rebuild_tops_up_past_a_holder_that_lost_its_copy() {
    let world = World::new(engine(
        Scheme::AsyncRep { replicas: 3 },
        1,
        RepairConfig::default(),
    ));
    let mut sim = Simulation::new();
    load_keys(&world, &mut sim, 16, |_| 4 << 10);
    // Drop each key's copy on one surviving non-primary holder, as an
    // eviction would: reads still hit the primary, but a rebuild that
    // probes that holder first finds nothing there.
    for i in 0..16 {
        let key = format!("k{i:02}");
        let targets = world.targets(&key);
        let holder = *targets
            .iter()
            .rev()
            .find(|&&s| s != FAILED)
            .expect("a surviving holder");
        world.cluster.servers[holder]
            .borrow_mut()
            .delete(&key.as_str().into());
    }
    world.cluster.kill_server(FAILED);
    let report = repair_server(&world, &mut sim, FAILED);
    assert!(report.keys_repaired > 0);
    assert_eq!(
        report.keys_lost, 0,
        "an empty replica holder must be topped up, not doom the key"
    );
    world.reset_metrics();
    let reads: Vec<Op> = (0..16).map(|i| Op::get(format!("k{i:02}"))).collect();
    run_workload(&world, &mut sim, vec![reads]);
    let m = world.metrics.borrow();
    assert_eq!(m.get_count, 16);
    assert_eq!(m.errors, 0, "every key reads back");
    assert_eq!(m.integrity_errors, 0);
}

/// A fully traced online repair under foreground reads; returns the
/// JSONL text.
fn traced_online_repair() -> String {
    let sink = Rc::new(RefCell::new(JsonlSink::new()));
    let mut bus = TraceBus::new();
    bus.add_sink(sink.clone());
    let world = World::new_traced(
        engine(
            Scheme::era_ce_cd(3, 2),
            1,
            RepairConfig::default().bandwidth(100_000_000),
        ),
        Trace::from_bus(bus),
    );
    let mut sim = Simulation::new();
    load_keys(&world, &mut sim, 30, |_| 16 << 10);
    world.cluster.kill_server(FAILED);
    start_repair(&world, &mut sim, FAILED);
    let reads: Vec<Op> = (0..30).map(|i| Op::get(format!("k{i:02}"))).collect();
    enqueue_workload(&world, &mut sim, vec![reads]);
    sim.run();
    assert_eq!(world.metrics.borrow().errors, 0);
    let text = sink.borrow().contents().to_string();
    text
}

#[test]
fn online_repair_traces_are_byte_identical() {
    let a = traced_online_repair();
    let b = traced_online_repair();
    assert_eq!(
        a, b,
        "online repair under load must stay deterministic run to run"
    );
    for needle in [
        "\"event\":\"repair_started\"",
        "\"event\":\"repair_throttled\"",
        "\"event\":\"repair_key_promoted\"",
        "\"event\":\"repair_shard\"",
        "\"event\":\"repair_done\"",
    ] {
        assert!(a.contains(needle), "missing {needle}");
    }
}
