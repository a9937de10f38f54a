//! End-to-end TraceBus guarantees: a traced run emits the full event
//! vocabulary with virtual timestamps, two identical runs produce
//! byte-identical trace text, a disabled trace stays invisible, and the
//! run's `Metrics` are the fold of the engine's events.

use std::cell::RefCell;
use std::rc::Rc;

use eckv::prelude::*;
use eckv::simnet::{JsonlSink, OpClass, Trace, TraceBus, TraceEvent, TraceRecord};

/// Runs the canonical Era-CE-CD write/kill/read workload with a JSONL sink
/// attached and returns (trace text, events emitted, series CSV).
fn traced_run(ops: usize) -> (String, u64, String) {
    let sink = Rc::new(RefCell::new(JsonlSink::new()));
    let mut bus = TraceBus::new();
    bus.add_sink(sink.clone());
    bus.enable_series(SimDuration::from_millis(10));
    let trace = Trace::from_bus(bus);

    let world = World::new_traced(
        EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
            Scheme::era_ce_cd(3, 2),
        ),
        trace.clone(),
    );
    let mut sim = Simulation::new();
    let writes: Vec<Op> = (0..ops)
        .map(|i| Op::set_synthetic(format!("k{i}"), 64 << 10, i as u64))
        .collect();
    run_workload(&world, &mut sim, vec![writes]);
    world.cluster.kill_server(1);
    world.reset_metrics();
    let reads: Vec<Op> = (0..ops).map(|i| Op::get(format!("k{i}"))).collect();
    run_workload(&world, &mut sim, vec![reads]);
    assert_eq!(world.metrics.borrow().errors, 0);

    let text = sink.borrow().contents().to_string();
    let emitted = trace
        .with_bus(|bus| bus.events_emitted())
        .expect("trace is enabled");
    let series = trace
        .with_bus(|bus| bus.series().expect("series enabled").to_csv())
        .expect("trace is enabled");
    (text, emitted, series)
}

#[test]
fn traced_run_emits_full_event_vocabulary() {
    let (text, emitted, _) = traced_run(50);
    assert!(emitted > 0);
    // One schema-version header line precedes the events.
    assert_eq!(text.lines().count() as u64, emitted + 1);
    assert!(
        text.starts_with("{\"schema\":\"eckv.trace\",\"version\":1}\n"),
        "missing schema header: {}",
        text.lines().next().unwrap_or_default()
    );
    // Degraded reads past the killed server force decodes; writes encode.
    for needle in [
        "\"event\":\"op_admitted\"",
        "\"event\":\"op_completed\"",
        "\"event\":\"shard_send\"",
        "\"event\":\"shard_recv\"",
        "\"event\":\"nic_queue_enter\"",
        "\"event\":\"nic_queue_exit\"",
        "\"event\":\"encode_start\"",
        "\"event\":\"encode_end\"",
        "\"event\":\"decode_start\"",
        "\"event\":\"decode_end\"",
        "\"event\":\"failure_detected\"",
    ] {
        assert!(text.contains(needle), "missing {needle}");
    }
    // Every event line carries a virtual timestamp and a sequence number.
    for line in text.lines().skip(1).take(100) {
        assert!(line.starts_with("{\"at_ns\":"), "malformed line: {line}");
        assert!(line.contains("\"seq\":"), "malformed line: {line}");
    }
}

/// Runs the same write/kill/read workload with causal spans enabled and
/// returns (trace text, --explain-tail report, Perfetto JSON, per-op
/// (attributed ns, wall ns) pairs).
fn spanned_run(ops: usize) -> (String, String, String, Vec<(u64, u64)>) {
    let sink = Rc::new(RefCell::new(JsonlSink::new()));
    let mut bus = TraceBus::new();
    bus.add_sink(sink.clone());
    bus.enable_spans(16);
    let trace = Trace::from_bus(bus);

    let world = World::new_traced(
        EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
            Scheme::era_ce_cd(3, 2),
        ),
        trace.clone(),
    );
    let mut sim = Simulation::new();
    let writes: Vec<Op> = (0..ops)
        .map(|i| Op::set_synthetic(format!("k{i}"), 64 << 10, i as u64))
        .collect();
    run_workload(&world, &mut sim, vec![writes]);
    world.cluster.kill_server(1);
    world.reset_metrics();
    let reads: Vec<Op> = (0..ops).map(|i| Op::get(format!("k{i}"))).collect();
    run_workload(&world, &mut sim, vec![reads]);
    assert_eq!(world.metrics.borrow().errors, 0);

    let text = sink.borrow().contents().to_string();
    let (explain, perfetto, per_op) = trace
        .with_bus(|bus| {
            let spans = bus.spans().expect("spans enabled");
            let per_op: Vec<(u64, u64)> = spans
                .attributions()
                .iter()
                .map(|a| (a.attributed_ns(), a.latency.as_nanos()))
                .collect();
            (spans.explain_tail(), spans.perfetto_json(8), per_op)
        })
        .expect("trace is enabled");
    (text, explain, perfetto, per_op)
}

#[test]
fn spans_attribute_nearly_all_tail_wall_time() {
    let (_, explain, perfetto, per_op) = spanned_run(120);
    assert!(
        explain.contains("critical-path tail attribution"),
        "{explain}"
    );
    assert!(perfetto.contains("\"traceEvents\""));
    assert!(perfetto.contains("\"ph\":\"X\""));

    // Every op in the p95+ tail cohort must have >=95% of its wall time
    // attributed to named phases (the acceptance bar for --explain-tail).
    assert!(!per_op.is_empty());
    let mut lats: Vec<u64> = per_op.iter().map(|&(_, wall)| wall).collect();
    lats.sort_unstable();
    let p95 = lats[lats.len().saturating_sub(1).min(lats.len() * 95 / 100)];
    let mut tail_ops = 0usize;
    for &(attributed, wall) in &per_op {
        if wall < p95 || wall == 0 {
            continue;
        }
        tail_ops += 1;
        assert!(
            attributed * 100 >= wall * 95,
            "tail op only {attributed} of {wall} ns attributed"
        );
    }
    assert!(tail_ops > 0, "no tail-cohort ops found");
}

#[test]
fn span_reports_are_deterministic_across_runs() {
    let (text_a, explain_a, perfetto_a, _) = spanned_run(60);
    let (text_b, explain_b, perfetto_b, _) = spanned_run(60);
    assert_eq!(explain_a, explain_b, "--explain-tail must be reproducible");
    assert_eq!(
        perfetto_a, perfetto_b,
        "Perfetto export must be reproducible"
    );
    assert_eq!(text_a, text_b);
}

#[test]
fn spans_leave_event_trace_byte_identical() {
    // Enabling spans must not add, drop, or reorder any trace event. The
    // series aggregator in traced_run never writes to sinks, so the two
    // sink texts must match byte for byte.
    let (plain, _, _) = traced_run(40);
    let (spanned, _, _, _) = spanned_run(40);
    assert_eq!(plain, spanned);
}

#[test]
fn identical_runs_produce_byte_identical_traces() {
    let (a, emitted_a, series_a) = traced_run(40);
    let (b, emitted_b, series_b) = traced_run(40);
    assert_eq!(emitted_a, emitted_b);
    assert_eq!(a, b, "same seed must reproduce the trace byte-for-byte");
    assert_eq!(series_a, series_b);
}

#[test]
fn series_covers_multiple_windows_with_nonzero_throughput() {
    let (_, _, series) = traced_run(300);
    let busy_windows = series
        .lines()
        .skip(1)
        .filter(|row| {
            let ops: u64 = row.split(',').nth(2).unwrap().parse().unwrap();
            ops > 0
        })
        .count();
    assert!(
        busy_windows >= 2,
        "expected >=2 windows with completions, got {busy_windows}:\n{series}"
    );
}

#[test]
fn disabled_trace_adds_no_events_and_changes_no_results() {
    // Same workload, one traced world and one plain one: the trace must not
    // perturb the simulation, and the disabled handle must never fire.
    let (_, emitted, _) = traced_run(25);
    assert!(emitted > 0);

    let plain = Trace::disabled();
    assert!(!plain.is_enabled());
    assert!(plain.with_bus(|b| b.events_emitted()).is_none());

    let run = |trace: Trace| {
        let world = World::new_traced(
            EngineConfig::new(
                ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
                Scheme::era_ce_cd(3, 2),
            ),
            trace,
        );
        let mut sim = Simulation::new();
        let writes: Vec<Op> = (0..25)
            .map(|i| Op::set_synthetic(format!("k{i}"), 64 << 10, i as u64))
            .collect();
        run_workload(&world, &mut sim, vec![writes]);
        let m = world.metrics.borrow();
        (m.ops(), m.bytes_written, m.elapsed())
    };
    let traced = run(Trace::from_bus(TraceBus::new()));
    let untraced = run(Trace::disabled());
    assert_eq!(traced, untraced, "tracing must not perturb the simulation");
}

/// Runs `load`, then `disturb`, on `cfg`'s world traced into a sink that
/// keeps every record, and returns the world with the records.
fn fold_leg(
    cfg: EngineConfig,
    load: Vec<Vec<Op>>,
    disturb: impl FnOnce(&Rc<World>, &mut Simulation),
) -> (Rc<World>, Vec<TraceRecord>) {
    let records = Rc::new(RefCell::new(Vec::new()));
    let keep = records.clone();
    let mut bus = TraceBus::new();
    bus.add_sink(Rc::new(RefCell::new(move |r: &TraceRecord| {
        keep.borrow_mut().push(*r)
    })));
    let world = World::new_traced(cfg, Trace::from_bus(bus));
    let mut sim = Simulation::new();
    run_workload(&world, &mut sim, load);
    disturb(&world, &mut sim);
    sim.run();
    let records = records.take();
    (world, records)
}

/// Asserts that `m` is the fold of `records`: every event-driven counter
/// equals the count of its event, and the op counts, errors, goodput bytes
/// and run span equal the fold of `op_admitted`/`op_completed`.
fn assert_fold(leg: &str, m: &Metrics, records: &[TraceRecord]) {
    let count = |pred: &dyn Fn(&TraceEvent) -> bool| {
        records.iter().filter(|r| pred(&r.event)).count() as u64
    };
    let counters = [
        (
            "retries",
            m.retries,
            count(&|e| matches!(e, TraceEvent::Retry { .. })),
        ),
        (
            "deadline_misses",
            m.deadline_misses,
            count(&|e| matches!(e, TraceEvent::DeadlineExceeded { .. })),
        ),
        (
            "hedges_fired",
            m.hedges_fired,
            count(&|e| matches!(e, TraceEvent::HedgeFired { .. })),
        ),
        (
            "hedges_won",
            m.hedges_won,
            count(&|e| matches!(e, TraceEvent::HedgeWon { .. })),
        ),
        (
            "sheds",
            m.sheds,
            count(&|e| matches!(e, TraceEvent::OpShed { .. })),
        ),
        (
            "sheds_repair",
            m.sheds_repair,
            count(&|e| matches!(e, TraceEvent::OpShed { repair: true, .. })),
        ),
        (
            "repair_promotions",
            m.repair_promotions,
            count(&|e| matches!(e, TraceEvent::RepairKeyPromoted { .. })),
        ),
        (
            "vshards_moved",
            m.vshards_moved,
            count(&|e| matches!(e, TraceEvent::VshardReassigned { .. })),
        ),
        (
            "set_count",
            m.set_count,
            count(&|e| {
                matches!(
                    e,
                    TraceEvent::OpCompleted {
                        op: OpClass::Set,
                        ..
                    }
                )
            }),
        ),
        (
            "get_count",
            m.get_count,
            count(&|e| {
                matches!(
                    e,
                    TraceEvent::OpCompleted {
                        op: OpClass::Get,
                        ..
                    }
                )
            }),
        ),
        (
            "errors",
            m.errors,
            count(&|e| matches!(e, TraceEvent::OpCompleted { ok: false, .. })),
        ),
    ];
    for (name, got, events) in counters {
        assert_eq!(got, events, "{leg}: {name} is not the count of its event");
    }
    let goodput: u64 = records
        .iter()
        .map(|r| match r.event {
            TraceEvent::OpCompleted {
                ok: true,
                value_len,
                ..
            } => value_len,
            _ => 0,
        })
        .sum();
    assert_eq!(m.bytes_written + m.bytes_read, goodput, "{leg}: bytes");
    let admitted = records
        .iter()
        .find(|r| matches!(r.event, TraceEvent::OpAdmitted { .. }))
        .map(|r| r.at);
    assert_eq!(m.started_at, admitted, "{leg}: started_at");
    let finished = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::OpCompleted { .. }))
        .map(|r| r.at)
        .max()
        .unwrap_or(SimTime::ZERO);
    assert_eq!(m.finished_at, finished, "{leg}: finished_at");
}

/// `n` fresh keys of `len` bytes, written by one client.
fn writes(n: usize, len: u64) -> Vec<Op> {
    (0..n)
        .map(|i| Op::set_synthetic(format!("k{i:02}"), len, i as u64))
        .collect()
}

/// Reads of the `n` keys [`writes`] wrote.
fn reads(n: usize) -> Vec<Op> {
    (0..n).map(|i| Op::get(format!("k{i:02}"))).collect()
}

fn five_servers(scheme: Scheme, clients: usize) -> EngineConfig {
    EngineConfig::new(
        ClusterConfig::new(ClusterProfile::RiQdr, 5, clients).max_servers(6),
        scheme,
    )
}

#[test]
fn metrics_are_the_fold_of_the_engine_events() {
    const DEAD: usize = 1;
    let n = 16;

    // Retries: both clients meet the dead coordinator through stale views.
    let (world, records) = fold_leg(
        five_servers(Scheme::era_se_sd(3, 2), 2),
        vec![writes(n, 4096), Vec::new()],
        |world, sim| {
            world.cluster.kill_server(DEAD);
            run_workload(world, sim, vec![writes(n, 2048), reads(n)]);
        },
    );
    let m = world.metrics.borrow();
    assert!(m.retries > 0, "the stale views must retry");
    assert_fold("retries", &m, &records);
    drop(m);

    // Deadline misses: 64 KiB writes queue behind one another past 20 µs.
    let (world, records) = fold_leg(
        five_servers(Scheme::era_ce_cd(3, 2), 1).deadline(SimDuration::from_micros(20)),
        vec![writes(n, 64 << 10)],
        |_, _| {},
    );
    let m = world.metrics.borrow();
    assert!(m.deadline_misses > 0, "the deadline must be missed");
    assert_fold("deadline misses", &m, &records);
    drop(m);

    // Hedges fired and won: reads around a straggler.
    let (world, records) = fold_leg(
        five_servers(Scheme::era_ce_cd(3, 2), 1)
            .window(2)
            .hedge(HedgeConfig::after(SimDuration::from_micros(4))),
        vec![writes(n, 4096)],
        |world, sim| {
            world
                .cluster
                .slow_server(sim.now(), 2, 8.0, SimDuration::from_micros(20));
            run_workload(world, sim, vec![reads(n)]);
        },
    );
    let m = world.metrics.borrow();
    assert!(m.hedges_won > 0, "the straggler must lose hedge races");
    assert_fold("hedges", &m, &records);
    drop(m);

    // Foreground and repair sheds: an online rebuild under a herd of
    // reads, against a small admission depth on one worker per server.
    let clients = 4;
    let (world, records) = fold_leg(
        EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 5, clients).workers(1),
            Scheme::era_se_sd(3, 2),
        )
        .window(2)
        .admission(AdmissionConfig::depth(2)),
        vec![writes(n, 4096), Vec::new(), Vec::new(), Vec::new()],
        |world, sim| {
            world.cluster.kill_server(DEAD);
            start_repair(world, sim, DEAD);
            enqueue_workload(world, sim, vec![reads(n); clients]);
        },
    );
    let m = world.metrics.borrow();
    assert!(m.sheds_repair > 0, "the repair bound must shed");
    assert!(m.sheds > m.sheds_repair, "the foreground bound must shed");
    assert_fold("sheds", &m, &records);
    drop(m);

    // Repair promotions: degraded reads during a throttled online rebuild.
    let (world, records) = fold_leg(
        five_servers(Scheme::era_ce_cd(3, 2), 1)
            .repair(RepairConfig::default().window(1).bandwidth(100_000_000)),
        vec![writes(n, 4096)],
        |world, sim| {
            world.cluster.kill_server(DEAD);
            start_repair(world, sim, DEAD);
            let mut late_first = reads(n);
            late_first.reverse();
            enqueue_workload(world, sim, vec![late_first]);
        },
    );
    let m = world.metrics.borrow();
    assert!(m.repair_promotions > 0, "degraded reads must promote keys");
    assert_fold("promotions", &m, &records);
    drop(m);

    // Vshard moves: a join under reads.
    let (world, records) = fold_leg(
        five_servers(Scheme::era_ce_cd(3, 2), 1),
        vec![writes(n, 4096)],
        |world, sim| {
            join_server(world, sim).expect("a provisioned spare");
            enqueue_workload(world, sim, vec![reads(n)]);
        },
    );
    let m = world.metrics.borrow();
    assert!(m.vshards_moved > 0, "the join must move vshards");
    assert_fold("join", &m, &records);
}
