//! Admission control end to end: past the saturation knee the store
//! sheds instead of queueing without bound (and the admitted tail stays
//! bounded), with admission disabled the machinery is invisible — traces
//! are deterministic and contain no shed events — and when both traffic
//! classes contend, repair is shed strictly before foreground.

use std::cell::RefCell;
use std::rc::Rc;

use eckv::prelude::*;
use eckv::simnet::{JsonlSink, Trace, TraceBus, TraceEvent, TraceRecord};

const HOT_KEY: &str = "hot";
const DEPTH: u64 = 48;

/// A thundering-herd deployment: every client GETs one hot 512B key
/// stored Era-SE-SD, so the whole herd funnels through one single-worker
/// aggregator.
fn herd_engine(clients: usize) -> EngineConfig {
    EngineConfig::new(
        ClusterConfig::new(ClusterProfile::RiQdr, 5, clients).workers(1),
        Scheme::era_se_sd(3, 2),
    )
    .window(2)
}

/// Runs the herd and returns `(sheds, admitted p99)`.
fn herd(clients: usize, admission: Option<AdmissionConfig>) -> (u64, SimDuration) {
    let mut cfg = herd_engine(clients);
    if let Some(a) = admission {
        cfg = cfg.admission(a);
    }
    // Admitted-op latencies, read off the completed-op event stream.
    let ok = Rc::new(RefCell::new(Vec::new()));
    let keep = ok.clone();
    let mut bus = TraceBus::new();
    bus.add_sink(Rc::new(RefCell::new(move |r: &TraceRecord| {
        if let TraceEvent::OpCompleted {
            ok: true, latency, ..
        } = r.event
        {
            keep.borrow_mut().push(latency);
        }
    })));
    let world = World::new_traced(cfg, Trace::from_bus(bus));
    let mut sim = Simulation::new();
    let mut seed = vec![Vec::new(); clients];
    seed[0] = vec![Op::set_synthetic(HOT_KEY, 512, 7)];
    run_workload(&world, &mut sim, seed);
    world.reset_metrics();
    ok.borrow_mut().clear();
    let streams: Vec<Vec<Op>> = (0..clients)
        .map(|_| (0..40).map(|_| Op::get(HOT_KEY)).collect())
        .collect();
    run_workload(&world, &mut sim, streams);
    let m = world.metrics.borrow();
    let mut ok = ok.take();
    ok.sort();
    assert!(!ok.is_empty(), "the herd must make progress");
    let idx = ((ok.len() - 1) as f64 * 0.99).round() as usize;
    (m.sheds, ok[idx])
}

#[test]
fn sheds_past_the_knee_keep_the_admitted_tail_bounded() {
    // Below the hot aggregator's capacity nothing sheds; well past it the
    // shed rate is nonzero but admitted operations queue behind at most
    // `DEPTH` others, so their p99 stays within 2x of the pre-knee p99
    // instead of growing linearly with the client count.
    let adm = Some(AdmissionConfig::depth(DEPTH));
    let (pre_sheds, pre_p99) = herd(8, adm);
    let (post_sheds, post_p99) = herd(64, adm);
    assert_eq!(pre_sheds, 0, "below the knee nothing sheds");
    assert!(post_sheds > 0, "past the knee the store must shed");
    assert!(
        post_p99 <= pre_p99 * 2,
        "admitted p99 must stay bounded: {post_p99} vs {pre_p99} pre-knee"
    );

    // The same overload without admission: no sheds, and the tail blows
    // past the capped run's as the queue absorbs the whole herd.
    let (unbounded_sheds, unbounded_p99) = herd(64, None);
    assert_eq!(unbounded_sheds, 0, "no admission, no sheds");
    assert!(
        unbounded_p99 > post_p99,
        "the unbounded tail must be worse: {unbounded_p99} vs {post_p99}"
    );
}

/// One pinned mixed run (writes then reads) with tracing; returns the
/// JSONL trace and the final shed counter.
fn traced_run(admission: Option<AdmissionConfig>, clients: usize) -> (String, u64) {
    let sink = Rc::new(RefCell::new(JsonlSink::new()));
    let mut bus = TraceBus::new();
    bus.add_sink(sink.clone());
    let mut cfg = herd_engine(clients);
    if let Some(a) = admission {
        cfg = cfg.admission(a);
    }
    let world = World::new_traced(cfg, Trace::from_bus(bus));
    let mut sim = Simulation::new();
    let mut seed = vec![Vec::new(); clients];
    seed[0] = vec![Op::set_synthetic(HOT_KEY, 512, 7)];
    run_workload(&world, &mut sim, seed);
    let streams: Vec<Vec<Op>> = (0..clients)
        .map(|_| (0..10).map(|_| Op::get(HOT_KEY)).collect())
        .collect();
    run_workload(&world, &mut sim, streams);
    let sheds = world.metrics.borrow().sheds;
    let trace = sink.borrow().contents().to_string();
    (trace, sheds)
}

#[test]
fn disabled_admission_is_invisible_in_the_trace() {
    // With no AdmissionConfig the bounded-queue machinery must not
    // perturb the simulation: same-seed traces stay byte-identical and
    // contain no shed events. The capped overloaded run is the positive
    // control proving the event names actually appear when shedding.
    let (trace_a, sheds_a) = traced_run(None, 32);
    let (trace_b, _) = traced_run(None, 32);
    assert_eq!(sheds_a, 0);
    assert_eq!(
        trace_a, trace_b,
        "admission-disabled traces must be byte-identical across runs"
    );
    for event in ["\"event\":\"op_shed\"", "\"event\":\"queue_capped\""] {
        assert!(
            !trace_a.contains(event),
            "admission-disabled trace must not contain {event}"
        );
    }

    let (capped, sheds) = traced_run(Some(AdmissionConfig::depth(4)), 32);
    assert!(sheds > 0);
    assert!(capped.contains("\"event\":\"op_shed\""));
    assert!(capped.contains("\"event\":\"queue_capped\""));
}

#[test]
fn repair_is_shed_before_foreground() {
    // A foreground-friendly cap (deep foreground bound, repair bound of
    // one) under a mixed load: the rebuild's fetches land on busy
    // survivors and are refused, while no foreground request ever sheds.
    // Shed repair keys are requeued, so the rebuild still completes once
    // the foreground load drains.
    let clients = 4;
    let world = World::new(
        EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 5, clients).workers(1),
            Scheme::era_se_sd(3, 2),
        )
        .window(2)
        .repair(RepairConfig::default().window(4))
        .admission(AdmissionConfig::depth(10_000).repair_depth(1)),
    );
    let mut sim = Simulation::new();
    let n = 24;
    let writes: Vec<Op> = (0..n)
        .map(|i| Op::set_synthetic(format!("k{i:02}"), 4 << 10, i as u64))
        .collect();
    run_workload(&world, &mut sim, vec![writes, vec![], vec![], vec![]]);
    assert_eq!(world.metrics.borrow().errors, 0, "load must be clean");

    world.reset_metrics();
    world.cluster.kill_server(2);
    start_repair(&world, &mut sim, 2);
    let reads: Vec<Vec<Op>> = (0..clients)
        .map(|_| (0..n).map(|i| Op::get(format!("k{i:02}"))).collect())
        .collect();
    run_workload(&world, &mut sim, reads);

    let m = world.metrics.borrow();
    assert_eq!(m.errors, 0, "foreground reads stay clean during repair");
    assert!(m.sheds_repair > 0, "the strict repair bound must shed");
    assert_eq!(
        m.sheds, m.sheds_repair,
        "every shed must be a repair shed — foreground is never refused"
    );
    drop(m);
    let report = world.last_repair_report().expect("the rebuild must finish");
    assert_eq!(report.keys_lost, 0, "shed keys are requeued, not lost");
}
