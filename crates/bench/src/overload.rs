//! Overload: goodput vs offered load under per-node admission control.
//!
//! The scenario is the classic thundering herd: every client hammers one
//! hot key stored Era-SE-SD, so every GET funnels through the same
//! aggregator server. Without admission control the aggregator's worker
//! queue grows without bound as clients are added — completed-op latency
//! climbs with the queue and goodput collapses into queueing delay. With
//! a bounded queue ([`AdmissionConfig`]) the server refuses work beyond
//! the cap with a fast retryable SHED reply: admitted operations keep a
//! bounded tail, and the goodput curve exhibits a *knee* — flat (all
//! offered load served, zero sheds) up to the capacity of the hot node,
//! then sustained goodput with a rising shed rate past it.
//!
//! [`goodput_table`] sweeps the client count across the knee;
//! [`flash_crowd_point`] ramps client arrivals over a window instead of
//! releasing them at once, exercising the staggered-arrival path
//! ([`driver::enqueue_client`]) that six-figure client counts use.

use std::rc::Rc;

use eckv_core::{driver, ops::Op, AdmissionConfig, EngineConfig, Scheme, World};
use eckv_simnet::{ClusterProfile, SimDuration, Simulation, TraceEvent};
use eckv_store::ClusterConfig;

use crate::{percentile, world_keeping_completions, Completions, Table};

/// The single key the herd fights over.
pub const HOT_KEY: &str = "hot";

/// Hot-value size: small, so the herd saturates the aggregator's CPU
/// (the admission-controlled resource) rather than the NICs, which for
/// large values serialize the herd before the worker queue ever grows.
pub const HOT_VALUE: u64 = 512;

/// Default per-server foreground admission depth used by the sweep
/// (repair traffic gets half of it via [`AdmissionConfig::depth`]).
pub const DEFAULT_DEPTH: u64 = 48;

/// Per-client in-flight window: small, so offered load scales with the
/// client count rather than with one client's pipelining.
pub const WINDOW: usize = 2;

/// One point on the goodput-vs-offered-load curve.
#[derive(Debug, Clone)]
pub struct OverloadPoint {
    /// Offered load: concurrently active clients, each with a window of
    /// [`WINDOW`] in-flight GETs on the hot key.
    pub clients: usize,
    /// Operations that completed successfully.
    pub good_ops: u64,
    /// Goodput: successful operations per virtual second.
    pub goodput: f64,
    /// Shed RPC replies observed by clients.
    pub sheds: u64,
    /// Fraction of admission decisions that shed: `sheds / (ops + sheds)`.
    pub shed_rate: f64,
    /// Median latency of admitted (successful) operations.
    pub p50: SimDuration,
    /// p99 latency of admitted (successful) operations.
    pub p99: SimDuration,
    /// Highest worker-queue depth any server reached.
    pub queue_hwm: u64,
    /// Operations that exhausted their retries.
    pub errors: u64,
}

/// Builds the herd deployment and seeds the hot key (uncontended, from
/// client 0); metrics and the kept completions are reset so the measured
/// phase starts clean.
fn herd_world(
    clients: usize,
    admission: Option<AdmissionConfig>,
) -> (Rc<World>, Completions, Simulation) {
    // One worker per server makes the hot aggregator a clean serial
    // bottleneck, so the knee sits at a low, test-friendly client count.
    let mut cfg = EngineConfig::new(
        ClusterConfig::new(ClusterProfile::RiQdr, 5, clients).workers(1),
        Scheme::era_se_sd(3, 2),
    )
    .window(WINDOW);
    if let Some(a) = admission {
        cfg = cfg.admission(a);
    }
    let (world, done) = world_keeping_completions(cfg);
    let mut sim = Simulation::new();
    let mut seed = vec![Vec::new(); clients];
    seed[0] = vec![Op::set_synthetic(HOT_KEY, HOT_VALUE, 7)];
    driver::run_workload(&world, &mut sim, seed);
    assert_eq!(world.metrics.borrow().errors, 0, "seeding must be clean");
    world.reset_metrics();
    done.borrow_mut().clear();
    (world, done, sim)
}

/// Collapses a finished run into an [`OverloadPoint`].
fn point_from(clients: usize, world: &World, done: &Completions) -> OverloadPoint {
    let m = world.metrics.borrow();
    let mut ok: Vec<SimDuration> = done
        .borrow()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::OpCompleted {
                ok: true, latency, ..
            } => Some(latency),
            _ => None,
        })
        .collect();
    ok.sort();
    let secs = m.elapsed().as_secs_f64();
    let queue_hwm = world
        .cluster
        .servers
        .iter()
        .map(|s| s.borrow().queue_hwm())
        .max()
        .unwrap_or(0);
    OverloadPoint {
        clients,
        good_ops: ok.len() as u64,
        goodput: if secs > 0.0 {
            ok.len() as f64 / secs
        } else {
            0.0
        },
        sheds: m.sheds,
        shed_rate: m.shed_rate(),
        p50: percentile(&ok, 50.0),
        p99: percentile(&ok, 99.0),
        queue_hwm,
        errors: m.errors,
    }
}

/// The thundering herd: `clients` clients each issue `ops_per_client`
/// GETs of [`HOT_KEY`], all released at once.
pub fn herd_point(
    clients: usize,
    ops_per_client: usize,
    admission: Option<AdmissionConfig>,
) -> OverloadPoint {
    let (world, done, mut sim) = herd_world(clients, admission);
    let streams: Vec<Vec<Op>> = (0..clients)
        .map(|_| (0..ops_per_client).map(|_| Op::get(HOT_KEY)).collect())
        .collect();
    driver::run_workload(&world, &mut sim, streams);
    point_from(clients, &world, &done)
}

/// The flash crowd: the same herd, but client arrivals are staggered
/// uniformly across `ramp` instead of released simultaneously — the
/// load *builds* to the peak, as a real flash crowd does.
pub fn flash_crowd_point(
    clients: usize,
    ops_per_client: usize,
    ramp: SimDuration,
    admission: Option<AdmissionConfig>,
) -> OverloadPoint {
    let (world, done, mut sim) = herd_world(clients, admission);
    let step = SimDuration::from_nanos(ramp.as_nanos() / clients.max(1) as u64);
    for c in 0..clients {
        let world2 = world.clone();
        let ops: Vec<Op> = (0..ops_per_client).map(|_| Op::get(HOT_KEY)).collect();
        sim.schedule_in(step * c as u64, move |sim| {
            driver::enqueue_client(&world2, sim, c, ops);
        });
    }
    sim.run();
    point_from(clients, &world, &done)
}

/// The swept client counts: below, around, and past the hot node's knee.
pub fn client_sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![4, 8, 16, 64, 128]
    } else {
        vec![4, 8, 16, 64, 128, 256, 512]
    }
}

/// The goodput-vs-offered-load table with admission enabled at
/// [`DEFAULT_DEPTH`]: flat then knee, shed rate rising past it.
pub fn goodput_table(quick: bool) -> Table {
    let mut t = Table::new(
        "Overload - hot-key thundering herd on one Era-SE-SD aggregator (RI-QDR, 512B value, RS(3,2), admission depth 48)",
        &[
            "clients",
            "goodput ops/s",
            "shed rate",
            "sheds",
            "admitted p50",
            "admitted p99",
            "queue hwm",
            "errors",
        ],
    );
    let ops = if quick { 40 } else { 100 };
    for clients in client_sweep(quick) {
        let p = herd_point(clients, ops, Some(AdmissionConfig::depth(DEFAULT_DEPTH)));
        t.row(vec![
            p.clients.to_string(),
            format!("{:.0}", p.goodput),
            format!("{:.1}%", p.shed_rate * 100.0),
            p.sheds.to_string(),
            p.p50.to_string(),
            p.p99.to_string(),
            p.queue_hwm.to_string(),
            p.errors.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_curve_has_a_knee_and_bounded_admitted_tail() {
        let ops = 40;
        let sweep = client_sweep(true);
        let points: Vec<OverloadPoint> = sweep
            .iter()
            .map(|&c| herd_point(c, ops, Some(AdmissionConfig::depth(DEFAULT_DEPTH))))
            .collect();
        for p in &points {
            assert!(p.good_ops > 0, "{} clients must make progress", p.clients);
        }
        // Below the knee nothing sheds; past it the shed rate is nonzero.
        let pre = &points[0];
        let post = points.last().unwrap();
        assert_eq!(pre.sheds, 0, "lightest load must not shed");
        assert!(post.sheds > 0, "heaviest load must shed");
        // The admission cap bounds what an admitted op can queue behind:
        // the admitted-op p99 past the knee stays within 2x of the last
        // shed-free point's p99.
        let knee = points.iter().rev().find(|p| p.sheds == 0).unwrap();
        assert!(
            post.p99 <= knee.p99 * 2,
            "admitted p99 must stay bounded past the knee: {} vs {} pre-knee",
            post.p99,
            knee.p99
        );
        // The queue high-water mark respects the configured cap where the
        // herd lands (admission is per-request at ingest; concurrent
        // in-service work can push slightly past the instantaneous bound).
        assert!(
            post.queue_hwm <= DEFAULT_DEPTH * 2,
            "bounded queue must hold: hwm {} vs depth {}",
            post.queue_hwm,
            DEFAULT_DEPTH
        );
    }

    #[test]
    fn unbounded_queue_has_no_sheds_and_a_worse_tail() {
        let ops = 40;
        let clients = *client_sweep(true).last().unwrap();
        let capped = herd_point(clients, ops, Some(AdmissionConfig::depth(DEFAULT_DEPTH)));
        let uncapped = herd_point(clients, ops, None);
        assert_eq!(uncapped.sheds, 0, "no admission, no sheds");
        assert_eq!(uncapped.errors, 0, "unbounded queues never refuse");
        assert!(capped.sheds > 0);
        assert!(
            uncapped.p99 > capped.p99,
            "the unbounded queue must show the worse admitted tail: {} vs {}",
            uncapped.p99,
            capped.p99
        );
        assert!(
            uncapped.queue_hwm > capped.queue_hwm,
            "the unbounded queue must grow deeper: {} vs {}",
            uncapped.queue_hwm,
            capped.queue_hwm
        );
    }

    #[test]
    fn flash_crowd_ramp_sheds_at_the_peak() {
        let clients = *client_sweep(true).last().unwrap();
        let p = flash_crowd_point(
            clients,
            40,
            SimDuration::from_nanos(200_000),
            Some(AdmissionConfig::depth(DEFAULT_DEPTH)),
        );
        assert!(p.good_ops > 0);
        assert!(p.sheds > 0, "the crowd peak must exceed the cap");
    }
}
