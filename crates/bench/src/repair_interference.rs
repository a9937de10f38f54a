//! Repair/foreground interference: one server of five dies under a
//! steady YCSB-B load, and the online repair engine rebuilds it while the
//! clients keep going.
//!
//! The tension this measures is the standard one in erasure-coded
//! storage: repair amplification (`k` survivor reads per rebuilt chunk)
//! competes with client traffic for the NICs and for the repair client's
//! CPU. The engine's bandwidth throttle
//! ([`RepairConfig`]) paces the rebuild;
//! the table sweeps the cap from unthrottled down to ~10% of the NIC and
//! reports foreground GET p50/p99 *measured over the operations that
//! completed while the repair was active*, alongside the repair's own
//! completion time.
//!
//! Shape findings asserted by the tests: the 10%-of-NIC throttle keeps
//! the during-repair foreground p99 within 2x of the healthy baseline,
//! the unthrottled rebuild degrades it measurably more, and the throttled
//! rebuild takes correspondingly longer to finish.

use eckv_core::{driver, start_repair, EngineConfig, RepairConfig, Scheme};
use eckv_simnet::{ClusterProfile, OpClass, SimDuration, SimTime, Simulation, TraceEvent};
use eckv_store::ClusterConfig;
use eckv_ycsb::{load_ops, run_ops, Workload, YcsbConfig};

use crate::{percentile, world_keeping_completions, Table};

/// The server that dies and is rebuilt.
pub const FAILED_SERVER: usize = 2;

/// SDSC-Comet effective NIC bandwidth (FDR, ~45 Gbps effective) in bytes
/// per second — the reference the throttle percentages are taken from.
pub const NIC_BYTES_PER_SEC: u64 = 5_625_000_000;

/// The swept throttle settings: label, bytes-per-second cap.
pub fn throttles() -> Vec<(&'static str, Option<u64>)> {
    vec![
        ("unthrottled", None),
        ("25% NIC", Some(NIC_BYTES_PER_SEC / 4)),
        ("10% NIC", Some(NIC_BYTES_PER_SEC / 10)),
    ]
}

/// The YCSB-B deployment under test.
fn ycsb_cfg(quick: bool) -> YcsbConfig {
    YcsbConfig {
        workload: Workload::B,
        record_count: if quick { 120 } else { 400 },
        ops_per_client: if quick { 240 } else { 800 },
        clients: 2,
        value_len: 16 << 10,
        seed: 42,
    }
}

/// One throttle setting's measured interference.
#[derive(Debug, Clone)]
pub struct InterferencePoint {
    /// Row label.
    pub label: &'static str,
    /// Healthy-phase foreground GET median.
    pub healthy_p50: SimDuration,
    /// Healthy-phase foreground GET p99.
    pub healthy_p99: SimDuration,
    /// Foreground GET median over ops completed while the repair ran.
    pub repair_p50: SimDuration,
    /// Foreground GET p99 over ops completed while the repair ran.
    pub repair_p99: SimDuration,
    /// Virtual time the rebuild took to drain its queue.
    pub repair_elapsed: SimDuration,
    /// Keys the rebuild restored.
    pub keys_repaired: u64,
    /// Keys the rebuild lost (must be zero with one failure).
    pub keys_lost: u64,
    /// Keys promoted to the queue front by degraded reads.
    pub promotions: u64,
    /// Foreground ops that completed while the repair was active.
    pub fg_ops_during_repair: u64,
    /// Foreground errors across both phases (must stay zero).
    pub errors: u64,
}

/// Runs one throttle setting: load, a healthy measured pass, then kill
/// [`FAILED_SERVER`] and run the same foreground stream concurrently with
/// the online rebuild.
pub fn measure(label: &'static str, bandwidth: Option<u64>, quick: bool) -> InterferencePoint {
    let ycsb = ycsb_cfg(quick);
    let mut repair_cfg = RepairConfig::default().window(8);
    if let Some(b) = bandwidth {
        repair_cfg = repair_cfg.bandwidth(b);
    }
    let (world, done) = world_keeping_completions(
        EngineConfig::new(
            ClusterConfig::new(ClusterProfile::SdscComet, 5, ycsb.clients),
            Scheme::era_se_sd(3, 2),
        )
        // Concurrent YCSB updates make stale-but-intact reads legitimate.
        .validate(false)
        // A moderate window keeps client-side queueing from drowning the
        // interference signal in the latencies.
        .window(4)
        .repair(repair_cfg),
    );
    let mut sim = Simulation::new();

    driver::run_workload(&world, &mut sim, load_ops(&ycsb));
    assert_eq!(world.metrics.borrow().errors, 0, "load must be clean");

    // Healthy baseline: the exact same request stream the repair phase
    // replays (same seed, byte-identical op sequence).
    world.reset_metrics();
    driver::run_workload(&world, &mut sim, run_ops(&ycsb));
    let (healthy_p50, healthy_p99, healthy_errors) = {
        let m = world.metrics.borrow();
        let s = m.get_summary();
        (s.percentile(50.0), s.percentile(99.0), m.errors)
    };

    // Kill one server and rebuild it online under the same load.
    world.reset_metrics();
    done.borrow_mut().clear();
    world.cluster.kill_server(FAILED_SERVER);
    let repair_started: SimTime = sim.now();
    start_repair(&world, &mut sim, FAILED_SERVER);
    driver::enqueue_workload(&world, &mut sim, run_ops(&ycsb));
    sim.run();

    let report = world
        .last_repair_report()
        .expect("the rebuild runs to completion");
    let repair_end = repair_started + report.elapsed;
    let m = world.metrics.borrow();
    // Foreground GETs that completed while the rebuild was active.
    let mut during: Vec<SimDuration> = done
        .borrow()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::OpCompleted {
                op: OpClass::Get,
                ok: true,
                latency,
                ..
            } if r.at <= repair_end => Some(latency),
            _ => None,
        })
        .collect();
    during.sort();
    InterferencePoint {
        label,
        healthy_p50,
        healthy_p99,
        repair_p50: percentile(&during, 50.0),
        repair_p99: percentile(&during, 99.0),
        repair_elapsed: report.elapsed,
        keys_repaired: report.keys_repaired,
        keys_lost: report.keys_lost,
        promotions: m.repair_promotions,
        fg_ops_during_repair: m.fg_ops_during_repair,
        errors: healthy_errors + m.errors,
    }
}

/// The repair-interference table: foreground tail vs repair completion
/// across throttle settings.
pub fn interference_table(quick: bool) -> Table {
    let mut t = Table::new(
        "Repair interference - YCSB-B during online rebuild of 1 of 5 servers (SDSC-Comet, 16K values, RS(3,2))",
        &[
            "throttle",
            "healthy p50",
            "healthy p99",
            "repair p50",
            "repair p99",
            "repair elapsed",
            "keys repaired",
            "promotions",
            "errors",
        ],
    );
    for (label, bandwidth) in throttles() {
        let p = measure(label, bandwidth, quick);
        t.row(vec![
            p.label.to_owned(),
            p.healthy_p50.to_string(),
            p.healthy_p99.to_string(),
            p.repair_p50.to_string(),
            p.repair_p99.to_string(),
            p.repair_elapsed.to_string(),
            format!("{} ({} lost)", p.keys_repaired, p.keys_lost),
            p.promotions.to_string(),
            p.errors.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throttled_repair_protects_the_foreground_tail() {
        // The PR's acceptance finding, all three legs:
        //  1. at ~10% of NIC bandwidth the during-repair foreground GET
        //     p99 stays within 2x of the healthy baseline,
        //  2. the unthrottled rebuild degrades it measurably more,
        //  3. and pays for it with a correspondingly longer rebuild.
        let unthrottled = measure("unthrottled", None, true);
        let throttled = measure("10% NIC", Some(NIC_BYTES_PER_SEC / 10), true);

        assert_eq!(unthrottled.errors, 0, "no foreground op may fail");
        assert_eq!(throttled.errors, 0, "no foreground op may fail");
        assert_eq!(unthrottled.keys_lost, 0);
        assert_eq!(throttled.keys_lost, 0);
        assert!(unthrottled.keys_repaired > 0);
        assert!(
            unthrottled.fg_ops_during_repair > 0 && throttled.fg_ops_during_repair > 0,
            "the foreground must actually overlap the rebuild"
        );

        assert!(
            throttled.repair_p99 <= throttled.healthy_p99 * 2,
            "10% throttle must keep p99 within 2x of healthy: {} vs {}",
            throttled.repair_p99,
            throttled.healthy_p99
        );
        assert!(
            unthrottled.repair_p99 > throttled.repair_p99,
            "unthrottled repair must degrade the tail more: {} vs {}",
            unthrottled.repair_p99,
            throttled.repair_p99
        );
        assert!(
            throttled.repair_elapsed > unthrottled.repair_elapsed,
            "the throttle must slow the rebuild down: {} vs {}",
            throttled.repair_elapsed,
            unthrottled.repair_elapsed
        );
    }

    #[test]
    fn degraded_reads_promote_hot_keys() {
        // YCSB-B's Zipfian read mix hits keys still awaiting rebuild;
        // those degraded reads must promote their keys in the queue.
        let p = measure("10% NIC", Some(NIC_BYTES_PER_SEC / 10), true);
        assert!(
            p.promotions > 0,
            "Zipfian-hot degraded reads must promote keys"
        );
    }
}
