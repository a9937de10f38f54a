//! The SSD-assisted deployment (the paper's Boldio storage nodes carry a
//! PCIe-SSD): RAM overflow spills to flash instead of being lost.

use eckv::prelude::*;
use eckv::store::SsdSpec;

fn world(scheme: Scheme, ram: u64, ssd: Option<u64>) -> std::rc::Rc<World> {
    let mut cluster = ClusterConfig::new(ClusterProfile::RiQdr, 5, 2)
        .client_nodes(2)
        .server_memory(ram);
    if let Some(cap) = ssd {
        cluster = cluster.ssd(SsdSpec::RI_QDR_PCIE.with_capacity(cap));
    }
    World::new(EngineConfig::new(cluster, scheme).validate(false))
}

fn write_then_read_all(world: &std::rc::Rc<World>, n: usize, len: u64) -> (u64, u64) {
    let mut sim = Simulation::new();
    let writes: Vec<Vec<Op>> = (0..2)
        .map(|c| {
            (0..n)
                .map(|i| Op::set_synthetic(format!("c{c}-k{i}"), len, (c * n + i) as u64))
                .collect()
        })
        .collect();
    eckv::core::driver::run_workload(world, &mut sim, writes);
    world.reset_metrics();
    let reads: Vec<Vec<Op>> = (0..2)
        .map(|c| (0..n).map(|i| Op::get(format!("c{c}-k{i}"))).collect())
        .collect();
    eckv::core::driver::run_workload(world, &mut sim, reads);
    let m = world.metrics.borrow();
    (m.errors, m.elapsed().as_nanos())
}

#[test]
fn ram_overflow_spills_to_flash_instead_of_losing_data() {
    // 2 x 150 x 1 MB x3 replication = ~900 MB charged into 5 x 64 MB RAM.
    let ram_only = world(Scheme::AsyncRep { replicas: 3 }, 64 << 20, None);
    let (lost_reads, _) = write_then_read_all(&ram_only, 150, 1 << 20);
    assert!(
        lost_reads > 0,
        "RAM-only must lose data under this pressure"
    );

    let assisted = world(Scheme::AsyncRep { replicas: 3 }, 64 << 20, Some(4 << 30));
    let (errors, _) = write_then_read_all(&assisted, 150, 1 << 20);
    assert_eq!(errors, 0, "the flash tier must absorb the overflow");
    // And the spill really lives on flash:
    let ssd_items: u64 = assisted
        .cluster
        .servers
        .iter()
        .map(|s| s.borrow().ssd_stats().expect("ssd attached").items)
        .sum();
    assert!(ssd_items > 0, "victims must be on flash");
}

#[test]
fn flash_reads_cost_more_than_ram_reads() {
    // Same data set fully in RAM vs mostly on flash: the flash run's read
    // phase must be slower (flash latency + device bandwidth).
    let roomy = world(Scheme::NoRep, 2 << 30, Some(4 << 30));
    let (e1, ram_time) = write_then_read_all(&roomy, 120, 1 << 20);
    assert_eq!(e1, 0);

    let tight = world(Scheme::NoRep, 16 << 20, Some(4 << 30));
    let (e2, flash_time) = write_then_read_all(&tight, 120, 1 << 20);
    assert_eq!(e2, 0);
    // Reads are wire-dominated (1 MB transfer ~322 us at QDR); the flash
    // hop adds device latency + ~400 us of device bandwidth on top.
    assert!(
        flash_time as f64 > ram_time as f64 * 1.15,
        "flash-served reads ({flash_time}ns) should clearly exceed RAM ({ram_time}ns)"
    );
}

#[test]
fn flash_overflow_is_finally_lost() {
    // RAM 16 MB + flash 32 MB per server cannot hold 2 x 120 MB x 3.
    let w = world(Scheme::AsyncRep { replicas: 3 }, 16 << 20, Some(32 << 20));
    let (errors, _) = write_then_read_all(&w, 120, 1 << 20);
    assert!(errors > 0, "overflowing both tiers must surface as misses");
}

#[test]
fn erasure_with_small_ram_beats_replication_with_flash_fallback() {
    // The paper's economics restated with the SSD tier: RS(3,2) keeps the
    // working set in RAM where 3x replication is pushed to flash.
    let rep = world(Scheme::AsyncRep { replicas: 3 }, 96 << 20, Some(4 << 30));
    let (e_rep, t_rep) = write_then_read_all(&rep, 150, 1 << 20);
    assert_eq!(e_rep, 0);

    let era = world(Scheme::era_ce_cd(3, 2), 96 << 20, Some(4 << 30));
    let (e_era, t_era) = write_then_read_all(&era, 150, 1 << 20);
    assert_eq!(e_era, 0);

    assert!(
        t_era < t_rep,
        "era reads from RAM ({t_era}ns) should beat rep reads from flash ({t_rep}ns)"
    );
}

#[test]
fn a_coordinators_own_chunk_spills_to_flash_and_is_read_back() {
    // 2 x 150 x 1 MB under RS(3,2) charges ~500 MB into 5 x 64 MB RAM, so
    // most chunks spill — the encoder's and the aggregator's own included.
    for scheme in [
        Scheme::era_ce_cd(3, 2),
        Scheme::era_se_sd(3, 2),
        Scheme::era_se_cd(3, 2),
        Scheme::era_ce_sd(3, 2),
    ] {
        let w = world(scheme, 64 << 20, Some(4 << 30));
        let (failed, _) = write_then_read_all(&w, 150, 1 << 20);
        let degraded = w.metrics.borrow().get_degraded_count;
        assert_eq!(
            (failed, degraded),
            (0, 0),
            "{}: no chunk may be lost to RAM eviction or missed on flash",
            scheme.label()
        );
    }
}
