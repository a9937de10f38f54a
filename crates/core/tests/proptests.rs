//! Property tests of the engine: arbitrary workloads complete, metrics are
//! conserved, and resilience invariants hold under random failures.

use eckv_core::{driver, ops::Op, EngineConfig, Scheme, World};
use eckv_simnet::check::{check_seq, vec_of};
use eckv_simnet::{ClusterProfile, SimRng, Simulation};
use eckv_store::ClusterConfig;

fn gen_scheme(rng: &mut SimRng) -> Scheme {
    match rng.index(8) {
        0 => Scheme::NoRep,
        1 => Scheme::SyncRep {
            replicas: 2 + rng.index(2),
        },
        2 => Scheme::AsyncRep {
            replicas: 2 + rng.index(2),
        },
        3 => Scheme::era_ce_cd(3, 2),
        4 => Scheme::era_se_sd(3, 2),
        5 => Scheme::era_se_cd(3, 2),
        6 => Scheme::era_ce_sd(3, 2),
        _ => Scheme::hybrid(rng.range_u64(1, 65_536), 3, 2),
    }
}

#[test]
fn every_op_completes_exactly_once() {
    check_seq(
        24,
        |rng| {
            let shape = (gen_scheme(rng), 1 + rng.index(23));
            (shape, vec_of(rng, 1..40, |r| r.range_u64(1, 100_000)))
        },
        |((scheme, window), sizes)| {
            let world = World::new(
                EngineConfig::new(ClusterConfig::new(ClusterProfile::RiQdr, 5, 1), *scheme)
                    .window(*window),
            );
            let mut sim = Simulation::new();
            let writes: Vec<Op> = sizes
                .iter()
                .enumerate()
                .map(|(i, &len)| Op::set_synthetic(format!("p{i}"), len, i as u64))
                .collect();
            let n = writes.len() as u64;
            driver::run_workload(&world, &mut sim, vec![writes]);
            let reads: Vec<Op> = (0..sizes.len()).map(|i| Op::get(format!("p{i}"))).collect();
            driver::run_workload(&world, &mut sim, vec![reads]);

            let m = world.metrics.borrow();
            assert_eq!(m.set_count, n);
            assert_eq!(m.get_count, n);
            assert_eq!(m.errors, 0, "{scheme}");
            assert_eq!(m.integrity_errors, 0);
            let written: u64 = sizes.iter().sum();
            assert_eq!(m.bytes_written, written);
            assert_eq!(m.bytes_read, written);
        },
    );
}

#[test]
fn reads_survive_any_failures_within_budget() {
    // All 32 kill patterns of the 5-server cluster.
    for kill_mask in 0u32..1 << 5 {
        let world = World::new(EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
            Scheme::era_ce_cd(3, 2),
        ));
        let mut sim = Simulation::new();
        let seed = u64::from(kill_mask) << 8;
        let writes: Vec<Op> = (0..10)
            .map(|i| Op::set_synthetic(format!("s{i}"), 2048, seed + i))
            .collect();
        driver::run_workload(&world, &mut sim, vec![writes]);

        let kills: Vec<usize> = (0..5).filter(|&s| kill_mask >> s & 1 == 1).collect();
        for &k in &kills {
            world.cluster.kill_server(k);
        }
        world.reset_metrics();
        let reads: Vec<Op> = (0..10).map(|i| Op::get(format!("s{i}"))).collect();
        driver::run_workload(&world, &mut sim, vec![reads]);

        let m = world.metrics.borrow();
        // Beyond the budget, failures must surface as errors — never as
        // silently corrupt data.
        assert_eq!(m.integrity_errors, 0, "kills {kills:?}");
        if kills.len() <= 2 {
            assert_eq!(m.errors, 0, "kills {kills:?} must be tolerated");
        }
    }
}

#[test]
fn latency_is_positive_and_bounded_by_elapsed() {
    check_seq(
        24,
        |rng| ((), vec_of(rng, 1..20, |r| r.range_u64(1, 50_000))),
        |(_, sizes)| {
            let world = World::new(EngineConfig::new(
                ClusterConfig::new(ClusterProfile::SdscComet, 5, 1),
                Scheme::AsyncRep { replicas: 3 },
            ));
            let mut sim = Simulation::new();
            let writes: Vec<Op> = sizes
                .iter()
                .enumerate()
                .map(|(i, &len)| Op::set_synthetic(format!("b{i}"), len, i as u64))
                .collect();
            driver::run_workload(&world, &mut sim, vec![writes]);
            let m = world.metrics.borrow();
            assert!(m.set_latency.min().as_nanos() > 0);
            assert!(m.set_latency.max() <= m.elapsed());
        },
    );
}
