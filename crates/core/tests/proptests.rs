//! Property tests of the engine: arbitrary workloads complete, metrics are
//! conserved, and resilience invariants hold under random failures.

use eckv_core::{driver, ops::Op, EngineConfig, Scheme, World};
use eckv_simnet::check::{check, check_seq, vec_of};
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

/// A lost synthetic chunk rebuilds from any one survivor: for every codec
/// shape, every survivor `i` and every lost index `j`, chunk `j` derived
/// from chunk `i` is the chunk `j` the SET wrote.
#[test]
fn any_synthetic_survivor_rebuilds_every_lost_chunk() {
    use eckv_erasure::{CodecKind, Striper};
    use eckv_store::Payload;

    // Every kind at (3,2) and at a wider k = 6: (6,3), or (6,2) for
    // R6-Lib, which has two parities only.
    let shapes = |kind| match kind {
        CodecKind::Liberation => [(3, 2), (6, 2)],
        _ => [(3, 2), (6, 3)],
    };
    let stripers: Vec<Striper> = CodecKind::ALL
        .into_iter()
        .flat_map(|kind| shapes(kind).map(|(k, m)| kind.build(k, m).expect("valid shape")))
        .map(Striper::from)
        .collect();
    check(
        64,
        |rng| (rng.range_u64(0, 1 << 30), rng.next_u64()),
        |&(len, seed)| {
            let parent = Payload::synthetic(len, seed);
            for striper in &stripers {
                let n = striper.codec().total_shards();
                let shard_len = striper.shard_len_for(len as usize) as u64;
                for i in 0..n {
                    let survivor = parent.shard(i, shard_len);
                    for j in 0..n {
                        assert_eq!(
                            survivor.sibling_shard(i, j),
                            parent.shard(j, shard_len),
                            "{} len {len}: chunk {j} from chunk {i}",
                            striper.codec().name()
                        );
                    }
                }
            }
        },
    );
}

/// With validation off the engine keeps no write record: loads, reads, a
/// rebuild and a join all run on what the servers hold, on every scheme.
#[test]
fn without_validation_the_write_record_stays_empty() {
    use eckv_core::{join_server, repair_server};

    let schemes = [
        Scheme::NoRep,
        Scheme::SyncRep { replicas: 3 },
        Scheme::AsyncRep { replicas: 3 },
        Scheme::era_ce_cd(3, 2),
        Scheme::era_se_sd(3, 2),
        Scheme::era_se_cd(3, 2),
        Scheme::era_ce_sd(3, 2),
        Scheme::hybrid(4096, 3, 2),
    ];
    for scheme in schemes {
        let cluster = ClusterConfig::new(ClusterProfile::RiQdr, 5, 1).max_servers(6);
        let world = World::new(EngineConfig::new(cluster, scheme).validate(false));
        let mut sim = Simulation::new();
        let keys: Vec<String> = (0..40).map(|i| format!("k{i}")).collect();
        let writes = keys
            .iter()
            .enumerate()
            .map(|(i, key)| Op::set_synthetic(key.clone(), 1000 + 200 * i as u64, i as u64))
            .collect();
        driver::run_workload(&world, &mut sim, vec![writes]);
        let reads = keys.iter().cloned().map(Op::get).collect();
        driver::run_workload(&world, &mut sim, vec![reads]);
        assert_eq!(world.metrics.borrow().errors, 0, "{scheme}");

        world.cluster.kill_server(1);
        let report = repair_server(&world, &mut sim, 1);
        // An unreplicated key leaves no survivor to rebuild it from.
        let rebuilt = scheme != Scheme::NoRep;
        assert_eq!(report.keys_repaired > 0, rebuilt, "{scheme}");
        join_server(&world, &mut sim).expect("a spare is provisioned");
        sim.run();
        let moved = world.last_repair_report().expect("the join migrated keys");
        assert!(moved.keys_repaired > 0, "{scheme}: the join moved keys");
        assert!(world.expected.borrow().is_empty(), "{scheme}");
    }
}
