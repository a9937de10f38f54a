//! Memory pressure and eviction behaviour across the cluster (the
//! substrate of Figure 10).

use eckv::prelude::*;

fn pressured_world(scheme: Scheme, server_mem: u64) -> std::rc::Rc<World> {
    World::new(
        EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 5, 4)
                .client_nodes(2)
                .server_memory(server_mem),
            scheme,
        )
        .validate(false),
    )
}

fn write_volume(world: &std::rc::Rc<World>, per_client: usize, value_len: u64) {
    let mut sim = Simulation::new();
    let streams: Vec<Vec<Op>> = (0..4)
        .map(|c| {
            (0..per_client)
                .map(|i| Op::set_synthetic(format!("p{c}-{i}"), value_len, (c * 10_000 + i) as u64))
                .collect()
        })
        .collect();
    eckv::core::driver::run_workload(world, &mut sim, streams);
}

#[test]
fn under_capacity_no_evictions() {
    let world = pressured_world(Scheme::AsyncRep { replicas: 3 }, 1 << 30);
    write_volume(&world, 50, 1 << 20); // 200 MB x3 into 5 GB
    let r = world.memory_report();
    assert_eq!(r.evictions, 0);
    assert_eq!(r.evicted_bytes, 0);
    assert!(r.pct_used() > 5.0 && r.pct_used() < 30.0, "{r:?}");
}

#[test]
fn over_capacity_replication_evicts_erasure_does_not() {
    // 4 clients x 120 x 1 MB = 480 MB of data. x3 replication wants
    // ~1.5 GB of the 1 GB aggregate; RS(3,2) wants ~0.9 GB.
    let mem = 200 << 20; // 200 MB per server, 1 GB aggregate
    let rep_world = pressured_world(Scheme::AsyncRep { replicas: 3 }, mem);
    write_volume(&rep_world, 120, 1 << 20);
    let rep = rep_world.memory_report();
    assert!(rep.evictions > 0, "replication must evict: {rep:?}");
    assert!(rep.pct_used() > 85.0, "{rep:?}");

    let era_world = pressured_world(Scheme::era_ce_cd(3, 2), mem);
    write_volume(&era_world, 120, 1 << 20);
    let era = era_world.memory_report();
    assert_eq!(era.evictions, 0, "erasure fits: {era:?}");
    assert!(era.pct_used() < rep.pct_used());
}

#[test]
fn evicted_values_read_as_misses_not_corruption() {
    let world = pressured_world(Scheme::AsyncRep { replicas: 3 }, 64 << 20);
    write_volume(&world, 100, 1 << 20);
    let r = world.memory_report();
    assert!(r.evictions > 0);

    // Read everything back: early keys were evicted -> errors (misses),
    // but never integrity failures.
    let mut sim = Simulation::new();
    world.reset_metrics();
    let reads: Vec<Vec<Op>> = (0..4)
        .map(|c| (0..100).map(|i| Op::get(format!("p{c}-{i}"))).collect())
        .collect();
    eckv::core::driver::run_workload(&world, &mut sim, reads);
    let m = world.metrics.borrow();
    assert!(m.errors > 0, "some reads must miss after eviction");
    assert!(m.errors < m.get_count, "recent keys must still hit");
    assert_eq!(m.integrity_errors, 0);
}

#[test]
fn aggregate_stats_are_consistent() {
    let world = pressured_world(Scheme::era_ce_cd(3, 2), 1 << 30);
    write_volume(&world, 40, 1 << 20);
    let agg = world.cluster.aggregate_stats();
    // Every set stores k+m = 5 chunks.
    assert_eq!(agg.sets, 4 * 40 * 5);
    assert_eq!(agg.items, 4 * 40 * 5);
    let per_server: Vec<u64> = world
        .cluster
        .servers
        .iter()
        .map(|s| s.borrow().stats().items)
        .collect();
    assert_eq!(per_server.iter().sum::<u64>(), agg.items);
    // Chunk placement touches all five servers roughly evenly.
    for (i, &n) in per_server.iter().enumerate() {
        assert!(n > 0, "server {i} got no chunks: {per_server:?}");
    }
}

#[test]
fn a_set_too_large_for_server_memory_fails_and_drops_the_old_value() {
    // 1 MB values split into ~350 KB chunks cannot fit a 256 KB server at
    // all; a small first version of the key fits easily.
    for scheme in [Scheme::era_ce_cd(3, 2), Scheme::era_se_cd(3, 2)] {
        let world = pressured_world(scheme, 256 << 10);
        let mut sim = Simulation::new();
        let run = |sim: &mut Simulation, op: Op| {
            world.reset_metrics();
            eckv::core::driver::run_workload(&world, sim, vec![vec![op]]);
            let m = world.metrics.borrow();
            assert_eq!(m.integrity_errors, 0, "{scheme:?}");
            m.errors
        };
        assert_eq!(run(&mut sim, Op::set_synthetic("k", 4 << 10, 1)), 0);
        assert_eq!(run(&mut sim, Op::get("k")), 0, "{scheme:?}: small value");
        assert_eq!(
            run(&mut sim, Op::set_synthetic("k", 1 << 20, 2)),
            1,
            "{scheme:?}: a value no server can hold must fail its Set"
        );
        assert_eq!(
            run(&mut sim, Op::get("k")),
            1,
            "{scheme:?}: the overwritten value must not be served"
        );
        assert_eq!(world.cluster.aggregate_stats().items, 0, "{scheme:?}");
    }
}
