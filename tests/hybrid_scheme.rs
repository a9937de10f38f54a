//! The hybrid replication/erasure scheme (the paper's future work).

use eckv::prelude::*;

const THRESHOLD: u64 = 16 << 10;

fn hybrid_world() -> std::rc::Rc<World> {
    World::new(EngineConfig::new(
        ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
        Scheme::hybrid(THRESHOLD, 3, 2),
    ))
}

#[test]
fn small_and_large_values_roundtrip() {
    let world = hybrid_world();
    let mut sim = Simulation::new();
    let small: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
    let large: Vec<u8> = (0..100_000u32).map(|i| (i % 249) as u8).collect();
    let writes = vec![
        Op::set_inline("small", small),
        Op::set_inline("large", large),
    ];
    eckv::core::driver::run_workload(&world, &mut sim, vec![writes]);
    world.reset_metrics();
    eckv::core::driver::run_workload(
        &world,
        &mut sim,
        vec![vec![Op::get("small"), Op::get("large")]],
    );
    let m = world.metrics.borrow();
    assert_eq!(m.errors, 0);
    assert_eq!(m.integrity_errors, 0);
}

#[test]
fn small_values_are_replicated_large_are_chunked() {
    let world = hybrid_world();
    let mut sim = Simulation::new();
    let writes = vec![
        Op::set_synthetic("tiny", 1 << 10, 1),
        Op::set_synthetic("big", 1 << 20, 2),
    ];
    eckv::core::driver::run_workload(&world, &mut sim, vec![writes]);
    // The replicated key exists verbatim on its first three placement
    // servers; the chunked key exists only as chunks.
    let tiny_targets = world
        .cluster
        .ring
        .servers_for(b"tiny", 3)
        .expect("3 fit on 5");
    for &s in &tiny_targets {
        assert!(
            world.cluster.servers[s]
                .borrow()
                .store()
                .contains(&"tiny".into()),
            "replica missing on server {s}"
        );
    }
    let big_targets = world
        .cluster
        .ring
        .servers_for(b"big", 5)
        .expect("5 fit on 5");
    assert!(!world.cluster.servers[big_targets[0]]
        .borrow()
        .store()
        .contains(&"big".into()));
    for (i, &s) in big_targets.iter().enumerate() {
        assert!(
            world.cluster.servers[s]
                .borrow()
                .store()
                .contains(&StoreKey::chunk("big".into(), i)),
            "chunk {i} missing on server {s}"
        );
    }
}

#[test]
fn hybrid_survives_two_failures_for_both_classes() {
    for (a, b) in [(0usize, 1usize), (1, 3), (2, 4)] {
        let world = hybrid_world();
        let mut sim = Simulation::new();
        let mut writes = Vec::new();
        for i in 0..8 {
            writes.push(Op::set_synthetic(format!("s{i}"), 4 << 10, i));
            writes.push(Op::set_synthetic(format!("l{i}"), 256 << 10, 100 + i));
        }
        eckv::core::driver::run_workload(&world, &mut sim, vec![writes]);
        world.cluster.kill_server(a);
        world.cluster.kill_server(b);
        world.reset_metrics();
        let mut reads = Vec::new();
        for i in 0..8 {
            reads.push(Op::get(format!("s{i}")));
            reads.push(Op::get(format!("l{i}")));
        }
        eckv::core::driver::run_workload(&world, &mut sim, vec![reads]);
        let m = world.metrics.borrow();
        assert_eq!(m.errors, 0, "failures ({a},{b})");
        assert_eq!(m.integrity_errors, 0);
    }
}

#[test]
fn hybrid_memory_sits_between_rep_and_era() {
    fn used(scheme: Scheme, len: u64) -> u64 {
        let world = World::new(EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
            scheme,
        ));
        let mut sim = Simulation::new();
        let writes: Vec<Op> = (0..40)
            .map(|i| Op::set_synthetic(format!("k{i}"), len, i))
            .collect();
        eckv::core::driver::run_workload(&world, &mut sim, vec![writes]);
        world.memory_report().used_bytes
    }
    // Large values: hybrid behaves like erasure.
    let rep = used(Scheme::AsyncRep { replicas: 3 }, 256 << 10);
    let era = used(Scheme::era_ce_cd(3, 2), 256 << 10);
    let hyb = used(Scheme::hybrid(THRESHOLD, 3, 2), 256 << 10);
    assert!(hyb < rep);
    assert!((hyb as f64 - era as f64).abs() / (era as f64) < 0.1);
    // Small values: hybrid behaves like replication.
    let rep_s = used(Scheme::AsyncRep { replicas: 3 }, 4 << 10);
    let hyb_s = used(Scheme::hybrid(THRESHOLD, 3, 2), 4 << 10);
    assert!((hyb_s as f64 - rep_s as f64).abs() / (rep_s as f64) < 0.1);
}

#[test]
fn hybrid_repair_restores_both_classes() {
    let world = hybrid_world();
    let mut sim = Simulation::new();
    let mut writes = Vec::new();
    for i in 0..10 {
        writes.push(Op::set_synthetic(format!("s{i}"), 4 << 10, i));
        writes.push(Op::set_synthetic(format!("l{i}"), 256 << 10, 100 + i));
    }
    eckv::core::driver::run_workload(&world, &mut sim, vec![writes]);
    world.cluster.kill_server(1);
    let report = eckv::core::repair_server(&world, &mut sim, 1);
    assert_eq!(report.keys_lost, 0);

    // After repair, two *different* failures must still be tolerated.
    world.cluster.kill_server(0);
    world.cluster.kill_server(2);
    world.reset_metrics();
    let mut reads = Vec::new();
    for i in 0..10 {
        reads.push(Op::get(format!("s{i}")));
        reads.push(Op::get(format!("l{i}")));
    }
    eckv::core::driver::run_workload(&world, &mut sim, vec![reads]);
    let m = world.metrics.borrow();
    assert_eq!(m.errors, 0);
    assert_eq!(m.integrity_errors, 0);
}

#[test]
fn scheme_accessors_for_hybrid() {
    let s = Scheme::hybrid(16 << 10, 3, 2);
    assert_eq!(s.fault_tolerance(), 2);
    assert_eq!(s.servers_per_key(), 5);
    assert_eq!(s.storage_factor_for(1 << 10), 3.0);
    assert!((s.storage_factor_for(1 << 20) - 5.0 / 3.0).abs() < 1e-9);
    assert!(s.label().contains("Hybrid"));
    assert!(s.hybrid_params().is_some());
    assert!(s.erasure_params().is_some());
}

/// Writes a small then a large value under one key and reads it back.
fn overwrite_across_the_threshold(validate: bool) -> (u64, u64, u64) {
    let world = World::new(
        EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
            Scheme::hybrid(4096, 3, 2),
        )
        .validate(validate),
    );
    let mut sim = Simulation::new();
    eckv::core::driver::run_workload(
        &world,
        &mut sim,
        vec![vec![
            Op::set_synthetic("k", 3160, 1),
            Op::set_synthetic("k", 7475, 2),
        ]],
    );
    world.reset_metrics();
    eckv::core::driver::run_workload(&world, &mut sim, vec![vec![Op::get("k")]]);
    let m = world.metrics.borrow();
    (m.errors, m.integrity_errors, m.bytes_read)
}

#[test]
fn a_large_overwrite_of_a_small_value_is_what_reads_return() {
    // The chunked rewrite must retire the plain replica the small write
    // left behind, or the replica probe keeps serving the old value.
    assert_eq!(overwrite_across_the_threshold(true), (0, 0, 7475));
    assert_eq!(overwrite_across_the_threshold(false), (0, 0, 7475));
}

#[test]
fn a_chunk_migrated_back_onto_a_former_replica_holder_retires_its_copy() {
    // A join moves the key's primary slot away (the old primary keeps
    // its plain copy), a chunked rewrite retires the copies in the group,
    // and a drain moves the slot back: the returning chunk must retire
    // the copy the old primary still holds.
    let world = World::new(EngineConfig::new(
        ClusterConfig::new(ClusterProfile::RiQdr, 5, 1).max_servers(6),
        Scheme::hybrid(4096, 3, 2),
    ));
    let mut sim = Simulation::new();
    let set = |len, version| vec![vec![Op::set_synthetic("x26", len, version)]];
    eckv::core::driver::run_workload(&world, &mut sim, set(1860, 1));
    let joined = eckv::core::join_server(&world, &mut sim).expect("a spare is provisioned");
    sim.run();
    eckv::core::driver::run_workload(&world, &mut sim, set(7888, 2));
    eckv::core::drain_server(&world, &mut sim, joined);
    sim.run();
    world.reset_metrics();
    eckv::core::driver::run_workload(&world, &mut sim, vec![vec![Op::get("x26")]]);
    let m = world.metrics.borrow();
    assert_eq!((m.errors, m.integrity_errors, m.bytes_read), (0, 0, 7888));
}

#[test]
fn a_plain_key_spelled_like_a_chunk_is_its_own_item() {
    // Chunk 1 of a large `x` and the small replicated value of a key
    // literally named `x.s1` must stay two items on a server that holds
    // both; were chunks stored under their spelling `"{key}.s{i}"`, the
    // second write would clobber the first.
    let mut kv =
        eckv::session::KvSession::new(ClusterProfile::RiQdr, Scheme::hybrid(THRESHOLD, 3, 2), 5);
    let (_, replicas, ..) = kv.world().scheme.hybrid_params().expect("hybrid");
    let (large_key, small_key) = (0..)
        .map(|n| (format!("x{n}"), format!("x{n}.s1")))
        .find(|(large, small)| {
            let chunk1 = kv.world().targets(large)[1];
            kv.world().targets(small)[..replicas].contains(&chunk1)
        })
        .expect("some pair shares a server");
    let large: Vec<u8> = (0..100_000u32).map(|i| (i % 249) as u8).collect();
    let small = vec![7u8; 1000];
    kv.set(&large_key, large.clone()).expect("large set");
    kv.set(&small_key, small.clone()).expect("small set");
    for (key, value) in [(&large_key, &large), (&small_key, &small)] {
        let read_back = kv.get(key).map(|got| got.map(|got| got == *value));
        assert_eq!(read_back, Ok(Some(true)), "{key}");
    }
}

#[test]
fn a_small_overwrite_of_a_large_value_survives_the_rebuild_of_any_holder() {
    // The small rewrite leaves the large value's chunks behind next to
    // its copies. A rebuild reads the layout from what the survivors hold
    // and must restore a copy, not a stale chunk, wherever the replaced
    // holder sat; two more failures then force the read onto it.
    for slot in 0..5 {
        let world = hybrid_world();
        let mut sim = Simulation::new();
        for (len, seed) in [(4 * THRESHOLD, 1), (THRESHOLD / 4, 2)] {
            let write = Op::set_synthetic("x", len, seed);
            eckv::core::driver::run_workload(&world, &mut sim, vec![vec![write]]);
        }
        let targets = world.targets("x");
        world.cluster.kill_server(targets[slot]);
        let report = eckv::core::repair_server(&world, &mut sim, targets[slot]);
        assert_eq!(report.keys_lost, 0, "slot {slot}");
        for &other in targets[..3].iter().filter(|&&s| s != targets[slot]).take(2) {
            world.cluster.kill_server(other);
        }
        world.reset_metrics();
        eckv::core::driver::run_workload(&world, &mut sim, vec![vec![Op::get("x")]]);
        let m = world.metrics.borrow();
        assert_eq!((m.errors, m.integrity_errors), (0, 0), "slot {slot}");
        assert_eq!(m.bytes_read, THRESHOLD / 4, "slot {slot} reads the copy");
    }
}
