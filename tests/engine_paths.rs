//! White-box checks of the per-scheme data paths: where chunks and
//! replicas physically land, what each design costs, and how the phase
//! accounting behaves.

use eckv::prelude::*;

fn world_for(scheme: Scheme) -> std::rc::Rc<World> {
    World::new(EngineConfig::new(
        ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
        scheme,
    ))
}

fn run_ops(world: &std::rc::Rc<World>, sim: &mut Simulation, ops: Vec<Op>) {
    eckv::core::driver::run_workload(world, sim, vec![ops]);
}

#[test]
fn replication_places_full_copies_on_f_consecutive_servers() {
    let world = world_for(Scheme::AsyncRep { replicas: 3 });
    let mut sim = Simulation::new();
    run_ops(&world, &mut sim, vec![Op::set_synthetic("key-x", 1000, 7)]);
    let targets = world
        .cluster
        .ring
        .servers_for(b"key-x", 3)
        .expect("3 fit on 5");
    for (i, srv) in world.cluster.servers.iter().enumerate() {
        let has = srv.borrow().store().contains(&"key-x".into());
        assert_eq!(has, targets.contains(&i), "server {i}");
        if has {
            let p = srv.borrow().store().peek(&"key-x".into()).unwrap();
            assert_eq!(p.payload.len(), 1000, "replicas are full copies");
            assert_eq!(p.flags, 1000, "the flags word holds the value length");
        }
    }
}

#[test]
fn erasure_places_one_chunk_per_server_with_shard_sized_payloads() {
    for scheme in [Scheme::era_ce_cd(3, 2), Scheme::era_se_sd(3, 2)] {
        let world = world_for(scheme);
        let mut sim = Simulation::new();
        run_ops(&world, &mut sim, vec![Op::set_synthetic("key-y", 3000, 7)]);
        let targets = world
            .cluster
            .ring
            .servers_for(b"key-y", 5)
            .expect("5 fit on 5");
        for (i, &srv) in targets.iter().enumerate() {
            let store = &world.cluster.servers[srv];
            let chunk = store
                .borrow()
                .store()
                .peek(&StoreKey::chunk("key-y".into(), i))
                .unwrap_or_else(|| panic!("{scheme}: chunk {i} missing on server {srv}"));
            assert_eq!(chunk.payload.len(), 1000, "{scheme}: shard = ceil(3000/3)");
            assert_eq!(
                chunk.flags, 3000,
                "{scheme}: a chunk's flags hold the value length"
            );
            // No full copy anywhere.
            assert!(
                !store.borrow().store().contains(&"key-y".into()),
                "{scheme}"
            );
        }
    }
}

#[test]
fn se_designs_charge_no_client_compute_ce_designs_do() {
    for (scheme, expect_compute) in [
        (Scheme::era_ce_cd(3, 2), true),
        (Scheme::era_se_cd(3, 2), false),
        (Scheme::era_se_sd(3, 2), false),
    ] {
        let world = world_for(scheme);
        let mut sim = Simulation::new();
        run_ops(&world, &mut sim, vec![Op::set_synthetic("z", 1 << 20, 1)]);
        let b = world.metrics.borrow().avg_set_breakdown();
        assert_eq!(
            b.compute.as_nanos() > 0,
            expect_compute,
            "{scheme}: compute={}",
            b.compute
        );
    }
}

#[test]
fn healthy_erasure_reads_touch_only_data_chunk_holders() {
    let world = world_for(Scheme::era_ce_cd(3, 2));
    let mut sim = Simulation::new();
    run_ops(&world, &mut sim, vec![Op::set_synthetic("r", 6000, 1)]);
    // Snapshot per-server hit counts, then read.
    let before: Vec<u64> = world
        .cluster
        .servers
        .iter()
        .map(|s| s.borrow().stats().hits)
        .collect();
    world.reset_metrics();
    run_ops(&world, &mut sim, vec![Op::get("r")]);
    let targets = world.cluster.ring.servers_for(b"r", 5).expect("5 fit on 5");
    for (pos, &srv) in targets.iter().enumerate() {
        let delta = world.cluster.servers[srv].borrow().stats().hits - before[srv];
        if pos < 3 {
            assert_eq!(delta, 1, "data chunk holder {pos} must serve one read");
        } else {
            assert_eq!(delta, 0, "parity holder {pos} must stay idle when healthy");
        }
    }
}

#[test]
fn degraded_erasure_reads_pull_parity_instead() {
    let world = world_for(Scheme::era_ce_cd(3, 2));
    let mut sim = Simulation::new();
    run_ops(&world, &mut sim, vec![Op::set_synthetic("d", 6000, 1)]);
    let targets = world.cluster.ring.servers_for(b"d", 5).expect("5 fit on 5");
    // Kill the first data chunk holder.
    world.cluster.kill_server(targets[0]);
    world.reset_metrics();
    run_ops(&world, &mut sim, vec![Op::get("d")]);
    let m = world.metrics.borrow();
    assert_eq!(m.errors, 0);
    // The first parity holder (position 3) must have served the read.
    let parity_holder = &world.cluster.servers[targets[3]];
    assert_eq!(parity_holder.borrow().stats().hits, 1);
    // And the op paid decode time.
    assert!(m.avg_get_breakdown().compute.as_nanos() > 0);
}

#[test]
fn sync_rep_latency_scales_with_replica_count() {
    fn mean_us(replicas: usize) -> f64 {
        let world = world_for(Scheme::SyncRep { replicas });
        let mut sim = Simulation::new();
        run_ops(
            &world,
            &mut sim,
            (0..50)
                .map(|i| Op::set_synthetic(format!("s{i}"), 64 << 10, i))
                .collect(),
        );
        let v = world.metrics.borrow().set_latency.mean().as_micros_f64();
        v
    }
    let two = mean_us(2);
    let four = mean_us(4);
    let ratio = four / two;
    assert!(
        (1.7..=2.3).contains(&ratio),
        "sequential replication should scale ~linearly: {two} -> {four} ({ratio:.2}x)"
    );
}

#[test]
fn request_phase_counts_one_post_per_subrequest() {
    let world = world_for(Scheme::era_ce_cd(3, 2));
    let mut sim = Simulation::new();
    run_ops(&world, &mut sim, vec![Op::set_synthetic("p", 1024, 1)]);
    let post = world.cluster.net_config().post_overhead;
    let b = world.metrics.borrow().avg_set_breakdown();
    assert_eq!(b.request, post * 5, "5 chunk posts for RS(3,2)");
}

#[test]
fn phase_sums_equal_latency() {
    for scheme in [
        Scheme::AsyncRep { replicas: 3 },
        Scheme::era_ce_cd(3, 2),
        Scheme::era_se_sd(3, 2),
    ] {
        let world = world_for(scheme);
        let mut sim = Simulation::new();
        run_ops(&world, &mut sim, vec![Op::set_synthetic("q", 64 << 10, 1)]);
        let m = world.metrics.borrow();
        let b = m.avg_set_breakdown();
        let latency = m.set_latency.mean();
        assert_eq!(
            b.total().as_nanos(),
            latency.as_nanos(),
            "{scheme}: phases must account for the whole latency"
        );
    }
}

#[test]
fn era_se_set_ships_full_value_once_from_client() {
    // Client -> primary carries D once; CE ships N chunks totalling 1.67 D.
    fn client_tx_bytes(scheme: Scheme) -> u64 {
        let world = world_for(scheme);
        let mut sim = Simulation::new();
        run_ops(&world, &mut sim, vec![Op::set_synthetic("t", 300_000, 1)]);
        let total = world.cluster.net.borrow().bytes_sent();
        total
    }
    let se = client_tx_bytes(Scheme::era_se_cd(3, 2));
    let ce = client_tx_bytes(Scheme::era_ce_cd(3, 2));
    // SE: D (client->primary) + 4 chunks (primary->peers) = D + 1.33 D.
    // CE: 5 chunks from the client = 1.67 D. Total wire bytes differ:
    assert!(
        se > ce,
        "SE moves more total bytes (two hops): {se} vs {ce}"
    );
    let d = 300_000f64;
    assert!((se as f64) > d * 2.2 && (se as f64) < d * 2.5, "se={se}");
    assert!((ce as f64) > d * 1.6 && (ce as f64) < d * 1.9, "ce={ce}");
}

#[test]
fn a_value_too_long_for_the_flags_word_is_refused_unwritten() {
    // Every item carries its value's length in a 32-bit flags word; a
    // longer value could not be read back, so it is never stored.
    for scheme in [
        Scheme::AsyncRep { replicas: 3 },
        Scheme::era_ce_cd(3, 2),
        Scheme::hybrid(1 << 20, 3, 2),
    ] {
        let world = world_for(scheme);
        let mut sim = Simulation::new();
        let len = u64::from(u32::MAX) + 1;
        run_ops(&world, &mut sim, vec![Op::set_synthetic("huge", len, 1)]);
        let m = world.metrics.borrow();
        assert_eq!(
            (m.errors, m.retries),
            (1, 0),
            "{scheme}: refused, not retried"
        );
        assert_eq!(m.failed_bytes, len, "{scheme}");
        for srv in &world.cluster.servers {
            assert_eq!(srv.borrow().stats().items, 0, "{scheme}: nothing stored");
        }
    }
}
