//! Negative integrity checks: a tampered chunk must surface as an
//! integrity error, on the healthy read and on the decoding read alike,
//! whether the client or a server aggregator decodes. Every other suite
//! asserts `integrity_errors == 0`; these show the value digest can
//! actually fail.

use eckv::prelude::*;
use std::rc::Rc;

const KEYS: usize = 8;

/// The four encode/decode placements of RS(3,2).
const ERA_SCHEMES: [fn(usize, usize) -> Scheme; 4] = [
    Scheme::era_ce_cd,
    Scheme::era_se_sd,
    Scheme::era_se_cd,
    Scheme::era_ce_sd,
];

/// `scheme` with validation on, `KEYS` inline 10 kB values.
fn loaded_world(scheme: Scheme) -> (Rc<World>, Simulation) {
    let world = World::new(
        EngineConfig::new(ClusterConfig::new(ClusterProfile::RiQdr, 5, 1), scheme).validate(true),
    );
    let mut sim = Simulation::new();
    let writes: Vec<Op> = (0..KEYS)
        .map(|i| {
            let value: Vec<u8> = (0..10_000u32).map(|j| (j * 7 + i as u32) as u8).collect();
            Op::set_inline(format!("k{i}"), value)
        })
        .collect();
    eckv::core::driver::run_workload(&world, &mut sim, vec![writes]);
    (world, sim)
}

/// The server holding chunk `shard` of `key`.
fn holder(world: &World, key: &str, shard: usize) -> usize {
    let chunk = StoreKey::chunk(key.into(), shard);
    let holders: Vec<usize> = (0..world.cluster.servers.len())
        .filter(|&s| world.cluster.servers[s].borrow().store().contains(&chunk))
        .collect();
    assert_eq!(holders.len(), 1, "{chunk:?} lives on exactly one server");
    holders[0]
}

/// Flips one bit in the middle of chunk `shard` of `key`, in place.
fn tamper(world: &World, key: &str, shard: usize) {
    let chunk = StoreKey::chunk(key.into(), shard);
    let server = &world.cluster.servers[holder(world, key, shard)];
    let mut server = server.borrow_mut();
    let store = server.store_mut();
    let Some(Payload::Inline(bytes)) = store.peek(&chunk) else {
        panic!("{chunk:?} holds inline bytes");
    };
    let mut bytes = bytes.to_vec();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    store.set(chunk, Payload::inline(bytes));
}

/// One GET's outcome counters.
#[derive(Debug, PartialEq)]
struct Read {
    errors: u64,
    integrity_errors: u64,
    degraded: bool,
}

/// Reads `key` once, in a fresh metrics window.
fn read(world: &Rc<World>, sim: &mut Simulation, key: &str) -> Read {
    world.reset_metrics();
    eckv::core::driver::run_workload(world, sim, vec![vec![Op::get(key.to_string())]]);
    let m = world.metrics.borrow();
    assert_eq!(m.get_count, 1);
    Read {
        errors: m.errors,
        integrity_errors: m.integrity_errors,
        degraded: m.get_degraded_count == 1,
    }
}

fn outcome(integrity_errors: u64, degraded: bool) -> Read {
    Read {
        errors: 0,
        integrity_errors,
        degraded,
    }
}

#[test]
fn tampered_data_chunk_fails_a_healthy_read() {
    for era in ERA_SCHEMES {
        let scheme = era(3, 2);
        let (world, mut sim) = loaded_world(scheme);
        tamper(&world, "k3", 0);
        let label = scheme.label();
        assert_eq!(read(&world, &mut sim, "k3"), outcome(1, false), "{label}");
        assert_eq!(read(&world, &mut sim, "k5"), outcome(0, false), "{label}");
    }
}

#[test]
fn tampered_parity_chunk_fails_a_decoding_read() {
    for era in ERA_SCHEMES {
        let scheme = era(3, 2);
        let (world, mut sim) = loaded_world(scheme);
        // With the holder of data chunk 1 down, the read fetches the first
        // parity chunk in its place and decodes.
        let dead = holder(&world, "k3", 1);
        world.cluster.kill_server(dead);
        tamper(&world, "k3", 3);
        let label = scheme.label();
        assert_eq!(read(&world, &mut sim, "k3"), outcome(1, true), "{label}");
        let untouched = (0..KEYS)
            .map(|i| format!("k{i}"))
            .find(|k| k != "k3" && (0..3).any(|s| holder(&world, k, s) == dead))
            .expect("another key lost a data chunk with the same server");
        assert_eq!(
            read(&world, &mut sim, &untouched),
            outcome(0, true),
            "{label}"
        );
    }
}

#[test]
fn a_truncated_survivor_chunk_loses_one_key_instead_of_crashing_the_rebuild() {
    let (world, mut sim) = loaded_world(Scheme::era_ce_cd(3, 2));
    // RS(3,2) on 5 servers: every key keeps exactly k = 3 survivors once
    // two servers are down, so a rebuild has no spare chunk to fall back
    // on and must decode from the truncated one.
    world.cluster.kill_server(0);
    world.cluster.kill_server(1);
    let chunk = (0..5)
        .map(|s| StoreKey::chunk("k3".into(), s))
        .find(|c| world.cluster.servers[2].borrow().store().contains(c))
        .expect("server 2 holds a chunk of k3");
    {
        let mut server = world.cluster.servers[2].borrow_mut();
        let store = server.store_mut();
        let Some(Payload::Inline(bytes)) = store.peek(&chunk) else {
            panic!("{chunk:?} holds inline bytes");
        };
        let short = bytes[..bytes.len() / 2].to_vec();
        store.set(chunk, Payload::inline(short));
    }
    let report = repair_server(&world, &mut sim, 0);
    assert_eq!(report.keys_lost, 1, "only the truncated key is lost");
    assert_eq!(report.keys_repaired, KEYS as u64 - 1);
    for i in (0..KEYS).filter(|&i| i != 3) {
        let key = format!("k{i}");
        assert_eq!(read(&world, &mut sim, &key).errors, 0, "{key} reads back");
    }
}
