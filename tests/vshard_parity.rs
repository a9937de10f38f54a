//! Golden-trace parity for the vshard placement layer: at fixed topology
//! the key→vshard→server-group indirection must compose to exactly the
//! key→ring mapping it replaced, so a pinned seed/config scenario —
//! erasure with an online rebuild, plain replication, and the hybrid
//! scheme — must keep producing the byte-identical JSONL trace captured
//! before the refactor.
//!
//! A second golden, `repair_paths.jsonl`, pins the repair-queue paths the
//! first one misses: replica rebuild, hybrid rebuild, direct chunk copies
//! on a join, the reconstruct fallback of a drain under hedged reads, and
//! replica migration.
//!
//! A third golden, `eviction.jsonl`, pins the store's LRU end to end:
//! servers too small for the working set evict while reads refresh the
//! recency of hot keys, and an SSD-assisted leg spills the victims to
//! flash and serves later reads from it.
//!
//! A fourth golden, `codec_sites.jsonl`, pins the whole encode/decode
//! site matrix (Era-CE-CD, Era-SE-SD, Era-SE-CD, Era-CE-SD): healthy runs,
//! a dead coordinator met with stale failure views, a hedged gather
//! around a straggler, coordinator admission sheds under a depth bound and
//! under a delay bound, 64 KiB values sent by rendezvous beside small
//! eager transfers, inline values decoded at both sites, and the
//! single-chunk encoder with no live peer.
//!
//! A fifth golden, `request_errors.jsonl`, pins the failed-request paths
//! of Sync-Rep, Async-Rep and the hybrid scheme (a dead holder met with
//! stale views, admission sheds) and the shed rebuild traffic of an
//! Era-SE-SD rebuild under a strict repair bound.
//!
//! A sixth golden, `counters.txt`, pins the TraceBus counter registry
//! after every leg of the five scenarios above, and each leg checks that
//! the registry's NIC busy time equals the network's own ledger.
//!
//! Regenerate the golden files (only after an *intentional* trace change)
//! with:
//!
//! ```text
//! ECKV_BLESS_GOLDEN=1 cargo test --test vshard_parity
//! ```

use std::cell::RefCell;
use std::fmt::Write;
use std::path::PathBuf;
use std::rc::Rc;

use eckv::prelude::*;
use eckv::simnet::{JsonlSink, NodeId, Trace, TraceBus};
use eckv::store::SsdSpec;

/// Keys written (and read back) per scheme leg.
const KEYS: usize = 16;
/// The server killed, rebuilt or drained in the disturbed legs.
const DEAD: usize = 1;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/golden/{name}"))
}

/// Pinned value size of key `i`: 1..8 KiB, crossing the hybrid threshold
/// both ways.
fn len_of(i: usize) -> u64 {
    ((i % 8) as u64 + 1) * 1024
}

/// What a scenario pins: its JSONL trace, and the counter registry as it
/// stands after each leg.
#[derive(Default, PartialEq)]
struct Golden {
    trace: String,
    counters: String,
}

/// One traced leg: loads `KEYS` pinned values, lets `disturb` change the
/// cluster, then reads every key back while any repair or migration it
/// started is still running. Appends the trace and the counter registry
/// to `out` under `## name` and returns the world for post-run checks.
fn leg(
    out: &mut Golden,
    name: &str,
    cfg: EngineConfig,
    disturb: impl FnOnce(&Rc<World>, &mut Simulation),
) -> Rc<World> {
    let sink = Rc::new(RefCell::new(JsonlSink::new()));
    let mut bus = TraceBus::new();
    bus.add_sink(sink.clone());
    let world = World::new_traced(cfg.window(2), Trace::from_bus(bus));
    let mut sim = Simulation::new();
    let writes: Vec<Op> = (0..KEYS)
        .map(|i| Op::set_synthetic(format!("g{i:02}"), len_of(i), i as u64))
        .collect();
    run_workload(&world, &mut sim, vec![writes]);
    assert_eq!(
        world.metrics.borrow().errors,
        0,
        "{name}: load must be clean"
    );
    disturb(&world, &mut sim);
    let reads: Vec<Op> = (0..KEYS).map(|i| Op::get(format!("g{i:02}"))).collect();
    enqueue_workload(&world, &mut sim, vec![reads]);
    sim.run();
    out.trace.push_str("## ");
    out.trace.push_str(name);
    out.trace.push('\n');
    out.trace.push_str(sink.borrow().contents());
    let _ = writeln!(out.counters, "## {name}");
    let net = world.cluster.net.borrow();
    world.trace.with_bus(|bus| {
        for (node, counter, v) in bus.counters() {
            if counter != "cpu_queue_hwm" {
                let _ = writeln!(out.counters, "{} {counter} {v}", node.0);
            }
        }
        for i in 0..net.len() {
            let (tx, rx) = net.nic_busy(NodeId(i));
            assert_eq!(
                (
                    bus.counter(NodeId(i), "nic_tx_busy_ns"),
                    bus.counter(NodeId(i), "nic_rx_busy_ns")
                ),
                (tx.as_nanos(), rx.as_nanos()),
                "{name}: node {i}'s NIC busy counters must equal the network's"
            );
        }
    });
    drop(net);
    world
}

fn cluster(servers: usize, scheme: Scheme) -> EngineConfig {
    EngineConfig::new(
        ClusterConfig::new(ClusterProfile::RiQdr, servers, 1).max_servers(servers + 1),
        scheme,
    )
}

/// Kills `DEAD` and starts rebuilding it online.
fn rebuild_online(world: &Rc<World>, sim: &mut Simulation) {
    world.cluster.kill_server(DEAD);
    start_repair(world, sim, DEAD);
}

/// The pinned fixed-topology scenario: three scheme legs, each traced
/// end to end. The erasure leg loses a server and rebuilds it online
/// while reads continue, so repair-engine traces are pinned too.
fn scenario() -> Golden {
    let mut out = Golden::default();
    let legs: Vec<(&str, Scheme, bool)> = vec![
        ("era-ce-cd", Scheme::era_ce_cd(3, 2), true),
        ("sync-rep", Scheme::SyncRep { replicas: 3 }, false),
        ("hybrid", Scheme::hybrid(4096, 3, 2), false),
    ];
    for (name, scheme, kill_and_repair) in legs {
        let cfg = EngineConfig::new(ClusterConfig::new(ClusterProfile::RiQdr, 5, 1), scheme);
        leg(&mut out, name, cfg, |world, sim| {
            if kill_and_repair {
                rebuild_online(world, sim);
            }
        });
    }
    out
}

/// The pinned repair-path scenario: one leg per data-movement path of the
/// repair queue. No leg deletes a replica, so every replica source probed
/// first holds its copy.
fn repair_paths_scenario() -> Golden {
    let mut out = Golden::default();
    // Replica rebuild: a 1x copy from a live replica holder.
    leg(
        &mut out,
        "async-rep rebuild",
        cluster(5, Scheme::AsyncRep { replicas: 3 }),
        rebuild_online,
    );
    // Replica copies for small values, chunk rebuilds for large ones, and
    // small keys with no copy on the failed server.
    leg(
        &mut out,
        "hybrid rebuild",
        cluster(5, Scheme::hybrid(4096, 3, 2)),
        rebuild_online,
    );
    // Every moved chunk is a direct copy from its vacated holder.
    leg(
        &mut out,
        "era-ce-cd join",
        cluster(5, Scheme::era_ce_cd(3, 2)),
        |world, sim| {
            join_server(world, sim).expect("a provisioned spare");
        },
    );
    // The drained server is dead, so every moved chunk falls back to a
    // hedged k-survivor reconstruction; the join that follows copies
    // chunks directly, and those single-source copies never hedge.
    leg(
        &mut out,
        "era-ce-cd hedged drain of a dead server, then join",
        cluster(6, Scheme::era_ce_cd(3, 2)).hedge(HedgeConfig::after(SimDuration::from_micros(2))),
        |world, sim| {
            world.cluster.kill_server(DEAD);
            drain_server(world, sim, DEAD);
            sim.run();
            join_server(world, sim).expect("a provisioned spare");
        },
    );
    // Replica migration: the vacated holder sources each copy.
    leg(
        &mut out,
        "async-rep drain",
        cluster(5, Scheme::AsyncRep { replicas: 3 }),
        |world, sim| drain_server(world, sim, DEAD),
    );
    out
}

/// A cluster of five servers with `server_memory` bytes of cache each,
/// optionally backed by a flash tier.
fn pressured(scheme: Scheme, server_memory: u64, ssd: bool) -> EngineConfig {
    let mut cluster = ClusterConfig::new(ClusterProfile::RiQdr, 5, 1).server_memory(server_memory);
    if ssd {
        cluster = cluster.ssd(SsdSpec::RI_QDR_PCIE.with_capacity(1 << 20));
    }
    EngineConfig::new(cluster, scheme)
}

/// Rounds of "read the hot keys, then write fresh ones": the fresh writes
/// overflow the servers, and the reads keep `g00..g03` most recently used
/// so the LRU picks the cold keys as victims.
fn churn_with_hot_reads(world: &Rc<World>, sim: &mut Simulation) {
    let mut ops = Vec::new();
    for round in 0..4u64 {
        ops.extend((0..4).map(|i| Op::get(format!("g{i:02}"))));
        ops.extend(
            (0..6u64)
                .map(|j| Op::set_synthetic(format!("e{round}{j}"), 4096, 1000 + round * 10 + j)),
        );
    }
    run_workload(world, sim, vec![ops]);
    assert!(
        world.memory_report().evictions > 0,
        "the churn must overflow the servers"
    );
}

/// The pinned eviction scenario.
fn eviction_scenario() -> Golden {
    let mut out = Golden::default();
    leg(
        &mut out,
        "async-rep eviction",
        pressured(Scheme::AsyncRep { replicas: 3 }, 80 << 10, false),
        churn_with_hot_reads,
    );
    leg(
        &mut out,
        "era-ce-cd eviction",
        pressured(Scheme::era_ce_cd(3, 2), 48 << 10, false),
        churn_with_hot_reads,
    );
    leg(
        &mut out,
        "era-ce-cd ssd spill",
        pressured(Scheme::era_ce_cd(3, 2), 48 << 10, true),
        churn_with_hot_reads,
    );
    out
}

/// The four placements of the codec work, by scheme label.
fn codec_sites() -> [(&'static str, Scheme); 4] {
    [
        ("era-ce-cd", Scheme::era_ce_cd(3, 2)),
        ("era-se-sd", Scheme::era_se_sd(3, 2)),
        ("era-se-cd", Scheme::era_se_cd(3, 2)),
        ("era-ce-sd", Scheme::era_ce_sd(3, 2)),
    ]
}

/// Five servers driven by `clients` clients.
fn sites_cluster(scheme: Scheme, clients: usize) -> EngineConfig {
    EngineConfig::new(
        ClusterConfig::new(ClusterProfile::RiQdr, 5, clients),
        scheme,
    )
}

/// Overwrites every loaded key with a fresh value from client 0, then
/// reads every key from client 1. Neither client has seen a failure, and
/// both start with the keys `DEAD` leads, so each first meets the dead
/// server as its coordinator through a stale view.
fn overwrite_then_read_stale(world: &Rc<World>, sim: &mut Simulation) {
    let mut order: Vec<usize> = (0..KEYS).collect();
    order.sort_by_key(|&i| world.targets(&format!("g{i:02}"))[0] != DEAD);
    let writes: Vec<Op> = order
        .iter()
        .map(|&i| Op::set_synthetic(format!("g{i:02}"), len_of(i), 100 + i as u64))
        .collect();
    run_workload(world, sim, vec![writes, Vec::new()]);
    let reads: Vec<Op> = order.iter().map(|&i| Op::get(format!("g{i:02}"))).collect();
    run_workload(world, sim, vec![Vec::new(), reads]);
}

/// Every client writes a fresh key at once, then every client reads the
/// same two loaded keys at once.
fn herd(world: &Rc<World>, sim: &mut Simulation) {
    let clients = world.cfg.cluster.clients;
    let writes: Vec<Vec<Op>> = (0..clients)
        .map(|c| vec![Op::set_synthetic(format!("h{c}"), 4096, 500 + c as u64)])
        .collect();
    run_workload(world, sim, writes);
    let reads: Vec<Vec<Op>> = (0..clients)
        .map(|_| (0..2).map(|i| Op::get(format!("g{i:02}"))).collect())
        .collect();
    run_workload(world, sim, reads);
}

/// Every client interleaves writes of 64 KiB values with reads of loaded
/// keys, then reads a neighbour's large values between loaded keys, so
/// rendezvous transfers share the NICs with eager ones.
fn large_values(world: &Rc<World>, sim: &mut Simulation) {
    let clients = world.cfg.cluster.clients;
    let big = |c: usize, j: usize| format!("L{c}.{j}");
    let small = |c: usize, j: usize| Op::get(format!("g{:02}", (c + 5 * j) % KEYS));
    let writes: Vec<Vec<Op>> = (0..clients)
        .map(|c| {
            (0..4)
                .flat_map(|j| {
                    let v = 900 + (4 * c + j) as u64;
                    [Op::set_synthetic(big(c, j), 64 * 1024, v), small(c, j)]
                })
                .collect()
        })
        .collect();
    run_workload(world, sim, writes);
    let reads: Vec<Vec<Op>> = (0..clients)
        .map(|c| {
            let n = (c + 1) % clients;
            (0..4)
                .flat_map(|j| [Op::get(big(n, j)), small(c, j)])
                .collect()
        })
        .collect();
    run_workload(world, sim, reads);
}

/// Whether `trace` holds a transfer larger than `eager_threshold`, i.e.
/// one sent by rendezvous.
fn sends_rendezvous(trace: &str, eager_threshold: usize) -> bool {
    trace
        .lines()
        .filter(|l| l.contains("\"event\":\"shard_send\""))
        .filter_map(|l| l.rsplit_once("\"bytes\":"))
        .filter_map(|(_, b)| b.trim_end_matches('}').parse::<usize>().ok())
        .any(|b| b > eager_threshold)
}

/// Writes inline values, kills `DEAD`, and reads them back (decoding the
/// real bytes wherever `DEAD` held a data chunk).
fn inline_then_degraded_reads(world: &Rc<World>, sim: &mut Simulation) {
    let writes: Vec<Op> = (0..8u32)
        .map(|i| {
            let value: Vec<u8> = (0..3000 + i * 700).map(|j| (j * 13 + i) as u8).collect();
            Op::set_inline(format!("v{i}"), value)
        })
        .collect();
    run_workload(world, sim, vec![writes]);
    world.cluster.kill_server(DEAD);
    let reads: Vec<Op> = (0..8).map(|i| Op::get(format!("v{i}"))).collect();
    run_workload(world, sim, vec![reads]);
}

/// The pinned codec-site scenario: every encode/decode placement under
/// each condition that reaches a distinct branch of the SET and GET
/// pipelines.
fn codec_sites_scenario() -> Golden {
    let mut out = Golden::default();
    for (label, scheme) in codec_sites() {
        leg(
            &mut out,
            &format!("{label} healthy"),
            sites_cluster(scheme, 1),
            |_, _| {},
        );
        leg(
            &mut out,
            &format!("{label} dead holder met with stale views"),
            sites_cluster(scheme, 2),
            |world, sim| {
                world.cluster.kill_server(DEAD);
                overwrite_then_read_stale(world, sim);
            },
        );
        let before = out.trace.len();
        leg(
            &mut out,
            &format!("{label} hedged reads around a straggler"),
            sites_cluster(scheme, 1).hedge(HedgeConfig::after(SimDuration::from_micros(4))),
            |world, sim| {
                world
                    .cluster
                    .slow_server(sim.now(), 2, 8.0, SimDuration::from_micros(20));
            },
        );
        assert!(
            out.trace[before..].contains("\"event\":\"hedge_fired\""),
            "{label}: the straggler must trigger a hedge"
        );
        let before = out.trace.len();
        leg(
            &mut out,
            &format!("{label} admission sheds"),
            sites_cluster(scheme, 8).admission(AdmissionConfig::depth(1)),
            herd,
        );
        assert!(
            out.trace[before..].contains("\"event\":\"queue_capped\""),
            "{label}: the herd must overflow an admission bound"
        );
        let before = out.trace.len();
        leg(
            &mut out,
            &format!("{label} admission sheds on projected wait"),
            sites_cluster(scheme, 16)
                .admission(AdmissionConfig::depth(10_000).delay(SimDuration::from_micros(2))),
            herd,
        );
        assert!(
            out.trace[before..].contains("\"event\":\"queue_capped\""),
            "{label}: the herd must wait past the delay bound"
        );
        let before = out.trace.len();
        let world = leg(
            &mut out,
            &format!("{label} 64 KiB values, 8 clients"),
            sites_cluster(scheme, 8),
            large_values,
        );
        let eager = world.cluster.net.borrow().config().eager_threshold;
        assert!(
            sends_rendezvous(&out.trace[before..], eager),
            "{label}: 64 KiB values must cross the rendezvous threshold"
        );
        let world = leg(
            &mut out,
            &format!("{label} inline values, validated"),
            sites_cluster(scheme, 1).validate(true),
            inline_then_degraded_reads,
        );
        let m = world.metrics.borrow();
        assert_eq!(
            m.integrity_errors, 0,
            "{label}: inline values decode intact"
        );
        assert!(m.get_degraded_count > 0, "{label}: some reads decode");
    }
    // RS(1,1) with the parity holder's server dead: once the client's view
    // learns of it, the encoder stores its own chunk and has no peer.
    leg(
        &mut out,
        "era-se-sd(1,1) encoder with no live peer",
        sites_cluster(Scheme::era_se_sd(1, 1), 1),
        |world, sim| {
            world.cluster.kill_server(DEAD);
            for round in 0..2u64 {
                let writes: Vec<Op> = (0..KEYS)
                    .map(|i| {
                        Op::set_synthetic(
                            format!("g{i:02}"),
                            len_of(i),
                            200 + round * 50 + i as u64,
                        )
                    })
                    .collect();
                run_workload(world, sim, vec![writes]);
            }
        },
    );
    out
}

/// The pinned request-error scenario: the failed-request paths of the
/// schemes the codec-site scenario does not run. Sync-Rep's sequential
/// chain, Async-Rep's parallel copies and the hybrid's replica probe and
/// chunk writes each meet a dead holder through stale views and a
/// shedding one under a depth bound; an Era-SE-SD rebuild under a strict
/// repair bound has its survivor reads and write-backs shed.
fn request_errors_scenario() -> Golden {
    let mut out = Golden::default();
    for (label, scheme) in [
        ("sync-rep", Scheme::SyncRep { replicas: 3 }),
        ("async-rep", Scheme::AsyncRep { replicas: 3 }),
        ("hybrid", Scheme::hybrid(4096, 3, 2)),
    ] {
        let before = out.trace.len();
        leg(
            &mut out,
            &format!("{label} dead holder met with stale views"),
            sites_cluster(scheme, 2),
            |world, sim| {
                world.cluster.kill_server(DEAD);
                overwrite_then_read_stale(world, sim);
            },
        );
        assert!(
            out.trace[before..].contains("\"event\":\"failure_detected\""),
            "{label}: a stale view must meet the dead holder"
        );
        let before = out.trace.len();
        leg(
            &mut out,
            &format!("{label} admission sheds"),
            sites_cluster(scheme, 8).admission(AdmissionConfig::depth(1)),
            herd,
        );
        assert!(
            out.trace[before..].contains("\"event\":\"queue_capped\""),
            "{label}: the herd must overflow an admission bound"
        );
    }
    let before = out.trace.len();
    leg(
        &mut out,
        "era-se-sd rebuild under a repair admission bound",
        cluster(5, Scheme::era_se_sd(3, 2))
            .admission(AdmissionConfig::depth(10_000).repair_depth(1)),
        rebuild_online,
    );
    assert!(
        out.trace[before..]
            .lines()
            .any(|l| l.contains("\"event\":\"op_shed\"") && l.contains("\"kind\":\"repair\"")),
        "the strict repair bound must shed rebuild traffic"
    );
    out
}

/// Compares `got` with the blessed golden `name`, or rewrites the golden
/// when `ECKV_BLESS_GOLDEN` is set.
fn check_golden(name: &str, got: &str, why: &str) {
    let path = golden_path(name);
    if std::env::var_os("ECKV_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing; bless with ECKV_BLESS_GOLDEN=1");
    assert!(
        got == want,
        "{name}: trace diverged from the golden ({} vs {} bytes); {why}",
        got.len(),
        want.len()
    );
}

#[test]
fn fixed_topology_traces_match_the_pre_vshard_golden() {
    check_golden(
        "fixed_topology.jsonl",
        &scenario().trace,
        "placement at fixed membership must be byte-identical to the \
         direct ring lookup",
    );
}

#[test]
fn repair_and_migration_traces_match_the_golden() {
    check_golden(
        "repair_paths.jsonl",
        &repair_paths_scenario().trace,
        "every repair-queue task must move the same bytes along the same \
         path",
    );
}

#[test]
fn eviction_traces_match_the_golden() {
    let got = eviction_scenario().trace;
    assert!(
        got.contains("\"ssd_spill\"") && got.contains("\"ssd_read\""),
        "the ssd leg must spill victims and read them back from flash"
    );
    check_golden(
        "eviction.jsonl",
        &got,
        "the LRU must evict, refresh and spill the same items in the same \
         order",
    );
}

#[test]
fn codec_site_traces_match_the_golden() {
    check_golden(
        "codec_sites.jsonl",
        &codec_sites_scenario().trace,
        "every encode/decode placement must move the same bytes at the \
         same instants through the same nodes",
    );
}

#[test]
fn request_error_traces_match_the_golden() {
    check_golden(
        "request_errors.jsonl",
        &request_errors_scenario().trace,
        "every dead or shedding holder must be met at the same instant and \
         booked the same way",
    );
}

#[test]
fn counter_registries_match_the_golden() {
    let mut got = String::new();
    for (name, scenario) in [
        ("fixed topology", scenario as fn() -> Golden),
        ("repair paths", repair_paths_scenario),
        ("eviction", eviction_scenario),
        ("codec sites", codec_sites_scenario),
        ("request errors", request_errors_scenario),
    ] {
        let _ = writeln!(got, "# {name}");
        got.push_str(&scenario().counters);
    }
    check_golden(
        "counters.txt",
        &got,
        "every per-node counter must keep its value after every leg",
    );
}

#[test]
fn fixed_topology_scenario_is_deterministic() {
    assert!(
        scenario() == scenario(),
        "same-seed scenario runs must be byte-identical"
    );
}
