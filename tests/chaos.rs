//! Chaos testing with an exact oracle: random interleavings of writes,
//! reads, failures, slowdowns and replacements, checked against a
//! chunk-presence model of the engine's placement/degradation/repair
//! rules. The engine runs with hedged reads enabled, so the oracle also
//! pins down hedging: a slow server is NOT a dead one.
//!
//! Invariants:
//!
//! 1. validated reads NEVER return corrupt data;
//! 2. read success/failure matches the model *exactly* (a read succeeds
//!    iff at least `k` of the key's surviving chunks sit on reachable
//!    servers — late binding tops up from parity);
//! 3. write success matches the model (at least `k` reachable holders);
//! 4. slowing a server (straggler injection) changes NO outcome — reads
//!    and writes behave exactly as on a healthy holder, merely later, and
//!    hedged fetches never corrupt data or flip a result;
//! 5. a repair's outcome matches the model exactly — the engine lists
//!    the keys placed on the replaced server that another live server
//!    holds any item of (a chunk a failed write left counts too); of
//!    those, the ones with at least `k` chunks (one copy) reachable
//!    elsewhere are rebuilt and the rest written off, and a Slow in
//!    force while the repair runs flips NO key between the two (a
//!    slowed survivor still serves its chunks, merely later);
//! 6. membership churn loses nothing the oracle predicts survivable — a
//!    Join moves chunks onto the new member and a Drain evacuates the
//!    leaver, and after the (blocking) migration every key reads exactly
//!    as the per-slot model predicts: an unchanged slot keeps its chunk,
//!    a moved slot receives one iff the vacated holder could serve it
//!    directly or `k` survivors could reconstruct it, and the new holder
//!    is alive to store it.
//!
//! Under the hybrid scheme the oracle is size-aware: a key whose last
//! successful write was at or below the threshold lives as plain copies
//! on its first `REPLICAS` targets and needs one of them reachable; a
//! larger one is chunked and needs `K`. A chunked rewrite retires the
//! plain copies on the replica holders it reaches, even when it fails. If
//! such a failed rewrite misses a live copy on a server a membership
//! change moved out of the group, the key is indeterminate — whichever
//! copy the read probes first decides — and is held to invariant 1 alone
//! until its next successful write (see
//! `hybrid_overwrite_failing_past_a_moved_out_copy_never_corrupts`).

use std::collections::{HashMap, HashSet};

use eckv::prelude::*;
use eckv::simnet::check::{check_seq, vec_of};
use eckv::simnet::SimRng;

const SERVERS: usize = 5;
/// Provisioned spares beyond the initial membership, joinable live.
const SPARES: usize = 2;
const K: usize = 3;
/// Hybrid size threshold: chaos writes span 64..8192 bytes, so keys
/// cross it in both directions.
const THRESHOLD: u64 = 4096;
/// Plain copies of a small hybrid value (`m + 1`).
const REPLICAS: usize = 3;
/// Cases per scheme.
const CASES: u64 = 128;

#[derive(Debug, Clone)]
enum ChaosEvent {
    Write { key: u8, len: u16 },
    Read { key: u8 },
    Kill { server: u8 },
    Repair { server: u8 },
    Slow { server: u8, factor: u8 },
    Restore { server: u8 },
    Join,
    Drain { victim: u8 },
}

fn gen_event(rng: &mut SimRng) -> ChaosEvent {
    let server = |rng: &mut SimRng| rng.index(SERVERS) as u8;
    // Weights 4:4:1:1:1:1:1:1.
    match rng.index(14) {
        0..=3 => ChaosEvent::Write {
            key: rng.index(32) as u8,
            len: rng.range_u64(64, 8192) as u16,
        },
        4..=7 => ChaosEvent::Read {
            key: rng.index(32) as u8,
        },
        8 => ChaosEvent::Kill {
            server: server(rng),
        },
        9 => ChaosEvent::Repair {
            server: server(rng),
        },
        10 => ChaosEvent::Slow {
            server: server(rng),
            factor: rng.range_u64(2, 10) as u8,
        },
        11 => ChaosEvent::Restore {
            server: server(rng),
        },
        12 => ChaosEvent::Join,
        _ => ChaosEvent::Drain {
            victim: rng.index(SERVERS + SPARES) as u8,
        },
    }
}

/// The slot tag of a plain (replicated) copy: unlike a chunk, it serves
/// whichever replica slot its server occupies.
const PLAIN: usize = usize::MAX;

/// The oracle: where the current version of each key physically lives.
struct ChunkModel {
    /// key -> `(server, slot)` pairs holding a current chunk (`slot` is
    /// the chunk index) or plain copy (`slot == PLAIN`). A holder vacated
    /// by a membership change keeps its data: should it re-enter the
    /// group, the engine reads it again.
    has_chunk: HashMap<u8, HashSet<(usize, usize)>>,
    /// Hybrid keys whose last successful write was replicated.
    replicated: HashSet<u8>,
    /// Replicated keys a failed chunked rewrite left with some live
    /// copies retired and others not (see `write`): which copy a read or
    /// repair probes first decides the outcome, so only integrity is
    /// checked until the next successful write.
    indeterminate: HashSet<u8>,
    alive: Vec<bool>,
    /// The size threshold when the scheme under test is hybrid.
    threshold: Option<u64>,
}

impl ChunkModel {
    fn new(threshold: Option<u64>) -> Self {
        ChunkModel {
            has_chunk: HashMap::new(),
            replicated: HashSet::new(),
            indeterminate: HashSet::new(),
            alive: vec![true; SERVERS + SPARES],
            threshold,
        }
    }

    /// `(slots, need)`: how many leading placement slots hold data of
    /// `key`, and how many of them a read needs reachable.
    fn shape(&self, key: u8) -> (usize, usize) {
        if self.replicated.contains(&key) {
            (REPLICAS, 1)
        } else {
            (SERVERS, K)
        }
    }

    /// What a holder of data slot `slot` of `key` stores.
    fn tag(&self, key: u8, slot: usize) -> usize {
        if self.replicated.contains(&key) {
            PLAIN
        } else {
            slot
        }
    }

    /// Whether placement slot `slot` (held by `server`) can serve `key`.
    fn serves(&self, key: u8, slot: usize, server: usize) -> bool {
        self.alive[server]
            && self
                .has_chunk
                .get(&key)
                .is_some_and(|h| h.contains(&(server, self.tag(key, slot))))
    }

    /// Data slots of `key` that can serve it, `except` one.
    fn reachable_except(&self, key: u8, targets: &[usize], except: usize) -> usize {
        let slots = self.shape(key).0;
        (0..slots)
            .filter(|&i| i != except && self.serves(key, i, targets[i]))
            .count()
    }

    fn reachable(&self, key: u8, targets: &[usize]) -> usize {
        self.reachable_except(key, targets, usize::MAX)
    }

    /// Books a write of `len` bytes; `posted` says whether the client
    /// believed enough holders alive to send a chunked write at all.
    fn write(&mut self, key: u8, len: u16, targets: &[usize], posted: bool) -> bool {
        let small = self.threshold.is_some_and(|t| u64::from(len) <= t);
        let (slots, need) = if small { (REPLICAS, 1) } else { (SERVERS, K) };
        let reached: Vec<usize> = (0..slots).filter(|&i| self.alive[targets[i]]).collect();
        if reached.len() >= need {
            let tag = |i: usize| if small { PLAIN } else { i };
            let stored = reached.iter().map(|&i| (targets[i], tag(i))).collect();
            self.has_chunk.insert(key, stored);
            self.indeterminate.remove(&key);
            if small {
                self.replicated.insert(key);
            } else {
                self.replicated.remove(&key);
            }
            true
        } else {
            // A failed replicated write stores nothing. A failed chunked
            // write, once posted, overwrote the chunk of every live holder
            // it reached, and on the replica slots also retired the plain
            // copy of a replicated key; the rest of the current version
            // stays where it was. A live copy it could not reach (on a
            // holder a membership change moved out of the group) makes a
            // replicated key indeterminate.
            if posted && !small {
                if let Some(holders) = self.has_chunk.get_mut(&key) {
                    for &i in &reached {
                        holders.remove(&(targets[i], i));
                        if i < REPLICAS {
                            holders.remove(&(targets[i], PLAIN));
                        }
                    }
                    if self.replicated.contains(&key) && holders.iter().any(|&(s, _)| self.alive[s])
                    {
                        self.indeterminate.insert(key);
                    }
                }
            }
            false
        }
    }

    fn read_ok(&self, key: u8, targets: &[usize]) -> bool {
        self.reachable(key, targets) >= self.shape(key).1
    }

    fn kill(&mut self, server: usize) {
        self.alive[server] = false;
    }

    /// Predicts a repair's outcome before it runs: of the keys placed on
    /// `server` that `listed` (the keys another live server holds an item
    /// of), how many can be rebuilt (enough chunks or a copy reachable on
    /// other live servers) and how many are written off. A replicated key
    /// with a live copy counts as rebuilt even where `server` held none;
    /// one with no live copy left is written off, its chunks being too
    /// few. Slowdowns are deliberately invisible here — a straggling
    /// survivor still serves its chunks, so a Slow in force must not move
    /// a key from the first count to the second. The third count is the
    /// indeterminate keys, which may land in either.
    fn repair_outcome(
        &self,
        server: usize,
        listed: &HashSet<u8>,
        targets_of: impl Fn(u8) -> Vec<usize>,
    ) -> (u64, u64, u64) {
        let (mut repaired, mut lost, mut either) = (0u64, 0u64, 0u64);
        for &key in listed {
            let targets = targets_of(key);
            let Some(slot) = targets.iter().position(|&s| s == server) else {
                continue;
            };
            if self.indeterminate.contains(&key) {
                either += 1;
            } else if self.reachable_except(key, &targets, slot) >= self.shape(key).1 {
                repaired += 1;
            } else {
                lost += 1;
            }
        }
        (repaired, lost, either)
    }

    /// Applies a membership change (at most one data slot of each
    /// affected vshard's group moved) to the model. `old_targets` is the
    /// placement snapshot taken before the change; `targets_of` reads the
    /// new one. A moved slot's new holder receives the slot's data iff it
    /// is alive AND either the vacated holder could serve it directly or
    /// enough of the other slots survive to reconstruct (chunks) or copy
    /// (replicas) it.
    fn membership_change(
        &mut self,
        old_targets: &HashMap<u8, Vec<usize>>,
        targets_of: impl Fn(u8) -> Vec<usize>,
    ) {
        let keys: Vec<u8> = self.has_chunk.keys().copied().collect();
        for key in keys {
            let (slots, need) = self.shape(key);
            let new_t = targets_of(key);
            for slot in 0..slots {
                let (o, n) = (old_targets[&key][slot], new_t[slot]);
                let direct = self.serves(key, slot, o);
                if o != n
                    && self.alive[n]
                    && (direct || self.reachable_except(key, &new_t, slot) >= need)
                {
                    let tag = self.tag(key, slot);
                    self.has_chunk
                        .get_mut(&key)
                        .expect("present")
                        .insert((n, tag));
                }
            }
        }
    }

    fn repair(&mut self, server: usize, targets_of: impl Fn(u8) -> Vec<usize>) {
        // Replacement wipes the node, then rebuilds every rebuildable chunk.
        for holders in self.has_chunk.values_mut() {
            holders.retain(|&(s, _)| s != server);
        }
        self.alive[server] = true;
        let keys: Vec<u8> = self.has_chunk.keys().copied().collect();
        for key in keys {
            let targets = targets_of(key);
            let (slots, need) = self.shape(key);
            let Some(slot) = targets[..slots].iter().position(|&s| s == server) else {
                continue;
            };
            if self.reachable(key, &targets) >= need {
                let tag = self.tag(key, slot);
                self.has_chunk
                    .get_mut(&key)
                    .expect("present")
                    .insert((server, tag));
            }
        }
    }
}

/// The keys some live server other than `server` holds any item of, in
/// RAM: a copy or a chunk, of whatever version.
fn held_elsewhere(world: &World, server: usize) -> HashSet<u8> {
    (0..32)
        .filter(|&key| {
            let name: std::sync::Arc<str> = format!("x{key}").into();
            let items = std::iter::once(StoreKey::from(&name))
                .chain((0..SERVERS).map(|i| StoreKey::chunk(name.clone(), i)))
                .collect::<Vec<_>>();
            (0..SERVERS + SPARES).any(|s| {
                s != server
                    && world.cluster.is_server_alive(s)
                    && items
                        .iter()
                        .any(|item| world.cluster.servers[s].borrow().store().contains(item))
            })
        })
        .collect()
}

/// Replays one chaos event sequence against the engine under `scheme`
/// and checks every outcome against the chunk-presence oracle. Hedging
/// is enabled throughout: speculative fetches race the injected
/// stragglers and must never corrupt data or flip an outcome.
fn run_chaos(scheme: Scheme, events: &[ChaosEvent], seed: u64) {
    let world = World::new(
        EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, SERVERS, 1).max_servers(SERVERS + SPARES),
            scheme,
        )
        .hedge(HedgeConfig::after(SimDuration::from_micros(50))),
    );
    let mut sim = Simulation::new();
    let mut model = ChunkModel::new(scheme.hybrid_params().map(|(t, ..)| t));
    let mut version: u64 = seed;
    // Placement is read through the vshard layer, so the closure tracks
    // membership churn: after a Join or Drain it returns the NEW
    // width-`SERVERS` group for the key.
    let targets_of = |world: &std::rc::Rc<World>, key: u8| -> Vec<usize> {
        world
            .cluster
            .targets_for(format!("x{key}").as_bytes(), SERVERS)
            .expect("chaos never drains below the scheme width")
    };

    for event in events.iter().cloned() {
        match event {
            ChaosEvent::Write { key, len } => {
                version = version.wrapping_add(1);
                world.reset_metrics();
                let targets = targets_of(&world, key);
                // The client's failure view lags ground truth; it posts a
                // chunked write only if it believes `K` holders alive.
                let posted = targets.iter().filter(|&&s| world.view_alive(0, s)).count() >= K;
                eckv::core::driver::run_workload(
                    &world,
                    &mut sim,
                    vec![vec![Op::set_synthetic(
                        format!("x{key}"),
                        len as u64,
                        version,
                    )]],
                );
                let engine_ok = world.metrics.borrow().errors == 0;
                let model_ok = model.write(key, len, &targets, posted);
                assert_eq!(engine_ok, model_ok, "write({key}) diverged from the oracle");
                assert_eq!(world.metrics.borrow().integrity_errors, 0);
            }
            ChaosEvent::Read { key } => {
                world.reset_metrics();
                eckv::core::driver::run_workload(
                    &world,
                    &mut sim,
                    vec![vec![Op::get(format!("x{key}"))]],
                );
                let m = world.metrics.borrow();
                assert_eq!(m.integrity_errors, 0, "corruption on read({key})");
                let targets = targets_of(&world, key);
                if model.indeterminate.contains(&key) {
                    continue;
                }
                assert_eq!(
                    m.errors == 0,
                    model.read_ok(key, &targets),
                    "read({key}) diverged from the oracle (reachable chunks: {})",
                    model.reachable(key, &targets)
                );
            }
            ChaosEvent::Kill { server } => {
                let s = server as usize;
                if world.cluster.is_server_alive(s) {
                    world.cluster.kill_server(s);
                    model.kill(s);
                }
            }
            ChaosEvent::Repair { server } => {
                let s = server as usize;
                let w = world.clone();
                let listed = held_elsewhere(&world, s);
                let (repaired, lost, either) =
                    model.repair_outcome(s, &listed, |key| targets_of(&w, key));
                let report = eckv::core::repair_server(&world, &mut sim, s);
                let got = (report.keys_repaired, report.keys_lost);
                assert!(
                    got.0 + got.1 == repaired + lost + either
                        && (repaired..=repaired + either).contains(&got.0),
                    "repair({s}) diverged from the oracle: engine {got:?}, oracle \
                     ({repaired}, {lost}) plus {either} indeterminate"
                );
                model.repair(s, |key| targets_of(&w, key));
            }
            ChaosEvent::Slow { server, factor } => {
                // A straggler is alive: the oracle is untouched.
                world.cluster.slow_server(
                    sim.now(),
                    server as usize,
                    factor as f64,
                    SimDuration::from_micros(100),
                );
            }
            ChaosEvent::Restore { server } => {
                world.cluster.restore_server_speed(server as usize);
            }
            ChaosEvent::Join => {
                let w = world.clone();
                let old: HashMap<u8, Vec<usize>> =
                    (0..32).map(|key| (key, targets_of(&w, key))).collect();
                // `None` means the spare pool is exhausted: a no-op for
                // engine and model alike.
                if eckv::core::join_server(&world, &mut sim).is_some() {
                    sim.run();
                    model.membership_change(&old, |key| targets_of(&w, key));
                }
            }
            ChaosEvent::Drain { victim } => {
                let s = victim as usize;
                // Only active members leave, and never below the scheme
                // width (the engine allows it but every op then fails by
                // design — covered in tests/elastic.rs, out of scope for
                // this oracle).
                if world.cluster.is_member(s) && world.cluster.member_count() > SERVERS {
                    let w = world.clone();
                    let old: HashMap<u8, Vec<usize>> =
                        (0..32).map(|key| (key, targets_of(&w, key))).collect();
                    eckv::core::drain_server(&world, &mut sim, s);
                    sim.run();
                    model.membership_change(&old, |key| targets_of(&w, key));
                }
            }
        }
    }
}

/// Checks `scheme` against the oracle on `CASES` random event sequences.
fn chaos(scheme: Scheme) {
    check_seq(
        CASES,
        |rng| (rng.next_u64(), vec_of(rng, 10..80, gen_event)),
        |(seed, events)| run_chaos(scheme, events, *seed),
    );
}

#[test]
fn chaos_matches_the_chunk_presence_oracle() {
    chaos(Scheme::era_ce_cd(K, 2));
}

#[test]
fn sd_chaos_matches_the_chunk_presence_oracle() {
    // Server-decode: the aggregation fan-in (and its hedging) runs on the
    // same fan-out core and must satisfy the same oracle.
    chaos(Scheme::era_se_sd(K, 2));
}

#[test]
fn se_cd_chaos_matches_the_chunk_presence_oracle() {
    // Server encode, client decode: the encoder's peer distribution is a
    // pre-filtered write fan-out.
    chaos(Scheme::era_se_cd(K, 2));
}

#[test]
fn hybrid_chaos_matches_the_size_aware_oracle() {
    chaos(Scheme::hybrid(THRESHOLD, K, 2));
}

#[test]
fn hybrid_overwrite_failing_past_a_moved_out_copy_never_corrupts() {
    // Shrunk from a failing case: a join moves the key's primary replica
    // slot to a spare (the old primary keeps its copy, outside the group),
    // and a chunked rewrite fails after retiring the copies it reached. A
    // later drain brings the old primary back into a replica slot, so one
    // live replica slot holds the last successfully written value while
    // the first one probed does not: the read and the repair fail although
    // that copy exists. The oracle treats the key as indeterminate and
    // checks only that nothing corrupt is ever served.
    use ChaosEvent::*;
    let events = [
        Write { key: 18, len: 2514 },
        Kill { server: 1 },
        Kill { server: 0 },
        Join,
        Join,
        Kill { server: 4 },
        Write { key: 18, len: 5937 },
        Drain { victim: 0 },
        Read { key: 18 },
        Repair { server: 4 },
        Read { key: 18 },
    ];
    run_chaos(
        Scheme::hybrid(THRESHOLD, K, 2),
        &events,
        8_773_736_380_305_038_870,
    );
}
