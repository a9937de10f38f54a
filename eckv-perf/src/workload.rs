//! The four workloads, and the recorder that times one round of each from
//! outside the engine.
//!
//! A round is set-up (`World::new` plus the load phase) followed by the
//! measured phase. Every round of a run uses the same seed, so the model
//! metrics of all rounds are identical and only host timings vary.

use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use eckv_core::{
    driver, start_repair, EngineConfig, Op, RepairConfig, RepairReport, Scheme, World,
};
use eckv_simnet::{ClusterProfile, SimRng, SimTime, Simulation, Trace, TraceBus};
use eckv_store::{Bytes, ClusterConfig};
use eckv_ycsb::{load_ops, run_ops, YcsbConfig};

use crate::observe::{
    percentile_ns, proc_status_bytes, reference_loop, span_shares, BusSnapshot, CounterDeltas,
    HostWork, REFERENCE_S,
};

/// Servers in every workload's cluster, all RS(3,2) over five servers.
const SERVERS: usize = 5;
/// Data and parity chunks per value.
const K: usize = 3;
const M: usize = 2;
/// Cache memory per server: large enough that nothing is evicted.
const SERVER_MEMORY: u64 = 64 << 30;
/// SDSC-Comet's effective NIC bandwidth (45 Gbps), bytes per second.
const NIC_BYTES_PER_SEC: u64 = 5_625_000_000;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// YCSB-A 50:50 Zipfian on Era-CE-CD: the update-heavy hot path.
    YcsbA,
    /// YCSB-B 95:5 on Era-SE-SD while a killed server is rebuilt online.
    YcsbBRepair,
    /// Real 64 KiB bytes through the codec with one server down.
    Inline64k,
    /// Fresh 256 B inserts read back once: per-record cost, no hot keys.
    Ingest256b,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::YcsbA,
        Workload::YcsbBRepair,
        Workload::Inline64k,
        Workload::Ingest256b,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::YcsbA => "ycsb-a",
            Workload::YcsbBRepair => "ycsb-b-repair",
            Workload::Inline64k => "inline-64k",
            Workload::Ingest256b => "ingest-256b",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Value size in bytes.
    pub fn value_len(self) -> u64 {
        match self {
            Workload::YcsbA => 4 << 10,
            Workload::YcsbBRepair => 16 << 10,
            Workload::Inline64k => 64 << 10,
            Workload::Ingest256b => 256,
        }
    }

    /// Whether values are real bytes (the only workload where the codec and
    /// the payload digest run).
    pub fn inline(self) -> bool {
        self == Workload::Inline64k
    }

    /// What the host spends the workload's time on: digests and codecs of
    /// real bytes, or the engine's bookkeeping.
    pub fn host_work(self) -> HostWork {
        if self.inline() {
            HostWork::Bytes
        } else {
            HostWork::Engine
        }
    }

    /// Whether the records are inserted by the measured phase rather than
    /// the load phase.
    pub fn inserts_in_run(self) -> bool {
        self == Workload::Ingest256b
    }

    /// Runs one round: fresh world, load, measured phase, with the host's
    /// speed timed before and after.
    pub fn round(self, size: Size, seed: u64, traced: bool) -> Round {
        // A tiny round is a smoke test, not a measurement.
        let reference = || match size {
            Size::Full => reference_loop(self.host_work()),
            Size::Tiny => Duration::from_secs_f64(REFERENCE_S),
        };
        let before = reference();
        let r = Recorder::new(traced);
        let mut round = match self {
            Workload::YcsbA => ycsb_a(r, size, seed),
            Workload::YcsbBRepair => ycsb_b_repair(r, size, seed),
            Workload::Inline64k => inline_64k(r, size, seed),
            Workload::Ingest256b => ingest_256b(r, size, seed),
        };
        round.reference = (before + reference()) / 2;
        round
    }
}

/// How big a round is: `Full` is the benchmark, `Tiny` the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A few hundred ops per workload.
    #[cfg_attr(not(test), allow(dead_code))] // only the smoke tests run it
    Tiny,
}

impl Size {
    fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

/// SDSC-Comet, five servers, `clients` closed-loop clients on
/// `client_nodes` nodes.
pub fn engine(scheme: Scheme, clients: usize, client_nodes: usize) -> EngineConfig {
    EngineConfig::new(
        ClusterConfig::new(ClusterProfile::SdscComet, SERVERS, clients)
            .client_nodes(client_nodes)
            .server_memory(SERVER_MEMORY),
        scheme,
    )
}

/// The 16-byte key `i` of the key space of `seed`. The prefix moves with
/// the seed, so placement, and every sim-time metric with it, does too.
pub fn key(seed: u64, i: u64) -> Arc<str> {
    let prefix = SimRng::seed_from_u64(seed).next_u64() & 0xff_ffff;
    format!("{prefix:06x}{i:010}").into()
}

fn ycsb_a(mut r: Recorder, size: Size, seed: u64) -> Round {
    let ycsb = YcsbConfig {
        workload: eckv_ycsb::Workload::A,
        record_count: size.pick(25_000, 300),
        ops_per_client: size.pick(800, 40),
        clients: size.pick(150, 6),
        value_len: Workload::YcsbA.value_len(),
        seed,
    };
    // Concurrent updates of Zipf-hot keys make stale reads legitimate, so
    // digest validation stays off (as in the paper's YCSB runs).
    let world = r.world(
        engine(Scheme::era_ce_cd(K, M), ycsb.clients, size.pick(10, 2))
            .window(1)
            .validate(false),
    );
    r.load(|| load_ops(&ycsb));
    r.begin();
    let ops = r.gen(|| run_ops(&ycsb));
    r.run(|sim| driver::enqueue_workload(&world, sim, ops));
    r.finish(ycsb.record_count, ycsb.value_len)
}

/// The server `ycsb-b-repair` kills and rebuilds.
const REPAIRED_SERVER: usize = 2;

fn ycsb_b_repair(mut r: Recorder, size: Size, seed: u64) -> Round {
    let ycsb = YcsbConfig {
        workload: eckv_ycsb::Workload::B,
        record_count: size.pick(5_000, 60),
        ops_per_client: size.pick(1_500, 200),
        clients: size.pick(150, 6),
        value_len: Workload::YcsbBRepair.value_len(),
        seed,
    };
    let world = r.world(
        engine(Scheme::era_se_sd(K, M), ycsb.clients, size.pick(10, 2))
            .window(1)
            .validate(false)
            .repair(
                RepairConfig::default()
                    .window(8)
                    .bandwidth(NIC_BYTES_PER_SEC / 10),
            ),
    );
    r.load(|| load_ops(&ycsb));
    r.begin();
    let ops = r.gen(|| run_ops(&ycsb));
    r.run(|sim| {
        world.cluster.kill_server(REPAIRED_SERVER);
        start_repair(&world, sim, REPAIRED_SERVER);
        driver::enqueue_workload(&world, sim, ops);
    });
    r.finish(ycsb.record_count, ycsb.value_len)
}

/// The server `inline-64k` kills, so reads of its chunks decode.
const KILLED_SERVER: usize = 1;

fn inline_64k(mut r: Recorder, size: Size, seed: u64) -> Round {
    let (clients, records, passes) = (2, size.pick(1_000, 12), size.pick(24, 2));
    // Distinct value buffers the ops draw from.
    let buffers = size.pick(64, 4);
    let value_len = Workload::Inline64k.value_len();
    let world = r.world(engine(Scheme::era_ce_cd(K, M), clients, clients).window(4));
    let mut rng = SimRng::seed_from_u64(seed);
    // One key set for every seed: which keys lost a data chunk, and so the
    // share of reads that decode, would otherwise swing the GET median by
    // several percent from seed to seed. The seed moves the bytes and the
    // order of the ops.
    let (keys, pool) = r.setup(|| {
        let keys: Vec<Arc<str>> = (0..records).map(|i| key(0, i)).collect();
        let pool: Vec<Bytes> = (0..buffers)
            .map(|_| {
                (0..value_len / 8)
                    .flat_map(|_| rng.next_u64().to_le_bytes())
                    .collect()
            })
            .collect();
        (keys, pool)
    });
    // Every key once, in a fresh seeded order dealt round-robin to clients.
    let pass = |rng: &mut SimRng, op: &mut dyn FnMut(&mut SimRng, &Arc<str>) -> Op| {
        let mut order: Vec<&Arc<str>> = keys.iter().collect();
        rng.shuffle(&mut order);
        (0..clients)
            .map(|c| {
                order
                    .iter()
                    .skip(c)
                    .step_by(clients)
                    .map(|k| op(rng, k))
                    .collect()
            })
            .collect::<Vec<Vec<Op>>>()
    };
    let overwrite = |rng: &mut SimRng| {
        pass(rng, &mut |rng, k| {
            Op::set_inline(k.clone(), pool[rng.index(buffers)].clone())
        })
    };
    r.load(|| overwrite(&mut rng));
    r.begin();
    world.cluster.kill_server(KILLED_SERVER);
    for _ in 0..passes {
        let ops = r.gen(|| overwrite(&mut rng));
        r.run(|sim| driver::enqueue_workload(&world, sim, ops));
        let ops = r.gen(|| pass(&mut rng, &mut |_, k| Op::get(k.clone())));
        r.run(|sim| driver::enqueue_workload(&world, sim, ops));
    }
    r.finish(records, value_len)
}

fn ingest_256b(mut r: Recorder, size: Size, seed: u64) -> Round {
    let (clients, per_client) = (size.pick(150, 6), size.pick(400, 50));
    let value_len = Workload::Ingest256b.value_len();
    let world = r.world(engine(Scheme::era_ce_cd(K, M), clients, size.pick(10, 2)).window(1));
    r.begin();
    let record = |c: usize, i: u64| c as u64 * per_client + i;
    let ops = r.gen(|| {
        let salt = SimRng::seed_from_u64(seed ^ 0x5EED).next_u64();
        (0..clients)
            .map(|c| {
                (0..per_client)
                    .map(|i| {
                        let rec = record(c, i);
                        Op::set_synthetic(key(seed, rec), value_len, salt ^ rec)
                    })
                    .collect()
            })
            .collect()
    });
    r.run(|sim| driver::enqueue_workload(&world, sim, ops));
    let ops = r.gen(|| {
        (0..clients)
            .map(|c| {
                (0..per_client)
                    .map(|i| Op::get(key(seed, record(c, i))))
                    .collect()
            })
            .collect()
    });
    r.run(|sim| driver::enqueue_workload(&world, sim, ops));
    r.finish(clients as u64 * per_client, value_len)
}

/// Sim-time results of one round. Deterministic for a seed: any change in
/// them between two builds is a change in the modelled store.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Ops completed in the measured phase.
    pub ops: u64,
    /// Sim time from the phase's first admission to its last completion.
    pub elapsed_ns: u64,
    /// Completed GETs.
    pub get_count: u64,
    /// Completed SETs.
    pub set_count: u64,
    /// Failed ops.
    pub errors: u64,
    /// Reads whose bytes failed validation.
    pub integrity_errors: u64,
    /// Transparent retries after dead-server discoveries.
    pub retries: u64,
    /// GETs that had to decode.
    pub degraded_gets: u64,
    /// GET median, ns.
    pub get_p50_ns: f64,
    /// GET p99.9, ns.
    pub get_p999_ns: f64,
    /// SET median, ns.
    pub set_p50_ns: f64,
    /// SET p99.9, ns.
    pub set_p999_ns: f64,
    /// DES events the phase executed.
    pub events: u64,
    /// Live records at the end.
    pub records: u64,
    /// Value size in bytes.
    pub value_len: u64,
    /// Chunks every record should hold (`k + m`).
    pub width: u64,
    /// Cache bytes in use across the servers.
    pub used_bytes: u64,
    /// Items stored across the servers.
    pub items: u64,
    /// Store lookups that hit, over the round.
    pub hits: u64,
    /// Store lookups that missed, over the round.
    pub misses: u64,
    /// Store sets the measured phase issued.
    pub store_sets: u64,
    /// Store lookups the measured phase issued.
    pub store_gets: u64,
    /// The online rebuild's report, when one ran.
    pub repair: Option<RepairReport>,
    /// Whether the rebuild was still running when the foreground load ended.
    pub repair_overran: bool,
    /// Keys degraded reads promoted to the front of the rebuild queue.
    pub promotions: u64,
}

/// What the traced round of a workload adds.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Highest DES queue depth the phase reached.
    pub peak_pending: usize,
    /// Network and codec counter deltas of the phase.
    pub counters: CounterDeltas,
    /// `span.*` critical-path shares of the phase.
    pub shares: Vec<(String, f64)>,
}

/// One round's measurements.
#[derive(Debug, Clone)]
pub struct Round {
    /// Wall time of `World::new`.
    pub world_new: Duration,
    /// Wall time of the load phase (input generation included).
    pub load: Duration,
    /// Wall time generating the measured phase's op streams.
    pub gen: Duration,
    /// Wall time admitting and simulating the measured phase.
    pub run: Duration,
    /// RSS growth across the load phase, bytes.
    pub rss_load: f64,
    /// RSS growth across the measured phase, bytes.
    pub rss_run: f64,
    /// The modelled store's results.
    pub model: Model,
    /// Trace read-outs, for a traced round.
    pub traced: Option<Traced>,
    /// The reference loop's time around the round.
    pub reference: Duration,
}

impl Round {
    /// `d` in seconds, rescaled to a host on which the reference loop takes
    /// [`REFERENCE_S`].
    pub fn host_s(&self, d: Duration) -> f64 {
        d.as_secs_f64() * REFERENCE_S / self.reference.as_secs_f64()
    }

    /// Set-up wall time: `World::new` plus the load phase.
    pub fn setup(&self) -> Duration {
        self.world_new + self.load
    }

    /// Measured-phase wall time, op generation included.
    pub fn measured(&self) -> Duration {
        self.gen + self.run
    }

    /// Every correctness check this round fails, described.
    pub fn violations(&self) -> Vec<String> {
        let m = &self.model;
        let mut out = Vec::new();
        if m.errors > 0 {
            out.push(format!("{} of {} ops failed", m.errors, m.ops));
        }
        if m.integrity_errors > 0 {
            out.push(format!(
                "{} reads returned corrupt data",
                m.integrity_errors
            ));
        }
        if let Some(rep) = m.repair.filter(|rep| rep.keys_lost > 0) {
            out.push(format!("the rebuild lost {} keys", rep.keys_lost));
        }
        if m.repair_overran {
            out.push("the rebuild was still running when the foreground load ended".into());
        }
        if m.items != m.records * m.width {
            out.push(format!(
                "{} chunks stored for {} records of {} chunks",
                m.items, m.records, m.width
            ));
        }
        if let Some(t) = &self.traced {
            let c = t.counters;
            if c.max_tx_util > 1.0 || c.max_rx_util > 1.0 {
                out.push(format!(
                    "NIC utilisation above 1 (tx {}, rx {})",
                    c.max_tx_util, c.max_rx_util
                ));
            }
        }
        out
    }
}

/// Times one round from outside: the workload script calls it around each
/// step, and it snapshots the world at the phase boundary.
pub struct Recorder {
    traced: bool,
    world: Option<Rc<World>>,
    sim: Simulation,
    world_new: Duration,
    load: Duration,
    gen: Duration,
    run: Duration,
    rss: [f64; 3],
    phase_at: SimTime,
    phase_events: u64,
    phase_bus: Option<BusSnapshot>,
    phase_store: (u64, u64),
    peak_pending: usize,
}

impl Recorder {
    /// A recorder for an untraced or a traced round.
    pub fn new(traced: bool) -> Self {
        Recorder {
            traced,
            world: None,
            sim: Simulation::new(),
            world_new: Duration::ZERO,
            load: Duration::ZERO,
            gen: Duration::ZERO,
            run: Duration::ZERO,
            rss: [0.0; 3],
            phase_at: SimTime::ZERO,
            phase_events: 0,
            phase_bus: None,
            phase_store: (0, 0),
            peak_pending: 0,
        }
    }

    fn world_ref(&self) -> &Rc<World> {
        self.world
            .as_ref()
            .expect("the script builds its world first")
    }

    /// Builds the world (traced: counters and spans on, no sinks).
    pub fn world(&mut self, cfg: EngineConfig) -> Rc<World> {
        self.rss[0] = proc_status_bytes("VmRSS");
        let t = Instant::now();
        let world = if self.traced {
            let mut bus = TraceBus::new();
            bus.enable_spans(0);
            World::new_traced(cfg, Trace::from_bus(bus))
        } else {
            World::new(cfg)
        };
        self.world_new = t.elapsed();
        self.world = Some(world.clone());
        world
    }

    /// Runs a set-up step, timed as part of the load phase.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        timed(&mut self.load, f)
    }

    /// Generates and runs the load phase to completion.
    pub fn load(&mut self, ops: impl FnOnce() -> Vec<Vec<Op>>) {
        let world = self.world_ref().clone();
        timed(&mut self.load, || {
            driver::run_workload(&world, &mut self.sim, ops())
        });
    }

    /// Ends set-up: resets the metrics and snapshots the world.
    pub fn begin(&mut self) {
        self.rss[1] = proc_status_bytes("VmRSS");
        let world = self.world_ref().clone();
        world.reset_metrics();
        self.phase_at = self.sim.now();
        self.phase_events = self.sim.events_executed();
        self.phase_bus = BusSnapshot::take(&world);
        self.phase_store = store_ops(&world);
    }

    /// Generates measured-phase input, timed as `ops.gen_s`.
    pub fn gen<T>(&mut self, f: impl FnOnce() -> T) -> T {
        timed(&mut self.gen, f)
    }

    /// Admits work with `enqueue`, then simulates until quiescent; timed as
    /// `core.run_s`. A traced round steps the loop itself to sample the
    /// queue depth.
    pub fn run(&mut self, enqueue: impl FnOnce(&mut Simulation)) {
        timed(&mut self.run, || {
            enqueue(&mut self.sim);
            if self.traced {
                while self.sim.step() {
                    self.peak_pending = self.peak_pending.max(self.sim.events_pending());
                }
            } else {
                self.sim.run();
            }
        });
    }

    /// Reads the results of a round whose store holds `records` records of
    /// `value_len` bytes.
    pub fn finish(mut self, records: u64, value_len: u64) -> Round {
        self.rss[2] = proc_status_bytes("VmRSS");
        let world = self.world_ref().clone();
        let m = world.metrics.borrow();
        let repair = world.last_repair_report();
        let repair_end = repair.map(|rep| self.phase_at + rep.elapsed);
        let (sets, gets) = store_ops(&world);
        let servers = world.cluster.servers.iter().map(|s| s.borrow().stats());
        let (items, hits, misses) = servers.fold((0, 0, 0), |(i, h, mi), s| {
            (i + s.items, h + s.hits, mi + s.misses)
        });
        let model = Model {
            ops: m.ops(),
            elapsed_ns: m.elapsed().as_nanos(),
            get_count: m.get_summary().count,
            set_count: m.set_summary().count,
            errors: m.errors,
            integrity_errors: m.integrity_errors,
            retries: m.retries,
            degraded_gets: m.get_degraded_count,
            get_p50_ns: percentile_ns(&m.get_latency, 50.0),
            get_p999_ns: percentile_ns(&m.get_latency, 99.9),
            set_p50_ns: percentile_ns(&m.set_latency, 50.0),
            set_p999_ns: percentile_ns(&m.set_latency, 99.9),
            events: self.sim.events_executed() - self.phase_events,
            records,
            value_len,
            width: world.scheme.servers_per_key() as u64,
            used_bytes: world.memory_report().used_bytes,
            items,
            hits,
            misses,
            store_sets: sets - self.phase_store.0,
            store_gets: gets - self.phase_store.1,
            repair,
            repair_overran: world.repair_active()
                || repair_end.is_some_and(|end| end > m.finished_at),
            promotions: m.repair_promotions,
        };
        let traced = BusSnapshot::take(&world).map(|after| {
            let before = self.phase_bus.clone().unwrap_or_default();
            let shares = world
                .trace
                .with_bus(|bus| {
                    bus.spans()
                        .map(|s| span_shares(&s.attributions()[before.spans..]))
                })
                .flatten()
                .unwrap_or_default();
            Traced {
                peak_pending: self.peak_pending,
                counters: CounterDeltas::between(
                    &before.counters,
                    &after.counters,
                    self.phase_at,
                    self.sim.now(),
                ),
                shares,
            }
        });
        Round {
            world_new: self.world_new,
            load: self.load,
            gen: self.gen,
            run: self.run,
            rss_load: self.rss[1] - self.rss[0],
            rss_run: self.rss[2] - self.rss[1],
            model,
            traced,
            reference: Duration::from_secs_f64(REFERENCE_S),
        }
    }
}

/// Runs `f`, adding its wall time to `total`.
fn timed<T>(total: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *total += t.elapsed();
    out
}

/// `(sets, lookups)` the servers' stores have served so far.
fn store_ops(world: &World) -> (u64, u64) {
    world
        .cluster
        .servers
        .iter()
        .fold((0, 0), |(sets, gets), s| {
            let st = s.borrow().stats();
            (sets + st.sets, gets + st.hits + st.misses)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_model_and_another_seed_moves_it() {
        for w in Workload::ALL {
            let a = w.round(Size::Tiny, 3, false).model;
            assert_eq!(a, w.round(Size::Tiny, 3, false).model, "{}", w.name());
            assert_ne!(a, w.round(Size::Tiny, 4, false).model, "{}", w.name());
        }
    }

    #[test]
    fn reads_past_the_failure_budget_fail_the_round() {
        let mut r = Recorder::new(false);
        let world = r.world(engine(Scheme::era_ce_cd(K, M), 1, 1));
        r.load(|| {
            vec![(0..20)
                .map(|i| Op::set_synthetic(key(1, i), 4096, i))
                .collect()]
        });
        r.begin();
        // RS(3,2) survives two failures, not three.
        for server in 0..3 {
            world.cluster.kill_server(server);
        }
        let reads = (0..20).map(|i| Op::get(key(1, i))).collect();
        r.run(|sim| driver::enqueue_workload(&world, sim, vec![reads]));
        let violations = r.finish(20, 4096).violations();
        assert!(
            violations.iter().any(|v| v.contains("ops failed")),
            "{violations:?}"
        );
    }

    #[test]
    fn a_rebuild_that_outlives_the_load_fails_the_round() {
        let mut r = Recorder::new(false);
        let world = r.world(
            engine(Scheme::era_se_sd(K, M), 1, 1)
                .repair(RepairConfig::default().bandwidth(1 << 20)),
        );
        r.load(|| {
            vec![(0..20)
                .map(|i| Op::set_synthetic(key(1, i), 16 << 10, i))
                .collect()]
        });
        r.begin();
        let reads = (0..5).map(|i| Op::get(key(1, i))).collect();
        r.run(|sim| {
            world.cluster.kill_server(REPAIRED_SERVER);
            start_repair(&world, sim, REPAIRED_SERVER);
            driver::enqueue_workload(&world, sim, vec![reads]);
        });
        let violations = r.finish(20, 16 << 10).violations();
        assert!(
            violations.iter().any(|v| v.contains("still running")),
            "{violations:?}"
        );
    }
}
