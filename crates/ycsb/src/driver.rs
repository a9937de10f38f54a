//! Multi-client YCSB driver over the resilient KV engine.

use std::rc::Rc;
use std::sync::Arc;

use eckv_core::{driver, ops::Op, World};
use eckv_simnet::{SimRng, Simulation, Summary};

use crate::workload::{KeyChooser, Workload};
use crate::zipfian::{Latest, ScrambledZipfian};

/// Parameters of one YCSB experiment (the paper: 250 K records, 150
/// clients, 2.5 K ops per client, 16 B keys, 1–32 KB values).
#[derive(Debug, Clone, Copy)]
pub struct YcsbConfig {
    /// Which mix to run.
    pub workload: Workload,
    /// Records loaded before the measured run.
    pub record_count: u64,
    /// Operations each client performs in the measured run.
    pub ops_per_client: u64,
    /// Concurrent client processes.
    pub clients: usize,
    /// Value size in bytes.
    pub value_len: u64,
    /// Workload seed (same seed, same request stream).
    pub seed: u64,
}

/// Results of a YCSB run.
#[derive(Debug, Clone, Copy)]
pub struct YcsbReport {
    /// Mix that was run.
    pub workload: Workload,
    /// Value size in bytes.
    pub value_len: u64,
    /// Operations completed in the measured phase.
    pub ops: u64,
    /// Aggregate throughput, operations/second.
    pub throughput: f64,
    /// Read latency digest.
    pub read_latency: Summary,
    /// Update latency digest.
    pub write_latency: Summary,
    /// Failed operations.
    pub errors: u64,
}

/// YCSB key format.
fn key_for(record: u64) -> String {
    // 16-byte keys as in the paper ("user" + zero-padded id).
    format!("user{record:012}")
}

/// Builds the load-phase streams: the records split evenly across clients.
pub fn load_ops(cfg: &YcsbConfig) -> Vec<Vec<Op>> {
    let per_client = cfg.record_count.div_ceil(cfg.clients as u64);
    (0..cfg.clients as u64)
        .map(|c| {
            let lo = c * per_client;
            let hi = ((c + 1) * per_client).min(cfg.record_count);
            (lo..hi)
                .map(|r| Op::set_synthetic(key_for(r), cfg.value_len, r))
                .collect()
        })
        .collect()
}

/// Builds the measured-run streams: `ops_per_client` reads/updates with
/// Zipfian-skewed keys.
///
/// The key distribution is built once and each client draws from its own
/// clone of it. Keys are shared per record: every op on one record holds
/// the same `Arc<str>`.
pub fn run_ops(cfg: &YcsbConfig) -> Vec<Vec<Op>> {
    let mut root = SimRng::seed_from_u64(cfg.seed);
    let chooser = if cfg.workload == Workload::D {
        KeyChooser::Latest(Latest::new(cfg.record_count))
    } else {
        KeyChooser::Zipfian(ScrambledZipfian::new(cfg.record_count))
    };
    // Workload D inserts new records; each client gets a disjoint id range
    // of `ops_per_client` ids above the loaded set.
    let inserted = if cfg.workload == Workload::D {
        cfg.clients as u64 * cfg.ops_per_client
    } else {
        0
    };
    let mut keys: Vec<Option<Arc<str>>> = vec![None; (cfg.record_count + inserted) as usize];
    let mut key = |record: u64| -> Arc<str> {
        keys[record as usize]
            .get_or_insert_with(|| key_for(record).into())
            .clone()
    };
    (0..cfg.clients)
        .map(|c| {
            let mut rng = root.fork();
            let mut chooser = chooser.clone();
            let mut next_insert = cfg.record_count + c as u64 * cfg.ops_per_client;
            (0..cfg.ops_per_client)
                .map(|i| {
                    if rng.next_f64() < cfg.workload.read_proportion() {
                        Op::get(key(chooser.next(&mut rng)))
                    } else if cfg.workload == Workload::D {
                        let record = next_insert;
                        next_insert += 1;
                        if let KeyChooser::Latest(l) = &mut chooser {
                            l.record_inserted();
                        }
                        Op::set_synthetic(key(record), cfg.value_len, record)
                    } else {
                        // Updates rewrite the whole value, new version.
                        Op::set_synthetic(
                            key(chooser.next(&mut rng)),
                            cfg.value_len,
                            (c as u64) << 32 | i,
                        )
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs load + measured phases and reports the measured phase.
///
/// The world should be built with `validate(false)`: concurrent updates to
/// Zipfian-hot keys make stale-but-intact reads legitimate, which digest
/// validation would misreport.
///
/// # Panics
///
/// Panics if `cfg.clients` exceeds the world's configured client count.
pub fn run(world: &Rc<World>, sim: &mut Simulation, cfg: &YcsbConfig) -> YcsbReport {
    driver::run_workload(world, sim, load_ops(cfg));
    world.reset_metrics();
    driver::run_workload(world, sim, run_ops(cfg));
    let m = world.metrics.borrow();
    YcsbReport {
        workload: cfg.workload,
        value_len: cfg.value_len,
        ops: m.ops(),
        throughput: m.throughput_ops_per_sec(),
        read_latency: m.get_summary(),
        write_latency: m.set_summary(),
        errors: m.errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eckv_core::{EngineConfig, Scheme};
    use eckv_simnet::ClusterProfile;
    use eckv_store::ClusterConfig;

    fn world(scheme: Scheme, clients: usize) -> Rc<World> {
        World::new(
            EngineConfig::new(
                ClusterConfig::new(ClusterProfile::SdscComet, 5, clients).client_nodes(2),
                scheme,
            )
            .validate(false),
        )
    }

    fn cfg(workload: Workload) -> YcsbConfig {
        YcsbConfig {
            workload,
            record_count: 200,
            ops_per_client: 50,
            clients: 4,
            value_len: 4096,
            seed: 42,
        }
    }

    #[test]
    fn op_mix_matches_proportions() {
        let streams = run_ops(&YcsbConfig {
            ops_per_client: 2000,
            ..cfg(Workload::B)
        });
        let (mut reads, mut writes) = (0u64, 0u64);
        for s in &streams {
            for op in s {
                match op.kind() {
                    eckv_core::OpKind::Get => reads += 1,
                    eckv_core::OpKind::Set => writes += 1,
                }
            }
        }
        let total = reads + writes;
        assert_eq!(total, 8000);
        let read_frac = reads as f64 / total as f64;
        assert!((0.93..=0.97).contains(&read_frac), "read_frac={read_frac}");
    }

    #[test]
    fn load_covers_every_record_exactly_once() {
        let streams = load_ops(&cfg(Workload::A));
        let mut keys: Vec<String> = streams
            .iter()
            .flatten()
            .map(|op| op.key().to_owned())
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 200);
    }

    #[test]
    fn run_produces_report_for_each_scheme() {
        for scheme in [Scheme::AsyncRep { replicas: 3 }, Scheme::era_ce_cd(3, 2)] {
            let w = world(scheme, 4);
            let mut sim = Simulation::new();
            let report = run(&w, &mut sim, &cfg(Workload::A));
            assert_eq!(report.ops, 200, "{scheme}");
            assert_eq!(report.errors, 0, "{scheme}");
            assert!(report.throughput > 0.0);
            assert!(report.read_latency.count > 0);
            assert!(report.write_latency.count > 0);
        }
    }

    #[test]
    fn same_seed_reproduces_the_stream() {
        let a = run_ops(&cfg(Workload::A));
        let b = run_ops(&cfg(Workload::A));
        let fmt = |streams: &Vec<Vec<Op>>| {
            streams
                .iter()
                .flatten()
                .map(|o| format!("{:?}-{}", o.kind(), o.key()))
                .collect::<Vec<_>>()
        };
        assert_eq!(fmt(&a), fmt(&b));
    }

    #[test]
    fn workload_d_reads_skew_to_recent_inserts() {
        let streams = run_ops(&cfg(Workload::D));
        // D must contain ~5% inserts of brand-new record ids.
        let inserts: Vec<&Op> = streams
            .iter()
            .flatten()
            .filter(|op| op.kind() == eckv_core::OpKind::Set)
            .collect();
        assert!(!inserts.is_empty());
        for op in inserts {
            let id: u64 = op.key()[4..].parse().unwrap();
            assert!(id >= 200, "insert id {id} must be above the loaded set");
        }
    }

    #[test]
    fn workload_d_runs_end_to_end() {
        let w = world(Scheme::era_ce_cd(3, 2), 4);
        let mut sim = Simulation::new();
        let report = run(&w, &mut sim, &cfg(Workload::D));
        assert_eq!(report.ops, 200);
        // Reads of freshly-inserted keys can race their inserts (separate
        // clients); misses are legitimate, corruption is not.
        assert_eq!(w.metrics.borrow().integrity_errors, 0);
        assert!(report.throughput > 0.0);
    }

    fn key_of(op: &Op) -> &Arc<str> {
        match op {
            Op::Get { key } | Op::Set { key, .. } => key,
            Op::MGet { .. } => panic!("YCSB streams hold no bulk gets"),
        }
    }

    /// Digest of every op of every stream: kind, key bytes, payload length
    /// and payload digest, in order.
    fn stream_digest(streams: &[Vec<Op>]) -> u64 {
        let mut h = eckv_store::Xxh64::new();
        for s in streams {
            h.update(&(s.len() as u64).to_le_bytes());
            for op in s {
                let key = key_of(op);
                h.update(&[(op.kind() == eckv_core::OpKind::Set) as u8]);
                h.update(&(key.len() as u64).to_le_bytes());
                h.update(key.as_bytes());
                if let Op::Set { payload, .. } = op {
                    h.update(&payload.len().to_le_bytes());
                    h.update(&payload.digest().to_le_bytes());
                }
            }
        }
        h.digest()
    }

    #[test]
    fn run_streams_match_the_recorded_digests() {
        // The streams are pinned bit for bit: how the key distribution and
        // the keys are built and shared must not change a single op.
        let expected = [
            (Workload::A, 0x44bf_3030_c9a5_e499u64),
            (Workload::B, 0xc3ae_43e5_0f4f_6236),
            (Workload::C, 0x2e3e_95ec_dae2_4917),
            (Workload::D, 0x9d14_9ead_2130_f0ec),
        ];
        for (workload, digest) in expected {
            let streams = run_ops(&YcsbConfig {
                workload,
                record_count: 500,
                ops_per_client: 300,
                clients: 7,
                value_len: 4096,
                seed: 0x5eed,
            });
            assert_eq!(streams.len(), 7);
            assert!(streams.iter().all(|s| s.len() == 300));
            let got = stream_digest(&streams);
            assert_eq!(got, digest, "{workload}: {got:#x}");
        }
    }

    #[test]
    fn ops_on_one_record_share_one_key() {
        for workload in [Workload::A, Workload::D] {
            let c = YcsbConfig {
                record_count: 500,
                ops_per_client: 300,
                clients: 7,
                ..cfg(workload)
            };
            let streams = run_ops(&c);
            let mut first = std::collections::HashMap::<&str, (&Arc<str>, usize)>::new();
            for op in streams.iter().flatten() {
                let key = key_of(op);
                let (shared, uses) = first.entry(&**key).or_insert((key, 0));
                assert!(Arc::ptr_eq(shared, key), "{workload}: {key} copied");
                *uses += 1;
            }
            assert!(first.values().any(|&(_, uses)| uses > 1), "{workload}");
            if workload == Workload::D {
                // Reads of the latest records hit the insert range, so its
                // keys are shared between the insert and those reads.
                let reused_inserts = first
                    .iter()
                    .filter(|(k, &(_, uses))| k[4..].parse::<u64>().unwrap() >= 500 && uses > 1)
                    .count();
                assert!(reused_inserts > 0);
            }
        }
    }

    #[test]
    fn keys_are_16_bytes() {
        assert_eq!(key_for(0).len(), 16);
        assert_eq!(key_for(249_999).len(), 16);
    }
}
