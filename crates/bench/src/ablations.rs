//! Ablations of the design choices DESIGN.md calls out, plus the recovery
//! study the paper leaves as future work.

use eckv_core::{driver, ops::Op, repair, EngineConfig, Scheme, Side, World};
use eckv_erasure::CodecKind;
use eckv_simnet::{ClusterProfile, Simulation};
use eckv_store::ClusterConfig;

use crate::{size_label, Table};

fn per_op_us(scheme: Scheme, window: usize, size: u64, ops: usize) -> f64 {
    let world = World::new(
        EngineConfig::new(ClusterConfig::new(ClusterProfile::RiQdr, 9, 1), scheme).window(window),
    );
    let mut sim = Simulation::new();
    let stream: Vec<Op> = (0..ops)
        .map(|i| Op::set_synthetic(format!("a{i}"), size, i as u64))
        .collect();
    driver::run_workload(&world, &mut sim, vec![stream]);
    assert_eq!(world.metrics.borrow().errors, 0);
    let m = world.metrics.borrow();
    m.elapsed().as_micros_f64() / m.ops() as f64
}

/// ARPE window sweep: how much does the non-blocking completion window buy?
/// (The knob the paper describes as "a tunable send/receive window".)
pub fn window_sweep(quick: bool) -> Table {
    let mut t = Table::new(
        "Ablation - ARPE window sweep, Era-CE-CD Set us/op on RI-QDR",
        &["size", "w=1", "w=2", "w=4", "w=8", "w=16", "w=32"],
    );
    let ops = if quick { 100 } else { 500 };
    for size in [64u64 << 10, 1 << 20] {
        let mut row = vec![size_label(size)];
        for window in [1usize, 2, 4, 8, 16, 32] {
            row.push(format!(
                "{:.1}",
                per_op_us(Scheme::era_ce_cd(3, 2), window, size, ops)
            ));
        }
        t.row(row);
    }
    t
}

/// RS(k, m) shape sweep at equal or greater fault tolerance.
pub fn km_sweep(quick: bool) -> Table {
    let mut t = Table::new(
        "Ablation - RS(k,m) shape sweep, Era-CE-CD Set us/op (9 servers)",
        &[
            "size", "RS(2,2)", "RS(3,2)", "RS(4,2)", "RS(6,2)", "RS(6,3)", "RS(4,4)",
        ],
    );
    let ops = if quick { 100 } else { 500 };
    let shapes = [(2usize, 2usize), (3, 2), (4, 2), (6, 2), (6, 3), (4, 4)];
    for size in [64u64 << 10, 1 << 20] {
        let mut row = vec![size_label(size)];
        for (k, m) in shapes {
            let scheme = Scheme::Erasure {
                k,
                m,
                encode_at: Side::Client,
                decode_at: Side::Client,
                codec: CodecKind::RsVan,
            };
            row.push(format!("{:.1}", per_op_us(scheme, 16, size, ops)));
        }
        t.row(row);
    }
    t
}

/// Hybrid-threshold sweep (the paper's future work: hybrid
/// erasure/replication): per-op Set cost across value sizes for pure
/// replication, pure erasure, and the hybrid that switches at 16 KB.
pub fn hybrid_sweep(quick: bool) -> Table {
    let mut t = Table::new(
        "Extension - Hybrid rep/era scheme, Set us/op on RI-QDR",
        &["size", "Async-Rep=3", "Era-CE-CD", "Hybrid@16K"],
    );
    let ops = if quick { 100 } else { 500 };
    for size in [1u64 << 10, 4 << 10, 16 << 10, 64 << 10, 1 << 20] {
        let rep = per_op_us(Scheme::AsyncRep { replicas: 3 }, 16, size, ops);
        let era = per_op_us(Scheme::era_ce_cd(3, 2), 16, size, ops);
        let hyb = per_op_us(Scheme::hybrid(16 << 10, 3, 2), 16, size, ops);
        t.row(vec![
            size_label(size),
            format!("{rep:.1}"),
            format!("{era:.1}"),
            format!("{hyb:.1}"),
        ]);
    }
    t
}

/// Recovery overhead (the paper's future work): time and traffic to
/// re-protect the data set after one server is replaced.
pub fn recovery_table(quick: bool) -> Table {
    let mut t = Table::new(
        "Extension - Recovery after one server replacement (64 KB values)",
        &[
            "scheme",
            "keys repaired",
            "MB read",
            "MB written",
            "read amp",
            "elapsed ms",
        ],
    );
    let keys = if quick { 100 } else { 1000 };
    for scheme in [
        Scheme::AsyncRep { replicas: 3 },
        Scheme::era_ce_cd(3, 2),
        Scheme::era_se_cd(3, 2),
    ] {
        let world = World::new(EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
            scheme,
        ));
        let mut sim = Simulation::new();
        let writes: Vec<Op> = (0..keys)
            .map(|i| Op::set_synthetic(format!("rk{i}"), 64 << 10, i as u64))
            .collect();
        driver::run_workload(&world, &mut sim, vec![writes]);
        world.cluster.kill_server(2);
        let r = repair::repair_server(&world, &mut sim, 2);
        let mb = |b: u64| b as f64 / (1u64 << 20) as f64;
        t.row(vec![
            scheme.label(),
            r.keys_repaired.to_string(),
            format!("{:.1}", mb(r.bytes_read)),
            format!("{:.1}", mb(r.bytes_written)),
            format!("{:.2}", r.bytes_read as f64 / r.bytes_written.max(1) as f64),
            format!("{:.2}", r.elapsed.as_secs_f64() * 1e3),
        ]);
    }
    t
}

/// Availability transition: per-read wall time before a server failure, at
/// the discovery read, and after fail-over converges. Quantifies the
/// transient the paper's recovery discussion is about.
pub fn availability_timeline(quick: bool) -> Table {
    let mut t = Table::new(
        "Extension - Availability transition around one server failure (64 KB reads)",
        &["scheme", "before us", "discovery us", "after us"],
    );
    let keys = if quick { 60 } else { 300 };
    for scheme in [
        Scheme::AsyncRep { replicas: 3 },
        Scheme::era_ce_cd(3, 2),
        Scheme::era_se_sd(3, 2),
    ] {
        let world = World::new(EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
            scheme,
        ));
        let mut sim = Simulation::new();
        let writes: Vec<Op> = (0..keys)
            .map(|i| Op::set_synthetic(format!("av{i}"), 64 << 10, i as u64))
            .collect();
        driver::run_workload(&world, &mut sim, vec![writes]);

        // One read at a time so each op's wall time is individually
        // observable; the failure lands mid-sequence.
        let mut walls: Vec<f64> = Vec::with_capacity(keys as usize);
        for i in 0..keys {
            if i == keys / 2 {
                world.cluster.kill_server(2);
            }
            world.reset_metrics();
            driver::run_workload(&world, &mut sim, vec![vec![Op::get(format!("av{i}"))]]);
            assert_eq!(world.metrics.borrow().errors, 0, "{scheme}");
            walls.push(world.metrics.borrow().elapsed().as_micros_f64());
        }
        let half = (keys / 2) as usize;
        let before: f64 = walls[..half].iter().sum::<f64>() / half as f64;
        // The discovery read is the first post-failure read that touches
        // the dead server — take the max in the transition window.
        let discovery = walls[half..].iter().copied().fold(0.0f64, f64::max);
        let tail = &walls[walls.len() - half / 2..];
        let after: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        t.row(vec![
            scheme.label(),
            format!("{before:.1}"),
            format!("{discovery:.1}"),
            format!("{after:.1}"),
        ]);
    }
    t
}

/// Iterative analytics (future work: Spark workloads): per-iteration time
/// when the working set fits erasure coding's footprint but not
/// replication's.
pub fn iterative_table(quick: bool) -> Table {
    use eckv_boldio::{run_iterative, IterativeConfig, LustreConfig};
    let mut t = Table::new(
        "Extension - Iterative analytics: 3-iteration sweep over a cached working set",
        &[
            "scheme",
            "mean iter",
            "misses/iter",
            "iter1",
            "iter2",
            "iter3",
        ],
    );
    // Aggregate cache = 5 x 64 MB (quick) or 5 x 2 GB; working set sized
    // so RS(3,2) fits and 3x replication does not.
    let (working_set, mem): (u64, u64) = if quick {
        (160 << 20, 64 << 20)
    } else {
        (5 << 30, 2 << 30)
    };
    let cfg = IterativeConfig::new(working_set);
    for scheme in [Scheme::AsyncRep { replicas: 3 }, Scheme::era_ce_cd(3, 2)] {
        let world = World::new(
            EngineConfig::new(
                ClusterConfig::new(ClusterProfile::RiQdr, 5, cfg.tasks)
                    .client_nodes(cfg.hosts)
                    .server_memory(mem),
                scheme,
            )
            .window(8)
            .validate(false),
        );
        let mut sim = Simulation::new();
        let r = run_iterative(&world, &mut sim, &cfg, &LustreConfig::RI_QDR);
        let avg_miss =
            r.misses_per_iteration.iter().sum::<u64>() as f64 / r.misses_per_iteration.len() as f64;
        let mut row = vec![
            scheme.label(),
            r.mean_iteration.to_string(),
            format!("{avg_miss:.0}"),
        ];
        for it in &r.iteration_times {
            row.push(it.to_string());
        }
        t.row(row);
    }
    t
}

/// XOR-schedule optimization: operations per stripe for the bit-matrix
/// codes, naive (one XOR per set bit) vs the CSE-derived schedule.
pub fn schedule_table() -> Table {
    use eckv_erasure::schedule::{optimize, XorSchedule};
    use eckv_gf::{BitMatrix, Matrix};
    let mut t = Table::new(
        "Extension - XOR schedule optimization (ops per stripe)",
        &["code", "naive XORs", "scheduled XORs", "saving"],
    );
    for (label, rows, cols) in [
        ("CRS(3,2)", 2usize, 3usize),
        ("CRS(4,2)", 2, 4),
        ("CRS(6,3)", 3, 6),
        ("CRS(8,4)", 4, 8),
    ] {
        let coding = BitMatrix::from_gf256_matrix(&Matrix::cauchy(rows, cols));
        let naive = XorSchedule::naive_xor_count(&coding);
        let sched = optimize(&coding).xor_count();
        t.row(vec![
            label.to_owned(),
            naive.to_string(),
            sched.to_string(),
            format!("{:.0}%", 100.0 * (1.0 - sched as f64 / naive as f64)),
        ]);
    }
    t
}

/// SSD-assisted servers (the paper's Boldio storage nodes): read-phase
/// time for a working set that overflows RAM, with and without the flash
/// overflow tier.
pub fn ssd_table(quick: bool) -> Table {
    use eckv_store::SsdSpec;
    let mut t = Table::new(
        "Extension - SSD-assisted overflow (Async-Rep=3, 1 MB values)",
        &["config", "read errors", "read phase"],
    );
    let n = if quick { 120 } else { 600 };
    let ram = if quick { 64u64 << 20 } else { 256 << 20 };
    for (label, ssd) in [
        ("RAM only", None),
        (
            "RAM + PCIe-SSD",
            Some(SsdSpec::RI_QDR_PCIE.with_capacity(8 << 30)),
        ),
    ] {
        let mut cluster = ClusterConfig::new(ClusterProfile::RiQdr, 5, 2)
            .client_nodes(2)
            .server_memory(ram);
        if let Some(spec) = ssd {
            cluster = cluster.ssd(spec);
        }
        let world = World::new(
            EngineConfig::new(cluster, Scheme::AsyncRep { replicas: 3 }).validate(false),
        );
        let mut sim = Simulation::new();
        let writes: Vec<Vec<Op>> = (0..2)
            .map(|c| {
                (0..n)
                    .map(|i| Op::set_synthetic(format!("s{c}-{i}"), 1 << 20, (c * n + i) as u64))
                    .collect()
            })
            .collect();
        driver::run_workload(&world, &mut sim, writes);
        world.reset_metrics();
        let reads: Vec<Vec<Op>> = (0..2)
            .map(|c| (0..n).map(|i| Op::get(format!("s{c}-{i}"))).collect())
            .collect();
        driver::run_workload(&world, &mut sim, reads);
        let m = world.metrics.borrow();
        t.row(vec![
            label.to_owned(),
            m.errors.to_string(),
            m.elapsed().to_string(),
        ]);
    }
    t
}

/// Load balance under the skewed Zipfian pattern: per-server request share
/// for replication vs erasure coding. The paper attributes part of
/// Era-CE-CD's YCSB win to this ("interacts uniformly with all five
/// servers ... better load-balancing for the skewed pattern").
pub fn load_balance_table(quick: bool) -> Table {
    use eckv_ycsb::{Workload, YcsbConfig};
    let mut t = Table::new(
        "Extension - Per-server request share under Zipfian load (YCSB-A)",
        &["scheme", "min %", "max %", "imbalance (max/min)"],
    );
    let clients = if quick { 8 } else { 30 };
    for scheme in [Scheme::AsyncRep { replicas: 3 }, Scheme::era_ce_cd(3, 2)] {
        let world = World::new(
            EngineConfig::new(
                ClusterConfig::new(ClusterProfile::SdscComet, 5, clients).client_nodes(2),
                scheme,
            )
            .window(1)
            .validate(false),
        );
        let cfg = YcsbConfig {
            workload: Workload::A,
            record_count: if quick { 500 } else { 5_000 },
            ops_per_client: if quick { 100 } else { 500 },
            clients,
            value_len: 8 << 10,
            seed: 99,
        };
        let mut sim = Simulation::new();
        let _ = eckv_ycsb::run(&world, &mut sim, &cfg);
        let per_server: Vec<u64> = world
            .cluster
            .servers
            .iter()
            .map(|s| {
                let st = s.borrow().stats();
                st.sets + st.hits + st.misses
            })
            .collect();
        let total: u64 = per_server.iter().sum();
        let min = *per_server.iter().min().expect("five servers") as f64;
        let max = *per_server.iter().max().expect("five servers") as f64;
        t.row(vec![
            scheme.label(),
            format!("{:.1}", 100.0 * min / total as f64),
            format!("{:.1}", 100.0 * max / total as f64),
            format!("{:.2}", max / min),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wider_windows_never_hurt_much_and_help_early() {
        let t = window_sweep(true);
        let w1: f64 = t.value("1M", "w=1").unwrap();
        let w16: f64 = t.value("1M", "w=16").unwrap();
        assert!(w16 < w1, "w=16 ({w16}) must beat w=1 ({w1})");
    }

    #[test]
    fn stripe_shape_cost_is_driven_by_parity_count() {
        // Pipelined Set cost is encode-bound: work is ~m * D, so adding
        // parity shards costs while adding data shards (fixed m) does not.
        let t = km_sweep(true);
        let m2: f64 = t.value("1M", "RS(3,2)").unwrap();
        let m3: f64 = t.value("1M", "RS(6,3)").unwrap();
        let m4: f64 = t.value("1M", "RS(4,4)").unwrap();
        assert!(m3 > m2 * 1.2, "m=3 ({m3}) should cost more than m=2 ({m2})");
        assert!(m4 > m3, "m=4 ({m4}) should cost more than m=3 ({m3})");
        // Widening k at fixed m is roughly free under pipelining.
        let k2: f64 = t.value("1M", "RS(2,2)").unwrap();
        let k6: f64 = t.value("1M", "RS(6,2)").unwrap();
        assert!((k6 - k2).abs() / k2 < 0.10, "k sweep at m=2: {k2} vs {k6}");
    }

    #[test]
    fn hybrid_tracks_the_better_scheme_at_each_extreme() {
        let t = hybrid_sweep(true);
        // At 1 KB the hybrid replicates: it must be close to replication
        // and not pay erasure's chunking overhead.
        let rep: f64 = t.value("1K", "Async-Rep=3").unwrap();
        let hyb_small: f64 = t.value("1K", "Hybrid@16K").unwrap();
        assert!(
            hyb_small <= rep * 1.3,
            "hybrid small {hyb_small} vs rep {rep}"
        );
        // At 1 MB the hybrid erasure-codes: close to Era-CE-CD, well below
        // replication.
        let rep_l: f64 = t.value("1M", "Async-Rep=3").unwrap();
        let era_l: f64 = t.value("1M", "Era-CE-CD").unwrap();
        let hyb_l: f64 = t.value("1M", "Hybrid@16K").unwrap();
        assert!(hyb_l <= era_l * 1.2, "hybrid large {hyb_l} vs era {era_l}");
        assert!(hyb_l < rep_l, "hybrid large {hyb_l} vs rep {rep_l}");
    }

    #[test]
    fn availability_spike_is_transient() {
        let t = availability_timeline(true);
        for scheme in ["Async-Rep=3", "Era-CE-CD"] {
            let before: f64 = t.value(scheme, "before us").unwrap();
            let spike: f64 = t.value(scheme, "discovery us").unwrap();
            let after: f64 = t.value(scheme, "after us").unwrap();
            assert!(
                spike > before * 1.5,
                "{scheme}: discovery ({spike}) should spike over steady state ({before})"
            );
            assert!(
                after < spike,
                "{scheme}: post-fail-over ({after}) must recover below the spike ({spike})"
            );
        }
    }

    #[test]
    fn iterative_jobs_benefit_from_erasure_footprint() {
        let t = iterative_table(true);
        let rep_miss: f64 = t.value("Async-Rep=3", "misses/iter").unwrap();
        let era_miss: f64 = t.value("Era-CE-CD", "misses/iter").unwrap();
        assert!(rep_miss > 0.0, "replication should thrash");
        assert_eq!(era_miss, 0.0, "erasure coding should fit");
    }

    #[test]
    fn schedule_optimization_pays_off_on_dense_codes() {
        let t = schedule_table();
        let naive: f64 = t.value("CRS(8,4)", "naive XORs").unwrap();
        let sched: f64 = t.value("CRS(8,4)", "scheduled XORs").unwrap();
        assert!(sched < naive * 0.8, "naive={naive} sched={sched}");
    }

    #[test]
    fn ssd_tier_absorbs_overflow() {
        let t = ssd_table(true);
        let ram_errors: f64 = t.value("RAM only", "read errors").unwrap();
        let ssd_errors: f64 = t.value("RAM + PCIe-SSD", "read errors").unwrap();
        assert!(ram_errors > 0.0);
        assert_eq!(ssd_errors, 0.0);
    }

    #[test]
    fn erasure_balances_skewed_load_better_than_replication() {
        let t = load_balance_table(true);
        let rep: f64 = t.value("Async-Rep=3", "imbalance (max/min)").unwrap();
        let era: f64 = t.value("Era-CE-CD", "imbalance (max/min)").unwrap();
        assert!(
            era < rep,
            "era imbalance {era} should be below replication {rep}"
        );
    }

    #[test]
    fn recovery_shows_erasure_read_amplification() {
        let t = recovery_table(true);
        let era: f64 = t.value("Era-CE-CD", "read amp").unwrap();
        let rep: f64 = t.value("Async-Rep=3", "read amp").unwrap();
        assert!(era > 2.5, "erasure repair reads ~k chunks: {era}");
        assert!(rep < 1.5, "replication repair copies once: {rep}");
    }
}
