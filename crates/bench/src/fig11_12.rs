//! Figures 11 and 12: YCSB latency and throughput with 150 concurrent
//! clients on SDSC-Comet (FDR) and RI2-EDR.

use std::rc::Rc;

use eckv_core::{EngineConfig, Scheme, World};
use eckv_simnet::{ClusterProfile, Simulation, TransportKind};
use eckv_store::ClusterConfig;
use eckv_ycsb::{Workload, YcsbConfig, YcsbReport};

use crate::{size_label, Table};

/// One compared configuration: label, scheme and transport.
///
/// Every variant runs with an ARPE window of 1: a YCSB client thread has a
/// single outstanding operation (that is how YCSB measures latency), and
/// the asynchronous engines' benefit comes from overlapping the
/// replicas/chunks *within* each operation plus the 150-way client
/// concurrency — exactly the paper's setup.
#[derive(Debug, Clone, Copy)]
pub struct YcsbVariant {
    /// Figure legend label.
    pub label: &'static str,
    /// Resilience scheme.
    pub scheme: Scheme,
    /// RDMA or IPoIB.
    pub transport: TransportKind,
}

/// The five variants the paper compares.
pub fn variants() -> Vec<YcsbVariant> {
    vec![
        YcsbVariant {
            label: "Memc-IPoIB-NoRep",
            scheme: Scheme::NoRep,
            transport: TransportKind::Ipoib,
        },
        YcsbVariant {
            label: "Memc-RDMA-NoRep",
            scheme: Scheme::NoRep,
            transport: TransportKind::Rdma,
        },
        YcsbVariant {
            label: "Async-Rep=3",
            scheme: Scheme::AsyncRep { replicas: 3 },
            transport: TransportKind::Rdma,
        },
        YcsbVariant {
            label: "Era-CE-CD",
            scheme: Scheme::era_ce_cd(3, 2),
            transport: TransportKind::Rdma,
        },
        YcsbVariant {
            label: "Era-SE-CD",
            scheme: Scheme::era_se_cd(3, 2),
            transport: TransportKind::Rdma,
        },
    ]
}

/// Experiment scale (paper vs quick test).
#[derive(Debug, Clone)]
pub struct Scale {
    /// Concurrent client processes.
    pub clients: usize,
    /// Physical client nodes they share.
    pub client_nodes: usize,
    /// Records loaded.
    pub records: u64,
    /// Operations per client in the measured run.
    pub ops_per_client: u64,
    /// Value sizes swept.
    pub sizes: Vec<u64>,
}

impl Scale {
    /// The paper's scale: 150 clients on 10 nodes, 250 K records, 2.5 K
    /// ops per client, 1–32 KB values.
    pub fn paper() -> Scale {
        Scale {
            clients: 150,
            client_nodes: 10,
            records: 250_000,
            ops_per_client: 2_500,
            sizes: vec![1 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10],
        }
    }

    /// A shrunken version for tests.
    pub fn quick() -> Scale {
        Scale {
            clients: 24,
            client_nodes: 4,
            records: 2_000,
            ops_per_client: 60,
            sizes: vec![4 << 10, 32 << 10],
        }
    }
}

/// Runs one (variant, workload, size) point and returns the YCSB report.
pub fn run_point(
    profile: ClusterProfile,
    variant: &YcsbVariant,
    workload: Workload,
    scale: &Scale,
    value_len: u64,
) -> YcsbReport {
    let world: Rc<World> = World::new(
        EngineConfig::new(
            ClusterConfig::new(profile, 5, scale.clients)
                .client_nodes(scale.client_nodes)
                .transport(variant.transport)
                .server_memory(64 << 30),
            variant.scheme,
        )
        .window(1)
        .validate(false),
    );
    let cfg = YcsbConfig {
        workload,
        record_count: scale.records,
        ops_per_client: scale.ops_per_client,
        clients: scale.clients,
        value_len,
        seed: 0x5EED ^ value_len,
    };
    let mut sim = Simulation::new();
    eckv_ycsb::run(&world, &mut sim, &cfg)
}

/// Every (variant, size) point of one profile and workload, each run once
/// and rendered as both Figure 11 and Figure 12.
pub struct Sweep {
    /// The workload as the table titles name it, e.g. `YCSB-A (50:50)`.
    workload: String,
    profile: ClusterProfile,
    /// Row label and report of each point, in table order.
    points: Vec<(String, YcsbReport)>,
}

impl Sweep {
    /// Runs every variant at every size of `scale`.
    pub fn run(profile: ClusterProfile, workload: Workload, scale: &Scale) -> Sweep {
        let mut points = Vec::new();
        for v in variants() {
            for &size in &scale.sizes {
                let r = run_point(profile, &v, workload, scale, size);
                points.push((format!("{}/{}", v.label, size_label(size)), r));
            }
        }
        Sweep {
            workload: format!("YCSB-{workload:?} ({})", workload.ratio_label()),
            profile,
            points,
        }
    }

    /// Figure 11: average read/write latency per variant and value size.
    pub fn latency_table(&self) -> Table {
        let title = format!(
            "Fig. 11 - {} avg latency on {}, us",
            self.workload, self.profile
        );
        let mut t = Table::new(
            title,
            &[
                "variant/size",
                "read us",
                "read p99",
                "write us",
                "write p99",
            ],
        );
        for (label, r) in &self.points {
            t.row(vec![
                label.clone(),
                format!("{:.1}", r.read_latency.mean.as_micros_f64()),
                format!("{:.1}", r.read_latency.p99.as_micros_f64()),
                format!("{:.1}", r.write_latency.mean.as_micros_f64()),
                format!("{:.1}", r.write_latency.p99.as_micros_f64()),
            ]);
        }
        t
    }

    /// Figure 12: aggregate throughput per variant and value size.
    pub fn throughput_table(&self) -> Table {
        let title = format!(
            "Fig. 12 - {} throughput on {}, ops/s",
            self.workload, self.profile
        );
        let mut t = Table::new(title, &["variant/size", "ops/s"]);
        for (label, r) in &self.points {
            t.row(vec![label.clone(), format!("{:.0}", r.throughput)]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(label: &str, workload: Workload, size: u64) -> YcsbReport {
        let v = variants()
            .into_iter()
            .find(|v| v.label == label)
            .expect("known variant");
        run_point(
            ClusterProfile::SdscComet,
            &v,
            workload,
            &Scale::quick(),
            size,
        )
    }

    #[test]
    fn rdma_crushes_ipoib() {
        // Fig. 12 context: Era-CE-CD achieves 1.9-3x over Memcached on
        // IPoIB; even plain RDMA NoRep beats IPoIB clearly.
        let ipoib = point("Memc-IPoIB-NoRep", Workload::A, 4 << 10);
        let era = point("Era-CE-CD", Workload::A, 4 << 10);
        assert!(
            era.throughput > ipoib.throughput * 1.5,
            "era {} vs ipoib {}",
            era.throughput,
            ipoib.throughput
        );
    }

    #[test]
    fn era_ce_cd_beats_async_rep_at_32k_update_heavy() {
        // The headline Fig. 12(a) finding: >16 KB values keep Era-CE-CD's
        // chunks under the eager/rendezvous threshold while Async-Rep pays
        // rendezvous on whole values.
        let rep = point("Async-Rep=3", Workload::A, 32 << 10);
        let era = point("Era-CE-CD", Workload::A, 32 << 10);
        assert!(
            era.throughput > rep.throughput * 1.1,
            "era {} should beat async-rep {} by >1.1x at 32K",
            era.throughput,
            rep.throughput
        );
        assert!(
            era.write_latency.mean < rep.write_latency.mean,
            "era write latency {} vs rep {}",
            era.write_latency.mean,
            rep.write_latency.mean
        );
    }

    #[test]
    fn read_heavy_era_is_on_par_with_async_rep() {
        let rep = point("Async-Rep=3", Workload::B, 4 << 10);
        let era = point("Era-CE-CD", Workload::B, 4 << 10);
        let ratio = era.throughput / rep.throughput;
        assert!(
            (0.7..=1.6).contains(&ratio),
            "era/rep read-heavy ratio {ratio}"
        );
    }
}
