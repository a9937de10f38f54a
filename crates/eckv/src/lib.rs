//! `eckv` — a high-performance, resilient in-memory key-value store with
//! **online erasure coding**, plus everything needed to reproduce the
//! ICDCS 2017 paper it implements.
//!
//! This facade re-exports the workspace crates:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`gf`] | `eckv-gf` | GF(2^8) algebra, matrices, bit-matrices |
//! | [`erasure`] | `eckv-erasure` | RS-Vandermonde, Cauchy-RS, Liberation codecs |
//! | [`simnet`] | `eckv-simnet` | deterministic RDMA-cluster simulator |
//! | [`store`] | `eckv-store` | Memcached-like store, hash ring, RPCs |
//! | [`core`] | `eckv-core` | the resilient engine: ARPE, Era-* designs |
//! | [`ycsb`] | `eckv-ycsb` | YCSB workloads |
//! | [`boldio`] | `eckv-boldio` | burst buffer over Lustre, TestDFSIO |
//!
//! # Quickstart
//!
//! ```
//! use eckv::prelude::*;
//!
//! // A 5-node RDMA cluster with RS(3,2) online erasure coding,
//! // client-side encode and decode (the paper's Era-CE-CD).
//! let world = World::new(EngineConfig::new(
//!     ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
//!     Scheme::era_ce_cd(3, 2),
//! ));
//! let mut sim = Simulation::new();
//!
//! run_workload(&world, &mut sim, vec![vec![
//!     Op::set_inline("greeting", &b"hello, resilient world"[..]),
//! ]]);
//! run_workload(&world, &mut sim, vec![vec![Op::get("greeting")]]);
//!
//! let m = world.metrics.borrow();
//! assert_eq!(m.errors, 0);
//! assert_eq!(m.integrity_errors, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use eckv_boldio as boldio;
pub use eckv_core as core;
pub use eckv_erasure as erasure;
pub use eckv_gf as gf;
pub use eckv_simnet as simnet;
pub use eckv_store as store;
pub use eckv_ycsb as ycsb;

pub mod session;

/// The most common imports, for examples and downstream users.
pub mod prelude {
    pub use eckv_core::driver::{
        enqueue_client, enqueue_workload, run_workload, schedule_drain, schedule_join,
    };
    pub use eckv_core::{
        drain_server, join_server, repair_server, start_repair, AdmissionConfig, EngineConfig,
        HedgeConfig, Metrics, Op, OpKind, RepairConfig, RepairReport, Scheme, Side, World,
    };
    pub use eckv_erasure::{CodecKind, ErasureCodec, Striper};
    pub use eckv_simnet::{ClusterProfile, SimDuration, SimTime, Simulation, TransportKind};
    pub use eckv_store::{ClusterConfig, Payload, PlacementError, StoreKey};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_exposes_all_subsystems() {
        // Touch one symbol from each re-exported crate.
        let _ = crate::gf::Gf256::ONE;
        let _ = crate::erasure::CodecKind::RsVan;
        let _ = crate::simnet::SimTime::ZERO;
        let _ = crate::store::Payload::synthetic(1, 1);
        let _ = crate::core::Scheme::NoRep;
        let _ = crate::ycsb::Workload::A;
        let _ = crate::boldio::LustreConfig::RI_QDR;
    }
}
