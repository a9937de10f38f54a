//! The paper's contribution: a high-performance, resilient in-memory
//! key-value store with **online erasure coding**.
//!
//! The engine executes non-blocking Set/Get operations against a simulated
//! RDMA cluster under one of the paper's resilience schemes:
//!
//! * [`Scheme::NoRep`] — no resilience (upper bound / IPoIB baselines),
//! * [`Scheme::SyncRep`] — blocking synchronous replication,
//! * [`Scheme::AsyncRep`] — non-blocking asynchronous replication,
//! * [`Scheme::Erasure`] — online Reed-Solomon with the encode/decode work
//!   placed at the client or the server: **Era-CE-CD**, **Era-SE-SD**,
//!   **Era-SE-CD**, **Era-CE-SD** (Section IV-B of the paper).
//!
//! The Asynchronous Request Processing Engine (ARPE) semantics — a request
//! queue, non-blocking `iset`/`iget` issue, and a tunable completion
//! window — are provided by [`driver::run_workload`], which admits up to
//! `window` operations per client and overlaps each operation's
//! encode/decode computation with the request/response phases of its
//! neighbours, exactly the overlap the paper's designs exploit.
//!
//! [`model`] implements the paper's analytic latency equations (1)–(8);
//! tests compare the simulator against them in contention-free scenarios.
//!
//! # Example
//!
//! ```
//! use eckv_core::{EngineConfig, Scheme, World, driver, ops::Op};
//! use eckv_simnet::{ClusterProfile, Simulation};
//! use eckv_store::ClusterConfig;
//!
//! // A 5-node RI-QDR cluster running Era-CE-CD with RS(3,2).
//! let cfg = EngineConfig::new(
//!     ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
//!     Scheme::era_ce_cd(3, 2),
//! );
//! let world = World::new(cfg);
//! let mut sim = Simulation::new();
//! let ops = vec![
//!     Op::set_synthetic("k1", 4096, 7),
//!     Op::get("k1"),
//! ];
//! driver::run_workload(&world, &mut sim, vec![ops]);
//! let m = world.metrics.borrow();
//! assert_eq!(m.set_count + m.get_count, 2);
//! assert_eq!(m.errors, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod costs;
pub mod driver;
mod fanout;
mod flow;
mod get_path;
pub mod metrics;
pub mod model;
pub mod ops;
pub mod repair;
mod scheme;
mod set_path;
mod world;

pub use metrics::{Metrics, OpResult, TimelinePoint};
pub use ops::{Op, OpKind};
pub use repair::{drain_server, join_server, repair_server, start_repair, RepairReport};
pub use scheme::{Scheme, Side};
pub use world::{AdmissionConfig, EngineConfig, HedgeConfig, RepairConfig, ServerCounters, World};
