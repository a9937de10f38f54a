//! Deterministic discrete-event simulation of an RDMA-capable cluster.
//!
//! The paper evaluates on InfiniBand HPC clusters (QDR/FDR/EDR) using
//! RDMA-Memcached. That hardware is simulated here: a virtual-time event
//! engine ([`Simulation`]), FIFO service resources ([`WorkerPool`]; a NIC
//! direction is a pool of one server), an RDMA-style transport with
//! **eager** and **rendezvous** protocols ([`Network`]), calibrated cluster
//! profiles ([`ClusterProfile`]) matching the paper's three testbeds, and a
//! calibrated compute-cost model for erasure coding ([`ComputeModel`]).
//!
//! Everything is single-threaded and deterministic: identical inputs give
//! identical timelines, so experiments and tests are exactly reproducible.
//!
//! # Example
//!
//! ```
//! use eckv_simnet::{Simulation, SimDuration};
//!
//! let mut sim = Simulation::new();
//! let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
//! let l2 = log.clone();
//! sim.schedule_in(SimDuration::from_micros(10), move |sim| {
//!     l2.borrow_mut().push(sim.now());
//! });
//! sim.run();
//! assert_eq!(log.borrow().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod cluster;
mod compute;
mod engine;
mod net;
mod resource;
mod rng;
mod span;
mod stats;
mod time;
mod timeseries;
mod trace;
mod tracebus;

pub use cluster::{ClusterProfile, CpuProfile, TransportKind};
pub use compute::{trace_codec, ComputeModel};
pub use engine::{Handler, Simulation};
pub use net::{Delivery, NetConfig, Network, NodeId, WireProtocol};
pub use resource::{QueueCap, WorkerPool};
pub use rng::SimRng;
pub use span::{OpAttribution, SlowOp, Span, SpanCollector, SpanOpClass, SpanPhase};
pub use stats::{Histogram, Summary};
pub use time::{SimDuration, SimTime};
pub use timeseries::{SeriesWindow, TimeSeries};
pub use trace::PhaseBreakdown;
pub use tracebus::{
    escape_json_into, event_schema, CodecOp, CsvSink, JsonlSink, NicDir, OpClass, Trace, TraceBus,
    TraceEvent, TraceRecord, TraceSink, CSV_SCHEMA_HEADER, JSONL_SCHEMA_HEADER,
    TRACE_SCHEMA_VERSION,
};
