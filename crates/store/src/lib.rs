//! A Memcached-like distributed key-value store, modelled on the simulated
//! cluster.
//!
//! This crate reproduces the substrate the paper builds on (RDMA-Memcached
//! with libmemcached clients):
//!
//! * [`Payload`] — values that are either real bytes (small-scale
//!   correctness tests) or synthetic descriptors carrying length + digest
//!   (large-scale experiments), so a 40 GB workload does not need 40 GB of
//!   host RAM while still being integrity-checked end to end.
//! * [`HashRing`] + [`VShardMap`] — libmemcached-style consistent hashing
//!   with virtual nodes, and the virtual-shard indirection layered on top
//!   of it: keys hash to a vshard (one per ring arc), vshards map to
//!   ordered server groups, and membership changes ([`VShardMap::add_server`],
//!   [`VShardMap::drain_server`]) reassign O(1/N) of the vshards instead
//!   of rehashing the world. At fixed membership the composition equals
//!   the paper's chunk placement ("the designated server plus the N-1
//!   following servers", [`HashRing::servers_for`]) exactly.
//! * [`StoreKey`] — what an item is stored under: a plain key, or chunk
//!   `i` of a key, sharing the key's `Arc`.
//! * [`StoreNode`] — one server's storage: slab-class memory accounting,
//!   LRU eviction, hit/miss/eviction statistics (Figure 10's memory
//!   efficiency and data-loss numbers come from here).
//! * [`KvServer`] + [`rpc`] — the server process model (worker pool,
//!   per-op costs) and the client-visible Set/Get RPCs composed over the
//!   simulated RDMA transport.
//! * [`KvCluster`] — wiring for an `S`-server, `C`-client deployment.
//!
//! # Example
//!
//! ```
//! use eckv_store::{HashRing, Payload};
//!
//! let ring = HashRing::new(5, 160);
//! let servers = ring.servers_for(b"user:42", 5).expect("5 fit on 5");
//! assert_eq!(servers.len(), 5);
//! let v = Payload::inline(vec![1, 2, 3]);
//! assert_eq!(v.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytes;
mod cluster;
mod hashring;
mod key;
mod payload;
pub mod rpc;
mod server;
mod slab;
mod ssd;
mod store_node;

pub use bytes::Bytes;
pub use cluster::{ClusterConfig, KvCluster};
pub use hashring::{HashRing, PlacementError, VShardMap, VShardMove};
pub use key::StoreKey;
pub use payload::{fnv1a_64, xxh64, Payload, Xxh64};
pub use server::{AdmissionCaps, KvServer, ServerCosts};
pub use slab::{chunk_size_for, SlabConfig, ITEM_OVERHEAD};
pub use ssd::{SsdSpec, SsdTier};
pub use store_node::{SetOutcome, StoreNode, StoreStats};
