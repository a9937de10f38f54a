//! Deployment wiring: an `S`-server, `C`-client simulated KV cluster.

use std::cell::RefCell;
use std::rc::Rc;

use eckv_simnet::{
    ClusterProfile, ComputeModel, NetConfig, Network, NodeId, SimDuration, SimTime, Trace,
    TransportKind,
};

use crate::hashring::{HashRing, PlacementError, VShardMap, VShardMove};
use crate::server::{KvServer, ServerCosts};
use crate::ssd::SsdSpec;
use crate::store_node::StoreStats;

/// Parameters of a simulated deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Which of the paper's testbeds to model.
    pub profile: ClusterProfile,
    /// RDMA verbs or IPoIB.
    pub transport: TransportKind,
    /// Number of KV server nodes.
    pub servers: usize,
    /// Number of client *processes*.
    pub clients: usize,
    /// Number of physical client nodes the processes share (the paper runs
    /// 150 clients on 10 compute nodes; NIC contention between co-located
    /// clients matters).
    pub client_nodes: usize,
    /// Cache memory per server, bytes.
    pub server_memory: u64,
    /// Virtual nodes per server on the consistent-hash ring.
    pub vnodes: usize,
    /// Worker threads per server (defaults to the profile's core count
    /// when `None`).
    pub workers: Option<usize>,
    /// SSD overflow tier per server (`None` = RAM-only, the paper's
    /// micro-benchmark configuration; `Some` = SSD-assisted, the Boldio
    /// storage nodes).
    pub ssd: Option<SsdSpec>,
    /// Upper bound on servers the deployment can ever grow to (`None` =
    /// `servers`, a fixed topology). Node ids are allocated against this
    /// bound — servers occupy `0..max_servers`, client nodes follow — so
    /// joining a spare never renumbers an existing node.
    pub max_servers: Option<usize>,
}

impl ClusterConfig {
    /// A 5-server deployment on the given profile — the paper's standard
    /// micro-benchmark setup.
    pub fn new(profile: ClusterProfile, servers: usize, clients: usize) -> Self {
        ClusterConfig {
            profile,
            transport: TransportKind::Rdma,
            servers,
            clients,
            client_nodes: clients.max(1),
            server_memory: 20 << 30,
            vnodes: 160,
            workers: None,
            ssd: None,
            max_servers: None,
        }
    }

    /// Sets the transport (builder style).
    pub fn transport(mut self, t: TransportKind) -> Self {
        self.transport = t;
        self
    }

    /// Sets per-server memory (builder style).
    pub fn server_memory(mut self, bytes: u64) -> Self {
        self.server_memory = bytes;
        self
    }

    /// Packs the clients onto `nodes` physical nodes (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    pub fn client_nodes(mut self, nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one client node");
        self.client_nodes = nodes;
        self
    }

    /// Overrides the per-server worker count (builder style).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Attaches an SSD overflow tier to every server (builder style).
    pub fn ssd(mut self, spec: SsdSpec) -> Self {
        self.ssd = Some(spec);
        self
    }

    /// Provisions spare server slots so the cluster can grow to `max`
    /// servers at runtime (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `max < servers`.
    pub fn max_servers(mut self, max: usize) -> Self {
        assert!(
            max >= self.servers,
            "max_servers ({max}) must cover the initial {} servers",
            self.servers
        );
        self.max_servers = Some(max);
        self
    }

    /// The provisioned server-slot count (`max_servers`, defaulting to
    /// the initial `servers`).
    pub fn provisioned_servers(&self) -> usize {
        self.max_servers.unwrap_or(self.servers).max(self.servers)
    }
}

/// A wired-up cluster: transport, servers, the hash ring and the vshard
/// placement map layered over it.
///
/// Node ids are stable for the deployment's lifetime: server slots occupy
/// `0..max_servers` (spares included, so a later join never renumbers
/// anything), client nodes `max_servers..max_servers + client_nodes`.
/// With the default fixed topology (`max_servers == servers`) this is the
/// original servers-then-clients layout.
///
/// # Example
///
/// ```
/// use eckv_simnet::ClusterProfile;
/// use eckv_store::{ClusterConfig, KvCluster};
///
/// let cluster = KvCluster::build(ClusterConfig::new(ClusterProfile::RiQdr, 5, 1));
/// assert_eq!(cluster.servers.len(), 5);
/// assert_eq!(cluster.client_node(0).0, 5);
/// ```
#[derive(Debug)]
pub struct KvCluster {
    /// The shared transport.
    pub net: Rc<RefCell<Network>>,
    /// Server processes, indexed by server id (`0..max_servers`; spares
    /// beyond the initial membership idle until joined).
    pub servers: Vec<Rc<RefCell<KvServer>>>,
    /// Consistent-hash ring over the initial servers (the frozen arc
    /// table the vshard map is built from).
    pub ring: HashRing,
    vshards: RefCell<VShardMap>,
    next_spare: std::cell::Cell<usize>,
    cfg: ClusterConfig,
}

impl KvCluster {
    /// Builds the cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.servers == 0`.
    pub fn build(cfg: ClusterConfig) -> Self {
        assert!(cfg.servers > 0, "cluster needs at least one server");
        let provisioned = cfg.provisioned_servers();
        let nodes = provisioned + cfg.client_nodes;
        let net = Network::new(nodes, cfg.profile.net_config(cfg.transport));
        let workers = cfg.workers.unwrap_or(cfg.profile.cpu().workers_per_node);
        let servers = (0..provisioned)
            .map(|i| {
                let mut server = KvServer::new(
                    NodeId(i),
                    workers,
                    cfg.server_memory,
                    ServerCosts::default(),
                );
                if let Some(spec) = cfg.ssd {
                    server = server.with_ssd(spec);
                }
                Rc::new(RefCell::new(server))
            })
            .collect();
        let ring = HashRing::new(cfg.servers, cfg.vnodes);
        let vshards = RefCell::new(VShardMap::from_ring(&ring));
        KvCluster {
            net,
            servers,
            ring,
            vshards,
            next_spare: std::cell::Cell::new(cfg.servers),
            cfg,
        }
    }

    /// The deployment configuration.
    pub fn config(&self) -> ClusterConfig {
        self.cfg
    }

    /// Attaches a TraceBus handle to the transport and every server (and,
    /// through them, the flash tiers). Call once, right after `build`.
    pub fn set_trace(&self, trace: &Trace) {
        self.net.borrow_mut().set_trace(trace.clone());
        for s in &self.servers {
            s.borrow_mut().set_trace(trace.clone());
        }
    }

    /// Installs (or clears) per-class admission bounds on every server's
    /// worker queue. With `None` (the default) servers admit
    /// unconditionally.
    pub fn set_admission(&self, caps: Option<crate::server::AdmissionCaps>) {
        for s in &self.servers {
            s.borrow_mut().set_admission(caps);
        }
    }

    /// Simulated node of server `i`.
    pub fn server_node(&self, i: usize) -> NodeId {
        NodeId(i)
    }

    /// Simulated node that client process `i` runs on (round-robin over the
    /// client nodes, numbered after every provisioned server slot).
    pub fn client_node(&self, client: usize) -> NodeId {
        NodeId(self.cfg.provisioned_servers() + client % self.cfg.client_nodes)
    }

    /// Total provisioned server slots (`max_servers`); indices
    /// `member_count()..` of [`KvCluster::servers`] may be idle spares.
    pub fn provisioned_servers(&self) -> usize {
        self.cfg.provisioned_servers()
    }

    /// The `n` servers housing `key`'s chunks/replicas under the current
    /// membership, resolved through the vshard map.
    pub fn targets_for(&self, key: &[u8], n: usize) -> Result<Vec<usize>, PlacementError> {
        self.vshards.borrow().group_for(key, n)
    }

    /// The vshard `key` hashes to (stable across membership changes).
    pub fn vshard_of(&self, key: &[u8]) -> usize {
        self.vshards.borrow().vshard_of(key)
    }

    /// The placement epoch: 0 at construction, bumped once per
    /// membership change.
    pub fn placement_epoch(&self) -> u64 {
        self.vshards.borrow().epoch()
    }

    /// Whether server `i` is an active member of the placement.
    pub fn is_member(&self, i: usize) -> bool {
        self.vshards.borrow().is_active(i)
    }

    /// Sorted ids of the active members.
    pub fn members(&self) -> Vec<usize> {
        self.vshards.borrow().members()
    }

    /// Number of active members.
    pub fn member_count(&self) -> usize {
        self.vshards.borrow().member_count()
    }

    /// Joins the next provisioned spare to the membership: the vshard map
    /// reassigns O(1/N) of its arcs to the joiner and the returned moves
    /// tell the migration engine which shards to relocate. Returns `None`
    /// when every provisioned slot is already in use.
    pub fn add_server(&self) -> Option<(usize, Vec<VShardMove>)> {
        let id = self.next_spare.get();
        if id >= self.cfg.provisioned_servers() {
            return None;
        }
        self.next_spare.set(id + 1);
        Some((id, self.vshards.borrow_mut().add_server(id)))
    }

    /// Drains server `i` out of the membership: every vshard group drops
    /// it (one slot swap per affected vshard) and the returned moves
    /// drive the data evacuation. The node itself stays up — a drain is
    /// an administrative removal, not a failure.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not an active member.
    pub fn drain_server(&self, i: usize) -> Vec<VShardMove> {
        self.vshards.borrow_mut().drain_server(i)
    }

    /// Marks server `i` failed at the transport level.
    pub fn kill_server(&self, i: usize) {
        self.net.borrow_mut().kill(NodeId(i));
    }

    /// Degrades server `i` to a straggler from `at` on: its side of every
    /// transfer runs `factor`× slower with up to `jitter` extra seeded
    /// latency per transfer. The seed is derived deterministically from
    /// the server index, so same-configuration runs reproduce exactly.
    pub fn slow_server(&self, at: SimTime, i: usize, factor: f64, jitter: SimDuration) {
        // Arbitrary fixed salt, xor'd with the index for distinct streams.
        let seed = 0x57A6_617E_5EED_0001u64 ^ (i as u64);
        self.net
            .borrow_mut()
            .set_straggler(at, NodeId(i), factor, jitter, seed);
    }

    /// Restores a degraded server `i` to full speed.
    pub fn restore_server_speed(&self, i: usize) {
        self.net.borrow_mut().clear_straggler(NodeId(i));
    }

    /// The slowdown factor currently applied to server `i` (1.0 when
    /// healthy).
    pub fn server_slow_factor(&self, i: usize) -> f64 {
        self.net.borrow().slow_factor(NodeId(i))
    }

    /// Whether server `i` is alive.
    pub fn is_server_alive(&self, i: usize) -> bool {
        self.net.borrow().is_alive(NodeId(i))
    }

    /// Indices of currently-alive member servers.
    pub fn alive_servers(&self) -> Vec<usize> {
        self.members()
            .into_iter()
            .filter(|&i| self.is_server_alive(i))
            .collect()
    }

    /// The compute model of this cluster's CPUs.
    pub fn compute(&self) -> ComputeModel {
        self.cfg.profile.cpu().compute
    }

    /// The transport calibration in effect.
    pub fn net_config(&self) -> NetConfig {
        self.cfg.profile.net_config(self.cfg.transport)
    }

    /// Aggregated storage statistics across all servers.
    pub fn aggregate_stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for s in &self.servers {
            let st = s.borrow().stats();
            total.items += st.items;
            total.used_bytes += st.used_bytes;
            total.capacity_bytes += st.capacity_bytes;
            total.hits += st.hits;
            total.misses += st.misses;
            total.sets += st.sets;
            total.evictions += st.evictions;
            total.evicted_bytes += st.evicted_bytes;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_layout_is_servers_then_clients() {
        let c = KvCluster::build(ClusterConfig::new(ClusterProfile::RiQdr, 5, 15).client_nodes(3));
        assert_eq!(c.server_node(4), NodeId(4));
        assert_eq!(c.client_node(0), NodeId(5));
        assert_eq!(c.client_node(1), NodeId(6));
        assert_eq!(c.client_node(2), NodeId(7));
        assert_eq!(c.client_node(3), NodeId(5)); // wraps round-robin
        assert_eq!(c.net.borrow().len(), 8);
    }

    #[test]
    fn kill_and_alive_tracking() {
        let c = KvCluster::build(ClusterConfig::new(ClusterProfile::RiQdr, 5, 1));
        assert_eq!(c.alive_servers(), vec![0, 1, 2, 3, 4]);
        c.kill_server(1);
        c.kill_server(3);
        assert_eq!(c.alive_servers(), vec![0, 2, 4]);
        assert!(!c.is_server_alive(1));
    }

    #[test]
    fn slow_server_roundtrip() {
        let c = KvCluster::build(ClusterConfig::new(ClusterProfile::RiQdr, 3, 1));
        assert_eq!(c.server_slow_factor(1), 1.0);
        c.slow_server(SimTime::ZERO, 1, 8.0, SimDuration::from_micros(2));
        assert_eq!(c.server_slow_factor(1), 8.0);
        assert!(c.is_server_alive(1), "a straggler is alive, just slow");
        c.restore_server_speed(1);
        assert_eq!(c.server_slow_factor(1), 1.0);
    }

    #[test]
    fn aggregate_stats_sums_servers() {
        use crate::payload::Payload;
        let c = KvCluster::build(ClusterConfig::new(ClusterProfile::RiQdr, 3, 1));
        c.servers[0]
            .borrow_mut()
            .store_mut()
            .set("a", Payload::synthetic(100, 0));
        c.servers[2]
            .borrow_mut()
            .store_mut()
            .set("b", Payload::synthetic(100, 1));
        let agg = c.aggregate_stats();
        assert_eq!(agg.items, 2);
        assert_eq!(agg.capacity_bytes, 3 * (20 << 30));
    }

    #[test]
    fn provisioned_spares_shift_client_nodes_but_not_defaults() {
        // Fixed topology: layout unchanged.
        let fixed = KvCluster::build(ClusterConfig::new(ClusterProfile::RiQdr, 5, 1));
        assert_eq!(fixed.client_node(0), NodeId(5));
        assert_eq!(fixed.provisioned_servers(), 5);
        // Elastic: spares hold node ids 5..8, clients follow at 8.
        let elastic =
            KvCluster::build(ClusterConfig::new(ClusterProfile::RiQdr, 5, 1).max_servers(8));
        assert_eq!(elastic.servers.len(), 8);
        assert_eq!(elastic.client_node(0), NodeId(8));
        assert_eq!(elastic.net.borrow().len(), 9);
        assert_eq!(elastic.member_count(), 5);
        assert!(!elastic.is_member(5), "spares start outside the membership");
    }

    #[test]
    fn join_and_drain_update_membership_and_epoch() {
        let c = KvCluster::build(ClusterConfig::new(ClusterProfile::RiQdr, 5, 1).max_servers(7));
        assert_eq!(c.placement_epoch(), 0);
        let (id, moves) = c.add_server().expect("slot 5 is spare");
        assert_eq!(id, 5);
        assert!(!moves.is_empty());
        assert!(c.is_member(5));
        assert_eq!(c.placement_epoch(), 1);
        assert_eq!(c.alive_servers(), vec![0, 1, 2, 3, 4, 5]);

        let drains = c.drain_server(2);
        assert!(!drains.is_empty());
        assert!(!c.is_member(2));
        assert_eq!(c.placement_epoch(), 2);
        assert!(
            c.is_server_alive(2),
            "a drained server is out of the membership but still up"
        );
        assert_eq!(c.alive_servers(), vec![0, 1, 3, 4, 5]);

        let (id2, _) = c.add_server().expect("slot 6 is spare");
        assert_eq!(id2, 6);
        assert!(c.add_server().is_none(), "no provisioned slots remain");
    }

    #[test]
    fn fixed_topology_placement_matches_the_ring() {
        let c = KvCluster::build(ClusterConfig::new(ClusterProfile::RiQdr, 5, 1));
        for i in 0..200 {
            let key = format!("key-{i}");
            assert_eq!(
                c.targets_for(key.as_bytes(), 5).ok(),
                c.ring.servers_for(key.as_bytes(), 5).ok()
            );
        }
    }

    #[test]
    fn builder_methods_apply() {
        let cfg = ClusterConfig::new(ClusterProfile::SdscComet, 5, 150)
            .transport(TransportKind::Ipoib)
            .server_memory(64 << 30)
            .client_nodes(10)
            .workers(16);
        assert_eq!(cfg.transport, TransportKind::Ipoib);
        assert_eq!(cfg.server_memory, 64 << 30);
        assert_eq!(cfg.client_nodes, 10);
        assert_eq!(cfg.workers, Some(16));
    }
}
