//! The engine's shared world: cluster, scheme, codec, client CPUs, metrics.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use eckv_erasure::Striper;
use eckv_simnet::{
    Histogram, NodeId, QueueCap, SimDuration, SimRng, SimTime, Trace, TraceEvent, WorkerPool,
};
use eckv_store::rpc::{RpcError, RpcPriority};
use eckv_store::{AdmissionCaps, ClusterConfig, KvCluster};

use crate::costs;
use crate::metrics::Metrics;
use crate::scheme::Scheme;

/// First-chunk samples required before adaptive hedging arms; until then
/// reads run unhedged (nothing meaningful to estimate from).
const HEDGE_MIN_SAMPLES: u64 = 16;

/// Policy for hedged chunk reads (the "Tail at Scale" defence applied to
/// every shard fan-out): after the first wave of `k` chunk fetches has
/// been outstanding for a while, speculatively fetch from untried parity
/// holders and finish with whichever `k` chunks arrive first. One policy
/// governs every read fan-out — client-decode chunk fetches, the
/// server-decode aggregator's gather fan-in, and online-repair survivor
/// reads — because they all run on the same fan-out core.
///
/// The trigger delay adapts to the observed distribution: the client
/// records the latency of each read's *first*-arriving chunk (stragglers
/// rarely win that race, so the estimate is not poisoned by the very tail
/// it defends against) and hedges after `multiplier ×` its `percentile`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// Percentile of the first-chunk latency distribution the delay is
    /// derived from (e.g. `95.0`).
    pub percentile: f64,
    /// Safety factor applied to the percentile: hedging at exactly p95
    /// would fire on 5% of healthy reads.
    pub multiplier: f64,
    /// Fixed trigger delay overriding the adaptive estimate (the
    /// `--hedge-after 50us` form). Arms immediately, no warm-up.
    pub fixed: Option<SimDuration>,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            percentile: 95.0,
            multiplier: 2.0,
            fixed: None,
        }
    }
}

impl HedgeConfig {
    /// Adaptive policy triggering at `multiplier × p(percentile)` of the
    /// observed first-chunk latency.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < percentile <= 100` and `multiplier >= 1`.
    pub fn at_percentile(percentile: f64, multiplier: f64) -> Self {
        assert!(
            percentile > 0.0 && percentile <= 100.0,
            "percentile must be in (0, 100]"
        );
        assert!(multiplier >= 1.0, "multiplier must be at least 1");
        HedgeConfig {
            percentile,
            multiplier,
            ..Default::default()
        }
    }

    /// Fixed-delay policy: hedge any read whose first wave is still
    /// incomplete `delay` after issue.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is zero.
    pub fn after(delay: SimDuration) -> Self {
        assert!(delay > SimDuration::ZERO, "hedge delay must be positive");
        HedgeConfig {
            fixed: Some(delay),
            ..Default::default()
        }
    }
}

/// Throttle and concurrency policy for the online repair engine
/// ([`crate::repair::start_repair`]).
///
/// Repair traffic competes with foreground operations for NICs and the
/// repair client's CPU; the bandwidth cap paces how fast lost keys are
/// re-issued so the operator can trade repair completion time against
/// foreground tail latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairConfig {
    /// Keys rebuilt concurrently by the repair engine.
    pub window: usize,
    /// Token-bucket cap on repair traffic, in bytes per simulated second
    /// (survivor reads plus replacement writes). `None` = unthrottled.
    pub bandwidth: Option<u64>,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            window: 4,
            bandwidth: None,
        }
    }
}

impl RepairConfig {
    /// Sets the repair concurrency window (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn window(mut self, window: usize) -> Self {
        assert!(window > 0, "repair window must be at least 1");
        self.window = window;
        self
    }

    /// Caps repair traffic at `bytes_per_sec` (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec == 0`.
    pub fn bandwidth(mut self, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "repair bandwidth must be positive");
        self.bandwidth = Some(bytes_per_sec);
        self
    }
}

/// Per-node admission control: bounded server queues with load-shedding.
///
/// With admission enabled, each server refuses work past a configurable
/// outstanding-depth (and optionally queue-delay) bound instead of letting
/// its FIFO queue grow without limit. The refusal is a fast retryable
/// SHED reply — the driver's retry machinery backs off (with jitter) and
/// tries again — so past the saturation knee the store trades shed-rate
/// for bounded admitted-op latency rather than collapsing. Background
/// repair traffic is shed at a stricter bound than foreground traffic, so
/// rebuilds yield first under overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Outstanding-request bound for foreground traffic on each server's
    /// worker queue (queued + in service).
    pub depth: u64,
    /// Stricter outstanding-request bound for background repair traffic,
    /// so repair is shed before any foreground request.
    pub repair_depth: u64,
    /// Optional bound on projected queue wait: requests that would sit
    /// longer than this before service are shed even below the depth cap.
    pub delay: Option<SimDuration>,
}

impl AdmissionConfig {
    /// Admission with a foreground depth bound of `depth`; repair traffic
    /// gets half that bound (at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn depth(depth: u64) -> Self {
        assert!(depth > 0, "admission depth must be at least 1");
        AdmissionConfig {
            depth,
            repair_depth: (depth / 2).max(1),
            delay: None,
        }
    }

    /// Sets the repair-traffic depth bound (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0` or it exceeds the foreground bound (repair
    /// must never outlive foreground under pressure).
    pub fn repair_depth(mut self, depth: u64) -> Self {
        assert!(depth > 0, "repair admission depth must be at least 1");
        assert!(
            depth <= self.depth,
            "repair depth must not exceed the foreground depth"
        );
        self.repair_depth = depth;
        self
    }

    /// Bounds projected queue wait (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `delay` is zero.
    pub fn delay(mut self, delay: SimDuration) -> Self {
        assert!(
            delay > SimDuration::ZERO,
            "admission delay must be positive"
        );
        self.delay = Some(delay);
        self
    }

    /// The per-server caps this policy installs.
    pub(crate) fn caps(&self) -> AdmissionCaps {
        AdmissionCaps {
            foreground: QueueCap {
                depth: Some(self.depth),
                delay: self.delay,
            },
            repair: QueueCap {
                depth: Some(self.repair_depth),
                delay: self.delay,
            },
        }
    }
}

/// Configuration of one engine deployment.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Cluster topology and calibration.
    pub cluster: ClusterConfig,
    /// Resilience scheme.
    pub scheme: Scheme,
    /// ARPE completion window: operations in flight per client. Blocking
    /// schemes ([`Scheme::SyncRep`]) always run with an effective window
    /// of 1.
    pub window: usize,
    /// Whether Gets validate returned data against what was written.
    pub validate: bool,
    /// Hedged-read policy for shard read fan-outs — client-decode chunk
    /// fetches, server-decode aggregation, and online-repair survivor
    /// reads (`None` = never hedge, the paper's baseline behaviour).
    pub hedge: Option<HedgeConfig>,
    /// Per-operation deadline: an operation that has not completed this
    /// long after admission stops retrying, and its completion counts as a
    /// deadline miss. `None` = unbounded (retries limited by count only).
    pub deadline: Option<SimDuration>,
    /// Online repair engine policy (window and bandwidth throttle).
    pub repair: RepairConfig,
    /// Per-node admission control (`None` = unbounded queues, the
    /// pre-admission behaviour: traces are byte-identical to builds
    /// without admission support).
    pub admission: Option<AdmissionConfig>,
}

impl EngineConfig {
    /// Creates a configuration with the paper's defaults: window of 16
    /// in-flight operations, validation on.
    pub fn new(cluster: ClusterConfig, scheme: Scheme) -> Self {
        EngineConfig {
            cluster,
            scheme,
            window: 16,
            validate: true,
            hedge: None,
            deadline: None,
            repair: RepairConfig::default(),
            admission: None,
        }
    }

    /// Sets the ARPE window (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn window(mut self, window: usize) -> Self {
        assert!(window > 0, "window must be at least 1");
        self.window = window;
        self
    }

    /// Enables/disables read validation (builder style).
    pub fn validate(mut self, on: bool) -> Self {
        self.validate = on;
        self
    }

    /// Enables hedged chunk reads with the given policy (builder style).
    pub fn hedge(mut self, policy: HedgeConfig) -> Self {
        self.hedge = Some(policy);
        self
    }

    /// Sets a per-operation deadline (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn deadline(mut self, d: SimDuration) -> Self {
        assert!(d > SimDuration::ZERO, "deadline must be positive");
        self.deadline = Some(d);
        self
    }

    /// Sets the online repair policy (builder style).
    pub fn repair(mut self, r: RepairConfig) -> Self {
        self.repair = r;
        self
    }

    /// Enables per-node admission control (builder style).
    pub fn admission(mut self, a: AdmissionConfig) -> Self {
        self.admission = Some(a);
        self
    }
}

/// What the validation record remembers about a written value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Written {
    /// Value length in bytes.
    pub len: u64,
    /// Value digest.
    pub digest: u64,
}

/// The shared state all operation paths act on.
///
/// Created once per experiment with [`World::new`] and passed by `Rc` into
/// the event closures.
#[derive(Debug)]
pub struct World {
    /// The simulated deployment.
    pub cluster: KvCluster,
    /// The resilience scheme in effect.
    pub scheme: Scheme,
    /// The erasure striper, for [`Scheme::Erasure`] runs.
    pub striper: Option<Striper>,
    /// Engine configuration.
    pub cfg: EngineConfig,
    /// One single-threaded CPU per client process (app + ARPE thread).
    pub client_cpus: RefCell<Vec<WorkerPool>>,
    /// Aggregated run metrics: the fold of every event the engine
    /// reports (`World::note`).
    pub metrics: RefCell<Metrics>,
    /// Current per-op application think time: zero until a workload sets
    /// it ([`World::set_client_think`], e.g. TestDFSIO's write vs read
    /// cost).
    pub client_think: std::cell::Cell<SimDuration>,
    /// The read checks' record of every successful SET, kept only when
    /// [`EngineConfig::validate`] is on: no server holds it.
    pub expected: RefCell<HashMap<Arc<str>, Written>>,
    /// Per-client failure views: `views[client][server]` is the client's
    /// *belief* that the server is alive. Clients start optimistic and
    /// learn of failures by observing transport errors (the paper's
    /// clients fail over the same way); ground truth lives in the
    /// transport.
    views: RefCell<Vec<Vec<bool>>>,
    /// First-arriving-chunk latency of past erasure reads, feeding the
    /// adaptive hedge trigger. Only populated when hedging is enabled.
    chunk_latency: RefCell<Histogram>,
    /// Per-client seeded RNGs for retry-backoff jitter. Drawn from only
    /// when an operation actually retries, so retry-free runs remain
    /// byte-identical to builds without jitter.
    retry_rng: RefCell<Vec<SimRng>>,
    /// TraceBus handle shared with the transport and servers. Disabled
    /// (every emit a no-op) unless the world was built with
    /// [`World::new_traced`].
    pub trace: Trace,
    /// Online repair engine state while a repair is in progress
    /// ([`crate::repair::start_repair`] seeds it, the repair pump drains
    /// it).
    pub(crate) repair: RefCell<Option<crate::repair::OnlineRepair>>,
    /// Report of the most recently completed repair.
    pub(crate) last_repair: std::cell::Cell<Option<crate::repair::RepairReport>>,
    /// Per-server counters at the last [`World::reset_metrics`].
    phase_start: RefCell<Vec<ServerCounters>>,
}

impl World {
    /// Builds the world: cluster, codec, per-client CPUs.
    ///
    /// # Panics
    ///
    /// Panics if the scheme needs more servers per key than the cluster
    /// has, or if the erasure parameters are invalid.
    pub fn new(cfg: EngineConfig) -> Rc<World> {
        Self::new_traced(cfg, Trace::disabled())
    }

    /// Builds the world with a TraceBus attached: the engine's op paths,
    /// the transport, and every server emit structured events through
    /// `trace`. Passing [`Trace::disabled`] is equivalent to [`World::new`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`World::new`].
    pub fn new_traced(cfg: EngineConfig, trace: Trace) -> Rc<World> {
        let cluster = KvCluster::build(cfg.cluster);
        cluster.set_trace(&trace);
        cluster.set_admission(cfg.admission.as_ref().map(AdmissionConfig::caps));
        assert!(
            cfg.scheme.servers_per_key() <= cfg.cluster.servers,
            "{} needs {} servers but the cluster has {}",
            cfg.scheme.label(),
            cfg.scheme.servers_per_key(),
            cfg.cluster.servers
        );
        let striper = cfg.scheme.erasure_params().map(|(k, m, _, _, codec)| {
            Striper::from(codec.build(k, m).expect("valid erasure parameters"))
        });
        let client_cpus = vec![WorkerPool::new(1); cfg.cluster.clients];
        // Views cover every provisioned server slot so joining a spare
        // later needs no resizing (spares start optimistically alive,
        // like everything else in the view).
        let views = vec![vec![true; cfg.cluster.provisioned_servers()]; cfg.cluster.clients];
        // Fixed salt, same idiom as the straggler-jitter seeds: every
        // client's jitter stream is independent and reproducible.
        let retry_rng = (0..cfg.cluster.clients)
            .map(|i| SimRng::seed_from_u64(0x6A17_7E52_BAC0_0FF5u64 ^ (i as u64)))
            .collect();
        Rc::new(World {
            cluster,
            scheme: cfg.scheme,
            striper,
            cfg,
            client_cpus: RefCell::new(client_cpus),
            metrics: RefCell::new(Metrics::default()),
            client_think: std::cell::Cell::new(SimDuration::ZERO),
            expected: RefCell::new(HashMap::new()),
            views: RefCell::new(views),
            chunk_latency: RefCell::new(Histogram::default()),
            retry_rng: RefCell::new(retry_rng),
            trace,
            repair: RefCell::new(None),
            last_repair: std::cell::Cell::new(None),
            phase_start: RefCell::new(Vec::new()),
        })
    }

    /// Whether an online repair is currently in progress.
    pub fn repair_active(&self) -> bool {
        self.repair.borrow().is_some()
    }

    /// Report of the most recently completed repair, if any has finished.
    pub fn last_repair_report(&self) -> Option<crate::repair::RepairReport> {
        self.last_repair.get()
    }

    /// Effective ARPE window (forced to 1 for blocking schemes).
    pub fn window(&self) -> usize {
        if self.scheme.is_blocking() {
            1
        } else {
            self.cfg.window
        }
    }

    /// Resets run metrics (e.g. between a load phase and a run phase).
    pub fn reset_metrics(&self) {
        *self.metrics.borrow_mut() = Metrics::default();
        *self.phase_start.borrow_mut() = self.server_counters();
    }

    /// Every server's cumulative counters since the world was built.
    fn server_counters(&self) -> Vec<ServerCounters> {
        let net = self.cluster.net.borrow();
        (0..self.cluster.servers.len())
            .map(|i| {
                let st = self.cluster.servers[i].borrow().stats();
                let (nic_tx, nic_rx) = net.nic_busy(self.cluster.server_node(i));
                ServerCounters {
                    sets: st.sets,
                    hits: st.hits,
                    misses: st.misses,
                    nic_tx,
                    nic_rx,
                }
            })
            .collect()
    }

    /// Every server's counters since the last [`World::reset_metrics`]:
    /// the same window as [`Metrics::elapsed`], so NIC busy time over
    /// that span is a true utilization.
    pub fn phase_server_counters(&self) -> Vec<ServerCounters> {
        let start = self.phase_start.borrow();
        self.server_counters()
            .into_iter()
            .enumerate()
            .map(|(i, now)| {
                let base = start.get(i).copied().unwrap_or_default();
                ServerCounters {
                    sets: now.sets - base.sets,
                    hits: now.hits - base.hits,
                    misses: now.misses - base.misses,
                    nic_tx: now.nic_tx - base.nic_tx,
                    nic_rx: now.nic_rx - base.nic_rx,
                }
            })
            .collect()
    }

    /// Adjusts the per-op application think time for subsequent phases.
    pub fn set_client_think(&self, t: SimDuration) {
        self.client_think.set(t);
    }

    /// Reserves `service` on client `client`'s CPU, returning completion.
    pub(crate) fn reserve_client_cpu(
        &self,
        client: usize,
        now: SimTime,
        service: SimDuration,
    ) -> SimTime {
        let mut cpus = self.client_cpus.borrow_mut();
        // Client ops issue at real clock instants, so pruning here keeps
        // the per-client backlog ledger from growing over long runs.
        cpus[client].prune(now);
        let (start, done) = cpus[client].reserve_timed(now, service);
        if self.trace.spans_enabled() {
            let node = self.cluster.client_node(client);
            self.trace
                .span_record(eckv_simnet::SpanPhase::ClientCpuQueue, node, now, start);
            self.trace
                .span_record(eckv_simnet::SpanPhase::ClientCpu, node, start, done);
        }
        done
    }

    /// The servers (by index) that house `key`'s copies or chunks; for
    /// erasure schemes, position `i` is the holder of shard `i` (data
    /// shards first). Placement introspection for tests and tools.
    ///
    /// # Panics
    ///
    /// Panics when the membership is too small for the scheme; op paths
    /// use [`World::try_targets`] and fail the op instead.
    pub fn targets(&self, key: &str) -> Vec<usize> {
        self.try_targets(key).expect("placement")
    }

    /// Fallible placement: resolves `key` through the vshard map under
    /// the current membership epoch. `Err` when a drain shrank the
    /// membership below the scheme's `servers_per_key`.
    pub fn try_targets(&self, key: &str) -> Result<Vec<usize>, eckv_store::PlacementError> {
        self.cluster
            .targets_for(key.as_bytes(), self.scheme.servers_per_key())
    }

    /// Shard length for a value of `len` bytes under the current codec.
    ///
    /// # Panics
    ///
    /// Panics when called on a non-erasure scheme.
    pub(crate) fn shard_len(&self, len: u64) -> u64 {
        self.striper
            .as_ref()
            .expect("shard_len is only meaningful for erasure schemes")
            .shard_len_for(len as usize) as u64
    }

    /// Simulated encode duration for a value of `len` bytes at `node`'s
    /// CPU: a degraded (straggling) node encodes proportionally slower.
    pub(crate) fn encode_time_at(&self, node: NodeId, len: u64) -> SimDuration {
        let striper = self.striper.as_ref().expect("erasure scheme");
        let f = self.cluster.net.borrow().slow_factor(node);
        costs::encode_time(&self.cluster.compute().slowed(f), striper, len)
    }

    /// Simulated decode duration at `node`'s CPU when `erased_data` data
    /// chunks of a `len`-byte value are missing.
    pub(crate) fn decode_time_at(&self, node: NodeId, len: u64, erased_data: usize) -> SimDuration {
        let striper = self.striper.as_ref().expect("erasure scheme");
        let f = self.cluster.net.borrow().slow_factor(node);
        costs::decode_time(&self.cluster.compute().slowed(f), striper, len, erased_data)
    }

    /// Applies deterministic per-client "equal jitter" to a retry
    /// backoff: half the delay is kept, the other half drawn uniformly
    /// from the client's seeded stream. Decorrelates clients that failed
    /// together so their retries do not arrive as a synchronized storm.
    /// Only called on actual retries, so retry-free runs draw nothing and
    /// stay byte-identical.
    pub(crate) fn jittered_backoff(&self, client: usize, backoff: SimDuration) -> SimDuration {
        let half = SimDuration::from_nanos(backoff.as_nanos() / 2);
        if half == SimDuration::ZERO {
            return backoff;
        }
        let jitter = self.retry_rng.borrow_mut()[client].next_below(half.as_nanos() + 1);
        half.saturating_add(SimDuration::from_nanos(jitter))
    }

    /// Feeds one first-chunk latency sample into the hedge estimator.
    /// No-op when hedging is disabled, so baseline runs stay untouched.
    pub(crate) fn note_first_chunk_latency(&self, d: SimDuration) {
        if self.cfg.hedge.is_some() {
            self.chunk_latency.borrow_mut().record(d);
        }
    }

    /// The hedge trigger delay for the next read, or `None` when hedging
    /// is disabled or the adaptive estimator has not warmed up yet.
    pub(crate) fn hedge_delay(&self) -> Option<SimDuration> {
        let h = self.cfg.hedge?;
        if let Some(fixed) = h.fixed {
            return Some(fixed);
        }
        let hist = self.chunk_latency.borrow();
        if hist.count() < HEDGE_MIN_SAMPLES {
            return None;
        }
        let base = hist.percentile(h.percentile);
        let scaled =
            SimDuration::from_nanos((base.as_nanos() as f64 * h.multiplier).round() as u64);
        Some(scaled.max(SimDuration::from_nanos(1)))
    }

    /// Whether `client` currently believes server `srv` is alive. The
    /// belief lags ground truth: a freshly failed server is discovered the
    /// first time an operation touches it.
    pub fn view_alive(&self, client: usize, srv: usize) -> bool {
        self.views.borrow()[client][srv]
    }

    /// Notes that `client` observed server `srv` failing.
    pub fn mark_dead(&self, client: usize, srv: usize) {
        self.views.borrow_mut()[client][srv] = false;
    }

    /// Reports one engine fact: folds `event` into [`World::metrics`],
    /// then emits it on the trace bus (a no-op when the run is untraced).
    /// The engine reports every counted fact through here, so the metrics
    /// are the fold of the event stream.
    pub(crate) fn note(&self, at: SimTime, event: TraceEvent) {
        self.metrics.borrow_mut().observe(at, &event);
        self.trace.emit(at, event);
    }

    /// Books one failed request to server `srv`, issued from `node`, and
    /// returns the instant the error surfaced. A dead server updates
    /// `view`'s failure view, if any (repair judges liveness by ground
    /// truth and passes `None`). A shed request is reported as an
    /// `op_shed` event and leaves the failure views untouched: a shedding
    /// server is alive, and the refusal must not divert future waves away
    /// from it for good.
    pub(crate) fn note_rpc_error(
        &self,
        err: RpcError,
        view: Option<usize>,
        node: NodeId,
        srv: usize,
        prio: RpcPriority,
    ) -> SimTime {
        match err {
            RpcError::ServerDead(_) => {
                if let Some(client) = view {
                    self.mark_dead(client, srv);
                }
            }
            RpcError::Shed(at) => self.note(
                at,
                TraceEvent::OpShed {
                    client: node,
                    server: self.cluster.server_node(srv),
                    repair: prio.is_repair(),
                },
            ),
        }
        err.at()
    }

    /// Notes that `client` observed server `srv` back (post-repair).
    pub fn mark_alive(&self, client: usize, srv: usize) {
        self.views.borrow_mut()[client][srv] = true;
    }

    /// Records what a successful Set wrote, when reads are validated.
    pub(crate) fn note_written(&self, key: Arc<str>, len: u64, digest: u64) {
        if self.cfg.validate {
            let written = Written { len, digest };
            self.expected.borrow_mut().insert(key, written);
        }
    }

    /// Memory usage report across the server cluster (Figure 10).
    pub fn memory_report(&self) -> MemoryReport {
        let s = self.cluster.aggregate_stats();
        MemoryReport {
            used_bytes: s.used_bytes,
            capacity_bytes: s.capacity_bytes,
            evicted_bytes: s.evicted_bytes,
            evictions: s.evictions,
        }
    }
}

/// One server's traffic counters over a window (see
/// [`World::phase_server_counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Set requests processed.
    pub sets: u64,
    /// Get hits.
    pub hits: u64,
    /// Get misses.
    pub misses: u64,
    /// Time the server's NIC spent transmitting.
    pub nic_tx: SimDuration,
    /// Time the server's NIC spent receiving.
    pub nic_rx: SimDuration,
}

/// Aggregate memory usage of the server cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryReport {
    /// Charged bytes in use.
    pub used_bytes: u64,
    /// Total cache capacity.
    pub capacity_bytes: u64,
    /// Bytes lost to LRU eviction under memory pressure.
    pub evicted_bytes: u64,
    /// Items evicted.
    pub evictions: u64,
}

impl MemoryReport {
    /// Percentage of aggregate memory in use.
    pub fn pct_used(&self) -> f64 {
        if self.capacity_bytes == 0 {
            0.0
        } else {
            100.0 * self.used_bytes as f64 / self.capacity_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eckv_simnet::ClusterProfile;

    fn cfg(scheme: Scheme) -> EngineConfig {
        EngineConfig::new(ClusterConfig::new(ClusterProfile::RiQdr, 5, 2), scheme)
    }

    #[test]
    fn world_builds_for_all_schemes() {
        for scheme in [
            Scheme::NoRep,
            Scheme::SyncRep { replicas: 3 },
            Scheme::AsyncRep { replicas: 3 },
            Scheme::era_ce_cd(3, 2),
            Scheme::era_se_sd(3, 2),
            Scheme::era_se_cd(3, 2),
            Scheme::era_ce_sd(3, 2),
        ] {
            let w = World::new(cfg(scheme));
            assert_eq!(w.scheme, scheme);
            assert_eq!(w.striper.is_some(), scheme.erasure_params().is_some());
            assert_eq!(w.client_cpus.borrow().len(), 2);
        }
    }

    #[test]
    fn blocking_scheme_forces_window_1() {
        let w = World::new(cfg(Scheme::SyncRep { replicas: 3 }).window(32));
        assert_eq!(w.window(), 1);
        let w = World::new(cfg(Scheme::AsyncRep { replicas: 3 }).window(32));
        assert_eq!(w.window(), 32);
    }

    #[test]
    #[should_panic(expected = "needs 5 servers")]
    fn oversubscribed_scheme_panics() {
        let c = EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 4, 1),
            Scheme::era_ce_cd(3, 2),
        );
        let _ = World::new(c);
    }

    #[test]
    fn memory_report_pct() {
        let w = World::new(cfg(Scheme::NoRep));
        let r = w.memory_report();
        assert_eq!(r.pct_used(), 0.0);
        assert_eq!(r.capacity_bytes, 5 * (20 << 30));
    }

    #[test]
    fn hedge_delay_is_none_until_warm() {
        let w = World::new(cfg(Scheme::era_ce_cd(3, 2)).hedge(HedgeConfig::default()));
        assert_eq!(w.hedge_delay(), None, "no samples yet");
        for i in 0..16 {
            w.note_first_chunk_latency(SimDuration::from_micros(10 + i));
        }
        let d = w.hedge_delay().expect("warmed up");
        // 2 × p95 of a 10..26us distribution lands near 50us.
        assert!(
            d >= SimDuration::from_micros(40) && d <= SimDuration::from_micros(60),
            "unexpected hedge delay {d}"
        );
    }

    #[test]
    fn fixed_hedge_delay_needs_no_warmup() {
        let w = World::new(
            cfg(Scheme::era_ce_cd(3, 2)).hedge(HedgeConfig::after(SimDuration::from_micros(7))),
        );
        assert_eq!(w.hedge_delay(), Some(SimDuration::from_micros(7)));
    }

    #[test]
    fn disabled_hedging_records_no_samples() {
        let w = World::new(cfg(Scheme::era_ce_cd(3, 2)));
        w.note_first_chunk_latency(SimDuration::from_micros(10));
        assert_eq!(w.chunk_latency.borrow().count(), 0);
        assert_eq!(w.hedge_delay(), None);
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn bad_hedge_percentile_panics() {
        let _ = HedgeConfig::at_percentile(0.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn zero_deadline_panics() {
        let _ = cfg(Scheme::NoRep).deadline(SimDuration::ZERO);
    }

    #[test]
    fn straggling_node_degrades_codec_throughput() {
        let w = World::new(cfg(Scheme::era_ce_cd(3, 2)));
        let healthy = w.decode_time_at(NodeId(1), 1 << 20, 1);
        let healthy_encode = w.encode_time_at(NodeId(1), 1 << 20);
        w.cluster
            .slow_server(SimTime::ZERO, 1, 8.0, SimDuration::ZERO);
        let degraded = w.decode_time_at(NodeId(1), 1 << 20, 1);
        let ratio = degraded.as_nanos() as f64 / healthy.as_nanos() as f64;
        assert!((7.5..=8.5).contains(&ratio), "ratio={ratio}");
        // Other nodes are unaffected.
        assert_eq!(w.decode_time_at(NodeId(2), 1 << 20, 1), healthy);
        assert_eq!(w.encode_time_at(NodeId(2), 1 << 20), healthy_encode);
    }
}
