//! RDMA-style message transport between simulated nodes.
//!
//! Models the communication behaviour the paper's designs exploit:
//!
//! * per-node, per-direction NIC bandwidth as FIFO resources, so fan-out
//!   transfers serialize on the sender and converge flows queue on the
//!   receiver;
//! * the **eager** protocol for small messages (single post plus a
//!   receive-side bounce-buffer copy) and the **rendezvous** protocol for
//!   large ones (RTS/CTS handshake, buffer registration, zero-copy RDMA),
//!   with the crossover at 16 KB exactly as RDMA-Memcached uses — the
//!   mechanism behind the paper's ">16 KB" YCSB findings;
//! * node failures: messages to a dead node fail after a transport-level
//!   error delay instead of being delivered;
//! * stragglers: a node can be marked *degraded* rather than dead — its
//!   side of every transfer is scaled by a slowdown factor and gets a
//!   seeded latency jitter, modelling the slow-but-alive nodes that
//!   dominate tail latency in real clusters.

use std::cell::RefCell;
use std::rc::Rc;

use crate::engine::Simulation;
use crate::resource::FifoResource;
use crate::rng::SimRng;
use crate::span::SpanPhase;
use crate::time::{SimDuration, SimTime};
use crate::tracebus::{NicDir, Trace, TraceEvent};

/// Identifies a node in the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Which wire protocol a transfer of a given size uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireProtocol {
    /// Small message: single post, receiver copies out of a bounce buffer.
    Eager,
    /// Large message: RTS/CTS handshake + registration + zero-copy RDMA.
    Rendezvous,
}

/// Transport calibration for one cluster/interconnect combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// One-way propagation + NIC processing latency.
    pub latency: SimDuration,
    /// Per-NIC, per-direction bandwidth in gigabits/second.
    pub bandwidth_gbps: f64,
    /// Messages at or below this payload size use the eager protocol.
    pub eager_threshold: usize,
    /// Receive-side bounce-buffer copy throughput (eager only), gigabytes/s.
    pub eager_copy_gbps: f64,
    /// Extra control round-trip cost for rendezvous (RTS/CTS).
    pub rendezvous_handshake: SimDuration,
    /// Registration/rkey cost per KiB of rendezvous payload.
    pub registration_per_kb: SimDuration,
    /// CPU cost to post one work request (issue overhead).
    pub post_overhead: SimDuration,
    /// Wire header bytes added to every message.
    pub header_bytes: usize,
    /// Delay before a send to a dead node reports a transport error.
    pub failure_detect: SimDuration,
}

impl NetConfig {
    /// Protocol chosen for `bytes` of payload.
    pub fn protocol_for(&self, bytes: usize) -> WireProtocol {
        if bytes <= self.eager_threshold {
            WireProtocol::Eager
        } else {
            WireProtocol::Rendezvous
        }
    }

    /// Pure serialization time of `bytes` on one NIC direction.
    pub fn wire_time(&self, bytes: usize) -> SimDuration {
        let bits = ((bytes + self.header_bytes) as f64) * 8.0;
        SimDuration::from_nanos((bits / self.bandwidth_gbps).round() as u64)
    }

    /// Protocol-dependent fixed cost of one transfer, excluding
    /// serialization and propagation.
    pub fn protocol_overhead(&self, bytes: usize) -> SimDuration {
        match self.protocol_for(bytes) {
            WireProtocol::Eager => {
                let copy_ns = (bytes as f64) / self.eager_copy_gbps;
                SimDuration::from_nanos(copy_ns.round() as u64)
            }
            WireProtocol::Rendezvous => {
                let kb = bytes.div_ceil(1024) as u64;
                self.rendezvous_handshake + self.registration_per_kb * kb
            }
        }
    }

    /// Contention-free one-way delivery time for `bytes` (the analytic
    /// `L + D/B` of the paper's Equation 1, plus protocol costs). Useful
    /// for model-vs-simulation comparisons.
    pub fn one_way(&self, bytes: usize) -> SimDuration {
        self.latency + self.wire_time(bytes) + self.protocol_overhead(bytes)
    }
}

/// Outcome of a message send, passed to the completion callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The message arrived at the given instant.
    Delivered(SimTime),
    /// The target node was dead; the error surfaced at the given instant.
    TargetDead(SimTime),
}

impl Delivery {
    /// The instant the outcome became known to the sender side.
    pub fn at(&self) -> SimTime {
        match *self {
            Delivery::Delivered(t) | Delivery::TargetDead(t) => t,
        }
    }

    /// Whether the message arrived.
    pub fn is_delivered(&self) -> bool {
        matches!(self, Delivery::Delivered(_))
    }
}

/// Per-node partial-degradation state (straggler fault injection).
#[derive(Debug)]
struct Straggler {
    /// Multiplier on this node's share of every transfer's serialization
    /// and protocol costs.
    factor: f64,
    /// Upper bound of the uniformly drawn extra propagation latency this
    /// node adds to each of its transfers.
    jitter: SimDuration,
    /// Dedicated generator for the jitter draws; the single-threaded event
    /// loop fixes the draw order, so same-seed runs are bit-identical.
    rng: SimRng,
}

#[derive(Debug)]
struct NodeState {
    tx: FifoResource,
    rx: FifoResource,
    alive: bool,
    straggler: Option<Straggler>,
}

fn scale_duration(d: SimDuration, factor: f64) -> SimDuration {
    if factor == 1.0 {
        d
    } else {
        SimDuration::from_nanos((d.as_nanos() as f64 * factor).round() as u64)
    }
}

fn draw_jitter(st: &mut Option<Straggler>) -> SimDuration {
    match st {
        Some(s) if s.jitter > SimDuration::ZERO => {
            SimDuration::from_nanos(s.rng.next_below(s.jitter.as_nanos() + 1))
        }
        _ => SimDuration::ZERO,
    }
}

/// The cluster-wide transport: one tx/rx NIC pair per node.
///
/// Shared via `Rc<RefCell<...>>`; sends are initiated with
/// [`Network::send`], which schedules resource usage at the requested start
/// time and invokes the callback at delivery.
#[derive(Debug)]
pub struct Network {
    cfg: NetConfig,
    nodes: Vec<NodeState>,
    messages_sent: u64,
    bytes_sent: u64,
    trace: Trace,
}

impl Network {
    /// Creates a transport for `nodes` nodes.
    pub fn new(nodes: usize, cfg: NetConfig) -> Rc<RefCell<Network>> {
        let nodes = (0..nodes)
            .map(|i| NodeState {
                tx: FifoResource::new(format!("n{i}.tx")),
                rx: FifoResource::new(format!("n{i}.rx")),
                alive: true,
                straggler: None,
            })
            .collect();
        Rc::new(RefCell::new(Network {
            cfg,
            nodes,
            messages_sent: 0,
            bytes_sent: 0,
            trace: Trace::disabled(),
        }))
    }

    /// Attaches a TraceBus handle; every subsequent send emits transport
    /// events ([`TraceEvent::ShardSend`]/[`TraceEvent::ShardRecv`], NIC
    /// queue enter/exit, failure detection) and per-node NIC counters.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// The transport configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Number of nodes (dead or alive).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `node` is alive.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes[node.0].alive
    }

    /// Marks `node` as failed; subsequent sends to it error out.
    pub fn kill(&mut self, node: NodeId) {
        self.nodes[node.0].alive = false;
    }

    /// Brings `node` back (for recovery experiments).
    pub fn revive(&mut self, node: NodeId) {
        self.nodes[node.0].alive = true;
    }

    /// Configures `node` as a straggler: its side of every subsequent
    /// transfer (serialization and protocol costs) is scaled by `factor`,
    /// and each of its transfers gains an extra propagation latency drawn
    /// uniformly from `[0, jitter]` by a generator seeded with `seed`.
    /// The node stays alive — requests still succeed, just slowly.
    ///
    /// Emits [`TraceEvent::NodeDegraded`] at `at` when tracing is on.
    /// Healthy nodes never touch the jitter RNG, so a run with no
    /// stragglers is bit-identical to one on a build without them.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range, or `factor` is not finite or is
    /// below 1.
    pub fn set_straggler(
        &mut self,
        at: SimTime,
        node: NodeId,
        factor: f64,
        jitter: SimDuration,
        seed: u64,
    ) {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "slowdown factor must be finite and >= 1"
        );
        self.nodes[node.0].straggler = Some(Straggler {
            factor,
            jitter,
            rng: SimRng::seed_from_u64(seed),
        });
        if self.trace.is_enabled() {
            self.trace.emit(
                at,
                TraceEvent::NodeDegraded {
                    node,
                    factor_x100: (factor * 100.0).round() as u64,
                },
            );
        }
    }

    /// Restores `node` to full speed (clears straggler state).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn clear_straggler(&mut self, node: NodeId) {
        self.nodes[node.0].straggler = None;
    }

    /// The slowdown factor currently applied to `node` (1.0 when healthy).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn slow_factor(&self, node: NodeId) -> f64 {
        self.nodes[node.0]
            .straggler
            .as_ref()
            .map_or(1.0, |s| s.factor)
    }

    /// Total messages sent so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Total payload bytes sent so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Accumulated NIC busy time of `node`: `(tx, rx)`. Divide by the
    /// experiment span for utilization.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn nic_busy(&self, node: NodeId) -> (SimDuration, SimDuration) {
        let n = &self.nodes[node.0];
        (n.tx.busy_time(), n.rx.busy_time())
    }

    /// Sends `bytes` from `from` to `to`, starting no earlier than `start`,
    /// invoking `on_complete` when the outcome is known.
    ///
    /// The sender's tx NIC is reserved FIFO at `start`; the receiver's rx
    /// NIC is reserved FIFO when the bytes arrive (so converging flows are
    /// drained in arrival order); propagation latency and protocol
    /// overheads are added per [`NetConfig`]. If the target is dead when the transfer begins, the
    /// callback fires after [`NetConfig::failure_detect`] with
    /// [`Delivery::TargetDead`].
    ///
    /// # Panics
    ///
    /// Panics if `start` is in the past or either node id is out of range.
    pub fn send<F>(
        net: &Rc<RefCell<Network>>,
        sim: &mut Simulation,
        start: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        on_complete: F,
    ) where
        F: FnOnce(&mut Simulation, Delivery) + 'static,
    {
        // Causal span propagation: the op scope is ambient only while the
        // caller runs, so capture it here and re-establish it around the
        // completion callback. Resolves to `None` in a single cheap branch
        // when tracing or spans are off.
        let span_op = net.borrow().trace.span_scope();
        let net = net.clone();
        sim.schedule_at(start, move |sim| {
            let now = sim.now();
            let mut n = net.borrow_mut();
            assert!(
                from.0 < n.nodes.len() && to.0 < n.nodes.len(),
                "bad node id"
            );
            n.messages_sent += 1;
            n.bytes_sent += bytes as u64;
            if !n.nodes[to.0].alive {
                let at = now + n.cfg.failure_detect;
                if n.trace.is_enabled() {
                    n.trace
                        .emit(at, TraceEvent::FailureDetected { node: to, by: from });
                    n.trace.counter_add(from, "failure_detects", 1);
                }
                if let Some(op) = span_op {
                    n.trace
                        .span_record_for(op, SpanPhase::FailDetect, from, now, at);
                }
                let trace = n.trace.clone();
                drop(n);
                sim.schedule_at(at, move |sim| {
                    let prev = trace.set_span_scope(span_op);
                    on_complete(sim, Delivery::TargetDead(at));
                    trace.set_span_scope(prev);
                });
                return;
            }
            let traced = n.trace.is_enabled();
            if traced {
                n.trace.emit(
                    now,
                    TraceEvent::ShardSend {
                        from,
                        to,
                        bytes: bytes as u64,
                    },
                );
            }
            let wire = n.cfg.wire_time(bytes);
            let overhead = n.cfg.protocol_overhead(bytes);
            let latency = n.cfg.latency;
            // Straggler injection: each endpoint's share of the transfer is
            // scaled by that node's slowdown factor, and degraded endpoints
            // add a seeded jitter to propagation. Healthy transfers take
            // the `factor == 1.0` fast path and draw no random numbers.
            let from_slow = n.slow_factor(from);
            let to_slow = n.slow_factor(to);
            let jitter = {
                let mut j = draw_jitter(&mut n.nodes[from.0].straggler);
                if to != from {
                    j += draw_jitter(&mut n.nodes[to.0].straggler);
                }
                j
            };
            let tx_wire = scale_duration(wire, from_slow);
            let rx_wire = scale_duration(wire, to_slow);
            // Rendezvous pays its RTS/CTS handshake and registration
            // *before* the bulk transfer starts (sender side); eager pays a
            // receive-side bounce-buffer copy, which the receiver's polling
            // loop performs in arrival order (so it serializes on the rx
            // side).
            let (tx_start, rx_extra) = match n.cfg.protocol_for(bytes) {
                WireProtocol::Rendezvous => {
                    (now + scale_duration(overhead, from_slow), SimDuration::ZERO)
                }
                WireProtocol::Eager => (now, scale_duration(overhead, to_slow)),
            };
            // Sender serializes the payload onto the wire... The backlog
            // ledger is compacted at the same instant the queue-enter event
            // is stamped with, so the emitted depth sees exactly the
            // still-outstanding transmissions.
            n.nodes[from.0].tx.prune(tx_start);
            let tx_free = n.nodes[from.0].tx.free_at();
            let tx_done = n.nodes[from.0].tx.reserve(tx_start, tx_wire);
            if traced {
                let depth = n.nodes[from.0].tx.queue_depth(tx_start);
                let hwm = n.nodes[from.0].tx.queue_hwm();
                let waited = tx_free.max(tx_start).since(tx_start);
                n.trace.emit(
                    tx_start,
                    TraceEvent::NicQueueEnter {
                        node: from,
                        dir: NicDir::Tx,
                        depth,
                    },
                );
                n.trace.emit(
                    tx_done,
                    TraceEvent::NicQueueExit {
                        node: from,
                        dir: NicDir::Tx,
                        waited,
                    },
                );
                n.trace.counter_add(from, "nic_tx_msgs", 1);
                n.trace.counter_add(from, "nic_tx_bytes", bytes as u64);
                n.trace
                    .counter_add(from, "nic_tx_busy_ns", tx_wire.as_nanos());
                n.trace.counter_max(from, "nic_tx_queue_hwm", hwm);
            }
            // ...it propagates, then the receiver NIC drains and (for
            // eager) copies it out. The rx reservation is made *when the
            // bytes arrive*, not at send time: the receiver NIC serves
            // flows in arrival order, so a slow sender's late transfer
            // cannot head-of-line-block a faster one issued after it.
            let arrival = tx_done + latency + jitter;
            let rx_cost = rx_wire + rx_extra;
            if let Some(op) = span_op {
                // Sender-side phases: protocol setup (rendezvous RTS/CTS),
                // queue wait behind earlier transfers, then serialization.
                let tx_svc = tx_free.max(tx_start);
                let t = &n.trace;
                t.span_record_for(op, SpanPhase::NetProto, from, now, tx_start);
                t.span_record_for(op, SpanPhase::TxQueue, from, tx_start, tx_svc);
                t.span_record_for(op, SpanPhase::Tx, from, tx_svc, tx_done);
                t.span_record_for(op, SpanPhase::Propagate, to, tx_done, arrival);
            }
            drop(n);
            let net = net.clone();
            sim.schedule_at(arrival, move |sim| {
                let mut n = net.borrow_mut();
                n.nodes[to.0].rx.prune(arrival);
                let rx_free = n.nodes[to.0].rx.free_at();
                let delivered = n.nodes[to.0].rx.reserve(arrival, rx_cost);
                if traced {
                    let depth = n.nodes[to.0].rx.queue_depth(arrival);
                    let hwm = n.nodes[to.0].rx.queue_hwm();
                    let waited = rx_free.max(arrival).since(arrival);
                    n.trace.emit(
                        arrival,
                        TraceEvent::NicQueueEnter {
                            node: to,
                            dir: NicDir::Rx,
                            depth,
                        },
                    );
                    n.trace.emit(
                        delivered,
                        TraceEvent::NicQueueExit {
                            node: to,
                            dir: NicDir::Rx,
                            waited,
                        },
                    );
                    n.trace.counter_add(to, "nic_rx_msgs", 1);
                    n.trace.counter_add(to, "nic_rx_bytes", bytes as u64);
                    n.trace
                        .counter_add(to, "nic_rx_busy_ns", rx_cost.as_nanos());
                    n.trace.counter_max(to, "nic_rx_queue_hwm", hwm);
                }
                if let Some(op) = span_op {
                    // Receiver-side phases: queue wait in arrival order,
                    // then drain (plus the eager bounce-buffer copy).
                    let rx_svc = rx_free.max(arrival);
                    n.trace
                        .span_record_for(op, SpanPhase::RxQueue, to, arrival, rx_svc);
                    n.trace
                        .span_record_for(op, SpanPhase::Rx, to, rx_svc, delivered);
                }
                let trace = n.trace.clone();
                drop(n);
                sim.schedule_at(delivered, move |sim| {
                    trace.emit(
                        delivered,
                        TraceEvent::ShardRecv {
                            from,
                            to,
                            bytes: bytes as u64,
                        },
                    );
                    let prev = trace.set_span_scope(span_op);
                    on_complete(sim, Delivery::Delivered(delivered));
                    trace.set_span_scope(prev);
                });
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn test_cfg() -> NetConfig {
        NetConfig {
            latency: SimDuration::from_micros(2),
            bandwidth_gbps: 32.0,
            eager_threshold: 16 * 1024,
            eager_copy_gbps: 40.0,
            rendezvous_handshake: SimDuration::from_micros(4),
            registration_per_kb: SimDuration::from_nanos(3),
            post_overhead: SimDuration::from_nanos(300),
            header_bytes: 64,
            failure_detect: SimDuration::from_micros(50),
        }
    }

    #[test]
    fn protocol_crossover_at_threshold() {
        let cfg = test_cfg();
        assert_eq!(cfg.protocol_for(16 * 1024), WireProtocol::Eager);
        assert_eq!(cfg.protocol_for(16 * 1024 + 1), WireProtocol::Rendezvous);
    }

    #[test]
    fn rendezvous_pays_fixed_cost_eager_does_not() {
        let cfg = test_cfg();
        // Just below vs just above the threshold: the rendezvous side must
        // jump by roughly the handshake cost.
        let below = cfg.one_way(16 * 1024);
        let above = cfg.one_way(16 * 1024 + 64);
        assert!(
            above > below + SimDuration::from_micros(3),
            "below={below} above={above}"
        );
    }

    #[test]
    fn single_send_delivers_at_expected_time() {
        let cfg = test_cfg();
        let net = Network::new(2, cfg);
        let mut sim = Simulation::new();
        let done: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
        let d2 = done.clone();
        Network::send(
            &net,
            &mut sim,
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            1024,
            move |_, d| {
                *d2.borrow_mut() = Some(d.at());
            },
        );
        sim.run();
        let expect =
            SimTime::ZERO + cfg.wire_time(1024) * 2 + cfg.latency + cfg.protocol_overhead(1024);
        assert_eq!(done.borrow().unwrap(), expect);
    }

    #[test]
    fn fanout_serializes_on_sender_nic() {
        let cfg = test_cfg();
        let net = Network::new(4, cfg);
        let mut sim = Simulation::new();
        let times = Rc::new(RefCell::new(Vec::new()));
        for dst in 1..4usize {
            let t = times.clone();
            Network::send(
                &net,
                &mut sim,
                SimTime::ZERO,
                NodeId(0),
                NodeId(dst),
                1 << 20,
                move |_, d| t.borrow_mut().push(d.at()),
            );
        }
        sim.run();
        let times = times.borrow();
        // Deliveries must be spaced by at least one wire time each: the
        // sender NIC is shared.
        let wire = cfg.wire_time(1 << 20);
        assert!(times[1].since(times[0]) >= wire);
        assert!(times[2].since(times[1]) >= wire);
    }

    #[test]
    fn converging_flows_queue_on_receiver() {
        let cfg = test_cfg();
        let net = Network::new(3, cfg);
        let mut sim = Simulation::new();
        let times = Rc::new(RefCell::new(Vec::new()));
        for src in [0usize, 1] {
            let t = times.clone();
            Network::send(
                &net,
                &mut sim,
                SimTime::ZERO,
                NodeId(src),
                NodeId(2),
                1 << 20,
                move |_, d| t.borrow_mut().push(d.at()),
            );
        }
        sim.run();
        let times = times.borrow();
        let wire = cfg.wire_time(1 << 20);
        // Both senders transmit in parallel, but the receiver NIC drains
        // them one after the other.
        assert!(times[1].since(times[0]) >= wire);
    }

    #[test]
    fn send_to_dead_node_fails_fast() {
        let cfg = test_cfg();
        let net = Network::new(2, cfg);
        net.borrow_mut().kill(NodeId(1));
        let mut sim = Simulation::new();
        let outcome = Rc::new(RefCell::new(None));
        let o2 = outcome.clone();
        Network::send(
            &net,
            &mut sim,
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            128,
            move |_, d| {
                *o2.borrow_mut() = Some(d);
            },
        );
        sim.run();
        let d = outcome.borrow().unwrap();
        assert!(!d.is_delivered());
        assert_eq!(d.at(), SimTime::ZERO + cfg.failure_detect);
        assert!(net.borrow().is_alive(NodeId(0)));
        assert!(!net.borrow().is_alive(NodeId(1)));
    }

    #[test]
    fn revive_restores_delivery() {
        let cfg = test_cfg();
        let net = Network::new(2, cfg);
        net.borrow_mut().kill(NodeId(1));
        net.borrow_mut().revive(NodeId(1));
        let mut sim = Simulation::new();
        let ok = Rc::new(RefCell::new(false));
        let ok2 = ok.clone();
        Network::send(
            &net,
            &mut sim,
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            128,
            move |_, d| {
                *ok2.borrow_mut() = d.is_delivered();
            },
        );
        sim.run();
        assert!(*ok.borrow());
    }

    #[test]
    fn delivery_helpers_and_display() {
        let t = SimTime::from_nanos(5);
        assert!(Delivery::Delivered(t).is_delivered());
        assert!(!Delivery::TargetDead(t).is_delivered());
        assert_eq!(Delivery::TargetDead(t).at(), t);
        assert_eq!(NodeId(3).to_string(), "n3");
    }

    #[test]
    fn empty_network_reports_no_nodes() {
        let net = Network::new(1, test_cfg());
        assert!(!net.borrow().is_empty());
        assert_eq!(net.borrow().len(), 1);
    }

    #[test]
    fn nic_busy_accumulates_per_direction() {
        let cfg = test_cfg();
        let net = Network::new(2, cfg);
        let mut sim = Simulation::new();
        Network::send(
            &net,
            &mut sim,
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            1 << 20,
            |_, _| {},
        );
        sim.run();
        let (tx0, rx0) = net.borrow().nic_busy(NodeId(0));
        let (tx1, rx1) = net.borrow().nic_busy(NodeId(1));
        assert!(tx0 > SimDuration::ZERO);
        assert_eq!(rx0, SimDuration::ZERO);
        assert_eq!(tx1, SimDuration::ZERO);
        assert!(rx1 >= tx0, "rx includes the eager copy");
    }

    #[test]
    fn traced_send_emits_transport_events_and_counters() {
        use crate::tracebus::{TraceBus, TraceRecord};

        let names = Rc::new(RefCell::new(Vec::new()));
        let collect = names.clone();
        let mut bus = TraceBus::new();
        bus.add_sink(Rc::new(RefCell::new(move |r: &TraceRecord| {
            collect.borrow_mut().push(r.event.name())
        })));
        let trace = Trace::from_bus(bus);

        let net = Network::new(3, test_cfg());
        net.borrow_mut().set_trace(trace.clone());
        net.borrow_mut().kill(NodeId(2));
        let mut sim = Simulation::new();
        Network::send(
            &net,
            &mut sim,
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            1024,
            |_, _| {},
        );
        Network::send(
            &net,
            &mut sim,
            SimTime::ZERO,
            NodeId(0),
            NodeId(2),
            1024,
            |_, _| {},
        );
        sim.run();

        let names = names.borrow();
        assert!(names.contains(&"shard_send"));
        assert!(names.contains(&"shard_recv"));
        assert!(names.contains(&"nic_queue_enter"));
        assert!(names.contains(&"nic_queue_exit"));
        assert!(names.contains(&"failure_detected"));
        trace.with_bus(|bus| {
            assert_eq!(bus.counter(NodeId(0), "nic_tx_msgs"), 1);
            assert_eq!(bus.counter(NodeId(0), "nic_tx_bytes"), 1024);
            assert_eq!(bus.counter(NodeId(1), "nic_rx_msgs"), 1);
            assert_eq!(bus.counter(NodeId(0), "failure_detects"), 1);
            assert_eq!(bus.counter(NodeId(0), "nic_tx_queue_hwm"), 1);
            assert!(bus.counter(NodeId(0), "nic_tx_busy_ns") > 0);
        });
    }

    fn timed_send(net: &Rc<RefCell<Network>>, bytes: usize) -> SimTime {
        let mut sim = Simulation::new();
        let done: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
        let d2 = done.clone();
        Network::send(
            net,
            &mut sim,
            SimTime::ZERO,
            NodeId(0),
            NodeId(1),
            bytes,
            move |_, d| {
                *d2.borrow_mut() = Some(d.at());
            },
        );
        sim.run();
        let t = done.borrow().expect("delivered");
        t
    }

    #[test]
    fn straggler_slows_its_side_of_transfers() {
        let cfg = test_cfg();
        let bytes = 1 << 20; // rendezvous: wire time dominates
        let healthy = timed_send(&Network::new(2, cfg), bytes);

        let slow_rx = Network::new(2, cfg);
        slow_rx
            .borrow_mut()
            .set_straggler(SimTime::ZERO, NodeId(1), 8.0, SimDuration::ZERO, 7);
        let degraded = timed_send(&slow_rx, bytes);
        // Only the receive-side serialization is scaled, so the transfer
        // is clearly slower but less than the full 8x.
        assert!(
            degraded.since(SimTime::ZERO) > healthy.since(SimTime::ZERO) * 3,
            "healthy={healthy} degraded={degraded}"
        );
        assert_eq!(slow_rx.borrow().slow_factor(NodeId(1)), 8.0);
        assert_eq!(slow_rx.borrow().slow_factor(NodeId(0)), 1.0);
        assert!(slow_rx.borrow().is_alive(NodeId(1)), "slow is not dead");

        // Clearing restores the healthy timing (fresh net: NIC FIFO state
        // is cumulative, so reuse would queue behind the first transfer).
        let cleared = Network::new(2, cfg);
        cleared
            .borrow_mut()
            .set_straggler(SimTime::ZERO, NodeId(1), 8.0, SimDuration::ZERO, 7);
        cleared.borrow_mut().clear_straggler(NodeId(1));
        assert_eq!(timed_send(&cleared, bytes), healthy);
    }

    #[test]
    fn straggler_jitter_is_bounded_and_seed_deterministic() {
        let cfg = test_cfg();
        let bytes = 4096;
        let healthy = timed_send(&Network::new(2, cfg), bytes);
        let jitter = SimDuration::from_micros(5);
        let run = |seed: u64| {
            let net = Network::new(2, cfg);
            net.borrow_mut()
                .set_straggler(SimTime::ZERO, NodeId(1), 1.0, jitter, seed);
            timed_send(&net, bytes)
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must reproduce the same jitter");
        assert!(a >= healthy && a.since(healthy) <= jitter);
    }

    #[test]
    fn set_straggler_emits_node_degraded() {
        use crate::tracebus::{TraceBus, TraceRecord};
        let recs = Rc::new(RefCell::new(Vec::new()));
        let collect = recs.clone();
        let mut bus = TraceBus::new();
        bus.add_sink(Rc::new(RefCell::new(move |r: &TraceRecord| {
            collect.borrow_mut().push(*r)
        })));
        let net = Network::new(2, test_cfg());
        net.borrow_mut().set_trace(Trace::from_bus(bus));
        net.borrow_mut().set_straggler(
            SimTime::from_nanos(9),
            NodeId(1),
            2.5,
            SimDuration::ZERO,
            0,
        );
        let recs = recs.borrow();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].at, SimTime::from_nanos(9));
        assert_eq!(
            recs[0].event,
            TraceEvent::NodeDegraded {
                node: NodeId(1),
                factor_x100: 250
            }
        );
    }

    #[test]
    #[should_panic(expected = "slowdown factor")]
    fn sub_unity_straggler_factor_panics() {
        let net = Network::new(2, test_cfg());
        net.borrow_mut()
            .set_straggler(SimTime::ZERO, NodeId(0), 0.5, SimDuration::ZERO, 0);
    }

    #[test]
    fn counters_accumulate() {
        let cfg = test_cfg();
        let net = Network::new(2, cfg);
        let mut sim = Simulation::new();
        for _ in 0..3 {
            Network::send(
                &net,
                &mut sim,
                SimTime::ZERO,
                NodeId(0),
                NodeId(1),
                100,
                |_, _| {},
            );
        }
        sim.run();
        assert_eq!(net.borrow().messages_sent(), 3);
        assert_eq!(net.borrow().bytes_sent(), 300);
    }
}
