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

use crate::engine::{Handler, Simulation};
use crate::resource::WorkerPool;
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
    tx: WorkerPool,
    rx: WorkerPool,
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

type OnComplete = Box<dyn FnOnce(&mut Simulation, Delivery)>;

/// A message in flight: its route and what its later hops need.
struct Msg {
    from: NodeId,
    to: NodeId,
    bytes: usize,
    /// The op scope of the sender, re-established around `on_complete`.
    span_op: Option<u64>,
    traced: bool,
    /// The receiver NIC's service time, set when the send starts.
    rx_cost: SimDuration,
    /// `None` once the message completed and its slot is free.
    on_complete: Option<OnComplete>,
}

/// The cluster-wide transport: one tx/rx NIC pair per node.
///
/// Shared via `Rc<RefCell<...>>`; sends are initiated with
/// [`Network::send`], which schedules resource usage at the requested start
/// time and invokes the callback at delivery.
pub struct Network {
    cfg: NetConfig,
    nodes: Vec<NodeState>,
    messages_sent: u64,
    bytes_sent: u64,
    trace: Trace,
    /// The in-flight slab: one slot per message until it completes.
    msgs: Vec<Msg>,
    /// Free slots of `msgs`, reused last-freed first.
    free: Vec<u32>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("cfg", &self.cfg)
            .field("nodes", &self.nodes)
            .field("messages_sent", &self.messages_sent)
            .field("bytes_sent", &self.bytes_sent)
            .field("trace", &self.trace)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl Network {
    /// Creates a transport for `nodes` nodes.
    pub fn new(nodes: usize, cfg: NetConfig) -> Rc<RefCell<Network>> {
        let nodes = (0..nodes)
            .map(|_| NodeState {
                tx: WorkerPool::new(1),
                rx: WorkerPool::new(1),
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
            msgs: Vec::new(),
            free: Vec::new(),
        }))
    }

    /// Attaches a TraceBus handle; every subsequent send emits transport
    /// events ([`TraceEvent::ShardSend`]/[`TraceEvent::ShardRecv`], NIC
    /// queue enter/exit, failure detection), which the bus folds into its
    /// per-node NIC counters.
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
    /// The message takes one slot of the network's in-flight slab, which
    /// holds the boxed `on_complete`, and its hops are token events of the
    /// network itself (see [`Handler`]): one allocation per message. A
    /// continuation that holds the network keeps it alive while the message
    /// is in flight, so messages still in flight when their
    /// [`Simulation`] is dropped, unrun, leak the network with them; a run
    /// that drains its queue leaves none.
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
        let idx = {
            let mut n = net.borrow_mut();
            // Causal span propagation: the op scope is ambient only while
            // the caller runs, so capture it here and re-establish it
            // around the completion callback. Resolves to `None` in a
            // single cheap branch when tracing or spans are off.
            let span_op = n.trace.span_scope();
            let msg = Msg {
                from,
                to,
                bytes,
                span_op,
                traced: false,
                rx_cost: SimDuration::ZERO,
                on_complete: Some(Box::new(on_complete)),
            };
            match n.free.pop() {
                Some(idx) => {
                    n.msgs[idx as usize] = msg;
                    idx
                }
                None => {
                    n.msgs.push(msg);
                    u32::try_from(n.msgs.len() - 1)
                        .ok()
                        .filter(|&idx| idx < 1 << 30)
                        .expect("fewer than 2^30 messages in flight")
                }
            }
        };
        sim.schedule_token_at(start, net.clone(), idx << 2 | START);
    }

    /// Messages sent and not yet completed.
    fn in_flight(&self) -> usize {
        self.msgs.len() - self.free.len()
    }

    /// The most messages ever in flight at once: the in-flight slab only
    /// grows when every slot is taken.
    pub fn peak_in_flight(&self) -> usize {
        self.msgs.len()
    }

    /// The send starts: the sender's NIC takes the message, or a dead
    /// target is detected.
    fn start(net: Rc<RefCell<Network>>, sim: &mut Simulation, idx: u32) {
        let now = sim.now();
        let mut guard = net.borrow_mut();
        let n = &mut *guard;
        let Msg {
            from,
            to,
            bytes,
            span_op,
            ..
        } = n.msgs[idx as usize];
        assert!(
            from.0 < n.nodes.len() && to.0 < n.nodes.len(),
            "bad node id"
        );
        n.messages_sent += 1;
        n.bytes_sent += bytes as u64;
        if !n.nodes[to.0].alive {
            let at = now + n.cfg.failure_detect;
            n.trace
                .emit(at, TraceEvent::FailureDetected { node: to, by: from });
            if let Some(op) = span_op {
                n.trace
                    .span_record_for(op, SpanPhase::FailDetect, from, now, at);
            }
            drop(guard);
            sim.schedule_token_at(at, net, idx << 2 | DEAD);
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
        // ledger is compacted at the send instant, never at `tx_start`:
        // a rendezvous transfer enters the queue only after its
        // handshake, and compacting at that future instant would drop
        // transmissions still outstanding for a later send that starts
        // before it.
        let tx = &mut n.nodes[from.0].tx;
        tx.prune(now);
        let (tx_svc, tx_done) = tx.reserve_timed(tx_start, tx_wire);
        if traced {
            let depth = tx.queue_depth(tx_start);
            let waited = tx_svc.since(tx_start);
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
                    bytes: bytes as u64,
                    busy: tx_wire,
                },
            );
        }
        // ...it propagates, then the receiver NIC drains and (for
        // eager) copies it out. The rx reservation is made *when the
        // bytes arrive*, not at send time: the receiver NIC serves
        // flows in arrival order, so a slow sender's late transfer
        // cannot head-of-line-block a faster one issued after it.
        let arrival = tx_done + latency + jitter;
        if let Some(op) = span_op {
            // Sender-side phases: protocol setup (rendezvous RTS/CTS),
            // queue wait behind earlier transfers, then serialization.
            let t = &n.trace;
            t.span_record_for(op, SpanPhase::NetProto, from, now, tx_start);
            t.span_record_for(op, SpanPhase::TxQueue, from, tx_start, tx_svc);
            t.span_record_for(op, SpanPhase::Tx, from, tx_svc, tx_done);
            t.span_record_for(op, SpanPhase::Propagate, to, tx_done, arrival);
        }
        let msg = &mut n.msgs[idx as usize];
        msg.traced = traced;
        msg.rx_cost = rx_wire + rx_extra;
        drop(guard);
        sim.schedule_token_at(arrival, net, idx << 2 | ARRIVAL);
    }

    /// The bytes reach the receiver, whose NIC drains them in arrival
    /// order.
    fn arrive(net: Rc<RefCell<Network>>, sim: &mut Simulation, idx: u32) {
        let arrival = sim.now();
        let mut guard = net.borrow_mut();
        let n = &mut *guard;
        let Msg {
            to,
            bytes,
            span_op,
            traced,
            rx_cost,
            ..
        } = n.msgs[idx as usize];
        let rx = &mut n.nodes[to.0].rx;
        rx.prune(arrival);
        let (rx_svc, delivered) = rx.reserve_timed(arrival, rx_cost);
        if traced {
            let depth = rx.queue_depth(arrival);
            let waited = rx_svc.since(arrival);
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
                    bytes: bytes as u64,
                    busy: rx_cost,
                },
            );
        }
        if let Some(op) = span_op {
            // Receiver-side phases: queue wait in arrival order,
            // then drain (plus the eager bounce-buffer copy).
            n.trace
                .span_record_for(op, SpanPhase::RxQueue, to, arrival, rx_svc);
            n.trace
                .span_record_for(op, SpanPhase::Rx, to, rx_svc, delivered);
        }
        drop(guard);
        sim.schedule_token_at(delivered, net, idx << 2 | DELIVER);
    }

    /// The outcome is known: frees the message's slot and runs its
    /// continuation, which may send again, with the network released.
    fn complete(net: Rc<RefCell<Network>>, sim: &mut Simulation, idx: u32, delivered: bool) {
        let at = sim.now();
        let (from, to, bytes, span_op, on_complete, trace) = {
            let mut guard = net.borrow_mut();
            let n = &mut *guard;
            n.free.push(idx);
            let msg = &mut n.msgs[idx as usize];
            let on_complete = msg.on_complete.take().expect("a message completes once");
            let trace = n.trace.clone();
            (msg.from, msg.to, msg.bytes, msg.span_op, on_complete, trace)
        };
        drop(net);
        let delivery = if delivered {
            trace.emit(
                at,
                TraceEvent::ShardRecv {
                    from,
                    to,
                    bytes: bytes as u64,
                },
            );
            Delivery::Delivered(at)
        } else {
            Delivery::TargetDead(at)
        };
        let prev = trace.set_span_scope(span_op);
        on_complete(sim, delivery);
        trace.set_span_scope(prev);
    }
}

/// The hops of a message, the low two bits of its token.
const START: u32 = 0;
const ARRIVAL: u32 = 1;
const DELIVER: u32 = 2;
const DEAD: u32 = 3;

impl Handler for RefCell<Network> {
    fn fire(self: Rc<Self>, sim: &mut Simulation, token: u32) {
        let idx = token >> 2;
        match token & 3 {
            START => Network::start(self, sim, idx),
            ARRIVAL => Network::arrive(self, sim, idx),
            DELIVER => Network::complete(self, sim, idx, true),
            _ => Network::complete(self, sim, idx, false),
        }
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
            let (tx, _) = net.borrow().nic_busy(NodeId(0));
            let (_, rx) = net.borrow().nic_busy(NodeId(1));
            assert!(tx > SimDuration::ZERO);
            assert_eq!(bus.counter(NodeId(0), "nic_tx_busy_ns"), tx.as_nanos());
            assert_eq!(bus.counter(NodeId(1), "nic_rx_busy_ns"), rx.as_nanos());
        });
    }

    #[test]
    fn a_rendezvous_send_keeps_earlier_transfers_in_the_backlog() {
        use crate::tracebus::TraceBus;

        // An eager send, a rendezvous send whose transfer starts only
        // after its handshake, and another eager send, all issued at t=0
        // from one node: when the third enters the queue the first is
        // still on the wire, so three transmissions are outstanding.
        let trace = Trace::from_bus(TraceBus::new());
        let net = Network::new(2, test_cfg());
        net.borrow_mut().set_trace(trace.clone());
        let mut sim = Simulation::new();
        for bytes in [1024, 64 * 1024, 1024] {
            Network::send(
                &net,
                &mut sim,
                SimTime::ZERO,
                NodeId(0),
                NodeId(1),
                bytes,
                |_, _| {},
            );
        }
        sim.run();
        trace.with_bus(|bus| assert_eq!(bus.counter(NodeId(0), "nic_tx_queue_hwm"), 3));
    }

    /// Sends `hops` messages one after another, each from the delivery
    /// callback of the last, cycling through the nodes (dead ones too).
    fn chain(net: &Rc<RefCell<Network>>, sim: &mut Simulation, from: usize, hops: usize) {
        if hops == 0 {
            return;
        }
        let to = (from + 1) % net.borrow().len();
        let net2 = net.clone();
        Network::send(
            net,
            sim,
            sim.now(),
            NodeId(from),
            NodeId(to),
            100 + 1000 * hops,
            move |sim, _| chain(&net2, sim, to, hops - 1),
        );
    }

    #[test]
    fn chained_sends_and_dead_targets_leave_nothing_in_flight() {
        let net = Network::new(4, test_cfg());
        net.borrow_mut().kill(NodeId(2));
        let mut sim = Simulation::new();
        for from in 0..4 {
            chain(&net, &mut sim, from, 9);
        }
        assert_eq!(net.borrow().in_flight(), 4);
        sim.run();
        let n = net.borrow();
        assert_eq!(n.messages_sent(), 4 * 9);
        assert_eq!(n.in_flight(), 0);
        assert_eq!(n.peak_in_flight(), 4);
        // Nothing the continuations captured outlives the run.
        drop(n);
        assert_eq!(Rc::strong_count(&net), 1);
    }

    /// Sends a wave of `width` concurrent messages; the last delivery of
    /// a wave sends the next, `waves` times. Tracks the messages in flight
    /// as seen from outside.
    fn wave(
        net: &Rc<RefCell<Network>>,
        sim: &mut Simulation,
        width: usize,
        waves: usize,
        seen: &Rc<RefCell<(usize, usize)>>,
    ) {
        if waves == 0 {
            return;
        }
        let left = Rc::new(RefCell::new(width));
        for dst in 0..width {
            let (net2, seen2, left) = (net.clone(), seen.clone(), left.clone());
            let mut s = seen.borrow_mut();
            s.0 += 1;
            s.1 = s.1.max(s.0);
            drop(s);
            Network::send(
                net,
                sim,
                sim.now(),
                NodeId(0),
                NodeId(1 + dst % 2),
                64 << dst,
                move |sim, _| {
                    seen2.borrow_mut().0 -= 1;
                    *left.borrow_mut() -= 1;
                    if *left.borrow() == 0 {
                        wave(&net2, sim, width, waves - 1, &seen2);
                    }
                },
            );
        }
    }

    #[test]
    fn slab_slots_are_reused_up_to_peak_concurrency() {
        let net = Network::new(3, test_cfg());
        let mut sim = Simulation::new();
        let seen = Rc::new(RefCell::new((0, 0)));
        wave(&net, &mut sim, 5, 20, &seen);
        sim.run();
        let (in_flight, peak) = *seen.borrow();
        assert_eq!((in_flight, peak), (0, 5));
        let n = net.borrow();
        assert_eq!(n.messages_sent(), 5 * 20);
        assert_eq!(n.in_flight(), 0);
        assert_eq!(n.peak_in_flight(), peak);
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
