//! The unified shard fan-out/quorum core.
//!
//! Every multi-shard operation in the engine — client-decode and
//! server-decode erasure Gets, replicated Gets, parallel replicated and
//! erasure Sets, and repair survivor reads — is one instance of the same
//! idea: issue requests against a candidate list, account completions and
//! errors, top up from untried holders when replies come back dead or
//! empty, optionally hedge against stragglers, and settle once a quorum
//! is in hand (or every avenue is exhausted). [`FanOut`] owns that
//! lifecycle once; the per-path modules reduce to policy
//! ([`QuorumPolicy`]), transport glue (a [`ShardIo`] closure, built by
//! [`chunk_io`] for every path and both [`Origin`]s), and a
//! settle callback that turns the outcome into an operation completion
//! (via [`crate::flow::finish_op`]) or a repair booking.
//!
//! Centralising the machine is what makes `HedgeConfig` apply uniformly:
//! the hedge timer, the first-chunk latency sample feeding the adaptive
//! estimator, and the `hedge_fired`/`hedge_won` accounting all live here,
//! so the server-decode aggregation fan-in and repair survivor reads hedge
//! exactly like the client-decode path.

use std::cell::RefCell;
use std::rc::Rc;

use eckv_simnet::{NodeId, SimDuration, SimTime, Simulation, SpanPhase, TraceEvent};
use eckv_store::{rpc, rpc::CancelToken, Payload};

use crate::world::World;

/// What a [`ShardIo`] closure calls, once, when its request completes:
/// the reply for one slot of one fan-out.
pub(crate) struct ReplyCb {
    state: Rc<RefCell<Inner>>,
    slot: usize,
}

impl ReplyCb {
    /// Books `reply` with the fan-out. A reply that is not a hit (a read
    /// miss, or a write too large for the holder's memory) is grounds for
    /// a top-up, not a discovery; a dead holder is a discovery, which the
    /// issuing path has already booked in its failure view; a shed one is
    /// retry-worthy, but the server answered.
    pub fn call(self, sim: &mut Simulation, reply: Result<rpc::Reply, rpc::RpcError>) {
        on_reply(&self.state, sim, self.slot, reply);
    }
}

/// One request the fan-out asks its [`ShardIo`] to issue.
pub(crate) struct Issue {
    /// Logical slot (shard index / replica position) of the candidate.
    pub slot: usize,
    /// Server index of the candidate.
    pub srv: usize,
    /// Position of this request within its wave (for staggered posting).
    pub seq: u64,
    /// Reference instant of the wave (first wave: caller-chosen; later
    /// waves: the latest completion seen so far).
    pub from: SimTime,
    /// Shared cancellation token: cancelled once the fan-out settles, so
    /// in-flight losers are dropped at their servers.
    pub cancel: CancelToken,
}

/// Transport glue: performs the actual request for `issue` and arranges
/// for `reply` to fire exactly once (or never, if the request is
/// cancelled). Returns the instant the request hit the wire, which seeds
/// the hedge clock for the first request of the first wave.
pub(crate) type ShardIo = Rc<dyn Fn(&mut Simulation, Issue, ReplyCb) -> SimTime>;

/// How large the opening wave is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FirstWave {
    /// Exactly `required` candidates (quorum reads: fetch `k`, keep the
    /// rest in reserve for top-up and hedging).
    Required,
    /// Every candidate that passes the liveness filter (writes: post all
    /// chunks/copies at once).
    AllAlive,
}

/// The knobs distinguishing one fan-out flavour from another.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QuorumPolicy {
    /// Successful replies needed for the operation to succeed.
    pub required: usize,
    /// Opening-wave sizing (bounds the requests in flight).
    pub first_wave: FirstWave,
    /// Whether a wave that ends short of quorum launches another from
    /// untried candidates (the GET path's late binding).
    pub top_up: bool,
    /// Settle as soon as `required` replies are good, cancelling in-flight
    /// losers (reads); `false` waits for every issued request (writes,
    /// which must account all acks).
    pub early_settle: bool,
    /// Arm the hedge timer when the engine has a hedge policy.
    pub hedge: bool,
}

impl QuorumPolicy {
    /// k-of-n read: fetch exactly `required`, top up on dead/empty
    /// replies, settle at quorum, hedge against stragglers.
    pub fn read(required: usize) -> Self {
        Self {
            required,
            first_wave: FirstWave::Required,
            top_up: true,
            early_settle: true,
            hedge: true,
        }
    }

    /// One-holder read (replicated Gets, replica repair): a single fetch
    /// decides the operation, and nothing hedges it.
    pub fn single() -> Self {
        Self {
            required: 1,
            first_wave: FirstWave::Required,
            top_up: false,
            early_settle: true,
            hedge: false,
        }
    }

    /// All-of-n write: post to every live candidate and wait for every
    /// ack; `required` only decides success.
    pub fn write(required: usize) -> Self {
        Self {
            required,
            first_wave: FirstWave::AllAlive,
            top_up: false,
            early_settle: false,
            hedge: false,
        }
    }
}

/// How candidate liveness is judged when building waves.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Liveness {
    /// Consult this client's failure view at wave-build time.
    View(usize),
    /// The candidate list was filtered once up front (repair reads, which
    /// check ground truth at scan time).
    PreFiltered,
}

/// Everything the caller decides about a fan-out before launching it.
pub(crate) struct FanOutSpec {
    /// `(slot, server)` candidates, in deterministic preference order.
    pub candidates: Vec<(usize, usize)>,
    /// Leading candidates exempt from the opening-wave liveness filter:
    /// they were chosen when the operation was admitted, and a path that
    /// launches only after a network hop (the server-decode aggregator)
    /// must not let a concurrently-updated failure view shift that choice.
    pub pinned: usize,
    /// Quorum/top-up/hedge policy.
    pub policy: QuorumPolicy,
    /// Liveness filter for wave building.
    pub liveness: Liveness,
    /// Node charged with hedge trace events (the node driving the
    /// fan-out: the client, the aggregator, or the repair client).
    pub hedge_node: NodeId,
}

impl FanOutSpec {
    /// Rotates the candidate list left by `rot % len` positions, so
    /// per-key hashes spread first-wave load across holders.
    pub fn rotated_by(mut self, rot: u64) -> Self {
        if !self.candidates.is_empty() {
            let r = (rot % self.candidates.len() as u64) as usize;
            self.candidates.rotate_left(r);
        }
        self
    }
}

/// What the fan-out hands its settle callback.
pub(crate) struct Settled {
    /// Shards that came back present, in arrival order (reads).
    pub good: Vec<(usize, Payload)>,
    /// Successful replies, including value-less write acks.
    pub succeeded: usize,
    /// Requests issued in total, for request-phase cost accounting.
    pub posts: u64,
    /// Whether any reply revealed a dead server (retry-worthiness).
    pub discovered: bool,
    /// Replies refused by server admission control (also retry-worthy:
    /// the server is alive and a backed-off retry may be admitted).
    pub shed: u64,
    /// Latest completion instant across all replies.
    pub last: SimTime,
}

/// Settle callback: fires exactly once, when the fan-out is decided.
pub(crate) type SettleCb = Box<dyn FnOnce(&mut Simulation, Settled)>;

struct Inner {
    world: Rc<World>,
    candidates: Vec<(usize, usize)>,
    tried: Vec<bool>,
    pinned: usize,
    policy: QuorumPolicy,
    liveness: Liveness,
    hedge_node: NodeId,
    /// Shared so a wave can invoke it with the state borrow released (an
    /// io may answer synchronously, e.g. a local store lookup).
    io: ShardIo,
    good: Vec<(usize, Payload)>,
    succeeded: usize,
    outstanding: usize,
    posts: u64,
    discovered: bool,
    shed: u64,
    settled: bool,
    last: SimTime,
    /// First wire-issue instant of the first wave — the hedge clock, and
    /// the reference for the first-chunk latency sample.
    fetch_start: SimTime,
    /// Slots issued speculatively by the hedge timer.
    hedged: Vec<usize>,
    hedge_fired_at: Option<SimTime>,
    cancel: CancelToken,
    on_settle: Option<SettleCb>,
}

impl Inner {
    fn alive(&self, srv: usize) -> bool {
        match self.liveness {
            Liveness::View(client) => self.world.view_alive(client, srv),
            Liveness::PreFiltered => true,
        }
    }

    /// Untried candidates passing the liveness filter, up to `take`.
    fn untried(&self, take: usize) -> Vec<usize> {
        self.candidates
            .iter()
            .enumerate()
            .filter(|&(i, &(_, srv))| !self.tried[i] && self.alive(srv))
            .take(take)
            .map(|(i, _)| i)
            .collect()
    }

    /// The opening wave: pinned candidates unconditionally, then live
    /// ones, up to `cap`.
    fn opening(&self, cap: usize) -> Vec<usize> {
        self.candidates
            .iter()
            .enumerate()
            .filter(|&(i, &(_, srv))| i < self.pinned || self.alive(srv))
            .take(cap)
            .map(|(i, _)| i)
            .collect()
    }
}

/// The unified k-of-n / all-of-n shard fan-out state machine.
pub(crate) struct FanOut;

impl FanOut {
    /// Launches a fan-out: selects the opening wave per the spec's policy
    /// and liveness filter, issues it through `io`, arms the hedge timer
    /// if configured, and drives top-up waves until `on_settle` can be
    /// called. Returns `false` (issuing nothing) when fewer than
    /// `required` candidates are alive — the operation cannot succeed and
    /// the caller owns that failure path.
    pub fn launch(
        world: &Rc<World>,
        sim: &mut Simulation,
        spec: FanOutSpec,
        from: SimTime,
        io: ShardIo,
        on_settle: SettleCb,
    ) -> bool {
        let n = spec.candidates.len();
        let inner = Rc::new(RefCell::new(Inner {
            world: world.clone(),
            candidates: spec.candidates,
            tried: vec![false; n],
            pinned: spec.pinned,
            policy: spec.policy,
            liveness: spec.liveness,
            hedge_node: spec.hedge_node,
            io,
            good: Vec::new(),
            succeeded: 0,
            outstanding: 0,
            posts: 0,
            discovered: false,
            shed: 0,
            settled: false,
            last: from,
            fetch_start: from,
            hedged: Vec::new(),
            hedge_fired_at: None,
            cancel: CancelToken::new(),
            on_settle: Some(on_settle),
        }));
        let wave = {
            let st = inner.borrow();
            let cap = match st.policy.first_wave {
                FirstWave::Required => st.policy.required,
                FirstWave::AllAlive => n,
            };
            st.opening(cap)
        };
        // An opening wave short of quorum can never reach it: for
        // `FirstWave::Required` by construction, for `AllAlive` because
        // the wave already holds every live candidate.
        if wave.len() < inner.borrow().policy.required {
            return false;
        }
        {
            let mut st = inner.borrow_mut();
            st.outstanding = wave.len();
            for &i in &wave {
                st.tried[i] = true;
            }
        }
        issue_wave(&inner, sim, wave, from, true);
        maybe_arm_hedge(&inner, sim);
        true
    }
}

/// Issues one wave of requests through the fan-out's `ShardIo`.
fn issue_wave(
    state: &Rc<RefCell<Inner>>,
    sim: &mut Simulation,
    wave: Vec<usize>,
    from: SimTime,
    first: bool,
) {
    let io = {
        let mut st = state.borrow_mut();
        st.posts += wave.len() as u64;
        st.io.clone()
    };
    for (seq, cand) in wave.into_iter().enumerate() {
        let (slot, srv, cancel) = {
            let st = state.borrow();
            let (slot, srv) = st.candidates[cand];
            (slot, srv, st.cancel.clone())
        };
        let reply = ReplyCb {
            state: state.clone(),
            slot,
        };
        let issue = Issue {
            slot,
            srv,
            seq: seq as u64,
            from,
            cancel,
        };
        let issued_at = io(sim, issue, reply);
        if first && seq == 0 {
            state.borrow_mut().fetch_start = issued_at;
        }
    }
}

/// Books one reply and decides whether the fan-out settles, tops up, or
/// keeps waiting.
fn on_reply(
    state: &Rc<RefCell<Inner>>,
    sim: &mut Simulation,
    slot: usize,
    reply: Result<rpc::Reply, rpc::RpcError>,
) {
    {
        let mut st = state.borrow_mut();
        if st.settled {
            // A straggler answering after the race was decided.
            return;
        }
        st.outstanding -= 1;
        let at = reply.as_ref().map_or_else(|e| e.at(), |r| r.at);
        if at > st.last {
            st.last = at;
        }
        match reply {
            Ok(rpc::Reply {
                at,
                hit: true,
                value,
            }) => {
                if st.policy.hedge && st.good.is_empty() && value.is_some() {
                    let d = at.since(st.fetch_start);
                    st.world.note_first_chunk_latency(d);
                }
                st.succeeded += 1;
                if let Some(v) = value {
                    st.good.push((slot, v));
                }
            }
            Ok(_) => {}
            Err(rpc::RpcError::ServerDead(_)) => {
                st.discovered = true;
            }
            Err(rpc::RpcError::Shed(_)) => {
                st.shed += 1;
            }
        }
        let quorum = st.succeeded >= st.policy.required;
        if !(st.outstanding == 0 || (st.policy.early_settle && quorum)) {
            return;
        }
    }
    maybe_settle(state, sim);
}

/// A wave ended (or quorum arrived early): top up from untried candidates
/// if allowed and useful, otherwise settle for good.
fn maybe_settle(state: &Rc<RefCell<Inner>>, sim: &mut Simulation) {
    let top_up: Option<Vec<usize>> = {
        let st = state.borrow();
        if st.succeeded >= st.policy.required || !st.policy.top_up {
            None
        } else {
            let missing = st.policy.required - st.succeeded;
            let batch = st.untried(missing);
            if batch.is_empty() {
                None
            } else {
                Some(batch)
            }
        }
    };
    if let Some(batch) = top_up {
        let from = {
            let mut st = state.borrow_mut();
            for &i in &batch {
                st.tried[i] = true;
            }
            st.outstanding = batch.len();
            let now = sim.now();
            if st.last > now {
                st.last
            } else {
                now
            }
        };
        issue_wave(state, sim, batch, from, false);
        return;
    }

    let (world, settled, hedge_node, hedged, hedge_fired_at, required, on_settle) = {
        let mut st = state.borrow_mut();
        st.settled = true;
        st.cancel.cancel();
        (
            st.world.clone(),
            Settled {
                good: std::mem::take(&mut st.good),
                succeeded: st.succeeded,
                posts: st.posts,
                discovered: st.discovered,
                shed: st.shed,
                last: st.last,
            },
            st.hedge_node,
            std::mem::take(&mut st.hedged),
            st.hedge_fired_at,
            st.policy.required,
            st.on_settle.take().expect("settles once"),
        )
    };
    // The hedge won if a speculative fetch supplied one of the replies
    // actually used — the operation would otherwise still be waiting.
    if let Some(fired_at) = hedge_fired_at {
        let used_hedged = settled
            .good
            .iter()
            .take(required)
            .any(|&(slot, _)| hedged.contains(&slot));
        if used_hedged {
            let now = sim.now();
            world.note(
                now,
                TraceEvent::HedgeWon {
                    client: hedge_node,
                    waited: now.since(fired_at),
                },
            );
        }
    }
    on_settle(sim, settled);
}

/// Arms the hedge timer: if the opening wave has not produced a quorum by
/// the trigger delay, speculatively issue the missing count against
/// untried candidates (generalising the failure-only top-up to
/// slow-but-alive servers).
fn maybe_arm_hedge(state: &Rc<RefCell<Inner>>, sim: &mut Simulation) {
    let (armed, fire_at) = {
        let st = state.borrow();
        if !st.policy.hedge {
            (false, SimTime::ZERO)
        } else {
            match st.world.hedge_delay() {
                Some(delay) => (true, st.fetch_start + delay),
                None => (false, SimTime::ZERO),
            }
        }
    };
    if !armed {
        return;
    }
    // The timer closure runs outside any op scope; capture it here (the
    // arm happens synchronously under the op) so the hedged requests'
    // transport spans still land on the right tree.
    let span_op = state.borrow().world.trace.span_scope();
    let state2 = state.clone();
    sim.schedule_at(fire_at, move |sim| {
        let batch: Vec<usize> = {
            let st = state2.borrow();
            if st.settled || st.succeeded >= st.policy.required {
                return;
            }
            st.untried(st.policy.required - st.succeeded)
        };
        if batch.is_empty() {
            return; // every holder is already in play; nothing to hedge to
        }
        let (world, hedge_node, from, fetch_start) = {
            let mut st = state2.borrow_mut();
            for &i in &batch {
                st.tried[i] = true;
                let (slot, _) = st.candidates[i];
                st.hedged.push(slot);
            }
            st.outstanding += batch.len();
            st.hedge_fired_at = Some(sim.now());
            let now = sim.now();
            let from = if st.last > now { st.last } else { now };
            (st.world.clone(), st.hedge_node, from, st.fetch_start)
        };
        world.note(
            sim.now(),
            TraceEvent::HedgeFired {
                client: hedge_node,
                extra: batch.len() as u64,
            },
        );
        if let Some(op) = span_op {
            world.trace.span_record_for(
                op,
                SpanPhase::HedgeWait,
                hedge_node,
                fetch_start,
                sim.now(),
            );
        }
        let prev = world.trace.set_span_scope(span_op);
        issue_wave(&state2, sim, batch, from, false);
        world.trace.set_span_scope(prev);
    });
}

/// The node a fan-out's requests come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Origin {
    /// A client's ARPE thread, which reserves one post overhead of client
    /// CPU per request.
    Client(usize),
    /// A chunk holder coordinating for a client (the Era-SE encoder, the
    /// Era-SD aggregator): it staggers its posts one overhead apart after
    /// the wave instant and serves its own slot from its local store.
    Server(usize),
}

impl Origin {
    /// The simulated node of this origin.
    pub fn node(self, world: &World) -> NodeId {
        match self {
            Origin::Client(client) => world.cluster.client_node(client),
            Origin::Server(srv) => world.cluster.servers[srv].borrow().node(),
        }
    }

    /// Reserves `service` on this origin's CPU from `at`; returns the
    /// completion instant.
    pub fn reserve(self, world: &World, at: SimTime, service: SimDuration) -> SimTime {
        match self {
            Origin::Client(client) => world.reserve_client_cpu(client, at, service),
            Origin::Server(srv) => world.cluster.servers[srv]
                .borrow_mut()
                .reserve_cpu(at, service),
        }
    }
}

/// The transport glue of every fan-out: `pick` maps a slot to its
/// request — a chunk or a full copy, to store or to fetch — and the io
/// issues it from `origin`. A client origin reserves one post on its CPU
/// per request (at the wave instant for a SET, whose posts go out back to
/// back after encode; at issue time for a GET); a coordinating server
/// staggers its posts and serves its own slot locally. A dead holder
/// updates `view`'s failure view, if any (repair reads judge liveness by
/// ground truth and pass `None`).
pub(crate) fn chunk_io(
    world: &Rc<World>,
    origin: Origin,
    view: Option<usize>,
    prio: rpc::RpcPriority,
    pick: impl Fn(usize) -> rpc::Request + 'static,
) -> ShardIo {
    let world = world.clone();
    let node = origin.node(&world);
    let post = world.cluster.net_config().post_overhead;
    Rc::new(move |sim: &mut Simulation, issue: Issue, reply: ReplyCb| {
        let srv = issue.srv;
        let request = pick(issue.slot);
        if origin == Origin::Server(srv) {
            reply.call(sim, Ok(serve_local(&world, srv, issue.from, request)));
            return issue.from;
        }
        let start = match origin {
            Origin::Client(client) => {
                let at = match request {
                    rpc::Request::Set { .. } => issue.from,
                    rpc::Request::Get { .. } => sim.now(),
                };
                world.reserve_client_cpu(client, at, post)
            }
            Origin::Server(_) => {
                let start = issue.from + post * (issue.seq + 1);
                world
                    .trace
                    .span_record(SpanPhase::Post, node, issue.from, start);
                start
            }
        };
        let world2 = world.clone();
        rpc::call(
            &world.cluster.net,
            &world.cluster.servers[srv],
            sim,
            start,
            node,
            request,
            Some(issue.cancel),
            prio,
            move |sim, r| {
                if let Err(err) = r {
                    world2.note_rpc_error(err, view, node, srv, prio);
                }
                reply.call(sim, r);
            },
        );
        start
    })
}

/// A coordinator's request for its own slot, served at `at` through its
/// server's storage path (RAM, then flash; RAM eviction victims spill).
/// Storing its own chunk of a SET costs no worker time beyond the value
/// ingest the coordinator already paid; reading its own chunk is a Get
/// served by its own workers, with no transfer.
fn serve_local(world: &World, srv: usize, at: SimTime, request: rpc::Request) -> rpc::Reply {
    let mut server = world.cluster.servers[srv].borrow_mut();
    match request {
        rpc::Request::Set {
            key,
            payload,
            stale,
        } => {
            debug_assert!(stale.is_none(), "only the hybrid retires keys");
            let hit = server.store_set(at, key, payload).is_stored();
            rpc::Reply {
                at,
                hit,
                value: None,
            }
        }
        rpc::Request::Get { key } => {
            let (at, value) = server.process_get(at, &key);
            rpc::Reply {
                at,
                hit: value.is_some(),
                value,
            }
        }
    }
}
