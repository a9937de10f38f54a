//! Client-visible Set/Get RPCs composed over the simulated transport.
//!
//! Every server-bound message is a [`request`] leg (transfer, then
//! admission), a serve step and a [`respond`] leg; [`call`] runs the three
//! for a store [`Request`], serving it with the server's workers. The
//! non-blocking engine in `eckv-core` issues many of these
//! concurrently and reaps completions through its window, exactly like the
//! `memcached_iset`/`iget` + `memcached_wait` APIs the paper builds on.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use eckv_simnet::{Delivery, Network, NodeId, SimTime, Simulation};

use crate::payload::Payload;
use crate::server::KvServer;

/// Wire size of a Set/Get request header (opcode, key length, flags, cas).
pub const REQUEST_OVERHEAD: usize = 48;
/// Wire size of a status-only response (ack / miss).
pub const ACK_BYTES: usize = 32;

/// Errors surfaced to the RPC caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// The target server is dead; the error surfaced at the given time.
    ServerDead(SimTime),
    /// The server is alive but refused the request at its bounded-queue
    /// admission cap; the fast refusal reached the client at the given
    /// time. Retryable — the server has not failed, it is overloaded.
    Shed(SimTime),
}

impl RpcError {
    /// The instant the error surfaced at the client.
    pub fn at(self) -> SimTime {
        match self {
            RpcError::ServerDead(t) | RpcError::Shed(t) => t,
        }
    }
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::ServerDead(t) => write!(f, "server unreachable (detected at {t})"),
            RpcError::Shed(t) => write!(f, "server shed the request (refused at {t})"),
        }
    }
}

impl std::error::Error for RpcError {}

/// Traffic class of a request, used by server admission control: under
/// overload, background repair traffic is shed at a stricter bound than
/// foreground client traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RpcPriority {
    /// Client-facing Set/Get traffic.
    #[default]
    Foreground,
    /// Background rebuild traffic (survivor reads, shard write-backs).
    Repair,
}

impl RpcPriority {
    /// Whether this is background repair traffic.
    pub fn is_repair(self) -> bool {
        matches!(self, RpcPriority::Repair)
    }
}

/// A shared cancellation flag for speculative (hedged) requests. The
/// issuer keeps a clone; once the race is decided it calls
/// [`CancelToken::cancel`], and any losing request whose server has not
/// started processing yet is dropped there — no worker time, no response
/// bytes. Models piggy-backed cancellation à la "The Tail at Scale".
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Rc<Cell<bool>>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the race as decided; in-flight requests carrying this token
    /// are dropped at the server if they have not been processed yet.
    pub fn cancel(&self) {
        self.0.set(true);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.get()
    }
}

/// What a store request asks of its server.
#[derive(Debug, Clone)]
pub enum Request {
    /// Store `payload` under `key`. When admitted, the server first
    /// deletes `stale` (another key) in the same request: the hybrid
    /// scheme's chunked rewrite retires the plain replica an earlier small
    /// value left on a replica holder, at no extra message.
    Set {
        /// The key to store under.
        key: Arc<str>,
        /// The value.
        payload: Payload,
        /// A key to delete first, if any.
        stale: Option<Arc<str>>,
    },
    /// Fetch `key`.
    Get {
        /// The key to fetch.
        key: Arc<str>,
    },
}

impl Request {
    /// Wire size of the request: header, key and any value.
    fn bytes(&self) -> usize {
        match self {
            Request::Set { key, payload, .. } => {
                REQUEST_OVERHEAD + key.len() + payload.len() as usize
            }
            Request::Get { key } => REQUEST_OVERHEAD + key.len(),
        }
    }
}

/// Reply to a store request.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Completion instant at the client.
    pub at: SimTime,
    /// Whether the server stored (Set) or had (Get) the item.
    pub hit: bool,
    /// The fetched value (Gets that hit).
    pub value: Option<Payload>,
}

/// The request leg of every server-bound message: sends `bytes` from
/// `client` to `server`, starting no earlier than `start`, and hands
/// `on_admitted` the delivery instant once the server admits it.
///
/// A dead server surfaces as [`RpcError::ServerDead`]. A request whose
/// `cancel` token was cancelled before it arrived is dropped there — no
/// processing, no response, and **`on_admitted` never fires**. A server at
/// its admission cap answers with a fast [`RpcError::Shed`] refusal
/// instead of queueing the work: no worker time is reserved and only the
/// status-only ack crosses back.
#[allow(clippy::too_many_arguments)] // an RPC is naturally wide: route + payload + continuation
pub fn request<F>(
    net: &Rc<RefCell<Network>>,
    server: &Rc<RefCell<KvServer>>,
    sim: &mut Simulation,
    start: SimTime,
    client: NodeId,
    bytes: usize,
    prio: RpcPriority,
    cancel: Option<CancelToken>,
    on_admitted: F,
) where
    F: FnOnce(&mut Simulation, Result<SimTime, RpcError>) + 'static,
{
    let server_node = server.borrow().node();
    let net2 = net.clone();
    let server = server.clone();
    Network::send(
        net,
        sim,
        start,
        client,
        server_node,
        bytes,
        move |sim, delivery| match delivery {
            Delivery::TargetDead(t) => on_admitted(sim, Err(RpcError::ServerDead(t))),
            Delivery::Delivered(at) => {
                if cancel.is_some_and(|c| c.is_cancelled()) {
                    return;
                }
                if server.borrow_mut().admit(at, prio) {
                    return on_admitted(sim, Ok(at));
                }
                // The refusal reserves no server worker time — that is
                // what makes shedding cheaper than serving — so its only
                // cost is the ack's wire crossing.
                Network::send(
                    &net2,
                    sim,
                    at,
                    server_node,
                    client,
                    ACK_BYTES,
                    move |sim, d| on_admitted(sim, Err(RpcError::Shed(d.at()))),
                );
            }
        },
    );
}

/// The response leg of every server-bound message: sends `bytes` from
/// `server` back to `client` at `at` and hands `on_arrival` the arrival
/// instant, or [`RpcError::ServerDead`] when the transfer fails.
pub fn respond<F>(
    net: &Rc<RefCell<Network>>,
    sim: &mut Simulation,
    at: SimTime,
    server: NodeId,
    client: NodeId,
    bytes: usize,
    on_arrival: F,
) where
    F: FnOnce(&mut Simulation, Result<SimTime, RpcError>) + 'static,
{
    Network::send(net, sim, at, server, client, bytes, move |sim, d| {
        let r = match d {
            Delivery::Delivered(at) => Ok(at),
            Delivery::TargetDead(t) => Err(RpcError::ServerDead(t)),
        };
        on_arrival(sim, r);
    });
}

/// Issues `req` from `client` to `server`, starting no earlier than
/// `start`: the [`request`] leg, the server's worker processing, and the
/// [`respond`] leg. `on_reply` fires when the response arrives back at the
/// client, or when the request fails; never for a request dropped by
/// `cancel`.
#[allow(clippy::too_many_arguments)] // an RPC is naturally wide: route + payload + continuation
pub fn call<F>(
    net: &Rc<RefCell<Network>>,
    server: &Rc<RefCell<KvServer>>,
    sim: &mut Simulation,
    start: SimTime,
    client: NodeId,
    req: Request,
    cancel: Option<CancelToken>,
    prio: RpcPriority,
    on_reply: F,
) where
    F: FnOnce(&mut Simulation, Result<Reply, RpcError>) + 'static,
{
    let bytes = req.bytes();
    let net2 = net.clone();
    let server2 = server.clone();
    let on_admitted = move |sim: &mut Simulation, admitted: Result<SimTime, RpcError>| {
        let at = match admitted {
            Ok(at) => at,
            Err(e) => return on_reply(sim, Err(e)),
        };
        let mut server = server2.borrow_mut();
        let (done, hit, value) = match req {
            Request::Set {
                key,
                payload,
                stale,
            } => {
                if let Some(stale) = &stale {
                    server.delete(stale);
                }
                let (done, outcome) = server.process_set(at, key, payload);
                (done, outcome.is_stored(), None)
            }
            Request::Get { key } => {
                let (done, value) = server.process_get(at, &key);
                (done, value.is_some(), value)
            }
        };
        let server_node = server.node();
        drop(server);
        let bytes = ACK_BYTES + value.as_ref().map_or(0, |v| v.len() as usize);
        respond(
            &net2,
            sim,
            done,
            server_node,
            client,
            bytes,
            move |sim, r| on_reply(sim, r.map(|at| Reply { at, hit, value })),
        );
    };
    request(
        net,
        server,
        sim,
        start,
        client,
        bytes,
        prio,
        cancel,
        on_admitted,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerCosts;
    use eckv_simnet::{ClusterProfile, TransportKind};

    fn set(key: &str, payload: Payload) -> Request {
        Request::Set {
            key: key.into(),
            payload,
            stale: None,
        }
    }

    fn get(key: &str) -> Request {
        Request::Get { key: key.into() }
    }

    fn setup() -> (Rc<RefCell<Network>>, Rc<RefCell<KvServer>>, Simulation) {
        let cfg = ClusterProfile::RiQdr.net_config(TransportKind::Rdma);
        let net = Network::new(2, cfg);
        let server = Rc::new(RefCell::new(KvServer::new(
            NodeId(0),
            4,
            1 << 30,
            ServerCosts::default(),
        )));
        (net, server, Simulation::new())
    }

    #[test]
    fn set_then_get_roundtrip_over_the_wire() {
        let (net, server, mut sim) = setup();
        let client = NodeId(1);
        let value = Payload::inline(vec![42u8; 4096]);
        let got: Rc<RefCell<Option<Reply>>> = Rc::new(RefCell::new(None));
        let got2 = got.clone();

        let net2 = net.clone();
        let server2 = server.clone();
        call(
            &net,
            &server,
            &mut sim,
            SimTime::ZERO,
            client,
            set("k", value.clone()),
            None,
            RpcPriority::Foreground,
            move |sim, reply| {
                let reply = reply.expect("server is alive");
                assert!(reply.hit, "the value is stored");
                call(
                    &net2,
                    &server2,
                    sim,
                    reply.at,
                    client,
                    get("k"),
                    None,
                    RpcPriority::Foreground,
                    move |_, reply| {
                        *got2.borrow_mut() = Some(reply.expect("alive"));
                    },
                );
            },
        );
        sim.run();
        let reply = got.borrow().clone().expect("get completed");
        assert_eq!(reply.value.unwrap(), value);
    }

    #[test]
    fn get_miss_returns_none() {
        let (net, server, mut sim) = setup();
        let seen = Rc::new(RefCell::new(false));
        let seen2 = seen.clone();
        call(
            &net,
            &server,
            &mut sim,
            SimTime::ZERO,
            NodeId(1),
            get("ghost"),
            None,
            RpcPriority::Foreground,
            move |_, reply| {
                let reply = reply.unwrap();
                assert!(!reply.hit);
                assert!(reply.value.is_none());
                *seen2.borrow_mut() = true;
            },
        );
        sim.run();
        assert!(*seen.borrow());
    }

    #[test]
    fn rpc_to_dead_server_errors() {
        let (net, server, mut sim) = setup();
        net.borrow_mut().kill(NodeId(0));
        let seen = Rc::new(RefCell::new(false));
        let seen2 = seen.clone();
        call(
            &net,
            &server,
            &mut sim,
            SimTime::ZERO,
            NodeId(1),
            set("k", Payload::synthetic(100, 0)),
            None,
            RpcPriority::Foreground,
            move |_, reply| {
                assert!(matches!(reply, Err(RpcError::ServerDead(_))));
                *seen2.borrow_mut() = true;
            },
        );
        sim.run();
        assert!(*seen.borrow());
    }

    #[test]
    fn cancelled_get_is_dropped_at_the_server() {
        let (net, server, mut sim) = setup();
        // Store a value directly so a get would otherwise hit.
        server
            .borrow_mut()
            .store_mut()
            .set("k".into(), Payload::synthetic(4096, 1));
        let fired = Rc::new(RefCell::new(false));
        let f2 = fired.clone();
        let token = CancelToken::new();
        call(
            &net,
            &server,
            &mut sim,
            SimTime::ZERO,
            NodeId(1),
            get("k"),
            Some(token.clone()),
            RpcPriority::Foreground,
            move |_, _| {
                *f2.borrow_mut() = true;
            },
        );
        // Cancel before the request can reach the server.
        token.cancel();
        assert!(token.is_cancelled());
        sim.run();
        assert!(!*fired.borrow(), "cancelled get must not call back");
        // Only the request crossed the wire; the response was never sent.
        assert_eq!(net.borrow().messages_sent(), 1);

        // An uncancelled token leaves the RPC untouched.
        let (net, server, mut sim) = setup();
        let fired = Rc::new(RefCell::new(false));
        let f2 = fired.clone();
        call(
            &net,
            &server,
            &mut sim,
            SimTime::ZERO,
            NodeId(1),
            get("k"),
            Some(CancelToken::new()),
            RpcPriority::Foreground,
            move |_, _| {
                *f2.borrow_mut() = true;
            },
        );
        sim.run();
        assert!(*fired.borrow());
    }

    #[test]
    fn admission_caps_shed_repair_before_foreground() {
        use crate::server::AdmissionCaps;
        use eckv_simnet::QueueCap;

        let (net, server, mut sim) = setup();
        server.borrow_mut().set_admission(Some(AdmissionCaps {
            foreground: QueueCap::depth(64),
            repair: QueueCap::depth(0),
        }));
        let busy_before = server.borrow().cpu_busy();

        // Repair traffic is refused outright at its zero-depth bound...
        let repair_reply: Rc<RefCell<Option<Result<Reply, RpcError>>>> =
            Rc::new(RefCell::new(None));
        let r2 = repair_reply.clone();
        call(
            &net,
            &server,
            &mut sim,
            SimTime::ZERO,
            NodeId(1),
            get("k"),
            None,
            RpcPriority::Repair,
            move |_, reply| *r2.borrow_mut() = Some(reply),
        );
        // ...while a foreground get on the same server is served.
        let fg_reply: Rc<RefCell<Option<Result<Reply, RpcError>>>> = Rc::new(RefCell::new(None));
        let f2 = fg_reply.clone();
        call(
            &net,
            &server,
            &mut sim,
            SimTime::ZERO,
            NodeId(1),
            get("k"),
            None,
            RpcPriority::Foreground,
            move |_, reply| *f2.borrow_mut() = Some(reply),
        );
        sim.run();
        let shed_at = match repair_reply.borrow().as_ref() {
            Some(Err(RpcError::Shed(t))) => *t,
            other => panic!("repair get must be shed, got {other:?}"),
        };
        assert!(
            shed_at > SimTime::ZERO,
            "the refusal still crosses the wire"
        );
        assert!(
            matches!(fg_reply.borrow().as_ref(), Some(Ok(_))),
            "foreground get must be admitted"
        );
        // The shed request reserved no worker time: only the admitted
        // foreground get's service shows up.
        let fg_service = ServerCosts::default().op_time(0);
        assert_eq!(server.borrow().cpu_busy(), busy_before + fg_service);
    }

    #[test]
    fn bigger_values_take_longer_on_the_wire() {
        fn set_latency(bytes: usize) -> u64 {
            let (net, server, mut sim) = setup();
            let done = Rc::new(RefCell::new(SimTime::ZERO));
            let d2 = done.clone();
            call(
                &net,
                &server,
                &mut sim,
                SimTime::ZERO,
                NodeId(1),
                set("k", Payload::synthetic(bytes as u64, 0)),
                None,
                RpcPriority::Foreground,
                move |_, reply| {
                    *d2.borrow_mut() = reply.unwrap().at;
                },
            );
            sim.run();
            let t = done.borrow().as_nanos();
            t
        }
        let small = set_latency(1024);
        let large = set_latency(1 << 20);
        assert!(large > small * 5, "small={small} large={large}");
    }
}
