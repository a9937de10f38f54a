//! Small shared pieces of the operation state machines.

use std::rc::Rc;
use std::sync::Arc;

use eckv_simnet::{PhaseBreakdown, SimDuration, SimTime, Simulation};
use eckv_store::rpc;

use crate::ops::OpKind;
use crate::world::World;

/// Result of one attempt of an operation, as observed at the client: what
/// a path hands the driver, which retries it or reports its completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OpResult {
    /// Set or Get.
    pub kind: OpKind,
    /// Completion instant.
    pub at: SimTime,
    /// Client-observed latency of this attempt.
    pub latency: SimDuration,
    /// Request / wait-response / compute phase split (Figure 9).
    pub breakdown: PhaseBreakdown,
    /// Whether the operation succeeded (reachable servers, value present).
    pub ok: bool,
    /// Whether the returned data passed integrity validation (always true
    /// when validation is disabled or for Sets).
    pub integrity_ok: bool,
    /// Whether a failed operation is worth retrying: it failed because the
    /// client discovered a dead server, and its failure view has been
    /// updated, so a retry may route around the failure.
    pub retryable: bool,
    /// Whether a Get was served degraded: at least one data chunk was
    /// missing and the value was reconstructed from parity (always false
    /// for Sets and for replicated fast-path reads).
    pub degraded: bool,
    /// Value size in bytes.
    pub value_len: u64,
}

/// Completion callback handed to an operation path.
pub(crate) type DoneCb = Box<dyn FnOnce(&mut Simulation, OpResult)>;

/// Everything a path decides about a finished operation; [`finish_op`]
/// turns it into the [`OpResult`] handed to the driver. One function for
/// both Set and Get keeps `op_completed`, [`PhaseBreakdown`], and
/// failed-byte accounting structurally identical across paths.
pub(crate) struct OpOutcome {
    /// Set or Get.
    pub kind: OpKind,
    /// Completion instant.
    pub at: SimTime,
    /// Request-phase cost (posting/liveness overhead).
    pub request: SimDuration,
    /// Compute-phase cost (encode/decode).
    pub compute: SimDuration,
    /// Whether the operation succeeded.
    pub ok: bool,
    /// Whether returned data matched what was written (Gets).
    pub integrity_ok: bool,
    /// Whether a retry with the updated failure view could succeed.
    pub retryable: bool,
    /// Whether a Get was served degraded — at least one data chunk was
    /// unavailable and had to be reconstructed from parity.
    pub degraded: bool,
    /// Value size in bytes.
    pub value_len: u64,
    /// `(key, digest)` to record for read validation when a Set succeeds.
    pub note_written: Option<(Arc<str>, u64)>,
}

impl OpOutcome {
    /// A failed operation that computed, returned and wrote nothing.
    pub fn failed(kind: OpKind, at: SimTime, request: SimDuration, retryable: bool) -> Self {
        OpOutcome {
            kind,
            at,
            request,
            compute: SimDuration::ZERO,
            ok: false,
            integrity_ok: true,
            retryable,
            degraded: false,
            value_len: 0,
            note_written: None,
        }
    }
}

/// The chunk holder coordinating a server-site operation for a client:
/// the Era-SE encoder of a SET, the Era-SD aggregator of a GET. Both legs
/// of the operation's one client hop live here.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Coordinator {
    /// Server index of the coordinator.
    pub srv: usize,
    /// The client the operation belongs to.
    pub client: usize,
    /// Set or Get.
    pub kind: OpKind,
    /// Admission instant at the client.
    pub op_start: SimTime,
    /// Request-phase cost the client pays before the hop: one post, plus
    /// the liveness check on a GET.
    pub request: SimDuration,
}

impl Coordinator {
    /// The request leg: the client pays [`Coordinator::request`] and sends
    /// `bytes` to the coordinator. A dead coordinator updates the client's
    /// failure view and fails the op retryably; a coordinator at its
    /// admission cap refuses with a fast ack before reserving any worker
    /// time, and the op fails retryably too. A failure books `value_len`
    /// bytes. Otherwise `serve` runs at the delivery instant.
    pub fn request(
        self,
        world: &Rc<World>,
        sim: &mut Simulation,
        bytes: usize,
        value_len: u64,
        done: DoneCb,
        serve: impl FnOnce(&mut Simulation, SimTime, DoneCb) + 'static,
    ) {
        let client_node = world.cluster.client_node(self.client);
        let issue_at = world.reserve_client_cpu(self.client, self.op_start, self.request);
        let world2 = world.clone();
        rpc::request(
            &world.cluster.net,
            &world.cluster.servers[self.srv],
            sim,
            issue_at,
            client_node,
            bytes,
            rpc::RpcPriority::Foreground,
            None,
            move |sim, admitted| match admitted {
                Ok(at) => serve(sim, at, done),
                Err(err) => {
                    let at = world2.note_rpc_error(
                        err,
                        Some(self.client),
                        client_node,
                        self.srv,
                        rpc::RpcPriority::Foreground,
                    );
                    let outcome = OpOutcome {
                        value_len,
                        ..OpOutcome::failed(self.kind, at, self.request, true)
                    };
                    finish_op(&world2, sim, self.op_start, outcome, done);
                }
            },
        );
    }

    /// The response leg: sends `bytes` back to the client at `at`, then
    /// finishes the op with `outcome` as of the reply's arrival.
    pub fn respond(
        self,
        world: &Rc<World>,
        sim: &mut Simulation,
        at: SimTime,
        bytes: usize,
        outcome: OpOutcome,
        done: DoneCb,
    ) {
        let world2 = world.clone();
        rpc::respond(
            &world.cluster.net,
            sim,
            at,
            world.cluster.server_node(self.srv),
            world.cluster.client_node(self.client),
            bytes,
            move |sim, arrival| {
                let outcome = OpOutcome {
                    at: arrival.unwrap_or_else(rpc::RpcError::at),
                    ok: outcome.ok && arrival.is_ok(),
                    ..outcome
                };
                finish_op(&world2, sim, self.op_start, outcome, done);
            },
        );
    }
}

/// The one completion path: books a successful write for validation,
/// derives the phase breakdown, and invokes the driver's completion.
pub(crate) fn finish_op(
    world: &World,
    sim: &mut Simulation,
    op_start: SimTime,
    outcome: OpOutcome,
    done: DoneCb,
) {
    if outcome.ok {
        if let Some((key, digest)) = outcome.note_written {
            world.note_written(key, outcome.value_len, digest);
        }
    }
    let latency = outcome.at.since(op_start);
    let breakdown = PhaseBreakdown {
        request: outcome.request,
        compute: outcome.compute,
        wait_response: latency
            .saturating_sub(outcome.request)
            .saturating_sub(outcome.compute),
    };
    done(
        sim,
        OpResult {
            kind: outcome.kind,
            at: outcome.at,
            latency,
            breakdown,
            ok: outcome.ok,
            integrity_ok: outcome.integrity_ok,
            retryable: outcome.retryable && !outcome.ok,
            degraded: outcome.degraded,
            value_len: outcome.value_len,
        },
    );
}
