//! Small shared pieces of the operation state machines.

use std::rc::Rc;
use std::sync::Arc;

use eckv_simnet::{Delivery, Network, PhaseBreakdown, SimDuration, SimTime, Simulation};
use eckv_store::rpc;

use crate::metrics::OpResult;
use crate::ops::OpKind;
use crate::world::World;

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
        let node = world.cluster.servers[self.srv].borrow().node();
        let issue_at = world.reserve_client_cpu(self.client, self.op_start, self.request);
        let world2 = world.clone();
        let fail = move |world: &World, sim: &mut Simulation, at: SimTime, done: DoneCb| {
            let outcome = OpOutcome {
                value_len,
                ..OpOutcome::failed(self.kind, at, self.request, true)
            };
            finish_op(world, sim, self.op_start, outcome, done);
        };
        Network::send(
            &world.cluster.net,
            sim,
            issue_at,
            client_node,
            node,
            bytes,
            move |sim, delivery| {
                let at = match delivery {
                    Delivery::TargetDead(t) => {
                        world2.mark_dead(self.client, self.srv);
                        fail(&world2, sim, t, done);
                        return;
                    }
                    Delivery::Delivered(at) => at,
                };
                // The coordinator's ingest bypasses `rpc`, so it applies
                // the admission bound itself.
                let admitted = world2.cluster.servers[self.srv]
                    .borrow_mut()
                    .admit(at, rpc::RpcPriority::Foreground);
                if admitted {
                    serve(sim, at, done);
                    return;
                }
                let world3 = world2.clone();
                Network::send(
                    &world2.cluster.net,
                    sim,
                    at,
                    node,
                    client_node,
                    rpc::ACK_BYTES,
                    move |sim, d| {
                        let at = d.at();
                        world3.note_shed(at, client_node, self.srv, rpc::RpcPriority::Foreground);
                        fail(&world3, sim, at, done);
                    },
                );
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
        let node = world.cluster.servers[self.srv].borrow().node();
        let world2 = world.clone();
        Network::send(
            &world.cluster.net,
            sim,
            at,
            node,
            world.cluster.client_node(self.client),
            bytes,
            move |sim, d| {
                let outcome = OpOutcome {
                    at: d.at(),
                    ok: outcome.ok && d.is_delivered(),
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
