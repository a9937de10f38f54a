//! The server process model: storage plus worker-pool processing costs.

use std::sync::Arc;

use eckv_simnet::{
    NodeId, QueueCap, SimDuration, SimTime, SpanPhase, Trace, TraceEvent, WorkerPool,
};

use crate::payload::Payload;
use crate::rpc::RpcPriority;
use crate::ssd::{SsdSpec, SsdTier};
use crate::store_node::{SetOutcome, StoreNode, StoreStats};

/// Per-class admission bounds on one server's worker queue.
///
/// [`KvServer::admit`] passes the bound of the request's class to
/// [`WorkerPool::admits_within`]: client requests meet the foreground cap,
/// background rebuild traffic the stricter repair cap, so under rising
/// load repair is shed before any client request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionCaps {
    /// Bound applied to foreground client traffic.
    pub foreground: QueueCap,
    /// Stricter bound applied to background repair traffic.
    pub repair: QueueCap,
}

/// Software costs of one request on a server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerCosts {
    /// Fixed per-request cost: dispatch, hash lookup, item bookkeeping.
    pub base_op: SimDuration,
    /// Throughput of copying the value into/out of cache memory, GB/s.
    pub memcpy_gbps: f64,
}

impl Default for ServerCosts {
    fn default() -> Self {
        ServerCosts {
            base_op: SimDuration::from_nanos(1_500),
            memcpy_gbps: 5.0,
        }
    }
}

impl ServerCosts {
    /// Processing time for a request touching `bytes` of value data.
    pub fn op_time(&self, bytes: u64) -> SimDuration {
        self.base_op + SimDuration::from_nanos((bytes as f64 / self.memcpy_gbps).round() as u64)
    }
}

/// A simulated Memcached server: a [`StoreNode`] behind a pool of worker
/// threads.
///
/// Requests are served FCFS by the earliest-free worker; the returned
/// completion instant is when the response can be handed to the NIC.
/// Multi-threaded scaling (the paper's "benefits of parallel executing
/// server-side workers") emerges from the pool width.
#[derive(Debug)]
pub struct KvServer {
    node: NodeId,
    store: StoreNode,
    ssd: Option<SsdTier>,
    cpu: WorkerPool,
    costs: ServerCosts,
    trace: Trace,
    admission: Option<AdmissionCaps>,
}

impl KvServer {
    /// Creates a server bound to simulated node `node`.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(node: NodeId, workers: usize, capacity_bytes: u64, costs: ServerCosts) -> Self {
        KvServer {
            node,
            store: StoreNode::new(capacity_bytes),
            ssd: None,
            cpu: WorkerPool::new(workers),
            costs,
            trace: Trace::disabled(),
            admission: None,
        }
    }

    /// Installs (or clears) per-class admission bounds on this server's
    /// worker queue. With `None` (the default) every request is admitted
    /// unconditionally and [`KvServer::admit`] has zero side effects, so
    /// the event trace is unchanged relative to an admission-free build.
    pub fn set_admission(&mut self, caps: Option<AdmissionCaps>) {
        self.admission = caps;
    }

    /// Admission decision for a request arriving at `now`: `true` admits,
    /// `false` sheds. Refusals emit a `queue_capped` trace event (which
    /// the bus counts as `shed_fg`/`shed_repair`); they reserve no worker
    /// time, which is what makes a shed reply fast.
    pub fn admit(&mut self, now: SimTime, prio: RpcPriority) -> bool {
        // Every server-bound request passes through here at its delivery
        // instant — a real simulation clock, unlike the future-dated issue
        // times fan-out paths book CPU work at — so this is where the
        // worker pool's backlog ledger is safely compacted and its
        // high-water mark sampled, admission caps or not.
        self.cpu.prune(now);
        let Some(caps) = self.admission else {
            return true;
        };
        let repair = prio.is_repair();
        let cap = if repair { caps.repair } else { caps.foreground };
        let admitted = self.cpu.admits_within(now, &cap);
        if !admitted && self.trace.is_enabled() {
            self.trace.emit(
                now,
                TraceEvent::QueueCapped {
                    node: self.node,
                    depth: self.cpu.queue_depth(now),
                    repair,
                },
            );
        }
        admitted
    }

    /// Attaches a TraceBus handle: admission refusals emit events, the
    /// flash tier (if any) emits spill/read events, and worker
    /// reservations record spans.
    pub fn set_trace(&mut self, trace: Trace) {
        if let Some(ssd) = &mut self.ssd {
            ssd.set_trace(self.node, trace.clone());
        }
        self.trace = trace;
    }

    /// Records the queue-wait / service split of one worker reservation on
    /// the ambient op's span tree.
    fn record_cpu_spans(&self, now: SimTime, start: SimTime, done: SimTime) {
        if self.trace.spans_enabled() {
            self.trace
                .span_record(SpanPhase::SrvCpuQueue, self.node, now, start);
            self.trace
                .span_record(SpanPhase::SrvCpu, self.node, start, done);
        }
    }

    /// Attaches an SSD overflow tier (the paper's "SSD-assisted" servers):
    /// RAM eviction victims spill to flash, and reads fall through to it.
    pub fn with_ssd(mut self, spec: SsdSpec) -> Self {
        self.ssd = Some(SsdTier::new(spec));
        self
    }

    /// The simulated node this server runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Processes a Set arriving at `now`; returns the completion instant
    /// and the storage outcome.
    pub fn process_set(
        &mut self,
        now: SimTime,
        key: Arc<str>,
        payload: Payload,
    ) -> (SimTime, SetOutcome) {
        let service = self.costs.op_time(payload.len());
        let (svc_start, done) = self.cpu.reserve_timed(now, service);
        let outcome = self.store_set(done, key, payload);
        self.record_cpu_spans(now, svc_start, done);
        (done, outcome)
    }

    /// The storage half of [`KvServer::process_set`], with no worker
    /// time: stores `payload` in RAM at `now`. With a flash tier, RAM
    /// eviction victims overflow to it; the flash writes are asynchronous
    /// write-behind and delay nothing.
    pub fn store_set(&mut self, now: SimTime, key: Arc<str>, payload: Payload) -> SetOutcome {
        match &mut self.ssd {
            Some(ssd) => self.store.set_spilling(key, payload, None, &mut |k, p| {
                ssd.spill(now, k, p);
            }),
            None => self.store.set(key, payload),
        }
    }

    /// Removes `key` from RAM and flash. Costs no worker time: it only
    /// ever rides on another request.
    pub fn delete(&mut self, key: &str) {
        self.store.delete(key);
        if let Some(ssd) = &mut self.ssd {
            ssd.delete(key);
        }
    }

    /// Processes a Get arriving at `now`; returns the completion instant
    /// and the value, if present.
    pub fn process_get(&mut self, now: SimTime, key: &str) -> (SimTime, Option<Payload>) {
        let (flash_done, value) = self.store_get(now, key);
        let bytes = value.as_ref().map_or(0, Payload::len);
        let service = self.costs.op_time(bytes);
        let (svc_start, cpu_done) = self.cpu.reserve_timed(now, service);
        let done = cpu_done.max(flash_done);
        self.record_cpu_spans(now, svc_start, cpu_done);
        if flash_done > now && self.trace.spans_enabled() {
            // The flash read overlaps CPU service; the critical-path walk
            // picks whichever ends later.
            self.trace
                .span_record(SpanPhase::SsdRead, self.node, now, flash_done);
        }
        (done, value)
    }

    /// The storage half of [`KvServer::process_get`], with no worker
    /// time: looks `key` up in RAM at `now`, then in the flash tier, if
    /// any. Returns when the flash read completes (`now` when it was not
    /// needed) and the value, if present.
    fn store_get(&mut self, now: SimTime, key: &str) -> (SimTime, Option<Payload>) {
        if let Some(value) = self.store.get_at(key, now) {
            return (now, Some(value));
        }
        match &mut self.ssd {
            Some(ssd) => ssd.read(now, key),
            None => (now, None),
        }
    }

    /// Reserves `service` time on this server's workers without touching
    /// storage — used by server-side ARPE work (encode/decode offload).
    pub fn reserve_cpu(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let (svc_start, done) = self.cpu.reserve_timed(now, service);
        self.record_cpu_spans(now, svc_start, done);
        done
    }

    /// Storage statistics.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Direct storage access (tests and cluster tooling).
    pub fn store_mut(&mut self) -> &mut StoreNode {
        &mut self.store
    }

    /// Direct storage access, read-only.
    pub fn store(&self) -> &StoreNode {
        &self.store
    }

    /// The server's cost configuration.
    pub fn costs(&self) -> ServerCosts {
        self.costs
    }

    /// Worker-pool utilization accumulated so far.
    pub fn cpu_busy(&self) -> SimDuration {
        self.cpu.busy_time()
    }

    /// Highest worker-queue depth this server ever observed (sticky
    /// high-water mark; overload experiments read it per node).
    pub fn queue_hwm(&self) -> u64 {
        self.cpu.queue_hwm()
    }

    /// Flash-tier statistics, if the server is SSD-assisted.
    pub fn ssd_stats(&self) -> Option<StoreStats> {
        self.ssd.as_ref().map(SsdTier::stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(workers: usize) -> KvServer {
        KvServer::new(NodeId(0), workers, 1 << 30, ServerCosts::default())
    }

    #[test]
    fn set_then_get_roundtrips() {
        let mut s = server(4);
        let t0 = SimTime::ZERO;
        let (done, out) = s.process_set(t0, "k".into(), Payload::synthetic(1024, 7));
        assert_eq!(out, SetOutcome::Stored);
        assert!(done > t0);
        let (done2, v) = s.process_get(done, "k");
        assert!(done2 > done);
        assert_eq!(v.unwrap().digest(), Payload::synthetic(1024, 7).digest());
    }

    #[test]
    fn larger_values_cost_more() {
        let mut s = server(1);
        let (d_small, _) = s.process_set(SimTime::ZERO, "a".into(), Payload::synthetic(1024, 0));
        let mut s2 = server(1);
        let (d_large, _) =
            s2.process_set(SimTime::ZERO, "b".into(), Payload::synthetic(1 << 20, 0));
        assert!(d_large.since(SimTime::ZERO) > d_small.since(SimTime::ZERO) * 10);
    }

    #[test]
    fn worker_pool_parallelism_shows() {
        // 8 simultaneous requests on 8 workers finish together; on 1 worker
        // they serialize.
        let t0 = SimTime::ZERO;
        let mut wide = server(8);
        let mut narrow = server(1);
        let mut wide_last = t0;
        let mut narrow_last = t0;
        for i in 0..8 {
            let key: Arc<str> = format!("k{i}").into();
            let (d, _) = wide.process_set(t0, key.clone(), Payload::synthetic(64 * 1024, 0));
            wide_last = wide_last.max(d);
            let (d, _) = narrow.process_set(t0, key, Payload::synthetic(64 * 1024, 0));
            narrow_last = narrow_last.max(d);
        }
        let wide_span = wide_last.since(t0);
        let narrow_span = narrow_last.since(t0);
        assert!(
            narrow_span.as_nanos() >= wide_span.as_nanos() * 7,
            "{wide_span} vs {narrow_span}"
        );
    }

    #[test]
    fn delete_reaches_a_value_spilled_to_flash() {
        let mut s = KvServer::new(NodeId(0), 1, 64 << 10, ServerCosts::default())
            .with_ssd(SsdSpec::RI_QDR_PCIE);
        s.process_set(SimTime::ZERO, "old".into(), Payload::synthetic(40 << 10, 1));
        // The second value evicts the first from RAM into flash.
        s.process_set(SimTime::ZERO, "new".into(), Payload::synthetic(40 << 10, 2));
        assert!(s.process_get(SimTime::ZERO, "old").1.is_some());
        s.delete("old");
        assert!(s.process_get(SimTime::ZERO, "old").1.is_none());
    }

    #[test]
    fn get_miss_is_cheap_and_counted() {
        let mut s = server(2);
        let (done, v) = s.process_get(SimTime::ZERO, "ghost");
        assert!(v.is_none());
        assert_eq!(done.since(SimTime::ZERO), ServerCosts::default().base_op);
        assert_eq!(s.stats().misses, 1);
    }
}
