//! SSD overflow tier for "SSD-assisted" servers (the paper's substrate,
//! HiBD's SSD-assisted RDMA-Memcached, and the Boldio deployment's
//! PCIe-SSD storage nodes).
//!
//! RAM eviction victims spill to the SSD instead of being dropped; reads
//! that miss RAM fall through to the SSD at flash latency/bandwidth. Only
//! when the SSD itself overflows is cached data truly lost.

use eckv_simnet::{NodeId, SimDuration, SimTime, Trace, TraceEvent, WorkerPool};

use crate::key::StoreKey;
use crate::payload::Payload;
use crate::store_node::{StoreNode, StoreStats};

/// Performance/capacity envelope of one server's flash tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsdSpec {
    /// Usable capacity in bytes.
    pub capacity: u64,
    /// Sequential-ish read bandwidth, gigabits/second.
    pub read_gbps: f64,
    /// Write bandwidth, gigabits/second.
    pub write_gbps: f64,
    /// Per-operation latency (flash access + driver).
    pub op_latency: SimDuration,
}

impl SsdSpec {
    /// The RI-QDR storage nodes' 300 GB PCIe-SSD (~2.5 GB/s reads,
    /// ~1.2 GB/s writes, ~80 µs access).
    pub const RI_QDR_PCIE: SsdSpec = SsdSpec {
        capacity: 300 << 30,
        read_gbps: 20.0,
        write_gbps: 9.6,
        op_latency: SimDuration::from_micros(80),
    };

    /// Same device scaled to a given capacity (tests, small experiments).
    pub fn with_capacity(self, capacity: u64) -> SsdSpec {
        SsdSpec { capacity, ..self }
    }
}

/// One server's flash tier: an LRU store (reusing [`StoreNode`], flash has
/// no slab DRAM accounting subtleties we need beyond charge-by-chunk) plus
/// a FIFO device-bandwidth resource.
#[derive(Debug)]
pub struct SsdTier {
    spec: SsdSpec,
    store: StoreNode,
    device: WorkerPool,
    reads: u64,
    writes: u64,
    trace: Trace,
    node: NodeId,
}

impl SsdTier {
    /// Creates an empty tier.
    pub fn new(spec: SsdSpec) -> Self {
        SsdTier {
            spec,
            store: StoreNode::new(spec.capacity),
            device: WorkerPool::new(1),
            reads: 0,
            writes: 0,
            trace: Trace::disabled(),
            node: NodeId(0),
        }
    }

    /// Attaches a TraceBus handle; spills and flash reads emit
    /// [`TraceEvent::SsdSpill`]/[`TraceEvent::SsdRead`] attributed to
    /// `node` (the owning server).
    pub fn set_trace(&mut self, node: NodeId, trace: Trace) {
        self.node = node;
        self.trace = trace;
    }

    fn xfer(&self, gbps: f64, bytes: u64) -> SimDuration {
        self.spec.op_latency + SimDuration::from_nanos((bytes as f64 * 8.0 / gbps).round() as u64)
    }

    /// Spills a RAM eviction victim to flash; returns when the device
    /// write completes. Flash overflow evicts (permanently) in LRU order.
    pub fn spill(&mut self, now: SimTime, key: StoreKey, payload: Payload) -> SimTime {
        let bytes = payload.len();
        let service = self.xfer(self.spec.write_gbps, bytes);
        let done = self.device.reserve(now, service);
        self.store.set(key, payload);
        self.writes += 1;
        self.trace.emit(
            now,
            TraceEvent::SsdSpill {
                node: self.node,
                bytes,
            },
        );
        done
    }

    /// Reads `key` from flash, if present; returns the device completion
    /// instant alongside the value.
    pub fn read(&mut self, now: SimTime, key: &StoreKey) -> (SimTime, Option<Payload>) {
        match self.store.get_at(key, now) {
            Some(p) => {
                let bytes = p.len();
                let service = self.xfer(self.spec.read_gbps, bytes);
                self.device.prune(now);
                let done = self.device.reserve(now, service);
                self.reads += 1;
                self.trace.emit(
                    now,
                    TraceEvent::SsdRead {
                        node: self.node,
                        bytes,
                    },
                );
                (done, Some(p))
            }
            None => (now, None),
        }
    }

    /// Drops `key` from flash.
    pub fn delete(&mut self, key: &StoreKey) {
        self.store.delete(key);
    }

    /// Flash-tier storage statistics (evictions here are true data loss).
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Device operations so far: `(reads, writes)`.
    pub fn ops(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// The device envelope.
    pub fn spec(&self) -> SsdSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tier(capacity: u64) -> SsdTier {
        SsdTier::new(SsdSpec::RI_QDR_PCIE.with_capacity(capacity))
    }

    #[test]
    fn spill_then_read_roundtrips() {
        let mut t = tier(1 << 30);
        let done = t.spill(SimTime::ZERO, "k".into(), Payload::synthetic(1 << 20, 7));
        assert!(done.since(SimTime::ZERO) >= SimDuration::from_micros(80));
        let (rdone, v) = t.read(done, &"k".into());
        assert_eq!(v.unwrap().digest(), Payload::synthetic(1 << 20, 7).digest());
        assert!(rdone > done);
        assert_eq!(t.ops(), (1, 1));
    }

    #[test]
    fn reads_are_faster_than_writes_for_equal_sizes() {
        let mut t = tier(1 << 30);
        let w = t.spill(SimTime::ZERO, "a".into(), Payload::synthetic(8 << 20, 1));
        let (r, _) = t.read(w, &"a".into());
        assert!(r.since(w) < w.since(SimTime::ZERO));
    }

    #[test]
    fn device_bandwidth_is_shared() {
        let mut t = tier(1 << 30);
        let first = t.spill(SimTime::ZERO, "a".into(), Payload::synthetic(4 << 20, 1));
        let second = t.spill(SimTime::ZERO, "b".into(), Payload::synthetic(4 << 20, 2));
        assert!(
            second.since(SimTime::ZERO)
                >= first.since(SimTime::ZERO) * 2 - SimDuration::from_micros(80)
        );
    }

    #[test]
    fn flash_overflow_is_true_loss() {
        let mut t = tier(4 << 20);
        for i in 0..8 {
            t.spill(
                SimTime::ZERO,
                format!("k{i}").as_str().into(),
                Payload::synthetic(1 << 20, i),
            );
        }
        assert!(t.stats().evictions > 0);
        let (_, gone) = t.read(SimTime::ZERO, &"k0".into());
        assert!(gone.is_none(), "oldest spill must have been dropped");
    }
}
