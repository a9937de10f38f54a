//! A shared-bandwidth model of a Lustre parallel filesystem.

use eckv_simnet::{SimDuration, SimTime, WorkerPool};

/// Calibration of the parallel filesystem.
///
/// Lustre's object storage servers are shared by every client, so the
/// aggregate bandwidth is modelled as one FIFO resource per direction:
/// 48 concurrent map tasks writing see exactly the contention that makes
/// `Lustre-Direct` the paper's baseline loser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LustreConfig {
    /// Aggregate write bandwidth across all OSSes, gigabits/second.
    pub write_gbps: f64,
    /// Aggregate read bandwidth, gigabits/second.
    pub read_gbps: f64,
    /// Per-request latency (RPC + seek/commit overheads).
    pub op_latency: SimDuration,
}

impl LustreConfig {
    /// The RI-QDR cluster's small Lustre setup (1 TB over a handful of
    /// storage targets): ~2 GB/s aggregate writes, ~1.1 GB/s reads.
    /// Calibrated so the TestDFSIO baselines land in the regime the paper
    /// reports (Boldio 2.6x writes / 5.9x reads over Lustre-Direct).
    pub const RI_QDR: LustreConfig = LustreConfig {
        write_gbps: 16.0,
        read_gbps: 8.6,
        op_latency: SimDuration::from_micros(500),
    };
}

/// The shared filesystem: FIFO write and read pipes.
///
/// # Example
///
/// ```
/// use eckv_boldio::{Lustre, LustreConfig};
/// use eckv_simnet::SimTime;
///
/// let mut fs = Lustre::new(LustreConfig::RI_QDR);
/// let first = fs.write(SimTime::ZERO, 1 << 20);
/// let second = fs.write(SimTime::ZERO, 1 << 20);
/// assert!(second > first, "writers share the OSS bandwidth");
/// ```
#[derive(Debug)]
pub struct Lustre {
    cfg: LustreConfig,
    write_pipe: WorkerPool,
    read_pipe: WorkerPool,
    bytes_written: u64,
    bytes_read: u64,
}

impl Lustre {
    /// Creates an idle filesystem.
    pub fn new(cfg: LustreConfig) -> Self {
        Lustre {
            cfg,
            write_pipe: WorkerPool::new(1),
            read_pipe: WorkerPool::new(1),
            bytes_written: 0,
            bytes_read: 0,
        }
    }

    fn xfer(gbps: f64, bytes: u64) -> SimDuration {
        SimDuration::from_nanos((bytes as f64 * 8.0 / gbps).round() as u64)
    }

    /// Submits a write of `bytes` at `now`; returns its completion instant.
    pub fn write(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.bytes_written += bytes;
        self.write_pipe.prune(now);
        self.write_pipe
            .reserve(now, Self::xfer(self.cfg.write_gbps, bytes))
            + self.cfg.op_latency
    }

    /// Submits a read of `bytes` at `now`; returns its completion instant.
    pub fn read(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.bytes_read += bytes;
        self.read_pipe.prune(now);
        self.read_pipe
            .reserve(now, Self::xfer(self.cfg.read_gbps, bytes))
            + self.cfg.op_latency
    }

    /// Total bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Total bytes read so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// The calibration in effect.
    pub fn config(&self) -> LustreConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_serialize_on_aggregate_bandwidth() {
        let mut fs = Lustre::new(LustreConfig::RI_QDR);
        let t0 = SimTime::ZERO;
        let n = 10;
        let mut last = t0;
        for _ in 0..n {
            last = fs.write(t0, 1 << 20);
        }
        // n MiB at 2 GiB/s-ish: roughly n/2 ms of serialized transfer.
        let total = last.since(t0);
        let per_mb = Lustre::xfer(16.0, 1 << 20);
        assert!(total >= per_mb * (n as u64));
        assert_eq!(fs.bytes_written(), n as u64 * (1 << 20));
    }

    #[test]
    fn reads_and_writes_use_separate_pipes() {
        let mut fs = Lustre::new(LustreConfig::RI_QDR);
        let w = fs.write(SimTime::ZERO, 1 << 30);
        // A read issued now should not queue behind the big write.
        let r = fs.read(SimTime::ZERO, 1 << 20);
        assert!(r < w);
    }

    #[test]
    fn reads_are_slower_than_writes_per_calibration() {
        let cfg = LustreConfig::RI_QDR;
        assert!(cfg.read_gbps < cfg.write_gbps);
    }
}
