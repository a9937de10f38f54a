//! Experiment-wide metrics: the fold of the engine's event stream.

use eckv_simnet::{Histogram, OpClass, PhaseBreakdown, SimDuration, SimTime, Summary, TraceEvent};

/// Aggregated metrics for one experiment run. Every field but the four
/// repair-engine tallies (`repair_bytes`, `migrated_bytes`,
/// `repair_queue_depth_hwm`, `fg_ops_during_repair`) is the fold of the
/// events the engine reports, so a traced run's `Metrics` and its event
/// stream agree by construction.
///
/// # Example
///
/// ```
/// use eckv_core::Metrics;
///
/// let m = Metrics::default();
/// assert_eq!(m.set_count, 0);
/// assert_eq!(m.throughput_ops_per_sec(), 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Set latency distribution.
    pub set_latency: Histogram,
    /// Get latency distribution.
    pub get_latency: Histogram,
    /// Summed Set phase breakdown (divide by `set_count` for the average).
    pub set_breakdown: PhaseBreakdown,
    /// Summed Get phase breakdown.
    pub get_breakdown: PhaseBreakdown,
    /// Latency distribution of healthy (fast-path) Gets only.
    pub get_healthy_latency: Histogram,
    /// Latency distribution of degraded (parity-reconstruction) Gets only.
    pub get_degraded_latency: Histogram,
    /// Summed phase breakdown of healthy Gets (divide by
    /// `get_count - get_degraded_count`).
    pub get_healthy_breakdown: PhaseBreakdown,
    /// Summed phase breakdown of degraded Gets (divide by
    /// `get_degraded_count`). Folding these into one average hides the
    /// decode-path cost the paper's SD/CD comparison is about.
    pub get_degraded_breakdown: PhaseBreakdown,
    /// Completed Sets.
    pub set_count: u64,
    /// Completed Gets.
    pub get_count: u64,
    /// Completed Gets that were served degraded.
    pub get_degraded_count: u64,
    /// Operations that failed (unreachable servers, missing values).
    pub errors: u64,
    /// Reads whose data failed integrity validation.
    pub integrity_errors: u64,
    /// Transparent retries after a dead-server discovery (the retried
    /// attempt is not otherwise recorded).
    pub retries: u64,
    /// Shard requests refused by server admission control (bounded queue
    /// full). Counts shed RPCs, not shed operations: one fanned-out
    /// operation can observe several refusals.
    pub sheds: u64,
    /// The subset of `sheds` refused at the stricter repair-traffic bound.
    pub sheds_repair: u64,
    /// Speculative (hedged) chunk-fetch batches issued because a read's
    /// first wave looked slow.
    pub hedges_fired: u64,
    /// Hedges whose speculative chunk ended up among the `k` used for the
    /// read — the hedge actually rescued the tail.
    pub hedges_won: u64,
    /// Operations that completed (successfully or not) after their
    /// per-operation deadline had already passed.
    pub deadline_misses: u64,
    /// Bytes moved by the online repair engine (survivor reads plus
    /// replacement writes) while this metrics window was active.
    pub repair_bytes: u64,
    /// Keys a degraded read promoted to the front of the repair queue.
    pub repair_promotions: u64,
    /// High-water mark of the repair queue depth.
    pub repair_queue_depth_hwm: u64,
    /// Foreground operations that completed while an online repair was in
    /// progress (the interference population).
    pub fg_ops_during_repair: u64,
    /// Vshards reassigned by membership changes (joins and drains) while
    /// this metrics window was active.
    pub vshards_moved: u64,
    /// Bytes written to new holders by repair-driven migration (the data
    /// that actually relocated; survivor reads land in `repair_bytes`).
    pub migrated_bytes: u64,
    /// Bytes written by successful Sets (values, not counting redundancy).
    pub bytes_written: u64,
    /// Bytes read by successful Gets.
    pub bytes_read: u64,
    /// Value bytes attached to failed operations (these used to be
    /// miscounted into `bytes_written`/`bytes_read`, inflating goodput).
    pub failed_bytes: u64,
    /// First operation admission time.
    pub started_at: Option<SimTime>,
    /// Last operation completion time.
    pub finished_at: SimTime,
}

impl Metrics {
    /// Folds one engine event in. Op admissions and completions drive the
    /// latency, breakdown, count, byte and span fields; retries, deadline
    /// misses, hedges, sheds, repair promotions and vshard moves are
    /// counted; every other event is ignored.
    pub(crate) fn observe(&mut self, at: SimTime, event: &TraceEvent) {
        match *event {
            TraceEvent::OpAdmitted { .. } => {
                self.started_at.get_or_insert(at);
            }
            TraceEvent::OpCompleted {
                op,
                latency,
                ok,
                value_len,
                degraded,
                integrity_ok,
                breakdown,
                ..
            } => {
                match op {
                    OpClass::Set => {
                        self.set_latency.record(latency);
                        self.set_breakdown += breakdown;
                        self.set_count += 1;
                        if ok {
                            self.bytes_written += value_len;
                        }
                    }
                    OpClass::Get => {
                        self.get_latency.record(latency);
                        self.get_breakdown += breakdown;
                        self.get_count += 1;
                        if degraded {
                            self.get_degraded_latency.record(latency);
                            self.get_degraded_breakdown += breakdown;
                            self.get_degraded_count += 1;
                        } else {
                            self.get_healthy_latency.record(latency);
                            self.get_healthy_breakdown += breakdown;
                        }
                        if ok {
                            self.bytes_read += value_len;
                        }
                    }
                }
                if !ok {
                    self.errors += 1;
                    self.failed_bytes += value_len;
                }
                if !integrity_ok {
                    self.integrity_errors += 1;
                }
                self.finished_at = self.finished_at.max(at);
            }
            TraceEvent::Retry { .. } => self.retries += 1,
            TraceEvent::DeadlineExceeded { .. } => self.deadline_misses += 1,
            TraceEvent::HedgeFired { .. } => self.hedges_fired += 1,
            TraceEvent::HedgeWon { .. } => self.hedges_won += 1,
            TraceEvent::OpShed { repair, .. } => {
                self.sheds += 1;
                self.sheds_repair += u64::from(repair);
            }
            TraceEvent::RepairKeyPromoted { .. } => self.repair_promotions += 1,
            TraceEvent::VshardReassigned { .. } => self.vshards_moved += 1,
            _ => {}
        }
    }

    /// Total completed operations.
    pub fn ops(&self) -> u64 {
        self.set_count + self.get_count
    }

    /// Fraction of shard requests refused by admission control, out of
    /// all completed operations plus refusals. Zero below the knee; rises
    /// with offered load once servers saturate.
    pub fn shed_rate(&self) -> f64 {
        let denom = self.ops() + self.sheds;
        if denom == 0 {
            0.0
        } else {
            self.sheds as f64 / denom as f64
        }
    }

    /// Wall-clock (virtual) duration of the run.
    pub fn elapsed(&self) -> SimDuration {
        match self.started_at {
            Some(s) => self.finished_at.since(s),
            None => SimDuration::ZERO,
        }
    }

    /// Aggregate throughput over the run.
    pub fn throughput_ops_per_sec(&self) -> f64 {
        let secs = self.elapsed().as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops() as f64 / secs
        }
    }

    /// Average Set breakdown per operation.
    pub fn avg_set_breakdown(&self) -> PhaseBreakdown {
        if self.set_count == 0 {
            PhaseBreakdown::ZERO
        } else {
            self.set_breakdown.averaged(self.set_count)
        }
    }

    /// Average Get breakdown per operation.
    pub fn avg_get_breakdown(&self) -> PhaseBreakdown {
        if self.get_count == 0 {
            PhaseBreakdown::ZERO
        } else {
            self.get_breakdown.averaged(self.get_count)
        }
    }

    /// Completed Gets served from the fast path (no reconstruction).
    pub fn get_healthy_count(&self) -> u64 {
        self.get_count - self.get_degraded_count
    }

    /// Average phase breakdown of healthy Gets only.
    pub fn avg_get_healthy_breakdown(&self) -> PhaseBreakdown {
        match self.get_healthy_count() {
            0 => PhaseBreakdown::ZERO,
            n => self.get_healthy_breakdown.averaged(n),
        }
    }

    /// Average phase breakdown of degraded Gets only.
    pub fn avg_get_degraded_breakdown(&self) -> PhaseBreakdown {
        match self.get_degraded_count {
            0 => PhaseBreakdown::ZERO,
            n => self.get_degraded_breakdown.averaged(n),
        }
    }

    /// Healthy-Get latency digest.
    pub fn get_healthy_summary(&self) -> Summary {
        self.get_healthy_latency.summary()
    }

    /// Degraded-Get latency digest.
    pub fn get_degraded_summary(&self) -> Summary {
        self.get_degraded_latency.summary()
    }

    /// Set latency digest.
    pub fn set_summary(&self) -> Summary {
        self.set_latency.summary()
    }

    /// Get latency digest.
    pub fn get_summary(&self) -> Summary {
        self.get_latency.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eckv_simnet::NodeId;

    /// One completion of a 1,024-byte value.
    struct Done {
        op: OpClass,
        at: SimTime,
        latency: SimDuration,
        ok: bool,
        integrity_ok: bool,
        degraded: bool,
    }

    /// A successful `op`, `lat_us` long, finishing at `at_us`.
    fn result(op: OpClass, at_us: u64, lat_us: u64) -> Done {
        Done {
            op,
            at: SimTime::from_nanos(at_us * 1000),
            latency: SimDuration::from_micros(lat_us),
            ok: true,
            integrity_ok: true,
            degraded: false,
        }
    }

    /// Folds `d`'s `op_completed` event into `m`.
    fn complete(m: &mut Metrics, d: &Done) {
        let breakdown = PhaseBreakdown {
            request: SimDuration::from_micros(1),
            wait_response: d.latency.saturating_sub(SimDuration::from_micros(1)),
            compute: SimDuration::ZERO,
        };
        let event = TraceEvent::OpCompleted {
            client: NodeId(0),
            op: d.op,
            latency: d.latency,
            ok: d.ok,
            value_len: 1024,
            degraded: d.degraded,
            integrity_ok: d.integrity_ok,
            breakdown,
        };
        m.observe(d.at, &event);
    }

    /// Folds an `op_admitted` event at `at` into `m`.
    fn admit(m: &mut Metrics, at: SimTime) {
        let event = TraceEvent::OpAdmitted {
            client: NodeId(0),
            op: OpClass::Set,
        };
        m.observe(at, &event);
    }

    #[test]
    fn records_split_by_kind() {
        let mut m = Metrics::default();
        admit(&mut m, SimTime::ZERO);
        complete(&mut m, &result(OpClass::Set, 10, 10));
        complete(&mut m, &result(OpClass::Get, 20, 5));
        assert_eq!(m.set_count, 1);
        assert_eq!(m.get_count, 1);
        assert_eq!(m.ops(), 2);
        assert_eq!(m.bytes_written, 1024);
        assert_eq!(m.bytes_read, 1024);
        assert_eq!(m.errors, 0);
    }

    #[test]
    fn throughput_uses_span() {
        let mut m = Metrics::default();
        admit(&mut m, SimTime::ZERO);
        for i in 1..=100u64 {
            complete(&mut m, &result(OpClass::Set, i * 1000, 10));
        }
        // 100 ops over 100 ms => 1000 ops/s.
        let tput = m.throughput_ops_per_sec();
        assert!((tput - 1000.0).abs() < 1.0, "tput={tput}");
    }

    #[test]
    fn degraded_gets_split_into_their_own_cohort() {
        let mut m = Metrics::default();
        complete(&mut m, &result(OpClass::Get, 1, 5));
        let mut d = result(OpClass::Get, 2, 50);
        d.degraded = true;
        complete(&mut m, &d);
        assert_eq!(m.get_count, 2);
        assert_eq!(m.get_degraded_count, 1);
        assert_eq!(m.get_healthy_count(), 1);
        assert_eq!(m.get_healthy_summary().count, 1);
        assert_eq!(m.get_degraded_summary().count, 1);
        assert!(m.get_degraded_summary().mean > m.get_healthy_summary().mean);
        // Combined view is untouched: both cohorts still land in it.
        assert_eq!(m.get_summary().count, 2);
        assert_eq!(
            m.avg_get_healthy_breakdown().request,
            SimDuration::from_micros(1)
        );
        assert_eq!(
            m.avg_get_degraded_breakdown().wait_response,
            SimDuration::from_micros(49)
        );
    }

    #[test]
    fn errors_and_integrity_tracked() {
        let mut m = Metrics::default();
        let mut r = result(OpClass::Get, 1, 1);
        r.ok = false;
        r.integrity_ok = false;
        complete(&mut m, &r);
        assert_eq!(m.errors, 1);
        assert_eq!(m.integrity_errors, 1);
    }

    #[test]
    fn failed_ops_do_not_inflate_goodput_bytes() {
        let mut m = Metrics::default();
        let mut w = result(OpClass::Set, 1, 1);
        w.ok = false;
        let mut r = result(OpClass::Get, 2, 1);
        r.ok = false;
        complete(&mut m, &w);
        complete(&mut m, &r);
        complete(&mut m, &result(OpClass::Set, 3, 1));
        assert_eq!(m.bytes_written, 1024, "only the successful set counts");
        assert_eq!(m.bytes_read, 0);
        assert_eq!(m.failed_bytes, 2048);
    }

    #[test]
    fn breakdown_average() {
        let mut m = Metrics::default();
        complete(&mut m, &result(OpClass::Set, 1, 11));
        complete(&mut m, &result(OpClass::Set, 2, 21));
        let avg = m.avg_set_breakdown();
        assert_eq!(avg.request, SimDuration::from_micros(1));
        assert_eq!(avg.wait_response, SimDuration::from_micros(15));
    }
}
