//! Windowed time-series aggregation over the TraceBus event stream.
//!
//! The aggregator is a [`TraceSink`]: registered on the bus like the
//! JSONL and CSV exporters, it folds events into fixed-width virtual-time
//! windows as they are emitted: per-window throughput, latency
//! percentiles, bytes on the wire, and per-node codec-busy time. Window
//! `k` covers the half-open interval `[k*w, (k+1)*w)`, so an event
//! stamped exactly on a window edge belongs to the *next* window.
//!
//! Windows are stored densely in a `Vec` indexed by `at / w` — iteration
//! order is inherently deterministic and gaps show up as empty windows
//! rather than being silently skipped.

use std::collections::BTreeMap;

use crate::stats::Histogram;
use crate::time::{SimDuration, SimTime};
use crate::tracebus::{TraceEvent, TraceRecord, TraceSink};

/// Aggregates of one fixed-width virtual-time window.
#[derive(Debug, Clone, Default)]
pub struct SeriesWindow {
    /// Operations completed in this window (success or failure).
    pub ops: u64,
    /// Operations completed successfully.
    pub ok_ops: u64,
    /// Value bytes moved by successful operations (goodput).
    pub value_bytes: u64,
    /// Bytes put on the wire by sends starting in this window.
    pub wire_bytes: u64,
    /// Messages put on the wire in this window.
    pub wire_msgs: u64,
    /// Latencies of operations completing in this window.
    pub latency: Histogram,
    /// Codec-busy time per node for codec spans *ending* in this window.
    pub codec_busy: BTreeMap<usize, SimDuration>,
}

/// The windowed aggregator: a sink the caller registers on the bus
/// behind `Rc<RefCell<...>>` and reads after the run.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    window: SimDuration,
    windows: Vec<SeriesWindow>,
}

impl TimeSeries {
    /// Creates an aggregator with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(window > SimDuration::ZERO, "window width must be positive");
        TimeSeries {
            window,
            windows: Vec::new(),
        }
    }

    /// The windows recorded so far, in time order. Index `k` covers
    /// `[k*w, (k+1)*w)`.
    pub fn windows(&self) -> &[SeriesWindow] {
        &self.windows
    }

    /// Start time of window `idx`.
    pub fn window_start(&self, idx: usize) -> SimTime {
        SimTime::from_nanos(idx as u64 * self.window.as_nanos())
    }

    /// Completed-operation throughput of window `idx`, in ops/second.
    pub fn throughput_ops_per_sec(&self, idx: usize) -> f64 {
        self.windows
            .get(idx)
            .map(|w| w.ops as f64 / self.window.as_secs_f64())
            .unwrap_or(0.0)
    }

    /// Fraction of window `idx` that `node` spent inside codec kernels.
    /// Can exceed 1.0 when overlapping spans end in the same window.
    pub fn codec_busy_fraction(&self, idx: usize, node: usize) -> f64 {
        self.windows
            .get(idx)
            .and_then(|w| w.codec_busy.get(&node))
            .map(|busy| busy.as_secs_f64() / self.window.as_secs_f64())
            .unwrap_or(0.0)
    }

    fn window_mut(&mut self, at: SimTime) -> &mut SeriesWindow {
        let idx = (at.as_nanos() / self.window.as_nanos()) as usize;
        if idx >= self.windows.len() {
            self.windows.resize_with(idx + 1, SeriesWindow::default);
        }
        &mut self.windows[idx]
    }

    /// Folds one event into its window. Only the event classes that feed an
    /// aggregate are inspected; everything else passes through untouched.
    fn observe(&mut self, at: SimTime, event: &TraceEvent) {
        match *event {
            TraceEvent::OpCompleted {
                latency,
                ok,
                value_len,
                ..
            } => {
                let w = self.window_mut(at);
                w.ops += 1;
                if ok {
                    w.ok_ops += 1;
                    w.value_bytes += value_len;
                }
                w.latency.record(latency);
            }
            TraceEvent::ShardSend { bytes, .. } => {
                let w = self.window_mut(at);
                w.wire_bytes += bytes;
                w.wire_msgs += 1;
            }
            TraceEvent::CodecEnd { node, took, .. } => {
                let w = self.window_mut(at);
                *w.codec_busy.entry(node.0).or_insert(SimDuration::ZERO) += took;
            }
            _ => {}
        }
    }

    /// Renders the series as CSV text (header + one row per window).
    /// Per-node codec busy time is summed into a single column; empty
    /// windows render as all-zero rows, so the row index is the window
    /// index.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from(
            "window,start_ns,ops,ok_ops,throughput_ops_per_sec,p50_ns,p99_ns,value_bytes,wire_bytes,wire_msgs,codec_busy_ns\n",
        );
        for (idx, w) in self.windows.iter().enumerate() {
            let busy: u64 = w.codec_busy.values().map(|d| d.as_nanos()).sum();
            let _ = writeln!(
                out,
                "{},{},{},{},{:.3},{},{},{},{},{},{}",
                idx,
                self.window_start(idx).as_nanos(),
                w.ops,
                w.ok_ops,
                self.throughput_ops_per_sec(idx),
                w.latency.percentile(50.0).as_nanos(),
                w.latency.percentile(99.0).as_nanos(),
                w.value_bytes,
                w.wire_bytes,
                w.wire_msgs,
                busy,
            );
        }
        out
    }
}

impl TraceSink for TimeSeries {
    fn on_event(&mut self, rec: &TraceRecord) {
        self.observe(rec.at, &rec.event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NodeId;
    use crate::tracebus::{CodecOp, OpClass};

    fn completed(latency_us: u64, ok: bool, bytes: u64) -> TraceEvent {
        TraceEvent::OpCompleted {
            client: NodeId(4),
            op: OpClass::Get,
            latency: SimDuration::from_micros(latency_us),
            ok,
            value_len: bytes,
            degraded: false,
            integrity_ok: true,
            breakdown: crate::PhaseBreakdown::ZERO,
        }
    }

    #[test]
    fn window_edges_are_half_open() {
        let w = SimDuration::from_millis(10);
        let mut ts = TimeSeries::new(w);
        // Just inside window 0.
        ts.observe(
            SimTime::from_nanos(w.as_nanos() - 1),
            &completed(5, true, 10),
        );
        // Exactly on the edge: belongs to window 1.
        ts.observe(SimTime::from_nanos(w.as_nanos()), &completed(5, true, 20));
        assert_eq!(ts.windows().len(), 2);
        assert_eq!(ts.windows()[0].ops, 1);
        assert_eq!(ts.windows()[1].ops, 1);
        assert_eq!(ts.windows()[0].value_bytes, 10);
        assert_eq!(ts.windows()[1].value_bytes, 20);
    }

    #[test]
    fn gaps_materialize_as_empty_windows() {
        let mut ts = TimeSeries::new(SimDuration::from_millis(1));
        ts.observe(SimTime::from_nanos(3_500_000), &completed(1, true, 1));
        assert_eq!(ts.windows().len(), 4);
        assert_eq!(ts.windows()[0].ops, 0);
        assert_eq!(ts.windows()[3].ops, 1);
        assert_eq!(ts.throughput_ops_per_sec(3), 1000.0);
        assert_eq!(ts.throughput_ops_per_sec(0), 0.0);
        assert_eq!(ts.throughput_ops_per_sec(99), 0.0);
    }

    #[test]
    fn failed_ops_count_latency_but_not_goodput() {
        let mut ts = TimeSeries::new(SimDuration::from_millis(1));
        ts.observe(SimTime::ZERO, &completed(7, false, 0));
        let w = &ts.windows()[0];
        assert_eq!(w.ops, 1);
        assert_eq!(w.ok_ops, 0);
        assert_eq!(w.value_bytes, 0);
        assert_eq!(w.latency.count(), 1);
    }

    #[test]
    fn codec_busy_accrues_per_node() {
        let mut ts = TimeSeries::new(SimDuration::from_millis(1));
        for (node, us) in [(0, 100), (0, 200), (2, 400)] {
            ts.observe(
                SimTime::from_nanos(500),
                &TraceEvent::CodecEnd {
                    node: NodeId(node),
                    op: CodecOp::Encode,
                    took: SimDuration::from_micros(us),
                },
            );
        }
        let w = &ts.windows()[0];
        assert_eq!(w.codec_busy[&0], SimDuration::from_micros(300));
        assert_eq!(w.codec_busy[&2], SimDuration::from_micros(400));
        let frac = ts.codec_busy_fraction(0, 0);
        assert!((frac - 0.3).abs() < 1e-9, "frac={frac}");
        assert_eq!(ts.codec_busy_fraction(0, 7), 0.0);
    }

    #[test]
    fn wire_traffic_accumulates() {
        let mut ts = TimeSeries::new(SimDuration::from_millis(1));
        for _ in 0..3 {
            ts.observe(
                SimTime::ZERO,
                &TraceEvent::ShardSend {
                    from: NodeId(0),
                    to: NodeId(1),
                    bytes: 4096,
                },
            );
        }
        assert_eq!(ts.windows()[0].wire_bytes, 3 * 4096);
        assert_eq!(ts.windows()[0].wire_msgs, 3);
    }

    #[test]
    fn csv_has_one_row_per_window() {
        let mut ts = TimeSeries::new(SimDuration::from_millis(1));
        ts.observe(SimTime::from_nanos(2_100_000), &completed(3, true, 8));
        let csv = ts.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4, "header + 3 windows");
        assert!(lines[0].starts_with("window,start_ns,ops"));
        assert!(lines[3].starts_with("2,2000000,1,1,1000.000"));
    }

    #[test]
    #[should_panic(expected = "window width must be positive")]
    fn zero_window_rejected() {
        TimeSeries::new(SimDuration::ZERO);
    }
}
