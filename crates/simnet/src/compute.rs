//! Calibrated cost model for erasure-coding computation inside simulations.
//!
//! Stand-alone codec benchmarks (Figure 4) run the *real* Rust codecs under
//! Criterion. Inside cluster simulations, encode/decode must be
//! deterministic and host-independent, so their *duration* comes from this
//! model while the data transformation still uses the real codec.
//!
//! The model separates the two kernel families:
//!
//! * **GF multiply-accumulate** passes (RS-Vandermonde): sequential,
//!   table-driven, throughput `gf_mul_gbps`.
//! * **Strided packet XOR** passes (Cauchy-RS, Liberation): each set bit of
//!   the coding bit-matrix XORs one packet; small packets are dominated by
//!   the per-operation cost `per_xor_op`, which is exactly why the paper
//!   finds `RS_Van` fastest for 1 KB–1 MB values while the XOR codes only
//!   amortize at very large objects.

use crate::net::NodeId;
use crate::span::SpanPhase;
use crate::time::{SimDuration, SimTime};
use crate::tracebus::{CodecOp, Trace, TraceEvent};

/// Throughput/overhead constants for one CPU generation.
///
/// # Example
///
/// ```
/// use eckv_simnet::ComputeModel;
///
/// let cpu = ComputeModel::WESTMERE;
/// let small = cpu.encode_mul(2 * 1024);
/// let large = cpu.encode_mul(2 * 1024 * 1024);
/// assert!(large > small * 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// Sequential GF(2^8) multiply-accumulate throughput, gigabytes/second.
    pub gf_mul_gbps: f64,
    /// Strided packet-XOR throughput, gigabytes/second.
    pub xor_strided_gbps: f64,
    /// Fixed cost per packet-XOR operation (loop/dispatch/cache setup).
    pub per_xor_op: SimDuration,
    /// Fixed per-call encode overhead (matrix prep, buffer dispatch).
    pub fixed_encode: SimDuration,
    /// Fixed per-call decode overhead (survivor selection, inversion).
    pub fixed_decode: SimDuration,
}

impl ComputeModel {
    /// Intel Xeon E5630 "Westmere" @ 2.53 GHz (the paper's RI-QDR nodes).
    pub const WESTMERE: ComputeModel = ComputeModel {
        gf_mul_gbps: 3.0,
        xor_strided_gbps: 2.2,
        per_xor_op: SimDuration::from_nanos(150),
        fixed_encode: SimDuration::from_micros(6),
        fixed_decode: SimDuration::from_micros(14),
    };

    /// Intel "Haswell" dual 12-core (SDSC Comet).
    pub const HASWELL: ComputeModel = ComputeModel {
        gf_mul_gbps: 4.5,
        xor_strided_gbps: 3.5,
        per_xor_op: SimDuration::from_nanos(100),
        fixed_encode: SimDuration::from_micros(4),
        fixed_decode: SimDuration::from_micros(10),
    };

    /// Intel "Broadwell" dual 14-core (RI2-EDR).
    pub const BROADWELL: ComputeModel = ComputeModel {
        gf_mul_gbps: 5.2,
        xor_strided_gbps: 4.0,
        per_xor_op: SimDuration::from_nanos(90),
        fixed_encode: SimDuration::from_nanos(3_500),
        fixed_decode: SimDuration::from_micros(9),
    };

    fn gbps_time(bytes: u64, gbps: f64) -> SimDuration {
        SimDuration::from_nanos((bytes as f64 / gbps).round() as u64)
    }

    /// A degraded copy of this model: throughputs divided by `factor`,
    /// fixed costs multiplied by it. Used by the straggler fault-injection
    /// layer to model a node whose codec work (thermal throttling, noisy
    /// neighbour, failing DIMM) runs `factor`× slower. `factor == 1.0`
    /// returns the model unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0` or `factor` is not finite.
    pub fn slowed(&self, factor: f64) -> ComputeModel {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "slowdown factor must be finite and >= 1"
        );
        let scale =
            |d: SimDuration| SimDuration::from_nanos((d.as_nanos() as f64 * factor).round() as u64);
        ComputeModel {
            gf_mul_gbps: self.gf_mul_gbps / factor,
            xor_strided_gbps: self.xor_strided_gbps / factor,
            per_xor_op: scale(self.per_xor_op),
            fixed_encode: scale(self.fixed_encode),
            fixed_decode: scale(self.fixed_decode),
        }
    }

    /// Time for a GF multiply-accumulate pass over `bytes` total bytes
    /// (no fixed overhead).
    pub fn mul_work(&self, bytes: u64) -> SimDuration {
        Self::gbps_time(bytes, self.gf_mul_gbps)
    }

    /// Time for `ops` packet-XOR operations moving `bytes` total bytes
    /// (no fixed overhead).
    pub fn xor_work(&self, bytes: u64, ops: u64) -> SimDuration {
        Self::gbps_time(bytes, self.xor_strided_gbps) + self.per_xor_op * ops
    }

    /// Encode cost for a multiply-based codec processing `bytes`.
    pub fn encode_mul(&self, bytes: u64) -> SimDuration {
        self.fixed_encode + self.mul_work(bytes)
    }

    /// Decode cost for a multiply-based codec processing `bytes`.
    pub fn decode_mul(&self, bytes: u64) -> SimDuration {
        self.fixed_decode + self.mul_work(bytes)
    }

    /// Encode cost for an XOR (bit-matrix) codec.
    pub fn encode_xor(&self, bytes: u64, ops: u64) -> SimDuration {
        self.fixed_encode + self.xor_work(bytes, ops)
    }

    /// Decode cost for an XOR (bit-matrix) codec.
    pub fn decode_xor(&self, bytes: u64, ops: u64) -> SimDuration {
        self.fixed_decode + self.xor_work(bytes, ops)
    }
}

/// Records one codec invocation on the TraceBus: a start/end event pair
/// spanning `[start, start + took)`, which the bus folds into the per-node
/// codec counters. The engine's encode/decode paths call this wherever
/// they charge codec time to a CPU. No-op when tracing is disabled.
pub fn trace_codec(
    trace: &Trace,
    node: NodeId,
    op: CodecOp,
    start: SimTime,
    took: SimDuration,
    bytes: u64,
) {
    if !trace.is_enabled() {
        return;
    }
    trace.emit(start, TraceEvent::CodecStart { node, op, bytes });
    trace.emit(start + took, TraceEvent::CodecEnd { node, op, took });
    let phase = match op {
        CodecOp::Encode => SpanPhase::Encode,
        CodecOp::Decode => SpanPhase::Decode,
    };
    trace.span_record(phase, node, start, start + took);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_codec_emits_span_and_counters() {
        use crate::tracebus::{TraceBus, TraceRecord};
        use std::cell::RefCell;
        use std::rc::Rc;

        let recs = Rc::new(RefCell::new(Vec::new()));
        let collect = recs.clone();
        let mut bus = TraceBus::new();
        bus.add_sink(Rc::new(RefCell::new(move |r: &TraceRecord| {
            collect.borrow_mut().push(*r)
        })));
        let trace = Trace::from_bus(bus);
        let start = SimTime::from_nanos(100);
        let took = SimDuration::from_micros(3);
        trace_codec(&trace, NodeId(1), CodecOp::Encode, start, took, 4096);
        let recs = recs.borrow();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].event.name(), "encode_start");
        assert_eq!(recs[0].at, start);
        assert_eq!(recs[1].event.name(), "encode_end");
        assert_eq!(recs[1].at, start + took);
        trace.with_bus(|bus| {
            assert_eq!(bus.counter(NodeId(1), "codec_invocations"), 1);
            assert_eq!(bus.counter(NodeId(1), "codec_busy_ns"), took.as_nanos());
        });
        // Disabled handle: nothing happens, nothing panics.
        trace_codec(
            &Trace::disabled(),
            NodeId(1),
            CodecOp::Decode,
            start,
            took,
            1,
        );
    }

    #[test]
    fn mul_cost_is_linear_in_bytes() {
        let m = ComputeModel::WESTMERE;
        let one = m.mul_work(1 << 20);
        let two = m.mul_work(2 << 20);
        let diff = (two.as_nanos() as i64 - (one.as_nanos() * 2) as i64).abs();
        assert!(diff <= 2, "rounding slack exceeded: {diff}ns");
    }

    #[test]
    fn westmere_1mb_rs32_encode_is_a_few_hundred_micros() {
        // Paper Fig. 4(a): encoding a 1 MB value with RS(3,2) on Westmere
        // costs a few hundred microseconds. RS(3,2) processes D*m bytes.
        let m = ComputeModel::WESTMERE;
        let t = m.encode_mul(2 * 1024 * 1024).as_micros_f64();
        assert!((300.0..=1200.0).contains(&t), "t={t}us");
    }

    #[test]
    fn small_values_are_dominated_by_fixed_overhead() {
        let m = ComputeModel::WESTMERE;
        let t = m.encode_mul(2 * 1024);
        assert!(t < m.fixed_encode * 2);
    }

    #[test]
    fn xor_codecs_pay_per_op_at_small_packets() {
        let m = ComputeModel::WESTMERE;
        // Many tiny packets: op cost dominates.
        let many_ops = m.xor_work(1024, 500);
        let few_ops = m.xor_work(1024, 5);
        assert!(many_ops > few_ops * 10);
    }

    #[test]
    fn slowed_model_scales_all_cost_components() {
        let m = ComputeModel::WESTMERE;
        let s = m.slowed(8.0);
        let bytes = 1 << 20;
        let base = m.encode_mul(bytes).as_nanos() as f64;
        let slow = s.encode_mul(bytes).as_nanos() as f64;
        assert!(
            (7.9..=8.1).contains(&(slow / base)),
            "8x slowdown gave {:.2}x",
            slow / base
        );
        assert_eq!(s.per_xor_op, m.per_xor_op * 8);
        // Identity factor is exactly the original model.
        assert_eq!(m.slowed(1.0), m);
    }

    #[test]
    #[should_panic(expected = "slowdown factor")]
    fn sub_unity_slowdown_panics() {
        let _ = ComputeModel::WESTMERE.slowed(0.5);
    }

    #[test]
    fn newer_cpus_are_faster() {
        let bytes = 1 << 20;
        let w = ComputeModel::WESTMERE.encode_mul(bytes);
        let h = ComputeModel::HASWELL.encode_mul(bytes);
        let b = ComputeModel::BROADWELL.encode_mul(bytes);
        assert!(h < w);
        assert!(b < h);
    }
}
