//! GF(2^8) kernel microbenchmark: throughput per backend × buffer size.
//!
//! Measures the bulk kernels that dominate encode/decode time
//! (`xor_slice`, `mul_slice`, `mul_slice_xor`, and the fused
//! `matrix_mac`) on every instruction-set backend the host supports, and
//! reports GB/s so the numbers can be compared directly against the
//! `ComputeModel` constants the simulator charges for codec work (see the
//! calibration-delta note in EXPERIMENTS.md).
//!
//! Run via `paper-figures gf [--quick]`.

use std::time::Instant;

use eckv_gf::kernels::{active_backend, force_backend, Backend, ALL_BACKENDS};
use eckv_gf::slice;

use crate::{size_label, Table};

/// Buffer sizes swept: L1-resident, L2-resident, and memory-bound.
pub const SIZES: [usize; 3] = [4 << 10, 64 << 10, 1 << 20];

/// The kernels measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    XorSlice,
    MulSlice,
    MulSliceXor,
    /// Fused 2-row × 3-source MAC — the RS(3,2) encode shape.
    MatrixMac,
}

impl Kernel {
    const ALL: [Self; 4] = [
        Kernel::XorSlice,
        Kernel::MulSlice,
        Kernel::MulSliceXor,
        Kernel::MatrixMac,
    ];

    fn name(self) -> &'static str {
        match self {
            Kernel::XorSlice => "xor_slice",
            Kernel::MulSlice => "mul_slice",
            Kernel::MulSliceXor => "mul_slice_xor",
            Kernel::MatrixMac => "matrix_mac(2x3)",
        }
    }

    /// Source bytes processed by one invocation at buffer size `size`
    /// (for `matrix_mac`, each of the 2 rows consumes all 3 sources).
    fn work_bytes(self, size: usize) -> usize {
        match self {
            Kernel::MatrixMac => 6 * size,
            _ => size,
        }
    }
}

/// A deliberately dense multiplier (both nibbles nontrivial).
const MULTIPLIER: u8 = 0x8E;

/// Measures one (kernel, size) cell on the **currently forced** backend,
/// returning GB/s of processed source bytes. `target_bytes` is the volume
/// of kernel work to aim for (more = steadier numbers).
fn measure(kernel: Kernel, size: usize, target_bytes: usize) -> f64 {
    let reps = (target_bytes / kernel.work_bytes(size)).max(3);

    let src: Vec<u8> = (0..size).map(|i| (i * 31 + 7) as u8).collect();
    let mut dst = vec![0xA5u8; size];
    let srcs: Vec<Vec<u8>> = (0..3)
        .map(|j| (0..size).map(|i| (i * 13 + j * 97) as u8).collect())
        .collect();
    let mut dsts: Vec<Vec<u8>> = vec![vec![0u8; size]; 2];
    let coeffs: Vec<Vec<u8>> = vec![vec![1, 29, 76], vec![142, 7, 1]];

    let run = |dst: &mut Vec<u8>, dsts: &mut Vec<Vec<u8>>| match kernel {
        Kernel::XorSlice => slice::xor_slice(std::hint::black_box(&src), dst),
        Kernel::MulSlice => slice::mul_slice(MULTIPLIER, std::hint::black_box(&src), dst),
        Kernel::MulSliceXor => slice::mul_slice_xor(MULTIPLIER, std::hint::black_box(&src), dst),
        Kernel::MatrixMac => {
            let srefs: Vec<&[u8]> = srcs.iter().map(|s| s.as_slice()).collect();
            let crefs: Vec<&[u8]> = coeffs.iter().map(|c| c.as_slice()).collect();
            let mut drefs: Vec<&mut [u8]> = dsts.iter_mut().map(|d| d.as_mut_slice()).collect();
            slice::matrix_mac(&crefs, std::hint::black_box(&srefs), &mut drefs);
        }
    };

    // Warm up tables, page in buffers.
    run(&mut dst, &mut dsts);
    let start = Instant::now();
    for _ in 0..reps {
        run(&mut dst, &mut dsts);
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box((&dst, &dsts));
    (reps * kernel.work_bytes(size)) as f64 / secs / 1e9
}

fn target_bytes(quick: bool) -> usize {
    if quick {
        32 << 20
    } else {
        256 << 20
    }
}

/// Throughput table: one row per kernel × size, one column per backend,
/// plus the best-over-scalar speedup (unsupported backends show `-`);
/// returned with the measured `mul_slice_xor` best-vs-scalar speedup at
/// 64 KiB (the headline cell).
pub fn kernel_table_with_speedup(quick: bool) -> (Table, f64) {
    build(target_bytes(quick))
}

fn build(target: usize) -> (Table, f64) {
    let before = active_backend();
    let mut t = Table::new(
        "GF(2^8) kernel throughput, GB/s per backend (measured, this host)",
        &["kernel", "size", "scalar", "ssse3", "avx2", "best/scalar"],
    );
    let mut headline_speedup = 0.0f64;
    for kernel in Kernel::ALL {
        for &size in &SIZES {
            let mut row = vec![kernel.name().to_owned(), size_label(size as u64)];
            let mut scalar_gbps = 0.0f64;
            let mut best = 0.0f64;
            for backend in ALL_BACKENDS {
                if !backend.is_supported() {
                    row.push("-".to_owned());
                    continue;
                }
                force_backend(backend);
                let gbps = measure(kernel, size, target);
                if backend == Backend::Scalar {
                    scalar_gbps = gbps;
                }
                best = best.max(gbps);
                row.push(format!("{gbps:.2}"));
            }
            let speedup = if scalar_gbps > 0.0 {
                best / scalar_gbps
            } else {
                1.0
            };
            if kernel == Kernel::MulSliceXor && size == 64 << 10 {
                headline_speedup = speedup;
            }
            row.push(format!("{speedup:.1}x"));
            t.row(row);
        }
    }
    force_backend(before);
    (t, headline_speedup)
}

/// One-line verdict on the SIMD speedup target (`mul_slice_xor` ≥ 4x
/// scalar on a SIMD host), asserted in the printed report only — CI
/// hardware varies too much to gate on throughput.
pub fn speedup_verdict(speedup: f64) -> String {
    let best = eckv_gf::kernels::best_supported_backend();
    if best == Backend::Scalar {
        return "no SIMD backend on this host; speedup target not applicable".to_owned();
    }
    let verdict = if speedup >= 4.0 { "PASS" } else { "MISS" };
    format!("{verdict}: mul_slice_xor 64K best backend = {speedup:.1}x scalar (target >= 4x)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_every_kernel_and_positive_scalar_throughput() {
        // Tiny per-cell volume: this checks shape, not steady throughput.
        let t = build(1 << 20).0;
        assert_eq!(t.rows.len(), Kernel::ALL.len() * SIZES.len());
        for row in &t.rows {
            let scalar: f64 = row[2].parse().expect("scalar column always measured");
            assert!(scalar > 0.0, "{row:?}");
        }
    }

    #[test]
    fn verdict_mentions_the_target() {
        assert!(speedup_verdict(5.0).contains("4x"));
    }
}
