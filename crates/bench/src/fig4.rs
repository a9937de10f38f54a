//! Figure 4: stand-alone encode/decode time of the three codec families,
//! measured on the **real** Rust codecs (this is the one figure that does
//! not use the simulator).

use std::time::Instant;

use eckv_erasure::{CodecKind, Striper};

use crate::{size_label, Table};

/// Key-value pair sizes the paper sweeps (1 KB – 1 MB).
pub const SIZES: [u64; 6] = [1 << 10, 8 << 10, 64 << 10, 256 << 10, 512 << 10, 1 << 20];

fn iterations(bytes: u64, quick: bool) -> u32 {
    let base = match bytes {
        b if b <= 8 << 10 => 2_000,
        b if b <= 256 << 10 => 200,
        _ => 50,
    };
    if quick {
        (base / 10).max(5)
    } else {
        base
    }
}

fn measure_encode(striper: &Striper, bytes: u64, iters: u32) -> f64 {
    let value = vec![0xA5u8; bytes as usize];
    // Warm up tables and allocator.
    let _ = striper.encode_value(&value);
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(striper.encode_value(std::hint::black_box(&value)));
    }
    start.elapsed().as_secs_f64() / iters as f64 * 1e6
}

fn measure_decode(striper: &Striper, bytes: u64, failures: usize, iters: u32) -> f64 {
    let value = vec![0xC3u8; bytes as usize];
    let stripe = striper.encode_value(&value);
    // The decode reads borrowed survivors and leaves them untouched, so
    // one input serves every iteration and no copy sits inside the clock.
    let shards: Vec<Option<&[u8]>> = stripe
        .shards
        .iter()
        .enumerate()
        // Erase data shards: the worst case.
        .map(|(i, s)| (i >= failures).then_some(&s[..]))
        .collect();
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(
            striper
                .decode_value(std::hint::black_box(&shards), stripe.original_len)
                .expect("recoverable"),
        );
    }
    start.elapsed().as_secs_f64() / iters as f64 * 1e6
}

/// Figure 4(a): encode time (µs) for RS(3,2) across value sizes.
pub fn encode_table(quick: bool) -> Table {
    let mut t = Table::new(
        "Fig. 4(a) - Encode time, RS(3,2), microseconds (measured, real codecs)",
        &["size", "RS_Van", "CRS", "R6-Lib"],
    );
    let stripers: Vec<Striper> = CodecKind::ALL
        .iter()
        .map(|k| Striper::from(k.build(3, 2).expect("valid")))
        .collect();
    for &bytes in &SIZES {
        let iters = iterations(bytes, quick);
        let mut row = vec![size_label(bytes)];
        for s in &stripers {
            row.push(format!("{:.1}", measure_encode(s, bytes, iters)));
        }
        t.row(row);
    }
    t
}

/// Figure 4(b): decode time (µs) with one and two node failures.
pub fn decode_table(quick: bool) -> Table {
    let mut t = Table::new(
        "Fig. 4(b) - Decode time, RS(3,2), microseconds (measured, real codecs)",
        &[
            "size",
            "RS_Van/1f",
            "RS_Van/2f",
            "CRS/1f",
            "CRS/2f",
            "R6-Lib/1f",
            "R6-Lib/2f",
        ],
    );
    let stripers: Vec<Striper> = CodecKind::ALL
        .iter()
        .map(|k| Striper::from(k.build(3, 2).expect("valid")))
        .collect();
    for &bytes in &SIZES {
        let iters = iterations(bytes, quick);
        let mut row = vec![size_label(bytes)];
        for s in &stripers {
            for failures in [1, 2] {
                row.push(format!("{:.1}", measure_decode(s, bytes, failures, iters)));
            }
        }
        t.row(row);
    }
    t
}

/// Ablation: the same codecs with *tuned* (whole-packet) XOR segments —
/// the regime the paper attributes to very large objects ("optimized
/// Reed-Solomon codes for better performance for large data sizes"). With
/// tuning, the XOR codes overtake `RS_Van` well before 1 MB.
pub fn tuned_packet_table(quick: bool) -> Table {
    let mut t = Table::new(
        "Fig. 4 ablation - Encode time with tuned (whole-packet) XOR segments, us",
        &[
            "size",
            "RS_Van",
            "CRS(tuned)",
            "CRS(sched)",
            "R6-Lib(tuned)",
        ],
    );
    let rs = Striper::from(CodecKind::RsVan.build(3, 2).expect("valid"));
    let crs = Striper::new(std::sync::Arc::new(
        eckv_erasure::CauchyRs::with_packet_size(3, 2, 0).expect("valid"),
    ) as std::sync::Arc<dyn eckv_erasure::ErasureCodec>);
    let crs_sched = Striper::new(std::sync::Arc::new(
        eckv_erasure::CauchyRs::with_optimized_schedule(3, 2).expect("valid"),
    ) as std::sync::Arc<dyn eckv_erasure::ErasureCodec>);
    let lib = Striper::new(std::sync::Arc::new(
        eckv_erasure::Liberation::with_packet_size(3, 2, 0).expect("valid"),
    ) as std::sync::Arc<dyn eckv_erasure::ErasureCodec>);
    for &bytes in &SIZES {
        let iters = iterations(bytes, quick);
        t.row(vec![
            size_label(bytes),
            format!("{:.1}", measure_encode(&rs, bytes, iters)),
            format!("{:.1}", measure_encode(&crs, bytes, iters)),
            format!("{:.1}", measure_encode(&crs_sched, bytes, iters)),
            format!("{:.1}", measure_encode(&lib, bytes, iters)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing-based ranking; run with --release")]
    fn rs_van_is_fastest_with_jerasure_style_packets() {
        // The paper's Fig. 4 conclusion, on our real codecs with the
        // Jerasure-default small packet size.
        let t = encode_table(true);
        for size in ["64K", "1M"] {
            let rs = t.value(size, "RS_Van").unwrap();
            let crs = t.value(size, "CRS").unwrap();
            let lib = t.value(size, "R6-Lib").unwrap();
            assert!(rs < crs, "{size}: rs={rs} crs={crs}");
            assert!(rs < lib * 1.25, "{size}: rs={rs} lib={lib}");
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing-based ranking; run with --release")]
    fn tuned_xor_codes_overtake_rs_at_large_sizes() {
        let t = tuned_packet_table(true);
        let rs = t.value("1M", "RS_Van").unwrap();
        let lib = t.value("1M", "R6-Lib(tuned)").unwrap();
        assert!(
            lib < rs,
            "tuned liberation ({lib}) should beat RS_Van ({rs}) at 1M"
        );
    }

    #[test]
    fn encode_measurements_are_positive_and_grow() {
        let t = encode_table(true);
        let small = t.value("1K", "RS_Van").unwrap();
        let large = t.value("1M", "RS_Van").unwrap();
        assert!(small > 0.0);
        assert!(
            large > small,
            "1M ({large}) should cost more than 1K ({small})"
        );
    }

    #[test]
    fn two_failures_cost_at_least_one() {
        let t = decode_table(true);
        let one = t.value("1M", "RS_Van/1f").unwrap();
        let two = t.value("1M", "RS_Van/2f").unwrap();
        assert!(two >= one * 0.8, "2f={two} 1f={one}");
    }
}
