//! Cauchy Reed-Solomon coding over a GF(2^8) bit-matrix.

use eckv_gf::{BitMatrix, Gf256, Matrix};

use crate::bitmatrix_codec::{BitMatrixEngine, DEFAULT_PACKET_BYTES};
use crate::codec::ErasureCodec;
use crate::error::ErasureError;

const W: usize = 8;

/// `CRS`: Cauchy Reed-Solomon, encoding with XORs only.
///
/// The `m x k` Cauchy matrix over GF(2^8) is first density-reduced the way
/// Jerasure's *good Cauchy* construction does — each column is normalized so
/// the first row is all ones, then each remaining row is scaled by whichever
/// of its elements minimizes the bit count — and then expanded to an
/// `(m*8) x (k*8)` bit-matrix.
///
/// Compared to [`crate::RsVandermonde`], CRS trades field multiplications
/// for a larger number of XOR passes; it amortizes well for very large
/// objects but loses for the 1 KB–1 MB key-value range, which is exactly
/// the paper's Figure 4 observation.
///
/// # Example
///
/// ```
/// use eckv_erasure::{CauchyRs, ErasureCodec};
///
/// let crs = CauchyRs::new(3, 2)?;
/// assert_eq!(crs.shard_alignment(), 8);
/// # Ok::<(), eckv_erasure::ErasureError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CauchyRs {
    engine: BitMatrixEngine,
}

impl CauchyRs {
    /// Builds a `CRS(k, m)` codec with word size `w = 8` and the
    /// Jerasure-style small packet size (see the module notes on
    /// [`crate::CauchyRs::with_packet_size`] for tuning).
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::InvalidParameters`] if `k == 0`, `m == 0` or
    /// `k + m > 256`.
    pub fn new(k: usize, m: usize) -> Result<Self, ErasureError> {
        Self::with_packet_size(k, m, DEFAULT_PACKET_BYTES)
    }

    /// Builds a `CRS(k, m)` codec with an explicit XOR segment size in
    /// bytes; `0` processes whole packets per XOR (the tuned layout that
    /// lets CRS overtake `RS_Van` at large values — the paper's "optimized
    /// for ~256 MB" regime).
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::InvalidParameters`] if `k == 0`, `m == 0` or
    /// `k + m > 256`.
    pub fn with_packet_size(k: usize, m: usize, packet_bytes: usize) -> Result<Self, ErasureError> {
        if k == 0 || m == 0 {
            return Err(ErasureError::InvalidParameters {
                reason: "k and m must be positive".to_owned(),
            });
        }
        if k + m > 256 {
            return Err(ErasureError::InvalidParameters {
                reason: format!("k + m = {} exceeds the GF(2^8) limit of 256", k + m),
            });
        }
        let cauchy = good_cauchy(m, k);
        let coding = BitMatrix::from_gf256_matrix(&cauchy);
        Ok(CauchyRs {
            engine: BitMatrixEngine::new(k, m, W, coding, packet_bytes),
        })
    }

    /// Builds a `CRS(k, m)` in whole-packet mode with a CSE-optimized XOR
    /// schedule — the fastest configuration (see the `fig4` ablation).
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::InvalidParameters`] on invalid shapes.
    pub fn with_optimized_schedule(k: usize, m: usize) -> Result<Self, ErasureError> {
        let mut codec = Self::with_packet_size(k, m, 0)?;
        codec.engine.optimize_schedule();
        Ok(codec)
    }

    /// Number of ones in the coding bit-matrix (the XOR cost per stripe).
    pub fn density(&self) -> u64 {
        self.engine.density()
    }

    /// XOR operations per stripe under the active configuration: the
    /// optimized schedule's count when enabled, else the naive density.
    pub fn xor_ops_per_stripe(&self) -> u64 {
        match self.engine.optimized_schedule() {
            Some(s) => s.xor_count(),
            None => self.engine.density(),
        }
    }

    /// Brute-force MDS check (expensive; used by tests).
    pub fn is_mds(&self) -> bool {
        self.engine.is_mds()
    }
}

/// Builds a density-reduced Cauchy matrix.
///
/// Column scaling keeps the MDS property because scaling a column by a
/// nonzero constant multiplies every minor by that constant; likewise row
/// scaling. (This mirrors `cauchy_good` in Jerasure.)
fn good_cauchy(rows: usize, cols: usize) -> Matrix {
    let mut m = Matrix::cauchy(rows, cols);
    // Normalize each column so row 0 becomes 1.
    for c in 0..cols {
        let head = Gf256::new(m.get(0, c));
        let inv = head.inv().expect("cauchy entries are nonzero");
        for r in 0..rows {
            m.set(r, c, (Gf256::new(m.get(r, c)) * inv).value());
        }
    }
    // For each later row, pick the divisor that minimizes total bit count.
    for r in 1..rows {
        let mut best_div = Gf256::ONE;
        let mut best_ones = row_bit_ones(&m, r);
        for c in 0..cols {
            let d = Gf256::new(m.get(r, c));
            if d.is_zero() {
                continue;
            }
            let inv = d.inv().expect("nonzero");
            let ones: u32 = (0..cols)
                .map(|cc| element_ones((Gf256::new(m.get(r, cc)) * inv).value()))
                .sum();
            if ones < best_ones {
                best_ones = ones;
                best_div = inv;
            }
        }
        if best_div != Gf256::ONE {
            for c in 0..cols {
                m.set(r, c, (Gf256::new(m.get(r, c)) * best_div).value());
            }
        }
    }
    m
}

/// Bit count of the 8x8 binary expansion of one field element.
fn element_ones(e: u8) -> u32 {
    let mut ones = 0;
    let g = Gf256::new(e);
    for c in 0..8 {
        ones += (g * Gf256::GENERATOR.pow(c)).value().count_ones();
    }
    ones
}

fn row_bit_ones(m: &Matrix, r: usize) -> u32 {
    (0..m.cols()).map(|c| element_ones(m.get(r, c))).sum()
}

impl ErasureCodec for CauchyRs {
    fn data_shards(&self) -> usize {
        self.engine.k
    }

    fn parity_shards(&self) -> usize {
        self.engine.m
    }

    fn shard_alignment(&self) -> usize {
        W
    }

    fn name(&self) -> &'static str {
        "CRS"
    }

    fn cost_profile(&self) -> crate::codec::CostProfile {
        crate::codec::CostProfile::XorSchedule {
            ones: self.engine.density(),
            w: W,
        }
    }

    fn encode(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<(), ErasureError> {
        self.engine.encode(data, parity)
    }

    fn reconstruct(
        &self,
        shards: &[Option<&[u8]>],
        wanted: &[usize],
    ) -> Result<Vec<Vec<u8>>, ErasureError> {
        self.engine.reconstruct(shards, wanted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::rebuild_all;

    fn encode_all(codec: &CauchyRs, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let len = data[0].len();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity: Vec<Vec<u8>> = vec![vec![0u8; len]; codec.parity_shards()];
        {
            let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
            codec.encode(&refs, &mut prefs).expect("encode");
        }
        let mut all = data.to_vec();
        all.extend(parity);
        all
    }

    #[test]
    fn crs_32_is_mds() {
        assert!(CauchyRs::new(3, 2).unwrap().is_mds());
    }

    #[test]
    fn crs_43_is_mds() {
        assert!(CauchyRs::new(4, 3).unwrap().is_mds());
    }

    #[test]
    fn every_double_erasure_recovers_crs32() {
        let codec = CauchyRs::new(3, 2).unwrap();
        let data: Vec<Vec<u8>> = (0..3)
            .map(|i| (0..64).map(|j| (i * 71 + j * 29) as u8).collect())
            .collect();
        let all = encode_all(&codec, &data);
        for a in 0..5 {
            for b in (a + 1)..5 {
                let mut shards: Vec<Option<Vec<u8>>> = all.iter().cloned().map(Some).collect();
                shards[a] = None;
                shards[b] = None;
                let rebuilt = rebuild_all(&codec, &shards).expect("recoverable");
                assert_eq!(rebuilt, all, "erased {a},{b}");
            }
        }
    }

    #[test]
    fn good_cauchy_is_denser_reduction_than_raw() {
        // The density-reduced matrix must not have more ones than the raw
        // expansion; for small shapes it should be strictly lighter.
        let raw = BitMatrix::from_gf256_matrix(&Matrix::cauchy(2, 3)).ones();
        let good = CauchyRs::new(3, 2).unwrap().density();
        assert!(good <= raw, "good={good} raw={raw}");
    }

    #[test]
    fn good_cauchy_first_row_is_identity_blocks() {
        let m = good_cauchy(2, 4);
        for c in 0..4 {
            assert_eq!(m.get(0, c), 1);
        }
    }

    #[test]
    fn optimized_schedule_produces_identical_codewords() {
        let plain = CauchyRs::new(3, 2).unwrap();
        let opt = CauchyRs::with_optimized_schedule(3, 2).unwrap();
        let data: Vec<Vec<u8>> = (0..3)
            .map(|i| (0..120).map(|j| (i * 31 + j * 7) as u8).collect())
            .collect();
        let a = encode_all(&plain, &data);
        let b = encode_all(&opt, &data);
        assert_eq!(a, b, "schedules must be semantically transparent");
        assert!(
            opt.xor_ops_per_stripe() < plain.xor_ops_per_stripe(),
            "the optimized schedule must do fewer XOR passes"
        );
        // And degraded reads still work through the optimized codec.
        let mut shards: Vec<Option<Vec<u8>>> = b.iter().cloned().map(Some).collect();
        shards[0] = None;
        shards[4] = None;
        assert_eq!(rebuild_all(&opt, &shards).unwrap(), b);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(CauchyRs::new(0, 2).is_err());
        assert!(CauchyRs::new(3, 0).is_err());
        assert!(CauchyRs::new(255, 2).is_err());
    }
}
