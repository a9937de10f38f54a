//! Reed-Solomon coding with a systematized Vandermonde generator matrix.

use eckv_gf::{slice, Matrix};

use crate::codec::{check_encode_shape, reconstruct_wanted, solve_from_generator, ErasureCodec};
use crate::error::ErasureError;

/// `RS_Van`: the classic Reed-Solomon code the paper selects for key-value
/// pair sizes between 1 KB and 1 MB.
///
/// The generator is the extended `(k+m) x k` Vandermonde matrix transformed
/// so its top `k x k` block is the identity (systematic form). Encoding one
/// stripe costs `m * k` slice multiply-accumulates; decoding inverts the
/// `k x k` submatrix of surviving rows.
///
/// # Example
///
/// ```
/// use eckv_erasure::{ErasureCodec, RsVandermonde};
///
/// let rs = RsVandermonde::new(3, 2)?;
/// let data: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8 + 1; 8]).collect();
/// let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
/// let mut p0 = vec![0u8; 8];
/// let mut p1 = vec![0u8; 8];
/// {
///     let mut parity: Vec<&mut [u8]> = vec![&mut p0, &mut p1];
///     rs.encode(&refs, &mut parity)?;
/// }
///
/// // Lose data shard 0 and rebuild it from borrowed survivors.
/// let shards = [None, Some(&data[1][..]), Some(&data[2][..]), Some(&p0[..]), Some(&p1[..])];
/// let rebuilt = rs.reconstruct(&shards, &[0])?;
/// assert_eq!(rebuilt, [data[0].clone()]);
/// # Ok::<(), eckv_erasure::ErasureError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RsVandermonde {
    k: usize,
    m: usize,
    /// Systematic `(k+m) x k` generator: top block identity, bottom block
    /// the parity coefficients.
    generator: Matrix,
}

impl RsVandermonde {
    /// Builds an `RS(k, m)` codec.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::InvalidParameters`] if `k == 0`, `m == 0` or
    /// `k + m > 256` (GF(2^8) supports at most 256 distinct shards).
    pub fn new(k: usize, m: usize) -> Result<Self, ErasureError> {
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
        let generator = Matrix::vandermonde(k + m, k)
            .systematize()
            .expect("vandermonde top block with distinct points is invertible");
        Ok(RsVandermonde { k, m, generator })
    }

    /// The systematic generator matrix (exposed for tests and analysis).
    pub fn generator(&self) -> &Matrix {
        &self.generator
    }
}

impl ErasureCodec for RsVandermonde {
    fn data_shards(&self) -> usize {
        self.k
    }

    fn parity_shards(&self) -> usize {
        self.m
    }

    fn shard_alignment(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "RS_Van"
    }

    fn cost_profile(&self) -> crate::codec::CostProfile {
        crate::codec::CostProfile::FieldMul
    }

    fn encode(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<(), ErasureError> {
        check_encode_shape(self.k, self.m, 1, data, parity)?;
        // One fused pass: every parity row's coefficients are applied to
        // each source block while it is hot in cache (vs. re-streaming all
        // sources once per row).
        for out in parity.iter_mut() {
            out.fill(0);
        }
        let coeffs: Vec<&[u8]> = (0..self.m)
            .map(|i| self.generator.row(self.k + i))
            .collect();
        slice::matrix_mac(&coeffs, data, parity);
        Ok(())
    }

    fn reconstruct(
        &self,
        shards: &[Option<&[u8]>],
        wanted: &[usize],
    ) -> Result<Vec<Vec<u8>>, ErasureError> {
        reconstruct_wanted((self.k, self.m, 1), shards, wanted, |len, lost| {
            // Any k survivors determine the stripe; take the first k.
            let chosen: Vec<usize> = (0..self.k + self.m)
                .filter(|&i| shards[i].is_some())
                .take(self.k)
                .collect();
            Ok(solve_from_generator(
                &self.generator,
                &chosen,
                shards,
                lost,
                len,
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{rebuild_all, ErasureCodec};

    fn encode_all(codec: &RsVandermonde, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
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
    fn every_double_erasure_recovers_rs32() {
        let codec = RsVandermonde::new(3, 2).unwrap();
        let data: Vec<Vec<u8>> = (0..3)
            .map(|i| (0..64).map(|j| (i * 97 + j * 13) as u8).collect())
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
    fn triple_erasure_is_unrecoverable_rs32() {
        let codec = RsVandermonde::new(3, 2).unwrap();
        let data: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8; 16]).collect();
        let all = encode_all(&codec, &data);
        let mut shards: Vec<Option<Vec<u8>>> = all.into_iter().map(Some).collect();
        shards[0] = None;
        shards[2] = None;
        shards[4] = None;
        assert!(matches!(
            rebuild_all(&codec, &shards),
            Err(ErasureError::TooManyErasures { .. })
        ));
    }

    #[test]
    fn wide_codes_work() {
        let codec = RsVandermonde::new(10, 4).unwrap();
        let data: Vec<Vec<u8>> = (0..10)
            .map(|i| (0..33).map(|j| (i + 3 * j) as u8).collect())
            .collect();
        let all = encode_all(&codec, &data);
        let mut shards: Vec<Option<Vec<u8>>> = all.iter().cloned().map(Some).collect();
        for gone in [0, 5, 11, 13] {
            shards[gone] = None;
        }
        let rebuilt = rebuild_all(&codec, &shards).expect("4 erasures with m=4");
        assert_eq!(rebuilt, all);
    }

    #[test]
    fn no_erasure_reconstruct_is_noop() {
        let codec = RsVandermonde::new(2, 1).unwrap();
        let data = vec![vec![9u8; 5], vec![7u8; 5]];
        let all = encode_all(&codec, &data);
        let shards: Vec<Option<Vec<u8>>> = all.iter().cloned().map(Some).collect();
        assert_eq!(rebuild_all(&codec, &shards).unwrap(), all);
        let borrowed: Vec<Option<&[u8]>> = shards.iter().map(Option::as_deref).collect();
        assert_eq!(
            codec.reconstruct(&borrowed, &[]).unwrap(),
            Vec::<Vec<u8>>::new()
        );
    }

    #[test]
    fn empty_shards_encode() {
        let codec = RsVandermonde::new(3, 2).unwrap();
        let data: Vec<Vec<u8>> = vec![vec![]; 3];
        let all = encode_all(&codec, &data);
        assert!(all.iter().all(|s| s.is_empty()));
    }

    #[test]
    fn rejects_zero_k_or_m() {
        assert!(RsVandermonde::new(0, 2).is_err());
        assert!(RsVandermonde::new(3, 0).is_err());
        assert!(RsVandermonde::new(200, 100).is_err());
    }

    #[test]
    fn generator_top_block_is_identity() {
        let codec = RsVandermonde::new(4, 3).unwrap();
        let top = codec.generator().select_rows(&[0, 1, 2, 3]);
        assert!(top.is_identity());
    }

    #[test]
    fn parity_shards_differ_from_data() {
        // Guards against the degenerate "parity = copy" bug.
        let codec = RsVandermonde::new(3, 2).unwrap();
        let data: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8 + 1; 32]).collect();
        let all = encode_all(&codec, &data);
        assert_ne!(all[3], all[4]);
        for d in 0..3 {
            assert_ne!(all[3], all[d]);
        }
    }
}
