//! The [`ErasureCodec`] trait and codec selection.

use core::fmt;

use eckv_gf::{slice, Matrix};

use crate::error::ErasureError;
use crate::{CauchyRs, Liberation, RsVandermonde};

/// How a codec's computational cost scales, for simulation cost models.
///
/// Real encode/decode time is measured by `paper-figures fig4`; inside
/// deterministic simulations the cost model needs to know which kernel
/// family a codec uses and how much work one stripe is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostProfile {
    /// Dense GF(2^8) multiply-accumulate passes (RS-Vandermonde): encoding
    /// processes `m * D` bytes through the multiply kernel.
    FieldMul,
    /// An XOR schedule over `w`-packet shards with `ones` set bits in the
    /// coding bit-matrix (Cauchy-RS, Liberation).
    XorSchedule {
        /// Total set bits in the coding matrix (XOR ops per stripe).
        ones: u64,
        /// Word size: each shard is `w` packets.
        w: usize,
    },
}

/// A systematic maximum-distance-separable erasure code.
///
/// A codec splits a value into `k` *data shards* and derives `m` *parity
/// shards*; the original data is recoverable from **any** `k` of the
/// `k + m` shards (the MDS property), tolerating up to `m` erasures.
///
/// Shards are indexed `0..k` (data) then `k..k+m` (parity). All shards in a
/// stripe have equal length, which must be a multiple of
/// [`shard_alignment`](ErasureCodec::shard_alignment).
///
/// Implementations are [`Send`] + [`Sync`] so a single codec can be shared
/// across encoder threads.
pub trait ErasureCodec: Send + Sync + fmt::Debug {
    /// Number of data shards (`k`).
    fn data_shards(&self) -> usize;

    /// Number of parity shards (`m`).
    fn parity_shards(&self) -> usize;

    /// Total shards (`k + m`).
    fn total_shards(&self) -> usize {
        self.data_shards() + self.parity_shards()
    }

    /// Required alignment of each shard length, in bytes.
    fn shard_alignment(&self) -> usize;

    /// Short human-readable codec name (e.g. `"RS_Van"`).
    fn name(&self) -> &'static str;

    /// Which kernel family this codec uses and how much work one stripe is
    /// (see [`CostProfile`]).
    fn cost_profile(&self) -> CostProfile;

    /// Computes parity shards from data shards.
    ///
    /// `data` must contain exactly `k` equal-length slices, `parity` exactly
    /// `m` equal-length buffers of the same length.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::ShapeMismatch`] or
    /// [`ErasureError::BadAlignment`] on malformed input.
    fn encode(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<(), ErasureError>;

    /// Rebuilds the shards at the indices in `wanted` from borrowed
    /// survivors.
    ///
    /// `shards` must have length `k + m`; surviving shards are `Some` and
    /// must share one length. Returns one buffer per entry of `wanted`, in
    /// order: a lost shard rebuilt, a surviving one copied. Nothing else is
    /// copied, and nothing is rebuilt when every wanted shard survives, so
    /// an empty `wanted` only checks the survivors' shape.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::TooManyErasures`] when fewer than `k` shards
    /// survive (or, for a non-MDS code, when the survivors cannot determine
    /// a wanted shard), [`ErasureError::ShapeMismatch`] when survivor
    /// lengths differ or a wanted index is not below `k + m`, and
    /// [`ErasureError::BadAlignment`] for a misaligned survivor length.
    fn reconstruct(
        &self,
        shards: &[Option<&[u8]>],
        wanted: &[usize],
    ) -> Result<Vec<Vec<u8>>, ErasureError>;
}

/// Validates the common shard-shape preconditions shared by all codecs.
pub(crate) fn check_encode_shape(
    k: usize,
    m: usize,
    alignment: usize,
    data: &[&[u8]],
    parity: &[&mut [u8]],
) -> Result<usize, ErasureError> {
    if data.len() != k {
        return Err(ErasureError::ShapeMismatch {
            detail: format!("expected {k} data shards, got {}", data.len()),
        });
    }
    if parity.len() != m {
        return Err(ErasureError::ShapeMismatch {
            detail: format!("expected {m} parity shards, got {}", parity.len()),
        });
    }
    let len = data[0].len();
    if data.iter().any(|s| s.len() != len) || parity.iter().any(|s| s.len() != len) {
        return Err(ErasureError::ShapeMismatch {
            detail: "all shards must have equal length".to_owned(),
        });
    }
    if !len.is_multiple_of(alignment) {
        return Err(ErasureError::BadAlignment {
            shard_len: len,
            alignment,
        });
    }
    Ok(len)
}

/// Validates reconstruction input and returns the common shard length.
pub(crate) fn check_reconstruct_shape(
    k: usize,
    m: usize,
    alignment: usize,
    shards: &[Option<&[u8]>],
    wanted: &[usize],
) -> Result<usize, ErasureError> {
    if shards.len() != k + m {
        return Err(ErasureError::ShapeMismatch {
            detail: format!("expected {} shard slots, got {}", k + m, shards.len()),
        });
    }
    if let Some(&bad) = wanted.iter().find(|&&i| i >= k + m) {
        return Err(ErasureError::ShapeMismatch {
            detail: format!("wanted shard {bad} of a {}-shard stripe", k + m),
        });
    }
    let present: Vec<&[u8]> = shards.iter().flatten().copied().collect();
    if present.len() < k {
        return Err(ErasureError::TooManyErasures {
            present: present.len(),
            required: k,
        });
    }
    let len = present[0].len();
    if present.iter().any(|s| s.len() != len) {
        return Err(ErasureError::ShapeMismatch {
            detail: "all present shards must have equal length".to_owned(),
        });
    }
    if !len.is_multiple_of(alignment) {
        return Err(ErasureError::BadAlignment {
            shard_len: len,
            alignment,
        });
    }
    Ok(len)
}

/// The shared body of every [`ErasureCodec::reconstruct`]: checks the
/// input, copies the wanted survivors, and calls `solve(len, lost)` once,
/// only if a wanted shard is lost, to rebuild the `lost` shards in order.
pub(crate) fn reconstruct_wanted(
    (k, m, alignment): (usize, usize, usize),
    shards: &[Option<&[u8]>],
    wanted: &[usize],
    solve: impl FnOnce(usize, &[usize]) -> Result<Vec<Vec<u8>>, ErasureError>,
) -> Result<Vec<Vec<u8>>, ErasureError> {
    let len = check_reconstruct_shape(k, m, alignment, shards, wanted)?;
    let lost: Vec<usize> = wanted
        .iter()
        .copied()
        .filter(|&i| shards[i].is_none())
        .collect();
    let mut rebuilt = if lost.is_empty() {
        Vec::new()
    } else {
        solve(len, &lost)?
    }
    .into_iter();
    Ok(wanted
        .iter()
        .map(|&i| match shards[i] {
            Some(survivor) => survivor.to_vec(),
            None => rebuilt.next().expect("one rebuilt shard per lost one"),
        })
        .collect())
}

/// Rebuilds the `lost` shards of a code with GF(2^8) generator matrix
/// `generator` from the survivors at `chosen`, whose generator rows must be
/// independent: shard `i` is `G[i] · G[chosen]⁻¹` applied to the chosen
/// shards, all rows in one fused pass over the sources.
pub(crate) fn solve_from_generator(
    generator: &Matrix,
    chosen: &[usize],
    shards: &[Option<&[u8]>],
    lost: &[usize],
    len: usize,
) -> Vec<Vec<u8>> {
    let inv = generator
        .select_rows(chosen)
        .invert()
        .expect("chosen generator rows are independent");
    let decode = generator.select_rows(lost).mul(&inv);
    let coeffs: Vec<&[u8]> = (0..lost.len()).map(|r| decode.row(r)).collect();
    let sources: Vec<&[u8]> = chosen
        .iter()
        .map(|&i| shards[i].expect("chosen shards survive"))
        .collect();
    let mut out = vec![vec![0u8; len]; lost.len()];
    let mut dsts: Vec<&mut [u8]> = out.iter_mut().map(Vec::as_mut_slice).collect();
    slice::matrix_mac(&coeffs, &sources, &mut dsts);
    out
}

/// Test shorthand: every shard of a stripe rebuilt (or copied) from the
/// survivors in `shards`.
#[cfg(test)]
pub(crate) fn rebuild_all(
    codec: &dyn ErasureCodec,
    shards: &[Option<Vec<u8>>],
) -> Result<Vec<Vec<u8>>, ErasureError> {
    let borrowed: Vec<Option<&[u8]>> = shards.iter().map(Option::as_deref).collect();
    let all: Vec<usize> = (0..shards.len()).collect();
    codec.reconstruct(&borrowed, &all)
}

/// Selects one of the three implemented codec families.
///
/// Mirrors the paper's Jerasure study: `RS_Van`, `CRS`, `R6-Lib`.
///
/// # Example
///
/// ```
/// use eckv_erasure::CodecKind;
///
/// let codec = CodecKind::CauchyRs.build(4, 2)?;
/// assert_eq!(codec.total_shards(), 6);
/// # Ok::<(), eckv_erasure::ErasureError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// Reed-Solomon with a systematized Vandermonde generator matrix.
    RsVan,
    /// Cauchy Reed-Solomon over a bit-matrix (XOR-only encoding).
    CauchyRs,
    /// RAID-6 Liberation minimum-density codes (requires `m == 2`).
    Liberation,
}

impl CodecKind {
    /// All codec kinds, in the order the paper plots them.
    pub const ALL: [CodecKind; 3] = [CodecKind::RsVan, CodecKind::CauchyRs, CodecKind::Liberation];

    /// Constructs a boxed codec with the given `(k, m)`.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::InvalidParameters`] when the family does not
    /// support the shape (e.g. Liberation with `m != 2`).
    pub fn build(self, k: usize, m: usize) -> Result<Box<dyn ErasureCodec>, ErasureError> {
        Ok(match self {
            CodecKind::RsVan => Box::new(RsVandermonde::new(k, m)?),
            CodecKind::CauchyRs => Box::new(CauchyRs::new(k, m)?),
            CodecKind::Liberation => Box::new(Liberation::new(k, m)?),
        })
    }

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            CodecKind::RsVan => "RS_Van",
            CodecKind::CauchyRs => "CRS",
            CodecKind::Liberation => "R6-Lib",
        }
    }
}

impl fmt::Display for CodecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_all_kinds() {
        for kind in CodecKind::ALL {
            let c = kind.build(3, 2).expect("3+2 is valid for all kinds");
            assert_eq!(c.data_shards(), 3);
            assert_eq!(c.parity_shards(), 2);
            assert_eq!(c.total_shards(), 5);
            assert_eq!(c.name(), kind.label());
        }
    }

    #[test]
    fn liberation_rejects_m3() {
        assert!(matches!(
            CodecKind::Liberation.build(3, 3),
            Err(ErasureError::InvalidParameters { .. })
        ));
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(CodecKind::RsVan.to_string(), "RS_Van");
        assert_eq!(CodecKind::CauchyRs.to_string(), "CRS");
        assert_eq!(CodecKind::Liberation.to_string(), "R6-Lib");
    }

    #[test]
    fn shape_checks_reject_bad_input() {
        let d1 = [1u8, 2, 3];
        let d2 = [4u8, 5];
        let data: Vec<&[u8]> = vec![&d1, &d2];
        let mut p1 = vec![0u8; 3];
        let parity: Vec<&mut [u8]> = vec![&mut p1];
        assert!(matches!(
            check_encode_shape(2, 1, 1, &data, &parity),
            Err(ErasureError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn reconstruct_shape_checks() {
        let (a, b) = ([0u8; 4], [0u8; 3]);
        assert!(matches!(
            check_reconstruct_shape(2, 1, 1, &[Some(&a), None, None], &[]),
            Err(ErasureError::TooManyErasures {
                present: 1,
                required: 2
            })
        ));
        assert!(matches!(
            check_reconstruct_shape(2, 1, 1, &[Some(&a), Some(&b), None], &[]),
            Err(ErasureError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            check_reconstruct_shape(2, 1, 2, &[Some(&b), Some(&b), None], &[]),
            Err(ErasureError::BadAlignment { .. })
        ));
        assert!(matches!(
            check_reconstruct_shape(2, 1, 1, &[Some(&b), Some(&b), None], &[3]),
            Err(ErasureError::ShapeMismatch { .. })
        ));
        assert_eq!(
            check_reconstruct_shape(2, 1, 1, &[Some(&b), Some(&b), None], &[2]),
            Ok(3)
        );
    }
}
