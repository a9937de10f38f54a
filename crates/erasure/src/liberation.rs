//! RAID-6 Liberation codes (Plank, FAST 2008).

use eckv_gf::BitMatrix;

use crate::bitmatrix_codec::{BitMatrixEngine, DEFAULT_PACKET_BYTES};
use crate::codec::ErasureCodec;
use crate::error::ErasureError;

/// `R6-Lib`: minimum-density RAID-6 bit-matrix codes.
///
/// Liberation codes fix `m = 2` (a P parity and a Q parity) and use a word
/// size `w` that is a prime not smaller than `k`. The P parity is the plain
/// XOR of all data shards; the Q parity uses, per data shard `i`, a cyclic
/// rotation matrix plus (for `i > 0`) a single extra bit — giving the
/// provably minimal `k*w + k - 1` ones for an MDS RAID-6 bit-matrix.
///
/// The construction is verified MDS by brute force in this crate's tests
/// for every supported `(k, w)` shape up to `w = 13`.
///
/// # Example
///
/// ```
/// use eckv_erasure::{ErasureCodec, Liberation};
///
/// let lib = Liberation::new(4, 2)?;
/// assert_eq!(lib.word_size(), 5); // smallest prime >= max(k, 3)
/// assert_eq!(lib.shard_alignment(), 5);
/// # Ok::<(), eckv_erasure::ErasureError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Liberation {
    engine: BitMatrixEngine,
}

/// Smallest prime `>= n` (and `>= 3`, since Liberation needs odd `w`).
fn next_prime_at_least(n: usize) -> usize {
    let mut c = n.max(3);
    loop {
        if is_prime(c) {
            return c;
        }
        c += 1;
    }
}

fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

impl Liberation {
    /// Builds a Liberation code for `k` data shards.
    ///
    /// The word size is chosen as the smallest prime `>= max(k, 3)`.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::InvalidParameters`] if `m != 2` or `k == 0`.
    pub fn new(k: usize, m: usize) -> Result<Self, ErasureError> {
        Self::with_packet_size(k, m, DEFAULT_PACKET_BYTES)
    }

    /// Builds a Liberation code with an explicit XOR segment size in
    /// bytes; `0` processes whole packets per XOR (tuned layout).
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::InvalidParameters`] if `m != 2` or `k == 0`.
    pub fn with_packet_size(k: usize, m: usize, packet_bytes: usize) -> Result<Self, ErasureError> {
        if m != 2 {
            return Err(ErasureError::InvalidParameters {
                reason: format!("liberation codes are RAID-6 codes: m must be 2, got {m}"),
            });
        }
        if k == 0 {
            return Err(ErasureError::InvalidParameters {
                reason: "k must be positive".to_owned(),
            });
        }
        let w = next_prime_at_least(k);
        let coding = liberation_matrix(k, w);
        Ok(Liberation {
            engine: BitMatrixEngine::new(k, 2, w, coding, packet_bytes),
        })
    }

    /// The word size `w` (a prime `>= k`); shards are split into `w` packets.
    pub fn word_size(&self) -> usize {
        self.engine.w
    }

    /// Number of ones in the coding bit-matrix: `2*k*w` would be a dense
    /// code; Liberation achieves `k*w + (k*w + k - 1)`.
    pub fn density(&self) -> u64 {
        self.engine.density()
    }

    /// Brute-force MDS check (expensive; used by tests).
    pub fn is_mds(&self) -> bool {
        self.engine.is_mds()
    }
}

/// Builds the `(2w) x (k*w)` Liberation coding matrix.
///
/// Rows `0..w` are the P parity (identity blocks). Rows `w..2w` are the Q
/// parity: shard `i` contributes the rotation `X_i` with ones at
/// `(j, (j + i) mod w)`, plus for `i > 0` one extra bit at row
/// `y = i*(w-1)/2 mod w`, column `(y + i - 1) mod w`.
fn liberation_matrix(k: usize, w: usize) -> BitMatrix {
    let mut m = BitMatrix::zero(2 * w, k * w);
    // P block: XOR of packet r of every shard.
    for r in 0..w {
        for i in 0..k {
            m.set(r, i * w + r, true);
        }
    }
    // Q block.
    for i in 0..k {
        for j in 0..w {
            m.set(w + j, i * w + (j + i) % w, true);
        }
        if i > 0 {
            let y = (i * (w - 1) / 2) % w;
            m.set(w + y, i * w + (y + i - 1) % w, true);
        }
    }
    m
}

impl ErasureCodec for Liberation {
    fn data_shards(&self) -> usize {
        self.engine.k
    }

    fn parity_shards(&self) -> usize {
        2
    }

    fn shard_alignment(&self) -> usize {
        self.engine.w
    }

    fn name(&self) -> &'static str {
        "R6-Lib"
    }

    fn cost_profile(&self) -> crate::codec::CostProfile {
        crate::codec::CostProfile::XorSchedule {
            ones: self.engine.density(),
            w: self.engine.w,
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

    #[test]
    fn next_prime_works() {
        assert_eq!(next_prime_at_least(1), 3);
        assert_eq!(next_prime_at_least(3), 3);
        assert_eq!(next_prime_at_least(4), 5);
        assert_eq!(next_prime_at_least(6), 7);
        assert_eq!(next_prime_at_least(8), 11);
        assert_eq!(next_prime_at_least(12), 13);
    }

    #[test]
    fn liberation_is_mds_for_all_supported_shapes() {
        for k in 1..=13usize {
            let lib = Liberation::new(k, 2).unwrap();
            assert!(
                lib.is_mds(),
                "liberation k={k} w={} is not MDS",
                lib.word_size()
            );
        }
    }

    #[test]
    fn density_is_minimum() {
        // Plank: a minimum-density RAID-6 bit-matrix has kw + k - 1 ones in
        // the Q block (plus kw for P).
        for k in 2..=7usize {
            let lib = Liberation::new(k, 2).unwrap();
            let w = lib.word_size() as u64;
            let k64 = k as u64;
            assert_eq!(lib.density(), k64 * w + (k64 * w + k64 - 1), "k={k}");
        }
    }

    #[test]
    fn every_double_erasure_recovers() {
        let codec = Liberation::new(3, 2).unwrap();
        let w = codec.word_size();
        let len = w * 16;
        let data: Vec<Vec<u8>> = (0..3)
            .map(|i| (0..len).map(|j| (i * 53 + j * 17) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity = vec![vec![0u8; len]; 2];
        {
            let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
            codec.encode(&refs, &mut prefs).unwrap();
        }
        let mut all = data.clone();
        all.extend(parity);
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
    fn p_parity_is_plain_xor() {
        let codec = Liberation::new(4, 2).unwrap();
        let w = codec.word_size();
        let len = w * 8;
        let data: Vec<Vec<u8>> = (0..4)
            .map(|i| (0..len).map(|j| (i * 97 + j) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity = vec![vec![0u8; len]; 2];
        {
            let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
            codec.encode(&refs, &mut prefs).unwrap();
        }
        for j in 0..len {
            let want = data.iter().fold(0u8, |acc, d| acc ^ d[j]);
            assert_eq!(parity[0][j], want, "P parity must be the XOR at {j}");
        }
    }

    #[test]
    fn rejects_wrong_m() {
        assert!(Liberation::new(3, 1).is_err());
        assert!(Liberation::new(3, 3).is_err());
        assert!(Liberation::new(0, 2).is_err());
    }
}
