//! Locally repairable codes (the paper's future work: "optimized erasure
//! codes such as locally repairable codes").
//!
//! An `LRC(k, l, r)` splits the `k` data shards into `l` local groups,
//! each protected by one XOR *local parity*, and adds `r` Reed-Solomon
//! *global parities* over all data. A single lost shard is repaired from
//! its group alone — `k/l` reads instead of the `k` reads Reed-Solomon
//! needs — which is exactly the recovery-overhead optimization the paper
//! plans to adopt.
//!
//! Unlike the MDS codes in this crate, an LRC does **not** guarantee
//! recovery from every `l + r`-erasure pattern; decodability is determined
//! information-theoretically (the surviving generator rows must span the
//! data space), and [`Lrc::reconstruct`] reports unrecoverable patterns as
//! [`ErasureError::TooManyErasures`].

use eckv_gf::{slice, Matrix};

use crate::codec::{
    check_encode_shape, reconstruct_wanted, solve_from_generator, CostProfile, ErasureCodec,
};
use crate::error::ErasureError;

/// Azure-style local reconstruction code.
///
/// Shard layout: `0..k` data, `k..k+l` local parities (group `j` covers
/// data shards `j*k/l..(j+1)*k/l`), `k+l..k+l+r` global parities.
///
/// # Example
///
/// ```
/// use eckv_erasure::{ErasureCodec, Lrc};
///
/// let lrc = Lrc::new(6, 2, 2)?;
/// assert_eq!(lrc.total_shards(), 10);
/// // Repairing one data shard touches only its local group:
/// assert_eq!(lrc.repair_reads(0), 3);
/// # Ok::<(), eckv_erasure::ErasureError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Lrc {
    k: usize,
    l: usize,
    r: usize,
    /// Full `(k + l + r) x k` generator: identity, local parities, global
    /// parities.
    generator: Matrix,
}

impl Lrc {
    /// Builds an `LRC(k, l, r)`.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::InvalidParameters`] unless `l` divides `k`,
    /// all of `k`, `l`, `r` are positive, and the shard count fits GF(2^8).
    pub fn new(k: usize, l: usize, r: usize) -> Result<Self, ErasureError> {
        if k == 0 || l == 0 || r == 0 {
            return Err(ErasureError::InvalidParameters {
                reason: "k, l and r must be positive".to_owned(),
            });
        }
        if !k.is_multiple_of(l) {
            return Err(ErasureError::InvalidParameters {
                reason: format!("l = {l} must divide k = {k}"),
            });
        }
        if k + l + r > 256 {
            return Err(ErasureError::InvalidParameters {
                reason: format!("k + l + r = {} exceeds the GF(2^8) limit", k + l + r),
            });
        }
        let group = k / l;
        // Build the fixed part: identity + group-XOR local parities.
        let mut base = Matrix::zero(k + l + r, k);
        for i in 0..k {
            base.set(i, i, 1);
        }
        for j in 0..l {
            for c in j * group..(j + 1) * group {
                base.set(k + j, c, 1);
            }
        }
        // Global parity coefficients must make the code *maximally
        // recoverable* — every pattern of up to r + l erasures that is
        // information-theoretically recoverable must actually be decodable
        // (in particular every r + 1 erasure pattern). A Cauchy family is
        // searched and each candidate brute-force verified; the shapes used
        // in practice settle on the first few attempts.
        for attempt in 0..64u8 {
            let mut generator = base.clone();
            for p in 0..r {
                for c in 0..k {
                    let x = eckv_gf::Gf256::new(
                        (k as u8)
                            .wrapping_add(p as u8)
                            .wrapping_add(attempt.wrapping_mul(31))
                            .wrapping_add(64),
                    );
                    let y = eckv_gf::Gf256::new(c as u8);
                    let Some(e) = (x + y).inv() else {
                        // x collided with a data index; this attempt's
                        // family is degenerate, try the next.
                        continue;
                    };
                    generator.set(k + l + p, c, e.value());
                }
            }
            let candidate = Lrc { k, l, r, generator };
            if candidate.all_small_patterns_recoverable() {
                return Ok(candidate);
            }
        }
        Err(ErasureError::InvalidParameters {
            reason: format!(
                "no maximally recoverable LRC({k},{l},{r}) found in the searched family"
            ),
        })
    }

    /// Verifies every erasure pattern of at most `r + 1` shards decodes
    /// (the MR guarantee Azure-style LRCs provide).
    fn all_small_patterns_recoverable(&self) -> bool {
        let n = self.total_shards();
        let budget = self.r + 1;
        // Enumerate all subsets of size <= budget via bitmask recursion.
        fn rec(lrc: &Lrc, start: usize, lost: &mut Vec<usize>, budget: usize, n: usize) -> bool {
            if !lost.is_empty() && !lrc.is_recoverable(lost) {
                return false;
            }
            if lost.len() == budget {
                return true;
            }
            for i in start..n {
                lost.push(i);
                if !rec(lrc, i + 1, lost, budget, n) {
                    return false;
                }
                lost.pop();
            }
            true
        }
        rec(self, 0, &mut Vec::new(), budget, n)
    }

    /// Number of local groups.
    pub fn groups(&self) -> usize {
        self.l
    }

    /// Number of global parities.
    pub fn global_parities(&self) -> usize {
        self.r
    }

    /// Shards read to repair a single lost shard: group size for data and
    /// local parities (local repair), `k` for a global parity.
    pub fn repair_reads(&self, lost: usize) -> usize {
        if lost < self.k + self.l {
            self.k / self.l
        } else {
            self.k
        }
    }

    /// The shards a local repair of `lost` reads: the rest of its group
    /// plus the group's local parity (for data and local-parity shards),
    /// or all `k` data shards (for a global parity).
    pub fn repair_set(&self, lost: usize) -> Vec<usize> {
        let group = self.k / self.l;
        if lost < self.k {
            let g = lost / group;
            let mut set: Vec<usize> = (g * group..(g + 1) * group)
                .filter(|&i| i != lost)
                .collect();
            set.push(self.k + g);
            set
        } else if lost < self.k + self.l {
            let g = lost - self.k;
            (g * group..(g + 1) * group).collect()
        } else {
            (0..self.k).collect()
        }
    }

    /// Repairs a single lost shard from exactly its [`Lrc::repair_set`].
    /// Data and local-parity shards repair by a plain group XOR (`k/l`
    /// reads); a global parity re-encodes from the data.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::ShapeMismatch`] if `sources` is not exactly
    /// the repair set (any order) or lengths differ.
    pub fn repair_single(
        &self,
        lost: usize,
        sources: &[(usize, &[u8])],
    ) -> Result<Vec<u8>, ErasureError> {
        let mut want = self.repair_set(lost);
        want.sort_unstable();
        let mut have: Vec<usize> = sources.iter().map(|&(i, _)| i).collect();
        have.sort_unstable();
        if want != have {
            return Err(ErasureError::ShapeMismatch {
                detail: format!("repair of {lost} needs shards {want:?}, got {have:?}"),
            });
        }
        let len = sources[0].1.len();
        if sources.iter().any(|(_, s)| s.len() != len) {
            return Err(ErasureError::ShapeMismatch {
                detail: "repair sources must share one length".to_owned(),
            });
        }
        if lost < self.k + self.l {
            // Group XOR: parity = sum of group, so the missing member is
            // the XOR of everything else in the local equation.
            let mut out = vec![0u8; len];
            for (_, s) in sources {
                eckv_gf::slice::xor_slice(s, &mut out);
            }
            Ok(out)
        } else {
            // Global parity: re-encode its row from the data shards.
            let mut ordered = sources.to_vec();
            ordered.sort_unstable_by_key(|&(i, _)| i);
            let data: Vec<&[u8]> = ordered.iter().map(|&(_, s)| s).collect();
            let mut out = vec![0u8; len];
            slice::row_combine(self.generator.row(lost), &data, &mut out);
            Ok(out)
        }
    }

    /// Whether the erasure pattern (set of lost shard indices) is
    /// information-theoretically recoverable.
    pub fn is_recoverable(&self, lost: &[usize]) -> bool {
        let available: Vec<usize> = (0..self.total_shards())
            .filter(|i| !lost.contains(i))
            .collect();
        self.independent_rows(&available).is_some()
    }

    /// Finds `k` linearly independent generator rows among `available`,
    /// greedily (Gaussian elimination over the candidates).
    fn independent_rows(&self, available: &[usize]) -> Option<Vec<usize>> {
        let mut basis: Vec<Vec<u8>> = Vec::with_capacity(self.k);
        let mut chosen = Vec::with_capacity(self.k);
        for &row_idx in available {
            if chosen.len() == self.k {
                break;
            }
            let mut row: Vec<u8> = self.generator.row(row_idx).to_vec();
            // Reduce against the current basis.
            for b in &basis {
                let lead = b.iter().position(|&x| x != 0).expect("basis rows nonzero");
                if row[lead] != 0 {
                    let f = row[lead];
                    let binv = eckv_gf::Gf256::new(b[lead]).inv().expect("lead nonzero");
                    let scale = (eckv_gf::Gf256::new(f) * binv).value();
                    for (x, &bv) in row.iter_mut().zip(b) {
                        *x ^= eckv_gf::Gf256::mul_bytes(scale, bv);
                    }
                }
            }
            if row.iter().any(|&x| x != 0) {
                basis.push(row);
                chosen.push(row_idx);
            }
        }
        if chosen.len() == self.k {
            Some(chosen)
        } else {
            None
        }
    }
}

impl ErasureCodec for Lrc {
    fn data_shards(&self) -> usize {
        self.k
    }

    fn parity_shards(&self) -> usize {
        self.l + self.r
    }

    fn shard_alignment(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "LRC"
    }

    fn cost_profile(&self) -> CostProfile {
        CostProfile::FieldMul
    }

    fn encode(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<(), ErasureError> {
        check_encode_shape(self.k, self.l + self.r, 1, data, parity)?;
        // Fused multi-row pass over the sources; the all-0/1 local-parity
        // rows take the pure-XOR path inside the kernel automatically.
        for out in parity.iter_mut() {
            out.fill(0);
        }
        let coeffs: Vec<&[u8]> = (0..self.l + self.r)
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
        // The shape check keeps the `>= k present` floor; rank decides
        // actual recoverability.
        reconstruct_wanted((self.k, self.l + self.r, 1), shards, wanted, |len, lost| {
            let present: Vec<usize> = (0..self.total_shards())
                .filter(|&i| shards[i].is_some())
                .collect();
            let chosen = self
                .independent_rows(&present)
                .ok_or(ErasureError::TooManyErasures {
                    present: present.len(),
                    required: self.k,
                })?;
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
    use crate::codec::rebuild_all;

    fn encode_all(codec: &Lrc, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
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

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| (i * 101 + j * 7) as u8).collect())
            .collect()
    }

    #[test]
    fn local_parity_is_group_xor() {
        let lrc = Lrc::new(6, 2, 2).unwrap();
        let data = sample_data(6, 32);
        let all = encode_all(&lrc, &data);
        for j in 0..32 {
            let g0 = data[0][j] ^ data[1][j] ^ data[2][j];
            let g1 = data[3][j] ^ data[4][j] ^ data[5][j];
            assert_eq!(all[6][j], g0);
            assert_eq!(all[7][j], g1);
        }
    }

    #[test]
    fn every_triple_erasure_of_lrc_6_2_2_recovers() {
        // LRC(6,2,2) has 4 parities and tolerates ANY 3 erasures (it is
        // maximally recoverable for this shape with RS global parities).
        let lrc = Lrc::new(6, 2, 2).unwrap();
        let data = sample_data(6, 40);
        let all = encode_all(&lrc, &data);
        let n = all.len();
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let mut shards: Vec<Option<Vec<u8>>> = all.iter().cloned().map(Some).collect();
                    shards[a] = None;
                    shards[b] = None;
                    shards[c] = None;
                    assert!(
                        lrc.is_recoverable(&[a, b, c]),
                        "pattern ({a},{b},{c}) should be recoverable"
                    );
                    let rebuilt = rebuild_all(&lrc, &shards).expect("recoverable");
                    assert_eq!(rebuilt, all, "({a},{b},{c})");
                }
            }
        }
    }

    #[test]
    fn most_quadruple_erasures_recover_but_not_all() {
        let lrc = Lrc::new(6, 2, 2).unwrap();
        let n = lrc.total_shards();
        let mut recoverable = 0;
        let mut total = 0;
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    for d in (c + 1)..n {
                        total += 1;
                        if lrc.is_recoverable(&[a, b, c, d]) {
                            recoverable += 1;
                        }
                    }
                }
            }
        }
        // 4 erasures exceed some patterns' information (e.g. a whole local
        // group plus its parity plus one more than global parities cover).
        assert!(recoverable < total, "LRC must not be MDS at 4 erasures");
        assert!(
            recoverable * 100 >= total * 70,
            "most 4-erasure patterns should still recover: {recoverable}/{total}"
        );
    }

    #[test]
    fn recoverable_patterns_roundtrip_bytes() {
        let lrc = Lrc::new(4, 2, 2).unwrap();
        let data = sample_data(4, 25);
        let all = encode_all(&lrc, &data);
        let n = all.len();
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let lost = [a, b, c];
                    let mut shards: Vec<Option<Vec<u8>>> = all.iter().cloned().map(Some).collect();
                    for &x in &lost {
                        shards[x] = None;
                    }
                    match rebuild_all(&lrc, &shards) {
                        Ok(rebuilt) => assert_eq!(rebuilt, all),
                        Err(ErasureError::TooManyErasures { .. }) => {
                            assert!(!lrc.is_recoverable(&lost));
                        }
                        Err(e) => panic!("unexpected error {e}"),
                    }
                }
            }
        }
    }

    #[test]
    fn repair_locality_beats_reed_solomon() {
        let lrc = Lrc::new(6, 2, 2).unwrap();
        // One lost data shard: 3 local reads instead of RS(6, x)'s 6.
        assert_eq!(lrc.repair_reads(2), 3);
        assert_eq!(lrc.repair_reads(6), 3); // local parity too
        assert_eq!(lrc.repair_reads(9), 6); // global parity needs full read
    }

    #[test]
    fn local_repair_reconstructs_every_shard_kind() {
        let lrc = Lrc::new(6, 2, 2).unwrap();
        let data = sample_data(6, 48);
        let all = encode_all(&lrc, &data);
        for lost in 0..lrc.total_shards() {
            let set = lrc.repair_set(lost);
            assert_eq!(set.len(), lrc.repair_reads(lost));
            let sources: Vec<(usize, &[u8])> =
                set.iter().map(|&i| (i, all[i].as_slice())).collect();
            let rebuilt = lrc.repair_single(lost, &sources).expect("repairable");
            assert_eq!(rebuilt, all[lost], "lost={lost}");
        }
    }

    #[test]
    fn local_repair_rejects_wrong_sources() {
        let lrc = Lrc::new(4, 2, 2).unwrap();
        let data = sample_data(4, 10);
        let all = encode_all(&lrc, &data);
        let sources: Vec<(usize, &[u8])> = vec![(2, all[2].as_slice())];
        assert!(lrc.repair_single(0, &sources).is_err());
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Lrc::new(5, 2, 2).is_err()); // l does not divide k
        assert!(Lrc::new(0, 1, 1).is_err());
        assert!(Lrc::new(6, 0, 2).is_err());
        assert!(Lrc::new(6, 2, 0).is_err());
        assert!(Lrc::new(250, 5, 5).is_err());
    }

    #[test]
    fn works_with_striper() {
        use crate::stripe::Striper;
        use std::sync::Arc;
        let striper = Striper::new(
            Arc::new(Lrc::new(4, 2, 2).unwrap()) as Arc<dyn crate::codec::ErasureCodec>
        );
        let value: Vec<u8> = (0..5000u32).map(|i| (i % 253) as u8).collect();
        let stripe = striper.encode_value(&value);
        let mut shards: Vec<Option<Vec<u8>>> = stripe.shards.iter().cloned().map(Some).collect();
        shards[1] = None;
        shards[5] = None;
        let got = striper.decode_value(&shards, stripe.original_len).unwrap();
        assert_eq!(got, value);
    }
}
