//! Shared encode/reconstruct machinery for bit-matrix (XOR-only) codes.
//!
//! Both Cauchy-RS and Liberation represent their generator as a matrix over
//! GF(2). Each shard is viewed as `w` equal *packets*; coding row `r`
//! produces one output packet as the XOR of every data packet whose bit is
//! set in that row.
//!
//! # Packet size
//!
//! Jerasure walks the schedule in *segments* of a fixed `packetsize`,
//! re-applying every coding row per segment. Small packets (its examples
//! use single-digit to a-few-hundred bytes) cost one strided XOR call per
//! set bit per segment — which is exactly why the paper's Figure 4 finds
//! the XOR codes slower than `RS_Van` for 1 KB–1 MB values. The engine
//! reproduces that behaviour with a configurable [`packet_bytes`]
//! (default: Jerasure-style small segments); passing `0` uses one whole
//! packet per XOR — the tuned layout that lets XOR codes win at large
//! sizes (see the `fig4` ablation).
//!
//! [`packet_bytes`]: BitMatrixEngine::packet_bytes

use eckv_gf::{slice, BitMatrix};

use crate::codec::{check_encode_shape, reconstruct_wanted};
use crate::error::ErasureError;
use crate::schedule::{optimize, XorSchedule};

/// Jerasure-flavoured default segment size in bytes (Jerasure's own
/// examples use packet sizes of 8 bytes and up).
pub(crate) const DEFAULT_PACKET_BYTES: usize = 8;

/// XOR-code engine: `k` data shards, `m` parity shards, word size `w`, and
/// an `(m*w) x (k*w)` coding bit-matrix.
#[derive(Debug, Clone)]
pub(crate) struct BitMatrixEngine {
    pub k: usize,
    pub m: usize,
    pub w: usize,
    /// Parity rows only; the full generator is `I(k*w)` stacked above this.
    pub coding: BitMatrix,
    /// Segment size for the XOR schedule; `0` = one whole packet per XOR.
    pub packet_bytes: usize,
    /// Precomputed XOR schedule: for each coding row, the data-packet
    /// indices whose bit is set.
    schedule: Vec<Vec<usize>>,
    /// CSE-optimized schedule (whole-packet mode only); see
    /// [`crate::schedule`].
    optimized: Option<XorSchedule>,
}

impl BitMatrixEngine {
    pub fn new(k: usize, m: usize, w: usize, coding: BitMatrix, packet_bytes: usize) -> Self {
        assert_eq!(coding.rows(), m * w, "coding matrix must have m*w rows");
        assert_eq!(coding.cols(), k * w, "coding matrix must have k*w cols");
        let schedule = (0..m * w).map(|r| coding.row_ones(r)).collect();
        BitMatrixEngine {
            k,
            m,
            w,
            coding,
            packet_bytes,
            schedule,
            optimized: None,
        }
    }

    /// Switches the engine to whole-packet mode with a CSE-optimized XOR
    /// schedule (see [`crate::schedule::optimize`]): typically 25-50%
    /// fewer XOR passes on dense Cauchy matrices.
    pub fn optimize_schedule(&mut self) {
        self.packet_bytes = 0;
        self.optimized = Some(optimize(&self.coding));
    }

    /// The optimized schedule, if enabled.
    pub fn optimized_schedule(&self) -> Option<&XorSchedule> {
        self.optimized.as_ref()
    }

    /// Total XOR ops per encoded stripe; proportional to the number of ones.
    /// Exposed so benchmarks can report code density.
    pub fn density(&self) -> u64 {
        self.coding.ones()
    }

    fn segment(&self, packet_len: usize) -> usize {
        if self.packet_bytes == 0 {
            packet_len.max(1)
        } else {
            self.packet_bytes
        }
    }

    pub fn encode(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<(), ErasureError> {
        let len = check_encode_shape(self.k, self.m, self.w, data, parity)?;
        let ps = len / self.w;
        if ps == 0 {
            return Ok(());
        }
        if let Some(sched) = &self.optimized {
            // Whole-packet execution through the CSE schedule.
            let packets: Vec<&[u8]> = (0..self.k * self.w)
                .map(|j| &data[j / self.w][(j % self.w) * ps..(j % self.w + 1) * ps])
                .collect();
            let outs = sched.apply(&packets);
            for (p, out) in parity.iter_mut().enumerate() {
                for r in 0..self.w {
                    out[r * ps..(r + 1) * ps].copy_from_slice(&outs[p * self.w + r]);
                }
            }
            return Ok(());
        }
        let seg = self.segment(ps);
        let mut srcs: Vec<&[u8]> = Vec::new();
        // XORs accumulate into the zeroed parity.
        for (p, out) in parity.iter_mut().enumerate() {
            let mut off = 0;
            while off < ps {
                let chunk = seg.min(ps - off);
                for r in 0..self.w {
                    let row = p * self.w + r;
                    let dst_start = r * ps + off;
                    srcs.clear();
                    srcs.extend(self.schedule[row].iter().map(|&j| {
                        let s = (j % self.w) * ps + off;
                        &data[j / self.w][s..s + chunk]
                    }));
                    slice::xor_combine(&srcs, &mut out[dst_start..dst_start + chunk]);
                }
                off += chunk;
            }
        }
        Ok(())
    }

    /// [`crate::ErasureCodec::reconstruct`] for a bit-matrix code.
    pub fn reconstruct(
        &self,
        shards: &[Option<&[u8]>],
        wanted: &[usize],
    ) -> Result<Vec<Vec<u8>>, ErasureError> {
        let (k, w) = (self.k, self.w);
        reconstruct_wanted((k, self.m, w), shards, wanted, |len, lost| {
            // Packet rows of the full generator for the first k survivors
            // and for the lost shards: lost packet `r` of shard `i` is row
            // `i*w + r` of `G[lost] · G[chosen]⁻¹` applied to the chosen
            // packets, one XOR pass per set bit.
            let packet_rows = |shard_ids: &[usize]| -> Vec<usize> {
                shard_ids
                    .iter()
                    .flat_map(|&s| (0..w).map(move |r| s * w + r))
                    .collect()
            };
            let chosen: Vec<usize> = (0..k + self.m)
                .filter(|&i| shards[i].is_some())
                .take(k)
                .collect();
            let generator = BitMatrix::identity(k * w).vstack(&self.coding);
            let inv = generator
                .select_rows(&packet_rows(&chosen))
                .invert()
                .expect("any k shards of an MDS bit-matrix code are independent");
            let decode = generator.select_rows(&packet_rows(lost)).mul(&inv);
            let sources: Vec<&[u8]> = chosen
                .iter()
                .map(|&i| shards[i].expect("chosen shards survive"))
                .collect();

            let ps = len / w;
            let seg = self.segment(ps);
            let mut srcs: Vec<&[u8]> = Vec::new();
            let rebuilt = (0..lost.len())
                .map(|l| {
                    let rows: Vec<Vec<usize>> =
                        (0..w).map(|p| decode.row_ones(l * w + p)).collect();
                    let mut out = vec![0u8; len];
                    let mut off = 0;
                    while off < ps {
                        let chunk = seg.min(ps - off);
                        for (p, ones) in rows.iter().enumerate() {
                            let dst_start = p * ps + off;
                            srcs.clear();
                            srcs.extend(ones.iter().map(|&j| {
                                // Column j is packet j of the chosen sequence.
                                let s = (j % w) * ps + off;
                                &sources[j / w][s..s + chunk]
                            }));
                            slice::xor_combine(&srcs, &mut out[dst_start..dst_start + chunk]);
                        }
                        off += chunk;
                    }
                    out
                })
                .collect();
            Ok(rebuilt)
        })
    }

    /// Checks the MDS property by brute force: every erasure pattern of at
    /// most `m` shards must leave an invertible decoding matrix. Used by
    /// constructors in debug assertions and by tests.
    pub fn is_mds(&self) -> bool {
        let n = self.k + self.m;
        let generator = BitMatrix::identity(self.k * self.w).vstack(&self.coding);
        // Enumerate all subsets of size k (equivalently erasures of size m).
        let mut combo: Vec<usize> = (0..self.k).collect();
        loop {
            let mut rows = Vec::with_capacity(self.k * self.w);
            for &s in &combo {
                for r in 0..self.w {
                    rows.push(s * self.w + r);
                }
            }
            if generator.select_rows(&rows).invert().is_err() {
                return false;
            }
            // Next k-combination of 0..n.
            let mut i = self.k;
            loop {
                if i == 0 {
                    return true;
                }
                i -= 1;
                if combo[i] != i + n - self.k {
                    combo[i] += 1;
                    for j in i + 1..self.k {
                        combo[j] = combo[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial single-parity XOR code: parity = XOR of all data shards.
    fn xor_code(k: usize, w: usize, packet_bytes: usize) -> BitMatrixEngine {
        let mut coding = BitMatrix::zero(w, k * w);
        for r in 0..w {
            for s in 0..k {
                coding.set(r, s * w + r, true);
            }
        }
        BitMatrixEngine::new(k, 1, w, coding, packet_bytes)
    }

    fn roundtrip_all_single_erasures(eng: &BitMatrixEngine, len: usize) {
        let k = eng.k;
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..len).map(|j| (i * 31 + j) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity = vec![vec![0u8; len]];
        {
            let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
            eng.encode(&refs, &mut prefs).unwrap();
        }
        let mut all = data.clone();
        all.extend(parity);
        let every: Vec<usize> = (0..k + 1).collect();
        for gone in 0..k + 1 {
            let mut shards: Vec<Option<&[u8]>> = all.iter().map(|s| Some(&s[..])).collect();
            shards[gone] = None;
            assert_eq!(
                eng.reconstruct(&shards, &every).unwrap(),
                all,
                "gone={gone}"
            );
            assert_eq!(
                eng.reconstruct(&shards, &[gone]).unwrap(),
                [all[gone].clone()]
            );
        }
    }

    #[test]
    fn xor_code_roundtrips_every_single_erasure() {
        let eng = xor_code(4, 3, DEFAULT_PACKET_BYTES);
        assert!(eng.is_mds());
        roundtrip_all_single_erasures(&eng, 12);
    }

    #[test]
    fn packet_size_does_not_change_results() {
        // Whatever the segment size, the codewords must be identical.
        let len = 3 * 101; // odd packet length exercises ragged segments
        let data: Vec<Vec<u8>> = (0..4)
            .map(|i| (0..len).map(|j| (i * 97 + j * 13) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut outputs = Vec::new();
        for ps in [0usize, 1, 7, 64, 1024] {
            let eng = xor_code(4, 3, ps);
            let mut parity = vec![vec![0u8; len]];
            {
                let mut prefs: Vec<&mut [u8]> =
                    parity.iter_mut().map(|p| p.as_mut_slice()).collect();
                eng.encode(&refs, &mut prefs).unwrap();
            }
            outputs.push(parity.remove(0));
        }
        for o in &outputs[1..] {
            assert_eq!(o, &outputs[0]);
        }
    }

    #[test]
    fn tiny_packet_roundtrips() {
        roundtrip_all_single_erasures(&xor_code(3, 5, 1), 5 * 9);
    }

    #[test]
    fn whole_packet_roundtrips() {
        roundtrip_all_single_erasures(&xor_code(3, 5, 0), 5 * 9);
    }

    #[test]
    fn density_counts_ones() {
        let eng = xor_code(4, 3, 64);
        assert_eq!(eng.density(), 12); // 4 shards x 3 identity bits
    }

    #[test]
    fn misaligned_shards_rejected() {
        let eng = xor_code(2, 3, 64);
        let d0 = vec![0u8; 4]; // not a multiple of w=3
        let d1 = vec![0u8; 4];
        let refs: Vec<&[u8]> = vec![&d0, &d1];
        let mut p = vec![0u8; 4];
        let mut prefs: Vec<&mut [u8]> = vec![&mut p];
        assert!(matches!(
            eng.encode(&refs, &mut prefs),
            Err(ErasureError::BadAlignment { .. })
        ));
    }
}
