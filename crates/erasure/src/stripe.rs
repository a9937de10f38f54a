//! Value framing: split arbitrary-length values into aligned stripes.

use std::ops::Range;
use std::sync::Arc;

use crate::codec::ErasureCodec;
use crate::error::ErasureError;

/// An encoded stripe: `k + m` equal-length shards plus the framing needed to
/// recover the exact original value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedStripe {
    /// All shards: indices `0..k` are data, `k..k+m` parity.
    pub shards: Vec<Vec<u8>>,
    /// Length of the original (unpadded) value in bytes.
    pub original_len: usize,
    /// Length of each shard in bytes.
    pub shard_len: usize,
}

/// Splits values into codec-aligned shards and reassembles them.
///
/// The striper owns a shared [`ErasureCodec`] so clients, servers and
/// benchmark drivers can encode concurrently from one instance.
///
/// # Example
///
/// ```
/// use eckv_erasure::{CodecKind, Striper};
///
/// let striper = Striper::new(CodecKind::Liberation.build(3, 2)?);
/// let stripe = striper.encode_value(&vec![42u8; 10_000]);
/// assert_eq!(stripe.shards.len(), 5);
/// assert_eq!(stripe.shards[0].len(), stripe.shard_len);
/// # Ok::<(), eckv_erasure::ErasureError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Striper {
    codec: Arc<dyn ErasureCodec>,
}

impl Striper {
    /// Wraps a codec.
    pub fn new(codec: impl Into<Arc<dyn ErasureCodec>>) -> Self {
        Striper {
            codec: codec.into(),
        }
    }

    /// The wrapped codec.
    pub fn codec(&self) -> &Arc<dyn ErasureCodec> {
        &self.codec
    }

    /// Shard length used for a value of `len` bytes: `ceil(len / k)` rounded
    /// up to the codec's alignment (and at least one alignment unit so empty
    /// values still produce well-formed stripes).
    pub fn shard_len_for(&self, len: usize) -> usize {
        let k = self.codec.data_shards();
        let align = self.codec.shard_alignment();
        let per_shard = len.div_ceil(k).max(1);
        per_shard.div_ceil(align) * align
    }

    /// The bytes of a `len`-byte value that data shard `i` carries, for a
    /// shard length of `shard_len` (from [`Striper::shard_len_for`]): the
    /// shard is `value[range]` zero-padded to `shard_len`, so a shard whose
    /// range is a whole `shard_len` long is a plain sub-slice of the value.
    pub fn data_range(len: usize, shard_len: usize, i: usize) -> Range<usize> {
        (i * shard_len).min(len)..((i + 1) * shard_len).min(len)
    }

    /// Data shard `i` of `value` as an owned buffer: `value[data_range]`
    /// zero-padded to `shard_len`.
    pub fn padded_data_shard(value: &[u8], shard_len: usize, i: usize) -> Vec<u8> {
        let mut shard = Vec::with_capacity(shard_len);
        shard.extend_from_slice(&value[Self::data_range(value.len(), shard_len, i)]);
        shard.resize(shard_len, 0);
        shard
    }

    /// Computes the `m` parity shards of `k` equal-length data shards.
    pub fn encode_parity(&self, data: &[&[u8]]) -> Vec<Vec<u8>> {
        let shard_len = data.first().map_or(0, |d| d.len());
        // One zeroed allocation per shard: `vec![vec![..]; m]` would clone
        // (allocate and copy) the first buffer for every further shard.
        let mut parity: Vec<Vec<u8>> = (0..self.codec.parity_shards())
            .map(|_| vec![0u8; shard_len])
            .collect();
        let mut prefs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        self.codec
            .encode(data, &mut prefs)
            .expect("data shards shaped by the striper are well-formed");
        parity
    }

    /// Encodes a value into `k + m` owned shards, zero-padding the tail.
    pub fn encode_value(&self, value: &[u8]) -> EncodedStripe {
        let shard_len = self.shard_len_for(value.len());
        let mut shards: Vec<Vec<u8>> = (0..self.codec.data_shards())
            .map(|i| Self::padded_data_shard(value, shard_len, i))
            .collect();
        let refs: Vec<&[u8]> = shards.iter().map(Vec::as_slice).collect();
        let parity = self.encode_parity(&refs);
        shards.extend(parity);
        EncodedStripe {
            shards,
            original_len: value.len(),
            shard_len,
        }
    }

    /// Decodes a value of `original_len` bytes from the surviving shards
    /// of its stripe, handing its bytes to `sink` in order, without the
    /// padding. Surviving data shards are read in place; only lost data
    /// shards are rebuilt, and parity is never rebuilt.
    ///
    /// `shards` must have `k + m` slots; missing shards are `None`.
    ///
    /// # Errors
    ///
    /// Returns [`ErasureError::TooManyErasures`] when fewer than `k` shards
    /// survive, or a shape error on malformed input; `sink` sees nothing
    /// then.
    pub fn decode_value_into<S: AsRef<[u8]>>(
        &self,
        shards: &[Option<S>],
        original_len: usize,
        mut sink: impl FnMut(&[u8]),
    ) -> Result<(), ErasureError> {
        let k = self.codec.data_shards();
        let borrowed: Vec<Option<&[u8]>> = shards
            .iter()
            .map(|s| s.as_ref().map(AsRef::as_ref))
            .collect();
        let lost: Vec<usize> = (0..k.min(borrowed.len()))
            .filter(|&i| borrowed[i].is_none())
            .collect();
        let rebuilt = self.codec.reconstruct(&borrowed, &lost)?;
        let mut rebuilt = rebuilt.iter();
        let mut left = original_len;
        for shard in &borrowed[..k] {
            if left == 0 {
                break;
            }
            let shard: &[u8] = match shard {
                Some(survivor) => survivor,
                None => rebuilt.next().expect("one rebuilt shard per lost one"),
            };
            let take = left.min(shard.len());
            sink(&shard[..take]);
            left -= take;
        }
        Ok(())
    }

    /// Reconstructs the original value from surviving shards: the owned
    /// form of [`Striper::decode_value_into`].
    ///
    /// # Errors
    ///
    /// As [`Striper::decode_value_into`].
    pub fn decode_value<S: AsRef<[u8]>>(
        &self,
        shards: &[Option<S>],
        original_len: usize,
    ) -> Result<Vec<u8>, ErasureError> {
        let mut value = Vec::with_capacity(original_len);
        self.decode_value_into(shards, original_len, |piece| value.extend_from_slice(piece))?;
        Ok(value)
    }
}

impl From<Box<dyn ErasureCodec>> for Striper {
    fn from(codec: Box<dyn ErasureCodec>) -> Self {
        Striper {
            codec: Arc::from(codec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CodecKind;

    fn striper(kind: CodecKind) -> Striper {
        Striper::from(kind.build(3, 2).unwrap())
    }

    #[test]
    fn roundtrip_exact_lengths_all_codecs() {
        for kind in CodecKind::ALL {
            let s = striper(kind);
            for len in [0usize, 1, 2, 3, 7, 15, 16, 100, 1024, 4096, 10_000] {
                let value: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
                let stripe = s.encode_value(&value);
                let shards: Vec<Option<Vec<u8>>> =
                    stripe.shards.iter().cloned().map(Some).collect();
                let got = s.decode_value(&shards, stripe.original_len).unwrap();
                assert_eq!(got, value, "{kind} len={len}");
            }
        }
    }

    #[test]
    fn roundtrip_with_two_erasures_all_codecs() {
        for kind in CodecKind::ALL {
            let s = striper(kind);
            let value: Vec<u8> = (0..5000).map(|i| (i * 13) as u8).collect();
            let stripe = s.encode_value(&value);
            for a in 0..5 {
                for b in (a + 1)..5 {
                    let mut shards: Vec<Option<Vec<u8>>> =
                        stripe.shards.iter().cloned().map(Some).collect();
                    shards[a] = None;
                    shards[b] = None;
                    let got = s.decode_value(&shards, stripe.original_len).unwrap();
                    assert_eq!(got, value, "{kind} erased {a},{b}");
                }
            }
        }
    }

    #[test]
    fn shard_len_respects_alignment() {
        let s = striper(CodecKind::Liberation);
        let w = 3; // liberation k=3 -> smallest prime >= 3 is 3
        for len in [1usize, 10, 100, 12345] {
            let sl = s.shard_len_for(len);
            assert_eq!(sl % w, 0, "len={len}");
            assert!(sl * 3 >= len);
        }
    }

    #[test]
    fn empty_value_roundtrips() {
        let s = striper(CodecKind::RsVan);
        let stripe = s.encode_value(&[]);
        assert!(stripe.shard_len > 0);
        let mut shards: Vec<Option<Vec<u8>>> = stripe.shards.iter().cloned().map(Some).collect();
        shards[0] = None;
        let got = s.decode_value(&shards, 0).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn decode_fails_cleanly_beyond_m_erasures() {
        let s = striper(CodecKind::CauchyRs);
        let stripe = s.encode_value(&[1, 2, 3, 4, 5]);
        let mut shards: Vec<Option<Vec<u8>>> = stripe.shards.iter().cloned().map(Some).collect();
        shards[0] = None;
        shards[1] = None;
        shards[2] = None;
        assert!(matches!(
            s.decode_value(&shards, stripe.original_len),
            Err(ErasureError::TooManyErasures { .. })
        ));
    }

    #[test]
    fn repair_fills_missing_slots() {
        // Repair asks the codec for just the lost slot, parity included.
        let s = striper(CodecKind::RsVan);
        let stripe = s.encode_value(&vec![9u8; 999]);
        let mut shards: Vec<Option<&[u8]>> = stripe.shards.iter().map(|s| Some(&s[..])).collect();
        shards[4] = None;
        let rebuilt = s.codec().reconstruct(&shards, &[4]).unwrap();
        assert_eq!(rebuilt, [stripe.shards[4].clone()]);
    }

    #[test]
    fn decoding_streams_the_unpadded_value_in_order() {
        let s = striper(CodecKind::CauchyRs);
        let value: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let stripe = s.encode_value(&value);
        let mut shards: Vec<Option<&[u8]>> = stripe.shards.iter().map(|s| Some(&s[..])).collect();
        shards[1] = None;
        let mut pieces = Vec::new();
        s.decode_value_into(&shards, value.len(), |p| pieces.push(p.to_vec()))
            .unwrap();
        assert_eq!(pieces.len(), 3, "one piece per data shard");
        assert_eq!(pieces.concat(), value);
        // Each data shard is the value's range, zero-padded.
        for (i, shard) in stripe.shards[..3].iter().enumerate() {
            let range = Striper::data_range(value.len(), stripe.shard_len, i);
            let (head, pad) = shard.split_at(range.len());
            assert_eq!(head, &value[range]);
            assert!(pad.iter().all(|&b| b == 0));
        }
    }
}
