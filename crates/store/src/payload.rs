//! Values: real bytes for correctness tests, synthetic descriptors for
//! terabyte-scale experiments.

use core::fmt;

/// Cheaply-clonable immutable byte buffer.
///
/// A stand-in for the external `bytes::Bytes` type (which cannot be fetched
/// in offline builds): an `Arc<[u8]>` clones by reference-count bump,
/// derefs to `&[u8]`, and converts from `Vec<u8>`/`&[u8]` — everything the
/// store and engine need from a shared value buffer.
pub type Bytes = std::sync::Arc<[u8]>;

/// FNV-1a 64-bit hash: the **key** hash.
///
/// It drives hash-ring placement, the Zipfian key scramble, repair
/// rotations and synthetic-payload seeds. Its output is frozen: changing
/// it would move every key's placement, every model metric and the golden
/// traces. Value bytes are digested by [`xxh64`] instead.
///
/// ```
/// assert_ne!(eckv_store::fnv1a_64(b"a"), eckv_store::fnv1a_64(b"b"));
/// assert_eq!(eckv_store::fnv1a_64(b""), 0xcbf29ce484222325);
/// ```
pub fn fnv1a_64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

fn xxh64_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn xxh64_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh64_round(0, lane))
        .wrapping_mul(P1)
        .wrapping_add(P4)
}

/// XXH64 with seed 0: the **value** digest, used end to end to check that
/// the bytes a GET returns (directly or after decoding) are the bytes the
/// SET wrote.
///
/// Four independent 8-byte lanes per 32-byte stripe keep the multipliers
/// busy in parallel, where byte-serial FNV-1a is one multiply per byte in
/// a single dependency chain (~16× slower on 64 KiB values).
///
/// ```
/// assert_eq!(eckv_store::xxh64(b""), 0xEF46_DB37_51D8_E999);
/// assert_eq!(eckv_store::xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
/// ```
pub fn xxh64(data: &[u8]) -> u64 {
    let stripes = data.chunks_exact(32);
    let mut tail = stripes.remainder();
    let mut h = if data.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (acc, lane) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *acc = xxh64_round(*acc, read_u64(lane));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &acc| xxh64_merge(h, acc))
    } else {
        P5
    };
    h = h.wrapping_add(data.len() as u64);
    while tail.len() >= 8 {
        h = (h ^ xxh64_round(0, read_u64(tail)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let word = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
        h = (h ^ u64::from(word).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// A key-value store value.
///
/// Large-scale simulations (Figures 10–13 move tens of gigabytes) cannot
/// hold real bytes in host memory, so a value is either:
///
/// * [`Payload::Inline`] — actual bytes (used by unit/integration tests and
///   small experiments, where shards are really encoded and decoded), or
/// * [`Payload::Synthetic`] — a `(len, digest)` descriptor that flows
///   through exactly the same code paths and is integrity-checked by
///   digest comparison on reads.
///
/// # Example
///
/// ```
/// use eckv_store::Payload;
///
/// let real = Payload::inline(vec![7u8; 100]);
/// let synth = Payload::synthetic(100, 42);
/// assert_eq!(real.len(), synth.len());
/// assert_ne!(real.digest(), synth.digest());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Payload {
    /// Actual value bytes.
    Inline(Bytes),
    /// Descriptor of a value that exists only logically.
    Synthetic {
        /// Logical length in bytes.
        len: u64,
        /// Integrity digest (stands in for the [`xxh64`] of the real bytes).
        digest: u64,
    },
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Inline(b) => write!(f, "Payload::Inline({} bytes)", b.len()),
            Payload::Synthetic { len, digest } => {
                write!(f, "Payload::Synthetic({len} bytes, digest={digest:#x})")
            }
        }
    }
}

impl Payload {
    /// Wraps real bytes.
    pub fn inline(bytes: impl Into<Bytes>) -> Self {
        Payload::Inline(bytes.into())
    }

    /// Creates a synthetic value of `len` bytes whose digest is derived
    /// from `seed` (deterministic; distinct seeds give distinct digests).
    pub fn synthetic(len: u64, seed: u64) -> Self {
        Payload::Synthetic {
            len,
            digest: fnv1a_64(&seed.to_le_bytes()),
        }
    }

    /// Logical length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Inline(b) => b.len() as u64,
            Payload::Synthetic { len, .. } => *len,
        }
    }

    /// Returns `true` for a zero-length value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Integrity digest: [`xxh64`] of the bytes for inline values, the
    /// stored digest for synthetic ones.
    pub fn digest(&self) -> u64 {
        match self {
            Payload::Inline(b) => xxh64(b),
            Payload::Synthetic { digest, .. } => *digest,
        }
    }

    /// The real bytes, if this value is inline.
    pub fn as_bytes(&self) -> Option<&Bytes> {
        match self {
            Payload::Inline(b) => Some(b),
            Payload::Synthetic { .. } => None,
        }
    }

    /// Derives the payload for erasure-coded shard `index` of this value,
    /// given the shard length. For synthetic values the shard digest mixes
    /// the parent digest and index, so misplaced shards are detectable.
    pub fn shard(&self, index: usize, shard_len: u64) -> Payload {
        match self {
            Payload::Inline(_) => {
                unreachable!("inline values are sharded by the erasure codec, not here")
            }
            Payload::Synthetic { digest, .. } => Payload::Synthetic {
                len: shard_len,
                digest: digest
                    .rotate_left(index as u32 + 1)
                    .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn xxh64_matches_known_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: one stripe, then the 8-, 4- and 1-byte tails.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn xxh64_sees_every_bit_flip_and_the_length() {
        // 0..=72 covers no stripe, one and two 32-byte stripes, and every
        // combination of the 8-, 4- and 1-byte tails.
        for len in 0..=72usize {
            let base: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
            let h = xxh64(&base);
            for pos in 0..len {
                for bit in 0..8 {
                    let mut flipped = base.clone();
                    flipped[pos] ^= 1 << bit;
                    assert_ne!(xxh64(&flipped), h, "len {len} byte {pos} bit {bit}");
                }
            }
            let mut longer = base.clone();
            longer.push(0);
            assert_ne!(xxh64(&longer), h, "len {len} plus a zero byte");
        }
    }

    #[test]
    fn xxh64_of_a_seeded_64k_buffer_is_frozen() {
        // Pins the function itself, so a faster rewrite cannot silently
        // change its output.
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let buf: Vec<u8> = (0..64 << 10)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        assert_eq!(xxh64(&buf), 0x6093_8B1A_B62D_443E);
        assert_eq!(Payload::inline(buf.clone()).digest(), xxh64(&buf));
    }

    #[test]
    fn inline_digest_tracks_contents() {
        let a = Payload::inline(vec![1, 2, 3]);
        let b = Payload::inline(vec![1, 2, 4]);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), Payload::inline(vec![1, 2, 3]).digest());
    }

    #[test]
    fn synthetic_seeds_differentiate() {
        let a = Payload::synthetic(1024, 1);
        let b = Payload::synthetic(1024, 2);
        assert_eq!(a.len(), b.len());
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn shards_of_synthetic_values_are_distinct() {
        let v = Payload::synthetic(3000, 99);
        let s0 = v.shard(0, 1000);
        let s1 = v.shard(1, 1000);
        assert_eq!(s0.len(), 1000);
        assert_ne!(s0.digest(), s1.digest());
        assert_ne!(s0.digest(), v.digest());
    }

    #[test]
    fn empty_and_debug() {
        assert!(Payload::inline(Vec::new()).is_empty());
        assert!(!Payload::synthetic(1, 0).is_empty());
        let s = format!("{:?}", Payload::synthetic(5, 1));
        assert!(s.contains("Synthetic"));
    }
}
