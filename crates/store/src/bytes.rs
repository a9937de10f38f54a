//! [`Bytes`]: a cheaply clonable view of a shared byte buffer.

use core::fmt;
use core::hash::{Hash, Hasher};
use core::ops::{Deref, Range};
use std::sync::Arc;

/// An immutable view of part of a shared byte buffer.
///
/// A stand-in for the external `bytes::Bytes` type (which cannot be fetched
/// in offline builds). Cloning bumps a reference count, converting from a
/// `Vec<u8>` moves the vector without copying its bytes, and
/// [`Bytes::slice`] makes a view of a sub-range of the same buffer. The
/// erasure SET path stores a value's whole data chunks as views of the
/// value itself, so a stored chunk view keeps its value's buffer alive.
///
/// Offsets are `u32`, so one buffer holds at most `u32::MAX` bytes and a
/// view is 16 bytes, which keeps a [`Payload`](crate::Payload) (and an
/// `Option<Payload>` store slot) at 24 bytes.
///
/// Equality, hashing and `Debug` go by the viewed bytes, so a view and an
/// owned copy of its bytes are interchangeable.
///
/// ```
/// use eckv_store::Bytes;
///
/// let value = Bytes::from(b"hello world".to_vec());
/// let word = value.slice(6..11);
/// assert_eq!(&word[..], b"world");
/// assert_eq!(word, Bytes::from(b"world".to_vec()));
/// ```
#[derive(Clone)]
pub struct Bytes {
    buf: Arc<Vec<u8>>,
    start: u32,
    end: u32,
}

/// Converts a length or offset into a view offset.
///
/// # Panics
///
/// Panics if `n` exceeds `u32::MAX`: a view cannot address that far.
fn view_offset(n: usize) -> u32 {
    u32::try_from(n).expect("a Bytes buffer holds at most u32::MAX bytes")
}

impl Bytes {
    /// A view of `range` of these bytes, sharing the same buffer.
    ///
    /// # Panics
    ///
    /// Panics if `range` is decreasing or ends past `self.len()`.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of a {}-byte view",
            self.len()
        );
        Bytes {
            buf: Arc::clone(&self.buf),
            start: self.start + view_offset(range.start),
            end: self.start + view_offset(range.end),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start as usize..self.end as usize]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes ownership of `buf` without copying it.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is longer than `u32::MAX` bytes.
    fn from(buf: Vec<u8>) -> Self {
        let end = view_offset(buf.len());
        Bytes {
            buf: Arc::new(buf),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(bytes: &[u8]) -> Self {
        Bytes::from(bytes.to_vec())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(Vec::from_iter(iter))
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{xxh64, Payload};
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(b: &Bytes) -> u64 {
        let mut h = DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_payload_and_a_store_slot_stay_24_bytes() {
        // The store's slot slab holds an `Option<Payload>` per item; a
        // wider view (usize offsets) would grow it to 32 bytes.
        assert_eq!(std::mem::size_of::<Bytes>(), 16);
        assert_eq!(std::mem::size_of::<Payload>(), 24);
        assert_eq!(std::mem::size_of::<Option<Payload>>(), 24);
    }

    #[test]
    fn a_view_equals_and_hashes_like_an_owned_copy() {
        let value = Bytes::from((0..100u8).collect::<Vec<u8>>());
        for (start, end) in [(0, 100), (0, 0), (10, 40), (99, 100), (100, 100)] {
            let view = value.slice(start..end);
            let owned = Bytes::from(value[start..end].to_vec());
            assert_eq!(view, owned, "{start}..{end}");
            assert_eq!(view.len(), end - start);
            assert_eq!(&view[..], &value[start..end]);
            assert_eq!(hash_of(&view), hash_of(&owned), "{start}..{end}");
            assert_eq!(
                Payload::inline(view.clone()).digest(),
                xxh64(&owned),
                "{start}..{end}"
            );
        }
        // A view of a view addresses the original buffer.
        let inner = value.slice(10..60).slice(5..15);
        assert_eq!(&inner[..], &value[15..25]);
        assert_eq!(inner.as_ptr(), value[15..].as_ptr());
    }

    #[test]
    #[should_panic(expected = "out of a 10-byte view")]
    fn slicing_past_the_end_panics() {
        Bytes::from(vec![0u8; 20]).slice(5..15).slice(5..11);
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX bytes")]
    fn a_buffer_longer_than_u32_max_is_rejected() {
        // `From<Vec<u8>>` takes its end offset from here; allocating a
        // 4 GiB vector to show it would be wasteful.
        view_offset(u32::MAX as usize + 1);
    }

    #[test]
    fn converts_from_vectors_slices_and_iterators() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = Bytes::from(&[1u8, 2, 3][..]);
        let c: Bytes = (1..=3u8).collect();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(view_offset(u32::MAX as usize), u32::MAX);
        assert_eq!(format!("{a:?}"), "[1, 2, 3]");
    }
}
