//! [`StoreKey`]: what a server stores an item under.

use std::sync::Arc;

/// The identity of one stored item: a plain key (a replica, or an
/// unreplicated value), or chunk `i` of a key's erasure-coded stripe.
///
/// A chunk shares its user key's `Arc`, so naming one allocates nothing,
/// and a chunk never collides with a plain key whatever the key's
/// spelling: chunk 1 of `x` and a plain key literally named `x.s1` are
/// distinct items.
///
/// On the wire and in the slab charge a chunk counts as its spelling
/// `"{key}.s{i}"` ([`StoreKey::wire_len`]).
///
/// ```
/// use eckv_store::StoreKey;
///
/// let chunk = StoreKey::chunk("user:42".into(), 3);
/// assert_eq!(chunk.wire_len(), "user:42.s3".len());
/// assert_ne!(chunk, StoreKey::from("user:42.s3"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// The user key.
    pub key: Arc<str>,
    /// `None` for a plain key, `Some(i)` for chunk `i`.
    pub slot: Option<u8>,
}

impl StoreKey {
    /// Chunk `i` of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `i` exceeds 255; a stripe has at most 256 chunks.
    pub fn chunk(key: Arc<str>, i: usize) -> StoreKey {
        let i = u8::try_from(i).expect("a stripe has at most 256 chunks");
        StoreKey { key, slot: Some(i) }
    }

    /// Bytes the key takes on the wire and in an item: the key, plus
    /// `.s{i}` for a chunk.
    pub fn wire_len(&self) -> usize {
        let suffix = match self.slot {
            None => 0,
            Some(i) if i < 10 => 3,
            Some(i) if i < 100 => 4,
            Some(_) => 5,
        };
        self.key.len() + suffix
    }

    /// The key and chunk number, as the store's index compares them.
    pub(crate) fn parts(&self) -> (&str, Option<u8>) {
        (&self.key, self.slot)
    }
}

impl From<Arc<str>> for StoreKey {
    fn from(key: Arc<str>) -> Self {
        StoreKey { key, slot: None }
    }
}

impl From<&Arc<str>> for StoreKey {
    fn from(key: &Arc<str>) -> Self {
        key.clone().into()
    }
}

impl From<&str> for StoreKey {
    fn from(key: &str) -> Self {
        Arc::<str>::from(key).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_store_key_is_24_bytes() {
        assert_eq!(std::mem::size_of::<StoreKey>(), 24);
    }

    #[test]
    fn wire_len_matches_the_chunk_spelling() {
        // Short keys, 61/62/300-byte keys and multi-byte UTF-8.
        let long = ["x".repeat(61), "y".repeat(62), "z".repeat(300)];
        let wide = [
            "ключ".repeat(7),
            format!("{}é", "a".repeat(59)),
            "🔑".repeat(16),
        ];
        let short = ["", "k", "user:42", "g07.s3", "ключ"].map(String::from);
        for key in short.iter().chain(&long).chain(&wide) {
            assert_eq!(StoreKey::from(key.as_str()).wire_len(), key.len());
            for i in [0..=16, 99..=100, 255..=255].into_iter().flatten() {
                let chunk = StoreKey::chunk(key.as_str().into(), i);
                assert_eq!(chunk.wire_len(), format!("{key}.s{i}").len());
            }
        }
    }

    #[test]
    fn a_chunk_is_not_the_plain_key_of_its_spelling() {
        let chunk = StoreKey::chunk("x".into(), 1);
        assert_ne!(chunk, StoreKey::from("x.s1"));
        assert_ne!(chunk, StoreKey::from("x"));
        assert_ne!(chunk, StoreKey::chunk("x".into(), 2));
        assert_ne!(chunk, StoreKey::chunk("x2".into(), 1));
    }
}
