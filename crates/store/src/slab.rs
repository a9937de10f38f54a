//! Memcached-style slab-class memory accounting.
//!
//! Memcached rounds every item up to the chunk size of its slab class;
//! classes grow geometrically. This internal fragmentation is part of why
//! measured memory efficiency (Figure 10) differs from the theoretical
//! `K/N` vs `1/F` ratio, so the store model charges chunk sizes, not item
//! sizes.

use std::sync::OnceLock;

/// Fixed per-item metadata overhead (item header + hash-table entry),
/// matching memcached's ~56-byte item header plus pointer overhead.
pub const ITEM_OVERHEAD: u64 = 64;

/// Slab-class geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlabConfig {
    /// Smallest chunk size in bytes.
    pub min_chunk: u64,
    /// Geometric growth factor between classes (memcached default 1.25).
    pub growth: f64,
    /// Largest chunk size; larger items are charged in multiples of this.
    /// The default models a server started with `-I 8m` (larger max item
    /// size), which the paper's deployments need for their 1 MB values.
    pub max_chunk: u64,
}

impl Default for SlabConfig {
    fn default() -> Self {
        SlabConfig {
            min_chunk: 96,
            growth: 1.25,
            max_chunk: 8 << 20,
        }
    }
}

impl SlabConfig {
    /// The chunk size charged for an item needing `bytes`
    /// (key + value + [`ITEM_OVERHEAD`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (`growth <= 1`).
    pub fn chunk_size(&self, bytes: u64) -> u64 {
        assert!(self.growth > 1.0, "slab growth factor must exceed 1");
        if bytes >= self.max_chunk {
            // Charged in whole max-size chunks (memcached splits large
            // items across pages; we model the rounded total).
            return bytes.div_ceil(self.max_chunk) * self.max_chunk;
        }
        let mut chunk = self.min_chunk;
        while chunk < bytes {
            chunk = ((chunk as f64) * self.growth).ceil() as u64;
        }
        chunk.min(self.max_chunk)
    }
}

/// The slab classes of one [`SlabConfig`], computed once, so charging an
/// item is a binary search instead of [`SlabConfig::chunk_size`]'s float
/// loop (with identical results).
#[derive(Debug)]
pub(crate) struct SlabClasses {
    /// Ascending chunk sizes below `max_chunk`, then `max_chunk` itself.
    sizes: Vec<u64>,
    max_chunk: u64,
}

impl SlabClasses {
    /// Enumerates the classes of `cfg` with the loop's own arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (`growth <= 1`).
    fn new(cfg: &SlabConfig) -> Self {
        assert!(cfg.growth > 1.0, "slab growth factor must exceed 1");
        let mut sizes = Vec::new();
        let mut chunk = cfg.min_chunk;
        while chunk < cfg.max_chunk {
            sizes.push(chunk);
            chunk = ((chunk as f64) * cfg.growth).ceil() as u64;
        }
        sizes.push(cfg.max_chunk);
        SlabClasses {
            sizes,
            max_chunk: cfg.max_chunk,
        }
    }

    /// The classes of the default geometry, built on first use.
    pub(crate) fn default_geometry() -> &'static SlabClasses {
        static DEFAULT: OnceLock<SlabClasses> = OnceLock::new();
        DEFAULT.get_or_init(|| SlabClasses::new(&SlabConfig::default()))
    }

    /// Same as [`SlabConfig::chunk_size`] for the geometry these classes
    /// were built from.
    pub(crate) fn chunk_size(&self, bytes: u64) -> u64 {
        if bytes >= self.max_chunk {
            return bytes.div_ceil(self.max_chunk) * self.max_chunk;
        }
        // The last class is `max_chunk > bytes`, so the search always lands.
        self.sizes[self.sizes.partition_point(|&c| c < bytes)]
    }
}

/// Chunk size under the default memcached geometry.
///
/// ```
/// use eckv_store::chunk_size_for;
///
/// assert_eq!(chunk_size_for(50), 96);
/// assert!(chunk_size_for(10_000) >= 10_000);
/// ```
pub fn chunk_size_for(bytes: u64) -> u64 {
    SlabClasses::default_geometry().chunk_size(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_requested_bytes() {
        let cfg = SlabConfig::default();
        for bytes in [1u64, 95, 96, 97, 1000, 4096, 100_000, (1 << 20) - 1] {
            let c = cfg.chunk_size(bytes);
            assert!(c >= bytes, "chunk {c} < item {bytes}");
        }
    }

    #[test]
    fn fragmentation_is_bounded_by_growth_factor() {
        let cfg = SlabConfig::default();
        for bytes in [200u64, 1_000, 10_000, 500_000] {
            let c = cfg.chunk_size(bytes);
            assert!(
                (c as f64) <= (bytes as f64) * cfg.growth + cfg.min_chunk as f64,
                "bytes={bytes} chunk={c}"
            );
        }
    }

    #[test]
    fn large_items_charge_whole_max_chunks() {
        let cfg = SlabConfig::default();
        assert_eq!(cfg.chunk_size(8 << 20), 8 << 20);
        assert_eq!(cfg.chunk_size((8 << 20) + 1), 16 << 20);
        assert_eq!(cfg.chunk_size(24 << 20), 24 << 20);
    }

    #[test]
    fn one_megabyte_items_fit_a_regular_class() {
        // The paper stores 1 MB values; with the -I 8m geometry they land
        // in a class at most 25% above the item size, not a 2x round-up.
        let cfg = SlabConfig::default();
        let c = cfg.chunk_size((1 << 20) + 96);
        assert!(c < (1 << 20) * 13 / 10, "chunk {c} too wasteful");
    }

    /// The class table agrees with the float loop at and around every
    /// class boundary, for the default geometry and for memcached's
    /// `-f 1.07 -n 48 -I 1m` one.
    #[test]
    fn class_table_matches_the_float_loop_at_every_boundary() {
        let tuned = SlabConfig {
            min_chunk: 48,
            growth: 1.07,
            max_chunk: 1 << 20,
        };
        for cfg in [SlabConfig::default(), tuned] {
            let classes = SlabClasses::new(&cfg);
            assert_eq!(classes.sizes.last(), Some(&cfg.max_chunk));
            let beyond = [cfg.max_chunk * 2, cfg.max_chunk * 3];
            for &c in classes.sizes.iter().chain(&beyond) {
                for bytes in [c.saturating_sub(1), c, c + 1] {
                    assert_eq!(
                        classes.chunk_size(bytes),
                        cfg.chunk_size(bytes),
                        "{cfg:?} at {bytes} bytes"
                    );
                }
            }
        }
        assert!(SlabClasses::new(&tuned).sizes.len() > 100);
    }

    #[test]
    fn classes_are_monotone() {
        let cfg = SlabConfig::default();
        let mut last = 0;
        for bytes in (0..2_000_000u64).step_by(10_000) {
            let c = cfg.chunk_size(bytes.max(1));
            assert!(c >= last);
            last = c;
        }
    }
}
