//! Zipfian request distributions (Gray et al., "Quickly generating
//! billion-record synthetic databases", as used by YCSB).

use eckv_simnet::SimRng;
use eckv_store::fnv1a_64;

/// The YCSB default skew parameter.
pub const DEFAULT_THETA: f64 = 0.99;

/// A Zipfian generator over `0..n`: item `i` is drawn with probability
/// proportional to `1 / (i + 1)^theta`, so low indices are hot.
///
/// # Example
///
/// ```
/// use eckv_simnet::SimRng;
/// use eckv_ycsb::Zipfian;
///
/// let mut z = Zipfian::new(1000);
/// let mut rng = SimRng::seed_from_u64(1);
/// let v = z.next(&mut rng);
/// assert!(v < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2theta: f64,
    /// `1 + 0.5^theta`: a scaled draw below it picks item 1.
    rank1_cut: f64,
}

fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

impl Zipfian {
    /// Creates a generator over `0..n` with the YCSB default skew.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64) -> Self {
        Self::with_theta(n, DEFAULT_THETA)
    }

    /// Creates a generator with explicit skew `theta` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `(0, 1)`.
    pub fn with_theta(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipfian needs a non-empty item set");
        assert!(
            (0.0..1.0).contains(&theta) && theta > 0.0,
            "theta must be in (0, 1)"
        );
        let zetan = zeta(n, theta);
        let zeta2theta = zeta(2, theta);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan),
            zeta2theta,
            rank1_cut: 1.0 + 0.5f64.powf(theta),
        }
    }

    /// Number of items.
    pub fn items(&self) -> u64 {
        self.n
    }

    /// Grows the item set to `n`, recomputing `zetan` incrementally by
    /// appending the terms for the new items — the same ascending
    /// summation order as the private `zeta` helper, so an expanded generator is
    /// bit-identical to one constructed at the larger size directly.
    ///
    /// Shrinking is not supported; `n` at or below the current size is a
    /// no-op. Without this, a generator whose population grows (YCSB
    /// insert-heavy workloads, the `Latest` distribution) keeps drawing
    /// from the stale, smaller range: `zetan` and `eta` stay frozen and
    /// every item past the original `n` has probability zero.
    pub fn expand_to(&mut self, n: u64) {
        if n <= self.n {
            return;
        }
        for i in (self.n + 1)..=n {
            self.zetan += 1.0 / (i as f64).powf(self.theta);
        }
        self.n = n;
        self.eta =
            (1.0 - (2.0 / n as f64).powf(1.0 - self.theta)) / (1.0 - self.zeta2theta / self.zetan);
    }

    /// Draws the next item (0 is the hottest).
    pub fn next(&mut self, rng: &mut SimRng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_cut {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }

    /// The skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    #[cfg(test)]
    fn zeta2(&self) -> f64 {
        self.zeta2theta
    }
}

/// YCSB's scrambled Zipfian: Zipfian popularity ranks hashed across the
/// keyspace, so hot keys are spread over all servers instead of clustering
/// at low key ids.
///
/// # Example
///
/// ```
/// use eckv_simnet::SimRng;
/// use eckv_ycsb::ScrambledZipfian;
///
/// let mut z = ScrambledZipfian::new(250_000);
/// let mut rng = SimRng::seed_from_u64(3);
/// assert!(z.next(&mut rng) < 250_000);
/// ```
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: Zipfian,
}

impl ScrambledZipfian {
    /// Creates a scrambled generator over `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64) -> Self {
        ScrambledZipfian {
            inner: Zipfian::new(n),
        }
    }

    /// Number of items.
    pub fn items(&self) -> u64 {
        self.inner.items()
    }

    /// Draws the next item id (uniformly spread over `0..n`, Zipfian in
    /// popularity).
    pub fn next(&mut self, rng: &mut SimRng) -> u64 {
        let rank = self.inner.next(rng);
        fnv1a_64(&rank.to_le_bytes()) % self.inner.items()
    }
}

/// YCSB's "latest" distribution: Zipfian over recency, so the most
/// recently inserted records are the hottest (used by workload D).
#[derive(Debug, Clone)]
pub struct Latest {
    inner: Zipfian,
    max_record: u64,
}

impl Latest {
    /// Creates a generator over the first `n` records.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64) -> Self {
        Latest {
            inner: Zipfian::new(n),
            max_record: n - 1,
        }
    }

    /// Notes that a new record was inserted (shifts the hot set forward).
    ///
    /// The underlying Zipfian expands with the population, so recency
    /// ranks cover *all* records: older records keep a (small, properly
    /// normalised) probability instead of the hot window staying frozen
    /// at the initial size and older records becoming unreachable.
    pub fn record_inserted(&mut self) {
        self.max_record += 1;
        self.inner.expand_to(self.max_record + 1);
    }

    /// Draws the next record id; `max_record` is the hottest.
    pub fn next(&mut self, rng: &mut SimRng) -> u64 {
        let rank = self.inner.next(rng);
        self.max_record.saturating_sub(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_respects_bounds() {
        let mut z = Zipfian::new(100);
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.next(&mut rng) < 100);
        }
    }

    #[test]
    fn zipfian_is_skewed_toward_low_ranks() {
        let mut z = Zipfian::new(10_000);
        let mut rng = SimRng::seed_from_u64(2);
        let mut hot = 0usize;
        let draws = 100_000;
        for _ in 0..draws {
            if z.next(&mut rng) < 100 {
                hot += 1;
            }
        }
        // With theta=0.99, the top 1% of items should draw far more than 1%
        // of requests (empirically ~60-70%).
        assert!(
            hot > draws / 3,
            "top-1% items drew only {hot}/{draws} requests"
        );
    }

    #[test]
    fn rank_probabilities_are_monotone() {
        let mut z = Zipfian::new(50);
        let mut rng = SimRng::seed_from_u64(3);
        let mut counts = vec![0u64; 50];
        for _ in 0..200_000 {
            counts[z.next(&mut rng) as usize] += 1;
        }
        assert!(counts[0] > counts[5]);
        assert!(counts[1] > counts[20]);
        assert!(counts[2] > counts[49]);
    }

    #[test]
    fn scrambled_spreads_the_hot_set() {
        let mut z = ScrambledZipfian::new(10_000);
        let mut rng = SimRng::seed_from_u64(4);
        // The single hottest scrambled id should fall anywhere in the key
        // space, and distinct ranks should map to distinct regions.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(z.next(&mut rng));
        }
        // A plain zipfian would concentrate <100 distinct ids near zero;
        // scrambling keeps skew but spreads ids widely.
        let spread = seen.iter().filter(|&&v| v > 5_000).count();
        assert!(spread > 50, "scrambled ids did not spread: {spread}");
    }

    #[test]
    fn latest_favours_recent_records() {
        let mut l = Latest::new(1000);
        let mut rng = SimRng::seed_from_u64(8);
        let mut recent = 0usize;
        for _ in 0..10_000 {
            if l.next(&mut rng) > 900 {
                recent += 1;
            }
        }
        assert!(recent > 5_000, "recent records drew only {recent}/10000");
    }

    #[test]
    fn latest_tracks_insertions() {
        let mut l = Latest::new(10);
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..100 {
            l.record_inserted();
        }
        let max_seen = (0..1000).map(|_| l.next(&mut rng)).max().unwrap();
        assert_eq!(max_seen, 109);
    }

    #[test]
    fn expanded_generator_is_bit_identical_to_fresh() {
        let mut grown = Zipfian::new(10);
        grown.expand_to(1000);
        let fresh = Zipfian::new(1000);
        // The incremental zetan appends terms in the same ascending order
        // as the direct sum, so every derived constant matches exactly.
        assert_eq!(grown.items(), fresh.items());
        assert_eq!(grown.zetan.to_bits(), fresh.zetan.to_bits());
        assert_eq!(grown.eta.to_bits(), fresh.eta.to_bits());
        assert_eq!(grown.alpha.to_bits(), fresh.alpha.to_bits());
        // Identical state means identical draws.
        let mut r1 = SimRng::seed_from_u64(11);
        let mut r2 = SimRng::seed_from_u64(11);
        for _ in 0..1000 {
            assert_eq!(grown.next(&mut r1), fresh.clone().next(&mut r2));
        }
    }

    #[test]
    fn expand_never_shrinks() {
        let mut z = Zipfian::new(100);
        let zetan = z.zetan;
        z.expand_to(10);
        assert_eq!(z.items(), 100);
        assert_eq!(z.zetan.to_bits(), zetan.to_bits());
    }

    #[test]
    fn latest_hot_set_follows_insertions() {
        // Regression: `record_inserted` used to advance `max_record` while
        // the inner Zipfian stayed at the initial size, so after many
        // inserts the oldest records could never be drawn and the "hot
        // window" stayed frozen at 100 recency ranks.
        let mut l = Latest::new(100);
        for _ in 0..10_000 {
            l.record_inserted();
        }
        let mut rng = SimRng::seed_from_u64(10);
        let draws: Vec<u64> = (0..10_000).map(|_| l.next(&mut rng)).collect();
        // Recent records stay hottest...
        let recent = draws.iter().filter(|&&d| d > 10_000).count();
        assert!(recent > 4_000, "recent draws: {recent}/10000");
        // ...but the expanded tail is reachable: with the stale-n bug,
        // every draw landed within 100 of max_record and this was zero.
        let old = draws.iter().filter(|&&d| d <= 9_000).count();
        assert!(old > 500, "old-record draws: {old}/10000");
    }

    #[test]
    fn zeta_matches_direct_sum() {
        let z = Zipfian::with_theta(2, 0.5);
        assert!((z.zeta2() - (1.0 + 1.0 / 2f64.sqrt())).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_items_panics() {
        let _ = Zipfian::new(0);
    }
}
