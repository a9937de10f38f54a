//! Latency histograms and summary statistics for experiment reporting.

use core::fmt;

use crate::time::SimDuration;

/// A log-bucketed latency histogram with exact min/max/mean tracking.
///
/// Buckets grow geometrically (~4.6% per bucket, 64 buckets per decade), so
/// percentile error is bounded at a few percent — plenty for reproducing
/// figure-level comparisons.
///
/// # Example
///
/// ```
/// use eckv_simnet::{Histogram, SimDuration};
///
/// let mut h = Histogram::new();
/// for us in 1..=100 {
///     h.record(SimDuration::from_micros(us));
/// }
/// assert_eq!(h.count(), 100);
/// let p50 = h.percentile(50.0).as_micros_f64();
/// assert!((40.0..=60.0).contains(&p50));
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: SimDuration,
    /// `None` until the first sample — an explicit empty state instead of a
    /// `u64::MAX` sentinel, so no accessor can ever leak the sentinel value.
    min: Option<SimDuration>,
    max: SimDuration,
}

const BUCKETS_PER_DECADE: f64 = 64.0;
const NUM_BUCKETS: usize = 64 * 12; // 1ns .. ~1000s

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: SimDuration::ZERO,
            min: None,
            max: SimDuration::ZERO,
        }
    }

    fn bucket_for(d: SimDuration) -> usize {
        let ns = d.as_nanos().max(1) as f64;
        let idx = (ns.log10() * BUCKETS_PER_DECADE) as usize;
        idx.min(NUM_BUCKETS - 1)
    }

    fn bucket_value(idx: usize) -> SimDuration {
        // Midpoint of the bucket in log space.
        let ns = 10f64.powf((idx as f64 + 0.5) / BUCKETS_PER_DECADE);
        SimDuration::from_nanos(ns.round() as u64)
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.buckets[Self::bucket_for(d)] += 1;
        self.count += 1;
        self.sum += d;
        self.min = Some(self.min.map_or(d, |m| m.min(d)));
        if d > self.max {
            self.max = d;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean of recorded samples (zero if empty).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            self.sum / self.count
        }
    }

    /// Exact minimum (zero if empty).
    pub fn min(&self) -> SimDuration {
        self.min.unwrap_or(SimDuration::ZERO)
    }

    /// Exact maximum (zero if empty).
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// Approximate percentile `p` in `[0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> SimDuration {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(idx).max(self.min()).min(self.max);
            }
        }
        self.max
    }

    /// Approximate percentiles for a batch of `ps` (each in `[0, 100]`), in
    /// the order given. One pass per percentile; fine for reporting.
    ///
    /// # Panics
    ///
    /// Panics if any `p` is outside `[0, 100]`.
    pub fn percentiles(&self, ps: &[f64]) -> Vec<SimDuration> {
        ps.iter().map(|&p| self.percentile(p)).collect()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if let Some(om) = other.min {
            self.min = Some(self.min.map_or(om, |m| m.min(om)));
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Produces a compact summary snapshot.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
        }
    }
}

/// A point-in-time digest of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Sample count.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Minimum sample.
    pub min: SimDuration,
    /// Maximum sample.
    pub max: SimDuration,
    /// Median (approximate).
    pub p50: SimDuration,
    /// 95th percentile (approximate).
    pub p95: SimDuration,
    /// 99th percentile (approximate).
    pub p99: SimDuration,
}

impl Summary {
    /// Returns the digested percentile `p` for the tails this summary
    /// carries: 0 → min, 50 → p50, 95 → p95, 99 → p99, 100 → max. Hedge
    /// policies key off these; for arbitrary percentiles query the
    /// [`Histogram`] directly via [`Histogram::percentile`].
    ///
    /// # Panics
    ///
    /// Panics on any other `p` — a summary is a digest, not the histogram.
    pub fn percentile(&self, p: f64) -> SimDuration {
        if p == 0.0 {
            self.min
        } else if p == 50.0 {
            self.p50
        } else if p == 95.0 {
            self.p95
        } else if p == 99.0 {
            self.p99
        } else if p == 100.0 {
            self.max
        } else {
            panic!("Summary digests only p0/p50/p95/p99/p100, not p{p}")
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p95={} p99={} max={}",
            self.count, self.mean, self.p50, self.p95, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.percentile(50.0), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
    }

    #[test]
    fn empty_summary_never_leaks_a_sentinel_min() {
        // Regression: min used to be a u64::MAX sentinel internally; make
        // sure no summary field or its rendering can ever surface it.
        let s = Histogram::new().summary();
        assert_eq!(s.min, SimDuration::ZERO);
        assert_eq!(s.percentile(0.0), SimDuration::ZERO);
        assert_eq!(s.percentile(95.0), SimDuration::ZERO);
        let text = s.to_string();
        assert!(
            !text.contains("18446744073709"),
            "sentinel leaked into display: {text}"
        );
        // Merging an empty histogram must not disturb real extrema either.
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(7));
        h.merge(&Histogram::new());
        assert_eq!(h.min(), SimDuration::from_micros(7));
        let mut empty = Histogram::new();
        empty.merge(&h);
        assert_eq!(empty.min(), SimDuration::from_micros(7));
    }

    #[test]
    fn summary_percentile_exposes_the_hedge_tails() {
        let mut h = Histogram::new();
        for us in 1..=100 {
            h.record(SimDuration::from_micros(us));
        }
        let s = h.summary();
        assert_eq!(s.percentile(50.0), s.p50);
        assert_eq!(s.percentile(95.0), s.p95);
        assert_eq!(s.percentile(99.0), s.p99);
        assert_eq!(s.percentile(100.0), s.max);
        assert!(s.p95 >= s.p50 && s.p99 >= s.p95);
    }

    #[test]
    #[should_panic(expected = "digests only")]
    fn summary_percentile_rejects_undigested_tails() {
        let _ = Histogram::new().summary().percentile(97.5);
    }

    #[test]
    fn percentiles_batch_matches_single_queries() {
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(SimDuration::from_nanos(i * 50));
        }
        let batch = h.percentiles(&[50.0, 95.0, 99.0]);
        assert_eq!(
            batch,
            vec![h.percentile(50.0), h.percentile(95.0), h.percentile(99.0)]
        );
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(10));
        h.record(SimDuration::from_micros(20));
        h.record(SimDuration::from_micros(30));
        assert_eq!(h.mean(), SimDuration::from_micros(20));
        assert_eq!(h.min(), SimDuration::from_micros(10));
        assert_eq!(h.max(), SimDuration::from_micros(30));
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(SimDuration::from_nanos(i * 100));
        }
        let mut last = SimDuration::ZERO;
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!(v >= last, "p{p} not monotone");
            assert!(v >= h.min() && v <= h.max());
            last = v;
        }
        // p50 within ~10% of true median (500_000 ns).
        let p50 = h.percentile(50.0).as_nanos() as f64;
        assert!((450_000.0..=550_000.0).contains(&p50), "p50={p50}");
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_micros(1));
        b.record(SimDuration::from_micros(100));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), SimDuration::from_micros(1));
        assert_eq!(a.max(), SimDuration::from_micros(100));
    }

    #[test]
    fn summary_display_is_informative() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(5));
        let s = h.summary().to_string();
        assert!(s.contains("n=1"));
        assert!(s.contains("mean=5.000us"));
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn out_of_range_percentile_panics() {
        Histogram::new().percentile(101.0);
    }

    /// Draws `n` samples spanning sub-microsecond to multi-second scales.
    fn random_samples(rng: &mut crate::SimRng, n: usize) -> Vec<SimDuration> {
        (0..n)
            .map(|_| {
                let decade = rng.range_u64(2, 9); // 100ns .. ~1s
                let base = 10u64.pow(decade as u32);
                SimDuration::from_nanos(rng.range_u64(base, base * 10))
            })
            .collect()
    }

    /// Up to `max` samples (at least `min`), per property case.
    fn sample_set(rng: &mut crate::SimRng, min: usize, max: usize) -> Vec<SimDuration> {
        let n = min + rng.index(max - min);
        random_samples(rng, n)
    }

    #[test]
    fn property_percentiles_nondecreasing_in_p() {
        crate::check::check(
            50,
            |rng| sample_set(rng, 1, 400),
            |samples| {
                let mut h = Histogram::new();
                for &d in samples {
                    h.record(d);
                }
                let ps: Vec<f64> = (0..=200).map(|i| i as f64 / 2.0).collect();
                let vs = h.percentiles(&ps);
                for (w, pair) in vs.windows(2).enumerate() {
                    assert!(
                        pair[1] >= pair[0],
                        "p{} = {} < p{} = {}",
                        ps[w + 1],
                        pair[1],
                        ps[w],
                        pair[0]
                    );
                }
                assert!(vs[0] >= h.min() && *vs.last().unwrap() <= h.max());
            },
        );
    }

    #[test]
    fn property_merge_equals_concatenated_samples() {
        crate::check::check(
            50,
            |rng| (sample_set(rng, 0, 300), sample_set(rng, 1, 300)),
            |(xs, ys)| {
                let mut merged = Histogram::new();
                let mut other = Histogram::new();
                let mut concat = Histogram::new();
                for &d in xs {
                    merged.record(d);
                    concat.record(d);
                }
                for &d in ys {
                    other.record(d);
                    concat.record(d);
                }
                merged.merge(&other);

                // Count, mean, min, and max are tracked exactly, so they
                // must agree exactly; the bucket arrays are summed
                // element-wise, so every percentile agrees exactly too
                // (not just within bucket error).
                assert_eq!(merged.count(), concat.count());
                assert_eq!(merged.mean(), concat.mean());
                assert_eq!(merged.min(), concat.min());
                assert_eq!(merged.max(), concat.max());
                for p in [0.0, 1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
                    assert_eq!(merged.percentile(p), concat.percentile(p), "p{p}");
                }
            },
        );
    }
}
