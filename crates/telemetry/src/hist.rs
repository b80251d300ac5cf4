//! Log-bucketed histograms.
//!
//! Power-of-two buckets over the full `u64` range: bucket 0 holds the value
//! 0, bucket `i` (1 ≤ i ≤ 64) holds values in `[2^(i-1), 2^i)`. Recording is
//! a `leading_zeros` plus two adds — cheap enough to sit on the guard slow
//! path — and quantiles come back as the observed-max-clamped upper bound of
//! the bucket holding the target rank.

use crate::json::Json;

/// Number of buckets: one for zero plus one per power of two up to `2^63`.
pub const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value: 0 for 0, `floor(log2(v)) + 1` otherwise.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive `(lo, hi)` value range covered by bucket `i`.
    pub fn bucket_range(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate: the upper bound of the bucket holding the sample
    /// of rank `ceil(q * count)`, clamped to the observed min/max. `q` is
    /// clamped to `[0, 1]`; an empty histogram reports 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let (_, hi) = Self::bucket_range(i);
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Occupied buckets as `(lo, hi, count)` triples, low to high.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_range(i);
                (lo, hi, c)
            })
    }

    /// JSON form: summary stats plus the occupied buckets.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::Int(self.count)),
            ("sum".into(), Json::Int(self.sum)),
            ("min".into(), Json::Int(self.min())),
            ("max".into(), Json::Int(self.max)),
            ("mean".into(), Json::Num(self.mean())),
            ("p50".into(), Json::Int(self.p50())),
            ("p90".into(), Json::Int(self.p90())),
            ("p99".into(), Json::Int(self.p99())),
            (
                "buckets".into(),
                Json::Arr(
                    self.buckets()
                        .map(|(lo, hi, c)| {
                            Json::Obj(vec![
                                ("lo".into(), Json::Int(lo)),
                                ("hi".into(), Json::Int(hi)),
                                ("count".into(), Json::Int(c)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl std::fmt::Display for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} min={} p50={} p90={} p99={} max={} mean={:.1}",
            self.count,
            self.min(),
            self.p50(),
            self.p90(),
            self.p99(),
            self.max(),
            self.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        // Every bucket's range round-trips through bucket_of.
        for i in 0..BUCKETS {
            let (lo, hi) = Histogram::bucket_range(i);
            assert_eq!(Histogram::bucket_of(lo), i);
            assert_eq!(Histogram::bucket_of(hi), i);
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.buckets().count(), 0);
    }

    #[test]
    fn single_sample_quantiles() {
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 42);
        assert_eq!(h.max(), 42);
        // Every quantile of a single sample is that sample (bucket upper
        // bound clamped to the observed max).
        assert_eq!(h.quantile(0.0), 42);
        assert_eq!(h.p50(), 42);
        assert_eq!(h.p99(), 42);
        assert_eq!(h.quantile(1.0), 42);
    }

    #[test]
    fn saturation_at_u64_max() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.p50(), u64::MAX);
        // Sum saturates instead of overflowing.
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn quantiles_track_distribution() {
        let mut h = Histogram::new();
        // 90 small samples, 10 large ones.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        assert!(h.p50() < 256, "p50={}", h.p50());
        assert!(h.p99() >= 65536, "p99={}", h.p99());
        assert!(h.p99() <= 131072);
    }

    #[test]
    fn zero_samples_land_in_bucket_zero() {
        let mut h = Histogram::new();
        for _ in 0..5 {
            h.record(0);
        }
        h.record(7);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 7);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets[0], (0, 0, 5));
    }
}
