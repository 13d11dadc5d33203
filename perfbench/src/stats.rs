//! Order statistics shared by every workload: nearest-rank quantiles,
//! the tail-percentile rule, and windows over the server's bucketed
//! histograms.

use planartest_service::wire::Value;

/// Candidate tail percentiles as exact fractions `num / den`, lowest
/// first: p50, p90, p99, p99.9, p99.99.
const TAIL_LADDER: [(usize, usize); 5] = [(1, 2), (9, 10), (99, 100), (999, 1000), (9999, 10000)];

/// A tail percentile must leave at least this many samples beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `num/den` quantile among `n` samples.
fn rank(num: usize, den: usize, n: usize) -> usize {
    (num * n).div_ceil(den).clamp(1, n)
}

/// The tail rule: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, as `(num, den)`. With
/// fewer than 20 samples no percentile qualifies and the median stands
/// in for the tail.
#[must_use]
pub fn tail_fraction(n: usize) -> (usize, usize) {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&(num, den)| n > 0 && n - rank(num, den, n) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0])
}

/// The percentile label of a `(num, den)` fraction, e.g. `99.9`.
#[must_use]
pub fn percent_label((num, den): (usize, usize)) -> f64 {
    100.0 * num as f64 / den as f64
}

/// Median and tail of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Value at the tail percentile.
    pub tail: f64,
    /// Which percentile `tail` is (e.g. `99.0`).
    pub tail_pct: f64,
}

impl Summary {
    /// Summarizes `samples` (any order). An empty set summarizes to
    /// zeros.
    #[must_use]
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let (num, den) = tail_fraction(n);
        if n == 0 {
            return Summary {
                n,
                p50: 0.0,
                tail: 0.0,
                tail_pct: percent_label((num, den)),
            };
        }
        Summary {
            n,
            p50: sorted[rank(1, 2, n) - 1],
            tail: sorted[rank(num, den, n) - 1],
            tail_pct: percent_label((num, den)),
        }
    }
}

/// Nearest-rank median (0 for an empty set).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

/// One of the server's log-bucketed histograms as the `metrics` op
/// reports it: `[upper bound, count]` pairs plus count and sum.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BucketHist {
    /// `(bucket upper bound, samples)`, ascending by bound.
    pub buckets: Vec<(u64, u64)>,
    /// Samples recorded.
    pub count: u64,
    /// Sum of the recorded values.
    pub sum: u64,
}

impl BucketHist {
    /// Reads a `snapshot_value` object; `None` if it is not one.
    #[must_use]
    pub fn from_value(v: &Value) -> Option<BucketHist> {
        let mut buckets = Vec::new();
        for pair in v.get("buckets")?.as_arr()? {
            let pair = pair.as_arr()?;
            buckets.push((pair.first()?.as_u64()?, pair.get(1)?.as_u64()?));
        }
        buckets.sort_unstable();
        Some(BucketHist {
            buckets,
            count: v.get("count")?.as_u64()?,
            sum: v.get("sum")?.as_u64()?,
        })
    }

    /// What was recorded after `earlier`, a snapshot of the same
    /// histogram: per-bucket counts, count and sum subtracted.
    #[must_use]
    pub fn since(&self, earlier: &BucketHist) -> BucketHist {
        let before = |hi: u64| {
            earlier
                .buckets
                .iter()
                .find(|&&(h, _)| h == hi)
                .map_or(0, |&(_, c)| c)
        };
        BucketHist {
            buckets: self
                .buckets
                .iter()
                .map(|&(hi, c)| (hi, c.saturating_sub(before(hi))))
                .filter(|&(_, c)| c > 0)
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// Mean of the recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket bound holding the nearest-rank `num/den` quantile.
    fn quantile(&self, (num, den): (usize, usize)) -> f64 {
        let n: u64 = self.buckets.iter().map(|&(_, c)| c).sum();
        if n == 0 {
            return 0.0;
        }
        let want = rank(num, den, n as usize) as u64;
        let mut seen = 0;
        for &(hi, c) in &self.buckets {
            seen += c;
            if seen >= want {
                return hi as f64;
            }
        }
        self.buckets.last().map_or(0.0, |&(hi, _)| hi as f64)
    }

    /// Median and tail by the same rule as [`Summary::of`], to bucket
    /// resolution.
    #[must_use]
    pub fn summary(&self) -> Summary {
        let n: u64 = self.buckets.iter().map(|&(_, c)| c).sum();
        let frac = tail_fraction(n as usize);
        Summary {
            n: n as usize,
            p50: self.quantile((1, 2)),
            tail: self.quantile(frac),
            tail_pct: percent_label(frac),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        assert_eq!(tail_fraction(0), (1, 2));
        assert_eq!(tail_fraction(19), (1, 2));
        assert_eq!(tail_fraction(20), (1, 2));
        assert_eq!(tail_fraction(99), (1, 2));
        assert_eq!(tail_fraction(100), (9, 10));
        assert_eq!(tail_fraction(999), (9, 10));
        assert_eq!(tail_fraction(1000), (99, 100));
        assert_eq!(tail_fraction(1200), (99, 100));
        assert_eq!(tail_fraction(10_000), (999, 1000));
        for n in 20..30_000 {
            let (num, den) = tail_fraction(n);
            assert!(n - rank(num, den, n) >= TAIL_MIN_BEYOND, "n={n}");
        }
    }

    #[test]
    fn summary_uses_nearest_rank() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.tail_pct, 99.0);
        let few = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.p50, few.tail, few.tail_pct), (2.0, 2.0, 50.0));
        assert_eq!(Summary::of(&[]).n, 0);
    }

    fn hist(text: &str) -> BucketHist {
        BucketHist::from_value(&Value::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn histogram_window_subtracts_the_earlier_snapshot() {
        let before = hist(r#"{"count":3,"sum":30,"buckets":[[8,2],[16,1]]}"#);
        let after = hist(r#"{"count":113,"sum":1330,"buckets":[[8,2],[16,51],[32,40],[64,20]]}"#);
        let w = after.since(&before);
        assert_eq!(w.buckets, vec![(16, 50), (32, 40), (64, 20)]);
        assert_eq!((w.count, w.sum), (110, 1300));
        let s = w.summary();
        assert_eq!((s.n, s.p50, s.tail, s.tail_pct), (110, 32.0, 64.0, 90.0));
        assert!((w.mean() - 1300.0 / 110.0).abs() < 1e-12);
        assert_eq!(w.since(&w), BucketHist::default());
        assert!(BucketHist::from_value(&Value::parse("{}").unwrap()).is_none());
    }
}
