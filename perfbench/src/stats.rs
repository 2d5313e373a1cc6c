//! Summary statistics for timing samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps `0.99 * 1000` at rank 990 despite binary rounding.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 - 1e-9).ceil() as usize
}

/// Median of unsorted samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A timing reported the way the benchmark reports every timing: the
/// median, plus the highest of the standard tail percentiles that still has
/// at least ten samples beyond it, with the sample count.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub median: f64,
    /// `(percentile, value)`, or `None` when fewer than ten samples lie
    /// beyond even the 75th percentile.
    pub tail: Option<(f64, f64)>,
}

/// Tail percentiles the rule picks from, highest first.
const TAILS: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// Apply the percentile rule to `samples`.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let tail = TAILS
        .iter()
        .copied()
        .find(|&p| n - rank(p, n) >= 10)
        .map(|p| (p, percentile(&s, p)));
    Summary {
        count: n,
        median: median(&s),
        tail,
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50 {:.3}", self.median)?;
        if let Some((p, v)) = self.tail {
            write!(f, ", p{} {:.3}", p * 100.0, v)?;
        }
        write!(f, " (n={})", self.count)
    }
}

/// First and third quartile with Python's `statistics.quantiles(n=4)`
/// (exclusive method), so spreads match what the harness computes.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 200 samples: p95 leaves exactly 10 beyond, p99 only 2.
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        let sum = summarize(&s);
        assert_eq!(sum.count, 200);
        assert_eq!(sum.median, 100.5);
        assert_eq!(sum.tail, Some((0.95, 190.0)));
        // 199 samples: p95 leaves 9, so the rule falls back to p90.
        let sum = summarize(&s[..199]);
        assert_eq!(sum.tail, Some((0.9, 180.0)));
        // 1000 samples reach p99.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(summarize(&s).tail, Some((0.99, 990.0)));
        // Too few samples for any tail: median only, count still reported.
        let sum = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((sum.count, sum.median, sum.tail), (3, 2.0, None));
        assert_eq!(sum.to_string(), "p50 2.000 (n=3)");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), (2.75, 8.25));
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 3.75));
    }
}
