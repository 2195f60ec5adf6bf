//! Order statistics used by every reported timing.
//!
//! The benchmark's percentile rule is **nearest rank**: the `p`-th percentile of `n` samples
//! is the `⌈p·n/100⌉`-th smallest sample (the smallest for `p = 0`).  It always returns an
//! observed value, never an interpolation, so a reported p90 is a latency some job really
//! had.  [`tail_samples`] says how many samples lie strictly beyond a percentile's rank,
//! which is how the benchmark states whether a p90 is backed by at least ten of them.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `samples` by the nearest-rank rule, or `None`
/// for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The median (50th percentile, nearest rank: the lower middle sample of an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The 1-based nearest rank of the `p`-th percentile among `n ≥ 1` samples.
fn rank(n: usize, p: f64) -> usize {
    let p = p.clamp(0.0, 100.0);
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly above the `p`-th percentile's rank.
pub fn tail_samples(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The quartile spread `(Q3 − Q1) / median` of `samples`, with quartiles by the
/// "exclusive" method of Python's `statistics.quantiles(values, n=4)` — the rule the
/// benchmark's steadiness check is judged by.  `None` below two samples or at a zero
/// median.
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let exclusive = |i: usize| {
        // statistics.quantiles(method="exclusive"): m = n + 1, j = ⌊i·m/4⌋, δ = i·m − 4j.
        let n = sorted.len();
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (4 * j) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    let (q1, q2, q3) = (exclusive(1), exclusive(2), exclusive(3));
    (q2 != 0.0).then(|| (q3 - q1) / q2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_observed_samples() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(5.0));
        assert_eq!(percentile(&samples, 90.0), Some(9.0));
        assert_eq!(percentile(&samples, 91.0), Some(10.0));
        assert_eq!(percentile(&samples, 100.0), Some(10.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let samples = [30.0, 10.0, 20.0, 40.0];
        assert_eq!(
            median(&samples),
            Some(20.0),
            "lower middle of an even count"
        );
        assert_eq!(percentile(&samples, 75.0), Some(30.0));
    }

    #[test]
    fn p90_has_ten_samples_beyond_it_from_one_hundred_on() {
        assert_eq!(tail_samples(100, 90.0), 10);
        assert_eq!(tail_samples(99, 90.0), 9);
        assert_eq!(tail_samples(250, 90.0), 25);
        assert_eq!(
            tail_samples(6, 90.0),
            0,
            "p90 of six samples is the maximum"
        );
        assert_eq!(tail_samples(0, 90.0), 0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&samples).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        let spread = quartile_spread(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert!((spread - 2.5 / 2.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }
}
