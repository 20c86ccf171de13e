//! Order statistics for timing samples.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of the `p` percentile among `n >= 1` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon absorbs products such as 0.7 * 10 = 7.000000000000001.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p` percentile of `n` samples.
/// A tail percentile is reported only with at least [`MIN_BEYOND`] of them.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// True when `n` samples support reporting the `p` percentile.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// Sorts a copy ascending (timings are finite, so the order is total).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median: mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them, so a
/// spread computed here equals the one the accepting driver computes.
/// A single value has no spread: all three cuts equal it.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of an empty sample");
    if v.len() == 1 {
        return [v[0]; 3];
    }
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 samples sits at rank 90: exactly ten lie beyond it.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(supports(100, 0.9));
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert!(!supports(99, 0.9));
        // p99 needs a thousand.
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        // The median is supported from 20 samples on.
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
