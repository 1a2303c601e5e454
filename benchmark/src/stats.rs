//! Order statistics over small samples.

/// Sorted copy; timings are never NaN.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    v
}

/// Nearest-rank quantile: the smallest sample with at least `q` of the
/// samples at or below it. 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The usual median (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the default, exclusive method), which is what the driver
/// computes its spreads from. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median: the spread the driver
/// holds against a metric's bound.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 10.0);
        assert_eq!(quantile(&xs, 0.95), 19.0);
        assert_eq!(quantile(&xs, 0.99), 20.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(spread(&xs), 1.0);
    }
}
