//! Robust statistics over repeated measurements: median and MAD.

/// Median of a non-empty sample: the middle element, or the average of
/// the middle pair for an even count — the textbook definition, and the
/// one the microbench runner always used. The workspace's
/// only median; the "upper middle" shortcut the sync probe and
/// `sync_ablation` once took agrees with it on every odd-length sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of empty sample");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Median absolute deviation: `median(|x_i - median(x)|)`. A robust
/// spread estimate — unlike the standard deviation, a few slow outlier
/// samples (scheduler preemption, page cache misses) barely move it.
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mad_on_known_distribution() {
        // median 3; |dev| = [2, 1, 0, 1, 97] -> median 1. The 100.0
        // outlier moves the mean to 22 and stddev to ~43.6 but leaves
        // the MAD at 1 — exactly why the runner reports MAD.
        let xs = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(mad(&xs), 1.0);
    }

    #[test]
    fn mad_of_constant_sample_is_zero() {
        assert_eq!(mad(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn mad_even_length() {
        // median 2.5; |dev| = [1.5, 0.5, 0.5, 1.5] -> median 1.0
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "median of empty sample")]
    fn median_empty_panics() {
        median(&[]);
    }
}
