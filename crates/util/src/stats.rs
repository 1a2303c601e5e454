//! Summary statistics over repeated measurements.

/// Summary of a sample of `f64` observations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator; 0 when n < 2).
    pub stddev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Maximum observation.
    pub max: f64,
    /// Median (average of middle two for even n).
    pub median: f64,
}

impl Summary {
    /// Computes a summary; returns `None` for an empty sample.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Some(Summary {
            n,
            mean,
            stddev: var.sqrt(),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            median: median(xs),
        })
    }
}

/// Median of a non-empty sample: the middle element, or the average of
/// the middle pair for an even count — the textbook definition, and the
/// one [`Summary`] and the microbench runner always used. The workspace's
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

/// Measures a closure `reps` times and returns the per-run seconds.
///
/// One warm-up run is executed first and discarded so that lazily
/// initialized state (page faults, buffer growth) does not pollute the
/// sample.
pub fn measure_secs(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    f(); // warm-up
    let mut out = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = std::time::Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64());
    }
    out
}

/// Geometric mean; `None` when empty or any element is non-positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        // sample stddev of 1..4 = sqrt(5/3)
        assert!((s.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_single_element() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    fn median_odd() {
        let s = Summary::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!(s.median, 3.0);
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

    #[test]
    fn geomean_known() {
        let g = geomean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_none());
        assert!(geomean(&[1.0, 0.0]).is_none());
    }

    #[test]
    fn measure_returns_requested_reps() {
        let times = measure_secs(3, || {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert_eq!(times.len(), 3);
        assert!(times.iter().all(|&t| t >= 0.0));
    }
}
