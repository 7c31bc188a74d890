//! Order statistics for the benchmark: medians of repeats, the tail
//! percentile that still has enough samples beyond it, and the quartile
//! spread the acceptance rule is stated in.
//!
//! Medians and percentiles are `cod_bench::measure`'s (linear interpolation
//! between closest ranks), so a "p50" here and in `BENCH_cod.json` agree.

pub use cod_bench::measure::{median, percentile};

/// Samples that must lie beyond a reported tail percentile for it to be
/// trusted (choosing-metrics §1).
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Whether `samples` observations leave at least [`MIN_SAMPLES_BEYOND`] of
/// them beyond percentile `p` (0–100), i.e. whether that tail may be reported.
pub fn tail_is_supported(samples: usize, p: f64) -> bool {
    samples as f64 * (100.0 - p) / 100.0 >= MIN_SAMPLES_BEYOND as f64 - 1e-9
}

/// First and third quartile by the *exclusive* method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is how the driver
/// measures run-to-run spread.
///
/// # Panics
///
/// Panics with fewer than two samples (the quartiles are undefined).
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-comparable sample"));
    let n = sorted.len();
    let at = |k: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 for a single sample or a
/// zero median).
pub fn iqr_share(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_repeats_ignores_one_slow_repeat() {
        let repeats = [1.0, 1.02, 0.98, 1.01, 9.0, 0.99, 1.0, 1.03, 0.97];
        assert_eq!(median(&repeats), 1.0);
        assert!(iqr_share(&repeats) < 0.05, "iqr share {}", iqr_share(&repeats));
        assert_eq!(iqr_share(&[1.0]), 0.0, "one repeat has no spread");
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 2000 frames: 20 beyond p99, only 2 beyond p99.9.
        assert!(tail_is_supported(2_000, 99.0));
        assert!(!tail_is_supported(2_000, 99.9));
        // 999 samples leave 9.99 beyond p99: not enough; 1000 leave exactly 10.
        assert!(!tail_is_supported(999, 99.0));
        assert!(tail_is_supported(1_000, 99.0));
        assert!(tail_is_supported(200, 95.0));
        assert!(!tail_is_supported(199, 95.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(iqr_share(&xs), 5.5 / 5.5);
    }
}
