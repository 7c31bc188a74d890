//! Statistical measurement primitives for the benchmark harness.
//!
//! A small but real measurement pipeline: warm-up, calibrated per-sample
//! iteration counts, robust summary statistics (median / p95 / p99), MAD-based
//! outlier rejection, and a bootstrap confidence interval for the mean driven
//! by a seeded [`SplitMix64`] stream. Every number the harness
//! publishes flows through [`Stats::from_samples`], so a bench target and the
//! `bench_report` runner binary report the same statistics.

use std::time::{Duration, Instant};

use sim_math::SplitMix64;

/// Scale factor turning a median absolute deviation into a consistent
/// estimator of the standard deviation under normality.
const MAD_NORMAL_CONSISTENCY: f64 = 1.4826;

/// Configuration of one measurement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureConfig {
    /// Un-timed iterations executed before any sample is taken.
    pub warmup_iters: u64,
    /// Number of timed samples collected (each sample times a batch of
    /// iterations and records the mean nanoseconds per iteration).
    pub samples: usize,
    /// Target wall-clock duration of one sample; the iteration count per
    /// sample is calibrated from a probe run so a sample lands near this.
    pub target_sample_time: Duration,
    /// Upper bound on the calibrated iterations per sample.
    pub max_iters_per_sample: u64,
    /// Outlier cut: samples farther than this many scaled-MAD units from the
    /// median are rejected before summary statistics are computed.
    pub mad_sigmas: f64,
    /// Number of bootstrap resamples used for the confidence interval.
    pub bootstrap_resamples: usize,
    /// Two-sided confidence level of the bootstrap interval, in `(0, 1)`.
    pub confidence: f64,
    /// Seed of the deterministic bootstrap resampler.
    pub seed: u64,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            warmup_iters: 3,
            samples: 30,
            target_sample_time: Duration::from_millis(5),
            max_iters_per_sample: 10_000,
            mad_sigmas: 5.0,
            bootstrap_resamples: 200,
            confidence: 0.95,
            seed: 0xC0D,
        }
    }
}

impl MeasureConfig {
    /// A reduced budget for CI smoke runs (`bench_report --quick`).
    pub fn quick() -> Self {
        MeasureConfig {
            warmup_iters: 1,
            samples: 8,
            target_sample_time: Duration::from_millis(1),
            max_iters_per_sample: 200,
            bootstrap_resamples: 50,
            ..MeasureConfig::default()
        }
    }

    /// Default configuration, downgraded to [`MeasureConfig::quick`] when the
    /// `COD_BENCH_QUICK` environment variable is set to a non-`0` value.
    pub fn from_env() -> Self {
        match std::env::var("COD_BENCH_QUICK") {
            Ok(v) if !v.is_empty() && v != "0" => MeasureConfig::quick(),
            _ => MeasureConfig::default(),
        }
    }
}

/// Robust summary of a set of samples. For timing measurements the unit is
/// nanoseconds per iteration; the struct itself is unit-agnostic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Samples collected before outlier rejection.
    pub samples: usize,
    /// Samples surviving outlier rejection (all statistics use these).
    pub kept: usize,
    /// Samples rejected by the MAD cut.
    pub outliers_rejected: usize,
    /// Arithmetic mean of the kept samples.
    pub mean: f64,
    /// Median of the kept samples.
    pub median: f64,
    /// 95th percentile of the kept samples.
    pub p95: f64,
    /// 99th percentile of the kept samples.
    pub p99: f64,
    /// Smallest kept sample.
    pub min: f64,
    /// Largest kept sample.
    pub max: f64,
    /// Sample standard deviation of the kept samples.
    pub std_dev: f64,
    /// Raw (unscaled) median absolute deviation of the kept samples.
    pub mad: f64,
    /// Lower bound of the bootstrap confidence interval for the mean.
    pub ci_low: f64,
    /// Upper bound of the bootstrap confidence interval for the mean.
    pub ci_high: f64,
    /// Confidence level the interval was computed at.
    pub confidence: f64,
}

impl Stats {
    /// Computes the full summary for `samples`: MAD outlier rejection first,
    /// then order statistics and the bootstrap interval on the survivors.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[f64], config: &MeasureConfig) -> Stats {
        assert!(!samples.is_empty(), "Stats::from_samples needs at least one sample");
        let (kept, rejected) = reject_outliers_mad(samples, config.mad_sigmas);
        let (ci_low, ci_high) =
            bootstrap_ci(&kept, config.bootstrap_resamples, config.confidence, config.seed);
        Stats {
            samples: samples.len(),
            kept: kept.len(),
            outliers_rejected: rejected,
            mean: mean(&kept),
            median: median(&kept),
            p95: percentile(&kept, 95.0),
            p99: percentile(&kept, 99.0),
            min: kept.iter().copied().fold(f64::INFINITY, f64::min),
            max: kept.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            std_dev: std_dev(&kept),
            mad: mad(&kept),
            ci_low,
            ci_high,
            confidence: config.confidence,
        }
    }
}

/// Result of timing one routine under a [`MeasureConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Summary over the per-sample mean nanoseconds per iteration.
    pub stats: Stats,
    /// Calibrated iterations executed per timed sample.
    pub iters_per_sample: u64,
}

impl Measurement {
    /// Median nanoseconds per iteration.
    pub fn median_ns(&self) -> f64 {
        self.stats.median
    }

    /// Iterations per second at the median.
    pub fn median_rate(&self) -> f64 {
        1e9 / self.stats.median.max(f64::MIN_POSITIVE)
    }
}

/// Times `routine` under `config`: warm-up, iteration-count calibration, then
/// `config.samples` timed batches summarized into [`Stats`] (ns/iteration).
pub fn measure<F: FnMut()>(config: &MeasureConfig, mut routine: F) -> Measurement {
    for _ in 0..config.warmup_iters {
        routine();
    }
    let iters = calibrate(config, &mut routine);
    let samples: Vec<f64> =
        (0..config.samples.max(1)).map(|_| time_sample(iters, &mut routine)).collect();
    Measurement { stats: Stats::from_samples(&samples, config), iters_per_sample: iters }
}

/// Two routines timed in alternation by [`measure_pairs`].
#[derive(Debug, Clone, PartialEq)]
pub struct PairedMeasurement {
    /// Summary of the baseline routine's samples.
    pub baseline: Measurement,
    /// Summary of the candidate routine's samples.
    pub candidate: Measurement,
    /// `candidate / baseline` of each pair of back-to-back samples, in the
    /// order the pairs ran.
    pub ratios: Vec<f64>,
}

/// Times `baseline` and `candidate` in alternation: each of `config.samples`
/// rounds takes one sample of either (the same iteration count, calibrated on
/// `baseline`; which side goes first flips every round), so a shift in
/// machine speed lands inside a pair and cancels in its ratio instead of
/// landing between two blocks of samples. Compare the two through the median
/// of [`PairedMeasurement::ratios`].
pub fn measure_pairs<A: FnMut(), B: FnMut()>(
    config: &MeasureConfig,
    mut baseline: A,
    mut candidate: B,
) -> PairedMeasurement {
    for _ in 0..config.warmup_iters {
        baseline();
        candidate();
    }
    let iters = calibrate(config, &mut baseline);
    let rounds = config.samples.max(1);
    let (mut base_ns, mut cand_ns) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    for round in 0..rounds {
        if round % 2 == 0 {
            base_ns.push(time_sample(iters, &mut baseline));
            cand_ns.push(time_sample(iters, &mut candidate));
        } else {
            cand_ns.push(time_sample(iters, &mut candidate));
            base_ns.push(time_sample(iters, &mut baseline));
        }
    }
    let ratios = base_ns.iter().zip(&cand_ns).map(|(b, c)| c / b.max(1e-12)).collect();
    let summarize = |ns: &[f64]| Measurement {
        stats: Stats::from_samples(ns, config),
        iters_per_sample: iters,
    };
    PairedMeasurement { baseline: summarize(&base_ns), candidate: summarize(&cand_ns), ratios }
}

/// One timed sample: mean nanoseconds per iteration over `iters` calls.
fn time_sample<F: FnMut()>(iters: u64, routine: &mut F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        routine();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Milliseconds since the Unix epoch, for stamping report metadata. Lives
/// here — the measurement layer is the workspace's wall-clock fence (see
/// `audit.toml`) — so the report modules themselves never read a clock.
pub fn wall_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Picks how many iterations one timed sample should batch so that a sample
/// lasts roughly `target_sample_time`, based on a single timed probe run.
fn calibrate<F: FnMut()>(config: &MeasureConfig, routine: &mut F) -> u64 {
    let start = Instant::now();
    routine();
    let probe_ns = start.elapsed().as_nanos().max(1) as u64;
    let target_ns = config.target_sample_time.as_nanos().max(1) as u64;
    (target_ns / probe_ns).clamp(1, config.max_iters_per_sample.max(1))
}

/// Arithmetic mean. Returns `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (`n - 1` denominator); `0.0` when `n < 2`.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Median of `xs` (mean of the two central order statistics for even `n`).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile of `xs` (`p` in `[0, 100]`) with linear
/// interpolation between the surrounding order statistics, so `p = 0` is the
/// minimum, `p = 100` the maximum and `p = 50` the conventional median.
///
/// # Panics
///
/// Panics if `xs` is empty or `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample set");
    assert!((0.0..=100.0).contains(&p), "percentile {p} outside [0, 100]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-comparable sample"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Raw median absolute deviation from the median (unscaled).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let deviations: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&deviations)
}

/// Drops every sample farther than `sigmas` scaled-MAD units from the median
/// and returns `(kept, rejected_count)`. When the MAD is zero (at least half
/// the samples identical) nothing is rejected — the spread estimate carries
/// no information there.
pub fn reject_outliers_mad(xs: &[f64], sigmas: f64) -> (Vec<f64>, usize) {
    if xs.len() < 3 {
        return (xs.to_vec(), 0);
    }
    let m = median(xs);
    let sigma = mad(xs) * MAD_NORMAL_CONSISTENCY;
    if sigma <= 0.0 {
        return (xs.to_vec(), 0);
    }
    let kept: Vec<f64> = xs.iter().copied().filter(|x| (x - m).abs() <= sigmas * sigma).collect();
    let rejected = xs.len() - kept.len();
    (kept, rejected)
}

/// Percentile-bootstrap confidence interval for the mean of `xs`, computed
/// from `resamples` deterministic resamples (a [`SplitMix64`] stream seeded
/// with `seed`). Degenerates to a point interval when `n < 2`.
pub fn bootstrap_ci(xs: &[f64], resamples: usize, confidence: f64, seed: u64) -> (f64, f64) {
    assert!((0.0..1.0).contains(&confidence) && confidence > 0.0, "confidence must be in (0, 1)");
    if xs.len() < 2 {
        let point = xs.first().copied().unwrap_or(0.0);
        return (point, point);
    }
    let mut rng = SplitMix64::new(seed);
    let mut means = Vec::with_capacity(resamples.max(1));
    for _ in 0..resamples.max(1) {
        let sum: f64 = (0..xs.len()).map(|_| xs[rng.below(xs.len())]).sum();
        means.push(sum / xs.len() as f64);
    }
    let alpha = (1.0 - confidence) / 2.0 * 100.0;
    (percentile(&means, alpha), percentile(&means, 100.0 - alpha))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_single_sample() {
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn median_of_odd_count_is_central_element() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn median_of_even_count_interpolates() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_edges_are_min_and_max() {
        let xs = [3.0, 1.0, 4.0, 1.5, 9.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 9.0);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        // Sorted: [10, 20, 30, 40]; rank of p75 is 2.25 -> 30 + 0.25 * 10.
        assert_eq!(percentile(&[40.0, 10.0, 30.0, 20.0], 75.0), 32.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty_input() {
        percentile(&[], 50.0);
    }

    #[test]
    fn mad_of_constant_samples_is_zero() {
        assert_eq!(mad(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn mad_rejection_drops_planted_outlier_only() {
        let mut xs = vec![10.0, 10.2, 9.9, 10.1, 9.8, 10.0, 10.3, 9.7];
        xs.push(1_000.0);
        let (kept, rejected) = reject_outliers_mad(&xs, 5.0);
        assert_eq!(rejected, 1);
        assert_eq!(kept.len(), 8);
        assert!(kept.iter().all(|&x| x < 100.0));
    }

    #[test]
    fn mad_rejection_keeps_clean_data() {
        let xs = [10.0, 10.2, 9.9, 10.1, 9.8];
        let (kept, rejected) = reject_outliers_mad(&xs, 5.0);
        assert_eq!(rejected, 0);
        assert_eq!(kept, xs.to_vec());
    }

    #[test]
    fn mad_rejection_with_zero_spread_keeps_everything() {
        let xs = [5.0, 5.0, 5.0, 5.0, 99.0];
        // MAD is zero: majority identical. The cut must not divide by zero or
        // reject arbitrarily.
        let (kept, rejected) = reject_outliers_mad(&xs, 5.0);
        assert_eq!(rejected, 0);
        assert_eq!(kept.len(), 5);
    }

    #[test]
    fn bootstrap_ci_brackets_the_mean_and_is_deterministic() {
        let xs: Vec<f64> = (0..40).map(|i| 100.0 + (i % 7) as f64).collect();
        let a = bootstrap_ci(&xs, 200, 0.95, 42);
        let b = bootstrap_ci(&xs, 200, 0.95, 42);
        assert_eq!(a, b, "same seed must give the same interval");
        let m = mean(&xs);
        assert!(a.0 <= m && m <= a.1, "CI {a:?} must contain the sample mean {m}");
        assert!(a.0 < a.1);
    }

    #[test]
    fn bootstrap_ci_degenerates_for_single_sample() {
        assert_eq!(bootstrap_ci(&[3.0], 100, 0.95, 1), (3.0, 3.0));
    }

    #[test]
    fn stats_from_samples_counts_and_orders() {
        let config = MeasureConfig::default();
        let mut xs: Vec<f64> = (0..30).map(|i| 50.0 + (i % 5) as f64).collect();
        xs.push(5_000.0);
        let stats = Stats::from_samples(&xs, &config);
        assert_eq!(stats.samples, 31);
        assert_eq!(stats.outliers_rejected, 1);
        assert_eq!(stats.kept, 30);
        assert!(stats.min <= stats.median && stats.median <= stats.p95);
        assert!(stats.p95 <= stats.p99 && stats.p99 <= stats.max);
        assert!(stats.ci_low <= stats.mean && stats.mean <= stats.ci_high);
    }

    #[test]
    fn measure_times_a_real_routine() {
        let config = MeasureConfig {
            samples: 5,
            target_sample_time: Duration::from_micros(200),
            ..MeasureConfig::quick()
        };
        let mut acc = 0u64;
        let m = measure(&config, || {
            for i in 0..100u64 {
                acc = acc.wrapping_add(std::hint::black_box(i * i));
            }
        });
        assert_eq!(m.stats.samples, 5);
        assert!(m.stats.kept >= 1);
        assert!(m.stats.median > 0.0, "a non-empty loop takes time");
        assert!(m.iters_per_sample >= 1);
        std::hint::black_box(acc);
    }

    #[test]
    fn measure_pairs_alternates_sides_and_reports_one_ratio_per_pair() {
        let config = MeasureConfig {
            warmup_iters: 0,
            samples: 4,
            target_sample_time: Duration::from_nanos(1),
            ..MeasureConfig::quick()
        };
        let order = std::cell::RefCell::new(String::new());
        let pairs = measure_pairs(
            &config,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        // The calibration probe runs the baseline once; then the side that
        // goes first flips every round.
        assert_eq!(order.into_inner(), "a".to_owned() + "ab" + "ba" + "ab" + "ba");
        assert_eq!(pairs.ratios.len(), 4);
        assert!(pairs.ratios.iter().all(|r| *r > 0.0));
        assert_eq!(pairs.baseline.stats.samples, 4);
        assert_eq!(pairs.candidate.stats.samples, 4);
        assert_eq!(pairs.baseline.iters_per_sample, 1);
    }
}
