//! The few statistics the benchmark reports, kept here so they are
//! defined once and unit-tested: nearest-rank percentiles on per-pass
//! samples, and the median and inter-quartile spread over passes.

/// Nearest-rank percentile of an ascending slice: the value at rank
/// `ceil(pct / 100 · n)`, 1-based. `p50` of an even count is the lower
/// middle sample; no interpolation, so every reported latency is one
/// that was observed.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = (pct / 100.0 * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median over passes: the middle value, or the mean of the two middle
/// values of an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Inter-quartile distance as a share of the median, with the
/// quartiles Python's `statistics.quantiles(values, n=4)` gives (the
/// exclusive method) — the same spread the benchmark's acceptance rule
/// is stated in. Fewer than two values have no spread: 0.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let v = sorted(values);
    let n = v.len();
    let quartile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / m.abs()
}

/// Nearest-rank median of unsorted samples; 0 when there are none (a
/// layer the run never entered).
pub fn p50(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile(&sorted(samples), 50.0)
}

/// p50, p99 and mean of a run's latency samples.
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    pub p50: f64,
    pub p99: f64,
    pub mean: f64,
}

impl LatencySummary {
    pub fn of(samples: &mut [f64]) -> Self {
        samples.sort_by(f64::total_cmp);
        Self {
            p50: percentile(samples, 50.0),
            p99: percentile(samples, 99.0),
            mean: mean(samples),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_observed_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn p99_of_1100_samples_leaves_eleven_beyond() {
        let v: Vec<f64> = (1..=1100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 1089.0);
    }

    #[test]
    fn median_of_passes() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        // One slow pass out of three does not move the reported value.
        assert_eq!(median(&[10.0, 10.5, 40.0]), 10.5);
    }

    #[test]
    fn iqr_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11], n=4) == [10.0, 11.0, 12.0]
        assert!((iqr_share(&[10.0, 12.0, 11.0]) - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }

    #[test]
    fn p50_of_unsorted_and_of_no_samples() {
        assert_eq!(p50(&[9.0, 1.0, 5.0, 3.0]), 3.0);
        assert_eq!(p50(&[]), 0.0);
    }

    #[test]
    fn latency_summary_sorts_its_input() {
        let mut v = vec![9.0, 1.0, 5.0, 3.0];
        let s = LatencySummary::of(&mut v);
        assert_eq!((s.p50, s.p99, s.mean), (3.0, 9.0, 4.5));
    }
}
