//! Latency, iteration and estimator statistics over a whole sample:
//! exact percentiles for the Monte Carlo runners (`qldpc-sim`) and the
//! Wilson interval for them and the campaign engine (`qldpc-campaign`).
//! The decoding service estimates quantiles over an unbounded stream
//! instead, from its own constant-memory histogram.

/// Summary statistics over a sample of latencies (or iteration counts).
///
/// # Examples
///
/// ```
/// use bpsf_core::stats::LatencyStats;
///
/// let s = LatencyStats::from_samples(vec![1.0, 2.0, 3.0, 10.0]);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 10.0);
/// assert_eq!(s.mean, 4.0);
/// assert_eq!(s.median, 2.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    /// Number of samples (0 ⇒ all other fields are 0).
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile, midpoint interpolation).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl LatencyStats {
    /// Computes statistics from raw samples; an empty sample yields zeros.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return Self {
                count: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        Self {
            count,
            mean,
            min: samples[0],
            max: samples[count - 1],
            median: percentile(&samples, 50.0),
            p95: percentile(&samples, 95.0),
            p99: percentile(&samples, 99.0),
        }
    }

    /// Whether the statistics summarize zero samples.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Renders a compact one-line summary. An empty sample renders as
    /// an explicit `n=0 (no samples)` rather than a row of misleading
    /// `0.000` aggregates.
    pub fn summary(&self) -> String {
        if self.is_empty() {
            return "n=0 (no samples)".to_string();
        }
        format!(
            "n={} mean={:.3} min={:.3} median={:.3} p95={:.3} p99={:.3} max={:.3}",
            self.count, self.mean, self.min, self.median, self.p95, self.p99, self.max
        )
    }
}

/// Renders a text histogram on a log scale (the Fig. 15/16 "violin"
/// substitute): `bins` buckets between min and max.
///
/// Non-finite samples (NaN, ±∞) are excluded from the buckets — a
/// NaN would otherwise land silently in bucket 0 via the saturating
/// float→int cast — and reported on a trailing line when present.
pub fn log_histogram(samples: &[f64], bins: usize) -> String {
    if samples.is_empty() || bins == 0 {
        return String::from("(no samples)");
    }
    let non_finite = samples.iter().filter(|s| !s.is_finite()).count();
    let finite = || samples.iter().copied().filter(|s| s.is_finite());
    if non_finite == samples.len() {
        return format!("(no finite samples; {non_finite} non-finite excluded)\n");
    }
    let lo = finite().fold(f64::INFINITY, f64::min).max(1e-9);
    let hi = finite().fold(0.0, f64::max).max(lo * 1.0001);
    let (llo, lhi) = (lo.ln(), hi.ln());
    let mut counts = vec![0usize; bins];
    for s in finite() {
        let t = ((s.max(lo).ln() - llo) / (lhi - llo) * bins as f64) as usize;
        counts[t.min(bins - 1)] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (i, &c) in counts.iter().enumerate() {
        let left = (llo + (lhi - llo) * i as f64 / bins as f64).exp();
        let bar_len = (c * 50).div_ceil(peak);
        out.push_str(&format!(
            "{:>10.3} | {:<50} {}\n",
            left,
            "#".repeat(if c > 0 { bar_len.max(1) } else { 0 }),
            c
        ));
    }
    if non_finite > 0 {
        out.push_str(&format!("({non_finite} non-finite samples excluded)\n"));
    }
    out
}

/// A two-sided confidence interval on a binomial proportion (e.g. a
/// logical error rate estimated from `failures / shots`).
///
/// Produced by [`wilson_interval`]; consumed by the campaign engine's
/// adaptive stopping rule and stamped into every generated report row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinomialCi {
    /// Lower bound (clamped to `[0, 1]`).
    pub lo: f64,
    /// Upper bound (clamped to `[0, 1]`).
    pub hi: f64,
    /// The confidence level the bounds were computed at, e.g. `0.95`.
    pub confidence: f64,
}

impl BinomialCi {
    /// Half the interval width — the campaign stopping rule's target
    /// quantity.
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }

    /// Whether `p` lies inside the interval (inclusive).
    pub fn contains(&self, p: f64) -> bool {
        (self.lo..=self.hi).contains(&p)
    }
}

/// Wilson score interval for a binomial proportion at the given
/// confidence level.
///
/// Unlike the normal-approximation ("Wald") interval, the Wilson
/// interval stays inside `[0, 1]` and behaves sensibly at the edges the
/// campaign engine actually visits: zero observed failures yield
/// `lo == 0` with a strictly positive `hi`, and all-failures yield
/// `hi == 1` with `lo < 1`. Zero shots yield the vacuous `[0, 1]`.
///
/// # Panics
///
/// Panics if `failures > shots` or `confidence` is outside `(0, 1)`.
///
/// # Examples
///
/// ```
/// use bpsf_core::stats::wilson_interval;
///
/// let ci = wilson_interval(8, 400, 0.95);
/// assert!(ci.contains(8.0 / 400.0));
/// assert!(ci.lo > 0.0 && ci.hi < 1.0);
/// // No failures observed: the lower bound is exactly zero.
/// assert_eq!(wilson_interval(0, 100, 0.95).lo, 0.0);
/// ```
pub fn wilson_interval(failures: usize, shots: usize, confidence: f64) -> BinomialCi {
    assert!(
        failures <= shots,
        "failures ({failures}) must not exceed shots ({shots})"
    );
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    if shots == 0 {
        return BinomialCi {
            lo: 0.0,
            hi: 1.0,
            confidence,
        };
    }
    // For confidence within one ulp of 1, `0.5 + confidence / 2` can
    // round to exactly 1.0 (ties-to-even), which probit rejects — clamp
    // to the largest double below 1 instead of panicking mid-campaign.
    let z = probit((0.5 + confidence / 2.0).min(1.0 - f64::EPSILON / 2.0));
    let n = shots as f64;
    let p_hat = failures as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p_hat + z2 / (2.0 * n)) / denom;
    let half = z / denom * (p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)).sqrt();
    // At the binomial edges the bound is exactly 0 (no failures) or
    // exactly 1 (all failures) algebraically; snap them so floating-point
    // rounding cannot leave the bound an ulp off the edge.
    let lo = if failures == 0 {
        0.0
    } else {
        (center - half).max(0.0)
    };
    let hi = if failures == shots {
        1.0
    } else {
        (center + half).min(1.0)
    };
    BinomialCi { lo, hi, confidence }
}

/// Inverse of the standard normal CDF (the probit function), via
/// Acklam's rational approximation (absolute error < 1.2e-9 — far below
/// anything a Monte Carlo confidence interval can resolve).
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
fn probit(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probit argument must be in (0, 1)");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        // Lower tail.
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        // Central region.
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        // Upper tail, by symmetry.
        -probit(1.0 - p)
    }
}

/// Percentile with midpoint interpolation over a **sorted** sample.
///
/// The sortedness precondition is enforced in debug builds: an unsorted
/// sample would silently interpolate between the wrong ranks. The sweep
/// uses `!(a > b)` rather than `a <= b` so samples sorted with a
/// NaN-tolerant comparator (as [`LatencyStats::from_samples`] does) pass
/// even when NaNs are present.
///
/// An empty sample returns `0.0` — the explicit "no data" value every
/// empty-summary field uses — rather than panicking or producing NaN,
/// so metric paths that race a percentile query against the first
/// recorded sample stay total.
///
/// # Panics
///
/// Panics if `pct` is outside `[0, 100]`; in debug builds, also panics
/// if `samples` is out of order.
fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    assert!(
        (0.0..=100.0).contains(&pct),
        "percentile must be in [0,100]"
    );
    debug_assert!(
        samples
            .windows(2)
            .all(|w| w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Greater)),
        "percentile requires a sorted sample"
    );
    let n = samples.len();
    if n == 1 {
        return samples[0];
    }
    let rank = pct / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    samples[lo] * (1.0 - frac) + samples[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_zeroes() {
        let s = LatencyStats::from_samples(vec![]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert!(s.is_empty());
        assert_eq!(s.summary(), "n=0 (no samples)");
    }

    #[test]
    fn non_empty_summary_reports_aggregates() {
        let s = LatencyStats::from_samples(vec![1.0, 3.0]);
        assert!(!s.is_empty());
        assert!(s.summary().starts_with("n=2 mean=2.000"));
    }

    #[test]
    fn single_sample() {
        let s = LatencyStats::from_samples(vec![2.5]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.p99, 2.5);
    }

    #[test]
    fn percentiles_interpolate() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!((percentile(&sorted, 50.0) - 50.5).abs() < 1e-9);
        assert!((percentile(&sorted, 0.0) - 1.0).abs() < 1e-9);
        assert!((percentile(&sorted, 100.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_renders() {
        let h = log_histogram(&[0.1, 0.2, 0.2, 5.0, 50.0], 8);
        assert_eq!(h.lines().count(), 8);
        assert!(h.contains('#'));
    }

    #[test]
    fn percentile_empty_is_zero() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[], 0.0), 0.0);
        assert_eq!(percentile(&[], 100.0), 0.0);
    }

    #[test]
    fn histogram_excludes_non_finite_samples() {
        let samples = vec![0.1, f64::NAN, 0.2, f64::INFINITY, 5.0, f64::NEG_INFINITY];
        let h = log_histogram(&samples, 8);
        // 8 bucket lines plus the exclusion note.
        assert_eq!(h.lines().count(), 9);
        assert!(h.contains("3 non-finite samples excluded"));
        // Bucket counts must sum to the finite samples only (a NaN used
        // to land silently in bucket 0 via the saturating cast).
        let total: usize = h
            .lines()
            .take(8)
            .map(|l| l.rsplit(' ').next().unwrap().parse::<usize>().unwrap())
            .sum();
        assert_eq!(total, 3);
        // Finite-only input renders without the note.
        let clean = log_histogram(&[0.1, 0.2, 5.0], 8);
        assert_eq!(clean.lines().count(), 8);
        assert!(!clean.contains("excluded"));
        // All-non-finite input degrades gracefully.
        let empty = log_histogram(&[f64::NAN, f64::INFINITY], 4);
        assert!(empty.contains("no finite samples"));
        assert!(empty.contains("2 non-finite"));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "sorted sample")]
    fn percentile_rejects_unsorted_input_in_debug() {
        percentile(&[3.0, 1.0, 2.0], 50.0);
    }

    #[test]
    fn percentile_sortedness_sweep_tolerates_nan_sorted_input() {
        // `from_samples` sorts with a NaN-tolerant comparator; the
        // debug-mode sortedness sweep must accept its output.
        let s = LatencyStats::from_samples(vec![2.0, f64::NAN, 1.0, 3.0]);
        assert!(s.count == 4);
        // And a directly ordered sample with a trailing NaN also passes.
        let v = [1.0, 2.0, 3.0, f64::NAN];
        let p = percentile(&v, 0.0);
        assert_eq!(p, 1.0);
    }

    #[test]
    fn probit_matches_reference_values() {
        // Reference values from standard normal tables.
        assert!((probit(0.5)).abs() < 1e-9);
        assert!((probit(0.975) - 1.959_963_985).abs() < 1e-6);
        assert!((probit(0.995) - 2.575_829_304).abs() < 1e-6);
        // Symmetry, including through the tail branches.
        for p in [1e-6, 0.01, 0.2, 0.4] {
            assert!((probit(p) + probit(1.0 - p)).abs() < 1e-8, "p={p}");
        }
        // Monotone across the branch boundaries at 0.02425.
        assert!(probit(0.024) < probit(0.025));
    }

    #[test]
    fn wilson_interval_brackets_the_point_estimate() {
        let ci = wilson_interval(13, 250, 0.95);
        let p_hat = 13.0 / 250.0;
        assert!(ci.lo < p_hat && p_hat < ci.hi);
        assert!(ci.contains(p_hat));
        assert!(ci.half_width() > 0.0);
        // Higher confidence ⇒ wider interval.
        let wider = wilson_interval(13, 250, 0.99);
        assert!(wider.half_width() > ci.half_width());
        // More shots at the same rate ⇒ narrower interval.
        let narrower = wilson_interval(130, 2500, 0.95);
        assert!(narrower.half_width() < ci.half_width());
    }

    #[test]
    fn wilson_edge_zero_failures() {
        let ci = wilson_interval(0, 100, 0.95);
        assert_eq!(ci.lo, 0.0);
        assert!(ci.hi > 0.0 && ci.hi < 0.05);
    }

    #[test]
    fn wilson_edge_all_failures() {
        let ci = wilson_interval(100, 100, 0.95);
        assert_eq!(ci.hi, 1.0);
        assert!(ci.lo < 1.0 && ci.lo > 0.95);
        // Mirror image of the zero-failure case.
        let zero = wilson_interval(0, 100, 0.95);
        assert!((ci.lo - (1.0 - zero.hi)).abs() < 1e-12);
    }

    #[test]
    fn wilson_edge_tiny_samples() {
        // One shot: the interval is wide but proper either way.
        let fail = wilson_interval(1, 1, 0.95);
        assert_eq!(fail.hi, 1.0);
        assert!(fail.lo > 0.0 && fail.lo < 0.5);
        let ok = wilson_interval(0, 1, 0.95);
        assert_eq!(ok.lo, 0.0);
        assert!(ok.hi > 0.5 && ok.hi < 1.0);
        // Zero shots: vacuous [0, 1].
        let none = wilson_interval(0, 0, 0.95);
        assert_eq!((none.lo, none.hi), (0.0, 1.0));
        assert!((none.half_width() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn wilson_rejects_impossible_counts() {
        wilson_interval(2, 1, 0.95);
    }

    #[test]
    fn wilson_survives_confidence_one_ulp_below_one() {
        // `0.5 + c/2` rounds to exactly 1.0 for these, which would trip
        // probit's domain assert without the clamp.
        for confidence in [1.0 - f64::EPSILON / 2.0, 1.0 - f64::EPSILON] {
            assert!(confidence < 1.0);
            let ci = wilson_interval(1, 2, confidence);
            assert!(ci.lo >= 0.0 && ci.hi <= 1.0 && ci.lo < ci.hi);
        }
    }
}
