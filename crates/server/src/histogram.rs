//! The bounded, lock-light streaming histogram behind every latency
//! and stage-duration series the service exposes.
//!
//! Values land in fixed log-spaced buckets (three per doubling, so
//! every bucket spans ~26% and a quantile estimate is never off by
//! more than ~13% within its bucket), while exact count, sum, min, and
//! max ride alongside in atomics. Memory is constant regardless of how
//! many samples arrive — the point of the design: a week-long soak
//! records every sample where the old capped `Vec<f64>` silently
//! stopped at 2^18.
//!
//! Recording is wait-free for the bucket/count (relaxed fetch-adds)
//! and lock-free for the floating-point sum/min/max (short CAS loops
//! on the bit patterns), so many producer threads can hammer one
//! histogram without contention collapse.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log-spaced buckets. With 3 buckets per doubling the
/// histogram spans 32 doublings: from 2^-20 (≈ 1 µs when recording
/// seconds) to 2^12 (≈ 68 minutes). Values outside the span clamp into
/// the edge buckets; the exact min/max are kept regardless.
const NUM_BUCKETS: usize = 96;

/// Buckets per factor-of-two of value range.
const BUCKETS_PER_DOUBLING: f64 = 3.0;

/// Exponent of the lower bound of bucket 1 (bucket 0 additionally
/// catches everything below it, including zero).
const MIN_EXP: f64 = -20.0;

/// Lower bound of bucket `i` (0 for the catch-all bucket 0).
///
/// # Panics
///
/// Panics when `i > NUM_BUCKETS` (index `NUM_BUCKETS` is allowed and
/// returns the upper bound of the last bucket).
fn bucket_lower_bound(i: usize) -> f64 {
    assert!(i <= NUM_BUCKETS, "bucket index {i} out of range");
    if i == 0 {
        0.0
    } else {
        2f64.powf(MIN_EXP + (i - 1) as f64 / BUCKETS_PER_DOUBLING)
    }
}

/// Bucket index for a finite non-negative value.
fn bucket_index(value: f64) -> usize {
    if value < 2f64.powf(MIN_EXP) {
        return 0;
    }
    let pos = (value.log2() - MIN_EXP) * BUCKETS_PER_DOUBLING;
    // +1: bucket 0 is the underflow catch-all, bucket 1 starts at
    // 2^MIN_EXP. The epsilon keeps values sitting exactly on a bucket
    // boundary (whose log2 round-trip may land a hair low) in the
    // bucket whose lower bound they are.
    (((pos + 1e-9).floor() as usize) + 1).min(NUM_BUCKETS - 1)
}

/// A concurrent, constant-memory value histogram. See the module docs
/// for the design.
#[derive(Debug)]
pub struct StreamingHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    /// `f64` bit patterns maintained by CAS loops.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records one sample. Returns `false` (recording nothing) for
    /// non-finite or negative values, so callers can count rejected
    /// samples instead of poisoning the aggregates.
    pub fn record(&self, value: f64) -> bool {
        if !value.is_finite() || value < 0.0 {
            return false;
        }
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        Self::update_f64(&self.sum_bits, |sum| sum + value);
        Self::update_f64(&self.min_bits, |min| min.min(value));
        Self::update_f64(&self.max_bits, |max| max.max(value));
        true
    }

    /// Lock-free read-modify-write of an `f64` stored as bits.
    fn update_f64(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
        let mut current = bits.load(Ordering::Relaxed);
        loop {
            let next = f(f64::from_bits(current)).to_bits();
            if next == current {
                return;
            }
            match bits.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// A point-in-time copy of the aggregates. Bucket counts are read
    /// bucket-by-bucket, so a snapshot taken concurrently with
    /// recording may be mid-sample (`count` and the bucket total can
    /// transiently differ by in-flight records); it is always a valid
    /// histogram of *some* prefix-interleaving of the samples.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        // `record` bumps `count` before it publishes the extrema, so a
        // snapshot racing the first samples can find `count ≥ 1` with
        // `max` still −∞ (or `min` and `max` from two different samples,
        // crossed). Those samples are in flight: report the histogram as
        // it was before them — empty, with the finite 0.0 extrema that
        // keep rendered output golden-testable — so `quantile`'s clamp to
        // `[min, max]` is always well-formed.
        if count == 0 || min > max {
            return HistogramSnapshot::empty();
        }
        HistogramSnapshot {
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min,
            max,
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A plain-data copy of a [`StreamingHistogram`]: the form the
/// exposition renders and the service's snapshots carry.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: f64,
    /// Exact smallest sample (0.0 when empty).
    pub min: f64,
    /// Exact largest sample (0.0 when empty).
    pub max: f64,
    /// Per-bucket sample counts: a catch-all below 2^-20, then three
    /// log-spaced buckets per doubling up to 2^12 (the last bucket also
    /// catches everything above).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    fn empty() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: vec![0; NUM_BUCKETS],
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by locating the
    /// bucket holding the target rank and interpolating linearly
    /// within it, clamped to the exact `[min, max]`. Returns 0.0 when
    /// empty. The estimate is exact for `q = 0` and `q = 1` and within
    /// one bucket width (~26%) otherwise.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return 0.0;
        }
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        let rank = q * (self.count - 1) as f64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if rank < (seen + n) as f64 || i == NUM_BUCKETS - 1 {
                let lo = bucket_lower_bound(i);
                let hi = bucket_lower_bound(i + 1);
                let frac = ((rank - seen as f64 + 0.5) / n as f64).clamp(0.0, 1.0);
                return (lo + (hi - lo) * frac).clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_monotone() {
        for i in 0..NUM_BUCKETS {
            assert!(bucket_lower_bound(i) < bucket_lower_bound(i + 1));
        }
        assert_eq!(bucket_lower_bound(0), 0.0);
    }

    #[test]
    fn values_land_in_their_bucket() {
        for i in 1..NUM_BUCKETS - 1 {
            let lo = bucket_lower_bound(i);
            let hi = bucket_lower_bound(i + 1);
            let mid = (lo + hi) / 2.0;
            assert_eq!(bucket_index(mid), i, "midpoint of bucket {i}");
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(1e30), NUM_BUCKETS - 1);
    }

    #[test]
    fn exact_aggregates() {
        let h = StreamingHistogram::new();
        for v in [0.5, 1.5, 2.5, 10.0] {
            assert!(h.record(v));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert!((s.sum - 14.5).abs() < 1e-12);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 10.0);
    }

    #[test]
    fn rejects_junk() {
        let h = StreamingHistogram::new();
        assert!(!h.record(f64::NAN));
        assert!(!h.record(f64::INFINITY));
        assert!(!h.record(-1.0));
        assert!(h.record(0.0));
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn empty_snapshot_is_finite() {
        let s = StreamingHistogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
    }

    #[test]
    fn snapshot_of_a_half_recorded_first_sample_is_finite() {
        // The state a concurrent `snapshot` can observe between two
        // statements of the first `record(0.25)`: bucket, count, sum and
        // min are in, max is still −∞.
        let h = StreamingHistogram::new();
        h.buckets[bucket_index(0.25)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum_bits.store(0.25f64.to_bits(), Ordering::Relaxed);
        h.min_bits.store(0.25f64.to_bits(), Ordering::Relaxed);
        let torn = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert!(torn.quantile(q).is_finite(), "q = {q}");
        }
        assert!(torn.min.is_finite() && torn.max.is_finite());
        // Once the sample's last store lands it is reported in full.
        h.max_bits.store(0.25f64.to_bits(), Ordering::Relaxed);
        let whole = h.snapshot();
        assert_eq!((whole.count, whole.min, whole.max), (1, 0.25, 0.25));
        assert_eq!(whole.quantile(0.5), 0.25);
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let h = StreamingHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64 / 1000.0); // 0.001 ..= 1.000
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 0.001);
        assert_eq!(s.quantile(1.0), 1.0);
        let p50 = s.quantile(0.5);
        // Within one bucket width (~26%) of the true median 0.5.
        assert!((0.35..=0.65).contains(&p50), "p50 = {p50}");
        let p99 = s.quantile(0.99);
        assert!((0.75..=1.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn quantiles_rise_with_q_from_min_to_max() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for _ in 0..200 {
            // Samples spanning 2^-30 .. 2^16, past both clamped ends of
            // the bucket range.
            let len = rng.random_range(1..=64usize);
            let values: Vec<f64> = (0..len)
                .map(|_| 2f64.powf(rng.random_range(-30.0..16.0)))
                .collect();
            let h = StreamingHistogram::new();
            for &v in &values {
                assert!(h.record(v), "unrecordable sample {v}");
            }
            let s = h.snapshot();
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            // Exact at the ends, non-decreasing in between: so every
            // estimate stays within [min, max].
            assert_eq!(s.quantile(0.0), min);
            assert_eq!(s.quantile(1.0), max);
            let mut previous = min;
            for step in 1..=200 {
                let v = s.quantile(step as f64 / 200.0);
                assert!(v >= previous, "step {step}: {v} < {previous}");
                previous = v;
            }
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(StreamingHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000 {
                        h.record((t * 10_000 + i) as f64 * 1e-6);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 40_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 40_000);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 39_999e-6);
        let expected: f64 = (0..40_000).map(|i| i as f64 * 1e-6).sum();
        assert!((s.sum - expected).abs() / expected < 1e-9);
    }
}
