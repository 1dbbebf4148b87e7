//! Per-code service metrics: request counters, dispatched-batch-size
//! histogram, end-to-end latency, per-stage timing, and decoder
//! convergence counters.
//!
//! Latency and stage durations live in [`StreamingHistogram`]s —
//! constant memory, never drops a sample — and the exposed quantiles
//! are *estimates* from its log-spaced buckets (exact min/max,
//! estimates within one bucket width ≈ 26% elsewhere).

use crate::exposition::Exposition;
use crate::histogram::{HistogramSnapshot, StreamingHistogram};
use crate::stage::{Stage, StageSet, StageSnapshot};
use qldpc_decoder_api::{DecodeTelemetry, Precision};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two batch-size buckets: `[1]`, `[2]`, `(2,4]`,
/// `(4,8]`, … `(128,256]`, `>256`.
pub const BATCH_HISTOGRAM_BUCKETS: usize = 10;

/// The quantile estimates every exposed histogram decomposes into.
const EXPOSED_QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

/// Live, lock-light counters one registered code's workers share.
#[derive(Debug)]
pub(crate) struct CodeMetrics {
    pub submitted: AtomicU64,
    pub rejected_overload: AtomicU64,
    pub completed: AtomicU64,
    pub expired: AtomicU64,
    /// Requests answered `DecodeError::WorkerLost` because their worker
    /// died before decoding them.
    pub lost: AtomicU64,
    pub batches: AtomicU64,
    /// Live (non-expired) requests summed over all dispatched batches.
    pub batched_requests: AtomicU64,
    batch_histogram: [AtomicU64; BATCH_HISTOGRAM_BUCKETS],
    /// End-to-end (submit → fulfill) latency, in seconds.
    latency: StreamingHistogram,
    /// Samples the histogram refused (non-finite/negative — cannot
    /// happen for `Duration`-sourced values, but the accounting stays
    /// visible rather than silent).
    latency_dropped: AtomicU64,
    /// Per-stage durations (queue-wait, coalesce-wait, kernel,
    /// post-process, fulfill), in seconds.
    pub stages: StageSet,
    /// Decoder convergence-effort counters.
    pub convergence: ConvergenceCounters,
}

impl Default for CodeMetrics {
    fn default() -> Self {
        Self {
            submitted: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            batch_histogram: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: StreamingHistogram::new(),
            latency_dropped: AtomicU64::new(0),
            stages: StageSet::new(),
            convergence: ConvergenceCounters::default(),
        }
    }
}

/// Bucket index for a dispatched batch of `size` live requests.
fn bucket_index(size: usize) -> usize {
    debug_assert!(size >= 1);
    let idx = usize::BITS as usize - (size - 1).max(1).leading_zeros() as usize;
    // size=1 → idx formula gives 1 for (size-1).max(1)=1; special-case it.
    if size == 1 {
        0
    } else {
        idx.min(BATCH_HISTOGRAM_BUCKETS - 1)
    }
}

/// Human-readable label of histogram bucket `i`.
fn bucket_label(i: usize) -> String {
    match i {
        0 => "1".into(),
        1 => "2".into(),
        _ if i < BATCH_HISTOGRAM_BUCKETS - 1 => format!("{}-{}", (1 << (i - 1)) + 1, 1 << i),
        _ => format!(">{}", 1 << (BATCH_HISTOGRAM_BUCKETS - 2)),
    }
}

impl CodeMetrics {
    /// Records one dispatched batch of `live` decoded requests.
    pub fn record_batch(&self, live: usize) {
        if live == 0 {
            return;
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(live as u64, Ordering::Relaxed);
        self.batch_histogram[bucket_index(live)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one fulfilled response's end-to-end latency.
    pub fn record_latency(&self, total: Duration) {
        if !self.latency.record(total.as_secs_f64()) {
            self.latency_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Consistent point-in-time copy of all counters, stamped with the
    /// code's declared decoder precision.
    pub fn snapshot(&self, precision: Precision) -> MetricsSnapshot {
        let latency = self.latency.snapshot();
        let batches = self.batches.load(Ordering::Relaxed);
        let batched = self.batched_requests.load(Ordering::Relaxed);
        MetricsSnapshot {
            precision,
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            lost: self.lost.load(Ordering::Relaxed),
            batches,
            mean_batch_size: if batches == 0 {
                0.0
            } else {
                batched as f64 / batches as f64
            },
            batch_histogram: std::array::from_fn(|i| {
                self.batch_histogram[i].load(Ordering::Relaxed)
            }),
            latency_samples_dropped: self.latency_dropped.load(Ordering::Relaxed),
            latency,
            stages: self.stages.snapshot(),
            convergence: self.convergence.snapshot(),
        }
    }
}

/// Decoder convergence-effort counters, accumulated from the
/// [`DecodeTelemetry`] of every outcome a code's workers produce.
#[derive(Debug, Default)]
pub(crate) struct ConvergenceCounters {
    decodes: AtomicU64,
    bp_iterations: AtomicU64,
    bp_converged: AtomicU64,
    oscillating_bits: AtomicU64,
    osd_invocations: AtomicU64,
    osd_candidates: AtomicU64,
    sf_trials: AtomicU64,
}

impl ConvergenceCounters {
    /// Folds one decode outcome's telemetry into the running totals.
    pub fn record_outcome(&self, t: &DecodeTelemetry) {
        self.decodes.fetch_add(1, Ordering::Relaxed);
        self.bp_iterations
            .fetch_add(t.bp_iterations, Ordering::Relaxed);
        self.bp_converged
            .fetch_add(u64::from(t.bp_converged), Ordering::Relaxed);
        self.oscillating_bits
            .fetch_add(t.oscillating_bits, Ordering::Relaxed);
        self.osd_invocations
            .fetch_add(t.osd_invocations, Ordering::Relaxed);
        self.osd_candidates
            .fetch_add(t.osd_candidates, Ordering::Relaxed);
        self.sf_trials.fetch_add(t.sf_trials, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ConvergenceSnapshot {
        ConvergenceSnapshot {
            decodes: self.decodes.load(Ordering::Relaxed),
            bp_iterations: self.bp_iterations.load(Ordering::Relaxed),
            bp_converged: self.bp_converged.load(Ordering::Relaxed),
            oscillating_bits: self.oscillating_bits.load(Ordering::Relaxed),
            osd_invocations: self.osd_invocations.load(Ordering::Relaxed),
            osd_candidates: self.osd_candidates.load(Ordering::Relaxed),
            sf_trials: self.sf_trials.load(Ordering::Relaxed),
        }
    }
}

/// Frozen view of one code's convergence counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConvergenceSnapshot {
    /// Decode outcomes recorded.
    pub decodes: u64,
    /// Total BP iterations across all recorded outcomes.
    pub bp_iterations: u64,
    /// Outcomes whose initial BP attempt converged.
    pub bp_converged: u64,
    /// Total oscillating bits observed (oscillation-tracking decoders).
    pub oscillating_bits: u64,
    /// OSD post-processing invocations.
    pub osd_invocations: u64,
    /// OSD candidate patterns swept.
    pub osd_candidates: u64,
    /// Syndrome-flip trials executed (BP-SF decoders).
    pub sf_trials: u64,
}

/// Frozen view of one code's service metrics.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Declared message precision of this code's decoder pool
    /// (`ServiceConfig::precision`).
    pub precision: Precision,
    /// Requests accepted into the code's queue.
    pub submitted: u64,
    /// Submissions refused with `SubmitError::Overloaded`.
    pub rejected_overload: u64,
    /// Requests decoded and fulfilled.
    pub completed: u64,
    /// Requests fulfilled with `DecodeError::DeadlineExceeded`.
    pub expired: u64,
    /// Requests fulfilled with `DecodeError::WorkerLost` (their worker
    /// died before producing an outcome).
    pub lost: u64,
    /// Batches dispatched to `decode_batch`.
    pub batches: u64,
    /// Mean live requests per dispatched batch.
    pub mean_batch_size: f64,
    /// Dispatched-batch-size counts in power-of-two buckets: `1`, `2`,
    /// `3-4`, … `129-256`, `>256`.
    pub batch_histogram: [u64; BATCH_HISTOGRAM_BUCKETS],
    /// Latency samples the histogram refused (non-finite input).
    pub latency_samples_dropped: u64,
    /// The end-to-end (submit → fulfill) latency histogram, in seconds.
    pub latency: HistogramSnapshot,
    /// Per-stage duration histograms, in seconds.
    pub stages: StageSnapshot,
    /// Decoder convergence-effort counters.
    pub convergence: ConvergenceSnapshot,
}

impl MetricsSnapshot {
    /// All accepted requests are accounted for:
    /// `completed + expired + lost == submitted` once the service has
    /// drained (lost covers requests answered for a dead worker).
    pub fn is_drained(&self) -> bool {
        self.completed + self.expired + self.lost == self.submitted
    }

    /// Emits this snapshot's series into a text exposition under
    /// `code="{code}"` labels — the per-code half of
    /// `DecodeService::render_exposition`. Timing-valued series carry a
    /// `_seconds` name component (golden tests range-check those and
    /// byte-compare the rest).
    /// With `node` set, every series additionally carries
    /// `node="{node}"` so scrapes from several service nodes aggregate
    /// without colliding (the networked front-end threads its configured
    /// identity through here).
    pub(crate) fn exposition_into(&self, code: &str, node: Option<&str>, exp: &mut Exposition) {
        fn joined<'a>(
            base: &[(&'a str, &'a str)],
            extra: &[(&'a str, &'a str)],
        ) -> Vec<(&'a str, &'a str)> {
            let mut labels = base.to_vec();
            labels.extend_from_slice(extra);
            labels
        }
        let mut base: Vec<(&str, &str)> = vec![("code", code)];
        if let Some(node) = node {
            base.push(("node", node));
        }
        let l = &base;
        exp.counter(
            "qldpc_code_info",
            &joined(&base, &[("precision", self.precision.name())]),
            1,
        );
        exp.counter("qldpc_requests_submitted_total", l, self.submitted);
        exp.counter(
            "qldpc_requests_rejected_overload_total",
            l,
            self.rejected_overload,
        );
        exp.counter("qldpc_requests_completed_total", l, self.completed);
        exp.counter("qldpc_requests_expired_total", l, self.expired);
        exp.counter("qldpc_requests_lost_total", l, self.lost);
        exp.counter("qldpc_batches_total", l, self.batches);
        exp.gauge("qldpc_batch_size_mean", l, self.mean_batch_size);
        exp.counter(
            "qldpc_latency_samples_dropped_total",
            l,
            self.latency_samples_dropped,
        );
        for (i, &count) in self.batch_histogram.iter().enumerate() {
            let size = bucket_label(i);
            exp.counter(
                "qldpc_batch_size_bucket",
                &joined(&base, &[("size", &size)]),
                count,
            );
        }
        exp.histogram(
            "qldpc_request_duration_seconds",
            l,
            &self.latency,
            &EXPOSED_QUANTILES,
        );
        for (stage, h) in self.stages.iter() {
            // The kernel span is the only stage whose duration depends
            // on which explicit-SIMD batch kernel the decoder dispatched
            // to, so its series carries the active target as a label —
            // appended after `stage` so prefix-matching consumers keep
            // working. Other stages are dispatch-independent.
            if stage == Stage::Kernel {
                exp.histogram(
                    "qldpc_stage_duration_seconds",
                    &joined(
                        &base,
                        &[
                            ("stage", stage.name()),
                            ("simd", qldpc_bp::active_simd_target().name()),
                        ],
                    ),
                    h,
                    &EXPOSED_QUANTILES,
                );
            } else {
                exp.histogram(
                    "qldpc_stage_duration_seconds",
                    &joined(&base, &[("stage", stage.name())]),
                    h,
                    &EXPOSED_QUANTILES,
                );
            }
        }
        let c = &self.convergence;
        exp.counter("qldpc_decodes_total", l, c.decodes);
        exp.counter("qldpc_bp_iterations_total", l, c.bp_iterations);
        exp.counter("qldpc_bp_converged_total", l, c.bp_converged);
        exp.counter("qldpc_oscillating_bits_total", l, c.oscillating_bits);
        exp.counter("qldpc_osd_invocations_total", l, c.osd_invocations);
        exp.counter("qldpc_osd_candidate_sweeps_total", l, c.osd_candidates);
        exp.counter("qldpc_sf_trials_total", l, c.sf_trials);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indices_are_power_of_two_ranges() {
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(8), 3);
        assert_eq!(bucket_index(128), 7);
        assert_eq!(bucket_index(129), 8);
        assert_eq!(bucket_index(256), 8);
        assert_eq!(bucket_index(257), BATCH_HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(100_000), BATCH_HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn bucket_labels_cover_all_buckets() {
        assert_eq!(bucket_label(0), "1");
        assert_eq!(bucket_label(1), "2");
        assert_eq!(bucket_label(2), "3-4");
        assert_eq!(bucket_label(7), "65-128");
        assert_eq!(bucket_label(BATCH_HISTOGRAM_BUCKETS - 1), ">256");
    }

    #[test]
    fn snapshot_mean_and_histogram() {
        let m = CodeMetrics::default();
        m.record_batch(1);
        m.record_batch(8);
        m.record_batch(0); // ignored
        m.record_latency(Duration::from_millis(2));
        m.record_latency(Duration::from_millis(4));
        let s = m.snapshot(Precision::F64);
        assert_eq!(s.batches, 2);
        assert!((s.mean_batch_size - 4.5).abs() < 1e-12);
        assert_eq!(s.batch_histogram[0], 1);
        assert_eq!(s.batch_histogram[3], 1);
        assert_eq!(s.latency.count, 2);
        assert!((s.latency.sum - 6e-3).abs() < 1e-12);
        assert_eq!(s.latency_samples_dropped, 0);
        // Exact extrema survive the histogram representation.
        assert!((s.latency.min - 2e-3).abs() < 1e-12);
        assert!((s.latency.max - 4e-3).abs() < 1e-12);
        // Quantile estimates stay inside the observed range.
        let median = s.latency.quantile(0.5);
        assert!((2e-3..=4e-3).contains(&median), "median = {median}");
    }

    #[test]
    fn long_soaks_never_drop_latency_samples() {
        let m = CodeMetrics::default();
        for i in 0..300_000 {
            m.record_latency(Duration::from_nanos(1_000 + i));
        }
        let s = m.snapshot(Precision::F64);
        assert_eq!(s.latency.count, 300_000);
        assert_eq!(s.latency_samples_dropped, 0);
    }

    #[test]
    fn convergence_counters_accumulate() {
        let m = CodeMetrics::default();
        let t = DecodeTelemetry {
            bp_iterations: 17,
            bp_converged: true,
            oscillating_bits: 3,
            osd_invocations: 0,
            osd_candidates: 0,
            sf_trials: 0,
        };
        m.convergence.record_outcome(&t);
        m.convergence.record_outcome(&DecodeTelemetry {
            bp_iterations: 40,
            bp_converged: false,
            osd_invocations: 1,
            osd_candidates: 11,
            ..DecodeTelemetry::default()
        });
        let c = m.snapshot(Precision::F64).convergence;
        assert_eq!(c.decodes, 2);
        assert_eq!(c.bp_iterations, 57);
        assert_eq!(c.bp_converged, 1);
        assert_eq!(c.oscillating_bits, 3);
        assert_eq!(c.osd_invocations, 1);
        assert_eq!(c.osd_candidates, 11);
    }

    #[test]
    fn exposition_reports_dropped_samples() {
        let m = CodeMetrics::default();
        m.latency_dropped.store(7, Ordering::Relaxed);
        let mut exp = Exposition::new();
        m.snapshot(Precision::F64)
            .exposition_into("gross", None, &mut exp);
        let text = exp.render();
        assert!(
            text.contains("qldpc_latency_samples_dropped_total{code=\"gross\"} 7\n"),
            "exposition: {text}"
        );
    }

    #[test]
    fn exposition_covers_the_required_stages() {
        let m = CodeMetrics::default();
        m.submitted.store(3, Ordering::Relaxed);
        let mut exp = Exposition::new();
        m.snapshot(Precision::F32)
            .exposition_into("gross", None, &mut exp);
        let text = exp.render();
        assert!(text.contains("qldpc_requests_submitted_total{code=\"gross\"} 3"));
        assert!(text.contains("qldpc_code_info{code=\"gross\",precision=\"f32\"} 1"));
        for stage in [
            "queue_wait",
            "coalesce_wait",
            "kernel",
            "post_process",
            "fulfill",
        ] {
            // The kernel span alone is labeled with the SIMD dispatch
            // target its decode calls ran on.
            let needle = if stage == "kernel" {
                format!(
                    "qldpc_stage_duration_seconds_count{{code=\"gross\",stage=\"kernel\",\
                     simd=\"{}\"}}",
                    qldpc_bp::active_simd_target()
                )
            } else {
                format!("qldpc_stage_duration_seconds_count{{code=\"gross\",stage=\"{stage}\"}}")
            };
            assert!(text.contains(&needle), "missing stage {stage}");
        }
        // Deterministically ordered: rendering twice is byte-identical.
        let mut exp2 = Exposition::new();
        m.snapshot(Precision::F32)
            .exposition_into("gross", None, &mut exp2);
        assert_eq!(text, exp2.render());
    }

    #[test]
    fn drained_accounting() {
        let m = CodeMetrics::default();
        m.submitted.store(5, Ordering::Relaxed);
        m.completed.store(3, Ordering::Relaxed);
        m.expired.store(1, Ordering::Relaxed);
        assert!(!m.snapshot(Precision::F64).is_drained());
        // A request answered for a dead worker still counts as drained.
        m.lost.store(1, Ordering::Relaxed);
        assert!(m.snapshot(Precision::F64).is_drained());
        m.expired.store(2, Ordering::Relaxed);
        assert!(!m.snapshot(Precision::F64).is_drained());
    }
}
