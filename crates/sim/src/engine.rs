//! The one Monte Carlo shot loop behind [`crate::run_code_capacity`] and
//! [`crate::run_circuit_level`].
//!
//! * Shots are split as evenly as possible across [`BatchConfig::threads`]
//!   (earlier threads take the remainder, and empty chunks are dropped).
//! * Thread `t` runs with the *deterministic* seed `seed + t`, so a
//!   T-thread run is exactly the thread-ordered union of T seeded
//!   single-thread runs — reproducible regardless of scheduling, since
//!   every decoder's outcome is a pure function of the syndrome.
//! * Every thread builds its own decoder instances from the shared
//!   [`DecoderFactory`](crate::DecoderFactory) (decoders are stateful and
//!   not `Sync`; factories are).
//! * Within a thread, syndromes are sampled and decoded in groups of
//!   [`BatchConfig::batch_size`] through
//!   [`SyndromeDecoder::decode_batch`], which is contractually identical
//!   to a `decode_syndrome` loop — so the batch width changes wall time
//!   only, never a record. Sampling consumes the thread's RNG in shot
//!   order at every width, and syndromes come from the bit-sliced
//!   `mul_batch` kernel (≡ per-shot `mul_vec`).
//! * `wall_ns` is the group's decode wall time divided by its width:
//!   exact per shot at width 1, amortised above it.

use crate::report::{RunReport, ShotRecord};
use crate::{DecodeOutcome, SyndromeDecoder};
use qldpc_gf2::BitVec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Thread/batch shape of a Monte Carlo run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Worker threads (each with its own decoder instances and seed).
    pub threads: usize,
    /// Syndromes per `decode_batch` call within a thread.
    pub batch_size: usize,
}

impl BatchConfig {
    /// One thread, one syndrome per decode call: the paper's sequential
    /// single-stream methodology ("decoding them sequentially is more
    /// aligned with real-world use cases"), under which `wall_ns` is each
    /// shot's own decode latency. Latency figures use this shape.
    pub const SEQUENTIAL: Self = Self {
        threads: 1,
        batch_size: 1,
    };

    /// `threads` workers with the default batch size of 32.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            batch_size: 32,
        }
    }
}

impl Default for BatchConfig {
    /// One thread per available core, batch size 32.
    fn default() -> Self {
        Self::with_threads(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }
}

/// Splits `total` shots into per-thread chunk sizes (empty chunks
/// dropped).
fn split_shots(total: usize, threads: usize) -> Vec<usize> {
    let base = total / threads;
    let extra = total % threads;
    (0..threads)
        .map(|t| base + usize::from(t < extra))
        .filter(|&s| s > 0)
        .collect()
}

/// Runs `shots` shots of one noise model, which supplies three pieces:
///
/// * `build` — the decoders one shot needs (one per error species);
/// * `sample(rng, k)` — `k` shots' syndromes, indexed `[decoder][shot]`,
///   plus whatever hidden truth scoring needs;
/// * `is_logical_error(truth, i, outcomes)` — whether shot `i`'s
///   corrections (`outcomes[decoder][i]`, all solved) leave a logical
///   error.
///
/// A shot fails if any of its decodes is unsolved or the residual is a
/// logical error; iteration counts sum (serial) and max (critical path)
/// over its decodes. The workload label gains a `[{T}T,batch={k}]` tag.
///
/// # Panics
///
/// Panics if `batch.threads == 0` or `batch.batch_size == 0`; a worker's
/// panic is re-raised on the calling thread with its payload.
pub(crate) fn run_shots<T>(
    workload: &str,
    shots: usize,
    seed: u64,
    batch: &BatchConfig,
    build: impl Fn() -> Vec<Box<dyn SyndromeDecoder>> + Sync,
    sample: impl Fn(&mut StdRng, usize) -> (Vec<Vec<BitVec>>, T) + Sync,
    is_logical_error: impl Fn(&T, usize, &[Vec<DecodeOutcome>]) -> bool + Sync,
) -> RunReport {
    assert!(batch.threads > 0, "need at least one thread");
    assert!(batch.batch_size > 0, "need a positive batch size");

    let worker = |t: usize, shots: usize| {
        let mut decoders = build();
        let mut rng = StdRng::seed_from_u64(seed + t as u64);
        let mut records = Vec::with_capacity(shots);
        let mut unsolved = 0usize;
        let mut remaining = shots;
        while remaining > 0 {
            let width = remaining.min(batch.batch_size);
            remaining -= width;
            let (syndromes, truth) = sample(&mut rng, width);

            let start = Instant::now();
            let outcomes: Vec<Vec<DecodeOutcome>> = decoders
                .iter_mut()
                .zip(&syndromes)
                .map(|(decoder, s)| decoder.decode_batch(s))
                .collect();
            let wall_ns = start.elapsed().as_nanos() as u64 / width as u64;

            for (decoder, outs) in decoders.iter().zip(&outcomes) {
                assert_eq!(
                    outs.len(),
                    width,
                    "decode_batch must return one outcome per syndrome ({})",
                    decoder.label()
                );
            }
            for i in 0..width {
                let shot = || outcomes.iter().map(|outs| &outs[i]);
                let solved = shot().all(|o| o.solved);
                unsolved += usize::from(!solved);
                records.push(ShotRecord {
                    wall_ns,
                    serial_iterations: shot().map(|o| o.serial_iterations).sum(),
                    critical_iterations: shot().map(|o| o.critical_iterations).max().unwrap_or(0),
                    postprocessed: shot().any(|o| o.postprocessed),
                    failed: !solved || is_logical_error(&truth, i, &outcomes),
                });
            }
        }
        RunReport {
            decoder: decoders[0].label(),
            precision: decoders[0].precision(),
            workload: format!("{workload} [{}T,batch={}]", batch.threads, batch.batch_size),
            shots,
            failures: records.iter().filter(|r| r.failed).count(),
            unsolved,
            records,
        }
    };

    let mut chunks = split_shots(shots, batch.threads);
    if chunks.is_empty() {
        // A zero-shot run still yields one (empty, labelled) report.
        chunks.push(0);
    }
    let worker = &worker;
    let reports: Vec<RunReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .enumerate()
            .map(|(t, &shots)| scope.spawn(move || worker(t, shots)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    reports
        .into_iter()
        .reduce(|mut merged, r| {
            merged.shots += r.shots;
            merged.failures += r.failures;
            merged.unsolved += r.unsolved;
            merged.records.extend(r.records);
            merged
        })
        .expect("at least one chunk")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shot_splitting_is_exact() {
        assert_eq!(split_shots(10, 3), vec![4, 3, 3]);
        assert_eq!(split_shots(2, 4), vec![1, 1]);
        assert_eq!(split_shots(9, 1), vec![9]);
    }

    #[test]
    #[should_panic(expected = "decoder construction exploded")]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        run_shots(
            "w",
            4,
            0,
            &BatchConfig::with_threads(2),
            || panic!("decoder construction exploded"),
            |_, _| (Vec::new(), ()),
            |_, _, _| false,
        );
    }
}
