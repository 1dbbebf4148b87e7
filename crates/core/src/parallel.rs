//! Multi-worker parallel BP-SF executor (the paper's "CPU, P=N" version).
//!
//! Mirrors the paper's §VI implementation: a **persistent worker pool**
//! with input and output queues. Algorithm 1 itself is the serial
//! decoder's; the pool only implements how its trial list is run
//! ([`TrialExecutor`]). The manager enqueues the flipped syndromes;
//! workers decode trials, and once a trial converges a shared
//! minimum-converged-index makes them skip every *higher* queued trial —
//! the lower ones still run, so the winner is the serial decoder's.
//! Every trial syndrome is tagged with a **serial number** so stale
//! results from a previous syndrome are never accepted.

use crate::decoder::{BpSfConfig, BpSfDecoder, BpSfResult, TrialExecutor, TrialOutcome};
use qldpc_bp::MinSumDecoder;
use qldpc_gf2::{BitVec, SparseBitMatrix};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Execution statistics of one parallel decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelDecodeStats {
    /// Trials enqueued after the initial BP failure.
    pub trials_dispatched: usize,
    /// Trials decoded by workers by the time the answer was known (the
    /// rest were skipped, or were still running above the winner).
    pub trials_decoded: usize,
    /// Wall-clock time of the whole decode (initial BP + parallel stage).
    pub wall_time: Duration,
}

struct Job {
    serial: u64,
    trial_idx: usize,
    syndrome: BitVec,
}

struct Done {
    serial: u64,
    trial_idx: usize,
    outcome: TrialOutcome,
}

/// Written by the manager only, read by the workers. A worker that
/// receives a job sees every store made before the job was sent (the
/// channel orders them), so the `Release`/`Acquire` pairs below matter
/// only to a worker still holding a job of an earlier epoch.
struct Shared {
    current_serial: AtomicU64,
    /// Lowest trial index seen to converge in the current epoch under
    /// first-success selection (`usize::MAX`: none); higher trials are
    /// skipped.
    min_converged: AtomicUsize,
    shutdown: AtomicBool,
}

/// The persistent workers and their queues.
struct TrialPool {
    shared: Arc<Shared>,
    job_tx: Option<crossbeam::channel::Sender<Job>>,
    done_rx: crossbeam::channel::Receiver<Done>,
    workers: Vec<JoinHandle<()>>,
    /// Trials enqueued / decoded-and-received by the latest run.
    dispatched: usize,
    decoded: usize,
}

impl TrialPool {
    fn new(trial: &MinSumDecoder, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        let shared = Arc::new(Shared {
            current_serial: AtomicU64::new(0),
            min_converged: AtomicUsize::new(usize::MAX),
            shutdown: AtomicBool::new(false),
        });
        let (job_tx, job_rx) = crossbeam::channel::unbounded::<Job>();
        let (done_tx, done_rx) = crossbeam::channel::unbounded::<Done>();
        let handles = (0..workers)
            .map(|_| {
                let job_rx = job_rx.clone();
                let done_tx = done_tx.clone();
                let shared = Arc::clone(&shared);
                let mut decoder = trial.clone();
                std::thread::spawn(move || {
                    while let Ok(job) = job_rx.recv() {
                        if shared.shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        if shared.current_serial.load(Ordering::Acquire) != job.serial
                            || shared.min_converged.load(Ordering::Acquire) < job.trial_idx
                        {
                            continue;
                        }
                        let done = Done {
                            serial: job.serial,
                            trial_idx: job.trial_idx,
                            outcome: decoder.decode(&job.syndrome).into(),
                        };
                        if done_tx.send(done).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        Self {
            shared,
            job_tx: Some(job_tx),
            done_rx,
            workers: handles,
            dispatched: 0,
            decoded: 0,
        }
    }
}

impl TrialExecutor for TrialPool {
    fn run_trials(
        &mut self,
        flipped: impl Iterator<Item = BitVec>,
        first_success: bool,
    ) -> Vec<TrialOutcome> {
        // Open a new serial epoch: raise the serial *before* resetting the
        // minimum so late workers of the previous epoch always see a
        // mismatch, never a spuriously reset minimum.
        let serial = self.shared.current_serial.fetch_add(1, Ordering::AcqRel) + 1;
        self.shared
            .min_converged
            .store(usize::MAX, Ordering::Release);

        let tx = self.job_tx.as_ref().expect("pool is alive");
        (self.dispatched, self.decoded) = (0, 0);
        for (trial_idx, syndrome) in flipped.enumerate() {
            let job = Job {
                serial,
                trial_idx,
                syndrome,
            };
            tx.send(job).expect("workers alive");
            self.dispatched = trial_idx + 1;
        }

        // The answer is the prefix `0..needed`: it shrinks to end at each
        // new lowest convergent trial, and is complete once every trial in
        // it has reported — trials above it may still be running, and
        // their results are dropped here or, by serial, in a later epoch.
        let mut prefix = BTreeMap::new();
        let mut needed = self.dispatched;
        while prefix.len() < needed {
            let done = self.done_rx.recv().expect("workers alive");
            if done.serial != serial {
                continue;
            }
            self.decoded += 1;
            if done.trial_idx >= needed {
                continue;
            }
            if first_success && done.outcome.error_hat.is_some() {
                needed = done.trial_idx + 1;
                self.shared
                    .min_converged
                    .store(done.trial_idx, Ordering::Release);
                prefix.split_off(&needed);
            }
            prefix.insert(done.trial_idx, done.outcome);
        }
        prefix.into_values().collect()
    }
}

impl Drop for TrialPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Closing the job channel wakes idle workers.
        self.job_tx.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A persistent-pool parallel BP-SF decoder.
///
/// Its [`BpSfResult`] equals [`BpSfDecoder`](crate::BpSfDecoder)'s field
/// for field, for any worker count and any thread scheduling; only the
/// [`ParallelDecodeStats`] depend on timing.
///
/// # Examples
///
/// ```
/// use bpsf_core::{BpSfConfig, ParallelBpSf};
/// use qldpc_codes::coprime_bb;
/// use qldpc_gf2::BitVec;
///
/// let code = coprime_bb::coprime154();
/// let hz = code.hz().clone();
/// let n = hz.cols();
/// let mut pool = ParallelBpSf::new(&hz, &vec![0.02; n], BpSfConfig::code_capacity(50, 8, 1), 2);
/// let e = BitVec::from_indices(n, &[5, 40]);
/// let (result, stats) = pool.decode(&hz.mul_vec(&e));
/// assert!(result.success);
/// assert!(stats.wall_time.as_nanos() > 0);
/// ```
pub struct ParallelBpSf {
    /// Algorithm 1; its own trial decoder is the workers' prototype.
    serial: BpSfDecoder,
    pool: TrialPool,
}

impl ParallelBpSf {
    /// Spawns `workers` persistent decoder threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `priors.len() != h.cols()`.
    pub fn new(h: &SparseBitMatrix, priors: &[f64], config: BpSfConfig, workers: usize) -> Self {
        let serial = BpSfDecoder::new(h, priors, config);
        let pool = TrialPool::new(serial.trial_decoder(), workers);
        Self { serial, pool }
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.pool.workers.len()
    }

    /// Decodes one syndrome, returning the result and wall-clock stats.
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length differs from the number of checks.
    pub fn decode(&mut self, syndrome: &BitVec) -> (BpSfResult, ParallelDecodeStats) {
        let start = Instant::now();
        // A shot the initial BP solves never reaches the pool.
        (self.pool.dispatched, self.pool.decoded) = (0, 0);
        let result = self.serial.decode_on(&mut self.pool, syndrome);
        let stats = ParallelDecodeStats {
            trials_dispatched: self.pool.dispatched,
            trials_decoded: self.pool.decoded,
            wall_time: start.elapsed(),
        };
        (result, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{BpSfDecoder, TrialSelection};
    use qldpc_codes::coprime_bb;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_syndrome(hz: &SparseBitMatrix, p: f64, rng: &mut StdRng) -> BitVec {
        let mut e = BitVec::zeros(hz.cols());
        for i in 0..hz.cols() {
            if rng.random_bool(p) {
                e.set(i, true);
            }
        }
        hz.mul_vec(&e)
    }

    #[test]
    fn parallel_matches_serial_success() {
        let code = coprime_bb::coprime154();
        let hz = code.hz();
        let n = hz.cols();
        let config = BpSfConfig::code_capacity(40, 8, 1);
        let mut serial = BpSfDecoder::new(hz, &vec![0.05; n], config);
        let mut pool = ParallelBpSf::new(hz, &vec![0.05; n], config, 2);
        let mut rng = StdRng::seed_from_u64(31);
        let mut post_processed = 0;
        for _ in 0..100 {
            let s = random_syndrome(hz, 0.05, &mut rng);
            let rs = serial.decode(&s);
            let (rp, stats) = pool.decode(&s);
            // Same trial set, same winner: the lowest-index convergent
            // trial, whichever worker finishes first.
            assert_eq!(rs, rp, "serial/parallel disagree");
            if rp.success {
                assert_eq!(hz.mul_vec(&rp.error_hat), s);
            }
            if !rp.initial_converged {
                post_processed += 1;
                assert!(stats.trials_dispatched > 0);
                assert!(stats.trials_decoded <= stats.trials_dispatched);
                assert!(stats.trials_decoded >= rp.trials_executed);
            }
        }
        assert!(post_processed > 0, "expected some initial-BP failures");
    }

    /// Under `MinWeight` the pool decodes every trial and returns the
    /// serial decoder's lightest answer, not the first trial to finish.
    #[test]
    fn pool_honours_min_weight_selection() {
        let code = qldpc_codes::bb::bb72();
        let hz = code.hz();
        let n = hz.cols();
        let config = BpSfConfig {
            selection: TrialSelection::MinWeight,
            ..BpSfConfig::code_capacity(30, 16, 1)
        };
        let first_success = BpSfConfig {
            selection: TrialSelection::FirstSuccess,
            ..config
        };
        let mut serial = BpSfDecoder::new(hz, &vec![0.1; n], config);
        let mut first = BpSfDecoder::new(hz, &vec![0.1; n], first_success);
        let mut pool = ParallelBpSf::new(hz, &vec![0.1; n], config, 2);
        let mut rng = StdRng::seed_from_u64(31);
        let mut first_convergent_lost = 0;
        for _ in 0..30 {
            let s = random_syndrome(hz, 0.1, &mut rng);
            let rs = serial.decode(&s);
            let (rp, stats) = pool.decode(&s);
            assert_eq!(rs, rp, "serial/parallel disagree");
            if !rp.initial_converged {
                assert_eq!(rp.trials_executed, stats.trials_dispatched);
                assert_eq!(stats.trials_decoded, stats.trials_dispatched);
            }
            first_convergent_lost +=
                usize::from(first.decode(&s).winning_trial != rp.winning_trial);
        }
        // Otherwise both selections agree on every shot and this test
        // cannot tell them apart.
        assert!(first_convergent_lost > 0, "selection never exercised");
    }

    #[test]
    fn pool_survives_many_epochs() {
        let code = coprime_bb::coprime154();
        let hz = code.hz();
        let n = hz.cols();
        let mut pool =
            ParallelBpSf::new(hz, &vec![0.03; n], BpSfConfig::code_capacity(20, 6, 1), 2);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..20 {
            let s = random_syndrome(hz, 0.03, &mut rng);
            let (r, _) = pool.decode(&s);
            if r.success {
                assert_eq!(hz.mul_vec(&r.error_hat), s);
            }
        }
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let code = coprime_bb::coprime154();
        let hz = code.hz();
        let n = hz.cols();
        let pool = ParallelBpSf::new(hz, &vec![0.02; n], BpSfConfig::code_capacity(10, 4, 1), 3);
        assert_eq!(pool.num_workers(), 3);
        drop(pool); // must not hang
    }
}
