//! Paper Algorithm 1, written once: the serial BP-SF decoder and the seam
//! ([`TrialExecutor`]) through which the worker pool runs the same decode.

use crate::candidates::{select_candidates_ranked, CandidateRanking};
use crate::trials::{shot_rng, TrialVectors};
use qldpc_bp::{BpConfig, BpResult, MinSumDecoder};
use qldpc_gf2::{BitVec, SparseBitMatrix};

/// How trial vectors are generated from the candidate set Φ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialSampling {
    /// Every subset of Φ up to `max_flip_weight` (code-capacity regime,
    /// where `w_max = 1` or small |Φ| keeps this cheap).
    Exhaustive,
    /// `per_weight` random distinct subsets for each weight in
    /// `1..=max_flip_weight` (circuit-level regime; the paper's `n_s`).
    Sampled {
        /// Number of random subsets per weight (`n_s`).
        per_weight: usize,
    },
}

/// How the winning trial is chosen among convergent ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrialSelection {
    /// Return the first convergent trial (the paper's choice: degeneracy
    /// makes any satisfying solution almost always coset-correct, and this
    /// minimizes latency).
    #[default]
    FirstSuccess,
    /// Decode every trial and return the minimum-weight satisfying
    /// solution (ablation: the classical Chase criterion).
    MinWeight,
}

/// BP-SF configuration.
///
/// # Examples
///
/// ```
/// use bpsf_core::BpSfConfig;
///
/// // Paper Fig. 7 setting: BP100, w_max = 10, |Φ| = 50, n_s = 10.
/// let c = BpSfConfig::circuit_level(100, 50, 10, 10);
/// assert_eq!(c.candidates, 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BpSfConfig {
    /// Configuration of the initial BP attempt (oscillation tracking is
    /// forced on internally).
    pub initial_bp: BpConfig,
    /// Iteration budget of each trial BP instance.
    pub trial_bp_iters: usize,
    /// Candidate-set size |Φ|.
    pub candidates: usize,
    /// Maximum trial-vector weight `w_max`.
    pub max_flip_weight: usize,
    /// Trial generation strategy.
    pub sampling: TrialSampling,
    /// Winner selection strategy.
    pub selection: TrialSelection,
    /// Pad Φ with least-reliable non-oscillating bits when fewer than |Φ|
    /// bits oscillated.
    pub pad_candidates: bool,
    /// How candidate bits are ranked (ablation hook; the paper's rule is
    /// the default).
    pub ranking: CandidateRanking,
    /// Seed for the sampled-trial RNG: each post-processed shot draws its
    /// trials from a generator seeded by this value and the syndrome, so a
    /// decode is a pure function of `(H, priors, config, syndrome)`.
    pub seed: u64,
}

impl BpSfConfig {
    /// The paper's code-capacity setting: `BP{iters}`, exhaustive trials
    /// of weight ≤ `w_max` over `|Φ| = candidates` bits.
    pub fn code_capacity(bp_iters: usize, candidates: usize, w_max: usize) -> Self {
        Self {
            initial_bp: BpConfig {
                max_iters: bp_iters,
                ..BpConfig::default()
            },
            trial_bp_iters: bp_iters,
            candidates,
            max_flip_weight: w_max,
            sampling: TrialSampling::Exhaustive,
            selection: TrialSelection::FirstSuccess,
            pad_candidates: true,
            ranking: CandidateRanking::FlipCountThenLlr,
            seed: 0,
        }
    }

    /// The paper's circuit-level setting: `BP{iters}`, `n_s` sampled trials
    /// per weight `1..=w_max` over `|Φ| = candidates` bits.
    pub fn circuit_level(bp_iters: usize, candidates: usize, w_max: usize, n_s: usize) -> Self {
        Self {
            initial_bp: BpConfig {
                max_iters: bp_iters,
                ..BpConfig::default()
            },
            trial_bp_iters: bp_iters,
            candidates,
            max_flip_weight: w_max,
            sampling: TrialSampling::Sampled { per_weight: n_s },
            selection: TrialSelection::FirstSuccess,
            pad_candidates: true,
            ranking: CandidateRanking::FlipCountThenLlr,
            seed: 0,
        }
    }

    /// Maximum number of trials this configuration can spawn per failed
    /// initial decode.
    pub fn max_trials(&self) -> usize {
        match self.sampling {
            TrialSampling::Exhaustive => {
                let k = self.candidates;
                (1..=self.max_flip_weight.min(k))
                    .map(|w| binomial(k, w))
                    .sum()
            }
            TrialSampling::Sampled { per_weight } => per_weight * self.max_flip_weight,
        }
    }
}

fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let mut acc = 1usize;
    for i in 0..k {
        acc = acc.saturating_mul(n - i) / (i + 1);
    }
    acc
}

/// Outcome of a BP-SF decode with full latency accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct BpSfResult {
    /// Whether any stage produced a syndrome-satisfying correction.
    pub success: bool,
    /// The estimated error (meaningful only if `success`).
    pub error_hat: BitVec,
    /// Whether the initial BP attempt already converged.
    pub initial_converged: bool,
    /// Iterations of the initial BP attempt.
    pub initial_iterations: usize,
    /// Candidate set Φ selected after a failed initial attempt (empty when
    /// the initial attempt converged).
    pub candidates: Vec<usize>,
    /// Number of trial decodes executed (serial early-exit semantics).
    pub trials_executed: usize,
    /// Index (within the generated trial list) of the winning trial.
    pub winning_trial: Option<usize>,
    /// Total BP iterations under *serial* execution: initial + all trials
    /// run until the winner (paper Fig. 12's accounting).
    pub serial_iterations: usize,
    /// BP iterations on the *fully parallel* critical path: initial
    /// iterations + the winning trial's iterations (all trials start
    /// simultaneously; the first success gates completion — paper §VI).
    pub critical_path_iterations: usize,
}

/// What one trial decode of a flipped syndrome produced.
pub(crate) struct TrialOutcome {
    pub(crate) iterations: usize,
    /// The trial's estimate (flips not yet undone) if it converged.
    pub(crate) error_hat: Option<BitVec>,
}

impl From<BpResult> for TrialOutcome {
    fn from(r: BpResult) -> Self {
        Self {
            iterations: r.iterations,
            error_hat: r.converged.then_some(r.error_hat),
        }
    }
}

/// How a list of trials is run — the only thing the serial decoder and
/// the worker pool differ in.
pub(crate) trait TrialExecutor {
    /// Decodes the flipped syndromes `s ⊕ H·t`, which `flipped` yields in
    /// trial-index order (each computed when pulled), and returns, in that
    /// order, the outcomes of the shortest prefix that contains the
    /// lowest-index convergent trial — of every trial when none converges
    /// or `first_success` is false.
    fn run_trials(
        &mut self,
        flipped: impl Iterator<Item = BitVec>,
        first_success: bool,
    ) -> Vec<TrialOutcome>;
}

/// The serial executor is the trial decoder itself: one trial at a time,
/// each flipped syndrome generated only when its turn comes.
impl TrialExecutor for MinSumDecoder {
    fn run_trials(
        &mut self,
        flipped: impl Iterator<Item = BitVec>,
        first_success: bool,
    ) -> Vec<TrialOutcome> {
        let mut outcomes = Vec::new();
        // Trials stay on the scalar decoder: early exit usually stops
        // after a handful of them, and a fixed interleaved tile would
        // decode past the winner — measurably worse than the loop on the
        // latency-sensitive post-processing path.
        for syndrome in flipped {
            let r = self.decode(&syndrome);
            let done = first_success && r.converged;
            outcomes.push(r.into());
            if done {
                break;
            }
        }
        outcomes
    }
}

/// The serial BP-SF decoder (paper Algorithm 1).
///
/// Owns two min-sum decoders (the oscillation-tracking initial instance
/// and the short-depth trial instance) plus the sparse check matrix used
/// for trial-syndrome generation `s′ = s ⊕ H·t` (an SpMSpV, §VI).
///
/// A decode is a pure function of `(H, priors, config, syndrome)`: it
/// equals [`ParallelBpSf`](crate::ParallelBpSf)'s for any worker count,
/// and does not depend on what was decoded before or in which order.
/// Clone the decoder to decode concurrently on several threads.
#[derive(Debug, Clone)]
pub struct BpSfDecoder {
    h: SparseBitMatrix,
    initial: MinSumDecoder,
    trial: MinSumDecoder,
    config: BpSfConfig,
}

impl BpSfDecoder {
    /// Builds a BP-SF decoder for check matrix `h` and per-variable priors.
    ///
    /// # Panics
    ///
    /// Panics if `priors.len() != h.cols()`, or if the configuration asks
    /// for zero candidates or zero flip weight.
    pub fn new(h: &SparseBitMatrix, priors: &[f64], config: BpSfConfig) -> Self {
        assert!(config.candidates > 0, "candidate set must be non-empty");
        assert!(
            config.max_flip_weight > 0,
            "max flip weight must be positive"
        );
        let initial_cfg = BpConfig {
            track_oscillations: true,
            ..config.initial_bp
        };
        let trial_cfg = BpConfig {
            max_iters: config.trial_bp_iters,
            track_oscillations: false,
            ..config.initial_bp
        };
        Self {
            h: h.clone(),
            initial: MinSumDecoder::new(h, priors, initial_cfg),
            trial: MinSumDecoder::new(h, priors, trial_cfg),
            config,
        }
    }

    /// The decoder configuration.
    pub fn config(&self) -> &BpSfConfig {
        &self.config
    }

    /// The bound check matrix.
    pub fn check_matrix(&self) -> &SparseBitMatrix {
        &self.h
    }

    /// The short-depth trial decoder (the pool clones it per worker).
    pub(crate) fn trial_decoder(&self) -> &MinSumDecoder {
        &self.trial
    }

    /// Decodes a syndrome (paper Algorithm 1, serial early-exit execution).
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length differs from the number of checks.
    pub fn decode(&mut self, syndrome: &BitVec) -> BpSfResult {
        let initial = self.initial.decode(syndrome);
        post_process(&self.h, &self.config, &mut self.trial, syndrome, initial)
    }

    /// [`Self::decode`] with the trial list run by `executor` instead of
    /// the serial loop.
    pub(crate) fn decode_on(
        &mut self,
        executor: &mut impl TrialExecutor,
        syndrome: &BitVec,
    ) -> BpSfResult {
        let initial = self.initial.decode(syndrome);
        post_process(&self.h, &self.config, executor, syndrome, initial)
    }

    /// Decodes a batch of syndromes, running the **initial BP stage
    /// through the shot-interleaved batch kernel** (bit-identical to the
    /// scalar decoder) and post-processing only the failed shots. The
    /// results equal a per-shot [`Self::decode`] loop exactly.
    pub fn decode_batch_results(&mut self, syndromes: &[BitVec]) -> Vec<BpSfResult> {
        let initials = self.initial.decode_batch_results(syndromes);
        initials
            .into_iter()
            .zip(syndromes)
            .map(|(initial, s)| post_process(&self.h, &self.config, &mut self.trial, s, initial))
            .collect()
    }
}

/// Algorithm 1 after the initial BP attempt: candidate selection, trial
/// generation, the executor's trial run, winner selection.
fn post_process(
    h: &SparseBitMatrix,
    config: &BpSfConfig,
    executor: &mut impl TrialExecutor,
    syndrome: &BitVec,
    initial: BpResult,
) -> BpSfResult {
    let mut result = BpSfResult {
        success: initial.converged,
        error_hat: initial.error_hat,
        initial_converged: initial.converged,
        initial_iterations: initial.iterations,
        candidates: Vec::new(),
        trials_executed: 0,
        winning_trial: None,
        serial_iterations: initial.iterations,
        critical_path_iterations: initial.iterations,
    };
    if initial.converged {
        return result;
    }

    result.candidates = select_candidates_ranked(
        &initial.flip_counts,
        &initial.posteriors,
        config.candidates,
        config.pad_candidates,
        config.ranking,
    );
    let trials = match config.sampling {
        TrialSampling::Exhaustive => {
            TrialVectors::exhaustive(&result.candidates, config.max_flip_weight)
        }
        TrialSampling::Sampled { per_weight } => TrialVectors::sampled(
            &result.candidates,
            config.max_flip_weight,
            per_weight,
            &mut shot_rng(config.seed, syndrome),
        ),
    };
    let flipped = trials.iter().map(|t| {
        // s′ = s ⊕ H·t  (flip the candidate bits in the syndrome domain).
        let mut flipped = h.mul_sparse_vec(t);
        flipped.xor_assign(syndrome);
        flipped
    });
    let first_success = config.selection == TrialSelection::FirstSuccess;
    let outcomes = executor.run_trials(flipped, first_success);

    result.trials_executed = outcomes.len();
    result.serial_iterations += outcomes.iter().map(|o| o.iterations).sum::<usize>();
    // A failed parallel pass still waits for the slowest lane, which
    // exhausts its full budget.
    let mut critical_trial_iterations = config.trial_bp_iters;
    // The winner: the lightest convergent trial, earliest on ties — under
    // `FirstSuccess` the prefix holds exactly one.
    let mut best_weight = usize::MAX;
    for (idx, (outcome, t)) in outcomes.into_iter().zip(&trials).enumerate() {
        let Some(mut e) = outcome.error_hat else {
            continue;
        };
        // Undo the flips in the error domain: ê ⊕ t.
        for &bit in t {
            e.flip(bit);
        }
        debug_assert_eq!(h.mul_vec(&e), *syndrome);
        let weight = e.weight();
        if weight < best_weight {
            best_weight = weight;
            result.success = true;
            result.error_hat = e;
            result.winning_trial = Some(idx);
            critical_trial_iterations = outcome.iterations;
        }
    }
    result.critical_path_iterations += critical_trial_iterations;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use qldpc_codes::{bb, coprime_bb};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn zero_syndrome_short_circuits() {
        let code = bb::bb72();
        let hz = code.hz();
        let mut dec = BpSfDecoder::new(
            hz,
            &vec![0.01; hz.cols()],
            BpSfConfig::code_capacity(50, 8, 1),
        );
        let r = dec.decode(&BitVec::zeros(hz.rows()));
        assert!(r.success && r.initial_converged);
        assert_eq!(r.trials_executed, 0);
        assert_eq!(r.serial_iterations, r.critical_path_iterations);
    }

    #[test]
    fn output_always_satisfies_original_syndrome() {
        let code = coprime_bb::coprime154();
        let hz = code.hz();
        let n = hz.cols();
        let mut dec = BpSfDecoder::new(hz, &vec![0.05; n], BpSfConfig::code_capacity(20, 8, 2));
        let mut rng = StdRng::seed_from_u64(3);
        let mut post_processed = 0;
        for _ in 0..100 {
            let mut e = BitVec::zeros(n);
            for i in 0..n {
                if rng.random_bool(0.05) {
                    e.set(i, true);
                }
            }
            let s = hz.mul_vec(&e);
            let r = dec.decode(&s);
            if r.success {
                assert_eq!(hz.mul_vec(&r.error_hat), s);
            }
            if !r.initial_converged {
                post_processed += 1;
            }
        }
        // The coprime-154 code is the paper's example of BP struggling:
        // some shots must exercise the post-processing path.
        assert!(post_processed > 0, "expected some initial-BP failures");
    }

    #[test]
    fn accounting_is_consistent() {
        let code = coprime_bb::coprime154();
        let hz = code.hz();
        let n = hz.cols();
        let mut dec = BpSfDecoder::new(hz, &vec![0.03; n], BpSfConfig::code_capacity(30, 6, 2));
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..40 {
            let mut e = BitVec::zeros(n);
            for i in 0..n {
                if rng.random_bool(0.03) {
                    e.set(i, true);
                }
            }
            let r = dec.decode(&hz.mul_vec(&e));
            assert!(r.serial_iterations >= r.initial_iterations);
            assert!(
                r.critical_path_iterations
                    <= r.serial_iterations
                        .max(r.initial_iterations + dec.config().trial_bp_iters)
            );
            if r.initial_converged {
                assert_eq!(r.serial_iterations, r.initial_iterations);
            }
            if let Some(w) = r.winning_trial {
                assert!(w < dec.config().max_trials());
                assert!(r.trials_executed >= 1);
            }
        }
    }

    #[test]
    fn min_weight_selection_never_heavier_than_first_success() {
        let code = coprime_bb::coprime154();
        let hz = code.hz();
        let n = hz.cols();
        let mut first = BpSfDecoder::new(
            hz,
            &vec![0.02; n],
            BpSfConfig {
                selection: TrialSelection::FirstSuccess,
                ..BpSfConfig::code_capacity(30, 8, 1)
            },
        );
        let mut minw = BpSfDecoder::new(
            hz,
            &vec![0.02; n],
            BpSfConfig {
                selection: TrialSelection::MinWeight,
                ..BpSfConfig::code_capacity(30, 8, 1)
            },
        );
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..40 {
            let mut e = BitVec::zeros(n);
            for i in 0..n {
                if rng.random_bool(0.02) {
                    e.set(i, true);
                }
            }
            let s = hz.mul_vec(&e);
            let rf = first.decode(&s);
            let rm = minw.decode(&s);
            if rf.success && rm.success && !rf.initial_converged {
                assert!(rm.error_hat.weight() <= rf.error_hat.weight());
            }
        }
    }

    #[test]
    fn max_trials_formula() {
        let c = BpSfConfig::code_capacity(50, 8, 1);
        assert_eq!(c.max_trials(), 8);
        let c = BpSfConfig::code_capacity(50, 5, 2);
        assert_eq!(c.max_trials(), 5 + 10);
        let c = BpSfConfig::circuit_level(100, 50, 6, 5);
        assert_eq!(c.max_trials(), 30);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_candidates_panics() {
        let code = bb::bb72();
        let hz = code.hz();
        let mut cfg = BpSfConfig::code_capacity(10, 1, 1);
        cfg.candidates = 0;
        BpSfDecoder::new(hz, &vec![0.01; hz.cols()], cfg);
    }
}
