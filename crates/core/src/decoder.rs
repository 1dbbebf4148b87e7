//! Paper Algorithm 1, written once: the BP-SF decoder and the one function
//! (`run_trials`) that decodes its trial list on the decoder's workers.

use crate::candidates::{select_candidates_ranked, CandidateRanking};
use crate::trials::{shot_rng, TrialVectors};
use qldpc_bp::{BpAlgorithm, BpConfig, BpResult, DampingSchedule, MinSumDecoder};
use qldpc_gf2::{BitVec, SparseBitMatrix};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

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

    /// Applies one named option of a decoder token
    /// (`bp-sf:50:8:1;rank=flips;workers=2`) to this configuration and to
    /// a trial worker count. The spellings, with what they set:
    ///
    /// | Key | Values | Sets | Default |
    /// |---|---|---|---|
    /// | `select` | `min-weight` | [`TrialSelection::MinWeight`] | first success |
    /// | `rank` | `flips`, `llr` | [`CandidateRanking::FlipCountOnly`], [`CandidateRanking::LlrOnly`] | flip count, then \|LLR\| |
    /// | `pad` | `off` | `pad_candidates = false` | padding on |
    /// | `damp` | α, 0 < α ≤ 1 | [`DampingSchedule::Fixed`] | adaptive |
    /// | `rule` | `sum-product` | [`BpAlgorithm::SumProduct`] | min-sum |
    /// | `mem` | γ, 0 ≤ γ < 1 | `memory_strength` | 0 |
    /// | `workers` | P ≥ 1 | the worker count | 1 |
    ///
    /// `damp`, `rule` and `mem` set `initial_bp`, which the trials inherit.
    ///
    /// # Errors
    ///
    /// An unknown key or a value outside the table, as a message that
    /// leaves naming the key to the caller.
    pub fn set_option(
        &mut self,
        workers: &mut usize,
        key: &str,
        value: &str,
    ) -> Result<(), String> {
        let bad = |expected: &str| Err(format!("'{value}' is not {expected}"));
        let fraction = value.parse::<f64>().unwrap_or(f64::NAN);
        match (key, value) {
            ("select", "min-weight") => self.selection = TrialSelection::MinWeight,
            ("select", _) => return bad("min-weight"),
            ("rank", "flips") => self.ranking = CandidateRanking::FlipCountOnly,
            ("rank", "llr") => self.ranking = CandidateRanking::LlrOnly,
            ("rank", _) => return bad("flips or llr"),
            ("pad", "off") => self.pad_candidates = false,
            ("pad", _) => return bad("off"),
            ("damp", _) if fraction > 0.0 && fraction <= 1.0 => {
                self.initial_bp.damping = DampingSchedule::Fixed(fraction);
            }
            ("damp", _) => return bad("a factor in (0, 1]"),
            ("rule", "sum-product") => self.initial_bp.algorithm = BpAlgorithm::SumProduct,
            ("rule", _) => return bad("sum-product"),
            ("mem", _) if (0.0..1.0).contains(&fraction) => {
                self.initial_bp.memory_strength = fraction
            }
            ("mem", _) => return bad("a strength in [0, 1)"),
            ("workers", _) => match value.parse() {
                Ok(p) if p > 0 => *workers = p,
                _ => return bad("a positive count"),
            },
            _ => return Err("unknown option (keys: select rank pad damp rule mem workers)".into()),
        }
        Ok(())
    }

    /// `key=value` for every option of [`Self::set_option`] that is not at
    /// its default, in the order of its table: the canonical spelling,
    /// which applied in turn rebuilds `(self, workers)`.
    pub fn options(&self, workers: usize) -> Vec<String> {
        let bp = &self.initial_bp;
        [
            (self.selection == TrialSelection::MinWeight).then(|| "select=min-weight".into()),
            match self.ranking {
                CandidateRanking::FlipCountThenLlr => None,
                CandidateRanking::FlipCountOnly => Some("rank=flips".into()),
                CandidateRanking::LlrOnly => Some("rank=llr".into()),
            },
            (!self.pad_candidates).then(|| "pad=off".into()),
            match bp.damping {
                DampingSchedule::Adaptive => None,
                DampingSchedule::Fixed(alpha) => Some(format!("damp={alpha}")),
            },
            (bp.algorithm == BpAlgorithm::SumProduct).then(|| "rule=sum-product".into()),
            (bp.memory_strength != 0.0).then(|| format!("mem={}", bp.memory_strength)),
            (workers > 1).then(|| format!("workers={workers}")),
        ]
        .into_iter()
        .flatten()
        .collect()
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
struct TrialOutcome {
    iterations: usize,
    /// The trial's estimate (flips not yet undone) if it converged.
    error_hat: Option<BitVec>,
}

/// Decodes the flipped syndromes `s ⊕ H·t`, which `flipped` yields in
/// trial-index order (each computed when pulled), and returns, in that
/// order, the outcomes of the shortest prefix that contains the
/// lowest-index convergent trial — of every trial when none converges or
/// `first_success` is false.
///
/// Each worker pulls the next index from the shared iterator, so the
/// pulled indices are always a prefix and every one of them is decoded:
/// which worker decodes what changes the work wasted above the winner,
/// never the answer. The first worker runs on the calling thread and the
/// others in a scope that joins them (a worker's panic is re-raised
/// here); one worker spawns nothing and is the plain serial loop.
fn run_trials(
    workers: &mut [MinSumDecoder],
    flipped: impl Iterator<Item = BitVec> + Send,
    first_success: bool,
) -> Vec<TrialOutcome> {
    let queue = Mutex::new(flipped.enumerate());
    // Relaxed: the flag publishes no data and the result does not depend
    // on when a worker sees it — only how many trials above the winner
    // are decoded for nothing.
    let found = AtomicBool::new(false);
    // Trials stay on the scalar decoder: early exit usually stops after a
    // handful of them, and a fixed interleaved tile would decode past the
    // winner — measurably worse than the loop on the latency-sensitive
    // post-processing path.
    let work = |decoder: &mut MinSumDecoder| {
        let mut outcomes = Vec::new();
        // Once a trial has converged, every index not yet handed out lies
        // above it.
        while !found.load(Ordering::Relaxed) {
            let next = queue.lock().expect("a worker panicked").next();
            let Some((idx, syndrome)) = next else {
                break;
            };
            let r = decoder.decode(&syndrome);
            if first_success && r.converged {
                found.store(true, Ordering::Relaxed);
            }
            let outcome = TrialOutcome {
                iterations: r.iterations,
                error_hat: r.converged.then_some(r.error_hat),
            };
            outcomes.push((idx, outcome));
        }
        outcomes
    };
    let (first, rest) = workers.split_first_mut().expect("at least one worker");
    let mut outcomes = std::thread::scope(|scope| {
        let spawned: Vec<_> = rest
            .iter_mut()
            .map(|decoder| scope.spawn(|| work(decoder)))
            .collect();
        let mut outcomes = work(first);
        for handle in spawned {
            outcomes.extend(
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        outcomes
    });
    outcomes.sort_unstable_by_key(|&(idx, _)| idx);
    let mut outcomes: Vec<TrialOutcome> = outcomes.into_iter().map(|(_, o)| o).collect();
    if first_success {
        if let Some(winner) = outcomes.iter().position(|o| o.error_hat.is_some()) {
            outcomes.truncate(winner + 1);
        }
    }
    outcomes
}

/// The BP-SF decoder (paper Algorithm 1).
///
/// Owns the oscillation-tracking initial min-sum decoder, one short-depth
/// trial decoder per worker (`P ≥ 1`; the paper's serial and "CPU, P = N"
/// implementations are this type at `P = 1` and `P = N`) and the sparse
/// check matrix used for trial-syndrome generation `s′ = s ⊕ H·t` (an
/// SpMSpV, §VI).
///
/// A decode is a pure function of `(H, priors, config, syndrome)`: it
/// does not depend on the worker count, on thread scheduling, or on what
/// was decoded before or in which order. Clone the decoder to decode
/// concurrently on several threads.
///
/// # Examples
///
/// ```
/// use bpsf_core::{BpSfConfig, BpSfDecoder};
/// use qldpc_codes::coprime_bb;
/// use qldpc_gf2::BitVec;
///
/// let code = coprime_bb::coprime154();
/// let hz = code.hz();
/// let (n, config) = (hz.cols(), BpSfConfig::code_capacity(50, 8, 1));
/// let mut serial = BpSfDecoder::new(hz, &vec![0.02; n], config);
/// let mut two = BpSfDecoder::with_workers(hz, &vec![0.02; n], config, 2);
/// let s = hz.mul_vec(&BitVec::from_indices(n, &[5, 40]));
/// assert_eq!(two.decode(&s), serial.decode(&s));
/// ```
#[derive(Debug, Clone)]
pub struct BpSfDecoder {
    h: SparseBitMatrix,
    initial: MinSumDecoder,
    /// One trial decoder per worker.
    trial: Vec<MinSumDecoder>,
    config: BpSfConfig,
}

impl BpSfDecoder {
    /// Builds a BP-SF decoder that runs its trials one after another
    /// ([`Self::with_workers`] at one worker).
    ///
    /// # Panics
    ///
    /// Panics if `priors.len() != h.cols()`, or if the configuration asks
    /// for zero candidates or zero flip weight.
    pub fn new(h: &SparseBitMatrix, priors: &[f64], config: BpSfConfig) -> Self {
        Self::with_workers(h, priors, config, 1)
    }

    /// Builds a BP-SF decoder for check matrix `h` and per-variable priors
    /// whose trials run on `workers` threads: the calling one plus
    /// `workers − 1` scoped threads per post-processed decode.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` or `priors.len() != h.cols()`, or if the
    /// configuration asks for zero candidates or zero flip weight.
    pub fn with_workers(
        h: &SparseBitMatrix,
        priors: &[f64],
        config: BpSfConfig,
        workers: usize,
    ) -> Self {
        assert!(workers > 0, "need at least one worker");
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
            trial: vec![MinSumDecoder::new(h, priors, trial_cfg); workers],
            config,
        }
    }

    /// The decoder configuration.
    pub fn config(&self) -> &BpSfConfig {
        &self.config
    }

    /// Number of trial workers `P`.
    pub fn workers(&self) -> usize {
        self.trial.len()
    }

    /// Decodes a syndrome (paper Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length differs from the number of checks.
    pub fn decode(&mut self, syndrome: &BitVec) -> BpSfResult {
        let initial = self.initial.decode(syndrome);
        post_process(&self.h, &self.config, &mut self.trial, syndrome, initial)
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
/// generation, the trial run, winner selection.
fn post_process(
    h: &SparseBitMatrix,
    config: &BpSfConfig,
    workers: &mut [MinSumDecoder],
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
    let outcomes = run_trials(workers, flipped, first_success);

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

    /// Under `MinWeight` every worker count decodes every trial and
    /// returns the lightest answer, not the first trial to finish.
    #[test]
    fn workers_honour_min_weight_selection() {
        let code = bb::bb72();
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
        let mut two = BpSfDecoder::with_workers(hz, &vec![0.1; n], config, 2);
        let mut rng = StdRng::seed_from_u64(31);
        let mut first_convergent_lost = 0;
        for _ in 0..30 {
            let mut e = BitVec::zeros(n);
            for i in 0..n {
                if rng.random_bool(0.1) {
                    e.set(i, true);
                }
            }
            let s = hz.mul_vec(&e);
            let rs = serial.decode(&s);
            let rp = two.decode(&s);
            assert_eq!(rs, rp, "worker counts disagree");
            if !rp.initial_converged {
                assert_eq!(rp.trials_executed, config.max_trials());
            }
            first_convergent_lost +=
                usize::from(first.decode(&s).winning_trial != rp.winning_trial);
        }
        // Otherwise both selections agree on every shot and this test
        // cannot tell them apart.
        assert!(first_convergent_lost > 0, "selection never exercised");
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
