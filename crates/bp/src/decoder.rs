//! Normalized min-sum BP with flooding and layered schedules.
//!
//! The decoder is generic over the [`Llr`] message scalar: the reference
//! instantiation is [`MinSumDecoder`] (`f64`), the reduced-precision one
//! [`MinSumDecoderF32`](crate::MinSumDecoderF32). Configuration stays in
//! `f64` regardless of precision; each quantity is rounded into the
//! message scalar exactly once per use, so the `f64` instantiation
//! executes the identical float stream the pre-generic decoder did.

use crate::batch::BatchMinSumDecoderOf;
use crate::graph::TannerGraph;
use crate::kernel::{self, CheckScratch};
use crate::llr::Llr;
use crate::prior_llr;
use qldpc_gf2::{BitVec, SparseBitMatrix};
use qldpc_simd::SimdTarget;

/// Message-passing schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// All checks update simultaneously each iteration (fully parallel).
    #[default]
    Flooding,
    /// Checks update sequentially with immediate posterior propagation
    /// (row-layered min-sum). Serial, but mitigates symmetric trapping
    /// sets — the paper uses it for the `[[288,12,18]]` circuit-level runs.
    Layered,
}

/// The check-node update rule.
///
/// The paper uses normalized min-sum throughout for its hardware
/// friendliness; the exact sum-product (tanh) rule is provided as the
/// "more advanced BP technique" its §VII points to, and slots into both
/// schedules and into BP-SF unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BpAlgorithm {
    /// Normalized min-sum (paper Eq. 6): magnitude = α · second-smallest
    /// incoming magnitude.
    #[default]
    MinSum,
    /// Exact sum-product: magnitude = 2·atanh(Π tanh(|m|/2)), damped by α
    /// for consistency with the min-sum configuration.
    SumProduct,
}

/// Normalization/damping factor applied to check-to-variable messages
/// (the `α` of paper Eq. 6).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DampingSchedule {
    /// The paper's adaptive choice `α_i = 1 − 2⁻ⁱ` at iteration `i`
    /// (1-based): heavy attenuation early, approaching plain min-sum.
    #[default]
    Adaptive,
    /// A fixed normalization factor (classical normalized min-sum);
    /// used for ablation studies.
    Fixed(f64),
}

impl DampingSchedule {
    /// The factor to apply at (1-based) iteration `iter`.
    #[inline]
    pub fn factor(self, iter: usize) -> f64 {
        match self {
            Self::Adaptive => 1.0 - (-(iter as f64)).exp2(),
            Self::Fixed(a) => a,
        }
    }
}

/// Configuration for [`MinSumDecoder`].
///
/// All fields are precision-independent (`f64`); the message precision is
/// chosen by the decoder *type* ([`MinSumDecoder`] vs
/// [`MinSumDecoderF32`](crate::MinSumDecoderF32)), not the config.
///
/// # Examples
///
/// ```
/// use qldpc_bp::{BpConfig, DampingSchedule, Schedule};
///
/// let config = BpConfig {
///     max_iters: 50,
///     schedule: Schedule::Flooding,
///     damping: DampingSchedule::Adaptive,
///     track_oscillations: true,
///     ..BpConfig::default()
/// };
/// assert_eq!(config.max_iters, 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BpConfig {
    /// Maximum number of BP iterations before giving up.
    pub max_iters: usize,
    /// Message-passing schedule.
    pub schedule: Schedule,
    /// Check-node update rule.
    pub algorithm: BpAlgorithm,
    /// Check-to-variable normalization factor.
    pub damping: DampingSchedule,
    /// Posterior-memory strength γ ∈ [0, 1) (Mem-BP-inspired, Chen et
    /// al.): the channel term becomes `(1−γ)·l_ch + γ·posterior_prev`,
    /// damping oscillations between iterations. `0.0` disables memory
    /// (the paper's configuration). Only the flooding schedule uses the
    /// memory term; the layered schedule's running posterior already
    /// carries state across checks.
    pub memory_strength: f64,
    /// Whether to record per-bit hard-decision flip counts (the BP-SF
    /// oscillation signal). Counted in the per-iteration pass over the
    /// variables that takes the hard decision.
    pub track_oscillations: bool,
    /// SIMD dispatch pin for the batch engine's lane-block kernels.
    /// `None` (the default) auto-selects the widest instruction set the
    /// CPU supports — overridable process-wide through the
    /// `QLDPC_SIMD_TARGET` environment variable. `Some(target)` forces
    /// one compiled-in target; decoding panics if the CPU lacks it (a
    /// silent fallback would fake forced-target test coverage). Results
    /// are bit-identical across targets, so this knob exists for
    /// equivalence suites, benches and reproducibility pins — never for
    /// correctness. The scalar decoder and the sum-product rule always
    /// run scalar.
    pub simd_target: Option<SimdTarget>,
}

impl Default for BpConfig {
    fn default() -> Self {
        Self {
            max_iters: 100,
            schedule: Schedule::Flooding,
            algorithm: BpAlgorithm::MinSum,
            damping: DampingSchedule::Adaptive,
            memory_strength: 0.0,
            track_oscillations: false,
            simd_target: None,
        }
    }
}

/// Outcome of a BP decode at message precision `T` (`f64` by default, so
/// pre-existing `BpResult` mentions are unchanged).
#[derive(Debug, Clone)]
pub struct BpResult<T: Llr = f64> {
    /// Whether the hard decision satisfied the syndrome within the
    /// iteration budget.
    pub converged: bool,
    /// The estimated error (valid as a correction only if `converged`).
    pub error_hat: BitVec,
    /// Iterations actually executed (`<= max_iters`).
    pub iterations: usize,
    /// Final marginal LLR per variable (paper Eq. 7), in the decoder's
    /// message precision.
    pub posteriors: Vec<T>,
    /// Per-bit hard-decision flip counts across iterations; empty unless
    /// [`BpConfig::track_oscillations`] was set.
    pub flip_counts: Vec<u32>,
}

/// A reusable normalized min-sum decoder bound to one check matrix and one
/// prior vector, with messages in scalar type `T`.
///
/// Use through the precision aliases: [`MinSumDecoder`] (`f64`, the
/// reference) or [`MinSumDecoderF32`](crate::MinSumDecoderF32).
///
/// The decoder owns all message buffers, so repeated decodes do not
/// allocate. Clone it to decode on several threads concurrently.
#[derive(Debug, Clone)]
pub struct MinSumDecoderOf<T: Llr> {
    graph: TannerGraph,
    h: SparseBitMatrix,
    config: BpConfig,
    channel_llrs: Vec<T>,
    // Working buffers, reused across decodes.
    c2v: Vec<T>,
    /// Per variable, what V2C messages are formed from: flooding, the
    /// unclamped `l_ch + Σ c2v` of the last sweep; layered, the running
    /// posterior. `next_total` is where a flooding sweep sums the next one.
    total: Vec<T>,
    next_total: Vec<T>,
    /// One check's V2C messages, sized to the largest check degree.
    incoming: Vec<T>,
    posterior: Vec<T>,
    hard: Vec<bool>,
    flip_counts: Vec<u32>,
    scratch: CheckScratch<T>,
    /// Cached interleaved engine behind [`Self::decode_batch_results`].
    batch: Option<Box<BatchMinSumDecoderOf<T>>>,
}

/// The reference `f64` min-sum decoder — every pre-existing call site
/// resolves here unchanged.
///
/// # Examples
///
/// ```
/// use qldpc_bp::{BpConfig, MinSumDecoder};
/// use qldpc_gf2::{BitVec, SparseBitMatrix};
///
/// let h = SparseBitMatrix::from_row_indices(2, 3, &[vec![0, 1], vec![1, 2]]);
/// let mut dec = MinSumDecoder::new(&h, &[0.1, 0.1, 0.1], BpConfig::default());
/// let r = dec.decode(&BitVec::zeros(2));
/// assert!(r.converged);
/// assert!(r.error_hat.is_zero());
/// assert_eq!(r.iterations, 1);
/// ```
pub type MinSumDecoder = MinSumDecoderOf<f64>;

impl<T: Llr> MinSumDecoderOf<T> {
    /// Builds a decoder for check matrix `h` with per-variable error
    /// priors `priors`.
    ///
    /// # Panics
    ///
    /// Panics if `priors.len() != h.cols()` or `max_iters == 0`.
    pub fn new(h: &SparseBitMatrix, priors: &[f64], config: BpConfig) -> Self {
        assert_eq!(priors.len(), h.cols(), "one prior per variable required");
        assert!(config.max_iters > 0, "max_iters must be positive");
        assert!(
            (0.0..1.0).contains(&config.memory_strength),
            "memory strength must lie in [0, 1)"
        );
        let graph = TannerGraph::new(h);
        let edges = graph.num_edges();
        let vars = graph.num_vars();
        let max_degree = (0..graph.num_checks()).map(|c| graph.check_edges(c).len());
        let max_degree = max_degree.max().unwrap_or(0);
        Self {
            graph,
            h: h.clone(),
            config,
            channel_llrs: priors.iter().map(|&p| T::from_f64(prior_llr(p))).collect(),
            c2v: vec![T::ZERO; edges],
            total: vec![T::ZERO; vars],
            next_total: vec![T::ZERO; vars],
            incoming: vec![T::ZERO; max_degree],
            posterior: vec![T::ZERO; vars],
            hard: vec![false; vars],
            flip_counts: vec![0; vars],
            scratch: CheckScratch::new(1),
            batch: None,
        }
    }

    /// The precomputed Tanner-graph edge layout.
    pub(crate) fn graph(&self) -> &TannerGraph {
        &self.graph
    }

    /// Decodes a batch of syndromes, one [`BpResult`] per syndrome in
    /// input order, each bit-identical to [`Self::decode`] of that
    /// syndrome: fewer than two run the scalar loop, wider batches the
    /// shot-interleaved engine ([`BatchMinSumDecoderOf`]).
    ///
    /// The engine is built from the decoder's config and channel LLRs on
    /// the first wide call and cached, so repeated batches reuse its
    /// slabs.
    ///
    /// # Panics
    ///
    /// Panics if any syndrome's length differs from the number of checks.
    pub fn decode_batch_results(&mut self, syndromes: &[BitVec]) -> Vec<BpResult<T>> {
        if syndromes.len() < 2 {
            return syndromes.iter().map(|s| self.decode(s)).collect();
        }
        let engine = match self.batch.take() {
            Some(engine) => engine,
            None => Box::new(BatchMinSumDecoderOf::from_scalar(self)),
        };
        self.batch.insert(engine).decode_batch_results(syndromes)
    }

    /// The channel LLRs derived from the priors.
    pub(crate) fn channel_llrs(&self) -> &[T] {
        &self.channel_llrs
    }

    /// The decoder's configuration.
    pub fn config(&self) -> &BpConfig {
        &self.config
    }

    /// The check matrix this decoder is bound to.
    pub fn check_matrix(&self) -> &SparseBitMatrix {
        &self.h
    }

    /// Number of variables (columns).
    pub fn num_vars(&self) -> usize {
        self.graph.num_vars()
    }

    /// Runs BP on `syndrome` until convergence or the iteration budget is
    /// exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `syndrome.len()` differs from the number of checks.
    pub fn decode(&mut self, syndrome: &BitVec) -> BpResult<T> {
        assert_eq!(
            syndrome.len(),
            self.graph.num_checks(),
            "syndrome length must equal the number of checks"
        );
        let vars = self.graph.num_vars();
        let flooding = self.config.schedule == Schedule::Flooding;
        let track = self.config.track_oscillations;
        // Posterior memory (flooding only): `Some(γ)` when enabled.
        let gamma = self.config.memory_strength;
        let memory = (flooding && gamma != 0.0).then(|| T::from_f64(gamma));
        // Reset; `hard` and the counts are read before they are written
        // only by flip tracking.
        self.c2v.fill(T::ZERO);
        self.posterior.copy_from_slice(&self.channel_llrs);
        self.total.copy_from_slice(&self.channel_llrs);
        if track {
            self.hard.fill(false);
            self.flip_counts.fill(0);
        }

        let mut converged = false;
        let mut iterations = 0;
        for iter in 1..=self.config.max_iters {
            iterations = iter;
            let alpha = T::from_f64(self.config.damping.factor(iter));
            if let Some(gamma) = memory {
                self.blend_memory(gamma);
            }
            self.sweep_checks(syndrome, alpha, flooding);
            // Posteriors (paper Eq. 7) and hard decision (paper Eq. 8):
            // error where the posterior says "1 more likely", LLR <= 0.
            for (v, &total) in self.total.iter().enumerate() {
                let posterior = total.clamp_llr();
                let bit = posterior <= T::ZERO;
                if track {
                    self.flip_counts[v] += u32::from(bit != self.hard[v]);
                }
                self.posterior[v] = posterior;
                self.hard[v] = bit;
            }
            if self.syndrome_satisfied(syndrome) {
                converged = true;
                break;
            }
        }

        let mut error_hat = BitVec::zeros(vars);
        for v in 0..vars {
            if self.hard[v] {
                error_hat.set(v, true);
            }
        }
        BpResult {
            converged,
            error_hat,
            iterations,
            posteriors: self.posterior.clone(),
            flip_counts: if track {
                self.flip_counts.clone()
            } else {
                Vec::new()
            },
        }
    }

    /// One pass over the checks in order: the whole message passing of an
    /// iteration. Per check, V2C (paper Eq. 5) is formed on the fly as
    /// `clamp(total[v] − c2v[e])`, the check rule writes the new C2V in
    /// place, and it is folded back: flooding adds it into `next_total`
    /// (started at `l_ch`; it becomes `total` when the sweep ends), layered
    /// writes the running posterior through at once. Checks ascending and
    /// edges ascending within a check hand every variable its C2V terms in
    /// ascending edge id. The batch engine's sweep is this one per lane,
    /// in the same order, which keeps the two bit-identical.
    fn sweep_checks(&mut self, syndrome: &BitVec, alpha: T, flooding: bool) {
        self.next_total.copy_from_slice(&self.channel_llrs);
        let (total, next_total) = (&mut self.total[..], &mut self.next_total[..]);
        for c in 0..self.graph.num_checks() {
            let vars = self.graph.check_vars(c);
            let c2v = &mut self.c2v[self.graph.check_edges(c)];
            let incoming = &mut self.incoming[..vars.len()];
            let bit = syndrome.get(c);
            let (min1, min2, negative) = form_incoming(total, vars, c2v, incoming, bit);
            match self.config.algorithm {
                // Normalized min-sum (paper Eq. 6) in one lane. The oracle
                // (`kernel::update_check_lanes`, which `batch_equivalence.rs`
                // holds this against) writes `clamp(sign · own_sign · α ·
                // mag)`: four values per check, computed once — `sign ·
                // own_sign` is ±1 and multiplying by it is exact.
                BpAlgorithm::MinSum => {
                    let signed = if negative { -alpha } else { alpha };
                    let others = [(signed * min1).clamp_llr(), (-signed * min1).clamp_llr()];
                    let own = [(signed * min2).clamp_llr(), (-signed * min2).clamp_llr()];
                    for (out, &m) in c2v.iter_mut().zip(incoming.iter()) {
                        // The edge holding the minimum sees the second one;
                        // the oracle takes the first such edge, and with two
                        // of them `min2 == min1`.
                        let [plus, minus] = if m.abs() == min1 { own } else { others };
                        *out = if m < T::ZERO { minus } else { plus };
                    }
                }
                BpAlgorithm::SumProduct => {
                    let base_sign = [if bit { -T::ONE } else { T::ONE }];
                    let (rule, scratch) = (BpAlgorithm::SumProduct, &mut self.scratch);
                    kernel::update_check_lanes(
                        rule, incoming, c2v, 1, 1, &base_sign, alpha, scratch,
                    );
                }
            }
            for ((&m, &v), &new) in incoming.iter().zip(vars).zip(c2v.iter()) {
                if flooding {
                    next_total[v as usize] += new;
                } else {
                    total[v as usize] = (m + new).clamp_llr();
                }
            }
        }
        if flooding {
            std::mem::swap(&mut self.total, &mut self.next_total);
        }
    }

    /// Posterior memory: re-forms `total` with `(1−γ)·l_ch + γ·posterior`
    /// in place of `l_ch`. The one variable-major pass over `c2v`, paid
    /// only by the configuration that needs it.
    fn blend_memory(&mut self, gamma: T) {
        for (v, total) in self.total.iter_mut().enumerate() {
            let mut sum = (T::ONE - gamma) * self.channel_llrs[v] + gamma * self.posterior[v];
            for &e in self.graph.var_edges(v) {
                sum += self.c2v[e as usize];
            }
            *total = sum;
        }
    }

    /// Checks `H·ê = s` using the current hard decision.
    fn syndrome_satisfied(&self, syndrome: &BitVec) -> bool {
        for c in 0..self.graph.num_checks() {
            let mut parity = false;
            for &v in self.graph.check_vars(c) {
                parity ^= self.hard[v as usize];
            }
            if parity != syndrome.get(c) {
                return false;
            }
        }
        true
    }
}

/// Forms one check's V2C messages and, in the same loop, reduces them as
/// min-sum needs: the two smallest magnitudes and the parity of the
/// negative signs, seeded with the syndrome bit. (Sum-product ignores the
/// reduction; beside a tanh and a ln per edge it costs nothing.)
///
/// Out of line on purpose: inlined, LLVM's SLP vectorizer packs the two
/// minima into one register to feed the four products of the min-sum
/// arm, and the min/max chain becomes a flag-to-mask shuffle sequence
/// five times as long.
#[inline(never)]
fn form_incoming<T: Llr>(
    total: &[T],
    vars: &[u32],
    c2v: &[T],
    incoming: &mut [T],
    syndrome_bit: bool,
) -> (T, T, bool) {
    let (mut min1, mut min2, mut negative) = (T::INFINITY, T::INFINITY, syndrome_bit);
    for ((slot, &v), &old) in incoming.iter_mut().zip(vars).zip(c2v) {
        let m = (total[v as usize] - old).clamp_llr();
        *slot = m;
        let mag = m.abs();
        // The larger of `mag` and the old minimum competes for second
        // place: the same values as the oracle's three-way select.
        let runner_up = if mag < min1 { min1 } else { mag };
        min2 = if runner_up < min2 { runner_up } else { min2 };
        min1 = if mag < min1 { mag } else { min1 };
        negative ^= m < T::ZERO;
    }
    (min1, min2, negative)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MinSumDecoderF32;

    fn repetition_h(n: usize) -> SparseBitMatrix {
        let rows: Vec<Vec<usize>> = (0..n - 1).map(|i| vec![i, i + 1]).collect();
        SparseBitMatrix::from_row_indices(n - 1, n, &rows)
    }

    #[test]
    fn zero_syndrome_converges_immediately() {
        let h = repetition_h(7);
        let mut dec = MinSumDecoder::new(&h, &[0.05; 7], BpConfig::default());
        let r = dec.decode(&BitVec::zeros(6));
        assert!(r.converged);
        assert_eq!(r.iterations, 1);
        assert!(r.error_hat.is_zero());
    }

    #[test]
    fn corrects_single_error_on_repetition_code() {
        let h = repetition_h(9);
        let mut dec = MinSumDecoder::new(&h, &[0.05; 9], BpConfig::default());
        for bit in 0..9 {
            let e = BitVec::from_indices(9, &[bit]);
            let s = h.mul_vec(&e);
            let r = dec.decode(&s);
            assert!(r.converged, "bit {bit} failed");
            assert_eq!(r.error_hat, e, "bit {bit} mis-decoded");
        }
    }

    #[test]
    fn f32_decoder_corrects_single_errors_too() {
        let h = repetition_h(9);
        let mut dec = MinSumDecoderF32::new(&h, &[0.05; 9], BpConfig::default());
        for bit in 0..9 {
            let e = BitVec::from_indices(9, &[bit]);
            let s = h.mul_vec(&e);
            let r = dec.decode(&s);
            assert!(r.converged, "bit {bit} failed at f32");
            assert_eq!(r.error_hat, e, "bit {bit} mis-decoded at f32");
        }
    }

    #[test]
    fn f32_posteriors_are_f32_rounded() {
        // The f32 decoder's posteriors are genuine f32 values: widening
        // and re-narrowing must be the identity, and on an easy decode
        // they should be close to (but not bitwise equal with) f64's.
        let h = repetition_h(9);
        let e = BitVec::from_indices(9, &[4]);
        let s = h.mul_vec(&e);
        let mut d64 = MinSumDecoder::new(&h, &[0.05; 9], BpConfig::default());
        let mut d32 = MinSumDecoderF32::new(&h, &[0.05; 9], BpConfig::default());
        let r64 = d64.decode(&s);
        let r32 = d32.decode(&s);
        assert_eq!(r64.error_hat, r32.error_hat);
        for (p64, p32) in r64.posteriors.iter().zip(&r32.posteriors) {
            assert_eq!((f64::from(*p32) as f32), *p32);
            assert!(
                (p64 - f64::from(*p32)).abs() < 1e-3 * (1.0 + p64.abs()),
                "f32 posterior drifted: {p64} vs {p32}"
            );
        }
    }

    #[test]
    fn corrects_with_layered_schedule() {
        let h = repetition_h(9);
        let config = BpConfig {
            schedule: Schedule::Layered,
            ..BpConfig::default()
        };
        let mut dec = MinSumDecoder::new(&h, &[0.05; 9], config);
        let e = BitVec::from_indices(9, &[3, 4]);
        let s = h.mul_vec(&e);
        let r = dec.decode(&s);
        assert!(r.converged);
        assert_eq!(h.mul_vec(&r.error_hat), s);
    }

    #[test]
    fn converged_output_always_satisfies_syndrome() {
        let h =
            SparseBitMatrix::from_row_indices(3, 6, &[vec![0, 1, 2], vec![2, 3, 4], vec![4, 5, 0]]);
        let mut dec = MinSumDecoder::new(&h, &[0.08; 6], BpConfig::default());
        for mask in 0..8u32 {
            let s = BitVec::from_bools(&[(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0]);
            let r = dec.decode(&s);
            if r.converged {
                assert_eq!(h.mul_vec(&r.error_hat), s);
            }
        }
    }

    #[test]
    fn oscillation_tracking_disabled_by_default() {
        let h = repetition_h(5);
        let mut dec = MinSumDecoder::new(&h, &[0.05; 5], BpConfig::default());
        let r = dec.decode(&BitVec::zeros(4));
        assert!(r.flip_counts.is_empty());
    }

    #[test]
    fn oscillation_tracking_records_flips() {
        let h = repetition_h(5);
        let config = BpConfig {
            track_oscillations: true,
            max_iters: 30,
            ..BpConfig::default()
        };
        let mut dec = MinSumDecoder::new(&h, &[0.05; 5], config);
        let e = BitVec::from_indices(5, &[2]);
        let r = dec.decode(&h.mul_vec(&e));
        assert_eq!(r.flip_counts.len(), 5);
        // The erroneous bit must have flipped 0→1 at least once.
        assert!(r.flip_counts[2] >= 1);
    }

    #[test]
    fn adaptive_damping_schedule_values() {
        let d = DampingSchedule::Adaptive;
        assert!((d.factor(1) - 0.5).abs() < 1e-12);
        assert!((d.factor(2) - 0.75).abs() < 1e-12);
        assert!((d.factor(20) - 1.0).abs() < 1e-5);
        let f = DampingSchedule::Fixed(0.8);
        assert_eq!(f.factor(1), 0.8);
        assert_eq!(f.factor(100), 0.8);
    }

    #[test]
    fn iteration_budget_respected() {
        // An unsatisfiable syndrome (checks over disjoint pairs with an
        // isolated degree-0 variable never involved) still terminates.
        let h = SparseBitMatrix::from_row_indices(2, 4, &[vec![0, 1], vec![0, 1]]);
        // s = (1, 0) is inconsistent: both checks share the same support.
        let s = BitVec::from_indices(2, &[0]);
        let config = BpConfig {
            max_iters: 17,
            ..BpConfig::default()
        };
        let mut dec = MinSumDecoder::new(&h, &[0.1; 4], config);
        let r = dec.decode(&s);
        assert!(!r.converged);
        assert_eq!(r.iterations, 17);
    }

    #[test]
    #[should_panic(expected = "syndrome length")]
    fn wrong_syndrome_length_panics() {
        let h = repetition_h(5);
        let mut dec = MinSumDecoder::new(&h, &[0.05; 5], BpConfig::default());
        dec.decode(&BitVec::zeros(5));
    }

    #[test]
    fn decoder_is_reusable_and_deterministic() {
        let h = repetition_h(9);
        let mut dec = MinSumDecoder::new(&h, &[0.05; 9], BpConfig::default());
        let e = BitVec::from_indices(9, &[1, 5]);
        let s = h.mul_vec(&e);
        let r1 = dec.decode(&s);
        let r2 = dec.decode(&s);
        assert_eq!(r1.error_hat, r2.error_hat);
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(r1.posteriors, r2.posteriors);
    }

    #[test]
    fn sum_product_corrects_single_errors() {
        let h = repetition_h(9);
        let config = BpConfig {
            algorithm: BpAlgorithm::SumProduct,
            ..BpConfig::default()
        };
        let mut dec = MinSumDecoder::new(&h, &[0.05; 9], config);
        for bit in 0..9 {
            let e = BitVec::from_indices(9, &[bit]);
            let r = dec.decode(&h.mul_vec(&e));
            assert!(r.converged, "bit {bit} failed under sum-product");
            assert_eq!(r.error_hat, e);
        }
    }

    #[test]
    fn sum_product_works_at_f32() {
        let h = repetition_h(9);
        for schedule in [Schedule::Flooding, Schedule::Layered] {
            let config = BpConfig {
                algorithm: BpAlgorithm::SumProduct,
                schedule,
                ..BpConfig::default()
            };
            let mut dec = MinSumDecoderF32::new(&h, &[0.05; 9], config);
            for bit in 0..9 {
                let e = BitVec::from_indices(9, &[bit]);
                let r = dec.decode(&h.mul_vec(&e));
                assert!(r.converged, "bit {bit} failed, {schedule:?} f32");
                assert_eq!(r.error_hat, e);
            }
        }
    }

    #[test]
    fn sum_product_layered_contract() {
        let h = repetition_h(9);
        let config = BpConfig {
            algorithm: BpAlgorithm::SumProduct,
            schedule: Schedule::Layered,
            ..BpConfig::default()
        };
        let mut dec = MinSumDecoder::new(&h, &[0.05; 9], config);
        let e = BitVec::from_indices(9, &[2, 6]);
        let s = h.mul_vec(&e);
        let r = dec.decode(&s);
        assert!(r.converged);
        assert_eq!(h.mul_vec(&r.error_hat), s);
    }

    #[test]
    fn memory_strength_preserves_contract() {
        let h = repetition_h(9);
        let config = BpConfig {
            memory_strength: 0.4,
            ..BpConfig::default()
        };
        let mut dec = MinSumDecoder::new(&h, &[0.05; 9], config);
        let e = BitVec::from_indices(9, &[4]);
        let s = h.mul_vec(&e);
        let r = dec.decode(&s);
        assert!(r.converged);
        assert_eq!(h.mul_vec(&r.error_hat), s);
    }

    #[test]
    #[should_panic(expected = "memory strength")]
    fn invalid_memory_strength_panics() {
        let h = repetition_h(5);
        let config = BpConfig {
            memory_strength: 1.0,
            ..BpConfig::default()
        };
        MinSumDecoder::new(&h, &[0.05; 5], config);
    }

    #[test]
    fn sum_product_and_min_sum_agree_on_easy_cases() {
        let h = repetition_h(7);
        let mut ms = MinSumDecoder::new(&h, &[0.05; 7], BpConfig::default());
        let mut sp = MinSumDecoder::new(
            &h,
            &[0.05; 7],
            BpConfig {
                algorithm: BpAlgorithm::SumProduct,
                ..BpConfig::default()
            },
        );
        for bit in 0..7 {
            let e = BitVec::from_indices(7, &[bit]);
            let s = h.mul_vec(&e);
            assert_eq!(ms.decode(&s).error_hat, sp.decode(&s).error_hat);
        }
    }

    #[test]
    fn posteriors_signal_reliability() {
        // After a convergent decode on the repetition code, the flipped
        // bit should have negative posterior, the others positive.
        let h = repetition_h(7);
        let mut dec = MinSumDecoder::new(&h, &[0.05; 7], BpConfig::default());
        let e = BitVec::from_indices(7, &[3]);
        let r = dec.decode(&h.mul_vec(&e));
        assert!(r.converged);
        assert!(r.posteriors[3] <= 0.0);
        assert!(r.posteriors[0] > 0.0);
    }
}
