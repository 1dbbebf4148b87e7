//! Normalized min-sum BP with flooding and layered schedules: the
//! configuration, the result, and the crate's one decoder.
//!
//! [`MinSumDecoderOf`] decodes in tiles of lanes through one iteration
//! loop (`decoder/batch.rs`). [`MinSumDecoderOf::decode`] is a one-lane tile;
//! [`MinSumDecoderOf::decode_batch_results`] cuts a batch into tiles of
//! whole SIMD vectors, interleaved, and decodes each remaining lane
//! alone. A one-lane tile runs the contiguous sweep in this file
//! (`sweep_checks` + `form_incoming`), an interleaved tile the lane
//! body in `wide.rs`.
//!
//! The decoder is generic over the [`Llr`] message scalar: the reference
//! instantiation is [`MinSumDecoder`] (`f64`), the reduced-precision one
//! [`MinSumDecoderF32`](crate::MinSumDecoderF32). Configuration stays in
//! `f64` regardless of precision; each quantity is rounded into the
//! message scalar exactly once per use, so the `f64` instantiation
//! executes the identical float stream the pre-generic decoder did.

use crate::graph::TannerGraph;
use crate::kernel;
use crate::llr::Llr;
use crate::prior_llr;
use crate::wide;
use qldpc_gf2::{BitVec, SparseBitMatrix};
use qldpc_simd::{AlignedSlab, SimdTarget};

mod batch;
pub use batch::DEFAULT_MAX_LANES;

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
    /// SIMD dispatch pin for the lane body of interleaved tiles.
    /// `None` (the default) auto-selects the widest instruction set the
    /// CPU supports — overridable process-wide through the
    /// `QLDPC_SIMD_TARGET` environment variable. `Some(target)` forces
    /// one compiled-in target; decoding panics if the CPU lacks it (a
    /// silent fallback would fake forced-target test coverage). Results
    /// are bit-identical across targets, so this knob exists for
    /// equivalence suites, benches and reproducibility pins — never for
    /// correctness. A scalar pin decodes every lane alone, as the
    /// sum-product rule always does; a single syndrome is always
    /// decoded alone.
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
/// prior vector, with messages in scalar type `T`: the crate's one BP
/// engine, for one syndrome and for batches.
///
/// Use through the precision aliases: [`MinSumDecoder`] (`f64`, the
/// reference) or [`MinSumDecoderF32`](crate::MinSumDecoderF32).
///
/// All message state lives in shot-interleaved slabs (lane `b` of row
/// `r` at `r × lanes + b`), grown to the widest tile seen and reused, so
/// repeated decodes do not allocate beyond their results. Clone the
/// decoder to decode on several threads concurrently.
#[derive(Debug, Clone)]
pub struct MinSumDecoderOf<T: Llr> {
    graph: TannerGraph,
    h: SparseBitMatrix,
    config: BpConfig,
    channel_llrs: Vec<T>,
    max_lanes: usize,
    max_check_degree: usize,
    // Working slabs at the current tile's lane stride, 64-byte-aligned
    // so the lane-block sweep starts every row of a full tile on a cache
    // line / AVX-512 register boundary.
    c2v: AlignedSlab<T>,
    /// Per (variable, lane), what V2C messages are formed from: flooding,
    /// the unclamped `l_ch + Σ c2v` of the last sweep; layered, the
    /// running posterior. The lane's posterior is `clamp(total)`.
    total: AlignedSlab<T>,
    /// Where a flooding sweep sums the next `total`.
    next_total: AlignedSlab<T>,
    /// One check's V2C messages for one lane, or for one lane block of an
    /// interleaved tile: `max_check_degree` rows.
    incoming: AlignedSlab<T>,
    /// This iteration's hard decisions; with oscillation tracking, also
    /// the last iteration's, which the flip counts compare against.
    hard: AlignedSlab<bool>,
    flip_counts: AlignedSlab<u32>,
    /// `±1.0` per (check, lane): `-1.0` where the syndrome bit is set.
    syndrome_sign: AlignedSlab<T>,
    syndrome_bit: AlignedSlab<bool>,
    /// Original shot index occupying each physical lane (compaction
    /// moves it alongside the slab columns).
    lane_shot: Vec<usize>,
    // Per-shot (not per-lane) bookkeeping.
    converged: Vec<bool>,
    iterations: Vec<usize>,
    /// Per-lane syndrome-satisfaction verdicts.
    lane_ok: AlignedSlab<bool>,
    /// One compaction pass's `(hole, filler)` lane pairs.
    moves: Vec<(usize, usize)>,
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
    /// Panics if `priors.len() != h.cols()`, `max_iters == 0`, or the
    /// memory strength lies outside `[0, 1)`.
    pub fn new(h: &SparseBitMatrix, priors: &[f64], config: BpConfig) -> Self {
        assert_eq!(priors.len(), h.cols(), "one prior per variable required");
        assert!(config.max_iters > 0, "max_iters must be positive");
        assert!(
            (0.0..1.0).contains(&config.memory_strength),
            "memory strength must lie in [0, 1)"
        );
        let graph = TannerGraph::new(h);
        let max_check_degree = (0..graph.num_checks())
            .map(|c| graph.check_edges(c).len())
            .max()
            .unwrap_or(0);
        Self {
            graph,
            h: h.clone(),
            config,
            channel_llrs: priors.iter().map(|&p| T::from_f64(prior_llr(p))).collect(),
            max_lanes: DEFAULT_MAX_LANES,
            max_check_degree,
            c2v: AlignedSlab::new(),
            total: AlignedSlab::new(),
            next_total: AlignedSlab::new(),
            incoming: AlignedSlab::new(),
            hard: AlignedSlab::new(),
            flip_counts: AlignedSlab::new(),
            syndrome_sign: AlignedSlab::new(),
            syndrome_bit: AlignedSlab::new(),
            lane_shot: Vec::new(),
            converged: Vec::new(),
            iterations: Vec::new(),
            lane_ok: AlignedSlab::new(),
            moves: Vec::new(),
        }
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

    /// Caps the lane width of one tile (memory/locality trade-off;
    /// results are unaffected). The default is [`DEFAULT_MAX_LANES`].
    ///
    /// # Panics
    ///
    /// Panics if `max_lanes == 0`.
    pub fn set_max_lanes(&mut self, max_lanes: usize) {
        assert!(max_lanes > 0, "need at least one lane");
        self.max_lanes = max_lanes;
    }

    /// The SIMD target this decoder's interleaved tiles run at under the
    /// current configuration — the [`BpConfig::simd_target`] pin, the
    /// `QLDPC_SIMD_TARGET` override, or CPU detection, in that precedence
    /// (always [`SimdTarget::Scalar`] for the sum-product rule, which has
    /// no lane body). An auto-detected target may still step down for a
    /// batch narrower than one vector; a pinned target never does.
    pub fn resolved_simd_target(&self) -> SimdTarget {
        wide::resolve_target(&self.config)
    }

    /// Runs BP on `syndrome` until convergence or the iteration budget is
    /// exhausted: a one-lane tile.
    ///
    /// # Panics
    ///
    /// Panics if `syndrome.len()` differs from the number of checks, or
    /// if the config pins a SIMD target this CPU does not support.
    pub fn decode(&mut self, syndrome: &BitVec) -> BpResult<T> {
        self.decode_batch_results(std::slice::from_ref(syndrome))
            .pop()
            .expect("one result per syndrome")
    }

    /// Decodes a batch of syndromes, one [`BpResult`] per syndrome in
    /// input order, each bit-identical to [`Self::decode`] of that
    /// syndrome: lanes are isolated, so shot `i`'s result depends only on
    /// `syndromes[i]`.
    ///
    /// The batch is cut into tiles of at most [`DEFAULT_MAX_LANES`] (or
    /// [`Self::set_max_lanes`]) shots. On a wide SIMD target, the first
    /// `len − len % w` shots of a tile run interleaved, `w` being the
    /// target's vector width at this precision, and each remaining shot
    /// is decoded alone; on the scalar target every shot is decoded
    /// alone. An auto-detected target first steps down to one whose
    /// vector fits the tile.
    ///
    /// # Panics
    ///
    /// Panics if any syndrome's length differs from the number of checks,
    /// or if the config pins a SIMD target this CPU does not support.
    pub fn decode_batch_results(&mut self, syndromes: &[BitVec]) -> Vec<BpResult<T>> {
        for s in syndromes {
            assert_eq!(
                s.len(),
                self.graph.num_checks(),
                "syndrome length must equal the number of checks"
            );
        }
        let resolved = wide::resolve_target(&self.config);
        let mut out = Vec::with_capacity(syndromes.len());
        for tile in syndromes.chunks(self.max_lanes) {
            let mut target = resolved;
            if self.config.simd_target.is_none() {
                while target != SimdTarget::Scalar && wide::lane_width::<T>(target) > tile.len() {
                    target = wide::step_down(target);
                }
            }
            let whole = match target {
                SimdTarget::Scalar => 0,
                _ => tile.len() - tile.len() % wide::lane_width::<T>(target),
            };
            if whole > 0 {
                self.decode_tile(&tile[..whole], target, &mut out);
            }
            for s in &tile[whole..] {
                self.decode_tile(std::slice::from_ref(s), SimdTarget::Scalar, &mut out);
            }
        }
        out
    }

    /// One pass over the checks of a one-lane tile, in order: the whole
    /// message passing of an iteration. Per check, V2C (paper Eq. 5) is
    /// formed on the fly as `clamp(total[v] − c2v[e])`, the check rule
    /// writes the new C2V in place, and it is folded back: flooding adds
    /// it into `next_total` (started at `l_ch`; the caller swaps it into
    /// `total` when the sweep ends), layered writes the running posterior
    /// through at once. Checks ascending and edges ascending within a
    /// check hand every variable its C2V terms in ascending edge id. The
    /// lane body of an interleaved tile (`wide.rs`) is this sweep per
    /// lane, in the same order, which keeps the two bit-identical.
    fn sweep_checks(&mut self, alpha: T, flooding: bool) {
        let n = self.graph.num_vars();
        let total = &mut self.total[..n];
        let next_total = &mut self.next_total[..n];
        if flooding {
            next_total.copy_from_slice(&self.channel_llrs);
        }
        let (c2v_all, syndrome) = (&mut self.c2v[..], &self.syndrome_bit[..]);
        for c in 0..self.graph.num_checks() {
            let vars = self.graph.check_vars(c);
            let c2v = &mut c2v_all[self.graph.check_edges(c)];
            let incoming = &mut self.incoming[..vars.len()];
            let bit = syndrome[c];
            let (min1, min2, negative) = form_incoming(total, vars, c2v, incoming, bit);
            match self.config.algorithm {
                // Normalized min-sum (paper Eq. 6): `clamp(sign · own_sign
                // · α · mag)`, four values per check, computed once —
                // `sign · own_sign` is ±1 and multiplying by it is exact.
                // The lane body computes the same product per edge.
                BpAlgorithm::MinSum => {
                    let signed = if negative { -alpha } else { alpha };
                    let others = [(signed * min1).clamp_llr(), (-signed * min1).clamp_llr()];
                    let own = [(signed * min2).clamp_llr(), (-signed * min2).clamp_llr()];
                    for (out, &m) in c2v.iter_mut().zip(incoming.iter()) {
                        // The edge holding the minimum sees the second one;
                        // the lane body takes the first such edge, and with
                        // two of them `min2 == min1`.
                        let [plus, minus] = if m.abs() == min1 { own } else { others };
                        *out = if m < T::ZERO { minus } else { plus };
                    }
                }
                BpAlgorithm::SumProduct => kernel::sum_product(incoming, c2v, bit, alpha),
            }
            for ((&m, &v), &new) in incoming.iter().zip(vars).zip(c2v.iter()) {
                if flooding {
                    next_total[v as usize] += new;
                } else {
                    total[v as usize] = (m + new).clamp_llr();
                }
            }
        }
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
        // place: the same values as the lane body's two-minimum select.
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

    /// The one-lane sweep's min-sum rule on a degree-3 check with
    /// distinct magnitudes: each edge sees the minimum over the *other*
    /// edges, at both precisions.
    fn min_sum_excludes_own_message_for<T: Llr>() {
        let h = SparseBitMatrix::from_row_indices(1, 3, &[vec![0, 1, 2]]);
        let mut dec = MinSumDecoderOf::<T>::new(&h, &[0.1; 3], BpConfig::default());
        dec.decode(&BitVec::zeros(1)); // sizes and loads the one-lane slabs
        dec.total[..3].copy_from_slice(&[T::ONE, T::TWO, T::from_f64(3.0)]);
        dec.c2v[..3].fill(T::ZERO);
        dec.sweep_checks(T::ONE, true);
        assert_eq!(dec.c2v[..3], [T::TWO, T::ONE, T::ONE]);
    }

    #[test]
    fn min_sum_excludes_own_message() {
        min_sum_excludes_own_message_for::<f64>();
        min_sum_excludes_own_message_for::<f32>();
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
