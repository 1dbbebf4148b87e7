//! Ordered-statistics decoding (OSD) post-processing for BP.
//!
//! This is the **baseline the BP-SF paper competes against**: when BP fails
//! to converge, OSD re-solves the syndrome equation exactly by Gaussian
//! elimination over a reliability-ordered information set (Panteleev &
//! Kalachev 2021; Roffe et al. 2020). Two search strategies are provided:
//!
//! * **OSD-0** — the non-pivot ("residual") bits are all zero,
//! * **OSD-CS (combination sweep) of order λ** — additionally tries every
//!   weight-1 residual pattern, plus every weight-2 pattern within the λ
//!   least reliable residual positions, keeping the best-scoring solution.
//!
//! The Gaussian elimination step costs `O(N³)` in the worst case — the
//! expense BP-SF eliminates (`benchmark/` measures it per call as
//! `osd.postprocess_us` and `gf2.eliminate_us`). The hot path here runs on the
//! word-parallel [`OrderedEliminator`] workspace: the reliability
//! permutation is applied once up front, the syndrome rides along as an
//! appended column, and every sweep candidate is assembled incrementally
//! as `base ⊕ delta_a ⊕ delta_b`. The pre-workspace per-bit
//! implementation lives on as the reference in
//! `crates/osd/tests/equivalence.rs`; the two are bit-identical (same
//! solutions, same candidate counts, same tie-breaking), pinned by that
//! property suite.
//!
//! # Examples
//!
//! ```
//! use qldpc_bp::BpConfig;
//! use qldpc_osd::{BpOsdDecoder, OsdConfig};
//! use qldpc_gf2::{BitVec, SparseBitMatrix};
//!
//! let h = SparseBitMatrix::from_row_indices(2, 3, &[vec![0, 1], vec![1, 2]]);
//! let mut dec = BpOsdDecoder::new(&h, &[0.1, 0.1, 0.1], BpConfig::default(), OsdConfig::default());
//! let e = BitVec::from_indices(3, &[0]);
//! let r = dec.decode(&h.mul_vec(&e));
//! assert_eq!(r.error_hat, e);
//! ```

use qldpc_bp::{BpConfig, BpResult, MinSumDecoder, Schedule};
pub use qldpc_decoder_api::{DecodeOutcome, DecodeTelemetry, SyndromeDecoder};
use qldpc_gf2::{BitMatrix, BitVec, OrderedEliminator, SparseBitMatrix};

/// How OSD scores candidate solutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OsdSelection {
    /// Choose the candidate with the smallest Hamming weight.
    MinWeight,
    /// Choose the candidate with the smallest soft cost
    /// `Σ_{i ∈ supp(e)} ln((1−p_i)/p_i)` under the channel priors —
    /// the most probable error. This is the default.
    #[default]
    SoftWeight,
}

/// OSD search configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsdConfig {
    /// Combination-sweep order λ. `0` selects plain OSD-0. The paper's
    /// baseline is order 10 ("OSD10").
    pub order: usize,
    /// Candidate scoring rule.
    pub selection: OsdSelection,
}

impl Default for OsdConfig {
    fn default() -> Self {
        Self {
            order: 10,
            selection: OsdSelection::SoftWeight,
        }
    }
}

/// Outcome of a BP+OSD decode.
#[derive(Debug, Clone)]
pub struct OsdResult {
    /// The estimated error. Always satisfies the syndrome when
    /// [`OsdResult::solved`] is true.
    pub error_hat: BitVec,
    /// Whether a syndrome-satisfying solution was produced (BP converged,
    /// or the OSD linear system was consistent — it always is when the
    /// syndrome was produced by a real error).
    pub solved: bool,
    /// Whether plain BP already converged (OSD skipped).
    pub bp_converged: bool,
    /// BP iterations executed.
    pub bp_iterations: usize,
    /// Number of OSD candidate patterns scored (0 when OSD was skipped).
    pub osd_candidates: usize,
}

/// BP decoding with OSD fallback (the paper's "BPxxxx-OSDyy" baseline).
///
/// Owns a [`MinSumDecoder`] and a persistent [`OrderedEliminator`]
/// workspace, so failed shots re-use the same elimination scratch
/// instead of cloning the check matrix; the per-column soft cost is
/// precomputed once at construction. Clone to use from several threads.
#[derive(Debug, Clone)]
pub struct BpOsdDecoder {
    bp: MinSumDecoder,
    elim: OrderedEliminator,
    cost: Vec<f64>,
    config: OsdConfig,
}

impl BpOsdDecoder {
    /// Builds a BP+OSD decoder.
    ///
    /// # Panics
    ///
    /// Panics if `priors.len() != h.cols()`.
    pub fn new(h: &SparseBitMatrix, priors: &[f64], bp: BpConfig, config: OsdConfig) -> Self {
        assert_eq!(priors.len(), h.cols(), "one prior per variable required");
        Self {
            bp: MinSumDecoder::new(h, priors, bp),
            elim: OrderedEliminator::new(&h.to_dense()),
            cost: soft_costs(priors),
            config,
        }
    }

    /// The inner BP decoder.
    pub fn bp(&self) -> &MinSumDecoder {
        &self.bp
    }

    /// The OSD configuration.
    pub fn config(&self) -> &OsdConfig {
        &self.config
    }

    /// Decodes a syndrome: BP first, OSD on BP failure.
    ///
    /// # Panics
    ///
    /// Panics if the syndrome length differs from the number of checks.
    pub fn decode(&mut self, syndrome: &BitVec) -> OsdResult {
        let bp_result = self.bp.decode(syndrome);
        self.finish(syndrome, bp_result)
    }

    /// The post-BP half of [`Self::decode`], shared with the batched
    /// path: returns the BP answer on convergence, otherwise runs the
    /// OSD stage on the persistent workspace.
    fn finish(&mut self, syndrome: &BitVec, bp_result: BpResult) -> OsdResult {
        if bp_result.converged {
            return OsdResult {
                error_hat: bp_result.error_hat,
                solved: true,
                bp_converged: true,
                bp_iterations: bp_result.iterations,
                osd_candidates: 0,
            };
        }
        let (error_hat, solved, candidates) = osd_postprocess_with(
            &mut self.elim,
            syndrome,
            &bp_result.posteriors,
            &self.cost,
            self.config,
        );
        OsdResult {
            error_hat,
            solved,
            bp_converged: false,
            bp_iterations: bp_result.iterations,
            osd_candidates: candidates,
        }
    }
}

/// The per-column soft cost `ln((1−p)/p)` (floored at a tiny positive
/// value so zero-cost columns cannot make every solution free) used by
/// [`OsdSelection::SoftWeight`] scoring.
fn soft_costs(priors: &[f64]) -> Vec<f64> {
    priors
        .iter()
        .map(|&p| {
            let p = p.clamp(1e-12, 1.0 - 1e-12);
            ((1.0 - p) / p).ln().max(1e-9)
        })
        .collect()
}

/// The reliability permutation: columns by *descending probability of
/// error*, i.e. ascending posterior LLR, so the most suspicious bits
/// land in the information set (pivots).
fn reliability_order(posteriors: &[f64]) -> Vec<usize> {
    // Monotone total-order key for finite floats; the index tiebreak
    // reproduces exactly the permutation a stable ascending float sort
    // yields, at integer-sort speed (this runs once per failed shot).
    fn key(f: f64) -> u64 {
        let b = f.to_bits();
        if b >> 63 == 1 {
            !b
        } else {
            b ^ (1u64 << 63)
        }
    }
    let mut order: Vec<usize> = (0..posteriors.len()).collect();
    order.sort_unstable_by_key(|&i| (key(posteriors[i]), i));
    order
}

/// Scores a candidate given as a word stream under non-uniform soft
/// costs, bit-identically to scoring the materialized vector: folds
/// `cost` over the set bits in the same ascending order (and from the
/// same `0.0`) as `iter_ones().map(..).sum()`.
#[inline]
fn soft_score_stream(cost: &[f64], words: impl Iterator<Item = u64>) -> f64 {
    let mut acc = 0.0f64;
    for (wi, word) in words.enumerate() {
        let mut bits = word;
        while bits != 0 {
            acc += cost[wi * 64 + bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
    }
    acc
}

/// XOR-popcount over two or three equal-length word slices — the weight
/// of `base ⊕ delta_a (⊕ delta_b)` restricted to the pivot rows, per
/// the [`OrderedEliminator::residual_column`] identity.
#[inline]
fn xor_weight(a: &[u64], b: &[u64], c: Option<&[u64]>) -> usize {
    match c {
        None => a
            .iter()
            .zip(b)
            .map(|(&x, &y)| (x ^ y).count_ones() as usize)
            .sum(),
        Some(c) => a
            .iter()
            .zip(b)
            .zip(c)
            .map(|((&x, &y), &z)| (x ^ y ^ z).count_ones() as usize)
            .sum(),
    }
}

/// Runs the OSD stage alone, given BP soft output.
///
/// Returns `(error, solved, candidates_scored)`. `solved` is false only
/// when the linear system `H·e = s` is inconsistent, which cannot happen
/// for syndromes generated by actual errors.
///
/// Builds a fresh [`OrderedEliminator`] workspace per call and runs the
/// fast path ([`osd_postprocess_with`]); [`BpOsdDecoder`] keeps a
/// persistent workspace instead.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn osd_postprocess(
    h: &BitMatrix,
    syndrome: &BitVec,
    posteriors: &[f64],
    priors: &[f64],
    config: OsdConfig,
) -> (BitVec, bool, usize) {
    assert_eq!(priors.len(), h.cols(), "one prior per column required");
    let mut elim = OrderedEliminator::new(h);
    osd_postprocess_with(&mut elim, syndrome, posteriors, &soft_costs(priors), config)
}

/// The OSD stage on a reusable [`OrderedEliminator`] workspace — the
/// decode hot path.
///
/// One ordered elimination of the augmented system, then a combination
/// sweep in which no candidate is ever materialized: when the score
/// depends only on solution weight (`MinWeight`, or `SoftWeight` with
/// uniform costs) candidates are scored by rank-bit column popcounts,
/// and otherwise each is streamed as `base ⊕ delta_a ⊕ delta_b` word by
/// word. Candidate enumeration order, scoring arithmetic and
/// tie-breaking are identical to the per-bit reference in
/// `crates/osd/tests/equivalence.rs`, so decode outcomes are bit-equal.
///
/// `cost` is the precomputed per-column soft cost (see
/// [`OsdSelection::SoftWeight`]); it is ignored under
/// [`OsdSelection::MinWeight`].
///
/// # Panics
///
/// Panics if `syndrome`, `posteriors` or `cost` disagree with the
/// workspace dimensions.
pub fn osd_postprocess_with(
    elim: &mut OrderedEliminator,
    syndrome: &BitVec,
    posteriors: &[f64],
    cost: &[f64],
    config: OsdConfig,
) -> (BitVec, bool, usize) {
    let n = elim.cols();
    assert_eq!(posteriors.len(), n, "one posterior per column required");
    assert_eq!(cost.len(), n, "one cost per column required");

    // When the score depends only on the candidate's *weight* —
    // `MinWeight` always, `SoftWeight` whenever every cost is bit-equal
    // (uniform priors: every code-capacity experiment) — the sweep
    // never needs candidate bits at all: by the
    // [`OrderedEliminator::residual_column`] identity,
    // `weight(base ⊕ delta_a ⊕ delta_b)` is a popcount over rank-bit
    // RREF columns plus the pattern size. Delta materialization is
    // skipped entirely and only the winner is assembled. For uniform
    // soft costs `sum_table[k]` holds the exact serial k-term fold, so
    // scores stay bit-identical to summing the materialized vector.
    let sum_table = match config.selection {
        OsdSelection::MinWeight => None,
        OsdSelection::SoftWeight if cost.windows(2).all(|w| w[0].to_bits() == w[1].to_bits()) => {
            let c = cost.first().copied().unwrap_or(0.0);
            let mut table = Vec::with_capacity(n + 1);
            let mut acc = 0.0f64;
            table.push(acc);
            for _ in 0..n {
                acc += c;
                table.push(acc);
            }
            Some(table)
        }
        _ => return osd_softweight_stream(elim, syndrome, posteriors, cost, config),
    };
    let score_of = |k: usize| match &sum_table {
        None => k as f64,
        Some(table) => table[k],
    };

    let order = reliability_order(posteriors);
    elim.eliminate_without_deltas(syndrome, &order);
    if !elim.is_consistent() {
        return (BitVec::zeros(n), false, 0);
    }

    // OSD-0 candidate: the base solution scatters the rhs column's
    // bits, so its weight is that column's popcount.
    let bm = elim.rhs_column();
    let mut best = Pattern::Base;
    let mut best_score = score_of(bm.iter().map(|&w| w.count_ones() as usize).sum());
    let mut candidates = 1usize;

    if config.order > 0 {
        let t = elim.residual_cols().len();
        // All weight-1 residual patterns.
        for j in 0..t {
            let sc = score_of(xor_weight(bm, elim.residual_column(j), None) + 1);
            candidates += 1;
            if sc < best_score {
                best_score = sc;
                best = Pattern::One(j);
            }
        }
        // Weight-2 patterns within the first λ residual positions (the
        // least reliable ones, since `residual_cols` preserves the
        // reliability order).
        let lambda = config.order.min(t);
        for a in 0..lambda {
            let ca = elim.residual_column(a);
            for b in (a + 1)..lambda {
                let sc = score_of(xor_weight(bm, ca, Some(elim.residual_column(b))) + 2);
                candidates += 1;
                if sc < best_score {
                    best_score = sc;
                    best = Pattern::Two(a, b);
                }
            }
        }
    }

    let mut e = elim.base_solution().clone();
    match best {
        Pattern::Base => {}
        Pattern::One(j) => elim.xor_delta_into(j, &mut e),
        Pattern::Two(a, b) => {
            elim.xor_delta_into(a, &mut e);
            elim.xor_delta_into(b, &mut e);
        }
    }
    (e, true, candidates)
}

/// Winning residual pattern of a combination sweep.
#[derive(Clone, Copy)]
enum Pattern {
    Base,
    One(usize),
    Two(usize, usize),
}

/// The soft-weight sweep under *non-uniform* costs, where scores are
/// order-sensitive f64 folds and candidates must be scored bit by bit:
/// each is streamed as `base ⊕ delta_a ⊕ delta_b` word by word (the
/// same ascending bit order and serial `0.0 + …` fold the naive
/// `iter_ones().sum()` performs, so scores are bit-identical), and only
/// the winning pattern is assembled at the end.
fn osd_softweight_stream(
    elim: &mut OrderedEliminator,
    syndrome: &BitVec,
    posteriors: &[f64],
    cost: &[f64],
    config: OsdConfig,
) -> (BitVec, bool, usize) {
    let n = elim.cols();
    let order = reliability_order(posteriors);
    elim.eliminate(syndrome, &order);
    if !elim.is_consistent() {
        return (BitVec::zeros(n), false, 0);
    }

    // OSD-0 candidate.
    let base = elim.base_solution().as_words();
    let mut best = Pattern::Base;
    let mut best_score = soft_score_stream(cost, base.iter().copied());
    let mut candidates = 1usize;

    if config.order > 0 {
        let t = elim.residual_cols().len();
        // All weight-1 residual patterns.
        for j in 0..t {
            let d = elim.delta(j).as_words();
            let words = base.iter().zip(d).map(|(&x, &y)| x ^ y);
            let sc = soft_score_stream(cost, words);
            candidates += 1;
            if sc < best_score {
                best_score = sc;
                best = Pattern::One(j);
            }
        }
        // Weight-2 patterns within the first λ residual positions (the
        // least reliable ones, since `residual_cols` preserves the
        // reliability order).
        let lambda = config.order.min(t);
        for a in 0..lambda {
            let da = elim.delta(a).as_words();
            for b in (a + 1)..lambda {
                let db = elim.delta(b).as_words();
                let words = base.iter().zip(da).zip(db).map(|((&x, &y), &z)| x ^ y ^ z);
                let sc = soft_score_stream(cost, words);
                candidates += 1;
                if sc < best_score {
                    best_score = sc;
                    best = Pattern::Two(a, b);
                }
            }
        }
    }

    let mut e = elim.base_solution().clone();
    match best {
        Pattern::Base => {}
        Pattern::One(j) => e.xor_assign(elim.delta(j)),
        Pattern::Two(a, b) => {
            e.xor_assign(elim.delta(a));
            e.xor_assign(elim.delta(b));
        }
    }
    (e, true, candidates)
}

/// Maps the OSD result onto the decoder-API outcome — shared by the
/// scalar and batched entry points so they cannot drift apart.
fn outcome_from(r: OsdResult) -> DecodeOutcome {
    let mut telemetry = DecodeTelemetry::bp(r.bp_iterations, r.bp_converged);
    telemetry.osd_invocations = u64::from(!r.bp_converged);
    telemetry.osd_candidates = r.osd_candidates as u64;
    DecodeOutcome {
        error_hat: r.error_hat,
        solved: r.solved,
        serial_iterations: r.bp_iterations,
        critical_iterations: r.bp_iterations,
        postprocessed: !r.bp_converged,
        telemetry,
    }
}

impl SyndromeDecoder for BpOsdDecoder {
    fn decode_syndrome(&mut self, syndrome: &BitVec) -> DecodeOutcome {
        outcome_from(self.decode(syndrome))
    }

    /// Overrides the default per-shot loop: the BP stage runs through
    /// the shot-interleaved batch kernel (bit-identical per lane to the
    /// scalar decoder), and only the shots BP failed on reach the serial
    /// OSD stage, in input order. Outcomes equal a sequential
    /// [`BpOsdDecoder::decode`] loop exactly.
    fn decode_batch(&mut self, syndromes: &[BitVec]) -> Vec<DecodeOutcome> {
        self.bp
            .decode_batch_results(syndromes)
            .into_iter()
            .zip(syndromes)
            .map(|(bp_result, s)| outcome_from(self.finish(s, bp_result)))
            .collect()
    }

    /// `"BP{bp_iters}-OSD{order}"` (with a `Layered` prefix under the
    /// layered schedule) — the paper's baseline names.
    fn label(&self) -> String {
        let bp = self.bp.config();
        let prefix = match bp.schedule {
            Schedule::Flooding => "",
            Schedule::Layered => "Layered",
        };
        format!("{prefix}BP{}-OSD{}", bp.max_iters, self.config.order)
    }

    fn family(&self) -> qldpc_decoder_api::DecoderFamily {
        qldpc_decoder_api::DecoderFamily::BpOsd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qldpc_codes::bb;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_h() -> SparseBitMatrix {
        SparseBitMatrix::from_row_indices(3, 6, &[vec![0, 1, 2], vec![2, 3, 4], vec![4, 5, 0]])
    }

    #[test]
    fn osd_solution_satisfies_syndrome() {
        let h = small_h();
        let mut dec = BpOsdDecoder::new(
            &h,
            &[0.1; 6],
            BpConfig {
                max_iters: 2,
                ..BpConfig::default()
            },
            OsdConfig::default(),
        );
        for mask in 0..8u32 {
            let s = BitVec::from_bools(&[(mask & 1) != 0, (mask & 2) != 0, (mask & 4) != 0]);
            let r = dec.decode(&s);
            assert!(r.solved);
            assert_eq!(
                h.mul_vec(&r.error_hat),
                s,
                "syndrome {mask:#b} not satisfied"
            );
        }
    }

    #[test]
    fn osd0_vs_cs_candidate_counts() {
        let h = small_h();
        let s = BitVec::from_indices(3, &[0, 1]);
        let posteriors = vec![0.0; 6];
        let priors = vec![0.1; 6];
        let (_, solved0, c0) = osd_postprocess(
            &h.to_dense(),
            &s,
            &posteriors,
            &priors,
            OsdConfig {
                order: 0,
                selection: OsdSelection::MinWeight,
            },
        );
        let (_, solved10, c10) = osd_postprocess(
            &h.to_dense(),
            &s,
            &posteriors,
            &priors,
            OsdConfig {
                order: 10,
                selection: OsdSelection::MinWeight,
            },
        );
        assert!(solved0 && solved10);
        assert_eq!(c0, 1);
        // rank = 3, so residual size t = 3: 1 + 3 weight-1 + C(3,2) weight-2.
        assert_eq!(c10, 1 + 3 + 3);
    }

    #[test]
    fn osd_cs_never_worse_than_osd0() {
        let code = bb::bb72();
        let hz = code.hz();
        let n = hz.cols();
        let priors = vec![0.03; n];
        let mut rng = StdRng::seed_from_u64(7);
        let dense = hz.to_dense();
        for _ in 0..10 {
            let mut e = BitVec::zeros(n);
            for i in 0..n {
                if rng.random_bool(0.03) {
                    e.set(i, true);
                }
            }
            let s = hz.mul_vec(&e);
            // Uninformative posteriors so OSD does the heavy lifting.
            let posteriors: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
            let (e0, _, _) = osd_postprocess(
                &dense,
                &s,
                &posteriors,
                &priors,
                OsdConfig {
                    order: 0,
                    selection: OsdSelection::MinWeight,
                },
            );
            let (ecs, _, _) = osd_postprocess(
                &dense,
                &s,
                &posteriors,
                &priors,
                OsdConfig {
                    order: 10,
                    selection: OsdSelection::MinWeight,
                },
            );
            assert_eq!(dense.mul_vec(&e0), s);
            assert_eq!(dense.mul_vec(&ecs), s);
            assert!(
                ecs.weight() <= e0.weight(),
                "CS must not be heavier than OSD-0"
            );
        }
    }

    #[test]
    fn bp_convergence_skips_osd() {
        let h = small_h();
        let mut dec = BpOsdDecoder::new(&h, &[0.05; 6], BpConfig::default(), OsdConfig::default());
        let r = dec.decode(&BitVec::zeros(3));
        assert!(r.bp_converged);
        assert_eq!(r.osd_candidates, 0);
        assert!(r.error_hat.is_zero());
    }

    #[test]
    fn corrects_weight_two_errors_on_bb72() {
        let code = bb::bb72();
        let hz = code.hz();
        let n = hz.cols();
        let mut dec = BpOsdDecoder::new(
            hz,
            &vec![0.01; n],
            BpConfig {
                max_iters: 30,
                ..BpConfig::default()
            },
            OsdConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..10 {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            let e = BitVec::from_indices(n, &[a, b]);
            let s = hz.mul_vec(&e);
            let r = dec.decode(&s);
            assert!(r.solved);
            assert_eq!(hz.mul_vec(&r.error_hat), s);
            // The correction must be equivalent to the true error: the
            // residual acts trivially on the logical space.
            let residual = &r.error_hat ^ &e;
            assert!(
                !code.is_x_logical_error(&residual),
                "weight-2 error caused a logical failure"
            );
        }
    }

    #[test]
    fn inconsistent_syndrome_reported() {
        // Zero matrix: only the zero syndrome is consistent.
        let h = BitMatrix::zeros(2, 3);
        let s = BitVec::from_indices(2, &[0]);
        let (_, solved, _) = osd_postprocess(&h, &s, &[0.0; 3], &[0.1; 3], OsdConfig::default());
        assert!(!solved);
    }
}
