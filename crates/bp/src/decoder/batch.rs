//! The decoder's one iteration loop, over a tile of lanes.
//!
//! This is the throughput side of the paper's core claim — that fully
//! parallelized BP wins on *throughput* because many syndromes can be
//! decoded simultaneously, amortizing the Tanner-graph traversal across
//! shots. [`MinSumDecoderOf`] keeps all message state in
//! structure-of-arrays slabs:
//!
//! * `c2v`: `num_edges × L` (edge-major, lane-minor),
//! * `total`, `next_total`: `num_vars × L`, per-lane running totals;
//!   `hard`, and `flip_counts` when oscillations are tracked,
//! * syndrome bits/signs: `num_checks × L`,
//!
//! where `L` is the lane width of one tile: either a whole number of
//! vectors of a wide SIMD target, or one lane. Each BP iteration is
//! **one check-major sweep** over the graph for all live lanes: per
//! check, V2C is formed as `clamp(total[v] − c2v[e])` into a per-check
//! scratch, the check rule writes the new C2V in place, and it is added
//! into `next_total` (flooding) or written through to the running
//! posterior (layered). A lane's posterior is `clamp(total)`, so there
//! is no V2C or posterior slab. An interleaved tile runs the sweep as
//! the **lane body** in [`wide`] — one safe body over
//! `[T; L]` blocks, compiled for the instruction set picked at runtime:
//! AVX-512 → AVX2, overridable per config
//! ([`BpConfig::simd_target`](crate::BpConfig::simd_target)) or
//! process-wide (`QLDPC_SIMD_TARGET`). A one-lane tile runs the
//! contiguous sweep, `MinSumDecoderOf::sweep_checks`, which keeps the
//! check's reduction in registers. The two formulations produce the
//! same floats, summed in the same order, so every lane's result is
//! **bit-identical on every dispatch target and at every tile width**,
//! enforced by `crates/bp/tests/batch_equivalence.rs` and
//! `tests/golden_minsum.rs`.
//!
//! # Precision
//!
//! The engine is generic over the [`Llr`] message scalar. At `f32`
//! ([`MinSumDecoderF32`](crate::MinSumDecoderF32)) the slabs are half as
//! wide, which doubles the lanes of each vector and halves the memory
//! traffic — the hardware-BP trade the source paper leans on. The
//! bit-identity contract holds *per precision*.
//!
//! # Early termination: lane compaction
//!
//! Per-shot early exit is preserved via an active-lane prefix instead of
//! a mask. After each iteration's syndrome check, the converged lanes
//! are snapshotted and the live width shrinks; one compaction pass then
//! moves the surviving lanes above the new width into the holes below
//! it, in the slabs that carry state across iterations (`c2v`, `total`,
//! the syndrome slabs, and `hard` and `flip_counts` when oscillations
//! are tracked) — a pure permutation, so no surviving lane's arithmetic
//! changes. Each iteration's cost is then proportional to the number of
//! *still-running* shots, exactly like a per-shot iteration sum.
//!
//! # Examples
//!
//! ```
//! use qldpc_bp::{BpConfig, MinSumDecoder};
//! use qldpc_gf2::{BitVec, SparseBitMatrix};
//!
//! let h = SparseBitMatrix::from_row_indices(2, 3, &[vec![0, 1], vec![1, 2]]);
//! let mut dec = MinSumDecoder::new(&h, &[0.1; 3], BpConfig::default());
//! let syndromes = vec![BitVec::zeros(2), BitVec::from_indices(2, &[0])];
//! let results = dec.decode_batch_results(&syndromes);
//! assert_eq!(results.len(), 2);
//! assert!(results[0].converged && results[0].error_hat.is_zero());
//! ```

use super::{BpResult, MinSumDecoderOf, Schedule};
use crate::llr::Llr;
use crate::wide;
use qldpc_gf2::BitVec;
use qldpc_simd::{AlignedSlab, SimdTarget};

/// Default cap on the lane width of one tile.
///
/// Bounds slab memory at about `(num_edges + 2 × num_vars) ×
/// DEFAULT_MAX_LANES` message scalars (the `c2v` slab and the two
/// running-total slabs) regardless of the caller's batch size; larger
/// batches are processed as consecutive tiles. Use this constant — not
/// its current literal value — anywhere a batch width should mean "one
/// full kernel tile" (the service's `max_batch` default does exactly
/// that).
///
/// Derived from the widest compiled-in vector
/// ([`MAX_F32_LANES`](qldpc_simd::MAX_F32_LANES)) so a full tile is a
/// whole number of vectors on every dispatch target at both precisions
/// (currently `8 × 16 = 128`).
pub const DEFAULT_MAX_LANES: usize = 8 * qldpc_simd::MAX_F32_LANES;

impl<T: Llr> MinSumDecoderOf<T> {
    /// Decodes one tile into `out`, in input order: one lane through the
    /// contiguous sweep when `target` is scalar, otherwise a whole number
    /// of `target` vectors of interleaved lanes through the lane body.
    ///
    /// This is the decoder's one iteration loop, and so the place for
    /// anything that must act once per iteration on every decode, initial
    /// BP and BP-SF trial alike: a stop rule for doomed decodes, a work
    /// budget and a stop flag (ROADMAP items 21, 7 and 1(c)) are the
    /// callers to come.
    pub(crate) fn decode_tile(
        &mut self,
        tile: &[BitVec],
        target: SimdTarget,
        out: &mut Vec<BpResult<T>>,
    ) {
        let lanes = tile.len();
        let vw = wide::lane_width::<T>(target);
        debug_assert!(lanes.is_multiple_of(vw) && (lanes == 1) == (target == SimdTarget::Scalar));
        self.reset(tile);
        let flooding = self.config.schedule == Schedule::Flooding;
        // Posterior memory (flooding only): `Some(γ)` when enabled.
        let gamma = self.config.memory_strength;
        let memory = (flooding && gamma != 0.0).then(|| T::from_f64(gamma));

        // Each shot's result is snapshotted the moment its lane retires,
        // not at the end of the tile: the lane body sweeps the live
        // prefix padded to whole vectors (below), so a retired lane's
        // slab state is no longer guaranteed frozen — its snapshot is.
        let mut results: Vec<Option<BpResult<T>>> = (0..lanes).map(|_| None).collect();

        // `width` is the live-lane prefix. The lane body sweeps it padded
        // to whole vectors, within the tile because the tile is whole
        // vectors; the padding columns hold retired lanes whose
        // recomputation is harmless (lanes are arithmetically isolated,
        // and their results were already snapshotted).
        let mut width = lanes;
        for iter in 1..=self.config.max_iters {
            if width == 0 {
                break;
            }
            for b in 0..width {
                self.iterations[self.lane_shot[b]] = iter;
            }
            let alpha = T::from_f64(self.config.damping.factor(iter));
            if let Some(gamma) = memory {
                self.blend_memory(gamma, lanes, width);
            }
            if target == SimdTarget::Scalar {
                self.sweep_checks(alpha, flooding);
            } else {
                let args = wide::SweepArgs {
                    graph: &self.graph,
                    channel: &self.channel_llrs,
                    syndrome_sign: &self.syndrome_sign,
                    c2v: &mut self.c2v,
                    total: &mut self.total,
                    next_total: &mut self.next_total,
                    incoming: &mut self.incoming,
                    flooding,
                    alpha,
                    lanes,
                    width: width.next_multiple_of(vw),
                };
                wide::sweep_wide(target, args);
            }
            if flooding {
                std::mem::swap(&mut self.total, &mut self.next_total);
            }
            self.hard_decision(lanes, width);
            self.compute_lane_ok(target, lanes, width);
            width = self.retire(lanes, width, &mut results);
        }

        // The lanes that never retired hold their live state in the
        // prefix the last compaction left.
        for b in 0..width {
            let shot = self.lane_shot[b];
            results[shot] = Some(self.snapshot_lane(b, lanes, shot));
        }
        out.extend(
            results
                .into_iter()
                .map(|r| r.expect("every shot retires or stays live")),
        );
    }

    /// Captures physical lane `b`'s state as shot `shot`'s result.
    fn snapshot_lane(&self, b: usize, lanes: usize, shot: usize) -> BpResult<T> {
        let vars = self.graph.num_vars();
        // Slabs are borrowed once, outside the per-variable loops.
        let (total, flip_counts) = (&self.total[..], &self.flip_counts[..]);
        let posteriors: Vec<T> = (0..vars)
            .map(|v| total[v * lanes + b].clamp_llr())
            .collect();
        let mut error_hat = BitVec::zeros(vars);
        for (v, &p) in posteriors.iter().enumerate() {
            if p <= T::ZERO {
                error_hat.set(v, true);
            }
        }
        BpResult {
            converged: self.converged[shot],
            error_hat,
            iterations: self.iterations[shot],
            posteriors,
            flip_counts: if self.config.track_oscillations {
                (0..vars).map(|v| flip_counts[v * lanes + b]).collect()
            } else {
                Vec::new()
            },
        }
    }

    /// Grows the slabs for `tile.len()` lanes (never shrinks them) and
    /// loads the tile's state. Only what a decode reads before writing is
    /// initialised: `c2v`, the totals and the syndromes, plus the hard
    /// decisions and flip counts when oscillations are tracked.
    fn reset(&mut self, tile: &[BitVec]) {
        fn grow<X: Copy>(slab: &mut AlignedSlab<X>, len: usize, fill: X) {
            if slab.len() < len {
                slab.resize(len, fill);
            }
        }
        let lanes = tile.len();
        let edges = self.graph.num_edges();
        let vars = self.graph.num_vars();
        let checks = self.graph.num_checks();
        let track = self.config.track_oscillations;
        grow(&mut self.c2v, edges * lanes, T::ZERO);
        grow(&mut self.total, vars * lanes, T::ZERO);
        grow(&mut self.next_total, vars * lanes, T::ZERO);
        grow(&mut self.incoming, self.max_check_degree * lanes, T::ZERO);
        grow(&mut self.hard, vars * lanes, false);
        if track {
            grow(&mut self.flip_counts, vars * lanes, 0);
        }
        grow(&mut self.syndrome_sign, checks * lanes, T::ZERO);
        grow(&mut self.syndrome_bit, checks * lanes, false);
        grow(&mut self.lane_ok, lanes, false);

        self.c2v[..edges * lanes].fill(T::ZERO);
        let rows = self.total[..vars * lanes].chunks_exact_mut(lanes);
        for (row, &llr) in rows.zip(&self.channel_llrs) {
            row.fill(llr);
        }
        if track {
            self.hard[..vars * lanes].fill(false);
            self.flip_counts[..vars * lanes].fill(0);
        }
        for c in 0..checks {
            let bits = &mut self.syndrome_bit[c * lanes..(c + 1) * lanes];
            let signs = &mut self.syndrome_sign[c * lanes..(c + 1) * lanes];
            for ((bit, sign), s) in bits.iter_mut().zip(signs.iter_mut()).zip(tile) {
                *bit = s.get(c);
                *sign = if *bit { -T::ONE } else { T::ONE };
            }
        }

        self.lane_shot.clear();
        self.lane_shot.extend(0..lanes);
        self.converged.clear();
        self.converged.resize(lanes, false);
        self.iterations.clear();
        self.iterations.resize(lanes, 0);
    }

    /// Posterior memory: re-forms each live lane's `total` with
    /// `(1−γ)·l_ch + γ·posterior` in place of `l_ch`. The one
    /// variable-major pass over `c2v`, paid only by the configuration
    /// that needs it.
    fn blend_memory(&mut self, gamma: T, lanes: usize, width: usize) {
        let (total, c2v) = (&mut self.total[..], &self.c2v[..]);
        for (v, &llr) in self.channel_llrs.iter().enumerate() {
            let totals = &mut total[v * lanes..v * lanes + width];
            for t in totals.iter_mut() {
                *t = (T::ONE - gamma) * llr + gamma * t.clamp_llr();
            }
            let edges = self.graph.var_edges(v);
            if let [t] = totals {
                // One live lane: a running sum in a register, not a
                // one-element row pass per edge (1.4× the whole decode
                // at one lane).
                let mut sum = *t;
                for &e in edges {
                    sum += c2v[e as usize * lanes];
                }
                *t = sum;
                continue;
            }
            for &e in edges {
                let eb = e as usize * lanes;
                for (t, &m) in totals.iter_mut().zip(&c2v[eb..eb + width]) {
                    *t += m;
                }
            }
        }
    }

    /// Hard decision (paper Eq. 8) on the live lanes: error where the
    /// posterior `clamp(total)` is `<= 0`, which is where `total` is.
    /// With oscillation tracking, counts the flips against the last
    /// iteration's decision first.
    fn hard_decision(&mut self, lanes: usize, width: usize) {
        let len = self.graph.num_vars() * lanes;
        // With every lane live (always, in a one-lane tile) the slabs are
        // one row: a flat pass without a per-variable inner loop.
        let (row, width) = if width == lanes {
            (len.max(1), len)
        } else {
            (lanes, width)
        };
        let totals = self.total[..len].chunks_exact(row);
        let rows = totals.zip(self.hard[..len].chunks_exact_mut(row));
        if self.config.track_oscillations {
            let flips = self.flip_counts[..len].chunks_exact_mut(row);
            for ((totals, hard), flips) in rows.zip(flips) {
                let lanes = hard[..width].iter_mut().zip(&mut flips[..width]);
                for ((h, f), &t) in lanes.zip(&totals[..width]) {
                    let bit = t <= T::ZERO;
                    *f += u32::from(bit != *h);
                    *h = bit;
                }
            }
        } else {
            for (totals, hard) in rows {
                for (h, &t) in hard[..width].iter_mut().zip(&totals[..width]) {
                    *h = t <= T::ZERO;
                }
            }
        }
    }

    /// Retires the converged lanes of the live prefix `..width` and
    /// returns the new width: each converged lane is snapshotted, then
    /// one compaction pass moves the surviving lanes at or above the new
    /// width into the converged lanes' holes below it, in every slab
    /// that carries state into the next iteration.
    fn retire(&mut self, lanes: usize, width: usize, results: &mut [Option<BpResult<T>>]) -> usize {
        let mut kept = width;
        for b in 0..width {
            if self.lane_ok[b] {
                let shot = self.lane_shot[b];
                self.converged[shot] = true;
                results[shot] = Some(self.snapshot_lane(b, lanes, shot));
                kept -= 1;
            }
        }
        let ok = &self.lane_ok[..width];
        let holes = (0..kept).filter(|&b| ok[b]);
        let fillers = (kept..width).filter(|&b| !ok[b]);
        self.moves.clear();
        self.moves.extend(holes.zip(fillers));
        if self.moves.is_empty() {
            return kept;
        }
        fn compact<X: Copy>(slab: &mut [X], lanes: usize, moves: &[(usize, usize)]) {
            for row in slab.chunks_exact_mut(lanes) {
                for &(hole, filler) in moves {
                    row[hole] = row[filler];
                }
            }
        }
        let moves = &self.moves;
        let vars = self.graph.num_vars() * lanes;
        let checks = self.graph.num_checks() * lanes;
        compact(
            &mut self.c2v[..self.graph.num_edges() * lanes],
            lanes,
            moves,
        );
        compact(&mut self.total[..vars], lanes, moves);
        compact(&mut self.syndrome_sign[..checks], lanes, moves);
        compact(&mut self.syndrome_bit[..checks], lanes, moves);
        compact(&mut self.lane_shot, lanes, moves);
        if self.config.track_oscillations {
            compact(&mut self.hard[..vars], lanes, moves);
            compact(&mut self.flip_counts[..vars], lanes, moves);
        }
        kept
    }

    /// Checks `H·ê = s` for every live lane at once, filling
    /// `lane_ok[..width]`. Narrow live prefixes (late-stage compaction,
    /// tiny batches) are better served by a short-circuiting per-lane
    /// walk — the slab pass always reads every edge, the walk usually
    /// stops at the first unsatisfied check. Wider ones run the slab
    /// pass ([`wide::lane_ok`]) over contiguous byte rows at `target`'s
    /// vector width. Pure boolean arithmetic, so every path computes
    /// identical verdicts.
    fn compute_lane_ok(&mut self, target: SimdTarget, lanes: usize, width: usize) {
        if width >= 8 {
            wide::lane_ok(
                target,
                &self.graph,
                &self.hard,
                &self.syndrome_bit,
                &mut self.lane_ok,
                lanes,
                width,
            );
            return;
        }
        let (hard, syndrome_bit) = (&self.hard[..], &self.syndrome_bit[..]);
        for (b, o) in self.lane_ok[..width].iter_mut().enumerate() {
            *o = 'lane: {
                for c in 0..self.graph.num_checks() {
                    let mut parity = false;
                    for &v in self.graph.check_vars(c) {
                        parity ^= hard[v as usize * lanes + b];
                    }
                    if parity != syndrome_bit[c * lanes + b] {
                        break 'lane false;
                    }
                }
                true
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BpConfig, MinSumDecoder, MinSumDecoderF32};
    use qldpc_gf2::SparseBitMatrix;

    fn repetition_h(n: usize) -> SparseBitMatrix {
        let rows: Vec<Vec<usize>> = (0..n - 1).map(|i| vec![i, i + 1]).collect();
        SparseBitMatrix::from_row_indices(n - 1, n, &rows)
    }

    #[test]
    fn empty_batch_returns_empty() {
        let h = repetition_h(5);
        let mut dec = MinSumDecoder::new(&h, &[0.05; 5], BpConfig::default());
        assert!(dec.decode_batch_results(&[]).is_empty());
    }

    #[test]
    fn corrects_single_errors_across_lanes() {
        let h = repetition_h(9);
        let mut dec = MinSumDecoder::new(&h, &[0.05; 9], BpConfig::default());
        let errors: Vec<BitVec> = (0..9).map(|b| BitVec::from_indices(9, &[b])).collect();
        let syndromes: Vec<BitVec> = errors.iter().map(|e| h.mul_vec(e)).collect();
        let results = dec.decode_batch_results(&syndromes);
        for (bit, (r, e)) in results.iter().zip(&errors).enumerate() {
            assert!(r.converged, "lane {bit} failed");
            assert_eq!(&r.error_hat, e, "lane {bit} mis-decoded");
        }
    }

    #[test]
    fn matches_scalar_bitwise_on_a_mixed_batch() {
        let h = repetition_h(9);
        let config = BpConfig {
            max_iters: 30,
            track_oscillations: true,
            ..BpConfig::default()
        };
        let mut batch = MinSumDecoder::new(&h, &[0.05; 9], config);
        let mut scalar = MinSumDecoder::new(&h, &[0.05; 9], config);
        let syndromes: Vec<BitVec> = [vec![], vec![3], vec![1, 5], vec![0, 4, 8]]
            .iter()
            .map(|bits| h.mul_vec(&BitVec::from_indices(9, bits)))
            .collect();
        let rb = batch.decode_batch_results(&syndromes);
        for (r, s) in rb.iter().zip(&syndromes) {
            let rs = scalar.decode(s);
            assert_eq!(r.converged, rs.converged);
            assert_eq!(r.iterations, rs.iterations);
            assert_eq!(r.error_hat, rs.error_hat);
            assert_eq!(r.flip_counts, rs.flip_counts);
            for (a, b) in r.posteriors.iter().zip(&rs.posteriors) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// The same contract at f32: the reduced-precision batch engine is
    /// bit-identical to the reduced-precision scalar decoder (and both
    /// genuinely run in f32 — their posteriors are f32 values).
    #[test]
    fn f32_batch_matches_f32_scalar_bitwise() {
        let h = repetition_h(9);
        let config = BpConfig {
            max_iters: 30,
            track_oscillations: true,
            ..BpConfig::default()
        };
        let mut batch = MinSumDecoderF32::new(&h, &[0.05; 9], config);
        let mut scalar = MinSumDecoderF32::new(&h, &[0.05; 9], config);
        let syndromes: Vec<BitVec> = [vec![], vec![3], vec![1, 5], vec![0, 4, 8]]
            .iter()
            .map(|bits| h.mul_vec(&BitVec::from_indices(9, bits)))
            .collect();
        let rb = batch.decode_batch_results(&syndromes);
        for (r, s) in rb.iter().zip(&syndromes) {
            let rs = scalar.decode(s);
            assert_eq!(r.converged, rs.converged);
            assert_eq!(r.iterations, rs.iterations);
            assert_eq!(r.error_hat, rs.error_hat);
            assert_eq!(r.flip_counts, rs.flip_counts);
            for (a, b) in r.posteriors.iter().zip(&rs.posteriors) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn tiling_is_invisible() {
        let h = repetition_h(9);
        let syndromes: Vec<BitVec> = (0..10)
            .map(|i| h.mul_vec(&BitVec::from_indices(9, &[i % 9])))
            .collect();
        let mut wide = MinSumDecoder::new(&h, &[0.05; 9], BpConfig::default());
        let mut narrow = MinSumDecoder::new(&h, &[0.05; 9], BpConfig::default());
        narrow.set_max_lanes(4); // 10 shots → tiles of 4, 4, 2 (ragged tail)
        let rw = wide.decode_batch_results(&syndromes);
        let rn = narrow.decode_batch_results(&syndromes);
        assert_eq!(rw.len(), rn.len());
        for (a, b) in rw.iter().zip(&rn) {
            assert_eq!(a.error_hat, b.error_hat);
            assert_eq!(a.iterations, b.iterations);
            for (x, y) in a.posteriors.iter().zip(&b.posteriors) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "syndrome length")]
    fn wrong_syndrome_length_panics() {
        let h = repetition_h(5);
        let mut dec = MinSumDecoder::new(&h, &[0.05; 5], BpConfig::default());
        dec.decode_batch_results(&[BitVec::zeros(4), BitVec::zeros(5)]);
    }

    /// Dispatch-aware compaction padding: every tile width from one lane
    /// up to twice the widest vector (so every vector/remainder split,
    /// including widths that compact through them mid-decode), and 63–65
    /// and 127–129 lanes, around one and two full 64-byte syndrome-check
    /// vectors (129 is a full tile and a one-lane one), stays
    /// bit-identical to decoding each shot alone on every target this CPU
    /// can run, at both precisions, under all three sweep variants:
    /// flooding, layered, and flooding with posterior memory.
    #[test]
    fn every_target_matches_scalar_across_tail_widths() {
        fn run<T: Llr>() {
            let h = repetition_h(9);
            for (schedule, memory_strength) in [
                (Schedule::Flooding, 0.0),
                (Schedule::Layered, 0.0),
                (Schedule::Flooding, 0.4),
            ] {
                let config = BpConfig {
                    max_iters: 30,
                    schedule,
                    memory_strength,
                    track_oscillations: true,
                    ..BpConfig::default()
                };
                let mut scalar = MinSumDecoderOf::<T>::new(&h, &[0.05; 9], config);
                for &target in qldpc_simd::supported_targets() {
                    let config = BpConfig {
                        simd_target: Some(target),
                        ..config
                    };
                    let mut batch = MinSumDecoderOf::<T>::new(&h, &[0.05; 9], config);
                    assert_eq!(batch.resolved_simd_target(), target);
                    let max_width = 2 * qldpc_simd::MAX_F32_LANES + 1;
                    for width in (1..=max_width).chain([63, 64, 65, 127, 128, 129]) {
                        let syndromes: Vec<BitVec> = (0..width)
                            .map(|i| h.mul_vec(&BitVec::from_indices(9, &[i % 9])))
                            .collect();
                        let rb = batch.decode_batch_results(&syndromes);
                        for (i, (r, s)) in rb.iter().zip(&syndromes).enumerate() {
                            let rs = scalar.decode(s);
                            let ctx = format!(
                                "{target} {schedule:?} γ={memory_strength} w={width} shot {i} ({})",
                                T::PRECISION
                            );
                            assert_eq!(r.converged, rs.converged, "{ctx}");
                            assert_eq!(r.iterations, rs.iterations, "{ctx}");
                            assert_eq!(r.error_hat, rs.error_hat, "{ctx}");
                            assert_eq!(r.flip_counts, rs.flip_counts, "{ctx}");
                            for (a, b) in r.posteriors.iter().zip(&rs.posteriors) {
                                assert_eq!(a.to_bits_u64(), b.to_bits_u64(), "{ctx}");
                            }
                        }
                    }
                }
            }
        }
        run::<f64>();
        run::<f32>();
    }

    /// The sum-product rule has no lane body: any pinned target resolves
    /// to scalar dispatch, which decodes every lane alone, rather than
    /// silently running a kernel that does not exist.
    #[test]
    fn sum_product_always_resolves_scalar() {
        let h = repetition_h(5);
        let config = BpConfig {
            algorithm: crate::BpAlgorithm::SumProduct,
            simd_target: Some(*qldpc_simd::supported_targets().last().unwrap()),
            ..BpConfig::default()
        };
        let dec = MinSumDecoder::new(&h, &[0.05; 5], config);
        assert_eq!(dec.resolved_simd_target(), SimdTarget::Scalar);
    }

    /// Pinning a target the CPU cannot run panics loudly instead of
    /// silently degrading (which would fake forced-target coverage).
    #[test]
    fn unavailable_pinned_target_panics() {
        let unavailable = [SimdTarget::Avx2, SimdTarget::Avx512]
            .into_iter()
            .find(|t| !t.is_available());
        let Some(target) = unavailable else {
            eprintln!("skipping: every compiled-in target is available here");
            return;
        };
        let h = repetition_h(5);
        let config = BpConfig {
            simd_target: Some(target),
            ..BpConfig::default()
        };
        let mut dec = MinSumDecoder::new(&h, &[0.05; 5], config);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dec.decode(&BitVec::zeros(4))
        }))
        .expect_err("pinning an unavailable target must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("does not support"), "got: {msg}");
    }
}
