//! The lane-generic check-node update core: the batch engine's scalar
//! target, and the oracle every other check update is held against.
//!
//! [`update_check_lanes`] recomputes the check-to-variable messages of a
//! single check for a prefix of `width` live lanes out of a buffer with
//! `stride` interleaved lanes, laid out edge-major, lane-minor: the
//! message of local edge `j` in lane `b` lives at index `j * stride + b`,
//! so the per-lane inner loops walk contiguous memory and auto-vectorize
//! over the batch dimension. Its callers hand it one check's V2C
//! messages in a per-check scratch and take the C2V messages from a
//! second one:
//!
//! * the batch engine's check-major sweep (`crates/bp/src/batch.rs`),
//!   on the scalar target for the whole tile and on a wide target for
//!   the lanes past the last whole vector, with `stride == width` the
//!   number of lanes it covers;
//! * the scalar [`MinSumDecoder`](crate::MinSumDecoder)'s sweep, for the
//!   sum-product rule only, at `stride == width == 1`.
//!
//! The core is generic over the [`Llr`] scalar (`f64` or `f32`): every
//! arithmetic step, constant and clamp comes from the trait, so the two
//! precisions run the same algorithm at different widths and the
//! bit-identity invariant holds *per precision*.
//!
//! This module is the **oracle** for two re-expressions of its min-sum
//! branch, each of which must produce *the same floats in the same
//! association order per shot*:
//!
//! * the lane-block sweep in `crates/bp/src/wide.rs`, which redoes
//!   these loops over `[T; L]` blocks with the same `<` selects, `abs`,
//!   negation and operand order (Rust's IEEE semantics, no FMA
//!   contraction, make that bit-equal on every target) and is pinned
//!   against this path by the forced-target equivalence suites;
//! * the scalar decoder's check-major sweep (`crates/bp/src/decoder.rs`),
//!   which keeps one lane's two-minimum reduction in registers instead
//!   of calling this core, and is pinned to it through the
//!   batch-vs-scalar property suite
//!   (`crates/bp/tests/batch_equivalence.rs`) and the golden fingerprints.
//!
//! Any numerical change here must land in both in the same commit — the
//! suites fail loudly if they drift. The sum-product branch has no twin:
//! the batch engine and the scalar sweep both run it here.

use crate::llr::Llr;
use crate::BpAlgorithm;

/// Per-lane reduction state for one check update, reused across checks and
/// decodes so the hot loop never allocates.
#[derive(Debug, Clone, Default)]
pub(crate) struct CheckScratch<T: Llr> {
    /// Smallest incoming magnitude per lane (min-sum).
    min1: Vec<T>,
    /// Second-smallest incoming magnitude per lane (min-sum).
    min2: Vec<T>,
    /// Local edge index attaining `min1` per lane (min-sum). `u32` (not
    /// `usize`): narrow index lanes keep the reduction loop's vector
    /// width from being dragged down to 64-bit elements.
    argmin: Vec<u32>,
    /// Running sign product per lane (both rules).
    sign: Vec<T>,
    /// Σ ln tanh(|m|/2) over nonzero factors per lane (sum-product).
    log_mag: Vec<T>,
    /// Number of (numerically) zero tanh factors per lane (sum-product).
    zeros: Vec<u32>,
    /// Local edge index of the last zero factor per lane (sum-product).
    zero_edge: Vec<u32>,
}

impl<T: Llr> CheckScratch<T> {
    /// Scratch sized for `lanes` interleaved shots.
    pub(crate) fn new(lanes: usize) -> Self {
        let mut s = Self::default();
        s.ensure(lanes);
        s
    }

    /// Grows (never shrinks) the per-lane buffers to `lanes`.
    pub(crate) fn ensure(&mut self, lanes: usize) {
        if self.min1.len() < lanes {
            self.min1.resize(lanes, T::ZERO);
            self.min2.resize(lanes, T::ZERO);
            self.argmin.resize(lanes, 0);
            self.sign.resize(lanes, T::ZERO);
            self.log_mag.resize(lanes, T::ZERO);
            self.zeros.resize(lanes, 0);
            self.zero_edge.resize(lanes, 0);
        }
    }
}

/// Recomputes the C2V messages of one check from its V2C messages for the
/// first `width` lanes of a `stride`-interleaved slab (paper Eq. 6, or
/// the exact tanh rule).
///
/// `v2c` and `c2v` hold the check's `deg × stride` sub-slab (edge-major,
/// lane-minor; with `stride == width == 1` these are plain per-edge
/// slices). `base_sign[b]` is `-1.0` where lane `b`'s syndrome bit is
/// set, `+1.0` otherwise. Lanes at or beyond `width` are left untouched.
#[allow(clippy::too_many_arguments)]
pub(crate) fn update_check_lanes<T: Llr>(
    algorithm: BpAlgorithm,
    v2c: &[T],
    c2v: &mut [T],
    stride: usize,
    width: usize,
    base_sign: &[T],
    alpha: T,
    scratch: &mut CheckScratch<T>,
) {
    debug_assert_eq!(v2c.len(), c2v.len());
    debug_assert_eq!(v2c.len() % stride.max(1), 0);
    debug_assert!(width <= stride);
    debug_assert_eq!(base_sign.len(), width);
    let deg = v2c.len() / stride.max(1);
    scratch.ensure(width);
    match algorithm {
        BpAlgorithm::MinSum => {
            // Width-sliced views hoist every bounds check out of the
            // per-lane loops so they vectorize over the batch dimension.
            let min1 = &mut scratch.min1[..width];
            let min2 = &mut scratch.min2[..width];
            let argmin = &mut scratch.argmin[..width];
            let sign = &mut scratch.sign[..width];
            for b in 0..width {
                min1[b] = T::INFINITY;
                min2[b] = T::INFINITY;
                argmin[b] = u32::MAX;
                sign[b] = base_sign[b];
            }
            for j in 0..deg {
                let row = &v2c[j * stride..j * stride + width];
                // Branchless select form of the classic two-minimum
                // update (`if mag < min1 {…} else if mag < min2 {…}`):
                // every lane assigns the same values the branchy form
                // would, so the float stream is unchanged, but the loop
                // body if-converts and vectorizes over the lanes.
                for (b, &m) in row.iter().enumerate() {
                    let mag = m.abs();
                    let new_best = mag < min1[b];
                    let second = if new_best { min1[b] } else { min2[b] };
                    min2[b] = if mag < min2[b] && !new_best {
                        mag
                    } else {
                        second
                    };
                    min1[b] = if new_best { mag } else { min1[b] };
                    argmin[b] = if new_best { j as u32 } else { argmin[b] };
                    sign[b] = if m < T::ZERO { -sign[b] } else { sign[b] };
                }
            }
            for j in 0..deg {
                let vrow = &v2c[j * stride..j * stride + width];
                let crow = &mut c2v[j * stride..j * stride + width];
                for (b, (out, &m)) in crow.iter_mut().zip(vrow).enumerate() {
                    let mag = if j as u32 == argmin[b] {
                        min2[b]
                    } else {
                        min1[b]
                    };
                    let own_sign = if m < T::ZERO { -T::ONE } else { T::ONE };
                    *out = (sign[b] * own_sign * alpha * mag).clamp_llr();
                }
            }
        }
        BpAlgorithm::SumProduct => {
            // Π tanh(|m|/2) with zero-factor bookkeeping so the exclusive
            // product stays well defined.
            let sign = &mut scratch.sign[..width];
            let log_mag = &mut scratch.log_mag[..width];
            let zeros = &mut scratch.zeros[..width];
            let zero_edge = &mut scratch.zero_edge[..width];
            for (b, s) in sign.iter_mut().enumerate() {
                *s = base_sign[b];
                log_mag[b] = T::ZERO;
                zeros[b] = 0;
                zero_edge[b] = u32::MAX;
            }
            for j in 0..deg {
                let row = &v2c[j * stride..j * stride + width];
                for (b, &m) in row.iter().enumerate() {
                    if m < T::ZERO {
                        sign[b] = -sign[b];
                    }
                    let t = (m.abs() / T::TWO).tanh();
                    if t < T::TANH_FLOOR {
                        zeros[b] += 1;
                        zero_edge[b] = j as u32;
                    } else {
                        log_mag[b] += t.ln();
                    }
                }
            }
            for j in 0..deg {
                let vrow = &v2c[j * stride..j * stride + width];
                let crow = &mut c2v[j * stride..j * stride + width];
                for (b, (out, &m)) in crow.iter_mut().zip(vrow).enumerate() {
                    let own_sign = if m < T::ZERO { -T::ONE } else { T::ONE };
                    let excl = if zeros[b] > 1 || (zeros[b] == 1 && j as u32 != zero_edge[b]) {
                        T::ZERO
                    } else {
                        let mut log_excl = log_mag[b];
                        if zeros[b] == 0 {
                            let t = (m.abs() / T::TWO).tanh();
                            log_excl -= t.ln();
                        }
                        log_excl.exp().min(T::ATANH_CEIL)
                    };
                    let mag = T::TWO * excl.atanh();
                    *out = (sign[b] * own_sign * alpha * mag).clamp_llr();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With two interleaved lanes and lane 0 fed the scalar messages,
    /// lane 0 must produce the same bits as a `stride == 1` call — and a
    /// `width == 1` call on the two-lane slab must leave lane 1 alone.
    fn lanes_are_independent_for<T: Llr>() {
        for algorithm in [BpAlgorithm::MinSum, BpAlgorithm::SumProduct] {
            let v2c_scalar: [T; 4] = [
                T::from_f64(0.7),
                T::from_f64(-1.3),
                T::from_f64(0.2),
                T::from_f64(4.0),
            ];
            let alpha = T::from_f64(0.8);
            let mut c2v_scalar = [T::ZERO; 4];
            let mut scratch = CheckScratch::new(1);
            update_check_lanes(
                algorithm,
                &v2c_scalar,
                &mut c2v_scalar,
                1,
                1,
                &[-T::ONE],
                alpha,
                &mut scratch,
            );

            // Lane 0 mirrors the scalar input, lane 1 holds a decoy.
            let mut v2c = [T::ZERO; 8];
            for j in 0..4 {
                v2c[2 * j] = v2c_scalar[j];
                v2c[2 * j + 1] = T::from_f64(-0.5) * v2c_scalar[j] + T::from_f64(0.1);
            }
            let seven = T::from_f64(7.0);
            let mut c2v = [seven; 8];
            let mut scratch2 = CheckScratch::new(2);
            update_check_lanes(
                algorithm,
                &v2c,
                &mut c2v,
                2,
                2,
                &[-T::ONE, T::ONE],
                alpha,
                &mut scratch2,
            );
            for j in 0..4 {
                assert_eq!(
                    c2v[2 * j].to_bits_u64(),
                    c2v_scalar[j].to_bits_u64(),
                    "{algorithm:?} edge {j} diverged across lane widths ({})",
                    T::PRECISION,
                );
            }

            // width < stride: only the live prefix is written.
            let mut c2v_narrow = [seven; 8];
            update_check_lanes(
                algorithm,
                &v2c,
                &mut c2v_narrow,
                2,
                1,
                &[-T::ONE],
                alpha,
                &mut scratch2,
            );
            for j in 0..4 {
                assert_eq!(c2v_narrow[2 * j].to_bits_u64(), c2v_scalar[j].to_bits_u64());
                assert_eq!(c2v_narrow[2 * j + 1], seven, "retired lane was touched");
            }
        }
    }

    #[test]
    fn lanes_are_independent() {
        lanes_are_independent_for::<f64>();
        lanes_are_independent_for::<f32>();
    }

    fn min_sum_excludes_own_message_for<T: Llr>() {
        // Degree-3 check, distinct magnitudes: each edge must see the
        // minimum over the *other* edges.
        let v2c: [T; 3] = [T::ONE, T::TWO, T::from_f64(3.0)];
        let mut c2v = [T::ZERO; 3];
        let mut scratch = CheckScratch::new(1);
        update_check_lanes(
            BpAlgorithm::MinSum,
            &v2c,
            &mut c2v,
            1,
            1,
            &[T::ONE],
            T::ONE,
            &mut scratch,
        );
        assert_eq!(c2v, [T::TWO, T::ONE, T::ONE]);
    }

    #[test]
    fn min_sum_excludes_own_message() {
        min_sum_excludes_own_message_for::<f64>();
        min_sum_excludes_own_message_for::<f32>();
    }
}
