//! The sum-product (tanh) check rule for one lane.
//!
//! Min-sum's check rule is written twice, and the two formulations pin
//! each other: the one-lane select in `MinSumDecoderOf::sweep_checks`
//! (`crates/bp/src/decoder.rs`) and the lane body's argmin in
//! `crates/bp/src/wide.rs`, held bit-equal by
//! `crates/bp/tests/batch_equivalence.rs` and the golden fingerprints.
//! The exact sum-product rule has no lane body: its tanh/ln/exp chain
//! gains nothing from interleaving, so every sum-product lane is decoded
//! alone and runs [`sum_product`] from the one-lane sweep.
//!
//! The rule is generic over the [`Llr`] scalar (`f64` or `f32`): every
//! arithmetic step, constant and clamp comes from the trait, so the two
//! precisions run the same algorithm and each has its own guard
//! constants (`TANH_FLOOR`, `ATANH_CEIL`).

use crate::llr::Llr;

/// Recomputes the C2V messages `c2v` of one check from its V2C messages
/// `v2c` under the exact sum-product rule, damped by `alpha` like
/// min-sum: magnitude `2·atanh(Π tanh(|m|/2))` over the other edges,
/// sign the product of the other edges' signs, flipped where the
/// syndrome bit is set.
///
/// Factors with `tanh(|m|/2) < TANH_FLOOR` count as exact zeros, so the
/// exclusive product stays well defined without dividing by them.
pub(crate) fn sum_product<T: Llr>(v2c: &[T], c2v: &mut [T], syndrome_bit: bool, alpha: T) {
    debug_assert_eq!(v2c.len(), c2v.len());
    let mut sign = if syndrome_bit { -T::ONE } else { T::ONE };
    let (mut log_mag, mut zeros, mut zero_edge) = (T::ZERO, 0u32, usize::MAX);
    for (j, &m) in v2c.iter().enumerate() {
        if m < T::ZERO {
            sign = -sign;
        }
        let t = (m.abs() / T::TWO).tanh();
        if t < T::TANH_FLOOR {
            zeros += 1;
            zero_edge = j;
        } else {
            log_mag += t.ln();
        }
    }
    for (j, (out, &m)) in c2v.iter_mut().zip(v2c).enumerate() {
        let own_sign = if m < T::ZERO { -T::ONE } else { T::ONE };
        let excl = if zeros > 1 || (zeros == 1 && j != zero_edge) {
            T::ZERO
        } else {
            let mut log_excl = log_mag;
            if zeros == 0 {
                let t = (m.abs() / T::TWO).tanh();
                log_excl -= t.ln();
            }
            log_excl.exp().min(T::ATANH_CEIL)
        };
        let mag = T::TWO * excl.atanh();
        *out = (sign * own_sign * alpha * mag).clamp_llr();
    }
}
